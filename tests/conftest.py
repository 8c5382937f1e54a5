import pytest

from laserclock import laserdyn


@pytest.fixture(autouse=True)
def fresh_linewidth_bracket():
    # linewidth_bracket keeps its last result: no test reads a bracket that an
    # earlier test cached, perhaps under a patched constant or helper
    laserdyn.linewidth_bracket.cache_clear()


acceptance_lines = []


def record_acceptance(line):
    acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
