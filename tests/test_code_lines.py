import importlib.util
from pathlib import Path

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment

# a comment line
def f(x):
    """Function docstring."""
    return math.fsum([x,
                      2 * x])
'''


def load_counter():
    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path, capsys):
    # import, def and both lines of the return expression
    counter = load_counter()
    assert counter.code_lines(SOURCE) == 4
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = [x,\n     x]\n")
    assert counter.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["4", str(tmp_path / "a.py")], ["3", str(tmp_path / "b.py")], ["7", "total"]]
