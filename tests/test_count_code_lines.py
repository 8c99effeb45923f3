import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "count_code_lines", ROOT / "tools" / "count_code_lines.py")
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

# Code lines: import (5), def (8), the four-line call (10-13) and the
# two-line print (16-17), whose second argument is a string literal.
MODULE = '''"""Module docstring,
over two lines."""

# a comment line
import os


def join(x):
    """Function docstring."""
    return os.path.join(
        x,
        "literal",
    )


print(join("a"),
      "an argument, not a docstring")
'''


def test_counts_only_lines_holding_code(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(MODULE)
    assert count_code_lines.code_lines(path) == 8
    assert count_code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"     8 {path}\n     8 total\n"
