import importlib.util
import pathlib
import subprocess
import sys

import pytest

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


# A reader that closes the pipe before the counts are written (`| head -1`
# closes it after one line) ends the run quietly.
def test_closed_pipe_ends_quietly(tmp_path):
    for i in range(3):
        (tmp_path / f"m{i}.py").write_text(MODULE)
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "count_code_lines.py"), str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the only read end: every write now fails
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 0


# A mistyped path, a file that is not Python, or one that does not
# tokenize, is an error, not 0 lines, and no count is printed: z.py sorts
# after m.py, which counts fine.
@pytest.mark.parametrize("name, content, problem", [
    ("optishap", None, "no such file or directory"),
    ("README.md", b"# Title\n\nSome `code`.\n", "not a .py file"),
    ("z.py", b"def f(:\n  x = (\n", "does not tokenize"),
    ("z.py", b"# -*- coding: nope -*-\nx = 1\n", "does not tokenize"),
], ids=["missing path", "non-Python file", "unclosed bracket", "unknown encoding"])
def test_wrong_path_exits_2(tmp_path, capsys, name, content, problem):
    (tmp_path / "m.py").write_text(MODULE)
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    assert count_code_lines.main([str(tmp_path / "m.py"), str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: {problem}\n"
