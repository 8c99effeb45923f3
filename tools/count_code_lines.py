"""Count the code lines of Python source files.

A code line holds at least one code token.  Blank lines, comment lines and
docstring lines are skipped: a docstring is a string literal that forms a
statement on its own.  Stdlib only.

Usage: python tools/count_code_lines.py [PATH ...]   (default: src/optishape)

Prints one line per file, then the total, like ``wc -l``.  A reader that
closes the pipe early (``| head -1``) ends the run quietly, with exit 0.  A
path that does not exist, or a file named directly that is not ``.py``,
exits 2 with a message naming it, before anything is counted.  So does a
file that does not tokenize (unbalanced brackets at its end, an unknown or
wrong encoding), before anything is printed.
"""

from __future__ import annotations

import os
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    """Number of lines of ``path`` that hold a code token."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type in _SKIP:
                if tok.type == tokenize.NEWLINE:
                    if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                        for t in statement:
                            lines.update(range(t.start[0], t.end[0] + 1))
                    statement = []
                continue
            statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [pathlib.Path(p) for p in argv] or [pathlib.Path("src/optishape")]
    for r in roots:
        problem = ("no such file or directory" if not r.exists()
                   else "not a .py file" if r.is_file() and r.suffix != ".py" else None)
        if problem:
            print(f"error: {r}: {problem}", file=sys.stderr)
            return 2
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    counts = []
    for f in files:
        try:
            counts.append(code_lines(f))
        except (tokenize.TokenError, SyntaxError, UnicodeDecodeError):
            print(f"error: {f}: does not tokenize", file=sys.stderr)
            return 2
    for n, f in zip(counts, files):
        print(f"{n:6d} {f}")
    print(f"{sum(counts):6d} total")
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Nobody reads the rest.  Point stdout at devnull, so that the
        # interpreter's flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
