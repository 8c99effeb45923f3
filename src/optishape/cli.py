"""Command-line front end: solve catalog problems, verify invariants, and
emit curve data for plotting.

Exit status: 0 success, 1 a failed residual or verify check, 2 usage error,
3 the answer does not fit in a float, 4 a write error: stdout, where every
command writes, could not be written.  A write error prints ``error:
cannot write: ...`` on stderr, except a closed stdout pipe (the reader
stopped reading), which exits 4 with nothing on stderr.  ``--help`` writes
through the same path.  ``main`` returns the exit code, for ``--help`` and
usage errors too.  A flag's text is only parsed, by its ``problems.Input``
type: a value out of range is refused by the library's own check, whose
ValueError exits 2 with ``error: ...`` on stderr and nothing on stdout.  Any
exception raised inside a verify suite is a fault of the program, not of
its input: it exits 1, still with ``error: ...`` on stderr and nothing on
stdout.  JSON output prints a non-finite number as null: a non-finite
residual fails its check, and a non-finite solution field exits 3 with a
diagnostic that names it, unless a check also failed, which exits 1.
"""

import argparse
import json
import math
import os
import re
import sys
from typing import Any

from . import problems
from .problems import ACCEPTANCE_TOL, FenceLayout

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

# `curve` builds every row before it writes one, about 300 B a point.
MAX_CURVE_POINTS = 10**6


# 17 significant digits print every float losslessly.
FLOAT_FORMAT = "%.17g"
# One `curve` row: format_number's bytes for a row that holds no -0.0.
CSV_ROW = f"{FLOAT_FORMAT},{FLOAT_FORMAT}\n"


def format_number(x: float | int) -> str:
    """Render a number losslessly: FLOAT_FORMAT for floats, repr otherwise."""
    return FLOAT_FORMAT % (x + 0.0) if isinstance(x, float) else repr(x)  # +0.0 normalizes -0.0


def dumps(value: Any, indent: str = "") -> str:
    """JSON text with deterministic float formatting.

    Parsing the output with json.loads and re-emitting it through this
    function reproduces the bytes exactly.  Records (named tuples) print as
    objects, and None as null; so does a non-finite float, since JSON has no
    NaN or Infinity.
    """
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, (dict, list, tuple)):
        # One layout for both kinds: a key prefix per item in an object, none
        # in an array.
        if isinstance(value, dict):
            brackets, items = "{}", [(f"{json.dumps(str(k))}: ", v) for k, v in value.items()]
        else:
            brackets, items = "[]", [("", v) for v in value]
        if not items:
            return brackets
        inner = ",\n".join(f'{indent}  {key}{dumps(v, indent + "  ")}' for key, v in items)
        return f"{brackets[0]}\n{inner}\n{indent}{brackets[1]}"
    if isinstance(value, float) and not math.isfinite(value):
        value = None
    if value is None or isinstance(value, (bool, str)):
        return json.dumps(value)
    if isinstance(value, (int, float)):
        return format_number(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


# --------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    problem = problems.PROBLEMS[args.problem]
    inputs = {spec.key: getattr(args, spec.key) for spec in problem.inputs}
    sol, residuals = problem.solve(*inputs.values())
    report = {
        "problem": problem.name,
        "inputs": inputs,
        "solution": sol,
        "method": "closed_form",
        "residuals": residuals,
    }
    failed = sorted(k for k, v in residuals.items() if not v <= ACCEPTANCE_TOL)
    # Contacts are points, which cannot hold a non-finite coordinate.
    overflowed = [k for k, v in sol._asdict().items()
                  if isinstance(v, float) and not math.isfinite(v)]
    diagnostics = []
    if failed:
        diagnostics.append(
            f"residuals exceed tolerance {format_number(ACCEPTANCE_TOL)}: {', '.join(failed)}")
    if overflowed:
        diagnostics.append(f"the answer does not fit in a float: {', '.join(overflowed)}")
    if diagnostics:
        report["diagnostic"] = "; ".join(diagnostics)
    print(dumps(report))
    if failed:
        return EXIT_CHECK_FAILED
    return EXIT_INFEASIBLE if overflowed else EXIT_OK


# --------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from . import verify

    try:
        results = verify.run()
    except Exception as exc:  # a fault inside a suite
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        doc = {
            "checks": [
                {**r._asdict(), "passed": r.passed}
                for r in results
            ],
            "passed": all_passed,
        }
        print(dumps(doc))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"[{status}] {r.suite}: {r.name}  "
                f"worst={r.residual:.3e}  tol={r.tolerance:.3e}"
            )
        failed = sum(1 for r in results if not r.passed)
        print(f"{len(results)} checks, {failed} failed")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# curve


def cmd_curve(args) -> int:
    if args.points > MAX_CURVE_POINTS:  # before any row is built
        raise ValueError(f"points must be at most {MAX_CURVE_POINTS}, got {args.points}")
    layout = FenceLayout(args.v_segments, args.h_segments)
    rows = problems.fence_area_curve(args.fence, layout, args.points)
    for i, (_, area) in enumerate(rows):
        if not math.isfinite(area):
            print(dumps({"problem": "curve",
                         "diagnostic": f"the answer does not fit in a float: area at row {i}"}))
            return EXIT_INFEASIBLE
    sys.stdout.write("L,area\n" + "".join([CSV_ROW % row for row in rows]))
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


# Text that starts like a negative number, inf or nan.  argparse reads all of
# it but plain decimals (`-1`, `-.5`) as an unknown flag.
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Writes a message bound for stdout (``--help``) itself: from Python
    3.11 argparse discards the write error, which main's write path needs.
    Reads text that starts like a negative number as a value, never a flag,
    so the library's own check refuses it."""

    def _parse_optional(self, arg_string):
        return None if _NEGATIVE_NUMBER.match(arg_string) else super()._parse_optional(arg_string)

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _add_inputs(parser: argparse.ArgumentParser, inputs) -> None:
    """Add one flag per problems.Input, parsed by its type alone."""
    for spec in inputs:
        parser.add_argument(
            spec.flag, dest=spec.key, metavar=spec.flag[2:].upper().replace("-", "_"),
            type=spec.type, required=spec.default is None,
            default=spec.default, help=spec.help,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="optishape",
        description="Solve classic geometric optimization problems and verify "
        "their structural invariants.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve a catalog problem")
    solve_sub = solve.add_subparsers(dest="problem", required=True)

    for problem in problems.PROBLEMS.values():
        p = solve_sub.add_parser(problem.name, help=problem.help)
        _add_inputs(p, problem.inputs)

    ver = commands.add_parser("verify", help="run the invariant verification suites")
    ver.add_argument("--format", choices=("json", "text"), default="json")

    curve = commands.add_parser("curve", help="emit curve data as CSV")
    curve_sub = curve.add_subparsers(dest="curve_kind", required=True)
    p = curve_sub.add_parser("fence", help="fence area as a function of the vertical total")
    _add_inputs(p, problems.PROBLEMS["fence"].inputs)
    p.add_argument("--points", type=int, default=101,
                   help=f"sample count, 2 to {MAX_CURVE_POINTS} (default 101)")

    return parser


def _run(argv: list[str] | None) -> int:
    commands = {"solve": cmd_solve, "verify": cmd_verify, "curve": cmd_curve}
    try:
        args = build_parser().parse_args(argv)
        return commands[args.command](args)
    except SystemExit as exc:  # argparse leaves --help and a usage error this way
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    # The one write-error path, --help included: stdout is flushed here, so
    # that its error cannot surface at interpreter exit instead.
    try:
        code = _run(argv)
        sys.stdout.flush()
    except OSError as exc:
        # Whatever stdout still holds goes to devnull, so that the
        # interpreter's flush at exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a reader that left needs no message
            print(f"error: cannot write: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
