"""Command-line front end: solve catalog problems, verify invariants, and
emit curve data for plotting.

Exit status: 0 success, 1 verification failure or no verified answer (a
numeric search did not converge), 2 usage error, 3 infeasible, or the answer
does not fit in a float, 4 a write error: stdout or ``curve --out`` could
not be written.  A write error prints ``error: cannot write: ...`` on
stderr, except a closed stdout pipe (the reader stopped reading), which
exits 4 with nothing on stderr.  ``--help`` writes through the same path.
``main`` returns the exit code, for ``--help`` and usage errors too.  JSON
output prints a non-finite number as null: a non-finite residual fails its
check, and a non-finite solution field exits 3 with a diagnostic that names
it, unless a check also failed, which exits 1.
"""

import argparse
import json
import math
import os
import sys
from typing import Any

from . import problems
from .geometry import Shape
from .optimize import ConvergenceError
from .problems import FenceLayout, InfeasibleError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

# `curve` builds every row before it writes one, about 300 B a point.
MAX_CURVE_POINTS = 10**6

# verify.SUITES' names, kept here so that building the parser does not load
# verify: only `optishape verify` runs it (a test keeps the two equal).
VERIFY_SUITES = ("derivative", "half-split", "h2r", "duality", "equivalence",
                 "coincidence", "oracle")


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


def _emit_text(value: Any, prefix: str = "") -> None:
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        for k, v in value.items():
            _emit_text(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _emit_text(v, f"{prefix}[{i}]")
    elif isinstance(value, (int, float)):
        print(f"{prefix} = {format_number(value)}")
    else:
        print(f"{prefix} = {value}")


def _emit(doc: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(dumps(doc))
    else:
        _emit_text(doc)


# --------------------------------------------------------------------------
# argument types


def positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value > 0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {text!r}")
    return value


def _integer(text: str) -> int | None:
    """The integer the text spells, None if it spells none.  A count is
    divided by or into floats, so one that does not fit in a float is
    refused, as is one with more digits than ``int`` converts."""
    digits = text.strip()
    digits = digits[1:] if digits[:1] in "+-" else digits
    try:
        value = int(text)
        float(value)
    except OverflowError:
        raise argparse.ArgumentTypeError(f"does not fit in a float: {len(digits)} digits")
    except ValueError:
        if digits.isdecimal():  # int() refuses more than 4300 digits
            raise argparse.ArgumentTypeError(f"too many digits: {len(digits)}")
        return None
    return value


def segment_count(text: str) -> int:
    value = _integer(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 2:
        raise argparse.ArgumentTypeError(f"segment counts start at 2: {text!r}")
    return value


def point_count(text: str) -> int:
    value = _integer(text)
    if value is None or not 2 <= value <= MAX_CURVE_POINTS:
        raise argparse.ArgumentTypeError(f"takes an integer from 2 to {MAX_CURVE_POINTS}: {text!r}")
    return value


def base_shape(text: str) -> Shape:
    if text == "circle":
        return Shape.circle()
    sides = _integer(text)
    if sides is None:
        raise argparse.ArgumentTypeError(f"--base takes 'circle' or an integer >= 3, got {text!r}")
    if sides < 3:
        raise argparse.ArgumentTypeError(f"a polygon base needs at least 3 sides, got {sides}")
    return Shape.regular_polygon(sides)


def _base_tag(shape: Shape) -> Any:
    return "circle" if shape.sides is None else shape.sides


def _add_inputs(parser: argparse.ArgumentParser, inputs) -> None:
    """Add one flag per problems.Input, parsed by the type's checker."""
    # Built per call, like any global lookup, so patched checkers are used.
    checkers = {float: positive_float, int: segment_count, Shape: base_shape}
    for spec in inputs:
        parser.add_argument(
            spec.flag, dest=spec.key, metavar=spec.flag[2:].upper().replace("-", "_"),
            type=checkers[spec.type], required=spec.default is None,
            default=spec.default, help=spec.help,
        )


# --------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    problem = problems.PROBLEMS[args.problem]
    values = [getattr(args, spec.key) for spec in problem.inputs]
    sol, residuals = problem.solve(*values)
    report = {
        "problem": problem.name,
        "inputs": {
            spec.key: _base_tag(v) if isinstance(v, Shape) else v
            for spec, v in zip(problem.inputs, values)
        },
        "solution": sol,
        "method": "closed_form",
        "residuals": residuals,
    }
    failed = sorted(k for k, v in residuals.items() if not v <= args.tol)
    # Contacts are points, which cannot hold a non-finite coordinate.
    overflowed = [k for k, v in sol._asdict().items()
                  if isinstance(v, float) and not math.isfinite(v)]
    diagnostics = []
    if failed:
        diagnostics.append(
            f"residuals exceed tolerance {format_number(args.tol)}: {', '.join(failed)}")
    if overflowed:
        diagnostics.append(f"the answer does not fit in a float: {', '.join(overflowed)}")
    if diagnostics:
        report["diagnostic"] = "; ".join(diagnostics)
    _emit(report, args.format)
    if failed:
        return EXIT_CHECK_FAILED
    return EXIT_INFEASIBLE if overflowed else EXIT_OK


# --------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from . import verify

    suites = [args.suite] if args.suite else None
    results = verify.run(suites, tol_override=args.tol)
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
    layout = FenceLayout(args.v_segments, args.h_segments)
    rows = problems.fence_area_curve(args.fence, layout, args.points)
    for i, (_, area) in enumerate(rows):
        if not math.isfinite(area):
            raise InfeasibleError(f"the answer does not fit in a float: area at row {i}")
    text = "L,area\n" + "".join([CSV_ROW % row for row in rows])
    if args.out is not None:  # a write error here takes main's one write-error path
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Writes a message bound for stdout (``--help``) itself: from Python
    3.11 argparse discards the write error, which main's write path needs."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="optishape",
        description="Solve classic geometric optimization problems and verify "
        "their structural invariants.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--tol", type=positive_float, default=problems.ACCEPTANCE_TOL,
                        help="override the acceptance tolerance (default 1e-6)")

    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve a catalog problem")
    solve_sub = solve.add_subparsers(dest="problem", required=True)

    for problem in problems.PROBLEMS.values():
        p = solve_sub.add_parser(problem.name, parents=[common], help=problem.help)
        _add_inputs(p, problem.inputs)

    ver = commands.add_parser("verify", parents=[common],
                              help="run the invariant verification suites")
    ver.add_argument("--suite", choices=VERIFY_SUITES, default=None)

    curve = commands.add_parser("curve", help="emit curve data as CSV")
    curve_sub = curve.add_subparsers(dest="curve_kind", required=True)
    p = curve_sub.add_parser("fence", help="fence area as a function of the vertical total")
    _add_inputs(p, problems.PROBLEMS["fence"].inputs)
    p.add_argument("--points", type=point_count, default=101,
                   help=f"sample count, 2 to {MAX_CURVE_POINTS} (default 101)")
    p.add_argument("--out", default=None)

    return parser


def _run(argv: list[str] | None) -> int:
    commands = {"solve": cmd_solve, "verify": cmd_verify, "curve": cmd_curve}
    try:
        args = build_parser().parse_args(argv)
        return commands[args.command](args)
    except SystemExit as exc:  # argparse leaves --help and a usage error this way
        return exc.code
    except (InfeasibleError, ConvergenceError) as exc:
        _emit({"problem": getattr(args, "problem", args.command),
               "diagnostic": str(exc)}, getattr(args, "format", "json"))
        return EXIT_INFEASIBLE if isinstance(exc, InfeasibleError) else EXIT_CHECK_FAILED
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
        if exc.filename is None:  # an error on stdout names no file
            # Whatever stdout still holds goes to devnull, so that the
            # interpreter's flush at exit does not fail a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a reader that left needs no message
            print(f"error: cannot write: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
