"""Command-line front end: solve catalog problems, verify invariants, and
emit curve data for plotting.

Exit status: 0 success, 1 verification failure, 2 usage error, 3 infeasible
problem, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Any

from . import problems, verify
from .geometry import Shape
from .problems import FenceLayout, InfeasibleError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

DEFAULT_TOL = 1e-6


def format_number(x: float | int) -> str:
    """Render a number losslessly: 17 significant digits for floats."""
    if isinstance(x, bool) or not isinstance(x, float):
        return repr(x)
    return format(x + 0.0, ".17g")  # +0.0 normalizes -0.0


def dumps(value: Any, indent: str = "") -> str:
    """JSON text with deterministic float formatting.

    Parsing the output with json.loads and re-emitting it through this
    function reproduces the bytes exactly.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{indent}  {json.dumps(str(k))}: {dumps(v, indent + "  ")}'
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f'{indent}  {dumps(v, indent + "  ")}' for v in value)
        return "[\n" + inner + "\n" + indent + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format_number(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit_text(doc: dict[str, Any], stream) -> None:
    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        elif isinstance(value, (int, float)):
            print(f"{prefix} = {format_number(value)}", file=stream)
        else:
            print(f"{prefix} = {value}", file=stream)

    walk("", doc)


def _emit(doc: dict[str, Any], fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        print(dumps(doc), file=stream)
    else:
        _emit_text(doc, stream)


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


def segment_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 2:
        raise argparse.ArgumentTypeError(f"segment counts start at 2: {text!r}")
    return value


def base_shape(text: str) -> Shape:
    if text == "circle":
        return Shape.circle()
    try:
        sides = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--base takes 'circle' or an integer >= 3, got {text!r}")
    if sides < 3:
        raise argparse.ArgumentTypeError(f"a polygon base needs at least 3 sides, got {sides}")
    return Shape.regular_polygon(sides)


def _base_tag(shape: Shape) -> Any:
    return "circle" if shape.sides is None else shape.sides


# --------------------------------------------------------------------------
# solve


def _point_doc(p) -> dict[str, float]:
    return {"x": p.x, "y": p.y}


def _solve_report(args) -> tuple[dict[str, Any], dict[str, float]]:
    """Returns (report skeleton, residuals) for the requested problem."""
    problem = args.problem
    if problem == "rectangle":
        sol = problems.solve_rectangle(args.fence)
        numeric = problems.solve_rectangle_numeric(args.fence)
        inputs = {"perimeter": args.fence}
        solution = {"x": sol.x, "y": sol.y, "area": sol.area}
        residuals = {
            "square_gap": abs(sol.x - sol.y) / sol.x,
            "closed_numeric_gap": abs(sol.x - numeric.x) / sol.x,
        }
        method = "closed_form"
    elif problem == "box":
        sol = problems.solve_box(args.volume)
        numeric = problems.solve_box_numeric(args.volume)
        inputs = {"volume": args.volume}
        solution = {"x": sol.x, "y": sol.y, "z": sol.z, "surface_area": sol.surface_area}
        residuals = {
            "cube_gap": max(abs(sol.x - sol.y), abs(sol.y - sol.z)) / sol.x,
            "closed_numeric_gap": max(
                abs(sol.x - numeric.x), abs(sol.y - numeric.y), abs(sol.z - numeric.z)
            ) / sol.x,
        }
        method = "closed_form"
    elif problem == "fence":
        layout = FenceLayout(args.v_segments, args.h_segments)
        sol = problems.solve_fence(args.fence, layout)
        numeric = problems.solve_fence_numeric(args.fence, layout)
        inputs = {
            "fence": args.fence,
            "v_segments": args.v_segments,
            "h_segments": args.h_segments,
        }
        solution = {
            "x": sol.x,
            "y": sol.y,
            "vertical_total": sol.vertical_total,
            "horizontal_total": sol.horizontal_total,
            "area": sol.area,
        }
        residuals = {
            "half_split_deficit": abs(sol.vertical_total - args.fence / 2.0) / args.fence,
            "closed_numeric_gap": max(abs(sol.x - numeric.x), abs(sol.y - numeric.y))
            / max(sol.x, sol.y),
        }
        method = "closed_form"
    elif problem in ("can", "can-dual"):
        if problem == "can":
            sol = problems.solve_can(args.volume, args.base)
            numeric = problems.solve_can_numeric(args.volume, args.base)
            inputs = {"volume": args.volume, "base": _base_tag(args.base)}
        else:
            sol = problems.solve_can_dual(args.surface_area, args.base)
            numeric = problems.solve_can_dual_numeric(args.surface_area, args.base)
            inputs = {"surface_area": args.surface_area, "base": _base_tag(args.base)}
        solution = {
            "r": sol.r,
            "h": sol.h,
            "surface_area": sol.surface_area,
            "volume": sol.volume,
        }
        residuals = {
            "h_over_r_gap": abs(sol.h / sol.r - 2.0),
            "closed_numeric_gap": abs(sol.r - numeric.r) / sol.r,
        }
        method = "closed_form"
    elif problem == "rect-semicircle":
        sol = problems.solve_rect_semicircle(args.radius)
        numeric = problems.solve_rect_semicircle_numeric(args.radius)
        inputs = {"radius": args.radius}
        solution = {"x": sol.x, "y": sol.y, "area": sol.area}
        residuals = {
            "xy_gap": abs(sol.x - sol.y) / args.radius,
            "closed_numeric_gap": abs(sol.x - numeric.x) / args.radius,
        }
        method = "closed_form"
    elif problem == "ellipse-semicircle":
        sol = problems.solve_ellipse_semicircle(args.radius)
        inputs = {"radius": args.radius}
        solution = {
            "a": sol.a,
            "b": sol.b,
            "area": sol.area,
            "contacts": [_point_doc(p) for p in sol.contacts],
        }
        # The solution is the unit one rescaled, so the residuals are taken
        # on the unit solution: scale-free, and safe from under/overflow.
        unit = problems.solve_ellipse_semicircle(1.0)
        residuals = {
            "tangency_gap": abs(problems.containment_max(unit.a, unit.b) - 1.0),
            "contact_circle_gap": max(
                (abs(p.x * p.x + p.y * p.y - 1.0) for p in unit.contacts),
                default=math.inf,
            ),
        }
        method = "golden_section"
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown problem {problem!r}")
    report = {
        "problem": problem,
        "inputs": inputs,
        "solution": solution,
        "method": method,
        "residuals": residuals,
    }
    return report, residuals


def cmd_solve(args) -> int:
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    start = time.perf_counter()
    report, residuals = _solve_report(args)
    report["elapsed_seconds"] = time.perf_counter() - start
    failed = {k: v for k, v in residuals.items() if not v <= tol}
    if failed:
        report["diagnostic"] = (
            "residuals exceed tolerance "
            + format_number(tol)
            + ": "
            + ", ".join(sorted(failed))
        )
    _emit(report, args.format)
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    suites = [args.suite] if args.suite else None
    results = verify.run(suites, tol_override=args.tol)
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        doc = {
            "checks": [
                {
                    "suite": r.suite,
                    "name": r.name,
                    "residual": r.residual,
                    "tolerance": r.tolerance,
                    "passed": r.passed,
                }
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
    lines = ["L,area"]
    lines.extend(f"{format_number(L)},{format_number(area)}" for L, area in rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optishape",
        description="Solve classic geometric optimization problems and verify "
        "their structural invariants.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--tol", type=positive_float, default=None,
                        help="override the acceptance tolerance (default 1e-6)")

    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve a catalog problem")
    solve_sub = solve.add_subparsers(dest="problem", required=True)

    p = solve_sub.add_parser("rectangle", parents=[common],
                             help="largest rectangle with a given perimeter")
    p.add_argument("--fence", type=positive_float, required=True,
                   help="total boundary length (the perimeter)")

    p = solve_sub.add_parser("box", parents=[common],
                             help="smallest-surface box with a given volume")
    p.add_argument("--volume", type=positive_float, required=True)

    p = solve_sub.add_parser("fence", parents=[common],
                             help="partitioned rectangular field of maximal area")
    p.add_argument("--fence", type=positive_float, required=True)
    p.add_argument("--v-segments", type=segment_count, default=4)
    p.add_argument("--h-segments", type=segment_count, default=2)

    p = solve_sub.add_parser("can", parents=[common],
                             help="smallest-surface can/prism with a given volume")
    p.add_argument("--volume", type=positive_float, required=True)
    p.add_argument("--base", type=base_shape, default=Shape.circle(),
                   help="'circle' or a polygon side count (default circle)")

    p = solve_sub.add_parser("can-dual", parents=[common],
                             help="largest-volume can/prism with a given surface area")
    p.add_argument("--surface-area", type=positive_float, required=True)
    p.add_argument("--base", type=base_shape, default=Shape.circle())

    p = solve_sub.add_parser("rect-semicircle", parents=[common],
                             help="largest rectangle inscribed in a semicircle")
    p.add_argument("--radius", type=positive_float, default=1.0)

    p = solve_sub.add_parser("ellipse-semicircle", parents=[common],
                             help="largest ellipse inscribed in a semicircle")
    p.add_argument("--radius", type=positive_float, default=1.0)

    ver = commands.add_parser("verify", parents=[common],
                              help="run the invariant verification suites")
    ver.add_argument("--suite", choices=tuple(verify.SUITES), default=None)

    curve = commands.add_parser("curve", help="emit curve data as CSV")
    curve_sub = curve.add_subparsers(dest="curve_kind", required=True)
    p = curve_sub.add_parser("fence", help="fence area as a function of the vertical total")
    p.add_argument("--fence", type=positive_float, required=True)
    p.add_argument("--v-segments", type=segment_count, default=4)
    p.add_argument("--h-segments", type=segment_count, default=2)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_curve(args)
    except InfeasibleError as exc:
        _emit({"problem": getattr(args, "problem", args.command),
               "diagnostic": str(exc)}, getattr(args, "format", "json"))
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
