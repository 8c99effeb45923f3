"""Reference answers from the stdlib alone, and the checks that compare the
program's output with them.

Nothing here imports optishape: the references are the catalog's closed
forms written out again with ``math``.  Only the ``solution`` fields, the
curve rows and the exit code are checked; residuals, timings and keys the
checker does not know are ignored, so the report format may grow.

A check returns None when the output is correct, else a one-line reason.
"""

from __future__ import annotations

import json
import math
import sys

REL_TOL = 1e-6
MIN_NORMAL = sys.float_info.min
TRACEBACK = "Traceback (most recent call last)"
VERIFY_SUITES = (
    "derivative",
    "half-split",
    "h2r",
    "duality",
    "equivalence",
    "coincidence",
    "oracle",
)


def base_coefficient(base) -> float:
    """Area coefficient c (area = c*r^2 for inradius r) of a base tag."""
    if base == "circle":
        return math.pi
    return base * math.tan(math.pi / base)


def reference(op: dict) -> dict:
    """Expected ``solution`` fields of a solve operation.

    Products are written as multiplications, never ``**``, so that an
    overflow gives ``inf`` (a reference that is not normal) instead of
    raising.
    """
    kind, s = op["kind"], op["scale"]
    if kind == "rectangle":
        side = s / 4.0
        return {"x": side, "y": side, "area": side * side}
    if kind == "box":
        edge = s ** (1.0 / 3.0)
        return {"x": edge, "y": edge, "z": edge, "surface_area": 6.0 * edge * edge}
    if kind == "fence":
        half = s / 2.0
        x, y = half / op["v"], half / op["h"]
        return {"x": x, "y": y, "vertical_total": half, "horizontal_total": half,
                "area": x * y}
    if kind == "can":
        c = base_coefficient(op["base"])
        r = (s / (2.0 * c)) ** (1.0 / 3.0)
        return {"r": r, "h": 2.0 * r, "surface_area": 6.0 * c * r * r, "volume": s}
    if kind == "can-dual":
        c = base_coefficient(op["base"])
        r = math.sqrt(s / (6.0 * c))
        return {"r": r, "h": 2.0 * r, "surface_area": s, "volume": 2.0 * c * r * r * r}
    if kind == "rect-semicircle":
        half = s / math.sqrt(2.0)
        return {"x": half, "y": half, "area": s * s}
    if kind == "ellipse-semicircle":
        a = math.sqrt(6.0) / 3.0 * s
        b = math.sqrt(2.0) / 3.0 * s
        half = s / math.sqrt(2.0)
        return {"a": a, "b": b, "area": math.pi * a * b,
                "contacts": [{"x": -half, "y": half}, {"x": half, "y": half}]}
    raise ValueError(f"no reference for kind {kind!r}")


def _leaves(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _leaves(v)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def number_ok(got, ref: float, scale: float) -> bool:
    """``got`` is a finite number within REL_TOL*scale of ``ref``.

    Where the scale is not a normal float (zero, subnormal or overflowed)
    only finiteness is checked.
    """
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    if not math.isfinite(got):
        return False
    if not (math.isfinite(scale) and abs(scale) >= MIN_NORMAL):
        return True
    return abs(got - ref) <= REL_TOL * abs(scale)


def compare(got, ref, path: str = "solution") -> str | None:
    """First field of ``got`` that misses the reference structure ``ref``."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{path} is not an object"
        for key, sub in ref.items():
            if key not in got:
                return f"{path}.{key} missing"
            reason = compare(got[key], sub, f"{path}.{key}")
            if reason:
                return reason
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path} has {len(got) if isinstance(got, list) else 'no'} items, want {len(ref)}"
        for i, (g, r) in enumerate(zip(got, ref)):
            reason = compare(g, r, f"{path}[{i}]")
            if reason:
                return reason
        return None
    if not number_ok(got, ref, ref):
        return f"{path} = {got!r}, want {ref!r}"
    return None


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows")
    return value


def parse_json(text: str):
    """Strict JSON: NaN, Infinity and overflowing numbers are errors."""
    return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)


def curve_reference(op: dict) -> list[tuple[float, float]]:
    """(L, area) rows at uniform L in [0, fence], the last pinned to fence."""
    fence, v, h, n = op["scale"], op["v"], op["h"], op["points"]
    step = fence / (n - 1)
    rows = []
    for i in range(n):
        L = fence if i == n - 1 else i * step
        rows.append((L, (L / v) * ((fence - L) / h)))
    return rows


def check_curve_rows(op: dict, rows) -> str | None:
    """Curve rows against the reference parabola.

    The end rows are exactly zero, so errors are taken relative to the
    curve's own scale: the fence length for L, the peak area for area.
    """
    ref = curve_reference(op)
    if len(rows) != len(ref):
        return f"{len(rows)} curve rows, want {len(ref)}"
    fence = op["scale"]
    peak = (fence / 2.0 / op["v"]) * (fence / 2.0 / op["h"])
    for i, ((L, area), (ref_L, ref_area)) in enumerate(zip(rows, ref)):
        if not number_ok(L, ref_L, fence):
            return f"row {i}: L = {L!r}, want {ref_L!r}"
        if not number_ok(area, ref_area, peak):
            return f"row {i}: area = {area!r}, want {ref_area!r}"
    return None


def _parse_csv(text: str) -> list[tuple[float, float]]:
    lines = text.split("\n")
    if lines[0] != "L,area" or lines[-1] != "":
        raise ValueError("not an 'L,area' CSV ending in a newline")
    rows = []
    for line in lines[1:-1]:
        L, area = line.split(",")
        rows.append((_finite_float(L), _finite_float(area)))
    return rows


def check_cli(op: dict, returncode: int, stdout: str, stderr: str) -> str | None:
    """Check one CLI invocation of ``op``; None when it is correct."""
    if TRACEBACK in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1][:200]
    if op["kind"] == "verify":
        return _check_verify(returncode, stdout)
    if returncode not in (0, 3):
        return f"exit {returncode}: {(stderr.strip() or _diagnostic(stdout))[:200]}"
    if op["kind"] == "curve":
        expected = curve_reference(op)
        finite_ref = all(math.isfinite(x) for row in expected for x in row)
    else:
        expected = reference(op)
        finite_ref = all(math.isfinite(x) for x in _leaves(expected))
    try:
        if op["kind"] == "curve" and returncode == 0:
            return check_curve_rows(op, _parse_csv(stdout))
        doc = parse_json(stdout)
    except ValueError as exc:
        return f"unparsable output: {exc}"
    if returncode == 3:
        return None if not finite_ref else "exit 3 while the reference is finite"
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    return compare(doc.get("solution"), expected)


def _diagnostic(stdout: str) -> str:
    try:
        doc = parse_json(stdout)
    except ValueError as exc:
        return f"unparsable output: {exc}"
    return str(doc.get("diagnostic", "")) if isinstance(doc, dict) else ""


def _check_verify(returncode: int, stdout: str) -> str | None:
    if returncode != 0:
        return f"verify exit {returncode}"
    try:
        doc = parse_json(stdout)
    except ValueError as exc:
        return f"unparsable output: {exc}"
    checks = doc.get("checks") if isinstance(doc, dict) else None
    if not isinstance(checks, list) or doc.get("passed") is not True:
        return "verify did not pass"
    failed = [c.get("name") for c in checks if c.get("passed") is not True]
    if failed:
        return f"failed checks: {', '.join(map(str, failed))}"
    missing = set(VERIFY_SUITES) - {c.get("suite") for c in checks}
    if missing:
        return f"suites missing: {', '.join(sorted(missing))}"
    return None
