"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure marks the corresponding criterion red.
"""

import json
import math
import random
import subprocess
import sys

import pytest

from optishape import verify
from optishape.geometry import Shape, area, area_coefficient, perimeter
from optishape.problems import (
    FenceLayout,
    solve_can,
    solve_can_dual,
    solve_can_numeric,
    solve_ellipse_semicircle,
    solve_ellipse_semicircle_numeric,
    solve_fence,
    solve_rect_semicircle,
)

TOL = 1e-6

BASES = [Shape()] + [Shape(n) for n in range(3, 13)] + [Shape(100)]
VOLUMES = [1e-3, 1.0, 1e3, 1e6]

SQRT2_2 = math.sqrt(2.0) / 2.0


def report(number, text):
    print(f"ACCEPTANCE {number:>2} PASS: {text}")


def test_criterion_01_fence_golden_value():
    sol = solve_fence(2400.0, FenceLayout(4, 2))
    assert abs(sol.x - 300.0) <= TOL
    assert abs(sol.y - 600.0) <= TOL
    report(1, "solve_fence(2400, v=4, h=2) -> x=300, y=600 within 1e-6")


def test_criterion_02_half_split_randomized():
    rng = random.Random(12345)
    worst = 0.0
    for _ in range(200):
        fence = rng.uniform(1.0, 1e6)
        layout = FenceLayout(rng.randint(2, 50), rng.randint(2, 50))
        sol = solve_fence(fence, layout)
        deficit = abs(sol.vertical_total - fence / 2.0)
        worst = max(worst, deficit / fence)
        assert deficit <= 1e-9 * fence
    report(2, f"half-split holds on 200 random instances (worst {worst:.2e} of F)")


def test_criterion_03_can_golden_value():
    sol = solve_can(1000.0, Shape())
    expected_r = (500.0 / math.pi) ** (1.0 / 3.0)
    assert abs(sol.r - expected_r) <= TOL
    assert abs(sol.h - 2.0 * sol.r) <= TOL
    report(3, f"solve_can(1000, circle) -> r={sol.r:.7f}, h=2r within 1e-6")


def test_criterion_04_h_equals_2r_universality():
    worst = 0.0
    for base in BASES:
        for volume in VOLUMES:
            closed = solve_can(volume, base)
            numeric = solve_can_numeric(volume, base)
            gap = max(abs(closed.h / closed.r - 2.0), abs(numeric.h / numeric.r - 2.0))
            worst = max(worst, gap)
            assert gap <= TOL
    report(4, f"h = 2r for 12 bases x 4 volumes, closed and numeric (worst {worst:.2e})")


def test_criterion_05_derivative_property():
    worst = 0.0
    for base in BASES:
        for exponent in range(-3, 4):
            r, h = 10.0**exponent, 10.0**exponent * 1e-6
            # a central difference of the area, as the test's own reference
            estimate = (area(base, r + h) - area(base, r - h)) / (2 * h)
            p = perimeter(base, r)
            rel = abs(estimate - p) / p
            worst = max(worst, rel)
            assert rel <= TOL
    report(5, f"perimeter matches d(area)/dr on a log sweep (worst rel {worst:.2e})")


def test_criterion_06_area_perimeter_ratio():
    worst = 0.0
    for base in BASES:
        for exponent in range(-3, 4):
            r = 10.0**exponent
            gap = abs(area(base, r) / perimeter(base, r) - r / 2.0)
            worst = max(worst, gap / math.ulp(r / 2.0))
            assert gap <= 4.0 * math.ulp(r / 2.0)
    report(6, f"area/perimeter = r/2 within 4 ulp for all bases (worst {worst:.1f} ulp)")


def test_criterion_07_equivalence_ratio():
    # At equal r and h a prism's volume and surface area are both c/pi times
    # the can's, so at c/pi times the volume the prism has the can's optimum.
    for base in BASES:
        ratio = area_coefficient(base) / math.pi
        for volume in VOLUMES:
            can = solve_can(volume, Shape())
            prism = solve_can(volume * ratio, base)
            assert abs(prism.r - can.r) <= 1e-12 * can.r
            assert abs(prism.h - can.h) <= 1e-12 * can.h
            assert abs(prism.surface_area - ratio * can.surface_area) <= 1e-12 * prism.surface_area
    report(7, "prism at c/pi times the volume: the can's r and h, c/pi times its SA, within 1e-12")


def test_criterion_08_ellipse_golden_values():
    # the frontier search reaches the closed form's golden values
    for sol in (solve_ellipse_semicircle(), solve_ellipse_semicircle_numeric()):
        assert abs(sol.a - math.sqrt(6.0) / 3.0) <= TOL
        assert abs(sol.b - math.sqrt(2.0) / 3.0) <= TOL
    report(8, f"ellipse optimum a={sol.a:.7f}, b={sol.b:.7f} within 1e-6")


def test_criterion_09_coincidence():
    ellipse = solve_ellipse_semicircle()
    rect = solve_rect_semicircle(1.0)
    assert len(ellipse.contacts) == 2
    left, right = ellipse.contacts
    for point, x_expected in ((left, -SQRT2_2), (right, SQRT2_2)):
        assert abs(point.x - x_expected) <= TOL
        assert abs(point.y - SQRT2_2) <= TOL
    assert abs(right.x - rect.x) <= TOL
    assert abs(right.y - rect.y) <= TOL
    report(9, "ellipse contacts coincide with the optimal rectangle's vertices")


def test_criterion_10_oracle_equivalence():
    results = verify.SUITES["oracle"]()
    for check in results:
        assert check.passed, (
            f"{check.name}: residual {check.residual:.3e} > 4x resolution "
            f"{check.tolerance:.3e}"
        )
    worst = max(c.residual / c.tolerance for c in results)
    report(10, f"all solvers within 4x brute-force resolution (worst ratio {worst:.2f})")


def test_criterion_11_duality_round_trip():
    worst = 0.0
    for base in BASES:
        for volume in VOLUMES:
            sa = solve_can(volume, base).surface_area
            back = solve_can_dual(sa, base).volume
            rel = abs(back - volume) / volume
            worst = max(worst, rel)
            assert rel <= TOL
    report(11, f"solve_can_dual inverts solve_can (worst rel {worst:.2e})")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "optishape", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_12_cli_contract():
    code, out, err = run_cli(
        "solve", "fence", "--fence", "2400", "--v-segments", "4", "--h-segments", "2"
    )
    assert code == 0, err
    doc = json.loads(out)
    assert abs(doc["solution"]["x"] - 300.0) <= TOL
    assert abs(doc["solution"]["y"] - 600.0) <= TOL

    code, out, err = run_cli("solve", "can", "--volume", "1000", "--base", "circle")
    assert code == 0, err
    doc = json.loads(out)
    assert abs(doc["solution"]["r"] - (500.0 / math.pi) ** (1.0 / 3.0)) <= TOL
    assert abs(doc["solution"]["h"] - 2.0 * doc["solution"]["r"]) <= TOL

    code, out, err = run_cli("solve", "ellipse-semicircle")
    assert code == 0, err
    doc = json.loads(out)
    assert abs(doc["solution"]["a"] - math.sqrt(6.0) / 3.0) <= TOL
    assert abs(doc["solution"]["b"] - math.sqrt(2.0) / 3.0) <= TOL
    contacts = doc["solution"]["contacts"]
    assert abs(contacts[1]["x"] - SQRT2_2) <= TOL

    code, out, err = run_cli("verify")
    assert code == 0, f"verify failed:\n{out}\n{err}"
    report(12, "CLI solve outputs parse and match criteria 1/3/8; verify exits 0")
