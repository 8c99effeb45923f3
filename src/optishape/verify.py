"""Machine-checkable invariant suites behind the ``verify`` CLI command.

Each suite re-derives a structural property of the problem catalog at
runtime (the perimeter as the area's derivative, half-split fences,
h = 2r cans, the volume/surface-area duality, a prism that shares the
can's optimum, the ellipse/rectangle coincidence and the ellipses'
tangency to the arc, brute-force agreement)
and reports the worst observed residual against a fixed tolerance.
Output order and all randomness are fixed, so runs are reproducible.

The derivative lemma needs no finite difference: for area c*r**2,
dA/dr = 2*A/r, so perimeter = dA/dr is the statement area/perimeter = r/2.
``area_over_perimeter_is_half_r_ulps`` checks that to 4 ulps, and
``area_perimeter_scaling`` that area and perimeter have degrees 2 and 1.

Each check earns its place in the mutation matrix
(``tests/test_mutation_matrix.py``): the comment above it names a matrix
row, a fault put in on purpose, that fails that check and no other.  Each
sweep's breadth earns its place the same way: the comment over it names
the rows that some of its instances are needed to catch.
"""

import math
import random
from typing import Callable, Iterable, NamedTuple

from . import geometry, oracle, problems
from .geometry import Shape
from .problems import ACCEPTANCE_TOL

# Bases exercised by the sweeps: circle, 3..12-gons, and a 100-gon.
VERIFY_BASES: tuple[Shape, ...] = (
    Shape(),
    *(Shape(n) for n in range(3, 13)),
    Shape(100),
)

SWEEP_VOLUMES = (1e-3, 1.0, 1e3, 1e6)

_SEED = 20240817


class CheckResult(NamedTuple):
    suite: str
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _worst(suite: str, name: str, residuals: Iterable[float], tolerance: float) -> CheckResult:
    """Check whose residual is the worst over a sweep, by
    problems.worst_residual: a NaN fails the check, an empty sweep reads inf."""
    return CheckResult(suite, name, problems.worst_residual(residuals), tolerance)


# --------------------------------------------------------------------------
# suite: derivative  (shape algebra identities)


def _half_r_ulps(shape: Shape, r: float) -> float:
    ratio = geometry.area(shape, r) / geometry.perimeter(shape, r)
    return abs(ratio - r / 2.0) / math.ulp(r / 2.0)


def _suite_derivative() -> list[CheckResult]:
    # Every base at one radius r; the scaling check takes the same sweep at
    # one factor, 2.  Each base: "geometry.area ignores its shape" and
    # "geometry.perimeter ignores its shape".  A radius and a factor other
    # than 1, where a wrong power of r reads exact: "area of degree 3",
    # "perimeter of degree 2" and "area of degree 3 and perimeter of
    # degree 2".
    r = 0.7
    return [
        # only catcher of: geometry.area * (1 + 1e-9)
        _worst("derivative", "area_over_perimeter_is_half_r_ulps",
               (_half_r_ulps(shape, r) for shape in VERIFY_BASES), 4.0),
        # Each polygon of VERIFY_BASES, the bases the other sweeps solve on;
        # the 100-gon: "polygon coefficients * (1 + 1e-9) past 12 sides".
        # only catcher of: polygon coefficients * (1 + 1e-9), the circle's kept
        _worst("derivative", "coefficient_matches_shoelace", (
            abs(geometry.area_coefficient(shape)
                - geometry.shoelace_area(geometry.polygon_vertices(shape.sides, 1.0)))
            for shape in VERIFY_BASES if shape.sides is not None
        ), 1e-12),
        # only catcher of: area of degree 3 and perimeter of degree 2
        _worst("derivative", "area_perimeter_scaling", (
            gap for shape in VERIFY_BASES for gap in (
                abs(geometry.area(shape, 2.0 * r) - 4.0 * geometry.area(shape, r))
                / geometry.area(shape, 2.0 * r),
                abs(geometry.perimeter(shape, 2.0 * r) - 2.0 * geometry.perimeter(shape, r))
                / geometry.perimeter(shape, 2.0 * r),
            )
        ), 1e-12),
    ]


# --------------------------------------------------------------------------
# suite: half-split  (fence problem)


def _random_fence_instances() -> list[tuple[float, problems.FenceLayout]]:
    """The ten fences both fence sweeps take: the half-split check and the
    closed-vs-numeric one.  Layouts other than the catalog's default 4x2:
    "closed fence ignores its layout" and "numeric fence ignores its layout"."""
    rng = random.Random(_SEED)
    out = []
    for _ in range(10):
        fence = rng.uniform(1.0, 1e6)
        layout = problems.FenceLayout(rng.randint(2, 50), rng.randint(2, 50))
        out.append((fence, layout))
    return out


def _suite_half_split() -> list[CheckResult]:
    # only catcher of: closed fence lengths * (1 + 1e-7)
    return [_worst("half-split", "randomized_half_split", (
        abs(problems.solve_fence(fence, layout).vertical_total - fence / 2.0) / fence
        for fence, layout in _random_fence_instances()
    ), 1e-9)]


# --------------------------------------------------------------------------
# suite: h2r  (can problem)


def _h_over_r_gap(can: problems.CanSolution) -> float:
    return abs(can.h / can.r - 2.0)


def _suite_h2r() -> list[CheckResult]:
    sweep = [(volume, base) for base in VERIFY_BASES for volume in SWEEP_VOLUMES]
    return [
        # only catcher of: closed can r 1e-7 off, h from the volume
        _worst("h2r", "h_equals_2r_closed",
               (_h_over_r_gap(problems.solve_can(*instance)) for instance in sweep), 1e-12),
        # The numeric path solves volume 1 once per base and rescales, so one
        # volume per base is the whole check.
        # only catcher of: numeric can r 5e-7 off, h from the volume
        _worst("h2r", "h_equals_2r_numeric",
               (_h_over_r_gap(problems.solve_can_numeric(1.0, base)) for base in VERIFY_BASES),
               ACCEPTANCE_TOL),
    ]


# --------------------------------------------------------------------------
# suite: duality  (fixed volume <-> fixed surface area)


def _suite_duality() -> list[CheckResult]:
    # only catcher of: _can_solution volume 1e-5 off
    return [_worst("duality", "volume_round_trip", (
        abs(problems.solve_can_dual(problems.solve_can(volume, base).surface_area, base).volume
            - volume) / volume
        for base in VERIFY_BASES for volume in SWEEP_VOLUMES
    ), ACCEPTANCE_TOL)]


# --------------------------------------------------------------------------
# suite: equivalence  (a prism and the can share the h = 2r optimum)


def _suite_equivalence() -> list[CheckResult]:
    # A prism's base area and surface are both c/pi times the can's at the
    # same r and h, so at c/pi times the volume it has the can's optimum.
    pairs = [(problems.solve_can(volume, Shape()),
              problems.solve_can(volume * geometry.area_coefficient(base) / math.pi, base))
             for base in VERIFY_BASES for volume in SWEEP_VOLUMES]
    # only catcher of: circle coefficient alone * (1 + 1e-9)
    return [_worst("equivalence", "prism_optimum_is_the_cans", (
        abs(prism_x - can_x) / can_x
        for can, prism in pairs for can_x, prism_x in zip(can[:2], prism[:2])
    ), 1e-12)]


# --------------------------------------------------------------------------
# suite: coincidence  (ellipse contacts vs rectangle vertices)


def _suite_coincidence() -> list[CheckResult]:
    # The contacts are the numeric path's: the closed form's would only be
    # checked against itself.  Tangency is checked on both unit ellipses.
    ellipse = problems.solve_ellipse_semicircle_numeric(1.0)
    rect = problems.solve_rect_semicircle(1.0)
    contacts = ellipse.contacts
    expected = ((-rect.x, rect.y), (rect.x, rect.y))
    # A wrong contact count leaves nothing to compare, so the check reads inf.
    pairs = zip(contacts, expected) if len(contacts) == len(expected) else ()
    return [
        # only catcher of: numeric ellipse contacts moved 1e-5 along the arc
        _worst("coincidence", "contacts_match_rectangle_vertices",
               (gap for p, (ex, ey) in pairs for gap in (abs(p.x - ex), abs(p.y - ey))),
               ACCEPTANCE_TOL),
        # only catcher of: numeric ellipse contacts moved out by 1e-7
        _worst("coincidence", "contacts_on_circle",
               (abs(p.x * p.x + p.y * p.y - 1.0) for p in contacts), 1e-9),
        # Each unit ellipse's largest squared distance from the center is 1,
        # to rounding: it touches the arc and stays inside it.
        # only catcher of: frontier_a * (1 + 1e-9)
        _worst("coincidence", "ellipses_are_tangent", (
            abs(problems.containment_max(e.a, e.b) - 1.0)
            for e in (ellipse, problems.solve_ellipse_semicircle(1.0))
        ), 4.0 * math.ulp(1.0)),
    ]


# --------------------------------------------------------------------------
# suite: oracle  (closed forms vs brute-force grid search)


def _solve_at(problem: problems.Problem, size: float) -> tuple:
    """``problem.solve`` at the given size, every other input at its default."""
    return problem.solve(size, *(spec.default for spec in problem.inputs[1:]))


def _suite_oracle() -> list[CheckResult]:
    # Each brute-force check scans its problem's oracle window and checks
    # the closed unit answer within four times the first window's
    # resolution.  Each but the ellipse's is the only catcher of the row
    # "closed <problem> lengths * (1 + 8e-7)".  The fence has none:
    # randomized_half_split catches every fault a fence scan would.
    # only catcher of: closed ellipse moved 8e-7 along the frontier
    checks = []
    for problem in problems.PROBLEMS.values():
        if problem.oracle is not None:
            expected, objective, windows = problem.oracle(_solve_at(problem, 1.0)[0])
            *found, _ = oracle.brute_min(objective, *windows)
            checks.append(_worst(
                "oracle", problem.name.replace("-", "_") + "_vs_brute_force",
                (abs(x - e) for x, e in zip(found, expected)),
                4.0 * oracle.resolution(*windows[0])))
    # Each closed form against its golden-section path, by the residual
    # `solve` reports: on each catalog problem at size 1000 (at size 1 a
    # numeric path that rescales by the wrong power would not show), on the
    # ten fences of the half-split sweep, and on the can and can-dual
    # on every base.
    # only catcher of: numeric box rescaled by volume ** (1/2)
    # only catcher of: closed fence ignores its layout
    # only catcher of: numeric can ignores its base
    return [*checks, _worst("oracle", "closed_matches_numeric_all_problems", (
        residuals["closed_numeric_gap"] for _, residuals in (
            *(_solve_at(problem, 1000.0) for problem in problems.PROBLEMS.values()),
            *(problems.PROBLEMS["fence"].solve(fence, *layout)
              for fence, layout in _random_fence_instances()),
            *(problems.PROBLEMS[name].solve(1.0, base.sides or "circle")
              for name in ("can", "can-dual") for base in VERIFY_BASES))
    ), ACCEPTANCE_TOL)]


# --------------------------------------------------------------------------

SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "derivative": _suite_derivative,
    "half-split": _suite_half_split,
    "h2r": _suite_h2r,
    "duality": _suite_duality,
    "equivalence": _suite_equivalence,
    "coincidence": _suite_coincidence,
    "oracle": _suite_oracle,
}


def run() -> list[CheckResult]:
    """Run every suite, in SUITES order."""
    return [r for suite in SUITES.values() for r in suite()]
