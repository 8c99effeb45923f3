"""Machine-checkable invariant suites behind the ``verify`` CLI command.

Each suite re-derives a structural property of the problem catalog at
runtime (the perimeter as the area's derivative, half-split fences,
h = 2r cans, the volume/surface-area duality, a prism that shares the
can's optimum, the ellipse/rectangle coincidence, brute-force agreement)
and reports the worst observed residual against a fixed tolerance.
Output order and all randomness are fixed, so runs are reproducible.

The derivative lemma needs no finite difference: for area c*r**2,
dA/dr = 2*A/r, so perimeter = dA/dr is the statement area/perimeter = r/2.
``area_over_perimeter_is_half_r_ulps`` checks that to 4 ulps, and
``area_perimeter_scaling`` that area and perimeter have degrees 2 and 1.
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
    radii = [10.0**e for e in geometry.linspace(-3.0, 3.0, 25)]
    sweep = [(shape, r) for shape in VERIFY_BASES for r in radii]
    scaled = [(shape, r, k) for shape in VERIFY_BASES
              for r in (1e-3, 0.7, 1.0, 13.0, 1e3) for k in (0.5, 2.0, 10.0)]
    return [
        _worst("derivative", "area_over_perimeter_is_half_r_ulps",
               (_half_r_ulps(shape, r) for shape, r in sweep), 4.0),
        _worst("derivative", "coefficient_matches_shoelace", (
            abs(geometry.area_coefficient(Shape(n))
                - geometry.shoelace_area(geometry.polygon_vertices(n, 1.0)))
            for n in range(3, 65)
        ), 1e-12),
        _worst("derivative", "area_perimeter_scaling", (
            gap for shape, r, k in scaled for gap in (
                abs(geometry.area(shape, k * r) - k * k * geometry.area(shape, r))
                / geometry.area(shape, k * r),
                abs(geometry.perimeter(shape, k * r) - k * geometry.perimeter(shape, r))
                / geometry.perimeter(shape, k * r),
            )
        ), 1e-12),
    ]


# --------------------------------------------------------------------------
# suite: half-split  (fence problem)


def _random_fence_instances(count: int) -> list[tuple[float, problems.FenceLayout]]:
    rng = random.Random(_SEED)
    out = []
    for _ in range(count):
        fence = rng.uniform(1.0, 1e6)
        layout = problems.FenceLayout(rng.randint(2, 50), rng.randint(2, 50))
        out.append((fence, layout))
    return out


def _suite_half_split() -> list[CheckResult]:
    instances = _random_fence_instances(200)
    return [
        _worst("half-split", "randomized_half_split", (
            abs(problems.solve_fence(fence, layout).vertical_total - fence / 2.0) / fence
            for fence, layout in instances
        ), 1e-9),
        _worst("half-split", "closed_matches_numeric", (
            problems.PROBLEMS["fence"].solve(fence, *layout)[1]["closed_numeric_gap"]
            for fence, layout in instances[:10]
        ), ACCEPTANCE_TOL),
    ]


# --------------------------------------------------------------------------
# suite: h2r  (can problem)


def _h_over_r_gap(can: problems.CanSolution) -> float:
    return abs(can.h / can.r - 2.0)


def _suite_h2r() -> list[CheckResult]:
    sweep = [(volume, base) for base in VERIFY_BASES for volume in SWEEP_VOLUMES]
    return [
        _worst("h2r", "h_equals_2r_closed",
               (_h_over_r_gap(problems.solve_can(*instance)) for instance in sweep), 1e-12),
        # The numeric path solves volume 1 once per base and rescales, so one
        # volume per base is the whole check.
        _worst("h2r", "h_equals_2r_numeric",
               (_h_over_r_gap(problems.solve_can_numeric(1.0, base)) for base in VERIFY_BASES),
               ACCEPTANCE_TOL),
        # The residual `solve` reports, on every base: the oracle suite
        # compares only the circle's numeric can and can-dual.
        _worst("h2r", "closed_matches_numeric_every_base", (
            problems._can_residuals(solve(1.0, base), numeric(1.0, base))["closed_numeric_gap"]
            for solve, numeric in ((problems.solve_can, problems.solve_can_numeric),
                                   (problems.solve_can_dual, problems.solve_can_dual_numeric))
            for base in VERIFY_BASES), ACCEPTANCE_TOL),
    ]


# --------------------------------------------------------------------------
# suite: duality  (fixed volume <-> fixed surface area)


def _suite_duality() -> list[CheckResult]:
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
    return [_worst("equivalence", "prism_optimum_is_the_cans", (
        abs(prism_x - can_x) / can_x
        for can, prism in pairs for can_x, prism_x in zip(can[:2], prism[:2])
    ), 1e-12)]


# --------------------------------------------------------------------------
# suite: coincidence  (ellipse contacts vs rectangle vertices)


def _suite_coincidence() -> list[CheckResult]:
    # The numeric path: the closed form would only be checked against itself.
    ellipse = problems.solve_ellipse_semicircle_numeric(1.0)
    rect = problems.solve_rect_semicircle(1.0)
    contacts = ellipse.contacts
    expected = ((-rect.x, rect.y), (rect.x, rect.y))
    # A wrong contact count leaves nothing to compare, so the check reads inf.
    pairs = zip(contacts, expected) if len(contacts) == len(expected) else ()
    return [
        _worst("coincidence", "contacts_match_rectangle_vertices",
               (gap for p, (ex, ey) in pairs for gap in (abs(p.x - ex), abs(p.y - ey))),
               ACCEPTANCE_TOL),
        _worst("coincidence", "contacts_on_circle",
               (abs(p.x * p.x + p.y * p.y - 1.0) for p in contacts), 1e-9),
        _worst("coincidence", "contacts_on_ellipse", (
            abs(p.x**2 / ellipse.a**2 + (p.y - ellipse.b) ** 2 / ellipse.b**2 - 1.0)
            for p in contacts
        ), 1e-9),
    ]


# --------------------------------------------------------------------------
# suite: oracle  (closed forms vs brute-force grid search)


def frontier_a_analytic(b: float) -> float:
    """Closed-form feasibility frontier of the inscribed-ellipse problem.

    Setting the maximum of the arc-containment quadratic to one and solving
    for a**2 - b**2 gives a(b)^2 = b^2 + ((1 - 2b^2) + sqrt(1 - 4b^2)) / 2.
    Independent of the bisection-based max_a_for_b, hence usable as its
    oracle.
    """
    u = ((1.0 - 2.0 * b * b) + math.sqrt(max(0.0, 1.0 - 4.0 * b * b))) / 2.0
    return math.sqrt(b * b + u)


def containment_max_theta_scan(a: float, b: float) -> float:
    """Brute-force counterpart of problems.containment_max.

    Scans the squared center distance of (a*cos(theta), b + b*sin(theta))
    over one full turn of theta with the oracle; independent of the closed
    form in sin(theta), hence usable as its oracle.  Falls short of the true
    maximum by at most the curvature times the squared final cell, ~1e-13.
    The distance has one maximum in sin(theta), so at most two in theta, at
    theta and pi - theta with the same value: the oracle's 21-node first
    round may refine either one.
    """
    _, neg_max = oracle.brute_min(
        lambda t: -((a * math.cos(t)) ** 2 + (b * (1.0 + math.sin(t))) ** 2),
        (-math.pi / 2.0, 3.0 * math.pi / 2.0))
    return -neg_max


def _oracle_check(name: str, expected: tuple, objective: Callable[..., float],
                  *bounds: tuple[float, float]) -> CheckResult:
    """brute_min's argmin against the expected coordinates, one (lo, hi)
    pair per coordinate, within four times the first pair's resolution."""
    *found, _ = oracle.brute_min(objective, *bounds)
    return _worst("oracle", name, (abs(x - e) for x, e in zip(found, expected)),
                  4.0 * oracle.resolution(*bounds[0]))


def _oracle_instances() -> dict[str, tuple]:
    """One instance of each catalog problem, as its CLI input values.  The
    can-dual one is the surface area of the circle can's answer: the largest
    radius that area allows ends can-dual's brute-force interval, so another
    value would change that interval and the check's tolerance."""
    sa = problems.solve_can(1000.0, Shape()).surface_area
    return {"rectangle": (2400.0,), "box": (1000.0,), "fence": (2400.0, 4, 2),
            "can": (1000.0, "circle"), "can-dual": (sa, "circle"),
            "rect-semicircle": (1.0,), "ellipse-semicircle": (1.0,)}


def _suite_oracle() -> list[CheckResult]:
    instances = _oracle_instances()
    # Indexed by every catalog name, so a problem missing here fails loudly.
    solved = {name: problem.solve(*instances[name])
              for name, problem in problems.PROBLEMS.items()}
    closed = {name: sol for name, (sol, _) in solved.items()}
    sa = instances["can-dual"][0]
    ellipse = closed["ellipse-semicircle"]
    hexagon = Shape(6)

    return [
        _oracle_check("rectangle_vs_brute_force", (closed["rectangle"].x,),
                      problems._rectangle_objective(2400.0), (1.0, 1199.0)),
        _oracle_check("fence_vs_brute_force", (closed["fence"].vertical_total,),
                      problems._fence_objective(2400.0, problems.FenceLayout(4, 2)),
                      (0.0, 2400.0)),
        _oracle_check("can_circle_vs_brute_force", (closed["can"].r,),
                      problems._can_objective(1000.0, math.pi), (1.0, 20.0)),
        _oracle_check("can_hexagon_vs_brute_force", (problems.solve_can(1000.0, hexagon).r,),
                      problems._can_objective(1000.0, geometry.area_coefficient(hexagon)),
                      (1.0, 20.0)),
        _oracle_check("can_dual_vs_brute_force", (closed["can-dual"].r,),
                      problems._can_dual_objective(sa, math.pi),
                      (1e-3, math.sqrt(sa / (2.0 * math.pi)))),
        _oracle_check("rect_semicircle_vs_brute_force", (closed["rect-semicircle"].x,),
                      problems._rect_semicircle_objective(1.0), (0.0, 1.0)),
        _oracle_check("ellipse_frontier_vs_brute_force", (ellipse.b,),
                      lambda b: -math.pi * b * frontier_a_analytic(b), (1e-4, 0.5)),
        CheckResult("oracle", "ellipse_containment_vs_theta_scan",
                    abs(problems.containment_max(ellipse.a, ellipse.b)
                        - containment_max_theta_scan(ellipse.a, ellipse.b)), 1e-9),
        # Box: a 2-D scan with z eliminated by the volume constraint.
        _oracle_check("box_vs_brute_force", closed["box"][:2],
                      problems._box_objective(1000.0), (4.0, 20.0), (4.0, 20.0)),
        # Each closed form against its golden-section path, by the residual
        # `solve` reports.
        _worst("oracle", "closed_matches_numeric_all_problems",
               (residuals["closed_numeric_gap"] for _, residuals in solved.values()),
               ACCEPTANCE_TOL),
    ]


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


def run(suites: Iterable[str] | None = None) -> list[CheckResult]:
    """Run the named suites (all of them by default) in the order given.
    Every name is checked before any suite runs."""
    names = list(SUITES) if suites is None else list(suites)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return [r for name in names for r in SUITES[name]()]
