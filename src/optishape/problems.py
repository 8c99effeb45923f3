"""The problem catalog: partitioned fence, box, prism/can with a regular-
polygon or circular base, and the rectangle and ellipse inscribed in a
semicircle.

Each problem has a closed-form solver (the default entry point) and an
independent numeric path built on golden-section search (the ``*_numeric``
variants), so every answer can be cross-checked at runtime.  Each numeric
path removes its constraint by algebra; the ellipse's searches along its
feasibility frontier ``frontier_a``, the containment constraint solved for
the semi-axis a.

Every optimum in the catalog is scale-free: the size of the instance only
scales the optimal shape.  So each numeric path searches once, on the unit
instance (perimeter, fence length, volume, surface area or radius 1; once
per base or fence layout, every layout kept), caches that answer, and
builds the requested one from it, one product per field written out in
each solver: the field times the length scale once per degree (1 for a
length, 2 for an area, 3 for a volume), a factor at a time, so an answer
too large for a float reads inf instead of raising, and scale 1 keeps the
unit answer's bits.  The closed forms run at the requested scale, so a
wrong closed form or a wrong rescale still shows as a closed-vs-numeric
gap; the one exception is the ellipse, whose closed-form unit contacts are
computed once and rescaled like its numeric answer.  Every unit answer is
kept by ``functools.cache``, one entry of about 350 B per distinct base or
layout a caller passes (0.84 MB for all 2401 fence layouts with v, h in
2..50).

``PROBLEMS`` lists the catalog as one table: each entry's CLI inputs and
residuals drive the ``solve`` command and the ``verify`` oracle suite, and
``Problem.solve`` is the one closed-vs-numeric cross-check both of them run.
Each ``_<stem>_objective`` is the function its unit search minimizes; each
entry's ``oracle`` gives the oracle suite that same function on the unit
instance, with the window it scans by brute force.
"""

import math
import sys
from functools import cache
from typing import Any, Callable, Iterable, NamedTuple

from .geometry import Point2, Shape, _check_positive, _count, area_coefficient, linspace
from .optimize import golden_section_min


# --------------------------------------------------------------------------
# fence with partitions


class _FenceLayoutFields(NamedTuple):
    v_segments: int
    h_segments: int


class FenceLayout(_FenceLayoutFields):
    """Counts of parallel fence runs in each direction, boundary included.

    The classic one-field/three-pens problem is v_segments=4, h_segments=2.
    """

    __slots__ = ()

    def __new__(cls, v_segments: int, h_segments: int) -> "FenceLayout":
        if _count(v_segments, "v_segments") < 2 or _count(h_segments, "h_segments") < 2:
            raise ValueError(
                "a closed rectangle needs at least 2 runs in each direction, "
                f"got v={v_segments}, h={h_segments}"
            )
        return super().__new__(cls, v_segments, h_segments)


class FenceSolution(NamedTuple):
    """Optimal field: each vertical run has length x, each horizontal run y."""

    x: float
    y: float
    vertical_total: float
    horizontal_total: float
    area: float


def _fence_solution(total_fence: float, layout: FenceLayout, vertical_total: float) -> FenceSolution:
    x = vertical_total / layout.v_segments
    y = (total_fence - vertical_total) / layout.h_segments
    return FenceSolution(x, y, vertical_total, total_fence - vertical_total, x * y)


def solve_fence(total_fence: float, layout: FenceLayout) -> FenceSolution:
    """Maximize the fenced rectangle's area for a given total fence length.

    The area is a downward parabola in the total vertical length L with
    roots at L=0 and L=total_fence, so the optimum sits at the vertex:
    exactly half the fence goes to the vertical runs, half to the horizontal.
    """
    _check_positive(total_fence, "total fence length")
    return _fence_solution(total_fence, layout, 0.5 * total_fence)


def _fence_objective(total_fence: float, layout: FenceLayout) -> Callable[[float], float]:
    """Negated field area as a function of the vertical total L.

    A count past 2**500 is first divided by an exact power of two, to below
    2**500, so that the area of a huge layout (about 1/(4*v*h) at fence 1)
    does not underflow; that only scales the objective, not its argmin.
    Smaller counts are used as they are.
    """
    # Float counts: float/int division is much slower than float/float.
    v, h = (math.ldexp(c, -max(0, math.frexp(c)[1] - 500)) for c in map(float, layout))
    return lambda L: -(L / v) * ((total_fence - L) / h)


@cache
def _solve_unit_fence(layout: FenceLayout) -> FenceSolution:
    sol = golden_section_min(_fence_objective(1.0, layout), 0.0, 1.0)
    return _fence_solution(1.0, layout, sol.argmin)


def solve_fence_numeric(total_fence: float, layout: FenceLayout) -> FenceSolution:
    """Same problem, solved by golden-section search over the vertical total
    at fence length 1 (once per layout) and rescaled."""
    _check_positive(total_fence, "total fence length")
    u, s = _solve_unit_fence(layout), total_fence
    return FenceSolution(u.x * s, u.y * s, u.vertical_total * s, u.horizontal_total * s,
                         u.area * s * s)


def fence_area_curve(
    total_fence: float, layout: FenceLayout, n_points: int
) -> list[tuple[float, float]]:
    """Sample (L, area) along the fence parabola at uniform L in [0, total]."""
    _check_positive(total_fence, "total fence length")
    # _fence_objective's product without its per-point call, negation and
    # the rescaling of counts past 2**500; negation is exact, so below that
    # the bits (+0.0 at both ends too) are the same.
    v, h = float(layout.v_segments), float(layout.h_segments)
    return [(L, (L / v) * ((total_fence - L) / h))
            for L in linspace(0.0, total_fence, n_points)]


# --------------------------------------------------------------------------
# rectangle and box


class RectangleSolution(NamedTuple):
    x: float
    y: float
    area: float


def solve_rectangle(perimeter: float) -> RectangleSolution:
    """Largest-area rectangle with the given perimeter: the square."""
    _check_positive(perimeter, "perimeter")
    side = perimeter / 4.0
    return RectangleSolution(side, side, side * side)


def _rectangle_objective(x: float) -> float:
    """Negated area as a function of the side x, at perimeter 1."""
    return -x * (0.5 - x)


@cache
def _solve_unit_rectangle() -> RectangleSolution:
    x = golden_section_min(_rectangle_objective, 0.0, 0.5).argmin
    return RectangleSolution(x, 0.5 - x, x * (0.5 - x))


def solve_rectangle_numeric(perimeter: float) -> RectangleSolution:
    """Golden-section counterpart of solve_rectangle, solved at perimeter 1
    and rescaled."""
    _check_positive(perimeter, "perimeter")
    u, s = _solve_unit_rectangle(), perimeter
    return RectangleSolution(u.x * s, u.y * s, u.area * s * s)


class BoxSolution(NamedTuple):
    x: float
    y: float
    z: float
    surface_area: float


def solve_box(volume: float) -> BoxSolution:
    """Smallest-surface-area rectangular box of the given volume: the cube."""
    _check_positive(volume, "volume")
    edge = volume ** (1.0 / 3.0)
    return BoxSolution(edge, edge, edge, 6.0 * edge * edge)


def _box_objective(x: float, y: float) -> float:
    """Surface area 2*(x*y + x*z + y*z) with z = 1/(x*y) eliminated, at
    volume 1."""
    return 2.0 * (x * y + 1.0 / y + 1.0 / x)


@cache
def _solve_unit_box() -> BoxSolution:
    # Both searches bracket an edge's domain from 0.  It has no upper end;
    # 20.0, far past the unit cube's edge 1, stands in for one.
    def best_y(x: float):
        return golden_section_min(lambda y: _box_objective(x, y), 0.0, 20.0)

    x = golden_section_min(lambda x: best_y(x).value, 0.0, 20.0).argmin
    y = best_y(x).argmin
    z = 1.0 / (x * y)
    return BoxSolution(x, y, z, 2.0 * (x * y + x * z + y * z))


def solve_box_numeric(volume: float) -> BoxSolution:
    """Nested golden-section over (x, y) with z pinned by the volume, solved
    at volume 1 and rescaled."""
    _check_positive(volume, "volume")
    u, s = _solve_unit_box(), volume ** (1.0 / 3.0)
    return BoxSolution(u.x * s, u.y * s, u.z * s, u.surface_area * s * s)


# --------------------------------------------------------------------------
# can / prism with a regular base


class CanSolution(NamedTuple):
    """Optimal can or prism: base inradius r, height h."""

    r: float
    h: float
    surface_area: float
    volume: float


def _can_solution(base_coefficient: float, r: float, h: float) -> CanSolution:
    c = base_coefficient
    return CanSolution(r, h, 2.0 * c * r * r + 2.0 * c * r * h, c * r * r * h)


def solve_can(volume: float, base: Shape) -> CanSolution:
    """Minimize the surface area of a can/prism holding the given volume.

    With base area c*r^2 the surface area is 2*c*r^2 + 2*volume/r once the
    height is eliminated; the minimum lands at r = (volume/(2c))^(1/3),
    which forces h = 2r regardless of the base shape.
    """
    _check_positive(volume, "volume")
    c = area_coefficient(base)
    # Cube roots taken apart, so r cannot underflow to 0 at tiny volumes.
    r = volume ** (1.0 / 3.0) / (2.0 * c) ** (1.0 / 3.0)
    h = volume / (c * r * r)
    return _can_solution(c, r, h)


def _can_objective(c: float) -> Callable[[float], float]:
    """Surface area 2*c*r^2 + 2/r at base coefficient c and volume 1, with
    the height eliminated."""
    return lambda r: 2.0 * c * r * r + 2.0 / r


@cache
def _solve_unit_can(base: Shape) -> CanSolution:
    c = area_coefficient(base)
    # As for the box, 20.0 stands in for the unbounded end: every base's
    # unit radius is at most the circle's, about 0.54.
    r = golden_section_min(_can_objective(c), 0.0, 20.0).argmin
    return _can_solution(c, r, 1.0 / (c * r * r))


def solve_can_numeric(volume: float, base: Shape) -> CanSolution:
    """Golden-section counterpart of solve_can (search over the inradius),
    solved at volume 1 (once per base) and rescaled."""
    _check_positive(volume, "volume")
    u, s = _solve_unit_can(base), volume ** (1.0 / 3.0)
    return CanSolution(u.r * s, u.h * s, u.surface_area * s * s, u.volume * s * s * s)


def solve_can_dual(surface_area: float, base: Shape) -> CanSolution:
    """Maximize the volume of a can/prism built from the given surface area.

    Dual of solve_can; the optimum is again h = 2r, with r = sqrt(SA/(6c)).
    """
    _check_positive(surface_area, "surface area")
    c = area_coefficient(base)
    # Square roots taken apart, so r cannot underflow to 0 at tiny areas.
    r = math.sqrt(surface_area) / math.sqrt(6.0 * c)
    h = surface_area / (2.0 * c * r) - r
    return _can_solution(c, r, h)


def _can_dual_objective(c: float) -> Callable[[float], float]:
    """Negated volume r*(1 - 2*c*r^2)/2 at base coefficient c and surface
    area 1, as a function of r alone."""
    return lambda r: -r * (1.0 - 2.0 * c * r * r) / 2.0


@cache
def _solve_unit_can_dual(base: Shape) -> CanSolution:
    c = area_coefficient(base)
    r_max = math.sqrt(1.0 / (2.0 * c))  # the two bases alone use up the area: h = 0
    r = golden_section_min(_can_dual_objective(c), 0.0, r_max).argmin
    return _can_solution(c, r, (1.0 - 2.0 * c * r * r) / (2.0 * c * r))


def solve_can_dual_numeric(surface_area: float, base: Shape) -> CanSolution:
    """Golden-section counterpart of solve_can_dual, solved at surface area 1
    (once per base) and rescaled."""
    _check_positive(surface_area, "surface area")
    u, s = _solve_unit_can_dual(base), math.sqrt(surface_area)
    return CanSolution(u.r * s, u.h * s, u.surface_area * s * s, u.volume * s * s * s)


# --------------------------------------------------------------------------
# shapes inscribed in a semicircle


class SemicircleRectSolution(NamedTuple):
    x: float  # half-width; upper corners at (+/- x, y)
    y: float
    area: float


def solve_rect_semicircle(radius: float) -> SemicircleRectSolution:
    """Largest-area rectangle inscribed in a semicircle of the given radius.

    Maximizes 2*x*y subject to x^2 + y^2 = radius^2; the optimum is the
    half-square x = y = radius/sqrt(2) with area radius^2.
    """
    _check_positive(radius, "radius")
    half = radius / math.sqrt(2.0)
    return SemicircleRectSolution(half, half, 2.0 * half * half)


def _rect_semicircle_objective(x: float) -> float:
    """Negated area 2*x*y as a function of the half-width x, with y on the
    unit arc."""
    return -2.0 * x * math.sqrt(1.0 - x * x)


@cache
def _solve_unit_rect_semicircle() -> SemicircleRectSolution:
    x = golden_section_min(_rect_semicircle_objective, 0.0, 1.0).argmin
    y = math.sqrt(1.0 - x * x)
    return SemicircleRectSolution(x, y, 2.0 * x * y)


def solve_rect_semicircle_numeric(radius: float) -> SemicircleRectSolution:
    """Golden-section counterpart of solve_rect_semicircle, solved at radius 1
    and rescaled."""
    _check_positive(radius, "radius")
    u, s = _solve_unit_rect_semicircle(), radius
    return SemicircleRectSolution(u.x * s, u.y * s, u.area * s * s)


# The family of candidate ellipses is x^2/a^2 + (y-b)^2/b^2 = 1: centered at
# (0, b), so already tangent to the diameter at the origin.  Only the arc
# constraint (all points inside the unit circle) has to be tested.


def containment_max(a: float, b: float) -> float:
    """Largest squared distance from the disk center over the ellipse
    x^2/a^2 + (y-b)^2/b^2 = 1.

    The point (a*cos(theta), b + b*sin(theta)) lies at squared distance
    (b^2 - a^2)*s^2 + 2*b^2*s + (a^2 + b^2) with s = sin(theta), a quadratic
    in s; its maximum over [-1, 1] sits at an end or, when the quadratic is
    concave, at its vertex.
    """
    qa = b * b - a * a
    qb = 2.0 * b * b
    qc = a * a + b * b
    peak = max(qa - qb + qc, qa + qb + qc)  # s = -1 and s = 1, exactly
    if qa < 0.0:
        s = -qb / (2.0 * qa)
        if -1.0 < s < 1.0:
            peak = max(peak, qa * s * s + qb * s + qc)
    return peak


def frontier_a(b: float) -> float:
    """Largest horizontal semi-axis a whose ellipse fits in the closed unit
    half-disk, for 0 < b <= 1/2: the feasibility frontier.

    Setting containment_max's vertex value to 1 and solving for a^2 - b^2
    gives a^2 = b^2 + ((1 - 2b^2) + sqrt(1 - 4b^2)) / 2.  The radicand is
    taken as (1 - 2b)(1 + 2b): 1 - 2b is exact near b = 1/2, where
    1 - 4b^2 would cancel, and neither factor is negative on the domain.
    Above 1/2 even a sliver-thin ellipse pokes out of the disk at its top
    point (0, 2b), and the square root raises ValueError.
    """
    u = ((1.0 - 2.0 * b * b) + math.sqrt((1.0 - 2.0 * b) * (1.0 + 2.0 * b))) / 2.0
    return math.sqrt(b * b + u)


class EllipseSolution(NamedTuple):
    """Largest inscribed ellipse: semi-axes, area, and arc contact points."""

    a: float
    b: float
    area: float
    contacts: tuple[Point2, ...]


def intersect_ellipse_circle(a: float, b: float) -> list[Point2]:
    """Arc contacts of the ellipse x^2/a^2 + (y-b)^2/b^2 = 1 tangent to the
    unit upper semicircle, sorted by x.

    Substituting x^2 = 1 - y^2 into the ellipse equation leaves the quadratic
    (a^2 - b^2)*y^2 - 2*a^2*b*y + b^2 = 0.  A tangent ellipse makes its root
    double, so the contact height is the quadratic's vertex and the contacts
    are the two mirrored points of the arc at that height.  The ellipse must
    be tangent, with a > b: both unit ellipses the solvers build are.  An
    ellipse that is not tangent gets points on the arc but off the ellipse.
    """
    _check_positive(a, "semi-axis a")
    _check_positive(b, "semi-axis b")
    if not a > b:
        raise ValueError(f"a tangent ellipse has a > b, got a={a}, b={b}")
    qa = a * a - b * b
    _check_positive(qa, "a^2 - b^2")
    # The vertex -qb / (2*qa) with qb = -2*a^2*b; negation is exact.
    y = min(2.0 * a * a * b / (2.0 * qa), 1.0)
    x = math.sqrt(max(1.0 - y * y, 0.0))
    return [Point2(-x, y), Point2(x, y)]


def _unit_ellipse(a: float, b: float) -> EllipseSolution:
    """The ellipse with semi-axes a, b in the unit semicircle, with its area
    and arc contacts."""
    return EllipseSolution(a, b, math.pi * a * b, tuple(intersect_ellipse_circle(a, b)))


def rescale_ellipse(unit: EllipseSolution, radius: float) -> EllipseSolution:
    """A unit-semicircle solution carried to the given radius: the semi-axes
    and contacts scale with the radius, the area with its square."""
    return EllipseSolution(unit.a * radius, unit.b * radius, unit.area * radius * radius,
                           tuple(Point2(p.x * radius, p.y * radius) for p in unit.contacts))


@cache
def _closed_unit_ellipse() -> EllipseSolution:
    return _unit_ellipse(math.sqrt(6.0) / 3.0, math.sqrt(2.0) / 3.0)


def solve_ellipse_semicircle(radius: float = 1.0) -> EllipseSolution:
    """Largest-area ellipse inscribed in a semicircle of the given radius.

    Its arc contacts land on the optimal inscribed rectangle's upper corners
    (+/- r/sqrt(2), r/sqrt(2)), which fixes the semi-axes at a = sqrt(6)/3*r
    and b = sqrt(2)/3*r and the area at 2*pi/(3*sqrt(3))*r^2.
    """
    _check_positive(radius, "radius")
    return rescale_ellipse(_closed_unit_ellipse(), radius)


def _ellipse_semicircle_objective(b: float) -> float:
    """Negated area pi*a*b along the frontier a = frontier_a(b)."""
    return -math.pi * b * frontier_a(b)


@cache
def _solve_unit_ellipse_semicircle() -> EllipseSolution:
    # The top point (0, 2b) caps the feasible b at 1/2.  The search never
    # evaluates its ends, so the flat end b = 0 needs no clamp.
    b = golden_section_min(_ellipse_semicircle_objective, 0.0, 0.5).argmin
    return _unit_ellipse(frontier_a(b), b)


def solve_ellipse_semicircle_numeric(radius: float = 1.0) -> EllipseSolution:
    """Same problem, solved by golden-section search over b along the
    feasibility frontier a = frontier_a(b).  The search runs once, on the
    unit semicircle, and its answer is rescaled."""
    _check_positive(radius, "radius")
    return rescale_ellipse(_solve_unit_ellipse_semicircle(), radius)


# --------------------------------------------------------------------------
# the catalog as one table


class Input(NamedTuple):
    """One CLI input of a problem: its flag, its key in the report's
    ``inputs`` (and in the parsed arguments), the parser of its text
    (``float``, ``int`` or ``base``), its default (None when the flag is
    required) and its help text.  The parser only converts the text: the
    solvers, and the records ``solver_args`` builds, refuse a value out of
    range."""

    flag: str
    key: str
    type: Callable[[str], Any]
    default: Any = None
    help: str | None = None


def base(text: str) -> str | int:
    """A ``--base`` text as its input value: "circle" or a side count."""
    return text if text == "circle" else int(text)


def _can_args(size: float, tag: str | int) -> tuple[float, Shape]:
    return size, Shape(None if tag == "circle" else tag)


class Problem(NamedTuple):
    """One catalog problem, as the CLI and the verify oracle suite see it.

    Its solvers are this module's ``solve_<stem>`` (closed form) and
    ``solve_<stem>_numeric``, which ``solve`` runs.  ``solver_args`` turns
    the input values, in ``inputs`` order, into the solvers' arguments,
    building the records (``FenceLayout``, ``Shape``) that check the
    counts; ``residuals(closed, numeric, *solver_args)`` gives the
    report's residuals.  ``oracle(closed)`` takes the closed answer at the
    unit instance (size 1, every other input at its default) and gives
    what the oracle suite scans: the answer's coordinates that the unit
    search covers, the unit objective it minimizes, and one ``(lo, hi)``
    window per coordinate.  A problem without one (the fence) has no
    brute-force check.
    """

    name: str
    help: str
    inputs: tuple[Input, ...]
    residuals: Callable[..., dict[str, float]]
    solver_args: Callable[..., tuple] = lambda *values: values
    oracle: Callable[[Any], tuple] | None = None

    @property
    def stem(self) -> str:
        return "solve_" + self.name.replace("-", "_")

    def solve(self, *values: Any) -> tuple[Any, dict[str, float]]:
        """The closed-form answer for the input values, in ``inputs`` order
        (as the flags parse them: a base is "circle" or a side count), and
        its residuals against the numeric path.  The solvers are looked
        up in this module at call time, so that a patched or traced module
        attribute is the one that runs."""
        args = self.solver_args(*values)
        closed = globals()[self.stem](*args)
        return closed, self.residuals(closed, globals()[self.stem + "_numeric"](*args), *args)


# Every residual of a solve report, and every verify check that does not
# fix its own, is accepted up to this.
ACCEPTANCE_TOL = 1e-6


def worst_residual(residuals: Iterable[float]) -> float:
    """The largest residual, NaN if any is NaN (so a check on it fails), and
    inf if there are none."""
    values = list(residuals)
    return math.nan if any(map(math.isnan, values)) else max(values, default=math.inf)


def _relative(gap: float, size: float) -> float:
    """gap / size: the gap between two answers relative to their size.

    Below the normal range floats are evenly spaced, 5e-324 apart, so two
    answers that each round correctly can differ by one step there, however
    close they are: one step of the gap is not counted.  A size that
    underflowed to 0 reads 0 when the answers agree and inf otherwise.
    """
    if size < sys.float_info.min:
        gap = max(gap - math.ulp(0.0), 0.0)
        if size == 0.0:
            return 0.0 if gap == 0.0 else math.inf
    return gap / size


def _can_residuals(sol: CanSolution, numeric: CanSolution, *_: Any) -> dict[str, float]:
    return {
        "h_over_r_gap": abs(sol.h / sol.r - 2.0),
        "closed_numeric_gap": abs(sol.r - numeric.r) / sol.r,
    }


def _ellipse_residuals(sol: EllipseSolution, _: EllipseSolution, radius: float) -> dict[str, float]:
    # Both solutions are unit ones rescaled, so the first three residuals are
    # taken on the unit solutions: scale-free, and safe from under/overflow.
    unit, unit_numeric = solve_ellipse_semicircle(1.0), solve_ellipse_semicircle_numeric(1.0)
    # The rescale itself is checked at the requested radius, each term divided
    # back to the unit first so that it cannot overflow.  A term is left out
    # where a value in it is subnormal or 0 (too few digits to check) or inf;
    # below a radius of about 3e-308 none is left, and the residual reads 0.
    tiny = sys.float_info.min
    at_radius = [abs((p.x / radius) ** 2 + (p.y / radius) ** 2 - 1.0)
                 for p in sol.contacts if min(abs(p.x), abs(p.y)) >= tiny]
    if not (abs(sol.area) < tiny or math.isinf(sol.area)):
        at_radius.append(abs(sol.area / radius / radius
                             - math.pi * (sol.a / radius) * (sol.b / radius)))
    return {
        "tangency_gap": abs(containment_max(unit.a, unit.b) - 1.0),
        "contact_circle_gap": worst_residual(
            abs(p.x * p.x + p.y * p.y - 1.0) for p in unit.contacts
        ),
        "closed_numeric_gap": worst_residual(abs(c - n) for c, n in zip(unit[:2], unit_numeric)),
        "rescale_gap": worst_residual(at_radius or [0.0]),
    }


# The can and its dual take the same base.
_BASE = Input("--base", "base", base, "circle",
              help="'circle' or a polygon side count (default circle)")

# In the order the CLI lists them.  The oracle evaluates the ends of each
# window, so the box's and the can's, whose objectives divide by their
# coordinates, start above 0.  The cans' scans take the circle base, its
# coefficient written as pi rather than looked up, so that a wrong circle
# coefficient fails them.
PROBLEMS: dict[str, Problem] = {p.name: p for p in (
    Problem(
        "rectangle", "largest rectangle with a given perimeter",
        (Input("--fence", "perimeter", float, help="total boundary length (the perimeter)"),),
        lambda sol, num, perimeter: {
            "square_gap": _relative(abs(sol.x - sol.y), sol.x),
            "closed_numeric_gap": _relative(abs(sol.x - num.x), sol.x),
        },
        oracle=lambda sol: ((sol.x,), _rectangle_objective, ((0.0, 0.5),)),
    ),
    Problem(
        "box", "smallest-surface box with a given volume",
        (Input("--volume", "volume", float),),
        lambda sol, num, volume: {
            "cube_gap": worst_residual((abs(sol.x - sol.y), abs(sol.y - sol.z))) / sol.x,
            "closed_numeric_gap": worst_residual(abs(a - b) for a, b in zip(sol[:3], num)) / sol.x,
        },
        # A 2-D scan with z eliminated by the volume constraint.
        oracle=lambda sol: (sol[:2], _box_objective, ((0.2, 2.0), (0.2, 2.0))),
    ),
    Problem(
        "fence", "partitioned rectangular field of maximal area",
        (Input("--fence", "fence", float), Input("--v-segments", "v_segments", int, 4),
         Input("--h-segments", "h_segments", int, 2)),
        lambda sol, num, fence, layout: {
            "half_split_deficit": abs(sol.vertical_total - fence / 2.0) / fence,
            "closed_numeric_gap": _relative(
                worst_residual((abs(sol.x - num.x), abs(sol.y - num.y))), max(sol.x, sol.y)),
        },
        solver_args=lambda fence, v, h: (fence, FenceLayout(v, h)),
    ),
    Problem(
        "can", "smallest-surface can/prism with a given volume",
        (Input("--volume", "volume", float), _BASE),
        _can_residuals,
        solver_args=_can_args,
        oracle=lambda sol: ((sol.r,), _can_objective(math.pi), ((0.1, 1.0),)),
    ),
    Problem(
        "can-dual", "largest-volume can/prism with a given surface area",
        (Input("--surface-area", "surface_area", float), _BASE),
        _can_residuals,
        solver_args=_can_args,
        oracle=lambda sol: ((sol.r,), _can_dual_objective(math.pi), ((0.01, 0.5),)),
    ),
    Problem(
        "rect-semicircle", "largest rectangle inscribed in a semicircle",
        (Input("--radius", "radius", float, 1.0),),
        lambda sol, num, radius: {
            "xy_gap": _relative(abs(sol.x - sol.y), radius),
            "closed_numeric_gap": _relative(abs(sol.x - num.x), radius),
        },
        oracle=lambda sol: ((sol.x,), _rect_semicircle_objective, ((0.0, 1.0),)),
    ),
    Problem(
        "ellipse-semicircle", "largest ellipse inscribed in a semicircle",
        (Input("--radius", "radius", float, 1.0),),
        _ellipse_residuals,
        oracle=lambda sol: ((sol.b,), _ellipse_semicircle_objective, ((1e-4, 0.5),)),
    ),
)}
