"""Which `verify` check catches which fault: the mutation matrix.

Each row breaks the program on purpose in one named way (a mutation) and
states the exact set of `verify.run()` checks that then fail.  A row whose
set is empty is an escape: every check passes the broken program.  Escapes
stay in the table, each naming the ROADMAP item that owns it, so that the
item's change turns the escape into a catch and edits its row.  A row whose
run raises states the exception instead of a set.

A mutation replaces a name in every module that holds it (`problems`
imports `area_coefficient` and `golden_section_min` by name), and every
unit-answer cache is cleared before and after it, so the broken program
reuses no answer of the intact one and leaves none behind.

The matrix is how a check earns its place (DeMillo, Lipton and Sayward,
"Hints on Test Data Selection", 1978): a check that no row needs is a
candidate for removal, and a change that removes one shows here that no
fault the parent caught escapes.
"""

import math
import re
from typing import Any, Callable, NamedTuple

import pytest

import optishape
from optishape import geometry, optimize, oracle, problems, verify
from optishape.geometry import Point2, Shape

MODULES = (optishape, geometry, optimize, oracle, problems, verify)

# Taken at import, before any mutation can replace one of them.
CACHES = [f for name, f in vars(problems).items()
          if name.startswith("_solve_unit_") or name == "_closed_unit_ellipse"]

# The length fields of each answer.  A mutation that scales an answer scales
# these together and leaves its areas and volumes as they were.
LENGTHS = {
    "rectangle": ("x", "y"),
    "box": ("x", "y", "z"),
    "fence": ("x", "y", "vertical_total", "horizontal_total"),
    "can": ("r", "h"),
    "can-dual": ("r", "h"),
    "rect-semicircle": ("x", "y"),
    "ellipse-semicircle": ("a", "b", "contacts"),
}

EIGHT_ULPS = 8.0 * math.ulp(1.0)

ITEM_8 = "item 8: no check meets each answer's own constraint to a few ulps"
ITEM_9 = "item 9: closed_numeric_gap is bounded by ACCEPTANCE_TOL, not the search's bracket"


def _scale(sol: Any, fields: tuple[str, ...], k: float) -> Any:
    return sol._replace(**{
        f: tuple(Point2(p.x * k, p.y * k) for p in sol.contacts) if f == "contacts"
        else getattr(sol, f) * k
        for f in fields})


def scaled(fields: tuple[str, ...], k: float) -> Callable:
    """A wrapper that scales the given fields of the wrapped solver's answer."""
    return lambda solver: lambda *args: _scale(solver(*args), fields, k)


def times(k: float) -> Callable:
    """A wrapper that multiplies the wrapped function's value by k."""
    return lambda f: lambda *args: f(*args) * k


def one_degree_higher(f: Callable) -> Callable:
    return lambda shape, r: f(shape, r) * r


def ignoring_base(solver: Callable) -> Callable:
    return lambda size, base: solver(size, Shape())


def ignoring_layout(solver: Callable) -> Callable:
    return lambda fence, layout: solver(fence, problems.FenceLayout(4, 2))


def rescaled_by(power: float, fields: tuple[str, ...]) -> Callable:
    """A numeric path that rescales its unit answer's length fields by
    size ** power, whatever their degree."""
    return lambda solver: lambda size, *rest: _scale(solver(1.0, *rest), fields, size ** power)


def can_radius_off(rel: float, h_of: Callable[[float, float, float], float]) -> Callable:
    """A can whose r is rel too large, with h = h_of(volume, c, r)."""
    def wrap(solver):
        def wrong(volume, base):
            c, r = geometry.area_coefficient(base), solver(volume, base).r * (1.0 + rel)
            return problems._can_solution(c, r, h_of(volume, c, r))
        return wrong
    return wrap


def can_dual_on(factor: float) -> Callable:
    """The closed can-dual with 6*c replaced by factor*c."""
    def wrap(_):
        def wrong(surface_area, base):
            c = geometry.area_coefficient(base)
            r = math.sqrt(surface_area) / math.sqrt(factor * c)
            return problems._can_solution(c, r, surface_area / (2.0 * c * r) - r)
        return wrong
    return wrap


def volume_off(build: Callable) -> Callable:
    return lambda c, r, h: build(c, r, h)._replace(volume=c * r * r * h * (1.0 + 1e-9))


def contacts_moved(move: Callable[[Point2], Point2]) -> Callable:
    def wrap(solver):
        def wrong(radius=1.0):
            sol = solver(radius)
            return sol._replace(contacts=tuple(move(p) for p in sol.contacts))
        return wrong
    return wrap


def _along_arc(p: Point2, angle: float = 1e-8) -> Point2:
    return Point2(p.x * math.cos(angle) - p.y * math.sin(angle),
                  p.x * math.sin(angle) + p.y * math.cos(angle))


def low_end_of_bracket(search: Callable) -> Callable:
    def wrong(f, lo, hi):
        sol = search(f, lo, hi)
        x = sol.argmin - sol.achieved_interval / 2.0
        return sol._replace(argmin=x, value=f(x))
    return wrong


def swapped_axes(f: Callable) -> Callable:
    return lambda a, b: f(b, a)


class Row(NamedTuple):
    """One mutation: each name it replaces with wrap(original), and the exact
    set of checks that fail under it, or the exception (type and message)
    its run raises.  An escape (an empty set) names what owns it."""

    name: str
    wraps: dict[str, Callable]
    fails: frozenset[str] | Exception
    owner: str = ""


def row(name: str, wraps: dict[str, Callable], *fails: str, owner: str = "") -> Row:
    return Row(name, wraps, frozenset(fails), owner)


def _closed_form_rows() -> list[Row]:
    """Each closed form with its length fields scaled together by four
    factors, then with its first length field alone scaled by 1 + 1e-7."""
    caught = {
        ("rectangle", 1e-5): ("rectangle_vs_brute_force", "closed_matches_numeric_all_problems"),
        ("box", 1e-5): ("box_vs_brute_force", "closed_matches_numeric_all_problems"),
        ("fence", 1e-7): ("randomized_half_split",),
        ("fence", 1e-5): ("randomized_half_split", "closed_matches_numeric",
                          "fence_vs_brute_force", "closed_matches_numeric_all_problems"),
        ("can", 1e-5): ("closed_matches_numeric_every_base", "can_circle_vs_brute_force",
                        "can_hexagon_vs_brute_force", "closed_matches_numeric_all_problems"),
        ("can-dual", 1e-5): ("closed_matches_numeric_every_base", "can_dual_vs_brute_force",
                             "closed_matches_numeric_all_problems"),
        ("rect-semicircle", 1e-5): ("contacts_match_rectangle_vertices",
                                    "rect_semicircle_vs_brute_force",
                                    "closed_matches_numeric_all_problems"),
        ("ellipse-semicircle", 1e-5): ("ellipse_frontier_vs_brute_force",
                                       "closed_matches_numeric_all_problems"),
    }
    rows = []
    for problem, fields in LENGTHS.items():
        stem = problems.PROBLEMS[problem].stem
        for label, k in (("8 ulps", EIGHT_ULPS), ("1e-9", 1e-9), ("1e-7", 1e-7),
                         ("1e-5", 1e-5)):
            fails = caught.get((problem, k), ())
            rows.append(row(f"closed {problem} lengths * (1 + {label})",
                            {stem: scaled(fields, 1.0 + k)}, *fails,
                            owner="" if fails else ITEM_8))
    first = {"can": ("h_equals_2r_closed",)}
    for problem, fields in LENGTHS.items():
        fails = first.get(problem, ())
        rows.append(row(f"closed {problem} {fields[0]} alone * (1 + 1e-7)",
                        {problems.PROBLEMS[problem].stem: scaled(fields[:1], 1.0 + 1e-7)},
                        *fails, owner="" if fails else ITEM_8))
    return rows


def _numeric_rows() -> list[Row]:
    """Each numeric path with its length fields scaled together by 1 + 1e-7."""
    caught = {"ellipse-semicircle": ("contacts_on_circle",)}
    return [row(f"numeric {problem} lengths * (1 + 1e-7)",
                {problems.PROBLEMS[problem].stem + "_numeric": scaled(fields, 1.0 + 1e-7)},
                *caught.get(problem, ()), owner="" if problem in caught else ITEM_9)
            for problem, fields in LENGTHS.items()]


ROWS: list[Row] = [
    *_closed_form_rows(),
    *_numeric_rows(),
    # primitives 1e-9 off
    row("geometry.area * (1 + 1e-9)", {"area": times(1.0 + 1e-9)},
        "area_over_perimeter_is_half_r_ulps"),
    row("geometry.perimeter * (1 + 1e-9)", {"perimeter": times(1.0 + 1e-9)},
        "area_over_perimeter_is_half_r_ulps"),
    row("area_coefficient * (1 + 1e-9)", {"area_coefficient": times(1.0 + 1e-9)},
        "coefficient_matches_shoelace", "prism_optimum_is_the_cans"),
    row("containment_max * (1 + 1e-9)", {"containment_max": times(1.0 + 1e-9)},
        "contacts_on_ellipse", "ellipse_containment_vs_theta_scan"),
    # structural faults
    row("area of degree 3", {"area": one_degree_higher},
        "area_over_perimeter_is_half_r_ulps", "area_perimeter_scaling"),
    row("perimeter of degree 2", {"perimeter": one_degree_higher},
        "area_over_perimeter_is_half_r_ulps", "area_perimeter_scaling"),
    row("area of degree 3 and perimeter of degree 2",
        {"area": one_degree_higher, "perimeter": one_degree_higher},
        "area_perimeter_scaling"),
    row("numeric box rescaled by volume ** (1/2)",
        {"solve_box_numeric": rescaled_by(0.5, LENGTHS["box"])},
        "closed_matches_numeric_all_problems"),
    row("numeric can rescaled by volume ** (1/2)",
        {"solve_can_numeric": rescaled_by(0.5, LENGTHS["can"])},
        "closed_matches_numeric_all_problems"),
    row("numeric can-dual rescaled by surface area ** (1/3)",
        {"solve_can_dual_numeric": rescaled_by(1.0 / 3.0, LENGTHS["can-dual"])},
        "closed_matches_numeric_all_problems"),
    row("circle coefficient 22/7",
        {"area_coefficient": lambda f: lambda shape: 22.0 / 7.0 if shape.sides is None
         else f(shape)},
        "prism_optimum_is_the_cans", "can_circle_vs_brute_force", "can_dual_vs_brute_force"),
    row("max_a_for_b * (1 + 1e-9)", {"max_a_for_b": times(1.0 + 1e-9)}, "contacts_on_ellipse"),
    row("closed fence ignores its layout", {"solve_fence": ignoring_layout},
        "closed_matches_numeric"),
    row("numeric fence ignores its layout", {"solve_fence_numeric": ignoring_layout},
        "closed_matches_numeric"),
    row("closed can r 1e-7 off, h from the volume",
        {"solve_can": can_radius_off(1e-7, lambda volume, c, r: volume / (c * r * r))},
        "h_equals_2r_closed"),
    row("closed can r 1e-7 off, h = 2r",
        {"solve_can": can_radius_off(1e-7, lambda volume, c, r: 2.0 * r)}, owner=ITEM_8),
    # h/r then reads 3e-6 off, while r is within every closed-vs-numeric bound.
    row("numeric can r 5e-7 off, h from the volume",
        {"solve_can_numeric": can_radius_off(5e-7, lambda volume, c, r: volume / (c * r * r))},
        "h_equals_2r_numeric"),
    row("closed can-dual built on 6.000001 * c", {"solve_can_dual": can_dual_on(6.000001)},
        owner=ITEM_8),
    row("_can_solution volume 1e-9 off", {"_can_solution": volume_off}, owner=ITEM_8),
    row("numeric ellipse contacts moved out by 1e-7",
        {"solve_ellipse_semicircle_numeric": contacts_moved(lambda p: Point2(
            p.x * (1.0 + 1e-7), p.y * (1.0 + 1e-7)))},
        "contacts_on_circle", "contacts_on_ellipse"),
    row("numeric ellipse contacts moved 1e-8 along the arc",
        {"solve_ellipse_semicircle_numeric": contacts_moved(_along_arc)},
        owner="none: at a tangency both contact checks see only radial error"),
    row("closed can ignores its base", {"solve_can": ignoring_base},
        "closed_matches_numeric_every_base", "volume_round_trip", "prism_optimum_is_the_cans",
        "can_hexagon_vs_brute_force"),
    row("closed can-dual ignores its base", {"solve_can_dual": ignoring_base},
        "closed_matches_numeric_every_base", "volume_round_trip"),
    row("numeric can ignores its base", {"solve_can_numeric": ignoring_base},
        "closed_matches_numeric_every_base"),
    row("numeric can-dual ignores its base", {"solve_can_dual_numeric": ignoring_base},
        "closed_matches_numeric_every_base"),
    row("golden search returns the low end of its bracket",
        {"golden_section_min": low_end_of_bracket}, owner=ITEM_9),
    Row("ellipse contacts taken with a and b swapped",
        {"intersect_ellipse_circle": swapped_axes},
        ValueError("a tangent ellipse has a > b, got a=0.4714045205704006, "
                   "b=0.8164965813098704")),
]


@pytest.fixture
def mutate(monkeypatch):
    """Apply a row's wraps to every module that holds each name, with the
    unit caches cleared before the run and after the undo."""
    def apply(wraps: dict[str, Callable]) -> None:
        for name, wrap in wraps.items():
            holders = [m for m in MODULES if name in vars(m)]
            originals = {id(vars(m)[name]) for m in holders}
            assert len(originals) == 1, f"{name} differs between modules"
            wrong = wrap(vars(holders[0])[name])
            for module in holders:
                monkeypatch.setattr(module, name, wrong)
    for cache in CACHES:
        cache.cache_clear()
    yield apply
    monkeypatch.undo()
    for cache in CACHES:
        cache.cache_clear()


@pytest.mark.parametrize("entry", ROWS, ids=[r.name for r in ROWS])
def test_mutation_fails_exactly_its_checks(mutate, entry):
    mutate(entry.wraps)
    if isinstance(entry.fails, Exception):
        with pytest.raises(type(entry.fails), match=f"^{re.escape(str(entry.fails))}$"):
            verify.run()
    else:
        assert {c.name for c in verify.run() if not c.passed} == entry.fails


def test_every_escape_names_its_owner():
    for entry in ROWS:
        assert bool(entry.owner) is (entry.fails == frozenset()), entry.name


def test_names_are_unique_and_name_real_checks():
    assert len({r.name for r in ROWS}) == len(ROWS)
    checks = {c.name for c in verify.run()}
    for entry in ROWS:
        if not isinstance(entry.fails, Exception):
            assert entry.fails <= checks, entry.name
