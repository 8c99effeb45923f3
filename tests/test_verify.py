import itertools
import math
from collections import Counter

import pytest

from optishape import oracle, problems, verify
from optishape.problems import PROBLEMS


@pytest.mark.parametrize(
    "residuals, worst",
    [
        ([0.5, 3.0, 1.0], 3.0),
        ([math.nan, 1.0], math.nan),
        ([1.0, math.nan, 2.0], math.nan),
        ([1.0, math.nan], math.nan),
        ([0.0, math.inf], math.inf),
        ([], math.inf),
    ],
    ids=["max", "nan-first", "nan-middle", "nan-last", "inf", "empty"],
)
def test_worst_residual_rule(residuals, worst):
    check = verify._worst("suite", "name", iter(residuals), 10.0)
    assert check[:2] == ("suite", "name") and check.tolerance == 10.0
    if math.isnan(worst):
        assert math.isnan(check.residual)
    else:
        assert check.residual == worst
    assert check.passed is (worst <= 10.0)


# Each suite yields at least one check under its own name: the benchmark's
# verify checker refuses a run whose JSON lacks a suite, so a cut must not
# leave one empty.
def test_every_suite_returns_a_list():
    for name, suite in verify.SUITES.items():
        checks = suite()
        assert type(checks) is list and {check.suite for check in checks} == {name}


ORACLES = [name for name, problem in PROBLEMS.items() if problem.oracle is not None]


def _unit_oracle(name):
    """The problem's oracle entry on its closed answer at the unit instance:
    (coordinates, objective, windows)."""
    problem = PROBLEMS[name]
    return problem.oracle(verify._solve_at(problem, 1.0)[0])


# Every catalog problem but the fence has a brute-force window, and the
# oracle suite holds one check per window, in catalog order.
def test_every_problem_but_the_fence_has_an_oracle():
    assert ORACLES == [name for name in PROBLEMS if name != "fence"]
    names = [c.name for c in verify.SUITES["oracle"]()]
    assert names == [n.replace("-", "_") + "_vs_brute_force" for n in ORACLES] + [
        "closed_matches_numeric_all_problems"]


@pytest.mark.parametrize("name", ORACLES)
def test_oracle_window_contains_the_closed_unit_answer(name):
    coordinates, _, windows = _unit_oracle(name)
    assert len(windows) == len(coordinates)
    assert all(lo < x < hi for x, (lo, hi) in zip(coordinates, windows))


# The oracle evaluates the ends of each window: a can or box window from 0
# would raise ZeroDivisionError there.
@pytest.mark.parametrize("name", ORACLES)
def test_oracle_objective_is_finite_at_the_window_ends(name):
    _, objective, windows = _unit_oracle(name)
    for corner in itertools.product(*windows):
        assert math.isfinite(objective(*corner)), corner


# The check's tolerance stays under 8e-7 of each answer coordinate, so the
# mutation-matrix row "closed <problem> lengths * (1 + 8e-7)" stays caught.
@pytest.mark.parametrize("name", ORACLES)
def test_oracle_tolerance_is_under_8e_7_of_the_answer(name):
    coordinates, _, windows = _unit_oracle(name)
    tolerance = 4.0 * oracle.resolution(*windows[0])
    assert all(tolerance < 8e-7 * abs(x) for x in coordinates)


# The oracle scans the objective the solver's unit search minimizes, looked
# up in problems when the suite runs: moving its minimum fails the check.
def test_oracle_scans_the_solvers_own_objective(monkeypatch):
    problems.solve_rectangle_numeric(1.0)  # the unit search's cache stays as it is
    monkeypatch.setattr(problems, "_rectangle_objective", lambda x: (x - 1.0 / 3.0) ** 2)
    failed = [c.name for c in verify.SUITES["oracle"]() if not c.passed]
    assert failed == ["rectangle_vs_brute_force"]


# The oracle suite's brute-force evaluations, counted on the objectives it
# passes to oracle.brute_min, by number of axes.  Every round scans 21 nodes
# per axis until the cell reaches the interval's resolution: 8 rounds of
# 21x21 for the box and 8 rounds of 21 for each of the 5 1-D scans.
def test_oracle_suite_evaluation_count(monkeypatch):
    evaluations = Counter()
    brute_min = oracle.brute_min

    def counting_brute_min(f, *bounds):
        def counted(*args):
            evaluations[len(bounds)] += 1
            return f(*args)
        return brute_min(counted, *bounds)

    monkeypatch.setattr(oracle, "brute_min", counting_brute_min)
    assert all(check.passed for check in verify._suite_oracle())
    assert evaluations[2] == 3528
    assert sum(evaluations.values()) == 4368


# The one closed-vs-numeric check reads the worst gap over three sets: each
# catalog problem at size 1000 with its other inputs at their defaults, the
# ten fences of the half-split sweep and the can and can-dual at size 1
# on every verify base.
def test_closed_numeric_check_is_the_worst_over_its_three_sets():
    def worst_gap(solved):
        return max(residuals["closed_numeric_gap"] for _, residuals in solved)

    catalog = worst_gap(problem.solve(1000.0, *(spec.default for spec in problem.inputs[1:]))
                        for problem in PROBLEMS.values())
    fences = worst_gap(PROBLEMS["fence"].solve(fence, *layout)
                       for fence, layout in verify._random_fence_instances())
    cans = worst_gap(PROBLEMS[name].solve(1.0, base.sides or "circle")
                     for name in ("can", "can-dual") for base in verify.VERIFY_BASES)
    check, = (c for c in verify._suite_oracle()
              if c.name == "closed_matches_numeric_all_problems")
    assert check.residual == max(catalog, fences, cans)
    assert check.passed


# run concatenates the suites' results in SUITES order, reading each suite
# from SUITES when it runs, so a suite replaced in place is the one that runs.
def test_run_concatenates_the_suites_in_order(monkeypatch):
    def stub(name, count):
        return lambda: [verify.CheckResult(name, f"check_{k}", 0.0, 1.0) for k in range(count)]

    for i, name in enumerate(verify.SUITES):
        monkeypatch.setitem(verify.SUITES, name, stub(name, i % 3))
    assert verify.run() == [verify.CheckResult(name, f"check_{k}", 0.0, 1.0)
                            for i, name in enumerate(verify.SUITES) for k in range(i % 3)]


# An ellipse off the frontier is not tangent to the arc: the coincidence
# suite must catch a unit ellipse nudged off the numeric answer along either
# axis.
@pytest.mark.parametrize("a_scale, b_scale", [
    (1 - 1e-7, 1.0), (1 - 1e-3, 1.0), (1 + 1e-5, 1.0), (1.0, 1 + 1e-4), (1.0, 1 - 1e-6),
])
def test_coincidence_fails_an_ellipse_off_the_frontier(monkeypatch, a_scale, b_scale):
    unit = problems._solve_unit_ellipse_semicircle()
    nudged = problems._unit_ellipse(unit.a * a_scale, unit.b * b_scale)
    monkeypatch.setattr(problems, "_solve_unit_ellipse_semicircle", lambda: nudged)
    failed = [c.name for c in verify.SUITES["coincidence"]() if not c.passed]
    assert "ellipses_are_tangent" in failed


# Both unit ellipses, the searched one and the closed one, lie on the
# frontier so exactly that their largest squared distance from the center
# rounds to 1.
def test_ellipses_are_tangent_reads_exactly_zero():
    checks = {c.name: c for c in verify.SUITES["coincidence"]()}
    assert checks["ellipses_are_tangent"].residual == 0.0
    assert checks["ellipses_are_tangent"].passed
