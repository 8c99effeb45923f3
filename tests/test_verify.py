import math
from collections import Counter

import pytest

from optishape import oracle, problems, verify
from optishape.geometry import Shape
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


# The equivalence check solves the prism on its own base, so a solve_can that
# ignores the base fails it, as it fails the per-base closed-vs-numeric gap,
# the duality round trip and the hexagon's brute-force scan; h = 2r holds on
# any one base, so the h = 2r checks pass.
def test_a_can_solved_on_the_wrong_base_fails_equivalence(monkeypatch):
    solve_can = problems.solve_can
    monkeypatch.setattr(problems, "solve_can", lambda volume, base: solve_can(volume, Shape()))
    failed = [c.name for c in verify.run() if not c.passed]
    assert failed == ["closed_matches_numeric_every_base", "volume_round_trip",
                      "prism_optimum_is_the_cans", "can_hexagon_vs_brute_force"]


# The oracle suite solves one instance of every catalog problem.
def test_oracle_instances_cover_the_catalog():
    assert list(verify._oracle_instances()) == list(PROBLEMS)


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_problem_missing_from_the_oracle_fails_loudly(monkeypatch, name):
    instances = verify._oracle_instances
    monkeypatch.setattr(verify, "_oracle_instances",
                        lambda: {k: v for k, v in instances().items() if k != name})
    with pytest.raises(KeyError, match=name):
        verify.run(["oracle"])


# The oracle scans the objective the solver's unit search minimizes, looked
# up in problems when the suite runs: moving its minimum fails the check.
def test_oracle_scans_the_solvers_own_objective(monkeypatch):
    problems.solve_rectangle_numeric(1.0)  # the unit search's cache stays as it is
    monkeypatch.setattr(problems, "_rectangle_objective",
                        lambda perimeter: lambda x: (x - perimeter / 3.0) ** 2)
    failed = [c.name for c in verify.run(["oracle"]) if not c.passed]
    assert failed == ["rectangle_vs_brute_force"]


# The oracle suite's brute-force evaluations, counted on the objectives it
# passes to oracle.brute_min, by number of axes.  Every round scans 21 nodes
# per axis until the cell reaches the interval's resolution: 8 rounds of
# 21x21 for the box and 8 rounds of 21 for each of the 8 1-D scans.
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
    assert sum(evaluations.values()) == 4872


def test_unknown_suite_lists_the_suites():
    listed = ", ".join(verify.SUITES)
    with pytest.raises(ValueError, match=f"unknown suite 'nope'; choose from {listed}$"):
        verify.run(["nope"])


def test_every_name_is_checked_before_any_suite_runs(monkeypatch):
    calls = []
    monkeypatch.setitem(verify.SUITES, "h2r", lambda: calls.append("h2r") or [])
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        verify.run(["h2r", "bogus"])
    assert calls == []


# The ellipse's contacts are taken from its tangency, so an ellipse off the
# frontier gets arc points that miss it: the coincidence suite must catch a
# unit ellipse nudged off the numeric answer along either axis.
@pytest.mark.parametrize("a_scale, b_scale", [
    (1 - 1e-7, 1.0), (1 - 1e-3, 1.0), (1 + 1e-5, 1.0), (1.0, 1 + 1e-4), (1.0, 1 - 1e-6),
])
def test_coincidence_fails_an_ellipse_off_the_frontier(monkeypatch, a_scale, b_scale):
    unit = problems._solve_unit_ellipse_semicircle()
    nudged = problems._unit_ellipse(unit.a * a_scale, unit.b * b_scale)
    monkeypatch.setattr(problems, "_solve_unit_ellipse_semicircle", lambda: nudged)
    failed = [c.name for c in verify.run(["coincidence"]) if not c.passed]
    assert "contacts_on_ellipse" in failed
