import math

import pytest

from optishape import problems, verify
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


def test_every_suite_returns_a_list():
    for suite in verify.SUITES.values():
        assert type(suite()) is list


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


def test_unknown_suite_lists_the_suites():
    listed = ", ".join(verify.SUITES)
    with pytest.raises(ValueError, match=f"unknown suite 'nope'; choose from {listed}$"):
        verify.run(["nope"])


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
