import math

import pytest

from optishape import verify


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
