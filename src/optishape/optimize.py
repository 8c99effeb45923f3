"""Scalar minimization and bracketing utilities.

Golden-section search for unimodal objectives, boundary bisection for
monotone predicates and central differences.  Everything is deterministic:
identical inputs produce the same Solution1D, bit for bit.
"""

import math
from typing import Callable, NamedTuple

# 1/phi, the bracket shrink factor per golden-section iteration.
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# The square root of the float epsilon.  Near a smooth minimum f moves with
# the square of the step, so its values tell arguments apart only to about
# this relative width (Brent 1973; Numerical Recipes 10.1).
RESOLUTION = 2.0 ** -26


class Solution1D(NamedTuple):
    """Result of a 1D search; ``argmin`` holds the optimizer's argument."""

    argmin: float
    value: float
    evaluations: int
    achieved_interval: float


def _check_bracket(lo: float, hi: float) -> None:
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")


def golden_section_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
) -> Solution1D:
    """Minimize a unimodal function on [lo, hi] by golden-section search.

    Args:
        f: objective; unimodality on the bracket is the caller's duty.
        lo, hi: finite bracket endpoints, lo < hi.  Only interior points are
            evaluated.

    The search stops once the bracket is at most RESOLUTION times its
    larger end in magnitude, or once two fresh probes no longer lie strictly
    inside it in order.  Probes that cross before then are drawn afresh, at
    two more evaluations.  Each iteration strictly shrinks the bracket, so
    it ends.

    Returns:
        Solution1D with the bracket midpoint as argmin.  On exact ties the
        lower-argument side of the bracket is kept, so results are
        deterministic.
    """
    _check_bracket(lo, hi)
    c = d = lo  # out of order, so the loop draws the first two probes
    evaluations = 1  # f runs at the returned x
    # With lo < hi, the larger end in magnitude is hi or -lo.  A conditional
    # picks it: max() and abs() calls cost more than the evaluations saved.
    while hi - lo > RESOLUTION * (hi if hi > -lo else -lo):
        # A reused probe keeps its rounding error while the bracket shrinks,
        # so on a bracket near 0 the probes can cross; draw both afresh.
        if not lo < c < d < hi:
            c, d = hi - (hi - lo) * INV_PHI, lo + (hi - lo) * INV_PHI
            if not lo < c < d < hi:
                break
            fc, fd, evaluations = f(c), f(d), evaluations + 2
        evaluations += 1
        if fc <= fd:
            hi = d
            d = c
            fd = fc
            c = hi - (hi - lo) * INV_PHI
            fc = f(c)
        else:
            lo = c
            c = d
            fc = fd
            d = lo + (hi - lo) * INV_PHI
            fd = f(d)
    x = 0.5 * (lo + hi)
    return Solution1D(x, f(x), evaluations, hi - lo)


def bisect_boundary(pred: Callable[[float], bool], lo: float, hi: float) -> float:
    """Locate the true/false boundary of a monotone predicate.

    Requires finite lo < hi, pred(lo) true and pred(hi) false, and raises
    ValueError otherwise.  Bisects until the bracket spans adjacent floats,
    the last x with pred(x) true and the first with it false, and returns
    the last argument where the predicate holds.
    """
    _check_bracket(lo, hi)
    if not pred(lo):
        raise ValueError(f"pred({lo}) must be true at the lower end")
    if pred(hi):
        raise ValueError(f"pred({hi}) must be false at the upper end")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if pred(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo


def central_diff(f: Callable[[float], float], x: float, h: float) -> float:
    """Central finite-difference estimate of f'(x) with step h > 0."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    return (f(x + h) - f(x - h)) / (2.0 * h)
