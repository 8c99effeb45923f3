"""Scalar minimization and bracketing utilities.

Golden-section search for unimodal objectives, boundary bisection for
monotone predicates and central differences.  Everything is deterministic:
identical inputs produce the same Solution1D, bit for bit.
"""

import math
from typing import Callable, NamedTuple

# 1/phi, the bracket shrink factor per golden-section iteration.
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_MAX_ITER = 500


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration cap before converging."""


class BracketError(ValueError):
    """A bracketing precondition does not hold."""


class Solution1D(NamedTuple):
    """Result of a 1D search; ``argmin`` holds the optimizer's argument."""

    argmin: float
    value: float
    evaluations: int
    achieved_interval: float


def _check_bracket(lo: float, hi: float) -> None:
    if lo >= hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")


def golden_section_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
) -> Solution1D:
    """Minimize a unimodal function on [lo, hi] by golden-section search.

    Args:
        f: objective; unimodality on the bracket is the caller's duty.
        lo, hi: bracket endpoints, lo < hi.  Only interior points are evaluated.
        tol: absolute tolerance on the argument; the final bracket width.
            Needing more than DEFAULT_MAX_ITER iterations raises
            ConvergenceError.

    Returns:
        Solution1D with the bracket midpoint as argmin.  On exact ties the
        lower-argument side of the bracket is kept, so results are
        deterministic.
    """
    _check_bracket(lo, hi)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    c = hi - (hi - lo) * INV_PHI
    d = lo + (hi - lo) * INV_PHI
    fc = f(c)
    fd = f(d)
    iterations = 0
    while hi - lo > tol:
        iterations += 1
        if iterations > DEFAULT_MAX_ITER:
            raise ConvergenceError(
                f"no convergence to tol={tol} within {DEFAULT_MAX_ITER} iterations "
                f"(bracket width {hi - lo})"
            )
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
    # f ran at the two first probes, once per iteration, and at x.
    return Solution1D(x, f(x), iterations + 3, hi - lo)


def bisect_boundary(pred: Callable[[float], bool], lo: float, hi: float) -> float:
    """Locate the true/false boundary of a monotone predicate.

    Requires pred(lo) true and pred(hi) false.  Bisects until the bracket
    spans adjacent floats, the last x with pred(x) true and the first with
    it false, and returns their midpoint; it rounds to one of the two.
    """
    _check_bracket(lo, hi)
    if not pred(lo):
        raise BracketError(f"pred({lo}) must be true at the lower end")
    if pred(hi):
        raise BracketError(f"pred({hi}) must be false at the upper end")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if pred(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def central_diff(f: Callable[[float], float], x: float, h: float) -> float:
    """Central finite-difference estimate of f'(x) with step h > 0."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    return (f(x + h) - f(x - h)) / (2.0 * h)
