"""Brute-force grid search, the ground truth the clever solvers are checked
against.

Deliberately independent of the optimize module: nothing here brackets or
bisects, it just evaluates grids and re-grids around the incumbent.
``brute_min(f, bounds, *bounds)`` takes one ``(lo, hi)`` pair per argument
of f, on any number of axes, and all of it is one loop of rounds under one
rule: each round scans 21 nodes per axis across one window per axis, over
the product of the axes' nodes, the first axis outermost.  Round zero's
window is [lo, hi]; each later one is the +/- one-cell neighborhood of the
best point, clipped to [lo, hi], so the cell shrinks at least tenfold per
round.  A round's best point replaces the incumbent if its value is lower,
or equal at smaller coordinates (compared as a tuple).  Rounds repeat
while any axis's cell is larger than its ``resolution(lo, hi)``.  The
first round's cell is a twentieth of [lo, hi], so a well narrower than two
such cells (a tenth of the interval) can be missed; the catalog's
objectives have none.
"""

import math
from types import MethodType
from typing import Callable, Sequence

from .geometry import linspace

_NODES = 21
# The depth the oracle suite's 5001-point grids were refined to (their cell
# shrunk 5001-fold once more), so the tolerances built on it keep their bytes.
_DIVISOR = 5000 * 5001


def resolution(lo: float, hi: float) -> float:
    """Final cell size brute_min refines [lo, hi] to, at most.  Raises
    ValueError unless lo < hi and the cell is a positive finite float."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not 0.0 < (cell := (hi - lo) / _DIVISOR) < math.inf:
        raise ValueError(f"need a positive finite resolution, got {cell!r}")
    return cell


def _scan(f: Callable[..., float], xs: Sequence[float], *rest: Sequence[float],
          at: tuple = ()) -> tuple:
    """Best (*coordinates, value) over the product of the node lists, the
    first axis outermost; the first minimum wins, so ties break to the
    smallest coordinate tuple.  Each further axis is scanned on f with x
    bound as its first argument; ``at`` holds the bound coordinates, for
    the error message."""
    if rest:
        best = (math.inf,)
        for x in xs:
            new = (x, *_scan(MethodType(f, x), *rest, at=(*at, x)))
            if new[-1] < best[-1]:
                best = new
        return best
    best_x, best_y = 0.0, math.inf
    for x in xs:
        y = float(f(x))
        if not math.isfinite(y):
            raise ValueError(f"objective returned {y!r} at {(*at, x)}")
        if y < best_y:
            best_x, best_y = x, y
    return best_x, best_y


def brute_min(f: Callable[..., float], bounds: tuple, *more: tuple) -> tuple:
    """Exhaustive minimization of f over the product of the intervals, one
    ``(lo, hi)`` pair per argument of f, with refinement.

    Runs the rounds the module docstring describes: 21 nodes per axis in
    every round, across each [lo, hi] first, then across windows around the
    incumbent (clipped to [lo, hi]) until each cell is at or below its
    ``resolution(lo, hi)``, which checks every pair before f is first
    called.  Returns (*argmin, value); ties break to the smallest coordinate
    tuple.  The argmin is accurate to each axis's resolution for any
    function whose global minimum the first round resolves.  A well
    narrower than two first-round cells (a tenth of the interval) can be
    missed; the catalog's objectives have none.
    """
    bounds = (bounds, *more)
    targets = [resolution(lo, hi) for lo, hi in bounds]
    # The scan raises on a non-finite value, so round zero always beats inf.
    best, windows = (math.inf,), bounds
    while True:
        new = _scan(f, *(linspace(lo, hi, _NODES) for lo, hi in windows))
        if new[-1] < best[-1] or (new[-1] == best[-1] and new[:-1] < best[:-1]):
            best = new
        cells = [(hi - lo) / (_NODES - 1) for lo, hi in windows]
        if all(cell <= target for cell, target in zip(cells, targets)):
            return best
        windows = [(max(lo, x - cell), min(hi, x + cell))
                   for (lo, hi), x, cell in zip(bounds, best, cells)]
