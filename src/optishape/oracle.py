"""Brute-force grid search, the ground truth the clever solvers are checked
against.

Deliberately independent of the optimize module: nothing here brackets or
bisects, it just evaluates dense grids and re-grids around the incumbent.
``brute_min(f, *grids)`` takes one grid per argument of f, on any number of
axes, and all of it is one loop of rounds.  Each round scans the product of
the axes' nodes, the first axis outermost.  Round zero is the global scan,
``points`` nodes across each grid's [lo, hi]; each later round re-grids the
+/- one-cell neighborhood of the best point, clipped to the grid, with 21
nodes per axis, so the cell shrinks at least tenfold per round.  A round's
best point replaces the incumbent if its value is lower, or equal at smaller
coordinates (compared as a tuple).  Rounds repeat while any axis's cell is
larger than its grid's ``resolution``.
"""

import math
from types import MethodType
from typing import Callable, NamedTuple, Sequence

from .geometry import linspace

_WINDOW_NODES = 21


class EvaluationError(ValueError):
    """The objective returned a non-finite value."""


class _GridSpecFields(NamedTuple):
    lo: float
    hi: float
    points: int


class GridSpec(_GridSpecFields):
    """Search interval, first-scan density and target resolution.

    Round zero, the first scan, evaluates ``points`` nodes across [lo, hi].
    The later rounds re-grid 21-node windows, as many as it takes to shrink
    the cell ``points``-fold once more, to ``resolution``.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, points: int) -> "GridSpec":
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        if points < 3:
            raise ValueError(f"need at least 3 grid points, got {points}")
        self = super().__new__(cls, lo, hi, points)
        try:
            resolution = self.resolution
        except OverflowError:  # the node count is past the float range
            resolution = 0.0
        # refinement runs until the cell is at or below the resolution
        if not 0.0 < resolution < math.inf:
            raise ValueError(f"need a positive finite resolution, got {resolution!r}")
        return self

    @property
    def resolution(self) -> float:
        """Final cell size the refinement reaches, at most:
        ``(hi - lo) / ((points - 1) * points)``, the first scan's cell
        shrunk ``points``-fold."""
        return (self.hi - self.lo) / ((self.points - 1) * self.points)


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
            raise EvaluationError(f"objective returned {y!r} at {(*at, x)}")
        if y < best_y:
            best_x, best_y = x, y
    return best_x, best_y


def brute_min(f: Callable[..., float], *grids: GridSpec) -> tuple:
    """Exhaustive minimization of f over the product of the grids, one
    grid per argument of f, with refinement.

    Runs the rounds the module docstring describes: each grid's ``points``
    nodes first, then 21-node windows per axis around the incumbent
    (clipped to [lo, hi]) until each cell is at or below its grid's
    ``resolution``.  Returns (*argmin, value); ties break to the smallest
    coordinate tuple.  The argmin is accurate to each grid's resolution for
    any function whose global minimum the first scan resolves.
    """
    # The scan raises on a non-finite value, so round zero always beats inf.
    best, windows = (math.inf,), [(g.lo, g.hi, g.points) for g in grids]
    while True:
        new = _scan(f, *(linspace(*window) for window in windows))
        if new[-1] < best[-1] or (new[-1] == best[-1] and new[:-1] < best[:-1]):
            best = new
        cells = [(hi - lo) / (n - 1) for lo, hi, n in windows]
        if all(cell <= g.resolution for g, cell in zip(grids, cells)):
            return best
        windows = [(max(g.lo, x - cell), min(g.hi, x + cell), _WINDOW_NODES)
                   for g, x, cell in zip(grids, best, cells)]
