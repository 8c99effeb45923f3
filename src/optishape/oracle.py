"""Brute-force grid search, the ground truth the clever solvers are checked
against.

Deliberately independent of the optimize module: nothing here brackets or
bisects, it just evaluates grids and re-grids around the incumbent.
``brute_min(f, grid, *grids)`` takes one grid per argument of f, on any
number of axes, and all of it is one loop of rounds under one rule: each
round scans 21 nodes per axis across one window per grid, over the product
of the axes' nodes, the first axis outermost.  Round zero's window is the
grid's [lo, hi]; each later one is the +/- one-cell neighborhood of the
best point, clipped to the grid, so the cell shrinks at least tenfold per
round.  A round's best point replaces the incumbent if its value is lower,
or equal at smaller coordinates (compared as a tuple).  Rounds repeat
while any axis's cell is larger than its grid's ``resolution``, which
``points`` sets.  The first round's cell is a twentieth of the grid, so a
well narrower than two such cells (a tenth of the grid) can be missed; the
catalog's objectives have none.
"""

import math
from types import MethodType
from typing import Callable, NamedTuple, Sequence

from .geometry import linspace

_NODES = 21


class EvaluationError(ValueError):
    """The objective returned a non-finite value."""


class _GridSpecFields(NamedTuple):
    lo: float
    hi: float
    points: int


class GridSpec(_GridSpecFields):
    """Search interval and target resolution.

    ``points``, an integer of at least 3, sets ``resolution``: the cell of
    a ``points``-node scan of [lo, hi], shrunk ``points``-fold once more.
    No round scans ``points`` nodes: ``brute_min`` re-grids 21-node
    windows, the first across all of [lo, hi], until the cell is at or
    below ``resolution``.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, points: int) -> "GridSpec":
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        if not (isinstance(points, int) and points >= 3):
            raise ValueError(f"need an integer of at least 3 grid points, got {points!r}")
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
        ``(hi - lo) / ((points - 1) * points)``."""
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


def brute_min(f: Callable[..., float], grid: GridSpec, *grids: GridSpec) -> tuple:
    """Exhaustive minimization of f over the product of the grids, one
    grid per argument of f, with refinement.

    Runs the rounds the module docstring describes: 21 nodes per axis in
    every round, across each grid's [lo, hi] first, then across windows
    around the incumbent (clipped to [lo, hi]) until each cell is at or
    below its grid's ``resolution``.  Returns (*argmin, value); ties break
    to the smallest coordinate tuple.  The argmin is accurate to each
    grid's resolution for any function whose global minimum the first
    round resolves.  A well narrower than two first-round cells (a tenth of
    the grid) can be missed; the catalog's objectives have none.
    """
    grids = (grid, *grids)
    # The scan raises on a non-finite value, so round zero always beats inf.
    best, windows = (math.inf,), [(g.lo, g.hi) for g in grids]
    while True:
        new = _scan(f, *(linspace(lo, hi, _NODES) for lo, hi in windows))
        if new[-1] < best[-1] or (new[-1] == best[-1] and new[:-1] < best[:-1]):
            best = new
        cells = [(hi - lo) / (_NODES - 1) for lo, hi in windows]
        if all(cell <= g.resolution for g, cell in zip(grids, cells)):
            return best
        windows = [(max(g.lo, x - cell), min(g.hi, x + cell))
                   for g, x, cell in zip(grids, best, cells)]
