"""Brute-force grid search, the ground truth the clever solvers are checked
against.

Deliberately independent of the optimize module: nothing here brackets or
bisects, it just evaluates dense grids and re-grids around the incumbent.
All of it is one loop of rounds.  Round zero is the global scan, ``points``
nodes across each grid's [lo, hi]; each later round re-grids the +/- one-cell
neighborhood of the best point, clipped to the grid, with 21 nodes per axis,
so the cell shrinks at least tenfold per round.  A round's best point
replaces the incumbent if its value is lower, or equal at smaller
coordinates (compared as a tuple).  Rounds repeat while any axis's cell is
larger than its grid's ``resolution``.
"""

import math
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


def _scan(f: Callable[[float], float], xs: Sequence[float]) -> tuple[float, float]:
    """Best (x, f(x)) over the nodes; first minimum wins, so ties break to
    the smallest argument."""
    best_x = 0.0
    best_y = math.inf
    for x in xs:
        y = float(f(x))
        if not math.isfinite(y):
            raise EvaluationError(f"objective returned {y!r} at x={x!r}")
        if y < best_y:
            best_x, best_y = x, y
    return best_x, best_y


def _refine(scan: Callable[..., tuple], grids: Sequence[GridSpec]) -> tuple:
    """Best (*coordinates, value) on any number of axes, one grid per axis,
    as the module docstring describes: round zero scans each grid's
    ``points`` nodes across [lo, hi], and every later round its window."""
    # Scans raise on a non-finite value, so round zero always beats inf.
    best, windows = (math.inf,), [(g.lo, g.hi, g.points) for g in grids]
    while True:
        new = scan(*(linspace(*window) for window in windows))
        if new[-1] < best[-1] or (new[-1] == best[-1] and new[:-1] < best[:-1]):
            best = new
        cells = [(hi - lo) / (n - 1) for lo, hi, n in windows]
        if all(cell <= g.resolution for g, cell in zip(grids, cells)):
            return best
        windows = [(max(g.lo, x - cell), min(g.hi, x + cell), _WINDOW_NODES)
                   for g, x, cell in zip(grids, best, cells)]


def brute_min(f: Callable[[float], float], grid: GridSpec) -> tuple[float, float]:
    """Exhaustive minimization of f over the grid, with refinement.

    Supplies the scan of one axis to the rounds the module docstring
    describes: ``grid.points`` nodes first, then 21-node windows around the
    incumbent (clipped to [lo, hi]) while the cell is larger than
    ``grid.resolution``.  Returns (argmin, value).  The argmin is accurate
    to ``grid.resolution`` for any function whose global minimum the first
    scan resolves.
    """
    return _refine(lambda xs: _scan(f, xs), [grid])


def brute_min_2d(
    f: Callable[[float, float], float],
    grid_x: GridSpec,
    grid_y: GridSpec,
) -> tuple[float, float, float]:
    """Exhaustive 2D minimization with refinement around the incumbent.

    Supplies the scan of the x-by-y node product to the same rounds: each
    grid's ``points`` nodes first, then 21 x 21 windows until each cell is
    at or below its grid's resolution.  Returns (x, y, value); ties break to
    the smallest x, then smallest y.
    """
    def scan(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
        best = (0.0, 0.0, math.inf)
        for x in xs:
            for y in ys:
                v = float(f(x, y))
                if not math.isfinite(v):
                    raise EvaluationError(f"objective returned {v!r} at ({x!r}, {y!r})")
                if v < best[2]:
                    best = (x, y, v)
        return best

    return _refine(scan, [grid_x, grid_y])
