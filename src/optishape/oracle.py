"""Brute-force grid search, the ground truth the clever solvers are checked
against.

Deliberately independent of the optimize module: nothing here brackets or
bisects, it just evaluates dense grids and re-grids around the incumbent.
After the first (global) scan, each refinement round re-grids the +/- one-cell
neighborhood of the best point, clipped to the grid, with 21 nodes per axis,
so the cell shrinks at least tenfold per round.  A round's best point
replaces the incumbent if its value is lower, or equal at smaller
coordinates (compared as a tuple).  Rounds repeat while any axis's cell is
larger than its grid's ``resolution``.
"""

from __future__ import annotations

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

    The first scan evaluates ``points`` nodes across [lo, hi].  The
    refinement then re-grids 21-node windows, as many rounds as it takes to
    shrink the cell ``points``-fold once more, to ``resolution``.
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


def _refine(scan: Callable[..., tuple], grids: Sequence[GridSpec], best: tuple) -> tuple:
    """Refine the first scan's ``best`` = (*coordinates, value) on any number
    of axes, one grid per axis, as the module docstring describes."""
    cells = [(g.hi - g.lo) / (g.points - 1) for g in grids]
    while any(cell > g.resolution for g, cell in zip(grids, cells)):
        windows = [(max(g.lo, x - cell), min(g.hi, x + cell))
                   for g, x, cell in zip(grids, best, cells)]
        new = scan(*(linspace(lo, hi, _WINDOW_NODES) for lo, hi in windows))
        if new[-1] < best[-1] or (new[-1] == best[-1] and new[:-1] < best[:-1]):
            best = new
        cells = [(hi - lo) / (_WINDOW_NODES - 1) for lo, hi in windows]
    return best


def brute_min(f: Callable[[float], float], grid: GridSpec) -> tuple[float, float]:
    """Exhaustive minimization of f over the grid, with refinement.

    Scans ``grid.points`` nodes, then re-grids the +/- one-cell window around
    the incumbent (clipped to [lo, hi]) with 21 nodes while the cell is larger
    than ``grid.resolution``.  Returns (argmin, value).  The argmin is accurate
    to ``grid.resolution`` for any function whose global minimum the initial
    grid resolves.
    """
    best = _scan(f, linspace(grid.lo, grid.hi, grid.points))
    return _refine(lambda xs: _scan(f, xs), [grid], best)


def brute_min_2d(
    f: Callable[[float, float], float],
    grid_x: GridSpec,
    grid_y: GridSpec,
) -> tuple[float, float, float]:
    """Exhaustive 2D minimization with refinement around the incumbent.

    Refines both axes with 21 x 21 windows until each cell is at or below its
    grid's resolution.  Returns (x, y, value); ties break to the smallest x,
    then smallest y.
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

    xs = linspace(grid_x.lo, grid_x.hi, grid_x.points)
    ys = linspace(grid_y.lo, grid_y.hi, grid_y.points)
    return _refine(scan, [grid_x, grid_y], scan(xs, ys))
