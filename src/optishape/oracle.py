"""Brute-force grid search, the ground truth the clever solvers are checked
against.

Deliberately independent of the optimize module: nothing here brackets or
bisects, it just evaluates dense grids and re-grids around the incumbent.
After the first (global) scan, each refinement round re-grids the +/- one-cell
neighborhood of the best point with 21 nodes per axis, so the cell shrinks at
least tenfold per round.  Rounds repeat until the cell is at or below the
grid's ``resolution``.
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
    points: int = 100_000
    refine_rounds: int = 2


class GridSpec(_GridSpecFields):
    """Search interval, first-scan density and target resolution.

    The first scan evaluates ``points`` nodes across [lo, hi].
    ``refine_rounds`` only sets the target ``resolution``: the cell that
    ``refine_rounds`` rounds of ``points``-fold shrinking would reach.  The
    refinement itself uses 21-node windows, as many rounds as it takes to
    get there.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "GridSpec":
        self = super().__new__(cls, *args, **kwargs)
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.points < 3:
            raise ValueError(f"need at least 3 grid points, got {self.points}")
        if self.refine_rounds < 0:
            raise ValueError(f"refine_rounds must be >= 0, got {self.refine_rounds}")
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
        """Final cell size the refinement reaches, at most.

        Equals ``(hi - lo) / ((points - 1) * points**refine_rounds)``, which
        stays below twice ``(hi - lo) / points**(refine_rounds + 1)``.
        """
        return (self.hi - self.lo) / ((self.points - 1) * self.points**self.refine_rounds)


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


def brute_min(f: Callable[[float], float], grid: GridSpec) -> tuple[float, float]:
    """Exhaustive minimization of f over the grid, with refinement.

    Scans ``grid.points`` nodes, then re-grids the +/- one-cell window around
    the incumbent (clipped to [lo, hi]) with 21 nodes while the cell is larger
    than ``grid.resolution``.  Returns (argmin, value).  The argmin is accurate
    to ``grid.resolution`` for any function whose global minimum the initial
    grid resolves.
    """
    xs = linspace(grid.lo, grid.hi, grid.points)
    best_x, best_y = _scan(f, xs)
    cell = (grid.hi - grid.lo) / (grid.points - 1)
    resolution = grid.resolution
    while cell > resolution:
        window_lo = max(grid.lo, best_x - cell)
        window_hi = min(grid.hi, best_x + cell)
        x, y = _scan(f, linspace(window_lo, window_hi, _WINDOW_NODES))
        if y < best_y or (y == best_y and x < best_x):
            best_x, best_y = x, y
        cell = (window_hi - window_lo) / (_WINDOW_NODES - 1)
    return best_x, best_y


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
    best_x, best_y, best_v = scan(xs, ys)
    cell_x = (grid_x.hi - grid_x.lo) / (grid_x.points - 1)
    cell_y = (grid_y.hi - grid_y.lo) / (grid_y.points - 1)
    resolution_x, resolution_y = grid_x.resolution, grid_y.resolution
    while cell_x > resolution_x or cell_y > resolution_y:
        wx_lo = max(grid_x.lo, best_x - cell_x)
        wx_hi = min(grid_x.hi, best_x + cell_x)
        wy_lo = max(grid_y.lo, best_y - cell_y)
        wy_hi = min(grid_y.hi, best_y + cell_y)
        x, y, v = scan(
            linspace(wx_lo, wx_hi, _WINDOW_NODES),
            linspace(wy_lo, wy_hi, _WINDOW_NODES),
        )
        if v < best_v or (v == best_v and (x, y) < (best_x, best_y)):
            best_x, best_y, best_v = x, y, v
        cell_x = (wx_hi - wx_lo) / (_WINDOW_NODES - 1)
        cell_y = (wy_hi - wy_lo) / (_WINDOW_NODES - 1)
    return best_x, best_y, best_v
