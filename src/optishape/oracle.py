"""Brute-force grid search, the ground truth the clever solvers are checked
against.

Deliberately independent of the optimize module: nothing here brackets or
bisects, it just evaluates grids and re-grids around the incumbent.
``brute_min(f, grid, *grids)`` takes one grid per argument of f, on any
number of axes, and all of it is one loop of rounds.  Each round scans the
product of the axes' nodes, the first axis outermost.  Round zero is the
global scan, ``scan`` nodes (``points`` when ``scan`` is None) across each
grid's [lo, hi]; each later round re-grids the +/- one-cell neighborhood of
the best point, clipped to the grid, with 21 nodes per axis, so the cell
shrinks at least tenfold per round.  A round's best point replaces the
incumbent if its value is lower, or equal at smaller coordinates (compared
as a tuple).  Rounds repeat while any axis's cell is larger than its grid's
``resolution``, which ``points`` alone sets.  So the first scan's density
and the target resolution are set apart: a coarse first scan reaches the
same resolution in a few more rounds.
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
    scan: int | None = None


class GridSpec(_GridSpecFields):
    """Search interval, target resolution and first-scan density.

    ``points`` sets ``resolution``: the cell of a ``points``-node scan of
    [lo, hi], shrunk ``points``-fold once more.  Round zero, the first
    scan, evaluates ``scan`` nodes across [lo, hi], or ``points`` when
    ``scan`` is None; the later rounds re-grid 21-node windows until the
    cell is at or below ``resolution``.  A well narrower than a first-scan
    cell can be missed, so ``scan`` suits objectives that are unimodal on
    the grid, as the catalog's are.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, points: int, scan: int | None = None) -> "GridSpec":
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        for nodes in (points, points if scan is None else scan):
            if nodes < 3:
                raise ValueError(f"need at least 3 grid points, got {nodes}")
        self = super().__new__(cls, lo, hi, points, scan)
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
        ``(hi - lo) / ((points - 1) * points)``, whatever ``scan`` is."""
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

    Runs the rounds the module docstring describes: each grid's ``scan``
    nodes first (``points`` when ``scan`` is None), then 21-node windows
    per axis around the incumbent (clipped to [lo, hi]) until each cell is
    at or below its grid's ``resolution``.  Returns (*argmin, value); ties
    break to the smallest coordinate tuple.  The argmin is accurate to each
    grid's resolution for any function whose global minimum the first scan
    resolves.  A well narrower than a first-scan cell can be missed; the
    catalog's objectives are unimodal on their grids, so none has one.
    """
    grids = (grid, *grids)
    # The scan raises on a non-finite value, so round zero always beats inf.
    best, windows = (math.inf,), [(g.lo, g.hi, g.scan or g.points) for g in grids]
    while True:
        new = _scan(f, *(linspace(*window) for window in windows))
        if new[-1] < best[-1] or (new[-1] == best[-1] and new[:-1] < best[:-1]):
            best = new
        cells = [(hi - lo) / (n - 1) for lo, hi, n in windows]
        if all(cell <= g.resolution for g, cell in zip(grids, cells)):
            return best
        windows = [(max(g.lo, x - cell), min(g.hi, x + cell), _WINDOW_NODES)
                   for g, x, cell in zip(grids, best, cells)]
