"""Closed-form and numeric solvers for classic geometric optimization
problems, plus the machinery to verify their structural patterns.

The package namespace holds the catalog: its solvers, their inputs and
their results.  Every other name lives in its own module
(``optishape.oracle.brute_min``, ``optishape.optimize.golden_section_min``).
"""

from .geometry import Point2, Shape
from .problems import (
    BoxSolution,
    CanSolution,
    EllipseSolution,
    FenceLayout,
    FenceSolution,
    RectangleSolution,
    SemicircleRectSolution,
    fence_area_curve,
    solve_box,
    solve_box_numeric,
    solve_can,
    solve_can_dual,
    solve_can_dual_numeric,
    solve_can_numeric,
    solve_ellipse_semicircle,
    solve_ellipse_semicircle_numeric,
    solve_fence,
    solve_fence_numeric,
    solve_rect_semicircle,
    solve_rect_semicircle_numeric,
    solve_rectangle,
    solve_rectangle_numeric,
)

__version__ = "0.1.0"
