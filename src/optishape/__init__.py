"""Closed-form and numeric solvers for classic geometric optimization
problems, plus the machinery to verify their structural patterns."""

from .geometry import (
    Point2,
    Shape,
    area,
    area_coefficient,
    perimeter,
    polygon_vertices,
    shoelace_area,
)
from .optimize import (
    BracketError,
    ConvergenceError,
    Solution1D,
    bisect_boundary,
    central_diff,
    golden_section_min,
)
from .oracle import EvaluationError, GridSpec, brute_min, brute_min_2d
from .problems import (
    BoxSolution,
    CanSolution,
    EllipseSolution,
    FenceLayout,
    FenceSolution,
    InfeasibleError,
    RectangleSolution,
    SemicircleRectSolution,
    containment_max,
    ellipse_fits,
    equivalence_ratio,
    fence_area_curve,
    intersect_ellipse_circle,
    max_a_for_b,
    rescale_ellipse,
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
