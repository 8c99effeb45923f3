"""Every result and value type is an immutable named tuple with a fixed
field layout."""

import pytest

from optishape import geometry, optimize, oracle, problems
from optishape.geometry import Point2, Shape
from optishape.optimize import golden_section_min
from optishape.oracle import GridSpec
from optishape.problems import FenceLayout, solve_can, solve_ellipse_semicircle, solve_fence
from optishape.verify import CheckResult

# An instance of each checked value type and of the search, fence, can,
# ellipse and check results, with one of its fields.
INSTANCES = {
    "Shape": (Shape.regular_polygon(6), "sides"),
    "Point2": (Point2(1.0, 2.0), "x"),
    "Solution1D": (golden_section_min(lambda x: (x - 1.0) ** 2, 0.0, 2.0, tol=1e-10), "argmin"),
    "GridSpec": (GridSpec(0.0, 1.0, 101), "points"),
    "FenceLayout": (FenceLayout(4, 2), "v_segments"),
    "FenceSolution": (solve_fence(2400.0, FenceLayout(4, 2)), "area"),
    "CanSolution": (solve_can(1000.0, Shape.circle()), "r"),
    "EllipseSolution": (solve_ellipse_semicircle(), "contacts"),
    "CheckResult": (CheckResult("suite", "name", 0.0, 1.0), "tolerance"),
}

# Field names in order, and defaults, of every record in the layer modules.
LAYOUTS = {
    "Shape": (("sides",), {"sides": None}),
    "Point2": (("x", "y"), {}),
    "Solution1D": (("argmin", "value", "evaluations", "achieved_interval"), {}),
    "GridSpec": (("lo", "hi", "points"), {}),
    "FenceLayout": (("v_segments", "h_segments"), {}),
    "FenceSolution": (("x", "y", "vertical_total", "horizontal_total", "area"), {}),
    "CanSolution": (("r", "h", "surface_area", "volume"), {}),
    "EllipseSolution": (("a", "b", "area", "contacts"), {}),
    "RectangleSolution": (("x", "y", "area"), {}),
    "BoxSolution": (("x", "y", "z", "surface_area"), {}),
    "SemicircleRectSolution": (("x", "y", "area"), {}),
}


@pytest.mark.parametrize("name", list(INSTANCES))
def test_fields_cannot_be_assigned(name):
    record, field = INSTANCES[name]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):  # no instance __dict__ either
        record.note = "x"


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_field_layout(name):
    # Looked up on the layer modules, where each is one object however many
    # modules import it: the package exports only the catalog's records.
    (record,) = {getattr(m, name) for m in (geometry, optimize, oracle, problems)
                 if hasattr(m, name)}
    fields, defaults = LAYOUTS[name]
    assert record._fields == fields
    assert record._field_defaults == defaults


def test_checked_records_validate_keyword_arguments():
    assert GridSpec(lo=0.0, hi=2.0, points=101) == (0.0, 2.0, 101)
    with pytest.raises(ValueError, match="need lo < hi"):
        GridSpec(lo=1.0, hi=1.0, points=101)
    with pytest.raises(ValueError, match="at least 2 runs"):
        FenceLayout(v_segments=4, h_segments=1)
    with pytest.raises(ValueError, match="coordinates must be finite"):
        Point2(x=0.0, y=float("nan"))
    assert Shape(sides=6) == Shape.regular_polygon(6)
    with pytest.raises(ValueError, match="sides >= 3"):
        Shape(sides=2)
