"""Every result and value type is an immutable named tuple with a fixed
field layout."""

from typing import ForwardRef

import pytest

from optishape import geometry, optimize, oracle, problems, verify
from optishape.geometry import Point2, Shape
from optishape.optimize import golden_section_min
from optishape.problems import FenceLayout, solve_can, solve_ellipse_semicircle, solve_fence
from optishape.verify import CheckResult

# An instance of each checked value type and of the search, fence, can,
# ellipse and check results, with one of its fields.
INSTANCES = {
    "Shape": (Shape(6), "sides"),
    "Point2": (Point2(1.0, 2.0), "x"),
    "Solution1D": (golden_section_min(lambda x: (x - 1.0) ** 2, 0.0, 2.0), "argmin"),
    "FenceLayout": (FenceLayout(4, 2), "v_segments"),
    "FenceSolution": (solve_fence(2400.0, FenceLayout(4, 2)), "area"),
    "CanSolution": (solve_can(1000.0, Shape()), "r"),
    "EllipseSolution": (solve_ellipse_semicircle(), "contacts"),
    "CheckResult": (CheckResult("suite", "name", 0.0, 1.0), "tolerance"),
}

# Field names in order, and defaults, of every record in the layer modules
# but `Problem`, whose one default is a function.
LAYOUTS = {
    "Shape": (("sides",), {"sides": None}),
    "Point2": (("x", "y"), {}),
    "Solution1D": (("argmin", "value", "evaluations", "achieved_interval"), {}),
    "FenceLayout": (("v_segments", "h_segments"), {}),
    "FenceSolution": (("x", "y", "vertical_total", "horizontal_total", "area"), {}),
    "CanSolution": (("r", "h", "surface_area", "volume"), {}),
    "EllipseSolution": (("a", "b", "area", "contacts"), {}),
    "RectangleSolution": (("x", "y", "area"), {}),
    "BoxSolution": (("x", "y", "z", "surface_area"), {}),
    "SemicircleRectSolution": (("x", "y", "area"), {}),
    "Input": (("flag", "key", "type", "default", "help"), {"default": None, "help": None}),
    "CheckResult": (("suite", "name", "residual", "tolerance"), {}),
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
    (record,) = {getattr(m, name) for m in (geometry, optimize, oracle, problems, verify)
                 if hasattr(m, name)}
    fields, defaults = LAYOUTS[name]
    assert record._fields == fields
    assert record._field_defaults == defaults
    # Evaluated where they are written, not kept as strings for typing to
    # resolve later.
    annotations = next(vars(c)["__annotations__"] for c in record.__mro__ if "_fields" in vars(c))
    assert list(annotations) == list(fields)
    assert not any(isinstance(a, (str, ForwardRef)) for a in annotations.values())


def test_checked_records_validate_keyword_arguments():
    with pytest.raises(ValueError, match="at least 2 runs"):
        FenceLayout(v_segments=4, h_segments=1)
    with pytest.raises(ValueError, match="coordinates must be finite"):
        Point2(x=0.0, y=float("nan"))
    assert Shape(sides=6) == Shape.regular_polygon(6)
    with pytest.raises(ValueError, match="sides >= 3"):
        Shape(sides=2)


# A count is divided by or into floats, so the records refuse one that is
# not an int, or is too large for a float, as the CLI's parser does.
@pytest.mark.parametrize("make, message", [
    (lambda: Shape(float("nan")), "sides must be an int, got nan"),
    (lambda: Shape(3.5), "sides must be an int, got 3.5"),
    (lambda: Shape(10**400), "sides does not fit in a float: 1329 bits"),
    (lambda: FenceLayout(2.5, 2), "v_segments must be an int, got 2.5"),
    (lambda: FenceLayout(10**400, 2), "v_segments does not fit in a float: 1329 bits"),
    (lambda: FenceLayout(2, -(10**400)), "h_segments does not fit in a float: 1329 bits"),
], ids=["nan sides", "fractional sides", "huge sides", "fractional v", "huge v", "huge negative h"])
def test_counts_are_ints_that_fit_in_a_float(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
