"""Shape algebra for circles and regular polygons parameterized by inradius.

Every supported shape has area ``c * r**2`` and perimeter ``2 * c * r`` for
a single shape-dependent coefficient ``c`` (``pi`` for the circle,
``n * tan(pi/n)`` for the regular n-gon), where ``r`` is the inradius, i.e.
the apothem of the polygon.  That shared structure is what makes the prism
and can problems interchangeable.

Also home to ``linspace``, the evenly spaced sample grid shared by the fence
curve and the brute-force oracle.
"""

import math
import sys
from typing import NamedTuple, Sequence


def _count(count: int, what: str) -> int:
    """``count``, if it is an int that float() converts: every formula
    divides a count by or into floats.  The CLI parses a count with ``int``
    alone, so this is its check too."""
    if not isinstance(count, int):
        raise ValueError(f"{what} must be an int, got {count!r}")
    try:
        float(count)
    except OverflowError:
        raise ValueError(f"{what} does not fit in a float: {count.bit_length()} bits") from None
    return count


class _ShapeFields(NamedTuple):
    sides: int | None = None


class Shape(_ShapeFields):
    """A circle (``sides`` is None) or a regular polygon with ``sides`` sides."""

    __slots__ = ()

    def __new__(cls, sides: int | None = None) -> "Shape":
        if sides is not None and _count(sides, "sides") < 3:
            raise ValueError(f"a regular polygon needs sides >= 3, got {sides}")
        return super().__new__(cls, sides)

    @classmethod
    def circle(cls) -> "Shape":
        return cls()

    @classmethod
    def regular_polygon(cls, sides: int) -> "Shape":
        return cls(sides)


class _Point2Fields(NamedTuple):
    x: float
    y: float


class Point2(_Point2Fields):
    """Planar point with finite coordinates."""

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> "Point2":
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"coordinates must be finite, got ({x}, {y})")
        return super().__new__(cls, x, y)


def _check_positive(value: float, what: str) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")


def area_coefficient(shape: Shape) -> float:
    """Coefficient ``c`` with ``area = c * r**2`` for inradius ``r``.

    ``pi`` for the circle, ``n * tan(pi/n)`` for the regular n-gon; strictly
    decreasing in ``n`` and converging to ``pi`` from above.
    """
    if shape.sides is None:
        return math.pi
    return shape.sides * math.tan(math.pi / shape.sides)


def area(shape: Shape, r: float) -> float:
    """Enclosed area of the shape with inradius ``r``."""
    _check_positive(r, "inradius")
    # (c*r)*r shares its rounded first factor with perimeter(), keeping
    # area/perimeter within a couple of ulp of r/2.
    return area_coefficient(shape) * r * r


def perimeter(shape: Shape, r: float) -> float:
    """Boundary length of the shape with inradius ``r`` (equals ``2*c*r``)."""
    _check_positive(r, "inradius")
    return 2.0 * (area_coefficient(shape) * r)


def polygon_vertices(n: int, r: float) -> list[Point2]:
    """Vertices of the regular n-gon with inradius ``r``, centered at the origin.

    Counterclockwise, oriented so the midpoint of the first edge lies on the
    positive x-axis; every vertex sits at circumradius ``r / cos(pi/n)``.
    """
    if _count(n, "sides") < 3:
        raise ValueError(f"a polygon needs at least 3 sides, got {n}")
    _check_positive(r, "inradius")
    circumradius = r / math.cos(math.pi / n)
    step = 2.0 * math.pi / n
    start = -math.pi / n
    return [
        Point2(
            circumradius * math.cos(start + k * step),
            circumradius * math.sin(start + k * step),
        )
        for k in range(n)
    ]


def shoelace_area(pts: Sequence[Point2]) -> float:
    """Area of a simple polygon from its vertices in path order.

    Absolute value of the signed shoelace sum halved; orientation does not
    matter.  Used as the independent cross-check for area_coefficient().
    """
    if len(pts) < 3:
        raise ValueError(f"a polygon needs at least 3 vertices, got {len(pts)}")
    acc = 0.0
    for i, p in enumerate(pts):
        q = pts[(i + 1) % len(pts)]
        acc += p.x * q.y - q.x * p.y
    return abs(acc) / 2.0


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """``n`` evenly spaced points from ``lo`` to ``hi``, both included.

    Point ``i`` is ``lo + i*step`` and the last one is pinned to ``hi``, so
    the values match ``numpy.linspace`` bit for bit while ``step`` is a
    normal float, of either sign.  A subnormal ``step`` has too few bits to
    add up ``i*step`` without overshooting ``hi``, and one of 0 loses the
    interior, so there the points are ``lo + i/(n-1)*span``: monotone and
    between ``lo`` and ``hi``, where numpy's can pass ``hi``.
    """
    if _count(n, "points") < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    div = n - 1
    span = hi - lo
    step = span / div
    if abs(step) < sys.float_info.min:
        xs = [lo + i / div * span for i in range(n)]
    else:
        xs = [lo + i * step for i in range(n)]
    xs[-1] = hi
    return xs
