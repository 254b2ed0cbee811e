"""Exact 2D convex geometry over one quadratic extension.

Points are pairs of Surd; all predicates are exact sign tests, so
hulls, Minkowski sums, areas and containment are decided without any
epsilon.  Degenerate polygons (segments, points) are first-class: they
show up as polygon slices of non-big classes.

A polygon is canonical in the form convex_hull returns: counterclockwise
from the lexicographic minimum with no collinear vertices, or its 1 or 2
sorted vertices when degenerate.  convex_hull is the definition of that
form and the tests' oracle; the library's polygons are born canonical
(okounkov reads them off the chamber walk in order), and minkowski_sum,
scale and translate keep them so.  minkowski_sum takes canonical inputs
and merges their edge sequences in O(n + m) exact operations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .surd import DiscriminantMixError, Surd

Point = tuple[Surd, Surd]


def _s(x) -> Surd:
    return x if isinstance(x, Surd) else Surd(x)


def point(x, y) -> Point:
    return (_s(x), _s(y))


def cross(o: Point, a: Point, b: Point) -> Surd:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Counterclockwise hull starting at the lexicographic minimum.

    Collinear points are dropped; a segment or single point comes back
    with 2 or 1 vertices.
    """
    pts = sorted(set((_s(x), _s(y)) for x, y in points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p).sign() <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p).sign() <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) > 2 else sorted(set(hull))


def area(vertices: Sequence[Point]) -> Surd:
    """Shoelace area; zero for degenerate polygons."""
    if len(vertices) < 3:
        return Surd(0)
    total = Surd(0)
    for i, (x0, y0) in enumerate(vertices):
        x1, y1 = vertices[(i + 1) % len(vertices)]
        total = total + (x0 * y1 - x1 * y0)
    return abs(total) * Fraction(1, 2)


def _edges(vertices: Sequence[Point]) -> list[tuple[int, Surd, Surd]]:
    """Edge vectors of a canonical polygon in angular order, each with its
    half-plane: 0 for angles in (-pi/2, pi/2], 1 for (pi/2, 3pi/2].

    A segment a < b has the edges b - a and a - b; a point has none.
    """
    if len(vertices) < 2:
        return []
    out = []
    for (x0, y0), (x1, y1) in zip(vertices, (*vertices[1:], vertices[0])):
        dx, dy = x1 - x0, y1 - y0
        s = dx.sign()
        out.append((0 if s > 0 or (s == 0 and dy.sign() > 0) else 1, dx, dy))
    return out


def _discriminants(vertices: Sequence[Point]) -> set[int]:
    return {c.d for v in vertices for c in v if c.d}


def minkowski_sum(p: Sequence[Point], q: Sequence[Point]) -> list[Point]:
    """Exact Minkowski sum of two canonical convex polygons.

    Both inputs must be canonical (see the module docstring); the result
    is canonical too.  The sum starts at p[0] + q[0], the sum of the
    lexicographic minima, and merges the two edge sequences by angle,
    joining parallel edges into one: O(n + m) exact operations.  Inputs
    over two different irrational discriminants raise
    DiscriminantMixError.
    """
    if not p or not q:
        return []
    ds = _discriminants(p) | _discriminants(q)
    if len(ds) > 1:
        raise DiscriminantMixError(
            "cannot sum polygons over " + " and ".join(f"sqrt({d})" for d in sorted(ds))
        )
    ep, eq = _edges(p), _edges(q)
    n, m = len(p), len(q)
    i = j = 0
    out: list[Point] = []
    while i < len(ep) or j < len(eq):
        a, b = p[i % n], q[j % m]
        out.append((a[0] + b[0], a[1] + b[1]))
        if i == len(ep):
            order = 1
        elif j == len(eq):
            order = -1
        else:  # < 0: p's edge comes first, 0: the edges are parallel
            (hp, px, py), (hq, qx, qy) = ep[i], eq[j]
            order = hp - hq or -(px * qy - py * qx).sign()
        if order <= 0:
            i += 1
        if order >= 0:
            j += 1
    return out or [(p[0][0] + q[0][0], p[0][1] + q[0][1])]


def scale(vertices: Sequence[Point], factor) -> list[Point]:
    f = Fraction(factor)
    if f < 0:
        raise ValueError("polygon scaling factor must be nonnegative")
    if f == 0:
        return [(Surd(0), Surd(0))] if vertices else []
    return [(x * f, y * f) for x, y in vertices]


def translate(vertices: Sequence[Point], dx, dy) -> list[Point]:
    dx, dy = _s(dx), _s(dy)
    return [(x + dx, y + dy) for x, y in vertices]


def contains_point(vertices: Sequence[Point], pt: Point) -> bool:
    pt = (_s(pt[0]), _s(pt[1]))
    if not vertices:
        return False
    if len(vertices) == 1:
        return vertices[0] == pt
    if len(vertices) == 2:
        a, b = vertices
        if cross(a, b, pt).sign() != 0:
            return False
        ab = (b[0] - a[0], b[1] - a[1])
        t = (pt[0] - a[0]) * ab[0] + (pt[1] - a[1]) * ab[1]
        return t.sign() >= 0 and (t - (ab[0] * ab[0] + ab[1] * ab[1])).sign() <= 0
    return contains_polygon(vertices, [pt])


def contains_polygon(outer: Sequence[Point], inner: Sequence[Point]) -> bool:
    """Convexity makes vertex containment sufficient.  The edge lines of a
    2-dimensional outer polygon are built once; each inner vertex then
    costs one determinant sign per edge."""
    if len(outer) < 3:
        return all(contains_point(outer, v) for v in inner)
    lines = []
    for (vx, vy), (wx, wy) in zip(outer, (*outer[1:], outer[0])):
        ex, ey = wx - vx, wy - vy
        lines.append((ex, ey, ex * vy - ey * vx))
    for x, y in inner:
        x, y = _s(x), _s(y)
        for ex, ey, c in lines:
            if (ex * y - ey * x - c).sign() < 0:
                return False
    return True
