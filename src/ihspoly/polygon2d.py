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

area, contains_polygon and contains_point run in one integer frame:
_frame lifts every coordinate of their inputs, through surd.to_frame,
to an integer pair (a, b) over one common denominator den and one
square-free d, the value being (a + b*sqrt(d))/den.  Rational polygons
are the frame with d = 0.  Each predicate is then exact integer
products and one sign per test, and area builds a single Surd for its
result.  Inputs over two different irrational discriminants raise
DiscriminantMixError up front, as in minkowski_sum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .surd import Surd, common_discriminant, frame_sign, from_frame, to_frame

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
    d, den, (pts,) = _frame(vertices)
    a = b = 0  # a point or a segment sums to 0
    for u, v in zip(pts, pts[1:] + pts[:1]):
        da, db = _det(u, v, d)
        a, b = a + da, b + db
    s = frame_sign(a, b, d)
    return from_frame(s * a, s * b, 2 * den * den, d)


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
    common_discriminant((c for v in (*p, *q) for c in v), "sum polygons")
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
    return contains_polygon(vertices, [pt])


def contains_polygon(outer: Sequence[Point], inner: Sequence[Point]) -> bool:
    """Convexity makes vertex containment sufficient.  The edge lines of a
    2-dimensional outer polygon are built once; each inner vertex then
    costs one sign per edge.  Every test runs in the integer frame."""
    d, _, (outer, inner) = _frame(outer, inner)
    if len(outer) < 3:
        return all(_in_degenerate(outer, v, d) for v in inner)
    # p is inside when e x p - e x v >= 0 for every edge e = w - v; that
    # is _det(e, p) - _det(e, v), written out below with e x v built once
    lines = []
    for v, w in zip(outer, outer[1:] + outer[:1]):
        (exa, exb), (eya, eyb) = e = _vec(v, w)
        lines.append((exa, exb, exb * d, eya, eyb, eyb * d, *_det(e, v, d)))
    for (xa, xb), (ya, yb) in inner:
        for exa, exb, exbd, eya, eyb, eybd, ca, cb in lines:
            a = exa * ya + exbd * yb - eya * xa - eybd * xb - ca
            b = exa * yb + exb * ya - eya * xb - eyb * xa - cb
            if (frame_sign(a, b, d) if b else a) < 0:
                return False
    return True


# ---------------------------------------------------------------------------
# the integer frame: a point is ((a, b), (a', b')) for the coordinates
# ((a + b*sqrt(d))/den, (a' + b'*sqrt(d))/den)


def _frame(*seqs: Sequence[Point]):
    """(d, den, lifted): every point of every sequence as integer pairs over
    one common denominator den and one discriminant d."""
    d, den, flat = to_frame((c for seq in seqs for v in seq for c in v), "combine polygons")
    lifted, i = [], 0
    for seq in seqs:
        j = i + 2 * len(seq)
        lifted.append(list(zip(flat[i:j:2], flat[i + 1:j:2])))
        i = j
    return d, den, lifted


def _vec(v, w):
    """w - v."""
    return (w[0][0] - v[0][0], w[0][1] - v[0][1]), (w[1][0] - v[1][0], w[1][1] - v[1][1])


def _det(u, v, d) -> tuple[int, int]:
    """u_x v_y - u_y v_x."""
    ((a, b), (c, e)), ((f, g), (h, k)) = u, v
    return a * h + b * k * d - c * f - e * g * d, a * k + b * h - c * g - e * f


def _dot(u, v, d) -> tuple[int, int]:
    """u_x v_x + u_y v_y."""
    ((a, b), (c, e)), ((f, g), (h, k)) = u, v
    return a * f + b * g * d + c * h + e * k * d, a * g + b * f + c * k + e * h


def _in_degenerate(vertices, p, d) -> bool:
    """p lies in a polygon of 0, 1 or 2 vertices."""
    if len(vertices) < 2:
        return vertices == [p]
    u, w = _vec(vertices[0], vertices[1]), _vec(vertices[0], p)
    if any(_det(u, w, d)):
        return False  # off the line
    ta, tb = _dot(w, u, d)
    la, lb = _dot(u, u, d)
    return frame_sign(ta, tb, d) >= 0 and frame_sign(ta - la, tb - lb, d) <= 0
