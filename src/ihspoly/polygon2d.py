"""Exact 2D convex polygons in one integer frame.

A Frame holds a polygon's vertices, and the width mu that okounkov
carries beside them, as integers over one common denominator den > 0
and one square-free d: the point (xa, xb, ya, yb) is
((xa + xb*sqrt(d))/den, (ya + yb*sqrt(d))/den) and mu = (ma, mb) is
(ma + mb*sqrt(d))/den.  d is 0 when every irrational part vanishes, and
den and the integers share no factor, so the form is unique and equal
frames are equal tuples.

Vertices are in canonical order: counterclockwise from the
lexicographic minimum with no collinear vertices, or the 1 or 2 sorted
vertices of a point or a segment (slices of non-big classes).  The
library's polygons are born canonical (okounkov reads them off the
chamber walk in order), and minkowski_sum, scale and translate keep
them so; the tests' convex hull is the oracle for the form.

Each decision is integer arithmetic and one exact sign, surd.frame_sign,
with no epsilon; frames over two different irrational d raise
DiscriminantMixError when combined.  Only points, width and area build
Surd values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .surd import Surd, common_discriminant, frame_sign, from_frame, to_frame

Point = tuple[Surd, Surd]
Quad = tuple[int, int, int, int]


class Frame(NamedTuple):
    """A polygon and its width in one integer frame; see the module
    docstring.  Build one with canonical or lift, which make it canonical."""

    d: int
    den: int
    points: tuple[Quad, ...]
    mu: tuple[int, int]


def canonical(d: int, den: int, points: Sequence[Quad], mu: tuple[int, int]) -> Frame:
    """The canonical Frame of integer data over den > 0 and d (square-free
    > 1, or 0 when every irrational part is 0)."""
    g = gcd(den, *mu, *chain.from_iterable(points))
    if g != 1:
        den //= g
        points = [(a // g, b // g, c // g, e // g) for a, b, c, e in points]
        mu = (mu[0] // g, mu[1] // g)
    if d and not (mu[1] or any(p[1] or p[3] for p in points)):
        d = 0
    return Frame(d, den, tuple(points), mu)


def lift(vertices: Sequence[Point], mu) -> Frame:
    """The Frame of Surd (or rational) vertices and width mu."""
    d, den, flat = to_frame((*(c for v in vertices for c in v), mu), "combine polygons")
    pts = tuple((*x, *y) for x, y in zip(flat[:-1:2], flat[1:-1:2]))
    return Frame(d, den, pts, flat[-1])  # to_frame's pairs are canonical already


def points(f: Frame) -> tuple[Point, ...]:
    """The vertices as Surd pairs."""
    d, n = f.d, f.den
    return tuple((from_frame(a, b, n, d), from_frame(c, e, n, d)) for a, b, c, e in f.points)


def width(f: Frame) -> Surd:
    """mu as a Surd."""
    return from_frame(*f.mu, f.den, f.d)


def area(f: Frame) -> Surd:
    """Shoelace area; zero for degenerate polygons."""
    d, pts = f.d, f.points
    a = b = 0  # a point or a segment sums to 0
    for u, v in zip(pts, pts[1:] + pts[:1]):
        da, db = _det(u, v, d)
        a, b = a + da, b + db
    s = frame_sign(a, b, d)
    return from_frame(s * a, s * b, 2 * f.den * f.den, d)


def minkowski_sum(p: Frame, q: Frame) -> Frame:
    """Exact Minkowski sum of two canonical convex polygons; the widths add.

    The sum is canonical too.  It starts at p[0] + q[0], the sum of the
    lexicographic minima, and merges the two edge sequences by angle,
    joining parallel edges into one: O(n + m) integer operations.
    Frames over two different irrational discriminants raise
    DiscriminantMixError.
    """
    d, den, (pp, pm), (qp, qm) = _common(p, q, "sum polygons")
    mu = (pm[0] + qm[0], pm[1] + qm[1])
    if not pp or not qp:
        return canonical(d, den, (), mu)
    ep, eq = _edges(pp, d), _edges(qp, d)
    n, m = len(pp), len(qp)
    i = j = 0
    out: list[Quad] = []
    while i < len(ep) or j < len(eq):
        a, b = pp[i % n], qp[j % m]
        out.append((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))
        if i == len(ep):
            order = 1
        elif j == len(eq):
            order = -1
        else:  # < 0: p's edge comes first, 0: the edges are parallel
            (hp, u), (hq, v) = ep[i], eq[j]
            order = hp - hq or -frame_sign(*_det(u, v, d), d)
        if order <= 0:
            i += 1
        if order >= 0:
            j += 1
    a, b = pp[0], qp[0]  # two points sum to one
    return canonical(d, den, out or [(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])], mu)


def scale(f: Frame, factor: Fraction) -> Frame:
    """f scaled about the origin by factor >= 0, its width too."""
    if factor < 0:
        raise ValueError("polygon scaling factor must be nonnegative")
    if not factor:
        return Frame(0, 1, ((0, 0, 0, 0),) if f.points else (), (0, 0))
    return canonical(f.d, f.den * factor.denominator, *_map(f, factor.numerator))


def translate(f: Frame, dx: Fraction) -> Frame:
    """f shifted by the rational dx along the first axis; the width stays."""
    if not dx:
        return f
    den = lcm(f.den, dx.denominator)
    return canonical(f.d, den, *_map(f, den // f.den, dx.numerator * (den // dx.denominator)))


def right_of(f: Frame, x0: Fraction) -> Frame:
    """The vertices of f with first coordinate >= x0, in f's frame: a
    point set to test for containment, not a canonical polygon."""
    n, m = x0.numerator * f.den, x0.denominator
    kept = tuple(p for p in f.points if frame_sign(p[0] * m - n, p[1] * m, f.d) >= 0)
    return f._replace(points=kept)


def contains_polygon(outer: Frame, inner: Frame) -> bool:
    """Convexity makes vertex containment sufficient.  The edge lines of a
    2-dimensional outer polygon are built once; each inner vertex then
    costs one sign per edge."""
    d, _, (outer, _), (inner, _) = _common(outer, inner, "combine polygons")
    if len(outer) < 3:  # a point or a segment a <= b: its line from a to b
        if not outer:
            return not inner
        a, b = outer[0], outer[-1]
        u = _vec(a, b)
        return all(
            not any(_det(u, _vec(a, v), d)) and _lex(a, v, d) <= 0 <= _lex(b, v, d) for v in inner
        )
    # p is inside when e x p - e x v >= 0 for every edge e = w - v; that
    # is _det(e, p) - _det(e, v), written out below with e x v built once
    lines = []
    for v, w in zip(outer, outer[1:] + outer[:1]):
        e = exa, exb, eya, eyb = _vec(v, w)
        lines.append((exa, exb, exb * d, eya, eyb, eyb * d, *_det(e, v, d)))
    for xa, xb, ya, yb in inner:
        for exa, exb, exbd, eya, eyb, eybd, ca, cb in lines:
            a = exa * ya + exbd * yb - eya * xa - eybd * xb - ca
            b = exa * yb + exb * ya - eya * xb - eyb * xa - cb
            if (frame_sign(a, b, d) if b else a) < 0:
                return False
    return True


# ---------------------------------------------------------------------------
# integer helpers: a vector is a Quad too


def _common(p: Frame, q: Frame, action: str):
    """(d, den, (p's points, mu), (q's points, mu)) over their common
    denominator and discriminant."""
    d, den = common_discriminant((p.d, q.d), action), lcm(p.den, q.den)
    return d, den, _map(p, den // p.den), _map(q, den // q.den)


def _map(f: Frame, k: int, s: int = 0):
    """f's points and mu times k, with s added to each first coordinate."""
    if k == 1 and not s:
        return f.points, f.mu
    return [(a * k + s, b * k, c * k, e * k) for a, b, c, e in f.points], (f.mu[0] * k, f.mu[1] * k)


def _edges(pts: Sequence[Quad], d: int) -> list[tuple[int, Quad]]:
    """Edge vectors of a canonical polygon in angular order, each after
    its half-plane: 0 for angles in (-pi/2, pi/2], 1 for (pi/2, 3pi/2].

    A segment a < b has the edges b - a and a - b; a point has none.
    """
    if len(pts) < 2:
        return []
    return [(0 if _lex(w, v, d) > 0 else 1, _vec(v, w)) for v, w in zip(pts, (*pts[1:], pts[0]))]


def _vec(v: Quad, w: Quad) -> Quad:
    """w - v."""
    return w[0] - v[0], w[1] - v[1], w[2] - v[2], w[3] - v[3]


def _det(u: Quad, v: Quad, d: int) -> tuple[int, int]:
    """u_x v_y - u_y v_x."""
    a, b, c, e = u
    f, g, h, k = v
    return a * h + b * k * d - c * f - e * g * d, a * k + b * h - c * g - e * f


def _lex(v: Quad, w: Quad, d: int) -> int:
    """Sign of v - w in lexicographic order."""
    return frame_sign(v[0] - w[0], v[1] - w[1], d) or frame_sign(v[2] - w[2], v[3] - w[3], d)
