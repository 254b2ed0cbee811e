"""Exact convex 2D geometry in the integer frame, against Surd oracles.

polygon2d works on Frames: integer vertices over one denominator and
one square-free d.  Its oracle is the Surd-pair polygon section of
oracles.py: point, cross and convex_hull, whose output defines the
canonical polygon form, and the area, Minkowski sum, scale, translate
and containment in Surd arithmetic.  The tests reach the kernel through
the thin wrappers of that file's last section, which lift Surd points
into a frame and read the result back.
"""

import random
from fractions import Fraction

import pytest

from ihspoly import polygon2d
from ihspoly.okounkov import NOPolygon, polygon_contains, polygon_minkowski_sum, polygon_scale
from ihspoly.polygon2d import lift
from ihspoly.surd import DiscriminantMixError, Surd
from oracles import (
    _hull_of_pairwise_sums,
    _surd_area,
    _surd_contains_point,
    _surd_contains_polygon,
    _surd_scale,
    _surd_translate,
    area,
    contains_point,
    contains_polygon,
    convex_hull,
    cross,
    minkowski_sum,
    point,
    scale,
    translate,
)

F = Fraction


def square(side=1):
    return [point(0, 0), point(side, 0), point(side, side), point(0, side)]


# -- convex hull --------------------------------------------------------------


def test_hull_unit_square_with_interior_points():
    pts = square() + [point(F(1, 2), F(1, 2)), point(F(1, 4), F(3, 4))]
    assert convex_hull(pts) == [point(0, 0), point(1, 0), point(1, 1), point(0, 1)]


def test_hull_is_counterclockwise_from_lex_min():
    hull = convex_hull([point(2, 0), point(0, 0), point(1, 2)])
    assert hull[0] == point(0, 0)
    # Positive cross products all the way around.
    for i in range(len(hull)):
        o, a, b = hull[i - 2], hull[i - 1], hull[i]
        assert cross(o, a, b).sign() > 0


def test_hull_drops_collinear_points():
    pts = [point(0, 0), point(1, 0), point(2, 0), point(2, 2), point(1, 1)]
    assert convex_hull(pts) == [point(0, 0), point(2, 0), point(2, 2)]


def test_hull_degenerate_cases():
    assert convex_hull([]) == []
    assert convex_hull([point(1, 1), point(1, 1)]) == [point(1, 1)]
    assert convex_hull([point(0, 0), point(1, 1)]) == [point(0, 0), point(1, 1)]
    # All collinear: a segment between the extremes.
    seg = convex_hull([point(0, 0), point(1, 1), point(2, 2), point(3, 3)])
    assert seg == [point(0, 0), point(3, 3)]


def test_hull_with_surd_coordinates():
    mu = Surd(2, -1, 3)  # 2 - sqrt(3)
    hull = convex_hull([point(0, 0), (mu, Surd(0)), (mu, Surd(0, 2, 3)), point(0, 4)])
    assert len(hull) == 4
    assert hull[0] == point(0, 0)


def test_hull_brute_force_oracle_seeded():
    rng = random.Random(83)
    for _ in range(30):
        pts = [point(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(10)]
        hull = convex_hull(pts)
        # Every input point lies inside the hull; every vertex is an input.
        for p in pts:
            assert contains_point(hull, p)
        assert set(hull) <= set(pts)


# -- area ------------------------------------------------------------------------


def test_area_frozen():
    assert area(square()) == 1
    assert area(square(3)) == 9
    assert area([point(0, 0), point(3, 0), point(2, 2), point(0, 2)]) == 5
    assert area([point(0, 0), point(1, 0), point(0, 2)]) == 1


def test_area_degenerate():
    assert area([]) == 0
    assert area([point(1, 2)]) == 0
    assert area([point(0, 0), point(5, 5)]) == 0


def test_area_orientation_independent():
    sq = square()
    assert area(list(reversed(sq))) == area(sq)


def test_area_exact_surd():
    # Rectangle of width 2 - sqrt(3) and height 2 sqrt(3):
    # area = (2 - sqrt(3)) * 2 sqrt(3) = 4 sqrt(3) - 6.
    mu = Surd(2, -1, 3)
    h = Surd(0, 2, 3)
    rect = [point(0, 0), (mu, Surd(0)), (mu, h), (Surd(0), h)]
    assert area(rect) == Surd(-6, 4, 3)


def test_area_shoelace_oracle_seeded():
    rng = random.Random(89)
    for _ in range(30):
        pts = [point(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(8)]
        hull = convex_hull(pts)
        # Fan triangulation from the first vertex reproduces the area.
        if len(hull) < 3:
            assert area(hull) == 0
            continue
        total = Surd(0)
        for i in range(1, len(hull) - 1):
            total = total + abs(cross(hull[0], hull[i], hull[i + 1])) * F(1, 2)
        assert area(hull) == total


# -- minkowski sum ------------------------------------------------------------------


def test_minkowski_sum_squares():
    s = minkowski_sum(square(), square(2))
    assert s == [point(0, 0), point(3, 0), point(3, 3), point(0, 3)]


def test_minkowski_sum_triangle_segment():
    tri = [point(0, 0), point(1, 0), point(0, 1)]
    seg = [point(0, 0), point(2, 0)]
    s = minkowski_sum(tri, seg)
    assert s == [point(0, 0), point(3, 0), point(2, 1), point(0, 1)]


def test_minkowski_sum_with_point_translates():
    tri = [point(0, 0), point(1, 0), point(0, 1)]
    assert minkowski_sum(tri, [point(2, 3)]) == convex_hull(_surd_translate(tri, 2, 3))


def test_minkowski_sum_empty():
    assert minkowski_sum([], square()) == []
    assert minkowski_sum(square(), []) == []


def test_minkowski_area_superadditive_seeded():
    # sqrt(area) is superadditive under Minkowski sum (Brunn-Minkowski);
    # verify the squared form area(P+Q) >= area(P) + area(Q) + 2 sqrt(..)
    # via the weaker exact statement area(P+Q) >= area(P) + area(Q).
    rng = random.Random(97)
    for _ in range(20):
        p = convex_hull([point(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(6)])
        q = convex_hull([point(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(6)])
        if not p or not q:
            continue
        assert not area(minkowski_sum(p, q)) < area(p) + area(q)


def _random_canonical(rng, d):
    """A canonical polygon over Q(sqrt(d)) with 1 to 9 hull inputs; grid
    inputs make parallel edges, segments and points common."""
    k = rng.choice((1, 2, 2, 3, 4, 6, 9))
    if rng.random() < 0.4:
        return convex_hull([point(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(k)])

    def coord():
        a = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        if d and rng.random() < 0.5:
            return Surd(a, F(rng.randint(-3, 3), rng.choice((1, 2))), d)
        return Surd(a)

    return convex_hull([(coord(), coord()) for _ in range(k)])


@pytest.mark.parametrize("d", [0, 2, 3])
def test_minkowski_sum_matches_pairwise_hull_oracle_seeded(d):
    rng = random.Random(101 + d)
    for _ in range(300):
        p, q = _random_canonical(rng, d), _random_canonical(rng, d)
        assert minkowski_sum(p, q) == _hull_of_pairwise_sums(p, q)


def test_minkowski_sum_degenerate_inputs_match_oracle():
    pt = [point(1, 2)]
    seg = convex_hull([point(2, 2), point(0, 0)])  # given in reverse
    same_dir = convex_hull([point(5, 1), point(6, 2)])
    anti = convex_hull([point(3, 0), point(1, 2)])  # slope -1
    vertical = convex_hull([point(0, 3), point(0, 1)])
    tri = [point(0, 0), point(1, 0), point(0, 1)]
    shapes = [pt, seg, same_dir, anti, vertical, tri, square(2)]
    for p in shapes:
        for q in shapes:
            assert minkowski_sum(p, q) == _hull_of_pairwise_sums(p, q)
    # parallel segments add into one segment, a point into a translate
    assert minkowski_sum(seg, same_dir) == [point(5, 1), point(8, 4)]
    assert minkowski_sum(pt, pt) == [point(2, 4)]
    assert len(minkowski_sum(seg, anti)) == 4


def test_minkowski_sum_joins_parallel_edges():
    # Both have a horizontal bottom edge and a vertical right edge; the sum
    # carries each direction as one edge, with no collinear vertex.
    trap = [point(0, 0), point(3, 0), point(3, 1), point(1, 2)]
    rect = [point(0, 0), point(2, 0), point(2, 1), point(0, 1)]
    s = minkowski_sum(trap, rect)
    assert s == _hull_of_pairwise_sums(trap, rect)
    assert s == [point(0, 0), point(5, 0), point(5, 2), point(3, 3), point(1, 3), point(0, 1)]
    # Surd edges parallel to each other: the rectangle scaled by 1 + sqrt(2)
    r = Surd(1, 1, 2)
    big = [(x * r, y * r) for x, y in rect]
    assert minkowski_sum(rect, big) == [(x * (r + 1), y * (r + 1)) for x, y in rect]


def test_minkowski_sum_mixed_discriminants_raise():
    p = [point(0, 0), (Surd(0, 1, 2), Surd(0)), point(0, 1)]
    q = [point(0, 0), (Surd(0, 1, 3), Surd(0)), point(0, 1)]
    with pytest.raises(DiscriminantMixError, match=r"^cannot sum polygons over sqrt\(2\) and sqrt\(3\)$"):
        minkowski_sum(p, q)
    # the refusal does not depend on which vertices would meet
    with pytest.raises(DiscriminantMixError):
        minkowski_sum([(Surd(0, 1, 2), Surd(0))], [(Surd(0), Surd(0, 1, 3))])
    # one irrational extension plus rationals is fine
    assert minkowski_sum(p, square()) == _hull_of_pairwise_sums(p, square())


# -- scale / translate -----------------------------------------------------------------


def test_scale():
    assert scale(square(), 2) == square(2)
    assert scale(square(), F(1, 2)) == square(F(1, 2))
    assert scale(square(), 0) == [point(0, 0)]
    assert scale([], 0) == []
    with pytest.raises(ValueError):
        scale(square(), -1)


def test_translate():
    # a rational shift along the first axis; the width rides along
    assert translate([point(1, 1)], -1) == [point(0, 1)]
    r = Surd(1, 1, 2)
    tri = [point(0, 0), (r, Surd(0)), (Surd(0), r)]
    for dx in (F(1, 3), F(-5, 2), 0):
        assert translate(tri, dx) == _surd_translate(tri, dx)
    moved = polygon2d.translate(lift(tri, r), F(1, 2))
    assert polygon2d.width(moved) == r
    assert moved == lift(_surd_translate(tri, F(1, 2)), r)


# -- containment -------------------------------------------------------------------------


def test_contains_point_full_polygon():
    sq = square(2)
    assert contains_point(sq, point(1, 1))
    assert contains_point(sq, point(0, 0))  # vertex
    assert contains_point(sq, point(2, 1))  # edge
    assert not contains_point(sq, point(3, 1))
    assert not contains_point(sq, point(1, -1))


def test_contains_point_degenerate():
    assert not contains_point([], point(0, 0))
    assert contains_point([point(1, 1)], point(1, 1))
    assert not contains_point([point(1, 1)], point(1, 2))
    seg = [point(0, 0), point(2, 2)]
    assert contains_point(seg, point(1, 1))
    assert not contains_point(seg, point(3, 3))  # beyond the endpoint
    assert not contains_point(seg, point(1, 0))  # off the line


def test_contains_point_surd_boundary():
    mu = Surd(2, -1, 3)
    rect = [point(0, 0), (mu, Surd(0)), (mu, Surd(4)), point(0, 4)]
    assert contains_point(rect, (mu, Surd(2)))
    assert not contains_point(rect, (mu + F(1, 1000), Surd(2)))
    assert contains_point(rect, (mu * F(1, 2), Surd(1)))


def test_contains_polygon():
    outer = square(3)
    inner = _surd_translate(square(), 1, 1)
    assert contains_polygon(outer, inner)
    assert not contains_polygon(inner, outer)
    assert contains_polygon(outer, outer)
    # Everything contains the empty polygon.
    assert contains_polygon(outer, [])
    # a segment or a point as the outer polygon
    seg = [point(0, 0), point(2, 2)]
    assert contains_polygon(seg, [point(1, 1), point(2, 2)])
    assert not contains_polygon(seg, [point(1, 1), point(1, 0)])
    assert contains_polygon([point(1, 1)], [point(1, 1)])
    assert not contains_polygon([], [point(0, 0)])


def test_predicates_mixed_discriminants_raise():
    p = [point(0, 0), (Surd(0, 1, 2), Surd(0)), point(0, 1)]
    q = [point(0, 0), (Surd(0, 1, 3), Surd(0)), point(0, 1)]
    with pytest.raises(DiscriminantMixError, match=r"^cannot combine polygons over sqrt\(2\) and sqrt\(3\)$"):
        contains_polygon(p, q)
    with pytest.raises(DiscriminantMixError):
        area([point(0, 0), (Surd(0, 1, 2), Surd(0)), (Surd(0), Surd(0, 1, 3))])
    # the refusal is up front: it does not depend on which products a
    # test would form, so a point against a point is refused too
    with pytest.raises(DiscriminantMixError):
        contains_point([(Surd(0, 1, 2), Surd(0))], (Surd(0), Surd(0, 1, 3)))
    with pytest.raises(DiscriminantMixError):
        contains_polygon(p, [(Surd(0), Surd(0, 1, 3))])
    # one irrational extension plus rationals is fine
    assert contains_polygon(p, [point(1, 0)]) and not contains_polygon(square(), p)
    assert area(p) == Surd(0, F(1, 2), 2)


def test_kernel_does_no_surd_arithmetic(monkeypatch):
    r = Surd(1, 1, 2)  # 1 + sqrt(2)
    trap = [point(0, 0), point(3, 0), point(2, 2), point(0, 2)]
    wide = [(x * r, y * r) for x, y in trap]
    inner = [point(1, 1), (r, Surd(1))]
    seg = [point(0, 0), (r, r)]
    half = (r * F(1, 2), r * F(1, 2))
    summed, scaled = _hull_of_pairwise_sums(trap, wide), _surd_scale(wide, F(3, 2))
    moved = _surd_translate(wide, F(-1, 3))

    def refuse(*_):
        raise AssertionError("Surd arithmetic in the polygon kernel")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
        monkeypatch.setattr(Surd, op, refuse)
    assert area(trap) == 5
    assert area(wide) == Surd(15, 10, 2)  # 5 (1 + sqrt(2))^2
    assert contains_polygon(trap, inner) and contains_polygon(wide, trap + inner)
    assert not contains_polygon(trap, wide)
    assert contains_point(seg, half) and not contains_point(seg, point(1, 0))
    assert minkowski_sum(trap, wide) == summed
    assert scale(wide, F(3, 2)) == scaled and translate(wide, F(-1, 3)) == moved


@pytest.mark.parametrize("d", [0, 2, 3])
def test_kernel_matches_surd_oracle_seeded(d):
    rng = random.Random(211 + d)
    for _ in range(200):
        p, q = _random_canonical(rng, d), _random_canonical(rng, d)
        assert area(p) == _surd_area(p)
        assert contains_polygon(p, q) == _surd_contains_polygon(p, q)
        assert contains_polygon(minkowski_sum(p, q), p) == _surd_contains_polygon(
            minkowski_sum(p, q), p
        )
        for v in (*q, *p, (p[0][0] * F(1, 2), p[-1][1])):
            assert contains_point(p, v) == _surd_contains_point(p, v)


# -- polygons with offset and width -------------------------------------------------------


def _random_nopolygon(rng, d):
    verts = _random_canonical(rng, d)
    mu = max(x for x, _ in verts)
    return NOPolygon(tuple(verts), F(rng.randint(0, 6), rng.choice((1, 2, 3))), mu)


def _absolute(poly):
    return _surd_translate(list(poly.vertices), poly.nu)


@pytest.mark.parametrize("d", [0, 2, 3])
def test_polygon_operations_match_surd_oracle_seeded(d):
    # okounkov's polygon algebra on frames, against the Surd oracle on the
    # vertices each accessor reads back
    rng = random.Random(223 + d)
    for _ in range(150):
        p, q = _random_nopolygon(rng, d), _random_nopolygon(rng, d)
        again = NOPolygon(p.vertices, p.nu, p.mu)
        assert again == p and hash(again) == hash(p)
        assert list(p.absolute_vertices()) == _absolute(p)
        assert p.area == _surd_area(list(p.vertices))
        total = polygon_minkowski_sum(p, q)
        assert list(total.vertices) == _hull_of_pairwise_sums(p.vertices, q.vertices)
        assert (total.nu, total.mu) == (p.nu + q.nu, p.mu + q.mu)
        f = F(rng.randint(0, 5), rng.choice((1, 2, 3)))
        scaled = polygon_scale(f, p)
        assert list(scaled.vertices) == _surd_scale(list(p.vertices), f)
        assert (scaled.nu, scaled.mu) == (p.nu * f, p.mu * f)
        # every frame is canonical: equal to the one lifted from its values
        for poly in (total, scaled):
            assert poly == NOPolygon(poly.vertices, poly.nu, poly.mu)
        for outer, inner in ((p, q), (q, p), (total, p), (total, q), (p, total), (p, scaled)):
            expected = _surd_contains_polygon(_absolute(outer), _absolute(inner))
            assert polygon_contains(outer, inner) == expected


def test_cancelled_radicals_leave_a_rational_frame():
    r = Surd(0, 1, 2)
    p = NOPolygon(((r, Surd(1)),), F(0), r)
    q = NOPolygon(((-r, Surd(1)),), F(0), -r)
    total = polygon_minkowski_sum(p, q)
    assert total == NOPolygon((point(0, 2),), F(0), 0) and total.frame.d == 0


def test_polygon_operations_refuse_mixed_discriminants():
    def wedge(d):
        return NOPolygon((point(0, 0), (Surd(0, 1, d), Surd(0)), point(0, 1)), F(0), Surd(0, 1, d))

    with pytest.raises(DiscriminantMixError, match=r"^cannot sum polygons over sqrt\(2\) and sqrt\(3\)$"):
        polygon_minkowski_sum(wedge(2), wedge(3))
    with pytest.raises(DiscriminantMixError, match=r"^cannot combine polygons over sqrt\(2\) and sqrt\(3\)$"):
        polygon_contains(wedge(3), wedge(2))
    with pytest.raises(DiscriminantMixError, match=r"^cannot combine polygons over sqrt\(2\) and sqrt\(3\)$"):
        NOPolygon(wedge(2).vertices, F(0), Surd(0, 1, 3))
