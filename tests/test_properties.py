"""Property tests: Surd field axioms, hashing and exact order, the
polygon2d Minkowski sum, area and containment, and the integer kernel of
linalg, against their oracles.

Runs are derandomized and keep no example database, so every run checks
the same examples.
"""

import decimal
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ihspoly.linalg import kernel  # noqa: E402
from ihspoly.surd import DiscriminantMixError, Surd  # noqa: E402
from oracles import (  # noqa: E402
    _hull_of_pairwise_sums,
    _surd_area,
    _surd_contains_point,
    _surd_contains_polygon,
    area,
    assert_kernel_matches_fraction_oracle,
    contains_point,
    contains_polygon,
    convex_hull,
    minkowski_sum,
)

exact = settings(derandomize=True, database=None, deadline=None, max_examples=300)

RATS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
# 8, 12 and 18 are not square-free, 1, 4 and 9 are squares: construction
# canonicalizes them.
DISCS = st.sampled_from((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 18))


def surds(d):
    return st.builds(Surd, RATS, RATS, st.just(d))


@st.composite
def same_field(draw, n):
    """n surds over one discriminant."""
    d = draw(DISCS)
    return [draw(surds(d)) for _ in range(n)]


def assert_canonical(x: Surd) -> None:
    ref = Surd(x.a, x.b, x.d)
    assert (x.a, x.b, x.d) == (ref.a, ref.b, ref.d)
    assert x.d == 0 if not x.b else x.d > 1


# -- field axioms -----------------------------------------------------------------


@exact
@given(same_field(3))
def test_field_axioms(xyz):
    x, y, z = xyz
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x * 0 == 0
    assert x + (-x) == 0 and x - y == x + (-y)
    for r in (x + y, x - y, x * y, -x):
        assert_canonical(r)


@exact
@given(surds(2), surds(3))
def test_mixed_irrational_arithmetic_refused(x, y):
    if x.is_rational or y.is_rational:
        assert x + y - y == x
        return
    for op in (lambda: x + y, lambda: x - y, lambda: x * y):
        with pytest.raises(DiscriminantMixError):
            op()


# -- equality and hashing ---------------------------------------------------------


@exact
@given(RATS, st.integers(-10**30, 10**30), same_field(1))
def test_eq_and_hash_agree_with_fraction_and_int(q, n, xs):
    (x,) = xs
    for plain in (q, n, Fraction(n)):
        s = Surd(plain)
        assert s == plain and plain == s and hash(s) == hash(plain)
        assert s.is_rational and s.as_fraction() == plain
    # x + conjugate(x) = 2a is rational however it was reached
    twice_a = x + Surd(x.a, -x.b, x.d)
    assert twice_a == 2 * x.a and hash(twice_a) == hash(2 * x.a)
    assert hash(x) == hash(Surd(x.a, x.b, x.d))
    assert (x == x.a) == x.is_rational


# -- exact order against a decimal oracle -------------------------------------------


def _decimal(x: Surd) -> decimal.Decimal:
    D = decimal.Decimal
    return D(x.a.numerator) / D(x.a.denominator) + D(x.b.numerator) / D(x.b.denominator) * D(x.d).sqrt()


def _check_order(x: Surd, y) -> None:
    """x against y, a Surd, Fraction or int."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        gap = _decimal(x) - _decimal(y if isinstance(y, Surd) else Surd(y))
        # Nonzero gaps of these bounded inputs are far above 1e-60.
        s = 0 if abs(gap) < decimal.Decimal("1e-60") else (1 if gap > 0 else -1)
    assert (x < y, x <= y, x == y, x >= y, x > y) == (s < 0, s <= 0, s == 0, s >= 0, s > 0)
    assert (y < x) == (s > 0)


@exact
@given(same_field(2))
def test_order_matches_decimal_oracle(xy):
    x, y = xy
    _check_order(x, y)
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        v = _decimal(x)
    assert x.sign() == (0 if not x else (1 if v > 0 else -1))


@exact
@given(DISCS, DISCS, RATS, RATS, RATS, RATS)
def test_mixed_discriminant_order_matches_decimal_oracle(d1, d2, a1, b1, a2, b2):
    x, y = Surd(a1, b1, d1), Surd(a2, b2, d2)
    _check_order(x, y)
    _check_order(x, a2)
    _check_order(y, a1.numerator)


# -- Minkowski sums and containment ------------------------------------------------


@st.composite
def polygons(draw, d):
    """A canonical polygon over Q(sqrt(d)) from 1 to 8 points; small grid
    coordinates make points, segments and parallel edges common."""
    coord = st.one_of(
        st.integers(-3, 3).map(Surd),
        st.builds(Surd, RATS, st.integers(-2, 2), st.just(d)),
    )
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
    return convex_hull(pts)


@settings(exact, max_examples=150)
@given(st.sampled_from((0, 2, 5)).flatmap(lambda d: st.tuples(polygons(d), polygons(d))))
def test_minkowski_sum_and_containment_match_hull_oracles(pq):
    p, q = pq
    total = minkowski_sum(p, q)
    assert total == _hull_of_pairwise_sums(p, q)
    # inner lies in a canonical outer exactly when adding its vertices
    # leaves the hull unchanged
    for outer, inner in ((p, q), (q, p), (total, p), (p, total)):
        assert contains_polygon(outer, inner) == (convex_hull([*outer, *inner]) == list(outer))
    # p + q[0] is a subset of p + q
    assert contains_polygon(total, minkowski_sum(p, q[:1]))


@settings(exact, max_examples=150)
@given(st.sampled_from((0, 2, 5)).flatmap(lambda d: st.tuples(polygons(d), polygons(d))))
def test_integer_kernel_matches_surd_arithmetic(pq):
    p, q = pq
    assert area(p) == _surd_area(p) and area(q) == _surd_area(q)
    total = minkowski_sum(p, q)
    for outer, inner in ((p, q), (q, p), (total, p), (total, minkowski_sum(p, q[:1]))):
        assert contains_polygon(outer, inner) == _surd_contains_polygon(outer, inner)
    # vertices, edge midpoints and the points just past them
    mids = [((v[0] + w[0]) * Fraction(1, 2), (v[1] + w[1]) * Fraction(1, 2)) for v, w in zip(p, (*p[1:], p[0]))]
    for x in (*q, *mids, *((a + 1, b) for a, b in mids), (q[0][0], q[0][1] - 1)):
        assert contains_point(p, x) == _surd_contains_point(p, x)


# -- the integer kernel -------------------------------------------------------


@st.composite
def systems(draw):
    """(rows, n): 0-7 integer rows of length n in 1-6."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    return draw(st.lists(row, max_size=7)), n


@exact
@given(systems())
def test_kernel_matches_fraction_rref(system):
    rows, n = system
    assert_kernel_matches_fraction_oracle(rows, n)
    for x in kernel(rows, n):
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)
