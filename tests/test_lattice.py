"""Divisor classes and the BBF pairing: algebra, signatures, definiteness.

The shared oracles these tests use (the Fraction solve and RREF kernel,
Gram matrices, negative definiteness by inertia and by leading minors,
primitive vectors) live in oracles.py.  The oracles only this module
uses stay here: the support-record probe projector_accepts, the
Descartes signature, the exact ratio and the minor rank.
"""

import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest

from ihspoly import BBFLattice, DivClass
from ihspoly.errors import ConsistencyError, GeometryError
from ihspoly.geometry import Geometry, Prime
from ihspoly.lattice import dot, linear_combination
from ihspoly.linalg import inertia, kernel
from oracles import (
    SingularMatrixError,
    assert_kernel_matches_fraction_oracle,
    leading_minors_negative_definite,
    negative_definite,
    oracle_primitive,
    solve,
    sub_gram,
)


# -- local oracles ---------------------------------------------------------


def projector_accepts(lattice, classes):
    """Whether Geometry.support_projector builds the record of the
    support made of the classes, as primes P0, P1, ... of a catalog
    declaring no effective cone."""
    primes = tuple(
        Prime(f"P{i}", c, lattice.square(c) < 0) for i, c in enumerate(classes)
    )
    basis = tuple(f"b{i}" for i in range(lattice.rank))
    geom = Geometry("support", lattice, basis, primes, "polyhedral")
    try:
        geom.support_projector(frozenset(p.name for p in primes))
    except ConsistencyError:
        return False
    return True


def charpoly(matrix):
    """Characteristic polynomial coefficients by Faddeev-LeVerrier.

    Returns [c_0, ..., c_n] with det(tI - M) = sum c_k t^k, exact.
    """
    n = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    aux = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # aux <- M (aux + c_{n-k+1} I)
        shifted = [row[:] for row in aux]
        for i in range(n):
            shifted[i][i] += coeffs[n - k + 1]
        aux = [
            [sum(m[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(aux[i][i] for i in range(n))
        coeffs[n - k] = -trace / k
    return coeffs


def signature_by_descartes(matrix):
    """(n_plus, n_minus, n_zero) from the characteristic polynomial.

    A symmetric matrix has real eigenvalues, so Descartes' rule of signs
    is exact on its characteristic polynomial: positive eigenvalues =
    sign changes of p(t), negative = sign changes of p(-t), zero = the
    order of vanishing at t = 0.
    """
    coeffs = charpoly(matrix)
    zeros = 0
    while zeros <= len(matrix) and coeffs[zeros] == 0:
        zeros += 1
    tail = coeffs[zeros:]

    def changes(seq):
        signs = [1 if c > 0 else -1 for c in seq if c]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = changes(tail)
    neg = changes([c if k % 2 == 0 else -c for k, c in enumerate(tail)])
    return pos, neg, zeros


# -- DivClass --------------------------------------------------------------


def test_divclass_coercion_and_dim():
    v = DivClass([1, Fraction(1, 2)])
    assert v.coords == (Fraction(1), Fraction(1, 2))
    assert v.dim == 2
    assert not v.is_zero
    assert DivClass([0, 0]).is_zero


def test_divclass_algebra():
    a = DivClass([1, 2])
    b = DivClass([3, -1])
    assert a + b == DivClass([4, 1])
    assert a - b == DivClass([-2, 3])
    assert -a == DivClass([-1, -2])
    assert a.scale(Fraction(1, 2)) == DivClass([Fraction(1, 2), 1])
    assert 3 * a == DivClass([3, 6])


def test_divclass_dimension_mismatch():
    with pytest.raises(ValueError):
        DivClass([1, 2]) + DivClass([1, 2, 3])


def test_divclass_hashable_frozen():
    assert DivClass([1, 2]) == DivClass([Fraction(2, 2), 2])
    assert len({DivClass([1, 0]), DivClass([1, 0]), DivClass([0, 1])}) == 2
    with pytest.raises(AttributeError):
        DivClass([1, 0]).coords = (Fraction(2),)


def test_primitive_clears_denominators_keeps_sign():
    assert DivClass([Fraction(1, 2), Fraction(3, 4)]).primitive() == DivClass([2, 3])
    assert DivClass([-2, -4]).primitive() == DivClass([-1, -2])
    assert DivClass([Fraction(-3, 5), Fraction(6, 5)]).primitive() == DivClass([-1, 2])
    z = DivClass([0, 0])
    assert z.primitive() == z
    assert DivClass((Fraction(3, 2), Fraction(3))).primitive().num == (1, 2)
    assert DivClass((Fraction(0), Fraction(0))).primitive().num == (0, 0)


def test_primitive_idempotent_seeded():
    rng = random.Random(3)
    for _ in range(60):
        v = DivClass(
            [Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(3)]
        )
        p = v.primitive()
        assert p.primitive() == p
        if not v.is_zero:
            assert all(c.denominator == 1 for c in p.coords)


def oracle_ratio(x, y):
    """The c with x == c * y, or None; 0 when both vanish.  Fractions only."""
    c = None
    for p, q in zip(x, y):
        if q:
            if c is None:
                c = p / q
            elif p != c * q:
                return None
        elif p:
            return None
    return Fraction(0) if c is None else c


def test_ratio_matches_fraction_oracle_seeded():
    rng = random.Random(17)
    hits = misses = 0
    for _ in range(300):
        y = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(3)]
        if rng.random() < 0.6:
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            x = [c * q for q in y]
        else:
            x = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in range(3)]
        got, want = DivClass(x).ratio(DivClass(y)), oracle_ratio(x, y)
        assert got == want, (x, y)
        if got is None:
            misses += 1
        else:
            hits += 1
            assert type(got) is Fraction and DivClass(y).scale(got) == DivClass(x)
    assert hits > 50 and misses > 50
    zero = DivClass([0, 0, 0])
    assert zero.ratio(zero) == 0 and DivClass([1, 0, 0]).ratio(zero) is None
    assert zero.ratio(DivClass([0, 2, 0])) == 0


def assert_canonical_class(v: DivClass) -> None:
    assert type(v.den) is int and v.den > 0
    assert all(type(c) is int for c in v.num)
    assert math.gcd(v.den, *v.num) == 1


def test_divclass_canonical_form():
    a, b = DivClass([1, 2]), DivClass([Fraction(2, 2), Fraction(4, 2)])
    assert a == b and hash(a) == hash(b)
    assert (b.num, b.den) == ((1, 2), 1)
    v = DivClass([Fraction(1, 2), Fraction(-2, 3), "5/6", 0])
    assert (v.num, v.den) == ((3, -4, 5, 0), 6)
    assert v.coords == (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(0))
    z = DivClass([Fraction(0, 7), 0])
    assert (z.num, z.den) == ((0, 0), 1)
    for w in (a, b, v, z, DivClass([Fraction(6, 4), Fraction(9, 4)])):
        assert_canonical_class(w)
    with pytest.raises(AttributeError):
        v.den = 1
    with pytest.raises(AttributeError):
        del v.num
    assert copy.deepcopy(v) == v and pickle.loads(pickle.dumps(v)) == v


def test_divclass_arithmetic_matches_fraction_oracle_seeded():
    rng = random.Random(11)

    def coords():
        return [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))) for _ in range(4)]

    for _ in range(200):
        x, y = coords(), coords()
        f = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        a, b = DivClass(x), DivClass(y)
        cases = [
            (a + b, [p + q for p, q in zip(x, y)]),
            (a - b, [p - q for p, q in zip(x, y)]),
            (-a, [-p for p in x]),
            (a.scale(f), [f * p for p in x]),
            (f * a, [f * p for p in x]),
            (a.scale(3), [3 * p for p in x]),
            (a.primitive(), oracle_primitive(x)),
            (linear_combination([f, 2], [a, b], 4), [f * p + 2 * q for p, q in zip(x, y)]),
        ]
        for got, want in cases:
            assert_canonical_class(got)
            assert got.coords == tuple(want)
            assert got == DivClass(want) and hash(got) == hash(DivClass(want))


def test_pairing_with_fractional_gram_matches_fraction_oracle_seeded():
    gram = [[2, Fraction(1, 2), 0], [Fraction(1, 2), Fraction(-3, 4), 0], [0, 0, Fraction(-5, 3)]]
    lat = BBFLattice(gram, 1, 1)
    rng = random.Random(13)
    for _ in range(100):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3)]
        y = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3)]
        want = sum(x[i] * Fraction(gram[i][j]) * y[j] for i in range(3) for j in range(3))
        assert lat.pair(DivClass(x), DivClass(y)) == want
        row, den = lat.form(DivClass(y))
        assert den > 0 and math.gcd(den, *row) == 1
        assert Fraction(sum(a * b for a, b in zip(DivClass(x).num, row)), DivClass(x).den * den) == want


# -- exact linear algebra helpers -------------------------------------------


# solve is the Fraction oracle of oracles.py; these pin it down.


def test_solve_exact():
    x = solve([[2, 1], [1, 3]], [5, 10])
    assert x == [Fraction(1), Fraction(3)]


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        solve([[1, 2], [2, 4]], [1, 1])


def _minor_rank(rows, n):
    """Largest k with a nonsingular k x k minor, by exhaustive solves."""
    for k in range(min(len(rows), n), 0, -1):
        for r in combinations(range(len(rows)), k):
            for c in combinations(range(n), k):
                try:
                    solve([[rows[i][j] for j in c] for i in r], [0] * k)
                    return k
                except SingularMatrixError:
                    pass
    return 0


def test_kernel_matches_minor_rank_seeded():
    assert kernel([], 2) == [(1, 0), (0, 1)]
    assert kernel([[1, -1]], 2) == [(1, 1)]
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        basis = kernel(rows, n)
        assert len(basis) == n - _minor_rank(rows, n)
        assert _minor_rank(basis, n) == len(basis)
        for x in basis:
            assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)


def test_kernel_matches_fraction_oracle_seeded():
    rng = random.Random(23)
    ranks = set()
    for _ in range(600):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 7))]
        assert_kernel_matches_fraction_oracle(rows, n)
        ranks.add(n - len(kernel(rows, n)))
    assert ranks == set(range(7))


def test_kernel_builds_no_fraction_for_integer_rows(monkeypatch):
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and made  # the counter sees constructions
    made.clear()
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(1, 6)
        kernel([[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 7))], n)
    assert made == []


def test_inertia_matches_descartes_oracle_seeded():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                v = Fraction(rng.randint(-4, 4))
                m[i][j] = m[j][i] = v
        assert inertia(m) == signature_by_descartes(m)


# -- BBFLattice --------------------------------------------------------------


def hyperbolic(fujiki=1, half_dim=1):
    return BBFLattice([[2, 0], [0, -2]], fujiki, half_dim)


def test_lattice_basics():
    lat = hyperbolic(fujiki=3, half_dim=2)
    assert lat.rank == 2
    assert inertia(lat.gram) == (1, 1, 0)
    assert lat.fujiki == 3
    assert lat.half_dim == 2


def test_lattice_validation():
    with pytest.raises(ValueError, match="square"):
        BBFLattice([[2, 0, 0], [0, -2, 0]], 1, 1)
    with pytest.raises(ValueError, match="symmetric"):
        BBFLattice([[2, 1], [0, -2]], 1, 1)
    with pytest.raises(ValueError, match="Fujiki"):
        BBFLattice([[2, 0], [0, -2]], 0, 1)
    with pytest.raises(ValueError, match="half_dim"):
        BBFLattice([[2, 0], [0, -2]], 1, 0)
    with pytest.raises(ValueError, match="signature"):
        BBFLattice([[2, 0], [0, 2]], 1, 1)  # positive definite
    with pytest.raises(ValueError, match="signature"):
        BBFLattice([[1, 0], [0, 0]], 1, 1)  # degenerate


def test_hyperbolic_plane_accepted():
    lat = BBFLattice([[0, 1], [1, 0]], 1, 1)
    assert inertia(lat.gram) == (1, 1, 0)


def test_pairing_values():
    lat = hyperbolic()
    h = DivClass([1, 0])
    d = DivClass([0, 1])
    assert lat.square(h) == 2
    assert lat.square(d) == -2
    assert lat.pair(h, d) == 0
    assert lat.pair(h - d, h + d) == 4
    assert lat.square(DivClass([3, -1])) == 16


def test_pairing_dimension_check():
    lat = hyperbolic()
    with pytest.raises(ValueError):
        lat.pair(DivClass([1, 0, 0]), DivClass([1, 0]))
    with pytest.raises(ValueError, match="^class dimension does not match lattice rank$"):
        lat.form(DivClass([1, 0, 0]))
    with pytest.raises(ValueError, match="^dot product of vectors of different lengths$"):
        dot((1, 0, 0), (1, 0))


def test_pairing_bilinear_seeded():
    lat = BBFLattice([[0, 1, 0], [1, -2, 0], [0, 0, -2]], 1, 1)
    rng = random.Random(23)
    for _ in range(40):
        x, y, z = (
            DivClass([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)])
            for _ in range(3)
        )
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert lat.pair(x, y) == lat.pair(y, x)
        assert lat.pair(x + z, y) == lat.pair(x, y) + lat.pair(z, y)
        assert lat.pair(s * x, y) == s * lat.pair(x, y)


def test_sub_gram():
    lat = hyperbolic()
    g = sub_gram(lat, [DivClass([0, 1]), DivClass([1, -1])])
    assert g == [[-2, 2], [2, 0]]


def test_negative_definite_matches_minor_oracle_seeded():
    lat = BBFLattice([[2, 1, 0], [1, -2, 0], [0, 0, -2]], 1, 1)
    rng = random.Random(29)
    agree_true = agree_false = 0
    for _ in range(120):
        k = rng.randint(1, 3)
        classes = [
            DivClass([rng.randint(-3, 3) for _ in range(3)]) for _ in range(k)
        ]
        got = projector_accepts(lat, classes)
        assert got == negative_definite(lat, classes)
        g = sub_gram(lat, classes)
        # The minor test requires linear independence; detect dependence
        # via a zero row in the reduced echelon sense: inertia has a kernel.
        if inertia(g)[2] > 0:
            assert not got
        else:
            assert got == leading_minors_negative_definite(g)
        agree_true += got
        agree_false += not got
    assert agree_true and agree_false  # both branches exercised


def test_negative_definite_degenerate_families():
    lat = hyperbolic()
    d = DivClass([0, 1])
    for classes, definite in (
        ([], True),
        ([d], True),
        # A repeated class spans a line but the family is linearly dependent.
        ([d, d], False),
        ([DivClass([1, 0])], False),  # q > 0
        ([DivClass([1, 1])], False),  # q = 0
    ):
        assert projector_accepts(lat, classes) == negative_definite(lat, classes) == definite
    # A zero class is never definite, and Geometry refuses it as a prime
    # before any Schur step.
    assert not negative_definite(lat, [DivClass([0, 0])])
    with pytest.raises(GeometryError, match=r"^primes\[0\]: prime class must be nonzero$"):
        projector_accepts(lat, [DivClass([0, 0])])
