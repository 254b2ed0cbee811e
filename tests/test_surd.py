"""Exact quadratic-extension arithmetic: identities, ordering, roots."""

import decimal
import math
import random
from fractions import Fraction

import pytest

from ihspoly import DiscriminantMixError, DomainError, Surd, quadratic_roots, smallest_positive_root
from ihspoly import surd
from ihspoly.surd import (
    TRIAL_DIVISOR_LIMIT,
    common_discriminant,
    frame_sign,
    from_frame,
    squarefree_decompose,
    to_frame,
)


# -- squarefree decomposition ------------------------------------------


def brute_squarefree(n: int) -> tuple[int, int]:
    """Largest r with r*r | n, found by descending trial."""
    if n == 0:
        return 1, 0
    for r in range(math.isqrt(n), 0, -1):
        if n % (r * r) == 0:
            return r, n // (r * r)
    raise AssertionError("unreachable: r = 1 always divides")


def test_squarefree_decompose_matches_brute_force():
    for n in range(0, 500):
        r, d = squarefree_decompose(n)
        assert r * r * d == n
        assert (r, d) == brute_squarefree(n)


def test_squarefree_decompose_rejects_negative():
    with pytest.raises(ValueError):
        squarefree_decompose(-4)


def test_squarefree_decompose_stops_at_a_square_cofactor(monkeypatch):
    # The rank-2 discriminant of fano_lines at 1000000007*A + 1000000009*B
    # is 3 (4 * 1000000007)^2 = 2^4 * 3 * 1000000007^2: once 2 and 3 are
    # divided out the cofactor is a square, so those two trial divisors
    # settle it.
    n = 48000000672000002352
    assert n == 2**4 * 3 * 1000000007**2
    monkeypatch.setattr(surd, "TRIAL_DIVISOR_LIMIT", 4)  # tries 2 and 3 only
    assert squarefree_decompose(n) == (4 * 1000000007, 3)


def test_squarefree_decompose_settles_or_names_the_limit(monkeypatch):
    # 1000003 and 1000033 are primes above the limit, so the cofactor
    # 1000003 * 1000033^2 is not a square and has no divisor to try.
    assert TRIAL_DIVISOR_LIMIT == 10**6
    with pytest.raises(DomainError, match="TRIAL_DIVISOR_LIMIT = 1000000"):
        squarefree_decompose(1000003 * 1000033**2)
    monkeypatch.setattr(surd, "TRIAL_DIVISOR_LIMIT", 100)
    with pytest.raises(DomainError, match="TRIAL_DIVISOR_LIMIT = 100"):
        squarefree_decompose(2 * 101 * 103)  # cofactor 10403 >= 100^2
    # a square cofactor, or one below the limit squared, is settled
    assert squarefree_decompose(2 * 101**2) == (101, 2)
    assert squarefree_decompose(2 * 101**2 * 103**2) == (101 * 103, 2)
    assert squarefree_decompose(9973) == (1, 9973)  # a prime below 100^2


def test_squarefree_part_is_squarefree():
    for n in range(1, 500):
        _, d = squarefree_decompose(n)
        for p in range(2, math.isqrt(d) + 1):
            assert d % (p * p) != 0


# -- construction and normalization ------------------------------------


def test_non_squarefree_discriminant_normalizes():
    assert Surd(0, 1, 8) == Surd(0, 2, 2)
    assert Surd(0, 1, 12) == Surd(0, 2, 3)
    assert Surd(0, Fraction(1, 2), 4) == Surd(1)


def test_perfect_square_discriminant_collapses_to_rational():
    s = Surd(3, 2, 9)
    assert s.is_rational
    assert s.as_fraction() == 9


def test_zero_discriminant_kills_radical_part():
    assert Surd(5, 7, 0) == Surd(5)


def test_zero_b_clears_discriminant():
    s = Surd(3, 0, 5)
    assert s.d == 0
    assert s == 3


def test_negative_discriminant_rejected():
    with pytest.raises(ValueError):
        Surd(0, 1, -3)


def test_sqrt_constructor():
    assert Surd.sqrt(4) == 2
    assert Surd.sqrt(Fraction(1, 2)) == Surd(0, Fraction(1, 2), 2)
    assert Surd.sqrt(18) == Surd(0, 3, 2)
    assert Surd.sqrt(0) == 0
    with pytest.raises(ValueError):
        Surd.sqrt(-1)


def test_as_fraction_refuses_irrational():
    with pytest.raises(ValueError):
        Surd(0, 1, 2).as_fraction()


# -- arithmetic identities ----------------------------------------------


def test_product_of_conjugates():
    # (1 + sqrt(5))(1 - sqrt(5)) = 1 - 5 = -4
    assert Surd(1, 1, 5) * Surd(1, -1, 5) == Surd(-4)


def test_square_of_unit():
    # (2 - sqrt(3))^2 = 7 - 4 sqrt(3)
    assert Surd(2, -1, 3) ** 2 == Surd(7, -4, 3)


def test_inverse_of_unit():
    # 1 / (2 - sqrt(3)) = 2 + sqrt(3)
    assert 1 / Surd(2, -1, 3) == Surd(2, 1, 3)


def test_cube():
    # (1 + sqrt(2))^3 = 7 + 5 sqrt(2)
    assert Surd(1, 1, 2) ** 3 == Surd(7, 5, 2)


def test_norm_is_product_with_conjugate():
    s = Surd(Fraction(3, 2), Fraction(-5, 4), 7)
    assert (s * s.conjugate).as_fraction() == s.norm


def test_division_round_trips():
    rng = random.Random(11)
    for _ in range(50):
        d = rng.choice((2, 3, 5, 7))
        x = Surd(rng.randint(-6, 6), rng.randint(-6, 6), d)
        y = Surd(rng.randint(-6, 6), rng.randint(-6, 6), d)
        if not y:
            continue
        assert (x / y) * y == x


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Surd(1, 1, 2) / Surd(0)


def test_mixed_rational_arithmetic():
    s = Surd(1, 1, 5)
    assert s + 1 == Surd(2, 1, 5)
    assert 1 + s == Surd(2, 1, 5)
    assert 2 * s == Surd(2, 2, 5)
    assert s - Fraction(1, 2) == Surd(Fraction(1, 2), 1, 5)
    assert 3 - s == Surd(2, -1, 5)
    assert s / 2 == Surd(Fraction(1, 2), Fraction(1, 2), 5)
    assert 4 / Surd(0, 2, 5) == Surd(0, Fraction(2, 5), 5)


def test_discriminant_mix_rejected_in_arithmetic():
    with pytest.raises(DiscriminantMixError):
        Surd.sqrt(2) + Surd.sqrt(3)
    with pytest.raises(DiscriminantMixError):
        Surd(1, 1, 2) * Surd(1, 1, 7)


def test_rational_surd_mixes_with_any_discriminant():
    # A rational value carries no radical, so it combines freely.
    assert Surd(3, 0, 2) + Surd(0, 1, 7) == Surd(3, 1, 7)
    assert Surd(2) * Surd(0, 1, 3) == Surd(0, 2, 3)


def test_abs_and_bool():
    assert abs(Surd(-2, 0, 0)) == 2
    assert abs(Surd(1, -1, 3)) == Surd(-1, 1, 3)  # 1 - sqrt(3) is negative
    assert not Surd(0)
    assert Surd(0, 1, 2)


# -- sign and ordering ----------------------------------------------------


def test_sign_mixed_parts():
    assert Surd(1, -1, 3).sign() == -1  # 1 - 1.732...
    assert Surd(2, -1, 3).sign() == 1  # 2 - 1.732...
    assert Surd(-1, 1, 3).sign() == 1
    assert Surd(-2, 1, 3).sign() == -1
    assert Surd(0).sign() == 0


def test_ordering_matches_float_oracle_seeded():
    rng = random.Random(2026)
    checked = 0
    while checked < 300:
        d = rng.choice((2, 3, 5, 6, 7, 10))
        x = Surd(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                 Fraction(rng.randint(-40, 40), rng.randint(1, 9)), d)
        y = Surd(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                 Fraction(rng.randint(-40, 40), rng.randint(1, 9)), d)
        fx, fy = float(x), float(y)
        if abs(fx - fy) < 1e-9:  # too close for the float oracle
            continue
        assert (x < y) == (fx < fy)
        assert (x > y) == (fx > fy)
        checked += 1


def test_cross_discriminant_ordering():
    assert Surd.sqrt(2) < Surd.sqrt(3)
    assert Surd(1, 1, 2) < Surd(1, 1, 3)
    assert Surd(0, 3, 2) > Surd(0, 2, 3)  # 4.24 vs 3.46
    # sqrt(2) + 1 vs sqrt(5): 2.414 > 2.236
    assert Surd(1, 1, 2) > Surd(0, 1, 5)
    # Tight pair: 3 sqrt(11) = 9.9499, 2 sqrt(6) + 5 = 9.8990
    assert Surd(0, 3, 11) > Surd(5, 2, 6)


def test_cross_discriminant_ordering_float_oracle_seeded():
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        d1, d2 = rng.sample((2, 3, 5, 6, 7, 10, 13), 2)
        x = Surd(rng.randint(-20, 20), rng.randint(-20, 20), d1)
        y = Surd(rng.randint(-20, 20), rng.randint(-20, 20), d2)
        fx, fy = float(x), float(y)
        if abs(fx - fy) < 1e-9:
            continue
        assert (x < y) == (fx < fy)
        checked += 1


def test_exact_ties_across_constructions():
    assert Surd(0, 1, 8) == Surd(0, 2, 2)
    assert Surd(1, 1, 2) - Surd(0, 1, 2) == 1
    assert not Surd(0, 1, 2) < Surd(0, 2, 2) / 2
    assert not Surd(0, 2, 2) / 2 < Surd(0, 1, 2)
    # Rational equal to a degenerate cross-discriminant compare
    assert not Surd(4, -2, 2) < Surd(4, -2, 2)


@pytest.mark.parametrize("digits", [10, 50, 200, 1000])
def test_cross_discriminant_order_at_tiny_gaps(digits):
    # x = r + sqrt(2) against y = sqrt(3), r the floor and the ceiling
    # of sqrt(3) - sqrt(2) at the given number of digits, so x - y is
    # below 10^-digits in size and takes both signs; the negations swap
    # them.  The Decimal oracle works at twice the digits and more.
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * digits + 40
        D = decimal.Decimal
        scale = 10**digits
        floor = int(((D(3).sqrt() - D(2).sqrt()) * scale).to_integral_value(decimal.ROUND_FLOOR))
        signs = set()
        for k in (floor, floor + 1):
            r = Fraction(k, scale)
            gap = D(k) / D(scale) + D(2).sqrt() - D(3).sqrt()
            assert D(10) ** (-digits - 20) < abs(gap) < D(10) ** -digits
            s = 1 if gap > 0 else -1
            signs.add(s)
            for x, y, sx in ((Surd(r, 1, 2), Surd(0, 1, 3), s), (Surd(-r, -1, 2), Surd(0, -1, 3), -s)):
                assert (x < y, x <= y, x > y, x >= y) == (sx < 0, sx < 0, sx > 0, sx > 0)
                assert (y < x, y <= x, y > x, y >= x) == (sx > 0, sx > 0, sx < 0, sx < 0)
        assert signs == {-1, 1}


def test_comparison_with_plain_numbers():
    assert Surd(0, 1, 2) < 2
    assert Surd(0, 1, 2) > 1
    assert Surd(0, 1, 2) > Fraction(7, 5)
    assert Surd(3) == 3
    assert 3 == Surd(3)


def test_hash_consistent_with_fraction():
    assert hash(Surd(5)) == hash(Fraction(5))
    assert hash(Surd(Fraction(7, 3))) == hash(Fraction(7, 3))
    assert hash(Surd(0, 1, 8)) == hash(Surd(0, 2, 2))
    seen = {Surd(1, 1, 5): "x"}
    assert seen[Surd(1, 1, 5)] == "x"


def assert_canonical(r: Surd, expected: Surd) -> None:
    """r, built by the trusted constructor, is what full canonicalization
    of its own parts gives, and equals the expected value."""
    ref = Surd(r.a, r.b, r.d)
    assert (type(r.a), type(r.b), type(r.d)) == (Fraction, Fraction, int)
    assert (r.a, r.b, r.d) == (ref.a, ref.b, ref.d)
    assert hash(r) == hash(ref)
    assert (r.a, r.b, r.d) == (expected.a, expected.b, expected.d)


def test_arithmetic_results_are_canonical_seeded():
    rng = random.Random(17)

    def rat():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    # 8, 12 and 18 are not square-free: the operands canonicalize first.
    for raw_d in (2, 3, 5, 8, 12, 18):
        for _ in range(60):
            x = Surd(rat(), rat(), raw_d)
            d = x.d
            partners = [
                Surd(rat()),  # rational
                Surd(rat(), rat(), raw_d),  # same extension
                Surd(rat(), -x.b, d),  # b cancels in the sum
                Surd(rat(), x.b, d),  # b cancels in the difference
                x.conjugate,  # b cancels in the product
            ]
            for y in partners:
                e = d or y.d  # x itself may have come out rational
                assert_canonical(x + y, Surd(x.a + y.a, x.b + y.b, e))
                assert_canonical(x - y, Surd(x.a - y.a, x.b - y.b, e))
                assert_canonical(
                    x * y, Surd(x.a * y.a + x.b * y.b * e, x.a * y.b + x.b * y.a, e)
                )
                if y:
                    q = x / y
                    assert_canonical(q, q)
                    assert_canonical(q * y, x)
            assert_canonical(-x, Surd(-x.a, -x.b, d))
            assert_canonical(x.conjugate, Surd(x.a, -x.b, d))
            if x:
                assert_canonical(x / x, Surd(1))
            c = rat()
            assert_canonical(x + c, Surd(x.a + c, x.b, d))
            assert_canonical(c - x, Surd(c - x.a, -x.b, d))
            assert_canonical(3 * x, Surd(3 * x.a, 3 * x.b, d))
            assert_canonical(x * 0, Surd(0))


def test_rational_operand_fast_paths_seeded():
    rng = random.Random(29)

    def rat():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    for raw_d in (2, 3, 12):
        for _ in range(40):
            x = Surd(rat(), Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)), raw_d)
            d = x.d
            for c in (rat(), Fraction(0)):
                for r in (Surd(c), c, int(c)):
                    v = Fraction(r.a) if isinstance(r, Surd) else Fraction(r)
                    assert_canonical(x * r, Surd(x.a * v, x.b * v, d))
                    assert_canonical(r * x, Surd(x.a * v, x.b * v, d))
                    assert_canonical(x + r, Surd(x.a + v, x.b, d))
                    assert_canonical(r + x, Surd(x.a + v, x.b, d))
                    assert_canonical(x - r, Surd(x.a - v, x.b, d))
                    assert_canonical(r - x, Surd(v - x.a, -x.b, d))
                    w = Surd(rat())
                    assert_canonical(w * r, Surd(w.a * v))
                    assert_canonical(w + r, Surd(w.a + v))
                    assert_canonical(w - r, Surd(w.a - v))
            assert (x * 0).d == 0 and (Surd(0) * x).d == 0


# -- rendering -------------------------------------------------------------


def test_str_forms():
    assert str(Surd(2, -1, 3)) == "2-sqrt(3)"
    assert str(Surd(0, 1, 2)) == "sqrt(2)"
    assert str(Surd(0, -2, 5)) == "-2*sqrt(5)"
    assert str(Surd(1, 2, 5)) == "1+2*sqrt(5)"
    assert str(Surd(Fraction(1, 2))) == "1/2"
    assert str(Surd(0)) == "0"


def test_repr_round_trips():
    s = Surd(Fraction(1, 2), Fraction(-3, 4), 7)
    assert eval(repr(s)) == s  # noqa: S307 -- repr of our own value type


def test_float_conversion():
    assert float(Surd(2, -1, 3)) == pytest.approx(2 - math.sqrt(3))


# -- quadratic roots --------------------------------------------------------


def test_quadratic_roots_surd_pair():
    # 2 t^2 - 8 t + 2 = 0  =>  t = 2 -/+ sqrt(3)
    assert quadratic_roots(2, -8, 2) == (Surd(2, -1, 3), Surd(2, 1, 3))


def test_quadratic_roots_rational_pair():
    assert quadratic_roots(1, 0, -4) == (Surd(-2), Surd(2))
    assert quadratic_roots(1, 3, 2) == (Surd(-2), Surd(-1))


def test_quadratic_roots_double_root():
    assert quadratic_roots(1, -2, 1) == (Surd(1),)


def test_quadratic_roots_no_real_roots():
    assert quadratic_roots(1, 0, 1) == ()


def test_quadratic_roots_linear_and_degenerate():
    assert quadratic_roots(0, -2, 3) == (Surd(Fraction(3, 2)),)
    assert quadratic_roots(0, 0, 5) == ()
    with pytest.raises(ValueError):
        quadratic_roots(0, 0, 0)


def test_quadratic_roots_satisfy_equation():
    rng = random.Random(5)
    for _ in range(100):
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        if a == 0 and b == 0 and c == 0:
            continue
        for t in quadratic_roots(a, b, c):
            assert Surd(a) * t * t + Surd(b) * t + Surd(c) == 0


def test_smallest_positive_root():
    assert smallest_positive_root(2, -8, 2) == Surd(2, -1, 3)
    assert smallest_positive_root(1, 0, -4) == Surd(2)
    assert smallest_positive_root(1, 3, 2) is None
    assert smallest_positive_root(0, -2, 3) == Surd(Fraction(3, 2))
    assert smallest_positive_root(1, 0, 1) is None
    # Zero is not strictly positive.
    assert smallest_positive_root(1, 1, 0) is None


def test_integer_frame_round_trips():
    values = [Surd(Fraction(1, 2), Fraction(1, 3), 2), Surd(3), Surd(Fraction(-5, 4)), Surd(0, 1, 8)]
    d, den, pairs = to_frame(values)
    assert (d, den) == (2, 12)
    assert [from_frame(a, b, den, d) for a, b in pairs] == values
    assert [frame_sign(a, b, d) for a, b in pairs] == [x.sign() for x in values]
    assert to_frame([]) == (0, 1, [])
    assert to_frame([Fraction(2, 3), 1]) == (0, 3, [(2, 0), (3, 0)])
    assert common_discriminant([Surd(1, 1, 5).d, 0, Surd(0, 3, 5).d]) == 5
    mixed = [Surd(0, 1, 2), Surd(0, 1, 3), Surd(0, 1, 2)]
    with pytest.raises(DiscriminantMixError, match=r"^cannot add over sqrt\(2\) and sqrt\(3\)$"):
        common_discriminant([x.d for x in mixed], "add")
    with pytest.raises(DiscriminantMixError):
        to_frame(mixed)
