"""Exact arithmetic in a real quadratic extension Q(sqrt(d)).

A :class:`Surd` stores a value a + b*sqrt(d) with a, b rational and d a
square-free non-negative integer.  Every computation in this library
lives in a single such extension at a time (thresholds solve one
quadratic equation, and every later quantity is an affine image of its
root), so arithmetic between two irrational surds with different
discriminants is refused rather than coerced into a degree-4 field:
that refusal is a bug signal, not a feature gap.

Construction from outside input canonicalizes aggressively: square
factors are pulled out of d, sqrt(0) and sqrt(1) collapse into the
rational part, and b == 0 forces d == 0.  Arithmetic results are
canonical by construction (their d is an operand's square-free d, or 0
when b cancels), so they skip that work; sums and differences of two
rationals, and products with a rational, also skip the other part's
arithmetic and the discriminant check.  Equality is therefore
structural, and the total order is decided exactly by a sign analysis
of a^2 - b^2*d, never by floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Union

RatLike = Union[int, Fraction]

_ZERO = Fraction(0)


class DiscriminantMixError(ArithmeticError):
    """Arithmetic attempted between irrational surds over different d."""


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 0 as r*r*d with d square-free; return (r, d).

    Trial division; inputs at desk scale are tiny.  A perfect square is
    detected first via math.isqrt so the common case costs one isqrt.
    """
    if n < 0:
        raise ValueError("squarefree_decompose requires a non-negative integer")
    if n == 0:
        return 1, 0
    root = math.isqrt(n)
    if root * root == n:
        return root, 1
    r, d, m = 1, 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            r *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return r, d * m


@total_ordering
class Surd:
    """a + b*sqrt(d) with exact rational a, b and square-free d >= 0."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: RatLike = 0, b: RatLike = 0, d: int = 0):
        a = Fraction(a)
        b = Fraction(b)
        if d < 0:
            raise ValueError("negative discriminant")
        if b:
            r, d = squarefree_decompose(int(d))
            b *= r
            if d == 0:
                b = Fraction(0)
            elif d == 1:
                a += b
                b = Fraction(0)
                d = 0
        if not b:
            d = 0
            b = Fraction(0)
        self._a, self._b, self._d = a, b, d

    @classmethod
    def _raw(cls, a: Fraction, b: Fraction, d: int) -> "Surd":
        """Trusted constructor for parts that are already canonical: a and
        b are Fractions and d is square-free and > 1 whenever b != 0."""
        out = object.__new__(cls)
        out._a, out._b, out._d = a, b, d if b else 0
        return out

    @classmethod
    def sqrt(cls, x: RatLike) -> "Surd":
        """Exact square root of a non-negative rational."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("square root of a negative rational")
        # sqrt(p/q) = sqrt(p*q) / q
        r, d = squarefree_decompose(x.numerator * x.denominator)
        return cls(0, Fraction(r, x.denominator), d)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return not self._b

    def as_fraction(self) -> Fraction:
        if self._b:
            raise ValueError(f"{self} is irrational")
        return self._a

    @property
    def conjugate(self) -> "Surd":
        return Surd._raw(self._a, -self._b, self._d)

    @property
    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 d (product with the conjugate)."""
        return self._a * self._a - self._b * self._b * self._d

    def sign(self) -> int:
        a, b = self._a, self._b
        if not b:
            return (a > 0) - (a < 0)
        if not a:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Mixed signs: compare a^2 with b^2 d.  Equality is impossible
        # because d is square-free and > 1 here.
        n = self.norm
        if a > 0:  # b < 0: positive iff a^2 > b^2 d
            return 1 if n > 0 else -1
        return 1 if n < 0 else -1  # a < 0, b > 0

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Surd | None":
        if isinstance(other, Surd):
            return other
        if isinstance(other, Fraction):
            return Surd._raw(other, _ZERO, 0)
        if isinstance(other, int):
            return Surd._raw(Fraction(other), _ZERO, 0)
        return None

    def _common_d(self, other: "Surd") -> int:
        if self._b and other._b and self._d != other._d:
            raise DiscriminantMixError(
                f"cannot combine sqrt({self._d}) with sqrt({other._d})"
            )
        return self._d if self._b else other._d

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._b and not o._b:
            return Surd._raw(self._a + o._a, _ZERO, 0)
        d = self._common_d(o)
        return Surd._raw(self._a + o._a, self._b + o._b, d)

    __radd__ = __add__

    def __neg__(self):
        return Surd._raw(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._b and not o._b:
            return Surd._raw(self._a - o._a, _ZERO, 0)
        d = self._common_d(o)
        return Surd._raw(self._a - o._a, self._b - o._b, d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b sqrt(d)) * r = a r + b r sqrt(d) for rational r; a zero
        # product b r sends d to 0 in _raw.
        if not o._b:
            r = o._a
            return Surd._raw(self._a * r, self._b * r, self._d)
        if not self._b:
            r = self._a
            return Surd._raw(o._a * r, o._b * r, o._d)
        d = self._common_d(o)
        return Surd._raw(
            self._a * o._a + self._b * o._b * d,
            self._a * o._b + self._b * o._a,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._common_d(o)
        n = o.norm
        if not n:
            raise ZeroDivisionError("division by zero surd")
        # 1/(a + b sqrt(d)) = (a - b sqrt(d)) / (a^2 - b^2 d)
        return (self * o.conjugate) * (Fraction(1) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = Surd(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return bool(self._a or self._b)

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self._a, self._b, self._d) == (o._a, o._b, o._d)

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        try:
            return (self - o).sign() < 0
        except DiscriminantMixError:
            # Distinct discriminants still have a well-defined order:
            # the sign of (a1-a2) + b1 sqrt(d1) - b2 sqrt(d2), decided
            # exactly from rational enclosures of both radicals.
            return _lt_mixed(self, o)

    def __hash__(self):
        if not self._b:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    # -- rendering ------------------------------------------------------

    def __float__(self) -> float:
        return float(self._a) + float(self._b) * math.sqrt(self._d)

    def __repr__(self):
        return f"Surd({self._a!r}, {self._b!r}, {self._d})"

    def __str__(self):
        if not self._b:
            return str(self._a)
        mag = abs(self._b)
        core = f"sqrt({self._d})" if mag == 1 else f"{mag}*sqrt({self._d})"
        if not self._a:
            return core if self._b > 0 else f"-{core}"
        joiner = "+" if self._b > 0 else "-"
        return f"{self._a}{joiner}{core}"


def _lt_mixed(x: Surd, y: Surd) -> bool:
    """Exact x < y for surds over different discriminants.

    Used only by comparisons (never arithmetic): ordering across
    extensions is well defined even though sums are not representable.
    x - y = r + b1 sqrt(d1) - b2 sqrt(d2) with r rational, whose exact
    sign comes from rational enclosures of both radicals.
    """
    # x < y  <=>  x - y < 0  <=>  b1 sqrt(d1) - b2 sqrt(d2) < -r
    r = x.a - y.a
    lhs_b1, lhs_d1 = x.b, x.d
    lhs_b2, lhs_d2 = y.b, y.d
    return _surd_gap_sign(r, lhs_b1, lhs_d1, -lhs_b2, lhs_d2) < 0


def _surd_gap_sign(r: Fraction, b1: Fraction, d1: int, b2: Fraction, d2: int) -> int:
    """Exact sign of r + b1 sqrt(d1) + b2 sqrt(d2)."""
    # Refine rational enclosures of each sqrt until the interval sum
    # excludes zero; terminates unless the value is exactly zero, which
    # we rule out first via the (squared) algebraic test.
    if _is_exact_zero(r, b1, d1, b2, d2):
        return 0
    lo1, hi1 = _sqrt_bounds(d1, 1)
    lo2, hi2 = _sqrt_bounds(d2, 1)
    prec = 1
    while True:
        lo = r + (b1 * lo1 if b1 >= 0 else b1 * hi1) + (b2 * lo2 if b2 >= 0 else b2 * hi2)
        hi = r + (b1 * hi1 if b1 >= 0 else b1 * lo1) + (b2 * hi2 if b2 >= 0 else b2 * lo2)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2
        lo1, hi1 = _sqrt_bounds(d1, prec)
        lo2, hi2 = _sqrt_bounds(d2, prec)


def _is_exact_zero(r, b1, d1, b2, d2) -> bool:
    # r + b1 sqrt(d1) + b2 sqrt(d2) == 0 with d1 != d2 square-free:
    # only possible when enough parts vanish to live in one extension.
    if not b1:
        return Surd(r, b2, d2) == 0 if (r or b2) else True
    if not b2:
        return Surd(r, b1, d1) == 0 if (r or b1) else True
    # Both radicals present over distinct square-free d1 != d2 > 1:
    # {1, sqrt(d1), sqrt(d2)} is linearly independent over Q.
    return False


def _sqrt_bounds(d: int, prec: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(d) <= hi with hi - lo <= 1/prec."""
    scale = 4 * prec * prec
    lo = math.isqrt(d * scale)
    return Fraction(lo, 2 * prec), Fraction(lo + 1, 2 * prec)


def quadratic_roots(a: RatLike, b: RatLike, c: RatLike) -> tuple[Surd, ...]:
    """Real roots of a t^2 + b t + c = 0, ascending, as exact surds.

    A linear equation yields one root; a contradiction (0 = c != 0)
    yields none; the identically-zero equation is refused because every
    t solves it.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not a:
        if not b:
            if not c:
                raise ValueError("identically zero equation has every root")
            return ()
        return (Surd(-c / b),)
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    if not disc:
        return (Surd(-b / (2 * a)),)
    sq = Surd.sqrt(disc)
    half = Fraction(1, 2) / a
    r1 = (Surd(-b) - sq) * half
    r2 = (Surd(-b) + sq) * half
    return (r1, r2) if r1 < r2 else (r2, r1)


def smallest_positive_root(a: RatLike, b: RatLike, c: RatLike) -> Surd | None:
    """Smallest strictly positive root of a t^2 + b t + c = 0, or None."""
    for root in quadratic_roots(a, b, c):
        if root.sign() > 0:
            return root
    return None
