"""Exact arithmetic in a real quadratic extension Q(sqrt(d)).

A :class:`Surd` is the value (an + bn*sqrt(d)) / den with integers an,
bn, den and d: den > 0, gcd(an, bn, den) == 1, and d a square-free
integer > 1 whenever bn != 0 (d == 0 when bn == 0).  That form is
unique, so equality and hashing are structural; the ``a``/``b``
properties give the rational parts a = an/den and b = bn/den as
Fractions.  Every computation in this library lives in a single
extension at a time (thresholds solve one quadratic equation, and every
later quantity is an affine image of its root), so arithmetic between
two irrational surds with different discriminants is refused rather
than coerced into a degree-4 field: that refusal is a bug signal, not a
feature gap.

Construction from outside input canonicalizes aggressively: square
factors are pulled out of d, sqrt(0) and sqrt(1) collapse into the
rational part, and b == 0 forces d == 0.  Arithmetic runs on the
integer parts: int and Fraction operands are read as (n, 0, 1) and
(numerator, 0, denominator) without building a Surd or a Fraction, and
each result is reduced by one three-way gcd (its d is an operand's
square-free d, or 0 when the radical part cancels).

The order is exact, with no floats: x < y is the sign of x - y.  In one
extension that is one sign, of a + b*sqrt(d), from a^2 against b^2*d.
Two radicals cannot be combined but can be compared: x - y = X + Y with
X = a + b*sqrt(d1) and Y = c*sqrt(d2), and when X and Y differ in sign
one squaring, X^2 - Y^2 in Q(sqrt(d1)), says which is larger.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DomainError

RatLike = Union[int, Fraction]

_ZERO = Fraction(0)


class DiscriminantMixError(ArithmeticError):
    """Arithmetic attempted between irrational surds over different d."""


TRIAL_DIVISOR_LIMIT = 10**6  # squarefree_decompose divides by the p below it only


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 0 as r*r*d with d square-free; return (r, d).

    Trial division by the p < TRIAL_DIVISOR_LIMIT.  A square cofactor,
    tested by math.isqrt first and after each prime divides, ends the
    search: a rank-2 discriminant is a fixed square-free part times a
    square, so it costs a few divisions however large D is.  A cofactor
    left at TRIAL_DIVISOR_LIMIT^2 or above raises DomainError.
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
    while p * p <= m and p < TRIAL_DIVISOR_LIMIT:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            r *= p ** (e // 2)
            if e % 2:
                d *= p
            root = math.isqrt(m)
            if root * root == m:
                return r * root, d
        p += 1 if p == 2 else 2
    if m >= TRIAL_DIVISOR_LIMIT**2:  # no p below the limit divides m, and m is no square
        raise DomainError(f"the square-free part of {n} needs a prime factor of {m} "
                          f"at or above TRIAL_DIVISOR_LIMIT = {TRIAL_DIVISOR_LIMIT}")
    return r, d * m


def _parts(x) -> "tuple[int, int, int, int] | None":
    """(an, bn, den, d) of a Surd, int or Fraction; None for other types."""
    if isinstance(x, Surd):
        return x._an, x._bn, x._den, x._d
    if isinstance(x, int):
        return int(x), 0, 1, 0
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator, 0
    return None


def _make(an: int, bn: int, den: int, d: int) -> "Surd":
    """Trusted constructor: den != 0 and d square-free > 1 whenever
    bn != 0.  Reduces by gcd(an, bn, den) and makes den positive."""
    g = math.gcd(an, bn, den)
    if den < 0:
        g = -g
    if g != 1:
        an, bn, den = an // g, bn // g, den // g
    out = object.__new__(Surd)
    out._an, out._bn, out._den, out._d = an, bn, den, d if bn else 0
    return out


def _sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d), d square-free > 1 whenever b != 0:
    so b == 0 whenever d == 0, as a rational frame (d = 0) relies on."""
    if not b:
        return (a > 0) - (a < 0)
    if not a or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    # Mixed signs: compare a^2 with b^2 d.  Equality is impossible
    # because d is square-free and > 1 here.
    return 1 if (a * a - b * b * d > 0) == (a > 0) else -1


def _sign_two(a: int, b: int, d1: int, c: int, d2: int) -> int:
    """Exact sign of X + Y, X = a + b*sqrt(d1) and Y = c*sqrt(d2), for
    nonzero b and c and square-free d1 != d2 > 1, so X and Y are nonzero.
    With opposite signs the larger |X| or |Y| wins, so the sign is
    sign(X) * sign(X^2 - Y^2), and X^2 - Y^2 lies in Q(sqrt(d1))."""
    x = _sign(a, b, d1)
    if (x > 0) == (c > 0):
        return x
    return x * _sign(a * a + b * b * d1 - c * c * d2, 2 * a * b, d1)


def _mix_error(d1: int, d2: int) -> DiscriminantMixError:
    return DiscriminantMixError(f"cannot combine sqrt({d1}) with sqrt({d2})")


# -- the integer frame --------------------------------------------------------
# Code that forms many products over values of one extension lifts them
# once to integer pairs (a, b) over a shared denominator den, the value
# being (a + b*sqrt(d))/den, and works on ints; these names are all it
# needs of the representation.


def common_discriminant(ds, action: str = "combine") -> int:
    """The one square-free d > 1 among the discriminants ds, 0 standing
    for a rational value, or 0 when all are; two different ones raise
    DiscriminantMixError, worded "cannot <action> over sqrt(d1) and
    sqrt(d2)"."""
    ds = set(ds)
    ds.discard(0)
    if len(ds) > 1:
        raise DiscriminantMixError(
            f"cannot {action} over " + " and ".join(f"sqrt({d})" for d in sorted(ds))
        )
    return ds.pop() if ds else 0


def to_frame(values, action: str = "combine") -> tuple[int, int, list[tuple[int, int]]]:
    """(d, den, pairs): every value (a Surd, int or Fraction) as its pair
    (a, b) over one common denominator den > 0 and the values'
    common_discriminant d."""
    parts = [_parts(x) or _parts(Surd(x)) for x in values]
    d = common_discriminant((p[3] for p in parts), action)
    den = math.lcm(*(p[2] for p in parts))
    return d, den, [(an * (den // n), bn * (den // n)) for an, bn, n, _ in parts]


def frame_sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for a frame pair."""
    return _sign(a, b, d)


def from_frame(a: int, b: int, den: int, d: int) -> "Surd":
    """The Surd (a + b*sqrt(d))/den of a frame pair; den != 0."""
    return _make(a, b, den, d)


class Surd:
    """(an + bn*sqrt(d)) / den in lowest terms; see the module docstring."""

    __slots__ = ("_an", "_bn", "_den", "_d")

    def __init__(self, a: RatLike = 0, b: RatLike = 0, d: int = 0):
        if not b and not d and isinstance(a, (int, Fraction)):
            self._an, self._bn, self._den, self._d = _parts(a)
            return
        a = Fraction(a)
        b = Fraction(b)
        if d < 0:
            raise ValueError("negative discriminant")
        if b:
            r, d = squarefree_decompose(int(d))
            b *= r
            if d == 0:
                b = _ZERO
            elif d == 1:
                a += b
                b = _ZERO
        # lcm of the two denominators leaves gcd(an, bn, den) == 1
        den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
        self._an = a.numerator * (den // a.denominator)
        self._bn = b.numerator * (den // b.denominator)
        self._den = den
        self._d = d if b else 0

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
        return Fraction(self._an, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._bn, self._den)

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return not self._bn

    def as_fraction(self) -> Fraction:
        if self._bn:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._an, self._den)

    @property
    def conjugate(self) -> "Surd":
        return _make(self._an, -self._bn, self._den, self._d)

    @property
    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 d (product with the conjugate)."""
        an, bn = self._an, self._bn
        return Fraction(an * an - bn * bn * self._d, self._den * self._den)

    def sign(self) -> int:
        return _sign(self._an, self._bn, self._d)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        an, bn, den, d = o
        if bn and self._bn and d != self._d:
            raise _mix_error(self._d, d)
        n = self._den
        if den == n:
            return _make(self._an + an, self._bn + bn, n, self._d or d)
        return _make(self._an * den + an * n, self._bn * den + bn * n, n * den, self._d or d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._an, -self._bn, self._den, self._d)

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        an, bn, den, d = o
        if bn and self._bn and d != self._d:
            raise _mix_error(self._d, d)
        n = self._den
        if den == n:
            return _make(self._an - an, self._bn - bn, n, self._d or d)
        return _make(self._an * den - an * n, self._bn * den - bn * n, n * den, self._d or d)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _make(*o) - self

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a1, b1, n1, d1 = self._an, self._bn, self._den, self._d
        a2, b2, n2, d2 = o
        if not b2:
            return _make(a1 * a2, b1 * a2, n1 * n2, d1)
        if not b1:
            return _make(a1 * a2, a1 * b2, n1 * n2, d2)
        if d1 != d2:
            raise _mix_error(d1, d2)
        return _make(a1 * a2 + b1 * b2 * d1, a1 * b2 + b1 * a2, n1 * n2, d1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a1, b1, n1, d1 = self._an, self._bn, self._den, self._d
        a2, b2, n2, d2 = o
        if b1 and b2 and d1 != d2:
            raise _mix_error(d1, d2)
        d = d1 or d2
        norm = a2 * a2 - b2 * b2 * d
        if not norm:
            raise ZeroDivisionError("division by zero surd")
        # (a1 + b1 r)/n1 * n2 (a2 - b2 r) / (a2^2 - b2^2 d), r = sqrt(d)
        return _make(
            n2 * (a1 * a2 - b1 * b2 * d), n2 * (b1 * a2 - a1 * b2), n1 * norm, d
        )

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _make(*o) / self

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
        return bool(self._an or self._bn)

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return (self._an, self._bn, self._den, self._d) == o

    def _cmp(self, other):
        """Sign of self - other, or NotImplemented for foreign types."""
        o = _parts(other)
        if o is None:
            return NotImplemented
        an, bn, den, d = o
        n = self._den
        if bn and self._bn and d != self._d:
            return _sign_two(self._an * den - an * n, self._bn * den, self._d, -bn * n, d)
        return _sign(self._an * den - an * n, self._bn * den - bn * n, self._d or d)

    def __lt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0

    def __hash__(self):
        if not self._bn:
            return hash(self._an) if self._den == 1 else hash(Fraction(self._an, self._den))
        return hash((self._an, self._bn, self._den, self._d))

    # -- rendering ------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self._d)

    def __repr__(self):
        return f"Surd({self.a!r}, {self.b!r}, {self._d})"

    def __str__(self):
        a, b = self.a, self.b
        if not b:
            return str(a)
        mag = abs(b)
        core = f"sqrt({self._d})" if mag == 1 else f"{mag}*sqrt({self._d})"
        if not a:
            return core if b > 0 else f"-{core}"
        joiner = "+" if b > 0 else "-"
        return f"{a}{joiner}{core}"


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
