"""Picard-lattice model: rational divisor classes and the BBF pairing.

The quadratic form is the Beauville-Bogomolov-Fujiki form of an
irreducible holomorphic symplectic manifold restricted to the
Neron-Severi space: integral (here: rational) Gram matrix of signature
(1, rank-1).  Volumes are recovered from it through the Fujiki
constant, which the surrounding geometry supplies; this module only
knows the bilinear algebra.

The arithmetic runs on Python ints.  A class is its integer numerators
over one positive denominator, and the Gram matrix is kept as integers
over one denominator as well, so a pairing is an integer double sum
and a Fraction is built only for the value it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .linalg import inertia

Rat = Fraction


def integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rational rows as integer rows over their least common denominator
    (1 when there are no entries)."""
    den = lcm(*(v.denominator for row in rows for v in row))
    return tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in rows), den


def dot(x: Sequence, y: Sequence):
    """Exact x . y; integer vectors give an int, rational ones a Fraction."""
    if len(x) != len(y):
        raise ValueError("dot product of vectors of different lengths")
    return sum(map(mul, x, y))


class DivClass:
    """A rational divisor class: the coordinates num[i] / den in a fixed basis.

    num is a tuple of ints and den > 0 an int, kept canonical by
    gcd(den, *num) == 1, so equality and hashing are structural.
    Instances are immutable.
    """

    __slots__ = ("num", "den")

    def __init__(self, coords: Iterable[Fraction | int]):
        coords = tuple(coords)
        if all(type(c) is int for c in coords):
            num, den = coords, 1
        else:
            # The lcm of reduced denominators is coprime to the content
            # of the cleared numerators, so the pair is canonical.
            (num,), den = integer_rows([[Fraction(c) for c in coords]])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _raw(cls, num: tuple[int, ...], den: int) -> "DivClass":
        """Trusted constructor from integers with den > 0; only divides
        out gcd(den, *num)."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple(v // g for v in num)
                den //= g
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"DivClass is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"DivClass is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return DivClass._raw, (self.num, self.den)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.num)

    @property
    def dim(self) -> int:
        return len(self.num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other):
        if not isinstance(other, DivClass):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def _combine(self, other: "DivClass", sign: int) -> "DivClass":
        """self + sign * other over the least common denominator."""
        a, b = self.den, other.den
        if a == b:
            num = tuple(x + sign * y for x, y in zip(self.num, other.num, strict=True))
            return DivClass._raw(num, a)
        g = gcd(a, b)
        fa, fb = b // g, sign * (a // g)
        num = tuple(x * fa + y * fb for x, y in zip(self.num, other.num, strict=True))
        return DivClass._raw(num, a * fa)

    def __add__(self, other: "DivClass") -> "DivClass":
        if not isinstance(other, DivClass):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "DivClass") -> "DivClass":
        if not isinstance(other, DivClass):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "DivClass":
        return DivClass._raw(tuple(-v for v in self.num), self.den)

    def scale(self, factor: Fraction | int) -> "DivClass":
        f = Fraction(factor)
        n = f.numerator
        return DivClass._raw(tuple(n * v for v in self.num), self.den * f.denominator)

    __rmul__ = scale

    def primitive(self) -> "DivClass":
        """The primitive integral generator of the same ray (sign kept)."""
        g = gcd(*self.num) or 1
        return DivClass._raw(tuple(v // g for v in self.num), 1)

    def ratio(self, other: "DivClass") -> Fraction | None:
        """The c with self == c * other, or None when there is none; 0
        when both are zero."""
        a, b = self.num, other.num
        k = next((i for i, v in enumerate(b) if v), None)
        if k is None:
            return None if any(a) else Fraction(0)
        if any(x * b[k] != y * a[k] for x, y in zip(a, b, strict=True)):
            return None
        return Fraction(a[k] * other.den, b[k] * self.den)

    def __repr__(self):
        return "DivClass((%s))" % ", ".join(str(c) for c in self.coords)


def linear_combination(coeffs: Sequence[Fraction | int], classes: Sequence[DivClass], rank: int) -> DivClass:
    """sum of coeffs[i] * classes[i], summed in integers over one denominator."""
    den = lcm(*(c.denominator * x.den for c, x in zip(coeffs, classes, strict=True)))
    total = [0] * rank
    for c, x in zip(coeffs, classes):
        f = c.numerator * (den // (c.denominator * x.den))
        if f:
            for i, v in enumerate(x.num):
                total[i] += f * v
    return DivClass._raw(tuple(total), den)


@dataclass(frozen=True)
class BBFLattice:
    """Rational quadratic lattice of signature (1, rank-1).

    gram       -- symmetric Gram matrix of the BBF form in the chosen basis
    fujiki     -- Fujiki constant c_X relating q^n to top self-intersection
    half_dim   -- n, for a manifold of complex dimension 2n
    """

    gram: tuple[tuple[Fraction, ...], ...]
    fujiki: Fraction
    half_dim: int

    def __init__(self, gram, fujiki, half_dim):
        rows = tuple(tuple(Fraction(v) for v in row) for row in gram)
        object.__setattr__(self, "gram", rows)
        object.__setattr__(self, "fujiki", Fraction(fujiki))
        object.__setattr__(self, "half_dim", int(half_dim))
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("gram matrix not square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("gram matrix not symmetric")
        if self.fujiki <= 0:
            raise ValueError("Fujiki constant must be positive")
        if self.half_dim < 1:
            raise ValueError("half_dim must be a positive integer")
        sig = inertia(rows)
        if sig != (1, n - 1, 0):
            raise ValueError(
                f"BBF form must have signature (1, rank-1); got {sig}"
            )
        # gram == igram / gden, so a pairing is one integer double sum.
        igram, gden = integer_rows(rows)
        object.__setattr__(self, "_gden", gden)
        object.__setattr__(self, "_igram", igram)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def signature(self) -> tuple[int, int, int]:
        return inertia(self.gram)

    def pair(self, x: DivClass, y: DivClass) -> Fraction:
        """BBF pairing q(x, y)."""
        xn, yn = x.num, y.num
        if len(xn) != self.rank or len(yn) != self.rank:
            raise ValueError("class dimension does not match lattice rank")
        total = 0
        for xi, row in zip(xn, self._igram):
            if xi:
                total += xi * sum(map(mul, row, yn))
        return Fraction(total, x.den * y.den * self._gden)

    def form(self, x: DivClass) -> tuple[tuple[int, ...], int]:
        """The form q(-, x) as an integer row and a positive denominator,
        in lowest terms: q(y, x) = (y.num . row) / (y.den * den)."""
        if len(x.num) != self.rank:
            raise ValueError("class dimension does not match lattice rank")
        row = tuple(sum(map(mul, r, x.num)) for r in self._igram)
        den = self._gden * x.den
        g = gcd(den, *row)
        return tuple(v // g for v in row), den // g

    def square(self, x: DivClass) -> Fraction:
        return self.pair(x, x)
