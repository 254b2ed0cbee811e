"""Picard-lattice model: rational divisor classes and the BBF pairing.

The quadratic form is the Beauville-Bogomolov-Fujiki form of an
irreducible holomorphic symplectic manifold restricted to the
Neron-Severi space: integral (here: rational) Gram matrix of signature
(1, rank-1).  Volumes are recovered from it through the Fujiki
constant, which the surrounding geometry supplies; this module only
knows the bilinear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .linalg import inertia

Rat = Fraction


def primitive_vector(coords: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], Fraction]:
    """The primitive integral vector on the ray of coords (sign kept) and
    the positive factor c that scales coords onto it.

    The numerator of c is the least common denominator of coords, since
    that denominator is coprime to the content of the cleared vector.
    The zero vector maps to itself with c = 1.
    """
    k = lcm(*(c.denominator for c in coords))
    ints = [int(c * k) for c in coords]
    g = gcd(*ints) or 1
    return tuple(Fraction(v, g) for v in ints), Fraction(k, g)


_ZERO = Fraction(0)


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    """Exact x . y over the nonzero coordinates of x."""
    total = _ZERO
    for a, b in zip(x, y, strict=True):
        if a:
            total += a * b
    return total


@dataclass(frozen=True)
class DivClass:
    """A rational divisor class: coordinate vector in a fixed basis."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Iterable[Fraction | int]):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "DivClass") -> "DivClass":
        if not isinstance(other, DivClass):
            return NotImplemented
        return DivClass(a + b for a, b in zip(self.coords, other.coords, strict=True))

    def __sub__(self, other: "DivClass") -> "DivClass":
        if not isinstance(other, DivClass):
            return NotImplemented
        return DivClass(a - b for a, b in zip(self.coords, other.coords, strict=True))

    def __neg__(self) -> "DivClass":
        return DivClass(-a for a in self.coords)

    def scale(self, factor: Fraction | int) -> "DivClass":
        f = Fraction(factor)
        return DivClass(f * a for a in self.coords)

    __rmul__ = scale

    def primitive(self) -> "DivClass":
        """The primitive integral generator of the same ray (sign kept)."""
        return DivClass(primitive_vector(self.coords)[0])

    def __repr__(self):
        return "DivClass((%s))" % ", ".join(str(c) for c in self.coords)


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

    @property
    def rank(self) -> int:
        return len(self.gram)

    def signature(self) -> tuple[int, int, int]:
        return inertia(self.gram)

    def pair(self, x: DivClass, y: DivClass) -> Fraction:
        """BBF pairing q(x, y)."""
        if x.dim != self.rank or y.dim != self.rank:
            raise ValueError("class dimension does not match lattice rank")
        total = Fraction(0)
        for i, xi in enumerate(x.coords):
            if xi:
                row = self.gram[i]
                total += xi * sum(row[j] * yj for j, yj in enumerate(y.coords) if yj)
        return total

    def square(self, x: DivClass) -> Fraction:
        return self.pair(x, x)

    def sub_gram(self, classes: Sequence[DivClass]) -> list[list[Fraction]]:
        return [[self.pair(a, b) for b in classes] for a in classes]

    def is_negative_definite(self, classes: Sequence[DivClass]) -> bool:
        """Whether the span of the classes is q-negative-definite.

        Linearly dependent families are never definite (the Gram matrix
        picks up a kernel), matching the brute-force leading-minor test
        (-1)^k det_k > 0 on independent families.
        """
        if not classes:
            return True
        g = self.sub_gram(classes)
        return inertia(g) == (0, len(classes), 0)
