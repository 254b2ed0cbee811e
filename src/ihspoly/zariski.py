"""Divisorial Zariski decomposition over a declared prime catalog.

Every pseudo-effective class D splits uniquely as D = P(D) + N(D) with
P(D) movable (q-nonnegative against every prime), N(D) a nonnegative
combination of exceptional primes whose Gram matrix is negative
definite, and P(D) orthogonal to each prime in the support of N(D).

The computation is the classical support-growing iteration: start from
the exceptional primes pairing negatively with D, solve the Gram system
for their coefficients (which simultaneously enforces orthogonality),
and enlarge the support with any prime that still pairs negatively with
the candidate positive part.  Supports only ever grow, so the loop ends
after at most #catalog rounds; failures of negative definiteness or
coefficient positivity are reported as catalog inconsistencies rather
than patched over.

P is linear on each chamber, so the inverse Gram matrix of a support is
built once per geometry (Geometry.support_inverse) and every later
solve on that support is the primes' pairings with D times that
inverse; the negative part sum x_i E_i is then summed in integers over
one common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ConsistencyError, DomainError
from .geometry import Geometry, is_movable, is_pseudo_effective
from .lattice import DivClass, dot, linear_combination


@dataclass(frozen=True)
class ZariskiDecomposition:
    """positive + negative_part == the decomposed class, exactly."""

    positive: DivClass
    negative: tuple[tuple[str, Fraction], ...]  # (prime name, coeff > 0), sorted
    negative_part: DivClass

    @property
    def support(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.negative)

    def coefficient(self, name: str) -> Fraction:
        for n, c in self.negative:
            if n == name:
                return c
        return Fraction(0)


def _support_solve(geom: Geometry, d: DivClass, names: tuple[str, ...]) -> list[Fraction]:
    """Coefficients x with Gram_S x = (q(D, E_i))_i for the sorted support
    names S, by the cached inverse; orthogonalizes D - N."""
    rhs = [geom.prime_pair(d, n) for n in names]
    return [dot(row, rhs) for row in geom.support_inverse(names)]


def decompose(geom: Geometry, d: DivClass) -> ZariskiDecomposition:
    """Divisorial Zariski decomposition of a pseudo-effective class."""
    if not is_pseudo_effective(geom, d):
        raise DomainError("class is not pseudo-effective in the declared cone")
    support = [p for p in geom.exceptional_primes if geom.prime_pair(d, p.name) < 0]
    for _ in range(len(geom.primes) + 1):
        if support:
            names = tuple(sorted(p.name for p in support))
            solved = dict(zip(names, _support_solve(geom, d, names)))
            coeffs = [solved[p.name] for p in support]
            for p, x in zip(support, coeffs):
                if x < 0:
                    raise ConsistencyError(
                        f"negative coefficient {x} for prime {p.name!r}; "
                        "the declared prime catalog is inconsistent"
                    )
            negative_part = linear_combination(coeffs, [p.cls for p in support], geom.rank)
        else:
            coeffs = []
            negative_part = geom.zero()
        positive = d - negative_part
        in_support = {p.name for p in support}
        joining = [
            p for p in geom.primes
            if p.name not in in_support and geom.prime_pair(positive, p.name) < 0
        ]
        if not joining:
            pairs = sorted(
                (p.name, x) for p, x in zip(support, coeffs) if x > 0
            )
            return ZariskiDecomposition(positive, tuple(pairs), negative_part)
        support = support + joining
    raise ConsistencyError("Zariski support enlargement did not stabilize")


def positive_part(geom: Geometry, d: DivClass) -> DivClass:
    return decompose(geom, d).positive


def null_set(geom: Geometry, p: DivClass) -> frozenset[str]:
    """Primes orthogonal to a movable class."""
    if not is_movable(geom, p):
        raise DomainError("null_set requires a movable class")
    return frozenset(q.name for q in geom.primes if geom.prime_pair(p, q.name) == 0)


def is_big(geom: Geometry, d: DivClass) -> bool:
    """Big <=> the positive part has positive BBF square."""
    if not is_pseudo_effective(geom, d):
        return False
    dec = decompose(geom, d)
    return geom.lattice.square(dec.positive) > 0


def chamber_id(geom: Geometry, d: DivClass) -> frozenset[str]:
    """Support of N(D): the Boucksom-Zariski chamber of a big class."""
    dec = decompose(geom, d)
    if geom.lattice.square(dec.positive) <= 0:
        raise DomainError("chamber_id requires a big class")
    return dec.support


def divisorial_base_loci(geom: Geometry, d: DivClass) -> tuple[frozenset[str], frozenset[str]]:
    """(divisorial B_-, divisorial B_+) of a big class, as prime-name sets."""
    dec = decompose(geom, d)
    if geom.lattice.square(dec.positive) <= 0:
        raise DomainError("divisorial base loci require a big class")
    lat = geom.lattice
    b_minus = dec.support
    b_plus = frozenset(
        q.name
        for q in geom.primes
        if q.exceptional and lat.pair(dec.positive, q.cls) == 0
    )
    return b_minus, b_plus


def volume(geom: Geometry, d: DivClass) -> Fraction:
    """vol(D) = c_X q(P(D))^n for big D, else 0."""
    return volume_from_square(geom, geom.lattice.square(decompose(geom, d).positive))


def volume_from_square(geom: Geometry, q: Fraction) -> Fraction:
    """The volume c_X q^n of a class whose positive part has square q,
    or 0 when q <= 0 (not big)."""
    if q <= 0:
        return Fraction(0)
    return geom.lattice.fujiki * q ** geom.lattice.half_dim


def restricted_volume(geom: Geometry, d: DivClass, prime_name: str) -> Fraction:
    """vol_{X|E}(D) = c_X q(P(D))^{n-1} q(P(D), E).

    Defined only when E is not contained in the divisorial part of the
    augmented base locus of D (exceptional and orthogonal to P(D)).
    """
    prime = geom.prime(prime_name)
    dec = decompose(geom, d)
    q = geom.lattice.square(dec.positive)
    if q <= 0:
        raise DomainError("restricted volume requires a big class")
    cross = geom.lattice.pair(dec.positive, prime.cls)
    if prime.exceptional and cross == 0:
        raise DomainError(
            f"restricted volume undefined: {prime_name!r} lies in the "
            "divisorial augmented base locus"
        )
    return geom.lattice.fujiki * q ** (geom.lattice.half_dim - 1) * cross


def chamber_positive_part(
    geom: Geometry, d: DivClass, support_names: Iterable[str]
) -> tuple[DivClass, dict[str, Fraction]]:
    """The chamber-local linear formula for P at fixed support.

    Solves the Gram system for the given support without sign checks;
    on the chamber this equals decompose(d).positive, and the formulas
    of two adjacent chambers agree exactly on their common wall.
    """
    names = tuple(sorted(set(support_names)))
    primes = [geom.prime(n) for n in names]
    if not primes:
        return d, {}
    coeffs = _support_solve(geom, d, names)
    negative = linear_combination(coeffs, [p.cls for p in primes], geom.rank)
    return d - negative, dict(zip(names, coeffs))
