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
after at most #catalog + 1 rounds.  A support that is not negative
definite is reported as a catalog inconsistency rather than patched
over.  Building Eff checks that distinct primes pair nonnegatively
(Geometry's rule (d)), so minus the support's Gram matrix is an
M-matrix and each round adds a nonnegative correction to the last
round's coefficients: none is negative.

P is linear on each chamber S, so it is one fixed rational projector
P_S there: Geometry.support_projector builds it once per geometry as
integer matrices over one denominator, by one rank-one Schur update of
the record of S minus one prime, keyed by the support's frozenset of
names, and applying it on S is integer matrix-vector products with D's
numerators.
The support and joining tests are signs of integer dot products with
the primes' form rows, and a Fraction is built only for the
coefficients a decomposition returns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import ConsistencyError, DomainError
from .geometry import Geometry, SupportProjector, is_movable, is_pseudo_effective
from .lattice import DivClass, dot


class ZariskiDecomposition(NamedTuple):
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


def decompose(geom: Geometry, d: DivClass) -> ZariskiDecomposition:
    """Divisorial Zariski decomposition of a pseudo-effective class."""
    if not is_pseudo_effective(geom, d):
        raise DomainError("class is not pseudo-effective in the declared cone")
    forms = geom.prime_forms
    num, den = d.num, d.den
    support = frozenset(
        p.name for p in geom.exceptional_primes if dot(num, forms[p.name][0]) < 0
    )
    for _ in range(len(geom.primes) + 1):  # the support grows every round that does not return
        proj = geom.support_projector(support)
        # over proj.den * den; the empty support's projector is the identity
        positive = tuple(dot(row, num) for row in proj.rows) if support else num
        joining = [
            p.name for p in geom.primes
            if p.name not in support and dot(positive, forms[p.name][0]) < 0
        ]
        if not joining:
            pos = DivClass._raw(positive, proj.den * den)
            xs = (dot(row, num) for row in proj.coeff_rows)  # coefficient numerators, in name order
            negative = tuple((n, Fraction(x, proj.den * den)) for n, x in zip(proj.names, xs) if x > 0)
            return ZariskiDecomposition(pos, negative, d - pos)
        support = support.union(joining)
    raise ConsistencyError("Zariski support enlargement did not stabilize")


def null_set(geom: Geometry, p: DivClass) -> frozenset[str]:
    """Primes orthogonal to a movable class."""
    if not is_movable(geom, p):
        raise DomainError("null_set requires a movable class")
    return frozenset(name for name, (row, _) in geom.prime_forms.items() if dot(p.num, row) == 0)


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

    Applies the support's cached projector without sign checks;
    on the chamber this equals decompose(d).positive, and the formulas
    of two adjacent chambers agree exactly on their common wall.  A set
    that is no chamber is refused (see _chamber_record).
    """
    proj = _chamber_record(geom, support_names)
    return proj.positive(d), dict(zip(proj.names, proj.coefficients(d)))


def _chamber_record(geom: Geometry, names: Iterable[str]) -> SupportProjector:
    """The support record of a chamber a caller names.  A set that holds
    a non-exceptional prime, or whose record fails its Schur step (not
    negative definite), is no chamber: DomainError naming the set.  The
    supports the engine derives itself go to geom.support_projector, so
    that a failed step there still reports the catalog inconsistent."""
    chamber = frozenset(names)
    if not all(geom.prime(name).exceptional for name in chamber):
        raise DomainError(f"{sorted(chamber)} is not a chamber: it holds a non-exceptional prime")
    try:
        return geom.support_projector(chamber)
    except ConsistencyError:
        raise DomainError(f"{sorted(chamber)} is not a chamber: its Gram matrix is not "
                          "negative definite") from None
