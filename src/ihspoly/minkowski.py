"""Minkowski bases on the movable cone.

A chamber is a negative-definite set S of exceptional prime classes;
the classes whose negative support is exactly S form the (possibly
empty) locus Sigma_S, and the closure of Sigma_S is spanned by the
extremal rays of Mov intersected with S-perp together with the primes
in S.  That intersection is a face of Mov, and it meets span(S) only in
0, so the closure's extremal rays are read off with no cone
computation: the movable rays orthogonal to S and the primes of S,
made primitive.  For a flag prime E the Minkowski basis collects one
distinguished generator per chamber not containing E -- the primitive
class on the ray of E + sum x_i E_i orthogonal to every E_i in S --
plus the isotropic extremal rays of the movable cone.  Every
big-and-movable class then decomposes as a nonnegative rational
combination of basis elements by walking down the chambers, and the
polygons add up along the way.

The generator of S is P_S(E) made primitive, one product with the
rows of the support's record (Geometry.support_projector), which is
one rank-one update of a smaller chamber's record.  A chamber's
closure, a flag's basis and cone generators, and the isotropic rays
are built here once per catalog and kept on the geometry by
Geometry.kept; this module writes no store of its own, and a set of
primes that a caller names and that is no chamber has no closure and no
generator (DomainError).  The walk's own null sets are not refused that
way: a null set that is not negative definite is the catalog's fault.
The walk's step tau along a generator is the largest one that keeps the
leftover movable: one max_step over Mov (Geometry.mov_cone, Eff cut by
the primes' form rows), so both the prime walls and the facets of Eff
bound it.  The global polygon cone's generators are the closures' rays.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from .errors import ConsistencyError, DomainError
from .geometry import Geometry
from .lattice import DivClass, dot, linear_combination
from .linprog import max_step
from .zariski import ZariskiDecomposition, _chamber_record, decompose, null_set


def enumerate_chambers(geom: Geometry) -> tuple[frozenset[str], ...]:
    """All negative-definite subsets of the exceptional primes.

    The empty set (the movable chamber) always comes first; the rest
    follow by size and then by name, so the order is reproducible.
    """
    return geom.chambers


def chamber_generator(geom: Geometry, chamber: frozenset[str], flag_name: str) -> DivClass:
    """Primitive generator of the ray of the flag pushed into S-perp.

    The ray of E + sum x_i E_i with pair(-, E_j) = 0 for all E_j in S,
    i.e. of P_S(E), one product with the rows of the support's record.
    The x_i are nonnegative: Eff is built first in polyhedral mode, so
    rule (d) holds (round mode has it by construction), and then -Gram_S
    is a nonsingular M-matrix whose inverse maps the nonnegative q(E, E_j)
    to x.  A set that is no chamber is refused, by name, as
    chamber_closure_rays refuses it.
    """
    flag = geom.prime(flag_name)
    if flag.name in chamber:
        raise DomainError("flag prime cannot lie in the chamber it generates against")
    if geom.mode == "polyhedral":
        geom.eff_cone  # checks rules (c) and (d) before any chamber record is built
    return _chamber_record(geom, chamber).positive(flag.cls).primitive()


def movable_cone_rays(geom: Geometry) -> tuple[DivClass, ...]:
    """Extremal rays of Mov = Eff cut by pair(-, Q) >= 0 for all primes Q."""
    if geom.mode != "polyhedral":
        raise DomainError("movable cone rays require polyhedral mode")
    return geom.movable_rays


def isotropic_extremal_rays(geom: Geometry) -> tuple[DivClass, ...]:
    """The movable extremal rays sitting on the isotropic boundary q = 0."""
    return geom.kept("isotropic", (), _isotropic_extremal_rays)


def _isotropic_extremal_rays(geom: Geometry, _) -> tuple[DivClass, ...]:
    lat = geom.lattice
    return tuple(r for r in movable_cone_rays(geom) if lat.square(r) == 0)


def chamber_closure_rays(geom: Geometry, chamber: frozenset[str]) -> tuple[DivClass, ...]:
    """Extremal rays of the closure of Sigma_S, sorted by their integer
    numerators; the chamber may be given as any iterable of its prime names.

    The closure is (Mov intersected with S-perp) + cone(S).  Mov lies in
    {pair(-, Q) >= 0} for every prime Q, so Mov intersected with S-perp
    is the face of Mov spanned by the movable rays orthogonal to every
    prime of S.  S is negative definite, so span(S) meets S-perp only in
    0: the closure is the direct sum of that face and the simplicial
    cone(S), and its extremal rays are those of the two summands.  A set
    that holds a non-exceptional prime, or whose support record fails
    its Schur step (not negative definite), is no chamber: DomainError.
    """
    return geom.kept("closure", frozenset(chamber), _chamber_closure_rays)


def _chamber_closure_rays(geom: Geometry, chamber: frozenset[str]) -> tuple[DivClass, ...]:
    primes = [geom.prime(name) for name in chamber]
    movable = movable_cone_rays(geom)  # refuses round mode, and builds Eff before any record
    _chamber_record(geom, chamber)
    rows = [geom.prime_forms[p.name][0] for p in primes]
    face = [r for r in movable if not any(dot(r.num, row) for row in rows)]
    return tuple(sorted(face + [p.cls.primitive() for p in primes], key=lambda r: r.num))


class ConePoint(NamedTuple):
    """A rational generator (class, t, y) of the polygon cone."""

    cls: DivClass
    t: Fraction
    y: Fraction


def _primitive_cone_point(num: tuple[int, ...], t: int, y: Fraction) -> tuple[int, ...]:
    """The primitive integer vector on the ray of (num, t, y), for an
    integer class num and an integer t."""
    vec = (*(v * y.denominator for v in num), t * y.denominator, y.numerator)
    g = gcd(*vec)
    return tuple(v // g for v in vec)


def cone_generators(geom: Geometry, prime_name: str) -> tuple[ConePoint, ...]:
    """Rational generators of the polygon cone over the effective cone.

    For every extremal generator D_i of a chamber closure the points
    (D_i, 0, q(P(D_i), E)) and (D_i, 0, 0) are emitted, plus (E, 1, 0);
    duplicates collapse after primitive rescaling.  Those generators are
    the movable rays and the exceptional primes: the empty chamber's
    closure is Mov, every exceptional prime (q < 0) is a chamber of its
    own, and each closure's rays are movable rays and primes of its
    chamber.  A movable ray pairs nonnegatively with every prime, so its
    Zariski support is empty and it is its own positive part.  Building
    Mov builds Eff, which checks rules (c) and (d): an exceptional prime
    E is pseudo-effective and pairs negatively with no other prime, so
    its support is {E} and P(E) = 0.  Nothing is decomposed.
    """
    return geom.kept("cone", prime_name, _cone_generators)


def _cone_generators(geom: Geometry, prime_name: str) -> tuple[ConePoint, ...]:
    if geom.mode != "polyhedral":
        raise DomainError("cone generators require polyhedral mode")
    prime = geom.prime(prime_name)
    movable, zero = geom.movable_rays, Fraction(0)
    points = {_primitive_cone_point(ray.num, 0, geom.prime_pair(ray, prime_name)) for ray in movable}
    rays = (*movable, *(p.cls.primitive() for p in geom.exceptional_primes))
    points.update(_primitive_cone_point(ray.num, 0, zero) for ray in rays)
    points.add(_primitive_cone_point(prime.cls.num, prime.cls.den, zero))  # (E, 1, 0) times E.den
    return tuple(
        ConePoint(DivClass(vec[:-2]), Fraction(vec[-2]), Fraction(vec[-1]))
        for vec in sorted(points)
    )


class BasisElement(NamedTuple):
    """One Minkowski basis member with its provenance."""

    cls: DivClass
    origin: str  # "chamber" or "isotropic"
    chamber: Optional[frozenset[str]] = None


def minkowski_basis(geom: Geometry, flag_name: str) -> tuple[BasisElement, ...]:
    """The Minkowski basis of the flag prime: one generator per chamber
    not containing the flag, then the isotropic extremal rays.

    Coinciding classes are listed once, keeping the first provenance.
    """
    return geom.kept("basis", flag_name, _minkowski_basis)


def _minkowski_basis(geom: Geometry, flag_name: str) -> tuple[BasisElement, ...]:
    if geom.mode != "polyhedral":
        raise DomainError("minkowski basis requires polyhedral mode")
    flag = geom.prime(flag_name)
    geom.eff_cone  # rules (c) and (d) name a bad catalog before the chambers are walked
    elements: list[BasisElement] = []
    seen: set[DivClass] = set()
    for chamber in enumerate_chambers(geom):
        if flag.name in chamber:
            continue
        cls = chamber_generator(geom, chamber, flag_name)
        if cls not in seen:
            seen.add(cls)
            elements.append(BasisElement(cls, "chamber", chamber))
    for ray in isotropic_extremal_rays(geom):
        if ray not in seen:
            seen.add(ray)
            elements.append(BasisElement(ray, "isotropic", None))
    return tuple(elements)


class MinkowskiDecomposition(NamedTuple):
    """P(D) = sum of coefficient * element.cls, plus the flag offset nu."""

    terms: tuple[tuple[Fraction, BasisElement], ...]
    nu: Fraction

    def reconstruct(self, rank: int) -> DivClass:
        return linear_combination(
            [coeff for coeff, _ in self.terms], [element.cls for _, element in self.terms], rank
        )


def _match_isotropic(geom: Geometry, m: DivClass) -> tuple[Fraction, BasisElement]:
    for ray in isotropic_extremal_rays(geom):
        ratio = m.ratio(ray)
        if ratio is not None and ratio > 0:
            return ratio, BasisElement(ray, "isotropic", None)
    raise ConsistencyError(
        "isotropic movable class is not a multiple of any listed extremal ray"
    )


def minkowski_decompose(geom: Geometry, d: DivClass, flag_name: str) -> MinkowskiDecomposition:
    """Decompose P(D) over the Minkowski basis of the flag prime.

    Each round subtracts as much of the current chamber's generator as
    the movable cone allows; the leftover lands on a wall and the walk
    repeats until zero or an isotropic ray remains.
    """
    if geom.mode != "polyhedral":
        raise DomainError("minkowski decomposition requires polyhedral mode")
    geom.prime(flag_name)  # an unknown flag is refused before decomposing
    return _minkowski_decompose(geom, decompose(geom, d), flag_name)


def _minkowski_decompose(
    geom: Geometry, dec: ZariskiDecomposition, flag_name: str
) -> MinkowskiDecomposition:
    """minkowski_decompose, given dec = decompose(geom, d) on a polyhedral
    geometry with a prime called flag_name."""
    nu = dec.coefficient(flag_name)
    lat = geom.lattice
    m = dec.positive
    terms: list[tuple[Fraction, BasisElement]] = []
    # The null set grows every round that does not end the walk: a prime
    # wall joins it, and after a facet of Eff the next round ends.
    for _ in range(2 * (len(geom.primes) + lat.rank) + 4):
        if m.is_zero:
            return MinkowskiDecomposition(tuple(terms), nu)
        if lat.square(m) == 0:
            terms.append(_match_isotropic(geom, m))
            return MinkowskiDecomposition(tuple(terms), nu)
        sigma = frozenset(null_set(geom, m))  # DomainError unless m is in Mov
        if flag_name in sigma:
            raise DomainError(
                "flag prime is orthogonal to the positive part; "
                "no chamber generator exists for it"
            )
        # sigma's generator; a null set that is not negative definite is
        # the catalog's fault, so its failed step stays a ConsistencyError
        gen = geom.support_projector(sigma).positive(geom.prime(flag_name).cls).primitive()
        # bounded: by rules (c) and (d) gen is a nonzero class of the pointed Eff
        num, den = max_step(geom.mov_cone, gen.num, m.num)
        tau = Fraction(num * gen.den, den * m.den)
        if tau <= 0:
            raise ConsistencyError(
                "chamber generator cannot be subtracted; catalog inconsistent"
            )
        terms.append((tau, BasisElement(gen, "chamber", sigma)))
        m = m - gen.scale(tau)
    raise ConsistencyError("minkowski decomposition exceeded the iteration cap")
