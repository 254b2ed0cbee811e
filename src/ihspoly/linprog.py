"""Exact polyhedral cones by double description.

A cone is stored by its facet inequalities f . x >= 0 and the equations
e . x = 0 of its linear span, each a primitive integer row, so sign
tests stay in ints; rational input vectors are rescaled on entry.  The
facets of a generated cone (Eff) are the extreme rays of its dual inside
the span, and Mov's rays come from the same ``extreme_rays``, whose work
follows the rays it meets; membership and the largest step along a
direction are sign tests and an integer min-ratio over the facets.  The
chamber closures and the polygon-cone generators are read off Mov's
rays and the primes, with no cone computation of their own.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

from .errors import DomainError
from .lattice import DivClass, dot
from .linalg import kernel

EXTREME_RAY_PAIR_LIMIT = 10**5  # one cut of extreme_rays pairs at most this many rays

Vec = tuple[Fraction, ...]
Row = tuple[int, ...]


def _rows(vectors: Sequence[Vec]) -> list[Row]:
    """Each vector as an integer row on its ray: positive rescaling keeps
    every half-space and equation."""
    return [DivClass(v).num for v in vectors]


class InfeasibleError(Exception):
    """The starting point lies outside the cone."""


class Cone(NamedTuple):
    """The cone {x : f . x >= 0 for every facet, e . x = 0 for every equation},
    facets and equations as primitive integer rows."""

    facets: tuple[Row, ...]
    equations: tuple[Row, ...]

    def contains(self, v: Vec) -> bool:
        return all(not dot(e, v) for e in self.equations) and all(
            dot(f, v) >= 0 for f in self.facets
        )


def _combine(x: int, r: Row, y: int, s: Row) -> Row:
    """The primitive integer row on the ray of x*r - y*s."""
    v = [x * a - y * b for a, b in zip(r, s)]
    g = gcd(*v)
    return tuple(a // g for a in v)


def extreme_rays(facets: Sequence[Vec], equations: Sequence[Vec], n: int) -> list[Row]:
    """Primitive integer extreme rays, sorted, of a pointed cone in Q^n.

    An incremental double description (Motzkin et al. 1953; Fukuda and
    Prodon 1996), each ray with the bitmask of its tight half-spaces.
    The half-spaces independent on the span (one kernel solve) cut out a
    simplicial start; each other one is a cut that keeps the rays with
    a . r >= 0 and joins each pair a . r > 0 > a . s whose common tight
    set no third ray's holds, by (a . r) s - (a . s) r.  A cut with more
    than EXTREME_RAY_PAIR_LIMIT pairs raises DomainError before the first.
    """
    halfspaces, span = _rows(facets), kernel(_rows(equations), n)
    rays, cuts, taken = [], [], 0  # rays as (ray, tight bitmask); taken: the start's half-spaces
    for bit, a in enumerate(halfspaces):
        i = next((i for i, w in enumerate(span) if dot(a, w)), None)
        if i is None:
            cuts.append(bit)
            continue
        v = span.pop(i)
        if (av := dot(a, v)) < 0:
            v, av = tuple(-c for c in v), -av
        span = [_combine(av, w, dot(a, w), v) for w in span]
        rays = [(_combine(av, r, dot(a, r), v), m | 1 << bit) for r, m in rays] + [(v, taken)]
        taken |= 1 << bit
    dim = len(rays)  # adjacent rays share at least dim - 2 tight half-spaces
    for bit in cuts:
        signed = [(dot(halfspaces[bit], r), r, m) for r, m in rays]
        plus, minus = [t for t in signed if t[0] > 0], [t for t in signed if t[0] < 0]
        if (pairs := len(plus) * len(minus)) > EXTREME_RAY_PAIR_LIMIT:
            raise DomainError(f"a cut of a cone in dimension {dim} pairs {len(plus)} x {len(minus)} = {pairs} "
                              f"rays, more than EXTREME_RAY_PAIR_LIMIT = {EXTREME_RAY_PAIR_LIMIT}")
        rays = [(r, m | (not x) << bit) for x, r, m in signed if x >= 0]
        for x, r, m in plus:
            for y, s, k in minus:
                common = m & k
                if common.bit_count() >= dim - 2 and sum(common & t == common for *_, t in signed) == 2:
                    rays.append((_combine(x, s, y, r), common | 1 << bit))
    return sorted(r for r, _ in rays)


def generated_cone(generators: Sequence[Vec], n: int) -> Cone:
    """Facets and span equations of cone(generators).

    The facets are the extreme rays of the dual cone inside the span,
    which is pointed because the generators span it.
    """
    generators = _rows(generators)
    equations = tuple(kernel(generators, n))
    return Cone(tuple(extreme_rays(generators, equations, n)), equations)


def max_step(cone: Cone, direction: Row, start: Row, downs: Sequence[int] | None = None) -> tuple[int, int]:
    """sup { t >= 0 : start - t*direction in cone }, exact, as a pair
    (num, den) of ints in lowest terms with den > 0.

    direction and start are integer rows; a class passes its numerator,
    and the step rescales by direction.den / start.den.  downs, when
    given, are the facets' pairings with direction, in facet order, so
    a caller stepping along one direction many times pairs it once.
    The least f . start / f . direction over the facets with
    f . direction > 0 is kept by cross-multiplication.  Raises
    InfeasibleError when start is outside the cone.  direction is a
    nonzero class of the pointed cone (a prime of Eff by rule (c), or a
    chamber generator of Mov), so the span equations vanish on it and,
    -direction being outside, some facet pairs positively with it: the
    step is bounded.
    """
    if downs is None:
        downs = [dot(f, direction) for f in cone.facets]
    num = den = 0  # num/den: the least ratio so far; den = 0 before the first
    for f, down in zip(cone.facets, downs):
        up = dot(f, start)
        if up < 0:
            raise InfeasibleError("start lies outside the cone")
        if down > 0 and (not den or up * den < num * down):
            num, den = up, down
    if any(dot(e, start) for e in cone.equations):
        raise InfeasibleError("start lies outside the cone")
    g = gcd(num, den)
    return num // g, den // g
