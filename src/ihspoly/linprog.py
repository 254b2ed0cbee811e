"""Exact polyhedral cones by brute force over facet subsets.

A cone is stored by its facet inequalities f . x >= 0 and the equations
e . x = 0 of its linear span, each a primitive integer row, so sign
tests on integer vectors stay in ints; rational input vectors are
rescaled to integer rows on entry.  One routine, ``extreme_rays``,
turns such a description into rays: every extreme ray of a pointed cone
in Q^n is the one-dimensional kernel of the span equations together
with n - 1 - rank(equations) facets that are tight on it, and
``linalg.kernel`` returns that kernel fraction-free, as a primitive
integer vector.  The facets of a generated cone are the extreme rays of
its dual inside the span, and membership and the largest step along a
direction are then sign tests and a min-ratio over the facets.  The
cones built here are Eff (generated_cone) and Mov (extreme_rays); the
chamber closures and the polygon-cone generators are read off Mov's
rays and the primes, with no cone computation of their own.  The
subset count grows exponentially with the rank, so ``extreme_rays``
refuses, by a DomainError, a cone with more than
EXTREME_RAY_SUBSET_LIMIT subsets to solve; every comparison is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple, Sequence

from .errors import DomainError
from .lattice import DivClass, dot
from .linalg import kernel

EXTREME_RAY_SUBSET_LIMIT = 10**6  # extreme_rays solves at most this many facet subsets

Vec = tuple[Fraction, ...]
Row = tuple[int, ...]


def _rows(vectors: Sequence[Vec]) -> list[Row]:
    """Each vector as an integer row on its ray: positive rescaling keeps
    every half-space and equation, and integer rows keep the kernel and
    the sign tests in ints."""
    return [DivClass(v).num for v in vectors]


class InfeasibleError(Exception):
    """The starting point lies outside the cone."""


class UnboundedError(Exception):
    """The step along the direction is unbounded."""


class Cone(NamedTuple):
    """The cone {x : f . x >= 0 for every facet, e . x = 0 for every equation},
    facets and equations as primitive integer rows."""

    facets: tuple[Row, ...]
    equations: tuple[Row, ...]

    def contains(self, v: Vec) -> bool:
        return all(not dot(e, v) for e in self.equations) and all(
            dot(f, v) >= 0 for f in self.facets
        )


def extreme_rays(facets: Sequence[Vec], equations: Sequence[Vec], n: int) -> list[Row]:
    """Primitive integer extreme rays, sorted, of a pointed cone in Q^n.

    The equations are independent, as the span equations of a Cone are.
    Each subset of n - 1 - len(equations) facets is one kernel solve;
    more than EXTREME_RAY_SUBSET_LIMIT subsets raise DomainError before
    the first.
    """
    equations = _rows(equations)
    size = n - 1 - len(equations)
    if size < 0:
        return []
    halfspaces = _rows(facets)
    if (count := comb(len(halfspaces), size)) > EXTREME_RAY_SUBSET_LIMIT:
        raise DomainError(f"the extreme rays of a cone with {len(halfspaces)} facets in "
                          f"dimension {size + 1} need {count} facet subsets, more than "
                          f"EXTREME_RAY_SUBSET_LIMIT = {EXTREME_RAY_SUBSET_LIMIT}")
    found = set()
    for subset in combinations(halfspaces, size):
        ker = kernel([*subset, *equations], n)
        if len(ker) != 1:
            continue
        ray = ker[0]
        values = [dot(f, ray) for f in halfspaces]
        if min(values, default=0) >= 0:
            found.add(ray)
        elif max(values) <= 0:
            found.add(tuple(-c for c in ray))
    return sorted(found)


def generated_cone(generators: Sequence[Vec], n: int) -> Cone:
    """Facets and span equations of cone(generators).

    The facets are the extreme rays of the dual cone inside the span,
    which is pointed because the generators span it.
    """
    generators = _rows(generators)
    equations = tuple(kernel(generators, n))
    return Cone(tuple(extreme_rays(generators, equations, n)), equations)


def max_step(cone: Cone, direction: Vec, start: Vec) -> Fraction:
    """sup { t >= 0 : start - t*direction in cone }, exact.

    Raises InfeasibleError when start itself is outside the cone and
    UnboundedError when the whole ray stays inside (the cone contains
    -direction).  A direction leaving the span allows no step at all.
    Classes may be passed as their integer numerators: the signs stay,
    and the step rescales by direction.den / start.den.
    """
    if not cone.contains(start):
        raise InfeasibleError("start lies outside the cone")
    if any(dot(e, direction) for e in cone.equations):
        return Fraction(0)
    best = None
    for f in cone.facets:
        down = dot(f, direction)
        if down > 0:
            ratio = Fraction(dot(f, start), down)
            if best is None or ratio < best:
                best = ratio
    if best is None:
        raise UnboundedError("the cone contains the whole ray")
    return best

