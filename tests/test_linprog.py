"""The exact cone engine against hand-checked cases and an independent
Caratheodory oracle (oracles.oracle_in_cone)."""

import random
from fractions import Fraction
from math import gcd

import pytest

from ihspoly.linprog import (
    InfeasibleError,
    UnboundedError,
    extreme_rays,
    generated_cone,
    max_step,
)
from ihspoly.lattice import DivClass
from oracles import oracle_in_cone, vec

F = Fraction


def rays_set(rays):
    return {tuple(r) for r in rays}


def cone(*gens):
    return generated_cone([vec(*g) for g in gens], len(gens[0]))


def cut(gens, functional, hyperplane=False):
    """Extreme rays of cone(gens) cut by functional . x >= 0 (or = 0)."""
    c = cone(*gens)
    f = vec(*functional)
    if hyperplane:
        return extreme_rays(c.facets, c.equations + (f,), len(f))
    return extreme_rays(c.facets + (f,), c.equations, len(f))


def random_vec(rng, lo, hi, n=3):
    return tuple(F(rng.randint(lo, hi)) for _ in range(n))


def step(c, direction, start):
    """max_step along rational vectors, as a Fraction: each passes its
    integer numerator, and the pair (num, den) rescales by
    direction.den / start.den."""
    direction, start = DivClass(direction), DivClass(start)
    num, den = max_step(c, direction.num, start.num)
    assert den > 0 and gcd(num, den) == 1
    return F(num * direction.den, den * start.den)


# -- membership ----------------------------------------------------------------


def test_in_cone_orthant():
    orthant = cone((1, 0), (0, 1))
    assert orthant.contains(vec(3, 2))
    assert orthant.contains(vec(0, 0))
    assert not orthant.contains(vec(-1, 2))


def test_in_cone_two_rays():
    c = cone((1, 0), (1, 1))
    assert c.contains(vec(2, 1))
    assert not c.contains(vec(0, 1))
    assert c.contains(vec(0, 0))


def test_in_cone_no_generators():
    c = generated_cone([], 2)
    assert c.facets == ()
    assert c.contains(vec(0, 0))
    assert not c.contains(vec(1, 0))


def test_membership_matches_caratheodory_oracle_seeded():
    rng = random.Random(43)
    outcomes = set()
    for _ in range(40):
        gens = [g for g in (random_vec(rng, -2, 2) for _ in range(4)) if any(g)]
        c = generated_cone(gens, 3)
        for _ in range(5):
            v = random_vec(rng, -3, 3)
            expected = oracle_in_cone(gens, v)
            assert c.contains(v) == expected, (gens, v)
            outcomes.add(expected)
    assert outcomes == {True, False}


# -- max_step -------------------------------------------------------------------


def test_max_step_orthant():
    orthant = cone((1, 0), (0, 1))
    start = vec(2, 3)
    assert step(orthant, vec(1, 0), start) == 2
    assert step(orthant, vec(1, 1), start) == 2
    assert step(orthant, vec(0, 1), start) == 3
    assert step(orthant, vec(2, 1), start) == 1


def test_max_step_is_a_reduced_integer_pair():
    # Ratios 9/4 and 3/2 are compared by cross-multiplication; the least,
    # 6/4, comes back in lowest terms, with downs handed in or not.
    orthant = cone((1, 0), (0, 1))
    assert orthant.facets == ((0, 1), (1, 0))
    assert max_step(orthant, (4, 4), (6, 9)) == (3, 2)
    assert max_step(orthant, (4, 4), (6, 9), (4, 4)) == (3, 2)
    assert max_step(orthant, (4, 4), (6, 9), (4, 0)) == (9, 4)  # the handed downs are the ones read
    assert max_step(orthant, (0, 2), (5, 0)) == (0, 1)


def test_max_step_start_outside():
    with pytest.raises(InfeasibleError):
        step(cone((1, 0), (0, 1)), vec(1, 0), vec(-1, 0))


def test_max_step_unbounded():
    with pytest.raises(UnboundedError):
        step(cone((1, 0), (0, 1)), vec(0, -1), vec(1, 1))


def test_max_step_lands_on_boundary():
    # Cone {0 <= y <= 2x}; start (2,2); direction (0,1).
    # start - t*(0,1) = (2, 2-t) stays inside iff 0 <= 2-t, so t_max = 2
    # and the segment exits through the y = 0 facet.
    c = cone((1, 0), (1, 2))
    t = step(c, vec(0, 1), vec(2, 2))
    assert t == 2
    end = (F(2), F(2) - t)
    assert c.contains(end)
    assert not c.contains((end[0], end[1] - F(1, 100)))


def test_max_step_tight_against_oracle_seeded():
    rng = random.Random(45)
    bounded = 0
    for _ in range(40):
        gens = [g for g in (random_vec(rng, -2, 2) for _ in range(4)) if any(g)]
        c = generated_cone(gens, 3)
        coeffs = [rng.randint(0, 3) for _ in gens]
        start = tuple(sum(k * g[i] for k, g in zip(coeffs, gens)) for i in range(3))
        direction = random_vec(rng, -2, 2)
        try:
            t = step(c, direction, start)
        except UnboundedError:
            assert oracle_in_cone(gens, tuple(-x for x in direction))
            continue
        bounded += 1
        assert t >= 0
        assert oracle_in_cone(gens, tuple(s - t * d for s, d in zip(start, direction)))
        beyond = t + F(1, 7)
        assert not oracle_in_cone(gens, tuple(s - beyond * d for s, d in zip(start, direction)))
    assert bounded >= 20


# -- extremal rays and cuts --------------------------------------------------------


def test_intersect_halfspace_cuts_orthant():
    assert rays_set(cut([(1, 0), (0, 1)], (1, -1))) == {(1, 0), (1, 1)}  # keep x >= y


def test_intersect_halfspace_no_cut_needed():
    assert rays_set(cut([(1, 0), (0, 1)], (1, 1))) == {(1, 0), (0, 1)}


def test_intersect_halfspace_everything_cut():
    assert cut([(1, 0), (0, 1)], (-1, -1)) == []


def test_intersect_halfspace_octant_oracle():
    # Cut x + y - z >= 0 through the octant: new extremal rays appear on
    # the two facets that cross the plane.
    rays = cut([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 1, -1))
    assert rays_set(rays) == {(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)}
    for r in rays:
        assert r[0] + r[1] - r[2] >= 0
        assert all(c >= 0 for c in r)


def test_intersect_hyperplane_orthant():
    assert cut([(1, 0), (0, 1)], (1, -1), hyperplane=True) == [(1, 1)]


def test_intersect_hyperplane_octant():
    rays = cut([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 1, -1), hyperplane=True)
    assert rays_set(rays) == {(1, 0, 1), (0, 1, 1)}


def test_halfspace_cut_members_stay_members_seeded():
    rng = random.Random(47)
    octant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    functional = vec(2, -1, -1)
    rays = cut(octant, functional)
    for _ in range(40):
        coeffs = [F(rng.randint(0, 5)) for _ in rays]
        v = tuple(sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(3))
        assert cone(*octant).contains(v)
        assert sum(f * vi for f, vi in zip(functional, v)) >= 0


# -- cones that are not full-dimensional or not pointed ----------------------------


def test_lower_dimensional_cone():
    c = cone((1, 0, 0), (0, 1, 0), (1, 1, 0))
    assert rays_set(c.facets) == {(1, 0, 0), (0, 1, 0)}
    assert len(c.equations) == 1
    assert c.contains(vec(1, 2, 0))
    assert not c.contains(vec(1, 1, 1))
    assert not c.contains(vec(-1, 1, 0))
    assert step(c, vec(0, 0, 1), vec(1, 1, 0)) == 0  # leaves the span
    assert step(c, vec(1, 0, 0), vec(2, 1, 0)) == 2


def test_non_pointed_cone():
    # The upper half-plane: the line through (1, 0) is its lineality space.
    c = cone((1, 0), (-1, 0), (0, 1))
    assert c.facets == ((0, 1),) and c.equations == ()
    assert c.contains(vec(-5, 1)) and c.contains(vec(3, 0))
    assert not c.contains(vec(0, -1))
    assert step(c, vec(0, 1), vec(4, 3)) == 3
    with pytest.raises(UnboundedError):
        step(c, vec(1, 0), vec(0, 1))
