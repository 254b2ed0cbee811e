"""The exact cone engine against hand-checked cases, an independent
Caratheodory oracle (oracles.oracle_in_cone) and the brute-force extreme
rays (oracles.brute_force_extreme_rays)."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from ihspoly.linprog import (
    InfeasibleError,
    extreme_rays,
    generated_cone,
    max_step,
)
from ihspoly import load_geometry
from ihspoly.lattice import DivClass
from ihspoly.linalg import kernel
from families import elliptic_family, orthogonal_family, pairwise_family
from oracles import brute_force_extreme_rays, oracle_in_cone, vec

F = Fraction
GEOM_DIR = Path(__file__).resolve().parents[1] / "geometries"


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


def combination(rng, gens):
    """A nonnegative integer combination of gens."""
    coeffs = [rng.randint(0, 3) for _ in gens]
    return tuple(sum(k * g[i] for k, g in zip(coeffs, gens)) for i in range(len(gens[0])))


def test_max_step_tight_against_oracle_seeded():
    # Each direction is a nonzero class of the cone whose opposite is
    # outside it, as every engine caller's is, so each step is bounded.
    rng = random.Random(45)
    steps = 0
    for _ in range(40):
        gens = [g for g in (random_vec(rng, -2, 2) for _ in range(4)) if any(g)]
        c = generated_cone(gens, 3)
        start, direction = combination(rng, gens), combination(rng, gens)
        if oracle_in_cone(gens, tuple(-x for x in direction)):
            continue
        steps += 1
        t = step(c, direction, start)
        assert t >= 0
        assert oracle_in_cone(gens, tuple(s - t * d for s, d in zip(start, direction)))
        beyond = t + F(1, 7)
        assert not oracle_in_cone(gens, tuple(s - beyond * d for s, d in zip(start, direction)))
    assert steps >= 20


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
    assert step(c, vec(1, 0, 0), vec(2, 1, 0)) == 2


def test_non_pointed_cone():
    # The upper half-plane: the line through (1, 0) is its lineality space.
    c = cone((1, 0), (-1, 0), (0, 1))
    assert c.facets == ((0, 1),) and c.equations == ()
    assert c.contains(vec(-5, 1)) and c.contains(vec(3, 0))
    assert not c.contains(vec(0, -1))
    assert step(c, vec(0, 1), vec(4, 3)) == 3


# -- extreme rays against the brute-force oracle -------------------------------------


def test_extreme_rays_match_brute_force_on_catalogs_and_families():
    # Eff's facets (the extreme rays of its dual) and Mov's rays.
    geometries = [load_geometry(p) for p in sorted(GEOM_DIR.glob("*.geom"))]
    geometries += [elliptic_family(k) for k in range(1, 5)]
    geometries += [pairwise_family(k) for k in range(4, 9)]
    geometries += [orthogonal_family(k) for k in range(3, 9)]
    cones = 0
    for geom in geometries:
        if geom.mode != "polyhedral":
            continue
        eff, mov = geom.eff_cone, geom.mov_cone
        generators = [g.num for g in geom.effective_generators]
        assert list(eff.facets) == brute_force_extreme_rays(generators, eff.equations, geom.rank)
        rays = [r.num for r in geom.movable_rays]
        assert rays == brute_force_extreme_rays(mov.facets, mov.equations, geom.rank)
        cones += 2
    assert cones == 2 * (3 + 4 + 5 + 6)


def test_extreme_rays_match_brute_force_seeded():
    """Random H-descriptions of ranks 2-5: the facets of a cone generated
    inside a random span (the extreme rays of its dual) and, when that
    cone is pointed, its rays cut by up to three random half-spaces.
    Uncut, the Caratheodory oracle judges the rays too: each lies in
    cone(generators) and each generator in cone(rays)."""
    rng = random.Random(53)
    seen = Counter()
    for _ in range(200):
        n, dim = rng.randint(2, 5), rng.randint(1, 5)
        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(min(dim, n))]
        generators = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [rng.randint(-1, 2) for _ in basis]
            g = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n))
            if any(g):
                generators.append(g)
        c = generated_cone(generators, n)
        assert list(c.facets) == brute_force_extreme_rays(generators, kernel(generators, n), n)
        seen["equations" if c.equations else "full"] += 1
        if kernel([*c.facets, *c.equations], n):
            seen["not pointed"] += 1
            continue
        cuts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        rays = extreme_rays(c.facets + tuple(cuts), c.equations, n)
        assert rays == brute_force_extreme_rays(c.facets + tuple(cuts), c.equations, n)
        seen["cut" if cuts else "uncut"] += 1
        seen["rays"] += len(rays)
        if not cuts:
            assert all(oracle_in_cone(generators, r) for r in rays)
            assert all(oracle_in_cone(rays, g) for g in generators)
    assert seen == {"full": 64, "equations": 136, "not pointed": 58, "uncut": 40, "cut": 102, "rays": 263}
