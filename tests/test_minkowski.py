"""Chamber enumeration, movable-cone rays, and Minkowski bases.

Frozen values are hand-solved from the fixture catalogs.

Rank-2 model (basis H, d; q = diag(2, -2); E = 2d, E' = H - d):
only E is exceptional, so the chambers are {} and {E}.  The movable
cone is spanned by H - d and H; pushing E' past the {E} wall solves
pair(E' + xE, E) = 4 - 8x = 0, giving x = 1/2 and the ray of H.

Rank-3 elliptic model (basis f, s, c; pair(f,s) = 1, q(s) = q(c) = -2):
the exceptional primes Sec = s, A1 = c, A2 = f - c pair as
pair(A1, A2) = 2, pair(Sec, A1) = 0, pair(Sec, A2) = 1, so {A1, A2}
has singular Gram [[-2,2],[2,-2]] and is excluded; six chambers
remain.  Pushing Fib = f orthogonal to Sec solves 1 - 2x = 0, hence
the ray of f + s/2 = (2,1,0)/2; against {A2, Sec} the system
[[-2,1],[1,-2]](x1,x2) = (0,-1) gives (1/3, 2/3) and the ray of
(4,2,-1)/3.

Rank-4 model (adds a square -2 class e; Ex = 2e, W = f - e):
pair(R1, R2) = 2 and pair(Ex, W) = 4 make {R1,R2} (singular) and
{Ex,W} (det 16 - 16 = 0) the only excluded pairs, leaving
1 + 5 + 8 + 4 = 18 chambers.  The movable cone has the five rays
f, (2,1,0,0), (4,2,-1,0), (4,2,0,-1), (4,2,-1,-1), each arising as
the chamber generator of the flag F = f.

Walk oracle used below (rank-3, D = (6,3,-1), flag Fib):
pair(D, Sec) = 0 puts D on the {Sec} wall; subtracting the {Sec}
generator (2,1,0) keeps pair(., Sec) = 0 and drains pair(., A2) =
1 - t at rate 1, so t = 1 lands on (4,2,-1), the {A2, Sec} generator
itself.  The polygons along Fib add: triangle (0,0),(2,0),(0,1) plus
triangle (0,0),(3,0),(0,2) is the quadrilateral
(0,0),(5,0),(2,2),(0,3), which is the polygon of D.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from ihspoly import (
    BasisElement,
    ConsistencyError,
    DivClass,
    DomainError,
    chamber_closure_rays,
    chamber_generator,
    cone_generators,
    decompose,
    enumerate_chambers,
    is_movable,
    isotropic_extremal_rays,
    load_geometry,
    minkowski_basis,
    minkowski_decompose,
    movable_cone_rays,
    polygon,
    polygon_minkowski_sum,
    polygon_scale,
)
from ihspoly.lattice import dot
from ihspoly.linalg import kernel
from ihspoly.linprog import generated_cone, max_step
from ihspoly.zariski import chamber_positive_part
from families import CROSSED_PRIMES, pairwise_family
from oracles import oracle_in_cone, point, solve, sub_gram, vec

F = Fraction
GEOM_DIR = Path(__file__).resolve().parents[1] / "geometries"


def cls(*coords):
    return DivClass(list(coords))


# -- chamber enumeration --------------------------------------------------------------


def test_enumerate_chambers_rank2(hilb2):
    assert enumerate_chambers(hilb2) == (frozenset(), frozenset({"E"}))


def test_enumerate_chambers_rank3(k3_elliptic):
    assert enumerate_chambers(k3_elliptic) == (
        frozenset(),
        frozenset({"A1"}),
        frozenset({"A2"}),
        frozenset({"Sec"}),
        frozenset({"A1", "Sec"}),
        frozenset({"A2", "Sec"}),
    )


def test_enumerate_chambers_rank3_excludes_singular_pair(k3_elliptic):
    # pair(A1, A2) = 2 makes the Gram of {A1, A2} singular.
    assert frozenset({"A1", "A2"}) not in enumerate_chambers(k3_elliptic)


def test_enumerate_chambers_rank4(hilb2_elliptic):
    chambers = enumerate_chambers(hilb2_elliptic)
    assert len(chambers) == 18
    by_size = {}
    for c in chambers:
        by_size.setdefault(len(c), []).append(c)
    assert len(by_size[0]) == 1 and len(by_size[1]) == 5
    assert len(by_size[2]) == 8 and len(by_size[3]) == 4
    assert frozenset({"R1", "R2"}) not in chambers
    assert frozenset({"Ex", "W"}) not in chambers
    assert frozenset({"R0", "R2", "W"}) in chambers
    assert frozenset({"Ex", "R0", "R1"}) in chambers


def test_enumerate_chambers_order_is_canonical(hilb2_elliptic):
    chambers = enumerate_chambers(hilb2_elliptic)
    assert chambers[0] == frozenset()
    keys = [(len(c), tuple(sorted(c))) for c in chambers]
    assert keys == sorted(keys)


def test_enumerate_chambers_round_model_trivial(fano_round):
    # Round catalogs carry no exceptional primes, so only the movable
    # chamber exists.
    assert enumerate_chambers(fano_round) == (frozenset(),)


# -- chamber generators ----------------------------------------------------------------


def test_chamber_generator_empty_chamber_is_flag(hilb2):
    assert chamber_generator(hilb2, frozenset(), "E'") == cls(1, -1)
    assert chamber_generator(hilb2, frozenset(), "E") == cls(0, 1)


def test_chamber_generator_rank2_wall(hilb2):
    assert chamber_generator(hilb2, frozenset({"E"}), "E'") == cls(1, 0)


def test_chamber_generator_rank3(k3_elliptic):
    g = chamber_generator
    assert g(k3_elliptic, frozenset({"Sec"}), "Fib") == cls(2, 1, 0)
    assert g(k3_elliptic, frozenset({"A1", "Sec"}), "Fib") == cls(2, 1, 0)
    assert g(k3_elliptic, frozenset({"A2", "Sec"}), "Fib") == cls(4, 2, -1)
    # Orthogonal walls leave the flag untouched.
    assert g(k3_elliptic, frozenset({"A1"}), "Fib") == cls(1, 0, 0)


def test_chamber_generator_rank4_triple(hilb2_elliptic):
    got = chamber_generator(hilb2_elliptic, frozenset({"R0", "R2", "W"}), "F")
    assert got == cls(4, 2, -1, -1)


def test_chamber_generator_flag_inside_chamber(k3_elliptic):
    with pytest.raises(DomainError, match="flag"):
        chamber_generator(k3_elliptic, frozenset({"Sec"}), "Sec")


def test_chamber_generator_orthogonality(hilb2, k3_elliptic, hilb2_elliptic):
    # Every generator is primitive and orthogonal to its chamber.
    for geom, flag in ((hilb2, "E'"), (k3_elliptic, "Fib"), (hilb2_elliptic, "F")):
        lat = geom.lattice
        for chamber in enumerate_chambers(geom):
            gen = chamber_generator(geom, chamber, flag)
            assert gen == gen.primitive()
            for name in chamber:
                assert lat.pair(gen, geom.prime(name).cls) == 0


def test_chamber_generator_cache_matches_fresh_solve(hilb2, k3_elliptic, hilb2_elliptic):
    # The generator read off the support's record against a fresh Fraction
    # solve of pair(E + sum x_i E_i, E_j) = 0 on every (prime, chamber).
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        lat = geom.lattice
        fresh_copy = geom._replace()
        assert fresh_copy.support_projectors == {}
        for prime in geom.primes:
            for chamber in geom.chambers:
                if prime.name in chamber:
                    with pytest.raises(DomainError, match="flag"):
                        chamber_generator(fresh_copy, chamber, prime.name)
                    continue
                support = [geom.prime(n).cls for n in sorted(chamber)]
                xs = solve(sub_gram(lat, support), [-lat.pair(prime.cls, c) for c in support])
                assert all(x >= 0 for x in xs)
                fresh = prime.cls
                for c, x in zip(support, xs):
                    fresh = fresh + c.scale(x)
                record = fresh_copy.support_projector(chamber)
                assert chamber_generator(fresh_copy, chamber, prime.name) == fresh.primitive()
                assert fresh_copy.support_projector(chamber) is record
        # one record per chamber, whichever flag asked for it
        assert set(fresh_copy.support_projectors) == set(geom.chambers)
        kept = dict(fresh_copy.support_projectors)
        # a set that is no chamber is refused by name, and nothing is kept
        movable = next(p for p in geom.primes if not p.exceptional)
        flag = next(p for p in geom.primes if p is not movable)
        message = f"{[movable.name]} is not a chamber: it holds a non-exceptional prime"
        with pytest.raises(DomainError) as refusal:
            chamber_generator(fresh_copy, frozenset({movable.name}), flag.name)
        assert str(refusal.value) == message
        assert fresh_copy.support_projectors == kept


# -- movable cone rays -----------------------------------------------------------------


def test_movable_cone_rays_rank2(hilb2):
    assert movable_cone_rays(hilb2) == (cls(1, -1), cls(1, 0))


def test_movable_cone_rays_rank3(k3_elliptic):
    assert movable_cone_rays(k3_elliptic) == (
        cls(1, 0, 0),
        cls(2, 1, 0),
        cls(4, 2, -1),
    )


def test_movable_cone_rays_rank4(hilb2_elliptic):
    assert movable_cone_rays(hilb2_elliptic) == (
        cls(1, 0, 0, 0),
        cls(2, 1, 0, 0),
        cls(4, 2, -1, -1),
        cls(4, 2, -1, 0),
        cls(4, 2, 0, -1),
    )


def test_movable_cone_rays_are_movable(hilb2, k3_elliptic, hilb2_elliptic):
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        for ray in movable_cone_rays(geom):
            assert is_movable(geom, ray)


def test_movable_cone_rays_round_rejected(fano_round):
    with pytest.raises(DomainError, match="polyhedral"):
        movable_cone_rays(fano_round)


def test_isotropic_extremal_rays(hilb2, k3_elliptic, hilb2_elliptic):
    assert isotropic_extremal_rays(hilb2) == (cls(1, -1),)
    assert isotropic_extremal_rays(k3_elliptic) == (cls(1, 0, 0),)
    assert isotropic_extremal_rays(hilb2_elliptic) == (cls(1, 0, 0, 0),)


# -- chamber closures ------------------------------------------------------------------


def test_chamber_closure_rays_rank2(hilb2):
    assert chamber_closure_rays(hilb2, frozenset()) == (cls(1, -1), cls(1, 0))
    assert chamber_closure_rays(hilb2, frozenset({"E"})) == (cls(0, 1), cls(1, 0))


def test_chamber_closure_rays_rank3(k3_elliptic):
    assert chamber_closure_rays(k3_elliptic, frozenset({"Sec"})) == (
        cls(0, 1, 0),
        cls(2, 1, 0),
        cls(4, 2, -1),
    )
    assert chamber_closure_rays(k3_elliptic, frozenset({"A2", "Sec"})) == (
        cls(0, 1, 0),
        cls(1, 0, -1),
        cls(4, 2, -1),
    )


def test_chamber_closure_contains_chamber_primes(k3_elliptic, hilb2_elliptic):
    for geom in (k3_elliptic, hilb2_elliptic):
        for chamber in enumerate_chambers(geom):
            rays = chamber_closure_rays(geom, chamber)
            for name in chamber:
                assert geom.prime(name).cls.primitive() in rays


def _pruned_closure(candidates):
    """The former closure routine, kept as the oracle: the primitive
    candidates, sorted, that are extremal in cone(candidates).  A ray is
    extremal when the facets tight on it, together with the span
    equations, leave a one-dimensional kernel."""
    uniq = sorted({DivClass(r).primitive().num for r in candidates if any(r)})
    if not uniq:
        return []
    n = len(uniq[0])
    cone = generated_cone(uniq, n)
    return [
        r
        for r in uniq
        if len(kernel([*(f for f in cone.facets if not dot(f, r)), *cone.equations], n)) == 1
    ]


def _closure_candidates(geom, chamber):
    """The movable rays orthogonal to every prime of the chamber, and the
    chamber's primes as declared."""
    rows = [geom.prime_forms[name][0] for name in chamber]
    face = [r.num for r in geom.movable_rays if not any(dot(r.num, row) for row in rows)]
    return face + [geom.prime(name).cls.num for name in sorted(chamber)]


def test_pruned_closure_oracle_drops_interior_ray():
    rays = [vec(1, 0), vec(0, 1), vec(1, 1)]
    assert set(_pruned_closure(rays)) == {(1, 0), (0, 1)}


def test_pruned_closure_oracle_merges_scalings():
    rays = [vec(2, 0), vec(3, 0), vec(F(1, 2), 0)]
    assert _pruned_closure(rays) == [(1, 0)]


def test_pruned_closure_oracle_drops_zero():
    assert _pruned_closure([vec(0, 0), vec(1, 0)]) == [(1, 0)]


def test_pruned_closure_oracle_3d_octant_face():
    rays = [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1), vec(1, 1, 1), vec(2, 1, 0)]
    assert set(_pruned_closure(rays)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert _pruned_closure([vec(1, 0, 0), vec(0, 1, 0), vec(1, 1, 0)]) == [(0, 1, 0), (1, 0, 0)]


def test_chamber_closure_rays_match_pruned_oracle(hilb2_elliptic):
    # Ex = (0, 0, 0, 2) on the rank-4 model is not primitive.
    assert cls(0, 0, 0, 1) in chamber_closure_rays(hilb2_elliptic, frozenset({"Ex"}))
    # every bundled catalog (hilb2, k3_rank3, hilb2_k3 are polyhedral)
    geoms = [load_geometry(path) for path in sorted(GEOM_DIR.glob("*.geom"))]
    closures = 0
    for geom in [g for g in geoms if g.mode == "polyhedral"] + [pairwise_family(6)]:
        for chamber in enumerate_chambers(geom):
            rays = chamber_closure_rays(geom, chamber)
            assert [r.num for r in rays] == _pruned_closure(_closure_candidates(geom, chamber))
            assert all(r.den == 1 for r in rays)
            closures += 1
    assert closures == 2 + 6 + 18 + 22


def test_closure_rays_match_caratheodory_oracle_seeded(hilb2, k3_elliptic, hilb2_elliptic):
    # No returned ray lies in the cone of the others, and every candidate,
    # a rescaled candidate and a random nonnegative combination of them
    # all lie in the cone of the returned rays.
    rng = random.Random(49)
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        for chamber in enumerate_chambers(geom):
            rays = [r.coords for r in chamber_closure_rays(geom, chamber)]
            for r in rays:
                assert not oracle_in_cone([s for s in rays if s != r], r), (chamber, r)
            candidates = [tuple(F(c) for c in v) for v in _closure_candidates(geom, chamber)]
            for _ in range(3):
                coeffs = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in candidates]
                terms = list(zip(coeffs, candidates))
                candidates.append(tuple(sum(k * v[i] for k, v in terms) for i in range(geom.rank)))
            scale = F(rng.randint(1, 4), 3)
            candidates.append(tuple(scale * c for c in candidates[0]))
            for v in candidates:
                assert oracle_in_cone(rays, v), (chamber, v)


# -- minkowski bases -------------------------------------------------------------------


def test_minkowski_basis_rank2(hilb2):
    assert minkowski_basis(hilb2, "E'") == (
        BasisElement(cls(1, -1), "chamber", frozenset()),
        BasisElement(cls(1, 0), "chamber", frozenset({"E"})),
    )
    assert minkowski_basis(hilb2, "E") == (
        BasisElement(cls(0, 1), "chamber", frozenset()),
        BasisElement(cls(1, -1), "isotropic", None),
    )


def test_minkowski_basis_rank3(k3_elliptic):
    assert minkowski_basis(k3_elliptic, "Fib") == (
        BasisElement(cls(1, 0, 0), "chamber", frozenset()),
        BasisElement(cls(2, 1, 0), "chamber", frozenset({"Sec"})),
        BasisElement(cls(4, 2, -1), "chamber", frozenset({"A2", "Sec"})),
    )


def test_minkowski_basis_rank4(hilb2_elliptic):
    basis = minkowski_basis(hilb2_elliptic, "F")
    assert [el.cls for el in basis] == [
        cls(1, 0, 0, 0),
        cls(2, 1, 0, 0),
        cls(4, 2, -1, 0),
        cls(4, 2, 0, -1),
        cls(4, 2, -1, -1),
    ]
    assert [el.chamber for el in basis] == [
        frozenset(),
        frozenset({"R0"}),
        frozenset({"R0", "R2"}),
        frozenset({"R0", "W"}),
        frozenset({"R0", "R2", "W"}),
    ]
    assert all(el.origin == "chamber" for el in basis)


def test_minkowski_basis_classes_distinct(hilb2, k3_elliptic, hilb2_elliptic):
    for geom, flag in ((hilb2, "E"), (k3_elliptic, "Fib"), (hilb2_elliptic, "F")):
        classes = [el.cls for el in minkowski_basis(geom, flag)]
        assert len(classes) == len(set(classes))


def test_minkowski_basis_round_rejected(fano_round):
    with pytest.raises(DomainError, match="polyhedral"):
        minkowski_basis(fano_round, "S")


# -- answers kept on the geometry ------------------------------------------------------


def _answer_calls(geom, flags):
    """One call per kept answer: the isotropic rays, every chamber's
    closure, and each flag's basis and cone generators."""
    calls = {("isotropic", ()): lambda: isotropic_extremal_rays(geom)}
    for chamber in enumerate_chambers(geom):
        calls["closure", chamber] = lambda c=chamber: chamber_closure_rays(geom, c)
    for flag in flags:
        calls["basis", flag] = lambda f=flag: minkowski_basis(geom, f)
        calls["cone", flag] = lambda f=flag: cone_generators(geom, f)
    return calls


def test_answers_are_built_once_per_catalog(hilb2_elliptic):
    geom = hilb2_elliptic._replace()
    calls = _answer_calls(geom, [p.name for p in geom.primes])
    first = {key: call() for key, call in calls.items()}
    assert set(geom.answers) == set(calls)
    for key, call in calls.items():
        assert call() is first[key] is geom.answers[key]
    fresh = hilb2_elliptic._replace()
    assert fresh.answers == {}
    assert {key: call() for key, call in _answer_calls(fresh, [p.name for p in fresh.primes]).items()} == first


def test_closure_of_a_set_that_is_no_chamber_is_refused(k3_elliptic):
    # {A1, A2} has the singular Gram matrix [[-2, 2], [2, -2]], and Fib is
    # movable: neither is a chamber, so neither has a closure, a generator
    # or a chamber-local positive part.  Each is refused by name, with one
    # message from all three, on every call, and nothing is kept.
    geom = k3_elliptic._replace()
    refusals = {
        ("A1", "A2"): "['A1', 'A2'] is not a chamber: its Gram matrix is not negative definite",
        ("Fib",): "['Fib'] is not a chamber: it holds a non-exceptional prime",
        ("Fib", "Sec"): "['Fib', 'Sec'] is not a chamber: it holds a non-exceptional prime",
    }
    for names, message in refusals.items():
        flag = next(p.name for p in geom.primes if p.name not in names)
        calls = [
            lambda: chamber_closure_rays(geom, list(names)),
            lambda: chamber_generator(geom, frozenset(names), flag),
            lambda: chamber_positive_part(geom, DivClass([2, 1, 0]), names),
        ]
        for call in calls * 2:
            with pytest.raises(DomainError) as refusal:
                call()
            assert str(refusal.value) == message
    assert geom.answers == {}
    assert set(geom.support_projectors) <= set(geom.chambers)
    assert chamber_closure_rays(geom, ["A1"]) == chamber_closure_rays(k3_elliptic, ["A1"])


@pytest.mark.parametrize("case", ["round", "unknown-prime", "rule-d"])
def test_refused_answers_are_not_kept(case, fano_round, hilb2):
    if case == "round":
        geom, error, match, flag = fano_round._replace(), DomainError, "polyhedral", "S"
    elif case == "unknown-prime":
        geom, error, match, flag = hilb2._replace(), DomainError, "unknown prime divisor 'X'", "X"
    else:
        geom, error, match, flag = CROSSED_PRIMES._replace(), ConsistencyError, "distinct primes", "E"
    calls = [
        lambda: chamber_closure_rays(geom, [flag]),
        lambda: minkowski_basis(geom, flag),
        lambda: cone_generators(geom, flag),
    ]
    if case != "unknown-prime":  # the isotropic rays take no prime
        calls.append(lambda: isotropic_extremal_rays(geom))
    for call in calls:
        for _ in range(2):  # refused again: the first refusal kept nothing
            with pytest.raises(error, match=match):
                call()
    assert geom.answers == {}


def test_closure_is_kept_by_the_chambers_names(hilb2_elliptic):
    geom = hilb2_elliptic._replace()
    chamber = frozenset({"R0", "R2", "W"})
    assert chamber in geom.chambers
    rays = chamber_closure_rays(geom, sorted(chamber))
    assert chamber_closure_rays(geom, chamber) is rays
    assert chamber_closure_rays(geom, ["W", "R2", "R0"]) is rays
    assert list(geom.answers) == [("closure", chamber)]
    assert rays == chamber_closure_rays(hilb2_elliptic._replace(), chamber)


# -- minkowski decompositions ----------------------------------------------------------


def test_minkowski_decompose_rank2(hilb2):
    dec = minkowski_decompose(hilb2, cls(3, -2), "E'")
    assert dec.nu == 0
    assert dec.terms == (
        (2, BasisElement(cls(1, -1), "chamber", frozenset())),
        (1, BasisElement(cls(1, 0), "chamber", frozenset({"E"}))),
    )
    assert dec.reconstruct(2) == cls(3, -2)


def test_minkowski_decompose_crosses_wall(hilb2):
    dec = minkowski_decompose(hilb2, cls(2, -1), "E'")
    assert dec.terms == (
        (1, BasisElement(cls(1, -1), "chamber", frozenset())),
        (1, BasisElement(cls(1, 0), "chamber", frozenset({"E"}))),
    )


def test_minkowski_decompose_polygons_add_rank2(hilb2):
    # The polygon of 2H - d along E' is the sum of its pieces.
    total = polygon(hilb2, cls(2, -1), "E'")
    seg = polygon(hilb2, cls(1, -1), "E'")
    tri = polygon(hilb2, cls(1, 0), "E'")
    summed = polygon_minkowski_sum(seg, tri)
    assert total.vertices == (point(0, 0), point(2, 0), point(1, 2), point(0, 2))
    assert summed.vertices == total.vertices
    assert summed.mu == total.mu


def test_minkowski_decompose_mixed_isotropic(hilb2):
    # Along the exceptional flag the empty-chamber generator is the
    # half-exceptional ray and the remainder drains onto the isotropic
    # boundary.
    dec = minkowski_decompose(hilb2, cls(2, -1), "E")
    assert dec.terms == (
        (1, BasisElement(cls(0, 1), "chamber", frozenset())),
        (2, BasisElement(cls(1, -1), "isotropic", None)),
    )
    assert dec.reconstruct(2) == cls(2, -1)


def test_minkowski_decompose_rank3(k3_elliptic):
    dec = minkowski_decompose(k3_elliptic, cls(6, 3, -1), "Fib")
    assert dec.nu == 0
    assert dec.terms == (
        (1, BasisElement(cls(2, 1, 0), "chamber", frozenset({"Sec"}))),
        (1, BasisElement(cls(4, 2, -1), "chamber", frozenset({"A2", "Sec"}))),
    )


def test_minkowski_decompose_polygons_add_rank3(k3_elliptic):
    total = polygon(k3_elliptic, cls(6, 3, -1), "Fib")
    assert total.vertices == (
        point(0, 0),
        point(5, 0),
        point(2, 2),
        point(0, 3),
    )
    p1 = polygon(k3_elliptic, cls(2, 1, 0), "Fib")
    p2 = polygon(k3_elliptic, cls(4, 2, -1), "Fib")
    assert p1.vertices == (point(0, 0), point(2, 0), point(0, 1))
    assert p2.vertices == (point(0, 0), point(3, 0), point(0, 2))
    assert polygon_minkowski_sum(p1, p2).vertices == total.vertices


def test_minkowski_decompose_pure_isotropic(hilb2, k3_elliptic):
    dec = minkowski_decompose(hilb2, cls(2, -2), "E")
    assert dec.terms == ((2, BasisElement(cls(1, -1), "isotropic", None)),)
    dec = minkowski_decompose(k3_elliptic, cls(1, 0, 0), "Fib")
    assert dec.terms == ((1, BasisElement(cls(1, 0, 0), "isotropic", None)),)


def test_minkowski_decompose_negative_part_offset(hilb2, k3_elliptic):
    # d = (1/2) E: nothing movable remains, only the flag offset.
    dec = minkowski_decompose(hilb2, cls(0, 1), "E")
    assert dec.terms == () and dec.nu == F(1, 2)
    assert dec.reconstruct(2) == hilb2.zero()
    # Sec itself along Sec: the whole class is the offset.
    dec = minkowski_decompose(k3_elliptic, cls(0, 1, 0), "Sec")
    assert dec.terms == () and dec.nu == 1


def test_minkowski_decompose_flag_orthogonal_rejected(hilb2):
    # P(H) is orthogonal to E, so no chamber generator can drain it.
    with pytest.raises(DomainError, match="orthogonal"):
        minkowski_decompose(hilb2, cls(1, 0), "E")
    with pytest.raises(DomainError, match="orthogonal"):
        minkowski_decompose(hilb2, cls(1, 1), "E")


def test_minkowski_decompose_errors(hilb2, fano_round):
    with pytest.raises(DomainError, match="polyhedral"):
        minkowski_decompose(fano_round, DivClass([1, 0]), "S")
    with pytest.raises(DomainError):
        minkowski_decompose(hilb2, cls(-1, 0), "E'")  # not pseudo-effective
    with pytest.raises(DomainError):
        minkowski_decompose(hilb2, cls(1, 0), "Nope")


def test_minkowski_decompose_seeded(hilb2, k3_elliptic, hilb2_elliptic):
    # Random pseudo-effective classes: the terms draw from the basis
    # with positive coefficients, rebuild the movable part exactly, and
    # their scaled polygons sum to the polygon of the class.
    rng = random.Random(127)
    for geom, flag in ((hilb2, "E'"), (k3_elliptic, "Fib"), (hilb2_elliptic, "F")):
        basis_classes = {el.cls for el in minkowski_basis(geom, flag)}
        for _ in range(25):
            d = geom.zero()
            for g in geom.effective_generators:
                d = d + g.scale(rng.randint(0, 5))
            dec = minkowski_decompose(geom, d, flag)
            full = decompose(geom, d)
            assert dec.nu == full.coefficient(flag)
            assert dec.reconstruct(geom.lattice.rank) == full.positive
            for coeff, element in dec.terms:
                assert coeff > 0
                assert element.cls in basis_classes
            total = polygon(geom, d, flag)
            assert total.nu == dec.nu
            if not dec.terms:
                assert total.vertices == (point(0, 0),)
                continue
            acc = polygon_scale(dec.terms[0][0], polygon(geom, dec.terms[0][1].cls, flag))
            for coeff, element in dec.terms[1:]:
                piece = polygon_scale(coeff, polygon(geom, element.cls, flag))
                acc = polygon_minkowski_sum(acc, piece)
            assert acc.vertices == total.vertices
            assert acc.mu == total.mu


def _two_pass_step(geom, gen, m):
    """The step along gen from m as a min-ratio over the primes' rows with
    q(gen, Q) > 0, then a max_step over Eff, bounded because gen is a
    nonzero class of the pointed Eff."""
    lat = geom.lattice
    bounds = [
        lat.pair(m, p.cls) / lat.pair(gen, p.cls)
        for p in geom.primes
        if lat.pair(gen, p.cls) > 0
    ]
    num, den = max_step(geom.eff_cone, gen.num, m.num)
    return min(bounds + [F(num * gen.den, den * m.den)])


def test_minkowski_step_matches_two_pass_oracle_seeded(hilb2, k3_elliptic, hilb2_elliptic):
    # Mov is Eff cut by the primes' rows, so the walk's one max_step over
    # Mov equals the prime-row min-ratio followed by a max_step over Eff.
    rng = random.Random(139)
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        steps = 0
        for _ in range(25):
            d = geom.zero()
            for g in geom.effective_generators:
                d = d + g.scale(F(rng.randint(0, 5), rng.choice((1, 2))))
            for flag in geom.primes:
                try:
                    dec = minkowski_decompose(geom, d, flag.name)
                except DomainError:
                    continue
                m = decompose(geom, d).positive
                for coeff, element in dec.terms:
                    if element.origin == "chamber":
                        assert coeff == _two_pass_step(geom, element.cls, m)
                        steps += 1
                    m = m - element.cls.scale(coeff)
        assert steps
