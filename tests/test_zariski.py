"""Divisorial Zariski decomposition: frozen cases, invariants, volumes.

Expected values are hand-solved from the Gram systems.  For the rank-2
model (basis H, d; q = diag(2, -2); primes E = 2d exceptional,
E' = H - d isotropic):

    D = 3H - E - 5/2 E' = (1/2, 1/2):  q(D, E) = -2 < 0, so the support
    is {E}; q(E) = -8 gives the coefficient 1/4 and P = (1/2) H.

For the rank-3 elliptic model (basis f, s, c; pairing f.s = 1,
s^2 = c^2 = -2, f^2 = f.c = s.c = 0):

    D = 2f + 2s + c pairs -2 with both Sec and A1; the diagonal Gram
    diag(-2, -2) gives N = Sec + A1 and P = 2f + s.

    D = f + 2s - 1/2 c pairs -3 with Sec only; removing (3/2) Sec turns
    the pairing with A2 negative (-1/2), the support grows to
    {Sec, A2} with Gram [[-2, 1], [1, -2]], and the final solve gives
    N = (5/3) Sec + (1/3) A2, P = (2/3, 1/3, -1/6).
"""

import json
import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

from ihspoly import (
    BBFLattice,
    ConsistencyError,
    DivClass,
    DomainError,
    Geometry,
    Prime,
    chamber_generator,
    chamber_walk,
    decompose,
    is_big,
    is_movable,
    null_set,
    parse_divisor,
    parse_geometry,
    polygon,
    positive_part,
    restricted_volume,
    volume,
)
from ihspoly.checks import sample_big_classes
from ihspoly.minkowski import enumerate_chambers
from ihspoly.okounkov import _walk_entry
from ihspoly.zariski import chamber_id, chamber_positive_part, divisorial_base_loci
from test_geometry import pairwise_family
from test_lattice import negative_definite, solve, sub_gram

F = Fraction


# -- frozen decompositions -----------------------------------------------------


def test_movable_class_decomposes_trivially(hilb2):
    dec = decompose(hilb2, DivClass([1, 0]))
    assert dec.positive == DivClass([1, 0])
    assert dec.negative == ()
    assert dec.negative_part == hilb2.zero()
    assert dec.support == frozenset()
    assert dec.coefficient("E") == 0


def test_exceptional_ray_collapses(hilb2):
    # d = (1/2) E up to the movable part: P = 0, N = (1/2) E.
    dec = decompose(hilb2, DivClass([0, 1]))
    assert dec.positive == hilb2.zero()
    assert dec.negative == (("E", F(1, 2)),)
    assert dec.negative_part == DivClass([0, 1])


def test_fractional_positive_part(hilb2):
    d = parse_divisor(hilb2, "3H - E - 5/2 E'")
    assert d == DivClass([F(1, 2), F(1, 2)])
    dec = decompose(hilb2, d)
    assert dec.positive == DivClass([F(1, 2), 0])
    assert dec.negative == (("E", F(1, 4)),)
    assert dec.coefficient("E") == F(1, 4)


def test_two_prime_support(k3_elliptic):
    dec = decompose(k3_elliptic, DivClass([2, 2, 1]))
    assert dec.positive == DivClass([2, 1, 0])
    assert dec.negative == (("A1", F(1)), ("Sec", F(1)))


def test_single_prime_support_elliptic(k3_elliptic):
    dec = decompose(k3_elliptic, DivClass([2, 1, 1]))
    assert dec.positive == DivClass([2, 1, 0])
    assert dec.negative == (("A1", F(1)),)


def test_support_growth(k3_elliptic):
    # Solving the first support makes a second prime pair negatively;
    # the enlarged coupled system keeps all coefficients positive.
    d = DivClass([1, 2, F(-1, 2)])
    dec = decompose(k3_elliptic, d)
    assert dec.positive == DivClass([F(2, 3), F(1, 3), F(-1, 6)])
    assert dec.negative == (("A2", F(1, 3)), ("Sec", F(5, 3)))


def test_decompose_requires_pseudo_effective(hilb2):
    with pytest.raises(DomainError, match="pseudo-effective"):
        decompose(hilb2, DivClass([-1, 0]))


def test_positive_part_shortcut(hilb2):
    assert positive_part(hilb2, DivClass([0, 1])) == hilb2.zero()


# -- structural invariants --------------------------------------------------------


def random_psef(geom, rng):
    d = geom.zero()
    for g in geom.effective_generators:
        d = d + g.scale(F(rng.randint(0, 6), rng.choice((1, 1, 2))))
    return d


def test_decomposition_invariants_seeded(hilb2, k3_elliptic, hilb2_elliptic):
    rng = random.Random(61)
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        lat = geom.lattice
        for _ in range(40):
            d = random_psef(geom, rng)
            dec = decompose(geom, d)
            # Exact reconstruction.
            assert dec.positive + dec.negative_part == d
            # The positive part is movable; coefficients are positive.
            assert is_movable(geom, dec.positive)
            assert all(c > 0 for _, c in dec.negative)
            # Support primes are exceptional and orthogonal to P.
            for name, _ in dec.negative:
                prime = geom.prime(name)
                assert prime.exceptional
                assert lat.pair(dec.positive, prime.cls) == 0
            # The support Gram matrix is negative definite.
            support_classes = [geom.prime(n).cls for n, _ in dec.negative]
            assert negative_definite(lat, support_classes)


def test_idempotence_seeded(hilb2, k3_elliptic):
    rng = random.Random(67)
    for geom in (hilb2, k3_elliptic):
        for _ in range(25):
            p = decompose(geom, random_psef(geom, rng)).positive
            again = decompose(geom, p)
            assert again.positive == p
            assert again.negative == ()


# -- classification helpers --------------------------------------------------------


def test_null_set(hilb2, k3_elliptic):
    assert null_set(hilb2, DivClass([1, 0])) == {"E"}
    assert null_set(hilb2, DivClass([1, -1])) == {"E'"}
    assert null_set(hilb2, DivClass([2, -1])) == set()
    # The fiber class is orthogonal to everything but the section.
    assert null_set(k3_elliptic, DivClass([1, 0, 0])) == {"A1", "A2", "Fib"}


def test_null_set_requires_movable(hilb2):
    with pytest.raises(DomainError, match="movable"):
        null_set(hilb2, DivClass([0, 1]))


def test_is_big(hilb2):
    assert is_big(hilb2, DivClass([1, 0]))
    assert is_big(hilb2, DivClass([3, -2]))
    assert is_big(hilb2, DivClass([F(1, 2), F(1, 2)]))
    assert not is_big(hilb2, DivClass([0, 1]))  # collapses to zero
    assert not is_big(hilb2, DivClass([1, -1]))  # isotropic movable
    assert not is_big(hilb2, DivClass([-1, 0]))  # not even psef


def test_chamber_id(hilb2):
    assert chamber_id(hilb2, DivClass([1, 0])) == frozenset()
    assert chamber_id(hilb2, DivClass([F(1, 2), F(1, 2)])) == {"E"}
    with pytest.raises(DomainError, match="big"):
        chamber_id(hilb2, DivClass([0, 1]))


def test_divisorial_base_loci(hilb2):
    # H is orthogonal to the exceptional prime E: E enters B_+ only.
    assert divisorial_base_loci(hilb2, DivClass([1, 0])) == (frozenset(), {"E"})
    # Deep in the interior both loci are empty.
    assert divisorial_base_loci(hilb2, DivClass([3, -2])) == (frozenset(), frozenset())
    # On the chamber over {E} the supports agree.
    assert divisorial_base_loci(hilb2, DivClass([F(1, 2), F(1, 2)])) == ({"E"}, {"E"})
    with pytest.raises(DomainError, match="big"):
        divisorial_base_loci(hilb2, DivClass([1, -1]))


def test_base_loci_nested_seeded(hilb2, k3_elliptic):
    rng = random.Random(71)
    for geom in (hilb2, k3_elliptic):
        for _ in range(25):
            d = random_psef(geom, rng)
            if not is_big(geom, d):
                continue
            b_minus, b_plus = divisorial_base_loci(geom, d)
            assert b_minus <= b_plus


# -- volumes -------------------------------------------------------------------------


def test_volume_frozen(hilb2):
    assert volume(hilb2, DivClass([1, 0])) == 12  # 3 * 2^2
    assert volume(hilb2, DivClass([3, -2])) == 300  # 3 * 10^2
    assert volume(hilb2, DivClass([0, 1])) == 0
    assert volume(hilb2, DivClass([1, -1])) == 0
    assert volume(hilb2, DivClass([F(1, 2), F(1, 2)])) == F(3, 4)  # 3 * (1/2)^2


def test_volume_elliptic(k3_elliptic):
    assert volume(k3_elliptic, DivClass([2, 2, 0])) == 2  # q(2f + s) = 2
    assert volume(k3_elliptic, DivClass([1, 0, 0])) == 0


def test_volume_scaling_seeded(hilb2, hilb2_elliptic):
    rng = random.Random(73)
    for geom in (hilb2, hilb2_elliptic):
        n = geom.lattice.half_dim
        for _ in range(20):
            d = random_psef(geom, rng)
            k = rng.randint(1, 5)
            assert volume(geom, d.scale(k)) == k ** (2 * n) * volume(geom, d)


def test_restricted_volume_frozen(hilb2):
    assert restricted_volume(hilb2, DivClass([3, -2]), "E'") == 60  # 3 * 10 * 2
    assert restricted_volume(hilb2, DivClass([1, 0]), "E'") == 12  # 3 * 2 * 2
    assert restricted_volume(hilb2, DivClass([3, -2]), "E") == 240  # 3 * 10 * 8


def test_restricted_volume_undefined_on_base_locus(hilb2):
    # E is exceptional and orthogonal to P(H).
    with pytest.raises(DomainError, match="augmented base locus"):
        restricted_volume(hilb2, DivClass([1, 0]), "E")


def test_restricted_volume_requires_big(hilb2):
    with pytest.raises(DomainError, match="big"):
        restricted_volume(hilb2, DivClass([0, 1]), "E'")


def test_restricted_volume_unknown_prime(hilb2):
    with pytest.raises(DomainError, match="unknown prime"):
        restricted_volume(hilb2, DivClass([1, 0]), "Q")


def test_restricted_volume_surface_case(k3_elliptic):
    # n = 1: the q(P)^(n-1) factor degenerates to 1.
    assert restricted_volume(k3_elliptic, DivClass([2, 2, 0]), "Fib") == 1


# -- chamber-local formula --------------------------------------------------------------


def test_chamber_positive_part_matches_decompose(hilb2):
    d = DivClass([F(1, 2), F(1, 2)])
    p, coeffs = chamber_positive_part(hilb2, d, {"E"})
    assert p == DivClass([F(1, 2), 0])
    assert coeffs == {"E": F(1, 4)}


def test_chamber_positive_part_empty_support(hilb2):
    d = DivClass([3, 1])
    p, coeffs = chamber_positive_part(hilb2, d, [])
    assert p == d
    assert coeffs == {}


def test_chamber_formulas_agree_on_wall(hilb2):
    # The wall between the empty chamber and {E} is q(D, E) = 0, i.e.
    # classes proportional to H; both formulas return D itself there.
    d = DivClass([2, 0])
    p_empty, _ = chamber_positive_part(hilb2, d, [])
    p_e, coeffs = chamber_positive_part(hilb2, d, ["E"])
    assert p_empty == p_e == d
    assert coeffs == {"E": F(0)}


def test_chamber_positive_part_rejects_bad_support(hilb2, k3_elliptic):
    # q(E') = 0, so E' is not exceptional and {E, E'} is no chamber; on
    # k3_rank3 Fib is movable and {A1, A2} has the singular Gram matrix
    # [[-2, 2], [2, -2]].  Each set is the caller's fault, refused by name.
    refusals = [
        (hilb2, DivClass([1, 0]), ["E", "E'"],
         "['E', \"E'\"] is not a chamber: it holds a non-exceptional prime"),
        (k3_elliptic, DivClass([2, 1, 0]), ["Fib"],
         "['Fib'] is not a chamber: it holds a non-exceptional prime"),
        (k3_elliptic, DivClass([2, 1, 0]), ["A1", "A2"],
         "['A1', 'A2'] is not a chamber: its Gram matrix is not negative definite"),
    ]
    for geom, d, names, message in refusals:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            chamber_positive_part(geom, d, names)


def test_failed_support_is_not_cached(hilb2, k3_elliptic):
    # A caller's set that is no chamber is refused with a DomainError, and
    # the same failed Schur step on a support asked of the geometry itself
    # reports the catalog inconsistent.  Neither keeps a record.
    geom = hilb2._replace()
    for _ in range(2):
        with pytest.raises(DomainError, match="non-exceptional"):
            chamber_positive_part(geom, DivClass([1, 0]), ["E", "E'"])
        assert frozenset({"E", "E'"}) not in geom.support_projectors
    geom, bad = k3_elliptic._replace(), frozenset({"A1", "A2"})
    message = ("Gram matrix of ['A1', 'A2'] is not negative definite; "
               "the declared prime catalog is inconsistent")
    for _ in range(2):
        with pytest.raises(DomainError, match="is not a chamber: its Gram matrix"):
            chamber_positive_part(geom, DivClass([2, 1, 0]), bad)
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            geom.support_projector(bad)
        assert bad not in geom.support_projectors


def leading_minors_negative_definite(gram) -> bool:
    """(-1)^k det_k > 0 for every leading minor, determinants by the
    permutation expansion (independent of linalg)."""
    for k in range(1, len(gram) + 1):
        det = Fraction(0)
        for perm in permutations(range(k)):
            sign = (-1) ** sum(1 for i in range(k) for j in range(i) if perm[j] > perm[i])
            term = Fraction(sign)
            for i, j in enumerate(perm):
                term *= gram[i][j]
            det += term
        if (-1) ** k * det <= 0:
            return False
    return True


@pytest.mark.parametrize("name", ["hilb2", "k3_elliptic", "hilb2_elliptic", "fano_round"])
def test_decomposition_properties_seeded(name, request):
    """The defining properties of P + N on seeded big classes, on each
    catalog and on its reversed-order copy."""
    geom = request.getfixturevalue(name)
    reversed_geom = geom._replace(
        primes=tuple(reversed(geom.primes)),
        effective_generators=tuple(reversed(geom.effective_generators)),
    )
    for g in (geom, reversed_geom):
        lat = g.lattice
        classes = sample_big_classes(g, 12, seed=5)
        # Rescaled classes move N relative to P; adding a prime enlarges N.
        classes += [d.scale(F(1, 3)) for d in classes[:4]]
        classes += [d + p.cls for d in classes[:4] for p in g.exceptional_primes]
        for d in classes:
            dec = decompose(g, d)
            assert dec.positive + dec.negative_part == d
            combo = g.zero()
            for n, c in dec.negative:
                assert c > 0
                combo = combo + g.prime(n).cls.scale(c)
            assert combo == dec.negative_part
            for q in g.primes:
                pairing = lat.pair(dec.positive, q.cls)
                assert pairing >= 0
                if q.name in dec.support:
                    assert pairing == 0
            names = sorted(dec.support)
            if names:
                support = [g.prime(n).cls for n in names]
                assert leading_minors_negative_definite(sub_gram(lat, support))


def halve_r1(geom):
    """hilb2_elliptic with its Gram matrix and the class of R1 halved: a
    catalog with a fractional Gram matrix and a fractional prime class."""
    lat = geom.lattice
    half_lat = BBFLattice([[v / 2 for v in row] for row in lat.gram], lat.fujiki, lat.half_dim)
    return geom._replace(
        lattice=half_lat,
        primes=tuple(
            p._replace(cls=p.cls.scale(F(1, 2))) if p.name == "R1" else p for p in geom.primes
        ),
    )


@pytest.fixture
def hilb2_elliptic_halved(hilb2_elliptic):
    return halve_r1(hilb2_elliptic)


@pytest.mark.parametrize(
    "name", ["hilb2", "k3_elliptic", "hilb2_elliptic", "hilb2_elliptic_halved"]
)
def test_chamber_formula_matches_fresh_solve_seeded(name, request):
    """The cached integer projector, and chamber_positive_part on it,
    against a fresh Fraction solve of the support's Gram system, on
    every chamber."""
    geom = request.getfixturevalue(name)
    lat = geom.lattice
    for g in (geom, geom._replace(primes=tuple(reversed(geom.primes)))):
        classes = sample_big_classes(g, 6, seed=9)
        # fractional classes, the primes themselves and the basis vectors
        classes += [d.scale(F(1, 3)) for d in classes[:2]] + [p.cls for p in g.primes]
        classes += [DivClass([int(i == j) for j in range(g.rank)]) for i in range(g.rank)]
        for chamber in enumerate_chambers(g):
            names = sorted(chamber)
            support = [g.prime(n).cls for n in names]
            gram = sub_gram(lat, support)
            proj = g.support_projector(chamber)
            for d in classes:
                pos, coeffs = chamber_positive_part(g, d, chamber)
                assert (pos, tuple(coeffs.values())) == (proj.positive(d), proj.coefficients(d))
                if not names:
                    assert (pos, coeffs) == (d, {})
                    continue
                fresh = solve(gram, [lat.pair(d, c) for c in support])
                assert coeffs == dict(zip(names, fresh))
                negative = g.zero()
                for c, x in zip(support, fresh):
                    negative = negative + c.scale(x)
                assert pos == d - negative


def random_negative_supports(seed, count):
    """Seeded catalogs of ranks 2-5 with a rational Gram matrix of
    signature (1, rank - 1), 2-4 exceptional primes and one prime with
    q >= 0, every class over a denominator of 1, 2 or 3, and distinct
    primes pairing nonnegatively.  Their chambers are random
    negative-definite supports.  They declare no effective cone, so they
    serve only the support records."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rank = 2 + len(out) % 4
        gram = [[F(0)] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                gram[i][j] = gram[j][i] = F(rng.randint(-4, 4), rng.choice((1, 1, 2)))
        try:
            lat = BBFLattice(gram, 1, 1)
        except ValueError:
            continue
        primes = []
        for _ in range(40):
            cls = DivClass([F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(rank)])
            q = lat.square(cls)
            exceptional = sum(p.exceptional for p in primes)
            full = exceptional == 4 if q < 0 else len(primes) > exceptional
            if cls.is_zero or full:
                continue
            if all(lat.pair(cls, p.cls) >= 0 for p in primes):
                primes.append(Prime(f"P{len(primes)}", cls, q < 0))
        if sum(p.exceptional for p in primes) >= 2 and not all(p.exceptional for p in primes):
            basis = tuple(f"b{i}" for i in range(rank))
            out.append(Geometry(f"random_{len(out)}", lat, basis, tuple(primes), "polyhedral"))
    return out


@pytest.mark.parametrize(
    "name",
    ["hilb2", "k3_elliptic", "hilb2_elliptic", "hilb2_elliptic_halved", "pairwise_6", "random"],
)
def test_support_records_match_fresh_solve(name, request):
    """One record per chamber, against a fresh Fraction solve of the
    support's Gram system: the coefficients of N_S(E) and the slope
    -P_S(E) of the walk entry of (S, E) for every (prime, chamber), and
    the Minkowski generator of S is P_S(E) made primitive; on the
    bundled catalogs the chamber walk's slope on S is -P_S(E).  The pairwise (-2)-family and the random
    supports hold big classes on Eff's facets (or declare no Eff), so
    no walk runs on them."""
    if name == "pairwise_6":
        geoms = [pairwise_family(6)]
    elif name == "random":
        geoms = random_negative_supports(seed=41, count=60)
        assert {g.rank for g in geoms} == {2, 3, 4, 5}
        assert any(p.cls.den > 1 for g in geoms for p in g.primes)
        assert any(v.denominator > 1 for g in geoms for row in g.lattice.gram for v in row)
        # on copies: the chamber list leaves its records on the geometry
        assert max(len(ch) for g in geoms for ch in g._replace().chambers) >= 3
    else:
        geoms = [request.getfixturevalue(name)._replace()]
    for geom in geoms:
        _check_support_records(geom, walks=name not in ("pairwise_6", "random"))


def _check_support_records(geom, walks):
    # The random supports declare no Eff, so chamber_generator, which
    # builds Eff first, refuses them by rule (c).
    lat, has_eff = geom.lattice, bool(geom.effective_generators)
    assert geom.support_projectors == {}
    fresh = {}
    for chamber in geom.chambers:
        support = [geom.prime(n).cls for n in sorted(chamber)]
        record = geom.support_projector(chamber)
        assert record.names == tuple(sorted(chamber))
        for prime in geom.primes:
            xs = solve(sub_gram(lat, support), [lat.pair(prime.cls, c) for c in support])
            assert record.coefficients(prime.cls) == tuple(xs)
            image = prime.cls
            for c, x in zip(support, xs):
                image = image - c.scale(x)
            entry = geom.kept("walk", (chamber, prime.name), _walk_entry)
            assert entry[0] == -image  # the slope
            assert geom.kept("walk", (chamber, prime.name), _walk_entry) is entry
            fresh[prime.name, chamber] = image
            if prime.name in chamber:
                with pytest.raises(DomainError, match="flag"):
                    chamber_generator(geom, chamber, prime.name)
                continue
            assert all(x <= 0 for x in xs)  # E + sum (-x_i) E_i, with -x_i >= 0
            if has_eff:
                assert chamber_generator(geom, chamber, prime.name) == image.primitive()
            else:
                with pytest.raises(ConsistencyError, match="declared effective cone misses prime "):
                    chamber_generator(geom, chamber, prime.name)
        assert geom.support_projector(chamber) is record
    # records are keyed by the chambers themselves
    assert set(geom.support_projectors) == set(geom.chambers)
    if walks:
        walked = set()
        for d in sample_big_classes(geom, 6, seed=4):
            dec = decompose(geom, d)
            for prime in geom.primes:
                if dec.coefficient(prime.name):
                    continue
                for seg in chamber_walk(geom, d, prime.name).segments:
                    assert seg.slope == -fresh[prime.name, seg.chamber]
                    walked.add((prime.name, seg.chamber))
        assert len({chamber for _, chamber in walked}) > 1
    # a failed build is not kept; the pairwise family has no movable
    # prime, and any three of its primes have a singular Gram matrix
    kept = dict(geom.support_projectors)
    movable = [p.name for p in geom.primes if not p.exceptional]
    bad = frozenset(movable[:1] or [p.name for p in geom.primes[:3]])
    flag = next(p for p in geom.primes if p.name not in bad)
    # the record's own failed step is a catalog inconsistency; the same
    # set named to chamber_generator is refused as no chamber
    builds = [(lambda: geom.support_projector(bad), ConsistencyError, "negative definite")]
    if has_eff:
        builds.append((lambda: chamber_generator(geom, bad, flag.name), DomainError, "is not a chamber"))
    for build, error, match in builds:
        with pytest.raises(error, match=match):
            build()
        assert geom.support_projectors == kept


def test_support_projector_raises_exactly_when_not_negative_definite():
    """Every subset of a random catalog's primes, asked for in a seeded
    order: the record is built exactly when the inertia oracle calls the
    support negative definite, a failure is not kept, and every kept
    record is a chamber."""
    rng = random.Random(43)
    built = failed = 0
    for geom in random_negative_supports(seed=47, count=24):
        names = [p.name for p in geom.primes]
        subsets = [
            frozenset(n for i, n in enumerate(names) if mask >> i & 1)
            for mask in range(1 << len(names))
        ]
        rng.shuffle(subsets)
        for support in subsets:
            definite = negative_definite(geom.lattice, [geom.prime(n).cls for n in sorted(support)])
            if definite:
                assert geom.support_projector(support).names == tuple(sorted(support))
                built += 1
            else:
                with pytest.raises(ConsistencyError, match="not negative definite"):
                    geom.support_projector(support)
                assert support not in geom.support_projectors
                failed += 1
        assert set(geom.support_projectors) <= set(geom.chambers)
        assert set(geom.chambers) == {
            s for s in subsets
            if all(geom.prime(n).exceptional for n in s)
            and negative_definite(geom.lattice, [geom.prime(n).cls for n in s])
        }
    assert built > 100 and failed > 100


@pytest.mark.parametrize("name", ["k3_elliptic", "hilb2_elliptic_halved", "pairwise_6", "random"])
def test_support_records_equal_whichever_path_builds_them(name, request):
    """Records asked of support_projector before the chamber list, in a
    seeded order, equal by value the records the chamber list leaves on
    a fresh copy: the same names and images, and the same P_S and
    coefficients on the basis vectors and the primes (den is not
    canonical)."""
    if name == "pairwise_6":
        geoms = [pairwise_family(6)]
    elif name == "random":
        geoms = random_negative_supports(seed=53, count=12)
    else:
        geoms = [request.getfixturevalue(name)]
    rng = random.Random(59)
    for geom in geoms:
        early, late = geom._replace(), geom._replace()
        chambers = list(geom.chambers)
        rng.shuffle(chambers)
        asked = {chamber: early.support_projector(chamber) for chamber in chambers}
        assert early.chambers == late.chambers == geom.chambers
        probes = [DivClass([int(i == j) for j in range(geom.rank)]) for i in range(geom.rank)]
        probes += [p.cls for p in geom.primes]
        for chamber, record in asked.items():
            assert early.support_projector(chamber) is record
            other = late.support_projectors[chamber]
            assert record.names == other.names
            for d in probes:
                assert record.positive(d) == other.positive(d)
                assert record.coefficients(d) == other.coefficients(d)


def test_decompose_rejects_degenerate_catalog():
    # Two exceptional primes on the same ray: their Gram matrix is
    # singular, so the decomposition must refuse the catalog rather
    # than invent coefficients.  They pair to q(2d, 4d) = -16, so rule
    # (d) refuses it when Eff is built, before any support is grown.
    doc = {
        "name": "degenerate",
        "half_dim": 1,
        "fujiki": 1,
        "basis": ["H", "d"],
        "gram": [[2, 0], [0, -2]],
        "mode": "polyhedral",
        "primes": [
            {"name": "E", "class": [0, 2], "exceptional": True},
            {"name": "EE", "class": [0, 4], "exceptional": True},
        ],
        "effective_generators": [[0, 1], [1, -1]],
    }
    geom = parse_geometry(json.dumps(doc))
    with pytest.raises(ConsistencyError, match="^distinct primes 'E' and 'EE' pair to -16 < 0; "
                                               "distinct primes must pair nonnegatively$"):
        decompose(geom, DivClass([0, 1]))


def test_fractional_gram_and_prime_class_oracle(hilb2_elliptic):
    # The bundled catalogs all have integral Grams and prime classes.
    # Halving the Gram matrix and the class of R1 changes no chamber:
    # P and N stay, R1's coefficient doubles, heights and q halve.
    geom = hilb2_elliptic
    lat = geom.lattice
    halved = "R1"
    half = halve_r1(geom)
    assert any(v.denominator > 1 for row in half.lattice.gram for v in row)
    assert half.prime(halved).cls.den == 2
    flag = next(p.name for p in geom.primes if not p.exceptional)
    n = lat.half_dim
    seen_halved = False
    for d in sample_big_classes(geom, 16, seed=5):
        a, b = decompose(geom, d), decompose(half, d)
        assert b.positive == a.positive and b.negative_part == a.negative_part
        assert b.coefficient(halved) == 2 * a.coefficient(halved)
        assert {k: x for k, x in b.negative if k != halved} == {
            k: x for k, x in a.negative if k != halved
        }
        seen_halved |= a.coefficient(halved) > 0
        pa, pb = polygon(geom, d, flag), polygon(half, d, flag)
        assert (pb.nu, pb.mu) == (pa.nu, pa.mu)
        assert [x for x, _ in pb.vertices] == [x for x, _ in pa.vertices]
        assert [y * 2 for _, y in pb.vertices] == [y for _, y in pa.vertices]
        assert volume(half, d) == volume(geom, d) * F(1, 2) ** n
    assert seen_halved
