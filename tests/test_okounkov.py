"""Polygons along prime divisors: traces, thresholds and cones.

Frozen expected values are hand-solved.  Rank-2 model (basis H, d;
q = diag(2, -2); E = 2d, E' = H - d):

    (H, E):       P(H - tE) = (1, -2t) stays in the empty chamber;
                  height 8t, threshold 1/2 -> triangle, area 1.
    (3H-E, E'):   height q(P(D - tE'), E') is the constant 2 until the
                  wall at t = 2 where E joins, then 2(3 - t); threshold
                  3 -> trapezium (0,0),(3,0),(2,2),(0,2), area 5.
    (H, E'):      the wall sits at t = 0 (q(H, E) = 0), so the walk
                  joins {E} immediately; height 2(1 - t) -> triangle
                  (0,0),(1,0),(0,2).

Round model (q = [[2,4],[4,2]], D = (1,0), S = (0,1)): the threshold
solves 2t^2 - 8t + 2 = 0, mu = 2 - sqrt(3); height 4 - 2t; the
trapezoid area (2 + sqrt(3))(2 - sqrt(3)) = 1 exactly.
"""

import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ihspoly import (
    ConePoint,
    ConsistencyError,
    DiscriminantMixError,
    DivClass,
    DomainError,
    NOPolygon,
    Surd,
    chamber_closure_rays,
    chamber_walk,
    cone_contains,
    cone_generators,
    decompose,
    enumerate_chambers,
    is_pseudo_effective,
    mu_threshold,
    parse_divisor,
    parse_geometry,
    polygon,
    polygon_contains,
    polygon_minkowski_sum,
    polygon_scale,
    sample_big_classes,
)
from ihspoly import cli, geometry, linalg, linprog, okounkov
from ihspoly.lattice import dot
from ihspoly.polygon2d import points
from ihspoly.surd import to_frame
from families import catalog, elliptic_family, pairwise_family
from oracles import _surd_contains_point as contains_point
from oracles import _surd_contains_polygon as contains_polygon
from oracles import convex_hull, oracle_in_cone, point, quadratic_roots, smallest_positive_root, solve, sub_gram

F = Fraction
GEOM_DIR = Path(__file__).resolve().parents[1] / "geometries"


# -- thresholds -----------------------------------------------------------------


def test_mu_threshold_polyhedral(hilb2):
    assert mu_threshold(hilb2, DivClass([1, 0]), "E") == F(1, 2)
    assert mu_threshold(hilb2, DivClass([0, 2]), "E") == 1
    assert mu_threshold(hilb2, DivClass([1, 2]), "E") == F(3, 2)
    assert mu_threshold(hilb2, DivClass([3, -2]), "E'") == 3
    assert mu_threshold(hilb2, DivClass([1, 0]), "E'") == 1


def test_mu_threshold_round_surd(fano_round):
    mu = mu_threshold(fano_round, DivClass([1, 0]), "S")
    assert mu == Surd(2, -1, 3)
    # The threshold is a root of q(D - tS) = 2t^2 - 8t + 2.
    assert Surd(2) - 8 * mu + 2 * mu * mu == 0


def test_mu_threshold_round_isotropic_start(fano_round):
    assert mu_threshold(fano_round, fano_round.zero(), "S") == 0


def test_mu_threshold_proportional_isotropics():
    # Hyperbolic-plane round model with an isotropic catalog prime:
    # D = 2S is orthogonal to the isotropic S, so the threshold is the
    # proportionality ratio.
    doc = """{
        "name": "plane", "half_dim": 1, "fujiki": 1,
        "basis": ["u", "v"], "gram": [[0, 1], [1, 0]],
        "mode": "round",
        "primes": [{"name": "S", "class": [1, 0], "exceptional": false}],
        "ample": [1, 1]
    }"""
    geom = parse_geometry(doc)
    assert mu_threshold(geom, DivClass([2, 0]), "S") == 2
    # q(D) = 0 with q(D, S) > 0: no room at all.
    assert mu_threshold(geom, DivClass([0, 3]), "S") == 0


def test_mu_threshold_ten_digit_round_class(fano_round):
    # The discriminant is 3 (4 * 1000000007)^2; its square-free part is
    # settled by the trial divisors 2 and 3.
    d = DivClass([1000000007, 1000000009])
    mu = mu_threshold(fano_round, d, "S")
    assert mu == Surd(3000000023, -1000000007, 3)
    lat, s = fano_round.lattice, fano_round.prime("S").cls
    assert lat.square(d) - 2 * mu * lat.pair(d, s) + mu * mu * lat.square(s) == 0


def test_mu_threshold_errors(hilb2):
    with pytest.raises(DomainError, match="pseudo-effective"):
        mu_threshold(hilb2, DivClass([-1, 0]), "E")
    with pytest.raises(DomainError, match="unknown prime"):
        mu_threshold(hilb2, DivClass([1, 0]), "Q")


ROUND3 = """{
    "name": "round3", "half_dim": 1, "fujiki": 1,
    "basis": ["h", "a", "b"], "gram": [[2, 0, 0], [0, -2, 0], [0, 0, -2]],
    "mode": "round",
    "primes": [
        {"name": "H", "class": [1, 0, 0], "exceptional": false},
        {"name": "T", "class": [2, 1, 1], "exceptional": false},
        {"name": "L", "class": [1, 1, 0], "exceptional": false}
    ],
    "ample": [1, 0, 0]
}"""


def _oracle_mu(geom, d, e):
    """The former threshold: the least positive root of q(D - tE) by
    quadratic_roots, or the rule for isotropic D."""
    lat = geom.lattice
    qd, qde, qe = lat.square(d), lat.pair(d, e), lat.square(e)
    if qd == 0:
        return Surd(0) if qde > 0 else Surd(d.ratio(e))
    return smallest_positive_root(qe, -2 * qde, qd)


def test_threshold_matches_quadratic_root_oracle_seeded(fano_round):
    # The integer threshold, chosen by the signs of the pairings, against
    # the ordered roots: sqrt(3) on fano_lines, sqrt(5), sqrt(10) and
    # rational roots over diag(2, -2, -2), the linear equation of the
    # isotropic flags L and S, and both branches for isotropic D.
    rng = random.Random(181)
    seen = Counter()
    for geom in (fano_round, parse_geometry(ROUND3), parse_geometry(PLANE)):
        lat = geom.lattice
        classes = [DivClass([rng.randint(-3, 9) for _ in range(lat.rank)]) for _ in range(60)]
        classes += [DivClass(v) for v in ((5, 3, 4), (1, 1, 0), (2, 2, 0))[: 3 if lat.rank == 3 else 0]]
        classes += [DivClass(v) for v in ((3, 0), (0, 2))[: 2 if geom.name == "plane" else 0]]
        for d in filter(lambda d: is_pseudo_effective(geom, d), classes):
            for prime in geom.primes:
                e = prime.cls
                mu = mu_threshold(geom, d, prime.name)
                assert mu == _oracle_mu(geom, d, e), (geom.name, d, prime.name)
                if lat.square(d) == 0:
                    seen["q(D) = 0, mu = 0" if lat.pair(d, e) > 0 else "q(D) = 0, proportional"] += 1
                    continue
                assert lat.square(d) - 2 * mu * lat.pair(d, e) + mu * mu * lat.square(e) == 0
                if not lat.square(e):
                    seen["linear"] += 1
                seen[f"sqrt({mu.d})" if mu.d else "rational"] += 1
    assert {"sqrt(3)", "sqrt(5)", "sqrt(10)", "rational", "linear"} <= set(seen), seen
    assert seen["q(D) = 0, mu = 0"] and seen["q(D) = 0, proportional"], seen
    # a perfect-square discriminant with q(E) != 0: over diag(2, -2, -2),
    # D = 6h + 3a + 4b along H has quarter discriminant 3^2 + 4^2 = 5^2
    assert mu_threshold(parse_geometry(ROUND3), DivClass([6, 3, 4]), "H") == 1


def test_trial_divisor_refusal_keeps_its_name(tmp_path, capsys):
    # Along H the quarter discriminant of this class is 1000033 * 1000037,
    # two primes above TRIAL_DIVISOR_LIMIT: polygon refuses by that name,
    # as mu_threshold does, and the CLI reports it with exit code 3.
    geom = parse_geometry(ROUND3)
    d = DivClass([1241442, 281986, 959455])
    with pytest.raises(DomainError, match="TRIAL_DIVISOR_LIMIT"):
        mu_threshold(geom, d, "H")
    with pytest.raises(DomainError, match="TRIAL_DIVISOR_LIMIT"):
        polygon(geom, d, "H")
    path = tmp_path / "round3.geom"
    path.write_text(ROUND3, encoding="utf-8")
    argv = ["polygon", str(path), "1241442*h + 281986*a + 959455*b", "H", "--format", "machine"]
    assert cli.main(argv) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["code"] == 3 and "TRIAL_DIVISOR_LIMIT" in payload["message"]


def _fraction_threshold(geom, e, x):
    """The least f . x / f . e over Eff's facets f with f . e > 0, in
    Fractions on the classes' coordinates."""
    return min(F(dot(f, x.coords), dot(f, e.coords)) for f in geom.eff_cone.facets if dot(f, e.coords) > 0)


def test_integer_threshold_matches_fraction_min_ratio_and_cone_oracle(hilb2, k3_elliptic, hilb2_elliptic):
    # The polyhedral threshold, an integer max_step over the flag's kept
    # pairings, against the facets' min-ratio in Fractions, and D - mu E
    # against the Caratheodory oracle for Eff, exactly: on seeded big
    # classes D and their D - nu_E(D) E, along every prime of each
    # polyhedral catalog; Eff's generators, on its boundary, add
    # thresholds of 0.
    seen = Counter()
    for geom in (hilb2, k3_elliptic, hilb2_elliptic, elliptic_family(2), elliptic_family(3)):
        gens = [g.coords for g in geom.effective_generators]
        for d in (*sample_big_classes(geom, 6, seed=23), *geom.effective_generators):
            dec = decompose(geom, d)
            for prime in geom.primes:
                e, nu = prime.cls, dec.coefficient(prime.name)
                for x in {d, d - e.scale(nu)}:
                    t = _fraction_threshold(geom, e, x)
                    assert mu_threshold(geom, x, prime.name) == t, (geom.name, x, prime.name)
                    assert oracle_in_cone(gens, (x - e.scale(t)).coords), (geom.name, x, prime.name)
                    seen["D - nu E" if x != d else "D"] += 1
                    seen["mu = 0" if not t else "mu > 0"] += 1
    assert seen == {"D": 288, "D - nu E": 80, "mu = 0": 131, "mu > 0": 237}, seen


def test_stripped_class_outside_eff_is_a_consistency_error(hilb2):
    # The polyhedral threshold's max_step confirms that D - nu E lies in
    # Eff; a class outside it, which D - nu E of a consistent catalog
    # never is, means the catalog is at fault.  (1, -2) lies just past
    # hilb2's facet (1, 1); (1, 1) leaves the span of a thin Eff = cone(d).
    def threshold(geom, d, name):
        return okounkov._threshold(geom, d, geom.prime(name), geom.lattice.form(d))

    message = "normalized class left the declared effective cone"
    with pytest.raises(ConsistencyError, match=message):
        threshold(hilb2, DivClass([1, -2]), "E")
    thin = catalog("thin", [2, -2], [("Q", [0, 1])], [[0, 1]])
    assert thin.eff_cone.equations
    with pytest.raises(ConsistencyError, match=message):
        threshold(thin, DivClass([1, 1]), "Q")
    assert threshold(thin, DivClass([0, 3]), "Q") == (3, 0, 1, 0)


# -- frozen polygons ----------------------------------------------------------------


def test_triangle_of_h_along_e(hilb2):
    poly = polygon(hilb2, DivClass([1, 0]), "E")
    assert poly.vertices == (point(0, 0), point(F(1, 2), 0), point(F(1, 2), 4))
    assert poly.nu == 0
    assert poly.mu == F(1, 2)
    assert poly.area == 1
    assert poly.area == F(1, 2) * hilb2.lattice.square(DivClass([1, 0]))
    assert poly.trace.chambers == (frozenset(),)
    assert poly.trace.interior_breakpoints == ()


def test_trapezium_with_breakpoint(hilb2):
    d = parse_divisor(hilb2, "3H - E")
    poly = polygon(hilb2, d, "E'")
    assert poly.vertices == (point(0, 0), point(3, 0), point(2, 2), point(0, 2))
    assert poly.nu == 0
    assert poly.mu == 3
    assert poly.area == 5
    assert poly.trace.interior_breakpoints == (F(2),)
    assert poly.trace.chambers == (frozenset(), frozenset({"E"}))


def test_immediate_wall_at_zero(hilb2):
    # q(H, E) = 0: the walk crosses into {E} before moving at all.
    poly = polygon(hilb2, DivClass([1, 0]), "E'")
    assert poly.vertices == (point(0, 0), point(1, 0), point(0, 2))
    assert poly.trace.chambers == (frozenset({"E"}),)
    assert poly.trace.interior_breakpoints == ()
    assert poly.area == 1


def test_degenerate_vertical_segment(hilb2):
    # D = H - d is isotropic: mu = 0 and the polygon is the fiber
    # {0} x [0, q(D, E)].
    poly = polygon(hilb2, DivClass([1, -1]), "E")
    assert poly.vertices == (point(0, 0), point(0, 4))
    assert poly.nu == 0
    assert poly.mu == 0
    assert poly.area == 0


def test_degenerate_horizontal_segment(hilb2):
    # Along its own ray the isotropic class sweeps [0, 1] x {0}.
    poly = polygon(hilb2, DivClass([1, -1]), "E'")
    assert poly.vertices == (point(0, 0), point(1, 0))
    assert poly.mu == 1
    assert poly.area == 0


def test_degenerate_point(hilb2):
    # d = (1/2) E: everything is offset, nothing is left to sweep.
    poly = polygon(hilb2, DivClass([0, 1]), "E")
    assert poly.vertices == (point(0, 0),)
    assert poly.nu == F(1, 2)
    assert poly.mu == 0
    assert poly.area == 0


def test_zero_class_polygon(hilb2):
    poly = polygon(hilb2, hilb2.zero(), "E")
    assert poly.vertices == (point(0, 0),)
    assert poly.nu == 0
    assert poly.mu == 0


def test_nu_offset_translates_polygon(hilb2):
    base = polygon(hilb2, DivClass([1, 0]), "E")
    moved = polygon(hilb2, DivClass([1, 2]), "E")  # H + E
    assert moved.nu == 1
    assert moved.mu == F(1, 2)
    assert moved.vertices == base.vertices
    assert moved.absolute_vertices() == (
        point(1, 0), point(F(3, 2), 0), point(F(3, 2), 4),
    )
    # nu + mu recovers the absolute threshold.
    assert Surd(moved.nu) + moved.mu == mu_threshold(hilb2, DivClass([1, 2]), "E")


def test_round_polygon_exact_surd(fano_round):
    poly = polygon(fano_round, DivClass([1, 0]), "S")
    mu = Surd(2, -1, 3)
    assert poly.mu == mu
    assert poly.vertices == (
        (Surd(0), Surd(0)),
        (mu, Surd(0)),
        (mu, Surd(0, 2, 3)),
        (Surd(0), Surd(4)),
    )
    assert poly.area == 1  # (2 + sqrt(3))(2 - sqrt(3)), exactly rational
    assert poly.nu == 0


def test_round_isotropic_segment():
    doc = """{
        "name": "plane", "half_dim": 1, "fujiki": 1,
        "basis": ["u", "v"], "gram": [[0, 1], [1, 0]],
        "mode": "round",
        "primes": [{"name": "S", "class": [1, 0], "exceptional": false}],
        "ample": [1, 1]
    }"""
    geom = parse_geometry(doc)
    poly = polygon(geom, DivClass([2, 0]), "S")
    assert poly.vertices == (point(0, 0), point(2, 0))
    assert poly.area == 0


def test_elliptic_polygons(k3_elliptic):
    d = DivClass([2, 1, 1])  # 2f + s + c, with N(D) = A1
    along_fiber = polygon(k3_elliptic, d, "Fib")
    assert along_fiber.vertices == (point(0, 0), point(2, 0), point(0, 1))
    assert along_fiber.nu == 0
    assert along_fiber.area == 1  # q(2f + s)/2

    along_section = polygon(k3_elliptic, d, "Sec")
    assert along_section.vertices == (point(0, 0), point(1, 0), point(1, 2))
    assert along_section.mu == 1
    assert along_section.area == 1


def test_rank4_polygon(hilb2_elliptic):
    d = DivClass([2, 1, 0, 0])
    poly = polygon(hilb2_elliptic, d, "F")
    assert poly.vertices == (point(0, 0), point(2, 0), point(0, 1))
    assert poly.area == 1
    assert poly.trace.chambers == (frozenset({"R0"}),)


def test_polygon_errors(hilb2):
    with pytest.raises(DomainError, match="pseudo-effective"):
        polygon(hilb2, DivClass([-1, 0]), "E")
    with pytest.raises(DomainError, match="unknown prime"):
        polygon(hilb2, DivClass([1, 0]), "X")


# -- area identity ------------------------------------------------------------------


def test_area_identity_seeded(hilb2, k3_elliptic, hilb2_elliptic):
    rng = random.Random(101)
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        lat = geom.lattice
        for _ in range(12):
            d = geom.zero()
            for g in geom.effective_generators:
                d = d + g.scale(rng.randint(0, 5))
            qp = lat.square(decompose(geom, d).positive)
            for prime in geom.primes:
                poly = polygon(geom, d, prime.name)
                assert 2 * poly.area == qp


# -- the chamber walk ------------------------------------------------------------------


def test_polygon_decomposes_once(hilb2, monkeypatch):
    calls = []

    def counting(geom, d):
        calls.append(d)
        return decompose(geom, d)

    monkeypatch.setattr(okounkov, "decompose", counting)
    # nu = 0: the walk reuses polygon's own decomposition.
    polygon(hilb2, DivClass([3, -1]), "E")
    assert calls == [DivClass([3, -1])]
    # nu > 0: the walk reads D - nu E's decomposition off D's.
    calls.clear()
    poly = polygon(hilb2, DivClass([3, 2]), "E")
    assert poly.nu > 0
    assert calls == [DivClass([3, 2])]


def test_nu_strip_matches_fresh_decomposition_seeded(hilb2, k3_elliptic, hilb2_elliptic):
    # The decomposition is unique, so D - nu E = P(D) + (N(D) - nu E) is
    # its own: a fresh decompose of the stripped class must agree, and
    # so must the walk of the stripped class, which has nu = 0.
    rng = random.Random(131)
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        exceptional = geom.exceptional_primes
        checked = 0
        for _ in range(12):
            d = geom.zero()
            for g in geom.effective_generators:
                d = d + g.scale(F(rng.randint(0, 4), rng.choice((1, 2))))
            for e in exceptional:
                d = d + e.cls.scale(rng.randint(0, 2))
            dec = decompose(geom, d)
            for prime in geom.primes:
                nu = dec.coefficient(prime.name)
                if not nu:
                    continue
                stripped = d - prime.cls.scale(nu)
                fresh = decompose(geom, stripped)
                assert fresh.positive == dec.positive
                assert fresh.negative == tuple((n, c) for n, c in dec.negative if n != prime.name)
                assert fresh.negative_part == dec.negative_part - prime.cls.scale(nu)
                poly, again = polygon(geom, d, prime.name), polygon(geom, stripped, prime.name)
                assert (poly.nu, again.nu) == (nu, 0)
                assert poly.trace == again.trace and poly.vertices == again.vertices
                checked += 1
        assert checked


def test_walk_segments_explicit(hilb2):
    trace = chamber_walk(hilb2, DivClass([3, -2]), "E'")
    assert len(trace.segments) == 2
    first, second = trace.segments
    assert (first.t_start, first.t_end) == (0, Surd(2))
    assert first.chamber == frozenset()
    assert first.base == DivClass([3, -2])
    assert first.slope == DivClass([-1, 1])
    assert (second.t_start, second.t_end) == (2, Surd(3))
    assert second.chamber == frozenset({"E"})
    assert second.base == DivClass([3, 0])
    assert second.slope == DivClass([-1, 0])
    assert trace.mu == 3


def test_walk_matches_pointwise_decomposition(hilb2, k3_elliptic):
    rng = random.Random(103)
    for geom in (hilb2, k3_elliptic):
        for _ in range(10):
            d = geom.zero()
            for g in geom.effective_generators:
                d = d + g.scale(rng.randint(1, 4))
            dec = decompose(geom, d)
            if geom.lattice.square(dec.positive) <= 0:
                continue
            for prime in geom.primes:
                if dec.coefficient(prime.name):
                    continue
                trace = chamber_walk(geom, d, prime.name)
                for seg in trace.segments:
                    if not seg.t_end.is_rational:
                        continue
                    t_hi = seg.t_end.as_fraction()
                    for t in (seg.t_start, (seg.t_start + t_hi) / 2, t_hi):
                        expected = decompose(geom, d - prime.cls.scale(t)).positive
                        assert seg.base + seg.slope.scale(t) == expected


def test_walk_chambers_nest(hilb2, k3_elliptic, hilb2_elliptic):
    rng = random.Random(107)
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        for _ in range(10):
            d = geom.zero()
            for g in geom.effective_generators:
                d = d + g.scale(rng.randint(1, 4))
            dec = decompose(geom, d)
            if geom.lattice.square(dec.positive) <= 0:
                continue
            for prime in geom.primes:
                if dec.coefficient(prime.name):
                    continue
                trace = chamber_walk(geom, d, prime.name)
                chambers = trace.chambers
                for a, b in zip(chambers, chambers[1:]):
                    assert a < b  # strictly growing support


def test_walk_slope_cache_matches_fresh_solve(hilb2, k3_elliptic, hilb2_elliptic):
    # The walk slope on support S is -P_S(E), read off the walk entry of
    # (S, E); against a fresh Fraction solve of the Gram system of S.
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        lat = geom.lattice
        fresh_copy = geom._replace()
        assert fresh_copy.support_projectors == {}
        fresh = {}
        for prime in fresh_copy.primes:
            for chamber in fresh_copy.chambers:
                support = [geom.prime(n).cls for n in sorted(chamber)]
                xs = solve(sub_gram(lat, support), [lat.pair(prime.cls, c) for c in support])
                image = prime.cls
                for c, x in zip(support, xs):
                    image = image - c.scale(x)
                entry = fresh_copy.kept("walk", (chamber, prime.name), okounkov._walk_entry)
                assert entry[0] == -image
                assert fresh_copy.kept("walk", (chamber, prime.name), okounkov._walk_entry) is entry
                fresh[prime.name, chamber] = -image
        assert set(fresh_copy.support_projectors) == set(geom.chambers)
        # the walk takes its slopes from those records
        walked = 0
        for d in sample_big_classes(fresh_copy, 4, seed=11):
            dec = decompose(fresh_copy, d)
            for prime in fresh_copy.primes:
                if dec.coefficient(prime.name):
                    continue
                for seg in chamber_walk(fresh_copy, d, prime.name).segments:
                    assert seg.slope == fresh[prime.name, seg.chamber]
                    walked += 1
        assert walked
        # a failed solve is not kept
        kept = dict(fresh_copy.support_projectors)
        movable = next(p for p in geom.primes if not p.exceptional)
        with pytest.raises(ConsistencyError):
            fresh_copy.support_projector(frozenset({movable.name}))
        assert fresh_copy.support_projectors == kept


def test_walk_entries_match_a_scan_of_the_primes(hilb2, k3_elliptic, hilb2_elliptic, fano_round):
    # Every (chamber, flag) entry against the Fraction pairing: the slope's
    # form is its own, and the walls are exactly the primes outside S + E
    # that pair negatively with the slope, in catalog order, each with its
    # form row and the numerator of that pairing.
    met = 0
    for geom in (hilb2, k3_elliptic, hilb2_elliptic, fano_round):
        geom, lat = geom._replace(), geom.lattice
        for chamber in geom.chambers:
            for prime in geom.primes:
                if prime.name in chamber:
                    continue
                slope, form, walls = okounkov._walk_entry(geom, (chamber, prime.name))
                assert form == lat.form(slope)
                want = [q for q in geom.primes if q.name not in chamber and q.name != prime.name
                        and lat.pair(slope, q.cls) < 0]
                assert [name for name, _, _ in walls] == [q.name for q in want]
                for (_, row, c1), q in zip(walls, want):
                    q_row, q_den = lat.form(q.cls)
                    assert row == q_row
                    assert Fraction(c1, slope.den * q_den) == lat.pair(slope, q.cls)
                met += len(want)
    assert met == 156


def test_repeated_polygons_build_no_walk_entry(hilb2_elliptic):
    # Polygons keep one walk entry per (support, flag) they stand on and
    # one threshold entry per flag, and nothing else; asked again, they
    # build neither.
    geom = hilb2_elliptic._replace()
    classes = sample_big_classes(geom, 6, seed=19)
    first = [polygon(geom, d, p.name) for d in classes for p in geom.primes]
    kept = dict(geom.answers)
    assert {kind for kind, _ in kept} == {"walk", "threshold"}
    assert sorted(name for kind, name in kept if kind == "threshold") == sorted(p.name for p in geom.primes)
    assert sum(kind == "walk" for kind, _ in kept) > len(geom.primes)
    assert [polygon(geom, d, p.name) for d in classes for p in geom.primes] == first
    assert geom.answers.keys() == kept.keys()
    assert all(geom.answers[key] is entry for key, entry in kept.items())


def test_warm_polygon_builds_no_fraction_in_threshold_or_outline(hilb2_elliptic):
    # With the flags' threshold entries kept, a polygon's threshold is one
    # integer max_step over Eff, handed the flag's pairings, and its
    # outline reads the heights off the flag's form row: no Fraction is
    # built while _threshold (and so max_step) or _outline is on the
    # stack.
    geom = hilb2_elliptic._replace()
    cases = [(d, p.name) for d in sample_big_classes(geom, 6, seed=19) for p in geom.primes]
    first = [polygon(geom, d, name) for d, name in cases]
    watched = {okounkov._threshold.__code__, okounkov._outline.__code__}
    calls = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is linprog.max_step.__code__:
            calls["max_step"] += 1
        elif frame.f_code is Fraction.__new__.__code__:
            calls["Fraction"] += 1
            while frame is not None and frame.f_code not in watched:
                frame = frame.f_back
            if frame is not None:
                calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        again = [polygon(geom, d, name) for d, name in cases]
    finally:
        sys.setprofile(None)
    assert again == first
    assert calls["max_step"] == len(cases)  # the thresholds', one each
    assert calls.keys() == {"max_step", "Fraction"}  # the walk's breakpoints and the decompositions' coefficients


def test_check_sweep_builds_the_entries_its_walks_stand_on(hilb2_elliptic, monkeypatch):
    # run_checks(hilb2_k3, 4, 0) on a fresh copy: only chamber walks ask
    # for entries, one per round; 98 rounds on the geometry leave 46 of
    # the 18 * 6 (chamber, flag) entries, the 40 pairs of the traces'
    # segments and 6 supports met at a wall of zero length.  The
    # catalog-order check's reordered copy walks one round.
    from ihspoly.checks import run_checks

    geom = hilb2_elliptic._replace()
    rounds, built, segments, inside = Counter(), Counter(), set(), []
    kept, build, trace = geometry.Geometry.kept, okounkov._walk_entry, okounkov._trace

    def counting_kept(self, kind, argument, build):
        if kind == "walk":
            assert inside, "a walk entry asked for outside a chamber walk"
            rounds[self is geom] += 1
        return kept(self, kind, argument, build)

    def counting_build(self, key):
        built[self is geom] += 1
        return build(self, key)

    def tracing(g, d, prime, dec):
        inside.append(prime)
        try:
            found = trace(g, d, prime, dec)
        finally:
            inside.pop()
        if g is geom:
            segments.update((seg.chamber, prime.name) for seg in found[0].segments)
        return found

    monkeypatch.setattr(geometry.Geometry, "kept", counting_kept)
    monkeypatch.setattr(okounkov, "_walk_entry", counting_build)
    monkeypatch.setattr(okounkov, "_trace", tracing)
    assert all(result.passed for result in run_checks(geom, 4, 0))
    assert rounds == {True: 98, False: 1}
    entries = {argument for kind, argument in geom.answers if kind == "walk"}
    assert built == {True: 46, False: 1} and len(entries) == 46
    assert len(geom.chambers) * len(geom.primes) == 108
    assert segments <= entries and len(segments) == 40


def test_terminus_check_runs_on_big_starts_only(hilb2, hilb2_elliptic, monkeypatch):
    # The terminal identity runs once per polygon of a big class, never
    # for a class that is not big, and is handed each class's own form.
    calls = []
    check = okounkov._check_terminus

    def counting(base, base_form, slope, slope_form, mu):
        calls.append((base, base_form, slope, slope_form))
        return check(base, base_form, slope, slope_form, mu)

    monkeypatch.setattr(okounkov, "_check_terminus", counting)
    starts = Counter()
    for geom in (hilb2, hilb2_elliptic):
        lat = geom.lattice
        for d in [*sample_big_classes(geom, 4, seed=23), *(p.cls for p in geom.primes)]:
            big = lat.square(decompose(geom, d).positive) > 0
            for prime in geom.primes:
                calls.clear()
                polygon(geom, d, prime.name)
                assert len(calls) == big
                for base, base_form, slope, slope_form in calls:
                    assert (base_form, slope_form) == (lat.form(base), lat.form(slope))
                starts[big] += 1
    assert starts == {True: 32, False: 40}


def test_terminus_check_matches_surd_value_seeded(hilb2, hilb2_elliptic, fano_round):
    # The integer identity raises exactly when q(base + mu slope), summed
    # in Surd arithmetic, is nonzero: at the roots of the quadratic,
    # rational or not, and off them.
    rng = random.Random(151)
    outcomes = Counter()
    for geom in (hilb2, hilb2_elliptic, fano_round):
        lat = geom.lattice
        for _ in range(60):
            base, slope = (
                DivClass([F(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(lat.rank)])
                for _ in range(2)
            )
            qb, qbs, qs = lat.square(base), lat.pair(base, slope), lat.square(slope)
            if not (qb or qbs or qs):
                continue
            roots = quadratic_roots(qs, 2 * qbs, qb)
            mus = [*roots, *(r + F(1, 3) for r in roots), Surd(F(rng.randint(0, 9), 4))]
            if qs and qb * qs < 0:
                # rational part q(base) + mu^2 q(slope) = 0, irrational 2 mu q(base, slope)
                mus.append(Surd.sqrt(-qb / qs))
            for mu in mus:
                value = Surd(qb) + mu * (2 * qbs) + mu * mu * qs
                d, den, ((a, b),) = to_frame([mu])
                framed = (a, b, den, d)
                forms = (base, lat.form(base), slope, lat.form(slope))
                if value != 0:
                    with pytest.raises(ConsistencyError, match="terminal cross-check"):
                        okounkov._check_terminus(*forms, framed)
                else:
                    okounkov._check_terminus(*forms, framed)
                outcomes[value == 0, mu.is_rational] += 1
    assert set(outcomes) == {(True, True), (True, False), (False, True), (False, False)}


def test_walk_requires_big(hilb2):
    with pytest.raises(DomainError, match="big"):
        chamber_walk(hilb2, DivClass([1, -1]), "E")


def test_walk_requires_stripped_flag(hilb2):
    with pytest.raises(DomainError, match="strip nu"):
        chamber_walk(hilb2, DivClass([1, 2]), "E")  # nu_E = 1


# -- polygon algebra ---------------------------------------------------------------------


def test_minkowski_decomposition_of_trapezium(hilb2):
    # 2 * polygon(H - d, E') + polygon(H, E') equals polygon(3H - E, E').
    seg = polygon(hilb2, DivClass([1, -1]), "E'")
    tri = polygon(hilb2, DivClass([1, 0]), "E'")
    total = polygon_minkowski_sum(polygon_scale(2, seg), tri)
    expected = polygon(hilb2, DivClass([3, -2]), "E'")
    assert total.vertices == expected.vertices
    assert total.nu == expected.nu == 0
    assert total.mu == expected.mu == 3


def test_polygon_scale(hilb2, fano_round):
    tri = polygon(hilb2, DivClass([1, 0]), "E")
    doubled = polygon_scale(2, tri)
    assert doubled.vertices == (point(0, 0), point(1, 0), point(1, 8))
    assert doubled.mu == 1
    assert doubled.area == 4 * tri.area
    collapsed = polygon_scale(0, tri)
    assert collapsed.vertices == (point(0, 0),)
    assert collapsed.mu == 0
    # a nonzero offset nu and an irrational width collapse to zero too
    for poly in (polygon(hilb2, DivClass([1, 2]), "E"), polygon(fano_round, DivClass([1, 0]), "S")):
        assert poly.nu or not poly.mu.is_rational
        assert polygon_scale(0, poly) == NOPolygon((point(0, 0),), F(0), Surd(0))
    with pytest.raises(DomainError):
        polygon_scale(-1, tri)


def test_scaling_matches_polygon_of_scaled_class(hilb2):
    tri = polygon(hilb2, DivClass([1, 0]), "E")
    direct = polygon(hilb2, DivClass([3, 0]), "E")
    assert polygon_scale(3, tri).vertices == direct.vertices
    assert polygon_scale(3, tri).area == direct.area == 9


def test_superadditivity_equality_case(hilb2):
    tri = polygon(hilb2, DivClass([1, 0]), "E")
    summed = polygon_minkowski_sum(tri, tri)
    direct = polygon(hilb2, DivClass([2, 0]), "E")
    assert summed.vertices == direct.vertices
    assert polygon_contains(direct, summed)
    assert polygon_contains(summed, direct)


def test_round_polygon_operations_lift_nothing(fano_round, monkeypatch):
    # Polygons are born in the integer frame and stay there: 50 rounds of
    # three polygons, a Minkowski sum and a containment test on fano_lines
    # lift no value to the frame.  (No engine module has a root finder to
    # order roots with; test_source_rules keeps it so.)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in [m for n, m in sys.modules.items() if n.startswith("ihspoly.")]:
        if "to_frame" in vars(module):
            monkeypatch.setattr(module, "to_frame", counted("to_frame", vars(module)["to_frame"]))
    rng = random.Random(191)
    for _ in range(50):
        d1, d2 = (DivClass([rng.randint(1, 9), rng.randint(1, 9)]) for _ in range(2))
        p1, p2, p12 = (polygon(fano_round, d, "S") for d in (d1, d2, d1 + d2))
        assert polygon_contains(p12, polygon_minkowski_sum(p1, p2))
    assert calls == Counter()
    NOPolygon(p1.vertices, p1.nu, p1.mu)  # building from Surd points does lift
    assert calls == Counter({"to_frame": 1})


def test_polygon_vertices_are_canonical(hilb2, k3_elliptic, hilb2_elliptic, fano_round):
    # polygon_minkowski_sum's precondition: every vertex tuple it is given
    # or returns is a fixed point of convex_hull.
    def canonical(verts):
        return list(verts) == convex_hull(verts)

    for geom in (hilb2, k3_elliptic, hilb2_elliptic, fano_round):
        classes = sample_big_classes(geom, 4, seed=7) + [geom.zero()]
        classes += [p.cls for p in geom.primes]
        for prime in geom.primes:
            polys = []
            for d in classes:
                try:
                    polys.append(polygon(geom, d, prime.name))
                except DomainError:
                    continue
            assert any(len(p.vertices) < 3 for p in polys)
            for poly in polys:
                assert canonical(poly.vertices)
                assert canonical(poly.absolute_vertices())
                assert poly == NOPolygon(poly.vertices, poly.nu, poly.mu)  # a canonical frame
                for f in (0, F(1, 3), 2):
                    assert canonical(polygon_scale(f, poly).vertices)
            for a in polys:
                for b in polys:
                    assert canonical(polygon_minkowski_sum(a, b).vertices)


PLANE = """{
    "name": "plane", "half_dim": 1, "fujiki": 1,
    "basis": ["u", "v"], "gram": [[0, 1], [1, 0]],
    "mode": "round",
    "primes": [{"name": "S", "class": [1, 0], "exceptional": false}],
    "ample": [1, 1]
}"""


def _without_e_prime():
    """hilb2 without E': its only flag is the exceptional prime E."""
    doc = json.loads((GEOM_DIR / "hilb2.geom").read_text())
    doc["primes"] = [p for p in doc["primes"] if p["name"] != "E'"]
    return parse_geometry(json.dumps(doc))


def _hull_of_trace(geom, trace, prime_name):
    """The former polygon construction, kept as the oracle: the convex hull
    of (0, 0), (mu, 0) and both ends of every walk segment at their
    heights q(base + t slope, E)."""
    pts = [point(0, 0), (trace.mu, Surd(0))]
    for seg in trace.segments:
        c0 = geom.prime_pair(seg.base, prime_name)
        c1 = geom.prime_pair(seg.slope, prime_name)
        pts.append((Surd(seg.t_start), Surd(c0 + seg.t_start * c1)))
        pts.append((seg.t_end, Surd(c0) + seg.t_end * c1))
    return tuple(convex_hull(pts))


def test_polygon_outline_matches_hull_oracle(hilb2, k3_elliptic, hilb2_elliptic, fano_round):
    # Every prime of every bundled catalog and test fixture, over sampled
    # big classes, the zero class, the primes, the cone generators, the
    # ample class and their translates by each prime.
    seen = Counter()
    geoms = (hilb2, k3_elliptic, hilb2_elliptic, fano_round, parse_geometry(PLANE), _without_e_prime())
    for geom in geoms:
        lat = geom.lattice
        classes = sample_big_classes(geom, 6, seed=5) + [geom.zero()]
        classes += [p.cls for p in geom.primes] + list(geom.effective_generators)
        if geom.ample is not None:
            classes.append(geom.ample)
        classes += [d + p.cls for d in classes[:4] for p in geom.primes]
        for prime in geom.primes:
            for d in classes:
                try:
                    poly = polygon(geom, d, prime.name)
                except DomainError:
                    continue
                assert poly.vertices == _hull_of_trace(geom, poly.trace, prime.name)
                assert len(poly.vertices) <= 2 * lat.rank + 2
                seen["big" if lat.square(decompose(geom, d).positive) > 0 else "not big"] += 1
                seen["mu = 0"] += not poly.mu
                seen["nu > 0"] += poly.nu > 0
                seen["isotropic"] += lat.square(d) == 0
    assert all(seen[k] for k in ("big", "not big", "mu = 0", "nu > 0", "isotropic")), seen


def test_outline_drops_joints_of_equal_slope(hilb2):
    # A consistent walk changes the height slope at every wall, so this
    # trace is made by hand.  Along E' the height is 6 - 2t on [0, 1] and
    # again on [1, 2], then 10 - 4t down to 0 at mu = 5/2: the joint at
    # t = 1 is no corner, the one at t = 2 is, and (5/2, 0) is (mu, 0).
    def seg(t0, t1, base, slope):
        return okounkov.WalkSegment(F(t0), Surd(t1), frozenset(), DivClass(base), DivClass(slope))

    mu = F(5, 2)
    trace = okounkov.BreakpointTrace(
        (seg(0, 1, [3, 0], [-1, 0]), seg(1, 2, [3, 0], [-1, 0]), seg(2, mu, [5, 0], [-2, 0])),
        Surd(mu),
    )
    verts = points(okounkov._outline(hilb2, trace, "E'", (5, 0, 2, 0)))
    assert verts == (point(0, 0), point(mu, 0), point(2, 2), point(0, 6))
    assert verts == _hull_of_trace(hilb2, trace, "E'")


def _locate(verts, x, y):
    """'out', 'on' or 'in' for the point (x, y) against a counterclockwise
    convex polygon, all in Fractions."""
    sides = [
        (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
        for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1])
    ]
    if any(s < 0 for s in sides):
        return "out"
    return "on" if any(s == 0 for s in sides) else "in"


def test_polygon_slices_match_fresh_decompositions(hilb2, k3_elliptic, hilb2_elliptic):
    # The slice rule: over t in [0, mu) the polygon's vertical extent is
    # [0, q(P(D - tE), E)], with P from a decomposition of its own.  For
    # 0 < t < mu the vertical line meets the boundary of the polygon in
    # exactly two points, so (t, 0) and (t, h) both on it, with (t, h/2)
    # inside, pin the extent down exactly; at t = 0 it is the left edge.
    rng = random.Random(131)
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        lat = geom.lattice
        for d in sample_big_classes(geom, 8, seed=11):
            for prime in geom.primes:
                poly = polygon(geom, d, prime.name)
                verts = [(x.as_fraction(), y.as_fraction()) for x, y in poly.vertices]
                assert len(verts) <= 2 * lat.rank + 2
                base = d - prime.cls.scale(poly.nu)
                mu = poly.mu.as_fraction()
                for t in [F(0)] + [mu * F(rng.randrange(1, 12), 12) for _ in range(4)]:
                    pos = decompose(geom, base - prime.cls.scale(t)).positive
                    h = lat.pair(pos, prime.cls)
                    if t == 0:
                        assert max(y for x, y in verts if x == 0) == h
                        continue
                    assert h > 0
                    assert _locate(verts, t, F(0)) == "on"
                    assert _locate(verts, t, h) == "on"
                    assert _locate(verts, t, h / 2) == "in"


def test_polygon_contains_with_offsets(hilb2):
    inner = polygon(hilb2, DivClass([1, 0]), "E'")  # triangle, height 2
    outer = polygon(hilb2, DivClass([3, -2]), "E'")  # trapezium, height 2
    assert polygon_contains(outer, inner)
    assert not polygon_contains(inner, outer)
    # Offsets are honored: the translated polygon of H + E leaves the
    # untranslated polygon of H.
    base = polygon(hilb2, DivClass([1, 0]), "E")
    moved = polygon(hilb2, DivClass([1, 2]), "E")
    assert not polygon_contains(base, moved)
    # Both offsets positive: the polygon of 2H + 3d (nu = 3/2) lies inside
    # that of 3H + 2d (nu = 1), and that of 2H + d (nu = 1/2) leaves that
    # of 2H + 2d (nu = 1).  Every pair agrees with the absolute vertices.
    outer = polygon(hilb2, DivClass([3, 2]), "E")
    inner = polygon(hilb2, DivClass([2, 3]), "E")
    assert (outer.nu, inner.nu) == (1, F(3, 2))
    assert polygon_contains(outer, inner)
    outer, inner = polygon(hilb2, DivClass([2, 2]), "E"), polygon(hilb2, DivClass([2, 1]), "E")
    assert not polygon_contains(outer, inner)
    classes = [(1, 0), (2, 0), (1, 1), (1, 2), (2, 1), (2, 3), (3, 1), (3, 2), (2, 2)]
    polys = [polygon(hilb2, DivClass(c), "E") for c in classes]
    seen = Counter()
    for a in polys:
        for b in polys:
            absolute = contains_polygon(a.absolute_vertices(), b.absolute_vertices())
            assert polygon_contains(a, b) == absolute
            seen[absolute, a.nu > 0 and b.nu > 0] += 1
    assert len(seen) == 4


# -- the polygon cone -----------------------------------------------------------------------


def test_cone_generators_frozen(hilb2):
    gens = cone_generators(hilb2, "E")
    as_tuples = {(g.cls.coords, g.t, g.y) for g in gens}
    assert as_tuples == {
        ((0, 1), 0, 0),         # the exceptional ray, collapsed
        ((0, 2), 1, 0),         # (E, 1, 0)
        ((1, -1), 0, 0),        # the isotropic movable ray
        ((1, -1), 0, 4),        # ... lifted to q(P, E) = 4
        ((1, 0), 0, 0),         # H, whose lift is zero since q(H, E) = 0
    }
    assert len(gens) == 5
    # Deterministic ordering.
    assert gens == tuple(sorted(gens, key=lambda g: (g.cls.coords, g.t, g.y)))


def test_cone_generators_primitive_and_membership_boundary(hilb2, k3_elliptic):
    # Generators are integral, and a generator (cls, t, y) lies in the
    # sliced region exactly when its abscissa clears the negative-part
    # offset of its own class.  Boundary rays sitting below that offset
    # (the half-exceptional ray on the punctual model, for instance) are
    # still generators: scaled against the other rays they span the
    # cross-sections of every polygon, but the cone they generate closes
    # over the wedge under the offset graph, so the points themselves
    # fail the slice test.
    for geom in (hilb2, k3_elliptic):
        for prime in geom.primes:
            for g in cone_generators(geom, prime.name):
                assert isinstance(g, ConePoint)
                values = list(g.cls.coords) + [g.t, g.y]
                assert all(v.denominator == 1 for v in values)
                nu = decompose(geom, g.cls).coefficient(prime.name)
                member = cone_contains(geom, prime.name, g.cls, g.t, g.y)
                assert member == (g.t >= nu)


def _cone_generators_from_closures(geom, prime_name):
    """The polygon cone's generators as defined: (D, 0, q(P(D), E)) and
    (D, 0, 0) for every ray D of every chamber closure, and (E, 1, 0),
    each made primitive, listed once and sorted."""
    def primitive(cls, t, y):
        vec = DivClass(cls.coords + (t, y)).primitive().num
        return ConePoint(DivClass(vec[:-2]), F(vec[-2]), F(vec[-1]))

    rays = {r for chamber in enumerate_chambers(geom) for r in chamber_closure_rays(geom, chamber)}
    points = {primitive(geom.prime(prime_name).cls, F(1), F(0))}
    for ray in rays:
        height = geom.prime_pair(decompose(geom, ray).positive, prime_name)
        points |= {primitive(ray, F(0), height), primitive(ray, F(0), F(0))}
    return tuple(sorted(points, key=lambda p: (p.cls.coords, p.t, p.y)))


def test_cone_generators_match_chamber_closure_union(hilb2, k3_elliptic, hilb2_elliptic):
    flags = 0
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        for prime in geom.primes:
            assert cone_generators(geom, prime.name) == _cone_generators_from_closures(
                geom, prime.name
            )
            flags += 1
    assert flags == 2 + 4 + 6


def test_cone_generators_and_closures_do_no_cone_work(monkeypatch):
    # Once Mov's rays are built, the closures and the generators are read
    # off them and the primes: no kernel at all, and cone_generators does
    # not even need the chamber list or any support record: an
    # exceptional prime is its own negative part (rules (c) and (d)).
    geom = pairwise_family(10)
    assert len(geom.movable_rays) == 120
    calls = Counter()

    def counting_kernel(module):
        def counted(rows, n):
            calls[module.__name__, "kernel"] += 1
            return linalg.kernel(rows, n)
        return counted

    grow = geometry.Geometry._grow

    def counting_step(geom, record, prime):  # a record not held yet is one Schur step
        if frozenset((*record.names, prime.name)) not in geom.support_projectors:
            calls["schur_step"] += 1
        return grow(geom, record, prime)

    for module in (linprog, geometry):
        monkeypatch.setattr(module, "kernel", counting_kernel(module))
    monkeypatch.setattr(geometry.Geometry, "_grow", counting_step)
    for prime in geom.primes:
        # rays through the flag have height 0, the 84 others q(r, E) = 3
        assert len(cone_generators(geom, prime.name)) == 36 + 2 * 84 + 10 + 1
    assert geom.support_projectors == {}
    assert calls == Counter()
    for chamber in enumerate_chambers(geom):
        chamber_closure_rays(geom, chamber)
    assert calls[("ihspoly.linprog", "kernel")] == calls[("ihspoly.geometry", "kernel")] == 0
    # the chamber list itself: the 10 singletons, the 45 pairs and the
    # 120 triples, which all fail
    assert calls["schur_step"] == 10 + 45 + 120


def test_cone_generators_round_mode_rejected(fano_round):
    with pytest.raises(DomainError, match="polyhedral"):
        cone_generators(fano_round, "S")


def test_cone_contains_probes(hilb2):
    d = DivClass([3, -2])
    assert cone_contains(hilb2, "E'", d, 0, 0)
    assert cone_contains(hilb2, "E'", d, 1, 2)  # on the flat roof
    assert not cone_contains(hilb2, "E'", d, 1, F(21, 10))
    assert cone_contains(hilb2, "E'", d, F(5, 2), 1)  # 2(3 - 5/2) = 1
    assert not cone_contains(hilb2, "E'", d, F(5, 2), F(11, 10))
    assert cone_contains(hilb2, "E'", d, 3, 0)  # terminal abscissa
    assert not cone_contains(hilb2, "E'", d, F(31, 10), 0)
    assert not cone_contains(hilb2, "E'", d, 1, -1)


def test_cone_contains_respects_nu(hilb2):
    d = DivClass([1, 2])  # H + E, nu_E = 1
    assert not cone_contains(hilb2, "E", d, F(1, 2), 0)  # below nu
    assert cone_contains(hilb2, "E", d, 1, 0)
    assert not cone_contains(hilb2, "E", d, 1, F(1, 10))  # height 8(t-1)
    assert cone_contains(hilb2, "E", d, F(3, 2), 4)
    assert not cone_contains(hilb2, "E", d, 2, 0)  # beyond nu + mu


def test_cone_contains_surd_abscissa(fano_round):
    d = DivClass([1, 0])
    mu = Surd(2, -1, 3)
    assert cone_contains(fano_round, "S", d, mu, Surd(0, 2, 3))
    assert not cone_contains(fano_round, "S", d, mu, Surd(0, 2, 3) + F(1, 100))
    assert not cone_contains(fano_round, "S", d, mu + F(1, 100), 0)
    assert cone_contains(fano_round, "S", d, 0, 4)


def test_cone_contains_across_discriminants(fano_round):
    # t = sqrt(7)/5 against thresholds over sqrt(3): the segment scan only
    # compares, where a point test on the polygon would mix sqrt(3) and
    # sqrt(7) arithmetic.
    t, y = Surd(0, F(1, 5), 7), F(1, 100)
    assert cone_contains(fano_round, "S", DivClass([3, 1]), t, y)  # 3A + B
    assert not cone_contains(fano_round, "S", DivClass([1, 0]), t, y)  # A
    verts = polygon(fano_round, DivClass([3, 1]), "S").absolute_vertices()
    with pytest.raises(DiscriminantMixError):
        contains_point(verts, point(t, y))


def test_cone_contains_requires_psef(hilb2):
    with pytest.raises(DomainError, match="pseudo-effective"):
        cone_contains(hilb2, "E", DivClass([-1, 0]), 0, 0)


def test_polygon_slices_of_cone_agree(hilb2, k3_elliptic):
    # The fiber of the sliced region over a fixed class is exactly the
    # polygon in absolute coordinates, so membership tests must agree on
    # every probe: vertices, edge midpoints, the centroid, and points
    # nudged diagonally off each of those.
    rng = random.Random(109)
    eps = F(1, 7)
    for geom in (hilb2, k3_elliptic):
        for _ in range(6):
            d = geom.zero()
            for g in geom.effective_generators:
                d = d + g.scale(rng.randint(0, 4))
            for prime in geom.primes:
                poly = polygon(geom, d, prime.name)
                verts = poly.absolute_vertices()
                probes = list(verts)
                n = len(verts)
                for i in range(n):
                    x1, y1 = verts[i]
                    x2, y2 = verts[(i + 1) % n]
                    probes.append(point((x1 + x2) * F(1, 2), (y1 + y2) * F(1, 2)))
                cx = sum((v[0] for v in verts), start=Surd(0)) * F(1, n)
                cy = sum((v[1] for v in verts), start=Surd(0)) * F(1, n)
                probes.append(point(cx, cy))
                for x, y in list(probes):
                    probes.append(point(x + eps, y + eps))
                    probes.append(point(x - eps, y - eps))
                    probes.append(point(x + eps, y - eps))
                    probes.append(point(x - eps, y + eps))
                for x, y in probes:
                    inside = contains_point(verts, (x, y))
                    assert cone_contains(geom, prime.name, d, x, y) == inside

