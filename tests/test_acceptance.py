"""Release gate: the eight numbered acceptance criteria, one verdict line each.

Every identity is exact (rational or quadratic-surd equality); the only
tolerances anywhere are the two runtime budgets (0.1 s for the first
triangle polygon, 30 s for the full self-check sweep).  Run with
`pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.

  1. triangle polygon of H along E on the rank-2 fourfold model
  2. trapezium polygon of 3H - E along E' with its interior wall
  3. global polygon-cone generators along E (five points, up to scaling)
  4. Minkowski decomposition 2*(H - d) + H and the matching polygon sum
  5. irrational threshold 2 - sqrt(3) and exact unit area in round mode
  6. randomized structural self-checks, 100 classes per catalog, < 30 s
  7. restricted-volume continuity across every adjacent chamber wall
  8. volume chain: (2*area)^n * c == c * q(P)^n == volume
"""

import time
from fractions import Fraction
from math import gcd

from ihspoly import (
    DivClass,
    Surd,
    chamber_closure_rays,
    cone_generators,
    decompose,
    enumerate_chambers,
    minkowski_decompose,
    mu_threshold,
    polygon,
    polygon_minkowski_sum,
    polygon_scale,
    run_checks,
    sample_big_classes,
    volume,
)
from ihspoly.zariski import chamber_positive_part
from oracles import point

F = Fraction


def _verdict(num: int, desc: str, conditions) -> None:
    failed = [label for label, ok in conditions if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"{status} criterion {num}: {desc}")
    assert not failed, f"criterion {num} failed: {failed}"


def test_criterion_1_triangle_polygon_exact_and_fast(hilb2):
    started = time.perf_counter()
    poly = polygon(hilb2, DivClass([1, 0]), "E")
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        f"triangle polygon of H along E ({elapsed * 1000:.1f} ms)",
        [
            ("vertices", poly.vertices == (point(0, 0), point(F(1, 2), 0), point(F(1, 2), 4))),
            ("mu", poly.mu == F(1, 2)),
            ("area", poly.area == 1),
            ("area is q(H)/2", poly.area * 2 == hilb2.lattice.square(DivClass([1, 0]))),
            ("runtime < 0.1s", elapsed < 0.1),
        ],
    )


def test_criterion_2_trapezium_polygon_with_wall(hilb2):
    poly = polygon(hilb2, DivClass([3, -2]), "E'")
    trace = poly.trace
    _verdict(
        2,
        "trapezium polygon of 3H - E along E' crosses one wall",
        [
            ("vertices", poly.vertices == (point(0, 0), point(3, 0), point(2, 2), point(0, 2))),
            ("mu", poly.mu == 3),
            ("breakpoint at 2", trace.interior_breakpoints == (2,)),
            ("chamber jump", trace.chambers == (frozenset(), frozenset({"E"}))),
            ("area", poly.area == 5),
        ],
    )


def _primitive_triple(coords, t, y):
    nums = [F(c) for c in coords] + [F(t), F(y)]
    denom_lcm = 1
    for v in nums:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in nums]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    return tuple(ints[:-2]), ints[-2], ints[-1]


def test_criterion_3_cone_generators_match_up_to_scaling(hilb2):
    got = {
        _primitive_triple(g.cls.coords, g.t, g.y)
        for g in cone_generators(hilb2, "E")
    }
    expected_raw = [
        ((2, -2), 0, 0),  # 2H - E
        ((1, 0), 0, 0),  # H
        ((0, 2), 0, 0),  # E
        ((2, -2), 0, 8),  # 2H - E at its fiber height
        ((0, 2), 1, 0),  # E at its own threshold
    ]
    expected = {_primitive_triple(c, t, y) for c, t, y in expected_raw}
    _verdict(
        3,
        "global polygon cone along E has exactly the five generators",
        [
            ("generator count", len(cone_generators(hilb2, "E")) == 5),
            ("set equality up to scaling", got == expected),
        ],
    )


def test_criterion_4_minkowski_decomposition_and_polygon_sum(hilb2):
    dec = minkowski_decompose(hilb2, DivClass([3, -2]), "E'")
    terms = [(coeff, el.cls) for coeff, el in dec.terms]
    seg = polygon(hilb2, DivClass([1, -1]), "E'")
    tri = polygon(hilb2, DivClass([1, 0]), "E'")
    summed = polygon_minkowski_sum(polygon_scale(2, seg), tri)
    trapezium = polygon(hilb2, DivClass([3, -2]), "E'")
    _verdict(
        4,
        "3H - E splits as 2*(H - d) + H and its polygon is the matching sum",
        [
            ("terms", terms == [(2, DivClass([1, -1])), (1, DivClass([1, 0]))]),
            ("offset", dec.nu == 0),
            ("vertex-for-vertex", summed.vertices == trapezium.vertices),
        ],
    )


def test_criterion_5_round_mode_irrational_threshold(fano_round):
    d = DivClass([1, 0])
    mu = mu_threshold(fano_round, d, "S")
    poly = polygon(fano_round, d, "S")
    _verdict(
        5,
        "round-mode threshold is 2 - sqrt(3) and the area is exactly 1",
        [
            ("mu exact", mu == Surd(2, -1, 3)),
            ("mu irrational", not mu.is_rational),
            ("area", poly.area == 1),
            ("area is q(D)/2", poly.area * 2 == fano_round.lattice.square(d)),
        ],
    )


def test_criterion_6_self_checks_all_catalogs(hilb2, k3_elliptic, hilb2_elliptic, fano_round):
    conditions = []
    total = 0.0
    for geom in (hilb2, k3_elliptic, hilb2_elliptic, fano_round):
        started = time.perf_counter()
        results = run_checks(geom, samples=100, seed=0)
        total += time.perf_counter() - started
        for r in results:
            conditions.append((f"{geom.name}/{r.name}", r.passed))
        conditions.append(
            (f"{geom.name} ran checks", any(r.runs > 0 for r in results))
        )
    conditions.append(("total runtime < 30s", total < 30.0))
    _verdict(
        6,
        f"structural self-checks, 100 classes per catalog ({total:.1f} s)",
        conditions,
    )


def _wall_face_sum(geom, big_chamber):
    """A big movable class orthogonal to every prime of the chamber."""
    prime_rays = {geom.prime(name).cls.primitive() for name in big_chamber}
    rays = [r for r in chamber_closure_rays(geom, big_chamber) if r not in prime_rays]
    total = geom.zero()
    for r in rays:
        total = total + r
    return total


def test_criterion_7_restricted_volume_wall_continuity(hilb2, k3_elliptic, hilb2_elliptic):
    conditions = []
    pairs_seen = 0
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        lat = geom.lattice
        n, c = lat.half_dim, lat.fujiki
        chambers = set(enumerate_chambers(geom))
        for small in sorted(chambers, key=lambda s: (len(s), tuple(sorted(s)))):
            for q in geom.exceptional_primes:
                if q.name in small:
                    continue
                big = small | {q.name}
                if big not in chambers:
                    continue
                pairs_seen += 1
                label = f"{geom.name} {sorted(small)}->{sorted(big)}"
                face = _wall_face_sum(geom, big)
                wall = face
                for name in small:
                    wall = wall + geom.prime(name).cls
                lo, _ = chamber_positive_part(geom, wall, small)
                hi, _ = chamber_positive_part(geom, wall, big)
                conditions.append((f"{label} wall class is big", lat.square(face) > 0))
                conditions.append((f"{label} formulas agree", lo == hi))
                conditions.append(
                    (f"{label} true decomposition", decompose(geom, wall).positive == lo)
                )
                for prime in geom.primes:
                    if prime.name in big:
                        continue
                    v_small = c * lat.square(lo) ** (n - 1) * lat.pair(lo, prime.cls)
                    v_big = c * lat.square(hi) ** (n - 1) * lat.pair(hi, prime.cls)
                    conditions.append(
                        (f"{label} restricted volume along {prime.name}", v_small == v_big)
                    )
    conditions.append(("adjacent pairs covered", pairs_seen >= 1 + 7 + 33))
    _verdict(
        7,
        f"restricted volume continuous across {pairs_seen} chamber walls",
        conditions,
    )


def test_criterion_8_volume_chain(hilb2, k3_elliptic, hilb2_elliptic, fano_round):
    conditions = []
    for geom in (hilb2, k3_elliptic, hilb2_elliptic, fano_round):
        lat = geom.lattice
        n, c = lat.half_dim, lat.fujiki
        flag = next(p for p in geom.primes if not p.exceptional)
        for d in sample_big_classes(geom, 20, seed=8):
            area = polygon(geom, d, flag.name).area
            qp = lat.square(decompose(geom, d).positive)
            v = volume(geom, d)
            ok = (area * 2) ** n * c == v and Surd(qp) ** n * c == v
            conditions.append((f"{geom.name} D in coords {tuple(d.coords)}", ok))
    # frozen anchor: area 5, q(P) = 10, n = 2, c = 3
    anchor = polygon(hilb2, DivClass([3, -2]), "E'").area
    conditions.append(("anchor chain", 2**2 * 3 * anchor**2 == 300 == volume(hilb2, DivClass([3, -2]))))
    _verdict(
        8,
        "volume chain (2*area)^n * c == c * q(P)^n == volume on all catalogs",
        conditions,
    )
