"""Randomized self-check harness: sampling, bookkeeping, green runs."""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ihspoly import (
    CheckResult,
    ConsistencyError,
    DomainError,
    NOPolygon,
    Surd,
    decompose,
    polygon,
    run_checks,
    sample_big_classes,
)
from ihspoly.checks import _translation_holds
from ihspoly.geometry import format_divisor, is_pseudo_effective
from ihspoly.minkowski import enumerate_chambers
from test_polygon2d import _surd_contains_point as contains_point
from test_polygon2d import _surd_contains_polygon as contains_polygon
from test_polygon2d import _surd_scale as scale
from test_polygon2d import _surd_translate as translate
from test_polygon2d import point

GEOM_DIR = Path(__file__).resolve().parents[1] / "geometries"

EXPECTED_CHECK_NAMES = [
    "polygon-area-identity",
    "volume-chain",
    "breakpoint-structure",
    "flag-translation",
    "polygon-superadditivity",
    "volume-log-concavity",
    "zariski-idempotence",
    "catalog-order-invariance",
    "minkowski-reconstruction",
    "wall-continuity",
]


def test_sample_big_classes_deterministic(hilb2, fano_round):
    for geom in (hilb2, fano_round):
        first = sample_big_classes(geom, 12, seed=5)
        second = sample_big_classes(geom, 12, seed=5)
        assert first == second
        assert len(first) == 12


def test_sample_big_classes_are_big(hilb2, k3_elliptic, hilb2_elliptic, fano_round):
    for geom in (hilb2, k3_elliptic, hilb2_elliptic, fano_round):
        lat = geom.lattice
        for d in sample_big_classes(geom, 10, seed=3):
            assert is_pseudo_effective(geom, d)
            assert lat.square(decompose(geom, d).positive) > 0


def test_check_result_flags():
    ok = CheckResult("x", 4, 0, ())
    assert ok.passed and not ok.skipped
    bad = CheckResult("x", 4, 1, ("boom",))
    assert not bad.passed
    empty = CheckResult("x", 0, 0, ())
    assert empty.skipped and empty.passed


def test_run_checks_names_and_order(hilb2):
    results = run_checks(hilb2, samples=6, seed=1)
    assert [r.name for r in results] == EXPECTED_CHECK_NAMES


def test_run_checks_green_polyhedral(hilb2, k3_elliptic, hilb2_elliptic):
    for geom in (hilb2, k3_elliptic, hilb2_elliptic):
        results = run_checks(geom, samples=15, seed=2)
        for r in results:
            assert r.passed, f"{geom.name}: {r.name} failed: {r.messages}"
            assert r.messages == ()
            assert not r.skipped, f"{geom.name}: {r.name} never ran"


def test_run_checks_green_round(fano_round):
    results = run_checks(fano_round, samples=15, seed=2)
    by_name = {r.name: r for r in results}
    for r in results:
        assert r.passed, f"{r.name} failed: {r.messages}"
    # Chamber-based checks have nothing to do without exceptional primes.
    assert by_name["minkowski-reconstruction"].skipped
    assert by_name["wall-continuity"].skipped
    assert not by_name["polygon-area-identity"].skipped


ROUND_RANK3 = {
    "name": "round-rank3",
    "mode": "round",
    "half_dim": 1,
    "fujiki": 1,
    "basis": ["h", "a", "b"],
    "gram": [[2, 0, 0], [0, -2, 0], [0, 0, -2]],
    "primes": [{"name": "S", "class": [1, 0, 0], "exceptional": False}],
    "ample": [1, 0, 0],
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_superadditivity_skips_pairs_over_two_radicals(tmp_path, capsys, seed):
    # On diag(2, -2, -2) the thresholds of different samples lie in
    # different quadratic extensions (sqrt(5), sqrt(10), ...), so some
    # pairs' polygons cannot be compared exactly: outside the check's
    # domain, not failures, and not a traceback.
    from ihspoly.cli import main

    path = tmp_path / "round3.geom"
    path.write_text(json.dumps(ROUND_RANK3))
    samples = 20
    code = main(["check", str(path), "--samples", str(samples), "--seed", str(seed),
                 "--format", "machine"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["passed"] is True
    assert all(c["failed"] == 0 for c in payload["checks"])
    runs = {c["name"]: c["runs"] for c in payload["checks"]}
    assert 0 < runs["polygon-superadditivity"] < samples - 1


NO_PRIMES = {
    "polyhedral": {
        "name": "no-primes-polyhedral",
        "mode": "polyhedral",
        "half_dim": 1,
        "fujiki": 1,
        "basis": ["a", "b"],
        "gram": [[0, 1], [1, 0]],
        "primes": [],
        "effective_generators": [[1, 0], [0, 1]],
    },
    "round": {
        "name": "no-primes-round",
        "mode": "round",
        "half_dim": 1,
        "fujiki": 1,
        "basis": ["h", "a"],
        "gram": [[2, 0], [0, -2]],
        "primes": [],
        "ample": [1, 0],
    },
}


@pytest.mark.parametrize("mode", sorted(NO_PRIMES))
def test_catalog_without_primes_skips_the_flag_checks(mode):
    # No prime, no flag: every check but log-concavity has no cases.
    from ihspoly import parse_geometry

    geom = parse_geometry(json.dumps(NO_PRIMES[mode]))
    results = run_checks(geom, samples=6, seed=0)
    assert [r.name for r in results] == EXPECTED_CHECK_NAMES
    for r in results:
        if r.name == "volume-log-concavity":
            assert (r.runs, r.failed, r.messages) == (5, 0, ())
        else:
            assert r.skipped and r.passed, r


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("mode", sorted(NO_PRIMES))
def test_check_cli_without_primes_exits_0(tmp_path, capsys, mode, fmt):
    from ihspoly.cli import main

    path = tmp_path / "no-primes.geom"
    path.write_text(json.dumps(NO_PRIMES[mode]))
    code = main(["check", str(path), "--samples", "6", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    if fmt == "machine":
        payload = json.loads(out)
        assert payload["passed"] is True
        runs = {c["name"]: c["runs"] for c in payload["checks"]}
    else:
        rows = [line.split() for line in out.splitlines() if line[:4] in ("PASS", "SKIP")]
        assert {row[0] for row in rows if row[1] != "volume-log-concavity"} == {"SKIP"}
        runs = {row[1]: int(row[2]) for row in rows}
    assert list(runs) == EXPECTED_CHECK_NAMES
    assert runs == {name: 5 if name == "volume-log-concavity" else 0 for name in runs}


def test_run_checks_seed_changes_samples(hilb2):
    assert sample_big_classes(hilb2, 8, seed=0) != sample_big_classes(hilb2, 8, seed=99)


def test_sample_big_classes_impossible_catalog():
    # A catalog whose effective cone contains no big class cannot be
    # sampled from.
    from ihspoly import parse_geometry

    doc = """
    {
      "name": "thin",
      "mode": "polyhedral",
      "half_dim": 1,
      "fujiki": 1,
      "basis": ["a", "b"],
      "gram": [[2, 0], [0, -2]],
      "primes": [{"name": "Q", "class": [0, 1], "exceptional": true}],
      "effective_generators": [[0, 1]]
    }
    """
    geom = parse_geometry(doc)
    with pytest.raises(DomainError, match="sample"):
        sample_big_classes(geom, 1, seed=0)


def hilb2_without_e_prime():
    """hilb2.geom without its non-exceptional prime E', so the check
    flag falls back to the exceptional E."""
    from ihspoly import parse_geometry

    doc = json.loads((GEOM_DIR / "hilb2.geom").read_text())
    doc["primes"] = [p for p in doc["primes"] if p["name"] != "E'"]
    return parse_geometry(json.dumps(doc))


def test_minkowski_refusals_are_not_failures():
    # Without E' the flag falls back to the exceptional prime E, and every
    # sample whose positive part is orthogonal to E has no chamber
    # generator: minkowski_decompose refuses it, which is neither a run
    # nor a failure of the reconstruction check.
    geom = hilb2_without_e_prime()
    flag = geom.prime("E").cls
    classes = sample_big_classes(geom, 10, seed=0)
    runnable = [d for d in classes if geom.lattice.pair(decompose(geom, d).positive, flag)]
    assert 0 < len(runnable) < len(classes)
    recon = {r.name: r for r in run_checks(geom, samples=10, seed=0)}["minkowski-reconstruction"]
    assert recon.runs == len(runnable)
    assert not any("orthogonal" in m for m in recon.messages)


def test_reconstruction_with_a_non_movable_generator_passes():
    # With the flag E the empty chamber's generator is E itself, which is
    # not movable, and the polygons of a Minkowski decomposition using it
    # need not add up (for D = 6H - 2d the summed polygon is a vertical
    # segment).  Such samples check the class identity only.
    geom = hilb2_without_e_prime()
    recon = {r.name: r for r in run_checks(geom, samples=10, seed=0)}["minkowski-reconstruction"]
    assert (recon.runs, recon.failed) == (2, 0), recon.messages


def test_run_checks_builds_each_polygon_once(hilb2_elliptic, monkeypatch):
    from ihspoly import checks

    built = Counter()
    real = checks._polygon

    def counting(geom, d, prime, dec):
        built[(id(geom), d, prime.name)] += 1
        return real(geom, d, prime, dec)

    monkeypatch.setattr(checks, "_polygon", counting)
    run_checks(hilb2_elliptic, 4, 0)
    assert built and set(built.values()) == {1}
    # the catalog-order check's reordered copy builds its own polygons
    assert len({geom_id for geom_id, _, _ in built}) == 2


def test_run_checks_decomposes_each_class_once(hilb2_elliptic, monkeypatch):
    from ihspoly import checks

    calls = Counter()
    real = checks.decompose

    def counting(geom, d):
        calls[(id(geom), d)] += 1
        return real(geom, d)

    monkeypatch.setattr(checks, "decompose", counting)
    run_checks(hilb2_elliptic, 4, 0)
    assert calls and set(calls.values()) == {1}


def test_run_checks_decomposes_each_class_once_across_layers(hilb2_elliptic, monkeypatch):
    # polygon, volume and minkowski_decompose take their decompositions
    # from run_checks' memo and a polygon reads D - nu E off D's, so a
    # wrapper on decompose in every module that binds it sees each
    # (geometry, class) once and no stripped class at all.
    import ihspoly
    from ihspoly import checks, minkowski, okounkov, zariski

    calls = Counter()
    real = zariski.decompose

    def counting(geom, d):
        calls[(id(geom), d)] += 1
        return real(geom, d)

    modules = [m for m in vars(ihspoly).values() if getattr(m, "decompose", None) is real]
    assert {checks, minkowski, okounkov, zariski} <= set(modules)
    for module in modules:
        monkeypatch.setattr(module, "decompose", counting)
    run_checks(hilb2_elliptic, 4, 0)
    assert set(calls.values()) == {1}
    assert len(calls) == 28


# cProfile's call count of every function over three run_checks sweeps
# of the catalog at argv[1], as JSON [file, line, name, calls].
PROFILED_SWEEPS = """import cProfile, json, pstats, sys
from ihspoly import load_geometry, run_checks
geom = load_geometry(sys.argv[1])
profile = cProfile.Profile()
profile.enable()
for seed in range(3):
    run_checks(geom, 4, seed)
profile.disable()
print(json.dumps([[*key, stat[1]] for key, stat in pstats.Stats(profile).stats.items()]))
"""


def _sweep_call_counts(hash_seed: int) -> dict:
    """The calls of every ihspoly and fractions function over the sweeps
    of hilb2_k3 in a fresh interpreter under PYTHONHASHSEED=hash_seed,
    keyed by (file, line, name); a key that holds an address is left out."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join([str(GEOM_DIR.parent / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", PROFILED_SWEEPS, str(GEOM_DIR / "hilb2_k3.geom")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    counts = {}
    for path, line, name, calls in json.loads(done.stdout):
        if re.search("0x[0-9a-f]+", path + name):
            continue
        if "ihspoly" in Path(path).parts or Path(path).name == "fractions.py":
            counts[path, line, name] = calls
    return counts


def test_run_checks_work_counts_repeat_across_hash_seeds():
    # The check sweep's memos are keyed by classes and prime names, never
    # by an address, so every function is called equally often in every
    # process.  A key holding id(geom) once made DivClass.__eq__ read
    # 145 to 151 calls here: two classes of equal hash met once or twice
    # per lookup along a dict probe sequence that the address steered.
    runs = [_sweep_call_counts(hash_seed) for hash_seed in (0, 1, 2)]
    files = {Path(path).name for path, _, _ in runs[0]}
    assert {"lattice.py", "checks.py", "fractions.py"} <= files
    assert any(name == "__eq__" and Path(path).name == "lattice.py" for path, _, name in runs[0])
    assert runs[0] == runs[1] == runs[2]


def test_run_checks_gram_solves_once_per_chamber(hilb2_elliptic, monkeypatch):
    # Each support record is one passing Schur step from its parent's
    # record, and a geometry takes each such step once; the empty
    # support's record takes none.  The only kernel call in geometry is
    # the pointedness test of each geometry's Eff.  Count them on a copy
    # whose derived data starts empty.
    from ihspoly import geometry, linalg

    geom = hilb2_elliptic._replace()
    kernels = Counter()
    built = []  # (geometry, support) of every passing Schur step

    def counting_kernel(rows, n):
        kernels["kernel"] += 1
        return linalg.kernel(rows, n)

    grow = geometry.Geometry._grow

    def step(self, record, prime):
        support = frozenset((*record.names, prime.name))
        held = support in self.support_projectors
        found = grow(self, record, prime)
        if found is not None and not held:
            built.append((self, support))
        return found

    monkeypatch.setattr(geometry, "kernel", counting_kernel)
    monkeypatch.setattr(geometry.Geometry, "_grow", step)
    first = run_checks(geom, 4, 0)
    own = [support for g, support in built if g is geom]
    assert len(own) == len(set(own)) == len(geom.support_projectors) - 1 > 1
    assert set(own) <= set(geom.chambers)
    # the catalog-order check's reordered copy is a fresh geometry
    copies = [support for g, support in built if g is not geom]
    assert len(copies) == len(set(copies)) and set(copies) <= set(own)
    assert kernels["kernel"] == 2  # the two Eff cones
    built.clear()
    assert run_checks(geom, 4, 0) == first
    assert not any(g is geom for g, _ in built)
    assert len(built) == len(copies)
    assert kernels["kernel"] == 3


def test_shared_polygon_failure_reaches_every_check(hilb2_elliptic, monkeypatch):
    from ihspoly import checks

    geom = hilb2_elliptic
    bad = sample_big_classes(geom, 4, seed=0)[1]
    real = checks._polygon

    def failing(g, d, prime, dec):
        if d == bad:
            raise ConsistencyError("forced polygon failure")
        return real(g, d, prime, dec)

    monkeypatch.setattr(checks, "_polygon", failing)
    shared = run_checks(geom, 4, 0)
    # The same run with every polygon and decomposition computed afresh:
    # run_checks' memos are the cache decorator checks binds.
    monkeypatch.setattr(checks, "cache", lambda fn: fn)
    unshared = run_checks(geom, 4, 0)
    assert shared == unshared
    label = format_divisor(geom, bad)
    hit = {r.name: r for r in shared if any(label in m for m in r.messages)}
    assert set(hit) == {
        "polygon-area-identity",
        "volume-chain",
        "breakpoint-structure",
        "flag-translation",
        "polygon-superadditivity",
        "zariski-idempotence",
        "minkowski-reconstruction",
    }
    assert hit["polygon-area-identity"].failed == len(geom.primes)
    for r in hit.values():
        assert all(m.endswith(": forced polygon failure") for m in r.messages if label in m)


def test_log_concavity_failure_names_both_classes(hilb2_elliptic, monkeypatch):
    # With the positive part of every D1 + D2 forced to 0, q(P(D1 + D2))
    # falls below q(P(D1)) + q(P(D2)) and every pair fails.
    from ihspoly import checks

    geom = hilb2_elliptic
    samples = sample_big_classes(geom, 4, seed=0)
    pairs = list(zip(samples, samples[1:]))
    sums = {a + b for a, b in pairs}
    assert not sums & set(samples)
    real = checks.decompose

    def doctored(g, d):
        dec = real(g, d)
        return dec._replace(positive=g.zero()) if d in sums else dec

    monkeypatch.setattr(checks, "decompose", doctored)
    logc = {r.name: r for r in run_checks(geom, 4, 0)}["volume-log-concavity"]
    assert (logc.runs, logc.failed) == (3, 3)
    assert logc.messages == tuple(
        f"log-concavity broke for {format_divisor(geom, a)} and {format_divisor(geom, b)}"
        for a, b in pairs
    )


def test_wall_continuity_failure_names_both_chambers(hilb2_elliptic, monkeypatch):
    # With the positive part on a chamber doctored to depend on the
    # chamber's size, the two sides of every wall disagree.
    from ihspoly import checks

    geom = hilb2_elliptic
    chambers = enumerate_chambers(geom)
    walls = [
        (small, small | {q.name})
        for small in chambers
        for q in geom.exceptional_primes
        if q.name not in small
        and small | {q.name} in chambers
        and any(p.name not in small | {q.name} for p in geom.primes)
    ]
    real = checks.chamber_positive_part

    def doctored(g, d, chamber):
        positive, rest = real(g, d, chamber)
        return positive.scale(len(chamber) + 1), rest

    monkeypatch.setattr(checks, "chamber_positive_part", doctored)
    wall = {r.name: r for r in run_checks(geom, 4, 0)}["wall-continuity"]
    assert (wall.runs, wall.failed) == (len(walls), len(walls)) and len(walls) > 5
    assert wall.messages == tuple(
        f"wall between {sorted(small)} and {sorted(big)} discontinuous" for small, big in walls[:5]
    )


def _doctor_polygons(monkeypatch, geom, doctor, keep=()):
    """Route checks._polygon through doctor(poly) for every polygon of
    geom whose class is not in keep."""
    from ihspoly import checks

    real = checks._polygon

    def doctored(g, d, prime, dec):
        poly = real(g, d, prime, dec)
        return poly if g is not geom or d in keep else doctor(poly)

    monkeypatch.setattr(checks, "_polygon", doctored)


def _result(geom, name: str, samples: int = 4):
    """The result called name of run_checks(geom, samples, 0)."""
    return {r.name: r for r in run_checks(geom, samples, 0)}[name]


def _labels(geom, says, classes) -> tuple[str, ...]:
    """says(D) for the first five classes D, each written over the basis."""
    return tuple(says(format_divisor(geom, d)) for d in classes[:5])


def _translation_labels(geom, samples) -> tuple[str, ...]:
    """flag-translation's labels for its first five cases: each of the
    first two samples against every prime."""
    cases = [(d, p) for d in samples[:2] for p in geom.primes]
    return tuple(f"translation by {p.name} broke for D={format_divisor(geom, d)}" for d, p in cases[:5])


@pytest.mark.parametrize("factor", [Fraction(1, 2), 2])
def test_flag_translation_sees_a_doctored_translate(hilb2_elliptic, monkeypatch, factor):
    # The polygon of D + E, scaled about the origin with nu and mu kept:
    # shrunk, it no longer holds D's polygon shifted by (1, 0); grown,
    # its part at t >= 1 leaves the shifted polygon.
    geom = hilb2_elliptic
    samples = sample_big_classes(geom, 4, seed=0)
    _doctor_polygons(
        monkeypatch, geom,
        lambda poly: NOPolygon(tuple(scale(poly.vertices, factor)), poly.nu, poly.mu, poly.trace),
        set(samples),
    )
    translation = _result(geom, "flag-translation")
    assert translation.runs == 2 * len(geom.primes)
    assert translation.failed == translation.runs
    assert translation.messages == _translation_labels(geom, samples)


def test_flag_translation_sees_a_doctored_width(hilb2_elliptic, monkeypatch):
    # With the width mu of the polygon of D + E raised by 1 and its
    # vertices kept, nu + mu of D + E is no longer that of D plus 1.
    def doctor(poly):
        frame = poly.frame
        return NOPolygon._of(frame._replace(mu=(frame.mu[0] + frame.den, frame.mu[1])), poly.nu)

    geom = hilb2_elliptic
    samples = sample_big_classes(geom, 4, seed=0)
    assert not {d + p.cls for d in samples for p in geom.primes} & set(samples)
    _doctor_polygons(monkeypatch, geom, doctor, set(samples))
    translation = _result(geom, "flag-translation")
    assert (translation.runs, translation.failed) == (12, 12)
    assert translation.messages == _translation_labels(geom, samples)


def test_breakpoint_structure_failure_names_the_class(hilb2_elliptic, monkeypatch):
    # A trace that ends in a segment starting at a Surd breaks the rule
    # that interior breakpoints are rational, for every sample.
    def doctor(poly):
        segments = poly.trace.segments
        last = segments[-1]._replace(t_start=Surd(segments[-1].t_start))
        return NOPolygon._of(poly.frame, poly.nu, poly.trace._replace(segments=(*segments, last)))

    geom = hilb2_elliptic
    _doctor_polygons(monkeypatch, geom, doctor)
    structure = _result(geom, "breakpoint-structure")
    assert (structure.runs, structure.failed) == (4, 4)
    assert structure.messages == _labels(
        geom, "trace structure broke for D={}".format, sample_big_classes(geom, 4, seed=0))


def test_idempotence_failure_names_the_class(hilb2_elliptic, monkeypatch):
    # With the positive part of every P(D) doubled, decomposing P(D)
    # again no longer gives P(D).
    from ihspoly import checks

    geom = hilb2_elliptic
    samples = sample_big_classes(geom, 4, seed=0)
    positives = {decompose(geom, d).positive for d in samples}
    assert not positives & set(samples)
    real = checks.decompose

    def doctored(g, d):
        dec = real(g, d)
        return dec._replace(positive=dec.positive.scale(2)) if d in positives else dec

    monkeypatch.setattr(checks, "decompose", doctored)
    idem = _result(geom, "zariski-idempotence")
    assert (idem.runs, idem.failed) == (4, 4)
    assert idem.messages == _labels(geom, "idempotence broke for D={}".format, samples)


def test_order_invariance_failure_names_the_class(hilb2_elliptic, monkeypatch):
    # With every positive part on the reordered copy doubled, the copy
    # disagrees with the catalog on the one sample the check takes.
    from ihspoly import checks

    geom = hilb2_elliptic
    real = checks.decompose

    def doctored(g, d):
        dec = real(g, d)
        return dec if g is geom else dec._replace(positive=dec.positive.scale(2))

    monkeypatch.setattr(checks, "decompose", doctored)
    order = _result(geom, "catalog-order-invariance")
    assert (order.runs, order.failed) == (1, 1)
    assert order.messages == _labels(
        geom, "catalog order changed results for D={}".format, sample_big_classes(geom, 4, seed=0)[:1])


@pytest.mark.parametrize(
    "doctor",
    [
        lambda mk: mk._replace(terms=mk.terms[:-1]),
        lambda mk: mk._replace(terms=(*mk.terms, (Fraction(0), mk.terms[0][1]))),
    ],
    ids=["sum-misses-P", "zero-coefficient"],
)
def test_minkowski_reconstruction_failure_names_the_class(hilb2_elliptic, monkeypatch, doctor):
    # A decomposition with its last term dropped no longer sums to P(D);
    # one with an extra zero term sums to P(D) with a coefficient <= 0.
    # Only the first five samples also compare polygon sums, so the last
    # three fail on the sum or the coefficient alone.
    from ihspoly import checks

    geom = hilb2_elliptic
    real = checks._minkowski_decompose
    monkeypatch.setattr(checks, "_minkowski_decompose", lambda *args: doctor(real(*args)))
    rebuilt = _result(geom, "minkowski-reconstruction", 8)
    assert (rebuilt.runs, rebuilt.failed) == (8, 8)
    assert rebuilt.messages == _labels(
        geom, "reconstruction broke for D={}".format, sample_big_classes(geom, 8, seed=0))


def _absolute_translation_holds(base, moved):
    """The flag-translation identity in absolute coordinates, one Surd
    translate per polygon and one containment test per vertex."""
    if moved.nu + moved.mu != Surd(base.nu) + base.mu + 1:
        return False
    shifted = translate(base.absolute_vertices(), 1, 0)
    if not contains_polygon(moved.absolute_vertices(), shifted):
        return False
    if not all(contains_point(shifted, v) for v in moved.absolute_vertices() if v[0] >= 1):
        return False
    if base.nu > 0:
        return moved.vertices == base.vertices and moved.nu == base.nu + 1 and moved.mu == base.mu
    return True


def test_translation_identity_matches_absolute_oracle_seeded(
    hilb2, k3_elliptic, hilb2_elliptic, fano_round
):
    # Real pairs, and the polygon of D + E doctored: scaled about the
    # origin, or with part of nu moved into mu so that the comparison
    # sits elsewhere on the t-axis.
    outcomes = Counter()
    for geom in (hilb2, k3_elliptic, hilb2_elliptic, fano_round):
        for d in sample_big_classes(geom, 4, seed=7):
            for p in geom.primes:
                base, moved = polygon(geom, d, p.name), polygon(geom, d + p.cls, p.name)
                cases = [moved]
                for f in (Fraction(1, 2), Fraction(9, 10), Fraction(11, 10), 2):
                    cases.append(NOPolygon(tuple(scale(moved.vertices, f)), moved.nu, moved.mu))
                for dn in (Fraction(-1, 2), Fraction(1, 3), 1):
                    cases.append(NOPolygon(moved.vertices, moved.nu + dn, moved.mu - dn))
                for case in cases:
                    holds = _translation_holds(base, case)
                    assert holds == _absolute_translation_holds(base, case), (geom.name, d, p.name)
                    outcomes[holds, base.nu > 0] += 1
    assert set(outcomes) == {(True, False), (False, False), (True, True), (False, True)}
    # With moved.nu = 1/2, absolute t >= 1 starts at normalized t = 1/2:
    # the vertex (1/2, 2) is tested, and it lies outside the translate.
    base = NOPolygon(tuple(point(*v) for v in ((0, 0), (1, 0), (0, 1))), Fraction(0), Surd(1))
    for top, holds in (((1, 4),), False), (((1, 2), (0, 2)), True):
        verts = tuple(point(*v) for v in ((0, 0), (3, 0), *top))
        moved = NOPolygon(tuple(scale(verts, Fraction(1, 2))), Fraction(1, 2), Surd(Fraction(3, 2)))
        assert _translation_holds(base, moved) is holds
        assert _absolute_translation_holds(base, moved) is holds
