"""Record the benchmark's input pools and their reference outputs.

    python3 perfbench/record.py [WORKLOAD ...]

Writes ``perfbench/reference.json``: for each workload, every pool
entry with the digest of its canonical machine JSON (for cli-cold, of
the child's stdout).  The pools are generated here from fixed seeds;
a run's ``--seed`` then picks from them.  An entry the engine refuses
with ``DomainError`` (a legitimate refusal, such as a restricted volume
along a prime in the augmented base locus) is left out of the pool, so
that no operation of a run fails by design; any other error, a failed
invariant or a failing CLI child stops the recording.

Record on the commit whose answers are the reference.  Re-record only
when a pool changes, and then on the parent commit of that change:
recording on changed code would let the gate accept changed answers.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import product

import workloads
from oracle import Catalog
from run import fresh_import, git_sha

POOL_SEED = 2311
CHECK_SEEDS = 64
ROUND_BOX = range(-6, 11)
ROUND_PAIRS = 2048
CLI_CLASSES = 8


def expression(basis: list[str], coords) -> str:
    """A divisor expression that ihspoly's parser reads back to coords."""
    out = ""
    for name, c in zip(basis, coords):
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        out = f"{out} {sign} {body}" if out else (f"-{body}" if c < 0 else body)
    return out


def round_classes(cat: Catalog) -> list[list[int]]:
    """Integer classes in a box with q > 0 and positive pairing with the ample class."""
    return [
        [a, b] for a, b in product(ROUND_BOX, ROUND_BOX)
        if cat.square([a, b]) > 0 and cat.pair([a, b], cat.ample) > 0
    ]


def polyhedral_classes(cat: Catalog, rng: random.Random) -> list[list[int]]:
    """Distinct nonzero nonnegative integer combinations of the effective generators."""
    found: list[list[int]] = []
    while len(found) < CLI_CLASSES:
        coeffs = [rng.randint(0, 3) for _ in cat.effective]
        cls = [int(sum(c * g[i] for c, g in zip(coeffs, cat.effective)))
               for i in range(len(cat.basis))]
        if any(cls) and cls not in found:
            found.append(cls)
    return found


def check_sweep_pool() -> list:
    return [[cat, s] for cat in workloads.BUNDLED for s in range(CHECK_SEEDS)]


def round_polygons_pool() -> list:
    rng = random.Random(POOL_SEED)
    classes = round_classes(workloads.load_oracle(workloads.RoundPolygons.catalog))
    pairs: list = []
    while len(pairs) < ROUND_PAIRS:
        pair = [rng.choice(classes), rng.choice(classes)]
        if pair not in pairs:
            pairs.append(pair)
    return pairs


def chamber_scaling_pool() -> list:
    pool: list = []
    for cat_name in workloads.ChamberScaling.catalogs:
        cat = workloads.load_oracle(cat_name)
        pool.append([cat_name, "enumerate", None])
        chambers = sorted(sorted(c) for c in cat.chambers())
        pool += [[cat_name, "closure", c] for c in chambers]
        pool += [[cat_name, kind, p] for kind in ("basis", "cone") for p in cat.primes]
    return pool


def cli_candidates(api):
    """(argv, library call that raises DomainError when the CLI would refuse).

    Yields one catalog at a time; each call must run before the next
    catalog is generated."""
    rng = random.Random(POOL_SEED)
    for cat_name in workloads.BUNDLED:
        path = f"geometries/{cat_name}.geom"
        cat = workloads.load_oracle(cat_name)
        geom = api.load_geometry(workloads.ROOT / path)
        if cat.mode == "round":
            classes = rng.sample(round_classes(cat), CLI_CLASSES)
        else:
            classes = polyhedral_classes(cat, rng)
        exprs = [expression(cat.basis, c) for c in classes]
        primes = list(cat.primes)
        out = []

        def add(argv, call):
            out.append(([argv[0], path, *argv[1:], "--format", "machine"], call))

        def d(e):
            return api.parse_divisor(geom, e)

        for e in exprs:
            add(["decompose", e], lambda e=e: api.decompose(geom, d(e)))
            add(["volume", e], lambda e=e: api.volume(geom, d(e)))
            for p in primes:
                add(["polygon", e, p], lambda e=e, p=p: api.polygon(geom, d(e), p))
                add(["restricted-volume", e, p],
                    lambda e=e, p=p: api.restricted_volume(geom, d(e), p))
                if cat.mode == "polyhedral":
                    add(["minkowski", e, p],
                        lambda e=e, p=p: api.minkowski_decompose(geom, d(e), p))
        add(["chambers"], lambda: api.enumerate_chambers(geom))
        if cat.mode == "polyhedral":
            for p in primes:
                add(["minkowski-basis", p], lambda p=p: api.minkowski_basis(geom, p))
                add(["cone-generators", p], lambda p=p: api.cone_generators(geom, p))
        yield from out


def record_in_process(api, cls, pool) -> list:
    wl = cls(api, {workloads.entry_key(e): "" for e in pool}, seed=0)
    rows = []
    for group in wl.cycler.groups.values():
        for entry in group:
            result = wl.execute(entry)
            problems = wl.invariants(entry, result)
            if problems:
                raise SystemExit(f"{cls.name}: invariant failed: {problems}")
            text = workloads.canonical(wl.payload(entry, result))
            rows.append([json.loads(wl.key(entry)), workloads.digest(text)])
    return rows


def record_cli(api) -> list:
    rows = []
    refused = 0
    for argv, call in cli_candidates(api):
        try:
            call()
        except api.DomainError:
            refused += 1
            continue
        code, out = workloads.run_cli(argv)
        if code != 0:
            raise SystemExit(f"cli-cold: {argv} exited with {code}: {out}")
        rows.append([argv, workloads.digest(out)])
    print(f"cli-cold: {len(rows)} entries, {refused} refused by the engine", file=sys.stderr)
    return rows


POOLS = {
    "check-sweep": check_sweep_pool,
    "round-polygons": round_polygons_pool,
    "chamber-scaling": chamber_scaling_pool,
}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(workloads.SRC))
    api = fresh_import()
    names = argv or list(workloads.WORKLOADS)
    doc = {"workloads": {}}
    if workloads.REFERENCE.exists():
        with open(workloads.REFERENCE, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["recorded_from"] = git_sha()
    for name in names:
        if name == "cli-cold":
            rows = record_cli(api)
        else:
            rows = record_in_process(api, workloads.WORKLOADS[name], POOLS[name]())
        rows.sort(key=lambda row: workloads.entry_key(row[0]))
        doc["workloads"][name] = rows
        print(f"{name}: {len(rows)} entries", file=sys.stderr)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(f'"recorded_from": {json.dumps(doc["recorded_from"])},\n"workloads": {{\n')
        blocks = []
        for name, rows in doc["workloads"].items():
            lines = ",\n".join(json.dumps(row) for row in rows)
            blocks.append(f"{json.dumps(name)}: [\n{lines}\n]")
        fh.write(",\n".join(blocks) + "\n}\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
