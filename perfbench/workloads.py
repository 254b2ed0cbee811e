"""The four benchmark workloads: inputs, operations and correctness gate.

Every workload draws its inputs from a fixed pool whose reference
outputs were recorded once, by ``record.py``, into ``reference.json``.
The run's seed chooses which pool entries run and in what order, one
cycle at a time; a cycle holds a fixed number of entries of each kind,
so every run sees the same mix.  The library only ever receives the
generated inputs.

The gate compares each operation's canonical machine JSON with its
reference digest and checks exact invariants computed by ``oracle``.
A mismatch is a failed operation; it never aborts the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GEOM_DIR = ROOT / "geometries"
REFERENCE = HERE / "reference.json"
BUNDLED = ("hilb2", "k3_rank3", "hilb2_k3", "fano_lines")
SYNTHETIC_K = 2  # 18 chambers; k = 3 has 54 and takes ~30 s per cycle


def entry_key(entry) -> str:
    return json.dumps(entry, separators=(",", ":"))


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def load_reference() -> dict[str, dict[str, str]]:
    """Reference digests by workload, keyed by the entry's JSON text."""
    with open(REFERENCE, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        name: {entry_key(entry): dig for entry, dig in rows}
        for name, rows in doc["workloads"].items()
    }


def matches_reference(refs: dict[str, str], key: str, text: str) -> bool:
    return refs.get(key) == digest(text)


class Cycler:
    """Seeded draws from grouped pool entries, a fixed count per group.

    Each group is shuffled once and drawn without replacement, and
    reshuffled when used up; the entries of a cycle run in shuffled
    order.  A count of None takes the whole group every cycle.
    """

    def __init__(self, groups: dict, per_cycle: dict, seed: int) -> None:
        self.rng = random.Random(seed)
        self.groups = {g: list(entries) for g, entries in groups.items()}
        self.per_cycle = per_cycle
        self.queues: dict = {g: [] for g in self.groups}

    def _draw(self, group):
        queue = self.queues[group]
        if not queue:
            queue.extend(self.groups[group])
            self.rng.shuffle(queue)
        return queue.pop()

    def cycle(self) -> list:
        out = []
        for group, count in self.per_cycle.items():
            if count is None:
                out.extend(self.groups[group])
            else:
                out.extend(self._draw(group) for _ in range(count))
        self.rng.shuffle(out)
        return out


class Workload:
    """One named workload.  ``setup`` builds the inputs from the seed
    with a freshly imported ``api``; an operation runs ``batch`` pool
    entries through ``execute`` back to back, and ``verify`` is the gate
    for one entry, returning a list of problems."""

    name = ""
    why = ""
    in_process = True
    batch = 1
    trace_cycles = 1  # fixed length of a traced run

    def __init__(self, api, refs: dict[str, str], seed: int) -> None:
        self.api = api
        self.refs = refs
        self.seed = seed
        self.cycler = self.setup()

    def setup(self) -> Cycler:
        raise NotImplementedError

    def operations(self) -> list[list]:
        """The next cycle, as operations of ``batch`` entries each."""
        entries = self.cycler.cycle()
        return [entries[i:i + self.batch] for i in range(0, len(entries), self.batch)]

    def execute(self, entry):
        raise NotImplementedError

    def payload(self, entry, result):
        """Canonical machine JSON of an operation's answer."""
        raise NotImplementedError

    def invariants(self, entry, result) -> list[str]:
        return []

    def size(self) -> dict:
        raise NotImplementedError

    def key(self, entry) -> str:
        """The entry's key in the reference table."""
        return entry_key(entry)

    def verify(self, entry, result) -> list[str]:
        key = self.key(entry)
        problems = []
        if not matches_reference(self.refs, key, canonical(self.payload(entry, result))):
            problems.append(f"{key}: output differs from the reference")
        problems += [f"{key}: {p}" for p in self.invariants(entry, result)]
        return problems


def run_cli(argv: list[str], spans: Path | None = None) -> tuple[int, str]:
    """Exit code and stdout of one fresh CLI child; with ``spans`` the
    child traces itself and writes its span file there."""
    if spans is None:
        command = [sys.executable, "-m", "ihspoly.cli", *argv]
    else:
        command = [sys.executable, str(HERE / "trace_child.py"), str(spans), *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          timeout=120, check=False)
    return proc.returncode, proc.stdout.decode("utf-8")


def _entries(refs: dict[str, str]) -> list:
    return [json.loads(k) for k in refs]


def _synthetic(name: str) -> dict | None:
    """The generated document of a catalog named ``elliptic_k<k>``."""
    if name.startswith("elliptic_k"):
        return oracle.elliptic_k3_document(int(name[len("elliptic_k"):]))
    return None


def load_geometry(api, name: str):
    """A bundled or synthetic catalog, loaded by the engine under test."""
    doc = _synthetic(name)
    if doc is None:
        return api.load_geometry(GEOM_DIR / f"{name}.geom")
    return api.parse_geometry(json.dumps(doc))


def load_oracle(name: str) -> oracle.Catalog:
    """The same catalog, read by the benchmark's own oracle."""
    doc = _synthetic(name)
    return oracle.Catalog.load(GEOM_DIR / f"{name}.geom") if doc is None else oracle.Catalog(doc)


# ---------------------------------------------------------------------------


class CheckSweep(Workload):
    name = "check-sweep"
    why = ("release-gate path: run_checks on every bundled catalog; "
           "dominated by decompose -> LP membership and lattice pairing")
    samples = 4
    trace_cycles = 2
    # Ops per cycle, weighted so each catalog's share of op time is near
    # its share of the 100-sample release gate (about 9/11/26/54 %); the
    # weights also put the median inside the k3_rank3 cluster instead of
    # on the edge between two clusters.
    per_cycle = {"fano_lines": 1, "hilb2": 1, "k3_rank3": 2, "hilb2_k3": 2}

    def setup(self) -> Cycler:
        self.geoms = {c: load_geometry(self.api, c) for c in BUNDLED}
        groups: dict = {c: [] for c in BUNDLED}
        for cat, check_seed in _entries(self.refs):
            groups[cat].append((cat, check_seed))
        return Cycler(groups, self.per_cycle, self.seed)

    def execute(self, entry):
        cat, check_seed = entry
        return self.api.run_checks(self.geoms[cat], samples=self.samples, seed=check_seed)

    def payload(self, entry, result):
        return self.api.report.checks_json(self.geoms[entry[0]], result)

    def invariants(self, entry, result) -> list[str]:
        failed = [r.name for r in result if not r.passed]
        return [f"checks failed: {failed}"] if failed else []

    def size(self) -> dict:
        return {"ops_per_cycle": self.per_cycle, "samples_per_op": self.samples,
                "pool": len(self.refs)}


class RoundPolygons(Workload):
    name = "round-polygons"
    why = ("round-mode polygons, Minkowski sums and containment: Surd and "
           "polygon2d work with no LP at all (bypass for LP/cache changes)")
    catalog = "fano_lines"
    flag = "S"
    per_cycle = 20
    trace_cycles = 10
    # Four pairs per operation (~60 ms): with ~16 ms operations a run
    # has over a thousand, its tail is the 99th percentile, and that is
    # set by scheduler hiccups rather than by the engine.
    batch = 4

    def setup(self) -> Cycler:
        self.geom = load_geometry(self.api, self.catalog)
        self.oracle = load_oracle(self.catalog)
        div = self.api.DivClass
        pairs = [
            (tuple(d1), tuple(d2), div(d1), div(d2), div([a + b for a, b in zip(d1, d2)]))
            for d1, d2 in _entries(self.refs)
        ]
        return Cycler({"pairs": pairs}, {"pairs": self.per_cycle}, self.seed)

    def execute(self, entry):
        _, _, d1, d2, d12 = entry
        api, g = self.api, self.geom
        p1 = api.polygon(g, d1, self.flag)
        p2 = api.polygon(g, d2, self.flag)
        p12 = api.polygon(g, d12, self.flag)
        total = api.polygon_minkowski_sum(p1, p2)
        return p1, p2, p12, total, api.polygon_contains(p12, total)

    def key(self, entry) -> str:
        return entry_key([list(entry[0]), list(entry[1])])

    def payload(self, entry, result):
        p1, p2, p12, total, contained = result
        report, g, f = self.api.report, self.geom, self.flag
        return {
            "p1": report.polygon_json(g, entry[2], f, p1),
            "p2": report.polygon_json(g, entry[3], f, p2),
            "p12": report.polygon_json(g, entry[4], f, p12),
            "sum": {
                "nu": str(total.nu),
                "mu": report.surd_json(total.mu),
                "vertices": [[report.surd_json(x), report.surd_json(y)] for x, y in total.vertices],
            },
            "contains": contained,
        }

    def invariants(self, entry, result) -> list[str]:
        p1, p2, p12, _, contained = result
        problems = [] if contained else ["polygon(D1+D2) does not contain P1 + P2"]
        d12 = [a + b for a, b in zip(entry[0], entry[1])]
        for coords, poly in ((entry[0], p1), (entry[1], p2), (d12, p12)):
            # round mode has no exceptional primes, so P(D) = D
            if poly.area * 2 != self.oracle.square(coords):
                problems.append(f"2 * area != q(P) for {list(coords)}")
        return problems

    def size(self) -> dict:
        return {"catalog": self.catalog, "pairs_per_op": self.batch,
                "pairs_per_cycle": self.per_cycle, "class_pairs": len(self.refs)}


class ChamberScaling(Workload):
    name = "chamber-scaling"
    why = ("exponential path: chambers, per-chamber closures, Minkowski bases "
           "and cone generators on hilb2_k3 and a synthetic k-fibre K3")
    catalogs = ("hilb2_k3", f"elliptic_k{SYNTHETIC_K}")
    # The whole set every cycle, in seeded order: the cost of a cone
    # generator call depends on its flag, so drawing flags would make
    # the mix, and with it ops_per_s, differ from run to run.
    per_cycle = {"enumerate": None, "closure": None, "basis": None, "cone": None}

    def setup(self) -> Cycler:
        self.geoms = {c: load_geometry(self.api, c) for c in self.catalogs}
        self.oracles = {c: load_oracle(c) for c in self.catalogs}
        groups: dict = {}
        for cat, kind, arg in _entries(self.refs):
            groups.setdefault((cat, kind), []).append((cat, kind, arg))
        return Cycler(groups, {g: self.per_cycle[g[1]] for g in groups}, self.seed)

    def execute(self, entry):
        cat, kind, arg = entry
        api, g = self.api, self.geoms[cat]
        if kind == "enumerate":
            return api.enumerate_chambers(g)
        if kind == "closure":
            return api.chamber_closure_rays(g, frozenset(arg))
        if kind == "basis":
            return api.minkowski_basis(g, arg)
        return api.cone_generators(g, arg)

    def payload(self, entry, result):
        cat, kind, arg = entry
        report, g = self.api.report, self.geoms[cat]
        if kind == "enumerate":
            return report.chambers_json(g, result, None)
        if kind == "closure":
            return {"chamber": sorted(arg), "rays": [report.divisor_json(g, r) for r in result]}
        if kind == "basis":
            return report.basis_json(g, arg, result)
        return report.cone_json(g, arg, result)

    def invariants(self, entry, result) -> list[str]:
        cat, kind, arg = entry
        cat_oracle = self.oracles[cat]
        if kind == "enumerate":
            return oracle.check_chamber_list(cat_oracle, result)
        if kind == "closure":
            members = [cat_oracle.primes[n] for n in arg]
            for ray in result:
                coords = list(ray.coords)
                in_s = any(oracle.same_ray(coords, m) for m in members)
                if not in_s and any(cat_oracle.pair(coords, m) for m in members):
                    return [f"closure ray {coords} is neither in S nor orthogonal to S"]
        return []

    def size(self) -> dict:
        return {"catalogs": list(self.catalogs), "synthetic_k": SYNTHETIC_K,
                "chambers": {c: len(self.oracles[c].chambers()) for c in self.catalogs},
                "ops_per_cycle": sum(map(len, self.cycler.groups.values()))}


class CliCold(Workload):
    name = "cli-cold"
    why = ("one fresh `python -m ihspoly.cli --format machine` child per op: "
           "interpreter start, import, catalog load and report rendering")
    in_process = False
    trace_dir: Path | None = None  # set for a traced run: children record spans
    # The two kinds that take ~0.5 s, five times the others, run twice a
    # cycle: a run then has about 16 of them, so op_tail_ms (10 samples
    # beyond it) falls inside their cluster.  Once a cycle it had 10, and
    # the tail was the slowest of the rest, which swung by a third.
    heavy = {("chambers", "geometries/hilb2_k3.geom"): 2,
             ("cone-generators", "geometries/hilb2_k3.geom"): 2}

    def setup(self) -> Cycler:
        # the parent loads what a child loads, so load-time work shows in setup_s
        for cat in BUNDLED:
            load_geometry(self.api, cat)
        self.oracles = {c: load_oracle(c) for c in BUNDLED}
        self.children = 0
        groups: dict = {}
        for argv in _entries(self.refs):
            groups.setdefault((argv[0], argv[1]), []).append(argv)
        return Cycler(groups, {g: self.heavy.get(g, 1) for g in groups}, self.seed)

    def execute(self, argv):
        self.children += 1
        spans = None
        if self.trace_dir is not None:
            spans = self.trace_dir / f"child-{self.children:05d}.spans"
        return run_cli(argv, spans)

    def verify(self, argv, result) -> list[str]:
        code, out = result
        key = entry_key(argv)
        if code != 0:
            return [f"{key}: exit code {code}"]
        if not matches_reference(self.refs, key, out):
            return [f"{key}: stdout differs from the reference"]
        return [f"{key}: {p}" for p in self.invariants(argv, json.loads(out))]

    def invariants(self, argv, payload) -> list[str]:
        command, cat = argv[0], Path(argv[1]).stem
        cat_oracle = self.oracles[cat]
        if command == "decompose":
            return oracle.check_decomposition(cat_oracle, payload)
        if command == "volume":
            return oracle.check_volume(cat_oracle, payload)
        if command == "polygon":
            base = oracle.divisor_coords(payload["segments"][0]["base"])
            return oracle.check_polygon_area(cat_oracle, payload, cat_oracle.square(base))
        if command == "chambers":
            return oracle.check_chamber_list(cat_oracle, [c["primes"] for c in payload["chambers"]])
        return []

    def size(self) -> dict:
        return {"catalogs": list(BUNDLED), "kinds_per_cycle": len(self.cycler.per_cycle),
                "ops_per_cycle": sum(self.cycler.per_cycle.values()),
                "children": self.children, "pool": len(self.refs)}


WORKLOADS = {w.name: w for w in (CheckSweep, RoundPolygons, ChamberScaling, CliCold)}
