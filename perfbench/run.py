"""ihspoly benchmark: four workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file, and
the benchmark imports ihspoly from its ``src`` only.  The load is
closed-loop and sequential: one operation at a time, and at most one
CLI child process at a time.

With ``--trace 0`` the run sets up nine times (fresh import, catalog
load, input generation) and reports the median as ``setup_s``, then
runs whole cycles of operations until their time adds up to
``--seconds`` and at least 11 operations are done, and prints the
end-to-end metrics.  Every set-up and operation time is scaled to a
nominal host speed by probes around it (see ``pace.py``), because the
shared host's own speed swings by up to 2x; the unscaled figures are in
the metadata line.

With ``--trace 1`` the run executes a fixed number of cycles twice,
from fresh imports: untraced, then with every public function of each
layer wrapped (see ``tracing.py``).  It prints the per-layer metrics and
the tracing overhead (traced minus untraced operation time); the span
file goes to ``perfbench/out/``.  The fixed cycle count makes the
counts repeat exactly for a given seed.

Every operation passes the correctness gate in ``workloads.py``.  The
last stdout line is the result object; the line before it records the
run's metadata (Python, cores, git SHA, seed, input size, why the
workload exists, the tail percentile and its sample count, and
fail_ratio with the first failures).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import pace
import tracing
import workloads

OUT = workloads.HERE / "out"
SETUP_REPS = 9
MIN_OPS = 11  # so the tail has 10 samples beyond it
WALL_FACTOR = 2.0  # a timed run ends by this many times --seconds of wall time
HARD_STOP_S = 150.0  # from process start: a run must end within 180 s
STARTED = perf_counter()
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def checkout_problem() -> str | None:
    for path in (workloads.SRC / "ihspoly" / "__init__.py", workloads.GEOM_DIR,
                 workloads.REFERENCE):
        if not path.exists():
            return f"{path} is missing; run from a checkout of the repository"
    return None


def fresh_import():
    """Import ihspoly (with report and cli) anew from the checkout's src."""
    for name in [n for n in sys.modules if n == "ihspoly" or n.startswith("ihspoly.")]:
        del sys.modules[name]
    api = importlib.import_module("ihspoly")
    importlib.import_module("ihspoly.report")
    importlib.import_module("ihspoly.cli")
    if Path(api.__file__).resolve().parent != workloads.SRC / "ihspoly":
        raise SystemExit(f"imported ihspoly from {api.__file__}, not from the checkout")
    return api


def run_ops(wl, *, seconds: float | None = None, cycles: int | None = None,
            max_ops: int | None = None, tracer=None, pacer: pace.Pacer | None = None):
    """Whole cycles of timed operations, each checked by the gate;
    ``max_ops`` cuts a smoke run short.  With a ``pacer`` each operation
    is bracketed by probes, ``latencies`` are scaled to the nominal host
    speed and ``raw`` keeps the wall times."""
    latencies: list[float] = []
    raw: list[float] = []
    problems: list[str] = []
    failed = done = 0
    started = perf_counter()
    while True:
        for op in wl.operations():
            if perf_counter() - STARTED > HARD_STOP_S or len(latencies) == max_ops:
                break
            before = pacer.probe() if pacer is not None else 0.0
            t0 = perf_counter()
            if tracer is not None:
                tracer.active = True
            try:
                results, error = [wl.execute(entry) for entry in op], None
            except Exception as exc:  # a raising operation is a failed one; the run goes on
                results, error = None, f"{wl.key(op[0])}: {type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.active = False
            raw.append(perf_counter() - t0)
            latencies.append(raw[-1] if pacer is None
                             else pacer.scale(raw[-1], before, pacer.probe()))
            found = [error] if error else [
                p for entry, result in zip(op, results) for p in wl.verify(entry, result)
            ]
            if found:
                failed += 1
                problems.extend(found)
        done += 1
        elapsed = perf_counter() - started
        if cycles is not None and done >= cycles:
            break
        # operation time, scaled, so the number of cycles does not follow
        # the host's speed; wall time stops a run on a very slow host
        if cycles is None and len(latencies) >= MIN_OPS and (
                sum(latencies) >= seconds or elapsed >= WALL_FACTOR * seconds):
            break
        if perf_counter() - STARTED > HARD_STOP_S or len(latencies) == max_ops:
            break
    return {"latencies": latencies, "raw": raw, "failed": failed, "problems": problems,
            "cycles": done, "wall_s": perf_counter() - started}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    at least 10 samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) >= MIN_OPS else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def measure(cls, seed: int, seconds: float, max_ops: int | None = None):
    refs = workloads.load_reference()[cls.name]
    pacer = pace.Pacer()
    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPS):
        gc.collect()  # garbage of the previous import must not land in this one
        before = pacer.probe()
        t0 = perf_counter()
        wl = cls(fresh_import(), refs, seed)
        setup_raw.append(perf_counter() - t0)
        setup_times.append(pacer.scale(setup_raw[-1], before, pacer.probe()))
    run = run_ops(wl, seconds=seconds, max_ops=max_ops, pacer=pacer)
    lat = run["latencies"]
    who = resource.RUSAGE_SELF if cls.in_process else resource.RUSAGE_CHILDREN
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    meta = {"ops": len(lat), "cycles": run["cycles"], "wall_s": run["wall_s"],
            "setup_s_samples": setup_times, "op_tail_percentile": tail_pct,
            "op_tail_samples_beyond": beyond,
            "nominal_probe_rate": pace.NOMINAL_RATE, "median_probe_rate": pacer.median_rate(),
            "unscaled": {"setup_s": statistics.median(setup_raw),
                         "ops_per_s": len(run["raw"]) / sum(run["raw"]),
                         "op_p50_ms": statistics.median(run["raw"]) * 1e3,
                         "op_tail_ms": tail(run["raw"])[0] * 1e3}}
    return wl, run, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, meta


def trace(cls, seed: int, cycles: int, max_ops: int | None = None):
    refs = workloads.load_reference()[cls.name]
    wl = cls(fresh_import(), refs, seed)
    plain = run_ops(wl, cycles=cycles, max_ops=max_ops)

    t0 = perf_counter()
    api = fresh_import()
    import_s = [perf_counter() - t0]
    OUT.mkdir(exist_ok=True)
    if cls.in_process:
        tracer = tracing.Tracer()
        tracing.install(tracer, api)
        tracer.active = True
        wl = cls(api, refs, seed)  # catalog load is traced too
        tracer.active = False
        traced = run_ops(wl, cycles=cycles, max_ops=max_ops, tracer=tracer)
        tracer.write(OUT / f"{cls.name}.spans", {"seed": seed, "import_s": import_s[0]})
        span_sets = [({"names": tracer.names}, tracer.cols)]
    else:
        wl = cls(api, refs, seed)
        wl.trace_dir = OUT / f"{cls.name}-children"
        shutil.rmtree(wl.trace_dir, ignore_errors=True)
        wl.trace_dir.mkdir()
        traced = run_ops(wl, cycles=cycles, max_ops=max_ops)
        span_sets = [tracing.read_spans(p) for p in sorted(wl.trace_dir.glob("*.spans"))]
        import_s = [header["import_s"] for header, _ in span_sets]
    overhead = sum(traced["latencies"]) - sum(plain["latencies"])
    values = tracing.layer_metrics(span_sets, import_s, overhead)
    units = tracing.metric_units()
    run = {"latencies": plain["latencies"] + traced["latencies"],
           "failed": plain["failed"] + traced["failed"],
           "problems": plain["problems"] + traced["problems"]}
    meta = {"cycles": cycles, "untraced_s": sum(plain["latencies"]),
            "traced_s": sum(traced["latencies"]),
            "spans": sum(len(cols["start"]) for _, cols in span_sets),
            "span_files": str(OUT.relative_to(workloads.ROOT))}
    return wl, run, {k: (values[k], units[k]) for k in units}, meta


def git_sha() -> str:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 max_ops: int | None = None) -> tuple[dict, dict]:
    """(metadata, result) of one run; ``max_ops`` makes it a smoke run."""
    cls = workloads.WORKLOADS[name]
    if traced:
        wl, run, metrics, meta = trace(cls, seed, cls.trace_cycles, max_ops)
    else:
        wl, run, metrics, meta = measure(cls, seed, seconds, max_ops)
    attempted = len(run["latencies"])
    meta = {
        "workload": name, "why": cls.why, "seed": seed, "seconds": seconds,
        "trace": int(traced), "python": platform.python_version(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "input_size": wl.size(), **meta,
        "fail_ratio": run["failed"] / attempted, "failures": run["problems"][:5],
    }
    result = {
        "correct": run["failed"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return meta, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    meta, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
