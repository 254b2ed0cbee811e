"""Smoke test of the benchmark itself (about ten seconds).

    python3 perfbench/selftest.py

Runs every workload for three operations, untraced and traced, and
checks that every metric named in BENCHMARK.json is reported with its
unit and that no operation failed; then feeds the correctness gate
corrupted outputs and checks that it rejects them.
"""

from __future__ import annotations

import json
import sys
import unittest

import oracle
import run
import tracing
import workloads

SMOKE_OPS = 3


def declared(kind: str) -> dict[str, str]:
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class SmokeRuns(unittest.TestCase):
    def check_run(self, traced: bool, kind: str) -> None:
        expected = declared(kind)
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                meta, result = run.run_workload(name, seed=0, seconds=0, traced=traced,
                                                max_ops=SMOKE_OPS)
                self.assertEqual(meta["fail_ratio"], 0, meta["failures"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], SMOKE_OPS)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                for metric in result["metrics"].values():
                    self.assertIsInstance(metric["value"], (int, float))

    def test_untraced_metrics(self):
        self.check_run(False, "end_to_end")

    def test_traced_metrics(self):
        self.check_run(True, "per_layer")


class Declarations(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(declared("end_to_end"), run.END_TO_END)
        self.assertEqual(declared("per_layer"), tracing.metric_units())

    def test_synthetic_k1_is_k3_rank3_renamed(self):
        synthetic = oracle.Catalog(oracle.elliptic_k3_document(1))
        bundled = oracle.Catalog.load(workloads.GEOM_DIR / "k3_rank3.geom")
        self.assertEqual(synthetic.gram, bundled.gram)
        self.assertEqual(sorted(map(tuple, synthetic.primes.values())),
                         sorted(map(tuple, bundled.primes.values())))
        self.assertEqual(len(oracle.Catalog(oracle.elliptic_k3_document(2)).chambers()), 18)


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.refs = workloads.load_reference()
        cls.api = run.fresh_import()

    def workload(self, name):
        return workloads.WORKLOADS[name](self.api, self.refs[name], seed=0)

    def test_reference_rejects_corrupted_output(self):
        for name in ("check-sweep", "round-polygons", "chamber-scaling"):
            with self.subTest(workload=name):
                wl = self.workload(name)
                entry = wl.cycler.cycle()[0]
                result = wl.execute(entry)
                self.assertEqual(wl.verify(entry, result), [])
                text = workloads.canonical(wl.payload(entry, result))
                key = wl.key(entry)
                self.assertTrue(workloads.matches_reference(wl.refs, key, text))
                corrupted = text.replace("1", "2", 1)
                self.assertNotEqual(corrupted, text)
                self.assertFalse(workloads.matches_reference(wl.refs, key, corrupted))

    def test_cli_stdout_must_be_byte_identical(self):
        wl = self.workload("cli-cold")
        argv = next(a for a in map(json.loads, wl.refs) if a[0] == "volume")
        code, out = workloads.run_cli(argv)
        self.assertEqual(wl.verify(argv, (code, out)), [])
        self.assertTrue(wl.verify(argv, (code, out.replace("\n", "\r\n", 1))))
        self.assertTrue(wl.verify(argv, (3, out)))

    def test_invariants_reject_wrong_answers(self):
        cat = workloads.load_oracle("hilb2")
        self.assertEqual(oracle.check_volume(cat, {"q_positive": "2", "volume": "12"}), [])
        self.assertTrue(oracle.check_volume(cat, {"q_positive": "2", "volume": "13"}))
        decomposition = {
            "class": {"coords": ["1", "1"]},
            "positive": {"coords": ["1", "0"]},
            "negative": [{"prime": "E", "coefficient": "1/2"}],
        }
        self.assertEqual(oracle.check_decomposition(cat, decomposition), [])
        decomposition["negative"][0]["coefficient"] = "1"
        self.assertTrue(oracle.check_decomposition(cat, decomposition))
        self.assertTrue(oracle.check_chamber_list(cat, [[], ["E"], ["E'"]]))


if __name__ == "__main__":
    if run.checkout_problem():
        sys.exit(f"error: {run.checkout_problem()}")
    sys.path.insert(0, str(workloads.SRC))
    unittest.main(verbosity=2)
