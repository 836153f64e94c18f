"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs the cheapest few inputs of every workload through run.py, untraced
and traced, and checks that each prints exactly the metrics BENCHMARK.json
names, each with its unit, with every verdict correct.  Then plants
contradictions in the verdict and byte checkers' input (never in rimcert)
and checks that each one is rejected.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from verdicts import check, load_pool, spec_key  # noqa: E402


def run_bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise AssertionError(f"run.py exited {out.returncode}: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            bench = json.load(f)
        for workload in bench["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    line = run_bench(workload["name"], trace)
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in bench[section]}
                    printed = {k: m["unit"] for k, m in line["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for name, m in line["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        self.assertTrue(math.isfinite(m["value"]), name)


def as_verdict(entry: dict, **changes) -> dict:
    """A verdict document as rimcert prints it, rebuilt from a frozen entry."""
    verdict = {"status": entry["status"], "witness": dict(entry["witness"]),
               "certificate": {"stage": entry["stage"]}}
    verdict.update(changes)
    return verdict


class PlantedContradictions(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pool = load_pool()
        entries = cls.pool["verdicts"].values()
        cls.cyclic = next(e for e in entries if e["status"] == "cyclic")
        cls.non_cyclic = next(e for e in entries if "group_order" in e["witness"])
        cls.inconclusive = next(e for e in entries if e["status"] == "inconclusive")

    def test_frozen_verdicts_pass(self):
        for entry in (self.cyclic, self.non_cyclic):
            self.assertEqual(check(entry, as_verdict(entry)), (True, None))

    def test_flipped_status_is_rejected(self):
        _, failure = check(self.cyclic, as_verdict(self.cyclic, status="non_cyclic"))
        self.assertIsNotNone(failure)
        _, failure = check(self.non_cyclic, as_verdict(self.non_cyclic, status="cyclic"))
        self.assertIsNotNone(failure)

    def test_changed_or_dropped_witness_is_rejected(self):
        witness = dict(self.non_cyclic["witness"])
        witness["group_order"] += 1
        _, failure = check(self.non_cyclic, as_verdict(self.non_cyclic, witness=witness))
        self.assertIsNotNone(failure)
        del witness["group_order"]
        _, failure = check(self.non_cyclic, as_verdict(self.non_cyclic, witness=witness))
        self.assertIsNotNone(failure)

    def test_timeout_overflow_is_rejected(self):
        certificate = {"stage": "overflow",
                       "meridian_enumeration": {"reason": "max_cosets"},
                       "order_enumeration": {"reason": "timeout"}}
        verdict = as_verdict(self.inconclusive, certificate=certificate)
        self.assertIsNotNone(check(self.inconclusive, verdict)[1])

    def test_inconclusive_now_certified_is_allowed(self):
        verdict = as_verdict(self.inconclusive, status="non_cyclic",
                             witness={"meridian_subgroup_index": 7})
        self.assertEqual(check(self.inconclusive, verdict), (True, None))

    def test_batch_checker_rejects_planted_rows(self):
        run.import_rimcert()
        work = run.Workload("batch_sweep", seed=1, tiny=True)
        rows = [{"spec": doc, "verdict": as_verdict(self.pool["verdicts"][spec_key(doc)])}
                for doc in work.docs]
        work.check_batch(json.dumps({"rows": rows}))
        self.assertEqual(work.tally.failures, [])

        flipped = json.loads(json.dumps(rows))
        row = next(r for r in flipped if r["verdict"]["status"] == "cyclic")
        row["verdict"]["status"] = "non_cyclic"
        work.check_batch(json.dumps({"rows": flipped}))
        self.assertEqual(len(work.tally.failures), 1)

        work.check_batch(json.dumps({"rows": rows[::-1]}))
        self.assertIn("batch rows are not in config order", work.tally.failures)

    def test_byte_check_rejects_planted_mismatch(self):
        run.import_rimcert()
        work = run.Workload("batch_sweep", seed=1, tiny=True)
        serial = work.batch.batch_json(work.batch.run_batch({**work.config, "parallelism": 1}))
        work.texts = [serial, serial]
        self.assertFalse(work.check_bytes())  # no frozen digest for this slice
        self.assertEqual(work.tally.failures, [])
        work.texts = [serial, serial.replace('"cyclic"', '"non_cyclic"', 1)]
        work.check_bytes()
        self.assertEqual(len(work.tally.failures), 1)


if __name__ == "__main__":
    unittest.main()
