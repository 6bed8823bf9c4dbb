#!/usr/bin/env python3
"""Self-checks of the benchmark's ledger at toy sizes, for every workload.

Run from the root of a source checkout (it builds perfbench/ first):

    python3 perfbench/test_ledger.py
"""

import json
import os
import subprocess
import sys
import unittest

WORKLOADS = ("paper40", "hetero_nohit", "short_socket")
SPANS = ("bench:setup.io", "bench:setup.pack", "bench:setup.interleave",
         "bench:engine.execute", "bench:policy.batch_size")


def bench(workload, trace):
    """Runs the toy workload; returns (exit code, detail line, result line)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        stdout=subprocess.PIPE, text=True, timeout=900, check=False)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class LedgerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def check_result(self, result, key):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in self.spec[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, declared)

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, detail, result = bench(w, 0)
                self.assertEqual(code, 0)
                self.check_result(result, "end_to_end")
                for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0)
                self.assertEqual(detail["metrics"]["failed_frac"]["value"], 0)

    def test_ledger(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, detail, result = bench(w, 1)
                self.assertEqual(code, 0)
                self.check_result(result, "per_layer")
                m = {k: v["value"] for k, v in detail["metrics"].items()}
                prov = detail["provenance"]
                slaves = prov["full_slaves"] + prov["throttled_slaves"]

                parts = m["io.read_s"] + m["db.pack_s"] + m["db.interleave_s"]
                self.assertAlmostEqual(parts, m["setup_s"], delta=1e-9)
                self.assertLessEqual(m["engine.busy_s"],
                                     slaves * detail["ledger_wall_s"])
                self.assertGreaterEqual(m["sched.waste_frac"], 0.0)
                self.assertLess(m["sched.waste_frac"], 1.0)
                self.assertEqual(m["runtime.dispatch_gap_ms.n"],
                                 m["engine.calls"] - slaves)
                self.assertEqual(m["engine.task_ms.n"], m["engine.calls"])
                self.assertTrue(detail["checks"]["traced_topk_equals_untraced"])
                self.assertTrue(detail["checks"]["trace_complete"])
                for key in ("isa", "nproc", "comparable", "host"):
                    self.assertIn(key, prov)

                with open(os.path.join(".bench_build", "traces",
                                       f"{w}-3.json")) as f:
                    trace = f.read()
                for span in SPANS:
                    self.assertIn(f'"{span}"', trace)


if __name__ == "__main__":
    unittest.main()
