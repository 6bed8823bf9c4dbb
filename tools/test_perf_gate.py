#!/usr/bin/env python3
"""Subprocess tests for tools/perf_gate.py input validation and verdicts.

Wired as an always-on ctest entry: the gate's failure modes (exit 2 on
bad input with per-field messages, exit 1 on regression, exit 0 on
pass) are contract, not incidental behaviour — CI scripts branch on
them.
"""

import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_gate.py")

RATIO_KEYS = [
    "speedup_geomean",
    "speedup_geomean_short",
    "speedup_geomean_long",
    "funnel_speedup_geomean",
    "funnel_speedup_geomean_short",
]

FAILURES = []


def full_report(value=2.0):
    return {key: value for key in RATIO_KEYS}


def run_gate(tmp, fresh, baseline, extra_args=()):
    fresh_path = os.path.join(tmp, "fresh.json")
    base_path = os.path.join(tmp, "BENCH_scan.json")
    with open(fresh_path, "w", encoding="utf-8") as f:
        json.dump(fresh, f)
    with open(base_path, "w", encoding="utf-8") as f:
        json.dump(baseline, f)
    return subprocess.run(
        [sys.executable, GATE, fresh_path, "--baseline", base_path,
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def expect(name, condition, detail):
    if condition:
        print(f"  ok: {name}")
    else:
        FAILURES.append(name)
        print(f"  FAIL: {name}\n    {detail}", file=sys.stderr)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        # Happy path: identical reports pass.
        proc = run_gate(tmp, full_report(), full_report())
        expect("identical reports pass", proc.returncode == 0,
               f"exit={proc.returncode} stderr={proc.stderr!r}")

        # Regression: fresh far below baseline fails with exit 1.
        proc = run_gate(tmp, full_report(0.5), full_report(2.0))
        expect("regression exits 1", proc.returncode == 1,
               f"exit={proc.returncode} stderr={proc.stderr!r}")
        expect("regression names the floor", "floor" in proc.stderr,
               f"stderr={proc.stderr!r}")

        # Improvement never fails.
        proc = run_gate(tmp, full_report(4.0), full_report(2.0))
        expect("improvement passes", proc.returncode == 0,
               f"exit={proc.returncode} stderr={proc.stderr!r}")

        # Missing field in the baseline: exit 2 and the message names
        # the file role AND the field.
        broken = full_report()
        del broken["funnel_speedup_geomean"]
        proc = run_gate(tmp, full_report(), broken)
        expect("missing baseline field exits 2", proc.returncode == 2,
               f"exit={proc.returncode} stderr={proc.stderr!r}")
        expect("message names baseline and field",
               "baseline" in proc.stderr
               and "funnel_speedup_geomean" in proc.stderr,
               f"stderr={proc.stderr!r}")

        # Missing field in the fresh report: same contract.
        broken = full_report()
        del broken["speedup_geomean_short"]
        proc = run_gate(tmp, broken, full_report())
        expect("missing fresh field exits 2", proc.returncode == 2,
               f"exit={proc.returncode} stderr={proc.stderr!r}")
        expect("message names fresh and field",
               "fresh" in proc.stderr
               and "speedup_geomean_short" in proc.stderr,
               f"stderr={proc.stderr!r}")

        # ALL problems reported in one pass, not just the first.
        broken = full_report()
        del broken["speedup_geomean"]
        del broken["speedup_geomean_long"]
        proc = run_gate(tmp, full_report(), broken)
        expect("all missing fields listed",
               "speedup_geomean" in proc.stderr
               and "speedup_geomean_long" in proc.stderr,
               f"stderr={proc.stderr!r}")

        # Non-numeric field: exit 2, names the offender.
        broken = full_report()
        broken["speedup_geomean"] = "fast"
        proc = run_gate(tmp, broken, full_report())
        expect("non-numeric field exits 2", proc.returncode == 2,
               f"exit={proc.returncode} stderr={proc.stderr!r}")
        expect("non-numeric message names field",
               "speedup_geomean" in proc.stderr and "fast" in proc.stderr,
               f"stderr={proc.stderr!r}")

        # Per-config floor: a geomean that still passes does not hide
        # one query length losing its funnel gain.
        def with_configs(speedups):
            report = full_report()
            report["configs"] = [
                {"query_len": q, "funnel_speedup": v}
                for q, v in speedups.items()]
            return report

        base = with_configs({100: 2.0, 2000: 2.0})
        proc = run_gate(tmp, with_configs({100: 2.0, 2000: 0.5}), base)
        expect("per-config regression exits 1", proc.returncode == 1,
               f"exit={proc.returncode} stderr={proc.stderr!r}")
        expect("per-config message names the query length",
               "qlen=2000" in proc.stderr and "qlen=100" not in proc.stderr,
               f"stderr={proc.stderr!r}")
        proc = run_gate(tmp, with_configs({100: 1.3, 2000: 2.5}), base)
        expect("per-config inside tolerance passes", proc.returncode == 0,
               f"exit={proc.returncode} stderr={proc.stderr!r}")
        # Configs are matched by query_len; one present on one side
        # only is reported, not gated.
        proc = run_gate(tmp, with_configs({100: 2.0, 777: 0.1}), base)
        expect("unmatched config is not gated", proc.returncode == 0,
               f"exit={proc.returncode} stderr={proc.stderr!r}")
        expect("unmatched config is listed",
               "qlen=777" in proc.stdout and "qlen=2000" in proc.stdout,
               f"stdout={proc.stdout!r}")
        broken = with_configs({100: 2.0})
        broken["configs"][0]["funnel_speedup"] = None
        proc = run_gate(tmp, broken, base)
        expect("non-numeric config ratio exits 2", proc.returncode == 2,
               f"exit={proc.returncode} stderr={proc.stderr!r}")

        # Unreadable file: exit 2.
        proc = subprocess.run(
            [sys.executable, GATE, os.path.join(tmp, "nope.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        expect("unreadable fresh file exits 2", proc.returncode == 2,
               f"exit={proc.returncode} stderr={proc.stderr!r}")

        # Bad tolerance: exit 2.
        proc = run_gate(tmp, full_report(), full_report(),
                        extra_args=("--tolerance", "1.5"))
        expect("out-of-range tolerance exits 2", proc.returncode == 2,
               f"exit={proc.returncode} stderr={proc.stderr!r}")

    if FAILURES:
        print(f"test_perf_gate: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("test_perf_gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
