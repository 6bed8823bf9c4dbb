#!/usr/bin/env python3
"""Perf-regression gate over bench_scan's machine-independent ratios.

Compares a freshly produced bench_scan --json report against the
checked-in BENCH_scan.json baseline. Absolute GCUPS depend on the
machine (the "host" block in the fresh report says which one), so the
gate only checks speedup *ratios* — interseq-vs-striped and
funnel-vs-exact geomeans — which track the code, not the silicon.

Each config's funnel_speedup is also gated against the baseline config
with the same query_len (configs present in only one report are listed
and not gated), so one query length losing its funnel gain cannot hide
inside a geomean.

A ratio regresses when fresh < baseline * (1 - tolerance). The
tolerance is deliberately generous (default 0.40): CI boxes are noisy,
short runs double so, and the gate exists to catch "the funnel stopped
helping", not 5% drift. Improvements never fail the gate.

Usage: perf_gate.py FRESH.json [--baseline BENCH_scan.json]
                    [--tolerance 0.40]
Exit status: 0 pass, 1 regression, 2 bad input.
"""

import argparse
import json
import sys

# Gated keys: geomean ratios only. speedup_best is excluded — a single
# best-case config is too noisy to gate on.
RATIO_KEYS = [
    "speedup_geomean",
    "speedup_geomean_short",
    "speedup_geomean_long",
    "funnel_speedup_geomean",
    "funnel_speedup_geomean_short",
]
# Per-config gated key, matched by query_len.
CONFIG_KEY = "funnel_speedup"


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perf_gate: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def config_ratios(name, path, report, errors):
    """query_len -> funnel_speedup of a report's configs (may be empty)."""
    ratios = {}
    for i, config in enumerate(report.get("configs", [])):
        try:
            qlen = int(config["query_len"])
            ratios[qlen] = float(config[CONFIG_KEY])
        except (KeyError, TypeError, ValueError):
            errors.append(f"{name} {path}: configs[{i}] lacks a numeric "
                          f"query_len and {CONFIG_KEY}")
    return ratios


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="bench_scan --json output to check")
    parser.add_argument("--baseline", default="BENCH_scan.json",
                        help="checked-in baseline (default BENCH_scan.json)")
    parser.add_argument("--tolerance", type=float, default=0.40,
                        help="allowed relative shortfall (default 0.40)")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        print("perf_gate: --tolerance must be in [0, 1)", file=sys.stderr)
        sys.exit(2)

    fresh = load(args.fresh)
    base = load(args.baseline)

    host = fresh.get("host", {})
    if host:
        print(f"perf_gate: fresh run on {host.get('cpu_model', '?')} "
              f"({host.get('hardware_threads', '?')} threads, "
              f"{host.get('compiler', '?')}, "
              f"sha {host.get('git_sha', '?')})")

    # Validate both reports up front: every gated key must be present
    # and numeric in both files, and ALL problems are reported in one
    # pass — a truncated or stale report is bad input (exit 2), never a
    # silent skip that lets a regression through unmeasured.
    input_errors = []
    for name, path, report in (("baseline", args.baseline, base),
                               ("fresh", args.fresh, fresh)):
        for key in RATIO_KEYS:
            if key not in report:
                input_errors.append(
                    f"{name} {path}: missing summary field '{key}' "
                    "(regenerate with bench_scan --json)")
                continue
            try:
                float(report[key])
            except (TypeError, ValueError):
                input_errors.append(
                    f"{name} {path}: summary field '{key}' is not a "
                    f"number (got {report[key]!r})")
    base_configs = config_ratios("baseline", args.baseline, base,
                                 input_errors)
    fresh_configs = config_ratios("fresh", args.fresh, fresh, input_errors)
    if input_errors:
        print("perf_gate: bad input", file=sys.stderr)
        for msg in input_errors:
            print(f"  {msg}", file=sys.stderr)
        sys.exit(2)

    checks = [(key, float(base[key]), float(fresh[key]))
              for key in RATIO_KEYS]
    for qlen in sorted(set(base_configs) | set(fresh_configs)):
        if qlen not in base_configs or qlen not in fresh_configs:
            side = "baseline" if qlen in base_configs else "fresh"
            print(f"  {CONFIG_KEY}[qlen={qlen}] only in the {side} report, "
                  "not gated")
            continue
        checks.append((f"{CONFIG_KEY}[qlen={qlen}]", base_configs[qlen],
                       fresh_configs[qlen]))

    failures = []
    for key, b, f in checks:
        floor = b * (1.0 - args.tolerance)
        verdict = "ok" if f >= floor else "REGRESSED"
        print(f"  {key:32s} baseline {b:7.4f}  fresh {f:7.4f}  "
              f"floor {floor:7.4f}  {verdict}")
        if f < floor:
            failures.append(
                f"{key}: {f:.4f} < floor {floor:.4f} "
                f"(baseline {b:.4f}, tolerance {args.tolerance:.2f})")

    if failures:
        print("perf_gate: FAIL", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        sys.exit(1)
    print("perf_gate: pass")


if __name__ == "__main__":
    main()
