#!/usr/bin/env python3
"""Perf gate for the chain-DP kernel bench.

Compares a fresh bench_dp JSON summary against the committed baseline
(BENCH_dp.json at the repo root) per kernel configuration and fails when
any configuration's ns_per_solve regressed by more than the threshold.

Usage:
    python3 tools/perf_gate.py CURRENT.json

The baseline is BENCH_dp.json in this script's parent directory (the
repo root). The regression threshold is 10% and can be
overridden with RIP_PERF_GATE_PCT — a developer machine that matches the
baseline's hardware should run with the default; shared CI runners are
noisy and should pass a generous override (the gate then only catches
order-of-magnitude blowups, never runner-speed lottery).

Only configurations present in BOTH files are compared; a configuration
that disappeared from the current run fails the gate (a silently dropped
config is how a regression hides), a new configuration is reported and
skipped. Both files' hardware blocks are printed so a reader can tell a
slower machine from a slower kernel; the verdict reads `configs` alone.
Exit status: 0 = within threshold, 1 = regression or missing config,
2 = usage/parse error.
"""

import json
import os
import sys


def load(path):
    """The file's kernel configurations by name, and its hardware line."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    configs = {c["name"]: c for c in data.get("configs", [])}
    if not configs:
        print(f"perf_gate: {path} has no kernel configurations",
              file=sys.stderr)
        sys.exit(2)
    hw = data.get("hardware")
    hardware = "not recorded" if not hw else (
        f"{hw.get('cpu_model', '?')}, nproc {hw.get('nproc', '?')}, "
        f"{hw.get('compiler', '?')}")
    return configs, hardware


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    current_path = argv[1]
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(argv[0])))
    baseline_path = os.path.join(repo_root, "BENCH_dp.json")
    try:
        threshold_pct = float(os.environ.get("RIP_PERF_GATE_PCT", "10"))
    except ValueError:
        print("perf_gate: RIP_PERF_GATE_PCT must be a number",
              file=sys.stderr)
        return 2

    baseline, baseline_hw = load(baseline_path)
    current, current_hw = load(current_path)

    failures = []
    width = max(len(name) for name in baseline)
    print(f"perf gate: {current_path} vs {baseline_path} "
          f"(threshold +{threshold_pct:g}%)")
    print(f"  baseline hardware: {baseline_hw}")
    print(f"  current hardware:  {current_hw}")
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            print(f"  {name:<{width}}  MISSING from current run")
            failures.append(name)
            continue
        base_ns = float(base["ns_per_solve"])
        cur_ns = float(cur["ns_per_solve"])
        delta_pct = (cur_ns - base_ns) / base_ns * 100.0
        verdict = "ok"
        if delta_pct > threshold_pct:
            verdict = "REGRESSED"
            failures.append(name)
        print(f"  {name:<{width}}  {base_ns / 1e3:10.1f} -> "
              f"{cur_ns / 1e3:10.1f} us/solve  {delta_pct:+7.1f}%  {verdict}")
    for name in sorted(set(current) - set(baseline)):
        print(f"  {name:<{width}}  new configuration (no baseline, skipped)")

    if failures:
        print(f"perf_gate: FAIL — {len(failures)} configuration(s) over "
              f"the +{threshold_pct:g}% threshold: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("perf_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
