#!/usr/bin/env python3
"""Perf gate for the chain-DP kernel bench.

Compares a fresh bench_dp JSON summary against the committed baseline
(BENCH_dp.json at the repo root) per kernel configuration, on two kinds
of figure:

- Work counters, exactly: labels_per_solve, labels_peak and arena_peak
  are deterministic for a given workload, so any rise fails the gate
  (a pruning bug that keeps more labels shows here on any machine). A
  fall passes, and the gate asks for a re-baseline so the next rise is
  measured from the new level.
- Wall clock, with a threshold: ns_per_solve may not rise by more than
  10%, overridable with RIP_PERF_GATE_PCT — a developer machine that
  matches the baseline's hardware should run with the default; shared
  CI runners are noisy and should pass a generous override (the gate
  then only catches order-of-magnitude blowups, never runner-speed
  lottery). A wall-clock failure says whether the config's counters
  match the baseline exactly: if they do, the same work ran slower
  (host speed, or a slower kernel); if not, the work itself changed.

A configuration that ran no solves (`solves` 0) fails the gate: its
zeroed counters and wall clock measure nothing, so they can neither
pass nor ask for a re-baseline.

Usage:
    python3 tools/perf_gate.py CURRENT.json

The baseline is BENCH_dp.json in this script's parent directory (the
repo root). Both files must describe the same workload (`nets`,
`targets_per_net` and `seed` of their `workload` blocks); otherwise the
counters are not comparable and the gate refuses with exit 2, naming
the mismatch. Only configurations present in BOTH files are compared; a
configuration that disappeared from the current run fails the gate (a
silently dropped config is how a regression hides), a new configuration
is reported and skipped. Both files' hardware blocks are printed so a
reader can tell a slower machine from a slower kernel.
Exit status: 0 = pass, 1 = regression, missing or empty config, 2 =
usage/parse error or a workload mismatch.
"""

import json
import os
import sys

COUNTERS = ("labels_per_solve", "labels_peak", "arena_peak")
WORKLOAD_KEYS = ("nets", "targets_per_net", "seed")


def load(path):
    """The file's configurations by name, its workload and hardware line."""
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
    return configs, data.get("workload") or {}, hardware


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

    baseline, baseline_wl, baseline_hw = load(baseline_path)
    current, current_wl, current_hw = load(current_path)

    mismatches = [
        f"{key} {baseline_wl.get(key)} (baseline) vs "
        f"{current_wl.get(key)} (current)"
        for key in WORKLOAD_KEYS
        if key not in baseline_wl or baseline_wl[key] != current_wl.get(key)
    ]
    if mismatches:
        print("perf_gate: the runs measured different workloads, so their "
              "counters are not comparable: " + "; ".join(mismatches),
              file=sys.stderr)
        return 2

    failures = []
    rebaseline = []
    width = max(len(name) for name in baseline)
    print(f"perf gate: {current_path} vs {baseline_path} "
          f"(counters exact, wall clock +{threshold_pct:g}%)")
    print(f"  baseline hardware: {baseline_hw}")
    print(f"  current hardware:  {current_hw}")
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            print(f"  {name:<{width}}  MISSING from current run")
            failures.append(f"{name} missing")
            continue
        if not cur.get("solves"):
            print(f"  {name:<{width}}  ran NO solves")
            failures.append(f"{name} ran no solves")
            continue
        for counter in COUNTERS:
            # Printed as stored: bench_dp writes the counters' exact
            # digits, so the smallest rise shows and fails.
            base_n, cur_n = base[counter], cur[counter]
            if cur_n != base_n:
                rose = cur_n > base_n
                print(f"  {name:<{width}}  {counter} {base_n} -> {cur_n}  "
                      + ("ROSE" if rose else "fell"))
                (failures if rose else rebaseline).append(f"{name} {counter}")
        base_ns = float(base["ns_per_solve"])
        cur_ns = float(cur["ns_per_solve"])
        delta_pct = (cur_ns - base_ns) / base_ns * 100.0
        verdict = "ok"
        if delta_pct > threshold_pct:
            same = all(cur[c] == base[c] for c in COUNTERS)
            work = ("counters match the baseline exactly" if same
                    else "counters differ from the baseline")
            verdict = f"REGRESSED ({work})"
            failures.append(f"{name} ns_per_solve {delta_pct:+.1f}% "
                            f"({work})")
        print(f"  {name:<{width}}  {base_ns / 1e3:10.1f} -> "
              f"{cur_ns / 1e3:10.1f} us/solve  {delta_pct:+7.1f}%  {verdict}")
    for name in sorted(set(current) - set(baseline)):
        print(f"  {name:<{width}}  new configuration (no baseline, skipped)")

    if rebaseline:
        print(f"perf_gate: {len(rebaseline)} counter(s) fell "
              f"({', '.join(rebaseline)}): re-baseline BENCH_dp.json so "
              "the gate holds the new level")
    if failures:
        print(f"perf_gate: FAIL — {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"perf_gate: PASS ({len(COUNTERS)} counters of {len(baseline)} "
          "configurations compared exactly)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
