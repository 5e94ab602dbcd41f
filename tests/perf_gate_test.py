#!/usr/bin/env python3
"""Checks tools/perf_gate.py against edited copies of BENCH_dp.json.

Usage:
    python3 tests/perf_gate_test.py PERF_GATE_PY SCRATCH_JSON

Each check writes a copy of the committed baseline (BENCH_dp.json in
the repo root, the gate's own baseline) to SCRATCH_JSON, edits one
configuration, runs the gate on it and checks its exit status and
output:

- the unedited copy passes;
- a configuration that ran no solves, written the way bench_dp writes
  one (solves and every per-solve figure 0), fails;
- a wall-clock failure says whether the configuration's work counters
  match the baseline exactly.

Exit status: 0 = every check held, 1 = a check failed.
"""

import copy
import json
import os
import subprocess
import sys


def run_gate(gate, baseline, scratch, edit):
    """Run the gate on a copy of `baseline` changed by `edit`."""
    data = copy.deepcopy(baseline)
    edit(data["configs"][0])
    with open(scratch, "w") as f:
        json.dump(data, f)
    env = dict(os.environ, RIP_PERF_GATE_PCT="10")
    done = subprocess.run([sys.executable, gate, scratch], env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def zero_solves(config):
    for key in ("solves", "ns_per_solve", "labels_per_sec",
                "labels_per_solve", "prune_ratio", "labels_peak",
                "arena_peak"):
        config[key] = 0


def slower(config):
    config["ns_per_solve"] *= 2


def slower_with_more_labels(config):
    slower(config)
    config["labels_peak"] += 1


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    gate, scratch = argv[1], argv[2]
    root = os.path.dirname(os.path.dirname(os.path.abspath(gate)))
    with open(os.path.join(root, "BENCH_dp.json")) as f:
        baseline = json.load(f)

    checks = [
        ("unedited copy", lambda c: None, 0, "perf_gate: PASS"),
        ("0 solves", zero_solves, 1, "ran no solves"),
        ("2x wall clock, same work", slower, 1,
         "counters match the baseline exactly"),
        ("2x wall clock, more labels", slower_with_more_labels, 1,
         "counters differ from the baseline"),
    ]
    failed = 0
    for name, edit, want_rc, want_text in checks:
        rc, out = run_gate(gate, baseline, scratch, edit)
        if rc != want_rc or want_text not in out:
            failed += 1
            print(f"FAIL {name}: exit {rc} (want {want_rc}), output "
                  f"{'lacks' if want_text not in out else 'has'} "
                  f"'{want_text}':\n{out}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
