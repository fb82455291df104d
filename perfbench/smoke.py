#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny simulation lengths.

Usage, from the repository root:

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json, at the default and the held-out
seed, in both modes: the run succeeds with no failed simulation and
emits exactly the metrics BENCHMARK.json names, each with its unit
(run.py refuses any other output). Then a run with a corrupted digest
must count failed simulations and report itself incorrect.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (run.py's constants and checks)

SCALE = "0.02"    # of each workload's instruction budget
SECONDS = "0.1"   # h2perfbench still makes its minimum repetitions


def bench_run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace),
           "--seconds", SECONDS, "--scale", SCALE, *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (" ".join(cmd[2:]),
                                          done.returncode, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    bench = run.load_benchmark()
    for w in bench["workloads"]:
        name = w["name"]
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            for trace in (0, 1):
                r = bench_run(name, seed, trace)
                if not r["correct"] or r["failed"]:
                    sys.exit("FAIL %s seed %d trace %d: %d of %d "
                             "simulations failed"
                             % (name, seed, trace, r["failed"],
                                r["attempted"]))
                print("ok   %-18s seed %-5d trace %d  %d simulations, "
                      "%d metrics" % (name, seed, trace, r["attempted"],
                                      len(r["metrics"])))
        r = bench_run(name, run.DEFAULT_SEED, 0, "--corrupt-digest")
        if r["correct"] or r["failed"] < 1:
            sys.exit("FAIL %s: a corrupted digest was not counted as a "
                     "failed simulation" % name)
        print("ok   %-18s corrupted digest -> %d failed"
              % (name, r["failed"]))
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
