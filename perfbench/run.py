#!/usr/bin/env python3
"""Build h2perfbench and run one workload of BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--scale F] [--corrupt-digest]

The benchmark program (perfbench/h2perfbench.cc) is built from the
sources of the checkout it sits in, as a Release build under
.bench_build/. The last
line printed is the result object; the line before it is a stamp with
the host, the build and the run parameters. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
--scale and --corrupt-digest are for perfbench/smoke.py.

Exit codes: 0 result printed; 2 bad arguments or build failure;
3 h2perfbench failed or timed out; 4 its output does not match
BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
DEFAULT_SEED = 42     # the seed the golden snapshots use
HELD_OUT_SEED = 2020  # for checking claims made while tuning on 42
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; build output goes to
    stderr so stdout carries only the stamp and the result."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "h2perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(2, "build step failed: %s" % e)
        if done.returncode != 0:
            fail(2, "build step failed (exit %d): %s"
                 % (done.returncode, " ".join(cmd)))
    return os.path.join(BUILD_DIR, "h2perfbench")


def source_digest():
    """sha256 over the simulator and benchmark sources, for checkouts
    that carry no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def check_result(result, expected):
    """The result must carry exactly the expected metrics, each with the
    unit BENCHMARK.json names."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "wrong unit %s" % (missing, extra, wrong)
    return None


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--corrupt-digest", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail(2, "--seed must be non-negative")

    program = build()
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale)]
    if args.corrupt_digest:
        cmd.append("--corrupt-digest")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, "h2perfbench timed out after %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail(3, "h2perfbench exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    try:
        stamp = json.loads(lines[-2])["stamp"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as e:
        fail(4, "unreadable h2perfbench output: %s" % e)
    if stamp.get("build_type") != BUILD_TYPE:
        fail(4, "h2perfbench is a %s build; results come from %s builds only"
             % (stamp.get("build_type"), BUILD_TYPE))
    expected = bench["per_layer" if args.trace else "end_to_end"]
    problem = check_result(result, expected)
    if problem:
        fail(4, problem)

    stamp.update({
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "held_out_seed": HELD_OUT_SEED,
    })
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
