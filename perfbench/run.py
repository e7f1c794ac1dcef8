#!/usr/bin/env python3
"""Build and run the simtomp benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the simtomp libraries and the
benchmark into .bench_build/perfbench (CMake, RelWithDebInfo); later
calls only re-check the build. Build output goes to stderr, so the
benchmark's stdout -- a "detail" line and, last, the result JSON --
passes through unchanged. The exit code is the benchmark's: 0 when
every correctness gate held, 1 when one failed, 2 on a usage error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper-sweep", "checked-sweep", "serve-mixed")
RUN_TIMEOUT_S = 175


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # Configure again next time instead of building a broken tree.
            cache = os.path.join(BUILD, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            log("configure failed")
            return False
    make = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
            "perfbench_selftest"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def run(cmd, timeout):
    """Run cmd, passing its stdout through; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("timed out after %d s: %s" % (timeout, " ".join(cmd)))
        return 1, ""
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode, out


def selftest():
    """C++ self-tests, a planted failure through the binary, and the
    BENCHMARK.json catalog check."""
    failures = 0
    code, _ = run([os.path.join(BUILD, "perfbench_selftest")], 600)
    failures += code != 0

    for workload in ("paper-sweep", "serve-mixed"):
        proc = subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--workload", workload,
             "--seed", "5", "--seconds", "1", "--trace", "0",
             "--setup-reps", "1", "--plant-wrong-output", "1"],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = (proc.returncode == 1 and result["correct"] is False
              and result["failed"] == 1 and result["attempted"] > 1)
        print("%s %s: planted wrong output exits 1 with failed=1"
              % ("ok  " if ok else "FAIL", workload))
        failures += not ok

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    catalog = json.loads(subprocess.run(
        [os.path.join(BUILD, "perfbench"), "--list-metrics"],
        capture_output=True, text=True, check=True).stdout)
    checks = [
        ("workloads", sorted(w["name"] for w in spec["workloads"]),
         sorted(WORKLOADS)),
        ("end_to_end",
         [(m["name"], m["unit"], m["better"], m["bound"])
          for m in spec["end_to_end"]],
         [(m["name"], m["unit"], m["better"], m["bound"])
          for m in catalog["end_to_end"]]),
        ("per_layer",
         [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
         [(m["name"], m["unit"], m["better"]) for m in catalog["per_layer"]]),
    ]
    for name, got, want in checks:
        ok = got == want
        print("%s BENCHMARK.json %s matches the benchmark's catalog"
              % ("ok  " if ok else "FAIL", name))
        failures += not ok
    print("%s: %d failure(s)" % ("PASS" if failures == 0 else "FAIL", failures))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not build():
        return 1
    if args.selftest:
        return selftest()

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%d.jsonl" % (args.workload,
                                                         args.seed))]
    code, _ = run(cmd, RUN_TIMEOUT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())
