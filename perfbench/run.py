#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload online_churn --seed 7 \
        --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call configures and
builds perfbench/ (Release, DCHECKs off) into .bench_build/perfbench; later
calls only re-check the build. Build output goes to stderr; stdout is the
benchmark's own report, whose last line is the result JSON object.

--self-test builds the unit tests of the benchmark's arithmetic, runs them,
then runs every workload in its seconds-long smoke configuration, traced and
untraced, and checks each result against BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; False on any failure."""
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def revision():
    """The git commit, with a digest of the sources when the work tree has
    uncommitted changes or there is no git repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            commit = "git " + head.stdout.strip()
            if not status.stdout.strip():
                return commit
            return commit + "-dirty " + source_digest()
    return source_digest()


def source_digest():
    """A digest of src/ and perfbench/."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256 " + digest.hexdigest()[:16]


def run_bench(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--revision", revision()]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, out


def result_of(out):
    """The result object on the last stdout line, or None."""
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def self_test():
    if not build(["perfbench", "perfbench_test"]):
        return 1
    test = os.path.join(BUILD, "perfbench_test")
    if not os.path.exists(test):
        log("self-test: perfbench_test not built (GTest missing)")
        return 1
    if subprocess.run([test], stdout=sys.stderr).returncode != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run_bench(workload, 3, 0.5, trace, smoke=True)
            result = result_of(out)
            ok = (code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1
                  and set(result["metrics"]) == want[trace])
            if not ok:
                failures += 1
                log(out)
                if result is not None:
                    got = set(result["metrics"])
                    log("missing %s, unexpected %s" % (
                        sorted(want[trace] - got), sorted(got - want[trace])))
            log("self-test %-14s trace=%d %s" % (
                workload, trace, "ok" if ok else "FAILED"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="ceiling on the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench"]):
        log("perfbench: build failed")
        return 1
    code, out = run_bench(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or result_of(out) is None:
        log(out)
        log("perfbench: run failed (exit %d)" % code)
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
