#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (the SP-Cache libraries, the two daemons and the benchmark
binary) from source into .bench_build/perfbench, runs one workload, and
forwards the binary's output. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 its metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
Exits 0 only when the run was correct. See perfbench/README.md.
"""
import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must finish within 180 s of being started; the benchmark binary gets
# what is left after the build, minus a margin for teardown.
RUN_BUDGET_S = 172
PR_SET_CHILD_SUBREAPER = 36


def fail(msg, code=1):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    return code


def sources_present():
    needed = [os.path.join(ROOT, "src", "CMakeLists.txt"),
              os.path.join(ROOT, "tools", "spcache_masterd.cpp"),
              os.path.join(ROOT, "tools", "spcache_serverd.cpp")]
    return all(os.path.isfile(p) for p in needed)


def configured_for_here():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == os.path.realpath(HERE)
    return False


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not configured_for_here():
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                return False
    return True


def git_provenance():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode != 0:
            return "unknown", "unknown"
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=10)
        return sha.stdout.strip(), "1" if status.stdout.strip() else "0"
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def reap_all(deadline_s):
    """Reap every child left, including orphans re-parented to us."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def run(args):
    started = time.monotonic()
    if not sources_present():
        return fail("no SP-Cache sources next to perfbench/ (src/, tools/); nothing to build", 2)
    if not build():
        return fail("build failed (log in .bench_build/build.log)")
    sha, dirty = git_provenance()
    workdir = os.path.join(BUILD_ROOT, "runs")
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--bindir", BUILD,
           "--workdir", workdir, "--git-sha", sha, "--git-dirty", dirty]
    if args.trace:
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]

    # Orphaned grandchildren (the daemons) re-parent to us, so the finally
    # block can reap them whatever happened to the benchmark binary.
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    lines = []
    try:
        budget = max(10.0, RUN_BUDGET_S - (time.monotonic() - started))
        try:
            out, _ = child.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            return fail(f"run exceeded {budget:.0f} s")
        lines = out.splitlines()
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        reap_all(10.0)
        # The benchmark binary removes its own run directory; this catches one
        # left by a binary that was killed.
        shutil.rmtree(workdir, ignore_errors=True)

    result_line = lines[-1] if lines else ""
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(result_line)
    except json.JSONDecodeError:
        if result_line:
            print(result_line)
        return fail(f"benchmark binary exited {child.returncode} without a result")
    if set(result) != RESULT_KEYS:
        return fail(f"result has keys {sorted(result)}")
    want = expected_metrics(args.trace)
    if set(result["metrics"]) != want:
        return fail("metrics differ from BENCHMARK.json: missing "
                    f"{sorted(want - set(result['metrics']))}, extra "
                    f"{sorted(set(result['metrics']) - want)}")
    print(result_line, flush=True)
    return child.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    def on_term(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_term)

    if args.selftest:
        if not sources_present():
            return fail("no SP-Cache sources next to perfbench/", 2)
        if not build():
            return fail("build failed (log in .bench_build/build.log)")
        return subprocess.run([os.path.join(BUILD, "perfbench"), "--selftest"]).returncode
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    return run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(fail("interrupted", 130))
