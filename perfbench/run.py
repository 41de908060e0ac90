#!/usr/bin/env python3
"""Builds the engine and the benchmark program from source, then runs it.

    python3 perfbench/run.py --workload dense-extract --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root); run files go to .../perfbench-run. The
program's report and its final JSON line are relayed on standard output.
Exits non-zero, without a result line, when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        rc = subprocess.call(cmd, cwd=ROOT, stdout=sys.stderr,
                             stderr=sys.stderr)
        if rc != 0:
            log("build step failed (%d): %s" % (rc, " ".join(cmd)))
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    work_dir = os.path.join(target, "perfbench-run")
    if not build(build_dir):
        return 2
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workdir",
           os.path.relpath(work_dir, ROOT)] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
