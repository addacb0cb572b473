#!/usr/bin/env python3
"""Builds the benchmark driver from source, then runs one workload.

    python3 perfbench/run.py --workload <name> [--seed <n>] --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the onion library plus the driver) under $CARGO_TARGET_DIR,
default .bench_build; later calls only re-check the build. The driver's
stdout is passed through, so the last line is the JSON result. Workloads,
metrics and their rationale are in perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 840  # a cold build; an up-to-date check takes a second
RUN_BUDGET_S = 170     # everything after the build


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(command, timeout, stdout=None):
    """Runs `command` in its own process group. On timeout, or when this
    script is interrupted, kills the whole group (a build's compiler
    processes too) and waits for it. Returns the exit code, or None on
    timeout."""
    child = subprocess.Popen(command, stdout=stdout, start_new_session=True)
    try:
        return child.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return None
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "engine.hpp")):
        fail(f"no onion sources under {ROOT}/src; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--parallel", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        code = run_group(step, deadline - time.monotonic(), stdout=sys.stderr)
        if code is None:
            fail("build timed out")
        if code != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="see perfbench/README.md; the driver rejects "
                             "unknown names")
    parser.add_argument("--seed", type=lambda s: int(s, 0),
                        help="workload seed (default: the pinned seed, whose "
                             "golden fingerprints are then checked)")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds through run_group, which then stops its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if (args.seed is not None and args.seed < 0) or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)

    command = [binary, "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", ROOT, "--work", work]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    code = run_group(command, RUN_BUDGET_S)
    if code is None:
        fail(f"{args.workload} overran {RUN_BUDGET_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
