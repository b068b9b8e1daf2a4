#!/usr/bin/env python3
"""Serving benchmark of the CFSF repository.

Builds `cfsf_cli` and the load generator from this checkout (Release, into
$CARGO_TARGET_DIR or .bench_build), then drives one workload against
`cfsf_cli serve` over loopback:

  python3 bench/perfbench/run.py --workload zipf --seed 1 --seconds 30 --trace 0
  python3 bench/perfbench/run.py --self-test

The last line of standard output is the JSON result.  NOTES.md describes
the workloads, their phases and every metric.
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# Every run must end within 180 s; the build of a fresh checkout is
# allowed longer and is not counted against this.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once and builds the three targets; returns their paths."""
    for needed in ("CMakeLists.txt", "src", os.path.join("tools", "cfsf_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(os.path.join(build_dir, "perfbench.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ROOT, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "hook.cmake"),
                          "-DCFSF_BUILD_TESTS=OFF", "-DCFSF_BUILD_BENCH=OFF",
                          "-DCFSF_BUILD_EXAMPLES=OFF"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                      "cfsf_cli", "perfbench_loadgen", "perfbench_selftest"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail(f"build failed; see {log_path}")
    return (os.path.join(build_dir, "tools", "cfsf_cli"),
            os.path.join(build_dir, "perfbench", "perfbench_loadgen"),
            os.path.join(build_dir, "perfbench", "perfbench_selftest"))


def run_group(argv, timeout):
    """Runs argv in its own process group so that a timeout or a signal
    stops the generator and every server it started."""
    proc = subprocess.Popen(argv, start_new_session=True)

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(2)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    cli, loadgen, selftest = build(build_dir)
    if args.self_test:
        sys.exit(run_group([selftest], RUN_TIMEOUT_S))

    work_dir = os.path.join(build_dir, "perfbench-work",
                            f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    sys.stdout.flush()
    sys.exit(run_group([loadgen, "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--cli", cli,
                        "--work-dir", work_dir,
                        "--out-dir", os.path.join(build_dir, "perfbench-out")],
                       RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
