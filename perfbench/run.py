#!/usr/bin/env python3
"""Build the pacsim benchmark executable and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Configures and builds perfbench/ (which compiles the simulator from src/)
into .bench_build/perfbench under the repository root, then runs the
`perfbench` executable from the root. The executable's last line of
standard output is the JSON result; see perfbench/README.md for the
workloads and metrics. The exit code is non-zero when the build fails, a
run fails or diverges from its reference, or the run exceeds its time
limit.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# A run must finish within 180 s; leave room for the incremental build.
RUN_TIMEOUT_S = 170


def build():
    """Build perfbench; return its path, or None after reporting why not."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = [["cmake", "--build", BUILD, "--target", "perfbench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                break
        else:
            return os.path.join(BUILD, "perfbench")
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-30:]))
    sys.stderr.write(f"run.py: build failed, see {log_path}\n")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a quick size, both passes")
    args = parser.parse_args()
    if args.smoke:
        bench_args = ["--smoke"]
    elif None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    else:
        bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]

    exe = build()
    if exe is None:
        return 1
    cmd = [exe, *bench_args, "--forensics", os.path.join(BUILD, "forensics")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: no result within {RUN_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
