#!/usr/bin/env python3
"""Builds the benchmark if needed and runs one workload once.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--report FILE]
    python3 benchmark/run.py --build-only

Run it from anywhere inside a full checkout. The build (the repository
with its own default flags, plus the load generator) lives in
.bench_build/ at the root of the checkout and is reused by later runs;
its log is .bench_build/build.log. The last line of standard output is
the run's result as one JSON object; the exit status is 0 only when
every answer the benchmark checked was correct.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
WORKLOADS = ("tpcd_remote", "setquery_hot", "tpcd_refresh")


def build():
    """Configures (once) and builds watchmand and the load generator."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: no repository sources beside benchmark/; "
                 "run from a full checkout")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B",
                      str(CMAKE_DIR)])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                  "watchman_bench", "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"run.py: build failed; see {log_path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=9601)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--report", help="also write the result, with "
                        "sample counts and run facts, to this file")
    parser.add_argument("--build-only", action="store_true")
    args = parser.parse_args()
    if not args.build_only and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    if args.build_only:
        return 0
    command = [str(CMAKE_DIR / "watchman_bench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--daemon", str(CMAKE_DIR / "watchman" / "watchmand"),
               "--workdir", str(BUILD / "work")]
    if args.report:
        command += ["--report", str(Path(args.report).resolve())]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
