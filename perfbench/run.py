#!/usr/bin/env python3
"""Builds and runs the DexLego end-to-end benchmark.

    python3 perfbench/run.py --workload market_batch --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which builds the dexlego library from this checkout's
sources) in Release mode under .bench_build/, then runs the dexbench binary.
The binary's last stdout line is the result JSON; every other argument is
passed through (see perfbench/README.md). Exits non-zero, without a result,
when the repository sources are not next to perfbench/.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "dexbench")
RUN_TIMEOUT_S = 175


def jobs():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no repository sources (CMakeLists.txt, src/) "
                 "next to perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs())],
                   check=True, stdout=sys.stderr)


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    workdir = os.path.join(BUILD_ROOT, "work")
    command = [BINARY, *argv]
    if "--workdir" not in argv:
        command += ["--workdir", workdir]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
