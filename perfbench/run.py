#!/usr/bin/env python3
"""rtft end-to-end benchmark: build the program, then run one workload.

Builds the benchmark (and the rtft library from this checkout's sources)
into .bench_build/ at the checkout root, then runs one workload:

    python3 perfbench/run.py --workload sweep-pinned --seed 1 --seconds 20 --trace 0

The last line of stdout is the JSON result. Build output goes to stderr.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests instead.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def fail(msg, code=2):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no rtft sources at {ROOT}: the benchmark builds the program from source")
    jobs = str(max(1, min(2, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", target])
    for cmd in steps:
        # stdout of the build goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return BUILD / target


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        binary = build("rtft_e2e_selftest")
        sys.stdout.flush()
        os.execv(str(binary), [str(binary)])
    binary = build("rtft_e2e")
    sys.stdout.flush()
    # exec: the benchmark replaces this process, so nothing is left behind.
    os.execv(str(binary), [str(binary)] + args)


if __name__ == "__main__":
    main()
