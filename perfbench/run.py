#!/usr/bin/env python3
"""Build the GQ benchmark (gq_perfbench) from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload contain --seed 1 --seconds 10 --trace 0

gq_perfbench is compiled into the build directory named by CARGO_TARGET_DIR
(default: .bench_build); build output goes to stderr so that the last line
of standard output is its JSON result. Every file the run writes
stays under that build directory, and its per-run scratch directory is
removed on exit.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    if not os.path.isfile(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "gq_perfbench", "-j2"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "gq_perfbench")


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(bench_dir, build_dir)
    scratch = os.path.join(build_dir, f"scratch-{os.getpid()}")
    spans = os.path.join(build_dir, "spans")
    cmd = [binary, *sys.argv[1:], "--scratch", scratch, "--spans-dir", spans]
    try:
        # On timeout this kills gq_perfbench; its iteration processes die
        # with it (they are started with PR_SET_PDEATHSIG).
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = 3
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
