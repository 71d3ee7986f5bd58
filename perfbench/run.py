#!/usr/bin/env python3
"""Simulator benchmark entry point.

Builds the benchmark project (perfbench/CMakeLists.txt, Release) into
.bench_build at the root of the checkout, then runs one benchmark run:

    python3 perfbench/run.py --workload benign --seed 1 --seconds 30 --trace 0

Workloads are benign, attack and grid4ch (see perfbench/README.md).
The last line of standard output is the run's JSON result; build output
goes to standard error. `--trace 1` also writes the run's spans as a
Chrome trace to .bench_build/spans-<workload>-<seed>.json.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's self-tests instead.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    """Configure (once) and build `target`; build output to stderr."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def option(args, name):
    """Value following `name` in args, or None."""
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main(argv):
    args = argv[1:]
    for needed in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print("perfbench: the simulator sources (%s) are missing next "
                  "to perfbench/" % needed, file=sys.stderr)
            return 2

    if args == ["--selftest"]:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.call([os.path.join(BUILD, "perfbench_selftest")],
                               cwd=ROOT)

    if not build("bh_perfbench"):
        return 2
    cmd = [os.path.join(BUILD, "bh_perfbench"),
           "--ref", os.path.join(HERE, "ref")] + args
    if option(args, "--trace") == "1":
        spans = "spans-%s-%s.json" % (option(args, "--workload"),
                                      option(args, "--seed"))
        cmd += ["--spans", os.path.join(BUILD, spans)]
    # Fixed malloc thresholds: 12 MB arrays come from the heap, which
    # is never trimmed. With glibc's adaptive thresholds, whether freed
    # arrays went back to the kernel depended on the heap's layout, so
    # peak RSS read ~26 or ~31 MB for the same benign run depending on
    # how the process was started.
    env = dict(os.environ)
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + [
        "glibc.malloc.mmap_threshold=33554432",
        "glibc.malloc.trim_threshold=1073741824"])
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
