#!/usr/bin/env python3
"""Build the adaptmr benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload sort-2x4 --seed 1 --seconds 20 --trace 0

Every Go build artifact (the binary, the build cache, module and
telemetry state) stays under .bench_build/ at the repository root. The
exit code is the benchmark's; a failed build exits 1 without printing a
result line.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "perfbench", "perfbench")

# A run ends well inside the caller's 180-second limit.
RUN_TIMEOUT_S = 175


def main():
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-buildvcs=false",
        "GOPROXY": "off",
        "PERFBENCH_GO": go,
    })
    os.makedirs(os.path.dirname(EXE), exist_ok=True)
    build = subprocess.run([go, "build", "-o", EXE, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
