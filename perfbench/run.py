#!/usr/bin/env python3
"""Build perfbench from source and run it.

    python3 perfbench/run.py --workload compile-corpus --seed 1 --seconds 40 --trace 0

Run from the root of the repository. The binary is built into
.bench_build/ with a Go build cache there too, so the run reads and writes
nothing outside the checkout but the Go toolchain itself; the Go
toolchain is never downloaded and no module is fetched. Building is not
timed: the benchmark measures its set-up inside the binary. The last line
of standard output is the result JSON; build output goes to standard
error. The exit code is the benchmark's, or 1 if the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOENV="off",
        GOTELEMETRY="off",
    )
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE,
        env=go_env(),
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # The binary accepts the same flags; Go's flag package takes both -x
    # and --x.
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
