#!/usr/bin/env python3
"""Build the host-speed benchmark from source and run it.

Usage (from the repository root):

    python3 hostbench/run.py --workload stream-sched --seed 1 --seconds 20 --trace 0

Every build and run artefact (Go build cache, binary, scratch cache
directories, Chrome traces) stays under .bench_build/ in the current
directory. The arguments are passed to the benchmark binary unchanged.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build")


def main():
    src = os.path.join(ROOT, "hostbench")
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("hostbench: run from the repository root (no go.mod here)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
        XDG_CACHE_HOME=os.path.join(OUT, "cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        CGO_ENABLED="0",
    )
    binary = os.path.join(OUT, "hostbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=src, env=env,
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execve(binary, [binary, "-root", ROOT] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
