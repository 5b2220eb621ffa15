#!/usr/bin/env python3
"""Build the host-time benchmark and run it.

Run from the repository root:

    python3 perfbench/run.py --workload coll-a100 --seed 1 --seconds 30 --trace 0

The Go build cache, temporary files and the binary go to .bench_build/ in
the current directory, so the benchmark reads and writes only inside the
checkout. After a successful build the script replaces itself with the
benchmark binary, passing the arguments unchanged, so the binary's exit code
is the command's exit code and no process is left behind.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    pkg = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench")
    for d in ("gocache", "gotmp", "gopath"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "gotmp"),
        GOPATH=os.path.join(out, "gopath"),
        GOFLAGS="",
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=pkg, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
