#!/usr/bin/env python3
"""Build lzwtc's end-to-end benchmark from source and run it.

Run from the repository root, for example:

    python3 perfbench/run.py --workload paper_local --seed 1 --seconds 15 --trace 0

Every file the build and the run write goes under .bench_build/ in the
current directory: the Go build cache, the go command's own state, the
binary and the traced run's span files. The arguments are passed to the benchmark unchanged.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        # The go command keeps its telemetry counters under the user
        # config directory; keep those inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    here = os.path.dirname(os.path.abspath(__file__))
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
