#!/usr/bin/env python3
"""Build the perfbench command from this checkout and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-base --seed 1 --seconds 25 --trace 0

The Go build cache, the binary and a traced run's output all live under
.bench_build/ in the checkout, so nothing is read from or written to the
user's Go caches. The benchmark module imports the repository's packages
through a `replace repro => ../` directive; outside a full checkout the
build fails and this script exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "go-cache"),
        "GOMODCACHE": os.path.join(OUT, "go-mod"),
        "GOPATH": os.path.join(OUT, "go-path"),
        "GOTMPDIR": os.path.join(OUT, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
