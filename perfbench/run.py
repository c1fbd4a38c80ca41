#!/usr/bin/env python3
"""Build the campaign benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload synth-paper --seed 1 --seconds 20 --trace 0

Every build product, cache and temporary file lives under .bench_build/
at the repository root, so a run reads and writes nothing outside the
checkout. The benchmark itself is the Go program in this directory (its
own module, importing the repository through a relative replace); the
last line it prints is the JSON result. See perfbench/LAYERS.md.
"""

import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    go = shutil.which("go") or os.path.join(os.environ.get("GOROOT", ""), "bin", "go")
    binary = os.path.join(build, "perfbench")
    res = subprocess.run([go, "build", "-buildvcs=false", "-o", binary, "."], cwd=here, env=env,
                         stdout=sys.stderr)
    if res.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return res.returncode or 1
    sys.stdout.flush()
    sys.stderr.flush()
    args = [binary, "-out", build] + sys.argv[1:]
    os.chdir(root)
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
