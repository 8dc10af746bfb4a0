#!/usr/bin/env python3
"""Build the xqbench benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 xqbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files, the binary, the reports and the spans
all live under .bench_build in the current directory. The benchmark's
exit code is passed through; a failed build exits non-zero without a
result line.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    work = os.path.join(os.getcwd(), ".bench_build")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    for key in ("GOFLAGS", "GOOS", "GOARCH", "CGO_ENABLED"):
        env.pop(key, None)
    env.update(
        GOCACHE=os.path.join(work, "gocache"),
        GOPATH=os.path.join(work, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(work, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
    )
    binary = os.path.join(work, "xqbench")
    try:
        build = subprocess.run(
            ["go", "build", "-buildvcs=false", "-o", binary, "."],
            cwd=HERE, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("xqbench: build failed:", err, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("xqbench: build failed", file=sys.stderr)
        return build.returncode or 1
    commit = "unknown"
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, env=env,
                             capture_output=True, text=True, timeout=10)
        if got.returncode == 0:
            commit = got.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    sys.stdout.flush()
    try:
        return subprocess.run([binary, "--out", work, "--commit", commit] + sys.argv[1:],
                              env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("xqbench: run exceeded 175 s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
