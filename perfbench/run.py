#!/usr/bin/env python3
"""Build the service benchmark from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0

It builds cmd/privclusterd, cmd/shardserver and the perfbench command into
.bench_build/bin, keeping the Go build cache and every temporary file under
.bench_build, then runs perfbench with the given arguments. Build output goes
to standard error; the benchmark's last line of standard output is its JSON
result. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.exit("perfbench: run from the repository root (no go.mod here)")
    env = dict(os.environ)
    for name, sub in [("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                      ("GOMODCACHE", "gopath/pkg/mod"), ("TMPDIR", "tmp"),
                      ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")]:
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    env.update({"GOTOOLCHAIN": "local", "GOPROXY": "off", "GOFLAGS": "-mod=mod",
                "GOWORK": "off", "GOTELEMETRY": "off", "CGO_ENABLED": "0"})
    bin_dir = os.path.join(build, "bin")
    os.makedirs(bin_dir, exist_ok=True)
    steps = [
        (root, ["go", "build", "-o", bin_dir, "./cmd/privclusterd", "./cmd/shardserver"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", os.path.join(bin_dir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    args = [os.path.join(bin_dir, "perfbench"), "--bin", bin_dir,
            "--work", os.path.join(build, "work")] + sys.argv[1:]
    # Replace this process, so that whoever stops the benchmark stops perfbench.
    os.execve(args[0], args, env)


if __name__ == "__main__":
    main()
