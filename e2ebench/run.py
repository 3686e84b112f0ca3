#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload ace-sfi|serve-job \
        --seed N --seconds S --trace 0|1

Builds the `sim-serve` binary (repository workspace) and the `e2ebench`
harness (its own package in this directory) in release mode, with the
repository's `[profile.release]` settings applied to the harness too, into
`$CARGO_TARGET_DIR` (default `.bench_build`). Then runs the harness, which
prints progress lines and, as its last line, one JSON object. This script
checks that the object names exactly the metrics BENCHMARK.json lists for
the chosen mode, and exits non-zero if the build, the run or that check
fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

WORKLOADS = ("ace-sfi", "serve-job")


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def release_profile_env(cargo_toml):
    """CARGO_PROFILE_RELEASE_* variables mirroring the repository's
    `[profile.release]` table, so the harness compiles the simulator
    crates exactly as the workspace does."""
    env, in_release = {}, False
    for line in open(cargo_toml, encoding="utf-8"):
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            in_release = line == "[profile.release]"
            continue
        m = re.fullmatch(r'([A-Za-z0-9_-]+)\s*=\s*"?([^"]*)"?', line)
        if in_release and m:
            key = m.group(1).upper().replace("-", "_")
            env[f"CARGO_PROFILE_RELEASE_{key}"] = m.group(2)
    return env


def build(args, env):
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        print(proc.stdout[-4000:], file=sys.stderr)
        fail(f"cargo build {' '.join(args)} failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    opts = ap.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the root of a full checkout ({needed} is missing)")
    spec = json.load(open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if opts.trace == "1" else "end_to_end"]}

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["-p", "sim-serve", "--bin", "sim-serve"], env)
    env.update(release_profile_env(os.path.join(root, "Cargo.toml")))
    build(["--manifest-path", os.path.join("e2ebench", "Cargo.toml")], env)

    harness = [
        os.path.join(target, "release", "e2ebench"),
        "--workload", opts.workload,
        "--seed", str(opts.seed),
        "--seconds", str(opts.seconds),
        "--trace", opts.trace,
        "--work-dir", os.path.join(root, ".e2ebench_work"),
        "--serve-bin", os.path.join(target, "release", "sim-serve"),
    ]
    proc = subprocess.Popen(harness, stdout=subprocess.PIPE, text=True)
    last = ""
    for line in proc.stdout:
        if last:
            print(last, flush=True)
        last = line.rstrip("\n")
    if proc.wait() != 0:
        fail(f"harness exited {proc.returncode}")
    result = json.loads(last)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(wanted.items()))}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
