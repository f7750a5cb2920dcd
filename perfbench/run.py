#!/usr/bin/env python3
"""Layered benchmark of the efd recognition daemon.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-10k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The first form runs one workload and prints, as the last line of standard
output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
`--workload all` runs every workload in turn, prints each metric with its
unit, and exits 1 if any reply disagreed with the oracle.

Both programs are built from source first (release, offline): the daemon
(`efd`, package efd-cli) and the benchmark client in this directory, into
$CARGO_TARGET_DIR, or .bench_build when it is unset. Generated inputs are
cached under .bench_work, keyed by workload and seed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["paper-10k", "keyspace-1m", "learn-mix"]


def build(root, here, env):
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "efd-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ):
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        sys.exit("perfbench: no efd sources next to perfbench/ (Cargo.toml, crates/)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(root, here, env)
    bench = os.path.join(target, "release", "efd-perfbench")
    efd = os.path.join(target, "release", "efd")
    work = os.path.join(root, ".bench_work")

    def run(workload):
        cmd = [bench, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--efd", efd, "--work", work]
        return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)

    if args.workload != "all":
        r = run(args.workload)
        sys.stdout.write(r.stdout)
        sys.exit(r.returncode)

    ok = True
    for workload in WORKLOADS:
        r = run(workload)
        if r.returncode != 0:
            print(f"{workload}: benchmark failed (exit {r.returncode})")
            ok = False
            continue
        res = json.loads(r.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:36} {m['value']:16.3f} {m['unit']}")
        ok = ok and res["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
