#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py [--workload serve_warm|serve_cold|datalog_batch|all]
                             --seed 1 [--seconds 40] [--trace 0|1]

Run from the root of a checkout. Builds the shipped `lambdav` binary and
the `perfbench` binary (release profile, offline, into CARGO_TARGET_DIR,
default `.bench_build`), then runs one workload, or all three in turn
(`BENCHMARK.json` gates `serve_warm` and `datalog_batch`; `serve_cold`
is run by hand, see METRICS.md).
Build output goes to stderr; the last stdout line of each workload is its
JSON result. Spans and result records land in `.bench_out/`. Exits
non-zero without a result when a build fails, e.g. in a directory holding
only the benchmark.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["serve_warm", "serve_cold", "datalog_batch"]


def build(root, target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest), *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    return subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode == 0


def output_of(cmd, root):
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"],
                    help="one workload, or all three in turn (the default)")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    bench = Path(__file__).resolve().parent
    target = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not (root / "Cargo.toml").is_file():
        print("perfbench: no Cargo.toml here; run from the root of a checkout", file=sys.stderr)
        return 2
    if not build(root, target, root / "Cargo.toml", "--bin", "lambdav"):
        print("perfbench: building lambdav failed", file=sys.stderr)
        return 3
    if not build(root, target, bench / "Cargo.toml"):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 3

    context = [
        "--rustc", output_of(["rustc", "--version"], root),
        "--git-rev", output_of(["git", "rev-parse", "HEAD"], root),
    ]
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [
            str(target / "release" / "perfbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--lambdav", str(target / "release" / "lambdav"),
            "--out", str(root / ".bench_out"),
            *context,
        ]
        code = subprocess.run(cmd, cwd=root).returncode
        if code != 0:
            return code
    return 0

if __name__ == "__main__":
    sys.exit(main())
