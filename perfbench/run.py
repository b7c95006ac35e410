#!/usr/bin/env python3
"""Builds and runs one workload of the congest-hardness benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: report, sweep_mds, sim_flood. The script
builds the `experiments` binary and the benchmark package in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), prints one `machine` line
describing the host and the commit, then runs the workload. The last line
of stdout is the JSON result; build output and per-pass notes go to stderr.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("report", "sweep_mds", "sim_flood")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for extra in (["--bin", "experiments"], ["--manifest-path", "perfbench/Cargo.toml"]):
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *extra],
                       cwd=root, env=env, stdout=sys.stderr, check=True)


def read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine(root):
    """The host and commit a result was measured on."""
    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = read(index / "size")
    mem_kb = 0
    for line in read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            mem_kb = int(line.split()[1])
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    # The ceiling keeps git from searching directories above the checkout.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=git_env,
                              capture_output=True, text=True)
        commit = head.stdout.strip() if head.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "mem_total_mb": mem_kb // 1024,
        "rustc": rustc,
        "commit": commit,
    }


def main():
    args = parse_args()
    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        sys.exit("run.py: run from the repository root (no Cargo.toml or crates/ here)")
    target = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        build(root, target)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    scratch = target / "perfbench-scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    print("machine " + json.dumps(machine(root), sort_keys=True), flush=True)
    bench = subprocess.run([
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--experiments", str(target / "release" / "experiments"),
        "--scratch", str(scratch),
    ])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
