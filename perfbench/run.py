#!/usr/bin/env python3
"""Builds and runs the lgo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `lgo-perfbench` package from
source with cargo (offline) under `$CARGO_TARGET_DIR` (default
`.bench_build`). `--trace 0` builds and runs the untraced variant and prints
the end-to-end metrics. `--trace 1` also builds the `--features trace`
variant, runs it for the per-layer metrics, then runs the untraced variant
for the same budget, and reports the difference of their work time as
`trace_overhead_s`. The last stdout line is the result object; the lines
before it are the run records.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
REPO = BENCH.parent
WORKLOADS = ("profile-cohort", "defense-grid", "serve-stream")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not 1 <= args.seconds <= 600:
        fail(f"--seconds {args.seconds} is outside 1..600")
    if args.seed < 0:
        fail("--seed must be non-negative")
    return args


def target_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(variant):
    """Builds one variant; returns the path of its executable."""
    out = target_dir() / variant
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH / "Cargo.toml"),
    ]
    if variant == "traced":
        cmd += ["--features", "trace"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(out))
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"building the {variant} variant failed: {e}")
    if done.returncode != 0:
        fail(f"building the {variant} variant failed (cargo exit {done.returncode})")
    return out / "release" / "lgo-perfbench"


def revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    roots = [REPO / "Cargo.toml", REPO / "src", REPO / "crates", REPO / "vendor", BENCH]
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files += [f for f in root.rglob("*") if f.is_file()]
    for f in sorted(files):
        h.update(str(f.relative_to(REPO)).encode())
        h.update(f.read_bytes())
    return "source-" + h.hexdigest()[:16]


def run(exe, args, trace, rev):
    """Runs one benchmark process; returns (record lines, result object)."""
    cmd = [
        str(exe), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    env = dict(os.environ, LGO_PERFBENCH_REVISION=rev)
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{args.workload} run failed: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} run exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"{args.workload} printed no result: {e}")
    return lines[:-1], result


def record_field(lines, key):
    for line in lines:
        try:
            value = json.loads(line).get("record", {}).get(key)
        except (json.JSONDecodeError, AttributeError):
            continue
        if value is not None:
            return value
    fail(f"run record has no {key}")


def main():
    args = parse_args()
    if not (REPO / "Cargo.toml").is_file() or not (REPO / "crates").is_dir():
        fail(f"no lgo sources next to the benchmark (looked in {REPO})")
    plain = build("plain")
    rev = revision()

    if args.trace == 0:
        records, result = run(plain, args, 0, rev)
    else:
        records, result = run(build("traced"), args, 1, rev)
        untraced_records, untraced = run(plain, args, 0, rev)
        overhead = float(record_field(records, "traced_work_s")) - untraced["metrics"]["work_s"]["value"]
        result["metrics"]["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        result["correct"] = result["correct"] and untraced["correct"]
        records += untraced_records
    for line in records:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
