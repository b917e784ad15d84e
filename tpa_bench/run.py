#!/usr/bin/env python3
"""Benchmark entry point: builds tpa_bench and runs one workload.

    python3 tpa_bench/run.py --workload prove --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. The first run configures and builds the
driver into .bench_build/ (or $CARGO_TARGET_DIR); later runs only check that
the build is up to date.

--trace 0 reports the end-to-end metrics: `setup_s`, the median wall time of
ten cold starts of the driver that each run the workload's smallest job to a
checked verdict (five before the measuring run and five after), then
`verdict_norm_s` and `peak_rss_mb` from one untraced measuring run. Times are
normalized by a host-speed probe the driver runs next to the work (see
tpa_bench/README.md). --trace 1 runs the traced variant instead and reports the
per-layer metrics; its spans go to .bench_build/traces/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units are checked against
BENCHMARK.json. --out FILE also writes that object, plus workload, seed and
trace, for tpa_bench/compare_runs.py. The exit code is 0 only when every
check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 5  # cold starts before the measuring run, and again after
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build(build_dir):
    """Configures once, then brings the driver up to date; returns its path."""
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir] + gen,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "tpa_bench",
                    "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "tpa_bench")


def invoke(cmd):
    """Runs the driver; echoes its report and returns its result object."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip().splitlines()
    if not lines:
        raise RuntimeError(f"{cmd[0]} printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("failed", 0) == 0:
        raise RuntimeError(f"{cmd[0]} exited with {proc.returncode}")
    return result


def check_names(metrics, expected):
    units = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != units:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"missing {sorted(set(units) - set(got))}, "
                           f"extra {sorted(set(got) - set(units))}")


def write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    exe = build(build_dir)
    runs_dir = os.path.join(build_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=args.workload + "-", dir=runs_dir)
    base = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
            f"--scratch={scratch}", f"--seconds={args.seconds}"]
    attempted = failed = 0
    try:
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            spans = os.path.join(
                traces, f"{args.workload}-seed{args.seed}.spans.jsonl")
            result = invoke(base + [f"--trace={spans}"])
            print(f"  spans: {spans}")
            expected = bench["per_layer"]
        else:
            setups = []

            def cold_starts():
                nonlocal attempted, failed
                for _ in range(SETUP_REPS):
                    t0 = time.perf_counter()
                    r = invoke(base + ["--setup"])
                    setups.append((time.perf_counter() - t0) *
                                  r["nominal_probe_us"] / r["setup_probe_us"])
                    attempted += r["attempted"]
                    failed += r["failed"]

            cold_starts()
            result = invoke(base)
            cold_starts()
            result["metrics"]["setup_s"] = {
                "value": statistics.median(setups), "unit": "s"}
            setup_s = result["metrics"]["setup_s"]["value"]
            print(f"  {'setup_s':34} {setup_s!r} s")
            expected = bench["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted += result["attempted"]
    failed += result["failed"]
    check_names(result["metrics"], expected)
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": result["metrics"]}
    print(f"  {args.workload}: {result['samples']} job samples over "
          f"{result['jobs']} jobs, {result['threads']} explorer thread(s), "
          f"nproc {result['nproc']}, {attempted} checks, {failed} failed")
    if args.out:
        write_atomic(args.out, json.dumps(
            dict(workload=args.workload, seed=args.seed, trace=args.trace,
                 **out)) + "\n")
    print(json.dumps(out))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
