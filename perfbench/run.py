"""The a6k3 benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py          # every workload, untraced, one table

Run from the root of a checkout; the package is imported from ./src.  Each
run starts perfbench/worker.py in a fresh interpreter.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  Lines before it, starting with '#', give
the provenance and a readable report.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_all", "relabel_identify", "chartab_tower")
WORKER_TIMEOUT_S = 175
TAIL_BEYOND = 10
# Seconds that one speed slice (worker.speed_slice) takes at the reference speed.
REFERENCE_SLICE_S = 0.010


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile that
    leaves ten samples beyond it; with fewer than 20 samples, half of them."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 2)
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, beyond


def provenance(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "seed": seed,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def scaled(samples, slices) -> list[float]:
    """Samples rescaled to the reference host speed, each by the mean of the
    two speed slices taken just before and just after it."""
    return [x * REFERENCE_SLICE_S / ((a + b) / 2) for x, a, b in zip(samples, slices, slices[1:])]


def end_to_end(raw: dict) -> tuple[dict, list[str]]:
    """End-to-end values and report lines from a worker's raw samples.

    A timing sample is the mean operation time over one round-robin pass, so
    that every sample has the same mix of inputs; in cli_all a pass is one
    operation.  Every time is rescaled to the reference host speed."""
    passes = scaled(raw["passes"], raw["pass_slices"])
    setup = scaled(raw["setup_s"], raw["setup_slices"])
    value, pct, beyond = tail(passes)
    values = {
        "wall_s": statistics.median(passes),
        "wall_s_tail": value,
        "ops_per_s": 1 / statistics.fmean(passes),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    notes = [
        f"wall_s_tail is p{pct:.1f} of {len(passes)} pass samples, {beyond} beyond it",
        f"setup_s is the median of {len(setup)} set-ups",
        f"speed slice median {statistics.median(raw['pass_slices']):.6f} s"
        f" (reference {REFERENCE_SLICE_S} s)",
        f"unscaled wall_s = {statistics.median(raw['passes']):.6g} s,"
        f" setup_s = {statistics.median(raw['setup_s']):.6g} s",
    ]
    return values, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    args = [sys.executable, str(HERE / "worker.py"), name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        args.append("--trace")
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: worker exited with status {proc.returncode}")
    raw = json.loads(proc.stdout.splitlines()[-1])
    if raw["tracer_imported"] != trace:
        raise SystemExit(f"{name}: tracer imported={raw['tracer_imported']} in a run with trace={trace}")
    for error in raw["errors"]:
        print(f"{name}: failed operation:\n{error}", file=sys.stderr)

    attempted = len(raw["ops"])
    failed = sum(1 for _, _, ok in raw["ops"] if not ok)
    if trace:
        values = raw["layer"]
        notes = [f"spans written to {raw['trace_file']}"]
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(raw)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"{name}: no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print("# provenance " + json.dumps(dict(provenance(seed), workload=name, seconds=seconds, trace=trace)))
    for key, m in metrics.items():
        print(f"# {name} {key} = {m['value']:.6g} {m['unit']}")
    print(f"# {name} ops = {attempted}, fail_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    for note in notes:
        print(f"# {name} {note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="a6k3 benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: src/ verifies with assert", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "a6k3" / "__init__.py").is_file():
        print(f"no a6k3 sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 1
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.workload:
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec)
        print(json.dumps(result))
        return 0
    results = {w: run_workload(w, args.seed, seconds, bool(args.trace), spec) for w in WORKLOADS}
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
