"""Measure the benchmark's baseline and write ``bench/baseline.json``.

Run from the repository root:

    python3 bench/baseline.py

For every workload it makes, one process at a time:

* one untraced run for each of the seeds 10-19, the way the benchmark's
  acceptance runs vary the seed.  Each end-to-end metric's median,
  quartiles and spread over these runs are recorded (``cross_seed``);
* ten untraced runs of the default seed 0, so that the spread is run-to-run
  noise on fixed inputs (``same_seed``);
* three traced runs of seed 0, for the per-layer medians and the tracing
  overhead: the traced runs' end-to-end medians minus the untraced ones.

The spread is the distance between the quartiles as a share of the median,
from ``statistics.quantiles(values, n=4)``.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import platform
import statistics
import sys

import run

run.import_program()

from workloads import WORKLOADS  # noqa: E402

BASELINE_PATH = os.path.join(run.HERE, "baseline.json")
SECONDS = 30.0  # run_seconds in BENCHMARK.json
CROSS_SEEDS = range(10, 20)
DEFAULT_SEED = 0
SAME_SEED_RUNS = 10
TRACED_RUNS = 3


def _run_child(workload: str, seed: int, trace: bool) -> dict:
    out = run.run_workload(workload, seed, SECONDS, trace, run.load_expected(seed, workload))
    del out["digests"]
    return out


def run_once(workload: str, seed: int, trace: bool) -> dict:
    """One run in a fresh interpreter, so its peak RSS is its own."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        out = pool.apply(_run_child, (workload, seed, trace))
    print("\n".join(out["summary"]), file=sys.stderr, flush=True)
    if not out["result"]["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {int(trace)} failed")
    return out


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def summarize_runs(runs: list[dict]) -> dict:
    return {
        "end_to_end": {k: summarize([r["end_to_end"][k] for r in runs]) for k in runs[0]["end_to_end"]},
        "unscaled_cpu": {k: summarize([r["unscaled"][k] for r in runs]) for k in runs[0]["unscaled"]},
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    out: dict = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seconds": SECONDS,
        "cross_seeds": list(CROSS_SEEDS),
        "default_seed": DEFAULT_SEED,
        "same_seed_runs": SAME_SEED_RUNS,
        "traced_runs": TRACED_RUNS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        cross = [run_once(workload, s, False) for s in CROSS_SEEDS]
        same = [run_once(workload, DEFAULT_SEED, False) for _ in range(SAME_SEED_RUNS)]
        traced = [run_once(workload, DEFAULT_SEED, True) for _ in range(TRACED_RUNS)]
        same_summary = summarize_runs(same)
        overhead = {
            key: statistics.median(r["end_to_end"][key] for r in traced) - stats["median"]
            for key, stats in same_summary["end_to_end"].items()
        }
        out["workloads"][workload] = {
            "cross_seed": summarize_runs(cross),
            "same_seed": same_summary,
            "per_layer": {
                key: statistics.median(r["result"]["metrics"][key]["value"] for r in traced)
                for key in traced[0]["result"]["metrics"]
            },
            "tracing_overhead": overhead,
        }
    with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
