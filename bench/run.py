"""Benchmark for oblicon: CLI calls made in-process, timed end to end, with an
optional traced mode that reports per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload decide-large --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

The program is imported from ``src/`` next to this directory.  One client
runs a closed loop: each operation is one ``oblicon.cli.main`` call, the next
starts when the previous one returned.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a human-readable summary.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected_digests.json")

# Whole cycles over a workload's operations are measured, at least this many,
# so every call's median rests on at least this many repetitions.
MIN_CYCLES = 5
# Set-up is repeated and the median reported; cheap set-ups repeat until
# this many seconds (of wall time, probes included) are spent, so their
# median is not one noisy sample.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 100
SETUP_MIN_SECONDS = 1.0
TAIL_BEYOND = 10

# Times are CPU time of this process, which runs one thread and waits on
# nothing but a read of a cached file.  The host's speed still drifts by up
# to half within minutes, for CPU time as for wall time, as other tenants
# come and go.  So each timed interval is scaled by REF_SECONDS / (CPU time
# of reference_work(), averaged over the probe just before the interval and
# the next one after it).  Probes run between calls, outside any timed
# interval, at most every PROBE_INTERVAL_S, and before every repetition of
# set-up, which can be much shorter.  Per-layer times, sums over many calls,
# are scaled by the median of all the run's probes instead.  REF_SECONDS is
# the probe's typical CPU time on the shared 2-vCPU Intel Xeon virtual
# machine where the baseline was recorded, so reported times are seconds on
# that machine.
REF_SECONDS = 0.021
PROBE_INTERVAL_S = 0.5


class ProgramMissing(Exception):
    pass


def import_program():
    """Import ``oblicon`` from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "oblicon", "cli.py")):
        raise ProgramMissing(f"no oblicon sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import oblicon

    if os.path.dirname(os.path.dirname(os.path.abspath(oblicon.__file__))) != SRC:
        raise ProgramMissing(f"oblicon was imported from {oblicon.__file__}, not {SRC}")
    if HERE not in sys.path:
        sys.path.insert(0, HERE)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it, as
    (percentile, value).  With too few samples for that, the maximum (p100)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    i = len(xs) - 1 - beyond
    if i < 0:
        return 100.0, xs[-1]
    return 100.0 * (i + 1) / len(xs), xs[i]


def figures(per_call: list[float]) -> tuple[float, float, float, float]:
    """Throughput, median, tail percentile and tail of the latencies of a
    workload's distinct calls (one cycle through them).  With an even number
    of calls the median is the mean of the middle two, so on a workload of
    two calls both count."""
    tail_pct, tail = tail_percentile(per_call)
    return len(per_call) / sum(per_call), statistics.median(per_call), tail_pct, tail


def reference_work() -> int:
    """Fixed interpreter work of the program's kind: a dict keyed by tuples
    of small ints, grown to 12,000 entries, then sorted."""
    table: dict[tuple[int, int, int], int] = {}
    for i in range(12000):
        table[(i % 3, i % 1009, (i * 7) % 65537)] = len(table)
    return sum(1 for _, v in sorted(table.items()) if v & 1)


class Speed:
    """CPU times of the reference probe, taken through one run, and the
    scaling of timed intervals between them."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.last = -PROBE_INTERVAL_S
        reference_work()  # the first run in a process is slower

    def probe(self, force: bool = False) -> int:
        """Probe if due (or forced); return the index of the latest probe."""
        if force or time.perf_counter() - self.last >= PROBE_INTERVAL_S:
            t0 = time.process_time_ns()
            reference_work()
            self.samples.append(time.process_time_ns() - t0)
            self.last = time.perf_counter()
        return len(self.samples) - 1

    def seconds(self, ns: int, before: int) -> float:
        """Reference seconds for an interval timed after probe ``before``."""
        around = self.samples[before : before + 2]
        return ns * REF_SECONDS * len(around) / sum(around)

    def scale(self) -> float:
        """Reference seconds per CPU nanosecond over the whole run."""
        return REF_SECONDS / statistics.median(self.samples)


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------


def invoke(cli, argv: tuple[str, ...]) -> tuple[int | None, str, str, int]:
    """Call ``cli.main`` with stdout and stderr captured.  Returns the exit
    code (None if it raised), stdout, the error text and the CPU nanoseconds."""
    out, err = io.StringIO(), io.StringIO()
    rc: int | None = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.process_time_ns()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            print(f"SystemExit({exc.code})", file=sys.stderr)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.process_time_ns() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


def judge(op, rc, stdout, errtext, ctx, expected, seen) -> str | None:
    """The reason the operation's output is wrong, or None.

    Checks the workload's own assertions, the digest recorded from the seed
    commit for this seed (when there is one), and that the digest equals the
    one from the first, untraced cycle of this run.
    """
    if rc is None:
        return f"raised: {errtext.strip()}"
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not a JSON report ({exc}); stderr: {errtext.strip()}"
    if not isinstance(report, dict):
        return "stdout is not a JSON object"
    problem = op.check(rc, report, ctx)
    if problem:
        return problem
    if expected is not None:
        want = expected.get(op.label)
        if want is None:
            return "no recorded digest for this operation"
        if [rc, digest] != want:
            return f"exit {rc} sha256 {digest[:12]} differs from recorded exit {want[0]} sha256 {want[1][:12]}"
    first = seen.setdefault(op.label, (rc, digest))
    if first != (rc, digest):
        return "output differs from the first cycle of this run"
    return None


def load_expected(seed: int, workload: str) -> dict | None:
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        return None
    return recorded.get(str(seed), {}).get(workload)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_setup(workload, seed: int, workdir: str, speed: Speed):
    """Generate and write the documents, several times, each between two
    probes; returns the operations and the median set-up and generation
    seconds."""
    timed: list[tuple[int, int, int]] = []  # (set-up ns, generation ns, probe)
    t_start = time.perf_counter()
    while len(timed) < SETUP_MIN_REPS or (
        time.perf_counter() - t_start < SETUP_MIN_SECONDS and len(timed) < SETUP_MAX_REPS
    ):
        before = speed.probe(force=True)
        t0 = time.process_time_ns()
        ops, gen_ns = workload.setup(seed, workdir)
        timed.append((time.process_time_ns() - t0, gen_ns, before))
    speed.probe(force=True)
    setup_s = statistics.median(speed.seconds(ns, k) for ns, _, k in timed)
    gen_s = statistics.median(speed.seconds(ns, k) for _, ns, k in timed)
    return ops, setup_s, gen_s, len(timed)


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected: dict | None) -> dict:
    """Run one workload in this process.  Returns the result object, a
    summary, the end-to-end figures (also when traced), the same figures
    without the speed scaling, and the (exit code, stdout digest) of every
    operation.  Outputs are checked against ``expected`` digests unless it
    is None."""
    from oblicon import cli
    from tracing import Tracer, hooked, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = os.path.join(HERE, "_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        speed = Speed()
        ops, setup_s, gen_s, setup_reps = run_setup(workload, seed, workdir, speed)
        gc.collect()
        gc.freeze()  # what exists now is not the calls' garbage

        attempted = failed = 0
        errors: list[str] = []
        timed: list[tuple[object, int, int]] = []  # (op, CPU ns, probe before)
        seen: dict[str, tuple] = {}
        tracer = Tracer()
        missing: list[str] = []

        def cycle(measured: bool) -> None:
            nonlocal attempted, failed
            ctx: dict = {}
            for op in ops:
                gc.collect()
                before = speed.probe()
                rc, stdout, errtext, ns = invoke(cli, op.argv)
                tracer.end_op()
                attempted += 1
                problem = judge(op, rc, stdout, errtext, ctx, expected, seen)
                if problem:
                    failed += 1
                    if len(errors) < 5:
                        errors.append(f"{op.label}: {problem}")
                if measured:
                    timed.append((op, ns, before))

        # The first cycle is untraced warm-up: its outputs are checked and
        # become the reference digests of the traced cycles, but not timed.
        cycle(measured=False)
        with contextlib.ExitStack() as stack:
            if trace:
                missing = stack.enter_context(hooked(tracer))
            tracer.reset()
            t_start = time.perf_counter()
            cycles = 0
            while cycles < MIN_CYCLES or time.perf_counter() - t_start < seconds:
                cycle(measured=True)
                cycles += 1
            wall_s = time.perf_counter() - t_start
            speed.probe(force=True)
        gc.unfreeze()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = speed.scale()
    by_label: dict[str, list[float]] = {op.label: [] for op in ops}
    raw_by_label: dict[str, list[int]] = {op.label: [] for op in ops}
    by_group: dict[str, list[float]] = {}
    for op, ns, before in timed:
        seconds = speed.seconds(ns, before)
        by_label[op.label].append(seconds)
        raw_by_label[op.label].append(ns)
        by_group.setdefault(op.group, []).append(seconds)
    # One latency per distinct call: the median of its repetitions, so that
    # a call slowed by the host once does not become the workload's tail.
    ops_per_s, p50, tail_pct, tail = figures([statistics.median(v) for v in by_label.values()])
    raw_ops, raw_p50, _, raw_tail = figures([statistics.median(v) / 1e9 for v in raw_by_label.values()])
    end_to_end = {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if trace:
        metrics = layer_metrics(tracer, len(timed), scale)
        metrics["families.gen_s"] = (gen_s, "s")
        for w in WORKLOADS.values():
            for g in w.groups:
                samples = by_group.get(g)
                metrics[f"doc.{g}.p50_s"] = (statistics.median(samples) if samples else 0.0, "s")
    else:
        metrics = end_to_end
    summary = [
        f"workload {name} seed {seed} trace {int(trace)}: {cycles} measured cycles "
        f"of {len(ops)} operations in {wall_s:.1f} s wall (+1 warm-up cycle)",
        f"  latency p50 {p50:.6f} s, tail p{tail_pct:.1f} {tail:.6f} s "
        f"(over n={len(ops)} distinct calls, {min(TAIL_BEYOND, len(ops) - 1)} beyond the tail)",
        f"  probe median {statistics.median(speed.samples) / 1e6:.2f} ms CPU over "
        f"{len(speed.samples)} probes (reference {REF_SECONDS * 1e3:g} ms); unscaled CPU: "
        f"p50 {raw_p50:.6f} s, tail {raw_tail:.6f} s, ops/s {raw_ops:.4f}",
        f"  setup {setup_s:.6f} s (median of {setup_reps}), peak RSS {peak_rss_mb:.1f} MB",
        f"  error_rate {failed}/{attempted} = {failed / attempted:.4f}",
    ]
    if missing:
        summary.append(f"  missing layers (reported as 0): {', '.join(missing)}")
    summary.extend(f"  FAILED {e}" for e in errors)
    return {
        "summary": summary,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "unscaled": {"latency_p50_s": raw_p50, "latency_tail_s": raw_tail, "ops_per_s": raw_ops},
        "digests": seen,
    }


# ---------------------------------------------------------------------------
# Recording the seed-commit digests
# ---------------------------------------------------------------------------


def record_digests(seeds: list[int]) -> None:
    """Run every workload untraced for each seed, without recorded digests
    but with every other check, and write each operation's exit code and
    stdout digest to ``expected_digests.json``, replacing those seeds'
    entries."""
    from workloads import WORKLOADS

    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        recorded = {}
    for seed in seeds:
        entry = recorded[str(seed)] = {}
        for name in WORKLOADS:
            out = run_workload(name, seed, 0.0, False, None)
            if not out["result"]["correct"]:
                raise RuntimeError("\n".join(out["summary"]))
            entry[name] = {label: list(pair) for label, pair in out["digests"].items()}
            print(f"seed {seed} {name}: {len(entry[name])} operations", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own child process, one at a time, so that each
    peak RSS belongs to one workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="decide-large, verify-deep, crosscheck-small or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", type=int, nargs="+", metavar="SEED",
                        help="record exit codes and stdout digests for these seeds and exit")
    args = parser.parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.record_digests:
        record_digests(args.record_digests)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       load_expected(args.seed, args.workload))
    print("\n".join(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
