"""Time one benchmark workload's CLI calls on two checkouts, side by side in
one process, and print per-call CPU medians and paired ratios.

Each checkout's ``src/oblicon`` is imported under its own package name, so
both live in the process at once.  The documents and calls come from the
first checkout's ``bench/workloads.py``, which is read but never changed;
the documents go to a temporary directory.  Every round calls each
operation once per checkout, the order alternating between rounds, with
the collector run before each call; the first round is a warm-up and is not
timed.  ``--time MODULE.FUNC`` also times every call of one program
function, say ``cli.adversary_from_doc``, inside each operation, one row
per function; it may be given more than once, so that one run times
``indist.single_round_indist`` (L1) and ``decision.decide`` (L1 and L2).
``--setup`` also times each checkout's own run of the workload's set-up
(generating and writing every document) in the same alternating rounds, as
the row ``set-up``; the benchmark's ``setup_s`` moves by about 5% between
identical runs, which paired rounds see through.  ``--peak`` also prints,
per checkout, the tracemalloc peak of one more run of every call and of the
set-up, taken after the timed rounds so that tracing slows none of them.
Standard library only.  Run from anywhere:

    python3 tools/side_by_side.py BEFORE AFTER --workload decide-large [--seed 7]
        [--rounds 21] [--time MODULE.FUNC]... [--setup] [--peak]

A ratio is the after checkout's CPU time over the before checkout's, taken
per round and reported as the median over rounds; ``faster`` counts the
rounds where after took less.  ``same`` says whether the two checkouts
gave the same exit code, stdout and stderr on every round.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path


def import_package(checkout: Path, name: str):
    """``checkout/src/oblicon`` imported as the package ``name``."""
    init = checkout / "src" / "oblicon" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("cli", "families"):
        importlib.import_module(f"{name}.{sub}")
    return pkg


def import_workloads(checkout: Path, pkg):
    """``checkout/bench/workloads.py``, with its ``oblicon`` bound to ``pkg``."""
    path = checkout / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location(f"side_by_side_workloads_{pkg.__name__}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved = sys.modules.get("oblicon")
    sys.modules["oblicon"] = pkg
    try:
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["oblicon"]
        else:
            sys.modules["oblicon"] = saved
    return module


def time_function(pkg, target: str) -> list[int]:
    """Replace ``pkg.MODULE.FUNC`` in every module of ``pkg`` that holds it
    by a wrapper that adds each call's CPU nanoseconds to the returned
    one-item list."""
    module, func = target.rsplit(".", 1)
    original = getattr(importlib.import_module(f"{pkg.__name__}.{module}"), func)
    spent = [0]

    def timed(*args, **kwargs):
        t0 = time.process_time_ns()
        try:
            return original(*args, **kwargs)
        finally:
            spent[0] += time.process_time_ns() - t0

    prefix = pkg.__name__ + "."
    for name, mod in list(sys.modules.items()):
        if name.startswith(prefix) or name == pkg.__name__:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, timed)
    return spent


def call(cli, argv, spent: list[list[int]]) -> tuple[int, int, str, str, list[int]]:
    """CPU ns of one ``cli.main`` call, the exit code, stdout, stderr, and
    the CPU ns spent in each timed function."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    before = [s[0] for s in spent]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.process_time_ns()
        rc = cli.main(list(argv))
        ns = time.process_time_ns() - t0
    return ns, rc, out.getvalue(), err.getvalue(), [s[0] - b for s, b in zip(spent, before)]


def setup_ns(setup, seed: int) -> int:
    """CPU ns of one ``setup(seed, workdir)``, into a directory of its own."""
    gc.collect()
    with tempfile.TemporaryDirectory() as workdir:
        t0 = time.process_time_ns()
        setup(seed, workdir)
        return time.process_time_ns() - t0


def peak_bytes(run) -> int:
    """The tracemalloc peak of ``run()``, counted from a collected heap."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def row(label: str, a: list[int], b: list[int]) -> str:
    ratios = [y / x for x, y in zip(a, b) if x]
    faster = sum(y < x for x, y in zip(a, b))
    return (
        f"{label:<40}{statistics.median(a) / 1e6:>10.3f}{statistics.median(b) / 1e6:>10.3f}"
        f"{statistics.median(ratios) if ratios else float('nan'):>8.3f}{faster:>5}/{len(a):<3}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument(
        "--time", metavar="MODULE.FUNC", action="append", default=[],
        help="also time this program function (repeatable)",
    )
    parser.add_argument("--setup", action="store_true", help="also time each checkout's set-up")
    parser.add_argument("--peak", action="store_true", help="also print tracemalloc peaks")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave both checkouts as they are

    pkgs = [import_package(args.before, "oblicon_before"), import_package(args.after, "oblicon_after")]
    # the before checkout's workloads, run by each checkout's program
    setups = [import_workloads(args.before, pkg).WORKLOADS[args.workload].setup for pkg in pkgs]
    spent = [[time_function(pkg, target) for target in args.time] for pkg in pkgs]
    setup_times: tuple[list[int], list[int]] = ([], [])
    with tempfile.TemporaryDirectory() as workdir:
        ops, _ = setups[0](args.seed, workdir)
        # before, after, and per timed function its before and after
        times = {op.label: ([], [], [([], []) for _ in args.time]) for op in ops}
        same = {op.label: True for op in ops}
        for r in range(args.rounds + 1):
            order = (0, 1) if r % 2 else (1, 0)
            if args.setup:
                got_setup = {k: setup_ns(setups[k], args.seed) for k in order}
                if r:
                    for k in (0, 1):
                        setup_times[k].append(got_setup[k])
            for op in ops:
                got = {k: call(pkgs[k].cli, op.argv, spent[k]) for k in order}
                same[op.label] &= got[0][1:4] == got[1][1:4]
                if r:  # round 0 warms up
                    for k in (0, 1):
                        times[op.label][k].append(got[k][0])
                        for pair, ns in zip(times[op.label][2], got[k][4]):
                            pair[k].append(ns)
        if args.peak:
            peaks = {"set-up": [peak_bytes(lambda: setup_ns(setups[k], args.seed)) for k in (0, 1)]}
            for op in ops:
                peaks[op.label] = [peak_bytes(lambda: call(pkgs[k].cli, op.argv, [])) for k in (0, 1)]

    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds; CPU ms medians")
    print(f"{'call':<40}{'before':>10}{'after':>10}{'ratio':>8}{'faster':>9}  same")
    if args.setup:
        print(row("set-up", *setup_times))
    for op in ops:
        a, b, funcs = times[op.label]
        print(row(op.label, a, b) + f"  {'yes' if same[op.label] else 'NO'}")
        for target, (fa, fb) in zip(args.time, funcs):
            print(row(f"  {target}", fa, fb))
    if args.peak:
        print(f"\ntracemalloc peak of one run, MiB\n{'call':<40}{'before':>10}{'after':>10}{'ratio':>8}")
        for label, (a, b) in peaks.items():
            print(f"{label:<40}{a / 2**20:>10.3f}{b / 2**20:>10.3f}{b / a:>8.3f}")
    return 0 if all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
