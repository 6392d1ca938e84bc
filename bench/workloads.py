"""The benchmark's workloads: documents generated from a seed, the CLI calls
made against them, and the checks each call's output must pass.

Why these three workloads:

* ``decide-large`` -- ``decide`` on three big documents.  Loading, the
  all-pairs level-1 graph and the refinement loop (layers L0-L2) do nearly
  all the work; the pattern layers do none.
* ``verify-deep`` -- ``verify`` at horizon 8 and a five-round ``oracle``.
  Pattern enumeration, rule synthesis and run verification (L3-L6) do
  nearly all the work; ``decide`` takes under a millisecond.
* ``crosscheck-small`` -- ``decide``, ``oracle`` and ``verify`` on a seeded
  corpus of tiny adversaries.  The same layers run as many calls of a few
  milliseconds, so fixed per-call cost (argument parsing, loading) dominates;
  a change that buys big-input speed with per-call set-up shows here.
"""
from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Callable

from oblicon import Adversary, cli, families

# A check gets (exit code, parsed stdout, per-cycle context) and returns an
# error message, or None when the output is right.
Check = Callable[[int, dict, dict], "str | None"]


@dataclass(frozen=True)
class Op:
    label: str  # unique within a workload; the key of its recorded digest
    group: str  # the per-document metric doc.<group>.p50_s
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[str, ...]
    # setup(seed, workdir) writes the documents and returns the operations
    # and the CPU nanoseconds spent in family generation.
    setup: Callable[[int, str], "tuple[list[Op], int]"]


def _write(workdir: str, name: str, adv) -> str:
    path = os.path.join(workdir, name + ".json")
    cli.save_adversary(adv, path)
    return path


def _timed(fn, *args):
    t0 = time.process_time_ns()
    out = fn(*args)
    return out, time.process_time_ns() - t0


def _verdict_matches_exit(rc: int, report: dict) -> str | None:
    want = 0 if report.get("verdict") == "SOLVABLE" else 1
    if rc != want:
        return f"exit {rc} does not match verdict {report.get('verdict')}"
    return None


# ---------------------------------------------------------------------------
# decide-large
# ---------------------------------------------------------------------------

CHAIN_LEN = 200


def _check_chain(rc: int, report: dict, ctx: dict) -> str | None:
    if rc != 0 or report.get("verdict") != "SOLVABLE":
        return f"chain({CHAIN_LEN}) should be SOLVABLE, got {report.get('verdict')} exit {rc}"
    if report.get("iterations") != CHAIN_LEN:
        return f"chain({CHAIN_LEN}) should take {CHAIN_LEN} iterations, got {report.get('iterations')}"
    return None


def _check_lossy(rc: int, report: dict, ctx: dict) -> str | None:
    if rc != 1 or report.get("verdict") != "IMPOSSIBLE":
        return f"lossy_link(4,3) should be IMPOSSIBLE, got {report.get('verdict')} exit {rc}"
    return None


def _check_decide(rc: int, report: dict, ctx: dict) -> str | None:
    if report.get("verdict") not in ("SOLVABLE", "IMPOSSIBLE"):
        return f"unexpected verdict {report.get('verdict')}"
    return _verdict_matches_exit(rc, report)


def _setup_decide_large(seed: int, workdir: str) -> tuple[list[Op], int]:
    chain, t_chain = _timed(
        lambda: families.gen_chain(families.simple_chain_spec(CHAIN_LEN))
    )
    rand, t_rand = _timed(families.random_rooted, 12, 1500, seed)
    lossy, t_lossy = _timed(families.lossy_link, 4, 3)
    docs = [
        ("chain200", chain, _check_chain),
        ("random_rooted12x1500", rand, _check_decide),
        ("lossy_link4-3", lossy, _check_lossy),
    ]
    ops = [
        Op(f"decide {name}", name, ("decide", _write(workdir, name, adv), "--format", "json"), check)
        for name, adv, check in docs
    ]
    return ops, t_chain + t_rand + t_lossy


# ---------------------------------------------------------------------------
# verify-deep
# ---------------------------------------------------------------------------


def _check_verify_ok(rc: int, report: dict, ctx: dict) -> str | None:
    bad = [k for k in report if k.endswith("_violations") and report[k] != 0]
    if rc != 0 or report.get("ok") is not True or bad or "runs" not in report:
        return f"verify should report ok with zero violations, got exit {rc}: {report}"
    return None


def _check_oracle_rt(rc: int, report: dict, ctx: dict) -> str | None:
    if rc != 0 or report.get("agrees") is not True or report.get("min_horizon") is not None:
        return f"oracle on rooted_trees(3) should agree with no horizon, got exit {rc}: {report}"
    return None


def _setup_verify_deep(seed: int, workdir: str) -> tuple[list[Op], int]:
    sb, t_sb = _timed(families.source_broadcast, 4, 1)
    rt, t_rt = _timed(families.rooted_trees, 3)
    ops = [
        Op(
            "verify source_broadcast4-1 --horizon 8",
            "verify_sb4-1h8",
            ("verify", _write(workdir, "sb", sb), "--horizon", "8", "--format", "json"),
            _check_verify_ok,
        ),
        Op(
            "oracle rooted_trees3 --rmax 5",
            "oracle_rt3r5",
            ("oracle", _write(workdir, "rt", rt), "--rmax", "5", "--format", "json"),
            _check_oracle_rt,
        ),
    ]
    return ops, t_sb + t_rt


# ---------------------------------------------------------------------------
# crosscheck-small
# ---------------------------------------------------------------------------

# Five documents of each shape (n, graph count), drawn once from BASE_SEED.
# A run's seed relabels them: it permutes the processes and the order of the
# graphs.  So every seed gives different documents and outputs, but the same
# adversaries up to isomorphism and so the same cost.  Drawing a new corpus
# per seed moved the 11th-slowest call by 25% between seeds, because a few
# documents need a 4- or 5-round horizon and cost ten times the rest.
SHAPES = tuple((n, count) for n in (3, 4) for count in range(2, 6))
DOCS_PER_SHAPE = 5
BASE_SEED = 0


def _xc_decide(doc: str) -> Check:
    def check(rc: int, report: dict, ctx: dict) -> str | None:
        ctx[doc] = report.get("verdict")
        return _check_decide(rc, report, ctx)

    return check


def _xc_oracle(doc: str) -> Check:
    def check(rc: int, report: dict, ctx: dict) -> str | None:
        if rc != 0 or report.get("agrees") is not True:
            return f"{doc}: oracle disagrees with the decision: {report}"
        if report.get("decision_verdict") != ctx.get(doc):
            return f"{doc}: oracle saw verdict {report.get('decision_verdict')}, decide printed {ctx.get(doc)}"
        return None

    return check


def _xc_verify(doc: str) -> Check:
    def check(rc: int, report: dict, ctx: dict) -> str | None:
        if ctx.get(doc) == "SOLVABLE":
            return _check_verify_ok(rc, report, ctx)
        if rc != 1 or "non_broadcastable_component_size" not in report:
            return f"{doc}: verify on an impossible adversary should name a component: {report}"
        return None

    return check


def corpus_params() -> list[tuple[int, int, int]]:
    """(n, graph count, family seed) for each corpus document."""
    rng = random.Random(BASE_SEED)
    return [
        (n, count, rng.randrange(1 << 30))
        for _ in range(DOCS_PER_SHAPE)
        for n, count in SHAPES
    ]


def relabelled(adv: Adversary, rng: random.Random) -> Adversary:
    """An isomorphic copy: processes permuted, graphs shuffled and renamed
    G1, G2, ... in their new order."""
    perm = list(range(1, adv.n + 1))
    rng.shuffle(perm)
    mapping = {p: perm[p - 1] for p in range(1, adv.n + 1)}
    order = list(adv.graphs)
    rng.shuffle(order)
    return Adversary([g.relabel(mapping, f"G{k}") for k, g in enumerate(order, start=1)])


def _setup_crosscheck_small(seed: int, workdir: str) -> tuple[list[Op], int]:
    ops: list[Op] = []
    gen_ns = 0
    rng = random.Random(seed)
    for k, (n, count, fam_seed) in enumerate(corpus_params()):
        adv, dt = _timed(lambda: relabelled(families.random_rooted(n, count, fam_seed), rng))
        gen_ns += dt
        doc = f"xc{k:02d}"
        path = _write(workdir, doc, adv)
        for cmd, check in (("decide", _xc_decide), ("oracle", _xc_oracle), ("verify", _xc_verify)):
            ops.append(Op(f"{cmd} {doc}", f"xc_{cmd}", (cmd, path, "--format", "json"), check(doc)))
    return ops, gen_ns


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "decide-large",
            ("chain200", "random_rooted12x1500", "lossy_link4-3"),
            _setup_decide_large,
        ),
        Workload(
            "verify-deep",
            ("verify_sb4-1h8", "oracle_rt3r5"),
            _setup_verify_deep,
        ),
        Workload(
            "crosscheck-small",
            ("xc_decide", "xc_oracle", "xc_verify"),
            _setup_crosscheck_small,
        ),
    )
}

