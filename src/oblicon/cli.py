"""Command-line front end: adversary file I/O, analysis verbs, DOT export.

Adversary documents are plain JSON: {"n": int, "graphs": [{"name": str,
"edges": [[u, v], ...]}, ...]}.  Self-loops may be omitted in input; they are
always present after loading and never written back.  All output is built
from sorted structures so repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain
from typing import Any

from . import families
from .decision import Verdict, decide
from .errors import (
    AdversaryFormatError,
    BudgetExceededError,
    FamilyValidationError,
    NonBroadcastableComponentError,
    NotRootedError,
)
from .graphs import CommunicationGraph
from .indist import Adversary, single_round_indist
from .patterns import DEFAULT_PATTERN_BUDGET, Pattern, pattern_indist_graph
from .procset import procs_of
from .simulate import build_rule, oracle_min_horizon, run as run_pattern, verify_all_runs

EXIT_OK = 0
EXIT_IMPOSSIBLE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# Each graph holds 2n masks of up to n bits, so a document's memory grows as
# n squared per graph; larger declared process counts are rejected unread.
MAX_PROCESSES = 4096


# ---------------------------------------------------------------------------
# Adversary documents
# ---------------------------------------------------------------------------


def adversary_to_doc(adv: Adversary) -> dict:
    return {
        "n": adv.n,
        "graphs": [
            {"name": g.name, "edges": [[u, v] for u, v in g.edges()]}
            for g in adv.graphs
        ],
    }


def _is_int(x: Any) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not numbers here
    return isinstance(x, int) and not isinstance(x, bool)


def _edges_well_formed(edges: list) -> bool:
    """True when every edge is a list of two ints, checked one property at a
    time over the whole list; on False the caller checks edge by edge to
    name the first malformed one."""
    return (
        set(map(type, edges)) <= {list}
        and set(map(len, edges)) <= {2}
        and set(map(type, chain.from_iterable(edges))) <= {int}
    )


def _check_process_count(n: int) -> None:
    if n > MAX_PROCESSES:
        raise AdversaryFormatError(f"'n' is {n}; at most {MAX_PROCESSES} processes are supported")


def adversary_from_doc(doc: Any) -> Adversary:
    if not isinstance(doc, dict):
        raise AdversaryFormatError("document must be a JSON object")
    unknown = set(doc) - {"n", "graphs"}
    if unknown:
        raise AdversaryFormatError(f"unknown fields: {sorted(unknown)}")
    if "n" not in doc or "graphs" not in doc:
        raise AdversaryFormatError("document needs 'n' and 'graphs'")
    n = doc["n"]
    if not _is_int(n):
        raise AdversaryFormatError("'n' must be an integer")
    _check_process_count(n)
    if not isinstance(doc["graphs"], list) or not doc["graphs"]:
        raise AdversaryFormatError("'graphs' must be a non-empty list")
    graphs = []
    for k, entry in enumerate(doc["graphs"]):
        if not isinstance(entry, dict):
            raise AdversaryFormatError(f"graph {k} must be an object")
        unknown = set(entry) - {"name", "edges"}
        if unknown:
            raise AdversaryFormatError(f"graph {k} has unknown fields: {sorted(unknown)}")
        name = entry.get("name")
        if name is not None and not isinstance(name, str):
            raise AdversaryFormatError(f"graph {k} name must be a string")
        # `simulate --pattern` splits names on '.' and ',' and strips each one
        if name is not None and ("." in name or "," in name):
            raise AdversaryFormatError(f"graph {k} name {name!r} contains '.' or ','")
        if name is not None and (not name or name != name.strip()):
            blank = "is empty or has leading or trailing whitespace"
            raise AdversaryFormatError(f"graph {k} name {name!r} {blank}")
        raw_edges = entry.get("edges", [])
        if not isinstance(raw_edges, list):
            raise AdversaryFormatError(f"graph {k} edges must be a list")
        if not _edges_well_formed(raw_edges):
            for e in raw_edges:
                if not (isinstance(e, list) and len(e) == 2 and _is_int(e[0]) and _is_int(e[1])):
                    raise AdversaryFormatError(f"graph {k} has a malformed edge: {e!r}")
        try:
            graphs.append(CommunicationGraph(n, raw_edges, name))
        except ValueError as exc:
            raise AdversaryFormatError(f"graph {k}: {exc}") from exc
    try:
        return Adversary(graphs)
    except ValueError as exc:
        raise AdversaryFormatError(str(exc)) from exc


def load_adversary(path: str) -> Adversary:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise AdversaryFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AdversaryFormatError(f"{path} is not valid JSON: {exc}") from exc
    return adversary_from_doc(doc)


def save_adversary(adv: Adversary, path: str) -> None:
    _emit(json.dumps(adversary_to_doc(adv), sort_keys=True) + "\n", path)


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout for None or "-"; a
    file that cannot be written is an input error."""
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise AdversaryFormatError(f"cannot write {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_decide(args: argparse.Namespace) -> int:
    adv = load_adversary(args.file)
    trace = decide(adv, no_early_exit=args.no_early_exit)
    report = {
        "verdict": trace.verdict.value,
        "iterations": trace.iterations,
        "removal_iterations": trace.removal_iterations,
        "component_count": len(trace.components_final),
        "round_bound": trace.round_bound,
    }
    rooted = trace.first_level is not None
    if rooted:
        report["components"] = [
            [adv.names[u] for u in comp] for comp in trace.components_final
        ]
    if args.trace and rooted:
        report["removed"] = _removal_table(adv, trace)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"verdict: {report['verdict']}")
        if rooted:
            print(f"iterations: {trace.iterations}")
            print(f"edge-removing iterations: {trace.removal_iterations}")
            print(f"final components: {report['component_count']}")
            print(f"round bound c*(n-1)*(iterations+1): {trace.round_bound}")
            if args.trace:
                for line in _format_removals(adv, trace):
                    print(line)
        else:
            bad = [g.name for g in adv.graphs if not g.is_rooted]
            print(f"graphs without a unique root component: {', '.join(bad)}")
    if args.dot_level is not None and rooted:
        _emit(trace.level_at(args.dot_level).to_dot(), args.output)
    return EXIT_OK if trace.verdict is Verdict.SOLVABLE else EXIT_IMPOSSIBLE


def _removal_table(adv: Adversary, trace) -> list[dict]:
    """One entry per removed edge; labels never change across levels, so
    they and their guards come from level 1 and the refinement's fitting
    masks."""
    table = []
    for lvl, removed in enumerate(trace.removed, start=1):
        for (u, v) in removed:
            label = trace.first_level.label(u, v)
            guards = [adv.names[k - 1] for k in procs_of(trace.fitting[label])]
            table.append(
                {
                    "iteration": lvl,
                    "edge": [adv.names[u], adv.names[v]],
                    "label": sorted(procs_of(label)),
                    "out_of_component_guards": guards,
                }
            )
    return table


def _format_removals(adv: Adversary, trace) -> list[str]:
    lines = []
    for entry in _removal_table(adv, trace):
        u, v = entry["edge"]
        label = "{" + ",".join(f"p{p}" for p in entry["label"]) + "}"
        guards = ", ".join(entry["out_of_component_guards"]) or "none"
        lines.append(
            f"iteration {entry['iteration']}: removed ({u},{v}) label={label} "
            f"(guards elsewhere: {guards})"
        )
    return lines


def cmd_oracle(args: argparse.Namespace) -> int:
    adv = load_adversary(args.file)
    trace = decide(adv)
    if args.rmax is not None:
        rmax = args.rmax
    elif trace.verdict is Verdict.SOLVABLE:
        rmax = trace.round_bound
    else:
        rmax = max(1, adv.n - 1)
    found = oracle_min_horizon(adv, rmax, budget=args.budget)
    decided_solvable = trace.verdict is Verdict.SOLVABLE
    agrees = (found is not None) == decided_solvable
    report = {
        "min_horizon": found,
        "searched_up_to": rmax,
        "decision_verdict": trace.verdict.value,
        "agrees": agrees,
    }
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        if found is not None:
            print(f"min horizon: {found}")
        else:
            print(f"no broadcastable horizon up to {rmax}")
        print(f"decision verdict: {trace.verdict.value}")
        print(f"agreement: {'yes' if agrees else 'NO'}")
    return EXIT_OK if agrees else EXIT_IMPOSSIBLE


def cmd_verify(args: argparse.Namespace) -> int:
    adv = load_adversary(args.file)
    if args.horizon is not None:
        horizon = args.horizon
    else:
        trace = decide(adv)
        # The oracle enumerates full levels 1..h and the rule then grows its
        # own pruned tree, so those levels are built twice.  Kept on purpose:
        # the oracle is independent of the tree, so a tree that leaves a run
        # undecided at the oracle's horizon is reported here, and answering
        # the oracle from the pruned tree made rooted_trees(3) at r=5 slower.
        if trace.verdict is Verdict.SOLVABLE:
            found = oracle_min_horizon(adv, trace.round_bound, budget=args.budget)
            horizon = found if found is not None else trace.round_bound
        else:
            horizon = max(1, adv.n - 1)
    try:
        rule = build_rule(adv, horizon, budget=args.budget)
    except NonBroadcastableComponentError as exc:
        report = {
            "horizon": exc.horizon,
            "non_broadcastable_component_size": exc.size,
            "witness_patterns": exc.pattern_names,
        }
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(f"horizon {exc.horizon}: {exc}")
        return EXIT_IMPOSSIBLE
    result = verify_all_runs(rule)
    report = {
        "horizon": result.horizon,
        "runs": result.runs,
        "agreement_violations": result.agreement_violations,
        "validity_violations": result.validity_violations,
        "termination_violations": result.termination_violations,
        "cross_run_violations": result.cross_run_violations,
        "ok": result.ok,
    }
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"horizon: {result.horizon}")
        print(f"runs verified: {result.runs}")
        print(
            "violations: "
            f"agreement={result.agreement_violations} "
            f"validity={result.validity_violations} "
            f"termination={result.termination_violations} "
            f"cross-run={result.cross_run_violations}"
        )
        for s in result.samples:
            print(f"  {s}")
    return EXIT_OK if result.ok else EXIT_IMPOSSIBLE


def cmd_simulate(args: argparse.Namespace) -> int:
    adv = load_adversary(args.file)
    try:
        sigma = Pattern.from_names(adv, args.pattern)
    except KeyError as exc:
        raise AdversaryFormatError(f"unknown graph name {exc}") from exc
    inputs = [x.strip() for x in args.inputs.split(",")] if args.inputs else [
        str(p) for p in range(1, adv.n + 1)
    ]
    if len(inputs) != adv.n:
        raise AdversaryFormatError(f"need {adv.n} inputs, got {len(inputs)}")
    try:
        rule = build_rule(adv, len(sigma), budget=args.budget, until=sigma)
    except NonBroadcastableComponentError as exc:
        print(f"cannot build a rule at horizon {exc.horizon}: {exc}")
        return EXIT_IMPOSSIBLE
    report = run_pattern(rule, sigma, inputs)
    doc = {
        "pattern": sigma.name,
        "adopted_process": report.adopted[0],
        "decision_value": report.value,
        "agreement_ok": report.agreement_ok,
        "validity_ok": report.validity_ok,
        "termination_ok": report.termination_ok,
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"pattern: {sigma.name}")
        print(f"all processes adopt the input of p{report.adopted[0]}: {report.value!r}")
        print(
            f"agreement={'ok' if report.agreement_ok else 'VIOLATED'} "
            f"validity={'ok' if report.validity_ok else 'VIOLATED'} "
            f"termination={'ok' if report.termination_ok else 'VIOLATED'}"
        )
    return EXIT_OK if report.ok else EXIT_IMPOSSIBLE


# families whose process count has no default
_NEEDS_N = {"canonical-chain", "rooted-trees", "source-broadcast", "lossy-link", "random-rooted"}


def cmd_generate(args: argparse.Namespace) -> int:
    family = args.family
    if args.n is None:
        if family in _NEEDS_N:
            raise AdversaryFormatError(f"{family} requires --n")
    else:
        _check_process_count(args.n)
    if family == "chain":
        spec = families.simple_chain_spec(args.chain_len, args.n)
        adv = families.gen_chain(spec)
    elif family == "canonical-chain":
        spec = families.gen_canonical_chain(args.n, args.max_len)
        adv = families.gen_chain(spec)
    elif family == "inflated":
        base_n = args.n - args.path_len if args.n is not None else None
        base = families.simple_chain_spec(args.chain_len, base_n)
        first = base.n + 1
        path = tuple(range(first, first + args.path_len))
        spec = families.InflateSpec(
            base=families.ChainSpec(
                n=base.n + args.path_len, roots=base.roots, encoders=base.encoders
            ),
            path=path,
        )
        adv = families.gen_inflated(spec)
    elif family == "partitioned":
        spec = families.PartitionSpec.standard(args.blocks, args.root_size, args.n)
        adv = families.gen_partitioned(spec).adversary
    elif family == "rooted-trees":
        adv = families.rooted_trees(args.n)
    elif family == "source-broadcast":
        adv = families.source_broadcast(args.n, args.clique_size)
    elif family == "lossy-link":
        adv = families.lossy_link(args.n, args.f)
    elif family == "random-rooted":
        if args.seed is None:
            raise AdversaryFormatError("random-rooted requires an explicit --seed")
        adv = families.random_rooted(args.n, args.count, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise AdversaryFormatError(f"unknown family {family}")
    save_adversary(adv, args.output)
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    adv = load_adversary(args.file)
    if args.rounds is not None:
        ig = pattern_indist_graph(adv, args.rounds, budget=args.budget)
    elif args.level == 1:
        ig = single_round_indist(adv)
    else:
        trace = decide(adv, no_early_exit=True)
        if trace.first_level is None:
            raise NotRootedError("cannot refine an adversary with non-rooted graphs")
        ig = trace.level_at(args.level)
    _emit(ig.to_dot(), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``oblicon`` argument parser, built on the first call and shared
    by every later one in the process.

    ``main`` calls this on every invocation, so only the first pays for
    argparse's set-up.  Reuse is safe because parsing never writes to the
    parser: no argument appends or has a mutable default, and argparse
    picks its output streams and the terminal width when it prints.  Each
    sub-command's ``cmd_*`` handler is bound when the parser is first
    built.  Callers must not modify the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="oblicon",
        description=(
            "Decide consensus solvability under an oblivious message adversary, "
            "synthesize and verify the induced algorithm, and generate benchmark "
            "adversary families."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="run the refinement and print the verdict")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="print removed edges per iteration")
    p.add_argument("--no-early-exit", action="store_true", help="refine to the fixpoint")
    p.add_argument("--dot-level", type=int, default=None, metavar="K",
                   help="also export refinement level K as DOT")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output", default=None, help="DOT output path (default stdout)")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("oracle", help="brute-force the smallest broadcastable horizon")
    p.add_argument("file")
    p.add_argument("--rmax", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_PATTERN_BUDGET)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="synthesize the rule and verify every run")
    p.add_argument("file")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_PATTERN_BUDGET)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run one pattern with explicit inputs")
    p.add_argument("file")
    p.add_argument("--pattern", required=True, help="dot-separated graph names, e.g. Ga.Gc")
    p.add_argument("--inputs", default=None, help="comma-separated inputs, one per process")
    p.add_argument("--budget", type=int, default=DEFAULT_PATTERN_BUDGET)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="emit an adversary family as a JSON document")
    p.add_argument(
        "family",
        choices=[
            "chain",
            "canonical-chain",
            "inflated",
            "partitioned",
            "rooted-trees",
            "source-broadcast",
            "lossy-link",
            "random-rooted",
        ],
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--chain-len", type=int, default=4, help="graphs in the chain")
    p.add_argument("--max-len", type=int, default=4, help="cap for canonical-chain length")
    p.add_argument("--path-len", type=int, default=2, help="relay path length (inflated)")
    p.add_argument("--blocks", type=int, default=1, help="block count t (partitioned)")
    p.add_argument("--root-size", type=int, default=1, help="root size m (partitioned)")
    p.add_argument("--clique-size", type=int, default=1)
    p.add_argument("--f", type=int, default=1, help="max dropped edges (lossy-link)")
    p.add_argument("--count", type=int, default=3, help="graphs to sample (random-rooted)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("export-dot", help="export an indistinguishability graph as DOT")
    p.add_argument("file")
    p.add_argument("--level", type=int, default=1, help="refinement level (1 = unrefined)")
    p.add_argument("--rounds", type=int, default=None,
                   help="export the r-round pattern graph instead")
    p.add_argument("--budget", type=int, default=DEFAULT_PATTERN_BUDGET)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one CLI call and return its exit code; callable repeatedly in one
    process."""
    args = build_parser().parse_args(argv)
    try:
        budget = getattr(args, "budget", 0)
        if budget < 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        return args.func(args)
    except AdversaryFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FamilyValidationError, NotRootedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
