"""Command-line front end: adversary file I/O, analysis verbs, DOT export.

Adversary documents are plain JSON: {"n": int, "graphs": [{"name": str,
"edges": [[u, v], ...]}, ...]}.  Self-loops may be omitted in input; they are
always present after loading and never written back.  All output is built
from sorted structures so repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from typing import Any

from . import families
from .decision import Verdict, decide
from .errors import AdversaryFormatError, BudgetExceededError, NonBroadcastableComponentError
from .graphs import MAX_PROCESSES, CommunicationGraph, check_process_count  # noqa: F401
from .indist import Adversary, single_round_indist
from .patterns import DEFAULT_PATTERN_BUDGET, Pattern, pattern_indist_graph
from .procset import procs_of
from .simulate import build_rule, oracle_min_horizon, run as run_pattern, verify_all_runs

EXIT_OK = 0
EXIT_IMPOSSIBLE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# Adversary documents
# ---------------------------------------------------------------------------


def adversary_to_doc(adv: Adversary) -> dict:
    # each graph's edges(), built as lists straight off its out-masks
    return {
        "n": adv.n,
        "graphs": [
            {"name": g.name, "edges": [
                [u, v]
                for u, out in enumerate(g._out, 1) if out != 1 << (u - 1)
                for v in procs_of(out) if u != v
            ]}
            for g in adv.graphs
        ],
    }


def _is_int(x: Any) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not numbers here
    return isinstance(x, int) and not isinstance(x, bool)


def adversary_from_doc(doc: Any, may_hold_true: bool = True) -> Adversary:
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
    check_process_count(n)
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
        # the build takes a JSON true as 1 and raises on every other malformed
        # edge, so the types are read only where a true may be
        try:
            graph = CommunicationGraph(n, raw_edges, name)
            error = None
            if may_hold_true and not set(map(type, chain.from_iterable(raw_edges))) <= {int}:
                error = TypeError()
        except (TypeError, ValueError) as exc:
            error = exc
        if error is not None:
            for e in raw_edges:
                if not (isinstance(e, list) and len(e) == 2 and _is_int(e[0]) and _is_int(e[1])):
                    raise AdversaryFormatError(f"graph {k} has a malformed edge: {e!r}")
            raise AdversaryFormatError(f"graph {k}: {error}") from error
        graphs.append(graph)
    try:
        return Adversary(graphs)
    except ValueError as exc:
        raise AdversaryFormatError(str(exc)) from exc


def load_adversary(path: str) -> Adversary:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
    except OSError as exc:
        raise AdversaryFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AdversaryFormatError(f"{path} is not valid JSON: {exc}") from exc
    # JSON makes a true only from the bare token, so a text without a 't'
    # holds none; that memchr costs 12 us on an 884 KB text, "true" 0.65 ms
    return adversary_from_doc(doc, "t" in text)


def save_adversary(adv: Adversary, path: str) -> None:
    with _CollectorPaused():
        _emit(json.dumps(adversary_to_doc(adv), sort_keys=True) + "\n", path)


class _CollectorPaused:
    """Pause the cyclic garbage collector for a ``with`` block and restore
    the caller's state on leaving it, by error too.  The verbs and document
    writing build many containers but almost no cycles, so a collection
    walks live data and frees next to nothing."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc: object) -> None:
        if self.enabled:
            gc.enable()


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


def _report(args: argparse.Namespace, report: dict, text: Callable[[], Iterable[str]]) -> None:
    """Print ``report`` as JSON under ``--format json``, else the lines that
    ``text()`` gives; the text is only formatted when it is printed."""
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(*text(), sep="\n")


def _default_depth(adv: Adversary, trace) -> int:
    """Rounds searched when none are given: the decision's round bound for a
    solvable adversary, else n-1 (at least 1)."""
    return trace.round_bound if trace.verdict is Verdict.SOLVABLE else max(1, adv.n - 1)


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
        report["components"] = [[adv.names[u] for u in c] for c in trace.components_final]
    if args.trace and rooted:
        report["removed"] = _removal_table(adv, trace)

    def text() -> Iterator[str]:
        yield f"verdict: {report['verdict']}"
        if not rooted:
            bad = [g.name for g in adv.graphs if not g.is_rooted]
            yield f"graphs without a unique root component: {', '.join(bad)}"
            return
        yield f"iterations: {trace.iterations}"
        yield f"edge-removing iterations: {trace.removal_iterations}"
        yield f"final components: {report['component_count']}"
        yield f"round bound c*(n-1)*(iterations+1): {trace.round_bound}"
        if args.trace:
            yield from _format_removals(report["removed"])

    _report(args, report, text)
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


def _format_removals(table: list[dict]) -> Iterator[str]:
    for entry in table:
        u, v = entry["edge"]
        label = "{" + ",".join(f"p{p}" for p in entry["label"]) + "}"
        guards = ", ".join(entry["out_of_component_guards"]) or "none"
        yield (
            f"iteration {entry['iteration']}: removed ({u},{v}) label={label} "
            f"(guards elsewhere: {guards})"
        )


def cmd_oracle(args: argparse.Namespace) -> int:
    adv = load_adversary(args.file)
    trace = decide(adv)
    rmax = args.rmax if args.rmax is not None else _default_depth(adv, trace)
    found = oracle_min_horizon(adv, rmax, budget=args.budget)
    agrees = (found is not None) == (trace.verdict is Verdict.SOLVABLE)
    report = {
        "min_horizon": found,
        "searched_up_to": rmax,
        "decision_verdict": trace.verdict.value,
        "agrees": agrees,
    }
    _report(args, report, lambda: (
        f"min horizon: {found}" if found is not None
        else f"no broadcastable horizon up to {rmax}",
        f"decision verdict: {trace.verdict.value}",
        f"agreement: {'yes' if agrees else 'NO'}",
    ))
    return EXIT_OK if agrees else EXIT_IMPOSSIBLE


def _no_rule(args: argparse.Namespace, exc: NonBroadcastableComponentError, lead: str) -> int:
    """Report the component that keeps a rule from being built, its text
    line led by ``lead``; exit 1."""
    report = {
        "horizon": exc.horizon,
        "non_broadcastable_component_size": exc.size,
        "witness_patterns": exc.pattern_names,
    }
    _report(args, report, lambda: (f"{lead} {exc.horizon}: {exc}",))
    return EXIT_IMPOSSIBLE


def cmd_verify(args: argparse.Namespace) -> int:
    adv = load_adversary(args.file)
    if args.horizon is not None:
        horizon = args.horizon
    else:
        trace = decide(adv)
        horizon = _default_depth(adv, trace)
        # The oracle enumerates full levels 1..h and the rule then grows its
        # own pruned tree, so those levels are built twice.  Kept on purpose:
        # the oracle is independent of the tree, so a tree that leaves a run
        # undecided at the oracle's horizon is reported here, and answering
        # the oracle from the pruned tree made rooted_trees(3) at r=5 slower.
        if trace.verdict is Verdict.SOLVABLE:
            found = oracle_min_horizon(adv, horizon, budget=args.budget)
            horizon = found if found is not None else horizon
    try:
        rule = build_rule(adv, horizon, budget=args.budget)
    except NonBroadcastableComponentError as exc:
        return _no_rule(args, exc, "horizon")
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
    _report(args, report, lambda: (
        f"horizon: {result.horizon}",
        f"runs verified: {result.runs}",
        "violations: "
        f"agreement={result.agreement_violations} "
        f"validity={result.validity_violations} "
        f"termination={result.termination_violations} "
        f"cross-run={result.cross_run_violations}",
        *(f"  {s}" for s in result.samples),
    ))
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
        return _no_rule(args, exc, "cannot build a rule at horizon")
    run = run_pattern(rule, sigma, inputs)
    report = {
        "pattern": sigma.name,
        "adopted_process": run.adopted[0],
        "decision_value": run.value,
        "agreement_ok": run.agreement_ok,
        "validity_ok": run.validity_ok,
        "termination_ok": run.termination_ok,
    }
    ok = {True: "ok", False: "VIOLATED"}
    _report(args, report, lambda: (
        f"pattern: {sigma.name}",
        f"all processes adopt the input of p{run.adopted[0]}: {run.value!r}",
        f"agreement={ok[run.agreement_ok]} validity={ok[run.validity_ok]} "
        f"termination={ok[run.termination_ok]}",
    ))
    return EXIT_OK if run.ok else EXIT_IMPOSSIBLE


def _random_rooted(args: argparse.Namespace) -> Adversary:
    if args.seed is None:
        raise AdversaryFormatError(f"{args.family} requires an explicit --seed")
    return families.random_rooted(args.n, args.count, args.seed)


# family -> (whether it needs --n, builder of its adversary from the parsed
# arguments); builders look their generators up on ``families`` when called
_FAMILIES = {
    "chain": (False, lambda a: families.gen_chain(families.simple_chain_spec(a.chain_len, a.n))),
    "canonical-chain": (True, lambda a: families.gen_chain(
        families.gen_canonical_chain(a.n, a.chain_len))),
    "inflated": (False, lambda a: families.gen_inflated(
        families.inflated_spec(a.chain_len, a.path_len, a.n))),
    "partitioned": (False, lambda a: families.gen_partitioned(
        a.blocks, a.root_size, a.n).adversary),
    "rooted-trees": (True, lambda a: families.rooted_trees(a.n)),
    "source-broadcast": (True, lambda a: families.source_broadcast(a.n, a.clique_size)),
    "lossy-link": (True, lambda a: families.lossy_link(a.n, a.f)),
    "random-rooted": (True, _random_rooted),
}


def cmd_generate(args: argparse.Namespace) -> int:
    needs_n, build = _FAMILIES[args.family]
    if args.n is not None:
        check_process_count(args.n)
    elif needs_n:
        raise AdversaryFormatError(f"{args.family} requires --n")
    save_adversary(build(args), args.output)
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    if args.rounds is not None and args.level is not None:
        raise ValueError("--level and --rounds exclude each other")
    adv = load_adversary(args.file)
    if args.rounds is not None:
        ig = pattern_indist_graph(adv, args.rounds, budget=args.budget)
    elif args.level in (None, 1):
        ig = single_round_indist(adv)
    else:
        ig = decide(adv, no_early_exit=True).level_at(args.level)
    _emit(ig.to_dot(), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _opt(*flags: str, **kwargs: Any) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call's arguments, to be made later."""
    return flags, kwargs


_BUDGET = _opt("--budget", type=int, default=DEFAULT_PATTERN_BUDGET)
_FORMAT = _opt("--format", choices=["text", "json"], default="text")


def _verb(sub, name: str, func, help: str, *options, doc=_opt("file")) -> None:
    """Add the sub-command ``name``: its document argument, then ``options``
    in order, which is the order its help lists them in."""
    p = sub.add_parser(name, help=help)
    for flags, kwargs in (doc, *options):
        p.add_argument(*flags, **kwargs)
    p.set_defaults(func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``oblicon`` argument parser, built on the first call and shared
    by every later one in the process.

    ``main`` calls this on every invocation, so only the first pays for
    argparse's set-up.  Reuse is safe because parsing never writes to the
    parser: no argument appends or has a mutable default, and argparse
    picks its output streams and the terminal width when it prints.  Each
    sub-command's ``cmd_*`` handler is bound when the parser is first
    built, and ``verbs`` maps each sub-command's name to its sub-parser.
    Callers must not modify the returned parser.
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
    _verb(sub, "decide", cmd_decide, "run the refinement and print the verdict",
          _opt("--trace", action="store_true", help="print removed edges per iteration"),
          _opt("--no-early-exit", action="store_true", help="refine to the fixpoint"),
          _FORMAT)
    _verb(sub, "oracle", cmd_oracle, "brute-force the smallest broadcastable horizon",
          _opt("--rmax", type=int, default=None), _BUDGET, _FORMAT)
    _verb(sub, "verify", cmd_verify, "synthesize the rule and verify every run",
          _opt("--horizon", type=int, default=None), _BUDGET, _FORMAT)
    _verb(sub, "simulate", cmd_simulate, "run one pattern with explicit inputs",
          _opt("--pattern", required=True, help="dot-separated graph names, e.g. Ga.Gc"),
          _opt("--inputs", default=None, help="comma-separated inputs, one per process"),
          _BUDGET, _FORMAT)
    _verb(sub, "generate", cmd_generate, "emit an adversary family as a JSON document",
          _opt("--n", type=int, default=None),
          _opt("--chain-len", type=int, default=4, help="graphs in the chain"),
          _opt("--path-len", type=int, default=2, help="relay path length (inflated)"),
          _opt("--blocks", type=int, default=1, help="block count t (partitioned)"),
          _opt("--root-size", type=int, default=1, help="root size m (partitioned)"),
          _opt("--clique-size", type=int, default=1),
          _opt("--f", type=int, default=1, help="max dropped edges (lossy-link)"),
          _opt("--count", type=int, default=3, help="graphs to sample (random-rooted)"),
          _opt("--seed", type=int, default=None),
          _opt("-o", "--output", default="-"),
          doc=_opt("family", choices=list(_FAMILIES)))
    _verb(sub, "export-dot", cmd_export_dot, "export an indistinguishability graph as DOT",
          _opt("--level", type=int, default=None, help="refinement level (1 = unrefined)"),
          _opt("--rounds", type=int, default=None,
               help="export the r-round pattern graph instead"),
          _BUDGET, _opt("-o", "--output", default=None))
    parser.verbs = sub.choices  # verb name -> its sub-parser, for _parse_args
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with a call that names a verb
    first parsed by that verb's sub-parser alone: the top-level pass would
    only hand it the rest of ``argv`` and add about as much time again.
    Arguments the verb leaves over send ``argv`` back through the
    top-level parser, so its error is printed as before."""
    parser = build_parser()
    verb = parser.verbs.get(argv[0]) if argv else None
    if verb is None:
        return parser.parse_args(argv)
    args, extra = verb.parse_known_args(argv[1:])
    if extra:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one CLI call and return its exit code; callable repeatedly in one
    process.  ``argv`` (default ``sys.argv[1:]``) is parsed by
    ``_parse_args``, and the verb runs with the cyclic garbage collector
    paused (``_CollectorPaused``)."""
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    with _CollectorPaused():
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
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
