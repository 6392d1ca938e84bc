"""Per-layer tracing for the benchmark, installed from outside the program.

Every public function at a layer boundary of ``oblicon`` is listed once in
``HOOKS``.  Installing the hooks replaces that function, in every ``oblicon``
module that holds a reference to it, by a wrapper that records a span (busy
time, and self time with the time of nested spans subtracted) and derives
counts from the arguments and the return value only.  The program's sources
are never edited; ``hooked`` restores every replaced attribute on exit.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator


class Span:
    __slots__ = ("layer", "start", "child_ns", "info")

    def __init__(self, layer: str, start: int):
        self.layer = layer
        self.start = start
        self.child_ns = 0
        self.info: dict[str, Any] = {}


class Tracer:
    """Open spans on a stack and per-layer totals.

    ``busy[layer]`` sums span durations; ``self_ns[layer]`` sums durations
    minus the part covered by direct child spans; ``counts`` holds the
    counters the hooks derive.  ``clock`` is injectable for tests.
    """

    def __init__(self, clock: Callable[[], int] = time.process_time_ns):
        self.clock = clock
        self.stack: list[Span] = []
        self.reset()

    def reset(self) -> None:
        self.busy: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.final_rows: list[Any] = []

    @property
    def parent_layer(self) -> str | None:
        return self.stack[-1].layer if self.stack else None

    def enter(self, layer: str) -> Span:
        span = Span(layer, self.clock())
        self.stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        dur = self.clock() - span.start
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.layer} closed out of order")
        self.busy[span.layer] += dur
        self.self_ns[span.layer] += dur - span.child_ns
        if self.stack:
            self.stack[-1].child_ns += dur

    def end_op(self) -> None:
        """Fold work deferred out of the timed spans: distinct final views."""
        for rows in self.final_rows:
            self.counts["patterns.views_final"] += len({v for row in rows for v in row})
        self.final_rows.clear()


# ---------------------------------------------------------------------------
# Observers: counts derived from arguments and return values
# ---------------------------------------------------------------------------


def _observe_load(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    tracer.counts["load.graphs"] += len(result)
    tracer.counts["load.bytes"] += os.path.getsize(args[0])


def _observe_indist(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    m = len(args[0])
    tracer.counts["indist.pairs"] += m * (m - 1) // 2
    tracer.counts["indist.edges"] += result.num_edges
    if tracer.parent_layer == "decision":
        tracer.stack[-1].info["level1_edges"] = result.num_edges


def _observe_decide(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    # Edge counts come from the level-1 graph and the public ``removed``
    # tuples; ``levels`` is not read because it may become lazy.
    tracer.counts["decision.iterations"] += result.iterations
    edges = span.info.get("level1_edges", 0)
    for removed in result.removed[1:]:
        tracer.counts["decision.edges_scanned"] += edges
        tracer.counts["decision.edges_removed"] += len(removed)
        edges -= len(removed)


def _observe_rule(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    tracer.counts["rule.components"] += len(result.components)


def _observe_verify(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    tracer.counts["verify.runs"] += result.runs


def _observe_level(tracer: Tracer, level: Any) -> None:
    tracer.counts["patterns.rounds"] += 1
    tracer.counts["patterns.enumerated"] += len(level.view_rows)
    if tracer.parent_layer == "oracle":
        tracer.counts["oracle.levels_searched"] += 1


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    attr: str
    observe: Callable[[Tracer, Span, tuple, Any], None] | None = None
    generator: bool = False


HOOKS: tuple[Hook, ...] = (
    Hook("cli", "oblicon.cli", "main"),
    Hook("cli.parser", "oblicon.cli", "build_parser"),
    Hook("load", "oblicon.cli", "load_adversary", _observe_load),
    Hook("load.build", "oblicon.cli", "adversary_from_doc"),
    Hook("indist", "oblicon.indist", "single_round_indist", _observe_indist),
    Hook("decision", "oblicon.decision", "decide", _observe_decide),
    Hook("patterns", "oblicon.patterns", "iter_pattern_levels", generator=True),
    Hook("rule", "oblicon.simulate", "build_rule", _observe_rule),
    Hook("oracle", "oblicon.simulate", "oracle_min_horizon"),
    Hook("verify", "oblicon.simulate", "verify_all_runs", _observe_verify),
)


def _wrap_call(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.enter(hook.layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if hook.observe is not None:
            hook.observe(tracer, span, args, result)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    """Time each resumption of the generator as one span, so a level's
    enumeration counts inside whichever caller consumed it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        last = None
        try:
            while True:
                span = tracer.enter(hook.layer)
                try:
                    level = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit(span)
                _observe_level(tracer, level)
                last = level
                yield level
        finally:
            inner.close()
            if last is not None:
                tracer.final_rows.append(last.view_rows)

    return wrapper


def _program_modules() -> list[Any]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "oblicon" or name.startswith("oblicon."))
    ]


@contextlib.contextmanager
def hooked(tracer: Tracer, hooks: tuple[Hook, ...] = HOOKS) -> Iterator[list[str]]:
    """Install the hooks; yield the layers whose target is missing.

    A missing target (module or function gone) is reported, not fatal, so
    the traced run finishes with that layer marked missing.
    """
    replaced: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    try:
        for hook in hooks:
            try:
                original = getattr(importlib.import_module(hook.module), hook.attr)
            except (ImportError, AttributeError):
                missing.append(hook.layer)
                continue
            wrap = _wrap_generator if hook.generator else _wrap_call
            wrapper = wrap(tracer, hook, original)
            for mod in _program_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, name, value))
                        setattr(mod, name, wrapper)
        yield missing
    finally:
        for mod, name, value in reversed(replaced):
            setattr(mod, name, value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as means per measured operation, plus ratios.
    ``scale`` converts the tracer's clock units to reported seconds."""
    s = lambda ns: ns * scale / ops if ops else 0.0  # noqa: E731
    per = lambda key: _ratio(tracer.counts[key], ops)  # noqa: E731
    busy, own, c = tracer.busy, tracer.self_ns, tracer.counts
    return {
        "load.json_s": (s(own["load"]), "s"),
        "load.build_s": (s(busy["load.build"]), "s"),
        "load.graphs": (per("load.graphs"), "count"),
        "load.bytes": (per("load.bytes"), "bytes"),
        "indist.busy_s": (s(busy["indist"]), "s"),
        "indist.pairs": (per("indist.pairs"), "count"),
        "indist.edges": (per("indist.edges"), "count"),
        "indist.edge_yield": (_ratio(c["indist.edges"], c["indist.pairs"]), "ratio"),
        "decision.self_s": (s(own["decision"]), "s"),
        "decision.iterations": (per("decision.iterations"), "count"),
        "decision.edges_scanned": (per("decision.edges_scanned"), "count"),
        "decision.edges_removed": (per("decision.edges_removed"), "count"),
        "decision.removal_yield": (
            _ratio(c["decision.edges_removed"], c["decision.edges_scanned"]),
            "ratio",
        ),
        "patterns.busy_s": (s(busy["patterns"]), "s"),
        "patterns.rounds": (per("patterns.rounds"), "count"),
        "patterns.enumerated": (per("patterns.enumerated"), "count"),
        "patterns.per_pattern_us": (
            _ratio(busy["patterns"] * scale * 1e6, c["patterns.enumerated"]),
            "us",
        ),
        "patterns.views_final": (per("patterns.views_final"), "count"),
        "rule.self_s": (s(own["rule"]), "s"),
        "rule.components": (per("rule.components"), "count"),
        "oracle.self_s": (s(own["oracle"]), "s"),
        "oracle.levels_searched": (per("oracle.levels_searched"), "count"),
        "verify.busy_s": (s(busy["verify"]), "s"),
        "verify.runs": (per("verify.runs"), "count"),
        "verify.runs_per_s": (_ratio(c["verify.runs"], busy["verify"] * scale), "1/s"),
        "cli.self_s": (s(own["cli"]), "s"),
        "cli.parser_s": (s(busy["cli.parser"]), "s"),
    }
