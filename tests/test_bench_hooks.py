"""The benchmark's per-layer tracing patches functions by name.  A refactor
that renames or removes one would silently turn its layer into "missing", so
every hook target must resolve in the package, and the counters the tracer
derives from what the hooked functions return must stay right."""
from __future__ import annotations

import importlib
import importlib.util
import inspect
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import oblicon
from oblicon.cli import load_adversary, main
from oblicon.decision import decide
from oblicon.indist import single_round_indist
from oblicon.patterns import iter_pattern_levels

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
CHAIN8 = Path(__file__).parent / "fixtures" / "chain8.json"
ROOTED4 = Path(__file__).parent / "fixtures" / "random_rooted4_5_0.json"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_hook_target_resolves():
    hooks = _load_tracing().HOOKS
    assert hooks
    for hook in hooks:
        assert hook.module == "oblicon" or hook.module.startswith("oblicon.")
        target = getattr(importlib.import_module(hook.module), hook.attr, None)
        assert callable(target), f"{hook.layer}: {hook.module}.{hook.attr} is gone"
        assert inspect.isgeneratorfunction(target) == hook.generator, hook.layer


def test_traced_oracle_counts_patterns_and_final_views():
    # chain(8) has no broadcastable horizon up to 3, so the oracle enumerates
    # every level 1..3
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.hooked(tracer) as missing, redirect_stdout(io.StringIO()):
        assert main(["oracle", str(CHAIN8), "--rmax", "3"]) == 1
    tracer.end_op()
    assert missing == []
    d = load_adversary(str(CHAIN8))
    m = len(d)
    assert tracer.counts["patterns.rounds"] == 3
    assert tracer.counts["patterns.enumerated"] == m + m**2 + m**3
    *_, last = iter_pattern_levels(d, 3)
    assert tracer.counts["patterns.views_final"] == len(set().union(*last.views))


def test_traced_decide_counts_level_one_and_removed_edges():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.hooked(tracer) as missing, redirect_stdout(io.StringIO()):
        assert main(["decide", str(CHAIN8)]) == 0
    tracer.end_op()
    assert missing == []
    d = load_adversary(str(CHAIN8))
    assert tracer.counts["indist.edges"] == single_round_indist(d).num_edges
    assert tracer.counts["decision.edges_removed"] == sum(map(len, decide(d).removed))


def test_traced_verify_counts_every_run():
    # the rule's tree decides runs at rounds 2 and 3; the tracer reads
    # ``ConsensusRule.components`` and the report's run count, and sees the
    # tree's rounds 1 to 3 (5, 25 and 75 patterns) through the level generator
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.hooked(tracer) as missing, redirect_stdout(io.StringIO()):
        assert main(["verify", str(ROOTED4), "--horizon", "3"]) == 0
    tracer.end_op()
    assert missing == []
    assert tracer.counts["verify.runs"] == 250
    assert tracer.counts["rule.components"] > 0
    assert tracer.counts["patterns.rounds"] == 3
    assert tracer.counts["patterns.enumerated"] == 5 + 25 + 75


def test_every_exported_name_resolves_once():
    names = oblicon.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(oblicon, name), f"oblicon.{name} is exported but gone"
