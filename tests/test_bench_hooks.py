"""The benchmark's per-layer tracing patches functions by name.  A refactor
that renames or removes one would silently turn its layer into "missing", so
every hook target must resolve in the package."""
from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
