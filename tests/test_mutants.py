"""Seeded mutants of the fixture documents, run through ``main`` in-process.

The mutator and the rules every call must keep are in ``mutation.py``:
whatever the document, a call exits 0, 1, 2 or 3; exit 1 comes only after a
verdict or a verify report on stdout; exits 2 and 3 write nothing to stdout
and at most one line to stderr; exits 0 and 1 write nothing to stderr;
nothing raises; and a duplicated key exits 2.  ``tools/mutants.py`` runs more of them on demand.
"""
from __future__ import annotations

import random

import pytest
from mutation import DOCUMENTS, FIXTURES, mutate, run_mutant

MUTANTS = 150  # per document


@pytest.mark.parametrize("name", DOCUMENTS)
def test_mutated_documents_end_in_an_exit_code(name, tmp_path):
    rng = random.Random(f"oblicon-{name}")
    data = (FIXTURES / f"{name}.json").read_bytes()
    path = str(tmp_path / "mutant.json")
    failures = []
    kinds = set()
    for k in range(MUTANTS):
        kind, mutant = mutate(rng, data)
        kinds.add(kind)
        for argv, _, problem in run_mutant(k, mutant, path, kind):
            if problem:
                failures.append(f"mutant {k} ({kind}), {argv[0]}: {problem}")
    assert not failures, "\n".join(failures)
    assert len(kinds) == 7
