"""Run seeded mutants of the fixture documents through ``oblicon``'s CLI, in
this process, and print how many calls ended in each exit code.

The mutator and the per-call rules are those of the tier-1 mutant test
(``tests/mutation.py``): mutant j changes the fixture document
``DOCUMENTS[j % 3]`` by one mutation drawn from one ``random.Random(SEED)``;
``decide`` runs on every mutant and ``verify --horizon 2`` on every fourth,
and every other mutant is read with the hooked decoder's size gate open.
The run stops at the first call that breaks a rule, names its mutant and
the rule, and exits 1; otherwise it exits 0.

Standard library only.  Run from anywhere:

    python3 tools/mutants.py [--count 5000] [--seed 0]
"""
from __future__ import annotations

import argparse
import random
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from mutation import DOCUMENTS, FIXTURES, mutate, run_mutant  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=5000, help="mutants to run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    data = [(FIXTURES / f"{name}.json").read_bytes() for name in DOCUMENTS]
    tally: Counter = Counter()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "mutant.json")
        for j in range(args.count):
            name = DOCUMENTS[j % len(DOCUMENTS)]
            kind, mutant = mutate(rng, data[j % len(DOCUMENTS)])
            for call, code, problem in run_mutant(j, mutant, path, kind):
                if problem:
                    print(f"mutant {j} ({kind} of {name}), {call[0]}: {problem}")
                    return 1
                tally[(call[0], code)] += 1
    seconds = time.perf_counter() - start
    print(f"{args.count} mutants, seed {args.seed}, {seconds:.1f} s; calls per exit code:")
    for (verb, code), calls in sorted(tally.items()):
        print(f"  {verb:<7} exit {code}: {calls}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
