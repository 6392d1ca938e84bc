"""Seeded mutants of the fixture documents and the rules a CLI call on one
must keep, shared by ``tests/test_mutants.py`` and ``tools/mutants.py``.

Each mutant is one fixture document changed by one mutation: truncation,
byte flips, deep nesting, a huge integer, a value of another type, a
duplicated key or bytes that are not UTF-8.  Whatever the document, a call
exits 0, 1, 2 or 3; exit 1 comes only after a verdict or a verify report on
stdout; exits 2 and 3 write nothing to stdout and at most one line to
stderr; exits 0 and 1 write nothing to stderr; and nothing raises.  A
document with a duplicated key exits 2, since a repeated key is an input
error.  Every
other mutant is loaded with the hooked decoder's size gate open, so both
decode paths see every kind of mutation.  Standard library only.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from oblicon import cli

FIXTURES = Path(__file__).parent / "fixtures"
DOCUMENTS = ["chain8", "lossy_link3_1", "random_rooted4_5_0"]
VERIFY_EVERY = 4  # every fourth mutant is also verified at horizon 2

# a JSON string that json.dumps writes as itself and no fixture holds
_MARK = "\u0001mutant\u0001"
_OTHER_TYPES = [None, True, False, 0, -1, 1.5, "", "G1", [], {}, [1, 2], [[1, 2]], {"edges": []}]
_HUGE = [str(10**30), str(2**63), str(-(2**63)), "4097", "9" * 5000, "-" + "1" * 4400]
_NOT_UTF8 = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]


def _paths(node, path=()):
    """The path of every value in a decoded document, the root's first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, text: str) -> bytes:
    """``doc`` written as ``generate`` writes it, with the value at ``path``
    written as the raw ``text``."""
    if not path:
        return text.encode()
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _MARK
    return json.dumps(doc, sort_keys=True).replace(json.dumps(_MARK), text, 1).encode()


def _nested(rng: random.Random) -> str:
    depth = rng.choice([50, 990, 1500, 5000])
    if rng.random() < 0.5:
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "1" + "}" * depth


def mutate(rng: random.Random, data: bytes) -> tuple[str, bytes]:
    """One mutant of the document ``data`` and the name of its mutation."""
    doc = json.loads(data)
    paths = list(_paths(doc))
    kind = rng.choice(["truncate", "flip", "nest", "huge", "swap", "duplicate", "utf8"])
    if kind == "truncate":
        return kind, data[: rng.randrange(len(data))]
    if kind == "flip":
        out = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            out[rng.randrange(len(out))] ^= rng.randint(1, 255)
        return kind, bytes(out)
    if kind == "nest":
        return kind, _replaced(doc, rng.choice(paths), _nested(rng))
    if kind == "huge":
        ints = [p for p in paths if p and type(_at(doc, p)) is int]
        return kind, _replaced(doc, rng.choice(ints), rng.choice(_HUGE))
    if kind == "swap":
        return kind, _replaced(doc, rng.choice(paths), json.dumps(rng.choice(_OTHER_TYPES)))
    if kind == "duplicate":
        objects = [p for p in paths if isinstance(_at(doc, p), dict)]
        path = rng.choice(objects)
        obj = _at(doc, path)
        key = rng.choice(sorted(obj))
        again = rng.choice([obj[key], *_OTHER_TYPES, 2, 3])
        pairs = [*sorted(obj.items()), (key, again)]
        rng.shuffle(pairs)
        text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
        return kind, _replaced(doc, path, text)
    at = rng.randrange(len(data) + 1)
    return kind, data[:at] + rng.choice(_NOT_UTF8) + data[at:]


def broken_rule(code: int, out: str, err: str, kind: str = "") -> str | None:
    """The first rule that a call which exited ``code`` after writing
    ``out`` and ``err`` on a mutant of the given kind breaks, or None."""
    if code not in (0, 1, 2, 3):
        return f"exit {code}"
    if kind == "duplicate" and code != 2:
        return f"exit {code} on a duplicated key"
    if code == 1 and not out.startswith(("verdict: ", "horizon")):
        return f"exit 1 after {out[:80]!r}"
    if code in (2, 3) and out:
        return f"exit {code} after stdout {out[:80]!r}"
    if code in (2, 3) and err.count("\n") > 1:
        return f"exit {code} with {err.count(chr(10))} stderr lines"
    if code in (0, 1) and err:
        return f"exit {code} with stderr {err[:80]!r}"
    return None


def run_mutant(
    k: int, mutant: bytes, path: str, kind: str = ""
) -> list[tuple[list[str], int | None, str | None]]:
    """Write mutant number ``k``, of the given kind, to ``path`` and run
    ``decide`` on it, then, for every fourth, ``verify --horizon 2``; the
    hooked decoder's gate is open for an odd ``k``.  One (argv, exit code or
    None after a raise, broken rule or None) per call."""
    with open(path, "wb") as fh:
        fh.write(mutant)
    verbs = [["decide"]] + ([["verify", "--horizon", "2"]] if k % VERIFY_EVERY == 0 else [])
    hooked_min = cli._HOOKED_MIN
    cli._HOOKED_MIN = 0 if k % 2 else hooked_min
    calls = []
    try:
        for verb in verbs:
            argv = [*verb, path]
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as exc:  # a raise is the broken rule reported
                calls.append((argv, None, f"raised {type(exc).__name__}: {exc}"[:300]))
                continue
            calls.append((argv, code, broken_rule(code, out.getvalue(), err.getvalue(), kind)))
    finally:
        cli._HOOKED_MIN = hooked_min
    return calls
