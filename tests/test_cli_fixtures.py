"""Byte-for-byte CLI output pinned to recorded fixtures.

Each case runs ``main`` on a checked-in document, checks the exit code and
compares stdout with the recorded file exactly; stderr must stay empty.  The
``decide`` and ``--level`` fixtures were produced by the refinement that kept
every level as a full graph, so they pin that the bitset engine reproduces its
output byte for byte.  The ``verify``, ``oracle``, ``--rounds`` and
``simulate`` fixtures were produced before pattern components and the
per-component broadcaster checks moved onto the shared union-find.  The
``random_rooted4_5_0`` fixtures were produced by the row-per-pattern
enumeration; its rule at horizon 3 has 19 components of up to 10 patterns,
decided by all four processes.
"""
from pathlib import Path

import pytest

from oblicon.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

INPUTS = {"chain8": ",".join("abcdefghijklm"), "lossy_link3_1": "x,y,z"}

# (document, fixture suffix, argv, exit code); chain(8) is not broadcastable
# within two or three rounds, so its rule-building calls exit 1.
CASES = [
    (doc, out, argv, 0)
    for doc in ("chain8", "lossy_link3_1")
    for out, argv in (
        ("decide.txt", ["decide"]),
        ("decide_trace.txt", ["decide", "--trace"]),
        ("decide_trace.json", ["decide", "--trace", "--format", "json"]),
        ("decide_trace_full.txt", ["decide", "--trace", "--no-early-exit"]),
        ("level2.dot", ["export-dot", "--level", "2"]),
        ("rounds2.dot", ["export-dot", "--rounds", "2"]),
    )
] + [("chain8", "decide_dot3.txt", ["decide", "--dot-level", "3"], 0)] + [
    (doc, out, argv, 1 if doc == "chain8" else 0)
    for doc in ("chain8", "lossy_link3_1")
    for out, argv in (
        ("verify_h2.txt", ["verify", "--horizon", "2"]),
        ("verify_h2.json", ["verify", "--horizon", "2", "--format", "json"]),
        ("oracle_r3.txt", ["oracle", "--rmax", "3"]),
        ("simulate.txt", ["simulate", "--pattern", "G1.G2", "--inputs", INPUTS[doc]]),
    )
] + [
    ("random_rooted4_5_0", out, argv, 0)
    for out, argv in (
        ("verify_h3.txt", ["verify", "--horizon", "3"]),
        ("verify_h3.json", ["verify", "--horizon", "3", "--format", "json"]),
        ("oracle_r3.txt", ["oracle", "--rmax", "3"]),
        ("rounds2.dot", ["export-dot", "--rounds", "2"]),
    )
]


@pytest.mark.parametrize(
    "doc,out,argv,code", CASES, ids=[f"{doc}.{out}" for doc, out, _, _ in CASES]
)
def test_cli_output_matches_fixture(doc, out, argv, code, capsys):
    assert main([*argv, str(FIXTURES / f"{doc}.json")]) == code
    captured = capsys.readouterr()
    assert captured.out == (FIXTURES / f"{doc}.{out}").read_text(encoding="utf-8")
    assert captured.err == ""
