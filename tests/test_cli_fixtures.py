"""Byte-for-byte CLI output pinned to recorded fixtures.

Each case runs ``main`` on a checked-in document and compares stdout with the
recorded file exactly; stderr must stay empty.  The fixtures were produced by
the refinement that kept every level as a full graph, so they pin that the
bitset engine reproduces its output byte for byte.
"""
from pathlib import Path

import pytest

from oblicon.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

CASES = [
    (doc, out, argv)
    for doc in ("chain8", "lossy_link3_1")
    for out, argv in (
        ("decide.txt", ["decide"]),
        ("decide_trace.txt", ["decide", "--trace"]),
        ("decide_trace.json", ["decide", "--trace", "--format", "json"]),
        ("decide_trace_full.txt", ["decide", "--trace", "--no-early-exit"]),
        ("level2.dot", ["export-dot", "--level", "2"]),
    )
] + [("chain8", "decide_dot3.txt", ["decide", "--dot-level", "3"])]


@pytest.mark.parametrize(
    "doc,out,argv", CASES, ids=[f"{doc}.{out}" for doc, out, _ in CASES]
)
def test_cli_output_matches_fixture(doc, out, argv, capsys):
    assert main([*argv, str(FIXTURES / f"{doc}.json")]) == 0
    captured = capsys.readouterr()
    assert captured.out == (FIXTURES / f"{doc}.{out}").read_text(encoding="utf-8")
    assert captured.err == ""
