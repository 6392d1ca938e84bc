"""Byte-for-byte CLI output pinned to recorded fixtures.

Each case runs ``main`` on a checked-in document, checks the exit code and
compares stdout with the recorded file exactly; stderr must stay empty.  A
fixture named ``*.err`` holds stderr instead, and then stdout must stay empty.
The ``decide`` and ``--level`` fixtures were produced by the refinement that
kept every level as a full graph, so they pin that the bitset engine
reproduces its output byte for byte.  The ``verify``, ``oracle``, ``--rounds`` and
``simulate`` fixtures were produced before pattern components and the
per-component broadcaster checks moved onto the shared union-find.  The
``random_rooted4_5_0`` fixtures were produced by the row-per-pattern
enumeration; its rule at horizon 3 has 19 components of up to 10 patterns,
decided by all four processes.

The ``usage.*`` fixtures pin argparse's own output (help and a usage error)
as recorded before ``main`` began reusing one parser per process.  Their
layout follows the terminal width, so those tests set ``COLUMNS=80``, and it
differs between Python minor versions; they were recorded with Python 3.11.
The ``oracle``, ``verify``, ``simulate``, ``generate`` and ``export-dot``
help texts were recorded while each sub-command still added its options one
``add_argument`` call at a time, before they were built from shared specs.
The ``decide_unknown_option`` and ``decide_extra_argument`` errors were
recorded while every call still went through the top-level parser, before
``main`` handed a call straight to its verb's parser.
Every call must give the same bytes whether it builds the parser or reuses
it after other calls.

The ``deep_nesting``, ``huge_integer`` and ``invalid_utf8`` documents cannot
be decoded: their lists nest past the recursion limit, an endpoint has more
digits than Python converts, and a name holds a byte that is not UTF-8.
Each ``*.decide.err`` fixture pins the one input-error line ``decide``
prints for it; the test runs in the document's directory and names it by
its file name, so the line does not depend on where the repository lies.
The ``duplicate_n`` document repeats its "n" key; a repeated key is an input
error, whichever value comes last, and its ``decide.err`` fixture pins the
line.  The ``lone_surrogate`` document decodes, but a graph name holds the escape
``\ud800``, which no UTF-8 text can hold; its ``decide.err`` fixture pins the
input error that ``decide`` and ``export-dot`` print before any output.
"""
from pathlib import Path

import pytest

from oblicon import cli
from oblicon.cli import build_parser, main

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
] + [
    ("chain8", "level3.dot", ["export-dot", "--level", "3"], 0),
    # without --horizon the oracle enumerates full levels, and chain(8)'s
    # sixth holds 8**6 patterns
    ("chain8", "verify.err", ["verify"], 3),
] + [
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


# (fixture name, argv, exit code, stream written); help exits 0 on stdout, a
# usage error exits 2 on stderr, both through SystemExit.
USAGE_CASES = [
    ("help", ["--help"], 0, "out"),
    ("decide_help", ["decide", "--help"], 0, "out"),
    ("oracle_help", ["oracle", "--help"], 0, "out"),
    ("verify_help", ["verify", "--help"], 0, "out"),
    ("simulate_help", ["simulate", "--help"], 0, "out"),
    ("generate_help", ["generate", "--help"], 0, "out"),
    ("export_dot_help", ["export-dot", "--help"], 0, "out"),
    ("verify_no_file", ["verify"], 2, "err"),
    # arguments the verb leaves over are refused by the top-level parser
    ("decide_unknown_option", ["decide", "tests/fixtures/chain8.json", "--bogus"], 2, "err"),
    ("decide_extra_argument", ["decide", "tests/fixtures/chain8.json", "extra"], 2, "err"),
]


UNDECODABLE = ["deep_nesting", "huge_integer", "invalid_utf8", "duplicate_n"]


def _fixture_call(doc, out, argv, code):
    """(argv, exit code, stdout, stderr) expected of one fixture case."""
    text = (FIXTURES / f"{doc}.{out}").read_text(encoding="utf-8")
    streams = ("", text) if out.endswith(".err") else (text, "")
    return [*argv, str(FIXTURES / f"{doc}.json")], code, *streams


def _usage_call(name, argv, code, stream):
    """(argv, exit code, stdout, stderr) expected of one usage case."""
    text = (FIXTURES / f"usage.{name}.txt").read_text(encoding="utf-8")
    return (argv, code, text, "") if stream == "out" else (argv, code, "", text)


def _run(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "doc,out,argv,code", CASES, ids=[f"{doc}.{out}" for doc, out, _, _ in CASES]
)
def test_cli_output_matches_fixture(doc, out, argv, code, capsys):
    argv, *expected = _fixture_call(doc, out, argv, code)
    assert list(_run(argv, capsys)) == expected


@pytest.mark.parametrize(
    "name,argv,code,stream", USAGE_CASES, ids=[name for name, *_ in USAGE_CASES]
)
def test_usage_output_matches_fixture(name, argv, code, stream, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    build_parser.cache_clear()  # this call builds the parser
    argv, *expected = _usage_call(name, argv, code, stream)
    assert list(_run(argv, capsys)) == expected


@pytest.mark.parametrize("padded", [False, True], ids=["plain", "padded"])
@pytest.mark.parametrize("doc", UNDECODABLE)
def test_undecodable_document_matches_fixture(doc, padded, capsys, monkeypatch, tmp_path):
    """The recorded line, exit 2; padded to 64 KiB before its "n", a text
    that reads as UTF-8 goes through the hooked decoder first."""
    expected = (FIXTURES / f"{doc}.decide.err").read_text(encoding="utf-8")
    data = (FIXTURES / f"{doc}.json").read_bytes()
    if padded:
        data = data.replace(b', "n"', b" " * cli._HOOKED_MIN + b', "n"')
    (tmp_path / f"{doc}.json").write_bytes(data)
    monkeypatch.chdir(tmp_path)
    made = []
    real = cli._decoder
    monkeypatch.setattr(cli, "_decoder", lambda n: made.append(n) or real(n))
    assert _run(["decide", f"{doc}.json"], capsys) == (2, "", expected)
    assert made == ([3] if padded and doc != "invalid_utf8" else [])


@pytest.mark.parametrize("padded", [False, True], ids=["plain", "padded"])
@pytest.mark.parametrize("verb", ["decide", "export-dot"])
def test_lone_surrogate_name_matches_fixture(verb, padded, capsys, monkeypatch, tmp_path):
    """The recorded line, exit 2, with nothing on stdout; padded to 64 KiB,
    the document is read by the hooked decoder first and then plainly."""
    expected = (FIXTURES / "lone_surrogate.decide.err").read_text(encoding="utf-8")
    data = (FIXTURES / "lone_surrogate.json").read_bytes()
    if padded:
        data = data.replace(b', "n"', b" " * cli._HOOKED_MIN + b', "n"')
    (tmp_path / "lone_surrogate.json").write_bytes(data)
    monkeypatch.chdir(tmp_path)
    made = []
    real = cli._decoder
    monkeypatch.setattr(cli, "_decoder", lambda n: made.append(n) or real(n))
    assert _run([verb, "lone_surrogate.json"], capsys) == (2, "", expected)
    assert made == ([2] if padded else [])


def test_repeated_calls_share_no_state(capsys, monkeypatch):
    """Every fixture case twice in one process, with a usage error and a
    help text between consecutive cases, then ``decide --trace`` right before
    a plain ``decide``: each call matches its fixture, exit code included."""
    monkeypatch.setenv("COLUMNS", "80")
    build_parser.cache_clear()  # the first call below builds the parser
    helps = [_usage_call(*c) for c in USAGE_CASES if c[3] == "out"]
    errors = [_usage_call(*c) for c in USAGE_CASES if c[3] == "err"]
    calls = []
    for k, case in enumerate(CASES * 2):
        calls += [_fixture_call(*case), errors[k % len(errors)], helps[k % len(helps)]]
    trace, plain = (
        _fixture_call("chain8", out, argv, 0)
        for out, argv in (("decide_trace.txt", ["decide", "--trace"]), ("decide.txt", ["decide"]))
    )
    calls += [trace, plain, trace, plain]
    for argv, *expected in calls:
        assert list(_run(argv, capsys)) == expected, argv
