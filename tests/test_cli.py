import errno
import hashlib
import io
import json
import os
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oblicon import cli
from oblicon.cli import (
    MAX_PROCESSES,
    adversary_from_doc,
    adversary_to_doc,
    load_adversary,
    main,
    save_adversary,
)
from oblicon.errors import AdversaryFormatError
from oblicon.families import (
    gen_chain,
    lossy_link,
    random_rooted,
    simple_chain_spec,
    source_broadcast,
)
from oblicon.graphs import CommunicationGraph
from oblicon.indist import Adversary


@pytest.fixture
def ll_file(tmp_path):
    path = tmp_path / "ll.json"
    save_adversary(lossy_link(2, 1), str(path))
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    save_adversary(gen_chain(simple_chain_spec(3)), str(path))
    return str(path)


def test_module_run_as_a_script_exits_with_mains_code(monkeypatch, capsys):
    import runpy
    import sys
    import warnings

    doc = Path(__file__).parent / "fixtures" / "lossy_link3_1.json"
    monkeypatch.setattr(sys, "argv", ["oblicon", "decide", str(doc)])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
        # runpy warns that the package already imported oblicon.cli
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module("oblicon.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == doc.with_name("lossy_link3_1.decide.txt").read_text()


def test_document_roundtrip(tmp_path):
    adv = gen_chain(simple_chain_spec(4))
    path = tmp_path / "adv.json"
    save_adversary(adv, str(path))
    again = load_adversary(str(path))
    assert again == adv


def test_roundtrip_normalizes_self_loops():
    doc = {
        "n": 2,
        "graphs": [{"name": "G", "edges": [[1, 1], [1, 2], [2, 2]]}],
    }
    adv = adversary_from_doc(doc)
    # loops are implicit on reload; saved form has only the real edge
    assert adversary_to_doc(adv) == {"n": 2, "graphs": [{"name": "G", "edges": [[1, 2]]}]}
    assert adversary_from_doc(adversary_to_doc(adv)) == adv


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_chain(simple_chain_spec(200)),
        lambda: lossy_link(4, 3),
        lambda: random_rooted(5, 40, 3),
        lambda: random_rooted(12, 1500, 1),
        lambda: source_broadcast(4, 1),
        # the writer's row edge cases: a graph with no edges, rows holding
        # only the self-loop, edges into and out of process n, n = 2, and
        # process numbers of one, two and three digits
        lambda: _unnamed(3, [], [(1, 2), (2, 3)]),
        lambda: _unnamed(4, [(2, 1), (2, 3)], [(1, 1), (2, 2), (4, 3)], [(4, 4)]),
        lambda: _unnamed(5, [(5, 1), (1, 5), (5, 4)], [(4, 5), (5, 5)]),
        lambda: _unnamed(2, [(1, 2)], [(2, 1)], [(1, 2), (2, 1)], []),
        lambda: _unnamed(
            120,
            [(1, 120), (120, 1), (99, 100), (100, 99), (9, 10), (10, 9), (105, 7)],
            [(u, u % 120 + 1) for u in range(1, 121)],
        ),
    ],
    ids=["chain200", "lossy_link4-3", "random_rooted5x40", "random_rooted12x1500",
         "source_broadcast4-1", "no-edges", "self-loop-rows", "process-n", "n2",
         "three-digits"],
)
def test_document_edges_are_the_graph_edges(make, tmp_path):
    # the document lists each graph's edges, and the streaming writer's
    # bytes are those of a plain dump of that document
    adv = make()
    doc = adversary_to_doc(adv)
    assert doc["n"] == adv.n
    assert doc["graphs"] == [
        {"name": g.name, "edges": [[u, v] for u, v in g.edges()]} for g in adv.graphs
    ]
    save_adversary(adv, str(tmp_path / "adv.json"))
    text = (tmp_path / "adv.json").read_text(encoding="utf-8")
    assert text == json.dumps(doc, sort_keys=True) + "\n"


def _unnamed(n: int, *edge_lists) -> Adversary:
    return Adversary([CommunicationGraph(n, edges) for edges in edge_lists])


# sha256 and length of `generate` output for every family, taken from the
# writer that dumped each graph's edge tuples with json.dumps
GENERATED = [
    (["chain", "--chain-len", "4"], 369,
     "e8425c6e8cecef56ee53d1a19442d6c8efa9635edeca2f2140814f3415014544"),
    (["chain", "--chain-len", "3", "--n", "120"], 3372,
     "b8de210c8c73abc566080b70112507d403089c7bcb3960e589f6b464e80ce691"),
    (["canonical-chain", "--n", "12", "--chain-len", "3"], 392,
     "26c667e183f012df66e77af5e82cfcf1b73c4cab5963066b8675693b71ec1ad9"),
    (["inflated", "--chain-len", "2", "--path-len", "2"], 187,
     "9c3c60a2172db92779d34c8c5b746a1b7aab6aae1d9ee2cc1d6918274ea6cd8d"),
    (["partitioned", "--blocks", "2", "--root-size", "3"], 3591,
     "748d8c26450f6a99580177af3f07650abf2a2bd4e1feff96608241b1ffe71966"),
    (["rooted-trees", "--n", "3"], 426,
     "55817a0a6225e9224ba0cccbc96e6a0886f78208e05ba41461e12858ef4bea30"),
    (["source-broadcast", "--n", "5", "--clique-size", "2"], 941,
     "c2f08e20d41921684bce455936ff40747a1c80742a88c57d2ee36d1a38d62f36"),
    (["lossy-link", "--n", "4", "--f", "2"], 8656,
     "0b92e4b38b79be7db78fb1e3e5d14ade87424bd0343092abac10d507ef26ab1c"),
    (["random-rooted", "--n", "12", "--count", "20", "--seed", "1"], 11587,
     "db62e5188beb4b70889d3dd9bb2f729d2a5d16a3e45b3ef9c0ccb6f87db43021"),
    (["random-rooted", "--n", "2", "--count", "2", "--seed", "3"], 91,
     "5547c00cbe9dedc8487e2236e1a956f2a32be67a804a2a9dd4fda9a06998359c"),
]


@pytest.mark.parametrize("argv,size,digest", GENERATED, ids=[" ".join(c[0]) for c in GENERATED])
def test_generate_output_keeps_its_bytes(argv, size, digest, tmp_path):
    out = tmp_path / "adv.json"
    assert main(["generate", *argv, "-o", str(out)]) == 0
    data = out.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_unnamed_document_loads_as_the_named_one():
    # a graph without a name is named G<k> in place, not rebuilt
    doc = adversary_to_doc(random_rooted(5, 40, 3))
    named = adversary_from_doc(doc)
    for entry in doc["graphs"]:
        del entry["name"]
    unnamed = adversary_from_doc(doc)
    assert unnamed == named and unnamed.names == tuple(f"G{k}" for k in range(1, 41))
    for g, h in zip(unnamed.graphs, named.graphs):
        parts = (g.name, g._out, g.root_mask, g.in_indices())
        assert parts == (h.name, h._out, h.root_mask, h.in_indices())
    assert adversary_to_doc(unnamed) == adversary_to_doc(named)
    # the duplicate message names an unnamed graph by its position
    doc["graphs"].append(doc["graphs"][1])
    with pytest.raises(AdversaryFormatError) as err:
        adversary_from_doc(doc)
    assert str(err.value) == "duplicate graph: 40 has the same adjacency as G2"


def test_document_rejects_unknown_fields():
    with pytest.raises(AdversaryFormatError):
        adversary_from_doc({"n": 2, "graphs": [], "extra": 1})
    with pytest.raises(AdversaryFormatError):
        adversary_from_doc({"n": 2, "graphs": [{"name": "G", "edges": [], "bogus": 1}]})
    with pytest.raises(AdversaryFormatError):
        adversary_from_doc({"n": "2", "graphs": [{"name": "G", "edges": []}]})
    with pytest.raises(AdversaryFormatError):
        adversary_from_doc({"n": 2, "graphs": [{"name": "G", "edges": [[1, 2, 3]]}]})


def test_decide_exit_codes(ll_file, chain_file, tmp_path, capsys):
    assert main(["decide", ll_file]) == 1
    out = capsys.readouterr().out
    assert "IMPOSSIBLE" in out and "iterations: 2" in out
    assert main(["decide", chain_file]) == 0
    assert "SOLVABLE" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "graphs": [{"name": "G", "edges": []}, {"name": "H", "edges": []}]}')
    # H duplicates G (both loop-only): input error
    assert main(["decide", str(bad)]) == 2


NOT_ROOTED_DOC = {
    "n": 2,
    "graphs": [{"name": "Ok", "edges": [[1, 2]]}, {"name": "Loops", "edges": []}],
}


def test_decide_not_rooted(tmp_path, capsys):
    path = tmp_path / "nr.json"
    path.write_text(json.dumps(NOT_ROOTED_DOC))
    assert main(["decide", str(path)]) == 1
    assert "IMPOSSIBLE-NOT-ROOTED" in capsys.readouterr().out


def test_decide_trace_and_json(chain_file, capsys):
    assert main(["decide", chain_file, "--trace", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "SOLVABLE"
    assert doc["removal_iterations"] == 2
    assert [e["edge"] for e in doc["removed"]] == [["G2", "G3"], ["G1", "G2"]]


def test_oracle_agreement(ll_file, capsys):
    assert main(["oracle", ll_file, "--rmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "no broadcastable horizon up to 4" in out
    assert "agreement: yes" in out


def test_oracle_budget_exit(ll_file, capsys):
    assert main(["oracle", ll_file, "--rmax", "12", "--budget", "50"]) == 3
    assert "budget" in capsys.readouterr().err


def test_verify_solvable(tmp_path, capsys):
    from oblicon.cli import save_adversary
    from oblicon.families import source_broadcast

    path = tmp_path / "sb.json"
    save_adversary(source_broadcast(3, 1), str(path))
    assert main(["verify", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["validity_violations"] == 0


def test_verify_impossible_witness(ll_file, capsys):
    assert main(["verify", ll_file]) == 1
    out = capsys.readouterr().out
    assert "no common broadcaster" in out


def test_simulate_verb(tmp_path, capsys):
    from oblicon.cli import save_adversary
    from oblicon.graphs import CommunicationGraph
    from oblicon.indist import Adversary

    d = Adversary(
        [
            CommunicationGraph(3, [(1, 2), (1, 3)], "G1"),
            CommunicationGraph(3, [(1, 2), (2, 3)], "G2"),
        ]
    )
    path = tmp_path / "pair.json"
    save_adversary(d, str(path))
    assert main(["simulate", str(path), "--pattern", "G1.G2", "--inputs", "x,y,z"]) == 0
    out = capsys.readouterr().out
    assert "adopt the input of p1" in out and "'x'" in out


FIXTURES = Path(__file__).parent / "fixtures"


def test_simulate_stops_at_the_deciding_round(capsys):
    # lossy_link(3,1) has 7 graphs and a min horizon of 2: seven rounds of
    # G1 would be 823,543 patterns, but the run is decided at round 2
    doc = str(FIXTURES / "lossy_link3_1.json")
    argv = ["simulate", doc, "--format", "json", "--pattern"]
    assert main(argv + ["G1.G1"]) == 0
    short = json.loads(capsys.readouterr().out)
    assert main(argv + [".".join(["G1"] * 7)]) == 0
    long = json.loads(capsys.readouterr().out)
    assert long.pop("pattern") == "G1.G1.G1.G1.G1.G1.G1"
    assert short.pop("pattern") == "G1.G1"
    assert long == short
    assert long["adopted_process"] == 1 and long["termination_ok"] is True


def test_verify_source_broadcast_extends_one_round(tmp_path, monkeypatch, capsys):
    # every run of source_broadcast(4,1) is decided at round 1, so horizon 8
    # builds one level of 4 patterns and still counts 4**8 runs per vector
    import oblicon.patterns
    from oblicon.families import source_broadcast

    path = tmp_path / "sb.json"
    save_adversary(source_broadcast(4, 1), str(path))
    calls = []
    extend = oblicon.patterns._extend

    def counting(*args):
        calls.append(args[0].rounds)
        return extend(*args)

    monkeypatch.setattr(oblicon.patterns, "_extend", counting)
    assert main(["verify", str(path), "--horizon", "8", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert calls == [0]
    assert '"runs": 131072' in out
    assert json.loads(out)["ok"] is True


SEPARATOR = "contains '.' or ','"
BLANK = "is empty or has leading or trailing whitespace"


@pytest.mark.parametrize(
    "name, problem",
    [
        pytest.param("x.y", SEPARATOR, id="x.y"),
        pytest.param("x,y", SEPARATOR, id="x,y"),
        pytest.param("", BLANK, id="empty"),
        pytest.param(" G", BLANK, id="leading-space"),
        pytest.param("H ", BLANK, id="trailing-space"),
        pytest.param("\tH", BLANK, id="leading-tab"),
    ],
)
def test_graph_name_with_pattern_separator_is_rejected(tmp_path, capsys, name, problem):
    # `simulate --pattern` splits on '.' and ',' and strips whitespace around
    # each name, so it could not address this graph
    doc = {"n": 2, "graphs": [{"name": "G", "edges": []}, {"name": name, "edges": [[1, 2]]}]}
    path = tmp_path / "sep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["decide"], ["simulate", "--pattern", name]):
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: graph 1 name {name!r} {problem}\n"


def test_generate_families(tmp_path):
    out = tmp_path / "g.json"
    assert main(["generate", "lossy-link", "--n", "2", "--f", "1", "-o", str(out)]) == 0
    assert len(load_adversary(str(out))) == 3
    assert main(["generate", "chain", "--chain-len", "4", "-o", str(out)]) == 0
    assert len(load_adversary(str(out))) == 4
    assert main(["generate", "partitioned", "--blocks", "1", "--root-size", "1", "-o", str(out)]) == 0
    assert len(load_adversary(str(out))) == 3
    assert main(["generate", "canonical-chain", "--n", "12", "--chain-len", "3", "-o", str(out)]) == 0
    assert len(load_adversary(str(out))) == 3
    assert main(["generate", "inflated", "--chain-len", "2", "--path-len", "2", "-o", str(out)]) == 0
    assert len(load_adversary(str(out))) == 2


def test_generate_random_requires_seed(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["generate", "random-rooted", "--n", "3", "--count", "2", "-o", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert main(
        ["generate", "random-rooted", "--n", "3", "--count", "2", "--seed", "5", "-o", str(out)]
    ) == 0


@pytest.mark.parametrize(
    "family", ["canonical-chain", "rooted-trees", "source-broadcast", "lossy-link", "random-rooted"]
)
def test_generate_without_n_is_an_input_error(family, capsys):
    assert main(["generate", family, "--seed", "1", "-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {family} requires --n\n"


def test_generate_rejects_n_above_the_process_limit(monkeypatch, capsys):
    # decide would refuse the document, so none is built
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built for an oversized --n")

    monkeypatch.setattr(cli.families, "random_rooted", refuse)
    n = MAX_PROCESSES + 4
    argv = ["generate", "random-rooted", "--n", str(n), "--count", "1", "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: 'n' is {n}; at most {MAX_PROCESSES} processes are supported\n"
    )


def _refuse_graphs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built for a refused family")

    monkeypatch.setattr(cli.families, "CommunicationGraph", refuse)


@pytest.mark.parametrize(
    "options,n",
    [
        (["chain", "--chain-len", "5000"], 5014),
        (["partitioned", "--root-size", "900"], 4501),
        (["inflated", "--chain-len", "2", "--path-len", "4200"], 4206),
    ],
    ids=["chain", "partitioned", "inflated"],
)
def test_generate_rejects_a_derived_n_above_the_process_limit(monkeypatch, capsys, options, n):
    # the family derives n from its other options; it is checked before any graph is built
    _refuse_graphs(monkeypatch)
    assert main(["generate", *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: 'n' is {n}; at most {MAX_PROCESSES} processes are supported\n"
    )


@pytest.mark.parametrize(
    "family,n,message",
    [
        ("canonical-chain", 0, "canonical chain needs n >= 12, got 0"),
        ("canonical-chain", -12, "canonical chain needs n >= 12, got -12"),
        ("rooted-trees", 1, "rooted trees need n >= 2, got 1"),
    ],
    ids=["canonical-chain-0", "canonical-chain-negative", "rooted-trees-1"],
)
def test_generate_rejects_a_degenerate_n(family, n, message, capsys):
    assert main(["generate", family, "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_generate_refuses_more_random_graphs_than_exist(monkeypatch, capsys):
    # 3 processes have 6 possible edges, so at most 2**6 distinct graphs
    _refuse_graphs(monkeypatch)
    argv = ["generate", "random-rooted", "--n", "3", "--count", "100", "--seed", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot sample 100 distinct graphs on n=3: at most 64 exist\n"


def test_generate_refuses_more_rooted_graphs_than_exist(monkeypatch, capsys):
    # 60 of the 64 graphs on 3 processes fit, but only 51 are rooted: the
    # count is refused before sampling instead of retrying until it gives up
    _refuse_graphs(monkeypatch)
    argv = ["generate", "random-rooted", "--n", "3", "--count", "60", "--seed", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot sample 60 distinct rooted graphs on n=3: only 51 exist\n"


@pytest.mark.parametrize(
    "options,message",
    [
        (["source-broadcast", "--n", "40", "--clique-size", "20"],
         "source-broadcast on n=40 would build at least 137846528820 graphs"),
        (["lossy-link", "--n", "8", "--f", "6"],
         "lossy-link on n=8, f=6 would build at least 396607 graphs"),
        (["random-rooted", "--n", "5", "--count", "1000000", "--seed", "0"],
         "random-rooted on n=5 would build at least 1000000 graphs"),
    ],
    ids=["source-broadcast", "lossy-link", "random-rooted"],
)
def test_generate_refuses_a_family_over_the_graph_cap(monkeypatch, capsys, options, message):
    # the graphs are counted before any is built; building them would run for minutes
    _refuse_graphs(monkeypatch)
    t0 = time.perf_counter()
    assert main(["generate", *options, "-o", "-"]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}; at most 65536 are built\n"


@pytest.mark.parametrize("m", ["0", "-1"])
def test_generate_partitioned_rejects_a_root_size_below_one(monkeypatch, capsys, m):
    _refuse_graphs(monkeypatch)
    assert main(["generate", "partitioned", "--root-size", m, "-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need t >= 1 blocks and root size m >= 1\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_restores_the_collector_state(monkeypatch, ll_file, chain_file, capsys, enabled):
    # the collector is paused while a verb runs, and main leaves it as the
    # caller had it on every exit code
    import gc

    calls = {
        0: ["decide", chain_file],
        1: ["decide", ll_file],
        2: ["generate", "random-rooted", "--n", "3", "--count", "2"],
        3: ["oracle", ll_file, "--rmax", "12", "--budget", "50"],
    }
    during = []

    def decide(*args, **kwargs):
        during.append(gc.isenabled())
        return real(*args, **kwargs)

    real = cli.decide
    monkeypatch.setattr(cli, "decide", decide)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for code, argv in calls.items():
            assert main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert during and not any(during)


def _dense_level_one(path, m: int = 60, apart: bool = True) -> int:
    """Write a 12-process document of m graphs in which p1 hears only
    itself, and with ``apart`` one more graph in which p1 hears p2, the
    graph's root, so that ``decide`` reads level 1's labels; return its
    level-1 pairs, counted once per process that shares an
    in-neighbourhood."""
    from collections import Counter

    from oblicon.graphs import CommunicationGraph
    from oblicon.indist import Adversary

    n = 12
    graphs = [
        CommunicationGraph(
            n, [(1, v) for v in range(2, n + 1)] + [(2 + j, 3 + j) for j in range(7) if k >> j & 1]
        )
        for k in range(m)
    ]
    if apart:
        graphs.append(CommunicationGraph(n, [(2, 1)] + [(1, v) for v in range(3, n + 1)]))
    d = Adversary(graphs)
    save_adversary(d, str(path))
    return sum(c * (c - 1) // 2 for col in zip(*(g._in for g in d.graphs)) for c in Counter(col).values())


@pytest.mark.parametrize("verb", [["decide"], ["export-dot", "--level", "1"], ["oracle"]])
def test_dense_level_one_exits_3_before_building_pairs(monkeypatch, tmp_path, capsys, verb):
    # every pair of graphs but the last shares p1's in-neighbourhood, so
    # the level-1 pairs grow with the square of the graphs; the roots share
    # no process and p3's groups hold no graph rooted at p3 alone, so each
    # verb reads the labels, whose pairs are counted first and refused
    # above the cap, here lowered, with exit 3
    import oblicon.indist

    path = tmp_path / "dense.json"
    pairs = _dense_level_one(path)
    every = 61 * 60 // 2
    assert pairs > every
    monkeypatch.setattr(oblicon.indist, "MAX_LEVEL1_PAIRS", every - 1)
    t0 = time.perf_counter()
    assert main([verb[0], str(path), *verb[1:]]) == 3
    assert time.perf_counter() - t0 < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"budget error: the 1-round pattern graph has up to {pairs} indistinguishable "
        f"pairs, over the budget of {every - 1}\n"
    )
    # the pairs counted once per process exceed a cap of all pairs of
    # graphs, but the labels hold at most those, so the graph is built
    monkeypatch.setattr(oblicon.indist, "MAX_LEVEL1_PAIRS", every)
    assert main(["decide", str(path)]) in (0, 1)


def test_decide_above_the_level_one_cap_judges_from_groups(monkeypatch, tmp_path, capsys):
    # the cap bounds the labels, not the groups: a verdict read from the
    # groups and components is given however many pairs the labels hold
    import oblicon.indist

    dense = tmp_path / "dense.json"
    assert _dense_level_one(dense, apart=False) > 60 * 59 // 2
    with monkeypatch.context() as patched:
        patched.setattr(oblicon.indist, "MAX_LEVEL1_PAIRS", 60 * 59 // 2 - 1)
        # one component, every graph rooted at p1: compatible at level 1
        assert main(["decide", str(dense)]) == 0
    # lossy_link(5,4) has 6,196 graphs: certified at iteration 2 under the
    # default cap, while a verb that reads its labels still refuses them
    path = tmp_path / "ll54.json"
    assert main(["generate", "lossy-link", "--n", "5", "--f", "4", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["decide", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["iterations"]) == ("IMPOSSIBLE", 2)
    assert main(["export-dot", str(path), "--level", "1"]) == 3
    assert capsys.readouterr().err == (
        "budget error: the 1-round pattern graph has up to 20965250 indistinguishable "
        "pairs, over the budget of 1048576\n"
    )


def test_generator_output_under_the_level_one_cap_is_decided(tmp_path, capsys):
    # lossy_link(7,2) has 904 graphs: its level-1 pairs, counted once per
    # process, exceed the cap, but all 408,156 pairs of graphs fit under it
    path = tmp_path / "ll72.json"
    assert main(["generate", "lossy-link", "--n", "7", "--f", "2", "-o", str(path)]) == 0
    assert main(["decide", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "SOLVABLE"


class _FullDisk(io.StringIO):
    """A file that opens but takes no write, as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_save_adversary_pauses_the_collector(monkeypatch, tmp_path, enabled):
    # a library caller saves outside main: every graph is encoded with the
    # collector paused, the bytes are those of a plain dump, and the caller's
    # state comes back, after a failed open and a failed write too
    import gc

    d = random_rooted(4, 12, 5)
    reference = json.dumps(adversary_to_doc(d), sort_keys=True) + "\n"
    during = []

    def edges_text(g):
        during.append(gc.isenabled())
        return real(g)

    real = cli._edges_text
    monkeypatch.setattr(cli, "_edges_text", edges_text)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        save_adversary(d, str(tmp_path / "adv.json"))
        assert gc.isenabled() is enabled
        # the output is opened before any graph is encoded
        with pytest.raises(AdversaryFormatError, match="^cannot write .*missing"):
            save_adversary(d, str(tmp_path / "missing" / "adv.json"))
        assert gc.isenabled() is enabled
        # a write that fails after the open is the same input error
        monkeypatch.setattr(cli, "open", lambda *a, **k: _FullDisk(), raising=False)
        with pytest.raises(AdversaryFormatError, match=r"^cannot write full\.json: \[Errno 28\] "):
            save_adversary(d, "full.json")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # each graph of the written save, then the first graph of the failed write
    assert during == [False] * (len(d) + 1)
    assert (tmp_path / "adv.json").read_text(encoding="utf-8") == reference


def test_generate_to_a_full_disk_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "open", lambda *a, **k: _FullDisk(), raising=False)
    assert main(["generate", "chain", "--chain-len", "3", "-o", "full.json"]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: cannot write full.json: [Errno 28] {os.strerror(errno.ENOSPC)}\n"


def _graphs(*entries: str) -> str:
    return '{"graphs": [' + ", ".join(entries) + "]"


# documents whose load takes the hooked decode (n) or only the plain one
# (None); each case is loaded both ways, and must give the same adversary or
# the same error
_DECODE_CASES = {
    "n-first": (None, '{"n": 3, "graphs": [{"edges": [[1, 2]], "name": "A"}]}'),
    "indented": (3, json.dumps(
        {"graphs": [{"edges": [[1, 2], [2, 3]], "name": "A"}, {"edges": [], "name": "B"}], "n": 3},
        indent=2, sort_keys=True) + "\n"),
    "escaped-n-key": (3, _graphs('{"edges": [[1, 2]], "name": "A"}') + ', "n": 4, "a\\"n": 3}'),
    "n-3": (3, _graphs('{"edges": [[1, 2]], "name": "A"}', '{"edges": [[2, 1], [3, 1]]}')
            + ', "n": 3}\n\n'),
    "true-endpoint": (None, _graphs('{"edges": [[true, 2]], "name": "A"}') + ', "n": 3}'),
    "n-1": (1, _graphs('{"edges": [], "name": "A"}') + ', "n": 1}'),
    "n-5000": (None, _graphs('{"edges": [[1, 2]], "name": "A"}') + ', "n": 5000}'),
    "malformed-edge-in-graph-3": (3, _graphs(
        *(f'{{"edges": [[1, {v}]]}}' for v in (2, 3)), '{"edges": [[2, 3]]}',
        '{"edges": [[3, 1], [2]]}') + ', "n": 3}'),
    "out-of-range-edge": (3, _graphs('{"edges": [[1, 9]], "name": "A"}') + ', "n": 3}'),
    "object-in-an-edge": (3, _graphs('{"edges": [[{"edges": [[1, 2]]}, 2]], "name": "A"}')
                          + ', "n": 3}'),
    "non-string-name": (3, _graphs('{"edges": [[1, 2]], "name": 5}') + ', "n": 3}'),
    "missing-names": (3, _graphs('{"edges": [[1, 2]]}', '{"edges": [[2, 1]]}') + ', "n": 3}'),
    "unknown-graph-field": (3, _graphs('{"edges": [[1, 2]], "name": "A", "x": 1}') + ', "n": 3}'),
    "unknown-top-level-edges": (3, '{"edges": [[1, 2]], "graphs": [{"edges": [[2, 1]]}], "n": 3}'),
    "graphs-object": (3, '{"graphs": {"edges": [[1, 2]], "name": "A"}, "n": 3}'),
    "byte-order-mark": (3, "\ufeff" + _graphs('{"edges": [[1, 2]], "name": "A"}') + ', "n": 3}'),
    "invalid-json-after-two-graphs": (3, '{"graphs": [{"edges": [[1, 2]], "name": "A"}, '
                                         '{"edges": [[2, 1]], "name": "B"}, {"edges": [[1 "n": 3}'),
}


@pytest.mark.parametrize("case", list(_DECODE_CASES))
def test_hooked_decode_matches_the_plain_one(monkeypatch, tmp_path, capsys, case):
    hooked_n, text = _DECODE_CASES[case]
    path = tmp_path / "adv.json"
    path.write_text(text, encoding="utf-8")
    made = []
    real = cli._decoder
    monkeypatch.setattr(cli, "_decoder", lambda n: made.append(n) or real(n))
    monkeypatch.setattr(cli, "_HOOKED_MIN", 0)  # the cases are tiny documents
    try:
        plain = adversary_from_doc(json.loads(text))
    except json.JSONDecodeError as exc:
        plain = AdversaryFormatError(f"{path} is not valid JSON: {exc}")
    except AdversaryFormatError as exc:
        plain = exc
    try:
        loaded = load_adversary(str(path))
    except AdversaryFormatError as exc:
        loaded = exc
    assert made == ([] if hooked_n is None else [hooked_n])
    if not isinstance(plain, Exception):
        assert loaded == plain and [g.name for g in loaded.graphs] == list(plain.names)
        return
    assert isinstance(loaded, AdversaryFormatError) and str(loaded) == str(plain)
    hooked_call = main(["decide", str(path)]), capsys.readouterr()
    monkeypatch.setattr(cli, "_HOOKED_MIN", float("inf"))  # every text decoded plainly
    assert (main(["decide", str(path)]), capsys.readouterr()) == hooked_call
    assert hooked_call[0] == 2 and hooked_call[1].err == f"input error: {plain}\n"


# documents with an object that repeats a key, the key, and the n their tail
# gives the hooked decoder
_REPEATED_KEYS = {
    "edges-twice": ('edges', 3, _graphs('{"edges": [[1, 2]], "name": "A"}',
                                        '{"edges": [[2, 1]], "name": "B", "edges": [[2, 3]]}')
                    + ', "n": 3}'),
    "same-name-twice": ('name', 3, _graphs('{"edges": [[1, 2]], "name": "A", "name": "A"}')
                        + ', "n": 3}'),
    "n-first-and-last": ('n', 3, '{"n": 2, ' + _graphs('{"edges": [[1, 2]], "name": "A"}')[1:]
                         + ', "n": 3}'),
    "graphs-twice": ('graphs', 3, _graphs('{"edges": [[1, 2]], "name": "A"}')
                     + ', "graphs": [], "n": 3}'),
}


@pytest.mark.parametrize("case", list(_REPEATED_KEYS))
def test_repeated_key_is_an_input_error_on_both_decode_paths(monkeypatch, tmp_path, capsys, case):
    key, hooked_n, text = _REPEATED_KEYS[case]
    path = tmp_path / "adv.json"
    path.write_text(text, encoding="utf-8")
    made = []
    real = cli._decoder
    monkeypatch.setattr(cli, "_decoder", lambda n: made.append(n) or real(n))
    expected = (2, "", f"input error: {path} repeats the key {key!r} in one object\n")
    for gate, hooked in ((0, [hooked_n]), (float("inf"), [])):
        monkeypatch.setattr(cli, "_HOOKED_MIN", gate)
        made.clear()
        code = main(["decide", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
        assert made == hooked


@pytest.fixture(scope="module")
def rr_document(tmp_path_factory):
    # random_rooted(12,1500,1) writes an 884 KB document; the graphs it loads
    # into take about 2 MB, and a whole document's edge lists about 12 MB
    adv = random_rooted(12, 1500, 1)
    path = str(tmp_path_factory.mktemp("rr") / "rr.json")
    save_adversary(adv, path)
    load_adversary(path)  # the decoder and the per-n caches are kept
    return adv, path


def _traced_peak(run):
    """``run()`` and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_adversary_holds_one_graph_at_a_time(rr_document, tmp_path):
    adv, _ = rr_document
    path = tmp_path / "rr.json"
    _, peak = _traced_peak(lambda: save_adversary(adv, str(path)))
    assert peak < 1 << 20
    assert path.read_text(encoding="utf-8") == json.dumps(adversary_to_doc(adv), sort_keys=True) + "\n"


def test_load_adversary_holds_one_graph_at_a_time(rr_document):
    adv, path = rr_document
    loaded, peak = _traced_peak(lambda: load_adversary(path))
    assert loaded == adv
    assert peak < 4 << 20


# names as load_adversary takes them: no '.' or ',' or lone surrogate, not
# blank at either end; quotes, backslashes and non-ASCII are escaped by the
# writer, and a 't' sends the text down the plain decode
_names = st.text(
    st.one_of(
        st.sampled_from('"\\t\u00e9\u2603\U0001d11e'),
        st.characters(blacklist_categories=("Cs",), blacklist_characters=".,"),
    ),
    min_size=1, max_size=6,
).filter(lambda s: s == s.strip())


@st.composite
def named_adversaries(draw):
    # one- to three-digit process numbers, for the writer's rows
    n = draw(st.one_of(st.integers(2, 5), st.sampled_from([9, 10, 99, 100, 101, 130])))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    edge_sets = draw(st.lists(st.frozensets(st.sampled_from(pairs)), min_size=1, max_size=4, unique=True))
    names = draw(st.lists(_names, min_size=len(edge_sets), max_size=len(edge_sets), unique=True))
    return Adversary([CommunicationGraph(n, sorted(e), name) for e, name in zip(edge_sets, names)])


@given(named_adversaries())
@example(Adversary([CommunicationGraph(3, [(1, 2)], 'a"\u00e9'), CommunicationGraph(3, [], "\\")]))
@settings(max_examples=80, deadline=None)
def test_saved_document_is_the_plain_dump_and_loads_back(adv):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "adv.json")
        save_adversary(adv, path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == json.dumps(adversary_to_doc(adv), sort_keys=True) + "\n"
        assert load_adversary(path) == adv
        with mock.patch.object(cli, "_HOOKED_MIN", 0):  # a name without a 't' takes the hook
            assert load_adversary(path) == adv


def test_simulate_json_reports_a_missing_rule_as_verify_does(capsys):
    # chain(8) is not broadcastable within two rounds, so no rule exists for G1.G2
    doc = str(Path(__file__).parent / "fixtures" / "chain8.json")
    assert main(["simulate", doc, "--pattern", "G1.G2", "--format", "json"]) == 1
    simulated = capsys.readouterr()
    assert main(["verify", doc, "--horizon", "2", "--format", "json"]) == 1
    verified = capsys.readouterr()
    assert simulated.err == verified.err == ""
    assert simulated.out == verified.out
    assert json.loads(simulated.out)["non_broadcastable_component_size"] == 56


@pytest.mark.parametrize(
    "argv",
    [["oracle"], ["verify"], ["simulate", "--pattern", "G1"], ["export-dot", "--rounds", "1"]],
    ids=lambda argv: argv[0],
)
def test_negative_budget_is_an_input_error(argv, capsys):
    doc = str(Path(__file__).parent / "fixtures" / "lossy_link3_1.json")
    verb, *options = argv
    assert main([verb, doc, *options, "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget must be non-negative, got -1\n"
    # a zero budget is a budget every pattern level exceeds
    assert main([verb, doc, *options, "--budget", "0"]) == 3
    assert capsys.readouterr().err.startswith("budget error: ")


def test_export_dot_levels(ll_file, capsys):
    # catalog names: G1 = complete, G2 = only 2->1, G3 = only 1->2
    assert main(["export-dot", ll_file]) == 0
    dot1 = capsys.readouterr().out
    assert dot1.startswith("graph indist {") and '"G1" -- "G2" [label="{p1}"]' in dot1
    assert main(["export-dot", ll_file, "--level", "2"]) == 0
    dot2 = capsys.readouterr().out
    assert dot2 == dot1  # lossy-link fixpoint keeps every edge
    assert main(["export-dot", ll_file, "--rounds", "2"]) == 0
    dotp = capsys.readouterr().out
    assert '"G1.G2"' in dotp


def test_export_dot_level_output(chain_file, capsys):
    assert main(["export-dot", chain_file, "--level", "2"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph indist {")
    # level 2 of the 3-chain has dropped the rightmost edge
    assert '"G1" -- "G2"' in dot and '"G2" -- "G3"' not in dot


def test_export_dot_level_past_early_exit(capsys):
    # decide on lossy_link(3,1) stops early, but export-dot refines to the
    # fixpoint, so a level past it is the fixpoint level
    fixtures = Path(__file__).parent / "fixtures"
    assert main(["export-dot", str(fixtures / "lossy_link3_1.json"), "--level", "99"]) == 0
    assert capsys.readouterr().out == (fixtures / "lossy_link3_1.level2.dot").read_text()


@pytest.mark.parametrize(
    "doc, options, message",
    [
        (None, ["--level", "0"], "levels are numbered from 1"),
        # a document that is not rooted has only level 1, so no file is written
        (NOT_ROOTED_DOC, ["--level", "2"], "trace has no levels (input was not rooted)"),
        # --rounds exports a pattern graph, which has no refinement level
        (None, ["--level", "3", "--rounds", "1"], "--level and --rounds exclude each other"),
    ],
    ids=["zero", "not_rooted", "level_and_rounds"],
)
def test_export_dot_refused_level_prints_nothing(tmp_path, doc, options, message, capsys):
    if doc is None:
        path = str(Path(__file__).parent / "fixtures" / "chain8.json")
    else:
        path = _write_doc(tmp_path, doc)
    out = tmp_path / "level.dot"
    assert main(["export-dot", path, *options, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_export_dot_pair_budget_exit(capsys):
    # lossy_link(3,1) has 49 two-round patterns, inside the budget, but 228
    # pairs that share some process's view
    doc = str(Path(__file__).parent / "fixtures" / "lossy_link3_1.json")
    assert main(["export-dot", doc, "--rounds", "2", "--budget", "100"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget error: the 2-round pattern graph has up to 228 indistinguishable "
        "pairs, over the budget of 100\n"
    )


def test_oracle_default_rmax_hits_budget(chain_file, capsys):
    # without --rmax the search runs to the decide bound; the chain's smallest
    # broadcastable horizon is 4, so a 50-node budget stops the sweep first
    assert main(["oracle", chain_file, "--budget", "50"]) == 3
    err = capsys.readouterr().err
    assert "budget" in err and "81" in err
    assert main(["oracle", chain_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["min_horizon"] == 4 and doc["agrees"] is True


@pytest.mark.parametrize(
    "verb,option,value",
    [("verify", "--horizon", "-1"), ("export-dot", "--rounds", "-1"), ("oracle", "--rmax", "-2")],
)
def test_negative_round_count_is_an_input_error(chain_file, verb, option, value, capsys):
    # chain(3) is SOLVABLE, so an oracle that searched no round would disagree
    assert main([verb, chain_file, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: round count must be non-negative, got {value}\n"


@pytest.mark.parametrize(
    "verb,option", [("verify", "--horizon"), ("export-dot", "--rounds")]
)
def test_huge_round_count_is_a_budget_error(ll_file, verb, option, capsys):
    # 3**10000 has 4,772 digits: the count must not be built, let alone printed
    assert main([verb, ll_file, option, "10000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget error: enumerating all 10000-round patterns exceeds the budget "
        "of 200000 nodes\n"
    )


def test_cli_byte_determinism(ll_file, chain_file, tmp_path, capsys):
    commands = [
        ["decide", ll_file, "--trace"],
        ["decide", chain_file, "--trace", "--format", "json"],
        ["oracle", ll_file, "--rmax", "3", "--format", "json"],
        ["verify", chain_file, "--horizon", "1", "--format", "json"],
        ["export-dot", ll_file, "--rounds", "2"],
    ]
    for argv in commands:
        main(argv)
        first = capsys.readouterr()
        main(argv)
        second = capsys.readouterr()
        assert first.out == second.out and first.err == second.err

    gen = ["generate", "random-rooted", "--n", "3", "--count", "3", "--seed", "9", "-o", "-"]
    main(gen)
    first = capsys.readouterr()
    main(gen)
    second = capsys.readouterr()
    assert first.out == second.out


def _write_doc(tmp_path, doc, name="adv.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_decide_long_path_graph(tmp_path, capsys):
    # root finding must not recurse once per process
    n = 1200
    doc = {"n": n, "graphs": [{"name": "P", "edges": [[i, i + 1] for i in range(1, n)]}]}
    assert main(["decide", _write_doc(tmp_path, doc), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["verdict"] == "SOLVABLE"


def test_decide_reversed_long_path_graph(tmp_path, capsys):
    # edges run against the candidate order of the root search
    n = 1200
    doc = {"n": n, "graphs": [{"name": "P", "edges": [[i + 1, i] for i in range(1, n)]}]}
    assert main(["decide", _write_doc(tmp_path, doc), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["verdict"] == "SOLVABLE"


@pytest.mark.parametrize("n", [MAX_PROCESSES + 1, 10**12])
def test_decide_rejects_oversized_n_before_building(tmp_path, capsys, monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built for an oversized document")

    monkeypatch.setattr(cli, "CommunicationGraph", refuse)
    doc = {"n": n, "graphs": [{"name": "G", "edges": []}]}
    assert main(["decide", _write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: 'n' is {n}; at most {MAX_PROCESSES} processes are supported\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": True, "graphs": [{"name": "G", "edges": []}]}, "'n' must be an integer"),
        ({"n": 2, "graphs": [{"name": "G", "edges": [[True, 2]]}]}, "malformed edge"),
        ({"n": 2, "graphs": [{"name": "G", "edges": [[2, True]]}]}, "malformed edge"),
        ({"n": 3, "graphs": [{"name": "G", "edges": [[False, 1]]}]}, "malformed edge"),
        ({"n": 3, "graphs": [{"name": "Gtrue", "edges": [[1, 2], [True, 2]]}]}, "malformed edge"),
    ],
)
def test_decide_rejects_json_booleans_as_integers(tmp_path, capsys, doc, message):
    assert main(["decide", _write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err
    # a dict has no text to search, so its types are always read
    with pytest.raises(AdversaryFormatError, match=message):
        adversary_from_doc(doc)


def test_true_inside_a_name_loads_as_from_the_dict(tmp_path):
    # the loader reads the endpoints' types when the text holds a 't', the
    # first letter of the one JSON token the graph build would accept
    doc = {"n": 3, "graphs": [{"name": "Gtrue", "edges": [[1, 2], [2, 3]]}]}
    assert load_adversary(_write_doc(tmp_path, doc)) == adversary_from_doc(doc)


def test_export_dot_escapes_names(tmp_path, capsys):
    doc = {
        "n": 2,
        "graphs": [
            {"name": 'a"b', "edges": [[1, 2]]},
            {"name": "c\\d", "edges": [[1, 2], [2, 1]]},
        ],
    }
    assert main(["export-dot", _write_doc(tmp_path, doc)]) == 0
    dot = capsys.readouterr().out
    assert dot == (
        "graph indist {\n"
        '  "a\\"b";\n'
        '  "c\\\\d";\n'
        '  "a\\"b" -- "c\\\\d" [label="{p2}"];\n'
        "}\n"
    )


MALFORMED_EDGES = [True, 2.0, "12", None, [1], [1, 2, 3], {"u": 1, "v": 2}, [[1], 2]]
# the graph build itself raises on a float endpoint, one equal to a process too
MALFORMED_EDGES += [[2.0, 1], [1, 2.0], [1.5, 2], [2, 1.5]]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", MALFORMED_EDGES, ids=repr)
def test_malformed_edge_is_named_wherever_it_sits(tmp_path, capsys, bad, where):
    good = [[1, 2], [2, 3], [3, 1], [1, 3]]
    at = {"first": 0, "middle": 2, "last": len(good)}[where]
    edges = good[:at] + [bad] + good[at:]
    doc = {"n": 3, "graphs": [{"name": "A", "edges": good}, {"name": "B", "edges": edges}]}
    assert main(["decide", _write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: graph 1 has a malformed edge: {bad!r}\n"


@pytest.mark.parametrize("bad", [[1, True], [2.0, 1], [1, 1.5], "12"], ids=repr)
def test_malformed_edge_is_named_after_an_out_of_range_one(tmp_path, capsys, bad):
    # the out-of-range edge stops the graph build first, but a malformed
    # edge anywhere in the list is the one named
    doc = {"n": 3, "graphs": [{"name": "A", "edges": [[1, 2], [1, 9], [2, 3], bad]}]}
    assert main(["decide", _write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"input error: graph 0 has a malformed edge: {bad!r}\n"
    doc["graphs"][0]["edges"].pop()
    assert main(["decide", _write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == "input error: graph 0: edge (1,9) out of range 1..3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["export-dot", "{doc}"],
        ["generate", "chain"],
    ],
    ids=["export-dot", "generate"],
)
def test_unwritable_output_is_an_input_error(chain_file, tmp_path, capsys, argv):
    out = str(tmp_path / "missing" / "out.dot")
    assert main([arg.format(doc=chain_file) for arg in argv] + ["-o", out]) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith(f"input error: cannot write {out}: ")
    assert err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


LOSSY_LINK3_1 = str(Path(__file__).parent / "fixtures" / "lossy_link3_1.json")
RANDOM_ROOTED4_5_0 = str(Path(__file__).parent / "fixtures" / "random_rooted4_5_0.json")


@pytest.mark.parametrize(
    "text, argv, error",
    [
        ("[]", ["decide"], "document must be a JSON object"),
        ('{"n": 2}', ["decide"], "document needs 'n' and 'graphs'"),
        ('{"n": 2, "graphs": []}', ["decide"], "'graphs' must be a non-empty list"),
        ('{"n": 2, "graphs": {}}', ["decide"], "'graphs' must be a non-empty list"),
        ('{"n": 2, "graphs": [[]]}', ["decide"], "graph 0 must be an object"),
        ('{"n": 2, "graphs": [{"name": 1}]}', ["decide"], "graph 0 name must be a string"),
        ('{"n": 2, "graphs": [{"edges": {}}]}', ["decide"], "graph 0 edges must be a list"),
        ("{", ["decide"],
         "{doc} is not valid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        # the OS message after the path is matched by prefix only
        (None, ["decide", "{doc}.missing"], "cannot read {doc}.missing: "),
        (None, ["simulate", LOSSY_LINK3_1, "--pattern", "G1.Gx"], "unknown graph name 'Gx'"),
        (None, ["simulate", LOSSY_LINK3_1, "--pattern", "G1", "--inputs", "x,y"],
         "need 3 inputs, got 2"),
        # an empty or blank pattern names no graph, so it is no run
        (None, ["simulate", RANDOM_ROOTED4_5_0, "--pattern", ""], "unknown graph name ''"),
        (None, ["simulate", RANDOM_ROOTED4_5_0, "--pattern", " "], "unknown graph name ''"),
        (None, ["simulate", RANDOM_ROOTED4_5_0, "--pattern", "G1..G2"], "unknown graph name ''"),
    ],
    ids=[
        "not_an_object", "no_graphs", "empty_graphs", "graphs_not_a_list", "graph_not_an_object",
        "name_not_a_string", "edges_not_a_list", "invalid_json", "unreadable_path",
        "unknown_graph_name", "wrong_input_count", "empty_pattern", "blank_pattern",
        "empty_pattern_name",
    ],
)
def test_input_error_exits_2_with_one_line(tmp_path, capsys, text, argv, error):
    doc = tmp_path / "adv.json"
    if text is not None:
        doc.write_text(text, encoding="utf-8")
        argv = [*argv, str(doc)]
    argv = [arg.format(doc=doc) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = f"input error: {error.format(doc=doc)}"
    if line.endswith(": "):
        assert captured.err.startswith(line) and captured.err.count("\n") == 1
    else:
        assert captured.err == line + "\n"


DOC = "tests/fixtures/chain8.json"
ROUTED_ARGVS = {
    # every verb with valid arguments
    "decide": ["decide", DOC, "--trace", "--no-early-exit", "--format=json"],
    "oracle": ["oracle", DOC, "--rmax", "3", "--budget", "10", "--format", "json"],
    "verify": ["verify", DOC, "--horizon", "2", "--format=json"],
    "simulate": ["simulate", DOC, "--pattern", "G1.G2", "--inputs", "a,b"],
    "generate": ["generate", "chain", "--n", "3", "--chain-len", "2", "-o", "out.json"],
    "export-dot": ["export-dot", DOC, "--level", "2", "-o", "out.dot"],
    **{f"{verb}_help": [verb, "--help"] for verb in
       ("decide", "oracle", "verify", "simulate", "generate", "export-dot")},
    "missing_file": ["decide"],
    "bad_choice": ["decide", DOC, "--format", "xml"],
    "bad_int": ["oracle", DOC, "--rmax", "x"],
    "ambiguous_abbreviation": ["verify", "f", "--h"],
    "unique_abbreviation": ["decide", DOC, "--form", "json"],
    "sentinel": ["decide", "--", DOC],
    "sentinel_after_option": ["export-dot", "--level", "2", "--", "-f"],
    "unknown_option": ["decide", DOC, "--bogus"],
    "extra_argument": ["decide", DOC, "extra"],
    "help_first": ["-h"],
    "no_arguments": [],
    "option_first": ["--format", "json", "decide", DOC],
    "unknown_verb": ["bogus", DOC],
}

# the rows that parse; every other row exits through argparse
PARSED = {"decide", "oracle", "verify", "simulate", "generate", "export-dot",
          "unique_abbreviation", "sentinel", "sentinel_after_option"}


@pytest.mark.parametrize("name", ROUTED_ARGVS)
def test_routed_parse_matches_the_top_level_parser(name, capsys, monkeypatch):
    """``main``'s parse hands a call that names a verb to that verb's parser;
    it must give the namespace, or the exit and output, that the top-level
    parser gives."""
    monkeypatch.setenv("COLUMNS", "80")

    def parse(parse_args):
        try:
            return vars(parse_args(list(ROUTED_ARGVS[name])))
        except SystemExit as exc:
            return exc.code, *capsys.readouterr()

    expected = parse(cli.build_parser().parse_args)
    assert parse(cli._parse_args) == expected
    assert isinstance(expected, dict) == (name in PARSED)
