import dataclasses
from pathlib import Path

import pytest

from oblicon.cli import load_adversary
from oblicon.decision import Verdict, decide
from oblicon.errors import BudgetExceededError, NonBroadcastableComponentError
from oblicon.graphs import CommunicationGraph
from oblicon.indist import Adversary
from oblicon.patterns import Pattern, indist_label, pattern_index
from oblicon.simulate import (
    build_rule,
    imposs_witness,
    oracle_min_horizon,
    run,
    verify_all_runs,
)


def test_build_rule_single_rooted_graph():
    g = CommunicationGraph(3, [(1, 2), (2, 3)], "G")
    d = Adversary([g])
    rule = build_rule(d, 2)  # n-1 rounds
    assert rule.components == ((0,),)
    assert rule.decided == (1,)  # min(Root(G))


def test_build_rule_lossy_link_fails(lossy_link_2):
    for t in (1, 2, 3):
        with pytest.raises(NonBroadcastableComponentError) as exc:
            build_rule(lossy_link_2, t)
        # the failing component must mix Ga-started and Gb-started patterns
        names = exc.value.pattern_names
        assert any(name.startswith("Ga") for name in names)
        assert any(name.startswith("Gb") for name in names)


def test_build_rule_horizon_zero():
    d = Adversary(
        [
            CommunicationGraph(3, [(1, 2), (1, 3)], "S1"),
            CommunicationGraph(3, [(2, 1), (2, 3)], "S2"),
        ]
    )
    with pytest.raises(NonBroadcastableComponentError):
        build_rule(d, 0)


def test_build_rule_source_broadcast_singleton_components():
    from oblicon.families import source_broadcast
    from oblicon.patterns import broadcaster_mask, pattern_at
    from oblicon.procset import procs_of

    d = source_broadcast(3, 1)
    rule = build_rule(d, 2)
    assert all(len(c) == 1 for c in rule.components)
    # every pattern is its own component and adopts its smallest broadcaster
    for comp in rule.components:
        sigma = pattern_at(d, 2, comp[0])
        assert rule.decided[comp[0]] == min(procs_of(broadcaster_mask(sigma)))


def test_verifier_catches_wrong_broadcaster(solvable_pair):
    # only p1 broadcasts in the four 2-round patterns, so each run on
    # distinct inputs decides p2's input, which no broadcaster holds
    rule = dataclasses.replace(build_rule(solvable_pair, 2), decided=(2, 2, 2, 2))
    report = verify_all_runs(rule)
    assert report.validity_violations == 4
    assert report.ok is False
    assert report.samples == tuple(
        f"validity: pattern {name} decided input of p2"
        for name in ("G1.G1", "G1.G2", "G2.G1", "G2.G2")
    )


def test_verifier_catches_split_component(solvable_pair):
    rule = build_rule(solvable_pair, 2)
    assert rule.components == ((0, 1, 2, 3),)
    wrong = dataclasses.replace(rule, decided=(1, 1, 1, 3))
    report = verify_all_runs(wrong)
    assert report.cross_run_violations > 0
    assert report.ok is False
    assert (report.validity_violations, report.cross_run_violations) == (1, 2)
    assert report.samples == (
        "validity: pattern G2.G2 decided input of p3",
        "cross-run: G1.G1 vs G2.G2 disagree for p1",
        "cross-run: G1.G1 vs G2.G2 disagree for p2",
    )


FIXTURES = Path(__file__).parent / "fixtures"


def test_verifier_samples_keep_order_and_cap():
    # alternating components with different broadcasters: both checks fire
    # far more often than the eight samples kept; counts and samples were
    # recorded from the row-per-pattern verifier
    d = load_adversary(str(FIXTURES / "random_rooted4_5_0.json"))
    rule = build_rule(d, 3)
    wrong = dataclasses.replace(rule, decided=tuple(i % 2 + 1 for i in range(len(rule.decided))))
    report = verify_all_runs(wrong)
    assert (report.runs, report.validity_violations, report.cross_run_violations) == (250, 12, 56)
    assert report.samples == tuple(
        f"validity: pattern {name} decided input of p{p}"
        for name, p in (
            ("G1.G1.G1", 1), ("G2.G1.G1", 2), ("G2.G2.G2", 2), ("G2.G3.G3", 2),
            ("G2.G5.G1", 2), ("G2.G5.G3", 2), ("G5.G1.G1", 1), ("G5.G2.G3", 2),
        )
    )
    report = verify_all_runs(wrong, "aabb")
    assert (report.runs, report.validity_violations, report.cross_run_violations) == (125, 2, 56)
    assert report.samples == (
        "validity: pattern G1.G1.G1 decided input of p1",
        "validity: pattern G5.G1.G1 decided input of p1",
    ) + tuple(
        f"cross-run: {a} vs {b} disagree for p1"
        for a, b in (
            ("G1.G1.G1", "G1.G1.G4"), ("G1.G2.G1", "G1.G2.G4"), ("G1.G3.G1", "G1.G3.G4"),
            ("G1.G1.G3", "G1.G4.G3"), ("G1.G4.G1", "G1.G4.G4"), ("G1.G5.G1", "G1.G5.G4"),
        )
    )


def test_run_all_equal_inputs_forces_validity(solvable_pair):
    rule = build_rule(solvable_pair, 2)
    sigma = Pattern(solvable_pair, (0, 1))
    report = run(rule, sigma, ["v", "v", "v"])
    assert report.ok
    assert report.value == "v"


def test_run_single_graph_decides_root_min():
    g = CommunicationGraph(3, [(1, 2), (2, 3)], "G")
    d = Adversary([g])
    rule = build_rule(d, 2)
    report = run(rule, Pattern(d, (0, 0)), [10, 20, 30])
    assert report.adopted == (1, 1, 1)
    assert report.value == 10
    assert report.ok


def test_run_solvable_pair_decides_x1(solvable_pair):
    rule = build_rule(solvable_pair, 2)
    for idx in range(4):
        digits = (idx // 2, idx % 2)
        report = run(rule, Pattern(solvable_pair, digits), ["a", "b", "c"])
        assert report.adopted == (1, 1, 1)
        assert report.value == "a"
        assert report.ok


def test_decision_process_rejects_a_pattern_of_another_length():
    from oblicon.families import source_broadcast

    # S2's index 1 is also a valid index among the 27 three-round patterns
    d = source_broadcast(3, 1)
    rule = build_rule(d, 3)
    with pytest.raises(ValueError, match="^pattern has 1 rounds, rule expects 3$"):
        rule.decision_process(Pattern.from_names(d, "S2"))
    with pytest.raises(ValueError, match="^pattern has 4 rounds, rule expects 3$"):
        rule.decision_process(Pattern(d, (0, 0, 0, 0)))
    assert rule.decision_process(Pattern(d, (0, 0, 1))) == rule.decided[1]


def test_run_validates_lengths(solvable_pair):
    rule = build_rule(solvable_pair, 2)
    with pytest.raises(ValueError):
        run(rule, Pattern(solvable_pair, (0,)), ["a", "b", "c"])
    with pytest.raises(ValueError):
        run(rule, Pattern(solvable_pair, (0, 1)), ["a", "b"])


def test_verify_all_runs_clean(solvable_pair):
    trace = decide(solvable_pair)
    horizon = oracle_min_horizon(solvable_pair, trace.round_bound)
    assert horizon is not None and horizon <= trace.round_bound
    report = verify_all_runs(build_rule(solvable_pair, horizon))
    assert report.ok
    assert report.runs == 2 * len(solvable_pair) ** horizon


@pytest.mark.parametrize("length", [2, 5])
def test_verify_all_runs_rejects_inputs_of_the_wrong_length(length):
    from oblicon.families import source_broadcast

    d = source_broadcast(3, 1)
    rule = build_rule(d, 1)
    with pytest.raises(ValueError, match=f"need 3 inputs, got {length}"):
        verify_all_runs(rule, tuple(range(1, length + 1)))
    assert verify_all_runs(rule, (1, 2, 3)).ok


def test_oracle_min_horizon_chain_graph(chain_graph):
    d = Adversary([chain_graph])
    assert oracle_min_horizon(d, 5) == 2


def test_oracle_min_horizon_lossy_link(lossy_link_2):
    assert oracle_min_horizon(lossy_link_2, 5) is None


def test_oracle_min_horizon_source_broadcast():
    from oblicon.families import source_broadcast

    assert oracle_min_horizon(source_broadcast(3, 1), 3) == 1


def test_oracle_builds_no_component_of_a_failing_level(lossy_link_2, monkeypatch):
    import oblicon.patterns
    import oblicon.simulate

    def fail(*args):
        raise AssertionError("components built")

    monkeypatch.setattr(oblicon.patterns, "group", fail)
    monkeypatch.setattr(oblicon.simulate, "common_masks", fail)
    assert oracle_min_horizon(lossy_link_2, 4) is None


def test_solvable_rule_builds_no_component_lists(monkeypatch):
    import oblicon.patterns
    import oblicon.simulate
    from oblicon.families import source_broadcast

    def fail(*args):
        raise AssertionError("components built")

    monkeypatch.setattr(oblicon.patterns, "group", fail)
    monkeypatch.setattr(oblicon.simulate, "common_masks", fail)
    rule = build_rule(source_broadcast(3, 1), 2)
    assert len(rule.decided) == 9
    report = verify_all_runs(rule)
    assert report.ok
    assert report.runs == 18


def test_rule_without_shared_views_skips_union_find(monkeypatch):
    import oblicon.simulate
    from oblicon.families import source_broadcast
    from oblicon.patterns import _final_level, _first_seen

    def fail(*args):
        raise AssertionError("union_find called")

    d = source_broadcast(3, 1)
    assert all(_first_seen(column) is None for column in _final_level(d, 2, 10**6).views)
    monkeypatch.setattr(oblicon.simulate, "union_find", fail)
    rule = build_rule(d, 2)
    # every pattern is its own component and adopts its lowest broadcaster
    assert rule.decided == tuple((m & -m).bit_length() for m in rule.broadcast_masks)
    assert len(rule.decided) == 9
    assert verify_all_runs(rule).ok
    # at horizon 0 the one pattern has no broadcaster
    with pytest.raises(NonBroadcastableComponentError) as exc:
        build_rule(d, 0)
    assert exc.value.pattern_names == ["(empty)"]


def test_oracle_budget_error(lossy_link_2):
    with pytest.raises(BudgetExceededError) as exc:
        oracle_min_horizon(lossy_link_2, 12, budget=50)
    assert exc.value.required == 3**4
    assert exc.value.rounds == 4


def test_imposs_witness_lossy_link(lossy_link_2):
    w = imposs_witness(lossy_link_2, 2)
    assert w is not None
    assert {w.graph_a, w.graph_b} == {"Ga", "Gb"}
    assert w.root_a & w.root_b == frozenset()
    assert w.path[0].rounds == (0, 0) and w.path[-1].rounds == (1, 1)
    # every path edge re-checks as indistinguishable for someone
    for s1, s2 in zip(w.path, w.path[1:]):
        assert indist_label(s1, s2) != 0
    assert len(w.edge_labels) == len(w.path) - 1


def test_imposs_witness_none_for_solvable(solvable_pair):
    for i in (1, 2, 3):
        assert imposs_witness(solvable_pair, i) is None


def test_imposs_witness_chain_prefix():
    from oblicon.families import gen_chain, simple_chain_spec

    d = gen_chain(simple_chain_spec(3))
    trace = decide(d)
    assert trace.verdict is Verdict.SOLVABLE
    # before the refinement finishes, the still-connected chain prefix yields
    # a witness: level 1 has the full chain with incompatible roots
    w = imposs_witness(d, 1)
    assert w is not None
    assert w.root_a.isdisjoint(w.root_b)


def test_imposs_witness_builds_no_pattern_graph(monkeypatch):
    # lossy_link(4,3) has 89,401 two-round patterns but 28,019,136 pairs
    # that share some process's view: the witness must not list them.  The
    # refinement's level-1 graph over the 299 graphs themselves still goes
    # through ``oblicon.indist.bucket_labels``.
    import oblicon.patterns
    import oblicon.simulate
    from oblicon.families import lossy_link

    def refuse(*args, **kwargs):
        raise AssertionError("the witness search built pattern pairs")

    monkeypatch.setattr(oblicon.patterns, "pattern_indist_graph", refuse)
    monkeypatch.setattr(oblicon.patterns, "bucket_labels", refuse)
    monkeypatch.setattr(oblicon.simulate, "pattern_indist_graph", refuse, raising=False)
    d = lossy_link(4, 3)
    w = imposs_witness(d, 2)
    assert w is not None
    a, b = d.index_of(w.graph_a), d.index_of(w.graph_b)
    assert w.path[0] == Pattern.repeat(d, a, 2)
    assert w.path[-1] == Pattern.repeat(d, b, 2)
    assert w.root_a.isdisjoint(w.root_b)
    assert len(w.edge_labels) == len(w.path) - 1
    assert all(lab != 0 for lab in w.edge_labels)


def test_decision_matches_oracle_on_fixtures(lossy_link_2, solvable_pair):
    from oblicon.families import rooted_trees, source_broadcast

    cases = [lossy_link_2, solvable_pair, rooted_trees(3), source_broadcast(3, 1)]
    for d in cases:
        trace = decide(d)
        solvable = trace.verdict is Verdict.SOLVABLE
        rmax = trace.round_bound if solvable else 4
        found = oracle_min_horizon(d, rmax)
        assert (found is not None) == solvable
