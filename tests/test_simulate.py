import dataclasses
from itertools import compress
from pathlib import Path

import pytest

from conftest import flat_rule
from oblicon import simulate
from oblicon.cli import load_adversary
from oblicon.decision import Verdict, decide
from oblicon.errors import BudgetExceededError, NonBroadcastableComponentError, NotRootedError
from oblicon.graphs import CommunicationGraph
from oblicon.indist import Adversary
from oblicon.patterns import Pattern, broadcaster_mask, indist_label, pattern_index
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
    # p1 reaches everyone at round 2, not before
    assert rule.decided == ((0,), (0,), (1,))  # min(Root(G))


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


def test_build_rule_refuses_a_pattern_of_another_length(solvable_pair):
    with pytest.raises(ValueError, match=r"^pattern has 1 rounds, rule expects 2$"):
        build_rule(solvable_pair, 2, until=Pattern(solvable_pair, (0,)))


def test_build_rule_source_broadcast_singleton_components():
    from oblicon.families import source_broadcast
    from oblicon.patterns import broadcaster_mask, pattern_at
    from oblicon.procset import procs_of

    d = source_broadcast(3, 1)
    rule = build_rule(d, 2)
    # every one-round pattern is its own component, decided at round 1
    assert rule.components == ((0,), (1,), (2,))
    assert tuple(map(len, rule.decided)) == (1, 3)
    # so every two-round pattern adopts its prefix's smallest broadcaster,
    # which still broadcasts in the whole pattern
    for i in range(9):
        sigma = pattern_at(d, 2, i)
        b = simulate._decision(rule, sigma)[1]
        assert b == rule.decided[1][i // 3] == min(procs_of(broadcaster_mask(sigma.prefix(1))))
        assert b in procs_of(broadcaster_mask(sigma))


def test_verifier_catches_wrong_broadcaster(solvable_pair):
    # only p1 broadcasts in the four 2-round patterns, so each run on
    # distinct inputs decides p2's input, which no broadcaster holds
    rule = flat_rule(solvable_pair, 2, (2, 2, 2, 2))
    report = verify_all_runs(rule)
    assert report.validity_violations == 4
    assert report.ok is False
    assert report.samples == tuple(
        f"validity: pattern {name} decided input of p2"
        for name in ("G1.G1", "G1.G2", "G2.G1", "G2.G2")
    )


def test_verifier_catches_split_component(solvable_pair):
    rule = build_rule(solvable_pair, 2)
    # p1 alone broadcasts in G1 and nobody in G2, which p1 cannot tell apart,
    # so the rule decides all four patterns at round 2
    assert rule.components == ((0, 1, 2, 3),)
    assert rule.decided == ((0,), (0, 0), (1, 1, 1, 1))
    wrong = flat_rule(solvable_pair, 2, (1, 1, 1, 3))
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
    wrong = flat_rule(d, 3, tuple(i % 2 + 1 for i in range(len(d) ** 3)))
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


def _drop_extensions(rule, r, flags):
    """The rule with the extensions of round r's flagged patterns removed
    from every later round.  Each shortened view column is renumbered in
    order of first appearance, so the verifier reads fresh columns."""
    m = len(rule.adversary)
    index, decided, masks, views = (
        list(rounds) for rounds in (rule.index, rule.decided, rule.broadcast_masks, rule.views)
    )
    gone = set(compress(index[r], flags))
    for k in range(r + 1, len(index)):
        gone = {x * m + g for x in gone for g in range(m)}
        keep = [x not in gone for x in index[k]]
        index[k] = list(compress(index[k], keep))
        decided[k] = tuple(compress(decided[k], keep))
        masks[k] = tuple(compress(masks[k], keep))
        views[k] = tuple(_renumbered(tuple(compress(column, keep))) for column in views[k])
    return dataclasses.replace(
        rule,
        index=tuple(index),
        decided=tuple(decided),
        broadcast_masks=tuple(masks),
        views=tuple(views),
    )


def _renumbered(column):
    ids = {v: k for k, v in enumerate(dict.fromkeys(column))}
    return tuple(map(ids.__getitem__, column))


@pytest.fixture
def rooted4_tree():
    # rounds 1 to 3 keep 5, 25 and 75 patterns: round 1 decides none,
    # round 2 decides 10 and round 3 the 75 extensions of the other 15
    rule = build_rule(load_adversary(str(FIXTURES / "random_rooted4_5_0.json")), 3)
    assert tuple(map(len, rule.decided)) == (1, 5, 25, 75)
    assert tuple(x.count(0) for x in rule.decided) == (1, 5, 15, 0)
    assert verify_all_runs(rule).ok
    return rule


def test_verifier_catches_a_decision_one_round_early(rooted4_tree):
    # decide round 2's first undecided component at once, on the smallest
    # broadcaster of its first pattern, and drop its extensions: the tree
    # still covers every run, but the component has no common broadcaster
    from oblicon.patterns import PatternLevel, _components, _round_inputs

    rule = rooted4_tree
    level = PatternLevel(2, rule.index[2], _round_inputs(rule.adversary), rule.views[2])
    comp_of, comps = _components(level)
    comp = next(c for c in comps if not rule.decided[2][c[0]])
    first = rule.broadcast_masks[2][comp[0]]
    b = (first & -first).bit_length()
    assert b and any(not rule.broadcast_masks[2][i] >> (b - 1) & 1 for i in comp)
    flags = [i in comp for i in range(len(rule.decided[2]))]
    decided = tuple(b if f else x for f, x in zip(flags, rule.decided[2]))
    early = _drop_extensions(rule, 2, flags)
    early = dataclasses.replace(early, decided=early.decided[:2] + (decided,) + early.decided[3:])
    report = verify_all_runs(early)
    assert report.runs == 250
    # five of the ten patterns lack p3, each standing for five runs
    assert (report.validity_violations, report.cross_run_violations) == (25, 0)
    assert report.termination_violations == 0
    assert report.samples[0] == "validity: pattern G1.G3 decided input of p3"


def test_verifier_weighs_a_wrong_broadcaster_by_its_round():
    from oblicon.families import source_broadcast

    # S1 is decided at round 1 and stands for its nine 3-round extensions;
    # p2 does not broadcast in it, so the distinct-input runs fail validity
    d = source_broadcast(3, 1)
    rule = build_rule(d, 3)
    assert rule.decided == ((0,), (1, 2, 3))
    wrong = dataclasses.replace(rule, decided=((0,), (2, 2, 3)))
    report = verify_all_runs(wrong)
    assert (report.runs, report.validity_violations, report.cross_run_violations) == (54, 9, 0)
    assert report.samples == ("validity: pattern S1 decided input of p2",)
    # p2 broadcasts in S1.S2.S1 by round 3, but the run decided at round 1
    result = run(wrong, Pattern(d, (0, 1, 0)), [1, 2, 3])
    assert result.adopted == (2, 2, 2)
    assert not result.validity_ok


def test_verifier_catches_merged_components(rooted4_tree):
    # give one of round 2's decided patterns a process's view from another
    # component decided differently: the views now link them, and the
    # cross-run check at round 2, not only at the horizon, must see it
    rule = rooted4_tree
    decided = rule.decided[2]
    i = next(k for k, b in enumerate(decided) if b)
    j = next(k for k, b in enumerate(decided) if b and b != decided[i])
    column = list(rule.views[2][0])
    column[j] = column[i]
    views = (tuple(column),) + rule.views[2][1:]
    merged = dataclasses.replace(rule, views=rule.views[:2] + (views,) + rule.views[3:])
    report = verify_all_runs(merged)
    # G2.G1 (decided on p1) and G5.G1 (on p4) each stand for five runs
    assert (report.cross_run_violations, report.validity_violations) == (5, 0)
    assert report.termination_violations == 0
    assert report.samples == ("cross-run: G2.G1 vs G5.G1 disagree for p1",)


def test_verifier_counts_runs_a_truncated_rule_leaves_undecided(rooted4_tree):
    # cut the tree after round 2 and keep the horizon at 3: round 2's 15
    # undecided patterns stand for 75 runs per input vector
    rule = rooted4_tree
    truncated = dataclasses.replace(
        rule,
        index=rule.index[:3],
        decided=rule.decided[:3],
        broadcast_masks=rule.broadcast_masks[:3],
        views=rule.views[:3],
    )
    report = verify_all_runs(truncated)
    assert report.runs == 250
    assert report.termination_violations == 150
    assert (report.validity_violations, report.cross_run_violations) == (0, 0)
    assert report.samples[0].startswith("termination: pattern ")
    assert report.samples[0].endswith(" undecided after round 2")
    # run sees the same: an extension of an undecided pattern adopts nothing
    from oblicon.patterns import pattern_at

    k = rule.index[2][rule.decided[2].index(0)]
    result = run(truncated, pattern_at(rule.adversary, 3, k * 5 + 4), [1, 2, 3, 4])
    assert (result.adopted, result.value, result.termination_ok) == ((), None, False)
    assert not result.ok
    assert run(rule, pattern_at(rule.adversary, 3, k * 5 + 4), [1, 2, 3, 4]).ok


def test_run_reports_a_pattern_missing_from_its_round_as_undecided(solvable_pair):
    # round 1 leaves G2 undecided, but round 2 lacks its extension G2.G1
    # (index 2): the prefix walk stops there, and the run adopts nothing
    rule = flat_rule(solvable_pair, 2, [1, 1, 1, 1])
    index, decided = rule.index[2], rule.decided[2]
    cut = dataclasses.replace(
        rule,
        index=rule.index[:2] + ((*index[:2], *index[3:]),),
        decided=rule.decided[:2] + (decided[:2] + decided[3:],),
    )
    sigma = Pattern(solvable_pair, (1, 0))
    assert pattern_index(sigma) == 2 and run(rule, sigma, [1, 2, 3]).ok
    result = run(cut, sigma, [1, 2, 3])
    assert (result.adopted, result.value, result.termination_ok) == ((), None, False)


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
        simulate._decision(rule, Pattern.from_names(d, "S2"))
    with pytest.raises(ValueError, match="^pattern has 4 rounds, rule expects 3$"):
        simulate._decision(rule, Pattern(d, (0, 0, 0, 0)))
    # S1.S1.S2 is decided with its prefix S1, at round 1
    assert simulate._decision(rule, Pattern(d, (0, 0, 1)))[1] == rule.decided[1][0] == 1


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
    assert tuple(map(len, rule.decided)) == (1, 3)
    report = verify_all_runs(rule)
    assert report.ok
    assert report.runs == 18


def test_rule_without_shared_views_skips_union_find(monkeypatch):
    import oblicon.patterns
    from oblicon.families import source_broadcast
    from oblicon.patterns import _final_level, _first_seen

    def fail(*args):
        raise AssertionError("union_find called")

    d = source_broadcast(3, 1)
    assert all(_first_seen(column) is None for column in _final_level(d, 2, 10**6).views)
    monkeypatch.setattr(oblicon.patterns, "union_find", fail)
    rule = build_rule(d, 2)
    assert all(_first_seen(column) is None for views in rule.views for column in views)
    # every pattern is its own component and adopts its lowest broadcaster,
    # or none: the empty pattern at round 0
    assert rule.decided == tuple(
        tuple((m & -m).bit_length() for m in masks) for masks in rule.broadcast_masks
    )
    assert rule.decided == ((0,), (1, 2, 3))
    assert verify_all_runs(rule).ok
    # at horizon 0 the one pattern has no broadcaster; naming its component
    # builds the components, which goes through union_find
    monkeypatch.undo()
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


def test_imposs_witness_refuses_an_unrooted_adversary():
    d = Adversary([CommunicationGraph(2, [(1, 2)], "Ok"), CommunicationGraph(2, [], "Loops")])
    with pytest.raises(NotRootedError, match="^witness construction requires all graphs rooted$"):
        imposs_witness(d, 1)


@pytest.mark.parametrize(
    "path, message",
    [
        (lambda start, goal: None,
         "level-1 component is root-incompatible but Ga^1 and Gb^1 are not connected "
         "among 1-round patterns"),
        # Ga and Gb differ in both processes' in-neighbourhoods: no edge joins them
        (lambda start, goal: [start, goal], "path edge Ga -- Gb failed re-verification"),
    ],
    ids=["no_path", "path_not_in_the_graph"],
)
def test_imposs_witness_rechecks_the_view_path(lossy_link_2, monkeypatch, path, message):
    """The witness's path comes from ``_view_path`` and is checked again; a
    search that finds none, or a path that is no path, raises."""
    monkeypatch.setattr(simulate, "_view_path", lambda views, start, goal: path(start, goal))
    with pytest.raises(RuntimeError) as exc:
        imposs_witness(lossy_link_2, 1)
    assert str(exc.value) == message


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


def test_imposs_witness_falls_back_to_overlapping_roots():
    # no two graphs of the root-incompatible component have disjoint roots,
    # so the witness names the least-overlapping pair, A and B; the claim
    # holds only because their one-round broadcasters {2} and {3} are disjoint
    d = Adversary(
        [
            CommunicationGraph(3, [(1, 2), (2, 1), (2, 3)], "A"),
            CommunicationGraph(3, [(2, 3), (3, 2), (3, 1)], "B"),
            CommunicationGraph(3, [(1, 3), (3, 1), (1, 2)], "C"),
        ]
    )
    w = imposs_witness(d, 1)
    assert w is not None
    assert (w.graph_a, w.graph_b) == ("A", "B")
    assert (w.root_a, w.root_b) == (frozenset({1, 2}), frozenset({2, 3}))
    a, b = (Pattern.from_names(d, name) for name in ("A", "B"))
    assert broadcaster_mask(a) & broadcaster_mask(b) == 0


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
