import pytest

from oblicon.decision import Verdict, check_protected_chain, decide
from oblicon.errors import PremiseError
from oblicon.graphs import CommunicationGraph
from oblicon.indist import Adversary
from oblicon.families import gen_chain, gen_partitioned, rooted_trees, simple_chain_spec, source_broadcast
from oblicon.procset import procs_of

from conftest import naive_refine_once


def test_lossy_link_impossible(lossy_link_2):
    trace = decide(lossy_link_2)
    assert trace.verdict is Verdict.IMPOSSIBLE
    # every edge is protected inside the single component, so the very first
    # refinement is already the fixpoint
    assert trace.iterations == 2
    assert trace.removal_iterations == 0
    assert trace.levels[0].labels() == trace.levels[1].labels()
    assert trace.components_final == ((0, 1, 2),)


def test_source_broadcast_solvable_first_iteration():
    for n in (3, 4):
        d = source_broadcast(n, 1)
        trace = decide(d)
        assert trace.verdict is Verdict.SOLVABLE
        assert trace.iterations == 1
        assert trace.removal_iterations == 0
        assert trace.levels[0].num_edges == 0
        assert all(len(c) == 1 for c in trace.components_final)


def test_rooted_trees_n3_impossible():
    d = rooted_trees(3)
    assert len(d) == 9
    trace = decide(d)
    assert trace.verdict is Verdict.IMPOSSIBLE
    # every edge stays protected: the fixpoint equals the first level
    assert trace.levels[-1].labels() == trace.levels[0].labels()


def test_non_rooted_input():
    d = Adversary(
        [
            CommunicationGraph(2, [(1, 2)], "ok"),
            CommunicationGraph(2, [], "bad"),
        ]
    )
    trace = decide(d)
    assert trace.verdict is Verdict.NOT_ROOTED
    assert trace.levels == ()
    assert trace.iterations == 0
    assert trace.round_bound == 0


def test_single_graph_adversary():
    d = Adversary([CommunicationGraph(3, [(1, 2), (2, 3)], "G")])
    trace = decide(d)
    assert trace.verdict is Verdict.SOLVABLE
    assert trace.iterations == 1
    assert len(trace.components_final) == 1


def test_chain_removals_right_to_left():
    d = gen_chain(simple_chain_spec(4))
    trace = decide(d)
    assert trace.verdict is Verdict.SOLVABLE
    removing = [r for r in trace.removed if r]
    assert removing == [((2, 3),), ((1, 2),), ((0, 1),)]
    assert trace.iterations == 4
    assert all(len(c) == 1 for c in trace.components_final)


def test_round_bound_formula(solvable_pair):
    trace = decide(solvable_pair)
    assert trace.verdict is Verdict.SOLVABLE
    assert trace.iterations == 1
    assert len(trace.components_final) == 1
    assert trace.round_bound == 1 * 2 * 2
    assert trace.round_bound == 4


def test_monotone_levels_and_absorbing_fixpoint(lossy_link_2):
    for d in (lossy_link_2, gen_chain(simple_chain_spec(3)), rooted_trees(3)):
        trace = decide(d, no_early_exit=True)
        for earlier, later in zip(trace.levels, trace.levels[1:]):
            assert later.labels().keys() <= earlier.labels().keys()
            for u, v, lab in later.edges():
                assert earlier.label(u, v) == lab
        assert trace.reached_fixpoint
        # recomputing one more level keeps the edge set
        again, removed = naive_refine_once(trace.levels[-1], d.root_masks())
        assert again.labels() == trace.levels[-1].labels() and removed == ()


def test_surviving_edges_have_same_component_guard():
    # refinement-rule invariant: each surviving edge had, one level earlier,
    # a same-component graph whose root fits inside the label
    for d in (gen_chain(simple_chain_spec(5)), rooted_trees(3)):
        trace = decide(d, no_early_exit=True)
        roots = d.root_masks()
        for prev, cur in zip(trace.levels, trace.levels[1:]):
            for u, v, lab in cur.edges():
                assert prev.label(u, v) == lab
                comp = prev.components()[prev.component_of(u)]
                assert any(roots[g] & ~lab == 0 for g in comp)


def test_same_label_same_component_edges_leave_together():
    specs = [gen_chain(simple_chain_spec(4)), rooted_trees(3)]
    for d in specs:
        trace = decide(d, no_early_exit=True)
        for prev, removed in zip(trace.levels, trace.removed[1:]):
            removed_set = set(removed)
            for comp in prev.components():
                by_label: dict[int, list[tuple[int, int]]] = {}
                comp_set = set(comp)
                for u, v, lab in prev.edges():
                    if u in comp_set:
                        by_label.setdefault(lab, []).append((u, v))
                for edges in by_label.values():
                    gone = [e in removed_set for e in edges]
                    assert all(gone) or not any(gone)


def test_iteration_bound(lossy_link_2):
    for d in (lossy_link_2, rooted_trees(3), gen_chain(simple_chain_spec(6))):
        trace = decide(d)
        assert trace.iterations <= 2 ** d.n


def test_level_at_absorbs_fixpoint(lossy_link_2):
    trace = decide(lossy_link_2, no_early_exit=True)
    assert trace.level_at(10).labels() == trace.levels[-1].labels()
    early = decide(gen_chain(simple_chain_spec(3)))
    with pytest.raises(ValueError):
        early.level_at(early.iterations + 5)


def test_check_protected_chain_trivial_first_level(lossy_link_2):
    trace = decide(lossy_link_2, no_early_exit=True)
    # a single connected subgraph: conclusion is about level 1 itself
    assert check_protected_chain([[0, 1, 2]], trace) is True


def test_check_protected_chain_singletons_vacuous():
    d = gen_chain(simple_chain_spec(3))
    trace = decide(d, no_early_exit=True)
    assert check_protected_chain([[0], [1], [2]], trace) is True


def test_check_protected_chain_partitioned_blocks():
    fam = gen_partitioned(2, 3)
    trace = decide(fam.adversary, no_early_exit=True)
    assert check_protected_chain([fam.blocks[0], fam.blocks[1]], trace) is True


def test_check_protected_chain_premise_errors(lossy_link_2):
    trace = decide(lossy_link_2, no_early_exit=True)
    with pytest.raises(PremiseError):
        check_protected_chain([[0, 1]], trace)  # Ga,Gb not adjacent: induced subgraph disconnected
    with pytest.raises(PremiseError):
        check_protected_chain([], trace)
    early_trace = decide(lossy_link_2)
    with pytest.raises(PremiseError):
        check_protected_chain([[0, 1, 2]], early_trace)
    # level 1 of the 3-chain is the path G1 -- G2 -- G3: G1 and G3 are joined
    # only through G2, which is outside S_1
    chain_trace = decide(gen_chain(simple_chain_spec(3)), no_early_exit=True)
    with pytest.raises(PremiseError, match="S_1 does not induce a connected subgraph"):
        check_protected_chain([[0, 2]], chain_trace)
    assert check_protected_chain([[0, 1, 2]], chain_trace) is True
    with pytest.raises(PremiseError, match="^S_2 is empty$"):
        check_protected_chain([[0], []], chain_trace)
    # the loop-only graph has no unique root, so the trace has no levels
    d = Adversary([CommunicationGraph(2, [(1, 2)], "Ok"), CommunicationGraph(2, [], "Loops")])
    with pytest.raises(PremiseError, match=r"^trace has no levels \(input was not rooted\)$"):
        check_protected_chain([[0]], decide(d, no_early_exit=True))
    # no process has the same in-neighbourhood in both graphs, so level 1 has
    # no edge and S_1, S_2 sit in different components
    d = Adversary([CommunicationGraph(2, [(1, 2)], "G1"), CommunicationGraph(2, [(2, 1)], "G2")])
    with pytest.raises(PremiseError, match="^S_1 is not connected to S_2 in level 1$"):
        check_protected_chain([[0], [1]], decide(d, no_early_exit=True))


def test_check_protected_chain_unprotected_premise():
    # two graphs with an edge whose label no root fits into
    d = gen_chain(simple_chain_spec(2))
    trace = decide(d, no_early_exit=True)
    # S_1 = both graphs: the single edge is labeled by the unused root set,
    # so no graph of S_1 U S_2 protects it
    with pytest.raises(PremiseError):
        check_protected_chain([[0, 1], [0]], trace)
