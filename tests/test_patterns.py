import pytest

from oblicon.errors import BudgetExceededError, PairBudgetExceededError
from oblicon.graphs import CommunicationGraph
from oblicon.indist import Adversary, single_round_indist
from oblicon.patterns import (
    Pattern,
    broadcaster_mask,
    final_views,
    indist_label,
    pattern_at,
    pattern_index,
    pattern_indist_graph,
)
from oblicon.procset import mask_of, procs_of

from conftest import complete, naive_indist_procs


def pat(d, *names):
    return Pattern(d, tuple(d.index_of(x) for x in names))


def test_round_zero_views_shared_across_patterns(lossy_link_2):
    d = lossy_link_2
    (va, _), (vb, _) = final_views([pat(d, "Ga").prefix(0), pat(d, "Gb").prefix(0)])
    for p in (1, 2):
        assert va[p - 1] == vb[p - 1]
    assert va[0] != va[1]


def test_final_views_of_no_patterns_is_empty():
    assert final_views([]) == []


def test_one_round_views_match_labels(lossy_link_2):
    d = lossy_link_2
    # Ga and Gc agree exactly on process 2's in-neighborhood
    assert indist_label(pat(d, "Ga"), pat(d, "Gc")) & mask_of([2])
    assert not indist_label(pat(d, "Ga"), pat(d, "Gc")) & mask_of([1])
    assert indist_label(pat(d, "Ga"), pat(d, "Gc")) == mask_of({2})


def test_two_round_views_lossy_link(lossy_link_2):
    d = lossy_link_2
    # process 1's round-1 view differs under Ga vs Gc and feeds process 2 in
    # round 2 of Ga, so the second round breaks the indistinguishability
    assert not indist_label(pat(d, "Ga", "Ga"), pat(d, "Gc", "Ga")) & mask_of([2])
    # extending by Gc makes process 2 hear process 1 again: still distinct
    assert not indist_label(pat(d, "Ga", "Gc"), pat(d, "Gc", "Gc")) & mask_of([2])
    # extending by Gb keeps process 2 isolated from process 1: indistinct
    assert indist_label(pat(d, "Ga", "Gb"), pat(d, "Gc", "Gb")) & mask_of([2])
    # oracle: raw recursive views without interning agree on all three
    assert naive_indist_procs(pat(d, "Ga", "Ga"), pat(d, "Gc", "Ga")) == set()
    assert naive_indist_procs(pat(d, "Ga", "Gc"), pat(d, "Gc", "Gc")) == set()
    assert naive_indist_procs(pat(d, "Ga", "Gb"), pat(d, "Gc", "Gb")) == {2}


def test_indistinguishable_reflexive(lossy_link_2):
    d = lossy_link_2
    sigma = pat(d, "Ga", "Gc", "Gb")
    assert all(indist_label(sigma, sigma) & mask_of([p]) for p in (1, 2))


def test_indistinguishable_length_mismatch(lossy_link_2):
    d = lossy_link_2
    with pytest.raises(ValueError):
        indist_label(pat(d, "Ga"), pat(d, "Ga", "Gb"))


# q has heard of p's initial state by the end of sigma iff final_views puts
# p's bit in q's influence mask


def test_heard_of_self_loop_step(chain_graph):
    d = Adversary([chain_graph])
    sigma = Pattern.repeat(d, 0, 3)
    for p in (1, 2, 3):
        assert final_views([sigma.prefix(1)])[0][1][p - 1] & mask_of([p])


def test_heard_of_chain_path_lengths(chain_graph):
    d = Adversary([chain_graph])
    sigma = Pattern.repeat(d, 0, 2)
    assert final_views([sigma])[0][1][3 - 1] & mask_of([1])
    assert not final_views([sigma.prefix(1)])[0][1][3 - 1] & mask_of([1])


def test_broadcasters_repeat_equals_root(chain_graph):
    d = Adversary([chain_graph])
    sigma = Pattern.repeat(d, 0, 2)  # n-1 repetitions
    assert frozenset(procs_of(broadcaster_mask(sigma))) == chain_graph.root == {1}


def test_broadcasters_empty_and_complete():
    d = Adversary([complete(3, "K"), CommunicationGraph(3, [(1, 2), (2, 3)], "C")])
    assert frozenset(procs_of(broadcaster_mask(Pattern(d, ())))) == frozenset()
    assert frozenset(procs_of(broadcaster_mask(Pattern(d, (0,))))) == {1, 2, 3}
    # one round of the chain graph reaches only two processes
    assert frozenset(procs_of(broadcaster_mask(Pattern(d, (1,))))) == frozenset()


def test_remove_round_basic(lossy_link_2):
    d = lossy_link_2
    sigma = pat(d, "Ga", "Gb", "Gc")
    assert sigma.remove_round(2).rounds == pat(d, "Ga", "Gc").rounds
    assert pat(d, "Ga").remove_round(1).rounds == ()
    with pytest.raises(ValueError):
        sigma.remove_round(4)


def test_remove_round_preserves_edges(lossy_link_2):
    d = lossy_link_2
    pig = pattern_indist_graph(d, 3)
    for u, v, _ in pig.edges():
        s1, s2 = pattern_at(d, 3, u), pattern_at(d, 3, v)
        for r in (1, 2, 3):
            a, b = s1.remove_round(r), s2.remove_round(r)
            assert a.rounds == b.rounds or indist_label(a, b) != 0


def test_pattern_graph_r1_equals_single_round(lossy_link_2):
    d = lossy_link_2
    a = single_round_indist(d)
    b = pattern_indist_graph(d, 1)
    assert {(u, v): lab for u, v, lab in a.edges()} == {
        (u, v): lab for u, v, lab in b.edges()
    }


def test_pattern_graph_r2_lossy_link_matches_naive(lossy_link_2):
    d = lossy_link_2
    pig = pattern_indist_graph(d, 2)
    assert pig.size == 9
    got = {(u, v): set(procs_of(lab)) for u, v, lab in pig.edges()}
    # oracle: naive pairwise comparison over raw recursive views
    expected = {}
    for i in range(9):
        for j in range(i + 1, 9):
            procs = naive_indist_procs(pattern_at(d, 2, i), pattern_at(d, 2, j))
            if procs:
                expected[(i, j)] = procs
    assert got == expected
    # the ignoramus-style extension (Ga.Gb, Gc.Gb) must be present with 2 in its label
    ia = pattern_index(Pattern(d, (0, 1)))
    ic = pattern_index(Pattern(d, (2, 1)))
    key = (min(ia, ic), max(ia, ic))
    assert 2 in got[key]


def test_pattern_graph_edgeless_for_distinguishable_family():
    d = Adversary(
        [
            CommunicationGraph(3, [(1, 2), (1, 3)], "S1"),
            CommunicationGraph(3, [(2, 1), (2, 3)], "S2"),
            CommunicationGraph(3, [(3, 1), (3, 2)], "S3"),
        ]
    )
    assert pattern_indist_graph(d, 2).num_edges == 0


def test_pattern_budget_error(lossy_link_2):
    with pytest.raises(BudgetExceededError) as exc:
        pattern_indist_graph(lossy_link_2, 5, budget=10)
    assert exc.value.required == 3**5
    assert exc.value.rounds == 5


def test_pattern_graph_pair_budget():
    from oblicon.families import lossy_link

    # 49 patterns fit a budget of 100, but 228 pairs share some process's view
    with pytest.raises(PairBudgetExceededError) as exc:
        pattern_indist_graph(lossy_link(3, 1), 2, budget=100)
    assert isinstance(exc.value, BudgetExceededError)
    assert (exc.value.required, exc.value.budget, exc.value.rounds) == (228, 100, 2)
    assert str(exc.value) == (
        "the 2-round pattern graph has up to 228 indistinguishable pairs, "
        "over the budget of 100"
    )
    assert pattern_indist_graph(lossy_link(3, 1), 2, budget=228).num_edges <= 228


def test_budget_check_builds_no_huge_count(lossy_link_2):
    # 3**(10**9) would take hundreds of megabytes to build
    with pytest.raises(BudgetExceededError) as exc:
        pattern_indist_graph(lossy_link_2, 10**9)
    assert exc.value.required is None
    assert exc.value.rounds == 10**9
    # a count up to 2**64 is still reported exactly
    with pytest.raises(BudgetExceededError) as exc:
        pattern_indist_graph(lossy_link_2, 40, budget=10)
    assert exc.value.required == 3**40


def test_pattern_indexing_roundtrip(lossy_link_2):
    d = lossy_link_2
    for idx in range(27):
        assert pattern_index(pattern_at(d, 3, idx)) == idx
    names = [pattern_at(d, 2, i).name for i in range(4)]
    assert names == ["Ga.Ga", "Ga.Gb", "Ga.Gc", "Gb.Ga"]


def test_prefix_and_extend(lossy_link_2):
    d = lossy_link_2
    sigma = pat(d, "Ga", "Gb")
    assert sigma.prefix(1).rounds == pat(d, "Ga").rounds
    assert sigma.prefix(0).rounds == ()
    assert sigma.extend(2).name == "Ga.Gb.Gc"
    with pytest.raises(ValueError):
        Pattern(d, (7,))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda sigma: sigma.graph_at(0), "round 0 out of range 1..2"),
        (lambda sigma: sigma.graph_at(3), "round 3 out of range 1..2"),
        (lambda sigma: sigma.prefix(-1), "prefix length -1 out of range"),
        (lambda sigma: sigma.prefix(3), "prefix length 3 out of range"),
        (lambda sigma: sigma.remove_round(0), "round 0 out of range 1..2"),
        (lambda sigma: pattern_at(sigma.adversary, 2, 9), "pattern index out of range"),
    ],
    ids=["graph_at_0", "graph_at_3", "prefix_negative", "prefix_too_long", "remove_round_0",
         "pattern_at_past_the_end"],
)
def test_pattern_range_errors(lossy_link_2, call, message):
    with pytest.raises(ValueError) as exc:
        call(pat(lossy_link_2, "Ga", "Gb"))
    assert str(exc.value) == message


def test_identifying_process_column_is_the_id_range():
    from oblicon.families import source_broadcast
    from oblicon.patterns import _extend, _round_inputs, iter_pattern_levels

    # p1 hears itself alone in S1 and also p2 in S2, p3 in S3: it tells the
    # three graphs apart, so its next column is the id range without
    # reading its previous one
    d = source_broadcast(3, 1)
    m = len(d)
    _, groups_of, _ = _round_inputs(d)
    assert [len(groups) for groups in groups_of] == [m, m, m]
    level = next(iter_pattern_levels(d, 1))
    level.views[0] = (0,) * len(level.views[0])  # junk: interning would merge S1's keys
    new = _extend(level, level.inputs)
    assert new.views[0] == tuple(range(m * m))


def test_graphs_with_one_in_neighbourhood_share_their_slots():
    from oblicon.families import rooted_trees
    from oblicon.patterns import _extend, _round_inputs, iter_pattern_levels

    # in rooted_trees(3) each process has three in-neighbourhoods, each
    # given by three of the nine graphs: the graphs of one group fill their
    # slots with equal ids and masks, and a new view's id is the base plus
    # m*i + min(group), i the first previous pattern with its key
    d = rooted_trees(3)
    m = len(d)
    _, groups_of, _ = _round_inputs(d)
    assert [sorted(map(len, groups.values())) for groups in groups_of] == [[3, 3, 3]] * 3
    level = next(iter_pattern_levels(d, 1))
    new = _extend(level, level.inputs)
    assert new.rounds == 2
    base = 0
    for p, groups in enumerate(groups_of):
        column, masks = new.views[p], new.influence[p]
        for qs, gs in groups.items():
            for g in gs[1:]:
                assert column[g::m] == column[gs[0]::m]
                assert masks[g::m] == masks[gs[0]::m]
            keys = [tuple(level.views[q][i] for q in qs) for i in range(len(level.index))]
            assert list(column[gs[0]::m]) == [
                base + m * keys.index(key) + gs[0] for key in keys
            ]
        base += len(column)


def test_all_distinct_reads_a_pruned_column_first_seen_points_outside(lossy_link_2):
    from oblicon.patterns import _all_distinct, _first_seen, _final_level

    # p2's column starts at base 9 (p1 holds 0..8); its view of Ga.Ga and
    # Ga.Gc is the same, first seen at position 0, and Ga.Gb's sits between
    # them.  Dropping Ga.Gb leaves ids 9, 9, 12, which span three entries
    # but repeat: ``_all_distinct`` compares every entry with its position,
    # so it reads the pruned column right.  ``_first_seen`` still answers in
    # the positions of the unpruned column: 12 - 9 = 3 lies outside the
    # three kept patterns.  This is why components only ever read columns
    # that ``_extend`` has just built.
    level = _final_level(lossy_link_2, 2, 100)
    assert level.views[1][:4] == (9, 10, 9, 12)
    assert not _all_distinct(level.views[1])
    level.keep([True, False, True, True] + [False] * 5)
    assert level.views[1] == (9, 9, 12)
    assert list(level.index) == [0, 2, 3]
    assert not _all_distinct(level.views[1])
    assert _first_seen(level.views[1]) == [0, 0, 3]  # 3: outside the pruned column


def test_first_seen_shortcut_and_offset_path():
    from oblicon.patterns import _first_seen

    # an identifying process's column is a range: all distinct, no list
    assert _first_seen(tuple(range(7, 7 + 9))) is None
    assert _first_seen((3,)) is None
    # repeats point at the first pattern with the same entry: each id less
    # the column's base, its first entry
    assert _first_seen((5, 6, 5, 8)) == [0, 1, 0, 3]
    assert _first_seen((2, 3, 3)) == [0, 1, 1]
    assert _first_seen((4, 4)) == [0, 0]
    # last minus first spans the length, yet a middle entry repeats
    assert _first_seen((2, 2, 4)) == [0, 0, 2]
