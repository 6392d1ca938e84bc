"""Property-based checks of the structural invariants, driven by hypothesis."""
from __future__ import annotations

from functools import reduce
from itertools import count
from operator import and_

import pytest
from hypothesis import example, given, settings, strategies as st

from oblicon.decision import Verdict, decide
from oblicon.errors import NonBroadcastableComponentError
from oblicon.families import (
    gen_chain,
    gen_partitioned,
    lossy_link,
    random_rooted,
    rooted_trees,
    simple_chain_spec,
    source_broadcast,
)
from oblicon.graphs import CommunicationGraph, is_root_compatible, reaches_all
from oblicon.indist import (
    Adversary,
    IndistGraph,
    bucket_labels,
    common_masks,
    group,
    induced_connected,
    single_round_indist,
    union_find,
)
from oblicon.patterns import (
    Pattern,
    PatternLevel,
    _components,
    _extend,
    _final_level,
    _first_seen,
    _level_commons,
    _level_zero,
    _round_inputs,
    broadcaster_mask,
    final_views,
    indist_label,
    iter_pattern_levels,
    pattern_at,
    pattern_components,
    pattern_index,
    pattern_indist_graph,
)
from oblicon.procset import is_subset, mask_of, procs_of
from oblicon.simulate import build_rule, imposs_witness, oracle_min_horizon

from conftest import (
    interned_levels,
    naive_bucket_labels,
    naive_components,
    naive_in_sets,
    naive_indist_procs,
    naive_path,
    naive_refinement,
    naive_root,
    naive_view,
)


@st.composite
def comm_graphs(draw, min_n=2, max_n=5):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return CommunicationGraph(n, chosen)


@st.composite
def adversaries(draw, min_n=2, max_n=4, max_graphs=3, rooted=False):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    count = draw(st.integers(1, max_graphs))
    graphs = []
    seen = set()
    attempts = 0
    while len(graphs) < count and attempts < 50:
        attempts += 1
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
        g = CommunicationGraph(n, chosen)
        if rooted and not g.is_rooted:
            continue
        if g._in in seen:
            continue
        seen.add(g._in)
        graphs.append(g)
    if not graphs:
        g = CommunicationGraph.complete(n)
        graphs = [g]
    return Adversary(graphs)


@given(comm_graphs())
def test_reaches_all_iff_in_root(g):
    if g.is_rooted:
        for p in range(1, g.n + 1):
            assert reaches_all(g, p) == (p in g.root)
    else:
        assert not any(reaches_all(g, p) for p in range(1, g.n + 1))


@given(comm_graphs(max_n=9))
def test_root_matches_naive_reachability(g):
    assert g.root == naive_root(g)
    assert g.root_mask == (mask_of(g.root) if g.root else 0)


@st.composite
def wide_graphs(draw):
    """Graphs in which one process sends to at least 17 others, so root
    closures expand frontiers too large to walk bit by bit."""
    n = draw(st.integers(18, 48))
    hub = draw(st.integers(1, n))
    others = [p for p in range(1, n + 1) if p != hub]
    fan = draw(st.lists(st.sampled_from(others), min_size=17, unique=True))
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    return CommunicationGraph(n, [(hub, v) for v in fan] + extra)


@given(wide_graphs())
def test_root_of_wide_graphs_matches_naive_reachability(g):
    assert g.root == naive_root(g)
    root = g.root or frozenset()
    assert all(reaches_all(g, p) == (p in root) for p in range(1, g.n + 1))


@st.composite
def indist_graphs(draw, max_size=9):
    size = draw(st.integers(1, max_size))
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return IndistGraph(size, [f"g{u}" for u in range(size)], {key: 1 for key in keys})


@given(indist_graphs(), st.data())
def test_components_match_breadth_first_search(ig, data):
    comps = ig.components()
    assert comps == naive_components(ig)
    assert all(comps[ig.component_of(u)].count(u) == 1 for u in range(ig.size))
    nodes = data.draw(st.lists(st.integers(0, ig.size - 1), min_size=1, unique=True))
    induced = IndistGraph(
        ig.size,
        ig.names,
        {(u, v): label for u, v, label in ig.edges() if u in nodes and v in nodes},
    )
    inside = [comp for comp in naive_components(induced) if comp[0] in nodes]
    assert induced_connected(ig, nodes) == (len(inside) == 1)


@given(indist_graphs(), st.data())
def test_common_masks_and_each_component(ig, data):
    masks = data.draw(st.lists(st.integers(0, 15), min_size=ig.size, max_size=ig.size))
    comps = ig.components()
    for comp, common in zip(comps, common_masks(comps, masks), strict=True):
        assert common == mask_of(
            set.intersection(*(set(procs_of(masks[u])) for u in comp))
        )


@given(adversaries(max_n=3, max_graphs=4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_pattern_components_match_pattern_graph(d, r):
    if len(d) ** r > 500:
        return
    assert tuple(map(tuple, pattern_components(d, r))) == naive_components(
        pattern_indist_graph(d, r)
    )


@given(adversaries(rooted=True, max_n=3, max_graphs=4), st.integers(1, 3))
@example(lossy_link(2, 1), 3)
@example(rooted_trees(3), 2)
@settings(max_examples=40, deadline=None)
def test_witness_path_matches_pattern_graph_search(d, i):
    if len(d) ** i > 500:
        return
    w = imposs_witness(d, i)
    if w is None:
        return
    start = pattern_index(Pattern.repeat(d, d.index_of(w.graph_a), i))
    goal = pattern_index(Pattern.repeat(d, d.index_of(w.graph_b), i))
    assert list(map(pattern_index, w.path)) == naive_path(
        pattern_indist_graph(d, i), start, goal
    )


def _partition(values) -> list[list[int]]:
    """Indices grouped by equal value, in order of first occurrence."""
    groups: dict = {}
    for i, v in enumerate(values):
        groups.setdefault(v, []).append(i)
    return list(groups.values())


def _heard(view) -> int:
    """Mask of the processes whose round-0 view occurs inside a naive view."""
    if view[0] == "init":
        return 1 << (view[1] - 1)
    mask = 0
    for sub in view[2]:
        mask |= _heard(sub)
    return mask


@given(adversaries(max_n=4, max_graphs=3))
@settings(max_examples=40, deadline=None)
def test_column_levels_match_naive_views(d):
    n = d.n
    for level in iter_pattern_levels(d, 3):
        r = level.rounds
        pats = [pattern_at(d, r, i) for i in range(len(d) ** r)]
        naive = [[naive_view(sigma, p, r) for sigma in pats] for p in range(1, n + 1)]
        # ids of different processes never coincide
        assert len(set().union(*level.views)) == sum(len(set(c)) for c in level.views)
        labels: dict[tuple[int, int], int] = {}
        for p in range(n):
            assert len(level.views[p]) == len(pats)
            groups = _partition(naive[p])
            assert _partition(level.views[p]) == groups
            assert level.influence[p] == [_heard(view) for view in naive[p]]
            for members in groups:
                for a, i in enumerate(members):
                    for j in members[a + 1:]:
                        labels[(i, j)] = labels.get((i, j), 0) | (1 << p)
        assert level.broadcaster_masks() == [broadcaster_mask(sigma) for sigma in pats]
        pig = pattern_indist_graph(d, r)
        assert {(u, v): lab for u, v, lab in pig.edges()} == labels
        naive_graph = IndistGraph(len(pats), [s.name for s in pats], labels)
        assert tuple(map(tuple, pattern_components(d, r))) == naive_components(naive_graph)


def _levels_up_to(d: Adversary, r_max: int, limit: int) -> int:
    """The largest r <= r_max whose pattern count stays within the limit."""
    while r_max and len(d) ** r_max > limit:
        r_max -= 1
    return r_max


@given(adversaries(max_n=4, max_graphs=4))
@example(source_broadcast(2, 1))
@example(source_broadcast(3, 1))
@example(source_broadcast(4, 1))
@example(rooted_trees(3))
@example(lossy_link(3, 1))
@settings(max_examples=60, deadline=None)
def test_column_levels_equal_interned_ids(d):
    # graph-identifying processes get their ids without interning, and
    # graphs with one in-neighbourhood share one interning pass; every id
    # must still be the one first-position interning assigns
    r_max = _levels_up_to(d, 4, 500)
    levels = [level.views for level in iter_pattern_levels(d, r_max)]
    assert levels == interned_levels(d, r_max)


def _naive_level(d: Adversary, r: int) -> tuple[IndistGraph, list[int]]:
    """The r-round pattern graph from raw view equality, and each pattern's
    broadcasters: the processes heard in every process's raw view."""
    pats = [pattern_at(d, r, i) for i in range(len(d) ** r)]
    naive = [[naive_view(sigma, p, r) for sigma in pats] for p in range(1, d.n + 1)]
    labels: dict[tuple[int, int], int] = {}
    for p, column in enumerate(naive):
        for members in _partition(column):
            for a, i in enumerate(members):
                for j in members[a + 1:]:
                    labels[(i, j)] = labels.get((i, j), 0) | (1 << p)
    graph = IndistGraph(len(pats), [sigma.name for sigma in pats], labels)
    bcast = [reduce(and_, (_heard(column[i]) for column in naive)) for i in range(len(pats))]
    return graph, bcast


@given(adversaries(max_n=4, max_graphs=4), st.integers(0, 2))
@example(rooted_trees(3), 1)
@example(lossy_link(2, 1), 2)
@settings(max_examples=40, deadline=None)
def test_components_only_split_along_extensions(d, r):
    # components only split: every level-(r+1) component lies inside the
    # extensions of one level-r component, since each process hears itself
    if len(d) ** (r + 1) > 300:
        return
    m = len(d)
    before = naive_components(_naive_level(d, r)[0])
    comp_of = {i: k for k, comp in enumerate(before) for i in comp}
    for comp in naive_components(_naive_level(d, r + 1)[0]):
        assert len({comp_of[i // m] for i in comp}) == 1


@given(adversaries(max_n=4, max_graphs=4), st.integers(0, 2))
@example(rooted_trees(3), 1)
@example(source_broadcast(3, 1), 2)
@settings(max_examples=40, deadline=None)
def test_broadcasters_only_grow_along_extensions(d, r):
    # broadcasters only grow: a pattern's broadcasters stay broadcasters of
    # every extension, since influence masks are ORed along self-loops
    if len(d) ** (r + 1) > 300:
        return
    m = len(d)
    _, before = _naive_level(d, r)
    _, after = _naive_level(d, r + 1)
    assert all(is_subset(before[i // m], mask) for i, mask in enumerate(after))


def _component_min_horizon(d: Adversary, r_max: int) -> int | None:
    """The oracle's answer from whole components: the first level at which
    the broadcaster masks of every component's patterns share a process."""
    for r in range(1, r_max + 1):
        comps = naive_components(_naive_level(d, r)[0])
        if all(
            reduce(and_, (broadcaster_mask(pattern_at(d, r, i)) for i in comp))
            for comp in comps
        ):
            return r
    return None


@given(
    st.one_of(adversaries(max_n=4, max_graphs=4), adversaries(rooted=True, max_graphs=4)),
    st.integers(0, 3),
)
# one pattern, linked to none, with no broadcaster
@example(Adversary([CommunicationGraph(2, [])]), 1)
@example(lossy_link(2, 1), 3)
@example(source_broadcast(3, 1), 2)
@settings(max_examples=60, deadline=None)
def test_oracle_matches_component_reference(d, r_max):
    # the oracle stops a level at its first linked patterns without a common
    # broadcaster; the answer must be the one whole components give
    r_max = _levels_up_to(d, r_max, 300)
    assert oracle_min_horizon(d, r_max) == _component_min_horizon(d, r_max)


@given(
    st.one_of(adversaries(max_n=4, max_graphs=4), adversaries(rooted=True, max_graphs=4)),
    st.integers(0, 3),
)
@example(lossy_link(2, 1), 2)
@example(source_broadcast(3, 1), 2)
@example(rooted_trees(3), 2)
# decides some runs at round 2 and the rest at round 3
@example(random_rooted(4, 5, 0), 3)
@settings(max_examples=60, deadline=None)
def test_rule_matches_component_reference(d, t):
    # each t-round pattern decides on a common broadcaster of its whole
    # t-component: the smallest common broadcaster of its prefix's component
    # at the first round where that component has one.  A failing horizon
    # names the first t-component without one.
    t = _levels_up_to(d, t, 300)
    m = len(d)
    comps = naive_components(pattern_indist_graph(d, t))
    commons = [
        reduce(and_, (broadcaster_mask(pattern_at(d, t, i)) for i in comp)) for comp in comps
    ]
    failing = [comp for comp, common in zip(comps, commons) if not common]
    if failing:
        with pytest.raises(NonBroadcastableComponentError) as exc:
            build_rule(d, t)
        assert exc.value.pattern_names == [pattern_at(d, t, i).name for i in failing[0]]
        return
    # per round r, each r-round pattern's component AND from raw views
    level_commons = []
    for r in range(t + 1):
        graph, bcast = _naive_level(d, r)
        level_commons.append(
            {
                i: reduce(and_, (bcast[j] for j in comp))
                for comp in naive_components(graph)
                for i in comp
            }
        )
    common_of = {i: common for comp, common in zip(comps, commons) for i in comp}
    rule = build_rule(d, t)
    for i in range(m**t):
        first = next(
            c for c in (level_commons[r][i // m ** (t - r)] for r in range(t + 1)) if c
        )
        b = rule.decision_process(pattern_at(d, t, i))
        assert b == min(procs_of(first))
        assert common_of[i] >> (b - 1) & 1


def _view_pairs(views) -> list[tuple[int, int]]:
    """(first pattern with the same view, pattern) for every process's view
    that an earlier pattern shares, found with a dict per column."""
    pairs = []
    for column in views:
        first: dict[int, int] = {}
        pairs += [(f, i) for i, f in enumerate(map(first.setdefault, column, count())) if f != i]
    return pairs


def _first_positions(column) -> list[int] | None:
    """Each entry's first position in the column, by dict, or None when no
    entry repeats."""
    first: dict[int, int] = {}
    reference = [first.setdefault(v, i) for i, v in enumerate(column)]
    return reference if reference != list(range(len(column))) else None


@given(adversaries(max_n=4, max_graphs=4), st.data())
@example(source_broadcast(3, 1), None)
@example(rooted_trees(3), None)
@example(lossy_link(3, 1), None)
@settings(max_examples=60, deadline=None)
def test_pruned_levels_stay_fresh(d, data):
    # extend arbitrary kept subsets, as the rule's tree does: the new columns
    # must still intern views exactly, count ids up so that ``_first_seen``
    # agrees with a dict on each column and, in steps of m, on each group's
    # slice, and give graph-identifying processes distinct ids through the
    # range shortcut
    inputs = m, groups_of, _ = _round_inputs(d)
    level = _level_zero(d.n)
    for r in range(1, _levels_up_to(d, 3, 300) + 1):
        if data is None:
            flags = [i % 2 == 0 for i in range(len(level.index))]
        else:
            size = len(level.index)
            flags = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        if not any(flags):
            return
        kept = [k for k, keep in zip(level.index, flags) if keep]
        level.keep(flags)
        level = _extend(level, inputs)
        assert list(level.index) == [k * m + g for k in kept for g in range(m)]
        patterns = [pattern_at(d, r, k) for k in level.index]
        for p, column in enumerate(level.views):
            naive = [naive_view(sigma, p + 1, r) for sigma in patterns]
            assert _partition(column) == _partition(naive)
            assert _first_seen(column) == _first_positions(column)
            if len(groups_of[p]) == m:
                assert _first_seen(column) is None
            for gs in groups_of[p].values():
                assert _first_seen(column[gs[0]::m], m) == _first_positions(column[gs[0]::m])


def _unseeded_commons(views, masks: list[int]) -> list[int]:
    """Each pattern's component AND of the masks, from an unseeded
    ``union_find`` over every ``_view_pairs`` pair."""
    comp_of, comps = group(union_find(len(masks), _view_pairs(views)))
    commons = common_masks(comps, masks)
    return [commons[c] for c in comp_of]


def _group_influence(level, d, draw) -> list[list[int]]:
    """Influence columns drawn per (process, group, parent): like the real
    ones, equal across the graphs of one group of the process."""
    m, groups_of, _ = _round_inputs(d)
    size = len(level.index)
    influence = []
    for groups in groups_of:
        column = [0] * size
        for gs in groups.values():
            values = draw(size // m)
            for g in gs:
                column[g::m] = values
        influence.append(column)
    return influence


@given(adversaries(max_n=4, max_graphs=4), st.data())
@example(lossy_link(2, 1), None)
@example(rooted_trees(3), None)  # one part; level 3 has 729 patterns
@example(source_broadcast(3, 1), None)  # three parts and no shared view
@example(random_rooted(3, 4, 4), None)  # two parts, both with shared views
@settings(max_examples=60, deadline=None)
def test_seeded_linking_equals_unseeded_union_find(d, data):
    # the linker links one node per (parent, part), seeded with a group's
    # slice; components and ANDs must be those of linking every pattern
    # pair from scratch, on full levels and on levels extended from pruned
    # ones, for the broadcaster masks and for drawn ones
    if data is None:
        draw = lambda k: [(7 * i + k) % (1 << d.n) for i in range(k)]  # noqa: E731
    else:
        draw = lambda k: data.draw(  # noqa: E731
            st.lists(st.integers(0, (1 << d.n) - 1), min_size=k, max_size=k)
        )
    inputs = _round_inputs(d)
    for pruned in (False, True):
        level = _level_zero(d.n)
        for r in range(_levels_up_to(d, 3, 800) + 1):
            if pruned and r > 1:
                size = len(level.index)
                if data is None:
                    flags = [i % 3 != 1 for i in range(size)]
                else:
                    flags = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
                if not any(flags):
                    break
                level.keep(flags)
            if r > 0:
                level = _extend(level, inputs)
            views, size = level.views, len(level.index)
            rep = union_find(size, _view_pairs(views))
            assert _components(level) == group(rep)
            drawn = _group_influence(level, d, draw) if r else level.influence
            for influence in (level.influence, drawn):
                probe = PatternLevel(level.rounds, level.index, level.inputs, views, influence)
                bmasks = probe.broadcaster_masks()
                commons = _unseeded_commons(views, bmasks)
                assert _level_commons(probe, False) == commons
                stopped = _level_commons(probe, True)
                assert stopped == (None if 0 in commons else commons)
                assert stopped == union_find(size, _view_pairs(views), bmasks)


# the stopping check, the full component ANDs and the components
_LINK_QUERIES = (
    lambda level: _level_commons(level, True),
    lambda level: _level_commons(level, False),
    _components,
)


def _linked(level) -> list:
    return [query(level) for query in _LINK_QUERIES]


@given(adversaries(max_n=4, max_graphs=4), st.integers(1, 3), st.data())
@example(rooted_trees(3), 4, None)  # 6,561 patterns, one part of 9 graphs
@example(source_broadcast(3, 1), 3, None)
@example(random_rooted(3, 4, 4), 3, None)
@settings(max_examples=60, deadline=None)
def test_levels_built_on_demand_link_as_built_ones(d, r_max, data):
    # a fresh level interns a group when the linker first reads it; each
    # linker call, on a fresh level of its own, must give what it gives on
    # that level once its columns are built, and on a level given those
    # columns, whose group arrays are their slices; full and pruned parents
    inputs = _round_inputs(d)
    for pruned in (False, True):
        level = _level_zero(d.n)
        for r in range(1, r_max + 1):
            if pruned and r > 1:
                size = len(level.index)
                if data is None:
                    flags = [i % 3 != 1 for i in range(size)]
                else:
                    flags = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
                if not any(flags):
                    break
                level.keep(flags)
            fresh = [_extend(level, inputs) for _ in _LINK_QUERIES]
            on_demand = [query(new) for query, new in zip(_LINK_QUERIES, fresh)]
            level = _extend(level, inputs)
            given = PatternLevel(r, level.index, inputs, level.views, level.influence)
            assert on_demand == _linked(level) == _linked(given)
            for new in fresh:
                assert new.views == level.views and new.influence == level.influence
                assert _linked(new) == on_demand


def test_failing_last_level_interns_only_what_the_linker_read():
    # rooted_trees(3) has 9 groups, three per process, in one part: level
    # 5's stopping check fails before the linker has read them all, and
    # neither column is built
    d = rooted_trees(3)
    level = _final_level(d, 5, len(d) ** 5)
    assert _level_commons(level, True) is None
    assert sum(map(len, _round_inputs(d)[1])) == 9
    assert 0 < len(level._ids) < 9
    assert level._views is None and level._influence is None
    assert len(level.views[0]) == 9**5 and len(level._ids) == 9


@given(adversaries(max_n=4, max_graphs=4))
@example(source_broadcast(2, 1))
@example(source_broadcast(3, 1))
@example(source_broadcast(4, 1))
@settings(max_examples=60, deadline=None)
def test_level_ids_count_up_in_order_of_first_appearance(d):
    # ``_first_seen`` and the seeded linking read each pattern's first
    # pattern with the same view off its id less the column's first, which
    # holds only if a view new at position i gets the id base + i and a
    # repeated view an earlier id
    for level in iter_pattern_levels(d, _levels_up_to(d, 4, 500)):
        for column in level.views:
            base = column[0]
            for i, entry in enumerate(column):
                assert entry == base + i or base <= entry < base + i
                assert column[entry - base] == entry


@st.composite
def ordered_trees(draw, max_n=40):
    """A random tree oriented away from a random root, with process numbers
    drawn so that edges often run against the numbering, plus a few random
    extra edges.  A node drawn without a parent starts a second tree, so
    some of these graphs are not rooted."""
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    edges = []
    for k in range(1, n):
        parent = draw(st.integers(-1, k - 1))
        if parent >= 0:
            edges.append((order[parent], order[k]))
    extra = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(extra, max_size=3))
    return CommunicationGraph(n, edges)


@given(ordered_trees())
@settings(max_examples=150, deadline=None)
def test_root_matches_naive_reachability_on_ordered_trees(g):
    assert g.root == naive_root(g)


@given(comm_graphs(), st.randoms())
def test_root_invariant_under_relabeling(g, rnd):
    perm = list(range(1, g.n + 1))
    rnd.shuffle(perm)
    mapping = {p: perm[p - 1] for p in range(1, g.n + 1)}
    h = g.relabel(mapping)
    if g.root is None:
        assert h.root is None
    else:
        assert h.root == {mapping[p] for p in g.root}


@given(comm_graphs(), st.data())
def test_edge_into_root_grows_it(g, data):
    if not g.is_rooted or len(g.root) == g.n:
        return
    outside = sorted(set(range(1, g.n + 1)) - g.root)
    u = data.draw(st.sampled_from(outside))
    v = data.draw(st.sampled_from(sorted(g.root)))
    h = CommunicationGraph(g.n, g.edges() + [(u, v)])
    assert h.is_rooted
    assert h.root > g.root


@given(adversaries())
def test_single_round_labels_match_naive_oracle(d):
    ig = single_round_indist(d)
    ins = [naive_in_sets(g) for g in d.graphs]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            expected = {p for p in range(1, d.n + 1) if ins[i][p] == ins[j][p]}
            label = ig.label(i, j)
            got = set(procs_of(label)) if label is not None else set()
            assert got == expected


@given(adversaries(), st.randoms())
def test_single_round_isomorphic_under_graph_permutation(d, rnd):
    order = list(range(len(d)))
    rnd.shuffle(order)
    permuted = Adversary(
        [
            CommunicationGraph(d.n, d.graphs[k].edges(), f"P{i}")
            for i, k in enumerate(order)
        ]
    )
    a = single_round_indist(d)
    b = single_round_indist(permuted)
    pos = {k: i for i, k in enumerate(order)}
    remapped = {}
    for u, v, lab in a.edges():
        x, y = pos[u], pos[v]
        remapped[(min(x, y), max(x, y))] = lab
    assert remapped == {(u, v): lab for u, v, lab in b.edges()}


@given(adversaries())
def test_one_round_patterns_agree_with_view_equality(d):
    # the in-neighborhood definition and the view definition must coincide
    ig = single_round_indist(d)
    pig = pattern_indist_graph(d, 1)
    assert {(u, v): lab for u, v, lab in ig.edges()} == {
        (u, v): lab for u, v, lab in pig.edges()
    }


@given(adversaries(rooted=True, max_n=3, max_graphs=3))
@settings(max_examples=40, deadline=None)
def test_extension_by_fitting_root_keeps_edge(d):
    # for each edge and each graph whose root fits the label, the common
    # extension stays an edge with a label nested between root and original
    r = 2
    pig = pattern_indist_graph(d, r)
    for u, v, lab in pig.edges():
        s1, s2 = pattern_at(d, r, u), pattern_at(d, r, v)
        for gi, g in enumerate(d.graphs):
            if is_subset(g.root_mask, lab):
                ext = indist_label(s1.extend(gi), s2.extend(gi))
                assert is_subset(g.root_mask, ext)
                assert is_subset(ext, lab)


@given(adversaries(rooted=True, max_n=3, max_graphs=3))
@settings(max_examples=40, deadline=None)
def test_prefix_preserves_edges_with_larger_labels(d):
    r = 3
    pig = pattern_indist_graph(d, r)
    for u, v, lab in pig.edges():
        s1, s2 = pattern_at(d, r, u), pattern_at(d, r, v)
        p1, p2 = s1.prefix(r - 1), s2.prefix(r - 1)
        if p1.rounds == p2.rounds:
            continue
        plab = indist_label(p1, p2)
        assert is_subset(lab, plab)


@given(adversaries(rooted=True, max_n=3, max_graphs=2))
@settings(max_examples=40, deadline=None)
def test_round_removal_keeps_edges(d):
    r = 3
    pig = pattern_indist_graph(d, r)
    for u, v, _ in pig.edges():
        s1, s2 = pattern_at(d, r, u), pattern_at(d, r, v)
        for rr in range(1, r + 1):
            a, b = s1.remove_round(rr), s2.remove_round(rr)
            if a.rounds == b.rounds:
                continue
            assert indist_label(a, b) != 0


@given(adversaries(rooted=True))
@settings(max_examples=60, deadline=None)
def test_refinement_monotone_and_bounded(d):
    trace = decide(d, no_early_exit=True)
    assert trace.iterations <= 2 ** d.n
    for earlier, later in zip(trace.levels, trace.levels[1:]):
        assert later.labels().keys() <= earlier.labels().keys()
    assert trace.reached_fixpoint


def assert_matches_naive_refinement(d):
    for no_early_exit in (False, True):
        trace = decide(d, no_early_exit=no_early_exit)
        ref = naive_refinement(d, no_early_exit=no_early_exit)
        assert trace.verdict.value == ref.verdict
        assert trace.iterations == ref.iterations
        assert trace.removed == ref.removed
        assert [lvl.edges() for lvl in trace.levels] == [lvl.edges() for lvl in ref.levels]
        assert trace.components_final == ref.components
        assert trace.reached_fixpoint == (len(ref.removed) >= 2 and not ref.removed[-1])


FAMILY_CASES = {
    "chain12": lambda: gen_chain(simple_chain_spec(12)),
    "partitioned2x3": lambda: gen_partitioned(2, 3).adversary,
    "rooted_trees3": lambda: rooted_trees(3),
    "lossy_link3-1": lambda: lossy_link(3, 1),
    "lossy_link3-2": lambda: lossy_link(3, 2),
    "lossy_link4-2": lambda: lossy_link(4, 2),
    "source_broadcast4-2": lambda: source_broadcast(4, 2),
    **{f"random_rooted4x14s{seed}": (lambda s=seed: random_rooted(4, 14, s)) for seed in range(4)},
}


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_decide_matches_naive_refinement_on_families(name):
    assert_matches_naive_refinement(FAMILY_CASES[name]())


@given(adversaries(max_n=5, max_graphs=8, rooted=True))
@settings(max_examples=100, deadline=None)
def test_decide_matches_naive_refinement(d):
    assert_matches_naive_refinement(d)


@given(adversaries(max_n=4, max_graphs=5))
@settings(max_examples=40, deadline=None)
def test_decide_matches_naive_refinement_unrooted_allowed(d):
    assert_matches_naive_refinement(d)


@given(adversaries(rooted=True))
@settings(max_examples=60, deadline=None)
def test_verdict_same_with_and_without_early_exit(d):
    assert decide(d).verdict == decide(d, no_early_exit=True).verdict


@given(adversaries(max_n=3, max_graphs=3))
@settings(max_examples=30, deadline=None)
def test_views_interning_matches_naive_equality(d):
    # identifier equality must coincide with raw structural equality
    r = 2
    total = len(d) ** r
    if total > 30:
        total = 30
    pats = [pattern_at(d, r, i) for i in range(total)]
    rows = [row for row, _ in final_views(pats)]
    for i in range(len(pats)):
        for j in range(i + 1, len(pats)):
            fast = {
                p
                for p in range(1, d.n + 1)
                if rows[i][p - 1] == rows[j][p - 1]
            }
            assert fast == naive_indist_procs(pats[i], pats[j])


@given(adversaries(rooted=True, max_n=3, max_graphs=3))
@settings(max_examples=30, deadline=None)
@example(
    Adversary(
        [
            CommunicationGraph(3, [(3, 1), (1, 2), (3, 2), (1, 3), (2, 3)]),
            CommunicationGraph(3, [(2, 1), (3, 1), (1, 3), (2, 3)]),
            CommunicationGraph.complete(3),
        ]
    )
)
def test_separate_components_never_mix_patterns(d):
    # graphs from different final components yield disconnected repetitions
    # once the horizon reaches (n-1) * iterations; shorter horizons may still
    # join them (e.g. n=3 with in-masks (5,7,7), (7,2,7), (7,7,7) mixes up to
    # r=3 although its horizon is 8)
    trace = decide(d, no_early_exit=True)
    comps = trace.components_final
    if len(comps) < 2:
        return
    r = (d.n - 1) * trace.iterations
    if r < 1 or len(d) ** r > 10_000:
        return
    from oblicon.patterns import pattern_components, pattern_index

    pcs = pattern_components(d, r)
    pc_of = {}
    for ci, comp in enumerate(pcs):
        for i in comp:
            pc_of[i] = ci
    comp_of_graph = {u: k for k, comp in enumerate(comps) for u in comp}
    import itertools

    for comp in comps:
        inside = {
            pc_of[pattern_index(Pattern(d, rounds))]
            for rounds in itertools.product(comp, repeat=r)
        }
        outside_first = {
            pc_of[pattern_index(Pattern(d, (g,) + rest))]
            for g in range(len(d))
            if comp_of_graph[g] != comp_of_graph[comp[0]]
            for rest in itertools.product(range(len(d)), repeat=r - 1)
        }
        assert not (inside & outside_first)


@given(
    st.one_of(adversaries(max_n=4, max_graphs=4), adversaries(rooted=True, max_graphs=4)),
    st.integers(0, 3),
)
@example(lossy_link(2, 1), 2)
@example(source_broadcast(3, 1), 3)
@example(rooted_trees(3), 2)
@example(random_rooted(4, 5, 0), 3)
@settings(max_examples=60, deadline=None)
def test_rule_ends_at_the_oracle_horizon(d, r):
    # verify takes its horizon from the oracle's full levels and builds the
    # pruned tree to it: the tree must end at the oracle's round h (every
    # process count here is at least 2, so round 0 never decides), and fail
    # where the oracle finds no horizon
    r = _levels_up_to(d, r, 300)
    h = oracle_min_horizon(d, r)
    if h is None:
        with pytest.raises(NonBroadcastableComponentError):
            build_rule(d, r)
    else:
        assert len(build_rule(d, r).decided) - 1 == h


@given(
    st.one_of(adversaries(max_n=4, max_graphs=4), adversaries(rooted=True, max_graphs=4)),
    st.integers(0, 3),
)
@example(lossy_link(2, 1), 2)
@example(random_rooted(4, 5, 0), 3)
@settings(max_examples=60, deadline=None)
def test_rule_until_a_pattern_matches_the_whole_tree(d, t):
    # simulate's tree stops at the round that decides its pattern; it must
    # decide the pattern as verify's tree does, and a pattern that no round
    # decides must name the same failing component
    t = _levels_up_to(d, t, 100)
    try:
        whole, failing = build_rule(d, t), None
    except NonBroadcastableComponentError as exc:
        whole, failing = None, exc.pattern_names
    for i in range(len(d) ** t):
        sigma = pattern_at(d, t, i)
        try:
            rule = build_rule(d, t, until=sigma)
        except NonBroadcastableComponentError as exc:
            assert exc.pattern_names == failing
            continue
        assert rule.decision_process(sigma)
        if whole is not None:
            assert rule.decision_process(sigma) == whole.decision_process(sigma)


def test_oracle_broadcastability_monotone_on_catalog():
    # observational: once every component is broadcastable, larger horizons
    # stayed broadcastable on every case we could check cheaply
    from oblicon.families import source_broadcast
    from oblicon.graphs import CommunicationGraph as CG
    from oblicon.indist import Adversary as Adv
    from oblicon.simulate import build_rule
    from oblicon.errors import NonBroadcastableComponentError

    cases = [
        source_broadcast(3, 1),
        Adv([CG(3, [(1, 2), (1, 3)], "G1"), CG(3, [(1, 2), (2, 3)], "G2")]),
        Adv([CG(3, [(1, 2), (2, 3)], "C")]),
    ]
    from oblicon.simulate import oracle_min_horizon

    findings = []
    for d in cases:
        r = oracle_min_horizon(d, 6)
        assert r is not None
        for extra in (1, 2):
            try:
                build_rule(d, r + extra)
            except NonBroadcastableComponentError:
                findings.append((d, r + extra))
    # the general claim follows from the two facts that
    # test_components_only_split_along_extensions and
    # test_broadcasters_only_grow_along_extensions check
    if findings:
        print(f"broadcastability non-monotone on: {findings}")
    assert not findings


@st.composite
def label_columns(draw):
    """Int columns of one length, each all-distinct, all-equal or drawn from
    a few values, so singletons, repeats and skipped columns all occur."""
    size = draw(st.integers(1, 12))
    kinds = st.sampled_from(["distinct", "equal", "mixed"])
    columns = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "distinct":
            column = draw(st.permutations([v * 7 - 20 for v in range(size)]))
        elif kind == "equal":
            column = [draw(st.integers(-(2**70), 2**70))] * size
        else:
            column = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        columns.append(tuple(column))
    return columns


@given(label_columns())
@settings(max_examples=200, deadline=None)
def test_bucket_labels_match_all_pairs_reference(columns):
    assert bucket_labels(columns) == naive_bucket_labels(columns)
