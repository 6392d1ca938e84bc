import hashlib
import json
import time

import pytest

from oblicon import families
from oblicon.cli import adversary_to_doc
from oblicon.decision import Verdict, decide
from oblicon.graphs import CommunicationGraph
from oblicon.errors import FamilyValidationError
from oblicon.families import (
    ChainSpec,
    InflateSpec,
    check_inflation_preserved,
    gen_chain,
    gen_inflated,
    gen_canonical_chain,
    gen_partitioned,
    inflate_pattern,
    inflated_spec,
    interconnect_variant_count,
    lossy_link,
    random_rooted,
    rooted_trees,
    simple_chain_spec,
    source_broadcast,
)
from oblicon.indist import Adversary, single_round_indist
from oblicon.patterns import (
    Pattern,
    indist_label,
    pattern_components,
    pattern_index,
)
from oblicon.procset import mask_of, procs_of


# --- chain -------------------------------------------------------------------


def test_chain_spec_example_n10():
    spec = ChainSpec(
        10,
        (frozenset({5}), frozenset({1}), frozenset({3})),
        frozenset(range(6, 11)),
    )
    adv = gen_chain(spec)
    assert len(adv) == 2
    ig = single_round_indist(adv)
    assert [(u, v, set(procs_of(lab))) for u, v, lab in ig.edges()] == [(0, 1, {3})]


def test_chain_rejects_overlapping_consecutive_roots():
    with pytest.raises(FamilyValidationError):
        ChainSpec(
            10,
            (frozenset({1}), frozenset({1, 2}) - {2} | {1}, frozenset({3})),
            frozenset(range(6, 11)),
        )
    with pytest.raises(FamilyValidationError):
        ChainSpec(
            10,
            (frozenset({1, 2}), frozenset({2, 3}), frozenset({4, 5})),
            frozenset(range(6, 11)),
        )


def test_chain_rejects_small_encoder_set():
    with pytest.raises(FamilyValidationError) as exc:
        ChainSpec(
            8,
            tuple(frozenset({k}) for k in range(1, 6)),  # 4 graphs
            frozenset({6, 7}),  # needs ceil(log2(7)) = 3
        )
    assert "encoder" in str(exc.value)


def test_chain_decide_structure_for_lengths():
    for num in (2, 3, 5):
        adv = gen_chain(simple_chain_spec(num))
        trace = decide(adv)
        assert trace.verdict is Verdict.SOLVABLE
        assert trace.removal_iterations == num - 1
        removals = [r for r in trace.removed if r]
        assert removals == [((num - k - 2, num - k - 1),) for k in range(num - 1)]


def test_canonical_chain_n12():
    spec = gen_canonical_chain(12, 4)
    assert [sorted(r) for r in spec.roots] == [[1], [2], [3], [4], [5]]
    assert spec.encoders == frozenset(range(7, 13))
    gen_chain(spec)


def test_canonical_chain_n24_properties():
    spec = gen_canonical_chain(24, 6)
    assert all(len(r) == 2 for r in spec.roots)
    assert len(set(spec.roots)) == len(spec.roots)
    for k in range(len(spec.roots) - 2):
        a, b, c = spec.roots[k : k + 3]
        assert not (a & b or a & c or b & c)
    gen_chain(spec)


def test_canonical_chain_rejects_bad_n():
    with pytest.raises(FamilyValidationError):
        gen_canonical_chain(13, 3)


def test_canonical_chain_exhaustion():
    # n=12 supports only 6 distinct singleton cells
    with pytest.raises(FamilyValidationError):
        gen_canonical_chain(12, 8)


# --- inflated ----------------------------------------------------------------


def _inflated_pair(num_graphs=2, path_len=2):
    infl = inflated_spec(num_graphs, path_len)
    return gen_chain(infl.base), infl, gen_inflated(infl)


def test_inflated_spec_widens_the_chain_by_its_path():
    # at a given n the chain takes the low processes and the path the top ones
    base = simple_chain_spec(3, 9)
    spec = inflated_spec(3, 2, 11)
    assert spec.base == ChainSpec(11, base.roots, base.encoders)
    assert spec.path == (10, 11)
    assert inflated_spec(3, 2).path == (8, 9)  # 3 graphs need 7 processes


def test_inflated_delay_holds_then_breaks():
    base_adv, spec, infl_adv = _inflated_pair(2, 2)
    target = mask_of(spec.base.roots[2])
    labels = {
        r: indist_label(Pattern.repeat(infl_adv, 0, r), Pattern.repeat(infl_adv, 1, r))
        for r in range(1, 5)
    }
    # delay holds for r <= |P| (validated at generation) and in fact for one
    # extra round, since the first differing view needs |P|+1 hops to relay
    assert labels[1] & target == target
    assert labels[2] & target == target
    assert labels[3] & target == target
    assert labels[4] & target != target


def test_inflated_single_node_path():
    base_adv, spec, infl_adv = _inflated_pair(2, 1)
    assert len(infl_adv) == 2
    check_inflation_preserved(base_adv, spec, infl_adv, 1)


def test_inflate_spec_rejects_overlap():
    base = simple_chain_spec(2)
    with pytest.raises(FamilyValidationError):
        InflateSpec(base=base, path=(min(base.encoders),))
    with pytest.raises(FamilyValidationError):
        InflateSpec(base=base, path=(1,))  # inside R_1


def test_inflate_pattern_shape_and_checks():
    base_adv, spec, infl_adv = _inflated_pair(3, 2)
    sigma = Pattern(base_adv, (0, 2, 1))
    tilde = inflate_pattern(sigma, spec, infl_adv, 2)
    assert tilde.rounds == (0, 0, 2, 2, 1, 1)
    with pytest.raises(ValueError):
        inflate_pattern(sigma, spec, infl_adv, 3)
    # identical patterns inflate identically
    assert inflate_pattern(sigma, spec, infl_adv, 2).rounds == tilde.rounds


def test_inflation_preserves_edges_lengths_1_and_2():
    base_adv, spec, infl_adv = _inflated_pair(3, 2)
    assert check_inflation_preserved(base_adv, spec, infl_adv, 1) >= 2
    assert check_inflation_preserved(base_adv, spec, infl_adv, 2) > 0


def test_inflated_root_influence_delayed_by_path():
    from oblicon.patterns import final_views
    from oblicon.procset import mask_of

    base_adv, spec, infl_adv = _inflated_pair(2, 2)
    u = min(spec.base.roots[0])
    b = min(spec.base.encoders)
    # reaching the encoders takes the full relay: one hop in, |P|-1 along, one out
    for k in (1, 2):
        assert not final_views([Pattern.repeat(infl_adv, 0, k)])[0][1][b - 1] & mask_of([u])
    assert final_views([Pattern.repeat(infl_adv, 0, 3)])[0][1][b - 1] & mask_of([u])


def test_inflated_new_edges_vanish_in_first_removal():
    base_adv, spec, infl_adv = _inflated_pair(3, 2)
    base_edges = {(u, v) for u, v, _ in single_round_indist(base_adv).edges()}
    infl_ig = single_round_indist(infl_adv)
    new_edges = {(u, v) for u, v, _ in infl_ig.edges()} - base_edges
    assert new_edges  # the relay path makes every pair indistinguishable somewhere
    trace = decide(infl_adv, no_early_exit=True)
    second = trace.levels[1]
    for u, v in new_edges:
        assert second.label(u, v) is None


_ROOTS = (frozenset({1}), frozenset({2}))
_ENCODERS = frozenset({6, 7, 8})
_BASE = simple_chain_spec(2, 8)  # roots {1}, {2}, {3}; encoders {4, 5, 6}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ChainSpec(10, _ROOTS[:1], _ENCODERS), "need at least 2 root sets (one graph)"),
        (lambda: ChainSpec(10, (_ROOTS[0], frozenset()), _ENCODERS), "root set R_2 is empty"),
        (lambda: ChainSpec(10, (_ROOTS[0], frozenset({2, 3})), _ENCODERS),
         "root sets must all have the same size"),
        (lambda: ChainSpec(10, (_ROOTS[0], frozenset({11})), _ENCODERS),
         "root set R_2 out of range 1..10"),
        # two coincident pairs, R_2 = R_3 and R_1 = R_4: the one with the
        # smaller first index is named, as a scan over every pair names it
        (lambda: ChainSpec(10, (*_ROOTS, *_ROOTS[::-1]), _ENCODERS),
         "root sets R_1 and R_4 coincide"),
        (lambda: ChainSpec(10, (_ROOTS[1], *_ROOTS, _ROOTS[1], _ROOTS[1]), _ENCODERS),
         "root sets R_1 and R_3 coincide"),
        (lambda: ChainSpec(10, _ROOTS, frozenset()), "encoder set is empty"),
        (lambda: ChainSpec(10, _ROOTS, _ENCODERS | {11}), "encoder set out of range 1..10"),
        (lambda: ChainSpec(10, _ROOTS, _ENCODERS | {2}), "encoder set intersects root set R_2"),
        (lambda: InflateSpec(_BASE, ()), "relay path must have at least one node"),
        (lambda: InflateSpec(_BASE, (7, 7)), "relay path nodes must be distinct"),
        (lambda: InflateSpec(_BASE, (7, 9)), "relay path out of range 1..8"),
        (lambda: simple_chain_spec(3, 6), "chain with 3 graphs needs n >= 7"),
        (lambda: gen_canonical_chain(12, 0), "max_len must be at least 1"),
    ],
    ids=[
        "one_root_set", "empty_root_set", "unequal_root_sizes", "root_out_of_range",
        "coincident_pairs", "root_set_thrice", "no_encoders", "encoder_out_of_range", "encoder_in_root", "empty_path",
        "repeated_path_node", "path_out_of_range", "chain_n_too_small", "canonical_len_zero",
    ],
)
def test_spec_preconditions_raise(build, message):
    with pytest.raises(FamilyValidationError) as exc:
        build()
    assert str(exc.value) == message


def _chain(num_graphs):
    return gen_chain(simple_chain_spec(num_graphs))


def _inflated(path_len):
    return gen_inflated(inflated_spec(3, path_len))


def _chain_edge_without_its_root_label():
    """Roots {1}, {2}, {3}, as in the 3-chain, but p4 alone cannot tell G1
    from G2: the edge (G1,G2) lacks p3, whose root set R_3 labels it."""
    return Adversary([
        CommunicationGraph(4, [(1, 2), (1, 3), (1, 4), (2, 4)], "G1"),
        CommunicationGraph(4, [(2, 1), (2, 3), (2, 4), (1, 4)], "G2"),
        CommunicationGraph(4, [(3, 1), (3, 2), (3, 4)], "G3"),
    ])


def _undoctored(monkeypatch):
    pass


# (build, doctor, message): each validator run on an adversary made to fail
# it, mostly a spec paired with another family's adversary.  Nothing a caller
# passes in reaches gen_partitioned's block checks or random_rooted's attempt
# cap, so ``doctor`` stubs the property they check, or overstates the rooted
# graphs that exist on n=2 (4 of 4, where 3 are rooted).
FAMILY_CHECKS = [
    (lambda: families._validate_chain(
        simple_chain_spec(3), Adversary(list(reversed(_chain(3).graphs)))),
     _undoctored, "Root(G3) = frozenset({3}), expected {1}"),
    (lambda: families._validate_chain(simple_chain_spec(2), _chain(3)), _undoctored,
     "indistinguishability graph is not the expected chain: got {(0, 1): 4, (1, 2): 8}, "
     "expected {(0, 1): 4}"),
    (lambda: families._validate_inflated(inflated_spec(3, 1), _chain_edge_without_its_root_label()),
     _undoctored, "chain edge (G1,G2) lost its root label"),
    (lambda: families._validate_inflated(inflated_spec(3, 1), _inflated(2)), _undoctored,
     "new edge (G1,G3) has label outside the relay/encoder sets"),
    (lambda: families._validate_inflated(inflated_spec(3, 3), _inflated(1)), _undoctored,
     "delay violated: G1^3 vs G2^3 distinguishable inside R_3 with path length 3"),
    (lambda: inflate_pattern(Pattern(_chain(2), (0,)), inflated_spec(3, 2), _inflated(2), 2),
     _undoctored, "pattern's adversary does not match the inflated family size"),
    (lambda: check_inflation_preserved(_chain(3), inflated_spec(3, 2), _chain(3), 1),
     _undoctored, "inflation lost label bits on edge G1 -- G2: (3,) vs ()"),
    (lambda: gen_partitioned(1, 1, 5), _undoctored,
     "partitioned family with t=1, m=1 needs n >= 6"),
    (lambda: gen_partitioned(1, 1),
     lambda mp: mp.setattr(families, "induced_connected", lambda ig, nodes: False),
     "block S_1 is not connected in the indist graph"),
    (lambda: gen_partitioned(1, 1),
     lambda mp: mp.setattr(families, "broadcaster_mask", lambda sigma: 1),
     "witness patterns share a broadcaster; the block product would be broadcastable"),
    (lambda: lossy_link(2, 3), _undoctored, "f must be in 0..2"),
    (lambda: lossy_link(2, -1), _undoctored, "f must be in 0..2"),
    (lambda: random_rooted(2, 4, 0),
     lambda mp: mp.setitem(families._ROOTED_GRAPHS, 2, 4),
     "could not sample 4 distinct rooted graphs on n=2"),
]


@pytest.mark.parametrize(
    "build, doctor, message",
    FAMILY_CHECKS,
    ids=[
        "roots", "chain_edges", "inflated_root_label", "inflated_new_label", "inflated_delay",
        "inflate_pattern_size", "inflation_preserved", "partitioned_n", "partitioned_block",
        "partitioned_witnesses", "lossy_link_f_high", "lossy_link_f_negative",
        "random_rooted_attempts",
    ],
)
def test_family_checks_raise(build, doctor, message, monkeypatch):
    doctor(monkeypatch)
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


# --- partitioned -------------------------------------------------------------


def test_partition_feasibility_bounds():
    assert interconnect_variant_count(1) == 1
    assert interconnect_variant_count(2) == 1
    assert interconnect_variant_count(3) == 8
    with pytest.raises(FamilyValidationError):
        gen_partitioned(2, 1)
    with pytest.raises(FamilyValidationError):
        gen_partitioned(2, 2)


def test_partitioned_t1_smallest():
    fam = gen_partitioned(1, 1)
    assert fam.adversary.n == 6
    assert len(fam.adversary) == 3
    assert fam.blocks == ((0, 1, 2),)
    assert decide(fam.adversary).verdict is Verdict.SOLVABLE


def test_partitioned_t2_blocks_and_verdict():
    fam = gen_partitioned(2, 3)
    assert fam.adversary.n == 17
    assert [len(b) for b in fam.blocks] == [3, 5]
    trace = decide(fam.adversary)
    assert trace.verdict is Verdict.SOLVABLE
    # the exact iteration count at tiny scale is recorded by the trace
    assert trace.iterations == 3


def test_partitioned_block_product_connected():
    fam = gen_partitioned(2, 3)
    comps = pattern_components(fam.adversary, 2)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for i in comp:
            comp_of[i] = ci
    sigma_ids = {
        comp_of[pattern_index(Pattern(fam.adversary, (a, b)))]
        for a in fam.blocks[0]
        for b in fam.blocks[1]
    }
    assert len(sigma_ids) == 1


def test_partitioned_witness_patterns_disjoint_broadcasters():
    from oblicon.patterns import broadcaster_mask

    fam = gen_partitioned(2, 3)
    wa = Pattern(fam.adversary, tuple(b[1] for b in fam.blocks))
    wb = Pattern(fam.adversary, tuple(b[2] for b in fam.blocks))
    assert broadcaster_mask(wa) & broadcaster_mask(wb) == 0


def test_partitioned_layout_is_pinned():
    # digest of the document and blocks as built by the explicit-layout
    # generator this one replaced, so the derived layout cannot drift
    fam = gen_partitioned(2, 3)
    doc = json.dumps([adversary_to_doc(fam.adversary), fam.blocks], sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "1d4377f12777239d9067ca0bcf5d0e8d85701fe6673b3e700ea5c7ece0f5886f"
    )


def test_partitioned_fails_at_the_first_bad_block():
    # each block is checked as it is built, so S_4..S_30 are never built;
    # all 960 graphs and their level-1 graph would take seconds
    t0 = time.perf_counter()
    with pytest.raises(FamilyValidationError) as err:
        gen_partitioned(30, 10)
    assert time.perf_counter() - t0 < 1.0
    assert str(err.value) == (
        "edges [(0, 3), (1, 4), (1, 6), (2, 5), (2, 7)] of blocks S_1..S_2 "
        "are not protected by S_3"
    )


# --- catalog -----------------------------------------------------------------


def test_rooted_trees_counts():
    assert len(rooted_trees(2)) == 2
    assert len(rooted_trees(3)) == 9
    assert all(g.is_rooted and len(g.root) == 1 for g in rooted_trees(3).graphs)
    with pytest.raises(FamilyValidationError):
        rooted_trees(5)


def test_source_broadcast_counts_and_verdict():
    d = source_broadcast(3, 1)
    assert len(d) == 3
    assert single_round_indist(d).num_edges == 0
    assert decide(d).verdict is Verdict.SOLVABLE
    d2 = source_broadcast(4, 2)
    assert len(d2) == 6
    with pytest.raises(FamilyValidationError):
        source_broadcast(3, 3)


def test_lossy_link_enumeration():
    d = lossy_link(2, 1)
    assert len(d) == 3
    assert sorted(len(g.edges()) for g in d.graphs) == [1, 1, 2]
    assert all(g.is_rooted for g in d.graphs)
    # n=3, up to one of six missing edges
    assert len(lossy_link(3, 1)) == 7
    assert len(lossy_link(3, 2)) == 22


def test_lossy_link_f0_is_complete_only():
    d = lossy_link(3, 0)
    assert len(d) == 1
    assert d.graphs[0].root == {1, 2, 3}


def test_lossy_link_at_failure_threshold():
    # dropping up to n-1 edges per round makes consensus impossible; one less
    # keeps it solvable
    assert decide(lossy_link(3, 2)).verdict is Verdict.IMPOSSIBLE
    assert decide(lossy_link(3, 1)).verdict is Verdict.SOLVABLE
    assert decide(lossy_link(2, 1)).verdict is Verdict.IMPOSSIBLE


def test_random_rooted_deterministic():
    a = random_rooted(3, 3, seed=42)
    b = random_rooted(3, 3, seed=42)
    assert [g.edges() for g in a.graphs] == [g.edges() for g in b.graphs]
    assert all(g.is_rooted for g in a.graphs)
    c = random_rooted(3, 3, seed=43)
    assert [g.edges() for g in c.graphs] != [g.edges() for g in a.graphs]


def test_rooted_graph_totals_match_enumeration():
    # random_rooted refuses a count above these totals before sampling
    from itertools import combinations

    from oblicon.families import _ROOTED_GRAPHS

    totals = {}
    for n in (2, 3, 4):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        totals[n] = sum(
            CommunicationGraph(n, edges).is_rooted
            for k in range(len(pairs) + 1)
            for edges in combinations(pairs, k)
        )
    assert totals == _ROOTED_GRAPHS == {2: 3, 3: 51, 4: 3614}
    assert len(random_rooted(3, 51, seed=0)) == 51
    with pytest.raises(FamilyValidationError, match="only 51 exist"):
        random_rooted(3, 52, seed=0)


def test_catalog_family_sizes():
    assert len(lossy_link(2, f=1)) == 3
    assert len(rooted_trees(3)) == 9
    assert len(source_broadcast(3, clique_size=1)) == 3
    assert len(random_rooted(3, count=2, seed=1)) == 2
