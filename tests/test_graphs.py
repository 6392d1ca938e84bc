import pytest

from oblicon.graphs import CommunicationGraph
from oblicon.indist import common_masks

from conftest import complete, in_neighbors, reaches_all


def root_compatible(*graphs: CommunicationGraph) -> bool:
    """True iff the root components of ``graphs`` share a process."""
    return common_masks([range(len(graphs))], [g.root_mask for g in graphs])[0] != 0


def test_self_loops_inserted():
    g = CommunicationGraph(3, [(1, 2)])
    for p in (1, 2, 3):
        assert p in in_neighbors(g, p)
    assert in_neighbors(g, 2) == (1, 2)


def test_rejects_small_n_and_bad_edges():
    with pytest.raises(ValueError):
        CommunicationGraph(1, [])
    with pytest.raises(ValueError):
        CommunicationGraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        CommunicationGraph(3, [(1, 4)])


@pytest.mark.parametrize("bad", [(0, 2), (2, 4), (3, -1), (-5, 1), (2, 10**30), (0.5, 2)])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_first_out_of_range_edge_is_named(bad, at):
    edges = [(1, 2), (2, 3), (3, 1)]
    edges.insert(at, bad)
    edges.append((4, 1))
    message = f"edge \\({bad[0]},{bad[1]}\\) out of range 1..3"
    with pytest.raises(ValueError, match=message):
        CommunicationGraph(3, edges)
    with pytest.raises(ValueError, match=message):
        CommunicationGraph(3, iter(edges))


def test_non_integer_process_in_range_is_a_type_error():
    with pytest.raises(TypeError):
        CommunicationGraph(3, [(1, 2), (1.5, 2)])


def test_edge_containers_build_the_same_graph():
    pairs = [(1, 2), (2, 3), (3, 3), (1, 2)]
    g = CommunicationGraph(3, pairs)
    assert CommunicationGraph(3, [list(e) for e in pairs]) == g
    assert CommunicationGraph(3, set(pairs)) == g
    assert CommunicationGraph(3, iter(pairs)) == g
    assert g.edges() == [(1, 2), (2, 3)]


def test_root_unique_source():
    g = CommunicationGraph(3, [(1, 2), (2, 3)])
    assert g.root == {1}


def test_root_two_cycle_source():
    g = CommunicationGraph(3, [(1, 2), (2, 1), (1, 3)])
    assert g.root == {1, 2}


def test_root_absent_when_disconnected():
    g = CommunicationGraph(2, [])
    assert g.root is None
    assert not g.is_rooted


def test_root_complete_graph():
    g = complete(3)
    assert g.root == {1, 2, 3}


def test_root_compatibility_basic():
    a = CommunicationGraph(3, [(1, 2), (1, 3)])  # root {1}
    b = CommunicationGraph(3, [(1, 2), (2, 1), (1, 3)])  # root {1,2}
    c = CommunicationGraph(3, [(2, 1), (2, 3)])  # root {2}
    assert root_compatible(a, b)
    assert not root_compatible(a, c)


def test_root_compatibility_pairwise_but_not_jointly():
    # roots {1,2}, {2,3}, {1,3}: every pair meets, the triple does not
    g12 = CommunicationGraph(3, [(1, 2), (2, 1), (1, 3)])
    g23 = CommunicationGraph(3, [(2, 3), (3, 2), (2, 1)])
    g13 = CommunicationGraph(3, [(1, 3), (3, 1), (1, 2)])
    roots = [g12.root, g23.root, g13.root]
    assert roots == [{1, 2}, {2, 3}, {1, 3}]
    # oracle: direct set intersection
    assert roots[0] & roots[1] and roots[1] & roots[2] and roots[0] & roots[2]
    assert not (roots[0] & roots[1] & roots[2])
    assert root_compatible(g12, g23)
    assert not root_compatible(g12, g23, g13)


def test_reaches_all_star_and_chain():
    star = CommunicationGraph(3, [(1, 2), (1, 3)])
    assert reaches_all(star, 1)
    assert not reaches_all(star, 2)
    chain = CommunicationGraph(3, [(1, 2), (2, 3)])
    assert not reaches_all(chain, 2)
    k3 = complete(3)
    assert all(reaches_all(k3, p) for p in (1, 2, 3))


def test_reaches_all_matches_root_membership():
    g = CommunicationGraph(4, [(1, 2), (2, 1), (2, 3), (3, 4)])
    assert g.root == {1, 2}
    for p in range(1, 5):
        assert reaches_all(g, p) == (p in g.root)


def test_equality_ignores_name():
    a = CommunicationGraph(2, [(1, 2)], "x")
    b = CommunicationGraph(2, [(1, 2)], "y")
    assert a == b and hash(a) == hash(b)
    assert a != CommunicationGraph(2, [(2, 1)])


def test_relabel_roundtrip():
    g = CommunicationGraph(3, [(1, 2), (2, 3)])
    perm = {1: 3, 2: 1, 3: 2}
    inv = {v: k for k, v in perm.items()}
    assert g.relabel(perm).relabel(inv) == g
    assert g.relabel(perm).root == {perm[p] for p in g.root}


@pytest.mark.parametrize("reverse", [False, True])
def test_root_of_long_path_takes_constant_closures(monkeypatch, reverse):
    # each closure is linear in n, so a constant count keeps construction
    # linear whichever way the path runs against the candidate order
    from oblicon import graphs

    calls = []
    closure = graphs._closure
    monkeypatch.setattr(graphs, "_closure", lambda *a: calls.append(1) or closure(*a))
    n = 1200
    edges = [(i + 1, i) if reverse else (i, i + 1) for i in range(1, n)]
    g = CommunicationGraph(n, edges)
    assert g.root == {n if reverse else 1}
    assert len(calls) <= 4


def test_in_indices_are_zero_based_and_kept():
    g = CommunicationGraph(3, [(1, 2), (3, 2)])
    assert g.in_indices() == ((0,), (0, 1, 2), (2,))
    assert g.in_indices() is g.in_indices()
