"""Shared fixtures: canonical small adversaries and naive re-implementations
used as independent oracles."""
from __future__ import annotations

import pytest

from oblicon.graphs import CommunicationGraph
from oblicon.indist import Adversary


@pytest.fixture
def lossy_link_2() -> Adversary:
    """The classic 3-graph family on two processes: either direction may drop."""
    return Adversary(
        [
            CommunicationGraph(2, [(1, 2)], "Ga"),
            CommunicationGraph(2, [(2, 1)], "Gb"),
            CommunicationGraph(2, [(1, 2), (2, 1)], "Gc"),
        ]
    )


@pytest.fixture
def solvable_pair() -> Adversary:
    """Two rooted graphs sharing root {1}; consensus is solvable."""
    return Adversary(
        [
            CommunicationGraph(3, [(1, 2), (1, 3)], "G1"),
            CommunicationGraph(3, [(1, 2), (2, 3)], "G2"),
        ]
    )


@pytest.fixture
def chain_graph() -> CommunicationGraph:
    return CommunicationGraph(3, [(1, 2), (2, 3)], "chain")


# --- independent oracles -----------------------------------------------------


def naive_in_sets(g: CommunicationGraph) -> dict[int, set[int]]:
    """In-neighborhoods rebuilt from the edge list, self-loops included."""
    ins: dict[int, set[int]] = {p: {p} for p in range(1, g.n + 1)}
    for u, v in g.edges():
        ins[v].add(u)
    return ins


def naive_view(sigma, p: int, r: int):
    """Recursive view construction with raw nested frozensets (no interning)."""
    if r == 0:
        return ("init", p)
    g = sigma.graph_at(r)
    return (p, r, frozenset(naive_view(sigma, q, r - 1) for q in g.in_neighbors(p)))


def naive_indist_procs(sigma, sigma_prime) -> set[int]:
    assert len(sigma) == len(sigma_prime)
    n = sigma.adversary.n
    r = len(sigma)
    return {
        p for p in range(1, n + 1) if naive_view(sigma, p, r) == naive_view(sigma_prime, p, r)
    }


def naive_root(g: CommunicationGraph) -> frozenset[int] | None:
    """Processes from which a breadth-first search over the edge list reaches
    everyone, or None when there are none."""
    succ: dict[int, set[int]] = {p: set() for p in range(1, g.n + 1)}
    for u, v in g.edges():
        succ[u].add(v)
    root = set()
    for p in range(1, g.n + 1):
        seen = {p}
        queue = [p]
        while queue:
            u = queue.pop(0)
            for w in sorted(succ[u] - seen):
                seen.add(w)
                queue.append(w)
        if len(seen) == g.n:
            root.add(p)
    return frozenset(root) if root else None
