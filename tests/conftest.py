"""Shared fixtures: canonical small adversaries and naive re-implementations
used as independent oracles."""
from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import pytest

from oblicon.graphs import CommunicationGraph, _closure
from oblicon.indist import Adversary, IndistGraph
from oblicon.patterns import _level_zero, iter_pattern_levels
from oblicon.procset import full_mask, mask_of, procs_of
from oblicon.simulate import ConsensusRule


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


def flat_rule(d: Adversary, t: int, decided: Sequence[int]) -> ConsensusRule:
    """A rule that decides every t-round pattern at round t, on
    ``decided[i]`` for the pattern with lexicographic index i: rounds 0 to
    t - 1 hold every pattern of their length, none decided.  Verifier tests
    build their wrong rules this way, as the full-horizon rule stored them."""
    levels = [_level_zero(d.n), *iter_pattern_levels(d, t, len(d) ** t)]
    return ConsensusRule(
        d,
        t,
        tuple(level.index for level in levels),
        tuple((0,) * len(level.index) for level in levels[:-1]) + (tuple(decided),),
        tuple(tuple(level.broadcaster_masks()) for level in levels),
        tuple(tuple(level.views) for level in levels),
    )


def complete(n: int, name: str | None = None) -> CommunicationGraph:
    """The graph in which every process hears every other."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    return CommunicationGraph(n, pairs, name)


def in_neighbors(g: CommunicationGraph, p: int) -> tuple[int, ...]:
    """The processes p hears in g, itself included, ascending."""
    return procs_of(g._in[p - 1])


def reaches_all(g: CommunicationGraph, p: int) -> bool:
    """True iff p has a directed path to every process; equals p in Root(g) for rooted g."""
    return _closure(mask_of([p]), g._out)[0] == full_mask(g.n)


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
    return (p, r, frozenset(naive_view(sigma, q, r - 1) for q in in_neighbors(g, p)))


def interned_levels(d: Adversary, r_max: int) -> list[list[tuple[int, ...]]]:
    """Per-process view-id columns of levels 1..r_max, every process
    interned pattern by pattern: p's key in pattern i*m + g is its own
    previous id when it hears only itself under graph g, else the tuple of
    its in-neighbours' previous ids; a view's id is the process's base plus
    the position of the first pattern with that view, and each process's
    base is the previous one's plus the column length."""
    m = len(d)
    ins = [g.in_indices() for g in d.graphs]
    views = [(p,) for p in range(d.n)]
    levels = []
    for _ in range(r_max):
        new = []
        base = 0
        for p in range(d.n):
            ids: dict[object, int] = {}
            column = []
            for i in range(len(views[0]) * m):
                prev, g = divmod(i, m)
                qs = ins[g][p]
                key = views[p][prev] if len(qs) == 1 else tuple(views[q][prev] for q in qs)
                column.append(ids.setdefault(key, base + i))
            base += len(column)
            new.append(tuple(column))
        views = new
        levels.append(views)
    return levels


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


class NaiveTrace(NamedTuple):
    verdict: str
    iterations: int
    removed: tuple[tuple[tuple[int, int], ...], ...]
    levels: tuple[IndistGraph, ...]
    components: tuple[tuple[int, ...], ...]


def naive_path(ig: IndistGraph, start: int, goal: int) -> list[int] | None:
    """Breadth-first path over the edge list, visiting each node's
    neighbours in ascending order, or None when goal is unreachable."""
    adj: dict[int, set[int]] = {u: set() for u in range(ig.size)}
    for u, v, _ in ig.edges():
        adj[u].add(v)
        adj[v].add(u)
    prev = {start: start}
    queue = [start]
    while queue:
        u = queue.pop(0)
        if u == goal:
            path = [u]
            while path[-1] != start:
                path.append(prev[path[-1]])
            return path[::-1]
        for w in sorted(adj[u]):
            if w not in prev:
                prev[w] = u
                queue.append(w)
    return None


def naive_bucket_labels(columns) -> dict[tuple[int, int], int]:
    """Labels by comparing every pair of nodes in every column: bit p is set
    for (i, j), i < j, when ``columns[p][i] == columns[p][j]``; pairs with
    no equal entry are left out."""
    size = len(columns[0]) if columns else 0
    labels = {}
    for i in range(size):
        for j in range(i + 1, size):
            label = 0
            for p, column in enumerate(columns):
                if column[i] == column[j]:
                    label |= 1 << p
            if label:
                labels[(i, j)] = label
    return labels


def naive_components(ig: IndistGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components by breadth-first search over the edge list, each
    ascending, ordered by smallest node."""
    adj: dict[int, set[int]] = {u: set() for u in range(ig.size)}
    for u, v, _ in ig.edges():
        adj[u].add(v)
        adj[v].add(u)
    comps = []
    seen: set[int] = set()
    for start in range(ig.size):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            u = queue.pop(0)
            for w in sorted(adj[u] - comp):
                comp.add(w)
                queue.append(w)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def naive_refine_once(level: IndistGraph, root_masks) -> tuple[IndistGraph, tuple]:
    """One refinement step by rescanning every edge: keep it iff some graph
    of its current component has its root inside the label."""
    comp_of = {u: comp for comp in naive_components(level) for u in comp}
    kept = {}
    removed = []
    for u, v, label in level.edges():
        comp = comp_of[u]
        if any(root_masks[g] & ~label == 0 for g in comp):
            kept[(u, v)] = label
        else:
            removed.append((u, v))
    return IndistGraph(level.size, level.names, kept), tuple(removed)


def naive_refinement(d: Adversary, no_early_exit: bool = False) -> NaiveTrace:
    """The refinement as first written: all-pairs level 1 from rebuilt
    in-neighbourhoods, then full rescans until nothing is removed (or, unless
    ``no_early_exit``, every component is root-compatible)."""
    roots = [naive_root(g) for g in d.graphs]
    if any(r is None for r in roots):
        return NaiveTrace("IMPOSSIBLE-NOT-ROOTED", 0, (), (), ())
    root_masks = [mask_of(r) for r in roots]
    ins = [naive_in_sets(g) for g in d.graphs]
    edges = {}
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            label = mask_of(p for p in range(1, d.n + 1) if ins[i][p] == ins[j][p])
            if label:
                edges[(i, j)] = label
    level = IndistGraph(len(d), d.names, edges)

    def compatible(ig: IndistGraph) -> bool:
        return all(
            set.intersection(*(set(roots[g]) for g in comp)) for comp in naive_components(ig)
        )

    levels = [level]
    removed = [()]
    done = not no_early_exit and compatible(level)
    while not done:
        level, gone = naive_refine_once(level, root_masks)
        levels.append(level)
        removed.append(gone)
        done = not gone or (not no_early_exit and compatible(level))
    verdict = "SOLVABLE" if compatible(level) else "IMPOSSIBLE"
    return NaiveTrace(verdict, len(levels), tuple(removed), tuple(levels), naive_components(level))
