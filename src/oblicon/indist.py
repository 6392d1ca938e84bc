"""Adversaries and labeled indistinguishability graphs.

An adversary is a finite set of allowed round graphs.  Its single-round
indistinguishability graph connects two graphs whenever some process has the
same in-neighborhood in both; the edge label collects all such processes.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain, combinations, compress, count, islice, pairwise, repeat
from operator import eq, itemgetter

from .errors import NotRootedError, PairBudgetExceededError
from .graphs import CommunicationGraph
from .procset import fmt, is_subset


class Adversary:
    """An ordered, duplicate-free set of round graphs over a common process count.

    Graph names must be unique; unnamed graphs get positional names G1, G2, ...
    """

    __slots__ = ("n", "graphs", "names", "_by_name")

    def __init__(self, graphs: Sequence[CommunicationGraph]):
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("adversary needs at least one graph")
        n = graphs[0].n
        named = []
        seen_adj: dict[tuple, str] = {}
        for k, g in enumerate(graphs):
            if g.n != n:
                raise ValueError(f"graph {k} has n={g.n}, expected {n}")
            key = g._in
            if key in seen_adj:
                raise ValueError(
                    f"duplicate graph: {g.name or k} has the same adjacency as {seen_adj[key]}"
                )
            name = g.name if g.name is not None else f"G{k + 1}"
            seen_adj[key] = name
            if g.name is None:
                g = g.with_name(name)
            named.append(g)
        names = tuple(g.name for g in named)
        if len(set(names)) != len(names):
            raise ValueError(f"graph names are not unique: {names}")
        self.n = n
        self.graphs = tuple(named)
        self.names = names
        self._by_name = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.graphs)

    def index_of(self, name: str) -> int:
        return self._by_name[name]

    def root_masks(self) -> tuple[int, ...]:
        return tuple(g.root_mask for g in self.graphs)

    @property
    def all_rooted(self) -> bool:
        return all(g.is_rooted for g in self.graphs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Adversary):
            return NotImplemented
        return self.n == other.n and self.names == other.names and self.graphs == other.graphs

    def __hash__(self) -> int:
        return hash((self.n, self.names, tuple(g._in for g in self.graphs)))

    def __repr__(self) -> str:
        return f"Adversary(n={self.n}, graphs=[{', '.join(self.names)}])"


class IndistGraph:
    """Undirected graph on node indices with nonempty process-set edge labels.

    ``edges`` maps each ``(u, v)`` with ``0 <= u < v < size`` to its label, as
    ``bucket_labels`` returns; any other key or an empty label raises
    ``ValueError`` naming the first bad edge.  The graph owns the mapping it
    is handed, without a copy, so its producer must not change it later.
    ``rep``, if given, holds each node's ``union_find`` representative over
    the edges; a producer that hands it built the edges too, so they are not
    checked.  Handed ``bucket_groups``' list as ``groups``, with ``rep`` and
    None for ``edges``, the graph keeps it and builds the labels from it,
    with ``bucket_labels`` under the level-1 cap, on the first read of an
    edge."""

    __slots__ = ("size", "names", "groups", "_edges", "_rep", "_components", "_comp_of")

    def __init__(
        self, size: int, names: Sequence[str], edges: Mapping[tuple[int, int], int] | None,
        rep: list[int] | None = None, groups: list[tuple[int, Iterable[list[int]]]] | None = None,
    ):
        if len(names) != size:
            raise ValueError("one name per node required")
        for (u, v), label in edges.items() if rep is None else ():
            if not (0 <= u < v < size and label):
                if u == v:
                    raise ValueError(f"self-edge at node {u}")
                if not (0 <= u < size and 0 <= v < size):
                    raise ValueError(f"edge ({u},{v}) out of range")
                if u > v:
                    raise ValueError(f"edge ({u},{v}) is not keyed with u < v")
                raise ValueError(f"edge ({u},{v}) has an empty label")
        self.size = size
        self.names = tuple(names)
        self.groups = groups
        self._edges = edges
        self._rep = rep
        self._components: tuple[tuple[int, ...], ...] | None = None
        self._comp_of: tuple[int, ...] | None = None

    def label(self, u: int, v: int) -> int | None:
        key = (u, v) if u < v else (v, u)
        return self.labels().get(key)

    def edges(self) -> list[tuple[int, int, int]]:
        """Edges as (u, v, label) with u < v, sorted for determinism."""
        return sorted((u, v, label) for (u, v), label in self.labels().items())

    def labels(self) -> Mapping[tuple[int, int], int]:
        """The label of each edge (u, v), keyed with u < v, in insertion
        order rather than sorted; the graph's own mapping, only to be read."""
        if self._edges is None:
            # only single_round_indist hands groups, so this is level 1's cap
            m = self.size
            cap = MAX_LEVEL1_PAIRS if m * (m - 1) // 2 > MAX_LEVEL1_PAIRS else None
            self._edges = bucket_labels(self.groups, cap)
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self.labels())

    def representatives(self) -> list[int]:
        """Each node's component representative, its smallest node, in a
        fresh list the caller may change."""
        if self._rep is None:
            self._rep = union_find(self.size, self.labels())
        return self._rep[:]

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components, each sorted, ordered by smallest contained node."""
        if self._components is None:
            comp_of, comps = group(self.representatives())
            self._components = tuple(tuple(c) for c in comps)
            self._comp_of = tuple(comp_of)
        return self._components

    def component_of(self, u: int) -> int:
        self.components()
        assert self._comp_of is not None
        return self._comp_of[u]

    def to_dot(self) -> str:
        """Deterministic DOT rendering of the graph ``indist``; labels are
        sorted process lists."""
        lines = ["graph indist {"]
        for name in self.names:
            lines.append(f'  "{_dot_escape(name)}";')
        for u, v, label in self.edges():
            a, b = _dot_escape(self.names[u]), _dot_escape(self.names[v])
            lines.append(f'  "{a}" -- "{b}" [label="{fmt(label)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"IndistGraph(nodes={self.size}, edges={self.num_edges})"


def _dot_escape(name: str) -> str:
    return name.replace("\\", "\\\\").replace('"', '\\"')


def bucket_groups(columns: Sequence[Sequence[int]]) -> Iterator[tuple[int, Iterable[list[int]]]]:
    """Per process p whose column repeats an entry, p's bit and p's groups:
    the nodes that share one entry, each ascending.

    ``columns[p][i]`` is node i's entry for process p.  A column's repeated
    entries are found in C, by sorting it and comparing neighbours; a column
    without any is skipped, and only the nodes holding a repeated entry are
    grouped.  The columns are grouped one at a time as they are read.
    """
    for p, column in enumerate(columns):
        ordered = sorted(column)
        repeated = set(compress(ordered, map(eq, ordered, islice(ordered, 1, None))))
        if not repeated:
            continue
        buckets: dict[int, list[int]] = {}
        for i in compress(count(), map(repeated.__contains__, column)):
            buckets.setdefault(column[i], []).append(i)
        yield 1 << p, buckets.values()


def bucket_labels(
    grouped: Iterable[tuple[int, Iterable[list[int]]]], cap: int | None = None, rounds: int = 1,
) -> dict[tuple[int, int], int]:
    """Edge labels of the nodes whose entries coincide in some process's
    column: each process's bit ORed into every pair inside each of its
    ``bucket_groups``, so the work beyond the grouping is proportional to
    those pairs.  With ``cap``, the pairs are first counted from the groups,
    once per process, and a count above it raises PairBudgetExceededError,
    which names it and ``rounds``, before any pair is built.  An
    ``IndistGraph`` handed the dict owns it."""
    if cap is not None:
        grouped = list(grouped)
        pairs = sum(len(b) * (len(b) - 1) // 2 for _, buckets in grouped for b in buckets)
        if pairs > cap:
            raise PairBudgetExceededError(pairs, cap, rounds)
    labels: dict[tuple[int, int], int] = {}
    for pbit, buckets in grouped:
        for pair in chain.from_iterable(map(combinations, buckets, repeat(2))):
            labels[pair] = labels.get(pair, 0) | pbit
    return labels


def union_find(
    size: int,
    edges: Iterable[Sequence[int]],
    masks: Sequence[int] | None = None,
    forest: list[int] | None = None,
) -> list[int] | None:
    """Each node's component representative, the smallest node of its component.

    Only the first two items of each edge are read, so labelled edge tuples
    need no wrapper.  Every link points a root at a smaller root and path
    halving only moves pointers down, so a parent is never larger than its
    node.

    With ``masks`` (one per node), each root also holds the AND of its
    component's masks, and the call returns each node's component AND in
    place of its representative.  It returns None as soon as one of them is
    empty, a node's own mask included: the components need not be finished
    to know that one of them has no member common to all its masks.
    Without ``masks`` the result is never None.

    ``forest`` is a starting forest of parent pointers, none larger than its
    node, which the call links on in place; its roots' masks must already
    hold their trees' ANDs.  Without it every node starts as its own root.
    """
    parent = list(range(size)) if forest is None else forest
    acc = None if masks is None else list(masks)
    if acc is not None and 0 in acc:
        return None
    for edge in edges:
        u = edge[0]
        v = edge[1]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
            u, v = v, u
        else:
            continue
        if acc is not None:
            acc[u] &= acc[v]
            if not acc[u]:
                return None
    for x in range(size):
        # ascending order: a node's parent is smaller, so it is already final
        parent[x] = parent[parent[x]]
    return parent if acc is None else list(map(acc.__getitem__, parent))


def group(rep: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """Components from ``union_find`` representatives: each node's component
    index, and the components, each ascending and ordered by smallest node."""
    comp_of: list[int] = []
    comps: list[list[int]] = []
    for x, r in enumerate(rep):
        if r == x:
            comp_of.append(len(comps))
            comps.append([x])
        else:
            c = comp_of[r]
            comp_of.append(c)
            comps[c].append(x)
    return comp_of, comps


def common_masks(comps: Iterable[Sequence[int]], masks: Sequence[int]) -> list[int]:
    """Per component, the AND of its members' masks: the processes they all share."""
    out = []
    for comp in comps:
        acc = -1
        for x in comp:
            acc &= masks[x]
        out.append(acc)
    return out


# level-1 pairs above which level 1 refuses to build its labels: they take
# memory quadratic in the graphs
MAX_LEVEL1_PAIRS = 1 << 20


def single_round_indist(d: Adversary) -> IndistGraph:
    """The indistinguishability graph of the adversary's graphs viewed as one-round patterns.

    Two graphs are joined iff some process has identical in-neighborhoods in
    both; the label is the set of all such processes.

    Each group of graphs that give one process the same in-neighbourhood is
    a clique, so the components are linked along a chain through each
    group, a link fewer than its size, rather than over every labelled
    pair.  The graph keeps the groups and builds its labels from them only
    when an edge is first read.  That read raises PairBudgetExceededError,
    before building any edge, when the graphs have more than
    ``MAX_LEVEL1_PAIRS`` pairs and the pairs sharing some process's
    in-neighbourhood, counted once per process, exceed it too: the labels
    hold at most all pairs, so the cap bounds their memory.
    """
    in_masks = list(zip(*(g._in for g in d.graphs)))
    groups = list(bucket_groups(in_masks))
    chains = map(pairwise, chain.from_iterable(map(itemgetter(1), groups)))
    rep = union_find(len(d), chain.from_iterable(chains))
    return IndistGraph(len(d), d.names, None, rep, groups)


def is_protected(
    edge_labels: Mapping, guards: Sequence[CommunicationGraph]
) -> tuple[bool, dict]:
    """Check that every edge label contains the root of some guard graph.

    ``edge_labels`` maps an arbitrary edge key to its label mask.  Returns the
    overall verdict plus a witness map from edge key to the index of the
    protecting guard (smallest index on ties) or None where unprotected.
    """
    roots = []
    for k, g in enumerate(guards):
        if not g.is_rooted:
            raise NotRootedError(f"guard {g.name or k} is not rooted")
        roots.append(g.root_mask)
    witnesses: dict = {}
    ok = True
    for key in edge_labels:
        label = edge_labels[key]
        found = None
        for k, rm in enumerate(roots):
            if is_subset(rm, label):
                found = k
                break
        witnesses[key] = found
        if found is None:
            ok = False
    return ok, witnesses


def induced_edge_labels(ig: IndistGraph, nodes: Iterable[int]) -> dict[tuple[int, int], int]:
    """Labels of the edges of the subgraph induced by the given node set."""
    node_set = set(nodes)
    return {
        (u, v): label
        for (u, v, label) in ig.edges()
        if u in node_set and v in node_set
    }


def induced_connected(ig: IndistGraph, nodes: Sequence[int]) -> bool:
    """True iff the (nonempty) node set induces a connected subgraph: paths
    through nodes outside the set do not count."""
    rep = union_find(ig.size, induced_edge_labels(ig, nodes))
    return len({rep[u] for u in nodes}) == 1
