"""Iterative refinement of the indistinguishability graph and the solvability verdict.

Starting from the single-round indistinguishability graph, each iteration
keeps an edge only if its current connected component contains a graph whose
root component is inside the edge label.  The loop stops when the edge set
stabilizes or every component becomes root-compatible; consensus is solvable
iff all components of the final level are root-compatible.

A label never changes across levels, so the graphs that fit an edge are
fixed: each edge carries that set as a bitmask over graph indices, and an
iteration tests each surviving edge with one AND against its component's
member mask.  Level 1 comes with its components, linked from its
in-neighbourhood groups, and bulk removals relink them by union-find.
After that, each removed edge splits its component by a search from both of
its endpoints in turn (Even and Shiloach's decremental connectivity), so an
iteration costs its edge tests plus the smaller sides, not a relink: the
refinement of chain(200) went from 9.3 to 3.2 ms (README gives the
setting).  Levels are kept as the log of removed edges and rebuilt only
when read.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sequence
from functools import reduce
from itertools import accumulate, compress, count
from operator import and_, ne

from .errors import PremiseError
from .indist import (
    Adversary,
    IndistGraph,
    induced_connected,
    induced_edge_labels,
    is_protected,
    single_round_indist,
    union_find,
)


class Verdict(enum.Enum):
    SOLVABLE = "SOLVABLE"
    IMPOSSIBLE = "IMPOSSIBLE"
    NOT_ROOTED = "IMPOSSIBLE-NOT-ROOTED"


Edge = tuple[int, int]


@dataclass(frozen=True)
class RefinementTrace:
    """Everything the refinement produced: level 1, the removal log and the verdict.

    ``removed[k]`` lists the edges dropped while forming level k+1 (level 1
    is the raw indistinguishability graph, so ``removed[0]`` is empty).
    Levels are kept as this log: ``level_at`` and ``levels`` rebuild an
    ``IndistGraph`` only when read, and ``components_final`` holds the last
    level's components.  ``iterations`` is the loop counter at exit with
    level 1 counting as iteration 1; ``removal_iterations`` counts only the
    levels that actually dropped an edge, so both ways of counting are
    available.  ``fitting`` maps each level-1 label to the mask of graph
    indices whose root lies inside it.
    """

    adversary: Adversary
    verdict: Verdict
    first_level: IndistGraph | None
    removed: tuple[tuple[Edge, ...], ...]
    components_final: tuple[tuple[int, ...], ...]
    iterations: int
    early_exit: bool
    fitting: Mapping[int, int] = field(default_factory=dict, compare=False, repr=False)

    @property
    def levels(self) -> tuple[IndistGraph, ...]:
        """Every computed level, rebuilt from the removal log."""
        return tuple(self.level_at(i) for i in range(1, len(self.removed) + 1))

    @property
    def removal_iterations(self) -> int:
        return sum(1 for r in self.removed if r)

    @property
    def round_bound(self) -> int:
        """The formula c * (n-1) * (iterations+1), c the final component count.

        No rule of that form is built: ``build_rule``'s horizon is the round
        by which a built rule decides."""
        if self.first_level is None:
            return 0
        return len(self.components_final) * (self.adversary.n - 1) * (self.iterations + 1)

    @property
    def reached_fixpoint(self) -> bool:
        return len(self.removed) >= 2 and not self.removed[-1]

    def level_at(self, i: int) -> IndistGraph:
        """Level i (1-based).  Beyond the last computed level the edge set is
        stable, so the fixpoint level is returned; that extrapolation is only
        valid when the trace ran to the fixpoint."""
        if i < 1:
            raise ValueError("levels are numbered from 1")
        if self.first_level is None:
            raise ValueError("trace has no levels (input was not rooted)")
        if i == 1:
            return self.first_level
        if i > len(self.removed) and not self.reached_fixpoint:
            raise ValueError(
                f"level {i} not computed and trace stopped before the fixpoint"
            )
        gone = {key for removed in self.removed[:i] for key in removed}
        first = self.first_level
        return IndistGraph(
            first.size,
            first.names,
            {key: label for key, label in first.labels().items() if key not in gone},
        )


def _fitting_masks(labels: Iterable[int], root_masks: Sequence[int]) -> dict[int, int]:
    """For each label, the mask of graph indices whose root lies inside it.

    A root lies inside a label only if its lowest process does, so the
    roots are filed under their lowest process and each label looks only at
    those filed under its own members.
    """
    by_low: dict[int, dict[int, int]] = {}
    for g, rm in enumerate(root_masks):
        graphs = by_low.setdefault(rm & -rm, {})
        graphs[rm] = graphs.get(rm, 0) | (1 << g)
    lows = sum(by_low)
    fitting: dict[int, int] = {}
    for label in set(labels):
        acc = 0
        rest = label & lows
        while rest:
            low = rest & -rest
            for rm, graphs in by_low[low].items():
                if rm & ~label == 0:
                    acc |= graphs
            rest ^= low
        fitting[label] = acc
    return fitting


def _relink(
    rep: list[int], bits: list[int], root_masks: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """Each node's label, its component's smallest member as ``rep`` holds
    it, and per label the member mask and root AND, folded in from the nodes
    that are not labels."""
    members = bits[:]
    common = list(root_masks)
    for x in compress(count(), map(ne, rep, count())):
        members[rep[x]] |= bits[x]
        common[rep[x]] &= root_masks[x]
    return rep, members, common


def _split(
    adj: list[set[int]], u: int, v: int, steps: int, comp: list[int],
    members: list[int], common: list[int], bits: list[int], root_masks: Sequence[int],
) -> int:
    """Search from u and from v in turn, a node at a time, once their edge has
    left ``adj``.  If one search runs out before they meet, its side takes a
    fresh label out of the other's members and root AND.  Each node searched
    costs its degree plus one step; returns the steps left (negative: no answer)."""
    seen = ({u}, {v})
    todo = ([u], [v])
    k = 0
    while todo[k]:
        if steps < 0:
            return steps
        near = adj[todo[k].pop()]
        if not seen[1 - k].isdisjoint(near):
            return steps
        steps -= len(near) + 1
        todo[k].extend(near - seen[k])
        seen[k].update(near)
        k ^= 1
    side = seen[k]
    old = comp[u]
    label = len(members)
    for x in side:
        comp[x] = label
    mask = sum(map(bits.__getitem__, side))
    members[old] ^= mask
    members.append(mask)
    common.append(reduce(and_, map(root_masks.__getitem__, side)))
    # an AND only gains bits as members leave, so only a zero one is refolded,
    # in C and up to its first zero
    if not common[old] and 0 not in accumulate(
        compress(root_masks, map(old.__eq__, comp)), and_
    ):
        common[old] = reduce(and_, compress(root_masks, map(old.__eq__, comp)))
    return steps


def decide(d: Adversary, no_early_exit: bool = False) -> RefinementTrace:
    """Run the refinement and judge consensus solvability for the adversary.

    Each level-1 edge carries its fitting mask, the graphs whose root lies
    inside its label; an edge survives an iteration iff that mask meets its
    component.  The loop stops when an iteration removes nothing or every
    component becomes root-compatible.  With ``no_early_exit`` the loop
    ignores the root-compatibility stop and runs to the edge-set fixpoint,
    whose components are exactly the abstract equivalence classes the verdict
    characterizes; property checks that reason about late levels need this
    mode.

    An iteration reads only each node's component label and each label's
    member mask and root AND.  A relink recomputes them; a split keeps them
    exact.  Dropping one edge of a component leaves at most two components,
    u's and v's, so edges are dropped one at a time.  A search that runs out
    without meeting the other has closed over its endpoint's component, which
    then lacks the other endpoint; the rest is that endpoint's component.
    No edge test depends on which member names a label, and after the loop
    each label is renamed to its smallest member, as a relink names it.
    """
    root_masks = d.root_masks()
    if any(rm == 0 for rm in root_masks):
        return RefinementTrace(
            adversary=d,
            verdict=Verdict.NOT_ROOTED,
            first_level=None,
            removed=(),
            components_final=(),
            iterations=0,
            early_exit=not no_early_exit,
        )

    first = single_round_indist(d)
    size = first.size
    # unsorted: only the removed edges are sorted, and no label depends on
    # the edge order
    labels = first.labels()
    fitting = _fitting_masks(labels.values(), root_masks)
    alive = [(u, v, fitting[label]) for (u, v), label in labels.items()]
    removed: list[tuple[Edge, ...]] = [()]
    bits = [1 << x for x in range(size)]
    comp, members, common = _relink(first.representatives(), bits, root_masks)
    # the relinks after level 1 may spend twice level 1's edge count before
    # removed edges split their components by search
    relink_budget = 2 * len(alive)
    adj: list[set[int]] | None = None
    iterations = 1
    while True:
        compatible = all(common)
        if compatible and not no_early_exit:
            break
        iterations += 1
        kept = []
        gone = []
        for edge in alive:
            if edge[2] & members[comp[edge[0]]]:
                kept.append(edge)
            else:
                gone.append(edge[:2])
        removed.append(tuple(sorted(gone)))
        if not gone:
            break
        if adj is None and relink_budget < 0:
            adj = [set() for _ in bits]
            for u, v, _ in alive:
                adj[u].add(v)
                adj[v].add(u)
        alive = kept
        if adj is not None:
            # the searches share about the cost of the relink they replace
            steps = len(kept) + size
            for u, v in gone:
                adj[u].remove(v)
                adj[v].remove(u)
                if steps >= 0:
                    steps = _split(adj, u, v, steps, comp, members, common, bits, root_masks)
            if steps >= 0:
                continue
        comp, members, common = _relink(union_find(size, kept), bits, root_masks)
        relink_budget -= len(kept)

    parts: dict[int, list[int]] = {}
    for x, c in enumerate(comp):
        parts.setdefault(c, []).append(x)
    return RefinementTrace(
        adversary=d,
        verdict=Verdict.SOLVABLE if compatible else Verdict.IMPOSSIBLE,
        first_level=first,
        removed=tuple(removed),
        components_final=tuple(map(tuple, parts.values())),
        iterations=iterations,
        early_exit=not no_early_exit,
        fitting=fitting,
    )


def check_protected_chain(
    subgraphs: Sequence[Iterable[int]], trace: RefinementTrace
) -> bool:
    """Verify the chained-protection survival property on a fixpoint trace.

    ``subgraphs`` lists node sets S_1..S_i.  Premises checked (violations
    raise PremiseError): every S_j induces a connected subgraph of level 1;
    for each j < i, the induced edges on the union of S_1..S_j are protected
    by the graphs of S_1..S_{j+1}; and S_j shares a level-(i-j) component
    with S_{j+1}.  Returns whether every induced edge of S_1 survives in
    level i.
    """
    if trace.early_exit:
        raise PremiseError("requires a trace computed without early exit")
    if trace.first_level is None:
        raise PremiseError("trace has no levels (input was not rooted)")
    sets = [sorted(set(s)) for s in subgraphs]
    if not sets:
        raise PremiseError("need at least one subgraph")
    depth = len(sets)
    base = trace.first_level

    for j, nodes in enumerate(sets, start=1):
        if not nodes:
            raise PremiseError(f"S_{j} is empty")
        if not induced_connected(base, nodes):
            raise PremiseError(f"S_{j} does not induce a connected subgraph of level 1")

    for j in range(1, depth):
        union_nodes = sorted({u for s in sets[:j] for u in s})
        labels = induced_edge_labels(base, union_nodes)
        guard_nodes = sorted({u for s in sets[: j + 1] for u in s})
        guards = [trace.adversary.graphs[u] for u in guard_nodes]
        ok, witnesses = is_protected(labels, guards)
        if not ok:
            bad = sorted(k for k, w in witnesses.items() if w is None)
            raise PremiseError(
                f"edges {bad} of S_1..S_{j} are not protected by the graphs of S_1..S_{j + 1}"
            )

    for j in range(1, depth):
        level = trace.level_at(depth - j)
        comps_a = {level.component_of(u) for u in sets[j - 1]}
        comps_b = {level.component_of(u) for u in sets[j]}
        if not comps_a & comps_b:
            raise PremiseError(f"S_{j} is not connected to S_{j + 1} in level {depth - j}")

    final = trace.level_at(depth)
    for (u, v) in induced_edge_labels(base, sets[0]):
        if final.label(u, v) is None:
            return False
    return True
