"""Iterative refinement of the indistinguishability graph and the solvability verdict.

Starting from the single-round indistinguishability graph, each iteration
keeps an edge only if its current connected component contains a graph whose
root component is inside the edge label.  The loop stops when the edge set
stabilizes or every component becomes root-compatible; consensus is solvable
iff all components of the final level are root-compatible.

A label never changes across levels, so the graphs that fit an edge are
fixed: each edge carries that set as a bitmask over graph indices, and an
iteration is one union-find over the surviving edges plus one AND per edge.
Levels are kept as the log of removed edges and rebuilt only when read.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sequence
from itertools import compress, count
from operator import ne

from .errors import PremiseError
from .indist import (
    Adversary,
    IndistGraph,
    group,
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

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


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
        """The synthesized algorithm's decision round: c * (n-1) * (iterations+1)."""
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
    # unsorted: only the removed edges are sorted, and union_find's
    # representatives do not depend on the edge order
    labels = first.labels()
    fitting = _fitting_masks(labels.values(), root_masks)
    alive = [(u, v, fitting[label]) for (u, v), label in labels.items()]
    removed: list[tuple[Edge, ...]] = [()]
    bits = [1 << x for x in range(size)]
    iterations = 1
    while True:
        rep = union_find(size, alive)
        # at each representative: its component's members and the AND of
        # their roots, folded in from the nodes that are not representatives
        members = bits[:]
        common = list(root_masks)
        for x in compress(count(), map(ne, rep, count())):
            r = rep[x]
            members[r] |= bits[x]
            common[r] &= root_masks[x]
        compatible = all(common)
        if compatible and not no_early_exit:
            break
        iterations += 1
        kept = []
        gone = []
        for edge in alive:
            if edge[2] & members[rep[edge[0]]]:
                kept.append(edge)
            else:
                gone.append(edge[:2])
        removed.append(tuple(sorted(gone)))
        if not gone:
            break
        alive = kept

    return RefinementTrace(
        adversary=d,
        verdict=Verdict.SOLVABLE if compatible else Verdict.IMPOSSIBLE,
        first_level=first,
        removed=tuple(removed),
        components_final=tuple(map(tuple, group(rep)[1])),
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
