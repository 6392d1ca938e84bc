"""Iterative refinement of the indistinguishability graph and the solvability verdict.

Starting from the single-round indistinguishability graph, each iteration
keeps an edge only if its current connected component contains a graph whose
root component is inside the edge label.  The loop stops when the edge set
stabilizes or every component becomes root-compatible; consensus is solvable
iff all components of the final level are root-compatible.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from .errors import PremiseError
from .indist import (
    Adversary,
    IndistGraph,
    induced_connected,
    induced_edge_labels,
    is_protected,
    single_round_indist,
)
from .procset import is_subset


class Verdict(enum.Enum):
    SOLVABLE = "SOLVABLE"
    IMPOSSIBLE = "IMPOSSIBLE"
    NOT_ROOTED = "IMPOSSIBLE-NOT-ROOTED"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


Edge = tuple[int, int]


@dataclass(frozen=True)
class RefinementTrace:
    """Everything the refinement produced: the level sequence and the verdict.

    ``levels[k]`` is the graph after k+1 iterations (level 1 is the raw
    indistinguishability graph); ``removed[k]`` lists the edges dropped while
    forming that level.  ``iterations`` is the loop counter at exit with level
    1 counting as iteration 1; ``removal_iterations`` counts only the levels
    that actually dropped an edge, so both ways of counting are available.
    """

    adversary: Adversary
    verdict: Verdict
    levels: tuple[IndistGraph, ...]
    removed: tuple[tuple[Edge, ...], ...]
    iterations: int
    early_exit: bool

    @property
    def final_level(self) -> IndistGraph:
        if not self.levels:
            raise ValueError("trace has no levels (input was not rooted)")
        return self.levels[-1]

    @property
    def components_final(self) -> tuple[tuple[int, ...], ...]:
        if not self.levels:
            return ()
        return self.final_level.components()

    @property
    def component_count(self) -> int:
        return len(self.components_final)

    @property
    def removal_iterations(self) -> int:
        return sum(1 for r in self.removed if r)

    @property
    def round_bound(self) -> int:
        """The synthesized algorithm's decision round: c * (n-1) * (iterations+1)."""
        if not self.levels:
            return 0
        return self.component_count * (self.adversary.n - 1) * (self.iterations + 1)

    @property
    def reached_fixpoint(self) -> bool:
        return len(self.levels) >= 2 and self.levels[-1].same_edge_set(self.levels[-2])

    def level_at(self, i: int) -> IndistGraph:
        """Level i (1-based).  Beyond the last computed level the edge set is
        stable, so the fixpoint level is returned; that extrapolation is only
        valid when the trace ran to the fixpoint."""
        if i < 1:
            raise ValueError("levels are numbered from 1")
        if not self.levels:
            raise ValueError("trace has no levels (input was not rooted)")
        if i <= len(self.levels):
            return self.levels[i - 1]
        if not self.reached_fixpoint:
            raise ValueError(
                f"level {i} not computed and trace stopped before the fixpoint"
            )
        return self.levels[-1]


def _all_components_root_compatible(ig: IndistGraph, root_masks: Sequence[int]) -> bool:
    for comp in ig.components():
        common = -1
        for u in comp:
            common &= root_masks[u]
        if common == 0:
            return False
    return True


def _refine_once(
    level: IndistGraph, root_masks: Sequence[int]
) -> tuple[IndistGraph, tuple[Edge, ...]]:
    """One iteration: keep an edge iff its component holds a graph whose root
    is contained in the edge label."""
    comp_roots = [sorted({root_masks[u] for u in comp}) for comp in level.components()]
    kept: dict[Edge, int] = {}
    removed: list[Edge] = []
    for u, v, label in level.edges():
        guards = comp_roots[level.component_of(u)]
        if any(is_subset(rm, label) for rm in guards):
            kept[(u, v)] = label
        else:
            removed.append((u, v))
    return IndistGraph(level.size, level.names, kept), tuple(sorted(removed))


def decide(d: Adversary, no_early_exit: bool = False) -> RefinementTrace:
    """Run the refinement and judge consensus solvability for the adversary.

    With ``no_early_exit`` the loop ignores the root-compatibility stop and
    runs to the edge-set fixpoint, whose components are exactly the abstract
    equivalence classes the verdict characterizes; property checks that
    reason about late levels need this mode.
    """
    root_masks = d.root_masks()
    if any(rm == 0 for rm in root_masks):
        return RefinementTrace(
            adversary=d,
            verdict=Verdict.NOT_ROOTED,
            levels=(),
            removed=(),
            iterations=0,
            early_exit=not no_early_exit,
        )

    level = single_round_indist(d)
    levels = [level]
    removed: list[tuple[Edge, ...]] = [()]
    iterations = 1
    done = not no_early_exit and _all_components_root_compatible(level, root_masks)
    while not done:
        iterations += 1
        new_level, removed_now = _refine_once(level, root_masks)
        levels.append(new_level)
        removed.append(removed_now)
        if new_level.same_edge_set(level):
            done = True
        elif not no_early_exit and _all_components_root_compatible(new_level, root_masks):
            done = True
        level = new_level

    verdict = (
        Verdict.SOLVABLE
        if _all_components_root_compatible(level, root_masks)
        else Verdict.IMPOSSIBLE
    )
    return RefinementTrace(
        adversary=d,
        verdict=verdict,
        levels=tuple(levels),
        removed=tuple(removed),
        iterations=iterations,
        early_exit=not no_early_exit,
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
    if not trace.levels:
        raise PremiseError("trace has no levels (input was not rooted)")
    sets = [sorted(set(s)) for s in subgraphs]
    if not sets:
        raise PremiseError("need at least one subgraph")
    depth = len(sets)
    base = trace.levels[0]

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
        if not final.has_edge(u, v):
            return False
    return True
