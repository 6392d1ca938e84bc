"""Consensus rule synthesis, exhaustive run verification, and the brute-force
solvability oracle.

The synthesized rule fixes a horizon t and stores, per t-round pattern, the
smallest common broadcaster of its indistinguishability component (read off
one ``union_find`` pass with the broadcaster masks, or off the masks alone
when no two patterns share a view); every process decides
on that broadcaster's input.  Verification replays every pattern and checks
agreement, validity, and termination, plus equal decisions across every
indistinguishable pair of runs.  The oracle searches for the first level
whose components all have a common broadcaster, and stops a level as soon as
some linked patterns share none.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from collections.abc import Sequence
from itertools import compress, count, islice
from operator import ne

from .decision import decide
from .errors import NonBroadcastableComponentError, NotRootedError
from .indist import Adversary, common_masks, union_find
from .patterns import (
    DEFAULT_PATTERN_BUDGET,
    Pattern,
    _all_distinct,
    _components,
    _final_level,
    _first_seen,
    _view_pairs,
    broadcaster_mask,
    indist_label,
    iter_pattern_levels,
    pattern_at,
    pattern_index,
)
from .procset import procs_of


@dataclass(frozen=True)
class ConsensusRule:
    """Decision rule at a fixed horizon: pattern -> adopted broadcaster.

    ``decided[i]`` is the smallest common broadcaster of pattern i's
    component; a run with pattern i decides on that process's input.
    ``views[p][i]`` is process p's final view id in pattern i.
    """

    adversary: Adversary
    t: int
    decided: tuple[int, ...]
    broadcast_masks: tuple[int, ...]
    views: tuple[tuple[int, ...], ...]

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The pattern components, built from the views on every read."""
        return tuple(map(tuple, _components(self.views)[1]))

    def decision_process(self, sigma: Pattern) -> int:
        if len(sigma) != self.t:
            raise ValueError(f"pattern has {len(sigma)} rounds, rule expects {self.t}")
        return self.decided[pattern_index(sigma)]


@dataclass(frozen=True)
class RunReport:
    """Outcome of one run: who everyone adopted and the three correctness flags."""

    pattern: Pattern
    adopted: tuple[int, ...]
    value: object
    agreement_ok: bool
    validity_ok: bool
    termination_ok: bool

    @property
    def ok(self) -> bool:
        return self.agreement_ok and self.validity_ok and self.termination_ok


@dataclass(frozen=True)
class VerificationReport:
    horizon: int
    runs: int
    agreement_violations: int
    validity_violations: int
    termination_violations: int
    cross_run_violations: int
    samples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.agreement_violations == 0
            and self.validity_violations == 0
            and self.termination_violations == 0
            and self.cross_run_violations == 0
        )


def build_rule(
    d: Adversary, t: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> ConsensusRule:
    """Synthesize the decision rule at horizon t.

    Every component of the t-round pattern indistinguishability graph must
    have a common broadcaster; otherwise the first offending component (by
    smallest pattern index) is reported via NonBroadcastableComponentError,
    which signals that t is too small or consensus is unsolvable.
    """
    level = _final_level(d, t, budget)
    bmasks = level.broadcaster_masks()
    if all(map(_all_distinct, level.views)):
        # no shared view links any two patterns: each is its own component
        commons = None if 0 in bmasks else bmasks
    else:
        commons = union_find(len(bmasks), _view_pairs(level.views), bmasks)
    if commons is None:
        _, comps = _components(level.views)
        comp = next(c for c, common in zip(comps, common_masks(comps, bmasks)) if not common)
        raise NonBroadcastableComponentError(t, [pattern_at(d, t, i).name for i in comp])
    low = {common: (common & -common).bit_length() for common in set(commons)}
    decided = tuple(map(low.__getitem__, commons))
    return ConsensusRule(d, t, decided, tuple(bmasks), tuple(level.views))


def run(rule: ConsensusRule, sigma: Pattern, inputs: Sequence) -> RunReport:
    """Replay one pattern under the rule with concrete inputs.

    All processes adopt the input of the rule's decided broadcaster; the
    validity flag checks that the decided value is the input of an actual
    broadcaster of this very pattern (recomputed from the pattern, not taken
    from the rule).
    """
    n = rule.adversary.n
    b = rule.decision_process(sigma)
    if len(inputs) != n:
        raise ValueError(f"need {n} inputs, got {len(inputs)}")
    value = inputs[b - 1]
    bcasters = procs_of(broadcaster_mask(sigma))
    validity_ok = any(inputs[q - 1] == value for q in bcasters)
    return RunReport(
        pattern=sigma,
        adopted=(b,) * n,
        value=value,
        agreement_ok=True,
        validity_ok=validity_ok,
        termination_ok=True,
    )


def verify_all_runs(
    rule: ConsensusRule, inputs: Sequence | None = None
) -> VerificationReport:
    """Replay every t-round pattern and aggregate correctness violations.

    Without explicit inputs, runs the canonical distinct vector (x_p = p) and
    the all-equal vector; with adopt-the-input decisions the distinct vector
    exercises validity fully.  Additionally asserts that patterns with equal
    final views for any process (the raw indistinguishability relation) were
    assigned equal decisions.
    """
    d = rule.adversary
    n = d.n
    if inputs is not None and len(inputs) != n:
        raise ValueError(f"need {n} inputs, got {len(inputs)}")
    vectors: list[tuple] = (
        [tuple(inputs)] if inputs is not None else [tuple(range(1, n + 1)), (1,) * n]
    )

    def name(idx: int) -> str:
        return pattern_at(d, rule.t, idx).name

    decided = rule.decided
    agreement = validity = termination = 0
    samples: list[str] = []
    # validity depends only on the decided process and the broadcasters
    pairs = set(zip(decided, rule.broadcast_masks))
    for vec in vectors:
        bad = {
            (b, bmask)
            for b, bmask in pairs
            if not any(vec[q - 1] == vec[b - 1] for q in procs_of(bmask))
        }
        if not bad:
            continue
        flags = list(map(bad.__contains__, zip(decided, rule.broadcast_masks)))
        validity += flags.count(True)
        for idx in islice(compress(count(), flags), 8 - len(samples)):
            samples.append(f"validity: pattern {name(idx)} decided input of p{decided[idx]}")
    cross = 0
    for p, column in enumerate(rule.views):
        firsts = _first_seen(column)
        if firsts is None:
            continue
        flags = list(map(ne, map(decided.__getitem__, firsts), decided))
        cross += flags.count(True)
        for idx in islice(compress(count(), flags), 8 - len(samples)):
            samples.append(
                f"cross-run: {name(firsts[idx])} vs {name(idx)} disagree for p{p + 1}"
            )
    return VerificationReport(
        horizon=rule.t,
        runs=len(decided) * len(vectors),
        agreement_violations=agreement,
        validity_violations=validity,
        termination_violations=termination,
        cross_run_violations=cross,
        samples=tuple(samples),
    )


def oracle_min_horizon(
    d: Adversary, r_max: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> int | None:
    """Smallest r <= r_max at which every pattern component has a common
    broadcaster, or None if no such r exists up to r_max.

    This is the independent brute-force solvability check: it never looks at
    the refinement procedure, only at raw view equality and influence.  A
    level fails as soon as some linked patterns share no broadcaster (a
    pattern without broadcasters fails it at once), so a failing level's
    components are never finished.
    """
    for level in iter_pattern_levels(d, r_max, budget):
        views = level.views
        if union_find(len(views[0]), _view_pairs(views), level.broadcaster_masks()) is not None:
            return level.rounds
    return None


@dataclass(frozen=True)
class ImpossibilityWitness:
    """Evidence that no algorithm can have every process decided by the level's round.

    Two graphs from a root-incompatible component of that refinement level,
    whose i-fold repetitions are joined by a concrete, re-verified path in the
    i-round pattern indistinguishability graph.
    """

    level: int
    graph_a: str
    graph_b: str
    root_a: frozenset[int]
    root_b: frozenset[int]
    path: tuple[Pattern, ...]
    edge_labels: tuple[int, ...]


def imposs_witness(
    d: Adversary, i: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> ImpossibilityWitness | None:
    """Search level i of the fixpoint refinement for a root-incompatible
    component and materialize the pattern-level path that certifies it.

    Returns None when all components at level i are root-compatible.  The
    path's edges are re-verified pairwise, each with views interned afresh.
    """
    if not d.all_rooted:
        raise NotRootedError("witness construction requires all graphs rooted")
    comps = decide(d, no_early_exit=True).level_at(i).components()
    roots = d.root_masks()
    for comp, common in zip(comps, common_masks(comps, roots)):
        if common != 0:
            continue
        a, b = _disjoint_root_pair(comp, roots)
        path_idx = _view_path(
            _final_level(d, i, budget).views,
            pattern_index(Pattern.repeat(d, a, i)),
            pattern_index(Pattern.repeat(d, b, i)),
        )
        if path_idx is None:
            raise RuntimeError(
                f"level-{i} component is root-incompatible but {d.names[a]}^{i} and "
                f"{d.names[b]}^{i} are not connected among {i}-round patterns"
            )
        path = tuple(pattern_at(d, i, idx) for idx in path_idx)
        labels = tuple(map(indist_label, path, path[1:]))
        for s1, s2, lab in zip(path, path[1:], labels):
            if lab == 0:
                raise RuntimeError(f"path edge {s1.name} -- {s2.name} failed re-verification")
        return ImpossibilityWitness(
            level=i,
            graph_a=d.names[a],
            graph_b=d.names[b],
            root_a=frozenset(procs_of(roots[a])),
            root_b=frozenset(procs_of(roots[b])),
            path=path,
            edge_labels=labels,
        )
    return None


def _disjoint_root_pair(comp: Sequence[int], roots: Sequence[int]) -> tuple[int, int]:
    best: tuple[int, int] | None = None
    best_overlap = None
    for x in range(len(comp)):
        for y in range(x + 1, len(comp)):
            a, b = comp[x], comp[y]
            overlap = (roots[a] & roots[b]).bit_count()
            if overlap == 0:
                return a, b
            if best_overlap is None or overlap < best_overlap:
                best, best_overlap = (a, b), overlap
    assert best is not None
    return best


def _view_path(views: Sequence[Sequence[int]], start: int, goal: int) -> list[int] | None:
    """Shortest path of pattern indices from start to goal whose consecutive
    patterns share some process's view, or None.

    A breadth-first search in which each (process, view id) bucket is one
    hop, so memory follows the columns, not the indistinguishable pairs.
    View ids of different processes never coincide, so one dict holds all
    buckets.  A bucket is expanded once, reaching all its members, so
    skipping it later changes no predecessor.  Reached patterns join the
    queue in ascending order: the path is the one a search over the pattern
    graph's sorted adjacency lists finds.
    """
    buckets: dict[int, list[int]] = {}
    for column in views:
        for i, view in enumerate(column):
            buckets.setdefault(view, []).append(i)
    prev = {start: start}
    queue = deque([start])
    while goal not in prev:
        if not queue:
            return None
        u = queue.popleft()
        reached = sorted(
            {w for column in views for w in buckets.pop(column[u], ()) if w not in prev}
        )
        prev.update(dict.fromkeys(reached, u))
        queue.extend(reached)
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return path[::-1]
