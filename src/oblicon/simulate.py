"""Consensus rule synthesis, exhaustive run verification, and the brute-force
solvability oracle.

The synthesized rule is a prefix-pruned pattern tree.  Round r holds the
r-round patterns that no earlier round decides, and a pattern is decided at
the first round whose indistinguishability component has a common
broadcaster: its runs adopt the smallest such broadcaster's input.  Only the
undecided patterns are extended to the next round.  A decided component
keeps a common broadcaster in every extension, and patterns that are
indistinguishable at a later round are indistinguishable at every earlier
one, so the tree decides what the full horizon-t enumeration would, and the
undecided patterns at t are whole components of that enumeration.

Verification walks the same rounds: a pattern decided at round r stands for
all its extensions to the horizon, and its decision is checked for validity
against its round-r broadcasters and for equality across every pair of
patterns with equal views at round r.  The oracle asks the rule's
question (``_level_commons``) of full, unpruned levels: it searches for the
first level whose components all have a common broadcaster, and stops a
level as soon as some linked patterns share none.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from collections import deque
from collections.abc import Sequence
from itertools import chain, compress, count, islice
from operator import ne, not_

from .decision import decide
from .errors import NonBroadcastableComponentError, NotRootedError
from .indist import Adversary, common_masks
from .patterns import (
    DEFAULT_PATTERN_BUDGET,
    Pattern,
    PatternLevel,
    _check_budget,
    _components,
    _final_level,
    _first_seen,
    _level_commons,
    _level_zero,
    _round_inputs,
    _zero_inputs,
    broadcaster_mask,
    indist_label,
    iter_pattern_levels,
    pattern_at,
    pattern_index,
)
from .procset import procs_of


@dataclass(frozen=True)
class ConsensusRule:
    """Decision rule at horizon t, as a prefix-pruned pattern tree.

    Round r, from 0, holds the r-round patterns no earlier round decides:
    ``index[r][i]`` is the lexicographic index of its i-th pattern,
    ``decided[r][i]`` the process whose input that pattern's runs adopt at
    round r, or 0 when round r does not decide it, and
    ``broadcast_masks[r][i]`` and ``views[r][p][i]`` are that pattern's
    broadcasters and process p's view id.  Round r + 1 holds the extensions
    of round r's undecided patterns.  The rounds end at the first that
    decides all its patterns, or at round t.
    """

    adversary: Adversary
    t: int
    index: tuple[Sequence[int], ...]
    decided: tuple[tuple[int, ...], ...]
    broadcast_masks: tuple[tuple[int, ...], ...]
    views: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The components each round decides, as lexicographic indices of
        that round's patterns, by round and then by smallest index; built
        from the views on every read."""
        inputs, zero = _round_inputs(self.adversary), _zero_inputs(self.adversary.n)
        return tuple(
            tuple(index[i] for i in comp)
            for r, index, decided, views in zip(count(), self.index, self.decided, self.views)
            for comp in _components(PatternLevel(r, index, inputs if r else zero, views))[1]
            if decided[comp[0]]
        )

    def decision_process(self, sigma: Pattern) -> int:
        """The process whose input sigma's runs adopt, or 0 when no round decides it."""
        return _decision(self, sigma)[1]


def _decision(rule: ConsensusRule, sigma: Pattern) -> tuple[int, int]:
    """The round that decides a t-round pattern and the adopted process,
    found by walking the pattern's prefixes; (last round, 0) when none does."""
    if len(sigma) != rule.t:
        raise ValueError(f"pattern has {len(sigma)} rounds, rule expects {rule.t}")
    for r, index, decided in zip(count(), rule.index, rule.decided):
        i = _position(index, pattern_index(sigma.prefix(r)))
        if i is None:
            break
        if decided[i]:
            return r, decided[i]
    return len(rule.decided) - 1, 0


def _position(index: Sequence[int], k: int) -> int | None:
    """Where the ascending ``index`` holds k, or None."""
    i = bisect_left(index, k)
    return i if i < len(index) and index[i] == k else None


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
    d: Adversary,
    t: int,
    budget: int = DEFAULT_PATTERN_BUDGET,
    until: Pattern | None = None,
) -> ConsensusRule:
    """Synthesize the decision rule at horizon t.

    Round by round, each pattern still undecided is decided when its
    component has a common broadcaster, on the smallest one, and the rest
    are extended.  Patterns undecided at t form whole components of the
    t-round pattern indistinguishability graph; the first of them (by
    smallest pattern index) is reported via NonBroadcastableComponentError,
    which signals that t is too small or consensus is unsolvable.

    The m**t patterns of the horizon are checked against the budget before
    any round is built.  With ``until``, a t-round pattern, the tree stops
    at the round that decides it, and only the rounds built are checked.
    """
    if t < 0:
        raise ValueError(f"round count must be non-negative, got {t}")
    if until is None:
        if t > 0:
            _check_budget(d, t, budget)
    elif len(until) != t:
        raise ValueError(f"pattern has {len(until)} rounds, rule expects {t}")
    rounds: list[tuple] = []
    for level in chain([_level_zero(d.n)], iter_pattern_levels(d, t, budget)):
        r = level.rounds
        bmasks = level.broadcaster_masks()
        # the last round only has to tell whether every component decides
        stop = r == t and until is None
        commons = _level_commons(level, stop) if any(bmasks) else None if stop else bmasks
        if commons is None:
            break
        low = {common: (common & -common).bit_length() for common in set(commons)}
        decided = tuple(map(low.__getitem__, commons))
        rounds.append((level.index, decided, tuple(bmasks), tuple(level.views)))
        if 0 not in decided or until is not None and decided[
            _position(level.index, pattern_index(until.prefix(r)))
        ]:
            return ConsensusRule(d, t, *map(tuple, zip(*rounds)))
        if r < t and any(decided):
            # the generator extends only what is left; round t stays whole
            # for the error below
            level.keep(list(map(not_, decided)))
    comps = _components(level)[1]
    comp = next(c for c, common in zip(comps, common_masks(comps, bmasks)) if not common)
    raise NonBroadcastableComponentError(t, [pattern_at(d, t, level.index[i]).name for i in comp])


def run(rule: ConsensusRule, sigma: Pattern, inputs: Sequence) -> RunReport:
    """Replay one pattern under the rule with concrete inputs.

    All processes adopt the input of the process the rule decides on at the
    first round that decides the pattern; the validity flag checks that the
    decided value is the input of an actual broadcaster of the pattern's
    prefix up to that round (recomputed from the pattern, not taken from the
    rule).  A pattern no round decides fails termination and adopts nothing.
    """
    n = rule.adversary.n
    r, b = _decision(rule, sigma)
    if len(inputs) != n:
        raise ValueError(f"need {n} inputs, got {len(inputs)}")
    value = inputs[b - 1] if b else None
    bcasters = procs_of(broadcaster_mask(sigma.prefix(r))) if b else ()
    return RunReport(
        pattern=sigma,
        adopted=(b,) * n if b else (),
        value=value,
        agreement_ok=True,
        validity_ok=not b or any(inputs[q - 1] == value for q in bcasters),
        termination_ok=bool(b),
    )


def verify_all_runs(
    rule: ConsensusRule, inputs: Sequence | None = None
) -> VerificationReport:
    """Replay every t-round run on the rule's tree and aggregate correctness
    violations.

    Without explicit inputs, runs the canonical distinct vector (x_p = p) and
    the all-equal vector; with adopt-the-input decisions the distinct vector
    exercises validity fully.  A pattern decided at round r stands for its
    m**(t-r) extensions, in every count.  Its decision must be the input of
    one of its round-r broadcasters.  Patterns with equal round-r views for
    any process (the raw indistinguishability relation) must be decided
    alike at round r, where deciding and not deciding differ.  Patterns the
    last round leaves undecided fail termination.
    """
    d = rule.adversary
    n = d.n
    if inputs is not None and len(inputs) != n:
        raise ValueError(f"need {n} inputs, got {len(inputs)}")
    vectors: list[tuple] = (
        [tuple(inputs)] if inputs is not None else [tuple(range(1, n + 1)), (1,) * n]
    )

    m, t = len(d), rule.t
    agreement = validity = cross = runs = 0
    samples: list[str] = []
    for r, index, decided, bmasks, views in zip(
        count(), rule.index, rule.decided, rule.broadcast_masks, rule.views
    ):
        weight = m ** (t - r)
        done = len(decided) - decided.count(0)
        runs += done * weight
        if not done:
            continue  # no decision to check, and none differs

        def name(i: int) -> str:
            return pattern_at(d, r, index[i]).name

        # validity depends only on the decided process and the broadcasters
        pairs = set(zip(decided, bmasks))
        for vec in vectors:
            bad = {
                (b, bmask)
                for b, bmask in pairs
                if b and not any(vec[q - 1] == vec[b - 1] for q in procs_of(bmask))
            }
            if not bad:
                continue
            flags = list(map(bad.__contains__, zip(decided, bmasks)))
            validity += flags.count(True) * weight
            for i in islice(compress(count(), flags), 8 - len(samples)):
                samples.append(f"validity: pattern {name(i)} decided input of p{decided[i]}")
        for p, column in enumerate(views):
            firsts = _first_seen(column)
            if firsts is None:
                continue
            flags = list(map(ne, map(decided.__getitem__, firsts), decided))
            cross += flags.count(True) * weight
            for i in islice(compress(count(), flags), 8 - len(samples)):
                samples.append(
                    f"cross-run: {name(firsts[i])} vs {name(i)} disagree for p{p + 1}"
                )
    # the last round's undecided patterns stand for runs that never decide
    r = len(rule.decided) - 1
    flags = list(map(not_, rule.decided[r]))
    left = flags.count(True) * m ** (t - r)
    runs += left
    for i in islice(compress(count(), flags), 8 - len(samples)):
        sigma = pattern_at(d, r, rule.index[r][i])
        samples.append(f"termination: pattern {sigma.name} undecided after round {r}")
    return VerificationReport(
        horizon=rule.t,
        runs=runs * len(vectors),
        agreement_violations=agreement,
        validity_violations=validity,
        termination_violations=left * len(vectors),
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
        if _level_commons(level, stop=True) is not None:
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
