"""Multi-round communication patterns, full-information views, and their
indistinguishability graphs.

A view is identified by its process and the previous-round views of its
in-neighbours (process identity at round 0), and views are interned as
integer ids.  Ids of different processes never coincide, so two patterns
leave a process with equal ids exactly when its views are equal under the
recursive definition.  Inputs stay symbolic since indistinguishability
compares patterns under identical inputs; concrete inputs only matter when
runs are verified.

``iter_pattern_levels`` enumerates whole levels as per-process columns
(``_extend``) and ``_link`` links each on its parent level, one node per
(parent pattern, one-round component); ``final_views`` replays a few given
patterns row by row, where the column kernel's fixed costs would dominate.
README describes the design; each function's docstring states its contract.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache, partial, reduce
from itertools import chain, compress, count, repeat
from operator import add, and_, eq, floordiv, mul, ne, or_, sub, xor

from .errors import BudgetExceededError
from .graphs import CommunicationGraph
from .indist import Adversary, IndistGraph, bucket_labels, group, union_find
from .procset import bit, procs_of

DEFAULT_PATTERN_BUDGET = 200_000
# pattern counts above this are not computed exactly (see _check_budget)
_EXACT_COUNT_LIMIT = 1 << 64

Row = tuple[int, ...]
Column = Sequence[int]
InTuples = tuple[tuple[int, ...], ...]
# one process's distinct in-neighbourhoods, each with the graphs that give it
Groups = dict[tuple[int, ...], list[int]]
# m, each process's groups and the parts (see _round_inputs)
RoundInputs = tuple[int, list[Groups], list[tuple[list[int], list, list]]]


@dataclass(frozen=True)
class Pattern:
    """A finite sequence of round graphs, stored as indices into an adversary.

    The empty pattern is valid.  Round positions are 1-based to match the
    usual round numbering.
    """

    adversary: Adversary
    rounds: tuple[int, ...]

    def __post_init__(self) -> None:
        for gi in self.rounds:
            if not (0 <= gi < len(self.adversary)):
                raise ValueError(f"graph index {gi} out of range")

    def __len__(self) -> int:
        return len(self.rounds)

    def graph_at(self, r: int) -> CommunicationGraph:
        if not (1 <= r <= len(self.rounds)):
            raise ValueError(f"round {r} out of range 1..{len(self.rounds)}")
        return self.adversary.graphs[self.rounds[r - 1]]

    def prefix(self, r: int) -> "Pattern":
        if not (0 <= r <= len(self.rounds)):
            raise ValueError(f"prefix length {r} out of range")
        return Pattern(self.adversary, self.rounds[:r])

    def extend(self, graph_index: int) -> "Pattern":
        return Pattern(self.adversary, self.rounds + (graph_index,))

    def remove_round(self, r: int) -> "Pattern":
        if not (1 <= r <= len(self.rounds)):
            raise ValueError(f"round {r} out of range 1..{len(self.rounds)}")
        return Pattern(self.adversary, self.rounds[: r - 1] + self.rounds[r:])

    @property
    def name(self) -> str:
        if not self.rounds:
            return "(empty)"
        return ".".join(self.adversary.names[gi] for gi in self.rounds)

    @staticmethod
    def repeat(d: Adversary, graph_index: int, r: int) -> "Pattern":
        return Pattern(d, (graph_index,) * r)

    @staticmethod
    def from_names(d: Adversary, spec: str) -> "Pattern":
        """Parse 'Ga.Gb.Gc' (or comma-separated) into a pattern."""
        spec = spec.strip()
        if not spec:
            return Pattern(d, ())
        parts = spec.replace(",", ".").split(".")
        return Pattern(d, tuple(d.index_of(p.strip()) for p in parts))


def _start(n: int) -> tuple[Row, Row]:
    """Round-0 views (one id per process) and influence states (each process itself)."""
    return tuple(range(n)), tuple(1 << p for p in range(n))


def _advance(steps: Iterable[tuple[Row, Row, InTuples]]) -> tuple[list[Row], list[Row]]:
    """Advance every (view row, influence state, round graph) step by one
    round: the row replay behind ``final_views``.

    A new view's key lists the in-neighbours' view ids in ascending neighbour
    order.  Ids of different processes never coincide, so this is the same as
    keying by the set of in-neighbour views, without a sort or a set.  The
    intern dict lives for this one call: ids are unique within the round.  A
    process's new influence state ORs the states of its in-neighbours.
    """
    ids: dict[tuple[int, ...], int] = {}
    rows: list[Row] = []
    states: list[Row] = []
    for row, state, ins in steps:
        new_row = []
        new_state = []
        for p, qs in enumerate(ins):
            new_row.append(ids.setdefault((p, *[row[q] for q in qs]), len(ids)))
            acc = 0
            for q in qs:
                acc |= state[q]
            new_state.append(acc)
        rows.append(tuple(new_row))
        states.append(tuple(new_state))
    return rows, states


def final_views(patterns: Sequence[Pattern]) -> list[tuple[Row, Row]]:
    """Final view row and influence state of each of a few equal-length patterns.

    View ids are comparable across the given patterns only: every call
    interns afresh.
    """
    if not patterns:
        return []
    length = len(patterns[0])
    for sigma in patterns:
        if len(sigma) != length:
            raise ValueError(f"patterns have different lengths: {length} vs {len(sigma)}")
    row, state = _start(patterns[0].adversary.n)
    rows, states = [row] * len(patterns), [state] * len(patterns)
    for r in range(1, length + 1):
        ins = [sigma.graph_at(r).in_indices() for sigma in patterns]
        rows, states = _advance(zip(rows, states, ins))
    return list(zip(rows, states))


def indist_label(sigma: Pattern, sigma_prime: Pattern) -> int:
    """Mask of the processes that cannot distinguish the two patterns."""
    (a, _), (b, _) = final_views([sigma, sigma_prime])
    label = 0
    for p in range(len(a)):
        if a[p] == b[p]:
            label |= 1 << p
    return label


def heard_of(sigma: Pattern, p: int, r_from: int, q: int, r_to: int) -> bool:
    """True iff p's state at time r_from influences q's state at time r_to."""
    n = sigma.adversary.n
    for arg, x in (("p", p), ("q", q)):
        if not 1 <= x <= n:
            raise ValueError(f"need 1 <= {arg} <= {n}, got {arg}={x}")
    if not (0 <= r_from < r_to <= len(sigma)):
        raise ValueError(
            f"need 0 <= r_from < r_to <= {len(sigma)}, got r_from={r_from}, r_to={r_to}"
        )
    [(_, state)] = final_views([Pattern(sigma.adversary, sigma.rounds[r_from:r_to])])
    return bool(state[q - 1] & bit(p))


def broadcaster_mask(sigma: Pattern) -> int:
    """Mask of processes whose initial state reaches everyone by the end."""
    [(_, state)] = final_views([sigma])
    return reduce(and_, state)


def pattern_at(d: Adversary, r: int, index: int) -> Pattern:
    """Pattern at a lexicographic position (earliest round most significant)."""
    m = len(d)
    digits = []
    for _ in range(r):
        digits.append(index % m)
        index //= m
    if index:
        raise ValueError("pattern index out of range")
    return Pattern(d, tuple(reversed(digits)))


def pattern_index(sigma: Pattern) -> int:
    m = len(sigma.adversary)
    idx = 0
    for gi in sigma.rounds:
        idx = idx * m + gi
    return idx


@dataclass
class PatternLevel:
    """Patterns of one length in lexicographic order, stored as per-process
    columns: ``views[p][i]`` is process p's final view id in the level's
    pattern i, ``influence[p][i]`` is p's influence mask there, and
    ``index[i]`` is that pattern's lexicographic index among all patterns of
    the length.  A full level's index is a ``range``; a level pruned by
    ``keep``, or extended from one, holds a subset.  ``inputs`` is what the
    level was extended with (``_round_inputs``); level 0 has none."""

    rounds: int
    views: list[tuple[int, ...]]
    influence: list[list[int]]
    index: Sequence[int]
    inputs: RoundInputs | None = None

    @property
    def view_rows(self) -> list[Row]:
        """Each pattern's view ids of all processes, built from the columns
        on every read, for callers that read rows, such as the benchmark's
        tracer; the library reads the columns."""
        return list(zip(*self.views))

    def broadcaster_masks(self) -> list[int]:
        """Per pattern, the processes in every influence mask: its broadcasters."""
        return list(_fold(and_, self.influence))

    def keep(self, flags: Sequence[bool]) -> None:
        """Prune the level in place to the patterns whose flag is set, in
        order.  The attributes are rebound, so columns stored earlier stay
        whole.  Kept view columns are not fresh: their ids are first
        positions in the unpruned column, so ``_first_seen`` and components
        must not read them; ``_extend`` interns afresh.
        """
        self.views = [tuple(compress(column, flags)) for column in self.views]
        self.influence = [list(compress(column, flags)) for column in self.influence]
        self.index = list(compress(self.index, flags))


def _fold(op, columns: Sequence[Column]) -> Iterator[int]:
    """``op`` applied across equal-length columns, entry by entry, as nested maps."""
    return reduce(partial(map, op), columns)


def _level_zero(n: int) -> PatternLevel:
    return PatternLevel(0, [(p,) for p in range(n)], [[1 << p] for p in range(n)], range(1))


def _extend(level: PatternLevel, inputs: RoundInputs) -> PatternLevel:
    """The next level: pattern i extended by graph g is pattern ``i*m + g``,
    so graph g fills the slots ``g::m`` of every new column.

    Process p's new view key under g is the tuple of its in-neighbours' view
    ids, or p's own view id when it hears only itself.  The graphs of one
    group of p (``_round_inputs``) give it the same key sequence, so each
    group's keys are interned, and its influence masks ORed, once, and fill
    the slots of every graph in the group.  A view's id is p's base plus the
    position of the first pattern with that view; each base is the previous
    process's plus the column length, so ids of different processes, and so
    keys of different groups, never coincide.  The first pattern with a view
    in group C is then ``i*m + min(C)``, i its key's first position in the
    previous level, so C's ids count up from ``base + min(C)`` in steps of m.
    A graph-identifying process, one with m groups, tells all patterns
    apart, so its column is the range of ids, built without a key.

    A level pruned by ``PatternLevel.keep`` keeps its positions: pattern i
    extended by g has lexicographic index ``index[i]*m + g``, and the new
    columns are fresh either way.
    """
    m, groups_of, _ = inputs
    views, influence = level.views, level.influence
    size = len(views[0]) * m
    if type(level.index) is range:
        index: Sequence[int] = range(size)
    else:
        index = [0] * size
        scaled = list(map(mul, level.index, repeat(m)))
        for g in range(m):
            index[g::m] = map(add, scaled, repeat(g))
    base = 0
    new_views: list[tuple[int, ...]] = []
    new_influence: list[list[int]] = []
    for p, groups in enumerate(groups_of):
        masks = [0] * size
        for qs, gs in groups.items():
            ored = list(_fold(or_, [influence[q] for q in qs]))
            for g in gs:
                masks[g::m] = ored
        new_influence.append(masks)
        if len(groups) == m:
            new_views.append(tuple(range(base, base + size)))
            base += size
            continue
        column = [0] * size
        for qs, gs in groups.items():
            keys = views[p] if len(qs) == 1 else zip(*[views[q] for q in qs])
            ids = list(map({}.setdefault, keys, count(base + gs[0], m)))
            for g in gs:
                column[g::m] = ids
        new_views.append(tuple(column))
        base += size
    return PatternLevel(level.rounds + 1, new_views, new_influence, index, inputs)


def iter_pattern_levels(
    d: Adversary, r_max: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> Iterator[PatternLevel]:
    """Yield levels 1..r_max of the pattern enumeration, extending round by round.

    A level pruned by ``PatternLevel.keep`` is extended as pruned.
    Raises ValueError for a negative r_max, and BudgetExceededError before
    materializing a level whose pattern count exceeds the budget; the error
    names the offending length, and the count when it is at most 2**64.
    """
    if r_max < 0:
        raise ValueError(f"round count must be non-negative, got {r_max}")
    inputs = _round_inputs(d)
    level = _level_zero(d.n)
    for k in range(1, r_max + 1):
        _check_budget(d, k, budget)
        level = _extend(level, inputs)
        yield level


@lru_cache(maxsize=1 << 12)
def _indices(mask: int) -> tuple[int, ...]:
    """A mask's members as 0-based indices; documents repeat their masks."""
    return tuple(q - 1 for q in procs_of(mask))


@lru_cache(maxsize=1)
def _round_inputs(d: Adversary) -> RoundInputs:
    """What the kernels read of the adversary: m; per process, its groups,
    the distinct in-neighbourhoods each with the graphs that give it, in
    graph order; and the parts, the one-round components (graphs sharing a
    group are linked) by smallest graph, each as its graphs and the
    (process, first graph) of its groups, for the processes that do not
    identify the graph and for all.  The last adversary's are kept, so the
    oracle and the rule of one ``verify`` build them once; callers share
    them and only read them."""
    m, groups_of = len(d), []
    for column in zip(*(graph._in for graph in d.graphs)):
        by_mask: dict[int, list[int]] = {}
        for g, mask in enumerate(column):
            by_mask.setdefault(mask, []).append(g)
        groups_of.append(dict(zip(map(_indices, by_mask), by_mask.values())))
    pairs = [(gs[0], g) for groups in groups_of for gs in groups.values() for g in gs[1:]]
    rep = union_find(m, pairs) if pairs else range(m)
    parts: dict[int, tuple[list[int], list, list]] = {}
    for g, root in enumerate(rep):
        parts.setdefault(root, ([], [], []))[0].append(g)
    for p, groups in enumerate(groups_of):
        for gs in groups.values():
            part = parts[rep[gs[0]]]
            part[2].append((p, gs[0]))
            if len(groups) < m:
                part[1].append((p, gs[0]))
    return m, groups_of, list(parts.values())


def _check_budget(d: Adversary, r: int, budget: int) -> None:
    """Raise BudgetExceededError when the patterns of length r exceed the budget.

    The count is multiplied up one round at a time and abandoned once it
    passes both the budget and 2**64, so a huge r builds no huge integer;
    the error then carries no exact count.  A single graph gives one pattern
    of every length, so it needs no loop.
    """
    m = len(d)
    required = 1
    for _ in range(r if m > 1 else 0):
        required *= m
        if required > budget and required > _EXACT_COUNT_LIMIT:
            raise BudgetExceededError(None, budget, r)
    if required > budget:
        raise BudgetExceededError(required, budget, r)


def _final_level(d: Adversary, r: int, budget: int) -> PatternLevel:
    """Level r alone; level 0 holds the empty pattern.  An r over the budget
    is named in the error before any level is built."""
    if r > 0:
        _check_budget(d, r, budget)
    level = _level_zero(d.n)
    for level in iter_pattern_levels(d, r, budget):
        pass
    return level


def _all_distinct(column: Column, step: int = 1) -> bool:
    """True when no two patterns share the column's entry.  A fresh column's
    entries are its base plus first positions, so it is all distinct exactly
    when every entry is its first entry plus ``step`` times its position; the
    last entry tests that in O(1) for most columns that repeat.  On a column
    pruned by ``PatternLevel.keep`` a True is still right, a False may not be."""
    return column[-1] - column[0] == step * (len(column) - 1) and all(
        map(eq, column, count(column[0], step))
    )


def _first_seen(column: Column, step: int = 1) -> list[int] | None:
    """Each pattern's first pattern with the same entry in a fresh column,
    its id less the column's base, or None when all entries are distinct;
    on a group's slice (``step`` m), each parent's first parent with its
    key.  On a pruned column the positions are those of the unpruned one."""
    if _all_distinct(column, step):
        return None
    offsets = map(sub, column, repeat(column[0]))
    return list(offsets if step == 1 else map(floordiv, offsets, repeat(step)))


def _link(
    views: Sequence[Column],
    inputs: RoundInputs | None,
    influence: Sequence[Column] | None = None,
    stop=True,
) -> list[int] | None:
    """Each pattern's component representative, its smallest pattern, on a
    level's fresh columns and the inputs it was extended with (none needed
    for a one-pattern level); with ``influence``, each pattern's component
    AND of its broadcaster masks, None as soon as one is empty when ``stop``.

    Patterns extending parents i and j share p's view exactly when p's key
    is the same in i and j under graphs of one group C, so the extensions of
    i by one part's graphs lie in one component: a node (i, part).  Parts are
    linked alone.  C's slice ``views[p][min(C)::m]`` holds base + min(C) + m *
    (first parent with i's key), so the first slice with a repeat is a forest
    (``_first_seen``) that seeds ``union_find``, its buckets' masks ANDed into
    their roots, and later slices give the pairs.  A node's mask ANDs
    ``influence[p][min(C)::m]`` over the part's groups, plus a bit above every
    process without ``stop`` so that no AND runs empty; its result fills the
    slots ``g::m`` of its part's graphs."""
    size = len(views[0])
    if size == 1:  # one pattern: level 0, or a level of a single graph
        m, parts = 1, [([0], [], list(zip(range(len(views)), repeat(0))))]
    else:
        m, _, parts = inputs
    nodes, top = size // m, 0 if stop else 1 << len(views)
    out = [0] * size
    for graphs, linked, masked in parts:
        masks = None
        if influence is not None:
            if nodes == 1:  # one parent: a scalar AND, no slices
                masks = [reduce(and_, [influence[p][c] for p, c in masked])]
            else:
                masks = list(_fold(and_, [influence[p][c::m] for p, c in masked]))
            if top:
                masks = list(map(or_, masks, repeat(top)))
            elif 0 in masks:
                return None
        # one parent has nothing to link
        later = (views[p][c::m] for p, c in linked) if nodes > 1 else iter(())
        forest = next(filter(None, map(_first_seen, later, repeat(m))), None)
        if forest is None:  # every node is its own component
            res: Sequence[int] | None = range(nodes) if masks is None else masks
        else:
            if masks is not None:
                # only members whose mask differs from their root's AND so far
                for root, mask in compress(
                    zip(forest, masks), map(ne, map(masks.__getitem__, forest), masks)
                ):
                    masks[root] &= mask
            pairs = chain.from_iterable(
                compress(
                    zip(map(floordiv, map(sub, s, repeat(s[0])), repeat(m)), count()),
                    map(ne, s, count(s[0], m)),
                )
                for s in later
            )
            if (res := union_find(nodes, pairs, masks, forest)) is None:
                return None
        if masks is None:
            res = list(map(add, map(mul, res, repeat(m)), repeat(graphs[0])))
        elif top:
            res = list(map(xor, res, repeat(top)))
        for g in graphs:
            out[g::m] = res
    return out


def _level_commons(level: PatternLevel, stop: bool) -> list[int] | None:
    """Each pattern's component AND of the broadcaster masks (``_link``)."""
    return _link(level.views, level.inputs, level.influence, stop)


def _components(
    views: Sequence[Column], inputs: RoundInputs | None
) -> tuple[list[int], list[list[int]]]:
    """Each pattern's component index and the components of the pattern
    indistinguishability graph, each ascending and ordered by smallest index."""
    return group(_link(views, inputs))


def pattern_components(
    d: Adversary, r: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> list[list[int]]:
    """Connected components of the r-round pattern indistinguishability graph,
    as lists of lexicographic pattern indices."""
    level = _final_level(d, r, budget)
    return _components(level.views, level.inputs)[1]


def pattern_indist_graph(
    d: Adversary, r: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> IndistGraph:
    """The full labeled indistinguishability graph over all r-round patterns.

    Nodes enumerate the patterns lexicographically; names compose the round
    graph names ("Ga.Gc").  The edges come from ``bucket_labels`` with the
    budget as its cap, so too many pairs raise PairBudgetExceededError
    before any edge is built.
    """
    views = _final_level(d, r, budget).views
    labels = bucket_labels(views, budget, r)
    size = len(views[0])
    names = [pattern_at(d, r, i).name for i in range(size)]
    return IndistGraph(size, names, labels)
