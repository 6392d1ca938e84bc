"""Multi-round communication patterns, full-information views, and their
indistinguishability graphs.

A view is identified by its process and the previous-round views of its
in-neighbours (process identity at round 0), and views are interned as
integer ids.  Ids of different processes never coincide, so two patterns
leave a process with equal ids exactly when its views are equal under the
recursive definition.  Inputs stay symbolic since indistinguishability
compares patterns under identical inputs; concrete inputs only matter when
runs are verified.

``iter_pattern_levels`` enumerates whole levels (``_extend``), each built on
demand from its parent's per-process columns, and ``_link`` links each on
its parent level, one node per (parent pattern, one-round component), or,
while the parent is unbuilt, on its grandparent as a level of the two-round
adversary; ``final_views`` replays a few given patterns row by row, where
the column kernel's fixed costs would dominate.
README describes the design; each function's docstring states its contract.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache, partial, reduce
from itertools import chain, compress, count, repeat, starmap
from operator import add, and_, eq, floordiv, mul, ne, or_, sub, xor

from .errors import BudgetExceededError
from .graphs import CommunicationGraph
from .indist import Adversary, IndistGraph, bucket_labels, group, union_find
from .procset import procs_of

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
        """Parse 'Ga.Gb.Gc' (or comma-separated) into a pattern; an empty
        or blank name, the whole of an empty ``spec`` too, raises KeyError
        as an unknown one does."""
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


class PatternLevel:
    """Patterns of one length in lexicographic order, read as per-process
    columns: ``views[p][i]`` is process p's final view id in the level's
    pattern i, ``influence[p][i]`` is p's influence mask there, and
    ``index[i]`` is that pattern's lexicographic index among all patterns of
    the length.  A full level's index is a ``range``; a level pruned by
    ``keep``, or extended from one, holds a subset.  ``inputs`` is what the
    level was extended with (``_round_inputs``).

    A level built by ``_extend`` holds its parent level.  Its group arrays
    (``ids``, ``masks``) are fresh, built on first read from the parent's
    columns and kept; its columns are filled from them on first read.  Once
    both columns are built, the level drops the parent and the group
    arrays.  ``keep`` builds the columns, prunes them, and drops the same.
    A level given its columns, or left without a parent, slices its group
    arrays from them."""

    def __init__(self, rounds: int, index: Sequence[int], inputs: RoundInputs,
                 views=None, influence=None, parent=None) -> None:
        self.rounds, self.index, self.inputs, self._parent = rounds, index, inputs, parent
        self._views, self._influence = views, influence
        self._ids: dict[tuple[int, int], Column] = {}
        self._masks: dict[tuple[int, ...], Column] = {}

    @property
    def views(self) -> list[tuple[int, ...]]:
        if self._views is None:
            # a process with m groups tells all patterns apart: its ids are a range
            m, groups_of, _ = self.inputs
            size = len(self.index)
            self._views = [
                tuple(range(p * size, (p + 1) * size)) if len(groups) == m
                else tuple(self._column(p, groups, self.ids))
                for p, groups in enumerate(groups_of)
            ]
            self._built()
        return self._views

    @property
    def influence(self) -> list[list[int]]:
        if self._influence is None:
            self._influence = [self._column(p, g, self.masks) for p, g in enumerate(self.inputs[1])]
            self._built()
        return self._influence

    def _built(self) -> None:
        """Once both columns are built, drop the parent and the group
        arrays: later reads slice the columns, as on a level given them."""
        if self._views is not None and self._influence is not None:
            self._parent, self._ids, self._masks = None, {}, {}

    def ids(self, p: int, qs: tuple[int, ...], c: int) -> Column:
        """Process p's view ids over the parent patterns under the graphs of its
        group with in-neighbours qs and smallest graph c.  A key is their parent
        view ids, or p's own when it hears only itself; a view's id is p's base,
        ``p * len(index)``, plus its first pattern, ``i*m + c`` for i the first
        parent with the key, so no two groups share an id."""
        ids = self._ids.get((p, c))
        if ids is None:
            m = self.inputs[0]
            if self._parent is None:
                ids = self.views[p][c::m]
            else:
                # a built parent's columns are read without the property call
                views = self._parent._views or self._parent.views
                keys = views[p] if len(qs) == 1 else zip(*[views[q] for q in qs])
                ids = list(map({}.setdefault, keys, count(p * len(self.index) + c, m)))
            self._ids[p, c] = ids
        return ids

    def keys(self, p: int, qs: tuple[int, ...], c: int) -> tuple[Column, int]:
        """The group's keys over the parent patterns as a fresh column, with
        its step: ``ids``, step m, or, when p hears only itself and the
        level holds an unpruned parent, p's parent view column, step 1,
        uninterned, as it holds p's parent base plus each parent's first
        parent with the same view.  A pruned parent's columns do not."""
        if len(qs) == 1 and self._parent is not None and type(self.index) is range:
            return (self._parent._views or self._parent.views)[p], 1
        return self.ids(p, qs, c), self.inputs[0]

    def masks(self, p: int, qs: tuple[int, ...], c: int) -> Column:
        """Influence masks over the parent patterns, the in-neighbours' ORed: one array per qs."""
        masks = self._masks.get(qs)
        if masks is None:
            if self._parent is None:
                masks = self.influence[p][c :: self.inputs[0]]
            else:
                influence = self._parent._influence or self._parent.influence
                masks = list(_fold(or_, [influence[q] for q in qs]))
            self._masks[qs] = masks
        return masks

    def _column(self, p: int, groups: Groups, read) -> list[int]:
        """Process p's column of ``read``'s group arrays, graph g in the slots g::m."""
        m = self.inputs[0]
        column = [0] * len(self.index)
        for qs, gs in groups.items():
            arrays = read(p, qs, gs[0])
            for g in gs:
                column[g::m] = arrays
        return column

    @property
    def view_rows(self) -> list[Row]:
        """Each pattern's view ids of all processes, zipped from the columns,
        which it builds, on every read: for the benchmark's tracer and the like."""
        return list(zip(*self.views))

    def broadcaster_masks(self) -> list[int]:
        """Per pattern, the processes in every influence mask: its broadcasters."""
        return list(_fold(and_, self.influence))

    def keep(self, flags: Sequence[bool]) -> None:
        """Prune the level in place to the patterns whose flag is set, in
        order.  The columns are rebound, so columns stored earlier stay whole.
        Kept view columns are not fresh: their ids are first positions in the
        unpruned column, so ``_first_seen`` and components must not read
        them; ``_extend`` interns afresh."""
        self._views = [tuple(compress(column, flags)) for column in self.views]
        self._influence = [list(compress(column, flags)) for column in self.influence]
        self.index = list(compress(self.index, flags))
        self._parent, self._ids, self._masks = None, {}, {}


def _fold(op, columns: Sequence[Column]) -> Iterator[int]:
    """``op`` applied across equal-length columns, entry by entry, as nested maps."""
    return reduce(partial(map, op), columns)


def _level_zero(n: int) -> PatternLevel:
    """The empty pattern, with the inputs of one graph in which each process hears only itself."""
    views, influence = [(p,) for p in range(n)], [[1 << p] for p in range(n)]
    return PatternLevel(0, range(1), _zero_inputs(n), views, influence)


@lru_cache(maxsize=1)
def _zero_inputs(n: int) -> RoundInputs:
    return 1, [{(p,): [0]} for p in range(n)], [([0], [], [((p, (p,), 0),) for p in range(n)])]


def _extend(level: PatternLevel, inputs: RoundInputs) -> PatternLevel:
    """The next level, holding this level and the inputs; it is built on
    demand (``PatternLevel``), and this level's columns are built only when
    something reads them.  Pattern i extended by graph g is pattern
    ``i*m + g``, and after ``PatternLevel.keep`` its lexicographic index is
    ``index[i]*m + g``."""
    m = inputs[0]
    size = len(level.index) * m
    if type(level.index) is range:
        index: Sequence[int] = range(size)
    else:
        index = [0] * size
        scaled = list(map(mul, level.index, repeat(m)))
        for g in range(m):
            index[g::m] = map(add, scaled, repeat(g))
    return PatternLevel(level.rounds + 1, index, inputs, parent=level)


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
    graph order; and the parts (``_parts``), the one-round components
    (graphs sharing a group are linked), each unit one group as (process,
    in-neighbours, first graph) with its in-neighbours as its mask.  The
    last adversary's are kept, so the oracle and the rule of one ``verify``
    build them once; callers share them and only read them."""
    m, groups_of, units, identifying = len(d), [], [], 0
    for p, column in enumerate(zip(*(graph._in for graph in d.graphs))):
        by_mask: dict[int, list[int]] = {}
        for g, mask in enumerate(column):
            by_mask.setdefault(mask, []).append(g)
        groups = dict(zip(map(_indices, by_mask), by_mask.values()))
        groups_of.append(groups)
        for (qs, gs), mask in zip(groups.items(), by_mask):
            units.append((gs[0], mask, ((p, qs, gs[0]),)))
        if len(by_mask) == m:
            identifying |= 1 << p
    pairs = [(gs[0], g) for groups in groups_of for gs in groups.values() for g in gs[1:]]
    return m, groups_of, _parts(m, pairs, units, identifying)


# the inputs last composed and their composition (``_composed``)
_composition: list = [None, None]


def _composed(inputs: RoundInputs) -> RoundInputs:
    """The inputs of the two-round adversary, whose graph h*m + g is graph
    h, then graph g, for ``_link`` to link a level on its grandparent: m²,
    the one-round groups, which ``_link`` does not read here, and the parts
    (``_parts``), each a block of graphs h times a one-round part's graphs
    g.  The last inputs' composition is kept, as ``_round_inputs`` keeps
    the last adversary's.

    Patterns (j, h, g) and (j', h', g') share p's view exactly when p has
    one group over some Q under g and g', and under h and h' each q in Q
    has one group, over some Q_q, with equal views over Q_q at j and j'.
    So each ANDed group of a one-round part splits the graphs h into
    classes under which every q in its Q keeps one group; a class is a
    unit of those groups, its mask the union of the Q_q, and the blocks
    join each class's graphs.  A group over a superset of an ANDed
    group's Q splits them finer, so the part's other groups add nothing."""
    if _composition[0] is inputs:
        return _composition[1]
    m, groups_of, parts = inputs
    # each process's group under each graph, with its in-neighbour mask
    of = []
    for p, groups in enumerate(groups_of):
        column: list = [None] * m
        for qs, gs in groups.items():
            entry = (p, qs, gs[0]), sum(1 << q for q in qs)
            for g in gs:
                column[g] = entry
        of.append(column)
    identifying = sum(1 << p for p, groups in enumerate(groups_of) if len(groups) == m)
    composed = []
    for graphs, _, anded in parts:
        pairs: list[tuple[int, int]] = []
        units = []
        for [(_, qs, _)] in anded:
            by_key: dict[tuple, list[int]] = {}
            for h, key in enumerate(zip(*[of[q] for q in qs])):
                by_key.setdefault(key, []).append(h)
            for key, hs in by_key.items():
                pairs += zip(repeat(hs[0]), hs[1:])
                groups, masks = zip(*key)
                units.append((hs[0], reduce(or_, masks), groups))
        composed += [
            ([h * m + g for h in block for g in graphs], linked, kept)
            for block, linked, kept in _parts(m, pairs, units, identifying)
        ]
    _composition[:] = inputs, (m * m, groups_of, composed)
    return _composition[1]


def _parts(
    m: int, pairs: list[tuple[int, int]], units: Iterable[tuple[int, int, tuple]], identifying: int
) -> list[tuple[list[int], list, list]]:
    """The parts, the classes of ``union_find`` over ``pairs`` on m graphs,
    by smallest graph, each as its graphs, its linking units and its ANDed
    units.  ``units`` gives each unit, a tuple of groups, with its first
    graph and its mask, the processes whose views its keys compare.  A part
    ANDs one unit per mask inclusion-minimal among its units', fewest
    members first, and links those of them whose mask holds no process of
    ``identifying``, the processes that tell every graph apart.

    This is exact.  A unit's keys repeat between two nodes exactly when the
    views over its mask do, and its influence masks OR those over its mask,
    so a unit over a superset of a minimal mask adds nothing to the AND and
    links nothing new.  A graph-identifying process's views differ on every
    level past 0, so no key over a mask holding one repeats."""
    rep = union_find(m, pairs) if pairs else range(m)
    parts: dict[int, tuple[list[int], dict[int, tuple]]] = {}
    for g, root in enumerate(rep):  # a root is its part's smallest graph
        if root == g:
            parts[g] = ([g], {})
        else:
            parts[root][0].append(g)
    for g, mask, unit in units:
        parts[rep[g]][1].setdefault(mask, unit)
    return [
        (graphs, [by_mask[k] for k in kept if not k & identifying], [by_mask[k] for k in kept])
        for graphs, by_mask in parts.values()
        for kept in [_minimal(by_mask)]
    ]


def _minimal(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal masks, fewest members first."""
    kept: list[int] = []
    for mask in sorted(masks, key=int.bit_count):
        for k in kept:
            if k | mask == mask:
                break
        else:
            kept.append(mask)
    return kept


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
    return None if _all_distinct(column, step) else list(_offsets(column, step))


def _offsets(column: Column, step: int) -> Iterator[int]:
    """Each entry less the column's first, divided by ``step``."""
    offsets = map(sub, column, repeat(column[0]))
    return offsets if step == 1 else map(floordiv, offsets, repeat(step))


def _link(level: PatternLevel, masked: bool = False, stop: bool = True) -> list[int] | None:
    """Each pattern's component representative, its smallest pattern; with
    ``masked``, each pattern's component AND of its broadcaster masks, None
    as soon as one is empty when ``stop``.

    Patterns extending parents i and j share p's view exactly when p's key
    is the same in i and j under graphs of one group, so the extensions of
    i by one part's graphs lie in one component: a node (i, part).  A full
    level whose parent still holds its own parent, and whose grandparent
    holds more patterns than there are graphs (below that the composition
    costs more than the parent's columns it saves), is linked on its
    grandparent as a level of the two-round adversary (``_composed``), and
    its parent's columns are never read.  Parts are linked alone, each on
    its linking units only (``_parts``).  A unit's key column holds a base
    plus its step times each node's first node with the key, so the first
    linking unit with a repeat is a forest (``_first_seen``) that seeds
    ``union_find``, its buckets' masks ANDed into their roots, and later
    ones give the pairs; a unit is read only when the linking gets to it.
    A node's mask ANDs the part's ANDed units' masks, plus a bit above
    every process without ``stop`` so that no AND runs empty; its result
    fills the slots ``g::m`` of its part's graphs g, for m graphs."""
    m, groups_of, parts = level.inputs
    parent, size = level._parent, len(level.index)
    reader = level
    grand = parent is not None and parent._parent is not None
    if grand and type(level.index) is range and size > m**3:
        (m, _, parts), reader = _composed(level.inputs), parent
    nodes = size // m
    top = 0 if stop else 1 << len(groups_of)
    out = None  # allocated once a part links, so a failing level never builds it
    for graphs, linked, anded in parts:
        # one node has nothing to link
        later = map(partial(_unit_key, reader), linked) if nodes > 1 else iter(())
        masks = None
        if masked:
            arrays = map(partial(_unit_masks, reader), anded)
            if nodes == 1:  # a scalar AND
                masks = [reduce(and_, [a[0] for a in arrays])]
            else:
                masks = list(_fold(and_, list(arrays)))
            if top:
                masks = list(map(or_, masks, repeat(top)))
            elif 0 in masks:
                return None
        forest = next(filter(None, starmap(_first_seen, later)), None)
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
                    zip(_offsets(s, step), count()),
                    map(ne, s, count(s[0], step)),
                )
                for s, step in later
            )
            if (res := union_find(nodes, pairs, masks, forest)) is None:
                return None
        if masks is None:
            res = list(map(add, map(mul, res, repeat(m)), repeat(graphs[0])))
        elif top:
            res = list(map(xor, res, repeat(top)))
        if out is None:
            out = [0] * size
        for g in graphs:
            out[g::m] = res
    return out


def _unit_key(level: PatternLevel, unit: tuple) -> tuple[Column, int]:
    """A unit's key column over the level's parents, with its step: one
    group's ``keys``, or several groups' keys zipped and interned to first
    positions."""
    if len(unit) == 1:
        return level.keys(*unit[0])
    return list(map({}.setdefault, zip(*[level.keys(*g)[0] for g in unit]), count())), 1


def _unit_masks(level: PatternLevel, unit: tuple) -> Column:
    """A unit's influence masks over the level's parents: its groups' ORed."""
    if len(unit) == 1:
        return level.masks(*unit[0])
    return list(_fold(or_, [level.masks(*g) for g in unit]))


def _components(level: PatternLevel) -> tuple[list[int], list[list[int]]]:
    """Each pattern's component index and the components of the pattern
    indistinguishability graph, each ascending and ordered by smallest index."""
    return group(_link(level))


def pattern_components(
    d: Adversary, r: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> list[list[int]]:
    """Connected components of the r-round pattern indistinguishability graph,
    as lists of lexicographic pattern indices."""
    return _components(_final_level(d, r, budget))[1]


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
