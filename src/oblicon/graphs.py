"""Directed round-communication graphs on processes 1..n and their root components.

A graph models one round of message delivery: the edge (u, v) lets v hear u's
current state.  Self-loops are always present (omitted ones are inserted at
construction), matching the convention that a process always knows itself.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache, reduce
from operator import or_

from .errors import AdversaryFormatError
from .procset import full_mask, procs_of, select

# Each graph holds 2n masks of up to n bits, so a document's memory grows as
# n squared per graph; larger process counts are refused before any graph is
# built, whether a document declares them or a family derives them.
MAX_PROCESSES = 4096


def check_process_count(n: int) -> None:
    if n > MAX_PROCESSES:
        raise AdversaryFormatError(f"'n' is {n}; at most {MAX_PROCESSES} processes are supported")


class CommunicationGraph:
    """Immutable directed graph for a single round.

    Equality and hashing compare the adjacency only; the optional ``name`` is
    display metadata.  The root component is computed eagerly and cached since
    every downstream analysis queries it repeatedly.
    """

    __slots__ = ("n", "name", "_in", "_out", "_root_mask", "_in_indices")

    def __init__(self, n: int, edges: Iterable[Sequence[int]], name: str | None = None):
        if n < 2:
            raise ValueError(f"need at least 2 processes, got n={n}")
        self.n = n
        self.name = name
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        # Index p of the mask lists is process p; index 0 is a spare slot.
        # Every iteration looks both endpoints up in ``bits``, which holds
        # exactly 1..n, so the first edge with a process outside the range
        # raises KeyError or IndexError.  A negative v may have ORed into a
        # real slot by then, but the masks are dropped: the rescan names
        # that edge and always raises.
        bits = _bits(n)
        in_masks = [0, *bits.values()]
        out_masks = in_masks[:]
        try:
            for u, v in edges:
                in_masks[v] |= bits[u]
                out_masks[u] |= bits[v]
        except (KeyError, IndexError):
            for u, v in edges:
                if u not in bits or v not in bits:
                    if 1 <= u <= n and 1 <= v <= n:
                        raise TypeError(f"edge ({u},{v}) has a non-integer process") from None
                    raise ValueError(f"edge ({u},{v}) out of range 1..{n}") from None
        self._in = tuple(in_masks[1:])
        self._out = tuple(out_masks[1:])
        self._root_mask = _root_mask(n, self._in, self._out)
        self._in_indices: tuple[tuple[int, ...], ...] | None = None

    def in_indices(self) -> tuple[tuple[int, ...], ...]:
        """Each process's in-neighbours as ascending 0-based indices, built on
        first use and kept."""
        if self._in_indices is None:
            self._in_indices = tuple(tuple(q - 1 for q in procs_of(m)) for m in self._in)
        return self._in_indices

    def edges(self) -> list[tuple[int, int]]:
        """Non-loop edges (u, v) in ascending order, read off the out-masks;
        a process whose out-mask is its self-loop alone is skipped unread."""
        return [
            (u, v)
            for u, out in enumerate(self._out, 1)
            if out != 1 << (u - 1)
            for v in procs_of(out)
            if u != v
        ]

    @property
    def root_mask(self) -> int:
        """Root component as a bitmask; 0 when the graph is not rooted."""
        return self._root_mask

    @property
    def root(self) -> frozenset[int] | None:
        if self._root_mask == 0:
            return None
        return frozenset(procs_of(self._root_mask))

    @property
    def is_rooted(self) -> bool:
        return self._root_mask != 0

    def relabel(self, mapping: dict[int, int], name: str | None = None) -> "CommunicationGraph":
        """Return the graph with every process p renamed to mapping[p]."""
        return CommunicationGraph(
            self.n,
            [(mapping[u], mapping[v]) for u, v in self.edges()],
            name if name is not None else self.name,
        )

    def with_name(self, name: str) -> "CommunicationGraph":
        """This graph under ``name``, sharing its masks, root and in-indices."""
        g = object.__new__(CommunicationGraph)
        g.n, g.name, g._in, g._out = self.n, name, self._in, self._out
        g._root_mask, g._in_indices = self._root_mask, self._in_indices
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunicationGraph):
            return NotImplemented
        return self.n == other.n and self._in == other._in

    def __hash__(self) -> int:
        return hash((self.n, self._in))

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"CommunicationGraph({label}, n={self.n}, edges={len(self.edges())})"


@lru_cache(maxsize=8)
def _bits(n: int) -> dict[int, int]:
    """Each process's bit, keyed by the process: ``_bits(n)[p] == 1 << (p - 1)``.
    Every graph on n processes shares the one dict, so it is only read."""
    return {p: 1 << (p - 1) for p in range(1, n + 1)}


def _closure(start: int, adj: Sequence[int]) -> tuple[int, int]:
    """Mask of the processes reachable from the mask ``start`` along ``adj``
    (``adj[p-1]`` is p's neighbour mask), one frontier at a time, and the
    last non-empty frontier: the processes farthest from ``start``.

    A frontier of up to 16 processes is walked bit by bit; a larger one
    selects its rows with ``select``, one C pass over its binary digits.
    The pass has a fixed cost, so it wins only on large frontiers: at
    n = 209 it takes 2.2 us against the walk's 0.4 us for one member and
    14.6 against 55.7 us for 209, and the two cross between 16 and 32
    members (between 10 and 12 at n = 64).  Once everyone is reached the
    next frontier is empty, so it is not expanded.
    """
    full = (1 << len(adj)) - 1
    reached = frontier = far = start
    while frontier and reached != full:
        if frontier.bit_count() > 16:
            nxt = reduce(or_, select(adj, frontier))
        else:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
        frontier = nxt & ~reached
        reached |= frontier
        if frontier:
            far = frontier
    return reached, far


def _root_mask(n: int, in_masks: Sequence[int], out_masks: Sequence[int]) -> int:
    """Mask of the processes that reach everyone, or 0 if there are none.

    These form the unique source component of the condensation when there is
    one.  A candidate that reaches everyone is in it, and the component is
    everything that reaches that candidate.  A candidate that fails rules out
    its descendants, and the root, which reaches every process, lies among
    its ancestors.  The next candidate is one of the farthest of those, so a
    path whose edges run against the candidate order takes four closures,
    not one per process.
    """
    full = full_mask(n)
    candidates = full
    c = 1
    while True:
        down, _ = _closure(c, out_masks)
        if down == full:
            return _closure(c, in_masks)[0]
        up, far = _closure(c, in_masks)
        candidates &= up & ~down
        if not candidates:
            return 0
        pick = far & candidates or candidates
        c = pick & -pick
