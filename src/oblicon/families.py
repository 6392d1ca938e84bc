"""Parameterized adversary families and validators for their construction claims.

Each generator re-checks the structural claims its construction is supposed to
satisfy (root identities, exact indistinguishability edges, delay behavior,
partition properties) and hard-fails on any violation, since these
constructions are the most error-prone content in the package.  Scale
parameters (root-set size, chain length, path length, block count) are
explicit so that tiny instances can be verified exhaustively.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, product
from collections.abc import Iterable, Iterator, Sequence

from .errors import FamilyValidationError
from .graphs import CommunicationGraph, check_process_count
from .indist import (
    Adversary,
    induced_connected,
    induced_edge_labels,
    is_protected,
    single_round_indist,
)
from .patterns import (
    DEFAULT_PATTERN_BUDGET,
    Pattern,
    broadcaster_mask,
    indist_label,
    pattern_at,
    pattern_indist_graph,
)
from .procset import is_subset, mask_of, procs_of


def _encode(sorted_encoders: Sequence[int], i: int) -> tuple[int, ...]:
    """Members of the encoder set picked by the binary expansion of i: bit h
    selects the (h+1)-th smallest member."""
    out = []
    h = 0
    while i:
        if i & 1:
            out.append(sorted_encoders[h])
        i >>= 1
        h += 1
    return tuple(out)


def _clique(members: Sequence[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in members for v in members if u != v]


def _fan(sources, targets) -> list[tuple[int, int]]:
    return [(u, v) for u in sources for v in targets]


# ---------------------------------------------------------------------------
# Chain family: one indistinguishability edge per consecutive graph pair,
# which the refinement can only peel off one per iteration, right to left.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of the chain family.

    ``roots`` lists the designated root sets R_1..R_{N+1} for N graphs; the
    last set labels the rightmost edge but is never a root.  ``encoders`` is
    the bit-encoding pool B, disjoint from every root set.
    """

    n: int
    roots: tuple[frozenset[int], ...]
    encoders: frozenset[int]

    def __post_init__(self) -> None:
        n, roots, enc = self.n, self.roots, self.encoders
        if len(roots) < 2:
            raise FamilyValidationError("need at least 2 root sets (one graph)")
        size = len(roots[0])
        for k, r in enumerate(roots, start=1):
            if not r:
                raise FamilyValidationError(f"root set R_{k} is empty")
            if len(r) != size:
                raise FamilyValidationError("root sets must all have the same size")
            if not all(1 <= p <= n for p in r):
                raise FamilyValidationError(f"root set R_{k} out of range 1..{n}")
        # per earlier root set, where it first comes again; the least pair is named
        first: dict[frozenset[int], int] = {}
        again: dict[int, int] = {}
        for b, r in enumerate(roots):
            if (a := first.setdefault(r, b)) != b:
                again.setdefault(a, b)
        if again:
            a = min(again)
            raise FamilyValidationError(f"root sets R_{a + 1} and R_{again[a] + 1} coincide")
        for k in range(len(roots) - 2):
            window = roots[k : k + 3]
            if window[0] & window[1] or window[0] & window[2] or window[1] & window[2]:
                raise FamilyValidationError(
                    f"root sets R_{k + 1}, R_{k + 2}, R_{k + 3} are not pairwise disjoint"
                )
        if not enc:
            raise FamilyValidationError("encoder set is empty")
        if not all(1 <= p <= n for p in enc):
            raise FamilyValidationError(f"encoder set out of range 1..{n}")
        for k, r in enumerate(roots, start=1):
            if r & enc:
                raise FamilyValidationError(f"encoder set intersects root set R_{k}")
        need = (self.num_graphs + 2).bit_length()  # ceil(log2(N+3))
        if len(enc) < need:
            raise FamilyValidationError(
                f"encoder set needs at least {need} members for {self.num_graphs} graphs"
            )

    @property
    def num_graphs(self) -> int:
        return len(self.roots) - 1


def simple_chain_spec(num_graphs: int, n: int | None = None) -> ChainSpec:
    """Singleton-root chain spec at the smallest process count (or a given n)."""
    bits = (num_graphs + 2).bit_length()
    least = num_graphs + 1 + bits
    if n is None:
        n = least
    if n < least:
        raise FamilyValidationError(f"chain with {num_graphs} graphs needs n >= {least}")
    check_process_count(n)
    roots = tuple(frozenset({k}) for k in range(1, num_graphs + 2))
    encoders = frozenset(range(num_graphs + 2, num_graphs + 2 + bits))
    return ChainSpec(n, roots, encoders)


def _build_chain(spec: ChainSpec, path: Sequence[int] = ()) -> Adversary:
    """The chain adversary G_1..G_N, unchecked; with a relay path, R_i reaches
    the encoders only through it: R_i -> path[0] -> ... -> path[-1] -> B."""
    n = spec.n
    enc_sorted = sorted(spec.encoders)
    num = spec.num_graphs
    others = set(range(1, n + 1)) - spec.encoders - set(path)
    if path:
        heads = [path[0]]
        relay = list(zip(path, path[1:])) + _fan([path[-1]], enc_sorted)
    else:
        heads, relay = enc_sorted, []
    graphs = []
    for i in range(1, num + 1):
        r_i = spec.roots[i - 1]
        r_next = spec.roots[i]
        r_after = spec.roots[i + 1] if i < num else frozenset()
        leftover = others - r_i - r_next - r_after
        edges = _clique(sorted(r_i))
        edges += _fan(sorted(r_i), heads + sorted(leftover))
        edges += relay
        edges += _fan(_encode(enc_sorted, i), sorted(r_next))
        if i < num:
            edges += _fan(_encode(enc_sorted, i + 1), sorted(r_after))
        graphs.append(CommunicationGraph(n, edges, name=f"G{i}"))
    return Adversary(graphs)


def _check_roots(
    roots: Sequence[frozenset[int]], graphs: Sequence[CommunicationGraph]
) -> None:
    """Root(G) = R_k for the k-th of the graphs, which are named in the error."""
    for g, root in zip(graphs, roots):
        if g.root != root:
            raise FamilyValidationError(f"Root({g.name}) = {g.root}, expected {set(root)}")


def gen_chain(spec: ChainSpec) -> Adversary:
    """Build the chain adversary and verify its two structural claims:
    Root(G_i) = R_i, and the indistinguishability graph is exactly the chain
    with edge (G_i, G_{i+1}) labeled R_{i+2}."""
    adv = _build_chain(spec)
    _validate_chain(spec, adv)
    return adv


def _validate_chain(spec: ChainSpec, adv: Adversary) -> None:
    _check_roots(spec.roots, adv.graphs)
    ig = single_round_indist(adv)
    expected = {
        (i - 1, i): mask_of(spec.roots[i + 1]) for i in range(1, spec.num_graphs)
    }
    actual = {(u, v): lab for u, v, lab in ig.edges()}
    if actual != expected:
        raise FamilyValidationError(
            f"indistinguishability graph is not the expected chain: got {actual}, "
            f"expected {expected}"
        )


def _equal_partitions(elems: Sequence[int], m: int) -> Iterator[tuple[frozenset[int], ...]]:
    """Unordered partitions of elems into three m-sets, canonically ordered:
    the first cell holds the globally smallest element, the second the
    smallest remaining one."""
    elems = sorted(elems)
    first = elems[0]
    for rest1 in combinations(elems[1:], m - 1):
        cell1 = frozenset((first,) + rest1)
        remaining = [e for e in elems if e not in cell1]
        head = remaining[0]
        for rest2 in combinations(remaining[1:], m - 1):
            cell2 = frozenset((head,) + rest2)
            cell3 = frozenset(e for e in remaining if e not in cell2)
            yield cell1, cell2, cell3


def gen_canonical_chain(n: int, max_len: int) -> ChainSpec:
    """Chain spec from the alternating-partition schedule over two quarter
    ranges of the processes, with |R_i| = n/12 and B the upper half.

    Root sets come from successive partitions of [1, n/4] and [n/4+1, n/2]
    into three equal cells, alternating between the two ranges; partitions
    that would repeat an already-used cell are skipped so all root sets stay
    distinct.  The chain holds exactly ``max_len`` graphs, or the schedule
    raises when it runs out of partitions first.
    """
    if n < 12:
        raise FamilyValidationError(f"canonical chain needs n >= 12, got {n}")
    if n % 12 != 0:
        raise FamilyValidationError(f"n must be divisible by 12, got {n}")
    if max_len < 1:
        raise FamilyValidationError("max_len must be at least 1")
    m = n // 12
    low = list(range(1, 3 * m + 1))
    high = list(range(3 * m + 1, 6 * m + 1))
    streams = [_equal_partitions(low, m), _equal_partitions(high, m)]
    needed = max_len + 1
    roots: list[frozenset[int]] = []
    used: set[frozenset[int]] = set()
    while len(roots) < needed:
        parity = (len(roots) // 3) % 2
        stream = streams[parity]
        for cells in stream:
            if not any(c in used for c in cells):
                used.update(cells)
                roots.extend(cells)
                break
        else:
            raise FamilyValidationError(
                f"partition schedule exhausted at {len(roots)} root sets; "
                f"cannot reach a chain of length {max_len} for n={n}"
            )
    encoders = frozenset(range(6 * m + 1, n + 1))
    return ChainSpec(n, tuple(roots[:needed]), encoders)


# ---------------------------------------------------------------------------
# Inflated chain: direct root-to-encoder edges replaced by a relay path, which
# delays distinguishability by the path length each round.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InflateSpec:
    """Chain family with the root-to-encoder edges routed through a relay path."""

    base: ChainSpec
    path: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.path
        if not p:
            raise FamilyValidationError("relay path must have at least one node")
        if len(set(p)) != len(p):
            raise FamilyValidationError("relay path nodes must be distinct")
        if not all(1 <= v <= self.base.n for v in p):
            raise FamilyValidationError(f"relay path out of range 1..{self.base.n}")
        if set(p) & self.base.encoders:
            raise FamilyValidationError("relay path intersects the encoder set")
        for k, r in enumerate(self.base.roots, start=1):
            if set(p) & r:
                raise FamilyValidationError(f"relay path intersects root set R_{k}")


def inflated_spec(num_graphs: int, path_len: int, n: int | None = None) -> InflateSpec:
    """Singleton-root chain widened by a relay path of ``path_len`` processes
    numbered after the chain's own, at the smallest process count (or a
    given total n)."""
    base = simple_chain_spec(num_graphs, None if n is None else n - path_len)
    total = base.n + path_len
    check_process_count(total)
    path = tuple(range(base.n + 1, total + 1))
    return InflateSpec(ChainSpec(total, base.roots, base.encoders), path)


def gen_inflated(spec: InflateSpec) -> Adversary:
    """Build the inflated chain and verify the delay property: G_i and G_{i+1}
    repeated r times stay indistinguishable for all of R_{i+2} while
    r <= path length.  Also checks that every indistinguishability edge that
    is new relative to the base chain has its label inside B union P."""
    adv = _build_chain(spec.base, spec.path)
    _validate_inflated(spec, adv)
    return adv


def _validate_inflated(spec: InflateSpec, adv: Adversary) -> None:
    base = spec.base
    _check_roots(base.roots, adv.graphs)
    relay_mask = mask_of(base.encoders) | mask_of(spec.path)
    ig = single_round_indist(adv)
    base_edges = {(i - 1, i) for i in range(1, base.num_graphs)}
    for u, v, lab in ig.edges():
        if (u, v) in base_edges:
            expected = mask_of(base.roots[v + 1])
            if lab & expected != expected:
                raise FamilyValidationError(
                    f"chain edge (G{u + 1},G{v + 1}) lost its root label"
                )
        elif not is_subset(lab, relay_mask):
            raise FamilyValidationError(
                f"new edge (G{u + 1},G{v + 1}) has label outside the relay/encoder sets"
            )
    for i in range(1, base.num_graphs):
        target = mask_of(base.roots[i + 1])
        for r in range(1, len(spec.path) + 1):
            lab = indist_label(Pattern.repeat(adv, i - 1, r), Pattern.repeat(adv, i, r))
            if lab & target != target:
                raise FamilyValidationError(
                    f"delay violated: G{i}^{r} vs G{i + 1}^{r} distinguishable "
                    f"inside R_{i + 2} with path length {len(spec.path)}"
                )


def inflate_pattern(
    sigma: Pattern, spec: InflateSpec, inflated: Adversary, k: int
) -> Pattern:
    """Replace every round graph of a base-chain pattern by k rounds of its
    inflated counterpart; k must equal the relay path length."""
    if k != len(spec.path):
        raise ValueError(
            f"repetition factor {k} must equal the relay path length {len(spec.path)}"
        )
    if len(sigma.adversary) != len(inflated):
        raise ValueError("pattern's adversary does not match the inflated family size")
    rounds: list[int] = []
    for gi in sigma.rounds:
        rounds.extend([gi] * k)
    return Pattern(inflated, tuple(rounds))


def check_inflation_preserved(
    base_adv: Adversary,
    spec: InflateSpec,
    inflated: Adversary,
    length: int,
    budget: int = DEFAULT_PATTERN_BUDGET,
) -> int:
    """For every edge among base patterns of the given length, assert the
    inflated pair is still an edge with at least the same label.  Returns the
    number of edges checked."""
    k = len(spec.path)
    big = pattern_indist_graph(base_adv, length, budget)
    checked = 0
    for u, v, lab in big.edges():
        s1 = pattern_at(base_adv, length, u)
        s2 = pattern_at(base_adv, length, v)
        t1 = inflate_pattern(s1, spec, inflated, k)
        t2 = inflate_pattern(s2, spec, inflated, k)
        tlab = indist_label(t1, t2)
        if not is_subset(lab, tlab):
            raise FamilyValidationError(
                f"inflation lost label bits on edge {s1.name} -- {s2.name}: "
                f"{procs_of(lab)} vs {procs_of(tlab)}"
            )
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# Partitioned family: blocks S_1..S_t where each block's connecting edges are
# protected by the next block, keeping refinement short while consensus needs
# on the order of t rounds.
# ---------------------------------------------------------------------------


def _interconnect_extras(m: int) -> list[tuple[int, int]]:
    """Possible extra in-edges of the m-cycle as position pairs (u, v), u not
    being v's cycle predecessor."""
    if m < 2:
        return []
    return sorted(
        (u, v)
        for v in range(m)
        for u in range(m)
        if u != v and u != (v - 1) % m
    )


def interconnect_variant_count(m: int) -> int:
    return 1 << len(_interconnect_extras(m))


@dataclass(frozen=True)
class PartitionedFamily:
    """A partitioned adversary plus its block structure."""

    adversary: Adversary
    blocks: tuple[tuple[int, ...], ...]


def gen_partitioned(t: int, m: int, n: int | None = None) -> PartitionedFamily:
    """Build the blocks S_1..S_t of the partitioned family with root size m,
    at the smallest process count (or a given n), and verify the partition
    properties.

    The layout: R_1 = [4m+1, 5m]; R_2, U'_1..U'_t are the first t+1
    m-subsets of [1, 2m] and R_3, U_1..U_t those of [2m+1, 4m], in
    ``combinations`` order; the encoders are B = [5m+1, n].  Block S_i holds
    G_{i,1}..G_{i,2i+1}, whose roots are R_1..R_{2i+1}, and promotes U'_i and
    U_i to R_{2i+2} and R_{2i+3}.  Each block is checked as it is built:
    Root(G_{i,j}) = R_j, S_i is connected in the indistinguishability graph,
    and S_i protects every induced edge of S_1..S_{i-1}.  Last, the witness
    patterns (G_{i,2})_i and (G_{i,3})_i must share no broadcaster.
    """
    least = 5 * m + max(1, t.bit_length())
    if n is None:
        n = least
    if n < least:
        raise FamilyValidationError(f"partitioned family with t={t}, m={m} needs n >= {least}")
    check_process_count(n)
    if t < 1 or m < 1:
        raise FamilyValidationError("need t >= 1 blocks and root size m >= 1")
    if math.comb(2 * m, m) <= t:
        raise FamilyValidationError(
            f"not enough distinct {m}-subsets in a 2m-range for t={t} blocks"
        )
    if interconnect_variant_count(m) < t:
        raise FamilyValidationError(
            f"only {interconnect_variant_count(m)} distinct root interconnects "
            f"exist for m={m}, need t={t}"
        )
    enc_sorted = list(range(5 * m + 1, n + 1))
    extras = _interconnect_extras(m)
    low = map(frozenset, combinations(range(1, 2 * m + 1), m))
    mid = map(frozenset, combinations(range(2 * m + 1, 4 * m + 1), m))
    roots = [frozenset(range(4 * m + 1, 5 * m + 1))]
    alt, carrier = next(low), next(mid)
    graphs: list[CommunicationGraph] = []
    blocks: list[tuple[int, ...]] = []
    for i in range(1, t + 1):
        roots += [alt, carrier]
        alt, carrier = next(low), next(mid)
        chosen = [extras[h] for h in range(len(extras)) if (i - 1) >> h & 1]
        start = len(graphs)
        for j, root in enumerate(roots, start=1):
            r_j = sorted(root)
            carried = carrier | alt if j == 1 else carrier if j % 2 == 0 else alt
            leftover = set(range(1, 5 * m + 1)) - root - carried
            edges = [(r_j[k], r_j[(k + 1) % m]) for k in range(m)]
            edges += [(r_j[a], r_j[b]) for a, b in chosen]
            edges += _fan(r_j, enc_sorted + sorted(leftover))
            edges += _fan(_encode(enc_sorted, i), sorted(carried | leftover))
            graphs.append(CommunicationGraph(n, edges, name=f"G{i}_{j}"))
        blocks.append(tuple(range(start, len(graphs))))
        _check_roots(roots, graphs[start:])
        adv = Adversary(graphs)
        ig = single_round_indist(adv)
        if not induced_connected(ig, blocks[-1]):
            raise FamilyValidationError(f"block S_{i} is not connected in the indist graph")
        ok, witnesses = is_protected(induced_edge_labels(ig, range(start)), graphs[start:])
        if not ok:
            bad = sorted(k for k, w in witnesses.items() if w is None)
            raise FamilyValidationError(
                f"edges {bad} of blocks S_1..S_{i - 1} are not protected by S_{i}"
            )
    witness_a = Pattern(adv, tuple(block[1] for block in blocks))
    witness_b = Pattern(adv, tuple(block[2] for block in blocks))
    if broadcaster_mask(witness_a) & broadcaster_mask(witness_b):
        raise FamilyValidationError(
            "witness patterns share a broadcaster; the block product would be broadcastable"
        )
    return PartitionedFamily(adversary=adv, blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# Catalog families
# ---------------------------------------------------------------------------

# The most graphs a catalog family builds.  At 48,620 graphs,
# source_broadcast(18, 9) takes 2.4 s (Python 3.11, one core); counts such as
# C(40, 20) = 1.4e11 would run for days.
MAX_FAMILY_GRAPHS = 1 << 16


def _check_graph_count(family: str, counts: Iterable[int]) -> None:
    """Refuse a family whose graph count, the sum of ``counts``, is over the
    cap.  The sum stops once it passes the cap, so the count named is a
    lower bound: summing every term of a large lossy-link f would itself
    take minutes."""
    total = 0
    for count in counts:
        total += count
        if total > MAX_FAMILY_GRAPHS:
            raise FamilyValidationError(
                f"{family} would build at least {total} graphs; "
                f"at most {MAX_FAMILY_GRAPHS} are built"
            )


def rooted_trees(n: int) -> Adversary:
    """All labeled rooted trees on n <= 4 processes, edges oriented away from the root."""
    if n < 2:
        raise FamilyValidationError(f"rooted trees need n >= 2, got {n}")
    if n > 4:
        raise FamilyValidationError(f"rooted trees supported up to n=4, got {n}")
    graphs = []
    for tree_idx, tree_edges in enumerate(_labeled_trees(n), start=1):
        adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        for a, b in tree_edges:
            adj[a].add(b)
            adj[b].add(a)
        for root in range(1, n + 1):
            edges = []
            seen = {root}
            queue = [root]
            for u in queue:  # also visits the nodes appended below
                for w in sorted(adj[u]):
                    if w not in seen:
                        seen.add(w)
                        edges.append((u, w))
                        queue.append(w)
            graphs.append(CommunicationGraph(n, edges, name=f"T{tree_idx}r{root}"))
    return Adversary(graphs)


def _labeled_trees(n: int) -> Iterator[list[tuple[int, int]]]:
    """All labeled trees on 1..n via Pruefer sequence decoding."""
    if n == 2:
        yield [(1, 2)]
        return
    for seq in product(range(1, n + 1), repeat=n - 2):
        degree = [1] * (n + 1)
        for v in seq:
            degree[v] += 1
        edges = []
        leaves = [v for v in range(1, n + 1) if degree[v] == 1]  # ascending: a heap
        for v in seq:
            edges.append((heappop(leaves), v))
            degree[v] -= 1
            if degree[v] == 1:
                heappush(leaves, v)
        edges.append((heappop(leaves), leaves[0]))
        yield edges


def source_broadcast(n: int, clique_size: int = 1) -> Adversary:
    """Every graph is one clique of the given size with edges to all others."""
    if not (1 <= clique_size < n):
        raise FamilyValidationError(f"clique size must be in 1..{n - 1}")
    _check_graph_count(f"source-broadcast on n={n}", [math.comb(n, clique_size)])
    graphs = []
    for members in combinations(range(1, n + 1), clique_size):
        rest = [v for v in range(1, n + 1) if v not in members]
        edges = _clique(members) + _fan(members, rest)
        graphs.append(
            CommunicationGraph(n, edges, name="S" + "".join(str(v) for v in members))
        )
    return Adversary(graphs)


def lossy_link(n: int, f: int = 1) -> Adversary:
    """All graphs obtained from the complete graph by deleting at most f
    non-loop edges per round (the classic link-failure model)."""
    pairs = max(n, 1) * (max(n, 1) - 1)  # counted without listing them
    if not (0 <= f <= pairs):
        raise FamilyValidationError(f"f must be in 0..{pairs}")
    _check_graph_count(f"lossy-link on n={n}, f={f}", (math.comb(pairs, k) for k in range(f + 1)))
    all_edges = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    graphs = []
    idx = 1
    for k in range(f + 1):
        for missing in combinations(all_edges, k):
            gone = set(missing)
            edges = [e for e in all_edges if e not in gone]
            graphs.append(CommunicationGraph(n, edges, name=f"G{idx}"))
            idx += 1
    return Adversary(graphs)


# rooted graphs on n processes, counted by enumerating all 2**(n(n-1)) graphs
_ROOTED_GRAPHS = {2: 3, 3: 51, 4: 3614}


def random_rooted(n: int, count: int, seed: int) -> Adversary:
    """Seeded sample of distinct rooted graphs (each non-loop edge kept with
    probability 1/2, retried until rooted).  A count above the graphs that
    exist, or above the rooted ones where their total is known, is refused
    before sampling."""
    most = 1 << n * (n - 1)  # one graph per subset of the non-loop edges
    if count > most:
        raise FamilyValidationError(
            f"cannot sample {count} distinct graphs on n={n}: at most {most} exist"
        )
    rooted = _ROOTED_GRAPHS.get(n, most)
    if count > rooted:
        raise FamilyValidationError(
            f"cannot sample {count} distinct rooted graphs on n={n}: only {rooted} exist"
        )
    _check_graph_count(f"random-rooted on n={n}", [count])
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    seen: set[tuple] = set()
    graphs: list[CommunicationGraph] = []
    attempts = 0
    while len(graphs) < count:
        attempts += 1
        if attempts > 10_000 * count:
            raise FamilyValidationError(
                f"could not sample {count} distinct rooted graphs on n={n}"
            )
        edges = [e for e in pairs if rng.random() < 0.5]
        g = CommunicationGraph(n, edges, name=f"G{len(graphs) + 1}")
        if not g.is_rooted or g._in in seen:
            continue
        seen.add(g._in)
        graphs.append(g)
    return Adversary(graphs)
