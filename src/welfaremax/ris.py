"""Reverse-reachable set sampling and greedy node selection.

Each sampler call draws `count` RR sets into one collection with one
pooled level-synchronous reverse BFS on the graph's in-CSR arrays: when
a set ends, its slot takes the next root. A set stops after the first
level that touches a stop set. The marginal sampler stops at the fixed
seeds and empties (but still counts) a set that reached one; with no
fixed seeds it is the plain RR sampler. The weighted sampler stops at
the base seeds and carries a welfare-gain weight.

Draws: a call takes one key with ``rng.getrandbits(64)``. Set s takes
key ``_coin_bits(call key, s, 0)`` and its root from it, and draws every
value as ``_coin_bits(set key, i)``, the hash of `diffusion`'s edge coins,
at an index i of its own per (node, draw) (`_live_in_edges`). So a call's
sets and stop flags are a function of (key, count, graph, stop set): the
pool's width and schedule move no draw, only the order in which sets reach
the collection, in blocks: whenever a pool's worth of sets has ended,
those sets in root order, and the rest at the end.

A collection is flat: the members of all sets end to end as 4-byte node
ids (so n < 2**31), each set's in ascending node order, with per-set
offsets and weights. Greedy max-coverage groups member slots by node with
one plain sort per call and finds a pick's sets by searching the offsets,
so it copies no set id per member; the counting greedy copies no weight
per member either. It adds and subtracts weights in the set order a
per-set loop would use, so its picks and totals are the same floats.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

import numpy as np

from welfaremax.diffusion import _GAMMA, Allocation, _coin_bits, _mixed
from welfaremax.graph import Graph, csr, differs, spans
from welfaremax.utility import ItemCatalog

MARK_BYTES = 1 << 23  # most bytes of the pool's (slot, node) mark
CHUNK_SETS = 4096  # most RR sets grown together: the pool's slots
SKIPS = 3  # geometric-skip candidates per in-edge walk before its plain coins
GREEDY_SLOTS = 1 << 14  # about the most member slots a greedy pick expands at once
_BITS = np.left_shift(1, np.arange(8)).astype(np.uint8)


class RISError(ValueError):
    pass


class RRCollection:
    """An ordered collection of RR sets, stored flat.

    Set ``i`` holds ``members[offsets[i]:offsets[i + 1]]`` and weighs
    ``weights[i]``; an empty set holds no members, and ``empty`` counts
    the sets a fixed seed emptied. len() counts every set, including
    empties; that convention is what makes n * coverage an unbiased
    marginal-spread estimator.
    """

    def __init__(self, n: int):
        if n >= 1 << 31:
            raise RISError(f"RR sets hold 4-byte node ids; {n} nodes need n < 2**31")
        self.n = n
        self.members = array("i")
        self.offsets = array("q", [0])
        self.weights = array("d")
        self.empty = 0

    def _append(self, members, sizes: np.ndarray, weights, empty: int) -> None:
        """Append sets of `sizes` members each, from integer and float64 buffers."""
        ends = len(self.members) + np.cumsum(sizes)
        members = np.asarray(members, dtype=np.int32)  # no copy from another collection
        for dest, src in ((self.offsets, ends), (self.members, members), (self.weights, weights)):
            dest.frombytes(memoryview(src).cast("B"))
        self.empty += empty

    def extend(self, other: "RRCollection") -> None:
        """Append the sets of `other` after this collection's own."""
        self._append(other.members, np.diff(other._arrays()[1]), other.weights, other.empty)

    def __len__(self) -> int:
        return len(self.weights)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Members and offsets, viewed without a copy; a view must not
        outlive a growth of the collection."""
        return np.frombuffer(self.members, np.int32), np.frombuffer(self.offsets, np.int64)

    def coverage_fraction(self, seeds: Iterable[int]) -> float:
        if not len(self):
            return 0.0
        members, offsets = self._arrays()
        chosen = np.zeros(self.n, dtype=bool)
        chosen[np.fromiter(seeds, dtype=np.int64)] = True
        # the set of each member slot that holds a seed; empty sets hold no slot
        hit = np.searchsorted(offsets, np.flatnonzero(chosen[members]), side="right") - 1
        return len(np.unique(hit)) / len(self)


def _live_in_edges(graph: Graph, nodes: np.ndarray, keys: np.ndarray, gap0: np.ndarray):
    """Draw the live in-edges of each of `nodes` in the set keyed by the
    same entry of `keys`: the index in `nodes` and the source of each.

    A node's walk over its in-slots takes geometric skips at its largest
    in-probability q and keeps each candidate it lands on with probability
    p / q. After `SKIPS` candidates a walk still inside draws one plain coin
    per later slot, which is exact because the Bernoulli process has no
    memory, and keeps a hub at p = 1 from taking one round per in-edge.
    Node v's gap r is value m + SKIPS v + r of the set's stream (``gap0[v]``
    is its hash state less the key), its r-th candidate's acceptance value
    m + SKIPS (n + v) + r, and in-slot j's tail coin value j; a node joins a
    set once, so no value is drawn twice."""
    q, reach, scale, below = graph.in_skips
    in_prob, m = graph.in_prob, graph.m
    walks = np.empty((4, len(nodes)))  # per walk inside: last candidate's slot, scale, end, index
    start = graph.in_ptr[nodes]
    np.subtract(start, 1, out=walks[0])
    np.take(scale, nodes, out=walks[1])
    np.add(start, reach[nodes], out=walks[2])
    walks[3] = np.arange(len(nodes))
    state = gap0[nodes] + keys  # per walk, the hash state of its gap 0
    steps = np.arange(SKIPS, dtype=np.uint64) * _GAMMA
    found = []
    for r in range(SKIPS):
        gaps = np.log1p(_mixed(state + steps[r]) * -(2.0**-53))  # minus an exponential
        gaps *= walks[1]
        np.ceil(gaps, out=gaps)  # minus the gap
        walks[0] += 1.0 - gaps
        inside = (walks[0] < walks[2]).nonzero()[0]  # an index: a bool mask is 3x slower
        walks, state = walks.take(inside, axis=1), state[inside]
        found.append(walks[::3].copy())  # the slots and indices, rows 0 and 3
        if not walks.shape[1]:
            break
    slots, entry = np.concatenate(found, axis=1).astype(np.int64)
    thin = below[slots].nonzero()[0]
    if len(thin):
        at = entry[thin]
        rounds = np.repeat(np.arange(len(found)), [f.shape[1] for f in found])[thin]
        bits = _coin_bits(keys[at], ((nodes[at] + graph.n) * SKIPS + m + rounds).view(np.uint64))
        keep = np.ones(len(slots), dtype=bool)
        keep[thin] = bits * q[nodes[at]] < in_prob[slots[thin]] * 2.0**53
        entry, slots = entry[keep], slots[keep]
    if walks.shape[1]:
        last, _, end, tail = walks.astype(np.int64)
        rest, row = spans(last + 1, end)
        tail = tail[row]
        coins = (_coin_bits(keys[tail], rest.astype(np.uint64)) < in_prob[rest] * 2.0**53).nonzero()[0]
        entry = np.concatenate((entry, tail[coins]))
        slots = np.concatenate((slots, rest[coins]))
    return entry, graph.in_src[slots]


def _roots(graph: Graph, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The roots and keys of a call's `count` sets: set s's key is output s
    of the SplitMix64 stream seeded at ``rng.getrandbits(64)``, and its root
    that key mod n, so a root's chance is off by at most n / 2**64 of 1 / n."""
    if graph.n < 1:
        raise RISError("graph has no nodes")
    keys = _coin_bits(np.uint64(rng.getrandbits(64)), np.arange(count, dtype=np.uint64), 0)
    return (keys % np.uint64(graph.n)).astype(np.int64), keys


def _grown(graph: Graph, roots: np.ndarray, keys: np.ndarray, stop_nodes: Iterable[int]) -> Iterator:
    """One RR set from each of `roots`, drawn from the same entry of `keys`
    and grown by one pooled reverse BFS; yields blocks of sets, each as its
    members grouped by set, its set sizes and which of its sets stopped at
    `stop_nodes`.

    A pool of at most `CHUNK_SETS` slots grows one set each, a level at a
    time. A set stops after the first level that holds a stop node (at
    once, with no draw, if its root is one) and ends at its first level
    with no new member; its slot's mark row is then zeroed and the slot
    takes the next root. Whenever a pool's worth of sets has ended, they
    are yielded in root order, and the rest at the end, so memory stays
    near a pool's members."""
    n, count = graph.n, len(roots)
    reach = graph.in_skips[1]
    gap0 = (np.arange(n, dtype=np.uint64) * np.uint64(SKIPS) + np.uint64(graph.m + 1)) * _GAMMA
    stop = np.zeros(n, dtype=bool)
    stop[list(stop_nodes)] = True
    stops = bool(stop.any())
    row = (n + 7) // 8  # mark bytes per slot: zeroing one slot's row spares the others
    width = 8 * row
    per = max(1, min(count, CHUNK_SETS, MARK_BYTES // row))
    rows = np.zeros((per, row), dtype=np.uint8)
    mark = rows.ravel()
    held = np.arange(per)  # the set each slot grows
    level = held * width + roots[:per]  # slot * width + node
    given, yielded = per, 0
    members, stopped = [], np.zeros(count, dtype=bool)  # members: set * n + node
    while len(level):
        np.bitwise_or.at(mark, level >> 3, _BITS[level & 7])
        slots, nodes = np.divmod(level, width)
        sets = held[slots]
        members.append(sets * n + nodes)
        go = reach[nodes] > 0  # nodes with an in-edge that can be live
        if stops:
            hit = stop[nodes]
            if hit.any():
                stopped[sets[hit]] = True
                go &= ~stopped[sets]
        go = go.nonzero()[0]
        entry, src = _live_in_edges(graph, nodes[go], keys[sets[go]], gap0)
        level = slots[go[entry]] * width + src
        level = level[((mark[level >> 3] >> (level & 7) & 1) == 0).nonzero()[0]]
        level.sort()  # np.unique hashes: 10x slower
        level = level[differs(level).nonzero()[0]]
        if given < count:
            ends = np.zeros(per, dtype=bool)  # the slots whose set has no next level
            ends[slots] = True
            ends[level // width] = False
            refill = ends.nonzero()[0][: count - given]
            if len(refill):
                rows[refill] = 0
                held[refill] = np.arange(given, given + len(refill))
                level = np.concatenate((level, refill * width + roots[given : given + len(refill)]))
                given += len(refill)
            if given - per - yielded >= per:  # a pool's worth of sets ended since the last block
                block = _ended(members, held, given, n, stopped)
                yielded += len(block[1])
                yield block
    yield _ended(members, held[:0], count, n, stopped)


def _ended(members: list, held: np.ndarray, given: int, n: int, stopped: np.ndarray):
    """The sets in `members`, a list of member keys ``set * n + node`` of
    sets before `given`, that `held` does not name: they have ended. Leaves
    the other sets' keys in `members` and returns the ended sets in root
    order, as their members, sizes and stop flags."""
    keys = np.concatenate([np.empty(0, dtype=np.int64), *members])  # a call may draw no set
    members.clear()
    if len(held):
        sets = keys // n
        lo = int(sets.min(initial=given))
        growing = np.zeros(given - lo, dtype=bool)
        growing[held - lo] = True
        going = growing[sets - lo]
        members.append(keys[going])
        keys = keys[~going]
    keys.sort()
    sets = keys // n
    firsts = differs(sets).nonzero()[0]
    flags = stopped[sets[firsts]]
    sets *= n
    keys -= sets  # in place: a block can hold most of a call's members
    return keys, np.diff(firsts, append=len(keys)), flags


def sample_rr(graph: Graph, count: int, rng) -> RRCollection:
    """`count` reverse-reachable sets from uniformly random roots."""
    return sample_marginal_rr(graph, frozenset(), count, rng)


def sample_marginal_rr(graph: Graph, fixed_seeds: frozenset[int], count: int, rng) -> RRCollection:
    """`count` reverse-reachable sets from uniformly random roots, each
    emptied if it touches `fixed_seeds`.

    Empty sets stay in the collection count, so coverage remains an
    unbiased estimator of the spread gained on top of the fixed seeds.
    """
    coll = RRCollection(graph.n)
    for nodes, sizes, stopped in _grown(graph, *_roots(graph, count, rng), fixed_seeds):
        if stopped.any():
            nodes = nodes[np.repeat(~stopped, sizes)]
            sizes[stopped] = 0
        coll._append(nodes, sizes, np.ones(len(sizes)), int(stopped.sum()))
    return coll


def sample_weighted_rr(
    graph: Graph,
    base_allocation: Allocation,
    superior: str,
    catalog: ItemCatalog,
    count: int,
    rng,
    item_utils: dict[str, float],
) -> RRCollection:
    """`count` weighted RR sets for converting nodes to the superior item.

    The reverse BFS stops after the first level touching a fixed seed, so
    every member sits no farther from the root than the fixed seeds do.
    The weight is the superior item's expected truncated utility, read from
    `item_utils`, minus the best such utility among items held by reached
    fixed seeds (zero items reached: nothing subtracted).
    """
    if superior not in catalog.index:
        raise RISError(f"unknown superior item {superior!r}")
    coll = RRCollection(graph.n)
    best = np.zeros(graph.n)  # per node, the best utility among its base items, or 0
    for node, item in base_allocation.pairs:
        best[node] = max(best[node], item_utils[item])
    for nodes, sizes, _ in _grown(graph, *_roots(graph, count, rng), base_allocation.seed_nodes()):
        reached = np.maximum.reduceat(best[nodes], np.cumsum(sizes) - sizes)  # no set is empty
        coll._append(nodes, sizes, item_utils[superior] - np.maximum(reached, 0.0), 0)
    return coll


def _greedy_selection(
    collection: RRCollection,
    k: int,
    weighted: bool,
    excluded: Iterable[int] = (),
) -> tuple[list[int], list[float]]:
    n = collection.n
    if k > n:
        raise RISError(f"cannot select {k} seeds from {n} nodes")
    members, offsets = collection._arrays()
    if weighted:
        weights = np.frombuffer(collection.weights)
        # per node, bincount adds its sets' weights in set order, as a loop would
        gain = np.bincount(members, np.repeat(weights, np.diff(offsets)), n)
    else:
        gain = np.bincount(members, minlength=n).astype(np.float64)
    gain[[v for v in excluded if 0 <= v < n]] = -np.inf
    node_ptr, by_node = csr(n, members)  # a node's slots in set order
    covered = np.zeros(len(collection), dtype=bool)
    picks: list[int] = []
    prefix: list[float] = []
    total = 0.0
    for _ in range(k):
        best = int(np.argmax(gain))  # ties go to the smallest id
        if not gain[best] > -1.0:  # excluded and chosen nodes hold -inf
            raise RISError("not enough selectable nodes")
        picks.append(best)
        gain[best] = -np.inf
        # the sets of its slots; empty sets hold no slot
        slots = by_node[node_ptr[best] : node_ptr[best + 1]]
        sids = np.searchsorted(offsets, slots, side="right") - 1
        sids = sids[~covered[sids]]
        covered[sids] = True
        if weighted:
            for w in weights[sids].tolist():
                total += w
        else:
            total += len(sids)
        prefix.append(total)
        # the newly covered sets' member slots, in set order, about GREEDY_SLOTS at a time
        ends = np.cumsum(offsets[sids + 1] - offsets[sids])
        cuts = np.searchsorted(ends, range(GREEDY_SLOTS, ends[-1:].sum(), GREEDY_SLOTS))
        for part in np.split(sids, cuts):
            slots, index = spans(offsets[part], offsets[part + 1])
            np.subtract.at(gain, members[slots], weights[part][index] if weighted else 1.0)
    return picks, prefix


def node_selection_count(
    collection: RRCollection, k: int, excluded: Iterable[int] = ()
) -> tuple[list[int], list[float]]:
    """Greedy max-coverage; returns picks and the coverage fraction after
    each prefix (empties count in the denominator). Ties break to the
    smallest node id."""
    picks, prefix = _greedy_selection(collection, k, weighted=False, excluded=excluded)
    theta = len(collection)
    fractions = [t / theta if theta else 0.0 for t in prefix]
    return picks, fractions


def node_selection_weighted(
    collection: RRCollection, budget: int, excluded: Iterable[int] = ()
) -> tuple[list[int], list[float]]:
    """Greedy on summed weights of covered sets; returns picks and the
    covered-weight total after each prefix."""
    return _greedy_selection(collection, budget, weighted=True, excluded=excluded)
