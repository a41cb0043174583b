"""Reverse-reachable set sampling and greedy node selection.

Each sampler call draws `count` RR sets into one collection with one
pooled level-synchronous reverse BFS on the graph's in-CSR arrays: when
a set ends, its slot takes the next root. A set stops after the first
level that touches a stop set. The marginal sampler stops at the fixed
seeds and empties (but still counts) a set that reached one; with no
fixed seeds it is the plain RR sampler. The weighted sampler stops at
the base seeds and carries a welfare-gain weight.

Draws: a call seeds one ``numpy.random.Generator`` with
``rng.getrandbits(64)`` and draws all its roots with ``integers``. Each
level walks the in-slots of its nodes, in (slot, node) order, by
geometric skips: `SKIPS` rounds of one exponential gap per walk still
inside its in-slots, one uniform per candidate whose probability is
below the skip rate, then one plain coin per slot past a walk's
`SKIPS`-th candidate. Slots take roots in order, the slots that ended
together in slot order. Sets reach the collection in blocks: whenever a
pool's worth of sets has ended, those sets in root order, and the rest
at the end.

A collection is flat: the members of all sets end to end, each set's in
ascending node order, with per-set offsets and weights. Greedy
max-coverage groups member slots by node with one plain sort per call
and works on numpy arrays, adding and subtracting weights in the set order
a per-set loop would use, so its picks and totals are the same floats.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

import numpy as np

from welfaremax.diffusion import Allocation
from welfaremax.graph import Graph, csr, csr_slots, spans
from welfaremax.utility import ItemCatalog

MARK_BYTES = 1 << 22  # most bytes of the pool's (slot, node) mark
CHUNK_SETS = 1024  # most RR sets grown together: the pool's slots
SKIPS = 3  # geometric-skip candidates per in-edge walk before its plain coins
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
        self.n = n
        self.members = array("q")
        self.offsets = array("q", [0])
        self.weights = array("d")
        self.empty = 0

    def _append(self, members, sizes: np.ndarray, weights, empty: int) -> None:
        """Append sets of `sizes` members each, from int64 and float64 buffers."""
        ends = len(self.members) + np.cumsum(sizes)
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
        return np.frombuffer(self.members, np.int64), np.frombuffer(self.offsets, np.int64)

    def coverage_fraction(self, seeds: Iterable[int]) -> float:
        if not len(self):
            return 0.0
        members, offsets = self._arrays()
        chosen = np.zeros(self.n, dtype=bool)
        chosen[np.fromiter(seeds, dtype=np.int64)] = True
        # the set of each member slot that holds a seed; empty sets hold no slot
        hit = np.searchsorted(offsets, np.flatnonzero(chosen[members]), side="right") - 1
        return len(np.unique(hit)) / len(self)


def _live_in_edges(graph: Graph, nodes: np.ndarray, gen) -> tuple[np.ndarray, np.ndarray]:
    """Draw the live in-edges of each of `nodes`; returns the index in
    `nodes` and the source of every live in-edge.

    A node's walk over its in-slots takes geometric skips at its largest
    in-probability q and keeps each candidate it lands on with probability
    p / q. A walk still inside its in-slots after `SKIPS` candidates draws
    one plain coin per later slot instead, which is exact because the
    Bernoulli process has no memory, and which keeps a hub at p = 1 from
    taking one round per in-edge. Draws: `SKIPS` rounds of one exponential
    per walk still inside, in `nodes` order; one uniform per candidate with
    p < q, round after round; then the tail coins, walk after walk."""
    q, reach, scale, below = graph.in_skips
    in_prob = graph.in_prob
    # per walk still inside its node's in-slots: its last candidate's slot,
    # its skip scale, the end of its in-slots and its index in `nodes`
    walks = np.empty((4, len(nodes)))
    start = graph.in_ptr[nodes]
    np.subtract(start, 1, out=walks[0])
    np.take(scale, nodes, out=walks[1])
    np.add(start, reach[nodes], out=walks[2])
    walks[3] = np.arange(len(nodes))
    found = []
    for _ in range(SKIPS):
        gaps = gen.standard_exponential(walks.shape[1])
        gaps *= walks[1]
        np.floor(gaps, out=gaps)
        walks[0] += gaps + 1.0
        walks = walks[:, walks[0] < walks[2]]
        found.append(walks[[0, 3]])
        if not walks.shape[1]:
            break
    slots, entry = np.concatenate(found, axis=1).astype(np.int64)
    thin = below[slots].nonzero()[0]
    if len(thin):
        keep = np.ones(len(slots), dtype=bool)
        keep[thin] = gen.random(len(thin)) * q[nodes[entry[thin]]] < in_prob[slots[thin]]
        entry, slots = entry[keep], slots[keep]
    if walks.shape[1]:
        last, end, tail = walks[[0, 2, 3]].astype(np.int64)
        rest = spans(last + 1, end - last - 1)
        coins = gen.random(len(rest)) < in_prob[rest]
        entry = np.concatenate((entry, np.repeat(tail, end - last - 1)[coins]))
        slots = np.concatenate((slots, rest[coins]))
    return entry, graph.in_src[slots]


def _roots(graph: Graph, count: int, rng) -> tuple[np.ndarray, np.random.Generator]:
    """`count` uniformly random roots, and the generator that drew them,
    seeded with ``rng.getrandbits(64)``, to grow their sets with."""
    if graph.n < 1:
        raise RISError("graph has no nodes")
    gen = np.random.default_rng(rng.getrandbits(64))
    return gen.integers(graph.n, size=count), gen


def _grown(graph: Graph, roots: np.ndarray, stop_nodes: Iterable[int], gen) -> Iterator:
    """One RR set from each of `roots`, grown by one pooled reverse BFS;
    yields blocks of sets, each as its members grouped by set, its set
    sizes and which of its sets stopped at `stop_nodes`.

    A pool of at most `CHUNK_SETS` slots grows one set each, a level at a
    time. A set stops after the first level that holds a stop node (at
    once, with no draw, if its root is one) and ends at its first level
    with no new member. Its slot's mark row is then zeroed and the slot
    takes the next root at the next level, the slots that ended together
    in slot order, so levels stay full until the roots run out. Whenever a
    pool's worth of sets has ended, they are yielded in root order, and
    the rest at the end, so memory stays near a pool's members."""
    n, count = graph.n, len(roots)
    reach = graph.in_skips[1]
    stop = np.zeros(n, dtype=bool)
    stop[list(stop_nodes)] = True
    stops = bool(stop.any())
    row = (n + 7) // 8  # mark bytes per slot: zeroing one slot's row spares the others
    width = 8 * row
    per = max(1, min(count, CHUNK_SETS, MARK_BYTES // row))
    rows = np.zeros((per, row), dtype=np.uint8)
    mark = rows.ravel()
    held = np.arange(per)  # the set each slot grows
    keys = held * width + roots[:per]  # a level: slot * width + node, ascending
    given, yielded = per, 0
    members, stopped = [], np.zeros(count, dtype=bool)  # members: set * n + node
    while len(keys):
        np.bitwise_or.at(mark, keys >> 3, _BITS[keys & 7])
        slots, nodes = np.divmod(keys, width)
        sets = held[slots]
        members.append(sets * n + nodes)
        go = reach[nodes] > 0  # nodes with an in-edge that can be live
        if stops:
            hit = stop[nodes]
            if hit.any():
                stopped[sets[hit]] = True
                go &= ~stopped[sets]
        entry, src = _live_in_edges(graph, nodes[go], gen)
        keys = slots[go][entry] * width + src
        keys = keys[(mark[keys >> 3] >> (keys & 7) & 1) == 0]
        keys.sort()
        fresh = np.ones(len(keys), dtype=bool)  # np.unique hashes: 10x slower
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        if given < count:
            ends = np.zeros(per, dtype=bool)  # the slots whose set has no next level
            ends[slots] = True
            ends[keys // width] = False
            refill = ends.nonzero()[0][: count - given]
            if len(refill):
                rows[refill] = 0
                held[refill] = np.arange(given, given + len(refill))
                fresh_roots = refill * width + roots[given : given + len(refill)]
                keys = np.sort(np.concatenate((keys, fresh_roots)))
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
    new = np.ones(len(sets), dtype=bool)
    np.not_equal(sets[1:], sets[:-1], out=new[1:])
    firsts = new.nonzero()[0]
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
    roots, gen = _roots(graph, count, rng)
    for nodes, sizes, stopped in _grown(graph, roots, fixed_seeds, gen):
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
    best = np.zeros(graph.n)  # per node, the best utility among its base items, or 0
    for node, item in base_allocation.pairs:
        best[node] = max(best[node], item_utils[item])
    coll = RRCollection(graph.n)
    roots, gen = _roots(graph, count, rng)
    for nodes, sizes, _ in _grown(graph, roots, base_allocation.seed_nodes(), gen):
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
    set_of = np.repeat(np.arange(len(collection)), np.diff(offsets))
    weights = np.array(collection.weights) if weighted else np.ones(len(collection))
    slot_weights = weights[set_of]
    # per node, bincount adds its sets' weights in set order, as a loop would
    gain = np.bincount(members, slot_weights, n).astype(np.float64, copy=False)
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
        sids = set_of[by_node[node_ptr[best] : node_ptr[best + 1]]]
        sids = sids[~covered[sids]]
        covered[sids] = True
        for w in weights[sids].tolist():
            total += w
        slots, _ = csr_slots(offsets, sids)  # the newly covered sets' member slots, in set order
        np.subtract.at(gain, members[slots], slot_weights[slots])
        prefix.append(total)
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
