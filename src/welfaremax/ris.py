"""Reverse-reachable set sampling and greedy node selection.

Each sampler call draws `count` RR sets into one collection. One
level-synchronous reverse BFS grows a chunk of sets at once on the
graph's in-CSR arrays; a set stops after the first level that touches a
stop set. The marginal sampler stops at the fixed seeds and empties (but
still counts) a set that reached one; with no fixed seeds it is the plain
RR sampler. The weighted sampler stops at the base seeds and carries a
welfare-gain weight.

Draws: a call seeds one ``numpy.random.Generator`` with
``rng.getrandbits(64)``. Each chunk of at most `CHUNK_SETS` sets draws its
roots with ``integers``, then each level draws one uniform per in-edge of
its frontier, in (set, in-slot) order, member sources included. A
bit-packed (set, node) mark of at most `MARK_BYTES` bytes, reused from
chunk to chunk, keeps each member once per set.

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
from welfaremax.graph import Graph, csr, csr_slots
from welfaremax.utility import ItemCatalog

MARK_BYTES = 1 << 22  # most bytes of one chunk's (set, node) mark
CHUNK_SETS = 1024  # most RR sets grown together


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


def _bfs(graph: Graph, roots: np.ndarray, stop: np.ndarray, gen, mark: np.ndarray):
    """Grow one RR set from each root at once, level by level, over live
    in-edges. A set stops after the first level that holds a node where
    `stop` is true (at once, with no draw, if its root is one). `mark` is
    a zeroed bit per (set, node) and is left zeroed. Returns every member
    as a key ``set * n + node``, sorted, and which sets stopped that way."""
    n, in_ptr, in_src, in_prob = graph.n, graph.in_ptr, graph.in_src, graph.in_prob
    keys = np.arange(len(roots), dtype=np.int64) * n + roots
    levels, stopped = [], np.zeros(len(roots), dtype=bool)
    while len(keys):
        np.bitwise_or.at(mark, keys >> 3, np.left_shift(1, keys & 7).astype(np.uint8))
        levels.append(keys)
        sets, nodes = np.divmod(keys, n)
        touched = stop[nodes]
        if touched.any():
            stopped[sets[touched]] = True
            going = ~stopped[sets]
            sets, nodes = sets[going], nodes[going]
        slots, degrees = csr_slots(in_ptr, nodes)  # the frontier's in-slots, node after node
        live = gen.random(len(slots)) < in_prob[slots]
        keys = np.repeat(sets, degrees)[live] * n + in_src[slots[live]]
        keys = np.sort(keys[(mark[keys >> 3] >> (keys & 7) & 1) == 0])
        keys = keys[np.diff(keys, prepend=-1) != 0]  # np.unique hashes: 10x slower
    keys = np.sort(np.concatenate(levels), kind="stable")  # sorted runs, one per level
    mark[keys >> 3] = 0
    return keys, stopped


def _grown(graph: Graph, count: int, stop_nodes: Iterable[int], rng) -> Iterator:
    """`count` RR sets from uniformly random roots, grown by `_bfs` a chunk
    at a time; yields each chunk's members grouped by set, its set sizes,
    and which of its sets stopped at `stop_nodes`."""
    n = graph.n
    if n < 1:
        raise RISError("graph has no nodes")
    gen = np.random.default_rng(rng.getrandbits(64))
    stop = np.zeros(n, dtype=bool)
    stop[list(stop_nodes)] = True
    per = max(1, min(count, CHUNK_SETS, MARK_BYTES * 8 // n))
    mark = np.zeros((per * n + 7) // 8, dtype=np.uint8)
    for done in range(0, count, per):
        roots = gen.integers(n, size=min(per, count - done))
        keys, stopped = _bfs(graph, roots, stop, gen, mark)
        sets, nodes = np.divmod(keys, n)
        yield nodes, np.bincount(sets, minlength=len(roots)), stopped


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
    for nodes, sizes, stopped in _grown(graph, count, fixed_seeds, rng):
        kept = nodes[np.repeat(~stopped, sizes)]
        sizes[stopped] = 0
        coll._append(kept, sizes, np.ones(len(sizes)), int(stopped.sum()))
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
    for nodes, sizes, _ in _grown(graph, count, base_allocation.seed_nodes(), rng):
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
