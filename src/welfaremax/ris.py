"""Reverse-reachable set sampling and greedy node selection.

One level-synchronous reverse BFS grows every RR set, finishing the first
level that touches a stop set. The marginal sampler stops at the fixed
seeds and discards (but still counts) a set that reached one; with no
fixed seeds it is the plain RR sampler. The weighted sampler stops at the
base seeds and carries a welfare-gain weight.

A visited node whose in-edges share one probability p (every node of a
weighted-cascade graph) finds its live in-edges by geometric skips, as in
SUBSIM (Guo, Tang, Tang, Xiao and Yuan, SIGMOD 2020): from one live edge
the next lies floor(log(1 - U) / log(1 - p)) edges on, one ``random()``
per live edge plus one, none at all for p = 0 or p = 1. Any other node
draws one ``random()`` coin per candidate in-edge, one whose source is not
yet a member, in edge-id order.

A collection is flat: the members of all sets end to end with per-set
offsets and weights. Greedy max-coverage groups member slots by node with
one stable argsort per call and works on numpy arrays, adding and
subtracting weights in the set order a per-set loop would use, so its
picks and totals are the same floats.
"""

from __future__ import annotations

from array import array
from math import inf, log
from typing import Iterable, NamedTuple

import numpy as np

from welfaremax.diffusion import Allocation
from welfaremax.graph import Graph, csr
from welfaremax.utility import ItemCatalog


class RISError(ValueError):
    pass


class RRSet(NamedTuple):
    root: int
    members: frozenset[int]
    weight: float = 1.0
    empty: bool = False


class RRCollection:
    """An ordered collection of RR sets, stored flat.

    Set ``i`` holds ``members[offsets[i]:offsets[i + 1]]`` and weighs
    ``weights[i]``; an empty set holds no members. len() counts every set,
    including empties; that convention is what makes n * coverage an
    unbiased marginal-spread estimator.
    """

    def __init__(self, n: int):
        self.n = n
        self.members = array("q")
        self.offsets = array("q", [0])
        self.weights = array("d")

    def add(self, rr: RRSet) -> None:
        if not rr.empty:
            self.members.extend(rr.members)
        self.offsets.append(len(self.members))
        self.weights.append(rr.weight)

    def __len__(self) -> int:
        return len(self.weights)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Members, offsets, and the set id of each member slot."""
        members = np.array(self.members, dtype=np.int64)
        offsets = np.array(self.offsets, dtype=np.int64)
        sizes = np.diff(offsets)
        return members, offsets, np.repeat(np.arange(len(sizes)), sizes)

    def coverage_fraction(self, seeds: Iterable[int]) -> float:
        if not len(self):
            return 0.0
        members, _, set_of = self._arrays()
        hit = set_of[np.isin(members, np.fromiter(seeds, dtype=np.int64))]
        return len(np.unique(hit)) / len(self)


def _reverse_bfs(graph: Graph, root: int, stop: frozenset[int], rng) -> set[int]:
    """Nodes reached from `root` over live in-edges, level by level: the
    first level that touches `stop` is finished and the search ends there
    (at once, with no draw, if `root` is in `stop`). A node's live sources
    exclude the members from before its own expansion."""
    in_src, in_prob, in_logq = graph.in_src, graph.in_prob, graph.in_logq
    random = rng.random
    members, level = {root}, [root]
    while level and stop.isdisjoint(level):
        nxt = []
        for u in level:
            srcs, logq = in_src[u], in_logq[u]
            if logq is None:
                live = [s for s, p in zip(srcs, in_prob[u]) if s not in members and random() < p]
            elif logq == -inf:  # p = 1
                live = [s for s in srcs if s not in members]
            elif logq == 0.0:  # p = 0
                continue
            else:
                live, d = [], len(srcs)
                # random() can return 0 but never 1; a position stays a float,
                # because the skip of a subnormal p overflows to inf
                pos = log(1.0 - random()) / logq
                while pos < d:
                    i = int(pos)
                    if srcs[i] not in members:
                        live.append(srcs[i])
                    pos = i + 1 + log(1.0 - random()) / logq
            members.update(live)
            nxt += live
        level = nxt
    return members


def sample_rr(graph: Graph, rng) -> RRSet:
    """One reverse-reachable set from a uniformly random root."""
    return sample_marginal_rr(graph, frozenset(), rng)


def sample_marginal_rr(graph: Graph, fixed_seeds: frozenset[int], rng) -> RRSet:
    """One reverse-reachable set from a uniformly random root, emptied if
    it touches `fixed_seeds`.

    Empty results stay in the collection count, so coverage remains an
    unbiased estimator of the spread gained on top of the fixed seeds.
    """
    if graph.n < 1:
        raise RISError("graph has no nodes")
    root = rng.randrange(graph.n)
    members = _reverse_bfs(graph, root, fixed_seeds, rng)
    if not fixed_seeds.isdisjoint(members):
        return RRSet(root, frozenset(), empty=True)
    return RRSet(root, frozenset(members))


def sample_weighted_rr(
    graph: Graph,
    base_allocation: Allocation,
    superior: str,
    catalog: ItemCatalog,
    rng,
    item_utils: dict[str, float],
) -> RRSet:
    """Weighted RR set for converting nodes to the superior item.

    The reverse BFS stops at the first level touching a fixed seed, so
    every member sits no farther from the root than the fixed seeds do.
    The weight is the superior item's expected truncated utility, read from
    `item_utils`, minus the best such utility among items held by reached
    fixed seeds (zero items reached: nothing subtracted).
    """
    if superior not in catalog.index:
        raise RISError(f"unknown superior item {superior!r}")
    sp_nodes = base_allocation.seed_nodes()
    root = rng.randrange(graph.n)
    members = _reverse_bfs(graph, root, sp_nodes, rng)
    hit = (item for node in members & sp_nodes for item in base_allocation.items_at(node))
    weight = item_utils[superior] - max((item_utils[item] for item in hit), default=0.0)
    return RRSet(root, frozenset(members), weight=weight)


def _greedy_selection(
    collection: RRCollection,
    k: int,
    weighted: bool,
    excluded: Iterable[int] = (),
) -> tuple[list[int], list[float]]:
    n = collection.n
    if k > n:
        raise RISError(f"cannot select {k} seeds from {n} nodes")
    members, offsets, set_of = collection._arrays()
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
        # the member slots of the newly covered sets, in set order
        starts, sizes = offsets[sids], offsets[sids + 1] - offsets[sids]
        slots = np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
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
