"""Reverse-reachable set sampling and greedy node selection.

Two reverse-BFS samplers: the marginal one discards (but still counts)
sets touching a fixed seed set, and with no fixed seeds it is the plain
RR sampler; the weighted one stops at the fixed seeds and carries a
welfare-gain weight. Collections keep an inverted index so greedy
max-coverage runs in time linear in total set size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from welfaremax.diffusion import Allocation
from welfaremax.graph import Graph
from welfaremax.utility import UTILITY_SAMPLES, ItemCatalog, expected_truncated_utility


class RISError(ValueError):
    pass


@dataclass(frozen=True)
class RRSet:
    root: int
    members: frozenset[int]
    weight: float = 1.0
    empty: bool = False


class RRCollection:
    """An ordered collection of RR sets with a node -> set-ids index.

    len() counts every set, including empties; that convention is what
    makes n * coverage an unbiased marginal-spread estimator.
    """

    def __init__(self, n: int):
        self.n = n
        self.sets: list[RRSet] = []
        self.index: dict[int, list[int]] = {}

    def add(self, rr: RRSet) -> None:
        sid = len(self.sets)
        self.sets.append(rr)
        if not rr.empty:
            for v in rr.members:
                self.index.setdefault(v, []).append(sid)

    def __len__(self) -> int:
        return len(self.sets)

    def coverage_fraction(self, seeds: Iterable[int]) -> float:
        hit: set[int] = set()
        for v in seeds:
            hit.update(self.index.get(v, ()))
        return len(hit) / len(self.sets) if self.sets else 0.0


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
    if root in fixed_seeds:
        return RRSet(root, frozenset(), empty=True)
    members = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for src, p, _ in graph.in_adj[u]:
            if src not in members and rng.random() < p:
                if src in fixed_seeds:
                    # result is discarded either way; the remaining coins
                    # are independent of everything already decided
                    return RRSet(root, frozenset(), empty=True)
                members.add(src)
                stack.append(src)
    return RRSet(root, frozenset(members))


def sample_weighted_rr(
    graph: Graph,
    base_allocation: Allocation,
    superior: str,
    catalog: ItemCatalog,
    rng,
    item_utils: Optional[dict[str, float]] = None,
) -> RRSet:
    """Weighted RR set for converting nodes to the superior item.

    Level-synchronous reverse BFS that finishes the first level touching a
    fixed seed and then stops, so every member sits no farther from the
    root than the fixed seeds do. The weight is the superior item's
    expected truncated utility minus the best such utility among items
    held by reached fixed seeds (zero items reached: nothing subtracted).
    """
    if item_utils is None:
        item_utils = expected_item_utilities(catalog)
    if superior not in catalog.index:
        raise RISError(f"unknown superior item {superior!r}")
    u_sup = item_utils[superior]
    sp_nodes = base_allocation.seed_nodes()
    root = rng.randrange(graph.n)
    members = {root}
    level = [root]
    while level and not any(v in sp_nodes for v in level):
        nxt = []
        for u in level:
            for src, p, _ in graph.in_adj[u]:
                if src not in members and rng.random() < p:
                    members.add(src)
                    nxt.append(src)
        level = nxt
    hit_items = [
        item
        for node in members & sp_nodes
        for item in base_allocation.items_at(node)
    ]
    weight = u_sup
    if hit_items:
        weight -= max(item_utils[item] for item in hit_items)
    return RRSet(root, frozenset(members), weight=weight)


def expected_item_utilities(
    catalog: ItemCatalog, samples: int = UTILITY_SAMPLES, rng=None
) -> dict[str, float]:
    """Expected truncated utility per single item (exact where possible)."""
    return {
        item: expected_truncated_utility(catalog, [item], samples=samples, rng=rng)[0]
        for item in catalog.items
    }


def _greedy_selection(
    collection: RRCollection,
    k: int,
    weighted: bool,
    excluded: Iterable[int] = (),
) -> tuple[list[int], list[float]]:
    n = collection.n
    if k > n:
        raise RISError(f"cannot select {k} seeds from {n} nodes")
    excluded = set(excluded)
    gain = [0.0] * n
    for rr in collection.sets:
        if rr.empty:
            continue
        w = rr.weight if weighted else 1.0
        for v in rr.members:
            gain[v] += w
    covered = bytearray(len(collection.sets))
    picks: list[int] = []
    prefix: list[float] = []
    chosen = [False] * n
    total = 0.0
    for _ in range(k):
        best, best_gain = -1, -1.0
        for v in range(n):
            if chosen[v] or v in excluded:
                continue
            if gain[v] > best_gain:
                best, best_gain = v, gain[v]
        if best < 0:
            raise RISError("not enough selectable nodes")
        chosen[best] = True
        picks.append(best)
        for sid in collection.index.get(best, ()):
            if not covered[sid]:
                covered[sid] = 1
                rr = collection.sets[sid]
                w = rr.weight if weighted else 1.0
                total += w
                for u in rr.members:
                    gain[u] -= w
        prefix.append(total)
    return picks, prefix


def node_selection_count(
    collection: RRCollection, k: int, excluded: Iterable[int] = ()
) -> tuple[list[int], list[float]]:
    """Greedy max-coverage; returns picks and the coverage fraction after
    each prefix (empties count in the denominator). Ties break to the
    smallest node id."""
    picks, prefix = _greedy_selection(collection, k, weighted=False, excluded=excluded)
    theta = len(collection.sets)
    fractions = [t / theta if theta else 0.0 for t in prefix]
    return picks, fractions


def node_selection_weighted(
    collection: RRCollection, budget: int, excluded: Iterable[int] = ()
) -> tuple[list[int], list[float]]:
    """Greedy on summed weights of covered sets; returns picks and the
    covered-weight total after each prefix."""
    return _greedy_selection(collection, budget, weighted=True, excluded=excluded)
