"""Utility-driven competitive diffusion and Monte Carlo welfare estimation.

Propagation is discrete-time and progressive. At t=1 seed nodes desire
their allocated items and adopt the utility-maximizing feasible subset;
from t>=2, any node whose adoption changed last round tests its untested
out-edges once, live edges carry the full adoption set into the target's
desire set, and targets whose desire grew re-decide by argmax over
supersets of their current adoption with non-negative utility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from welfaremax.graph import Graph
from welfaremax.rng import derive_rng
from welfaremax.utility import ItemCatalog, NoiseWorld

MAX_SIM_ITEMS = 10  # the adoption argmax enumerates 2^|desire| subsets


class DiffusionError(ValueError):
    pass


@dataclass(frozen=True)
class Allocation:
    """A set of (node, item) seed pairs."""

    pairs: frozenset[tuple[int, str]]

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, str]]) -> "Allocation":
        return cls(frozenset((int(n), str(i)) for n, i in pairs))

    @classmethod
    def empty(cls) -> "Allocation":
        return cls(frozenset())

    def seed_nodes(self) -> frozenset[int]:
        return frozenset(n for n, _ in self.pairs)

    def items(self) -> frozenset[str]:
        return frozenset(i for _, i in self.pairs)

    def seeds_for(self, item: str) -> frozenset[int]:
        return frozenset(n for n, i in self.pairs if i == item)

    def items_at(self, node: int) -> frozenset[str]:
        return frozenset(i for n, i in self.pairs if n == node)

    def merged(self, other: "Allocation") -> "Allocation":
        return Allocation(self.pairs | other.pairs)

    def sorted_pairs(self) -> list[tuple[int, str]]:
        return sorted(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)


class PossibleWorld:
    """One joint sample of edge liveness and noise values.

    Edge coins are keyed by edge id, so replaying the same world under a
    different allocation tests identical coins; diffusion within a world is
    fully deterministic.
    """

    __slots__ = ("noise", "_uniforms", "_fixed")

    def __init__(self, noise: NoiseWorld, uniforms=None, fixed=None):
        self.noise = noise
        self._uniforms = uniforms
        self._fixed = fixed

    @classmethod
    def sample(cls, graph: Graph, catalog: ItemCatalog, rng) -> "PossibleWorld":
        noise = NoiseWorld.sample(catalog, rng)
        uniforms = [rng.random() for _ in range(graph.m)]
        return cls(noise, uniforms=uniforms)

    @classmethod
    def fixed(cls, live_edges: Iterable[bool], noise: NoiseWorld) -> "PossibleWorld":
        return cls(noise, fixed=tuple(bool(b) for b in live_edges))

    def edge_live(self, edge_id: int, prob: float) -> bool:
        if self._fixed is not None:
            return self._fixed[edge_id]
        return self._uniforms[edge_id] < prob


@dataclass(frozen=True)
class DiffusionResult:
    adoption: dict[int, frozenset[str]]  # nodes with non-empty final adoption
    welfare: float
    item_counts: dict[str, int]
    rounds: int


def _best_feasible(desire: int, current: int, util) -> int:
    """Argmax-utility subset of desire that contains current and has U >= 0.

    Ties prefer the larger itemset, then the smallest bitmask. `current`
    itself is always feasible (its utility was non-negative when adopted).
    """
    free = desire & ~current
    best_mask = current
    best_u = util(current)
    best_size = bin(current).count("1")
    sub = free
    while sub:
        cand = current | sub
        u = util(cand)
        if u >= 0.0:
            size = bin(cand).count("1")
            if (
                u > best_u
                or (u == best_u and size > best_size)
                or (u == best_u and size == best_size and cand < best_mask)
            ):
                best_mask, best_u, best_size = cand, u, size
        sub = (sub - 1) & free
    return best_mask


def simulate(
    graph: Graph,
    catalog: ItemCatalog,
    allocation: Allocation,
    world: PossibleWorld,
) -> DiffusionResult:
    """Run one deterministic diffusion in the given possible world."""
    if catalog.m > MAX_SIM_ITEMS:
        raise DiffusionError(f"simulator enumerates itemsets; m <= {MAX_SIM_ITEMS} required")
    n = graph.n
    noise = world.noise.values
    base = catalog.value  # completed valuation per mask
    price = catalog.item_prices

    util_cache: dict[int, float] = {0: 0.0}

    def util(mask: int) -> float:
        got = util_cache.get(mask)
        if got is None:
            total = base(mask)
            mm = mask
            while mm:
                low = mm & -mm
                i = low.bit_length() - 1
                total += noise[i] - price[i]
                mm ^= low
            util_cache[mask] = got = total
        return got

    desire = [0] * n
    adopt = [0] * n
    tested = [False] * graph.m
    live_out: list[list[int]] = [[] for _ in range(n)]

    for node, item in allocation.pairs:
        if not 0 <= node < n:
            raise DiffusionError(f"seed node {node} outside graph")
        if item not in catalog.index:
            raise DiffusionError(f"unknown item {item!r} in allocation")
        desire[node] |= 1 << catalog.index[item]

    frontier: list[int] = []
    for node in sorted(allocation.seed_nodes()):
        chosen = _best_feasible(desire[node], 0, util)
        if chosen:
            adopt[node] = chosen
            frontier.append(node)
    rounds = 1 if frontier else 0

    while frontier:
        gained: dict[int, int] = {}
        for u in frontier:
            for v, p, eid in graph.out_adj[u]:
                if not tested[eid]:
                    tested[eid] = True
                    if world.edge_live(eid, p):
                        live_out[u].append(v)
            au = adopt[u]
            for v in live_out[u]:
                new = au & ~desire[v]
                if new:
                    gained[v] = gained.get(v, 0) | new
        next_frontier = []
        for v in sorted(gained):
            desire[v] |= gained[v]
            chosen = _best_feasible(desire[v], adopt[v], util)
            if chosen != adopt[v]:
                adopt[v] = chosen
                next_frontier.append(v)
        if next_frontier:
            rounds += 1
        frontier = next_frontier

    adoption: dict[int, frozenset[str]] = {}
    counts = {item: 0 for item in catalog.items}
    welfare_parts = []
    for v in range(n):
        mask = adopt[v]
        if mask:
            adoption[v] = frozenset(catalog.itemset(mask))
            welfare_parts.append(util(mask))
            for i in range(catalog.m):
                if mask >> i & 1:
                    counts[catalog.items[i]] += 1
    return DiffusionResult(adoption, math.fsum(welfare_parts), counts, rounds)


class WelfareEstimate(NamedTuple):
    mean: float
    stderr: float
    item_means: dict[str, float]


def _worlds(graph: Graph, catalog: ItemCatalog, samples: int, seed: int):
    """The possible worlds of one estimate: one RNG stream per sample index."""
    for idx in range(samples):
        yield PossibleWorld.sample(graph, catalog, derive_rng(seed, idx))


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    k = len(values)
    mean = math.fsum(values) / k
    if k < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (k - 1)
    return mean, math.sqrt(var / k)


def estimate_welfare(
    graph: Graph,
    catalog: ItemCatalog,
    allocation: Allocation,
    samples: int,
    seed: int,
) -> WelfareEstimate:
    """Monte Carlo mean welfare with standard error and per-item adoption means."""
    if samples < 1:
        raise DiffusionError("samples must be >= 1")
    results = [
        simulate(graph, catalog, allocation, world)
        for world in _worlds(graph, catalog, samples, seed)
    ]
    mean, stderr = _mean_stderr([r.welfare for r in results])
    item_means = {
        item: math.fsum(r.item_counts[item] for r in results) / samples
        for item in catalog.items
    }
    return WelfareEstimate(mean, stderr, item_means)


def estimate_marginal_welfare(
    graph: Graph,
    catalog: ItemCatalog,
    candidate: Allocation,
    base: Allocation,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Estimate rho(candidate + base) - rho(base).

    Replays the same possible world for both runs of each sample (worlds
    are allocation-independent), which sharply reduces variance.
    """
    if samples < 1:
        raise DiffusionError("samples must be >= 1")
    overlap = candidate.pairs & base.pairs
    if overlap:
        raise DiffusionError(f"candidate overlaps base allocation: {sorted(overlap)}")
    combined = candidate.merged(base)
    diffs = [
        simulate(graph, catalog, combined, world).welfare
        - simulate(graph, catalog, base, world).welfare
        for world in _worlds(graph, catalog, samples, seed)
    ]
    return _mean_stderr(diffs)
