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
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple, Optional

import numpy as np

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
    """One joint sample of noise values and edge liveness.

    ``live[eid]`` is 1 when edge ``eid`` of the graph the world was drawn
    for is live, else 0. A sampled world draws its noise first, then one
    uniform per edge in edge-id order, exactly as ``rng.random()`` would,
    and marks an edge live when its uniform is below its probability.
    Replaying one world under different allocations tests identical
    edges, and diffusion within a world is fully deterministic. Each
    node's live out-neighbours are cached on the world the first time a
    diffusion reaches the node, so a world serves one graph only.
    """

    __slots__ = ("noise", "live", "_live_out")

    def __init__(self, noise: NoiseWorld, live: bytes):
        self.noise = noise
        self.live = live
        self._live_out: dict[int, list[int]] = {}

    @classmethod
    def sample(cls, graph: Graph, catalog: ItemCatalog, rng) -> "PossibleWorld":
        noise = NoiseWorld.sample(catalog, rng)
        return cls(noise, _edge_flags(graph.probs, rng))

    @classmethod
    def fixed(cls, live_edges: Iterable[bool], noise: NoiseWorld) -> "PossibleWorld":
        return cls(noise, bytes(bool(b) for b in live_edges))


def _edge_flags(probs: np.ndarray, rng) -> bytes:
    """``bytes(rng.random() < p for p in probs)``, from one RNG call.

    ``getrandbits(64 * m)`` consumes the 2m 32-bit outputs that m calls
    to ``random()`` would, the first in the lowest word, and ``random()``
    makes its double from a pair (a, b) as
    ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, which is exact in float64.
    """
    m = len(probs)
    words = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), dtype="<u4")
    uniforms = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0
    return (uniforms < probs).tobytes()


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
    """Run one deterministic diffusion in the given possible world.

    State is kept only for the nodes the diffusion reaches.
    """
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

    choice_cache: dict[int, int] = {}

    def choose(desired: int, current: int) -> int:
        key = desired << MAX_SIM_ITEMS | current
        got = choice_cache.get(key)
        if got is None:
            choice_cache[key] = got = _best_feasible(desired, current, util)
        return got

    desire: dict[int, int] = {}
    adopt: dict[int, int] = {}  # only non-empty adoptions

    for node, item in allocation.pairs:
        if not 0 <= node < n:
            raise DiffusionError(f"seed node {node} outside graph")
        if item not in catalog.index:
            raise DiffusionError(f"unknown item {item!r} in allocation")
        desire[node] = desire.get(node, 0) | 1 << catalog.index[item]

    frontier: list[int] = []
    for node in sorted(desire):
        chosen = choose(desire[node], 0)
        if chosen:
            adopt[node] = chosen
            frontier.append(node)
    rounds = 1 if frontier else 0

    live = world.live
    live_out = world._live_out
    out_dst, out_eid = graph.out_dst, graph.out_eid
    while frontier:
        gained: dict[int, int] = {}
        for u in frontier:
            targets = live_out.get(u)
            if targets is None:
                flags = map(live.__getitem__, out_eid[u])
                targets = live_out[u] = list(compress(out_dst[u], flags))
            au = adopt[u]
            for v in targets:
                new = au & ~desire.get(v, 0)
                if new:
                    gained[v] = gained.get(v, 0) | new
        next_frontier = []
        for v in sorted(gained):
            desired = desire[v] = desire.get(v, 0) | gained[v]
            current = adopt.get(v, 0)
            chosen = choose(desired, current)
            if chosen != current:
                adopt[v] = chosen
                next_frontier.append(v)
        if next_frontier:
            rounds += 1
        frontier = next_frontier

    tally = Counter(adopt.values())
    bundles = {mask: frozenset(catalog.itemset(mask)) for mask in tally}
    counts = {item: 0 for item in catalog.items}
    for mask, k in tally.items():
        for item in bundles[mask]:
            counts[item] += k
    adopters = sorted(adopt)
    adoption = {v: bundles[adopt[v]] for v in adopters}
    return DiffusionResult(adoption, math.fsum(util(adopt[v]) for v in adopters), counts, rounds)


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
    welfares = []
    totals = {item: 0 for item in catalog.items}
    for world in _worlds(graph, catalog, samples, seed):
        result = simulate(graph, catalog, allocation, world)
        welfares.append(result.welfare)
        for item, count in result.item_counts.items():
            totals[item] += count
    mean, stderr = _mean_stderr(welfares)
    return WelfareEstimate(mean, stderr, {item: t / samples for item, t in totals.items()})


def estimate_marginal_welfare(
    graph: Graph,
    catalog: ItemCatalog,
    candidate: Allocation,
    base: Allocation,
    samples: int,
    seed: int,
    without: Optional[list[float]] = None,
    runs: bool = False,
):
    """Estimate rho(candidate + base) - rho(base), with its standard error.

    Replays the same possible world for both runs of each sample (worlds
    are allocation-independent), which sharply reduces variance.
    `without`, if given, is the base's welfare in each world of this seed
    and sample count, from an earlier run, and stands in for the base
    runs. With `runs`, returns ``(mean, stderr, with_runs, without_runs)``,
    the per-world welfares with and without the candidate.
    """
    base_runs, (with_runs,) = _marginal_runs(
        graph, catalog, [candidate], base, samples, seed, without
    )
    mean, stderr = _mean_stderr([w - b for w, b in zip(with_runs, base_runs)])
    return (mean, stderr, with_runs, base_runs) if runs else (mean, stderr)


def estimate_marginal_welfares(
    graph: Graph,
    catalog: ItemCatalog,
    candidates: list[Allocation],
    base: Allocation,
    samples: int,
    seed: int,
) -> list[tuple[float, float]]:
    """`estimate_marginal_welfare` of each candidate over the same worlds.

    Each world's base run is shared by every candidate, so the estimates
    take (len(candidates) + 1) * samples simulations and equal what
    separate calls with this seed return.
    """
    base_runs, with_runs = _marginal_runs(graph, catalog, candidates, base, samples, seed)
    return [_mean_stderr([w - b for w, b in zip(runs, base_runs)]) for runs in with_runs]


def _marginal_runs(graph, catalog, candidates, base, samples, seed, without=None):
    """The base's welfare per world (`without`, if given) and each
    candidate's merged with the base, base run first in each world."""
    if samples < 1:
        raise DiffusionError("samples must be >= 1")
    if without is not None and len(without) != samples:
        raise DiffusionError(f"{len(without)} base runs given for {samples} samples")
    combined = []
    for candidate in candidates:
        overlap = candidate.pairs & base.pairs
        if overlap:
            raise DiffusionError(f"candidate overlaps base allocation: {sorted(overlap)}")
        combined.append(candidate.merged(base))
    base_runs = [] if without is None else list(without)
    with_runs: list[list[float]] = [[] for _ in candidates]
    for world in _worlds(graph, catalog, samples, seed):
        if without is None:
            base_runs.append(simulate(graph, catalog, base, world).welfare)
        for alloc, out in zip(combined, with_runs):
            out.append(simulate(graph, catalog, alloc, world).welfare)
    return base_runs, with_runs
