"""Exact ground truth on tiny instances by possible-world enumeration.

Everything here enumerates all 2^|E| edge worlds (and, for welfare, the
Cartesian product of finite noise supports), so it is exact and exists
solely to anchor tests. The edge and noise limits are enforced before
any enumeration, the allocation-space limit before any search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from welfaremax.diffusion import Allocation, PossibleWorld, world_runs
from welfaremax.graph import Graph
from welfaremax.utility import ItemCatalog, finite_supports, joint_outcomes


class OracleLimitError(ValueError):
    """Instance too large for exact enumeration."""


@dataclass(frozen=True)
class OracleLimits:
    max_edges: int = 15
    max_noise_support: int = 4096
    max_allocation_space: int = 200_000


DEFAULT_LIMITS = OracleLimits()


def _edge_worlds(graph: Graph, limits: OracleLimits):
    """All (probability, live-flags) edge worlds; zero-probability worlds skipped."""
    if graph.m > limits.max_edges:
        raise OracleLimitError(
            f"{graph.m} edges exceeds oracle limit {limits.max_edges}"
        )
    probs = graph.probs.tolist()
    worlds = []
    for flags in itertools.product((True, False), repeat=graph.m):
        w = 1.0
        for p, live in zip(probs, flags):
            w *= p if live else 1.0 - p
            if w == 0.0:
                break
        if w > 0.0:
            worlds.append((w, flags))
    return worlds


def _noise_worlds(catalog: ItemCatalog, limits: OracleLimits):
    supports = finite_supports(catalog, (1 << catalog.m) - 1)
    if supports is None:
        raise OracleLimitError("exact welfare needs finite noise supports (zero or two-point)")
    size = math.prod(len(sup) for sup in supports)
    if size > limits.max_noise_support:
        raise OracleLimitError(f"joint noise support {size} exceeds limit")
    return joint_outcomes(supports)


class WelfareOracle:
    """Caches the world enumeration so many allocations can be scored cheaply.

    World k has probability ``probs[k]``; an allocation runs on the worlds
    through `world_runs`, a chunk at a time."""

    def __init__(self, graph: Graph, catalog: ItemCatalog, limits: OracleLimits = DEFAULT_LIMITS):
        self.graph = graph
        self.catalog = catalog
        self.limits = limits
        self.probs: list[float] = []
        self.worlds: list[PossibleWorld] = []
        for pe, flags in _edge_worlds(graph, limits):
            for pn, noise in _noise_worlds(catalog, limits):
                self.probs.append(pe * pn)
                self.worlds.append(PossibleWorld.fixed(flags, noise))

    def evaluate(self, allocation: Allocation) -> tuple[float, dict[str, float]]:
        """The exact welfare of `allocation` and its per-item adoption means,
        from one pass over the worlds."""
        count, world = len(self.worlds), self.worlds.__getitem__
        ((welfare, adopters),) = world_runs(
            self.graph, self.catalog, [allocation], count, world, self.probs
        )
        return math.fsum(p * w for p, w in zip(self.probs, welfare)), adopters

    def welfare(self, allocation: Allocation) -> float:
        return self.evaluate(allocation)[0]

    def marginal(self, candidate: Allocation, base: Allocation) -> float:
        return self.welfare(candidate.merged(base)) - self.welfare(base)

    def item_adoption_means(self, allocation: Allocation) -> dict[str, float]:
        return self.evaluate(allocation)[1]

    def optimal(
        self, budgets: dict[str, int], base: Optional[Allocation] = None
    ) -> tuple[Allocation, float, dict[str, float]]:
        """Exhaustive search over budget-feasible allocations for the given items.

        Seed sets may overlap across items. Returns an argmax allocation, its
        exact welfare rho(allocation + base) and the per-item adoption means
        of allocation + base.
        """
        base = base or Allocation.empty()
        items = [it for it in self.catalog.items if it in budgets]
        if set(budgets) - set(items):
            raise ValueError(f"budgets reference unknown items: {sorted(set(budgets) - set(items))}")
        universe = list(range(self.graph.n))
        space = 1
        for it in items:
            per_item = sum(math.comb(self.graph.n, k) for k in range(budgets[it] + 1))
            space *= per_item
        if space > self.limits.max_allocation_space:
            raise OracleLimitError(f"allocation space {space} exceeds limit")
        best = None  # the first allocation searched is the empty one, which scores the base
        for combo in itertools.product(
            *(_bounded_subsets(universe, budgets[it]) for it in items)
        ):
            pairs = [(v, it) for it, seeds in zip(items, combo) for v in seeds]
            alloc = Allocation.of(pairs)
            val, means = self.evaluate(alloc.merged(base))
            if best is None or val > best[1]:
                best = alloc, val, means
        return best


class SpreadOracle:
    """Exact influence spread via per-world reachability closures."""

    def __init__(self, graph: Graph, limits: OracleLimits = DEFAULT_LIMITS):
        self.graph = graph
        self.n = graph.n
        self.worlds = []
        for prob, flags in _edge_worlds(graph, limits):
            adj = [[] for _ in range(graph.n)]
            for u, v, live in zip(graph.src.tolist(), graph.dst.tolist(), flags):
                if live:
                    adj[u].append(v)
            closures = []
            for s in range(graph.n):
                seen = 1 << s
                stack = [s]
                while stack:
                    u = stack.pop()
                    for v in adj[u]:
                        if not seen >> v & 1:
                            seen |= 1 << v
                            stack.append(v)
                closures.append(seen)
            self.worlds.append((prob, closures))

    def spread(self, seeds: Iterable[int]) -> float:
        return self.marginal_spread(seeds, ())

    def marginal_spread(self, seeds: Iterable[int], base: Iterable[int]) -> float:
        seeds, base = list(seeds), list(base)
        total = 0.0
        for prob, closures in self.worlds:
            r_base = 0
            for s in base:
                r_base |= closures[s]
            r_all = r_base
            for s in seeds:
                r_all |= closures[s]
            total += prob * (bin(r_all).count("1") - bin(r_base).count("1"))
        return total

    def best_marginal(self, k: int, base: Iterable[int]) -> tuple[tuple[int, ...], float]:
        """Brute-force optimal marginal spread of k seeds over `base`."""
        base = list(base)
        candidates = [v for v in range(self.n) if v not in set(base)]
        best_set: tuple[int, ...] = ()
        best = 0.0
        for combo in itertools.combinations(candidates, k):
            val = self.marginal_spread(combo, base)
            if val > best:
                best, best_set = val, combo
        return best_set, best


def exact_welfare(
    graph: Graph,
    catalog: ItemCatalog,
    allocation: Allocation,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> float:
    """Expected welfare as an exact sum over all edge x noise worlds."""
    return WelfareOracle(graph, catalog, limits).welfare(allocation)


def exact_spread(graph: Graph, seeds: Iterable[int], limits: OracleLimits = DEFAULT_LIMITS) -> float:
    return SpreadOracle(graph, limits).spread(seeds)


def exact_marginal_spread(
    graph: Graph,
    seeds: Iterable[int],
    base: Iterable[int],
    limits: OracleLimits = DEFAULT_LIMITS,
) -> float:
    return SpreadOracle(graph, limits).marginal_spread(seeds, base)


def _bounded_subsets(universe: list[int], max_size: int):
    for size in range(max_size + 1):
        yield from itertools.combinations(universe, size)


def optimal_allocation(
    graph: Graph,
    catalog: ItemCatalog,
    budgets: dict[str, int],
    base: Optional[Allocation] = None,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> tuple[Allocation, float]:
    """`WelfareOracle.optimal` on a new oracle of the graph and catalog,
    without the adoption means."""
    alloc, welfare, _ = WelfareOracle(graph, catalog, limits).optimal(budgets, base)
    return alloc, welfare
