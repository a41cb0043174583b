"""Exact ground truth on tiny instances by possible-world enumeration.

Everything here enumerates all 2^|E| edge worlds (and, for welfare, the
Cartesian product of finite noise supports), so it is exact and exists
solely to anchor tests. The edge and noise limits are enforced before
any enumeration, the allocation-space limit before any search.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Optional

from welfaremax.diffusion import Allocation, PossibleWorld, world_runs
from welfaremax.graph import Graph
from welfaremax.utility import ItemCatalog, finite_supports, joint_outcomes

MAX_EDGES = 15  # `oracle --max-edges` overrides it
MAX_NOISE_SUPPORT = 4096
MAX_ALLOCATION_SPACE = 200_000


class OracleLimitError(ValueError):
    """Instance too large for exact enumeration."""


def _edge_worlds(graph: Graph, max_edges: int):
    """All (probability, live-flags) edge worlds; zero-probability worlds skipped."""
    if graph.m > max_edges:
        raise OracleLimitError(f"{graph.m} edges exceeds oracle limit {max_edges}")
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


def _noise_worlds(catalog: ItemCatalog):
    supports = finite_supports(catalog, (1 << catalog.m) - 1)
    if supports is None:
        raise ValueError("exact welfare needs finite noise supports (zero or two-point)")
    size = math.prod(len(sup) for sup in supports)
    if size > MAX_NOISE_SUPPORT:
        raise OracleLimitError(f"joint noise support {size} exceeds limit")
    return list(joint_outcomes(supports))


class WelfareOracle:
    """Caches the world enumeration so many allocations can be scored cheaply.

    World k has probability ``probs[k]``; an allocation runs on the worlds
    through `world_runs`, a chunk at a time."""

    def __init__(self, graph: Graph, catalog: ItemCatalog, max_edges: int = MAX_EDGES):
        self.graph = graph
        self.catalog = catalog
        edge_worlds = _edge_worlds(graph, max_edges)
        noise_worlds = _noise_worlds(catalog)
        self.probs = [pe * pn for pe, _ in edge_worlds for pn, _ in noise_worlds]
        self.worlds = [
            PossibleWorld.fixed(flags, noise)
            for _, flags in edge_worlds
            for _, noise in noise_worlds
        ]

    def evaluate(self, allocation: Allocation) -> tuple[float, dict[str, float]]:
        """The exact welfare of `allocation` and its per-item adoption means,
        from one pass over the worlds."""
        count, world = len(self.worlds), self.worlds.__getitem__
        ((welfare, adopters),) = world_runs(
            self.graph, self.catalog, [allocation], count, world, self.probs
        )
        return math.fsum(p * w for p, w in zip(self.probs, welfare)), adopters

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
        for it in items:
            if budgets[it] < 0:
                raise ValueError(f"budget for {it!r} must be non-negative, not {budgets[it]}")
        n = self.graph.n
        space = math.prod(sum(math.comb(n, k) for k in range(budgets[it] + 1)) for it in items)
        if space > MAX_ALLOCATION_SPACE:
            raise OracleLimitError(f"allocation space {space} exceeds limit")
        best = None  # the first allocation searched is the empty one, which scores the base
        for combo in itertools.product(*(_bounded_subsets(n, budgets[it]) for it in items)):
            alloc = Allocation.of([(v, it) for it, seeds in zip(items, combo) for v in seeds])
            val, means = self.evaluate(alloc.merged(base))
            if best is None or val > best[1]:
                best = alloc, val, means
        return best


def _bounded_subsets(n: int, max_size: int):
    for size in range(max_size + 1):
        yield from itertools.combinations(range(n), size)


class SpreadOracle:
    """Exact influence spread via per-world reachability closures."""

    def __init__(self, graph: Graph, max_edges: int = MAX_EDGES):
        self.graph = graph
        self.n = graph.n
        self.worlds = []
        for prob, flags in _edge_worlds(graph, max_edges):
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

    def marginal_spread(self, seeds: Iterable[int], base: Iterable[int] = ()) -> float:
        """E[|R(seeds + base)| - |R(base)|]; with no base, the spread of `seeds`."""
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
        """Brute-force optimal marginal spread of k seeds outside `base`; the
        first such set in `itertools.combinations` order wins a tie."""
        base = list(base)
        candidates = [v for v in range(self.n) if v not in set(base)]
        if not 0 <= k <= len(candidates):
            raise ValueError(f"k={k} is outside [0, {len(candidates)}], the non-base nodes")
        combos = itertools.combinations(candidates, k)
        best, best_set = max(((self.marginal_spread(c, base), c) for c in combos), key=lambda p: p[0])
        return best_set, best


def exact_spread(graph: Graph, seeds: Iterable[int]) -> float:
    """The spread of `seeds`; the benchmark's checker tests import this name."""
    return SpreadOracle(graph).marginal_spread(seeds)
