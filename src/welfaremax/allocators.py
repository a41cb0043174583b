"""Allocation algorithms and baselines.

All allocators return budget-respecting Allocations. The sequential and
max-item algorithms, and the round-robin and snake baselines, take their
seeds from one prefix-preserving list (`prefix_seed_list`); the
superior-item algorithm selects over weighted RR sets; the greedy
baseline chases marginal welfare pair by pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from welfaremax.diffusion import (
    Allocation,
    estimate_marginal_welfare,
    estimate_welfare,
)
from welfaremax.graph import Graph
from welfaremax.ris import node_selection_weighted
from welfaremax.rng import derive_rng, derive_seed
from welfaremax.selectors import prima_plus, supgrd_sampling
from welfaremax.utility import ItemCatalog, expected_truncated_utility

Trace = Optional[Callable[[str], None]]


class AllocatorError(ValueError):
    pass


@dataclass(frozen=True)
class AllocatorConfig:
    eps: float = 0.5
    ell: float = 1.0
    mc_samples: int = 5000
    seed: int = 0
    gm_pair_cap: int = 200_000  # guard on n * m * sum(budgets) for greedy_marginal

    def __post_init__(self):
        if self.mc_samples < 1:
            raise AllocatorError("mc_samples must be >= 1")


def _check_items_budgets(
    catalog: ItemCatalog, items: Iterable[str], budgets: dict[str, int], base: Allocation
) -> list[str]:
    items = list(items)
    if not items:
        raise AllocatorError("no items to allocate")
    for it in items:
        if it not in catalog.index:
            raise AllocatorError(f"unknown item {it!r}")
        if it not in budgets:
            raise AllocatorError(f"missing budget for item {it!r}")
        if budgets[it] < 0:
            raise AllocatorError(f"budget for {it!r} must be >= 0")
    if base.items() & set(items):
        raise AllocatorError("items to allocate overlap the base allocation")
    return items


def prefix_seed_list(
    graph: Graph,
    base: Allocation,
    budgets: Iterable[int],
    b_max: int,
    config: AllocatorConfig,
    trace: Trace = None,
) -> list[int]:
    """The b_max-long prefix-preserving seed list over the base seeds,
    certified at every positive budget; empty when b_max is 0."""
    if b_max == 0:
        return []
    return prima_plus(
        graph,
        config.eps,
        config.ell,
        base.seed_nodes(),
        [b for b in budgets if b > 0],
        b_max,
        derive_rng(config.seed, "prima"),
        trace=trace,
    )


def _sorted_by_utility(catalog: ItemCatalog, items: list[str], config: AllocatorConfig) -> list[str]:
    """Decreasing expected truncated utility; catalog order breaks ties."""
    utils = {}
    for it in items:
        rng = derive_rng(config.seed, "item-utility", it)
        utils[it], _ = expected_truncated_utility(
            catalog, [it], samples=100_000, rng=rng
        )
    return sorted(items, key=lambda it: (-utils[it], catalog.index[it]))


def seqgrd(
    graph: Graph,
    catalog: ItemCatalog,
    base: Allocation,
    items: Iterable[str],
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """Sequential allocation in decreasing item utility with a marginal check.

    Items whose tentative seed block does not improve estimated welfare
    are deferred; deferred items consume the remaining seeds afterward in
    the same order, so budgets are always exhausted.
    """
    emit = trace or (lambda line: None)
    items = _check_items_budgets(catalog, items, budgets, base)
    total = sum(budgets[it] for it in items)
    if total == 0:
        return Allocation.empty()
    seeds = prefix_seed_list(graph, base, [budgets[it] for it in items], total, config, trace)
    order = _sorted_by_utility(catalog, items, config)
    chosen = Allocation.empty()
    added: set[str] = set()
    cursor = 0
    for step, item in enumerate(order):
        block = seeds[cursor : cursor + budgets[item]]
        tentative = Allocation.of((v, item) for v in block)
        mean, stderr = estimate_marginal_welfare(
            graph,
            catalog,
            tentative,
            chosen.merged(base),
            config.mc_samples,
            derive_seed(config.seed, "marginal", step),
        )
        # a noisy ~0 marginal must not pass; require a clearly positive one
        keep = mean > 2.0 * stderr
        emit(
            f"phase=tentative item={item} seeds={';'.join(map(str, block))} "
            f"marginal={mean:.6g} stderr={stderr:.6g} decision={'keep' if keep else 'defer'}"
        )
        if keep:
            chosen = chosen.merged(tentative)
            added.add(item)
            cursor += budgets[item]
    for item in order:
        if item in added:
            continue
        block = seeds[cursor : cursor + budgets[item]]
        cursor += budgets[item]
        chosen = chosen.merged(Allocation.of((v, item) for v in block))
        emit(f"phase=append item={item} seeds={';'.join(map(str, block))}")
    return chosen


def seqgrd_nm(
    graph: Graph,
    catalog: ItemCatalog,
    base: Allocation,
    items: Iterable[str],
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """seqgrd without the marginal check: sorted items take consecutive blocks."""
    emit = trace or (lambda line: None)
    items = _check_items_budgets(catalog, items, budgets, base)
    total = sum(budgets[it] for it in items)
    if total == 0:
        return Allocation.empty()
    seeds = prefix_seed_list(graph, base, [budgets[it] for it in items], total, config, trace)
    chosen = Allocation.empty()
    cursor = 0
    for item in _sorted_by_utility(catalog, items, config):
        block = seeds[cursor : cursor + budgets[item]]
        cursor += budgets[item]
        chosen = chosen.merged(Allocation.of((v, item) for v in block))
        emit(f"phase=assign item={item} seeds={';'.join(map(str, block))}")
    return chosen


def maxgrd(
    graph: Graph,
    catalog: ItemCatalog,
    base: Allocation,
    items: Iterable[str],
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """Allocate only the single item with the best estimated marginal welfare.

    Seeds come from one prefix-preserving list of length max(budgets);
    each item is scored on its budget-length prefix with common random
    worlds across candidates.
    """
    emit = trace or (lambda line: None)
    items = _check_items_budgets(catalog, items, budgets, base)
    b_top = max(budgets[it] for it in items)
    if b_top == 0:
        return Allocation.empty()
    seeds = prefix_seed_list(graph, base, [budgets[it] for it in items], b_top, config, trace)
    best_item = None
    best_mean = -math.inf
    eval_seed = derive_seed(config.seed, "maxgrd-eval")
    for item in items:  # catalog order given by caller; first max wins
        cand = Allocation.of((v, item) for v in seeds[: budgets[item]])
        mean, stderr = estimate_marginal_welfare(
            graph, catalog, cand, base, config.mc_samples, eval_seed
        )
        emit(f"phase=score item={item} marginal={mean:.6g} stderr={stderr:.6g}")
        if mean > best_mean:
            best_item, best_mean = item, mean
    emit(f"phase=pick item={best_item}")
    return Allocation.of((v, best_item) for v in seeds[: budgets[best_item]])


def max_seq(
    graph: Graph,
    catalog: ItemCatalog,
    items: Iterable[str],
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """Run seqgrd and maxgrd from scratch and keep the better allocation.

    Only valid without a prior allocation. Welfares are estimated on
    common random worlds so the comparison cannot flip-flop on noise.
    """
    emit = trace or (lambda line: None)
    seq_alloc = seqgrd(graph, catalog, Allocation.empty(), items, budgets, config, trace)
    max_alloc = maxgrd(graph, catalog, Allocation.empty(), items, budgets, config, trace)
    eval_seed = derive_seed(config.seed, "max-seq-eval")
    seq_w = estimate_welfare(graph, catalog, seq_alloc, config.mc_samples, eval_seed).mean
    max_w = estimate_welfare(graph, catalog, max_alloc, config.mc_samples, eval_seed).mean
    emit(f"phase=compare seq={seq_w:.6g} max={max_w:.6g}")
    return max_alloc if max_w > seq_w else seq_alloc


def supgrd(
    graph: Graph,
    catalog: ItemCatalog,
    base: Allocation,
    superior: str,
    b_prime: int,
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """Seed the superior item over fixed inferior seeds via weighted RR sets."""
    collection = supgrd_sampling(
        graph,
        catalog,
        base,
        superior,
        b_prime,
        config.eps,
        config.ell,
        derive_rng(config.seed, "supgrd"),
        trace=trace,
    )
    picks, _ = node_selection_weighted(collection, b_prime)
    return Allocation.of((v, superior) for v in picks)


def round_robin(seed_list: list[int], items: Iterable[str], budgets: dict[str, int]) -> Allocation:
    """Cycle items over the ordered seeds: s1:i1, s2:i2, ... wrapping around.

    Items with exhausted budgets are skipped; the seed list length must
    equal the total budget.
    """
    return _cyclic(seed_list, list(items), budgets, snake_order=False)


def snake(seed_list: list[int], items: Iterable[str], budgets: dict[str, int]) -> Allocation:
    """Round-robin that reverses the item order on every successive pass."""
    return _cyclic(seed_list, list(items), budgets, snake_order=True)


def _cyclic(seed_list, items, budgets, snake_order: bool) -> Allocation:
    if not items:
        raise AllocatorError("no items to allocate")
    remaining = {}
    for it in items:
        if it not in budgets:
            raise AllocatorError(f"missing budget for item {it!r}")
        remaining[it] = budgets[it]
    total = sum(remaining.values())
    if len(seed_list) != total:
        raise AllocatorError(
            f"need exactly {total} seeds for the budgets, got {len(seed_list)}"
        )
    pairs = []
    cursor = 0
    passes = 0
    while cursor < total:
        active = [it for it in items if remaining[it] > 0]
        if snake_order and passes % 2 == 1:
            active = list(reversed(active))
        for it in active:
            if cursor >= total:
                break
            pairs.append((seed_list[cursor], it))
            remaining[it] -= 1
            cursor += 1
        passes += 1
    return Allocation.of(pairs)


def greedy_marginal(
    graph: Graph,
    catalog: ItemCatalog,
    items: Iterable[str],
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """Repeatedly add the (node, item) pair with the best estimated marginal
    welfare until budgets are exhausted. Desk-scale only: every round
    evaluates all feasible pairs with mc_samples simulations each."""
    emit = trace or (lambda line: None)
    items = _check_items_budgets(catalog, items, budgets, Allocation.empty())
    total = sum(budgets[it] for it in items)
    work = graph.n * len(items) * total
    if work > config.gm_pair_cap:
        raise AllocatorError(
            f"greedy_marginal needs {work} pair evaluations, cap is "
            f"{config.gm_pair_cap}; use seqgrd for instances this size"
        )
    chosen = Allocation.empty()
    remaining = {it: budgets[it] for it in items}
    for step in range(total):
        eval_seed = derive_seed(config.seed, "gm", step)
        best = None
        best_mean = -math.inf
        for node in range(graph.n):  # ties: smaller node id, then item order
            for item in items:
                if remaining[item] < 1 or (node, item) in chosen.pairs:
                    continue
                mean, _ = estimate_marginal_welfare(
                    graph,
                    catalog,
                    Allocation.of([(node, item)]),
                    chosen,
                    config.mc_samples,
                    eval_seed,
                )
                if mean > best_mean:
                    best, best_mean = (node, item), mean
        node, item = best
        emit(f"phase=pick node={node} item={item} marginal={best_mean:.6g}")
        chosen = chosen.merged(Allocation.of([best]))
        remaining[item] -= 1
    return chosen
