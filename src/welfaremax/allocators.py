"""Allocation algorithms and baselines.

Every allocator named in `ALGORITHMS` takes `(graph, catalog, base,
budgets, config, trace=None)` and returns the budget-respecting pairs it
adds to the fixed `base`. The budgets' keys are the items, in the order
round-robin and snake deal them and maxgrd and gm break ties by. Each
first checks that the items are known, have budgets >= 0 and are absent
from `base`; the sequential and max-item algorithms and the round-robin
and snake baselines then take their seeds from one prefix-preserving list
over the base seeds (`_items_and_seeds`).
`max_seq` and `greedy_marginal` need an empty `base`; `greedy_marginal`
also budgets of at most n and at most `GM_PAIR_CAP` pair evaluations.
`supgrd` needs one item, the superior one, a pure-competition catalog and
a `base` covering exactly the other items; at budget 0 it checks these
and allocates nothing. An unmet precondition raises a `ValueError` whose
message does not name the algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from welfaremax.diffusion import CHUNK_CELLS, Allocation, estimate_marginal_welfare
from welfaremax.graph import Graph
from welfaremax.ris import node_selection_weighted
from welfaremax.rng import derive_rng, derive_seed
from welfaremax.selectors import check_accuracy, check_superior_instance, prima_plus, supgrd_sampling
from welfaremax.utility import ItemCatalog, expected_item_utilities

Trace = Optional[Callable[[str], None]]

# CLI name -> function name; looked up on this module at call time, so a
# function patched on the module is the one that runs
ALGORITHMS = {
    "seqgrd": "seqgrd",
    "seqgrd-nm": "seqgrd_nm",
    "maxgrd": "maxgrd",
    "max-seq": "max_seq",
    "supgrd": "supgrd",
    "gm": "greedy_marginal",
    "round-robin": "round_robin",
    "snake": "snake",
}

GM_PAIR_CAP = 200_000  # guard on n * m * sum(budgets) for greedy_marginal


class AllocatorError(ValueError):
    pass


@dataclass(frozen=True)
class AllocatorConfig:
    eps: float = 0.5
    ell: float = 1.0
    mc_samples: int = 5000
    seed: int = 0

    def __post_init__(self):
        check_accuracy(self.eps, self.ell)
        if self.mc_samples < 1:
            raise AllocatorError("mc_samples must be >= 1")


def _check_items_budgets(catalog: ItemCatalog, budgets: dict[str, int], base: Allocation) -> None:
    if not budgets:
        raise AllocatorError("no items to allocate")
    for it, budget in budgets.items():
        if it not in catalog.index:
            raise AllocatorError(f"unknown item {it!r}")
        if budget < 0:
            raise AllocatorError(f"budget for {it!r} must be >= 0")
    if base.items() & budgets.keys():
        raise AllocatorError("items to allocate overlap the base allocation")


def _items_and_seeds(graph, catalog, base, budgets, config, trace, length=sum):
    """The checked items, in budget order, and their prefix-preserving seed
    list over the base seeds, as long as `length` of their budgets and
    certified at every positive budget; empty when that length is 0."""
    _check_items_budgets(catalog, budgets, base)
    items, wanted = list(budgets), list(budgets.values())
    b_max = length(wanted)
    if b_max == 0:
        return items, []
    return items, prima_plus(
        graph,
        config.eps,
        config.ell,
        base.seed_nodes(),
        [b for b in wanted if b > 0],
        b_max,
        derive_rng(config.seed, "prima"),
        trace=trace,
    )


def _by_utility(catalog: ItemCatalog, items: list[str], config: AllocatorConfig) -> list[str]:
    """`items` in decreasing expected truncated utility, ties in catalog order."""
    utils = expected_item_utilities(catalog, rng=derive_rng(config.seed, "item-utility"))
    return sorted(items, key=lambda it: (-utils[it], catalog.index[it]))


def _walk_blocks(order, budgets, seeds, cursor, phase, emit) -> Allocation:
    """Each item of `order` takes its next block of `seeds` from `cursor` on,
    and emits one `phase=<phase>` line."""
    pairs = []
    for item in order:
        block = seeds[cursor : cursor + budgets[item]]
        cursor += budgets[item]
        pairs += [(v, item) for v in block]
        emit(f"phase={phase} item={item} seeds={';'.join(map(str, block))}")
    return Allocation.of(pairs)


def seqgrd(
    graph: Graph,
    catalog: ItemCatalog,
    base: Allocation,
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """Sequential allocation in decreasing item utility with a marginal check.

    Items whose tentative seed block does not improve estimated welfare
    are deferred; deferred items consume the remaining seeds afterward in
    the same order, so budgets are always exhausted. Every check runs on
    the same worlds, so a step's base runs are the previous step's runs
    with its block if kept, without it if deferred. T items take
    (T + 1) * mc_samples world diffusions, in T + 1 `simulate` calls per
    chunk of worlds.
    """
    emit = trace or (lambda line: None)
    items, seeds = _items_and_seeds(graph, catalog, base, budgets, config, trace)
    if not seeds:
        return Allocation.empty()
    order = _by_utility(catalog, items, config)
    chosen = Allocation.empty()
    added: set[str] = set()
    cursor = 0
    world_seed = derive_seed(config.seed, "marginal")
    without = None  # welfare of chosen + base per world, once known
    for item in order:
        block = seeds[cursor : cursor + budgets[item]]
        tentative = Allocation.of((v, item) for v in block)
        check = estimate_marginal_welfare(
            graph,
            catalog,
            [tentative],
            chosen.merged(base),
            config.mc_samples,
            world_seed,
            base_runs=without,
        )
        ((mean, stderr),) = check.estimates
        # a noisy ~0 marginal must not pass; require a clearly positive one
        keep = mean > 2.0 * stderr
        without = check.runs[0] if keep else check.base_runs
        emit(
            f"phase=tentative item={item} seeds={';'.join(map(str, block))} "
            f"marginal={mean:.6g} stderr={stderr:.6g} decision={'keep' if keep else 'defer'}"
        )
        if keep:
            chosen = chosen.merged(tentative)
            added.add(item)
            cursor += budgets[item]
    deferred = [item for item in order if item not in added]
    return chosen.merged(_walk_blocks(deferred, budgets, seeds, cursor, "append", emit))


def seqgrd_nm(
    graph: Graph,
    catalog: ItemCatalog,
    base: Allocation,
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """seqgrd without the marginal check: sorted items take consecutive blocks."""
    emit = trace or (lambda line: None)
    items, seeds = _items_and_seeds(graph, catalog, base, budgets, config, trace)
    if not seeds:
        return Allocation.empty()
    return _walk_blocks(_by_utility(catalog, items, config), budgets, seeds, 0, "assign", emit)


def maxgrd(
    graph: Graph,
    catalog: ItemCatalog,
    base: Allocation,
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """Allocate only the single item with the best estimated marginal welfare.

    Seeds come from one prefix-preserving list of length max(budgets);
    each item is scored on its budget-length prefix over the same worlds,
    which share one base run per world.
    """
    emit = trace or (lambda line: None)
    items, seeds = _items_and_seeds(graph, catalog, base, budgets, config, trace, max)
    if not seeds:
        return Allocation.empty()
    best_item, best_mean = None, -math.inf
    scores = estimate_marginal_welfare(
        graph,
        catalog,
        [Allocation.of((v, item) for v in seeds[: budgets[item]]) for item in items],
        base,
        config.mc_samples,
        derive_seed(config.seed, "maxgrd-eval"),
    ).estimates
    for item, (mean, stderr) in zip(items, scores):  # budget order; first max wins
        emit(f"phase=score item={item} marginal={mean:.6g} stderr={stderr:.6g}")
        if mean > best_mean:
            best_item, best_mean = item, mean
    emit(f"phase=pick item={best_item}")
    return Allocation.of((v, best_item) for v in seeds[: budgets[best_item]])


def max_seq(
    graph: Graph,
    catalog: ItemCatalog,
    base: Allocation,
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """Run seqgrd and maxgrd from scratch and keep the better allocation.

    Only valid with an empty base. Both welfares are estimated in one pass
    over common random worlds, so the comparison cannot flip-flop on
    noise; over the empty base, a marginal welfare is the welfare itself.
    """
    if base:
        raise AllocatorError("needs an empty base allocation")
    emit = trace or (lambda line: None)
    seq_alloc = seqgrd(graph, catalog, base, budgets, config, trace)
    max_alloc = maxgrd(graph, catalog, base, budgets, config, trace)
    eval_seed = derive_seed(config.seed, "max-seq-eval")
    (seq_w, _), (max_w, _) = estimate_marginal_welfare(
        graph, catalog, [seq_alloc, max_alloc], base, config.mc_samples, eval_seed
    ).estimates
    emit(f"phase=compare seq={seq_w:.6g} max={max_w:.6g}")
    return max_alloc if max_w > seq_w else seq_alloc


def supgrd(
    graph: Graph,
    catalog: ItemCatalog,
    base: Allocation,
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """Seed the one budgeted item, which must be the superior item, over the
    fixed inferior seeds of `base` via weighted RR sets."""
    _check_items_budgets(catalog, budgets, base)
    if len(budgets) != 1:
        raise AllocatorError("budgets must name exactly the superior item")
    ((superior, b_prime),) = budgets.items()
    if b_prime == 0:  # the sampler checks the instance for a positive budget
        check_superior_instance(catalog, base, superior)
        return Allocation.empty()
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


def round_robin(
    graph: Graph,
    catalog: ItemCatalog,
    base: Allocation,
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """Cycle items over the ordered seeds: s1:i1, s2:i2, ... wrapping around
    and skipping items with exhausted budgets."""
    _, seeds = _items_and_seeds(graph, catalog, base, budgets, config, trace)
    return _deal(seeds, budgets, snake_order=False)


def snake(
    graph: Graph,
    catalog: ItemCatalog,
    base: Allocation,
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """Round-robin that reverses the item order on every successive pass."""
    _, seeds = _items_and_seeds(graph, catalog, base, budgets, config, trace)
    return _deal(seeds, budgets, snake_order=True)


def _deal(seeds: list[int], budgets: dict[str, int], snake_order: bool) -> Allocation:
    """Deal `seeds` in order over passes in which every item with budget left
    takes one seed, in budget order; `seeds` holds exactly the budgets' total."""
    remaining = dict(budgets)
    turns: list[str] = []
    reverse = False
    while any(remaining.values()):
        active = [it for it, left in remaining.items() if left > 0]
        for it in reversed(active) if reverse else active:
            turns.append(it)
            remaining[it] -= 1
        reverse = snake_order and not reverse
    return Allocation.of(zip(seeds, turns))


def greedy_marginal(
    graph: Graph,
    catalog: ItemCatalog,
    base: Allocation,
    budgets: dict[str, int],
    config: AllocatorConfig,
    trace: Trace = None,
) -> Allocation:
    """Repeatedly add the (node, item) pair with the best estimated marginal
    welfare until budgets are exhausted. Desk-scale only: every step scores
    all feasible pairs on the step's worlds, in groups of at most
    ``CHUNK_CELLS // mc_samples`` pairs that each draw the worlds once."""
    if base:
        raise AllocatorError("needs an empty base allocation")
    emit = trace or (lambda line: None)
    _check_items_budgets(catalog, budgets, base)
    for item, budget in budgets.items():
        if budget > graph.n:
            raise AllocatorError(f"budget {budget} for {item!r} exceeds the {graph.n} nodes")
    total = sum(budgets.values())
    work = graph.n * len(budgets) * total
    if work > GM_PAIR_CAP:
        raise AllocatorError(
            f"needs {work} pair evaluations, cap is {GM_PAIR_CAP}; "
            "use seqgrd for instances this size"
        )
    group = max(1, CHUNK_CELLS // config.mc_samples)
    chosen = Allocation.empty()
    remaining = dict(budgets)
    for step in range(total):
        pairs = [  # ties: smaller node id, then budget order
            (node, item)
            for node in range(graph.n)
            for item, left in remaining.items()
            if left > 0 and (node, item) not in chosen.pairs
        ]
        means = []
        for start in range(0, len(pairs), group):  # each group draws the step's worlds
            scores = estimate_marginal_welfare(
                graph,
                catalog,
                [Allocation.of([pair]) for pair in pairs[start : start + group]],
                chosen,
                config.mc_samples,
                derive_seed(config.seed, "gm", step),
            ).estimates
            means += [mean for mean, _ in scores]
        best_mean = max(means)  # the first of equal means
        node, item = best = pairs[means.index(best_mean)]
        emit(f"phase=pick node={node} item={item} marginal={best_mean:.6g}")
        chosen = chosen.merged(Allocation.of([best]))
        remaining[item] -= 1
    return chosen
