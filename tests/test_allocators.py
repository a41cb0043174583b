import inspect
import math
import random
import re

import pytest

from welfaremax import diffusion
from welfaremax import allocators
from welfaremax.allocators import (
    GM_PAIR_CAP,
    AllocatorConfig,
    AllocatorError,
    _deal,
    _items_and_seeds,
    greedy_marginal,
    max_seq,
    maxgrd,
    round_robin,
    seqgrd,
    seqgrd_nm,
    supgrd,
)
from welfaremax.diffusion import Allocation, estimate_marginal_welfare
from welfaremax.graph import Graph
from welfaremax.selectors import SamplerParams, SelectorError
from welfaremax.oracle import SpreadOracle, WelfareOracle
from welfaremax.rng import derive_rng, derive_seed
from welfaremax.utility import ItemCatalog, NoiseSpec, expected_truncated_utility

from conftest import graph_from, superior_instance

CFG = AllocatorConfig(seed=5, mc_samples=400)


def test_seqgrd_single_item_reduces_to_influence_maximization():
    g = graph_from("0 1 1\n0 2 1\n3 4 1\n")
    cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 3.5})
    alloc = seqgrd(g, cat, Allocation.empty(), {"a": 2}, CFG)
    assert alloc.seeds_for("a") == {0, 3}
    util = expected_truncated_utility(cat, ["a"])[0]
    spread = SpreadOracle(g).marginal_spread([0, 3])
    assert WelfareOracle(g, cat).evaluate(alloc)[0] == pytest.approx(util * spread)


def test_seqgrd_exhausts_budgets_with_distinct_seeds(path_graph, blocking_catalog):
    budgets = {"i": 1, "j": 1, "k": 1}
    alloc = seqgrd(path_graph, blocking_catalog, Allocation.empty(), budgets, CFG)
    assert len(alloc) == 3
    assert len(alloc.seed_nodes()) == 3  # block-disjoint seeds
    for it, b in budgets.items():
        assert len(alloc.seeds_for(it)) <= b


def test_seqgrd_defers_blocking_item(path_graph, blocking_catalog):
    lines = []
    alloc = seqgrd(
        path_graph,
        blocking_catalog,
        Allocation.empty(),
        {"i": 1, "j": 1, "k": 1},
        CFG,
        trace=lines.append,
    )
    decisions = {}
    tentative_order = []
    for ln in lines:
        fields = dict(kv.split("=") for kv in ln.split())
        if fields["phase"] == "tentative":
            decisions[fields["item"]] = fields["decision"]
            tentative_order.append(fields["item"])
    # items enter the tentative phase in non-increasing expected utility order
    assert tentative_order == ["i", "j", "k"]
    assert decisions == {"i": "keep", "j": "defer", "k": "keep"}
    # j lands on the seed after i and k
    assert alloc.seeds_for("i") == {0}
    assert alloc.seeds_for("k") == {1}
    assert alloc.seeds_for("j") == {2}


def test_seqgrd_beats_seqgrd_nm_on_blocking_fixture(path_graph, blocking_catalog):
    budgets = {"i": 1, "j": 1, "k": 1}
    with_check = seqgrd(path_graph, blocking_catalog, Allocation.empty(), budgets, CFG)
    without = seqgrd_nm(path_graph, blocking_catalog, Allocation.empty(), budgets, CFG)
    oracle = WelfareOracle(path_graph, blocking_catalog)
    w1 = oracle.evaluate(with_check)[0]
    w2 = oracle.evaluate(without)[0]
    assert w1 > w2


def test_seqgrd_nm_matches_seqgrd_when_marginals_positive():
    g = graph_from("0 1 1\n2 3 1\n")
    cat = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 2.5, ("a", "b"): 3},
    )
    budgets = {"a": 1, "b": 1}
    a1 = seqgrd(g, cat, Allocation.empty(), budgets, CFG)
    a2 = seqgrd_nm(g, cat, Allocation.empty(), budgets, CFG)
    assert a1 == a2


def test_seqgrd_single_item_nm_identical():
    g = graph_from("0 1 1\n1 2 0.5\n")
    cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 3})
    a1 = seqgrd(g, cat, Allocation.empty(), {"a": 1}, CFG)
    a2 = seqgrd_nm(g, cat, Allocation.empty(), {"a": 1}, CFG)
    assert a1 == a2


def test_seqgrd_rejects_overlapping_items(pair_graph, trio_catalog):
    base = Allocation.of([(1, "i1")])
    with pytest.raises(AllocatorError, match="overlap"):
        seqgrd(pair_graph, trio_catalog, base, {"i1": 1}, CFG)


def test_maxgrd_picks_dominant_item():
    g = graph_from("0 1 1\n2 3 1\n")
    cat = ItemCatalog(
        ["hi", "lo"],
        prices={"hi": 1, "lo": 1},
        valuations={("hi",): 11, ("lo",): 2, ("hi", "lo"): 11},
    )
    alloc = maxgrd(g, cat, Allocation.empty(), {"hi": 1, "lo": 1}, CFG)
    assert alloc.items() == {"hi"}


def test_maxgrd_single_item_matches_seqgrd_nm():
    g = graph_from("0 1 1\n1 2 0.5\n")
    cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 3})
    assert maxgrd(g, cat, Allocation.empty(), {"a": 1}, CFG) == seqgrd_nm(
        g, cat, Allocation.empty(), {"a": 1}, CFG
    )


def test_maxgrd_shares_worlds_and_base_runs_across_items(monkeypatch):
    g = graph_from("0 1 0.5\n1 2 0.7\n2 3 0.5\n0 4 0.3\n4 3 0.9\n")
    items, budgets = ["i", "j", "k"], {"i": 1, "j": 2, "k": 1}
    cfg = AllocatorConfig(seed=9, mc_samples=40)
    base = Allocation.of([(3, "i1")])
    cat = ItemCatalog(
        ["i", "j", "k", "i1"],
        prices={"i": 1, "j": 1, "k": 1, "i1": 1},
        valuations={("i",): 3, ("j",): 2.5, ("k",): 2, ("i1",): 2.2, ("i", "j"): 3.2},
    )
    _, seeds = _items_and_seeds(g, cat, base, budgets, cfg, None, max)
    want = [  # each item alone
        estimate_marginal_welfare(
            g, cat, [Allocation.of((v, it) for v in seeds[: budgets[it]])], base, 40,
            derive_seed(9, "maxgrd-eval"),
        ).estimates[0]
        for it in items
    ]
    calls = {"simulate": 0, "world": 0}
    real_simulate = diffusion.simulate
    real_sample = diffusion.PossibleWorld.sample.__func__

    def counting_simulate(*args):
        calls["simulate"] += len(args[3])  # worlds simulated, not calls
        return real_simulate(*args)

    def counting_sample(cls, *args):
        calls["world"] += 1
        return real_sample(cls, *args)

    monkeypatch.setattr(diffusion, "simulate", counting_simulate)
    monkeypatch.setattr(diffusion.PossibleWorld, "sample", classmethod(counting_sample))
    lines = []
    alloc = maxgrd(g, cat, base, budgets, cfg, trace=lines.append)
    assert calls == {"simulate": (len(items) + 1) * 40, "world": 40}
    scores = [line for line in lines if line.startswith("phase=score")]
    assert scores == [
        f"phase=score item={it} marginal={m:.6g} stderr={e:.6g}" for it, (m, e) in zip(items, want)
    ]
    best = max(range(len(items)), key=lambda k: (want[k][0], -k))
    assert alloc == Allocation.of((v, items[best]) for v in seeds[: budgets[items[best]]])


def test_worked_example_welfare_gap(fork_graph, strong_weak_catalog):
    budgets = {"i": 1, "j": 1}
    seq = seqgrd(fork_graph, strong_weak_catalog, Allocation.empty(), budgets, CFG)
    mx = maxgrd(fork_graph, strong_weak_catalog, Allocation.empty(), budgets, CFG)
    oracle = WelfareOracle(fork_graph, strong_weak_catalog)
    assert oracle.evaluate(seq)[0] == 22.0
    assert oracle.evaluate(mx)[0] == 30.0
    best = max_seq(fork_graph, strong_weak_catalog, Allocation.empty(), budgets, CFG)
    assert best == mx


def test_max_seq_scores_both_allocations_in_one_pass_over_its_worlds(monkeypatch):
    g = graph_from("0 1 0.5\n1 2 0.7\n2 3 0.5\n3 4 0.3\n0 5 0.5\n5 4 0.7\n")
    cat = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 2.5, ("a", "b"): 3.2},
    )
    budgets = {"a": 1, "b": 1}
    eval_seed = derive_seed(CFG.seed, "max-seq-eval")
    want = [
        diffusion.estimate_welfare(g, cat, alloc(g, cat, Allocation.empty(), budgets, CFG),
                                   CFG.mc_samples, eval_seed).mean
        for alloc in (seqgrd, maxgrd)
    ]
    calls, worlds = [], []
    real_scores = allocators.estimate_marginal_welfare
    real_sample = diffusion.PossibleWorld.sample.__func__

    def scoring(*args, **kwargs):
        drawn = len(worlds)
        got = real_scores(*args, **kwargs)
        calls.append((got, len(worlds) - drawn))
        return got

    monkeypatch.setattr(allocators, "estimate_marginal_welfare", scoring)
    monkeypatch.setattr(diffusion.PossibleWorld, "sample",
                        classmethod(lambda cls, *a: worlds.append(1) or real_sample(cls, *a)))
    max_seq(g, cat, Allocation.empty(), budgets, CFG)
    # seqgrd's two checks, maxgrd's item scores, then max_seq's comparison,
    # each drawing its worlds once
    assert [n for _, n in calls] == [CFG.mc_samples] * 4
    assert [mean for mean, _ in calls[-1][0].estimates] == want  # bit for bit


def test_max_seq_single_item_agreement():
    g = graph_from("0 1 1\n")
    cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 3})
    alloc = max_seq(g, cat, Allocation.empty(), {"a": 1}, CFG)
    assert alloc == seqgrd(g, cat, Allocation.empty(), {"a": 1}, CFG)


def test_maxgrd_choice_invariant_under_utility_scaling():
    g = graph_from("0 1 0.7\n1 2 0.5\n2 0 0.4\n0 3 0.6\n")
    for scale in (1.0, 7.0):
        cat = ItemCatalog(
            ["p", "q"],
            prices={"p": scale * 1, "q": scale * 1},
            valuations={
                ("p",): scale * 3,
                ("q",): scale * 2.4,
                ("p", "q"): scale * 3.1,
            },
        )
        alloc = maxgrd(g, cat, Allocation.empty(), {"p": 1, "q": 1}, CFG)
        assert alloc.items() == {"p"}


def test_supgrd_validates_and_names_condition():
    g = graph_from("0 1 0.5\n")
    soft = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 1.5, ("a", "b"): 3.6},
    )
    with pytest.raises(Exception, match="pure competition"):
        supgrd(g, soft, Allocation.of([(0, "b")]), {"a": 1}, CFG)


def test_supgrd_base_empty_single_item_reduces_to_im():
    g = graph_from("0 1 1\n0 2 1\n0 3 1\n4 0 0.2\n")
    cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 2})
    alloc = supgrd(g, cat, Allocation.empty(), {"a": 1}, AllocatorConfig(eps=0.3, seed=2))
    assert alloc.pairs == frozenset({(0, "a")})  # the hub maximizes spread


def test_supgrd_near_optimal_on_small_instance():
    rng = random.Random(14)
    graph, catalog, base = superior_instance(rng, n_hi=8, e_hi=9)
    cfg = AllocatorConfig(eps=0.15, ell=1.0, seed=31)
    alloc = supgrd(graph, catalog, base, {"sup": 2}, cfg)
    oracle = WelfareOracle(graph, catalog)
    got = oracle.evaluate(alloc.merged(base))[0]
    _, opt, _ = oracle.optimal({"sup": 2}, base)
    assert got >= 0.6 * opt


def test_round_robin_and_snake_patterns():
    seeds = [10, 11, 12, 13]
    budgets = {"i": 2, "j": 2}
    rr = _deal(seeds, budgets, snake_order=False)
    assert rr.pairs == frozenset({(10, "i"), (11, "j"), (12, "i"), (13, "j")})
    sn = _deal(seeds, budgets, snake_order=True)
    assert sn.pairs == frozenset({(10, "i"), (11, "j"), (12, "j"), (13, "i")})


def test_round_robin_single_item_is_block():
    alloc = _deal([4, 5, 6], {"only": 3}, snake_order=False)
    assert alloc.seeds_for("only") == {4, 5, 6}
    assert alloc == _deal([4, 5, 6], {"only": 3}, snake_order=True)


def test_round_robin_skips_exhausted_budgets():
    alloc = _deal([1, 2, 3], {"a": 1, "b": 2}, snake_order=False)
    assert alloc.pairs == frozenset({(1, "a"), (2, "b"), (3, "b")})


def test_greedy_marginal_matches_exact_greedy_on_deterministic_graph():
    g = graph_from("0 1 1\n1 2 1\n3 4 1\n")
    cat = ItemCatalog(["a"], prices={"a": 0}, valuations={("a",): 1})
    alloc = greedy_marginal(
        g, cat, Allocation.empty(), {"a": 2}, AllocatorConfig(seed=1, mc_samples=50)
    )
    # exact greedy: 0 first (spread 3), then 3 (spread 2)
    assert alloc.pairs == frozenset({(0, "a"), (3, "a")})


def test_greedy_marginal_three_items_follows_oracle_trace(pair_graph, trio_catalog):
    cfg = AllocatorConfig(seed=3, mc_samples=60)
    alloc = greedy_marginal(
        pair_graph,
        trio_catalog,
        Allocation.empty(),
        {"i1": 1, "i2": 1, "i3": 1},
        cfg,
    )
    # replay the greedy trace with the exact oracle (p=1 makes estimates exact)
    oracle = WelfareOracle(pair_graph, trio_catalog)
    chosen = Allocation.empty()
    for _ in range(3):
        best, best_val = None, float("-inf")
        for node in range(pair_graph.n):
            for item in trio_catalog.items:
                if (node, item) in chosen.pairs:
                    continue
                if len(chosen.seeds_for(item)) >= 1:
                    continue
                cand = Allocation.of([(node, item)])
                val = oracle.evaluate(cand.merged(chosen))[0] - oracle.evaluate(chosen)[0]
                if val > best_val:
                    best, best_val = (node, item), val
        chosen = chosen.merged(Allocation.of([best]))
    assert oracle.evaluate(alloc)[0] == pytest.approx(oracle.evaluate(chosen)[0])


def test_greedy_marginal_zero_budgets_yield_empty():
    g = graph_from("0 1 1\n")
    cat = ItemCatalog(["a"], prices={"a": 0}, valuations={("a",): 1})
    alloc = greedy_marginal(g, cat, Allocation.empty(), {"a": 0}, CFG)
    assert alloc == Allocation.empty()


def test_greedy_marginal_cap():
    # 1,001 isolated nodes x 2 items x 100 seeds = 200,200 pairs, just above the cap
    g = Graph(1001, [])
    cat = ItemCatalog(["a", "b"], prices={"a": 0, "b": 0}, valuations={("a",): 1, ("b",): 1})
    assert 1001 * 2 * 100 > GM_PAIR_CAP
    cfg = AllocatorConfig(seed=0, mc_samples=10)
    with pytest.raises(AllocatorError, match="seqgrd"):
        greedy_marginal(g, cat, Allocation.empty(), {"a": 50, "b": 50}, cfg)


def test_greedy_marginal_rejects_a_budget_above_the_node_count(monkeypatch):
    g = graph_from("0 1 1\n")
    cat = ItemCatalog(["a", "b"], prices={"a": 0, "b": 0}, valuations={("a",): 1, ("b",): 1})
    calls = []
    monkeypatch.setattr(allocators, "estimate_marginal_welfare", lambda *a, **k: calls.append(a))
    with pytest.raises(AllocatorError, match="budget 3 for 'a' exceeds the 2 nodes"):
        greedy_marginal(g, cat, Allocation.empty(), {"a": 3, "b": 1}, CFG)
    assert calls == []  # refused before any estimate


def _greedy_marginal_pair_by_pair(graph, catalog, budgets, config):
    """`greedy_marginal` with one estimate per (node, item) pair: the picks,
    the pick lines and, per step, each feasible pair's mean."""
    chosen, lines, means = Allocation.empty(), [], []
    remaining = dict(budgets)
    for step in range(sum(budgets.values())):
        eval_seed = derive_seed(config.seed, "gm", step)
        best, best_mean, step_means = None, -math.inf, []
        for node in range(graph.n):
            for item in budgets:
                if remaining[item] < 1 or (node, item) in chosen.pairs:
                    continue
                ((mean, _),) = estimate_marginal_welfare(
                    graph, catalog, [Allocation.of([(node, item)])], chosen,
                    config.mc_samples, eval_seed,
                ).estimates
                step_means.append(mean)
                if mean > best_mean:
                    best, best_mean = (node, item), mean
        lines.append(f"phase=pick node={best[0]} item={best[1]} marginal={best_mean:.6g}")
        means.append(step_means)
        chosen = chosen.merged(Allocation.of([best]))
        remaining[best[1]] -= 1
    return chosen, lines, means


GM_INSTANCES = {
    "noisy": (
        graph_from("0 1 0.5\n1 2 0.7\n2 3 0.5\n3 4 0.3\n0 5 0.5\n5 4 0.7\n"),
        ItemCatalog(
            ["a", "b"],
            prices={"a": 1, "b": 1},
            valuations={("a",): 2, ("b",): 2, ("a", "b"): 3},
            noise={"a": NoiseSpec.gaussian(0.7), "b": NoiseSpec.two_point(0.4)},
        ),
        {"a": 2, "b": 1},
    ),
    "ties": (  # two equal components and two equal items: the first pick is a tie
        graph_from("0 1 1\n2 3 1\n"),
        ItemCatalog(
            ["a", "b"],
            prices={"a": 0, "b": 0},
            valuations={("a",): 1, ("b",): 1, ("a", "b"): 1.5},
        ),
        {"a": 1, "b": 1},
    ),
}


@pytest.mark.parametrize("group", [None, 4], ids=["one-group", "groups-of-4"])
@pytest.mark.parametrize("instance", ["blocking", *GM_INSTANCES])
def test_greedy_marginal_scores_each_step_like_the_pair_by_pair_loop(
    monkeypatch, request, instance, group
):
    if instance == "blocking":
        g, cat = request.getfixturevalue("path_graph"), request.getfixturevalue("blocking_catalog")
        budgets = {"i": 1, "j": 1, "k": 1}
    else:
        g, cat, budgets = GM_INSTANCES[instance]
    cfg = AllocatorConfig(seed=6, mc_samples=30)
    want, want_lines, want_means = _greedy_marginal_pair_by_pair(g, cat, budgets, cfg)
    if group is not None:  # most pairs per estimate: 4, so each step takes several
        monkeypatch.setattr(allocators, "CHUNK_CELLS", group * cfg.mc_samples + cfg.mc_samples - 1)
    per_group = group or allocators.CHUNK_CELLS // cfg.mc_samples
    calls, worlds = [], []
    real_estimate = allocators.estimate_marginal_welfare
    real_sample = diffusion.PossibleWorld.sample.__func__

    def recording(graph, catalog, candidates, base, samples, seed, **kwargs):
        drawn = len(worlds)
        got = real_estimate(graph, catalog, candidates, base, samples, seed, **kwargs)
        calls.append((seed, len(candidates), len(worlds) - drawn, got.estimates))
        return got

    monkeypatch.setattr(allocators, "estimate_marginal_welfare", recording)
    monkeypatch.setattr(diffusion.PossibleWorld, "sample",
                        classmethod(lambda cls, *a: worlds.append(1) or real_sample(cls, *a)))
    lines = []
    got = greedy_marginal(g, cat, Allocation.empty(), budgets, cfg, lines.append)
    assert got == want and lines == want_lines
    for step, step_means in enumerate(want_means):
        step_calls = [c for c in calls if c[0] == derive_seed(cfg.seed, "gm", step)]
        means = [mean for *_, scores in step_calls for mean, _ in scores]
        assert repr(means) == repr(step_means)  # bit for bit, in node-then-item order
        assert [size for _, size, _, _ in step_calls] == [
            min(per_group, len(step_means) - start)
            for start in range(0, len(step_means), per_group)
        ]
        draws = sum(drawn for _, _, drawn, _ in step_calls)
        assert draws == math.ceil(len(step_means) / per_group) * cfg.mc_samples
    assert len(calls) == sum(math.ceil(len(m) / per_group) for m in want_means)
    if group is not None:
        assert len(calls) > len(want_means)  # some step split into several groups


def test_budget_feasibility_across_allocators(fork_graph, strong_weak_catalog):
    items, budgets = ["i", "j"], {"i": 1, "j": 1}
    for fn in (seqgrd, seqgrd_nm, maxgrd):
        alloc = fn(fork_graph, strong_weak_catalog, Allocation.empty(), budgets, CFG)
        for it in items:
            assert len(alloc.seeds_for(it)) <= budgets[it]


def test_every_algorithm_names_an_allocator_with_the_common_parameters():
    common = ["graph", "catalog", "base", "budgets", "config", "trace"]
    for name, fn_name in allocators.ALGORITHMS.items():
        assert isinstance(fn_name, str), name  # looked up at call time, so patches apply
        params = inspect.signature(getattr(allocators, fn_name)).parameters
        assert list(params) == common, name
        assert params["trace"].default is None, name


def test_budget_order_is_the_dealing_order(path_graph, blocking_catalog):
    budgets = {"j": 1, "i": 1}
    _, seeds = _items_and_seeds(path_graph, blocking_catalog, Allocation.empty(), budgets, CFG, None)
    alloc = round_robin(path_graph, blocking_catalog, Allocation.empty(), budgets, CFG)
    assert alloc == Allocation.of([(seeds[0], "j"), (seeds[1], "i")])


@pytest.mark.parametrize("fn", [max_seq, greedy_marginal])
def test_base_free_allocators_reject_a_base(fn, path_graph, blocking_catalog):
    with pytest.raises(AllocatorError, match="empty base"):
        fn(path_graph, blocking_catalog, Allocation.of([(5, "k")]), {"i": 1}, CFG)


def test_supgrd_zero_budget_checks_the_instance_and_allocates_nothing(
    fork_graph, strong_weak_catalog
):
    base = Allocation.of([(3, "j")])
    alloc = supgrd(fork_graph, strong_weak_catalog, base, {"i": 0}, CFG)
    assert alloc == Allocation.empty()
    with pytest.raises(SelectorError, match="superior item is 'i'"):
        supgrd(fork_graph, strong_weak_catalog, Allocation.of([(3, "i")]), {"j": 0}, CFG)


def test_supgrd_takes_exactly_one_item(fork_graph, strong_weak_catalog):
    with pytest.raises(AllocatorError, match="exactly the superior item"):
        supgrd(
            fork_graph, strong_weak_catalog, Allocation.empty(), {"i": 1, "j": 1}, CFG
        )


def test_seqgrd_marginal_checks_share_one_set_of_worlds(monkeypatch, path_graph, blocking_catalog):
    items, budgets = ["i", "j", "k"], {"i": 1, "j": 1, "k": 1}
    checks = []
    real_estimate = allocators.estimate_marginal_welfare

    def recording(graph, catalog, candidates, base, samples, seed, **kwargs):
        got = real_estimate(graph, catalog, candidates, base, samples, seed, **kwargs)
        checks.append((candidates, base, samples, seed, got.estimates))
        return got

    sims = []
    real_simulate = diffusion.simulate
    monkeypatch.setattr(allocators, "estimate_marginal_welfare", recording)
    monkeypatch.setattr(  # worlds simulated: each call runs a batch of them
        diffusion, "simulate", lambda *args: sims.append(len(args[3])) or real_simulate(*args)
    )
    lines = []
    seqgrd(path_graph, blocking_catalog, Allocation.empty(), budgets, CFG, lines.append)
    decisions = [ln.split("decision=")[1] for ln in lines if ln.startswith("phase=tentative")]
    # a kept step and a deferred step both hand their worlds to a later step
    assert decisions == ["keep", "defer", "keep"]
    assert sum(sims) == (len(items) + 1) * CFG.mc_samples
    assert len(checks) == len(items)
    for candidates, base, samples, seed, got in checks:
        assert seed == derive_seed(CFG.seed, "marginal") and len(candidates) == 1
        plain = estimate_marginal_welfare(path_graph, blocking_catalog, candidates, base, samples, seed)
        assert got == plain.estimates  # bit for bit


@pytest.mark.parametrize("fn", [seqgrd, seqgrd_nm], ids=["seqgrd", "seqgrd-nm"])
def test_sequential_order_comes_from_one_item_utility_call(monkeypatch, fn, path_graph):
    # j and k tie on utility; catalog order (k before j) breaks the tie
    cat = ItemCatalog(
        ["k", "i", "j"],
        prices={"i": 1, "j": 1, "k": 1},
        valuations={("i",): 3, ("j",): 2, ("k",): 2},
    )
    calls = []
    real = allocators.expected_item_utilities

    def recording(catalog, **kwargs):
        calls.append(kwargs["rng"].getstate())
        return real(catalog, **kwargs)

    monkeypatch.setattr(allocators, "expected_item_utilities", recording)
    lines = []
    fn(path_graph, cat, Allocation.empty(), {"i": 1, "j": 1, "k": 1}, CFG,
       lines.append)
    assert calls == [derive_rng(CFG.seed, "item-utility").getstate()]
    first = "phase=tentative" if fn is seqgrd else "phase=assign"
    order = [ln.split()[1] for ln in lines if ln.startswith(first)]
    assert order == ["item=i", "item=k", "item=j"]


@pytest.mark.parametrize("fn", [seqgrd, seqgrd_nm, maxgrd])
def test_all_zero_budgets_allocate_nothing_without_sampling(
    monkeypatch, fn, path_graph, blocking_catalog
):
    def unexpected(*args, **kwargs):
        raise AssertionError("no seed selection or estimate at budget 0")

    monkeypatch.setattr(allocators, "prima_plus", unexpected)
    monkeypatch.setattr(allocators, "estimate_marginal_welfare", unexpected)
    monkeypatch.setattr(allocators, "expected_item_utilities", unexpected)
    budgets = {"i": 0, "k": 0}
    got = fn(path_graph, blocking_catalog, Allocation.empty(), budgets, CFG)
    assert got == Allocation.empty()


@pytest.mark.parametrize(
    "budgets, base, message",
    [
        ({}, [], "no items to allocate"),
        ({"a": 1, "zz": 1}, [], "unknown item 'zz'"),
        ({"a": -1}, [], "budget for 'a' must be >= 0"),
        ({"a": 1}, [(1, "a")], "items to allocate overlap the base allocation"),
    ],
    ids=["no-items", "unknown-item", "negative-budget", "overlap"],
)
@pytest.mark.parametrize("algo", ["seqgrd", "supgrd", "gm"])
def test_allocators_check_items_and_budgets(algo, budgets, base, message):
    g = graph_from("0 1 1\n1 2 1\n")
    cat = ItemCatalog(
        ["a", "b"], prices={"a": 1, "b": 1}, valuations={("a",): 3, ("b",): 2, ("a", "b"): 3}
    )
    allocate = getattr(allocators, allocators.ALGORITHMS[algo])
    if algo == "gm" and base:
        message = "needs an empty base allocation"  # checked first
    with pytest.raises(AllocatorError, match=message):
        allocate(g, cat, Allocation.of(base), budgets, CFG)


def test_allocator_config_needs_a_sample():
    with pytest.raises(AllocatorError, match="mc_samples must be >= 1"):
        AllocatorConfig(mc_samples=0)


@pytest.mark.parametrize(
    "knobs, message",
    [({"eps": 0.0}, "eps must lie in (0, 1)"), ({"ell": math.nan}, "ell must be positive and finite, got nan")],
    ids=["eps-zero", "ell-nan"],
)
def test_allocator_config_checks_accuracy_as_the_sampler_does(knobs, message):
    with pytest.raises(SelectorError, match=re.escape(message)):
        AllocatorConfig(**knobs)
    knobs = {"eps": 0.5, "ell": 1.0, **knobs}
    with pytest.raises(SelectorError, match=re.escape(message)):
        SamplerParams(8, knobs["eps"], knobs["ell"], (1,))
