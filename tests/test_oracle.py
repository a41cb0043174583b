import math
import random
import re

import pytest

from welfaremax import diffusion
from welfaremax.diffusion import Allocation
from welfaremax.graph import Graph
from welfaremax.oracle import OracleLimitError, SpreadOracle, WelfareOracle
from welfaremax.utility import ItemCatalog, NoiseSpec, u_max, u_min

from conftest import graph_from, random_coverage_catalog, random_graph, random_allocation


def test_exact_welfare_counterexample_fixture(pair_graph, trio_catalog):
    oracle = WelfareOracle(pair_graph, trio_catalog)
    assert oracle.evaluate(Allocation.of([(0, "i1")]))[0] == 8.0
    assert oracle.evaluate(Allocation.empty())[0] == 0.0


def test_exact_welfare_single_coin():
    g = graph_from("0 1 0.5\n")
    cat = ItemCatalog(["a"], prices={"a": 0}, valuations={("a",): 1})
    assert WelfareOracle(g, cat).evaluate(Allocation.of([(0, "a")]))[0] == 1.5


def test_exact_welfare_averages_noise_support():
    g = graph_from("0 1 1\n")
    cat = ItemCatalog(
        ["a"],
        prices={"a": 1},
        valuations={("a",): 2},
        noise={"a": NoiseSpec.two_point(3)},
    )
    # +3 world: both nodes at utility 4; -3 world: nothing adopted
    assert WelfareOracle(g, cat).evaluate(Allocation.of([(0, "a")]))[0] == 4.0


def test_exact_welfare_rejects_continuous_noise(pair_graph):
    cat = ItemCatalog(
        ["a"], prices={"a": 0}, valuations={("a",): 1}, noise={"a": NoiseSpec.gaussian(1)}
    )
    with pytest.raises(ValueError, match="finite") as raised:
        WelfareOracle(pair_graph, cat).evaluate(Allocation.of([(0, "a")]))
    assert not isinstance(raised.value, OracleLimitError)


def test_edge_limit_enforced():
    edges = [(0, k, 0.5) for k in range(1, 17)]
    g = Graph(17, edges)
    with pytest.raises(OracleLimitError, match="exceeds"):
        SpreadOracle(g).marginal_spread([0])


def test_exact_spread_basics():
    oracle = SpreadOracle(graph_from("0 1 0.5\n"))
    assert oracle.marginal_spread([0]) == 1.5
    assert oracle.marginal_spread([0, 1]) == 2.0


def test_exact_spread_diamond():
    g = graph_from("0 1 0.5\n0 2 0.5\n1 3 0.5\n2 3 0.5\n")
    # 1 + 0.5 + 0.5 + P(3 reached) with P = 1 - (1 - 1/4)^2
    assert SpreadOracle(g).marginal_spread([0]) == pytest.approx(2 + 0.4375, abs=1e-12)


def test_exact_marginal_spread_edges():
    oracle = SpreadOracle(graph_from("0 1 0.5\n1 2 0.5\n"))
    assert oracle.marginal_spread([0], []) == oracle.marginal_spread([0])
    assert oracle.marginal_spread([0], [0, 1, 2]) == 0.0
    # world-by-world difference cross-check
    want = oracle.marginal_spread([0, 2]) - oracle.marginal_spread([2])
    assert oracle.marginal_spread([0], [2]) == pytest.approx(want, abs=1e-12)


def test_optimal_allocation_star_hub():
    g = graph_from("0 1 1\n0 2 1\n0 3 1\n")
    cat = ItemCatalog(["a"], prices={"a": 0}, valuations={("a",): 1})
    alloc, welfare, _ = WelfareOracle(g, cat).optimal({"a": 1})
    assert alloc.pairs == frozenset({(0, "a")})
    assert welfare == 4.0


def test_optimal_allocation_counterexample_fixture(pair_graph, trio_catalog):
    alloc, welfare, _ = WelfareOracle(pair_graph, trio_catalog).optimal({"i1": 1})
    assert alloc.pairs == frozenset({(0, "i1")})
    assert welfare == 8.0


def test_optimal_allocation_respects_base(pair_graph, trio_catalog):
    base = Allocation.of([(1, "i2")])
    oracle = WelfareOracle(pair_graph, trio_catalog)
    alloc, welfare, _ = oracle.optimal({"i1": 1}, base)
    # welfare includes the fixed seeds
    assert welfare == oracle.evaluate(alloc.merged(base))[0]


def test_optimal_allocation_limit(monkeypatch):
    g = random_graph(random.Random(1), n_lo=8, n_hi=8, e_lo=8, e_hi=10)
    cat = ItemCatalog(["a"], prices={"a": 0}, valuations={("a",): 1})
    monkeypatch.setattr("welfaremax.oracle.MAX_ALLOCATION_SPACE", 10)
    with pytest.raises(OracleLimitError, match="allocation space"):
        WelfareOracle(g, cat).optimal({"a": 4})


def test_optimal_allocation_cross_checked_by_recursive_enumeration():
    g = graph_from("0 1 0.5\n1 2 1\n2 3 0.5\n3 4 0.5\n4 5 0.5\n0 4 0.5\n")
    cat = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 2.2, ("a", "b"): 3.4},
    )
    oracle = WelfareOracle(g, cat)
    got_alloc, got, _ = oracle.optimal({"a": 1, "b": 1})
    best = 0.0
    # independent enumeration order: nested loops over node choices incl. "skip"
    for choice_a in [None, *range(g.n)]:
        for choice_b in [None, *range(g.n)]:
            pairs = []
            if choice_a is not None:
                pairs.append((choice_a, "a"))
            if choice_b is not None:
                pairs.append((choice_b, "b"))
            best = max(best, oracle.evaluate(Allocation.of(pairs))[0])
    assert got == pytest.approx(best, abs=1e-12)
    assert got == pytest.approx(oracle.evaluate(got_alloc)[0], abs=1e-12)


def test_optimal_rejects_a_negative_budget(pair_graph, trio_catalog):
    with pytest.raises(ValueError, match="budget for 'i1' must be non-negative"):
        WelfareOracle(pair_graph, trio_catalog).optimal({"i1": -1})



def test_optimal_rejects_budgets_for_unknown_items(pair_graph, trio_catalog):
    with pytest.raises(ValueError, match=re.escape("budgets reference unknown items: ['z']")):
        WelfareOracle(pair_graph, trio_catalog).optimal({"i1": 1, "z": 1})


def test_joint_noise_support_limit_enforced():
    # 13 two-point items: 2^13 = 8,192 joint outcomes, above the 4,096 limit
    items = [f"x{k}" for k in range(13)]
    cat = ItemCatalog(
        items,
        prices={it: 0 for it in items},
        valuations={(it,): 1 for it in items},
        noise={it: NoiseSpec.two_point(0.5) for it in items},
    )
    with pytest.raises(OracleLimitError, match="joint noise support 8192 exceeds limit"):
        WelfareOracle(graph_from("0 1 1\n"), cat)


@pytest.mark.parametrize("k, base", [(4, []), (3, [0]), (-1, [])])
def test_best_marginal_rejects_k_outside_the_non_base_nodes(k, base):
    oracle = SpreadOracle(graph_from("0 1 0.5\n1 2 0.5\n"))
    with pytest.raises(ValueError, match="the non-base nodes"):
        oracle.best_marginal(k, base)


def test_single_item_welfare_is_utility_times_spread():
    rng = random.Random(21)
    for _ in range(5):
        g = random_graph(rng, e_hi=10)
        util = rng.uniform(0.5, 3.0)
        cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 1 + util})
        seeds = sorted(rng.sample(range(g.n), 2))
        alloc = Allocation.of([(v, "a") for v in seeds])
        w = WelfareOracle(g, cat).evaluate(alloc)[0]
        s = SpreadOracle(g).marginal_spread(seeds)
        assert w == pytest.approx(util * s, rel=1e-12)
    unit = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 2})
    for _ in range(5):
        g = random_graph(rng, e_hi=10)
        welfare, spread = WelfareOracle(g, unit), SpreadOracle(g)
        nodes = rng.sample(range(g.n), 4)
        seeds, base_seeds = nodes[:2], nodes[2:]
        base = Allocation.of([(v, "a") for v in base_seeds])
        base_welfare = welfare.evaluate(base)[0]
        want = welfare.evaluate(Allocation.of([(v, "a") for v in seeds]).merged(base))[0]
        assert spread.marginal_spread(seeds, base_seeds) == pytest.approx(
            want - base_welfare, rel=1e-9
        )
        for k in (1, 2):
            _, opt, _ = welfare.optimal({"a": k}, base)
            assert spread.best_marginal(k, base_seeds)[1] == pytest.approx(
                opt - base_welfare, rel=1e-9
            )


def test_single_item_welfare_monotone_in_seeds():
    g = graph_from("0 1 0.5\n1 2 0.5\n2 3 0.5\n")
    cat = ItemCatalog(["a"], prices={"a": 0}, valuations={("a",): 1})
    oracle = WelfareOracle(g, cat)
    prev = 0.0
    for k in range(1, 4):
        alloc = Allocation.of([(v, "a") for v in range(k)])
        cur = oracle.evaluate(alloc)[0]
        assert cur >= prev - 1e-12
        prev = cur


def _relaxed_le(a, b):
    # float associativity differs between the two sides of the identity
    return a <= b + 1e-9 * (1 + abs(b))


def test_sandwich_bounds_hold_on_random_instances():
    rng = random.Random(2024)
    for _ in range(6):
        g = random_graph(rng, e_hi=10)
        cat = random_coverage_catalog(rng)
        alloc = random_allocation(rng, g, cat, pairs=2)
        if not alloc:
            continue
        lo = u_min(cat)
        hi = u_max(cat)
        rho = WelfareOracle(g, cat).evaluate(alloc)[0]
        sigma = SpreadOracle(g).marginal_spread(sorted(alloc.seed_nodes()))
        assert _relaxed_le(lo * sigma, rho)
        assert _relaxed_le(rho, hi * sigma)


@pytest.mark.parametrize("per_chunk", [1, 5])
def test_oracle_results_do_not_depend_on_the_chunk_size(monkeypatch, per_chunk):
    g = graph_from("0 1 0.5\n1 2 0.7\n2 3 0.5\n0 3 0.3\n")
    cat = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 2.5, ("a", "b"): 3.2},
        noise={"b": NoiseSpec.two_point(0.4)},
    )
    oracle, alloc = WelfareOracle(g, cat), Allocation.of([(0, "a"), (2, "b")])
    whole = (oracle.evaluate(alloc)[0], oracle.evaluate(alloc)[1])
    assert diffusion.chunk_worlds(g, cat) >= len(oracle.worlds) == 32
    monkeypatch.setattr(diffusion, "CHUNK_CELLS", per_chunk * max(g.n, g.m))
    batches = []
    real = diffusion.simulate
    monkeypatch.setattr(diffusion, "simulate", lambda *a: batches.append(len(a[3])) or real(*a))
    chunked = (oracle.evaluate(alloc)[0], oracle.evaluate(alloc)[1])
    assert repr(chunked) == repr(whole)  # bit for bit
    assert max(batches) == per_chunk and sum(batches) == 2 * len(oracle.worlds)


@pytest.mark.parametrize("per_chunk", [None, 3])
def test_item_adoption_means_add_each_worlds_weighted_count_in_world_order(
    monkeypatch, per_chunk
):
    g = graph_from("0 1 0.5\n1 2 0.7\n2 3 0.3\n0 3 0.9\n3 1 0.6\n")
    cat = ItemCatalog(
        ["a", "b", "c"],
        prices={"a": 1, "b": 1, "c": 1},
        valuations={("a",): 3, ("b",): 2.5, ("c",): 1.7, ("a", "b"): 3.2, ("b", "c"): 3.9},
        noise={"b": NoiseSpec.two_point(0.4), "c": NoiseSpec.two_point(0.3)},
    )
    oracle, alloc = WelfareOracle(g, cat), Allocation.of([(0, "a"), (2, "b"), (1, "c")])
    counts = diffusion.simulate(g, cat, alloc, oracle.worlds).item_counts
    want = {}
    for item in cat.items:
        total = 0.0
        for p, c in zip(oracle.probs, counts[item]):
            total += p * c  # in world order
        want[item] = total.hex()
    if per_chunk:
        monkeypatch.setattr(diffusion, "CHUNK_CELLS", per_chunk * max(g.n, g.m))
    got = oracle.evaluate(alloc)[1]
    assert {item: mean.hex() for item, mean in got.items()} == want  # bit for bit
    assert math.fsum(got.values()) > 0
