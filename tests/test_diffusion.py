import random

import pytest

from welfaremax.diffusion import (
    Allocation,
    DiffusionError,
    PossibleWorld,
    estimate_marginal_welfare,
    estimate_welfare,
    simulate,
)
from welfaremax.oracle import SpreadOracle, WelfareOracle
from welfaremax.utility import ItemCatalog, NoiseWorld

from conftest import graph_from, random_graph


def certain_world(graph, catalog):
    return PossibleWorld.fixed([True] * graph.m, NoiseWorld.silent(catalog))


def test_single_seed_carries_item_downstream(pair_graph, trio_catalog):
    res = simulate(pair_graph, trio_catalog, Allocation.of([(0, "i1")]), certain_world(pair_graph, trio_catalog))
    assert res.adoption == {0: frozenset({"i1"}), 1: frozenset({"i1"})}
    assert res.welfare == 8.0
    assert res.item_counts == {"i1": 2, "i2": 0, "i3": 0}
    assert res.rounds == 2


def test_downstream_seed_blocks_upgrade(pair_graph, trio_catalog):
    alloc = Allocation.of([(0, "i1"), (1, "i2")])
    res = simulate(pair_graph, trio_catalog, alloc, certain_world(pair_graph, trio_catalog))
    # the pair bundle is worth less than i2 alone, so node 1 keeps i2
    assert res.adoption[1] == frozenset({"i2"})
    assert res.welfare == 7.0


def test_empty_allocation(pair_graph, trio_catalog):
    res = simulate(pair_graph, trio_catalog, Allocation.empty(), certain_world(pair_graph, trio_catalog))
    assert res.adoption == {}
    assert res.welfare == 0.0
    assert res.rounds == 0


def test_partial_competition_upgrade(pair_graph, trio_catalog):
    # node 1 holds i3; i1 arriving later upgrades it to the 1-3 bundle
    base = Allocation.of([(1, "i2"), (1, "i3")])
    world = certain_world(pair_graph, trio_catalog)
    r0 = simulate(pair_graph, trio_catalog, base, world)
    assert r0.adoption[1] == frozenset({"i3"})
    assert r0.welfare == 4.0
    r1 = simulate(pair_graph, trio_catalog, base.merged(Allocation.of([(0, "i1")])), world)
    assert r1.adoption[1] == frozenset({"i1", "i3"})
    assert r1.welfare - r0.welfare == 5.0


def test_seed_with_no_viable_bundle_adopts_nothing():
    g = graph_from("0 1 1\n")
    cat = ItemCatalog(["a"], prices={"a": 5}, valuations={("a",): 3})
    res = simulate(g, cat, Allocation.of([(0, "a")]), certain_world(g, cat))
    assert res.adoption == {}
    assert res.welfare == 0.0


def test_blocked_edges_stop_propagation(pair_graph, trio_catalog):
    world = PossibleWorld.fixed([False], NoiseWorld.silent(trio_catalog))
    res = simulate(pair_graph, trio_catalog, Allocation.of([(0, "i1")]), world)
    assert res.adoption == {0: frozenset({"i1"})}
    assert res.welfare == 4.0


def test_single_item_adoption_equals_reachability():
    rng = random.Random(5)
    g = random_graph(rng)
    cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 2})
    alloc = Allocation.of([(0, "a"), (g.n - 1, "a")])
    for trial in range(20):
        world = PossibleWorld.sample(g, cat, random.Random(trial))
        res = simulate(g, cat, alloc, world)
        # replay reachability over the same live edges
        live = [world.edge_live(eid, p) for eid, (_, _, p) in enumerate(g.edges)]
        reach = set(alloc.seed_nodes())
        frontier = list(reach)
        while frontier:
            u = frontier.pop()
            for v, _, eid in g.out_adj[u]:
                if live[eid] and v not in reach:
                    reach.add(v)
                    frontier.append(v)
        assert set(res.adoption) == reach
        assert res.welfare == pytest.approx(len(reach) * 1.0)


def test_simulate_rejects_large_catalogs(pair_graph):
    items = [f"x{k}" for k in range(11)]
    cat = ItemCatalog(
        items,
        prices={it: 0 for it in items},
        valuations={(it,): 1 for it in items},
    )
    with pytest.raises(DiffusionError, match="m <= 10"):
        simulate(pair_graph, cat, Allocation.empty(), certain_world(pair_graph, cat))


def test_adoption_ties_prefer_larger_then_smaller_mask():
    g = graph_from("0 1 1\n")
    # both singles and the pair all have utility 2
    cat = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 3, ("a", "b"): 4},
    )
    res = simulate(g, cat, Allocation.of([(0, "a"), (0, "b")]), certain_world(g, cat))
    assert res.adoption[0] == frozenset({"a", "b"})
    # equal utility, equal size: the lexicographically smaller mask wins
    cat2 = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 3, ("a", "b"): 3.5},
    )
    res2 = simulate(g, cat2, Allocation.of([(0, "a"), (0, "b")]), certain_world(g, cat2))
    assert res2.adoption[0] == frozenset({"a"})


def test_estimate_welfare_deterministic_graph(pair_graph, trio_catalog):
    est = estimate_welfare(pair_graph, trio_catalog, Allocation.of([(0, "i1")]), 1000, seed=3)
    assert est.mean == 8.0
    assert est.stderr == 0.0
    assert est.item_means["i1"] == 2.0


def test_estimate_welfare_matches_oracle_within_three_stderr():
    g = graph_from("0 1 0.5\n0 2 0.5\n1 3 0.5\n2 3 0.5\n")
    cat = ItemCatalog(["a"], prices={"a": 0}, valuations={("a",): 1})
    alloc = Allocation.of([(0, "a")])
    exact = WelfareOracle(g, cat).welfare(alloc)
    est = estimate_welfare(g, cat, alloc, 10_000, seed=7)
    assert abs(est.mean - exact) <= 3 * est.stderr
    # single zero-noise item: welfare is utility times spread
    assert exact == pytest.approx(SpreadOracle(g).spread([0]))


def test_estimate_welfare_deterministic_in_seed(pair_graph, trio_catalog):
    g = graph_from("0 1 0.5\n1 2 0.7\n")
    a = estimate_welfare(g, trio_catalog, Allocation.of([(0, "i1")]), 500, seed=11)
    b = estimate_welfare(g, trio_catalog, Allocation.of([(0, "i1")]), 500, seed=11)
    assert a == b
    d = estimate_welfare(g, trio_catalog, Allocation.of([(0, "i1")]), 500, seed=12)
    assert d != a


def test_marginal_with_empty_base_equals_plain_estimate(pair_graph, trio_catalog):
    alloc = Allocation.of([(0, "i1")])
    mean, stderr = estimate_marginal_welfare(
        pair_graph, trio_catalog, alloc, Allocation.empty(), 400, seed=2
    )
    est = estimate_welfare(pair_graph, trio_catalog, alloc, 400, seed=2)
    assert mean == est.mean


def test_marginal_on_counterexample_fixture(pair_graph, trio_catalog):
    mean, stderr = estimate_marginal_welfare(
        pair_graph,
        trio_catalog,
        Allocation.of([(0, "i1")]),
        Allocation.of([(1, "i2")]),
        200,
        seed=4,
    )
    assert (mean, stderr) == (4.0, 0.0)


def test_marginal_matches_oracle_on_random_instance():
    rng = random.Random(99)
    g = graph_from("0 1 0.5\n1 2 0.7\n2 3 0.5\n3 4 0.3\n0 5 0.5\n5 4 0.7\n")
    cat = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 2.5, ("a", "b"): 3.2},
    )
    base = Allocation.of([(5, "b")])
    cand = Allocation.of([(0, "a")])
    oracle = WelfareOracle(g, cat)
    exact = oracle.marginal(cand, base)
    mean, stderr = estimate_marginal_welfare(g, cat, cand, base, 20_000, seed=13)
    assert abs(mean - exact) <= 3 * stderr


def test_marginal_rejects_overlap(pair_graph, trio_catalog):
    with pytest.raises(DiffusionError, match="overlap"):
        estimate_marginal_welfare(
            pair_graph,
            trio_catalog,
            Allocation.of([(0, "i1")]),
            Allocation.of([(0, "i1")]),
            10,
            seed=0,
        )


def test_progressive_upgrades_only_grow():
    # a chain where the bundle upgrade cascades one hop per round
    g = graph_from("0 2 1\n1 2 1\n2 3 1\n")
    cat = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 2.5, ("a", "b"): 4.5},
    )
    alloc = Allocation.of([(0, "a"), (1, "b")])
    res = simulate(g, cat, alloc, certain_world(g, cat))
    assert res.adoption[2] == frozenset({"a", "b"})
    assert res.adoption[3] == frozenset({"a", "b"})
    assert res.welfare == pytest.approx(3 - 1 + 2.5 - 1 + 2 * 2.5)
