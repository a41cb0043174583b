import gc
import math
import random
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from welfaremax import diffusion
from welfaremax.allocators import AllocatorConfig
from welfaremax.diffusion import (
    Allocation,
    DiffusionError,
    DiffusionResult,
    PossibleWorld,
    estimate_marginal_welfare,
    estimate_welfare,
    simulate,
    world_runs,
)
from welfaremax.graph import Graph
from welfaremax.oracle import SpreadOracle, WelfareOracle
from welfaremax.ris import sample_rr, sample_weighted_rr
from welfaremax.rng import _splitmix64, derive_rng, derive_seed
from welfaremax.selectors import prima_plus
from welfaremax.utility import ItemCatalog, NoiseSpec, load_catalog_config, utility

from conftest import (
    CONFIGS,
    graph_from,
    random_allocation,
    random_coverage_catalog,
    random_graph,
    silent_noise,
)


def certain_world(graph, catalog):
    return PossibleWorld.fixed([True] * graph.m, silent_noise(catalog))


def coin(key, eid):
    """A sampled world's uniform for edge `eid`: output `eid` of the
    SplitMix64 stream seeded at `key`."""
    return (_splitmix64((key + eid * 0x9E3779B97F4A7C15) % 2**64) >> 11) * 2.0**-53


def live_flags(world, graph):
    """A sampled world's live flag per edge, one `coin` call per edge."""
    return [coin(world.key, eid) < p for eid, p in enumerate(graph.probs.tolist())]


def test_single_seed_carries_item_downstream(pair_graph, trio_catalog):
    world = certain_world(pair_graph, trio_catalog)
    res = simulate(pair_graph, trio_catalog, Allocation.of([(0, "i1")]), [world])
    assert res.adoption == {(0, 0): frozenset({"i1"}), (0, 1): frozenset({"i1"})}
    assert res.welfare == [8.0]
    assert res.item_counts == {"i1": [2], "i2": [0], "i3": [0]}
    assert res.rounds == [2]


def test_downstream_seed_blocks_upgrade(pair_graph, trio_catalog):
    alloc = Allocation.of([(0, "i1"), (1, "i2")])
    res = simulate(pair_graph, trio_catalog, alloc, [certain_world(pair_graph, trio_catalog)])
    # the pair bundle is worth less than i2 alone, so node 1 keeps i2
    assert res.adoption[0, 1] == frozenset({"i2"})
    assert res.welfare == [7.0]


def test_empty_allocation(pair_graph, trio_catalog):
    world = certain_world(pair_graph, trio_catalog)
    res = simulate(pair_graph, trio_catalog, Allocation.empty(), [world])
    assert res.adoption == {}
    assert res.welfare == [0.0]
    assert res.rounds == [0]


def test_partial_competition_upgrade(pair_graph, trio_catalog):
    # node 1 holds i3; i1 arriving later upgrades it to the 1-3 bundle
    base = Allocation.of([(1, "i2"), (1, "i3")])
    world = certain_world(pair_graph, trio_catalog)
    r0 = simulate(pair_graph, trio_catalog, base, [world])
    assert r0.adoption[0, 1] == frozenset({"i3"})
    assert r0.welfare == [4.0]
    r1 = simulate(pair_graph, trio_catalog, base.merged(Allocation.of([(0, "i1")])), [world])
    assert r1.adoption[0, 1] == frozenset({"i1", "i3"})
    assert r1.welfare[0] - r0.welfare[0] == 5.0


def test_seed_with_no_viable_bundle_adopts_nothing():
    g = graph_from("0 1 1\n")
    cat = ItemCatalog(["a"], prices={"a": 5}, valuations={("a",): 3})
    res = simulate(g, cat, Allocation.of([(0, "a")]), [certain_world(g, cat)])
    assert res.adoption == {}
    assert res.welfare == [0.0]


def test_blocked_edges_stop_propagation(pair_graph, trio_catalog):
    world = PossibleWorld.fixed([False], silent_noise(trio_catalog))
    res = simulate(pair_graph, trio_catalog, Allocation.of([(0, "i1")]), [world])
    assert res.adoption == {(0, 0): frozenset({"i1"})}
    assert res.welfare == [4.0]


def test_single_item_adoption_equals_reachability():
    rng = random.Random(5)
    g = random_graph(rng)
    cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 2})
    alloc = Allocation.of([(0, "a"), (g.n - 1, "a")])
    worlds = [PossibleWorld.sample(cat, random.Random(trial)) for trial in range(20)]
    res = simulate(g, cat, alloc, worlds)
    for trial, world in enumerate(worlds):
        # replay reachability over the same live edges
        live = live_flags(world, g)
        reach = set(alloc.seed_nodes())
        frontier = list(reach)
        while frontier:
            u = frontier.pop()
            slots = range(g.out_ptr[u], g.out_ptr[u + 1])
            for v, eid in zip(g.out_dst[slots].tolist(), g.out_eid[slots].tolist()):
                if live[eid] and v not in reach:
                    reach.add(v)
                    frontier.append(v)
        assert {v for w, v in res.adoption if w == trial} == reach
        assert res.welfare[trial] == pytest.approx(len(reach) * 1.0)


def test_simulate_rejects_large_catalogs(pair_graph):
    items = [f"x{k}" for k in range(11)]
    cat = ItemCatalog(
        items,
        prices={it: 0 for it in items},
        valuations={(it,): 1 for it in items},
    )
    with pytest.raises(DiffusionError, match="m <= 10"):
        simulate(pair_graph, cat, Allocation.empty(), [certain_world(pair_graph, cat)])



@pytest.mark.parametrize(
    "pairs, message",
    [([(9, "i1")], "seed node 9 outside graph"), ([(0, "z")], "unknown item 'z' in allocation")],
    ids=["node", "item"],
)
def test_simulate_rejects_an_allocation_off_the_instance(pair_graph, trio_catalog, pairs, message):
    world = certain_world(pair_graph, trio_catalog)
    with pytest.raises(DiffusionError, match=re.escape(message)):
        simulate(pair_graph, trio_catalog, Allocation.of(pairs), [world])


def test_world_runs_needs_a_world(pair_graph, trio_catalog):
    with pytest.raises(DiffusionError, match="samples must be >= 1"):
        world_runs(pair_graph, trio_catalog, [Allocation.empty()], 0, lambda idx: None)


def test_seed_parts_are_ints_or_strings():
    with pytest.raises(TypeError, match="seed parts must be int or str, got <class 'float'>"):
        derive_seed(1, 0.5)


def test_adoption_ties_prefer_larger_then_smaller_mask():
    g = graph_from("0 1 1\n")
    # both singles and the pair all have utility 2
    cat = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 3, ("a", "b"): 4},
    )
    res = simulate(g, cat, Allocation.of([(0, "a"), (0, "b")]), [certain_world(g, cat)])
    assert res.adoption[0, 0] == frozenset({"a", "b"})
    # equal utility, equal size: the lexicographically smaller mask wins
    cat2 = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 3, ("a", "b"): 3.5},
    )
    res2 = simulate(g, cat2, Allocation.of([(0, "a"), (0, "b")]), [certain_world(g, cat2)])
    assert res2.adoption[0, 0] == frozenset({"a"})


def test_estimate_welfare_deterministic_graph(pair_graph, trio_catalog):
    est = estimate_welfare(pair_graph, trio_catalog, Allocation.of([(0, "i1")]), 1000, seed=3)
    assert est.mean == 8.0
    assert est.stderr == 0.0
    assert est.item_means["i1"] == 2.0


def test_estimate_welfare_matches_oracle_within_three_stderr():
    g = graph_from("0 1 0.5\n0 2 0.5\n1 3 0.5\n2 3 0.5\n")
    cat = ItemCatalog(["a"], prices={"a": 0}, valuations={("a",): 1})
    alloc = Allocation.of([(0, "a")])
    exact = WelfareOracle(g, cat).evaluate(alloc)[0]
    est = estimate_welfare(g, cat, alloc, 10_000, seed=7)
    assert abs(est.mean - exact) <= 3 * est.stderr
    # single zero-noise item: welfare is utility times spread
    assert exact == pytest.approx(SpreadOracle(g).marginal_spread([0]))


def test_estimate_welfare_deterministic_in_seed(pair_graph, trio_catalog):
    g = graph_from("0 1 0.5\n1 2 0.7\n")
    a = estimate_welfare(g, trio_catalog, Allocation.of([(0, "i1")]), 500, seed=11)
    b = estimate_welfare(g, trio_catalog, Allocation.of([(0, "i1")]), 500, seed=11)
    assert a == b
    d = estimate_welfare(g, trio_catalog, Allocation.of([(0, "i1")]), 500, seed=12)
    assert d != a


def test_marginal_with_empty_base_equals_plain_estimate(pair_graph, trio_catalog):
    alloc = Allocation.of([(0, "i1")])
    ((mean, stderr),) = estimate_marginal_welfare(
        pair_graph, trio_catalog, [alloc], Allocation.empty(), 400, seed=2
    ).estimates
    est = estimate_welfare(pair_graph, trio_catalog, alloc, 400, seed=2)
    assert mean == est.mean


def test_marginal_on_counterexample_fixture(pair_graph, trio_catalog):
    got = estimate_marginal_welfare(
        pair_graph,
        trio_catalog,
        [Allocation.of([(0, "i1")])],
        Allocation.of([(1, "i2")]),
        200,
        seed=4,
    )
    assert got.estimates == [(4.0, 0.0)]


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
    exact = oracle.evaluate(cand.merged(base))[0] - oracle.evaluate(base)[0]
    ((mean, stderr),) = estimate_marginal_welfare(g, cat, [cand], base, 20_000, seed=13).estimates
    assert abs(mean - exact) <= 3 * stderr


def test_marginal_rejects_overlap(pair_graph, trio_catalog):
    with pytest.raises(DiffusionError, match="overlap"):
        estimate_marginal_welfare(
            pair_graph,
            trio_catalog,
            [Allocation.empty(), Allocation.of([(0, "i1")])],
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
    res = simulate(g, cat, alloc, [certain_world(g, cat)])
    assert res.adoption[0, 2] == frozenset({"a", "b"})
    assert res.adoption[0, 3] == frozenset({"a", "b"})
    assert res.welfare[0] == pytest.approx(3 - 1 + 2.5 - 1 + 2 * 2.5)


# -- differential tests of the fast path ---------------------------------------


def fractional_graph(rng: random.Random, n_hi=40, m_hi=160, probs=None) -> Graph:
    """Random digraph; each edge probability is 0, 1 or uniform unless given."""
    n = rng.randint(0, n_hi)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    rng.shuffle(pairs)
    edges = []
    for u, v in pairs[: rng.randint(0, min(m_hi, len(pairs)))]:
        p = rng.choice(probs) if probs else rng.choice((0.0, 1.0, rng.random(), rng.random()))
        edges.append((u, v, p))
    return Graph(n, edges)


NOISE_CATALOGS = [
    ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 2}),
    ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 2, ("b",): 2, ("a", "b"): 3},
        noise={"a": NoiseSpec.gaussian(0.7), "b": NoiseSpec.two_point(0.4)},
    ),
    ItemCatalog(
        ["a", "b", "c"],
        prices={"a": 1, "b": 1, "c": 1},
        valuations={("a",): 2},
        noise={"b": NoiseSpec.truncated_gaussian(0.5, 0.6), "c": NoiseSpec.gaussian(1.0)},
    ),
]


@pytest.mark.parametrize("catalog", NOISE_CATALOGS, ids=["zero", "gauss-two-point", "truncated"])
@pytest.mark.parametrize("probs", [None, (0.0,), (1.0,), (0.0, 1.0)], ids=["mixed", "p0", "p1", "p01"])
def test_sampled_world_flags_equal_per_edge_random_calls(catalog, probs):
    """A sampled world draws its noise, then one 64-bit key, and holds no
    flags; `simulate`'s coins are the per-edge `coin` calls, bit for bit."""
    rng = random.Random(f"flags/{probs}")
    graphs = [Graph(3, [])] + [fractional_graph(rng, probs=probs) for _ in range(12)]
    assert any(g.m == 0 for g in graphs)
    for trial, g in enumerate(graphs):
        seed = rng.getrandbits(64)
        fast_rng, slow_rng = random.Random(seed), random.Random(seed)
        world = PossibleWorld.sample(catalog, fast_rng)
        noise = tuple(spec.sample(slow_rng) for spec in catalog.noise_specs)
        assert world.noise == noise, trial
        assert world.key == slow_rng.getrandbits(64) and world.live is None, trial
        assert fast_rng.getstate() == slow_rng.getstate(), trial
        keys = np.full(g.m, world.key, dtype=np.uint64)
        coins = diffusion._coin_bits(keys, np.arange(g.m, dtype=np.uint64)) * 2.0**-53
        assert coins.tolist() == [coin(world.key, eid) for eid in range(g.m)], trial
        assert (coins < g.probs).tolist() == live_flags(world, g), trial


@pytest.mark.parametrize("key", [0, 2**63, 2**64 - 1, 0x5DEECE66D, 2**64 - 2**53])
def test_integer_coin_threshold_is_the_float_test(key):
    """`simulate` keeps edge eid live when the coin's 53 bits, as an
    integer, are below ``ceil(p * 2**53)`` (`Graph.out_limits`): exactly
    ``coin < p``, at the edge probabilities where rounding could differ and
    at p equal to the edge's own coin and one ulp either side of it."""
    fixed = [0.0, -0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]
    drawn = [coin(key, eid) for eid in range(len(fixed), len(fixed) + 60)]
    probs = fixed + [
        [c, math.nextafter(c, 2.0), math.nextafter(c, -1.0)][eid % 3] for eid, c in enumerate(drawn)
    ]
    probs = [0.0 if p < 0.0 else p for p in probs]  # one ulp below a coin of 0; -0.0 stays
    g = Graph(len(probs) + 1, [(0, leaf + 1, p) for leaf, p in enumerate(probs)])
    assert g.out_limits.tolist() == [math.ceil(p * 2.0**53) for p in probs]
    want = [coin(key, eid) < p for eid, p in enumerate(probs)]
    keys = np.full(g.m, key, dtype=np.uint64)
    eids = np.arange(g.m)
    bits = diffusion._coin_bits(keys, eids.astype(np.uint64))
    assert (bits < g.out_limits).tolist() == want
    assert (bits * 2.0**-53 < g.probs).tolist() == want
    # and through `simulate`: a leaf adopts exactly when its edge is live
    cat = NOISE_CATALOGS[0]
    result = simulate(g, cat, Allocation.of([(0, "a")]), [PossibleWorld((0.0,), key=key)])
    assert [(0, leaf + 1) in result.adoption for leaf in range(g.m)] == want


def reference_simulate(graph, catalog, allocation, noise, edge_live):
    """The simulator as it was before possible worlds cached live edges:
    one world, dense per-node state, edges tested through
    ``edge_live(eid, p)``; the result is that of a batch of one world."""
    n = graph.n
    util_cache = {0: 0.0}

    def util(mask):
        if mask not in util_cache:
            total = catalog.value(mask)
            for i in range(catalog.m):
                if mask >> i & 1:
                    total += noise[i] - catalog.item_prices[i]
            util_cache[mask] = total
        return util_cache[mask]

    def best_feasible(desire, current):
        free = desire & ~current
        best_mask, best_u, best_size = current, util(current), bin(current).count("1")
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

    out_adj = [[] for _ in range(n)]
    for eid, (u, v, p) in enumerate(graph.edges):
        out_adj[u].append((v, p, eid))
    desire = [0] * n
    adopt = [0] * n
    tested = [False] * graph.m
    live_out = [[] for _ in range(n)]
    for node, item in allocation.pairs:
        desire[node] |= 1 << catalog.index[item]
    frontier = []
    for node in sorted(allocation.seed_nodes()):
        chosen = best_feasible(desire[node], 0)
        if chosen:
            adopt[node] = chosen
            frontier.append(node)
    rounds = 1 if frontier else 0
    while frontier:
        gained = {}
        for u in frontier:
            for v, p, eid in out_adj[u]:
                if not tested[eid]:
                    tested[eid] = True
                    if edge_live(eid, p):
                        live_out[u].append(v)
            for v in live_out[u]:
                new = adopt[u] & ~desire[v]
                if new:
                    gained[v] = gained.get(v, 0) | new
        next_frontier = []
        for v in sorted(gained):
            desire[v] |= gained[v]
            chosen = best_feasible(desire[v], adopt[v])
            if chosen != adopt[v]:
                adopt[v] = chosen
                next_frontier.append(v)
        if next_frontier:
            rounds += 1
        frontier = next_frontier
    adoption = {}
    counts = {item: [0] for item in catalog.items}
    parts = []
    for v in range(n):
        if adopt[v]:
            adoption[0, v] = frozenset(catalog.itemset(adopt[v]))
            parts.append(util(adopt[v]))
            for i in range(catalog.m):
                if adopt[v] >> i & 1:
                    counts[catalog.items[i]][0] += 1
    return DiffusionResult(adoption, [math.fsum(parts)], counts, [rounds])


def world_result(result, w):
    """World w of a batch result, as the result of a batch of that world alone."""
    return DiffusionResult(
        {(0, v): bundle for (x, v), bundle in result.adoption.items() if x == w},
        result.welfare[w : w + 1],
        {item: counts[w : w + 1] for item, counts in result.item_counts.items()},
        result.rounds[w : w + 1],
    )


def assert_same_result(got, want):
    assert got == want
    assert [x.hex() for x in got.welfare] == [x.hex() for x in want.welfare]  # bit for bit
    assert list(got.adoption) == list(want.adoption)
    assert list(got.item_counts) == list(want.item_counts)


def test_world_sums_are_the_per_adopter_fsum_bit_for_bit():
    """`_world_sums` takes each world's welfare from (utility, adopter
    count) cells; it must be the very float that `math.fsum` gives over the
    world's utilities adopter by adopter, on values where a product rounded
    once would differ: `trio_blocking`'s near-cancelling utilities, values
    near the float range's ends, subnormals, negative and signed-zero
    utilities, and one cell of 2^20 adopters."""
    with open(CONFIGS / "trio_blocking.cfg") as f:
        trio = load_catalog_config(f).catalog
    pool = sorted(set((trio.values - trio.prices).tolist()))  # 10.1 - 10, 10.11 - 10, ...
    pool += [10.1, 10.11, -10.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 2.5e-323,
             1e-310, -3.3e-311, 0.0, -0.0, 0.1, -0.3, 1.0 / 3.0]
    rng = random.Random(2 ** 20)
    cells = []  # (world, utility, count)
    count = 60
    for world in range(count):
        if world % 7 == 3:
            continue  # a world without adopters
        for value in rng.sample(pool, rng.randint(1, 6)):
            cells.append((world, value, rng.choice([1, 2, 3, 7, 255, 1000, rng.randint(1, 5000)])))
    big = count - 1  # one cell of 2^20 adopters against cells that nearly cancel it
    cells += [(big, 10.11 - 10.0, 2**20), (big, -(10.1 - 10.0), 2**20 - 3), (big, 1e-300, 5)]
    cells.sort(key=lambda cell: cell[0])
    owner = np.array([w for w, _, _ in cells], dtype=np.int64)
    values = np.array([v for _, v, _ in cells])
    adopters = np.array([c for _, _, c in cells], dtype=np.int64)
    got = diffusion._world_sums(owner, values, adopters, count)
    want = [math.fsum(v for w, value, c in cells if w == world for v in [value] * c)
            for world in range(count)]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert got[3] == 0.0  # no adopters
    assert diffusion._world_sums(owner[:0], values[:0], adopters[:0], 2) == [0.0, 0.0]


def test_simulate_matches_reference_on_sampled_worlds():
    rng = random.Random(2024)
    for trial in range(40):
        g = fractional_graph(rng, n_hi=30, m_hi=120)
        if g.n == 0:
            continue
        cat = random_coverage_catalog(rng, m_hi=4)
        allocations = [random_allocation(rng, g, cat, pairs=rng.randint(0, 5)) for _ in range(4)]
        seed = rng.getrandbits(64)
        world = PossibleWorld.sample(cat, random.Random(seed))
        slow_rng = random.Random(seed)
        noise = tuple(spec.sample(slow_rng) for spec in cat.noise_specs)
        key = slow_rng.getrandbits(64)
        # one world replayed under several allocations
        for alloc in allocations:
            want = reference_simulate(g, cat, alloc, noise, lambda eid, p: coin(key, eid) < p)
            assert_same_result(simulate(g, cat, alloc, [world]), want)


def test_simulate_matches_reference_on_fixed_worlds():
    rng = random.Random(77)
    for trial in range(40):
        g = fractional_graph(rng, n_hi=20, m_hi=80)
        if g.n == 0:
            continue
        cat = random_coverage_catalog(rng, m_hi=4)
        flags = [rng.random() < 0.6 for _ in range(g.m)]
        noise = tuple(spec.sample(rng) for spec in cat.noise_specs)
        world = PossibleWorld.fixed(flags, noise)
        for _ in range(3):
            alloc = random_allocation(rng, g, cat, pairs=rng.randint(1, 6))
            want = reference_simulate(g, cat, alloc, noise, lambda eid, p: flags[eid])
            assert_same_result(simulate(g, cat, alloc, [world]), want)


@pytest.mark.parametrize("probs", [None, (0.0,), (1.0,), (0.0, 1.0)], ids=["mixed", "p0", "p1", "p01"])
def test_simulate_matches_the_coin_reference_at_extreme_keys(probs):
    rng = random.Random(f"coins/{probs}")
    keys = [0, 2**64 - 1, 2**63, 1]
    for trial in range(25):
        g = fractional_graph(rng, n_hi=25, m_hi=100, probs=probs)
        if g.n == 0:
            continue
        cat = random_coverage_catalog(rng, m_hi=3)
        worlds = [PossibleWorld(silent_noise(cat), key=key) for key in keys]
        for _ in range(3):
            alloc = random_allocation(rng, g, cat, pairs=rng.randint(1, 5))
            batch = simulate(g, cat, alloc, worlds)
            for w, key in enumerate(keys):
                want = reference_simulate(
                    g, cat, alloc, worlds[w].noise, lambda eid, p: coin(key, eid) < p
                )
                assert_same_result(world_result(batch, w), want)


def test_edge_coins_are_unbiased_and_independent():
    """20,000 sampled worlds on a star whose leaf adopts exactly when its
    edge is live: each edge's live fraction, and the joint fraction of
    neighbouring edges and of one edge in consecutive worlds, lie within 4
    standard errors of p and of the product of the probabilities."""
    probs = [0.001, 0.1, 0.5, 0.999, 0.5, 0.001, 0.999, 0.1]
    g = Graph(len(probs) + 1, [(0, leaf + 1, p) for leaf, p in enumerate(probs)])
    cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 2})
    count = 20_000
    worlds = [PossibleWorld.sample(cat, derive_rng(17, idx)) for idx in range(count)]
    adoption = simulate(g, cat, Allocation.of([(0, "a")]), worlds).adoption
    live = np.zeros((count, g.m), dtype=bool)
    for w, v in adoption:
        if v:
            live[w, v - 1] = True

    def within_4_stderr(hits: np.ndarray, p: float) -> bool:
        return abs(hits.mean() - p) <= 4 * math.sqrt(p * (1 - p) / len(hits))

    for eid, p in enumerate(probs):
        assert within_4_stderr(live[:, eid], p), eid
        assert within_4_stderr(live[1:, eid] & live[:-1, eid], p * p), eid
    for eid, (p, q) in enumerate(zip(probs, probs[1:])):
        assert within_4_stderr(live[:, eid] & live[:, eid + 1], p * q), eid


def test_mis_sized_or_mixed_worlds_fail_loudly():
    g = graph_from("0 1 1\n1 2 1\n")
    cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 2})
    alloc = Allocation.of([(0, "a")])
    every = PossibleWorld.fixed([True, True], (0.0,))
    none = PossibleWorld.fixed([False, False], (0.0,))
    assert simulate(g, cat, alloc, [none, every]).welfare == [1.0, 3.0]
    cases = [
        ([PossibleWorld.fixed([False] * 3, (0.0,)), every], "3 edge flags; the graph has 2"),
        ([every, PossibleWorld.fixed([True], (0.0,))], "1 edge flags; the graph has 2"),
        ([every, PossibleWorld.fixed([True, True], (0.0, 0.0))], "2 noise values for 1 items"),
        ([PossibleWorld((), key=5)], "0 noise values for 1 items"),
        ([every, PossibleWorld((0.0,), key=5)], "mixes sampled and fixed worlds"),
    ]
    for worlds, message in cases:
        with pytest.raises(DiffusionError, match=message):
            simulate(g, cat, alloc, worlds)
    for live, key in [(None, None), (b"\x01\x01", 5)]:
        with pytest.raises(DiffusionError, match="either live flags or a key"):
            PossibleWorld((0.0,), live, key)


def continuous_noise_catalog(rng: random.Random, m: int) -> ItemCatalog:
    """m items, every one with gaussian or truncated gaussian noise, and a
    listed value for every bundle, so that bundles of any size can win."""
    items = [f"it{k}" for k in range(m)]
    singles = [rng.uniform(1.0, 2.5) for _ in items]
    valuations = {}
    for mask in range(1, 1 << m):
        members = [k for k in range(m) if mask >> k & 1]
        scale = 1.0 if len(members) == 1 else rng.uniform(0.6, 1.0)
        valuations[tuple(items[k] for k in members)] = scale * sum(singles[k] for k in members)
    prices = {it: rng.uniform(0.8, 2.0) for it in items}
    noise = {
        it: NoiseSpec.gaussian(rng.uniform(0.2, 1.0))
        if rng.random() < 0.5
        else NoiseSpec.truncated_gaussian(rng.uniform(0.2, 1.0), rng.uniform(0.3, 1.5))
        for it in items
    }
    return ItemCatalog(items, prices, valuations, noise)


def assert_batch_matches_reference(rng, g, cat, worlds):
    for _ in range(3):
        alloc = random_allocation(rng, g, cat, pairs=rng.randint(0, 6))
        batch = simulate(g, cat, alloc, worlds)
        assert len(batch.welfare) == len(batch.rounds) == len(worlds)
        for w, world in enumerate(worlds):
            live = live_flags(world, g) if world.live is None else world.live
            want = reference_simulate(g, cat, alloc, world.noise, lambda eid, p: live[eid])
            assert_same_result(world_result(batch, w), want)
        per_world = [world_result(batch, w).adoption for w in range(len(worlds))]
        assert len(batch.adoption) == sum(map(len, per_world))


def test_one_batch_of_mixed_noise_worlds_matches_reference_world_by_world():
    rng = random.Random(404)
    cat = NOISE_CATALOGS[1]  # gaussian noise on a, two-point noise on b
    shared = [(0.0, 0.4), (0.0, -0.4), (-0.0, 0.4)]
    for trial in range(15):
        g = fractional_graph(rng, n_hi=25, m_hi=100)
        if g.n == 0:
            continue
        seeds = [rng.getrandbits(64) for _ in range(rng.randint(1, 8))]
        sampled = [PossibleWorld.sample(cat, random.Random(seed)) for seed in seeds]
        # fixed worlds only, as a batch holds one kind: the sampled worlds'
        # flags, worlds that share a noise vector, and one world twice
        worlds = [PossibleWorld.fixed(live_flags(world, g), world.noise) for world in sampled]
        worlds += [PossibleWorld.fixed([rng.random() < 0.5 for _ in range(g.m)], noise)
                   for noise in shared + shared]
        worlds.append(worlds[0])
        rng.shuffle(worlds)
        assert len({w.noise for w in worlds}) > 1
        assert_batch_matches_reference(rng, g, cat, worlds)
    sizes = set()
    for trial in range(12):
        g = fractional_graph(rng, n_hi=25, m_hi=100)
        if g.n == 0:
            continue
        cat = continuous_noise_catalog(rng, rng.randint(4, 6))
        sizes.add(cat.m)
        worlds = [PossibleWorld.sample(cat, random.Random(rng.getrandbits(64)))
                  for _ in range(rng.randint(2, 8))]
        assert len({w.noise for w in worlds}) == len(worlds)  # a table row per world
        assert_batch_matches_reference(rng, g, cat, worlds)
    assert sizes == {4, 5, 6}  # 16, 32 and 64 table columns


def test_many_adopters_of_many_bundles_match_reference_world_by_world():
    """A batch whose worlds each hold dozens of adopters of several bundles,
    every world with its own gaussian noise vector: each world's welfare,
    bit for bit, its adoption and its item counts are the reference's."""
    rng = random.Random(8)
    n = 80
    g = Graph(n, [(u, v, rng.uniform(0.2, 1.0)) for u in range(n) for v in range(n)
                  if u != v and rng.random() < 0.06])
    cat = ItemCatalog(
        ["a", "b", "c"],
        prices={"a": 1, "b": 1.1, "c": 0.9},
        valuations={("a",): 3, ("b",): 2.9, ("c",): 2.2, ("a", "b"): 3.5, ("a", "c"): 4.6,
                    ("b", "c"): 3.9, ("a", "b", "c"): 4.8},
        noise={it: NoiseSpec.gaussian(0.6) for it in "abc"},
    )
    worlds = [PossibleWorld.sample(cat, derive_rng(5, idx)) for idx in range(12)]
    assert len({w.noise for w in worlds}) == len(worlds)
    alloc = Allocation.of([(v, it) for v, it in zip(range(0, 30, 2), "abc" * 5)])
    batch = simulate(g, cat, alloc, worlds)
    for w, world in enumerate(worlds):
        live = live_flags(world, g)
        want = reference_simulate(g, cat, alloc, world.noise, lambda eid, p: live[eid])
        assert_same_result(world_result(batch, w), want)
        bundles = list(want.adoption.values())
        assert len(set(bundles)) >= 2 and max(map(bundles.count, bundles)) >= 20
    assert len(batch.adoption) > 12 * 60


def test_worlds_keep_no_reference_to_their_graph():
    g = fractional_graph(random.Random(3), n_hi=30)
    cat = NOISE_CATALOGS[1]
    ref = weakref.ref(g)
    worlds = [PossibleWorld.sample(cat, random.Random(i)) for i in range(5)]
    simulate(g, cat, Allocation.of([(0, "a"), (1, "b")]), worlds)
    estimate_welfare(g, cat, Allocation.of([(0, "a")]), 5, seed=1)
    # the RR samplers cache per-node skip arrays on the graph itself, not in a
    # table keyed by graph that would keep every graph alive
    sample_rr(g, 50, derive_rng(1))
    base = Allocation.of([(1, "b")])
    sample_weighted_rr(g, base, "a", cat, 50, derive_rng(2), {"a": 1.0, "b": 0.5})
    prima_plus(g, 0.5, 1.0, frozenset(), [1], 1, derive_rng(3))
    del g, worlds
    gc.collect()
    assert ref() is None


# -- properties of one diffusion ------------------------------------------------


@st.composite
def diffusion_cases(draw):
    """A random graph, catalog, allocation and sampled world."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    graph = fractional_graph(rng, n_hi=12, m_hi=40) if rng.random() < 0.5 else random_graph(rng)
    catalog = (
        random_coverage_catalog(rng) if rng.random() < 0.7 else rng.choice(NOISE_CATALOGS)
    )
    allocation = random_allocation(rng, graph, catalog, pairs=rng.randint(0, 4)) if graph.n else (
        Allocation.empty()
    )
    return graph, catalog, allocation, PossibleWorld.sample(catalog, rng)


@given(diffusion_cases())
@settings(max_examples=100, deadline=None)
def test_simulate_is_deterministic_per_world(case):
    graph, catalog, allocation, world = case
    result = simulate(graph, catalog, allocation, [world])
    # on the same world object, on a copy, and as every world of a longer batch
    assert simulate(graph, catalog, allocation, [world]) == result
    copy = PossibleWorld(world.noise, key=world.key)
    assert simulate(graph, catalog, allocation, [copy]) == result
    batch = simulate(graph, catalog, allocation, [world] * 3)
    assert all(world_result(batch, w) == result for w in range(3))


@given(diffusion_cases())
@settings(max_examples=100, deadline=None)
def test_adoption_is_a_subset_of_desire(case):
    graph, catalog, allocation, world = case
    result = simulate(graph, catalog, allocation, [world])
    adoption = {v: bundle for (_, v), bundle in result.adoption.items()}
    # desire: a node's own seeds plus whatever its live in-neighbours adopted
    desire = {v: set(allocation.items_at(v)) for v in range(graph.n)}
    live = live_flags(world, graph)
    for eid, (u, v, _) in enumerate(graph.edges):
        if live[eid]:
            desire[v] |= adoption.get(u, frozenset())
    assert all(bundle <= desire[v] for v, bundle in adoption.items())


@given(diffusion_cases())
@settings(max_examples=100, deadline=None)
def test_adopted_bundles_have_nonnegative_utility(case):
    graph, catalog, allocation, world = case
    adoption = simulate(graph, catalog, allocation, [world]).adoption
    assert all(utility(catalog, bundle, world.noise) >= -1e-9 for bundle in adoption.values())


@given(diffusion_cases())
@settings(max_examples=100, deadline=None)
def test_welfare_is_the_sum_of_adopted_utilities(case):
    graph, catalog, allocation, world = case
    result = simulate(graph, catalog, allocation, [world])
    utils = [utility(catalog, bundle, world.noise) for bundle in result.adoption.values()]
    assert result.welfare[0] == pytest.approx(math.fsum(utils), rel=1e-12, abs=1e-9)


def test_marginal_base_runs_can_be_passed_in(monkeypatch):
    g = graph_from("0 1 0.5\n1 2 0.7\n2 3 0.5\n3 4 0.3\n0 5 0.5\n5 4 0.7\n")
    cat = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 2.5, ("a", "b"): 3.2},
    )
    base, cand = Allocation.of([(5, "b")]), Allocation.of([(0, "a")])
    got = estimate_marginal_welfare(g, cat, [cand], base, 50, seed=21)
    (with_runs,), without_runs = got.runs, got.base_runs
    # the runs are each world's welfare, as the plain estimator sees them
    assert math.fsum(without_runs) / 50 == estimate_welfare(g, cat, base, 50, seed=21).mean
    assert math.fsum(with_runs) / 50 == estimate_welfare(g, cat, cand.merged(base), 50, 21).mean
    sims = []
    real = diffusion.simulate
    monkeypatch.setattr(diffusion, "simulate", lambda *a: sims.append(a[2]) or real(*a))
    again = estimate_marginal_welfare(g, cat, [cand], base, 50, seed=21, base_runs=without_runs)
    assert again == got
    assert sims == [cand.merged(base)]  # no base run, and all 50 worlds in one batch
    with pytest.raises(DiffusionError, match="49 base runs given for 50 samples"):
        estimate_marginal_welfare(g, cat, [cand], base, 50, seed=21, base_runs=without_runs[1:])


def test_a_candidates_estimate_does_not_depend_on_the_others():
    g = graph_from("0 1 0.5\n1 2 0.7\n2 3 0.5\n3 4 0.3\n0 5 0.5\n5 4 0.7\n")
    cat = NOISE_CATALOGS[1]
    base = Allocation.of([(5, "b")])
    cands = [Allocation.of([(0, "a")]), Allocation.empty(), Allocation.of([(2, "a"), (3, "b")])]
    together = estimate_marginal_welfare(g, cat, cands, base, 40, seed=3)
    assert together.estimates[1] == (0.0, 0.0) and together.runs[1] == together.base_runs
    for k, cand in enumerate(cands):
        alone = estimate_marginal_welfare(g, cat, [cand], base, 40, seed=3)
        assert repr(alone.estimates[0]) == repr(together.estimates[k])  # bit for bit
        assert alone.runs[0] == together.runs[k] and alone.base_runs == together.base_runs


# -- chunked Monte Carlo --------------------------------------------------------


@pytest.mark.parametrize("per_chunk", [1, 7, 60])
def test_estimates_do_not_depend_on_the_chunk_size(monkeypatch, per_chunk):
    g = graph_from("0 1 0.5\n1 2 0.7\n2 3 0.5\n3 4 0.3\n0 5 0.5\n5 4 0.7\n")
    cat = NOISE_CATALOGS[1]
    base, cand = Allocation.of([(5, "b")]), Allocation.of([(0, "a"), (2, "b")])
    samples = 60

    def estimates():
        return (
            estimate_welfare(g, cat, cand, samples, seed=8),
            estimate_marginal_welfare(g, cat, [cand], base, samples, seed=8),
            estimate_marginal_welfare(g, cat, [cand, Allocation.empty()], base, samples, 8),
        )

    whole = estimates()  # the default cap holds all 60 worlds of this graph at once
    assert diffusion.chunk_worlds(g, cat) >= samples
    monkeypatch.setattr(diffusion, "CHUNK_CELLS", per_chunk * max(g.n, g.m))
    assert diffusion.chunk_worlds(g, cat) == per_chunk
    batches = []
    real = diffusion.simulate
    monkeypatch.setattr(diffusion, "simulate", lambda *a: batches.append(len(a[3])) or real(*a))
    chunked = estimates()
    assert repr(chunked) == repr(whole)  # bit for bit
    assert max(batches) == per_chunk and sum(batches) == samples * (1 + 2 + 3)


@pytest.mark.parametrize("per_chunk", [1, 3, 8])
@pytest.mark.parametrize("kind", ["sampled", "fixed"])
def test_world_runs_over_many_chunks_match_the_reference_world_by_world(
    monkeypatch, kind, per_chunk
):
    """Worlds with distinct noise vectors, a chunk of `per_chunk` at a time
    (one vector per `simulate` call at 1, several above): every world's
    welfare, bit for bit, and each item's adopter total are the reference
    simulator's, for each allocation."""
    rng = random.Random(f"chunks/{kind}/{per_chunk}")
    count = 17
    for trial in range(6):
        g = fractional_graph(rng, n_hi=25, m_hi=100)
        cat = continuous_noise_catalog(rng, rng.randint(2, 4))
        monkeypatch.setattr(diffusion, "CHUNK_CELLS", per_chunk * max(g.n, g.m, 1 << cat.m))
        assert diffusion.chunk_worlds(g, cat) == per_chunk
        worlds = [PossibleWorld.sample(cat, derive_rng(trial, idx)) for idx in range(count)]
        if kind == "fixed":
            worlds = [PossibleWorld.fixed([rng.random() < 0.5 for _ in range(g.m)], w.noise)
                      for w in worlds]
        assert len({w.noise for w in worlds}) == count
        allocations = [random_allocation(rng, g, cat, pairs=rng.randint(0, 6)) if g.n else
                       Allocation.empty() for _ in range(3)]
        runs = world_runs(g, cat, allocations, count, worlds.__getitem__)
        for alloc, (welfare, adopters) in zip(allocations, runs):
            wants = []
            for world in worlds:
                live = live_flags(world, g) if world.live is None else world.live
                wants.append(reference_simulate(g, cat, alloc, world.noise, lambda e, p: live[e]))
            assert [x.hex() for x in welfare] == [want.welfare[0].hex() for want in wants]
            assert adopters == {
                item: sum(want.item_counts[item][0] for want in wants) for item in cat.items
            }


def test_no_simulate_call_holds_more_than_the_cap_at_the_cli_default(monkeypatch):
    n = 3000  # a sparse graph, so (world, node) cells set the cap
    g = Graph(n, [(v, v + 1, 0.5) for v in range(0, n - 1, 3)])
    cat = NOISE_CATALOGS[0]
    samples = AllocatorConfig().mc_samples
    per = diffusion.chunk_worlds(g, cat)
    assert per * n <= diffusion.CHUNK_CELLS < (per + 1) * n and per < samples
    batches = []
    real = diffusion.simulate
    monkeypatch.setattr(diffusion, "simulate", lambda *a: batches.append(len(a[3])) or real(*a))
    est = estimate_welfare(g, cat, Allocation.of([(0, "a"), (3, "a")]), samples, seed=2)
    assert sum(batches) == samples and len(batches) == math.ceil(samples / per)
    assert max(batches) * max(g.n, g.m) <= diffusion.CHUNK_CELLS
    assert 2.0 < est.mean < 4.0


def test_a_small_cascade_costs_little_on_a_large_graph():
    """200 worlds of a cascade along a 10-edge path: on 1,000,000 nodes the
    simulator reads the keys the cascade reached, not every (world, node)
    cell of a chunk, so the estimate stays far below the 0.43 s or more it
    took when it scanned them all, and it equals the estimate on 1,000 nodes."""
    cat = NOISE_CATALOGS[0]
    path = np.arange(10)

    def estimate(n):
        g = Graph.from_arrays(n, path, path + 1, np.full(10, 0.9))
        start = time.perf_counter()
        est = estimate_welfare(g, cat, Allocation.of([(0, "a")]), 200, seed=7)
        return est, time.perf_counter() - start

    small, _ = estimate(1_000)
    runs = [estimate(1_000_000) for _ in range(3)]
    assert all(repr(est) == repr(small) for est, _ in runs)
    assert 0.0 < small.mean < 11.0
    assert min(seconds for _, seconds in runs) < 0.3


def test_an_estimate_never_builds_the_adoption_map(monkeypatch):
    """Monte Carlo reads welfare and adopter counts from the count cells:
    a 100-world estimate never sorts the adopters' keys into the adoption
    map, while len() of each result's adoption is the adopter count, and
    the map, once read, is in ascending (world, node) order."""
    g = graph_from("0 1 0.5\n1 2 0.7\n2 3 0.5\n3 4 0.3\n0 5 0.5\n5 4 0.7\n4 0 0.6\n")
    cat = NOISE_CATALOGS[1]
    alloc = Allocation.of([(0, "a"), (5, "b"), (3, "a")])

    def unread(self):
        raise AssertionError("the adoption map was built")

    results = []
    real = diffusion.simulate
    monkeypatch.setattr(diffusion.Adoption, "_pairs", property(unread))
    monkeypatch.setattr(diffusion, "simulate", lambda *a: results.append(real(*a)) or results[-1])
    est = estimate_welfare(g, cat, alloc, 100, seed=4)
    (result,) = results
    wants = []
    for idx in range(100):
        world = PossibleWorld.sample(cat, derive_rng(4, idx))
        live = live_flags(world, g)
        wants.append(reference_simulate(g, cat, alloc, world.noise, lambda eid, p: live[eid]))
    assert len(result.adoption) == sum(len(want.adoption) for want in wants) > 100
    assert est.mean == math.fsum(want.welfare[0] for want in wants) / 100
    monkeypatch.undo()
    pairs = list(result.adoption)
    assert pairs == sorted(pairs) and len(pairs) == len(result.adoption)
    assert [world_result(result, w) for w in range(100)] == wants


@pytest.mark.parametrize("noisy", [False, True], ids=["zero-noise", "gaussian"])
def test_a_batch_of_ten_item_worlds_at_the_cap_stays_small(noisy):
    """One `simulate` call at the chunk cap, 8,192 worlds of a 10-item
    catalog on a 20-node graph, holds its adopters' counts in occupied
    (world, bundle) cells only. A dense int64 count over every (world,
    bundle) cell would take 64 MiB alone. Without noise, where hundreds of
    bundles are adopted, the traced peak stays under half of that; with a
    gaussian noise vector per world it stays within the 64 MiB utility
    table, built in place, and the decisions cached beside it."""
    rng = random.Random(5)
    n = 20
    g = Graph(n, [(u, v, 0.5) for u in range(n) for v in range(n)
                  if u != v and rng.random() < 0.15])
    items = [f"i{k}" for k in range(10)]
    valuations = {
        tuple(it for k, it in enumerate(items) if mask >> k & 1):
            sum(2.0 + 0.1 * k for k in range(10) if mask >> k & 1)
        for mask in range(1, 1 << 10)
    }
    noise = {it: NoiseSpec.gaussian(0.5) for it in items} if noisy else {}
    cat = ItemCatalog(items, dict.fromkeys(items, 1.0), valuations, noise)
    alloc = Allocation.of(list(zip(range(2), items)) if noisy else list(enumerate(items)))
    count = diffusion.chunk_worlds(g, cat)
    assert count * (1 << cat.m) == diffusion.CHUNK_CELLS
    worlds = [PossibleWorld.sample(cat, derive_rng(3, idx)) for idx in range(count)]
    tracemalloc.start()
    try:
        result = simulate(g, cat, alloc, worlds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense = 8 * count * (1 << cat.m)
    assert len(result.adoption) > 30_000
    if noisy:
        assert peak < dense + (12 << 20)
    else:
        assert len(set(result.adoption.values())) > 500
        assert peak < dense / 2
