import math
import random

import pytest

from welfaremax import ris
from welfaremax.diffusion import Allocation
from welfaremax.graph import Graph
from welfaremax.oracle import SpreadOracle, WelfareOracle
from welfaremax.ris import (
    RISError,
    RRCollection,
    RRSet,
    expected_item_utilities,
    node_selection_count,
    node_selection_weighted,
    sample_marginal_rr,
    sample_rr,
    sample_weighted_rr,
)
from welfaremax.rng import derive_rng
from welfaremax.utility import ItemCatalog

from conftest import graph_from, superior_instance


def test_isolated_node_rr_set():
    g = Graph(1, [])
    rr = sample_rr(g, random.Random(0))
    assert rr.members == frozenset({0})
    assert rr.root == 0


def test_chain_rr_set_is_full_prefix():
    g = graph_from("0 1 1\n1 2 1\n")
    rng = random.Random(1)
    seen_root2 = 0
    for _ in range(50):
        rr = sample_rr(g, rng)
        assert rr.members == frozenset(range(rr.root + 1))
        if rr.root == 2:
            seen_root2 += 1
    assert seen_root2 > 0


def test_half_probability_edge_bernoulli():
    # among root-1 draws the source inclusion is Bernoulli(1/2)
    g = graph_from("0 1 0.5\n")
    rng = random.Random(8)
    total1, hits = 0, 0
    for _ in range(10_000):
        rr = sample_rr(g, rng)
        if rr.root == 1:
            total1 += 1
            if 0 in rr.members:
                hits += 1
    p_hat = hits / total1
    sigma = math.sqrt(0.25 / total1)
    assert abs(p_hat - 0.5) <= 3 * sigma


def test_marginal_rr_without_fixed_seeds_never_empty():
    g = graph_from("0 1 0.5\n1 2 0.5\n")
    rng = random.Random(3)
    for _ in range(200):
        assert not sample_marginal_rr(g, frozenset(), rng).empty


def test_marginal_rr_root_in_fixed_seeds_is_empty():
    g = graph_from("0 1 1\n")
    rng = random.Random(4)
    for _ in range(50):
        rr = sample_marginal_rr(g, frozenset({0, 1}), rng)
        assert rr.empty and rr.members == frozenset()


def test_marginal_rr_deterministic_chain_contact():
    # every root's reverse reach includes node 0, so everything empties
    g = graph_from("0 1 1\n1 2 1\n")
    rng = random.Random(5)
    for _ in range(60):
        assert sample_marginal_rr(g, frozenset({0}), rng).empty


def _two_item_catalog():
    return ItemCatalog(
        ["sup", "inf"],
        prices={"sup": 1, "inf": 1},
        valuations={("sup",): 2.0, ("inf",): 1.1, ("sup", "inf"): 2.0},
    )


def test_weighted_rr_no_contact_keeps_full_weight():
    g = graph_from("0 1 1\n")
    cat = _two_item_catalog()
    base = Allocation.of([])  # no fixed seeds at all
    rng = random.Random(6)
    rr = sample_weighted_rr(g, base, "sup", cat, rng)
    assert rr.weight == 1.0  # E[U+(sup)]


def test_weighted_rr_root_on_fixed_seed():
    g = graph_from("0 1 1\n")
    cat = _two_item_catalog()
    base = Allocation.of([(1, "inf")])
    rng = random.Random(7)
    for _ in range(30):
        rr = sample_weighted_rr(g, base, "sup", cat, rng)
        if rr.root == 1:
            assert rr.members == frozenset({1})
            assert rr.weight == pytest.approx(1.0 - 0.1)


def test_weighted_rr_level_completion_distance_two():
    # 0 -> 1 -> 2, fixed seed at 0: a root-2 set must include the whole level
    g = graph_from("0 1 1\n1 2 1\n")
    cat = _two_item_catalog()
    base = Allocation.of([(0, "inf")])
    rng = random.Random(8)
    seen = False
    for _ in range(60):
        rr = sample_weighted_rr(g, base, "sup", cat, rng)
        if rr.root == 2:
            seen = True
            assert rr.members == frozenset({0, 1, 2})
            assert rr.weight == pytest.approx(0.9)
    assert seen


def test_weighted_rr_members_never_farther_than_fixed_seeds():
    rng = random.Random(11)
    graph, catalog, base = superior_instance(rng)
    sp = base.seed_nodes()
    utils = expected_item_utilities(catalog)
    for _ in range(200):
        rr = sample_weighted_rr(graph, base, "sup", catalog, rng, utils)
        if rr.members & sp:
            # reverse BFS distance of every member <= first fixed-seed distance
            dist = {rr.root: 0}
            frontier = [rr.root]
            d = 0
            while frontier:
                nxt = []
                for u in frontier:
                    for src in graph.in_src[u]:
                        if src in rr.members and src not in dist:
                            dist[src] = d + 1
                            nxt.append(src)
                frontier = nxt
                d += 1
            hit = min(dist[v] for v in rr.members & sp)
            assert all(dv <= hit for dv in dist.values())


def test_weighted_rr_weight_never_understates_the_subtraction():
    """With unequal inferiors the max-over-hit-items weight can only
    over-subtract: a blocked high-utility inferior may leave the root with
    a worse item than the best one reached. The estimator is therefore a
    one-sided (lower) bound on the true marginal in that regime."""
    rng = random.Random(7711)
    # regenerate the documented biased instance deterministically
    from conftest import superior_instance as gen

    for idx in range(7):
        graph, catalog, base = gen(rng, n_hi=10, e_hi=10)
        free = sorted(set(range(graph.n)))
        seeds = rng.sample(free, 2)
    cand = Allocation.of([(v, "sup") for v in seeds])
    want = WelfareOracle(graph, catalog).marginal(cand, base)
    utils = expected_item_utilities(catalog)
    srng = derive_rng(3000, 6)
    sset = set(seeds)
    draws = 50_000
    vals = []
    for _ in range(draws):
        rr = sample_weighted_rr(graph, base, "sup", catalog, srng, utils)
        vals.append(graph.n * rr.weight if sset & rr.members else 0.0)
    mean = sum(vals) / draws
    var = sum((v - mean) ** 2 for v in vals) / (draws - 1)
    sigma = math.sqrt(var / draws)
    assert mean <= want + 3 * sigma  # never biased upward
    assert mean < want  # and visibly below on this instance


def test_weighted_identity_matches_marginal_welfare():
    # n * E[covered weight] == exact marginal welfare of seeding the superior item
    rng = random.Random(42)
    graph, catalog, base = superior_instance(rng, n_hi=8, e_hi=9)
    seeds = [0, 3]
    cand = Allocation.of([(v, "sup") for v in seeds])
    oracle = WelfareOracle(graph, catalog)
    want = oracle.marginal(cand, base)
    utils = expected_item_utilities(catalog)
    total = 0.0
    draws = 40_000
    vals = []
    srng = derive_rng(77)
    sset = set(seeds)
    for _ in range(draws):
        rr = sample_weighted_rr(graph, base, "sup", catalog, srng, utils)
        covered = bool(sset & rr.members)
        vals.append(graph.n * rr.weight * covered)
    mean = sum(vals) / draws
    var = sum((v - mean) ** 2 for v in vals) / (draws - 1)
    sigma = math.sqrt(var / draws)
    assert abs(mean - want) <= 3 * sigma


def _collection(sets, n=10):
    coll = RRCollection(n)
    for root, members, weight in sets:
        coll.add(RRSet(root, frozenset(members), weight=weight))
    return coll


def test_selection_dominant_node():
    coll = _collection([(0, {7, 1}, 1.0), (1, {7}, 1.0), (2, {7, 3}, 1.0)])
    picks, fracs = node_selection_count(coll, 1)
    assert picks == [7]
    assert fracs == [1.0]


def test_selection_zero_budget():
    coll = _collection([(0, {1}, 1.0)])
    picks, fracs = node_selection_count(coll, 0)
    assert picks == [] and fracs == []


def test_selection_budget_exceeds_nodes():
    coll = _collection([(0, {1}, 1.0)], n=3)
    with pytest.raises(RISError, match="cannot select"):
        node_selection_count(coll, 4)


def test_selection_ties_break_to_smallest_id():
    coll = _collection([(0, {4}, 1.0), (1, {2}, 1.0)])
    picks, _ = node_selection_count(coll, 2)
    assert picks == [2, 4]


def test_selection_counts_empties_in_denominator():
    coll = _collection([(0, {1}, 1.0)])
    coll.add(RRSet(5, frozenset(), empty=True))
    picks, fracs = node_selection_count(coll, 1)
    assert picks == [1]
    assert fracs == [0.5]


def test_selection_excluded_nodes_never_picked():
    coll = _collection([(0, {3, 4}, 1.0), (1, {3}, 1.0)])
    picks, _ = node_selection_count(coll, 2, excluded={3})
    assert 3 not in picks
    assert picks[0] == 4


def test_selection_greedy_meets_brute_force_two_cover():
    rng = random.Random(9)
    sets = []
    for sid in range(40):
        members = set(rng.sample(range(8), rng.randint(1, 3)))
        sets.append((sid % 8, members, 1.0))
    coll = _collection(sets, n=8)
    picks, fracs = node_selection_count(coll, 2)
    best = 0
    for a in range(8):
        for b in range(a + 1, 8):
            cov = sum(1 for _, mem, _ in sets if a in mem or b in mem)
            best = max(best, cov)
    assert fracs[-1] * len(sets) >= (1 - 1 / math.e) * best


def test_weighted_selection_uniform_weights_match_counting():
    rng = random.Random(10)
    sets = [
        (sid % 6, set(rng.sample(range(6), rng.randint(1, 3))), 1.0) for sid in range(30)
    ]
    coll = _collection(sets, n=6)
    picks_c, _ = node_selection_count(coll, 3)
    picks_w, _ = node_selection_weighted(coll, 3)
    assert picks_c == picks_w


def test_weighted_selection_prefers_heavy_set():
    coll = _collection([(0, {1}, 10.0), (2, {3}, 1.0)], n=5)
    picks, totals = node_selection_weighted(coll, 1)
    assert picks == [1]
    assert totals == [10.0]


def test_weighted_selection_meets_brute_force():
    rng = random.Random(12)
    sets = [
        (sid % 7, set(rng.sample(range(7), rng.randint(1, 3))), rng.uniform(0.1, 2.0))
        for sid in range(40)
    ]
    coll = _collection(sets, n=7)
    _, totals = node_selection_weighted(coll, 2)
    best = 0.0
    for a in range(7):
        for b in range(a + 1, 7):
            val = sum(w for _, mem, w in sets if a in mem or b in mem)
            best = max(best, val)
    assert totals[-1] >= (1 - 1 / math.e) * best


def test_selection_prefix_values_are_concave_and_monotone():
    rng = random.Random(13)
    sets = [
        (sid % 9, set(rng.sample(range(9), rng.randint(1, 4))), rng.uniform(0.2, 3.0))
        for sid in range(60)
    ]
    coll = _collection(sets, n=9)
    _, totals = node_selection_weighted(coll, 6)
    gains = [totals[0]] + [b - a for a, b in zip(totals, totals[1:])]
    assert all(g >= -1e-12 for g in gains)
    assert all(g1 >= g2 - 1e-9 for g1, g2 in zip(gains, gains[1:]))


def test_standard_unbiasedness_against_oracle():
    g = graph_from("0 1 0.5\n0 2 0.7\n1 3 0.5\n2 3 0.3\n3 4 0.5\n2 4 0.5\n0 5 0.3\n5 4 0.5\n")
    oracle = SpreadOracle(g)
    seeds = {0, 3}
    want = oracle.spread(seeds)
    rng = derive_rng(123)
    draws = 50_000
    hits = 0
    for _ in range(draws):
        rr = sample_rr(g, rng)
        if seeds & rr.members:
            hits += 1
    p_hat = hits / draws
    sigma = math.sqrt(p_hat * (1 - p_hat) / draws)
    assert abs(g.n * p_hat - want) <= 3 * g.n * sigma


def test_marginal_unbiasedness_against_oracle():
    g = graph_from("0 1 0.5\n0 2 0.7\n1 3 0.5\n2 3 0.3\n3 4 0.5\n2 4 0.5\n0 5 0.3\n5 4 0.5\n")
    oracle = SpreadOracle(g)
    fixed = frozenset({2})
    seeds = {0}
    want = oracle.marginal_spread(seeds, fixed)
    rng = derive_rng(124)
    draws = 50_000
    hits = 0
    for _ in range(draws):
        rr = sample_marginal_rr(g, fixed, rng)
        if not rr.empty and seeds & rr.members:
            hits += 1
    p_hat = hits / draws  # empties stay in the denominator
    sigma = math.sqrt(p_hat * (1 - p_hat) / draws)
    assert abs(g.n * p_hat - want) <= 3 * g.n * sigma


# -- differential tests against the loop greedy ---------------------------------


def reference_greedy(n, sets, k, weighted, excluded=()):
    """Greedy max-coverage over per-set loops and a node -> set-ids dict."""
    index = {}
    for sid, rr in enumerate(sets):
        if not rr.empty:
            for v in rr.members:
                index.setdefault(v, []).append(sid)
    excluded = set(excluded)
    gain = [0.0] * n
    for rr in sets:
        if rr.empty:
            continue
        w = rr.weight if weighted else 1.0
        for v in rr.members:
            gain[v] += w
    covered = bytearray(len(sets))
    picks, prefix, chosen, total = [], [], [False] * n, 0.0
    for _ in range(k):
        best, best_gain = -1, -1.0
        for v in range(n):
            if not chosen[v] and v not in excluded and gain[v] > best_gain:
                best, best_gain = v, gain[v]
        if best < 0:
            raise RISError("not enough selectable nodes")
        chosen[best] = True
        picks.append(best)
        for sid in index.get(best, ()):
            if not covered[sid]:
                covered[sid] = 1
                w = sets[sid].weight if weighted else 1.0
                total += w
                for u in sets[sid].members:
                    gain[u] -= w
        prefix.append(total)
    return picks, prefix


def hub_graph(rng, n=600, hubs=6):
    """Sparse random graph plus ``hubs`` nodes with hundreds of in-edges,
    so RR sets vary in size and many of them share members."""
    edges = []
    for v in range(n):
        count = rng.randint(n // 2, n - 1) if v < hubs else rng.randint(1, 3)
        for u in rng.sample([u for u in range(n) if u != v], count):
            p = rng.uniform(0.0, 4.0 / count) if v < hubs else rng.choice((1.0, rng.uniform(0.05, 0.3)))
            edges.append((u, v, p))
    rng.shuffle(edges)  # edge ids need not follow node order
    return Graph(n, edges)


def _both_greedies(n, sets, k, weighted, excluded=()):
    coll = RRCollection(n)
    for rr in sets:
        coll.add(rr)
    select = node_selection_weighted if weighted else node_selection_count
    got = select(coll, k, excluded=excluded)
    picks, prefix = reference_greedy(n, sets, k, weighted, excluded)
    if not weighted:
        prefix = [t / len(sets) if sets else 0.0 for t in prefix]
    assert got == (picks, prefix)
    return picks


@pytest.mark.parametrize("weighted", [False, True], ids=["count", "weighted"])
def test_array_greedy_equals_loop_greedy_on_sampled_sets(weighted):
    rng = random.Random(300)
    graph = hub_graph(rng)
    srng = derive_rng(11)
    fixed = frozenset({7, 8})
    sets = []
    for _ in range(3000):
        rr = sample_marginal_rr(graph, fixed, srng)
        sets.append(rr._replace(weight=srng.uniform(0.0, 3.0)) if weighted else rr)
    assert any(rr.empty for rr in sets)
    for excluded in ((), fixed, set(range(0, graph.n, 7))):
        _both_greedies(graph.n, sets, 25, weighted, excluded)


def test_array_greedy_adds_and_subtracts_weights_in_set_order():
    # node 1 sums 0.1 + 0.2 + 0.3 = 0.6000000000000001 in set order, just
    # above node 0's 0.6; the reverse order gives 0.6 and a tie won by node 0
    sets = [
        RRSet(0, frozenset({1}), weight=0.1),
        RRSet(1, frozenset({1}), weight=0.2),
        RRSet(2, frozenset({1}), weight=0.3),
        RRSet(3, frozenset({0}), weight=0.6),
    ]
    assert _both_greedies(2, sets, 2, True) == [1, 0]
    # after node 4 covers the first three sets, node 2 keeps
    # ((0.1 + 0.1 + 0.2 + 0.1) - 0.1 - 0.1 - 0.2) = 0.10000000000000003 when
    # subtracted in set order, above node 0's 0.1; subtracting the sum or in
    # reverse order leaves 0.09999999999999998, below it
    sets = [
        RRSet(0, frozenset({2, 4}), weight=0.1),
        RRSet(1, frozenset({2, 4}), weight=0.1),
        RRSet(2, frozenset({2, 4}), weight=0.2),
        RRSet(3, frozenset({2}), weight=0.1),
        RRSet(4, frozenset({0}), weight=0.1),
        RRSet(5, frozenset({4}), weight=10.0),
        RRSet(6, frozenset(), weight=5.0, empty=True),
    ]
    assert _both_greedies(5, sets, 3, True) == [4, 2, 0]
    assert _both_greedies(5, sets, 3, True, excluded={4}) == [2, 0, 1]
    with pytest.raises(RISError, match="not enough selectable nodes"):
        node_selection_weighted(_collection([(0, {1}, 1.0)], n=3), 3, excluded={0})


# -- geometric-skip sampling ----------------------------------------------------

# node 0 is a hub with 120 in-edges at one p from the zero-in-degree leaves
# 7..126; node 2's in-edges are certain, node 3's never live, 1 and 5 share
# one p, 4 and 6 mix probabilities
HUB_P = 0.03
LEAVES = range(7, 127)
CORE_EDGES = [
    (0, 1, 0.5), (2, 1, 0.5),
    (1, 2, 1.0), (6, 2, 1.0),
    (0, 3, 0.0),
    (1, 4, 0.3), (3, 4, 0.8), (0, 4, 0.6),
    (4, 5, 0.25), (2, 5, 0.25), (0, 5, 0.25),
    (5, 6, 0.4), (3, 6, 0.9),
]


def skip_graph() -> Graph:
    return Graph(127, CORE_EDGES + [(leaf, 0, HUB_P) for leaf in LEAVES])


def core_graph(seed_leaves) -> Graph:
    """The nodes and edges that seeds among {0..6} and `seed_leaves` can
    reach; the other leaves are unreachable, so their edges change no spread
    or welfare of such seeds, and the oracle need not enumerate them."""
    return Graph(9, CORE_EDGES + [(leaf, 0, HUB_P) for leaf in seed_leaves])


def per_edge_coin_rr(graph, fixed_seeds, rng):
    """The marginal sampler as it was before geometric skips: one coin per
    candidate in-edge, in edge-id order."""
    root = rng.randrange(graph.n)
    if root in fixed_seeds:
        return RRSet(root, frozenset(), empty=True)
    members, stack = {root}, [root]
    while stack:
        u = stack.pop()
        for src, p in zip(graph.in_src[u], graph.in_prob[u]):
            if src not in members and rng.random() < p:
                if src in fixed_seeds:
                    return RRSet(root, frozenset(), empty=True)
                members.add(src)
                stack.append(src)
    return RRSet(root, frozenset(members))


def per_edge_coin_weighted_rr(graph, base, superior, rng, item_utils):
    """The weighted sampler as it was before geometric skips."""
    sp_nodes = base.seed_nodes()
    root = rng.randrange(graph.n)
    members, level = {root}, [root]
    while level and sp_nodes.isdisjoint(level):
        nxt = []
        for u in level:
            for src, p in zip(graph.in_src[u], graph.in_prob[u]):
                if src not in members and rng.random() < p:
                    members.add(src)
                    nxt.append(src)
        level = nxt
    hit = [it for node in members & sp_nodes for it in base.items_at(node)]
    weight = item_utils[superior] - (max(item_utils[it] for it in hit) if hit else 0.0)
    return RRSet(root, frozenset(members), weight=weight)


def test_skip_graph_has_every_kind_of_node():
    g = skip_graph()
    assert len(g.in_src[0]) >= 100 and g.in_logq[0] == math.log1p(-HUB_P)
    assert g.in_logq[2] == -math.inf and g.in_logq[3] == 0.0
    assert g.in_logq[1] == math.log(0.5) and g.in_logq[5] == math.log1p(-0.25)
    assert g.in_logq[4] is None and g.in_logq[6] is None
    assert all(g.in_logq[leaf] is None and not g.in_src[leaf] for leaf in LEAVES)


def _mean_and_sigma(values):
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var / len(values))


def test_skip_plain_coverage_matches_spread_oracle():
    g = skip_graph()
    seeds = {7, 8, 4}
    want = SpreadOracle(core_graph([7, 8])).spread(seeds)
    rng = derive_rng(501)
    vals = [g.n * bool(seeds & sample_rr(g, rng).members) for _ in range(60_000)]
    mean, sigma = _mean_and_sigma(vals)
    assert abs(mean - want) <= 3 * sigma


def test_skip_marginal_coverage_matches_spread_oracle():
    g = skip_graph()
    fixed, seeds = frozenset({2}), {7, 8, 6}
    want = SpreadOracle(core_graph([7, 8])).marginal_spread(seeds, fixed)
    rng = derive_rng(502)
    vals = []
    for _ in range(60_000):
        rr = sample_marginal_rr(g, fixed, rng)
        vals.append(g.n * (not rr.empty and bool(seeds & rr.members)))
    mean, sigma = _mean_and_sigma(vals)
    assert abs(mean - want) <= 3 * sigma


def _skip_superior_instance():
    catalog = ItemCatalog(
        ["sup", "inf"],
        prices={"sup": 1, "inf": 1},
        valuations={("sup",): 2.0, ("inf",): 1.2, ("sup", "inf"): 2.0},
    )
    return catalog, Allocation.of([(1, "inf")])


def test_skip_weighted_identity_matches_welfare_oracle():
    g = skip_graph()
    catalog, base = _skip_superior_instance()
    seeds = {7, 8, 5}
    cand = Allocation.of((v, "sup") for v in seeds)
    want = WelfareOracle(core_graph([7, 8]), catalog).marginal(cand, base)
    utils = expected_item_utilities(catalog)
    rng = derive_rng(503)
    vals = []
    for _ in range(60_000):
        rr = sample_weighted_rr(g, base, "sup", catalog, rng, utils)
        vals.append(g.n * rr.weight * bool(seeds & rr.members))
    mean, sigma = _mean_and_sigma(vals)
    assert abs(mean - want) <= 3 * sigma


def test_hub_live_in_edges_are_binomial():
    g = skip_graph()
    d = len(g.in_src[0])
    rng = derive_rng(504)
    draws = 50_000
    # the hub's sources are leaves with no in-edges, so the BFS ends with them
    counts = [len(ris._reverse_bfs(g, 0, frozenset(), rng)) - 1 for _ in range(draws)]
    mean, sigma = _mean_and_sigma(counts)
    assert abs(mean - d * HUB_P) <= 3 * sigma
    p0 = (1.0 - HUB_P) ** d
    zeros = sum(c == 0 for c in counts) / draws
    assert abs(zeros - p0) <= 3 * math.sqrt(p0 * (1.0 - p0) / draws)


def test_certain_and_impossible_nodes_draw_no_coins():
    g = skip_graph()
    rng = random.Random(5)
    state = rng.getstate()
    # node 2's in-edges from 1 and 6 are certain; the level touching 1 is finished
    assert ris._reverse_bfs(g, 2, frozenset({1}), rng) == {2, 1, 6}
    assert ris._reverse_bfs(g, 2, frozenset({2}), rng) == {2}
    assert ris._reverse_bfs(g, 3, frozenset(), rng) == {3}  # p = 0
    assert ris._reverse_bfs(g, 7, frozenset(), rng) == {7}  # no in-edges
    # node 0's certain in-edge from member 1 adds nothing: only 2 joins
    cycle = Graph(3, [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
    assert ris._reverse_bfs(cycle, 1, frozenset(), rng) == {0, 1, 2}
    assert rng.getstate() == state


def helper_live_sources(srcs, probs, logq, members, random):
    """The per-node helper the weighted sampler called before its reverse
    BFS expanded nodes inline."""
    if logq is None:
        return [src for src, p in zip(srcs, probs) if src not in members and random() < p]
    if logq == -math.inf:
        return [src for src in srcs if src not in members]
    if logq == 0.0:
        return []
    live, d = [], len(srcs)
    pos = math.log(1.0 - random()) / logq
    while pos < d:
        i = int(pos)
        if srcs[i] not in members:
            live.append(srcs[i])
        pos = i + 1 + math.log(1.0 - random()) / logq
    return live


def helper_weighted_rr(graph, base, superior, rng, item_utils):
    """The weighted sampler as it was: a level loop over the helper."""
    sp_nodes = base.seed_nodes()
    root = rng.randrange(graph.n)
    members, level = {root}, [root]
    while level and sp_nodes.isdisjoint(level):
        nxt = []
        for u in level:
            live = helper_live_sources(
                graph.in_src[u], graph.in_prob[u], graph.in_logq[u], members, rng.random
            )
            members.update(live)
            nxt += live
        level = nxt
    hit = [it for node in members & sp_nodes for it in base.items_at(node)]
    weight = item_utils[superior] - (max(item_utils[it] for it in hit) if hit else 0.0)
    return RRSet(root, frozenset(members), weight=weight)


@pytest.mark.parametrize("graph_kind", ["skip", "cascade"])
def test_weighted_rr_matches_the_helper_sampler_bit_for_bit(graph_kind):
    if graph_kind == "skip":
        g = skip_graph()
        base = Allocation.of([(1, "inf"), (6, "inf"), (40, "inf")])
    else:
        g = weighted_cascade_graph(random.Random(505))
        base = Allocation.of((v, "inf") for v in (0, 9, 17, 120, 333))
    catalog, _ = _skip_superior_instance()
    utils = expected_item_utilities(catalog)
    new_rng, old_rng = derive_rng(509), derive_rng(509)
    for _ in range(5_000):
        new = sample_weighted_rr(g, base, "sup", catalog, new_rng, utils)
        old = helper_weighted_rr(g, base, "sup", old_rng, utils)
        assert new == old
    assert new_rng.getstate() == old_rng.getstate()


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic of integer samples."""
    top = max(max(a), max(b)) + 1
    fa, fb = [0] * top, [0] * top
    for x in a:
        fa[x] += 1
    for x in b:
        fb[x] += 1
    worst = ca = cb = 0
    for x in range(top):
        ca, cb = ca + fa[x], cb + fb[x]
        worst = max(worst, abs(ca / len(a) - cb / len(b)))
    return worst


def weighted_cascade_graph(rng, n=400, links=3):
    """Preferential attachment with p = 1 / in-degree, so every node with
    in-edges shares one p and the early nodes are hubs."""
    pairs, ends = set(), [0, 1]
    pairs.add((0, 1))
    for v in range(2, n):
        for _ in range(links):
            u = rng.choice(ends)
            if u != v:
                pairs.add((u, v) if rng.random() < 0.5 else (v, u))
                ends += [u, v]
    indeg = [0] * n
    for _, v in pairs:
        indeg[v] += 1
    return Graph(n, [(u, v, 1.0 / indeg[v]) for u, v in sorted(pairs)])


def _same_size_distribution(new_sizes, old_sizes):
    draws = len(new_sizes)
    # 1.95 sqrt(2 / draws) is the two-sample KS bound at the 0.001 level
    assert _ks_distance(new_sizes, old_sizes) <= 1.95 * math.sqrt(2.0 / draws)
    new_mean, new_sigma = _mean_and_sigma(new_sizes)
    old_mean, old_sigma = _mean_and_sigma(old_sizes)
    assert abs(new_mean - old_mean) <= 3 * math.hypot(new_sigma, old_sigma)


@pytest.mark.parametrize("fixed", [frozenset(), frozenset({0, 3})], ids=["plain", "marginal"])
@pytest.mark.parametrize("graph_kind", ["skip", "cascade"])
def test_skip_rr_sizes_match_the_per_edge_coin_sampler(graph_kind, fixed):
    g = skip_graph() if graph_kind == "skip" else weighted_cascade_graph(random.Random(505))
    new_rng, old_rng = derive_rng(506, "new"), derive_rng(506, "old")
    draws = 20_000

    def size(rr):
        return 0 if rr.empty else len(rr.members)

    new = [size(sample_marginal_rr(g, fixed, new_rng)) for _ in range(draws)]
    old = [size(per_edge_coin_rr(g, fixed, old_rng)) for _ in range(draws)]
    _same_size_distribution(new, old)


def test_skip_weighted_rr_sizes_and_weights_match_the_per_edge_coin_sampler():
    g = weighted_cascade_graph(random.Random(507))
    catalog, _ = _skip_superior_instance()
    base = Allocation.of([(0, "inf"), (9, "inf")])
    utils = expected_item_utilities(catalog)
    new_rng, old_rng = derive_rng(508, "new"), derive_rng(508, "old")
    draws = 20_000
    new = [sample_weighted_rr(g, base, "sup", catalog, new_rng, utils) for _ in range(draws)]
    old = [per_edge_coin_weighted_rr(g, base, "sup", old_rng, utils) for _ in range(draws)]
    _same_size_distribution([len(rr.members) for rr in new], [len(rr.members) for rr in old])
    new_w, new_s = _mean_and_sigma([rr.weight for rr in new])
    old_w, old_s = _mean_and_sigma([rr.weight for rr in old])
    assert abs(new_w - old_w) <= 3 * math.hypot(new_s, old_s)
