import itertools
import math
import random
import tracemalloc
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from welfaremax import ris, rng
from welfaremax.diffusion import Allocation
from welfaremax.graph import Graph
from welfaremax.oracle import SpreadOracle, WelfareOracle
from welfaremax.ris import (
    RISError,
    RRCollection,
    node_selection_count,
    node_selection_weighted,
    sample_marginal_rr,
    sample_rr,
    sample_weighted_rr,
)
from welfaremax.rng import derive_rng
from welfaremax.selectors import prima_plus
from welfaremax.utility import ItemCatalog, expected_item_utilities

from conftest import graph_from, superior_instance


class RefSet(NamedTuple):
    """One RR set as the per-set reference code in this file sees it."""

    members: frozenset
    weight: float = 1.0
    empty: bool = False


def sets_of(coll: RRCollection) -> list[frozenset]:
    """Each set's members; an emptied set has none, any other its root."""
    return [frozenset(coll.members[a:b]) for a, b in zip(coll.offsets, coll.offsets[1:])]


def ref_sets(coll: RRCollection) -> list[RefSet]:
    return [
        RefSet(members, weight, not members) for members, weight in zip(sets_of(coll), coll.weights)
    ]


def collection_of(n: int, sets) -> RRCollection:
    """A collection holding `sets` (`RefSet`s) in order."""
    coll = RRCollection(n)
    for rr in sets:
        coll.members.extend([] if rr.empty else sorted(rr.members))
        coll.offsets.append(len(coll.members))
        coll.weights.append(rr.weight)
        coll.empty += rr.empty
    return coll


def in_edges(graph: Graph, v: int) -> list[tuple[int, float]]:
    """(source, probability) of v's in-edges, in edge-id order."""
    slots = slice(graph.in_ptr[v], graph.in_ptr[v + 1])
    return list(zip(graph.in_src[slots].tolist(), graph.in_prob[slots].tolist()))


def grow(graph: Graph, roots, stop_nodes=(), seed=0) -> list[frozenset]:
    """The pooled reverse BFS from the given roots, one set per root, each
    keyed as a sampler keys its sets."""
    _, keys = ris._roots(graph, len(roots), derive_rng(seed))
    blocks = list(ris._grown(graph, np.asarray(roots, dtype=np.int64), keys, stop_nodes))
    nodes = np.concatenate([b[0] for b in blocks])
    bounds = np.concatenate(([0], np.cumsum(np.concatenate([b[1] for b in blocks]))))
    return [frozenset(nodes[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


def count_hashed(monkeypatch) -> list[int]:
    """A one-entry list that counts the values `ris` hashes from here on:
    set keys and draws alike."""
    hashed = [0]
    for name, values in (("_coin_bits", 1), ("_mixed", 0)):  # the argument that holds them
        def counted(*args, real=getattr(ris, name), values=values):
            hashed[0] += len(args[values])
            return real(*args)

        monkeypatch.setattr(ris, name, counted)
    return hashed


def test_isolated_node_rr_set():
    g = Graph(1, [])
    coll = sample_rr(g, 5, random.Random(0))
    assert sets_of(coll) == [frozenset({0})] * 5
    assert list(coll.weights) == [1.0] * 5 and coll.empty == 0


def _assert_chain_sets_are_full_prefixes(count):
    g = graph_from("0 1 1\n1 2 1\n")
    coll = sample_rr(g, count, random.Random(1))
    sets = sets_of(coll)
    assert len(sets) == count and len(coll.members) == sum(map(len, sets))  # no member twice
    for members in sets:  # the root is the largest member
        assert members == frozenset(range(max(members) + 1))
    assert any(max(members) == 2 for members in sets)


def test_chain_rr_set_is_full_prefix():
    _assert_chain_sets_are_full_prefixes(50)


@pytest.mark.parametrize(
    "mark_bytes, count",
    [(ris.MARK_BYTES, 3 * ris.CHUNK_SETS + 7), (2, 50)],
    ids=["refilled-pool", "two-slot-pool"],
)
def test_chain_rr_set_is_full_prefix_across_slot_reuse(mark_bytes, count, monkeypatch):
    # n = 3 is no multiple of 8: a 2-byte mark holds 2 sets, and zeroing the
    # row of a set that ended must leave its neighbour's bits alone
    monkeypatch.setattr(ris, "MARK_BYTES", mark_bytes)
    _assert_chain_sets_are_full_prefixes(count)


def test_samplers_return_exactly_count_sets_across_pool_refills():
    g = skip_graph()
    per = min(ris.CHUNK_SETS, ris.MARK_BYTES // ((g.n + 7) // 8))
    catalog, base = _skip_superior_instance()
    utils = expected_item_utilities(catalog)
    for count in (1, per - 1, per + 1, 3 * per + 7):
        coll = sample_marginal_rr(g, frozenset({0, 3}), count, derive_rng(515, count))
        sizes = np.diff(coll.offsets)
        assert len(coll) == len(sizes) == count and coll.empty == np.count_nonzero(sizes == 0)
        coll = sample_weighted_rr(g, base, "sup", catalog, count, derive_rng(516, count), utils)
        assert len(coll) == len(coll.offsets) - 1 == count and np.all(np.diff(coll.offsets) > 0)


def test_half_probability_edge_bernoulli():
    # among root-1 draws (the sets holding 1) the source inclusion is Bernoulli(1/2)
    g = graph_from("0 1 0.5\n")
    root1 = [members for members in sets_of(sample_rr(g, 10_000, random.Random(8))) if 1 in members]
    total1, hits = len(root1), sum(0 in members for members in root1)
    p_hat = hits / total1
    sigma = math.sqrt(0.25 / total1)
    assert abs(p_hat - 0.5) <= 3 * sigma


def test_marginal_rr_without_fixed_seeds_never_empty():
    g = graph_from("0 1 0.5\n1 2 0.5\n")
    coll = sample_marginal_rr(g, frozenset(), 200, random.Random(3))
    assert coll.empty == 0 and all(sets_of(coll))


def test_marginal_rr_root_in_fixed_seeds_is_empty():
    g = graph_from("0 1 1\n")
    coll = sample_marginal_rr(g, frozenset({0, 1}), 50, random.Random(4))
    assert len(coll) == coll.empty == 50 and not coll.members


def test_marginal_rr_deterministic_chain_contact():
    # every root's reverse reach includes node 0, so everything empties
    g = graph_from("0 1 1\n1 2 1\n")
    coll = sample_marginal_rr(g, frozenset({0}), 60, random.Random(5))
    assert len(coll) == coll.empty == 60 and type(coll.empty) is int


def test_samplers_draw_the_requested_count():
    g = graph_from("0 1 0.5\n1 2 0.5\n")
    cat = _two_item_catalog()
    base = Allocation.of([(0, "inf")])
    utils = expected_item_utilities(cat)
    for count in (0, 1, 7):
        assert len(sample_rr(g, count, random.Random(1))) == count
        assert len(sample_marginal_rr(g, frozenset({0}), count, random.Random(1))) == count
        assert len(sample_weighted_rr(g, base, "sup", cat, count, random.Random(1), utils)) == count
    with pytest.raises(RISError, match="no nodes"):
        sample_rr(Graph(0, []), 1, random.Random(1))


def test_extend_appends_sets_in_order():
    g = graph_from("0 1 0.5\n1 2 0.5\n")
    rng = random.Random(12)
    first = sample_marginal_rr(g, frozenset({0}), 30, rng)
    second = sample_marginal_rr(g, frozenset({0}), 40, rng)
    want_sets, want_weights = sets_of(first) + sets_of(second), [*first.weights, *second.weights]
    want_empty = first.empty + second.empty
    first.extend(second)
    assert sets_of(first) == want_sets and list(first.weights) == want_weights
    assert first.empty == want_empty and len(first) == 70


def test_collection_grows_after_coverage_and_greedy_reads():
    # the reads view the members and offsets without copying; a view that
    # outlived its call would make the next growth raise BufferError
    g = graph_from("0 1 0.5\n1 2 0.5\n2 0 0.5\n")
    rng = random.Random(13)
    coll = sample_rr(g, 50, rng)
    assert coll.coverage_fraction([0]) > 0
    coll.extend(sample_rr(g, 50, rng))
    node_selection_count(coll, 2)
    coll.extend(sample_rr(g, 50, rng))
    node_selection_weighted(coll, 2)
    coll.extend(sample_rr(g, 50, rng))
    assert len(coll) == 200 and len(coll.offsets) == 201


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
    coll = sample_weighted_rr(g, base, "sup", cat, 20, random.Random(6), expected_item_utilities(cat))
    assert list(coll.weights) == [1.0] * 20  # E[U+(sup)]


def test_weighted_rr_rejects_an_unknown_superior_item():
    cat = ItemCatalog(["a"], prices={"a": 0}, valuations={("a",): 1})
    with pytest.raises(RISError, match="unknown superior item 'z'"):
        sample_weighted_rr(graph_from("0 1 1\n"), Allocation.empty(), "z", cat, 1, derive_rng(0), {})


def test_weighted_rr_root_on_fixed_seed():
    # node 1 has no out-edge to 0: the sets holding 1 are the root-1 sets
    g = graph_from("0 1 1\n")
    cat = _two_item_catalog()
    base = Allocation.of([(1, "inf")])
    coll = sample_weighted_rr(g, base, "sup", cat, 30, random.Random(7), expected_item_utilities(cat))
    seen = False
    for members, weight in zip(sets_of(coll), coll.weights):
        if 1 in members:
            seen = True
            assert members == frozenset({1})
            assert weight == pytest.approx(1.0 - 0.1)
    assert seen


def test_weighted_rr_level_completion_distance_two():
    # 0 -> 1 -> 2, fixed seed at 0: a root-2 set must include the whole level
    g = graph_from("0 1 1\n1 2 1\n")
    cat = _two_item_catalog()
    base = Allocation.of([(0, "inf")])
    coll = sample_weighted_rr(g, base, "sup", cat, 60, random.Random(8), expected_item_utilities(cat))
    seen = False
    for members, weight in zip(sets_of(coll), coll.weights):
        if 2 in members:
            seen = True
            assert members == frozenset({0, 1, 2})
            assert weight == pytest.approx(0.9)
    assert seen


def test_weighted_rr_members_never_farther_than_fixed_seeds():
    rng = random.Random(11)
    graph, catalog, base = superior_instance(rng)
    sp = base.seed_nodes()
    roots = list(range(graph.n)) * 20
    for root, members in zip(roots, grow(graph, roots, sp, seed=11)):
        if members & sp:
            # reverse BFS distance of every member <= first fixed-seed distance
            dist = {root: 0}
            frontier = [root]
            d = 0
            while frontier:
                nxt = []
                for u in frontier:
                    for src, _ in in_edges(graph, u):
                        if src in members and src not in dist:
                            dist[src] = d + 1
                            nxt.append(src)
                frontier = nxt
                d += 1
            hit = min(dist[v] for v in members & sp)
            assert all(dv <= hit for dv in dist.values())


def _covered_values(graph, coll, seeds):
    """n * weight of each set that holds a seed, 0 for any other."""
    seeds = set(seeds)
    return [
        graph.n * weight if seeds & members else 0.0
        for members, weight in zip(sets_of(coll), coll.weights)
    ]


def exact_covered_value(graph, base, superior, seeds, item_utils):
    """E[n * weight * covered] of one weighted RR set, by enumerating every
    edge world and root: the value the sampler's mean estimates."""
    sp, total = base.seed_nodes(), 0.0
    for world in itertools.product((False, True), repeat=graph.m):
        chance = math.prod(p if live else 1.0 - p for (_, _, p), live in zip(graph.edges, world))
        live_in = {v: [u for (u, w, _), live in zip(graph.edges, world) if live and w == v]
                   for v in range(graph.n)}
        for root in range(graph.n):
            members, level = {root}, [root]
            while level and sp.isdisjoint(level):
                level = [u for v in level for u in live_in[v] if u not in members]
                members.update(level)
            if members & set(seeds):
                total += chance * _weight(members, base, superior, item_utils)
    return total


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
    oracle = WelfareOracle(graph, catalog)
    want = oracle.evaluate(cand.merged(base))[0] - oracle.evaluate(base)[0]
    utils = expected_item_utilities(catalog)
    expected = exact_covered_value(graph, base, "sup", seeds, utils)
    assert expected < want - 1e-3  # visibly below on this instance
    coll = sample_weighted_rr(graph, base, "sup", catalog, 50_000, derive_rng(3000, 6), utils)
    mean, sigma = _mean_and_sigma(_covered_values(graph, coll, seeds))
    assert mean <= want + 3 * sigma  # never biased upward
    assert abs(mean - expected) <= 3 * sigma  # and the samples estimate that value


def test_weighted_identity_matches_marginal_welfare():
    # n * E[covered weight] == exact marginal welfare of seeding the superior item
    rng = random.Random(42)
    graph, catalog, base = superior_instance(rng, n_hi=8, e_hi=9)
    seeds = [0, 3]
    cand = Allocation.of([(v, "sup") for v in seeds])
    oracle = WelfareOracle(graph, catalog)
    want = oracle.evaluate(cand.merged(base))[0] - oracle.evaluate(base)[0]
    utils = expected_item_utilities(catalog)
    coll = sample_weighted_rr(graph, base, "sup", catalog, 40_000, derive_rng(77), utils)
    mean, sigma = _mean_and_sigma(_covered_values(graph, coll, seeds))
    assert abs(mean - want) <= 3 * sigma


def _collection(sets, n=10):
    return collection_of(n, [RefSet(frozenset(members), weight) for _, members, weight in sets])


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
    coll = collection_of(10, [RefSet(frozenset({1})), RefSet(frozenset(), empty=True)])
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
    # the counting greedy counts sets where the weighted one adds their 1.0
    # weights: the same picks, and each fraction is its total over the sets
    rng = random.Random(10)
    sets = [
        (sid % 6, set(rng.sample(range(6), rng.randint(1, 3))), 1.0) for sid in range(30)
    ]
    sampled = sample_marginal_rr(hub_graph(random.Random(301)), frozenset({7, 8}), 3000, derive_rng(12))
    assert set(sampled.weights) == {1.0} and sampled.empty
    for coll, k in ((_collection(sets, n=6), 3), (sampled, 25)):
        for excluded in ((), {0, 7, 8}):
            picks_c, fractions = node_selection_count(coll, k, excluded)
            picks_w, totals = node_selection_weighted(coll, k, excluded)
            assert picks_c == picks_w
            assert all(t == int(t) for t in totals)
            assert fractions == [t / len(coll) for t in totals]


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
    want = oracle.marginal_spread(seeds)
    draws = 50_000
    p_hat = sample_rr(g, draws, derive_rng(123)).coverage_fraction(seeds)
    sigma = math.sqrt(p_hat * (1 - p_hat) / draws)
    assert abs(g.n * p_hat - want) <= 3 * g.n * sigma


def test_marginal_unbiasedness_against_oracle():
    g = graph_from("0 1 0.5\n0 2 0.7\n1 3 0.5\n2 3 0.3\n3 4 0.5\n2 4 0.5\n0 5 0.3\n5 4 0.5\n")
    oracle = SpreadOracle(g)
    fixed = frozenset({2})
    seeds = {0}
    want = oracle.marginal_spread(seeds, fixed)
    draws = 50_000
    coll = sample_marginal_rr(g, fixed, draws, derive_rng(124))
    assert coll.empty > 0
    p_hat = coll.coverage_fraction(seeds)  # empties stay in the denominator
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
    coll = collection_of(n, sets)
    select = node_selection_weighted if weighted else node_selection_count
    got = select(coll, k, excluded=excluded)
    picks, prefix = reference_greedy(n, sets, k, weighted, excluded)
    if not weighted:
        prefix = [t / len(sets) if sets else 0.0 for t in prefix]
    assert got == (picks, prefix)
    return picks


@pytest.mark.parametrize("weighted", [False, True], ids=["count", "weighted"])
def test_array_greedy_equals_loop_greedy_on_sampled_sets(weighted, monkeypatch):
    rng = random.Random(300)
    graph = hub_graph(rng)
    srng = derive_rng(11)
    fixed = frozenset({7, 8})
    sets = ref_sets(sample_marginal_rr(graph, fixed, 3000, srng))
    if weighted:
        sets = [rr._replace(weight=srng.uniform(0.0, 3.0)) for rr in sets]
    assert any(rr.empty for rr in sets)
    for excluded in ((), fixed, set(range(0, graph.n, 7))):
        _both_greedies(graph.n, sets, 25, weighted, excluded)
    # batches of about 5 slots split a pick's newly covered sets, a larger
    # set going whole, and still subtract in set order
    assert max(len(rr.members) for rr in sets) > 5
    monkeypatch.setattr(ris, "GREEDY_SLOTS", 5)
    _both_greedies(graph.n, sets, 25, weighted)


def test_array_greedy_adds_and_subtracts_weights_in_set_order():
    # node 1 sums 0.1 + 0.2 + 0.3 = 0.6000000000000001 in set order, just
    # above node 0's 0.6; the reverse order gives 0.6 and a tie won by node 0
    sets = [
        RefSet(frozenset({1}), weight=0.1),
        RefSet(frozenset({1}), weight=0.2),
        RefSet(frozenset({1}), weight=0.3),
        RefSet(frozenset({0}), weight=0.6),
    ]
    assert _both_greedies(2, sets, 2, True) == [1, 0]
    # after node 4 covers the first three sets, node 2 keeps
    # ((0.1 + 0.1 + 0.2 + 0.1) - 0.1 - 0.1 - 0.2) = 0.10000000000000003 when
    # subtracted in set order, above node 0's 0.1; subtracting the sum or in
    # reverse order leaves 0.09999999999999998, below it
    sets = [
        RefSet(frozenset({2, 4}), weight=0.1),
        RefSet(frozenset({2, 4}), weight=0.1),
        RefSet(frozenset({2, 4}), weight=0.2),
        RefSet(frozenset({2}), weight=0.1),
        RefSet(frozenset({0}), weight=0.1),
        RefSet(frozenset({4}), weight=10.0),
        RefSet(frozenset(), weight=5.0, empty=True),
    ]
    assert _both_greedies(5, sets, 3, True) == [4, 2, 0]
    assert _both_greedies(5, sets, 3, True, excluded={4}) == [2, 0, 1]
    with pytest.raises(RISError, match="not enough selectable nodes"):
        node_selection_weighted(_collection([(0, {1}, 1.0)], n=3), 3, excluded={0})


def test_counting_greedy_peak_is_at_most_16_bytes_per_member():
    """The counting greedy keeps one by-node order of the member slots (8
    bytes per member) and expands the slots of newly covered sets a bounded
    batch at a time, so its traced peak is at most 16 bytes per member plus
    O(n + sets), even where its first pick covers most sets. A per-member
    set id and slot weight beside that order would take 24."""
    n = 1000
    rng = random.Random(31)
    graph = Graph(n, [(u, v, 0.3) for v in range(n) for u in rng.sample(range(n), 6) if u != v])
    coll = sample_rr(graph, 500, derive_rng(31))
    members = len(coll.members)
    assert members > 100 * (n + len(coll))
    tracemalloc.start()
    try:
        _, fractions = node_selection_count(coll, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fractions[0] > 0.5
    assert peak <= 16 * members + 64 * (n + len(coll))


def test_node_ids_past_int32_are_refused_before_anything_is_allocated():
    class HugeGraph:  # all a sampler reads before it allocates
        n = 2**31

    cat = _two_item_catalog()
    base = Allocation.of([(0, "inf")])
    tracemalloc.start()
    try:
        with pytest.raises(RISError, match="n < 2\\*\\*31"):
            RRCollection(2**31)
        with pytest.raises(RISError, match="n < 2\\*\\*31"):
            sample_marginal_rr(HugeGraph(), frozenset(), 10, random.Random(1))
        with pytest.raises(RISError, match="n < 2\\*\\*31"):
            sample_weighted_rr(HugeGraph(), base, "sup", cat, 10, random.Random(1), {"sup": 1.0, "inf": 0.1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert len(RRCollection(2**31 - 1)) == 0  # the largest graph a collection holds


# -- the batch sampler on a graph with every kind of node ----------------------

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
    """One marginal RR set by a per-set DFS: one coin per in-edge whose
    source is not yet a member, in edge-id order."""
    root = rng.randrange(graph.n)
    if root in fixed_seeds:
        return RefSet(frozenset(), empty=True)
    members, stack = {root}, [root]
    while stack:
        u = stack.pop()
        for src, p in in_edges(graph, u):
            if src not in members and rng.random() < p:
                if src in fixed_seeds:
                    return RefSet(frozenset(), empty=True)
                members.add(src)
                stack.append(src)
    return RefSet(frozenset(members))


def _weight(members, base, superior, item_utils):
    hit = [it for node in members & base.seed_nodes() for it in base.items_at(node)]
    return item_utils[superior] - max((item_utils[it] for it in hit), default=0.0)


def per_edge_coin_weighted_rr(graph, base, superior, rng, item_utils):
    """One weighted RR set by a per-set level loop with per-edge coins."""
    sp_nodes = base.seed_nodes()
    root = rng.randrange(graph.n)
    members, level = {root}, [root]
    while level and sp_nodes.isdisjoint(level):
        nxt = []
        for u in level:
            for src, p in in_edges(graph, u):
                if src not in members and rng.random() < p:
                    members.add(src)
                    nxt.append(src)
        level = nxt
    return RefSet(frozenset(members), _weight(members, base, superior, item_utils))


def test_skip_graph_has_every_kind_of_node():
    g = skip_graph()

    def probs(v):
        return {p for _, p in in_edges(g, v)}

    assert len(in_edges(g, 0)) >= 100 and probs(0) == {HUB_P}
    assert probs(2) == {1.0} and probs(3) == {0.0}
    assert probs(1) == {0.5} and probs(5) == {0.25}
    assert len(probs(4)) > 1 and len(probs(6)) > 1
    assert all(not in_edges(g, leaf) for leaf in LEAVES)


def _mean_and_sigma(values):
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var / len(values))


def test_skip_plain_coverage_matches_spread_oracle():
    g = skip_graph()
    seeds = {7, 8, 4}
    want = SpreadOracle(core_graph([7, 8])).marginal_spread(seeds)
    coll = sample_rr(g, 60_000, derive_rng(501))
    mean, sigma = _mean_and_sigma([g.n * bool(seeds & members) for members in sets_of(coll)])
    assert abs(mean - want) <= 3 * sigma


def test_skip_marginal_coverage_matches_spread_oracle():
    g = skip_graph()
    fixed, seeds = frozenset({2}), {7, 8, 6}
    want = SpreadOracle(core_graph([7, 8])).marginal_spread(seeds, fixed)
    coll = sample_marginal_rr(g, fixed, 60_000, derive_rng(502))
    mean, sigma = _mean_and_sigma([g.n * bool(seeds & members) for members in sets_of(coll)])
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
    oracle = WelfareOracle(core_graph([7, 8]), catalog)
    want = oracle.evaluate(cand.merged(base))[0] - oracle.evaluate(base)[0]
    utils = expected_item_utilities(catalog)
    coll = sample_weighted_rr(g, base, "sup", catalog, 60_000, derive_rng(503), utils)
    mean, sigma = _mean_and_sigma(_covered_values(g, coll, seeds))
    assert abs(mean - want) <= 3 * sigma


def test_hub_live_in_edges_are_binomial():
    g = skip_graph()
    d = len(in_edges(g, 0))
    draws = 50_000
    # the hub's sources are leaves with no in-edges, so the BFS ends with them
    counts = [len(members) - 1 for members in grow(g, [0] * draws, seed=504)]
    _assert_binomial(counts, d, HUB_P)


def _assert_binomial(counts, d, p):
    """`counts` have the mean and the zero rate of Binomial(d, p), each
    within 3 sigma."""
    mean, sigma = _mean_and_sigma(counts)
    assert abs(mean - d * p) <= 3 * sigma
    p0 = (1.0 - p) ** d
    zeros = sum(c == 0 for c in counts) / len(counts)
    assert abs(zeros - p0) <= 3 * math.sqrt(p0 * (1.0 - p0) / len(counts))


def in_hub(probs) -> Graph:
    """Node 0 with one in-edge from each of the leaves 1, 2, ..., at `probs`."""
    return Graph(len(probs) + 1, [(src, 0, p) for src, p in enumerate(probs, start=1)])


def test_certain_hub_puts_every_source_in_every_set():
    # the skips stop after `SKIPS` candidates; plain coins decide the rest
    assert set(grow(in_hub([1.0] * 2000), [0] * 20, seed=511)) == {frozenset(range(2001))}


def test_half_hub_live_in_edges_are_binomial():
    # a walk at q = 0.5 is still inside after `SKIPS` candidates: coins decide the rest
    d, draws = 2000, 1000
    counts = [len(members) - 1 for members in grow(in_hub([0.5] * d), [0] * draws, seed=512)]
    _assert_binomial(counts, d, 0.5)


def test_mixed_in_edges_keep_each_source_at_its_own_probability():
    # q = 0.9: the p = 0.01 candidates are kept with p / q, and slots past
    # the `SKIPS`-th candidate get plain coins
    probs = [0.01] * 5 + [0.9] + [0.01] * 5
    draws = 20_000
    sets = grow(in_hub(probs), [0] * draws, seed=513)
    for src, p in enumerate(probs, start=1):
        rate = sum(src in members for members in sets) / draws
        assert abs(rate - p) <= 3 * math.sqrt(p * (1.0 - p) / draws)


def test_impossible_hub_adds_nothing_and_draws_nothing(monkeypatch):
    hashed = count_hashed(monkeypatch)
    keys = np.arange(50, dtype=np.uint64)
    (nodes, sizes, _), = ris._grown(in_hub([0.0] * 500), np.zeros(50, dtype=np.int64), keys, ())
    assert nodes.tolist() == [0] * 50 and sizes.tolist() == [1] * 50
    assert hashed == [0]


def test_certain_and_impossible_edges_decide_every_set():
    g = skip_graph()
    # node 2's in-edges from 1 and 6 are certain; the level touching 1 is finished
    assert set(grow(g, [2] * 200, {1}, seed=5)) == {frozenset({2, 1, 6})}
    assert set(grow(g, [2] * 200, {2}, seed=5)) == {frozenset({2})}
    assert set(grow(g, [3] * 200, seed=5)) == {frozenset({3})}  # p = 0
    assert set(grow(g, [7] * 200, seed=5)) == {frozenset({7})}  # no in-edges
    # node 0's certain in-edge from member 1 adds nothing: only 2 joins
    cycle = Graph(3, [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
    assert set(grow(cycle, [1] * 200, seed=5)) == {frozenset({0, 1, 2})}


def skip_scale(q: float) -> float:
    """The geometric gap at rate q is ``floor(scale * exponential) + 1``."""
    return -1.0 / math.log1p(-q) if q < 1.0 else 0.0


def stream(key: int, index: int) -> int:
    """Output `index` of the SplitMix64 stream seeded at `key`."""
    return rng._splitmix64((key + index * 0x9E3779B97F4A7C15) & ((1 << 64) - 1))


def value(key: int, index: int) -> int:
    """The 53 coin bits of value `index` of the set keyed `key`."""
    return stream(key, index) >> 11


def keyed_live_in(graph: Graph, key: int, v: int) -> list[int]:
    """The sources of v's live in-edges in the set keyed `key`: one walk of
    geometric skips over v's in-slots in plain Python, from the values
    `ris._live_in_edges` documents."""
    n, m, lo = graph.n, graph.m, int(graph.in_ptr[v])
    ins = in_edges(graph, v)
    q = max((p for _, p in ins), default=0.0)
    live, pos = [], lo - 1  # the in-slot of the last candidate
    if q == 0.0:
        return live
    for r in range(ris.SKIPS):
        exponential = -float(np.log1p(-value(key, m + ris.SKIPS * v + r) * 2.0**-53))
        pos += math.floor(exponential * skip_scale(q)) + 1
        if pos >= lo + len(ins):
            return live
        src, p = ins[pos - lo]
        if p == q or value(key, m + ris.SKIPS * (n + v) + r) * q < p * 2.0**53:
            live.append(src)
    tail = enumerate(ins[pos + 1 - lo :], start=pos + 1)
    return live + [src for slot, (src, p) in tail if value(key, slot) < p * 2.0**53]


def per_set_bfs(graph: Graph, key: int, stop_nodes) -> tuple[frozenset, bool]:
    """One RR set by a plain per-set level loop over the keyed values: its
    members, and whether it stopped after a level that touched
    `stop_nodes`."""
    members = level = {key % graph.n}
    while level:
        if not stop_nodes.isdisjoint(level):
            return frozenset(members), True
        level = {src for v in level for src in keyed_live_in(graph, key, v)} - members
        members = members | level
    return frozenset(members), False


def per_set_loop(graph, count, stop_nodes, rng):
    """A call's sets by `per_set_bfs`, in root order, set s keyed by output
    s of the stream seeded at the call's ``rng.getrandbits(64)``."""
    call = rng.getrandbits(64)
    return [per_set_bfs(graph, stream(call, s), stop_nodes) for s in range(count)]


@pytest.fixture(params=["skip", "cascade"])
def sampled_graph(request):
    """The graph with every kind of node, or a weighted-cascade one."""
    return skip_graph() if request.param == "skip" else weighted_cascade_graph(random.Random(505))


@pytest.mark.parametrize("mark_bytes", [ris.MARK_BYTES, 40], ids=["chunked", "tiny-mark"])
@pytest.mark.parametrize("fixed", [frozenset(), frozenset({0, 3})], ids=["plain", "marginal"])
def test_marginal_rr_matches_the_per_set_loop_bit_for_bit(
    sampled_graph, fixed, mark_bytes, monkeypatch
):
    # a 40-byte mark holds 2 sets of the 127-node graph and 1 of the 400-node
    # one, so the pool refills and yields blocks; a pool that holds the whole
    # call gives its sets in root order
    one_pool = mark_bytes == ris.MARK_BYTES
    monkeypatch.setattr(ris, "MARK_BYTES", mark_bytes)
    count = ris.CHUNK_SETS if one_pool else 300
    new_rng, old_rng = derive_rng(510), derive_rng(510)
    coll = sample_marginal_rr(sampled_graph, fixed, count, new_rng)
    want = [frozenset() if hit else members for members, hit in per_set_loop(
        sampled_graph, count, fixed, old_rng)]
    if one_pool:
        assert sets_of(coll) == want
    assert Counter(sets_of(coll)) == Counter(want)
    assert coll.empty == want.count(frozenset()) and list(coll.weights) == [1.0] * count
    assert new_rng.getstate() == old_rng.getstate()


@pytest.mark.parametrize("graph_kind", ["skip", "cascade"])
def test_weighted_rr_matches_the_helper_sampler_bit_for_bit(graph_kind):
    # the helper is `per_set_loop` plus the weight a per-set sampler gave
    if graph_kind == "skip":
        g = skip_graph()
        base = Allocation.of([(1, "inf"), (6, "inf"), (40, "inf")])
    else:
        g = weighted_cascade_graph(random.Random(505))
        base = Allocation.of((v, "inf") for v in (0, 9, 17, 120, 333))
    catalog, _ = _skip_superior_instance()
    utils = expected_item_utilities(catalog)
    new_rng, old_rng = derive_rng(509), derive_rng(509)
    coll = sample_weighted_rr(g, base, "sup", catalog, ris.CHUNK_SETS, new_rng, utils)
    want = per_set_loop(g, ris.CHUNK_SETS, base.seed_nodes(), old_rng)
    assert sets_of(coll) == [members for members, _ in want]
    assert list(coll.weights) == [_weight(members, base, "sup", utils) for members, _ in want]
    assert new_rng.getstate() == old_rng.getstate() and coll.empty == 0


@pytest.mark.parametrize("weighted", [False, True], ids=["marginal", "weighted"])
def test_a_call_draws_the_same_sets_at_every_pool_width(sampled_graph, weighted, monkeypatch):
    # one pool for the whole call, one of 2 or 1 slots refilled as sets end,
    # and one set at a time
    catalog, _ = _skip_superior_instance()
    utils = expected_item_utilities(catalog)
    base = Allocation.of([(0, "inf"), (3, "inf")])
    count = 1_000

    def draw():
        rng = derive_rng(518)
        if weighted:
            coll = sample_weighted_rr(sampled_graph, base, "sup", catalog, count, rng, utils)
        else:
            coll = sample_marginal_rr(sampled_graph, base.seed_nodes(), count, rng)
        return Counter(zip(sets_of(coll), coll.weights)), coll.empty

    want = draw()
    assert want[1] > 0 or weighted
    with monkeypatch.context() as patch:
        patch.setattr(ris, "MARK_BYTES", 40)
        assert draw() == want
    monkeypatch.setattr(ris, "CHUNK_SETS", 1)
    assert draw() == want


def test_prima_plus_picks_the_same_seeds_at_every_pool_width(monkeypatch):
    g = weighted_cascade_graph(random.Random(505))

    def picks():
        return prima_plus(g, 0.5, 1.0, frozenset({0, 9}), [2, 5], 5, derive_rng(519))

    want = picks()
    monkeypatch.setattr(ris, "CHUNK_SETS", 7)
    assert picks() == want
    monkeypatch.setattr(ris, "MARK_BYTES", 150)  # 3 slots of the 400-node graph
    assert picks() == want


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
    new = [len(members) for members in sets_of(sample_marginal_rr(g, fixed, draws, new_rng))]
    old = [len(per_edge_coin_rr(g, fixed, old_rng).members) for _ in range(draws)]
    _same_size_distribution(new, old)


def test_skip_weighted_rr_sizes_and_weights_match_the_per_edge_coin_sampler():
    g = weighted_cascade_graph(random.Random(507))
    catalog, _ = _skip_superior_instance()
    base = Allocation.of([(0, "inf"), (9, "inf")])
    utils = expected_item_utilities(catalog)
    new_rng, old_rng = derive_rng(508, "new"), derive_rng(508, "old")
    draws = 20_000
    new = ref_sets(sample_weighted_rr(g, base, "sup", catalog, draws, new_rng, utils))
    old = [per_edge_coin_weighted_rr(g, base, "sup", old_rng, utils) for _ in range(draws)]
    _same_size_distribution([len(rr.members) for rr in new], [len(rr.members) for rr in old])
    new_w, new_s = _mean_and_sigma([rr.weight for rr in new])
    old_w, old_s = _mean_and_sigma([rr.weight for rr in old])
    assert abs(new_w - old_w) <= 3 * math.hypot(new_s, old_s)


def test_skips_draw_under_half_the_per_edge_coins(monkeypatch):
    # a per-edge-coin sampler draws one coin per in-edge of every member of
    # a plain RR set; the skips hash a key per set and at most `SKIPS` gaps
    # per member with in-edges, some acceptances and tail coins
    g = weighted_cascade_graph(random.Random(505))
    hashed = count_hashed(monkeypatch)
    coll = sample_rr(g, 20_000, derive_rng(517))
    members, _ = coll._arrays()
    coins = int(np.diff(g.in_ptr)[members].sum())
    assert 20_000 < hashed[0] < coins / 2


def test_keyed_in_edge_liveness_is_unbiased_and_independent():
    """20,000 sets rooted at a hub whose sources are leaves, so each set is
    the hub and the sources of its live in-edges: each in-edge's live
    fraction, and the joint fraction of neighbouring in-edges and of one
    in-edge in consecutive sets, lie within 4 standard errors of p and of
    the product of the probabilities. The hub's first in-slots are skip
    candidates, thinned at p / q, and the rest take tail coins."""
    probs = [0.001, 0.1, 0.5, 0.999, 0.5, 0.001, 0.999, 0.1]
    count = 20_000
    live = np.zeros((count, len(probs)), dtype=bool)
    for s, members in enumerate(grow(in_hub(probs), [0] * count, seed=17)):
        live[s, [src - 1 for src in members if src]] = True

    def within_4_stderr(hits: np.ndarray, p: float) -> bool:
        return abs(hits.mean() - p) <= 4 * math.sqrt(p * (1 - p) / len(hits))

    for slot, p in enumerate(probs):
        assert within_4_stderr(live[:, slot], p), slot
        assert within_4_stderr(live[1:, slot] & live[:-1, slot], p * p), slot
    for slot, (p, q) in enumerate(zip(probs, probs[1:])):
        assert within_4_stderr(live[:, slot] & live[:, slot + 1], p * q), slot
