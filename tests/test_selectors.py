import math
import random

import pytest

from welfaremax.diffusion import Allocation
from welfaremax import selectors
from welfaremax.graph import Graph
from welfaremax.oracle import SpreadOracle
from welfaremax.ris import (
    RRCollection,
    node_selection_count,
    node_selection_weighted,
    sample_marginal_rr,
    sample_weighted_rr,
)
from welfaremax.rng import derive_rng
from welfaremax.selectors import (
    RRLimitError,
    SamplerParams,
    SelectorError,
    check_superior_instance,
    lambda_prime,
    lambda_star,
    prima_plus,
    supgrd_sampling,
)
from welfaremax.utility import ItemCatalog, expected_item_utilities, expected_truncated_utility

from conftest import graph_from, random_graph, superior_instance


def welfare_upper_bound(graph: Graph, catalog: ItemCatalog, superior: str) -> float:
    """Welfare ceiling of the superior-item search: every node adopting the
    superior item at its expected truncated utility (finite noise only)."""
    val, _ = expected_truncated_utility(catalog, [superior])
    return graph.n * val


def test_lambda_prime_pinned_value():
    # (2 + 2/3) * (ln C(2,1) + 1*ln 2 + ln log2 2) * 2 / 1
    want = (2 + 2 / 3) * (math.log(2) + math.log(2) + 0.0) * 2
    assert lambda_prime(2, 1, 1.0, 1.0, math.log2(2)) == pytest.approx(want, rel=1e-12)
    assert lambda_prime(2, 1, 1.0, 1.0, math.log2(2)) == pytest.approx(16 / 3 * math.log(4), rel=1e-12)


def test_lambda_prime_monotone_in_k():
    vals = [lambda_prime(100, k, 0.5, 1.2, math.log2(100)) for k in range(1, 50)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_lambda_prime_large_instance_no_overflow():
    val = lambda_prime(10_000, 50, 0.7, 1.5, math.log2(10_000))
    assert math.isfinite(val) and val > 0


def test_lambda_star_pinned_value():
    alpha = math.sqrt(math.log(2) + math.log(2))
    beta = math.sqrt((1 - 1 / math.e) * (math.log(2) + math.log(2) + math.log(2)))
    want = 2 * 2 * ((1 - 1 / math.e) * alpha + beta) ** 2
    assert lambda_star(2, 1, 1.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_lambda_star_monotone_and_eps_scaling():
    vals = [lambda_star(64, k, 0.3, 1.0) for k in range(1, 32)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert lambda_star(64, 4, 0.15, 1.0) == pytest.approx(
        4 * lambda_star(64, 4, 0.3, 1.0), rel=1e-12
    )


def test_sampler_params_validation():
    with pytest.raises(SelectorError):
        SamplerParams(8, 1.5, 1.0, (1,))
    with pytest.raises(SelectorError):
        SamplerParams(8, 0.5, -1.0, (1,))
    with pytest.raises(SelectorError):
        SamplerParams(8, 0.5, 1.0, (2, 1))
    with pytest.raises(SelectorError):
        SamplerParams(1, 0.5, 1.0, (1,))
    p = SamplerParams(8, 0.5, 1.0, (1, 2, 3))
    assert p.eps_prime == pytest.approx(math.sqrt(2) * 0.5)
    assert p.ell_prime >= p.ell_hat >= p.ell
    assert p.b_max == 3


def _star(leaves=5):
    return graph_from("".join(f"0 {k} 1\n" for k in range(1, leaves + 1)))


def test_prima_plus_star_picks_hub_first():
    g = _star()
    seeds = prima_plus(g, 0.3, 1.0, frozenset(), [1], 1, derive_rng(1))
    assert seeds == [0]


def test_prima_plus_avoids_fixed_hub():
    g = _star()
    oracle = SpreadOracle(g)
    seeds = prima_plus(g, 0.3, 1.0, frozenset({0}), [1], 1, derive_rng(2))
    assert seeds[0] != 0
    best_set, best = oracle.best_marginal(1, [0])
    assert oracle.marginal_spread(seeds[:1], [0]) == pytest.approx(best)


def test_prima_plus_infeasible_budget():
    g = _star(3)
    with pytest.raises(SelectorError, match="infeasible"):
        prima_plus(g, 0.3, 1.0, frozenset({0, 1}), [3], 3, derive_rng(3))
    with pytest.raises(SelectorError, match="exceed"):
        prima_plus(g, 0.3, 1.0, frozenset(), [4], 2, derive_rng(3))


def test_prima_plus_returns_distinct_ordered_seeds():
    g = graph_from("0 1 0.6\n1 2 0.5\n2 3 0.4\n3 0 0.6\n0 4 0.5\n4 5 0.5\n")
    seeds = prima_plus(g, 0.4, 1.0, frozenset({1}), [1, 3], 3, derive_rng(4))
    assert len(seeds) == 3
    assert len(set(seeds)) == 3
    assert 1 not in seeds


def test_prima_plus_prefix_quality_on_random_runs():
    g = graph_from(
        "0 1 0.6\n0 2 0.6\n1 3 0.5\n2 4 0.5\n3 5 0.4\n4 6 0.4\n5 7 0.6\n2 3 0.3\n6 0 0.3\n1 4 0.5\n7 6 0.4\n"
    )
    fixed = frozenset({2})
    oracle = SpreadOracle(g)
    opts = {b: oracle.best_marginal(b, fixed)[1] for b in (1, 2, 3)}
    bound = 1 - 1 / math.e - 0.1
    for trial in range(10):
        seeds = prima_plus(g, 0.1, 1.0, fixed, [1, 2, 3], 3, derive_rng(50, trial))
        for b in (1, 2, 3):
            got = oracle.marginal_spread(seeds[:b], fixed)
            assert got >= bound * opts[b]


def test_prima_plus_trace_shows_budget_advance_and_prefix_reuse():
    # dense certain graph: coverage certifies immediately, budgets advance at one x
    g = Graph(8, [(u, v, 1.0) for u in range(8) for v in range(8) if u != v][:15])
    lines = []
    prima_plus(g, 0.3, 1.0, frozenset(), [1, 2], 2, derive_rng(5), trace=lines.append)
    certify = [ln for ln in lines if ln.startswith("phase=certify")]
    assert len(certify) == 2
    fields = [dict(kv.split("=") for kv in ln.split()) for ln in certify]
    assert fields[0]["i"] == fields[1]["i"]  # same doubling step
    assert int(fields[0]["k"]) == 1 and int(fields[1]["k"]) == 2
    assert lines[-1].startswith("phase=final")
    # the fresh collection is sized by the last certified lower bound
    final = dict(kv.split("=") for kv in lines[-1].split())
    ellp = SamplerParams(8, 0.3, 1.0, (1, 2)).ell_prime
    lb = float(fields[1]["lb"])
    assert int(final["theta"]) == math.ceil(lambda_star(8, 2, 0.3, ellp) / lb)


def test_welfare_upper_bound_is_product():
    g = Graph(100, [(k, k + 1, 0.5) for k in range(99)])
    cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 2})
    assert welfare_upper_bound(g, cat, "a") == 100.0


def test_check_superior_instance_errors():
    graph, catalog, base = superior_instance(random.Random(3))
    check_superior_instance(catalog, base, "sup")
    with pytest.raises(SelectorError, match="superior item is"):
        check_superior_instance(catalog, base, catalog.items[1])
    with pytest.raises(SelectorError, match="cover exactly"):
        check_superior_instance(catalog, Allocation.empty(), "sup")
    no_sup = ItemCatalog(
        ["a", "b"], prices={"a": 1, "b": 1}, valuations={("a",): 2, ("b",): 2, ("a", "b"): 2}
    )
    with pytest.raises(SelectorError, match="no superior item"):
        check_superior_instance(no_sup, Allocation.empty(), "a")
    soft = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 1.5, ("a", "b"): 3.6},
    )
    with pytest.raises(SelectorError, match="pure competition"):
        check_superior_instance(soft, Allocation.of([(0, "b")]), "a")


def test_supgrd_sampling_degenerate_single_item():
    # no inferior items at all: every weight equals E[U+] and theta = lambda / LB
    g = graph_from("0 1 0.5\n1 2 0.5\n2 0 0.5\n1 3 0.5\n3 4 0.5\n")
    cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 2})
    lines = []
    coll = supgrd_sampling(
        g, cat, Allocation.empty(), "a", 1, 0.3, 1.0, derive_rng(6), trace=lines.append
    )
    assert all(w == 1.0 for w in coll.weights)
    final = dict(kv.split("=") for kv in lines[-1].split())
    assert final["phase"] == "final"
    lb = float(final["lb"])
    n = g.n
    ell_hat = 1.0 + math.log(2) / math.log(n)
    alpha = math.sqrt(ell_hat * math.log(n) + math.log(2))
    beta = math.sqrt(
        (1 - 1 / math.e) * (math.log(n) + ell_hat * math.log(n) + math.log(2))
    )
    lam = 2 * n * ((1 - 1 / math.e) * alpha + beta) ** 2 / 0.09
    assert len(coll) == math.ceil(lam / lb)
    # the certified bound cannot exceed the welfare ceiling
    assert lb <= welfare_upper_bound(g, cat, "a")


def test_supgrd_sampling_validates_conditions():
    g = graph_from("0 1 0.5\n")
    soft = ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 1},
        valuations={("a",): 3, ("b",): 1.5, ("a", "b"): 3.6},
    )
    with pytest.raises(SelectorError, match="pure competition"):
        supgrd_sampling(g, soft, Allocation.of([(0, "b")]), "a", 1, 0.3, 1.0, derive_rng(7))
    pure = ItemCatalog(
        ["a", "b"],
        prices={"a": 12, "b": 12},
        valuations={("a",): 22, ("b",): 13, ("a", "b"): 24},
    )
    with pytest.raises(SelectorError, match="ell must be positive"):
        supgrd_sampling(g, pure, Allocation.of([(0, "b")]), "a", 1, 0.3, 0.0, derive_rng(7))


def test_prima_plus_certified_bounds_stay_below_opt_statistically():
    # every certified lower bound must undershoot the true marginal optimum
    # in at least 90 of 100 seeded runs
    g = Graph(8, [(u, v, 1.0) for u in range(8) for v in range(8) if u != v][:14])
    fixed = frozenset({0})
    oracle = SpreadOracle(g)
    budgets = (1, 2)
    opts = {b: oracle.best_marginal(b, fixed)[1] for b in budgets}
    good_runs = 0
    for trial in range(100):
        lines = []
        prima_plus(g, 0.3, 1.0, fixed, list(budgets), 2, derive_rng(600, trial), trace=lines.append)
        ok = True
        for ln in lines:
            fields = dict(kv.split("=") for kv in ln.split())
            if fields["phase"] == "certify":
                if float(fields["lb"]) > opts[int(fields["k"])] + 1e-9:
                    ok = False
        if ok:
            good_runs += 1
    assert good_runs >= 90


def test_supgrd_sampling_certified_bound_below_opt_statistically():
    rng = random.Random(8)
    graph, catalog, base = superior_instance(rng, n_hi=8, e_hi=9)
    from welfaremax.oracle import WelfareOracle, optimal_allocation

    _, opt_total = optimal_allocation(graph, catalog, {"sup": 2}, base)
    opt_marginal = opt_total - WelfareOracle(graph, catalog).welfare(base)
    good_runs = 0
    for trial in range(100):
        lines = []
        supgrd_sampling(
            graph, catalog, base, "sup", 2, 0.2, 1.0, derive_rng(700, trial), trace=lines.append
        )
        final = dict(kv.split("=") for kv in lines[-1].split())
        lb = float(final["lb"])
        if lb <= opt_marginal + 1e-9 or lb == 1.0:  # 1.0 is the uncertified fallback
            good_runs += 1
    assert good_runs >= 90


def test_supgrd_sampling_lower_bound_below_marginal_opt():
    rng = random.Random(8)
    graph, catalog, base = superior_instance(rng, n_hi=8, e_hi=9)
    from welfaremax.oracle import WelfareOracle, optimal_allocation

    _, opt_total = optimal_allocation(graph, catalog, {"sup": 2}, base)
    opt_marginal = opt_total - WelfareOracle(graph, catalog).welfare(base)
    lines = []
    supgrd_sampling(graph, catalog, base, "sup", 2, 0.2, 1.0, derive_rng(9), trace=lines.append)
    final = dict(kv.split("=") for kv in lines[-1].split())
    lb = float(final["lb"])
    assert lb <= opt_marginal + 1e-9 or lb == 1.0  # 1.0 is the uncertified fallback


# -- the shared doubling search against the two searches it replaced ----------


def _two_search_prima_plus(graph, eps, ell, fixed_seeds, budgets, b_max, rng):
    """`prima_plus` with its own search loop, as before the selectors shared
    one, less the top-up after the last certify (those sets went unread)."""
    fixed = frozenset(fixed_seeds)
    n = graph.n
    budgets = sorted(set(budgets) | {b_max})
    params = SamplerParams(n, eps, ell, tuple(budgets))
    epsp, ellp = params.eps_prime, params.ell_prime
    coll = RRCollection(n)
    s_idx, i, lb = 0, 1, 1.0
    budget_switch, prev_order, theta_k = False, None, None
    while i <= math.log2(n) - 1.0 + 1e-12 and s_idx < len(budgets):
        k = budgets[s_idx]
        lb = 1.0
        x = n / 2.0**i
        theta_i = math.ceil(lambda_prime(n, k, epsp, ellp, math.log2(n)) / x)
        while len(coll) < theta_i:
            coll.add(sample_marginal_rr(graph, fixed, rng))
        if budget_switch and prev_order is not None:
            order = prev_order
        else:
            order, _ = node_selection_count(coll, b_max, excluded=fixed)
            prev_order = order
        estimate = n * coll.coverage_fraction(order[:k])
        if estimate >= (1.0 + epsp) * x:
            lb = estimate / (1.0 + epsp)
            theta_k = math.ceil(lambda_star(n, k, eps, ellp) / lb)
            s_idx += 1
            if s_idx < len(budgets):
                while len(coll) < theta_k:
                    coll.add(sample_marginal_rr(graph, fixed, rng))
            budget_switch = True
        else:
            i += 1
            budget_switch = False
    if s_idx < len(budgets):
        theta_k = math.ceil(lambda_star(n, budgets[s_idx], eps, ellp) / lb)
    fresh = RRCollection(n)
    while len(fresh) < theta_k:
        fresh.add(sample_marginal_rr(graph, fixed, rng))
    return node_selection_count(fresh, b_max, excluded=fixed)[0]


def _two_search_supgrd_sampling(graph, catalog, base, superior, b_prime, eps, ell, rng):
    """`supgrd_sampling` with its own search loop, as before the selectors
    shared one."""
    n = graph.n
    params = SamplerParams(n, eps, ell, (b_prime,))
    epsp, ell_hat = params.eps_prime, params.ell_hat
    item_utils = expected_item_utilities(catalog, rng=rng)
    ub = n * item_utils[superior]
    rounds = max(1, math.ceil(math.log2(ub))) if ub > 1.0 else 1
    lam_prime = lambda_prime(n, b_prime, epsp, ell_hat, rounds)
    coll = RRCollection(n)
    lb, i = 1.0, 1
    i_max = math.log2(ub) - 1.0 if ub > 1.0 else 0.0
    while i <= i_max + 1e-12:
        x = ub / 2.0**i
        while len(coll) < math.ceil(lam_prime / x):
            coll.add(sample_weighted_rr(graph, base, superior, catalog, rng, item_utils))
        _, totals = node_selection_weighted(coll, b_prime)
        estimate = n * totals[-1] / len(coll)
        if estimate >= (1.0 + epsp) * x:
            lb = estimate / (1.0 + epsp)
            break
        i += 1
    theta = math.ceil(lambda_star(n, b_prime, eps, ell_hat) / lb)
    fresh = RRCollection(n)
    while len(fresh) < theta:
        fresh.add(sample_weighted_rr(graph, base, superior, catalog, rng, item_utils))
    return fresh


def _prima_case(case: int):
    """Graph, eps, fixed seeds, budgets, b_max and rng seed of one comparison case."""
    if case == 24:  # weak edges: coverage never reaches (1 + eps') x, so the search stalls
        return Graph(8, [(k, k + 1, 0.05) for k in range(7)]), 0.2, frozenset(), [1, 2], 2, 24
    if case == 25:  # k = 1 certifies, then k = 2 fails at the same x on the reused order
        return Graph(10, [(0, v, 0.8) for v in range(1, 10)]), 0.5, frozenset(), [1, 2], 2, 110
    rng = random.Random(80 + case)
    if case % 4 == 3:  # n <= 3: the search never runs and stalls at LB = 1
        n = rng.randint(2, 3)
        graph = Graph(n, [(u, v, 0.5) for u in range(n) for v in range(n) if u != v])
    else:
        graph = random_graph(rng, n_lo=5, n_hi=10, e_lo=4, e_hi=16)
    fixed = frozenset(rng.sample(range(graph.n), rng.randint(0, 1)))
    b_max = rng.randint(1, min(4, graph.n - len(fixed)))
    budgets = sorted(rng.sample(range(1, b_max + 1), rng.randint(1, b_max)))
    return graph, rng.choice((0.2, 0.3, 0.5)), fixed, budgets, b_max, case


@pytest.mark.parametrize("case", range(26))
def test_prima_plus_shared_search_matches_its_own_search(case):
    graph, eps, fixed, budgets, b_max, seed = _prima_case(case)
    ours, theirs = derive_rng(81, seed), derive_rng(81, seed)
    got = prima_plus(graph, eps, 1.0, fixed, budgets, b_max, ours)
    want = _two_search_prima_plus(graph, eps, 1.0, fixed, budgets, b_max, theirs)
    assert got == want
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("case", range(12))
def test_supgrd_sampling_shared_search_matches_its_own_search(case):
    rng = random.Random(90 + case)
    graph, catalog, base = superior_instance(rng, n_hi=9, e_hi=12, equal_inferiors=case % 2 == 0)
    b_prime = rng.randint(1, 2)
    eps = rng.choice((0.2, 0.3, 0.5))
    ours, theirs = derive_rng(91, case), derive_rng(91, case)
    got = supgrd_sampling(graph, catalog, base, "sup", b_prime, eps, 1.0, ours)
    want = _two_search_supgrd_sampling(graph, catalog, base, "sup", b_prime, eps, 1.0, theirs)
    assert (got.members, got.offsets, got.weights) == (want.members, want.offsets, want.weights)
    assert ours.getstate() == theirs.getstate()


def test_prima_plus_draws_nothing_after_the_last_budget_certifies(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return sample_marginal_rr(*args)

    monkeypatch.setattr(selectors, "sample_marginal_rr", counting)
    path6 = graph_from("0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n")
    prima_plus(path6, 0.5, 1.0, frozenset(), [1, 2, 3], 3, derive_rng(0))
    # 159 search sets and 163 fresh ones; topping the search up to the last
    # certified size drew 4 more that nothing read
    assert len(calls) == 159 + 163


@pytest.mark.parametrize("selector", ["prima_plus", "supgrd_sampling"])
def test_final_line_announces_the_fresh_collection_before_drawing_it(monkeypatch, selector):
    events = []
    for name in ("sample_marginal_rr", "sample_weighted_rr"):
        real = getattr(selectors, name)

        def recording(*args, real=real):
            events.append("sample")
            return real(*args)

        monkeypatch.setattr(selectors, name, recording)
    if selector == "prima_plus":
        path6 = graph_from("0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n")
        prima_plus(path6, 0.5, 1.0, frozenset(), [1, 2, 3], 3, derive_rng(0), events.append)
    else:
        graph, catalog, base = superior_instance(random.Random(3), n_hi=8, e_hi=9)
        supgrd_sampling(graph, catalog, base, "sup", 2, 0.5, 1.0, derive_rng(1), events.append)
    final = [k for k, ev in enumerate(events) if ev.startswith("phase=final")]
    assert len(final) == 1
    theta = int(dict(kv.split("=") for kv in events[final[0]].split())["theta"])
    # every event after the line is a draw of the fresh collection, theta in all
    assert events[final[0] + 1 :] == ["sample"] * theta
    assert "sample" in events[: final[0]]


def _recording_samplers(monkeypatch, events):
    for name in ("sample_marginal_rr", "sample_weighted_rr"):
        real = getattr(selectors, name)

        def recording(*args, real=real):
            events.append("sample")
            return real(*args)

        monkeypatch.setattr(selectors, name, recording)


@pytest.mark.parametrize("selector", ["prima_plus", "supgrd_sampling"])
def test_search_plan_over_the_rr_set_cap_raises_before_any_draw(monkeypatch, selector):
    events = []
    _recording_samplers(monkeypatch, events)
    monkeypatch.setattr(selectors, "MAX_RR_SETS", 5)
    with pytest.raises(RRLimitError, match="cap is 5"):
        if selector == "prima_plus":
            path6 = graph_from("0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n")
            prima_plus(path6, 0.5, 1.0, frozenset(), [1, 2, 3], 3, derive_rng(0))
        else:
            graph, catalog, base = superior_instance(random.Random(3), n_hi=8, e_hi=9)
            supgrd_sampling(graph, catalog, base, "sup", 2, 0.5, 1.0, derive_rng(1))
    assert events == []


def test_final_plan_over_the_rr_set_cap_raises_before_drawing_it(monkeypatch):
    events = []
    _recording_samplers(monkeypatch, events)
    # the search grows to 159 sets and the final collection would hold 163
    monkeypatch.setattr(selectors, "MAX_RR_SETS", 160)
    path6 = graph_from("0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n")
    with pytest.raises(RRLimitError, match="planned 163 RR sets, cap is 160"):
        prima_plus(path6, 0.5, 1.0, frozenset(), [1, 2, 3], 3, derive_rng(0), events.append)
    assert events.count("sample") == 159
    assert events[-1].startswith("phase=final") and "theta=163" in events[-1]
