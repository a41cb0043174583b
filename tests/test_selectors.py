import math
import random
import re

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


@pytest.mark.parametrize(
    "scale",
    [lambda k: lambda_prime(5, k, 0.5, 1.0, 3.0), lambda k: lambda_star(5, k, 0.5, 1.0)],
    ids=["lambda-prime", "lambda-star"],
)
@pytest.mark.parametrize("k", [0, 6])
def test_sample_size_scales_need_a_budget_in_1_to_n(scale, k):
    with pytest.raises(SelectorError, match=re.escape(f"budget {k} outside [1, 5]")):
        scale(k)


def test_sampler_params_need_positive_budgets():
    with pytest.raises(SelectorError, match="budgets must be positive"):
        SamplerParams(8, 0.5, 1.0, (0, 1))


def _star(leaves=5):
    return graph_from("".join(f"0 {k} 1\n" for k in range(1, leaves + 1)))


def _fields(line: str) -> dict[str, str]:
    """The `key=value` fields of one trace line."""
    return dict(kv.split("=") for kv in line.split())


def _stars(leaf_counts):
    """Disjoint stars at p = 1, each a hub followed by its leaves."""
    edges, hub = [], 0
    for leaves in leaf_counts:
        edges += [(hub, hub + leaf, 1.0) for leaf in range(1, leaves + 1)]
        hub += leaves + 1
    return Graph(hub, edges)


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
    # here the last certified budget needs the most fresh sets
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


def test_supgrd_sampling_needs_a_superior_item_worth_adopting():
    # a's utility is exactly 0 and b's is -1: a is superior, yet never adopted
    cat = ItemCatalog(["a", "b"], prices={"a": 1, "b": 1}, valuations={("a",): 1, ("b",): 0})
    with pytest.raises(SelectorError, match="superior item has zero expected truncated utility"):
        supgrd_sampling(
            graph_from("0 1 1\n1 2 1\n"), cat, Allocation.of([(0, "b")]), "a", 1, 0.5, 1.0,
            derive_rng(1),
        )


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
    from welfaremax.oracle import WelfareOracle

    oracle = WelfareOracle(graph, catalog)
    _, opt_total, _ = oracle.optimal({"sup": 2}, base)
    opt_marginal = opt_total - oracle.evaluate(base)[0]
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
    from welfaremax.oracle import WelfareOracle

    oracle = WelfareOracle(graph, catalog)
    _, opt_total, _ = oracle.optimal({"sup": 2}, base)
    opt_marginal = opt_total - oracle.evaluate(base)[0]
    lines = []
    supgrd_sampling(graph, catalog, base, "sup", 2, 0.2, 1.0, derive_rng(9), trace=lines.append)
    final = dict(kv.split("=") for kv in lines[-1].split())
    lb = float(final["lb"])
    assert lb <= opt_marginal + 1e-9 or lb == 1.0  # 1.0 is the uncertified fallback


# -- the shared doubling search against the two searches it replaced ----------


def _two_search_prima_plus(graph, eps, ell, fixed_seeds, budgets, b_max, rng, held=True):
    """`prima_plus` with its own search loop, as before the selectors shared
    one, less the top-up after the last certify (those sets went unread).

    With `held`, a budget that follows a certify at round i and would have
    to grow the collection is first tested once on the sets already drawn,
    at the largest round j < i whose size they meet. The fresh collection
    is sized for the budget that needs the most sets, at LB = 1 for each
    budget the search did not certify."""
    fixed = frozenset(fixed_seeds)
    n = graph.n
    budgets = sorted(set(budgets) | {b_max})
    params = SamplerParams(n, eps, ell, tuple(budgets))
    epsp, ellp = params.eps_prime, params.ell_prime
    coll = RRCollection(n)
    s_idx, i, lb = 0, 1, 1.0
    budget_switch, prev_order, top_up, sizes = False, None, 0, []
    while i <= math.log2(n) - 1.0 + 1e-12 and s_idx < len(budgets):
        k = budgets[s_idx]
        lb = 1.0
        x = n / 2.0**i
        lam = lambda_prime(n, k, epsp, ellp, math.log2(n))
        theta_i = max(math.ceil(lam / x), top_up)
        if held and budget_switch and len(coll) < theta_i:
            met = [j for j in range(1, i) if len(coll) >= max(math.ceil(lam / (n / 2.0**j)), top_up)]
            if met:
                estimate = n * coll.coverage_fraction(prev_order[:k])
                if estimate >= (1.0 + epsp) * n / 2.0**met[-1]:
                    lb = estimate / (1.0 + epsp)
                    top_up = math.ceil(lambda_star(n, k, eps, ellp) / lb)
                    sizes.append(top_up)
                    s_idx += 1
                    continue
        if len(coll) < theta_i:
            coll.extend(sample_marginal_rr(graph, fixed, theta_i - len(coll), rng))
        if budget_switch and prev_order is not None:
            order = prev_order
        else:
            order, _ = node_selection_count(coll, b_max, excluded=fixed)
            prev_order = order
        estimate = n * coll.coverage_fraction(order[:k])
        if estimate >= (1.0 + epsp) * x:
            lb = estimate / (1.0 + epsp)
            s_idx += 1
            # the top-up to the fresh size joins the next growth step's one batch
            top_up = math.ceil(lambda_star(n, k, eps, ellp) / lb)
            sizes.append(top_up)
            budget_switch = True
        else:
            i += 1
            budget_switch = False
    sizes += [math.ceil(lambda_star(n, k, eps, ellp) / lb) for k in budgets[s_idx:]]
    fresh = sample_marginal_rr(graph, fixed, max(sizes), rng)
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
        theta_i = math.ceil(lam_prime / x)
        if len(coll) < theta_i:
            coll.extend(
                sample_weighted_rr(graph, base, superior, catalog, theta_i - len(coll), rng, item_utils)
            )
        _, totals = node_selection_weighted(coll, b_prime)
        estimate = n * totals[-1] / len(coll)
        if estimate >= (1.0 + epsp) * x:
            lb = estimate / (1.0 + epsp)
            break
        i += 1
    theta = math.ceil(lambda_star(n, b_prime, eps, ell_hat) / lb)
    return sample_weighted_rr(graph, base, superior, catalog, theta, rng, item_utils)


def _prima_case(case: int):
    """Graph, eps, fixed seeds, budgets, b_max and rng seed of one comparison case."""
    if case == 24:  # weak edges: coverage never reaches (1 + eps') x, so the search stalls,
        # and the fresh draw holds ceil(lambda*(2)) = 4,803 sets, not lambda*(1)'s 4,290
        return Graph(8, [(k, k + 1, 0.05) for k in range(7)]), 0.2, frozenset(), [1, 2], 2, 24
    if case == 25:  # k = 1 certifies, then k = 2 fails at the same x on the reused order
        return Graph(10, [(0, v, 0.8) for v in range(1, 10)]), 0.5, frozenset(), [1, 2], 2, 110
    if case >= 30:  # budget 6 is tested draw-free: case 30 fails there, then certifies on grown sets
        seed = (100, 106)[case - 30]
        rng = random.Random(seed)
        n = 40
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}
        edges = [(u, v, rng.choice((0.3, 0.6, 1.0))) for u, v in sorted(pairs) if u != v]
        return Graph(n, edges), 0.5, frozenset(), [1, 2, 6], 6, seed
    if case >= 26:  # stars: budget 7 certifies draw-free after 2 does, and budget 1 sizes the fresh draw
        leaves = [range(10, 30), [20] * 15, range(5, 25), range(10, 30)][case - 26]
        fixed = frozenset({0}) if case == 28 else frozenset()
        return _stars(leaves), 0.3 if case == 29 else 0.5, fixed, [1, 2, 7], 7, case
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


# the draw-free tests each case runs, True where one certifies
DRAW_FREE = {26: [True], 27: [True], 28: [True], 29: [True], 30: [False], 31: [True]}


@pytest.mark.parametrize("case", range(32))
def test_prima_plus_shared_search_matches_its_own_search(case):
    graph, eps, fixed, budgets, b_max, seed = _prima_case(case)
    ours, theirs = derive_rng(81, seed), derive_rng(81, seed)
    lines = []
    got = prima_plus(graph, eps, 1.0, fixed, budgets, b_max, ours, lines.append)
    want = _two_search_prima_plus(graph, eps, 1.0, fixed, budgets, b_max, theirs)
    assert got == want
    assert ours.getstate() == theirs.getstate()
    held = [float(_fields(ln)["lb"]) > 1.0 for ln in lines if ln.startswith("phase=held")]
    assert held == DRAW_FREE.get(case, [])
    if case == 24:
        final = _fields(lines[-1])
        assert (final["k"], final["theta"], final["lb"]) == ("2", "4803", "1")


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

    def counting(graph, fixed, count, rng):
        calls.append(count)
        return sample_marginal_rr(graph, fixed, count, rng)

    monkeypatch.setattr(selectors, "sample_marginal_rr", counting)
    path6 = graph_from("0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n")
    prima_plus(path6, 0.5, 1.0, frozenset(), [1, 2, 3], 3, derive_rng(0))
    # 159 search sets and 163 fresh ones; topping the search up to the last
    # certified size drew 4 more that nothing read
    assert sum(calls) == 159 + 163


@pytest.mark.parametrize("selector", ["prima_plus", "supgrd_sampling"])
def test_final_line_announces_the_fresh_collection_before_drawing_it(monkeypatch, selector):
    events = []
    _recording_samplers(monkeypatch, events)
    if selector == "prima_plus":
        path6 = graph_from("0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n")
        prima_plus(path6, 0.5, 1.0, frozenset(), [1, 2, 3], 3, derive_rng(0), events.append)
    else:
        graph, catalog, base = superior_instance(random.Random(3), n_hi=8, e_hi=9)
        supgrd_sampling(graph, catalog, base, "sup", 2, 0.5, 1.0, derive_rng(1), events.append)
    final = [k for k, ev in enumerate(events) if ev.startswith("phase=final")]
    assert len(final) == 1
    theta = int(dict(kv.split("=") for kv in events[final[0]].split())["theta"])
    # the one event after the line is the draw of the fresh collection
    assert events[final[0] + 1 :] == [f"sample {theta}"]
    assert _drawn(events[: final[0]]) > 0


def _recording_samplers(monkeypatch, events):
    """Record each sampler call as "sample <sets drawn>" in `events`."""
    for name in ("sample_marginal_rr", "sample_weighted_rr"):
        real = getattr(selectors, name)

        def recording(*args, real=real):
            coll = real(*args)
            events.append(f"sample {len(coll)}")
            return coll

        monkeypatch.setattr(selectors, name, recording)


def _drawn(events) -> int:
    """Sets drawn by the sampler calls recorded in `events`."""
    return sum(int(ev.split()[1]) for ev in events if ev.startswith("sample "))


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
    assert _drawn(events) == 159
    assert events[-1].startswith("phase=final") and "theta=163" in events[-1]


def test_fresh_collection_is_sized_for_every_certified_budget(monkeypatch):
    # 100 stars of 10 leaves: budget 10's lower bound asks for about 9,000
    # fresh sets, but budget 1's, 7.478, asks for 30,534
    events = []
    _recording_samplers(monkeypatch, events)
    graph = _stars([10] * 100)
    prima_plus(graph, 0.5, 1.0, frozenset(), [1, 10], 10, derive_rng(3), events.append)
    ellp = SamplerParams(graph.n, 0.5, 1.0, (1, 10)).ell_prime
    certified = [_fields(ev) for ev in events if ev.startswith("phase=certify")]
    sizes = {
        int(f["k"]): math.ceil(lambda_star(graph.n, int(f["k"]), 0.5, ellp) / float(f["lb"]))
        for f in certified
    }
    assert sizes[1] == 30_534 and sizes[10] < 10_000
    final = _fields(next(ev for ev in events if ev.startswith("phase=final")))
    assert (final["k"], final["theta"], final["lb"]) == ("1", "30534", certified[0]["lb"])
    assert events[-1] == "sample 30534"


def test_draw_free_test_draws_fewer_sets(monkeypatch):
    graph, eps, fixed, budgets, b_max, seed = _prima_case(26)
    events = []
    _recording_samplers(monkeypatch, events)
    prima_plus(graph, eps, 1.0, fixed, budgets, b_max, derive_rng(81, seed), events.append)
    without, real = [], sample_marginal_rr

    def counting(graph, fixed, count, rng):
        without.append(count)
        return real(graph, fixed, count, rng)

    monkeypatch.setitem(globals(), "sample_marginal_rr", counting)
    _two_search_prima_plus(graph, eps, 1.0, fixed, budgets, b_max, derive_rng(81, seed), held=False)
    # 4,633 search sets and as many fresh ones; without the test, budget 7
    # grows the search to 6,882 sets at the round where budget 2 certified
    assert (_drawn(events), sum(without)) == (9_266, 11_515)


def test_draw_free_certified_bounds_stay_below_opt_statistically():
    # on disjoint certain stars OPT_k is the sum of the k largest stars; every
    # run certifies budget 7 draw-free, and every certified lower bound must
    # undershoot OPT_k in at least 90 of 100 seeded runs
    leaves = range(10, 30)
    graph = _stars(leaves)
    sizes = sorted((count + 1 for count in leaves), reverse=True)
    opts = {k: sum(sizes[:k]) for k in (1, 2, 7)}
    good_runs = 0
    for trial in range(100):
        lines = []
        prima_plus(graph, 0.5, 1.0, frozenset(), [1, 2, 7], 7, derive_rng(800, trial), lines.append)
        tests = [_fields(ln) for ln in lines if ln.startswith(("phase=certify", "phase=held"))]
        certified = [f for f in tests if float(f["lb"]) > 1.0]
        assert any(f["phase"] == "held" for f in certified)
        good_runs += all(float(f["lb"]) <= opts[int(f["k"])] + 1e-9 for f in certified)
    assert good_runs >= 90
