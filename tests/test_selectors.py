import math
import random

import pytest

from welfaremax.diffusion import Allocation
from welfaremax.graph import Graph
from welfaremax.oracle import SpreadOracle
from welfaremax.rng import derive_rng
from welfaremax.selectors import (
    SamplerParams,
    SelectorError,
    check_superior_instance,
    lambda_prime,
    lambda_star,
    prima_plus,
    supgrd_sampling,
    welfare_upper_bound,
)
from welfaremax.utility import ItemCatalog

from conftest import graph_from, superior_instance


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
    assert all(rr.weight == 1.0 for rr in coll.sets)
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
