"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them live). Statistical
criteria use fixed master seeds so the whole suite is reproducible.
"""

import math
import random
import time

import pytest

from welfaremax.allocators import AllocatorConfig, max_seq, maxgrd, seqgrd, seqgrd_nm, supgrd
from welfaremax.cli import main as cli_main
from welfaremax.diffusion import (
    Allocation,
    PossibleWorld,
    estimate_welfare,
    simulate,
)
from welfaremax.oracle import SpreadOracle, WelfareOracle
from welfaremax.ris import sample_weighted_rr
from welfaremax.rng import derive_rng
from welfaremax.selectors import prima_plus
from welfaremax.utility import (
    ItemCatalog,
    expected_item_utilities,
    u_max,
    u_min,
    utilities_from_probabilities,
)

from conftest import (
    CONFIGS,
    graph_from,
    random_allocation,
    random_coverage_catalog,
    random_graph,
    silent_noise,
    superior_instance,
)

APPROX_BOUND = 1 - 1 / math.e - 0.1


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def relaxed_le(a: float, b: float) -> bool:
    # identities compared across different float summation orders
    return a <= b + 1e-9 * (1.0 + abs(b))


@pytest.fixture(scope="module")
def trio():
    return ItemCatalog(
        ["i1", "i2", "i3"],
        prices={"i1": 1, "i2": 4, "i3": 1},
        valuations={
            ("i1",): 5, ("i2",): 7, ("i3",): 5,
            ("i1", "i2"): 7, ("i1", "i3"): 7, ("i2", "i3"): 7,
            ("i1", "i2", "i3"): 7,
        },
    )


def test_criterion_01_two_node_fixture_exactness(trio):
    started = time.perf_counter()
    g = graph_from("0 1 1.0\n")
    oracle = WelfareOracle(g, trio)
    s1 = Allocation.of([(0, "i1")])
    s2 = Allocation.of([(0, "i1"), (1, "i2")])
    pair_low = Allocation.of([(1, "i2")])
    pair_both = Allocation.of([(1, "i2"), (1, "i3")])

    world = PossibleWorld.fixed([True], silent_noise(trio))
    checks = [
        oracle.evaluate(s1)[0] == 8.0,
        simulate(g, trio, s1, [world]).welfare == [8.0],
        oracle.evaluate(s2)[0] == 7.0,
        simulate(g, trio, s2, [world]).welfare == [7.0],
        # diminishing-returns counterexample: marginal grows from 4 to 5
        oracle.evaluate(s1.merged(pair_low))[0] - oracle.evaluate(pair_low)[0] == 4.0,
        oracle.evaluate(s1.merged(pair_both))[0] - oracle.evaluate(pair_both)[0] == 5.0,
        # increasing-returns counterexample: marginal falls from 8 to 4
        oracle.evaluate(s1)[0] - oracle.evaluate(Allocation.empty())[0] == 8.0,
    ]
    elapsed = time.perf_counter() - started
    ok = all(checks) and elapsed < 1.0
    report(1, "two-node fixture exactness", ok, f"{elapsed:.2f}s")
    assert all(checks)
    assert elapsed < 1.0


def test_criterion_02_worked_example_exactness():
    started = time.perf_counter()
    g = graph_from("0 1 1\n1 2 1\n3 2 1\n")
    cat = ItemCatalog(
        ["i", "j"],
        prices={"i": 12, "j": 12},
        valuations={("i",): 22, ("j",): 13, ("i", "j"): 24},
    )
    cfg = AllocatorConfig(seed=17, mc_samples=400)
    budgets = {"i": 1, "j": 1}
    oracle = WelfareOracle(g, cat)
    w_seq = oracle.evaluate(seqgrd(g, cat, Allocation.empty(), budgets, cfg))[0]
    w_max = oracle.evaluate(maxgrd(g, cat, Allocation.empty(), budgets, cfg))[0]
    w_best = oracle.evaluate(max_seq(g, cat, Allocation.empty(), budgets, cfg))[0]
    elapsed = time.perf_counter() - started
    ok = (w_seq, w_max, w_best) == (22.0, 30.0, 30.0) and elapsed < 1.0
    report(2, "worked-example welfares 22/30/30", ok, f"{elapsed:.2f}s")
    assert (w_seq, w_max, w_best) == (22.0, 30.0, 30.0)
    assert elapsed < 1.0


def _agreement_instances():
    master = random.Random(20240811)
    out = []
    for _ in range(20):
        g = random_graph(master, n_lo=4, n_hi=8, e_lo=6, e_hi=10)
        cat = random_coverage_catalog(master)
        alloc = random_allocation(master, g, cat, pairs=master.randint(2, 4))
        out.append((g, cat, alloc))
    return out


def test_criterion_03_estimator_oracle_agreement():
    started = time.perf_counter()
    hits = 0
    instances = _agreement_instances()
    for idx, (g, cat, alloc) in enumerate(instances):
        exact = WelfareOracle(g, cat).evaluate(alloc)[0]
        est = estimate_welfare(g, cat, alloc, 10_000, seed=900 + idx)
        if abs(est.mean - exact) <= 3 * est.stderr or est.mean == exact:
            hits += 1
    elapsed = time.perf_counter() - started
    ok = hits >= 19 and elapsed < 30.0
    report(3, "estimator agrees with oracle", ok, f"{hits}/20, {elapsed:.1f}s")
    assert hits >= 19
    assert elapsed < 30.0


def test_criterion_04_weighted_rr_identity():
    # equal inferior utilities: the regime where the set weight is exactly
    # the root's conversion gain, so the identity is unbiased
    started = time.perf_counter()
    master = random.Random(7711)
    hits = 0
    for idx in range(10):
        graph, catalog, base = superior_instance(master, n_hi=10, e_hi=10, equal_inferiors=True)
        free = sorted(set(range(graph.n)))
        seeds = master.sample(free, 2)
        cand = Allocation.of([(v, "sup") for v in seeds])
        oracle = WelfareOracle(graph, catalog)
        want = oracle.evaluate(cand.merged(base))[0] - oracle.evaluate(base)[0]
        utils = expected_item_utilities(catalog)
        rng = derive_rng(3000, idx)
        sset = set(seeds)
        total = 0.0
        total_sq = 0.0
        draws = 50_000
        coll = sample_weighted_rr(graph, base, "sup", catalog, draws, rng, utils)
        for a, b, weight in zip(coll.offsets, coll.offsets[1:], coll.weights):
            val = graph.n * weight if sset.intersection(coll.members[a:b]) else 0.0
            total += val
            total_sq += val * val
        mean = total / draws
        var = max(0.0, (total_sq - draws * mean * mean) / (draws - 1))
        sigma = math.sqrt(var / draws)
        if abs(mean - want) <= 3 * sigma or mean == want:
            hits += 1
    elapsed = time.perf_counter() - started
    ok = hits >= 9 and elapsed < 60.0
    report(4, "weighted RR welfare identity", ok, f"{hits}/10, {elapsed:.1f}s")
    assert hits >= 9
    assert elapsed < 60.0


def test_criterion_05_prefix_preservation():
    started = time.perf_counter()
    master = random.Random(5150)
    passes = 0
    runs = 0
    for inst in range(10):
        g = random_graph(master, n_lo=6, n_hi=8, e_lo=8, e_hi=12)
        fixed = frozenset({master.randrange(g.n)})
        oracle = SpreadOracle(g)
        opts = {b: oracle.best_marginal(b, fixed)[1] for b in (1, 2, 3)}
        for trial in range(10):
            runs += 1
            seeds = prima_plus(
                g, 0.1, 1.0, fixed, [1, 2, 3], 3, derive_rng(4000, inst, trial)
            )
            good = all(
                oracle.marginal_spread(seeds[:b], fixed) >= APPROX_BOUND * opts[b]
                for b in (1, 2, 3)
            )
            if good:
                passes += 1
    elapsed = time.perf_counter() - started
    ok = passes >= 90 and elapsed < 300.0
    report(5, "prefix preservation on marginals", ok, f"{passes}/{runs}, {elapsed:.1f}s")
    assert passes >= 90
    assert elapsed < 300.0


def test_criterion_06_superior_item_bound():
    started = time.perf_counter()
    master = random.Random(6180)
    passes = 0
    runs = 0
    for inst in range(10):
        graph, catalog, base = superior_instance(master, n_hi=10, e_hi=10)
        oracle = WelfareOracle(graph, catalog)
        _, opt, _ = oracle.optimal({"sup": 2}, base)
        for trial in range(10):
            runs += 1
            cfg = AllocatorConfig(eps=0.1, ell=1.0, seed=5000 + 100 * inst + trial)
            alloc = supgrd(graph, catalog, base, {"sup": 2}, cfg)
            got = oracle.evaluate(alloc.merged(base))[0]
            if got >= APPROX_BOUND * opt:
                passes += 1
    elapsed = time.perf_counter() - started
    ok = passes >= 90 and elapsed < 300.0
    report(6, "superior-item approximation bound", ok, f"{passes}/{runs}, {elapsed:.1f}s")
    assert passes >= 90
    assert elapsed < 300.0


def test_criterion_07_sandwich_and_subadditivity():
    started = time.perf_counter()
    violations = []
    for idx, (g, cat, alloc) in enumerate(_agreement_instances()):
        oracle = WelfareOracle(g, cat)
        rho = oracle.evaluate(alloc)[0]
        sigma = SpreadOracle(g).marginal_spread(sorted(alloc.seed_nodes()))
        lo = u_min(cat)
        hi = u_max(cat)
        if not relaxed_le(lo * sigma, rho):
            violations.append(f"inst {idx}: lower sandwich")
        if not relaxed_le(rho, hi * sigma):
            violations.append(f"inst {idx}: upper sandwich")
        per_item_sum = math.fsum(
            oracle.evaluate(Allocation.of([(v, it) for v, it in alloc.pairs if it == item]))[0]
            for item in sorted(alloc.items())
        )
        if not relaxed_le(rho, per_item_sum):
            violations.append(f"inst {idx}: subadditivity")
    elapsed = time.perf_counter() - started
    ok = not violations
    report(7, "sandwich and subadditivity exact", ok, f"{len(violations)} violations, {elapsed:.1f}s")
    assert violations == []


def test_criterion_08_probability_conversion():
    started = time.perf_counter()
    got = utilities_from_probabilities([0.107, 0.091, 0.015, 0.011])
    reported = [7.0, 6.8, 5.0, 4.7]
    deltas = [abs(a - b) for a, b in zip(got, reported)]
    elapsed = time.perf_counter() - started
    ok = max(deltas) < 0.05 and elapsed < 1.0
    report(8, "probability-to-utility conversion", ok, f"max delta {max(deltas):.3f}")
    assert max(deltas) < 0.05
    assert elapsed < 1.0


def test_criterion_09_marginal_check_blocking():
    started = time.perf_counter()
    g = graph_from("0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n")
    cat = ItemCatalog(
        ["i", "j", "k"],
        prices={"i": 10, "j": 10, "k": 10},
        valuations={
            ("i",): 12, ("j",): 10.11, ("k",): 10.1,
            ("i", "j"): 19.5, ("i", "k"): 22.1, ("j", "k"): 19.5,
            ("i", "j", "k"): 28.8,
        },
    )
    budgets = {"i": 1, "j": 1, "k": 1}
    cfg = AllocatorConfig(seed=77, mc_samples=5000)
    a_check = seqgrd(g, cat, Allocation.empty(), budgets, cfg)
    a_plain = seqgrd_nm(g, cat, Allocation.empty(), budgets, cfg)
    # common random worlds for the two welfare estimates
    worlds = [PossibleWorld.sample(cat, derive_rng(8800, idx)) for idx in range(5000)]
    diffs = [
        w_check - w_plain
        for w_check, w_plain in zip(
            simulate(g, cat, a_check, worlds).welfare, simulate(g, cat, a_plain, worlds).welfare
        )
    ]
    mean = math.fsum(diffs) / len(diffs)
    var = math.fsum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)
    stderr = math.sqrt(var / len(diffs))
    elapsed = time.perf_counter() - started
    ok = mean > 0 and mean >= 3 * stderr and elapsed < 120.0
    report(9, "marginal check beats blind order", ok, f"gap {mean:.3f}, {elapsed:.1f}s")
    assert mean > 0
    assert mean >= 3 * stderr
    assert elapsed < 120.0


def test_criterion_10_byte_identical_compare(tmp_path):
    started = time.perf_counter()
    base_args = [
        "compare",
        "--graph", str(CONFIGS / "fork4.edges"),
        "--catalog", str(CONFIGS / "pair_strong_weak.cfg"),
        "--algos", "seqgrd,seqgrd-nm,maxgrd,max-seq,gm,round-robin,snake",
        "--samples", "300",
        "--seed", "21",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main([*base_args, "--out", str(out_a)]) == 0
    assert cli_main([*base_args, "--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()

    # the superior-item algorithm runs with fixed seeds for the weak item
    base_file = tmp_path / "base.txt"
    base_file.write_text("3 j\n")
    sup_args = [
        "compare",
        "--graph", str(CONFIGS / "fork4.edges"),
        "--catalog", str(CONFIGS / "pair_strong_weak.cfg"),
        "--algos", "supgrd",
        "--budgets", "i=1",
        "--base", str(base_file),
        "--samples", "300",
        "--seed", "21",
    ]
    out_c, out_d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli_main([*sup_args, "--out", str(out_c)]) == 0
    assert cli_main([*sup_args, "--out", str(out_d)]) == 0
    identical = identical and out_c.read_bytes() == out_d.read_bytes()
    elapsed = time.perf_counter() - started
    report(10, "byte-identical comparison runs", identical, f"{elapsed:.1f}s")
    assert identical
