import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from welfaremax.utility import (
    CatalogError,
    ItemCatalog,
    NoiseSpec,
    expected_truncated_utility,
    is_pure_competition,
    load_catalog_config,
    superior_item,
    u_max,
    u_min,
    utilities_from_probabilities,
    utility,
    validate,
)

from conftest import random_coverage_catalog


def test_trio_utilities(trio_catalog):
    assert utility(trio_catalog, ["i1"]) == 4
    assert utility(trio_catalog, ["i2"]) == 3
    assert utility(trio_catalog, ["i1", "i3"]) == 5
    assert utility(trio_catalog, []) == 0
    assert utility(trio_catalog, ["i1", "i2", "i3"]) == 1


def test_premium_bundle_utility(premium_catalog):
    assert utility(premium_catalog, ["i1", "i4"]) == pytest.approx(105.1)
    assert expected_truncated_utility(premium_catalog, ["i4"]) == (100.0, 0.0)


def test_utility_unknown_item(trio_catalog):
    with pytest.raises(CatalogError, match="unknown item"):
        utility(trio_catalog, ["nope"])


def test_utility_additive_in_noise(trio_catalog):
    noise = (0.5, -0.25, 1.0)
    base = utility(trio_catalog, ["i1", "i2"])
    assert utility(trio_catalog, ["i1", "i2"], noise) == base + 0.5 - 0.25


_TRIO = ItemCatalog(
    ["i1", "i2", "i3"],
    prices={"i1": 1, "i2": 4, "i3": 1},
    valuations={
        ("i1",): 5, ("i2",): 7, ("i3",): 5,
        ("i1", "i2"): 7, ("i1", "i3"): 7, ("i2", "i3"): 7,
        ("i1", "i2", "i3"): 7,
    },
)


@given(st.integers(min_value=0, max_value=7), st.lists(st.floats(-2, 2), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_utility_is_value_minus_price_plus_noise(mask, noise_vals):
    cat = _TRIO
    items = [it for k, it in enumerate(cat.items) if mask >> k & 1]
    expect = cat.value(mask) - sum(cat.item_price(it) for it in items)
    expect += sum(noise_vals[k] for k in range(3) if mask >> k & 1)
    assert utility(cat, items, noise_vals) == pytest.approx(expect, abs=1e-12)


def test_truncation_of_negative_deterministic_utility():
    cat = ItemCatalog(["a"], prices={"a": 5}, valuations={("a",): 3})
    assert expected_truncated_utility(cat, ["a"]) == (0.0, 0.0)


def test_two_point_truncation_enumerates_outcomes():
    # V - P = 1, noise +-3: outcomes 4 and -2, so E[U+] = (4 + 0) / 2 = 2
    cat = ItemCatalog(
        ["a"],
        prices={"a": 1},
        valuations={("a",): 2},
        noise={"a": NoiseSpec.two_point(3)},
    )
    assert expected_truncated_utility(cat, ["a"]) == (2.0, 0.0)


def test_gaussian_truncated_utility_matches_closed_form():
    # E[max(0, mu + sigma Z)] = mu * Phi(mu/sigma) + sigma * phi(mu/sigma)
    mu, sigma = 0.6, 1.3
    cat = ItemCatalog(
        ["a"],
        prices={"a": 1.0},
        valuations={("a",): 1.0 + mu},
        noise={"a": NoiseSpec.gaussian(sigma)},
    )
    got, stderr = expected_truncated_utility(cat, ["a"], samples=200_000, rng=random.Random(1))
    z = mu / sigma
    phi = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
    cdf = 0.5 * (1 + math.erf(z / math.sqrt(2)))
    want = mu * cdf + sigma * phi
    assert abs(got - want) < 4 * stderr + 1e-12


def test_mixed_noise_truncated_utility_matches_closed_form():
    # gaussian noise on a, two-point noise on b and none on c, so the Monte
    # Carlo path draws every kind of noise array: with d the bundle's
    # deterministic utility, E[max(0, U)] = (f(d + amp) + f(d - amp)) / 2,
    # where f(mu) = mu * Phi(mu/sigma) + sigma * phi(mu/sigma)
    sigma, amp = 0.8, 0.5
    cat = ItemCatalog(
        ["a", "b", "c"],
        prices={"a": 1.0, "b": 1.0, "c": 1.0},
        valuations={("a", "b", "c"): 3.4},
        noise={"a": NoiseSpec.gaussian(sigma), "b": NoiseSpec.two_point(amp)},
    )

    def f(mu):
        z = mu / sigma
        return mu * 0.5 * (1 + math.erf(z / math.sqrt(2))) + sigma * math.exp(-z * z / 2) / (
            math.sqrt(2 * math.pi)
        )

    d = 3.4 - 3.0
    want = (f(d + amp) + f(d - amp)) / 2
    got, stderr = expected_truncated_utility(cat, ["a", "b", "c"], 100_000, random.Random(7))
    assert 0 < stderr < 0.01
    assert abs(got - want) < 4 * stderr


def test_mc_requires_rng():
    cat = ItemCatalog(
        ["a"], prices={"a": 1}, valuations={("a",): 2}, noise={"a": NoiseSpec.gaussian(1)}
    )
    with pytest.raises(CatalogError, match="Monte Carlo"):
        expected_truncated_utility(cat, ["a"])


def test_u_min_u_max_trio(trio_catalog):
    assert u_min(trio_catalog) == 3.0
    assert u_max(trio_catalog) == 5.0


def test_u_min_u_max_single_item():
    cat = ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): 8})
    assert u_min(cat) == u_max(cat) == 7.0


def _all_two_point(cat, seed):
    """The same catalog with two-point noise on every item."""
    rng = random.Random(seed)
    return ItemCatalog(
        cat.items,
        prices=dict(zip(cat.items, cat.item_prices)),
        valuations={cat.itemset(mk): cat.value(mk) for mk in range(1, 1 << cat.m)},
        noise={it: NoiseSpec.two_point(rng.uniform(0.1, 0.5)) for it in cat.items},
    )


_BRUTE_FORCE_CATALOGS = {
    "hand": ItemCatalog(
        ["a", "b"],
        prices={"a": 1, "b": 2},
        valuations={("a",): 2, ("b",): 3.5, ("a", "b"): 4.0},
        noise={"a": NoiseSpec.two_point(0.7), "b": NoiseSpec.two_point(1.2)},
    ),
    # seeded coverage catalogs: zero or two-point noise per item, m <= 4
    **{f"seed{s}": random_coverage_catalog(random.Random(s), m_hi=4) for s in (0, 1, 5, 7, 9)},
    "seed0-all-two-point": _all_two_point(random_coverage_catalog(random.Random(0), m_hi=4), 0),
    "seed11-all-two-point": _all_two_point(random_coverage_catalog(random.Random(11), m_hi=4), 11),
}


@pytest.mark.parametrize("name", list(_BRUTE_FORCE_CATALOGS))
def test_u_max_two_point_matches_brute_force(name):
    cat = _BRUTE_FORCE_CATALOGS[name]
    # enumerate every joint noise outcome and every bundle in plain Python
    want = 0.0
    for combo in itertools.product(*(spec.support() for spec in cat.noise_specs)):
        prob = math.prod(p for _, p in combo)
        best = max(
            cat.value(mask) - cat.price(mask) + sum(combo[k][0] for k in range(cat.m) if mask >> k & 1)
            for mask in range(1 << cat.m)
        )
        want += prob * max(0.0, best)
    assert u_max(cat) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "noise",
    [
        NoiseSpec.zero(),
        NoiseSpec.gaussian(0.8),
        NoiseSpec.truncated_gaussian(0.8, 0.5),
        NoiseSpec.two_point(0.6),
    ],
    ids=lambda spec: spec.kind,
)
def test_u_max_of_one_item_is_its_expected_truncated_utility(noise):
    cat = ItemCatalog(["a"], prices={"a": 1.0}, valuations={("a",): 1.3}, noise={"a": noise})
    got = u_max(cat, samples=5000, rng=random.Random(3))
    want, _ = expected_truncated_utility(cat, ["a"], samples=5000, rng=random.Random(3))
    assert got == want


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: NoiseSpec.gaussian(math.nan), "noise sigma must be finite, got nan"),
        (lambda: NoiseSpec.gaussian(math.inf), "noise sigma must be finite, got inf"),
        (lambda: NoiseSpec.truncated_gaussian(1.0, math.inf), "noise bound must be finite"),
        (lambda: NoiseSpec.two_point(math.nan), "noise amplitude must be finite"),
        (
            lambda: ItemCatalog(["a"], prices={"a": math.nan}, valuations={("a",): 1}),
            "price of 'a' must be finite, got nan",
        ),
        (
            lambda: ItemCatalog(["a"], prices={"a": 1}, valuations={("a",): -math.inf}),
            "valuation of ('a',) must be finite, got -inf",
        ),
        (
            lambda: utilities_from_probabilities([0.5, math.nan]),
            "adoption probability must be positive and finite, got nan",
        ),
        (
            lambda: utilities_from_probabilities([math.inf]),
            "adoption probability must be positive and finite, got inf",
        ),
    ],
    ids=[
        "sigma-nan", "sigma-inf", "bound-inf", "amplitude-nan",
        "price-nan", "valuation-inf", "probability-nan", "probability-inf",
    ],
)
def test_non_finite_numbers_are_rejected(build, message):
    with pytest.raises(CatalogError, match=re.escape(message)):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: NoiseSpec("cauchy"), "unknown noise kind 'cauchy'"),
        (lambda: NoiseSpec.gaussian(0.0), "gaussian noise needs sigma > 0"),
        (lambda: NoiseSpec.truncated_gaussian(1.0, 0.0), "truncated gaussian needs bound > 0"),
        (lambda: NoiseSpec.two_point(-1.0), "two-point noise needs amplitude > 0"),
        (lambda: ItemCatalog([], prices={}, valuations={}), "catalog needs at least one item"),
        (lambda: ItemCatalog(["a", "a"], prices={"a": 1}, valuations={}), "duplicate item ids"),
        (
            lambda: ItemCatalog(["a"], prices={"a": 1, "z": 1}, valuations={}),
            "prices for unknown items: ['z']",
        ),
        (
            lambda: ItemCatalog(["a", "b"], prices={"a": 1}, valuations={}),
            "missing prices for items: ['b']",
        ),
        (
            lambda: ItemCatalog(["a"], {"a": 1}, {}, noise={"z": NoiseSpec.zero()}),
            "noise for unknown items: ['z']",
        ),
        (
            lambda: ItemCatalog(
                ["a", "b"], prices={"a": 1, "b": 1}, valuations={("a", "b"): 3, ("b", "a"): 3}
            ),
            "duplicate valuation for ('a', 'b')",
        ),
        (
            lambda: ItemCatalog(["a"], prices={"a": 1}, valuations={2: 1}),
            "mask 2 out of range for m=1",
        ),
    ],
    ids=[
        "unknown-kind", "sigma-zero", "bound-zero", "amplitude-negative", "no-items",
        "duplicate-ids", "unknown-price", "missing-price", "unknown-noise",
        "duplicate-valuation", "mask-out-of-range",
    ],
)
def test_bad_noise_and_catalogs_are_rejected(build, message):
    with pytest.raises(CatalogError, match=re.escape(message)):
        build()


def test_u_min_below_every_item_and_u_max_above_every_bundle(trio_catalog):
    cat = trio_catalog
    lo, hi = u_min(cat), u_max(cat)
    for it in cat.items:
        assert lo <= expected_truncated_utility(cat, [it])[0] + 1e-12
    for mask in range(1 << cat.m):
        val = max(0.0, cat.deterministic_utility(mask))
        assert hi >= val - 1e-12


def test_superior_item_premium(premium_catalog):
    assert superior_item(premium_catalog) == "i4"


def test_superior_item_absent_when_ranges_overlap(trio_catalog):
    assert superior_item(trio_catalog) is None  # 4 vs 4 tie, not strict


def test_superior_item_with_truncated_gaussian():
    cat = ItemCatalog(
        ["i", "j"],
        prices={"i": 3, "j": 4},
        valuations={("i",): 4, ("j",): 4.1, ("i", "j"): 4.1},
        noise={
            "i": NoiseSpec.truncated_gaussian(1, 0.4),
            "j": NoiseSpec.truncated_gaussian(1, 0.4),
        },
    )
    # 1.0 - 0.4 > 0.1 + 0.4
    assert superior_item(cat) == "i"


def test_superior_item_none_with_unbounded_noise():
    cat = ItemCatalog(
        ["i", "j"],
        prices={"i": 1, "j": 1},
        valuations={("i",): 100, ("j",): 1.5},
        noise={"i": NoiseSpec.gaussian(0.1)},
    )
    assert superior_item(cat) is None


def test_superior_item_two_point_full_enumeration():
    cat = ItemCatalog(
        ["s", "t"],
        prices={"s": 1, "t": 1},
        valuations={("s",): 3, ("t",): 1.5, ("s", "t"): 3},
        noise={"s": NoiseSpec.two_point(0.4), "t": NoiseSpec.two_point(0.3)},
    )
    sup = superior_item(cat)
    assert sup == "s"
    for ns in (-0.4, 0.4):
        for nt in (-0.3, 0.3):
            assert 2.0 + ns > 0.5 + nt


def test_probability_conversion_reported_values():
    got = utilities_from_probabilities([0.107, 0.091, 0.015, 0.011])
    for value, reported in zip(got, [7.0, 6.8, 5.0, 4.7]):
        assert abs(value - reported) < 0.05


def test_probability_conversion_identity_and_errors():
    assert utilities_from_probabilities([1 / 10000])[0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(CatalogError, match="positive"):
        utilities_from_probabilities([0.0])


@pytest.mark.parametrize(
    "scale, probs, message",
    [
        (math.inf, [0.5], "scale must be finite, got inf"),
        (math.nan, [0.5], "scale must be positive, got nan"),
        (1e-300, [0.5, 1e-30], "scale \\* probability underflows to 0 for 1e-300 \\* 1e-30"),
    ],
    ids=["inf", "nan", "underflow"],
)
def test_probability_conversion_needs_a_usable_scale(scale, probs, message):
    with pytest.raises(CatalogError, match=message):
        utilities_from_probabilities(probs, scale=scale)


def test_validate_passes_fixtures(trio_catalog, premium_catalog):
    assert validate(trio_catalog).ok
    assert validate(premium_catalog).ok


def test_validate_flags_supermodular_bundle():
    cat = ItemCatalog(
        ["a", "b"], prices={"a": 0, "b": 0}, valuations={("a",): 1, ("b",): 1, ("a", "b"): 3}
    )
    report = validate(cat)
    assert not report.ok
    assert "submodularity" in report.message


def test_validate_flags_monotonicity():
    cat = ItemCatalog(
        ["a", "b"], prices={"a": 0, "b": 0}, valuations={("a",): 2, ("b",): 1, ("a", "b"): 1.5}
    )
    report = validate(cat)
    assert not report.ok
    assert "monotonicity" in report.message


def test_completion_takes_best_listed_subset():
    cat = ItemCatalog(
        ["a", "b", "c"],
        prices={"a": 0, "b": 0, "c": 0},
        valuations={("a",): 1, ("b",): 4, ("c",): 2, ("b", "c"): 5},
    )
    assert cat.value(["a", "b"]) == 4
    assert cat.value(["a", "b", "c"]) == 5


def test_empty_bundle_value_must_be_zero():
    with pytest.raises(CatalogError, match="empty bundle"):
        ItemCatalog(["a"], prices={"a": 0}, valuations={(): 1, ("a",): 1})


def test_pure_competition_detector(trio_catalog, blocking_catalog):
    # the 1-3 pair (5) beats constituent i1 (4), so not pure
    assert not is_pure_competition(trio_catalog)
    pure = ItemCatalog(
        ["a", "b"], prices={"a": 1, "b": 1}, valuations={("a",): 2, ("b",): 1.5, ("a", "b"): 2}
    )
    assert is_pure_competition(pure)
    # the i-k bundle (2.1) beats constituent i (2.0)
    assert not is_pure_competition(blocking_catalog)


def test_noise_specs_are_zero_mean_and_bounded():
    rng = random.Random(0)
    tg = NoiseSpec.truncated_gaussian(1.0, 0.4)
    draws = [tg.sample(rng) for _ in range(20000)]
    assert all(abs(x) <= 0.4 for x in draws)
    assert abs(sum(draws) / len(draws)) < 0.01
    tp = NoiseSpec.two_point(2.0)
    vals = {tp.sample(rng) for _ in range(100)}
    assert vals == {-2.0, 2.0}


def test_config_parser_round_trip(configs_dir):
    cfg = load_catalog_config((configs_dir / "trio_partial.cfg").read_text().splitlines())
    assert cfg.catalog.items == ("i1", "i2", "i3")
    assert cfg.budgets == {"i1": 1, "i2": 1, "i3": 1}
    assert utility(cfg.catalog, ["i1", "i3"]) == 5
    assert validate(cfg.catalog).ok


def test_all_shipped_catalogs_validate(configs_dir):
    for path in sorted(configs_dir.glob("*.cfg")):
        cfg = load_catalog_config(path.read_text().splitlines())
        assert validate(cfg.catalog).ok, path.name


def test_config_parser_strictness():
    with pytest.raises(CatalogError, match="unknown section"):
        load_catalog_config(["[nope]"])
    with pytest.raises(CatalogError, match="before any section"):
        load_catalog_config(["a price=1"])
    with pytest.raises(CatalogError, match="unknown keys"):
        load_catalog_config(["[items]", "a price=1 colour=red"])
    with pytest.raises(CatalogError, match="missing price"):
        load_catalog_config(["[items]", "a noise=zero"])
    with pytest.raises(CatalogError, match="needs sigma"):
        load_catalog_config(["[items]", "a price=1 noise=gaussian"])
    with pytest.raises(CatalogError, match="unknown item"):
        load_catalog_config(["[items]", "a price=1", "[valuation]", "b = 1"])
    with pytest.raises(CatalogError, match="duplicate item"):
        load_catalog_config(["[items]", "a price=1", "a price=2"])
    with pytest.raises(CatalogError, match="budget must be an integer"):
        load_catalog_config(["[items]", "a price=1", "[budgets]", "a = 1.5"])


# -- the bundle tables against the code they replaced ---------------------------


class _Reference:
    """The per-query arithmetic the catalog's tables replaced: a recursive
    memoised completion, a price loop, and a `validate` that walks every
    nested pair of bundles."""

    def __init__(self, m: int, prices, listed: dict[int, float]):
        self.m = m
        self.prices = [float(p) for p in prices]
        self.memo = {mask: float(v) for mask, v in listed.items()}
        self.memo[0] = 0.0

    def value(self, mask: int) -> float:
        if mask not in self.memo:
            self.memo[mask] = max(
                self.value(mask & ~(1 << i)) for i in range(self.m) if mask >> i & 1
            )
        return self.memo[mask]

    def price(self, mask: int) -> float:
        total = 0.0
        for i in range(self.m):
            if mask >> i & 1:
                total += self.prices[i]
        return total

    def is_pure_competition(self) -> bool:
        table = [self.value(mk) - self.price(mk) for mk in range(1 << self.m)]
        return not any(
            table[mask] > table[1 << i] + 1e-12
            for mask in range(1, 1 << self.m)
            for i in range(self.m)
            if mask >> i & 1
        )

    def validate_ok(self) -> bool:
        full = 1 << self.m
        vals = [self.value(mk) for mk in range(full)]
        for mask in range(full):
            for i in range(self.m):
                if not mask >> i & 1 and vals[mask | 1 << i] < vals[mask]:
                    return False
        for small in range(full):
            rest = (full - 1) ^ small
            grow = rest
            while grow:
                big = small | grow
                for i in range(self.m):
                    if big >> i & 1 or small >> i & 1:
                        continue
                    if vals[big | 1 << i] - vals[big] > vals[small | 1 << i] - vals[small] + 1e-12:
                        return False
                grow = (grow - 1) & rest
        return True


_ODD_NUMBERS = [0.0, -0.0, 1.0, 2.5, -1.5, 3.0, 0.1, 0.3, -0.2]


def _odd_catalog(rng: random.Random):
    """A catalog with some bundles unlisted and listed values that may be
    negative, -0.0 or non-monotone."""
    m = rng.randint(1, 6)
    prices = [rng.choice(_ODD_NUMBERS + [rng.uniform(-2, 2)]) for _ in range(m)]
    listed = {
        mask: rng.choice(_ODD_NUMBERS + [rng.uniform(-3, 6)])
        for mask in range(1, 1 << m)
        if rng.random() < 0.4
    }
    return _pair(m, prices, listed)


def _coverage_catalog(rng: random.Random, jitter: bool):
    """A fully listed coverage valuation (monotone and submodular), with each
    value perturbed by up to 1e-13 to 1e-6 when `jitter` is set."""
    m = rng.randint(1, 6)
    ground = [rng.uniform(0.5, 2.0) for _ in range(6)]
    covers = [[g for g in range(6) if rng.random() < 0.5] for _ in range(m)]
    scale = 10 ** rng.uniform(-13, -6)
    listed = {}
    for mask in range(1, 1 << m):
        union = {g for k in range(m) if mask >> k & 1 for g in covers[k]}
        listed[mask] = sum(ground[g] for g in sorted(union))
        if jitter:
            listed[mask] += rng.uniform(-scale, scale)
    return _pair(m, [rng.uniform(0, 2) for _ in range(m)], listed)


def _pair(m, prices, listed):
    items = [f"x{k}" for k in range(m)]
    catalog = ItemCatalog(items, dict(zip(items, prices)), listed)
    return catalog, _Reference(m, prices, listed)


def test_tables_match_the_recursive_value_and_the_price_loop():
    rng = random.Random(19)
    for _ in range(400):
        catalog, ref = _odd_catalog(rng)
        for mask in range(1 << catalog.m):
            assert repr(catalog.value(mask)) == repr(ref.value(mask))
            assert repr(catalog.price(mask)) == repr(ref.price(mask))
            want = ref.value(mask) - ref.price(mask)
            assert repr(catalog.deterministic_utility(mask)) == repr(want)
            assert repr(utility(catalog, mask)) == repr(want)
        assert is_pure_competition(catalog) == ref.is_pure_competition()


@pytest.mark.parametrize("excess, pure", [(5e-13, True), (5e-12, False)])
def test_pure_competition_tolerance(excess, pure):
    catalog, ref = _pair(2, [0.0, 0.0], {1: 1.0, 2: 2.0, 3: 1.0 + excess})
    assert is_pure_competition(catalog) == ref.is_pure_competition() == pure


def test_single_step_validate_matches_the_nested_pair_walk():
    rng = random.Random(20)
    verdicts = []
    for k in range(900):
        if k % 3 == 0:
            catalog, ref = _odd_catalog(rng)
        else:
            catalog, ref = _coverage_catalog(rng, jitter=k % 3 == 2)
        verdicts.append(validate(catalog).ok)
        assert verdicts[-1] == ref.validate_ok(), k
    assert 100 < sum(verdicts) < 800  # both verdicts are common


def test_tables_are_read_only_and_built_once(trio_catalog):
    assert trio_catalog.values is trio_catalog.values
    assert trio_catalog.prices.tolist() == [0.0, 1.0, 4.0, 5.0, 1.0, 2.0, 5.0, 6.0]
    with pytest.raises(ValueError, match="read-only"):
        trio_catalog.values[1] = 0.0


def _singles_catalog(m: int, planted: bool = False) -> ItemCatalog:
    """m items whose bundles are worth their best item (monotone and
    submodular); `planted` lists a 14-item bundle one above that."""
    items = [f"x{k}" for k in range(m)]
    valuations = {(it,): 2 + k / 10 for k, it in enumerate(items)}
    if planted:
        valuations[tuple(items[:14])] = 4.5
    return ItemCatalog(items, dict.fromkeys(items, 1.0), valuations)


def test_validate_at_the_item_limit():
    assert validate(_singles_catalog(20)).ok
    report = validate(_singles_catalog(20, planted=True))
    assert not report.ok
    # x0 adds nothing to x2..x13, but completes the planted bundle from x1..x13
    assert report.message.startswith("submodularity violated: adding 'x0' to ('x2',")
    assert report.message.endswith("'x13') gains 1.2")


def test_a_catalog_above_the_item_limit_is_rejected():
    with pytest.raises(CatalogError, match="21 items; a catalog holds at most 20"):
        _singles_catalog(21)


def test_the_catalog_parser_names_the_line_of_the_item_above_the_limit():
    lines = ["[items]", *(f"x{k} price=1" for k in range(21)), "[valuation]", "x1 = 2"]
    with pytest.raises(CatalogError, match=re.escape("line 22: a catalog holds at most 20 items")):
        load_catalog_config(lines)
    lines[1] = "# the first item is gone"
    assert load_catalog_config(lines).catalog.m == 20
