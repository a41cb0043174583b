"""Item catalogs and utility arithmetic.

An itemset's utility is valuation minus additive price plus additive
zero-mean noise. Valuations are monotone and submodular over itemsets;
bundles absent from the catalog table default to "pure competition
completion": the best listed sub-bundle's value. Itemsets are bitmasks
over the catalog's item order throughout this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

MAX_ITEMS_ENUM = 20  # 2^m bundle enumeration guard
UTILITY_SAMPLES = 100_000  # Monte Carlo draws per expected truncated utility
_MAX_EXACT_JOINT = 65536  # joint noise outcomes enumerated before Monte Carlo takes over


class CatalogError(ValueError):
    """Invalid catalog definition or query."""


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean noise attached to one item.

    kinds:
        zero                 the constant 0
        gaussian             N(0, sigma^2), unbounded
        truncated_gaussian   N(0, sigma^2) resampled until |x| <= bound
        two_point            +a or -a with equal probability
    """

    kind: str
    sigma: float = 0.0
    bound: float = 0.0
    amplitude: float = 0.0

    def __post_init__(self):
        for field in ("sigma", "bound", "amplitude"):
            if not math.isfinite(getattr(self, field)):
                raise CatalogError(f"noise {field} must be finite, got {getattr(self, field)}")
        if self.kind not in ("zero", "gaussian", "truncated_gaussian", "two_point"):
            raise CatalogError(f"unknown noise kind {self.kind!r}")
        if self.kind in ("gaussian", "truncated_gaussian") and self.sigma <= 0:
            raise CatalogError("gaussian noise needs sigma > 0")
        if self.kind == "truncated_gaussian" and self.bound <= 0:
            raise CatalogError("truncated gaussian needs bound > 0")
        if self.kind == "two_point" and self.amplitude <= 0:
            raise CatalogError("two-point noise needs amplitude > 0")

    @classmethod
    def zero(cls) -> "NoiseSpec":
        return cls("zero")

    @classmethod
    def gaussian(cls, sigma: float) -> "NoiseSpec":
        return cls("gaussian", sigma=float(sigma))

    @classmethod
    def truncated_gaussian(cls, sigma: float, bound: float) -> "NoiseSpec":
        return cls("truncated_gaussian", sigma=float(sigma), bound=float(bound))

    @classmethod
    def two_point(cls, amplitude: float) -> "NoiseSpec":
        return cls("two_point", amplitude=float(amplitude))

    def sample(self, rng) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "gaussian":
            return rng.gauss(0.0, self.sigma)
        if self.kind == "truncated_gaussian":
            # rejection keeps the distribution symmetric, hence exactly zero-mean
            while True:
                x = rng.gauss(0.0, self.sigma)
                if abs(x) <= self.bound:
                    return x
        return self.amplitude if rng.random() < 0.5 else -self.amplitude

    def bounds(self) -> Optional[tuple[float, float]]:
        """Support bounds (lo, hi), or None when unbounded."""
        if self.kind == "zero":
            return (0.0, 0.0)
        if self.kind == "truncated_gaussian":
            return (-self.bound, self.bound)
        if self.kind == "two_point":
            return (-self.amplitude, self.amplitude)
        return None

    def support(self) -> Optional[tuple[tuple[float, float], ...]]:
        """Finite support as ((value, prob), ...), or None when continuous."""
        if self.kind == "zero":
            return ((0.0, 1.0),)
        if self.kind == "two_point":
            return ((-self.amplitude, 0.5), (self.amplitude, 0.5))
        return None


@dataclass(frozen=True)
class NoiseWorld:
    """One joint draw of per-item noise, fixed for an entire diffusion."""

    values: tuple[float, ...]

    @classmethod
    def sample(cls, catalog: "ItemCatalog", rng) -> "NoiseWorld":
        return cls(tuple(spec.sample(rng) for spec in catalog.noise_specs))


class ItemCatalog:
    """Items with bundle valuations, additive prices and noise distributions.

    valuations maps itemsets (iterables of item ids) to values; the empty
    set is implicitly 0. Unlisted bundles take the maximum value over their
    listed sub-bundles.
    """

    def __init__(
        self,
        items: Sequence[str],
        prices: Mapping[str, float],
        valuations: Mapping,
        noise: Optional[Mapping[str, NoiseSpec]] = None,
    ):
        self.items: tuple[str, ...] = tuple(items)
        self.m = len(self.items)
        if self.m == 0:
            raise CatalogError("catalog needs at least one item")
        if len(set(self.items)) != self.m:
            raise CatalogError("duplicate item ids")
        self.index: dict[str, int] = {it: i for i, it in enumerate(self.items)}
        unknown = set(prices) - set(self.items)
        if unknown:
            raise CatalogError(f"prices for unknown items: {sorted(unknown)}")
        missing = set(self.items) - set(prices)
        if missing:
            raise CatalogError(f"missing prices for items: {sorted(missing)}")
        self.item_prices = tuple(float(prices[it]) for it in self.items)
        for it, price in zip(self.items, self.item_prices):
            if not math.isfinite(price):
                raise CatalogError(f"price of {it!r} must be finite, got {price}")

        noise = dict(noise or {})
        unknown = set(noise) - set(self.items)
        if unknown:
            raise CatalogError(f"noise for unknown items: {sorted(unknown)}")
        self.noise_specs: tuple[NoiseSpec, ...] = tuple(
            noise.get(it, NoiseSpec.zero()) for it in self.items
        )

        self._listed: dict[int, float] = {}
        for key, value in valuations.items():
            mask = self.mask(key)
            if mask in self._listed:
                raise CatalogError(f"duplicate valuation for {self.itemset(mask)}")
            self._listed[mask] = float(value)
            if not math.isfinite(self._listed[mask]):
                raise CatalogError(f"valuation of {self.itemset(mask)} must be finite, got {value}")
        if self._listed.get(0, 0.0) != 0.0:
            raise CatalogError("the empty bundle must have value 0")
        self._listed[0] = 0.0
        self._vcache: dict[int, float] = dict(self._listed)

    # -- itemset plumbing ---------------------------------------------------

    def mask(self, items) -> int:
        """Bitmask for an iterable of item ids (or pass an int through)."""
        if isinstance(items, int):
            if not 0 <= items < (1 << self.m):
                raise CatalogError(f"mask {items} out of range for m={self.m}")
            return items
        mask = 0
        for it in items:
            idx = self.index.get(it)
            if idx is None:
                raise CatalogError(f"unknown item {it!r}")
            mask |= 1 << idx
        return mask

    def itemset(self, mask: int) -> tuple[str, ...]:
        return tuple(it for i, it in enumerate(self.items) if mask >> i & 1)

    # -- valuation / price / utility -----------------------------------------

    def value(self, items) -> float:
        mask = self.mask(items)
        cached = self._vcache.get(mask)
        if cached is not None:
            return cached
        # single-item removals reach every listed proper sub-bundle
        best = max(
            self.value(mask & ~(1 << i))
            for i in range(self.m)
            if mask >> i & 1
        )
        self._vcache[mask] = best
        return best

    def price(self, items) -> float:
        mask = self.mask(items)
        total = 0.0
        for i in range(self.m):
            if mask >> i & 1:
                total += self.item_prices[i]
        return total

    def item_price(self, item: str) -> float:
        return self.item_prices[self.index[item]]

    def deterministic_utility(self, items) -> float:
        """Value minus price, noise ignored."""
        mask = self.mask(items)
        return self.value(mask) - self.price(mask)

    def __repr__(self) -> str:
        return f"ItemCatalog(items={list(self.items)})"


def utility(catalog: ItemCatalog, items, noise_world: Optional[NoiseWorld] = None) -> float:
    """U(I) = V(I) - sum of prices + sum of sampled noise; U(empty) = 0."""
    mask = catalog.mask(items)
    total = catalog.value(mask) - catalog.price(mask)
    if noise_world is not None:
        for i in range(catalog.m):
            if mask >> i & 1:
                total += noise_world.values[i]
    return total


def finite_supports(catalog: ItemCatalog, mask: int):
    """Per-item finite supports inside mask, or None if any is continuous.
    The joint support has ``math.prod(len(s) for s in supports)`` outcomes."""
    supports = []
    for i in range(catalog.m):
        if mask >> i & 1:
            sup = catalog.noise_specs[i].support()
            if sup is None:
                return None
            supports.append(sup)
    return supports


def joint_outcomes(supports):
    """Yield (prob, per-item values) over the Cartesian product of finite
    supports, in ``itertools.product`` order; each probability is the
    product of its items' probabilities taken left to right."""
    for combo in itertools.product(*supports):
        prob = 1.0
        for _, p in combo:
            prob *= p
        yield prob, tuple(v for v, _ in combo)


def expected_truncated_utility(
    catalog: ItemCatalog, items, samples: Optional[int] = None, rng=None
) -> tuple[float, float]:
    """E[max(0, U(I))] with its standard error: exact (stderr 0) for finite-
    support noise, otherwise Monte Carlo, which needs `samples` and an `rng`."""
    return _expected_best(catalog, [catalog.mask(items)], samples, rng)


def _expected_best(catalog: ItemCatalog, masks, samples: Optional[int], rng) -> tuple[float, float]:
    """E[max(0, max over masks of U(mask))] with its standard error.

    Exact (stderr 0) when the masks' items have at most _MAX_EXACT_JOINT joint
    noise outcomes, else Monte Carlo: one numpy stream seeded by
    ``rng.getrandbits(63)`` draws those items' noise in index order, (1 << 22)
    // len(masks) rows at a time. A mask adds its noise left to right, then its base."""
    masks = list(masks)
    union = int(np.bitwise_or.reduce(masks))
    cols = [i for i in range(catalog.m) if union >> i & 1]
    base = np.array([catalog.deterministic_utility(mask) for mask in masks])
    inside = np.array([[mask >> i & 1 for mask in masks] for i in cols], dtype=bool)
    chunk = max(1, (1 << 22) // len(masks))

    def best(noise: np.ndarray) -> np.ndarray:
        sums = np.zeros((len(noise), len(masks)))
        for col, where in zip(noise.T, inside):
            np.add(sums, col[:, None], out=sums, where=where)
        return np.maximum(0.0, (sums + base).max(axis=1))

    supports = finite_supports(catalog, union)
    if supports is not None and math.prod(map(len, supports)) <= _MAX_EXACT_JOINT:
        outcomes, parts = joint_outcomes(supports), []
        while batch := list(itertools.islice(outcomes, chunk)):
            probs, vals = zip(*batch)
            parts.extend(np.array(probs) * best(np.array(vals)))
        return math.fsum(parts), 0.0
    if samples is None or rng is None:
        raise CatalogError("continuous noise needs samples and rng for Monte Carlo")
    gen = np.random.Generator(np.random.PCG64(rng.getrandbits(63)))
    draws = []
    for done in range(0, samples, chunk):
        take = min(chunk, samples - done)
        noise = [_sample_noise_array(catalog.noise_specs[i], take, gen) for i in cols]
        draws.append(best(np.column_stack(noise)))
    vals = np.concatenate(draws)
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return float(vals.mean()), stderr


def _sample_noise_array(spec: NoiseSpec, count: int, gen) -> np.ndarray:
    if spec.kind == "zero":
        return np.zeros(count)
    if spec.kind == "gaussian":
        return gen.normal(0.0, spec.sigma, count)
    if spec.kind == "truncated_gaussian":
        out = gen.normal(0.0, spec.sigma, count)
        bad = np.abs(out) > spec.bound
        while bad.any():
            out[bad] = gen.normal(0.0, spec.sigma, int(bad.sum()))
            bad = np.abs(out) > spec.bound
        return out
    return np.where(gen.random(count) < 0.5, spec.amplitude, -spec.amplitude)


def expected_item_utilities(
    catalog: ItemCatalog, samples: int = UTILITY_SAMPLES, rng=None
) -> dict[str, float]:
    """Expected truncated utility per single item (exact where possible)."""
    return {it: expected_truncated_utility(catalog, [it], samples, rng)[0] for it in catalog.items}


def u_min(catalog: ItemCatalog, samples: int = UTILITY_SAMPLES, rng=None) -> float:
    """Minimum over single items of the expected truncated utility."""
    return min(expected_item_utilities(catalog, samples, rng).values())


def u_max(catalog: ItemCatalog, samples: int = UTILITY_SAMPLES, rng=None) -> float:
    """Expected maximum truncated utility over all item bundles.

    Note the asymmetry with u_min: this is an expectation of a maximum,
    taken over bundles rather than single items. Exact for finite-support
    noise (joint enumeration), Monte Carlo otherwise.
    """
    if catalog.m > MAX_ITEMS_ENUM:
        raise CatalogError("u_max enumerates 2^m bundles; m <= %d required" % MAX_ITEMS_ENUM)
    return _expected_best(catalog, range(1 << catalog.m), samples, rng)[0]


def superior_item(catalog: ItemCatalog) -> Optional[str]:
    """The item whose worst-case utility beats every other item's best case.

    Requires bounded noise on all items; returns None when no item
    qualifies or when any noise is unbounded.
    """
    lows = []
    highs = []
    for i, it in enumerate(catalog.items):
        b = catalog.noise_specs[i].bounds()
        if b is None:
            return None
        det = catalog.deterministic_utility([it])
        lows.append(det + b[0])
        highs.append(det + b[1])
    for i, it in enumerate(catalog.items):
        others_high = max((h for j, h in enumerate(highs) if j != i), default=float("-inf"))
        if lows[i] > others_high:
            return it
    return None


def utilities_from_probabilities(probs: Iterable[float], scale: float = 10000.0) -> list[float]:
    """Map adoption probabilities to expected utilities via ln(scale * p)."""
    if not scale > 0:
        raise CatalogError(f"scale must be positive, got {scale}")
    out = []
    for p in probs:
        if not 0 < p < math.inf:
            raise CatalogError(f"adoption probability must be positive and finite, got {p}")
        out.append(math.log(scale * p))
    return out


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = "ok"


def validate(catalog: ItemCatalog) -> ValidationReport:
    """Exhaustively check V(empty)=0, monotonicity and submodularity.

    Walks all (I, J, x) triples with I subset of J, x outside J; reports the
    first violation found. Noise distributions are zero-mean by
    construction, so only the valuation needs checking. Requires m <= 20.
    """
    m = catalog.m
    if m > MAX_ITEMS_ENUM:
        return ValidationReport(False, "m too large for exhaustive validation")
    full = 1 << m
    vals = [catalog.value(mk) for mk in range(full)]
    if vals[0] != 0.0:
        return ValidationReport(False, f"V(empty) = {vals[0]}, expected 0")
    for mask in range(full):
        for i in range(m):
            if mask >> i & 1:
                continue
            if vals[mask | 1 << i] < vals[mask]:
                return ValidationReport(
                    False,
                    "monotonicity violated: V%s < V%s"
                    % (catalog.itemset(mask | 1 << i), catalog.itemset(mask)),
                )
    # submodularity via diminishing marginals of single items
    for small in range(full):
        rest = (full - 1) ^ small
        grow = rest
        while grow:
            big = small | grow
            for i in range(m):
                if big >> i & 1 or small >> i & 1:
                    continue
                gain_small = vals[small | 1 << i] - vals[small]
                gain_big = vals[big | 1 << i] - vals[big]
                if gain_big > gain_small + 1e-12:
                    return ValidationReport(
                        False,
                        "submodularity violated: adding %r to %s gains %g, to %s gains %g"
                        % (
                            catalog.items[i],
                            catalog.itemset(small),
                            gain_small,
                            catalog.itemset(big),
                            gain_big,
                        ),
                    )
            grow = (grow - 1) & rest
    return ValidationReport(True)


def is_pure_competition(catalog: ItemCatalog) -> bool:
    """True when every multi-item bundle's deterministic utility is at most
    each constituent item's."""
    if catalog.m > MAX_ITEMS_ENUM:
        raise CatalogError("pure-competition check requires m <= %d" % MAX_ITEMS_ENUM)
    table = [catalog.deterministic_utility(mk) for mk in range(1 << catalog.m)]
    for mask in range(1, 1 << catalog.m):
        for i in range(catalog.m):
            if mask >> i & 1 and table[mask] > table[1 << i] + 1e-12:
                return False
    return True


# -- catalog config files -----------------------------------------------------


@dataclass(frozen=True)
class CatalogConfig:
    catalog: ItemCatalog
    budgets: dict[str, int]


# config noise kind -> (NoiseSpec kind, {config key: NoiseSpec field})
_NOISE_KEYS = {
    "zero": ("zero", {}),
    "gaussian": ("gaussian", {"sigma": "sigma"}),
    "truncated-gaussian": ("truncated_gaussian", {"sigma": "sigma", "bound": "bound"}),
    "two-point": ("two_point", {"a": "amplitude"}),
}


def _number(text: str, what: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CatalogError(f"line {lineno}: {what} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise CatalogError(f"line {lineno}: {what} must be finite, got {text!r}")
    return value


def load_catalog_config(lines: Iterable[str]) -> CatalogConfig:
    """Parse the catalog config format.

    Sections: [items] with "id price=P noise=KIND [param=V ...]" lines,
    [valuation] with "id[,id...] = value" lines, optional [budgets] with
    "id = count" lines. Unknown sections or keys are errors.
    """
    items: list[str] = []
    prices: dict[str, float] = {}
    noise: dict[str, NoiseSpec] = {}
    valuations: dict[tuple[str, ...], float] = {}
    budgets: dict[str, int] = {}
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("items", "valuation", "budgets"):
                raise CatalogError(f"line {lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise CatalogError(f"line {lineno}: content before any section header")
        if section == "items":
            parts = line.split()
            item = parts[0]
            if item in prices:
                raise CatalogError(f"line {lineno}: duplicate item {item!r}")
            kv = {}
            for tok in parts[1:]:
                if "=" not in tok:
                    raise CatalogError(f"line {lineno}: expected key=value, got {tok!r}")
                key, val = tok.split("=", 1)
                if key in kv:
                    raise CatalogError(f"line {lineno}: duplicate key {key!r}")
                kv[key] = val
            if "price" not in kv:
                raise CatalogError(f"line {lineno}: item {item!r} missing price")
            kind = kv.pop("noise", "zero")
            if kind not in _NOISE_KEYS:
                raise CatalogError(f"line {lineno}: unknown noise kind {kind!r}")
            price = _number(kv.pop("price"), "price", lineno)
            spec_kind, fields = _NOISE_KEYS[kind]
            params = {}
            for key, field in fields.items():
                if key not in kv:
                    raise CatalogError(f"line {lineno}: noise {kind!r} needs {key}=")
                params[field] = _number(kv.pop(key), f"noise {key}", lineno)
            if kv:
                raise CatalogError(f"line {lineno}: unknown keys {sorted(kv)}")
            items.append(item)
            prices[item] = price
            noise[item] = NoiseSpec(spec_kind, **params)
        elif section == "valuation":
            if "=" not in line:
                raise CatalogError(f"line {lineno}: expected 'ids = value'")
            lhs, rhs = line.split("=", 1)
            ids = tuple(tok.strip() for tok in lhs.split(",") if tok.strip())
            if not ids:
                raise CatalogError(f"line {lineno}: empty itemset")
            for it in ids:
                if it not in prices:
                    raise CatalogError(f"line {lineno}: unknown item {it!r} in valuation")
            if ids in valuations:
                raise CatalogError(f"line {lineno}: duplicate valuation for {ids}")
            valuations[ids] = _number(rhs.strip(), "valuation", lineno)
        else:
            if "=" not in line:
                raise CatalogError(f"line {lineno}: expected 'id = count'")
            lhs, rhs = line.split("=", 1)
            item = lhs.strip()
            if item not in prices:
                raise CatalogError(f"line {lineno}: unknown item {item!r} in budgets")
            if item in budgets:
                raise CatalogError(f"line {lineno}: duplicate budget for {item!r}")
            try:
                budgets[item] = int(rhs)
            except ValueError:
                raise CatalogError(f"line {lineno}: budget must be an integer") from None
            if budgets[item] < 0:
                raise CatalogError(f"line {lineno}: budget must be non-negative")
    if not items:
        raise CatalogError("config defines no items")
    catalog = ItemCatalog(items, prices, valuations, noise)
    return CatalogConfig(catalog, budgets)
