"""Utility-driven competitive diffusion and Monte Carlo welfare estimation.

Propagation is discrete-time and progressive. At t=1 seed nodes desire
their allocated items and adopt the utility-maximizing feasible subset;
from t>=2, any node whose adoption changed last round tests its untested
out-edges once, live edges carry the full adoption set into the target's
desire set, and targets whose desire grew re-decide by argmax over
supersets of their current adoption with non-negative utility.

A sampled possible world is its noise vector and one 64-bit key; an
edge's coin is a hash of the key and the edge id, flipped only when the
diffusion tests the edge, and tested as an integer: the hash's 53 coin
bits against the edge's ``ceil(p * 2**53)``, which is exactly coin < p.
The same SplitMix64 hash draws every value of the reverse direction's RR
sets, keyed by set instead of by world (`ris`).
`simulate` runs one allocation in a batch of possible worlds at once, on
numpy arrays over (world, node) keys and the graph's out-CSR, and reads
every bundle's utility from one table with a row per distinct noise
vector and a column per item mask. Its work follows the cascade: each
round reads the frontier's out-slots through one index into the
frontier, and the adopters are the keys the frontiers reached, so past
zero-filling its two state arrays no step touches every (world, node)
cell. The adopters are counted per (world, bundle) cell, and a world's
welfare is one exactly rounded `math.fsum` over its cells, each cell's
count times utility written as terms that sum to it exactly. One loop,
`world_runs`, makes worlds a chunk at a time (`chunk_worlds`) and runs
every allocation of an estimate, or of an exact oracle query, on a chunk
before making the next.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from welfaremax.graph import Graph, differs, spans
from welfaremax.rng import derive_rng
from welfaremax.utility import ItemCatalog

MAX_SIM_ITEMS = 10  # the adoption argmax enumerates 2^|desire| subsets
_MASKS = (1 << MAX_SIM_ITEMS) - 1  # the bits of one item mask
CHUNK_CELLS = 1 << 23  # most world x max(node, edge, itemset) cells in one chunk of worlds
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's step between the states of a stream


class DiffusionError(ValueError):
    pass


@dataclass(frozen=True)
class Allocation:
    """A set of (node, item) seed pairs."""

    pairs: frozenset[tuple[int, str]]

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, str]]) -> "Allocation":
        return cls(frozenset((int(n), str(i)) for n, i in pairs))

    @classmethod
    def empty(cls) -> "Allocation":
        return cls(frozenset())

    def seed_nodes(self) -> frozenset[int]:
        return frozenset(n for n, _ in self.pairs)

    def items(self) -> frozenset[str]:
        return frozenset(i for _, i in self.pairs)

    def seeds_for(self, item: str) -> frozenset[int]:
        return frozenset(n for n, i in self.pairs if i == item)

    def items_at(self, node: int) -> frozenset[str]:
        return frozenset(i for n, i in self.pairs if n == node)

    def merged(self, other: "Allocation") -> "Allocation":
        return Allocation(self.pairs | other.pairs)

    def sorted_pairs(self) -> list[tuple[int, str]]:
        return sorted(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)


class PossibleWorld:
    """One joint sample of noise values and edge liveness.

    ``noise[i]`` is item i's noise. A sampled world draws its noise item by
    item, then one 64-bit ``key`` with ``rng.getrandbits(64)``, and holds no
    per-edge data: edge ``eid`` is live when ``coin(key, eid) < p[eid]``,
    where ``coin(key, eid)``, output ``eid`` of a SplitMix64 stream seeded
    at ``key``, is ``(rng._splitmix64((key + eid * 0x9E3779B97F4A7C15) mod
    2**64) >> 11) * 2**-53``. `simulate` flips only the coins of the edges
    it tests, and an edge tested again gets the same coin, so replaying one
    world under different allocations tests identical edges and diffusion
    within a world is fully deterministic. A fixed world (`fixed`, for the
    oracle and tests) has ``key`` None and ``live[eid]`` 1 when edge ``eid``
    is live, else 0, so it serves one graph only.
    """

    __slots__ = ("noise", "live", "key")

    def __init__(
        self, noise: tuple[float, ...], live: Optional[bytes] = None, key: Optional[int] = None
    ):
        if (live is None) == (key is None):
            raise DiffusionError("a world has either live flags or a key")
        self.noise = noise
        self.live = live
        self.key = key

    @classmethod
    def sample(cls, catalog: ItemCatalog, rng) -> "PossibleWorld":
        noise = tuple(spec.sample(rng) for spec in catalog.noise_specs)
        return cls(noise, key=rng.getrandbits(64))

    @classmethod
    def fixed(cls, live_edges: Iterable[bool], noise: Sequence[float]) -> "PossibleWorld":
        return cls(tuple(noise), bytes(bool(b) for b in live_edges))


def _coin_bits(keys, z: np.ndarray, shift: int = 11) -> np.ndarray:
    """Output ``z[k]`` of the SplitMix64 stream seeded at ``keys[k]`` (or one
    key), ``rng._splitmix64((key + z * 0x9E3779B97F4A7C15) mod 2**64) >>
    shift``, in place on uint64 `z`: for edge ids, the 53 bits of `PossibleWorld`'s
    ``coin(keys[k], z[k])``, as the RR samplers' values are too."""
    z += np.uint64(1)
    z *= _GAMMA
    z += keys
    return _mixed(z, shift)


def _mixed(z: np.ndarray, shift: int = 11) -> np.ndarray:
    """SplitMix64's output function of the states `z`, shifted right by
    `shift`, in place; uint64 arithmetic wraps as `rng._splitmix64` masks."""
    tmp = np.empty_like(z)
    for right, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, np.uint64(right), out=tmp)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    z >>= np.uint64(shift)
    return z


class Adoption(Mapping):
    """``(world, node) -> items`` for every non-empty final adoption of a
    batch, in ascending (world, node) order. The pairs are kept as flat
    ``world * n + node`` keys, in the order they first adopted, with their
    item masks; len() counts the keys, and the first lookup sorts them and
    builds the dict."""

    def __init__(self, catalog: ItemCatalog, n: int, keys: np.ndarray, masks: np.ndarray):
        self._catalog, self._n, self._keys, self._masks = catalog, n, keys, masks

    def __len__(self) -> int:
        return len(self._keys)

    @cached_property
    def _pairs(self) -> dict[tuple[int, int], frozenset[str]]:
        order = np.argsort(self._keys)
        owner, nodes = np.divmod(self._keys[order], self._n)
        masks = self._masks[order].tolist()
        bundles = {mask: frozenset(self._catalog.itemset(mask)) for mask in set(masks)}
        return dict(zip(zip(owner.tolist(), nodes.tolist()), map(bundles.__getitem__, masks)))

    def __getitem__(self, key: tuple[int, int]) -> frozenset[str]:
        return self._pairs[key]

    def __iter__(self):
        return iter(self._pairs)

    def __repr__(self) -> str:
        return f"Adoption({self._pairs!r})"


@dataclass(frozen=True)
class DiffusionResult:
    """One allocation's diffusion in each world of a batch, worlds in batch
    order: world w's ``welfare[w]``, ``rounds[w]`` and, per item,
    ``item_counts[item][w]`` adopters. ``adoption`` maps ``(w, node)`` to
    the node's final adoption in world w, for every non-empty one, so its
    len() counts the adopters of the whole batch; it builds the map only
    when read."""

    adoption: Adoption
    welfare: list[float]
    item_counts: dict[str, list[int]]
    rounds: list[int]


def _best_feasible(desire: int, current: int, util: Sequence[float]) -> int:
    """Argmax-utility subset of desire that contains current and has U >= 0,
    where ``util[mask]`` is a mask's utility.

    Ties prefer the larger itemset, then the smallest bitmask. `current`
    itself is always feasible (its utility was non-negative when adopted).
    """
    free = desire & ~current
    best_mask = current
    best_u = util[current]
    best_size = current.bit_count()
    sub = free
    while sub:
        cand = current | sub
        u = util[cand]
        if u >= 0.0:
            size = cand.bit_count()
            if (
                u > best_u
                or (u == best_u and size > best_size)
                or (u == best_u and size == best_size and cand < best_mask)
            ):
                best_mask, best_u, best_size = cand, u, size
        sub = (sub - 1) & free
    return best_mask


def _utility_table(catalog: ItemCatalog, noise: np.ndarray) -> np.ndarray:
    """``table[k, mask]``: the utility of each item mask under each row k of
    `noise`, its value plus, item by item in index order, the item's noise
    minus its price."""
    m = catalog.m
    table = np.tile(catalog.values, (len(noise), 1))
    for i, price in enumerate(catalog.item_prices):
        # the masks with item i, in place: (row, high bits, item i, low bits)
        with_i = table.reshape(len(noise), 1 << m - 1 - i, 2, 1 << i)[:, :, 1]
        with_i += (noise[:, i] - price)[:, None, None]
    return table


def _world_sums(
    owner: np.ndarray, values: np.ndarray, adopters: np.ndarray, count: int
) -> list[float]:
    """Each of `count` worlds' welfare from its cells: ``adopters[k]``
    adopters of utility ``values[k]`` in world ``owner[k]``, `owner`
    ascending. A cell's product is the exact sum of ``values[k] * 2**j``
    over the binary digits j of its count, and `math.fsum` rounds a
    world's exact sum once, so each welfare is the same float as the fsum
    of the world's utilities adopter by adopter, for any finite utilities
    and counts whose products and sums stay finite."""
    width = int(adopters.max(initial=0)).bit_length()
    cell, digit = np.nonzero(adopters[:, None] >> np.arange(width) & 1)
    terms = np.ldexp(values[cell], digit).tolist()
    bounds = np.searchsorted(owner[cell], np.arange(count + 1)).tolist()
    return [math.fsum(terms[a:b]) for a, b in zip(bounds, bounds[1:])]


def chunk_worlds(graph: Graph, catalog: ItemCatalog) -> int:
    """The most worlds one chunk holds: `CHUNK_CELLS` over the largest of
    the graph's node and edge counts and the catalog's itemset count, and
    at least one."""
    return max(1, CHUNK_CELLS // max(graph.n, graph.m, 1 << catalog.m))


def _edge_test(graph: Graph, worlds: Sequence[PossibleWorld]):
    """``is_live(owner, row, slots)``: whether out-slot ``slots[k]`` is live
    in world ``owner[row[k]]`` of `worlds`, all sampled (their coins' bits
    against `Graph.out_limits`) or all fixed (their flags, stacked as
    ``w * m + eid``)."""
    out_eid = graph.out_eid
    keyed = [world.key is not None for world in worlds]
    if all(keyed):
        keys, limits = np.array([world.key for world in worlds], dtype=np.uint64), graph.out_limits
        return lambda owner, row, slots: (
            _coin_bits(keys[owner][row], out_eid[slots].view(np.uint64)) < limits[slots]
        )
    if any(keyed):
        raise DiffusionError("a batch mixes sampled and fixed worlds")
    m = graph.m
    wrong = {len(world.live) for world in worlds} - {m}
    if wrong:
        raise DiffusionError(f"a fixed world has {min(wrong)} edge flags; the graph has {m} edges")
    live = np.frombuffer(b"".join(world.live for world in worlds), dtype=bool)
    return lambda owner, row, slots: live[(owner * m)[row] + out_eid[slots]]


def _spread(graph: Graph, count: int, is_live, seeds: dict[int, int], choose):
    """The rounds of `simulate` in `count` worlds: the adopters' ``w * n +
    node`` keys, in the order they first adopted, and their final adoption
    masks; the occupied ``w << MAX_SIM_ITEMS | mask`` cells of those masks,
    ascending, with each cell's adopter count; and each world's round count.
    `is_live` is `_edge_test`'s, `seeds` maps each seed node to its items'
    mask, and ``choose(keys, desired, current)`` gives the new adoption at
    each key."""
    n = graph.n
    desire = np.zeros(count * n, dtype=np.uint16)
    adopt = np.zeros(count * n, dtype=np.uint16)
    seed_nodes = np.array(sorted(seeds), dtype=np.int64)
    frontier = (np.arange(count, dtype=np.int64)[:, None] * n + seed_nodes).ravel()
    desire[frontier] = np.tile(np.array([seeds[v] for v in sorted(seeds)], np.uint16), count)
    adopt[frontier] = choose(frontier, desire[frontier], adopt[frontier])
    frontier = frontier[adopt[frontier] != 0]
    # a key whose adoption changes holds a non-empty one from then on, so
    # the keys that adopt while holding none are the adopters, each once
    fresh = [frontier]
    rounds = np.zeros(count, dtype=np.int64)
    out_ptr, out_dst = graph.out_ptr, graph.out_dst
    round_no = 0
    while len(frontier):
        round_no += 1
        owner = frontier // n
        rounds[owner] = round_no  # a world is done once its frontier is empty
        base = owner * n
        nodes = frontier - base
        # the frontier's out-slots, node after node, and each one's row in the frontier
        slots, row = spans(out_ptr[nodes], out_ptr[nodes + 1])
        live = np.flatnonzero(is_live(owner, row, slots))
        row = row[live]
        targets = out_dst[slots[live]]
        targets += base[row]
        gains = adopt[frontier][row]
        gains &= ~desire[targets]
        # sort the (target, gain) pairs packed in one key, then OR each target's gains
        targets <<= MAX_SIM_ITEMS
        targets |= gains
        packed = targets[np.flatnonzero(gains)]
        packed.sort()
        targets = packed >> MAX_SIM_ITEMS
        firsts = np.flatnonzero(differs(targets))
        targets = targets[firsts]
        gained = np.bitwise_or.reduceat(packed & _MASKS, firsts).astype(np.uint16)
        desired = desire[targets] | gained
        desire[targets] = desired
        current = adopt[targets]
        chosen = choose(targets, desired, current)
        changed = np.flatnonzero(chosen != current)
        frontier = targets[changed]
        adopt[frontier] = chosen[changed]
        fresh.append(frontier[current[changed] == 0])
    adopters = np.concatenate(fresh)
    masks = adopt[adopters]
    cells = adopters // n
    cells <<= MAX_SIM_ITEMS
    cells |= masks
    cells.sort()
    firsts = np.flatnonzero(differs(cells))
    return adopters, masks, cells[firsts], np.diff(firsts, append=len(cells)), rounds


def simulate(
    graph: Graph,
    catalog: ItemCatalog,
    allocation: Allocation,
    worlds: Sequence[PossibleWorld],
) -> DiffusionResult:
    """Run one deterministic diffusion of `allocation` in each of `worlds`.

    The worlds, all sampled or all fixed, run together, their desire and
    adoption masks flat over keys ``w * n + node``. Each round expands the
    frontier's out-slots, with each slot's index into the frontier (its
    row), and keeps the live ones: a sampled world's coins are flipped for
    those slots only, each coin's 53 bits compared, as an integer, with
    the slot's ``ceil(p * 2**53)`` (`Graph.out_limits`), and a fixed
    world's flags are read. Through the live slots' rows it gathers each
    source's world and adoption, ORs together the items each target newly
    hears of, and lets those targets re-decide. A decision depends only on
    the world's noise vector, the desire and the current adoption, and is
    made once per distinct triple; with one noise vector in the batch, a
    table indexed by (desire, current) holds the decisions made so far,
    and a round sorts only the pairs not yet decided. A key whose
    adoption changed holds a non-empty one from then on, so the keys that
    adopt while holding none are the adopters, each once. They are
    counted per occupied (world, final mask) cell; each world's welfare
    (`_world_sums`) and per-item adopter counts come from those counts,
    and the welfare is the same float as an fsum over the adopters one by
    one. Every utility, in a decision and in the welfare, comes from one
    table (`_utility_table`) with a row per distinct noise vector, bit for
    bit, and a column per item mask. Callers keep
    ``len(worlds) * max(n, m, 2^items)`` within `CHUNK_CELLS`
    (`chunk_worlds`).
    """
    if catalog.m > MAX_SIM_ITEMS:
        raise DiffusionError(f"simulator enumerates itemsets; m <= {MAX_SIM_ITEMS} required")
    n, count = graph.n, len(worlds)
    seeds: dict[int, int] = {}
    for node, item in allocation.pairs:
        if not 0 <= node < n:
            raise DiffusionError(f"seed node {node} outside graph")
        if item not in catalog.index:
            raise DiffusionError(f"unknown item {item!r} in allocation")
        seeds[node] = seeds.get(node, 0) | 1 << catalog.index[item]

    wrong = {len(world.noise) for world in worlds} - {catalog.m}
    if wrong:
        raise DiffusionError(f"a world has {min(wrong)} noise values for {catalog.m} items")
    is_live = _edge_test(graph, worlds)
    noise = np.array([world.noise for world in worlds], dtype=np.float64).reshape(count, catalog.m)
    vectors, noise_of = np.unique(noise.view(np.int64), axis=0, return_inverse=True)  # bit for bit
    noise_of = noise_of.reshape(-1)  # its shape differs across numpy versions
    table = _utility_table(catalog, vectors.view(np.float64))  # a row per noise id
    m, full = catalog.m, (1 << catalog.m) - 1
    choices: dict[int, int] = {}  # (noise id, desire, current) triple -> new adoption
    # with one noise vector, every decision made so far by (desire, current); 0xFFFF if none
    known = np.full(1 << 2 * m, 0xFFFF, dtype=np.uint16) if len(vectors) == 1 else None

    def decide(triples: np.ndarray) -> np.ndarray:
        distinct = np.sort(triples)
        distinct = distinct[differs(distinct)]
        picks = []
        for triple in distinct.tolist():
            if triple not in choices:
                # its noise id's row, as a memoryview, which reads out Python floats
                util = memoryview(table[triple >> 2 * m])
                choices[triple] = _best_feasible(triple >> m & full, triple & full, util)
            picks.append(choices[triple])
        return np.array(picks, dtype=np.uint16)[np.searchsorted(distinct, triples)]

    def choose(keys: np.ndarray, desired: np.ndarray, current: np.ndarray) -> np.ndarray:
        triples = desired.astype(np.int64) << m
        triples |= current
        if known is None:
            triples |= noise_of[keys // n] << 2 * m
            return decide(triples)
        picks = known[triples]
        unknown = np.flatnonzero(picks == 0xFFFF)
        if len(unknown):
            missing = triples[unknown]
            known[missing] = picks[unknown] = decide(missing)
        return picks

    keys, held, cells, adopters, rounds = _spread(graph, count, is_live, seeds, choose)
    owner, masks = cells >> MAX_SIM_ITEMS, cells & _MASKS
    welfare = _world_sums(owner, table[noise_of[owner], masks], adopters, count)
    counts = {
        item: np.bincount(owner, adopters * (masks >> i & 1), count).astype(np.int64).tolist()
        for i, item in enumerate(catalog.items)
    }
    return DiffusionResult(Adoption(catalog, n, keys, held), welfare, counts, rounds.tolist())


class WelfareEstimate(NamedTuple):
    mean: float
    stderr: float
    item_means: dict[str, float]


class MarginalEstimate(NamedTuple):
    estimates: list[tuple[float, float]]  # per candidate, its marginal's (mean, stderr)
    runs: list[array]  # per candidate, its welfare with the base in each world
    base_runs: array  # the base's welfare in each world


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    k = len(values)
    mean = math.fsum(values) / k
    if k < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (k - 1)
    return mean, math.sqrt(var / k)


def world_runs(
    graph: Graph,
    catalog: ItemCatalog,
    allocations: list[Allocation],
    count: int,
    world,
    weights: Optional[Sequence[float]] = None,
) -> list[tuple[array, dict[str, float]]]:
    """Per allocation, its welfare in each of the worlds ``world(0)`` ..
    ``world(count - 1)``, as a flat array, which keeps each float as it is
    in a quarter of a list's memory, and its adopters of each item summed
    over the worlds: plain counts, or each world's count times
    ``weights[idx]``, added in world order.

    The worlds are made a chunk of `chunk_worlds` at a time, and every
    allocation runs on a chunk before the next is made.
    """
    if count < 1:
        raise DiffusionError("samples must be >= 1")
    runs = [(array("d"), dict.fromkeys(catalog.items, 0)) for _ in allocations]
    per = chunk_worlds(graph, catalog)
    for start in range(0, count, per):
        worlds = [world(idx) for idx in range(start, min(start + per, count))]
        for allocation, (welfare, adopters) in zip(allocations, runs):
            result = simulate(graph, catalog, allocation, worlds)
            welfare.extend(result.welfare)
            for item, counts in result.item_counts.items():
                if weights is None:
                    adopters[item] += sum(counts)
                    continue
                total = adopters[item]
                for p, c in zip(weights[start : start + len(counts)], counts):
                    total += p * c
                adopters[item] = total
    return runs


def _sampled(catalog: ItemCatalog, seed: int):
    """World ``idx`` of `seed`, drawn from its own stream, ``derive_rng(seed, idx)``."""
    return lambda idx: PossibleWorld.sample(catalog, derive_rng(seed, idx))


def estimate_welfare(
    graph: Graph,
    catalog: ItemCatalog,
    allocation: Allocation,
    samples: int,
    seed: int,
) -> WelfareEstimate:
    """Monte Carlo mean welfare with standard error and per-item adoption means."""
    ((welfares, adopters),) = world_runs(
        graph, catalog, [allocation], samples, _sampled(catalog, seed)
    )
    mean, stderr = _mean_stderr(welfares)
    return WelfareEstimate(mean, stderr, {item: c / samples for item, c in adopters.items()})


def estimate_marginal_welfare(
    graph: Graph,
    catalog: ItemCatalog,
    candidates: list[Allocation],
    base: Allocation,
    samples: int,
    seed: int,
    base_runs: Optional[Sequence[float]] = None,
) -> MarginalEstimate:
    """Estimate rho(candidate + base) - rho(base), with its standard error,
    for each candidate.

    The candidates and the base replay the same possible world for each
    sample (worlds are allocation-independent), which sharply reduces
    variance; the base runs once per world for all of them, so a
    candidate's estimate does not depend on the others. `base_runs`, if
    given, is the base's welfare in each world of this seed and sample
    count, from an earlier estimate, and stands in for the base runs.
    """
    if base_runs is not None and len(base_runs) != samples:
        raise DiffusionError(f"{len(base_runs)} base runs given for {samples} samples")
    overlap = set().union(*(candidate.pairs for candidate in candidates)) & base.pairs
    if overlap:
        raise DiffusionError(f"candidate overlaps base allocation: {sorted(overlap)}")
    allocations = [candidate.merged(base) for candidate in candidates]
    if base_runs is None:
        allocations.insert(0, base)
    worlds = _sampled(catalog, seed)
    runs = [welfare for welfare, _ in world_runs(graph, catalog, allocations, samples, worlds)]
    base_runs = runs.pop(0) if base_runs is None else array("d", base_runs)
    estimates = [_mean_stderr([w - b for w, b in zip(run, base_runs)]) for run in runs]
    return MarginalEstimate(estimates, runs, base_runs)
