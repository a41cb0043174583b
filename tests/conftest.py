import io
import random
from pathlib import Path

import pytest

from welfaremax.diffusion import Allocation
from welfaremax.graph import Graph, load_edge_list
from welfaremax.utility import ItemCatalog, NoiseSpec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def graph_from(text: str) -> Graph:
    return load_edge_list(io.StringIO(text))


def silent_noise(catalog: ItemCatalog) -> tuple[float, ...]:
    """A noise vector in which every item's noise is 0."""
    return (0.0,) * catalog.m


@pytest.fixture
def configs_dir() -> Path:
    return CONFIGS


@pytest.fixture
def pair_graph() -> Graph:
    """Two nodes joined by one certain edge."""
    return graph_from("0 1 1.0\n")


@pytest.fixture
def trio_catalog() -> ItemCatalog:
    """Three partially competing items; zero noise.

    Utilities: 4, 3, 4 alone; the 1-3 pair is worth 5, the others 2; all
    three together 1.
    """
    return ItemCatalog(
        ["i1", "i2", "i3"],
        prices={"i1": 1, "i2": 4, "i3": 1},
        valuations={
            ("i1",): 5,
            ("i2",): 7,
            ("i3",): 5,
            ("i1", "i2"): 7,
            ("i1", "i3"): 7,
            ("i2", "i3"): 7,
            ("i1", "i2", "i3"): 7,
        },
    )


@pytest.fixture
def premium_catalog() -> ItemCatalog:
    """Four items where i4's utility (100) dwarfs the rest (around 5)."""
    return ItemCatalog(
        ["i1", "i2", "i3", "i4"],
        prices={"i1": 10, "i2": 100, "i3": 100, "i4": 1},
        valuations={
            ("i1",): 15.1,
            ("i2",): 105,
            ("i3",): 105,
            ("i4",): 101,
            ("i1", "i2"): 114.9,
            ("i1", "i3"): 114.9,
            ("i1", "i4"): 116.1,
            ("i2", "i3"): 210,
            ("i2", "i4"): 206,
            ("i3", "i4"): 206,
            ("i1", "i2", "i3"): 214.6,
            ("i1", "i2", "i4"): 214,
            ("i1", "i3", "i4"): 214,
            ("i2", "i3", "i4"): 210.5,
            ("i1", "i2", "i3", "i4"): 214.6,
        },
    )


@pytest.fixture
def fork_graph() -> Graph:
    """0 -> 1 -> 2 <- 3, all certain."""
    return graph_from("0 1 1\n1 2 1\n3 2 1\n")


@pytest.fixture
def strong_weak_catalog() -> ItemCatalog:
    """Utilities 10 and 1 alone, 0 as a bundle."""
    return ItemCatalog(
        ["i", "j"],
        prices={"i": 12, "j": 12},
        valuations={("i",): 22, ("j",): 13, ("i", "j"): 24},
    )


@pytest.fixture
def path_graph() -> Graph:
    return graph_from("0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n")


@pytest.fixture
def blocking_catalog() -> ItemCatalog:
    """Utilities 2, 0.11, 0.1; only the i-k bundle stays positive (2.1)."""
    return ItemCatalog(
        ["i", "j", "k"],
        prices={"i": 10, "j": 10, "k": 10},
        valuations={
            ("i",): 12,
            ("j",): 10.11,
            ("k",): 10.1,
            ("i", "j"): 19.5,
            ("i", "k"): 22.1,
            ("j", "k"): 19.5,
            ("i", "j", "k"): 28.8,
        },
    )


# -- randomized instance generators -------------------------------------------


def random_graph(rng: random.Random, n_lo=4, n_hi=8, e_lo=6, e_hi=12, force_random_edge=True) -> Graph:
    n = rng.randint(n_lo, n_hi)
    candidates = [(u, v) for u in range(n) for v in range(n) if u != v]
    rng.shuffle(candidates)
    count = rng.randint(min(e_lo, len(candidates)), min(e_hi, len(candidates)))
    probs = (0.3, 0.5, 0.7, 1.0)
    edges = []
    for idx, (u, v) in enumerate(candidates[:count]):
        p = 0.5 if (force_random_edge and idx == 0) else rng.choice(probs)
        edges.append((u, v, p))
    return Graph(n, edges)


def random_coverage_catalog(rng: random.Random, m_hi=3) -> ItemCatalog:
    """Coverage-style valuations are monotone and submodular by construction."""
    m = rng.randint(1, m_hi)
    items = [f"it{k}" for k in range(m)]
    ground = [rng.uniform(0.5, 2.0) for _ in range(6)]
    covers = [frozenset(g for g in range(6) if rng.random() < 0.5) for _ in range(m)]
    valuations = {}
    for mask in range(1, 1 << m):
        union = frozenset().union(*(covers[k] for k in range(m) if mask >> k & 1))
        valuations[tuple(items[k] for k in range(m) if mask >> k & 1)] = sum(
            ground[g] for g in union
        )
    prices = {}
    noise = {}
    for k, it in enumerate(items):
        single = valuations[(it,)]
        prices[it] = rng.uniform(0.3, 1.1) * single if single > 0 else 0.1
        noise[it] = (
            NoiseSpec.zero()
            if rng.random() < 0.5
            else NoiseSpec.two_point(rng.uniform(0.1, 0.5))
        )
    return ItemCatalog(items, prices, valuations, noise)


def random_allocation(rng: random.Random, graph: Graph, catalog: ItemCatalog, pairs=3) -> Allocation:
    chosen = set()
    for _ in range(pairs):
        chosen.add((rng.randrange(graph.n), rng.choice(catalog.items)))
    return Allocation.of(chosen)


def superior_instance(rng: random.Random, n_hi=10, e_hi=10, equal_inferiors=False):
    """Pure-competition catalog with a clearly superior item plus fixed seeds.

    The superior item's utility is 1.0 (optionally with small two-point
    noise); inferiors sit in [0.05, 0.3] with zero noise, so adoption
    decisions never depend on the noise draw. With ``equal_inferiors`` all
    inferior utilities coincide, which is the regime where the weighted
    RR-set weight (superior minus best reached inferior) is exactly the
    root's conversion gain; unequal inferiors can adopt a worse item than
    the best reached one when blocking occurs mid-path.
    """
    graph = random_graph(rng, n_lo=6, n_hi=n_hi, e_lo=7, e_hi=e_hi, force_random_edge=True)
    m = rng.randint(2, 3)
    items = ["sup"] + [f"inf{k}" for k in range(m - 1)]
    det = {"sup": 1.0}
    shared = rng.uniform(0.05, 0.3)
    for it in items[1:]:
        det[it] = shared if equal_inferiors else rng.uniform(0.05, 0.3)
    prices = {it: 1.0 for it in items}
    valuations = {}
    for mask in range(1, 1 << m):
        members = [items[k] for k in range(m) if mask >> k & 1]
        # best single item's value: bundles never beat their constituents
        valuations[tuple(members)] = max(det[it] + 1.0 for it in members)
    noise = {}
    if rng.random() < 0.4:
        noise["sup"] = NoiseSpec.two_point(0.2)
    catalog = ItemCatalog(items, prices, valuations, noise)
    base_pairs = []
    nodes = list(range(graph.n))
    rng.shuffle(nodes)
    for k, it in enumerate(items[1:]):
        base_pairs.append((nodes[k], it))
    return graph, catalog, Allocation.of(base_pairs)
