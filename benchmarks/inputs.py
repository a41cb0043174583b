"""Seeded synthetic inputs for the benchmark workloads.

Each workload has one network, drawn by a fixed generator seed, as the
paper evaluates on fixed datasets. The workload seed relabels its nodes,
shuffles its edge lines and draws the base allocation, so one seed always
writes the same files and two seeds write different ones. Welfare and the
work it takes to reach it then vary from seed to seed only through the
labels and the program's random streams, not through the hub structure of
a new graph. Edge lists carry weighted-cascade probabilities
(p(u, v) = 1 / indegree(v)) explicitly, because the program's CLI has no
option to assign them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One `allocate` invocation and the inputs it runs on."""

    name: str
    algo: str
    graph: str  # "er" or "pa"
    n: int
    degree: int  # ER: edges per node; PA: links each new node makes
    catalog: str  # "trio_blocking", "additive" or "competition"
    budgets: dict[str, int]
    samples: int  # Monte Carlo samples: marginal checks and final estimate
    check_samples: int  # samples of the independent spread estimator
    base_per_item: int = 0  # seeded base seeds for each inferior item


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="seqgrd-er5k",
            algo="seqgrd",
            graph="er",
            n=5000,
            degree=5,
            catalog="trio_blocking",
            budgets={"i": 10, "j": 10, "k": 10},
            samples=100,
            check_samples=500,
        ),
        Workload(
            name="seqgrd-nm-pa50k",
            algo="seqgrd-nm",
            graph="pa",
            n=50_000,
            degree=3,
            catalog="additive",
            budgets={"a": 6, "b": 4, "c": 4},
            samples=20,
            check_samples=300,
        ),
        Workload(
            name="supgrd-pa50k",
            algo="supgrd",
            graph="pa",
            n=50_000,
            degree=3,
            catalog="competition",
            budgets={"s": 40},
            samples=20,
            check_samples=300,
            base_per_item=40,
        ),
    )
}

# Zero-noise catalogs written by the benchmark. Utilities are value - price.
ADDITIVE_CATALOG = """\
# additive, zero noise: a node adopts every item it hears of, so each
# item spreads on its own and welfare is the utility-weighted spread sum
[items]
a price=1 noise=zero
b price=1 noise=zero
c price=1 noise=zero

[valuation]
a = 4
b = 3
c = 2
a,b = 7
a,c = 6
b,c = 5
a,b,c = 9
"""

COMPETITION_CATALOG = """\
# pure competition: bundles are worth their best member (the default
# completion), and every bundle's price exceeds its value, so each
# adopter holds exactly one item; s is superior to x and y
[items]
s price=10 noise=zero
x price=10 noise=zero
y price=10 noise=zero

[valuation]
s = 15
x = 12
y = 12
"""


def er_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """m distinct directed edges drawn uniformly, without self-loops."""
    seen: set[tuple[int, int]] = set()
    edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))
    return edges


def pa_edges(n: int, links: int, rng: random.Random) -> list[tuple[int, int]]:
    """Preferential attachment, every link kept in both directions.

    Each new node links to `links` distinct earlier nodes picked in
    proportion to their degree, which gives a heavy-tailed degree spread.
    """
    # a small clique starts the process
    edges = [(u, v) for u in range(links + 1) for v in range(links + 1) if u != v]
    ends = [u for u, _ in edges]
    for t in range(links + 1, n):
        targets: set[int] = set()
        while len(targets) < links:
            targets.add(ends[rng.randrange(len(ends))])
        for v in sorted(targets):
            edges.append((t, v))
            edges.append((v, t))
            ends.append(t)
            ends.append(v)
    return edges


def weighted_cascade_lines(n: int, edges: list[tuple[int, int]]) -> list[str]:
    indeg = [0] * n
    for _, v in edges:
        indeg[v] += 1
    return [f"{u} {v} {1.0 / indeg[v]!r}\n" for u, v in edges]


def write_inputs(workload: Workload, seed: int, out: Path) -> dict[str, Path]:
    """Write the graph, catalog and (for supgrd) base allocation files."""
    shape = random.Random(f"{workload.name}/graph")
    if workload.graph == "er":
        edges = er_edges(workload.n, workload.n * workload.degree, shape)
    else:
        edges = pa_edges(workload.n, workload.degree, shape)
    rng = random.Random(f"{workload.name}/{seed}")
    label = list(range(workload.n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in edges]
    rng.shuffle(edges)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"graph": out / "graph.edges", "catalog": out / "catalog.cfg"}
    with open(paths["graph"], "w") as fh:
        fh.writelines(weighted_cascade_lines(workload.n, edges))
    if workload.catalog == "trio_blocking":
        catalog = (Path(__file__).resolve().parent.parent / "configs" / "trio_blocking.cfg").read_text()
    elif workload.catalog == "additive":
        catalog = ADDITIVE_CATALOG
    else:
        catalog = COMPETITION_CATALOG
    paths["catalog"].write_text(catalog)
    if workload.base_per_item:
        nodes = rng.sample(range(workload.n), 2 * workload.base_per_item)
        half = workload.base_per_item
        lines = [f"{v} x\n" for v in nodes[:half]] + [f"{v} y\n" for v in nodes[half:]]
        paths["base"] = out / "base.alloc"
        paths["base"].write_text("".join(lines))
    return paths
