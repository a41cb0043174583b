"""Correctness checks on the program's `allocate` output, made apart from it.

Nothing here imports the program. The edge list and the catalog are read
by this file's own parsers, spread is estimated by its own forward
independent-cascade simulation on its own random stream, and the bounds
follow from the diffusion model: every seed adopts its own item, an
adopter's utility never falls, and only bundles of non-negative utility
are adopted.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass

Z = 4.0  # standard errors allowed between two Monte Carlo estimates


class CheckFailed(AssertionError):
    pass


def read_edges(text: str) -> tuple[int, list[list[tuple[int, float]]]]:
    """Out-adjacency of a "src dst prob" edge list; n is 1 + largest id."""
    edges = []
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if parts:
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    n = 1 + max(max(u, v) for u, v, _ in edges)
    out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, p in edges:
        out[u].append((v, p))
    return n, out


@dataclass(frozen=True)
class Catalog:
    items: tuple[str, ...]
    utility: dict[frozenset, float]  # every non-empty bundle: value - prices


def read_catalog(text: str) -> Catalog:
    """Utilities of all bundles; an unlisted bundle is worth its best
    listed sub-bundle, as the catalog format defines."""
    prices: dict[str, float] = {}
    listed: dict[frozenset, float] = {}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]")
        elif section == "items":
            name, *fields = line.split()
            prices[name] = float(dict(f.split("=", 1) for f in fields)["price"])
        elif section == "valuation":
            lhs, rhs = line.split("=", 1)
            listed[frozenset(t.strip() for t in lhs.split(","))] = float(rhs)
    items = tuple(prices)
    utility = {}
    for mask in range(1, 1 << len(items)):
        bundle = frozenset(it for i, it in enumerate(items) if mask >> i & 1)
        value = max((v for b, v in listed.items() if b <= bundle), default=0.0)
        utility[bundle] = value - sum(prices[it] for it in bundle)
    return Catalog(items, utility)


def single_utility(catalog: Catalog, item: str) -> float:
    return catalog.utility[frozenset([item])]


def additive_where_adopted(catalog: Catalog) -> bool:
    """True when every bundle a node could adopt (utility >= 0) is worth the
    sum of its members' utilities, so welfare = sum_x u({x}) * adopters(x)."""
    return all(
        math.isclose(u, sum(single_utility(catalog, it) for it in b), rel_tol=1e-9, abs_tol=1e-9)
        for b, u in catalog.utility.items()
        if u >= 0.0
    )


def spread(out_adj, seeds, samples: int, rng: random.Random) -> tuple[float, float]:
    """Forward independent-cascade Monte Carlo: mean reach of `seeds` and
    the standard deviation of one sample's reach."""
    seeds = set(seeds)
    reach = []
    for _ in range(samples):
        active = set(seeds)
        stack = list(seeds)
        while stack:
            u = stack.pop()
            for v, p in out_adj[u]:
                if v not in active and rng.random() < p:
                    active.add(v)
                    stack.append(v)
        reach.append(len(active))
    mean = math.fsum(reach) / samples
    var = math.fsum((r - mean) ** 2 for r in reach) / max(1, samples - 1)
    return mean, math.sqrt(var)


@dataclass(frozen=True)
class Output:
    """One row of the program's allocate CSV."""

    adopt: dict[str, float]
    welfare: float
    stderr: float
    pairs: list[tuple[int, str]]


def read_output(text: str) -> Output:
    header, row = list(csv.reader(text.splitlines()))
    rec = dict(zip(header, row))
    adopt = {k[len("adopt_"):]: float(v) for k, v in rec.items() if k.startswith("adopt_")}
    pairs = []
    for chunk in rec["allocation"].split(";"):
        if chunk:
            node, item = chunk.split(":")
            pairs.append((int(node), item))
    return Output(adopt, float(rec["welfare"]), float(rec["stderr"]), pairs)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_allocation(out: Output, budgets: dict[str, int]) -> None:
    counts: dict[str, int] = {}
    for _, item in out.pairs:
        counts[item] = counts.get(item, 0) + 1
    _require(counts == budgets, f"seeds per item {counts} differ from budgets {budgets}")
    _require(len(set(out.pairs)) == len(out.pairs), "a seed is listed twice")
    nodes = [v for v, _ in out.pairs]
    _require(len(set(nodes)) == len(nodes), "a node got two allocated items")


def check_welfare_identity(out: Output, catalog: Catalog) -> None:
    _require(additive_where_adopted(catalog), "catalog has an adoptable non-additive bundle")
    expected = math.fsum(single_utility(catalog, it) * out.adopt[it] for it in catalog.items)
    _require(
        math.isclose(out.welfare, expected, rel_tol=1e-9, abs_tol=1e-9),
        f"welfare {out.welfare} != sum of utility x adopters {expected}",
    )


def check_welfare_ceiling(out: Output, cap: float, out_adj, seeds, samples, rng) -> None:
    """welfare <= cap * sigma(seeds): no adopter is worth more than `cap`,
    and adopters are nodes the seeds reach."""
    sigma, sd = spread(out_adj, seeds, samples, rng)
    bound = cap * (sigma + Z * sd / math.sqrt(samples))
    _require(
        out.welfare - Z * out.stderr <= bound,
        f"welfare {out.welfare} exceeds {cap} x spread {sigma} of all seeds",
    )


def check_seqgrd_er5k(out, budgets, catalog, out_adj, samples, rng) -> None:
    check_allocation(out, budgets)
    check_welfare_identity(out, catalog)
    floor = math.fsum(b * single_utility(catalog, it) for it, b in budgets.items())
    _require(out.welfare >= floor, f"welfare {out.welfare} below sum of b_x u(x) = {floor}")
    for it, b in budgets.items():
        _require(out.adopt[it] >= b, f"adopt_{it} = {out.adopt[it]} below its budget {b}")
    u_max = max(catalog.utility.values())
    check_welfare_ceiling(out, u_max, out_adj, [v for v, _ in out.pairs], samples, rng)


def check_seqgrd_nm(out, budgets, catalog, out_adj, samples, rng, program_samples) -> None:
    check_allocation(out, budgets)
    check_welfare_identity(out, catalog)
    for it in budgets:
        seeds = [v for v, x in out.pairs if x == it]
        sigma, sd = spread(out_adj, seeds, samples, rng)
        tol = Z * sd * math.sqrt(1.0 / samples + 1.0 / program_samples)
        _require(
            abs(out.adopt[it] - sigma) <= tol,
            f"adopt_{it} = {out.adopt[it]} but spread of its seeds is {sigma} +- {tol}",
        )


def check_supgrd(out, budgets, catalog, out_adj, samples, rng, base_pairs) -> None:
    check_allocation(out, budgets)
    check_welfare_identity(out, catalog)
    (sup, b_sup), = budgets.items()
    _require(out.adopt[sup] >= b_sup, f"adopt_{sup} = {out.adopt[sup]} below its budget {b_sup}")
    seeds = {v for v, _ in out.pairs} | {v for v, _ in base_pairs}
    check_welfare_ceiling(out, single_utility(catalog, sup), out_adj, seeds, samples, rng)
