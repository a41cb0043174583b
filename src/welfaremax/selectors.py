"""Sample-size schedules and stopping-rule samplers for seed selection.

Two samplers live here. The prefix-preserving selector grows a marginal
RR collection through a doubling search until greedy coverage certifies a
lower bound on the optimal marginal spread, then regenerates a fresh
collection sized by that bound and returns one ordered seed list whose
every budget-length prefix is near-optimal with high probability. The
superior-item sampler does the analogous search on the welfare scale over
weighted RR sets and returns the final fresh collection.

Natural logarithms throughout; one base has to be fixed for
reproducibility and the guarantees are base-robust up to constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from welfaremax.diffusion import Allocation
from welfaremax.graph import Graph
from welfaremax.ris import (
    RRCollection,
    expected_item_utilities,
    node_selection_count,
    node_selection_weighted,
    sample_marginal_rr,
    sample_weighted_rr,
)
from welfaremax.utility import (
    ItemCatalog,
    is_pure_competition,
    superior_item,
)

Trace = Optional[Callable[[str], None]]


class SelectorError(ValueError):
    pass


def _log_binom(n: int, k: int) -> float:
    if k < 0 or k > n:
        raise SelectorError(f"binomial C({n}, {k}) undefined")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def lambda_prime(n: int, k: int, eps_prime: float, ell_prime: float, rounds: float) -> float:
    """Sample-size scale for the statistical test phase; `rounds` is the
    number of search iterations the failure probability is split over."""
    if not 1 <= k <= n:
        raise SelectorError(f"budget {k} outside [1, {n}]")
    return (
        (2.0 + 2.0 / 3.0 * eps_prime)
        * (_log_binom(n, k) + ell_prime * math.log(n) + math.log(rounds))
        * n
        / (eps_prime * eps_prime)
    )


def lambda_star(n: int, k: int, eps: float, ell_prime: float) -> float:
    """Sample-size scale for the final selection phase."""
    if not 1 <= k <= n:
        raise SelectorError(f"budget {k} outside [1, {n}]")
    alpha = math.sqrt(ell_prime * math.log(n) + math.log(2.0))
    beta = math.sqrt(
        (1.0 - 1.0 / math.e)
        * (_log_binom(n, k) + ell_prime * math.log(n) + math.log(2.0))
    )
    return 2.0 * n * ((1.0 - 1.0 / math.e) * alpha + beta) ** 2 / (eps * eps)


@dataclass(frozen=True)
class SamplerParams:
    """Accuracy/confidence knobs and the derived schedule constants."""

    n: int
    eps: float
    ell: float
    budgets: tuple[int, ...]  # ascending, b_max included

    def __post_init__(self):
        if self.n < 2:
            raise SelectorError("need at least 2 nodes")
        if not 0.0 < self.eps < 1.0:
            raise SelectorError("eps must lie in (0, 1)")
        if self.ell <= 0.0:
            raise SelectorError("ell must be positive")
        if not self.budgets or list(self.budgets) != sorted(set(self.budgets)):
            raise SelectorError("budgets must be non-empty, ascending, distinct")
        if self.budgets[0] < 1:
            raise SelectorError("budgets must be positive")

    @property
    def eps_prime(self) -> float:
        return math.sqrt(2.0) * self.eps

    @property
    def ell_hat(self) -> float:
        # absorbs the union bound over the two sampler phases
        return self.ell + math.log(2.0) / math.log(self.n)

    @property
    def ell_prime(self) -> float:
        # and over the budget vector
        return self.ell_hat + math.log(len(self.budgets)) / math.log(self.n)

    @property
    def b_max(self) -> int:
        return self.budgets[-1]


def prima_plus(
    graph: Graph,
    eps: float,
    ell: float,
    fixed_seeds: Iterable[int],
    budgets: Iterable[int],
    b_max: int,
    rng,
    trace: Trace = None,
) -> list[int]:
    """Prefix-preserving marginal seed selection.

    Returns an ordered list of b_max nodes disjoint from `fixed_seeds`
    such that, with probability at least 1 - 1/n^ell, the length-b prefix
    is a (1 - 1/e - eps)-approximation of the optimal marginal spread over
    the fixed seeds, simultaneously for every budget b in `budgets`.
    """
    fixed = frozenset(int(v) for v in fixed_seeds)
    n = graph.n
    budgets = sorted(set(int(b) for b in budgets) | {int(b_max)})
    if budgets[-1] != b_max:
        raise SelectorError("budgets may not exceed b_max")
    if b_max > n - len(fixed):
        raise SelectorError(
            f"b_max={b_max} infeasible with {len(fixed)} fixed seeds on {n} nodes"
        )
    params = SamplerParams(n, eps, ell, tuple(budgets))
    epsp = params.eps_prime
    ellp = params.ell_prime
    emit = trace or (lambda line: None)

    coll = RRCollection(n)
    s_idx = 0
    i = 1
    i_max = math.log2(n) - 1.0
    budget_switch = False
    prev_order: Optional[list[int]] = None
    theta_k: Optional[int] = None
    lb = 1.0
    while i <= i_max + 1e-12 and s_idx < len(budgets):
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
        prefix = order[:k]
        cov = coll.coverage_fraction(prefix)
        estimate = n * cov
        if estimate >= (1.0 + epsp) * x:
            lb = estimate / (1.0 + epsp)
            theta_k = math.ceil(lambda_star(n, k, eps, ellp) / lb)
            while len(coll) < theta_k:
                coll.add(sample_marginal_rr(graph, fixed, rng))
            emit(
                f"phase=certify i={i} s={s_idx} k={k} theta={len(coll)} "
                f"cov={cov:.6g} lb={lb:.6g}"
            )
            s_idx += 1
            budget_switch = True
        else:
            emit(
                f"phase=search i={i} s={s_idx} k={k} theta={len(coll)} "
                f"cov={cov:.6g} lb={lb:.6g}"
            )
            i += 1
            budget_switch = False
    if s_idx < len(budgets):
        # doubling search stalled; fall back to the trivial lower bound
        theta_k = math.ceil(lambda_star(n, budgets[s_idx], eps, ellp) / lb)
    fresh = RRCollection(n)
    while len(fresh) < theta_k:
        fresh.add(sample_marginal_rr(graph, fixed, rng))
    order, fractions = node_selection_count(fresh, b_max, excluded=fixed)
    emit(
        f"phase=final i={i} s={s_idx} theta={len(fresh)} "
        f"cov={fractions[-1]:.6g} lb={lb:.6g}"
    )
    return order


def check_superior_instance(
    catalog: ItemCatalog, base_allocation: Allocation, superior: str
) -> None:
    """Raise unless the superior-item selector's conditions hold.

    Needs: a superior item matching `superior`, a pure-competition catalog,
    and a base allocation covering exactly the inferior items.
    """
    found = superior_item(catalog)
    if found is None:
        raise SelectorError("no superior item: some item must dominate all others' noise ranges")
    if found != superior:
        raise SelectorError(f"superior item is {found!r}, not {superior!r}")
    if not is_pure_competition(catalog):
        raise SelectorError("catalog is not pure competition: a bundle beats a constituent")
    inferior = set(catalog.items) - {superior}
    covered = base_allocation.items()
    if covered != inferior:
        raise SelectorError(
            f"base allocation must cover exactly the inferior items {sorted(inferior)}, "
            f"it covers {sorted(covered)}"
        )


def supgrd_sampling(
    graph: Graph,
    catalog: ItemCatalog,
    base_allocation: Allocation,
    superior: str,
    b_prime: int,
    eps: float,
    ell: float,
    rng,
    trace: Trace = None,
) -> RRCollection:
    """Weighted RR collection sized for near-optimal welfare selection.

    Runs the geometric search for a welfare lower bound over x in
    [1, UB], UB = n * E[U+(superior)], then discards everything and
    returns a fresh collection of ceil(lambda / LB) weighted RR sets.
    """
    check_superior_instance(catalog, base_allocation, superior)
    n = graph.n
    params = SamplerParams(n, eps, ell, (b_prime,))
    epsp = params.eps_prime
    ell_hat = params.ell_hat
    emit = trace or (lambda line: None)
    item_utils = expected_item_utilities(catalog, rng=rng)
    u_sup = item_utils[superior]
    if u_sup <= 0.0:
        raise SelectorError("superior item has zero expected truncated utility")
    ub = n * u_sup
    rounds = max(1, math.ceil(math.log2(ub))) if ub > 1.0 else 1
    # union bound over the search iterations: delta = 1 / (n^ell_hat * rounds)
    lam_prime = lambda_prime(n, b_prime, epsp, ell_hat, rounds)
    coll = RRCollection(n)
    lb = 1.0
    i = 1
    i_max = math.log2(ub) - 1.0 if ub > 1.0 else 0.0
    while i <= i_max + 1e-12:  # x spans [1, UB] geometrically
        x = ub / 2.0**i
        theta_i = math.ceil(lam_prime / x)
        while len(coll) < theta_i:
            coll.add(
                sample_weighted_rr(graph, base_allocation, superior, catalog, rng, item_utils)
            )
        _, totals = node_selection_weighted(coll, b_prime)
        estimate = n * totals[-1] / len(coll)
        if estimate >= (1.0 + epsp) * x:
            lb = estimate / (1.0 + epsp)
            emit(f"phase=certify i={i} theta={len(coll)} mcov={totals[-1]:.6g} lb={lb:.6g}")
            break
        emit(f"phase=search i={i} theta={len(coll)} mcov={totals[-1]:.6g} lb={lb:.6g}")
        i += 1
    theta = math.ceil(lambda_star(n, b_prime, eps, ell_hat) / lb)
    fresh = RRCollection(n)
    while len(fresh) < theta:
        fresh.add(
            sample_weighted_rr(graph, base_allocation, superior, catalog, rng, item_utils)
        )
    emit(f"phase=final i={i} theta={len(fresh)} lb={lb:.6g}")
    return fresh
