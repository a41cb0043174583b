"""Sample-size schedules and stopping-rule samplers for seed selection.

Two samplers live here, and both run one doubling search. It grows an RR
collection until a greedy estimate certifies a lower bound on the optimum,
budget by budget, then draws a fresh collection sized for the budget whose
bound asks for the most sets. A budget that follows a certified one is
first tested once on the sets already drawn, at the largest earlier x whose
size they meet, and draws only if that test fails. The
prefix-preserving selector searches on the spread scale over marginal RR
sets and returns one ordered seed list whose every budget-length prefix is
near-optimal with high probability. The superior-item sampler searches on
the welfare scale over weighted RR sets, with one budget, and returns the
fresh collection.

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
    node_selection_count,
    node_selection_weighted,
    sample_marginal_rr,
    sample_weighted_rr,
)
from welfaremax.utility import (
    ItemCatalog,
    expected_item_utilities,
    is_pure_competition,
    superior_item,
)

Trace = Optional[Callable[[str], None]]

MAX_RR_SETS = 10_000_000  # most RR sets one planned collection may hold


class SelectorError(ValueError):
    pass


class RRLimitError(ValueError):
    """A planned RR collection larger than `MAX_RR_SETS`."""


def _planned(size: float) -> float:
    """ceil(size), or an inf or nan size as it is, which `_check_plan` refuses."""
    return math.ceil(size) if math.isfinite(size) else size


def _check_plan(theta: float) -> None:
    if not theta <= MAX_RR_SETS:
        raise RRLimitError(f"planned {theta} RR sets, cap is {MAX_RR_SETS}")


def _over_eps_squared(x: float, eps: float) -> float:
    """x / eps^2, or inf where eps^2 underflows to zero."""
    eps2 = eps * eps
    return x / eps2 if eps2 else math.inf


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def lambda_prime(n: int, k: int, eps_prime: float, ell_prime: float, rounds: float) -> float:
    """Sample-size scale for the statistical test phase; `rounds` is the
    number of search iterations the failure probability is split over."""
    if not 1 <= k <= n:
        raise SelectorError(f"budget {k} outside [1, {n}]")
    return _over_eps_squared(
        (2.0 + 2.0 / 3.0 * eps_prime)
        * (_log_binom(n, k) + ell_prime * math.log(n) + math.log(rounds))
        * n,
        eps_prime,
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
    return _over_eps_squared(2.0 * n * ((1.0 - 1.0 / math.e) * alpha + beta) ** 2, eps)


def check_accuracy(eps: float, ell: float) -> None:
    """Raise unless eps lies in (0, 1) and ell is positive and finite."""
    if not 0.0 < eps < 1.0:
        raise SelectorError("eps must lie in (0, 1)")
    if not 0.0 < ell < math.inf:  # nan fails too
        raise SelectorError(f"ell must be positive and finite, got {ell}")


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
        check_accuracy(self.eps, self.ell)
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


def _doubling_search(
    params: SamplerParams,
    scale: float,
    rounds: float,
    sample: Callable[[int], RRCollection],
    estimate: Callable[[RRCollection, int, int], float],
    trace: Trace,
) -> RRCollection:
    """The stopping-rule search of IMM (Tang, Shi and Xiao, SIGMOD 2015),
    over every budget in turn; returns a fresh final collection.

    At x_i = scale / 2^i the search collection grows to ceil(lambda'(k) / x_i)
    sets and budget k is tested: it certifies when `estimate(coll, k, i)`
    reaches (1 + eps') x_i, with lower bound LB = estimate / (1 + eps'), and
    the next budget is tested at the same x on at least ceil(lambda*(k) / LB)
    sets (the floor); otherwise x halves. Each growth draws its missing sets
    with one `sample(count)` call.

    A budget that would have to grow the collection at the x_i where the one
    before it certified is first tested once, draw-free, at the largest
    j < i whose plan the held collection already meets: lambda'(k) / x_j and
    the floor. The estimate is the same for every such j, and x_j is the
    lowest threshold among them, so one test suffices. If est reaches
    (1 + eps') x_j the budget certifies with LB = est / (1 + eps'); if not,
    the search goes on at x_i as if the test had not run. This is sound
    because IMM's bound at each x holds for every size-k set at once (the
    ln C(n, k) in lambda'), so the tested set may come from any collection,
    as it already does when a budget is tested at the x where an earlier
    one certified, on a collection grown past lambda'(k) / x. Each budget
    is tested at distinct x values only, at most `rounds` of them, which is
    what the failure probability is split over.

    The fresh collection holds the largest ceil(lambda*(k) / LB_k) over the
    budgets, with LB = 1 for each budget that did not certify, so every
    budget's prefix keeps its guarantee. Of the budgets a stalled search
    leaves, b_max asks for the most whenever b_max <= n / 2, as lambda*
    grows with k up to n / 2. Each planned size is checked against
    `MAX_RR_SETS` before any set of it is drawn, and before it is rounded
    up: an inf or nan plan fails too.
    """
    n, budgets, eps = params.n, params.budgets, params.eps
    epsp, ellp = params.eps_prime, params.ell_prime
    emit = trace or (lambda line: None)
    coll = RRCollection(n)
    s_idx, i, floor, follows_certify = 0, 1, 0.0, False
    plans = []  # (fresh size, budget, LB) for each certified budget
    while i <= math.log2(scale) - 1.0 + 1e-12 and s_idx < len(budgets):
        k = budgets[s_idx]
        lam = lambda_prime(n, k, epsp, ellp, rounds)
        theta = _planned(max(lam / (scale / 2.0**i), floor))
        _check_plan(theta)
        j = i  # the round tested: i, or an earlier one whose plan the held sets meet
        if follows_certify and len(coll) < theta:
            met = (h for h in range(1, i) if len(coll) >= max(lam / (scale / 2.0**h), floor))
            j = max(met, default=i)
        if j == i and len(coll) < theta:
            coll.extend(sample(theta - len(coll)))
        est = estimate(coll, k, i)
        certified = follows_certify = est >= (1.0 + epsp) * (scale / 2.0**j)
        lb = est / (1.0 + epsp) if certified else 1.0
        phase = "held" if j < i else "certify" if certified else "search"
        emit(
            f"phase={phase} i={j} s={s_idx} k={k} "
            f"theta={len(coll)} est={est:.6g} lb={lb:.6g}"
        )
        if certified:
            floor = lambda_star(n, k, eps, ellp) / lb
            plans.append((_planned(floor), k, lb))
            s_idx += 1
        elif j == i:
            i += 1
    # stalled: every budget that did not certify, at LB = 1
    plans += [(_planned(lambda_star(n, k, eps, ellp)), k, 1.0) for k in budgets[s_idx:]]
    theta, k, lb = max(plans, key=lambda plan: plan[0])  # the first of equal sizes
    # announced before the draw, which is long when the search stalled
    emit(f"phase=final i={i} s={s_idx} k={k} theta={theta} lb={lb:.6g}")
    _check_plan(theta)
    # drawn while `coll` lives: benchmarks/tracing.py tells them apart by id()
    return sample(theta)


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
    # per x, the greedy's order, prefix fractions and the sets it ran on;
    # budgets certified at one x share them
    greedy: dict[int, tuple[list[int], list[float], int]] = {}

    def estimate(coll: RRCollection, k: int, i: int) -> float:
        if i not in greedy:
            greedy[i] = (*node_selection_count(coll, b_max, excluded=fixed), len(coll))
        order, fractions, held = greedy[i]
        if len(coll) == held:  # the same count over the same sets as a coverage test
            return n * fractions[k - 1]
        return n * coll.coverage_fraction(order[:k])

    def sample(count: int) -> RRCollection:
        return sample_marginal_rr(graph, fixed, count, rng)

    fresh = _doubling_search(params, n, math.log2(n), sample, estimate, trace)
    order, _ = node_selection_count(fresh, b_max, excluded=fixed)
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

    Runs the doubling search for a welfare lower bound LB over x in
    [1, UB], UB = n * E[U+(superior)], with one budget, and returns the
    fresh collection of ceil(lambda* / LB) weighted RR sets.
    """
    check_superior_instance(catalog, base_allocation, superior)
    n = graph.n
    params = SamplerParams(n, eps, ell, (b_prime,))
    item_utils = expected_item_utilities(catalog, rng=rng)
    u_sup = item_utils[superior]
    if u_sup <= 0.0:
        raise SelectorError("superior item has zero expected truncated utility")
    ub = n * u_sup

    def estimate(coll: RRCollection, k: int, i: int) -> float:
        _, totals = node_selection_weighted(coll, k)
        return n * totals[-1] / len(coll)

    def sample(count: int) -> RRCollection:
        return sample_weighted_rr(graph, base_allocation, superior, catalog, count, rng, item_utils)

    return _doubling_search(params, ub, max(1, math.ceil(math.log2(ub))), sample, estimate, trace)
