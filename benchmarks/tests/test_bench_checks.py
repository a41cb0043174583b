"""Tests of the benchmark's own correctness checks.

    python3 -m pytest benchmarks/tests -q

The independent spread estimator must agree with the program's exact
oracle on tiny graphs, each workload's checks must accept the program's
real output on a small instance, and they must reject that output when
it is corrupted.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from inputs import WORKLOADS, write_inputs  # noqa: E402
from welfaremax import cli  # noqa: E402
from welfaremax.graph import load_edge_list  # noqa: E402
from welfaremax.oracle import exact_spread  # noqa: E402

CONFIGS = BENCH.parent / "configs"


def _random_tiny_graph(seed: int) -> str:
    rng = random.Random(seed)
    pairs = rng.sample([(u, v) for u in range(6) for v in range(6) if u != v], 12)
    return "".join(f"{u} {v} {rng.uniform(0.1, 0.9)!r}\n" for u, v in pairs)


@pytest.mark.parametrize(
    "text, seeds",
    [
        ((CONFIGS / "fork4.edges").read_text(), [0]),
        ((CONFIGS / "path6.edges").read_text(), [0, 3]),
        ((CONFIGS / "edge_pair.edges").read_text(), [0]),
        (_random_tiny_graph(1), [0]),
        (_random_tiny_graph(2), [1, 4]),
        (_random_tiny_graph(3), [2, 3, 5]),
    ],
)
def test_spread_estimator_matches_exact_oracle(text, seeds):
    _, out_adj = checks.read_edges(text)
    exact = exact_spread(load_edge_list(text.splitlines()), seeds)
    samples = 20_000
    mean, sd = checks.spread(out_adj, seeds, samples, random.Random(7))
    assert abs(mean - exact) <= checks.Z * sd / samples**0.5 + 1e-12


def test_catalog_reader_completes_unlisted_bundles():
    cat = checks.read_catalog((CONFIGS / "trio_blocking.cfg").read_text())
    assert cat.utility[frozenset("ik")] == pytest.approx(2.1)
    assert checks.additive_where_adopted(cat)
    comp = checks.read_catalog(
        "[items]\ns price=1\nx price=1\n[valuation]\ns = 3\nx = 2\n"
    )
    assert comp.utility[frozenset("sx")] == 1.0  # worth its best member, minus both prices
    assert not checks.additive_where_adopted(comp)


SMALL = {
    "seqgrd-er5k": dict(n=400, degree=3, budgets={"i": 2, "j": 2, "k": 2}, samples=200),
    "seqgrd-nm-pa50k": dict(n=400, degree=2, budgets={"a": 2, "b": 2, "c": 3}, samples=200),
    "supgrd-pa50k": dict(n=400, degree=2, budgets={"s": 3}, samples=200, base_per_item=3),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def small_run(request, tmp_path_factory):
    """A small instance of one workload and the program's real CSV for it."""
    workload = dataclasses.replace(WORKLOADS[request.param], **SMALL[request.param])
    work = tmp_path_factory.mktemp(request.param)
    paths = write_inputs(workload, 3, work)
    out = work / "result.csv"
    assert cli.main(run.allocate_argv(workload, paths, 3, out)) == 0
    return workload, paths, out.read_text()


def _corrupt(csv_text: str, how: str) -> str:
    header, row = csv_text.splitlines()
    fields = row.split(",")
    pairs = fields[-1].split(";")
    if how == "budget_off_by_one":
        pairs = pairs[:-1]
    elif how == "duplicated_seed":
        node = pairs[0].split(":")[0]
        pairs[1] = node + ":" + pairs[1].split(":")[1]
    elif how == "welfare_times_1.5":
        col = header.split(",").index("welfare")
        fields[col] = repr(1.5 * float(fields[col]))
    fields[-1] = ";".join(pairs)
    return header + "\n" + ",".join(fields) + "\n"


def test_checks_accept_program_output(small_run):
    workload, paths, csv_text = small_run
    run.check_output(workload, 3, paths, csv_text)


@pytest.mark.parametrize("how", ["budget_off_by_one", "duplicated_seed", "welfare_times_1.5"])
def test_checks_reject_corrupted_output(small_run, how):
    workload, paths, csv_text = small_run
    with pytest.raises(checks.CheckFailed):
        run.check_output(workload, 3, paths, _corrupt(csv_text, how))
