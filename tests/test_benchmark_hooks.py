"""The benchmark times the CLI by patching names on its modules
(`benchmarks/tracing.py`). If the CLI stops calling a patched name, the
span reads 0 and the metric looks improved while nothing got faster; these
tests fail instead."""

import importlib.util
from pathlib import Path

import pytest

from welfaremax import allocators, cli, diffusion, graph, ris, selectors, utility

from conftest import CONFIGS

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHED = [
    (cli, "load_graph_file"),
    (cli, "load_catalog_file"),
    (cli, "load_allocation_file"),
    (cli, "estimate_welfare"),
    (graph, "load_edge_list"),
    (allocators, "seqgrd"),
    (allocators, "seqgrd_nm"),
    (ris, "sample_rr"),
    (selectors, "prima_plus"),
    (selectors, "supgrd_sampling"),
    (diffusion, "estimate_marginal_welfare"),
    (utility, "expected_truncated_utility"),
]


@pytest.mark.parametrize("algo", ["seqgrd", "seqgrd-nm"])  # the benchmarked algorithms
def test_benchmark_spans_see_the_allocate_path(tmp_path, algo):
    tracing = _load_tracing()
    for owner, name in PATCHED:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
    originals = {(owner, name): getattr(owner, name) for owner, name in PATCHED}

    base = tmp_path / "base.txt"
    base.write_text("5 k\n")
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        tracing.install_end_to_end(tracer, algo.replace("-", "_"))
        code = cli.main([
            "allocate",
            "--graph", str(CONFIGS / "path6.edges"),
            "--catalog", str(CONFIGS / "trio_blocking.cfg"),
            "--algo", algo,
            "--budgets", "i=1,j=1",
            "--base", str(base),
            "--samples", "20",
            "--seed", "1",
            "--out", str(tmp_path / "o.csv"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = tracer.spans.calls
    for span in ("e2e.setup", "e2e.allocate", "e2e.estimate"):
        assert calls[span] >= 1, span
    assert calls["graph.load"] == 1  # the loader behind `graph.load_s`
    assert calls["selectors.sampling"] >= 1 and calls["ris.sample"] >= 1
    assert calls["utility.expected"] >= 1  # behind `utility.expected_calls`
    for owner, name in PATCHED:
        assert getattr(owner, name) is originals[(owner, name)], f"{owner.__name__}.{name}"
