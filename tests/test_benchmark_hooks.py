"""The benchmark times the CLI by patching names on its modules
(`benchmarks/tracing.py`). If the CLI stops calling a patched name, the
span reads 0 and the metric looks improved while nothing got faster, or
the benchmark's reduction of the spans fails; these tests fail instead."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from welfaremax import allocators, cli, diffusion, graph, ris, selectors, utility

from conftest import CONFIGS

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where run.py's dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("tracing")


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


def _allocate_argv(tmp_path, algo: str) -> list[str]:
    base = tmp_path / "base.txt"
    base.write_text("5 k\n")
    return [
        "allocate",
        "--graph", str(CONFIGS / "path6.edges"),
        "--catalog", str(CONFIGS / "trio_blocking.cfg"),
        "--algo", algo,
        "--budgets", "i=1,j=1",
        "--base", str(base),
        "--samples", "20",
        "--seed", "1",
        "--out", str(tmp_path / "o.csv"),
    ]


@pytest.mark.parametrize("algo", ["seqgrd", "seqgrd-nm"])  # the benchmarked algorithms
def test_benchmark_spans_see_the_allocate_path(tmp_path, algo):
    tracing = _load_tracing()
    for owner, name in PATCHED:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
    originals = {(owner, name): getattr(owner, name) for owner, name in PATCHED}

    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        tracing.install_end_to_end(tracer, algo.replace("-", "_"))
        code = cli.main(_allocate_argv(tmp_path, algo))
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


@pytest.mark.parametrize("algo", ["seqgrd", "seqgrd-nm"])  # the benchmarked algorithms
def test_traced_rounds_reduce_to_per_layer_metrics(tmp_path, monkeypatch, algo):
    # run.py imports its neighbours (checks, inputs) by name, as when run as a script
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    run, tracing = _load("run"), _load_tracing()
    argv, out = _allocate_argv(tmp_path, algo), tmp_path / "o.csv"
    rounds = [
        run.one_round(cli, tracing, algo.replace("-", "_"), argv, out, traced)
        for traced in (False, True, True)
    ]
    assert all(r.ok for r in rounds)
    untraced, traced, again = rounds
    metrics, repeated = run.per_layer(tracing, [traced], [untraced])
    json.dumps(metrics)  # the benchmark's last line of stdout
    assert repeated
    for name in ("ris.rr_sets", "ris.greedy_calls", "diffusion.simulations"):
        assert metrics[name]["value"] >= 1, name
    # one marginal check per budgeted item (i and j), through the patched name
    assert metrics["allocators.marginal_checks"]["value"] == (2 if algo == "seqgrd" else 0)
    # one `PossibleWorld.sample` call per world drawn, one adopter per adopting (world, node)
    worlds, adopters = (60, 380) if algo == "seqgrd" else (20, 120)
    assert metrics["diffusion.worlds"]["value"] == worlds
    assert metrics["diffusion.adopters"]["value"] == adopters
    assert tracing.layer_counts(traced.spans) == tracing.layer_counts(again.spans)
