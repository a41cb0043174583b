"""Spans around the program's public functions, installed from outside.

The program has no counters of its own yet, so the benchmark wraps the
functions at each module boundary. A wrapper replaces the function under
every module that imported it by name, records a span (inclusive time,
and self time: inclusive minus the time of child spans) and counts work
from the call's arguments and result. `uninstall` puts the originals back,
so untraced rounds run the program unchanged.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable

from welfaremax import allocators, cli, diffusion, graph, ris, selectors, utility

ALLOCATORS = ("seqgrd", "seqgrd_nm", "maxgrd", "max_seq", "supgrd", "greedy_marginal")


class Spans:
    """Span times and work counters for one traced `allocate` call."""

    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.greedy_sets: list[tuple[int, int]] = []  # (id, size) per greedy call
        self._stack: list[list] = []  # [name, child seconds]

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def call(self, name: str, fn: Callable, args, kwargs, keep_durations: bool):
        self._stack.append([name, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - start
            _, children = self._stack.pop()
            self.self_time[name] += took - children
            if self._stack:
                self._stack[-1][1] += took
            # a span nested in one of its own name is already counted
            if not self.active(name):
                self.inclusive[name] += took
            self.calls[name] += 1
            if keep_durations:
                self.durations[name].append(took)


def _modules():
    return [m for name, m in sys.modules.items() if name.startswith("welfaremax") and m]


class Tracer:
    """Installs wrappers; `spans` collects what the current call records."""

    def __init__(self):
        self.spans = Spans()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_result=None, keep_durations=False):
        def wrapper(*args, **kwargs):
            result = self.spans.call(name, fn, args, kwargs, keep_durations)
            if on_result is not None:
                on_result(self.spans, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(
        self, owner, attr: str, name: str, on_result=None, keep_durations=False, everywhere=True
    ):
        """Wrap `owner.attr`, and the same function under every welfaremax
        module that imported it, unless `everywhere` is false."""
        fn = getattr(owner, attr)
        wrapper = self._wrap(name, fn, on_result, keep_durations)
        for module in _modules() if everywhere else [owner]:
            if getattr(module, attr, None) is fn:
                self._undo.append((module, attr, fn))
                setattr(module, attr, wrapper)

    def patch_classmethod(self, cls, attr: str, name: str, on_result=None):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, classmethod(self._wrap(name, original.__func__, on_result)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install_end_to_end(tracer: Tracer, algo_fn: str) -> None:
    """The few spans the end-to-end metrics need: loaders, the allocator
    and the final estimate, as `allocate` calls them."""
    for loader in ("load_graph_file", "load_catalog_file", "load_allocation_file"):
        tracer.patch_function(cli, loader, "e2e.setup", everywhere=False)
    tracer.patch_function(allocators, algo_fn, "e2e.allocate", everywhere=False)
    tracer.patch_function(cli, "estimate_welfare", "e2e.estimate", everywhere=False)


def _count_edges(spans, args, g):
    spans.counts["graph.edges"] += g.m


def _count_adopters(spans, args, result):
    spans.counts["diffusion.adopters"] += len(result.adoption)


def _count_rr(spans, args, rr):
    spans.counts["ris.rr_members"] += len(rr.members)
    spans.counts["ris.rr_empty"] += rr.empty


def _count_greedy(spans, args, result):
    spans.greedy_sets.append((id(args[0]), len(args[0])))


def _count_marginal(spans, args, result):
    if spans.active("allocators"):
        spans.counts["allocators.marginal_checks"] += 1


def install_layers(tracer: Tracer) -> None:
    """Spans at every module boundary the per-layer metrics read."""
    tracer.patch_function(graph, "load_edge_list", "graph.load", _count_edges)
    tracer.patch_classmethod(diffusion.PossibleWorld, "sample", "diffusion.world")
    tracer.patch_function(diffusion, "simulate", "diffusion.simulate", _count_adopters, True)
    tracer.patch_function(diffusion, "estimate_welfare", "diffusion.mc")
    tracer.patch_function(
        diffusion, "estimate_marginal_welfare", "diffusion.mc", _count_marginal
    )
    for sampler in ("sample_rr", "sample_marginal_rr", "sample_weighted_rr"):
        tracer.patch_function(ris, sampler, "ris.sample", _count_rr, True)
    for greedy in ("node_selection_count", "node_selection_weighted"):
        tracer.patch_function(ris, greedy, "ris.greedy", _count_greedy)
    for sampler in ("prima_plus", "supgrd_sampling"):
        tracer.patch_function(selectors, sampler, "selectors.sampling")
    for alloc in ALLOCATORS:
        tracer.patch_function(allocators, alloc, "allocators")
    tracer.patch_function(utility, "expected_truncated_utility", "utility.expected")


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_counts(spans: Spans) -> dict[str, float]:
    """Work counters of one traced call; they repeat exactly run to run."""
    c = spans.counts
    rr_sets = spans.calls["ris.sample"]
    final_id, final_sets = spans.greedy_sets[-1]
    return {
        "graph.edges": c["graph.edges"],
        "diffusion.worlds": spans.calls["diffusion.world"],
        "diffusion.simulations": spans.calls["diffusion.simulate"],
        "diffusion.adopters": c["diffusion.adopters"],
        "ris.rr_sets": rr_sets,
        "ris.rr_members": c["ris.rr_members"],
        "ris.rr_empty": c["ris.rr_empty"],
        "ris.greedy_calls": spans.calls["ris.greedy"],
        "selectors.search_rounds": sum(1 for sid, _ in spans.greedy_sets if sid != final_id),
        "selectors.final_rr_sets": final_sets,
        "selectors.discarded_rr_sets": rr_sets - final_sets,
        "allocators.marginal_checks": c["allocators.marginal_checks"],
        "utility.expected_calls": spans.calls["utility.expected"],
    }


def layer_times(spans: Spans) -> dict[str, float]:
    """Busy times of one traced call, in seconds."""
    t, s = spans.inclusive, spans.self_time
    return {
        "graph.load_s": t["graph.load"],
        "diffusion.world_s": t["diffusion.world"],
        "diffusion.simulate_s": t["diffusion.simulate"],
        "diffusion.mc_s": t["diffusion.mc"],
        "ris.sample_s": t["ris.sample"],
        "ris.greedy_s": t["ris.greedy"],
        "selectors.sampling_s": t["selectors.sampling"],
        "selectors.self_s": s["selectors.sampling"],
        "allocators.self_s": s["allocators"],
        "utility.expected_s": t["utility.expected"],
    }


def pooled_percentiles(spans_list: list[Spans]) -> dict[str, float]:
    sims = [d for sp in spans_list for d in sp.durations["diffusion.simulate"]]
    rrs = [d for sp in spans_list for d in sp.durations["ris.sample"]]
    return {
        "diffusion.simulate_ms.p50": 1e3 * _percentile(sims, 0.50),
        "diffusion.simulate_ms.p99": 1e3 * _percentile(sims, 0.99),
        "ris.rr_set_us.p50": 1e6 * _percentile(rrs, 0.50),
        "ris.rr_set_us.p99": 1e6 * _percentile(rrs, 0.99),
    }
