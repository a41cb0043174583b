"""Seeded benchmark of the welfaremax `allocate` path.

    python3 benchmarks/run.py --workload seqgrd-er5k --seed 1 --seconds 60 --trace 0

Writes the workload's inputs from --seed, then repeats whole `allocate`
rounds in this process (load files, run the allocator, estimate welfare
by Monte Carlo, write the CSV) through `welfaremax.cli.main` until the
next round would end past --seconds. Every round runs the same inputs
and seeds, so its CSV must repeat byte for byte. The first CSV is then
checked with `checks.py`, which does not use the program.

--trace 0 reports end-to-end times per round, averaged over the rounds.
--trace 1 alternates untraced and traced rounds, reports per-layer
metrics from the traced ones, and the difference in round time as the
tracing overhead. The last line of stdout is one JSON object. See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

os.environ.setdefault("OMP_NUM_THREADS", "1")  # one thread, before numpy loads

import checks  # noqa: E402  (this directory is on the path; the program is not yet)
from inputs import WORKLOADS, write_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def allocate_argv(workload, paths, seed: int, out: Path) -> list[str]:
    argv = [
        "allocate",
        "--graph", str(paths["graph"]),
        "--catalog", str(paths["catalog"]),
        "--algo", workload.algo,
        "--budgets", ",".join(f"{it}={b}" for it, b in workload.budgets.items()),
        "--samples", str(workload.samples),
        "--seed", str(seed),
        "--out", str(out),
    ]
    if "base" in paths:
        argv += ["--base", str(paths["base"])]
    return argv


@dataclass
class Round:
    traced: bool
    ok: bool
    total_s: float
    spans: object
    csv_text: str | None


def one_round(cli, tracing, algo_fn: str, argv: list[str], out: Path, traced: bool) -> Round:
    tracer = tracing.Tracer()
    if traced:
        tracing.install_layers(tracer)
    tracing.install_end_to_end(tracer, algo_fn)
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        ok = cli.main(argv) == 0
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        ok = False
    finally:
        total = time.perf_counter() - start
        tracer.uninstall()
    print(f"round traced={int(traced)} ok={int(ok)} total_s={total:.4f}", file=sys.stderr)
    return Round(traced, ok, total, tracer.spans, out.read_text() if ok else None)


def run_rounds(run_round, seconds: float, traced_too: bool) -> list[Round]:
    """Whole cycles (one round, or an untraced and a traced one) until the
    next cycle would end past the deadline; at least one cycle."""
    kinds = (False, True) if traced_too else (False,)
    deadline = time.perf_counter() + seconds
    rounds: list[Round] = []
    cycles: list[float] = []
    while True:
        start = time.perf_counter()
        rounds.extend(run_round(traced) for traced in kinds)
        cycles.append(time.perf_counter() - start)
        if time.perf_counter() + max(cycles) > deadline:
            return rounds


def check_output(workload, seed: int, paths, csv_text: str) -> None:
    _, out_adj = checks.read_edges(paths["graph"].read_text())
    catalog = checks.read_catalog(paths["catalog"].read_text())
    out = checks.read_output(csv_text)
    rng = random.Random(f"check/{workload.name}/{seed}")
    samples = workload.check_samples
    if workload.name == "seqgrd-er5k":
        checks.check_seqgrd_er5k(out, workload.budgets, catalog, out_adj, samples, rng)
    elif workload.name == "seqgrd-nm-pa50k":
        checks.check_seqgrd_nm(
            out, workload.budgets, catalog, out_adj, samples, rng, workload.samples
        )
    elif workload.name == "supgrd-pa50k":
        base = [line.split() for line in paths["base"].read_text().splitlines()]
        base = [(int(v), it) for v, it in base]
        checks.check_supgrd(out, workload.budgets, catalog, out_adj, samples, rng, base)
    else:
        raise ValueError(f"no checks for workload {workload.name!r}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[Round], csv_text: str) -> dict:
    """Times are means over the rounds, except set-up, which is their
    median. The machine alternates between fast and slow periods of tens
    of seconds; a mean over the whole run averages them, where a median of
    a few rounds picks one of them. Set-up time is compared between
    commits by its median across runs, and a median over the rounds keeps
    one slow load from moving it."""

    def mean(span: str) -> float:
        return statistics.fmean(r.spans.inclusive[span] for r in rounds)

    return {
        "setup_s": metric(statistics.median(r.spans.inclusive["e2e.setup"] for r in rounds), "s"),
        "allocate_s": metric(mean("e2e.allocate"), "s"),
        "estimate_s": metric(mean("e2e.estimate"), "s"),
        "total_s": metric(statistics.fmean(r.total_s for r in rounds), "s"),
        "welfare": metric(checks.read_output(csv_text).welfare, "utility"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracing, traced: list[Round], untraced: list[Round]) -> tuple[dict, bool]:
    """Per-layer metrics, and whether the work counters repeated exactly
    in every traced round (same inputs, same seeds)."""
    counts = [tracing.layer_counts(r.spans) for r in traced]
    repeated = all(c == counts[0] for c in counts)
    times = [tracing.layer_times(r.spans) for r in traced]
    out = {name: metric(value, "count") for name, value in counts[0].items()}
    for name in times[0]:
        out[name] = metric(statistics.fmean(t[name] for t in times), "s")
    for name, value in tracing.pooled_percentiles([r.spans for r in traced]).items():
        out[name] = metric(value, "ms" if "_ms." in name else "us")
    rr_sets = counts[0]["ris.rr_sets"]
    out["ris.useful_ratio"] = metric((rr_sets - counts[0]["ris.rr_empty"]) / rr_sets, "ratio")
    out["diffusion.sims_per_s"] = metric(
        counts[0]["diffusion.simulations"] / out["diffusion.mc_s"]["value"], "1/s"
    )
    plain = statistics.fmean(r.total_s for r in untraced)
    overhead = statistics.fmean(r.total_s for r in traced) - plain
    out["trace.overhead_s"] = metric(overhead, "s")
    out["trace.overhead_pct"] = metric(100.0 * overhead / plain, "%")
    return out, repeated


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "welfaremax" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from welfaremax import cli

    import tracing

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    algo_fn = workload.algo.replace("-", "_")
    work = HERE / "_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        paths = write_inputs(workload, args.seed, work)
        out = work / "result.csv"
        argv_ = allocate_argv(workload, paths, args.seed, out)
        rounds = run_rounds(
            lambda traced: one_round(cli, tracing, algo_fn, argv_, out, traced),
            args.seconds,
            bool(args.trace),
        )
        done = [r for r in rounds if r.ok]
        failed = len(rounds) - len(done)
        if not done:
            print(json.dumps({"correct": False, "attempted": len(rounds), "failed": failed,
                              "metrics": {}}))
            return 1
        untraced = [r for r in done if not r.traced]
        correct = True
        if args.trace:
            metrics, repeated = per_layer(tracing, [r for r in done if r.traced], untraced)
            if not repeated:
                print("check failed: work counters differ between rounds", file=sys.stderr)
                correct = False
        else:
            metrics = end_to_end(untraced, done[0].csv_text)
        if any(r.csv_text != done[0].csv_text for r in done):
            print("check failed: CSV differs between rounds of one seed", file=sys.stderr)
            correct = False
        try:
            check_output(workload, args.seed, paths, done[0].csv_text)
        except AssertionError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(rounds), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
