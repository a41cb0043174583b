"""Experiment runner.

Subcommands: allocate, estimate, compare, oracle, convert-utilities,
validate-config, rr-stats. Results go to CSV with a fixed header and
17-significant-digit floats so identical seeds give byte-identical
output; wall times are logged to stderr, never to the CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path
from typing import Optional, Sequence, TextIO

from welfaremax import allocators
from welfaremax.diffusion import MAX_SIM_ITEMS, Allocation, estimate_welfare
from welfaremax.graph import EdgeListError, Graph, load_edge_list
from welfaremax.oracle import MAX_EDGES, OracleLimitError, WelfareOracle
from welfaremax.ris import RISError, sample_marginal_rr
from welfaremax.rng import derive_rng, derive_seed
from welfaremax.selectors import RRLimitError
from welfaremax.utility import (
    CatalogError,
    ItemCatalog,
    load_catalog_config,
    utilities_from_probabilities,
    validate,
)

class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class ResultRecord:
    algorithm: str
    allocation: Allocation
    welfare: float
    stderr: float
    adoption: dict[str, float]
    wall_time: float


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_alloc(alloc: Allocation) -> str:
    return ";".join(f"{n}:{i}" for n, i in alloc.sorted_pairs())


def _open(path: str, flag: str, mode: str = "w"):
    try:
        return open(path, mode, newline="")
    except OSError as exc:
        raise CliError(2, f"cannot open {flag} {path}: {exc.strerror}") from exc


@contextmanager
def _output(path: Optional[str]):
    """Stdout if no path; else a buffer written to `path` once the command
    completes, so a failed run leaves an existing file as it was and
    removes one that only its path check created."""
    if not path:
        yield sys.stdout
        return
    created = not os.path.lexists(path)
    _open(path, "--out", "a").close()  # a bad path fails before any work
    buffer = io.StringIO()
    try:
        yield buffer
    except BaseException:
        if created:
            os.remove(path)
        raise
    with _open(path, "--out") as stream:
        stream.write(buffer.getvalue())


def _existing(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(2, f"{what} not found: {path}")
    return p


def _read_lines(path: str, what: str) -> list[str]:
    try:
        return _existing(path, what).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise CliError(2, f"bad {what} {path}: {exc}") from exc


def load_graph_file(path: str, undirected: bool = False, compact_ids: bool = False) -> Graph:
    try:
        return load_edge_list(_existing(path, "graph"), undirected, compact_ids)
    except (EdgeListError, UnicodeDecodeError) as exc:
        raise CliError(2, f"bad graph {path}: {exc}") from exc


def load_catalog_file(path: str):
    lines = _read_lines(path, "catalog")
    try:
        return load_catalog_config(lines)
    except CatalogError as exc:
        raise CliError(2, f"bad catalog {path}: {exc}") from exc


def _simulated_catalog(path: str):
    """The catalog config at `path`, for a command that simulates it: at
    most `MAX_SIM_ITEMS` items."""
    cfg = load_catalog_file(path)
    if cfg.catalog.m > MAX_SIM_ITEMS:
        raise CliError(
            2, f"catalog {path}: {cfg.catalog.m} items; simulation takes at most {MAX_SIM_ITEMS}"
        )
    return cfg


def load_allocation_file(path: str, catalog: ItemCatalog, n: int) -> Allocation:
    pairs = []
    for lineno, raw in enumerate(_read_lines(path, "allocation"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CliError(2, f"allocation line {lineno}: expected 'node item'")
        try:
            node = int(parts[0])
        except ValueError:
            raise CliError(2, f"allocation line {lineno}: bad node id {parts[0]!r}") from None
        if not 0 <= node < n:
            raise CliError(2, f"allocation line {lineno}: node {node} outside [0, {n})")
        if parts[1] not in catalog.index:
            raise CliError(2, f"allocation line {lineno}: unknown item {parts[1]!r}")
        pairs.append((node, parts[1]))
    return Allocation.of(pairs)


def parse_budgets(text: str, catalog: ItemCatalog) -> dict[str, int]:
    budgets = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise CliError(2, f"budget {chunk!r}: expected item=count")
        item, count = chunk.split("=", 1)
        item = item.strip()
        if item not in catalog.index:
            raise CliError(2, f"budget for unknown item {item!r}")
        if item in budgets:
            raise CliError(2, f"duplicate budget for {item!r}")
        try:
            budgets[item] = int(count)
        except ValueError:
            raise CliError(2, f"budget for {item!r} must be an integer") from None
        if budgets[item] < 0:
            raise CliError(2, f"budget for {item!r} must be non-negative")
    if not budgets:
        raise CliError(2, "empty budget list")
    return budgets


class _TraceWriter:
    def __init__(self, path: Optional[str]):
        self._fh = None
        if path == "-":
            self._fh = sys.stderr
        elif path:
            self._fh = _open(path, "--trace")

    def __call__(self, line: str) -> None:
        if self._fh is not None:
            self._fh.write(line + "\n")

    def close(self) -> None:
        if self._fh not in (None, sys.stderr):
            self._fh.close()


def _write_csv(records: list[ResultRecord], catalog: ItemCatalog, out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["algorithm", *(f"adopt_{it}" for it in catalog.items), "welfare", "stderr", "allocation"]
    )
    for rec in records:
        writer.writerow(
            [
                rec.algorithm,
                *(_fmt(rec.adoption[it]) for it in catalog.items),
                _fmt(rec.welfare),
                _fmt(rec.stderr),
                _fmt_alloc(rec.allocation),
            ]
        )


def _cmd_run_allocators(args, out: TextIO) -> int:
    """`allocate` and `compare`: load the inputs once, then run each
    algorithm in order and estimate its welfare under one shared seed."""
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise CliError(2, "no algorithms given")
    for a in algos:
        if a not in allocators.ALGORITHMS:
            known = ", ".join(allocators.ALGORITHMS)
            raise CliError(2, f"unknown algorithm {a!r}; choose from {known}")
    try:  # before the trace opens and the inputs load: a bad value costs no work
        config = allocators.AllocatorConfig(
            eps=args.epsilon, ell=args.ell, mc_samples=args.samples, seed=args.seed
        )
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    records = []
    trace = _TraceWriter(args.trace)  # before the inputs load: a bad path costs no work
    try:
        cfg = _simulated_catalog(args.catalog)
        catalog = cfg.catalog
        budgets = parse_budgets(args.budgets, catalog) if args.budgets else cfg.budgets
        if not budgets:
            raise CliError(2, "no budgets given (flag or [budgets] section)")
        budgets = {it: budgets[it] for it in catalog.items if it in budgets}  # catalog order
        graph = load_graph_file(args.graph, args.undirected, args.compact_ids)
        base = load_allocation_file(args.base, catalog, graph.n) if args.base else Allocation.empty()
        for algo in algos:
            trace(f"phase=run algorithm={algo}")
            started = time.perf_counter()
            allocate = getattr(allocators, allocators.ALGORITHMS[algo])
            try:
                alloc = allocate(graph, catalog, base, budgets, config, trace)
            except RRLimitError as exc:
                raise CliError(3, f"{algo}: {exc}") from exc
            except ValueError as exc:
                raise CliError(2, f"{algo}: {exc}") from exc
            est = estimate_welfare(
                graph, catalog, alloc.merged(base), args.samples, derive_seed(args.seed, "estimate")
            )
            wall = time.perf_counter() - started
            records.append(ResultRecord(algo, alloc, est.mean, est.stderr, est.item_means, wall))
    finally:
        trace.close()
    _write_csv(records, catalog, out)
    for rec in records:
        print(f"algorithm={rec.algorithm} wall={rec.wall_time:.3f}s", file=sys.stderr)
    return 0


def _cmd_estimate(args, out: TextIO) -> int:
    graph = load_graph_file(args.graph, args.undirected, args.compact_ids)
    cfg = _simulated_catalog(args.catalog)
    alloc = load_allocation_file(args.allocation, cfg.catalog, graph.n)
    est = estimate_welfare(
        graph, cfg.catalog, alloc, args.samples, derive_seed(args.seed, "estimate")
    )
    record = ResultRecord("estimate", alloc, est.mean, est.stderr, est.item_means, 0.0)
    _write_csv([record], cfg.catalog, out)
    return 0


def _cmd_oracle(args, out: TextIO) -> int:
    if args.optimal and args.allocation:
        raise CliError(2, "oracle takes --allocation or --optimal, not both")
    if args.budgets and not args.optimal:
        raise CliError(2, "oracle --budgets needs --optimal")
    graph = load_graph_file(args.graph, args.undirected, args.compact_ids)
    cfg = _simulated_catalog(args.catalog)
    catalog = cfg.catalog
    base = load_allocation_file(args.base, catalog, graph.n) if args.base else Allocation.empty()
    try:
        if args.optimal:
            budgets = parse_budgets(args.budgets, catalog) if args.budgets else cfg.budgets
            if not budgets:
                raise CliError(2, "oracle --optimal needs budgets")
            oracle = WelfareOracle(graph, catalog, args.max_edges)
            alloc, welfare, adoption = oracle.optimal(budgets, base)
        else:
            if not args.allocation:
                raise CliError(2, "oracle needs --allocation or --optimal")
            alloc = load_allocation_file(args.allocation, catalog, graph.n)
            oracle = WelfareOracle(graph, catalog, args.max_edges)
            welfare, adoption = oracle.evaluate(alloc.merged(base))
    except OracleLimitError as exc:
        raise CliError(3, f"oracle: {exc}") from exc
    except ValueError as exc:  # continuous noise has no finite world set
        raise CliError(2, f"oracle: {exc}") from exc
    name = "oracle-opt" if args.optimal else "oracle"
    _write_csv([ResultRecord(name, alloc, welfare, 0.0, adoption, 0.0)], catalog, out)
    return 0


def _cmd_convert_utilities(args, out: TextIO) -> int:
    lines = _read_lines(args.probs, "probabilities file")
    names, probs = [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CliError(2, f"line {lineno}: expected 'name probability'")
        names.append(parts[0])
        try:
            probs.append(float(parts[1]))
        except ValueError:
            raise CliError(2, f"line {lineno}: bad probability {parts[1]!r}") from None
    try:
        utils = utilities_from_probabilities(probs, scale=args.scale)
    except CatalogError as exc:
        raise CliError(2, str(exc)) from exc
    for name, val in zip(names, utils):
        out.write(f"{name} = {_fmt(val)}\n")
    return 0


def _cmd_validate_config(args, out: TextIO) -> int:
    cfg = load_catalog_file(args.catalog)
    report = validate(cfg.catalog)
    print(("PASS: " if report.ok else "FAIL: ") + report.message, file=out)
    return 0 if report.ok else 1


def _cmd_rr_stats(args, out: TextIO) -> int:
    graph = load_graph_file(args.graph, args.undirected, args.compact_ids)
    rng = derive_rng(args.seed, "rr-stats")
    fixed = frozenset()
    if args.fixed:
        try:
            fixed = frozenset(int(v) for v in args.fixed.split(",") if v.strip())
        except ValueError:
            raise CliError(2, f"--fixed {args.fixed!r}: expected comma-separated node ids") from None
        outside = sorted(v for v in fixed if not 0 <= v < graph.n)
        if outside:
            raise CliError(2, f"--fixed node {outside[0]} outside [0, {graph.n})")
    sizes: Counter[int] = Counter()
    chunk = 1024  # sets per sampler call, each call with its own key: fixed, not the pool's width
    for done in range(0, args.count, chunk):  # a chunk at a time: bounded memory
        try:
            coll = sample_marginal_rr(graph, fixed, min(chunk, args.count - done), rng)
        except RISError as exc:
            raise CliError(2, f"rr-stats: {exc}") from exc
        sizes.update(b - a for a, b in pairwise(coll.offsets))
    empties = sizes.pop(0, 0)  # an emptied set has no members, any other at least its root
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["stat", "value"])
    writer.writerow(["sets", args.count])
    writer.writerow(["empty", empties])
    for size in sorted(sizes):
        writer.writerow([f"size_{size}", sizes[size]])
    return 0


def _add_common(parser: argparse.ArgumentParser, catalog=True) -> None:
    parser.add_argument("--graph", required=True, help="edge-list file")
    if catalog:
        parser.add_argument("--catalog", required=True, help="catalog config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="CSV output path (default stdout)")
    parser.add_argument("--undirected", action="store_true", help="expand edges both ways")
    parser.add_argument("--compact-ids", action="store_true", help="remap node ids densely")


def _at_least(low: int):
    """An argparse type: an integer of at least `low`."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return count


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by `allocate` and `compare`."""
    parser.add_argument("--budgets", default=None, help="item=count[,item=count...]")
    parser.add_argument("--base", default=None, help="fixed allocation file")
    defaults = allocators.AllocatorConfig
    parser.add_argument("--epsilon", type=float, default=defaults.eps)
    parser.add_argument("--ell", type=float, default=defaults.ell)
    parser.add_argument("--samples", type=_at_least(1), default=defaults.mc_samples)
    parser.add_argument("--trace", default=None, help="trace file ('-' for stderr)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="welfaremax")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="run one allocator and estimate its welfare")
    _add_common(p)
    p.add_argument("--algo", dest="algos", required=True, choices=tuple(allocators.ALGORITHMS))
    _add_run_flags(p)
    p.set_defaults(fn=_cmd_run_allocators)

    p = sub.add_parser("compare", help="run several allocators with a shared seed")
    _add_common(p)
    p.add_argument("--algos", required=True, help="comma-separated algorithm ids")
    _add_run_flags(p)
    p.set_defaults(fn=_cmd_run_allocators)

    p = sub.add_parser("estimate", help="estimate welfare of a given allocation")
    _add_common(p)
    p.add_argument("--allocation", required=True, help="allocation file")
    p.add_argument("--samples", type=_at_least(1), default=5000)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("oracle", help="exact welfare by world enumeration")
    _add_common(p)
    p.add_argument("--allocation", default=None)
    p.add_argument("--optimal", action="store_true", help="search all feasible allocations")
    p.add_argument("--budgets", default=None)
    p.add_argument("--base", default=None)
    p.add_argument("--max-edges", type=_at_least(0), default=MAX_EDGES)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("convert-utilities", help="map adoption probabilities to utilities")
    p.add_argument("--probs", required=True, help="file of 'name probability' lines")
    p.add_argument("--scale", type=float, default=10000.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_convert_utilities)

    p = sub.add_parser("validate-config", help="check a catalog config file")
    p.add_argument("--catalog", required=True)
    p.set_defaults(fn=_cmd_validate_config)

    p = sub.add_parser("rr-stats", help="dump RR-set statistics as CSV")
    _add_common(p, catalog=False)
    p.add_argument("--count", type=_at_least(1), default=10000)
    p.add_argument("--fixed", default=None, help="comma-separated fixed seed nodes")
    p.set_defaults(fn=_cmd_rr_stats)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # --out opens before any input loads: a bad path costs no work
        with _output(getattr(args, "out", None)) as out:
            return args.fn(args, out)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
