"""Experiment runner.

Subcommands: allocate, estimate, compare, oracle, convert-utilities,
validate-config, rr-stats. Results go to CSV with a fixed header and
17-significant-digit floats so identical seeds give byte-identical
output; wall times are logged to stderr, never to the CSV.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from welfaremax import allocators
from welfaremax.diffusion import Allocation, estimate_welfare
from welfaremax.graph import EdgeListError, Graph, GraphError, load_edge_list
from welfaremax.oracle import (
    DEFAULT_LIMITS,
    OracleLimitError,
    OracleLimits,
    WelfareOracle,
    optimal_allocation,
)
from welfaremax.ris import sample_marginal_rr
from welfaremax.rng import derive_rng, derive_seed
from welfaremax.utility import (
    CatalogError,
    ItemCatalog,
    load_catalog_config,
    superior_item,
    utilities_from_probabilities,
    validate,
)

ALGORITHMS = (
    "seqgrd",
    "seqgrd-nm",
    "maxgrd",
    "max-seq",
    "supgrd",
    "gm",
    "round-robin",
    "snake",
)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class ExperimentSpec:
    graph_path: str
    catalog_path: str
    algorithm: str
    budgets: dict[str, int] = field(default_factory=dict)
    base_path: Optional[str] = None
    eps: float = 0.5
    ell: float = 1.0
    mc_samples: int = 5000
    seed: int = 0
    out_path: Optional[str] = None
    trace_path: Optional[str] = None
    undirected: bool = False
    compact_ids: bool = False


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


def _read_lines(path: str, what: str) -> list[str]:
    p = Path(path)
    if not p.is_file():
        raise CliError(2, f"{what} not found: {path}")
    return p.read_text().splitlines()


def load_graph_file(path: str, undirected: bool = False, compact_ids: bool = False) -> Graph:
    lines = _read_lines(path, "graph")
    rows = lines
    if undirected:
        rows = []
        for line in lines:
            rows.append(line)
            parts = line.split("#", 1)[0].split()
            if len(parts) >= 2:
                rows.append(" ".join([parts[1], parts[0], *parts[2:]]))
    try:
        graph = load_edge_list(rows)
    except (EdgeListError, GraphError) as exc:
        raise CliError(2, f"bad graph {path}: {exc}") from exc
    # the library reads a missing probability as a 0 sentinel, which here
    # would run every diffusion without propagation; only a 0 can be one,
    # so the text is scanned only then
    if any(p == 0.0 for _, _, p in graph.edges):
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if line and not line.startswith("#") and len(line.split()) == 2:
                raise CliError(
                    2, f"bad graph {path}: line {lineno}: expected 'src dst prob', got {line!r}"
                )
    if compact_ids:
        used = sorted({u for u, _, _ in graph.edges} | {v for _, v, _ in graph.edges})
        remap = {old: new for new, old in enumerate(used)}
        graph = Graph(len(used), [(remap[u], remap[v], p) for u, v, p in graph.edges])
    return graph


def load_catalog_file(path: str):
    lines = _read_lines(path, "catalog")
    try:
        return load_catalog_config(lines)
    except CatalogError as exc:
        raise CliError(2, f"bad catalog {path}: {exc}") from exc


def load_allocation_file(path: str, catalog: ItemCatalog) -> Allocation:
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
        try:
            budgets[item] = int(count)
        except ValueError:
            raise CliError(2, f"budget for {item!r} must be an integer") from None
    if not budgets:
        raise CliError(2, "empty budget list")
    return budgets


class _TraceWriter:
    def __init__(self, path: Optional[str]):
        self._fh = None
        if path == "-":
            self._fh = sys.stderr
        elif path:
            self._fh = open(path, "w")
        self._owned = path is not None and path != "-"

    def __call__(self, line: str) -> None:
        if self._fh is not None:
            self._fh.write(line + "\n")

    def close(self) -> None:
        if self._owned and self._fh is not None:
            self._fh.close()


def run(spec: ExperimentSpec) -> ResultRecord:
    """Execute one allocator and estimate its welfare and adoption counts."""
    graph = load_graph_file(spec.graph_path, spec.undirected, spec.compact_ids)
    cfg = load_catalog_file(spec.catalog_path)
    catalog = cfg.catalog
    budgets = spec.budgets or cfg.budgets
    if not budgets:
        raise CliError(2, "no budgets given (flag or [budgets] section)")
    base = Allocation.empty()
    if spec.base_path:
        base = load_allocation_file(spec.base_path, catalog)
    trace = _TraceWriter(spec.trace_path)
    config = allocators.AllocatorConfig(
        eps=spec.eps, ell=spec.ell, mc_samples=spec.mc_samples, seed=spec.seed
    )
    items = [it for it in catalog.items if it in budgets]
    started = time.perf_counter()
    try:
        alloc = _dispatch(spec.algorithm, graph, catalog, base, items, budgets, config, trace)
    except (allocators.AllocatorError, ValueError) as exc:
        raise CliError(2, f"{spec.algorithm}: {exc}") from exc
    finally:
        trace.close()
    est = estimate_welfare(
        graph,
        catalog,
        alloc.merged(base),
        spec.mc_samples,
        derive_seed(spec.seed, "estimate"),
    )
    wall = time.perf_counter() - started
    return ResultRecord(spec.algorithm, alloc, est.mean, est.stderr, est.item_means, wall)


def _dispatch(algorithm, graph, catalog, base, items, budgets, config, trace):
    if algorithm == "seqgrd":
        return allocators.seqgrd(graph, catalog, base, items, budgets, config, trace)
    if algorithm == "seqgrd-nm":
        return allocators.seqgrd_nm(graph, catalog, base, items, budgets, config, trace)
    if algorithm == "maxgrd":
        return allocators.maxgrd(graph, catalog, base, items, budgets, config, trace)
    if algorithm == "max-seq":
        if base:
            raise CliError(2, "max-seq requires an empty base allocation")
        return allocators.max_seq(graph, catalog, items, budgets, config, trace)
    if algorithm == "supgrd":
        if len(items) != 1:
            raise CliError(2, "supgrd budgets must name exactly the superior item")
        sup = superior_item(catalog)
        if sup is None or sup != items[0]:
            raise CliError(2, f"supgrd: budgeted item {items[0]!r} is not the superior item")
        return allocators.supgrd(graph, catalog, base, sup, budgets[sup], config, trace)
    if algorithm == "gm":
        if base:
            raise CliError(2, "gm does not take a base allocation")
        return allocators.greedy_marginal(graph, catalog, items, budgets, config, trace)
    if algorithm in ("round-robin", "snake"):
        total = sum(budgets[it] for it in items)
        seeds = allocators.prefix_seed_list(
            graph, base, [budgets[it] for it in items], total, config, trace
        )
        fn = allocators.round_robin if algorithm == "round-robin" else allocators.snake
        return fn(seeds, items, budgets)
    raise CliError(2, f"unknown algorithm {algorithm!r}; choose from {', '.join(ALGORITHMS)}")


def _write_csv(records: list[ResultRecord], catalog: ItemCatalog, out_path: Optional[str]) -> None:
    stream = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(stream, lineterminator="\n")
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
    finally:
        if out_path:
            stream.close()


def _cmd_allocate(args) -> int:
    spec = _spec_from_args(args, args.algo)
    record = run(spec)
    catalog = load_catalog_file(spec.catalog_path).catalog
    _write_csv([record], catalog, spec.out_path)
    print(f"algorithm={record.algorithm} wall={record.wall_time:.3f}s", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in ALGORITHMS:
            raise CliError(2, f"unknown algorithm {a!r}")
    records = []
    for algo in algos:
        spec = _spec_from_args(args, algo)
        spec.out_path = None
        records.append(run(spec))
    catalog = load_catalog_file(args.catalog).catalog
    _write_csv(records, catalog, args.out)
    for rec in records:
        print(f"algorithm={rec.algorithm} wall={rec.wall_time:.3f}s", file=sys.stderr)
    return 0


def _cmd_estimate(args) -> int:
    graph = load_graph_file(args.graph, args.undirected, args.compact_ids)
    cfg = load_catalog_file(args.catalog)
    alloc = load_allocation_file(args.allocation, cfg.catalog)
    est = estimate_welfare(
        graph, cfg.catalog, alloc, args.samples, derive_seed(args.seed, "estimate")
    )
    record = ResultRecord("estimate", alloc, est.mean, est.stderr, est.item_means, 0.0)
    _write_csv([record], cfg.catalog, args.out)
    return 0


def _cmd_oracle(args) -> int:
    graph = load_graph_file(args.graph, args.undirected, args.compact_ids)
    cfg = load_catalog_file(args.catalog)
    catalog = cfg.catalog
    limits = OracleLimits(
        max_edges=args.max_edges,
        max_noise_support=DEFAULT_LIMITS.max_noise_support,
        max_allocation_space=DEFAULT_LIMITS.max_allocation_space,
    )
    base = Allocation.empty()
    if args.base:
        base = load_allocation_file(args.base, catalog)
    try:
        if args.optimal:
            budgets = parse_budgets(args.budgets, catalog) if args.budgets else cfg.budgets
            if not budgets:
                raise CliError(2, "oracle --optimal needs budgets")
            alloc, welfare = optimal_allocation(graph, catalog, budgets, base, limits)
            full = alloc.merged(base)
            oracle = WelfareOracle(graph, catalog, limits)
            record = ResultRecord(
                "oracle-opt", alloc, welfare, 0.0, oracle.item_adoption_means(full), 0.0
            )
        else:
            if not args.allocation:
                raise CliError(2, "oracle needs --allocation or --optimal")
            alloc = load_allocation_file(args.allocation, catalog)
            oracle = WelfareOracle(graph, catalog, limits)
            full = alloc.merged(base)
            record = ResultRecord(
                "oracle", alloc, oracle.welfare(full), 0.0, oracle.item_adoption_means(full), 0.0
            )
    except OracleLimitError as exc:
        raise CliError(3, f"oracle: {exc}") from exc
    _write_csv([record], catalog, args.out)
    return 0


def _cmd_convert_utilities(args) -> int:
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
    out = sys.stdout if not args.out else open(args.out, "w")
    try:
        for name, val in zip(names, utils):
            out.write(f"{name} = {_fmt(val)}\n")
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_validate_config(args) -> int:
    cfg = load_catalog_file(args.catalog)
    report = validate(cfg.catalog)
    print(("PASS: " if report.ok else "FAIL: ") + report.message)
    return 0 if report.ok else 1


def _cmd_rr_stats(args) -> int:
    graph = load_graph_file(args.graph, args.undirected, args.compact_ids)
    rng = derive_rng(args.seed, "rr-stats")
    fixed = frozenset()
    if args.fixed:
        fixed = frozenset(int(v) for v in args.fixed.split(",") if v.strip())
    sizes: dict[int, int] = {}
    empties = 0
    for _ in range(args.count):
        rr = sample_marginal_rr(graph, fixed, rng)
        if rr.empty:
            empties += 1
        else:
            sizes[len(rr.members)] = sizes.get(len(rr.members), 0) + 1
    stream = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["stat", "value"])
        writer.writerow(["sets", args.count])
        writer.writerow(["empty", empties])
        for size in sorted(sizes):
            writer.writerow([f"size_{size}", sizes[size]])
    finally:
        if args.out:
            stream.close()
    return 0


def _spec_from_args(args, algorithm: str) -> ExperimentSpec:
    cfg = load_catalog_file(args.catalog)
    budgets = parse_budgets(args.budgets, cfg.catalog) if args.budgets else dict(cfg.budgets)
    return ExperimentSpec(
        graph_path=args.graph,
        catalog_path=args.catalog,
        algorithm=algorithm,
        budgets=budgets,
        base_path=args.base,
        eps=args.epsilon,
        ell=args.ell,
        mc_samples=args.samples,
        seed=args.seed,
        out_path=args.out,
        trace_path=args.trace,
        undirected=args.undirected,
        compact_ids=args.compact_ids,
    )


def _add_common(parser: argparse.ArgumentParser, catalog=True) -> None:
    parser.add_argument("--graph", required=True, help="edge-list file")
    if catalog:
        parser.add_argument("--catalog", required=True, help="catalog config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="CSV output path (default stdout)")
    parser.add_argument("--undirected", action="store_true", help="expand edges both ways")
    parser.add_argument("--compact-ids", action="store_true", help="remap node ids densely")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="welfaremax")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="run one allocator and estimate its welfare")
    _add_common(p)
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--budgets", default=None, help="item=count[,item=count...]")
    p.add_argument("--base", default=None, help="fixed allocation file")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--ell", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=5000)
    p.add_argument("--trace", default=None, help="trace file ('-' for stderr)")
    p.set_defaults(fn=_cmd_allocate)

    p = sub.add_parser("compare", help="run several allocators with a shared seed")
    _add_common(p)
    p.add_argument("--algos", required=True, help="comma-separated algorithm ids")
    p.add_argument("--budgets", default=None)
    p.add_argument("--base", default=None)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--ell", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=5000)
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("estimate", help="estimate welfare of a given allocation")
    _add_common(p)
    p.add_argument("--allocation", required=True, help="allocation file")
    p.add_argument("--samples", type=int, default=5000)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("oracle", help="exact welfare by world enumeration")
    _add_common(p)
    p.add_argument("--allocation", default=None)
    p.add_argument("--optimal", action="store_true", help="search all feasible allocations")
    p.add_argument("--budgets", default=None)
    p.add_argument("--base", default=None)
    p.add_argument("--max-edges", type=int, default=DEFAULT_LIMITS.max_edges)
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
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--fixed", default=None, help="comma-separated fixed seed nodes")
    p.set_defaults(fn=_cmd_rr_stats)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
