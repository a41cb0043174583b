"""Directed probabilistic graph: flat edge arrays, CSR adjacency, edge-list parsing.

The graph is immutable after construction. Node ids are dense integers in
[0, n); edge probabilities live in [0, 1]. Edges are numbered in input
order, and ``src``, ``dst`` and ``probs`` are numpy arrays indexed by edge
id. Both adjacencies are read-only CSR arrays, each node's slots in
edge-id order. The batched RR samplers walk the in-edges: v's in-slots
are ``in_ptr[v]:in_ptr[v + 1]``, holding sources ``in_src`` and
probabilities ``in_prob``, and `Graph.in_skips` adds, on first use, the
per-node arrays their geometric skips need. The batched diffusion walks
the out-edges: u's out-slots are ``out_ptr[u]:out_ptr[u + 1]``, holding
targets ``out_dst`` and edge ids ``out_eid``, and `Graph.out_limits`
adds, on first use, each out-slot's coin threshold. Each CSR orders its
slots with one plain sort of the unique keys ``key * m + slot``, which is
the stable order. No per-node or per-edge Python object is built on the
load path.

Edge-list text format: one "src dst prob" per line, '#'-prefixed comment
lines skipped. `load_edge_list` takes a file `Path` or the lines
themselves. ``np.loadtxt`` parses a file in place, decoded as
``Path.read_text`` decodes it, with no list of lines; it parses lines
after their comment lines are dropped. Either way the arrays are then
checked with vectorised tests. A file that fails to parse (a comment line
is enough), makes numpy warn, fails a check or breaks a line other than
at "\n" is read as ``read_text().splitlines()`` and goes the way of
lines. Lines that fail are read again by the line-by-line parser, which
either builds the graph (it accepts a few spellings numpy does not, such
as ``1_0`` or non-ASCII digits) or raises the `EdgeListError` naming the
line. So the numpy path never accepts an input the line parser rejects,
and all error messages come from the line parser. The line parser alone
is about twice as slow on large inputs and holds a dict of every edge.
"""

from __future__ import annotations

import warnings
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np


class EdgeListError(ValueError):
    """Malformed or inconsistent edge-list input."""


class GraphError(ValueError):
    """Invalid graph construction."""


def csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR grouping of positions by ``keys`` in [0, n): group k is
    ``order[ptr[k]:ptr[k + 1]]``, its positions in ascending order."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return ptr, stable_order(n, keys)


def stable_order(n: int, keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for `keys` in [0, n), by one plain
    sort of the unique keys ``keys * m + position`` (m = len(keys)) wherever
    they fit in int64."""
    m = len(keys)
    if n * m > np.iinfo(np.int64).max:
        return np.argsort(keys, kind="stable")
    order = np.multiply(keys, m, dtype=np.int64)
    for start in range(0, m, 1 << 16):  # positions a block at a time: no second m-sized array
        block = order[start : start + (1 << 16)]
        block += np.arange(start, start + len(block))
    order.sort()
    order %= m
    return order


def spans(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slots ``starts[i]:ends[i]`` for each i in turn, each span in
    ascending order, and each slot's i."""
    sizes = ends - starts
    index = np.repeat(np.arange(len(starts)), sizes)
    slots = np.arange(len(index))
    slots += (starts - np.cumsum(sizes) + sizes)[index]
    return slots, index


def differs(keys: np.ndarray) -> np.ndarray:
    """Whether each ``keys[k]`` differs from ``keys[k - 1]``, True at k = 0:
    in sorted keys, the first of each run of equal keys."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


class Graph:
    """Directed graph with per-edge influence probabilities.

    ``Graph(n, edges)`` checks and copies ``(src, dst, prob)`` triples;
    `from_arrays` adopts arrays the caller has already checked.
    """

    __slots__ = (
        "n", "src", "dst", "probs", "in_ptr", "in_src", "in_prob", "out_ptr", "out_dst",
        "out_eid", "_in_skips", "_out_limits", "__weakref__",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        edges = [(int(u), int(v), float(p)) for u, v, p in edges]
        _check(int(n), edges)
        src, dst, probs = zip(*edges) if edges else ((), (), ())
        self._build(int(n), np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                    np.array(probs, dtype=np.float64))

    @classmethod
    def from_arrays(cls, n: int, src: np.ndarray, dst: np.ndarray, probs: np.ndarray) -> "Graph":
        """A graph over int64 ``src``/``dst`` and float64 ``probs`` by edge id,
        which must already satisfy what ``Graph(n, edges)`` checks."""
        graph = cls.__new__(cls)
        graph._build(n, src, dst, probs)
        return graph

    def _build(self, n: int, src: np.ndarray, dst: np.ndarray, probs: np.ndarray) -> None:
        in_ptr, in_eids = csr(n, dst)
        out_ptr, out_eids = csr(n, src)
        self.n, self.src, self.dst, self.probs = n, src, dst, probs
        self.in_ptr, self.in_src, self.in_prob = in_ptr, src[in_eids], probs[in_eids]
        self.out_ptr, self.out_dst, self.out_eid = out_ptr, dst[out_eids], out_eids
        self._in_skips = self._out_limits = None
        for arr in (src, dst, probs, in_ptr, self.in_src, self.in_prob, out_ptr, self.out_dst,
                    out_eids):
            arr.flags.writeable = False

    @property
    def in_skips(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """What the RR samplers' geometric skips over in-slots need, built on
        first use (so loading a graph does not pay for it) and kept. Per
        node: the largest in-probability q (0 with no in-edge), the
        in-degree where q > 0 and 0 elsewhere (float64), and the skip scale
        ``-1 / log1p(-q)`` (0 where q is 0 or 1). Per in-slot: whether its
        probability is below its node's q."""
        if self._in_skips is None:
            degree = np.diff(self.in_ptr)
            q = np.zeros(self.n)
            starts = np.flatnonzero(degree)
            if len(starts):
                q[starts] = np.maximum.reduceat(self.in_prob, self.in_ptr[starts])
            with np.errstate(divide="ignore", over="ignore"):  # log1p(-1) is -inf: scale 0
                scale = np.where(q > 0, -1.0 / np.log1p(-q), 0.0)
            reach = np.where(q > 0, degree, 0).astype(np.float64)
            below = self.in_prob < np.repeat(q, degree)
            for arr in (q, reach, scale, below):
                arr.flags.writeable = False
            self._in_skips = (q, reach, scale, below)
        return self._in_skips

    @property
    def out_limits(self) -> np.ndarray:
        """Per out-slot, ``ceil(p * 2**53)`` of its edge as uint64, built on
        first use and kept: an integer u in [0, 2**53) has ``u * 2**-53 < p``
        exactly when ``u < ceil(p * 2**53)``, since both products are exact.
        It is 0 where p is 0.0 or -0.0 and 2**53 where p is 1."""
        if self._out_limits is None:
            limits = np.ceil(self.probs[self.out_eid] * 2.0**53).astype(np.uint64)
            limits.flags.writeable = False
            self._out_limits = limits
        return self._out_limits

    @property
    def m(self) -> int:
        return len(self.probs)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """``(src, dst, prob)`` per edge id, built on each call; for small
        graphs and tests, not for hot loops."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.probs.tolist()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check(n: int, edges: list[tuple[int, int, float]]) -> None:
    if n < 0:
        raise GraphError("node count must be non-negative")
    seen: set[tuple[int, int]] = set()
    for u, v, p in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references node outside [0, {n})")
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")
        if not (0.0 <= p <= 1.0):
            raise GraphError(f"edge ({u}, {v}) probability {p} outside [0, 1]")
        if (u, v) in seen:
            raise GraphError(f"parallel edge ({u}, {v})")
        seen.add((u, v))


_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("p", np.float64)])
# the line breaks of `str.splitlines` other than "\n" and "\r" (which a file
# read as text turns into "\n"): numpy reads them as spaces within a line
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def load_edge_list(
    source: Path | Iterable[str], undirected: bool = False, compact_ids: bool = False
) -> Graph:
    """Parse an edge-list file (a `Path`, decoded as ``read_text`` decodes
    it) or its lines into a Graph.

    Each non-comment line is "src dst prob". Self-loops and repeated
    (src, dst) pairs are rejected, each error naming its line. With
    ``undirected``, every edge is followed by its reverse with the same
    probability. n is 1 + the largest node id seen; with ``compact_ids``,
    the ids in use are renumbered 0, 1, ... in ascending order instead.
    """
    arrays = _parse_arrays(source, undirected) if isinstance(source, Path) else None
    if arrays is None:
        lines = source.read_text().splitlines() if isinstance(source, Path) else list(source)
        arrays = _parse_arrays(lines, undirected)
        if arrays is None:
            return _load_lines(lines, undirected, compact_ids)
    src, dst, probs = arrays
    if compact_ids:
        ids, inverse = np.unique(np.concatenate((src, dst)), return_inverse=True)
        src, dst = inverse[: len(src)], inverse[len(src):]
        n = len(ids)
    else:
        n = int(max(src.max(), dst.max())) + 1
    return Graph.from_arrays(n, src, dst, probs)


def _parse_arrays(source: Path | list[str], undirected: bool):
    """``(src, dst, probs)`` from ``np.loadtxt``, or None if numpy cannot
    parse the file or lines or warns while parsing them, or the edges fail
    any check of `_load_lines`. A file is parsed whole, so a comment line
    fails it; lines are parsed without their comment lines."""
    try:
        if isinstance(source, Path):
            with source.open() as fh:
                if any(c in chunk for chunk in iter(lambda: fh.read(1 << 20), "")
                       for c in _OTHER_BREAKS):
                    return None
                fh.seek(0)
                table = _table(fh)
        else:
            table = _table(
                [line for line in source if "#" not in line or not line.lstrip().startswith("#")]
            )
    except (ValueError, Warning):  # a file that does not decode raises a ValueError too
        return None
    u, v, p = table["u"], table["v"], table["p"]
    if not (np.all(u >= 0) and np.all(v >= 0) and np.all(u != v)):
        return None
    if not np.all((p >= 0.0) & (p <= 1.0)):  # false for nan
        return None
    if undirected:
        u, v = np.column_stack((u, v)).ravel(), np.column_stack((v, u)).ravel()
        p = np.repeat(p, 2)
    else:
        u, v, p = u.copy(), v.copy(), p.copy()
    width = int(max(u.max(), v.max())) + 1
    if width > 3_037_000_499:  # width**2 would overflow int64
        return None
    keys = np.sort(u * width + v)
    if np.any(keys[1:] == keys[:-1]):
        return None
    return u, v, p


def _table(rows) -> np.ndarray:
    with warnings.catch_warnings():
        # loadtxt warns, rather than fails, on input without rows and,
        # in numpy 1.x, when it reads an id such as "1.0" as 1
        warnings.simplefilter("error")
        return np.loadtxt(rows, dtype=_ROW, comments=None, ndmin=1)


def _load_lines(lines: list[str], undirected: bool, compact_ids: bool) -> Graph:
    """The line-by-line loader: every line checked in order, the first bad
    one raising an `EdgeListError` that names it."""
    probs: dict[tuple[int, int], float] = {}  # insertion order is edge order
    max_id = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise EdgeListError(f"line {lineno}: expected 'src dst prob', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: node ids must be integers, got {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: node ids must be non-negative")
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at node {u}")
        try:
            p = float(parts[2])
        except ValueError:
            raise EdgeListError(f"line {lineno}: probability must be a number, got {parts[2]!r}") from None
        if not (0.0 <= p <= 1.0):
            raise EdgeListError(f"line {lineno}: probability {p} outside [0, 1]")
        key = (u, v)
        if key in probs:
            raise EdgeListError(f"line {lineno}: duplicate edge ({u}, {v})")
        probs[key] = p
        if undirected:  # both directions go in together, so (v, u) is new as well
            probs[(v, u)] = p
        if u > max_id:
            max_id = u
        if v > max_id:
            max_id = v
    n, pairs = max_id + 1, probs.keys()
    if compact_ids:
        ids = sorted({u for u, _ in pairs} | {v for _, v in pairs})
        new_id = {old: new for new, old in enumerate(ids)}
        n, pairs = len(ids), [(new_id[u], new_id[v]) for u, v in pairs]
    m = len(probs)
    ends = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * m).reshape(m, 2)
    return Graph.from_arrays(
        n, ends[:, 0].copy(), ends[:, 1].copy(), np.fromiter(probs.values(), np.float64, m)
    )
