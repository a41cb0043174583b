"""Directed probabilistic graph: representation and edge-list parsing.

The graph is immutable after construction. Node ids are dense integers in
[0, n); edge probabilities live in [0, 1]. Edge-list text format: one
"src dst prob" per line, '#'-prefixed comment lines skipped.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class EdgeListError(ValueError):
    """Malformed or inconsistent edge-list input."""


class GraphError(ValueError):
    """Invalid graph construction."""


class Graph:
    """Directed graph with per-edge influence probabilities.

    ``out_adj[u]`` and ``in_adj[v]`` hold ``(neighbor, prob, edge_id)``
    triples and are exact transposes of each other. ``edge_id`` indexes
    into ``edges`` and indexes the flags of a possible world.
    """

    __slots__ = ("n", "edges", "out_adj", "in_adj", "_probs", "__weakref__")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]], validate: bool = True):
        """With ``validate=False`` the caller vouches that ``edges`` already
        holds checked ``(int, int, float)`` tuples; they are kept as given."""
        self.n = int(n)
        if validate:
            self.edges = tuple((int(u), int(v), float(p)) for u, v, p in edges)
            self._check()
        else:
            self.edges = tuple(edges)
        out_adj: list[list[tuple[int, float, int]]] = [[] for _ in range(self.n)]
        in_adj: list[list[tuple[int, float, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v, p) in enumerate(self.edges):
            out_adj[u].append((v, p, eid))
            in_adj[v].append((u, p, eid))
        self.out_adj = tuple(tuple(a) for a in out_adj)
        self.in_adj = tuple(tuple(a) for a in in_adj)
        self._probs = None

    @property
    def probs(self) -> np.ndarray:
        """Read-only float64 edge probabilities by edge id, built on first use."""
        if self._probs is None:
            probs = np.fromiter((p for _, _, p in self.edges), dtype=np.float64, count=self.m)
            probs.flags.writeable = False
            self._probs = probs
        return self._probs

    def _check(self) -> None:
        if self.n < 0:
            raise GraphError("node count must be non-negative")
        seen: set[tuple[int, int]] = set()
        for u, v, p in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) references node outside [0, {self.n})")
            if u == v:
                raise GraphError(f"self-loop at node {u} is not allowed")
            if not (0.0 <= p <= 1.0):
                raise GraphError(f"edge ({u}, {v}) probability {p} outside [0, 1]")
            if (u, v) in seen:
                raise GraphError(f"parallel edge ({u}, {v})")
            seen.add((u, v))

    @property
    def m(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def load_edge_list(
    lines: Iterable[str], undirected: bool = False, compact_ids: bool = False
) -> Graph:
    """Parse an edge-list text stream into a Graph.

    Each non-comment line is "src dst prob". Self-loops and repeated
    (src, dst) pairs are rejected, each error naming its line. With
    ``undirected``, every edge is followed by its reverse with the same
    probability. n is 1 + the largest node id seen; with ``compact_ids``,
    the ids in use are renumbered 0, 1, ... in ascending order instead.
    """
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
        if undirected:
            key = (v, u)
            if key in probs:
                raise EdgeListError(f"line {lineno}: duplicate edge ({v}, {u})")
            probs[key] = p
        if u > max_id:
            max_id = u
        if v > max_id:
            max_id = v
    n = max_id + 1
    edges = [(u, v, p) for (u, v), p in probs.items()]
    if compact_ids:
        ids = sorted({u for u, _ in probs} | {v for _, v in probs})
        new_id = {old: new for new, old in enumerate(ids)}
        edges = [(new_id[u], new_id[v], p) for u, v, p in edges]
        n = len(ids)
    # every line was checked above for what Graph._check looks for
    return Graph(n, edges, validate=False)
