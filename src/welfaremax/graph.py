"""Directed probabilistic graph: representation, edge-list IO, cascade weights.

The graph is immutable after construction. Node ids are dense integers in
[0, n); edge probabilities live in [0, 1]. Edge-list text format: one
"src dst [prob]" per line, '#'-prefixed comment lines skipped.
"""

from __future__ import annotations

from typing import Iterable, TextIO


class EdgeListError(ValueError):
    """Malformed or inconsistent edge-list input."""


class GraphError(ValueError):
    """Invalid graph construction."""


class Graph:
    """Directed graph with per-edge influence probabilities.

    ``out_adj[u]`` and ``in_adj[v]`` hold ``(neighbor, prob, edge_id)``
    triples and are exact transposes of each other. ``edge_id`` indexes
    into ``edges`` and is what possible worlds key their coin flips on.
    """

    __slots__ = ("n", "edges", "out_adj", "in_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]], validate: bool = True):
        self.n = int(n)
        self.edges = tuple((int(u), int(v), float(p)) for u, v, p in edges)
        if validate:
            self._check()
        out_adj: list[list[tuple[int, float, int]]] = [[] for _ in range(self.n)]
        in_adj: list[list[tuple[int, float, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v, p) in enumerate(self.edges):
            out_adj[u].append((v, p, eid))
            in_adj[v].append((u, p, eid))
        self.out_adj = tuple(tuple(a) for a in out_adj)
        self.in_adj = tuple(tuple(a) for a in in_adj)

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

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def load_edge_list(lines: Iterable[str], on_duplicate: str = "error") -> Graph:
    """Parse an edge-list text stream into a Graph.

    Each non-comment line is "src dst [prob]". When the probability column
    is absent it is left as a 0 sentinel pending assignment (see
    :func:`assign_weighted_cascade`). n is 1 + the largest node id seen.

    on_duplicate: "error" rejects repeated (src, dst) pairs, "max" keeps the
    larger probability. Self-loops are always rejected.
    """
    if on_duplicate not in ("error", "max"):
        raise ValueError("on_duplicate must be 'error' or 'max'")
    edges: dict[tuple[int, int], float] = {}
    order: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListError(f"line {lineno}: expected 'src dst [prob]', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: node ids must be integers, got {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: node ids must be non-negative")
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at node {u}")
        p = 0.0
        if len(parts) == 3:
            try:
                p = float(parts[2])
            except ValueError:
                raise EdgeListError(f"line {lineno}: probability must be a number, got {parts[2]!r}") from None
            if not (0.0 <= p <= 1.0):
                raise EdgeListError(f"line {lineno}: probability {p} outside [0, 1]")
        key = (u, v)
        if key in edges:
            if on_duplicate == "error":
                raise EdgeListError(f"line {lineno}: duplicate edge ({u}, {v})")
            edges[key] = max(edges[key], p)
        else:
            edges[key] = p
            order.append(key)
        max_id = max(max_id, u, v)
    return Graph(max_id + 1, [(u, v, edges[(u, v)]) for u, v in order])


def dump_edge_list(graph: Graph, stream: TextIO) -> None:
    """Write the graph in edge-list format; probabilities round-trip bit-exactly."""
    for u, v, p in graph.edges:
        stream.write(f"{u} {v} {p:.17g}\n")


def assign_weighted_cascade(graph: Graph) -> Graph:
    """Return a copy where every edge (u, v) carries probability 1/d_in(v)."""
    return Graph(
        graph.n,
        [(u, v, 1.0 / graph.in_degree(v)) for u, v, _ in graph.edges],
        validate=False,
    )
