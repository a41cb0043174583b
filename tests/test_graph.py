import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from welfaremax.graph import EdgeListError, Graph, GraphError, load_edge_list

from conftest import graph_from


def dump_edge_list(graph: Graph, stream) -> None:
    """Write the graph in edge-list format; probabilities round-trip bit-exactly."""
    for u, v, p in graph.edges:
        stream.write(f"{u} {v} {p:.17g}\n")


def test_load_single_edge():
    g = graph_from("0 1 1.0\n")
    assert g.n == 2
    assert g.edges == ((0, 1, 1.0),)


def test_load_empty_stream():
    g = load_edge_list(io.StringIO(""))
    assert g.n == 0
    assert g.edges == ()


def test_load_skips_comments_and_blanks():
    g = graph_from("# header\n\n0 1 0.5\n  # indented comment\n1 2 0.25\n")
    assert g.n == 3
    assert g.m == 2


def test_load_malformed_line_reports_lineno():
    for bad in ("0 1 2 3 4", "1 2"):  # no probability column is malformed too
        with pytest.raises(EdgeListError, match="line 2: expected 'src dst prob'"):
            graph_from(f"0 1 0.5\n{bad}\n")


def test_load_bad_ids():
    with pytest.raises(EdgeListError, match="integers"):
        graph_from("a b 0.5\n")
    with pytest.raises(EdgeListError, match="non-negative"):
        graph_from("-1 2 0.5\n")


def test_load_probability_out_of_range():
    with pytest.raises(EdgeListError, match="outside"):
        graph_from("0 1 1.5\n")


def test_load_duplicate_edge_rejected_by_default():
    text = "0 1 0.5\n1 2 0.5\n0 1 0.7\n"
    with pytest.raises(EdgeListError, match="line 3.*duplicate"):
        graph_from(text)


def test_load_self_loop_rejected():
    with pytest.raises(EdgeListError, match="self-loop"):
        graph_from("3 3 0.5\n")


def test_constructor_validation():
    with pytest.raises(GraphError):
        Graph(2, [(0, 5, 0.5)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 1, 0.5), (0, 1, 0.6)])
    with pytest.raises(GraphError):
        Graph(2, [(1, 1, 0.5)])


def test_loaded_graph_equals_validated_construction():
    from test_golden import FRACTIONAL_EDGES

    text = FRACTIONAL_EDGES + "11 0 1\n"
    loaded = graph_from(text)
    rows = [line.split() for line in text.splitlines()]
    # ids and probabilities as the constructor must coerce them
    built = Graph(12, [(float(u), v, p) for u, v, p in rows])
    for g in (loaded, built):
        for u, v, p in g.edges:
            assert (type(u), type(v), type(p)) == (int, int, float)
    assert loaded.edges == built.edges
    assert loaded.out_adj == built.out_adj
    assert loaded.in_adj == built.in_adj
    for adj in (loaded.out_adj, loaded.in_adj):
        for row in adj:
            for w, p, eid in row:
                assert (type(w), type(p), type(eid)) == (int, float, int)


def test_adjacency_transpose():
    g = graph_from("0 1 0.5\n0 2 0.3\n2 1 0.9\n")
    out_pairs = {(u, v) for u in range(g.n) for v, _, _ in g.out_adj[u]}
    in_pairs = {(u, v) for v in range(g.n) for u, _, _ in g.in_adj[v]}
    assert out_pairs == in_pairs == {(0, 1), (0, 2), (2, 1)}


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=10))
    probs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return [(u, v, p) for (u, v), p in zip(chosen, probs)]


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_dump_load_round_trip(edges):
    n = 1 + max(max(u, v) for u, v, _ in edges)
    g = Graph(n, edges)
    buf = io.StringIO()
    dump_edge_list(g, buf)
    g2 = load_edge_list(io.StringIO(buf.getvalue()))
    assert g2.n == g.n
    assert sorted(g2.edges) == sorted(g.edges)  # bit-exact probabilities
