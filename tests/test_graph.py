import io
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from welfaremax import graph as graph_module
from welfaremax.graph import EdgeListError, Graph, GraphError, load_edge_list

from conftest import CONFIGS, graph_from

EDGE_ARRAYS = ("src", "dst", "probs", "in_ptr", "in_src", "in_prob")
OUT_CSR = ("out_ptr", "out_dst", "out_eid")


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



@pytest.mark.parametrize(
    "n, edges, message",
    [
        (-1, [], "node count must be non-negative"),
        (2, [(0, 1, 1.5)], "edge (0, 1) probability 1.5 outside [0, 1]"),
        (2, [(0, 1, -0.5)], "edge (0, 1) probability -0.5 outside [0, 1]"),
    ],
    ids=["negative-n", "probability-above-1", "probability-below-0"],
)
def test_constructor_rejects_bad_counts_and_probabilities(n, edges, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        Graph(n, edges)


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
    for name in EDGE_ARRAYS:
        assert np.array_equal(getattr(loaded, name), getattr(built, name)), name
        assert getattr(loaded, name).dtype == getattr(built, name).dtype, name
    for name in OUT_CSR:
        assert np.array_equal(getattr(loaded, name), getattr(built, name)), name
        assert getattr(loaded, name).dtype == getattr(built, name).dtype == np.int64, name
        assert not getattr(loaded, name).flags.writeable, name


def test_adjacency_transpose():
    g = graph_from("0 1 0.5\n0 2 0.3\n2 1 0.9\n")
    out_pairs = {(u, v) for u in range(g.n) for v in g.out_dst[g.out_ptr[u] : g.out_ptr[u + 1]]}
    in_pairs = {(u, v) for v in range(g.n) for u in g.in_src[g.in_ptr[v] : g.in_ptr[v + 1]]}
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


# -- the numpy loader against the line-by-line loader ---------------------------

LOADER_CORPUS = [
    "0 1 0.5\n1 2 0.25\n2 0 1\n",
    "# header\n\n0 1 0.5\n   \n  # indented comment\n1 2 0.25\n",
    "0 1 0.5 # inline comment\n",
    "0 1 0.5\r\n1 2 0.25\r\n",
    "0\t1\t0.5\n1\t2 \t 0.25\n",
    "0 1 0.5\n1 2 0.25\n",
    "+1 2 0.5\n",
    "1_0 2 0.5\n",
    "١ ٢ 0.5\n",
    "0 1 ٠.٥\n",
    "1.0 2 0.5\n",
    "007 1 .5\n1 2 5e-1\n",
    "0 1 nan\n",
    "0 1 inf\n",
    "0 1 -inf\n",
    "0 1 1e-320\n1 0 -0.0\n",
    "0 1 0.000_5\n",
    "0 1 0x1p-1\n",
    "0 1\n",
    "0 1 0.5 7\n",
    "0 1 0.5\n1 2\n",
    "0 1 0.5\n0 1 0.7\n",
    "0 1 0.5\n1 0 0.7\n",
    "3 3 0.5\n",
    "-1 2 0.5\n",
    "-0 1 0.5\n",
    "0 1 1.5\n",
    "a b 0.5\n",
    "",
    "# only a comment\n",
    "7 3 0.5\n3 12 0.25\n12 40 1\n40 7 0.125\n",
    "0 99999999999999999999 0.5\n",
    "0 5000000000 0.5\n5000000000 1 0.25\n",
]


def _same_graph(got: Graph, want: Graph) -> None:
    assert got.n == want.n
    assert np.array_equal(got.src, want.src) and np.array_equal(got.dst, want.dst)
    assert got.probs.tobytes() == want.probs.tobytes()  # bit for bit, -0.0 included
    assert np.array_equal(got.in_ptr, want.in_ptr) and np.array_equal(got.in_src, want.in_src)
    assert got.in_prob.tobytes() == want.in_prob.tobytes()
    for name in OUT_CSR:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _outcome(load, lines, undirected, compact_ids):
    try:
        return load(lines, undirected, compact_ids)
    except EdgeListError as exc:
        return str(exc)


@pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
@pytest.mark.parametrize("compact_ids", [False, True], ids=["ids", "compact"])
@pytest.mark.parametrize("keepends", [False, True], ids=["split", "stream"])
def test_numpy_loader_equals_line_loader(undirected, compact_ids, keepends):
    fast_runs = 0
    for text in LOADER_CORPUS:
        if "5000000000" in text and not compact_ids:
            continue  # n would be 5e9: both loaders try to allocate it
        if "99999999999999999999" in text and not compact_ids:
            continue  # beyond int64 without renumbering
        lines = text.splitlines(keepends=keepends)
        want = _outcome(graph_module._load_lines, lines, undirected, compact_ids)
        got = _outcome(load_edge_list, lines, undirected, compact_ids)
        arrays = graph_module._parse_arrays(lines, undirected)
        if isinstance(want, str):
            assert arrays is None, text  # the numpy path accepts nothing the lines reject
            assert got == want, text
        else:
            _same_graph(got, want)
            fast_runs += arrays is not None
    assert fast_runs >= 8  # the corpus exercises the numpy path, not just the fallback


def test_numpy_warning_sends_the_input_to_the_line_loader(monkeypatch):
    # numpy 1.x reads an id such as "1.0" as 1 with only a DeprecationWarning
    real = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("parsed an integer from a float", DeprecationWarning)
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_module.np, "loadtxt", warning_loadtxt)
    lines = ["0 1 0.5", "1 2 0.25"]
    assert graph_module._parse_arrays(lines, False) is None
    _same_graph(load_edge_list(lines), graph_module._load_lines(lines, False, False))


def test_numpy_loader_parses_probabilities_as_float_does():
    from test_golden import FRACTIONAL_EDGES

    rng = random.Random(20)
    reprs = [line.split()[2] for line in FRACTIONAL_EDGES.splitlines()]
    for i in range(200_000):
        kind = i % 4
        if kind == 0:
            x = rng.random()
        elif kind == 1:
            x = rng.random() ** 40
        elif kind == 2:
            x = float(f"{rng.random():.{rng.randint(1, 17)}g}")
        else:
            x = rng.getrandbits(52) * 2.0**-1074  # subnormal
        reprs.append(repr(x))
    lines = [f"{i} {i + 1} {s}" for i, s in enumerate(reprs)]
    arrays = graph_module._parse_arrays(lines, False)
    assert arrays is not None
    want = np.array([float(s) for s in reprs])
    assert arrays[2].tobytes() == want.tobytes()


@given(edge_lists())
@settings(max_examples=80, deadline=None)
def test_csr_arrays_list_each_nodes_edges_in_id_order(edges):
    n = 1 + max(max(u, v) for u, v, _ in edges)
    g = Graph(n, edges)
    assert g.edges == tuple(edges)
    assert len(g.in_ptr) == len(g.out_ptr) == n + 1
    by_id = list(enumerate(g.edges))
    for node in range(n):
        ins = [(u, p) for _, (u, v, p) in by_id if v == node]
        outs = [(v, e) for e, (u, v, _) in by_id if u == node]
        slots = slice(g.in_ptr[node], g.in_ptr[node + 1])  # the in-CSR slots, in edge-id order
        assert g.in_src[slots].tolist() == [u for u, _ in ins]
        assert g.in_prob[slots].tolist() == [p for _, p in ins]
        slots = slice(g.out_ptr[node], g.out_ptr[node + 1])  # the out-CSR slots, likewise
        assert g.out_dst[slots].tolist() == [v for v, _ in outs]
        assert g.out_eid[slots].tolist() == [e for _, e in outs]


# -- the file path of the loader against its lines -----------------------------

FILE_CORPUS = LOADER_CORPUS + [
    "0 1 0.5\r1 2 0.25\r",  # lone CR line ends
    "0 1 0.5\r\n1 2 0.25\r2 0 1\n",  # mixed line ends
    "0 1 0.5\x0c\n1 2 0.25\n",  # a form feed ends a line that holds an edge
    "0 1\x0c0.5\n",  # ... and splits one in two
    "0 1 0.5\x85\n",  # so does U+0085
    "0\x851 0.5\n",
    "0 1 0.5\n1 2 0.25\n",
    "0\v1 0.5\n0 1\x1c0.5\n0\x1d1\x1e0.5\n",
    "0 1 0.5\x0c\x0c\n\x0c1 2 0.25\n",
    "0\xa01 0.5\n1 2　0.25\n",  # whitespace that is no line break
    "0\t1\t0.5\n\t1 2\t0.25\t\n",
    "0 1 0.5\n1 2 0.25\n\n\n   \n",  # trailing blank lines
    "0 1 0.5\n1 2 0.25",  # no final line end
    "# one\n# two\n",
    "\n\n",
    "0 1 0.5\n1 2 0.25 # inline\n",
    "0 1 0.5#\n",
    "1_0 2 0.5\n2 1_0 0.25\n",
    "﻿0 1 0.5\n",
]


@pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
@pytest.mark.parametrize("compact_ids", [False, True], ids=["ids", "compact"])
def test_file_loader_equals_its_lines(tmp_path, undirected, compact_ids):
    texts = [path.read_text() for path in sorted(CONFIGS.glob("*.edges"))]
    from test_golden import FRACTIONAL_EDGES

    texts.append(FRACTIONAL_EDGES)
    file_runs = 0
    for k, text in enumerate(texts + FILE_CORPUS):
        if ("5000000000" in text or "99999999999999999999" in text) and not compact_ids:
            continue  # as in the corpus test above
        path = tmp_path / f"g{k}.edges"
        path.write_text(text, newline="")  # line ends as written
        lines = path.read_text().splitlines()
        want = _outcome(graph_module._load_lines, lines, undirected, compact_ids)
        got = _outcome(load_edge_list, path, undirected, compact_ids)
        assert type(got) is type(want), repr(text)
        if isinstance(want, str):
            assert graph_module._parse_arrays(path, undirected) is None, repr(text)
            assert got == want, repr(text)
        else:
            _same_graph(got, want)
            _same_graph(got, load_edge_list(lines, undirected, compact_ids))
            file_runs += graph_module._parse_arrays(path, undirected) is not None
    assert file_runs >= 12  # most accepted files never become lines


def test_a_comment_free_file_is_never_read_as_lines(tmp_path, monkeypatch):
    path = tmp_path / "g.edges"
    path.write_text("0 1 0.5\n1 2 0.25\n\n2 0 1\n")
    want = load_edge_list(path.read_text().splitlines())

    def refuse(*args, **kwargs):
        raise AssertionError("read as lines")

    monkeypatch.setattr(graph_module, "_load_lines", refuse)
    monkeypatch.setattr(graph_module.Path, "read_text", refuse)
    _same_graph(load_edge_list(path), want)


def test_an_undecodable_file_raises_as_read_text_does(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"0 1 0.5\n\xff\xfe 2 0.25\n")
    with pytest.raises(UnicodeDecodeError) as want:
        path.read_text()
    assert graph_module._parse_arrays(path, False) is None
    with pytest.raises(UnicodeDecodeError) as got:
        load_edge_list(path)
    assert str(got.value) == str(want.value)


# -- one plain sort against the stable argsort ---------------------------------


def _same_order(n: int, keys: np.ndarray) -> None:
    want = np.argsort(keys, kind="stable")
    got = graph_module.stable_order(n, keys)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_csr_order_is_the_stable_argsort():
    from test_golden import FRACTIONAL_EDGES

    from welfaremax.ris import sample_marginal_rr, sample_rr

    graphs = [load_edge_list(path) for path in sorted(CONFIGS.glob("*.edges"))]
    graphs += [graph_from(FRACTIONAL_EDGES), graph_from(LOADER_CORPUS[0])]
    rng = random.Random(23)
    for g in graphs:
        for keys in (g.src, g.dst):
            _same_order(g.n, keys)
            ptr, order = graph_module.csr(g.n, keys)
            assert np.array_equal(order, np.argsort(keys, kind="stable"))
            assert np.array_equal(ptr[1:], np.cumsum(np.bincount(keys, minlength=g.n)))
        for rr in (sample_rr(g, 300, rng), sample_marginal_rr(g, frozenset({0}), 300, rng)):
            _same_order(g.n, rr._arrays()[0])
    draw = np.random.default_rng(23)
    for n in (1, 2, 3, 7, 50, 1000):
        for m in (0, 1, 2, 5, 64, 1000, 20_000):
            _same_order(n, draw.integers(0, n, m))  # ties everywhere once m > n
            _same_order(n, np.sort(draw.integers(0, n, m))[::-1].copy())
            _same_order(n, draw.integers(0, n, m, dtype=np.int32))
    _same_order(0, np.zeros(0, dtype=np.int64))
    _same_order(1, np.zeros(5, dtype=np.int64))


@pytest.mark.parametrize(
    "n, m",
    [(2**62 - 1, 2), (2**62, 2), (2**62 + 1, 2), (2**63 // 3, 3), (2**63 // 3 + 1, 3)],
    ids=["below", "at", "over", "below-m3", "over-m3"],
)
def test_csr_order_falls_back_to_the_argsort_where_keys_overflow(n, m):
    # n * m straddles 2**63 with no n-sized array: the order does not count keys
    keys = np.zeros(m, dtype=np.int64)
    for top in (0, m // 2, m - 1):
        keys[:] = 0
        keys[top] = n - 1
        _same_order(n, keys)
        _same_order(n, n - 1 - keys)
