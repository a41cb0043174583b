import csv

import pytest

from welfaremax.cli import main

from conftest import CONFIGS


def run_cli(*args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_allocate_counterexample_fixture(tmp_path):
    out = tmp_path / "out.csv"
    code = run_cli(
        "allocate",
        "--graph", CONFIGS / "edge_pair.edges",
        "--catalog", CONFIGS / "trio_partial.cfg",
        "--algo", "seqgrd",
        "--budgets", "i1=1",
        "--samples", "300",
        "--seed", "1",
        "--out", out,
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["algorithm", "adopt_i1", "adopt_i2", "adopt_i3", "welfare", "stderr", "allocation"]
    assert rows[1][0] == "seqgrd"
    assert float(rows[1][4]) == 8.0
    assert float(rows[1][5]) == 0.0
    assert rows[1][6] == "0:i1"


def test_missing_graph_exits_2(tmp_path, capsys):
    code = run_cli(
        "allocate",
        "--graph", tmp_path / "nope.edges",
        "--catalog", CONFIGS / "trio_partial.cfg",
        "--algo", "seqgrd",
    )
    assert code == 2
    assert "graph not found" in capsys.readouterr().err


def test_compare_rows_and_shared_estimation(tmp_path):
    out = tmp_path / "cmp.csv"
    code = run_cli(
        "compare",
        "--graph", CONFIGS / "fork4.edges",
        "--catalog", CONFIGS / "pair_strong_weak.cfg",
        "--algos", "seqgrd,round-robin,snake",
        "--samples", "200",
        "--seed", "9",
        "--out", out,
    )
    assert code == 0
    rows = read_csv(out)
    assert [r[0] for r in rows] == ["algorithm", "seqgrd", "round-robin", "snake"]
    # identical allocations get identical estimates under the shared seed
    by_algo = {r[0]: r for r in rows[1:]}
    assert by_algo["seqgrd"][5] == by_algo["round-robin"][5] == "0:i;3:j"
    assert by_algo["seqgrd"][3] == by_algo["round-robin"][3]


def test_compare_byte_identical_reruns(tmp_path):
    args = [
        "compare",
        "--graph", CONFIGS / "fork4.edges",
        "--catalog", CONFIGS / "pair_strong_weak.cfg",
        "--algos", "seqgrd,seqgrd-nm,maxgrd,max-seq,round-robin,snake",
        "--samples", "150",
        "--seed", "4",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_oracle_exact_welfare_and_exit_codes(tmp_path, capsys):
    alloc_file = tmp_path / "alloc.txt"
    alloc_file.write_text("0 i1\n")
    out = tmp_path / "oracle.csv"
    code = run_cli(
        "oracle",
        "--graph", CONFIGS / "edge_pair.edges",
        "--catalog", CONFIGS / "trio_partial.cfg",
        "--allocation", alloc_file,
        "--out", out,
    )
    assert code == 0
    rows = read_csv(out)
    assert float(rows[1][4]) == 8.0

    empty_alloc = tmp_path / "empty.txt"
    empty_alloc.write_text("")
    code = run_cli(
        "oracle",
        "--graph", CONFIGS / "edge_pair.edges",
        "--catalog", CONFIGS / "trio_partial.cfg",
        "--allocation", empty_alloc,
        "--out", tmp_path / "o2.csv",
    )
    assert code == 0
    assert float(read_csv(tmp_path / "o2.csv")[1][4]) == 0.0


def test_oracle_limit_exit_3(tmp_path, capsys):
    big = tmp_path / "big.edges"
    big.write_text("".join(f"0 {k} 0.5\n" for k in range(1, 18)))
    code = run_cli(
        "oracle",
        "--graph", big,
        "--catalog", CONFIGS / "trio_partial.cfg",
        "--allocation", CONFIGS / "genre_probs.txt",  # never reached
        "--max-edges", "15",
    )
    assert code in (2, 3)  # allocation parse may trip first; force clean case below
    alloc_file = tmp_path / "a.txt"
    alloc_file.write_text("0 i1\n")
    code = run_cli(
        "oracle",
        "--graph", big,
        "--catalog", CONFIGS / "trio_partial.cfg",
        "--allocation", alloc_file,
    )
    assert code == 3
    assert "exceeds" in capsys.readouterr().err


def test_oracle_optimal_matches_api(tmp_path):
    out = tmp_path / "opt.csv"
    code = run_cli(
        "oracle",
        "--graph", CONFIGS / "fork4.edges",
        "--catalog", CONFIGS / "pair_strong_weak.cfg",
        "--optimal",
        "--budgets", "i=1,j=1",
        "--out", out,
    )
    assert code == 0
    rows = read_csv(out)
    from welfaremax.cli import load_catalog_file, load_graph_file
    from welfaremax.oracle import optimal_allocation

    g = load_graph_file(str(CONFIGS / "fork4.edges"))
    cat = load_catalog_file(str(CONFIGS / "pair_strong_weak.cfg")).catalog
    _, want = optimal_allocation(g, cat, {"i": 1, "j": 1})
    assert float(rows[1][3]) == want


def test_convert_utilities_fragment(tmp_path):
    out = tmp_path / "utils.txt"
    code = run_cli("convert-utilities", "--probs", CONFIGS / "genre_probs.txt", "--out", out)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    vals = {ln.split(" = ")[0]: float(ln.split(" = ")[1]) for ln in lines}
    assert abs(vals["indie"] - 7.0) < 0.05
    assert abs(vals["progressive_metal"] - 4.7) < 0.05


def test_convert_utilities_identity(tmp_path):
    probs = tmp_path / "p.txt"
    probs.write_text("x 0.0001\n")
    out = tmp_path / "u.txt"
    assert run_cli("convert-utilities", "--probs", probs, "--out", out) == 0
    assert float(out.read_text().split(" = ")[1]) == pytest.approx(0.0, abs=1e-9)


def test_convert_utilities_rejects_nonpositive(tmp_path, capsys):
    probs = tmp_path / "p.txt"
    probs.write_text("x 0\n")
    assert run_cli("convert-utilities", "--probs", probs) == 2


def test_validate_config_pass_and_fail(tmp_path, capsys):
    assert run_cli("validate-config", "--catalog", CONFIGS / "premium_quad.cfg") == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "[items]\na price=0\nb price=0\n[valuation]\na = 1\nb = 1\na,b = 3\n"
    )
    assert run_cli("validate-config", "--catalog", bad) == 1
    assert "submodularity" in capsys.readouterr().out


def test_estimate_subcommand(tmp_path):
    alloc_file = tmp_path / "alloc.txt"
    alloc_file.write_text("0 i\n")
    out = tmp_path / "est.csv"
    code = run_cli(
        "estimate",
        "--graph", CONFIGS / "fork4.edges",
        "--catalog", CONFIGS / "pair_strong_weak.cfg",
        "--allocation", alloc_file,
        "--samples", "100",
        "--out", out,
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[1][0] == "estimate"
    assert float(rows[1][3]) == 30.0


def test_undirected_and_compact_ids(tmp_path):
    raw = tmp_path / "g.edges"
    raw.write_text("10 20 0.5\n20 30 0.5\n")
    out = tmp_path / "est.csv"
    alloc_file = tmp_path / "alloc.txt"
    alloc_file.write_text("0 a\n")
    cat = tmp_path / "cat.cfg"
    cat.write_text("[items]\na price=0\n[valuation]\na = 1\n")
    code = run_cli(
        "estimate",
        "--graph", raw,
        "--catalog", cat,
        "--allocation", alloc_file,
        "--samples", "50",
        "--undirected",
        "--compact-ids",
        "--out", out,
    )
    assert code == 0
    # undirected expansion makes node 0 reach everything through both edges
    rows = read_csv(out)
    assert float(rows[1][2]) > 1.0


def test_rr_stats(tmp_path):
    out = tmp_path / "rr.csv"
    code = run_cli(
        "rr-stats",
        "--graph", CONFIGS / "path6.edges",
        "--count", "500",
        "--seed", "3",
        "--out", out,
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["stat", "value"]
    total = int(dict(rows[1:])["sets"])
    assert total == 500
    code = run_cli(
        "rr-stats",
        "--graph", CONFIGS / "path6.edges",
        "--count", "200",
        "--fixed", "0",
        "--seed", "3",
        "--out", out,
    )
    assert code == 0
    stats = dict(read_csv(out)[1:])
    assert int(stats["empty"]) == 200  # node 0 sits upstream of every root


def test_trace_file_written(tmp_path):
    trace = tmp_path / "trace.log"
    code = run_cli(
        "allocate",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", CONFIGS / "trio_blocking.cfg",
        "--algo", "seqgrd",
        "--samples", "200",
        "--seed", "2",
        "--trace", trace,
        "--out", tmp_path / "o.csv",
    )
    assert code == 0
    content = trace.read_text()
    assert "phase=tentative" in content
    assert "decision=defer" in content


def test_round_robin_drops_zero_budgets(tmp_path):
    def allocate(budgets, out):
        return run_cli(
            "allocate",
            "--graph", CONFIGS / "path6.edges",
            "--catalog", CONFIGS / "trio_blocking.cfg",
            "--algo", "round-robin",
            "--budgets", budgets,
            "--samples", "50",
            "--seed", "3",
            "--out", out,
        )

    assert allocate("i=1,j=1,k=0", tmp_path / "zero.csv") == 0
    assert allocate("i=1,j=1", tmp_path / "plain.csv") == 0
    with_zero = read_csv(tmp_path / "zero.csv")[1]
    without = read_csv(tmp_path / "plain.csv")[1]
    assert with_zero[-1] == without[-1] == "0:i;1:j"


def test_snake_all_budgets_zero_allocates_nothing(tmp_path):
    out = tmp_path / "snake.csv"
    code = run_cli(
        "allocate",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", CONFIGS / "trio_blocking.cfg",
        "--algo", "snake",
        "--budgets", "i=0,j=0,k=0",
        "--samples", "50",
        "--out", out,
    )
    assert code == 0
    row = read_csv(out)[1]
    assert row[0] == "snake"
    assert float(row[4]) == 0.0
    assert row[-1] == ""


def test_two_column_edge_list_exits_2(tmp_path, capsys):
    graph = tmp_path / "cycle.edges"
    graph.write_text("# a cycle without probabilities\n0 1\n1 2\n2 3\n3 0\n")
    code = run_cli(
        "allocate",
        "--graph", graph,
        "--catalog", CONFIGS / "trio_blocking.cfg",
        "--algo", "seqgrd",
        "--budgets", "i=1",
        "--samples", "50",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "src dst prob" in err
