import csv

import pytest

from welfaremax import selectors
from welfaremax.cli import load_graph_file, main

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


@pytest.mark.parametrize("scale", ["-1", "0"])
def test_convert_utilities_rejects_nonpositive_scale(tmp_path, capsys, scale):
    probs = tmp_path / "p.txt"
    probs.write_text("x 0.5\n")
    assert run_cli("convert-utilities", "--probs", probs, "--scale", scale) == 2
    err = capsys.readouterr().err
    assert f"scale must be positive, got {float(scale)}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "items, valuation, message",
    [
        ("a price=abc noise=zero", "a = 1", "line 2: price must be a number, got 'abc'"),
        ("a price=1 noise=gaussian sigma=wide", "a = 1", "line 2: noise sigma must be a number"),
        ("a price=1 noise=two-point a=x", "a = 1", "line 2: noise a must be a number, got 'x'"),
        ("a price=1", "a = lots", "line 4: valuation must be a number, got 'lots'"),
    ],
    ids=["price", "gaussian-sigma", "two-point-a", "valuation"],
)
def test_validate_config_non_numeric_values_exit_2(tmp_path, capsys, items, valuation, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[items]\n{items}\n[valuation]\n{valuation}\n")
    assert run_cli("validate-config", "--catalog", cfg) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("validate-config", "[items]\na price=nan\n", "line 2: price must be finite, got 'nan'"),
        ("validate-config", "[items]\na price=inf\n", "line 2: price must be finite, got 'inf'"),
        (
            "validate-config",
            "[items]\na price=1 noise=gaussian sigma=nan\n",
            "line 2: noise sigma must be finite, got 'nan'",
        ),
        (
            "validate-config",
            "[items]\na price=1 noise=truncated-gaussian sigma=1 bound=inf\n",
            "line 2: noise bound must be finite, got 'inf'",
        ),
        (
            "validate-config",
            "[items]\na price=1 noise=two-point a=nan\n",
            "line 2: noise a must be finite, got 'nan'",
        ),
        (
            "validate-config",
            "[items]\na price=1\n[valuation]\na = nan\n",
            "line 4: valuation must be finite, got 'nan'",
        ),
        (
            "allocate",
            "[items]\na price=1 noise=gaussian sigma=nan\n[valuation]\na = 2\n",
            "line 2: noise sigma must be finite, got 'nan'",
        ),
        (
            "convert-utilities",
            "x 0.5\ny nan\n",
            "adoption probability must be positive and finite, got nan",
        ),
    ],
    ids=[
        "price-nan", "price-inf", "sigma-nan", "bound-inf", "a-nan", "valuation-nan",
        "allocate-sigma-nan", "probability-nan",
    ],
)
def test_non_finite_inputs_exit_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    out = tmp_path / "out.txt"
    if command == "convert-utilities":
        args = ["--probs", path, "--out", out]
    elif command == "allocate":
        args = [
            "--graph", CONFIGS / "path6.edges", "--catalog", path, "--algo", "seqgrd-nm",
            "--budgets", "a=1", "--samples", "20", "--seed", "1", "--out", out,
        ]
    else:
        args = ["--catalog", path]
    assert run_cli(command, *args) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists() or out.read_text() == ""  # --out opens first, stays empty


def test_validate_config_repeated_item_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[items]\na price=1 price=5\n[valuation]\na = 9\n")
    assert run_cli("validate-config", "--catalog", cfg) == 2
    err = capsys.readouterr().err
    assert "line 2: duplicate key 'price'" in err
    assert "Traceback" not in err


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


NON_SUPERIOR = ("seqgrd", "seqgrd-nm", "maxgrd", "max-seq", "gm", "round-robin", "snake")


@pytest.mark.parametrize("fractional", [False, True], ids=["path6", "fractional"])
def test_allocate_row_equals_compare_row(tmp_path, fractional):
    from test_golden import FRACTIONAL_EDGES

    graph = CONFIGS / "path6.edges"
    if fractional:
        graph = tmp_path / "fractional.edges"
        graph.write_text(FRACTIONAL_EDGES)
    shared = ["--graph", graph, "--catalog", CONFIGS / "trio_blocking.cfg",
              "--samples", "40", "--seed", "5"]
    assert run_cli("compare", *shared, "--algos", ",".join(NON_SUPERIOR),
                   "--out", tmp_path / "cmp.csv") == 0
    compared = read_csv(tmp_path / "cmp.csv")
    assert [r[0] for r in compared[1:]] == list(NON_SUPERIOR)
    for row in compared[1:]:
        out = tmp_path / f"{row[0]}.csv"
        assert run_cli("allocate", *shared, "--algo", row[0], "--out", out) == 0
        assert read_csv(out) == [compared[0], row]


def test_compare_loads_inputs_once(tmp_path, monkeypatch):
    from welfaremax import cli

    calls = {"load_graph_file": 0, "load_catalog_file": 0}

    def counted(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    code = run_cli(
        "compare",
        "--graph", CONFIGS / "fork4.edges",
        "--catalog", CONFIGS / "pair_strong_weak.cfg",
        "--algos", "seqgrd,round-robin,snake",
        "--samples", "50",
        "--out", tmp_path / "cmp.csv",
    )
    assert code == 0
    assert calls == {"load_graph_file": 1, "load_catalog_file": 1}


def test_compare_trace_keeps_every_algorithm(tmp_path):
    trace = tmp_path / "trace.log"
    code = run_cli(
        "compare",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", CONFIGS / "trio_blocking.cfg",
        "--algos", "seqgrd,seqgrd-nm",
        "--samples", "50",
        "--seed", "2",
        "--trace", trace,
        "--out", tmp_path / "o.csv",
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    first = lines.index("phase=run algorithm=seqgrd")
    second = lines.index("phase=run algorithm=seqgrd-nm")
    assert first == 0 < second
    assert any(line.startswith("phase=tentative") for line in lines[first:second])
    assert len(lines) > second + 1  # seqgrd-nm's own events follow its marker


@pytest.mark.parametrize(
    "argv",
    [
        ["allocate", "--algo", "seqgrd", "--samples", "0"],
        ["compare", "--algos", "seqgrd,snake", "--samples", "0"],
        ["estimate", "--allocation", CONFIGS / "genre_probs.txt", "--samples", "0"],
        ["rr-stats", "--count", "-5"],
    ],
    ids=["allocate-samples", "compare-samples", "estimate-samples", "rr-stats-count"],
)
def test_bad_counts_exit_2(argv, capsys):
    graph = ["--graph", CONFIGS / "path6.edges"]
    if argv[0] != "rr-stats":
        graph += ["--catalog", CONFIGS / "trio_blocking.cfg"]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *graph)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "must be >= 1" in err
    assert "Traceback" not in err


def test_negative_flag_budget_exits_2(tmp_path, capsys):
    code = run_cli(
        "allocate",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", CONFIGS / "trio_blocking.cfg",
        "--algo", "round-robin",
        "--budgets", "i=1,j=-1",
        "--samples", "50",
        "--out", tmp_path / "o.csv",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "'j'" in err and "non-negative" in err


def test_duplicate_flag_budget_exits_2(tmp_path, capsys):
    code = run_cli(
        "allocate",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", CONFIGS / "trio_blocking.cfg",
        "--algo", "round-robin",
        "--budgets", "i=1,i=2",
        "--samples", "50",
        "--out", tmp_path / "o.csv",
    )
    assert code == 2
    assert "duplicate budget for 'i'" in capsys.readouterr().err


def test_duplicate_section_budget_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    text = (CONFIGS / "trio_blocking.cfg").read_text()
    cfg.write_text(text + "i = 2\n")
    code = run_cli(
        "allocate",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", cfg,
        "--algo", "round-robin",
        "--samples", "50",
        "--out", tmp_path / "o.csv",
    )
    assert code == 2
    line = len(text.splitlines()) + 1
    assert f"line {line}: duplicate budget for 'i'" in capsys.readouterr().err


@pytest.mark.parametrize("fixed", ["999", "2,6", "-1", "x"])
def test_rr_stats_rejects_bad_fixed_nodes(tmp_path, capsys, fixed):
    code = run_cli(
        "rr-stats",
        "--graph", CONFIGS / "path6.edges",
        "--count", "10",
        "--fixed", fixed,
        "--out", tmp_path / "rr.csv",
    )
    assert code == 2
    assert "--fixed" in capsys.readouterr().err


def test_supgrd_non_superior_item_exits_2(tmp_path, capsys):
    base = tmp_path / "base.txt"
    base.write_text("0 i\n")
    code = run_cli(
        "allocate",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", CONFIGS / "pair_strong_weak.cfg",
        "--algo", "supgrd",
        "--budgets", "j=1",
        "--base", base,
        "--samples", "50",
        "--out", tmp_path / "o.csv",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error: supgrd:" in err and "'j'" in err


@pytest.mark.parametrize("command", ["allocate", "estimate", "oracle"])
def test_allocation_node_outside_graph_exits_2(tmp_path, capsys, command):
    alloc = tmp_path / "alloc.txt"
    alloc.write_text("0 i\n99 k\n")
    argv = [command, "--graph", CONFIGS / "path6.edges", "--catalog", CONFIGS / "trio_blocking.cfg"]
    if command == "allocate":
        argv += ["--algo", "round-robin", "--budgets", "j=1", "--base", alloc, "--samples", "10"]
    else:
        argv += ["--allocation", alloc]
    assert run_cli(*argv) == 2
    assert "line 2: node 99 outside [0, 6)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1 0.5\n1 2 0.5\n2 3 1.5\n", "line 3: probability 1.5 outside [0, 1]"),
        ("0 1 0.5\n1 0 0.5\n", "line 2: duplicate edge (1, 0)"),
    ],
    ids=["bad-probability", "listed-both-ways"],
)
def test_undirected_errors_name_the_file_line(tmp_path, capsys, text, message):
    graph = tmp_path / "g.edges"
    graph.write_text(text)
    assert run_cli("rr-stats", "--graph", graph, "--undirected", "--count", "1") == 2
    assert message in capsys.readouterr().err


def test_undirected_compact_ids_graph(tmp_path):
    graph = tmp_path / "sparse.edges"
    graph.write_text("# sparse ids\n7 3 0.5\n3 12 0.25\n\n12 40 1\n40 7 0.125\n")
    g = load_graph_file(str(graph), undirected=True, compact_ids=True)
    assert g.n == 4
    # each edge is followed by its reverse; ids 3, 7, 12, 40 become 0, 1, 2, 3
    assert g.edges == (
        (1, 0, 0.5), (0, 1, 0.5), (0, 2, 0.25), (2, 0, 0.25),
        (2, 3, 1.0), (3, 2, 1.0), (3, 1, 0.125), (1, 3, 0.125),
    )


NO_INPUTS = ["--graph", "nope.edges", "--catalog", "nope.cfg"]  # neither file exists


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["allocate", *NO_INPUTS, "--algo", "seqgrd"], "--out"),
        (["allocate", *NO_INPUTS, "--algo", "seqgrd"], "--trace"),
        (["compare", *NO_INPUTS, "--algos", "seqgrd,snake"], "--out"),
        (["compare", *NO_INPUTS, "--algos", "seqgrd,snake"], "--trace"),
        (["estimate", *NO_INPUTS, "--allocation", "nope.txt"], "--out"),
        (["oracle", *NO_INPUTS, "--allocation", "nope.txt"], "--out"),
        (["rr-stats", "--graph", "nope.edges"], "--out"),
        (["convert-utilities", "--probs", "nope.txt"], "--out"),
    ],
    ids=[
        "allocate-out", "allocate-trace", "compare-out", "compare-trace",
        "estimate-out", "oracle-out", "rr-stats-out", "convert-utilities-out",
    ],
)
def test_unopenable_output_exits_2_before_loading(tmp_path, capsys, argv, flag):
    # reading any input first would fail on that missing file instead
    target = tmp_path / "missing-dir" / "x"
    assert run_cli(*argv, flag, target) == 2
    err = capsys.readouterr().err
    assert f"error: cannot open {flag} {target}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("algo", ["seqgrd", "seqgrd-nm", "maxgrd", "round-robin", "snake"])
def test_base_overlapping_an_allocated_item_exits_2(tmp_path, capsys, algo):
    base = tmp_path / "base.txt"
    base.write_text("0 i\n")
    code = run_cli(
        "allocate",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", CONFIGS / "pair_even.cfg",
        "--algo", algo,
        "--budgets", "i=1,j=1",
        "--base", base,
        "--samples", "20",
        "--out", tmp_path / "o.csv",
    )
    assert code == 2
    assert "items to allocate overlap the base allocation" in capsys.readouterr().err


def _supgrd(tmp_path, budgets, base_line):
    base = tmp_path / "base.txt"
    base.write_text(base_line + "\n")
    return run_cli(
        "allocate",
        "--graph", CONFIGS / "fork4.edges",
        "--catalog", CONFIGS / "pair_strong_weak.cfg",
        "--algo", "supgrd",
        "--budgets", budgets,
        "--base", base,
        "--samples", "20",
        "--out", tmp_path / "o.csv",
    )


def test_supgrd_zero_budget_allocates_nothing(tmp_path):
    assert _supgrd(tmp_path, "i=0", "3 j") == 0
    row = read_csv(tmp_path / "o.csv")[1]
    assert row[0] == "supgrd"
    assert row[-1] == ""


def test_supgrd_zero_budget_on_an_inferior_item_exits_2(tmp_path, capsys):
    assert _supgrd(tmp_path, "j=0", "3 i") == 2
    assert "supgrd: superior item is 'i', not 'j'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "algo, budgets, base_line, message",
    [
        ("max-seq", "i=1", "3 j", "max-seq: needs an empty base allocation"),
        ("gm", "i=1", "3 j", "gm: needs an empty base allocation"),
        ("supgrd", "i=1,j=1", None, "supgrd: budgets must name exactly the superior item"),
    ],
    ids=["max-seq-base", "gm-base", "supgrd-two-items"],
)
def test_algorithm_preconditions_exit_2(tmp_path, capsys, algo, budgets, base_line, message):
    argv = [
        "allocate",
        "--graph", CONFIGS / "fork4.edges",
        "--catalog", CONFIGS / "pair_strong_weak.cfg",
        "--algo", algo,
        "--budgets", budgets,
        "--samples", "20",
        "--out", tmp_path / "o.csv",
    ]
    if base_line:
        (tmp_path / "base.txt").write_text(base_line + "\n")
        argv += ["--base", tmp_path / "base.txt"]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count(algo) == 1


def test_empty_algorithm_list_exits_2(tmp_path, capsys):
    code = run_cli(
        "compare",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", CONFIGS / "trio_blocking.cfg",
        "--algos", ",",
        "--out", tmp_path / "o.csv",
    )
    assert code == 2
    assert "no algorithms given" in capsys.readouterr().err


def test_rr_set_cap_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(selectors, "MAX_RR_SETS", 10)
    code = run_cli(
        "allocate",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", CONFIGS / "trio_blocking.cfg",
        "--algo", "seqgrd",
        "--samples", "20",
        "--out", tmp_path / "o.csv",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "error: seqgrd: planned" in err and "RR sets, cap is 10" in err


@pytest.mark.parametrize(
    "flag, value, code, message",
    [
        ("--ell", "inf", 2, "error: seqgrd: ell must be positive and finite, got inf"),
        ("--ell", "nan", 2, "error: seqgrd: ell must be positive and finite, got nan"),
        ("--ell", "1e308", 3, "error: seqgrd: planned inf RR sets"),
        ("--epsilon", "1e-300", 3, "error: seqgrd: planned inf RR sets"),
    ],
    ids=["ell-inf", "ell-nan", "ell-huge", "epsilon-tiny"],
)
def test_extreme_accuracy_knobs_exit_cleanly(tmp_path, capsys, flag, value, code, message):
    assert run_cli(
        "allocate",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", CONFIGS / "trio_blocking.cfg",
        "--algo", "seqgrd",
        "--samples", "20",
        flag, value,
        "--out", tmp_path / "o.csv",
    ) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
