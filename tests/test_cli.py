import csv
import math
import re

import pytest

from welfaremax import allocators, selectors
from welfaremax.cli import load_graph_file, main
from welfaremax.utility import CatalogError, load_catalog_config

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
    from welfaremax.oracle import WelfareOracle

    g = load_graph_file(str(CONFIGS / "fork4.edges"))
    cat = load_catalog_file(str(CONFIGS / "pair_strong_weak.cfg")).catalog
    _, want, _ = WelfareOracle(g, cat).optimal({"i": 1, "j": 1})
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


@pytest.mark.parametrize(
    "prob, code, text",
    [
        ("3.5", 2, "error: adoption probability must be at most 1, got 3.5"),
        ("1.0000000000000002", 2, "must be at most 1, got 1.0000000000000002"),
        ("1", 0, f"x = {math.log(10000.0):.17g}\n"),
    ],
    ids=["above-one", "just-above-one", "one"],
)
def test_convert_utilities_caps_probability_at_one(tmp_path, capsys, prob, code, text):
    probs = tmp_path / "p.txt"
    probs.write_text(f"x {prob}\n")
    out = tmp_path / "u.txt"
    assert run_cli("convert-utilities", "--probs", probs, "--out", out) == code
    err = capsys.readouterr().err
    assert text in (err if code else out.read_text())
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["allocate", "convert-utilities"])
def test_failed_run_leaves_an_existing_output_file_as_it_was(tmp_path, capsys, command):
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier output\n")
    bad = tmp_path / "bad.txt"
    if command == "allocate":
        bad.write_text("[items]\na price=abc\n[valuation]\na = 2\n")
        argv = [
            "allocate", "--graph", CONFIGS / "path6.edges", "--catalog", bad,
            "--algo", "seqgrd-nm", "--budgets", "a=1", "--samples", "20",
        ]
    else:
        bad.write_text("x 0.5\ny nan\n")
        argv = ["convert-utilities", "--probs", bad]
    assert run_cli(*argv, "--out", out) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert out.read_bytes() == b"earlier output\n"


def test_successful_run_replaces_an_existing_output_file(tmp_path):
    out = tmp_path / "u.txt"
    out.write_text("a longer earlier output than the new one\n" * 3)
    probs = tmp_path / "p.txt"
    probs.write_text("x 0.0001\n")
    assert run_cli("convert-utilities", "--probs", probs, "--out", out) == 0
    assert out.read_text() == "x = 0\n"
    assert run_cli("convert-utilities", "--probs", probs, "--out", "/dev/null") == 0  # no truncate


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("[items]\na price=1 loud\n", "line 2: expected key=value, got 'loud'"),
        ("[items]\na price=1 noise=cauchy\n", "line 2: unknown noise kind 'cauchy'"),
        ("[items]\na price=1 noise=gaussian sigma=0\n", "line 2: gaussian noise needs sigma > 0"),
        (
            "[items]\na price=1 noise=truncated-gaussian sigma=1 bound=0\n",
            "line 2: truncated-gaussian noise needs bound > 0",
        ),
        ("[items]\na price=1 noise=two-point a=-1\n", "line 2: two-point noise needs a > 0"),
        ("[items]\na price=1\n[valuation]\na 3\n", "line 4: expected 'ids = value'"),
        ("[items]\na price=1\n[valuation]\n, = 3\n", "line 4: empty itemset"),
        (
            "[items]\na price=1\nb price=1\n[valuation]\na,a = 4\n",
            "line 5: an item repeats in ('a', 'a')",
        ),
        (
            "[items]\na price=1\n[valuation]\na = 3\na = 4\n",
            "line 5: duplicate valuation for ('a',)",
        ),
        (
            "[items]\na price=1\nb price=1\n[valuation]\na,b = 4\nb,a = 4\n",
            "line 6: duplicate valuation for ('b', 'a')",
        ),
        ("[items]\na price=1\n[budgets]\na 1\n", "line 4: expected 'id = count'"),
        ("[items]\na price=1\n[budgets]\nz = 1\n", "line 4: unknown item 'z' in budgets"),
        ("[items]\na price=1\n[budgets]\na = -1\n", "line 4: budget must be non-negative"),
        ("[valuation]\n", "config defines no items"),
    ],
    ids=[
        "key-value", "noise-kind", "sigma-zero", "bound-zero", "a-negative", "valuation-line",
        "empty-itemset", "repeated-item", "duplicate-valuation", "reordered-valuation",
        "budget-line", "budget-item", "budget-negative", "no-items",
    ],
)
def test_catalog_errors_exit_2_naming_the_line(tmp_path, capsys, text, message):
    with pytest.raises(CatalogError, match=re.escape(message)):
        load_catalog_config(text.splitlines())
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert run_cli("validate-config", "--catalog", cfg) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad catalog {cfg}: {message}\n"  # no traceback


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


def test_supgrd_superior_item_never_adopted_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[items]\na price=1\nb price=1\n[valuation]\na = 1\nb = 0\n")
    base = tmp_path / "base.txt"
    base.write_text("0 b\n")
    code = run_cli(
        "allocate",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", cfg,
        "--algo", "supgrd",
        "--budgets", "a=1",
        "--base", base,
        "--samples", "20",
        "--out", tmp_path / "o.csv",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error: supgrd: superior item has zero expected truncated utility" in err
    assert "Traceback" not in err


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
        ("--ell", "inf", 2, "error: ell must be positive and finite, got inf"),
        ("--ell", "nan", 2, "error: ell must be positive and finite, got nan"),
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["compare", *NO_INPUTS, "--algos", "gm,round-robin,seqgrd", "--epsilon", "7"],
            "error: eps must lie in (0, 1)\n",
        ),
        (
            [
                "allocate", "--graph", CONFIGS / "path6.edges",
                "--catalog", CONFIGS / "trio_blocking.cfg", "--algo", "gm", "--ell", "nan",
            ],
            "error: ell must be positive and finite, got nan\n",
        ),
    ],
    ids=["compare-eps", "gm-ell"],
)
def test_accuracy_knobs_are_checked_before_any_input_or_trace(tmp_path, capsys, argv, message):
    trace = tmp_path / "t.txt"
    trace.write_text("earlier trace\n")
    assert run_cli(*argv, "--samples", "20", "--trace", trace) == 2
    assert capsys.readouterr().err == message  # no algorithm named, no traceback
    assert trace.read_text() == "earlier trace\n"


def test_budgets_deal_in_catalog_order_whatever_the_flag_order(tmp_path):
    outs = []
    for budgets in ("j=1,i=1", "i=1,j=1"):
        outs.append(tmp_path / f"{budgets}.csv")
        assert run_cli(
            "compare",
            "--graph", CONFIGS / "path6.edges",
            "--catalog", CONFIGS / "trio_blocking.cfg",
            "--algos", "round-robin,snake,maxgrd",
            "--budgets", budgets,
            "--samples", "20",
            "--out", outs[-1],
        ) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_gm_budget_above_the_node_count_exits_2(tmp_path, capsys):
    code = run_cli(
        "allocate",
        "--graph", CONFIGS / "edge_pair.edges",
        "--catalog", CONFIGS / "pair_even.cfg",
        "--algo", "gm",
        "--budgets", "i=3",
        "--samples", "10",
        "--out", tmp_path / "o.csv",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error: gm: budget 3 for 'i' exceeds the 2 nodes" in err
    assert "Traceback" not in err


def test_rr_stats_on_a_graph_without_nodes_exits_2(tmp_path, capsys):
    graph = tmp_path / "empty.edges"
    graph.write_text("# only comments\n# and no edges\n")
    assert run_cli("rr-stats", "--graph", graph, "--out", tmp_path / "rr.csv") == 2
    err = capsys.readouterr().err
    assert "error: rr-stats: graph has no nodes" in err
    assert "Traceback" not in err


def test_negative_oracle_max_edges_exits_2(tmp_path, capsys):
    alloc = tmp_path / "alloc.txt"
    alloc.write_text("0 i\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "oracle",
            "--graph", CONFIGS / "edge_pair.edges",
            "--catalog", CONFIGS / "pair_even.cfg",
            "--allocation", alloc,
            "--max-edges", "-1",
        )
    assert exc.value.code == 2
    assert "argument --max-edges: must be >= 0, got -1" in capsys.readouterr().err


def _catalog_of(tmp_path, m):
    """A zero-noise catalog of m items, each worth 2 at price 1."""
    path = tmp_path / f"items{m}.cfg"
    items = [f"x{k}" for k in range(m)]
    lines = ["[items]", *(f"{it} price=1 noise=zero" for it in items), "[valuation]"]
    path.write_text("\n".join(lines + [f"{it} = 2" for it in items]) + "\n")
    return path


@pytest.mark.parametrize("command", ["allocate", "compare", "estimate", "oracle"])
def test_a_catalog_above_the_simulator_limit_exits_2(tmp_path, capsys, monkeypatch, command):
    calls = []
    monkeypatch.setattr(allocators, "prima_plus", lambda *a, **k: calls.append(a) or [0])
    alloc = tmp_path / "alloc.txt"
    alloc.write_text("0 x0\n")
    argv = [command, "--graph", CONFIGS / "path6.edges", "--catalog", _catalog_of(tmp_path, 11)]
    if command == "allocate":
        argv += ["--algo", "seqgrd-nm", "--budgets", "x0=1,x1=1", "--samples", "10"]
    elif command == "compare":
        argv += ["--algos", "seqgrd-nm,round-robin", "--budgets", "x0=1", "--samples", "10"]
    else:
        argv += ["--allocation", alloc]
    assert run_cli(*argv, "--out", tmp_path / "o.csv") == 2
    err = capsys.readouterr().err
    assert "11 items; simulation takes at most 10" in err
    assert "Traceback" not in err
    assert calls == []  # rejected before any seed selection


def test_a_catalog_at_the_simulator_limit_runs(tmp_path):
    alloc = tmp_path / "alloc.txt"
    alloc.write_text("0 x0\n0 x9\n")
    out = tmp_path / "o.csv"
    assert run_cli(
        "estimate",
        "--graph", CONFIGS / "path6.edges",
        "--catalog", _catalog_of(tmp_path, 10),
        "--allocation", alloc,
        "--samples", "5",
        "--out", out,
    ) == 0
    assert read_csv(out)[1][-3:] == ["6", "0", "0:x0;0:x9"]  # one item reaches all 6 nodes


def test_validate_config_takes_more_items_than_simulation(tmp_path, capsys):
    assert run_cli("validate-config", "--catalog", _catalog_of(tmp_path, 11)) == 0
    assert capsys.readouterr().out == "PASS: ok\n"


@pytest.mark.parametrize(
    "scale, line, message",
    [
        ("inf", "x 0.5", "scale must be finite, got inf"),
        ("nan", "x 0.5", "scale must be positive, got nan"),
        ("1e-300", "a 1e-30", "scale * probability underflows to 0 for 1e-300 * 1e-30"),
    ],
    ids=["inf", "nan", "underflow"],
)
def test_convert_utilities_rejects_scales_it_cannot_use(tmp_path, capsys, scale, line, message):
    probs = tmp_path / "p.txt"
    probs.write_text(line + "\n")
    assert run_cli("convert-utilities", "--probs", probs, "--scale", scale) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no utility written


# (argv before --out, files to write first) for runs that exit 2 after --out is checked
FAILING_RUNS = {
    "convert-utilities-inf-scale": (
        ["convert-utilities", "--probs", "{tmp}/p.txt", "--scale", "inf"], {"p.txt": "x 0.5\n"}
    ),
    "compare-unknown-algorithm": (
        ["compare", "--graph", CONFIGS / "path6.edges", "--catalog", CONFIGS / "trio_partial.cfg",
         "--algos", "seqgrd,nope"],
        {},
    ),
    "compare-unknown-budget-item": (
        ["compare", "--graph", CONFIGS / "path6.edges", "--catalog", CONFIGS / "pair_even.cfg",
         "--algos", "seqgrd", "--budgets", "i=1,zz=2"],
        {},
    ),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("case", FAILING_RUNS)
def test_failed_run_leaves_no_output_file_it_created(tmp_path, capsys, case, existing):
    argv, files = FAILING_RUNS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out.csv"
    if existing:
        out.write_bytes(b"earlier\x00output")
    argv = [str(a).replace("{tmp}", str(tmp_path)) for a in argv]
    assert run_cli(*argv, "--out", out) == 2
    assert "Traceback" not in capsys.readouterr().err
    if existing:
        assert out.read_bytes() == b"earlier\x00output"
    else:
        assert not out.exists()


def test_oracle_optimal_enumerates_the_worlds_once(tmp_path, monkeypatch):
    from welfaremax import oracle

    calls = []
    edge_worlds = oracle._edge_worlds
    monkeypatch.setattr(oracle, "_edge_worlds", lambda *a: calls.append(a) or edge_worlds(*a))
    out = tmp_path / "opt.csv"
    argv = ["--graph", CONFIGS / "fork4.edges", "--catalog", CONFIGS / "pair_strong_weak.cfg"]
    assert run_cli("oracle", *argv, "--optimal", "--budgets", "i=1,j=1", "--out", out) == 0
    assert len(calls) == 1
    assert read_csv(out)[1][0] == "oracle-opt"


@pytest.mark.parametrize("mode", ["allocation", "optimal"])
def test_oracle_runs_each_allocation_over_the_worlds_once(tmp_path, monkeypatch, mode):
    from welfaremax import oracle

    calls = []
    world_runs = oracle.world_runs
    monkeypatch.setattr(oracle, "world_runs", lambda *a: calls.append(a) or world_runs(*a))
    alloc = tmp_path / "alloc.txt"
    alloc.write_text("0 i\n1 j\n")
    out = tmp_path / "oracle.csv"
    argv = ["--graph", CONFIGS / "fork4.edges", "--catalog", CONFIGS / "pair_strong_weak.cfg"]
    if mode == "allocation":
        assert run_cli("oracle", *argv, "--allocation", alloc, "--out", out) == 0
        assert len(calls) == 1
    else:
        assert run_cli("oracle", *argv, "--optimal", "--budgets", "i=1,j=1", "--out", out) == 0
        n = load_graph_file(str(CONFIGS / "fork4.edges")).n
        assert len(calls) == (1 + n) ** 2  # each allocation searched, the empty one first


_NO_BUDGETS = "[items]\ni1 price=1 noise=zero\n[valuation]\ni1 = 2\n"


@pytest.mark.parametrize(
    "flags, base, catalog, message",
    [
        (["--algos", "seqgrd,nope"], None, None,
         "unknown algorithm 'nope'; choose from seqgrd, seqgrd-nm"),
        (["--budgets", "i1"], None, None, "budget 'i1': expected item=count"),
        (["--budgets", "i1=1,zz=1"], None, None, "budget for unknown item 'zz'"),
        (["--budgets", "i1=one"], None, None, "budget for 'i1' must be an integer"),
        (["--budgets", ","], None, None, "empty budget list"),
        ([], None, _NO_BUDGETS, "no budgets given (flag or [budgets] section)"),
        (["--budgets", "i1=1"], "0\n", None, "allocation line 1: expected 'node item'"),
        (["--budgets", "i1=1"], "0 i2\n1 zz\n", None, "allocation line 2: unknown item 'zz'"),
    ],
    ids=[
        "unknown-algorithm", "budget-without-count", "budget-unknown-item", "budget-not-integer",
        "empty-budget-list", "no-budgets", "base-line-fields", "base-unknown-item",
    ],
)
def test_compare_input_errors_exit_2(tmp_path, capsys, flags, base, catalog, message):
    cfg = CONFIGS / "trio_partial.cfg"
    if catalog:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(catalog)
    argv = ["compare", "--graph", CONFIGS / "path6.edges", "--catalog", cfg, "--samples", "5"]
    if "--algos" not in flags:
        argv += ["--algos", "seqgrd"]
    if base:
        (tmp_path / "base.txt").write_text(base)
        argv += ["--base", tmp_path / "base.txt"]
    assert run_cli(*argv, *flags) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags, catalog, message",
    [
        ([], None, "oracle needs --allocation or --optimal"),
        (["--optimal"], _NO_BUDGETS, "oracle --optimal needs budgets"),
        (["--allocation", "{tmp}/a.txt"], None, "allocation line 1: expected 'node item'"),
        (["--allocation", "{tmp}/b.txt", "--budgets", "garbage"], None,
         "oracle --budgets needs --optimal"),
        (["--optimal", "--allocation", "{tmp}/b.txt"], None,
         "oracle takes --allocation or --optimal, not both"),
    ],
    ids=[
        "no-allocation", "optimal-without-budgets", "allocation-line-fields",
        "budgets-without-optimal", "both-modes",
    ],
)
def test_oracle_input_errors_exit_2(tmp_path, capsys, flags, catalog, message):
    cfg = CONFIGS / "trio_partial.cfg"
    if catalog:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(catalog)
    (tmp_path / "a.txt").write_text("0 i1 extra\n")
    (tmp_path / "b.txt").write_text("0 i1\n")
    flags = [f.replace("{tmp}", str(tmp_path)) for f in flags]
    assert run_cli("oracle", "--graph", CONFIGS / "edge_pair.edges", "--catalog", cfg, *flags) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config", ["pair_even", "pair_partial", "pair_partial_uneven", "pair_skewed"]
)
def test_oracle_rejects_continuous_noise_as_bad_input(tmp_path, capsys, config):
    (tmp_path / "a.txt").write_text("0 i\n")
    argv = ["--graph", CONFIGS / "edge_pair.edges", "--catalog", CONFIGS / f"{config}.cfg"]
    assert run_cli("oracle", *argv, "--allocation", tmp_path / "a.txt") == 2
    err = capsys.readouterr().err
    assert "error: oracle: exact welfare needs finite noise supports" in err
    assert "Traceback" not in err


def test_oracle_base_adds_to_the_scored_allocation(tmp_path):
    from welfaremax.diffusion import Allocation
    from welfaremax.oracle import WelfareOracle
    from welfaremax.cli import load_catalog_file

    (tmp_path / "a.txt").write_text("0 i\n")
    (tmp_path / "base.txt").write_text("2 j\n")
    out = tmp_path / "o.csv"
    argv = ["--graph", CONFIGS / "fork4.edges", "--catalog", CONFIGS / "pair_strong_weak.cfg"]
    code = run_cli(
        "oracle", *argv, "--allocation", tmp_path / "a.txt", "--base", tmp_path / "base.txt",
        "--out", out,
    )
    assert code == 0
    row = read_csv(out)[1]
    catalog = load_catalog_file(str(CONFIGS / "pair_strong_weak.cfg")).catalog
    oracle = WelfareOracle(load_graph_file(str(CONFIGS / "fork4.edges")), catalog)
    full = Allocation.of([(0, "i"), (2, "j")])
    assert float(row[3]) == oracle.evaluate(full)[0]
    assert row[1:3] == [f"{v:.17g}" for v in oracle.evaluate(full)[1].values()]
    assert row[5] == "0:i"  # the base is scored, not reported


@pytest.mark.parametrize(
    "line, message",
    [("x", "line 1: expected 'name probability'"), ("x 0.5 y", "line 1: expected"),
     ("x half", "line 1: bad probability 'half'")],
    ids=["one-field", "three-fields", "not-a-number"],
)
def test_convert_utilities_malformed_lines_exit_2(tmp_path, capsys, line, message):
    probs = tmp_path / "p.txt"
    probs.write_text(line + "\n")
    assert run_cli("convert-utilities", "--probs", probs) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_trace_dash_writes_to_stderr(capsys):
    code = run_cli(
        "allocate", "--graph", CONFIGS / "edge_pair.edges", "--catalog", CONFIGS / "trio_partial.cfg",
        "--algo", "seqgrd", "--budgets", "i1=1", "--samples", "20", "--trace", "-",
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "phase=run algorithm=seqgrd\n" in captured.err
    assert "phase=" not in captured.out


def test_validate_config_above_the_item_limit_exits_2(tmp_path, capsys):
    assert run_cli("validate-config", "--catalog", _catalog_of(tmp_path, 21)) == 2
    err = capsys.readouterr().err
    assert f"error: bad catalog {tmp_path / 'items21.cfg'}: line 22: a catalog holds at most 20 items" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("what", ["graph", "catalog", "allocation", "probabilities file"])
def test_undecodable_input_exits_2(tmp_path, capsys, what):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 1 0.5\n\xff\xfe\n")
    with pytest.raises(UnicodeDecodeError) as decode:
        bad.read_text()
    alloc = tmp_path / "alloc.txt"
    alloc.write_text("0 i\n")
    graph, catalog = CONFIGS / "path6.edges", CONFIGS / "trio_blocking.cfg"
    argv = {
        "graph": ["allocate", "--graph", bad, "--catalog", catalog, "--algo", "round-robin",
                  "--budgets", "j=1"],
        "catalog": ["validate-config", "--catalog", bad],
        "allocation": ["estimate", "--graph", graph, "--catalog", catalog, "--allocation", bad],
        "probabilities file": ["convert-utilities", "--probs", bad],
    }[what]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: bad {what} {bad}: {decode.value}\n"
