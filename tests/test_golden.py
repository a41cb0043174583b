"""Golden CLI outputs: refactors that keep every RNG stream must keep these
CSVs byte for byte.

Covers `compare` with every non-superior algorithm on each shipped catalog
(four of them draw gaussian noise) and `supgrd` over a fixed weak-item
seed, all on the certain-edge path `path6.edges`. Every shipped edge list
has p=1, so edge coins never decide anything there: a 12-node graph with
fractional probabilities repeats one `compare` and the `supgrd` case, and
carries `rr-stats` with and without fixed seeds, where any change in draw
order shows in the size histogram.

After a deliberate stream change, regenerate with

    PYTHONPATH=src python tests/test_golden.py

which prints `changed` or `unchanged` for each case and rewrites only the
changed files; record the changed ones in CHANGES.md.
"""

from pathlib import Path

import pytest

from welfaremax.cli import main

from conftest import CONFIGS

GOLDEN = Path(__file__).resolve().parent / "golden"

CATALOGS = sorted(p.name for p in CONFIGS.glob("*.cfg"))

# 12 nodes, fractional probabilities, a few cycles
FRACTIONAL_EDGES = """\
0 1 0.5
1 2 0.7
2 0 0.3
2 3 0.6
3 4 0.5
4 5 0.8
5 3 0.2
1 6 0.4
6 7 0.9
7 8 0.5
8 6 0.35
4 9 0.45
9 10 0.65
10 11 0.55
11 9 0.25
0 11 0.15
5 8 0.3
"""


def _argv(name: str, work: Path) -> list[str]:
    fractional = work / "fractional.edges"
    fractional.write_text(FRACTIONAL_EDGES)
    graph = str(fractional if name.startswith("fractional_") else CONFIGS / "path6.edges")
    if name.startswith(("compare_", "fractional_compare_")):
        return [
            "compare",
            "--graph", graph,
            "--catalog", str(CONFIGS / name.split("compare_", 1)[1]),
            "--algos", "seqgrd,seqgrd-nm,maxgrd,max-seq,gm,round-robin,snake",
            "--samples", "40",
            "--seed", "5",
        ]
    if name.endswith("supgrd_pair_strong_weak.cfg"):
        base = work / "base.txt"
        base.write_text("0 j\n")
        return [
            "compare",
            "--graph", graph,
            "--catalog", str(CONFIGS / "pair_strong_weak.cfg"),
            "--algos", "supgrd",
            "--budgets", "i=1",
            "--base", str(base),
            "--samples", "40",
            "--seed", "5",
        ]
    argv = ["rr-stats", "--graph", str(fractional), "--count", "3000", "--seed", "3"]
    if name == "rr_stats_fixed":
        argv += ["--fixed", "4,7"]
    return argv


CASES = [f"compare_{c}" for c in CATALOGS] + [
    "supgrd_pair_strong_weak.cfg",
    "fractional_compare_pair_even.cfg",
    "fractional_supgrd_pair_strong_weak.cfg",
    "rr_stats_plain",
    "rr_stats_fixed",
]


def _produce(name: str, work: Path) -> bytes:
    out = work / "out.csv"
    assert main([*_argv(name, work), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_golden_output(name, tmp_path):
    want = (GOLDEN / f"{name}.csv").read_bytes()
    assert _produce(name, tmp_path) == want


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        path = GOLDEN / f"{case}.csv"
        with tempfile.TemporaryDirectory() as tmp:
            got = _produce(case, Path(tmp))
        changed = not path.is_file() or path.read_bytes() != got
        if changed:
            path.write_bytes(got)
        print(f"{'changed' if changed else 'unchanged'} {case}.csv")
