import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_run_all_demos_seeds_only_the_seeded_kinds(tmp_path):
    done = _script("run_all_demos.py", "--out", str(tmp_path), "--seed", "7")
    assert done.returncode == 0, done.stdout + done.stderr
    for config in sorted((ROOT / "configs").glob("*.json")):
        report = json.loads((tmp_path / config.stem / "report.json").read_text())
        seeded = "seed" in json.loads(config.read_text())
        assert report.get("seed") == (7 if seeded else None)


def test_every_mutant_pattern_matches_once():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert mutants.pattern_problems() == []


def test_bench_pairs_summary_applies_the_claim_rule():
    # canned results of ten pairs; nothing is run
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    parent_ops = [8.0, 8.4, 8.2, 8.1, 8.3, 8.2, 8.0, 8.4, 8.1, 8.3]
    change_ops = [9.1, 9.3, 9.2, 8.0, 9.4, 9.2, 9.0, 9.3, 9.1, 9.2]
    pairs = [
        {
            "oracle": {
                "parent": {"ops_per_s": p, "peak_rss_mb": 61.5},
                "change": {"ops_per_s": c, "peak_rss_mb": 61.5 - 0.01 * (i % 2)},
            }
        }
        for i, (p, c) in enumerate(zip(parent_ops, change_ops))
    ]
    better = {"ops_per_s": "higher", "peak_rss_mb": "lower"}
    rows = bench_pairs.summarize(pairs, better)["oracle"]

    ops = rows["ops_per_s"]
    assert ops["parent"] == parent_ops and ops["change"] == change_ops
    assert ops["parent_median"] == 8.2 and ops["change_median"] == 9.2
    assert (ops["wins"], ops["ties"], ops["pairs"]) == (9, 0, 10)
    assert ops["parent_iqr"] == pytest.approx(0.2)
    assert ops["claim"]

    rss = rows["peak_rss_mb"]
    assert (rss["wins"], rss["ties"]) == (5, 5)
    assert not rss["claim"]

    # one more lost pair leaves 9 of 11 wins, under nine tenths
    pairs.append({"oracle": {"parent": {"ops_per_s": 8.2, "peak_rss_mb": 61.5},
                             "change": {"ops_per_s": 8.1, "peak_rss_mb": 61.5}}})
    assert not bench_pairs.summarize(pairs, better)["oracle"]["ops_per_s"]["claim"]
    text = bench_pairs.format_summary(bench_pairs.summarize(pairs[:10], better))
    assert "ops_per_s: median parent 8.2 change 9.2 (+12.2%), wins 9/10" in text


def test_compare_outputs_counts_what_differs_per_kind(tmp_path):
    # canned output trees of three runs; nothing is run
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
    )
    compare_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_outputs)
    runs = {
        "minimize.a": ({"code": 0, "summary": "kind minimize\n"}, {"cost": 1.5, "unique": True},
                       "eig_index,gram_eigenvalue\n0,0.25\n"),
        "wss_filter.b": ({"code": 0, "summary": "kind wss_filter\n"}, {"max_symbol_gap": 4e-14},
                         "freq_index,gap\n0,1e-15\n"),
        "wss_filter.c": ({"code": 1, "summary": ""}, None, None),
    }
    for side in ("parent", "change"):
        root = tmp_path / side
        root.mkdir()
        (root / "runs.json").write_text(json.dumps({n: r[0] for n, r in runs.items()}))
        for name, (_, report, series) in runs.items():
            if report is not None:
                (root / name).mkdir()
                (root / name / "report.json").write_text(json.dumps(report))
                (root / name / "series.csv").write_text(series)
    same = compare_outputs.compare(tmp_path / "parent", tmp_path / "change")
    assert same["identical"] and same["largest_move"] == 0.0
    assert same["kinds"]["wss_filter"] == {"runs": 2, "identical": 2, "code": 0,
                                           "summary": 0, "report": 0, "series": 0}

    change = tmp_path / "change"
    (change / "wss_filter.b" / "report.json").write_text(json.dumps({"max_symbol_gap": 5e-14}))
    series = "freq_index,gap\n0,1.0000000000000002e-15\n"
    (change / "wss_filter.b" / "series.csv").write_text(series)
    (change / "minimize.a" / "report.json").write_text(json.dumps({"cost": 1.5, "unique": False}))
    moved = json.loads((change / "runs.json").read_text())
    moved["wss_filter.c"]["code"] = 0
    (change / "runs.json").write_text(json.dumps(moved))
    result = compare_outputs.compare(tmp_path / "parent", change)
    assert not result["identical"]
    assert result["runs"] == {"minimize.a": ["report"], "wss_filter.b": ["report", "series"],
                              "wss_filter.c": ["code"]}
    assert result["kinds"]["wss_filter"] == {"runs": 2, "identical": 0, "code": 1,
                                             "summary": 0, "report": 1, "series": 1}
    # a flipped bool is a difference but not a move; the largest move is 4e-14 -> 5e-14
    assert result["largest_move"] == pytest.approx(0.2)
    text = compare_outputs.format_result(result)
    assert "differs    wss_filter.c: code" in text
    assert text.splitlines()[-2].split() == ["all", "3", "0", "1", "0", "2", "1"]


def test_compare_outputs_names_the_largest_move_of_each_field(tmp_path):
    # canned output trees of two elliptic runs; nothing is run. A round-off
    # residual moves by 0.3 while the gains move by 2e-12: each field
    # reports its own largest move, so the residual hides neither
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
    )
    compare_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_outputs)
    sides = {
        "parent": ({"component_gains": [0.5, 0.25], "residual": 7e-16, "transfer_ok": True},
                   {"residual": 1e-16}, "n_in,truncation_residual\n1,2.0\n2,0.5\n"),
        "change": ({"component_gains": [0.5, 0.25 * (1 + 2e-12)], "residual": 1e-15,
                    "transfer_ok": True},
                   {"residual": 1e-16}, "n_in,truncation_residual\n1,2.0\n2,0.5000000001\n"),
    }
    for side, (report_a, report_b, series) in sides.items():
        root = tmp_path / side
        root.mkdir()
        runs = {"elliptic_demo.a": {"code": 0, "summary": ""},
                "minimize.b": {"code": 0, "summary": ""}}
        (root / "runs.json").write_text(json.dumps(runs))
        for name, report in (("elliptic_demo.a", report_a), ("minimize.b", report_b)):
            (root / name).mkdir()
            (root / name / "report.json").write_text(json.dumps(report))
            (root / name / "series.csv").write_text(series if name.startswith("ell") else "i\n0\n")
    result = compare_outputs.compare(tmp_path / "parent", tmp_path / "change")
    moves = result["moves"]
    assert list(moves) == [("elliptic_demo", "residual"), ("elliptic_demo", "truncation_residual"),
                           ("elliptic_demo", "component_gains")]
    assert moves[("elliptic_demo", "residual")] == pytest.approx(0.3)
    assert moves[("elliptic_demo", "truncation_residual")] == pytest.approx(2e-10)
    assert moves[("elliptic_demo", "component_gains")] == pytest.approx(2e-12, rel=1e-3)
    assert result["largest_move"] == moves[("elliptic_demo", "residual")]
    text = compare_outputs.format_result(result).splitlines()
    assert "moved      elliptic_demo component_gains: 2e-12" in text
    assert text[-1] == "largest relative move of a differing number: 0.3"
