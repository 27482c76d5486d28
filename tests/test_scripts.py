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
