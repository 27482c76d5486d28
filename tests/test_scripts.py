import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

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
