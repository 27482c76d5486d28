import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import envmm.cli as cli
from helpers import count_eigensolves

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

ALL_KINDS = (
    "envelope_check",
    "minimize",
    "verify_extremal",
    "wss_envelope",
    "wss_filter",
    "elliptic_demo",
)


def _run(kind, tmp_path, name="out", **overrides):
    out = tmp_path / name
    code = cli.run(CONFIG_DIR / f"{kind}.json", out_dir=out, **overrides)
    report = json.loads((out / "report.json").read_text())
    return code, report, out


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bundled_configs_run_clean(kind, tmp_path, capsys):
    code, report, out = _run(kind, tmp_path)
    assert code == 0
    assert report["kind"] == kind
    assert (out / "series.csv").read_text().strip()
    summary = capsys.readouterr().out
    assert kind in summary


def test_report_bytes_deterministic(tmp_path):
    _, _, out_a = _run("verify_extremal", tmp_path, name="a")
    _, _, out_b = _run("verify_extremal", tmp_path, name="b")
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_seed_override_changes_samples(tmp_path):
    _, base, _ = _run("wss_filter", tmp_path, name="a")
    code, seeded, _ = _run("wss_filter", tmp_path, name="b", seed=99)
    assert code == 0
    assert seeded["seed"] == 99
    assert base["seed"] != 99


def test_tol_override_recorded(tmp_path):
    code, report, _ = _run("envelope_check", tmp_path, name="t", tol=1e-6)
    assert code == 0
    assert report["tol"] == pytest.approx(1e-6)


def test_missing_field_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps({"kind": "verify_extremal", "source": {"weights": [1.0]}}))
    assert cli.run(cfg, out_dir=tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert "missing field" in err
    assert "sigma_xi" in err


def test_unknown_kind_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps({"kind": "frobnicate"}))
    assert cli.run(cfg, out_dir=tmp_path / "o") == 1
    assert "kind" in capsys.readouterr().err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert cli.run(cfg, out_dir=tmp_path / "o") == 1
    assert "JSON" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert cli.run(tmp_path / "nope.json", out_dir=tmp_path / "o") == 1
    assert capsys.readouterr().err


def test_envelope_violation_exits_two(tmp_path):
    base = json.loads((CONFIG_DIR / "envelope_check.json").read_text())
    base["candidate"]["values"] = (
        2.0 * np.asarray(base["source"]["values"])
    ).tolist()
    base["candidate"]["weights"] = base["source"]["weights"]
    cfg = tmp_path / "violator.json"
    cfg.write_text(json.dumps(base))
    code = cli.run(cfg, out_dir=tmp_path / "o")
    assert code == 2
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["member"] is False


def test_dead_channel_exits_two(tmp_path):
    base = json.loads((CONFIG_DIR / "wss_filter.json").read_text())
    base["observation_kernel"] = [0.0]
    cfg = tmp_path / "dead.json"
    cfg.write_text(json.dumps(base))
    code = cli.run(cfg, out_dir=tmp_path / "o")
    assert code == 2
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["no_minimizer"] is True


def test_main_subcommand_mismatch(tmp_path, capsys):
    code = cli.main(
        ["minimize", "--config", str(CONFIG_DIR / "envelope_check.json")]
    )
    assert code == 1
    assert "does not match" in capsys.readouterr().err


def test_main_happy_path(tmp_path):
    code = cli.main(
        [
            "minimize",
            "--config",
            str(CONFIG_DIR / "minimize.json"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 0
    assert (tmp_path / "o" / "report.json").exists()


def test_minimize_factorizes_the_gram_block_once(tmp_path, monkeypatch):
    counts = count_eigensolves(monkeypatch)
    code, report, _ = _run("minimize", tmp_path)
    assert code == 0 and "coercivity_margin" in report and report["unique"]
    assert counts == {"eigh": 1, "eigvalsh": 0}


def test_envelope_check_factorizes_each_matrix_once(tmp_path, monkeypatch):
    counts = count_eigensolves(monkeypatch)
    code, report, _ = _run("envelope_check", tmp_path)
    assert code == 0 and report["member"]
    # the PSD checks of the two second moments, then their difference
    assert counts == {"eigh": 0, "eigvalsh": 3}


def test_wss_envelope_factorizes_the_gap_stack_once(tmp_path, monkeypatch):
    counts = count_eigensolves(monkeypatch)
    code, report, _ = _run("wss_envelope", tmp_path)
    assert code == 0 and report["member"]
    assert counts == {"eigh": 0, "eigvalsh": 1}


def test_verify_extremal_factorizes_the_reference_once(tmp_path, monkeypatch):
    counts = count_eigensolves(monkeypatch)
    code, report, _ = _run("verify_extremal", tmp_path)
    assert code == 0 and report["member"]
    # the PSD checks of Sigma_A and sigma_xi, then the eigenbasis every
    # sample is scored in
    assert counts == {"eigh": 1, "eigvalsh": 2}


@pytest.mark.parametrize(
    "n_operators, budget, field",
    [
        (10, 179, "n_operators"),  # the residual-map stack, 10 * 3 * max(2, 6)
        (10, 209, "n_samples"),  # the cost table, 10 * (20 + 1)
        (10, 210, None),
        (1, 125, "n_samples"),  # the sample diagonals, (20 + 1) * 6
        (1, 126, None),
    ],
)
def test_verify_extremal_budget_bounds_every_array(
    n_operators, budget, field, tmp_path, monkeypatch, capsys
):
    # the bundled config has dim 6, a 3x6 target map, a 2x6 input map and
    # 20 samples; each budget sits one element below or at an array's size
    config = json.loads((CONFIG_DIR / "verify_extremal.json").read_text())
    config["n_operators"] = n_operators
    cfg = tmp_path / "sized.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setattr(cli, "ELEMENT_BUDGET", budget)
    code = cli.run(cfg, out_dir=tmp_path / "o")
    if field is None:
        assert code == 0
    else:
        assert code == 1
        assert f"field '{field}' is too large" in capsys.readouterr().err


def test_import_leaves_numpy_fft_unloaded():
    # the FFT users look np.fft up at call time, so startup stays as cheap
    # as the kinds that never transform
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, envmm.cli; print('numpy.fft' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_summary_lines_are_stable(tmp_path, capsys):
    _run("minimize", tmp_path, name="a")
    first = capsys.readouterr().out
    _run("minimize", tmp_path, name="b")
    second = capsys.readouterr().out
    assert first == second
    assert "minimize" in first


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("verify_extremal", "n_samples", None),
        ("verify_extremal", "n_samples", -3),
        ("verify_extremal", "seed", [1]),
        ("verify_extremal", "seed", -1),
        ("verify_extremal", "n_operators", None),
        ("verify_extremal", "n_operators", 0),
        ("verify_extremal", "n_operators", 2.5),
        ("verify_extremal", "shrink_floor", None),
        ("verify_extremal", "tol", "tight"),
        ("elliptic_demo", "bump_centers", 0.5),
        ("elliptic_demo", "alphas", [None]),
        ("elliptic_demo", "seed", None),
        ("elliptic_demo", "n_atoms", 0),
        ("elliptic_demo", "ell", 3),
        ("wss_filter", "target_kernel", [[1.0]]),
        # integral but oversized counts hit the element budget before any
        # array they size is allocated
        ("verify_extremal", "n_samples", 1e12),
        ("verify_extremal", "n_samples", 1e308),
        ("verify_extremal", "n_operators", 1e12),
        ("elliptic_demo", "n_x", 1e308),
        ("elliptic_demo", "n_atoms", 1e12),
        ("elliptic_demo", "basis_dim", 1e12),
        ("wss_envelope", "n_freq", 1e12),
        ("wss_filter", "n_freq", 1e308),
        # a block layout (d, p) = (1, 4) against the source's (2, 2)
        ("envelope_check", "candidate", {"weights": [1.0], "values": [[[1.0, 0.0, 0.0, 0.0]]]}),
        # JSON true is not a count
        ("verify_extremal", "n_samples", True),
        ("elliptic_demo", "n_atoms", True),
        # tolerances are finite and nonnegative
        ("envelope_check", "tol", -1),
        ("envelope_check", "tol", float("nan")),
        ("verify_extremal", "tol", -1),
        ("verify_extremal", "tol", float("nan")),
        ("wss_envelope", "tol", float("inf")),
        ("elliptic_demo", "tol", -1),
        ("minimize", "rank_tol", -1),
        ("wss_filter", "rank_tol", -1),
        # a grid needs at least one frequency
        ("wss_filter", "n_freq", -1),
        ("wss_envelope", "n_freq", 0),
        # every number a config gives is finite
        ("elliptic_demo", "potential", float("inf")),
        ("elliptic_demo", "potential", float("nan")),
        ("elliptic_demo", "bump_width", float("inf")),
        ("elliptic_demo", "alphas", [1.0, float("nan")]),
        ("elliptic_demo", "ell", [float("-inf")]),
        ("minimize", "mixing_norm", float("nan")),
        ("minimize", "c_min", float("nan")),
        ("minimize", "c_min", float("inf")),
        ("verify_extremal", "shrink_floor", float("nan")),
        ("verify_extremal", "mixing_norm", float("-inf")),
        ("verify_extremal", "sigma_xi", [[float("nan")]]),
        ("minimize", "target_map", [[float("inf")]]),
        ("wss_filter", "target_kernel", [float("nan"), 0.5]),
        ("wss_filter", "seq", {"lags": [[[float("nan")]]]}),
        ("wss_envelope", "seq_a", {"lags": [[[float("inf")]]]}),
        # the n x n complex solution spectrum: 2 * 8193^2 is the first 2 n^2
        # over the budget, which n * n alone would not exceed
        ("wss_filter", "n_freq", 8193),
        # JSON true is not a number either
        ("elliptic_demo", "potential", True),
        ("elliptic_demo", "bump_width", False),
        ("elliptic_demo", "alphas", [1.0, True]),
        ("minimize", "mixing_norm", True),
        ("wss_filter", "rank_tol", True),
    ],
)
def test_malformed_field_is_usage_error(kind, field, value, tmp_path, capsys):
    config = json.loads((CONFIG_DIR / f"{kind}.json").read_text())
    config[field] = value
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        code = cli.run(cfg, out_dir=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert peak < 32 * 2**20
