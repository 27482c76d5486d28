import json
from pathlib import Path

import numpy as np
import pytest

import envmm.cli as cli

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
    ],
)
def test_malformed_field_is_usage_error(kind, field, value, tmp_path, capsys):
    config = json.loads((CONFIG_DIR / f"{kind}.json").read_text())
    config[field] = value
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert cli.run(cfg, out_dir=out) == 1
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (out / "report.json").exists()
