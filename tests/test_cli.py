import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _series(out):
    """series.csv as a dict of columns, numbers parsed."""
    with open(out / "series.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}


def test_wss_envelope_worst_is_the_series_minimum(tmp_path):
    _, report, out = _run("wss_envelope", tmp_path)
    series = _series(out)
    worst = int(np.argmin(series["margin"]))
    assert report["worst_margin"] == series["margin"][worst]
    omega = 2.0 * np.pi * series["freq_index"][worst] / report["n_freq"]
    assert report["worst_frequency"] == pytest.approx(omega, rel=1e-15)


def test_envelope_check_margin_is_the_bottom_of_the_series(tmp_path):
    _, report, out = _run("envelope_check", tmp_path)
    series = _series(out)
    assert report["lambda_min_margin"] == series["order_eigenvalue"][0]
    assert series["order_eigenvalue"][0] == series["order_eigenvalue"].min()


def test_wss_filter_max_symbol_gap_is_the_series_maximum(tmp_path, monkeypatch):
    _, report, out = _run("wss_filter", tmp_path, name="exact")
    assert report["max_symbol_gap"] == _series(out)["gap"].max()
    # positive control: a ratio 1% off the grid solver's symbol shows up
    # in the statistic
    symbol = cli.st.wiener_symbol

    def off_by_one_percent(*args, **kwargs):
        tau, flagged = symbol(*args, **kwargs)
        return 1.01 * tau, flagged

    monkeypatch.setattr(cli.st, "wiener_symbol", off_by_one_percent)
    _, report, out = _run("wss_filter", tmp_path, name="off")
    series = _series(out)
    assert report["max_symbol_gap"] == series["gap"].max()
    tau = np.hypot(series["tau_re"], series["tau_im"])
    assert report["max_symbol_gap"] >= 0.005 * tau.max()


def _dft(n):
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


@pytest.mark.parametrize("perturb", [0.0, 1e-3])
def test_wss_filter_leakage_is_the_dense_off_diagonal_maximum(perturb, tmp_path, monkeypatch):
    # the statistic is the largest off-diagonal |entry| of F C F^-1, F the DFT
    # matrix and C the grid solution, and the symbol behind the series gap is
    # its diagonal; both are read from the half spectrum, so n runs even and
    # odd. A non-circulant perturbation of C, one entry moved by
    # perturb * max|C|, adds perturb * max|C| / n to every entry, which is
    # the positive control
    config = json.loads((CONFIG_DIR / "wss_filter.json").read_text())
    solve = cli.st.solve_pseudoinverse
    solutions = []

    def perturbed(*args, **kwargs):
        coeffs = solve(*args, **kwargs)
        coeffs[0, 1] += perturb * np.abs(coeffs).max()
        solutions.append(coeffs)
        return coeffs

    monkeypatch.setattr(cli.st, "solve_pseudoinverse", perturbed)
    for n in (16, 17):
        config["n_freq"] = n
        cfg = tmp_path / f"n{n}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"o{n}"
        assert cli.run(cfg, out_dir=out) == 0
        leakage = json.loads((out / "report.json").read_text())["off_diagonal_leakage"]
        series = _series(out)
        c = solutions.pop()
        dense = _dft(n) @ c @ np.linalg.inv(_dft(n))
        scale = np.abs(c).max()
        tau = series["tau_re"] + 1j * series["tau_im"]
        assert np.abs(series["gap"] - np.abs(np.diag(dense) - tau)).max() <= 1e-13 * scale
        np.fill_diagonal(dense, 0.0)
        assert abs(leakage - np.abs(dense).max()) <= 1e-13 * scale
        assert leakage >= 0.9 * perturb * scale / n


@pytest.mark.parametrize("kind", ["minimize", "elliptic_demo"])
def test_residual_is_the_optimality_gap_of_the_reported_solution(kind, tmp_path, monkeypatch):
    # the field is ||T gram - cross||_F of the solution the run reports; a
    # minimizer moved off the optimum by 1e-3 of its size is the positive
    # control
    assemble, solve = cli.cm.assemble_normal_equations, cli.cm.solution_set
    seen = {}

    def recorded(obs):
        seen["system"] = assemble(obs)
        return seen["system"]

    def moved(system, **kwargs):
        out = solve(system, **kwargs)
        seen["t"] = out.t0 + 1e-3 * np.abs(out.t0).max()
        return cli.cm.SolutionSet(t0=seen["t"], kernel_basis=out.kernel_basis)

    monkeypatch.setattr(cli.cm, "assemble_normal_equations", recorded)
    monkeypatch.setattr(cli.cm, "solution_set", moved)
    _, report, _ = _run(kind, tmp_path)
    system = seen["system"]
    dense = np.linalg.norm(seen["t"] @ system.gram - system.cross)
    assert dense > 0.0
    assert report["residual"] == pytest.approx(dense, rel=1e-12)


def test_elliptic_transfer_failure_exits_two(tmp_path, monkeypatch):
    # a candidate 1.5 times the source has 2.25 times its second moment S,
    # so the pushed gap T (S - 2.25 S) T^T is negative definite on T's range
    seen = {}
    build = cli.rp.build_elliptic_representation

    def recorded(cfg):
        seen["rep"], meta = build(cfg)
        return seen["rep"], meta

    def scaled(source, seed, n_samples):
        seen["source"] = source
        return [cli.me.SourceEnsemble(space=source.space, values=1.5 * source.values)]

    monkeypatch.setattr(cli.rp, "build_elliptic_representation", recorded)
    monkeypatch.setattr(cli.env, "sample_dominated", scaled)
    code, report, _ = _run("elliptic_demo", tmp_path)
    assert code == 2
    assert report["transfer_ok"] is False and report["no_minimizer"] is False
    source, t = seen["source"], seen["rep"].target_map
    flat = source.values.reshape(source.space.m, -1)
    moment = (flat * source.space.weights[:, None]).T @ flat
    gap = t @ (moment - 2.25 * moment) @ t.T
    assert report["transfer_margin"] == pytest.approx(np.linalg.eigvalsh(gap)[0], rel=1e-12)


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


def test_unknown_field_names_the_kind(tmp_path, capsys):
    config = json.loads((CONFIG_DIR / "minimize.json").read_text())
    config["tolerance"] = 1e-9
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(config))
    assert cli.run(cfg, out_dir=tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert "field 'tolerance' is not a field of kind 'minimize'" in err
    assert not (tmp_path / "o").exists()


def _pinned(kind, field, value, tag):
    """A list- or dict-valued case under a fixed id. pytest would number
    such a value by its position in the list, so deleting an earlier case
    would rename it; each tag kept here is the name it was first run under."""
    return pytest.param(kind, field, value, id=f"{kind}-{field}-{tag}")


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("minimize", "rank_tol", 1e-10),
        _pinned("elliptic_demo", "ell", [1.0] * 63, "value1"),
        ("verify_extremal", "shrink_floor", 0.5),
        ("wss_filter", "rank_tol", 1e-10),
    ],
)
def test_optional_fields_are_accepted(kind, field, value, tmp_path):
    # the optional fields the README lists, including ones no bundled
    # config gives
    config = json.loads((CONFIG_DIR / f"{kind}.json").read_text())
    config[field] = value
    cfg = tmp_path / "optional.json"
    cfg.write_text(json.dumps(config))
    assert cli.run(cfg, out_dir=tmp_path / "o") == 0


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


def test_envelope_check_of_a_source_against_itself_is_member_at_zero_tol(tmp_path):
    # the gap of two equal moments is exactly zero, so its bottom eigenvalue
    # is 0.0 and within slack even with no slack at all
    base = json.loads((CONFIG_DIR / "envelope_check.json").read_text())
    base["candidate"] = base["source"]
    base["tol"] = 0
    cfg = tmp_path / "self.json"
    cfg.write_text(json.dumps(base))
    assert cli.run(cfg, out_dir=tmp_path / "o") == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["member"] is True and report["lambda_min_margin"] == 0.0


def test_minimize_without_a_minimizer_reports_the_dropped_cross_energy(tmp_path):
    # rank_tol 0.5 drops a Gram mode the cross matrix still reads: the run
    # exits 2 and reports the cross energy in that mode, recomputed here
    # from the config's moments
    base = json.loads((CONFIG_DIR / "minimize.json").read_text())
    base["rank_tol"] = 0.5
    cfg = tmp_path / "dropped.json"
    cfg.write_text(json.dumps(base))
    assert cli.run(cfg, out_dir=tmp_path / "o") == 2
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    w = np.asarray(base["source"]["weights"])
    u = np.asarray(base["source"]["values"]).reshape(w.size, -1)
    x, y = u @ np.asarray(base["input_map"]).T, u @ np.asarray(base["target_map"]).T
    evals, evecs = np.linalg.eigh((x * w[:, None]).T @ x)
    dropped = evecs[:, evals <= 0.5 * evals[-1]]
    expected = np.linalg.norm((y * w[:, None]).T @ x @ dropped)
    assert report["no_minimizer"] is True
    assert report["range_violation"] == pytest.approx(expected, rel=1e-12)
    assert report["range_violation"] == pytest.approx(0.5318, abs=1e-4)


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


def test_seed_override_on_a_seedless_kind_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.run(CONFIG_DIR / "minimize.json", out_dir=out, seed=5) == 1
    assert "field 'seed' is not a field of kind 'minimize'" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_main_offers_seed_only_to_seeded_kinds(kind, tmp_path):
    config = json.loads((CONFIG_DIR / f"{kind}.json").read_text())
    out = tmp_path / "o"
    argv = [kind, "--config", str(CONFIG_DIR / f"{kind}.json"), "--out", str(out)]
    argv += ["--seed", "5"]
    if "seed" in config:
        assert cli.main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 5
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert not out.exists()


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


def test_main_loads_the_config_once(tmp_path, monkeypatch):
    # main reads the kind to match it with the subcommand, then runs the
    # same loaded config
    calls = []
    load = cli.ExperimentConfig.load.__func__

    def counting(cls, path):
        calls.append(path)
        return load(cls, path)

    monkeypatch.setattr(cli.ExperimentConfig, "load", classmethod(counting))
    config = str(CONFIG_DIR / "minimize.json")
    code = cli.main(["minimize", "--config", config, "--out", str(tmp_path / "o")])
    assert code == 0 and (tmp_path / "o" / "report.json").exists()
    assert calls == [config]


def test_minimize_factorizes_the_gram_block_once(tmp_path, monkeypatch):
    counts = count_eigensolves(monkeypatch)
    code, report, _ = _run("minimize", tmp_path)
    assert code == 0 and "coercivity_margin" in report and report["unique"]
    assert counts == {"eigh": 1, "eigvalsh": 0}


def test_envelope_check_factorizes_each_matrix_once(tmp_path, monkeypatch):
    counts = count_eigensolves(monkeypatch)
    code, report, _ = _run("envelope_check", tmp_path)
    assert code == 0 and report["member"]
    # each second moment's held eigh (its PSD check), then their difference
    assert counts == {"eigh": 2, "eigvalsh": 1}


def test_wss_envelope_factorizes_the_gap_stack_once(tmp_path, monkeypatch):
    counts = count_eigensolves(monkeypatch)
    code, report, _ = _run("wss_envelope", tmp_path)
    assert code == 0 and report["member"]
    assert counts == {"eigh": 0, "eigvalsh": 1}


def test_verify_extremal_factorizes_the_reference_once(tmp_path, monkeypatch):
    counts = count_eigensolves(monkeypatch)
    code, report, _ = _run("verify_extremal", tmp_path)
    assert code == 0 and report["member"]
    # the held eigh of Sigma_A and of sigma_xi; Sigma_A's PSD check and the
    # eigenbasis every sample's gap is drawn in share one
    assert counts == {"eigh": 2, "eigvalsh": 0}


def test_verify_extremal_of_a_zero_source_costs_the_baseline_alone(tmp_path):
    # Sigma_A = 0 retains no direction, so every gap is empty: each sample
    # costs the reference <sigma_xi, W^T W>, every margin is zero, and the
    # realized samples have zero atoms
    config = json.loads((CONFIG_DIR / "verify_extremal.json").read_text())
    values = np.zeros(np.shape(config["source"]["values"]))
    config["source"]["values"] = values.tolist()
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(config))
    assert cli.run(cfg, out_dir=tmp_path / "o") == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["member"] is True and report["lambda_min_margin"] == 0.0
    assert report["cost_reference"] == pytest.approx(0.685635358898909, rel=1e-12)
    assert np.all(_series(tmp_path / "o")["cost"] == report["cost_reference"])
    space = cli.me.MeasureSpace(weights=np.array(config["source"]["weights"]))
    source = cli.me.SourceEnsemble(space=space, values=values)
    samples = cli.env.sample_dominated(source, config["seed"], config["n_samples"])
    assert len(samples) == config["n_samples"]
    assert not any(s.values.any() for s in samples)


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


@pytest.mark.parametrize("budget, field", [(8447, "n_freq"), (8448, None)])
def test_wss_filter_budget_bounds_the_atoms(budget, field, tmp_path, monkeypatch, capsys):
    # the bundled config has d = 2 and n_freq = 64: the atoms and their
    # complex waves are at most 2 * 2 * (64 // 2 + 1) * 64 = 8448 elements,
    # more than the 2 * 64^2 = 8192 of the complex solution spectrum
    monkeypatch.setattr(cli, "ELEMENT_BUDGET", budget)
    code = cli.run(CONFIG_DIR / "wss_filter.json", out_dir=tmp_path / "o")
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


def test_elliptic_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at n_x = 1e5 each bump spans about 2e4 nodes, where a threaded BLAS dot
    # splits its sum by the thread count; the gains are pairwise sums instead.
    # The test can only fail on a numpy linked to OpenBLAS on at least 2 CPUs:
    # OpenBLAS caps the thread count at the CPUs it finds, and other BLAS
    # libraries ignore OPENBLAS_NUM_THREADS
    config = json.loads((CONFIG_DIR / "elliptic_demo.json").read_text())
    config.update(
        n_x=100_000, potential=0.3, bump_centers=[0.35, 0.5, 0.6, 0.75],
        alphas=[1.3, 0.6, 1.2, 1.0],
    )
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(config))
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(
            os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads
        )
        done = subprocess.run(
            [sys.executable, "-m", "envmm.cli", "elliptic_demo", "--config", str(path),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append([(out / name).read_bytes() for name in ("report.json", "series.csv")])
    assert outputs[0] == outputs[1]


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
        _pinned("verify_extremal", "seed", [1], "value2"),
        ("verify_extremal", "seed", -1),
        ("verify_extremal", "n_operators", None),
        ("verify_extremal", "n_operators", 0),
        ("verify_extremal", "n_operators", 2.5),
        ("verify_extremal", "shrink_floor", None),
        ("verify_extremal", "tol", "tight"),
        ("elliptic_demo", "bump_centers", 0.5),
        _pinned("elliptic_demo", "alphas", [None], "value10"),
        ("elliptic_demo", "seed", None),
        ("elliptic_demo", "n_atoms", 0),
        ("elliptic_demo", "ell", 3),
        _pinned("wss_filter", "target_kernel", [[1.0]], "value14"),
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
        _pinned("envelope_check", "candidate",
                {"weights": [1.0], "values": [[[1.0, 0.0, 0.0, 0.0]]]}, "value23"),
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
        _pinned("elliptic_demo", "alphas", [1.0, float("nan")], "value39"),
        _pinned("elliptic_demo", "ell", [float("-inf")], "value40"),
        ("minimize", "rank_tol", float("nan")),
        ("minimize", "rank_tol", float("inf")),
        ("wss_filter", "rank_tol", float("nan")),
        ("verify_extremal", "shrink_floor", float("nan")),
        ("verify_extremal", "shrink_floor", float("-inf")),
        _pinned("verify_extremal", "sigma_xi", [[float("nan")]], "value46"),
        _pinned("minimize", "target_map", [[float("inf")]], "value47"),
        _pinned("wss_filter", "target_kernel", [float("nan"), 0.5], "value48"),
        _pinned("wss_filter", "seq", {"lags": [[[float("nan")]]]}, "value49"),
        _pinned("wss_envelope", "seq_a", {"lags": [[[float("inf")]]]}, "value50"),
        # the atoms and their complex waves, 2 d (n // 2 + 1) n elements: at
        # d = 2, n = 8192 is the first over the budget, so 8193 is over too
        ("wss_filter", "n_freq", 8193),
        # JSON true is not a number either
        ("elliptic_demo", "potential", True),
        ("elliptic_demo", "bump_width", False),
        _pinned("elliptic_demo", "alphas", [1.0, True], "value54"),
        ("minimize", "rank_tol", True),
        ("wss_filter", "rank_tol", True),
        # all-zero lags leave no positive spectral eigenvalue, so no atom
        _pinned("wss_filter", "seq", {"lags": [[[0.0, 0.0], [0.0, 0.0]]]}, "value57"),
        # lags [I, I] have the spectral density (1 + 2 cos w) I, negative
        # near w = pi on any grid
        _pinned("wss_filter", "seq", {"lags": [np.eye(2).tolist(), np.eye(2).tolist()]},
                "value58"),
        # out-of-range scalars, checked by the library, name their field
        ("verify_extremal", "shrink_floor", 1.5),
        ("elliptic_demo", "n_x", 1),
        ("elliptic_demo", "basis_dim", 0),
        ("elliptic_demo", "potential", -1),
        ("elliptic_demo", "bump_width", -0.1),
        _pinned("elliptic_demo", "bump_centers", [0.25, 1.5], "value64"),
        _pinned("elliptic_demo", "ell", [1.0, 2.0], "value65"),
        ("verify_extremal", "shrink_floor", -0.5),
        # an ensemble is given inline only: an object with a CSV path is not one
        _pinned("minimize", "source", {"csv": "absent.csv"}, "value67"),
        # the bundled lags reach 1, so the period must be at least 4
        ("wss_filter", "n_freq", 3),
        ("wss_envelope", "n_freq", 2),
        # a field the kind does not know, however plausible, is not ignored
        ("minimize", "tolerance", 1e-9),
        ("minimize", "rank_tl", 1e-12),
        ("envelope_check", "rank_tol", 1e-12),
        ("wss_envelope", "seed", 3),
        ("elliptic_demo", "shrink_floor", 0.5),
        # a map must take the source's d * p coefficients
        _pinned("minimize", "input_map", [[1.0]], "value75"),
        _pinned("minimize", "target_map", [[1.0, 0.0]], "value76"),
        _pinned("verify_extremal", "input_map", [[1.0]], "value77"),
        _pinned("verify_extremal", "target_map", [[1.0] * 5], "value78"),
        # sigma_xi is d * p square
        _pinned("verify_extremal", "sigma_xi", [[1.0]], "value79"),
        # the oracle takes two channels, and wss_envelope two equal counts
        _pinned("wss_filter", "seq", {"lags": [np.eye(3).tolist()]}, "value80"),
        _pinned("wss_envelope", "seq_b", {"lags": [np.eye(3).tolist()]}, "value81"),
        # a kernel holds at most n_freq = 64 taps
        _pinned("wss_filter", "target_kernel", [0.5] * 65, "value82"),
        _pinned("wss_filter", "observation_kernel", [0.5] * 100, "value83"),
        # the library's ensemble checks name the ensemble's field
        _pinned("envelope_check", "source", {"weights": [], "values": [[[1.0, 0.0], [0.0, 1.0]]]},
                "value84"),
        _pinned("minimize", "source", {"weights": [1.0], "values": [[[1.0, 0.0, 0.0]]] * 4},
                "value85"),
        _pinned("verify_extremal", "source",
                {"weights": [0.5, -0.5], "values": [[[1.0] * 3] * 2] * 2}, "value86"),
        _pinned("envelope_check", "candidate", {"csv": "absent.csv"}, "value87"),
        # an integer too large for a float
        pytest.param("elliptic_demo", "potential", 10**400, id="elliptic_demo-potential-10**400"),
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


@pytest.mark.parametrize(
    "kind, path",
    [
        ("minimize", ("target_map", 0, 0)),
        ("verify_extremal", ("target_map", 0, 0)),
        ("wss_filter", ("target_kernel", 0)),
        # the observed block |G|^2 S22 overflows inside the oracle
        ("wss_filter", ("observation_kernel", 0)),
    ],
)
def test_overflowing_config_is_usage_error(kind, path, tmp_path, capsys):
    # 1e308 is finite, but products of it overflow: the run exits 1 rather
    # than write NaN or Infinity, or a verdict read from them
    config = json.loads((CONFIG_DIR / f"{kind}.json").read_text())
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 1e308
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    code = cli.run(cfg, out_dir=out)
    assert code == 1
    err = capsys.readouterr().err
    assert "field '" in err and err.count("\n") == 1
    assert not (out / "report.json").exists()
    assert not (out / "series.csv").exists()


@pytest.mark.parametrize("kernel", ["target_kernel", "observation_kernel"])
def test_overflowing_kernel_is_refused_before_the_atoms(kernel, tmp_path, monkeypatch, capsys):
    # |H|^2 S11 or |G|^2 S22 overflows: the oracle refuses the observed
    # blocks (syy itself, sxx through wiener_symbol) before it builds a
    # single Fourier atom, and stderr carries the one-line error only, no
    # numpy warning
    config = json.loads((CONFIG_DIR / "wss_filter.json").read_text())
    config[kernel][0] = 1e308
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(config))
    built = []
    atoms = cli.st._fourier_atoms
    monkeypatch.setattr(cli.st, "_fourier_atoms", lambda *a: built.append(a) or atoms(*a))
    assert cli.run(cfg, out_dir=tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field 'target_kernel' or field 'observation_kernel'")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert built == []


def test_overflowing_observation_kernel_is_named_an_overflow(tmp_path, capsys):
    # |G|^2 = inf times a real K22 is inf + nan j: the oracle names the
    # overflow of the observed blocks rather than an sxx off the real axis
    config = json.loads((CONFIG_DIR / "wss_filter.json").read_text())
    config["observation_kernel"] = [1e200]
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(config))
    assert cli.run(cfg, out_dir=tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert "field 'target_kernel'" in err and "field 'observation_kernel'" in err
    assert "overflows" in err and "real" not in err


def test_a_series_that_is_not_finite_names_its_column():
    with pytest.raises(cli.BadConfig, match="series field 'gap' is not finite"):
        cli._require_finite({"kind": "wss_filter"}, [["freq_index", "gap"], [0, 0.0], [1, np.nan]])


def _readme_table(header):
    """kind -> the backquoted field names of the README table under header;
    a parenthesized remark after the names is not read."""
    lines = (CONFIG_DIR.parent / "README.md").read_text().splitlines()
    rows = {}
    for line in lines[lines.index(header) + 2 :]:
        if not line.startswith("|"):
            break
        kind, names = [cell.strip() for cell in line.strip("|").split("|")][:2]
        rows[kind.strip("`")] = set(re.findall(r"`(\w+)`", names.split("(")[0]))
    return rows


def test_readme_field_tables_are_the_parsers():
    required = _readme_table("| kind | fields | what it does |")
    optional = _readme_table("| kind | optional fields |")
    assert set(required) == set(optional) == set(cli.KINDS)
    for kind, spec in cli._KIND_SPECS.items():
        table = {f: default is cli._REQUIRED for f, (_, default) in spec.fields.items()}
        assert required[kind] == {f for f, req in table.items() if req}
        assert optional[kind] == {f for f, req in table.items() if not req}


def _sites(node, path=()):
    """Every field of a config, descending into the first element of each
    nested list and every key of each nested dict."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list) and node:
        children = [(0, node[0])]
    else:
        return
    for key, child in children:
        if path + (key,) != ("kind",):
            yield path + (key,)
            yield from _sites(child, path + (key,))


_MUTATION_SITES = [
    (kind, site)
    for kind in ALL_KINDS
    for site in _sites(json.loads((CONFIG_DIR / f"{kind}.json").read_text()))
]
_BAD_VALUES = (
    None, True, "x", -1, 0, 0.5, 1.5, 1e12, 1e308, float("nan"), float("inf"),
    float("-inf"), 10**400, [], [1.0], [[1.0]], [[[1.0]]], {}, {"csv": "absent.csv"},
    {"lags": [[[1.0]]]},
)


@settings(max_examples=300, deadline=None)
@given(site=st.sampled_from(_MUTATION_SITES), value=st.sampled_from(_BAD_VALUES))
def test_one_field_mutations_exit_cleanly(site, value):
    kind, path = site
    config = json.loads((CONFIG_DIR / f"{kind}.json").read_text())
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "mutated.json", Path(tmp) / "o"
        cfg.write_text(json.dumps(config))
        tracemalloc.start()
        try:
            # a product of 1e308 with itself overflows: the run has to exit
            # 1 naming the field, and let no numpy warning out
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.run(cfg, out_dir=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (0, 1, 2)
        if code == 1:
            assert "field '" in err.getvalue()
            assert not (out / "report.json").exists()
    assert peak < 32 * 2**20


def _numeric_leaves(node, path=()):
    """The path of every number in a config, bools excepted, in every list."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from _numeric_leaves(child, path + (key,))
        elif isinstance(child, (int, float)) and not isinstance(child, bool):
            yield path + (key,)


_NUMERIC_LEAVES = [
    (kind, leaf)
    for kind in ALL_KINDS
    for leaf in _numeric_leaves(json.loads((CONFIG_DIR / f"{kind}.json").read_text()))
]


def _run_quietly(config, tmp):
    """cli.run on config written into tmp: (exit code, stderr, report bytes
    or None)."""
    cfg, out, err = Path(tmp) / "config.json", Path(tmp) / "o", io.StringIO()
    cfg.write_text(json.dumps(config))
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.run(cfg, out_dir=out)
    report = out / "report.json"
    return code, err.getvalue(), report.read_bytes() if report.exists() else None


@settings(max_examples=200, deadline=None)
@given(leaf=st.sampled_from(_NUMERIC_LEAVES), as_text=st.booleans(), flag=st.booleans())
def test_a_string_or_bool_in_place_of_a_number_exits_one(leaf, as_text, flag):
    kind, path = leaf
    config = json.loads((CONFIG_DIR / f"{kind}.json").read_text())
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = json.dumps(node[path[-1]]) if as_text else flag
    with tempfile.TemporaryDirectory() as tmp:
        code, err, report = _run_quietly(config, tmp)
    assert code == 1 and report is None
    # the message says what is wrong: a number (or integer) is wanted
    assert err.startswith(f"error: field '{path[0]}'") and re.search("number|integer", err)


@pytest.mark.parametrize("kind, field, value", [
    ("minimize", ("target_map",), [["1.5", True, 0.0]]),
    ("minimize", ("target_map",), [[1.5, True, 0.0], [0.0, 1.0, -0.5]]),
    ("minimize", ("source", "weights"), [1.0, "1.0", 1.0, 1.0]),
    ("envelope_check", ("candidate", "values", 2, 1), [True, 0.1]),
    ("elliptic_demo", ("alphas",), [1.0, False]),
    ("elliptic_demo", ("ell",), ["1"] * 63),
])
def test_numbers_given_as_strings_or_bools_name_their_field(kind, field, value, tmp_path):
    config = json.loads((CONFIG_DIR / f"{kind}.json").read_text())
    node = config
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    code, err, _ = _run_quietly(config, tmp_path)
    assert code == 1 and err.startswith(f"error: field '{field[0]}'") and "numbers only" in err


def test_an_integer_beyond_64_bits_is_a_number(tmp_path):
    config = json.loads((CONFIG_DIR / "minimize.json").read_text())
    config["source"]["weights"][0] = 10**20
    code, err, _ = _run_quietly(config, tmp_path)
    assert code == 0, err


@settings(max_examples=60, deadline=None)
@given(
    n_x=st.integers(2, 300),
    potential=st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)),
    k=st.integers(-20, 20),
)
def test_a_constant_ell_is_the_default_and_scales_the_gains(n_x, potential, k):
    config = json.loads((CONFIG_DIR / "elliptic_demo.json").read_text())
    config.update(n_x=n_x, potential=potential)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for ell in (None, 1.0, 2.0**k):
            if ell is not None:
                config["ell"] = [ell] * (n_x - 1)
            runs.append(_run_quietly(config, tmp))
    (code, _, default), (code_ones, _, ones), (code_scaled, _, scaled) = runs
    assert (code_ones, ones) == (code, default)
    assert code_scaled == code
    if default is not None:
        before, after = json.loads(default), json.loads(scaled)
        assert after["component_gains"] == [2.0**k * g for g in before["component_gains"]]
        for verdict in ("transfer_ok", "no_minimizer", "unique", "kernel_dim"):
            assert after.get(verdict) == before.get(verdict)


@pytest.mark.parametrize("lag0", [
    # lambda_min -4e-10 against lambda_max 2: the embedding is not PSD
    [[1.0, 1.0 + 4e-10], [1.0 + 4e-10, 1.0]],
    # K22 = -4e-10 against lambda_max 1: the same
    [[1.0, 0.0], [0.0, -4e-10]],
    # PSD within PSD_TOL * lambda_max = 1e-8, but sxx = |G|^2 K22 is negative
    [[100.0, 0.0], [0.0, -4e-10]],
])
def test_wss_filter_names_seq_for_a_sequence_that_is_not_a_covariance(lag0, tmp_path, capsys):
    config = json.loads((CONFIG_DIR / "wss_filter.json").read_text())
    config.update(n_freq=16, seq={"lags": [lag0]})
    cfg = tmp_path / "seq.json"
    cfg.write_text(json.dumps(config))
    assert cli.run(cfg, out_dir=tmp_path / "o") == 1
    assert capsys.readouterr().err.startswith("error: field 'seq' on the 'n_freq' = 16 grid")


@pytest.mark.parametrize("seed", [0, 3, 2**31 - 2])
@pytest.mark.parametrize("shape", [(1, 1, 1), (5, 8, 12), (3, 1, 7), (4, 6, 1)])
def test_one_stacked_draw_is_the_consecutive_estimator_draws(seed, shape):
    # verify_extremal's estimators are one (E, p_out, q) draw, bitwise the E
    # consecutive (p_out, q) draws of the same generator
    stack = np.random.default_rng(seed).standard_normal(shape)
    rng = np.random.default_rng(seed)
    each = [rng.standard_normal(shape[1:]) for _ in range(shape[0])]
    np.testing.assert_array_equal(stack, np.stack(each))
