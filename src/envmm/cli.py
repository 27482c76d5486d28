"""Experiment driver: JSON config in, JSON report plus CSV series out.

Each run loads one config, dispatches on its kind, writes report.json
and series.csv into the output directory, and prints a fixed-width
summary. Reports contain only outputs of named package operations; the
driver itself formats, never computes. Identical config and seed give
byte-identical reports.

Exit codes: 0 on success, 2 on a typed domain outcome (no minimizer,
envelope violation), 1 on usage or IO problems.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import cost_minimizer as cm
from . import covariance as cov
from . import envelope as env
from . import measure_ensemble as me
from . import representation as rp
from . import stationary as st
from .errors import BadConfig, EnvmmError

# Largest array, in float64 elements (1 GiB), that a count field may size;
# checked before the array is built, so an oversized count exits 1.
ELEMENT_BUDGET = 2**27


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description: a kind plus its parameters."""

    kind: str
    params: dict
    base_dir: Path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise BadConfig(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise BadConfig("config must be a JSON object")
        kind = raw.get("kind")
        if kind not in KINDS:
            raise BadConfig(
                f"config field 'kind' must be one of {', '.join(KINDS)}; got {kind!r}"
            )
        missing = [f for f in _KIND_SPECS[kind].required if f not in raw]
        if missing:
            raise BadConfig(
                f"config for kind '{kind}' is missing field(s): {', '.join(missing)}"
            )
        params = {k: v for k, v in raw.items() if k != "kind"}
        return cls(kind=kind, params=params, base_dir=path.parent)


def _int(params: dict, field: str, minimum: int | None = None) -> int:
    raw = params[field]
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise BadConfig(f"field '{field}' must be an integer; got {raw!r}")
    try:
        value = int(raw)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"field '{field}' must be an integer; got {raw!r}") from exc
    if minimum is not None and value < minimum:
        raise BadConfig(f"field '{field}' must be at least {minimum}; got {value}")
    return value


def _check_budget(field: str, elements: int) -> None:
    if elements > ELEMENT_BUDGET:
        raise BadConfig(
            f"field '{field}' is too large: the run would allocate an array of "
            f"more than {ELEMENT_BUDGET} elements"
        )


def _float(params: dict, field: str, default=None) -> float:
    raw = params.get(field, default)
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"field '{field}' must be a number; got {raw!r}") from exc


def _tol(params: dict, field: str, default: float) -> float:
    value = _float(params, field, default)
    if not 0.0 <= value < float("inf"):
        raise BadConfig(f"field '{field}' must be a finite number >= 0; got {value!r}")
    return value


def _floats(params: dict, field: str) -> tuple[float, ...]:
    raw = params[field]
    if not isinstance(raw, list):
        raise BadConfig(f"field '{field}' must be a list of numbers; got {raw!r}")
    try:
        return tuple(float(v) for v in raw)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"field '{field}' must be a list of numbers") from exc


def _load_ensemble(obj, base_dir: Path, field: str) -> me.SourceEnsemble:
    if isinstance(obj, dict) and "csv" in obj:
        if not isinstance(obj["csv"], str):
            raise BadConfig(f"field '{field}' csv must be a path string")
        return me.ensemble_from_csv(base_dir / obj["csv"])
    try:
        weights = np.asarray(obj["weights"], dtype=float)
        values = np.asarray(obj["values"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadConfig(f"field '{field}' must give weights and (m,d,p) values") from exc
    if values.ndim != 3:
        raise BadConfig(f"field '{field}' values must be nested (m, d, p)")
    return me.SourceEnsemble(space=me.MeasureSpace(weights=weights), values=values)


def _load_array(obj, field: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"field '{field}' must be a numeric array") from exc
    if arr.ndim != ndim:
        raise BadConfig(f"field '{field}' must be {ndim}-dimensional")
    return arr


def _load_sequence(obj, field: str) -> st.CovarianceSequence:
    try:
        lags = np.asarray(obj["lags"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadConfig(f"field '{field}' must give nonnegative lags") from exc
    if lags.ndim != 3:
        raise BadConfig(f"field '{field}' lags must be nested (L+1, d, d)")
    return st.CovarianceSequence.from_nonneg_lags(lags)


def _representation(params: dict, d: int, p: int) -> rp.RepresentationOperator:
    return rp.RepresentationOperator(
        target_map=_load_array(params["target_map"], "target_map", 2),
        input_map=_load_array(params["input_map"], "input_map", 2),
        d=d,
        p=p,
        mixing_norm=_float(params, "mixing_norm", 1.0),
    )


# ---------------------------------------------------------------------------
# pipelines


def _run_envelope_check(params: dict, base_dir: Path):
    tol = _tol(params, "tol", 1e-9)
    source = _load_ensemble(params["source"], base_dir, "source")
    candidate = _load_ensemble(params["candidate"], base_dir, "candidate")
    if (candidate.d, candidate.p) != (source.d, source.p):
        raise BadConfig(
            f"field 'candidate' has block shape {(candidate.d, candidate.p)}, "
            f"source has {(source.d, source.p)}"
        )
    member, spectrum = cov.loewner_order(
        me.second_moment(source), me.second_moment(candidate), tol=tol
    )
    report = {
        "kind": "envelope_check",
        "member": member,
        "lambda_min_margin": float(spectrum[0]),
        "tol": tol,
    }
    series = [["eig_index", "order_eigenvalue"]] + [
        [i, float(v)] for i, v in enumerate(spectrum)
    ]
    return report, series, 0 if member else 2


def _run_minimize(params: dict, base_dir: Path):
    source = _load_ensemble(params["source"], base_dir, "source")
    rep = _representation(params, source.d, source.p)
    obs = rp.apply(rep, source)
    system = cm.assemble_normal_equations(obs)
    rank_tol = _tol(params, "rank_tol", cov.DEFAULT_RANK_RTOL)
    report = {
        "kind": "minimize",
        "coercivity_margin": cm.coercivity_margin(system),
        "target_energy": system.target_energy,
    }
    series = [["eig_index", "gram_eigenvalue"]] + [
        [i, float(v)] for i, v in enumerate(cm.gram_spectrum(system))
    ]
    if "c_min" in params:
        est = cm.solve_coercive(system, _float(params, "c_min"))
        kernel_dim, unique = 0, True
    else:
        outcome = cm.solution_set(system, rank_tol=rank_tol)
        if isinstance(outcome, cm.NoMinimizer):
            report.update(
                {"no_minimizer": True, "range_violation": outcome.range_violation}
            )
            return report, series, 2
        est = outcome.t0
        kernel_dim = outcome.kernel_basis.shape[0]
        unique = outcome.unique
    report.update(
        {
            "no_minimizer": False,
            "residual": cm.residual_norm(system, est),
            "hs_norm": est.hs_norm,
            "kernel_dim": int(kernel_dim),
            "unique": bool(unique),
            "cost": cm.system_cost(system, est),
        }
    )
    return report, series, 0


def _run_verify_extremal(params: dict, base_dir: Path):
    source = _load_ensemble(params["source"], base_dir, "source")
    rep = _representation(params, source.d, source.p)
    n_operators = _int(params, "n_operators", minimum=1)
    n_samples = _int(params, "n_samples", minimum=0)
    _check_budget("n_samples", (n_samples + 1) * (source.d * source.p) ** 2)
    _check_budget("n_operators", n_operators * rep.p_out * rep.q)
    spec = me.BaselineSpec(sigma_xi=_load_array(params["sigma_xi"], "sigma_xi", 2))
    seed = _int(params, "seed", minimum=0)
    tol = _tol(params, "tol", 1e-9)
    shrink_floor = _float(params, "shrink_floor", 0.0)
    rng = np.random.default_rng(seed)
    estimators = [
        cm.HSOperator(coeffs=rng.standard_normal((rep.p_out, rep.q)))
        for _ in range(n_operators)
    ]
    rep_report = env.verify_extremal(
        source,
        spec,
        rep,
        estimators,
        seed=seed,
        n_samples=n_samples,
        tol=tol,
        shrink_floor=shrink_floor,
    )
    report = {"kind": "verify_extremal", "seed": seed, "tol": tol, **rep_report.as_dict()}
    del report["cost_samples"]
    series = [["sample", "cost"]] + [
        [int(i), float(c)] for i, c in rep_report.cost_samples
    ]
    return report, series, 0 if rep_report.member else 2


def _run_wss_envelope(params: dict, base_dir: Path):
    tol = _tol(params, "tol", 1e-9)
    seq_a = _load_sequence(params["seq_a"], "seq_a")
    seq_b = _load_sequence(params["seq_b"], "seq_b")
    n_freq = _int(params, "n_freq", minimum=1)
    _check_budget("n_freq", n_freq * (2 * max(seq_a.max_lag, seq_b.max_lag) + 1))
    sa = st.spectral_density(seq_a, n_freq)
    sb = st.spectral_density(seq_b, n_freq)
    ok, margins = st.wss_envelope_order(sa, sb, tol=tol)
    worst = int(np.argmin(margins))
    report = {
        "kind": "wss_envelope",
        "member": ok,
        "worst_frequency": float(sa.omegas[worst]),
        "worst_margin": float(margins[worst]),
        "n_freq": n_freq,
        "tol": tol,
    }
    series = [["freq_index", "margin"]] + [
        [r, float(v)] for r, v in enumerate(margins)
    ]
    return report, series, 0 if ok else 2


def _run_wss_filter(params: dict, base_dir: Path):
    seq = _load_sequence(params["seq"], "seq")
    n = _int(params, "n_freq", minimum=1)
    _check_budget("n_freq", n * n)
    seed = _int(params, "seed", minimum=0)
    rank_tol = _tol(params, "rank_tol", cov.DEFAULT_RANK_RTOL)
    model = st.LTIModel.from_impulse_response(
        _load_array(params["target_kernel"], "target_kernel", 1),
        _load_array(params["observation_kernel"], "observation_kernel", 1),
        n,
    )
    oracle = st.circulant_oracle(seq, model, n, seed=seed, rank_tol=rank_tol)
    report = {
        "kind": "wss_filter",
        "seed": seed,
        "max_symbol_gap": oracle.max_symbol_gap,
        "flagged_count": oracle.flagged_count,
        "embedding_lambda_min": oracle.embedding_lambda_min,
        "no_minimizer": oracle.no_minimizer,
        "off_diagonal_leakage": oracle.off_diagonal_leakage,
        "target_energy_time": oracle.target_energy_time,
        "target_energy_freq": oracle.target_energy_freq,
    }
    series = [["freq_index", "tau_re", "tau_im", "gap"]] + [
        [r, float(t.real), float(t.imag), float(g)]
        for r, (t, g) in enumerate(zip(oracle.tau, oracle.gaps))
    ]
    return report, series, 2 if oracle.no_minimizer else 0


def _run_elliptic_demo(params: dict, base_dir: Path):
    cfg = rp.EllipticConfig(
        n_x=_int(params, "n_x"),
        potential=_float(params, "potential", 0.0),
        bump_width=(
            None if params.get("bump_width") is None else _float(params, "bump_width")
        ),
        bump_centers=_floats(params, "bump_centers"),
        alphas=_floats(params, "alphas"),
        basis_dim=_int(params, "basis_dim"),
        ell=None if params.get("ell") is None else _floats(params, "ell"),
    )
    _check_budget("n_x", cfg.n_x)
    _check_budget("basis_dim", cfg.d * cfg.basis_dim**2)
    seed = _int(params, "seed", minimum=0)
    m = _int(params, "n_atoms", minimum=1)
    _check_budget("n_atoms", m * cfg.d * cfg.basis_dim)
    tol = _tol(params, "tol", 1e-9)
    rep, meta = rp.build_elliptic_representation(cfg)
    rng = np.random.default_rng(seed)
    source = me.SourceEnsemble(
        space=me.MeasureSpace(weights=rng.uniform(0.5, 1.5, size=m)),
        values=rng.standard_normal((m, cfg.d, cfg.basis_dim)),
    )
    candidate = env.sample_dominated(source, seed + 1, 1)[0]
    pushed_src = cov.push_forward(rep.target_map, me.second_moment(source))
    pushed_cand = cov.push_forward(rep.target_map, me.second_moment(candidate))
    transfer_ok, transfer_margin = cov.loewner_dominates(
        pushed_src, pushed_cand, tol=tol
    )
    obs = rp.apply(rep, source)
    system = cm.assemble_normal_equations(obs)
    outcome = cm.solution_set(system)
    report = {
        "kind": "elliptic_demo",
        "seed": seed,
        "component_gains": meta["component_gains"],
        "grid_step": meta["grid_step"],
        "transfer_ok": bool(transfer_ok),
        "transfer_margin": float(transfer_margin),
    }
    if isinstance(outcome, cm.NoMinimizer):
        report.update({"no_minimizer": True, "range_violation": outcome.range_violation})
        code = 2
    else:
        report.update(
            {
                "no_minimizer": False,
                "residual": cm.residual_norm(system, outcome.t0),
                "kernel_dim": int(outcome.kernel_basis.shape[0]),
                "unique": bool(outcome.unique),
                "hs_norm": outcome.t0.hs_norm,
            }
        )
        code = 0 if transfer_ok else 2
    series = [["n_in", "truncation_residual"]]
    n_out = min(rep.p_out, rep.q)
    for n_in in range(1, cfg.basis_dim + 1):
        _, aggregate = rp.truncation_residual(rep, source, n_in, n_out)
        series.append([n_in, float(aggregate)])
    return report, series, code


@dataclass(frozen=True)
class _KindSpec:
    """What the driver knows of one kind: the fields a config must give,
    the field that --tol overrides, the summary fields, and the pipeline."""

    required: tuple[str, ...]
    tol_field: str
    summary: tuple[str, ...]
    pipeline: Callable[[dict, Path], tuple[dict, list, int]]


_KIND_SPECS = {
    "envelope_check": _KindSpec(
        required=("source", "candidate"),
        tol_field="tol",
        summary=("member", "lambda_min_margin", "tol"),
        pipeline=_run_envelope_check,
    ),
    "minimize": _KindSpec(
        required=("source", "target_map", "input_map"),
        tol_field="rank_tol",
        summary=(
            "no_minimizer",
            "residual",
            "kernel_dim",
            "unique",
            "hs_norm",
            "coercivity_margin",
            "cost",
            "range_violation",
        ),
        pipeline=_run_minimize,
    ),
    "verify_extremal": _KindSpec(
        required=(
            "source",
            "sigma_xi",
            "target_map",
            "input_map",
            "seed",
            "n_samples",
            "n_operators",
        ),
        tol_field="tol",
        summary=("member", "max_violation", "cost_reference", "lambda_min_margin"),
        pipeline=_run_verify_extremal,
    ),
    "wss_envelope": _KindSpec(
        required=("seq_a", "seq_b", "n_freq"),
        tol_field="tol",
        summary=("member", "worst_frequency", "worst_margin"),
        pipeline=_run_wss_envelope,
    ),
    "wss_filter": _KindSpec(
        required=("seq", "target_kernel", "observation_kernel", "n_freq", "seed"),
        tol_field="rank_tol",
        summary=(
            "max_symbol_gap",
            "flagged_count",
            "no_minimizer",
            "embedding_lambda_min",
            "off_diagonal_leakage",
        ),
        pipeline=_run_wss_filter,
    ),
    "elliptic_demo": _KindSpec(
        required=("n_x", "bump_centers", "alphas", "basis_dim", "seed", "n_atoms"),
        tol_field="tol",
        summary=(
            "transfer_ok",
            "transfer_margin",
            "residual",
            "kernel_dim",
            "unique",
            "no_minimizer",
        ),
        pipeline=_run_elliptic_demo,
    ),
}

KINDS = tuple(_KIND_SPECS)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return str(value)


def emit_summary(report: dict) -> str:
    """Fixed-width field table for one report, deterministic ordering."""
    kind = report["kind"]
    lines = [f"{'kind':<24} {kind}"]
    for name in _KIND_SPECS[kind].summary:
        if name in report:
            lines.append(f"{name:<24} {_format_value(report[name])}")
    return "\n".join(lines)


def _jsonify(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def run(
    config_path: str | Path,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    tol: float | None = None,
) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        config = ExperimentConfig.load(config_path)
        params = dict(config.params)
        if seed is not None:
            params["seed"] = int(seed)
        spec = _KIND_SPECS[config.kind]
        if tol is not None:
            params[spec.tol_field] = float(tol)
        out = Path(out_dir) if out_dir is not None else Path.cwd()
        out.mkdir(parents=True, exist_ok=True)
        report, series, code = spec.pipeline(params, config.base_dir)
    except (EnvmmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = json.dumps(_jsonify(report), sort_keys=True, indent=2) + "\n"
    (out / "report.json").write_bytes(payload.encode())
    with open(out / "series.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in series:
            writer.writerow(row)
    print(emit_summary(report))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="envmm",
        description="Worst-case projection experiments over covariance envelopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} config")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (default: cwd)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--tol", type=float, default=None, help="override the kind's tolerance"
        )
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.load(args.config)
    except EnvmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    if config.kind != args.command:
        print(
            f"error: config kind '{config.kind}' does not match subcommand "
            f"'{args.command}'",
            file=sys.stderr,
        )
        return 1
    return run(args.config, out_dir=args.out, seed=args.seed, tol=args.tol)


if __name__ == "__main__":
    sys.exit(main())
