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
from .errors import (
    BadConfig,
    BadGrid,
    DegenerateSpec,
    EmbeddingNotPSD,
    EnvmmError,
    NotCoercive,
)

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
        spec = _KIND_SPECS[kind]
        missing = [f for f in spec.required if f not in raw]
        if missing:
            raise BadConfig(
                f"config for kind '{kind}' is missing field(s): {', '.join(missing)}"
            )
        for field in raw:
            if field != "kind":
                _check_known(kind, field)
        params = {k: v for k, v in raw.items() if k != "kind"}
        return cls(kind=kind, params=params, base_dir=path.parent)


def _check_known(kind: str, field: str) -> None:
    spec = _KIND_SPECS[kind]
    if field not in spec.required + spec.optional:
        raise BadConfig(f"field '{field}' is not a field of kind '{kind}'")


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


def _float(
    params: dict, field: str, default=None, lo: float = -np.inf, hi: float = np.inf
) -> float:
    """A finite number, within [lo, hi] when bounds are given."""
    raw = params.get(field, default)
    if isinstance(raw, bool):
        raise BadConfig(f"field '{field}' must be a number; got {raw!r}")
    try:
        value = float(raw)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"field '{field}' must be a number; got {raw!r}") from exc
    if not (np.isfinite(value) and lo <= value <= hi):
        bounds = (
            "" if lo == -np.inf else f" >= {lo:g}" if hi == np.inf else f" in [{lo:g}, {hi:g}]"
        )
        raise BadConfig(f"field '{field}' must be a finite number{bounds}; got {raw!r}")
    return value


def _floats(params: dict, field: str) -> tuple[float, ...]:
    raw = params[field]
    if not isinstance(raw, list) or any(isinstance(v, bool) for v in raw):
        raise BadConfig(f"field '{field}' must be a list of numbers; got {raw!r}")
    try:
        values = tuple(float(v) for v in raw)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"field '{field}' must be a list of numbers") from exc
    if not np.isfinite(values).all():
        raise BadConfig(f"field '{field}' must be a list of finite numbers; got {raw!r}")
    return values


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
    if not np.isfinite(arr).all():
        raise BadConfig(f"field '{field}' must hold finite numbers")
    return arr


def _load_sequence(obj, field: str) -> st.CovarianceSequence:
    if not isinstance(obj, dict) or "lags" not in obj:
        raise BadConfig(f"field '{field}' must give nonnegative lags")
    return st.CovarianceSequence.from_nonneg_lags(_load_array(obj["lags"], field, 3))


def _representation(params: dict, d: int, p: int) -> rp.RepresentationOperator:
    return rp.RepresentationOperator(
        target_map=_load_array(params["target_map"], "target_map", 2),
        input_map=_load_array(params["input_map"], "input_map", 2),
        d=d,
        p=p,
    )


# ---------------------------------------------------------------------------
# pipelines


def _run_envelope_check(params: dict, base_dir: Path):
    tol = _float(params, "tol", cov.DEFAULT_TOL, lo=0.0)
    source = _load_ensemble(params["source"], base_dir, "source")
    candidate = _load_ensemble(params["candidate"], base_dir, "candidate")
    if (candidate.d, candidate.p) != (source.d, source.p):
        raise BadConfig(
            f"field 'candidate' has block shape {(candidate.d, candidate.p)}, "
            f"source has {(source.d, source.p)}"
        )
    member, spectrum = cov.loewner_dominates(
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
    rank_tol = _float(params, "rank_tol", cov.DEFAULT_RANK_RTOL, lo=0.0)
    report = {
        "kind": "minimize",
        "coercivity_margin": cm.coercivity_margin(system),
        "target_energy": system.target_energy,
    }
    series = [["eig_index", "gram_eigenvalue"]] + [
        [i, float(v)] for i, v in enumerate(cm.gram_spectrum(system))
    ]
    if "c_min" in params:
        c_min = _float(params, "c_min")
        try:
            est = cm.solve_coercive(system, c_min)
        except (ValueError, NotCoercive) as exc:
            raise BadConfig(f"field 'c_min': {exc}") from exc
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
    dim = source.d * source.p
    # the residual-map stack W, then the sample diagonals and the cost table
    _check_budget("n_operators", n_operators * rep.p_out * max(rep.q, dim))
    _check_budget("n_samples", (n_samples + 1) * dim)
    _check_budget("n_samples", n_operators * (n_samples + 1))
    spec = me.BaselineSpec(sigma_xi=_load_array(params["sigma_xi"], "sigma_xi", 2))
    seed = _int(params, "seed", minimum=0)
    tol = _float(params, "tol", cov.DEFAULT_TOL, lo=0.0)
    shrink_floor = _float(params, "shrink_floor", 0.0, lo=0.0, hi=1.0)
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
    report = {
        "kind": "verify_extremal",
        "seed": seed,
        "tol": tol,
        "member": rep_report.member,
        "lambda_min_margin": rep_report.lambda_min_margin,
        "cost_reference": rep_report.cost_reference,
        "max_violation": rep_report.max_violation,
    }
    series = [["sample", "cost"], *rep_report.cost_samples]
    return report, series, 0 if rep_report.member else 2


def _run_wss_envelope(params: dict, base_dir: Path):
    tol = _float(params, "tol", cov.DEFAULT_TOL, lo=0.0)
    seq_a = _load_sequence(params["seq_a"], "seq_a")
    seq_b = _load_sequence(params["seq_b"], "seq_b")
    n_freq = _int(params, "n_freq", minimum=1)
    _check_budget("n_freq", n_freq * (2 * max(seq_a.max_lag, seq_b.max_lag) + 1))
    try:
        sa = st.spectral_density(seq_a, n_freq)
        sb = st.spectral_density(seq_b, n_freq)
    except BadGrid as exc:
        raise BadConfig(f"field 'n_freq' is too small: {exc}") from exc
    ok, margins = st.wss_envelope_test(sa, sb, tol=tol)
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
    # the largest arrays are the atoms and their complex waves: at most
    # 2 d (n // 2 + 1) rows of n floats, beyond the n x n complex spectrum
    _check_budget("n_freq", 2 * seq.d * (n // 2 + 1) * n)
    seed = _int(params, "seed", minimum=0)
    rank_tol = _float(params, "rank_tol", cov.DEFAULT_RANK_RTOL, lo=0.0)
    model = st.LTIModel.from_impulse_response(
        _load_array(params["target_kernel"], "target_kernel", 1),
        _load_array(params["observation_kernel"], "observation_kernel", 1),
        n,
    )
    try:
        oracle = st.circulant_oracle(seq, model, n, seed=seed, rank_tol=rank_tol)
    except DegenerateSpec as exc:
        raise BadConfig(f"field 'seq' is degenerate: {exc}") from exc
    except BadGrid as exc:
        raise BadConfig(f"field 'n_freq' is too small: {exc}") from exc
    except EmbeddingNotPSD as exc:
        raise BadConfig(
            f"field 'seq' is indefinite on the 'n_freq' = {n} grid: {exc}"
        ) from exc
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
    tol = _float(params, "tol", cov.DEFAULT_TOL, lo=0.0)
    rep, meta = rp.build_elliptic_representation(cfg)
    rng = np.random.default_rng(seed)
    source = me.SourceEnsemble(
        space=me.MeasureSpace(weights=rng.uniform(0.5, 1.5, size=m)),
        values=rng.standard_normal((m, cfg.d, cfg.basis_dim)),
    )
    candidate = env.sample_dominated(source, seed + 1, 1)[0]
    pushed_src = cov.push_forward(rep.target_map, me.second_moment(source))
    pushed_cand = cov.push_forward(rep.target_map, me.second_moment(candidate))
    transfer_ok, spectrum = cov.loewner_dominates(pushed_src, pushed_cand, tol=tol)
    obs = rp.apply(rep, source)
    system = cm.assemble_normal_equations(obs)
    outcome = cm.solution_set(system)
    report = {
        "kind": "elliptic_demo",
        "seed": seed,
        "component_gains": meta["component_gains"],
        "grid_step": meta["grid_step"],
        "transfer_ok": bool(transfer_ok),
        "transfer_margin": float(spectrum[0]),
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
    the fields it may give, the summary fields, and the pipeline."""

    required: tuple[str, ...]
    optional: tuple[str, ...]
    summary: tuple[str, ...]
    pipeline: Callable[[dict, Path], tuple[dict, list, int]]


_KIND_SPECS = {
    "envelope_check": _KindSpec(
        required=("source", "candidate"),
        optional=("tol",),
        summary=("member", "lambda_min_margin", "tol"),
        pipeline=_run_envelope_check,
    ),
    "minimize": _KindSpec(
        required=("source", "target_map", "input_map"),
        optional=("rank_tol", "c_min"),
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
        optional=("tol", "shrink_floor"),
        summary=("member", "max_violation", "cost_reference", "lambda_min_margin"),
        pipeline=_run_verify_extremal,
    ),
    "wss_envelope": _KindSpec(
        required=("seq_a", "seq_b", "n_freq"),
        optional=("tol",),
        summary=("member", "worst_frequency", "worst_margin"),
        pipeline=_run_wss_envelope,
    ),
    "wss_filter": _KindSpec(
        required=("seq", "target_kernel", "observation_kernel", "n_freq", "seed"),
        optional=("rank_tol",),
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
        optional=("potential", "bump_width", "ell", "tol"),
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
    command: str | None = None,
) -> int:
    """Execute one experiment config: run its pipeline, write report.json
    and series.csv and print the summary; returns the process exit code.

    seed overrides the config's seed (only a kind with a seed field takes
    one); command, when given, is the subcommand the kind must match.
    """
    try:
        config = ExperimentConfig.load(config_path)
        if command is not None and config.kind != command:
            raise BadConfig(
                f"config kind '{config.kind}' does not match subcommand '{command}'"
            )
        params = dict(config.params)
        if seed is not None:
            _check_known(config.kind, "seed")
            params["seed"] = seed
        out = Path(out_dir) if out_dir is not None else Path.cwd()
        out.mkdir(parents=True, exist_ok=True)
        report, series, code = _KIND_SPECS[config.kind].pipeline(params, config.base_dir)
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
    for kind, spec in _KIND_SPECS.items():
        p = sub.add_parser(kind, help=f"run a {kind} config")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (default: cwd)")
        if "seed" in spec.required:
            p.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)
    return run(args.config, args.out, getattr(args, "seed", None), args.command)


if __name__ == "__main__":
    sys.exit(main())
