"""Experiment driver: JSON config in, JSON report plus CSV series out.

Each run loads one config, dispatches on its kind, writes report.json
and series.csv into the output directory, and prints a fixed-width
summary. Reports contain only outputs of named package operations; the
driver itself formats, never computes. The same config, seed, numpy/BLAS
build and BLAS thread count give byte-identical reports.

Exit codes: 0 on success, 2 on a typed domain outcome (no minimizer,
envelope violation), 1 on usage or IO problems, and on a result that is
not finite because a config value overflows.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import reduce
from operator import getitem
from pathlib import Path
from typing import Callable

import numpy as np

from . import cost_minimizer as cm
from . import covariance as cov
from . import envelope as env
from . import measure_ensemble as me
from . import representation as rp
from . import stationary as st
from .errors import BadConfig, BadGrid, DegenerateSpec, EnvmmError, ShapeMismatch

# Largest array, in float64 elements (1 GiB), that a count field may size;
# checked before the array is built, so an oversized count exits 1.
ELEMENT_BUDGET = 2**27


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description: a kind plus its parsed fields."""

    kind: str
    params: dict

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise BadConfig(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise BadConfig("config must be a JSON object")
        kind = raw.pop("kind", None)
        if kind not in KINDS:
            raise BadConfig(
                f"config field 'kind' must be one of {', '.join(KINDS)}; got {kind!r}"
            )
        table = _KIND_SPECS[kind].fields
        missing = [f for f, (_, d) in table.items() if d is _REQUIRED and f not in raw]
        if missing:
            raise BadConfig(
                f"config for kind '{kind}' is missing field(s): {', '.join(missing)}"
            )
        params = {f: default for f, (_, default) in table.items()}
        for field, value in raw.items():
            params[field] = _parse(kind, field, value)
        return cls(kind=kind, params=params)


def _parse(kind: str, field: str, raw):
    """One config field through its kind's parser; every error names it."""
    table = _KIND_SPECS[kind].fields
    if field not in table:
        raise BadConfig(f"field '{field}' is not a field of kind '{kind}'")
    with _field(field):
        return table[field][0](raw)


@contextmanager
def _field(*names: str):
    """Re-raise an error of the block as BadConfig naming the field(s) behind it."""
    try:
        yield
    except BadConfig:
        raise
    except (EnvmmError, OverflowError, TypeError, ValueError) as exc:
        raise BadConfig(" or ".join(f"field '{n}'" for n in names) + f": {exc}") from exc


def _check_budget(field: str, elements: int) -> None:
    if elements > ELEMENT_BUDGET:
        raise BadConfig(
            f"field '{field}' is too large: the run would allocate an array of "
            f"more than {ELEMENT_BUDGET} elements"
        )


# ---------------------------------------------------------------------------
# field parsers: each maps one raw JSON value to the value a pipeline reads,
# or raises; _parse names the field

_REQUIRED = object()
# what JSON numbers parse to, and numpy's (bool is an int, and is refused)
_REAL = (int, float, np.integer, np.floating)


def _count(minimum: int):
    """An integer >= minimum; JSON true is not one."""

    def parse(raw) -> int:
        # x % 1 is nonzero for a fraction and nan for nan or +-inf
        if isinstance(raw, bool) or not isinstance(raw, _REAL) or raw % 1:
            raise TypeError(f"must be an integer; got {raw!r}")
        if raw < minimum:
            raise ValueError(f"must be at least {minimum}; got {raw!r}")
        return int(raw)

    return parse


def _number(lo: float = -np.inf, hi: float = np.inf):
    """A finite number within [lo, hi]; JSON true is not one."""
    bounds = "" if lo == -np.inf else f" >= {lo:g}" if hi == np.inf else f" in [{lo:g}, {hi:g}]"

    def parse(raw) -> float:
        if isinstance(raw, bool) or not isinstance(raw, _REAL):
            raise TypeError(f"must be a number; got {raw!r}")
        value = float(raw)
        if not (np.isfinite(value) and lo <= value <= hi):
            raise ValueError(f"must be a finite number{bounds}; got {raw!r}")
        return value

    return parse


def _numbers(raw) -> tuple[float, ...]:
    """A list of finite numbers."""
    return tuple(_array(1)(raw).tolist())


def _array(ndim: int):
    """Finite JSON numbers nested ndim deep, as a float array; a string or a
    bool, which numpy would read as a number, is refused."""

    def parse(raw) -> np.ndarray:
        arr = np.asarray(raw)
        if arr.dtype == object and all(type(v) in (int, float) for v in arr.flat):
            arr = arr.astype(float)  # an integer beyond 64 bits is a JSON number too
        if arr.dtype.kind not in "iuf" or arr.ndim != ndim:
            raise TypeError(f"must be {ndim}-dimensional, numbers only; got {raw!r:.60}")
        suspect = np.flatnonzero((arr == 0) | (arr == 1))
        if suspect.size and any(isinstance(reduce(getitem, index, raw), bool)
                                for index in zip(*np.unravel_index(suspect, arr.shape))):
            raise TypeError("must hold numbers only; got a bool")
        if not np.isfinite(arr).all():
            raise ValueError("must hold finite numbers")
        return arr.astype(float, copy=False)

    return parse


def _optional(parse):
    """parse, with JSON null for the default None."""
    return lambda raw: None if raw is None else parse(raw)


def _ensemble(raw) -> me.SourceEnsemble:
    """Inline weights and (m, d, p) values."""
    if not (isinstance(raw, dict) and "weights" in raw and "values" in raw):
        raise TypeError("must give weights and (m, d, p) values")
    weights, values = _array(1)(raw["weights"]), _array(3)(raw["values"])
    return me.SourceEnsemble(space=me.MeasureSpace(weights=weights), values=values)


def _sequence(raw) -> st.CovarianceSequence:
    """Covariance lags 0..L, each a d x d matrix."""
    if not (isinstance(raw, dict) and "lags" in raw):
        raise TypeError("must give nonnegative lags")
    return st.CovarianceSequence(lags=_array(3)(raw["lags"]))


def _baseline(raw) -> cov.BlockCovariance:
    """sigma_xi, a plain covariance: one component of n coefficients."""
    matrix = _array(2)(raw)
    return cov.BlockCovariance(matrix=matrix, d=1, p=matrix.shape[0])


def _operator(p: dict) -> rp.RepresentationOperator:
    """The config's maps on the source's d*p coefficients."""
    source = p["source"]
    for field in ("target_map", "input_map"):
        if p[field].shape[1] != source.d * source.p:
            raise BadConfig(f"field '{field}' must have one column per source coefficient, "
                            f"{source.d * source.p}; got {p[field].shape[1]}")
    return rp.RepresentationOperator(
        target_map=p["target_map"], input_map=p["input_map"], d=source.d, p=source.p
    )


# ---------------------------------------------------------------------------
# pipelines


def _run_envelope_check(p: dict):
    source, candidate = p["source"], p["candidate"]
    if (candidate.d, candidate.p) != (source.d, source.p):
        raise BadConfig(
            f"field 'candidate' has block shape {(candidate.d, candidate.p)}, "
            f"source has {(source.d, source.p)}"
        )
    with _field("source"):
        big = me.second_moment(source)
    with _field("candidate"):
        small = me.second_moment(candidate)
    member, spectrum = cov.loewner_dominates(big, small, tol=p["tol"])
    report = {
        "kind": "envelope_check",
        "member": member,
        "lambda_min_margin": float(spectrum[0]),
        "tol": p["tol"],
    }
    series = [["eig_index", "order_eigenvalue"]] + [
        [i, float(v)] for i, v in enumerate(spectrum)
    ]
    return report, series, 0 if member else 2


def _solution(system: cm.NormalEquationSystem, outcome) -> dict:
    """The report fields of a solution_set outcome: the range violation
    when there is no minimizer, else the minimal-norm minimizer's
    residual and size and the kernel's dimension."""
    if isinstance(outcome, cm.NoMinimizer):
        return {"no_minimizer": True, "range_violation": outcome.range_violation}
    return {
        "no_minimizer": False,
        "residual": cm.residual_norm(system, outcome.t0),
        "hs_norm": outcome.hs_norm,
        "kernel_dim": int(outcome.kernel_basis.shape[0]),
        "unique": bool(outcome.unique),
    }


def _run_minimize(p: dict):
    obs = rp.apply(_operator(p), p["source"])
    system = cm.assemble_normal_equations(obs)
    report = {
        "kind": "minimize",
        "coercivity_margin": cm.coercivity_margin(system),
        "target_energy": system.target_energy,
    }
    series = [["eig_index", "gram_eigenvalue"]] + [
        [i, float(v)] for i, v in enumerate(cm.gram_spectrum(system))
    ]
    outcome = cm.solution_set(system, rank_tol=p["rank_tol"])
    report.update(_solution(system, outcome))
    if report["no_minimizer"]:
        return report, series, 2
    report["cost"] = cm.system_cost(system, outcome.t0)
    return report, series, 0


def _run_verify_extremal(p: dict):
    source, spec, seed = p["source"], p["sigma_xi"], p["seed"]
    n_operators, n_samples = p["n_operators"], p["n_samples"]
    rep = _operator(p)
    dim = source.d * source.p
    if spec.dim != dim:
        raise BadConfig(f"field 'sigma_xi' must be {dim} x {dim} (source d*p); got {spec.dim}")
    # the residual-map stack W, then the sample diagonals and the cost table
    _check_budget("n_operators", n_operators * rep.p_out * max(rep.q, dim))
    _check_budget("n_samples", (n_samples + 1) * dim)
    _check_budget("n_samples", n_operators * (n_samples + 1))
    estimators = np.random.default_rng(seed).standard_normal((n_operators, rep.p_out, rep.q))
    # every other field is checked by now; what is left is the source's
    # second moment, which can overflow
    with _field("source"):
        rep_report = env.verify_extremal(
            source, spec, rep, estimators, seed=seed, n_samples=n_samples,
            tol=p["tol"], shrink_floor=p["shrink_floor"],
        )
    report = {
        "kind": "verify_extremal",
        "seed": seed,
        "tol": p["tol"],
        "member": rep_report.member,
        "lambda_min_margin": rep_report.lambda_min_margin,
        "cost_reference": rep_report.cost_reference,
        "max_violation": rep_report.max_violation,
    }
    series = [["sample", "cost"], *rep_report.cost_samples]
    return report, series, 0 if rep_report.member else 2


def _run_wss_envelope(p: dict):
    seq_a, seq_b, n_freq = p["seq_a"], p["seq_b"], p["n_freq"]
    if seq_b.d != seq_a.d:
        raise BadConfig(f"field 'seq_b' has {seq_b.d} channels, seq_a has {seq_a.d}")
    _check_budget("n_freq", n_freq * (2 * max(seq_a.max_lag, seq_b.max_lag) + 1))
    with _field("n_freq"):
        sa = st.spectral_density(seq_a, n_freq)
        sb = st.spectral_density(seq_b, n_freq)
    ok, margins = st.wss_envelope_test(sa, sb, tol=p["tol"])
    worst = int(np.argmin(margins))
    report = {
        "kind": "wss_envelope",
        "member": ok,
        "worst_frequency": 2.0 * np.pi * worst / n_freq,
        "worst_margin": float(margins[worst]),
        "n_freq": n_freq,
        "tol": p["tol"],
    }
    series = [["freq_index", "margin"]] + [
        [r, float(v)] for r, v in enumerate(margins)
    ]
    return report, series, 0 if ok else 2


def _run_wss_filter(p: dict):
    seq, n, seed = p["seq"], p["n_freq"], p["seed"]
    # the largest arrays are the atoms and their complex waves: at most
    # 2 d (n // 2 + 1) rows of n floats, beyond the complex half spectrum
    _check_budget("n_freq", 2 * seq.d * (n // 2 + 1) * n)
    for field in ("target_kernel", "observation_kernel"):
        if p[field].size > n:
            raise BadConfig(f"field '{field}' has {p[field].size} taps, more than 'n_freq' = {n}")
    try:
        oracle = st.circulant_oracle(
            seq, p["target_kernel"], p["observation_kernel"], n, seed=seed, rank_tol=p["rank_tol"]
        )
    except BadGrid as exc:
        raise BadConfig(f"field 'n_freq' is too small: {exc}") from exc
    except (DegenerateSpec, ShapeMismatch) as exc:
        raise BadConfig(f"field 'seq' on the 'n_freq' = {n} grid: {exc}") from exc
    except ValueError as exc:
        # the seq passed the checks above: what is left is a kernel whose
        # response, or the observed blocks it scales, overflows
        raise BadConfig(f"field 'target_kernel' or field 'observation_kernel': {exc}") from exc
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


def _run_elliptic_demo(p: dict):
    # EllipticConfig's fields share their names with the config's
    cfg = rp.EllipticConfig(**{f.name: p[f.name] for f in fields(rp.EllipticConfig)})
    seed, m = p["seed"], p["n_atoms"]
    _check_budget("n_x", cfg.n_x)
    _check_budget("basis_dim", cfg.d * cfg.basis_dim**2)
    _check_budget("n_atoms", m * cfg.d * cfg.basis_dim)
    rng = np.random.default_rng(seed)
    source = me.SourceEnsemble(
        space=me.MeasureSpace(weights=rng.uniform(0.5, 1.5, size=m)),
        values=rng.standard_normal((m, cfg.d, cfg.basis_dim)),
    )
    candidate = env.sample_dominated(source, seed + 1, 1)[0]
    # alphas scale the input map and ell the target map; a product of them
    # can overflow even when each is finite
    with _field("alphas", "ell"):
        rep, meta = rp.build_elliptic_representation(cfg)
        pushed_src = cov.push_forward(rep.target_map, me.second_moment(source))
        pushed_cand = cov.push_forward(rep.target_map, me.second_moment(candidate))
        transfer_ok, spectrum = cov.loewner_dominates(pushed_src, pushed_cand, tol=p["tol"])
        system = cm.assemble_normal_equations(rp.apply(rep, source))
        outcome = cm.solution_set(system)
    report = {
        "kind": "elliptic_demo",
        "seed": seed,
        "component_gains": meta["component_gains"],
        "grid_step": meta["grid_step"],
        "transfer_ok": bool(transfer_ok),
        "transfer_margin": float(spectrum[0]),
    }
    report.update(_solution(system, outcome))
    code = 0 if transfer_ok and not report["no_minimizer"] else 2
    series = [["n_in", "truncation_residual"]]
    n_out = min(rep.p_out, rep.q)
    for n_in in range(1, cfg.basis_dim + 1):
        _, aggregate = rp.truncation_residual(rep, source, n_in, n_out)
        series.append([n_in, float(aggregate)])
    return report, series, code


@dataclass(frozen=True)
class _KindSpec:
    """What the driver knows of one kind: each config field's parser and
    default (_REQUIRED for a field the config must give), the summary
    fields, and the pipeline, which reads the parsed fields."""

    fields: dict[str, tuple[Callable, object]]
    summary: tuple[str, ...]
    pipeline: Callable[[dict], tuple[dict, list, int]]


_SEED = (_count(0), _REQUIRED)
_TOL = (_number(0.0), cov.DEFAULT_TOL)
_RANK_TOL = (_number(0.0), cov.DEFAULT_RANK_RTOL)

_KIND_SPECS = {
    "envelope_check": _KindSpec(
        fields={
            "source": (_ensemble, _REQUIRED),
            "candidate": (_ensemble, _REQUIRED),
            "tol": _TOL,
        },
        summary=("member", "lambda_min_margin", "tol"),
        pipeline=_run_envelope_check,
    ),
    "minimize": _KindSpec(
        fields={
            "source": (_ensemble, _REQUIRED),
            "target_map": (_array(2), _REQUIRED),
            "input_map": (_array(2), _REQUIRED),
            "rank_tol": _RANK_TOL,
        },
        summary=("no_minimizer", "residual", "kernel_dim", "unique", "hs_norm",
                 "coercivity_margin", "cost", "range_violation"),
        pipeline=_run_minimize,
    ),
    "verify_extremal": _KindSpec(
        fields={
            "source": (_ensemble, _REQUIRED),
            "sigma_xi": (_baseline, _REQUIRED),
            "target_map": (_array(2), _REQUIRED),
            "input_map": (_array(2), _REQUIRED),
            "seed": _SEED,
            "n_samples": (_count(0), _REQUIRED),
            "n_operators": (_count(1), _REQUIRED),
            "tol": _TOL,
            "shrink_floor": (_number(0.0, 1.0), 0.0),
        },
        summary=("member", "max_violation", "cost_reference", "lambda_min_margin"),
        pipeline=_run_verify_extremal,
    ),
    "wss_envelope": _KindSpec(
        fields={
            "seq_a": (_sequence, _REQUIRED),
            "seq_b": (_sequence, _REQUIRED),
            "n_freq": (_count(1), _REQUIRED),
            "tol": _TOL,
        },
        summary=("member", "worst_frequency", "worst_margin"),
        pipeline=_run_wss_envelope,
    ),
    "wss_filter": _KindSpec(
        fields={
            "seq": (_sequence, _REQUIRED),
            "target_kernel": (_array(1), _REQUIRED),
            "observation_kernel": (_array(1), _REQUIRED),
            "n_freq": (_count(1), _REQUIRED),
            "seed": _SEED,
            "rank_tol": _RANK_TOL,
        },
        summary=("max_symbol_gap", "flagged_count", "no_minimizer",
                 "embedding_lambda_min", "off_diagonal_leakage"),
        pipeline=_run_wss_filter,
    ),
    "elliptic_demo": _KindSpec(
        fields={
            "n_x": (_count(2), _REQUIRED),
            "bump_centers": (_numbers, _REQUIRED),
            "alphas": (_numbers, _REQUIRED),
            "basis_dim": (_count(1), _REQUIRED),
            "seed": _SEED,
            "n_atoms": (_count(1), _REQUIRED),
            "potential": (_number(), 0.0),
            "bump_width": (_optional(_number()), None),
            "ell": (_optional(_numbers), None),
            "tol": _TOL,
        },
        summary=("transfer_ok", "transfer_margin", "residual", "kernel_dim", "unique",
                 "no_minimizer"),
        pipeline=_run_elliptic_demo,
    ),
}

KINDS = tuple(_KIND_SPECS)


def _require_finite(report: dict, series: list) -> None:
    """Refuse a NaN or an infinity before anything is written: strict JSON
    has neither, and from a config of finite numbers one means a product
    of them overflowed, so no verdict can be read from it."""
    header, *rows = series
    named = [("report", name, value) for name, value in report.items()]
    named += [("series", name, column) for name, column in zip(header, zip(*rows))]
    for where, name, value in named:
        values = value if isinstance(value, (list, tuple)) else [value]
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            raise BadConfig(f"{where} field '{name}' is not finite: a config value overflows")


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
        # an overflow is refused by _require_finite or a library check,
        # naming its field; numpy's warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            config = ExperimentConfig.load(config_path)
            if command is not None and config.kind != command:
                raise BadConfig(
                    f"config kind '{config.kind}' does not match subcommand '{command}'"
                )
            params = dict(config.params)
            if seed is not None:
                params["seed"] = _parse(config.kind, "seed", seed)
            out = Path(out_dir) if out_dir is not None else Path.cwd()
            out.mkdir(parents=True, exist_ok=True)
            report, series, code = _KIND_SPECS[config.kind].pipeline(params)
            _require_finite(report, series)
    except (EnvmmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # numpy scalars and arrays reach the encoder only through tolist()
    payload = json.dumps(report, sort_keys=True, indent=2, default=lambda v: v.tolist())
    (out / "report.json").write_bytes((payload + "\n").encode())
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
        if "seed" in spec.fields:
            p.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)
    return run(args.config, args.out, getattr(args, "seed", None), args.command)


if __name__ == "__main__":
    sys.exit(main())
