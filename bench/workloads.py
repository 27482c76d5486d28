"""Seeded experiment configs for the benchmark workloads, and output checks.

Every workload is a list of ops. One op is one or more `envmm.cli.run`
calls on JSON configs generated here from the workload seed and an op
index; the program sees only the generated files. Every config is built
so that the run succeeds (exit code 0) with verdicts known by
construction, and `check_run` tests a finished run against them and
against the statistics that theory bounds.

Sizes:

extremal  verify_extremal, m=2000 atoms, d=2, p=32, 200 samples,
          5 estimators, 8x64 target map, 12x64 input map
oracle    wss_filter at n_freq=512 on a two-channel moving average
elliptic  elliptic_demo at n_x=100000, 4 bumps, basis_dim=4, 8 atoms
demos     one case of each of the six kinds at the bundled shapes
"""

from __future__ import annotations

import json
import math
from typing import Callable

import numpy as np

WORKLOADS = ("extremal", "oracle", "elliptic", "demos")

# Distinct ops generated per run; later ops repeat them, so every run also
# checks that a repeated input gives byte-identical outputs.
POOL_SIZE = {"extremal": 3, "oracle": 4, "elliptic": 4, "demos": 8}

# Relative bound on quantities that are zero in exact arithmetic
# (symbol gaps, leakage, optimality residuals).
ROUNDOFF_RTOL = 1e-8


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, sort_keys=True) + "\n").encode()


def _matrix(rng: np.random.Generator, rows: int, cols: int) -> list:
    return rng.standard_normal((rows, cols)).tolist()


def _ensemble(rng: np.random.Generator, m: int, d: int, p: int) -> dict:
    return {
        "weights": rng.uniform(0.5, 1.5, size=m).tolist(),
        "values": rng.standard_normal((m, d, p)).tolist(),
    }


def _psd(rng: np.random.Generator, dim: int, scale: float) -> list:
    b = rng.standard_normal((dim, dim)) / math.sqrt(dim)
    s = scale * (b @ b.T)
    return (0.5 * (s + s.T)).tolist()


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _ma_lags(rng: np.random.Generator, order: int) -> np.ndarray:
    """Nonnegative lags of a two-channel moving average x_t = sum_k b_k e_{t-k}.

    K[tau] = sum_k b_{k+tau} b_k^T, so the spectral density B(w) B(w)^* is
    PSD at every frequency. The zeroth tap of channel 1 dominates its
    other taps, so that channel's spectral density never vanishes.
    """
    taps = 0.5 * rng.standard_normal((order + 1, 2, 2))
    taps[0, 1, 1] = 1.0 + np.abs(taps[1:, 1, 1]).sum()
    lags = np.zeros((order + 1, 2, 2))
    for tau in range(order + 1):
        for k in range(order + 1 - tau):
            lags[tau] += taps[k + tau] @ taps[k].T
    lags[0] = 0.5 * (lags[0] + lags[0].T)
    return lags


def _verify_extremal(rng, m, d, p, p_out, q, n_samples) -> dict:
    return {
        "kind": "verify_extremal",
        "seed": _seed(rng),
        "n_samples": n_samples,
        "n_operators": 5,
        "tol": 1e-9,
        "shrink_floor": 0.1,
        "source": _ensemble(rng, m, d, p),
        "sigma_xi": _psd(rng, d * p, 0.1),
        "target_map": _matrix(rng, p_out, d * p),
        "input_map": _matrix(rng, q, d * p),
    }


def _wss_filter(rng, n_freq: int, order: int) -> dict:
    # |observation response| >= 1 - 0.5 > 0: no frequency is degenerate
    return {
        "kind": "wss_filter",
        "n_freq": n_freq,
        "seed": _seed(rng),
        "rank_tol": 1e-12,
        "seq": {"lags": _ma_lags(rng, order).tolist()},
        "target_kernel": rng.standard_normal(3).tolist(),
        "observation_kernel": [1.0, float(rng.uniform(-0.5, 0.5))],
    }


def _elliptic_demo(rng, n_x: int, d: int, width: tuple[float, float]) -> dict:
    return {
        "kind": "elliptic_demo",
        "n_x": n_x,
        "potential": float(rng.uniform(0.0, 2.0)),
        "bump_width": float(rng.uniform(*width)),
        "bump_centers": np.sort(rng.uniform(0.2, 0.8, size=d)).tolist(),
        "alphas": rng.uniform(0.5, 1.5, size=d).tolist(),
        "basis_dim": 4,
        "seed": _seed(rng),
        "n_atoms": 8,
        "tol": 1e-9,
    }


def _envelope_check(rng) -> dict:
    # candidate atoms are the source atoms shrunk by factors in (0, 1)
    source = _ensemble(rng, 3, 2, 2)
    shrink = rng.uniform(0.2, 0.9, size=3)
    values = np.asarray(source["values"]) * shrink[:, None, None]
    return {
        "kind": "envelope_check",
        "tol": 1e-9,
        "source": source,
        "candidate": {"weights": source["weights"], "values": values.tolist()},
    }


def _minimize(rng) -> dict:
    return {
        "kind": "minimize",
        "source": _ensemble(rng, 4, 1, 3),
        "target_map": _matrix(rng, 2, 3),
        "input_map": _matrix(rng, 2, 3),
        "rank_tol": 1e-12,
    }


def _wss_envelope(rng) -> dict:
    # seq_b = c * seq_a with c < 1, so every spectral gap is (1 - c) S_a >= 0
    lags = _ma_lags(rng, 1)
    c = float(rng.uniform(0.3, 0.8))
    return {
        "kind": "wss_envelope",
        "n_freq": 64,
        "tol": 1e-9,
        "seq_a": {"lags": lags.tolist()},
        "seq_b": {"lags": (c * lags).tolist()},
    }


def build_op(workload: str, seed: int, index: int) -> list[dict]:
    """The configs of op `index` of a workload; a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    if workload == "extremal":
        return [_verify_extremal(rng, 2000, 2, 32, 8, 12, 200)]
    if workload == "oracle":
        return [_wss_filter(rng, 512, 3)]
    if workload == "elliptic":
        return [_elliptic_demo(rng, 100_000, 4, (0.05, 0.15))]
    return [
        _envelope_check(rng),
        _minimize(rng),
        _verify_extremal(rng, 4, 2, 3, 3, 2, 20),
        _wss_envelope(rng),
        _wss_filter(rng, 64, 1),
        _elliptic_demo(rng, 64, 2, (0.08, 0.15)),
    ]


# ---------------------------------------------------------------------------
# output checks


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _fields(problems: list, report: dict, expected: dict) -> None:
    for key, want in expected.items():
        got = report.get(key)
        _expect(problems, got == want, f"{key} is {got!r}, expected {want!r}")


def _numbers(series: list[list[str]], column: int) -> list[float]:
    return [float(row[column]) for row in series[1:]]


def _check_verify_extremal(cfg, report, series, problems):
    _fields(problems, report, {"member": True})
    bound = cfg["tol"] * (1.0 + report["cost_reference"])
    _expect(
        problems,
        report["max_violation"] <= bound,
        f"max_violation {report['max_violation']!r} exceeds tol*(1+cost_reference) {bound!r}",
    )
    _expect(
        problems,
        len(series) == cfg["n_samples"] + 2,
        f"series has {len(series) - 1} samples, expected {cfg['n_samples'] + 1}",
    )


def _check_wss_filter(cfg, report, series, problems):
    _fields(problems, report, {"no_minimizer": False, "flagged_count": 0})
    tau = max(math.hypot(re, im) for re, im in zip(_numbers(series, 1), _numbers(series, 2)))
    bound = ROUNDOFF_RTOL * (1.0 + tau)
    for key in ("max_symbol_gap", "off_diagonal_leakage"):
        _expect(problems, report[key] <= bound, f"{key} {report[key]!r} exceeds {bound!r}")
    _expect(
        problems,
        len(series) == cfg["n_freq"] + 1,
        f"series has {len(series) - 1} frequencies, expected {cfg['n_freq']}",
    )


def _check_elliptic_demo(cfg, report, series, problems):
    _fields(
        problems,
        report,
        {"transfer_ok": True, "no_minimizer": False, "unique": True, "kernel_dim": 0},
    )
    bound = ROUNDOFF_RTOL * (1.0 + report.get("hs_norm", 0.0))
    _expect(
        problems,
        report.get("residual", math.inf) <= bound,
        f"residual {report.get('residual')!r} exceeds {bound!r}",
    )
    residuals = _numbers(series, 1)
    _expect(
        problems,
        len(residuals) == cfg["basis_dim"] and residuals[-1] == 0.0,
        "truncation residual is not exactly zero at the full basis",
    )


def _check_minimize(cfg, report, series, problems):
    _fields(problems, report, {"no_minimizer": False, "unique": True, "kernel_dim": 0})
    lam_max = max(_numbers(series, 1))
    bound = ROUNDOFF_RTOL * (1.0 + report.get("hs_norm", 0.0) * lam_max)
    _expect(
        problems,
        report.get("residual", math.inf) <= bound,
        f"residual {report.get('residual')!r} exceeds {bound!r}",
    )


def _check_envelope_check(cfg, report, series, problems):
    _fields(problems, report, {"member": True})
    _expect(
        problems,
        report["lambda_min_margin"] >= -cfg["tol"],
        f"lambda_min_margin {report['lambda_min_margin']!r} below -tol",
    )


def _check_wss_envelope(cfg, report, series, problems):
    _fields(problems, report, {"member": True})


_CHECKS: dict[str, Callable] = {
    "verify_extremal": _check_verify_extremal,
    "wss_filter": _check_wss_filter,
    "elliptic_demo": _check_elliptic_demo,
    "minimize": _check_minimize,
    "envelope_check": _check_envelope_check,
    "wss_envelope": _check_wss_envelope,
}


def check_run(config: dict, code: int, report_bytes: bytes, series_bytes: bytes) -> list[str]:
    """Problems with one finished run; an empty list means it is correct."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    problems: list[str] = []
    try:
        report = json.loads(report_bytes)
        series = [line.split(",") for line in series_bytes.decode().splitlines()]
        _fields(problems, report, {"kind": config["kind"]})
        _CHECKS[config["kind"]](config, report, series, problems)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    return problems
