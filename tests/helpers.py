"""Shared random-instance generators for the test suite.

Everything takes an explicit numpy Generator so tests stay reproducible;
no module-level randomness.
"""

from __future__ import annotations

import numpy as np

import envmm as E


def random_space(rng: np.random.Generator, m: int) -> E.MeasureSpace:
    return E.MeasureSpace(weights=rng.uniform(0.2, 1.8, size=m))


def random_ensemble(
    rng: np.random.Generator,
    m: int | None = None,
    d: int | None = None,
    p: int | None = None,
    scale: float = 1.0,
) -> E.SourceEnsemble:
    m = int(rng.integers(1, 9)) if m is None else m
    d = int(rng.integers(1, 4)) if d is None else d
    p = int(rng.integers(1, 6)) if p is None else p
    return E.SourceEnsemble(
        space=random_space(rng, m),
        values=scale * rng.standard_normal((m, d, p)),
    )


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    root = rng.standard_normal((n, n))
    return scale * (root @ root.T) / n


def random_baseline_spec(
    rng: np.random.Generator, dim: int, scale: float = 1.0
) -> E.BaselineSpec:
    return E.BaselineSpec(sigma_xi=random_psd(rng, dim, scale=scale))


def random_representation(
    rng: np.random.Generator,
    d: int,
    p: int,
    p_out: int | None = None,
    q: int | None = None,
    mixing_norm: float = 1.0,
) -> E.RepresentationOperator:
    p_out = int(rng.integers(1, 7)) if p_out is None else p_out
    q = int(rng.integers(1, 7)) if q is None else q
    return E.RepresentationOperator(
        target_map=rng.standard_normal((p_out, d * p)),
        input_map=rng.standard_normal((q, d * p)),
        d=d,
        p=p,
        mixing_norm=mixing_norm,
    )


def random_estimator(
    rng: np.random.Generator, rep: E.RepresentationOperator, scale: float = 1.0
) -> E.HSOperator:
    return E.HSOperator(coeffs=scale * rng.standard_normal((rep.p_out, rep.q)))


def coefficient_diagonal_representation(
    rng: np.random.Generator, d: int, p: int
) -> E.RepresentationOperator:
    """Maps acting coefficient-by-coefficient, as the elliptic builder does.

    Output coefficient k mixes only input coefficient k across components,
    so truncating the input tail can never grow the observed error.
    """
    eye = np.eye(p)
    gains = rng.uniform(-2.0, 2.0, size=d)
    alphas = rng.uniform(-2.0, 2.0, size=d)
    return E.RepresentationOperator(
        target_map=np.hstack([g * eye for g in gains]),
        input_map=np.hstack([a * eye for a in alphas]),
        d=d,
        p=p,
    )


def random_sequence(
    rng: np.random.Generator, max_lag: int = 4, d: int = 2, scale: float = 1.0
) -> E.CovarianceSequence:
    """Sequence with a guaranteed PSD spectrum, built from a moving-average
    factor: lags are the matrix autocorrelation of random coefficients."""
    factors = scale * rng.standard_normal((max_lag + 1, d, d))
    nonneg = np.zeros((max_lag + 1, d, d))
    for tau in range(max_lag + 1):
        for u in range(max_lag + 1 - tau):
            nonneg[tau] += factors[u + tau] @ factors[u].T
    return E.CovarianceSequence.from_nonneg_lags(nonneg)


def scaled_sequence(seq: E.CovarianceSequence, factor: float) -> E.CovarianceSequence:
    nonneg = factor * seq.lags[seq.max_lag :]
    return E.CovarianceSequence.from_nonneg_lags(nonneg)


def contracted_ensemble(
    rng: np.random.Generator, ens: E.SourceEnsemble, floor: float = 0.0
) -> E.SourceEnsemble:
    """One dominated sample drawn through the public sampler."""
    seed = int(rng.integers(0, 2**32))
    return E.sample_dominated(ens, seed=seed, n_samples=1, shrink_floor=floor)[0]


def count_calls(monkeypatch, module, name: str, counts: dict | None = None) -> dict:
    """Count calls of module.name made from now on, as counts[name].

    Only callers that look the name up on the module at call time are
    seen. Returns counts (a new dict unless one is passed to share).
    """
    counts = {} if counts is None else counts
    counts[name] = 0
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return counts


def count_eigensolves(monkeypatch) -> dict:
    """Count numpy.linalg.eigh / eigvalsh calls made from now on.

    A batched call on a stack of matrices counts once.
    """
    counts: dict = {}
    for name in ("eigh", "eigvalsh"):
        count_calls(monkeypatch, np.linalg, name, counts)
    return counts
