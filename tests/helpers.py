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


def baseline(matrix) -> E.BlockCovariance:
    """sigma_xi in the single-component layout the CLI gives it."""
    matrix = np.asarray(matrix, dtype=float)
    return E.BlockCovariance(matrix=matrix, d=1, p=matrix.shape[0])


def random_baseline(
    rng: np.random.Generator, dim: int, scale: float = 1.0
) -> E.BlockCovariance:
    return baseline(random_psd(rng, dim, scale=scale))


def random_representation(
    rng: np.random.Generator,
    d: int,
    p: int,
    p_out: int | None = None,
    q: int | None = None,
) -> E.RepresentationOperator:
    p_out = int(rng.integers(1, 7)) if p_out is None else p_out
    q = int(rng.integers(1, 7)) if q is None else q
    return E.RepresentationOperator(
        target_map=rng.standard_normal((p_out, d * p)),
        input_map=rng.standard_normal((q, d * p)),
        d=d,
        p=p,
    )


def random_estimator(
    rng: np.random.Generator, rep: E.RepresentationOperator, scale: float = 1.0
) -> np.ndarray:
    return scale * rng.standard_normal((rep.p_out, rep.q))


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
    return E.CovarianceSequence(lags=nonneg)


def scaled_sequence(seq: E.CovarianceSequence, factor: float) -> E.CovarianceSequence:
    return E.CovarianceSequence(lags=factor * seq.lags)


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


def fft_filtered_atoms(
    evals: np.ndarray,
    evecs: np.ndarray,
    target_response: np.ndarray,
    observation_response: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference route for the oracle's filtered atoms: build the unfiltered
    modes sqrt(lam) u e^{i (omega_r t + phi)} with the same phase draws,
    split each into its real and imaginary atom, then filter channel 0
    through the target response and channel 1 through the observation
    response with an FFT round trip per atom."""
    n = evals.shape[0]
    omegas = 2.0 * np.pi * np.arange(n) / n
    freq, idx = np.nonzero(evals > 0.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=freq.size)
    waves = np.exp(1j * (omegas[freq][:, None] * np.arange(n) + phases[:, None]))
    vecs = evecs[freq, :, idx]
    modes = np.sqrt(evals[freq, idx])[:, None, None] * vecs[:, :, None] * waves[:, None, :]
    atoms = np.empty((2 * freq.size,) + modes.shape[1:])
    atoms[0::2] = modes.real
    atoms[1::2] = modes.imag
    y = np.fft.ifft(target_response * np.fft.fft(atoms[:, 0, :], axis=1), axis=1)
    x = np.fft.ifft(observation_response * np.fft.fft(atoms[:, 1, :], axis=1), axis=1)
    return y.real, x.real
