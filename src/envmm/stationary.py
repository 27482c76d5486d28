"""Shift-invariant specialization: covariance sequences, spectra, filters.

For jointly stationary channels the covariance order decouples across
frequency: domination holds iff every 2x2 (more generally d x d)
spectral block gap is PSD. On a finite grid the statement is exact for
periodic extensions, because the block circulant covariance is
diagonalized by the DFT into precisely those blocks. The oracle below
exploits this to manufacture finite ensembles whose second moments equal
the periodic covariance exactly, then solves the time-domain normal
equations and compares against the closed-form frequency-wise ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .cost_minimizer import (
    NoMinimizer,
    assemble_normal_equations,
    solve_pseudoinverse,
)
from .covariance import DEFAULT_RANK_RTOL, PSD_TOL, SYM_RTOL, retained
from .errors import BadGrid, EmbeddingNotPSD, ShapeMismatch, WrongDimension
from .measure_ensemble import MeasureSpace
from .representation import ObservedEnsemble


@dataclass(frozen=True, eq=False)
class CovarianceSequence:
    """Matrix covariance lags K[-L..L] with K[-tau] = K[tau]^T.

    Stored as an array of shape (2L+1, d, d); index tau + L holds lag
    tau. Construct from the nonnegative half via from_nonneg_lags: the
    negative half is filled in by transposition, never trusted from the
    caller. Symmetry is checked to SYM_RTOL * max|K|.
    """

    lags: NDArray

    def __post_init__(self):
        k = np.array(self.lags, dtype=float)
        k.flags.writeable = False
        if k.ndim != 3 or k.shape[1] != k.shape[2] or k.shape[0] % 2 != 1:
            raise ShapeMismatch("lags must have shape (2L+1, d, d)")
        ell = k.shape[0] // 2
        scale = float(np.abs(k).max())
        for tau in range(ell + 1):
            if float(np.abs(k[ell + tau] - k[ell - tau].T).max()) > SYM_RTOL * scale:
                raise ValueError(f"lag {tau} breaks K[-tau] = K[tau]^T")
        object.__setattr__(self, "lags", k)

    @classmethod
    def from_nonneg_lags(cls, nonneg: NDArray) -> "CovarianceSequence":
        nonneg = np.asarray(nonneg, dtype=float)
        if nonneg.ndim != 3 or nonneg.shape[1] != nonneg.shape[2]:
            raise ShapeMismatch("nonneg lags must have shape (L+1, d, d)")
        ell = nonneg.shape[0] - 1
        d = nonneg.shape[1]
        scale = float(np.abs(nonneg).max())
        if float(np.abs(nonneg[0] - nonneg[0].T).max()) > SYM_RTOL * scale:
            raise ValueError("lag 0 must be symmetric")
        full = np.empty((2 * ell + 1, d, d))
        full[ell] = 0.5 * (nonneg[0] + nonneg[0].T)
        for tau in range(1, ell + 1):
            full[ell + tau] = nonneg[tau]
            full[ell - tau] = nonneg[tau].T
        return cls(lags=full)

    @property
    def d(self) -> int:
        return self.lags.shape[1]

    @property
    def max_lag(self) -> int:
        return self.lags.shape[0] // 2

    def lag(self, tau: int) -> NDArray:
        if abs(tau) > self.max_lag:
            raise ShapeMismatch(f"lag {tau} beyond max lag {self.max_lag}")
        return self.lags[self.max_lag + tau]


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """Hermitian d x d matrix per grid frequency omega_r = 2 pi r / N."""

    omegas: NDArray
    values: NDArray

    def __post_init__(self):
        om = np.array(self.omegas, dtype=float)
        vals = np.array(self.values, dtype=complex)
        om.flags.writeable = False
        vals.flags.writeable = False
        if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
            raise ShapeMismatch("spectral values must have shape (N, d, d)")
        if om.size != vals.shape[0]:
            raise ShapeMismatch("grid and value counts differ")
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "values", vals)

    @property
    def n_freq(self) -> int:
        return self.omegas.size

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class LTIModel:
    """Frequency responses of the target filter and the observation filter."""

    target_response: NDArray
    observation_response: NDArray

    def __post_init__(self):
        h = np.array(self.target_response, dtype=complex)
        g = np.array(self.observation_response, dtype=complex)
        h.flags.writeable = False
        g.flags.writeable = False
        if h.ndim != 1 or g.ndim != 1 or h.size != g.size:
            raise ShapeMismatch("responses must be 1-d arrays of equal length")
        object.__setattr__(self, "target_response", h)
        object.__setattr__(self, "observation_response", g)

    @classmethod
    def from_impulse_response(
        cls, target_kernel: NDArray, observation_kernel: NDArray, n: int
    ) -> "LTIModel":
        """Responses of real periodized kernels on the length-n grid."""
        h = np.zeros(n)
        g = np.zeros(n)
        tk = np.asarray(target_kernel, dtype=float)
        ok = np.asarray(observation_kernel, dtype=float)
        if tk.size > n or ok.size > n:
            raise ShapeMismatch("kernel longer than the grid")
        h[: tk.size] = tk
        g[: ok.size] = ok
        return cls(
            target_response=np.fft.fft(h), observation_response=np.fft.fft(g)
        )

    @property
    def n_freq(self) -> int:
        return self.target_response.size


@dataclass(frozen=True, eq=False)
class WienerSymbol:
    """Frequency-wise estimator ratio with a degeneracy flag per frequency.

    Flagged frequencies carry no observation energy; the minimal-norm
    convention puts the symbol to zero there.
    """

    tau: NDArray
    flagged: NDArray

    def __post_init__(self):
        t = np.array(self.tau, dtype=complex)
        f = np.array(self.flagged, dtype=bool)
        t.flags.writeable = False
        f.flags.writeable = False
        if t.shape != f.shape or t.ndim != 1:
            raise ShapeMismatch("tau and flags must be equal-length 1-d arrays")
        object.__setattr__(self, "tau", t)
        object.__setattr__(self, "flagged", f)


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Agreement between the grid solver and the frequency-wise ratio."""

    max_symbol_gap: float
    flagged_count: int
    embedding_lambda_min: float
    no_minimizer: bool
    off_diagonal_leakage: float
    target_energy_time: float
    target_energy_freq: float
    tau: NDArray
    symbol_estimate: NDArray
    gaps: NDArray


def spectral_density(seq: CovarianceSequence, n_freq: int) -> SpectralDensity:
    """Matrix trigonometric sum of the lags on the length-n_freq grid.

    The grid must resolve every lag: n_freq >= 2 max_lag + 1, otherwise
    distinct lags alias onto each other and the result is meaningless.
    """
    if n_freq < 2 * seq.max_lag + 1:
        raise BadGrid(
            f"grid of {n_freq} cannot resolve lags up to {seq.max_lag}"
        )
    omegas = 2.0 * np.pi * np.arange(n_freq) / n_freq
    taus = np.arange(-seq.max_lag, seq.max_lag + 1)
    phases = np.exp(-1j * np.outer(omegas, taus))
    vals = np.einsum("rt,tij->rij", phases, seq.lags)
    vals = 0.5 * (vals + np.conj(np.transpose(vals, (0, 2, 1))))
    return SpectralDensity(omegas=omegas, values=vals)


def spectral_margins(sa: SpectralDensity, sb: SpectralDensity) -> NDArray:
    """Bottom eigenvalue of sa - sb at every grid frequency."""
    if sa.n_freq != sb.n_freq or sa.d != sb.d:
        raise ShapeMismatch("spectral densities on different grids")
    return np.linalg.eigvalsh(sa.values - sb.values)[:, 0]


def wss_envelope_order(
    sa: SpectralDensity, sb: SpectralDensity, tol: float = 1e-9
) -> tuple[bool, NDArray]:
    """Frequency-wise covariance domination of sb by sa, keeping the margins.

    Returns the verdict and spectral_margins(sa, sb). The slack
    -tol * max|sa| is relative, so rescaling both densities never changes
    the verdict.
    """
    margins = spectral_margins(sa, sb)
    return bool(margins.min() >= -tol * float(np.abs(sa.values).max())), margins


def wss_envelope_test(
    sa: SpectralDensity, sb: SpectralDensity, tol: float = 1e-9
) -> tuple[bool, tuple[float, float]]:
    """wss_envelope_order's verdict with the worst offender alone, as
    (frequency, bottom eigenvalue of the spectral gap there)."""
    ok, margins = wss_envelope_order(sa, sb, tol=tol)
    worst = int(np.argmin(margins))
    return ok, (float(sa.omegas[worst]), float(margins[worst]))


def lti_blocks(
    source: SpectralDensity, model: LTIModel
) -> tuple[NDArray, NDArray, NDArray]:
    """Observed spectral blocks of a filtered two-channel source.

    Channel 0 feeds the target filter, channel 1 the observation filter:
    Syy = |H|^2 K11, Syx = H conj(G) K12, Sxx = |G|^2 K22.
    """
    if source.d != 2:
        raise WrongDimension(f"two channels required, got d={source.d}")
    if source.n_freq != model.n_freq:
        raise ShapeMismatch("spectral density and model grids differ")
    h = model.target_response
    g = model.observation_response
    syy = np.abs(h) ** 2 * source.values[:, 0, 0]
    syx = h * np.conj(g) * source.values[:, 0, 1]
    sxx = np.abs(g) ** 2 * source.values[:, 1, 1]
    return syy, syx, sxx


def wiener_symbol(
    syx: NDArray, sxx: NDArray, rank_tol: float = DEFAULT_RANK_RTOL
) -> WienerSymbol:
    """Frequency-wise ratio syx / sxx with the zero-fill convention.

    sxx must be real and nonnegative within PSD_TOL * max|sxx|. A
    frequency is flagged when covariance.retained drops its sxx, i.e. at
    or below rank_tol times the largest sxx; the symbol is zero there,
    mirroring the minimal-norm solve.
    """
    syx = np.asarray(syx, dtype=complex)
    sxx = np.asarray(sxx, dtype=complex)
    if syx.shape != sxx.shape or syx.ndim != 1:
        raise ShapeMismatch("blocks must be equal-length 1-d arrays")
    scale = float(np.abs(sxx).max())
    if float(np.abs(sxx.imag).max()) > PSD_TOL * scale:
        raise ValueError("sxx must be real within tolerance")
    real = sxx.real
    if float(real.min()) < -PSD_TOL * scale:
        raise ValueError("sxx must be nonnegative within tolerance")
    flagged = ~retained(real, rank_tol)
    tau = np.zeros_like(syx)
    np.divide(syx, real, out=tau, where=~flagged)
    return WienerSymbol(tau=tau, flagged=flagged)


def _wrapped_lags(seq: CovarianceSequence, n: int) -> NDArray:
    """Periodized lags c_0..c_{n-1}; exact when n >= 2 max_lag + 1."""
    if n < 2 * seq.max_lag + 1:
        raise BadGrid(f"period {n} cannot hold lags up to {seq.max_lag}")
    d = seq.d
    wrap = np.zeros((n, d, d))
    for tau in range(seq.max_lag + 1):
        wrap[tau] = seq.lag(tau)
    for tau in range(1, seq.max_lag + 1):
        wrap[n - tau] = seq.lag(-tau)
    return wrap


def circulant_matrix(seq: CovarianceSequence, n: int) -> NDArray:
    """Dense covariance of the period-n extension, time-major ordering.

    Entry [(t, i), (s, j)] = c_{(t-s) mod n}[i, j]. Its eigenvalues are
    exactly the union of the spectral block eigenvalues on the length-n
    grid, which is what makes grid statements exact.
    """
    wrap = _wrapped_lags(seq, n)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    big = wrap[idx]  # (n, n, d, d)
    d = seq.d
    big = big.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    return 0.5 * (big + big.T)


def _require_conjugate_symmetric(resp: NDArray, name: str) -> None:
    """Reject a response that is not conjugate symmetric to 1e-9 * max|resp|."""
    n = resp.size
    mirrored = np.conj(resp[(-np.arange(n)) % n])
    if float(np.abs(resp - mirrored).max()) > 1e-9 * float(np.abs(resp).max()):
        raise ValueError(f"{name} must be conjugate symmetric (real kernel)")


def _fourier_atoms(
    omegas: NDArray, evals: NDArray, evecs: NDArray, rng: np.random.Generator
) -> tuple[NDArray, NDArray]:
    """Weighted atoms realizing the periodic covariance exactly.

    evals (n, d) and evecs (n, d, d) decompose the spectral blocks. Per
    frequency r and positive eigenvalue lam with eigenvector u, contribute
    the real and imaginary parts of sqrt(lam) u e^{i omega_r t} (times a
    random phase, drawn in frequency-major order) with weight 1/n each.
    Summing their outer products telescopes to the inverse DFT of the
    PSD-clipped blocks, i.e. the periodic covariance, with no sampling error.
    """
    n = omegas.size
    freq, idx = np.nonzero(evals > 0.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=freq.size)
    waves = np.exp(1j * (omegas[freq][:, None] * np.arange(n) + phases[:, None]))
    vecs = evecs[freq, :, idx]  # (k, d)
    modes = np.sqrt(evals[freq, idx])[:, None, None] * vecs[:, :, None] * waves[:, None, :]
    atoms = np.empty((2 * freq.size,) + modes.shape[1:])
    atoms[0::2] = modes.real
    atoms[1::2] = modes.imag
    weights = np.full(atoms.shape[0], 1.0 / n)
    return atoms, weights


def circulant_oracle(
    seq: CovarianceSequence,
    model: LTIModel,
    n: int,
    seed: int,
    rank_tol: float = DEFAULT_RANK_RTOL,
) -> OracleReport:
    """Independent grid check of the frequency-wise estimator.

    Builds an exact finite ensemble for the period-n extension of the
    sequence, filters it through the model, assembles and solves the
    time-domain normal equations, and reads the solution's symbol off
    its DFT diagonal. The report compares that symbol against the
    frequency-wise ratio; the two routes share no code beyond the
    spectral blocks. EmbeddingNotPSD is raised when a spectral block
    eigenvalue falls below -1e-9 * max|S|, a slack relative to the
    spectral density S, so rescaling the sequence never changes it.
    """
    if seq.d != 2:
        raise WrongDimension(f"two channels required, got d={seq.d}")
    if n < 2 * seq.max_lag + 2:
        raise BadGrid(
            f"period {n} too short for lags up to {seq.max_lag}; need >= {2 * seq.max_lag + 2}"
        )
    if model.n_freq != n:
        raise ShapeMismatch("model grid does not match the requested period")
    _require_conjugate_symmetric(model.target_response, "target response")
    _require_conjugate_symmetric(model.observation_response, "observation response")

    sd = spectral_density(seq, n)
    evals, evecs = np.linalg.eigh(sd.values)
    emb_min = float(evals[:, 0].min())
    if emb_min < -1e-9 * float(np.abs(sd.values).max()):
        raise EmbeddingNotPSD(
            f"periodic extension has spectral eigenvalue {emb_min:.3e}; "
            f"a longer period may separate the lags"
        )

    rng = np.random.default_rng(seed)
    atoms, weights = _fourier_atoms(sd.omegas, evals, evecs, rng)
    space = MeasureSpace(weights=weights)

    spec_x1 = np.fft.fft(atoms[:, 0, :], axis=1)
    spec_x2 = np.fft.fft(atoms[:, 1, :], axis=1)
    y = np.fft.ifft(model.target_response[None, :] * spec_x1, axis=1).real
    x = np.fft.ifft(model.observation_response[None, :] * spec_x2, axis=1).real
    obs = ObservedEnsemble(space=space, y=y, x=x)
    system = assemble_normal_equations(obs)

    syy, syx, sxx = lti_blocks(sd, model)
    symbol = wiener_symbol(syx, sxx, rank_tol=rank_tol)

    solution = solve_pseudoinverse(system, rank_tol=rank_tol)
    if isinstance(solution, NoMinimizer):
        symbol_estimate = np.zeros(n, dtype=complex)
        leakage = 0.0
        solver_failed = True
    else:
        lam_freq = np.fft.ifft(np.fft.fft(solution.coeffs, axis=0), axis=1)
        symbol_estimate = np.diag(lam_freq).copy()
        off = lam_freq - np.diag(symbol_estimate)
        leakage = float(np.abs(off).max())
        solver_failed = False

    gaps = np.abs(symbol_estimate - symbol.tau)
    return OracleReport(
        max_symbol_gap=float(gaps.max()),
        flagged_count=int(symbol.flagged.sum()),
        embedding_lambda_min=emb_min,
        no_minimizer=solver_failed or bool(symbol.flagged.all()),
        off_diagonal_leakage=leakage,
        target_energy_time=system.target_energy,
        target_energy_freq=float(np.sum(syy.real)),
        tau=symbol.tau,
        symbol_estimate=symbol_estimate,
        gaps=gaps,
    )
