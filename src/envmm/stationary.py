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
from .covariance import (
    DEFAULT_RANK_RTOL,
    DEFAULT_TOL,
    PSD_TOL,
    SYM_RTOL,
    hold,
    psd,
    retained,
    within_slack,
)
from .errors import BadGrid, DegenerateSpec, ShapeMismatch
from .measure_ensemble import MeasureSpace
from .representation import ObservedEnsemble


@dataclass(frozen=True, eq=False)
class CovarianceSequence:
    """Matrix covariance lags K[0..L] of jointly stationary channels.

    Stored as the nonnegative lags, an array of shape (L+1, d, d) whose
    index tau holds lag tau. The negative lags K[-tau] = K[tau]^T are
    implied by transposition and never stored. The lags must be finite,
    and lag 0 symmetric to SYM_RTOL * max|K| (within_slack); it is held
    symmetrized.
    """

    lags: NDArray

    def __post_init__(self):
        hold(self, "lags")
        k = self.lags
        if k.ndim != 3 or k.shape[0] < 1 or k.shape[1] != k.shape[2]:
            raise ShapeMismatch("lags must have shape (L+1, d, d)")
        if not np.isfinite(k).all():
            raise ValueError("lags must be finite")
        if not within_slack(-np.abs(k[0] - k[0].T).max(), np.abs(k).max(), SYM_RTOL):
            raise ValueError("lag 0 must be symmetric")
        k.flags.writeable = True  # hold's copy, not the caller's array
        k[0] = 0.5 * k[0] + 0.5 * k[0].T  # halving first cannot overflow
        k.flags.writeable = False

    @property
    def d(self) -> int:
        return self.lags.shape[1]

    @property
    def max_lag(self) -> int:
        return self.lags.shape[0] - 1

    def lag(self, tau: int) -> NDArray:
        if abs(tau) > self.max_lag:
            raise ShapeMismatch(f"lag {tau} beyond max lag {self.max_lag}")
        return self.lags[tau] if tau >= 0 else self.lags[-tau].T


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
    gaps: NDArray

    def __post_init__(self):
        hold(self, "tau", dtype=complex)
        hold(self, "gaps")


def spectral_density(seq: CovarianceSequence, n_freq: int) -> NDArray:
    """Matrix trigonometric sum of the lags on the length-n_freq grid.

    Returns the Hermitian d x d matrix at every grid frequency
    omega_r = 2 pi r / n_freq, an array of shape (n_freq, d, d). The grid
    must resolve every lag: n_freq >= 2 max_lag + 1, otherwise distinct
    lags alias onto each other and the result is meaningless.
    """
    if n_freq < 2 * seq.max_lag + 1:
        raise BadGrid(
            f"grid of {n_freq} cannot resolve lags up to {seq.max_lag}"
        )
    omegas = 2.0 * np.pi * np.arange(n_freq) / n_freq
    taus = np.arange(-seq.max_lag, seq.max_lag + 1)
    phases = np.exp(-1j * np.outer(omegas, taus))
    # lags -L..L in one stack, the negative half as K[-tau] = K[tau]^T
    stacked = np.concatenate([seq.lags[:0:-1].transpose(0, 2, 1), seq.lags])
    vals = np.einsum("rt,tij->rij", phases, stacked)
    return 0.5 * (vals + np.conj(np.transpose(vals, (0, 2, 1))))


def wss_envelope_test(
    sa: NDArray, sb: NDArray, tol: float = DEFAULT_TOL
) -> tuple[bool, NDArray]:
    """Frequency-wise covariance domination of sb by sa.

    sa and sb are spectral densities, (n_freq, d, d) arrays as
    spectral_density returns them. Returns the verdict and the margins,
    the bottom eigenvalue of sa - sb at every grid frequency, from one
    batched eigensolve; margins.argmin() is the worst frequency. The
    verdict is within_slack(margins.min(), max|sa|, tol).
    """
    if sa.shape[0] != sb.shape[0]:
        raise ShapeMismatch("spectral densities on different grids")
    if sa.shape[1:] != sb.shape[1:]:
        raise ShapeMismatch(f"channel counts differ: {sa.shape[1]} and {sb.shape[1]}")
    margins = np.linalg.eigvalsh(sa - sb)[:, 0]
    return within_slack(margins.min(), np.abs(sa).max(), tol), margins


def wiener_symbol(
    syx: NDArray, sxx: NDArray, rank_tol: float = DEFAULT_RANK_RTOL
) -> tuple[NDArray, NDArray]:
    """Frequency-wise ratio syx / sxx with the zero-fill convention.

    sxx must be real and nonnegative within PSD_TOL * max|sxx|
    (within_slack); a negative sxx, a channel whose spectrum is not PSD,
    raises DegenerateSpec. Returns (tau, flagged), the complex symbol and
    a boolean flag per frequency. A frequency is flagged when
    covariance.retained drops its sxx, i.e. at or below rank_tol times
    the largest sxx; it carries no observation energy, and the symbol is
    zero there, mirroring the minimal-norm solve.
    """
    syx = np.asarray(syx, dtype=complex)
    sxx = np.asarray(sxx, dtype=complex)
    if syx.shape != sxx.shape or syx.ndim != 1:
        raise ShapeMismatch("blocks must be equal-length 1-d arrays")
    scale = float(np.abs(sxx).max())
    if not within_slack(-np.abs(sxx.imag).max(), scale, PSD_TOL):
        raise ValueError("sxx must be real within tolerance")
    real = sxx.real
    if not within_slack(real.min(), scale, PSD_TOL):
        raise DegenerateSpec("sxx must be nonnegative within tolerance")
    flagged = ~retained(real, rank_tol)
    tau = np.zeros_like(syx)
    np.divide(syx, real, out=tau, where=~flagged)
    return tau, flagged


def circulant_matrix(seq: CovarianceSequence, n: int) -> NDArray:
    """Dense covariance of the period-n extension, time-major ordering.

    Entry [(t, i), (s, j)] = c_{(t-s) mod n}[i, j], with the lags
    periodized as c_{tau mod n} = K[tau], exact when n >= 2 max_lag + 1.
    Its eigenvalues are exactly the union of the spectral block
    eigenvalues on the length-n grid, which is what makes grid statements
    exact. It is exactly symmetric as built, since c_{-tau} = c_tau^T.
    """
    if n < 2 * seq.max_lag + 1:
        raise BadGrid(f"period {n} cannot hold lags up to {seq.max_lag}")
    d = seq.d
    wrap = np.zeros((n, d, d))
    for tau in range(-seq.max_lag, seq.max_lag + 1):
        wrap[tau % n] = seq.lag(tau)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return wrap[idx].transpose(0, 2, 1, 3).reshape(n * d, n * d)


def _fourier_atoms(
    evals: NDArray,
    evecs: NDArray,
    responses: tuple[NDArray, NDArray],
    rng: np.random.Generator,
) -> ObservedEnsemble:
    """Filtered weighted atoms realizing the periodic covariance exactly.

    evals (n, d) and evecs (n, d, d) decompose the spectral blocks. Per
    frequency r and positive eigenvalue lam with eigenvector u, the source
    mode is sqrt(lam) u e^{i phi} e^{i omega_r t} (phi a random phase);
    its real and imaginary parts are two atoms. Summing their weighted
    outer products telescopes to the inverse DFT of the PSD-clipped
    blocks, i.e. the periodic covariance, with no sampling error.

    Only the half spectrum r = 0 .. n // 2 is built. The lags are real, so
    S(n - r) = conj S(r): the eigenpairs there may be taken as
    (lam, conj u), as the outer products summed over one frequency do not
    depend on that choice. Also R_sym(n - r) = conj R_sym(r) and
    roots[((n - r) t) mod n] = conj roots[(r t) mod n]. The mode at n - r
    with phase phi is thus the conjugate of the mode at r with phase -phi,
    whose real atom is the same and whose imaginary atom is negated in
    both channels: it adds the same outer products as the mode at r. So
    each atom at 0 < r < n/2 weighs 2/n, and the self-conjugate
    frequencies r = 0 and (n even) r = n/2 weigh 1/n. That is at most
    2 d (n // 2 + 1) atoms, not 2 d n.

    A sinusoid is an eigenfunction of every LTI filter: the real part of
    a real atom filtered by the response R is the same part of the mode
    times R_sym(r) = (R(r) + conj R(-r)) / 2. So channel 0 is filtered by
    the target response, responses[0], into y and channel 1 by the
    observation response, responses[1], into x, without transforming a
    single atom. The waves are rows, gathered by frequency, of one table
    roots[(r t) mod n] built once per frequency r = 0 .. n // 2.

    Every phase is drawn in one call and all the atoms are built at once
    into one ObservedEnsemble. The modes run in frequency-major order;
    rows 2k and 2k + 1 are the real and imaginary atoms of mode k.
    """
    n = evals.shape[0]
    freq, idx = np.nonzero(evals[: n // 2 + 1] > 0.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=freq.size)
    ticks = np.arange(n)
    roots = np.exp(2j * np.pi / n * ticks)
    amps = np.sqrt(evals[freq, idx]) * np.exp(1j * phases)
    vecs = evecs[freq, :, idx]  # (k, d)
    # per-mode factor of the filtered wave, for channel 0 then channel 1
    factors = [
        0.5 * (resp + np.conj(resp[(-ticks) % n]))[freq] * amps * vecs[:, channel]
        for channel, resp in enumerate(responses)
    ]
    self_conjugate = (freq == 0) | (2 * freq == n)
    waves = roots[np.outer(np.arange(n // 2 + 1), ticks) % n][freq]
    filtered = []
    for factor in factors:
        modes = factor[:, None] * waves
        atoms = np.empty((2 * freq.size, n))
        atoms[0::2] = modes.real
        atoms[1::2] = modes.imag
        filtered.append(atoms)
    y, x = filtered
    weights = np.repeat(np.where(self_conjugate, 1.0 / n, 2.0 / n), 2)
    return ObservedEnsemble(space=MeasureSpace(weights=weights), y=y, x=x)


def circulant_oracle(
    seq: CovarianceSequence,
    target_kernel: NDArray,
    observation_kernel: NDArray,
    n: int,
    seed: int,
    rank_tol: float = DEFAULT_RANK_RTOL,
) -> OracleReport:
    """Independent grid check of the frequency-wise estimator.

    The target kernel filters channel 0 of the sequence into y and the
    observation kernel channel 1 into x; both are real impulse responses,
    periodized on the length-n grid, where their DFTs H and G are the
    frequency responses. The observed spectral blocks are
    Syy = |H|^2 K11, Syx = H conj(G) K12 and Sxx = |G|^2 K22.

    Builds an exact finite ensemble for the period-n extension of the
    sequence from the half spectrum r = 0 .. n // 2 (the other half
    mirrors it; see _fourier_atoms), filters it through the responses
    mode by mode, assembles the time-domain normal equations from it,
    solves them, and reads the solution's symbol off the diagonal of
    F C F^-1, F the DFT matrix and C the solution. That read-out takes
    the half spectrum too: one rfft of C along axis 0 and one ifft along
    axis 1 give the rows r = 0 .. n // 2. C is real, so
    lam[n - r, n - s] = conj lam[r, s]: the diagonal at r > n / 2 is
    conj diag[n - r], and the off-diagonal maximum over those rows is
    the leakage over all of them. The report compares that symbol
    against the frequency-wise ratio; the two routes share no code
    beyond the spectral blocks. DegenerateSpec is
    raised when the spectral block eigenvalues, which are those of the
    period-n embedding circulant_matrix(seq, n), fail the PSD rule psd
    that BlockCovariance applies to that matrix, so rescaling the
    sequence never changes it; when no eigenvalue of the half spectrum
    is positive, so that there is no atom to assemble; and when
    wiener_symbol finds sxx = |G|^2 K22 negative, K22 below zero. The
    ratio is formed, and the observed blocks checked (all three finite,
    sxx also by wiener_symbol), before any atom is built or any phase
    drawn.
    """
    if seq.d != 2:
        raise ShapeMismatch(f"two channels required, got d={seq.d}")
    if n < 2 * seq.max_lag + 2:
        raise BadGrid(
            f"period {n} too short for lags up to {seq.max_lag}; need >= {2 * seq.max_lag + 2}"
        )
    h = np.zeros(n)
    g = np.zeros(n)
    tk = np.asarray(target_kernel, dtype=float)
    ok = np.asarray(observation_kernel, dtype=float)
    if tk.size > n or ok.size > n:
        raise ShapeMismatch("kernel longer than the grid")
    h[: tk.size] = tk
    g[: ok.size] = ok
    h = np.fft.fft(h)
    g = np.fft.fft(g)

    sd = spectral_density(seq, n)
    evals, evecs = np.linalg.eigh(sd)
    emb_min = float(evals[:, 0].min())
    if not psd(evals):
        raise DegenerateSpec(
            f"periodic extension has spectral eigenvalue {emb_min:.3e}; "
            f"a longer period may separate the lags"
        )
    if not (evals[: n // 2 + 1] > 0.0).any():
        raise DegenerateSpec(
            "covariance sequence has no positive spectral eigenvalue on the "
            "grid, so there is no atom to observe"
        )

    syy = np.abs(h) ** 2 * sd[:, 0, 0]
    syx = h * np.conj(g) * sd[:, 0, 1]
    sxx = np.abs(g) ** 2 * sd[:, 1, 1]
    if not np.isfinite(syy).all():
        raise ValueError("the target block |H|^2 K11 overflows")
    if not (np.isfinite(syx).all() and np.isfinite(sxx).all()):
        raise ValueError("the observed block H conj(G) K12 or |G|^2 K22 overflows")
    tau, flagged = wiener_symbol(syx, sxx, rank_tol=rank_tol)

    rng = np.random.default_rng(seed)
    system = assemble_normal_equations(_fourier_atoms(evals, evecs, (h, g), rng))

    solution = solve_pseudoinverse(system, rank_tol=rank_tol)
    if isinstance(solution, NoMinimizer):
        estimate = np.zeros(n, dtype=complex)
        leakage = 0.0
        solver_failed = True
    else:
        # rows r = 0 .. n // 2 of F C F^-1; the rest mirror them
        half = np.fft.ifft(np.fft.rfft(solution, axis=0), axis=1)
        rows = np.arange(n // 2 + 1)
        head = half[rows, rows]
        estimate = np.concatenate([head, np.conj(head[1 : (n + 1) // 2][::-1])])
        half[rows, rows] = 0
        leakage = float(np.abs(half).max())
        solver_failed = False

    gaps = np.abs(estimate - tau)
    return OracleReport(
        max_symbol_gap=float(gaps.max()),
        flagged_count=int(flagged.sum()),
        embedding_lambda_min=emb_min,
        no_minimizer=solver_failed or bool(flagged.all()),
        off_diagonal_leakage=leakage,
        target_energy_time=system.target_energy,
        target_energy_freq=float(np.sum(syy.real)),
        tau=tau,
        gaps=gaps,
    )
