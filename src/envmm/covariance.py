"""Block-structured covariance matrices and order comparisons.

A block covariance is a symmetric PSD matrix on the flattened coefficient
space of a d-component, p-coefficient source (dimension d * p, component-
major). Comparisons in the semidefinite order are quantitative: every
check returns the extreme eigenvalue it was decided on.

The package's one numerical policy lives here too: the tolerances, the
symmetric PSD check, and the rank rule `retained`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateSpec, ShapeMismatch

SYM_RTOL = 1e-12
PSD_TOL = 1e-10
DEFAULT_RANK_RTOL = 1e-12


def check_symmetric_psd(mat: NDArray) -> None:
    """Symmetry and PSD rule for covariance matrices, on one matrix or a stack.

    Each matrix must be symmetric to SYM_RTOL relative to max(1, max|entry|)
    and have no eigenvalue below -PSD_TOL * max(1, lambda_max). A stack
    (..., n, n) is checked with one batched eigensolve. Violations raise
    DegenerateSpec.
    """
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
    asym = np.abs(mat - np.swapaxes(mat, -1, -2)).max(axis=(-2, -1))
    if np.any(asym > SYM_RTOL * scale):
        raise DegenerateSpec("covariance matrix must be symmetric")
    evals = np.linalg.eigvalsh(mat)
    bottom = evals[..., 0]
    below = bottom < -PSD_TOL * np.maximum(1.0, evals[..., -1])
    if np.any(below):
        raise DegenerateSpec(
            f"covariance has eigenvalue {bottom[below].min():.3e} below the PSD tolerance"
        )


def retained(evals: NDArray, rank_tol: float = DEFAULT_RANK_RTOL) -> NDArray:
    """Mask of eigenvalues above rank_tol times the largest (floored at the
    smallest normal float); relative, so rescaling never changes it."""
    top = max(float(evals.max()), 0.0)
    return evals > rank_tol * max(top, np.finfo(float).tiny)


@dataclass(frozen=True, eq=False)
class BlockCovariance:
    """Symmetric PSD matrix with its block layout (d components, p coeffs)."""

    matrix: NDArray
    d: int
    p: int

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        mat.flags.writeable = False
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeMismatch("covariance matrix must be square")
        if mat.shape[0] != self.d * self.p:
            raise ShapeMismatch(
                f"matrix of size {mat.shape[0]} does not factor as d*p = {self.d}*{self.p}"
            )
        check_symmetric_psd(mat)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.d * self.p


def loewner_order(
    big: BlockCovariance, small: BlockCovariance, tol: float = 1e-9
) -> tuple[bool, NDArray]:
    """Decide big >= small in the semidefinite order, keeping the spectrum.

    Returns (verdict, ascending eigenvalues of big - small). The verdict
    allows the minimal eigenvalue to dip to -tol * max|big|, which absorbs
    round-off from the symmetric eigensolve; the slack is relative to big,
    so rescaling both operands never changes the verdict.
    """
    spectrum = order_spectrum(big, small)
    return bool(spectrum[0] >= -tol * float(np.abs(big.matrix).max())), spectrum


def loewner_dominates(
    big: BlockCovariance, small: BlockCovariance, tol: float = 1e-9
) -> tuple[bool, float]:
    """loewner_order's verdict with lambda_min(big - small) alone."""
    ok, spectrum = loewner_order(big, small, tol=tol)
    return ok, float(spectrum[0])


def order_spectrum(big: BlockCovariance, small: BlockCovariance) -> NDArray:
    """Ascending eigenvalues of big - small; nonnegative iff big >= small."""
    if big.dim != small.dim:
        raise ShapeMismatch(f"dimension mismatch: {big.dim} vs {small.dim}")
    return np.linalg.eigvalsh(big.matrix - small.matrix)


def push_forward(lin: NDArray, cov: BlockCovariance) -> BlockCovariance:
    """Second moment of the image under a linear map: L S L^T.

    The result is a plain r x r covariance; its block layout is recorded
    as a single component with r coefficients.
    """
    lin = np.asarray(lin, dtype=float)
    if lin.ndim != 2 or lin.shape[1] != cov.dim:
        raise ShapeMismatch(
            f"map with {lin.shape} cannot act on dimension {cov.dim}"
        )
    out = lin @ cov.matrix @ lin.T
    out = 0.5 * (out + out.T)
    return BlockCovariance(matrix=out, d=1, p=lin.shape[0])


def dense_subset_check(
    big: BlockCovariance,
    small: BlockCovariance,
    probes: NDArray,
    tol: float = 1e-9,
) -> tuple[bool, int]:
    """Test g^T big g >= g^T small g on a finite probe family.

    probes is (n_probes, dim). Returns (all probes pass, rank of the probe
    family). Only equivalent to full semidefinite domination when the
    probes span the whole space, which the rank makes visible.
    """
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != big.dim:
        raise ShapeMismatch("probes must be (n, dim)")
    if big.dim != small.dim:
        raise ShapeMismatch(f"dimension mismatch: {big.dim} vs {small.dim}")
    diff = big.matrix - small.matrix
    gaps = np.einsum("nk,kl,nl->n", probes, diff, probes)
    scale = 1.0 + float(np.abs(np.einsum("nk,kl,nl->n", probes, big.matrix, probes)).max())
    ok = bool(np.all(gaps >= -tol * scale))
    rank = int(np.linalg.matrix_rank(probes))
    return ok, rank
