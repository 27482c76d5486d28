"""Block-structured covariance matrices and order comparisons.

A block covariance is a symmetric PSD matrix on the flattened coefficient
space of a d-component, p-coefficient source (dimension d * p, component-
major). Comparisons in the semidefinite order are quantitative: the
verdict comes with the spectrum it was read from.

The package's one numerical policy lives here too: the tolerances, the
PSD rule `psd` (BlockCovariance's and the circulant oracle's), the rank
rule `retained`, the one slack rule `within_slack` that every tolerance
verdict is decided by, and the array rules `hold` and `held_eigh` by
which value types keep arrays read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateSpec, ShapeMismatch

SYM_RTOL = 1e-12
PSD_TOL = 1e-10
DEFAULT_RANK_RTOL = 1e-12
DEFAULT_TOL = 1e-9
# largest out-of-range part of the cross matrix, relative to ||cross||_F,
# that still counts as a minimizer
CONSISTENCY_RTOL = 1e-8


def hold(obj, *names: str, dtype=float, view: bool = False) -> None:
    """Set each named field of a frozen dataclass to a read-only array.

    Each field is converted to dtype and copied, so later writes into the
    caller's array never reach it. With view=True it is a read-only view
    instead, kept by the types that hold the oracle's n^2-sized arrays;
    the caller's own array stays writeable and is assumed unchanged.
    """
    for name in names:
        value = getattr(obj, name)
        arr = np.asarray(value, dtype=dtype).view() if view else np.array(value, dtype=dtype)
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def held_eigh(name: str) -> cached_property:
    """A property of a frozen dataclass: the ascending eigenvalues and
    eigenvectors of its named matrix field, read-only, computed once."""

    def eigh(self) -> tuple[NDArray, NDArray]:
        evals, evecs = np.linalg.eigh(getattr(self, name))
        evals.flags.writeable = False
        evecs.flags.writeable = False
        return evals, evecs

    return cached_property(eigh)


def within_slack(statistic, scale, tol: float = DEFAULT_TOL) -> bool:
    """The one slack rule of every tolerance verdict.

    True when statistic >= -tol * max(scale, tiny) holds elementwise, with
    tiny the smallest normal float. Each verdict passes the scale of its
    own data, so rescaling the data never changes the verdict. A bound
    x <= tol * scale on a nonnegative deviation x is within_slack(-x, ...).
    NaN is never within slack.
    """
    floor = np.maximum(scale, np.finfo(float).tiny)
    return bool((statistic >= -tol * floor).all())


def psd(evals: NDArray) -> bool:
    """The package's one PSD rule on ascending eigenvalues, one matrix's or
    a stack of block spectra (one per row) that together are one matrix's:
    none below -PSD_TOL * lambda_max (within_slack)."""
    return within_slack(evals[..., 0].min(), evals[..., -1].max(), PSD_TOL)


def retained(evals: NDArray, rank_tol: float = DEFAULT_RANK_RTOL) -> NDArray:
    """Mask of eigenvalues above rank_tol times the largest (floored at the
    smallest normal float); relative, so rescaling never changes it."""
    top = max(float(evals.max()), 0.0)
    return evals > rank_tol * max(top, np.finfo(float).tiny)


@dataclass(frozen=True, eq=False)
class BlockCovariance:
    """Symmetric PSD matrix with its block layout (d components, p coeffs).

    The matrix must be finite, symmetric to SYM_RTOL relative to
    max|entry|, and pass the PSD rule psd on the eigenvalues of eigh (the
    one held eigendecomposition). Both are within_slack verdicts, so the
    zero matrix passes and rescaling never changes them; violations raise
    DegenerateSpec. A plain n x n
    covariance, sigma_xi say, takes the layout d = 1, p = n.
    """

    matrix: NDArray
    d: int
    p: int
    eigh = held_eigh("matrix")

    def __post_init__(self):
        hold(self, "matrix")
        mat = self.matrix
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeMismatch("covariance matrix must be square")
        if mat.shape[0] != self.d * self.p:
            raise ShapeMismatch(
                f"matrix of size {mat.shape[0]} does not factor as d*p = {self.d}*{self.p}"
            )
        if not np.isfinite(mat).all():
            raise DegenerateSpec("covariance matrix must be finite")
        if not within_slack(-np.abs(mat - mat.T).max(), np.abs(mat).max(), SYM_RTOL):
            raise DegenerateSpec("covariance matrix must be symmetric")
        if not psd(self.eigh[0]):
            raise DegenerateSpec(
                f"covariance has eigenvalue {self.eigh[0][0]:.3e} below the PSD tolerance"
            )

    @property
    def dim(self) -> int:
        return self.d * self.p


def loewner_dominates(
    big: BlockCovariance, small: BlockCovariance, tol: float = DEFAULT_TOL
) -> tuple[bool, NDArray]:
    """Decide big >= small in the semidefinite order.

    Returns (verdict, ascending eigenvalues of big - small); spectrum[0] is
    lambda_min, the margin the verdict was read from. The verdict is
    within_slack(lambda_min, max|big|, tol), which absorbs round-off from
    the symmetric eigensolve.
    """
    spectrum = order_spectrum(big, small)
    return within_slack(spectrum[0], np.abs(big.matrix).max(), tol), spectrum


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
    out = 0.5 * out + 0.5 * out.T  # halving first cannot overflow
    return BlockCovariance(matrix=out, d=1, p=lin.shape[0])


def dense_subset_check(
    big: BlockCovariance,
    small: BlockCovariance,
    probes: NDArray,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, int]:
    """Test g^T big g >= g^T small g on a finite probe family.

    probes is (n_probes, dim). Returns (all probes pass, rank of the probe
    family). Each probe's gap g^T (big - small) g is held to within_slack
    with the largest probe energy g^T big g as the scale, so rescaling
    both operands never changes the verdict. Only equivalent to full
    semidefinite domination when the probes span the whole space, which
    the rank makes visible.
    """
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != big.dim:
        raise ShapeMismatch("probes must be (n, dim)")
    if big.dim != small.dim:
        raise ShapeMismatch(f"dimension mismatch: {big.dim} vs {small.dim}")
    diff = big.matrix - small.matrix
    gaps = np.einsum("nk,kl,nl->n", probes, diff, probes)
    energies = np.einsum("nk,kl,nl->n", probes, big.matrix, probes)
    ok = within_slack(gaps, energies.max(), tol)
    rank = int(np.linalg.matrix_rank(probes))
    return ok, rank
