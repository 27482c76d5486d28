"""Block-structured covariance matrices and order comparisons.

A block covariance is a symmetric PSD matrix on the flattened coefficient
space of a d-component, p-coefficient source (dimension d * p, component-
major). Comparisons in the semidefinite order are quantitative: every
check returns the extreme eigenvalue it was decided on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import BadTruncation, ShapeMismatch

SYM_RTOL = 1e-12
PSD_TOL = 1e-10


def check_symmetric_psd(mat: NDArray) -> None:
    """Symmetry and PSD rule for covariance matrices, on one matrix or a stack.

    Each matrix must be symmetric to SYM_RTOL relative to max(1, max|entry|)
    and have no eigenvalue below -PSD_TOL * max(1, lambda_max). A stack
    (..., n, n) is checked with one batched eigensolve.
    """
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
    asym = np.abs(mat - np.swapaxes(mat, -1, -2)).max(axis=(-2, -1))
    if np.any(asym > SYM_RTOL * scale):
        raise ValueError("covariance matrix must be symmetric")
    evals = np.linalg.eigvalsh(mat)
    bottom = evals[..., 0]
    below = bottom < -PSD_TOL * np.maximum(1.0, evals[..., -1])
    if np.any(below):
        raise ValueError(
            f"covariance has eigenvalue {bottom[below].min():.3e} below the PSD tolerance"
        )


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


def loewner_dominates(
    big: BlockCovariance, small: BlockCovariance, tol: float = 1e-9
) -> tuple[bool, float]:
    """Decide big >= small in the semidefinite order.

    Returns (verdict, lambda_min(big - small)). The verdict allows the
    minimal eigenvalue to dip to -tol, which absorbs round-off from the
    symmetric eigensolve.
    """
    if big.dim != small.dim:
        raise ShapeMismatch(f"dimension mismatch: {big.dim} vs {small.dim}")
    diff = big.matrix - small.matrix
    lam_min = float(np.linalg.eigvalsh(diff)[0])
    return lam_min >= -tol, lam_min


def order_spectrum(big: BlockCovariance, small: BlockCovariance) -> NDArray:
    """Ascending eigenvalues of big - small; nonnegative iff big >= small."""
    if big.dim != small.dim:
        raise ShapeMismatch(f"dimension mismatch: {big.dim} vs {small.dim}")
    return np.linalg.eigvalsh(big.matrix - small.matrix)


def quadratic_form(cov: BlockCovariance, g: NDArray) -> float:
    """Evaluate g^T S g for a flattened coefficient vector g."""
    g = np.asarray(g, dtype=float).reshape(-1)
    if g.size != cov.dim:
        raise ShapeMismatch(f"vector of size {g.size} against dimension {cov.dim}")
    return float(g @ cov.matrix @ g)


def _coefficient_mask(d: int, p: int, level: int) -> NDArray:
    keep = np.zeros(d * p, dtype=bool)
    for i in range(d):
        keep[i * p : i * p + level] = True
    return keep


def compress(cov: BlockCovariance, level: int) -> BlockCovariance:
    """Project onto the leading `level` coefficients of every component.

    Rows and columns whose coefficient index is level or beyond are
    zeroed; the matrix keeps its size and block layout, so the result is
    P S P for the coordinate projection P. Idempotent in `level`.
    """
    if not 1 <= level <= cov.p:
        raise BadTruncation(f"level {level} outside 1..{cov.p}")
    keep = _coefficient_mask(cov.d, cov.p, level)
    out = np.where(keep[:, None] & keep[None, :], cov.matrix, 0.0)
    return BlockCovariance(matrix=out, d=cov.d, p=cov.p)


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


BLOCKCOV_HEADER_PREFIX = "# blockcov"


def blockcov_to_csv(cov: BlockCovariance, path) -> None:
    """Dense row-major CSV with a layout comment on the first line."""
    with open(path, "w", newline="") as fh:
        fh.write(f"{BLOCKCOV_HEADER_PREFIX} d={cov.d} p={cov.p}\n")
        for row in cov.matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def blockcov_from_csv(path) -> BlockCovariance:
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if not header.startswith(BLOCKCOV_HEADER_PREFIX):
            raise ValueError(f"missing '{BLOCKCOV_HEADER_PREFIX}' header")
        fields = dict(part.split("=") for part in header.split()[2:])
        d, p = int(fields["d"]), int(fields["p"])
        rows = [
            [float(v) for v in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    return BlockCovariance(matrix=np.array(rows), d=d, p=p)
