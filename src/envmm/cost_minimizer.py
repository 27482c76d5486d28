"""Quadratic projection cost and its normal equations.

An estimator is a plain (p_out, q) float array acting on observed input
coefficients, and a family of E estimators one (E, p_out, q) stack.
Its mean-square error over an ensemble expands into a quadratic in the
matrix entries whose Gram part is block diagonal with one shared q x q
block, so a single symmetric eigendecomposition of that block serves the
solve, the kernel, and the coercivity margin at once: the read-only
system caches it (NormalEquationSystem.eigh), so it is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
from numpy.typing import NDArray

from .covariance import (
    CONSISTENCY_RTOL, DEFAULT_RANK_RTOL, BlockCovariance, held_eigh, hold, retained,
    within_slack,
)
from .errors import ShapeMismatch
from .measure_ensemble import SourceEnsemble, _gram, ensemble_distance, ensemble_norm, second_moment
from .representation import ObservedEnsemble, RepresentationOperator


@dataclass(frozen=True, eq=False)
class NormalEquationSystem:
    """First-order optimality data: gram (q x q), cross (p_out x q), energy.

    A minimizer T satisfies T gram = cross row by row; target_energy is
    the constant term of the cost. gram and cross are held as read-only
    views (covariance.hold), not copied; eigh is gram's (held_eigh).
    """

    gram: NDArray
    cross: NDArray
    target_energy: float
    eigh = held_eigh("gram")

    def __post_init__(self):
        hold(self, "gram", "cross", view=True)
        g, c = self.gram, self.cross
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ShapeMismatch("gram matrix must be square")
        if c.ndim != 2 or c.shape[1] != g.shape[0]:
            raise ShapeMismatch("cross matrix columns must match the gram size")
        if self.target_energy < 0:
            raise ValueError("target energy must be nonnegative")


@dataclass(frozen=True)
class NoMinimizer:
    """Typed outcome: some cross row leaves the range of the gram matrix.

    range_violation is the Frobenius norm of the out-of-range part, i.e.
    ||cross (I - proj_ran(gram))||_F.
    """

    range_violation: float


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """Affine description of all minimizers: t0 + span of kernel directions.

    t0 is the minimal-norm minimizer (p_out x q) and kernel_basis is
    (k, q); every minimizer is t0 plus any matrix whose rows lie in that
    span. unique means the kernel is trivial.
    """

    t0: NDArray
    kernel_basis: NDArray

    def __post_init__(self):
        hold(self, "t0", "kernel_basis")

    @property
    def unique(self) -> bool:
        return self.kernel_basis.shape[0] == 0

    @property
    def hs_norm(self) -> float:
        """Frobenius norm of t0, the smallest of any minimizer."""
        return float(np.linalg.norm(self.t0, ord="fro"))


class CostSplit(NamedTuple):
    source_part: float
    baseline_part: float
    total: float


def cost(obs: ObservedEnsemble, est: NDArray) -> float:
    """Weighted mean-square error sum_j w_j ||y_j - T x_j||^2."""
    if est.shape != (obs.p_out, obs.q):
        raise ShapeMismatch(f"estimator {est.shape} against observed ({obs.p_out},{obs.q})")
    resid = obs.y - obs.x @ est.T
    return float(np.einsum("j,jk,jk->", obs.space.weights, resid, resid))


def residual_map(
    spec: BlockCovariance, rep: RepresentationOperator, est: NDArray
) -> NDArray:
    """W = target_map - T input_map, once est and spec fit the operator.

    est is one estimator (p_out x q) or a stack of them (E x p_out x q),
    which gives the stack of their residual maps.
    """
    est = np.asarray(est, dtype=float)
    if est.ndim not in (2, 3) or est.shape[-2:] != (rep.p_out, rep.q):
        raise ShapeMismatch(f"estimator {est.shape} does not match ({rep.p_out},{rep.q})")
    if spec.dim != rep.d * rep.p:
        raise ShapeMismatch("baseline spec dimension does not match the operator")
    return rep.target_map - est @ rep.input_map


def cost_decomposed(
    a: SourceEnsemble,
    spec: BlockCovariance,
    rep: RepresentationOperator,
    est: NDArray,
) -> CostSplit:
    """Cost split into source and baseline contributions.

    With W = target_map - T input_map, the source part is tr(W Sigma_A
    W^T) and the baseline part tr(W sigma_xi W^T). Their sum equals the
    realized cost for any baseline that meets its spec exactly and is
    uncorrelated with the source, so the total never depends on which
    realization was drawn.
    """
    w = residual_map(spec, rep, est)
    sig_a = second_moment(a).matrix
    source_part = float(np.einsum("ik,kl,il->", w, sig_a, w))
    baseline_part = float(np.einsum("ik,kl,il->", w, spec.matrix, w))
    return CostSplit(source_part, baseline_part, source_part + baseline_part)


def assemble_normal_equations(obs: ObservedEnsemble) -> NormalEquationSystem:
    """Build the shared Gram block (x's second moment, by _gram), cross matrix
    and target energy; cross first, so y's weighted copy is freed before _gram."""
    w = obs.space.weights
    cross = (obs.y * w[:, None]).T @ obs.x
    energy = float(np.einsum("j,jk,jk->", w, obs.y, obs.y))
    return NormalEquationSystem(gram=_gram(obs.x, w), cross=cross, target_energy=energy)


def solve_pseudoinverse(
    sys: NormalEquationSystem, rank_tol: float = DEFAULT_RANK_RTOL
) -> Union[NDArray, NoMinimizer]:
    """Minimal-Frobenius-norm minimizer, if any minimizer exists.

    Eigenvalues at or below rank_tol relative to the top one are treated
    as zero. When the cross matrix has a component outside the retained
    range the quadratic has no minimizer and the out-of-range magnitude
    is returned as a NoMinimizer outcome instead of an exception. The
    verdict is within_slack(-violation, ||cross||_F, CONSISTENCY_RTOL),
    relative to the data, so rescaling gram and cross together never
    changes it. The retained modes are scaled by one masked divide into
    a zeroed buffer, so no masked copy of the cross modes is made.
    """
    evals, evecs = sys.eigh
    kept = retained(evals, rank_tol)
    cross_modes = sys.cross @ evecs
    violation = float(np.linalg.norm(cross_modes[:, ~kept], ord="fro"))
    scale = float(np.linalg.norm(sys.cross, ord="fro"))
    if not within_slack(-violation, scale, CONSISTENCY_RTOL):
        return NoMinimizer(range_violation=violation)
    scaled = np.divide(cross_modes, evals, out=np.zeros_like(cross_modes), where=kept)
    return scaled @ evecs.T


def solution_set(
    sys: NormalEquationSystem, rank_tol: float = DEFAULT_RANK_RTOL
) -> Union[SolutionSet, NoMinimizer]:
    """All minimizers as an affine set anchored at the minimal-norm one."""
    anchor = solve_pseudoinverse(sys, rank_tol=rank_tol)
    if isinstance(anchor, NoMinimizer):
        return anchor
    evals, evecs = sys.eigh
    kernel = evecs[:, ~retained(evals, rank_tol)].T
    return SolutionSet(t0=anchor, kernel_basis=kernel)


def residual_norm(sys: NormalEquationSystem, est: NDArray) -> float:
    """Frobenius norm of T gram - cross, the first-order optimality gap."""
    return float(np.linalg.norm(est @ sys.gram - sys.cross, ord="fro"))


def coercivity_margin(sys: NormalEquationSystem) -> float:
    """Bottom eigenvalue of the Gram block."""
    return float(sys.eigh[0][0])


def gram_spectrum(sys: NormalEquationSystem) -> NDArray:
    """Ascending eigenvalues of the Gram block (read-only)."""
    return sys.eigh[0]


def system_cost(sys: NormalEquationSystem, est: NDArray) -> float:
    """Cost evaluated through the assembled quadratic form."""
    return float(
        sys.target_energy
        - 2.0 * np.einsum("ik,ik->", est, sys.cross)
        + np.einsum("ik,kl,il->", est, sys.gram, est)
    )


def cost_difference_bound(
    a1: SourceEnsemble,
    a2: SourceEnsemble,
    rep: RepresentationOperator,
    est: NDArray,
) -> float:
    """Lipschitz-type bound on the source-part cost gap between ensembles.

    Returns (2 + sqrt(2)) * norm_bound^2 * max(1, ||T||_F^2)
    * dist(a1, a2) * (||a1|| + ||a2||). The joint norm_bound of the two
    maps, with any observation mixing already folded into input_map,
    makes this dominate |cost(a1) - cost(a2)| for any shared baseline;
    the max factor keeps it monotone in the estimator size.
    """
    dist = ensemble_distance(a1, a2)
    scale = ensemble_norm(a1) + ensemble_norm(a2)
    return float(
        (2.0 + np.sqrt(2.0))
        * rep.norm_bound**2
        * max(1.0, float(np.linalg.norm(est, ord="fro")) ** 2)
        * dist
        * scale
    )
