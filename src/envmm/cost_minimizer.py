"""Quadratic projection cost and its normal equations.

The estimator is a finite matrix acting on observed input coefficients.
Its mean-square error over an ensemble expands into a quadratic in the
matrix entries whose Gram part is block diagonal with one shared q x q
block, so a single symmetric eigendecomposition of that block serves the
solve, the kernel, and the coercivity margin at once: the read-only
system caches it (NormalEquationSystem.eigh), so it is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Union

import numpy as np
from numpy.typing import NDArray

from .covariance import DEFAULT_RANK_RTOL, retained
from .errors import NotCoercive, ShapeMismatch
from .measure_ensemble import BaselineEnsemble, BaselineSpec, SourceEnsemble, second_moment
from .representation import ObservedEnsemble, RepresentationOperator


@dataclass(frozen=True, eq=False)
class HSOperator:
    """Finite estimator matrix (p_out x q) with its Frobenius norm."""

    coeffs: NDArray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        c.flags.writeable = False
        if c.ndim != 2:
            raise ShapeMismatch("estimator coefficients must be a matrix")
        object.__setattr__(self, "coeffs", c)

    @property
    def p_out(self) -> int:
        return self.coeffs.shape[0]

    @property
    def q(self) -> int:
        return self.coeffs.shape[1]

    @property
    def hs_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs, ord="fro"))


@dataclass(frozen=True, eq=False)
class NormalEquationSystem:
    """First-order optimality data: gram (q x q), cross (p_out x q), energy.

    A minimizer T satisfies T gram = cross row by row; target_energy is
    the constant term of the cost.
    """

    gram: NDArray
    cross: NDArray
    target_energy: float

    def __post_init__(self):
        g = np.array(self.gram, dtype=float)
        c = np.array(self.cross, dtype=float)
        g.flags.writeable = False
        c.flags.writeable = False
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ShapeMismatch("gram matrix must be square")
        if c.ndim != 2 or c.shape[1] != g.shape[0]:
            raise ShapeMismatch("cross matrix columns must match the gram size")
        if self.target_energy < 0:
            raise ValueError("target energy must be nonnegative")
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "cross", c)

    @property
    def q(self) -> int:
        return self.gram.shape[0]

    @property
    def p_out(self) -> int:
        return self.cross.shape[0]

    @cached_property
    def eigh(self) -> tuple[NDArray, NDArray]:
        """Ascending eigenvalues and eigenvectors of gram, computed once."""
        evals, evecs = np.linalg.eigh(self.gram)
        evals.flags.writeable = False
        evecs.flags.writeable = False
        return evals, evecs


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

    kernel_basis is (k, q); every minimizer is t0 plus any matrix whose
    rows lie in that span. unique means the kernel is trivial.
    """

    t0: HSOperator
    kernel_basis: NDArray
    unique: bool


class CostSplit(NamedTuple):
    source_part: float
    baseline_part: float
    total: float


def cost(obs: ObservedEnsemble, est: HSOperator) -> float:
    """Weighted mean-square error sum_j w_j ||y_j - T x_j||^2."""
    if est.q != obs.q or est.p_out != obs.p_out:
        raise ShapeMismatch(
            f"estimator ({est.p_out},{est.q}) against observed ({obs.p_out},{obs.q})"
        )
    resid = obs.y - obs.x @ est.coeffs.T
    return float(np.einsum("j,jk,jk->", obs.space.weights, resid, resid))


def residual_map(
    spec: BaselineSpec, rep: RepresentationOperator, est: HSOperator
) -> NDArray:
    """W = target_map - T input_map, once est and spec fit the operator."""
    if (est.p_out, est.q) != (rep.p_out, rep.q):
        raise ShapeMismatch("estimator does not match the representation")
    if spec.dim != rep.d * rep.p:
        raise ShapeMismatch("baseline spec dimension does not match the operator")
    return rep.target_map - est.coeffs @ rep.input_map


def cost_decomposed(
    a: SourceEnsemble,
    spec: BaselineSpec,
    rep: RepresentationOperator,
    est: HSOperator,
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
    baseline_part = float(np.einsum("ik,kl,il->", w, spec.sigma_xi, w))
    return CostSplit(source_part, baseline_part, source_part + baseline_part)


def assemble_normal_equations(
    obs: Union[ObservedEnsemble, Iterable[ObservedEnsemble]],
) -> NormalEquationSystem:
    """Build the shared Gram block, cross matrix, and target energy.

    obs is one ensemble or an iterable of ensembles over disjoint atoms
    (consumed once); the three second moments are sums over atoms, so
    chunks are accumulated in turn and no chunk is kept once added. A
    single ensemble is one chunk.
    """
    chunks = (obs,) if isinstance(obs, ObservedEnsemble) else obs
    gram = cross = None
    for chunk in chunks:
        w = chunk.space.weights
        part_gram = (chunk.x * w[:, None]).T @ chunk.x
        part_cross = (chunk.y * w[:, None]).T @ chunk.x
        part_energy = float(np.einsum("j,jk,jk->", w, chunk.y, chunk.y))
        if gram is None:
            gram, cross, energy = part_gram, part_cross, part_energy
        else:
            if part_gram.shape != gram.shape or part_cross.shape != cross.shape:
                raise ShapeMismatch("chunks observe different coefficient counts")
            gram += part_gram
            cross += part_cross
            energy += part_energy
    if gram is None:
        raise ShapeMismatch("no observed atoms to assemble")
    return NormalEquationSystem(
        gram=0.5 * (gram + gram.T), cross=cross, target_energy=energy
    )


def solve_coercive(sys: NormalEquationSystem, c_min: float) -> HSOperator:
    """Unique minimizer under a uniform spectral lower bound.

    Requires a finite c_min > 0 (else ValueError) and lambda_min(gram) >=
    c_min, otherwise NotCoercive with the observed bottom eigenvalue. The
    solution satisfies the a-priori bound hs_norm <= ||cross||_F / c_min.
    """
    if not 0 < c_min < np.inf:
        raise ValueError(f"c_min must be positive and finite; got {c_min!r}")
    evals, evecs = sys.eigh
    if float(evals[0]) < c_min:
        raise NotCoercive(
            f"gram matrix bottom eigenvalue {evals[0]:.6e} is below c_min={c_min:.6e}"
        )
    coeffs = (sys.cross @ evecs) / evals[None, :] @ evecs.T
    return HSOperator(coeffs=coeffs)


def solve_pseudoinverse(
    sys: NormalEquationSystem, rank_tol: float = DEFAULT_RANK_RTOL
) -> Union[HSOperator, NoMinimizer]:
    """Minimal-Frobenius-norm minimizer, if any minimizer exists.

    Eigenvalues at or below rank_tol relative to the top one are treated
    as zero. When the cross matrix has a component outside the retained
    range the quadratic has no minimizer and the out-of-range magnitude
    is returned as a NoMinimizer outcome instead of an exception. The
    consistency threshold is 1e-8 * ||cross||_F, relative to the data, so
    rescaling gram and cross together never changes the verdict.
    """
    evals, evecs = sys.eigh
    kept = retained(evals, rank_tol)
    cross_modes = sys.cross @ evecs
    violation = float(np.linalg.norm(cross_modes[:, ~kept], ord="fro"))
    consistency_tol = 1e-8 * float(np.linalg.norm(sys.cross, ord="fro"))
    if violation > consistency_tol:
        return NoMinimizer(range_violation=violation)
    scaled = np.zeros_like(cross_modes)
    scaled[:, kept] = cross_modes[:, kept] / evals[None, kept]
    return HSOperator(coeffs=scaled @ evecs.T)


def solution_set(
    sys: NormalEquationSystem, rank_tol: float = DEFAULT_RANK_RTOL
) -> Union[SolutionSet, NoMinimizer]:
    """All minimizers as an affine set anchored at the minimal-norm one."""
    anchor = solve_pseudoinverse(sys, rank_tol=rank_tol)
    if isinstance(anchor, NoMinimizer):
        return anchor
    evals, evecs = sys.eigh
    kernel = evecs[:, ~retained(evals, rank_tol)].T
    return SolutionSet(t0=anchor, kernel_basis=kernel, unique=kernel.shape[0] == 0)


def residual_norm(sys: NormalEquationSystem, est: HSOperator) -> float:
    """Frobenius norm of T gram - cross, the first-order optimality gap."""
    return float(np.linalg.norm(est.coeffs @ sys.gram - sys.cross, ord="fro"))


def coercivity_margin(sys: NormalEquationSystem) -> float:
    """Bottom eigenvalue of the Gram block."""
    return float(sys.eigh[0][0])


def gram_spectrum(sys: NormalEquationSystem) -> NDArray:
    """Ascending eigenvalues of the Gram block (read-only)."""
    return sys.eigh[0]


def system_cost(sys: NormalEquationSystem, est: HSOperator) -> float:
    """Cost evaluated through the assembled quadratic form."""
    t = est.coeffs
    return float(
        sys.target_energy
        - 2.0 * np.einsum("ik,ik->", t, sys.cross)
        + np.einsum("ik,kl,il->", t, sys.gram, t)
    )


def cost_difference_bound(
    a1: SourceEnsemble,
    a2: SourceEnsemble,
    rep: RepresentationOperator,
    est: HSOperator,
) -> float:
    """Lipschitz-type bound on the source-part cost gap between ensembles.

    Returns (2 + sqrt(2)) * norm_bound^2 * max(1, mixing_norm^2)
    * max(1, hs_norm^2) * dist(a1, a2) * (||a1|| + ||a2||). The joint
    norm_bound makes this dominate |cost(a1) - cost(a2)| for any shared
    baseline; the max factors keep it monotone in the estimator size.
    """
    from .measure_ensemble import ensemble_distance, ensemble_norm

    dist = ensemble_distance(a1, a2)
    scale = ensemble_norm(a1) + ensemble_norm(a2)
    return float(
        (2.0 + np.sqrt(2.0))
        * rep.norm_bound**2
        * max(1.0, rep.mixing_norm**2)
        * max(1.0, est.hs_norm**2)
        * dist
        * scale
    )
