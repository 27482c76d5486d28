"""Stability sets in the covariance order and the worst-case principle.

An ensemble A' belongs to the stability set of A when its second moment
is dominated by that of A in the semidefinite order. The projection cost
is monotone along that order for every estimator, so the supremum of the
cost over the whole set is attained at A itself. This module samples the
set constructively, realizes baseline perturbations exactly, and checks
the extremal property numerically.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .cost_minimizer import residual_map
from .covariance import DEFAULT_TOL, BlockCovariance, loewner_dominates, retained, within_slack
from .errors import ShapeMismatch
from .measure_ensemble import MeasureSpace, SourceEnsemble, second_moment
from .representation import RepresentationOperator


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of a worst-case check against dominated samples.

    member            for every estimator, no sampled cost exceeded its
                      reference cost by more than tol times that cost
                      (covariance.within_slack)
    lambda_min_margin bottom eigenvalue of the worst domination gap
                      Sigma_A - S_s among the samples (0.0 with none)
    cost_reference    cost at the reference ensemble
    cost_samples      (sample id, cost) pairs; id 0 is the reference
                      ensemble itself, the sample with a zero gap
    max_violation     max over samples of cost_sample - cost_reference
    """

    member: bool
    lambda_min_margin: float
    cost_reference: float
    cost_samples: list[tuple[int, float]]
    max_violation: float


def is_member(
    candidate: SourceEnsemble, reference: SourceEnsemble, tol: float = DEFAULT_TOL
) -> tuple[bool, NDArray]:
    """Membership of candidate in the stability set of reference.

    Only second moments enter, so the two ensembles may live on
    different measure spaces. Returns loewner_dominates's pair: the
    verdict and the ascending spectrum of the covariance gap.
    """
    if (candidate.d, candidate.p) != (reference.d, reference.p):
        raise ShapeMismatch("block shapes differ")
    return loewner_dominates(second_moment(reference), second_moment(candidate), tol=tol)


# one dominated-sample family: each sample held as its domination gap (_gaps)
_Gaps = namedtuple("_Gaps", "root co_root bases scales margins dropped")


def _gaps(sigma: BlockCovariance, seed: int, n_samples: int, shrink_floor: float) -> _Gaps:
    """The samples S_s that verify_extremal scores and sample_dominated
    realizes, each as its gap Sigma_A - S_s = R Q_s diag(s_s) Q_s^T R^T.

    U is sigma's held eigenbasis and L = diag(U^T sigma U) its Rayleigh
    eigenvalues. root is R = U_r diag(sqrt(L_r)) (dim x r) over the
    directions retained(L) keeps and co_root its pseudoinverse R^+;
    bases holds the orthonormal Q_s, (1, r, r) when the samples share
    one; scales the s_s (n_samples x r), in [0, 1] for a dominated sample;
    margins each gap's bottom eigenvalue; dropped the pair (U_d, L_d) of
    the directions retained(L) drops, which no gap touches. Here Q = I and
    s_s = 1 - D_s^2, D_s uniform in [shrink_floor, 1], drawn by one
    generator call (n_samples x dim, row by row in sample order), so a
    seed picks the same samples for every caller.
    """
    if not 0.0 <= shrink_floor <= 1.0:
        raise ValueError("shrink_floor must lie in [0, 1]")
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    evecs = sigma.eigh[1]
    evals = ((sigma.matrix @ evecs) * evecs).sum(axis=0)
    kept = retained(evals)
    lams, dirs = evals[kept], evecs[:, kept]
    diags = np.random.default_rng(seed).uniform(shrink_floor, 1.0, size=(n_samples, sigma.dim))
    scales = 1.0 - diags[:, kept] ** 2
    # the gap's eigenvalues: L_j s_sj on the retained directions, 0 on the rest
    margins = (lams * scales).min(axis=1, initial=np.inf if kept.all() else 0.0)
    roots = np.sqrt(lams)
    dropped = (evecs[:, ~kept], evals[~kept])
    return _Gaps(dirs * roots, (dirs / roots).T, np.eye(lams.size)[None], scales, margins, dropped)


def sample_dominated(
    reference: SourceEnsemble, seed: int, n_samples: int, shrink_floor: float = 0.0
) -> list[SourceEnsemble]:
    """Realize the samples verify_extremal scores, for the same seed.

    Sample s maps every atom by K_s = R C_s^{1/2} R^+, C_s = I - Q_s
    diag(s_s) Q_s^T (_gaps). The atoms lie in the range of R, so the
    realized moment is R C_s R^T = Sigma_A - R Q_s diag(s_s) Q_s^T R^T.
    """
    gaps = _gaps(second_moment(reference), seed, n_samples, shrink_floor)
    whitened = reference.flat_values @ gaps.co_root.T @ gaps.bases
    halves = whitened * np.sqrt(1.0 - gaps.scales)[:, None, :]
    flats = halves @ (gaps.root @ gaps.bases).swapaxes(-1, -2)
    values = flats.reshape(n_samples, *reference.values.shape)
    return [SourceEnsemble(space=reference.space, values=v) for v in values]


def _ones_fixing_orthogonal(n: int, rng: np.random.Generator) -> NDArray:
    """Random orthogonal matrix fixing the all-ones direction."""
    basis = np.linalg.qr(
        np.column_stack([np.ones(n) / np.sqrt(n), rng.standard_normal((n, n - 1))])
    )[0]
    # make the first basis column the normalized ones vector exactly
    if basis[0, 0] < 0:
        basis = -basis
    gauss = rng.standard_normal((n - 1, n - 1))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))[None, :]
    block = np.eye(n)
    block[1:, 1:] = q
    return basis @ block @ basis.T


def fit_baseline(
    a: SourceEnsemble, spec: BlockCovariance, seed: int
) -> tuple[SourceEnsemble, SourceEnsemble]:
    """Realize a perturbation with prescribed second moment, uncorrelated
    with the source.

    The source space is expanded by an auxiliary factor carrying one
    plus/minus atom pair per retained eigendirection of sigma_xi, values
    scaled so the product-measure second moment reproduces sigma_xi and
    the auxiliary mean vanishes; the latter forces an exactly zero cross
    moment against any function of the source factor alone. The seed
    mixes the auxiliary atoms by an orthogonal map fixing constants, so
    distinct seeds give genuinely different realizations with identical
    second-order statistics. Returns the source lifted to the product
    space together with the realized baseline.
    """
    if spec.dim != a.d * a.p:
        raise ShapeMismatch("baseline spec dimension does not match the ensemble")
    evals, evecs = spec.eigh
    kept = retained(evals)
    rank = int(kept.sum())
    m, d, p = a.space.m, a.d, a.p
    if rank == 0:
        return a, SourceEnsemble(space=a.space, values=np.zeros((m, d, p)))

    mass = a.space.total_mass
    rng = np.random.default_rng(seed)
    # plus/minus pair per retained direction, unit aux weights 0.5 each
    directions = evecs[:, kept] * np.sqrt(rank * evals[kept] / mass)[None, :]
    aux_values = np.zeros((2 * rank, d * p))
    aux_values[0::2] = directions.T
    aux_values[1::2] = -directions.T
    mix = _ones_fixing_orthogonal(2 * rank, rng)
    aux_values = mix @ aux_values

    # product measure keeping the source marginal: w_{j,l} = mu_j / (2 rank)
    weights = np.repeat(a.space.weights, 2 * rank) / (2 * rank)
    space = MeasureSpace(weights=weights)
    lifted = SourceEnsemble(
        space=space, values=np.repeat(a.values, 2 * rank, axis=0)
    )
    xi = SourceEnsemble(
        space=space,
        values=np.tile(aux_values, (m, 1)).reshape(m * 2 * rank, d, p),
    )
    return lifted, xi


def verify_extremal(
    a: SourceEnsemble,
    spec: BlockCovariance,
    rep: RepresentationOperator,
    estimators: NDArray,
    seed: int,
    n_samples: int,
    tol: float = DEFAULT_TOL,
    shrink_floor: float = 0.0,
) -> EnvelopeReport:
    """Check that no dominated sample beats the reference cost.

    estimators is one (E, p_out, q) stack, E >= 1, scored at once through
    the stack of its residual maps (residual_map). Sample 0 is the
    reference ensemble itself, which must attain the supremum exactly;
    the rest are the samples of sample_dominated for the same seed,
    scored from their gaps (_gaps) without forming any sample matrix.
    With W = target_map - T input_map, estimator T costs
    ref = <Sigma_A + sigma_xi, W^T W>_F on the reference and
    <sigma_xi, W^T W> + sum_d L_d ||W u_d||^2 + sum_j (1 - s_sj) ||W R Q_s e_j||^2
    on sample s, d over the dropped directions (u_d, L_d). That is ref
    minus the gap's part for any gap, commuting with Sigma_A or not, but a
    sum of nonnegative terms: it does not cancel when a sample costs far
    less than ref, as the difference would. The report carries the worst
    estimator; membership requires every estimator's violation to stay
    within tol times its own reference cost (covariance.within_slack, so
    rescaling the ensembles never changes the verdict).
    """
    if np.ndim(estimators) != 3:
        raise ShapeMismatch("estimators must be one (E, p_out, q) stack")
    if not len(estimators):
        raise ValueError("at least one estimator is required")
    if a.d * a.p != rep.d * rep.p:
        raise ShapeMismatch("ensemble dimension does not match the operator")
    sigma = second_moment(a)
    gaps = _gaps(sigma, seed, n_samples, shrink_floor)
    w = residual_map(spec, rep, estimators)
    refs = ((w @ (sigma.matrix + spec.matrix)) * w).sum(axis=(1, 2))
    # the part no gap touches: sigma_xi and the directions retained drops
    dirs, lams = gaps.dropped
    untouched = ((w @ spec.matrix) * w).sum(axis=(1, 2)) + ((w @ dirs) ** 2).sum(axis=1) @ lams
    # ||W_e R Q_s e_j||^2, one row per estimator and (shared) basis
    weights = (np.matmul((w @ gaps.root)[:, None], gaps.bases) ** 2).sum(axis=2)
    kept = np.einsum("esj,sj->es", weights, 1.0 - gaps.scales)
    costs = np.concatenate([refs[:, None], untouched[:, None] + kept], axis=1)
    violations = (costs - refs[:, None]).max(axis=1)
    worst = int(np.argmax(violations))
    return EnvelopeReport(
        member=within_slack(-violations, refs, tol),
        lambda_min_margin=float(gaps.margins.min()) if n_samples else 0.0,
        cost_reference=float(refs[worst]),
        cost_samples=[(i, float(c)) for i, c in enumerate(costs[worst])],
        max_violation=float(violations[worst]),
    )
