"""Stability sets in the covariance order and the worst-case principle.

An ensemble A' belongs to the stability set of A when its second moment
is dominated by that of A in the semidefinite order. The projection cost
is monotone along that order for every estimator, so the supremum of the
cost over the whole set is attained at A itself. This module samples the
set constructively, realizes baseline perturbations exactly, and checks
the extremal property numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .cost_minimizer import HSOperator, residual_map
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
    lambda_min_margin worst domination margin among the samples
    cost_reference    cost at the reference ensemble
    cost_samples      (sample id, cost) pairs; id 0 is the reference
                      ensemble itself, i.e. the undeformed sample
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


def _contractions(
    dim: int, seed: int, n_samples: int, shrink_floor: float
) -> NDArray:
    """The diagonals D_s (n_samples, dim) of the contractions U diag(D_s) U^T,
    U the eigenvectors of the reference moment; D_s is uniform in
    [shrink_floor, 1]. One generator call draws every D_s, row by row in
    sample order, so a seed picks the same samples for every caller."""
    if not 0.0 <= shrink_floor <= 1.0:
        raise ValueError("shrink_floor must lie in [0, 1]")
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    rng = np.random.default_rng(seed)
    return rng.uniform(shrink_floor, 1.0, size=(n_samples, dim))


def sample_dominated(
    reference: SourceEnsemble,
    seed: int,
    n_samples: int,
    shrink_floor: float = 0.0,
) -> list[SourceEnsemble]:
    """Draw ensembles whose second moments are dominated by construction.

    The reference covariance is diagonalized as U L U^T; each sample
    applies K = U D U^T with diagonal D uniform in [shrink_floor, 1] to
    every atom, giving the exact second moment U D^2 L U^T <= U L U^T.
    Drawing D = I would reproduce the reference ensemble itself.
    """
    evecs = second_moment(reference).eigh[1]
    diags = _contractions(evecs.shape[0], seed, n_samples, shrink_floor)
    contractions = (evecs[None, :, :] * diags[:, None, :]) @ evecs.T
    flat = reference.flat_values
    shape = reference.values.shape
    return [
        SourceEnsemble(space=reference.space, values=(flat @ k.T).reshape(shape))
        for k in contractions
    ]


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
    estimators: list[HSOperator],
    seed: int,
    n_samples: int,
    tol: float = DEFAULT_TOL,
    shrink_floor: float = 0.0,
) -> EnvelopeReport:
    """Check that no dominated sample beats the reference cost.

    Sample 0 is the reference ensemble itself (the identity contraction),
    which must attain the supremum exactly; the rest are the samples of
    sample_dominated for the same seed. A cost depends on a sample only
    through its second moment, and every contraction K_s = U diag(D_s) U^T
    is diagonal in the eigenbasis U of Sigma_A (its held eigh), so no
    sample matrix is formed. With L = diag(U^T Sigma_A U), the eigenvalues
    read off Sigma_A itself, sample s has the moment U diag(D_s^2 L) U^T
    and its domination gap Sigma_A - S_s has the eigenvalues
    L (1 - D_s^2). With W = target_map - T input_map and c_i =
    ||W U e_i||^2, estimator T scores sample s as sum_i D_si^2 L_i c_i +
    <sigma_xi, W^T W>_F; sample 0 takes D = 1. The sample moments need no
    PSD check of their own: each spectrum D_s^2 L lies entrywise between
    min(L, 0) and L, and each L_i is a Rayleigh quotient of Sigma_A, so no
    sample eigenvalue sits below the bottom of Sigma_A, which
    BlockCovariance has already held to the PSD rule. When several
    estimators are given the report carries the worst one: membership
    requires every estimator's violation to stay within tol times its own
    reference cost (covariance.within_slack, so rescaling the ensembles
    never changes the verdict).
    """
    if not estimators:
        raise ValueError("at least one estimator is required")
    if a.d * a.p != rep.d * rep.p:
        raise ShapeMismatch("ensemble dimension does not match the operator")
    sigma = second_moment(a)
    evecs = sigma.eigh[1]
    diags = _contractions(sigma.dim, seed, n_samples, shrink_floor)
    evals = ((sigma.matrix @ evecs) * evecs).sum(axis=0)
    squares = np.concatenate([np.ones((1, evals.size)), diags**2])
    gaps = evals * (1.0 - squares[1:])
    lambda_min_margin = float(gaps.min()) if n_samples else 0.0

    w = np.stack([residual_map(spec, rep, est) for est in estimators])
    weights = ((w @ evecs) ** 2).sum(axis=1) * evals
    baseline = ((w @ spec.matrix) * w).sum(axis=(1, 2))
    costs = weights @ squares.T + baseline[:, None]
    refs = costs[:, 0]
    violations = (costs - refs[:, None]).max(axis=1)
    worst = int(np.argmax(violations))
    return EnvelopeReport(
        member=within_slack(-violations, refs, tol),
        lambda_min_margin=lambda_min_margin,
        cost_reference=float(refs[worst]),
        cost_samples=[(i, float(c)) for i, c in enumerate(costs[worst])],
        max_violation=float(violations[worst]),
    )
