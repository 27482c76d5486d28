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

from .cost_minimizer import (
    HSOperator,
    cost_decomposed,
    cost_difference_bound,
    residual_map,
)
from .covariance import check_symmetric_psd, loewner_dominates, retained
from .errors import ShapeMismatch
from .measure_ensemble import (
    BaselineEnsemble,
    BaselineSpec,
    MeasureSpace,
    SourceEnsemble,
    ensemble_distance,
    second_moment,
)
from .representation import RepresentationOperator


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of a worst-case check against dominated samples.

    member            no sampled cost exceeded the reference beyond tol
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

    def as_dict(self) -> dict:
        return {
            "member": self.member,
            "lambda_min_margin": self.lambda_min_margin,
            "cost_reference": self.cost_reference,
            "cost_samples": [[int(i), float(c)] for i, c in self.cost_samples],
            "max_violation": self.max_violation,
        }


@dataclass(frozen=True)
class ClosureReport:
    """Cost gaps of approximating ensembles against a limit ensemble."""

    distances: list[float]
    gaps: list[float]
    bounds: list[float]
    gaps_within_bound: bool
    max_gap: float


def is_member(
    candidate: SourceEnsemble, reference: SourceEnsemble, tol: float = 1e-9
) -> tuple[bool, float]:
    """Membership of candidate in the stability set of reference.

    Only second moments enter, so the two ensembles may live on
    different measure spaces. Returns the verdict and the bottom
    eigenvalue of the covariance gap.
    """
    if (candidate.d, candidate.p) != (reference.d, reference.p):
        raise ShapeMismatch("block shapes differ")
    return loewner_dominates(second_moment(reference), second_moment(candidate), tol=tol)


def _contractions(
    sigma: NDArray, seed: int, n_samples: int, shrink_floor: float
) -> NDArray:
    """Stack (n_samples, dim, dim) of contractions K_s = U D_s U^T.

    sigma = U L U^T is the reference second moment and each diagonal D_s
    is uniform in [shrink_floor, 1], one generator call per sample in
    sample order, so a seed picks the same samples for every caller.
    """
    if not 0.0 <= shrink_floor <= 1.0:
        raise ValueError("shrink_floor must lie in [0, 1]")
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    rng = np.random.default_rng(seed)
    _, evecs = np.linalg.eigh(sigma)
    dim = sigma.shape[0]
    diags = np.array(
        [rng.uniform(shrink_floor, 1.0, size=dim) for _ in range(n_samples)]
    ).reshape(n_samples, dim)
    return (evecs[None, :, :] * diags[:, None, :]) @ evecs.T


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
    contractions = _contractions(
        second_moment(reference).matrix, seed, n_samples, shrink_floor
    )
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
    a: SourceEnsemble, spec: BaselineSpec, seed: int
) -> tuple[SourceEnsemble, BaselineEnsemble]:
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
    evals, evecs = np.linalg.eigh(spec.sigma_xi)
    kept = retained(evals)
    rank = int(kept.sum())
    m, d, p = a.space.m, a.d, a.p
    if rank == 0:
        zero = BaselineEnsemble(
            space=a.space, values=np.zeros((m, d, p)), spec=spec
        )
        return a, zero

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
    xi = BaselineEnsemble(
        space=space,
        values=np.tile(aux_values, (m, 1)).reshape(m * 2 * rank, d, p),
        spec=spec,
    )
    return lifted, xi


def verify_extremal(
    a: SourceEnsemble,
    spec: BaselineSpec,
    rep: RepresentationOperator,
    estimators: list[HSOperator],
    seed: int,
    n_samples: int,
    tol: float = 1e-9,
    shrink_floor: float = 0.0,
) -> EnvelopeReport:
    """Check that no dominated sample beats the reference cost.

    Sample 0 is the reference ensemble itself (the identity contraction),
    which must attain the supremum exactly; the rest are the samples of
    sample_dominated for the same seed. The cost depends on a sample only
    through its second moment, which is exactly K Sigma_A K^T for its
    contraction K, so the samples are never realized atom by atom. With
    W = target_map - T input_map, estimator T scores sample s as
    <S_s, W^T W>_F + <sigma_xi, W^T W>_F, all pairs in one product. When
    several estimators are given the report carries the worst one:
    membership requires every estimator's violation to stay within
    tol * (1 + its reference cost).
    """
    if not estimators:
        raise ValueError("at least one estimator is required")
    if a.d * a.p != rep.d * rep.p:
        raise ShapeMismatch("ensemble dimension does not match the operator")
    sigma = second_moment(a).matrix
    k = _contractions(sigma, seed, n_samples, shrink_floor)
    shrunk = k @ sigma @ np.swapaxes(k, 1, 2)
    shrunk = 0.5 * (shrunk + np.swapaxes(shrunk, 1, 2))
    check_symmetric_psd(shrunk)
    margins = np.linalg.eigvalsh(sigma - shrunk)[:, 0]
    lambda_min_margin = float(margins.min()) if n_samples else 0.0

    moments = np.concatenate([sigma[None], shrunk]).reshape(n_samples + 1, -1)
    w = np.stack([residual_map(spec, rep, est) for est in estimators])
    wtw = np.einsum("eik,eil->ekl", w, w).reshape(len(estimators), -1)
    costs = wtw @ moments.T + (wtw @ spec.sigma_xi.reshape(-1))[:, None]
    refs = costs[:, 0]
    violations = (costs - refs[:, None]).max(axis=1)
    worst = int(np.argmax(violations))
    return EnvelopeReport(
        member=not bool(np.any(violations > tol * (1.0 + refs))),
        lambda_min_margin=lambda_min_margin,
        cost_reference=float(refs[worst]),
        cost_samples=[(i, float(c)) for i, c in enumerate(costs[worst])],
        max_violation=float(violations[worst]),
    )


def closure_regression(
    a_limit: SourceEnsemble,
    approximants: list[SourceEnsemble],
    rep: RepresentationOperator,
    spec: BaselineSpec,
    est: HSOperator,
    tol: float = 1e-9,
) -> ClosureReport:
    """Cost gaps along a sequence converging to a limit ensemble.

    The baseline part of the cost is shared, so each gap is the absolute
    difference of source parts. Every gap must sit under the Lipschitz
    bound, within tol slack.
    """
    h_limit = cost_decomposed(a_limit, spec, rep, est).source_part
    distances, gaps, bounds = [], [], []
    for approx in approximants:
        distances.append(ensemble_distance(approx, a_limit))
        gaps.append(
            abs(cost_decomposed(approx, spec, rep, est).source_part - h_limit)
        )
        bounds.append(cost_difference_bound(approx, a_limit, rep, est))
    within = all(g <= b + tol for g, b in zip(gaps, bounds))
    return ClosureReport(
        distances=[float(v) for v in distances],
        gaps=[float(v) for v in gaps],
        bounds=[float(v) for v in bounds],
        gaps_within_bound=within,
        max_gap=float(max(gaps)) if gaps else 0.0,
    )
