"""Finite weighted ensembles of multichannel sources.

A source is a d-component family, each component described by p
coefficients against a fixed orthonormal basis. An ensemble assigns one
source to every atom of a finite positive measure. All second-order
statistics are raw (uncentered) moments; nothing here assumes zero mean.

Coefficient vectors are flattened component-major: component i,
coefficient k sits at index i * p + k. Every module in the package uses
this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .covariance import BlockCovariance, hold
from .errors import ShapeMismatch


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite measure: m atoms with strictly positive weights.

    Total mass is whatever the weights sum to; normalization is never
    assumed.
    """

    weights: NDArray

    def __post_init__(self):
        hold(self, "weights")
        w = self.weights
        if w.ndim != 1 or w.size < 1:
            raise ShapeMismatch("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("atom weights must be finite and strictly positive")

    @property
    def m(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def same_as(self, other: "MeasureSpace") -> bool:
        return self.weights.shape == other.weights.shape and bool(
            np.array_equal(self.weights, other.weights)
        )


@dataclass(frozen=True, eq=False)
class SourceEnsemble:
    """One d-component source per atom, p coefficients per component.

    values has shape (m, d, p): values[j, i, k] is coefficient k of
    component i on atom j. A realized baseline (fit_baseline) is one too.
    """

    space: MeasureSpace
    values: NDArray

    def __post_init__(self):
        hold(self, "values")
        v = self.values
        if v.ndim != 3:
            raise ShapeMismatch("ensemble values must have shape (m, d, p)")
        if v.shape[0] != self.space.m:
            raise ShapeMismatch(
                f"{v.shape[0]} value rows for {self.space.m} atoms"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("ensemble values must be finite")

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def p(self) -> int:
        return self.values.shape[2]

    @property
    def flat_values(self) -> NDArray:
        """(m, d*p) view, component-major flattening."""
        return self.values.reshape(self.space.m, self.d * self.p)


def _gram(rows: NDArray, w: NDArray) -> NDArray:
    """Weighted Gram sum_j w_j rows_j^T rows_j: the sqrt(w)-scaled rows times
    their own transpose, which numpy runs as one BLAS syrk, exactly symmetric."""
    scaled = rows * np.sqrt(w)[:, None]
    return scaled.T @ scaled


def second_moment(ens: SourceEnsemble) -> BlockCovariance:
    """Weighted raw second moment sum_j w_j vec(a_j) vec(a_j)^T, by _gram."""
    return BlockCovariance(matrix=_gram(ens.flat_values, ens.space.weights), d=ens.d, p=ens.p)


def cross_moment(
    a: SourceEnsemble, x: SourceEnsemble
) -> NDArray:
    """Weighted raw cross moment sum_j w_j vec(a_j) vec(x_j)^T.

    Both ensembles must live on the same measure space with the same
    component and coefficient counts.
    """
    if not a.space.same_as(x.space):
        raise ShapeMismatch("cross moment requires a shared measure space")
    if (a.d, a.p) != (x.d, x.p):
        raise ShapeMismatch(
            f"component/coefficient mismatch: ({a.d},{a.p}) vs ({x.d},{x.p})"
        )
    return (a.flat_values * a.space.weights[:, None]).T @ x.flat_values


def ensemble_norm(ens: SourceEnsemble) -> float:
    """Weighted L2 norm: sqrt(sum_j w_j ||a_j||_F^2)."""
    sq = np.einsum("j,jk,jk->", ens.space.weights, ens.flat_values, ens.flat_values)
    return float(np.sqrt(max(sq, 0.0)))


def ensemble_distance(
    a: SourceEnsemble, b: SourceEnsemble
) -> float:
    """Norm of the atomwise difference; spaces must agree."""
    if not a.space.same_as(b.space):
        raise ShapeMismatch("distance requires a shared measure space")
    if (a.d, a.p) != (b.d, b.p):
        raise ShapeMismatch("distance requires identical block shapes")
    diff = a.flat_values - b.flat_values
    sq = np.einsum("j,jk,jk->", a.space.weights, diff, diff)
    return float(np.sqrt(max(sq, 0.0)))

