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

import csv
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .covariance import BlockCovariance, check_symmetric_psd
from .errors import ShapeMismatch


def _freeze(arr: NDArray) -> NDArray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite measure: m atoms with strictly positive weights.

    Total mass is whatever the weights sum to; normalization is never
    assumed.
    """

    weights: NDArray

    def __post_init__(self):
        w = _freeze(self.weights)
        if w.ndim != 1 or w.size < 1:
            raise ShapeMismatch("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("atom weights must be finite and strictly positive")
        object.__setattr__(self, "weights", w)

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
    component i on atom j.
    """

    space: MeasureSpace
    values: NDArray

    def __post_init__(self):
        v = _freeze(self.values)
        if v.ndim != 3:
            raise ShapeMismatch("ensemble values must have shape (m, d, p)")
        if v.shape[0] != self.space.m:
            raise ShapeMismatch(
                f"{v.shape[0]} value rows for {self.space.m} atoms"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("ensemble values must be finite")
        object.__setattr__(self, "values", v)

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


@dataclass(frozen=True, eq=False)
class BaselineSpec:
    """Target second moment for a perturbation process.

    sigma_xi must pass BlockCovariance's rule, check_symmetric_psd;
    violations raise DegenerateSpec at construction.
    """

    sigma_xi: NDArray

    def __post_init__(self):
        s = _freeze(self.sigma_xi)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ShapeMismatch("sigma_xi must be square")
        check_symmetric_psd(s)
        object.__setattr__(self, "sigma_xi", s)

    @property
    def dim(self) -> int:
        return self.sigma_xi.shape[0]


@dataclass(frozen=True, eq=False)
class BaselineEnsemble:
    """Realized perturbation values on a measure space, plus their spec."""

    space: MeasureSpace
    values: NDArray
    spec: BaselineSpec

    def __post_init__(self):
        v = _freeze(self.values)
        if v.ndim != 3 or v.shape[0] != self.space.m:
            raise ShapeMismatch("baseline values must have shape (m, d, p)")
        if v.shape[1] * v.shape[2] != self.spec.dim:
            raise ShapeMismatch("baseline values incompatible with spec dimension")
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def p(self) -> int:
        return self.values.shape[2]

    @property
    def flat_values(self) -> NDArray:
        return self.values.reshape(self.space.m, self.d * self.p)


def _raw_second_moment(weights: NDArray, flat: NDArray) -> NDArray:
    mat = (flat * weights[:, None]).T @ flat
    # symmetrize away matmul round-off so downstream PSD checks are clean
    return 0.5 * (mat + mat.T)


def second_moment(ens: SourceEnsemble | BaselineEnsemble) -> BlockCovariance:
    """Weighted raw second moment sum_j w_j vec(a_j) vec(a_j)^T."""
    mat = _raw_second_moment(ens.space.weights, ens.flat_values)
    return BlockCovariance(matrix=mat, d=ens.d, p=ens.p)


def cross_moment(
    a: SourceEnsemble | BaselineEnsemble, x: SourceEnsemble | BaselineEnsemble
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


def ensemble_norm(ens: SourceEnsemble | BaselineEnsemble) -> float:
    """Weighted L2 norm: sqrt(sum_j w_j ||a_j||_F^2)."""
    sq = np.einsum("j,jk,jk->", ens.space.weights, ens.flat_values, ens.flat_values)
    return float(np.sqrt(max(sq, 0.0)))


def ensemble_distance(
    a: SourceEnsemble | BaselineEnsemble, b: SourceEnsemble | BaselineEnsemble
) -> float:
    """Norm of the atomwise difference; spaces must agree."""
    if not a.space.same_as(b.space):
        raise ShapeMismatch("distance requires a shared measure space")
    if (a.d, a.p) != (b.d, b.p):
        raise ShapeMismatch("distance requires identical block shapes")
    diff = a.flat_values - b.flat_values
    sq = np.einsum("j,jk,jk->", a.space.weights, diff, diff)
    return float(np.sqrt(max(sq, 0.0)))


ENSEMBLE_CSV_HEADER = ["atom", "weight", "component", "coeff_index", "value"]


def ensemble_to_csv(ens: SourceEnsemble | BaselineEnsemble, path) -> None:
    """Write one row per (atom, component, coefficient). Indices are 0-based."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ENSEMBLE_CSV_HEADER)
        for j in range(ens.space.m):
            w = repr(float(ens.space.weights[j]))
            for i in range(ens.d):
                for k in range(ens.p):
                    writer.writerow([j, w, i, k, repr(float(ens.values[j, i, k]))])


def ensemble_from_csv(path) -> SourceEnsemble:
    """Inverse of ensemble_to_csv. Atom weights must be consistent per atom."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ENSEMBLE_CSV_HEADER:
            raise ValueError(f"unexpected ensemble CSV header: {header}")
        for row in reader:
            if not row:
                continue
            rows.append((int(row[0]), float(row[1]), int(row[2]), int(row[3]), float(row[4])))
    if not rows:
        raise ValueError("empty ensemble CSV")
    m = max(r[0] for r in rows) + 1
    d = max(r[2] for r in rows) + 1
    p = max(r[3] for r in rows) + 1
    weights = np.full(m, np.nan)
    values = np.full((m, d, p), np.nan)
    for j, w, i, k, v in rows:
        if np.isfinite(weights[j]) and weights[j] != w:
            raise ValueError(f"atom {j} listed with conflicting weights")
        weights[j] = w
        values[j, i, k] = v
    if not np.all(np.isfinite(weights)) or not np.all(np.isfinite(values)):
        raise ValueError("ensemble CSV leaves entries unspecified")
    return SourceEnsemble(space=MeasureSpace(weights=weights), values=values)
