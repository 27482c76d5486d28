"""Linear observation maps from source coefficients to (target, input) pairs.

A representation operator carries two matrices acting on the flattened
coefficient vector of a d-component source: `target_map` produces the
p_out coefficients of the quantity to be estimated, `input_map` produces
the q coefficients actually observed. Any fixed mixing applied to the
observation channel is folded into `input_map`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .covariance import hold
from .errors import BadConfig, ShapeMismatch
from .measure_ensemble import MeasureSpace, SourceEnsemble


@dataclass(frozen=True, eq=False)
class RepresentationOperator:
    """Pair of coefficient maps (target_map: p_out x d*p, input_map: q x d*p).

    Both are finite. norm_bound, computed on first use, is the largest
    singular value of the two maps stacked: it bounds the operator norm of
    the joint action u -> (Tu, Iu), and so each factor's norm.
    """

    target_map: NDArray
    input_map: NDArray
    d: int
    p: int

    def __post_init__(self):
        hold(self, "target_map", "input_map")
        t, i = self.target_map, self.input_map
        if t.ndim != 2 or i.ndim != 2:
            raise ShapeMismatch("representation maps must be matrices")
        if t.shape[1] != self.d * self.p or i.shape[1] != self.d * self.p:
            raise ShapeMismatch(
                f"maps must have {self.d * self.p} columns, got {t.shape[1]} and {i.shape[1]}"
            )
        if not (np.isfinite(t).all() and np.isfinite(i).all()):
            raise ValueError("representation maps must be finite")

    @cached_property
    def norm_bound(self) -> float:
        return float(np.linalg.norm(np.vstack([self.target_map, self.input_map]), ord=2))

    @property
    def p_out(self) -> int:
        return self.target_map.shape[0]

    @property
    def q(self) -> int:
        return self.input_map.shape[0]


@dataclass(frozen=True, eq=False)
class ObservedEnsemble:
    """Per-atom target and input coefficients: y (m, p_out), x (m, q).

    y and x are held as read-only views (covariance.hold), not copied.
    """

    space: MeasureSpace
    y: NDArray
    x: NDArray

    def __post_init__(self):
        hold(self, "y", "x", view=True)
        y, x = self.y, self.x
        if y.ndim != 2 or x.ndim != 2:
            raise ShapeMismatch("observed values must be matrices")
        if y.shape[0] != self.space.m or x.shape[0] != self.space.m:
            raise ShapeMismatch("observed rows must match the atom count")

    @property
    def p_out(self) -> int:
        return self.y.shape[1]

    @property
    def q(self) -> int:
        return self.x.shape[1]


def apply(
    rep: RepresentationOperator,
    a: SourceEnsemble,
    xi: SourceEnsemble | None = None,
) -> ObservedEnsemble:
    """Observe every atom: y_j = target_map u_j, x_j = input_map u_j.

    u_j is the flattened value of a_j + xi_j (xi defaults to zero).
    """
    if (a.d, a.p) != (rep.d, rep.p):
        raise ShapeMismatch(
            f"ensemble blocks ({a.d},{a.p}) do not match the operator ({rep.d},{rep.p})"
        )
    values = a.values
    if xi is not None:
        if not a.space.same_as(xi.space):
            raise ShapeMismatch("source and baseline must share a measure space")
        if (a.d, a.p) != (xi.d, xi.p):
            raise ShapeMismatch("source and baseline block shapes differ")
        values = values + xi.values
    flat = values.reshape(a.space.m, rep.d * rep.p)
    return ObservedEnsemble(
        space=a.space, y=flat @ rep.target_map.T, x=flat @ rep.input_map.T
    )


def truncation_residual(
    rep: RepresentationOperator,
    a: SourceEnsemble,
    n_in: int,
    n_out: int,
) -> tuple[NDArray, float]:
    """Observation error committed by truncating the input.

    n_in cuts the input side (per component), n_out cuts both output
    sides, so it must not exceed min(p_out, q). For each atom, the
    leading n_out rows of both maps act on the dropped tail: the source
    with its first n_in coefficients of every component zeroed. Returns
    per-atom residual norms and the weighted aggregate
    sum_j w_j ||delta_j||^2. Zero whenever every atom is supported on the
    first n_in coefficients; in particular exactly zero at n_in = p.
    """
    if not 1 <= n_in <= rep.p:
        raise ShapeMismatch(f"n_in {n_in} outside 1..{rep.p}")
    if not 1 <= n_out <= min(rep.p_out, rep.q):
        raise ShapeMismatch(f"n_out {n_out} outside 1..{min(rep.p_out, rep.q)}")
    if (a.d, a.p) != (rep.d, rep.p):
        raise ShapeMismatch("ensemble blocks do not match the operator")
    tail = a.values.copy()
    tail[..., :n_in] = 0.0
    tail = tail.reshape(a.space.m, rep.d * rep.p)
    dy = tail @ rep.target_map[:n_out].T
    dx = tail @ rep.input_map[:n_out].T
    per_atom = np.sqrt(np.einsum("jk,jk->j", dy, dy) + np.einsum("jk,jk->j", dx, dx))
    aggregate = float(np.einsum("j,j->", a.space.weights, per_atom**2))
    return per_atom, aggregate


# ---------------------------------------------------------------------------
# Elliptic construction: the target channel reads a boundary value problem.


@dataclass(frozen=True)
class EllipticConfig:
    """Builder input for the 1-d Dirichlet observation operator.

    n_x           number of grid cells on [0, 1] (n_x - 1 interior nodes)
    potential     constant zeroth-order coefficient, >= 0
    bump_width    half-width of the smooth source profile; None means a
                  flat profile equal to 1 on the whole domain
    bump_centers  one center in (0, 1) per source component
    alphas        aggregation weight per component for the input channel
    basis_dim     number of time-basis coefficients p
    ell           observable weights on interior nodes; None means the
                  constant function 1
    """

    n_x: int
    potential: float = 0.0
    bump_width: float | None = None
    bump_centers: tuple[float, ...] = (0.5,)
    alphas: tuple[float, ...] = (1.0,)
    basis_dim: int = 4
    ell: tuple[float, ...] | None = None

    def __post_init__(self):
        # each field shares its name with the elliptic_demo config field
        if self.n_x < 2:
            raise BadConfig(f"field 'n_x' must be at least 2; got {self.n_x}")
        if not self.potential >= 0:
            raise BadConfig(f"field 'potential' must be >= 0; got {self.potential}")
        if self.bump_width is not None and not self.bump_width > 0:
            raise BadConfig(f"field 'bump_width' must be > 0; got {self.bump_width}")
        if len(self.bump_centers) == 0:
            raise BadConfig("field 'bump_centers' must give at least one center")
        if len(self.bump_centers) != len(self.alphas):
            raise BadConfig(
                f"field 'alphas' gives {len(self.alphas)} values for "
                f"{len(self.bump_centers)} bump_centers"
            )
        for c in self.bump_centers:
            if not 0.0 < c < 1.0:
                raise BadConfig(f"field 'bump_centers' has {c} outside (0, 1)")
        if self.basis_dim < 1:
            raise BadConfig(f"field 'basis_dim' must be at least 1; got {self.basis_dim}")
        if self.ell is not None and len(self.ell) != self.n_x - 1:
            raise BadConfig(
                f"field 'ell' must list {self.n_x - 1} interior values; "
                f"got {len(self.ell)}"
            )

    @property
    def d(self) -> int:
        return len(self.bump_centers)


def _dst1(buf: NDArray, sines: NDArray) -> NDArray:
    """DST-I X_k = sum_j x_j sin(pi j k / n), j, k = 1..n-1, of x = buf[1:].

    n = buf.size; buf[0] is ignored and buf is overwritten. sines is the
    table sines[k - 1] = sin(pi k / (2 n)), k = 1..n-1, so sin(pi j / n)
    is sines[2 j - 1]. Returns a new
    float buffer with X in [1:n] and 0 in [0], so it can be transformed
    again as it stands. The work is one real FFT of length n of the
    folded sequence y_j = sin(pi j / n)(x_j + x_{n-j}) + (x_j - x_{n-j}) / 2
    (y_0 = 0), built in place pair by pair. Its spectrum R gives
    X_{2k} = -Im R_k and the differences X_{2k+1} - X_{2k-1} = Re R_k,
    from X_1 = Re R_0 / 2; each lands in the slot next to it in R's own
    float view. Only half-length temporaries are made besides the FFT's.
    """
    n = buf.size
    m = (n - 1) // 2
    lo = buf[1 : m + 1]  # x_j for j = 1..m
    hi = buf[n - 1 : n - m - 1 : -1]  # x_{n-j} for j = 1..m
    half_diff = np.subtract(lo, hi)
    half_diff *= 0.5
    lo += hi
    lo *= sines[1 : 2 * m : 2]
    np.subtract(lo, half_diff, out=hi)
    lo += half_diff
    del half_diff
    if n % 2 == 0:
        buf[n // 2] *= 2.0  # sin(pi / 2) (x_j + x_j) at j = n / 2
    buf[0] = 0.0
    out = np.fft.rfft(buf).view(float)
    re, im = out[0::2], out[1::2]
    re[0] *= 0.5
    np.cumsum(re, out=re)  # re[k] = X_{2k+1}
    minus_im = np.negative(im)  # minus_im[k] = X_{2k}
    im[:] = re
    re[:] = minus_im
    re[0] = 0.0
    return out


def _constant_solution(n_x: int, potential: float, c: float | NDArray, support: slice) -> NDArray:
    """Exact solution of -z'' + potential * z = c at the interior nodes
    support selects (an index into the n_x - 1 interior values).

    At x = i / n_x, z = c a(x) a(1 - x) scale with a(x) = -expm1(-kappa x) /
    sqrt(V), scale = 1 / (1 + exp(-kappa)) and V = potential = 4 n_x^2
    sinh^2(kappa / (2 n_x)); at V = 0, a(x) = x, scale = 1 / 2. One arange
    holds i, then n_x - i reversed (on the whole grid, i read reversed): one
    expm1 pass gives both factors, and z is exactly symmetric.
    """
    first, last, k = support.start + 1, support.stop, support.stop - support.start
    a = np.arange(first, last + 1.0 + (k if k < n_x - 1 else 0))
    a[k:] += n_x - last - first - k  # n_x - last .. n_x - first
    a /= n_x
    scale = 0.5
    if potential != 0:
        root = math.sqrt(potential)
        kappa = 2 * n_x * math.asinh(root / (2 * n_x))
        np.expm1(np.multiply(a, -kappa, out=a), out=a)
        a /= -root
        scale = 1.0 / (1.0 + math.exp(-kappa))
    z = a[:k]
    z *= a[::-1][:k]
    z *= scale
    z *= c
    return z


def green_apply(n_x: int, potential: float, f: NDArray) -> NDArray:
    """Solve -z'' + potential * z = f on (0, 1) with zero boundary values.

    Second-order centered differences on the uniform grid; f holds the
    n_x - 1 interior nodal values and the interior solution is returned.
    The difference operator is diagonal in the DST-I basis, with
    eigenvalues lam_k = (2 n_x sin(pi k / (2 n_x)))^2 + potential (the
    sin^2 form does not cancel as 2 - 2 cos does), so the solve is
    z = (2 / n_x) DST(DST(f) / lam), exact up to round-off. One table of
    sin(pi k / (2 n_x)) serves lam and both transforms: fl(pi / (2 n_x))
    is exactly fl(pi / n_x) / 2, so its odd entries are bitwise the
    sin(pi j / n_x) each transform reads. A constant forcing is solved
    exactly, with no FFT (_constant_solution). The potential must be >= 0.
    """
    f = np.asarray(f, dtype=float).reshape(-1)
    if f.size != n_x - 1:
        raise ShapeMismatch(f"expected {n_x - 1} interior values, got {f.size}")
    if not potential >= 0:
        raise ValueError(f"potential must be >= 0; got {potential}")
    if (f == f[:1]).all():
        return _constant_solution(n_x, potential, f[:1], slice(0, n_x - 1))
    sines = np.arange(1.0, n_x)
    sines *= np.pi / (2 * n_x)
    np.sin(sines, out=sines)
    buf = np.empty(n_x)
    buf[1:] = f
    buf = _dst1(buf, sines)
    lam = sines * (2.0 * n_x)
    lam *= lam
    lam += potential
    buf[1:n_x] /= lam
    del lam
    z = _dst1(buf[:n_x], sines)[1:n_x]
    z *= 2.0 / n_x
    return z


def _mollifier(s: NDArray) -> NDArray:
    """exp(-1 / (1 - s^2)) for |s| < 1, else exp(-1 / 0) = 0 (1 - s^2 clamped), in place of s."""
    with np.errstate(over="ignore", divide="ignore"):
        np.multiply(s, s, out=s)
        np.subtract(1.0, s, out=s)
        np.maximum(s, 0.0, out=s)
        np.divide(-1.0, s, out=s)
    return np.exp(s, out=s)


def _source_profile(cfg: EllipticConfig, center: float) -> tuple[slice, NDArray]:
    """Interior nodal values of the component's spatial profile.

    Returns the range of interior indices where the profile can be
    nonzero and its values there, in a new array: a bump is evaluated
    only on nodes within one grid step of |x - center| < bump_width. Bumps are
    normalized to unit discrete mass h * sum g = 1 so the forcing they
    inject is width-independent; the flat profile is the constant 1 on
    the whole grid (not normalized), matching the unit forcing benchmark.
    """
    n_x = cfg.n_x
    if cfg.bump_width is None:
        return slice(0, n_x - 1), np.ones(n_x - 1)
    first = max(1, math.floor(max(center - cfg.bump_width, 0.0) * n_x) - 1)
    last = min(n_x - 1, math.ceil(min(center + cfg.bump_width, 1.0) * n_x) + 1)
    s = np.arange(first, last + 1.0)
    s /= n_x
    s -= center
    s /= cfg.bump_width
    raw = _mollifier(s)
    mass = raw.sum() / n_x
    if mass <= 0.0:
        raise BadConfig(
            f"field 'bump_width' {cfg.bump_width} at center {center} misses every "
            "grid node"
        )
    raw /= mass
    return slice(first - 1, last), raw


def build_elliptic_representation(
    cfg: EllipticConfig,
) -> tuple[RepresentationOperator, dict]:
    """Observation operator for sources forcing an elliptic problem.

    Each component j injects its time coefficients through a fixed
    spatial profile g_j; the target channel reads <solution, ell>, which
    collapses to a scalar gain gamma_j per component acting identically
    on every time coefficient. The input channel aggregates components
    with the alpha weights, also coefficient-wise. Returns the operator
    and builder metadata (grid step, per-component gains).

    The discrete solution operator G (green_apply) is symmetric, so
    gamma_j = h <G g_j, ell> = h <g_j, G ell>, with w = G ell read on the
    support of g_j alone. For the default ell = 1 and bumps, w is the
    closed form (_constant_solution) evaluated on each support only, so no
    array of length n_x is made; an explicit ell or flat profiles take one
    solve on the whole grid. Each gain is numpy's pairwise sum of g_j * w,
    not a BLAS dot, which a threaded BLAS would split by its thread count.
    """
    d, p, n_x, v = cfg.d, cfg.basis_dim, cfg.n_x, cfg.potential
    ell = np.ones(n_x - 1) if cfg.ell is None and cfg.bump_width is None else cfg.ell
    w = None if ell is None else green_apply(n_x, v, np.asarray(ell, dtype=float))
    gains = []
    for center in cfg.bump_centers:
        support, g = _source_profile(cfg, center)
        g *= _constant_solution(n_x, v, 1.0, support) if w is None else w[support]
        gains.append(float(np.sum(g)) / n_x)
    eye = np.eye(p)
    target = np.hstack([g * eye for g in gains])
    inputm = np.hstack([a * eye for a in cfg.alphas])
    rep = RepresentationOperator(target_map=target, input_map=inputm, d=d, p=p)
    meta = {
        "n_x": cfg.n_x,
        "grid_step": 1.0 / cfg.n_x,
        "component_gains": gains,
        "potential": float(cfg.potential),
    }
    return rep, meta
