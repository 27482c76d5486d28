import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envmm as E
import envmm.representation as representation
from helpers import (
    coefficient_diagonal_representation,
    count_calls,
    random_baseline,
    random_ensemble,
    random_representation,
)


def _identity_rep(d, p):
    eye = np.eye(d * p)
    return E.RepresentationOperator(target_map=eye, input_map=eye, d=d, p=p)


def test_apply_identity_maps():
    rng = np.random.default_rng(1)
    a = random_ensemble(rng, m=3, d=2, p=2)
    obs = E.apply(_identity_rep(2, 2), a)
    np.testing.assert_array_equal(obs.y, a.flat_values)
    np.testing.assert_array_equal(obs.x, a.flat_values)


def test_apply_adds_baseline():
    rng = np.random.default_rng(2)
    a = random_ensemble(rng, m=3, d=1, p=2)
    spec = random_baseline(rng, 2)
    lifted, xi = E.fit_baseline(a, spec, seed=0)
    rep = _identity_rep(1, 2)
    with_xi = E.apply(rep, lifted, xi)
    clean = E.apply(rep, lifted)
    np.testing.assert_allclose(
        with_xi.y - clean.y, xi.values.reshape(xi.space.m, -1), atol=1e-14
    )


def test_apply_rejects_block_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(E.ShapeMismatch):
        E.apply(_identity_rep(1, 3), random_ensemble(rng, d=2, p=3))


def test_apply_linear_in_ensemble():
    rng = np.random.default_rng(4)
    a = random_ensemble(rng, m=4, d=2, p=3)
    rep = random_representation(rng, 2, 3)
    scaled = E.SourceEnsemble(space=a.space, values=-2.5 * a.values)
    np.testing.assert_allclose(
        E.apply(rep, scaled).y, -2.5 * E.apply(rep, a).y, atol=1e-12
    )


def test_observed_ensemble_holds_read_only_views():
    y = np.arange(6.0).reshape(3, 2)
    x = np.ones((3, 1))
    obs = E.ObservedEnsemble(space=E.MeasureSpace(weights=np.ones(3)), y=y, x=x)
    assert np.shares_memory(obs.y, y) and np.shares_memory(obs.x, x)
    assert not obs.y.flags.writeable and not obs.x.flags.writeable
    assert y.flags.writeable and x.flags.writeable


def test_observed_moments_match_push_forward():
    rng = np.random.default_rng(5)
    a = random_ensemble(rng, m=5, d=2, p=2)
    rep = random_representation(rng, 2, 2)
    system = E.assemble_normal_equations(E.apply(rep, a))
    stacked = np.vstack([rep.target_map, rep.input_map])
    joint = E.push_forward(stacked, E.second_moment(a)).matrix
    r = rep.p_out
    assert system.target_energy == pytest.approx(np.trace(joint[:r, :r]), rel=1e-12)
    np.testing.assert_allclose(joint[:r, r:], system.cross, atol=1e-12)
    np.testing.assert_allclose(joint[r:, r:], system.gram, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["target_map", "input_map"])
def test_representation_rejects_nonfinite_maps(field, bad):
    maps = {"target_map": np.eye(2), "input_map": np.eye(2)}
    maps[field][1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        E.RepresentationOperator(**maps, d=1, p=2)


def test_norm_bound_dominates_factors():
    rng = np.random.default_rng(6)
    rep = random_representation(rng, 2, 3)
    target_norm = np.linalg.norm(rep.target_map, ord=2)
    input_norm = np.linalg.norm(rep.input_map, ord=2)
    assert rep.norm_bound >= target_norm - 1e-12
    assert rep.norm_bound >= input_norm - 1e-12
    # stacking cannot exceed the pythagorean combination either
    assert rep.norm_bound <= np.hypot(target_norm, input_norm) + 1e-12


def test_norm_bound_is_computed_on_first_use():
    # only cost_difference_bound reads it, so building an operator makes no SVD
    rep = random_representation(np.random.default_rng(7), 2, 3)
    assert "norm_bound" not in vars(rep)
    assert rep.norm_bound == vars(rep)["norm_bound"]


def test_truncate_shapes_and_bounds():
    rng = np.random.default_rng(7)
    a = random_ensemble(rng, m=5, d=2, p=4)
    rep = random_representation(rng, 2, 4, p_out=3, q=5)
    per_atom, _ = E.truncation_residual(rep, a, n_in=2, n_out=3)
    assert per_atom.shape == (5,)
    for n_in, n_out in ((0, 1), (5, 1), (1, 0), (1, 4)):
        with pytest.raises(E.ShapeMismatch):
            E.truncation_residual(rep, a, n_in=n_in, n_out=n_out)


def test_truncate_full_levels_reproduce_maps():
    # at full output levels the residual is both maps acting on the tail
    # of coefficients n_in.. of every component
    rng = np.random.default_rng(8)
    a = random_ensemble(rng, m=4, d=2, p=3)
    rep = random_representation(rng, 2, 3, p_out=3, q=3)
    for n_in in range(1, 4):
        tail = a.values.copy()
        tail[..., :n_in] = 0.0
        obs = E.apply(rep, E.SourceEnsemble(space=a.space, values=tail))
        per_atom, aggregate = E.truncation_residual(rep, a, n_in=n_in, n_out=3)
        expected = np.sqrt((obs.y**2).sum(axis=1) + (obs.x**2).sum(axis=1))
        np.testing.assert_allclose(per_atom, expected, rtol=1e-12)
        assert aggregate == pytest.approx(a.space.weights @ expected**2, rel=1e-12)


def test_project_coefficients_exact_zeros():
    # identity maps observe the dropped tail itself: exact ones past n_in,
    # exact zeros before it, so the residual is exact too
    values = np.ones((2, 2, 4))
    a = E.SourceEnsemble(space=E.MeasureSpace(weights=np.ones(2)), values=values)
    for n_in in range(1, 5):
        per_atom, aggregate = E.truncation_residual(_identity_rep(2, 4), a, n_in, 8)
        np.testing.assert_array_equal(per_atom, np.sqrt(4.0 * (4 - n_in)))
        assert aggregate == pytest.approx(8.0 * (4 - n_in), rel=1e-15)


def test_truncation_residual_zero_at_full_level():
    rng = np.random.default_rng(9)
    a = random_ensemble(rng, m=4, d=2, p=3)
    rep = random_representation(rng, 2, 3, p_out=4, q=4)
    per_atom, aggregate = E.truncation_residual(rep, a, n_in=3, n_out=4)
    assert aggregate == 0.0
    assert not per_atom.any()


def test_truncation_residual_zero_on_supported_ensemble():
    rng = np.random.default_rng(10)
    a = random_ensemble(rng, m=4, d=2, p=4)
    values = a.values.copy()
    values[..., 2:] = 0.0
    supported = E.SourceEnsemble(space=a.space, values=values)
    rep = random_representation(rng, 2, 4, p_out=3, q=3)
    _, aggregate = E.truncation_residual(rep, supported, n_in=2, n_out=3)
    assert aggregate == 0.0


def test_truncation_residual_monotone_for_coefficient_diagonal_maps():
    # when both maps act coefficient by coefficient, dropping a longer
    # tail can only shrink the observed error
    rng = np.random.default_rng(11)
    for _ in range(10):
        d, p = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        a = random_ensemble(rng, d=d, p=p)
        rep = coefficient_diagonal_representation(rng, d, p)
        n_out = min(rep.p_out, rep.q)
        aggs = [
            E.truncation_residual(rep, a, n, n_out)[1]
            for n in range(1, p + 1)
        ]
        for lo, hi in zip(aggs[1:], aggs[:-1]):
            assert lo <= hi + 1e-12 * (1.0 + aggs[0])
        assert aggs[-1] == 0.0


def test_green_apply_quadratic_exact():
    # -z'' = 1, z(0) = z(1) = 0 has z = x(1-x)/2; centered differences
    # are exact on quadratics
    n_x = 17
    nodes = np.arange(1, n_x) / n_x
    z = E.green_apply(n_x, 0.0, np.ones(n_x - 1))
    np.testing.assert_allclose(z, nodes * (1.0 - nodes) / 2.0, rtol=1e-12)


@pytest.mark.parametrize("n_x", [2, 3, 40])
@pytest.mark.parametrize("forcing", ["random", "constant", "zeros"])
def test_green_apply_matches_dense_solve(n_x, forcing):
    # a constant forcing takes the closed-form solution, any other the
    # two-FFT route; both against an independent dense solve
    potential = 2.3
    f = {
        "random": np.random.default_rng(12).standard_normal(n_x - 1),
        "constant": np.full(n_x - 1, -0.7),
        "zeros": np.zeros(n_x - 1),
    }[forcing]
    h = 1.0 / n_x
    main = np.full(n_x - 1, 2.0 / h**2 + potential)
    dense = np.diag(main) + np.diag(np.full(n_x - 2, -1.0 / h**2), 1)
    dense += np.diag(np.full(n_x - 2, -1.0 / h**2), -1)
    np.testing.assert_allclose(
        E.green_apply(n_x, potential, f), np.linalg.solve(dense, f), rtol=1e-10
    )


@pytest.mark.parametrize(
    "f, ffts",
    [
        (np.ones(99), 0),
        (np.zeros(99), 0),
        (np.full(99, -2.5), 0),
        (np.r_[np.ones(98), 1.0 + 1e-15], 2),
        (np.linspace(-1.0, 1.0, 99), 2),
    ],
    ids=["ones", "zeros", "negative", "last_entry_off", "ramp"],
)
def test_green_apply_ffts(monkeypatch, f, ffts):
    # a constant forcing is solved in closed form, with no FFT
    counts = count_calls(monkeypatch, np.fft, "rfft")
    E.green_apply(100, 0.4, f)
    assert counts == {"rfft": ffts}


@pytest.mark.parametrize("ell, ffts", [(None, 0), ("varying", 2)])
def test_elliptic_builder_ffts(monkeypatch, ell, ffts):
    n_x = 64
    if ell == "varying":
        ell = tuple(np.linspace(0.5, 1.5, n_x - 1))
    cfg = E.EllipticConfig(n_x=n_x, bump_width=0.1, bump_centers=(0.3, 0.7),
                           alphas=(1.0, 1.0), ell=ell)
    counts = count_calls(monkeypatch, np.fft, "rfft")
    E.build_elliptic_representation(cfg)
    assert counts == {"rfft": ffts}


@pytest.mark.parametrize("n_x", [2, 3, 4, 7, 16, 17, 99])
def test_dst1_matches_dense_sine_matrix(n_x):
    j = np.arange(1, n_x)
    sines = np.sin(np.pi * np.outer(j, j) / n_x)
    x = np.random.default_rng(n_x).standard_normal(n_x - 1)
    dense = sines @ x
    table = np.sin(np.pi * j / (2 * n_x))
    out = representation._dst1(np.concatenate([[0.0], x]), table)
    assert out[0] == 0.0
    np.testing.assert_allclose(
        out[1:n_x], dense, rtol=0, atol=1e-12 * np.abs(dense).max()
    )


# the accuracy sweep: {0} and 23 potentials from 1e-2 to 1e9, plus 1.3 and 50
_POTENTIALS = [0.0, 1.3, 50.0, *np.logspace(-2.0, 9.0, 23).tolist()]


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is plain double on this platform",
)
@pytest.mark.parametrize("potential", _POTENTIALS)
def test_green_apply_matches_exact_discrete_solution(potential):
    # unit forcing: x(1-x)/2 solves the difference equation exactly for
    # V = 0; for V > 0 the discrete solution is (1 - cosh(kappa (x - 1/2)) /
    # cosh(kappa / 2)) / V with 4 n^2 sinh^2(kappa / (2 n)) = V, evaluated
    # in long double, the cosh ratio written with decaying exponentials
    n_x = 100_000
    L = np.longdouble
    i = np.arange(1, n_x).astype(L)
    if potential == 0.0:
        exact = i / n_x * ((n_x - i) / n_x) / 2
    else:
        kappa = 2 * n_x * np.arcsinh(np.sqrt(L(potential)) / (2 * n_x))
        dist = np.abs(2 * i - n_x) / (2 * n_x)  # |x - 1/2|
        ratio = np.exp(kappa * (dist - L(0.5))) + np.exp(-kappa * (dist + L(0.5)))
        exact = (1 - ratio / (1 + np.exp(-kappa))) / L(potential)
    z = E.green_apply(n_x, potential, np.ones(n_x - 1))
    assert np.abs(z - exact).max() <= 1e-14 * np.abs(exact).max()


def _thomas(n_x, potential, c):
    """Exact rational solve of -z_{i-1} + (2 + V h^2) z_i - z_{i+1} = c h^2
    by Thomas elimination: V and c are binary floats, so exactly rational."""
    diag = 2 + Fraction(potential) / n_x**2
    rhs = Fraction(c) / n_x**2
    primes, ys = [], []
    for _ in range(n_x - 1):
        prev_c, prev_y = (primes[-1], ys[-1]) if primes else (Fraction(0), Fraction(0))
        denom = diag + prev_c
        primes.append(Fraction(-1) / denom)
        ys.append((rhs + prev_y) / denom)
    z = [ys[-1]]
    for cp, y in zip(primes[-2::-1], ys[-2::-1]):
        z.append(y - cp * z[-1])
    return np.array([float(v) for v in z[::-1]])


@pytest.mark.parametrize("n_x", [2, 3, 8, 64])
@pytest.mark.parametrize("potential", [0.0, 0.5, 2.3, 1e4])
def test_constant_forcing_matches_exact_rational_solve(n_x, potential):
    c = -0.7
    exact = _thomas(n_x, potential, c)
    z = E.green_apply(n_x, potential, np.full(n_x - 1, c))
    np.testing.assert_allclose(z, exact, rtol=1e-14, atol=0)


@pytest.mark.parametrize("potential", [0.0, 1.3, 50.0])
def test_constant_forcing_matches_the_transform_route(potential):
    # the closed form against the two DST-I transforms of the same
    # constant, run directly: (2 / n) DST(DST(f) / lam)
    n_x = 100_000
    k = np.arange(1, n_x)
    sines = np.sin(k * (np.pi / (2 * n_x)))
    lam = (2.0 * n_x * sines) ** 2 + potential
    buf = representation._dst1(np.r_[0.0, np.full(n_x - 1, 3.0)], sines)
    buf[1:n_x] /= lam
    via_transforms = representation._dst1(buf[:n_x], sines)[1:n_x] * (2.0 / n_x)
    z = E.green_apply(n_x, potential, np.full(n_x - 1, 3.0))
    assert np.abs(z - via_transforms).max() <= 1e-11 * np.abs(z).max()


@settings(max_examples=200, deadline=None)
@given(
    n_x=st.integers(2, 300),
    potential=st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)),
    c=st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)).map(
        lambda t: t[0] * 10.0 ** t[1]
    ),
)
def test_constant_forcing_is_finite_symmetric_and_linear(n_x, potential, c):
    z = E.green_apply(n_x, potential, np.full(n_x - 1, c))
    assert np.isfinite(z).all()
    assert np.array_equal(z, z[::-1])
    scaled = c * E.green_apply(n_x, potential, np.ones(n_x - 1))
    assert (np.abs(z - scaled) <= 2 * np.spacing(np.abs(scaled))).all()


@pytest.mark.parametrize("potential", [-1.0, float("nan")])
@pytest.mark.parametrize("f", [np.ones(15), np.linspace(-1.0, 1.0, 15)], ids=["constant", "ramp"])
def test_green_apply_refuses_a_negative_or_nan_potential(potential, f):
    with pytest.raises(ValueError, match="potential"):
        E.green_apply(16, potential, f)


def _full_grid_profile(n_x, width, center):
    """The component's profile on every interior node, by its definition."""
    if width is None:
        return np.ones(n_x - 1)
    s = (np.arange(1, n_x) / n_x - center) / width
    raw = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    raw[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return raw / (raw.sum() / n_x)


@pytest.mark.parametrize(
    "n_x, width, centers, varying_ell",
    [
        (1000, 0.1, (0.04, 0.5, 0.97), False),  # two bumps cut by the boundary
        (64, 0.1, (0.3, 0.7), False),
        (200, None, (0.5,), False),  # flat profile
        (333, 0.07, (0.2, 0.55, 0.8, 0.93), True),
        (50, None, (0.3, 0.6), True),
        (40, float("inf"), (0.5,), False),  # a bump as wide as the grid
    ],
)
def test_gains_match_per_component_definition(n_x, width, centers, varying_ell):
    nodes = np.arange(1, n_x) / n_x
    ell = tuple(np.cos(5.0 * nodes) + nodes**2) if varying_ell else None
    cfg = E.EllipticConfig(
        n_x=n_x,
        potential=1.7,
        bump_width=width,
        bump_centers=centers,
        alphas=(1.0,) * len(centers),
        ell=ell,
    )
    _, meta = E.build_elliptic_representation(cfg)
    observable = np.ones(n_x - 1) if ell is None else np.array(ell)
    for c, gain in zip(centers, meta["component_gains"]):
        profile = _full_grid_profile(n_x, width, c)
        support, _ = representation._source_profile(cfg, c)
        outside = np.ones(n_x - 1, dtype=bool)
        outside[support] = False
        assert not profile[outside].any()
        expected = E.green_apply(n_x, 1.7, profile) @ observable / n_x
        assert gain == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("d", [1, 4])
def test_elliptic_builder_solves_once(monkeypatch, d):
    # the default ell reads the closed form on each bump's support, with no
    # solve; an explicit ell takes one solve on the whole grid for every component
    counts = count_calls(monkeypatch, representation, "green_apply")
    cfg = E.EllipticConfig(
        n_x=128,
        bump_width=0.1,
        bump_centers=tuple(np.linspace(0.2, 0.8, d)),
        alphas=(1.0,) * d,
    )
    E.build_elliptic_representation(cfg)
    assert counts == {"green_apply": 0}
    E.build_elliptic_representation(replace(cfg, ell=tuple(np.linspace(0.5, 1.5, 127))))
    assert counts == {"green_apply": 1}
    # flat profiles all read the whole grid, so they share one solve
    E.build_elliptic_representation(replace(cfg, bump_width=None))
    assert counts == {"green_apply": 2}


@st.composite
def _bump_configs(draw):
    """Elliptic configs with 1-4 bumps, some within a width of 0 or 1."""
    width = 10.0 ** draw(st.floats(-3.0, 0.0))
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    near = st.one_of(unit, unit.map(lambda u: u * width), unit.map(lambda u: 1.0 - u * width))
    centers = draw(st.lists(near.filter(lambda c: 0.0 < c < 1.0), min_size=1, max_size=4))
    return E.EllipticConfig(
        n_x=draw(st.integers(2, 3000)),
        potential=draw(st.one_of(st.just(0.0), st.floats(-3.0, 9.0).map(lambda e: 10.0**e))),
        bump_width=width,
        bump_centers=tuple(centers),
        alphas=(1.0,) * len(centers),
    )


@settings(max_examples=300, deadline=None)
@given(cfg=_bump_configs())
def test_default_ell_gains_equal_the_full_grid_solve_bitwise(cfg):
    # the closed form read on each support against an explicit all-ones ell,
    # which green_apply solves on the whole grid
    ones = replace(cfg, ell=(1.0,) * (cfg.n_x - 1))
    try:
        _, meta = E.build_elliptic_representation(cfg)
    except E.BadConfig:  # a bump that misses every node
        with pytest.raises(E.BadConfig):
            E.build_elliptic_representation(ones)
        return
    _, full = E.build_elliptic_representation(ones)
    assert [g.hex() for g in meta["component_gains"]] == [
        g.hex() for g in full["component_gains"]
    ]


def test_mollifier_matches_the_masked_formula_bitwise():
    near = np.nextafter(1.0, 0.0)
    s = np.array([0.0, near, -near, 1.0, -1.0, 1.5, -1.5, 1e300, -1e300, 0.3, -0.999])
    masked = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    masked[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    assert representation._mollifier(s.copy()).tobytes() == masked.tobytes()


def test_default_ell_build_makes_no_grid_sized_array():
    n_x = 2_000_000
    cfg = E.EllipticConfig(n_x=n_x, potential=1.3, bump_width=0.005,
                           bump_centers=(0.2, 0.4, 0.6, 0.8), alphas=(1.0,) * 4)
    tracemalloc.start()
    try:
        E.build_elliptic_representation(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n_x


def test_green_functional_grid_limit():
    # <z, 1> with unit forcing tends to int x(1-x)/2 dx = 1/12 at
    # second order; the trapezoid defect h^2/12 makes it exact to
    # round-off after Richardson inspection, so just pin the order
    vals = {}
    for n_x in (16, 32, 64):
        ones = np.ones(n_x - 1)
        vals[n_x] = E.green_apply(n_x, 0.0, ones) @ ones / n_x
    err = {n: abs(v - 1.0 / 12.0) for n, v in vals.items()}
    order = np.log2(err[16] / err[32])
    assert order == pytest.approx(2.0, abs=0.05)


def test_elliptic_builder_shapes_and_gains():
    cfg = E.EllipticConfig(
        n_x=32,
        potential=0.5,
        bump_width=0.12,
        bump_centers=(0.3, 0.7),
        alphas=(1.0, 0.5),
        basis_dim=3,
    )
    rep, meta = E.build_elliptic_representation(cfg)
    assert rep.d == 2 and rep.p == 3
    assert rep.target_map.shape == (3, 6)
    gains = meta["component_gains"]
    np.testing.assert_allclose(rep.target_map[:, :3], gains[0] * np.eye(3))
    np.testing.assert_allclose(rep.input_map[:, 3:], 0.5 * np.eye(3))
    assert meta["grid_step"] == pytest.approx(1.0 / 32.0)


def test_elliptic_builder_zero_observable():
    cfg = E.EllipticConfig(n_x=8, ell=tuple(0.0 for _ in range(7)))
    rep, meta = E.build_elliptic_representation(cfg)
    assert not rep.target_map.any()
    assert meta["component_gains"] == [0.0]


def test_elliptic_config_validation():
    with pytest.raises(E.BadConfig):
        E.EllipticConfig(n_x=1)
    with pytest.raises(E.BadConfig):
        E.EllipticConfig(n_x=8, potential=-1.0)
    with pytest.raises(E.BadConfig):
        E.EllipticConfig(n_x=8, bump_width=0.0)
    with pytest.raises(E.BadConfig):
        E.EllipticConfig(n_x=8, bump_centers=(0.2, 0.8), alphas=(1.0,))
    with pytest.raises(E.BadConfig):
        E.EllipticConfig(n_x=8, bump_centers=(1.0,), alphas=(1.0,))
    with pytest.raises(E.BadConfig):
        E.EllipticConfig(n_x=8, basis_dim=0)
    with pytest.raises(E.BadConfig):
        E.EllipticConfig(n_x=8, ell=(1.0, 2.0))


def test_elliptic_config_rejects_nan():
    with pytest.raises(E.BadConfig):
        E.EllipticConfig(n_x=8, potential=float("nan"))
    with pytest.raises(E.BadConfig):
        E.EllipticConfig(n_x=8, bump_width=float("nan"))


def test_bump_profile_unit_mass():
    cfg = E.EllipticConfig(
        n_x=64, bump_width=0.1, bump_centers=(0.4,), alphas=(1.0,)
    )
    rep, meta = E.build_elliptic_representation(cfg)
    # gain of a unit-mass bump approaches the Green kernel column value,
    # so it must stay within the global bound max G = 1/8 paired with 1
    assert 0.0 < meta["component_gains"][0] < 0.126
