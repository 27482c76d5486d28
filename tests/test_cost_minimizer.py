import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envmm as E
from helpers import (
    contracted_ensemble,
    random_baseline_spec,
    random_ensemble,
    random_estimator,
    random_representation,
    random_space,
)


def _system(gram, cross, energy=10.0):
    return E.NormalEquationSystem(
        gram=np.asarray(gram, dtype=float),
        cross=np.asarray(cross, dtype=float),
        target_energy=energy,
    )


def test_cost_zero_estimator_is_target_energy():
    rng = np.random.default_rng(1)
    a = random_ensemble(rng, m=4, d=2, p=2)
    rep = random_representation(rng, 2, 2)
    obs = E.apply(rep, a)
    zero = E.HSOperator(coeffs=np.zeros((rep.p_out, rep.q)))
    expected = float(
        np.einsum("j,jk,jk->", obs.space.weights, obs.y, obs.y)
    )
    assert E.cost(obs, zero) == pytest.approx(expected)


def test_cost_shape_guard():
    rng = np.random.default_rng(2)
    a = random_ensemble(rng, m=3, d=1, p=2)
    rep = random_representation(rng, 1, 2, p_out=2, q=3)
    obs = E.apply(rep, a)
    with pytest.raises(E.ShapeMismatch):
        E.cost(obs, E.HSOperator(coeffs=np.zeros((2, 4))))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31))
def test_cost_agrees_with_assembled_quadratic(seed):
    rng = np.random.default_rng(seed)
    a = random_ensemble(rng)
    rep = random_representation(rng, a.d, a.p)
    obs = E.apply(rep, a)
    sys = E.assemble_normal_equations(obs)
    est = random_estimator(rng, rep)
    direct = E.cost(obs, est)
    assert E.system_cost(sys, est) == pytest.approx(
        direct, abs=1e-10 * (1.0 + direct)
    )


def test_assemble_single_atom():
    space = E.MeasureSpace(weights=np.array([2.0]))
    obs = E.ObservedEnsemble(
        space=space, y=np.array([[1.0, 3.0]]), x=np.array([[2.0]])
    )
    sys = E.assemble_normal_equations(obs)
    np.testing.assert_array_equal(sys.gram, [[8.0]])
    np.testing.assert_array_equal(sys.cross, [[4.0], [12.0]])
    assert sys.target_energy == pytest.approx(20.0)


def test_assemble_matches_observed_moments():
    rng = np.random.default_rng(3)
    a = random_ensemble(rng, m=6, d=2, p=3)
    rep = random_representation(rng, 2, 3)
    obs = E.apply(rep, a)
    w = obs.space.weights
    kyy = sum(wj * np.outer(yj, yj) for wj, yj in zip(w, obs.y))
    kyx = sum(wj * np.outer(yj, xj) for wj, yj, xj in zip(w, obs.y, obs.x))
    kxx = sum(wj * np.outer(xj, xj) for wj, xj in zip(w, obs.x))
    sys = E.assemble_normal_equations(obs)
    np.testing.assert_allclose(sys.gram, kxx, atol=1e-12)
    np.testing.assert_allclose(sys.cross, kyx, atol=1e-12)
    assert sys.target_energy == pytest.approx(np.trace(kyy))


def _chunked(obs, cuts):
    """obs split at the sorted row indices cuts into consecutive ensembles."""
    bounds = [0, *cuts, obs.space.m]
    return [
        E.ObservedEnsemble(
            space=E.MeasureSpace(weights=obs.space.weights[lo:hi]),
            y=obs.y[lo:hi],
            x=obs.x[lo:hi],
        )
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31),
    column_scale=st.sampled_from([1.0, 1e-7, 0.0]),
)
def test_assembly_does_not_depend_on_atom_grouping(seed, column_scale):
    # a 1e-7 input column leaves cross outside the retained Gram range
    # (NoMinimizer), a zero one adds a kernel direction; m < q does too
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 25))
    p_out, q = int(rng.integers(1, 5)), int(rng.integers(1, 7))
    x = rng.standard_normal((m, q))
    x[:, 0] *= column_scale
    obs = E.ObservedEnsemble(
        space=random_space(rng, m), y=rng.standard_normal((m, p_out)), x=x
    )
    n_cuts = int(rng.integers(1, m))
    cuts = np.sort(rng.choice(np.arange(1, m), size=n_cuts, replace=False))
    whole = E.assemble_normal_equations(obs)
    chunked = E.assemble_normal_equations(iter(_chunked(obs, cuts.tolist())))

    w = obs.space.weights
    gram = (obs.x * w[:, None]).T @ obs.x
    np.testing.assert_array_equal(whole.gram, 0.5 * (gram + gram.T))
    np.testing.assert_array_equal(whole.cross, (obs.y * w[:, None]).T @ obs.x)
    assert whole.target_energy == float(np.einsum("j,jk,jk->", w, obs.y, obs.y))

    for got, ref in ((chunked.gram, whole.gram), (chunked.cross, whole.cross)):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert chunked.target_energy == pytest.approx(whole.target_energy, rel=1e-13)

    one, many = E.solution_set(whole), E.solution_set(chunked)
    assert isinstance(one, E.NoMinimizer) == isinstance(many, E.NoMinimizer)
    if not isinstance(one, E.NoMinimizer):
        assert one.unique == many.unique
        assert one.kernel_basis.shape == many.kernel_basis.shape


def test_assembly_rejects_mismatched_or_missing_chunks():
    space = E.MeasureSpace(weights=np.ones(2))
    a = E.ObservedEnsemble(space=space, y=np.ones((2, 1)), x=np.ones((2, 2)))
    b = E.ObservedEnsemble(space=space, y=np.ones((2, 1)), x=np.ones((2, 1)))
    with pytest.raises(E.ShapeMismatch):
        E.assemble_normal_equations([a, b])
    with pytest.raises(E.ShapeMismatch):
        E.assemble_normal_equations([])


def test_solve_coercive_diagonal():
    sys = _system(np.diag([2.0, 4.0]), [[2.0, 4.0]])
    est = E.solve_coercive(sys, c_min=1.0)
    np.testing.assert_allclose(est.coeffs, [[1.0, 1.0]], atol=1e-14)


def test_solve_coercive_rejects_thin_spectrum():
    sys = _system(np.diag([1.0, 1e-15]), [[1.0, 0.0]])
    with pytest.raises(E.NotCoercive):
        E.solve_coercive(sys, c_min=0.5)
    for c_min in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            E.solve_coercive(sys, c_min=c_min)


def test_solve_coercive_apriori_bound():
    rng = np.random.default_rng(4)
    for _ in range(20):
        q = int(rng.integers(1, 6))
        root = rng.standard_normal((q + 2, q))
        gram = root.T @ root + 0.5 * np.eye(q)
        cross = rng.standard_normal((3, q))
        sys = _system(gram, cross)
        est = E.solve_coercive(sys, c_min=0.5)
        assert est.hs_norm <= np.linalg.norm(cross, "fro") / 0.5 + 1e-12
        assert E.residual_norm(sys, est) <= 1e-8 * (
            1.0 + np.linalg.norm(cross, "fro")
        )


def test_pseudoinverse_consistent_rank_deficient():
    # gram annihilates e2; cross stays inside the range
    sys = _system(np.diag([1.0, 0.0]), [[2.0, 0.0]])
    est = E.solve_pseudoinverse(sys)
    assert isinstance(est, E.HSOperator)
    np.testing.assert_allclose(est.coeffs, [[2.0, 0.0]], atol=1e-14)


def test_pseudoinverse_detects_out_of_range():
    sys = _system(np.diag([1.0, 0.0]), [[2.0, 3.0]])
    out = E.solve_pseudoinverse(sys)
    assert isinstance(out, E.NoMinimizer)
    assert out.range_violation == pytest.approx(3.0)


@settings(deadline=None, max_examples=60)
@given(exponent=st.integers(-8, 8), seed=st.integers(0, 2**31))
def test_pseudoinverse_verdict_is_scale_invariant(exponent, seed):
    scale = 10.0**exponent
    # gram annihilates e2 and cross leaves its range: never a minimizer
    sys = _system(
        np.diag([1.0, 0.0]) * scale**2, np.array([[1.0, 1.0]]) * scale**2, energy=0.0
    )
    out = E.solve_pseudoinverse(sys)
    assert isinstance(out, E.NoMinimizer)
    assert out.range_violation == pytest.approx(scale**2)
    # a random rank-deficient system keeps its verdict under rescaling
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((2, 4))
    gram = root.T @ root
    inside = rng.standard_normal((3, 2)) @ root
    outside = inside + rng.standard_normal((3, 4))
    for cross, typed in ((inside, E.HSOperator), (outside, E.NoMinimizer)):
        unit = E.solve_pseudoinverse(_system(gram, cross, energy=0.0))
        scaled = E.solve_pseudoinverse(
            _system(gram * scale, cross * scale, energy=0.0)
        )
        assert isinstance(unit, typed)
        assert isinstance(scaled, typed)


def test_pseudoinverse_zero_system():
    sys = _system(np.zeros((2, 2)), np.zeros((1, 2)), energy=0.0)
    est = E.solve_pseudoinverse(sys)
    assert isinstance(est, E.HSOperator)
    assert est.hs_norm == 0.0


def test_pseudoinverse_minimal_norm():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q, r, rows = 5, 3, 2
        root = rng.standard_normal((r, q))
        gram = root.T @ root
        coeff = rng.standard_normal((rows, r))
        cross = coeff @ root @ gram  # rows guaranteed inside ran(gram)
        sys = _system(gram, cross, energy=50.0)
        sol = E.solution_set(sys)
        assert isinstance(sol, E.SolutionSet)
        assert not sol.unique
        t0 = sol.t0
        assert E.residual_norm(sys, t0) <= 1e-8 * (
            1.0 + np.linalg.norm(cross, "fro")
        )
        shift = rng.standard_normal((rows, sol.kernel_basis.shape[0]))
        other = E.HSOperator(coeffs=t0.coeffs + shift @ sol.kernel_basis)
        assert other.hs_norm >= t0.hs_norm - 1e-12
        # cost is flat along the kernel
        c0, c1 = E.system_cost(sys, t0), E.system_cost(sys, other)
        assert abs(c1 - c0) <= 1e-10 * (1.0 + abs(c0))


def test_solution_set_unique_when_full_rank():
    sys = _system(np.diag([2.0, 3.0]), [[1.0, 1.0]])
    sol = E.solution_set(sys)
    assert sol.unique
    assert sol.kernel_basis.shape == (0, 2)


def test_local_minimality_probes():
    rng = np.random.default_rng(6)
    a = random_ensemble(rng, m=8, d=2, p=2)
    rep = random_representation(rng, 2, 2, p_out=3, q=3)
    obs = E.apply(rep, a)
    sys = E.assemble_normal_equations(obs)
    est = E.solve_pseudoinverse(sys)
    assert isinstance(est, E.HSOperator)
    base = E.cost(obs, est)
    for _ in range(50):
        delta = rng.standard_normal(est.coeffs.shape)
        probe = E.HSOperator(coeffs=est.coeffs + 1e-3 * delta)
        assert E.cost(obs, probe) >= base - 1e-12 * (1.0 + base)


def test_cost_decomposed_matches_realized():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        a = random_ensemble(rng)
        spec = random_baseline_spec(rng, a.d * a.p)
        rep = random_representation(rng, a.d, a.p)
        est = random_estimator(rng, rep)
        lifted, xi = E.fit_baseline(a, spec, seed=int(rng.integers(1 << 30)))
        realized = E.cost(E.apply(rep, lifted, xi), est)
        split = E.cost_decomposed(a, spec, rep, est)
        assert split.total == pytest.approx(
            split.source_part + split.baseline_part
        )
        worst = max(worst, abs(split.total - realized) / (1.0 + realized))
    assert worst <= 1e-11


def test_cost_decomposed_zero_residual_map():
    # choose T with T input_map = target_map so W vanishes identically
    rng = np.random.default_rng(8)
    a = random_ensemble(rng, m=4, d=1, p=3)
    target = rng.standard_normal((2, 3))
    rep = E.RepresentationOperator(
        target_map=target, input_map=np.eye(3), d=1, p=3
    )
    spec = random_baseline_spec(rng, 3)
    est = E.HSOperator(coeffs=target)
    split = E.cost_decomposed(a, spec, rep, est)
    assert split.total == pytest.approx(0.0, abs=1e-20)


def test_cost_decomposed_no_baseline():
    rng = np.random.default_rng(9)
    a = random_ensemble(rng, m=3, d=1, p=2)
    spec = E.BaselineSpec(sigma_xi=np.zeros((2, 2)))
    rep = random_representation(rng, 1, 2)
    est = random_estimator(rng, rep)
    split = E.cost_decomposed(a, spec, rep, est)
    assert split.baseline_part == 0.0
    assert split.total == split.source_part


def test_source_part_monotone_under_domination():
    # tr(W S W^T) respects the semidefinite order of S
    rng = np.random.default_rng(10)
    spec0 = None
    for _ in range(30):
        a = random_ensemble(rng, d=2, p=2)
        b = contracted_ensemble(rng, a)
        spec = E.BaselineSpec(sigma_xi=np.zeros((4, 4)))
        rep = random_representation(rng, 2, 2)
        est = random_estimator(rng, rep)
        ha = E.cost_decomposed(a, spec, rep, est).source_part
        hb = E.cost_decomposed(b, spec, rep, est).source_part
        assert hb <= ha + 1e-9 * (1.0 + ha)


def test_coercivity_margin_and_spectrum():
    sys = _system(np.diag([3.0, 1.0]), [[0.0, 0.0]])
    assert E.coercivity_margin(sys) == pytest.approx(1.0)
    np.testing.assert_allclose(E.gram_spectrum(sys), [1.0, 3.0])


def test_difference_bound_zero_for_identical_ensembles():
    rng = np.random.default_rng(11)
    a = random_ensemble(rng, m=3, d=1, p=2)
    rep = random_representation(rng, 1, 2)
    est = random_estimator(rng, rep)
    assert E.cost_difference_bound(a, a, rep, est) == 0.0


def test_difference_bound_sign_cancellation_case():
    # opposite-sign scalar maps: the joint norm must absorb the case
    # where target and input energies add instead of cancel
    space = E.MeasureSpace(weights=np.array([1.0]))
    a1 = E.SourceEnsemble(space=space, values=np.array([[[1.0]]]))
    a2 = E.SourceEnsemble(space=space, values=np.array([[[0.0]]]))
    rep = E.RepresentationOperator(
        target_map=np.array([[1.0]]),
        input_map=np.array([[-1.0]]),
        d=1,
        p=1,
    )
    est = E.HSOperator(coeffs=np.array([[1.0]]))
    spec = E.BaselineSpec(sigma_xi=np.zeros((1, 1)))
    h1 = E.cost_decomposed(a1, spec, rep, est).source_part
    h2 = E.cost_decomposed(a2, spec, rep, est).source_part
    gap = abs(h1 - h2)
    assert gap == pytest.approx(4.0)
    assert gap <= E.cost_difference_bound(a1, a2, rep, est)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31))
def test_difference_bound_holds_generically(seed):
    rng = np.random.default_rng(seed)
    a1 = random_ensemble(rng)
    a2 = E.SourceEnsemble(
        space=a1.space,
        values=a1.values + 0.5 * rng.standard_normal(a1.values.shape),
    )
    rep = random_representation(rng, a1.d, a1.p)
    est = random_estimator(rng, rep, scale=float(rng.uniform(0.1, 3.0)))
    spec = E.BaselineSpec(sigma_xi=np.zeros((a1.d * a1.p,) * 2))
    h1 = E.cost_decomposed(a1, spec, rep, est).source_part
    h2 = E.cost_decomposed(a2, spec, rep, est).source_part
    assert abs(h1 - h2) <= E.cost_difference_bound(a1, a2, rep, est)
