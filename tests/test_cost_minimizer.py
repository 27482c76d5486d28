import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envmm as E
from envmm.cost_minimizer import residual_map
from helpers import (
    baseline,
    contracted_ensemble,
    random_baseline,
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
    zero = np.zeros((rep.p_out, rep.q))
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
        E.cost(obs, np.zeros((2, 4)))


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
    # (2 sqrt 2)^2 rounds to 8.000000000000002, one ulp above 8
    np.testing.assert_array_max_ulp(sys.gram, np.array([[8.0]]), maxulp=1)
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


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31), near_max=st.booleans())
def test_assembled_gram_is_the_x_channel_second_moment(seed, near_max):
    # one kernel forms both, so they agree bit for bit and are exactly
    # symmetric with no symmetrize pass, up to a 1.5e308 diagonal entry
    rng = np.random.default_rng(seed)
    m, q = int(rng.integers(1, 12)), int(rng.integers(1, 7))
    space = random_space(rng, m)
    x = rng.standard_normal((m, q))
    if near_max:
        x[0, 0] = np.sqrt(1.5e308) / np.sqrt(space.weights[0])
    obs = E.ObservedEnsemble(space=space, y=rng.standard_normal((m, 2)), x=x)
    gram = E.assemble_normal_equations(obs).gram
    moment = E.second_moment(E.SourceEnsemble(space=space, values=x[:, None, :]))
    np.testing.assert_array_equal(gram, moment.matrix)
    np.testing.assert_array_equal(gram, gram.T)
    assert np.isfinite(gram).all()


def test_residual_norm_is_the_dense_optimality_gap():
    rng = np.random.default_rng(4)
    a = random_ensemble(rng, m=7, d=2, p=2)
    rep = random_representation(rng, 2, 2, p_out=2, q=3)
    obs = E.apply(rep, a)
    w = obs.space.weights
    gram = sum(wj * np.outer(xj, xj) for wj, xj in zip(w, obs.x))
    cross = sum(wj * np.outer(yj, xj) for wj, yj, xj in zip(w, obs.y, obs.x))
    sys = E.assemble_normal_equations(obs)
    t0 = E.solve_pseudoinverse(sys)
    est = t0 + rng.standard_normal(t0.shape)
    dense = np.sqrt(((est @ gram - cross) ** 2).sum())
    assert dense > 1e-3
    assert E.residual_norm(sys, est) == pytest.approx(dense, rel=1e-12)


def _reweighted(obs, rows, weights):
    """The atoms obs lists at rows (repeats allowed), at the given weights."""
    return E.ObservedEnsemble(
        space=E.MeasureSpace(weights=weights), y=obs.y[rows], x=obs.x[rows]
    )


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31),
    column_scale=st.sampled_from([1.0, 1e-7, 0.0]),
)
def test_assembly_does_not_depend_on_atom_order_or_splitting(seed, column_scale):
    # only second moments enter, so permuting the atoms or splitting one into
    # two copies at half its weight moves the system by round-off and no
    # verdict; a 1e-7 input column leaves cross outside the retained Gram
    # range (NoMinimizer), a zero one adds a kernel direction; m < q does too
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 25))
    p_out, q = int(rng.integers(1, 5)), int(rng.integers(1, 7))
    x = rng.standard_normal((m, q))
    x[:, 0] *= column_scale
    obs = E.ObservedEnsemble(
        space=random_space(rng, m), y=rng.standard_normal((m, p_out)), x=x
    )
    whole = E.assemble_normal_equations(obs)

    w = obs.space.weights
    scaled = obs.x * np.sqrt(w)[:, None]
    np.testing.assert_array_equal(whole.gram, scaled.T @ scaled)
    np.testing.assert_array_equal(whole.cross, (obs.y * w[:, None]).T @ obs.x)
    assert whole.target_energy == float(np.einsum("j,jk,jk->", w, obs.y, obs.y))

    perm = rng.permutation(m)
    split = int(rng.integers(m))
    halved = w.copy()
    halved[split] *= 0.5
    rows = np.insert(np.arange(m), split, split)
    variants = (
        _reweighted(obs, perm, w[perm]),
        _reweighted(obs, rows, halved[rows]),
    )
    one = E.solution_set(whole)
    for variant in variants:
        moved = E.assemble_normal_equations(variant)
        for got, ref in ((moved.gram, whole.gram), (moved.cross, whole.cross)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert moved.target_energy == pytest.approx(whole.target_energy, rel=1e-13)

        other = E.solution_set(moved)
        assert isinstance(one, E.NoMinimizer) == isinstance(other, E.NoMinimizer)
        if not isinstance(one, E.NoMinimizer):
            assert one.unique == other.unique
            assert one.kernel_basis.shape == other.kernel_basis.shape


def test_normal_equation_system_holds_read_only_views():
    gram = np.diag([2.0, 4.0])
    cross = np.array([[2.0, 4.0]])
    sys = E.NormalEquationSystem(gram=gram, cross=cross, target_energy=1.0)
    assert np.shares_memory(sys.gram, gram) and np.shares_memory(sys.cross, cross)
    assert not sys.gram.flags.writeable and not sys.cross.flags.writeable
    assert gram.flags.writeable and cross.flags.writeable


def test_normal_equation_system_rejects_negative_energy():
    with pytest.raises(ValueError, match="nonnegative"):
        _system(np.eye(2), np.ones((1, 2)), energy=-1.0)


def _assert_coercive_solution(sys):
    """On a coercive system the solution set is one point, within the
    a-priori bound ||cross||_F / lambda_min(gram), and solves the normal
    equations."""
    out = E.solution_set(sys)
    cross_norm = np.linalg.norm(sys.cross, "fro")
    assert out.unique and out.kernel_basis.shape[0] == 0
    assert out.hs_norm <= cross_norm / np.linalg.eigvalsh(sys.gram)[0] + 1e-12
    assert E.residual_norm(sys, out.t0) <= 1e-8 * (1.0 + cross_norm)
    return out


def test_solve_coercive_diagonal():
    out = _assert_coercive_solution(_system(np.diag([2.0, 4.0]), [[2.0, 4.0]]))
    np.testing.assert_allclose(out.t0, [[1.0, 1.0]], atol=1e-14)


def test_solve_coercive_apriori_bound():
    rng = np.random.default_rng(4)
    for _ in range(20):
        q = int(rng.integers(1, 6))
        root = rng.standard_normal((q + 2, q))
        gram = root.T @ root + 0.5 * np.eye(q)
        _assert_coercive_solution(_system(gram, rng.standard_normal((3, q))))


def test_pseudoinverse_consistent_rank_deficient():
    # gram annihilates e2; cross stays inside the range
    sys = _system(np.diag([1.0, 0.0]), [[2.0, 0.0]])
    est = E.solve_pseudoinverse(sys)
    assert isinstance(est, np.ndarray)
    np.testing.assert_allclose(est, [[2.0, 0.0]], atol=1e-14)


@pytest.mark.parametrize("eps, minimizer", [(1e-6, False), (1e-10, True)])
def test_pseudoinverse_consistency_threshold(eps, minimizer):
    # the out-of-range part of cross is exactly eps against ||cross||_F ~ 1,
    # on either side of the CONSISTENCY_RTOL = 1e-8 threshold
    out = E.solve_pseudoinverse(_system(np.diag([1.0, 0.0]), [[1.0, eps]]))
    if minimizer:
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, [[1.0, 0.0]])
    else:
        assert isinstance(out, E.NoMinimizer)
        assert out.range_violation == eps


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
    for cross, typed in ((inside, np.ndarray), (outside, E.NoMinimizer)):
        unit = E.solve_pseudoinverse(_system(gram, cross, energy=0.0))
        scaled = E.solve_pseudoinverse(
            _system(gram * scale, cross * scale, energy=0.0)
        )
        assert isinstance(unit, typed)
        assert isinstance(scaled, typed)


def test_pseudoinverse_zero_system():
    sys = _system(np.zeros((2, 2)), np.zeros((1, 2)), energy=0.0)
    est = E.solve_pseudoinverse(sys)
    assert isinstance(est, np.ndarray)
    assert not est.any()


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
        other = t0 + shift @ sol.kernel_basis
        assert np.linalg.norm(other, "fro") >= sol.hs_norm - 1e-12
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
    assert isinstance(est, np.ndarray)
    base = E.cost(obs, est)
    for _ in range(50):
        probe = est + 1e-3 * rng.standard_normal(est.shape)
        assert E.cost(obs, probe) >= base - 1e-12 * (1.0 + base)


def test_cost_decomposed_matches_realized():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        a = random_ensemble(rng)
        spec = random_baseline(rng, a.d * a.p)
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
    spec = random_baseline(rng, 3)
    est = target
    split = E.cost_decomposed(a, spec, rep, est)
    assert split.total == pytest.approx(0.0, abs=1e-20)


def test_cost_decomposed_no_baseline():
    rng = np.random.default_rng(9)
    a = random_ensemble(rng, m=3, d=1, p=2)
    spec = baseline(np.zeros((2, 2)))
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
        spec = baseline(np.zeros((4, 4)))
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
    est = np.array([[1.0]])
    spec = baseline(np.zeros((1, 1)))
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
    spec = baseline(np.zeros((a1.d * a1.p,) * 2))
    h1 = E.cost_decomposed(a1, spec, rep, est).source_part
    h2 = E.cost_decomposed(a2, spec, rep, est).source_part
    assert abs(h1 - h2) <= E.cost_difference_bound(a1, a2, rep, est)


@pytest.mark.parametrize("shape", [(3,), (1, 2, 2, 3), (3, 2), (5, 2, 4)])
def test_residual_map_refuses_an_estimator_of_another_shape(shape):
    # one estimator is (p_out, q) = (2, 3) and a stack (E, 2, 3); a 4-d
    # array ending in (2, 3) is neither
    rep = random_representation(np.random.default_rng(12), 1, 3, p_out=2, q=3)
    with pytest.raises(E.ShapeMismatch):
        residual_map(baseline(np.eye(3)), rep, np.zeros(shape))


def test_solution_set_unique_follows_the_kernel_basis():
    for k in range(3):
        sol = E.SolutionSet(t0=np.ones((2, 3)), kernel_basis=np.eye(3)[:k])
        assert sol.unique == (k == 0)
    sol = E.solution_set(_system(np.diag([2.0, 1.0, 0.0]), [[1.0, 1.0, 0.0]]))
    assert sol.kernel_basis.shape == (1, 3) and not sol.unique
