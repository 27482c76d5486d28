import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envmm as E
from helpers import baseline, random_ensemble, random_space


def test_single_atom_outer_product():
    space = E.MeasureSpace(weights=np.array([1.0]))
    ens = E.SourceEnsemble(space=space, values=np.array([[[1.0, 2.0]]]))
    cov = E.second_moment(ens)
    np.testing.assert_array_equal(cov.matrix, [[1.0, 2.0], [2.0, 4.0]])


def test_two_atoms_diagonal():
    space = E.MeasureSpace(weights=np.array([0.5, 0.5]))
    ens = E.SourceEnsemble(
        space=space, values=np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    )
    cov = E.second_moment(ens)
    np.testing.assert_allclose(cov.matrix, np.diag([0.5, 0.5]), atol=1e-15)


def test_second_moment_zero_ensemble():
    ens = E.SourceEnsemble(
        space=E.MeasureSpace(weights=np.ones(3)), values=np.zeros((3, 2, 2))
    )
    assert not E.second_moment(ens).matrix.any()


def test_component_major_flattening():
    # two components, two coefficients: (i, k) -> slot i*p + k
    space = E.MeasureSpace(weights=np.array([1.0]))
    ens = E.SourceEnsemble(
        space=space, values=np.array([[[1.0, 2.0], [3.0, 4.0]]])
    )
    np.testing.assert_array_equal(ens.flat_values[0], [1.0, 2.0, 3.0, 4.0])


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        E.MeasureSpace(weights=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        E.MeasureSpace(weights=np.array([-0.5]))


def test_empty_space_rejected():
    with pytest.raises(E.ShapeMismatch):
        E.MeasureSpace(weights=np.zeros(0))


def test_value_shape_checked_against_space():
    space = E.MeasureSpace(weights=np.ones(2))
    with pytest.raises(E.ShapeMismatch):
        E.SourceEnsemble(space=space, values=np.zeros((3, 1, 1)))


@settings(deadline=None, max_examples=40)
@given(
    m=st.integers(1, 6),
    d=st.integers(1, 3),
    p=st.integers(1, 4),
    c=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**31),
)
def test_second_moment_scales_quadratically(m, d, p, c, seed):
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng, m=m, d=d, p=p)
    scaled = E.SourceEnsemble(space=ens.space, values=c * ens.values)
    np.testing.assert_allclose(
        E.second_moment(scaled).matrix,
        c * c * E.second_moment(ens).matrix,
        atol=1e-10,
    )


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31))
def test_second_moment_symmetric_psd(seed):
    rng = np.random.default_rng(seed)
    cov = E.second_moment(random_ensemble(rng)).matrix
    np.testing.assert_allclose(cov, cov.T, atol=1e-12)
    assert np.linalg.eigvalsh(cov).min() >= -1e-10 * max(1.0, abs(cov).max())


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31), near_max=st.booleans())
def test_second_moment_is_exactly_symmetric_without_a_symmetrize_pass(seed, near_max):
    # one syrk forms it, exactly symmetric as it stands; near_max puts the
    # first diagonal entry at 1.5e308, which a pass 0.5 (m + m^T) would
    # first double past the float range
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng)
    if near_max:
        values = ens.values.copy()
        values[0, 0, 0] = np.sqrt(1.5e308) / np.sqrt(ens.space.weights[0])
        ens = E.SourceEnsemble(space=ens.space, values=values)
    cov = E.second_moment(ens).matrix
    np.testing.assert_array_equal(cov, cov.T)
    assert np.isfinite(cov).all()
    if near_max:
        assert cov[0, 0] == pytest.approx(1.5e308, rel=1e-12)


def test_cross_moment_single_atom():
    space = E.MeasureSpace(weights=np.array([1.0]))
    a = E.SourceEnsemble(space=space, values=np.array([[[1.0, 0.0]]]))
    x = E.SourceEnsemble(space=space, values=np.array([[[0.0, 1.0]]]))
    np.testing.assert_array_equal(E.cross_moment(a, x), [[0.0, 1.0], [0.0, 0.0]])


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31))
def test_cross_moment_transpose_identity(seed):
    rng = np.random.default_rng(seed)
    a = random_ensemble(rng)
    b = E.SourceEnsemble(
        space=a.space,
        values=rng.standard_normal(a.values.shape),
    )
    np.testing.assert_allclose(
        E.cross_moment(a, b), E.cross_moment(b, a).T, atol=1e-12
    )


def test_cross_moment_requires_shared_space():
    rng = np.random.default_rng(0)
    a = random_ensemble(rng, m=3, d=1, p=2)
    b = random_ensemble(rng, m=4, d=1, p=2)
    with pytest.raises(E.ShapeMismatch):
        E.cross_moment(a, b)


def test_ensemble_norm_and_distance():
    space = E.MeasureSpace(weights=np.array([2.0]))
    a = E.SourceEnsemble(space=space, values=np.array([[[3.0, 4.0]]]))
    assert E.ensemble_norm(a) == pytest.approx(np.sqrt(2.0) * 5.0)
    assert E.ensemble_distance(a, a) == 0.0
    zero = E.SourceEnsemble(space=space, values=np.zeros((1, 1, 2)))
    assert E.ensemble_distance(a, zero) == pytest.approx(E.ensemble_norm(a))


def test_baseline_spec_rejects_asymmetric():
    with pytest.raises(ValueError):
        baseline([[1.0, 0.5], [0.0, 1.0]])


def test_baseline_spec_rejects_indefinite():
    with pytest.raises(E.DegenerateSpec):
        baseline([[1.0, 0.0], [0.0, -0.2]])


def test_baseline_spec_accepts_zero():
    spec = baseline(np.zeros((3, 3)))
    assert spec.dim == 3 and (spec.d, spec.p) == (1, 3)


def test_same_as_identifies_shared_space():
    rng = np.random.default_rng(9)
    s = random_space(rng, 4)
    t = E.MeasureSpace(weights=s.weights.copy())
    assert s.same_as(t)
    u = E.MeasureSpace(weights=s.weights * 1.5)
    assert not s.same_as(u)
