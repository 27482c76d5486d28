import numpy as np
import pytest

import envmm as E
from helpers import contracted_ensemble, random_ensemble, random_psd


def _cov(matrix, d, p):
    return E.BlockCovariance(matrix=np.asarray(matrix, dtype=float), d=d, p=p)


def test_dominates_scalar_shrink():
    big = _cov(np.eye(2), 1, 2)
    small = _cov(0.5 * np.eye(2), 1, 2)
    ok, margin = E.loewner_dominates(big, small)
    assert ok
    assert margin == pytest.approx(0.5)


def test_incomparable_pair():
    a = _cov(np.diag([1.0, 0.0]), 1, 2)
    b = _cov(np.diag([0.0, 1.0]), 1, 2)
    ok, margin = E.loewner_dominates(a, b)
    assert not ok
    assert margin == pytest.approx(-1.0)


def test_self_domination_margin_zero():
    rng = np.random.default_rng(3)
    cov = _cov(random_psd(rng, 6), 2, 3)
    ok, margin = E.loewner_dominates(cov, cov)
    assert ok
    assert abs(margin) <= 1e-12


def test_construction_rejects_asymmetric():
    with pytest.raises(ValueError):
        _cov([[0.0, 1.0], [0.0, 0.0]], 1, 2)


@pytest.mark.parametrize(
    "matrix, accepted",
    [
        (np.diag([1.0, -0.5e-10]), True),
        (np.diag([1.0, -2e-10]), False),
        (1e6 * np.diag([1.0, -0.5e-10]), True),
        (1e6 * np.diag([1.0, -2e-10]), False),
        (np.array([[1.0, 0.3], [0.3 + 0.5e-12, 1.0]]), True),
        (np.array([[1.0, 0.3], [0.3 + 2e-12, 1.0]]), False),
    ],
)
def test_block_covariance_and_baseline_spec_share_one_rule(matrix, accepted):
    builders = [
        lambda: _cov(matrix, 1, 2),
        lambda: E.BaselineSpec(sigma_xi=matrix),
    ]
    for build in builders:
        if accepted:
            build()
        else:
            with pytest.raises(E.DegenerateSpec):
                build()


def test_construction_rejects_indefinite():
    with pytest.raises(ValueError):
        _cov([[1.0, 0.0], [0.0, -1.0]], 1, 2)


def test_dimension_consistency():
    with pytest.raises(E.ShapeMismatch):
        _cov(np.eye(3), 1, 2)


def test_push_forward_identity():
    rng = np.random.default_rng(2)
    cov = _cov(random_psd(rng, 4), 2, 2)
    out = E.push_forward(np.eye(4), cov)
    np.testing.assert_allclose(out.matrix, cov.matrix, atol=1e-14)
    assert out.d == 1 and out.p == 4


def test_push_forward_composes():
    rng = np.random.default_rng(4)
    cov = _cov(random_psd(rng, 5), 1, 5)
    l1 = rng.standard_normal((3, 5))
    l2 = rng.standard_normal((2, 3))
    direct = E.push_forward(l2 @ l1, cov)
    staged = E.push_forward(l2, E.push_forward(l1, cov))
    np.testing.assert_allclose(staged.matrix, direct.matrix, atol=1e-12)


def test_push_forward_preserves_order():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = random_ensemble(rng, m=6, d=2, p=3)
        b = contracted_ensemble(rng, a)
        big = E.second_moment(a)
        small = E.second_moment(b)
        lmap = rng.standard_normal((4, 6))
        ok, margin = E.loewner_dominates(
            E.push_forward(lmap, big), E.push_forward(lmap, small), tol=1e-8
        )
        assert ok, margin


def test_dense_subset_separates_from_domination():
    # a probe family that misses a direction can pass where the full
    # semidefinite order fails; the reported rank exposes the gap
    a = _cov(np.diag([1.0, 0.0]), 1, 2)
    b = _cov(np.diag([0.0, 5.0]), 1, 2)
    probes = np.array([[1.0, 0.0]])
    ok, rank = E.dense_subset_check(a, b, probes)
    assert ok and rank == 1
    assert not E.loewner_dominates(a, b)[0]


def test_dense_subset_check_full_rank_detects_defect():
    a = _cov(np.diag([1.0, 0.0]), 1, 2)
    b = _cov(np.diag([0.0, 5.0]), 1, 2)
    ok, rank = E.dense_subset_check(a, b, np.eye(2))
    assert not ok
    assert rank == 2


def test_order_spectrum_matches_eigvalsh():
    rng = np.random.default_rng(8)
    cov = _cov(random_psd(rng, 5), 1, 5)
    zero = _cov(np.zeros((5, 5)), 1, 5)
    np.testing.assert_allclose(
        E.order_spectrum(cov, zero), np.linalg.eigvalsh(cov.matrix), atol=1e-12
    )


def test_domination_chain_transitive():
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = random_ensemble(rng, m=5, d=1, p=4)
        b = contracted_ensemble(rng, a)
        c = contracted_ensemble(rng, b)
        sa, sc = E.second_moment(a), E.second_moment(c)
        ok, margin = E.loewner_dominates(sa, sc, tol=1e-8)
        assert ok, margin
