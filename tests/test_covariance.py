import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envmm as E
from envmm.covariance import DEFAULT_TOL, PSD_TOL, SYM_RTOL, retained
from helpers import contracted_ensemble, random_ensemble, random_psd


def _cov(matrix, d, p):
    return E.BlockCovariance(matrix=np.asarray(matrix, dtype=float), d=d, p=p)


def test_dominates_scalar_shrink():
    big = _cov(np.eye(2), 1, 2)
    small = _cov(0.5 * np.eye(2), 1, 2)
    ok, spectrum = E.loewner_dominates(big, small)
    assert ok
    assert spectrum[0] == pytest.approx(0.5)


def test_incomparable_pair():
    a = _cov(np.diag([1.0, 0.0]), 1, 2)
    b = _cov(np.diag([0.0, 1.0]), 1, 2)
    ok, spectrum = E.loewner_dominates(a, b)
    assert not ok
    np.testing.assert_allclose(spectrum, [-1.0, 1.0])


def test_self_domination_margin_zero():
    rng = np.random.default_rng(3)
    cov = _cov(random_psd(rng, 6), 2, 3)
    ok, spectrum = E.loewner_dominates(cov, cov)
    assert ok
    assert np.abs(spectrum).max() <= 1e-12


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
        (np.diag([1.0, np.nan]), False),
        (np.diag([np.inf, 1.0]), False),
    ],
)
def test_block_covariance_and_baseline_spec_share_one_rule(matrix, accepted):
    # a baseline sigma_xi is a BlockCovariance in the layout d = 1, p = n;
    # the rule reads the matrix only, whatever its layout
    for build in (lambda: _cov(matrix, 1, 2), lambda: _cov(matrix, 2, 1)):
        if accepted:
            build()
        else:
            with pytest.raises(E.DegenerateSpec):
                build()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-8, 8),
    defect=st.sampled_from(["psd", "sym"]),
    accepted=st.booleans(),
)
def test_block_covariance_and_baseline_spec_verdicts_are_scale_free(
    seed, k, defect, accepted
):
    # a bottom eigenvalue of -rel * lambda_max, or one off-diagonal entry
    # off by rel * max|entry|, at half or twice the rule's slack; the
    # verdict must read the same when the matrix is rescaled
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    evals = rng.uniform(0.5, 1.0, size=4)
    factor = 0.5 if accepted else 2.0
    if defect == "psd":
        evals[0] = -factor * PSD_TOL * evals[1:].max()
    mat = (q * evals) @ q.T
    mat = 0.5 * (mat + mat.T)
    if defect == "sym":
        mat[0, 1] += factor * SYM_RTOL * np.abs(mat).max()
    mat = 10.0**k * mat
    for build in (lambda: _cov(mat, 2, 2), lambda: _cov(mat, 1, 4)):
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
        ok, spectrum = E.loewner_dominates(
            E.push_forward(lmap, big), E.push_forward(lmap, small), tol=1e-8
        )
        assert ok, spectrum[0]


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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-8, 8),
    n_probes=st.integers(1, 6),
    accepted=st.booleans(),
)
def test_dense_subset_check_verdict_is_scale_free(seed, k, n_probes, accepted):
    # small exceeds big along u, so the worst probe gap sits at half or
    # twice the slack DEFAULT_TOL * (largest probe energy of big); the
    # verdict must read the same when both matrices are rescaled
    rng = np.random.default_rng(seed)
    big = random_psd(rng, 4)
    probes = rng.standard_normal((n_probes, 4))
    u = rng.standard_normal(4)
    energy = float(np.einsum("nk,kl,nl->n", probes, big, probes).max())
    excess = (0.5 if accepted else 2.0) * DEFAULT_TOL * energy
    small = big + excess / float(((probes @ u) ** 2).max()) * np.outer(u, u)
    ok, rank = E.dense_subset_check(
        _cov(10.0**k * big, 2, 2), _cov(10.0**k * small, 2, 2), probes
    )
    assert ok == accepted
    assert rank == min(n_probes, 4)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-8, 8),
    n_extra=st.integers(0, 4),
    accepted=st.booleans(),
)
def test_dense_subset_check_with_full_rank_probes_agrees_with_loewner(
    seed, k, n_extra, accepted
):
    # diagonal big, and small above it in one coordinate by half or twice
    # the slack; the probes are the signed unit vectors plus random unit
    # vectors, so the largest probe energy is max|big| and the worst probe
    # gap is lambda_min(big - small): both rules read the same numbers
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.5, 1.0, size=4)
    bumped = diag.copy()
    bumped[rng.integers(4)] += (0.5 if accepted else 2.0) * DEFAULT_TOL * diag.max()
    extra = rng.standard_normal((n_extra, 4))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    signs = rng.choice([-1.0, 1.0], size=4)
    probes = rng.permutation(np.vstack([np.diag(signs), extra]))
    big = _cov(10.0**k * np.diag(diag), 2, 2)
    small = _cov(10.0**k * np.diag(bumped), 2, 2)
    ok, rank = E.dense_subset_check(big, small, probes)
    assert rank == 4
    assert ok == E.loewner_dominates(big, small)[0] == accepted


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
        ok, spectrum = E.loewner_dominates(sa, sc, tol=1e-8)
        assert ok, spectrum[0]


def _space():
    return E.MeasureSpace(weights=np.ones(2))


# (value type, its array fields as fresh caller inputs of the field's dtype,
# its other fields, whether the arrays are held as views)
_HELD = [
    (E.NormalEquationSystem, lambda: {"gram": np.eye(3), "cross": np.ones((2, 3))},
     {"target_energy": 1.0}, True),
    (E.MeasureSpace, lambda: {"weights": np.ones(2)}, {}, False),
    (E.SourceEnsemble, lambda: {"values": np.ones((2, 1, 3))}, {"space": _space()}, False),
    (E.BlockCovariance, lambda: {"matrix": np.eye(4)}, {"d": 2, "p": 2}, False),
    (E.RepresentationOperator,
     lambda: {"target_map": np.ones((1, 4)), "input_map": np.ones((2, 4))}, {"d": 2, "p": 2}, False),
    (E.ObservedEnsemble, lambda: {"y": np.ones((2, 1)), "x": np.ones((2, 3))},
     {"space": _space()}, True),
    (E.CovarianceSequence, lambda: {"lags": np.array([np.eye(2), np.ones((2, 2))])}, {}, False),
    (E.SolutionSet, lambda: {"t0": np.ones((2, 3)), "kernel_basis": np.ones((1, 3))}, {}, False),
    (E.OracleReport, lambda: {"tau": np.ones(3, dtype=complex), "gaps": np.ones(3)},
     {"max_symbol_gap": 1.0, "flagged_count": 0, "embedding_lambda_min": 1.0, "no_minimizer": False,
      "off_diagonal_leakage": 0.0, "target_energy_time": 1.0, "target_energy_freq": 1.0}, False),
]


@pytest.mark.parametrize(
    "cls, inputs, fixed, view", _HELD, ids=[case[0].__name__ for case in _HELD]
)
def test_value_types_hold_arrays_by_one_rule(cls, inputs, fixed, view):
    given = inputs()
    obj = cls(**given, **fixed)
    for name, arr in given.items():
        held = getattr(obj, name)
        assert not held.flags.writeable
        assert held.dtype == arr.dtype
        assert np.shares_memory(held, arr) == view
        assert arr.flags.writeable
        before = held.copy()
        arr.fill(7)
        if not view:
            np.testing.assert_array_equal(held, before)


def test_retained_drops_an_eigenvalue_tied_with_its_threshold():
    # both eigenvalues sit at or below rank_tol * top = 2: a tie is dropped
    assert not retained(np.array([1.0, 2.0]), rank_tol=1.0).any()


@pytest.mark.parametrize("build, name", [
    (lambda m: E.BlockCovariance(matrix=m, d=1, p=3), "matrix"),
    (lambda m: E.NormalEquationSystem(gram=m, cross=np.ones((1, 3)), target_energy=1.0), "gram"),
])
def test_held_eigh_is_one_read_only_eigendecomposition(build, name):
    obj = build(random_psd(np.random.default_rng(11), 3))
    evals, evecs = obj.eigh
    assert obj.eigh is obj.eigh
    assert not evals.flags.writeable and not evecs.flags.writeable
    expected = np.linalg.eigh(getattr(obj, name))
    np.testing.assert_array_equal(evals, expected[0])
    np.testing.assert_array_equal(evecs, expected[1])


def test_eigensolves_are_made_in_covariance_and_stationary_only():
    # every other module reads a held eigh (BlockCovariance.eigh,
    # NormalEquationSystem.eigh) or a spectrum handed back with its verdict
    for path in sorted(Path(E.__file__).parent.glob("*.py")):
        if path.name in ("covariance.py", "stationary.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh"):
                assert not ast.unparse(node.value).endswith("linalg"), where
            if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                assert not {a.name for a in node.names} & {"eigh", "eigvalsh"}, where


_POLICY = {"SYM_RTOL", "PSD_TOL", "DEFAULT_TOL", "DEFAULT_RANK_RTOL", "CONSISTENCY_RTOL"}


def test_tolerances_are_named_and_compared_in_covariance_only():
    # outside covariance.py no module writes a tolerance literal or compares
    # against a policy constant: it passes the constant to within_slack or
    # retained, which decide every tolerance verdict
    for path in sorted(Path(E.__file__).parent.glob("*.py")):
        if path.name == "covariance.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                assert not 0.0 < abs(node.value) < 1e-3, f"{where}: literal {node.value!r}"
            if isinstance(node, ast.Compare):
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                assert not names & _POLICY, f"{where}: compares against {names & _POLICY}"


def test_push_forward_keeps_a_finite_result_near_the_float_maximum():
    # L S L^T = 1e308 is finite; symmetrizing by halving first keeps it so
    with np.errstate(all="raise"):
        pushed = E.push_forward([[1.0]], _cov([[1e308]], 1, 1))
    assert pushed.matrix[0, 0] == 1e308


def test_push_forward_halving_first_is_bitwise_the_symmetrized_sum():
    # where nothing overflows or underflows, 0.5 a + 0.5 b == 0.5 (a + b)
    rng = np.random.default_rng(13)
    for _ in range(50):
        n, r = (int(v) for v in rng.integers(1, 9, size=2))
        cov = _cov(random_psd(rng, n, scale=10.0 ** rng.uniform(-3, 3)), 1, n)
        lin = rng.standard_normal((r, n))
        raw = lin @ cov.matrix @ lin.T
        np.testing.assert_array_equal(E.push_forward(lin, cov).matrix, 0.5 * (raw + raw.T))
