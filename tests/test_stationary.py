import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envmm as E
import envmm.stationary as stationary
from helpers import count_eigensolves, random_sequence, scaled_sequence


def _white_pair(c12=0.5):
    k0 = np.array([[[1.0, c12], [c12, 1.0]]])
    return E.CovarianceSequence.from_nonneg_lags(k0)


def test_sequence_negative_lags_by_transposition():
    rng = np.random.default_rng(1)
    seq = random_sequence(rng, max_lag=3)
    for tau in range(1, 4):
        np.testing.assert_array_equal(seq.lag(-tau), seq.lag(tau).T)
    with pytest.raises(E.ShapeMismatch):
        seq.lag(4)


def test_sequence_rejects_asymmetric_zero_lag():
    bad = np.array([[[1.0, 2.0], [0.0, 1.0]]])
    with pytest.raises(ValueError):
        E.CovarianceSequence.from_nonneg_lags(bad)


def test_sequence_rejects_inconsistent_pair():
    lags = np.zeros((3, 1, 1))
    lags[0] = 1.0  # K[-1] must equal K[1]^T = 2
    lags[1] = 3.0
    lags[2] = 2.0
    with pytest.raises(ValueError):
        E.CovarianceSequence(lags=lags)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-8, 8),
    rel_gap=st.sampled_from([1e-9, 1e-14]),
    through_nonneg=st.booleans(),
)
def test_sequence_symmetry_verdict_is_scale_free(seed, k, rel_gap, through_nonneg):
    # one entry of lag 0 (through from_nonneg_lags) or of lag -1 (the full
    # constructor) breaks K[-tau] = K[tau]^T by rel_gap * max|K|
    rng = np.random.default_rng(seed)
    nonneg = rng.standard_normal((2, 2, 2))
    nonneg[0] = nonneg[0] @ nonneg[0].T
    full = np.array([nonneg[1].T, nonneg[0], nonneg[1]])
    lags = nonneg if through_nonneg else full
    lags[0, 0, 1] += rel_gap * np.abs(lags).max()
    build = (
        E.CovarianceSequence.from_nonneg_lags
        if through_nonneg
        else lambda lags: E.CovarianceSequence(lags=lags)
    )
    if rel_gap == 1e-9:
        with pytest.raises(ValueError):
            build(10.0**k * lags)
    else:
        build(10.0**k * lags)


def test_spectral_density_cosine_formula():
    seq = E.CovarianceSequence.from_nonneg_lags(
        np.array([[[2.0]], [[1.0]]])
    )
    sd = E.spectral_density(seq, 16)
    np.testing.assert_allclose(
        sd.values[:, 0, 0], 2.0 + 2.0 * np.cos(sd.omegas), atol=1e-12
    )


def test_spectral_density_grid_guard():
    rng = np.random.default_rng(2)
    seq = random_sequence(rng, max_lag=4)
    with pytest.raises(E.BadGrid):
        E.spectral_density(seq, 8)


def test_spectral_density_hermitian_psd_for_factor_sequences():
    rng = np.random.default_rng(3)
    for _ in range(5):
        seq = random_sequence(rng, max_lag=3)
        sd = E.spectral_density(seq, 32)
        np.testing.assert_allclose(
            sd.values, np.conj(np.transpose(sd.values, (0, 2, 1))), atol=1e-12
        )
        mins = np.linalg.eigvalsh(sd.values)[:, 0]
        assert mins.min() >= -1e-10 * (1.0 + np.abs(sd.values).max())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-8, 8),
    rel_gap=st.sampled_from([-2e-8, -1e-10]),
)
def test_wss_envelope_verdict_is_scale_free(seed, k, rel_gap):
    # sb exceeds sa along one direction at one frequency by -rel_gap * max|sa|;
    # the verdict must read the same at every scale
    rng = np.random.default_rng(seed)
    n, d = 8, 2
    roots = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    sa = roots @ np.conj(np.transpose(roots, (0, 2, 1)))
    u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    u /= np.linalg.norm(u)
    sb = sa.copy()
    sb[int(rng.integers(n))] -= rel_gap * np.abs(sa).max() * np.outer(u, np.conj(u))
    omegas = 2.0 * np.pi * np.arange(n) / n
    ok, _ = E.wss_envelope_test(
        E.SpectralDensity(omegas=omegas, values=10.0**k * sa),
        E.SpectralDensity(omegas=omegas, values=10.0**k * sb),
    )
    assert ok == (rel_gap == -1e-10)


def test_wss_envelope_scaled_sequence_dominates():
    rng = np.random.default_rng(4)
    sa = random_sequence(rng, max_lag=2)
    sb = scaled_sequence(sa, 0.49)
    da, db = E.spectral_density(sa, 32), E.spectral_density(sb, 32)
    ok, (omega, margin) = E.wss_envelope_test(da, db)
    assert ok
    assert margin >= -1e-12


def test_wss_envelope_detects_excess():
    rng = np.random.default_rng(5)
    sa = random_sequence(rng, max_lag=2)
    bumped = sa.lags[2:].copy()
    bumped[0] = bumped[0] + np.diag([0.0, 0.3])
    sb = E.CovarianceSequence.from_nonneg_lags(bumped)
    da, db = E.spectral_density(sa, 32), E.spectral_density(sb, 32)
    ok, (omega, margin) = E.wss_envelope_test(da, db)
    assert not ok
    assert margin <= -0.29


def test_lti_blocks_constant_filters():
    sd = E.spectral_density(_white_pair(0.5), 8)
    model = E.LTIModel.from_impulse_response([2.0], [3.0], 8)
    syy, syx, sxx = E.lti_blocks(sd, model)
    np.testing.assert_allclose(syy, np.full(8, 4.0), atol=1e-12)
    np.testing.assert_allclose(syx, np.full(8, 3.0), atol=1e-12)
    np.testing.assert_allclose(sxx, np.full(8, 9.0), atol=1e-12)


def test_lti_blocks_requires_two_channels():
    seq = E.CovarianceSequence.from_nonneg_lags(np.array([[[1.0]]]))
    sd = E.spectral_density(seq, 8)
    model = E.LTIModel.from_impulse_response([1.0], [1.0], 8)
    with pytest.raises(E.WrongDimension):
        E.lti_blocks(sd, model)


def test_wiener_symbol_plain_ratio():
    sxx = np.array([4.0, 2.0, 1.0], dtype=complex)
    syx = 0.5 * sxx
    sym = E.wiener_symbol(syx, sxx)
    np.testing.assert_allclose(sym.tau, 0.5)
    assert not sym.flagged.any()


def test_wiener_symbol_zero_fill_convention():
    sxx = np.array([1.0, 0.0, 2.0], dtype=complex)
    syx = np.array([1.0, 5.0, 1.0], dtype=complex)
    sym = E.wiener_symbol(syx, sxx)
    assert sym.flagged[1] and not sym.flagged[0]
    assert sym.tau[1] == 0.0
    assert sym.tau[2] == pytest.approx(0.5)


def test_wiener_symbol_input_validation():
    with pytest.raises(ValueError):
        E.wiener_symbol(np.ones(3), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        E.wiener_symbol(np.ones(3), np.array([1.0, 1.0j, 1.0]))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-8, 8),
    rel_gap=st.sampled_from([1e-8, 1e-12]),
    part=st.sampled_from(["real", "imag"]),
)
def test_wiener_symbol_validation_is_scale_free(seed, k, rel_gap, part):
    # one sxx bin dips below zero (or off the real axis) by
    # rel_gap * max|sxx|; the verdict must read the same at every scale
    rng = np.random.default_rng(seed)
    sxx = rng.uniform(0.1, 1.0, size=8).astype(complex)
    bad = int(rng.integers(8))
    gap = rel_gap * np.abs(sxx).max()
    sxx[bad] = -gap if part == "real" else sxx[bad] + 1j * gap
    syx = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    if rel_gap == 1e-8:
        with pytest.raises(ValueError):
            E.wiener_symbol(10.0**k * syx, 10.0**k * sxx)
    else:
        E.wiener_symbol(10.0**k * syx, 10.0**k * sxx)


def test_circulant_matrix_entries():
    rng = np.random.default_rng(7)
    seq = random_sequence(rng, max_lag=2)
    n, d = 9, seq.d
    mat = E.circulant_matrix(seq, n)
    np.testing.assert_array_equal(mat, mat.T)
    for t, s in ((0, 0), (3, 1), (5, 7)):
        gap = (t - s) % n
        tau = gap if gap <= seq.max_lag else gap - n
        if abs(tau) > seq.max_lag:
            expected = np.zeros((d, d))
        else:
            expected = seq.lag(tau)
        np.testing.assert_allclose(
            mat[t * d : (t + 1) * d, s * d : (s + 1) * d], expected, atol=1e-12
        )


def test_circulant_spectrum_equals_block_union():
    rng = np.random.default_rng(8)
    seq = random_sequence(rng, max_lag=3)
    n = 16
    dense = np.linalg.eigvalsh(E.circulant_matrix(seq, n))
    blocks = np.sort(
        np.linalg.eigvalsh(E.spectral_density(seq, n).values).ravel()
    )
    np.testing.assert_allclose(dense, blocks, atol=1e-9)


def test_time_and_frequency_margins_agree():
    rng = np.random.default_rng(9)
    n = 32
    for _ in range(5):
        sa = random_sequence(rng, max_lag=3)
        sb = scaled_sequence(sa, float(rng.uniform(0.2, 1.3)))
        freq_min = float(
            E.spectral_margins(
                E.spectral_density(sa, n), E.spectral_density(sb, n)
            ).min()
        )
        gap = E.circulant_matrix(sa, n) - E.circulant_matrix(sb, n)
        time_min = float(np.linalg.eigvalsh(gap)[0])
        assert abs(freq_min - time_min) <= 1e-9 * (1.0 + abs(freq_min))


def test_oracle_constant_filter_closed_form():
    model = E.LTIModel.from_impulse_response([0.7], [1.0], 16)
    report = E.circulant_oracle(_white_pair(0.5), model, 16, seed=0)
    np.testing.assert_allclose(report.tau, 0.35, atol=1e-12)
    assert report.max_symbol_gap <= 1e-10
    assert report.flagged_count == 0
    assert not report.no_minimizer
    assert report.embedding_lambda_min >= -1e-12


def test_oracle_random_sequence_matches_ratio():
    rng = np.random.default_rng(10)
    for seed in (0, 1):
        seq = random_sequence(rng, max_lag=4)
        model = E.LTIModel.from_impulse_response(
            [1.0, 0.5, 0.25], [0.8, -0.3], 64
        )
        report = E.circulant_oracle(seq, model, 64, seed=seed)
        assert report.max_symbol_gap <= 1e-6
        assert report.off_diagonal_leakage <= 1e-6
        assert report.target_energy_time == pytest.approx(
            report.target_energy_freq, rel=1e-9
        )


def _rank_one_sequence(rng, max_lag=3):
    """Both channels carry one scalar moving average along a fixed direction,
    so every spectral block has rank one and a zero eigenvalue."""
    taps = rng.standard_normal(max_lag + 1)
    v = rng.standard_normal(2)
    nonneg = np.array(
        [taps[tau:] @ taps[: taps.size - tau] * np.outer(v, v) for tau in range(max_lag + 1)]
    )
    return E.CovarianceSequence.from_nonneg_lags(nonneg)


@pytest.mark.parametrize(
    "make_seq",
    [
        lambda rng: random_sequence(rng, max_lag=3),
        _rank_one_sequence,
        lambda rng: _white_pair(float(rng.uniform(-0.9, 0.9))),
    ],
    ids=["moving_average", "rank_one_blocks", "white_noise"],
)
def test_fourier_atoms_realize_the_periodic_covariance(make_seq):
    rng = np.random.default_rng(14)
    n = 12
    seq = make_seq(rng)
    sd = E.spectral_density(seq, n)
    evals, evecs = np.linalg.eigh(sd.values)
    atoms, weights = stationary._fourier_atoms(sd.omegas, evals, evecs, rng)
    flat = atoms.transpose(0, 2, 1).reshape(atoms.shape[0], -1)  # time-major
    moment = (flat * weights[:, None]).T @ flat
    target = E.circulant_matrix(seq, n)
    assert np.abs(moment - target).max() <= 1e-12 * np.abs(target).max()


def test_oracle_makes_two_eigendecompositions(monkeypatch):
    counts = count_eigensolves(monkeypatch)
    seq = random_sequence(np.random.default_rng(15), max_lag=2)
    model = E.LTIModel.from_impulse_response([1.0, 0.5], [0.8, -0.3], 8)
    E.circulant_oracle(seq, model, 8, seed=0)
    # one batched eigh of the spectral blocks, one of the Gram block
    assert counts == {"eigh": 2, "eigvalsh": 0}


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-8, 8), rel_gap=st.sampled_from([2e-8, 1e-10]))
def test_embedding_verdict_is_scale_free(k, rel_gap):
    # lags K0 = I, K1 = c [[0, 1], [1, 0]] have spectral eigenvalues
    # 1 +- 2c cos(omega); c = (1 + rel_gap) / 2 dips to -rel_gap at omega = pi,
    # against max|S| = 1 + rel_gap, at every scale 10^k
    c = 0.5 * (1.0 + rel_gap)
    lags = 10.0**k * np.array([np.eye(2), [[0.0, c], [c, 0.0]]])
    seq = E.CovarianceSequence.from_nonneg_lags(lags)
    model = E.LTIModel.from_impulse_response([1.0, 0.5], [1.0], 16)
    if rel_gap == 2e-8:
        with pytest.raises(E.EmbeddingNotPSD):
            E.circulant_oracle(seq, model, 16, seed=0)
    else:
        report = E.circulant_oracle(seq, model, 16, seed=0)
        assert report.embedding_lambda_min < 0.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-8, 8),
    rel_gap=st.sampled_from([2e-8, 1e-10]),
)
def test_conjugate_symmetry_verdict_is_scale_free(seed, k, rel_gap):
    # one response bin breaks conjugate symmetry by rel_gap * max|response|
    rng = np.random.default_rng(seed)
    n = 8
    resp = np.fft.fft(rng.standard_normal(3), n)
    resp[1] += 1j * rel_gap * np.abs(resp).max()
    model = E.LTIModel(
        target_response=10.0**k * resp,
        observation_response=np.fft.fft([1.0, 0.3], n),
    )
    if rel_gap == 2e-8:
        with pytest.raises(ValueError, match="conjugate symmetric"):
            E.circulant_oracle(_white_pair(0.5), model, n, seed=0)
    else:
        E.circulant_oracle(_white_pair(0.5), model, n, seed=0)


def test_oracle_dead_observation_channel():
    model = E.LTIModel.from_impulse_response([1.0], [0.0], 16)
    report = E.circulant_oracle(_white_pair(0.5), model, 16, seed=0)
    assert report.no_minimizer
    assert report.flagged_count == 16
    assert report.max_symbol_gap <= 1e-12


def test_oracle_partially_flagged_grid():
    # the observation kernel (1, -1) has a transfer zero at frequency 0
    model = E.LTIModel.from_impulse_response([1.0], [1.0, -1.0], 16)
    report = E.circulant_oracle(_white_pair(0.5), model, 16, seed=1)
    assert 1 <= report.flagged_count < 16
    assert not report.no_minimizer
    assert report.max_symbol_gap <= 1e-8


def test_oracle_rejects_indefinite_extension():
    lags = np.stack([np.eye(2), np.eye(2)])
    seq = E.CovarianceSequence.from_nonneg_lags(lags)
    model = E.LTIModel.from_impulse_response([1.0], [1.0], 16)
    with pytest.raises(E.EmbeddingNotPSD):
        E.circulant_oracle(seq, model, 16, seed=0)


def test_oracle_grid_guards():
    rng = np.random.default_rng(11)
    seq = random_sequence(rng, max_lag=4)
    model = E.LTIModel.from_impulse_response([1.0], [1.0], 9)
    with pytest.raises(E.BadGrid):
        E.circulant_oracle(seq, model, 9, seed=0)
    scalar = E.CovarianceSequence.from_nonneg_lags(np.array([[[1.0]]]))
    model16 = E.LTIModel.from_impulse_response([1.0], [1.0], 16)
    with pytest.raises(E.WrongDimension):
        E.circulant_oracle(scalar, model16, 16, seed=0)


def test_model_kernel_longer_than_grid():
    with pytest.raises(E.ShapeMismatch):
        E.LTIModel.from_impulse_response(np.ones(9), [1.0], 8)
