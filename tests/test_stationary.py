import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import envmm as E
import envmm.stationary as stationary
from envmm.covariance import PSD_TOL
from helpers import (
    count_calls,
    count_eigensolves,
    fft_filtered_atoms,
    random_sequence,
    scaled_sequence,
)


def _white_pair(c12=0.5):
    k0 = np.array([[[1.0, c12], [c12, 1.0]]])
    return E.CovarianceSequence(lags=k0)


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
        E.CovarianceSequence(lags=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sequence_rejects_nonfinite_lags(bad):
    # a nonfinite lag 1 leaves lag 0 symmetric; the sequence is still refused,
    # and the message says why
    lags = np.array([np.eye(2), [[bad, 0.0], [0.0, 0.0]]])
    with pytest.raises(ValueError, match="finite"):
        E.CovarianceSequence(lags=lags)


def test_sequence_holds_zero_lag_symmetrized():
    lags = np.array([[[1.0, 0.5], [0.5 + 1e-15, 1.0]], [[0.2, 0.3], [0.1, 0.4]]])
    seq = E.CovarianceSequence(lags=lags)
    np.testing.assert_array_equal(seq.lag(0), seq.lag(0).T)
    np.testing.assert_array_equal(seq.lag(1), lags[1])
    np.testing.assert_array_equal(seq.lag(-1), lags[1].T)


def test_sequence_holds_a_finite_zero_lag_finite():
    # symmetrizing lag 0 must not overflow near the largest float
    seq = E.CovarianceSequence(lags=[[[1e308, 0.0], [0.0, 1.0]]])
    assert np.isfinite(seq.lags).all()
    np.testing.assert_array_equal(seq.lag(0), [[1e308, 0.0], [0.0, 1.0]])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-8, 8),
    rel_gap=st.sampled_from([1e-9, 1e-14]),
)
def test_sequence_symmetry_verdict_is_scale_free(seed, k, rel_gap):
    # one entry of lag 0 breaks its symmetry by rel_gap * max|K|
    rng = np.random.default_rng(seed)
    lags = rng.standard_normal((2, 2, 2))
    lags[0] = lags[0] @ lags[0].T
    lags[0, 0, 1] += rel_gap * np.abs(lags).max()
    if rel_gap == 1e-9:
        with pytest.raises(ValueError):
            E.CovarianceSequence(lags=10.0**k * lags)
    else:
        E.CovarianceSequence(lags=10.0**k * lags)


def test_spectral_density_cosine_formula():
    seq = E.CovarianceSequence(lags=np.array([[[2.0]], [[1.0]]]))
    sd = E.spectral_density(seq, 16)
    omegas = 2.0 * np.pi * np.arange(16) / 16
    np.testing.assert_allclose(sd[:, 0, 0], 2.0 + 2.0 * np.cos(omegas), atol=1e-12)


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
        assert sd.shape == (32, 2, 2)
        np.testing.assert_allclose(sd, np.conj(np.transpose(sd, (0, 2, 1))), atol=1e-12)
        mins = np.linalg.eigvalsh(sd)[:, 0]
        assert mins.min() >= -1e-10 * (1.0 + np.abs(sd).max())


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
    ok, _ = E.wss_envelope_test(10.0**k * sa, 10.0**k * sb)
    assert ok == (rel_gap == -1e-10)


def test_wss_envelope_scaled_sequence_dominates():
    rng = np.random.default_rng(4)
    sa = random_sequence(rng, max_lag=2)
    sb = scaled_sequence(sa, 0.49)
    da, db = E.spectral_density(sa, 32), E.spectral_density(sb, 32)
    ok, margins = E.wss_envelope_test(da, db)
    assert ok
    assert margins.min() >= -1e-12


def test_wss_envelope_detects_excess():
    rng = np.random.default_rng(5)
    sa = random_sequence(rng, max_lag=2)
    bumped = sa.lags.copy()
    bumped[0] = bumped[0] + np.diag([0.0, 0.3])
    sb = E.CovarianceSequence(lags=bumped)
    da, db = E.spectral_density(sa, 32), E.spectral_density(sb, 32)
    ok, margins = E.wss_envelope_test(da, db)
    assert not ok
    assert margins.min() <= -0.29


def test_wss_envelope_names_what_differs():
    two = E.spectral_density(_white_pair(), 8)
    one = E.spectral_density(E.CovarianceSequence(lags=np.ones((1, 1, 1))), 8)
    with pytest.raises(E.ShapeMismatch, match="channel counts differ: 2 and 1"):
        E.wss_envelope_test(two, one)
    with pytest.raises(E.ShapeMismatch, match="different grids"):
        E.wss_envelope_test(two, E.spectral_density(_white_pair(), 16))


def test_wiener_symbol_plain_ratio():
    sxx = np.array([4.0, 2.0, 1.0], dtype=complex)
    syx = 0.5 * sxx
    tau, flagged = E.wiener_symbol(syx, sxx)
    np.testing.assert_allclose(tau, 0.5)
    assert not flagged.any()


def test_wiener_symbol_zero_fill_convention():
    sxx = np.array([1.0, 0.0, 2.0], dtype=complex)
    syx = np.array([1.0, 5.0, 1.0], dtype=complex)
    tau, flagged = E.wiener_symbol(syx, sxx)
    assert flagged[1] and not flagged[0]
    assert tau[1] == 0.0
    assert tau[2] == pytest.approx(0.5)


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
    blocks = np.sort(np.linalg.eigvalsh(E.spectral_density(seq, n)).ravel())
    np.testing.assert_allclose(dense, blocks, atol=1e-9)


def test_time_and_frequency_margins_agree():
    rng = np.random.default_rng(9)
    n = 32
    for _ in range(5):
        sa = random_sequence(rng, max_lag=3)
        sb = scaled_sequence(sa, float(rng.uniform(0.2, 1.3)))
        _, margins = E.wss_envelope_test(
            E.spectral_density(sa, n), E.spectral_density(sb, n)
        )
        freq_min = float(margins.min())
        gap = E.circulant_matrix(sa, n) - E.circulant_matrix(sb, n)
        time_min = float(np.linalg.eigvalsh(gap)[0])
        assert abs(freq_min - time_min) <= 1e-9 * (1.0 + abs(freq_min))


def test_oracle_constant_filter_closed_form():
    report = E.circulant_oracle(_white_pair(0.5), [0.7], [1.0], 16, seed=0)
    np.testing.assert_allclose(report.tau, 0.35, atol=1e-12)
    assert report.max_symbol_gap <= 1e-10
    assert report.flagged_count == 0
    assert not report.no_minimizer
    assert report.embedding_lambda_min >= -1e-12


def test_oracle_constant_kernels_give_the_closed_form_blocks():
    # H = 2 and G = 3 at every frequency of white noise with K11 = K22 = 1,
    # K12 = 0.5: Syy = |H|^2 K11 = 4, Syx = H conj(G) K12 = 3, Sxx = 9
    report = E.circulant_oracle(_white_pair(0.5), [2.0], [3.0], 8, seed=0)
    assert report.target_energy_freq == pytest.approx(8 * 4.0, rel=1e-12)
    np.testing.assert_allclose(report.tau, 3.0 / 9.0, atol=1e-12)
    assert report.flagged_count == 0


def test_oracle_random_sequence_matches_ratio():
    rng = np.random.default_rng(10)
    for seed in (0, 1):
        seq = random_sequence(rng, max_lag=4)
        report = E.circulant_oracle(seq, [1.0, 0.5, 0.25], [0.8, -0.3], 64, seed=seed)
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
    return E.CovarianceSequence(lags=nonneg)


def _atoms(evals, evecs, responses, rng):
    """The oracle's atoms: y, x, weights."""
    obs = stationary._fourier_atoms(evals, evecs, responses, rng)
    return obs.y, obs.x, obs.space.weights


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
    evals, evecs = np.linalg.eigh(sd)
    y, x, weights = _atoms(evals, evecs, (np.ones(n), np.ones(n)), rng)
    flat = np.stack([y, x], axis=2).reshape(y.shape[0], -1)  # time-major
    moment = (flat * weights[:, None]).T @ flat
    target = E.circulant_matrix(seq, n)
    assert np.abs(moment - target).max() <= 1e-12 * np.abs(target).max()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(7, 24),
    make_seq=st.sampled_from(
        [
            lambda rng: random_sequence(rng, max_lag=3),
            _rank_one_sequence,
            lambda rng: _white_pair(float(rng.uniform(-0.9, 0.9))),
        ]
    ),
    real_kernels=st.booleans(),
)
def test_fourier_atoms_match_the_fft_filtered_route(seed, n, make_seq, real_kernels):
    # odd and even n, so the r = 0 mode and (for even n) the Nyquist mode,
    # whose atoms are their own mirror images, are both covered; responses
    # that are not conjugate symmetric pin the symmetrized response value
    rng = np.random.default_rng(seed)
    seq = make_seq(rng)
    if real_kernels:
        resp = [np.fft.fft(rng.standard_normal(int(rng.integers(1, 6))), n) for _ in range(2)]
    else:
        resp = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    evals, evecs = np.linalg.eigh(E.spectral_density(seq, n))
    y, x, weights = _atoms(evals, evecs, tuple(resp), np.random.default_rng(seed))
    y_ref, x_ref = fft_filtered_atoms(evals, evecs, *resp, np.random.default_rng(seed))
    # the reference builds every frequency; the oracle keeps r <= n // 2,
    # which leads the frequency-major order, and draws its phases as a
    # prefix of the same stream, so its atoms are the reference's first ones
    ref_freq = np.repeat(np.nonzero(evals > 0.0)[0], 2)
    kept = ref_freq <= n // 2
    assert y.shape[0] == int(kept.sum()) and np.all(kept[: y.shape[0]])
    for got, ref in ((y, y_ref), (x, x_ref)):
        assert got.shape == (y.shape[0], n)
        assert np.abs(got - ref[: got.shape[0]]).max() <= 1e-12 * np.abs(ref).max()
    freq = ref_freq[kept]
    self_conjugate = (freq == 0) | (2 * freq == n)
    assert np.array_equal(weights, np.where(self_conjugate, 1.0 / n, 2.0 / n))
    # each pair at 0 < r < n/2 stands for itself and its mirror at n - r:
    # the half set's three second moments are the full set's at weight 1/n
    # (the cross entries are measured against their Cauchy-Schwarz bound
    # sqrt(energy * max gram), as a weakly correlated pair nearly cancels)
    half = _moments(y, x, weights)
    gram, cross, energy = _moments(y_ref, x_ref, np.full(y_ref.shape[0], 1.0 / n))
    scales = (np.abs(gram).max(), np.sqrt(energy * np.abs(gram).max()), energy)
    for got, ref, scale in zip(half, (gram, cross, energy), scales):
        assert np.abs(got - ref).max() <= 1e-12 * scale


def _moments(y, x, weights):
    """Gram, cross and target energy of weighted atoms."""
    return (
        (x * weights[:, None]).T @ x,
        (y * weights[:, None]).T @ x,
        np.einsum("j,jk,jk->", weights, y, y),
    )


def test_oracle_assembles_the_half_spectrum(monkeypatch):
    # the modes at n - r mirror those at r, so only r <= n // 2 is built:
    # two atoms per positive eigenvalue there, at most 2 d (n // 2 + 1)
    seen = []

    def counting(obs):
        seen.append(obs.space.m)
        return E.assemble_normal_equations(obs)

    monkeypatch.setattr(stationary, "assemble_normal_equations", counting)
    for n, make_seq in (
        (16, lambda rng: random_sequence(rng, max_lag=3)),
        (17, lambda rng: random_sequence(rng, max_lag=3)),
        (16, _rank_one_sequence),
        (17, _rank_one_sequence),
    ):
        seq = make_seq(np.random.default_rng(n))
        E.circulant_oracle(seq, [1.0, 0.5], [0.8, -0.3], n, seed=0)
        evals = np.linalg.eigh(E.spectral_density(seq, n))[0]
        positive = int(np.count_nonzero(evals[: n // 2 + 1] > 0.0))
        assert seen.pop() == 2 * positive <= 2 * seq.d * (n // 2 + 1)


def test_oracle_peak_memory_is_near_its_atoms():
    # the atoms are at most 2 d (n // 2 + 1) = 2n + 4 rows of n for each of
    # y and x, built and assembled at once: the traced peak is near
    # 8.5 n^2 float64
    n = 256
    seq = random_sequence(np.random.default_rng(17), max_lag=3)
    tracemalloc.start()
    try:
        E.circulant_oracle(seq, [1.0, 0.5, 0.25], [0.8, -0.3], n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * n * n * 8


def test_oracle_makes_two_eigendecompositions(monkeypatch):
    counts = count_eigensolves(monkeypatch)
    seq = random_sequence(np.random.default_rng(15), max_lag=2)
    E.circulant_oracle(seq, [1.0, 0.5], [0.8, -0.3], 8, seed=0)
    # one batched eigh of the spectral blocks, one of the Gram block
    assert counts == {"eigh": 2, "eigvalsh": 0}


def test_oracle_makes_two_ffts(monkeypatch):
    # two full FFTs, one per kernel, and the symbol read-out of the solution
    # from the half spectrum; the atoms are filtered by their response
    # values, not transformed, so every fft input is a 1-d length-n kernel
    n = 8
    seq = random_sequence(np.random.default_rng(15), max_lag=2)
    counts = count_calls(monkeypatch, np.fft, "rfft")
    count_calls(monkeypatch, np.fft, "ifft", counts)
    shapes = []
    fft = np.fft.fft

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recorded)
    E.circulant_oracle(seq, [1.0, 0.5], [0.8, -0.3], n, seed=0)
    assert shapes == [(n,), (n,)]
    assert counts == {"rfft": 1, "ifft": 1}


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-8, 8), rel_gap=st.sampled_from([2e-8, 1e-10]))
def test_embedding_verdict_is_scale_free(k, rel_gap):
    # lags K0 = I, K1 = c [[0, 1], [1, 0]] have spectral eigenvalues
    # 1 +- 2c cos(omega); c = (1 + rel_gap) / 2 dips to -rel_gap at omega = pi,
    # against lambda_max = 2 + rel_gap, at every scale 10^k
    c = 0.5 * (1.0 + rel_gap)
    lags = 10.0**k * np.array([np.eye(2), [[0.0, c], [c, 0.0]]])
    seq = E.CovarianceSequence(lags=lags)
    if rel_gap == 2e-8:
        with pytest.raises(E.DegenerateSpec, match="periodic extension"):
            E.circulant_oracle(seq, [1.0, 0.5], [1.0], 16, seed=0)
    else:
        report = E.circulant_oracle(seq, [1.0, 0.5], [1.0], 16, seed=0)
        assert report.embedding_lambda_min < 0.0


def test_oracle_dead_observation_channel():
    report = E.circulant_oracle(_white_pair(0.5), [1.0], [0.0], 16, seed=0)
    assert report.no_minimizer
    assert report.flagged_count == 16
    assert report.max_symbol_gap <= 1e-12


def test_oracle_partially_flagged_grid():
    # the observation kernel (1, -1) has a transfer zero at frequency 0
    report = E.circulant_oracle(_white_pair(0.5), [1.0], [1.0, -1.0], 16, seed=1)
    assert 1 <= report.flagged_count < 16
    assert not report.no_minimizer
    assert report.max_symbol_gap <= 1e-8


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    j=st.integers(-8, 8),
    k=st.integers(-8, 8),
    case=st.sampled_from([([1.0, -1.0], 1), ([0.8, -0.3], 0), ([0.0], 16)]),
)
def test_oracle_flagged_frequencies_are_scale_free(seed, j, k, case):
    # rescaling the sequence by 10^j and the observation kernel by 10^k
    # flags the same frequencies: none for (0.8, -0.3), the transfer zero
    # at frequency 0 of c (1, -1), and every one for a dead kernel
    kernel, flagged = case
    seq = random_sequence(np.random.default_rng(seed), max_lag=2)
    scaled = E.CovarianceSequence(lags=10.0**j * seq.lags)
    base = E.circulant_oracle(seq, [1.0, 0.5], kernel, 16, seed=seed)
    report = E.circulant_oracle(scaled, [1.0, 0.5], 10.0**k * np.array(kernel), 16, seed=seed)
    assert report.flagged_count == base.flagged_count == flagged
    assert report.no_minimizer == base.no_minimizer == (flagged == 16)


def test_oracle_rejects_indefinite_extension():
    lags = np.stack([np.eye(2), np.eye(2)])
    seq = E.CovarianceSequence(lags=lags)
    with pytest.raises(E.DegenerateSpec, match="periodic extension"):
        E.circulant_oracle(seq, [1.0], [1.0], 16, seed=0)


def test_oracle_rejects_a_sequence_without_power():
    seq = E.CovarianceSequence(lags=np.zeros((2, 2, 2)))
    with pytest.raises(E.DegenerateSpec, match="no positive spectral eigenvalue"):
        E.circulant_oracle(seq, [1.0], [1.0], 16, seed=0)


def test_oracle_grid_guards():
    rng = np.random.default_rng(11)
    seq = random_sequence(rng, max_lag=4)
    with pytest.raises(E.BadGrid):
        E.circulant_oracle(seq, [1.0], [1.0], 9, seed=0)


def test_lti_blocks_requires_two_channels():
    # the target and observation blocks are read from a two-channel density;
    # the oracle refuses a one-channel sequence before it forms them
    scalar = E.CovarianceSequence(lags=np.array([[[1.0]]]))
    with pytest.raises(E.ShapeMismatch, match="two channels"):
        E.circulant_oracle(scalar, [1.0], [1.0], 16, seed=0)


def test_model_kernel_longer_than_grid():
    for kernels in ((np.ones(9), [1.0]), ([1.0], np.ones(9))):
        with pytest.raises(E.ShapeMismatch, match="kernel longer than the grid"):
            E.circulant_oracle(_white_pair(0.5), *kernels, 8, seed=0)


def _oracle_embeds(seq, n):
    """The oracle's verdict on the period-n embedding: False when it refuses
    it, True when it runs or refuses for another reason (an sxx below zero)."""
    try:
        E.circulant_oracle(seq, [1.0], [1.0], n, seed=0)
    except E.DegenerateSpec as exc:
        return "periodic extension" not in str(exc)
    return True


def _dense_embeds(seq, n):
    try:
        E.BlockCovariance(matrix=E.circulant_matrix(seq, n), d=1, p=2 * n)
    except E.DegenerateSpec:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_lag=st.integers(0, 2),
    extra=st.integers(0, 6),
    ratio=st.sampled_from([-1e-8, -1e-9, -3e-10, -4e-11, -1e-12, 0.0, 1e-3]),
    k=st.integers(-60, 60),
)
def test_oracle_embedding_verdict_is_the_block_covariance_psd_rule(seed, max_lag, extra, ratio, k):
    # lag 0 of a PSD sequence shifted by -c I moves every spectral eigenvalue
    # by -c, so lambda_min / lambda_max lands at ratio on either side of
    # -PSD_TOL; the oracle accepts the period-n extension exactly when
    # BlockCovariance accepts circulant_matrix(seq, n), at every scale 10^k,
    # where the ratio lies a factor 2 or more away from -PSD_TOL
    n = 2 * max_lag + 2 + extra
    seq = random_sequence(np.random.default_rng(seed), max_lag=max_lag)
    evals = np.linalg.eigvalsh(E.spectral_density(seq, n))
    lo, hi = evals[:, 0].min(), evals[:, -1].max()
    lags = seq.lags.copy()
    lags[0] -= (lo - ratio * hi) / (1.0 - ratio) * np.eye(2)
    for scale in (1.0, 10.0**k):
        shifted = E.CovarianceSequence(lags=scale * lags)
        dense = np.linalg.eigvalsh(E.circulant_matrix(shifted, n))
        assume(not -2.0 * PSD_TOL <= dense[0] / dense[-1] <= -0.5 * PSD_TOL)
        assert _oracle_embeds(shifted, n) == _dense_embeds(shifted, n)
