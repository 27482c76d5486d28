import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envmm as E
from envmm import envelope
from envmm.cost_minimizer import residual_map
from envmm.covariance import DEFAULT_TOL
from helpers import (
    baseline,
    random_baseline,
    random_ensemble,
    random_estimator,
    random_representation,
)


def test_membership_reflexive():
    rng = np.random.default_rng(1)
    a = random_ensemble(rng, m=5, d=2, p=3)
    ok, spectrum = E.is_member(a, a)
    assert ok
    assert np.abs(spectrum).max() <= 1e-10


def test_membership_scaling():
    rng = np.random.default_rng(2)
    a = random_ensemble(rng, m=4, d=1, p=3)
    half = E.SourceEnsemble(space=a.space, values=0.5 * a.values)
    double = E.SourceEnsemble(space=a.space, values=2.0 * a.values)
    assert E.is_member(half, a)[0]
    assert not E.is_member(double, a)[0]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-8, 8),
    rel_gap=st.sampled_from([-2e-8, -1e-10]),
)
def test_membership_verdict_is_scale_free(seed, k, rel_gap):
    # the candidate adds one atom, so its moment exceeds the reference's by
    # -rel_gap * max|Sigma_A| along one direction; the verdict must read the
    # same when both ensembles are rescaled
    rng = np.random.default_rng(seed)
    a = random_ensemble(rng, m=6, d=2, p=2)
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    excess = -rel_gap * np.abs(E.second_moment(a).matrix).max()
    root = 10.0 ** (k / 2)
    ref = E.SourceEnsemble(space=a.space, values=root * a.values)
    cand = E.SourceEnsemble(
        space=E.MeasureSpace(weights=np.append(a.space.weights, 1.0)),
        values=root * np.concatenate([a.values, np.sqrt(excess) * u.reshape(1, 2, 2)]),
    )
    ok, _ = E.is_member(cand, ref)
    assert ok == (rel_gap == -1e-10)


def test_membership_checks_block_shape():
    rng = np.random.default_rng(3)
    with pytest.raises(E.ShapeMismatch):
        E.is_member(random_ensemble(rng, d=1, p=2), random_ensemble(rng, d=2, p=2))


def test_sampler_stays_inside_stability_set():
    rng = np.random.default_rng(4)
    a = random_ensemble(rng, m=6, d=2, p=3)
    for sample in E.sample_dominated(a, seed=7, n_samples=20):
        ok, spectrum = E.is_member(sample, a, tol=1e-12)
        assert ok, spectrum[0]


def test_sampler_unit_floor_reproduces_reference():
    rng = np.random.default_rng(5)
    a = random_ensemble(rng, m=3, d=1, p=4)
    (sample,) = E.sample_dominated(a, seed=0, n_samples=1, shrink_floor=1.0)
    np.testing.assert_allclose(sample.values, a.values, atol=1e-12)


@pytest.mark.parametrize("floor", [-0.5, 2.0])
def test_sampler_rejects_a_floor_outside_the_unit_interval(floor):
    # a floor above 1 would draw D > 1: samples that are not dominated
    a = random_ensemble(np.random.default_rng(5), m=3, d=1, p=4)
    with pytest.raises(ValueError, match="shrink_floor"):
        E.sample_dominated(a, seed=0, n_samples=1, shrink_floor=floor)


def test_sampler_actually_moves():
    rng = np.random.default_rng(6)
    a = random_ensemble(rng, m=3, d=1, p=4)
    (sample,) = E.sample_dominated(a, seed=0, n_samples=1)
    assert E.ensemble_distance(sample, a) > 1e-3


def test_non_dominated_candidate_costs_its_order_margin_more():
    # the converse of the worst-case principle: B is A plus one atom of
    # weight w and value u, so Sigma_A - Sigma_B = -w u u^T; reading along u
    # with T = 0, B costs -spectrum[0] = w ||u||^2 more than A, whether the
    # cost is split by moments or realized with a fitted baseline
    rng = np.random.default_rng(21)
    a = random_ensemble(rng, m=5, d=2, p=3)
    w, u = 0.7, rng.standard_normal((1, 2, 3))
    b = E.SourceEnsemble(
        space=E.MeasureSpace(weights=np.append(a.space.weights, w)),
        values=np.concatenate([a.values, u]),
    )
    member, spectrum = E.is_member(b, a)
    assert not member
    assert spectrum[0] == pytest.approx(-w * np.sum(u**2), rel=1e-12)

    rep = E.RepresentationOperator(
        target_map=u.reshape(1, 6) / np.linalg.norm(u),
        input_map=rng.standard_normal((2, 6)),
        d=2,
        p=3,
    )
    est = np.zeros((1, 2))
    spec = random_baseline(rng, 6, scale=0.3)

    def realized(ens):
        lifted, xi = E.fit_baseline(ens, spec, seed=3)
        return E.cost(E.apply(rep, lifted, xi), est)

    for cost in (lambda ens: E.cost_decomposed(ens, spec, rep, est).total, realized):
        assert cost(b) - cost(a) == pytest.approx(-spectrum[0], rel=1e-12)


def test_fit_baseline_zero_spec_returns_source_unchanged():
    rng = np.random.default_rng(7)
    a = random_ensemble(rng, m=4, d=2, p=2)
    spec = baseline(np.zeros((4, 4)))
    lifted, xi = E.fit_baseline(a, spec, seed=0)
    assert lifted.space.same_as(a.space)
    np.testing.assert_array_equal(lifted.values, a.values)
    assert not xi.values.any()


def test_fit_baseline_scalar_atoms_are_signs():
    # rank one, scalar source: auxiliary values must be exactly +-1
    space = E.MeasureSpace(weights=np.array([1.0]))
    a = E.SourceEnsemble(space=space, values=np.array([[[2.0]]]))
    spec = baseline(np.array([[1.0]]))
    lifted, xi = E.fit_baseline(a, spec, seed=3)
    np.testing.assert_allclose(np.sort(xi.values.ravel()), [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(xi.space.weights, [0.5, 0.5])
    np.testing.assert_array_equal(np.unique(lifted.values), [2.0])


def test_fit_baseline_moments_exact():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = random_ensemble(rng)
        spec = random_baseline(rng, a.d * a.p)
        lifted, xi = E.fit_baseline(a, spec, seed=int(rng.integers(1 << 30)))
        scale = max(1.0, abs(spec.matrix).max())
        err = abs(E.second_moment(xi).matrix - spec.matrix).max()
        assert err <= 1e-12 * scale
        cross = abs(E.cross_moment(lifted, xi)).max()
        assert cross <= 1e-12 * max(1.0, E.ensemble_norm(a))
        # lifting must not disturb the source marginal
        np.testing.assert_allclose(
            E.second_moment(lifted).matrix,
            E.second_moment(a).matrix,
            rtol=1e-12,
            atol=1e-13,
        )


def test_fit_baseline_seeds_differ_but_agree_in_law():
    rng = np.random.default_rng(9)
    a = random_ensemble(rng, m=3, d=2, p=2)
    spec = random_baseline(rng, 4)
    _, xi1 = E.fit_baseline(a, spec, seed=1)
    _, xi2 = E.fit_baseline(a, spec, seed=2)
    assert abs(xi1.values - xi2.values).max() > 1e-6
    np.testing.assert_allclose(
        E.second_moment(xi1).matrix, E.second_moment(xi2).matrix, atol=1e-12
    )


def test_verify_extremal_reference_sample_is_exact():
    rng = np.random.default_rng(10)
    a = random_ensemble(rng, m=5, d=2, p=3)
    spec = random_baseline(rng, 6, scale=0.3)
    rep = random_representation(rng, 2, 3)
    ests = [random_estimator(rng, rep) for _ in range(3)]
    report = E.verify_extremal(a, spec, rep, ests, seed=1, n_samples=8)
    assert report.member
    assert len(report.cost_samples) == 9
    sid, c0 = report.cost_samples[0]
    assert sid == 0
    assert c0 == pytest.approx(report.cost_reference, abs=1e-12 * (1 + c0))
    assert report.max_violation <= 1e-9 * (1.0 + report.cost_reference)
    assert report.lambda_min_margin >= -1e-10


def test_verify_extremal_zero_estimator():
    # with T = 0 the cost is pure energy, monotone under domination
    rng = np.random.default_rng(11)
    a = random_ensemble(rng, m=4, d=1, p=3)
    spec = baseline(np.zeros((3, 3)))
    rep = random_representation(rng, 1, 3)
    zero = np.zeros((1, rep.p_out, rep.q))
    report = E.verify_extremal(a, spec, rep, zero, seed=2, n_samples=10)
    assert report.member
    assert report.max_violation <= 0.0 + 1e-12 * (1 + report.cost_reference)


def _per_sample_report(a, spec, rep, ests, seed, n_samples, tol, floor):
    """verify_extremal by its definition: realized samples, one cost each.

    Returns the verdict, the worst domination margin, the cost table (one
    row per estimator, one column per sample) and each row's violation.
    """
    samples = [a] + E.sample_dominated(a, seed, n_samples, floor)
    margins = [E.is_member(s, a, tol=tol)[1][0] for s in samples[1:]]
    table = np.array(
        [[E.cost_decomposed(s, spec, rep, est).total for s in samples] for est in ests]
    )
    violations = (table - table[:, :1]).max(axis=1)
    slack = tol * np.maximum(table[:, 0], np.finfo(float).tiny)
    member = bool(np.all(violations <= slack))
    return member, min(margins, default=0.0), table, violations


@pytest.mark.parametrize(
    "m, d, p, n_ests, n_samples",
    [
        (6, 2, 3, 4, 12),
        (1, 2, 3, 3, 8),  # m=1: rank-one reference moment
        (5, 1, 1, 3, 8),  # p=1, d=1: scalar moments
        (4, 3, 1, 2, 6),  # p=1 with several components
        (7, 2, 2, 1, 10),  # a single estimator
        (5, 2, 3, 3, 0),  # n_samples=0: only the reference itself
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_extremal_matches_per_sample_definition(m, d, p, n_ests, n_samples, seed):
    rng = np.random.default_rng([m, d, p, n_ests, n_samples, seed])
    a = random_ensemble(rng, m=m, d=d, p=p)
    spec = random_baseline(rng, d * p, scale=0.4)
    rep = random_representation(rng, d, p)
    ests = [random_estimator(rng, rep) for _ in range(n_ests)]
    floor = float(rng.uniform(0.0, 0.5))
    report = E.verify_extremal(
        a, spec, rep, ests, seed=seed, n_samples=n_samples, shrink_floor=floor
    )
    _, margin, table, violations = _per_sample_report(
        a, spec, rep, ests, seed, n_samples, 1e-9, floor
    )
    costs = table[np.argmax(violations)]
    assert [i for i, _ in report.cost_samples] == list(range(n_samples + 1))
    for (_, got), want in zip(report.cost_samples, costs):
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
    assert report.cost_reference == report.cost_samples[0][1]
    scale = float(np.abs(E.second_moment(a).matrix).max())
    assert abs(report.lambda_min_margin - margin) <= 1e-12 * (1.0 + scale)
    assert report.member


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    deficient=st.booleans(),
    floor=st.sampled_from([0.0, 0.1, 1.0]),
    n_samples=st.sampled_from([0, 1, 5, 12]),
)
def test_verify_extremal_eigenbasis_scores_match_dense_samples(
    seed, deficient, floor, n_samples
):
    # random shapes; a deficient reference has fewer atoms than dimensions,
    # so Sigma_A has a null space that the gap family's R leaves out
    rng = np.random.default_rng(seed)
    d, p = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    dim = d * p
    if deficient and dim > 1:
        m = int(rng.integers(1, dim))
    else:
        m = int(rng.integers(dim, dim + 5))
    a = random_ensemble(rng, m=m, d=d, p=p)
    spec = random_baseline(rng, dim, scale=0.4)
    rep = random_representation(rng, d, p)
    ests = [random_estimator(rng, rep) for _ in range(int(rng.integers(1, 5)))]
    report = E.verify_extremal(
        a, spec, rep, ests, seed=seed, n_samples=n_samples, shrink_floor=floor
    )
    member, margin, table, violations = _per_sample_report(
        a, spec, rep, ests, seed, n_samples, 1e-9, floor
    )
    assert report.member == member
    # the report carries the estimator of largest violation; violations
    # that tie at round-off (every D = 1 when floor = 1) may pick any of them
    row = int(np.argmin(np.abs(table[:, 0] - report.cost_reference)))
    assert violations[row] >= violations.max() - 1e-12 * np.abs(table[:, 0]).max()
    got = np.array([c for _, c in report.cost_samples])
    assert np.all(np.abs(got - table[row]) <= 1e-12 * np.abs(table[row]))
    lam_max = float(np.linalg.eigvalsh(E.second_moment(a).matrix)[-1])
    assert abs(report.lambda_min_margin - margin) <= 1e-12 * lam_max
    # the dense rule the engine no longer runs accepts every realized moment
    # (second_moment builds a BlockCovariance, which holds it to that rule)
    for sample in E.sample_dominated(a, seed, n_samples, floor):
        E.second_moment(sample)

    # the scorer and the realization read any gap: a stub family with its own
    # random orthonormal Q_s per sample must score, and realize, the dense
    # S_s = Sigma_A - R Q_s diag(s_s) Q_s^T R^T
    sigma = E.second_moment(a)
    family = envelope._gaps(sigma, seed, n_samples, floor)
    rank = family.root.shape[1]
    bases = np.linalg.qr(rng.standard_normal((n_samples, rank, rank)))[0]
    scales = rng.uniform(0.0, 1.0, (n_samples, rank))
    factors = family.root @ bases
    gap_mats = (factors * scales[:, None, :]) @ factors.swapaxes(1, 2)
    stub = family._replace(
        bases=bases, scales=scales, margins=np.linalg.eigvalsh(gap_mats)[:, 0]
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "_gaps", lambda *args: stub)
        report = E.verify_extremal(
            a, spec, rep, ests, seed=seed, n_samples=n_samples, shrink_floor=floor
        )
        samples = E.sample_dominated(a, seed, n_samples, floor)
    moments = np.concatenate([sigma.matrix[None], sigma.matrix - gap_mats]) + spec.matrix
    maps = [residual_map(spec, rep, est) for est in ests]
    table = np.array([((w @ moments) * w).sum(axis=(1, 2)) for w in maps])
    row = int(np.argmin(np.abs(table[:, 0] - report.cost_reference)))
    got = np.array([c for _, c in report.cost_samples])
    assert np.all(np.abs(got - table[row]) <= 1e-12 * np.abs(table[row]))
    # a realization mixes whitened coordinates (R^+ x) across directions, so
    # the atoms' round-off grows by up to sqrt(L_max / L_min) over R
    lams = (family.root**2).sum(axis=0)
    mixing = np.sqrt(lams.max() / lams.min())
    scale = np.abs(sigma.matrix).max()
    for sample, want in zip(samples, moments[1:] - spec.matrix, strict=True):
        assert np.abs(E.second_moment(sample).matrix - want).max() <= 1e-12 * scale * mixing
    # C_s^{1/2} is the symmetric root: a zero gap leaves every atom in place,
    # whatever Q_s
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "_gaps", lambda *args: stub._replace(scales=0.0 * scales))
        for sample in E.sample_dominated(a, seed, n_samples, floor):
            err = np.abs(sample.values - a.values).max()
            assert err <= 1e-12 * np.abs(a.values).max() * mixing


def test_verify_extremal_rejects_a_representation_of_another_width():
    rng = np.random.default_rng(8)
    a = random_ensemble(rng, m=4, d=2, p=2)
    rep = random_representation(rng, 1, 3)
    with pytest.raises(E.ShapeMismatch, match="ensemble dimension"):
        E.verify_extremal(
            a, baseline(np.zeros((4, 4))), rep, [random_estimator(rng, rep)], seed=0, n_samples=2
        )


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-8, 8),
    accepted=st.booleans(),
)
def test_verify_extremal_verdict_is_scale_free(seed, k, accepted):
    # every sample's gap is -eps Sigma_A (signed scales -eps), so it is not
    # dominated (the converse of the principle) and, with no baseline,
    # each estimator's violation is eps times its reference cost: half or
    # twice the slack DEFAULT_TOL * cost. The verdict must read the same
    # when the ensemble is rescaled
    rng = np.random.default_rng(seed)
    a = random_ensemble(rng, m=6, d=2, p=2)
    spec = baseline(np.zeros((4, 4)))
    rep = random_representation(rng, 2, 2)
    ests = [random_estimator(rng, rep) for _ in range(3)]
    eps = (0.5 if accepted else 2.0) * DEFAULT_TOL

    gaps = envelope._gaps

    def expanding(sigma, seed, n_samples, shrink_floor):
        family = gaps(sigma, seed, n_samples, shrink_floor)
        lam_max = np.linalg.eigvalsh(sigma.matrix)[-1]
        return family._replace(
            scales=np.full_like(family.scales, -eps),
            margins=np.full(n_samples, -eps * lam_max),
        )

    scaled = E.SourceEnsemble(space=a.space, values=10.0 ** (k / 2) * a.values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "_gaps", expanding)
        report = E.verify_extremal(scaled, spec, rep, ests, seed=0, n_samples=3)
    assert report.member == accepted
    assert report.max_violation == pytest.approx(eps * report.cost_reference, rel=1e-3)
    assert report.lambda_min_margin < 0.0


def _split_first_atom(a):
    weights = np.concatenate([[0.5, 0.5] * a.space.weights[:1], a.space.weights[1:]])
    values = np.concatenate([a.values[:1], a.values])
    return E.SourceEnsemble(space=E.MeasureSpace(weights=weights), values=values)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31))
def test_verify_extremal_depends_on_atoms_only_through_moments(seed):
    rng = np.random.default_rng(seed)
    a = random_ensemble(rng)
    spec = random_baseline(rng, a.d * a.p, scale=0.4)
    rep = random_representation(rng, a.d, a.p)
    ests = [random_estimator(rng, rep) for _ in range(3)]
    base = E.verify_extremal(a, spec, rep, ests, seed=5, n_samples=6)
    order = rng.permutation(a.space.m)
    permuted = E.SourceEnsemble(
        space=E.MeasureSpace(weights=a.space.weights[order]), values=a.values[order]
    )
    for variant in (permuted, _split_first_atom(a)):
        other = E.verify_extremal(variant, spec, rep, ests, seed=5, n_samples=6)
        assert other.member == base.member
        assert other.cost_reference == pytest.approx(base.cost_reference, rel=1e-12)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is plain double on this platform",
)
@pytest.mark.parametrize("seed", range(6))
def test_verify_extremal_scores_a_deep_sample_without_cancellation(seed):
    # samples that keep D^2 ~ 1e-3 of every retained direction cost about
    # 1e-3 of the reference; scored as the sum of what they keep, the series
    # matches a long-double evaluation of the realized samples to 1e-13 of
    # each sample's own cost, where ref minus the gap's part would cancel
    rng = np.random.default_rng(seed)
    a = random_ensemble(rng, m=24, d=2, p=4)
    spec = random_baseline(rng, 8, scale=1e-4)
    rep = random_representation(rng, 2, 4)
    est = random_estimator(rng, rep)
    family = envelope._gaps(E.second_moment(a), seed, 6, 0.0)
    keep = rng.uniform(0.02, 0.04, family.scales.shape) ** 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "_gaps", lambda *args: family._replace(scales=1.0 - keep))
        report = E.verify_extremal(a, spec, rep, [est], seed=seed, n_samples=6)
        samples = E.sample_dominated(a, seed, 6)
    w = residual_map(spec, rep, est).astype(np.longdouble)
    for (_, got), sample in zip(report.cost_samples[1:], samples, strict=True):
        flat = sample.flat_values.astype(np.longdouble)
        moment = (flat * sample.space.weights[:, None]).T @ flat + spec.matrix
        want = float(((w @ moment) * w).sum())
        assert want < 3e-3 * report.cost_reference
        assert abs(got - want) <= 1e-13 * want


def test_an_estimator_scores_the_same_alone_and_inside_a_stack():
    # the stack is scored at once: estimator 0 alone and first of five gives
    # the same cost row, and each slot's residual map is its estimator's
    rng = np.random.default_rng(31)
    a = random_ensemble(rng, m=6, d=2, p=3)
    spec = random_baseline(rng, 6, scale=0.3)
    rep = random_representation(rng, 2, 3, p_out=4, q=5)
    stack = rng.standard_normal((5, rep.p_out, rep.q))
    alone = E.verify_extremal(a, spec, rep, stack[:1], seed=4, n_samples=12)
    inside = E.verify_extremal(a, spec, rep, stack, seed=4, n_samples=12)
    row = np.array([c for _, c in alone.cost_samples])
    got = np.array([c for _, c in inside.cost_samples])
    assert np.all(np.abs(got - row) <= 1e-14 * np.abs(row))
    maps = residual_map(spec, rep, stack)
    for est, w in zip(stack, maps, strict=True):
        want = residual_map(spec, rep, est)
        assert np.abs(w - want).max() <= 1e-14 * np.abs(want).max()


def test_verify_extremal_takes_one_nonempty_stack():
    rng = np.random.default_rng(32)
    a = random_ensemble(rng, m=4, d=1, p=3)
    rep = random_representation(rng, 1, 3)
    spec = baseline(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="at least one"):
        E.verify_extremal(a, spec, rep, np.zeros((0, rep.p_out, rep.q)), seed=0, n_samples=2)
    with pytest.raises(E.ShapeMismatch, match="stack"):
        E.verify_extremal(a, spec, rep, random_estimator(rng, rep), seed=0, n_samples=2)
