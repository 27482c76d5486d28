import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envmm as E
from helpers import (
    random_baseline_spec,
    random_ensemble,
    random_estimator,
    random_representation,
)


def test_membership_reflexive():
    rng = np.random.default_rng(1)
    a = random_ensemble(rng, m=5, d=2, p=3)
    ok, margin = E.is_member(a, a)
    assert ok
    assert abs(margin) <= 1e-10


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
        ok, margin = E.is_member(sample, a, tol=1e-12)
        assert ok, margin


def test_sampler_unit_floor_reproduces_reference():
    rng = np.random.default_rng(5)
    a = random_ensemble(rng, m=3, d=1, p=4)
    (sample,) = E.sample_dominated(a, seed=0, n_samples=1, shrink_floor=1.0)
    np.testing.assert_allclose(sample.values, a.values, atol=1e-12)


def test_sampler_actually_moves():
    rng = np.random.default_rng(6)
    a = random_ensemble(rng, m=3, d=1, p=4)
    (sample,) = E.sample_dominated(a, seed=0, n_samples=1)
    assert E.ensemble_distance(sample, a) > 1e-3


def test_fit_baseline_zero_spec_returns_source_unchanged():
    rng = np.random.default_rng(7)
    a = random_ensemble(rng, m=4, d=2, p=2)
    spec = E.BaselineSpec(sigma_xi=np.zeros((4, 4)))
    lifted, xi = E.fit_baseline(a, spec, seed=0)
    assert lifted.space.same_as(a.space)
    np.testing.assert_array_equal(lifted.values, a.values)
    assert not xi.values.any()


def test_fit_baseline_scalar_atoms_are_signs():
    # rank one, scalar source: auxiliary values must be exactly +-1
    space = E.MeasureSpace(weights=np.array([1.0]))
    a = E.SourceEnsemble(space=space, values=np.array([[[2.0]]]))
    spec = E.BaselineSpec(sigma_xi=np.array([[1.0]]))
    lifted, xi = E.fit_baseline(a, spec, seed=3)
    np.testing.assert_allclose(np.sort(xi.values.ravel()), [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(xi.space.weights, [0.5, 0.5])
    np.testing.assert_array_equal(np.unique(lifted.values), [2.0])


def test_fit_baseline_moments_exact():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = random_ensemble(rng)
        spec = random_baseline_spec(rng, a.d * a.p)
        lifted, xi = E.fit_baseline(a, spec, seed=int(rng.integers(1 << 30)))
        scale = max(1.0, abs(spec.sigma_xi).max())
        err = abs(E.second_moment(xi).matrix - spec.sigma_xi).max()
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
    spec = random_baseline_spec(rng, 4)
    _, xi1 = E.fit_baseline(a, spec, seed=1)
    _, xi2 = E.fit_baseline(a, spec, seed=2)
    assert abs(xi1.values - xi2.values).max() > 1e-6
    np.testing.assert_allclose(
        E.second_moment(xi1).matrix, E.second_moment(xi2).matrix, atol=1e-12
    )


def test_verify_extremal_reference_sample_is_exact():
    rng = np.random.default_rng(10)
    a = random_ensemble(rng, m=5, d=2, p=3)
    spec = random_baseline_spec(rng, 6, scale=0.3)
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
    spec = E.BaselineSpec(sigma_xi=np.zeros((3, 3)))
    rep = random_representation(rng, 1, 3)
    zero = E.HSOperator(coeffs=np.zeros((rep.p_out, rep.q)))
    report = E.verify_extremal(a, spec, rep, [zero], seed=2, n_samples=10)
    assert report.member
    assert report.max_violation <= 0.0 + 1e-12 * (1 + report.cost_reference)


def _per_sample_report(a, spec, rep, ests, seed, n_samples, tol, floor):
    """verify_extremal by its definition: realized samples, one cost each."""
    samples = [a] + E.sample_dominated(a, seed, n_samples, floor)
    margins = [E.is_member(s, a, tol=tol)[1] for s in samples[1:]]
    worst = None
    for est in ests:
        costs = [E.cost_decomposed(s, spec, rep, est).total for s in samples]
        violation = max(c - costs[0] for c in costs)
        if worst is None or violation > worst[0]:
            worst = (violation, costs)
    return min(margins, default=0.0), worst[1]


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
    spec = random_baseline_spec(rng, d * p, scale=0.4)
    rep = random_representation(rng, d, p)
    ests = [random_estimator(rng, rep) for _ in range(n_ests)]
    floor = float(rng.uniform(0.0, 0.5))
    report = E.verify_extremal(
        a, spec, rep, ests, seed=seed, n_samples=n_samples, shrink_floor=floor
    )
    margin, costs = _per_sample_report(a, spec, rep, ests, seed, n_samples, 1e-9, floor)
    assert [i for i, _ in report.cost_samples] == list(range(n_samples + 1))
    for (_, got), want in zip(report.cost_samples, costs):
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
    assert report.cost_reference == report.cost_samples[0][1]
    scale = float(np.abs(E.second_moment(a).matrix).max())
    assert abs(report.lambda_min_margin - margin) <= 1e-12 * (1.0 + scale)
    assert report.member


def _split_first_atom(a):
    weights = np.concatenate([[0.5, 0.5] * a.space.weights[:1], a.space.weights[1:]])
    values = np.concatenate([a.values[:1], a.values])
    return E.SourceEnsemble(space=E.MeasureSpace(weights=weights), values=values)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31))
def test_verify_extremal_depends_on_atoms_only_through_moments(seed):
    rng = np.random.default_rng(seed)
    a = random_ensemble(rng)
    spec = random_baseline_spec(rng, a.d * a.p, scale=0.4)
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


def test_closure_regression_linear_path():
    rng = np.random.default_rng(13)
    a = random_ensemble(rng, m=4, d=1, p=3)
    spec = random_baseline_spec(rng, 3, scale=0.1)
    rep = random_representation(rng, 1, 3)
    est = random_estimator(rng, rep)
    approx = [
        E.SourceEnsemble(space=a.space, values=(1.0 - 1.0 / n) * a.values)
        for n in range(1, 6)
    ]
    report = E.closure_regression(a, approx, rep, spec, est)
    assert report.gaps_within_bound
    assert report.gaps[-1] < report.gaps[0]
    assert report.distances[0] == pytest.approx(E.ensemble_norm(a))


def test_closure_regression_exact_limit_gap_zero():
    rng = np.random.default_rng(14)
    a = random_ensemble(rng, m=3, d=2, p=2)
    spec = random_baseline_spec(rng, 4, scale=0.5)
    rep = random_representation(rng, 2, 2)
    est = random_estimator(rng, rep)
    report = E.closure_regression(a, [a], rep, spec, est)
    assert report.max_gap == 0.0
    assert report.gaps_within_bound
