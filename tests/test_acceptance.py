"""End-to-end acceptance checks, one test per numbered criterion.

Each test produces a single PASS/FAIL line with its measured statistic;
the lines are replayed in an 'acceptance criteria' section at the end of
the pytest run (see conftest), and the asserts carry the same condition.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import acceptance_log
import envmm as E
import envmm.cli as cli
from helpers import (
    coefficient_diagonal_representation,
    contracted_ensemble,
    random_baseline_spec,
    random_ensemble,
    random_estimator,
    random_representation,
    random_sequence,
    scaled_sequence,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _emit(ok: bool, ident: str, stat: str) -> bool:
    line = f"{'PASS' if ok else 'FAIL'}  {ident}: {stat}"
    print(line)
    acceptance_log.record(line)
    return ok


def test_01_worst_case_attained_on_dominated_samples():
    rng = np.random.default_rng(20260819)
    t0 = time.monotonic()
    all_member = True
    worst_rel_violation = 0.0
    worst_drift = 0.0
    for k in range(50):
        d = int(rng.integers(1, 4))
        p = int(rng.integers(1, 9))
        m = int(rng.integers(1, 65))
        a = random_ensemble(rng, m=m, d=d, p=p)
        spec = random_baseline_spec(rng, d * p, scale=0.5)
        rep = random_representation(rng, d, p)
        ests = [random_estimator(rng, rep) for _ in range(5)]
        report = E.verify_extremal(
            a, spec, rep, ests, seed=1000 + k, n_samples=20, tol=1e-9
        )
        all_member &= report.member
        ref = report.cost_reference
        worst_rel_violation = max(
            worst_rel_violation, report.max_violation / (1.0 + ref)
        )
        sid, c0 = report.cost_samples[0]
        assert sid == 0
        worst_drift = max(worst_drift, abs(c0 - ref) / (1.0 + ref))
    elapsed = time.monotonic() - t0
    ok = (
        all_member
        and worst_rel_violation <= 1e-9
        and worst_drift <= 1e-12
        and elapsed < 10.0
    )
    assert _emit(
        ok,
        "01 worst-case attainment",
        f"50 configs x 20 samples x 5 estimators, max rel violation "
        f"{worst_rel_violation:.2e}, identity-sample drift {worst_drift:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_02_cost_invariant_across_baseline_realizations():
    rng = np.random.default_rng(2)
    worst_gap = 0.0
    worst_cross = 0.0
    for k in range(50):
        a = random_ensemble(rng)
        spec = random_baseline_spec(rng, a.d * a.p)
        rep = random_representation(rng, a.d, a.p)
        est = random_estimator(rng, rep)
        costs = []
        for seed in (2 * k, 2 * k + 1):
            lifted, xi = E.fit_baseline(a, spec, seed=seed)
            costs.append(E.cost(E.apply(rep, lifted, xi), est))
            worst_cross = max(
                worst_cross, float(np.abs(E.cross_moment(lifted, xi)).max())
            )
        worst_gap = max(worst_gap, abs(costs[0] - costs[1]) / (1.0 + costs[0]))
    ok = worst_gap <= 1e-10 and worst_cross <= 1e-12
    assert _emit(
        ok,
        "02 baseline-choice invariance",
        f"50 cases, max rel cost drift {worst_gap:.2e}, "
        f"max cross moment {worst_cross:.2e}",
    )


def test_03_decomposition_matches_realized_cost():
    rng = np.random.default_rng(3)
    worst = 0.0
    for k in range(100):
        a = random_ensemble(rng)
        spec = random_baseline_spec(rng, a.d * a.p)
        rep = random_representation(rng, a.d, a.p)
        est = random_estimator(rng, rep, scale=float(rng.uniform(0.2, 2.0)))
        lifted, xi = E.fit_baseline(a, spec, seed=k)
        realized = E.cost(E.apply(rep, lifted, xi), est)
        split = E.cost_decomposed(a, spec, rep, est)
        worst = max(worst, abs(split.total - realized) / (1.0 + realized))
    ok = worst <= 1e-10
    assert _emit(
        ok, "03 cost decomposition", f"100 cases, max rel gap {worst:.2e}"
    )


def test_04_normal_equations_solve_the_minimization():
    rng = np.random.default_rng(4)
    worst_residual = 0.0
    worst_probe = 0.0
    worst_flat = 0.0
    deficient = 0
    for k in range(100):
        # alternate full-rank and rank-deficient observation geometry
        a = random_ensemble(rng, m=int(rng.integers(2, 10)))
        q = int(rng.integers(1, 7))
        if k % 2:
            q = a.space.m + int(rng.integers(1, 4))  # forces a Gram kernel
        rep = random_representation(rng, a.d, a.p, q=q)
        obs = E.apply(rep, a)
        sys_ = E.assemble_normal_equations(obs)
        sol = E.solution_set(sys_)
        assert isinstance(sol, E.SolutionSet), "observed systems are consistent"
        est = sol.t0
        scale = 1.0 + float(np.linalg.norm(sys_.cross, "fro"))
        worst_residual = max(worst_residual, E.residual_norm(sys_, est) / scale)
        base = E.cost(obs, est)
        delta = rng.standard_normal(est.coeffs.shape)
        probe = E.HSOperator(coeffs=est.coeffs + 1e-3 * delta)
        worst_probe = max(
            worst_probe, (base - E.cost(obs, probe)) / (1.0 + base)
        )
        if not sol.unique:
            deficient += 1
            shift = rng.standard_normal(
                (est.p_out, sol.kernel_basis.shape[0])
            )
            moved = E.HSOperator(
                coeffs=est.coeffs + shift @ sol.kernel_basis
            )
            worst_flat = max(
                worst_flat,
                abs(E.system_cost(sys_, moved) - E.system_cost(sys_, est))
                / (1.0 + abs(base)),
            )
    out_of_range = E.solve_pseudoinverse(
        E.NormalEquationSystem(
            gram=np.diag([1.0, 0.0]), cross=np.array([[2.0, 3.0]]), target_energy=9.0
        )
    )
    in_range = E.solve_pseudoinverse(
        E.NormalEquationSystem(
            gram=np.diag([1.0, 0.0]), cross=np.array([[2.0, 0.0]]), target_energy=9.0
        )
    )
    typed_ok = (
        isinstance(out_of_range, E.NoMinimizer)
        and out_of_range.range_violation == pytest.approx(3.0)
        and isinstance(in_range, E.HSOperator)
    )
    ok = (
        worst_residual <= 1e-8
        and worst_probe <= 1e-12
        and worst_flat <= 1e-10
        and deficient >= 10
        and typed_ok
    )
    assert _emit(
        ok,
        "04 normal-equation optimality",
        f"100 systems ({deficient} rank-deficient), max rel residual "
        f"{worst_residual:.2e}, worst probe improvement {worst_probe:.2e}, "
        f"kernel flatness {worst_flat:.2e}, typed outcomes ok={typed_ok}",
    )


def test_05_minimal_norm_selection_is_strict():
    rng = np.random.default_rng(5)
    min_margin = np.inf
    for _ in range(30):
        q = int(rng.integers(3, 8))
        r = int(rng.integers(1, q))  # strict deficiency
        rows = int(rng.integers(1, 4))
        root = rng.standard_normal((r, q))
        gram = root.T @ root
        cross = rng.standard_normal((rows, r)) @ root @ gram
        sys_ = E.NormalEquationSystem(
            gram=gram, cross=cross, target_energy=100.0
        )
        sol = E.solution_set(sys_)
        assert isinstance(sol, E.SolutionSet) and not sol.unique
        shift = rng.standard_normal((rows, sol.kernel_basis.shape[0]))
        shift /= np.linalg.norm(shift, "fro")
        moved = E.HSOperator(coeffs=sol.t0.coeffs + shift @ sol.kernel_basis)
        min_margin = min(min_margin, moved.hs_norm - sol.t0.hs_norm)
    ok = min_margin > 1e-12
    assert _emit(
        ok,
        "05 minimal-norm anchor",
        f"30 rank-deficient systems, min norm margin {min_margin:.2e}",
    )


def test_06_grid_domination_matches_dense_covariance():
    rng = np.random.default_rng(6)
    n = 64
    worst_mismatch = 0.0
    verdicts_agree = True
    for _ in range(20):
        sa = random_sequence(rng, max_lag=4)
        sb = scaled_sequence(sa, float(rng.uniform(0.3, 1.2)))
        da, db = E.spectral_density(sa, n), E.spectral_density(sb, n)
        ok_freq, (_, margin_freq) = E.wss_envelope_test(da, db)
        min_freq = float(E.spectral_margins(da, db).min())
        gap = E.circulant_matrix(sa, n) - E.circulant_matrix(sb, n)
        min_time = float(np.linalg.eigvalsh(gap)[0])
        worst_mismatch = max(
            worst_mismatch, abs(min_freq - min_time) / (1.0 + abs(min_freq))
        )
        scale = 1.0 + float(np.abs(da.values).max())
        ok_time = min_time >= -1e-9 * scale
        verdicts_agree &= ok_freq == ok_time
        assert margin_freq == pytest.approx(min_freq, abs=1e-12)
    ok = worst_mismatch <= 1e-9 and verdicts_agree
    assert _emit(
        ok,
        "06 frequency vs dense order",
        f"20 pairs at n=64, max margin mismatch {worst_mismatch:.2e}, "
        f"verdicts agree={verdicts_agree}",
    )


def test_07_filter_ratio_agrees_with_independent_grid_solver():
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    worst_gap = 0.0
    for seed in range(10):
        seq = random_sequence(rng, max_lag=4)
        model = E.LTIModel.from_impulse_response(
            [1.0, 0.5, 0.25], [0.8, -0.3], 64
        )
        report = E.circulant_oracle(seq, model, 64, seed=seed)
        worst_gap = max(worst_gap, report.max_symbol_gap)
    white = E.CovarianceSequence.from_nonneg_lags(
        np.array([[[1.0, 0.4], [0.4, 1.0]]])
    )
    white_report = E.circulant_oracle(
        white, E.LTIModel.from_impulse_response([0.7], [1.0], 64), 64, seed=0
    )
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-6 and white_report.max_symbol_gap <= 1e-10 and elapsed < 5.0
    assert _emit(
        ok,
        "07 frequency-ratio oracle",
        f"10 seeds at n=64 lags<=4, max symbol gap {worst_gap:.2e}, "
        f"white-noise gap {white_report.max_symbol_gap:.2e}, {elapsed:.2f}s",
    )


def test_08_truncation_errors_shrink_and_vanish():
    rng = np.random.default_rng(8)
    monotone = True
    exact_zero = True
    for _ in range(20):
        d = int(rng.integers(1, 4))
        p = int(rng.integers(2, 7))
        a = random_ensemble(rng, d=d, p=p)
        rep = coefficient_diagonal_representation(rng, d, p)
        n_out = min(rep.p_out, rep.q)
        aggs = [
            E.truncation_residual(rep, a, n, n_out)[1]
            for n in range(1, p + 1)
        ]
        slack = 1e-12 * (1.0 + aggs[0])
        monotone &= all(hi + slack >= lo for hi, lo in zip(aggs, aggs[1:]))
        exact_zero &= aggs[-1] == 0.0
    ok = monotone and exact_zero
    assert _emit(
        ok,
        "08 truncation residuals",
        f"20 ensembles, nonincreasing={monotone}, exact zero at full "
        f"level={exact_zero}",
    )


def test_09_domination_survives_linear_transfer():
    rng = np.random.default_rng(9)
    min_margin = np.inf
    all_ok = True
    for k in range(100):
        a = random_ensemble(rng, d=2, p=3)
        b = contracted_ensemble(rng, a)
        if k % 10 == 0:
            cfg = E.EllipticConfig(
                n_x=32,
                potential=float(rng.uniform(0.0, 2.0)),
                bump_width=0.15,
                bump_centers=(0.35, 0.65),
                alphas=(1.0, float(rng.uniform(0.2, 1.5))),
                basis_dim=3,
            )
            rep, _ = E.build_elliptic_representation(cfg)
            lmap = rep.target_map
        else:
            lmap = rng.standard_normal((int(rng.integers(1, 8)), 6))
        ok, margin = E.loewner_dominates(
            E.push_forward(lmap, E.second_moment(a)),
            E.push_forward(lmap, E.second_moment(b)),
            tol=1e-9,
        )
        all_ok &= ok
        min_margin = min(min_margin, margin)
    assert _emit(
        all_ok,
        "09 order transfer",
        f"100 push-forward triples (10 elliptic-built), min margin "
        f"{min_margin:.2e}",
    )


def test_10_elliptic_functional_second_order():
    errors = {}
    for n_x in (32, 64, 128):
        value = E.green_functional(n_x, 0.0, np.ones(n_x - 1), np.ones(n_x - 1))
        errors[n_x] = abs(value - 1.0 / 12.0)
    o1 = np.log2(errors[32] / errors[64])
    o2 = np.log2(errors[64] / errors[128])
    ok = min(o1, o2) >= 1.9
    assert _emit(
        ok,
        "10 elliptic convergence",
        f"grid limit 1/12, observed orders {o1:.3f}, {o2:.3f}",
    )


def test_11_cost_gap_within_continuity_bound():
    rng = np.random.default_rng(11)
    violations = 0
    worst_ratio = 0.0
    for k in range(100):
        a1 = random_ensemble(rng)
        step = 10.0 ** rng.uniform(-3, 0.5)
        a2 = E.SourceEnsemble(
            space=a1.space,
            values=a1.values + step * rng.standard_normal(a1.values.shape),
        )
        rep = random_representation(rng, a1.d, a1.p)
        est = random_estimator(rng, rep, scale=float(10.0 ** rng.uniform(-1, 0.7)))
        spec = E.BaselineSpec(sigma_xi=np.zeros((a1.d * a1.p,) * 2))
        gap = abs(
            E.cost_decomposed(a1, spec, rep, est).source_part
            - E.cost_decomposed(a2, spec, rep, est).source_part
        )
        bound = E.cost_difference_bound(a1, a2, rep, est)
        if gap > bound:
            violations += 1
        if bound > 0:
            worst_ratio = max(worst_ratio, gap / bound)
    # adversarial corner: opposite-sign maps make the energies add
    space = E.MeasureSpace(weights=np.array([1.0]))
    a1 = E.SourceEnsemble(space=space, values=np.array([[[1.0]]]))
    a2 = E.SourceEnsemble(space=space, values=np.array([[[0.0]]]))
    rep = E.RepresentationOperator(
        target_map=np.array([[1.0]]), input_map=np.array([[-1.0]]), d=1, p=1
    )
    est = E.HSOperator(coeffs=np.array([[1.0]]))
    spec = E.BaselineSpec(sigma_xi=np.zeros((1, 1)))
    gap = abs(
        E.cost_decomposed(a1, spec, rep, est).source_part
        - E.cost_decomposed(a2, spec, rep, est).source_part
    )
    if gap > E.cost_difference_bound(a1, a2, rep, est):
        violations += 1
    ok = violations == 0
    assert _emit(
        ok,
        "11 continuity bound",
        f"101 ensemble pairs, violations {violations}, worst gap/bound "
        f"{worst_ratio:.3f}",
    )


def test_12_reports_are_byte_deterministic(tmp_path):
    kinds = (
        "envelope_check",
        "minimize",
        "verify_extremal",
        "wss_envelope",
        "wss_filter",
        "elliptic_demo",
    )
    identical = True
    for kind in kinds:
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / kind / tag
            code = cli.run(CONFIG_DIR / f"{kind}.json", out_dir=out)
            assert code == 0, f"{kind} config failed"
            paths.append(out)
        identical &= (paths[0] / "report.json").read_bytes() == (
            paths[1] / "report.json"
        ).read_bytes()
        identical &= (paths[0] / "series.csv").read_bytes() == (
            paths[1] / "series.csv"
        ).read_bytes()
    assert _emit(
        identical,
        "12 deterministic reports",
        f"{len(kinds)} bundled configs run twice, reports and series "
        f"byte-identical={identical}",
    )
