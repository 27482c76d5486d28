#!/usr/bin/env python3
"""Mutation gate: run the tier-1 tests against each reviewed mutant.

    python3 scripts/mutants.py

Each mutant replaces one exact string in one file of the package, and
that string must occur there exactly once, with a patched module that
still compiles (both checked before anything runs). Mutants run one at a
time: the repository is copied to a temporary directory, the one patch
is applied there, and the tier-1 tests run with -x in one child process
at one BLAS thread, under a wall-clock timeout (TIMEOUT_S) and an
address-space limit (RLIMIT_AS at MEMORY_LIMIT). The test that holds
each pattern to one occurrence is deselected there, as a patched copy
fails it by construction; the unpatched copy runs first and must pass. A
mutant is killed when the tests fail, survived when they pass, and
timeout when the clock runs out.

Prints one line per mutant, then the count of each class, then one JSON
line with the names in each class and the kill ratio: killed over all
mutants.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src/envmm")
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work-*", "demo_results"
)


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str


TIMEOUT_S = 300.0
MEMORY_LIMIT = 4 * 2**30
IF_FALSE = "if False:"
PATTERN_TEST = "tests/test_scripts.py::test_every_mutant_pattern_matches_once"

MUTANTS = (
    # verdict rules and tolerances
    Mutant("within_slack_strict", "covariance.py",
           "(statistic >= -tol * floor)", "(statistic > -tol * floor)"),
    Mutant("retained_at_ties", "covariance.py",
           "evals > rank_tol * max(top", "evals >= rank_tol * max(top"),
    Mutant("consistency_rtol_loose", "covariance.py",
           "CONSISTENCY_RTOL = 1e-8", "CONSISTENCY_RTOL = 1e-4"),
    Mutant("psd_tol_loose", "covariance.py", "PSD_TOL = 1e-10", "PSD_TOL = 1e-4"),
    Mutant("loewner_scale_one", "covariance.py",
           "within_slack(spectrum[0], np.abs(big.matrix).max(), tol)",
           "within_slack(spectrum[0], 1.0, tol)"),
    Mutant("symmetry_check_removed", "covariance.py",
           "if not within_slack(-np.abs(mat - mat.T).max(), np.abs(mat).max(), SYM_RTOL):",
           IF_FALSE),
    # guards
    Mutant("energy_guard_removed", "cost_minimizer.py",
           "if self.target_energy < 0:", IF_FALSE),
    Mutant("extremal_dimension_check_removed", "envelope.py",
           "if a.d * a.p != rep.d * rep.p:", IF_FALSE),
    Mutant("shrink_floor_check_removed", "envelope.py",
           "if not 0.0 <= shrink_floor <= 1.0:", IF_FALSE),
    Mutant("embedding_check_removed", "stationary.py", "if not psd(evals):", IF_FALSE),
    Mutant("kernel_length_check_removed", "stationary.py",
           "if tk.size > n or ok.size > n:", IF_FALSE),
    Mutant("observed_overflow_check_removed", "stationary.py",
           "if not (np.isfinite(syx).all() and np.isfinite(sxx).all()):", IF_FALSE),
    Mutant("wss_shape_check_removed", "stationary.py",
           "if sa.shape[1:] != sb.shape[1:]:", IF_FALSE),
    Mutant("element_budget_removed", "cli.py", "if elements > ELEMENT_BUDGET:", IF_FALSE),
    Mutant("estimator_stack_ndim_unchecked", "cost_minimizer.py",
           "if est.ndim not in (2, 3) or est.shape", "if est.shape"),
    # the one PSD rule and the errors that name seq
    Mutant("oracle_own_psd_rule", "stationary.py",
           "if not psd(evals):", "if not within_slack(emb_min, np.abs(sd).max()):"),
    Mutant("negative_sxx_not_degenerate", "stationary.py",
           'raise DegenerateSpec("sxx must be nonnegative',
           'raise ValueError("sxx must be nonnegative'),
    # the solution set and the push-forward's symmetrization
    Mutant("unique_with_a_kernel_line", "cost_minimizer.py",
           "self.kernel_basis.shape[0] == 0", "self.kernel_basis.shape[0] <= 1"),
    Mutant("push_forward_sum_first", "covariance.py",
           "out = 0.5 * out + 0.5 * out.T", "out = 0.5 * (out + out.T)"),
    # report fields and exit codes
    Mutant("member_true", "envelope.py",
           "member=within_slack(-violations, refs, tol),", "member=True,"),
    Mutant("minimize_range_violation_zero", "cli.py",
           '"range_violation": outcome.range_violation}', '"range_violation": 0.0}'),
    Mutant("residual_zero", "cli.py",
           '"residual": cm.residual_norm(system, outcome.t0),', '"residual": 0.0,'),
    Mutant("worst_margin_zero", "cli.py",
           '"worst_margin": float(margins[worst]),', '"worst_margin": 0.0,'),
    Mutant("transfer_margin_zero", "cli.py",
           '"transfer_margin": float(spectrum[0]),', '"transfer_margin": 0.0,'),
    Mutant("elliptic_exit_code_zero", "cli.py",
           'code = 0 if transfer_ok and not report["no_minimizer"] else 2', "code = 0"),
    Mutant("max_symbol_gap_zero", "stationary.py",
           "max_symbol_gap=float(gaps.max()),", "max_symbol_gap=0.0,"),
    Mutant("leakage_zero", "stationary.py",
           "off_diagonal_leakage=leakage,", "off_diagonal_leakage=0.0,"),
    # realizations and bounds
    Mutant("baseline_seed_mixing_removed", "envelope.py",
           "aux_values = mix @ aux_values", "aux_values = aux_values"),
    Mutant("bound_constant_one", "cost_minimizer.py", "(2.0 + np.sqrt(2.0))", "1.0"),
    # the dominated-sample family: its gaps, margins and realization
    Mutant("gap_sign_flipped", "envelope.py",
           "weights, 1.0 - gaps.scales)", "weights, 1.0 + gaps.scales)"),
    Mutant("margin_without_rayleigh", "envelope.py",
           "(lams * scales).min(", "scales.min("),
    Mutant("margin_null_space_dropped", "envelope.py",
           "initial=np.inf if kept.all() else 0.0", "initial=np.inf"),
    Mutant("realization_without_pinv", "envelope.py",
           "reference.flat_values @ gaps.co_root.T", "reference.flat_values @ gaps.root"),
    Mutant("realization_unrooted", "envelope.py",
           "np.sqrt(1.0 - gaps.scales)", "(1.0 - gaps.scales)"),
    Mutant("realization_root_unsymmetric", "envelope.py",
           "gaps.co_root.T @ gaps.bases", "gaps.co_root.T"),
    # the one weighted-Gram kernel
    Mutant("gram_weighted_twice", "measure_ensemble.py",
           "rows * np.sqrt(w)[:, None]", "rows * w[:, None]"),
    # the pseudoinverse's masked divide
    Mutant("divide_where_dropped", "cost_minimizer.py", "where=kept)", "where=~kept)"),
    Mutant("divide_ones_fill", "cost_minimizer.py",
           "out=np.zeros_like(cross_modes)", "out=np.ones_like(cross_modes)"),
    # the oracle's half-spectrum read-out
    Mutant("mirror_conj_dropped", "stationary.py",
           "np.conj(head[1 : (n + 1) // 2][::-1])", "head[1 : (n + 1) // 2][::-1]"),
    Mutant("mirror_unreversed", "stationary.py",
           "np.conj(head[1 : (n + 1) // 2][::-1])", "np.conj(head[1 : (n + 1) // 2])"),
    Mutant("half_rows_off_by_one", "stationary.py",
           "rows = np.arange(n // 2 + 1)", "rows = np.arange(n // 2)"),
    Mutant("diagonal_left_unzeroed", "stationary.py", "        half[rows, rows] = 0\n", ""),
    # the oracle's per-frequency wave table
    Mutant("wave_table_shifted", "stationary.py",
           "np.outer(np.arange(n // 2 + 1), ticks)", "np.outer(np.arange(1, n // 2 + 2), ticks)"),
    # the elliptic solve's closed form for a constant forcing
    Mutant("constant_kappa_continuum", "representation.py",
           "kappa = 2 * n_x * math.asinh(root / (2 * n_x))", "kappa = root"),
    Mutant("constant_factor_unreversed", "representation.py",
           "np.multiply(a * a[::-1] * scale,", "np.multiply(a * a * scale,"),
    Mutant("constant_exp_scale_dropped", "representation.py",
           "scale = 1.0 / (1.0 + math.exp(-kappa))", "scale = 1.0"),
    Mutant("constant_flat_scale_one", "representation.py",
           "a, scale = np.arange(1.0, n_x) / n_x, 0.5", "a, scale = np.arange(1.0, n_x) / n_x, 1.0"),
    # the CLI's number rule
    Mutant("string_numbers_accepted", "cli.py",
           'if arr.dtype.kind not in "iuf" or arr.ndim != ndim:', "if arr.ndim != ndim:"),
    Mutant("bool_numbers_accepted", "cli.py",
           "if suspect.size and any(", "if False and any("),
)


def pattern_problems() -> list[str]:
    """One message per mutant whose pattern does not occur exactly once or
    whose patched module does not compile, and per duplicated mutant name:
    a mutant that only breaks the syntax is killed by the import alone."""
    problems = []
    names = [m.name for m in MUTANTS]
    problems += [f"duplicate mutant name {n}" for n in sorted(set(names)) if names.count(n) > 1]
    for m in MUTANTS:
        source = (ROOT / PACKAGE / m.module).read_text()
        count = source.count(m.old)
        if count != 1:
            problems.append(f"{m.name}: pattern occurs {count} times in {m.module}")
            continue
        try:
            compile(source.replace(m.old, m.new), m.module, "exec")
        except SyntaxError as exc:
            problems.append(f"{m.name}: the patched {m.module} does not compile: {exc}")
    return problems


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_mutant(m: Mutant | None) -> str:
    """Apply m (None: no patch) to a fresh copy of the repository and run
    tier-1 there."""
    with tempfile.TemporaryDirectory(prefix="envmm-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        if m is not None:
            target = copy / PACKAGE / m.module
            target.write_text(target.read_text().replace(m.old, m.new, 1))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--deselect", PATTERN_TEST]
        try:
            done = subprocess.run(
                cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S,
                preexec_fn=_limit_memory,
            )
        except subprocess.TimeoutExpired:
            return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.parse_args(argv)
    problems = pattern_problems()
    if problems:
        for line in problems:
            print(f"error: {line}", file=sys.stderr)
        return 1
    baseline = run_mutant(None)
    if baseline != "survived":
        print(f"error: the unpatched tests did not pass ({baseline})", file=sys.stderr)
        return 1
    classes: dict[str, list[str]] = {"killed": [], "survived": [], "timeout": []}
    for m in MUTANTS:
        start = time.monotonic()
        outcome = run_mutant(m)
        classes[outcome].append(m.name)
        print(f"{outcome:<10} {m.name} {time.monotonic() - start:.1f}s", flush=True)
    ratio = len(classes["killed"]) / len(MUTANTS)
    print(" ".join(f"{key} {len(names)}" for key, names in classes.items()))
    print(json.dumps({**classes, "kill_ratio": ratio}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
