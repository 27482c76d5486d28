#!/usr/bin/env python3
"""Worst-case attainment and continuity study on random instances.

Draws a random source ensemble, verifies that no dominated sample beats
the reference cost for a family of random estimators, then walks a
sequence of shrinking perturbations and tabulates cost gaps against the
Lipschitz-type bound. Intended as a quick numerical sanity experiment;
all draws are seeded.
"""

import argparse

import numpy as np

import envmm as E


def make_instance(rng, d, p, m):
    source = E.SourceEnsemble(
        space=E.MeasureSpace(weights=rng.uniform(0.2, 1.8, size=m)),
        values=rng.standard_normal((m, d, p)),
    )
    root = rng.standard_normal((d * p, d * p))
    spec = E.BaselineSpec(sigma_xi=0.1 * (root @ root.T) / (d * p))
    rep = E.RepresentationOperator(
        target_map=rng.standard_normal((p, d * p)),
        input_map=rng.standard_normal((p + 1, d * p)),
        d=d,
        p=p,
    )
    return source, spec, rep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--p", type=int, default=4)
    parser.add_argument("--atoms", type=int, default=12)
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--estimators", type=int, default=8)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    source, spec, rep = make_instance(rng, args.d, args.p, args.atoms)
    estimators = [
        E.HSOperator(coeffs=rng.standard_normal((rep.p_out, rep.q)))
        for _ in range(args.estimators)
    ]

    report = E.verify_extremal(
        source, spec, rep, estimators, seed=args.seed, n_samples=args.samples
    )
    print(f"reference cost        {report.cost_reference:.6f}")
    print(f"dominated samples     {args.samples}")
    print(f"max violation         {report.max_violation:.3e}")
    print(f"worst margin          {report.lambda_min_margin:.3e}")
    print(f"member                {report.member}")

    # shrinking perturbations toward the reference ensemble
    approximants = [
        E.SourceEnsemble(
            space=source.space,
            values=source.values
            + (0.5**k) * rng.standard_normal(source.values.shape),
        )
        for k in range(8)
    ]
    closure = E.closure_regression(
        source, approximants, rep, spec, estimators[0]
    )
    print("\n  distance        gap           bound")
    for dist, gap, bound in zip(closure.distances, closure.gaps, closure.bounds):
        print(f"  {dist:12.6f}  {gap:12.6f}  {bound:12.3f}")
    print(f"\ngaps within bound     {closure.gaps_within_bound}")
    return 0 if report.member and closure.gaps_within_bound else 2


if __name__ == "__main__":
    raise SystemExit(main())
