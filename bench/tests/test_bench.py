"""Tests of the benchmark itself: inputs, tracing and output checks.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import BOOKKEEPING, Tracer  # noqa: E402

cli = run.load_cli()

from envmm import envelope, measure_ensemble  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_are_a_function_of_the_seed(workload):
    def configs(seed, index=0):
        return [workloads.config_bytes(c) for c in workloads.build_op(workload, seed, index)]

    assert configs(5) == configs(5)
    assert configs(5) != configs(6)
    assert configs(5, 0) != configs(5, 1)
    same_shape = [json.loads(b).keys() for b in configs(6)]
    assert same_shape == [json.loads(b).keys() for b in configs(5)]


def test_each_step_is_scaled_by_the_reference_in_the_gaps_around_it(monkeypatch):
    samples = iter([2.0, 4.0, 1.0])  # reference times, in units of NOMINAL_S
    monkeypatch.setattr(hostspeed, "sample", lambda budget: next(samples) * hostspeed.NOMINAL_S)
    scaled = list(hostspeed.scaled([3.0, 6.0]))
    assert scaled == [(3.0, pytest.approx(3.0 / 3.0)), (6.0, pytest.approx(6.0 / 2.5))]


def _traced_op(tmp_path, tracer):
    harness = run.Harness(cli, "demos", 3, tmp_path)
    with tracer.installed():
        tracer.reset()
        harness.run_op(0, tracer)
    assert harness.failures == []
    return harness


def test_parent_time_is_self_plus_children(tmp_path):
    tracer = Tracer()
    _traced_op(tmp_path, tracer)
    spans, own = tracer.spans, tracer.self_times()
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            children[span.parent] += span.duration
    for span, self_s, child_s in zip(spans, own, children):
        assert self_s >= 0.0
        assert self_s + child_s == pytest.approx(span.duration, rel=1e-9, abs=1e-12)
    root = spans[0]
    assert root.name == "op" and root.parent is None
    assert sum(own) == pytest.approx(root.duration, rel=1e-9)


def test_every_binding_site_is_traced_and_restored(tmp_path):
    original = measure_ensemble.second_moment
    assert envelope.second_moment is original  # bound by a from-import
    tracer = Tracer()
    _traced_op(tmp_path, tracer)
    summary = tracer.summary()
    # demos' verify_extremal: 1 + 20 margins + 5 * (1 + 21) costs + 1 eigenbasis,
    # plus envelope_check and elliptic_demo; envelope reaches it by its own name
    assert summary["measure_ensemble.second_moment"]["calls"] >= 1 + 20 + 5 * 22 + 1
    assert 0.0 < summary["measure_ensemble.second_moment"]["distinct_ratio"] < 1.0
    assert summary["numpy.linalg.eig"]["calls"] > 0
    assert summary[BOOKKEEPING]["calls"] > 0
    assert envelope.second_moment is original
    assert measure_ensemble.second_moment is original
    assert "__wrapped__" not in vars(measure_ensemble.SourceEnsemble.__init__)


def test_missing_function_is_reported_absent(tmp_path, monkeypatch):
    from envmm import cost_minimizer

    monkeypatch.delattr(cost_minimizer, "gram_spectrum")
    harness = run.Harness(cli, "oracle", 1, tmp_path)
    names = ["cost_minimizer.gram_spectrum.calls", "cost_minimizer.solution_set.calls"]
    metrics, absent = run.per_layer(harness, 0, names)
    assert absent == ["cost_minimizer.gram_spectrum.calls"]
    assert metrics == {"cost_minimizer.solution_set.calls": 0}


def _outputs(run_dir):
    out = run_dir / "out"
    return (out / "report.json").read_bytes(), (out / "series.csv").read_bytes()


def _corrupt(report_bytes, **changes):
    report = json.loads(report_bytes)
    report.update(changes)
    return json.dumps(report).encode()


def test_checks_reject_corrupted_outputs(tmp_path):
    harness = run.Harness(cli, "demos", 4, tmp_path)
    harness.run_op(0)
    assert harness.failures == []
    entries = {config["kind"]: (config, run_dir) for config, run_dir in harness.pool[0]}

    def problems(kind, report=None, series=None, code=0):
        config, run_dir = entries[kind]
        good_report, good_series = _outputs(run_dir)
        return workloads.check_run(
            config, code, report or good_report, series or good_series
        )

    for kind in entries:
        assert problems(kind) == []
        assert problems(kind, code=2) != []
        assert problems(kind, report=b"{not json") != []

    extremal_report, _ = _outputs(entries["verify_extremal"][1])
    assert problems("verify_extremal", report=_corrupt(extremal_report, member=False))
    assert problems("verify_extremal", report=_corrupt(extremal_report, max_violation=1e-3))
    filter_report, filter_series = _outputs(entries["wss_filter"][1])
    assert problems("wss_filter", report=_corrupt(filter_report, max_symbol_gap=1e-3))
    assert problems("wss_filter", report=_corrupt(filter_report, flagged_count=1))
    assert problems("wss_filter", series=filter_series.rsplit(b"\n", 2)[0] + b"\n")
    minimize_report, _ = _outputs(entries["minimize"][1])
    assert problems("minimize", report=_corrupt(minimize_report, residual=1.0))
    assert problems("minimize", report=_corrupt(minimize_report, unique=False))
    elliptic_report, _ = _outputs(entries["elliptic_demo"][1])
    assert problems("elliptic_demo", report=_corrupt(elliptic_report, transfer_ok=False))


def test_changed_output_on_repeated_input_fails_the_op(tmp_path, monkeypatch):
    harness = run.Harness(cli, "demos", 5, tmp_path)
    size = len(harness.pool)
    harness.run_op(0)
    real_run = cli.run

    def drifting_run(config, out):
        code = real_run(config, out)
        with open(Path(out) / "series.csv", "a") as fh:
            fh.write("drift\n")
        return code

    monkeypatch.setattr(cli, "run", drifting_run)
    harness.run_op(size)  # the same input as op 0
    assert len(harness.failures) == 1
    assert "differ from the first run" in harness.failures[0]


def test_a_wrong_input_fails_every_op_that_repeats_it(tmp_path, monkeypatch):
    harness = run.Harness(cli, "elliptic", 6, tmp_path)
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda config, out: real_run(config, out) or 2)
    for index in (0, len(harness.pool)):  # the same input twice
        harness.run_op(index)
    assert len(harness.failures) == 2
    assert all("exit code 2" in line for line in harness.failures)
