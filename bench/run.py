#!/usr/bin/env python3
"""envmm benchmark: one caller runs a closed loop of `envmm.cli.run` calls.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of extremal, oracle, elliptic, demos (see workloads.py), or
`all`, which runs the four in turn, each in its own process. The seed
generates the JSON configs; the program sees only those files. Each op
reads its config(s), computes, and writes report.json and series.csv;
the next op starts when the previous one has returned. Every op is
checked: exit code, verdicts, theory-bounded statistics, and
byte-identical outputs whenever an input repeats.

--trace 0 measures the end-to-end metrics with tracing off:
  ops_per_s    ops completed per second of time spent in ops
  op_s_p50     median op latency; the highest percentile with at least
               ten samples beyond it is printed beside it
  setup_s      median time for a fresh interpreter to `import envmm.cli`
  peak_rss_mb  peak resident memory of this process
The three times are scaled to a nominal host speed (hostspeed.py): the
shared host's speed drifts by tens of percent within a run, which wall
times would report as changes of the program. The wall-clock values are
printed on the `wall` line.
--trace 1 runs half the time untraced and half traced (tracer.py) and
reports the per-layer metrics per op, medians over the traced ops, plus
the tracing overhead. Metric names and units come from BENCHMARK.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it record the environment,
the wall-clock times, the sha256 of every output file, and the failed-op
ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread, fixed before numpy loads: on a small shared machine a
# second thread makes the many small factorizations slower and noisier.
# The thread count in effect is recorded in the env line.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import EIG, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPS = 9
TAIL_SAMPLES = 10  # samples beyond the reported tail percentile


def load_cli():
    """Import envmm.cli from this checkout's src/, or exit non-zero with no result."""
    if not (SRC / "envmm" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'envmm'} not found; run from an envmm checkout")
    sys.path.insert(0, str(SRC))
    import envmm.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "envmm":
        sys.exit(f"error: imported envmm from {cli.__file__}, not from {SRC}")
    return cli


def metric_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> int | str:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "envmm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement


def setup_launches():
    """Yields the wall times of fresh interpreters importing envmm.cli.

    A first, untimed launch fills the bytecode cache. No timeout: with one,
    the wait polls in steps of up to 50 ms, which would quantize the
    measurement.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import envmm.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        yield time.perf_counter() - start


class Harness:
    """Runs and checks ops over a pool of generated inputs in a work directory."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.pool = []
        for index in range(workloads.POOL_SIZE[workload]):
            entries = []
            for config in workloads.build_op(workload, seed, index):
                run_dir = work / f"op{index}-{config['kind']}"
                run_dir.mkdir()
                (run_dir / "config.json").write_bytes(workloads.config_bytes(config))
                # the checks read only scalar fields; holding the arrays would
                # add the harness's memory to the program's peak
                scalars = {k: v for k, v in config.items() if not isinstance(v, (list, dict))}
                entries.append((scalars, run_dir))
            self.pool.append(entries)
        self.digests: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self._sink = io.StringIO()

    def run_op(self, index: int, tracer: Tracer | None = None) -> float:
        """Run op `index` (cycling over the pool), check it, return its latency."""
        slot = index % len(self.pool)
        entries = self.pool[slot]
        for _, run_dir in entries:
            for name in ("report.json", "series.csv"):
                (run_dir / "out" / name).unlink(missing_ok=True)
        self._sink.seek(0)
        self._sink.truncate()
        codes, error = [], None
        scope = tracer.span("op") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(self._sink), scope:
            try:
                for _, run_dir in entries:
                    codes.append(self.cli.run(run_dir / "config.json", run_dir / "out"))
            except Exception:  # a raising op is a failed op; keep measuring
                error = traceback.format_exc().strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = [error] if error else []
        for (config, run_dir), code in zip(entries, codes):
            kind = config["kind"]
            problems += [f"{kind}: {p}" for p in self._check(slot, config, run_dir, code)]
        if problems:
            self.failures.append(f"op {index} (input {slot}): " + "; ".join(problems))
        return elapsed

    def _check(self, slot: int, config: dict, run_dir: Path, code: int) -> list[str]:
        try:
            report = (run_dir / "out" / "report.json").read_bytes()
            series = (run_dir / "out" / "series.csv").read_bytes()
        except OSError as exc:
            return [f"missing output: {exc}"]
        digest = {
            "report.json": hashlib.sha256(report).hexdigest(),
            "series.csv": hashlib.sha256(series).hexdigest(),
        }
        problems = workloads.check_run(config, code, report, series)
        first = self.digests.setdefault(f"input{slot}/{config['kind']}", digest)
        if digest != first:
            problems.append("outputs differ from the first run of the same input")
        return problems

    def loop(self, seconds: float, first: int, tracer: Tracer | None = None):
        """Closed loop of at least one op for `seconds`; yields each latency."""
        deadline = time.perf_counter() + seconds
        index = first
        while index == first or time.perf_counter() < deadline:
            if tracer:
                tracer.reset()
            yield self.run_op(index, tracer)
            index += 1


def tail(latencies: list[float]) -> str:
    """The highest percentile with TAIL_SAMPLES samples beyond it, as text."""
    n = len(latencies)
    if n <= TAIL_SAMPLES:
        return f"op_s_tail n/a (n={n}, needs more than {TAIL_SAMPLES})"
    k = n - TAIL_SAMPLES  # the k-th smallest has TAIL_SAMPLES samples above it
    value = sorted(latencies)[k - 1]
    return f"op_s_p{100.0 * k / n:.4g} {value!r} s (n={n}, {TAIL_SAMPLES} beyond)"


def time_metrics(setup: list[float], latencies: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_s_p50": statistics.median(latencies),
        "setup_s": statistics.median(setup),
    }


def end_to_end(harness: Harness, seconds: int) -> dict[str, float]:
    setup_wall, setup = zip(*hostspeed.scaled(setup_launches()))
    harness.run_op(0)  # warm-up: lazy imports, caches, first-seen checks
    wall, scaled = zip(*hostspeed.scaled(harness.loop(seconds, 1)))
    print("wall " + json.dumps(time_metrics(setup_wall, wall)) + f" ({tail(wall)})")
    print(f"metric {tail(scaled)}")
    return time_metrics(setup, scaled) | {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(harness: Harness, seconds: int, names) -> tuple[dict, list[str]]:
    harness.run_op(0)
    half = seconds / 2.0
    plain = list(harness.loop(half, 1))
    tracer = Tracer()
    traced, summaries = [], []
    with tracer.installed():
        for lat in harness.loop(half, 1, tracer):
            traced.append(lat)
            summaries.append(tracer.summary())
    print_span_table(summaries)

    metrics, absent = {}, []
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(traced) - statistics.median(plain)
        elif name == "trace.op_s_p50":
            metrics[name] = statistics.median(traced)
        else:
            span, field = name.rsplit(".", 1)
            if span != EIG and span not in tracer.names:
                absent.append(name)
                continue
            values = [s[span][field] for s in summaries]
            if field in ("calls", "ops_computed"):  # counts: an observed value
                if len(set(values)) > 1:
                    print(f"warning: {name} differs between ops: {sorted(set(values))}")
                metrics[name] = statistics.median_low(values)
            else:
                metrics[name] = statistics.median(values)
    return metrics, absent


def print_span_table(summaries: list[dict]) -> None:
    # self times telescope: their sum over one op is the op's traced duration
    op_s = statistics.median(
        sum(entry.get("self_s", 0.0) for entry in s.values()) for s in summaries
    )
    rows = []
    for name in sorted({n for s in summaries for n in s}):
        if name == EIG:
            continue
        calls = statistics.median(s.get(name, {}).get("calls", 0) for s in summaries)
        own = statistics.median(s.get(name, {}).get("self_s", 0.0) for s in summaries)
        if calls:
            rows.append((own, name, calls))
    print(f"spans per op (medians over {len(summaries)} traced ops; share of {op_s:.4g} s)")
    for own, name, calls in sorted(rows, reverse=True):
        print(f"  {name:<48} calls {calls:>8g}  self_s {own:.6f}  {100.0 * own / op_s:5.1f}%")


def run_workload(args) -> int:
    cli = load_cli()
    names = metric_units("per_layer" if args.trace else "end_to_end")
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        harness = Harness(cli, args.workload, args.seed, Path(work))
        if args.trace:
            metrics, absent = per_layer(harness, args.seconds, names)
            if absent:
                print("absent " + json.dumps(absent))
        else:
            metrics = end_to_end(harness, args.seconds)
    failed = len(harness.failures)
    for line in harness.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print("outputs " + json.dumps(harness.digests, sort_keys=True))
    print(f"metric failed_op_ratio {failed / harness.attempted!r} ratio (of {harness.attempted} ops)")
    for name, unit in names.items():
        if name in metrics:
            print(f"metric {name} {metrics[name]!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": harness.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in names.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # on SIGTERM, unwind: child processes are killed and waited for, and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
