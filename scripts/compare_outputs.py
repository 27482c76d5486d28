#!/usr/bin/env python3
"""Byte check of two checkouts' CLI outputs on the same 124 configs.

    python3 scripts/compare_outputs.py PARENT CHANGE

The configs are the six bundled ones (CHANGE/configs) and every pool op
of bench/workloads.build_op at seeds 101 and 202, read from CHANGE's
bench/workloads.py and never changed; they are generated once, into a
temporary directory. Each checkout runs all of them through its own
envmm.cli.run in one child process at one BLAS thread. A run's exit
code, stdout summary, report.json and series.csv are compared with the
other checkout's.

Prints each run that differs, then per kind the runs, the identical
runs and the runs whose code, summary, report or series differ, and the
largest relative move |a - b| / max(|a|, |b|) of any number that differs
in a report or series, per kind and field (a report's top-level key or
a series' column, largest first) before the table and overall after it.
Exits 0 only if every run is identical.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (101, 202)
OUTPUTS = ("report.json", "series.csv")
FIELDS = ("code", "summary", "report", "series")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the child: run every config of a directory, in name order, through the
# checkout's envmm.cli.run, one output directory per config, and record
# each exit code and stdout summary in runs.json
CHILD = """
import contextlib, io, json, sys
from pathlib import Path
from envmm import cli
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
runs = {}
for config in sorted(configs.glob("*.json")):
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(config, out_dir=out / config.stem)
    runs[config.stem] = {"code": code, "summary": summary.getvalue()}
(out / "runs.json").write_text(json.dumps(runs, indent=1, sort_keys=True))
"""


def write_configs(change: Path, dest: Path) -> int:
    """The bundled configs and the bench pool ops, one file each, named
    kind.origin so the kind can be read off the name; returns the count."""
    spec = importlib.util.spec_from_file_location("workloads", change / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = {}
    for path in sorted((change / "configs").glob("*.json")):
        configs[f"bundled-{path.stem}"] = json.loads(path.read_text())
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for index in range(workloads.POOL_SIZE[workload]):
                for j, config in enumerate(workloads.build_op(workload, seed, index)):
                    configs[f"{workload}-s{seed}-op{index}-{j}"] = config
    for origin, config in configs.items():
        (dest / f"{config['kind']}.{origin}.json").write_bytes(workloads.config_bytes(config))
    return len(configs)


def run_checkout(checkout: Path, configs: Path, out: Path) -> None:
    """All configs through checkout's envmm.cli.run, in one child process."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", CHILD, str(configs), str(out)],
                          cwd=checkout, env=env, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: the runs failed: {done.stderr[-2000:]}")


def _leaves(text: str, name: str) -> list:
    """The (field, leaf) pairs of a report (JSON) or series (CSV), in order.

    A report leaf's field is its top-level key, and each key is a leaf of
    its own field; a series cell's field is its column's header, which is
    a cell too.
    """
    if name.endswith(".csv"):
        rows = list(csv.reader(text.splitlines()))
        return [(field, cell) for row in rows for field, cell in zip(rows[0], row)]
    leaves = []

    def walk(field, node):
        if isinstance(node, dict):
            for key in sorted(node):
                leaves.append((field or key, key))
                walk(field or key, node[key])
        elif isinstance(node, list):
            for item in node:
                walk(field, item)
        else:
            leaves.append((field, node))

    walk(None, json.loads(text))
    return leaves


def _move(a, b) -> float:
    """Relative move between two leaves that are both numbers, else 0."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return 0.0
    if isinstance(a, bool) or isinstance(b, bool) or x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _read(path: Path) -> str | None:
    return path.read_text() if path.exists() else None


def compare(parent: Path, change: Path) -> dict:
    """Compare two output trees that run_checkout wrote.

    Returns {"runs": {name: [fields that differ]}, "kinds": {kind:
    {"runs", "identical", "code", "summary", "report", "series"}},
    "moves": {(kind, field): the largest relative move of a differing
    number of that field}, largest first, "largest_move": the largest of
    them, "identical": bool}. A report's field is its top-level key, a
    series' its column. A run missing on one side differs in every field.
    """
    runs_p = json.loads((parent / "runs.json").read_text())
    runs_c = json.loads((change / "runs.json").read_text())
    missing = {"code": None, "summary": None}
    result = {"runs": {}, "kinds": {}}
    by_field = {}
    for name in sorted(set(runs_p) | set(runs_c)):
        kind = name.split(".")[0]
        p, c = runs_p.get(name, missing), runs_c.get(name, missing)
        differs = [field for field in ("code", "summary") if p[field] != c[field]]
        for field, output in zip(("report", "series"), OUTPUTS):
            a, b = _read(parent / name / output), _read(change / name / output)
            if name not in runs_p or name not in runs_c or a != b:
                differs.append(field)
            if a is not None and b is not None and a != b:
                for (field, x), (_, y) in zip(_leaves(a, output), _leaves(b, output)):
                    move = _move(x, y)
                    if move > by_field.get((kind, field), 0.0):
                        by_field[(kind, field)] = move
        counts = result["kinds"].setdefault(
            kind, dict.fromkeys(("runs", "identical", *FIELDS), 0))
        counts["runs"] += 1
        counts["identical"] += not differs
        for field in differs:
            counts[field] += 1
        result["runs"][name] = differs
    result["moves"] = dict(sorted(by_field.items(), key=lambda item: (-item[1], item[0])))
    result["largest_move"] = max(by_field.values(), default=0.0)
    result["identical"] = not any(result["runs"].values())
    return result


def format_result(result: dict) -> str:
    lines = [f"differs    {name}: {', '.join(fields)}"
             for name, fields in result["runs"].items() if fields]
    lines += [f"moved      {kind} {field}: {move:.3g}"
              for (kind, field), move in result["moves"].items()]
    lines.append(f"{'kind':<18}{'runs':>6}{'identical':>11}"
                 + "".join(f"{field:>9}" for field in FIELDS))
    total = dict.fromkeys(("runs", "identical", *FIELDS), 0)
    for kind, counts in sorted(result["kinds"].items()):
        lines.append(f"{kind:<18}{counts['runs']:>6}{counts['identical']:>11}"
                     + "".join(f"{counts[field]:>9}" for field in FIELDS))
        for key in total:
            total[key] += counts[key]
    lines.append(f"{'all':<18}{total['runs']:>6}{total['identical']:>11}"
                 + "".join(f"{total[field]:>9}" for field in FIELDS))
    lines.append(f"largest relative move of a differing number: {result['largest_move']:.3g}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout under test")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="envmm-compare-") as tmp:
        configs = Path(tmp) / "configs"
        configs.mkdir()
        count = write_configs(args.change.resolve(), configs)
        for side in ("parent", "change"):
            run_checkout(getattr(args, side).resolve(), configs, Path(tmp) / side)
        result = compare(Path(tmp) / "parent", Path(tmp) / "change")
    print(f"{count} configs")
    print(format_result(result))
    return 0 if result["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
