#!/usr/bin/env python3
"""Run every bundled config through the experiment driver.

Writes each report under --out/<kind>/ and prints the driver summaries.
Exit code is the worst code among the runs, so a domain outcome in any
demo (exit 2) or a usage failure (exit 1) is visible to the shell.
"""

import argparse
import json
import sys
from pathlib import Path

from envmm import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="demo_results",
        help="directory receiving one subdirectory per config",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the seed of every seeded config"
    )
    args = parser.parse_args()

    worst = 0
    for config in sorted(CONFIG_DIR.glob("*.json")):
        kind = config.stem
        print(f"--- {kind} " + "-" * max(0, 60 - len(kind)))
        seeded = "seed" in json.loads(config.read_text())
        seed = args.seed if seeded else None
        code = cli.run(config, out_dir=Path(args.out) / kind, seed=seed)
        print(f"exit code: {code}\n")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
