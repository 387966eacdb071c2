#!/usr/bin/env python3
"""Run all four canned scenarios, each as ``volstream run --scenario`` does.

Usage:
    python scripts/run_paper_experiments.py [--out DIR] [--seed N]

Writes one report directory per scenario under --out (default ./out).
``VOLSTREAM_<KEY>`` overrides apply to every scenario. Exits with the
worst scenario's exit code: 1 if any stream completed no frame.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from volstream.cli import main as volstream
from volstream.scenarios import scenario_names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="base output directory")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    worst = 0
    for name in scenario_names():
        out = str(Path(args.out) / name.replace("-", "_"))
        print(f"\n=== {name} ===", flush=True)
        t0 = time.perf_counter()
        code = volstream(["run", "--scenario", name, "--out", out, *seed])
        print(f"({time.perf_counter() - t0:.1f}s, exit {code})", flush=True)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
