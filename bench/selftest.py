#!/usr/bin/env python3
"""Fast self-test of the benchmark, at tiny simulated durations.

    python3 bench/selftest.py

For every workload and both ``--trace`` settings it runs ``bench/run.py``
on a 0.2 s stream and checks that the run exits 0, that the last stdout
line is the result object with the correctness gate passed, and that every
metric named in BENCHMARK.json is in it with its unit and is also printed
by name on a line of its own. It then copies only BENCHMARK.json and
``bench/`` into a scratch directory and checks that the benchmark refuses
to run there. Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
               "--trace", str(trace), "--sim-seconds", "0.2")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: gate did not pass: {lines}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        errors.append(f"{where}: metrics {sorted(got)}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry["unit"] != m["unit"] or not isinstance(entry["value"], (int, float)):
            errors.append(f"{where}: {m['name']} = {entry}")
        if not any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines[:-1]):
            errors.append(f"{where}: no printed line for {m['name']} [{m['unit']}]")
    return errors


def check_refuses_without_sources() -> list[str]:
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "paper-default", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"benchmark ran without sources: exit {proc.returncode}, {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check_run(spec, w["name"], trace)
            print(f"{w['name']} --trace {trace}: checked", flush=True)
    errors += check_refuses_without_sources()
    for e in errors:
        print("FAIL", e)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
