"""Smoke check of the benchmark harness (not part of the tier-1 tests).

    python3 benchmarks/smoke.py

Runs every workload at its smallest size, untraced and traced, and
checks that each metric named in ``BENCHMARK.json`` is printed with its
unit, that no task fails, and that a catalog with one altered Dolgachev
number makes every ``catalog`` task count as failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT


def bench(workload: str, trace: int, env=None) -> tuple[list[str], dict]:
    cmd = [
        sys.executable, str(run.HERE / "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=env, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit status {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(lines: list[str]) -> dict:
    """Metric lines of the report: name -> (value, unit)."""
    table = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3:
            try:
                table[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return table


def expect(condition: bool, message: str, failures: list[str]):
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        expect(listed == list(declared), f"BENCHMARK.json {key} differs from run.py", failures)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload list differs", failures)

    for workload in run.WORKLOADS:
        lines, result = bench(workload, trace=0)
        table = printed(lines)
        for name, unit in run.END_TO_END:
            expect(table.get(name, (None, None))[1] == unit, f"{workload}: {name} not printed in {unit}", failures)
            expect(result["metrics"].get(name, {}).get("unit") == unit, f"{workload}: {name} missing from JSON", failures)
        expect(table.get("failed_share") == (0.0, "share"), f"{workload}: failed_share is not 0", failures)
        expect(result["correct"] and result["failed"] == 0, f"{workload}: tasks failed", failures)

        lines, result = bench(workload, trace=1)
        for name, unit in run.PER_LAYER:
            expect(result["metrics"].get(name, {}).get("unit") == unit, f"{workload} traced: {name} missing", failures)
        expect(result["failed"] == 0, f"{workload} traced: tasks failed", failures)
        print(f"smoke: {workload} ok", flush=True)

    # One wrong Dolgachev number must fail the cold verify, so every task
    # of the catalog workload counts as failed.
    data = json.loads((ROOT / "src" / "strangedual" / "data" / "catalog.json").read_text())
    data["entries"][0]["dolgachev"][0][0] += 1
    altered = run.OUT / "smoke-catalog.json"
    run.OUT.mkdir(exist_ok=True)
    altered.write_text(json.dumps(data))
    lines, result = bench("catalog", trace=0, env=dict(os.environ, SD_CATALOG=str(altered)))
    altered.unlink()
    table = printed(lines)
    expect(table.get("failed_share") == (1.0, "share"), "altered catalog: failed_share is not 1", failures)
    expect(not result["correct"] and result["failed"] == result["attempted"], "altered catalog: not all failed", failures)
    print("smoke: altered catalog caught", flush=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
