"""Repeated runs of the benchmark, summarised per workload and metric.

    python3 benchmarks/baseline.py

Runs three sets of ten seeds (1-10, 1-10 again, and 101-110) on every
workload of ``BENCHMARK.json``, each run as long as its ``run_seconds``.
The sets are interleaved: the k-th seed of every set runs before the
(k+1)-th of any, in an order that rotates with k, so that a drift in the
machine's speed falls on all three sets alike instead of on one.

For each metric the summary gives the median and quartiles of the set
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  Every set after the
first is compared with the first: the change of its median, counted
positive when the metric got worse.  A spread at or above a third of the
metric's bound (``setup_s`` excepted), or a change of either sign larger
than the bound, is flagged.  The flags are printed and written, with
every measured value, to ``benchmarks/baseline.json``; they do not fail
the command.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = ((1, 10), (1, 10), (101, 110))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def compare(runs: list[dict], metrics: dict) -> list[str]:
    """Print each set against the first; return the flags raised."""
    flags = []
    for w in runs[0]:
        print(f"{w}")
        for name, m in metrics.items():
            first = runs[0][w][name]
            line = f"  {name:16s} median {first['median']:10.4g}  spread {first['spread']:.3f}"
            if name != "setup_s" and first["spread"] >= m["bound"] / 3:
                flags.append(f"{w} {name}: set 1 spread {first['spread']:.3f} >= bound/3")
            for k, run in enumerate(runs[1:], start=2):
                other = run[w][name]
                change = other["median"] / first["median"] - 1
                if m["better"] == "higher":
                    change = -change
                other["worse_than_set1"] = change
                line += f" | set {k}: spread {other['spread']:.3f} worse {change:+.3f}"
                if name != "setup_s" and other["spread"] >= m["bound"] / 3:
                    flags.append(f"{w} {name}: set {k} spread {other['spread']:.3f} >= bound/3")
                if abs(change) > m["bound"]:
                    flags.append(f"{w} {name}: set {k} median differs from set 1 by {change:+.3f}, beyond the bound")
            print(line)
    for flag in flags:
        print(f"FLAG {flag}")
    return flags


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    raw = [{w: {name: [] for name in metrics} for w in workloads} for _ in SETS]
    for k in range(10):
        for j in range(len(SETS)):
            s = (j + k) % len(SETS)
            seed = SETS[s][0] + k
            for w in workloads:
                values = run_once(w, seed, seconds)
                for name in metrics:
                    raw[s][w][name].append(values[name])
                shown = " ".join(f"{n}={v:.4g}" for n, v in values.items())
                print(f"set {s + 1} {w} seed {seed}: {shown}", flush=True)
    runs = [{w: {name: summarise(v) for name, v in r[w].items()} for w in workloads} for r in raw]

    print()
    flags = compare(runs, metrics)
    summary = {
        "command": "python3 benchmarks/baseline.py",
        "seconds": seconds,
        "sets": [{"seeds": f"{low}-{high}", "workloads": r} for (low, high), r in zip(SETS, runs)],
        "bounds": {name: m["bound"] for name, m in metrics.items()},
        "flags": flags,
    }
    (HERE / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
