"""Traced-run report: per-layer tables and a repeat check of the counts.

    python3 benchmarks/report.py

Runs the traced benchmark twice per workload on seed 1.  Every
``.calls`` count, ``polyring.fraction_new.calls`` and the other counts
must repeat exactly between the two runs (counts may back a claim only
if they repeat); times are shown from the first run.  Writes one
markdown table per workload to ``benchmarks/TRACE.md``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

SEED = 1

def traced(workload: str, seed: int) -> dict:
    cmd = [
        sys.executable, str(run.HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "25", "--trace", "1",
    ]
    subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads((run.OUT / f"trace-{workload}-seed{seed}.json").read_text())


def where_time_goes(workload: str, detail: dict) -> list[str]:
    incl = detail["inclusive_ms"]
    lines = []
    if workload == "catalog":
        checks = sum(v for k, v in incl.items() if k.startswith("catalog.check."))
        dolgachev = incl.get("catalog.check.dolgachev", 0.0)
        lines.append(
            f"- Dolgachev check: {dolgachev:.1f} ms of the ten checks' {checks:.1f} ms "
            f"({dolgachev / checks:.0%}), traced, per cold `verify`."
        )
    if workload == "orbits-scaled":
        roots = incl.get("orbits.rational_roots", 0.0)
        lines.append(
            f"- `orbits.rational_roots` (with the divisor scan inside it): {roots:.2f} ms of "
            f"{detail['task_ms']:.2f} ms per task ({roots / detail['task_ms']:.0%}), traced."
        )
    top = sorted(incl.items(), key=lambda kv: -kv[1])[:6]
    lines.append(
        "- Largest inclusive spans (ms per task): "
        + ", ".join(f"`{name}` {ms:.2f}" for name, ms in top)
    )
    return lines


def main() -> int:
    units = dict(run.PER_LAYER)
    out = [
        "# Traced runs",
        "",
        "Made by `python3 benchmarks/report.py`: two traced runs "
        f"(`--trace 1`) per workload on seed {SEED}.  Times are from the first run, in ms "
        "per task; counts are totals over the traced tasks and must repeat exactly.  "
        "Rows whose count is 0 in both runs are left out.",
        "",
    ]
    mismatches = []
    for workload in run.WORKLOADS:
        first, second = traced(workload, SEED), traced(workload, SEED)
        m1, m2 = first["metrics"], second["metrics"]
        repeat = [n for n in m1 if n.endswith(".calls") or units.get(n) == "count"]
        bad = [n for n in repeat if m1[n] != m2[n]]
        bad += [k for k in set(first["counts"]) | set(second["counts"]) if first["counts"].get(k) != second["counts"].get(k)]
        mismatches += [f"{workload}: {n}" for n in bad]
        out += [
            f"## {workload}",
            "",
            f"{first['tasks']} traced tasks; counts repeat exactly: {'yes' if not bad else 'NO (' + ', '.join(bad) + ')'}.",
            "",
            "| metric | value | unit |",
            "|---|---:|---|",
        ]
        for name, unit in run.PER_LAYER:
            calls = name.removesuffix(".self_ms") + ".calls"
            if m1[name] == 0 and m1.get(calls, 0) == 0 and m2[name] == 0:
                continue
            out.append(f"| `{name}` | {m1[name]:.6g} | {unit} |")
        out += ["", *where_time_goes(workload, first), ""]
        print(f"report: {workload} done", flush=True)
    (run.HERE / "TRACE.md").write_text("\n".join(out))
    for mismatch in mismatches:
        print(f"count did not repeat: {mismatch}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
