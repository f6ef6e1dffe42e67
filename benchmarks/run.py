"""The strangedual benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` it prints every end-to-end metric, with
``--trace 1`` every per-layer metric, each on its own line with its
unit, then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads and metrics are described in
``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("catalog", "orbits-scaled", "algebra", "gradings")
#: Set-up is measured this many times, each in a fresh process, and the
#: median reported; the last of these processes runs the workload.
SETUP_RUNS = 5

END_TO_END = (
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verify_warm_ms", "ms"),
)


class WarmVerify:
    """In-process ``verify_all`` on an already loaded, already verified
    catalog, timed here while the workload process waits, so that the
    workload's ``peak_rss_mb`` stays its own."""

    def __init__(self):
        self.catalog = None
        self.samples = []

    def sample(self):
        if self.catalog is None:
            sys.path.insert(0, str(SRC))
            from strangedual import catalog

            self.verify_all = catalog.verify_all
            self.catalog = catalog.load_catalog(os.environ.get("SD_CATALOG") or None)
            self.verify_all(self.catalog)
        start = perf_counter()
        self.verify_all(self.catalog)
        self.samples.append(perf_counter() - start)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing, so that the traced counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


def start_workload(args, setup_only: bool):
    """Start the workload process; return it and its set-up time in s."""
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env())
    line = proc.stdout.readline()
    setup = perf_counter() - start
    if line != "ready\n":
        proc.communicate()
        raise RuntimeError(f"workload process did not get ready (exit status {proc.returncode})")
    return proc, setup


def run(args) -> dict:
    # Compile byte code once, so that every measured set-up starts from
    # the caches an installed package has.
    subprocess.run(
        [sys.executable, "-c", "import strangedual.cli, workloads, workload"],
        cwd=HERE,
        env=child_env(),
        check=True,
    )
    setups = []
    for _ in range(SETUP_RUNS - 1 if args.trace == 0 else 0):
        proc, setup = start_workload(args, setup_only=True)
        proc.communicate()
        setups.append(setup)
    proc, setup = start_workload(args, setup_only=False)
    setups.append(setup)
    warm = WarmVerify()
    out = []
    with proc:
        for line in proc.stdout:
            if line == "verify\n":
                warm.sample()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                out.append(line)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with status {proc.returncode}")
    result = json.loads(out[-1])
    result["metrics"]["setup_s"] = statistics.median(setups)
    if warm.samples:
        result["metrics"]["verify_warm_ms"] = statistics.median(warm.samples) * 1000
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "strangedual" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, subprocess.CalledProcessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = result["metrics"]
    wanted = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  tasks {result['attempted']}  failed {result['failed']}")
    if not args.trace:
        print(f"  {'failed_share':32s} {measured['failed_share']:.6g} share")
    for name, unit in wanted:
        print(f"  {name:32s} {measured[name]:.6g} {unit}")
    for error in result["errors"]:
        print(f"  error: {error}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        detail = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        detail.write_text(json.dumps({"metrics": measured, **result["detail"]}, indent=1))
        print(f"  trace detail written to {detail.relative_to(ROOT)}")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
