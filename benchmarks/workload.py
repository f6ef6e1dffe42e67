"""One workload in its own process; started by ``run.py``.

    python3 benchmarks/workload.py WORKLOAD --seed N --seconds S --trace 0|1
        [--setup-only]

Prints ``ready`` once set-up (imports, catalog load where used, input
generation) is done, then, unless ``--setup-only``, one JSON line with
the results.  The loop is closed with one client: the next task starts
when the previous one and its oracle check are done.  Only the library
call is timed.

Between tasks of an untraced run it prints ``verify`` and waits for a
line on stdin: ``run.py`` times one warm ``verify_all`` in its own
process meanwhile, so that the samples are spread over the run and this
process's ``peak_rss_mb`` is the workload's own.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
#: Per-task cap for in-process tasks; a task that hits it counts as failed.
TASK_TIMEOUT_S = 30
#: Warm ``verify_all`` samples per run, for ``verify_warm_ms``.
WARM_VERIFY_SAMPLES = 12
IMPORT_PROBES = 5


class TaskTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise TaskTimeout(f"task exceeded {TASK_TIMEOUT_S} s")


def run_task(work, inp, **extra):
    """Run one task: (seconds, passed, error message or None)."""
    if work.in_process:
        signal.setitimer(signal.ITIMER_REAL, TASK_TIMEOUT_S)
    start = perf_counter()
    try:
        result = work.task(inp, **extra)
    except Exception as exc:  # a failed task is counted, the run goes on
        return perf_counter() - start, False, f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - start
        if work.in_process:
            signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        passed = work.check(inp, result)
    except Exception as exc:
        return elapsed, False, f"oracle raised {type(exc).__name__}: {exc}"
    return elapsed, passed, None if passed else "result disagrees with the oracle"


def p90(times):
    """Nearest-rank 90th percentile; 100 or more samples leave at least
    ten beyond it (a 25 s ``catalog`` run holds about 60)."""
    ordered = sorted(times)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # Linux reports KiB


def warm_verify_sample():
    """Have ``run.py`` time one warm ``verify_all`` while this process waits."""
    print("verify", flush=True)
    sys.stdin.readline()


def measure(work, pool, seconds):
    times, failed, errors = [], 0, []
    warm = 0
    start = perf_counter()
    i = 0
    while (elapsed := perf_counter() - start) < seconds or not times:
        # Warm verify samples are spread over the run, between tasks, so
        # that a short burst of load on the machine moves few of them.
        if warm < WARM_VERIFY_SAMPLES * min(elapsed / seconds, 1):
            warm_verify_sample()
            warm += 1
            continue
        took, passed, error = run_task(work, pool[i % len(pool)])
        i += 1
        times.append(took)
        if not passed:
            failed += 1
            errors.append(error)
    for _ in range(warm, WARM_VERIFY_SAMPLES):
        warm_verify_sample()
    metrics = {
        "task_p50_ms": statistics.median(times) * 1000,
        "task_p90_ms": p90(times) * 1000,
        "tasks_per_s": len(times) / sum(times),
        "failed_share": failed / len(times),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {"attempted": len(times), "failed": failed, "errors": errors[:3], "metrics": metrics}


def import_ms() -> float:
    """Median time of ``import strangedual.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import strangedual.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times) * 1000


def traced(work, pool):
    """Untraced, traced and profiled passes over the same fixed tasks, so
    that every count repeats exactly on a given seed."""
    tasks = [pool[i % len(pool)] for i in range(work.trace_tasks)]
    failed, errors = 0, []

    def one_pass(**extra):
        nonlocal failed
        times = []
        for inp in tasks:
            took, passed, error = run_task(work, inp, **extra)
            times.append(took)
            if not passed:
                failed += 1
                errors.append(error)
        return times

    plain = one_pass()
    if work.in_process:
        recorder = spans.Recorder()
        recorder.install()
        work_task = work.task

        def task_traced(inp):
            recorder.active = True
            try:
                return work_task(inp)
            finally:
                recorder.active = False

        work.task = task_traced
        traced_times = one_pass()
        work.task = work_task
        recorder.uninstall()
        summary = recorder.summary()

        profile = cProfile.Profile()

        def task_profiled(inp):
            profile.enable()
            try:
                return work_task(inp)
            finally:
                profile.disable()

        work.task = task_profiled
        one_pass()
        work.task = work_task
        fraction_new = spans.fraction_new_calls(profile)
    else:
        OUT.mkdir(exist_ok=True)
        files = []
        traced_times = []
        for mode in ("trace", "profile"):
            for k, inp in enumerate(tasks):
                path = OUT / f"span-{os.getpid()}-{mode}-{k}.json"
                files.append((mode, path))
                took, passed, error = run_task(work, inp, traced=(mode, path))
                if mode == "trace":
                    traced_times.append(took)
                if not passed:
                    failed += 1
                    errors.append(error)
        children = {mode: [] for mode in ("trace", "profile")}
        for mode, path in files:
            children[mode].append(json.loads(path.read_text()))
            path.unlink()
        summary = spans.merge(children["trace"])
        summary["root_ns"] += sum(c["import_ns"] for c in children["trace"])
        fraction_new = sum(c["fraction_new"] for c in children["profile"])

    n = len(tasks)
    metrics = {"cli.import_ms": import_ms()}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = summary["calls"].get(name, 0)
        metrics[f"{name}.self_ms"] = summary["self_ns"].get(name, 0) / 1e6 / n
    counts = summary["counts"]
    evals = counts.get("orbits.candidate_evals", 0)
    metrics["orbits.root_hit_ratio"] = counts.get("orbits.roots_found", 0) / evals if evals else 0.0
    metrics["orbits.errors"] = counts.get("orbits.errors", 0)
    metrics["catalog.checks_failed"] = counts.get("catalog.checks_failed", 0)
    metrics["polyring.fraction_new.calls"] = fraction_new
    metrics["cli.render_ms"] = metrics["cli.render.self_ms"]
    metrics["trace.coverage_share"] = summary["root_ns"] / 1e9 / sum(traced_times)
    metrics["trace.overhead_share"] = statistics.median(traced_times) / statistics.median(plain) - 1
    inclusive_ms = {name: ns / 1e6 / n for name, ns in summary["incl_ns"].items()}
    detail = {
        "tasks": n,
        "task_ms": sum(traced_times) * 1000 / n,
        "inclusive_ms": inclusive_ms,
        "counts": dict(counts),
    }
    # Each task ran three times: untraced, traced and profiled.
    return {"attempted": 3 * n, "failed": failed, "errors": errors[:3], "metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = WORKLOADS[args.workload]()
    pool = work.setup(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    if args.trace:
        result = traced(work, pool)
    else:
        result = measure(work, pool, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
