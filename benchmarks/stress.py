"""Stress probe: inputs the library should decide in bounded time.

    python3 benchmarks/stress.py

Each input runs once in its own child process under a 10 s time cap and
a 2 GiB address-space limit.  An input is decided when its
process ends within the cap with exit status 0, 1 or 2 and no traceback:
a result or a clean domain error.  The last line is one JSON object with
``stress.decided`` and ``stress.attempted``.  This records a baseline;
it is not part of the timed runs and has no bound.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
CAP_S = 10
MEMORY_LIMIT = 2 << 30

INPUTS = (
    (
        'saito-dual "2 / 1^1" --degree 100000000000',
        ["-m", "strangedual.cli", "saito-dual", "2 / 1^1", "--degree", "100000000000"],
    ),
    (
        "_rational_roots([10**9+7, 0, 1])",
        ["-c", "from strangedual.orbits import _rational_roots; print(_rational_roots([10**9 + 7, 0, 1]))"],
    ),
    (
        'frame_to_polynomial(parse_frame("2^100000 / 1^1"))',
        [
            "-c",
            "from strangedual.series import frame_to_polynomial, parse_frame; "
            'print(frame_to_polynomial(parse_frame("2^100000 / 1^1")).degree())',
        ],
    ),
    (
        "(x+y+z+w)**40",
        ["-c", 'from strangedual.polyring import parse_poly; print(len(parse_poly("x+y+z+w") ** 40))'],
    ),
)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def probe(args: list[str]) -> tuple[bool, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            timeout=CAP_S,
            env=env,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return False, f"not decided within {CAP_S} s"
    took = perf_counter() - start
    clean = proc.returncode in (0, 1, 2) and "Traceback" not in proc.stderr
    return clean, f"exit {proc.returncode} after {took:.2f} s" + ("" if clean else " with a traceback")


def main() -> int:
    decided = 0
    for label, child_args in INPUTS:
        ok, note = probe(child_args)
        decided += ok
        print(f"  {'decided' if ok else 'UNDECIDED':9s} {label}: {note}", flush=True)
    print(json.dumps({"stress.decided": decided, "stress.attempted": len(INPUTS)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
