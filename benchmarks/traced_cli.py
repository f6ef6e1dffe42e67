"""A cold ``strangedual`` command run under spans or under cProfile.

    python3 benchmarks/traced_cli.py trace|profile OUT.json verify [--json]

Times the import of ``strangedual.cli``, wraps the library's functions
(``trace``) or profiles the command (``profile``), runs the command with
its normal output, and writes the totals to OUT.json on exit.
"""

from __future__ import annotations

import cProfile
import json
import sys
from time import perf_counter_ns

start = perf_counter_ns()
import strangedual.cli  # noqa: E402  (the import is what is timed)

import_ns = perf_counter_ns() - start

import spans  # noqa: E402


def main(argv) -> int:
    mode, out, *command = argv
    summary = {"import_ns": import_ns}
    if mode == "trace":
        recorder = spans.Recorder()
        recorder.install()
        recorder.active = True
        code = strangedual.cli.main(command)
        recorder.active = False
        summary.update(recorder.summary())
    else:
        profile = cProfile.Profile()
        profile.enable()
        code = strangedual.cli.main(command)
        profile.disable()
        summary["fraction_new"] = spans.fraction_new_calls(profile)
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
