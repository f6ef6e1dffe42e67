"""Every function the traced benchmark wraps still exists in the package.

``benchmarks/spans.py`` names its targets by module and attribute path; a
renamed or deleted function makes ``Recorder.install`` fail on the first
traced run.  The tables are read from that file, not copied here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, path):
    module = importlib.import_module(f"strangedual.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return vars(owner)[attr]


def test_every_span_target_resolves():
    spans = _spans()
    paths = [(module, path) for _, module, path, _ in spans.TARGETS]
    paths += [(module, path) for _, module, path in spans.COUNTERS]
    for module, path in paths:
        assert callable(_resolve(module, path)), (module, path)
    for needed in (
        ("_linalg", "mat_rank"),
        ("_linalg", "solve_affine"),
        ("polyring", "Polynomial.evaluate"),
        ("orbits", "_solve_stratum"),
        ("orbits", "_rational_roots"),
        ("orbits", "_uni_eval"),
    ):
        assert needed in paths


def test_recorder_installs_and_restores():
    spans = _spans()
    from strangedual import orbits, polyring

    before = (orbits._solve_stratum, polyring.Polynomial.evaluate)
    recorder = spans.Recorder()
    try:
        recorder.install()
        assert (orbits._solve_stratum, polyring.Polynomial.evaluate) != before
    finally:
        recorder.uninstall()
    assert (orbits._solve_stratum, polyring.Polynomial.evaluate) == before
