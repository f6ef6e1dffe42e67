"""Spans around the library's public functions, for the traced run.

A wrapper replaces each target function where its callers look it up:
every module global of the ``strangedual`` package bound to the
function (so ``from .orbits import dolgachev_pair`` in ``catalog`` is
covered), or the class attribute for a method.  Private helpers such as
``orbits._solve_stratum`` are module globals that their callers resolve
at call time, so their wrappers also see every call.

Each span records its name, start and end, and the span that called it;
as a span closes it is folded into per-name totals (calls, inclusive
time, self time = duration minus the time its child spans cover), so a
run of a hundred thousand spans keeps a flat memory profile.  The totals
stay in memory until the run ends.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import sys
from collections import Counter
from time import perf_counter_ns


def _count_roots(counts, result):
    counts["orbits.roots_found"] += len(result[0])


def _count_failed_check(counts, result):
    if not result.passed:
        counts["catalog.checks_failed"] += 1


_CHECKS = (
    "matfac",
    "coordinate_change",
    "substitution",
    "kernel",
    "duality",
    "quasi_homogeneity",
    "newton_split",
    "dolgachev",
    "zeta",
    "strange_duality",
)

#: (span name, module, attribute path, hook run on the result).  Layer
#: names follow the modules; ``_linalg`` is spelled ``linalg`` because a
#: metric name must start with a letter.
TARGETS = (
    ("cli.render", "catalog", "CatalogReport.to_text", None),
    ("cli.render", "catalog", "CatalogReport.to_json", None),
    ("catalog.load", "catalog", "load_catalog", None),
    *((f"catalog.check.{c}", "catalog", f"_check_{c}", _count_failed_check) for c in _CHECKS),
    ("polyring.parse", "polyring", "parse_poly", None),
    ("polyring.format", "polyring", "format_poly", None),
    ("polyring.add", "polyring", "Polynomial.__add__", None),
    ("polyring.mul", "polyring", "Polynomial.__mul__", None),
    ("polyring.pow", "polyring", "Polynomial.__pow__", None),
    ("polyring.substitute", "polyring", "Polynomial.substitute", None),
    ("polyring.evaluate", "polyring", "Polynomial.evaluate", None),
    *((f"linalg.{f}", "_linalg", f, None) for f in ("mat_det", "rref", "mat_rank", "solve_affine")),
    *(
        (f"invertible.{f}", "invertible", f, None)
        for f in ("canonical_weights", "smith_normal_form", "symmetry_group", "bh_transpose")
    ),
    *((f"matfac.{f}", "matfac", f, None) for f in ("lift", "reduce", "verify_factorization")),
    *(
        (f"series.{f}", "series", f, None)
        for f in ("poincare", "frame_expand", "frame_to_polynomial", "saito_dual", "parse_frame")
    ),
    *((f"coxeter.{f}", "coxeter", f, None) for f in ("charpoly_S", "charpoly_Pi")),
    *(
        (f"orbits.{f}", "orbits", f, None)
        for f in ("split_newton", "classify_case", "exceptional_orbits", "dolgachev_pair")
    ),
    ("orbits.solve_stratum", "orbits", "_solve_stratum", None),
    ("orbits.rational_roots", "orbits", "_rational_roots", _count_roots),
)

#: Functions that are only counted, not timed: each candidate root that
#: ``_rational_roots`` tries is one ``_uni_eval`` call.
COUNTERS = (("orbits.candidate_evals", "orbits", "_uni_eval"),)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))


def _span_metrics(span):
    if span == "cli.render":
        return (("cli.render_ms", "ms"),)
    if span.startswith("catalog."):
        return ((f"{span}.self_ms", "ms"),)
    return ((f"{span}.calls", "count"), (f"{span}.self_ms", "ms"))


#: The traced run's metrics, in the order they are printed.
PER_LAYER = (
    ("cli.import_ms", "ms"),
    *(metric for span in SPAN_NAMES for metric in _span_metrics(span)),
    ("catalog.checks_failed", "count"),
    ("polyring.fraction_new.calls", "count"),
    ("orbits.root_hit_ratio", "ratio"),
    ("orbits.errors", "count"),
    ("trace.coverage_share", "share"),
    ("trace.overhead_share", "share"),
)


class Recorder:
    """Per-name span totals for the spans closed while ``active``."""

    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.incl_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.root_ns = 0
        self._stack = []
        self._patches = []

    def _span(self, name, fn, hook):
        rec = self
        in_orbits = name.startswith("orbits.")

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec._stack
            parent = stack[-1] if stack else None
            frame = [name, 0]  # name, time covered by child spans
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if in_orbits and (parent is None or not parent[0].startswith("orbits.")):
                    rec.counts["orbits.errors"] += 1
                raise
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                rec.calls[name] += 1
                rec.incl_ns[name] += duration
                rec.self_ns[name] += duration - frame[1]
                if parent is None:
                    rec.root_ns += duration
                else:
                    parent[1] += duration
            if hook is not None:
                hook(rec.counts, result)
            return result

        return wrapper

    def _counter(self, key, fn):
        rec = self

        def wrapper(*args):
            if rec.active:
                rec.counts[key] += 1
            return fn(*args)

        return wrapper

    def _replace(self, module, path, wrapper_for):
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, wrapper_for(original))
            return
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "strangedual" and not mod_name.startswith("strangedual."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in the already imported ``strangedual``."""
        for name, module_name, path, hook in TARGETS:
            module = importlib.import_module(f"strangedual.{module_name}")
            self._replace(module, path, lambda fn: self._span(name, fn, hook))
        for key, module_name, path in COUNTERS:
            module = importlib.import_module(f"strangedual.{module_name}")
            self._replace(module, path, lambda fn: self._counter(key, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Plain totals, as written out when the run ends."""
        return {
            "calls": dict(self.calls),
            "incl_ns": dict(self.incl_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "root_ns": self.root_ns,
        }


def merge(summaries) -> dict:
    """Add up the totals of several runs (one per traced process)."""
    total = {"calls": Counter(), "incl_ns": Counter(), "self_ns": Counter(), "counts": Counter(), "root_ns": 0}
    for s in summaries:
        for key in ("calls", "incl_ns", "self_ns", "counts"):
            total[key].update(s[key])
        total["root_ns"] += s["root_ns"]
    return total


def fraction_new_calls(profile: cProfile.Profile) -> int:
    """Calls of ``Fraction.__new__`` recorded by a cProfile pass."""
    for (filename, _, func), row in pstats.Stats(profile).stats.items():
        if func == "__new__" and filename.endswith("fractions.py"):
            return row[1]
    return 0
