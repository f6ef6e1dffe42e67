"""The benchmark's four workloads: seeded inputs, the timed task, and the
oracle that checks each result.

Every workload draws a pool of inputs from its seed during set-up; the
timed loop cycles through the pool.  Inputs in slot k of every pool have
the same shape (term counts, exponents, matrix kind), and only the
values vary with the seed, so runs on different seeds measure the same
kind of work.  The library is called through its module attributes, so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import oracles
from strangedual import catalog, coxeter, invertible, matfac, orbits, polyring, series

HERE = Path(__file__).resolve().parent
#: Per-task cap for a cold ``verify`` subprocess, in seconds.
VERIFY_TIMEOUT = 60


def _rational(rng: random.Random, height: int) -> Fraction:
    """Nonzero rational with numerator and denominator at most ``height``."""
    return Fraction(rng.choice((1, -1)) * rng.randint(1, height), rng.randint(1, height))


def _poly(rng, nterms, mindeg, maxdeg, height, variables=(0, 1, 2, 3)):
    """Sparse polynomial with ``nterms`` distinct monomials of total degree
    in [mindeg, maxdeg] over the given variable indices."""
    table = {}
    while len(table) < nterms:
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(mindeg, maxdeg)):
            exps[rng.choice(variables)] += 1
        table[polyring.Monomial(tuple(exps))] = _rational(rng, height)
    return polyring.Polynomial(table)


class Catalog:
    """Cold ``python -m strangedual.cli verify``, text and ``--json`` in
    turn: the headline user path (import, catalog load, 80 checks)."""

    in_process = False
    trace_tasks = 6

    def setup(self, seed):
        # The seed only picks which output mode comes first.
        first = random.Random(seed).random() < 0.5
        return [first, not first]

    def command(self, as_json, traced=None):
        """``traced`` is None for a plain run, else (mode, output file)."""
        cli = ["verify", "--json"] if as_json else ["verify"]
        if traced is None:
            return [sys.executable, "-m", "strangedual.cli", *cli]
        mode, out = traced
        return [sys.executable, str(HERE / "traced_cli.py"), mode, str(out), *cli]

    def task(self, as_json, traced=None):
        proc = subprocess.run(
            self.command(as_json, traced),
            capture_output=True,
            text=True,
            timeout=VERIFY_TIMEOUT,
        )
        return proc.returncode, proc.stdout

    def check(self, as_json, result):
        returncode, stdout = result
        return oracles.verify_output_ok(returncode, stdout, as_json)


class OrbitsScaled:
    """Dolgachev pairs of diagonally rescaled catalog pairs: exact rational
    root search on non-integral coefficients, no import or catalog load
    in the timed region."""

    in_process = True
    trace_tasks = 160
    #: Largest numerator and denominator of a rescaling factor.  At 16
    #: single inputs already take seconds and at 30 tens of seconds (the
    #: linear divisor scan); 12 keeps every task within the run.
    HEIGHT = 12
    PER_ENTRY = 60

    def setup(self, seed):
        rng = random.Random(seed)
        self.catalog = catalog.load_catalog()
        pool = []
        for _ in range(self.PER_ENTRY):
            for entry in self.catalog.entries:
                factors = [_rational(rng, self.HEIGHT) for _ in range(4)]
                scaling = {
                    v: polyring.Polynomial.constant(f) * polyring.Polynomial.variable(v)
                    for v, f in zip(polyring.VARIABLES, factors)
                }
                h1 = entry.virtual_equations.first.substitute(scaling)
                h2 = entry.virtual_equations.second.substitute(scaling)
                pool.append((entry, h1, h2))
        return pool

    def task(self, inp):
        _, h1, h2 = inp
        split = orbits.split_newton(h2, h1)
        pairs = tuple(
            orbits.dolgachev_pair(h1, face.polynomial, orbits.CStarAction(face.weights.weights))
            for face in split.faces
        )
        return tuple(face.weights for face in split.faces), pairs

    def check(self, inp, result):
        # Rescaling the coordinates changes neither the faces' weight
        # systems nor the isotropy orders: the catalog's values must hold.
        entry = inp[0]
        weights, pairs = result
        return weights == tuple(p.weights for p in entry.decomposition) and pairs == tuple(
            tuple(sorted(p)) for p in entry.dolgachev
        )


class Algebra:
    """Sparse polynomial kernels at hundreds of terms: product, sum,
    power, substitution of polynomial images, format and parse, and the
    matrix-factorization round trip."""

    in_process = True
    trace_tasks = 24
    POOL = 48

    def setup(self, seed):
        rng = random.Random(seed)
        pool = []
        for k in range(self.POOL):
            # a, b in (z, w) and c in (x, z, w), with the degrees lift needs.
            triple = matfac.FactorizationTriple(
                _poly(rng, 3, 2, 3, 9, variables=(2, 3)),
                _poly(rng, 2, 1, 2, 9, variables=(2, 3)),
                _poly(rng, 4, 2, 3, 9, variables=(0, 2, 3)),
            )
            pool.append(
                {
                    "p": _poly(rng, 20, 0, 6, 9),
                    "q": _poly(rng, 20, 0, 6, 9),
                    "r": _poly(rng, 5, 1, 2, 9),
                    "e": 3 + k % 3,
                    "src": _poly(rng, 10, 0, 4, 9),
                    "images": {v: _poly(rng, 3, 1, 2, 9) for v in polyring.VARIABLES},
                    "triple": triple,
                    "point": tuple(_rational(rng, 5) for _ in range(4)),
                }
            )
        return pool

    def task(self, inp):
        product = inp["p"] * inp["q"]
        total = inp["p"] + inp["q"]
        power = inp["r"] ** inp["e"]
        image = inp["src"].substitute(inp["images"])
        back = polyring.parse_poly(polyring.format_poly(product))
        reduced = matfac.reduce(matfac.lift(inp["triple"]))
        return product, total, power, image, back, reduced

    def check(self, inp, result):
        product, total, power, image, back, reduced = result
        pt = inp["point"]

        def ev(p, at=pt):
            return oracles.evaluate(p, at)

        p, q = ev(inp["p"]), ev(inp["q"])
        a, b, c = (ev(inp["triple"].a), ev(inp["triple"].b), ev(inp["triple"].c))
        moved = tuple(ev(inp["images"][v]) for v in polyring.VARIABLES)
        return (
            ev(product) == p * q
            and ev(total) == p + q
            and ev(power) == ev(inp["r"]) ** inp["e"]
            and ev(image) == ev(inp["src"], moved)
            and back == product
            and ev(reduced) == pt[0] * c + a * b
        )


class Gradings:
    """Exponent matrices, Poincare series, frames and Coxeter polynomials:
    the series, coxeter and invertible layers that verify barely uses."""

    in_process = True
    trace_tasks = 300
    POOL = 200
    ORDER = 40

    def setup(self, seed):
        rng = random.Random(seed)
        pool = []
        for k in range(self.POOL):
            a = [rng.randint(2, 7) for _ in range(4)]
            rows = [[a[0], 1, 0, 0], [0, a[1], 1, 0], [0, 0, a[2], 1], [0, 0, 0, a[3]]]
            if k % 2:
                rows[3][0] = 1  # loop instead of chain
            factors = [(rng.randint(1, 6), rng.randint(2, 5)) for _ in range(3)]
            numerator = "*".join(str(u * v) for u, v in factors)
            denominator = "*".join(str(u) for u, _ in factors)
            pool.append(
                {
                    "matrix": invertible.ExponentMatrix.make(rows),
                    "weights": series.WeightSystem(
                        tuple(rng.randint(2, 9) for _ in range(4)),
                        (rng.randint(10, 30), rng.randint(10, 30)),
                    ),
                    "frame": f"{numerator} / {denominator}",
                    "frame_degree": sum(u * (v - 1) for u, v in factors),
                    "saito_degree": lcm(*(u * v for u, v in factors), *(u for u, _ in factors)),
                    "gamma": tuple(rng.randint(2, 40) for _ in range(4)),
                }
            )
        return pool

    def task(self, inp):
        m = inp["matrix"]
        weights = invertible.canonical_weights(m)
        smith = invertible.smith_normal_form(m.rows)
        group = invertible.symmetry_group(m)
        twice = invertible.bh_transpose(invertible.bh_transpose(m))
        poincare = series.frame_expand(series.poincare(inp["weights"]), self.ORDER)
        frame = series.parse_frame(inp["frame"])
        expanded = series.frame_to_polynomial(frame)
        taylor = series.frame_expand(frame, inp["frame_degree"])
        d = inp["saito_degree"]
        dual_twice = series.saito_dual(series.saito_dual(frame, d), d)
        cox_s = coxeter.charpoly_S(inp["gamma"])
        cox_pi = coxeter.charpoly_Pi(inp["gamma"])
        return weights, smith, group, twice, poincare, frame, expanded, taylor, dual_twice, cox_s, cox_pi

    def check(self, inp, result):
        weights, smith, group, twice, poincare, frame, expanded, taylor, dual_twice, cox_s, cox_pi = result
        rows = inp["matrix"].rows
        det = oracles.det(rows)
        ws = inp["weights"]
        coefficients = list(expanded.coefficients)
        total = sum(inp["gamma"])
        return (
            prod(smith) == abs(det)
            and group.order == abs(det)
            and weights.degree == det
            and oracles.solves_weights(rows, weights.weights, weights.degree)
            and twice.rows == rows
            and list(poincare) == oracles.poincare_coefficients(ws.weights, ws.degrees, self.ORDER)
            and list(taylor) == coefficients + [0] * (inp["frame_degree"] + 1 - len(coefficients))
            and dual_twice == frame
            and cox_s.degree() == total - 1
            and oracles.is_palindrome(cox_s.coefficients)
            and cox_pi.degree() == total + 1
            and oracles.is_palindrome(cox_pi.coefficients)
        )


WORKLOADS = {
    "catalog": Catalog,
    "orbits-scaled": OrbitsScaled,
    "algebra": Algebra,
    "gradings": Gradings,
}
