"""Acceptance suite: the ten golden criteria, each an exact identity.

Every test prints one PASS line on success (visible with ``pytest -s`` or
``-rA``); a failure prints the criterion number in the test name.  All
comparisons are exact; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from strangedual.catalog import SUBSTITUTION_CASES, verify_all
from strangedual.coxeter import charpoly_Pi, charpoly_S
from strangedual.invertible import bh_transpose
from strangedual.matfac import lift, reduce, verify_factorization
from strangedual.orbits import CStarAction, dolgachev_pair, split_newton
from strangedual.polyring import (
    Monomial,
    Polynomial,
    format_poly,
    parse_poly,
    quasi_degree,
)
from strangedual.series import (
    FrameProduct,
    UniPolynomial,
    format_frame,
    frame_expand,
    frame_to_polynomial,
    or_polynomial,
    parse_frame,
    poincare,
    saito_dual,
)


def _report(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion:2d} PASS: {detail}")


def test_criterion_01_duality_closure(catalog):
    pairings = {}
    for entry in catalog.entries:
        matrix = entry.exponent_matrix()
        dual = catalog.dual_of(entry)
        start = time.perf_counter()
        transposed = bh_transpose(matrix)
        same = transposed.row_multiset() == dual.exponent_matrix().row_multiset()
        elapsed = time.perf_counter() - start
        assert same, f"{entry.name}: transpose does not match dual {dual.name}"
        assert elapsed < 1e-3, f"{entry.name}: transposition took {elapsed:.6f}s"
        pairings[entry.name] = dual.name
    self_dual = {name for name, dual in pairings.items() if name == dual}
    assert self_dual == {"J'", "K'", "Ls", "M", "Ms", "I"}
    assert pairings["Kb"] == "L" and pairings["L"] == "Kb"
    _report(1, "8/8 rows transpose onto their duals; involution {Kb <-> L} + 6 self-dual")


def test_criterion_02_matrix_factorizations(catalog):
    for entry in catalog.entries:
        f = verify_factorization(entry.matfac)
        assert f == entry.parent.h, entry.name
        assert reduce(lift(entry.matfac)) == entry.parent.h, entry.name
        assert lift(entry.matfac) == entry.virtual_equations, entry.name
    _report(2, "8/8 triples: q0q1 = q1q0 = f*I and reduce(lift) = printed h")


def test_criterion_03_substitutions_and_kernels(catalog):
    for entry in catalog.entries:
        case = SUBSTITUTION_CASES[entry.substitution_case]
        sub = {name: parse_poly(text) for name, text in case["substitution"].items()}
        assert entry.relation == parse_poly(case["relation"]), entry.name
        for source, target in zip(entry.source_terms, entry.duality_terms):
            assert source.substitute(sub) == target, entry.name
        assert entry.source_poly.substitute(sub) == entry.duality_poly, entry.name
        assert entry.kernel in ((1, 1, 0, -2), (1, 1, -1, -1))
        assert all(v == 0 for v in entry.exponent_matrix().apply(entry.kernel)), entry.name
    _report(3, "8/8 substitutions reproduce the four-term polynomials term-for-term; kernels annihilated")


def test_criterion_04_newton_splits(catalog):
    for entry in catalog.entries:
        h1 = entry.virtual_equations.first
        split = split_newton(entry.virtual_equations.second, h1)
        for face, piece in zip(split.faces, entry.decomposition):
            assert face.polynomial == piece.polynomial, entry.name
            assert face.weights == piece.weights, entry.name
            ws = piece.weights
            assert quasi_degree(h1, ws.weights) == ws.degrees[0], entry.name
            assert quasi_degree(piece.polynomial, ws.weights) == ws.degrees[1], entry.name
    _report(4, "8/8 Newton splits reproduce both term subsets with quasi-homogeneous pairs")


def test_criterion_05_dolgachev_numbers(catalog):
    # The three worked examples.
    assert dolgachev_pair(
        parse_poly("x*y - w^2"), parse_poly("-x^2*w + x^2*z + y*z"), CStarAction((2, 4, 3, 3))
    ) == (2, 4)
    assert dolgachev_pair(
        parse_poly("x*y - w^2"), parse_poly("x^2*z + y*z + z^2"), CStarAction((2, 4, 4, 3))
    ) == (2, 4)
    assert dolgachev_pair(
        parse_poly("x*y - z*w"), parse_poly("-x^2*w + x*w^2 + z^2"), CStarAction((2, 3, 3, 2))
    ) == (2, 2)
    for entry in catalog.entries:
        h1 = entry.virtual_equations.first
        for piece, expected in zip(entry.decomposition, entry.dolgachev):
            pair = dolgachev_pair(h1, piece.polynomial, CStarAction(piece.weights.weights))
            assert pair == tuple(sorted(expected)), entry.name
    _report(5, "worked examples (2,4), (2,4), (2,2) and all 16 catalog pairs reproduced")


def test_criterion_06_zeta_theorem_first_equality(catalog):
    for entry in catalog.entries:
        dual = catalog.dual_of(entry)
        product = poincare(entry.dual_k0_weights) * or_polynomial(dual.dolgachev_flat())
        assert product == entry.zeta_frame, entry.name
    assert catalog.get("J'").zeta_frame == parse_frame("2^2*8*10 / 1^2*4*5")
    assert catalog.get("M").zeta_frame == parse_frame("6*7 / 1^2")
    _report(6, "8/8 frames equal P(dual weights) * Or(dual Dolgachev) exactly")


def test_criterion_07_coxeter_charpoly_consistency(catalog):
    for entry in catalog.entries:
        gammas = entry.gabrielov_flat()
        from_frame = frame_to_polynomial(entry.zeta_frame)
        from_formula = charpoly_S(gammas)
        assert from_formula == from_frame, entry.name
        assert from_formula.degree() == sum(gammas) - 1 == 11, entry.name
        product = UniPolynomial([1, -2, 1]) * from_formula
        assert charpoly_Pi(gammas) == product, entry.name
    _report(7, "8/8 closed-form Coxeter polynomials match the frames; degree 11; Pi = (1-t)^2 S")


def test_criterion_08_strange_duality(catalog):
    for entry in catalog.entries:
        dual = catalog.dual_of(entry)
        gab = tuple(tuple(sorted(p)) for p in entry.gabrielov)
        dol = tuple(tuple(sorted(p)) for p in dual.dolgachev)
        assert gab == dol or gab == (dol[1], dol[0]), entry.name
    _report(8, "Gab(X) = Dol(dual X) for all 8 entries")


def test_criterion_09_milnor_number_and_multiplicities(catalog):
    for entry in catalog.entries:
        assert sum(entry.gabrielov_flat()) == 12, entry.name
        assert 3 + sum(entry.dynkin.multiplicity_values()) == 13, entry.name
    _report(9, "sum(gamma) = 12 and 3 + sum(M_j) = 13 for all 8 entries")


def _random_poly(rng, max_terms=4, max_exp=3):
    table = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = Monomial(tuple(rng.randint(0, max_exp) for _ in range(4)))
        table[mono] = table.get(mono, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(table)


def test_criterion_10_property_suites(catalog):
    rng = random.Random(12012)

    # Ring axioms and substitution homomorphism, >= 1000 random cases.
    cases = 0
    while cases < 1000:
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        sub = {v: _random_poly(rng, max_terms=2, max_exp=2) for v in "xyzw"}
        assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
        cases += 1

    # Transpose involution on all catalog matrices.
    for entry in catalog.entries:
        matrix = entry.exponent_matrix()
        assert bh_transpose(bh_transpose(matrix)) == matrix

    # Saito-dual involution on valid domains.
    for _ in range(300):
        d = rng.choice((4, 6, 8, 12, 24))
        divisors = [m for m in range(1, d + 1) if d % m == 0]
        frame = FrameProduct(
            {m: rng.randint(-3, 3) for m in rng.sample(divisors, rng.randint(1, len(divisors)))}
        )
        assert saito_dual(saito_dual(frame, d), d) == frame

    # Poincare expansions non-negative to order 60 for all catalog weight
    # systems (k = 0 systems, dual systems, and both face systems).
    systems = set()
    for entry in catalog.entries:
        systems.add(entry.k0_weights)
        systems.add(entry.dual_k0_weights)
        for piece in entry.decomposition:
            systems.add(piece.weights)
    for ws in systems:
        expansion = frame_expand(poincare(ws), 60)
        assert all(c >= 0 for c in expansion), ws

    # Parser round-trips.
    for _ in range(300):
        p = _random_poly(rng)
        assert parse_poly(format_poly(p)) == p
        frame = FrameProduct(
            {rng.randint(1, 12): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
        )
        assert parse_frame(format_frame(frame)) == frame

    _report(10, "ring/substitution (1000 cases), involutions, positivity to order 60, round-trips")


def test_full_verification_suite(catalog):
    report = verify_all(catalog)
    assert report.ok, report.to_text()
    assert report.total == 80
    _report(0, "catalog verification matrix 80/80")
