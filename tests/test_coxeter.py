import random
from itertools import permutations, product

import pytest

from strangedual.coxeter import GabrielovQuadruple, charpoly_Pi, charpoly_S, emit_graph
from strangedual.series import UniPolynomial, frame_to_polynomial, parse_frame


def test_trivial_quadruple():
    assert charpoly_S((1, 1, 1, 1)) == UniPolynomial([1, -2, -2, 1])


def test_jprime_series_matches_frame():
    assert charpoly_S((2, 2, 2, 6)) == frame_to_polynomial(parse_frame("2^2*8*10 / 1^2*4*5"))
    assert charpoly_S((2, 2, 2, 6)) == UniPolynomial([1, 2, 1, 0, 1, 3, 3, 1, 0, 1, 2, 1])


def test_m_series_matches_frame():
    assert charpoly_S((3, 3, 2, 4)) == frame_to_polynomial(parse_frame("6*7 / 1^2"))


def test_charpoly_pi_values():
    one_minus_t_sq = UniPolynomial([1, -2, 1])
    assert charpoly_Pi((2, 2, 2, 6)) == one_minus_t_sq * charpoly_S((2, 2, 2, 6))
    assert charpoly_Pi((2, 2, 2, 6)).degree() == 13
    assert charpoly_Pi((1, 1, 1, 1)) == one_minus_t_sq * UniPolynomial([1, -2, -2, 1])


def test_charpoly_pi_quotient_exact():
    for gammas in ((2, 2, 2, 6), (2, 2, 4, 4), (3, 3, 3, 3), (2, 3, 3, 4)):
        assert charpoly_Pi(gammas) == UniPolynomial([1, -2, 1]) * charpoly_S(gammas)


def test_degree_and_constant_term_over_small_range():
    for gammas in product(range(1, 7), repeat=4):
        poly = charpoly_S(gammas)
        assert poly.degree() == sum(gammas) - 1
        assert poly.coefficients[0] in (1, -1)
        assert charpoly_Pi(gammas).degree() == sum(gammas) + 1


def test_symmetry_under_permutations():
    for base in ((2, 2, 3, 5), (2, 3, 3, 4), (1, 2, 3, 4)):
        polys = {charpoly_S(p).coefficients for p in permutations(base)}
        assert len(polys) == 1


def _geometric_product_charpoly(gammas):
    # The closed form as a sum of products of geometric sums
    # 1 + t + ... + t^(n-1), one dense product at a time.
    def geometric(n):
        return UniPolynomial([1] * n)

    arms = [geometric(g) for g in gammas]
    total = UniPolynomial([1, -2, -2, 1])
    for arm in arms:
        total = total * arm
    for i in range(4):
        term = UniPolynomial([0, 0, 1]) * geometric(gammas[i] - 1)
        for j in range(4):
            if j != i:
                term = term * arms[j]
        total = total + term
    return total


def test_charpoly_matches_geometric_product_oracle():
    rng = random.Random(11)
    seeded = [tuple(rng.randint(1, 60) for _ in range(4)) for _ in range(200)]
    # Arms of 1 beside arms in the hundreds.
    seeded += [tuple(rng.choice((1, rng.randint(100, 300))) for _ in range(4)) for _ in range(12)]
    one_minus_t_sq = UniPolynomial([1, -2, 1])
    for gammas in [*product(range(1, 9), repeat=4), *seeded]:
        expected = _geometric_product_charpoly(gammas)
        assert charpoly_S(gammas) == expected, gammas
        assert charpoly_Pi(gammas) == one_minus_t_sq * expected, gammas


def test_quadruple_validation():
    for bad in ((0, 1, 1, 1), (1, 1, 1, 10**6 + 1), (1, 1, 1)):
        with pytest.raises(ValueError, match=r"in \[1, 1000000\]"):
            GabrielovQuadruple(bad)
    assert GabrielovQuadruple((10**6, 1, 1, 1)).gammas == (10**6, 1, 1, 1)
    with pytest.raises(TypeError):
        charpoly_S((2.5, 2, 2, 6))
    quad = GabrielovQuadruple((2, 2, 3, 5))
    assert quad.gammas == (2, 2, 3, 5)
    assert str(quad) == "2,2;3,5"


def test_graph_vertex_counts():
    assert len(emit_graph((2, 2, 2, 6), "S").vertices) == 11
    assert len(emit_graph((2, 2, 2, 6), "Pi").vertices) == 13
    assert len(emit_graph((1, 1, 1, 1), "S").vertices) == 3
    assert len(emit_graph((1, 1, 1, 1), "Pi").vertices) == 5


def test_graph_edge_styles():
    s_graph = emit_graph((2, 2, 3, 5), "S")
    assert sum(1 for e in s_graph.edges if e.style == "double") == 1
    assert sum(1 for e in s_graph.edges if e.style == "dashed") == 0
    pi_graph = emit_graph((2, 2, 3, 5), "Pi")
    assert sum(1 for e in pi_graph.edges if e.style == "double") == 2
    assert sum(1 for e in pi_graph.edges if e.style == "dashed") == 1


def test_graph_arm_lengths():
    graph = emit_graph((2, 3, 4, 6), "S")
    for i, gamma in enumerate((2, 3, 4, 6), start=1):
        arm = [v for v in graph.vertices if v.startswith(f"d{i}_")]
        assert len(arm) == gamma - 1


def test_dot_output():
    dot = emit_graph((2, 2, 2, 6), "S").to_dot()
    assert dot.startswith("graph S_2_2_2_6 {")
    assert 'style=bold,label="2"' in dot
    assert dot.rstrip().endswith("}")
    pi_dot = emit_graph((2, 2, 2, 6), "Pi").to_dot()
    assert "style=dashed" in pi_dot


def test_bad_shape():
    with pytest.raises(ValueError):
        emit_graph((2, 2, 2, 6), "T")
