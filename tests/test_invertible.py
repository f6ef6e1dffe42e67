import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from strangedual._linalg import mat_det
from strangedual.invertible import (
    ExponentMatrix,
    InvertibleError,
    SingularMatrixError,
    TermCountError,
    WeightSolution,
    bh_transpose,
    canonical_weights,
    from_terms,
    grading_operator,
    smith_normal_form,
    symmetry_group,
)
from strangedual.polyring import parse_poly_terms

KFLAT_F = "x^4*y^2*w^3 + z^2 + y^2*z*w + x^4*z*w^2"
L_F = "x^4*w^4 + x^2*z^2 + y^2*z*w + x^3*z*w^2"
JPRIME_F = "x^7*y*w^4 + x*y^3*w^2 + z^2 + x^4*y^2*w^3"
I_F = "x^12*w^6 + y^12*w^6 + z^2 + x^6*y^6*w^6"


def _ordered_matrix(text):
    return from_terms(parse_poly_terms(text))


def test_from_terms_small():
    matrix = from_terms(parse_poly_terms("x^2*y + y^3"), ("x", "y"))
    assert matrix.rows == ((2, 1), (0, 3))


def test_from_terms_kflat_rows():
    matrix = _ordered_matrix(KFLAT_F)
    assert matrix.rows == ((4, 2, 0, 3), (0, 0, 2, 0), (0, 2, 1, 1), (4, 0, 1, 2))


def test_from_terms_term_count_error():
    with pytest.raises(TermCountError):
        from_terms(parse_poly_terms("x^2 + 2*x*y + y^2"), ("x", "y"))


def test_from_terms_accepts_singular():
    matrix = from_terms(parse_poly_terms(KFLAT_F))
    assert matrix.det() == 0
    # The operations that need det E != 0 refuse it themselves.
    with pytest.raises(SingularMatrixError):
        grading_operator(matrix)
    with pytest.raises(SingularMatrixError):
        symmetry_group(matrix)


def test_transpose_kflat_is_l():
    transposed = bh_transpose(_ordered_matrix(KFLAT_F))
    assert transposed.rows == ((4, 0, 0, 4), (2, 0, 2, 0), (0, 2, 1, 1), (3, 0, 1, 2))
    assert transposed.row_multiset() == _ordered_matrix(L_F).row_multiset()


def test_transpose_fermat_fixed():
    matrix = from_terms(parse_poly_terms("x^3 + y^3"), ("x", "y"))
    assert bh_transpose(matrix).rows == matrix.rows


def test_transpose_involution():
    matrix = _ordered_matrix(JPRIME_F)
    assert bh_transpose(bh_transpose(matrix)) == matrix


def test_transpose_involution_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 4)
        rows = tuple(tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(n))
        matrix = ExponentMatrix.make(rows)
        assert bh_transpose(bh_transpose(matrix)) == matrix
        # The transpose skips the constructor's checks; it equals the
        # matrix the checked constructor builds from the transposed rows.
        columns = tuple(tuple(row[i] for row in rows) for i in range(n))
        checked = ExponentMatrix(columns, matrix.variables, matrix.coefficients)
        assert bh_transpose(matrix) == checked and type(bh_transpose(matrix)) is ExponentMatrix


def _cramer_2x2(matrix):
    # Independent oracle: Cramer's rule on E w = det(E) * (1, 1) gives
    # w1 = det([[D, b], [D, d]]) / D = d - b and w2 = a - c.
    (a, b), (c, d) = matrix.rows
    det = a * d - b * c
    return d - b, a - c, det


def test_canonical_weights_2x2():
    matrix = from_terms(parse_poly_terms("x^2*y + y^3"), ("x", "y"))
    solution = canonical_weights(matrix)
    assert (solution.weights, solution.degree) == ((2, 2), 6)
    assert (solution.reduced_weights, solution.reduced_degree) == ((1, 1), 3)
    assert (*solution.weights, solution.degree) == _cramer_2x2(matrix)


def test_canonical_weights_fermat():
    matrix = from_terms(parse_poly_terms("x^3 + y^3"), ("x", "y"))
    solution = canonical_weights(matrix)
    assert (solution.weights, solution.degree) == ((3, 3), 9)


def test_canonical_weights_defining_identity_random():
    rng = random.Random(13)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 4)
        rows = [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
        matrix = ExponentMatrix.make(rows)
        if matrix.det() == 0:
            continue
        solution = canonical_weights(matrix)
        assert matrix.apply(solution.weights) == tuple([Fraction(solution.degree)] * n)
        checked += 1


def test_apply_stays_in_the_ring_of_its_vector():
    matrix = _ordered_matrix(KFLAT_F)
    image = matrix.apply((1, 1, 0, -2))
    assert image == (0, 0, 0, 0) and all(type(v) is int for v in image)
    image = matrix.apply((Fraction(1, 2), 0, 0, 1))
    assert image == (Fraction(5), Fraction(0), Fraction(1), Fraction(4))
    assert all(type(v) is Fraction for v in image)


def test_canonical_weights_singular_i_series():
    # The four-term I-series polynomial has det E = 0; the weight direction
    # is the kernel, which treats x and y symmetrically.
    matrix = _ordered_matrix(I_F)
    solution = canonical_weights(matrix)
    assert solution.degree == 0
    assert solution.weights[0] == solution.weights[1] != 0
    assert not solution.positive
    assert all(v == 0 for v in matrix.apply(solution.weights))


def test_grading_operator_values():
    fermat = from_terms(parse_poly_terms("x^3 + y^3"), ("x", "y"))
    grading = grading_operator(fermat)
    assert grading.charges == (Fraction(1, 3), Fraction(1, 3))
    assert grading.order == 3

    chain = from_terms(parse_poly_terms("x^2*y + y^3"), ("x", "y"))
    grading = grading_operator(chain)
    assert grading.charges == (Fraction(1, 3), Fraction(1, 3))
    assert grading.order == 3


def test_grading_order_divides_degree():
    rng = random.Random(3)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 3)
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        matrix = ExponentMatrix.make(rows)
        if matrix.det() == 0:
            continue
        solution = canonical_weights(matrix)
        grading = grading_operator(matrix)
        assert abs(solution.degree) % grading.order == 0
        checked += 1


def test_symmetry_group_examples():
    fermat = from_terms(parse_poly_terms("x^3 + y^3"), ("x", "y"))
    group = symmetry_group(fermat)
    assert group.invariant_factors == (3, 3)
    assert group.order == 9

    chain = from_terms(parse_poly_terms("x^2*y + y^3"), ("x", "y"))
    group = symmetry_group(chain)
    assert group.invariant_factors == (6,)
    assert group.order == 6


def test_symmetry_group_order_is_abs_det():
    matrix = ExponentMatrix.make([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    assert symmetry_group(matrix).order == abs(matrix.det())
    assert symmetry_group(bh_transpose(matrix)).order == symmetry_group(matrix).order


def _minor_gcd(rows, ncols, k):
    g = 0
    for row_idx in combinations(range(len(rows)), k):
        for col_idx in combinations(range(ncols), k):
            sub = [[rows[i][j] for j in col_idx] for i in row_idx]
            g = gcd(g, abs(int(_det_int(sub))))
    return g


def _det_int(rows):
    # Laplace expansion; independent of the package determinant.
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * _det_int(minor)
    return total


def test_mat_det_cofactor_oracle():
    # Seeded integer matrices 1x1 to 5x5 with negative entries; each also
    # appears with its first row made a sum of two others (singular) and
    # with a zero top-left entry (a pivot swap).
    rng = random.Random(7)
    singular = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        cases = [rows, [[0] + rows[0][1:]] + rows[1:]]
        if n >= 3:
            cases.append([[a + b for a, b in zip(rows[1], rows[2])]] + rows[1:])
        for case in cases:
            det = mat_det(case)
            assert type(det) is int
            assert det == _det_int(case)
            singular += det == 0
    assert singular >= 50


def test_mat_det_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        mat_det([[Fraction(1, 2)]])
    with pytest.raises(TypeError):
        mat_det([[1, 0], [0, 2.0]])


def _adjugate_times_ones(rows):
    # (adj E).1: entry i is sum_j (-1)^(i+j) det(E without row j, column i).
    n = len(rows)
    if n == 1:
        return (1,)
    return tuple(
        sum(
            (-1) ** (i + j) * _det_int([r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j])
            for j in range(n)
        )
        for i in range(n)
    )


def test_canonical_weights_adjugate_oracle():
    rng = random.Random(29)
    checked = 0
    while checked < 80:
        n = rng.randint(1, 4)
        rows = [[rng.randint(0, 5) for _ in range(n)] for _ in range(n)]
        det = _det_int(rows)
        if det == 0:
            continue
        solution = canonical_weights(ExponentMatrix.make(rows))
        assert (solution.weights, solution.degree) == (_adjugate_times_ones(rows), det)
        checked += 1


def _weights_by_column_determinants(matrix):
    # The per-column algorithm, frozen here: det E, then one determinant
    # of E with column i set to 1 per column; the singular case as is.
    det = mat_det(matrix.rows)
    if det == 0:
        kernel = matrix.kernel_basis()
        if len(kernel) != 1:
            raise SingularMatrixError(
                f"kernel dimension {len(kernel)} != 1; no canonical weight direction"
            )
        weights = kernel[0]
    else:
        weights = tuple(
            mat_det([row[:i] + (1,) + row[i + 1 :] for row in matrix.rows]) for i in range(len(matrix.rows))
        )
    g = gcd(*weights, det) or 1
    return WeightSolution(
        weights, det, tuple(v // g for v in weights), det // g, all(v > 0 for v in weights)
    )


def _zero_pivot_rows(rng, n):
    # A zero top-left entry, and for n >= 3 often a singular leading 2x2
    # block, so elimination swaps rows more than once.
    rows = [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
    rows[0][0] = 0
    if n >= 3 and rng.random() < 0.5:
        rows[1][:2] = [0, rng.randint(0, 4)]
    return rows


def _negative_det_rows(rng, n):
    # Two rows of a nonsingular matrix swapped; n = 1 has no negative case.
    while True:
        rows = [[rng.randint(0, 5) for _ in range(n)] for _ in range(n)]
        det = _det_int(rows)
        if det > 0 and n >= 2:
            return [rows[1], rows[0], *rows[2:]]
        if det < 0 or (det > 0 and n == 1):
            return rows


def _singular_rows(rng, n):
    # A repeated row, a row sum, a zero column or all zeros: nullity 1 to n.
    rows = [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(4)
    if kind == 0 and n >= 2:
        rows[-1] = list(rows[0])
    elif kind == 1 and n >= 3:
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    elif kind == 3:
        rows = [[0] * n for _ in range(n)]
    else:
        column = rng.randrange(n)
        for row in rows:
            row[column] = 0
    return rows


@pytest.mark.parametrize(
    "draw, seen",
    [
        (_zero_pivot_rows, {1, -1, 0, "error"}),
        (_negative_det_rows, {1, -1}),  # +1: only the 1x1 matrices
        (_singular_rows, {0, "error"}),
    ],
    ids=["zero-pivot", "negative-det", "singular"],
)
def test_canonical_weights_match_per_column_determinants(draw, seen):
    # Outcomes: the sign of the degree, or "error" for a kernel of
    # dimension above 1.
    rng = random.Random(31)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 4)
        matrix = ExponentMatrix.make(draw(rng, n))
        try:
            expected = _weights_by_column_determinants(matrix)
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError) as raised:
                canonical_weights(matrix)
            assert str(raised.value) == str(exc)
            outcomes.add("error")
        else:
            solution = canonical_weights(matrix)
            assert solution == expected and type(solution) is WeightSolution
            assert [type(v) for v in solution] == [type(v) for v in expected]
            outcomes.add((expected.degree > 0) - (expected.degree < 0))
        if mat_det(matrix.rows):
            assert symmetry_group(matrix).order == abs(mat_det(matrix.rows))
        else:
            with pytest.raises(SingularMatrixError, match="infinite for det E = 0"):
                symmetry_group(matrix)
    assert outcomes == seen


def test_smith_normal_form_minor_gcd_oracle(catalog):
    # d_1 * ... * d_k equals the gcd of all k x k minors, on the catalog's
    # exponent matrices (each singular, of rank 3), on seeded square and
    # rectangular matrices, on diagonals of coprime entries, which are
    # not yet a divisibility chain, and on matrices with negative entries
    # and units off the diagonal, where the pivot search stops at the
    # first unit.
    matrices = [entry.exponent_matrix().rows for entry in catalog.entries]
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(2, 4)
        matrices.append([[rng.randint(-4, 6) for _ in range(n)] for _ in range(n)])
    for _ in range(60):
        shape = rng.sample(range(1, 5), 2)
        matrices.append([[rng.randint(-4, 6) for _ in range(shape[1])] for _ in range(shape[0])])
    for _ in range(30):
        primes = rng.sample((2, 3, 5, 7, 11, -13, -17), rng.randint(2, 4))
        matrices.append([[p if i == j else 0 for j in range(len(primes))] for i, p in enumerate(primes)])
    for _ in range(60):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        rows = [
            [rng.choice((0, rng.randint(-9, -2), rng.randint(2, 9))) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(nrows), rng.randrange(ncols)
            if i != j:
                rows[i][j] = rng.choice((-1, 1))
        matrices.append(rows)
    matrices += [[[6, 0, 0], [0, 0, 0], [0, 0, 10]], [[0, 0], [0, 4]]]
    matrices += [[[4, -6], [-1, 9]], [[0, 6, 1], [-1, 0, 4]]]
    for rows in matrices:
        nrows, ncols = len(rows), len(rows[0])
        diagonal = smith_normal_form(rows)
        assert len(diagonal) == min(nrows, ncols)
        for i in range(len(diagonal) - 1):
            if diagonal[i]:
                assert diagonal[i + 1] % diagonal[i] == 0
            else:
                assert diagonal[i + 1] == 0
        product = 1
        for k in range(1, len(diagonal) + 1):
            product *= diagonal[k - 1]
            assert product == _minor_gcd(rows, ncols, k)


def test_smith_normal_form_known():
    assert smith_normal_form([[2, 1], [0, 3]]) == [1, 6]
    assert smith_normal_form([[3, 0], [0, 3]]) == [3, 3]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]
    assert smith_normal_form([[2, 4], [4, 2]]) == [2, 6]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ExponentMatrix.make([[2.7, 1], [0, 3]]), "exponents must be integers, got (2.7, 1)"),
        (lambda: smith_normal_form([[2.7, 1], [0, 3]]), "matrix entries must be integers, got (2.7, 1)"),
    ],
    ids=["make", "smith"],
)
def test_non_integer_exponents_rejected(build, message):
    # int() would truncate 2.7 to 2 and go on with the wrong matrix.
    with pytest.raises(InvertibleError) as caught:
        build()
    assert type(caught.value) is InvertibleError and str(caught.value) == message


def test_symmetry_group_singular_rejected():
    with pytest.raises(SingularMatrixError):
        symmetry_group(_ordered_matrix(KFLAT_F))


def test_orientation_normalisation():
    # Written term order puts x*y^2 first, giving det = -4; oriented()
    # swaps the first two rows to normalise the orientation.
    matrix = from_terms(parse_poly_terms("x*y^2 + x^2"), ("x", "y")).oriented()
    assert matrix.rows == ((2, 0), (1, 2))
    assert matrix.det() == 4
