import pytest

from strangedual.matfac import (
    CompleteIntersectionPair,
    FactorizationError,
    FactorizationTriple,
    ShapeError,
    lift,
    reduce,
    verify_factorization,
)
from strangedual.polyring import parse_poly


def triple(a, b, c):
    return FactorizationTriple(parse_poly(a), parse_poly(b), parse_poly(c))


def ci_pair(first, second):
    return CompleteIntersectionPair(parse_poly(first), parse_poly(second))


def test_verify_factorization_q_series():
    t = triple("w^2", "w", "-x^2*z + z^2 + x*w^2")
    f = verify_factorization(t)
    assert f == parse_poly("w^3 - x^3*z + x*z^2 + x^2*w^2")


def test_verify_factorization_direct_expansion():
    t = triple("z*w", "w", "z^2")
    assert verify_factorization(t) == parse_poly("x*z^2 + z*w^2")


def test_verify_factorization_i_series():
    t = triple("w^3", "z", "-x*w + z^2 + x*z")
    assert verify_factorization(t) == parse_poly("-x^2*w + x*z^2 + x^2*z + z*w^3")


def test_triple_validation():
    with pytest.raises(FactorizationError):
        triple("x^2", "w", "z^2")  # a contains x
    with pytest.raises(FactorizationError):
        triple("w", "w", "z^2")  # deg a < 2
    with pytest.raises(FactorizationError):
        triple("w^2", "1", "z^2")  # deg b < 1
    with pytest.raises(FactorizationError):
        triple("w^2", "w", "y*z^2")  # c contains y


def test_lift_examples():
    t = triple("w^2", "w", "-x^2*z + z^2 + x*w^2")
    assert lift(t) == ci_pair(
        "x*y - w^2", "-x^2*z + y*w + z^2 + x*w^2"
    )
    t = triple("w^3", "z", "-x*w + z^2 + x*z")
    assert lift(t) == ci_pair("x*y - w^3", "-x*w + z^2 + y*z + x*z")


def test_lift_negated_first_equation():
    t = triple("w^2", "w", "-x^2*z + z^2 + x*w^2")
    raw = CompleteIntersectionPair(-lift(t).first, lift(t).second)
    assert raw.first == parse_poly("w^2 - x*y")
    assert raw.second == lift(t).second


def test_reduce_examples():
    pair = ci_pair("x*y - w^2", "-x^2*z + y*w + z^2 + x*w^2")
    assert reduce(pair) == parse_poly("-x^3*z + x*z^2 + x^2*w^2 + w^3")
    pair = ci_pair("x*y - z*w", "-x^2*w + z^2 + y*w + x*w^2")
    assert reduce(pair) == parse_poly("-x^3*w + x*z^2 + x^2*w^2 + z*w^2")


def test_reduce_accepts_negated_first_equation():
    pair = ci_pair("w^2 - x*y", "-x^2*z + y*w + z^2 + x*w^2")
    assert reduce(pair) == parse_poly("-x^3*z + x*z^2 + x^2*w^2 + w^3")


def test_reduce_shape_errors():
    with pytest.raises(ShapeError):
        reduce(ci_pair("x^2 + y^2", "z^2 + y*w"))
    with pytest.raises(ShapeError):
        reduce(ci_pair("x*y - w^2", "z^2 + y^2*w"))  # y^2 term
    with pytest.raises(ShapeError):
        reduce(ci_pair("x*y - w^2", "z^2 + x*w"))  # no y part
    with pytest.raises(ShapeError):
        reduce(ci_pair("x*y - x*z", "z^2 + y*w"))  # a involves x


def test_reduce_names_the_first_term_of_y_degree_past_one():
    # The highest term in degree-lex order with y-degree > 1.
    pair = ci_pair("x*y - w^2", "x*w + y^2*z^5 + x*y^3")
    with pytest.raises(ShapeError) as exc:
        reduce(pair)
    assert str(exc.value) == "term y^2*z^5 has y-degree 2 > 1"


def test_reduce_lift_roundtrip():
    for args in (
        ("w^2", "w", "-x^2*z + z^2 + x*w^2"),
        ("w^2", "z", "-x^2*w + z^2 + x*w^2"),
        ("z*w", "w", "-x^2*w + z^2 + x^2*z"),
        ("z*w", "z + w", "-z^2 + x^2*w"),
        ("w^3", "z", "-x*w + z^2 + x*z"),
        ("w^2", "-z", "x*w + z^3 + w^2"),
    ):
        t = triple(*args)
        assert reduce(lift(t)) == t.hypersurface()
        pair = lift(t)
        assert reduce(CompleteIntersectionPair(-pair.first, pair.second)) == t.hypersurface()


def test_catalog_triples_verify(catalog):
    for entry in catalog.entries:
        f = verify_factorization(entry.matfac)
        assert f == entry.parent.h
        assert reduce(lift(entry.matfac)) == entry.parent.h
