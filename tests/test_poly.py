"""Polynomials and the expression front-end."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freecurve.errors import PolyParseError
from freecurve.parser import MAX_COEFF_BITS, MAX_LITERAL_DIGITS, MAX_NESTING, parse_poly
from freecurve.poly import (
    HomogPoly,
    choose2,
    dim_S,
    dim_choose2,
    monomial_basis,
    partials,
    poly_str,
)
from freecurve.syzygy import MAX_CURVE_DEGREE

from oracles import euler_check


def test_binomial_helpers_differ_below_two():
    assert choose2(5) == dim_choose2(5) == 10
    assert choose2(2) == dim_choose2(2) == 1
    assert choose2(0) == dim_choose2(0) == 0
    assert choose2(-1) == 1 and dim_choose2(-1) == 0
    assert choose2(-3) == 6 and dim_choose2(-3) == 0


@pytest.mark.parametrize("m,count", [(0, 1), (1, 3), (2, 6), (-1, 0), (5, 21)])
def test_monomial_basis_count(m, count):
    assert len(monomial_basis(m)) == count


def test_monomial_basis_counts_match_dimension_formula():
    for m in range(-3, 41):
        assert len(monomial_basis(m)) == dim_choose2(m + 2) == dim_S(m)


def test_monomial_order_is_descending_lex():
    basis = monomial_basis(2)
    assert basis == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert list(basis) == sorted(basis, reverse=True)


def test_parse_arrangement_example():
    f = parse_poly("x*y*z*(x^9-y^9)")
    assert f.degree == 12
    assert len(f.terms) == 2
    assert f.terms[(10, 1, 1)] == 1
    assert f.terms[(1, 10, 1)] == -1


def test_parse_fermat():
    f = parse_poly("x^3+y^3+z^3")
    assert f.degree == 3 and len(f.terms) == 3


def test_parse_rejects_inhomogeneous_with_term_names():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x^2+y^3")
    message = str(exc.value)
    assert "x^2" in message and "y^3" in message
    assert "degree 2" in message and "degree 3" in message
    # a constant term is named 1; a monomial as `poly_str` prints it
    for text, low, high in (("z^3 + 1 + x", "1", "z^3"), ("x*y^3*z+x^2", "x^2", "x*y^3*z")):
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text)
        degrees = [parse_poly(m).degree for m in (low, high)]
        assert str(exc.value) == (
            f"polynomial is not homogeneous: term {low} has degree {degrees[0]} but term {high} has degree {degrees[1]}"
        )


def test_parse_rejects_zero():
    with pytest.raises(PolyParseError, match="zero polynomial"):
        parse_poly("x - x")


def test_parse_syntax_error_has_position():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x + * y")
    assert exc.value.position == 4


def test_parse_refuses_deep_nesting():
    with pytest.raises(PolyParseError, match="nested deeper"):
        parse_poly("(" * 3000 + "x" + ")" * 3000)
    limit = MAX_NESTING
    assert parse_poly("(" * limit + "x" + ")" * limit).degree == 1
    with pytest.raises(PolyParseError, match="nested deeper"):
        parse_poly("(" * (limit + 1) + "x" + ")" * (limit + 1))


@pytest.mark.parametrize("text", ["(x+y+z)^100", "(x+y+z)^200", "x^34", "x^33*y", "(x+y)^17*(y+z)^17"])
def test_parse_refuses_degrees_no_profile_admits_before_expanding(text):
    start = time.perf_counter()
    with pytest.raises(PolyParseError, match="above 33"):
        parse_poly(text)
    assert time.perf_counter() - start < 1


def test_parse_refuses_literals_longer_than_the_digit_bound():
    start = time.perf_counter()
    with pytest.raises(PolyParseError, match=f"longer than {MAX_LITERAL_DIGITS} digits"):
        parse_poly("9" * (MAX_LITERAL_DIGITS + 1) + "*x^3+y^3+z^3")
    with pytest.raises(PolyParseError, match="longer than"):
        parse_poly("x^" + "0" * (MAX_LITERAL_DIGITS + 1))
    largest = parse_poly("9" * MAX_LITERAL_DIGITS + "*x")
    assert largest.terms[(1, 0, 0)] == 10**MAX_LITERAL_DIGITS - 1
    # a power may produce coefficients as long as the largest literal
    assert largest.terms[(1, 0, 0)].numerator.bit_length() == MAX_COEFF_BITS
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("text", ["3^10000000*x", "3^100000000000000*x", "(3^1000)^1000*x", "x^3*(1/2)^10000", "(2*x)^33*3^1000000"])
def test_parse_refuses_powers_with_oversized_coefficients_before_expanding(text):
    start = time.perf_counter()
    with pytest.raises(PolyParseError, match=f"above {MAX_COEFF_BITS}"):
        parse_poly(text)
    assert time.perf_counter() - start < 1


def test_parse_admits_powers_within_the_coefficient_bound():
    # 3 has bit length 2, so 3^e is admitted up to e = MAX_COEFF_BITS // 2
    e = MAX_COEFF_BITS // 2
    assert parse_poly(f"3^{e}*x").terms[(1, 0, 0)] == 3**e
    with pytest.raises(PolyParseError, match="bits"):
        parse_poly(f"3^{e + 1}*x")


def test_parse_admits_the_largest_profile_degree():
    assert parse_poly("x^33+y^33+z^33").degree == MAX_CURVE_DEGREE == 33


def test_parse_rational_coefficients_and_unary_minus():
    f = parse_poly("1/2*x^2 - -y^2")
    assert f.terms[(2, 0, 0)] == Fraction(1, 2)
    assert f.terms[(0, 2, 0)] == 1


@pytest.mark.parametrize("text", ["x^3+y^3+z^3", "1/2*x*y+z^2", "(2*x+3*y)^5"])
def test_parse_gives_fraction_coefficients(text):
    # the expansion runs in integers until a num/den literal; every
    # coefficient of the result is a Fraction all the same
    f = parse_poly(text)
    assert f.terms and all(type(c) is Fraction for c in f.terms.values())


def test_partials_examples():
    fx, fy, fz = partials(parse_poly("x*y*z"))
    assert poly_str(fx) == "y*z" and poly_str(fy) == "x*z" and poly_str(fz) == "x*y"
    fx, fy, fz = partials(parse_poly("x^3-y^2*z"))
    assert poly_str(fx) == "3*x^2"
    assert poly_str(fy) == "-2*y*z"
    assert poly_str(fz) == "-y^2"
    fx, fy, fz = partials(parse_poly("x^3+y^3+z^3"))
    assert poly_str(fx) == "3*x^2" and poly_str(fy) == "3*y^2" and poly_str(fz) == "3*z^2"


def random_homog(rng: random.Random, degree: int, terms: int) -> HomogPoly:
    basis = monomial_basis(degree)
    chosen = {}
    for mono in rng.sample(basis, min(terms, len(basis))):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        if c:
            chosen[mono] = c
    if not chosen:
        chosen[basis[0]] = Fraction(1)
    return HomogPoly(degree, chosen)


def test_euler_identity_on_random_polynomials():
    rng = random.Random(7)
    for _ in range(100):
        d = rng.randint(1, 12)
        f = random_homog(rng, d, rng.randint(1, 8))
        assert euler_check(f)


def test_euler_identity_negative_control():
    # the identity is per-monomial, so the failure mode it guards against
    # is broken derivative arithmetic, not a different valid polynomial
    f = parse_poly("x^3 + y^3 + z^3")
    fx, fy, fz = partials(f)
    bad = fx + HomogPoly(2, {(0, 2, 0): Fraction(1)})
    lhs = bad.mul_monomial((1, 0, 0)) + fy.mul_monomial((0, 1, 0)) + fz.mul_monomial((0, 0, 1))
    assert lhs != parse_poly("3*x^3 + 3*y^3 + 3*z^3")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_parse_print_round_trip(seed):
    rng = random.Random(seed)
    f = random_homog(rng, rng.randint(0, 9), rng.randint(1, 10))
    assert parse_poly(poly_str(f)) == f


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_partials_product_rule(seed):
    rng = random.Random(seed)
    f = random_homog(rng, rng.randint(1, 5), rng.randint(1, 6))
    g = random_homog(rng, rng.randint(1, 5), rng.randint(1, 6))
    prod = f * g
    for axis in range(3):
        expected = f.partial(axis) * g + f * g.partial(axis)
        assert prod.partial(axis) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_partials_additive(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 7)
    f = random_homog(rng, d, rng.randint(1, 6))
    g = random_homog(rng, d, rng.randint(1, 6))
    for axis in range(3):
        assert (f + g).partial(axis) == f.partial(axis) + g.partial(axis)
