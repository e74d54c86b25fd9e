from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crepant.lambda_rat import (
    RAT_ZERO,
    LambdaPoly,
    LambdaRat,
    _poly_gcd,
    format_lambda_rat,
    parse_lambda_rat,
)


def poly(coeffs):
    return LambdaPoly(coeffs)


small_coeff = st.integers(min_value=-9, max_value=9)
polys = st.dictionaries(st.integers(min_value=0, max_value=3), small_coeff,
                        max_size=4).map(poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
rats = st.builds(LambdaRat, polys, nonzero_polys)
nonzero_rats = rats.filter(lambda r: not r.is_zero)


@given(rats, rats)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(rats, rats, rats)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(rats, rats, rats)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(nonzero_rats)
def test_mul_inverse(a):
    assert a * a.inverse() == LambdaRat(1)


@given(rats)
def test_normal_form(a):
    # denominator monic, ratio fully reduced
    assert a.den.leading() == 1
    assert _poly_gcd(a.num, a.den).degree() <= 0


@given(rats)
def test_parse_format_round_trip(a):
    assert parse_lambda_rat(format_lambda_rat(a)) == a


@given(rats, st.fractions(min_value=1, max_value=5, max_denominator=7))
def test_evaluate_is_a_homomorphism(a, lam):
    if a.den.evaluate(lam) == 0:
        return
    b = a + LambdaRat(3)
    assert b.evaluate(lam) == a.evaluate(lam) + 3


def test_format_examples():
    assert format_lambda_rat(LambdaRat.gen(-3, 9)) == "9/λ^3"
    assert format_lambda_rat(LambdaRat(-3)) == "(-3)/1"
    assert format_lambda_rat(LambdaRat(poly({2: 1, 1: 3}), poly({1: 1, 0: 2}))) \
        == "(λ^2 + 3λ)/(λ + 2)"
    assert format_lambda_rat(LambdaRat(0)) == "(0)/1"
    # scaling clears fractional coefficients exactly
    x = LambdaRat(poly({1: Fraction(1, 3)}), poly({0: 1, 2: Fraction(5, 2)}))
    assert parse_lambda_rat(format_lambda_rat(x)) == x


def test_parse_variants():
    lam = LambdaRat.gen(1)
    assert parse_lambda_rat("λ") == lam
    assert parse_lambda_rat("lam") == lam
    assert parse_lambda_rat("2*lam^2") == LambdaRat.gen(2, 2)
    assert parse_lambda_rat("(λ + 1)/(λ - 1)") == \
        LambdaRat(poly({1: 1, 0: 1}), poly({1: 1, 0: -1}))
    assert parse_lambda_rat("7") == LambdaRat(7)
    with pytest.raises(ValueError):
        parse_lambda_rat("3x + 1")
    with pytest.raises(ValueError):
        parse_lambda_rat("1/2/3")


def test_reduction():
    # (λ² + 3λ)/λ reduces to λ + 3
    a = LambdaRat(poly({2: 1, 1: 3}), poly({1: 1}))
    assert a == LambdaRat(poly({1: 1, 0: 3}))
    assert a.nonequivariant_limit() == 3


def test_nonequivariant_pole():
    with pytest.raises(ValueError, match="pole"):
        LambdaRat.gen(-3, 9).nonequivariant_limit()


def test_as_monomial():
    assert LambdaRat.gen(-3, 9).as_monomial() == (9, -3)
    assert LambdaRat.gen(2, Fraction(1, 27)).as_monomial() == (Fraction(1, 27), 2)
    assert LambdaRat(poly({1: 1, 0: 1})).as_monomial() is None
    assert LambdaRat(0).as_monomial() is None


def test_evaluate_exact():
    a = LambdaRat(poly({2: 1, 1: 3}), poly({1: 1, 0: 1}))
    assert a.evaluate(Fraction(2)) == Fraction(10, 3)


def test_pow_negative():
    a = LambdaRat.gen(1, 3)
    assert a ** (-2) == LambdaRat.gen(-2, Fraction(1, 9))


def test_constant_denominator_is_folded_into_numerator():
    lam = LambdaRat.gen()
    a = LambdaRat(LambdaPoly.gen(), 3)
    b = lam / 3
    assert a == b and hash(a) == hash(b)
    assert a.num == LambdaPoly({1: Fraction(1, 3)})
    assert a.den == LambdaPoly(1)


def test_cancelled_denominator_becomes_one():
    c = LambdaRat(LambdaPoly({2: 1, 1: 1}), LambdaPoly({1: 1, 0: 1}))
    lam = LambdaRat.gen()
    assert c == lam and hash(c) == hash(lam)
    assert c.is_polynomial


def test_terms_do_not_depend_on_construction_order():
    a = poly({2: 1, 0: 3})
    b = poly({0: 3, 2: 1})
    assert a.terms == b.terms == (0, Fraction(3), 2, Fraction(1))
    assert a == b and hash(a) == hash(b)
    assert a.coeffs == {0: 3, 2: 1}
    assert a.coeff(2) == 1 and a.coeff(1) == 0


def test_zero_results_share_one_value():
    lam = LambdaRat.gen()
    assert lam - lam is RAT_ZERO
    assert lam * 0 is RAT_ZERO and RAT_ZERO * lam is RAT_ZERO
    assert RAT_ZERO / lam is RAT_ZERO
    assert lam + RAT_ZERO is lam and RAT_ZERO + lam is lam
    assert -RAT_ZERO is RAT_ZERO
