"""Algebra, Element, AlgebraZ behavior against frozen closed forms."""

import hashlib
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crepant.algebra import (
    Algebra,
    AlgebraError,
    AlgebraZ,
    nonequivariant_limit,
)
from crepant.geometry import BUILTIN_NAMES, builtin
from crepant.lambda_rat import LambdaRat, format_lambda_rat, parse_lambda_rat


KP2 = builtin("ex1-Y").algebra
C3Z3 = builtin("ex1-X").algebra
KF3 = builtin("ex2-Y").algebra
KP113 = builtin("ex2-X").algebra
C3Z5 = builtin("ex3-X").algebra
OP12 = builtin("ex4-X").algebra
ALL = [KP2, C3Z3, KF3, KP113, C3Z5, OP12, builtin("ex4-Y").algebra]


def el(alg, **coeffs):
    vec = [LambdaRat(0)] * alg.dim
    for label, s in coeffs.items():
        vec[alg.labels.index(label)] = parse_lambda_rat(str(s))
    return alg.element(vec)


def test_all_builtin_algebras_validate():
    for alg in ALL:
        alg.validate()


def _with_products(alg, products):
    """alg with the products {(i, j): coefficient strings} set both ways."""
    table = [[list(vec) for vec in line] for line in alg.table]
    for (i, j), vec in products.items():
        table[i][j] = table[j][i] = [parse_lambda_rat(c) for c in vec]
    return Algebra(alg.name, alg.labels, alg.degrees, alg.sectors, alg.unit,
                   table, alg.integrals)


def _first_nonassociative(alg):
    """The first (i, j, k) where (e_i e_j) e_k != e_i (e_j e_k), by
    Element products over Q(λ)."""
    n = alg.dim
    return next(((i, j, k) for i in range(n) for j in range(n)
                 for k in range(n)
                 if alg.mul_basis(i, j) * alg.basis(k)
                 != alg.basis(i) * alg.mul_basis(j, k)), None)


def test_associativity_is_decided_on_the_rational_parts():
    # graded, but (1_2/3)^2 doubled: the exact check on the rational parts
    # names the first triple the Element products fail at
    bad = _with_products(C3Z3, {(2, 2): ["0", "2λ^3/27", "0"]})
    i, j, k = _first_nonassociative(bad)
    labels = ", ".join(C3Z3.labels[t] for t in (i, j, k))
    with pytest.raises(AlgebraError,
                       match=re.escape(f"c3z3: associativity fails at "
                                       f"({labels})")):
        bad.validate()


def test_ungraded_nonassociative_table_reports_the_grading():
    # 1_1/3 * 1_2/3 = 1 leaves the grading and associativity both; the
    # grading is checked first, since associativity is decided on it
    bad = _with_products(C3Z3, {(1, 2): ["1", "0", "0"]})
    assert _first_nonassociative(bad) is not None
    with pytest.raises(AlgebraError, match=re.escape(
            "c3z3: graded product violated at (1_1/3, 1_2/3)")):
        bad.validate()


# sha256 of each built-in side's algebra as _algebra_digest prints it,
# computed while every Gram matrix was still typed in full: the Grams now
# derived from the integrals equal the typed ones entry for entry
ALGEBRA_DIGESTS = {
    "ex1-X": "5ef53fe169234a1efe3ea1ca180d44d61bd482e732d103a48e44658404c5f151",
    "ex1-Y": "a06a020223c28aeda98fea26d37225a2917c2899b06fbd9ca54a193769610d2f",
    "ex2-X": "792896ee1cb816ed6c7903cefc5fdb74a503bab4b5465bc7f072a6a00eb45288",
    "ex2-Y": "81d745a6e9b1d0b5daca39e1a6041ce7753159b261efb5342bdf15c0affffc12",
    "ex3-X": "b6539d9b54e843031ccd871202a7010b6a8966c494608fdfec37b0ce8b7b88da",
    "ex3-Y": "792896ee1cb816ed6c7903cefc5fdb74a503bab4b5465bc7f072a6a00eb45288",
    "ex4-X": "5fcb54f72e27ca7a16a119b33368d434dbf2ee7e3d80e54ec099c454244cb008",
    "ex4-Y": "de7d22792169d1f0aed5be6fcb1c65ca746bc18f71e24056f4a6af4660ae24b8",
}


def _algebra_digest(alg) -> str:
    text = json.dumps([
        list(alg.labels), list(alg.degrees), [str(s) for s in alg.sectors],
        alg.unit,
        [[[format_lambda_rat(c) for c in vec] for vec in row]
         for row in alg.table],
        [[format_lambda_rat(c) for c in row] for row in alg.gram]],
        ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_algebra_is_pinned_byte_for_byte(name):
    assert _algebra_digest(builtin(name).algebra) == ALGEBRA_DIGESTS[name]


def _with_integrals(alg, *integrals):
    """alg with its table kept and the given integrals, unvalidated."""
    return Algebra(alg.name, alg.labels, alg.degrees, alg.sectors, alg.unit,
                   alg.table, [parse_lambda_rat(s) for s in integrals])


@pytest.mark.parametrize("alg, integrals, match", [
    # ∫1_0 = 1 + 9/λ^3 mixes two degrees
    (C3Z3, ("(λ^3 + 9)/λ^3", "0", "0"),
     r"^c3z3: integral of 1_0 is not a λ-monomial"),
    # deg p - 2·(-3) = 8, against deg 1 - 2·(-3) = 6
    (KP2, ("9/λ^3", "3/λ^3", "1/λ"),
     r"^kp2: integral of p has virtual degree 8, not 6"),
    # homogeneous, but on a twisted class: (1_0, 1_1/3) = ∫1_1/3 != 0
    (C3Z3, ("9/λ^3", "1/λ^2", "0"),
     r"^c3z3: pairing couples 1_0 and 1_1/3, of sectors 0 and 1/3"),
    (C3Z3, ("0", "0", "0"), r"^c3z3: pairing matrix is singular"),
])
def test_bad_integrals_are_refused_by_name(alg, integrals, match):
    with pytest.raises(AlgebraError, match=match):
        _with_integrals(alg, *integrals).validate()


def test_integrals_must_match_the_basis():
    with pytest.raises(AlgebraError, match=r"^kp2: expected 3 integrals"):
        _with_integrals(KP2, "9/λ^3", "3/λ^2")


def test_kp2_dual_basis_closed_form():
    duals = KP2.dual_basis()
    assert duals[0] == el(KP2, **{"p^2": "λ"})
    assert duals[1] == el(KP2, **{"p": "λ", "p^2": "-3"})
    assert duals[2] == el(KP2, **{"1": "λ", "p": "-3"})


def test_c3z3_dual_basis_closed_form():
    duals = C3Z3.dual_basis()
    assert duals[0] == el(C3Z3, **{"1_0": "λ^3/9"})
    assert duals[1] == el(C3Z3, **{"1_2/3": "3"})
    assert duals[2] == el(C3Z3, **{"1_1/3": "3"})


def test_pairing_values():
    p = KP2.from_label("p")
    dual_p = el(KP2, **{"p": "λ", "p^2": "-3"})
    assert format_lambda_rat(KP2.pairing(p, dual_p)) == "1/1"
    one = C3Z3.one()
    assert format_lambda_rat(C3Z3.pairing(one, one)) == "9/λ^3"
    a = C3Z3.from_label("1_1/3")
    b = C3Z3.from_label("1_2/3")
    assert format_lambda_rat(C3Z3.pairing(a, b)) == "1/3"


def test_dual_basis_is_dual_everywhere():
    for alg in ALL:
        duals = alg.dual_basis()
        for i in range(alg.dim):
            for j in range(alg.dim):
                want = LambdaRat(1 if i == j else 0)
                assert alg.pairing(alg.basis(i), duals[j]) == want


def test_product_lambda_enters_with_degree():
    # (λ - 3p)·p^2 = λp^2 in the plane bundle algebra
    a = el(KP2, **{"1": "λ", "p": "-3"})
    b = KP2.from_label("p^2")
    assert a * b == el(KP2, **{"p^2": "λ"})
    # twisted squares pick up λ^3 factors
    t = C3Z3.from_label("1_2/3")
    assert t * t == el(C3Z3, **{"1_1/3": "λ^3/27"})


def test_nonequivariant_limit_scalar_and_element():
    r = parse_lambda_rat("λ^2+3λ") / parse_lambda_rat("λ")
    assert nonequivariant_limit(r) == LambdaRat(3)
    a = el(KP2, **{"1": "(λ^2+3λ)/(λ)", "p": "2"})
    assert a.nonequivariant_limit() == el(KP2, **{"1": "3", "p": "2"})
    bad = el(KP2, **{"p": "9/λ^3"})
    with pytest.raises(ValueError, match="coefficient of p"):
        bad.nonequivariant_limit()


def test_algebraz_arithmetic_and_shift():
    p = KP2.from_label("p")
    f = AlgebraZ(KP2, {0: KP2.one(), -1: p})
    g = f * f
    assert g.coefficient(0) == KP2.one()
    assert g.coefficient(-1) == 2 * p
    assert g.coefficient(-2) == KP2.from_label("p^2")
    assert g.shift(2).support() == [0, 1, 2]


def test_algebraz_nonequivariant_error_names_layer():
    bad = AlgebraZ(KP2, {-3: el(KP2, **{"1": "9/λ^3"})})
    with pytest.raises(ValueError, match="z\\^-3 layer"):
        bad.nonequivariant_limit()


@st.composite
def kf3_elements(draw):
    vec = [
        LambdaRat(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))
        for _ in range(KF3.dim)
    ]
    return KF3.element(vec)


@settings(max_examples=50, deadline=None)
@given(kf3_elements(), kf3_elements(), kf3_elements())
def test_random_elements_associative_commutative_frobenius(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert KF3.pairing(a * b, c) == KF3.pairing(a, b * c)


@settings(max_examples=30, deadline=None)
@given(kf3_elements(), kf3_elements())
def test_pairing_bilinear(a, b):
    two_a = a * 2
    assert KF3.pairing(two_a, b) == KF3.pairing(a, b) * 2
    assert KF3.pairing(a + b, b) == KF3.pairing(a, b) + KF3.pairing(b, b)


def test_basis_one_and_zero_are_shared():
    for alg in ALL:
        assert alg.basis(1) is alg.basis(1)
        assert alg.one() is alg.basis(alg.unit)
        assert alg.zero() is alg.zero() and alg.zero().is_zero
        assert alg.basis(1) == alg.element([int(j == 1) for j in range(alg.dim)])


# (geometry, class) -> the squarefree factors of the class's minimal
# polynomial at lambda = 1, as {exponent: coefficient} with multiplicity;
# at lambda = 0 every built-in class is nilpotent, x^k
X = {1: 1}
EXACT_FACTORS = {
    ("ex1-X", "1_1/3"): ([({0: Fraction(-1, 27), 3: 1}, 1)], 3),
    ("ex1-Y", "p"): ([(X, 3)], 3),
    ("ex2-X", "p"): ([(X, 3)], 3),
    ("ex2-X", "1_1/3"): ([(X, 4)], 3),
    ("ex2-Y", "p1"): ([(X, 3)], 3),
    ("ex2-Y", "p2"): ([({0: 1, 1: 1}, 1), (X, 2)], 3),
    ("ex3-X", "1_1/5"): ([({0: Fraction(-27, 3125), 5: 1}, 1)], 2),
    ("ex3-X", "1_2/5"): ([({0: Fraction(-3, 3125), 5: 1}, 1)], 3),
    ("ex3-Y", "p"): ([(X, 3)], 3),
    ("ex3-Y", "1_1/3"): ([(X, 4)], 3),
    ("ex4-X", "p"): ([(X, 2)], 2),
    ("ex4-Y", "p"): ([(X, 3)], 3),
}


def test_minimal_factors_of_every_degree_two_label():
    seen = set()
    for name in ("ex1-X", "ex1-Y", "ex2-X", "ex2-Y", "ex3-X", "ex3-Y",
                 "ex4-X", "ex4-Y"):
        alg = builtin(name).algebra
        for label, deg in zip(alg.labels, alg.degrees):
            if deg != 2:
                continue
            seen.add((name, label))
            at_one, nil = EXACT_FACTORS[(name, label)]
            got = alg.minimal_factors([(label, 1)], False)
            assert [(p.coeffs, m) for p, m in got] == at_one, (name, label)
            assert [(p.coeffs, m) for p, m in
                    alg.minimal_factors([(label, 1)], True)] == [(X, nil)]
    assert seen == set(EXACT_FACTORS)
    # p1 + 2 p2 on K_F3: the roots -2 and 0, the latter of multiplicity 3
    assert [(p.coeffs, m) for p, m in KF3.minimal_factors(
        [("p1", 1), ("p2", 2)], False)] == [({0: 2, 1: 1}, 1), (X, 3)]
    # the zero class has the one root 0
    assert [(p.coeffs, m) for p, m in KF3.minimal_factors([], False)] \
        == [(X, 1)]


def test_minimal_factors_refuse_a_label_of_degree_other_than_two():
    with pytest.raises(AlgebraError,
                       match=r"^kf3: class 1\*1: label 1 has degree 0, not 2"):
        KF3.minimal_factors([("1", 1)], False)
    with pytest.raises(AlgebraError, match=r"^kf3: class 2\*p2 \+ 1\*q: no label 'q'"):
        KF3.minimal_factors([("p2", 2), ("q", 1)], True)


@pytest.mark.parametrize("square", ["2", "1+λ^2", "λ"])
def test_minimal_factors_refuse_constants_off_the_grading(square):
    # p*p = c 1 with deg p = 2 needs c = a λ^2; an unvalidated algebra with
    # another c has no spectrum that scales with lambda, so lambda != 0 is
    # refused, while lambda = 0 takes c at 0
    one, zero, c = LambdaRat(1), LambdaRat(0), parse_lambda_rat(square)
    alg = Algebra("toy", ("1", "p"), (0, 2), (0, 0), 0,
                  (((one, zero), (zero, one)), ((zero, one), (c, zero))),
                  (one, zero))
    with pytest.raises(AlgebraError, match=r"^toy: class 1\*p: structure "
                       r"constant .* at \(p, p\) is not the lambda-monomial"):
        alg.minimal_factors([("p", 1)], False)
    want = {"2": [({0: -2, 2: 1}, 1)], "1+λ^2": [({0: -1, 2: 1}, 1)],
            "λ": [(X, 2)]}[square]
    assert [(p.coeffs, m) for p, m in
            alg.minimal_factors([("p", 1)], True)] == want


def test_minimal_factors_are_cached_per_class():
    alg = builtin("ex3-X").algebra
    first = alg.minimal_factors([("1_1/5", 1)], False)
    assert alg.minimal_factors([("1_1/5", Fraction(1))], False) is first
    assert alg.minimal_factors([("1_1/5", 1)], True) is not first
