"""Series engine tests: gamma ratios, assembled coefficients, prefactors."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant.algebra import AlgebraZ
from crepant.geometry import BUILTIN_NAMES, builtin
from crepant.ifunction import (
    IFunctionError,
    RatAZ,
    _times_linear,
    build_ifunction,
    expand_prefactor,
    gamma_ratio,
    gamma_ratio_defining_product,
)
from crepant.picardfuchs import PFError, pf_system

EX1Y = builtin("ex1-Y")
EX1X = builtin("ex1-X")
EX2Y = builtin("ex2-Y")
EX2X = builtin("ex2-X")
EX4Y = builtin("ex4-Y")
EX4X = builtin("ex4-X")


def linear(alg, d, b):
    """(d + b z) as an AlgebraZ."""
    layers = {0: d}
    if b:
        layers[1] = alg.one() * Fraction(b)
    return AlgebraZ(alg, layers)


def test_gamma_ratio_at_zero_is_one():
    alg = EX1Y.algebra
    g = gamma_ratio(alg.from_label("p"), Fraction(0))
    assert g.is_laurent
    assert g.num == AlgebraZ(alg, {0: alg.one()})


def test_gamma_ratio_negative_is_linear_product():
    alg = EX1Y.algebra
    d = EX1Y.row_element(3)  # λ - 3p
    g = gamma_ratio(d, Fraction(-3))
    expect = AlgebraZ(alg, {0: d}) * linear(alg, d, -1) * linear(alg, d, -2)
    assert g.is_laurent and g.num == expect


def test_times_linear_is_the_product_with_the_factor():
    ifn = build_ifunction(EX2Y, 3)
    alg = EX2Y.algebra
    for c in ifn.coeffs.values():
        for d, b in c.den:
            assert _times_linear(c.num, d, b) == c.num * linear(alg, d, b)
            assert _times_linear(c.num, d, 0) == c.num * linear(alg, d, 0)


def test_gamma_ratio_inverse_linear():
    alg = EX1Y.algebra
    p = alg.from_label("p")
    g = gamma_ratio(p, Fraction(1))
    # 1/(p+z) = 1/z - p/z^2 + p^2/z^3 exactly (p^3 = 0)
    assert sorted(g.num.layers) == [-3, -2, -1]
    assert g.num.coefficient(-1) == alg.one()
    assert g.num.coefficient(-2) == -p
    assert g.num.coefficient(-3) == p * p
    back = g.num * gamma_ratio_defining_product(p, Fraction(1))
    assert back == AlgebraZ(alg, {0: alg.one()})


@pytest.mark.parametrize("geom,row,v", [
    (EX1Y, 0, Fraction(4)),
    (EX2X, 0, Fraction(7, 3)),
    (EX2X, 3, Fraction(3)),
    (EX4X, 3, Fraction(5, 2)),
    (EX4X, 4, Fraction(4)),
    (EX1X, 3, Fraction(6)),
])
def test_gamma_ratio_multiplies_back(geom, row, v):
    alg = geom.algebra
    d = geom.row_element(row)
    g = gamma_ratio(d, v)
    assert g.is_laurent
    back = g.num * gamma_ratio_defining_product(d, v)
    assert back == AlgebraZ(alg, {0: alg.one()})


def test_gamma_ratio_keeps_nonnilpotent_denominators():
    alg = EX2Y.algebra
    p2 = alg.from_label("p2")
    w = EX2Y.row_element(4)  # λ + p2 - 2p1
    for d, v in ((p2, Fraction(2)), (w, Fraction(1))):
        g = gamma_ratio(d, v)
        assert not g.is_laurent
        cleared = g
        for e, b in g.den:
            cleared = cleared * linear(alg, e, b)
        assert (cleared - RatAZ(AlgebraZ(alg, {0: alg.one()}))).is_zero
        with pytest.raises(IFunctionError):
            g.as_algebra_z()


def test_gamma_ratio_fractional_empty_window():
    # v = -1/3 has no admissible b in (-1/3, 0]
    alg = EX1X.algebra
    d = EX1X.row_element(0)
    g = gamma_ratio(d, Fraction(-1, 3))
    assert g.num == AlgebraZ(alg, {0: alg.one()})


def test_build_ex1y_degree_one():
    alg = EX1Y.algebra
    I = build_ifunction(EX1Y, 1)
    d = EX1Y.row_element(3)
    num = AlgebraZ(alg, {0: d}) * linear(alg, d, -1) * linear(alg, d, -2)
    p = alg.from_label("p")
    expect = RatAZ(num)
    for _ in range(3):
        expect = expect * gamma_ratio(p, Fraction(1))
    assert I.coefficient((1,)) == expect
    assert I.coefficient((1,)).is_laurent


def test_build_ex1x_series():
    I = build_ifunction(EX1X, 2)
    alg = EX1X.algebra
    assert I.algebra_coefficient((0,)) == AlgebraZ(alg, {0: alg.one()})
    assert I.algebra_coefficient((1,)) == AlgebraZ(
        alg, {-1: alg.from_label("1_1/3")})
    assert I.algebra_coefficient((2,)) == AlgebraZ(
        alg, {-2: alg.from_label("1_2/3") * Fraction(1, 2)})


def test_build_ex4y_degree_one():
    alg = EX4Y.algebra
    I = build_ifunction(EX4Y, 1)
    r3 = EX4Y.row_element(3)  # 2λ - 2p
    r4 = EX4Y.row_element(4)  # λ - p
    num = AlgebraZ(alg, {0: r3}) * linear(alg, r3, -1) * AlgebraZ(alg, {0: r4})
    p = alg.from_label("p")
    expect = RatAZ(num)
    for _ in range(3):
        expect = expect * gamma_ratio(p, Fraction(1))
    assert I.coefficient((1,)) == expect


def test_build_ex4x_half_step():
    I = build_ifunction(EX4X, 2)
    alg = EX4X.algebra
    # variable exponent x^(n/2); n = 1 gives 1/((p+z/2)(2p+z)) on 1_1/2
    c1 = I.algebra_coefficient((1,))
    assert c1 == AlgebraZ(alg, {-2: alg.from_label("1_1/2") * Fraction(2)})


def test_build_ex2y_rational_coefficient():
    alg = EX2Y.algebra
    I = build_ifunction(EX2Y, 2)
    c = I.coefficient((0, 1))
    nu = EX2Y.row_element(3)   # p1 - 3p2
    w = EX2Y.row_element(4)    # λ + p2 - 2p1
    p2 = alg.from_label("p2")
    num = AlgebraZ(alg, {0: nu}) * linear(alg, nu, -1) * linear(alg, nu, -2)
    expect = RatAZ(num, ((p2, Fraction(1)), (p2, Fraction(1)), (w, Fraction(1))))
    assert c == expect
    cleared = c * linear(alg, p2, 1) * linear(alg, p2, 1) * linear(alg, w, 1)
    assert (cleared - RatAZ(num)).is_zero


def test_build_ex2x_twisted_coefficient():
    from crepant.lambda_rat import parse_lambda_rat
    I = build_ifunction(EX2X, 2)
    alg = EX2X.algebra
    t = alg.from_label("1_2/3")
    # two inverse rows give 9/z^2, the point row 1/z, the fiber row (λ-2z/3)
    c = I.algebra_coefficient((1, 0))
    assert sorted(c.layers) == [-3, -2]
    assert c.coefficient(-2) == t * Fraction(-6)
    assert c.coefficient(-3) == t * parse_lambda_rat("9λ")


def test_zero_index_coefficient_is_unit():
    for name in BUILTIN_NAMES:
        g = builtin(name)
        I = build_ifunction(g, 1)
        zero = tuple(0 for _ in g.variables)
        alg = g.algebra
        assert I.coefficient(zero).expand(0) == AlgebraZ(alg, {0: alg.one()})


def test_z_support_bounded_above():
    for name in BUILTIN_NAMES:
        g = builtin(name)
        I = build_ifunction(g, 3)
        for n, c in I.coeffs.items():
            e = c.expand(-15)
            if not e.is_zero:
                assert max(e.support()) <= 0, (name, n)


def test_sector_bookkeeping():
    for name in BUILTIN_NAMES:
        g = builtin(name)
        alg = g.algebra
        I = build_ifunction(g, 4)
        for n, c in I.coeffs.items():
            want = alg.sectors[g.sector_label_index(n)]
            for layer in c.expand(-20).layers.values():
                for i, co in enumerate(layer.coeffs):
                    if not co.is_zero:
                        assert alg.sectors[i] == want, (name, n, i)


@pytest.fixture(scope="module")
def ex2y_bound5():
    return build_ifunction(EX2Y, 5)


@pytest.mark.parametrize("zmin", [-1, -5, -12])
def test_expand_satisfies_defining_identity(ex2y_bound5, zmin):
    # expand(zmin) · Π(D + b z) reproduces num wherever the dropped layers
    # (exponents < zmin) cannot reach: from zmin + len(den) upwards
    alg = EX2Y.algebra
    for n, c in ex2y_bound5.coeffs.items():
        back = c.expand(zmin)
        for d, b in c.den:
            back = back * linear(alg, d, b)
        floor = zmin + len(c.den)
        for e in set(back.layers) | set(c.num.layers):
            if e >= floor:
                assert back.coefficient(e) == c.num.coefficient(e), (n, e)


def test_expand_is_zero_above_quotient_top():
    alg = EX2Y.algebra
    p2 = alg.from_label("p2")
    c = RatAZ(AlgebraZ(alg, {0: alg.one()}),
              ((p2, Fraction(1)), (p2, Fraction(2))))
    # the quotient starts at z^(0 - 2)
    assert c.expand(-1).is_zero
    top = c.expand(-2)
    assert top == AlgebraZ(alg, {-2: alg.one() * Fraction(1, 2)})


def test_expand_rejects_z_free_factor():
    alg = EX2Y.algebra
    c = RatAZ(AlgebraZ(alg, {0: alg.one()}),
              ((alg.from_label("p2"), Fraction(0)),))
    with pytest.raises(IFunctionError):
        c.expand(-3)


def test_expand_without_denominator_truncates_at_zmin():
    c = build_ifunction(EX1X, 3).coefficient((3,))
    assert c.is_laurent and min(c.num.support()) == -3
    ex = c.expand(-1)
    assert all(e >= -1 for e in ex.layers)
    assert ex.layers == {e: v for e, v in c.num.layers.items() if e >= -1}
    assert c.expand(-3) == c.num


def test_laurent_for_nilpotent_geometries():
    for name in BUILTIN_NAMES:
        if name == "ex2-Y":
            continue
        I = build_ifunction(builtin(name), 3)
        assert all(c.is_laurent for c in I.coeffs.values()), name


class Jet:
    """a + b p + c p^2 with p^3 = 0, plain Fractions (independent route)."""

    def __init__(self, a, b=0, c=0):
        self.t = (Fraction(a), Fraction(b), Fraction(c))

    def __mul__(self, other):
        a, b, c = self.t
        d, e, f = other.t
        return Jet(a * d, a * e + b * d, a * f + b * e + c * d)

    def inv(self):
        a, b, c = self.t
        return Jet(1 / a, -b / a ** 2, (b * b - a * c) / a ** 3)


def test_dual_route_ex1y():
    # engine product form vs scalar-jet evaluation of the same Gamma quotient
    bound = 8
    I = build_ifunction(EX1Y, bound)
    alg = EX1Y.algebra
    for lam, z in ((Fraction(7), Fraction(2)), (Fraction(-5, 3), Fraction(3, 4))):
        for d in range(bound + 1):
            jet = Jet(1)
            for m in range(3 * d):
                jet = jet * Jet(lam - m * z, -3)
            for m in range(1, d + 1):
                inv = Jet(m * z, 1).inv()
                jet = jet * inv * inv * inv
            got = [Fraction(0)] * 3
            for e, layer in I.coefficient((d,)).num.layers.items():
                ze = z ** e
                for i, lbl in enumerate(("1", "p", "p^2")):
                    got[i] += layer.coefficient(lbl).evaluate(lam) * ze
            assert tuple(got) == jet.t, (lam, z, d)


def test_expand_prefactor_ex1y_log_layers():
    I = build_ifunction(EX1Y, 1)
    alg = EX1Y.algebra
    ep = expand_prefactor(I, 3)
    p = alg.from_label("p")
    assert ep[((0,), (0,))].num == AlgebraZ(alg, {0: alg.one()})
    assert ep[((0,), (1,))].num == AlgebraZ(alg, {-1: p})
    assert ep[((0,), (2,))].num == AlgebraZ(alg, {-2: p * p * Fraction(1, 2)})
    assert ((0,), (3,)) not in ep  # p^3 = 0 terminates the column


def test_expand_prefactor_cap_applies_to_nonnilpotent():
    I = build_ifunction(EX2Y, 1)
    alg = EX2Y.algebra
    ep = expand_prefactor(I, 2)
    p2 = alg.from_label("p2")
    key = ((0, 0), (0, 2))
    assert key in ep
    assert ep[key].num == AlgebraZ(alg, {-2: p2 * p2 * Fraction(1, 2)})
    assert ((0, 0), (0, 3)) not in ep  # capped by requested order


def test_sector_insertion_has_no_log_column():
    I = build_ifunction(EX1X, 1)
    ep = expand_prefactor(I, 2)
    assert all(key[1] == (0,) for key in ep)


def test_bound_must_be_nonnegative():
    with pytest.raises(IFunctionError):
        build_ifunction(EX1Y, -1)


@pytest.mark.parametrize("call, args, error, match", [
    (build_ifunction, ("ex1-Y", 3), None, None),
    (pf_system, ("ex1-Y",), None, None),
    (pf_system, (3,), PFError,
     "pf_system: expected a Geometry or a built-in name, not 3"),
    (build_ifunction, (None, 3), IFunctionError,
     "build_ifunction: expected a Geometry or a built-in name, not None"),
    (build_ifunction, ("ex9-Y", 3), IFunctionError,
     "build_ifunction: unknown geometry 'ex9-Y'"),
    (build_ifunction, (EX1Y, "3"), IFunctionError,
     "build_ifunction: bound must be a nonnegative int, not '3'"),
    (build_ifunction, (EX1Y, 2.5), IFunctionError,
     "build_ifunction: bound must be a nonnegative int, not 2.5"),
], ids=["ifunction-of-a-name", "pf-of-a-name", "pf-of-an-int",
        "ifunction-of-none", "ifunction-of-an-unknown-name",
        "ifunction-str-bound", "ifunction-float-bound"])
def test_exact_entry_points_take_a_geometry_or_a_name(call, args, error,
                                                      match):
    # a built-in name works as its Geometry; anything else is refused with
    # the module's own error naming the function
    if error is None:
        by_name, by_geometry = call(*args), call(builtin(args[0]), *args[1:])
        if call is build_ifunction:
            by_name, by_geometry = by_name.coeffs, by_geometry.coeffs
        assert by_name == by_geometry
    else:
        with pytest.raises(error, match="^" + re.escape(match)):
            call(*args)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.sampled_from([EX1Y, EX4Y, EX4X]))
def test_inverse_times_product_is_one(v, geom):
    alg = geom.algebra
    for j, row in enumerate(geom.rows):
        d = geom.row_element(j)
        vv = Fraction(v, geom.variables[0].denominator)
        g = gamma_ratio(d, vv)
        if g.is_laurent and vv > 0:
            back = g.num * gamma_ratio_defining_product(d, vv)
            assert back == AlgebraZ(alg, {0: alg.one()})
