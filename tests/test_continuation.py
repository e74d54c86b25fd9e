"""Numeric continuation: input handling, special-function jets, the U solve
and the MB integral."""

import dataclasses
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from math import factorial

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

import crepant.continuation as continuation
from crepant import (LambdaRat, build_ifunction, builtin, expand_prefactor,
                     load_config, save_config)
from crepant.algebra import Algebra, AlgebraError, AlgebraZ
from crepant.continuation import (Arg, ContinuationError, Frame,
                                  NilExpansion, NumericAlgebra, Pair, _affine,
                                  _coefficient_plan, _exp_jet,
                                  _frac_mp, _gamma_jet, _gamma_polygamma,
                                  _Kernel, _KernelData, _pair, _rgamma_jet,
                                  _SineRatio, _lstsq, _to_mp,
                                  continued_ifunction, default_lambda,
                                  mellin_barnes_integral,
                                  solve_umatrix, xside_terms)
from crepant.ifunction import RatAZ
from crepant.lambda_rat import parse_lambda_rat


def test_to_mp_accepts_strings():
    with mp.workdps(30):
        assert _to_mp("0.06") == mp.mpf("0.06")
        assert _to_mp("1/27") == mp.mpf(1) / 27
    with pytest.raises(ContinuationError, match="not a number"):
        _to_mp("q")


def test_mb_string_point_reaches_the_wall_check():
    # a string q is converted like any other number: on ex1's wall
    # |q| = 1/27 the integral refuses with its own error
    with pytest.raises(ContinuationError, match="wall"):
        mellin_barnes_integral("ex1", "1/27")


@settings(max_examples=40, deadline=None)
@given(st.floats(-7, 6), st.floats(-60, 60), st.sampled_from([25, 40]))
def test_polygamma_jet_matches_psi(re, im, digits):
    # away from the poles at the nonpositive integers
    assume(abs(complex(re, im) - round(re)) > 0.1 or round(re) > 0)
    with mp.workdps(digits):
        x = mp.mpc(re, im)
        got = _gamma_polygamma(x, 5)[1]
        eps = mp.mpf(mp.eps)  # the constant, fixed at this precision
    assert len(got) == 5
    with mp.workdps(digits + 20):
        for m, v in enumerate(got):
            want = mp.psi(m, x)
            assert abs(v - want) <= 100 * eps * abs(want), (m, x)


def test_polygamma_jet_real_and_empty():
    with mp.workdps(30):
        x = mp.mpf("-2.3")
        got = _gamma_polygamma(x, 3)[1]
        assert all(isinstance(v, mp.mpf) for v in got)
        for m, v in enumerate(got):
            assert abs(v - mp.psi(m, x)) <= 100 * mp.eps * abs(v)
        assert _gamma_polygamma(x, 0)[1] == []


def test_order_zero_jets_call_no_polygamma(monkeypatch):
    orders = []

    def counting(real):
        def jet(x, n):
            orders.append(n)
            return real(x, n)
        return jet

    def no_psi(*args):
        raise AssertionError("mp.psi called")

    monkeypatch.setattr(continuation, "_gamma_polygamma",
                        counting(continuation._gamma_polygamma))
    monkeypatch.setattr(mp.mp, "psi", no_psi)
    with mp.workdps(30):
        tol = mp.mpf(10) ** -24
        x = mp.mpc("0.3", "1.7")
        assert _gamma_jet(x, 0, tol) == [mp.gamma(x)]
        assert _rgamma_jet(x, 0, tol) == [mp.rgamma(x)]
        # the reflection branch at a pole of Gamma
        pole = mp.mpf(-2) + mp.mpf(10) ** -28
        (val,) = _rgamma_jet(pole, 0, tol)
        assert abs(val - mp.rgamma(pole)) <= mp.mpf(10) ** -50
    assert not any(orders)


# points 1e-3 from the poles of Gamma at 0, -1, ..., -7
_NEAR_POLE = st.builds(lambda n, d: -n + d, st.integers(0, 7),
                       st.sampled_from([1e-3, -1e-3, 1e-3j, 7e-4 - 7e-4j]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.floats(-7, 6).map(complex),
                 st.builds(complex, st.floats(-7, 6), st.floats(-60, 60)),
                 _NEAR_POLE),
       st.sampled_from([15, 25, 40, 64]))
def test_gamma_pass_matches_mpmath(x, digits):
    # Gamma and 1/Gamma (the jets' values) and psi^(0..4), all from the
    # fixed-point pass, against mpmath's own functions
    assume(abs(x - round(x.real)) > 1e-6 or round(x.real) > 0)
    with mp.workdps(digits):
        x = mp.mpf(x.real) if x.imag == 0 else mp.mpc(x)
        tol = mp.mpf(10) ** -(digits - 6)
        gamma = _gamma_jet(x, 1, tol)[0]
        rgamma = _rgamma_jet(x, 1, tol)[0]
        psis = _gamma_polygamma(x, 5)[1]
        eps = mp.mpf(mp.eps)
    assert isinstance(gamma, type(x)) and isinstance(psis[4], type(x))
    with mp.workdps(digits + 20):
        pairs = [(gamma, mp.gamma(x)), (rgamma, mp.rgamma(x))]
        pairs += [(v, mp.psi(m, x)) for m, v in enumerate(psis)]
        for k, (got, want) in enumerate(pairs):
            assert abs(got - want) <= 100 * eps * abs(want), (k, x)


# each point at the digits it runs at
_FAR_OUT = {"0.3+5000j": (15,), "-3.00000000000000000001": (30,),
            "-30+40j": (15, 64), "-0.6+17j": (15, 64), "2-150j": (15, 64)}


@pytest.mark.parametrize("x", list(_FAR_OUT))
def test_gamma_pass_far_out_and_near_a_pole(x):
    # at |x| = 5000, psi^(4)(x) ~ 6/x^4 is about 2^-52: a sum exact to
    # 2^-wp keeps its digits only through guard bits that grow with
    # log2 |y| per order.  1e-20 from the pole at -3, x + 3 has no digits
    # left at 2^-wp and must stay in floating form.  Off the axis the shift
    # only lifts |y| to the Stirling bound: -30+40j moves to Re y = 0,
    # -0.6+17j by one at 15 digits and by 26 at 64, 2-150j not at all.
    for digits in _FAR_OUT[x]:
        with mp.workdps(digits):
            x_mp = mp.mpmathify(x)
            gamma, psis = _gamma_polygamma(x_mp, 5)
            eps = mp.mpf(mp.eps)
        with mp.workdps(digits + 60):
            pairs = [(gamma, mp.gamma(x_mp))]
            pairs += [(v, mp.psi(m, x_mp)) for m, v in enumerate(psis)]
            for k, (got, want) in enumerate(pairs):
                assert abs(got - want) <= 100 * eps * abs(want), (digits, k)


@pytest.mark.parametrize("power", [1])
def test_rgamma_reflection_jet_of_a_power(power):
    # within tol of the pole at -2, 1/Gamma comes from the reflection form;
    # its derivatives against mpmath's numerical ones
    with mp.workdps(30):
        tol = mp.mpf(10) ** -24
        x = mp.mpf(-2) + mp.mpf(10) ** -28
        got = _rgamma_jet(x, 3, tol)
        for j, v in enumerate(got):
            want = mp.diff(lambda t: mp.rgamma(t) ** power, x, j)
            assert abs(v - want) <= mp.mpf(10) ** -24 * max(1, abs(want)), j


def _two_class_algebra(square: int, power: int = 0) -> Algebra:
    """Unit 1 and one class p with p*p = square * lambda^power * 1, named
    alike; power 2 makes it graded."""
    one, zero, c = LambdaRat(1), LambdaRat(0), LambdaRat.gen(power, square)
    table = (((one, zero), (zero, one)), ((zero, one), (c, zero)))
    return Algebra("config", ("1", "p"), (0, 2), (0, 0), 0, table,
                   (one, zero))


def test_mb_matches_inside_series_ex4():
    # below ex4's wall |q| = 1/4 the contour integral is the inside residue
    # series; lambda and q are made at more digits than the integral uses
    # so both sides see the same sample
    with mp.workdps(30):
        lam = mp.mpc("0.7", "0.31")
        q = mp.mpf("0.03")
    res = mellin_barnes_integral("ex4", q, lam=lam, digits=15, tol="1e-12")
    assert res.side == "inside"
    with mp.workdps(25):
        geom = builtin("ex4-Y")
        na = NumericAlgebra(geom.algebra, lam, 15)
        fr = Frame(na, lam=lam, digits=15)
        kern = _Kernel(_KernelData(geom, 0), fr, q)
        total = NilExpansion(fr.na)
        for d in range(60):
            term = kern.right_residue(d)
            total = total + term
            if term.maxabs() < mp.mpf("1e-23"):
                break
        else:
            pytest.fail("inside series did not converge")
        assert (total - res.value).maxabs() <= res.error


def _kernel_at(ex, q, digits, lam=None):
    """ex's Y-side kernel at lam (by default 0.7+0.31i), z = 1 and the
    point q."""
    geom = builtin(ex + "-Y")
    lam = mp.mpc("0.7", "0.31") if lam is None else lam
    na = NumericAlgebra(geom.algebra, lam, digits)
    fr = Frame(na, lam=lam, digits=digits)
    return _Kernel(_KernelData(geom, 0), fr, mp.mpf(q))


def _kernel_oracle(kern, s):
    """The contour kernel of the module docstring in mpmath numbers, from
    the kernel's own data, as the kernel evaluated it before its fixed-point
    form: K(s) = pi/sin(pi s) q^s prod_j Gamma(x_j)^e_j sum_k E_k hp tau^k,
    with E_0 = 1, E_k = sum_{i<=k} i n_i E_(k-i)/k and
    n_k = sum_j e_j a_j^k psi^(k-1)(x_j)/k!.  Gamma and the polygammas come
    rounded from _gamma_polygamma, which test_gamma_pass_matches_mpmath
    holds to mpmath's own."""
    s = mp.mpc(s)
    scalar = mp.pi / mp.sinpi(s) * mp.exp(s * kern.logq)
    n = [0] * len(kern.powers)
    for row in kern.contour:
        x = row.slope * s + row.offset
        gamma, psis = _gamma_polygamma(x, len(row.weights))
        scalar *= gamma ** row.e
        for k, w in enumerate(row.weights, 1):
            n[k] += _frac_mp(w) * psis[k - 1]
    series = [scalar]
    for k in range(1, len(n)):
        series.append(mp.fsum(i * n[i] * series[k - i]
                              for i in range(1, k + 1)) / k)
    total = NilExpansion(kern.fr.na)
    for c, power in zip(series, kern.powers):
        total = total + power.scale(c)
    return total


# 15 heights per line, each 0 < t <= 20 with its mirror -t, and t = 0
_ORACLE_T = [mp.mpf(t) for t in ("0.37", "1.9", "4.6", "8.3", "13.1",
                                 "17.7", "20")]


# at lambda = 0.7 a Gamma row of ex4 has its pole at s = -1.3
@pytest.mark.parametrize("lam", [("0.7", "0.31"), ("0.73",)],
                         ids=["complex", "real"])
@pytest.mark.parametrize("ex, q", [("ex1", "0.06"), ("ex4", "0.12")])
def test_kernel_matches_the_mpmath_oracle(ex, q, lam):
    # the fixed-point kernel against K(s) in mpmath numbers at 45 points
    # s = sigma + it on three lines.  The rows with a real offset (the
    # 1/Gamma rows, and every row at a real lambda) take the conjugate of
    # their pass at the mirror node; one kernel evaluates each t before -t
    # and a fresh one each -t before t, so neither side of a pair depends on
    # which came first
    for digits in (25, 30, 40):
        with mp.workdps(digits):
            lam_mp = mp.mpc(*lam) if len(lam) == 2 else mp.mpf(*lam)
            first, second = (_kernel_at(ex, q, digits, lam_mp)
                             for _ in range(2))
            real = [mp.im(r.offset) == 0 for r in first.contour]
            assert real[-1] and all(real) == (len(lam) == 1)
            for sigma in (mp.mpf("0.5"), mp.mpf("0.4"), mp.mpf("-1.3")):
                got = {mp.mpc(sigma, 0): first(mp.mpc(sigma, 0))}
                for t in _ORACLE_T:
                    up, down = mp.mpc(sigma, t), mp.mpc(sigma, -t)
                    got[up], got[down] = first(up), first(down)
                    again = {down: second(down), up: second(up)}
                    with mp.workdps(digits + 10):
                        for s in (up, down):
                            want = _kernel_oracle(first, s)
                            bound = mp.mpf(10) ** (5 - digits) * want.maxabs()
                            for value in (got[s], again[s]):
                                assert set(value.terms) == set(want.terms)
                                assert (value - want).maxabs() <= bound, (
                                    digits, s)
                assert len(got) == 15
                with mp.workdps(digits + 10):
                    s = mp.mpc(sigma, 0)
                    want = _kernel_oracle(first, s)
                    assert (got[s] - want).maxabs() <= mp.mpf(10) ** (
                        5 - digits) * want.maxabs()
            # every pass a node left for its mirror was taken
            assert not first._mirror and not second._mirror


@pytest.mark.parametrize("ex, q", [("ex1", "0.06"), ("ex4", "0.12")])
def test_kernel_residues_are_the_inside_terms(ex, q):
    # the residue at s = d is the exact I-function coefficient of index d,
    # evaluated at lambda and z = 1, with its dressing and q^d
    with mp.workdps(30):
        kern = _kernel_at(ex, q, 30)
        fr = kern.fr
        ifn = build_ifunction(builtin(ex + "-Y"), 2)
        for d in range(3):
            co = NilExpansion(fr.na)
            for i, _, c, k in _coefficient_plan(ifn.coefficient((d,)),
                                                ex + "-Y"):
                co = co + NilExpansion(fr.na, {(i, 0): c * fr.lam ** k})
            want = (co * kern.pdress).scale(mp.mpf(q) ** d)
            got = kern.right_residue(d)
            assert (got - want).maxabs() <= mp.mpf("1e-26"), d


def test_coefficient_with_a_z_denominator_is_refused():
    # ex2-Y's point fixed locus leaves z-denominators, which no X side has
    ifn = build_ifunction(builtin("ex2-Y"), 1)
    co = next(c for c in ifn.coeffs.values() if c.den)
    with pytest.raises(ContinuationError, match="ex2-Y: .*denominator"):
        _coefficient_plan(co, "ex2-Y")


def test_coefficient_off_the_grading_is_refused():
    # the grading makes each component c lambda^k, and only such a
    # component is evaluated: 1 + lambda, which no graded series holds,
    # is refused by name
    alg = builtin("ex1-X").algebra
    co = RatAZ(AlgebraZ(alg, {0: alg.element(
        [parse_lambda_rat("1+λ"), 0, 0])}))
    with pytest.raises(ContinuationError, match=re.escape(
            "ex1-X: the coefficient (λ + 1)/1 is not a lambda-monomial")):
        _coefficient_plan(co, "ex1-X")


@pytest.mark.parametrize("ex, q", [("ex1", "0.06"), ("ex4", "0.12")])
def test_kernel_left_residues_match_the_contour(ex, q):
    # the residue at the left pole s_n, as the trapezoid rule with 96 nodes
    # on a circle of radius 0.04 (the nearest other pole is 0.14 away, from
    # ex1's s_1 to s = 0); ex4's even poles are double and carry log q
    with mp.workdps(30):
        kern = _kernel_at(ex, q, 30)
        fr = kern.fr
        for n in range(4):
            centre = fr.scalar(kern.left_pole(n))
            res = NilExpansion(fr.na)
            for k in range(96):
                w = mp.mpf("0.04") * mp.expjpi(mp.mpf(k) / 48)
                res = res + kern(centre + w).scale(w / 96)
            got = kern.left_value(n)
            assert (res - got).maxabs() <= mp.mpf("1e-24"), n
            assert len(kern.left_residue(n)) == (2 if ex == "ex4"
                                                 and n % 2 == 0 else 1)


@pytest.mark.parametrize("ex, q", [("ex1", "0.06"), ("ex4", "0.12")])
def test_kernel_on_the_contour_matches_hermite_evaluation(ex, q):
    # the contour kernel, one jet of Gamma^mult per row and root, against
    # each row evaluated once per multiplicity, with jets by numerical
    # differentiation
    digits = 30
    with mp.workdps(digits):
        kern = _kernel_at(ex, q, digits)
        fr = kern.fr

        def numerical_jet(f):
            return lambda x, jmax: [mp.diff(f, x, j) for j in range(jmax + 1)]

        for s in (mp.mpc("0.5", 0), mp.mpc("0.5", "1.3"),
                  mp.mpc("0.5", "-2.7"), mp.mpc("0.4", 6), mp.mpc("0.5", 11)):
            want = kern.head * kern.pdress
            for r in kern.rows:
                c, scal = _frac_mp(r.c), fr.scalar(r.arg)
                x, sign = ((-c * s - scal, -1) if c < 0
                           else (1 + c * s + scal, 1))
                f = fr.na.spectrum(r.arg.div, sign).apply(
                    numerical_jet(mp.gamma if c < 0 else mp.rgamma), x)
                for _ in range(r.mult):
                    want = want * f
            want = want.scale(mp.pi / mp.sinpi(s) * mp.exp(s * kern.logq))
            got = kern(s)
            assert set(got.terms) == set(want.terms)
            bound = mp.mpf(10) ** (5 - digits) * want.maxabs()
            assert (got - want).maxabs() <= bound, s
        # an integer s is a pole of pi/sin(pi s), refused before any row
        for s in (-1, 2):
            with pytest.raises(ContinuationError, match=rf"{ex}-Y: s = {s} "
                                                        r"is a pole of pi/sin"):
                kern(s)


def _closed_jet(f, x, k):
    """f^(k)(x) for f = exp or Gamma, k <= 2, in closed form."""
    if f == "exp":
        return mp.exp(x)
    g, psi = mp.gamma(x), mp.psi(0, x)
    return (g, g * psi, g * (psi ** 2 + mp.psi(1, x)))[k]


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("f", ["exp", "gamma"])
@pytest.mark.parametrize("square", [0, 2])
def test_spectrum_apply_closed_forms(square, f, shift):
    # f^(shift)(s + c p) with p*p = 0 is the jet f(s) + c f'(s) p; with
    # p*p = 2, c p has the eigenvalues +-c sqrt 2 and the projectors
    # (1 +- p/sqrt 2)/2.  p*p = square lambda^2 at lambda = 1, as a class
    # that is not nilpotent at lambda = 0 is refused
    na = NumericAlgebra(_two_class_algebra(square, 2), 1, 20)
    with mp.workdps(30):
        s, c = mp.mpc("1.3", "0.4"), mp.mpf("0.5")
        jet = (_exp_jet if f == "exp"
               else partial(_gamma_jet, tol=mp.mpf(10) ** -14))
        spec = na.spectrum((("p", 1),), c)
        got = spec.apply(jet, s, shift)
        if square == 0:
            want = {(0, 0): _closed_jet(f, s, shift),
                    (1, 0): c * _closed_jet(f, s, shift + 1)}
        else:
            r2 = mp.sqrt(2)
            plus = _closed_jet(f, s + c * r2, shift)
            minus = _closed_jet(f, s - c * r2, shift)
            want = {(0, 0): (plus + minus) / 2,
                    (1, 0): (plus - minus) / (2 * r2)}
        assert spec.nilpotent == (square == 0)
        assert set(got.terms) == set(want)
        for key, v in want.items():
            assert abs(got.terms[key] - v) <= mp.mpf(10) ** -25 * abs(v), key


# (geometry, class) -> the roots at lambda = 1 with their multiplicities,
# where they are rational; the classes of ex1-X and ex3-X have simple
# irrational roots, those of x^3 = 1/27 and x^5 = 27/3125 or 3/3125
RATIONAL_ROOTS = {
    ("ex1-Y", "p"): {0: 3}, ("ex2-X", "p"): {0: 3},
    ("ex2-X", "1_1/3"): {0: 4}, ("ex2-Y", "p1"): {0: 3},
    ("ex2-Y", "p2"): {-1: 1, 0: 2}, ("ex2-Y", "p1+2p2"): {-2: 1, 0: 3},
    ("ex3-Y", "p"): {0: 3}, ("ex3-Y", "1_1/3"): {0: 4},
    ("ex4-X", "p"): {0: 2}, ("ex4-Y", "p"): {0: 3},
}
SIMPLE_ROOTS = {("ex1-X", "1_1/3"): (3, Fraction(1, 27)),
                ("ex3-X", "1_1/5"): (5, Fraction(27, 3125)),
                ("ex3-X", "1_2/5"): (5, Fraction(3, 3125))}


def _degree_two_classes():
    for name in ("ex1-X", "ex1-Y", "ex2-X", "ex2-Y", "ex3-X", "ex3-Y",
                 "ex4-X", "ex4-Y"):
        alg = builtin(name).algebra
        for label, deg in zip(alg.labels, alg.degrees):
            if deg == 2:
                yield name, label, ((label, Fraction(1)),)
    yield "ex2-Y", "p1+2p2", (("p1", Fraction(1)), ("p2", Fraction(2)))


@pytest.mark.parametrize("name, label, klass", list(_degree_two_classes()))
def test_exact_spectrum_matches_a_high_precision_eig(name, label, klass):
    # the nodes are the exact roots times lambda and the factor 1/z; the
    # eigenvalues of the numeric matrix of t at 110 digits lie within 1e-20
    # of them, although a Jordan block of size 4 moves a root to about
    # 10^(-110/4)
    alg = builtin(name).algebra
    with mp.workdps(110):
        lam, z = mp.mpc("0.7", "0.31"), mp.mpf("0.9")
        na = NumericAlgebra(alg, lam, 100)
        spec = na.spectrum(klass, 1 / z)
        nodes = [mu for mu, _ in spec.nodes]
        mults = [m for _, m in spec.nodes]
        if (name, label) in RATIONAL_ROOTS:
            want = RATIONAL_ROOTS[(name, label)]
            assert len(nodes) == len(want)
            for mu, m in spec.nodes:
                root = mp.nint(mp.re(mu * z / lam))
                assert want[int(root)] == m
                if root == 0:
                    assert mu is continuation.mp.zero
                else:
                    assert abs(mu - root * lam / z) < mp.mpf(10) ** -100
        else:
            deg, power = SIMPLE_ROOTS[(name, label)]
            assert mults == [1] * deg
            for mu in nodes:
                assert abs((mu * z / lam) ** deg - _frac_mp(power)) \
                    < mp.mpf(10) ** -90
        assert spec.nilpotent == (nodes == [0])
        t = mp.matrix(alg.dim, alg.dim)
        for lbl, c in klass:
            i = alg.labels.index(lbl)
            for j in range(alg.dim):
                for k, v in na.table[(i, j)]:
                    t[k, j] += _frac_mp(c) * v / z
        eig = mp.eig(t, left=False, right=False)
        tol = mp.mpf(10) ** -20
        assert all(min(abs(e - mu) for mu in nodes) < tol for e in eig)
        assert all(min(abs(e - mu) for e in eig) < tol for mu in nodes)


def test_exact_factors_are_built_once_across_lambda_samples(monkeypatch):
    # the spectra of a numeric algebra are cached per sample, the exact
    # factors under them once per class
    monkeypatch.setattr(continuation, "_PAIRS", {})
    alg = builtin("ex2-Y").algebra
    monkeypatch.setattr(alg, "_minimal", {})
    calls = []
    real = Algebra._class_matrix

    def counted(self, klass, at_zero):
        calls.append((self.name, klass, at_zero))
        return real(self, klass, at_zero)

    monkeypatch.setattr(Algebra, "_class_matrix", counted)
    for lam in (default_lambda(), mp.mpc("0.4", "0.2")):
        continued_ifunction("ex2", 1, lam=lam, digits=15)
    assert (("kf3", (("p2", 1),), False)) in calls
    assert all(n == 1 for n in Counter(calls).values())
    assert {at_zero for _, _, at_zero in calls} == {False}


def test_spectrum_refuses_classes_without_a_graded_spectrum():
    # a degree-0 label, and lambda != 0 on an algebra whose p*p = 2 is not
    # the lambda-monomial its grading asks for, raise before any eigenvalue
    # is made; so does a class that is not nilpotent at lambda = 0, where
    # the grading must fix the powers of z
    na = NumericAlgebra(builtin("ex2-Y").algebra, default_lambda(), 20)
    with pytest.raises(AlgebraError, match=r"^kf3: class 1\*1: label 1 "
                                           r"has degree 0, not 2"):
        na.spectrum((("1", Fraction(1)),), mp.mpf(1))
    toy = _two_class_algebra(2)
    with pytest.raises(AlgebraError, match=r"^config: class 1\*p: structure "
                                           r"constant 2/1 at \(p, p\)"):
        NumericAlgebra(toy, default_lambda(), 20).spectrum(
            (("p", Fraction(1)),), mp.mpf(1))
    with pytest.raises(ContinuationError, match=r"^config: the class 1\*p "
                                                r"is not nilpotent"):
        NumericAlgebra(toy, 0, 20).spectrum((("p", Fraction(1)),),
                                            mp.mpf(1))


@pytest.mark.parametrize("lam, why", [
    (0, "right pole d = 0: Gamma of contour row 0 has a pole at s = 0.0 "
        "(argument 0.0)"),
    (3, "left pole n = 0: parameter sample resonates: argument 1.0 is too "
        "close to the integer 1"),
])
def test_mb_errors_name_the_side_and_the_pole(lam, why):
    with pytest.raises(ContinuationError) as info:
        mellin_barnes_integral("ex1", "0.06", lam=lam, digits=15)
    assert str(info.value) == f"ex1: mellin_barnes_integral: ex1-Y: {why}"


@pytest.mark.parametrize("ex, q, sigma, evaluations, corrections", [
    pytest.param(ex, q, sigma, n, k,
                 id=f"{ex}-{q}" + ("" if sigma is None else f"-sigma-{sigma}"))
    for ex, q, sigma, n, k in (
        ("ex1", "0.06", None, 195, 2), ("ex4", "0.12", None, 195, 3),
        ("ex1", "0.06", "0.5", 259, 1), ("ex4", "0.12", "0.5", 323, 2))])
def test_mb_evaluation_count(ex, q, sigma, evaluations, corrections,
                             monkeypatch):
    # the seed-0 benchmark points take these many kernel evaluations: the
    # four height probes at t = +-12 and +-11, the ends +-12 among them, the
    # other five breakpoints, and the new nodes of each interval's nested
    # levels up to the first of at least 17 nodes whose error bound fits
    # its share of tol.  On the default line (sigma = 3/2 on ex1, 5/2 on
    # ex4) every pole is at least 1/2 away and all six intervals stop at
    # 33 nodes, in both examples.  At sigma = 1/2 the first left poles sit
    # 0.27 (ex1) and 0.20 (ex4) from the line near t = Im lambda/3 and
    # t = Im lambda: ex1 stops [-3/4, 0] and [0, 3/4] at 65 nodes and the
    # other four at 33; ex4 stops [0, 3/4] at 129, [3/4, 3] at 65 and the
    # other four at 33.  So the count follows the line and the stopping
    # rule, and test_mb_matches_a_high_precision_run guards the value it
    # buys.  No point of the line is evaluated twice
    points = []
    call = _Kernel.__call__

    def recorded(self, s):
        points.append(mp.mpc(s))
        return call(self, s)

    monkeypatch.setattr(_Kernel, "__call__", recorded)
    res = mellin_barnes_integral(ex, mp.mpf(q), lam=mp.mpc("0.7", "0.31"),
                                 sigma=sigma, digits=15, tol="1e-12")
    assert len(points) == len(set(points)) == res.evaluations
    assert (res.evaluations, res.height, res.corrections, res.wall) == (
        evaluations, 12, corrections,
        {"ex1": Fraction(1, 27), "ex4": Fraction(1, 4)}[ex])


@pytest.mark.parametrize("ex, q", [("ex1", "0.06"), ("ex4", "0.12")])
def test_mb_gamma_pass_count(ex, q, monkeypatch):
    # the fixed-point Gamma passes of one integral at the seed-0 benchmark
    # points on the default line: one per contour row and kernel
    # evaluation, less the passes a row with a real offset (the 1/Gamma
    # rows) takes at -t as the conjugate of its pass at t, plus those of
    # the head and the transferred residues (ex1: 2 + 2 for each of
    # d = 0, 1; ex4: 3 + 3 for each of d = 0, 1, 2).  The nested levels'
    # nodes come in pairs +-t, and with all six intervals at 33 nodes
    # every node but t = 0 finds its mirror: 97 of the 195 nodes take a
    # shared pass, on ex1 and on ex4 alike
    calls = Counter()

    def counting(name, real):
        def f(*args):
            calls[name] += 1
            return real(*args)
        return f

    monkeypatch.setattr(continuation, "_gamma_pass",
                        counting("pass", continuation._gamma_pass))
    monkeypatch.setattr(continuation, "_conjugate_pass",
                        counting("shared", continuation._conjugate_pass))
    res = mellin_barnes_integral(ex, mp.mpf(q), lam=mp.mpc("0.7", "0.31"),
                                 digits=15, tol="1e-12")
    rows = {"ex1": 2, "ex4": 3}[ex]
    assert calls == {"ex1": {"pass": 299, "shared": 97},
                     "ex4": {"pass": 500, "shared": 97}}[ex]
    assert calls["pass"] + calls["shared"] == rows * res.evaluations + {
        "ex1": 6, "ex4": 12}[ex]


def test_mb_budget_counts_the_lower_tail(monkeypatch):
    # off the reflection path the line is cut at -height too; with the
    # lower half made to decay e^(5|t|/2) slower, its tail needs a greater
    # height and dominates the budget, which must still include it
    real = _Kernel.__call__
    seen = {}

    def slower_below(self, s):
        v = real(self, s)
        t = mp.im(mp.mpc(s))
        if t < 0:
            v = v.scale(mp.exp(-5 * t / 2))
        seen[t] = v.maxabs()
        return v

    monkeypatch.setattr(_Kernel, "__call__", slower_below)
    res = mellin_barnes_integral("ex1", "0.06", digits=15, tol="1e-12")
    top, prev = seen[-res.height], seen[1 - res.height]
    lower = top / mp.log(prev / top)
    assert res.height > 12
    assert res.error / 2 < lower <= res.error <= mp.mpf("1e-12")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.integers(0, 2), st.integers(-4, 4),
       st.sampled_from(["integer", "complex"]))
def test_sine_ratio_shifts_by_a_sign(rates, k, m, kind):
    # R_k(x + m) = (-1)^(m (sum rates + 1)) R_k(x) for integer rates, at an
    # integer x (the branch of lambda = 0) and at a complex one
    assume(k < len(rates) or kind == "complex")
    with mp.workdps(30):
        x = mp.mpf(2) if kind == "integer" else mp.mpc("0.3", "0.7")
        ratio = _SineRatio(rates, k)
        got, want = ratio.jet(x + m, 2), ratio.jet(x, 2)
        sign = (-1) ** (m * (sum(rates) + 1))
        for u, v in zip(got, want):
            assert abs(u - sign * v) <= mp.mpf(10) ** -25 * max(1, abs(v))


def _arg_parts(arg):
    return arg.a0, arg.alam, arg.div


@pytest.mark.parametrize("ex", ["ex1", "ex2", "ex3", "ex4"])
def test_pole_walk_matches_affine_rebuilds(ex, monkeypatch):
    # every kernel of the continued series walks its left poles from s_0:
    # s_n and each row's argument there equal their rebuilds from the
    # pole row's class and each row's own argument, exactly
    kernels = []
    init = _Kernel.__init__

    def recorded(self, *args, **kw):
        init(self, *args, **kw)
        kernels.append(self)

    monkeypatch.setattr(_Kernel, "__init__", recorded)
    trunc = builtin(ex + "-X").algebra.dim + 2
    continued_ifunction(ex, trunc, lam=mp.mpc("0.7", "0.31"), digits=30)
    assert kernels
    for kern in kernels:
        pole_row = min(kern.rows, key=lambda r: r.c)
        rate = -pole_row.c
        assert kern.left_rate == rate
        for n in range(12):
            sn = _affine(-Fraction(n) / rate, (1 / rate, pole_row.arg))
            assert _arg_parts(kern.left_pole(n)) == _arg_parts(sn)
            want = [_affine(0, (-r.c, sn), (-1, r.arg)) if r.c < 0
                    else _affine(1, (1, r.arg), (r.c, sn)) for r in kern.rows]
            assert [_arg_parts(a) for a in kern.pole_args(n)] == \
                [_arg_parts(a) for a in want]


def _term_digest(cs):
    return sorted((key, sorted((comp, repr(v))
                               for comp, v in val.terms.items()))
                  for key, val in cs.terms.items())


@pytest.mark.parametrize("mode", ["nonequivariant", "equivariant-numeric"])
@pytest.mark.parametrize("ex", ["ex1", "ex2", "ex3", "ex4"])
def test_second_continued_series_call_is_identical(ex, mode):
    # the per-call memo dies with its Frame: a second call in the same
    # process recomputes, and gives the same terms digit for digit
    trunc = builtin(ex + "-X").algebra.dim + 2
    lam = mp.mpc("0.7", "0.31") if mode == "equivariant-numeric" else None
    first, second = (continued_ifunction(ex, trunc, mode=mode, lam=lam,
                                         digits=30) for _ in range(2))
    assert _term_digest(first) == _term_digest(second)


def test_continued_series_jet_counts(monkeypatch):
    # one pass of the benchmark's 8 continued series at seed 0: the sine
    # ratios come from their values at the reduced pole, the 1/Gamma jets
    # at exact poles from one per (pole, order) and every row jet from one
    # per (rate, order, argument), once per call; jets of order >= 1 take
    # one _gamma_polygamma each and those of order 0 one mp.gamma or
    # mp.rgamma
    calls = Counter()

    def counting(name, real):
        def f(*args):
            calls[name] += 1
            return real(*args)
        return f

    monkeypatch.setattr(_SineRatio, "jet",
                        counting("sine", _SineRatio.jet))
    monkeypatch.setattr(continuation, "_gamma_polygamma",
                        counting("gamma", continuation._gamma_polygamma))
    # the context the module evaluates in, not the mpmath module
    ctx = continuation.mp
    monkeypatch.setattr(ctx, "gamma", counting("scalar gamma", ctx.gamma))
    monkeypatch.setattr(ctx, "rgamma", counting("scalar rgamma", ctx.rgamma))
    lam = mp.mpc("0.7", "0.31")
    for ex in ("ex1", "ex2", "ex3", "ex4"):
        trunc = builtin(ex + "-X").algebra.dim + 2
        continued_ifunction(ex, trunc, mode="nonequivariant", digits=30)
        continued_ifunction(ex, trunc, lam=lam, digits=30)
    assert calls == {"sine": 51, "gamma": 194, "scalar gamma": 11,
                     "scalar rgamma": 98}


@pytest.mark.parametrize("lam, why", [
    (3, "argument -1.0 is too close to the integer -1"),
])
def test_left_residue_error_names_geometry_index_and_pole(lam, why):
    # an exact lambda = 0 is no resonance: it is the nonequivariant sample
    with pytest.raises(ContinuationError) as info:
        solve_umatrix("ex1", mode="equivariant-numeric", lam=lam, digits=30)
    assert str(info.value) == (f"ex1: solve_umatrix: ex1-Y: X index (0,), "
                               f"pole n = 0: parameter sample resonates: "
                               f"{why}")


@pytest.mark.parametrize("ex, lam, q", [
    # the benchmark's (lambda, q) at seeds 0, 1 and 2
    pytest.param(ex, lam, q, id=f"{ex}-{q}") for ex, lam, q in (
        ("ex1", ("0.7", "0.31"), "0.06"),
        ("ex4", ("0.7", "0.31"), "0.12"),
        ("ex1", ("0.678811", "0.351692"), "0.072913"),
        ("ex4", ("0.678811", "0.351692"), "0.112753"),
        ("ex1", ("0.793845", "0.363739"), "0.051697"),
        ("ex4", ("0.793845", "0.363739"), "0.104244"))])
def test_mb_matches_a_high_precision_run(ex, lam, q):
    # the value stopped at tol 1e-12 lies within its own reported error of
    # one at 30 digits and tol 1e-25; lambda and q are made at 30 digits so
    # both runs see the same sample
    with mp.workdps(30):
        lam, q = mp.mpc(*lam), mp.mpf(q)
    res = mellin_barnes_integral(ex, q, lam=lam, digits=15, tol="1e-12")
    ref = mellin_barnes_integral(ex, q, lam=lam, digits=30, tol="1e-25")
    assert res.error <= mp.mpf("1e-12")
    with mp.workdps(30):
        assert set(res.value.terms) == set(ref.value.terms)
        assert (res.value - ref.value).maxabs() <= res.error


def test_mb_reflected_path_matches_inside_series_ex4(monkeypatch):
    # at real lambda and real positive q the kernel obeys the Schwarz
    # reflection, so only the upper half of the line is sampled; below the
    # wall the value is the inside residue series
    with mp.workdps(30):
        lam, q = mp.mpf("0.7"), mp.mpf("0.03")
    heights = []
    call = _Kernel.__call__

    def recorded(self, s):
        heights.append(mp.im(s))
        return call(self, s)

    monkeypatch.setattr(_Kernel, "__call__", recorded)
    # with no node below the axis, no row finds a mirror pass to share
    shared = []
    monkeypatch.setattr(continuation, "_conjugate_pass", shared.append)
    res = mellin_barnes_integral("ex4", q, lam=lam, digits=15, tol="1e-12")
    assert res.side == "inside" and res.error <= mp.mpf("1e-12")
    assert len(heights) == res.evaluations and min(heights) >= 0
    assert not shared
    with mp.workdps(25):
        geom = builtin("ex4-Y")
        fr = Frame(NumericAlgebra(geom.algebra, lam, 15), lam=lam, digits=15)
        kern = _Kernel(_KernelData(geom, 0), fr, q)
        total = NilExpansion(fr.na)
        for d in range(60):
            term = kern.right_residue(d)
            total = total + term
            if term.maxabs() < mp.mpf("1e-23"):
                break
        else:
            pytest.fail("inside series did not converge")
        assert (total - res.value).maxabs() <= res.error


def test_mb_without_a_radius_is_refused():
    # ex3's contour variable y1 has sector_map entry -1/3, so its indices
    # fall into 3 residue classes, and the integral sums only one
    with pytest.raises(ContinuationError,
                       match="^ex3: mellin_barnes_integral: ex3-Y: the "
                             "contour variable y1 splits into 3 residue "
                             "classes"):
        mellin_barnes_integral("ex3", "0.02")


@pytest.mark.parametrize("ex, wall", [
    ("ex1", Fraction(1, 27)), ("ex2", Fraction(1, 27)),
    ("ex4", Fraction(1, 4))])
def test_mb_wall_from_the_kernel_rates(ex, wall):
    # prod_j |c_j|^(c_j) over the rates along the contour variable:
    # (1, 1, 1, -3) on ex1-Y, (1, 1, 0, -3, 1) along ex2-Y's y2 and
    # (1, 1, 1, -2, -1) on ex4-Y
    g_y, c = _pair(ex).y, _pair(ex).var
    lam = mp.mpc("0.7", "0.31")
    fr = Frame(NumericAlgebra(g_y.algebra, lam, 15), lam=lam, digits=15)
    assert _Kernel(_KernelData(g_y, c), fr).wall == wall


@pytest.mark.parametrize("sigma, match", [
    (-1, "pole of pi/sin\\(pi s\\) at -1 sits within 0.05 of the contour"),
    (-2.97, "pole of pi/sin\\(pi s\\) at -3 sits within 0.05 of the contour"),
    (1.02, "right pole 1 sits within 0.05 of the contour")])
def test_mb_line_on_an_integer_is_refused(sigma, match):
    # pi/sin(pi s) has a pole at every integer, also where the kernel has
    # none: a line through one would divide by zero
    with pytest.raises(ContinuationError, match=match):
        mellin_barnes_integral("ex1", 0.06, sigma=sigma, digits=15)


@pytest.mark.parametrize("q, kw", [
    (mp.mpf(1) / 27, {}),
    ("0.06", dict(sigma=1.02, digits=15, tol="1e-12"))],
    ids=["on-the-wall", "right-pole-on-the-line"])
def test_mb_refusals_name_the_example(q, kw):
    with pytest.raises(ContinuationError,
                       match=r"^ex1: mellin_barnes_integral: "):
        mellin_barnes_integral("ex1", q, **kw)


def test_mb_left_of_zero_matches_the_default_line():
    # at sigma = -1.3 five left poles lie right of the line and the 1/Gamma
    # rows have Re x = -0.3 on it, and the default line 3/2 has the right
    # poles d = 0, 1 left of it; the value is the same
    lam = mp.mpc("0.7", "0.31")
    kw = dict(lam=lam, digits=15, tol="1e-12")
    left = mellin_barnes_integral("ex1", mp.mpf("0.06"), sigma="-1.3", **kw)
    mid = mellin_barnes_integral("ex1", mp.mpf("0.06"), **kw)
    assert (left.corrections, mid.corrections) == (5, 2)
    with mp.workdps(25):
        assert (left.value - mid.value).maxabs() <= left.error + mid.error


@pytest.mark.parametrize("ex", ["ex1", "ex4"])
def test_default_line_is_derived_from_the_poles(ex):
    # at the benchmark's (lambda, q) of seeds 0 and 2 the default line is
    # the least half-integer at least 1/2 and at least 1 right of every
    # Gamma row's first pole (lambda/3 on ex1, lambda on ex4): the right
    # poles d < sigma are transferred and no left pole is, and the value is
    # the one on the line sigma = 1/2
    points = {"ex1": (("0.7", "0.31", "0.06"),
                      ("0.793845", "0.363739", "0.051697")),
              "ex4": (("0.7", "0.31", "0.12"),
                      ("0.793845", "0.363739", "0.104244"))}[ex]
    for re_lam, im_lam, q in points:
        with mp.workdps(30):
            lam, q = mp.mpc(re_lam, im_lam), mp.mpf(q)
        kw = dict(lam=lam, digits=15, tol="1e-12")
        res = mellin_barnes_integral(ex, q, **kw)
        low = mellin_barnes_integral(ex, q, sigma="0.5", **kw)
        assert res.sigma == {"ex1": 1.5, "ex4": 2.5}[ex]
        with mp.workdps(25):
            kern = _kernel_at(ex, q, 15, lam)
            firsts = [mp.re(kern.fr.scalar(r.arg)) / -r.c
                      for r in kern.rows if r.c < 0]
            assert max(firsts) <= res.sigma - 1 < max(firsts) + 1
            assert res.corrections == int(res.sigma + 0.5)
            assert (res.value - low.value).maxabs() <= res.error + low.error


def test_kernel_rows_off_one_class_are_refused(monkeypatch):
    # along ex2-Y's y2 the rows carry p1 - 3 p2, p2 and -2 p1 + p2, no
    # multiples of one class; the dressing's own refusal comes first in
    # mellin_barnes_integral, so it is skipped here
    monkeypatch.setattr(_Kernel, "qpow",
                        lambda self, arg: NilExpansion.unit(self.fr.na))
    g_y = builtin("ex2-Y")
    lam = mp.mpc("0.7", "0.31")
    fr = Frame(NumericAlgebra(g_y.algebra, lam, 15), lam=lam, digits=15)
    with pytest.raises(ContinuationError, match="^ex2-Y: the contour kernel "
                       "along y2 needs every row class to be a multiple"):
        _Kernel(_KernelData(g_y, 1), fr, mp.mpf("0.02"))


def test_kernel_on_a_zero_of_a_reciprocal_gamma_row_is_refused():
    # at s = -1 ex1's 1/Gamma(1 + s + p) rows sit on the zero of 1/Gamma at
    # 0, where their factor P(x) vanishes
    with mp.workdps(25):
        kern = _kernel_at("ex1", "0.06", 15)
        with pytest.raises(ContinuationError, match="^ex1-Y: 1/Gamma of "
                           "contour row 1 is zero at s = -1.0"):
            kern.right_residue(-1)


def test_mb_ex2_runs_along_y2_into_the_known_defect():
    # the lattice map makes y2 ex2's contour variable; its dressing
    # exp(p2 log q / z) needs p2 nilpotent, which it is not at numeric
    # lambda (an open defect)
    with pytest.raises(ContinuationError,
                       match="exponential of a non-nilpotent element"):
        mellin_barnes_integral("ex2", "0.02", digits=15)


# ---------------------------------------------------------------------------
# continued series: the written-out residue sums of ex2 and ex3, which
# continued_ifunction used before it derived every pair from the gamma rows


def _arg(a0, alam=0, **div):
    return Arg(a0, alam, div)


def _sin_ratio(fr, arga, argb, n):
    """sin(pi*arga)/sin(pi*argb) where arga = n*argb + m, n and m
    integers: (-1)^m sin(pi n argb)/sin(pi argb)."""
    off = _affine(0, (1, arga), (-Fraction(n), argb))
    assert Fraction(n).denominator == 1 and not off.alam and not off.div
    assert off.a0.denominator == 1
    fr.off_resonance(argb)
    return fr._apply(_SineRatio([int(n)], 0).jet, argb).scale(
        (-1) ** int(off.a0 % 2))


def _terms_ex2(fr: Frame, bound: int) -> dict:
    out: dict = {}
    p1 = NilExpansion.basis(fr.na, "p1")
    logpows = [NilExpansion.unit(fr.na)]
    while len(logpows) <= 2:
        nxt = logpows[-1] * p1
        if nxt.is_zero:
            break
        logpows.append(nxt)
    for k in range(bound + 1):
        for n in range(bound + 1 - k):
            rg_res = fr.rgamma(_arg(1 - Fraction(5 * k + n, 3), 1,
                                    p1=Fraction(-5, 3)))
            if rg_res.is_zero:
                continue
            ratio = _sin_ratio(
                fr, _arg(0, 0, p1=1, p2=-3),
                _arg(Fraction(k - n, 3), 0, p1=Fraction(1, 3), p2=-1), 3)
            g2 = fr.gamma(_arg(1, 0, p2=1))
            rg2 = fr.rgamma(_arg(1 + Fraction(k - n, 3), 0, p1=Fraction(1, 3)))
            gp1 = fr.gamma(_arg(1, 0, p1=1))
            rgp1k = fr.rgamma(_arg(1 + k, 0, p1=1))
            gb = fr.gamma(_arg(1, 0, p1=1, p2=-3))
            gc = fr.gamma(_arg(1, 1, p1=-2, p2=1))
            base = ratio * g2 * g2 * rg2 * rg2 * gp1 * rgp1k * gb * gc * rg_res
            base = base.scale(Fraction((-1) ** (n + k), 3 * factorial(n)))
            for c, dress in enumerate(logpows):
                val = (base * dress).scale(Fraction(1, factorial(c)))
                if not val.is_zero:
                    key = ((k, n), (c, 0))
                    out[key] = out[key] + val if key in out else val
    return out


def _terms_ex3(fr: Frame, bound: int) -> dict:
    out: dict = {}
    for nh in range(bound + 1):
        for e in range(bound + 1 - nh):
            for abar in range(3):
                c1 = Fraction(abar - e, 3)
                f1 = c1 - (c1.numerator // c1.denominator)
                b1 = f1 if f1 > 0 else Fraction(1)
                cw = Fraction(5 * abar + e, 3)
                phi = cw - (cw.numerator // cw.denominator)
                mint = int(cw - phi)
                fw = (1 - phi) if phi > 0 else Fraction(0)
                bw = fw if fw > 0 else Fraction(1)
                sig = Fraction(e - abar, 3)
                sig = sig - (sig.numerator // sig.denominator)
                # reciprocal-gamma factors; their zeros (inherited from the
                # arguments hitting nonpositive integers at lambda = 0) kill
                # the term exactly, and they do so for both factors at once
                rga = fr.rgamma(_arg(1 - Fraction(2 * e + nh, 5),
                                     Fraction(1, 5)))
                rgb = fr.rgamma(_arg(1 - Fraction(e + 3 * nh, 5),
                                     Fraction(3, 5)))
                if not fr.lam:
                    assert rga.is_zero == rgb.is_zero
                if rga.is_zero or rgb.is_zero:
                    continue
                # resonance of the sine quotient happens only on untwisted
                # residue families (phi = 0 forces the target sector to 0)
                if phi == 0:
                    assert sig == 0
                ratio = _sin_ratio(
                    fr, _arg(phi, -1, p=5),
                    _arg(-(mint + phi + nh) / Fraction(5), Fraction(1, 5),
                         p=-1), -5)
                gp = fr.gamma(Arg(b1, 0, {"p": 1}))
                gw = fr.gamma(Arg(bw, 1, {"p": -5}))
                gq = fr.gamma(_arg(1, 0, p=3))
                val = ratio * gp * gp * gw * gq * rga * rga * rgb
                sector = (fr.na.unit if sig == 0
                          else fr.na.algebra.sectors.index(sig))
                val = val * NilExpansion.basis(fr.na, fr.na.labels[sector])
                scale = Fraction((-1) ** (mint % 2 + nh % 2),
                                 5 * factorial(e) * factorial(nh))
                # overall -1: orientation of the closed contour, anchored so
                # the unit monomial reproduces the unit column
                val = val.scale(-scale)
                key = ((nh, e), (0, 0))
                out[key] = out[key] + val if key in out else val
    return out


def _written_out(ex, mode, truncation, digits):
    """The written-out sum at continued_ifunction's sample (lambda, -1),
    lambda = 0 in nonequivariant mode: summed in the frame at (-lambda, 1),
    and component i then times (-1)^(1 - deg_i/2), the grading's sign."""
    builder = {"ex2": _terms_ex2, "ex3": _terms_ex3}[ex]
    alg = builtin(ex + "-Y").algebra
    with mp.workdps(digits + 10):
        lam = default_lambda() if mode == "equivariant-numeric" else 0
        fr = Frame(NumericAlgebra(alg, -lam, digits), lam=-lam, digits=digits)
        na = NumericAlgebra(alg, lam, digits)
        return {key: NilExpansion(na, {
                    (i, ze): x * (-1) ** (1 - alg.degrees[i] // 2)
                    for (i, ze), x in v.terms.items()})
                for key, v in builder(fr, truncation).items()}


@pytest.mark.parametrize("mode", ["equivariant-numeric", "nonequivariant"])
@pytest.mark.parametrize("ex", ["ex2", "ex3"])
def test_derived_series_matches_the_written_out_sums(ex, mode):
    # same keys except rounding noise, coefficients within 1e-25 relative
    # (measured: at most 8.2e-40 here, 3.8e-37 at the default truncation),
    # and the scalar exponents the X side records
    cs = continued_ifunction(ex, 4, mode=mode, digits=30)
    want = _written_out(ex, mode, 4, 30)
    with mp.workdps(40):
        for key in set(want) | set(cs.terms):
            if key not in want or key not in cs.terms:
                only = want.get(key) or cs.terms[key]
                assert only.maxabs() < mp.mpf("1e-30"), key
                continue
            got, exp = cs.terms[key].terms, want[key].terms
            for comp in set(got) | set(exp):
                ref = exp.get(comp, 0)
                assert (abs(got.get(comp, 0) - ref)
                        <= mp.mpf("1e-25") * max(1, abs(ref))), (key, comp)
    assert cs.scalar_exponents == tuple(
        v.scalar_exponent for v in builtin(ex + "-X").variables)


@pytest.mark.parametrize("mode, truncation", [
    ("nonequivariant", 4), ("nonequivariant", 7),
    ("equivariant-numeric", 4)])
def test_continued_series_keeps_no_rounding_noise(mode, truncation):
    # ex2's cancelling residues leave rounding noise where the exact value
    # is 0: no key may be all noise, and every other key keeps the value it
    # has at 15 more digits
    digits = 30
    cs = continued_ifunction("ex2", truncation, mode=mode, digits=digits)
    fine = continued_ifunction("ex2", truncation, mode=mode,
                               digits=digits + 15)
    with mp.workdps(digits + 20):
        floor = mp.mpf(10) ** -digits
        assert all(v.maxabs() >= floor for v in cs.terms.values())
        for key in set(cs.terms) | set(fine.terms):
            want = fine.terms.get(key, NilExpansion(fine.na))
            if key not in cs.terms:
                assert want.maxabs() < floor, key
                continue
            got = cs.terms[key]
            assert (got - NilExpansion(got.na, want.terms)).maxabs() <= \
                mp.mpf(10) ** (5 - digits), key


@pytest.mark.parametrize("ex, d", [
    ("ex1", [[Fraction(-1, 3)]]),
    ("ex2", [[1, 0], [Fraction(1, 3), Fraction(-1, 3)]]),
    ("ex3", [[Fraction(-3, 5), Fraction(-1, 5)], [0, 1]]),
    ("ex4", [[Fraction(-1, 2)]]),
])
def test_lattice_map_of_each_pair(ex, d):
    # the Y index of each X index, and the contour variable: the one Y
    # variable whose row has a negative entry (y2 for ex2, y1 for ex3)
    pair = _pair(ex)
    assert (pair.lattice, pair.var) == (d, 1 if ex == "ex2" else 0)


def test_lattice_map_is_built_once_per_pair(monkeypatch):
    monkeypatch.setattr(continuation, "_PAIRS", {})
    calls = []
    real = continuation._lattice_map

    def counted(g_y, g_x):
        calls.append((g_y.name, g_x.name))
        return real(g_y, g_x)

    monkeypatch.setattr(continuation, "_lattice_map", counted)
    for lam in (default_lambda(), mp.mpc("0.4", "0.2")):
        solve_umatrix("ex1", mode="equivariant-numeric", lam=lam, digits=30)
    solve_umatrix("ex1", digits=30)
    solve_umatrix("ex4", truncation=4, digits=30)
    mellin_barnes_integral("ex1", "0.06", digits=15, tol="1e-8")
    assert calls == [("ex1-Y", "ex1-X"), ("ex4-Y", "ex4-X")]


def test_x_side_without_a_lattice_map_is_refused():
    # no T takes ex1-Y's charges (1, 1, 1, -3) to (-2, -1, -1, 3)
    g = builtin("ex1-X")
    row = dataclasses.replace(g.rows[0], charge=(-2,))
    g = dataclasses.replace(g, rows=(row,) + g.rows[1:])
    with pytest.raises(ContinuationError,
                       match="^ex1: 0 lattice maps take the charges of "
                             "ex1-Y to those of ex1-X"):
        Pair(builtin("ex1-Y"), g)


@pytest.mark.parametrize("y, x", [("ex1-X", "ex1-Y"), ("ex1-Y", "ex4-X")],
                         ids=["swapped", "two-pairs"])
def test_pair_of_foreign_sides_is_refused(y, x):
    with pytest.raises(ContinuationError,
                       match=f"^{y} and {x} are not the Y and X side of one "
                             f"pair$"):
        Pair(builtin(y), builtin(x))


@pytest.mark.parametrize("y, x, arg", [
    ("ex1-Y", "ex1-X", "y"), (builtin("ex1-Y"), "ex1-X", "x"),
    (builtin("ex1-Y"), None, "x")], ids=["names", "x-name", "x-none"])
def test_pair_of_non_geometries_is_refused(y, x, arg):
    # a side is a Geometry, not its name: the refusal names the argument
    bad = y if arg == "y" else x
    with pytest.raises(ContinuationError,
                       match=re.escape(f"Pair: {arg} must be a Geometry, "
                                       f"not {bad!r}")):
        Pair(y, x)


def test_pair_keeps_two_numeric_samples_per_side():
    # a sweep over z reads the Y side at lambda and at -lambda/z: per side
    # and digits the Pair keeps the lambda = 0 algebra and the two latest
    # other samples, and a repeated call solves byte for byte as the first
    pair = Pair(builtin("ex1-Y"), builtin("ex1-X"))
    kw = dict(mode="equivariant-numeric", lam=mp.mpc("0.7", "0.31"),
              digits=30)
    first = solve_umatrix(pair, z=1, **kw).to_json()
    for z in (2, -1, 3):
        solve_umatrix(pair, z=z, **kw)
    assert sorted((side, len(kept)) for (side, _), kept
                  in pair._numeric.items()) == [("X", 1), ("Y", 2)]
    zero = pair.numeric(pair.y, mp.mpf(0), 30)
    assert solve_umatrix(pair, z=1, **kw).to_json() == first
    assert pair.numeric(pair.y, mp.mpf(0), 30) is zero


@pytest.mark.parametrize("ex", ["ex1", "ex2", "ex3", "ex4"])
def test_pair_from_saved_configs_solves_as_the_built_in(ex, tmp_path):
    # both sides written out and read back are new geometries with the same
    # data: the Pair made from them keeps its own caches and gives the
    # built-in pair's U, and ex1's MB value, byte for byte
    sides = []
    for side in ("Y", "X"):
        path = str(tmp_path / f"{ex}-{side}.json")
        save_config(builtin(f"{ex}-{side}"), path)
        sides.append(load_config(path))
    pair = Pair(*sides)
    assert pair is not _pair(ex) and pair.y is not builtin(ex + "-Y")
    lam = mp.mpc("0.7", "0.31")
    for kw in ({}, {"mode": "equivariant-numeric", "lam": lam}):
        assert (solve_umatrix(pair, digits=30, **kw).to_json()
                == solve_umatrix(ex, digits=30, **kw).to_json())
    assert pair.numeric(pair.y, lam, 30) is pair.numeric(pair.y, lam, 30)
    if ex == "ex1":
        kw = dict(lam=lam, digits=15, tol="1e-12")
        got = mellin_barnes_integral(pair, "0.06", **kw)
        want = mellin_barnes_integral(ex, "0.06", **kw)
        assert (got.value.terms, got.error) == (want.value.terms, want.error)


def test_unknown_example_lists_the_pairs():
    # the roman-numeral aliases are gone
    with pytest.raises(ContinuationError,
                       match="unknown example 'I'; choose from ex1, ex2, "
                             "ex3, ex4"):
        solve_umatrix("I")


# ---------------------------------------------------------------------------
# connection matrix U


def test_nonequivariant_u_ex4_closed_form():
    # U = [[1, 0, 0], [0, -1, 0], [-pi^2/3 z^-2, 0, 1]]; cells map a z
    # exponent to its coefficient, and the missing cells are zero
    u = solve_umatrix("ex4", digits=30)
    assert u.ylabels == ("1", "p", "p^2")
    with mp.workdps(30):
        tol = mp.mpf("1e-25")
        want = {(0, 0): {0: 1}, (1, 1): {0: -1},
                (2, 0): {-2: -mp.pi ** 2 / 3}, (2, 2): {0: 1}}
        for i in range(3):
            for j in range(3):
                cell = dict(u.entry(i, j))
                exp = want.get((i, j), {})
                assert sorted(cell) == sorted(exp), (i, j, cell)
                for k, v in exp.items():
                    assert abs(cell[k] - v) <= tol, (i, j, k, cell[k])
        assert u.residual <= tol


def test_nonequivariant_u_ex1_unit_to_top_class():
    u = solve_umatrix("ex1", digits=30)
    assert (u.xlabels[:2], u.ylabels[1:]) == (("1_0", "1_1/3"), ("p", "p^2"))
    with mp.workdps(30):
        ((k, c),) = u.entry(2, 0)
        assert k == -2
        assert abs(c + mp.pi ** 2 / 3) <= mp.mpf("1e-25")
        ((k, c),) = u.entry(1, 1)
        assert k == 0
        want = -2 * mp.pi / (mp.sqrt(3) * mp.gamma(mp.mpf(2) / 3) ** 3)
        assert abs(c - want) <= mp.mpf("1e-25")
        assert u.residual <= mp.mpf("1e-25")


def _unit_column(ex):
    """The image of the X-side unit: Y label -> {z exponent: value}."""
    third = mp.mpf(1) / 3
    if ex == "ex2":
        # the quantum corrections at z^-2
        return {"1": {0: 1}, "p1p2": {-2: mp.pi ** 2 / 9},
                "p2^2": {-2: -mp.pi ** 2 / 3}}
    # ex3, the partial resolution: the unit leaves the untwisted sector
    return {"1_0": {0: 1}, "p^2": {-2: -mp.pi ** 2},
            "1_1/3": {-1: mp.gamma(2 * third) ** 3 / 5},
            "1_2/3": {-2: -mp.gamma(third) ** 3 / 5}}


@pytest.mark.parametrize("ex", ["ex2", "ex3"])
def test_nonequivariant_unit_column_closed_form(ex):
    u = solve_umatrix(ex, digits=30)
    assert u.xlabels[0] == "1_0"
    with mp.workdps(30):
        want = _unit_column(ex)
        for i, label in enumerate(u.ylabels):
            cell = dict(u.entry(i, 0))
            exp = want.get(label, {})
            assert sorted(cell) == sorted(exp), (label, cell)
            for k, v in exp.items():
                assert abs(cell[k] - v) <= mp.mpf("1e-25"), (label, k)
        assert u.residual <= mp.mpf("1e-25")


def _gram_at(algebra, lam):
    n = algebra.dim
    g = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            g[i, j] = _to_mp(algebra.gram[i][j].evaluate(lam))
    return g


@pytest.mark.parametrize("ex, digits, truncation", [
    ("ex1", 30, None), ("ex3", 30, None), ("ex4", 30, None),
    pytest.param("ex2", 20, 5, marks=pytest.mark.xfail(
        strict=True, reason="ex2's equivariant U is not symplectic: the "
                            "defect is 1.7 in the X-side unit row and "
                            "column, here and at 40 digits, truncation 10. "
                            "The derived series reproduces the written-out "
                            "residue sums, and the defect and the solve's "
                            "residual stay the same with logs up to order "
                            "2, 3 or 4, while ex1, ex3 and ex4 read <= "
                            "3.2e-30: the defect is not in ex2's residue "
                            "families but in the Y side's pairing: "
                            "integrals[2] of geometry._alg_kf3, the "
                            "integral of p2, is typed as 2/lambda^2 and "
                            "should be 5/(3 lambda^2)")),
])
def test_umatrix_is_symplectic(ex, digits, truncation):
    # U(-z)^T G_Y U(z) = G_X for the Givental pairing at a generic lambda
    with mp.workdps(digits):
        lam = mp.mpc("0.7", "0.31")
    u = {z: solve_umatrix(ex, truncation, mode="equivariant-numeric",
                          lam=lam, z=z, digits=digits) for z in (1, -1)}
    with mp.workdps(digits):
        defect = (u[-1].scalar_matrix().T
                  * _gram_at(builtin(ex + "-Y").algebra, lam)
                  * u[1].scalar_matrix()
                  - _gram_at(builtin(ex + "-X").algebra, lam))
        worst = max(abs(defect[i, j]) for i in range(defect.rows)
                    for j in range(defect.cols))
    assert worst <= mp.mpf("1e-25")


@pytest.mark.parametrize("ex", ["ex1", "ex4"])
def test_equivariant_u_tends_to_the_nonequivariant_u(ex):
    # the gap shrinks linearly with lambda: 8.3e-8 here, 8.3e-4 at 1e-4
    with mp.workdps(30):
        lam = mp.mpc("0.7", "0.31") * mp.mpf("1e-8")
    ue = solve_umatrix(ex, mode="equivariant-numeric", lam=lam, z=1,
                       digits=30)
    u0 = solve_umatrix(ex, digits=30)
    with mp.workdps(30):
        gap = max(abs(ue.entry_value(i, j) - u0.entry_value(i, j, 1))
                  for i in range(len(ue.ylabels))
                  for j in range(len(ue.xlabels)))
    assert gap <= mp.mpf("1e-6")


@pytest.mark.parametrize("ex", ["ex1", "ex2", "ex3", "ex4"])
def test_graded_u_is_the_whole_u(ex):
    # the nonequivariant U is solved at z = 1 and its z-powers come from the
    # grading; the equivariant solve at lambda = 0 exactly and another z
    # sees the whole U at that z
    u0 = solve_umatrix(ex, digits=30)
    for zv in (1, 2, -0.7):
        ue = solve_umatrix(ex, mode="equivariant-numeric", lam=0, z=zv,
                           digits=30)
        with mp.workdps(40):
            gap = max(abs(ue.entry_value(i, j) - u0.entry_value(i, j, zv))
                      for i in range(len(ue.ylabels))
                      for j in range(len(ue.xlabels)))
        assert gap <= mp.mpf("1e-35"), zv
        assert ue.residual <= mp.mpf("1e-25"), zv


@pytest.mark.parametrize("ex", ["ex1", "ex2", "ex3", "ex4"])
def test_equivariant_u_is_homogeneous(ex):
    # deg lambda = deg z = 2, so U_ij(t lambda, t z) = t^k U_ij(lambda, z)
    # with k = (deg x_j - deg y_i)/2; t = 2 and -1 scale exactly
    with mp.workdps(40):
        lam = mp.mpc("0.7", "0.31")
        samples = {t: (t * lam, t * mp.mpf(1)) for t in (1, 2, -1, 3)}
    u = {t: solve_umatrix(ex, mode="equivariant-numeric", lam=lt, z=zt,
                          digits=30) for t, (lt, zt) in samples.items()}
    dx = builtin(ex + "-X").algebra.degrees
    dy = builtin(ex + "-Y").algebra.degrees
    with mp.workdps(40):
        for t in (2, -1, 3):
            gap = max(abs(u[t].entry_value(i, j) - mp.mpf(t) ** Fraction(
                          dx[j] - dy[i], 2) * u[1].entry_value(i, j))
                      for i in range(len(dy)) for j in range(len(dx)))
            assert gap <= (0 if t in (2, -1) else mp.mpf("1e-35")), t
            assert u[t].residual <= mp.mpf("1e-25"), t


def test_entry_off_the_grading_is_refused(monkeypatch):
    # with ex4-X's 1_1/2 made degree 3, U's entry 1 from it to p^2 (degree
    # 4) would carry z^(-1/2)
    solve_umatrix("ex4", digits=30)
    monkeypatch.setattr(builtin("ex4-X").algebra, "degrees", (0, 2, 3))
    with pytest.raises(ContinuationError,
                       match=r"^ex4: solve_umatrix: nonequivariant solve of 5 "
                             r"equations x 3 unknowns: the entry from 1_1/2 "
                             r"to p\^2 is 1\.0, off the grading "
                             r"\(z exponent -1/2\)$"):
        solve_umatrix("ex4", digits=30)


def test_scalar_prefactor_mismatch_is_refused():
    # ex1's continued series reads its scalar exponent off the kernel's
    # left poles, so an X side that records another one is caught
    g = builtin("ex1-X")
    (var,) = g.variables
    g = dataclasses.replace(g, variables=(dataclasses.replace(
        var, scalar_exponent=var.scalar_exponent + 1),))
    with pytest.raises(ContinuationError,
                       match="^ex1: solve_umatrix: scalar prefactors of the "
                             "two sides do not agree"):
        solve_umatrix(Pair(builtin("ex1-Y"), g), digits=30)


_ENTRY = st.one_of(
    st.none(), st.none(),
    st.tuples(st.sampled_from(["real", "complex", "complex0"]),
              st.floats(-4, 4, allow_nan=False),
              st.floats(-4, 4, allow_nan=False)))


def _value(spec):
    kind, re, im = spec
    # more bits than the solve's precision, so conj and every sum round
    with mp.workdps(45):
        re = mp.mpf(re) / 3
        if kind == "real":
            return re
        return mp.mpc(re, mp.mpf(im) / 7 if kind == "complex" else 0)


# (n, table, multiple): table[r][c] is the entry in row r of column c, None
# for zero; columns 0..n-1 are A, the last two are right-hand sides; a
# multiple (src, dst, re, im) makes column dst the Gaussian integer re + i im
# times column src
_SYSTEMS = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(n, n + 5).flatmap(lambda rows: st.lists(
        st.lists(_ENTRY, min_size=n + 2, max_size=n + 2),
        min_size=rows, max_size=rows)),
    st.one_of(st.none(), st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1),
        st.integers(-2, 2), st.integers(-2, 2)))))


def _column_blocks(cols):
    """The columns of A grouped into connected blocks: two columns are
    joined when both have a nonzero in some row."""
    rows = [{r for r, v in c.items() if v} for c in cols]
    left, blocks = set(range(len(cols))), []
    while left:
        block, todo = set(), [min(left)]
        while todo:
            j = todo.pop()
            if j not in block:
                block.add(j)
                todo += [k for k in left if rows[j] & rows[k]]
        left -= block
        blocks.append(sorted(block))
    return blocks


def _dense(cols, rows):
    a = mp.matrix(rows, len(cols))
    for j, col in enumerate(cols):
        for r, v in col.items():
            a[r, j] = v
    return a


def _exact(x):
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _exact_rank(cols, rows):
    """The rank over Q(i) of the matrix with these columns, from the exact
    binary values of its entries: a complex matrix M of rank k has the real
    matrix [[Re M, -Im M], [Im M, Re M]] of rank 2k."""
    n = len(cols)
    m = []
    for r in range(rows):
        entries = [c.get(r, mp.mpf(0)) for c in cols]
        m.append([_exact(v.real) for v in entries]
                 + [-_exact(v.imag) for v in entries])
        m.append([_exact(v.imag) for v in entries]
                 + [_exact(v.real) for v in entries])
    rank = 0
    for j in range(2 * n):
        pivot = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][j] / m[rank][j]
            m[i] = [u - f * w for u, w in zip(m[i], m[rank])]
        rank += 1
    return rank // 2


@settings(max_examples=60, deadline=None)
@given(_SYSTEMS)
def test_lstsq_equals_dense_normal_equations(system):
    # the normal equations are block-diagonal, and each block's solution is
    # a 60-digit mp.lu_solve of that block's dense normal equations; a block
    # whose columns are exactly dependent makes the whole solve
    # rank-deficient
    n, table, multiple = system
    rows = len(table)
    sparse = [{r: _value(table[r][c]) for r in range(rows)
               if table[r][c] is not None} for c in range(n + 2)]
    cols, bs = sparse[:n], sparse[n:]
    src, dst, re, im = multiple or (0, 0, 0, 0)
    if src != dst and (re, im) != (0, 0):
        # exact: the products of the inputs' 150-bit mantissas fit, at any
        # exponent a float in [-4, 4] gives
        with mp.workprec(2000):
            cols[dst] = {r: mp.mpc(re, im) * v for r, v in cols[src].items()}
    blocks = _column_blocks(cols)
    if any(_exact_rank([cols[j] for j in block], rows) < len(block)
           for block in blocks):
        with mp.workdps(30), pytest.raises(
                ContinuationError, match="rank-deficient normal equations"):
            _lstsq(cols, bs)
        return
    want = [[None] * n for _ in bs]
    with mp.workdps(60):
        for block in blocks:
            a = _dense([cols[j] for j in block], rows)
            gram = a.H * a
            # a regular block too ill-conditioned for 30 digits may be
            # refused or solved: it tests neither
            try:
                cond = mp.cond(gram)
            except ZeroDivisionError:  # singular at 60 digits
                cond = mp.inf
            assume(cond < 10 ** 12)
            for w, b in zip(want, bs):
                dense_b = mp.matrix([b.get(r, 0) for r in range(rows)])
                for j, v in zip(block, mp.lu_solve(gram, a.H * dense_b)):
                    w[j] = v
    with mp.workdps(30):
        xs, residuals = _lstsq(cols, bs)
        a = _dense(cols, rows)
        for x, res, w, b in zip(xs, residuals, want, bs):
            for block in blocks:
                got, ref = (mp.matrix([v[j] for j in block]) for v in (x, w))
                assert mp.norm(got - ref) <= mp.mpf("1e-20") * mp.norm(ref)
            dense_b = mp.matrix([b.get(r, 0) for r in range(rows)])
            dense = mp.norm(a * mp.matrix(x) - dense_b, mp.inf)
            assert abs(res - dense) <= mp.mpf("1e-25")


def test_lstsq_factors_each_block_once():
    # columns {0, 3}, {1} and {2, 4, 5} share no row: the exact solution of
    # the square system comes out of three blocks of sizes 2, 1 and 3
    with mp.workdps(30):
        one = mp.mpf(1)
        cols = [{0: one, 1: one}, {2: 2 * one}, {3: one, 4: one},
                {0: one, 1: -one}, {4: one, 5: one}, {3: one, 5: 3 * one}]
        want = [mp.mpf(k) for k in (1, -2, 3, 4, -5, 6)]
        b = {}
        for j, c in enumerate(cols):
            for r, v in c.items():
                b[r] = b.get(r, 0) + v * want[j]
        (x,), (res,) = _lstsq(cols, [b])
    assert max(abs(u - v) for u, v in zip(x, want)) <= mp.mpf(10) ** -28
    assert res <= mp.mpf(10) ** -28


def test_lstsq_rank_deficient_block_is_refused():
    # column 1 is 1.5 times column 0, so their Gram block is singular
    # although the block of column 2 is not.  Then three columns in two rows
    # with a small second pivot d_1 = G_11 a^2 / (1 + a^2): the last pivot,
    # 0 exactly, is computed with an error of up to eps * G_22 / a^2, which
    # a bound of 2^8 * eps * G_22 alone misses at a = 1/24 and 1/100
    with mp.workdps(30):
        one = mp.mpf(1)
        systems = [[{0: 2 * one, 1: 4 * one}, {0: 3 * one, 1: 6 * one},
                    {2: one}]]
        systems += [[{0: one, 1: one / k}, {0: one / 3}, {1: one / 3}]
                    for k in (24, 100)]
        for cols in systems:
            with pytest.raises(ContinuationError, match="rank-deficient"):
                _lstsq(cols, [{0: one, 2: one}])


def test_lstsq_zero_column_is_rank_deficient():
    with mp.workdps(30):
        cols = [{0: mp.mpf(1), 1: mp.mpf(2)}, {}]
        with pytest.raises(ContinuationError, match="rank-deficient"):
            _lstsq(cols, [{0: mp.mpf(1)}])


def test_lstsq_of_a_singular_gram_is_rank_deficient():
    # Grams [[1, 1], [1, 1]], [[0, 0], [0, 1]] and [[0]]: the pivot of the
    # dependent column is zero, exactly
    one, zero = mp.mpf(1), mp.mpf(0)
    for cols in ([{0: one, 1: one}, {0: one, 1: one}], [{0: zero}, {0: one}],
                 [{0: mp.mpc(0, 0)}]):
        with mp.workdps(30), pytest.raises(
                ContinuationError,
                match=r"^rank-deficient normal equations \(column \d lies "
                      r"in the span of the columns before it\)$"):
            _lstsq(cols, [{0: one}])


def test_xside_expansion_is_built_once_per_geometry_and_truncation(
        monkeypatch):
    monkeypatch.setattr(continuation, "_PAIRS", {})
    calls = []
    real = continuation.build_ifunction

    def counted(geom, truncation):
        calls.append((geom.name, truncation))
        return real(geom, truncation)

    monkeypatch.setattr(continuation, "build_ifunction", counted)
    for lam in (default_lambda(), mp.mpc("0.4", "0.2")):
        solve_umatrix("ex1", mode="equivariant-numeric", lam=lam, digits=30)
    solve_umatrix("ex1", digits=30)
    solve_umatrix("ex1", truncation=4, digits=30)
    assert sorted(calls) == [("ex1-X", 4), ("ex1-X", 5)]


@pytest.mark.parametrize("ex", ["ex1", "ex2", "ex3", "ex4"])
def test_cached_xside_expansion_equals_a_fresh_one(ex):
    g_x = builtin(ex + "-X")
    trunc = g_x.algebra.dim + 2
    fresh = expand_prefactor(build_ifunction(g_x, trunc),
                             log_order=continuation._LOG_ORDER)
    assert _pair(ex).xside(trunc) == fresh


def test_xside_terms_repeat_after_the_solve(monkeypatch):
    # the first call builds the expansion, the solve reads it from the
    # cache, and a second call sees it unchanged
    monkeypatch.setattr(continuation, "_PAIRS", {})

    def terms():
        xt, _, _ = xside_terms("ex4", 5, mode="nonequivariant", digits=30)
        return {k: v.terms for k, v in xt.items()}

    first = terms()
    solve_umatrix("ex4", digits=30)
    assert terms() == first


def _zero_x_side(monkeypatch, keep=lambda i: False):
    """X-side terms with every class i where keep(i) is false set to zero."""
    real = continuation.xside_terms

    def patched(*args, **kwargs):
        xt, na, scal = real(*args, **kwargs)
        out = {key: NilExpansion(na, {(i, ze): v for (i, ze), v
                                      in x.terms.items() if keep(i)})
               for key, x in xt.items()}
        return out, na, scal

    monkeypatch.setattr(continuation, "xside_terms", patched)


@pytest.mark.parametrize("mode, shape, why", [
    ("equivariant-numeric", "9 equations x 3 unknowns", "rank-deficient"),
    ("nonequivariant", "5 equations x 3 unknowns", "rank-deficient"),
])
def test_all_zero_x_side_error_names_example_mode_and_shape(
        monkeypatch, mode, shape, why):
    _zero_x_side(monkeypatch)
    with pytest.raises(ContinuationError) as info:
        solve_umatrix("ex4", mode=mode, digits=30)
    msg = str(info.value)
    assert msg.startswith("ex4: solve_umatrix: ")
    assert f"{mode} solve of {shape}" in msg
    assert why in msg


def test_missing_x_class_is_rank_deficient_nonequivariant(monkeypatch):
    # class p of ex4-X never appears, so its unknowns are unconstrained
    _zero_x_side(monkeypatch, keep=lambda i: i != 1)
    with pytest.raises(ContinuationError,
                       match=r"^ex4: solve_umatrix: nonequivariant solve of "
                             r"\d+ equations x 3 unknowns: rank-deficient"):
        solve_umatrix("ex4", digits=30)


def test_mb_budget_above_tol_raises(monkeypatch):
    # an error bound of 1 per component never fits: the first interval
    # climbs to the top level, 257 nodes at 15 digits, and is refused by
    # name with the sum over ex1's three components, before any other
    # interval runs
    calls = []

    def loose(sums):
        calls.append(2 ** len(sums))
        return mp.mpf(1)

    monkeypatch.setattr(continuation, "_nested_error", loose)
    with pytest.raises(ContinuationError,
                       match=r"^ex1: mellin_barnes_integral: the quadrature "
                             r"over t in \[-12\.0, -3\.0\] reached level 256 "
                             r"\(257 nodes\) with error 3\.0, above its share "
                             r"\S+ of the tolerance 1\.0e-12$"):
        mellin_barnes_integral("ex1", "0.06", digits=15, tol="1e-12")
    # levels 16 to 256, one bound per component each, all on one interval
    assert calls == [2 ** k for k in range(4, 9) for _ in range(3)]


def _bad(call, kwargs, match):
    return pytest.param(call, kwargs, match, id="{}-{}".format(
        call.__name__, "-".join(f"{k}={v!r}" for k, v in kwargs.items())))


@pytest.mark.parametrize("call, kwargs, match", [
    _bad(xside_terms, {"truncation": 2, "mode": "nonequivariant", "lam": 0.5},
         "xside_terms: nonequivariant mode fixes lambda = 0"),
    _bad(xside_terms, {"truncation": "3"},
         "xside_terms: truncation must be a nonnegative integer, not '3'"),
    _bad(xside_terms, {"truncation": 2, "mode": "exact"},
         "xside_terms: unknown mode 'exact'"),
    _bad(continued_ifunction, {"truncation": 2, "z": 0},
         "continued_ifunction: z must be nonzero"),
    _bad(continued_ifunction, {"truncation": 2.5},
         "continued_ifunction: truncation must be a nonnegative integer, "
         "not 2.5"),
    _bad(continued_ifunction, {"truncation": 2, "lam": "abc"},
         "continued_ifunction: lam must be a finite number, not 'abc'"),
    _bad(solve_umatrix, {"digits": "15"},
         "solve_umatrix: digits must be an integer >= 10, not '15'"),
    _bad(solve_umatrix, {"digits": 0},
         "solve_umatrix: digits must be an integer >= 10, not 0"),
    _bad(solve_umatrix, {"truncation": "3"},
         "solve_umatrix: truncation must be a nonnegative integer, not '3'"),
    _bad(solve_umatrix, {"truncation": -1},
         "solve_umatrix: truncation must be a nonnegative integer, not -1"),
    _bad(solve_umatrix, {"mode": "bogus"},
         "solve_umatrix: unknown mode 'bogus'"),
    _bad(solve_umatrix, {"lam": 0.5},
         "solve_umatrix: nonequivariant mode fixes lambda = 0"),
    _bad(mellin_barnes_integral, {"q": 0},
         "mellin_barnes_integral: q must be nonzero"),
    _bad(mellin_barnes_integral, {"q": None},
         "mellin_barnes_integral: q must be a finite number, not None"),
    _bad(mellin_barnes_integral, {"q": "0.06", "tol": "abc"},
         "mellin_barnes_integral: tol must be a finite real number, "
         "not 'abc'"),
    _bad(mellin_barnes_integral, {"q": "0.06", "lam": "abc"},
         "mellin_barnes_integral: lam must be a finite number, not 'abc'"),
])
def test_bad_parameters_raise_with_context(call, kwargs, match):
    # every numeric entry point checks its parameters alike, before any work
    with pytest.raises(ContinuationError, match="^ex1: " + re.escape(match)):
        call("ex1", **kwargs)
