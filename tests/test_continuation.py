"""Numeric continuation: input handling, special-function jets, MB integral."""

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

import crepant.continuation as continuation
from crepant import LambdaRat, builtin
from crepant.algebra import Algebra
from crepant.continuation import (ContinuationError, Frame, _GammaDerivs,
                                  _RGammaDerivs, _mb_inside_term,
                                  _numeric_algebra, _polygamma_jet, _to_mp,
                                  mellin_barnes_integral)


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
        got = _polygamma_jet(x, 5)
        eps = mp.mpf(mp.eps)  # the constant, fixed at this precision
    assert len(got) == 5
    with mp.workdps(digits + 20):
        for m, v in enumerate(got):
            want = mp.psi(m, x)
            assert abs(v - want) <= 100 * eps * abs(want), (m, x)


def test_polygamma_jet_real_and_empty():
    with mp.workdps(30):
        x = mp.mpf("-2.3")
        got = _polygamma_jet(x, 3)
        assert all(isinstance(v, mp.mpf) for v in got)
        for m, v in enumerate(got):
            assert abs(v - mp.psi(m, x)) <= 100 * mp.eps * abs(v)
        assert _polygamma_jet(x, 0) == []


def test_order_zero_jets_call_no_polygamma(monkeypatch):
    orders = []
    real_jet = _polygamma_jet

    def counting_jet(x, n):
        orders.append(n)
        return real_jet(x, n)

    def no_psi(*args):
        raise AssertionError("mp.psi called")

    monkeypatch.setattr(continuation, "_polygamma_jet", counting_jet)
    monkeypatch.setattr(mp.mp, "psi", no_psi)
    with mp.workdps(30):
        tol = mp.mpf(10) ** -24
        x = mp.mpc("0.3", "1.7")
        assert _GammaDerivs(tol).jet(x, 0) == [mp.gamma(x)]
        assert _RGammaDerivs(tol).jet(x, 0) == [mp.rgamma(x)]
        # the reflection branch at a pole of Gamma
        pole = mp.mpf(-2) + mp.mpf(10) ** -28
        (val,) = _RGammaDerivs(tol).jet(pole, 0)
        assert abs(val - mp.rgamma(pole)) <= mp.mpf(10) ** -50
    assert not any(orders)


def _two_class_algebra(square: int) -> Algebra:
    """Unit 1 and one class p with p*p = square * 1, named alike."""
    one, zero, c = LambdaRat(1), LambdaRat(0), LambdaRat(square)
    table = (((one, zero), (zero, one)), ((zero, one), (c, zero)))
    return Algebra("config", ("1", "p"), (0, 2), (0, 0), 0, table,
                   ((one, zero), (zero, one)))


def test_numeric_algebra_cache_tells_same_named_algebras_apart():
    a, b = _two_class_algebra(2), _two_class_algebra(3)
    na_a = _numeric_algebra(a, None, 20)
    na_b = _numeric_algebra(b, None, 20)
    assert na_a.table[(1, 1)] == ((0, 2),)
    assert na_b.table[(1, 1)] == ((0, 3),)
    assert _numeric_algebra(a, None, 20) is na_a


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
        na = _numeric_algebra(builtin("ex4-Y").algebra, lam, 15)
        fr = Frame(na, "numeric", lam=lam, z=mp.mpf(1), digits=15)
        total = fr.zero()
        for d in range(60):
            term = _mb_inside_term("ex4", fr, d, q)
            total = total + term
            if term.maxabs() < mp.mpf("1e-23"):
                break
        else:
            pytest.fail("inside series did not converge")
        assert (total - res.value).maxabs() <= res.error
