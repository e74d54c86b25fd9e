"""Numeric continuation: input handling, special-function jets, the U solve
and the MB integral."""

import dataclasses

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

import crepant.continuation as continuation
from crepant import LambdaRat, build_ifunction, builtin
from crepant.algebra import Algebra
from crepant.continuation import (ContinuationError, Frame, NilExpansion,
                                  _GammaDerivs, _Kernel, _RGammaDerivs, _lstsq,
                                  _numeric_algebra, _polygamma_jet,
                                  _rataz_numeric, _to_mp,
                                  mellin_barnes_integral, solve_umatrix)


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
        geom = builtin("ex4-Y")
        na = _numeric_algebra(geom.algebra, lam, 15)
        fr = Frame(na, "numeric", lam=lam, z=mp.mpf(1), digits=15)
        kern = _Kernel(geom, fr, q)
        total = fr.zero()
        for d in range(60):
            term = kern.right_residue(d)
            total = total + term
            if term.maxabs() < mp.mpf("1e-23"):
                break
        else:
            pytest.fail("inside series did not converge")
        assert (total - res.value).maxabs() <= res.error


def _kernel_at(ex, q, digits):
    """ex's Y-side kernel at lambda 0.7+0.31i, z = 1 and the point q."""
    geom = builtin(ex + "-Y")
    lam = mp.mpc("0.7", "0.31")
    na = _numeric_algebra(geom.algebra, lam, digits)
    fr = Frame(na, "numeric", lam=lam, z=mp.mpf(1), digits=digits)
    return _Kernel(geom, fr, mp.mpf(q))


@pytest.mark.parametrize("ex, q", [("ex1", "0.06"), ("ex4", "0.12")])
def test_kernel_residues_are_the_inside_terms(ex, q):
    # the residue at s = d is z times the exact I-function coefficient of
    # index d, evaluated at lambda, with its dressing and q^d
    with mp.workdps(30):
        kern = _kernel_at(ex, q, 30)
        fr = kern.fr
        ifn = build_ifunction(builtin(ex + "-Y"), 2)
        for d in range(3):
            co = _rataz_numeric(ifn.coefficient((d,)), fr.na, fr.lam, fr.z)
            want = (co.scale(fr.z) * kern.pdress).scale(mp.mpf(q) ** d)
            got = kern.right_residue(d)
            assert (got - want).maxabs() <= mp.mpf("1e-26"), d


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
            res = fr.zero()
            for k in range(96):
                w = mp.mpf("0.04") * mp.expjpi(mp.mpf(k) / 48)
                res = res + kern(centre + w).scale(w / 96)
            got = kern.left_value(n)
            assert (res - got).maxabs() <= mp.mpf("1e-24"), n
            assert len(kern.left_residue(n)) == (2 if ex == "ex4"
                                                 and n % 2 == 0 else 1)


def test_mb_without_a_radius_is_refused():
    # ex3-Y has no variable with a radius, so no contour direction
    with pytest.raises(ContinuationError,
                       match="ex3-Y: no single-contour representation"):
        mellin_barnes_integral("ex3", "0.02")


def test_mb_ex2_runs_along_y2_into_the_known_defect():
    # y2 carries ex2-Y's radius; its dressing exp(p2 log q / z) needs p2
    # nilpotent, which it is not at numeric lambda (an open defect)
    with pytest.raises(ContinuationError,
                       match="exponential of a non-nilpotent element"):
        mellin_barnes_integral("ex2", "0.02", digits=15)


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
    assert (u.xlabels[0], u.ylabels[2]) == ("1_0", "p^2")
    with mp.workdps(30):
        ((k, c),) = u.entry(2, 0)
        assert k == -2
        assert abs(c + mp.pi ** 2 / 3) <= mp.mpf("1e-25")
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
                            "column, here and at 40 digits, truncation 10")),
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


def test_scalar_prefactor_mismatch_is_refused(monkeypatch):
    # ex1's continued series reads its scalar exponent off the kernel's
    # left poles, so an X side that records another one is caught
    real = continuation.builtin

    def patched(name):
        g = real(name)
        if name != "ex1-X":
            return g
        (var,) = g.variables
        return dataclasses.replace(g, variables=(dataclasses.replace(
            var, scalar_exponent=var.scalar_exponent + 1),))

    monkeypatch.setattr(continuation, "builtin", patched)
    with pytest.raises(ContinuationError,
                       match="scalar prefactors of the two sides do not "
                             "agree"):
        solve_umatrix("ex1", digits=30)


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


# (n, table): table[r][c] is the entry in row r of column c, None for zero;
# columns 0..n-1 are A, the last two are right-hand sides
_SYSTEMS = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(n, n + 5).flatmap(lambda rows: st.lists(
        st.lists(_ENTRY, min_size=n + 2, max_size=n + 2),
        min_size=rows, max_size=rows))))


@settings(max_examples=60, deadline=None)
@given(_SYSTEMS, st.sampled_from([2, mp.inf]))
def test_lstsq_equals_dense_normal_equations(system, p):
    n, table = system
    rows = len(table)
    sparse = [{r: _value(table[r][c]) for r in range(rows)
               if table[r][c] is not None} for c in range(n + 2)]
    cols, bs = sparse[:n], sparse[n:]
    with mp.workdps(30):
        a = mp.matrix(rows, n)
        for j, col in enumerate(cols):
            for r, v in col.items():
                a[r, j] = v
        dense_bs = [mp.matrix([b.get(r, 0) for r in range(rows)])
                    for b in bs]
        try:
            want = [mp.lu_solve(a.H * a, a.H * b) for b in dense_bs]
        except (ZeroDivisionError, TypeError):
            # a singular Gram matrix: mpmath raises TypeError when a whole
            # column has no pivot left
            with pytest.raises(ContinuationError, match="rank-deficient"):
                _lstsq(cols, bs, rows, p)
            return
        xs, residuals = _lstsq(cols, bs, rows, p)
        for x, res, w, b in zip(xs, residuals, want, dense_bs):
            assert x == list(w)
            assert [type(v) for v in x] == [type(v) for v in w]
            assert res == mp.norm(a * w - b, p)


def test_lstsq_zero_column_is_rank_deficient():
    with mp.workdps(30):
        cols = [{0: mp.mpf(1), 1: mp.mpf(2)}, {}]
        with pytest.raises(ContinuationError, match="rank-deficient"):
            _lstsq(cols, [{0: mp.mpf(1)}], 3)


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
    ("nonequivariant", "6 equations x 27 unknowns", "truncation too small"),
])
def test_all_zero_x_side_error_names_example_mode_and_shape(
        monkeypatch, mode, shape, why):
    _zero_x_side(monkeypatch)
    with pytest.raises(ContinuationError) as info:
        solve_umatrix("ex4", mode=mode, digits=30)
    msg = str(info.value)
    assert msg.startswith("ex4: ")
    assert f"{mode} solve of {shape}" in msg
    assert why in msg


def test_missing_x_class_is_rank_deficient_nonequivariant(monkeypatch):
    # class p of ex4-X never appears, so its nine Laurent unknowns are
    # unconstrained
    _zero_x_side(monkeypatch, keep=lambda i: i != 1)
    with pytest.raises(ContinuationError,
                       match=r"^ex4: nonequivariant solve of \d+ equations "
                             r"x 27 unknowns: rank-deficient"):
        solve_umatrix("ex4", digits=30)


def test_mb_budget_above_tol_raises(monkeypatch):
    # a quadrature that reports a large error: the budget, not only the
    # tail, is held to tol, and no real quadrature runs
    calls = []

    def loose_quad(f, nodes, **kwargs):
        calls.append(kwargs)
        return mp.mpf(0), mp.mpf(1)

    monkeypatch.setattr(mp.mp, "quad", loose_quad)
    with pytest.raises(ContinuationError,
                       match=r"error budget \S+ .*exceeds the tolerance "
                             r"1\.0e-12"):
        mellin_barnes_integral("ex1", "0.06", digits=15, tol="1e-12")
    assert calls and all(kw.get("error") for kw in calls)
