"""Differential-operator checks: exact residuals, transport, error paths."""

from fractions import Fraction

import pytest

from crepant.algebra import AlgebraZ
from crepant.geometry import (BUILTIN_NAMES, builtin, config_from_dict,
                              config_to_dict, load_config, save_config)
from crepant.ifunction import build_ifunction
from crepant.picardfuchs import (
    LinForm,
    PFError,
    PFOperator,
    PFTerm,
    apply_operator,
    pf_system,
    proportional,
    transform_chart,
    verify_pf,
)


def test_single_derivation_at_origin():
    # D on the base geometry hits the prefactor class: d=0 layer gives p
    geom = builtin("ex1-Y")
    alg = geom.algebra
    I = build_ifunction(geom, 1)
    op = PFOperator("D", 1, (PFTerm((0,), Fraction(1), (LinForm((Fraction(1),)),)),))
    values, skipped = apply_operator(op, I)
    assert not skipped
    assert values[(0,)].num == AlgebraZ(alg, {0: alg.from_label("p")})


def test_zero_operator_gives_zero():
    geom = builtin("ex1-Y")
    I = build_ifunction(geom, 2)
    op = PFOperator("0", 1, (PFTerm((0,), Fraction(0), ()),))
    values, _ = apply_operator(op, I)
    assert all(v.is_zero for v in values.values())


def test_scalar_prefactor_enters_derivation():
    # the quotient side carries x^(-λ/z); D at index 0 must give -λ
    geom = builtin("ex1-X")
    alg = geom.algebra
    I = build_ifunction(geom, 1)
    op = PFOperator("D", 1, (PFTerm((0,), Fraction(1), (LinForm((Fraction(1),)),)),))
    values, _ = apply_operator(op, I)
    from crepant.lambda_rat import LambdaRat
    assert values[(0,)].num == AlgebraZ(alg, {0: alg.one() * (-LambdaRat.gen())})


# The paper's displayed equations, typed in by hand: the oracle for the
# operators pf_system derives from the gamma rows.

def _lf(d, lam=0, zc=0) -> LinForm:
    if not isinstance(d, tuple):
        d = (d,)
    return LinForm(tuple(Fraction(x) for x in d), Fraction(lam), Fraction(zc))


def _op(label, *terms) -> PFOperator:
    """terms: (shift, constant, factors) triples."""
    terms = tuple(PFTerm(s if isinstance(s, tuple) else (s,), Fraction(c),
                         tuple(f)) for s, c, f in terms)
    return PFOperator(label, len(terms[0].shift), terms)


def _displayed_ex2x():
    D1 = lambda k: _lf((1, 0), zc=-k)
    D2 = lambda k: _lf((0, 1), zc=-k)
    E = _lf((Fraction(1, 3), Fraction(-1, 3)))          # (D1 - D2)/3
    V = lambda k: _lf((Fraction(-5, 3), Fraction(-1, 3)), lam=1, zc=-k)
    return (
        _op("D2(D2-z)(D2-2z) = x2^3((D1-D2)/3)^2(λ-(5/3)D1-(1/3)D2)",
            ((0, 0), 1, [D2(0), D2(1), D2(2)]), ((0, 3), -1, [E, E, V(0)])),
        _op("D1 D2 = x1x2(λ-(5/3)D1-(1/3)D2)(λ-(5/3)D1-(1/3)D2-z)",
            ((0, 0), 1, [D1(0), D2(0)]), ((1, 1), -1, [V(0), V(1)])),
        _op("D1(D1-z)(D1-2z)((D1-D2)/3)^2 = x1^3 Π_k(λ-(5/3)D1-(1/3)D2-kz)",
            ((0, 0), 1, [D1(0), D1(1), D1(2), E, E]),
            ((3, 0), -1, [V(0), V(1), V(2), V(3), V(4)])),
    )


def _displayed_ex2y():
    D1, D2, A = _lf((1, 0)), _lf((0, 1)), _lf((1, -3))  # A = D1 - 3D2
    W = lambda k: _lf((-2, 1), lam=1, zc=-k)      # λ + D2 - 2D1 - kz
    B = lambda k: _lf((1, -3), zc=-k)             # D1 - 3D2 - kz
    return (
        _op("D1(D1-3D2) = y1(λ+D2-2D1)(λ+D2-2D1-z)",
            ((0, 0), 1, [D1, A]), ((1, 0), -1, [W(0), W(1)])),
        _op("D2^2(λ+D2-2D1) = y2(D1-3D2)(D1-3D2-z)(D1-3D2-2z)",
            ((0, 0), 1, [D2, D2, W(0)]), ((0, 1), -1, [B(0), B(1), B(2)])),
    )


DISPLAYED = {
    "ex1-Y": (_op("D^3 = y(λ-3D)(λ-3D-z)(λ-3D-2z)",
                  (0, 1, [_lf(1)] * 3),
                  (1, -1, [_lf(-3, lam=1, zc=-k) for k in range(3)])),),
    "ex1-X": (_op("x^3 D^3 = -27(λ+D)(λ+D-z)(λ+D-2z)",
                  (3, 1, [_lf(1)] * 3),
                  (0, 27, [_lf(1, lam=1, zc=-k) for k in range(3)])),),
    "ex2-Y": _displayed_ex2y(),
    "ex2-X": _displayed_ex2x(),
    "ex3-Y": _displayed_ex2x(),         # the same system in y1, y2
    "ex4-Y": (_op("D^3 = y(λ-D)(2λ-2D)(2λ-2D-z)",
                  (0, 1, [_lf(1)] * 3),
                  (1, -1, [_lf(-1, lam=1), _lf(-2, lam=2),
                           _lf(-2, lam=2, zc=-1)])),),
    # x^1 shifts the half-step lattice by 2
    "ex4-X": (_op("x D^3 = -(λ+D)(2λ+2D)(2λ+2D-z)",
                  (2, 1, [_lf(1)] * 3),
                  (0, 1, [_lf(1, lam=1), _lf(2, lam=2),
                          _lf(2, lam=2, zc=-1)])),),
}


@pytest.mark.parametrize("name", sorted(DISPLAYED))
def test_displayed_equations_are_derived(name):
    derived = pf_system(name)
    assert len(derived) == len(DISPLAYED[name])
    for op in DISPLAYED[name]:
        assert any(proportional(op, d) for d in derived), op.label


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_recorded_systems_annihilate(name):
    rep = verify_pf(name, 8)
    assert rep.geometry == name
    assert rep.bound == 8
    assert all(count > 0 for _, count in rep.checked)


def test_residual_detects_corruption():
    ops = pf_system("ex1-Y")
    good = ops[0]
    bad = PFOperator(good.label, 1, (
        good.terms[0],
        PFTerm(good.terms[1].shift, good.terms[1].constant, (
            good.terms[1].factors[0],
            good.terms[1].factors[1],
            LinForm((Fraction(-3),), Fraction(1), Fraction(-5)),  # -5z, not -2z
        ))))
    I = build_ifunction(builtin("ex1-Y"), 3)
    values, _ = apply_operator(bad, I)
    assert any(not v.is_zero for v in values.values())


def test_verify_raises_on_corruption(monkeypatch):
    import crepant.picardfuchs as pf
    good = pf_system("ex1-Y")

    def bad_system(name):
        op = good[0]
        broken = PFOperator(op.label, 1, (
            op.terms[0],
            PFTerm(op.terms[1].shift, Fraction(-2), op.terms[1].factors)))
        return (broken,)

    monkeypatch.setattr(pf, "pf_system", bad_system)
    with pytest.raises(PFError, match="residual nonzero at index"):
        pf.verify_pf("ex1-Y", 3)


def test_ex3x_gets_four_box_operators():
    # no equation is displayed for the order-five quotient: its system
    # comes from the rows alone, one operator per minimal sector-0 shift
    ops = pf_system("ex3-X")
    assert [op.terms[1].shift for op in ops] == [(0, 5), (1, 2), (3, 1),
                                                 (5, 0)]
    assert all(op.terms[0].shift == (0, 0) for op in ops)
    rep = verify_pf("ex3-X", 8)
    assert [count for _, count in rep.checked] == [45] * 4


def test_config_loaded_geometry_is_checked(tmp_path):
    path = tmp_path / "ex3-X.json"
    save_config(builtin("ex3-X"), str(path))
    rep = verify_pf(load_config(str(path)), 8)
    assert [count for _, count in rep.checked] == [45] * 4


def test_sector_map_off_the_charges_is_reported():
    # sector 0 for every index, so s = 1 is a box shift, but the charge -1
    # over the denominator 3 does not move the rows by integers
    d = config_to_dict(builtin("ex1-X"))
    d["sector_map"] = ["0"]
    with pytest.raises(PFError, match="not by an integer"):
        pf_system(config_from_dict(d))


def test_insufficient_truncation_reported():
    # at bound 2 the cubic-shift term never engages
    with pytest.raises(PFError, match="insufficient truncation|never engages"):
        verify_pf("ex1-X", 2)


def test_chart_transport_ex1():
    op_y = pf_system("ex1-Y")[0]
    moved = transform_chart(op_y, [[Fraction(-1, 3)]], [[-3]])
    assert proportional(moved, pf_system("ex1-X")[0])
    # and back
    op_x = pf_system("ex1-X")[0]
    back = transform_chart(op_x, [[Fraction(-3)]], [[Fraction(-1, 3)]])
    assert proportional(back, op_y)


def test_chart_transport_rejects_off_lattice():
    op_x = pf_system("ex1-X")[0]
    with pytest.raises(PFError, match="off the\\s+integer lattice"):
        transform_chart(op_x, [[Fraction(-3)]], [[Fraction(-1, 2)]])


def test_proportional_distinguishes():
    assert not proportional(pf_system("ex1-Y")[0], pf_system("ex4-Y")[0])
    op = pf_system("ex1-Y")[0]
    doubled = PFOperator(op.label, 1, tuple(
        PFTerm(t.shift, t.constant * 2, t.factors) for t in op.terms))
    assert proportional(op, doubled)


def test_operator_validation():
    with pytest.raises(PFError, match="negative shift"):
        PFOperator("bad", 1, (PFTerm((-1,), Fraction(1), ()),))
    with pytest.raises(PFError, match="arity"):
        PFOperator("bad", 2, (PFTerm((0,), Fraction(1), ()),))


def test_partial_resolution_shares_system():
    a = pf_system("ex2-X")
    b = pf_system("ex3-Y")
    assert len(a) == len(b) == 3
    for opa, opb in zip(a, b):
        assert proportional(opa, opb)
