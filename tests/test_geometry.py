"""Geometry configs: builtins, validation invariants, JSON round-trip."""

import gc
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crepant.geometry import (
    BUILTIN_NAMES,
    CurveVariable,
    DegreeLattice,
    GammaRow,
    Geometry,
    GeometryError,
    builtin,
    config_from_dict,
    config_to_dict,
    enumerate_degrees,
    load_config,
    pairs,
    save_config,
)
from crepant.lambda_rat import parse_lambda_rat


def test_all_builtins_validate():
    for name in BUILTIN_NAMES:
        g = builtin(name)
        g.validate()
        assert g.name == name
        assert builtin(g.partner).partner == name


def test_unknown_builtin():
    with pytest.raises(GeometryError, match="unknown geometry"):
        builtin("ex9-X")


def test_pairs_cover_builtins():
    flat = [n for xy in pairs().values() for n in xy]
    assert sorted(flat) == sorted(BUILTIN_NAMES)


def test_enumerate_degrees_one_variable():
    lat = builtin("ex1-Y").lattice(3)
    assert enumerate_degrees(lat) == [(0,), (1,), (2,), (3,)]


def test_enumerate_degrees_two_variables_frozen():
    lat = builtin("ex2-Y").lattice(2)
    assert enumerate_degrees(lat) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_enumerate_degrees_fractional_indices():
    g = builtin("ex2-X")
    got = enumerate_degrees(g.lattice(4))
    assert (1, 0) in got
    assert g.degree_of((1, 0)) == (Fraction(1, 3), Fraction(0))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6))
def test_enumerate_degrees_graded_lex_increasing(nvar, bound):
    vs = tuple(
        CurveVariable(f"t{i}", "sector-insertion", factorial=True)
        for i in range(nvar))
    out = enumerate_degrees(DegreeLattice(vs, bound))
    keyed = [(sum(v), v) for v in out]
    assert keyed == sorted(keyed)
    assert len(set(out)) == len(out)
    assert all(sum(v) <= bound for v in out)


def test_enumerate_degrees_leaves_no_garbage():
    lat = builtin("ex3-X").lattice(6)
    gc.collect()
    enumerate_degrees(lat)
    assert gc.collect() == 0


def test_shifted_index_and_sector():
    g = builtin("ex2-X")
    # rows: p, p, λ-5p, 3p, factorial; indices n = (3d, 3e)
    assert g.shifted_index(0, (3, 3)) == 0          # d - e
    assert g.shifted_index(2, (3, 0)) == -5         # -5d - e
    assert g.shifted_index(3, (3, 0)) == 3          # 3d
    assert g.shifted_index(4, (0, 6)) == 6          # 3e
    assert g.sector_of((1, 0)) == Fraction(2, 3)    # frac(e - d)
    assert g.sector_of((1, 1)) == Fraction(0)
    assert g.algebra.labels[g.sector_label_index((0, 1))] == "1_1/3"


def test_pi_star_record():
    assert builtin("ex2-X").pi_star == (("p", "p1", Fraction(1, 3)),)
    assert builtin("ex4-X").pi_star == ()


def test_radius_hints():
    assert builtin("ex1-Y").variables[0].radius == Fraction(1, 27)
    assert builtin("ex1-X").variables[0].radius == Fraction(3)
    assert builtin("ex4-Y").variables[0].radius == Fraction(1, 4)
    assert builtin("ex4-X").variables[0].radius == Fraction(4)
    # ex2-Y continues along y2 only
    assert [v.radius for v in builtin("ex2-Y").variables] == [
        None, Fraction(1, 27)]


def test_scalar_exponents():
    assert builtin("ex1-X").variables[0].scalar_exponent == 1
    assert builtin("ex4-X").variables[0].scalar_exponent == 1
    assert builtin("ex3-X").variables[0].scalar_exponent == 1
    assert builtin("ex3-X").variables[1].scalar_exponent == 0
    assert builtin("ex2-X").variables[0].scalar_exponent == 0


def test_roundtrip_dict_all_builtins():
    for name in BUILTIN_NAMES:
        g = builtin(name)
        assert config_from_dict(config_to_dict(g)) == g


def test_roundtrip_file(tmp_path):
    g = builtin("ex1-Y")
    path = tmp_path / "ex1-Y.json"
    save_config(g, str(path))
    assert load_config(str(path)) == g


def test_loader_rejects_unknown_field(tmp_path):
    d = config_to_dict(builtin("ex1-Y"))
    d["flavor"] = "extra"
    with pytest.raises(GeometryError, match="unknown fields.*flavor"):
        config_from_dict(d)


def test_loader_rejects_missing_field():
    d = config_to_dict(builtin("ex1-Y"))
    del d["rows"]
    with pytest.raises(GeometryError, match="missing fields.*rows"):
        config_from_dict(d)


def test_loader_reports_parse_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",,}')
    with pytest.raises(GeometryError, match="line 1 column"):
        load_config(str(path))


def _rebuild(g, **kwargs):
    base = dict(
        name=g.name, description=g.description, pair=g.pair, side=g.side,
        partner=g.partner, algebra=g.algebra, variables=g.variables,
        rows=g.rows, sector_map=g.sector_map, pi_star=g.pi_star,
        metadata=g.metadata)
    base.update(kwargs)
    return Geometry(**base)


def test_charge_perturbation_fails_cross_check():
    g = builtin("ex1-Y")
    rows = list(g.rows)
    rows[3] = replace(rows[3], charge=(-2,))
    bad = _rebuild(g, rows=tuple(rows))
    with pytest.raises(GeometryError, match="cross-check"):
        bad.validate()


def test_class_perturbation_fails_class_sum():
    g = builtin("ex1-Y")
    rows = list(g.rows)
    vec = list(rows[0].klass)
    vec[g.algebra.labels.index("p")] = parse_lambda_rat("2")
    rows[0] = GammaRow(tuple(vec), rows[0].charge, rows[0].weight)
    bad = _rebuild(g, rows=tuple(rows))
    with pytest.raises(GeometryError):
        bad.validate()


def test_charge_column_sum_check():
    g = builtin("ex1-X")
    rows = list(g.rows)
    rows[3] = replace(rows[3], charge=(2,))
    bad = _rebuild(g, rows=tuple(rows))
    with pytest.raises(GeometryError, match="Calabi-Yau|factorial"):
        bad.validate()


def test_sector_map_must_land_in_algebra_sectors():
    g = builtin("ex1-X")
    bad = _rebuild(g, sector_map=(Fraction(1, 2),))
    with pytest.raises(GeometryError, match="sector"):
        bad.validate()


def test_nonassociative_table_rejected():
    g = builtin("ex1-X")
    d = config_to_dict(g)
    # break 1_1/3 · 1_2/3 while leaving everything else alone
    d["algebra"]["table"][1][2] = ["0/1", "0/1", "0/1"]
    d["algebra"]["table"][2][1] = ["0/1", "0/1", "0/1"]
    with pytest.raises(GeometryError_or_algebra_error(), match="associativ|Frobenius"):
        config_from_dict(d)


def GeometryError_or_algebra_error():
    from crepant.algebra import AlgebraError
    return (GeometryError, AlgebraError)


def test_divisor_variables_carry_prefactors():
    for name in BUILTIN_NAMES:
        for v in builtin(name).variables:
            if v.kind == "divisor":
                assert v.prefactor is not None
            else:
                assert v.prefactor is None and v.factorial


def test_weights_match_classes():
    # weight recorded on each row equals the λ-multiple of its unit part
    for name in BUILTIN_NAMES:
        g = builtin(name)
        for j, row in enumerate(g.rows):
            unit_coeff = row.klass[g.algebra.unit]
            mono = unit_coeff.as_monomial()
            if row.weight == 0:
                assert unit_coeff.is_zero
            else:
                assert mono == (row.weight, 1)
