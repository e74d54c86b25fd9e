"""Geometry configs: builtins, validation invariants, JSON round-trip."""

import gc
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
        # the partner is the other side of the same pair
        other = builtin(f"{g.pair}-{'Y' if g.side == 'X' else 'X'}")
        assert other.pair == g.pair and other.side != g.side


def test_unknown_builtin():
    with pytest.raises(GeometryError, match="unknown geometry"):
        builtin("ex9-X")


def test_pairs_cover_builtins():
    assert pairs() == {
        "ex1": ("ex1-X", "ex1-Y"),
        "ex2": ("ex2-X", "ex2-Y"),
        "ex3": ("ex3-X", "ex3-Y"),
        "ex4": ("ex4-X", "ex4-Y"),
    }
    for ex, (x, y) in pairs().items():
        assert (builtin(x).pair, builtin(x).side) == (ex, "X")
        assert (builtin(y).pair, builtin(y).side) == (ex, "Y")


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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6))
def test_enumerate_degrees_graded_lex_increasing(nvar, bound):
    vs = tuple(
        CurveVariable(f"t{i}") for i in range(nvar))
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
        algebra=g.algebra, variables=g.variables,
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
    rows[0] = GammaRow(tuple(vec), rows[0].charge)
    bad = _rebuild(g, rows=tuple(rows))
    with pytest.raises(GeometryError):
        bad.validate()


def test_charge_column_sum_check():
    g = builtin("ex1-X")
    rows = list(g.rows)
    rows[3] = replace(rows[3], charge=(2,))
    bad = _rebuild(g, rows=tuple(rows))
    with pytest.raises(GeometryError, match="Calabi-Yau"):
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
    # a variable carries no prefactor (a sector insertion) exactly when a
    # bare factorial row, zero class and charge denominator * e_i, exists
    for name in BUILTIN_NAMES:
        g = builtin(name)
        for i, v in enumerate(g.variables):
            bare = tuple(v.denominator if k == i else 0
                         for k in range(len(g.variables)))
            has = any(row.charge == bare and all(c.is_zero for c in row.klass)
                      for row in g.rows)
            assert (v.prefactor is None) == has, (name, v.symbol)


def test_weights_match_classes():
    # Geometry.weight reads the lambda-multiple off each row's unit part
    for name, weights in [
        ("ex4-Y", (0, 0, 0, 2, 1)),
        ("ex1-X", (Fraction(1, 3),) * 3 + (0,)),
        ("ex3-X", (Fraction(1, 5), Fraction(1, 5), Fraction(3, 5), 0, 0)),
    ]:
        g = builtin(name)
        assert tuple(g.weight(j) for j in range(len(g.rows))) == weights


@pytest.mark.parametrize("level, key", [
    ("variable", "kind"), ("variable", "factorial"), ("variable", "radius"),
    ("row", "weight"), ("config", "partner"), ("algebra", "involution"),
    ("algebra", "gram"),
])
def test_loader_refuses_a_derived_field(level, key):
    # these are derived from the other fields, so a config may not set them
    d = config_to_dict(builtin("ex1-X"))
    target = {"config": d, "algebra": d["algebra"],
              "variable": d["variables"][0], "row": d["rows"][0]}[level]
    target[key] = None
    with pytest.raises(GeometryError,
                       match=rf"unknown fields \['{key}'\]"):
        config_from_dict(d)


_DELETE = object()


def _malformed(path, value, match):
    """A copy of ex1-Y's config whose entry at path (keys and indices)
    becomes value, or is deleted for _DELETE, and the error it must raise."""
    what = "-del" if value is _DELETE else f"={value!r}"
    return pytest.param(path, value, match,
                        id=".".join(map(str, path)) + what)


@pytest.mark.parametrize("path, value, match", [
    _malformed(("variables", 0, "denominator"), None,
               "variable y: denominator must be an integer, not None"),
    _malformed(("variables", 0, "denominator"), "x",
               "variable y: denominator must be an integer, not 'x'"),
    _malformed(("variables",), 5, "config: variables must be a list"),
    _malformed(("variables", 0), "y",
               r"config: variables\[0\] must be an object"),
    _malformed(("variables", 0, "step"), 0.5,
               "variable y: step must be a rational"),
    _malformed(("variables", 0, "prefactor"), "p",
               "variable y: prefactor must be a list"),
    _malformed(("rows", 0, "charge"), ["x"],
               r"config: rows\[0\]: charge\[0\] must be an integer, "
               "not 'x'"),
    _malformed(("rows", 0, "klass", 1), 1,
               r"config: rows\[0\]: klass\[1\] must be a λ-rational"),
    _malformed(("rows",), {}, "config: rows must be a list"),
    _malformed(("algebra", "unit"), "a", "algebra: unit must be an integer"),
    _malformed(("algebra", "unit"), 7,
               "algebra: unit must index one of the 3 labels, not 7"),
    _malformed(("algebra", "integrals", 1), "x",
               r"algebra: integrals\[1\] must be a λ-rational"),
    _malformed(("algebra", "degrees", 2), _DELETE,
               "algebra: degrees must be a list of 3"),
    _malformed(("algebra", "sectors", 2), _DELETE,
               "algebra: sectors must be a list of 3"),
    _malformed(("algebra", "table", 1, 1), ["0"],
               r"algebra: table\[1\]\[1\] must be a list of 3"),
    _malformed(("algebra", "labels", 0), 1,
               r"algebra: labels\[0\] must be a string"),
    _malformed(("algebra",), [], "algebra must be an object"),
    _malformed(("pi_star",), [{"source": "p", "r": "1"}],
               r"config: pi_star\[0\]: missing fields \['image'\]"),
    _malformed(("sector_map", 0), None,
               r"config: sector_map\[0\] must be a rational"),
    _malformed(("name",), 3, "config: name must be a string"),
    _malformed(("metadata",), [], "config: metadata must be a map of strings"),
])
def test_malformed_config_names_the_field(path, value, match):
    d = config_to_dict(builtin("ex1-Y"))
    target = d
    for k in path[:-1]:
        target = target[k]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    with pytest.raises(GeometryError, match="^" + match):
        config_from_dict(d)
