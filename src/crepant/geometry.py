"""Computational presentations of local Calabi-Yau targets.

A geometry bundles everything the series machinery needs to know about one
side of a birational pair: the equivariant cohomology algebra, the curve
variables the generating series is expanded in, and one gamma row per toric
coordinate (its integer charge vector and torus weight).  Whatever these fix
is derived rather than stored: a row's class is its weight times lambda plus
its charges over the divisor prefactor classes (Geometry.row_classes), a
variable is a divisor variable exactly when it carries a prefactor class,
and a side's partner is the other side of its pair.

Charge conventions.  Variable i stores integer indices n_i; the actual curve
degree is d_i = n_i / m_i where m_i is the variable's denominator.  Charge
entries are integers in degree units, so the shifted index fed to the gamma
ratio of row j at index vector n is sum_i charge[j][i] * n_i / m_i.  The
exponent of variable i in the series is step_i * n_i (+ P_i/z for divisor
variables), and the sector label of the term is frac(sum_i sector_map[i]*n_i).

Config file schema (JSON, strict: unknown or missing fields are errors, and
a malformed field raises GeometryError naming it):

    {
      "name": str, "description": str,
      "pair": str, "side": "X" | "Y",
      "algebra": {
        "name": str, "labels": [str], "degrees": [int], "sectors": [frac],
        "unit": int,
        "table": [[[rat]]],          # table[i][j][k], see algebra.Algebra
        "integrals": [rat]           # integrals[k] = ∫ of class k; the
                                     # pairing is the integral of the product
      },
      "variables": [{
        "symbol": str, "denominator": int, "step": frac,
        "prefactor": [rat] | null,   # coefficient vector; null on a
                                     # sector-insertion variable
        "scalar_exponent": frac      # a in the overall x^(-a*lambda/z)
      }],
      "rows": [{"weight": frac,      # w in the row's class w*lambda + ...
                "charge": [int]}],
      "sector_map": [frac],
      "metadata": {str: str}
    }

where rat is a string like "(-3)/1" or "9/λ^3" (see lambda_rat) and frac is
a rational string like "1/3" or "2".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .lambda_rat import (
    LambdaRat,
    RAT_ONE,
    RAT_ZERO,
    format_lambda_rat,
    parse_lambda_rat,
)
from .algebra import Algebra, Element


class GeometryError(ValueError):
    """Raised when a geometry config violates one of its invariants."""


BUILTIN_NAMES = (
    "ex1-X", "ex1-Y",
    "ex2-X", "ex2-Y",
    "ex3-X", "ex3-Y",
    "ex4-X", "ex4-Y",
)


@dataclass(frozen=True)
class CurveVariable:
    """One expansion variable of a generating series.

    Divisor variables carry a prefactor class P and enter as
    x^(step*n + P/z), P a degree-2 class; sector-insertion variables carry
    none and enter as x^(step*n), normalized by a bare factorial row.
    scalar_exponent a records an overall x^(-a*lambda/z) attached to this
    variable.
    """

    symbol: str
    denominator: int = 1
    step: Fraction = Fraction(1)
    prefactor: Optional[tuple[LambdaRat, ...]] = None
    scalar_exponent: Fraction = Fraction(0)


@dataclass(frozen=True)
class GammaRow:
    """One toric coordinate: its charge vector and torus weight.

    charge has one integer per variable, in degree units; the torus acts on
    the coordinate with weight*lambda.  The coordinate's class is derived
    from the two, see Geometry.row_classes.
    """

    charge: tuple[int, ...]
    weight: Fraction = Fraction(0)


@dataclass(frozen=True)
class DegreeLattice:
    variables: tuple[CurveVariable, ...]
    bound: int


def enumerate_degrees(lat: DegreeLattice) -> list[tuple[int, ...]]:
    """All integer index vectors of total <= bound, graded-lex order."""
    if lat.bound < 0:
        raise GeometryError("truncation bound must be nonnegative")
    out: list[tuple[int, ...]] = [()]
    for _ in lat.variables:
        out = [v + (n,) for v in out for n in range(lat.bound - sum(v) + 1)]
    out.sort(key=lambda v: (sum(v), v))
    return out


@dataclass(frozen=True)
class Geometry:
    """A validated target-space presentation."""

    name: str
    description: str
    pair: str
    side: str
    algebra: Algebra
    variables: tuple[CurveVariable, ...]
    rows: tuple[GammaRow, ...]
    sector_map: tuple[Fraction, ...]
    metadata: dict = field(default_factory=dict)

    # -- index bookkeeping ------------------------------------------------

    def curve_degree(self, index: tuple[int, ...]) -> Fraction:
        """Total curve-class degree; sector insertions carry none."""
        return sum(
            (Fraction(n, v.denominator)
             for n, v in zip(index, self.variables)
             if v.prefactor is not None),
            Fraction(0),
        )

    def rate(self, row: int) -> tuple[Fraction, ...]:
        r = self.rows[row]
        return tuple(
            Fraction(c, v.denominator) for c, v in zip(r.charge, self.variables)
        )

    def shifted_index(self, row: int, index: tuple[int, ...]) -> Fraction:
        return sum(
            (Fraction(c * n, v.denominator)
             for c, n, v in zip(self.rows[row].charge, index, self.variables)),
            Fraction(0),
        )

    def sector_of(self, index: tuple[int, ...]) -> Fraction:
        total = sum(
            (s * n for s, n in zip(self.sector_map, index)), Fraction(0)
        )
        return total - (total.numerator // total.denominator)

    def sector_label_index(self, index: tuple[int, ...]) -> int:
        f = self.sector_of(index)
        if f == 0:
            return self.algebra.unit
        hits = [i for i, s in enumerate(self.algebra.sectors) if s == f]
        if len(hits) != 1:
            raise GeometryError(
                f"{self.name}: no unique class for sector {f}"
            )
        return hits[0]

    def lattice(self, bound: int) -> DegreeLattice:
        return DegreeLattice(self.variables, bound)

    def prefactor_element(self, var: int) -> Optional[Element]:
        v = self.variables[var]
        if v.prefactor is None:
            return None
        return Element(self.algebra, v.prefactor)

    @cached_property
    def row_classes(self) -> tuple[tuple[LambdaRat, ...], ...]:
        """The class of each gamma row, as a coefficient vector:

            kappa_j = w_j lambda 1 + sum_i charge[j][i] / (m_i step_i) P_i,

        the sum over the divisor variables i, P_i their prefactor classes:
        the toric divisor class of the mirror theorem (Coates-Corti-Iritani-
        Tseng; Borisov-Chen-Smith).  So each class is a lambda-multiple of
        the unit plus constant degree-2 classes, and its degree-2 part
        agrees with the row's charges, by construction.  Their sum needs no
        check either: the Calabi-Yau condition in validate makes every
        charge column sum to 0, so sum_j kappa_j = (sum_j w_j) lambda 1.
        """
        alg = self.algebra
        out = []
        for row in self.rows:
            vec = [RAT_ZERO] * alg.dim
            vec[alg.unit] = LambdaRat.gen(1, row.weight)
            for c, v in zip(row.charge, self.variables):
                if v.prefactor is None:
                    continue
                r = Fraction(c, v.denominator) / v.step
                vec = [a + p * r for a, p in zip(vec, v.prefactor)]
            out.append(tuple(vec))
        return tuple(out)

    def row_element(self, row: int) -> Element:
        return Element(self.algebra, self.row_classes[row])

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        self.algebra.validate()
        alg = self.algebra
        dim = alg.dim
        nvar = len(self.variables)
        if self.side not in ("X", "Y"):
            raise GeometryError(f"{self.name}: side must be X or Y")
        if nvar == 0:
            raise GeometryError(f"{self.name}: needs at least one variable")
        if len(self.sector_map) != nvar:
            raise GeometryError(f"{self.name}: sector map length != variables")
        if alg.sectors[alg.unit] != 0:
            raise GeometryError(f"{self.name}: unit class must sit in sector 0")

        deg2 = [i for i, d in enumerate(alg.degrees) if d == 2]
        for v in self.variables:
            if v.denominator < 1:
                raise GeometryError(f"{self.name}: denominator must be >= 1")
            if v.step <= 0:
                raise GeometryError(f"{self.name}: step must be positive")
            if v.prefactor is None:
                continue
            if len(v.prefactor) != dim:
                raise GeometryError(
                    f"{self.name}: prefactor length mismatch on {v.symbol}"
                )
            for i, c in enumerate(v.prefactor):
                if c != RAT_ZERO and (i not in deg2 or c.as_monomial() is None
                                      or c.as_monomial()[1] != 0):
                    raise GeometryError(
                        f"{self.name}: prefactor of {v.symbol} must be a "
                        "constant combination of degree-2 classes"
                    )

        for j, row in enumerate(self.rows):
            if len(row.charge) != nvar:
                raise GeometryError(f"{self.name}: row {j} charge length mismatch")
            if not isinstance(row.weight, (int, Fraction)):
                raise GeometryError(
                    f"{self.name}: row {j} weight must be rational, "
                    f"not {row.weight!r}")

        # crepant/Calabi-Yau condition: each charge column sums to zero
        for i in range(nvar):
            s = sum(row.charge[i] for row in self.rows)
            if s != 0:
                raise GeometryError(
                    f"{self.name}: charge column {i} sums to {s}, not 0 "
                    "(Calabi-Yau condition)"
                )

        # sector map lands in the algebra's sector set (a subgroup of Q/Z)
        for i in range(nvar):
            e = tuple(1 if k == i else 0 for k in range(nvar))
            f = self.sector_of(e)
            if f not in alg.sectors:
                raise GeometryError(
                    f"{self.name}: sector shift {f} of variable "
                    f"{self.variables[i].symbol} is not an algebra sector"
                )


# ---------------------------------------------------------------------------
# serialization


def _expect_keys(d, keys: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise GeometryError(f"{where} must be an object")
    got = set(d)
    missing = keys - got
    unknown = got - keys
    if missing:
        raise GeometryError(f"{where}: missing fields {sorted(missing)}")
    if unknown:
        raise GeometryError(f"{where}: unknown fields {sorted(unknown)}")


def _reader(ok, parse, what: str):
    """read(x, where): parse(x) for a JSON leaf x that ok accepts, else
    GeometryError naming the field where."""
    def read(x, where: str):
        try:
            if ok(x):
                return parse(x)
        except (ValueError, ZeroDivisionError):
            pass
        raise GeometryError(f"{where} must be {what}, not {x!r}")
    return read


_str = _reader(lambda x: isinstance(x, str), str, "a string")
_int = _reader(lambda x: type(x) is int, int, "an integer")
_fr = _reader(lambda x: type(x) in (str, int), Fraction,
              'a rational like "1/3"')
_rat = _reader(lambda x: isinstance(x, str), parse_lambda_rat,
               'a λ-rational like "9/λ^3"')
_metadata = _reader(lambda x: isinstance(x, dict) and all(
    isinstance(v, str) for kv in x.items() for v in kv), dict,
    "a map of strings to strings")


def _array(x, where: str, shape: tuple, read) -> tuple:
    """x as nested tuples of the given shape (None: any length), each leaf
    read by read(leaf, its path)."""
    if not shape:
        return read(x, where)
    n = shape[0]
    if not isinstance(x, list) or n not in (None, len(x)):
        raise GeometryError(
            f"{where} must be a list" + ("" if n is None else f" of {n}"))
    return tuple(_array(v, f"{where}[{i}]", shape[1:], read)
                 for i, v in enumerate(x))


def _algebra_to_dict(alg: Algebra) -> dict:
    return {
        "name": alg.name,
        "labels": list(alg.labels),
        "degrees": list(alg.degrees),
        "sectors": [str(s) for s in alg.sectors],
        "unit": alg.unit,
        "table": [
            [[format_lambda_rat(c) for c in vec] for vec in row]
            for row in alg.table
        ],
        "integrals": [format_lambda_rat(c) for c in alg.integrals],
    }


def _algebra_from_dict(d) -> Algebra:
    _expect_keys(d, {"name", "labels", "degrees", "sectors", "unit",
                     "table", "integrals"}, "algebra")
    labels = _array(d["labels"], "algebra: labels", (None,), _str)
    dim = len(labels)
    unit = _int(d["unit"], "algebra: unit")
    if not 0 <= unit < dim:
        raise GeometryError(
            f"algebra: unit must index one of the {dim} labels, not {unit}")
    return Algebra(
        name=_str(d["name"], "algebra: name"),
        labels=labels,
        degrees=_array(d["degrees"], "algebra: degrees", (dim,), _int),
        sectors=_array(d["sectors"], "algebra: sectors", (dim,), _fr),
        unit=unit,
        table=_array(d["table"], "algebra: table", (dim,) * 3, _rat),
        integrals=_array(d["integrals"], "algebra: integrals", (dim,), _rat),
    )


def config_to_dict(g: Geometry) -> dict:
    return {
        "name": g.name,
        "description": g.description,
        "pair": g.pair,
        "side": g.side,
        "algebra": _algebra_to_dict(g.algebra),
        "variables": [
            {
                "symbol": v.symbol,
                "denominator": v.denominator,
                "step": str(v.step),
                "prefactor": None if v.prefactor is None
                else [format_lambda_rat(c) for c in v.prefactor],
                "scalar_exponent": str(v.scalar_exponent),
            }
            for v in g.variables
        ],
        "rows": [
            {"weight": str(r.weight), "charge": list(r.charge)}
            for r in g.rows
        ],
        "sector_map": [str(s) for s in g.sector_map],
        "metadata": dict(g.metadata),
    }


def _variable_from_dict(vd, where: str) -> CurveVariable:
    if isinstance(vd, dict) and isinstance(vd.get("symbol"), str):
        where = f"variable {vd['symbol']}"
    _expect_keys(vd, {"symbol", "denominator", "step", "prefactor",
                      "scalar_exponent"}, where)
    return CurveVariable(
        symbol=_str(vd["symbol"], f"{where}: symbol"),
        denominator=_int(vd["denominator"], f"{where}: denominator"),
        step=_fr(vd["step"], f"{where}: step"),
        prefactor=None if vd["prefactor"] is None
        else _array(vd["prefactor"], f"{where}: prefactor", (None,), _rat),
        scalar_exponent=_fr(vd["scalar_exponent"],
                            f"{where}: scalar_exponent"),
    )


def _row_from_dict(rd, where: str) -> GammaRow:
    _expect_keys(rd, {"weight", "charge"}, where)
    return GammaRow(
        charge=_array(rd["charge"], f"{where}: charge", (None,), _int),
        weight=_fr(rd["weight"], f"{where}: weight"),
    )


def config_from_dict(d) -> Geometry:
    _expect_keys(d, {"name", "description", "pair", "side", "algebra",
                     "variables", "rows", "sector_map", "metadata"},
                 "config")
    g = Geometry(
        name=_str(d["name"], "config: name"),
        description=_str(d["description"], "config: description"),
        pair=_str(d["pair"], "config: pair"),
        side=_str(d["side"], "config: side"),
        algebra=_algebra_from_dict(d["algebra"]),
        variables=_array(d["variables"], "config: variables", (None,),
                         _variable_from_dict),
        rows=_array(d["rows"], "config: rows", (None,), _row_from_dict),
        sector_map=_array(d["sector_map"], "config: sector_map", (None,),
                          _fr),
        metadata=_metadata(d["metadata"], "config: metadata"),
    )
    g.validate()
    return g


def save_config(g: Geometry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(g), fh, ensure_ascii=False, indent=2,
                  sort_keys=True)
        fh.write("\n")


def load_config(path: str) -> Geometry:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GeometryError(
                f"{path}: parse error at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}"
            ) from None
    if not isinstance(data, dict):
        raise GeometryError(f"{path}: top level must be an object")
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# built-in algebras


def _mk_algebra(name, labels, degrees, sectors, unit, prods, integrals):
    dim = len(labels)
    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            vec = [RAT_ZERO] * dim
            if i == unit:
                vec[j] = RAT_ONE
            elif j == unit:
                vec[i] = RAT_ONE
            else:
                entry = prods.get((i, j), prods.get((j, i), {}))
                for k, s in entry.items():
                    vec[k] = parse_lambda_rat(s)
            row.append(tuple(vec))
        table.append(tuple(row))
    return Algebra(
        name=name,
        labels=tuple(labels),
        degrees=tuple(degrees),
        sectors=tuple(Fraction(s) for s in sectors),
        unit=unit,
        table=tuple(table),
        integrals=tuple(parse_lambda_rat(s) for s in integrals),
    )


def _alg_kp2():
    # canonical bundle over the projective plane: C(λ)[p]/(p^3)
    return _mk_algebra(
        "kp2",
        labels=("1", "p", "p^2"),
        degrees=(0, 2, 4),
        sectors=("0", "0", "0"),
        unit=0,
        prods={(1, 1): {2: "1"}, (1, 2): {}, (2, 2): {}},
        integrals=["9/λ^3", "3/λ^2", "1/λ"],
    )


def _alg_c3z3():
    # cyclic threefold quotient point: unit and two twisted classes
    return _mk_algebra(
        "c3z3",
        labels=("1_0", "1_1/3", "1_2/3"),
        degrees=(0, 2, 4),
        sectors=("0", "1/3", "2/3"),
        unit=0,
        prods={
            (1, 1): {2: "1"},
            (1, 2): {0: "λ^3/27"},
            (2, 2): {1: "λ^3/27"},
        },
        integrals=["9/λ^3", "0", "0"],
    )


def _alg_kp113():
    # canonical bundle over the (1,1,3) weighted plane, one Z_3 point
    return _mk_algebra(
        "kp113",
        labels=("1_0", "p", "p^2", "1_1/3", "1_2/3"),
        degrees=(0, 2, 4, 2, 4),
        sectors=("0", "0", "0", "1/3", "2/3"),
        unit=0,
        prods={
            (1, 1): {2: "1"},
            (1, 2): {}, (2, 2): {},
            (1, 3): {}, (1, 4): {}, (2, 3): {}, (2, 4): {},
            (3, 3): {4: "1"},
            (3, 4): {2: "λ"},
            (4, 4): {},
        },
        integrals=["25/(3λ^3)", "5/(3λ^2)", "1/(3λ)", "0", "0"],
    )


def _alg_kf3():
    # bundle over the third Hirzebruch surface (crepant resolution side)
    return _mk_algebra(
        "kf3",
        labels=("1", "p1", "p2", "p1p2", "p2^2"),
        degrees=(0, 2, 2, 4, 4),
        sectors=("0", "0", "0", "0", "0"),
        unit=0,
        prods={
            (1, 1): {3: "3"},
            (1, 2): {3: "1"},
            (2, 2): {4: "1"},
            (1, 3): {}, (1, 4): {}, (2, 3): {},
            (2, 4): {4: "-λ"},
            (3, 3): {}, (3, 4): {},
            (4, 4): {4: "λ^2"},
        },
        integrals=["25/(3λ^3)", "5/λ^2", "2/λ^2", "1/λ", "1/(3λ)"],
    )


def _alg_c3z5():
    # cyclic fivefold quotient point with weights (1,1,3)
    return _mk_algebra(
        "c3z5",
        labels=("1_0", "1_1/5", "1_2/5", "1_3/5", "1_4/5"),
        degrees=(0, 2, 2, 4, 4),
        sectors=("0", "1/5", "2/5", "3/5", "4/5"),
        unit=0,
        prods={
            (1, 1): {2: "3λ/5"},
            (1, 2): {3: "1"},
            (1, 3): {4: "3λ/5"},
            (1, 4): {0: "3λ^3/125"},
            (2, 2): {4: "1"},
            (2, 3): {0: "3λ^3/125"},
            (2, 4): {1: "λ^2/25"},
            (3, 3): {1: "3λ^3/125"},
            (3, 4): {2: "3λ^3/125"},
            (4, 4): {3: "λ^2/25"},
        },
        integrals=["25/(3λ^3)", "0", "0", "0", "0"],
    )


def _alg_op12():
    # rank-three negative bundle over the (1,2) weighted line, Z_2 point
    return _mk_algebra(
        "op12",
        labels=("1_0", "p", "1_1/2"),
        degrees=(0, 2, 4),
        sectors=("0", "0", "1/2"),
        unit=0,
        prods={
            (1, 1): {},
            (1, 2): {},
            (2, 2): {1: "λ^3"},
        },
        integrals=["3/(2λ^4)", "1/(2λ^3)", "0"],
    )


def _alg_op2_12():
    # sum of degree -1 and -2 line bundles over the projective plane
    return _mk_algebra(
        "op2_12",
        labels=("1", "p", "p^2"),
        degrees=(0, 2, 4),
        sectors=("0", "0", "0"),
        unit=0,
        prods={(1, 1): {2: "1"}, (1, 2): {}, (2, 2): {}},
        integrals=["3/(2λ^4)", "1/λ^3", "1/(2λ^2)"],
    )


# ---------------------------------------------------------------------------
# built-in geometries


def _cls(alg: Algebra, **coeffs: str) -> tuple[LambdaRat, ...]:
    vec = [RAT_ZERO] * alg.dim
    for label, s in coeffs.items():
        vec[alg.labels.index(label)] = parse_lambda_rat(s)
    return tuple(vec)


def _geom_ex1_y():
    alg = _alg_kp2()
    return Geometry(
        name="ex1-Y", description="canonical bundle of the projective plane",
        pair="ex1", side="Y",
        algebra=alg,
        variables=(CurveVariable("y", prefactor=_cls(alg, p="1")),),
        rows=(
            GammaRow((1,)), GammaRow((1,)), GammaRow((1,)),
            GammaRow((-3,), Fraction(1)),
        ),
        sector_map=(Fraction(0),),
        metadata={"patch": "resolved chamber of the anticanonical fan"},
    )


def _geom_ex1_x():
    alg = _alg_c3z3()
    return Geometry(
        name="ex1-X", description="threefold quotient point of order three",
        pair="ex1", side="X",
        algebra=alg,
        variables=(CurveVariable("x", denominator=3,
                                 scalar_exponent=Fraction(1)),),
        rows=(
            GammaRow((-1,), Fraction(1, 3)),
            GammaRow((-1,), Fraction(1, 3)),
            GammaRow((-1,), Fraction(1, 3)),
            GammaRow((3,)),
        ),
        sector_map=(Fraction(1, 3),),
        metadata={"patch": "orbifold chamber of the anticanonical fan"},
    )


def _geom_ex2_y():
    alg = _alg_kf3()
    return Geometry(
        name="ex2-Y",
        description="canonical bundle of the third Hirzebruch surface",
        pair="ex2", side="Y",
        algebra=alg,
        variables=(
            CurveVariable("y1", prefactor=_cls(alg, p1="1")),
            CurveVariable("y2", prefactor=_cls(alg, p2="1")),
        ),
        rows=(
            GammaRow((0, 1)), GammaRow((0, 1)), GammaRow((1, 0)),
            GammaRow((1, -3)), GammaRow((-2, 1), Fraction(1)),
        ),
        sector_map=(Fraction(0), Fraction(0)),
        metadata={"patch": "fully resolved chamber"},
    )


def _geom_ex2_x():
    alg = _alg_kp113()
    return Geometry(
        name="ex2-X",
        description="canonical bundle of the (1,1,3) weighted plane",
        pair="ex2", side="X",
        algebra=alg,
        variables=(
            CurveVariable("x1", denominator=3,
                          prefactor=_cls(alg, p="3")),
            CurveVariable("x2", denominator=3),
        ),
        rows=(
            GammaRow((1, -1)), GammaRow((1, -1)),
            GammaRow((-5, -1), Fraction(1)),
            GammaRow((3, 0)), GammaRow((0, 3)),
        ),
        sector_map=(Fraction(-1, 3), Fraction(1, 3)),
        metadata={"patch": "orbifold chamber with one quotient point"},
    )


def _geom_ex3_y():
    g = _geom_ex2_x()
    return Geometry(
        name="ex3-Y",
        description="canonical bundle of the (1,1,3) weighted plane",
        pair="ex3", side="Y",
        algebra=g.algebra,
        variables=(
            CurveVariable("y1", denominator=3,
                          prefactor=_cls(g.algebra, p="3")),
            CurveVariable("y2", denominator=3),
        ),
        rows=g.rows,
        sector_map=g.sector_map,
        metadata={"patch": "partially resolved chamber"},
    )


def _geom_ex3_x():
    alg = _alg_c3z5()
    return Geometry(
        name="ex3-X", description="threefold quotient point of order five",
        pair="ex3", side="X",
        algebra=alg,
        variables=(
            CurveVariable("x1", denominator=5,
                          scalar_exponent=Fraction(1)),
            CurveVariable("x2", denominator=5),
        ),
        rows=(
            GammaRow((-1, -2), Fraction(1, 5)),
            GammaRow((-1, -2), Fraction(1, 5)),
            GammaRow((-3, -1), Fraction(3, 5)),
            GammaRow((5, 0)), GammaRow((0, 5)),
        ),
        sector_map=(Fraction(1, 5), Fraction(2, 5)),
        metadata={"patch": "orbifold chamber"},
    )


def _geom_ex4_y():
    alg = _alg_op2_12()
    return Geometry(
        name="ex4-Y",
        description="sum of degree -1 and -2 line bundles over the projective plane",
        pair="ex4", side="Y",
        algebra=alg,
        variables=(CurveVariable("y", prefactor=_cls(alg, p="1")),),
        rows=(
            GammaRow((1,)), GammaRow((1,)), GammaRow((1,)),
            GammaRow((-2,), Fraction(2)), GammaRow((-1,), Fraction(1)),
        ),
        sector_map=(Fraction(0),),
        metadata={"patch": "one side of the flop wall"},
    )


def _geom_ex4_x():
    alg = _alg_op12()
    return Geometry(
        name="ex4-X",
        description="rank-three negative line bundle over the (1,2) weighted line",
        pair="ex4", side="X",
        algebra=alg,
        variables=(CurveVariable("x", denominator=2,
                                 step=Fraction(1, 2),
                                 prefactor=_cls(alg, p="1"),
                                 scalar_exponent=Fraction(1)),),
        rows=(
            GammaRow((-1,), Fraction(1)),
            GammaRow((-1,), Fraction(1)),
            GammaRow((-1,), Fraction(1)),
            GammaRow((1,)), GammaRow((2,)),
        ),
        sector_map=(Fraction(1, 2),),
        metadata={"patch": "other side of the flop wall"},
    )


_BUILDERS = {
    "ex1-X": _geom_ex1_x, "ex1-Y": _geom_ex1_y,
    "ex2-X": _geom_ex2_x, "ex2-Y": _geom_ex2_y,
    "ex3-X": _geom_ex3_x, "ex3-Y": _geom_ex3_y,
    "ex4-X": _geom_ex4_x, "ex4-Y": _geom_ex4_y,
}

_CACHE: dict[str, Geometry] = {}


def builtin(name: str) -> Geometry:
    """Return the named built-in geometry, validated, cached."""
    if name not in _BUILDERS:
        raise GeometryError(
            f"unknown geometry {name!r}; choose one of {', '.join(BUILTIN_NAMES)}"
        )
    if name not in _CACHE:
        g = _BUILDERS[name]()
        g.validate()
        _CACHE[name] = g
    return _CACHE[name]


def pairs() -> dict[str, tuple[str, str]]:
    """Map pair id -> (X-side name, Y-side name), read off BUILTIN_NAMES."""
    ids = dict.fromkeys(name.rsplit("-", 1)[0] for name in BUILTIN_NAMES)
    return {p: (f"{p}-X", f"{p}-Y") for p in ids}
