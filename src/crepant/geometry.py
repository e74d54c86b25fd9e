"""Computational presentations of local Calabi-Yau targets.

A geometry bundles everything the series machinery needs to know about one
side of a birational pair: the equivariant cohomology algebra, the curve
variables the generating series is expanded in, and one gamma row per toric
coordinate (its class, torus weight, and integer charge vector).

Charge conventions.  Variable i stores integer indices n_i; the actual curve
degree is d_i = n_i / m_i where m_i is the variable's denominator.  Charge
entries are integers in degree units, so the shifted index fed to the gamma
ratio of row j at index vector n is sum_i charge[j][i] * n_i / m_i.  The
exponent of variable i in the series is step_i * n_i (+ P_i/z for divisor
variables), and the sector label of the term is frac(sum_i sector_map[i]*n_i).

Config file schema (JSON, strict: unknown or missing fields are errors):

    {
      "name": str, "description": str,
      "pair": str, "side": "X" | "Y", "partner": str,
      "algebra": {
        "name": str, "labels": [str], "degrees": [int], "sectors": [frac],
        "unit": int, "involution": [int],
        "table": [[[rat]]],          # table[i][j][k], see algebra.Algebra
        "gram": [[rat]]
      },
      "variables": [{
        "symbol": str, "kind": "divisor" | "sector-insertion",
        "denominator": int, "step": frac,
        "prefactor": [rat] | null,   # coefficient vector, divisor kind only
        "scalar_exponent": frac,     # a in the overall x^(-a*lambda/z)
        "factorial": bool, "radius": frac | null
      }],
      "rows": [{"klass": [rat], "charge": [int], "weight": frac}],
      "sector_map": [frac],
      "pi_star": [{"source": str, "image": str, "r": frac}],
      "metadata": {str: str}
    }

where rat is a string like "(-3)/1" or "9/λ^3" (see lambda_rat) and frac is
a rational string like "1/3" or "2".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .lambda_rat import (
    LambdaRat,
    RAT_ONE,
    RAT_ZERO,
    format_lambda_rat,
    parse_lambda_rat,
)
from .algebra import Algebra, AlgebraError, Element


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

    Divisor variables enter as x^(step*n + P/z) with P a degree-2 class;
    sector-insertion variables enter as x^(step*n) and carry a factorial
    normalization row instead of a prefactor.  scalar_exponent a records an
    overall x^(-a*lambda/z) attached to this variable.  radius, when set, is
    the radius of convergence of the one-variable slice (unused by exact
    arithmetic).  On a Y side it now only places the Mellin-Barnes
    integral: the integral runs along the one variable with a radius, the
    others stay at index 0, and the radius is its wall.  The continued
    series takes its contour variable from the pair's lattice map instead.
    """

    symbol: str
    kind: str
    denominator: int = 1
    step: Fraction = Fraction(1)
    prefactor: Optional[tuple[LambdaRat, ...]] = None
    scalar_exponent: Fraction = Fraction(0)
    factorial: bool = False
    radius: Optional[Fraction] = None


@dataclass(frozen=True)
class GammaRow:
    """One toric coordinate: its class, torus weight, and charge vector.

    klass is the coefficient vector of an algebra element linear in the
    degree-2 generators and lambda; weight is the lambda-multiple of its
    unit part; charge has one integer per variable, in degree units.
    """

    klass: tuple[LambdaRat, ...]
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
    partner: str
    algebra: Algebra
    variables: tuple[CurveVariable, ...]
    rows: tuple[GammaRow, ...]
    sector_map: tuple[Fraction, ...]
    pi_star: tuple[tuple[str, str, Fraction], ...] = ()
    metadata: dict = field(default_factory=dict)

    # -- index bookkeeping ------------------------------------------------

    def degree_of(self, index: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(n, v.denominator) for n, v in zip(index, self.variables)
        )

    def curve_degree(self, index: tuple[int, ...]) -> Fraction:
        """Total curve-class degree; sector insertions carry none."""
        return sum(
            (Fraction(n, v.denominator)
             for n, v in zip(index, self.variables) if v.kind == "divisor"),
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

    def row_element(self, row: int) -> Element:
        return Element(self.algebra, self.rows[row].klass)

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
            if v.kind not in ("divisor", "sector-insertion"):
                raise GeometryError(f"{self.name}: unknown variable kind {v.kind!r}")
            if v.denominator < 1:
                raise GeometryError(f"{self.name}: denominator must be >= 1")
            if v.step <= 0:
                raise GeometryError(f"{self.name}: step must be positive")
            if v.radius is not None and v.radius <= 0:
                raise GeometryError(f"{self.name}: radius must be positive")
            if v.kind == "divisor":
                if v.prefactor is None:
                    raise GeometryError(
                        f"{self.name}: divisor variable {v.symbol} needs a prefactor class"
                    )
                if len(v.prefactor) != dim:
                    raise GeometryError(
                        f"{self.name}: prefactor length mismatch on {v.symbol}"
                    )
                for i, c in enumerate(v.prefactor):
                    if c != RAT_ZERO and (i not in deg2 or c.as_monomial() is None
                                          or c.as_monomial()[1] != 0):
                        raise GeometryError(
                            f"{self.name}: prefactor of {v.symbol} must be a constant "
                            "combination of degree-2 classes"
                        )
            else:
                if v.prefactor is not None:
                    raise GeometryError(
                        f"{self.name}: sector-insertion variable {v.symbol} "
                        "cannot carry a prefactor class"
                    )

        for j, row in enumerate(self.rows):
            if len(row.klass) != dim:
                raise GeometryError(f"{self.name}: row {j} class length mismatch")
            if len(row.charge) != nvar:
                raise GeometryError(f"{self.name}: row {j} charge length mismatch")
            # class must be (weight*lambda) * unit + constant degree-2 part
            for i, c in enumerate(row.klass):
                if c == RAT_ZERO:
                    continue
                mono = c.as_monomial()
                if i == alg.unit:
                    if mono is None or mono[1] != 1 or mono[0] != row.weight:
                        raise GeometryError(
                            f"{self.name}: row {j} unit part must equal "
                            f"weight*λ (declared weight {row.weight})"
                        )
                elif i not in deg2 or mono is None or mono[1] != 0:
                    raise GeometryError(
                        f"{self.name}: row {j} class must be linear in λ and "
                        "the degree-2 classes"
                    )

        self._check_divisor_charges(deg2)

        # crepant/Calabi-Yau condition: each charge column sums to zero
        for i in range(nvar):
            s = sum(row.charge[i] for row in self.rows)
            if s != 0:
                raise GeometryError(
                    f"{self.name}: charge column {i} sums to {s}, not 0 "
                    "(Calabi-Yau condition)"
                )

        # the classes themselves sum to a lambda multiple of the unit
        for i in range(dim):
            total = RAT_ZERO
            for row in self.rows:
                total = total + row.klass[i]
            if i == alg.unit:
                mono = total.as_monomial()
                if total != RAT_ZERO and (mono is None or mono[1] != 1):
                    raise GeometryError(
                        f"{self.name}: row classes must sum to a λ-multiple "
                        "of the unit"
                    )
            elif total != RAT_ZERO:
                raise GeometryError(
                    f"{self.name}: sum of row classes has a nonzero "
                    f"component on {alg.labels[i]}"
                )

        # factorial bookkeeping: variable flagged iff a bare factorial row
        # (zero class, charge = denominator * e_i) exists for it
        for i, v in enumerate(self.variables):
            has = any(
                all(c == RAT_ZERO for c in row.klass)
                and row.charge[i] == v.denominator
                and all(c == 0 for k, c in enumerate(row.charge) if k != i)
                for row in self.rows
            )
            if has != v.factorial:
                raise GeometryError(
                    f"{self.name}: factorial flag on {v.symbol} does not match rows"
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

        for src, img, r in self.pi_star:
            if src not in alg.labels:
                raise GeometryError(f"{self.name}: π* source {src!r} unknown")
            if not isinstance(r, Fraction) or r <= 0:
                raise GeometryError(f"{self.name}: π* factor must be a positive rational")

    def _check_divisor_charges(self, deg2: list[int]) -> None:
        """Charge/divisor-class cross-check.

        Expanding a row's degree-2 part over the divisor prefactor classes
        must reproduce the row's per-index rates on the divisor variables:
        charge[j][i]/m_i == c[j][i] * step_i.
        """
        alg = self.algebra
        div = [i for i, v in enumerate(self.variables) if v.kind == "divisor"]
        if not div:
            return
        cols = []
        for i in div:
            vec = []
            for k in deg2:
                mono = self.variables[i].prefactor[k].as_monomial()
                vec.append(mono[0] if mono is not None else Fraction(0))
            cols.append(vec)
        for j, row in enumerate(self.rows):
            target = []
            for k in deg2:
                mono = row.klass[k].as_monomial()
                target.append(mono[0] if mono is not None else Fraction(0))
            coeffs = _solve_exact(cols, target)
            if coeffs is None:
                raise GeometryError(
                    f"{self.name}: row {j} degree-2 part is not spanned by "
                    "the divisor prefactor classes"
                )
            for c, i in zip(coeffs, div):
                v = self.variables[i]
                if Fraction(row.charge[i], v.denominator) != c * v.step:
                    raise GeometryError(
                        f"{self.name}: row {j} charge on {v.symbol} disagrees "
                        "with its divisor class (cross-check)"
                    )


def _solve_exact(cols: list[list[Fraction]],
                 target: list[Fraction]) -> Optional[list[Fraction]]:
    """Solve sum_i x_i * cols[i] == target exactly; None if inconsistent."""
    m = len(target)
    n = len(cols)
    a = [[cols[i][r] for i in range(n)] + [target[r]] for r in range(m)]
    piv_cols: list[int] = []
    r = 0
    for c in range(n):
        p = next((k for k in range(r, m) if a[k][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        lead = a[r][c]
        a[r] = [x / lead for x in a[r]]
        for k in range(m):
            if k != r and a[k][c] != 0:
                f = a[k][c]
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for k in range(r, m):
        if a[k][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row_i, c in enumerate(piv_cols):
        x[c] = a[row_i][n]
    return x


# ---------------------------------------------------------------------------
# serialization


def _fr(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise GeometryError(f"bad rational {s!r}: {exc}") from None


def _fr_str(f: Fraction) -> str:
    return str(f)


def _expect_keys(d: dict, keys: set[str], where: str) -> None:
    got = set(d)
    missing = keys - got
    unknown = got - keys
    if missing:
        raise GeometryError(f"{where}: missing fields {sorted(missing)}")
    if unknown:
        raise GeometryError(f"{where}: unknown fields {sorted(unknown)}")


def _algebra_to_dict(alg: Algebra) -> dict:
    return {
        "name": alg.name,
        "labels": list(alg.labels),
        "degrees": list(alg.degrees),
        "sectors": [_fr_str(s) for s in alg.sectors],
        "unit": alg.unit,
        "involution": list(alg.involution),
        "table": [
            [[format_lambda_rat(c) for c in vec] for vec in row]
            for row in alg.table
        ],
        "gram": [[format_lambda_rat(c) for c in row] for row in alg.gram],
    }


def _algebra_from_dict(d: dict) -> Algebra:
    _expect_keys(d, {"name", "labels", "degrees", "sectors", "unit",
                     "involution", "table", "gram"}, "algebra")
    labels = tuple(d["labels"])
    dim = len(labels)
    table = tuple(
        tuple(tuple(parse_lambda_rat(c) for c in vec) for vec in row)
        for row in d["table"]
    )
    gram = tuple(tuple(parse_lambda_rat(c) for c in row) for row in d["gram"])
    if len(table) != dim or any(len(r) != dim for r in table):
        raise GeometryError("algebra: table shape mismatch")
    return Algebra(
        name=d["name"],
        labels=labels,
        degrees=tuple(int(x) for x in d["degrees"]),
        sectors=tuple(_fr(s) for s in d["sectors"]),
        unit=int(d["unit"]),
        table=table,
        gram=gram,
        involution=tuple(int(x) for x in d["involution"]),
    )


def config_to_dict(g: Geometry) -> dict:
    return {
        "name": g.name,
        "description": g.description,
        "pair": g.pair,
        "side": g.side,
        "partner": g.partner,
        "algebra": _algebra_to_dict(g.algebra),
        "variables": [
            {
                "symbol": v.symbol,
                "kind": v.kind,
                "denominator": v.denominator,
                "step": _fr_str(v.step),
                "prefactor": None if v.prefactor is None
                else [format_lambda_rat(c) for c in v.prefactor],
                "scalar_exponent": _fr_str(v.scalar_exponent),
                "factorial": v.factorial,
                "radius": None if v.radius is None else _fr_str(v.radius),
            }
            for v in g.variables
        ],
        "rows": [
            {
                "klass": [format_lambda_rat(c) for c in r.klass],
                "charge": list(r.charge),
                "weight": _fr_str(r.weight),
            }
            for r in g.rows
        ],
        "sector_map": [_fr_str(s) for s in g.sector_map],
        "pi_star": [
            {"source": s, "image": i, "r": _fr_str(r)} for s, i, r in g.pi_star
        ],
        "metadata": dict(g.metadata),
    }


def config_from_dict(d: dict) -> Geometry:
    _expect_keys(d, {"name", "description", "pair", "side", "partner",
                     "algebra", "variables", "rows", "sector_map",
                     "pi_star", "metadata"}, "config")
    variables = []
    for vd in d["variables"]:
        _expect_keys(vd, {"symbol", "kind", "denominator", "step", "prefactor",
                          "scalar_exponent", "factorial", "radius"},
                     f"variable {vd.get('symbol', '?')}")
        variables.append(CurveVariable(
            symbol=vd["symbol"],
            kind=vd["kind"],
            denominator=int(vd["denominator"]),
            step=_fr(vd["step"]),
            prefactor=None if vd["prefactor"] is None
            else tuple(parse_lambda_rat(c) for c in vd["prefactor"]),
            scalar_exponent=_fr(vd["scalar_exponent"]),
            factorial=bool(vd["factorial"]),
            radius=None if vd["radius"] is None else _fr(vd["radius"]),
        ))
    rows = []
    for i, rd in enumerate(d["rows"]):
        _expect_keys(rd, {"klass", "charge", "weight"}, f"row {i}")
        rows.append(GammaRow(
            klass=tuple(parse_lambda_rat(c) for c in rd["klass"]),
            charge=tuple(int(c) for c in rd["charge"]),
            weight=_fr(rd["weight"]),
        ))
    meta = d["metadata"]
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in meta.items()):
        raise GeometryError("metadata must map strings to strings")
    g = Geometry(
        name=d["name"],
        description=d["description"],
        pair=d["pair"],
        side=d["side"],
        partner=d["partner"],
        algebra=_algebra_from_dict(d["algebra"]),
        variables=tuple(variables),
        rows=tuple(rows),
        sector_map=tuple(_fr(s) for s in d["sector_map"]),
        pi_star=tuple(
            (p["source"], p["image"], _fr(p["r"])) for p in d["pi_star"]
        ),
        metadata=dict(meta),
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


def _mk_algebra(name, labels, degrees, sectors, unit, prods, gram, involution):
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
        gram=tuple(tuple(parse_lambda_rat(s) for s in row) for row in gram),
        involution=tuple(involution),
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
        gram=[
            ["9/λ^3", "3/λ^2", "1/λ"],
            ["3/λ^2", "1/λ", "0"],
            ["1/λ", "0", "0"],
        ],
        involution=(0, 1, 2),
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
        gram=[
            ["9/λ^3", "0", "0"],
            ["0", "0", "1/3"],
            ["0", "1/3", "0"],
        ],
        involution=(0, 2, 1),
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
        gram=[
            ["25/(3λ^3)", "5/(3λ^2)", "1/(3λ)", "0", "0"],
            ["5/(3λ^2)", "1/(3λ)", "0", "0", "0"],
            ["1/(3λ)", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "1/3"],
            ["0", "0", "0", "1/3", "0"],
        ],
        involution=(0, 1, 2, 4, 3),
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
        gram=[
            ["25/(3λ^3)", "5/λ^2", "2/λ^2", "1/λ", "1/(3λ)"],
            ["5/λ^2", "3/λ", "1/λ", "0", "0"],
            ["2/λ^2", "1/λ", "1/(3λ)", "0", "(-1)/3"],
            ["1/λ", "0", "0", "0", "0"],
            ["1/(3λ)", "0", "(-1)/3", "0", "λ/3"],
        ],
        involution=(0, 1, 2, 3, 4),
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
        gram=[
            ["25/(3λ^3)", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "1/5"],
            ["0", "0", "0", "1/5", "0"],
            ["0", "0", "1/5", "0", "0"],
            ["0", "1/5", "0", "0", "0"],
        ],
        involution=(0, 4, 3, 2, 1),
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
        gram=[
            ["3/(2λ^4)", "1/(2λ^3)", "0"],
            ["1/(2λ^3)", "0", "0"],
            ["0", "0", "1/2"],
        ],
        involution=(0, 1, 2),
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
        gram=[
            ["3/(2λ^4)", "1/λ^3", "1/(2λ^2)"],
            ["1/λ^3", "1/(2λ^2)", "0"],
            ["1/(2λ^2)", "0", "0"],
        ],
        involution=(0, 1, 2),
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
    p = _cls(alg, **{"p": "1"})
    return Geometry(
        name="ex1-Y", description="canonical bundle of the projective plane",
        pair="ex1", side="Y", partner="ex1-X",
        algebra=alg,
        variables=(CurveVariable("y", "divisor", prefactor=p,
                                 radius=Fraction(1, 27)),),
        rows=(
            GammaRow(p, (1,)), GammaRow(p, (1,)), GammaRow(p, (1,)),
            GammaRow(_cls(alg, **{"1": "λ", "p": "(-3)/1"}), (-3,),
                     Fraction(1)),
        ),
        sector_map=(Fraction(0),),
        metadata={"patch": "resolved chamber of the anticanonical fan"},
    )


def _geom_ex1_x():
    alg = _alg_c3z3()
    third = _cls(alg, **{"1_0": "λ/3"})
    return Geometry(
        name="ex1-X", description="threefold quotient point of order three",
        pair="ex1", side="X", partner="ex1-Y",
        algebra=alg,
        variables=(CurveVariable("x", "sector-insertion", denominator=3,
                                 scalar_exponent=Fraction(1), factorial=True,
                                 radius=Fraction(3)),),
        rows=(
            GammaRow(third, (-1,), Fraction(1, 3)),
            GammaRow(third, (-1,), Fraction(1, 3)),
            GammaRow(third, (-1,), Fraction(1, 3)),
            GammaRow(_cls(alg), (3,)),
        ),
        sector_map=(Fraction(1, 3),),
        metadata={"patch": "orbifold chamber of the anticanonical fan"},
    )


def _geom_ex2_y():
    alg = _alg_kf3()
    p1 = _cls(alg, p1="1")
    p2 = _cls(alg, p2="1")
    return Geometry(
        name="ex2-Y",
        description="canonical bundle of the third Hirzebruch surface",
        pair="ex2", side="Y", partner="ex2-X",
        algebra=alg,
        variables=(
            CurveVariable("y1", "divisor", prefactor=p1),
            CurveVariable("y2", "divisor", prefactor=p2,
                          radius=Fraction(1, 27)),
        ),
        rows=(
            GammaRow(p2, (0, 1)), GammaRow(p2, (0, 1)),
            GammaRow(p1, (1, 0)),
            GammaRow(_cls(alg, p1="1", p2="(-3)/1"), (1, -3)),
            GammaRow(_cls(alg, **{"1": "λ", "p1": "(-2)/1", "p2": "1"}),
                     (-2, 1), Fraction(1)),
        ),
        sector_map=(Fraction(0), Fraction(0)),
        metadata={"patch": "fully resolved chamber"},
    )


def _geom_ex2_x():
    alg = _alg_kp113()
    return Geometry(
        name="ex2-X",
        description="canonical bundle of the (1,1,3) weighted plane",
        pair="ex2", side="X", partner="ex2-Y",
        algebra=alg,
        variables=(
            CurveVariable("x1", "divisor", denominator=3,
                          prefactor=_cls(alg, p="3")),
            CurveVariable("x2", "sector-insertion", denominator=3,
                          factorial=True),
        ),
        rows=(
            GammaRow(_cls(alg, p="1"), (1, -1)),
            GammaRow(_cls(alg, p="1"), (1, -1)),
            GammaRow(_cls(alg, **{"1_0": "λ", "p": "(-5)/1"}), (-5, -1),
                     Fraction(1)),
            GammaRow(_cls(alg, p="3"), (3, 0)),
            GammaRow(_cls(alg), (0, 3)),
        ),
        sector_map=(Fraction(-1, 3), Fraction(1, 3)),
        pi_star=(("p", "p1", Fraction(1, 3)),),
        metadata={"patch": "orbifold chamber with one quotient point"},
    )


def _geom_ex3_y():
    g = _geom_ex2_x()
    return Geometry(
        name="ex3-Y",
        description="canonical bundle of the (1,1,3) weighted plane",
        pair="ex3", side="Y", partner="ex3-X",
        algebra=g.algebra,
        variables=(
            CurveVariable("y1", "divisor", denominator=3,
                          prefactor=_cls(g.algebra, p="3")),
            CurveVariable("y2", "sector-insertion", denominator=3,
                          factorial=True),
        ),
        rows=g.rows,
        sector_map=g.sector_map,
        metadata={"patch": "partially resolved chamber"},
    )


def _geom_ex3_x():
    alg = _alg_c3z5()
    fifth = _cls(alg, **{"1_0": "λ/5"})
    return Geometry(
        name="ex3-X", description="threefold quotient point of order five",
        pair="ex3", side="X", partner="ex3-Y",
        algebra=alg,
        variables=(
            CurveVariable("x1", "sector-insertion", denominator=5,
                          scalar_exponent=Fraction(1), factorial=True),
            CurveVariable("x2", "sector-insertion", denominator=5,
                          factorial=True),
        ),
        rows=(
            GammaRow(fifth, (-1, -2), Fraction(1, 5)),
            GammaRow(fifth, (-1, -2), Fraction(1, 5)),
            GammaRow(_cls(alg, **{"1_0": "3λ/5"}), (-3, -1), Fraction(3, 5)),
            GammaRow(_cls(alg), (5, 0)),
            GammaRow(_cls(alg), (0, 5)),
        ),
        sector_map=(Fraction(1, 5), Fraction(2, 5)),
        metadata={"patch": "orbifold chamber"},
    )


def _geom_ex4_y():
    alg = _alg_op2_12()
    p = _cls(alg, p="1")
    return Geometry(
        name="ex4-Y",
        description="sum of degree -1 and -2 line bundles over the projective plane",
        pair="ex4", side="Y", partner="ex4-X",
        algebra=alg,
        variables=(CurveVariable("y", "divisor", prefactor=p,
                                 radius=Fraction(1, 4)),),
        rows=(
            GammaRow(p, (1,)), GammaRow(p, (1,)), GammaRow(p, (1,)),
            GammaRow(_cls(alg, **{"1": "2λ", "p": "(-2)/1"}), (-2,),
                     Fraction(2)),
            GammaRow(_cls(alg, **{"1": "λ", "p": "(-1)/1"}), (-1,),
                     Fraction(1)),
        ),
        sector_map=(Fraction(0),),
        metadata={"patch": "one side of the flop wall"},
    )


def _geom_ex4_x():
    alg = _alg_op12()
    return Geometry(
        name="ex4-X",
        description="rank-three negative line bundle over the (1,2) weighted line",
        pair="ex4", side="X", partner="ex4-Y",
        algebra=alg,
        variables=(CurveVariable("x", "divisor", denominator=2,
                                 step=Fraction(1, 2),
                                 prefactor=_cls(alg, p="1"),
                                 scalar_exponent=Fraction(1),
                                 radius=Fraction(4)),),
        rows=(
            GammaRow(_cls(alg, **{"1_0": "λ", "p": "(-1)/1"}), (-1,),
                     Fraction(1)),
            GammaRow(_cls(alg, **{"1_0": "λ", "p": "(-1)/1"}), (-1,),
                     Fraction(1)),
            GammaRow(_cls(alg, **{"1_0": "λ", "p": "(-1)/1"}), (-1,),
                     Fraction(1)),
            GammaRow(_cls(alg, p="1"), (1,)),
            GammaRow(_cls(alg, p="2"), (2,)),
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
    """Map pair id -> (X-side name, Y-side name)."""
    return {
        "ex1": ("ex1-X", "ex1-Y"),
        "ex2": ("ex2-X", "ex2-Y"),
        "ex3": ("ex3-X", "ex3-Y"),
        "ex4": ("ex4-X", "ex4-Y"),
    }
