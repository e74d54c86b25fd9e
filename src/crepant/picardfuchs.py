"""Differential operators annihilating the hypergeometric series.

An operator is a sum of terms (curve monomial, product of linear forms in
the logarithmic derivations D_i, λ, z).  Acting on a prefactor-normalized
series, D_i multiplies the degree-n term by (P_i - a_i λ + z e_i(n)) where
P_i is the divisor prefactor class, a_i the scalar exponent and e_i(n) the
actual exponent of the i-th variable.  Residuals are exact; no tolerance.

The operators of a geometry are derived from its gamma rows (pf_system),
as the GKZ box operators of the toric charge matrix.  Row j (weight w_j,
charges charge_ji) gives the linear form

    L_j = w_j λ + Σ_i r_ji (D_i + a_i λ),   r_ji = charge_ji / (m_i step_i),

which multiplies the degree-n term by κ_j + z v_j(n); the row's class
κ_j = w_j λ + Σ_i r_ji P_i is Geometry.row_classes[j], by the same rule.
The shifts are the minimal nonzero s >= 0 with sector_of(s) == 0, searched
in the box [0, N]^k with N the lcm of the sector_map denominators; for
each one

    Π_{v_j>0} Π_{k<v_j} (L_j - kz) - y^s Π_{v_j<0} Π_{k<|v_j|} (L_j - kz),

where v_j = Σ_i charge_ji s_i / m_i.  Every term therefore shifts the
index lattice by a non-negative vector, and verify_pf checks any geometry,
built-in or loaded from a config.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .algebra import AlgebraZ, Element
from .geometry import Geometry, as_geometry, enumerate_degrees
from .ifunction import IFunction, RatAZ, build_ifunction
from .lambda_rat import LambdaRat


class PFError(ValueError):
    pass


@dataclass(frozen=True)
class LinForm:
    """Σ_i d[i]·D_i + lam·λ + zc·z."""

    d: tuple[Fraction, ...]
    lam: Fraction = Fraction(0)
    zc: Fraction = Fraction(0)


@dataclass(frozen=True)
class PFTerm:
    shift: tuple[int, ...]          # lattice units, non-negative
    constant: Fraction
    factors: tuple[LinForm, ...]


@dataclass(frozen=True)
class PFOperator:
    label: str
    nvars: int
    terms: tuple[PFTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if len(t.shift) != self.nvars:
                raise PFError(f"{self.label}: term shift arity mismatch")
            if any(s < 0 for s in t.shift):
                raise PFError(f"{self.label}: negative shift {t.shift}")
            for f in t.factors:
                if len(f.d) != self.nvars:
                    raise PFError(f"{self.label}: linear form arity mismatch")


def _conjugated_classes(geom: Geometry) -> list[Element]:
    """P_i - a_i λ per variable, as elements."""
    alg = geom.algebra
    lam_unit = alg.one() * LambdaRat.gen()
    out = []
    for i, var in enumerate(geom.variables):
        e = geom.prefactor_element(i)
        e = alg.zero() if e is None else e
        if var.scalar_exponent:
            e = e - lam_unit * LambdaRat(var.scalar_exponent)
        out.append(e)
    return out


def _factor_value(geom: Geometry, conj: list[Element], f: LinForm,
                  index: tuple[int, ...]) -> AlgebraZ:
    alg = geom.algebra
    elem = alg.zero()
    zscal = f.zc
    for i, c in enumerate(f.d):
        if c:
            elem = elem + conj[i] * LambdaRat(c)
            zscal += c * geom.variables[i].step * index[i]
    if f.lam:
        elem = elem + alg.one() * (LambdaRat.gen() * LambdaRat(f.lam))
    layers = {}
    if not elem.is_zero:
        layers[0] = elem
    if zscal:
        layers[1] = alg.one() * LambdaRat(zscal)
    return AlgebraZ(alg, layers)


def apply_operator(op: PFOperator, ifn: IFunction
                   ) -> tuple[dict[tuple[int, ...], RatAZ], list[tuple[int, ...]]]:
    """Evaluate op on the series, index by index.

    Returns (values, skipped): values maps each index where every term's
    source lies inside the truncated lattice to the exact result; indices
    needing unknown coefficients are listed in skipped.
    """
    geom = ifn.geometry
    if len(geom.variables) != op.nvars:
        raise PFError(f"{op.label}: operator arity {op.nvars} does not match "
                      f"geometry {geom.name}")
    alg = geom.algebra
    conj = _conjugated_classes(geom)
    values: dict[tuple[int, ...], RatAZ] = {}
    skipped: list[tuple[int, ...]] = []
    for n in enumerate_degrees(geom.lattice(ifn.bound)):
        total = RatAZ(AlgebraZ(alg))
        ok = True
        for t in op.terms:
            m = tuple(a - b for a, b in zip(n, t.shift))
            if any(x < 0 for x in m):
                continue  # series has no such term: contributes zero
            if m not in ifn.coeffs:
                ok = False
                break
            prod = AlgebraZ(alg, {0: alg.one() * LambdaRat(t.constant)})
            for f in t.factors:
                prod = prod * _factor_value(geom, conj, f, m)
            total = total + ifn.coeffs[m] * prod
        if ok:
            values[n] = total
        else:
            skipped.append(n)
    if not values:
        raise PFError(f"{op.label}: insufficient truncation "
                      f"(bound {ifn.bound} leaves no checkable index)")
    return values, skipped


@dataclass(frozen=True)
class PFReport:
    geometry: str
    bound: int
    checked: tuple[tuple[str, int], ...]  # (operator label, indices verified)


def verify_pf(geom: Geometry | str, bound: int = 8,
              ifn: IFunction | None = None) -> PFReport:
    geom = as_geometry(geom, "verify_pf", PFError)
    ops = pf_system(geom)
    if ifn is None:
        ifn = build_ifunction(geom, bound)
    results = []
    for op in ops:
        values, _ = apply_operator(op, ifn)
        engaged = 0
        for n, v in values.items():
            if not v.is_zero:
                num = v.num
                raise PFError(
                    f"{geom.name}: '{op.label}' residual nonzero at index {n}; "
                    f"numerator layers {sorted(num.layers)}")
            if all(a >= b for a, b in zip(n, _max_shift(op))):
                engaged += 1
        if engaged == 0:
            raise PFError(f"{geom.name}: '{op.label}' never engages all terms "
                          f"at bound {ifn.bound} (insufficient truncation)")
        results.append((op.label, len(values)))
    return PFReport(geom.name, ifn.bound, tuple(results))


def _max_shift(op: PFOperator) -> tuple[int, ...]:
    return tuple(max(t.shift[i] for t in op.terms) for i in range(op.nvars))


def _box_shifts(geom: Geometry) -> list[tuple[int, ...]]:
    """Minimal nonzero s >= 0 (componentwise) with sector_of(s) == 0.

    N*e_i lies in sector 0 for N the lcm of the sector_map denominators, so
    no minimal shift leaves the box [0, N]^k.
    """
    top = lcm(*(f.denominator for f in geom.sector_map))
    found = [s for s in product(range(top + 1), repeat=len(geom.variables))
             if any(s) and geom.sector_of(s) == 0]
    return [s for s in found
            if not any(t != s and all(a <= b for a, b in zip(t, s))
                       for t in found)]


def _format_form(f: LinForm) -> str:
    names = ("D",) if len(f.d) == 1 else tuple(f"D{i + 1}"
                                               for i in range(len(f.d)))
    out = ""
    for c, name in (*zip(f.d, names), (f.lam, "λ"), (f.zc, "z")):
        if c:
            mag = abs(c)
            mag = ("" if mag == 1 else str(mag) if mag.denominator == 1
                   else f"({mag})")
            out += ("-" if c < 0 else "+" if out else "") + mag + name
    return f"({out or '0'})"


def pf_system(geom: Geometry | str) -> tuple[PFOperator, ...]:
    """The GKZ box operators of the geometry's gamma rows, one per minimal
    sector-0 shift, as derived in the module docstring."""
    geom = as_geometry(geom, "pf_system", PFError)
    nv = len(geom.variables)
    forms = []
    for row in geom.rows:
        r = tuple(Fraction(c, v.denominator) / v.step
                  for c, v in zip(row.charge, geom.variables))
        lam = row.weight + sum(c * v.scalar_exponent
                               for c, v in zip(r, geom.variables))
        forms.append(LinForm(r, lam))
    ops = []
    for s in _box_shifts(geom):
        lhs: list[LinForm] = []
        rhs: list[LinForm] = []
        for j, f in enumerate(forms):
            v = geom.shifted_index(j, s)
            if v.denominator != 1:
                raise PFError(f"{geom.name}: row {j} shifts by {v} under the "
                              f"sector-0 shift {s}, not by an integer")
            (rhs if v < 0 else lhs).extend(
                LinForm(f.d, f.lam, Fraction(-k)) for k in range(abs(int(v))))
        mono = "".join(var.symbol + ("" if var.step * n == 1
                                     else f"^{var.step * n}")
                       for var, n in zip(geom.variables, s) if n)
        label = (("".join(map(_format_form, lhs)) or "1") + " = "
                 + mono + "".join(map(_format_form, rhs)))
        ops.append(PFOperator(label, nv, (
            PFTerm((0,) * nv, Fraction(1), tuple(lhs)),
            PFTerm(s, Fraction(-1), tuple(rhs)))))
    return tuple(ops)


# Chart transport: rewrite an operator under D_i = Σ_j A[i][j] D'_j and a
# monomial substitution shifting the lattice by an integer matrix B (new
# shift = B·old shift), then clear negative shifts.

def transform_chart(op: PFOperator, dmatrix, shift_matrix) -> PFOperator:
    nv = len(dmatrix[0])
    terms = []
    for t in op.terms:
        raw = [sum(Fraction(shift_matrix[i][j]) * t.shift[j]
                   for j in range(op.nvars))
               for i in range(len(shift_matrix))]
        if any(s.denominator != 1 for s in raw):
            raise PFError(f"{op.label}: chart takes shift {t.shift} off the "
                          f"integer lattice")
        new_shift = tuple(int(s) for s in raw)
        new_factors = tuple(
            LinForm(tuple(sum(Fraction(dmatrix[i][j]) * f.d[i]
                              for i in range(op.nvars)) for j in range(nv)),
                    f.lam, f.zc)
            for f in t.factors)
        terms.append(PFTerm(new_shift, t.constant, new_factors))
    mins = tuple(min(t.shift[i] for t in terms) for i in range(nv))
    terms = tuple(PFTerm(tuple(s - m for s, m in zip(t.shift, mins)),
                         t.constant, t.factors) for t in terms)
    return PFOperator(op.label + " (transported)", nv, terms)


def _expand_term(t: PFTerm) -> dict:
    """Expand constant·Πfactors into {(d-exponents, λ-power, z-power): c}."""
    nv = len(t.shift)
    poly = {((0,) * nv, 0, 0): t.constant}
    for f in t.factors:
        nxt = {}
        entries = [((tuple(1 if j == i else 0 for j in range(nv)), 0, 0), c)
                   for i, c in enumerate(f.d) if c]
        if f.lam:
            entries.append((((0,) * nv, 1, 0), f.lam))
        if f.zc:
            entries.append((((0,) * nv, 0, 1), f.zc))
        for key, c in poly.items():
            for (de, le, ze), fc in entries:
                k2 = (tuple(a + b for a, b in zip(key[0], de)),
                      key[1] + le, key[2] + ze)
                nxt[k2] = nxt.get(k2, Fraction(0)) + c * fc
        poly = {k: v for k, v in nxt.items() if v}
    return poly


def canonical_form(op: PFOperator) -> dict:
    out: dict = {}
    for t in op.terms:
        poly = _expand_term(t)
        slot = out.setdefault(t.shift, {})
        for k, v in poly.items():
            slot[k] = slot.get(k, Fraction(0)) + v
    return {s: {k: v for k, v in p.items() if v}
            for s, p in out.items() if any(p.values())}


def proportional(a: PFOperator, b: PFOperator) -> bool:
    """Same operator up to one overall rational scale."""
    ca, cb = canonical_form(a), canonical_form(b)
    if set(ca) != set(cb):
        return False
    scale = None
    for s in ca:
        if set(ca[s]) != set(cb[s]):
            return False
        for k in ca[s]:
            r = ca[s][k] / cb[s][k]
            if scale is None:
                scale = r
            elif r != scale:
                return False
    return scale is not None
