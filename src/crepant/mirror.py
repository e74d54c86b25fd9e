"""Mirror maps, their inverses, J-functions and invariant extraction.

The z^0 layer of a normalized series decomposes over the degree-2 classes:
divisor directions give multiplicative corrections q_i = x_i^{m_i} exp(s_i),
twisted directions give additive coordinates, and the λ·unit component is a
scalar series g removed by multiplying with exp(-λg/z).  Inverting the maps
and substituting produces the J-function, whose z^{-2-k} layers carry the
one-point invariants with k ψ-insertions.

Every q-series here is an MSeries, one truncated series type whose
coefficients are exact: Fraction for the mirror maps and their inverses,
AlgebraZ for the I-series that j_function substitutes, Element for the
exponent E and the z-layers of exp(-E/z).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .algebra import Element
from .geometry import Geometry, enumerate_degrees
from .ifunction import IFunction
from .lambda_rat import LambdaRat, format_lambda_rat


class MirrorError(ValueError):
    pass


class MSeries:
    """Truncated multivariate power series with exact coefficients.

    Keys are lattice exponent tuples; terms of total degree > bound are
    dropped by every operation.  A coefficient is a Fraction (ints are
    coerced), a LambdaRat, an Element or an AlgebraZ, and is dropped where
    its truth value says it is zero.  A factor of * that is not an MSeries
    is a scalar.
    """

    __slots__ = ("nvars", "bound", "coeffs")

    def __init__(self, nvars: int, bound: int, coeffs=None):
        self.nvars = nvars
        self.bound = bound
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if isinstance(v, int):
                    v = Fraction(v)
                if v and sum(k) <= bound:
                    self.coeffs[tuple(k)] = v

    @classmethod
    def variable(cls, nvars: int, bound: int, i: int) -> "MSeries":
        key = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, bound, {key: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self):
        return self.coeffs.get((0,) * self.nvars, Fraction(0))

    def coefficient(self, key):
        return self.coeffs.get(tuple(key), Fraction(0))

    def __eq__(self, other):
        return (isinstance(other, MSeries) and self.nvars == other.nvars
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return MSeries(self.nvars, min(self.bound, other.bound), out)

    def __neg__(self):
        return MSeries(self.nvars, self.bound,
                       {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MSeries):
            return MSeries(self.nvars, self.bound,
                           {k: v * other for k, v in self.coeffs.items()})
        bound = min(self.bound, other.bound)
        out = {}
        for k1, v1 in self.coeffs.items():
            d1 = sum(k1)
            for k2, v2 in other.coeffs.items():
                if d1 + sum(k2) > bound:
                    continue
                k = tuple(a + b for a, b in zip(k1, k2))
                v = v1 * v2
                out[k] = out[k] + v if k in out else v
        return MSeries(self.nvars, bound, out)

    __rmul__ = __mul__

    def exp(self) -> "MSeries":
        if self.constant_term():
            raise MirrorError("exp needs a series with zero constant term")
        out = MSeries(self.nvars, self.bound, {(0,) * self.nvars: 1})
        power = out
        for k in range(1, self.bound + 1):
            power = power * self * Fraction(1, k)
            if power.is_zero:
                break
            out = out + power
        return out

    def substitute(self, values: list["MSeries"]) -> "MSeries":
        """Evaluate at x_i = values[i] (series in the target variables).

        Each values^n is built once, as values^(n - e_i) * values[i] with i
        the last nonzero index of n, and scaled by the coefficient of x^n.
        """
        if len(values) != self.nvars:
            raise MirrorError("substitution arity mismatch")
        if not self.coeffs:
            nv = values[0].nvars if values else self.nvars
            return MSeries(nv, self.bound)
        nv = values[0].nvars
        bound = min([self.bound] + [v.bound for v in values])
        powers = {(0,) * self.nvars: MSeries(nv, bound, {(0,) * nv: 1})}
        out = {}
        for n, c in self.coeffs.items():
            chain = []
            while n not in powers:
                i = max(j for j, e in enumerate(n) if e)
                chain.append((n, i))
                n = n[:i] + (n[i] - 1,) + n[i + 1:]
            for m, i in reversed(chain):
                powers[m] = powers[n] * values[i]
                n = m
            for k, v in powers[n].coeffs.items():
                v = v * c
                out[k] = out[k] + v if k in out else v
        return MSeries(nv, bound, out)

    def __repr__(self):
        items = sorted(self.coeffs.items(), key=lambda t: (sum(t[0]), t[0]))
        inner = ", ".join(f"{k}: {v}" for k, v in items[:6])
        more = "..." if len(items) > 6 else ""
        return f"MSeries({inner}{more})"


@dataclass(frozen=True)
class DivisorDirection:
    variable: int          # index into geometry.variables
    label: int             # degree-2 basis class the prefactor is built on
    monomial: Fraction     # q = x^monomial · exp(correction)
    correction: MSeries


@dataclass(frozen=True)
class TwistedDirection:
    variable: int
    label: int
    series: MSeries        # additive coordinate


@dataclass(frozen=True)
class MirrorData:
    geometry: Geometry
    bound: int
    divisor: tuple[DivisorDirection, ...]
    twisted: tuple[TwistedDirection, ...]
    gseries: MSeries       # λ·unit component of the z^0 layer


def _expect(where: str, name: str, value, kind: type,
            optional: bool = False) -> None:
    """Refuse an argument that is not a kind (or None, if optional) with a
    MirrorError naming the function and the argument."""
    if not isinstance(value, kind) and not (optional and value is None):
        kind = kind.__name__
        article = "an" if kind[0] in "AEIOU" else "a"
        also = " or None" if optional else ""
        raise MirrorError(f"{where}: {name} must be {article} {kind}{also}, "
                          f"not {value!r}")


def _expect_range(ok: bool, where: str, name: str, value, want: str) -> None:
    """Refuse an argument outside its range (ok false) with a MirrorError
    naming the function, the argument and the range it must lie in."""
    if not ok:
        raise MirrorError(f"{where}: {name} must be {want}, not {value!r}")


def _monomial_constant(value: LambdaRat, what: str):
    m = value.as_monomial()
    if m is None:
        raise MirrorError(f"{what}: coefficient {format_lambda_rat(value)} "
                          f"is not a λ-monomial")
    return m


def extract_mirror(ifn: IFunction) -> MirrorData:
    _expect("extract_mirror", "ifn", ifn, IFunction)
    geom = ifn.geometry
    alg = geom.algebra
    nvars = len(geom.variables)
    bound = ifn.bound

    # divisor variables: prefactor must sit on a single degree-2 class
    div_info = {}
    for i, var in enumerate(geom.variables):
        pref = geom.prefactor_element(i)
        if pref is None:
            continue
        support = [j for j, c in enumerate(pref.coeffs) if not c.is_zero]
        if len(support) != 1:
            raise MirrorError(f"{geom.name}: prefactor of "
                              f"{var.symbol} is not a single class")
        label = support[0]
        mono, power = _monomial_constant(pref.coeffs[label], geom.name)
        if power != 0 or alg.degrees[label] != 2:
            raise MirrorError(f"{geom.name}: prefactor class of {var.symbol} "
                              f"is not a constant multiple of a degree-2 class")
        if label in {v[1] for v in div_info.values()}:
            raise MirrorError(f"{geom.name}: two variables share a divisor class")
        div_info[i] = (var.symbol, label, mono)

    # sector-insertion variables: target class from the unit lattice vector
    tw_info = {}
    for i, var in enumerate(geom.variables):
        if i in div_info:
            continue
        e_i = tuple(1 if j == i else 0 for j in range(nvars))
        label = geom.sector_label_index(e_i)
        if alg.degrees[label] != 2:
            raise MirrorError(f"{geom.name}: linear sector class of "
                              f"{var.symbol} has degree {alg.degrees[label]}")
        tw_info[i] = label

    corr = {i: {} for i in div_info}
    tau = {i: {} for i in tw_info}
    g = {}
    label_to_div = {label: i for i, (_, label, _) in div_info.items()}
    label_to_tw = {label: i for i, label in tw_info.items()}

    zero = (0,) * nvars
    for n, c in ifn.coeffs.items():
        ex = c.expand(-1)
        top = ex.coefficient(0)
        if n == zero:
            if top != alg.one():
                raise MirrorError(f"{geom.name}: clump at z^1 (zero-index "
                                  f"z^0 layer is not the unit)")
        elif not top.is_zero:
            raise MirrorError(f"{geom.name}: clump at z^1 at index {n}")
        layer = ex.coefficient(-1)
        if layer.is_zero:
            continue
        for j, coeff in enumerate(layer.coeffs):
            if coeff.is_zero:
                continue
            value, power = _monomial_constant(
                coeff, f"{geom.name}: z^0 layer at {n}")
            if j == alg.unit:
                if power != 1:
                    raise MirrorError(f"{geom.name}: z^0 unit component at "
                                      f"{n} is not linear in λ")
                g[n] = value
            elif alg.degrees[j] != 2 or power != 0:
                raise MirrorError(f"{geom.name}: z^0 layer at {n} meets "
                                  f"class '{alg.labels[j]}' of degree "
                                  f"{alg.degrees[j]}")
            elif j in label_to_div:
                corr[label_to_div[j]][n] = value
            elif j in label_to_tw:
                tau[label_to_tw[j]][n] = value
            else:
                raise MirrorError(f"{geom.name}: degree-2 class "
                                  f"'{alg.labels[j]}' has no direction")

    divisor = tuple(DivisorDirection(i, label, mono,
                                     MSeries(nvars, bound, corr[i]))
                    for i, (_, label, mono) in sorted(div_info.items()))
    twisted = tuple(TwistedDirection(i, label, MSeries(nvars, bound, tau[i]))
                    for i, label in sorted(tw_info.items()))
    for d in divisor:
        if d.correction.constant_term():
            raise MirrorError("correction series has a constant term")
    return MirrorData(geom, bound, divisor, twisted,
                      MSeries(nvars, bound, g))


@dataclass(frozen=True)
class InverseMap:
    """Source variables as series in the target coordinates.

    Target coordinate i is u_i = q_i^(1/m_i) for a divisor direction
    (root-coordinate convention) and the additive twisted coordinate for a
    sector direction.
    """

    geometry: Geometry
    bound: int
    series: tuple[MSeries, ...]


def invert_mirror(data: MirrorData, bound: int | None = None) -> InverseMap:
    _expect("invert_mirror", "data", data, MirrorData)
    _expect_range(bound is None or (type(bound) is int and bound >= 0),
                  "invert_mirror", "bound", bound, "a nonnegative int or None")
    geom = data.geometry
    nvars = len(geom.variables)
    bound = data.bound if bound is None else min(bound, data.bound)
    cur = [MSeries.variable(nvars, bound, i) for i in range(nvars)]
    for _ in range(bound + 1):
        nxt = list(cur)
        for d in data.divisor:
            # u = x·exp(corr/m)  =>  x = u·exp(-corr(x)/m)
            scaled = d.correction.substitute(cur) * (Fraction(-1) / d.monomial)
            nxt[d.variable] = MSeries.variable(nvars, bound, d.variable) \
                * scaled.exp()
        for t in data.twisted:
            # r = τ(x) = x + h(x)  =>  x = r - h(x)
            high = t.series.substitute(cur) - cur[t.variable]
            nxt[t.variable] = MSeries.variable(nvars, bound, t.variable) - high
        cur = nxt
    # exact round trip to the bound
    for d in data.divisor:
        u = MSeries.variable(nvars, bound, d.variable) \
            * (d.correction * (Fraction(1) / d.monomial)).exp()
        if u.substitute(cur) != MSeries.variable(nvars, bound, d.variable):
            raise MirrorError(f"{geom.name}: divisor inversion failed to "
                              f"round-trip")
    for t in data.twisted:
        if t.series.substitute(cur) != MSeries.variable(nvars, bound, t.variable):
            raise MirrorError(f"{geom.name}: twisted inversion failed to "
                              f"round-trip")
    return InverseMap(geom, bound, tuple(cur))


@dataclass(frozen=True)
class JFunction:
    """Remainder layers of J = q^(P/z)·(z + Σ r_j φ_j + O(1/z)).

    layers[e][n] is the element multiplying z^e · (target monomial n); the
    scalar prefactor of the source series was dropped (closure of the cone
    under exp(aλ/z) scalings) and the λ·unit direction removed via the g
    series, so everything below z^1 is log-free.
    """

    geometry: Geometry
    bound: int
    zmin: int
    mirror: MirrorData
    inverse: InverseMap
    layers: dict[int, dict[tuple[int, ...], Element]]

    def layer(self, zexp: int, index) -> Element:
        return self.layers.get(zexp, {}).get(tuple(index),
                                             self.geometry.algebra.zero())


def j_function(ifn: IFunction, data: MirrorData | None = None,
               inverse: InverseMap | None = None, zmin: int = -4) -> JFunction:
    _expect("j_function", "ifn", ifn, IFunction)
    _expect("j_function", "data", data, MirrorData, optional=True)
    _expect("j_function", "inverse", inverse, InverseMap, optional=True)
    # the z^1 and z^0 layers are the ones the shape check below reads
    _expect_range(type(zmin) is int and zmin <= 0, "j_function", "zmin", zmin,
                  "an int <= 0")
    geom = ifn.geometry
    alg = geom.algebra
    nvars = len(geom.variables)
    bound = ifn.bound
    if data is None:
        data = extract_mirror(ifn)
    if inverse is None:
        inverse = invert_mirror(data)

    subs = list(inverse.series)
    zero = (0,) * nvars
    # Σ_n c_n · x(q)^n with c_n expanded down to z^(zmin - 1), by z-layer
    slots: dict[int, dict[tuple[int, ...], Element]] = {}
    series = MSeries(nvars, bound, {n: c.expand(zmin - 1)
                                    for n, c in ifn.coeffs.items()})
    for key, az in series.substitute(subs).coeffs.items():
        for zexp, elem in az.layers.items():
            slots.setdefault(zexp, {})[key] = elem
    base = {zexp: MSeries(nvars, bound, slot) for zexp, slot in slots.items()}

    # exponent E = Σ_i P_i·s_i(x(q)) + λ·g(x(q)); multiply by exp(-E/z)
    e_series = data.gseries.substitute(subs) * (alg.one() * LambdaRat.gen())
    for d in data.divisor:
        e_series = e_series + (d.correction * (Fraction(1) / d.monomial)) \
            .substitute(subs) * (alg.basis(d.label) * LambdaRat(d.monomial))
    if e_series.constant_term():
        raise MirrorError("exponent series has a constant term")

    # exp(-E/z) = Σ (-E)^k/(k! z^k); E starts at total degree 1, and a
    # z-layer takes the k-th term only while it stays at or above zmin - 1
    out = dict(base)
    power = MSeries(nvars, bound, {zero: alg.one()})
    for k in range(1, bound + 1):
        power = power * e_series * Fraction(-1, k)
        if power.is_zero:
            break
        for zexp, s in base.items():
            if zexp - k + 1 >= zmin:
                term = s * power
                if not term.is_zero:
                    out[zexp - k] = out[zexp - k] + term \
                        if zexp - k in out else term

    # overall factor z: shift layers up by one, drop the layers left
    # without entries, and validate the shape
    layers = {zexp + 1: s.coeffs for zexp, s in out.items()
              if zexp + 1 >= zmin and not s.is_zero}
    top = layers.get(1, {})
    if set(top) != {zero} or top[zero] != alg.one():
        raise MirrorError(f"{geom.name}: J leading z layer is not z·unit")
    want = {}
    for t in data.twisted:
        key = tuple(1 if i == t.variable else 0 for i in range(nvars))
        want[key] = alg.basis(t.label)
    got = layers.get(0, {})
    if got != want:
        raise MirrorError(f"{geom.name}: J z^0 layer is not the sum of "
                          f"twisted coordinates ({sorted(got)} vs "
                          f"{sorted(want)})")
    return JFunction(geom, bound, zmin, data, inverse, layers)


@dataclass(frozen=True)
class InvariantRow:
    degree: Fraction
    insertions: str
    value: LambdaRat
    nonequivariant: Fraction | None
    index: tuple[int, ...] | None = None


@dataclass(frozen=True)
class InvariantTable:
    geometry: str
    rows: tuple[InvariantRow, ...]

    def value(self, degree, insertions: str):
        degree = Fraction(degree)
        for r in self.rows:
            if r.degree == degree and r.insertions == insertions:
                return r
        raise KeyError((degree, insertions))

    def as_dict(self) -> dict:
        return {
            "geometry": self.geometry,
            "rows": [
                {
                    "degree": str(r.degree),
                    "insertions": r.insertions,
                    "value": format_lambda_rat(r.value),
                    "nonequivariant": None if r.nonequivariant is None
                    else str(r.nonequivariant),
                    "index": None if r.index is None else list(r.index),
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["degree,insertions,value,nonequivariant"]
        for r in self.as_dict()["rows"]:
            non = "" if r["nonequivariant"] is None else r["nonequivariant"]
            lines.append(f"{r['degree']},\"{r['insertions']}\","
                         f"\"{r['value']}\",{non}")
        return "\n".join(lines) + "\n"


def one_point_invariants(J: JFunction, classes: tuple[str, ...] = ("p",),
                         max_degree: Fraction | int | None = None) -> InvariantTable:
    """⟨α⟩_{0,1,d} along the divisor directions.

    With the unit sitting at z^1, the no-ψ layer is z^{-1}: pairing it with a
    basis class α picks out ⟨α⟩_{0,1,d}.
    """
    _expect("one_point_invariants", "J", J, JFunction)
    _expect_range(max_degree is None or (type(max_degree) in (int, Fraction)
                                         and max_degree >= 0),
                  "one_point_invariants", "max_degree", max_degree,
                  "a nonnegative int or Fraction, or None")
    if isinstance(classes, str):
        # a string would be read one character at a time
        raise MirrorError(f"one_point_invariants: classes must be a tuple of "
                          f"class labels, not the string {classes!r}")
    geom = J.geometry
    alg = geom.algebra
    twisted_vars = {t.variable for t in J.mirror.twisted}
    unknown = [label for label in classes if label not in alg.labels]
    if unknown:
        deg2 = [lbl for lbl, deg in zip(alg.labels, alg.degrees) if deg == 2]
        raise MirrorError(f"{geom.name}: no class labelled "
                          f"{', '.join(map(repr, unknown))}; its degree-2 "
                          f"labels are {', '.join(deg2)}")
    cap = None if max_degree is None else Fraction(max_degree)
    rows = []
    for n in enumerate_degrees(geom.lattice(J.bound)):
        if any(n[i] for i in twisted_vars):
            continue
        d = geom.curve_degree(n)
        if d == 0:
            continue  # unstable range
        if cap is not None and d > cap:
            continue
        for label in classes:
            cls = alg.from_label(label)
            val = alg.pairing(J.layer(-1, n), cls)
            try:
                non = val.nonequivariant_limit()
            except ValueError:
                non = None
            rows.append(InvariantRow(d, label, val, non, n))
    return InvariantTable(geom.name, tuple(rows))


def slice_invariants_ex2(J: JFunction, orders: int = 4) -> InvariantTable:
    """n-fold twisted-unit invariants from the Taylor layers in r.

    Row (n, d) holds (n-1)!·(pairing of the q^d r^{n-1} layer at z^{-1} with
    the twisted class): the r-line of the big J-function restricted to
    τ = P log q + r·1_f, so this is ⟨1_f, …, 1_f⟩_{0,n,d}.  Insertion
    descriptors record n only.
    """
    _expect("slice_invariants_ex2", "J", J, JFunction)
    _expect_range(type(orders) is int and orders >= 0, "slice_invariants_ex2",
                  "orders", orders, "a nonnegative int")
    geom = J.geometry
    alg = geom.algebra
    if len(J.mirror.twisted) != 1:
        raise MirrorError("slice extraction needs exactly one twisted direction")
    t = J.mirror.twisted[0]
    cls = alg.basis(t.label)
    rows = []
    for n in enumerate_degrees(geom.lattice(J.bound)):
        r_pow = n[t.variable]
        count = r_pow + 1
        if count > orders:
            continue
        d = geom.curve_degree(n)
        if d == 0 and count < 3:
            continue  # unstable range
        val = alg.pairing(J.layer(-1, n), cls) * LambdaRat(factorial(r_pow))
        if val.is_zero:
            continue
        try:
            non = val.nonequivariant_limit()
        except ValueError:
            non = None
        rows.append(InvariantRow(d, str(count), val, non, n))
    return InvariantTable(geom.name, tuple(rows))
