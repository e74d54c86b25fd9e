"""Hypergeometric generating series built from a geometry's gamma rows.

The series of a geometry is

    I = z * (scalar prefactors x_i^(-a_i λ/z))
          * (divisor prefactors x_i^(P_i/z))
          * Σ_n  coeff(n) · Π_i x_i^(step_i · n_i)

where coeff(n) multiplies one gamma ratio per row at shifted index
v_j = Σ_i charge[j][i] n_i / m_i and the sector class of n.  Prefactors are
carried symbolically; coeff(0) is the unit at z^0.

Inverse factors 1/(D + b z) are expanded into finite Laurent polynomials
whenever D is nilpotent with no λ part.  Classes that restrict nontrivially
to a point fixed locus (the Hirzebruch-surface bundle has two such rows)
make the coefficients genuinely rational in z, so coefficients are stored
as a Laurent-polynomial numerator together with a multiset of linear
denominator factors; exact identities are checked by clearing denominators
and z-expansions are produced on request.

Both expansions are one routine, RatAZ.expand: a Laurent long division of
the numerator by the product of the denominator factors, whose leading
z-coefficient is a nonzero scalar.  It builds only the top coefficients of
that product which the requested layers need, so its cost follows the
number of output layers rather than the depth of each factor's series.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import Algebra, AlgebraZ, Element
from .geometry import Geometry, enumerate_degrees
from .lambda_rat import LambdaRat, format_lambda_rat


class IFunctionError(ValueError):
    pass


def _linear(alg: Algebra, d: Element, b: Fraction) -> AlgebraZ:
    """The factor (D + b z)."""
    layers = {0: d}
    if b != 0:
        layers[1] = alg.one() * LambdaRat(b)
    return AlgebraZ(alg, layers)


def _times_linear(p: AlgebraZ, d: Element, b: Fraction) -> AlgebraZ:
    """p · (D + b z): one Element product per layer, the b z part by scaling."""
    out = {e: v * d for e, v in p.layers.items()}
    if b:
        for e, v in p.layers.items():
            w = v * b
            s = out.get(e + 1)
            out[e + 1] = w if s is None else s + w
    return AlgebraZ(p.algebra, out)


def _nilpotency_order(d: Element) -> int | None:
    """Smallest k with d^k = 0, or None if d is not nilpotent."""
    alg = d.algebra
    power = d
    for k in range(1, alg.dim + 2):
        if power.is_zero:
            return k
        power = power * d
    return None


def _den_key(d: Element, b: Fraction):
    """Hashable identity of a denominator factor (D + b z)."""
    return (b, d.coeffs)


def _den_sort_key(t):
    d, b = t
    return (b, tuple(format_lambda_rat(c) for c in d.coeffs))


class RatAZ:
    """AlgebraZ numerator over a multiset of linear factors (D + b z)."""

    __slots__ = ("num", "den")

    def __init__(self, num: AlgebraZ, den=()):
        self.num = num
        self.den = tuple(sorted(den, key=_den_sort_key))

    @property
    def algebra(self) -> Algebra:
        return self.num.algebra

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_laurent(self) -> bool:
        return not self.den

    def as_algebra_z(self) -> AlgebraZ:
        if self.den:
            raise IFunctionError("coefficient has uncleared denominator factors")
        return self.num

    def __eq__(self, other):
        if not isinstance(other, RatAZ):
            return NotImplemented
        return (self - other).is_zero

    def __mul__(self, other):
        if isinstance(other, RatAZ):
            return RatAZ(self.num * other.num, self.den + other.den)
        return RatAZ(self.num * other, self.den)

    __rmul__ = __mul__

    def __neg__(self):
        return RatAZ(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __add__(self, other):
        if not isinstance(other, RatAZ):
            return NotImplemented
        from collections import Counter
        mine = Counter(_den_key(d, b) for d, b in self.den)
        theirs = Counter(_den_key(d, b) for d, b in other.den)
        lookup = {_den_key(d, b): (d, b) for d, b in self.den + other.den}
        union = mine | theirs
        left = self.num
        for key, count in (union - mine).items():
            d, b = lookup[key]
            for _ in range(count):
                left = _times_linear(left, d, b)
        right = other.num
        for key, count in (union - theirs).items():
            d, b = lookup[key]
            for _ in range(count):
                right = _times_linear(right, d, b)
        den = tuple(lookup[key] for key, count in union.items()
                    for _ in range(count))
        return RatAZ(left + right, den)

    def expand(self, zmin: int) -> AlgebraZ:
        """z-adic expansion (around z = ∞) keeping layers with exponent >= zmin.

        One Laurent long division of num by P = Π_j (D_j + b_j z).  P has
        degree m = len(den) in z and the scalar leading coefficient
        (Π b_j)·1, so the quotient starts at qtop = top(num) - m and each
        layer follows from the ones above it:

            q_j = (n_{j+m} - Σ_{i=1..m} p_{m-i} q_{j+i}) / Π b_j.

        Only the top qtop - zmin + 1 coefficients of P enter, so P is built
        only that deep.  With K = qtop - zmin + 1 output layers the cost is
        about m·K Element products for P and K²/2 for the division, whatever
        the nilpotency of the D_j.
        """
        alg = self.algebra
        if any(b == 0 for _, b in self.den):
            raise IFunctionError("cannot expand a z-free denominator factor")
        layers = self.num.layers
        if not layers:
            return AlgebraZ(alg)
        m = len(self.den)
        qtop = max(layers) - m
        if qtop < zmin:
            return AlgebraZ(alg)
        if not m:
            return AlgebraZ(alg, {e: v for e, v in layers.items() if e >= zmin})
        depth = qtop - zmin + 1
        # top[i] is the coefficient of z^(m-i) in P, for i < depth
        top = [alg.one()]
        lead = Fraction(1)
        for d, b in self.den:
            nxt = [c * b for c in top]
            if len(nxt) < depth:
                nxt.append(alg.zero())
            for i, c in enumerate(top[:depth - 1]):
                nxt[i + 1] = nxt[i + 1] + d * c
            top = nxt
            lead *= b
        inv = 1 / lead
        out = {}
        for j in range(qtop, zmin - 1, -1):
            acc = layers.get(j + m)
            for i in range(1, min(m, qtop - j) + 1):
                q = out.get(j + i)
                if q is None or top[i].is_zero:
                    continue
                term = top[i] * q
                acc = -term if acc is None else acc - term
            if acc is not None and not acc.is_zero:
                out[j] = acc * inv
        return AlgebraZ(alg, out)

    def nonequivariant_limit(self) -> "RatAZ":
        return RatAZ(self.num.nonequivariant_limit(),
                     tuple((d.nonequivariant_limit(), b) for d, b in self.den))

    def __repr__(self):
        return f"RatAZ({self.num!r}, den={len(self.den)} factors)"


def _frac_part(v: Fraction) -> Fraction:
    return v - (v.numerator // v.denominator)


def gamma_ratio(d: Element, v: Fraction) -> RatAZ:
    """One row's contribution at shifted index v.

    v <= 0: product of (D + b z) over b in (v, 0] with frac(b) = frac(v).
    v > 0:  inverse of the product over b in (0, v] with the same fractional
    part, expanded to a finite Laurent polynomial when D is nilpotent and
    λ-free, kept as denominator factors otherwise.
    """
    alg = d.algebra
    one = RatAZ(AlgebraZ(alg, {0: alg.one()}))
    if v == 0:
        return one
    f = _frac_part(v)
    if v < 0:
        b = f - 1 if f > 0 else Fraction(0)
        num = one.num
        while b > v:
            num = _times_linear(num, d, b)
            b -= 1
        return RatAZ(num)
    # v > 0
    bs = []
    b = f if f > 0 else Fraction(1)
    while b <= v:
        bs.append(b)
        b += 1
    lam_free = d.coeffs[alg.unit].is_zero
    order = _nilpotency_order(d) if lam_free else None
    dens = tuple((d, b) for b in bs)
    if order is None:
        return RatAZ(one.num, dens)
    # the series is a polynomial of degree < order in D/z times z^-len(bs),
    # so it ends at z^(1 - order - len(bs))
    return RatAZ(RatAZ(one.num, dens).expand(1 - order - len(bs)))


def gamma_ratio_defining_product(d: Element, v: Fraction) -> AlgebraZ:
    """For v > 0, the product that gamma_ratio inverts (test oracle hook)."""
    if v <= 0:
        raise IFunctionError("defining product only applies to v > 0")
    alg = d.algebra
    f = _frac_part(v)
    out = AlgebraZ(alg, {0: alg.one()})
    b = f if f > 0 else Fraction(1)
    while b <= v:
        out = out * _linear(alg, d, b)
        b += 1
    return out


def modification_factor(geom: Geometry, index: tuple[int, ...]) -> RatAZ:
    """Product of the gamma ratios of the λ-carrying (fiber) rows.

    Meaningful for geometries presented by a bundle or quotient-point
    structure, where these rows are exactly the fiber directions.
    """
    alg = geom.algebra
    out = RatAZ(AlgebraZ(alg, {0: alg.one()}))
    for j, row in enumerate(geom.rows):
        if row.weight != 0:
            out = out * gamma_ratio(geom.row_element(j),
                                    geom.shifted_index(j, index))
    return out


class IFunction:
    """Truncated series: coefficients per index, prefactors symbolic."""

    def __init__(self, geometry: Geometry, bound: int,
                 coeffs: dict[tuple[int, ...], RatAZ]):
        self.geometry = geometry
        self.bound = bound
        self.coeffs = coeffs
        self.leading_z = 1  # overall factor z, recorded explicitly

    def indices(self) -> list[tuple[int, ...]]:
        return enumerate_degrees(self.geometry.lattice(self.bound))

    def coefficient(self, index: tuple[int, ...]) -> RatAZ:
        return self.coeffs[tuple(index)]

    def algebra_coefficient(self, index: tuple[int, ...]) -> AlgebraZ:
        return self.coeffs[tuple(index)].as_algebra_z()

    def expanded(self, index: tuple[int, ...], zmin: int) -> AlgebraZ:
        return self.coeffs[tuple(index)].expand(zmin)

    @property
    def scalar_exponents(self) -> tuple[Fraction, ...]:
        return tuple(v.scalar_exponent for v in self.geometry.variables)

    def prefactor_classes(self) -> tuple[Element | None, ...]:
        return tuple(self.geometry.prefactor_element(i)
                     for i in range(len(self.geometry.variables)))


def build_ifunction(geom: Geometry, bound: int) -> IFunction:
    if bound < 0:
        raise IFunctionError("bound must be nonnegative")
    alg = geom.algebra
    coeffs: dict[tuple[int, ...], RatAZ] = {}
    for n in enumerate_degrees(geom.lattice(bound)):
        c = RatAZ(AlgebraZ(alg, {0: alg.one()}))
        for j in range(len(geom.rows)):
            c = c * gamma_ratio(geom.row_element(j), geom.shifted_index(j, n))
        label = geom.sector_label_index(n)
        if label != alg.unit:
            c = c * alg.basis(label)
        coeffs[n] = c
    out = IFunction(geom, bound, coeffs)
    zero = tuple(0 for _ in geom.variables)
    if out.coeffs[zero] != RatAZ(AlgebraZ(alg, {0: alg.one()})):
        raise IFunctionError(f"{geom.name}: zero-index coefficient is not the unit")
    return out


def expand_prefactor(ifn: IFunction, log_order: int
                     ) -> dict[tuple[tuple[int, ...], tuple[int, ...]], RatAZ]:
    """Coefficients of x^n (log x)^c after expanding the divisor prefactors.

    exp(Σ_i P_i log x_i / z) is expanded through total log order log_order;
    classes that square to zero terminate earlier on their own.  The scalar
    x^(-aλ/z) prefactors stay symbolic.
    """
    geom = ifn.geometry
    alg = geom.algebra
    nvar = len(geom.variables)
    prefs = ifn.prefactor_classes()
    powers: list[list[Element]] = []
    for i in range(nvar):
        col = [alg.one()]
        if prefs[i] is not None:
            while len(col) <= log_order:
                nxt = col[-1] * prefs[i]
                if nxt.is_zero:
                    break
                col.append(nxt)
        powers.append(col)

    out: dict[tuple[tuple[int, ...], tuple[int, ...]], RatAZ] = {}

    def rec(i: int, c: list[int], acc: Element, budget: int):
        if i == nvar:
            scale = 1
            for ci in c:
                scale *= factorial(ci)
            term = acc * Fraction(1, scale)
            shift = -sum(c)
            for n, coeff in ifn.coeffs.items():
                val = coeff * AlgebraZ(alg, {shift: term})
                if val.is_zero:
                    continue
                key = (n, tuple(c))
                out[key] = out[key] + val if key in out else val
            return
        for ci in range(min(budget, len(powers[i]) - 1) + 1):
            rec(i + 1, c + [ci], acc * powers[i][ci], budget - ci)

    rec(0, [], alg.one(), log_order)
    return out
