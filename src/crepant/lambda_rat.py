"""Exact scalars: rational functions of the equivariant parameter.

Every coefficient in the exact pipeline lives in the field Q(λ).  Values are
stored as a ratio of two polynomials in λ with Fraction coefficients, reduced
so that gcd(num, den) = 1 and the denominator is monic.  λ carries
cohomological degree 2.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _int_gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


class LambdaPoly:
    """Sparse polynomial in λ over Fraction.

    The nonzero terms are kept in one flat tuple (e0, c0, e1, c1, ...) in
    increasing exponent order.  Almost every coefficient of the pipeline is a
    monomial c·λ^k, which this stores as a two-item tuple; a dict would take
    about four times the memory.  Values are immutable and may be shared.
    """

    __slots__ = ("terms",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.terms = ()
        elif isinstance(coeffs, dict):
            self.terms = _pack({e: _as_fraction(c)
                                for e, c in coeffs.items() if c})
        else:
            c = _as_fraction(coeffs)
            self.terms = (0, c) if c else ()

    @staticmethod
    def gen(power: int = 1, coeff=1) -> "LambdaPoly":
        """coeff · λ^power"""
        return LambdaPoly({power: _as_fraction(coeff)})

    @property
    def coeffs(self) -> dict:
        """Exponent -> nonzero coefficient, as a new dict."""
        t = self.terms
        return dict(zip(t[::2], t[1::2]))

    def coeff(self, e: int) -> Fraction:
        t = self.terms
        for i in range(0, len(t), 2):
            if t[i] == e:
                return t[i + 1]
        return _ZERO

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Degree in λ; -1 for the zero polynomial."""
        return self.terms[-2] if self.terms else -1

    def leading(self) -> Fraction:
        return self.terms[-1] if self.terms else _ZERO

    def __eq__(self, other):
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self):
        return _poly(tuple(-x if i & 1 else x
                           for i, x in enumerate(self.terms)))

    def __add__(self, other):
        if not isinstance(other, LambdaPoly):
            other = LambdaPoly(other)
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other
        out = dict(zip(a[::2], a[1::2]))
        for i in range(0, len(b), 2):
            e = b[i]
            s = out.get(e, _ZERO) + b[i + 1]
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _poly(_pack(out))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, LambdaPoly):
            other = LambdaPoly(other)
        return self + (-other)

    def __rsub__(self, other):
        return LambdaPoly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = _as_fraction(other)
            if not c0 or not self.terms:
                return _POLY_ZERO
            return _poly(tuple(x * c0 if i & 1 else x
                               for i, x in enumerate(self.terms)))
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _POLY_ZERO
        out = {}
        for i in range(0, len(a), 2):
            e1, c1 = a[i], a[i + 1]
            for j in range(0, len(b), 2):
                e = e1 + b[j]
                s = out.get(e, _ZERO) + c1 * b[j + 1]
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _poly(_pack(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = LambdaPoly(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "LambdaPoly":
        return self * _as_fraction(c)

    def evaluate(self, lam):
        """Horner evaluation; exact for Fraction input, numeric otherwise."""
        t = self.terms
        if not t:
            return _ZERO if isinstance(lam, (int, Fraction)) else 0 * lam
        acc = None
        prev = None
        for i in range(len(t) - 2, -1, -2):
            e = t[i]
            if acc is None:
                acc = t[i + 1]
            else:
                acc = acc * lam ** (prev - e) + t[i + 1]
            prev = e
        return acc * lam**prev if prev else acc

    def is_monomial(self) -> bool:
        return len(self.terms) == 2

    def __repr__(self):
        return f"LambdaPoly({self.coeffs!r})"


def _pack(coeffs: dict) -> tuple:
    """The flat terms tuple of a dict of nonzero coefficients."""
    out = []
    for e in sorted(coeffs):
        out += (e, coeffs[e])
    return tuple(out)


def _poly(terms: tuple) -> LambdaPoly:
    p = LambdaPoly.__new__(LambdaPoly)
    p.terms = terms
    return p


# shared values of the two constant polynomials every LambdaRat uses most:
# the numerator of zero and the denominator of every value with a constant
# denominator
_POLY_ZERO = _poly(())
_POLY_ONE = LambdaPoly(1)


def _poly_divmod(a: LambdaPoly, b: LambdaPoly):
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q = {}
    r = a.coeffs
    db, lb = b.degree(), b.leading()
    bt = b.terms
    while r:
        dr = max(r)
        if dr < db:
            break
        c = r[dr] / lb
        q[dr - db] = c
        for i in range(0, len(bt), 2):
            k = bt[i] + dr - db
            s = r.get(k, _ZERO) - c * bt[i + 1]
            if s:
                r[k] = s
            else:
                r.pop(k, None)
    return _poly(_pack(q)), _poly(_pack(r))


def _poly_gcd(a: LambdaPoly, b: LambdaPoly) -> LambdaPoly:
    while not b.is_zero:
        a, b = b, _poly_divmod(a, b)[1]
    if a.is_zero:
        return a
    return a * (1 / a.leading())


class LambdaRat:
    """Reduced ratio of LambdaPolys; denominator monic, gcd(num, den) = 1.

    Every value with a constant denominator (zero included) shares the one
    immutable _POLY_ONE, so polynomial values carry no denominator of their
    own.  Arithmetic returns the shared RAT_ZERO for a zero result, and an
    operand itself where the other one is zero.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=None):
        if not isinstance(num, LambdaPoly):
            num = LambdaPoly(num)
        if den is None:
            den = _POLY_ONE
        elif not isinstance(den, LambdaPoly):
            den = LambdaPoly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = _POLY_ZERO
            self.den = _POLY_ONE
            return
        if den.degree() > 0:
            g = _poly_gcd(num, den)
            if g.degree() > 0:
                num = _poly_divmod(num, g)[0]
                den = _poly_divmod(den, g)[0]
        if den.degree() == 0:
            c = den.terms[1]
            if c != _ONE:
                num = num * (1 / c)
            den = _POLY_ONE
        else:
            lc = den.leading()
            if lc != _ONE:
                inv = 1 / lc
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @staticmethod
    def gen(power: int = 1, coeff=1) -> "LambdaRat":
        """coeff · λ^power, power may be negative."""
        if power >= 0:
            return LambdaRat(LambdaPoly.gen(power, coeff))
        return LambdaRat(LambdaPoly(coeff), LambdaPoly.gen(-power))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LambdaRat(other)
        if not isinstance(other, LambdaRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        if not self.num.terms:
            return self
        return _rat(-self.num, self.den)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        if self.den == other.den:
            num = self.num + other.num
            return LambdaRat(num, self.den) if num.terms else RAT_ZERO
        return LambdaRat(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c or not self.num.terms:
                return RAT_ZERO
            return _rat(self.num * c, self.den)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.num.terms or not other.num.terms:
            return RAT_ZERO
        return LambdaRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        if not self.num.terms:
            return RAT_ZERO
        return LambdaRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (LambdaRat(1) / self) ** (-n)
        result = LambdaRat(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "LambdaRat":
        if self.is_zero:
            raise ZeroDivisionError("inverting zero")
        return LambdaRat(self.den, self.num)

    def evaluate(self, lam):
        """Value at λ = lam; exact for Fraction, numeric for mpf/mpc."""
        return self.num.evaluate(lam) / self.den.evaluate(lam)

    def nonequivariant_limit(self) -> Fraction:
        """Value at λ = 0; raises on a pole."""
        d0 = self.den.coeff(0)
        if not d0:
            raise ValueError(f"pole at λ=0: {format_lambda_rat(self)}")
        return self.num.coeff(0) / d0

    def as_monomial(self):
        """(coeff, λ-exponent) when the value is c·λ^k (k may be < 0), else None."""
        if self.is_zero:
            return None
        if not (self.num.is_monomial() and self.den.is_monomial()):
            return None
        en, cn = self.num.terms
        ed, cd = self.den.terms
        return (cn / cd, en - ed)

    def __repr__(self):
        return f"LambdaRat({format_lambda_rat(self)!r})"


def _rat(num: LambdaPoly, den: LambdaPoly) -> LambdaRat:
    """A LambdaRat from a pair already in reduced form."""
    r = LambdaRat.__new__(LambdaRat)
    r.num = num
    r.den = den
    return r


def _coerce(x):
    if isinstance(x, LambdaRat):
        return x
    if isinstance(x, (int, Fraction, LambdaPoly)):
        return LambdaRat(x)
    return None


RAT_ZERO = LambdaRat(0)
RAT_ONE = LambdaRat(1)


# ---------------------------------------------------------------------------
# string form: "N/D" with integer-coefficient polynomials, e.g. "9/λ^3",
# "(-3)/1", "(λ^2 + 3λ)/(λ + 2)".  A side needs parentheses unless it is a
# single term with positive coefficient.

def _poly_text(coeffs: dict) -> str:
    if not coeffs:
        return "0"
    parts = []
    for e in sorted(coeffs, reverse=True):
        c = coeffs[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            lam = "λ" if e == 1 else f"λ^{e}"
            body = lam if mag == 1 else f"{mag}{lam}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _side_text(coeffs: dict) -> str:
    text = _poly_text(coeffs)
    if len(coeffs) == 1 and next(iter(coeffs.values())) > 0:
        return text
    return f"({text})"


def format_lambda_rat(x: LambdaRat) -> str:
    # scale to integer coefficients with coprime content, denominator leading
    # coefficient positive
    mult = 1
    for c in list(x.num.coeffs.values()) + list(x.den.coeffs.values()):
        mult = mult * c.denominator // _int_gcd(mult, c.denominator)
    ncoef = {e: c * mult for e, c in x.num.coeffs.items()}
    dcoef = {e: c * mult for e, c in x.den.coeffs.items()}
    content = 0
    for c in list(ncoef.values()) + list(dcoef.values()):
        content = _int_gcd(content, int(c))
    if content > 1:
        ncoef = {e: c / content for e, c in ncoef.items()}
        dcoef = {e: c / content for e, c in dcoef.items()}
    if dcoef and dcoef[max(dcoef)] < 0:
        ncoef = {e: -c for e, c in ncoef.items()}
        dcoef = {e: -c for e, c in dcoef.items()}
    ncoef = {e: Fraction(c) for e, c in ncoef.items()}
    dcoef = {e: Fraction(c) for e, c in dcoef.items()}
    return f"{_side_text(ncoef)}/{_side_text(dcoef)}"


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\s*\*?\s*)?"
    r"(?:(?:λ|lam)(?:\^(?P<power>\d+))?)?\s*"
)


def _parse_poly(text: str, whole: str = "") -> LambdaPoly:
    """The polynomial text, optionally in parentheses.  whole, when given,
    is the quotient text is one side of; there a side outside parentheses
    may hold one term only."""
    text = text.strip()
    bare = not (text.startswith("(") and text.endswith(")"))
    if not bare:
        text = text[1:-1].strip()
    if not text:
        raise ValueError("empty polynomial")
    coeffs = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial at {text[pos:]!r}")
        sign, coeff, power = m.group("sign"), m.group("coeff"), m.group("power")
        has_lam = "λ" in m.group(0) or "lam" in m.group(0)
        if coeff is None and not has_lam:
            raise ValueError(f"bad polynomial at {text[pos:]!r}")
        if sign is None and not first:
            raise ValueError(f"missing sign in {text!r}")
        if whole and bare and not first:
            raise ValueError(f"{whole!r}: a side of '/' with more than one "
                             "term needs parentheses")
        c = Fraction(int(coeff)) if coeff is not None else _ONE
        if sign == "-":
            c = -c
        e = (int(power) if power is not None else 1) if has_lam else 0
        coeffs[e] = coeffs.get(e, _ZERO) + c
        pos = m.end()
        first = False
    return LambdaPoly(coeffs)


def parse_lambda_rat(text: str) -> LambdaRat:
    """Inverse of format_lambda_rat; also accepts a bare polynomial.  In a
    quotient, a side of more than one term must be in parentheses, so that
    "1 + 9/λ^3" is refused rather than read as 10/λ^3."""
    if not isinstance(text, str):
        raise ValueError(f"parse_lambda_rat: expected a string, not {text!r}")
    depth = 0
    split = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if split is not None:
                raise ValueError(f"more than one '/' in {text!r}")
            split = i
    if split is None:
        return LambdaRat(_parse_poly(text))
    return LambdaRat(_parse_poly(text[:split], text),
                     _parse_poly(text[split + 1:], text))
