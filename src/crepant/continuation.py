"""Analytic continuation across the convergence wall, numerically.

Closed-form continued series for the four built-in pairs, a Gamma calculus
for arguments with nilpotent (divisor-class) parts, a Mellin-Barnes contour
integral used as an independent cross-check, and the connection-matrix solve
that reads off the wall-crossing transformation U by comparing coefficients
of the curve variables on both sides.

Values are high-precision mpmath numbers; working precision is given in
decimal digits (default 64).  Two parameter modes exist everywhere:

  "equivariant-numeric"  numeric lambda and z samples; every coefficient is
                         a single number per basis class,
  "nonequivariant"       lambda = 0 exactly, z kept symbolic; coefficients
                         are finite Laurent polynomials in z and every
                         series terminates, so results are exact to the
                         working precision.

Functions of algebra-valued arguments f(s + t) are evaluated through the
Newton form of the Hermite interpolation of f on the spectrum of t (the
roots of its minimal polynomial, found numerically).  For nilpotent t this
reduces to the finite Taylor jet; for semisimple directions it evaluates f
at the shifted eigenvalues.  Either way the computation is exact and finite,
which matters because the naive polygamma power series diverges on algebras
whose degree-two classes are not nilpotent at numeric lambda.  The Taylor
jets of Gamma, 1/Gamma and digamma take every polygamma order they need from
one shared series (_polygamma_jet): one recurrence shift and one Stirling
tail serve all orders at once.

The Mellin-Barnes integral integrates each component of the kernel along
the contour with Gauss-Legendre quadrature, which needs fewer kernel
evaluations than tanh-sinh when poles sit a few tenths from the line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Optional

from mpmath import mp
from mpmath.libmp import (fhalf, fone, fzero, from_int, mpc_add,
                          mpc_add_mpf, mpc_log, mpc_mul, mpc_mul_int,
                          mpc_mul_mpf, mpc_neg, mpc_pos, mpc_reciprocal,
                          mpc_sub, mpc_zero, mpf_bernoulli, mpf_div, mpf_pos,
                          round_nearest, to_int)

from .algebra import Algebra, AlgebraZ
from .geometry import builtin
from .ifunction import (RatAZ, build_ifunction, expand_prefactor,
                        gamma_ratio)


class ContinuationError(ValueError):
    pass


DEFAULT_DIGITS = 64

_EXAMPLES = {
    "I": "ex1", "II": "ex2", "III": "ex3", "IV": "ex4",
    "ex1": "ex1", "ex2": "ex2", "ex3": "ex3", "ex4": "ex4",
}

# Radius of the convergence wall in the Y-side coordinate that the contour
# integral continues in.
_WALLS = {"ex1": Fraction(1, 27), "ex2": Fraction(1, 27), "ex4": Fraction(1, 4)}


def _example(name: str) -> str:
    key = str(name)
    if key not in _EXAMPLES:
        raise ContinuationError(
            f"unknown example {name!r}; choose from I, II, III, IV")
    return _EXAMPLES[key]


def default_lambda():
    """Generic complex sample placed away from every resonance."""
    return mp.mpc(mp.mpf("0.7"), mp.mpf("0.31"))


def _frac_mp(x: Fraction):
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _to_mp(x):
    if isinstance(x, str):
        try:
            return mp.mpmathify(x)
        except (TypeError, ValueError) as exc:
            raise ContinuationError(f"not a number: {x!r}") from exc
    if isinstance(x, Fraction):
        return _frac_mp(x)
    if isinstance(x, int):
        return mp.mpf(x)
    return mp.mpc(x) if isinstance(x, complex) else x


def _near_int(x, tol) -> Optional[int]:
    if isinstance(x, (int, Fraction)):
        xf = Fraction(x)
        return int(xf) if xf.denominator == 1 else None
    n = mp.nint(mp.re(x))
    if abs(x - n) < tol:
        return int(n)
    return None


# ---------------------------------------------------------------------------
# numeric algebras


class NumericAlgebra:
    """Structure constants of an Algebra evaluated at a lambda sample.

    lam = None means the exact nonequivariant limit lambda = 0.
    """

    def __init__(self, algebra: Algebra, lam, digits: int = DEFAULT_DIGITS):
        self.algebra = algebra
        self.lam = lam
        self.digits = digits
        self.dim = algebra.dim
        self.unit = algebra.unit
        self.labels = algebra.labels
        point = 0 if lam is None else lam
        table = {}
        with mp.workdps(digits + 10):
            for i in range(self.dim):
                for j in range(self.dim):
                    row = []
                    for k in range(self.dim):
                        c = algebra.table[i][j][k]
                        if c.is_zero:
                            continue
                        v = c.evaluate(point)
                        v = _to_mp(v)
                        if v != 0:
                            row.append((k, v))
                    table[(i, j)] = tuple(row)
        self.table = table

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def sector_index(self, f: Fraction) -> int:
        if f == 0:
            return self.unit
        hits = [i for i, s in enumerate(self.algebra.sectors) if s == f]
        if len(hits) != 1:
            raise ContinuationError(
                f"{self.algebra.name}: no unique class in sector {f}")
        return hits[0]


_NA_CACHE: dict = {}


def _numeric_algebra(algebra: Algebra, lam, digits: int) -> NumericAlgebra:
    # keyed on the algebra object, not its name: two configs may share a
    # name and differ in their tables
    key = (id(algebra), None if lam is None else str(lam), digits)
    cached = _NA_CACHE.get(key)
    if cached is None or cached.algebra is not algebra:
        cached = _NA_CACHE[key] = NumericAlgebra(algebra, lam, digits)
    return cached


# ---------------------------------------------------------------------------
# algebra-valued Laurent data


class NilExpansion:
    """Algebra element with high-precision coefficients per z-layer.

    terms maps (basis index, z exponent) to an mpmath number.  In numeric-z
    mode every exponent is 0; in symbolic-z mode exponents are integers and
    the object is a finite Laurent polynomial in z with algebra-element
    coefficients.
    """

    __slots__ = ("na", "terms")

    def __init__(self, na: NumericAlgebra, terms=None):
        self.na = na
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def zero(cls, na):
        return cls(na)

    @classmethod
    def unit(cls, na, scale=1, ze: int = 0):
        return cls(na, {(na.unit, ze): _to_mp(scale)})

    @classmethod
    def basis(cls, na, label: str, scale=1, ze: int = 0):
        return cls(na, {(na.label_index(label), ze): _to_mp(scale)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def component(self, label, ze: int = 0):
        i = label if isinstance(label, int) else self.na.label_index(label)
        return self.terms.get((i, ze), mp.mpf(0))

    def support(self):
        return sorted({ze for (_, ze) in self.terms})

    def maxabs(self):
        return max((abs(v) for v in self.terms.values()), default=mp.mpf(0))

    def unit_scalar(self):
        return self.terms.get((self.na.unit, 0), mp.mpf(0))

    def without_unit_scalar(self) -> "NilExpansion":
        out = dict(self.terms)
        out.pop((self.na.unit, 0), None)
        return NilExpansion(self.na, out)

    def trim(self, tol) -> "NilExpansion":
        return NilExpansion(
            self.na, {k: v for k, v in self.terms.items() if abs(v) > tol})

    def __add__(self, other):
        if not isinstance(other, NilExpansion):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return NilExpansion(self.na, out)

    def __neg__(self):
        return NilExpansion(self.na, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "NilExpansion":
        c = _to_mp(c)
        if c == 0:
            return NilExpansion(self.na)
        return NilExpansion(self.na, {k: v * c for k, v in self.terms.items()})

    def zshift(self, k: int) -> "NilExpansion":
        return NilExpansion(
            self.na, {(i, ze + k): v for (i, ze), v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NilExpansion):
            table = self.na.table
            out: dict = {}
            for (i, e1), c1 in sorted(self.terms.items()):
                for (j, e2), c2 in sorted(other.terms.items()):
                    f = c1 * c2
                    for k, s in table[(i, j)]:
                        key = (k, e1 + e2)
                        acc = out.get(key, 0) + f * s
                        if acc == 0:
                            out.pop(key, None)
                        else:
                            out[key] = acc
            return NilExpansion(self.na, out)
        return self.scale(other)

    __rmul__ = __mul__

    def __repr__(self):
        parts = [f"{self.na.labels[i]}*z^{ze}: {mp.nstr(v, 8)}"
                 for (i, ze), v in sorted(self.terms.items())]
        return "NilExpansion(" + ", ".join(parts) + ")"


def negate_z(x: NilExpansion) -> NilExpansion:
    """Substitute z -> -z on a symbolic-z expansion."""
    return NilExpansion(
        x.na,
        {(i, ze): (v if ze % 2 == 0 else -v)
         for (i, ze), v in x.terms.items()})


# ---------------------------------------------------------------------------
# evaluation of analytic functions on algebra-valued arguments


def _lstsq(a, bs):
    """Least-squares solutions for several right-hand sides.

    The normal equations with pivoted LU are used instead of mpmath's QR:
    the matrices here are sparse with disjoint column supports, and the
    Householder routine hits exact zero pivots on such patterns.
    """
    ah = a.H
    gram = ah * a
    outs = []
    for b in bs:
        try:
            outs.append(mp.lu_solve(gram, ah * b))
        except (ZeroDivisionError, ValueError) as exc:
            raise ContinuationError(f"rank-deficient solve: {exc}") from None
    return outs


_NODE_CACHE: dict = {}


def _eigennodes(t: NilExpansion, digits: int):
    """Spectrum of t with minimal-polynomial multiplicities.

    Returns a list of (eigenvalue, multiplicity).  Nilpotency is detected
    first; otherwise the minimal monic dependence among the powers of t is
    solved for and its roots are clustered.  The same few tails recur
    thousands of times per run, so results are memoized on the exact terms.
    """
    ckey = (id(t.na), digits,
            tuple(sorted((k, repr(v)) for k, v in t.terms.items())))
    hit = _NODE_CACHE.get(ckey)
    if hit is not None:
        return hit
    nodes = _eigennodes_raw(t, digits)
    _NODE_CACHE[ckey] = nodes
    return nodes


def _eigennodes_raw(t: NilExpansion, digits: int):
    na = t.na
    cap = na.dim + 1
    powers = [NilExpansion.unit(na)]
    scale = max(mp.mpf(1), t.maxabs())
    tol = mp.mpf(10) ** (-(digits - 6))
    cur = powers[0]
    for k in range(1, cap + 1):
        cur = cur * t
        if cur.maxabs() <= tol * scale ** k:
            return [(mp.mpf(0), k)]
        powers.append(cur)
    keys = sorted({key for p in powers for key in p.terms})
    rows = len(keys)

    def col(p):
        return [p.terms.get(key, mp.mpf(0)) for key in keys]

    for m in range(1, cap + 1):
        a = mp.matrix(rows, m)
        for j in range(m):
            cj = col(powers[j])
            for r in range(rows):
                a[r, j] = cj[r]
        b = mp.matrix(col(powers[m]))
        try:
            x = _lstsq(a, [b])[0]
        except ContinuationError:
            continue
        resid = mp.norm(a * x - b)
        if resid <= tol * scale ** m * max(1, rows):
            coeffs = [mp.mpc(1)] + [-x[m - 1 - j] for j in range(m)]
            try:
                # multiple roots slow Durand-Kerner down to linear rate,
                # so give it room; the companion matrix is the fallback
                roots = mp.polyroots(coeffs, maxsteps=2000,
                                     extraprec=2 * digits + 40)
            except mp.NoConvergence:
                comp = mp.matrix(m, m)
                for r in range(1, m):
                    comp[r, r - 1] = mp.mpf(1)
                for r in range(m):
                    comp[r, m - 1] = -coeffs[m - r]
                roots, _ = mp.eig(comp)
            roots = sorted(roots, key=lambda r: (mp.re(r), mp.im(r)))
            nodes: list = []
            ctol = mp.mpf(10) ** (-digits // 3) * scale
            for r in roots:
                if nodes and abs(r - nodes[-1][0]) < ctol:
                    mu, mult = nodes[-1]
                    nodes[-1] = ((mu * mult + r) / (mult + 1), mult + 1)
                else:
                    nodes.append((r, 1))
            return nodes
    raise ContinuationError("no minimal polynomial found for the argument")


def _jet(derivs: Callable, x, jmax: int) -> list:
    """Derivatives 0..jmax of derivs at x, batched when supported."""
    batched = getattr(derivs, "jet", None)
    if batched is not None:
        return batched(x, jmax)
    return [derivs(x, j) for j in range(jmax + 1)]


def _apply_analytic(derivs: Callable, s, t: NilExpansion,
                    digits: int) -> NilExpansion:
    """f(s + t) via Hermite interpolation on the spectrum of t.

    derivs(x, j) must return the j-th derivative of f at the scalar x.
    t must have no scalar part on the unit at z^0.
    """
    na = t.na
    if t.is_zero:
        return NilExpansion.unit(na, _jet(derivs, s, 0)[0])
    nodes = _eigennodes(t, digits)
    s_mp = _to_mp(s)
    jets = {}
    seq = []
    for mu, mult in nodes:
        jets[mu] = _jet(derivs, s_mp + mu, mult - 1)
        seq.extend([mu] * mult)
    n = len(seq)
    dd = [[None] * n for _ in range(n)]
    for i in range(n):
        dd[i][i] = jets[seq[i]][0]
    for w in range(1, n):
        for i in range(n - w):
            j = i + w
            if seq[i] == seq[j]:
                dd[i][j] = jets[seq[i]][w] / factorial(w)
            else:
                dd[i][j] = (dd[i + 1][j] - dd[i][j - 1]) / (seq[j] - seq[i])
    acc = NilExpansion.unit(na, dd[0][0])
    prod = NilExpansion.unit(na)
    for j in range(1, n):
        prod = prod * (t - NilExpansion.unit(na, seq[j - 1]))
        acc = acc + prod.scale(dd[0][j])
    return acc


def _bell_jet(base, exponent_derivs, jmax: int):
    """Derivatives of exp(g) given g', g'', ... and the value exp(g(x))."""
    bell = [mp.mpf(1)]
    for m in range(1, jmax + 1):
        total = mp.mpf(0)
        for k in range(m):
            total += comb(m - 1, k) * bell[k] * exponent_derivs[m - 1 - k]
        bell.append(total)
    return [base * b for b in bell]


def _gamma_pole_at(x, tol) -> Optional[int]:
    n = _near_int(x, tol)
    if n is not None and n <= 0:
        return -n
    return None


# per working precision: raw (B_2k, B_2k/(2k)) for k = 1, 2, ...; rounding
# mpmath's cached Bernoulli numbers anew costs more than a multiplication
_BERNOULLI: dict = {}


def _polygamma_jet(x, n: int) -> list:
    """psi^(m)(x) for m = 0..n-1 at the working precision, from one series.

    The recurrence psi^(m)(x) = psi^(m)(y) - (-1)^m m! sum_k (x+k)^-(m+1)
    moves x to y = x + N with Re y >= 0.11 wp + 6; the powers of each
    1/(x+k) serve every order.  At y the Stirling series
    psi^(m)(y) = (-1)^(m+1) [(m-1)! y^-m + m!/2 y^-(m+1)
                 + sum_k B_2k (2k+m-1)!/(2k)! y^-(2k+m)]
    (psi(y) = log y - 1/(2y) - sum_k B_2k/(2k y^2k) for m = 0) shares each
    term B_2k y^-2k across orders.  The tail is asymptotic, so it stops at
    its smallest term if that comes before the working precision; the
    shift makes the smallest term about e^(-2 pi |y|), below 2^-wp.  x must
    not be a pole (a nonpositive integer).  n = 0 returns [].
    """
    if n == 0:
        return []
    x = _to_mp(x)
    prec = mp.prec
    wp = prec + 20
    real = isinstance(x, mp.mpf)
    y = (x._mpf_, fzero) if real else x._mpc_
    shift = [mpc_zero] * n
    for _ in range(int(0.11 * wp) + 6 - to_int(y[0])):
        r = mpc_reciprocal(y, wp)
        power = r
        shift[0] = mpc_add(shift[0], r, wp)
        for m in range(1, n):
            power = mpc_mul(power, r, wp)
            shift[m] = mpc_add(shift[m], power, wp)
        y = mpc_add_mpf(y, fone, wp)
    u = mpc_reciprocal(y, wp)
    u2 = mpc_mul(u, u, wp)
    tails = [mpc_zero] * n
    bern = _BERNOULLI.setdefault(wp, [])
    u2k = u2
    k = 1
    prev = None
    while True:
        if len(bern) < k:
            b = mpf_bernoulli(2 * k, wp)
            bern.append((b, mpf_div(b, from_int(2 * k), wp)))
        b, b_2k = bern[k - 1]
        term = mpc_mul_mpf(u2k, b, wp)
        tails[0] = mpc_add(tails[0], mpc_mul_mpf(u2k, b_2k, wp), wp)
        c = 1  # (2k+m-1)!/(2k)! for m >= 1
        for m in range(1, n):
            tails[m] = mpc_add(tails[m], mpc_mul_int(term, c, wp), wp)
            c *= 2 * k + m
        # a log2 bound on the top order's term relative to its leading term
        mags = [part[2] + part[3] for part in term if part[1]]
        if not mags:
            break
        mag = max(mags) + c.bit_length()
        if mag < -wp or (prev is not None and mag >= prev):
            break
        prev = mag
        u2k = mpc_mul(u2k, u2, wp)
        k += 1
    out = [mpc_sub(mpc_sub(mpc_log(y, wp), mpc_mul_mpf(u, fhalf, wp), wp),
                   mpc_add(tails[0], shift[0], wp), wp)]
    um = u
    fact = 1  # (m-1)!
    for m in range(1, n):
        lead = mpc_add_mpf(mpc_mul_mpf(mpc_mul_int(u, m * fact, wp), fhalf,
                                       wp), from_int(fact), wp)
        fact *= m
        v = mpc_add(mpc_mul(um, mpc_add(lead, tails[m], wp), wp),
                    mpc_mul_int(shift[m], fact, wp), wp)
        out.append(v if m % 2 else mpc_neg(v))
        um = mpc_mul(um, u, wp)
    if real:
        return [mp.make_mpf(mpf_pos(v[0], prec, round_nearest)) for v in out]
    return [mp.make_mpc(mpc_pos(v, prec, round_nearest)) for v in out]


class _GammaDerivs:
    """f = Gamma, via the complete Bell polynomials of the polygammas."""

    def __init__(self, tol):
        self.tol = tol

    def jet(self, x, jmax):
        x = _to_mp(x)
        if _gamma_pole_at(x, self.tol) is not None:
            raise ContinuationError(f"gamma pole at {mp.nstr(x, 8)}")
        return _bell_jet(mp.gamma(x), _polygamma_jet(x, jmax), jmax)

    def __call__(self, x, j):
        return self.jet(x, j)[j]


class _RGammaDerivs:
    """f = 1/Gamma, entire; near the poles of Gamma the reflection form
    1/Gamma(x) = Gamma(1-x) sin(pi x)/pi supplies the jet."""

    def __init__(self, tol):
        self.tol = tol

    def jet(self, x, jmax):
        x = _to_mp(x)
        if _gamma_pole_at(x, self.tol) is None:
            psis = [-v for v in _polygamma_jet(x, jmax)]
            return _bell_jet(mp.rgamma(x), psis, jmax)
        y = 1 - x
        gjet = _bell_jet(mp.gamma(y), _polygamma_jet(y, jmax), jmax)
        out = []
        for j in range(jmax + 1):
            total = mp.mpf(0)
            for k in range(j + 1):
                sin_d = mp.pi ** (j - k) * mp.sinpi(x + mp.mpf(j - k) / 2)
                total += comb(j, k) * (-1) ** k * gjet[k] * sin_d / mp.pi
            out.append(total)
        return out

    def __call__(self, x, j):
        return self.jet(x, j)[j]


def _sinpi_derivs(x, j):
    return mp.pi ** j * mp.sinpi(_to_mp(x) + mp.mpf(j) / 2)


def _cospi_derivs(x, j):
    return mp.pi ** j * mp.cospi(_to_mp(x) + mp.mpf(j) / 2)


class _PsiDerivs:
    def __init__(self, tol):
        self.tol = tol

    def jet(self, x, jmax):
        x = _to_mp(x)
        if _gamma_pole_at(x, self.tol) is not None:
            raise ContinuationError(f"digamma pole at {mp.nstr(x, 8)}")
        return _polygamma_jet(x, jmax + 1)

    def __call__(self, x, j):
        return self.jet(x, j)[j]


def _recip_derivs(x, j):
    x = _to_mp(x)
    return (-1) ** j * mp.mpf(factorial(j)) / x ** (j + 1)


# ---------------------------------------------------------------------------
# parameter frames


class Arg:
    """Affine argument a0 + (alam*lambda + divisor class)/z, symbolically."""

    __slots__ = ("a0", "alam", "div")

    def __init__(self, a0, alam=0, div=()):
        self.a0 = Fraction(a0)
        self.alam = Fraction(alam)
        self.div = tuple(sorted((str(l), Fraction(c)) for l, c in dict(div).items()
                                if Fraction(c) != 0))

    def scaled_tail_of(self, other: "Arg") -> Optional[Fraction]:
        """Ratio N with tail(self) = N * tail(other), or None."""
        if not other.div and not other.alam:
            return None
        if other.alam:
            n = self.alam / other.alam
        else:
            n = Fraction(self.div[0][1], 1) / other.div[0][1] if self.div else None
        if n is None:
            return None
        if self.alam != n * other.alam:
            return None
        mine = dict(self.div)
        theirs = {l: n * c for l, c in other.div}
        return n if mine == theirs else None

    def __repr__(self):
        return f"Arg({self.a0}, {self.alam}, {self.div})"


def _arg(a0, alam=0, **div):
    return Arg(a0, alam, div)


class Frame:
    """Evaluation context: an algebra plus the treatment of lambda and z.

    mode "numeric": lam and z are numbers (z is the actual argument the
    series is evaluated at, so callers wanting f(x, -z) pass the negated
    sample).  mode "symbolic": lambda = 0 exactly and z stays a formal
    variable tracked through integer Laurent exponents.
    """

    def __init__(self, na: NumericAlgebra, mode: str, lam=None, z=None,
                 digits: int = DEFAULT_DIGITS):
        if mode not in ("numeric", "symbolic"):
            raise ContinuationError(f"unknown frame mode {mode!r}")
        self.na = na
        self.mode = mode
        self.lam = lam
        self.z = z
        self.digits = digits
        self.tol = mp.mpf(10) ** (-(digits - 6))
        self._gamma = _GammaDerivs(self.tol)
        self._rgamma = _RGammaDerivs(self.tol)
        self._psi = _PsiDerivs(self.tol)

    # -- scalars and tails ---------------------------------------------------

    def scalar(self, arg: Arg):
        if self.mode == "symbolic":
            return arg.a0
        return _frac_mp(arg.a0) + _frac_mp(arg.alam) * self.lam / self.z

    def tail(self, arg: Arg) -> NilExpansion:
        na = self.na
        out: dict = {}
        for label, c in arg.div:
            i = na.label_index(label)
            if self.mode == "symbolic":
                out[(i, -1)] = _frac_mp(c)
            else:
                out[(i, 0)] = _frac_mp(c) / self.z
        return NilExpansion(na, out)

    def const(self, c) -> NilExpansion:
        return NilExpansion.unit(self.na, _to_mp(c))

    def zero(self) -> NilExpansion:
        return NilExpansion.zero(self.na)

    def zpow(self, x: NilExpansion, k: int) -> NilExpansion:
        if self.mode == "symbolic":
            return x.zshift(k)
        return x.scale(self.z ** k)

    def scalar_int(self, arg: Arg) -> Optional[int]:
        if self.mode == "symbolic" or arg.alam == 0:
            # exact scalar: resonance is a structural fact, not an accident
            return int(arg.a0) if arg.a0.denominator == 1 else None
        s = self.scalar(arg)
        n = _near_int(s, mp.mpf(10) ** (-12))
        if n is not None:
            raise ContinuationError(
                "parameter sample resonates: argument "
                f"{mp.nstr(_to_mp(s), 10)} is too close to the integer {n}")
        return None

    # -- special functions -----------------------------------------------------

    def _apply(self, derivs, arg: Arg) -> NilExpansion:
        return _apply_analytic(derivs, self.scalar(arg), self.tail(arg),
                               self.digits)

    def gamma(self, arg: Arg) -> NilExpansion:
        return self._apply(self._gamma, arg)

    def rgamma(self, arg: Arg) -> NilExpansion:
        if self.mode == "symbolic" and not arg.div:
            m = _gamma_pole_at(self.scalar(arg), self.tol)
            if m is not None:
                return self.zero()  # exact zero of 1/Gamma
        return self._apply(self._rgamma, arg)

    def sinpi(self, arg: Arg) -> NilExpansion:
        return self._apply(_sinpi_derivs, arg)

    def cospi(self, arg: Arg) -> NilExpansion:
        return self._apply(_cospi_derivs, arg)

    def psi(self, arg: Arg) -> NilExpansion:
        return self._apply(self._psi, arg)

    def recip(self, x: NilExpansion) -> NilExpansion:
        c = x.unit_scalar()
        if abs(c) < self.tol:
            raise ContinuationError("reciprocal of a value with no scalar part")
        return _apply_analytic(_recip_derivs, c, x.without_unit_scalar(),
                               self.digits)

    def gamma_st(self, scalar, tail: NilExpansion) -> NilExpansion:
        return _apply_analytic(self._gamma, scalar, tail, self.digits)

    def rgamma_st(self, scalar, tail: NilExpansion) -> NilExpansion:
        return _apply_analytic(self._rgamma, scalar, tail, self.digits)

    def sin_ratio(self, arga: Arg, argb: Arg, n) -> NilExpansion:
        """sin(pi*arga)/sin(pi*argb) where tail(arga) = n*tail(argb).

        Away from resonance this is an honest quotient.  When argb has an
        integer scalar part both sines vanish on the nilpotent locus and the
        quotient is the Chebyshev polynomial U_{|n|-1}(cos(pi*tail)), up to
        the sign carried by the integer parts.
        """
        n = Fraction(n)
        if n.denominator != 1:
            raise ContinuationError("sine ratio needs an integer multiplier")
        got = arga.scaled_tail_of(argb)
        if got is None or got != n:
            raise ContinuationError("sine ratio tails are not aligned")
        sb = self.scalar_int(argb)
        if sb is None:
            return self.sinpi(arga) * self.recip(self.sinpi(argb))
        sa = self.scalar_int(arga)
        if sa is None:
            raise ContinuationError(
                "resonant denominator with non-integer numerator; the "
                "accompanying reciprocal-gamma zero must remove this term")
        t = self.tail(argb)
        c = _apply_analytic(_cospi_derivs, 0, t, self.digits)
        m = abs(int(n))
        u_prev = self.const(1)          # U_0
        u = c.scale(2)                  # U_1
        for _ in range(m - 2):
            u, u_prev = c.scale(2) * u - u_prev, u
        val = u_prev if m == 1 else u
        sign = (-1) ** ((sa + sb) % 2) * (1 if n > 0 else -1)
        return val.scale(sign)


# ---------------------------------------------------------------------------
# continued series for the built-in pairs


@dataclass(frozen=True)
class ContinuedSeries:
    """Coefficients of the continued Y-side series over the X-side lattice.

    terms maps (index tuple, log-power tuple) to the coefficient in H(Y);
    the keys mirror the partner geometry's expansion variables, and the
    stripped scalar prefactors x_i^(-a_i*lambda/z) are recorded in
    scalar_exponents (they must agree with the partner's).  The values are
    the coefficients of the series evaluated at negated z, i.e. in the frame
    in which the connection matrix is read off.
    """

    example: str
    geometry: str
    mode: str
    lam: Optional[str]
    z: Optional[str]
    digits: int
    truncation: int
    scalar_exponents: tuple
    steps: tuple
    terms: dict
    na: NumericAlgebra


def _terms_ex1(fr: Frame, bound: int) -> dict:
    out = {}
    for n in range(bound + 1):
        rg = fr.rgamma(_arg(1 - Fraction(n, 3), Fraction(1, 3)))
        if rg.is_zero:
            continue  # reciprocal-gamma zero kills the whole term
        ratio = fr.sin_ratio(_arg(0, 1, p=-3),
                             _arg(Fraction(-n, 3), Fraction(1, 3), p=-1), 3)
        g1 = fr.gamma(_arg(1, 0, p=1))
        gw = fr.gamma(_arg(1, 1, p=-3))
        val = ratio * g1 * g1 * g1 * rg * rg * rg * gw
        val = fr.zpow(val, 1).scale(Fraction((-1) ** n, 3 * factorial(n)))
        out[((n,), (0,))] = val
    return out


def _terms_ex2(fr: Frame, bound: int, kmax: Optional[int] = None) -> dict:
    out: dict = {}
    p1 = NilExpansion.basis(fr.na, "p1")
    p1 = p1.zshift(-1) if fr.mode == "symbolic" else p1.scale(1 / fr.z)
    logpows = [fr.const(1)]
    while len(logpows) <= 2:
        nxt = logpows[-1] * p1
        if nxt.is_zero:
            break
        logpows.append(nxt)
    ktop = bound if kmax is None else min(kmax, bound)
    for k in range(ktop + 1):
        for n in range(bound + 1 - k):
            rg_res = fr.rgamma(_arg(1 - Fraction(5 * k + n, 3), 1,
                                    p1=Fraction(-5, 3)))
            if rg_res.is_zero:
                continue
            ratio = fr.sin_ratio(
                _arg(0, 0, p1=1, p2=-3),
                _arg(Fraction(k - n, 3), 0, p1=Fraction(1, 3), p2=-1), 3)
            g2 = fr.gamma(_arg(1, 0, p2=1))
            rg2 = fr.rgamma(_arg(1 + Fraction(k - n, 3), 0, p1=Fraction(1, 3)))
            gp1 = fr.gamma(_arg(1, 0, p1=1))
            rgp1k = fr.rgamma(_arg(1 + k, 0, p1=1))
            gb = fr.gamma(_arg(1, 0, p1=1, p2=-3))
            gc = fr.gamma(_arg(1, 1, p1=-2, p2=1))
            base = ratio * g2 * g2 * rg2 * rg2 * gp1 * rgp1k * gb * gc * rg_res
            base = fr.zpow(base, 1).scale(
                Fraction((-1) ** (n + k), 3 * factorial(n)))
            for c, dress in enumerate(logpows):
                val = (base * dress).scale(Fraction(1, factorial(c)))
                if not val.is_zero:
                    key = ((k, n), (c, 0))
                    out[key] = out[key] + val if key in out else val
    return out


def _terms_ex3(fr: Frame, bound: int) -> dict:
    out: dict = {}
    for nh in range(bound + 1):
        for e in range(bound + 1 - nh):
            for abar in range(3):
                c1 = Fraction(abar - e, 3)
                f1 = c1 - (c1.numerator // c1.denominator)
                b1 = f1 if f1 > 0 else Fraction(1)
                cw = Fraction(5 * abar + e, 3)
                phi = cw - (cw.numerator // cw.denominator)
                mint = int(cw - phi)
                fw = (1 - phi) if phi > 0 else Fraction(0)
                bw = fw if fw > 0 else Fraction(1)
                sig = Fraction(e - abar, 3)
                sig = sig - (sig.numerator // sig.denominator)
                nu = 2 * (b1 - 1 - c1) + (bw - 1 + cw) - abar - e
                assert nu.denominator == 1
                # reciprocal-gamma factors; their zeros (inherited from the
                # arguments hitting nonpositive integers at lambda = 0) kill
                # the term exactly, and they do so for both factors at once
                rga = fr.rgamma(_arg(1 - Fraction(2 * e + nh, 5),
                                     Fraction(1, 5)))
                rgb = fr.rgamma(_arg(1 - Fraction(e + 3 * nh, 5),
                                     Fraction(3, 5)))
                if fr.mode == "symbolic":
                    assert rga.is_zero == rgb.is_zero
                if rga.is_zero or rgb.is_zero:
                    continue
                # resonance of the sine quotient happens only on untwisted
                # residue families (phi = 0 forces the target sector to 0)
                if phi == 0:
                    assert sig == 0
                ratio = fr.sin_ratio(
                    _arg(phi, -1, p=5),
                    _arg(-(mint + phi + nh) / Fraction(5), Fraction(1, 5),
                         p=-1), -5)
                gp = fr.gamma(Arg(b1, 0, {"p": 1}))
                gw = fr.gamma(Arg(bw, 1, {"p": -5}))
                gq = fr.gamma(_arg(1, 0, p=3))
                val = ratio * gp * gp * gw * gq * rga * rga * rgb
                val = val * NilExpansion.basis(fr.na, fr.na.labels[
                    fr.na.sector_index(sig)])
                scale = Fraction((-1) ** (mint % 2 + nh % 2),
                                 5 * factorial(e) * factorial(nh))
                # overall -1: orientation of the closed contour, anchored so
                # the unit monomial reproduces the unit column
                val = fr.zpow(val, 1 + int(nu)).scale(-scale)
                key = ((nh, e), (0, 0))
                out[key] = out[key] + val if key in out else val
    return out


def _terms_ex4(fr: Frame, bound: int) -> dict:
    out: dict = {}
    d_arg = _arg(0, 1, p=-1)
    b_arg = _arg(0, 2, p=-2)
    for idx in range(bound + 1):
        if idx % 2 == 1:
            k = (idx - 1) // 2
            rg = fr.rgamma(_arg(Fraction(1, 2) - k, 1))
            num = fr.sinpi(d_arg) * fr.sinpi(b_arg)
            den = fr.recip(fr.sinpi(_arg(-(k + Fraction(1, 2)), 1, p=-1)))
            g1 = fr.gamma(_arg(1, 0, p=1))
            ghalf = fr.const(mp.gamma(-(k + mp.mpf(1) / 2)))
            gb = fr.gamma(_arg(1, 2, p=-2))
            gc = fr.gamma(_arg(1, 1, p=-1))
            val = num * den * g1 * g1 * g1 * rg * rg * rg * ghalf * gb * gc
            val = fr.zpow(val, 1).scale(
                _frac_mp(Fraction(1, 2 * factorial(2 * k + 1))) / mp.pi)
            out[((idx,), (0,))] = val
        else:
            n = idx // 2
            rg = fr.rgamma(_arg(1 - n, 1))
            if rg.is_zero:
                continue  # the cubed zero beats the digamma pole
            g1 = fr.gamma(_arg(1, 0, p=1))
            gb = fr.gamma(_arg(1, 2, p=-2))
            gc = fr.gamma(_arg(1, 1, p=-1))
            base = g1 * g1 * g1 * rg * rg * rg * gb * gc
            base = fr.zpow(base, 1).scale(
                Fraction(1, 2 * factorial(n) * factorial(2 * n)))
            r = fr.sinpi(b_arg).scale(1 / mp.pi)
            harm = (2 * mp.harmonic(2 * n) + mp.harmonic(n) - 3 * mp.euler)
            beta = fr.const(harm) - fr.psi(_arg(1 - n, 1)).scale(3)
            cos2 = fr.cospi(d_arg)
            cos2 = (cos2 * cos2).scale(2)  # sin(2pi D) cot(pi D) combined
            plain = base * (cos2 - r * beta)
            logc = base * r
            if not plain.is_zero:
                out[((idx,), (0,))] = plain
            if not logc.is_zero:
                out[((idx,), (1,))] = logc
    return out


_TERM_BUILDERS = {
    "ex1": _terms_ex1, "ex2": _terms_ex2, "ex3": _terms_ex3, "ex4": _terms_ex4,
}


def continued_ifunction(example, truncation: int,
                        mode: str = "equivariant-numeric",
                        lam=None, z=None,
                        digits: int = DEFAULT_DIGITS) -> ContinuedSeries:
    """Closed-form continuation of the Y-side series past the wall.

    The result collects coefficients of the X-side curve variables (and log
    powers where divisor prefactors force them); values are taken at
    negated z so they compare directly against the partner series in the
    connection solve.
    """
    ex = _example(example)
    if truncation < 0:
        raise ContinuationError("truncation must be nonnegative")
    g_y = builtin(ex + "-Y")
    g_x = builtin(ex + "-X")
    with mp.workdps(digits + 10):
        if mode == "equivariant-numeric":
            lam = default_lambda() if lam is None else _to_mp(lam)
            z = mp.mpf(1) if z is None else _to_mp(z)
            na = _numeric_algebra(g_y.algebra, lam, digits)
            fr = Frame(na, "numeric", lam=lam, z=-z, digits=digits)
            terms = _TERM_BUILDERS[ex](fr, truncation)
        elif mode == "nonequivariant":
            if lam not in (None, 0):
                raise ContinuationError(
                    "nonequivariant mode fixes lambda = 0")
            na = _numeric_algebra(g_y.algebra, None, digits)
            fr = Frame(na, "symbolic", digits=digits)
            terms = {k: negate_z(v)
                     for k, v in _TERM_BUILDERS[ex](fr, truncation).items()}
        else:
            raise ContinuationError(f"unknown mode {mode!r}")
    return ContinuedSeries(
        example=ex, geometry=g_y.name, mode=mode,
        lam=None if mode == "nonequivariant" else mp.nstr(lam, digits),
        z=None if mode == "nonequivariant" else mp.nstr(z, digits),
        digits=digits, truncation=truncation,
        scalar_exponents=tuple(v.scalar_exponent for v in g_x.variables),
        steps=tuple(v.step for v in g_x.variables),
        terms=terms, na=na)


# ---------------------------------------------------------------------------
# partner-side series evaluated in the matching frame


def _rataz_numeric(co: RatAZ, na: NumericAlgebra, lam, z) -> NilExpansion:
    out: dict = {}
    for e, elem in sorted(co.num.layers.items()):
        zi = z ** e
        for i, c in enumerate(elem.coeffs):
            if c.is_zero:
                continue
            v = _to_mp(c.evaluate(lam)) * zi
            key = (i, 0)
            acc = out.get(key, 0) + v
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    val = NilExpansion(na, out)
    if co.den:
        fr = Frame(na, "numeric", lam=lam, z=z, digits=na.digits)
        for d, b in co.den:
            fac: dict = {}
            for i, c in enumerate(d.coeffs):
                if not c.is_zero:
                    fac[(i, 0)] = _to_mp(c.evaluate(lam))
            fac[(na.unit, 0)] = fac.get((na.unit, 0), 0) + _frac_mp(b) * z
            val = val * fr.recip(NilExpansion(na, fac))
    return val


def _rataz_symbolic(co: RatAZ, na: NumericAlgebra,
                    zmin: Optional[int] = None) -> NilExpansion:
    lim = co.nonequivariant_limit()
    if zmin is None:
        # at lambda = 0 every denominator class is nilpotent, so the z-adic
        # expansion terminates; this floor is below the last nonzero layer
        if lim.num.is_zero:
            return NilExpansion(na)
        zmin = min(lim.num.support()) - len(lim.den) * (na.dim + 1)
    az = lim.expand(zmin)
    out: dict = {}
    for e, elem in az.layers.items():
        for i, c in enumerate(elem.coeffs):
            if not c.is_zero:
                out[(i, e)] = _frac_mp(c.nonequivariant_limit())
    return NilExpansion(na, out)


def xside_terms(example, truncation: int, mode: str = "equivariant-numeric",
                lam=None, z=None, digits: int = DEFAULT_DIGITS,
                zmin: Optional[int] = None):
    """Coefficients of the partner (X-side) series at negated z.

    Returns (terms, numeric algebra, scalar exponents); the term keys match
    continued_ifunction's and the overall leading z factor is included.
    In nonequivariant mode the coefficients are exact finite Laurent
    polynomials in z (zmin = None expands far enough to prove termination).
    """
    ex = _example(example)
    g_x = builtin(ex + "-X")
    ifn = build_ifunction(g_x, truncation)
    pre = expand_prefactor(ifn, log_order=3)
    with mp.workdps(digits + 10):
        if mode == "equivariant-numeric":
            lam = default_lambda() if lam is None else _to_mp(lam)
            z = mp.mpf(1) if z is None else _to_mp(z)
            na = _numeric_algebra(g_x.algebra, lam, digits)
            zeff = -z
            terms = {}
            for key in sorted(pre):
                val = _rataz_numeric(pre[key], na, lam, zeff).scale(zeff)
                if not val.is_zero:
                    terms[key] = val
        elif mode == "nonequivariant":
            na = _numeric_algebra(g_x.algebra, None, digits)
            terms = {}
            for key in sorted(pre):
                base = _rataz_symbolic(pre[key], na, zmin)
                flip = negate_z(base).zshift(1).scale(-1)  # times -z
                if not flip.is_zero:
                    terms[key] = flip
        else:
            raise ContinuationError(f"unknown mode {mode!r}")
    return terms, na, tuple(v.scalar_exponent for v in g_x.variables)


# ---------------------------------------------------------------------------
# connection-matrix solve


@dataclass(frozen=True)
class UMatrix:
    """Wall-crossing transformation, one column per X-side basis class.

    entries[i][j] is a tuple of (z exponent, coefficient) pairs giving the
    H(Y)-component i of the image of the j-th X-side class.  In numeric mode
    all exponents are 0 and the metadata records the (lambda, z) sample.
    """

    example: str
    mode: str
    lam: Optional[str]
    z: Optional[str]
    digits: int
    truncation: int
    xlabels: tuple
    ylabels: tuple
    entries: tuple
    residual: object

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def entry_value(self, i: int, j: int, zval=1):
        zval = _to_mp(zval)
        return sum((c * zval ** k for k, c in self.entries[i][j]), mp.mpf(0))

    def column(self, j: int) -> dict:
        out = {}
        for i in range(len(self.ylabels)):
            for k, c in self.entries[i][j]:
                out[(self.ylabels[i], k)] = c
        return out

    def scalar_matrix(self):
        """mpmath matrix of entry values; numeric mode only."""
        n, m = len(self.ylabels), len(self.xlabels)
        out = mp.matrix(n, m)
        for i in range(n):
            for j in range(m):
                out[i, j] = self.entry_value(i, j)
        return out

    def to_json(self) -> str:
        def triple(k, c):
            return [k, mp.nstr(mp.re(c), self.digits),
                    mp.nstr(mp.im(c), self.digits)]

        payload = {
            "example": self.example,
            "mode": self.mode,
            "lambda": self.lam,
            "z": self.z,
            "digits": self.digits,
            "truncation": self.truncation,
            "xlabels": list(self.xlabels),
            "ylabels": list(self.ylabels),
            "entries": [
                [[triple(k, c) for k, c in sorted(cell)] for cell in row]
                for row in self.entries
            ],
            "residual": mp.nstr(self.residual, 20),
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def solve_connection(xterms: dict, yterms: dict, na_x: NumericAlgebra,
                     na_y: NumericAlgebra, mode: str,
                     digits: int = DEFAULT_DIGITS, kwin: int = 4):
    """Solve U * (X coefficients) = (Y coefficients) over all monomial keys.

    Returns (entries, worst residual).  The system is over-determined; the
    reported residual is the largest absolute defect over all equations.
    """
    keys = sorted(set(xterms) | set(yterms))
    if not keys:
        raise ContinuationError("no monomials to match")
    dim_x, dim_y = na_x.dim, na_y.dim
    zero_x = NilExpansion.zero(na_x)
    zero_y = NilExpansion.zero(na_y)
    with mp.workdps(digits + 10):
        if mode == "equivariant-numeric":
            rows = len(keys)
            if rows < dim_x + 1:
                raise ContinuationError("truncation too small for the solve")
            a = mp.matrix(rows, dim_x)
            for r, key in enumerate(keys):
                xc = xterms.get(key, zero_x)
                for j in range(dim_x):
                    a[r, j] = xc.component(j, 0)
            entries = [[None] * dim_x for _ in range(dim_y)]
            worst = mp.mpf(0)
            bs = [mp.matrix([yterms.get(key, zero_y).component(i, 0)
                             for key in keys]) for i in range(dim_y)]
            for i, x in enumerate(_lstsq(a, bs)):
                worst = max(worst, mp.norm(a * x - bs[i], p=mp.inf))
                for j in range(dim_x):
                    entries[i][j] = ((0, x[j]),)
            return tuple(tuple(r) for r in entries), worst

        # symbolic z: unknowns are Laurent coefficients per entry; both
        # sides are exact finite Laurent data, so every layer is a valid
        # equation (including the ones that force stray layers to vanish)
        ks = list(range(-kwin, kwin + 1))
        unknowns = [(j, k) for j in range(dim_x) for k in ks]
        eqs = []
        for key in keys:
            xc = xterms.get(key, zero_x)
            yc = yterms.get(key, zero_y)
            layers = set(yc.support())
            for ze in xc.support():
                layers.update(ze + k for k in ks)
            for f in sorted(layers):
                eqs.append((key, f))
        if len(eqs) < len(unknowns):
            raise ContinuationError("truncation too small for the solve")
        a = mp.matrix(len(eqs), len(unknowns))
        for r, (key, f) in enumerate(eqs):
            xc = xterms.get(key, zero_x)
            for cidx, (j, k) in enumerate(unknowns):
                a[r, cidx] = xc.terms.get((j, f - k), mp.mpf(0))
        entries = [[None] * dim_x for _ in range(dim_y)]
        worst = mp.mpf(0)
        drop = mp.mpf(10) ** (-(digits // 2))
        pos = {u: c for c, u in enumerate(unknowns)}
        bs = [mp.matrix([yterms.get(key, zero_y).terms.get((i, f), mp.mpf(0))
                         for (key, f) in eqs]) for i in range(dim_y)]
        for i, x in enumerate(_lstsq(a, bs)):
            worst = max(worst, mp.norm(a * x - bs[i], p=mp.inf))
            for j in range(dim_x):
                cell = tuple((k, x[pos[(j, k)]]) for k in ks
                             if abs(x[pos[(j, k)]]) > drop)
                entries[i][j] = cell
        return tuple(tuple(r) for r in entries), worst


def solve_umatrix(example, truncation: Optional[int] = None,
                  mode: str = "nonequivariant", lam=None, z=None,
                  digits: int = DEFAULT_DIGITS) -> UMatrix:
    """Read off the connection matrix by matching series coefficients.

    The continued Y-side series and the X-side series are produced at the
    same parameter treatment, their common scalar prefactors are checked to
    agree and stripped, and the resulting over-determined linear system is
    solved; the worst equation residual is reported in the result.
    """
    ex = _example(example)
    g_x = builtin(ex + "-X")
    g_y = builtin(ex + "-Y")
    if truncation is None:
        truncation = g_x.algebra.dim + 2
    cs = continued_ifunction(ex, truncation, mode=mode, lam=lam, z=z,
                             digits=digits)
    xt, na_x, scal = xside_terms(ex, truncation, mode=mode, lam=lam, z=z,
                                 digits=digits)
    if scal != cs.scalar_exponents:
        raise ContinuationError(
            "scalar prefactors of the two sides do not agree")
    entries, residual = solve_connection(xt, cs.terms, na_x, cs.na, mode,
                                         digits=digits)
    return UMatrix(
        example=ex, mode=mode, lam=cs.lam, z=cs.z, digits=digits,
        truncation=truncation, xlabels=g_x.algebra.labels,
        ylabels=g_y.algebra.labels, entries=entries, residual=residual)


# ---------------------------------------------------------------------------
# Mellin-Barnes contour integral


@dataclass(frozen=True)
class MBResult:
    """Contour-integral value with its error budget and bookkeeping."""

    example: str
    value: NilExpansion
    error: object
    side: str
    sigma: object
    height: object
    wall: Fraction
    corrections: int
    endpoint_magnitude: object


def _exp_nil(fr: Frame, x: NilExpansion) -> NilExpansion:
    out = fr.const(1)
    power = fr.const(1)
    for k in range(1, x.na.dim + 2):
        power = power * x
        if power.is_zero:
            break
        out = out + power.scale(Fraction(1, factorial(k)))
    else:
        raise ContinuationError("exponential of a non-nilpotent element")
    return out


class _Kernel:
    """Integrand of the continuation contour for one example.

    Arranged so that the residue at a right pole s = d equals the d-th term
    of the inside series and the residue at each left pole equals minus the
    matching term of the continued series.
    """

    def __init__(self, ex: str, fr: Frame, q):
        self.ex = ex
        self.fr = fr
        self.q = _to_mp(q)
        self.logq = mp.log(self.q)
        na = fr.na
        if ex == "ex1":
            self.pdress = _exp_nil(
                fr, NilExpansion.basis(na, "p", self.logq / fr.z))
            w = fr.gamma(_arg(1, 1, p=-3))
            g = fr.gamma(_arg(1, 0, p=1))
            self.head = (g * g * g * w * fr.sinpi(_arg(0, 1, p=-3))
                         ).scale(-fr.z / mp.pi)
            self.wtail = fr.tail(_arg(0, 1, p=-3))
            self.wscal = fr.scalar(_arg(0, 1, p=-3))
            self.ptail = fr.tail(_arg(0, 0, p=1))
        elif ex == "ex2":
            self.pdress = _exp_nil(
                fr, NilExpansion.basis(na, "p2", self.logq / fr.z))
            g2 = fr.gamma(_arg(1, 0, p2=1))
            gb = fr.gamma(_arg(1, 0, p1=1, p2=-3))
            gc = fr.gamma(_arg(1, 1, p1=-2, p2=1))
            self.head = (g2 * g2 * gb * gc * fr.sinpi(_arg(0, 0, p1=1, p2=-3))
                         ).scale(-fr.z / mp.pi)
            self.wtail = fr.tail(_arg(0, 0, p1=1, p2=-3))
            self.wscal = fr.scalar(_arg(0, 0, p1=1, p2=-3))
            self.p2tail = fr.tail(_arg(0, 0, p2=1))
            self.ctail = fr.tail(_arg(0, 1, p1=-2, p2=1))
            self.cscal = fr.scalar(_arg(0, 1, p1=-2, p2=1))
        elif ex == "ex4":
            self.pdress = _exp_nil(
                fr, NilExpansion.basis(na, "p", self.logq / fr.z))
            g = fr.gamma(_arg(1, 0, p=1))
            gb = fr.gamma(_arg(1, 2, p=-2))
            gc = fr.gamma(_arg(1, 1, p=-1))
            sins = fr.sinpi(_arg(0, 2, p=-2)) * fr.sinpi(_arg(0, 1, p=-1))
            self.head = (g * g * g * gb * gc * sins).scale(fr.z / mp.pi ** 2)
            self.btail = fr.tail(_arg(0, 2, p=-2))
            self.bscal = fr.scalar(_arg(0, 2, p=-2))
            self.ctail = fr.tail(_arg(0, 1, p=-1))
            self.cscal = fr.scalar(_arg(0, 1, p=-1))
            self.ptail = fr.tail(_arg(0, 0, p=1))
        else:
            raise ContinuationError(
                "no single-contour representation is wired for this example")

    def __call__(self, s) -> NilExpansion:
        fr = self.fr
        s = mp.mpc(s)
        kern = mp.pi / mp.sinpi(s)
        qs = mp.exp(s * self.logq)
        if self.ex == "ex1":
            g3 = fr.gamma_st(3 * s - self.wscal, self.wtail.scale(-1))
            rg = fr.rgamma_st(1 + s, self.ptail)
            val = self.head * g3 * rg * rg * rg
        elif self.ex == "ex2":
            g3 = fr.gamma_st(3 * s - self.wscal, self.wtail.scale(-1))
            rg2 = fr.rgamma_st(1 + s, self.p2tail)
            rgc = fr.rgamma_st(1 + s + self.cscal, self.ctail)
            val = self.head * g3 * rg2 * rg2 * rgc
        else:
            g2 = fr.gamma_st(2 * s - self.bscal, self.btail.scale(-1))
            g1 = fr.gamma_st(s - self.cscal, self.ctail.scale(-1))
            rg = fr.rgamma_st(1 + s, self.ptail)
            val = self.head * g2 * g1 * rg * rg * rg
        return (val * self.pdress).scale(kern * qs)

    # pole positions (scalar parts) ------------------------------------------

    def right_poles(self):
        d = 0
        while True:
            yield mp.mpf(d)
            d += 1

    def left_poles(self):
        """Scalar real parts of the continued-family poles, with their index."""
        fr = self.fr
        n = 0
        while True:
            if self.ex == "ex1":
                yield ((fr.lam / fr.z - n) / 3, n)
            elif self.ex == "ex2":
                yield (mp.mpf(-n) / 3, n)
            else:
                yield (fr.lam / fr.z - mp.mpf(n) / 2, n)
            n += 1


def _mb_inside_term(ex: str, fr: Frame, d: int, q) -> NilExpansion:
    g_y = builtin(ex + "-Y")
    key = "_ifn_inside"
    cache = getattr(fr, key, None)
    if cache is None:
        cache = {}
        setattr(fr, key, cache)
    if ex == "ex2":
        idx = (0, d)
    else:
        idx = (d,)
    if idx not in cache:
        alg = g_y.algebra
        co = RatAZ(AlgebraZ(alg, {0: alg.one()}))
        for j in range(len(g_y.rows)):
            co = co * gamma_ratio(g_y.row_element(j), g_y.shifted_index(j, idx))
        cache[idx] = co
    co = _rataz_numeric(cache[idx], fr.na, fr.lam, fr.z).scale(fr.z)
    logq = mp.log(_to_mp(q))
    if ex == "ex2":
        dress = _exp_nil(fr, NilExpansion.basis(fr.na, "p2", logq / fr.z))
        return (co * dress).scale(mp.exp(d * logq))
    dress = _exp_nil(fr, NilExpansion.basis(fr.na, "p", logq / fr.z))
    return (co * dress).scale(mp.exp(d * logq))


def _mb_left_term(ex: str, fr: Frame, paper_terms: dict, n: int,
                  q) -> NilExpansion:
    """Value of the n-th continued-series term at the point q."""
    logq = mp.log(_to_mp(q))
    if ex == "ex1":
        key = ((n,), (0,))
        if key not in paper_terms:
            return fr.zero()
        expo = fr.lam / (3 * fr.z) - mp.mpf(n) / 3
        return paper_terms[key].scale(mp.exp(expo * logq))
    if ex == "ex2":
        # the stored values carry P1^c/c!, so summing against (log x1)^c
        # with log x1 = (log q)/3 rebuilds the divisor dressing exactly
        out = fr.zero()
        for c in range(3):
            key = ((0, n), (c, 0))
            if key in paper_terms:
                out = out + paper_terms[key].scale((logq / 3) ** c)
        return out.scale(mp.exp(-mp.mpf(n) / 3 * logq))
    # ex4: x = 1/q, families indexed by the half-integer lattice
    logx = -logq
    out = fr.zero()
    for c in (0, 1):
        key = ((n,), (c,))
        if key in paper_terms:
            out = out + paper_terms[key].scale(logx ** c)
    expo = mp.mpf(n) / 2 - fr.lam / fr.z
    return out.scale(mp.exp(expo * logx))


def mellin_barnes_integral(example, q, lam=None, z=None, sigma=None,
                           digits: int = DEFAULT_DIGITS, tol=None,
                           height=None) -> MBResult:
    """Contour integral of the continuation kernel along a vertical line.

    The returned value equals the inside residue series for |q| below the
    wall and the continued series above it; residues of poles sitting on
    the wrong side of the line are transferred explicitly, so the line
    itself never needs to separate the two interlaced pole families.

    Each component is integrated by Gauss-Legendre quadrature over the same
    breakpoints, all components sharing one cache of kernel samples; the
    error budget is the quadrature's own estimate plus the tail beyond the
    height.  The Gamma and 1/Gamma jets in the kernel take their polygamma
    orders from one shared series (_polygamma_jet).
    """
    ex = _example(example)
    if ex not in _WALLS:
        raise ContinuationError(
            "no single-contour representation is wired for this example")
    wall = _WALLS[ex]
    with mp.workdps(digits + 10):
        lam = default_lambda() if lam is None else _to_mp(lam)
        z = mp.mpf(1) if z is None else _to_mp(z)
        q = _to_mp(q)
        tol = mp.mpf("1e-30") if tol is None else mp.mpf(tol)
        if mp.im(q) == 0 and mp.re(q) < 0:
            raise ContinuationError("q must stay off the branch cut")
        aq = abs(q)
        if abs(aq - _frac_mp(wall)) < mp.mpf("1e-12"):
            raise ContinuationError("q sits on the convergence wall")
        side = "inside" if aq < _frac_mp(wall) else "outside"
        g_y = builtin(ex + "-Y")
        na = _numeric_algebra(g_y.algebra, lam, digits)
        fr = Frame(na, "numeric", lam=lam, z=z, digits=digits)
        kern = _Kernel(ex, fr, q)
        sigma = mp.mpf("0.5") if sigma is None else mp.mpf(sigma)

        # poles near the line are a precondition failure, not a warning;
        # only poles on or just left of the line ever matter (residue
        # transfer needs Re >= sigma, the proximity check a window of 1)
        lefts = []
        for val, n in kern.left_poles():
            if mp.re(val) < sigma - 1:
                break
            lefts.append((val, n))
            if n > 400:
                raise ContinuationError("left pole family does not descend")
        for val, n in lefts:
            if abs(mp.re(val) - sigma) < mp.mpf("0.05"):
                raise ContinuationError(
                    f"left pole {n} sits within 0.05 of the contour")
        d = 0
        while d < sigma + 1:
            if abs(d - sigma) < mp.mpf("0.05"):
                raise ContinuationError(
                    f"right pole {d} sits within 0.05 of the contour")
            d += 1

        # height from the observed exponential decay of the integrand
        t_cur = mp.mpf(12) if height is None else mp.mpf(height)
        while True:
            top = kern(sigma + 1j * t_cur).maxabs()
            prev = kern(sigma + 1j * (t_cur - 1)).maxabs()
            if top == 0:
                rate = mp.mpf(1)
                tail = mp.mpf(0)
                break
            rate = mp.log(prev / top) if prev > top else mp.mpf("0.1")
            tail = top / rate if rate > 0 else top * 100
            if tail < tol or height is not None or t_cur >= 220:
                break
            t_cur += 10
        if tail > tol:
            raise ContinuationError(
                f"tail estimate {mp.nstr(tail, 5)} exceeds the tolerance")

        cache: dict = {}

        def sample(t):
            key = str(t)
            if key not in cache:
                cache[key] = kern(sigma + 1j * t)
            return cache[key]

        # for real parameters the integrand obeys the Schwarz reflection
        # kern(conj s) = conj kern(s) componentwise, so the lower half of
        # the line is the conjugate of the upper half
        symmetric = (mp.im(lam) == 0 and mp.im(z) == 0 and mp.im(q) == 0
                     and mp.re(q) > 0)
        # prime the cache so the component set is known
        probe = sample(mp.mpf(0))
        comps = set(probe.terms) | set(sample(t_cur / 3).terms)
        if not symmetric:
            comps |= set(sample(-t_cur / 3).terms)
        comps = sorted(comps)
        if symmetric:
            nodes = [0, t_cur / 4, t_cur]
        else:
            nodes = [-t_cur, -t_cur / 4, 0, t_cur / 4, t_cur]
        vhat_terms = {}
        quad_err = mp.mpf(0)
        for comp in comps:
            val, err = mp.quad(
                lambda t, c=comp: sample(t).terms.get(c, mp.mpf(0)),
                nodes, method="gauss-legendre", error=True)
            if symmetric:
                val = val + mp.conj(val)
                err = 2 * err
            vhat_terms[comp] = val / (2 * mp.pi)  # (1/2<pi>i) ds, ds = i dt
            quad_err += abs(err)
        vhat = NilExpansion(na, vhat_terms)

        # transfer residues of poles caught on the wrong side of the line:
        # right poles left of the line enter with a plus, continued-family
        # poles right of the line with a minus, and the left-closure value
        # is the negative of the separated line integral.
        corr_lefts = [(val, n) for val, n in lefts if mp.re(val) >= sigma]
        paper: dict = {}
        if corr_lefts:
            bound = max(n for _, n in corr_lefts)
            if ex == "ex2":
                paper = _terms_ex2(fr, bound, kmax=0)
            else:
                paper = _TERM_BUILDERS[ex](fr, bound)
        corrections = 0
        total = -vhat
        for val, n in corr_lefts:
            total = total + _mb_left_term(ex, fr, paper, n, q)
            corrections += 1
        d = 0
        while d < sigma:
            total = total + _mb_inside_term(ex, fr, d, q)
            corrections += 1
            d += 1
        return MBResult(example=ex, value=total,
                        error=quad_err / (2 * mp.pi) + tail, side=side,
                        sigma=sigma, height=t_cur, wall=wall,
                        corrections=corrections, endpoint_magnitude=top)
