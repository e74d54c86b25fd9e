"""Analytic continuation across the convergence wall, numerically.

Continued series for the built-in pairs, a Gamma calculus for
arguments with nilpotent (divisor-class) parts, a Mellin-Barnes contour
integral used as an independent cross-check, and the connection-matrix solve
that reads off the wall-crossing transformation U by comparing coefficients
of the curve variables on both sides.

Values are high-precision mpmath numbers; working precision is given in
decimal digits (default 64).  Two parameter modes exist everywhere; both
evaluate every coefficient as one number per basis class:

  "equivariant-numeric"  at numeric lambda and z samples,
  "nonequivariant"       at lambda = 0 exactly and z = 1.  deg z = 2 and
                         deg y = 0 (each pair is crepant), so the grading
                         makes each coefficient one z-monomial, and
                         solve_connection restores each U entry's z-power
                         from the degrees of its classes.  Every series
                         terminates, so results are exact to the working
                         precision.  An equivariant-numeric call at lam = 0
                         computes the same, at its z.

Every f(s + t), s a scalar and t a class (Gamma, 1/Gamma, sin and exp
alike), goes through one evaluator, _Spectrum: the Newton form of the
Hermite interpolation of f on the spectrum of t.  t is a rational divisor
class times a number (1/z, log q/z, ...), and the grading makes its
eigenvalues lambda times that number times the roots of the class's
minimal polynomial at lambda = 1 (at lambda = 0 itself, the roots there).
The algebra factors that polynomial exactly (Algebra.minimal_factors), so
multiplicities and zero roots are exact, and only its squarefree factors
of degree >= 2 have their roots found numerically.  The Newton basis
depends on t alone and is built once, so an evaluation costs one
jet(x, jmax) = [f(x), ..., f^(jmax)(x)] per root and a few scaled adds.
For nilpotent t this is the Taylor jet; for semisimple directions it
evaluates f at the shifted eigenvalues.  Either way it is exact and finite, which matters because the
naive polygamma power series diverges on algebras whose degree-two classes
are not nilpotent at numeric lambda.  A jet of Gamma or 1/Gamma of order
>= 1 takes its value and every polygamma order from one fixed-point pass
(_gamma_pass): in Python integers scaled by 2^wp, one recurrence shift
and one Stirling tail serve log Gamma and all orders at once, with guard
bits for the smallest order; order-0 jets stay on mp.gamma and mp.rgamma.

The Mellin-Barnes kernel is derived from the Y side's gamma rows.  It
sums one residue class of Y indices, d = base + N m e_c for m = 0, 1, ...,
along a contour variable y_c.  N is the denominator of y_c's sector_map
entry, so every index of the class has the sector class S of base; base
fixes the other (spectator) indices and a = d_c < N.  Along y_c row j has
the rate c_j = N charge_j[c]/den_c, the offset o_j (its shifted index at
base) and the class kappa_j (Geometry.row_classes); identical rows are
grouped with a multiplicity.  In gamma_ratio's convention, with b_j in (0, 1] and
b_j = o_j mod 1, and with P the prefactor class of y_c,

    head = z^(1 + sum_j (b_j - 1)) * S * prod_j Gamma(b_j + kappa_j/z)
             * prod_{c_j=0} 1/Gamma(1 + o_j + kappa_j/z)
             * prod_{c_j<0} (-sin(pi (o_j + kappa_j/z))/pi),
    K(s) = head * prod_{c_j<0} Gamma(|c_j| s - o_j - kappa_j/z)
                * prod_{c_j>0} 1/Gamma(1 + o_j + kappa_j/z + c_j s)
                * pi/sin(pi s) * q^s * exp(P log q / z).

pi/sin(pi s) gives the series its signs only when the c_j are integers
whose negative ones sum to an odd number; other rows are refused.  Both
the continued series and the Mellin-Barnes integral take y_c from the
pair's lattice map (Pair.var).  The integral runs from base 0, where every
o_j = 0 and b_j = 1, and only where N = 1; its wall is
|q| = prod_j |c_j|^(c_j), each row counted with its multiplicity.  The
continued series takes the spectators and a from the lattice map too (see
continued_ifunction).

The residue at a right pole s = d is (-1)^d times K(d) without
pi/sin(pi s): the d-th term of the inside series.  The continued series
is minus the residues at the left poles s_n = (kappa_p/z + o_p - n)/|c_p|,
p the row with the largest |c_p|.  At s_n + eps a factor whose argument is
exactly -m <= 0 gives Gamma(-m + |c_j| eps), a simple pole (c_j < 0: the
rows with kappa_j/|c_j| = kappa_p/|c_p| as classes), or
1/Gamma(-m + c_j eps), a simple zero (c_j > 0); poles less zeros is the
pole order r, and r <= 0 leaves no residue.  Every other factor
f(A + c eps) gives its eps-jet c^k f^(k)(A)/k!.  The pole rows' head
sines, (-1)^m sin(pi |c_j| s_n), join pi/sin(pi s) in

    R(eps) = prod_poles sin(pi |c_j| s_n) / sin(pi (s_n + eps)),

whose eps^k coefficient is entire in s_n for k < r, so it stays regular
where the two pole families meet (integer scalar s_n, lambda = 0).  As
q^(s_n + eps) = q^s_n sum_k (eps log q)^k/k!, the residue is
sum_{k<r} R_k (log q)^k q^s_n exp(P log q / z).

The integral integrates each component of the kernel along the contour
with Gauss-Legendre quadrature, which needs fewer kernel evaluations than
tanh-sinh when poles sit a few tenths from the line.  On the contour row j
is Gamma(x_j + a_j tau)^(e_j), x_j = |c_j| s + offset, e_j = mult for the
Gamma rows and -mult for the 1/Gamma rows, tau one nilpotent class (other
rows, and exp(P log q / z) with P not nilpotent, are refused).  With
_gamma_pass's log Gamma(y_j) and P_j, and log Gamma's Taylor series in tau,
    K(s) = pi/sin(pi s) e^l/D sum_k E_k hp tau^k,  D = prod_j P_j^(e_j),
    l = s log q + sum_j e_j log Gamma(y_j),  E_0 = 1,  E_k = sum_{i<=k}
    i n_i E_(k-i)/k,  n_k = sum_j e_j a_j^k psi^(k-1)(x_j)/k!,
hp = head exp(P log q / z), and every hp tau^k != 0 is built once: an
evaluation is one pass per row, scalar work and one exponential.

Caches.  Two module dicts keep work that recurs across calls: _PAIRS the
built-in Pair of each pair name, and _BERNOULLI the scaled Bernoulli
numbers of _gamma_pass, keyed by its working precision.  A Pair keeps what
the continuation derives from its two sides: the lattice map and the
contour variable; the X side's exact prefactor expansion per truncation,
which serves both modes and every lambda, z and precision; and each
side's NumericAlgebra, keyed (side, lambda, digits).  A NumericAlgebra
keeps the _Spectrum of each class, keyed (precision, the exact class, its
numeric factor).  Every cache lives on the object it serves, so none is
keyed on another object's identity.  Within one call, the Frame's memo
keeps what repeats across the kernels and poles of one continued series:
the head Gammas, keyed by their argument; the sine ratios R_k, keyed
(sorted rates, pole order, s_n less the floor of its rational part); and
the 1/Gamma jets at an exact pole -m, keyed (m, order).  The memo lives
and dies with its Frame, which no cache keeps.
Each Algebra keeps its classes' exact minimal_factors, keyed (class,
lambda = 0), which serve every lambda sample, z and precision.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import chain, count, permutations
from math import comb, factorial, floor, isqrt, prod
from operator import add, mul
from typing import Callable, Optional

from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre
from mpmath.libmp import (bernfrac, from_int, from_man_exp,
                          fzero, mpc_div, mpc_exp, mpc_log, mpc_mul,
                          mpc_reciprocal, mpf_add, round_floor, round_nearest,
                          to_fixed, to_int)
from mpmath.libmp.gammazeta import ln_sqrt2pi_fixed

from .algebra import Algebra, _solve_exact
from .geometry import Geometry, builtin, enumerate_degrees, pairs
from .ifunction import (IFunctionError, RatAZ, build_ifunction,
                        exp_log_terms, expand_prefactor)


class ContinuationError(ValueError):
    pass


DEFAULT_DIGITS = 64


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
    if isinstance(x, (int, float)):
        return mp.mpf(x)
    return mp.mpc(x) if isinstance(x, complex) else x


def _number(where: str, name: str, x, real: bool = False):
    """x as a finite mpmath number (real if asked), or ContinuationError."""
    try:
        v = mp.mpmathify(_to_mp(x))
    except (TypeError, ValueError):
        v = None
    if v is None or not mp.isfinite(v) or (real and mp.im(v)):
        raise ContinuationError(f"{where}: {name} must be a finite "
                                f"{'real ' if real else ''}number, not {x!r}")
    return mp.re(v) if real else v


def _parameters(where: str, mode: str, lam, z, digits, truncation=0):
    """(lambda, z) of a numeric entry point, made at digits + 10 working
    digits with the defaults default_lambda() and 1, or (0, 1) exactly in
    nonequivariant mode; a bad parameter raises ContinuationError."""
    def bad(msg):
        return ContinuationError(f"{where}: {msg}")
    # below 10 the tolerance 10^-(digits - 6) of poles is none
    if type(digits) is not int or digits < 10:
        raise bad(f"digits must be an integer >= 10, not {digits!r}")
    if type(truncation) is not int or truncation < 0:
        raise bad(f"truncation must be a nonnegative integer, "
                  f"not {truncation!r}")
    if mode == "nonequivariant":
        if lam not in (None, 0) or z is not None:
            raise bad(f"nonequivariant mode fixes lambda = 0 and reads the "
                      f"powers of z off the grading, not lam={lam!r}, "
                      f"z={z!r}")
        return mp.zero, mp.one
    if mode != "equivariant-numeric":
        raise bad(f"unknown mode {mode!r}; choose from equivariant-numeric, "
                  f"nonequivariant")
    with mp.workdps(digits + 10):
        lam = default_lambda() if lam is None else _number(where, "lam", lam)
        z = mp.mpf(1) if z is None else _number(where, "z", z)
    if z == 0:
        raise bad("z must be nonzero")
    return lam, z


@contextmanager
def _prefixed(where: str):
    """Restate a ContinuationError raised within to start with where, as
    "ex1: solve_umatrix" or "ex1-Y: kernel set-up", once: a message that
    already starts with where's first part ("ex1: ") keeps it once."""
    try:
        yield
    except ContinuationError as exc:
        ex = where.split(": ")[0]
        msg = str(exc).removeprefix(where + ": ").removeprefix(ex + ": ")
        raise ContinuationError(f"{where}: {msg}") from None


def _near_int(x, tol) -> Optional[int]:
    n = mp.nint(mp.re(x))
    if abs(x - n) < tol:
        return int(n)
    return None


# ---------------------------------------------------------------------------
# numeric algebras


class NumericAlgebra:
    """Structure constants of an Algebra evaluated at a lambda sample."""

    def __init__(self, algebra: Algebra, lam, digits: int = DEFAULT_DIGITS):
        self.algebra = algebra
        self.lam = lam
        self.digits = digits
        self.dim = algebra.dim
        self.unit = algebra.unit
        self.labels = algebra.labels
        # table[(i, j)]: the nonzero (k, c_ij^k) of the product of i and j
        with mp.workdps(digits + 10):
            self.table = {(i, j): tuple(
                (k, v) for k, c in enumerate(algebra.table[i][j])
                if not c.is_zero and (v := _to_mp(c.evaluate(lam))) != 0)
                for i in range(self.dim) for j in range(self.dim)}
        self._spectra: dict = {}

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def spectrum(self, klass, factor) -> _Spectrum:
        """_Spectrum(self, klass, factor), memoized on the arguments and the
        working precision: the same few tails recur thousands of times."""
        key = (mp.prec, klass, factor)
        if key not in self._spectra:
            self._spectra[key] = _Spectrum(self, klass, factor)
        return self._spectra[key]


# ---------------------------------------------------------------------------
# algebra-valued Laurent data


class NilExpansion:
    """Algebra element with high-precision coefficients.

    terms maps (basis index, 0) to an mpmath number: every value is taken
    at the frame's z, so the second slot, a z exponent, is always 0 (and
    support() is [0] or []); callers that unpack it keep working.  terms
    is kept as given, not copied; the sums that can cancel (+, * and
    _summed) drop their exact zeros.
    """

    __slots__ = ("na", "terms")

    def __init__(self, na: NumericAlgebra, terms=None):
        self.na = na
        self.terms = {} if terms is None else terms

    @classmethod
    def unit(cls, na, scale=1):
        return cls(na, {(na.unit, 0): _to_mp(scale)})

    @classmethod
    def basis(cls, na, label: str):
        return cls(na, {(na.label_index(label), 0): mp.mpf(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return sorted({ze for (_, ze) in self.terms})

    def maxabs(self):
        return max((abs(v) for v in self.terms.values()), default=mp.mpf(0))

    def __add__(self, other):
        if not isinstance(other, NilExpansion):
            return NotImplemented
        return _summed(self.na, chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return NilExpansion(self.na, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "NilExpansion":
        c = _to_mp(c)
        if c == 0:
            return NilExpansion(self.na)
        return NilExpansion(self.na, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NilExpansion):
            table = self.na.table
            out: dict = {}
            for (i, _), c1 in sorted(self.terms.items()):
                for (j, _), c2 in sorted(other.terms.items()):
                    f = c1 * c2
                    for k, s in table[(i, j)]:
                        key = (k, 0)
                        out[key] = out[key] + f * s if key in out else f * s
            return NilExpansion(self.na, {k: v for k, v in out.items() if v})
        return self.scale(other)

    __rmul__ = __mul__

    def __repr__(self):
        parts = [f"{self.na.labels[i]}: {mp.nstr(v, 8)}"
                 for (i, _), v in sorted(self.terms.items())]
        return "NilExpansion(" + ", ".join(parts) + ")"


def _summed(na: NumericAlgebra, items) -> NilExpansion:
    """The sum of the (key, value) items, without its exact zeros."""
    out: dict = {}
    for key, v in items:
        out[key] = out[key] + v if key in out else v
    return NilExpansion(na, {k: v for k, v in out.items() if v})


# ---------------------------------------------------------------------------
# evaluation of analytic functions on algebra-valued arguments


def _lstsq(cols, bs):
    """Least-squares solutions of A x = b for several right-hand sides.

    cols[j] maps a row index to the entries of column j of A, and each b in
    bs maps a row index to its entries.  Returns (xs, residuals): per b, the
    solution list and the infinity norm of A x - b (a row that no column
    reaches contributes |b_r|).

    The normal equations A^H A x = A^H b are block-diagonal: a union-find
    over the rows joins two columns with an entry in a common row.  Each
    entry of a block's Gram matrix G and of its A^H b is one mp.fdot,
    rounded once at 10 extra bits, and G = L D L^H is factored once, without
    pivoting, for every b.  The pivot d_j is exact up to about eps * (G_jj +
    sum_k |L_jk|^2 G_kk); one at most 2^8 times that means that column j
    lies in the span of the block's earlier columns, and the rank-deficient
    block raises ContinuationError.
    """
    n = len(cols)
    by_row: dict = {}
    for j, c in enumerate(cols):
        for r, v in c.items():
            by_row.setdefault(r, []).append((j, v))
    root = list(range(n))

    def find(j):
        while root[j] != j:
            root[j] = j = root[root[j]]
        return j

    for entries in by_row.values():
        for j, _ in entries[1:]:
            root[find(j)] = find(entries[0][0])
    blocks: dict = {}
    for j in range(n):
        blocks.setdefault(find(j), []).append(j)

    def dot(i, vec):  # (A^H vec)_i
        return mp.fdot(((vec[r], v) for r, v in cols[i].items() if r in vec),
                       conjugate=True)

    xs = [[None] * n for _ in bs]
    with mp.extraprec(10):
        tol = 2 ** 8 * mp.eps
        for block in blocks.values():
            # low[a]: row a of the unit lower triangular L left of its
            # diagonal; d: the pivots; g: the diagonal of G
            low, d, g = [], [], []
            for i in block:
                row = []
                for j, lj, dj in zip(block, low, d):
                    row.append((dot(i, cols[j]) - mp.fdot(
                        (u * dk, mp.conj(w)) for u, w, dk in
                        zip(row, lj, d))) / dj)
                sq = [abs(u) ** 2 for u in row]
                gii = dot(i, cols[i]).real
                di = gii - mp.fdot(zip(sq, d))
                if di <= tol * (gii + mp.fdot(zip(sq, g))):
                    raise ContinuationError(
                        f"rank-deficient normal equations (column {i} lies "
                        f"in the span of the columns before it)")
                low.append(row)
                d.append(di)
                g.append(gii)
            for x, b in zip(xs, bs):
                y = []
                for i, row in zip(block, low):
                    y.append(dot(i, b) - mp.fdot(zip(row, y)))
                for a in reversed(range(len(block))):
                    x[block[a]] = y[a] / d[a] - mp.fdot(
                        (mp.conj(low[k][a]), x[block[k]])
                        for k in range(a + 1, len(block)))
    residuals = [
        max((abs(mp.fdot((v, x[j]) for j, v in by_row.get(r, ()))
                 - b.get(r, 0)) for r in by_row.keys() | b.keys()),
            default=mp.zero)
        for x, b in zip(xs, bs)]
    return xs, residuals


class _Spectrum:
    """f(s + t) for t = factor * klass, klass (label, c) pairs of a class,
    as in the module docstring: in Newton form

        f(s + t) = sum_j f[s + mu_0, ..., s + mu_j] prod_{i<j} (t - mu_i),

    mu_0, mu_1, ... the roots of the minimal polynomial of t, each repeated
    by its multiplicity.  They are the roots of the class's exact factors
    (Algebra.minimal_factors) times lambda and factor, or times factor alone
    at lambda = 0: the factor x gives exactly mp.zero, a linear factor its
    rational root, and only a factor of degree >= 2 goes to mp.polyroots,
    its roots simple.  At lambda = 0 the class must be nilpotent, as the
    grading asks: the z-powers solve_connection restores rely on it.
    """

    __slots__ = ("na", "nodes", "owner", "basis", "nilpotent")

    def __init__(self, na: NumericAlgebra, klass, factor):
        self.na = na
        at_zero = not na.lam
        scale = factor if at_zero else na.lam * factor
        nodes = self.nodes = []
        for poly, mult in na.algebra.minimal_factors(klass, at_zero):
            deg = poly.degree()
            if deg == 1:
                root = -poly.coeff(0)
                nodes.append((_frac_mp(root) * scale if root else mp.zero,
                              mult))
            else:
                nodes += [(r * scale, mult) for r in mp.polyroots(
                    [_frac_mp(poly.coeff(e)) for e in range(deg, -1, -1)])]
        self.nilpotent = len(nodes) == 1 and not nodes[0][0]
        if at_zero and not self.nilpotent:
            name = " + ".join(f"{c}*{l}" for l, c in klass)
            raise ContinuationError(
                f"{na.algebra.name}: the class {name} is not nilpotent at "
                f"lambda = 0, so the grading does not fix its powers of z")
        t = NilExpansion(na, {(na.label_index(l), 0): _frac_mp(c) * factor
                              for l, c in klass})
        # the root of each position of the Newton sequence, and its basis
        self.owner = [k for k, (_, m) in enumerate(nodes) for _ in range(m)]
        basis = [NilExpansion.unit(na)]
        for k in self.owner[:-1]:
            basis.append(basis[-1] * (t - NilExpansion.unit(na, nodes[k][0])))
        self.basis = [tuple(b.terms.items()) for b in basis]

    def apply(self, jet: Callable, s, shift: int = 0) -> NilExpansion:
        """f^(shift)(s + t), where jet(x, jmax) returns [f(x), f'(x), ...,
        f^(jmax)(x)] at the scalar x."""
        s, nodes, owner = _to_mp(s), self.nodes, self.owner
        jets = [jet(s + mu, mult - 1 + shift)[shift:] for mu, mult in nodes]
        col = [jets[k][0] for k in owner]  # then col[i] = f[x_i..x_(i+w)]
        coeffs = [col[0]]
        for w in range(1, len(owner)):
            col = [jets[owner[i]][w] / factorial(w)
                   if owner[i] == owner[i + w] else (col[i + 1] - col[i])
                   / (nodes[owner[i + w]][0] - nodes[owner[i]][0])
                   for i in range(len(owner) - w)]
            coeffs.append(col[0])
        return _summed(self.na, ((key, v * c) for b, c in
                                 zip(self.basis, coeffs) for key, v in b))


def _bell_jet(base, exponent_derivs, jmax: int):
    """Derivatives of exp(g) given g', g'', ... and the value exp(g(x)):
    (exp g)^(m) = sum_k C(m-1, k) (exp g)^(k) g^(m-k)."""
    out = [base]
    for m in range(1, jmax + 1):
        total = 0
        for k in range(m):
            total += comb(m - 1, k) * out[k] * exponent_derivs[m - 1 - k]
        out.append(total)
    return out


def _gamma_pole_at(x, tol) -> Optional[int]:
    # no pole is closer than |Im x|, and most contour points are far off
    if type(x) is mp.mpc and abs(x.imag) >= tol:
        return None
    n = _near_int(x, tol)
    if n is not None and n <= 0:
        return -n
    return None


# per wp: B_2k, B_2k/(2k (2k-1)) and B_2k/(2k), scaled by 2^wp, for
# k = 1, 2, ...
_BERNOULLI: dict = {}


def _gamma_pass(x, n: int):
    """(log Gamma(y), P(x), wp, [psi^(m)(x) for m = 0..n-1]): log Gamma(y)
    and P(x) as raw mpc at wp bits, Gamma(x) = exp(log Gamma(y))/P(x).

    The arithmetic is mpmath's own for mpc_gamma: Python integers scaled
    by 2^wp.  One shift loop moves x to y = x + N and accumulates
    P(x) = prod_k (x+k) and the power sums S_m = sum_k (x+k)^-(m+1) of every
    order m, so that psi^(m)(x) = psi^(m)(y) - (-1)^m m! S_m.  As in
    mpc_gamma, N is the least shift with Re y >= 0 and |y| >= M =
    0.11 (prec + 20) + 6 (up to Re x's fractional part): with h = floor
    |Im x|, N = max(0, ceil(sqrt(M^2 - h^2)) - trunc Re x, -floor Re x),
    M - trunc Re x near the real axis and 0 far up the contour.
    One Stirling loop at y shares each term B_2k u^2k, u = 1/y, between
    log Gamma(y) = (y - 1/2) log y - y + log sqrt(2 pi)
                   + y sum_k B_2k/(2k (2k-1)) u^2k
    and every polygamma order,
    psi(y) = log y - u/2 - sum_k B_2k/(2k) u^2k and, for m >= 1,
    psi^(m)(y) = (-1)^(m+1) u^m [(m-1)! + m!/2 u
                                 + sum_k B_2k (2k+m-1)!/(2k)! u^2k].
    The tail is asymptotic, so it stops at its smallest term if that comes
    before 2^-(prec+20); |y| >= M makes the smallest term about
    e^(-2 pi |y|), below that.  u^2k is kept as a mantissa of about wp
    bits and a binary exponent, as in mpmath's complex_stirling_series,
    because B_2k grows faster than a fixed-point u^2k would keep its bits.

    Guard bits: every sum is exact to 2^-wp, while psi^(m)(y) ~ (m-1)! u^m
    and log Gamma(y) ~ y log y, so wp = prec + 24 plus log2 |y| bits per
    order above the first (at least one for log Gamma).  A factor x+k
    within 1/2 of 0 (x near a pole) stays in floating form, in P and in
    its reciprocal: its fixed-point form would have lost the bits of x
    below 2^-wp.  x must not be a pole (a nonpositive integer).
    """
    x = _to_mp(x)
    prec = mp.prec
    real = isinstance(x, mp.mpf)
    a, b = (x._mpf_, fzero) if real else x._mpc_
    least, im = int(0.11 * (prec + 20)) + 6, abs(to_int(b))
    root = isqrt(least * least - im * im - 1) + 1 if im < least else 0
    shift = max(0, root - to_int(a), -to_int(a, round_floor))
    ybits = (abs(to_int(a)) + shift + abs(to_int(b)) + 1).bit_length()
    wp = prec + 24 + max(n - 1, 1) * ybits
    one = 1 << wp
    half = one >> 1
    yre, yim = to_fixed(a, wp), to_fixed(b, wp)
    sre, sim = [0] * n, [0] * n
    pre, pim = one, 0
    near = None
    for k in range(shift):
        if abs(yre) < half and abs(yim) < half:
            near = (mpf_add(a, from_int(k)), b)
            rre, rim = (to_fixed(v, wp) for v in mpc_reciprocal(near, wp))
        else:
            mag = (yre * yre + yim * yim) >> wp
            rre, rim = (yre << wp) // mag, (-yim << wp) // mag
            pre, pim = ((pre * yre - pim * yim) >> wp,
                        (pre * yim + pim * yre) >> wp)
        qre, qim = rre, rim
        for m in range(n):
            if m:
                qre, qim = ((qre * rre - qim * rim) >> wp,
                            (qre * rim + qim * rre) >> wp)
            sre[m] += qre
            sim[m] += qim
        yre += one
    mag = (yre * yre + yim * yim) >> wp
    ure, uim = (yre << wp) // mag, (-yim << wp) // mag
    u2re, u2im = (ure * ure - uim * uim) >> wp, (ure * uim) >> (wp - 1)
    usize = max(abs(u2re), abs(u2im)).bit_length()
    tre, tim, e = u2re, u2im, 0  # u^2k = t 2^-(wp + e)
    lre = lim = 0  # sum_k B_2k/(2k (2k-1)) u^2k
    ore, oim = [0] * n, [0] * n  # the bracketed sums of each order
    coeffs = _BERNOULLI.setdefault(wp, [])
    stop = wp - prec - 20
    prev = None
    k = 1
    while True:
        if len(coeffs) < k:
            p, q = bernfrac(2 * k)
            coeffs.append(tuple((p << wp) // (q * d)
                                for d in (1, 2 * k * (2 * k - 1), 2 * k)))
        cb, cl, c0 = coeffs[k - 1]
        s = wp + e
        lre += (tre * cl) >> s
        lim += (tim * cl) >> s
        if n:
            ore[0] += (tre * c0) >> s
            oim[0] += (tim * c0) >> s
        c = 1  # (2k+m-1)!/(2k)! for m >= 1
        for m in range(1, n):
            cm = cb * c
            ore[m] += (tre * cm) >> s
            oim[m] += (tim * cm) >> s
            c *= 2 * k + m
        # a log2 bound on the largest term, in units of 2^-wp
        top = (max(abs(tre), abs(tim)).bit_length() + cb.bit_length() - s
               + max(c.bit_length(), ybits))
        if top < stop or (prev is not None and top >= prev):
            break
        prev = top
        tre, tim = ((tre * u2re - tim * u2im) >> usize,
                    (tre * u2im + tim * u2re) >> usize)
        e += wp - usize
        k += 1
    log_y = mpc_log((from_man_exp(yre, -wp), from_man_exp(yim, -wp)), wp)
    lyre, lyim = to_fixed(log_y[0], wp), to_fixed(log_y[1], wp)
    hre = yre - half
    gre = (((hre * lyre - yim * lyim + yre * lre - yim * lim) >> wp)
           - yre + ln_sqrt2pi_fixed(wp))
    gim = ((hre * lyim + yim * lyre + yre * lim + yim * lre) >> wp) - yim
    den = (from_man_exp(pre, -wp), from_man_exp(pim, -wp))
    if near is not None:
        den = mpc_mul(den, near, wp)
    lgamma = (from_man_exp(gre, -wp), from_man_exp(gim, -wp))
    out = []
    if n:
        out.append((lyre - (ure >> 1) - ore[0] - sre[0],
                    lyim - (uim >> 1) - oim[0] - sim[0]))
    umre, umim = ure, uim
    fact = 1  # (m-1)!
    for m in range(1, n):
        inre = fact * one + ((m * fact * ure) >> 1) + ore[m]
        inim = ((m * fact * uim) >> 1) + oim[m]
        fact *= m
        vre = ((umre * inre - umim * inim) >> wp) + fact * sre[m]
        vim = ((umre * inim + umim * inre) >> wp) + fact * sim[m]
        out.append((vre, vim) if m % 2 else (-vre, -vim))
        umre, umim = ((umre * ure - umim * uim) >> wp,
                      (umre * uim + umim * ure) >> wp)
    out = [(from_man_exp(vre, -wp, prec, round_nearest),
            from_man_exp(vim, -wp, prec, round_nearest)) for vre, vim in out]
    return lgamma, den, wp, [mp.make_mpf(v[0]) if real else mp.make_mpc(v)
                             for v in out]


def _gamma_polygamma(x, n: int):
    """(Gamma(x), [psi^(m)(x) for m = 0..n-1]) from one _gamma_pass:
    Gamma(x) = exp(log Gamma(y))/P(x), rounded once."""
    x = _to_mp(x)
    lgamma, den, wp, psis = _gamma_pass(x, n)
    gamma = mpc_div(mpc_exp(lgamma, wp), den, mp.prec, round_nearest)
    return (mp.make_mpf(gamma[0]) if isinstance(x, mp.mpf)
            else mp.make_mpc(gamma)), psis


def _gamma_jet(x, jmax, tol):
    """The jet of Gamma, from the complete Bell polynomials of the
    polygammas: Gamma = exp(log Gamma).  A pole within tol is refused."""
    x = _to_mp(x)
    if _gamma_pole_at(x, tol) is not None:
        raise ContinuationError(f"gamma pole at {mp.nstr(x, 8)}")
    if jmax == 0:
        return [mp.gamma(x)]
    return _bell_jet(*_gamma_polygamma(x, jmax), jmax)


def _rgamma_jet(x, jmax, tol):
    """The jet of 1/Gamma, entire; within tol of a pole of Gamma the
    reflection form 1/Gamma(x) = Gamma(1-x) sin(pi x)/pi supplies it."""
    x = _to_mp(x)
    if _gamma_pole_at(x, tol) is None:
        if jmax == 0:
            return [mp.rgamma(x)]
        g, psis = _gamma_polygamma(x, jmax)
        return _bell_jet(1 / g, [-v for v in psis], jmax)
    y = 1 - x
    gjet = (_bell_jet(*_gamma_polygamma(y, jmax), jmax) if jmax
            else [mp.gamma(y)])
    out = []
    for j in range(jmax + 1):
        total = mp.mpf(0)
        for k in range(j + 1):
            sin_d = mp.pi ** (j - k) * mp.sinpi(x + mp.mpf(j - k) / 2)
            total += comb(j, k) * (-1) ** k * gjet[k] * sin_d / mp.pi
        out.append(total)
    return out


def _sinpi_jet(x, jmax):
    return [mp.pi ** j * mp.sinpi(x + mp.mpf(j) / 2) for j in range(jmax + 1)]


def _exp_jet(x, jmax):
    return [mp.exp(x)] * (jmax + 1)


def _series_mul(a: list, b: list) -> list:
    """Product of two truncated power series, to the shorter length."""
    return [reduce(add, (a[k] * b[i - k] for k in range(i + 1)))
            for i in range(min(len(a), len(b)))]


def _series_recip(a: list) -> list:
    """1/a for a truncated power series a with a[0] != 0."""
    out = [1 / a[0]]
    for i in range(1, len(a)):
        out.append(-mp.fsum(a[k] * out[i - k] for k in range(1, i + 1))
                   / a[0])
    return out


class _SineRatio:
    """f = prod_j sin(pi a_j x) * csc^(k)(pi x) pi^k / k!, the eps^k
    coefficient of prod_j sin(pi a_j x) / sin(pi (x + eps)).

    At an integer x with every a_j x an integer, f is regular for
    k < len(a): the Laurent series of csc(pi (x + w)) times the Taylor
    series of the numerator.  Near such an x the Taylor terms of csc grow
    like 1/sin(pi x)^i and cancel; the bits they lose are carried.
    """

    def __init__(self, rates: list, k: int):
        self.rates = [_to_mp(a) for a in rates]
        self.k = k

    def jet(self, x, jmax):
        x = _to_mp(x)
        k = self.k
        size = jmax + k + 3
        s0 = abs(mp.sinpi(x))
        lost = 0 if s0 == 0 or s0 > 0.5 else int(-mp.log(s0, 2)) * size
        with mp.extraprec(lost):

            def sin_series(a):
                # d^i/dx^i sin(pi a x) cycles through sin, cos, -sin, -cos
                s, c = mp.sinpi(a * x), mp.cospi(a * x)
                cycle = (s, c, -s, -c)
                return [(mp.pi * a) ** i * cycle[i % 4] / factorial(i)
                        for i in range(size)]

            num = reduce(_series_mul, [sin_series(a) for a in self.rates])
            den = sin_series(1)
            v = 1 if s0 == 0 else 0
            # csc(pi (x + w)) = sum_i h_i w^(i - v); its eps^k coefficient
            # at w = u + eps is sum_i h_i C(i - v, k) u^(i - v - k)
            h = _series_recip(den[v:])
            d = [hi * ((-1) ** k if i < v else comb(i - v, k))
                 for i, hi in enumerate(h)]
            prod = _series_mul(num[:len(d)], d)
            out = [factorial(j) * prod[j + v + k] for j in range(jmax + 1)]
        return [+v for v in out]


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

    def __repr__(self):
        return f"Arg({self.a0}, {self.alam}, {self.div})"


def _affine(a0, *terms) -> Arg:
    """a0 + sum of k * arg over the (k, arg) pairs."""
    div: Counter = Counter()
    for k, a in terms:
        for label, c in a.div:
            div[label] += k * c
    return Arg(a0 + sum(k * a.a0 for k, a in terms),
               sum(k * a.alam for k, a in terms), div)


class Frame:
    """Evaluation context: an algebra at the numbers lam and z.

    z is the actual argument the series is evaluated at, so callers wanting
    f(x, -z) pass the negated sample.  A lam that is exactly 0 makes the
    lambda parts of every argument vanish exactly: a pole of Gamma then
    stays exact (exact_pole) and no sample can resonate (off_resonance).
    """

    def __init__(self, na: NumericAlgebra, lam, z,
                 digits: int = DEFAULT_DIGITS):
        self.na = na
        self.lam = lam
        self.z = z
        self.digits = digits
        self.tol = mp.mpf(10) ** (-(digits - 6))
        self._gamma = partial(_gamma_jet, tol=self.tol)
        self._rgamma = partial(_rgamma_jet, tol=self.tol)
        # values that repeat across the kernels and poles of one call
        self._memo: dict = {}

    # -- scalars and tails ---------------------------------------------------

    def scalar(self, arg: Arg):
        return _frac_mp(arg.a0) + _frac_mp(arg.alam) * self.lam / self.z

    def tail(self, arg: Arg) -> NilExpansion:
        na = self.na
        return NilExpansion(na, {(na.label_index(label), 0):
                                 _frac_mp(c) / self.z for label, c in arg.div})

    def const(self, c) -> NilExpansion:
        return NilExpansion.unit(self.na, _to_mp(c))

    def zero(self) -> NilExpansion:
        return NilExpansion(self.na)

    def off_resonance(self, arg: Arg) -> None:
        """Refuse a lambda sample that puts arg near an integer; an exact
        integer scalar (at lambda = 0 every scalar is exact) is a
        structural fact, not an accident."""
        if arg.alam and self.lam:
            s = self.scalar(arg)
            n = _near_int(s, mp.mpf(10) ** (-12))
            if n is not None:
                raise ContinuationError(
                    "parameter sample resonates: argument "
                    f"{mp.nstr(s, 10)} is too close to the integer {n}")

    def exact_pole(self, arg: Arg) -> Optional[int]:
        """m when arg is exactly -m <= 0 in this frame (a pole of Gamma that
        no lambda sample moves, or any pole at lambda = 0), else None."""
        if arg.div or (arg.alam and self.lam):
            return None
        a = arg.a0
        return -int(a) if a.denominator == 1 and a <= 0 else None

    # -- special functions -----------------------------------------------------

    def spectrum(self, div, scale=1) -> _Spectrum:
        """The _Spectrum of scale times the tail of a divisor part div."""
        return self.na.spectrum(div, scale / self.z)

    def _apply(self, jet, arg: Arg) -> NilExpansion:
        return self.spectrum(arg.div).apply(jet, self.scalar(arg))

    def _memoized(self, key, make: Callable):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def gamma(self, arg: Arg) -> NilExpansion:
        # the kernels of one continued series share their heads
        return self._memoized(("gamma", arg.a0, arg.alam, arg.div),
                              lambda: self._apply(self._gamma, arg))

    def rgamma_pole(self, m: int, jmax: int) -> list:
        """The jet of 1/Gamma to order jmax at its zero -m; it depends on
        (m, jmax) alone."""
        return self._memoized(("rgamma", m, jmax),
                              lambda: self._rgamma(-m, jmax))

    def sine_ratio(self, rates: list, size: int, sn: Arg) -> list:
        """[R_0, ..., R_(size-1)] at sn, R_k = _SineRatio(rates, k): the
        values at sn - m, m the floor of sn's rational part, times
        (-1)^(m (sum rates + 1)), which is exact for integer rates."""
        m = floor(sn.a0)
        reduced = _affine(-m, (1, sn))
        ratio = self._memoized(
            ("sine", tuple(sorted(rates)), size, reduced.a0, reduced.alam,
             reduced.div),
            lambda: [self._apply(_SineRatio(rates, k).jet, reduced)
                     for k in range(size)])
        return [-v for v in ratio] if m * (sum(rates) + 1) % 2 else ratio

    def rgamma(self, arg: Arg) -> NilExpansion:
        if self.exact_pole(arg) is not None:
            return self.zero()  # exact zero of 1/Gamma
        return self._apply(self._rgamma, arg)

    def sinpi(self, arg: Arg) -> NilExpansion:
        return self._apply(_sinpi_jet, arg)



# ---------------------------------------------------------------------------
# pairs and their continued series


@dataclass(frozen=True)
class ContinuedSeries:
    """Coefficients of the continued Y-side series over the X-side lattice.

    terms maps (index tuple, log-power tuple) to the coefficient in H(Y);
    the keys mirror the partner geometry's expansion variables, and the
    stripped scalar prefactors x_i^(-a_i*lambda/z) are recorded in
    scalar_exponents (they must agree with the partner's).  The values are
    the coefficients of the series evaluated at negated z, i.e. in the frame
    in which the connection matrix is read off; in nonequivariant mode that
    is z = 1, so each value is the coefficient at -z = -1, and lam and z
    are None.
    """

    example: str
    geometry: str
    mode: str
    lam: Optional[str]
    z: Optional[str]
    digits: int
    truncation: int
    scalar_exponents: tuple
    terms: dict
    na: NumericAlgebra


# the total power of log x in the keys of xside_terms
_LOG_ORDER = 3


def _lattice_map(g_y: Geometry, g_x: Geometry) -> list:
    """D, with d = D n the Y index of the X index n (rows: Y variables).

    T solves charge_X[sigma(j)] = charge_Y[j] T exactly for a permutation
    sigma of the X rows, so both sides have the same shifted index v_j, and
    D_ik = den_Y_i T_ik / den_X_k.  Exactly one T must fit.
    """
    ny, nx = len(g_y.variables), len(g_x.variables)
    cols = [[Fraction(row.charge[i]) for row in g_y.rows] for i in range(ny)]
    found = set()
    if ny == nx and len(g_y.rows) == len(g_x.rows):
        for perm in set(permutations(row.charge for row in g_x.rows)):
            t = [_solve_exact(cols, [Fraction(ch[k]) for ch in perm])
                 for k in range(nx)]
            if None not in t:
                found.add(tuple(tuple(tk[i] for tk in t) for i in range(ny)))
    if len(found) != 1:
        raise ContinuationError(
            f"{g_y.pair}: {len(found)} lattice maps take the charges of "
            f"{g_y.name} to those of {g_x.name}; the continuation needs one")
    (t,) = found
    return [[g_y.variables[i].denominator * t[i][k]
             / g_x.variables[k].denominator for k in range(nx)]
            for i in range(ny)]


class Pair:
    """The Y and X side of one crepant transformation, and what the
    continuation derives from them, each built once: the lattice map D
    (lattice) and the contour variable y_c (var), the one Y variable whose
    row of D has a negative entry; the X side's exact prefactor expansion
    per truncation (xside); and each side's NumericAlgebra (numeric).
    Callers read what it returns and must not change it.
    """

    def __init__(self, y: Geometry, x: Geometry):
        if (y.side, x.side) != ("Y", "X") or y.pair != x.pair:
            raise ContinuationError(f"{y.name} and {x.name} are not the Y "
                                    f"and X side of one pair")
        self.name, self.y, self.x = y.pair, y, x
        self.lattice = _lattice_map(y, x)
        neg = [i for i, row in enumerate(self.lattice) if min(row) < 0]
        if len(neg) != 1:
            raise ContinuationError(f"{self.name}: no single contour variable "
                                    f"in the lattice map {self.lattice}")
        self.var = neg[0]
        self._xside: dict = {}
        self._numeric: dict = {}

    def xside(self, truncation: int) -> dict:
        """The X side's exact prefactor expansion: it depends on no mode,
        lambda, z or precision."""
        if truncation not in self._xside:
            self._xside[truncation] = expand_prefactor(
                build_ifunction(self.x, truncation), log_order=_LOG_ORDER)
        return self._xside[truncation]

    def numeric(self, side: Geometry, lam, digits: int) -> NumericAlgebra:
        """The NumericAlgebra of side, self.y or self.x, at lam and digits."""
        key = (side.side, str(lam), digits)
        if key not in self._numeric:
            self._numeric[key] = NumericAlgebra(side.algebra, lam, digits)
        return self._numeric[key]


_PAIRS: dict = {}


def _pair(example) -> Pair:
    """example if it is a Pair, else the built-in Pair of that name."""
    if isinstance(example, Pair):
        return example
    name = str(example)
    if name not in _PAIRS:
        if name not in pairs():
            raise ContinuationError(f"unknown example {example!r}; choose "
                                    f"from {', '.join(pairs())}")
        _PAIRS[name] = Pair(builtin(name + "-Y"), builtin(name + "-X"))
    return _PAIRS[name]


def _continued_terms(fr: Frame, pair: Pair, bound: int):
    """Minus the kernels' left residues on the X lattice, and the X-side
    scalar exponents, as in continued_ifunction's docstring."""
    d, c, g_y, g_x = pair.lattice, pair.var, pair.y, pair.x
    ny = len(d)
    split = g_y.sector_map[c].denominator
    # column k of A^-1 gives log y_i = sum_k A^-1_ik log x_k, where
    # log x_k = sum_i A_ki log y_i
    acols = [[g_y.variables[i].step * d[i][k] / v.step
              for k, v in enumerate(g_x.variables)] for i in range(ny)]
    inv = [_solve_exact(acols, [Fraction(i == k) for i in range(ny)])
           for k in range(ny)]
    if None in inv:
        raise ContinuationError(f"{g_y.pair}: the lattice map {d} is singular")
    kernels: dict = {}

    def kernel(base):
        if base not in kernels:
            kernels[base] = _Kernel(g_y, fr, c, base=base)
        return kernels[base]

    # the class of s_n, times log q = split step_c log y_c, joins the Y
    # prefactors; rewritten in log x its lambda parts are the scalar
    # exponents and its divisor parts the dressing exp(sum_k Q_k log x_k/z)
    kern = kernel((0,) * ny)
    sigma = _affine(0, (1 / kern.left_rate,
                        Arg(0, kern.kappa.alam, kern.kappa.div)))
    logq = split * g_y.variables[c].step
    pres = [Arg(0, -v.scalar_exponent, () if v.prefactor is None
                else _class_arg(g_y.algebra, v.prefactor).div)
            for v in g_y.variables]
    qs = [_affine(0, (logq * col[c], sigma), *zip(col, pres)) for col in inv]
    dress = {e: v for e, v in exp_log_terms(
        [fr.tail(Arg(0, 0, q.div)) for q in qs], _LOG_ORDER).items()
        if not v.is_zero}
    # logs[k]: (log q)^k = k! h_e (log x)^e over |e| = k, as exact
    # coefficients, with log q = sum_k logq A^-1_ck log x_k
    h = exp_log_terms([logq * col[c] if col[c] else None for col in inv],
                      _LOG_ORDER)
    logs = [{(0,) * ny: Fraction(1)}] + [
        {e: factorial(k) * v for e, v in h.items() if sum(e) == k}
        for k in range(1, _LOG_ORDER + 1)]

    out: dict = {}
    for nx_ in enumerate_degrees(g_x.lattice(bound)):
        dy = [sum(map(mul, row, nx_)) for row in d]
        if any(v.denominator != 1 for i, v in enumerate(dy) if i != c):
            continue
        # every residue class a of d_c mod split has its n-th left pole at
        # d_c = split s_n + a, n the pole row's shifted index there
        for a in range(split):
            kern = kernel(tuple(a if i == c else int(v)
                                for i, v in enumerate(dy)))
            n = kern.kappa.a0 - kern.left_rate * (dy[c] - a) / split
            if n.denominator != 1 or n < 0:
                continue
            try:
                residue = kern.left_residue(int(n))
            except ContinuationError as exc:
                raise ContinuationError(f"{g_y.name}: X index {nx_}, pole "
                                        f"n = {n}: {exc}") from None
            for k, r in enumerate(residue[:len(logs)]):
                for e1, coef in logs[k].items():
                    val = r.scale(-coef)
                    terms = [(e1, val)] + [
                        (tuple(map(add, e1, e2)), val * dv)
                        for e2, dv in dress.items()
                        if sum(e1) + sum(e2) <= _LOG_ORDER]
                    for e, v in terms:
                        if not v.is_zero:
                            key = (nx_, e)
                            out[key] = out[key] + v if key in out else v
    # the sums run at digits + 10, so where residues cancel exactly rounding
    # leaves components near 10^-(digits + 10) times the largest coefficient;
    # each would add an equation to the solve, so every component below
    # 10^-digits of the largest is dropped
    floor = mp.mpf(10) ** -fr.digits * max(
        (v.maxabs() for v in out.values()), default=0)
    kept = {}
    for key, v in out.items():
        v = NilExpansion(fr.na, {c: x for c, x in v.terms.items()
                                 if abs(x) >= floor})
        if not v.is_zero:
            kept[key] = v
    return kept, tuple(-q.alam for q in qs)


def continued_ifunction(example, truncation: int,
                        mode: str = "equivariant-numeric",
                        lam=None, z=None,
                        digits: int = DEFAULT_DIGITS) -> ContinuedSeries:
    """Continuation of the Y-side series past the wall.

    The result collects coefficients of the X-side curve variables (and log
    powers where divisor prefactors force them); values are taken at
    negated z (-1 in nonequivariant mode) so they compare directly against
    the partner series in the connection solve.

    Every pair is derived from the charges of its two sides.  The lattice
    map D (_lattice_map) takes an X index n to the Y index d = D n with the
    same shifted indices.  The contour variable y_c is the one Y variable
    whose row of D has a negative entry; the others are spectators, and N
    splits d_c = N m + a as in the module docstring.  For each X index n in
    the truncation whose spectators are integers, every residue class a
    adds minus the left residue of the kernel with base (a, spectators) at
    the pole s_n with d_c = N s_n + a: n is the shifted index of the pole
    row p at d.  With log q = N step_c log y_c and log x_k = sum_i A_ki
    log y_i, A_ki = step_Y_i D_ik / step_X_k, q^s_n and the Y prefactors
    leave the X monomial times exp(sum_k Q_k log x_k / z).  The lambda
    parts of the classes Q_k are the scalar exponents, which solve_umatrix
    compares with the X side's as an independent derivation.  Their
    divisor parts, and the residue's powers of log q, expand into powers
    of log x, up to the total order xside_terms keeps.

    example is a built-in pair name or a Pair.
    """
    pair = _pair(example)
    lam, z = _parameters(f"{pair.name}: continued_ifunction", mode, lam, z,
                         digits, truncation)
    with mp.workdps(digits + 10):
        na = pair.numeric(pair.y, lam, digits)
        fr = Frame(na, lam, -z, digits=digits)
        terms, scalar_exponents = _continued_terms(fr, pair, truncation)
    sample = mode == "equivariant-numeric"
    return ContinuedSeries(
        example=pair.name, geometry=pair.y.name, mode=mode,
        lam=mp.nstr(lam, digits) if sample else None,
        z=mp.nstr(z, digits) if sample else None,
        digits=digits, truncation=truncation,
        scalar_exponents=scalar_exponents,
        terms=terms, na=na)


# ---------------------------------------------------------------------------
# partner-side series evaluated in the matching frame


def _coefficient_value(co: RatAZ, na: NumericAlgebra, name: str, lam,
                       z) -> NilExpansion:
    """An exact coefficient of geometry name at lam and z.  A z-denominator
    is refused; no X side has one at any truncation."""
    try:
        az = co.as_algebra_z()
    except IFunctionError as exc:
        raise ContinuationError(f"{name}: {exc}") from None
    return _summed(na, (((i, 0), _to_mp(c.evaluate(lam)) * z ** e)
                        for e, elem in sorted(az.layers.items())
                        for i, c in enumerate(elem.coeffs) if not c.is_zero))


def xside_terms(example, truncation: int, mode: str = "equivariant-numeric",
                lam=None, z=None, digits: int = DEFAULT_DIGITS):
    """Coefficients of the partner (X-side) series at negated z.

    Returns (terms, numeric algebra, scalar exponents); the term keys match
    continued_ifunction's and the overall leading z factor is included.
    In nonequivariant mode z = 1, and each value is exact to the working
    precision.  example is a built-in pair name or a Pair.
    """
    pair = _pair(example)
    lam, z = _parameters(f"{pair.name}: xside_terms", mode, lam, z, digits,
                         truncation)
    g_x = pair.x
    pre = pair.xside(truncation)
    with mp.workdps(digits + 10):
        na = pair.numeric(g_x, lam, digits)
        terms = {}
        for key in sorted(pre):
            val = _coefficient_value(pre[key], na, g_x.name, lam,
                                     -z).scale(-z)
            if not val.is_zero:
                terms[key] = val
    return terms, na, tuple(v.scalar_exponent for v in g_x.variables)


# ---------------------------------------------------------------------------
# connection-matrix solve


@dataclass(frozen=True)
class UMatrix:
    """Wall-crossing transformation, one column per X-side basis class.

    entries[i][j] is a tuple of (z exponent, coefficient) pairs giving the
    H(Y)-component i of the image of the j-th X-side class.  In
    nonequivariant mode a cell holds at most one pair, its exponent
    (deg x_j - deg y_i)/2 from the grading, and an empty cell is zero.  In
    equivariant-numeric mode every cell is one pair with exponent 0 and the
    metadata records the (lambda, z) sample.
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
                     digits: int = DEFAULT_DIGITS):
    """Solve U * (X coefficients) = (Y coefficients) over all monomial keys.

    Returns (entries, worst residual).  The system has one equation per
    monomial key and one unknown per X class for each Y class.  It is
    over-determined, and its columns are assembled sparse, straight from
    the X-side terms; _lstsq solves it with one L D L^H per block of the
    normal equations, refusing a block with dependent columns as
    rank-deficient, and the worst residual is the infinity norm of A x - b
    over all equations.

    In nonequivariant mode both sides are taken at z = 1.  An entry below
    10^-(digits // 2) is a zero of the solution and is dropped; any other
    gets its z exponent (deg x_j - deg y_i)/2, and one whose exponent is
    not an integer lies off the grading and is refused.
    """
    keys = sorted(set(xterms) | set(yterms))
    if not keys:
        raise ContinuationError("no monomials to match")
    dim_x, dim_y = na_x.dim, na_y.dim
    shape = f"{mode} solve of {len(keys)} equations x {dim_x} unknowns"
    if len(keys) <= dim_x:
        raise ContinuationError(f"truncation too small for the {shape}")
    with mp.workdps(digits + 10):
        cols = [{} for _ in range(dim_x)]
        bs = [{} for _ in range(dim_y)]
        for r, key in enumerate(keys):
            if key in xterms:
                for (j, _), v in xterms[key].terms.items():
                    cols[j][r] = v
            if key in yterms:
                for (i, _), v in yterms[key].terms.items():
                    bs[i][r] = v
        try:
            xs, residuals = _lstsq(cols, bs)
        except ContinuationError as exc:
            raise ContinuationError(f"{shape}: {exc}") from None
        if mode == "equivariant-numeric":
            return tuple(tuple(((0, v),) for v in x) for x in xs), \
                max(residuals)
        drop = mp.mpf(10) ** (-(digits // 2))
        entries = []
        for i, x in enumerate(xs):
            row = []
            for j, v in enumerate(x):
                k = Fraction(na_x.algebra.degrees[j]
                             - na_y.algebra.degrees[i], 2)
                if abs(v) <= drop:
                    row.append(())
                elif k.denominator != 1:
                    raise ContinuationError(
                        f"{shape}: the entry from {na_x.labels[j]} to "
                        f"{na_y.labels[i]} is {mp.nstr(v, 5)}, off the "
                        f"grading (z exponent {k})")
                else:
                    row.append(((int(k), v),))
            entries.append(tuple(row))
    return tuple(entries), max(residuals)


def solve_umatrix(example, truncation: Optional[int] = None,
                  mode: str = "nonequivariant", lam=None, z=None,
                  digits: int = DEFAULT_DIGITS) -> UMatrix:
    """Read off the connection matrix by matching series coefficients.

    The continued Y-side series and the X-side series are produced at the
    same parameter treatment, their common scalar prefactors are checked to
    agree and stripped, and the resulting over-determined linear system is
    solved; the worst equation residual is reported in the result.
    example is a built-in pair name or a Pair.
    """
    pair = _pair(example)
    where = f"{pair.name}: solve_umatrix"
    if truncation is None:
        truncation = pair.x.algebra.dim + 2
    _parameters(where, mode, lam, z, digits, truncation)
    with _prefixed(where):
        cs = continued_ifunction(pair, truncation, mode=mode, lam=lam, z=z,
                                 digits=digits)
        xt, na_x, scal = xside_terms(pair, truncation, mode=mode, lam=lam,
                                     z=z, digits=digits)
        if scal != cs.scalar_exponents:
            raise ContinuationError(
                "scalar prefactors of the two sides do not agree")
        entries, residual = solve_connection(xt, cs.terms, na_x, cs.na, mode,
                                             digits=digits)
    return UMatrix(
        example=pair.name, mode=mode, lam=cs.lam, z=cs.z, digits=digits,
        truncation=truncation, xlabels=pair.x.algebra.labels,
        ylabels=pair.y.algebra.labels, entries=entries, residual=residual)


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
    evaluations: int  # kernel evaluations, the height probes included


def _class_arg(alg: Algebra, klass, a0=0) -> Arg:
    """a0 + kappa/z for a class kappa = w*lambda*1 + a constant degree-2
    part, given by its coefficient vector (a row class or a prefactor)."""
    unit = klass[alg.unit]
    return Arg(a0, 0 if unit.is_zero else unit.as_monomial()[0],
               {alg.labels[i]: c.as_monomial()[0]
                for i, c in enumerate(klass)
                if i != alg.unit and not c.is_zero})


_Row = namedtuple("_Row", "c arg mult sin")


class _Kernel:
    """Integrand of the continuation contour, derived from the gamma rows
    as in the module docstring, and its residues: at a right pole s = d
    the d-th inside term, at a left pole minus the continued term.  var
    picks the contour variable y_c and base the residue class (by default
    base 0).  A kernel made without q is not evaluated; its left_residue
    still works.
    """

    def __init__(self, geom: Geometry, fr: Frame, var: int, q=None,
                 base=None):
        self.fr = fr
        self.name = geom.name
        alg = geom.algebra
        if q is not None:
            self.pre = _class_arg(alg, geom.variables[var].prefactor)
            self.logq = mp.log(_to_mp(q))
            self.pdress = self.qpow(self.pre)
        base = base or (0,) * len(geom.variables)
        split = geom.sector_map[var].denominator
        groups = Counter((klass, split * geom.rate(j)[var],
                          geom.shifted_index(j, base))
                         for j, klass in enumerate(geom.row_classes))
        self.rows = []
        # (f, argument, multiplicity) of each head factor but the sines
        self._heads = []
        zpower = 1
        for (klass, c, o), mult in groups.items():
            if not (c or o):
                continue
            # the head Gamma(b + kappa/z), with b in (0, 1] and b = o mod 1
            b = 1 - (-o) % 1
            zpower += (b - 1) * mult
            self._heads.append((fr.gamma, _class_arg(alg, klass, b), mult))
            arg = _class_arg(alg, klass, o)
            if c:
                self.rows.append(_Row(c, arg, mult,
                                      fr.sinpi(arg) if c < 0 else None))
            else:
                self._heads.append((fr.rgamma, _affine(1, (1, arg)), mult))
        sector = geom.sector_label_index(base)
        if sector != alg.unit:
            self._heads.append((partial(NilExpansion.basis, fr.na),
                                alg.labels[sector], 1))
        self._zpower = int(zpower)
        odd = sum(-r.c * r.mult for r in self.rows if r.c < 0)
        if any(r.c.denominator != 1 for r in self.rows) or odd % 2 != 1:
            raise ContinuationError(
                f"{geom.name}: pi/sin(pi s) gives the signs of the series "
                f"along {geom.variables[var].symbol} only for integer rates "
                f"whose negative ones sum to an odd number")
        # the Gamma(|c| s - o - kappa/z) factors first, then the 1/Gamma ones
        self.rows.sort(key=lambda r: r.c > 0)
        sines = [r.sin for r in self.rows if r.c < 0 for _ in range(r.mult)]
        self.nsines = len(sines)
        c, self.kappa, _, _ = min(self.rows, key=lambda r: r.c)
        self.left_rate = -c
        if q is not None:
            # as in the module docstring: tau, every hp tau^k != 0, and per
            # row (slope, offset, e_j, [e_j a_j^k/k! for k >= 1])
            first = next((r.arg.div for r in self.rows if r.arg.div), ())
            label, lead = first[0] if first else (None, 1)
            tau = Arg(0, 0, {l: v / lead for l, v in first})
            spec = fr.spectrum(tau.div)
            nu = spec.nodes[0][1]
            self.head = (self.gammas * reduce(mul, sines)).scale(
                (-1 / mp.pi) ** self.nsines)
            powers = [self.head * self.pdress]
            for _ in range(nu - 1):
                powers.append(powers[-1] * fr.tail(tau))
            self.powers = [tuple(v.terms.items()) for v in powers]
            self.contour = []
            for r in self.rows:
                a = Fraction(dict(r.arg.div).get(label, 0))
                if not spec.nilpotent or r.arg.div != Arg(
                        0, 0, {l: a * v / lead for l, v in first}).div:
                    raise ContinuationError(
                        f"{geom.name}: the contour kernel along "
                        f"{geom.variables[var].symbol} needs every row class "
                        f"to be a multiple of one nilpotent class")
                o = fr.scalar(r.arg)
                # Gamma(|c| s - o - kappa/z) or 1/Gamma(1 + o + kappa/z + c s)
                offset, a, e = ((-o, -a, r.mult) if r.c < 0
                                else (1 + o, a, -r.mult))
                self.contour.append((_frac_mp(abs(r.c)), offset, e, [
                    _frac_mp(e * a ** k / factorial(k)) for k in range(1, nu)]
                    if a else []))

    @cached_property
    def gammas(self) -> NilExpansion:
        """The head without its sines, evaluated on first use: a kernel
        made for its rates alone evaluates no Gamma."""
        factors = []
        for f, arg, mult in self._heads:
            factors += [f(arg)] * mult
        return reduce(mul, factors).scale(self.fr.z ** self._zpower)

    @property
    def wall(self) -> Fraction:
        """The inside series' radius prod_j |c_j|^(c_j), in |q|."""
        return prod(Fraction(abs(r.c)) ** int(r.c * r.mult)
                    for r in self.rows)

    def qpow(self, arg: Arg) -> NilExpansion:
        """q^arg = exp(scalar log q) exp(tail log q), for a kernel made with
        q.  The tail must be nilpotent."""
        fr = self.fr
        spec = fr.spectrum(arg.div, self.logq)
        if not spec.nilpotent:
            raise ContinuationError("exponential of a non-nilpotent element")
        return spec.apply(_exp_jet, 0).scale(
            mp.exp(fr.scalar(arg) * self.logq))

    def _body(self, s, factor) -> NilExpansion:
        """factor q^s times the kernel without pi/sin(pi s): e^l/D times
        sum_k E_k hp tau^k, as in the module docstring."""
        fr = self.fr
        ell, den = s * self.logq, 1
        n = [0] * len(self.powers)
        for j, (slope, offset, e, weights) in enumerate(self.contour):
            x = slope * s + offset
            if e > 0 and _gamma_pole_at(x, fr.tol) is not None:
                raise ContinuationError(
                    f"{self.name}: Gamma of contour row {j} has a pole at "
                    f"s = {mp.nstr(s, 8)} (argument {mp.nstr(x, 8)})")
            if e < 0 and mp.isint(x) and mp.re(x) <= 0:
                raise ContinuationError(
                    f"{self.name}: 1/Gamma of contour row {j} is zero at "
                    f"s = {mp.nstr(s, 8)} (argument {mp.nstr(x, 8)})")
            lgamma, p, _, psis = _gamma_pass(x, len(weights))
            ell += e * mp.make_mpc(lgamma)
            den *= mp.make_mpc(p) ** e
            for k, w in enumerate(weights, 1):
                n[k] += w * psis[k - 1]
        series = [factor * mp.exp(ell) / den]  # E_k times e^l/D and factor
        for k in range(1, len(n)):
            series.append(mp.fsum(i * n[i] * series[k - i]
                                  for i in range(1, k + 1)) / k)
        return _summed(fr.na, ((key, c * v) for c, power in
                               zip(series, self.powers) for key, v in power))

    def __call__(self, s) -> NilExpansion:
        s = mp.mpc(s)
        sine = mp.sinpi(s)
        if not sine:
            raise ContinuationError(f"{self.name}: s = {int(mp.re(s))} is a "
                                    f"pole of pi/sin(pi s)")
        return self._body(s, mp.pi / sine)

    def right_residue(self, d: int) -> NilExpansion:
        """Residue at s = d: (-1)^d times the kernel without pi/sin(pi s)."""
        return self._body(mp.mpf(d), (-1) ** d)

    def left_pole(self, n: int) -> Arg:
        """s_n = (kappa_p/z - n)/|c_p|, as an argument."""
        return _affine(-Fraction(n) / self.left_rate,
                       (1 / self.left_rate, self.kappa))

    def left_value(self, n: int) -> NilExpansion:
        """Residue at s_n, for a kernel made with q."""
        logs = [r.scale(self.logq ** k)
                for k, r in enumerate(self.left_residue(n))]
        dress = self.qpow(_affine(0, (1, self.left_pole(n)), (1, self.pre)))
        return reduce(add, logs, self.fr.zero()) * dress

    def left_residue(self, n: int) -> list:
        """[R_0, ..., R_{r-1}] as in the module docstring: the residue at
        s_n is sum_k R_k (log q)^k q^s_n exp(P log q / z); [] if r <= 0."""
        fr = self.fr
        sn = self.left_pole(n)
        fr.off_resonance(sn)
        factors = []
        for r in self.rows:
            arg = (_affine(0, (-r.c, sn), (-1, r.arg)) if r.c < 0
                   else _affine(1, (1, r.arg), (r.c, sn)))
            factors.append((r, arg, fr.exact_pole(arg)))
        size = sum(r.mult if r.c < 0 else -r.mult
                   for r, _, m in factors if m is not None)
        if size <= 0:
            return []
        const = self.gammas.scale(mp.pi * (-1 / mp.pi) ** self.nsines)
        # the series of the factors without a tail are multiplied first:
        # Euler's constant then cancels exactly between Gamma(eps) and
        # 1/Gamma(1 + eps), as the 0 in ex4's nonequivariant n = 0 term needs
        series = [fr.const(1)] + [fr.zero()] * (size - 1)
        scalars = [mp.mpf(1)] + [mp.mpf(0)] * (size - 1)
        rates = []
        for r, arg, m in factors:
            scale = [_frac_mp(abs(r.c) ** k) / factorial(k)
                     for k in range(size + 1)]
            scal = fr.scalar(arg)
            fjet = fr._gamma if r.c < 0 else fr._rgamma
            if m is None and r.c < 0:
                const = reduce(mul, [r.sin] * r.mult, const)
            if m is None and arg.div:
                spec = fr.spectrum(arg.div)
                jet = [spec.apply(fjet, scal, k).scale(scale[k])
                       for k in range(size)]
                series = reduce(_series_mul, [jet] * r.mult, series)
                continue
            if m is None:
                jet = [v * w for v, w in zip(fjet(scal, size - 1), scale)]
            else:
                # 1/Gamma(-m + |c| eps) = eps * jet; Gamma is 1/(eps * jet)
                jet = [v * w for v, w in
                       zip(fr.rgamma_pole(m, size), scale)][1:]
                if r.c < 0:
                    jet = _series_recip(jet)
                    # its head sine (-1)^m sin(pi |c| s_n) moves into R
                    rates += [abs(r.c)] * r.mult
                    const = const.scale((-1) ** (m * r.mult))
            scalars = reduce(_series_mul, [jet] * r.mult, scalars)
        ratio = fr.sine_ratio(rates, size, sn)
        series = _series_mul(_series_mul(series, scalars), ratio)
        return [(const * series[size - 1 - k]).scale(mp.mpf(1) / factorial(k))
                for k in range(size)]


# one rule for every integral, so its node cache persists between calls
_GAUSS_LEGENDRE = GaussLegendre(mp)


def mellin_barnes_integral(example, q, lam=None, z=None, sigma=None,
                           digits: int = DEFAULT_DIGITS, tol=None) -> MBResult:
    """Contour integral of the continuation kernel along a vertical line.

    The contour variable and the wall are derived as in the module
    docstring; a contour variable with N > 1 (ex3's y1) is refused.  The
    returned value equals the inside residue series for |q| below the
    wall and the continued series above it; residues of poles sitting on
    the wrong side of the line are transferred explicitly, so the line
    itself never needs to separate the two interlaced pole families.

    The line is cut at fixed breakpoints and each interval is integrated
    by mpmath's Gauss-Legendre rule at degrees 1, 2, ...: every node costs
    one kernel evaluation, which serves all components at once.  An
    interval stops at the first degree whose error estimate, summed over
    the components, fits its share of what the tail beyond the height
    leaves of tol (default 1e-30); one that never fits raises
    ContinuationError naming it.  The error budget, quadrature estimate
    plus tail, is thus at most tol.  An evaluation costs one fixed-point
    pass per row (_gamma_pass), scalar work and one exponential, as in the
    module docstring.  evaluations counts the kernel evaluations, the
    height probes included.  example is a built-in pair name or a Pair.
    """
    pair = _pair(example)
    where = f"{pair.name}: mellin_barnes_integral"
    lam, z = _parameters(where, "equivariant-numeric", lam, z, digits)
    g_y, c = pair.y, pair.var
    with _prefixed(where), mp.workdps(digits + 10):
        split = g_y.sector_map[c].denominator
        if split != 1:
            raise ContinuationError(
                f"{g_y.name}: the contour variable "
                f"{g_y.variables[c].symbol} splits into {split} residue "
                f"classes; the Mellin-Barnes integral runs along one")
        q = _number(where, "q", q)
        tol = _number(where, "tol", "1e-30" if tol is None else tol, real=True)
        if tol <= 0:
            raise ContinuationError("tol must be positive")
        if mp.im(q) == 0 and mp.re(q) <= 0:
            raise ContinuationError(
                "q must be nonzero and stay off the branch cut")
        na = pair.numeric(g_y, lam, digits)
        fr = Frame(na, lam, z, digits=digits)
        # the kernel's own errors name the Y side and the stage
        with _prefixed(f"{g_y.name}: kernel set-up"):
            kern = _Kernel(g_y, fr, c, q)
        wall, aq = kern.wall, abs(q)
        if abs(aq - _frac_mp(wall)) < mp.mpf("1e-12"):
            raise ContinuationError("q sits on the convergence wall")
        side = "inside" if aq < _frac_mp(wall) else "outside"
        sigma = _number(where, "sigma", "0.5" if sigma is None else sigma,
                        real=True)

        # poles near the line are a precondition failure, not a warning;
        # only poles and integers within 1 of the line are checked, and the
        # residues of left poles right of it and right poles left of it are
        # transferred
        lefts = []
        for n in count():
            val = mp.re(fr.scalar(kern.left_pole(n)))
            if val < sigma - 1:
                break
            if abs(val - sigma) < mp.mpf("0.05"):
                raise ContinuationError(
                    f"left pole {n} sits within 0.05 of the contour")
            if n > 400:
                raise ContinuationError("left pole family does not descend")
            if val >= sigma:
                lefts.append(n)
        for d in range(int(mp.floor(sigma)), int(mp.ceil(sigma)) + 1):
            if abs(d - sigma) < mp.mpf("0.05"):
                raise ContinuationError(
                    f"{'right pole' if d >= 0 else 'pole of pi/sin(pi s) at'}"
                    f" {d} sits within 0.05 of the contour")
        rights = range(max(0, int(mp.ceil(sigma))))
        # the residues of poles caught on the wrong side of the line, before
        # the quadrature: right poles left of the line enter with a plus,
        # continued-family poles right of the line with a minus
        transferred = fr.zero()
        for n in lefts:
            with _prefixed(f"{g_y.name}: left pole n = {n}"):
                transferred = transferred - kern.left_value(n)
        for d in rights:
            with _prefixed(f"{g_y.name}: right pole d = {d}"):
                transferred = transferred + kern.right_residue(d)

        evaluations = 0

        def evaluate(t):
            nonlocal evaluations
            evaluations += 1
            return kern(sigma + 1j * t)

        # for real parameters the integrand obeys the Schwarz reflection
        # kern(conj s) = conj kern(s) componentwise, so the lower half of
        # the line is the conjugate of the upper half
        symmetric = (mp.im(lam) == 0 and mp.im(z) == 0 and mp.im(q) == 0
                     and mp.re(q) > 0)

        def half_tail(t, step):
            # the tail beyond t on t's half of the line, from the decay
            # observed between t - step and t
            top, prev = evaluate(t).maxabs(), evaluate(t - step).maxabs()
            if top == 0:
                return top
            return top / (mp.log(prev / top) if prev > top else mp.mpf("0.1"))

        # the height: both halves of the line are cut at t_cur, so the tail
        # is the sum of the two halves' tails
        t_cur = mp.mpf(12)
        while True:
            tail = half_tail(t_cur, 1)
            tail += tail if symmetric else half_tail(-t_cur, -1)
            if tail < tol or t_cur >= 220:
                break
            t_cur += 10
        if tail > tol:
            raise ContinuationError(
                f"tail estimate {mp.nstr(tail, 5)} exceeds the tolerance")

        if symmetric:
            nodes = [0, t_cur / 4, t_cur]
        else:
            nodes = [-t_cur, -t_cur / 4, 0, t_cur / 4, t_cur]
        # each interval gets an equal share of half the room the tail leaves
        # (a reflected one counts twice), so quad_err / 2 pi + tail <= tol
        share = (tol - tail) * mp.pi / (len(nodes) - 1) / (1 + symmetric)
        prec, eps = mp.prec, mp.eps / 8
        max_degree = _GAUSS_LEGENDRE.guess_degree(prec)
        vhat_terms = {}
        quad_err = mp.mpf(0)
        for a, b in zip(nodes, nodes[1:]):
            # degrees 1, 2, ... as in mp.quad, one kernel evaluation per
            # node for every component, until the summed estimate fits
            sums = []
            for degree in range(1, max_degree + 1):
                acc: dict = {}
                with mp.extraprec(20):
                    for t, w in _GAUSS_LEGENDRE.get_nodes(a, b, degree, prec):
                        for comp, v in evaluate(t).terms.items():
                            acc[comp] = acc.get(comp, 0) + w * v
                sums.append(acc)
                err = mp.inf if degree == 1 else mp.fsum(
                    _GAUSS_LEGENDRE.estimate_error(
                        [r.get(comp, 0) for r in sums], prec, eps)
                    for comp in set().union(*sums))
                if err <= share:
                    break
            else:
                raise ContinuationError(
                    f"the quadrature over t in [{mp.nstr(a, 5)}, "
                    f"{mp.nstr(b, 5)}] reached degree {max_degree} with "
                    f"error {mp.nstr(err, 5)}, above its share "
                    f"{mp.nstr(share, 5)} of the tolerance {mp.nstr(tol, 5)}")
            for comp, v in acc.items():
                v = v + mp.conj(v) if symmetric else v
                # (1/2<pi>i) ds with ds = i dt
                vhat_terms[comp] = vhat_terms.get(comp, 0) + v / (2 * mp.pi)
            quad_err += err * (1 + symmetric)
        budget = quad_err / (2 * mp.pi) + tail
        vhat = NilExpansion(na, {c: v for c, v in vhat_terms.items() if v})

        # the left-closure value is the negative of the separated line
        # integral
        return MBResult(example=pair.name, value=transferred - vhat, error=budget,
                        side=side, sigma=sigma, height=t_cur, wall=wall,
                        corrections=len(lefts) + len(rights),
                        evaluations=evaluations)
