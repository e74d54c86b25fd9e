"""Finite-dimensional graded cohomology algebras over the exact scalar field.

An Algebra is its multiplication table and its integrals, with basis
labels, cohomological degrees, inertia-sector labels and a distinguished
unit.  integrals[k] is the integral of basis class k.  The pairing is the
integral of the product, (a, b) = ∫ab, so the Gram matrix is derived from
the table and the integrals, never typed.  Elements are coefficient
vectors over LambdaRat.  AlgebraZ holds finite Laurent polynomials in z
with Element coefficients; deg z = 2.

Algebra.minimal_factors gives the spectrum of multiplication by a
degree-two class exactly: the squarefree factors of its minimal polynomial
over Q.  At lambda != 0 the grading makes multiplication by a degree-two
class lambda times a conjugate of its rational matrix at lambda = 1, so
that matrix's factors serve every lambda sample.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .lambda_rat import (LambdaPoly, LambdaRat, RAT_ONE, RAT_ZERO,
                         _poly_divmod, _poly_gcd, format_lambda_rat)


class AlgebraError(ValueError):
    pass


class Algebra:
    """Basis-indexed multiplication table and integrals; validated on demand.

    The Gram matrix gram[i][j] = sum_k table[i][j][k] * integrals[k] is
    derived once.  basis, one and zero return Elements built once and
    shared: Elements are immutable, so no caller can change another's.
    """

    def __init__(self, name, labels, degrees, sectors, unit, table,
                 integrals):
        self.name = name
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.degrees = tuple(degrees)
        self.sectors = tuple(Fraction(s) for s in sectors)
        self.unit = unit
        # table[i][j]: coefficient vector of basis_i · basis_j
        self.table = tuple(tuple(tuple(row) for row in line) for line in table)
        self.integrals = tuple(integrals)
        if len(self.integrals) != self.dim:
            raise AlgebraError(f"{name}: expected {self.dim} integrals")
        self.gram = tuple(
            tuple(sum((c * w for c, w in zip(vec, self.integrals)
                       if not c.is_zero and not w.is_zero), RAT_ZERO)
                  for vec in line)
            for line in self.table)
        self._dual = None
        self._gram_inv = None
        # (class, lambda = 0) -> minimal_factors of the class
        self._minimal: dict = {}
        zero = (RAT_ZERO,) * self.dim
        self._zero = Element(self, zero)
        self._basis = tuple(Element(self, zero[:i] + (RAT_ONE,) + zero[i + 1:])
                            for i in range(self.dim))

    # -- construction helpers ----------------------------------------------

    def element(self, coeffs) -> "Element":
        coeffs = tuple(c if isinstance(c, LambdaRat) else LambdaRat(c)
                       for c in coeffs)
        if len(coeffs) != self.dim:
            raise AlgebraError(f"{self.name}: expected {self.dim} coefficients")
        return Element(self, coeffs)

    def basis(self, i: int) -> "Element":
        return self._basis[i]

    def zero(self) -> "Element":
        return self._zero

    def one(self) -> "Element":
        return self._basis[self.unit]

    def from_label(self, label: str) -> "Element":
        return self.basis(self.labels.index(label))

    # -- pairing and duals ---------------------------------------------------

    def pairing(self, a: "Element", b: "Element") -> LambdaRat:
        if a.algebra is not self or b.algebra is not self:
            raise AlgebraError("pairing across algebras")
        total = RAT_ZERO
        for i, ai in enumerate(a.coeffs):
            if ai.is_zero:
                continue
            row = self.gram[i]
            for j, bj in enumerate(b.coeffs):
                if not bj.is_zero and not row[j].is_zero:
                    total = total + ai * bj * row[j]
        return total

    def gram_inverse(self):
        if self._gram_inv is None:
            self._gram_inv = _invert(self.gram, self.name)
        return self._gram_inv

    def dual_basis(self):
        """Elements Φ^β with pairing(Φ_α, Φ^β) = δ_α^β."""
        if self._dual is None:
            inv = self.gram_inverse()
            self._dual = tuple(
                self.element([inv[g][b] for g in range(self.dim)])
                for b in range(self.dim))
        return self._dual

    # -- spectra ---------------------------------------------------------------

    def minimal_factors(self, klass, at_zero: bool) -> tuple:
        """((factor, multiplicity), ...) of the class sum c_l D_l, given as
        (label, c) pairs of degree-two labels: the squarefree factors over Q
        of the minimal polynomial of multiplication by the class, each
        monic, as a LambdaPoly in the eigenvalue.  The factor x, when
        present, stands alone.

        at_zero takes the structure constants at lambda = 0.  Otherwise
        they are taken at lambda = 1, and each must be the lambda-monomial
        the grading asks for, so that the eigenvalues at a sample lambda
        are lambda times the roots.  Cached per (class, at_zero).
        """
        klass = tuple(sorted((str(l), Fraction(c)) for l, c in klass if c))
        key = (klass, bool(at_zero))
        if key not in self._minimal:
            self._minimal[key] = _squarefree(
                _minimal_polynomial(self._class_matrix(klass, at_zero)))
        return self._minimal[key]

    def _class_matrix(self, klass, at_zero: bool) -> list:
        """Rows of multiplication by the class at lambda = 0 or 1."""
        n = self.dim
        name = " + ".join(f"{c}*{l}" for l, c in klass) or "0"
        where = f"{self.name}: class {name}"
        m = [[Fraction(0)] * n for _ in range(n)]
        for label, c in klass:
            if label not in self.labels:
                raise AlgebraError(f"{where}: no label {label!r}")
            i = self.labels.index(label)
            if self.degrees[i] != 2:
                raise AlgebraError(f"{where}: label {label} has degree "
                                   f"{self.degrees[i]}, not 2")
            for j in range(n):
                for k, v in enumerate(self.table[i][j]):
                    if v.is_zero:
                        continue
                    if at_zero:
                        try:
                            v = v.nonequivariant_limit()
                        except ValueError as exc:
                            raise AlgebraError(f"{where}: {exc}") from None
                    else:
                        mono = v.as_monomial()
                        if mono is None or 2 * mono[1] != \
                                2 + self.degrees[j] - self.degrees[k]:
                            raise AlgebraError(
                                f"{where}: structure constant "
                                f"{format_lambda_rat(v)} at ({label}, "
                                f"{self.labels[j]}) is not the "
                                f"lambda-monomial the grading asks for")
                        v = mono[0]
                    m[k][j] += c * v
        return m

    # -- validation ----------------------------------------------------------

    def mul_basis(self, i: int, j: int) -> "Element":
        return Element(self, self.table[i][j])

    def validate(self):
        n = self.dim
        one = self.one()
        for j in range(n):
            if self.mul_basis(self.unit, j) != self.basis(j):
                raise AlgebraError(f"{self.name}: unit fails on {self.labels[j]}")
        for i in range(n):
            for j in range(i, n):
                if self.table[i][j] != self.table[j][i]:
                    raise AlgebraError(
                        f"{self.name}: product not commutative at "
                        f"({self.labels[i]}, {self.labels[j]})")
        self._validate_grading()
        self._validate_associativity()
        self._validate_pairing()

    def _validate_grading(self):
        # each structure constant is a λ-monomial whose degree restores
        # additivity: deg Φ_i + deg Φ_j = deg Φ_k + 2·(λ-power)
        for i in range(self.dim):
            for j in range(self.dim):
                for k, c in enumerate(self.table[i][j]):
                    if c.is_zero:
                        continue
                    mono = c.as_monomial()
                    if mono is None:
                        raise AlgebraError(
                            f"{self.name}: structure constant not λ-homogeneous "
                            f"at ({self.labels[i]}, {self.labels[j]})")
                    if self.degrees[i] + self.degrees[j] != \
                            self.degrees[k] + 2 * mono[1]:
                        raise AlgebraError(
                            f"{self.name}: graded product violated at "
                            f"({self.labels[i]}, {self.labels[j]})")

    def _validate_associativity(self):
        # after _validate_grading each nonzero structure constant is c·λ^p
        # with 2p = deg Φ_i + deg Φ_j - deg Φ_l, so every term of
        # ((Φ_i Φ_j) Φ_k)_m and of (Φ_i (Φ_j Φ_k))_m carries the one
        # λ-power (deg Φ_i + deg Φ_j + deg Φ_k - deg Φ_m)/2, and the two
        # sides agree exactly when the sums of the rational parts c do
        n = self.dim
        rat = [[[(l, c.as_monomial()[0]) for l, c in enumerate(vec)
                 if not c.is_zero] for vec in line] for line in self.table]

        def product(first, second):
            out: dict = {}
            for l, a in first:
                for m, b in second(l):
                    out[m] = out.get(m, 0) + a * b
            return {m: v for m, v in out.items() if v}

        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if product(rat[i][j], lambda l: rat[l][k]) != \
                            product(rat[j][k], lambda l: rat[i][l]):
                        raise AlgebraError(
                            f"{self.name}: associativity fails at "
                            f"({self.labels[i]}, {self.labels[j]}, "
                            f"{self.labels[k]})")

    def _validate_pairing(self):
        # the Gram is the integral of the product, so a commutative and
        # associative table makes it symmetric and Frobenius, (ab, c) = ∫abc
        # = (a, bc); what is left is one virtual degree, deg e_k - 2·(the
        # λ-power of ∫e_k), for every nonzero integral, sectors paired only
        # with their opposites, and nondegeneracy
        dvirt = None
        for k, c in enumerate(self.integrals):
            if c.is_zero:
                continue
            where = f"{self.name}: integral of {self.labels[k]}"
            mono = c.as_monomial()
            if mono is None:
                raise AlgebraError(f"{where} is not a λ-monomial")
            d = self.degrees[k] - 2 * mono[1]
            if dvirt is None:
                dvirt = d
            elif d != dvirt:
                raise AlgebraError(
                    f"{where} has virtual degree {d}, not {dvirt}")
        for i in range(self.dim):
            for j in range(self.dim):
                if not self.gram[i][j].is_zero and \
                        (self.sectors[i] + self.sectors[j]) % 1 != 0:
                    raise AlgebraError(
                        f"{self.name}: pairing couples {self.labels[i]} and "
                        f"{self.labels[j]}, of sectors {self.sectors[i]} and "
                        f"{self.sectors[j]}")
        self.gram_inverse()  # raises if singular

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return (self.name, self.labels, self.degrees, self.sectors, self.unit,
                self.table, self.integrals) == \
               (other.name, other.labels, other.degrees, other.sectors,
                other.unit, other.table, other.integrals)

    def __repr__(self):
        return f"Algebra({self.name}, dim={self.dim})"


def _invert(gram, name):
    n = len(gram)
    a = [list(row) for row in gram]
    inv = [[RAT_ONE if i == j else RAT_ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not a[r][col].is_zero), None)
        if pivot is None:
            raise AlgebraError(f"{name}: pairing matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col].inverse()
        a[col] = [x * scale for x in a[col]]
        inv[col] = [x * scale for x in inv[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


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
                a[k] = [x - f * y if y else x for x, y in zip(a[k], a[r])]
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


def _minimal_polynomial(m: list) -> LambdaPoly:
    """The monic minimal polynomial of the square matrix m: the first exact
    linear dependence of m^k on I, m, ..., m^(k-1)."""
    n = len(m)
    power = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    powers = []
    while True:
        powers.append([x for row in power for x in row])
        power = [[sum(a * b for a, b in zip(row, col) if a and b)
                  for col in zip(*m)] for row in power]
        x = _solve_exact(powers, [v for row in power for v in row])
        if x is not None:
            return LambdaPoly({len(powers): 1,
                               **{i: -v for i, v in enumerate(x)}})


def _derivative(p: LambdaPoly) -> LambdaPoly:
    return LambdaPoly({e - 1: e * c for e, c in p.coeffs.items() if e})


def _squarefree(f: LambdaPoly) -> tuple:
    """Yun's squarefree factorization of the monic f: ((a_i, i), ...) with
    f = prod a_i^i, each a_i squarefree and monic; the factor x of f is
    split off its a_i."""
    out = []
    df = _derivative(f)
    g = _poly_gcd(f, df)
    b, c = _poly_divmod(f, g)[0], _poly_divmod(df, g)[0]
    d = c - _derivative(b)
    mult = 1
    while b.degree() > 0:
        a = _poly_gcd(b, d)
        b, c = _poly_divmod(b, a)[0], _poly_divmod(d, a)[0]
        d = c - _derivative(b)
        if a.degree() > 0 and not a.coeff(0):
            out.append((LambdaPoly.gen(), mult))
            a = _poly_divmod(a, LambdaPoly.gen())[0]
        if a.degree() > 0:
            out.append((a, mult))
        mult += 1
    return tuple(out)


class Element:
    """Vector in an Algebra's basis with LambdaRat coefficients."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: Algebra, coeffs):
        self.algebra = algebra
        self.coeffs = tuple(coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.algebra), self.coeffs))

    def __neg__(self):
        return Element(self.algebra, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, Element) or other.algebra is not self.algebra:
            return NotImplemented
        return Element(self.algebra,
                       tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, Element) or other.algebra is not self.algebra:
            return NotImplemented
        return Element(self.algebra,
                       tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LambdaRat)):
            return Element(self.algebra, tuple(c * other for c in self.coeffs))
        if not isinstance(other, Element):
            return NotImplemented
        if other.algebra is not self.algebra:
            raise AlgebraError("product across algebras")
        alg = self.algebra
        out = [RAT_ZERO] * alg.dim
        for i, ai in enumerate(self.coeffs):
            if ai.is_zero:
                continue
            for j, bj in enumerate(other.coeffs):
                if bj.is_zero:
                    continue
                f = ai * bj
                for k, c in enumerate(alg.table[i][j]):
                    if not c.is_zero:
                        out[k] = out[k] + f * c
        return Element(alg, tuple(out))

    __rmul__ = __mul__

    def pairing(self, other: "Element") -> LambdaRat:
        return self.algebra.pairing(self, other)

    def coefficient(self, label: str) -> LambdaRat:
        return self.coeffs[self.algebra.labels.index(label)]

    def nonequivariant_limit(self) -> "Element":
        out = []
        for lbl, c in zip(self.algebra.labels, self.coeffs):
            try:
                out.append(LambdaRat(c.nonequivariant_limit()))
            except ValueError as exc:
                raise ValueError(f"pole at λ=0 in coefficient of {lbl}: "
                                 f"{format_lambda_rat(c)}") from exc
        return Element(self.algebra, tuple(out))

    def __repr__(self):
        parts = [f"{format_lambda_rat(c)}·{l}"
                 for l, c in zip(self.algebra.labels, self.coeffs)
                 if not c.is_zero]
        return " + ".join(parts) if parts else "0"


class AlgebraZ:
    """Finite Laurent polynomial in z with Element coefficients."""

    __slots__ = ("algebra", "layers")

    def __init__(self, algebra: Algebra, layers=None):
        self.algebra = algebra
        out = {}
        for e, v in (layers or {}).items():
            if not v.is_zero:
                out[e] = v
        self.layers = out

    @property
    def is_zero(self):
        return not self.layers

    def __bool__(self):
        return bool(self.layers)

    def support(self):
        return sorted(self.layers)

    def coefficient(self, e: int) -> Element:
        return self.layers.get(e, self.algebra.zero())

    def __eq__(self, other):
        if not isinstance(other, AlgebraZ):
            return NotImplemented
        return self.algebra is other.algebra and self.layers == other.layers

    def __add__(self, other):
        if not isinstance(other, AlgebraZ):
            return NotImplemented
        out = dict(self.layers)
        for e, v in other.layers.items():
            s = out.get(e)
            s = v if s is None else s + v
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        r = AlgebraZ.__new__(AlgebraZ)
        r.algebra = self.algebra
        r.layers = out
        return r

    def __neg__(self):
        r = AlgebraZ.__new__(AlgebraZ)
        r.algebra = self.algebra
        r.layers = {e: -v for e, v in self.layers.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LambdaRat, Element)):
            out = {}
            for e, v in self.layers.items():
                p = v * other
                if not p.is_zero:
                    out[e] = p
            r = AlgebraZ.__new__(AlgebraZ)
            r.algebra = self.algebra
            r.layers = out
            return r
        if not isinstance(other, AlgebraZ):
            return NotImplemented
        out = {}
        for e1, v1 in self.layers.items():
            for e2, v2 in other.layers.items():
                e = e1 + e2
                p = v1 * v2
                s = out.get(e)
                s = p if s is None else s + p
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        r = AlgebraZ.__new__(AlgebraZ)
        r.algebra = self.algebra
        r.layers = out
        return r

    __rmul__ = __mul__

    def shift(self, k: int) -> "AlgebraZ":
        """Multiply by z^k."""
        r = AlgebraZ.__new__(AlgebraZ)
        r.algebra = self.algebra
        r.layers = {e + k: v for e, v in self.layers.items()}
        return r

    def nonequivariant_limit(self) -> "AlgebraZ":
        out = {}
        for e, v in self.layers.items():
            try:
                out[e] = v.nonequivariant_limit()
            except ValueError as exc:
                raise ValueError(f"z^{e} layer: {exc}") from exc
        return AlgebraZ(self.algebra, out)

    def __repr__(self):
        keys = sorted(self.layers)
        return "AlgebraZ({" + ", ".join(f"{e}: {self.layers[e]!r}" for e in keys) + "})"


def nonequivariant_limit(x):
    """λ → 0 on any exact value; raises ValueError at a pole."""
    if isinstance(x, LambdaRat):
        return LambdaRat(x.nonequivariant_limit())
    return x.nonequivariant_limit()
