"""Finite-dimensional graded cohomology algebras over the exact scalar field.

An Algebra packages basis labels, cohomological degrees, inertia-sector
labels, structure constants, a distinguished unit, and the pairing matrix.
Elements are coefficient vectors over LambdaRat.  AlgebraZ holds finite
Laurent polynomials in z with Element coefficients; deg z = 2.
"""

from __future__ import annotations

from fractions import Fraction

from .lambda_rat import LambdaRat, RAT_ONE, RAT_ZERO, format_lambda_rat


class AlgebraError(ValueError):
    pass


class Algebra:
    """Basis-indexed multiplication table and pairing; validated on demand."""

    def __init__(self, name, labels, degrees, sectors, unit, table, gram):
        self.name = name
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.degrees = tuple(degrees)
        self.sectors = tuple(Fraction(s) for s in sectors)
        self.unit = unit
        # table[i][j]: coefficient vector of basis_i · basis_j
        self.table = tuple(tuple(tuple(row) for row in line) for line in table)
        self.gram = tuple(tuple(row) for row in gram)
        self._dual = None
        self._gram_inv = None

    # -- construction helpers ----------------------------------------------

    def element(self, coeffs) -> "Element":
        coeffs = tuple(c if isinstance(c, LambdaRat) else LambdaRat(c)
                       for c in coeffs)
        if len(coeffs) != self.dim:
            raise AlgebraError(f"{self.name}: expected {self.dim} coefficients")
        return Element(self, coeffs)

    def basis(self, i: int) -> "Element":
        return self.element([1 if j == i else 0 for j in range(self.dim)])

    def zero(self) -> "Element":
        return self.element([0] * self.dim)

    def one(self) -> "Element":
        return self.basis(self.unit)

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
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = self.mul_basis(i, j) * self.basis(k)
                    right = self.basis(i) * self.mul_basis(j, k)
                    if left != right:
                        raise AlgebraError(
                            f"{self.name}: associativity fails at "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})")
        self._validate_grading()
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

    def _validate_pairing(self):
        n = self.dim
        dvirt = None
        for i in range(n):
            for j in range(n):
                g = self.gram[i][j]
                if g != self.gram[j][i]:
                    raise AlgebraError(f"{self.name}: pairing not symmetric")
                if g.is_zero:
                    continue
                if (self.sectors[i] + self.sectors[j]) % 1 != 0:
                    raise AlgebraError(
                        f"{self.name}: pairing couples sectors "
                        f"{self.sectors[i]} and {self.sectors[j]}")
                mono = g.as_monomial()
                if mono is None:
                    raise AlgebraError(f"{self.name}: pairing entry not a λ-monomial")
                d = self.degrees[i] + self.degrees[j] - 2 * mono[1]
                if dvirt is None:
                    dvirt = d
                elif d != dvirt:
                    raise AlgebraError(f"{self.name}: pairing not homogeneous")
        self.gram_inverse()  # raises if singular
        # Frobenius property ties pairing to product: (ab, c) = (a, bc)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.pairing(self.mul_basis(i, j), self.basis(k))
                    rhs = self.pairing(self.basis(i), self.mul_basis(j, k))
                    if lhs != rhs:
                        raise AlgebraError(
                            f"{self.name}: Frobenius compatibility fails at "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})")

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return (self.name, self.labels, self.degrees, self.sectors, self.unit,
                self.table, self.gram) == \
               (other.name, other.labels, other.degrees, other.sectors,
                other.unit, other.table, other.gram)

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
