"""Exact arithmetic foundation: rationals, integer lattice linear algebra,
and cyclotomic-field numbers.

Rational scalars are plain ``fractions.Fraction`` values (exposed as
``Rational``).  Integer matrices are thin wrappers over row-major lists of
Python ints.  Cyclotomic numbers are stored canonically over the power basis
1, zeta_N, ..., zeta_N^(phi(N)-1), fully reduced modulo the N-th cyclotomic
polynomial, so equality is coefficient-wise.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CyclotomicOrderTooLarge, InternalError, NotRational, Singular

Rational = Fraction

DEFAULT_MAX_CYCLO_ORDER = 10_000


def max_cyclo_order() -> int:
    return int(os.environ.get("LE_MAX_CYCLO_ORDER", DEFAULT_MAX_CYCLO_ORDER))


# ---------------------------------------------------------------------------
# Integer matrices and exact linear algebra
# ---------------------------------------------------------------------------

class IntMatrix:
    """Dense integer matrix, row-major, arbitrary-precision entries."""

    def __init__(self, data):
        self.data = [list(map(int, row)) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __repr__(self):
        return f"IntMatrix({self.data!r})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return IntMatrix(
            [
                [
                    sum(self.data[i][k] * other.data[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        d = det_rational([[Fraction(e) for e in row] for row in self.data])
        if d.denominator != 1:
            raise InternalError(f"determinant of an integer matrix is {d}")
        return int(d)

    def diagonal(self) -> list:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]


def det_rational(rows) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination over Fraction."""
    a = [list(row) for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1, 1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def solve_rational_system(A, b):
    """Exact solution of A x = b; A square integer (or rational) matrix.

    Raises Singular when det(A) = 0, which for our callers signals
    non-simple vertex data.
    """
    rows = A.data if isinstance(A, IntMatrix) else A
    n = len(rows)
    a = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise Singular(f"pivot missing in column {col}")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [e * inv for e in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [e - f * p for e, p in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def smith_normal_form(M: IntMatrix):
    """Smith normal form with transforms: M = P * D * Q.

    P and Q are unimodular; D is diagonal with d_1 | d_2 | ... >= 0.
    """
    a = [row[:] for row in M.data]
    m, n = M.rows, M.cols
    # Maintain M_orig = P @ A @ Q throughout: a row op E on A (A := E A)
    # updates P := P E^{-1} (a column op on P); dually for Q.
    P = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Q = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in P:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, k):
        # row_i += k * row_j   =>   col_j of P -= k * col_i
        for c in range(n):
            a[i][c] += k * a[j][c]
        for r in P:
            r[j] -= k * r[i]

    def row_neg(i):
        for c in range(n):
            a[i][c] = -a[i][c]
        for r in P:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        Q[i], Q[j] = Q[j], Q[i]

    def col_add(i, j, k):
        # col_i += k * col_j   =>   row_j of Q -= k * row_i
        for r in a:
            r[i] += k * r[j]
        for c in range(n):
            Q[j][c] -= k * Q[i][c]

    def col_neg(i):
        for r in a:
            r[i] = -r[i]
        Q[i] = [-x for x in Q[i]]

    def pivot_pos(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        return best

    t = 0
    while t < min(m, n):
        best = pivot_pos(t)
        if best is None:
            break
        _, pi, pj = best
        row_swap(t, pi)
        col_swap(t, pj)
        # Clear row and column t; restart if a division leaves a remainder.
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                break
        # Enforce divisibility of the remaining block by the pivot.
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    row_add(t, i, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if a[t][t] < 0:
            row_neg(t)
        t += 1

    D = [[a[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    return IntMatrix(P), IntMatrix(D), IntMatrix(Q)


def gcd_vector(v) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, abs(int(x)))
    return g


# ---------------------------------------------------------------------------
# Rational angles (roots of unity, additively)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalAngle:
    """The root of unity e^{2 pi i q}, stored as q in [0, 1)."""

    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q) % 1)

    @property
    def order(self) -> int:
        return self.q.denominator

    @property
    def is_one(self) -> bool:
        return self.q == 0

    def inverse(self) -> "RationalAngle":
        return RationalAngle(-self.q)

    def __mul__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle(self.q + other.q)

    def __pow__(self, k: int) -> "RationalAngle":
        return RationalAngle(self.q * k)

    def to_cyclotomic(self) -> "CyclotomicNumber":
        N = self.order
        return CyclotomicNumber.zeta(N) ** (self.q.numerator % N)

    def to_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.q))


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and field arithmetic
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Integer coefficient list (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    # x^n - 1 divided by the product of Phi_d over proper divisors d | n.
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _polydiv_exact(num, den):
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    den = list(den)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise InternalError(f"{den[-1]} does not divide the coefficient {c}")
        q = c // den[-1]
        out[k] = q
        for i, dc in enumerate(den):
            num[k + i] -= q * dc
    if any(num):
        raise InternalError(f"polynomial division left the remainder {num}")
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_mod_cyclotomic(coeffs, n: int):
    """Reduce a rational polynomial in zeta_n modulo Phi_n (ascending coeffs)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    c = list(coeffs)
    # First fold exponents mod n (zeta^n = 1): cheap and keeps degrees small.
    if len(c) > n:
        folded = [Fraction(0)] * n
        for e, v in enumerate(c):
            folded[e % n] += v
        c = folded
    for k in range(len(c) - 1, deg - 1, -1):
        if c[k] != 0:
            lead = c[k]
            for i in range(deg + 1):
                c[k - deg + i] -= lead * Fraction(phi[i])
        c.pop()
    c += [Fraction(0)] * (deg - len(c))
    return c


class CyclotomicNumber:
    """Element of Q(zeta_N) in the canonical power basis modulo Phi_N."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs, reduce: bool = True):
        if order < 1:
            raise ValueError("order must be positive")
        if order > max_cyclo_order():
            raise CyclotomicOrderTooLarge(
                f"cyclotomic order {order} exceeds cap {max_cyclo_order()}"
            )
        self.order = order
        c = [Fraction(x) for x in coeffs]
        if reduce:
            c = _reduce_mod_cyclotomic(c, order)
        self.coeffs = tuple(c)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rational(cls, q, order: int = 1) -> "CyclotomicNumber":
        deg = euler_phi(order)
        return cls(order, [Fraction(q)] + [Fraction(0)] * (deg - 1), reduce=False)

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(1, order)

    @classmethod
    def zeta(cls, order: int) -> "CyclotomicNumber":
        return cls(order, [Fraction(0), Fraction(1)])

    # -- order handling ------------------------------------------------------

    def lift(self, order: int) -> "CyclotomicNumber":
        """Embed into Q(zeta_order); order must be a multiple of self.order."""
        if order == self.order:
            return self
        if order % self.order:
            raise InternalError(
                f"cannot lift from Q(zeta_{self.order}) to Q(zeta_{order})"
            )
        step = order // self.order
        out = [Fraction(0)] * (euler_phi(self.order) * step + 1)
        for e, v in enumerate(self.coeffs):
            out[e * step] += v
        return CyclotomicNumber(order, out)

    @staticmethod
    def common(a: "CyclotomicNumber", b: "CyclotomicNumber"):
        n = a.order * b.order // math.gcd(a.order, b.order)
        return a.lift(n), b.lift(n), n

    # -- ring / field ops ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(other, 1)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, n = CyclotomicNumber.common(self, other)
        return CyclotomicNumber(n, [x + y for x, y in zip(a.coeffs, b.coeffs)], reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, [-x for x in self.coeffs], reduce=False)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, n = CyclotomicNumber.common(self, other)
        out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y != 0:
                    out[i + j] += x * y
        return CyclotomicNumber(n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CyclotomicNumber.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = list(self.coeffs)
        # Extended gcd of a and Phi_N over Q[x]; gcd is a nonzero constant.
        r0, r1 = phi, _poly_trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _poly_deg(r1) > 0:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            if _poly_deg(r1) < 0:
                raise ZeroDivisionError("element not invertible (unexpected)")
        const = r1[0]
        inv = [c / const for c in s1]
        return CyclotomicNumber(self.order, inv)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, _ = CyclotomicNumber.common(self, other)
        return a * b.inverse()

    # -- predicates / conversions --------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_part(self) -> Fraction:
        """Value as a Rational; NotRational if the element is irrational."""
        if not self.is_rational():
            raise NotRational(f"not a rational element: {self!r}")
        return self.coeffs[0]

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        for c in reversed(self.coeffs):
            total = total * z + complex(c)
        return total

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, _ = CyclotomicNumber.common(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"CyclotomicNumber(order={self.order}, coeffs={[str(c) for c in self.coeffs]})"


def _poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p or [Fraction(0)]


def _poly_deg(p):
    p = _poly_trim(p)
    return -1 if p == [Fraction(0)] else len(p) - 1


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = _poly_trim(a)
    b = _poly_trim(b)
    if _poly_deg(b) < 0:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    r = list(a)
    while _poly_deg(r) >= _poly_deg(b) and _poly_deg(r) >= 0:
        d = _poly_deg(r) - _poly_deg(b)
        c = r[_poly_deg(r)] / b[-1]
        q[d] += c
        for i in range(len(b)):
            r[i + d] -= c * b[i]
        r = _poly_trim(r)
        if r == [Fraction(0)]:
            break
    return _poly_trim(q), _poly_trim(r)


def cyclo_arith(a: CyclotomicNumber, b: CyclotomicNumber, op: str):
    """Spec-level dispatcher: add / mul / eq on cyclotomic numbers."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "eq":
        return a == b
    raise ValueError(f"unknown op {op!r}")


def rational_part(a: CyclotomicNumber) -> Fraction:
    return a.rational_part()
