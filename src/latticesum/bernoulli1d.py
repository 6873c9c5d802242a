"""One-dimensional machinery: Bernoulli numbers and polynomials, periodic
Bernoulli functions P_m, truncated even operators, twisted periodic
functions Q_{m,lambda}, operator polynomials M^{k,lambda}, and the classical
and twisted Euler-Maclaurin formulas with remainder.

Conventions follow S/(e^S - 1) = 1 + sum b_k S^k / k!, so b_1 = -1/2 and the
odd Bernoulli numbers vanish from b_3 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InternalError, JumpPoint, LambdaOne
from .exactnum import CyclotomicNumber, RationalAngle
from .quad import integrate_1d

ANGLE_ONE = RationalAngle(Fraction(0))


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BernoulliTable:
    values: tuple  # b_0 .. b_max as Fractions

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]


@lru_cache(maxsize=None)
def _bernoulli_upto(maxk: int) -> tuple:
    # Recurrence sum_{j=0}^{m} C(m+1, j) b_j = 0 for m >= 1, b_0 = 1.
    b = [Fraction(1)]
    for m in range(1, maxk + 1):
        s = sum(Fraction(math.comb(m + 1, j)) * b[j] for j in range(m))
        b.append(-s / (m + 1))
    return tuple(b)


def bernoulli_numbers(maxk: int) -> BernoulliTable:
    return BernoulliTable(_bernoulli_upto(maxk))


@lru_cache(maxsize=None)
def bernoulli_polynomial(m: int) -> tuple:
    """Ascending coefficients of B_m(x) = sum C(m,j) b_j x^(m-j)."""
    b = _bernoulli_upto(m)
    coeffs = [Fraction(0)] * (m + 1)
    for j in range(m + 1):
        coeffs[m - j] = Fraction(math.comb(m, j)) * b[j]
    return tuple(coeffs)


def periodic_P(m: int, x) -> Fraction:
    """P_m(x) = B_m({x}) / m!, the 1-periodic Bernoulli function."""
    x = Fraction(x)
    if m < 1:
        raise ValueError("m must be >= 1")
    frac = x - math.floor(x)
    if m == 1 and frac == 0:
        raise JumpPoint(f"P_1 jumps at integer {x}")
    coeffs = bernoulli_polynomial(m)
    val = Fraction(0)
    for c in reversed(coeffs):
        val = val * frac + c
    return val / math.factorial(m)


def periodic_P_float(m: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized float P_m for quadrature integrands."""
    frac = np.asarray(xs, dtype=float) % 1.0
    coeffs = [float(c) for c in bernoulli_polynomial(m)]
    val = np.zeros_like(frac)
    for c in reversed(coeffs):
        val = val * frac + c
    return val / math.factorial(m)


# ---------------------------------------------------------------------------
# Operator polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorPoly:
    """Truncated operator polynomial sum_m c_m S^m with cyclotomic c_m."""

    lam: RationalAngle
    k: int                # truncation order requested
    coeffs: tuple         # c_0 .. c_deg, CyclotomicNumbers

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, m: int) -> CyclotomicNumber:
        if m < len(self.coeffs):
            return self.coeffs[m]
        return CyclotomicNumber.zero()

    def negated_argument(self) -> "OperatorPoly":
        """The polynomial S -> M(-S)."""
        return OperatorPoly(
            self.lam,
            self.k,
            tuple(c if m % 2 == 0 else -c for m, c in enumerate(self.coeffs)),
        )

    def complex_coeffs(self) -> list:
        return [c.to_complex() for c in self.coeffs]


def L_truncated(k: int) -> OperatorPoly:
    """Even truncation L^{2k}(S) = 1 + sum_{j<=k} b_{2j}/(2j)! S^{2j}."""
    b = _bernoulli_upto(2 * k)
    coeffs = [Fraction(0)] * (2 * k + 1)
    coeffs[0] = Fraction(1)
    for j in range(1, k + 1):
        coeffs[2 * j] = b[2 * j] / math.factorial(2 * j)
    return OperatorPoly(ANGLE_ONE, 2 * k, tuple(CyclotomicNumber.from_rational(c) for c in coeffs))


@lru_cache(maxsize=None)
def q_values_closed(k: int, lam: RationalAngle) -> tuple:
    """(Q_{2,lam}(0), ..., Q_{k,lam}(0)) from the generating function.

    Uses Q_{m,lam}(0) = [S^(m-1)] lam / (e^S - lam), validated against the
    piecewise antiderivative construction and Fourier partial sums in the
    test suite before being trusted here.
    """
    if lam.is_one:
        raise LambdaOne("use periodic_P / L_truncated for lambda = 1")
    z = lam.to_cyclotomic()
    one = CyclotomicNumber.one(z.order)
    # w_j = coefficients of e^S - lam: w_0 = 1 - lam, w_j = 1/j! for j >= 1.
    w = [one - z] + [
        CyclotomicNumber.from_rational(Fraction(1, math.factorial(j)))
        for j in range(1, k)
    ]
    v = [w[0].inverse()]
    for m in range(1, k):
        acc = CyclotomicNumber.zero(z.order)
        for i in range(1, m + 1):
            acc = acc + w[i] * v[m - i]
        v.append(-(v[0] * acc))
    return tuple(z * v[m - 1] for m in range(2, k + 1))


@lru_cache(maxsize=None)
def M_poly(k: int, lam: RationalAngle) -> OperatorPoly:
    """Twisted operator polynomial M^{k,lambda}(S).

    For lambda = 1 this is the even truncation L^{2 floor(k/2)}; otherwise
    the constant term vanishes and the linear coefficient is
    1/2 + lambda/(1 - lambda).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if lam.is_one:
        return L_truncated(k // 2)
    z = lam.to_cyclotomic()
    one = CyclotomicNumber.one(z.order)
    half = CyclotomicNumber.from_rational(Fraction(1, 2))
    linear = half + z * (one - z).inverse()
    coeffs = [CyclotomicNumber.zero(z.order), linear]
    coeffs.extend(q_values_closed(k, lam))
    return OperatorPoly(lam, k, tuple(coeffs))


# ---------------------------------------------------------------------------
# Twisted periodic functions Q_{m,lambda}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistedQ:
    """N-periodic Q_{m,lambda}; piece j is a polynomial valid on [j, j+1)."""

    lam: RationalAngle
    m: int
    pieces: tuple  # N tuples of ascending CyclotomicNumber coefficients

    @property
    def period(self) -> int:
        return len(self.pieces)

    def value(self, x) -> CyclotomicNumber:
        """Exact evaluation at a rational point (right-continuous at jumps)."""
        x = Fraction(x)
        N = self.period
        xm = x - N * math.floor(x / N)
        j = min(int(math.floor(xm)), N - 1)
        coeffs = self.pieces[j]
        val = CyclotomicNumber.zero()
        for c in reversed(coeffs):
            val = val * xm + c
        return val

    def at_zero(self) -> CyclotomicNumber:
        return self.pieces[0][0]

    def value_float(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized complex evaluation for quadrature."""
        xs = np.asarray(xs, dtype=float)
        N = self.period
        xm = xs - N * np.floor(xs / N)
        idx = np.minimum(np.floor(xm).astype(int), N - 1)
        out = np.zeros(xs.shape, dtype=complex)
        for j, coeffs in enumerate(self.pieces):
            mask = idx == j
            if not np.any(mask):
                continue
            val = np.zeros(mask.sum(), dtype=complex)
            for c in reversed([c.to_complex() for c in coeffs]):
                val = val * xm[mask] + c
            out[mask] = val
        return out


def _piece_antiderivative(coeffs):
    return [CyclotomicNumber.zero()] + [
        c * Fraction(1, t + 1) for t, c in enumerate(coeffs)
    ]


def _piece_eval(coeffs, x: Fraction) -> CyclotomicNumber:
    val = CyclotomicNumber.zero()
    for c in reversed(coeffs):
        val = val * x + c
    return val


@lru_cache(maxsize=None)
def twisted_Q(m: int, lam: RationalAngle) -> TwistedQ:
    """Piecewise-polynomial construction of Q_{m,lambda} (independent of the
    generating-function route): Q_1 is the step function lam^{j+1}/(1-lam)
    on [j, j+1); successive antiderivatives keep zero mean over a period."""
    if lam.is_one:
        raise LambdaOne("Q_{m,1} is the periodic Bernoulli function P_m")
    if m < 1:
        raise ValueError("m must be >= 1")
    N = lam.order
    z = lam.to_cyclotomic()
    one = CyclotomicNumber.one(z.order)
    inv = (one - z).inverse()
    if m == 1:
        pieces = tuple((z ** (j + 1) * inv,) for j in range(N))
        return TwistedQ(lam, 1, pieces)
    prev = twisted_Q(m - 1, lam)
    raw = [_piece_antiderivative(p) for p in prev.pieces]
    # Fix constants: continuity at interior breakpoints, then zero mean.
    adjusted = [raw[0]]
    for j in range(1, N):
        x = Fraction(j)
        left = _piece_eval(adjusted[j - 1], x)
        right = _piece_eval(raw[j], x)
        shifted = list(raw[j])
        shifted[0] = shifted[0] + (left - right)
        adjusted.append(shifted)
    # Periodic continuity at x = N must already hold since the previous
    # order integrates to zero over a period.
    closure = _piece_eval(adjusted[N - 1], Fraction(N)) - _piece_eval(adjusted[0], Fraction(0))
    if not closure.is_zero():
        raise InternalError("twisted antiderivative failed to close up")
    mean = CyclotomicNumber.zero(z.order)
    for j, coeffs in enumerate(adjusted):
        anti = _piece_antiderivative(coeffs)
        mean = mean + _piece_eval(anti, Fraction(j + 1)) - _piece_eval(anti, Fraction(j))
    shift = mean * Fraction(1, N)
    pieces = tuple(
        tuple([coeffs[0] - shift] + list(coeffs[1:])) for coeffs in adjusted
    )
    return TwistedQ(lam, m, pieces)


def fourier_q_at_zero(m: int, lam: RationalAngle, terms: int = 10**6) -> complex:
    """Truncated Fourier series for Q_{m,lambda}(0): the numeric oracle
    -sum_r (2 pi i (j/N + r))^(-m) over |r| <= terms."""
    if lam.is_one:
        raise LambdaOne("Fourier oracle is for lambda != 1")
    q = float(lam.q)
    r = np.arange(-terms, terms + 1, dtype=float)
    z = 2j * np.pi * (q + r)
    return complex(-np.sum(z ** (-m)))


# ---------------------------------------------------------------------------
# Exact 1-D polynomial handles
# ---------------------------------------------------------------------------

class Poly1D:
    """Univariate polynomial with Fraction coefficients (ascending)."""

    def __init__(self, coeffs):
        c = [Fraction(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        val = Fraction(0) if isinstance(x, (int, Fraction)) else 0.0
        for c in reversed(self.coeffs):
            val = val * x + (c if isinstance(x, (int, Fraction)) else float(c))
        return val

    def derivative(self) -> "Poly1D":
        if len(self.coeffs) == 1:
            return Poly1D([0])
        return Poly1D([c * t for t, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Poly1D":
        return Poly1D([Fraction(0)] + [c / (t + 1) for t, c in enumerate(self.coeffs)])

    def nth_derivative(self, m: int) -> "Poly1D":
        p = self
        for _ in range(m):
            p = p.derivative()
        return p

    def integral(self, a, b) -> Fraction:
        F = self.antiderivative()
        return F(Fraction(b)) - F(Fraction(a))

    def __mul__(self, other: "Poly1D") -> "Poly1D":
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return Poly1D(out)


# ---------------------------------------------------------------------------
# Euler-Maclaurin with remainder on an interval
# ---------------------------------------------------------------------------

def weighted_sum_interval(f, a: int, b: int):
    """1/2 f(a) + f(a+1) + ... + f(b-1) + 1/2 f(b)."""
    total = Fraction(1, 2) * f(Fraction(a)) if isinstance(f, Poly1D) else 0.5 * float(f(float(a)))
    for t in range(a + 1, b):
        total += f(Fraction(t)) if isinstance(f, Poly1D) else float(f(float(t)))
    total += Fraction(1, 2) * f(Fraction(b)) if isinstance(f, Poly1D) else 0.5 * float(f(float(b)))
    return total


def em_interval(f, a: int, b: int, m: int, tol: float = 1e-10):
    """Interval Euler-Maclaurin split: (operator_term, remainder, weighted_sum).

    The operator term applies the even truncation in both endpoint dilation
    variables; the remainder is (-1)^(m-1) int_a^b P_m f^(m).  Exact
    Fractions for Poly1D input, floats otherwise.
    """
    if not a < b:
        raise ValueError("need a < b")
    if m < 1:
        raise ValueError("m must be >= 1")
    k = m // 2
    b_tab = _bernoulli_upto(2 * k)
    if isinstance(f, Poly1D):
        op = f.integral(a, b)
        for j in range(1, k + 1):
            dj = f.nth_derivative(2 * j - 1)
            op += b_tab[2 * j] / math.factorial(2 * j) * (dj(Fraction(b)) - dj(Fraction(a)))
        fm = f.nth_derivative(m)
        rem = Fraction(0)
        bern = Poly1D([c / math.factorial(m) for c in bernoulli_polynomial(m)])
        for t in range(a, b):
            # P_m on [t, t+1) is B_m(x - t)/m!; integrate the product exactly.
            shifted = Poly1D(_taylor_shift(fm.coeffs, Fraction(t)))
            rem += (bern * shifted).integral(0, 1)
        rem *= (-1) ** (m - 1)
        wsum = weighted_sum_interval(f, a, b)
        return op, rem, wsum

    # Smooth handle: needs f(x) and f.deriv(j) -> vectorized callable.
    val, _ = integrate_1d(lambda x: np.asarray(f(x), dtype=float), a, b, tol=tol)
    op = val
    for j in range(1, k + 1):
        dj = f.deriv(2 * j - 1)
        op += float(b_tab[2 * j]) / math.factorial(2 * j) * (
            float(dj(float(b))) - float(dj(float(a)))
        )
    fm = f.deriv(m)
    rem, _ = integrate_1d(
        lambda x: periodic_P_float(m, x) * np.asarray(fm(x), dtype=float), a, b, tol=tol
    )
    rem *= (-1) ** (m - 1)
    wsum = weighted_sum_interval(f, a, b)
    return op, rem, wsum


def _taylor_shift(coeffs, t: Fraction):
    """Coefficients of p(x + t) given ascending coefficients of p."""
    n = len(coeffs)
    out = [Fraction(0)] * n
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * t ** (i - j)
    return out


# ---------------------------------------------------------------------------
# Twisted ray formula
# ---------------------------------------------------------------------------

def twisted_ray_sum(f, lam: RationalAngle, k: int, tol: float = 1e-10):
    """Twisted ray split: (lhs, operator_term, remainder), complex floats.

    lhs = 1/2 f(0) + sum_{n>=1} lam^n f(n); the operator term applies
    M^{k,lambda} to the dilated half-line integral; the remainder is
    (-1)^(k-1) int_0^inf Q_{k,lambda} f^(k).
    """
    lo, hi = f.support
    top = int(math.floor(hi))
    lamc = lam.to_complex()
    lhs = 0.5 * complex(f(0.0))
    for n in range(1, top + 1):
        lhs += lamc**n * complex(f(float(n)))

    M = M_poly(k, lam)
    cs = M.complex_coeffs()
    upper = max(hi, 0.0)
    op = 0j
    if cs and cs[0] != 0:
        val, _ = integrate_1d(lambda x: np.asarray(f(x), dtype=float), 0.0, upper, tol=tol)
        op += cs[0] * val
    for m in range(1, len(cs)):
        if cs[m] == 0:
            continue
        op += cs[m] * (-1) ** (m - 1) * complex(f.deriv(m - 1)(0.0))

    fk = f.deriv(k)
    if lam.is_one:
        qf = lambda x: periodic_P_float(k, x).astype(complex)
    else:
        Q = twisted_Q(k, lam)
        qf = Q.value_float
    if upper > 0:
        re, _ = integrate_1d(
            lambda x: np.real(qf(x) * np.asarray(fk(x), dtype=float)), 0.0, upper, tol=tol
        )
        im, _ = integrate_1d(
            lambda x: np.imag(qf(x) * np.asarray(fk(x), dtype=float)), 0.0, upper, tol=tol
        )
        rem = (-1) ** (k - 1) * complex(re, im)
    else:
        rem = 0j
    return lhs, op, rem
