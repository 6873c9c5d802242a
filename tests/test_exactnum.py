"""Exact arithmetic core: Smith normal form, cyclotomic numbers, angles."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticesum.errors import (
    CyclotomicOrderTooLarge,
    InternalError,
    NotRational,
    Singular,
)
from latticesum.exactnum import (
    CyclotomicNumber,
    IntMatrix,
    RationalAngle,
    cyclo_arith,
    cyclotomic_polynomial,
    det_rational,
    euler_phi,
    gcd_vector,
    rational_part,
    smith_normal_form,
    solve_rational_system,
)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _check_snf(M: IntMatrix):
    P, D, Q = smith_normal_form(M)
    assert abs(P.det()) == 1 and abs(Q.det()) == 1
    assert P @ D @ Q == M
    diag = D.diagonal()
    for i in range(len(diag)):
        assert diag[i] >= 0
        for j in range(M.cols):
            if i != j and j < M.rows:
                assert D[i, j] == 0 if j < D.cols else True
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    return diag


def test_snf_oracle_diag_2_3():
    diag = _check_snf(IntMatrix([[2, 0], [0, 3]]))
    assert diag == [1, 6]


def test_snf_oracle_triangle_vertex():
    # normals at the non-regular triangle vertex (1,0): det = 2
    diag = _check_snf(IntMatrix([[0, 1], [-2, -1]]))
    assert diag == [1, 2]


def test_snf_identity_and_zero():
    assert _check_snf(IntMatrix.identity(3)) == [1, 1, 1]
    assert _check_snf(IntMatrix([[0, 0], [0, 0]])) == [0, 0]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_snf_random_square(rows):
    M = IntMatrix(rows)
    diag = _check_snf(M)
    assert abs(M.det()) == math.prod(diag)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(2, 4),
    st.data(),
)
def test_snf_random_rectangular(m, n, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    M = IntMatrix(rows)
    P, D, Q = smith_normal_form(M)
    assert abs(P.det()) == 1 and abs(Q.det()) == 1
    assert P @ D @ Q == M


def test_gcd_vector():
    assert gcd_vector([4, 6, 10]) == 2
    assert gcd_vector([0, 0, 7]) == 7
    assert gcd_vector([-3, 9]) == 3


def test_solve_rational_system_and_singular():
    x = solve_rational_system([[2, 1], [1, -1]], [Fraction(3), Fraction(0)])
    assert x == [Fraction(1), Fraction(1)]
    with pytest.raises(Singular):
        solve_rational_system([[1, 2], [2, 4]], [1, 1])
    assert det_rational([[Fraction(1, 2), 0], [0, Fraction(4)]]) == 2


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomial_oracles():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4 and euler_phi(7) == 6


def test_zeta_canonical_reduction():
    for n in (2, 3, 4, 6, 8, 12):
        z = CyclotomicNumber.zeta(n)
        assert z ** n == CyclotomicNumber.one(n)
        # sum over all n-th roots of unity is zero
        total = CyclotomicNumber.zero(n)
        for j in range(n):
            total = total + z ** j
        assert total.is_zero()


def test_float_embedding_order_up_to_24():
    for n in range(1, 25):
        z = CyclotomicNumber.zeta(n)
        for j in range(n):
            approx = (z ** j).to_complex()
            exact = cmath.exp(2j * cmath.pi * j / n)
            assert abs(approx - exact) <= 1e-9


_cyclo_coeff = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def _elements(order):
    deg = euler_phi(order)
    return st.lists(_cyclo_coeff, min_size=deg, max_size=deg).map(
        lambda cs: CyclotomicNumber(order, cs)
    )


@settings(max_examples=80, deadline=None)
@given(_elements(12), _elements(12), _elements(12))
def test_field_axioms_order_12(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert cyclo_arith(a, b, "add") == b + a
    if not b.is_zero():
        assert (a / b) * b == a
        assert b * b.inverse() == CyclotomicNumber.one(12)


@settings(max_examples=60, deadline=None)
@given(_elements(8), _elements(12))
def test_mixed_order_arithmetic(a, b):
    # lift to the common field and check against complex arithmetic
    s = a + b
    p = a * b
    assert abs(s.to_complex() - (a.to_complex() + b.to_complex())) < 1e-9
    assert abs(p.to_complex() - (a.to_complex() * b.to_complex())) < 1e-9


def test_lift_to_non_multiple_order_raises():
    z = CyclotomicNumber.zeta(4)
    assert z.lift(12).to_complex() == pytest.approx(1j)
    with pytest.raises(InternalError):
        z.lift(6)


def test_rational_part():
    z = CyclotomicNumber.zeta(3)
    assert (z + z ** 2).rational_part() == Fraction(-1)
    with pytest.raises(NotRational):
        rational_part(z)
    assert CyclotomicNumber.from_rational(Fraction(5, 3)).is_rational()


def test_cyclo_order_cap(monkeypatch):
    monkeypatch.setenv("LE_MAX_CYCLO_ORDER", "10")
    with pytest.raises(CyclotomicOrderTooLarge):
        CyclotomicNumber.zeta(11)
    assert CyclotomicNumber.zeta(10) ** 10 == CyclotomicNumber.one(10)


# ---------------------------------------------------------------------------
# Rational angles
# ---------------------------------------------------------------------------

def test_rational_angle_basics():
    a = RationalAngle(Fraction(1, 3))
    assert a.order == 3 and not a.is_one
    assert a.inverse() == RationalAngle(Fraction(2, 3))
    assert (a * a * a).is_one
    assert a ** 2 == RationalAngle(Fraction(2, 3))
    assert abs(a.to_complex() - cmath.exp(2j * cmath.pi / 3)) < 1e-12
    one = RationalAngle(Fraction(0))
    assert one.is_one and one.inverse().is_one


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=24),
    st.fractions(min_value=0, max_value=1, max_denominator=24),
)
def test_rational_angle_group_laws(p, q):
    a, b = RationalAngle(p % 1), RationalAngle(q % 1)
    assert (a * b).inverse() == a.inverse() * b.inverse()
    assert (a * a.inverse()).is_one
    # to_cyclotomic is a homomorphism into the common field
    lhs = (a * b).to_cyclotomic()
    rhs = a.to_cyclotomic() * b.to_cyclotomic()
    assert lhs == rhs
