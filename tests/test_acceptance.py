"""Acceptance criteria. Each test prints one PASS/FAIL line on the live
terminal (bypassing capture) and asserts the same condition."""

import itertools
import math
import random
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

from latticesum.bernoulli1d import (
    bernoulli_numbers,
    em_interval,
    fourier_q_at_zero,
    M_poly,
    Poly1D,
    q_values_closed,
    twisted_Q,
)
from latticesum.emcore import (
    face_group,
    flat_subsets,
    inclusion_map,
    weighted_sum_polynomial,
)
from latticesum.exactnum import IntMatrix, RationalAngle
from latticesum.polytope import (
    HPolytope,
    bounding_box,
    choose_polarizing_vector,
    face_lattice,
    polar_decomposition_check,
)
from latticesum.remainder import (
    gaussian_bump,
    polytope_main_term,
    polytope_remainder,
    verify_main_theorem,
    weighted_sum_smooth,
)

from conftest import CORPUS, bruteforce_poly, nonregular_triangle, random_multipoly


def report(capsys, num: int, ok: bool, desc: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


ANGLES_12 = [
    RationalAngle(Fraction(j, n))
    for n in range(2, 13)
    for j in range(1, n)
    if math.gcd(j, n) == 1
]


def test_criterion_1_exact_equality_sweep(capsys):
    t0 = time.time()
    checked = 0
    ok = True
    for name in sorted(CORPUS):
        H = CORPUS[name]
        rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        for _ in range(20):
            p = random_multipoly(rng, H.dim, 4)
            if weighted_sum_polynomial(H, p) != bruteforce_poly(H, p):
                ok = False
            checked += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    report(capsys, 1, ok,
           f"exact sweep: {checked} polytope/polynomial cases in {elapsed:.1f}s")


def test_criterion_2_interval_exactness(capsys):
    op, rem, wsum = em_interval(Poly1D([0, 0, 0, 1]), 0, 5, m=4)
    ok = wsum == Fraction(325, 2) and op == wsum and rem == 0
    for N in range(1, 21):
        op, rem, wsum = em_interval(Poly1D([1]), 0, N, m=1)
        ok = ok and op == N and rem == 0 and wsum == N
    report(capsys, 2, ok,
           "em_interval exact: sum' x^3 over [0,5] = 325/2; sum' 1 = N, N <= 20")


def test_criterion_3_twisted_coefficient_oracles(capsys):
    exact_ok = True
    fourier_ok = True
    worst = 0.0
    for lam in ANGLES_12:
        closed = q_values_closed(8, lam)
        for m in range(2, 9):
            piecewise = twisted_Q(m, lam).at_zero()
            if closed[m - 2] != piecewise:
                exact_ok = False
            err = abs(piecewise.to_complex() - fourier_q_at_zero(m, lam, 10**6))
            worst = max(worst, err)
            if err >= 1e-6:
                fourier_ok = False
    report(capsys, 3, exact_ok and fourier_ok,
           f"Q_m,lambda(0) closed form == piecewise for {len(ANGLES_12)} angles, "
           f"m <= 8; Fourier (1e6 terms) worst error {worst:.2e}")


def test_criterion_4_symmetries(capsys):
    ok = True
    for lam in ANGLES_12:
        for k in range(1, 9):
            M = M_poly(k, lam)
            if M_poly(k, lam.inverse()).coeffs != M.negated_argument().coeffs:
                ok = False
        for m in range(2, 9):
            lhs = twisted_Q(m, lam.inverse()).at_zero()
            rhs = twisted_Q(m, lam).at_zero() * Fraction((-1) ** m)
            if lhs != rhs:
                ok = False
    # lambda = 1: L is even, so negating the argument is a no-op
    one = RationalAngle(Fraction(0))
    for k in range(1, 9):
        M = M_poly(k, one)
        if M.negated_argument().coeffs != M.coeffs:
            ok = False
    report(capsys, 4, ok,
           "M^{k,1/lambda}(S) = M^{k,lambda}(-S) and "
           "Q_m(0) parity, exact, k <= 8, orders <= 12")


def test_criterion_5_polar_decomposition(capsys):
    ok = True
    for name in sorted(CORPUS):
        H = CORPUS[name]
        lo, hi = bounding_box(H)
        pts = [
            tuple(Fraction(c) for c in x)
            for x in itertools.product(
                *(range(int(a) - 1, int(b) + 2) for a, b in zip(lo, hi))
            )
        ]
        rng = random.Random(99)
        for _ in range(200):
            pts.append(tuple(
                Fraction(rng.randint(4 * (int(a) - 1), 4 * (int(b) + 1)), 4)
                + Fraction(rng.randint(0, 8), 9)
                for a, b in zip(lo, hi)
            ))
        for seed in (0, 1, 2):
            xi = choose_polarizing_vector(H, seed)
            if not polar_decomposition_check(H, xi, pts):
                ok = False
    report(capsys, 5, ok,
           "weighted Lawrence identity at box lattice points + 200 rational "
           "points per polytope, 3 polarization seeds")


def test_criterion_6_group_structure(capsys):
    ok = True
    for name in sorted(CORPUS):
        H = CORPUS[name]
        lat = face_lattice(H)
        by_index = {f.index_set: f for f in lat.faces}
        flats = flat_subsets(H)
        for v in lat.by_codim(H.dim):
            ids = sorted(v.index_set)
            det = abs(IntMatrix([list(H.normals[i]) for i in ids]).det())
            if face_group(H, v).order != det:
                ok = False
            total = sum(
                len(flats[frozenset(sub)].members)
                for r in range(len(ids) + 1)
                for sub in itertools.combinations(ids, r)
            )
            if total != det:
                ok = False
        for F in lat.faces:
            for i in F.index_set:
                E = by_index[F.index_set - {i}]
                image = inclusion_map(face_group(H, E), face_group(H, F))
                if len(set(image.values())) != face_group(H, E).order:
                    ok = False
    report(capsys, 6, ok,
           "|Gamma_v| = |det|, flat subsets partition Gamma_v, "
           "inclusion maps injective, all corpus polytopes")


def test_criterion_7_polarization_and_k_invariance(capsys):
    ok = True
    # exact values are reproduced at k_min, k_min+1, k_min+2
    for name in sorted(CORPUS):
        H = CORPUS[name]
        rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        for _ in range(5):
            p = random_multipoly(rng, H.dim, 4)
            kmin = p.degree() + H.dim + 1
            vals = {
                weighted_sum_polynomial(H, p, k)
                for k in (kmin, kmin + 1, kmin + 2)
            }
            if len(vals) != 1 or vals.pop() != bruteforce_poly(H, p):
                ok = False
    # polarization enters only the smooth harness; three seeds must agree
    seg = HPolytope([[1], [-1]], [0, 5])
    f = gaussian_bump(1, (2.5,), 3.0)
    reports = verify_main_theorem(seg, f, k=3, seeds=(0, 1, 2), tol=1e-10)
    totals = [r.main_term + r.remainder for r in reports]
    if max(totals) - min(totals) >= 1e-8 or any(r.defect >= 1e-8 for r in reports):
        ok = False
    report(capsys, 7, ok,
           "values identical across k in {k_min, k_min+1, k_min+2} and "
           "across 3 polarization seeds")


def test_criterion_8_smooth_remainder(capsys):
    t0 = time.time()
    H = HPolytope([[1, 0], [0, 1], [-2, -1]], [0, 0, 6])  # triangle scaled x3
    f = gaussian_bump(2, (1.0, 2.0), 3.0, width=0.9)
    worst = 0.0
    ok = True
    for k in (2, 3):
        r = verify_main_theorem(H, f, k=k, seeds=(0,), tol=1e-8)[0]
        worst = max(worst, r.defect)
        if r.defect >= 1e-6:
            ok = False
    # disjoint support: two polarized cones see this bump (weighted cone
    # sums ~0.24 each) and the signed totals must cancel
    far = gaussian_bump(2, (2.0, -6.0), 1.5)
    if weighted_sum_smooth(H, far) != 0.0:
        ok = False
    xi = choose_polarizing_vector(H, 1)
    rem, _ = polytope_remainder(H, xi, far, k=2, tol=1e-9)
    main, _ = polytope_main_term(H, xi, far, k=2, tol=1e-9)
    if abs(rem) >= 1e-7 or abs(main) >= 1e-7:
        ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    report(capsys, 8, ok,
           f"triangle x3 Gaussian bumps, k in {{2,3}}: worst defect "
           f"{worst:.2e} < 1e-6; disjoint-support remainder {abs(rem):.2e} "
           f"< 1e-7; {elapsed:.0f}s")


def test_criterion_9_zeta_identity(capsys):
    n = np.arange(1, 10**7 + 1, dtype=float)
    b = bernoulli_numbers(10)
    worst = 0.0
    ok = True
    for k in range(1, 6):
        zeta = float(np.sum(n ** (-2.0 * k)))
        predicted = (
            (-1) ** k * (2 * math.pi) ** (2 * k)
            * float(b[2 * k]) / (2 * math.factorial(2 * k))
        )
        err = abs(zeta + predicted)
        worst = max(worst, err)
        if err >= 1e-6:
            ok = False
    report(capsys, 9, ok,
           f"zeta(2k) matches Bernoulli prediction for k = 1..5, "
           f"worst error {worst:.2e} (1e7-term partial sums)")
