"""Euler-Maclaurin core: face groups, flat subsets, characters, dilation
integrals, and the exact weighted-sum formula."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticesum.emcore import (
    INTEGRAL_CACHE_SIZE,
    EmContext,
    apply_operator,
    assemble_operator,
    character_angles,
    dilation_integral_poly,
    face_group,
    flat_subsets,
    inclusion_map,
    weighted_sum_polynomial,
    weighted_sum_regular,
)
from latticesum.errors import NotRegular
from latticesum.exactnum import (
    IntMatrix,
    det_rational,
    solve_rational_system,
)
from latticesum.multipoly import MultiPoly, parse_polynomial
from latticesum.polytope import (
    HPolytope,
    compute_vertices,
    face_lattice,
    triangulate,
)

from conftest import (
    CORPUS,
    bruteforce_poly,
    nonregular_triangle,
    random_multipoly,
    simplex2,
    unit_cube,
    unit_square,
)


# ---------------------------------------------------------------------------
# Face groups (criterion 6 mirrors)
# ---------------------------------------------------------------------------

def test_vertex_group_orders_match_determinants(corpus_polytope):
    H = corpus_polytope
    lat = face_lattice(H)
    for v in lat.by_codim(H.dim):
        ids = sorted(v.index_set)
        det = IntMatrix([list(H.normals[i]) for i in ids]).det()
        group = face_group(H, v)
        assert group.order == abs(det)
        assert len(group.words) == group.order
        # canonical words round-trip through representatives
        for w in group.words:
            assert group.word_of(group.rep(w)) == w


def test_triangle_group_orders():
    H = nonregular_triangle()
    lat = face_lattice(H)
    orders = {
        tuple(sorted(f.index_set)): face_group(H, f).order
        for f in lat.faces
    }
    assert orders[()] == 1
    assert orders[(0, 1)] == 1          # vertex (0,0)
    assert orders[(1, 2)] == 2          # vertex (1,0)
    assert orders[(0, 2)] == 1          # vertex (0,2)
    # facet groups of a 2-polytope are trivial here except none
    assert orders[(2,)] == 1


def test_flat_subsets_partition(corpus_polytope):
    H = corpus_polytope
    flats = flat_subsets(H)  # construction already enforces the partition
    lat = face_lattice(H)
    for v in lat.by_codim(H.dim):
        total = 0
        for r in range(len(v.index_set) + 1):
            for sub in itertools.combinations(sorted(v.index_set), r):
                total += len(flats[frozenset(sub)].members)
        assert total == face_group(H, v).order


def test_triangle_flats():
    flats = flat_subsets(nonregular_triangle())
    sizes = {tuple(sorted(k)): len(v.members) for k, v in flats.items()}
    assert sizes[()] == 1               # trivial character on the whole polytope
    assert sizes[(1, 2)] == 1           # the extra character lives at (1,0)
    assert sizes[(0, 1)] == 0 and sizes[(0, 2)] == 0
    assert sizes[(0,)] == 0 and sizes[(1,)] == 0 and sizes[(2,)] == 0


def test_inclusion_maps_injective(corpus_polytope):
    H = corpus_polytope
    lat = face_lattice(H)
    by_index = {f.index_set: f for f in lat.faces}
    for F in lat.faces:
        gF = face_group(H, F)
        for i in F.index_set:
            E = by_index[F.index_set - {i}]
            gE = face_group(H, E)
            image = inclusion_map(gE, gF)  # raises NotInjective on failure
            assert len(image) == gE.order
            assert len(set(image.values())) == gE.order


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------

def test_character_angles_triangle():
    H = nonregular_triangle()
    lat = face_lattice(H)
    face = next(f for f in lat.faces if f.index_set == frozenset({1, 2}))
    group = face_group(H, face)
    nontrivial = next(w for w in group.words if any(w))
    angles = character_angles(H, face, group.rep(nontrivial))
    # lambda = 1 off I_F (facet 0), order 2 on the facets through (1,0)
    assert angles[0].is_one
    assert angles[1].order == 2 and angles[2].order == 2
    trivial = character_angles(H, face, group.rep(group.words[0]))
    assert all(a.is_one for a in trivial)


def test_character_angles_all_faces(corpus_polytope):
    H = corpus_polytope
    flats = flat_subsets(H)
    lat = face_lattice(H)
    by_index = {f.index_set: f for f in lat.faces}
    for index_set, flat in flats.items():
        face = by_index[index_set]
        group = face_group(H, face)
        for w in flat.members:
            angles = character_angles(H, face, group.rep(w))
            for j in range(H.num_facets):
                if j not in index_set:
                    assert angles[j].is_one


# ---------------------------------------------------------------------------
# Dilation integrals: interpolation oracle (independent route)
# ---------------------------------------------------------------------------

def integral_dilated(H, p, h):
    """Exact integral of p over Delta(h) by exact vertex shifting and the
    fixed triangulation of Delta (valid since dilation with h >= 0 keeps
    the vertex combinatorics of every corpus polytope)."""
    n = H.dim
    shifted = {}
    for v in compute_vertices(H):
        ids = sorted(v.tight)
        A = [list(H.normals[i]) for i in ids]
        b = [-Fraction(H.offsets[i]) - Fraction(h[i]) for i in ids]
        shifted[v.id] = solve_rational_system(A, b)
    total = Fraction(0)
    for ids, _sign in triangulate(H):
        vs = [shifted[i] for i in ids]
        v0 = vs[0]
        edges = [[vs[i + 1][j] - v0[j] for j in range(n)] for i in range(n)]
        det = abs(det_rational(edges))
        if det == 0:
            continue
        images = []
        for j in range(n):
            terms = {(0,) * n: v0[j]}
            for i in range(n):
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = edges[i][j]
            images.append(MultiPoly(n, terms))
        q = p.substitute(images)
        part = Fraction(0)
        for e, c in q.terms.items():
            part += c * Fraction(
                math.prod(math.factorial(a) for a in e),
                math.factorial(n + sum(e)),
            )
        total += det * part
    return total


@pytest.mark.parametrize(
    "name,poly",
    [
        ("nonregular_triangle", "x1^2 + 3*x2 + 1"),
        ("unit_square", "x1*x2"),
        ("simplex2_2x", "x1^3 - x2"),
        ("unit_cube", "x1*x2 + x3^2"),
        ("nonregular_simplex3", "x3^2 + x1"),
        # axis monomials: <e_j, x> pairs to zero with edges of these polytopes
        ("unit_cube", "x1^5"),
        ("nonregular_simplex3", "x3^4"),
    ],
)
def test_dilation_integral_interpolation_oracle(name, poly):
    H = CORPUS[name]
    p = parse_polynomial(poly, H.dim)
    I = dilation_integral_poly(H, p)
    rng = random.Random(7)
    for _ in range(12):
        h = [
            Fraction(rng.randint(0, 8), rng.randint(1, 4))
            for _ in range(H.num_facets)
        ]
        assert I.poly.evaluate(h) == integral_dilated(H, p, h)
    # h = 0 recovers the plain integral
    assert I.at_zero() == integral_dilated(H, p, [Fraction(0)] * H.num_facets)


def test_dilation_integral_closed_forms():
    # [0,5] with offsets (0,5): I(h) = integral over [-h1, 5+h2] of 1
    H = HPolytope([[1], [-1]], [0, 5])
    I = dilation_integral_poly(H, MultiPoly.constant(1, 1))
    assert I.poly.evaluate([Fraction(0), Fraction(0)]) == 5
    assert I.poly.evaluate([Fraction(1), Fraction(2)]) == 8
    # unit square volume polynomial (1 + h1 + h3)(1 + h2 + h4)
    sq = unit_square()
    Isq = dilation_integral_poly(sq, MultiPoly.constant(2, 1))
    for h in ([0, 0, 0, 0], [1, 0, 2, 0], [1, 2, 3, 4]):
        expect = (1 + h[0] + h[2]) * (1 + h[1] + h[3])
        assert Isq.poly.evaluate([Fraction(c) for c in h]) == expect
    # unit cube, x1^5 over [-h1, 1+h4] x [-h2, 1+h5] x [-h3, 1+h6]
    Ic = dilation_integral_poly(unit_cube(), parse_polynomial("x1^5", 3))
    for h in ([0] * 6, [1, 0, 2, 0, 3, 1], [Fraction(1, 2), 2, 0, Fraction(7, 3), 1, 4]):
        h = [Fraction(c) for c in h]
        expect = (
            ((1 + h[3]) ** 6 - h[0] ** 6) / 6
            * (1 + h[1] + h[4]) * (1 + h[2] + h[5])
        )
        assert Ic.poly.evaluate(h) == expect


def test_integral_cache_is_bounded_lru():
    ctx = EmContext(HPolytope([[1], [-1]], [0, 5]))
    polys = [MultiPoly.constant(1, c) for c in range(1, INTEGRAL_CACHE_SIZE + 2)]
    first = ctx.integral(polys[0])
    for p in polys[1:-1]:
        ctx.integral(p)
    assert ctx.integral(polys[0]) is first  # a hit makes polys[0] the newest
    ctx.integral(polys[-1])                 # evicts polys[1], the oldest use
    assert len(ctx._integrals) == INTEGRAL_CACHE_SIZE
    assert polys[0] in ctx._integrals and polys[1] not in ctx._integrals


# Non-unimodular simplices with large coprime vertex groups (the same data
# as the exact-groups benchmark workload).
GROUP_SIMPLICES = {
    "tri_7_11": HPolytope([[1, 0], [0, 1], [-7, -11]], [0, 0, 77]),
    "tri_11_13": HPolytope([[1, 0], [0, 1], [-11, -13]], [0, 0, 143]),
    "s3_1_3_4": HPolytope(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-12, -4, -3]], [0, 0, 0, 12]
    ),
    "s3_2_3_5": HPolytope(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-15, -10, -6]], [0, 0, 0, 30]
    ),
}
IH_POLYTOPES = {**CORPUS, **GROUP_SIMPLICES}


def polynomials(n, max_degree):
    """Polynomials in n variables of degree <= max_degree, rational coefficients."""
    monomial = st.lists(st.integers(0, n - 1), max_size=max_degree).map(
        lambda idx: tuple(idx.count(j) for j in range(n))
    )
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    return st.dictionaries(monomial, coeff, max_size=6).map(
        lambda terms: MultiPoly(n, terms)
    )


@pytest.mark.parametrize("name", sorted(IH_POLYTOPES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_dilation_integral_matches_triangulation(name, data):
    H = IH_POLYTOPES[name]
    p = data.draw(polynomials(H.dim, 4))
    I = dilation_integral_poly(H, p)
    assert I.degree_bound == H.dim + p.degree()
    h = data.draw(st.lists(
        st.fractions(min_value=0, max_value=6, max_denominator=4),
        min_size=H.num_facets, max_size=H.num_facets,
    ))
    assert I.poly.evaluate(h) == integral_dilated(H, p, h)


# ---------------------------------------------------------------------------
# Weighted sums: exactness, k-stability, regular path
# ---------------------------------------------------------------------------

def test_oracle_values():
    one2 = MultiPoly.constant(2, 1)
    assert weighted_sum_polynomial(nonregular_triangle(), one2) == Fraction(5, 4)
    assert weighted_sum_polynomial(simplex2(2), one2) == Fraction(9, 4)
    assert weighted_sum_polynomial(unit_cube(), MultiPoly.constant(3, 1)) == 1
    seg = HPolytope([[1], [-1]], [0, 5])
    cubes = parse_polynomial("x1^3", 1)
    assert weighted_sum_polynomial(seg, cubes) == Fraction(325, 2)


def test_matches_bruteforce_smoke(corpus_polytope):
    H = corpus_polytope
    rng = random.Random(42)
    for _ in range(3):
        p = random_multipoly(rng, H.dim, 3)
        assert weighted_sum_polynomial(H, p) == bruteforce_poly(H, p)


def test_k_stability():
    H = CORPUS["nonregular_simplex3"]
    rng = random.Random(3)
    p = random_multipoly(rng, 3, 3)
    kmin = p.degree() + H.dim + 1
    vals = {weighted_sum_polynomial(H, p, k) for k in range(kmin, kmin + 3)}
    assert len(vals) == 1
    assert vals.pop() == bruteforce_poly(H, p)


def test_regular_path_agrees():
    for H in (unit_square(), unit_cube(), simplex2(3)):
        rng = random.Random(11)
        for _ in range(3):
            p = random_multipoly(rng, H.dim, 3)
            assert weighted_sum_regular(H, p) == weighted_sum_polynomial(H, p)


def test_regular_path_rejects_nonregular():
    with pytest.raises(NotRegular):
        weighted_sum_regular(nonregular_triangle(), MultiPoly.constant(2, 1))


def test_result_is_rational_despite_cyclotomic_characters():
    # nontrivial characters appear, but the grand total is rational
    H = CORPUS["nonregular_simplex3"]
    p = parse_polynomial("x1^2*x3 - 2*x2", 3)
    value = weighted_sum_polynomial(H, p)
    assert isinstance(value, Fraction)
    assert value == bruteforce_poly(H, p)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_triangle_random_polynomials(seed):
    H = CORPUS["nonregular_triangle"]
    rng = random.Random(seed)
    p = random_multipoly(rng, 2, 4)
    assert weighted_sum_polynomial(H, p) == bruteforce_poly(H, p)


def test_assemble_apply_operator_interval():
    # [0,5], p = x^3: the assembled trivial-character operator reproduces
    # the classical endpoint corrections.
    H = HPolytope([[1], [-1]], [0, 5])
    p = parse_polynomial("x1^3", 1)
    I = dilation_integral_poly(H, p)
    flats = flat_subsets(H)
    lat = face_lattice(H)
    face = next(f for f in lat.faces if f.index_set == frozenset())
    group = face_group(H, face)
    angles = character_angles(H, face, group.rep(flats[frozenset()].members[0]))
    caps = [I.poly.degree_in(j) for j in range(H.num_facets)]
    op = assemble_operator(angles, k=p.degree() + 2, degree_caps=caps)
    total = apply_operator(op, I)
    assert total.rational_part() == Fraction(325, 2)
