"""Exact Euler-Maclaurin evaluation for polynomials over simple integral polytopes.

The pieces assembled here: finite abelian groups attached to faces and their
"flat" subsets, rational character angles, the symbolic integral over the
dilated polytope, and the differential-operator products that tie them into
an exact formula for weighted lattice sums of polynomials.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bernoulli1d import L_truncated, M_poly
from .errors import (
    ClaimViolated,
    InternalError,
    NotInjective,
    NotRegular,
    PartitionViolated,
)
from .exactnum import (
    CyclotomicNumber,
    IntMatrix,
    RationalAngle,
    rational_part,
    smith_normal_form,
    solve_rational_system,
)
from .multipoly import MultiPoly
from .polytope import (
    Face,
    HPolytope,
    compute_vertices,
    dot,
    edge_vectors,
    face_lattice,
)

ANGLE_ZERO = RationalAngle(Fraction(0))

# Dilation integrals I(h) kept per polytope, least recently used evicted first.
INTEGRAL_CACHE_SIZE = 64
# Draws of divided-difference nodes before giving up; the node range doubles
# every NODE_DRAWS_PER_RANGE draws.
NODE_DRAWS = 200
NODE_DRAWS_PER_RANGE = 8


# ---------------------------------------------------------------------------
# Face groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceGroup:
    """Quotient (N_F intersect Z^n*) / sum Z u_i attached to a face.

    Coset representatives are indexed by "words": tuples w with
    0 <= w_i < diag_i, where diag is the Smith diagonal of the matrix
    expressing the normals u_i in a basis of the saturated lattice.
    """

    face: Face
    dim: int             # ambient dimension n
    order: int
    diag: tuple          # Smith diagonal entries of the coordinate matrix
    sat_basis: tuple     # rows: Z-basis of N_F intersect Z^n*
    _qrows: tuple        # rows of the Smith Q factor (word -> coordinates)
    _qinv: tuple         # integer inverse of the Q factor

    @property
    def words(self):
        return list(itertools.product(*[range(di) for di in self.diag]))

    def rep(self, word) -> tuple:
        """Integer covector representing the coset indexed by `word`."""
        c = len(self.diag)
        z = [sum(word[i] * self._qrows[i][j] for i in range(c)) for j in range(c)]
        return tuple(
            sum(z[i] * self.sat_basis[i][j] for i in range(c))
            for j in range(self.dim)
        )

    def reps(self):
        return [self.rep(w) for w in self.words]

    def word_of(self, covector) -> tuple:
        """Canonical word of an integer covector lying in N_F intersect Z^n*."""
        c = len(self.diag)
        if c == 0:
            return ()
        z = _coordinates_in_basis(self.sat_basis, covector)
        w = [
            sum(z[i] * self._qinv[i][j] for i in range(c)) % self.diag[j]
            for j in range(c)
        ]
        return tuple(w)


def _coordinates_in_basis(basis, covector):
    """Integer coordinates of `covector` in the lattice basis `basis` (rows)."""
    c = len(basis)
    n = len(covector)
    # Solve z . B = covector through the (nonsingular) Gram matrix B B^T.
    gram = [
        [Fraction(sum(basis[i][t] * basis[j][t] for t in range(n))) for i in range(c)]
        for j in range(c)
    ]
    rhs = [Fraction(sum(covector[t] * basis[j][t] for t in range(n))) for j in range(c)]
    z = solve_rational_system(gram, rhs)
    if any(q.denominator != 1 for q in z):
        raise InternalError(f"covector {covector} is not in the saturated lattice")
    zi = [int(q) for q in z]
    if any(
        sum(zi[i] * basis[i][j] for i in range(c)) != covector[j] for j in range(n)
    ):
        raise InternalError(f"covector {covector} left the span of the saturation")
    return zi


def _integer_inverse(rows):
    """Exact inverse of a unimodular integer matrix, as integer rows."""
    c = len(rows)
    cols = []
    for j in range(c):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(c)]
        cols.append(solve_rational_system(rows, e))
    inv = [[cols[j][i] for j in range(c)] for i in range(c)]
    if any(q.denominator != 1 for row in inv for q in row):
        raise InternalError("matrix is not unimodular")
    return tuple(tuple(int(q) for q in row) for row in inv)


def face_group(H: HPolytope, F: Face) -> FaceGroup:
    """Group of the face F, built from two Smith normal forms."""
    ids = sorted(F.index_set)
    c = len(ids)
    if c == 0:
        return FaceGroup(F, H.dim, 1, (), (), (), ())
    U = IntMatrix([list(H.normals[i]) for i in ids])
    P, D, Q = smith_normal_form(U)
    # First c rows of Q span the saturation of the row space of U.
    sat = tuple(tuple(Q[i, j] for j in range(H.dim)) for i in range(c))
    # Coordinates of the u_i in that basis: A = P . diag(d_1..d_c).
    A = IntMatrix([[P[i, j] * D[j, j] for j in range(c)] for i in range(c)])
    P2, D2, Q2 = smith_normal_form(A)
    diag = tuple(D2[i, i] for i in range(c))
    if any(d <= 0 for d in diag):
        raise InternalError(f"face normals {ids} are linearly dependent")
    qrows = tuple(tuple(Q2[i, j] for j in range(c)) for i in range(c))
    order = math.prod(diag)
    return FaceGroup(F, H.dim, order, diag, sat, qrows, _integer_inverse(qrows))


def inclusion_map(groupE: FaceGroup, groupF: FaceGroup) -> dict:
    """Natural injection Gamma_E -> Gamma_F for faces F contained in E.

    Returned as a map from words of Gamma_E to words of Gamma_F.
    """
    if not groupE.face.index_set <= groupF.face.index_set:
        raise InternalError("inclusion_map requires I_E to be a subset of I_F")
    out = {w: groupF.word_of(groupE.rep(w)) for w in groupE.words}
    if len(set(out.values())) != groupE.order:
        raise NotInjective(
            f"Gamma_{sorted(groupE.face.index_set)} does not inject into "
            f"Gamma_{sorted(groupF.face.index_set)}"
        )
    return out


@dataclass(frozen=True)
class FlatSubset:
    """Members of Gamma_F surviving removal of all strictly larger faces' groups."""

    face: Face
    members: tuple  # words of the parent FaceGroup


def flat_subsets(H: HPolytope):
    """Map face index set -> FlatSubset, with the vertex partition asserted."""
    ctx = _context(H)
    return ctx.flats


@dataclass(frozen=True)
class CharacterData:
    """Angles q_{gamma,j} with lambda_{gamma,j,F} = e^{2 pi i q_{gamma,j}}."""

    face: Face
    word: tuple
    angles: tuple  # one RationalAngle per facet j = 0..d-1


def character_angles(H: HPolytope, F: Face, covector) -> tuple:
    """Angles of the character attached to a group element, one per facet.

    Solves gamma~ = sum b_i u_i at every vertex of F and checks that the
    answers agree (they must, by the structure of the dual bases) and that
    the angles vanish off I_F.
    """
    verts = {v.id: v for v in compute_vertices(H)}
    d = H.num_facets
    result = None
    for vid in F.vertex_ids:
        v = verts[vid]
        ids = sorted(v.tight)
        # b . U = gamma~  with U the rows u_i, i in I_v.
        cols = [[Fraction(H.normals[i][j]) for i in ids] for j in range(H.dim)]
        b = solve_rational_system(cols, [Fraction(c) for c in covector])
        angles = [ANGLE_ZERO] * d
        for pos, i in enumerate(ids):
            if i in F.index_set:
                angles[i] = RationalAngle(b[pos] % 1)
            elif b[pos].denominator != 1:
                raise ClaimViolated(
                    f"angle at facet {i} (off I_F) is {b[pos]} mod 1 != 0 "
                    f"for gamma={covector} at vertex {vid}"
                )
        angles = tuple(angles)
        if result is None:
            result = angles
        elif result != angles:
            raise ClaimViolated(
                f"character of gamma={covector} depends on the vertex of F="
                f"{sorted(F.index_set)}: {result} vs {angles}"
            )
    if result is None:
        raise InternalError("face has no vertices")
    return result


# ---------------------------------------------------------------------------
# Symbolic integral over the dilated polytope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DilationPolynomial:
    """I(h) = integral of p over Delta(h), exact in the dilation parameters."""

    num_facets: int
    poly: MultiPoly  # in variables h_1..h_d
    degree_bound: int

    def at_zero(self) -> Fraction:
        return self.poly.coefficient((0,) * self.num_facets)

    def coefficient(self, exponents) -> Fraction:
        return self.poly.coefficient(exponents)


def dilation_integral_poly(H: HPolytope, p: MultiPoly) -> DilationPolynomial:
    """Integrate p over the dilated polytope symbolically, by the vertex formula.

    Delta(h) = {x : <u_i, x> + mu_i + h_i >= 0} has the vertex
    v(h) = v - sum_{i in I_v} h_i alpha_{i,v} for every vertex v of Delta,
    where the alpha_{i,v} are the edge vectors dual to the tight normals.
    For a covector b generic (<b, alpha_{i,v}> != 0 for every vertex and
    edge) Brion's formula integrates a power of the linear form <b, x>:

        int_{Delta(h)} <b,x>^M dx
            = M!/(M+n)! sum_v <b, v(h)>^{M+n} / (|det U_v| prod_i <-b, alpha_{i,v}>),

    with U_v the matrix of the normals tight at v.  Both sides are
    polynomials in h near h = 0, where Delta(h) keeps the combinatorics of
    Delta.  <b, v(h)> is affine in the n variables h_i, i in I_v, so each
    vertex term is one multinomial expansion.

    A monomial is a combination of such powers by a mixed divided
    difference.  With distinct nodes t_{j,0..a_j} on each axis,

        x^a = a!/|a|! sum_{k <= a} (prod_j w_{j,k_j}) <b_k, x>^{|a|},
        b_k = (t_{1,k_1}, ..., t_{n,k_n}),
        w_{j,k} = 1 / prod_{l <= a_j, l != k} (t_{j,k} - t_{j,l}),

    because the divided difference of t^c over a_j + 1 nodes is 0 for
    c < a_j and 1 for c = a_j.  The integer nodes are chosen once per
    polytope and degree so that every grid point b_k is generic (see
    EmContext.nodes).  All vertex terms are expanded in integers over a
    common denominator, and each coefficient of I(h) becomes one Fraction.
    """
    ctx = _context(H)
    n, d = H.dim, H.num_facets
    nodes, node_dens = ctx.nodes(p.degree())
    # Weight of each power <b_k, x>^N, keyed by (N, k).
    powers = {}
    for a, c in p.terms.items():
        N = sum(a)
        scale = c * Fraction(
            math.prod(math.factorial(aj) for aj in a), math.factorial(N + n)
        )
        for k in itertools.product(*(range(aj + 1) for aj in a)):
            den = math.prod(node_dens[j][a[j]][k[j]] for j in range(n))
            powers[N, k] = powers.get((N, k), 0) + scale / den
    parts = []
    for (N, k), w in powers.items():
        if w:
            b = tuple(nodes[j][k[j]] for j in range(n))
            num, den = _power_integral(ctx.cones, b, N + n, d)
            parts.append((w.numerator, w.denominator * den, num))
    common = math.lcm(*(den for _, den, _ in parts))
    total = {}
    for wnum, den, num in parts:
        f = wnum * (common // den)
        for e, c in num.items():
            total[e] = total.get(e, 0) + f * c
    poly = MultiPoly(d, {e: Fraction(c, common) for e, c in total.items() if c})
    return DilationPolynomial(d, poly, n + p.degree())


@dataclass(frozen=True)
class _VertexCone:
    """Integer data of one vertex for the vertex formula.

    alpha_{i,v} = edges[pos] / scale for the facet i = facets[pos].
    """

    coords: tuple   # v
    facets: tuple   # sorted I_v
    edges: tuple    # scale * alpha_{i,v}, integer vectors
    scale: int      # common denominator of the alpha_{i,v}
    det: int        # |det U_v|


def _vertex_cones(H: HPolytope) -> tuple:
    """Vertices, integer-scaled edge vectors and |det U_v| of every vertex."""
    cones = []
    for v in compute_vertices(H):
        alpha = edge_vectors(H, v)
        facets = tuple(sorted(v.tight))
        scale = math.lcm(*(c.denominator for i in facets for c in alpha[i]))
        edges = tuple(tuple(int(c * scale) for c in alpha[i]) for i in facets)
        det = abs(IntMatrix([list(H.normals[i]) for i in facets]).det())
        cones.append(_VertexCone(v.coords, facets, edges, scale, det))
    return tuple(cones)


def _power_integral(cones, b, M, d):
    """(numerators, denominator) of sum_v <b, v(h)>^M / (|det U_v| prod_i <-b, alpha_{i,v}>).

    With alpha = A / q and B_i = -<b, A_i>, the vertex term is
    (q <b, v> + sum_i B_i h_i)^M / (|det U_v| q^(M-n) prod_i B_i).  The
    numerators are integers keyed by exponent vectors in h_1..h_d; the
    denominator is a positive integer shared by all of them.
    """
    terms = []
    for cone in cones:
        B = [-sum(x * y for x, y in zip(b, A)) for A in cone.edges]
        den = cone.det * cone.scale ** (M - len(B)) * math.prod(B)
        c = cone.scale * sum(x * y for x, y in zip(b, cone.coords))
        terms.append((cone.facets, c, B, den))
    common = math.lcm(*(abs(den) for *_, den in terms))
    acc = {}
    for facets, c, B, den in terms:
        cpow = [common // den]
        for _ in range(M):
            cpow.append(cpow[-1] * c)
        bpow = []
        for beta in B:
            row = [1]
            for _ in range(M):
                row.append(row[-1] * beta)
            bpow.append(row)
        for g, e, rest in _expansion(facets, d, M):
            t = cpow[rest]
            for row, ei in zip(bpow, e):
                if ei:
                    t *= row[ei]
            acc[g] = acc.get(g, 0) + t
    return {g: t * _multinomial(M, g) for g, t in acc.items() if t}, common


@lru_cache(maxsize=256)
def _expansion(facets: tuple, d: int, M: int) -> tuple:
    """Monomials of (c + sum_{i in facets} B_i h_i)^M, without their coefficients.

    One (g, e, M - |e|) per exponent vector e over `facets` with |e| <= M;
    g is e spread over all d facet variables.
    """
    out = []
    for e in itertools.product(range(M + 1), repeat=len(facets)):
        if sum(e) <= M:
            g = [0] * d
            for i, ei in zip(facets, e):
                g[i] = ei
            out.append((tuple(g), e, M - sum(e)))
    return tuple(out)


@lru_cache(maxsize=4096)
def _multinomial(M: int, g: tuple) -> int:
    """M! / ((M - |g|)! prod_i g_i!)."""
    out = math.factorial(M) // math.factorial(M - sum(g))
    for x in g:
        out //= math.factorial(x)
    return out


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssembledOperator:
    """Product over facets of M^{k,lambda_j}(d/dh_j), expanded.

    `terms` maps exponent vectors a (one entry per facet) to cyclotomic
    coefficients of the monomial prod (d/dh_j)^{a_j}.
    """

    k: int
    num_facets: int
    terms: dict


def assemble_operator(angles, k: int, degree_caps=None) -> AssembledOperator:
    """Expand prod_j M^{k,lambda_j}(d/dh_j) over exponent vectors.

    `degree_caps[j]` prunes powers of d/dh_j that would annihilate the
    target polynomial anyway.
    """
    d = len(angles)
    terms = {(): CyclotomicNumber.one()}
    for j in range(d):
        factor = M_poly(k, angles[j])
        cap = factor.degree
        if degree_caps is not None:
            cap = min(cap, degree_caps[j])
        new = {}
        for m in range(cap + 1):
            cm = factor.coeff(m)
            if cm.is_zero():
                continue
            for expo, coeff in terms.items():
                new[expo + (m,)] = coeff * cm
        terms = new
    return AssembledOperator(k, d, terms)


def apply_operator(A: AssembledOperator, I: DilationPolynomial) -> CyclotomicNumber:
    """Evaluate (A I)(0): each d^a/dh^a picks the h^a coefficient times a!."""
    total = CyclotomicNumber.zero()
    for expo, coeff in A.terms.items():
        c = I.coefficient(expo)
        if c == 0:
            continue
        total = total + coeff * (c * math.prod(math.factorial(a) for a in expo))
    return total


# ---------------------------------------------------------------------------
# Cached per-polytope context
# ---------------------------------------------------------------------------

class EmContext:
    """Face lattice, groups, flat subsets and characters of one polytope."""

    def __init__(self, H: HPolytope):
        self.H = H
        self.lattice = face_lattice(H)
        self.by_index = {f.index_set: f for f in self.lattice.faces}
        self.groups = {f.index_set: face_group(H, f) for f in self.lattice.faces}
        self.flats = self._flat_subsets()
        self._angles = {}
        self._integrals = {}  # MultiPoly -> DilationPolynomial, oldest use first
        self.cones = _vertex_cones(H)
        self._nodes = {}

    def _flat_subsets(self):
        flats = {}
        for f in self.lattice.faces:
            group = self.groups[f.index_set]
            survivors = set(group.words)
            for i in f.index_set:
                sub = f.index_set - {i}
                if sub not in self.by_index:
                    raise InternalError(
                        f"missing face for index set {sorted(sub)}; "
                        "polytope is not simple"
                    )
                image = inclusion_map(self.groups[sub], group)
                survivors -= set(image.values())
            flats[f.index_set] = FlatSubset(f, tuple(sorted(survivors)))
        # Disjoint-union property at every vertex.
        for v in self.lattice.by_codim(self.H.dim):
            total = sum(
                len(flats[frozenset(sub)].members)
                for r in range(len(v.index_set) + 1)
                for sub in itertools.combinations(sorted(v.index_set), r)
            )
            if total != self.groups[v.index_set].order:
                raise PartitionViolated(
                    f"flat subsets at vertex {sorted(v.index_set)} sum to "
                    f"{total}, group order is {self.groups[v.index_set].order}"
                )
        return flats

    def angles(self, face: Face, word) -> tuple:
        key = (face.index_set, word)
        if key not in self._angles:
            rep = self.groups[face.index_set].rep(word)
            self._angles[key] = character_angles(self.H, face, rep)
        return self._angles[key]

    def integral(self, p: MultiPoly) -> DilationPolynomial:
        I = self._integrals.pop(p, None)
        if I is None:
            I = dilation_integral_poly(self.H, p)
            if len(self._integrals) >= INTEGRAL_CACHE_SIZE:
                del self._integrals[next(iter(self._integrals))]
        self._integrals[p] = I
        return I

    def nodes(self, degree: int):
        """Divided-difference nodes for polynomials of degree <= `degree`.

        Returns (nodes, dens): nodes[j] holds degree + 1 distinct integers on
        axis j, such that every grid point (nodes[0][k_0], ..., nodes[n-1][k_{n-1}])
        pairs to nonzero with every edge vector; dens[j][m][k] is
        prod_{l <= m, l != k} (nodes[j][k] - nodes[j][l]).  Drawn from
        random.Random(degree), so the choice is deterministic.
        """
        if degree not in self._nodes:
            self._nodes[degree] = _divided_difference_nodes(self.cones, self.H.dim, degree)
        return self._nodes[degree]


def _divided_difference_nodes(cones, n: int, degree: int):
    directions = {A for cone in cones for A in cone.edges}
    rng = random.Random(degree)
    for draw in range(NODE_DRAWS):
        bound = max(9, degree) << (draw // NODE_DRAWS_PER_RANGE)
        nodes = tuple(
            tuple(rng.sample(range(-bound, bound + 1), degree + 1)) for _ in range(n)
        )
        if all(
            dot(b, A) != 0
            for b in itertools.product(*nodes)
            for A in directions
        ):
            break
    else:
        raise InternalError(
            f"no generic divided-difference nodes of degree {degree} "
            f"in {NODE_DRAWS} draws"
        )
    dens = tuple(
        tuple(
            tuple(
                math.prod(t[k] - t[l] for l in range(m + 1) if l != k)
                for k in range(m + 1)
            )
            for m in range(degree + 1)
        )
        for t in nodes
    )
    return nodes, dens


_CONTEXTS = {}


def _context(H: HPolytope) -> EmContext:
    key = (H.normals, H.offsets)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = EmContext(H)
    return _CONTEXTS[key]


# ---------------------------------------------------------------------------
# Weighted sums
# ---------------------------------------------------------------------------

def weighted_sum_polynomial(H: HPolytope, p: MultiPoly, k: int = None) -> Fraction:
    """Exact weighted lattice sum of p over the polytope.

    Sums apply_operator over all faces and all flat group elements; the
    grand total lies in a cyclotomic field but is provably rational.
    """
    ctx = _context(H)
    if k is None:
        k = p.degree() + H.dim + 1
    I = ctx.integral(p)
    caps = [I.poly.degree_in(j) for j in range(H.num_facets)]
    total = CyclotomicNumber.zero()
    for index_set, flat in ctx.flats.items():
        face = ctx.by_index[index_set]
        for word in flat.members:
            op = assemble_operator(ctx.angles(face, word), k, caps)
            total = total + apply_operator(op, I)
    return rational_part(total)


def weighted_sum_regular(H: HPolytope, p: MultiPoly, k: int = None) -> Fraction:
    """Weighted sum via the single-operator formula for regular polytopes."""
    ctx = _context(H)
    for v in ctx.lattice.by_codim(H.dim):
        order = ctx.groups[v.index_set].order
        if order != 1:
            raise NotRegular(
                f"vertex {sorted(v.index_set)} has group order {order}"
            )
    if k is None:
        k = p.degree() + H.dim + 1
    I = ctx.integral(p)
    caps = [I.poly.degree_in(j) for j in range(H.num_facets)]
    L = L_truncated(k // 2)
    total = Fraction(0)
    ddim = H.num_facets
    ranges = [range(min(L.degree, caps[j]) + 1) for j in range(ddim)]
    for expo in itertools.product(*ranges):
        coeff = Fraction(1)
        for m in expo:
            cm = L.coeff(m)
            if cm.is_zero():
                coeff = Fraction(0)
                break
            coeff *= cm.rational_part()
        if coeff == 0:
            continue
        c = I.coefficient(expo)
        if c:
            total += coeff * c * math.prod(math.factorial(a) for a in expo)
    return total
