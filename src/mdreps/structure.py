"""Decomposition analysis of evaluated representations: commutant bases,
idempotent search with paper-style entry-forcing certificates, recursive
eigenspace splitting, the image trichotomy of X = RS, semisimple-quotient
dimensions through the glue projection, and matrix-algebra dimension data.

Numeric analyses work over plain rationals at exact sample points, on the
constant form of ``ExactMatrix`` (integer rows A with M = A / D).  At a
point given by ``assignment``, ``decompose`` and ``algebra_dims`` evaluate
the 4x4 pair once and embed the constant matrices.  Commutants come from
``matrix.commutant_basis``, which spins under the generators instead of
solving the d^2-unknown commutation system, with the same basis.  The
minimal polynomials, spins, algebra closures, subspace restrictions (each
image summed over nonzero entries only) and quotient coordinates eliminate
fraction-free on the integer rows through ``matrix.Echelon``, and the
spectral projectors are integer Horner evaluations.  Coordinates in a span
are read as integers over one denominator, (c, den), and the matrices made
of them as integer rows over their lcm.  On a rational basis the splitter
search works in the regular representation of the commutant (m x m for
an m-dimensional commutant), so no d x d matrix is formed per candidate.
A leaf with a scalar commutant is labelled by spin certificates (a proper
invariant subspace, or Norton's criterion); the Burnside closure runs only
when neither applies.  The minimal polynomials (primitive integer lists)
and their roots, and the CRT idempotents of the spectral projectors, are
computed in Q[x] with ``upoly``.  The certificates (local endomorphism
ring, commutant shape) are exact.

The semisimple quotient is decomposed from cycle-type traces: one trace per
cycle length, once the glue projection passes the Sym relations at level 3.
"""

import random
from collections import Counter, deque
from fractions import Fraction
from math import lcm, prod

from .ccwg import is_ccwg, project_K
from .clifford import (centralizer_order, mn_character, partition_dim,
                       partitions)
from .matrix import (_ORDER_BOUND, Echelon, ExactMatrix, RepPair,
                     UnsupportedSpectrum, _char_poly, _columns, _combine,
                     _entries, _imul, _int_form, _scaled_product,
                     _sparse_apply, char_poly, commutant_basis, eigen_data,
                     embed_at, kron, nullspace)
from .presentations import SYM, verify
from .scalar import InvariantError, as_fraction
from .upoly import (_clear, _monic, _pexquo, _plcm, _pmul, _ppow,
                    _primitive, _pxgcd, _roots_in_tower, _sqrt,
                    _squarefree_part)

# Seeded random combinations of a commutant basis that ``_find_splitter``
# tries after the basis itself.
_SPLIT_TRIES = 25
# Seeded random central elements that ``algebra_dims`` tries for the simple
# block dimensions.
_CENTER_TRIES = 40
# The largest algebra dimension ``generated_algebra`` closes.
_ALGEBRA_BOUND = 4096


class CommutantBasis:
    __slots__ = ("basis", "dim")

    def __init__(self, basis):
        self.basis = basis
        self.dim = len(basis)


def commutant(matrices, constraints=None):
    """Exact basis of everything commuting with the given matrices."""
    return CommutantBasis(commutant_basis(matrices, constraints))


def _peval_matrix(coeffs, M):
    """coeffs(M) for a rational constant matrix M = A / D, by Horner on the
    integer rows: with coeffs = c / Dc for integers c_0 .. c_m,
    Dc * D^m * coeffs(M) = sum_k c_k D^(m-k) A^k."""
    A, D = _int_form(M)
    cs, Dc = _clear(coeffs)
    m, d = len(cs) - 1, len(A)
    B = [[cs[m] if i == j else 0 for j in range(d)] for i in range(d)]
    Dk = 1
    for c in reversed(cs[:m]):
        B = _imul(B, A)
        Dk *= D
        if c:
            for i in range(d):
                B[i][i] += c * Dk
    return ExactMatrix.from_ints(B, Dc * Dk, N=M.N, rows_level=M.rows_level,
                                 cols_level=M.cols_level)


def distinct_eigenvalue_count(M):
    """Number of distinct eigenvalues over the algebraic closure: degree of
    the squarefree part of the characteristic polynomial."""
    return len(_squarefree_part(_char_poly(M))) - 1


# ---------------------------------------------------------------------------
# idempotents and indecomposability certificates

def endo_ring_local(basis, constraints=None):
    """True iff the algebra spanned by the commutant basis has semisimple
    quotient of dimension 1 (radical = kernel of the trace form), which
    certifies indecomposability; exact over Q at numeric points."""
    m = len(basis)
    gram = ExactMatrix.from_rows([[(basis[i] * basis[j]).trace()
                                   for j in range(m)] for i in range(m)],
                                 N=m, rows_level=1, cols_level=1)
    r = m - len(nullspace(gram, constraints))
    return r == 1


def _shape_certificate(basis):
    """Recognize the almost-upper-triangular commutant shape: every basis
    combination has constant diagonal and its only below-diagonal entry at
    (half+1, half); then the only idempotents are 0 and I."""
    d = basis[0].nrows
    half = d // 2
    for T in basis:
        rows, zero = _entries(T)
        diag = rows[0][0]
        for i in range(d):
            if rows[i][i] != diag:
                return None
        for i in range(d):
            for j in range(i):
                if (i, j) != (half, half - 1) and rows[i][j] != zero:
                    return None
    return {"kind": "indecomposable",
            "certificate": "constant-diagonal almost-triangular commutant: "
                           "the (1,1) entry of T^2=T forces the diagonal a to "
                           "a^2=a and the (%d,%d) entry forces 2*a*g=g for the "
                           "below-diagonal entry g, so g=0 and T = a*I + "
                           "nilpotent, leaving only 0 and I" % (half + 1, half)}


def find_idempotents(com, constraints=None, rng=None):
    """Nontrivial exact idempotents in the span of a commutant basis, or an
    indecomposability certificate, or an 'undecided' report.  The basis must
    span a unital algebra, as every commutant does: a rational basis whose
    span does not contain I or is not closed under products raises
    ValueError."""
    basis = com.basis if isinstance(com, CommutantBasis) else com
    if len(basis) == 1:
        return {"kind": "indecomposable", "certificate": "commutant is scalar"}
    shape = _shape_certificate(basis)
    if shape is not None:
        return shape
    # search for a basis combination with >= 2 distinct rational eigenvalues
    split = _find_splitter(basis, rng)
    if split is not None:
        T, mult = split
        idems = _spectral_idempotents(T, mult)
        for P in idems:
            if not (P * P - P).is_zero():
                raise InvariantError("spectral projector is not idempotent")
        return {"kind": "decomposable", "idempotents": idems}
    if endo_ring_local(basis, constraints):
        return {"kind": "indecomposable",
                "certificate": "endomorphism ring is local (trace-form "
                               "radical has corank 1)"}
    return {"kind": "undecided"}


def _annihilator(A, D, v):
    """The annihilator of the integer vector v under M = A / D, as a
    primitive integer list: the least-degree p with p(M) v = 0.  The
    Krylov chain runs on the integer rows A, marker column d+j tagging
    A^j v; a relation sum r_j A^j v = 0 is the relation
    sum r_j D^j M^j v = 0."""
    d = len(A)
    nz = [[(j, a) for j, a in enumerate(row) if a] for row in A]
    chain = Echelon(bound=d)
    j = 0
    while True:
        row = {i: x for i, x in enumerate(v) if x}
        row[d + j] = 1
        rel = chain.insert(row)
        if rel is not None:
            break
        v = [sum(a * v[k] for k, a in arow) for arow in nz]
        j += 1
    return _primitive([rel.get(d + k, 0) * D ** k for k in range(j + 1)])


def minimal_polynomial(M):
    """Minimal polynomial of a constant exact matrix (ascending Fraction
    coefficients, monic): the lcm of the annihilators of the standard basis
    vectors, taken over primitive integer lists."""
    A, D = _int_form(M)
    d = len(A)
    mp = [1]
    for start in range(d):
        if len(mp) - 1 == d:
            break
        poly = _annihilator(A, D, [int(i == start) for i in range(d)])
        if _pexquo(mp, poly) is None:
            mp = _plcm(mp, poly)
    return _monic(mp)


def _rational_roots(coeffs):
    """Counter of the roots of a polynomial that splits into rational linear
    factors, else None."""
    try:
        roots = _roots_in_tower(coeffs)
    except UnsupportedSpectrum:
        return None
    if any(not isinstance(r, Fraction) for r in roots):
        return None
    return Counter(roots)


def _regular_representation(forms):
    """(L, e) for a basis B_k = A_k / D_k, given as (A_k, D_k), of a unital
    algebra: L[i], as (integer rows, denominator), is the matrix of left
    multiplication by B_i in basis coordinates (column j holds the
    coordinates of B_i B_j), and the integer vector e is a multiple of the
    coordinates of I.  For T in the span, p(L_T) e = 0 iff p(T) = 0, so
    the annihilator of e under L_T is the minimal polynomial of T.
    ValueError when a product, or I, is not in the span."""
    m, d = len(forms), len(forms[0][0])
    dd = d * d
    span = Echelon(dd)
    for k, (A, D) in enumerate(forms):
        row = _flat(A)
        row[dd + k] = D
        span.insert(row)

    def coords(A, D, what):
        row = _flat(A)
        row[dd + m] = D
        try:
            return _span_coords(span, row, m)
        except InvariantError:
            raise ValueError("%s is not in the span of the basis"
                             % what) from None

    L = [_coord_matrix([coords(*_scaled_product(Ai, Di, Aj, Dj),
                               "B[%d]*B[%d]" % (i, j))
                        for j, (Aj, Dj) in enumerate(forms)])
         for i, (Ai, Di) in enumerate(forms)]
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    return L, coords(ident, 1, "the identity")[0]


def _find_splitter(basis, rng=None):
    """(T, multiplicities) for the candidate T with the most distinct
    rational eigenvalues, at least two, or None.  The candidates are the
    basis and ``_SPLIT_TRIES`` seeded combinations of it with coefficients
    in -3..3; the first candidate with the most wins.  On a rational basis,
    which must span a unital algebra, each minimal polynomial is one
    annihilator in the regular representation (m x m for m basis
    elements), and only the winner is formed as a matrix.  Otherwise every
    candidate is formed, and those that are not rational constant matrices
    are skipped."""
    m = len(basis)
    cands = [[int(i == k) for i in range(m)] for k in range(m)]
    if rng is not None:
        cands += [[rng.randint(-3, 3) for _ in basis]
                  for _ in range(_SPLIT_TRIES)]
    try:
        forms = [_int_form(B) for B in basis]
    except ValueError:  # a symbolic or cyclotomic basis
        forms = None
    if forms is not None:
        L, e = _regular_representation(forms)
    best, most = None, 1
    for k, c in enumerate(cands):
        if forms is not None:
            mp = _annihilator(*_combine(c, L), e)
        else:
            try:
                mp = minimal_polynomial(_candidate(basis, forms, k, c))
            except ValueError:  # not a rational constant matrix
                continue
        # a candidate wins only with more distinct rational roots than the
        # best so far, and it has at most its squarefree degree of them,
        # which is at most its degree
        if len(mp) - 1 <= most or len(_squarefree_part(mp)) - 1 <= most:
            continue
        mult = _rational_roots(mp)
        if mult is not None and len(mult) > most:
            best, most = (k, c, mult), len(mult)
    if best is None:
        return None
    k, c, mult = best
    return _candidate(basis, forms, k, c), mult


def _candidate(basis, forms, k, c):
    """Candidate k of the splitter search, with coefficients c: basis[k]
    itself for k < len(basis), else the combination, formed on the integer
    rows when the basis is rational."""
    if k < len(basis):
        return basis[k]
    B0 = basis[0]
    if forms is not None:
        Z, D = _combine(c, forms)
        return ExactMatrix.from_ints(Z, D, N=B0.N, rows_level=B0.rows_level,
                                     cols_level=B0.cols_level)
    T = B0.scale(c[0])
    for ci, B in zip(c[1:], basis[1:]):
        T = T + B.scale(ci)
    return T


def _spectral_idempotents(T, mult):
    """Exact projectors onto the generalized eigenspaces of T via CRT in Q[x]
    against the minimal-polynomial factorization (x-lam)^m."""
    factors = {lam: _ppow([-lam.numerator, lam.denominator], m)
               for lam, m in mult.items()}
    out = []
    for lam in sorted(mult):
        other = [1]
        for mu, f in factors.items():
            if mu != lam:
                other = _pmul(other, f)
        u, _, g = _pxgcd(other, factors[lam])
        if len(g) != 1:
            raise InvariantError("eigenvalue factors are not coprime")
        proj = _pmul(u, other)
        out.append(_peval_matrix(proj, T))
    return out


# ---------------------------------------------------------------------------
# subspace restriction

def _span_coords(span, row, k):
    """(c, den): the coordinates c / den of a vector in the span of k stored
    rows, as integers over one positive denominator.  Stored row j carries
    its scale at marker column ``span.bound + j``, and ``row`` (the vector
    times its scale) carries its scale at ``span.bound + k``; the residual
    of ``row`` is then den (0 | -coordinates | 1) for some den > 0."""
    res = span.reduce(row)
    b = span.bound
    if any(c < b for c in res):
        raise InvariantError("vector not in the span")
    return [-res.get(b + j, 0) for j in range(k)], res[b + k]


def _coord_matrix(cols):
    """(A, D) with column j of A / D the coordinates c_j / den_j, D the lcm
    of the den_j.  Each (c_j, den_j) from ``_span_coords`` has content 1,
    so for every prime p dividing D, the column whose den_j holds the most
    factors p has an entry prime to p in D / den_j * c_j: A / D is in
    lowest terms."""
    D = lcm(*(den for _, den in cols))
    return [[c[i] * (D // den) for c, den in cols]
            for i in range(len(cols[0][0]))], D


def restrict_to_subspace(mats, basis_vectors):
    """Restrict matrices preserving span(basis_vectors) to that subspace;
    the vectors are rational (ints or Fractions) of length d.  Each image
    A v is summed over the nonzero entries of v and of A's columns."""
    d = len(basis_vectors[0])
    k = len(basis_vectors)
    vecs = [_clear(v) for v in basis_vectors]
    span = Echelon(d)
    for j, (v, D) in enumerate(vecs):
        row = dict(enumerate(v))
        row[d + j] = D
        if span.insert(row) is not None:
            raise InvariantError("basis vectors are not independent")
    vecs = [({i: x for i, x in enumerate(v) if x}, D) for v, D in vecs]
    out = []
    for M in mats:
        A, DM = _int_form(M)
        cols = _columns(A)
        coords = []
        for v, D in vecs:
            row = _sparse_apply(cols, v)
            row[d + k] = DM * D
            coords.append(_span_coords(span, row, k))
        out.append(ExactMatrix.from_ints(*_coord_matrix(coords), N=k,
                                         rows_level=1, cols_level=1))
    return out


def _matrix_column_space(P):
    """Independent columns of an exact constant matrix P = A / D, as the
    integer columns of A: they span P's column space."""
    A, _ = _int_form(P)
    span = Echelon()
    basis = []
    for col in zip(*A):
        if span.insert(dict(enumerate(col))) is None:
            basis.append(list(col))
    return basis


# ---------------------------------------------------------------------------
# decomposition

class DecompositionReport:
    __slots__ = ("summands", "klass", "x_order", "projectors")

    def __init__(self, summands, klass, x_order, projectors):
        self.summands = summands
        self.klass = klass
        self.x_order = x_order
        self.projectors = projectors

    def dims(self):
        return sorted(s["dim"] for s in self.summands)

    def to_json(self):
        return {"summands": [
            {k: v for k, v in s.items() if k != "generators"}
            for s in self.summands],
            "class": self.klass, "x_order": self.x_order}


def decompose(pair, n, assignment=None, rng=None):
    """Direct-sum decomposition of the level-n representation at an exact
    sample point: recursive eigenspace splitting along commutant elements with
    rational spectrum, with exact certificates on the indecomposable leaves.
    A leaf with a scalar commutant is labelled 'irreducible' or
    'indecomposable' by spin certificates, with no Burnside closure unless
    they do not apply (see ``_leaf_status``).  At a point, the pair is
    evaluated before its generators are embedded at level n."""
    if n < 2:
        raise ValueError("decompose needs a level n >= 2, got %s" % (n,))
    at = pair.evaluate(assignment) if assignment else pair
    mats = [M for _, M in at.generator_images(n)]
    leaves = []
    projectors = []

    def analyze(gen_mats, dim, chain):
        com = commutant(gen_mats)
        cert = {}  # a leaf with a scalar commutant has no certificate key
        if com.dim == 1:
            status = "irreducible" if dim == 1 else _leaf_status(gen_mats)
        else:
            res = find_idempotents(com, rng=rng)
            if res["kind"] == "decomposable":
                idems = res["idempotents"]
                if not chain:
                    projectors.extend(idems)
                for P in idems:
                    cols = _matrix_column_space(P)
                    sub = restrict_to_subspace(gen_mats, cols)
                    analyze(sub, len(cols), chain + (len(cols),))
                return
            # indecomposable or undecided
            status, cert = res["kind"], {"certificate": res.get("certificate")}
        leaves.append({"dim": dim, "status": status, "chain": chain, **cert,
                       "generators": gen_mats,
                       "x_spectrum": _x_spectrum(gen_mats)})

    analyze(mats, mats[0].nrows, ())
    klass, order = (None, None)
    try:
        klass, order = x_trichotomy(at)
    except (UnsupportedSpectrum, ValueError):
        # X has a spectrum outside the scalar tower, or is not constant
        pass
    return DecompositionReport(leaves, klass, order, projectors)


def _leaf_status(mats):
    """'irreducible' or 'indecomposable' for rational constant matrices
    whose commutant is scalar, which already makes them indecomposable.
    Spin certificates (Parker 1984; Holt-Rees 1994): take the first
    generator g under which the annihilator of e_1 splits over Q, its least
    root lam, which is an eigenvalue, and spin the basis of ker(g - lam).
    A proper spin is a proper invariant subspace.  When that kernel is a
    line whose vector spins to the whole space, and so does the kernel
    vector of (g - lam)^T under the transposes, the matrices act absolutely
    irreducibly (Norton's criterion); a proper transposed spin is the
    annihilator of a proper invariant subspace.  Otherwise the Burnside
    closure decides: irreducible iff it is the full matrix algebra."""
    forms = [_int_form(M) for M in mats]
    gens, d = [A for A, _ in forms], len(forms[0][0])
    for A, D in forms:
        roots = _rational_roots(_annihilator(A, D, [1] + [0] * (d - 1)))
        if not roots:
            continue
        lam = min(roots)
        K = [[lam.denominator * a - lam.numerator * D * (i == j)
              for j, a in enumerate(row)] for i, row in enumerate(A)]
        kernel = _int_kernel(K)
        if any(_spin_dim(v, gens) < d for v in kernel):
            return "indecomposable"
        if len(kernel) == 1:
            (w,) = _int_kernel(list(zip(*K)))
            if _spin_dim(w, [list(zip(*G)) for G in gens]) < d:
                return "indecomposable"
            return "irreducible"
        break
    if len(generated_algebra(mats)) == d * d:
        return "irreducible"
    return "indecomposable"


def _int_kernel(K):
    """Basis of the right kernel of the integer rows K, as integer
    vectors."""
    ech = Echelon()
    for row in K:
        ech.insert(dict(enumerate(row)))
    return ech.int_nullspace(len(K[0]))


def _spin_dim(v, gens):
    """Dimension of the least subspace that contains the integer vector v
    and is invariant under the integer matrices gens (lists of rows),
    computed until it is the whole space."""
    d = len(v)
    nzs = [[[(j, a) for j, a in enumerate(row) if a] for row in G]
           for G in gens]
    span = Echelon()
    span.insert(dict(enumerate(v)))
    queue = deque([v])
    while queue and len(span.rows) < d:
        w = queue.popleft()
        for nz in nzs:
            u = [sum(a * w[k] for k, a in row) for row in nz]
            if span.insert(dict(enumerate(u))) is None:
                queue.append(u)
    return len(span.rows)


def _x_spectrum(gen_mats):
    """Spectrum of X = R_1 S_1 in the restricted representation (generator
    list is r1, s1, r2, s2, ...)."""
    X = gen_mats[0] * gen_mats[1]
    try:
        ed = eigen_data(X)
    except (UnsupportedSpectrum, ValueError):
        # a spectrum outside the scalar tower, or X is not constant
        return None
    return [(str(v), a, g) for v, a, g in ed.eigenvalues]


def x_trichotomy(pair, assignment=None):
    """('a'|'b'|'c', order): 'a' finite image of the abelian subgroup (X of
    finite order, at most ``matrix._ORDER_BOUND``), 'b' diagonalizable of
    infinite order, 'c' not diagonalizable."""
    X = pair.R * pair.S
    if assignment:
        X = X.evaluate(assignment, pair.constraints)
    ed = eigen_data(X)
    if not ed.diagonalizable:
        return "c", None
    order = ed.order(_ORDER_BOUND)
    if order is not None:
        return "a", order
    return "b", None


# ---------------------------------------------------------------------------
# semisimple quotient via the glue projection

def _is_wangian(R, S):
    return S == R or S == R.scale(-1)


def semisimple_quotient_dims(pair, n):
    """Multiset of irreducible dimensions of the semisimple quotient: the glue
    is projected away, the projection M is checked against the Sym relations
    at level min(n, 3), and each isotypic multiplicity is the class sum
    sum_mu chi_lam(mu) tr(mu) / z_mu, with tr(mu) the product of the traces
    t(m) of the cycles g_1 ... g_{m-1} at level m over the parts m of mu."""
    if n < 0:
        raise ValueError("semisimple_quotient_dims needs a level n >= 0, "
                         "got %s" % (n,))
    R, S = pair.R, pair.S
    if _is_wangian(R, S):
        M = R
    else:
        if not (is_ccwg(R) and is_ccwg(S)):
            raise ValueError("pair is neither glue-patterned nor Wangian")
        KR, KS = project_K(R), project_K(S)
        if not _is_wangian(KR, KS):
            raise ValueError("glue projection is not Wangian")
        M = KR
    if n >= 2:
        failed = [rep.relation for rep in verify(RepPair(M, M), SYM, min(n, 3))
                  if not rep.is_zero]
        if failed:
            raise ValueError("glue projection fails the Sym relation %s"
                             % failed[0])
    I1 = ExactMatrix.identity(pair.N, 1)
    t, P = [None, Fraction(pair.N)], I1
    for m in range(2, n + 1):
        P = kron(P, I1) * embed_at(M, m - 1, m)
        t.append(as_fraction(P.trace()))
    weighted = {mu: Fraction(prod(t[k] for k in mu), centralizer_order(mu))
                for mu in partitions(n)}
    dims = []
    for lam in partitions(n):
        mult = sum(mn_character(lam, mu) * v for mu, v in weighted.items())
        if mult.denominator != 1 or mult < 0:
            raise InvariantError("multiplicity %s of %s is not a natural "
                                 "number" % (mult, lam))
        dims.extend([partition_dim(lam)] * int(mult))
    if sum(dims) != pair.N ** n:
        raise InvariantError("isotypic dimensions do not add up")
    return sorted(dims)


# ---------------------------------------------------------------------------
# matrix algebra dimensions

def _flat(A):
    d = len(A)
    return {i * d + j: A[i][j] for i in range(d) for j in range(d) if A[i][j]}


def generated_algebra(mats):
    """Basis (as Fraction row-lists) of the unital algebra generated by the
    given constant matrices, by span closure under products (ValueError past
    ``_ALGEBRA_BOUND`` elements).  The closure multiplies (integer matrix,
    denominator) pairs."""
    d = mats[0].nrows
    gens = [_int_form(M) for M in mats]
    span = Echelon()
    basis = []
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    queue = deque([(ident, 1)] + gens)
    while queue:
        A, D = queue.popleft()
        if span.insert(_flat(A)) is None:
            basis.append([[Fraction(x, D) for x in row] for row in A])
            if len(basis) > _ALGEBRA_BOUND:
                raise ValueError("algebra closure exceeds bound")
            for G, DG in gens:
                queue.append(_scaled_product(A, D, G, DG))
                queue.append(_scaled_product(G, DG, A, D))
    return basis


def algebra_dims(mats_or_pair, n=None, assignment=None, rng=None):
    """{dim, radical, ss, center_ss, simples} for the matrix algebra generated
    by the generator images at an exact rational point.

    The radical is the kernel of the trace form, the semisimple quotient is
    computed structurally, and the simple block dimensions come from the
    eigenspaces of a generic central element of the quotient.
    """
    if n is not None:
        if n < 2:
            raise ValueError("algebra_dims needs a level n >= 2, got %s"
                             % (n,))
        pair = mats_or_pair
        if assignment:
            pair = pair.evaluate(assignment)
        mats = [M for _, M in pair.generator_images(n)]
    else:
        mats = list(mats_or_pair)
    d = mats[0].nrows
    basis = []
    for B in generated_algebra(mats):
        flat, D = _clear([x for row in B for x in row])
        basis.append(([flat[i:i + d] for i in range(0, d * d, d)], D))
    m = len(basis)
    dd = d * d
    # radical = kernel of the trace Gram matrix tr(B_i B_j), row i scaled by
    # D_i * L
    L = lcm(*(D for _, D in basis))
    gram = Echelon()
    for A, _ in basis:
        gram.insert({j: _trace_product(A, B) * (L // DB)
                     for j, (B, DB) in enumerate(basis)})
    rad_coords = gram.nullspace(m)
    rad_dim = len(rad_coords)
    ss_dim = m - rad_dim
    # quotient algebra: the radical rows, then each basis element outside
    # their span with its scale at marker column dd + (its index in qbasis)
    span = Echelon(dd)
    for vec in rad_coords:
        span.insert(_flat(_combine(vec, basis)[0]))
    qbasis = []
    for A, D in basis:
        row = _flat(A)
        row[dd + len(qbasis)] = D
        if span.insert(row) is None:
            qbasis.append((A, D))
    s = len(qbasis)
    if s != ss_dim:
        raise InvariantError("quotient basis has %d elements, trace form "
                             "rank is %d" % (s, ss_dim))

    def qcoords(A, D):
        """Coordinates (c, den) of the class of A / D in the quotient
        basis."""
        row = _flat(A)
        row[dd + s] = D
        return _span_coords(span, row, s)

    # center of the quotient: sum_i c_i [B_i, G] = 0 (mod radical) for each
    # generator G, i.e. sum_i c_i (coordinates of [B_i, G])_l = 0 for every
    # l; the quotient is generated by I and the generators, so an element
    # commuting with each generator is central
    center = Echelon()
    for G, DG in map(_int_form, mats):
        C, _ = _coord_matrix([qcoords(_commutator(B, G), DB * DG)
                              for B, DB in qbasis])
        for row in C:
            center.insert(dict(enumerate(row)))
    center_coords = center.nullspace(s)
    center_dim = len(center_coords)
    # simple block dims from eigenspaces of a generic central element acting
    # by multiplication on the quotient
    simples = None
    if center_dim == 1:
        simples = [_sqrt(ss_dim)]
    else:
        rgen = rng if rng is not None else random.Random(12345)
        for _ in range(_CENTER_TRIES):
            coeffs = [rgen.randint(-5, 5) for _ in range(center_dim)]
            if not any(coeffs):
                continue
            weights = [sum(c * cvec[k] for c, cvec in zip(coeffs,
                                                          center_coords))
                       for k in range(s)]
            Z, DZ = _combine(weights, qbasis)
            Zm = ExactMatrix.from_ints(
                *_coord_matrix([qcoords(_imul(Z, B), DZ * DB)
                                for B, DB in qbasis]),
                N=s, rows_level=1, cols_level=1)
            counts = _rational_roots(char_poly(Zm))
            if counts is None or len(counts) != center_dim:
                continue
            blocks = []
            for _, c0 in sorted(counts.items()):
                b = _sqrt(c0)
                if b is None:
                    blocks = None
                    break
                blocks.append(b)
            if blocks is not None:
                simples = sorted(blocks, reverse=True)
                break
    return {"dim": m, "radical": rad_dim, "ss": ss_dim,
            "center_ss": center_dim,
            "simples": simples}


def _trace_product(A, B):
    return sum(a * brow[i] for i, arow in enumerate(A)
               for a, brow in zip(arow, B) if a)


def _commutator(A, B):
    AB, BA = _imul(A, B), _imul(B, A)
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(AB, BA)]


def fglue_commutant_shape_ok(basis):
    """The almost-upper-triangular shape predicate used by the f-glue
    indecomposability argument."""
    return _shape_certificate(basis) is not None
