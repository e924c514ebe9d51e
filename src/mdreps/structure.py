"""Decomposition analysis of evaluated representations: commutant bases,
idempotent search with paper-style entry-forcing certificates, recursive
eigenspace splitting, the image trichotomy of X = RS, semisimple-quotient
dimensions through the glue projection, and matrix-algebra dimension data.

Numeric analyses work at exact sample points on the constant form of
``ExactMatrix`` (integer rows A with M = A / D), fraction-free through
``matrix.Echelon``, and in Q[x] through ``upoly``.  Four rules are written
once:

- one coordinate span, ``_Coords``: coordinates (c, den), integers over one
  denominator, for the Krylov chain of ``_annihilator``, the regular
  representation of the splitter search, subspace restriction and the
  quotient of ``algebra_dims``;
- one spin, ``_spin``: the breadth-first walk that keeps each element
  independent of those before it, for invariant subspaces and for algebra
  closures;
- one sparse product, ``matrix._sparse_apply``, for an integer matrix
  applied to a vector;
- one trace form, ``_trace_product``, read entry by entry with no product
  formed, for the radicals of ``algebra_dims`` and ``endo_ring_local``.

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
                     _entries, _imul, _int_form, _require_square, _rf_rows,
                     _scaled_product, _sparse_apply, char_poly,
                     commutant_basis, eigen_data, embed_at, kron, nullspace)
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
    certifies indecomposability.  The Gram matrix is read on the integer
    rows A_k of B_k = A_k / D_k, scaled by diag(D_k) on both sides, which
    keeps its rank, or on RF rows."""
    _require_square(basis, "endo_ring_local")
    try:
        rows = [_int_form(B)[0] for B in basis]
    except ValueError:  # a symbolic or cyclotomic basis
        rows = [_rf_rows(B) for B in basis]
    m = len(basis)
    gram = ExactMatrix.from_rows([[_trace_product(A, B) for B in rows]
                                  for A in rows], N=m, rows_level=1,
                                 cols_level=1)
    return m - len(nullspace(gram, constraints)) == 1


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
    _require_square(basis, "find_idempotents")
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
    """The annihilator of the sparse integer vector v under M = A / D, as a
    primitive integer list: the least-degree p with p(M) v = 0.  The Krylov
    chain v, A v, A^2 v, ... stops at the first A^j v with coordinates
    c / den in the chain before it; as M^k = A^k / D^k, p is
    den D^j x^j - sum c_k D^k x^k."""
    cols, chain = _columns(A), _Coords(len(A))
    while (found := chain.add(v, 1)) is None:
        v = _sparse_apply(cols, v)
    c, den = found
    return _primitive([-x * D ** k for k, x in enumerate(c)]
                      + [den * D ** len(c)])


def minimal_polynomial(M):
    """Minimal polynomial of a constant exact matrix (ascending Fraction
    coefficients, monic): the lcm of the annihilators of the standard basis
    vectors, taken over primitive integer lists."""
    d = _require_square([M], "minimal_polynomial")
    A, D = _int_form(M)
    mp = [1]
    for start in range(d):
        if len(mp) - 1 == d:
            break
        poly = _annihilator(A, D, {start: 1})
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
    multiplication by B_i in basis coordinates, and the integer vector e is
    a multiple of the coordinates of I.  For T in the span, p(L_T) e = 0
    iff p(T) = 0, so the annihilator of e under L_T is the minimal
    polynomial of T.  ValueError when the basis is dependent, or a product
    or I is not in its span."""
    d = len(forms[0][0])
    span = _Coords(d * d)
    if any(span.add(_flat(A), D) is not None for A, D in forms):
        raise ValueError("the basis is dependent")

    def coords(A, D, what):
        c = span.coords(_flat(A), D)
        if c is None:
            raise ValueError("%s is not in the span of the basis" % what)
        return c

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
        e = {i: x for i, x in enumerate(e) if x}
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

class _Coords:
    """A span in integer coordinates: vector j is stored times its scale,
    with the scale at marker column ``bound + j`` of an ``Echelon``; a
    vector looked up carries its scale at ``bound + k``, k vectors being
    stored, so that its residual is den (0 | -c | 1) for coordinates
    c / den.  Rows inserted into ``ech`` with no marker read as 0."""

    __slots__ = ("ech", "k")

    def __init__(self, bound):
        self.ech, self.k = Echelon(bound), 0

    def add(self, row, scale):
        """Store the vector row / scale when it is not in the span, and
        return None; else return its coordinates."""
        res = self.ech.insert({**row, self.ech.bound + self.k: scale})
        if res is None:
            self.k += 1
        return self._read(res)

    def coords(self, row, scale):
        """(c, den), the coordinates c / den of the vector row / scale as
        integers over one positive denominator, or None outside the span."""
        return self._read(self.ech.reduce({**row,
                                           self.ech.bound + self.k: scale}))

    def _read(self, res):
        b = self.ech.bound
        if res is None or any(c < b for c in res):
            return None
        return [-res.get(b + j, 0) for j in range(self.k)], res[b + self.k]


def _coord_matrix(cols):
    """(A, D) with column j of A / D the coordinates c_j / den_j, D the lcm
    of the den_j.  Each (c_j, den_j) from ``_Coords`` has content 1,
    so for every prime p dividing D, the column whose den_j holds the most
    factors p has an entry prime to p in D / den_j * c_j: A / D is in
    lowest terms.  InvariantError when a vector was not in the span."""
    if None in cols:
        raise InvariantError("vector not in the span")
    D = lcm(*(den for _, den in cols))
    return [[c[i] * (D // den) for c, den in cols]
            for i in range(len(cols[0][0]))], D


def restrict_to_subspace(mats, basis_vectors):
    """Restrict matrices preserving span(basis_vectors) to that subspace;
    the vectors are rational (ints or Fractions) of length d."""
    d = _require_square(mats, "restrict_to_subspace")
    if not basis_vectors or any(len(v) != d for v in basis_vectors):
        raise ValueError("restrict_to_subspace needs at least one basis "
                         "vector, each of length %d" % d)
    vecs = [({i: x for i, x in enumerate(v) if x}, D)
            for v, D in map(_clear, basis_vectors)]
    span, k = _Coords(d), len(vecs)
    if any(span.add(v, D) is not None for v, D in vecs):
        raise InvariantError("basis vectors are not independent")
    out = []
    for M in mats:
        A, DM = _int_form(M)
        cols = _columns(A)
        coords = [span.coords(_sparse_apply(cols, v), DM * D)
                  for v, D in vecs]
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
        roots = _rational_roots(_annihilator(A, D, {0: 1}))
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
    """Basis of the right kernel of the integer rows K, as sparse integer
    vectors."""
    ech = Echelon()
    for row in K:
        ech.insert(dict(enumerate(row)))
    return [{i: x for i, x in enumerate(v) if x}
            for v in ech.int_nullspace(len(K[0]))]


def _spin(seeds, maps, row, full):
    """The elements kept by a breadth-first walk from the seeds under the
    maps, in the order found: x is kept when row(x) is independent of the
    rows of those kept before it, and then its images f(x) join the queue.
    The walk stops once full elements are kept."""
    span = Echelon()
    kept = []
    queue = deque(seeds)
    while queue and len(kept) < full:
        x = queue.popleft()
        if span.insert(row(x)) is None:
            kept.append(x)
            queue.extend(f(x) for f in maps)
    return kept


def _spin_dim(v, gens):
    """Dimension of the least subspace that contains the sparse integer
    vector v and is invariant under the integer matrices gens (lists of
    rows)."""
    maps = [lambda w, c=_columns(G): _sparse_apply(c, w) for G in gens]
    return len(_spin([v], maps, lambda w: w, len(gens[0])))


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
    given constant matrices: the spin of I and the generators under
    multiplication by each generator on the right and on the left, on
    (integer matrix, denominator) pairs (ValueError past ``_ALGEBRA_BOUND``
    elements)."""
    d = _require_square(mats, "generated_algebra")
    gens = [_int_form(M) for M in mats]
    maps = []
    for G, DG in gens:
        maps += [lambda x, G=G, DG=DG: _scaled_product(*x, G, DG),
                 lambda x, G=G, DG=DG: _scaled_product(G, DG, *x)]
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    basis = _spin([(ident, 1)] + gens, maps, lambda x: _flat(x[0]),
                  min(d * d, _ALGEBRA_BOUND + 1))
    if len(basis) > _ALGEBRA_BOUND:
        raise ValueError("algebra closure exceeds bound")
    return [[[Fraction(x, D) for x in row] for row in A] for A, D in basis]


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
    d = _require_square(mats, "algebra_dims")
    basis = []
    for B in generated_algebra(mats):
        flat, D = _clear([x for row in B for x in row])
        basis.append(([flat[i:i + d] for i in range(0, d * d, d)], D))
    m = len(basis)
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
    # their span
    span = _Coords(d * d)
    for vec in rad_coords:
        span.ech.insert(_flat(_combine(vec, basis)[0]))
    qbasis = [(A, D) for A, D in basis if span.add(_flat(A), D) is None]
    s = len(qbasis)
    if s != ss_dim:
        raise InvariantError("quotient basis has %d elements, trace form "
                             "rank is %d" % (s, ss_dim))
    # center of the quotient: sum_i c_i [B_i, G] = 0 (mod radical) for each
    # generator G, i.e. sum_i c_i (coordinates of [B_i, G])_l = 0 for every
    # l; the quotient is generated by I and the generators, so an element
    # commuting with each generator is central
    center = Echelon()
    for G, DG in map(_int_form, mats):
        C, _ = _coord_matrix([span.coords(_flat(_commutator(B, G)), DB * DG)
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
                *_coord_matrix([span.coords(_flat(_imul(Z, B)), DZ * DB)
                                for B, DB in qbasis]),
                N=s, rows_level=1, cols_level=1)
            counts = _rational_roots(char_poly(Zm))
            if counts is None or len(counts) != center_dim:
                continue
            blocks = [_sqrt(c0) for _, c0 in sorted(counts.items())]
            if None not in blocks:
                simples = sorted(blocks, reverse=True)
                break
    return {"dim": m, "radical": rad_dim, "ss": ss_dim,
            "center_ss": center_dim, "simples": simples}


def _trace_product(A, B):
    """tr(A B) for integer or RF rows, summed over the nonzero entries of A
    with no product formed."""
    return sum(a * brow[i] for i, arow in enumerate(A)
               for a, brow in zip(arow, B) if a)


def _commutator(A, B):
    AB, BA = _imul(A, B), _imul(B, A)
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(AB, BA)]


def fglue_commutant_shape_ok(basis):
    """The almost-upper-triangular shape predicate used by the f-glue
    indecomposability argument."""
    return _shape_certificate(basis) is not None
