"""Decomposition analysis of evaluated representations: commutant bases,
idempotent search with paper-style entry-forcing certificates, recursive
eigenspace splitting, the image trichotomy of X = RS, semisimple-quotient
dimensions through the glue projection, and matrix-algebra dimension data.

Numeric analyses work over plain rationals at exact sample points; the
certificates (local endomorphism ring, commutant shape) are exact.
"""

from fractions import Fraction

from .ccwg import is_ccwg, project_K
from .clifford import mn_character, partition_dim, partitions
from .matrix import (ExactMatrix, commutant_basis, eigen_data, embed_at,
                     matrix_order, char_poly, nullspace)
from .mdd import all_permutations, perm_cycle_type, perm_to_adjacent_word
from .scalar import as_fraction, rf


class CommutantBasis:
    __slots__ = ("basis", "dim")

    def __init__(self, basis):
        self.basis = basis
        self.dim = len(basis)


def commutant(matrices, constraints=None):
    """Exact basis of everything commuting with the given matrices."""
    return CommutantBasis(commutant_basis(matrices, constraints))


# ---------------------------------------------------------------------------
# univariate polynomial helpers over Q (ascending coefficient lists)

def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _ptrim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _pdivmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - len(b)
        c = a[-1] / b[-1]
        q[k] = c
        for i, y in enumerate(b):
            a[i + k] -= c * y
        a.pop()
    return _ptrim(q), _ptrim(a or [Fraction(0)])


def _pgcd(a, b):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b != [Fraction(0)] and any(b):
        _, r = _pdivmod(a, b)
        a, b = b, r
    if a[-1] != 0:
        a = [x / a[-1] for x in a]
    return a


def _pxgcd(a, b):
    """(u, v) with u*a + v*b = gcd (gcd normalized monic, assumed nonzero)."""
    r0, r1 = _ptrim(list(a)), _ptrim(list(b))
    s0, s1 = [Fraction(1)], [Fraction(0)]
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1))
        t0, t1 = t1, _psub(t0, _pmul(q, t1))
    lc = r0[-1]
    return ([x / lc for x in s0], [x / lc for x in t0], [x / lc for x in r0])


def _psub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _ptrim(out)


def _peval_matrix(coeffs, M):
    I = ExactMatrix.identity(M.N, M.rows_level)
    out = ExactMatrix.zeros(M.N, M.rows_level)
    P = I
    for c in coeffs:
        if c:
            out = out + P.scale(rf(c))
        P = P * M
    return out


def distinct_eigenvalue_count(M):
    """Number of distinct eigenvalues over the algebraic closure: degree of
    the squarefree part of the characteristic polynomial."""
    cp = char_poly(M)
    dcp = [c * k for k, c in enumerate(cp)][1:]
    g = _pgcd(cp, dcp)
    return (len(cp) - 1) - (len(g) - 1)


# ---------------------------------------------------------------------------
# idempotents and indecomposability certificates

def endo_ring_local(basis, constraints=None):
    """True iff the algebra spanned by the commutant basis has semisimple
    quotient of dimension 1 (radical = kernel of the trace form), which
    certifies indecomposability; exact over Q at numeric points."""
    m = len(basis)
    gram = ExactMatrix(m, 1, 1,
                       [[(basis[i] * basis[j]).trace() for j in range(m)]
                        for i in range(m)])
    r = m - len(nullspace(gram, constraints))
    return r == 1


def _shape_certificate(basis):
    """Recognize the almost-upper-triangular commutant shape: every basis
    combination has constant diagonal and its only below-diagonal entry at
    (half+1, half); then the only idempotents are 0 and I."""
    d = basis[0].nrows
    half = d // 2
    for T in basis:
        diag = T.rows[0][0]
        for i in range(d):
            if T.rows[i][i] != diag:
                return None
        for i in range(d):
            for j in range(i):
                if (i, j) != (half, half - 1) and not T.rows[i][j].is_zero():
                    return None
    return {"kind": "indecomposable",
            "certificate": "constant-diagonal almost-triangular commutant: "
                           "the (1,1) entry of T^2=T forces the diagonal a to "
                           "a^2=a and the (%d,%d) entry forces 2*a*g=g for the "
                           "below-diagonal entry g, so g=0 and T = a*I + "
                           "nilpotent, leaving only 0 and I" % (half + 1, half)}


def find_idempotents(com, constraints=None, rng=None, tries=25):
    """Nontrivial exact idempotents in the span of a commutant basis, or an
    indecomposability certificate, or an 'undecided' report."""
    basis = com.basis if isinstance(com, CommutantBasis) else com
    if len(basis) == 1:
        return {"kind": "indecomposable", "certificate": "commutant is scalar"}
    shape = _shape_certificate(basis)
    if shape is not None:
        return shape
    # search for a basis combination with >= 2 distinct rational eigenvalues
    split = _find_splitter(basis, rng, tries)
    if split is not None:
        T, mult = split
        idems = _spectral_idempotents(T, mult)
        for P in idems:
            assert (P * P - P).is_zero()
        return {"kind": "decomposable", "idempotents": idems}
    if endo_ring_local(basis, constraints):
        return {"kind": "indecomposable",
                "certificate": "endomorphism ring is local (trace-form "
                               "radical has corank 1)"}
    return {"kind": "undecided"}


def _rational_spectrum(T):
    """(roots with multiplicity) if the characteristic polynomial splits over
    Q, else None."""
    from .matrix import _roots_in_tower, UnsupportedSpectrum
    try:
        roots = _roots_in_tower(char_poly(T))
    except UnsupportedSpectrum:
        return None
    if any(not isinstance(r, Fraction) for r in roots):
        return None
    return roots


def minimal_polynomial(M):
    """Minimal polynomial of a constant exact matrix (ascending Fraction
    coefficients, monic), via Krylov iterations from the standard basis."""
    d = M.nrows
    vals = [[as_fraction(e) for e in row] for row in M.rows]
    mp = [Fraction(1)]
    for start in range(d):
        if len(mp) - 1 == d:
            break
        v = [Fraction(0)] * d
        v[start] = Fraction(1)
        # grow the Krylov space of v, recording combinations
        krylov = []          # raw vectors
        rref = []            # (pivot, reduced vector, combo)
        cur = v
        while True:
            vec = cur[:]
            combo = [Fraction(0)] * (len(krylov) + 1)
            combo[-1] = Fraction(1)
            for piv, rvec, rcombo in rref:
                f = vec[piv]
                if f:
                    vec = [x - f * y for x, y in zip(vec, rvec)]
                    for i, c in enumerate(rcombo):
                        combo[i] -= f * c
            lead = next((i for i, x in enumerate(vec) if x), None)
            if lead is None:
                # dependence: combo holds the vanishing polynomial coeffs
                poly = _ptrim(list(combo))
                mp = _plcm(mp, poly)
                break
            inv = 1 / vec[lead]
            vec = [x * inv for x in vec]
            combo = [x * inv for x in combo] + [Fraction(0)] * 0
            rref.append((lead, vec, combo))
            krylov.append(cur)
            cur = [sum((vals[i][j] * cur[j] for j in range(d) if cur[j]),
                       Fraction(0)) for i in range(d)]
    lc = mp[-1]
    return [x / lc for x in mp]


def _plcm(a, b):
    g = _pgcd(a, b)
    q, r = _pdivmod(_pmul(a, b), g)
    assert r == [Fraction(0)] or not any(r)
    return q


def _splitting_data(T):
    """(distinct roots, multiplicities-in-min-poly) when the minimal
    polynomial splits into rational linear factors, else None."""
    from .matrix import _roots_in_tower, UnsupportedSpectrum
    mp = minimal_polynomial(T)
    try:
        roots = _roots_in_tower(mp)
    except UnsupportedSpectrum:
        return None
    if len(roots) != len(mp) - 1 or any(not isinstance(r, Fraction)
                                        for r in roots):
        return None
    mult = {}
    for r in roots:
        mult[r] = mult.get(r, 0) + 1
    return mult


def _find_splitter(basis, rng=None, tries=25):
    best = None
    cands = list(basis)
    if rng is not None:
        for _ in range(tries):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            T = basis[0].scale(coeffs[0])
            for c, B in zip(coeffs[1:], basis[1:]):
                T = T + B.scale(c)
            cands.append(T)
    for T in cands:
        if not _is_constant_matrix(T):
            continue
        mult = _splitting_data(T)
        if mult is None or len(mult) < 2:
            continue
        if best is None or len(mult) > len(best[1]):
            best = (T, mult)
    return best


def _is_constant_matrix(M):
    return all(e.is_constant() for row in M.rows for e in row)


def _spectral_idempotents(T, mult):
    """Exact projectors onto the generalized eigenspaces of T via CRT in Q[x]
    against the minimal-polynomial factorization (x-lam)^m."""
    factors = {lam: _ppow([-lam, Fraction(1)], m) for lam, m in mult.items()}
    out = []
    for lam in sorted(mult):
        other = [Fraction(1)]
        for mu, f in factors.items():
            if mu != lam:
                other = _pmul(other, f)
        u, _, g = _pxgcd(other, factors[lam])
        assert len(g) == 1
        proj = _pmul(u, other)
        out.append(_peval_matrix(proj, T))
    return out


def _ppow(p, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _pmul(out, p)
    return out


# ---------------------------------------------------------------------------
# subspace restriction

def _solve_in_span(V_cols, target_cols, d):
    """Coordinates of each target column in the span of V's columns (exact);
    V_cols: list of length-d vectors."""
    k = len(V_cols)
    # row reduce [V | targets]
    rows = [[V_cols[j][i] for j in range(k)] +
            [t[i] for t in target_cols] for i in range(d)]
    pivots = []
    rc = 0
    for col in range(k):
        piv = None
        for r in range(rc, d):
            if rows[r][col] != 0:
                piv = r
                break
        assert piv is not None, "columns not independent"
        rows[rc], rows[piv] = rows[piv], rows[rc]
        pv = rows[rc][col]
        rows[rc] = [x / pv for x in rows[rc]]
        for r in range(d):
            if r != rc and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rc])]
        pivots.append(col)
        rc += 1
    sols = []
    for t in range(len(target_cols)):
        coords = [rows[r][k + t] for r in range(k)]
        for r in range(k, d):
            assert rows[r][k + t] == 0, "target not in span"
        sols.append(coords)
    return sols


def restrict_to_subspace(mats, basis_vectors):
    """Restrict matrices preserving span(basis_vectors) to that subspace;
    vectors are length-d Fraction lists."""
    d = len(basis_vectors[0])
    k = len(basis_vectors)
    out = []
    for M in mats:
        vals = [[as_fraction(e) for e in row] for row in M.rows]
        images = []
        for v in basis_vectors:
            img = [sum((vals[i][j] * v[j] for j in range(d) if v[j]),
                       Fraction(0)) for i in range(d)]
            images.append(img)
        coords = _solve_in_span(basis_vectors, images, d)
        rows = [[rf(coords[j][i]) for j in range(k)] for i in range(k)]
        out.append(ExactMatrix(k, 1, 1, rows))
    return out


def _matrix_column_space(P):
    """Independent columns of an exact constant matrix, as Fraction vectors."""
    d = P.nrows
    cols = [[as_fraction(P.rows[i][j]) for i in range(d)] for j in range(d)]
    basis = []
    pivot_rows = {}
    for c in cols:
        vec = c[:]
        for prow, bvec in pivot_rows.items():
            f = vec[prow]
            if f:
                vec = [x - f * y for x, y in zip(vec, bvec)]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        vec = [x / vec[lead] for x in vec]
        pivot_rows[lead] = vec
        basis.append(c)
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
    rational spectrum, with exact certificates on the indecomposable leaves."""
    mats = [M for _, M in pair.generator_images(n)]
    if assignment:
        mats = [M.evaluate(assignment, pair.constraints) for M in mats]
    leaves = []
    projectors = []

    def analyze(gen_mats, dim, chain):
        com = commutant(gen_mats)
        if com.dim == 1:
            # scalar commutant certifies indecomposability; irreducibility
            # additionally needs the generated algebra to be the full matrix
            # algebra (Burnside)
            if dim == 1 or len(generated_algebra(gen_mats)) == dim * dim:
                status = "irreducible"
            else:
                status = "indecomposable"
            leaves.append({"dim": dim, "status": status,
                           "chain": chain, "generators": gen_mats,
                           "x_spectrum": _x_spectrum(gen_mats)})
            return
        split = _find_splitter(com.basis, rng)
        if split is None:
            res = find_idempotents(com, rng=rng)
            status = "indecomposable" if res["kind"] == "indecomposable" \
                else "undecided"
            leaves.append({"dim": dim, "status": status, "chain": chain,
                           "certificate": res.get("certificate"),
                           "generators": gen_mats,
                           "x_spectrum": _x_spectrum(gen_mats)})
            return
        T, mult = split
        idems = _spectral_idempotents(T, mult)
        if not chain:
            projectors.extend(idems)
        for P in idems:
            cols = _matrix_column_space(P)
            sub = restrict_to_subspace(gen_mats, cols)
            analyze(sub, len(cols), chain + (len(cols),))

    analyze(mats, mats[0].nrows, ())
    klass, order = (None, None)
    try:
        klass, order = x_trichotomy(pair, assignment)
    except Exception:
        pass
    return DecompositionReport(leaves, klass, order, projectors)


def _x_spectrum(gen_mats):
    """Spectrum of X = R_1 S_1 in the restricted representation (generator
    list is r1, s1, r2, s2, ...)."""
    X = gen_mats[0] * gen_mats[1]
    try:
        ed = eigen_data(X)
    except Exception:
        return None
    return [(str(v), a, g) for v, a, g in ed.eigenvalues]


def x_trichotomy(pair, assignment=None, order_bound=1000):
    """('a'|'b'|'c', order): 'a' finite image of the abelian subgroup (X of
    finite order), 'b' diagonalizable of infinite order, 'c' not
    diagonalizable."""
    X = pair.R * pair.S
    if assignment:
        X = X.evaluate(assignment, pair.constraints)
    ed = eigen_data(X)
    if not ed.diagonalizable:
        return "c", None
    order = matrix_order(X, bound=order_bound)
    if order is not None:
        return "a", order
    return "b", None


# ---------------------------------------------------------------------------
# semisimple quotient via the glue projection

def _is_wangian(R, S):
    return S == R or S == R.scale(-1)


def semisimple_quotient_dims(pair, n):
    """Multiset of irreducible dimensions of the semisimple quotient, computed
    by projecting the glue away and decomposing the resulting symmetric-group
    representation by exact character projectors."""
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
    gens = [embed_at(M, i, n) for i in range(1, n)]
    # build the full symmetric-group image
    images = {tuple(range(n)): ExactMatrix.identity(pair.N, n)}
    for w in all_permutations(n):
        if w in images:
            continue
        P = ExactMatrix.identity(pair.N, n)
        for i in perm_to_adjacent_word(w):
            P = P * gens[i - 1]
        images[w] = P
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    dims = []
    for lam in partitions(n):
        d_lam = partition_dim(lam)
        tr_total = Fraction(0)
        for w, P in images.items():
            chi = mn_character(lam, perm_cycle_type(w))
            if chi:
                tr_total += chi * as_fraction(P.trace())
        # trace of the isotypic projector is (multiplicity) * d_lam
        mult = Fraction(d_lam, fact) * tr_total / d_lam
        assert mult.denominator == 1 and mult >= 0, (lam, mult)
        dims.extend([d_lam] * int(mult))
    assert sum(dims) == pair.N ** n
    return sorted(dims)


# ---------------------------------------------------------------------------
# matrix algebra dimensions

class _SpanRREF:
    """Incremental row-echelon span of flattened Fraction vectors."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, vec):
        vec = dict(vec)
        for p in sorted(set(vec) & set(self.pivots)):
            f = vec.get(p)
            if not f:
                vec.pop(p, None)
                continue
            for c, v in self.pivots[p].items():
                if c == p:
                    continue
                nv = vec.get(c, Fraction(0)) - f * v
                if nv:
                    vec[c] = nv
                else:
                    vec.pop(c, None)
            vec.pop(p, None)
        return {c: v for c, v in vec.items() if v}

    def insert(self, vec):
        vec = self.reduce(vec)
        if not vec:
            return False
        p = min(vec)
        pv = vec[p]
        vec = {c: v / pv for c, v in vec.items()}
        vec[p] = Fraction(1)
        for p0, row in self.pivots.items():
            f = row.get(p)
            if f:
                for c, v in vec.items():
                    if c == p:
                        continue
                    nv = row.get(c, Fraction(0)) - f * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
                row.pop(p, None)
        self.pivots[p] = vec
        return True

    @property
    def dim(self):
        return len(self.pivots)


def _to_frac_rows(M):
    return [[as_fraction(e) for e in row] for row in M.rows]


def _frac_mul(A, B):
    d = len(A)
    out = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        Ai = A[i]
        Oi = out[i]
        for k in range(d):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(d):
                    b = Bk[j]
                    if b:
                        Oi[j] += a * b
    return out


def _frac_flatten(A):
    d = len(A)
    return {i * d + j: A[i][j] for i in range(d) for j in range(d) if A[i][j]}


def generated_algebra(mats, bound=4096):
    """Basis (as Fraction row-lists) of the unital algebra generated by the
    given constant matrices, by span closure under products."""
    d = mats[0].nrows
    gens = [_to_frac_rows(M) for M in mats]
    span = _SpanRREF()
    basis = []
    ident = [[Fraction(1) if i == j else Fraction(0) for j in range(d)]
             for i in range(d)]
    queue = [ident] + gens
    while queue:
        A = queue.pop(0)
        if span.insert(_frac_flatten(A)):
            basis.append(A)
            if len(basis) > bound:
                raise ValueError("algebra closure exceeds bound")
            for G in gens:
                queue.append(_frac_mul(A, G))
                queue.append(_frac_mul(G, A))
    return basis


def _frac_trace(A):
    return sum((A[i][i] for i in range(len(A))), Fraction(0))


def algebra_dims(mats_or_pair, n=None, assignment=None, rng=None, tries=40):
    """{dim, radical, ss, center_ss, simples} for the matrix algebra generated
    by the generator images at an exact rational point.

    The radical is the kernel of the trace form, the semisimple quotient is
    computed structurally, and the simple block dimensions come from the
    eigenspaces of a generic central element of the quotient.
    """
    if n is not None:
        pair = mats_or_pair
        mats = [M for _, M in pair.generator_images(n)]
        if assignment:
            mats = [M.evaluate(assignment, pair.constraints) for M in mats]
    else:
        mats = list(mats_or_pair)
    basis = generated_algebra(mats)
    m = len(basis)
    # radical = kernel of the trace Gram matrix
    gram_rows = []
    for i in range(m):
        row = {}
        for j in range(m):
            v = _frac_trace(_frac_mul(basis[i], basis[j]))
            if v:
                row[j] = rf(v)
        gram_rows.append(row)
    from .matrix import sparse_nullspace
    rad_coords = sparse_nullspace(gram_rows, m)
    rad_dim = len(rad_coords)
    ss_dim = m - rad_dim
    # quotient algebra structure
    d = len(basis[0])
    rad_span = _SpanRREF()
    for vec in rad_coords:
        flat = {}
        for k, c in enumerate(vec):
            cf = as_fraction(c)
            if cf:
                for key, v in _frac_flatten(basis[k]).items():
                    flat[key] = flat.get(key, Fraction(0)) + cf * v
        rad_span.insert({k: v for k, v in flat.items() if v})
    qspan = _SpanRREF()
    qbasis = []
    for A in basis:
        vec = rad_span.reduce(_frac_flatten(A))
        if qspan.insert(vec):
            qbasis.append(A)
    s = len(qbasis)
    assert s == ss_dim

    # fixed elimination for expressing quotient classes in the qbasis
    reduced_qbasis = [rad_span.reduce(_frac_flatten(B)) for B in qbasis]
    positions = sorted({k for r in reduced_qbasis for k in r})
    base_rows = [[r.get(pos, Fraction(0)) for r in reduced_qbasis]
                 for pos in positions]

    def qcoords(A):
        work = rad_span.reduce(_frac_flatten(A))
        rows = [row[:] + [work.get(pos, Fraction(0))]
                for row, pos in zip(base_rows, positions)]
        rc = 0
        coords = [Fraction(0)] * s
        pivrow = {}
        for col in range(s):
            piv = None
            for r in range(rc, len(rows)):
                if rows[r][col]:
                    piv = r
                    break
            assert piv is not None
            rows[rc], rows[piv] = rows[piv], rows[rc]
            pv = rows[rc][col]
            rows[rc] = [x / pv for x in rows[rc]]
            for r in range(len(rows)):
                if r != rc and rows[r][col]:
                    fct = rows[r][col]
                    rows[r] = [x - fct * y for x, y in zip(rows[r], rows[rc])]
            pivrow[col] = rc
            rc += 1
        for col in range(s):
            coords[col] = rows[pivrow[col]][s]
        return coords

    # center of the quotient: sum_i c_i [B_i, G] = 0 (mod radical) for all G
    comm_rows = []
    for G in qbasis:
        comm_flat = [rad_span.reduce(_frac_flatten(
            _frac_sub(_frac_mul(B, G), _frac_mul(G, B)))) for B in qbasis]
        for pos in sorted({k for fl in comm_flat for k in fl}):
            row = {}
            for i, fl in enumerate(comm_flat):
                v = fl.get(pos)
                if v:
                    row[i] = rf(v)
            if row:
                comm_rows.append(row)
    center_coords = sparse_nullspace(comm_rows, s)
    center_dim = len(center_coords)
    # simple block dims from eigenspaces of a generic central element acting
    # by multiplication on the quotient
    simples = None
    if center_dim == 1:
        simples = [_int_sqrt(ss_dim)]
    else:
        import random as _random
        rgen = rng if rng is not None else _random.Random(12345)
        for _ in range(tries):
            coeffs = [rgen.randint(-5, 5) for _ in range(center_dim)]
            Z = None
            for cvec, c in zip(center_coords, coeffs):
                if not c:
                    continue
                for k, x in enumerate(cvec):
                    xf = as_fraction(x) * c
                    if xf:
                        Z = _frac_axpy(Z, xf, qbasis[k], d)
            if Z is None:
                continue
            mult = [[Fraction(0)] * s for _ in range(s)]
            for j, B in enumerate(qbasis):
                col = qcoords(_frac_mul(Z, B))
                for i in range(s):
                    mult[i][j] = col[i]
            Zm = ExactMatrix(s, 1, 1, [[rf(x) for x in row] for row in mult])
            roots = _rational_spectrum(Zm)
            if roots is None:
                continue
            counts = {}
            for r0 in roots:
                counts[r0] = counts.get(r0, 0) + 1
            if len(counts) != center_dim:
                continue
            blocks = []
            for _, c0 in sorted(counts.items()):
                b = _int_sqrt(c0)
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


def _frac_sub(A, B):
    return [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(A, B)]


def _frac_axpy(Z, c, B, d):
    if Z is None:
        Z = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        Bi = B[i]
        Zi = Z[i]
        for j in range(d):
            if Bi[j]:
                Zi[j] += c * Bi[j]
    return Z


def _int_sqrt(v):
    import math
    r = math.isqrt(int(v))
    return r if r * r == v else None


def fglue_commutant_shape_ok(basis):
    """The almost-upper-triangular shape predicate used by the f-glue
    indecomposability argument."""
    return _shape_certificate(basis) is not None
