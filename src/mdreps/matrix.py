"""Dense exact matrices indexed by words over {1..N}, with the tensor-product
and word-enumeration conventions used throughout: words are enumerated in
revlex order (first letter varies fastest) and the first tensor factor reads
the leading letters of a word.

Under these conventions ``kron(A, B)`` at entry (w, v) is
``A[w_lead, v_lead] * B[w_trail, v_trail]``.
"""

from fractions import Fraction

from .scalar import (RF, RF_ONE, RF_ZERO, BranchAmbiguity, Cyc, NonVanishing,
                     as_fraction, rf, rf_from_json, rf_to_json, unity_order)


# ---------------------------------------------------------------------------
# words

def words(N, n):
    """All words of length n over {1..N} in revlex order (first letter
    fastest)."""
    out = []
    for idx in range(N ** n):
        w = []
        k = idx
        for _ in range(n):
            w.append(k % N + 1)
            k //= N
        out.append(tuple(w))
    return out


def word_index(w, N):
    idx = 0
    for k, letter in enumerate(w):
        idx += (letter - 1) * N ** k
    return idx


def word_from_str(s):
    return tuple(int(ch) for ch in s)


def word_to_str(w):
    return "".join(str(l) for l in w)


class UnsupportedSpectrum(Exception):
    """Characteristic polynomial has a factor outside the scalar tower."""

    def __init__(self, factor):
        self.factor = factor
        super().__init__("unsupported spectrum factor: %s" % (factor,))


class ExactMatrix:
    """Dense matrix of rational functions over the word basis of {1..N}^n."""

    __slots__ = ("N", "rows_level", "cols_level", "rows")

    def __init__(self, N, rows_level, cols_level, rows):
        self.N = N
        self.rows_level = rows_level
        self.cols_level = cols_level
        self.rows = rows

    @property
    def nrows(self):
        return self.N ** self.rows_level

    @property
    def ncols(self):
        return self.N ** self.cols_level

    @classmethod
    def zeros(cls, N, rows_level, cols_level=None):
        if cols_level is None:
            cols_level = rows_level
        nr, nc = N ** rows_level, N ** cols_level
        return cls(N, rows_level, cols_level, [[RF_ZERO] * nc for _ in range(nr)])

    @classmethod
    def identity(cls, N, level):
        M = cls.zeros(N, level)
        for i in range(M.nrows):
            M.rows[i][i] = RF_ONE
        return M

    @classmethod
    def from_rows(cls, entries, N=2, rows_level=None, cols_level=None):
        rows = [[rf(x) for x in row] for row in entries]
        nr, nc = len(rows), len(rows[0])
        if rows_level is None:
            rows_level = _level_of(nr, N)
        if cols_level is None:
            cols_level = _level_of(nc, N)
        assert N ** rows_level == nr and N ** cols_level == nc
        return cls(N, rows_level, cols_level, rows)

    def entry(self, w, v):
        """Bra-ket access <w|M|v> by words."""
        return self.rows[word_index(w, self.N)][word_index(v, self.N)]

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def copy(self):
        return ExactMatrix(self.N, self.rows_level, self.cols_level,
                           [row[:] for row in self.rows])

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.N == other.N
                and self.rows_level == other.rows_level
                and self.cols_level == other.cols_level
                and self.rows == other.rows)

    def __add__(self, other):
        assert self.nrows == other.nrows and self.ncols == other.ncols
        return ExactMatrix(self.N, self.rows_level, self.cols_level,
                           [[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        assert self.nrows == other.nrows and self.ncols == other.ncols
        return ExactMatrix(self.N, self.rows_level, self.cols_level,
                           [[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return ExactMatrix(self.N, self.rows_level, self.cols_level,
                           [[-a for a in row] for row in self.rows])

    def scale(self, c):
        c = rf(c)
        return ExactMatrix(self.N, self.rows_level, self.cols_level,
                           [[a * c for a in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return self.scale(other)
        assert self.ncols == other.nrows, "dimension mismatch"
        nc = other.ncols
        # the nonzero entries of each row of other, as (column, entry)
        bnz = [[(j, b) for j, b in enumerate(row) if not b.is_zero()]
               for row in other.rows]
        out = []
        for arow in self.rows:
            terms = [[] for _ in range(nc)]
            for a, brow in zip(arow, bnz):
                if not a.is_zero():
                    for j, b in brow:
                        terms[j].append((a, b))
            out.append([_dot(t) for t in terms])
        return ExactMatrix(self.N, self.rows_level, other.cols_level, out)

    def __rmul__(self, c):
        return self.scale(c)

    def transpose(self):
        nr, nc = self.nrows, self.ncols
        return ExactMatrix(self.N, self.cols_level, self.rows_level,
                           [[self.rows[i][j] for i in range(nr)] for j in range(nc)])

    def trace(self):
        assert self.nrows == self.ncols
        t = RF_ZERO
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def is_zero(self):
        return all(e.is_zero() for row in self.rows for e in row)

    def is_identity(self):
        if self.nrows != self.ncols:
            return False
        for i in range(self.nrows):
            for j in range(self.ncols):
                e = self.rows[i][j]
                if i == j:
                    if e != RF_ONE:
                        return False
                elif not e.is_zero():
                    return False
        return True

    def evaluate(self, assignment, constraints=None):
        if constraints is not None:
            constraints.check(assignment)
        return ExactMatrix(self.N, self.rows_level, self.cols_level,
                           [[rf(e.evaluate(assignment)) for e in row]
                            for row in self.rows])

    def power(self, k):
        assert self.nrows == self.ncols
        out = ExactMatrix.identity(self.N, self.rows_level)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self, constraints=None):
        """Gauss-Jordan inverse; raises BranchAmbiguity when a pivot is not
        certified nonzero by the constraints."""
        assert self.nrows == self.ncols
        n = self.nrows
        a = [row[:] + [RF_ONE if j == i else RF_ZERO for j in range(n)]
             for i, row in enumerate(self.rows)]
        for col in range(n):
            piv = None
            for r in range(col, n):
                if not a[r][col].is_zero() and _certified(a[r][col], constraints):
                    piv = r
                    break
            if piv is None:
                for r in range(col, n):
                    if not a[r][col].is_zero():
                        raise BranchAmbiguity(a[r][col].num)
                raise ZeroDivisionError("singular matrix")
            a[col], a[piv] = a[piv], a[col]
            pv = a[col][col]
            a[col] = [x / pv for x in a[col]]
            for r in range(n):
                if r != col and not a[r][col].is_zero():
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return ExactMatrix(self.N, self.rows_level, self.cols_level,
                           [row[n:] for row in a])

    def to_json(self):
        ws_r = words(self.N, self.rows_level)
        ws_c = words(self.N, self.cols_level)
        entries = []
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                if not e.is_zero():
                    entries.append([word_to_str(ws_r[i]), word_to_str(ws_c[j]),
                                    rf_to_json(e)])
        return {"N": self.N, "rows_level": self.rows_level,
                "cols_level": self.cols_level, "entries": entries}

    @classmethod
    def from_json(cls, obj):
        M = cls.zeros(obj["N"], obj["rows_level"], obj["cols_level"])
        for wstr, vstr, e in obj["entries"]:
            i = word_index(word_from_str(wstr), obj["N"])
            j = word_index(word_from_str(vstr), obj["N"])
            M.rows[i][j] = rf_from_json(e)
        return M

    def __repr__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.rows)


def _dot(pairs):
    """Sum of a*b over (a, b) pairs of RFs.  Numerators over the same
    denominator product are summed unreduced and reduced once; the per-
    denominator results are then added.  A single term is one product."""
    if not pairs:
        return RF_ZERO
    if len(pairs) == 1:
        a, b = pairs[0]
        return a * b
    sums = {}
    for a, b in pairs:
        if a.den.is_constant():
            den = b.den
        elif b.den.is_constant():
            den = a.den
        else:
            den = a.den * b.den
        num = a.num * b.num
        acc = sums.get(den)
        sums[den] = num if acc is None else acc + num
    total = None
    for den, num in sums.items():
        # a product of monic denominators is monic; over 1 the sum of
        # numerators is already canonical
        part = RF(num, den, _canonical=den.is_constant())
        total = part if total is None else total + part
    return total


def _level_of(size, N):
    lvl = 0
    s = 1
    while s < size:
        s *= N
        lvl += 1
    assert s == size, "size %d is not a power of %d" % (size, N)
    return lvl


def _certified(x, constraints):
    if x.num.is_constant():
        return not x.num.is_zero()
    return constraints is not None and constraints.covers(x.num)


# ---------------------------------------------------------------------------
# tensor structure

def kron(A, B):
    """Tensor product with the first factor reading the leading letters."""
    assert A.N == B.N
    N = A.N
    sa_r, sa_c = A.nrows, A.ncols
    out = ExactMatrix.zeros(N, A.rows_level + B.rows_level,
                            A.cols_level + B.cols_level)
    for ib in range(B.nrows):
        brow = B.rows[ib]
        for jb in range(B.ncols):
            b = brow[jb]
            if b.is_zero():
                continue
            roff, coff = ib * sa_r, jb * sa_c
            for ia in range(sa_r):
                arow = A.rows[ia]
                orow = out.rows[roff + ia]
                for ja in range(sa_c):
                    a = arow[ja]
                    if not a.is_zero():
                        orow[coff + ja] = a * b
    return out


def embed_at(M, i, n):
    """I^(i-1) (x) M (x) I^(n-i-1): the level-n image of a level-2 generator
    acting on letters i, i+1 (1-based)."""
    if not (1 <= i <= n - 1):
        raise ValueError("position %d out of range for level %d" % (i, n))
    N = M.N
    assert M.rows_level == 2 and M.cols_level == 2
    out = ExactMatrix.zeros(N, n)
    lo = N ** (i - 1)
    for w_idx, w in enumerate(words(N, n)):
        wp = (w[i - 1] - 1) + (w[i] - 1) * N
        mrow = M.rows[wp]
        base = w_idx - (w[i - 1] - 1) * lo - (w[i] - 1) * lo * N
        for vp in range(N * N):
            e = mrow[vp]
            if e.is_zero():
                continue
            a, b = vp % N, vp // N
            v_idx = base + a * lo + b * lo * N
            out.rows[w_idx][v_idx] = e
    return out


def conjugate(U, M, constraints=None):
    """U M U^-1."""
    return U * M * U.inverse(constraints)


# ---------------------------------------------------------------------------
# representation pairs

class RepPair:
    """A pair (R, S) of N^2 x N^2 exact matrices with parameter metadata."""

    __slots__ = ("R", "S", "params", "constraints", "provenance")

    def __init__(self, R, S, params=(), constraints=None, provenance=""):
        assert R.N == S.N and R.rows_level == S.rows_level == 2
        assert R.cols_level == S.cols_level == 2
        self.R = R
        self.S = S
        self.params = tuple(params)
        self.constraints = constraints if constraints is not None else NonVanishing()
        self.provenance = provenance

    @property
    def N(self):
        return self.R.N

    def generator_images(self, n):
        """[(name, matrix)] for r_1..r_{n-1}, s_1..s_{n-1} at level n."""
        out = []
        for i in range(1, n):
            out.append(("r%d" % i, embed_at(self.R, i, n)))
            out.append(("s%d" % i, embed_at(self.S, i, n)))
        return out

    def evaluate(self, assignment):
        self.constraints.check(assignment)
        return RepPair(self.R.evaluate(assignment), self.S.evaluate(assignment),
                       params=(), constraints=NonVanishing(),
                       provenance=self.provenance + "@point")

    def __repr__(self):
        return "RepPair(%s; params=%s)" % (self.provenance, list(self.params))


# ---------------------------------------------------------------------------
# linear algebra: nullspace, rank, spectra

def nullspace(A, constraints=None):
    """Exact basis of the right kernel of A, as lists of RF entries.

    Raises BranchAmbiguity when a pivot decision depends on a polynomial not
    covered by the constraints.
    """
    rows = []
    for row in A.rows:
        r = {j: e for j, e in enumerate(row) if not e.is_zero()}
        if r:
            rows.append(r)
    return _nullspace_rows(rows, A.ncols, constraints)


def _all_constant(rows):
    for r in rows:
        for v in r.values():
            if not v.is_constant():
                return False
            c = v.num.const_value()
            if isinstance(c, Cyc) or isinstance(v.den.const_value(), Cyc):
                return False
    return True


def _nullspace_rows(rows, ncols, constraints=None):
    if _all_constant(rows):
        fr = [{j: as_fraction(v) for j, v in r.items()} for r in rows
              if not all(vv.is_zero() for vv in r.values())]
        basis = _nullspace_fraction(fr, ncols)
        return [[rf(x) for x in vec] for vec in basis]
    return _nullspace_rf(rows, ncols, constraints)


def _nullspace_rf(rows, ncols, constraints):
    rows = [dict(r) for r in rows]
    pivots = {}  # col -> reduced row (dict)
    for r in rows:
        # reduce against existing pivots
        for c in sorted(set(r) & set(pivots)):
            f = r.get(c)
            if f is None or f.is_zero():
                r.pop(c, None)
                continue
            prow = pivots[c]
            for cc, v in prow.items():
                if cc == c:
                    continue
                nv = r.get(cc, RF_ZERO) - f * v
                if nv.is_zero():
                    r.pop(cc, None)
                else:
                    r[cc] = nv
            r.pop(c, None)
        r = {c: v for c, v in r.items() if not v.is_zero()}
        if not r:
            continue
        # choose a certified pivot
        piv = None
        for c in sorted(r):
            if _certified(r[c], constraints):
                piv = c
                break
        if piv is None:
            raise BranchAmbiguity(r[sorted(r)[0]].num)
        pv = r[piv]
        r = {c: v / pv for c, v in r.items()}
        r[piv] = RF_ONE
        # eliminate the new pivot from previous pivot rows
        for c0, prow in pivots.items():
            f = prow.get(piv)
            if f is None or f.is_zero():
                continue
            for cc, v in r.items():
                if cc == piv:
                    continue
                nv = prow.get(cc, RF_ZERO) - f * v
                if nv.is_zero():
                    prow.pop(cc, None)
                else:
                    prow[cc] = nv
            prow.pop(piv, None)
        pivots[piv] = r
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [RF_ZERO] * ncols
        vec[fcol] = RF_ONE
        for c, prow in pivots.items():
            v = prow.get(fcol)
            if v is not None:
                vec[c] = -v
        basis.append(vec)
    return basis


def _nullspace_fraction(rows, ncols):
    """Same elimination over plain Fractions (fast path for numeric points)."""
    pivots = {}
    for r in rows:
        r = dict(r)
        for c in sorted(set(r) & set(pivots)):
            f = r.pop(c, None)
            if not f:
                continue
            for cc, v in pivots[c].items():
                if cc == c:
                    continue
                nv = r.get(cc, 0) - f * v
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
        r = {c: v for c, v in r.items() if v}
        if not r:
            continue
        piv = min(r)
        pv = r[piv]
        r = {c: v / pv for c, v in r.items()}
        r[piv] = Fraction(1)
        for c0, prow in pivots.items():
            f = prow.get(piv)
            if not f:
                continue
            for cc, v in r.items():
                if cc == piv:
                    continue
                nv = prow.get(cc, 0) - f * v
                if nv:
                    prow[cc] = nv
                else:
                    prow.pop(cc, None)
            prow.pop(piv, None)
        pivots[piv] = r
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for c, prow in pivots.items():
            v = prow.get(fcol)
            if v:
                vec[c] = -v
        basis.append(vec)
    return basis


def sparse_nullspace(rows, ncols, constraints=None):
    """Nullspace of a sparse system given as row dicts {col: RF}."""
    return _nullspace_rows(rows, ncols, constraints)


def rank(A, constraints=None):
    return A.ncols - len(nullspace(A, constraints))


def char_poly(A):
    """Characteristic polynomial coefficients [c_0 .. c_n] of A (monic,
    det(xI - A)), by the Faddeev-LeVerrier recursion; entries must be
    constant."""
    n = A.nrows
    vals = [[e.const_value() if e.is_constant() else None for e in row]
            for row in A.rows]
    for row in vals:
        for e in row:
            if e is None:
                raise ValueError("char_poly needs constant entries")
    M = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]  # leading
    for k in range(1, n + 1):
        AM = [[sum((vals[i][l] * M[l][j] for l in range(n)), Fraction(0))
               for j in range(n)] for i in range(n)]
        tr = sum((AM[i][i] for i in range(n)), Fraction(0))
        c = -tr / k
        coeffs.append(c)
        M = [[AM[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    # coeffs[k] multiplies x^(n-k); return ascending order c_0..c_n
    return list(reversed(coeffs))


class EigenData:
    __slots__ = ("eigenvalues", "diagonalizable", "dim")

    def __init__(self, eigenvalues, diagonalizable, dim):
        self.eigenvalues = eigenvalues  # list of (value, alg mult, geo mult)
        self.diagonalizable = diagonalizable
        self.dim = dim

    def spectrum(self):
        return sorted(((str(v), a, g) for v, a, g in self.eigenvalues))

    def __repr__(self):
        return "EigenData(%s, diagonalizable=%s)" % (self.eigenvalues,
                                                     self.diagonalizable)


def _poly_eval(coeffs, x):
    acc = 0 * x if isinstance(x, Cyc) else Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs, root):
    """Divide the ascending-coefficient polynomial by (x - root)."""
    n = len(coeffs) - 1
    out = [None] * n
    carry = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + carry * root
    assert carry == 0
    return out


def _rational_root_candidates(coeffs, cap=10 ** 12):
    nz = [c for c in coeffs if c != 0]
    if not nz or any(isinstance(c, Cyc) for c in coeffs):
        return []
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // _gcd_int(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    lead = next(c for c in reversed(ints) if c)
    low_i = next(i for i, c in enumerate(ints) if c)
    low = ints[low_i]
    if abs(low) > cap or abs(lead) > cap:
        raise UnsupportedSpectrum("coefficients too large for root search")
    cands = set()
    for pp in _divisors(abs(low)):
        for qq in _divisors(abs(lead)):
            cands.add(Fraction(pp, qq))
            cands.add(Fraction(-pp, qq))
    cands.add(Fraction(0))
    return sorted(cands)


def _frac_poly_gcd(a, b):
    a, b = list(a), list(b)

    def trim(p):
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        return p
    a, b = trim(a), trim(b)
    while any(b):
        # remainder of a by b
        r = list(a)
        while len(r) >= len(b) and any(r):
            if r[-1] == 0:
                r.pop()
                continue
            c = r[-1] / b[-1]
            k = len(r) - len(b)
            for i, y in enumerate(b):
                r[i + k] -= c * y
            r.pop()
        a, b = b, trim(r or [Fraction(0)])
    if a[-1] != 0:
        a = [x / a[-1] for x in a]
    return a


def _squarefree_part(coeffs):
    deriv = [c * k for k, c in enumerate(coeffs)][1:]
    if not any(deriv):
        return coeffs
    g = _frac_poly_gcd(coeffs, deriv)
    if len(g) == 1:
        return coeffs
    # exact division coeffs / g
    q = []
    r = list(coeffs)
    while len(r) >= len(g) and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        c = r[-1] / g[-1]
        k = len(r) - len(g)
        q.append((k, c))
        for i, y in enumerate(g):
            r[i + k] -= c * y
        r.pop()
    out = [Fraction(0)] * (len(coeffs) - len(g) + 1)
    for k, c in q:
        out[k] = c
    return out


def _gcd_int(a, b):
    while b:
        a, b = b, a % b
    return a


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


# quadratics x^2 + bx + c whose roots are supported cyclotomics
_CYC_QUADS = {(Fraction(1), Fraction(1)): 3, (Fraction(0), Fraction(1)): 4,
              (Fraction(-1), Fraction(1)): 6}


def _roots_in_tower(coeffs):
    """All roots, with multiplicity, of an ascending-coefficient polynomial
    over Q, as Fractions/Cycs; raises UnsupportedSpectrum if it does not split
    over the tower."""
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    roots = []
    # strip zero roots
    while coeffs and coeffs[0] == 0 and len(coeffs) > 1:
        roots.append(Fraction(0))
        coeffs = coeffs[1:]
    if len(coeffs) > 3:
        # hunt roots on the squarefree part (much smaller coefficients),
        # then recover multiplicities by deflating the original
        sf = _squarefree_part(coeffs)
        for cand in _rational_root_candidates(sf):
            if _poly_eval(sf, cand) == 0:
                while len(coeffs) > 1 and _poly_eval(coeffs, cand) == 0:
                    roots.append(cand)
                    coeffs = _deflate(coeffs, cand)
    changed = True
    while changed and len(coeffs) > 2:
        changed = False
        for cand in _rational_root_candidates(coeffs):
            while len(coeffs) > 1 and _poly_eval(coeffs, cand) == 0:
                roots.append(cand)
                coeffs = _deflate(coeffs, cand)
                changed = True
            if len(coeffs) <= 2:
                break
    if len(coeffs) == 2:
        roots.append(-coeffs[0] / coeffs[1])
        coeffs = coeffs[1:]
    if len(coeffs) == 3:
        a2, a1, a0 = coeffs[2], coeffs[1], coeffs[0]
        b, c = a1 / a2, a0 / a2
        disc = b * b - 4 * c
        if isinstance(disc, Fraction) and disc >= 0 and _is_square(disc):
            s = _sqrt_frac(disc)
            roots.append((-b + s) / 2)
            roots.append((-b - s) / 2)
            coeffs = coeffs[2:]
        else:
            # scaled root of unity? x^2+bx+c with roots u*z, u*z^-1 not handled;
            # support only the plain cyclotomic quadratics
            key = (b, c)
            if key in _CYC_QUADS:
                m = _CYC_QUADS[key]
                z = Cyc(m, 0, 1)
                roots.append(z)
                zbar = Cyc(m, -_CYC_PQ_B(m), -1)
                roots.append(zbar)
                coeffs = coeffs[2:]
            else:
                raise UnsupportedSpectrum("x^2 + (%s)x + (%s)" % (b, c))
    if len(coeffs) > 3:
        raise UnsupportedSpectrum("degree-%d factor %s" % (len(coeffs) - 1, coeffs))
    return roots


def _CYC_PQ_B(m):
    from .scalar import _CYC_PQ
    return _CYC_PQ[m][0]


def _is_square(fr):
    return _isqrt(fr.numerator) ** 2 == fr.numerator and \
        _isqrt(fr.denominator) ** 2 == fr.denominator


def _sqrt_frac(fr):
    return Fraction(_isqrt(fr.numerator), _isqrt(fr.denominator))


def _isqrt(n):
    import math
    return math.isqrt(n)


def eigen_data(A, assignment=None, constraints=None):
    """Spectrum with algebraic/geometric multiplicities and diagonalizability.

    The matrix (after instantiating parameters via assignment) must have
    constant entries, and the characteristic polynomial must split over the
    scalar tower; otherwise UnsupportedSpectrum is raised.
    """
    assert A.nrows == A.ncols
    B = A.evaluate(assignment, constraints) if assignment is not None else A
    coeffs = char_poly(B)
    roots = _roots_in_tower(coeffs)
    mult = {}
    for r in roots:
        key = next((k for k in mult if k == r), r)
        mult[key] = mult.get(key, 0) + 1
    eigs = []
    diag = True
    n = B.nrows
    for lam, alg in sorted(mult.items(), key=lambda kv: str(kv[0])):
        shifted = B - ExactMatrix.identity(B.N, B.rows_level).scale(rf(lam))
        geo = len(nullspace(shifted))
        eigs.append((lam, alg, geo))
        if geo != alg:
            diag = False
    assert sum(a for _, a, _ in eigs) == n
    return EigenData(eigs, diag, n)


def matrix_order(A, bound=1000):
    """Multiplicative order of a constant matrix, or None if > bound /
    infinite.  Finite order requires diagonalizability with root-of-unity
    eigenvalues, which the spectrum detects exactly."""
    try:
        ed = eigen_data(A)
    except UnsupportedSpectrum:
        return _order_by_powers(A, bound)
    if not ed.diagonalizable:
        return None
    orders = []
    for lam, _, _ in ed.eigenvalues:
        o = unity_order(lam)
        if o is None:
            return None
        orders.append(o)
    out = 1
    for o in orders:
        out = out * o // _gcd_int(out, o)
    return out if out <= bound else None


def _order_by_powers(A, bound):
    I = ExactMatrix.identity(A.N, A.rows_level)
    P = A
    for k in range(1, bound + 1):
        if P == I:
            return k
        P = P * A
    return None


# ---------------------------------------------------------------------------
# commutant of a set of matrices

def commutant_basis(mats, constraints=None):
    """Exact basis of {T : T M = M T for all M in mats}, as matrices of the
    same shape; solves the sparse linear commutation system."""
    assert mats
    d = mats[0].nrows
    N, lvl = mats[0].N, mats[0].rows_level
    rows = []
    for M in mats:
        assert M.nrows == d and M.ncols == d
        col_support = [[] for _ in range(d)]
        row_support = [[] for _ in range(d)]
        for i in range(d):
            mrow = M.rows[i]
            for j in range(d):
                if not mrow[j].is_zero():
                    col_support[j].append(i)
                    row_support[i].append(j)
        for i in range(d):
            for j in range(d):
                row = {}
                for k in col_support[j]:
                    t = i * d + k
                    row[t] = row.get(t, RF_ZERO) + M.rows[k][j]
                for k in row_support[i]:
                    t = k * d + j
                    row[t] = row.get(t, RF_ZERO) - M.rows[i][k]
                row = {t: v for t, v in row.items() if not v.is_zero()}
                if row:
                    rows.append(row)
    basis = _nullspace_rows(rows, d * d, constraints)
    out = []
    for vec in basis:
        T = ExactMatrix(N, lvl, lvl, [[vec[i * d + j] for j in range(d)]
                                      for i in range(d)])
        out.append(T)
    return out
