"""Dense exact matrices indexed by words over {1..N}, with the tensor-product
and word-enumeration conventions used throughout: words are enumerated in
revlex order (first letter varies fastest) and the first tensor factor reads
the leading letters of a word.

Under these conventions ``kron(A, B)`` at entry (w, v) is
``A[w_lead, v_lead] * B[w_trail, v_trail]``.

Elimination: every nullspace, commutant and inverse runs through ``Echelon``
(rational constants, fraction-free on integer rows) or ``RFEchelon``
(symbolic and cyclotomic entries, over RFs, on certified pivots only).  A
commutant of rational constants is found by spinning, with the basis of the
d^2-unknown commutation system that symbolic commutants solve.

Spectra: one Faddeev-LeVerrier recursion on integral rows over Z or
Z[zeta_m], each division exact and checked, gives ``char_poly`` (monic) and
the multiple that ``eigen_data`` and ``matrix_order`` split with ``upoly``.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .scalar import (_ONE, _UNIT, RF, RF_ONE, RF_ZERO, BranchAmbiguity, Cyc,
                     InvariantError, NonVanishing, Poly, _div, _rational,
                     as_fraction, rf, rf_from_json, rf_to_json, unity_order)
from .upoly import UnsupportedSpectrum, _clear, _monic, _roots_in_tower

# The most entries of a dense matrix that outside input may ask for: a matrix
# read by ``ExactMatrix.from_json``, or an N^n x N^n level-n image that a
# command-line level asks for.
MAX_ENTRIES = 2 ** 20

# The largest multiplicative order that ``matrix_order`` and
# ``structure.x_trichotomy`` report; a larger one reads as infinite (None).
_ORDER_BOUND = 1000


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


class ExactMatrix:
    """Dense exact matrix over the word basis of {1..N}^n, in one of two
    forms chosen from its entries.

    - Constant form: integer rows ``A`` over one common denominator
      ``D > 0``, the matrix being A / D, with gcd(D, entries of A) = 1 so
      that a value has one form and equality is structural.  ``from_rows``,
      ``from_ints``, ``from_json``, ``zeros``, ``identity`` and ``evaluate``
      give it whenever every entry is rational; products, sums, ``scale``
      by a rational, ``kron``, ``embed_at``, ``transpose`` and ``inverse``
      of constant operands keep it.
    - RF form: rows of canonical rational functions, for symbolic or
      cyclotomic entries, for matrices built from RF rows by the
      constructor, and for any operation with an RF-form operand.

    An entry a / D is boxed into an RF only at the boundary, as the value
    and coefficient type that RF arithmetic gives it: an int, or a Fraction
    when it is not integral, over the polynomial 1.
    ``entry``, ``M[i, j]``, ``trace``, ``to_json`` and operations with an
    RF-form operand box what they need and leave the matrix as it is.
    Reading ``rows`` boxes the whole matrix once and keeps it in the RF form
    from then on, so that writes such as ``M.rows[i][j] = rf(1)`` are seen
    by every later operation.
    """

    __slots__ = ("N", "rows_level", "cols_level", "_rows", "_ints", "_den")

    def __init__(self, N, rows_level, cols_level, rows):
        self.N = N
        self.rows_level = rows_level
        self.cols_level = cols_level
        self._rows = rows
        self._ints = None
        self._den = 1

    @property
    def rows(self):
        """The entries as RFs, row by row (see the class docstring)."""
        if self._ints is not None:
            self._rows = _rf_rows(self)
            self._ints = None
        return self._rows

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
        return _const(N, rows_level, cols_level, [[0] * nc for _ in range(nr)])

    @classmethod
    def identity(cls, N, level):
        d = N ** level
        return _const(N, level, level,
                      [[int(i == j) for j in range(d)] for i in range(d)])

    @classmethod
    def from_rows(cls, entries, N=2, rows_level=None, cols_level=None):
        """Matrix of the given entries (int, Fraction, Cyc, Poly, RF or a
        parameter name), in the constant form when all are rational; a Cyc
        is never rational, a + b*zeta with b = 0 being built as a."""
        rows_level, cols_level = _levels(entries, N, rows_level, cols_level)
        vals = [[_rational(x) for x in row] for row in entries]
        if all(None not in row for row in vals):
            return _fraction_matrix(N, rows_level, cols_level, vals)
        return cls(N, rows_level, cols_level,
                   [[rf(x) for x in row] for row in entries])

    @classmethod
    def from_ints(cls, rows, den=1, N=2, rows_level=None, cols_level=None):
        """The constant-form matrix rows / den of integer rows and a
        positive integer denominator; the rows are taken over, not
        copied."""
        rows_level, cols_level = _levels(rows, N, rows_level, cols_level)
        if den <= 0:
            raise ValueError("denominator must be positive, got %d" % den)
        return _const(N, rows_level, cols_level, rows, den)

    def entry(self, w, v):
        """Bra-ket access <w|M|v> by words."""
        return self[word_index(w, self.N), word_index(v, self.N)]

    def __getitem__(self, ij):
        i, j = ij
        if self._ints is not None:
            return _box(self._ints[i][j], self._den)
        return self._rows[i][j]

    def copy(self):
        rows, _ = _entries(self)
        return _like(self, self.rows_level, self.cols_level,
                     [row[:] for row in rows])

    def __eq__(self, other):
        if not (isinstance(other, ExactMatrix) and self.N == other.N
                and self.rows_level == other.rows_level
                and self.cols_level == other.cols_level):
            return False
        if self._ints is not None and other._ints is not None:
            return self._den == other._den and self._ints == other._ints
        return _rf_rows(self) == _rf_rows(other)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("cannot add or subtract a %dx%d and a %dx%d "
                             "matrix" % (self.nrows, self.ncols, other.nrows,
                                         other.ncols))
        if self._ints is not None and other._ints is not None:
            Z, D = _combine((1, sign), [(self._ints, self._den),
                                        (other._ints, other._den)])
            return _const(self.N, self.rows_level, self.cols_level, Z, D)
        op = add if sign > 0 else sub
        return ExactMatrix(self.N, self.rows_level, self.cols_level,
                           [list(map(op, r1, r2)) for r1, r2
                            in zip(_rf_rows(self), _rf_rows(other))])

    def __neg__(self):
        rows, _ = _entries(self)
        return _like(self, self.rows_level, self.cols_level,
                     [[-a for a in row] for row in rows])

    def scale(self, c):
        v = _rational(c) if self._ints is not None else None
        if v is not None:
            n = v.numerator
            return _const(self.N, self.rows_level, self.cols_level,
                          [[a * n for a in row] for row in self._ints],
                          self._den * v.denominator)
        c = rf(c)
        return ExactMatrix(self.N, self.rows_level, self.cols_level,
                           [[a * c for a in row] for row in _rf_rows(self)])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch: a %dx%d times a %dx%d "
                             "matrix" % (self.nrows, self.ncols, other.nrows,
                                         other.ncols))
        if self._ints is not None and other._ints is not None:
            return _const(self.N, self.rows_level, other.cols_level,
                          _imul(self._ints, other._ints),
                          self._den * other._den)
        nc = other.ncols
        # the nonzero entries of each row of other, as (column, entry)
        bnz = [[(j, b) for j, b in enumerate(row) if not b.is_zero()]
               for row in _rf_rows(other)]
        out = []
        for arow in _rf_rows(self):
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
        rows, _ = _entries(self)
        return _like(self, self.cols_level, self.rows_level,
                     [list(col) for col in zip(*rows)])

    def trace(self):
        _require_square([self], "trace")
        if self._ints is not None:
            return _box(sum(row[i] for i, row in enumerate(self._ints)),
                        self._den)
        t = RF_ZERO
        for i, row in enumerate(self._rows):
            t = t + row[i]
        return t

    def is_zero(self):
        if self._ints is not None:
            return not any(map(any, self._ints))
        return all(e.is_zero() for row in self._rows for e in row)

    def is_identity(self):
        return (self.nrows == self.ncols
                and self == ExactMatrix.identity(self.N, self.rows_level))

    def evaluate(self, assignment, constraints=None):
        """The matrix at a point, in the constant form when every value is
        rational."""
        if constraints is not None:
            constraints.check(assignment)
        if self._ints is not None:
            return self.copy()
        return ExactMatrix.from_rows(
            [[e.evaluate(assignment) for e in row] for row in self._rows],
            self.N, self.rows_level, self.cols_level)

    def power(self, k):
        """self**k for k >= 0 by repeated squaring, with no product by the
        identity."""
        _require_square([self], "power")
        if k <= 1:
            return self if k else ExactMatrix.identity(self.N, self.rows_level)
        half = self.power(k // 2)
        square = half * half
        return square * self if k & 1 else square

    def inverse(self, constraints=None):
        """Inverse: fraction-free through ``Echelon`` in the constant form,
        else Gauss-Jordan elimination through ``RFEchelon``, fed the columns
        of the matrix; an uncertified pivot raises BranchAmbiguity.  A
        singular matrix raises ZeroDivisionError."""
        _require_square([self], "inverse")
        if self._ints is not None:
            return _const_inverse(self)
        n = self.nrows
        ech = RFEchelon(constraints, bound=n)
        # echelon column k stands for the row at place k of Gauss-Jordan's
        # row order (each pivot row swaps into its step's place), so the
        # least certified column is the row that Gauss-Jordan picks
        place = list(range(n))  # place[j]: the column of row j
        for i, col in enumerate(zip(*self._rows)):
            r = {place[j]: e for j, e in enumerate(col) if not e.is_zero()}
            r[n + i] = RF_ONE
            if ech.insert(r) is not None:
                raise ZeroDivisionError("singular matrix")
            p = max(ech.rows)  # the new pivot: places below i hold the others
            if p != i:
                swap = {i: p, p: i}
                ech.rows = {swap.get(c, c): {swap.get(k, k): v
                                             for k, v in row.items()}
                            for c, row in ech.rows.items()}
                place = [swap.get(c, c) for c in place]
        # column j of the inverse is the marker part of the row at j's place
        return ExactMatrix(self.N, self.rows_level, self.cols_level,
                           [[ech.rows[c].get(n + i, RF_ZERO) for c in place]
                            for i in range(n)])

    def to_json(self):
        ws_r = words(self.N, self.rows_level)
        ws_c = words(self.N, self.cols_level)
        entries = []
        for i, row in enumerate(_rf_rows(self)):
            for j, e in enumerate(row):
                if not e.is_zero():
                    entries.append([word_to_str(ws_r[i]), word_to_str(ws_c[j]),
                                    rf_to_json(e)])
        return {"N": self.N, "rows_level": self.rows_level,
                "cols_level": self.cols_level, "entries": entries}

    @classmethod
    def from_json(cls, obj):
        """The matrix of a ``to_json`` object, checked: ValueError names the
        first bad field or entry."""
        if not isinstance(obj, dict):
            raise ValueError("a matrix must be a JSON object, not %r" % (obj,))
        N, rl, cl = (_json_int(obj, key, lo, hi) for key, lo, hi in
                     (("N", 1, 9), ("rows_level", 0, 20),
                      ("cols_level", 0, 20)))
        if N ** (rl + cl) > MAX_ENTRIES:
            raise ValueError("a %d x %d matrix has more than 2^20 entries"
                             % (N ** rl, N ** cl))
        entries = obj.get("entries")
        if not isinstance(entries, list):
            raise ValueError("matrix 'entries' must be a list")
        rows = [[RF_ZERO] * N ** cl for _ in range(N ** rl)]
        for k, item in enumerate(entries):
            try:
                i, j, e = _json_entry(item, N, rl, cl)
            except ValueError as exc:
                raise ValueError("matrix entry %d: %s" % (k, exc)) from exc
            rows[i][j] = e
        return cls.from_rows(rows, N, rl, cl)

    def __repr__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in _rf_rows(self))


# ---------------------------------------------------------------------------
# the constant form

def _const(N, rows_level, cols_level, A, D=1):
    """The constant-form matrix A / D (D > 0), cancelled so that gcd(D,
    entries of A) = 1.  A is taken over, not copied; no constant-form rows
    are ever written after construction, so matrices may share them."""
    A, D = _lowest(A, D)
    M = ExactMatrix.__new__(ExactMatrix)
    M.N, M.rows_level, M.cols_level = N, rows_level, cols_level
    M._rows, M._ints, M._den = None, A, D
    return M


def _lowest(A, D):
    """(A, D) cancelled by the gcd of D and the entries of A."""
    if D == 1:
        return A, D
    g = D
    for row in A:
        g = gcd(g, *row)
        if g == 1:
            return A, D
    return [[a // g for a in row] for row in A], D // g


def _levels(rows, N, rows_level, cols_level):
    """The levels of a matrix given by its rows, checked against its
    shape (ValueError)."""
    nr, nc = len(rows), len(rows[0])
    if any(len(row) != nc for row in rows):
        raise ValueError("rows of unequal length")
    if rows_level is None:
        rows_level = _level_of(nr, N)
    if cols_level is None:
        cols_level = _level_of(nc, N)
    if N ** rows_level != nr or N ** cols_level != nc:
        raise ValueError("a %dx%d matrix does not have levels %d x %d over "
                         "N = %d" % (nr, nc, rows_level, cols_level, N))
    return rows_level, cols_level


def _json_int(obj, key, least, most):
    v = obj.get(key)
    if type(v) is not int or not least <= v <= most:
        raise ValueError("matrix %r must be an integer in %d..%d, got %r"
                         % (key, least, most, v))
    return v


def _json_entry(item, N, rows_level, cols_level):
    """(i, j, value) of a [row word, column word, value] matrix entry."""
    if not (isinstance(item, list) and len(item) == 3):
        raise ValueError("%r is not [row word, column word, value]" % (item,))
    ij = []
    for w, lvl in zip(item, (rows_level, cols_level)):
        if not (isinstance(w, str) and len(w) == lvl
                and all("1" <= ch <= str(N) for ch in w)):
            raise ValueError("word %r is not %d letters in 1..%d"
                             % (w, lvl, N))
        ij.append(word_index(word_from_str(w), N))
    return ij[0], ij[1], rf_from_json(item[2])


def _require_square(mats, what):
    """The size d of a nonempty list of d x d matrices; ValueError naming
    ``what`` otherwise."""
    if not mats:
        raise ValueError("%s of an empty list of matrices" % what)
    d = mats[0].nrows
    for M in mats:
        if M.nrows != M.ncols:
            raise ValueError("%s needs a square matrix, got %dx%d"
                             % (what, M.nrows, M.ncols))
        if M.nrows != d:
            raise ValueError("%s needs square matrices of one size, got "
                             "%dx%d and %dx%d"
                             % (what, d, d, M.nrows, M.nrows))
    return d


def _fraction_matrix(N, rows_level, cols_level, rows):
    """The constant-form matrix of rows of rationals (ints or Fractions)."""
    return _const(N, rows_level, cols_level, *_integral_rows(rows))


def _integral_rows(rows):
    """(B, D) with rows = B / D for rows of rationals and Cycs: D is the lcm
    of the denominators of the rationals and of the Cycs' components, the
    least D that makes each entry of B an int or a Cyc with int components."""
    D = lcm(*(r.denominator for row in rows for x in row
              for r in ((x.a, x.b) if type(x) is Cyc else (x,))))
    return [[x * D if type(x) is Cyc else x.numerator * (D // x.denominator)
             for x in row] for row in rows], D


def _box(a, D):
    """The RF of the rational a / D over the polynomial 1, its coefficient
    an int when D divides a."""
    if not a:
        return RF_ZERO
    return RF(Poly({_ONE: _div(a, D)}, False), _UNIT, _canonical=True)


def _rf_rows(M):
    """The entries of M as RF rows, boxed afresh from the constant form
    (which M keeps) or M's own RF rows."""
    if M._ints is None:
        return M._rows
    D = M._den
    return [[_box(a, D) for a in row] for row in M._ints]


def _int_form(M):
    """(A, D) with M = A / D for a matrix of rational constants: its constant
    form, or its RF rows converted (ValueError when an entry is symbolic or
    cyclotomic)."""
    if M._ints is not None:
        return M._ints, M._den
    return _integral_rows([[as_fraction(e) for e in row] for row in M._rows])


def _entries(M):
    """(rows, zero): the integer rows and 0 of the constant form, or the RF
    rows and RF_ZERO, for readers that only compare entries of one matrix
    with each other or with zero."""
    if M._ints is not None:
        return M._ints, 0
    return M._rows, RF_ZERO


def _like(M, rows_level, cols_level, rows):
    """The matrix of the given levels over M's N, in M's form, from rows in
    that form: integer rows over M's denominator, or RF rows."""
    if M._ints is not None:
        return _const(M.N, rows_level, cols_level, rows, M._den)
    return ExactMatrix(M.N, rows_level, cols_level, rows)


def _imul(A, B):
    """Product of integer matrices given by their rows."""
    nc = len(B[0])
    Bnz = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    out = []
    for arow in A:
        orow = [0] * nc
        for a, brow in zip(arow, Bnz):
            if a:
                for j, b in brow:
                    orow[j] += a * b
        out.append(orow)
    return out


def _scaled_product(A, DA, B, DB):
    """(C, DC) with C / DC = (A / DA)(B / DB), cancelled by the common
    factor of DC and the entries of C."""
    return _lowest(_imul(A, B), DA * DB)


def _combine(weights, mats):
    """(Z, D) with Z / D the sum of w * A / DA over the rational weights and
    the (A, DA) pairs, D being the lcm of the denominators of the w / DA."""
    parts = []
    for w, (_, DA) in zip(weights, mats):
        den = w.denominator * DA
        g = gcd(w.numerator, den)
        parts.append((w.numerator // g, den // g))
    D = lcm(*(den for _, den in parts))
    cs = [a * (D // den) for a, den in parts]
    A0 = mats[0][0]
    Z = [[0] * len(A0[0]) for _ in A0]
    for c, (A, _) in zip(cs, mats):
        if c:
            for zrow, arow in zip(Z, A):
                for j, a in enumerate(arow):
                    if a:
                        zrow[j] += c * a
    return Z, D


def _const_inverse(M):
    """Inverse of a constant-form matrix A / D: D A^-1, row p of A^-1 being
    the marker part of the stored echelon row with pivot p over that
    pivot."""
    A, D = M._ints, M._den
    n = len(A)
    ech = Echelon(bound=n)
    for i, row in enumerate(A):
        r = {j: a for j, a in enumerate(row) if a}
        r[n + i] = 1
        if ech.insert(r) is not None:
            raise ZeroDivisionError("singular matrix")
    L = lcm(*(row[p] for p, row in ech.rows.items()))
    inv = []
    for p in range(n):
        row = ech.rows[p]
        f = L // row[p] * D
        inv.append([row.get(n + i, 0) * f for i in range(n)])
    return _const(M.N, M.rows_level, M.cols_level, inv, L)


def _dot(pairs):
    """Sum of a*b over (a, b) pairs of RFs.  Numerators over the same
    denominator product are summed unreduced and reduced once; the per-
    denominator results are then added.  A single term is one product, and
    a vanishing sum is RF_ZERO."""
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
    return RF_ZERO if total.is_zero() else total


def _level_of(size, N):
    lvl = 0
    s = 1
    while s < size:
        s *= N
        lvl += 1
    if s != size:
        raise ValueError("size %d is not a power of %d" % (size, N))
    return lvl


def _certified(x, constraints):
    if x.num.is_constant():
        return not x.num.is_zero()
    return constraints is not None and constraints.covers(x.num)


# ---------------------------------------------------------------------------
# tensor structure

def kron(A, B):
    """Tensor product with the first factor reading the leading letters."""
    if A.N != B.N:
        raise ValueError("kron of matrices over N = %d and N = %d"
                         % (A.N, B.N))
    N = A.N
    rows_level = A.rows_level + B.rows_level
    cols_level = A.cols_level + B.cols_level
    if A._ints is not None and B._ints is not None:
        # output row (ib, ia) is B's row ib with each entry b replaced by b
        # times A's row ia
        zero = [0] * A.ncols
        rows = [[x for b in brow for x in ([b * a for a in arow] if b
                                           else zero)]
                for brow in B._ints for arow in A._ints]
        return _const(N, rows_level, cols_level, rows, A._den * B._den)
    sa_r, sa_c = A.nrows, A.ncols
    rows = [[RF_ZERO] * (sa_c * B.ncols) for _ in range(sa_r * B.nrows)]
    # the nonzero entries of each row of A, as (column, entry)
    anz = [[(ja, a) for ja, a in enumerate(row) if not a.is_zero()]
           for row in _rf_rows(A)]
    for ib, brow in enumerate(_rf_rows(B)):
        for jb, b in enumerate(brow):
            if b.is_zero():
                continue
            roff, coff = ib * sa_r, jb * sa_c
            for ia, arow in enumerate(anz):
                orow = rows[roff + ia]
                for ja, a in arow:
                    orow[coff + ja] = a * b
    return ExactMatrix(N, rows_level, cols_level, rows)


def embed_at(M, i, n):
    """I^(i-1) (x) M (x) I^(n-i-1): the level-n image of a level-2 generator
    acting on letters i, i+1 (1-based), in M's form."""
    if not (1 <= i <= n - 1):
        raise ValueError("position %d out of range for level %d" % (i, n))
    if M.rows_level != 2 or M.cols_level != 2:
        raise ValueError("embed_at needs a level-2 matrix, got levels %d x %d"
                         % (M.rows_level, M.cols_level))
    N = M.N
    src, zero = _entries(M)
    d, N2, lo = N ** n, N * N, N ** (i - 1)
    out = [[zero] * d for _ in range(d)]
    # row r reads M's row a, the letters i, i+1 of r's word, and puts each
    # column b of it at base + b lo
    for r, orow in enumerate(out):
        a = r // lo % N2
        base = r - a * lo
        for b, e in enumerate(src[a]):
            orow[base + b * lo] = e
    return _like(M, n, n, out)


def _site_of(M):
    """(X, i) with M = embed_at(X, i, n) for the least such site i, when
    the square M is a single-site image at level n >= 3; None for any
    other M, and at level 2.  X is read from the rows and columns whose
    spectator letters are all 1; every row of M is then compared with the
    row that X gives it, stopping at the first mismatch."""
    N, n = M.N, M.rows_level
    if n < 3:
        return None
    rows, zero = _entries(M)
    d, N2 = N ** n, N * N
    for i in range(1, n):
        lo = N ** (i - 1)
        # row and column I * lo of M carry the site letters of the level-2
        # index I and spectator letters 1
        X = [[rows[I * lo][J * lo] for J in range(N2)] for I in range(N2)]
        for r in range(d):
            I = r // lo % N2
            u = r - I * lo
            want = [zero] * d
            for J, x in enumerate(X[I]):
                want[u + J * lo] = x
            if rows[r] != want:
                break
        else:
            return _like(M, 2, 2, X), i
    return None


# ---------------------------------------------------------------------------
# representation pairs

class RepPair:
    """A pair (R, S) of N^2 x N^2 exact matrices with parameter metadata."""

    __slots__ = ("R", "S", "params", "constraints", "provenance")

    def __init__(self, R, S, params=(), constraints=None, provenance=""):
        if not (R.N == S.N and R.rows_level == S.rows_level == 2
                and R.cols_level == S.cols_level == 2):
            raise ValueError("R and S must be N^2 x N^2 matrices over one N, "
                             "got levels %d x %d (N = %d) and %d x %d (N = %d)"
                             % (R.rows_level, R.cols_level, R.N,
                                S.rows_level, S.cols_level, S.N))
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
# fraction-free integer elimination

class Echelon:
    """Incremental, fully reduced row echelon form over the integers, kept
    fraction-free (Bareiss 1968): every elimination on rational constants
    runs here.

    Rows are sparse ``{col: int}`` dicts.  Each stored row is primitive
    (content 1) with a positive pivot entry, its pivot being its least
    nonzero column below ``bound`` (any column when ``bound`` is None).
    Columns at or above ``bound`` are marker columns: they never hold a
    pivot and ride along with the eliminations, carrying Krylov
    coefficients, solve coordinates or a row's scale.  Every pivot column is
    zero in every other stored row, so the stored rows scaled to pivot 1 are
    the reduced row echelon form of the rows inserted.  That form is unique,
    so every basis read from it is the one Gauss-Jordan elimination over Q
    with the same least-column pivots gives.
    """

    __slots__ = ("bound", "rows")

    def __init__(self, bound=None):
        self.bound = bound
        self.rows = {}  # pivot column -> row

    def reduce(self, row):
        """The primitive positive multiple of ``row`` minus its components
        along the stored rows, as a new row: zero in every pivot column.
        The eliminations scale the row by positive integers only, so its
        content is divided out once, at the end."""
        row = {c: v for c, v in row.items() if v}
        rows = self.rows
        for p in [c for c in row if c in rows]:
            _eliminate(row, rows[p], p)
        _divide_content(row)
        return row

    def insert(self, row):
        """Add ``row``: None when it is independent of the stored rows, else
        its residual, which is then zero below ``bound``."""
        row = self.reduce(row)
        bound = self.bound
        piv = min((c for c in row if bound is None or c < bound),
                  default=None)
        if piv is None:
            return row
        if row[piv] < 0:
            for c in row:
                row[c] = -row[c]
        for prow in self.rows.values():
            if piv in prow:
                _eliminate(prow, row, piv)
                _divide_content(prow)
        self.rows[piv] = row
        return None

    def nullspace(self, ncols):
        """Basis of the right kernel of the stored rows over columns
        0..ncols-1, as Fraction lists: one vector per free column, in
        column order, with 1 at its free column and 0 at the others."""
        return _kernel(self.rows, ncols, Fraction(0), Fraction(1),
                       lambda v, pv: Fraction(-v, pv))

    def int_nullspace(self, ncols):
        """The ``nullspace`` basis with each vector scaled to its least
        integer multiple, read from the stored rows: the vector of free
        column f is scaled by the lcm of pv / gcd(pv, v) over the rows with
        pivot entry pv and entry v at f."""
        rows = self.rows
        if rows and max(rows) >= ncols:
            raise InvariantError("pivot column beyond the %d columns" % ncols)
        cols = {f: [] for f in range(ncols) if f not in rows}
        for p, row in rows.items():
            pv = row[p]
            for c, v in row.items():
                if c != p and c < ncols:
                    cols[c].append((p, pv, v))
        out = []
        for f, entries in cols.items():
            L = lcm(*(pv // gcd(pv, v) for _, pv, v in entries))
            vec = [0] * ncols
            vec[f] = L
            for p, pv, v in entries:
                vec[p] = -v * L // pv
            out.append(vec)
        return out


def _kernel(rows, ncols, zero, one, coordinate):
    """The basis ``nullspace`` reads from fully reduced rows keyed by pivot
    column; coordinate(v, pivot entry) is a vector's entry at the pivot."""
    if rows and max(rows) >= ncols:
        raise InvariantError("pivot column beyond the %d columns" % ncols)
    basis = {f: [zero] * ncols for f in range(ncols) if f not in rows}
    for f, vec in basis.items():
        vec[f] = one
    for p, row in rows.items():
        pv = row[p]
        for c, v in row.items():
            if c != p and c < ncols:
                basis[c][p] = coordinate(v, pv)
    return list(basis.values())


def _divide_content(row):
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _eliminate(row, prow, p):
    """row <- a*row - b*prow with a = prow[p] > 0 and b = row[p] made
    coprime, which clears column p of row and keeps its signs.  The content
    of the result is left to the caller."""
    b = row.pop(p)
    a = prow[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in prow.items():
        if c != p:
            nv = row.get(c, 0) - b * v
            if nv:
                row[c] = nv
            else:
                del row[c]


# ---------------------------------------------------------------------------
# elimination over rational functions

class RFEchelon:
    """Incremental, fully reduced row echelon form over rational functions,
    with ``Echelon``'s interface: every elimination on symbolic or
    cyclotomic entries runs here.  Rows are sparse ``{col: RF}`` dicts, and
    each stored row has pivot entry 1: a new row is divided through by its
    pivot entry, which is set to ``RF_ONE`` instead of being divided by
    itself.  The pivot is the least column below
    ``bound`` whose entry is certified nonzero: a nonzero constant, or a
    numerator covered by ``constraints``.  If no entry there is certified,
    BranchAmbiguity names the numerator of the least one.

    When every stored row pivots on its least column, the rows are the
    reduced row echelon form of the rows inserted, whatever their order.
    A new row is back-eliminated from the stored rows that hold its pivot
    column only.
    """

    __slots__ = ("constraints", "bound", "rows")

    def __init__(self, constraints=None, bound=None):
        self.constraints = constraints
        self.bound = bound
        self.rows = {}  # pivot column -> row

    def insert(self, row):
        """Add ``row``: None when it is independent of the stored rows, else
        its residual, which is then zero below ``bound``."""
        row = dict(row)
        rows = self.rows
        for p in sorted(set(row) & set(rows)):
            _rf_eliminate(row, rows[p], p)
        row = {c: v for c, v in row.items() if not v.is_zero()}
        bound = self.bound
        cols = sorted(c for c in row if bound is None or c < bound)
        if not cols:
            return row
        piv = next((c for c in cols if _certified(row[c], self.constraints)),
                   None)
        if piv is None:
            raise BranchAmbiguity(row[cols[0]].num)
        pv = row[piv]
        row = {c: RF_ONE if c == piv else v / pv for c, v in row.items()}
        for prow in rows.values():
            if piv in prow:
                _rf_eliminate(prow, row, piv)
        rows[piv] = row
        return None

    def nullspace(self, ncols):
        """As ``Echelon.nullspace``, with RF entries."""
        return _kernel(self.rows, ncols, RF_ZERO, RF_ONE, lambda v, pv: -v)


def _rf_eliminate(row, prow, p):
    """row <- row - row[p] * prow for a stored row with prow[p] = 1, which
    clears column p of row; entries that cancel are dropped."""
    f = row.pop(p, None)
    if f is None or f.is_zero():
        return
    for c, v in prow.items():
        if c != p:
            nv = row.get(c, RF_ZERO) - f * v
            if nv.is_zero():
                row.pop(c, None)
            else:
                row[c] = nv


# ---------------------------------------------------------------------------
# linear algebra: nullspace, spectra

def nullspace(A, constraints=None):
    """Exact basis of the right kernel of A, as lists of RF entries.

    Raises BranchAmbiguity when a pivot decision depends on a polynomial not
    covered by the constraints.  The constant form is eliminated on its
    integer rows.
    """
    if A._ints is not None:
        ech = Echelon()
        for row in A._ints:
            ech.insert({j: a for j, a in enumerate(row) if a})
        return _rf_vectors(ech.nullspace(A.ncols))
    return sparse_nullspace([{j: e for j, e in enumerate(row)
                              if not e.is_zero()} for row in A._rows],
                            A.ncols, constraints)


def sparse_nullspace(rows, ncols, constraints=None):
    """Nullspace of a sparse system given as row dicts {col: RF}: through
    ``Echelon`` when every entry is rational, else ``RFEchelon``."""
    try:
        rows = [dict(zip(r, _clear([as_fraction(v) for v in r.values()])[0]))
                for r in rows]
        ech = Echelon()
    except ValueError:  # a symbolic or cyclotomic entry
        ech = RFEchelon(constraints)
    for r in rows:
        ech.insert(r)
    vecs = ech.nullspace(ncols)
    return vecs if isinstance(ech, RFEchelon) else _rf_vectors(vecs)


def _rf_vectors(vecs):
    return [[rf(x) if x else RF_ZERO for x in vec] for vec in vecs]


def char_poly(A):
    """Characteristic polynomial coefficients [c_0 .. c_n] of A (monic,
    det(xI - A), Fractions and Cycs); entries must be constant (ValueError
    otherwise)."""
    return _monic(_char_poly(A))


def _char_poly(A):
    """D^n det(xI - A), ascending, by the Faddeev-LeVerrier recursion on the
    integral rows B = D A over Z or Z[zeta_m]: B's coefficients e_k are
    algebraic integers, so each -tr/k divides exactly (checked,
    componentwise for a Cyc), and x^(n-k) has the coefficient e_k D^(n-k)."""
    _require_square([A], "char_poly")
    if A._ints is not None:
        B, D = A._ints, A._den
    elif all(e.is_constant() for row in A._rows for e in row):
        B, D = _integral_rows([[e.const_value() for e in row]
                               for row in A._rows])
    else:
        raise ValueError("char_poly needs constant entries")
    n = len(B)
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        M = _imul(B, M)
        t = -sum(M[i][i] for i in range(n))
        parts = (t.a, t.b) if type(t) is Cyc else (t,)
        if any(x % k for x in parts):
            raise InvariantError("Faddeev-LeVerrier trace %s of step %d "
                                 "is not divisible by %d" % (-t, k, k))
        c = Cyc(t.m, t.a // k, t.b // k) if type(t) is Cyc else t // k
        coeffs.append(c)
        for i in range(n):
            M[i][i] += c
    return [c * D ** j for j, c in enumerate(reversed(coeffs))]


class EigenData:
    __slots__ = ("eigenvalues", "diagonalizable", "dim")

    def __init__(self, eigenvalues, diagonalizable, dim):
        self.eigenvalues = eigenvalues  # list of (value, alg mult, geo mult)
        self.diagonalizable = diagonalizable
        self.dim = dim

    def order(self, bound):
        """Multiplicative order of the matrix, or None if > bound / infinite.
        Finite order requires diagonalizability with root-of-unity
        eigenvalues, which the spectrum detects exactly."""
        if not self.diagonalizable:
            return None
        orders = [unity_order(lam) for lam, _, _ in self.eigenvalues]
        if None in orders:
            return None
        out = lcm(*orders)
        return out if out <= bound else None

    def __repr__(self):
        return "EigenData(%s, diagonalizable=%s)" % (self.eigenvalues,
                                                     self.diagonalizable)


def eigen_data(A):
    """Spectrum with algebraic/geometric multiplicities and diagonalizability.

    The matrix must have constant entries, and the characteristic
    polynomial must split over the scalar tower; otherwise
    UnsupportedSpectrum is raised.
    """
    _require_square([A], "eigen_data")
    mult = Counter(_roots_in_tower(_char_poly(A)))
    eigs = []
    diag = True
    n = A.nrows
    for lam, alg in sorted(mult.items(), key=lambda kv: str(kv[0])):
        shifted = A - ExactMatrix.identity(A.N, A.rows_level).scale(rf(lam))
        geo = len(nullspace(shifted))
        eigs.append((lam, alg, geo))
        if geo != alg:
            diag = False
    if sum(a for _, a, _ in eigs) != n:
        raise InvariantError("algebraic multiplicities %s do not add up to "
                             "%d" % ([a for _, a, _ in eigs], n))
    return EigenData(eigs, diag, n)


def matrix_order(A):
    """Multiplicative order of a constant matrix, or None if >
    ``_ORDER_BOUND`` / infinite: from its spectrum, or by powers when the
    spectrum is outside the scalar tower."""
    try:
        ed = eigen_data(A)
    except UnsupportedSpectrum:
        return _order_by_powers(A, _ORDER_BOUND)
    return ed.order(_ORDER_BOUND)


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
    same shape: the basis the nullspace of the d^2-unknown commutation
    system gives (one matrix per free column, in column order).

    Symbolic and cyclotomic matrices solve that system through
    ``RFEchelon``.  When every input is a single-site image at level
    n >= 3, the system is built from copies of level-2 systems
    (``_local_echelon``) and kept when it is the reduced row echelon form,
    which is unique.  Otherwise, and for any other input, ``_d2_echelon``
    solves the raw rows: shortest first, and in generator order when that
    pass is not the reduced row echelon form.  Rational constants
    M = A / D commute with T iff A does, and their commutant is found by
    spinning (``_spin_commutant``) on the integer rows A, in the constant
    form."""
    d = _require_square(mats, "commutant")
    N, lvl = mats[0].N, mats[0].rows_level
    try:
        gens = [_int_form(M)[0] for M in mats]
    except ValueError:  # a symbolic or cyclotomic entry
        ech = _local_echelon(mats, constraints)
        if ech is None:
            ech = _d2_echelon(mats, constraints)
        return [ExactMatrix(N, lvl, lvl, [vec[i * d:(i + 1) * d]
                                          for i in range(d)])
                for vec in ech.nullspace(d * d)]
    return [_const(N, lvl, lvl, A, D) for A, D in _spin_commutant(gens)]


def _d2_echelon(mats, constraints):
    """The ``RFEchelon`` of the commutation rows of ``mats``, inserted
    shortest first (a stable sort, so ties keep generator order; Markowitz
    1957).  That pass is kept when it raised no BranchAmbiguity and every
    stored row pivots on its least column: it is then the reduced row
    echelon form, which is unique, and so it is the generator-order pass's
    form whenever that one is too.  Otherwise the rows go in again in
    generator order, which gives that pass's form or its BranchAmbiguity.
    It solves the level-2 systems of ``_local_echelon``, and every
    commutant that path does not take."""
    rows = [r for M in mats for r in _commutation_rows(_rf_rows(M), RF_ZERO)]
    for order in (sorted(rows, key=len), rows):
        ech = RFEchelon(constraints)
        try:
            for r in order:
                ech.insert(r)
        except BranchAmbiguity:
            if order is rows:
                raise
            continue
        if order is rows or all(p == min(r) for p, r in ech.rows.items()):
            return ech


def _local_echelon(mats, constraints):
    """The reduced row echelon form of the commutation system of
    single-site images (``_site_of``), from copies of level-2 systems;
    None when an input is not such an image, or when the copies raise
    BranchAmbiguity or give a stored row that does not pivot on its least
    column.

    Row (r, c) of T G - G T for G = embed_at(X, i, n) involves only the
    unknowns T[x][y] whose spectator letters (those off the site i, i+1)
    are those of r and of c, and its coefficients are those of the level-2
    row of X at the site letters.  So a site's rows are copies of the
    level-2 system of its X's, one per pair of spectator parts (u, v) of
    the row and column indices, under the relabelling of the level-2
    unknown (I, J) to (u + I*lo, v + J*lo), lo = N^(i-1), which keeps the
    order of the unknowns.  Each site's level-2 system is solved once by
    ``_d2_echelon`` (once for all sites with the same X's), and the copies
    of its stored rows go into one level-n ``RFEchelon``.  Its stored rows
    span the raw rows' space over Q(params), so when every one pivots on
    its least column they are the reduced row echelon form of the raw
    system, which is unique: the form ``_d2_echelon`` gives whenever its
    shortest-first pass is kept."""
    sites = {}  # site -> its X's, in input order
    for M in mats:
        site = _site_of(M)
        if site is None:
            return None
        sites.setdefault(site[1], []).append(site[0])
    N, n = mats[0].N, mats[0].rows_level
    d, N2 = N ** n, N * N
    ech = RFEchelon(constraints)
    solved = []  # (X's, their level-2 RFEchelon)
    try:
        for i, xs in sites.items():
            small = next((e for ys, e in solved if ys == xs), None)
            if small is None:
                small = _d2_echelon(xs, constraints)
                solved.append((xs, small))
            lo = N ** (i - 1)
            spectators = [u for u in range(d) if u // lo % N2 == 0]
            for u in spectators:
                for v in spectators:
                    for row in small.rows.values():
                        ech.insert({(u + c // N2 * lo) * d + v + c % N2 * lo: x
                                    for c, x in row.items()})
    except BranchAmbiguity:
        return None
    if all(p == min(r) for p, r in ech.rows.items()):
        return ech
    return None


def _commutation_rows(M, zero):
    """The nonzero rows of T M - M T = 0 in the entries of T (row-major),
    for a square matrix M given by its rows; ``zero`` is its zero entry.
    Row (i, j) has M[k][j] at i*d + k and -M[i][k] at k*d + j; the two
    sums meet only at k = j, resp. k = i, where it has M[j][j] - M[i][i],
    one difference per pair of distinct diagonal values."""
    d = len(M)
    col_support = [[] for _ in range(d)]
    row_support = [[] for _ in range(d)]  # (k, -M[i][k])
    for i, mrow in enumerate(M):
        for j, x in enumerate(mrow):
            if x != zero and i != j:
                col_support[j].append(i)
                row_support[i].append((j, -x))
    index = {}  # distinct diagonal value -> its position
    which = [index.setdefault(M[i][i], len(index)) for i in range(d)]
    diffs = [[a - b for b in index] for a in index]
    out = []
    for i in range(d):
        for j in range(d):
            row = {i * d + k: M[k][j] for k in col_support[j]}
            for k, x in row_support[i]:
                row[k * d + j] = x
            x = diffs[which[j]][which[i]]
            if x != zero:
                row[i * d + j] = x
            if row:
                out.append(row)
    return out


def _spin_commutant(gens):
    """The commutant of integer matrices (lists of rows) by the standard-
    basis method (Schneider 1990; Holt, Eick & O'Brien 2005, 7.5), as
    (integer rows, denominator) pairs: exactly the basis of the d^2-unknown
    commutation system.

    The unit vectors e_0, e_1, ... that are not yet in the span are spun in
    turn under the generators.  Each image g b_j that is new is the next
    standard basis vector, and any other is a relation
    den g b_j + sum_l a_l b_l = 0.  An endomorphism phi is fixed by the
    images of the seeds, phi(g b_j) = g phi(b_j) along the spin, and it
    commutes with the generators iff it satisfies every relation.  The
    image of each seed brings d unknowns, and each phi(b_j) is kept as one
    sparse vector per unknown.  As soon as the relations fix half of the
    unknowns, the unknowns are replaced by a basis of their solutions: the
    image of a seed then lies in the common kernel of the annihilating
    elements found so far, and the unknowns soon number the dimension of
    the commutant.

    Read-out: put the solutions, flattened row-major, in the reduced row
    echelon form over the reversed columns c -> d^2-1-c.  Its pivots are the
    free columns of the d^2 system, and its rows, scaled to pivot 1, are the
    vectors that system's ``nullspace`` returns, in ascending free column
    order when taken by descending reversed pivot."""
    d = len(gens[0])
    spin = _Spin(d)
    cols = [_columns(A) for A in gens]
    for s in range(d):
        if len(spin.span.rows) == d:
            break
        if not any(c < d for c in spin.span.reduce({s: 1})):
            continue
        j = len(spin.basis)
        spin.add({s: 1}, {spin.unknowns + r: {r: 1} for r in range(d)})
        spin.unknowns += d
        while j < len(spin.basis):
            for col in cols:
                # read b_j's image afresh: a relation may replace unknowns
                spin.add(_sparse_apply(col, spin.basis[j]),
                         {u: _sparse_apply(col, x)
                          for u, x in spin.images[j].items()})
            j += 1
    spin.settle()
    return spin.read_out()


class _Spin:
    """The state of ``_spin_commutant``: the standard basis b_j in an
    ``Echelon`` (bound d, b_j carrying its scale at marker column d + j),
    the images phi(b_j) as {unknown: sparse vector}, and the relations so
    far on the unknowns in a second ``Echelon``."""

    __slots__ = ("d", "span", "basis", "images", "relations", "unknowns")

    def __init__(self, d):
        self.d = d
        self.span = Echelon(bound=d)
        self.basis = []
        self.images = []
        self.relations = Echelon()
        self.unknowns = 0

    def add(self, y, image):
        """Make y, with phi(y) = image, the next basis vector if it is
        independent of the span; else add the relation it satisfies to
        the relations on the unknowns."""
        d, k = self.d, len(self.basis)
        row = dict(y)
        row[d + k] = 1
        res = self.span.insert(row)
        if res is None:
            self.basis.append(y)
            self.images.append(image)
            return
        # res[d + k] y + sum_l res[d + l] b_l = 0: phi takes it to 0, which
        # is one row on the unknowns per coordinate
        rows = {}
        for c, a in res.items():
            for u, x in (image if c == d + k else self.images[c - d]).items():
                for i, v in x.items():
                    row = rows.setdefault(i, {})
                    row[u] = row.get(u, 0) + a * v
        for row in rows.values():
            if any(row.values()):
                self.relations.insert(row)
        if 2 * len(self.relations.rows) >= self.unknowns:
            self.settle()

    def settle(self):
        """Replace the unknowns by a basis of the solutions of the
        relations so far."""
        sols = self.relations.int_nullspace(self.unknowns)
        self.images = [{t: _sparse_sum([(z[u], x) for u, x in image.items()
                                        if z[u]])
                        for t, z in enumerate(sols)}
                       for image in self.images]
        self.unknowns = len(sols)
        self.relations = Echelon()

    def read_out(self):
        """The commutant basis, as (integer rows, denominator) pairs, once
        the basis spans the space and the unknowns are settled.  Span row p
        is then pv e_p = sum_j m_j b_j, so that a solution T has
        T e_p = sum_j m_j T b_j / pv."""
        d, dd = self.d, self.d * self.d
        rows = self.span.rows
        L = lcm(*(r[p] for p, r in rows.items()))
        canon = Echelon()
        for t in range(self.unknowns):
            flat = {}
            for p, r in rows.items():
                f = L // r[p]
                col = _sparse_sum([(m * f, self.images[c - d].get(t, {}))
                                   for c, m in r.items() if c >= d])
                for i, x in col.items():
                    flat[dd - 1 - i * d - p] = x
            if canon.insert(flat) is not None:
                raise InvariantError("commutant solutions are dependent")
        out = []
        for c in sorted(canon.rows, reverse=True):
            A = [[0] * d for _ in range(d)]
            for k, x in canon.rows[c].items():
                i, j = divmod(dd - 1 - k, d)
                A[i][j] = x
            out.append((A, canon.rows[c][c]))
        return out


def _columns(A):
    """The nonzero entries of each column of the integer rows A, as
    (row, entry) lists."""
    cols = [[] for _ in A[0]]
    for i, row in enumerate(A):
        for j, a in enumerate(row):
            if a:
                cols[j].append((i, a))
    return cols


def _sparse_apply(cols, v):
    """A v for A given by ``_columns`` and a sparse vector v ({index: int}),
    as a sparse vector."""
    out = {}
    for k, x in v.items():
        for i, a in cols[k]:
            out[i] = out.get(i, 0) + a * x
    return {i: x for i, x in out.items() if x}


def _sparse_sum(terms):
    """sum c v over (int c, sparse vector v) terms, as a sparse vector."""
    out = {}
    for c, v in terms:
        for i, x in v.items():
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in out.items() if x}
