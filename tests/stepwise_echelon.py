"""The integer elimination kernel from before ``matrix.Echelon`` divided
out a row's content once per reduction, kept as the oracle of the
differential tests: here ``_eliminate`` divides the row by its content
after every single elimination, and ``reduce`` also divides it once before
the first.  The class and the two helpers are the old bodies.
"""

from fractions import Fraction
from math import gcd, lcm

from mdreps.matrix import _kernel
from mdreps.scalar import InvariantError


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
        """A positive multiple of ``row`` minus its components along the
        stored rows, as a new primitive row: zero in every pivot column."""
        row = {c: v for c, v in row.items() if v}
        _divide_content(row)
        rows = self.rows
        for p in [c for c in row if c in rows]:
            _eliminate(row, rows[p], p)
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


def _divide_content(row):
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _eliminate(row, prow, p):
    """row <- (a*row - b*prow) / content with a = prow[p] > 0 and b = row[p]
    made coprime, which clears column p of row and keeps its signs."""
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
    _divide_content(row)
