"""The nested-dict word images from before ``presentations._Cleared`` packed
the column into its keys, kept as the oracle of the differential tests: a
matrix is a list of sparse rows {column: polynomial}, a polynomial a dict
{packed exponent: coefficient}.  ``_matmul`` and ``_differences`` are the
old bodies; ``letter`` is the old ``_Cleared._letter`` on nested rows, and
``nested`` splits a flat row of ``_Cleared`` back into that form.
"""

from mdreps.presentations import _addmul, _nonzero, _pmul


def nested(rows, bits):
    """Flat rows {(column << bits) + e: v} as nested rows {column: {e: v}}."""
    mask = (1 << bits) - 1
    out = []
    for row in rows:
        nrow = {}
        for key, v in row.items():
            nrow.setdefault(key >> bits, {})[key & mask] = v
        out.append(nrow)
    return out


def letter(X, N, i, k):
    """I^(i-1) (x) X (x) I^(k-i-1) for the nested rows X of an N^2 x N^2
    matrix."""
    lo, NN = N ** (i - 1), N * N
    out = []
    for r in range(N ** k):
        a = r // lo % NN
        base = r - a * lo
        out.append({base + b * lo: f for b, f in X[a].items()})
    return out


def image(X, N, word, k):
    """The level-k image of a word, multiplied out letter by letter from the
    identity; X maps "r" and "s" to nested rows."""
    M = [{r: {0: 1}} for r in range(N ** k)]
    for sym, i in word:
        M = _matmul(M, letter(X[sym], N, i, k))
    return M


def scaled(M, f):
    """M times the polynomial f."""
    return [{j: _pmul(g, f) for j, g in row.items()} for row in M]


def _matmul(A, B):
    """Product of sparse polynomial matrices."""
    out = []
    for arow in A:
        acc = {}
        for l, f in arow.items():
            for j, g in B[l].items():
                _addmul(acc.setdefault(j, {}), f, g)
        out.append({j: h for j, h in zip(acc, map(_nonzero, acc.values()))
                    if h})
    return out


def _differences(A, B):
    """(i, j, A[i][j] - B[i][j]) at each entry where A and B differ, rows
    first."""
    for i, (ra, rb) in enumerate(zip(A, B)):
        if ra == rb:
            continue
        for j in sorted(ra.keys() | rb.keys()):
            f = dict(ra.get(j, ()))
            for e, v in rb.get(j, {}).items():
                f[e] = f.get(e, 0) - v
            f = _nonzero(f)
            if f:
                yield i, j, f
