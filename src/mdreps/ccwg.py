"""Compositions (letter-count vectors), the revlex-derived partial order on
them, charge-conserving-with-glue (CCwg) matrices, the glue/CC projections,
closure of the CCwg class under product and tensor, glue nilpotency, and
the split lemma.

A matrix is CCwg when every entry at a position (w, v) with f(w) > f(v)
vanishes, where f counts letters; positions with f(w) < f(v) are glue,
positions with f(w) = f(v) are charge-conserving (CC).

The split lemma compares f on words of length n + m with f on their
prefixes of length n and their suffixes.  Those three counts are all it
reads, so it is decided once per pair of letter-count classes (prefix
counts, suffix counts), not once per pair of words.
"""

from itertools import combinations
from math import comb

from .matrix import ExactMatrix, _entries, _like, kron, word_to_str, words
from .scalar import InvariantError

CC, GLUE, FORBIDDEN = "cc", "glue", "forbidden"

# The most words of length n + m that ``split_lemma_check`` accepts.  A
# passing check reads only letter-count classes; the bound caps the word scan
# that names the first failing word pair.
_SPLIT_WORDS_BOUND = 10 ** 5


def f_over(word, N):
    """Letter-count vector of a word over {1..N}."""
    out = [0] * N
    for letter in word:
        out[letter - 1] += 1
    return tuple(out)


def compositions(N, n):
    """All of the N-part compositions of n, in ascending order, by stars
    and bars: the runs of stars between N - 1 bars among n + N - 1 slots."""
    if N == 0:  # only the empty tuple, and it sums to 0
        return [] if n else [()]
    if N == 1:  # no bars; ``combinations`` would first copy all n slots
        return [(n,)]
    out = []
    for bars in combinations(range(n + N - 1), N - 1):
        edges = (-1, *bars, n + N - 1)
        out.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    out.sort(key=lambda c: tuple(-x for x in c))
    return out


def less(lam, mu):
    """Tri-state comparison in the first-difference order: at the first index
    where they differ, the one with the LARGER entry is smaller.  Compositions
    of different lengths or sums are incomparable."""
    if len(lam) != len(mu) or sum(lam) != sum(mu):
        return "incomparable"
    for a, b in zip(lam, mu):
        if a != b:
            return "<" if a > b else ">"
    return "="


def order_by_first_instance(N, n):
    """The definitional order: compositions sorted by the first instance of a
    word with that letter count in the revlex word enumeration."""
    seen = {}
    for idx, w in enumerate(words(N, n)):
        c = f_over(w, N)
        if c not in seen:
            seen[c] = idx
    return [c for c, _ in sorted(seen.items(), key=lambda kv: kv[1])]


def orbit_rep(lam):
    """First revlex instance of a word with letter counts lam: the weakly
    decreasing word N..N (lam_N copies) ... 1..1 (lam_1 copies)."""
    out = []
    for letter in range(len(lam), 0, -1):
        out.extend([letter] * lam[letter - 1])
    return tuple(out)


# the kind of position (w, v) by less(f(w), f(v))
_KIND = {"=": CC, "<": GLUE, ">": FORBIDDEN}


class GlueMask:
    """Per-(N, n) classification of all square word positions.

    ``kinds[i][j]`` is the kind of position (i, j); ``cc[i]``, ``glue[i]``
    and ``forbidden[i]`` list the columns of each kind in row i."""

    __slots__ = ("N", "n", "kinds", "cc", "glue", "forbidden")

    def __init__(self, N, n):
        self.N = N
        self.n = n
        fs = [f_over(w, N) for w in words(N, n)]
        self.kinds = kinds = [[_KIND[less(fw, fv)] for fv in fs] for fw in fs]
        self.cc, self.glue, self.forbidden = (
            [[j for j, k in enumerate(row) if k == kind] for row in kinds]
            for kind in (CC, GLUE, FORBIDDEN))


_MASKS = {}


def glue_mask(N, n):
    key = (N, n)
    if key not in _MASKS:
        _MASKS[key] = GlueMask(N, n)
    return _MASKS[key]


def _vanish_at(M, cols_per_row):
    rows, zero = _entries(M)
    for row, cols in zip(rows, cols_per_row):
        for j in cols:
            if row[j] != zero:
                return False
    return True


def is_ccwg(M):
    """True iff all forbidden positions vanish; non-square matrices are CCwg
    only when zero."""
    if M.rows_level != M.cols_level:
        return M.is_zero()
    return _vanish_at(M, glue_mask(M.N, M.rows_level).forbidden)


def is_cc(M):
    """Strictly charge-conserving: nonzero entries only at CC positions."""
    if M.rows_level != M.cols_level:
        return M.is_zero()
    mask = glue_mask(M.N, M.rows_level)
    return _vanish_at(M, mask.forbidden) and _vanish_at(M, mask.glue)


def project_K(M):
    """Zero out the glue positions, keeping the charge-conserving part."""
    return _project(M, keep=CC)


def project_glue(M):
    """Zero out the CC positions, keeping only the glue."""
    return _project(M, keep=GLUE)


def _project(M, keep):
    if M.rows_level != M.cols_level:
        raise InvariantError("projection of a non-square matrix: levels "
                             "%d x %d" % (M.rows_level, M.cols_level))
    mask = glue_mask(M.N, M.rows_level)
    src, zero = _entries(M)
    rows = []
    for row, cols in zip(src, mask.cc if keep == CC else mask.glue):
        out = [zero] * len(row)
        for j in cols:
            out[j] = row[j]
        rows.append(out)
    return _like(M, M.rows_level, M.cols_level, rows)


def check_closure(A, B):
    """Verify closure of the CCwg class: A*B (when composable) and the tensor
    product are CCwg, and the CC projection is multiplicative on the product."""
    if not (is_ccwg(A) and is_ccwg(B)):
        raise ValueError("inputs must be CCwg")
    report = {}
    if A.N == B.N and A.cols_level == B.rows_level and A.rows_level == A.cols_level:
        P = A * B
        report["product_ccwg"] = is_ccwg(P)
        report["K_multiplicative"] = (project_K(P) == project_K(A) * project_K(B))
    if A.N == B.N:
        report["kron_ccwg"] = is_ccwg(kron(A, B))
    report["ok"] = all(report.values())
    return report


def random_ccwg(N, n, rng, density=0.7):
    """Seeded random CCwg matrix with integer entries in [-5, 5]."""
    kinds = glue_mask(N, n).kinds
    rows = [[0] * len(krow) for krow in kinds]
    for row, krow in zip(rows, kinds):
        for j, kind in enumerate(krow):
            if kind == FORBIDDEN:
                continue
            if rng.random() < density:
                row[j] = rng.randint(-5, 5)
    return ExactMatrix.from_ints(rows, N=N, rows_level=n, cols_level=n)


def all_ones_glue(N, n):
    rows = []
    for cols in glue_mask(N, n).glue:
        row = [0] * N ** n
        for j in cols:
            row[j] = 1
        rows.append(row)
    return ExactMatrix.from_ints(rows, N=N, rows_level=n, cols_level=n)


def chain_length(N, n):
    """Length of the longest chain in the composition order; the order is
    total here, so this is the number of compositions."""
    comps = compositions(N, n)
    for a in comps:
        for b in comps:
            if less(a, b) == "incomparable":
                raise InvariantError("compositions %s and %s of %d are "
                                     "incomparable" % (a, b, n))
    return len(comps)


def glue_nilpotency(N, n, rng=None, samples=5):
    """Bound the nilpotency index of the glue ideal by the chain length L and
    verify that products of L glue matrices vanish (all-ones witness plus
    seeded random samples); also report whether the witness at power L-1 is
    nonzero.  Raises InvariantError when a product does not vanish."""
    L = chain_length(N, n)
    G = all_ones_glue(N, n)
    prev, power = None, G  # G^(L-1) (None for the identity) and G^L
    for _ in range(L - 1):
        prev, power = power, power * G
    witness_prev_nonzero = prev is None or not prev.is_zero()
    if not power.is_zero():
        raise InvariantError("all-ones glue G^%d is nonzero at (N, n) = "
                             "(%d, %d)" % (L, N, n))
    if rng is not None:
        for k in range(samples):
            # product of L random glue-only matrices must vanish
            P = project_glue(random_ccwg(N, n, rng))
            for _ in range(L - 1):
                P = P * project_glue(random_ccwg(N, n, rng))
            if not P.is_zero():
                raise InvariantError("product of %d random glue matrices "
                                     "is nonzero (sample %d)" % (L, k))
    return {"chain_length": L, "index_bound": L,
            "witness_power_Lminus1_nonzero": witness_prev_nonzero}


def _multinomial(c):
    """The number of words with letter counts c."""
    out, total = 1, 0
    for k in c:
        total += k
        out *= comb(total, k)
    return out


def _split_class(w, n, N):
    """The letter counts of a word's prefix of length n, of its suffix and
    of the whole word."""
    return f_over(w[:n], N), f_over(w[n:], N), f_over(w, N)


def _split_clauses(v, w):
    """(ok, whole, prefixes, suffixes): the split lemma's clauses for words
    of the classes v and w, each as ``_split_class`` gives it."""
    whole = less(v[2], w[2])
    cp, cs = less(v[0], w[0]), less(v[1], w[1])
    if whole == "<":
        ok = cp == "<" or cs == "<"
    elif whole == "=":
        ok = (cp == "=" and cs == "=") or \
            (cp == "<" and cs == ">") or (cp == ">" and cs == "<")
    else:
        ok = cp == ">" or cs == ">"
    return ok, whole, cp, cs


def _first_split_failure(N, n, m, classes):
    """The InvariantError naming the first word pair (v, w) in word order
    whose classes fail a clause: v is the first word whose class fails
    against some class, w the first word that fails against v."""
    ws = words(N, n + m)
    fails = {}
    for v in ws:
        cv = _split_class(v, n, N)
        if cv not in fails:
            fails[cv] = not all(_split_clauses(cv, cw)[0] for cw in classes)
        if not fails[cv]:
            continue
        for w in ws:
            ok, whole, cp, cs = _split_clauses(cv, _split_class(w, n, N))
            if not ok:
                return InvariantError("split lemma fails on v=%s, w=%s: "
                                      "whole %s, prefixes %s, suffixes %s"
                                      % (word_to_str(v), word_to_str(w),
                                         whole, cp, cs))


def split_lemma_check(N, n, m):
    """Verify the prefix/suffix comparison clauses over all word pairs
    (v, w) of length n+m:

    (I)   f(v) < f(w)  ->  a strict < holds on the prefixes or the suffixes;
    (II)  f(v) = f(w)  ->  both sides equal, or strict inequalities in
          opposite directions;
    (III) f(v) > f(w)  ->  a strict > holds on the prefixes or the suffixes.

    Each clause reads only letter counts, so it is decided once per pair of
    classes (a, b), a an N-part composition of n (the prefix counts) and b
    one of m (the suffix counts): the class holds the
    multinomial(n; a) * multinomial(m; b) words with whole counts a + b,
    and ``pairs`` sums size * size over the class pairs, N^(2(n+m)) in all.
    A failing class pair is reported as the first failing word pair in word
    order.
    """
    if N ** (n + m) > _SPLIT_WORDS_BOUND:
        raise ValueError("bound exceeded: N^(n+m) = %d" % N ** (n + m))
    classes, sizes = [], []
    for a in compositions(N, n):
        for b in compositions(N, m):
            classes.append((a, b, tuple(x + y for x, y in zip(a, b))))
            sizes.append(_multinomial(a) * _multinomial(b))
    pairs = 0
    for v, size_v in zip(classes, sizes):
        for w, size_w in zip(classes, sizes):
            if not _split_clauses(v, w)[0]:
                raise _first_split_failure(N, n, m, classes)
            pairs += size_v * size_w
    return {"pairs": pairs, "ok": True}
