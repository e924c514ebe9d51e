"""Compositions (letter-count vectors), the revlex-derived partial order on
them, charge-conserving-with-glue (CCwg) matrices, the glue/CC projections,
closure of the CCwg class under product and tensor, and glue nilpotency.

A matrix is CCwg when every entry at a position (w, v) with f(w) > f(v)
vanishes, where f counts letters; positions with f(w) < f(v) are glue,
positions with f(w) = f(v) are charge-conserving (CC).
"""

from .matrix import ExactMatrix, words
from .scalar import RF_ZERO, rf

CC, GLUE, FORBIDDEN = "cc", "glue", "forbidden"


def f(word):
    """Letter-count vector of a word; length inferred as max letter unless the
    alphabet size is passed via f_over."""
    N = max(word)
    return f_over(word, N)


def f_over(word, N):
    out = [0] * N
    for letter in word:
        out[letter - 1] += 1
    return tuple(out)


def compositions(N, n):
    """All of the N-part compositions of n, in ascending order."""
    out = []

    def rec(prefix, remaining, parts):
        if parts == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, parts - 1)
    rec([], n, N)
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


class GlueMask:
    """Per-(N, n) classification of all square word positions."""

    __slots__ = ("N", "n", "kinds")

    def __init__(self, N, n):
        self.N = N
        self.n = n
        ws = words(N, n)
        fs = [f_over(w, N) for w in ws]
        kinds = []
        for fw in fs:
            row = []
            for fv in fs:
                cmp = less(fw, fv)
                if cmp == "=":
                    row.append(CC)
                elif cmp == "<":
                    row.append(GLUE)
                else:
                    row.append(FORBIDDEN)
            kinds.append(row)
        self.kinds = kinds


_MASKS = {}


def _disk_cache_path(N, n):
    import os
    root = os.environ.get("MDREPS_CACHE_DIR")
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, "gluemask_%d_%d.json" % (N, n))


def glue_mask(N, n):
    key = (N, n)
    if key not in _MASKS:
        path = _disk_cache_path(N, n)
        if path is not None:
            import json
            import os
            if os.path.exists(path):
                with open(path) as fh:
                    kinds = json.load(fh)
                gm = GlueMask.__new__(GlueMask)
                gm.N, gm.n, gm.kinds = N, n, kinds
                _MASKS[key] = gm
                return gm
        _MASKS[key] = GlueMask(N, n)
        if path is not None:
            import json
            with open(path, "w") as fh:
                json.dump(_MASKS[key].kinds, fh)
    return _MASKS[key]


def is_ccwg(M):
    """True iff all forbidden positions vanish; non-square matrices are CCwg
    only when zero."""
    if M.rows_level != M.cols_level:
        return M.is_zero()
    kinds = glue_mask(M.N, M.rows_level).kinds
    for i, row in enumerate(M.rows):
        krow = kinds[i]
        for j, e in enumerate(row):
            if krow[j] == FORBIDDEN and not e.is_zero():
                return False
    return True


def is_cc(M):
    """Strictly charge-conserving: nonzero entries only at CC positions."""
    if M.rows_level != M.cols_level:
        return M.is_zero()
    kinds = glue_mask(M.N, M.rows_level).kinds
    for i, row in enumerate(M.rows):
        for j, e in enumerate(row):
            if kinds[i][j] != CC and not e.is_zero():
                return False
    return True


def project_K(M):
    """Zero out the glue positions, keeping the charge-conserving part."""
    return _project(M, keep=CC)


def project_glue(M):
    """Zero out the CC positions, keeping only the glue."""
    return _project(M, keep=GLUE)


def _project(M, keep):
    assert M.rows_level == M.cols_level
    kinds = glue_mask(M.N, M.rows_level).kinds
    out = M.copy()
    for i, row in enumerate(out.rows):
        krow = kinds[i]
        for j in range(len(row)):
            if krow[j] != keep:
                row[j] = RF_ZERO
    return out


def check_closure(A, B):
    """Verify closure of the CCwg class: A*B (when composable) and the tensor
    product are CCwg, and the CC projection is multiplicative on the product."""
    from .matrix import kron
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


def random_ccwg(N, n, rng, density=0.7, bound=5):
    """Seeded random CCwg matrix with small integer entries."""
    M = ExactMatrix.zeros(N, n)
    kinds = glue_mask(N, n).kinds
    for i in range(M.nrows):
        for j in range(M.ncols):
            if kinds[i][j] == FORBIDDEN:
                continue
            if rng.random() < density:
                M.rows[i][j] = rf(rng.randint(-bound, bound))
    return M


def all_ones_glue(N, n):
    M = ExactMatrix.zeros(N, n)
    kinds = glue_mask(N, n).kinds
    for i in range(M.nrows):
        for j in range(M.ncols):
            if kinds[i][j] == GLUE:
                M.rows[i][j] = rf(1)
    return M


def chain_length(N, n):
    """Length of the longest chain in the composition order; the order is
    total here, so this is the number of compositions."""
    comps = compositions(N, n)
    # confirm totality: every pair comparable
    for a in comps:
        for b in comps:
            if less(a, b) == "incomparable":
                raise AssertionError("order unexpectedly partial")
    return len(comps)


def glue_nilpotency(N, n, rng=None, samples=5):
    """Bound the nilpotency index of the glue ideal by the chain length L and
    verify that products of L glue matrices vanish (all-ones witness plus
    seeded random samples); also report whether the witness at power L-1 is
    nonzero."""
    L = chain_length(N, n)
    G = all_ones_glue(N, n)
    power = ExactMatrix.identity(N, n)
    for _ in range(L - 1):
        power = power * G
    witness_prev_nonzero = not power.is_zero()
    assert (power * G).is_zero()
    if rng is not None:
        for _ in range(samples):
            # product of L random glue-only matrices must vanish
            P = ExactMatrix.identity(N, n)
            for _ in range(L):
                P = P * project_glue(random_ccwg(N, n, rng))
            assert P.is_zero()
    return {"chain_length": L, "index_bound": L,
            "witness_power_Lminus1_nonzero": witness_prev_nonzero}


def _prefix_suffix(w, n):
    return w[:n], w[n:]


def split_lemma_check(N, n, m, bound=10 ** 5):
    """Exhaustively verify the prefix/suffix comparison clauses over all word
    pairs of length n+m:

    (I)   f(v) < f(w)  ->  a strict < holds on the prefixes or the suffixes;
    (II)  f(v) = f(w)  ->  both sides equal, or strict inequalities in
          opposite directions;
    (III) f(v) > f(w)  ->  a strict > holds on the prefixes or the suffixes.
    """
    if N ** (n + m) > bound:
        raise ValueError("bound exceeded: N^(n+m) = %d" % N ** (n + m))
    ws = words(N, n + m)
    checked = 0
    for v in ws:
        vp, vs = _prefix_suffix(v, n)
        fv, fvp, fvs = f_over(v, N), f_over(vp, N), f_over(vs, N)
        for w in ws:
            wp, wsuf = _prefix_suffix(w, n)
            fw, fwp, fws = f_over(w, N), f_over(wp, N), f_over(wsuf, N)
            whole = less(fv, fw)
            cp, cs = less(fvp, fwp), less(fvs, fws)
            if whole == "<":
                assert cp == "<" or cs == "<", (v, w)
            elif whole == "=":
                assert (cp == "=" and cs == "=") or \
                    (cp == "<" and cs == ">") or (cp == ">" and cs == "<"), (v, w)
            else:
                assert cp == ">" or cs == ">", (v, w)
            checked += 1
    return {"pairs": checked, "ok": True}
