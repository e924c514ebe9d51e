"""Relation sets for the symmetric, braid, virtual-braid, loop-braid and
mixed-doubles presentations, and symbolic verification of a candidate pair
(R, S) of generator images at any level n.

A relation is a pair of words in the formal generators r_i, s_i; a word is a
tuple of ("r"|"s", i) letters, the empty word being the identity.

The relations are local, so ``verify`` checks each one where it lives: a
braid or mixed relation on three strands at level 3, an involution at level
2, each distinct shifted residual once for all positions and all n; a far
commutation holds identically.  A failing relation's witness at level n is
the level-3 (or level-2) witness with its row and column words padded by
letters 1, exactly the first nonzero entry of the dense level-n residual.
"""

from .matrix import ExactMatrix, embed_at, words


def _braid(sym, i):
    return ((sym, i), (sym, i + 1), (sym, i)), ((sym, i + 1), (sym, i), (sym, i + 1))


def _invol(sym, i):
    return ((sym, i), (sym, i)), ()


def _mixed_srr(i):
    # s_i r_{i+1} r_i = r_{i+1} r_i s_{i+1}
    return (("s", i), ("r", i + 1), ("r", i)), (("r", i + 1), ("r", i), ("s", i + 1))


def _mixed_rss(i):
    # r_i s_{i+1} s_i = s_{i+1} s_i r_{i+1}
    return (("r", i), ("s", i + 1), ("s", i)), (("s", i + 1), ("s", i), ("r", i + 1))


def _far(sym1, sym2, i, j):
    return ((sym1, i), (sym2, j)), ((sym2, j), (sym1, i))


_NAMES = ("Sym", "Braid", "VirtualBraid", "LoopBraid", "MixedDoubles")


class RelationSet:
    """Named family of defining relations, instantiated on demand at level n."""

    def __init__(self, name):
        if name not in _NAMES:
            raise ValueError("unknown relation set %r" % (name,))
        self.name = name

    def relations(self, n):
        """List of (id, lhs word, rhs word), sorted by id."""
        name = self.name
        rels = []
        use_r = name in ("Braid", "VirtualBraid", "LoopBraid", "MixedDoubles")
        use_s = name in ("Sym", "VirtualBraid", "LoopBraid", "MixedDoubles")
        for i in range(1, n - 1):
            if use_r:
                rels.append(("braid_r[%d]" % i, *_braid("r", i)))
            if use_s:
                rels.append(("braid_s[%d]" % i, *_braid("s", i)))
            if name in ("VirtualBraid", "LoopBraid", "MixedDoubles"):
                rels.append(("mixed_rss[%d]" % i, *_mixed_rss(i)))
            if name in ("LoopBraid", "MixedDoubles"):
                rels.append(("mixed_srr[%d]" % i, *_mixed_srr(i)))
        for i in range(1, n):
            if use_s:
                rels.append(("invol_s[%d]" % i, *_invol("s", i)))
            if name == "MixedDoubles":
                rels.append(("invol_r[%d]" % i, *_invol("r", i)))
        for i in range(1, n):
            for j in range(i + 2, n):
                if use_r:
                    rels.append(("far_rr[%d,%d]" % (i, j), *_far("r", "r", i, j)))
                if use_s:
                    rels.append(("far_ss[%d,%d]" % (i, j), *_far("s", "s", i, j)))
                if use_r and use_s:
                    rels.append(("far_rs[%d,%d]" % (i, j), *_far("r", "s", i, j)))
                    rels.append(("far_sr[%d,%d]" % (i, j), *_far("s", "r", i, j)))
        return sorted(rels, key=lambda t: t[0])


SYM = RelationSet("Sym")
BRAID = RelationSet("Braid")
VIRTUAL_BRAID = RelationSet("VirtualBraid")
LOOP_BRAID = RelationSet("LoopBraid")
MIXED_DOUBLES = RelationSet("MixedDoubles")


class AnomalyReport:
    """Outcome of one instantiated relation at level n: ``witness`` is the
    (row word, col word, value) of the first nonzero entry of the level-n
    residual lhs - rhs, or None when the residual is zero."""

    __slots__ = ("relation", "level", "is_zero", "witness")

    def __init__(self, relation, level, witness):
        self.relation = relation
        self.level = level
        self.is_zero = witness is None
        self.witness = witness

    def to_json(self):
        from .matrix import word_to_str
        from .scalar import rf_to_json
        if self.witness is None:
            wit = None
        else:
            row, col, val = self.witness
            wit = {"row": word_to_str(row), "col": word_to_str(col),
                   "value": rf_to_json(val)}
        return {"relation": self.relation, "ok": self.is_zero, "witness": wit}

    def __repr__(self):
        return "AnomalyReport(%s, n=%d, zero=%s)" % (self.relation, self.level,
                                                     self.is_zero)


class _WordImages:
    """Memoised level-k images of words in r_i, s_i: a word's image reuses
    the cached image of its suffix, else of its prefix, else builds its
    suffix first."""

    __slots__ = ("pair", "k", "cache")

    def __init__(self, pair, k):
        self.pair, self.k, self.cache = pair, k, {}

    def __call__(self, word):
        pair, k, cache = self.pair, self.k, self.cache
        if not word:
            return ExactMatrix.identity(pair.N, k)
        M = cache.get(word)
        if M is not None:
            return M
        if len(word) == 1:
            (sym, i), = word
            M = pair.R if sym == "r" else pair.S
            if (k, i) != (2, 1):
                M = embed_at(M, i, k)
        elif word[1:] in cache:
            M = self(word[:1]) * cache[word[1:]]
        elif word[:-1] in cache:
            M = cache[word[:-1]] * self(word[-1:])
        else:
            M = self(word[:1]) * self(word[1:])
        cache[word] = M
        return M


def _first_difference(A, B):
    """(row word, col word, A - B entry) at the first entry, rows first, where
    A and B differ, or None."""
    for i, (ra, rb) in enumerate(zip(A.rows, B.rows)):
        if ra != rb:
            for j, (a, b) in enumerate(zip(ra, rb)):
                if a != b:
                    ws = words(A.N, A.rows_level)
                    return ws[i], ws[j], a - b
    return None


def _is_far(lhs, rhs):
    """(a, b) = (b, a) with a and b two or more positions apart: the letters
    act on disjoint tensor factors, so the relation holds identically."""
    return (len(lhs) == 2 and rhs == lhs[::-1]
            and abs(lhs[0][1] - lhs[1][1]) >= 2)


def _window(lhs, rhs):
    """(lo, k, shifted lhs, shifted rhs): the relation moved to start at
    position 1 and the level k that holds all of its letters."""
    idx = [i for _, i in lhs + rhs]
    lo = min(idx)
    shift = lo - 1
    return (lo, max(idx) - shift + 1,
            tuple((sym, i - shift) for sym, i in lhs),
            tuple((sym, i - shift) for sym, i in rhs))


def verify(pair, relset, n):
    """One AnomalyReport per instantiated relation of relset at level n; the
    pair satisfies the presentation at level n iff all reports are zero.

    A relation whose letters span positions lo..hi has the level-n residual
    I^(lo-1) (x) res_k (x) I^(n-lo-k+1) with k = hi - lo + 2, res_k being the
    residual of the relation shifted to position 1 at level k (3 for braid
    and mixed relations, 2 for involutions).  Each distinct res_k is
    computed once.  With the first letter of a word varying fastest, the
    first nonzero entry of the level-n residual is that of res_k, its row and
    column words padded with lo-1 leading and n-lo-k+1 trailing letters 1.
    Far commutations hold identically and take no matrix work."""
    if n < 2:
        raise ValueError("level must be >= 2")
    if pair.R.nrows != pair.S.nrows:
        raise ValueError("R and S have mismatched dimensions")
    images = {}
    residuals = {}
    out = []
    for rel_id, lhs, rhs in relset.relations(n):
        if _is_far(lhs, rhs):
            out.append(AnomalyReport(rel_id, n, None))
            continue
        lo, k, lhs_k, rhs_k = _window(lhs, rhs)
        key = (lhs_k, rhs_k)
        if key not in residuals:
            if k not in images:
                images[k] = _WordImages(pair, k)
            image = images[k]
            residuals[key] = _first_difference(image(lhs_k), image(rhs_k))
        w = residuals[key]
        if w is not None:
            lead, trail = (1,) * (lo - 1), (1,) * (n - lo - k + 1)
            w = (lead + w[0] + trail, lead + w[1] + trail, w[2])
        out.append(AnomalyReport(rel_id, n, w))
    return out


def passes(pair, relset, n):
    return all(rep.is_zero for rep in verify(pair, relset, n))


_ANOMALY_WORDS = {
    # named residual words at level 3, following the letters of the lhs
    "RRR": ((("r", 1), ("r", 2), ("r", 1)), (("r", 2), ("r", 1), ("r", 2))),
    "SSS": ((("s", 1), ("s", 2), ("s", 1)), (("s", 2), ("s", 1), ("s", 2))),
    "SRR": ((("s", 1), ("r", 2), ("r", 1)), (("r", 2), ("r", 1), ("s", 2))),
    "SSR": ((("r", 1), ("s", 2), ("s", 1)), (("s", 2), ("s", 1), ("r", 2))),
    "RR1": ((("r", 1), ("r", 1)), ()),
    "SS1": ((("s", 1), ("s", 1)), ()),
}


def anomaly(pair, kind, n=3):
    """The named relation residual (e.g. SRR = S1 R2 R1 - R2 R1 S2) at level n
    as a single exact matrix."""
    if kind not in _ANOMALY_WORDS:
        raise ValueError("unknown anomaly kind %r (have %s)"
                         % (kind, sorted(_ANOMALY_WORDS)))
    lhs, rhs = _ANOMALY_WORDS[kind]
    image = _WordImages(pair, n)
    return image(lhs) - image(rhs)
