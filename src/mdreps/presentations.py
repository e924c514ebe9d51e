"""Relation sets for the symmetric, braid, virtual-braid, loop-braid and
mixed-doubles presentations, and symbolic verification of a candidate pair
(R, S) of generator images at any level n.

A relation is a pair of words in the formal generators r_i, s_i; a word is a
tuple of ("r"|"s", i) letters, the empty word being the identity.
"""

from .matrix import ExactMatrix, embed_at


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
    """Residual of one instantiated relation at level n."""

    __slots__ = ("relation", "level", "residual", "is_zero", "witness")

    def __init__(self, relation, level, residual):
        self.relation = relation
        self.level = level
        self.residual = residual
        w = residual.nonzero_witness()
        self.is_zero = w is None
        self.witness = w

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


def _images(pair, n):
    imgs = {}
    for i in range(1, n):
        imgs[("r", i)] = embed_at(pair.R, i, n)
        imgs[("s", i)] = embed_at(pair.S, i, n)
    return imgs


def _word_matrix(word, imgs, N, n):
    if not word:
        return ExactMatrix.identity(N, n)
    M = imgs[word[0]]
    for letter in word[1:]:
        M = M * imgs[letter]
    return M


def verify(pair, relset, n):
    """One AnomalyReport per instantiated relation of relset at level n; the
    pair satisfies the presentation at level n iff all reports are zero."""
    if n < 2:
        raise ValueError("level must be >= 2")
    if pair.R.nrows != pair.S.nrows:
        raise ValueError("R and S have mismatched dimensions")
    imgs = _images(pair, n)
    out = []
    for rel_id, lhs, rhs in relset.relations(n):
        L = _word_matrix(lhs, imgs, pair.N, n)
        Rm = _word_matrix(rhs, imgs, pair.N, n)
        out.append(AnomalyReport(rel_id, n, L - Rm))
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
    imgs = _images(pair, n)
    return _word_matrix(lhs, imgs, pair.N, n) - _word_matrix(rhs, imgs, pair.N, n)
