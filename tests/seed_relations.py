"""The relation words of ``presentations`` from before each relation was
written once as a family at position 1: the five word builders and
``RelationSet.relations``, which wrote every relation as an explicit
level-n word.  The bodies are the old ones, kept as the oracle of the
differential test in ``test_presentations``.
"""


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
