"""Relation sets for the symmetric, braid, virtual-braid, loop-braid and
mixed-doubles presentations, and symbolic verification of a candidate pair
(R, S) of generator images at any level n.

A relation is a pair of words in the formal generators r_i, s_i; a word is a
tuple of ("r"|"s", i) letters, the empty word being the identity.
Each relation is written once, as a family at position 1 (``_LOCAL`` and
``_FAR``), and read from there: ``verify`` and ``anomaly`` read the
families, and ``RelationSet.relations(n)`` moves them to every position of
level n for the involution and Yang-Baxter checks of ``catalog``, the
relation words of ``mdd`` and the induced-representation check of
``clifford``.

The relations are local, so ``verify`` checks each family where it lives,
at position 1: a braid or mixed family on three strands at level 3, an
involution at level 2, once for all positions and all n; a far commutation
holds identically.  A failing relation's witness at level n is the level-3
(or level-2) witness with its row and column words padded by letters 1,
exactly the first nonzero entry of the dense level-n residual.

The word images are products of the cleared pair R~ = c_R R, S~ = c_S S,
whose rows are flat dicts keyed by the column above the packed exponent,
which no product carries into (``_Cleared``).  Each side of a relation is
scaled to c_R^A c_S^B, A and B being the most letters r and s on either
side; braid and mixed relations are homogeneous in r and in s, so only an
involution's identity side is scaled (R~R~ against c_R^2 I).  The residual
vanishes where the true one does, so a passing pair makes no RF and takes
no gcd; a witness value is boxed once, as the canonical RF of the residual
entry over c_R^A c_S^B.
"""

from functools import reduce
from math import lcm

from .matrix import ExactMatrix, word_to_str, words
from .scalar import RF, RF_ZERO, Cyc, InvariantError, Poly, rf_to_json


# Each relation once, as a family at position 1.  A local family is (name,
# the relation sets that hold it, lhs, rhs); its instance at position i
# has every index raised by i - 1, at each i that keeps its letters in
# 1..n-1.  A far family (name, sets, a, b) is a_i b_j = b_j a_i for each
# j >= i + 2: the letters act on disjoint tensor factors, so it holds
# identically.
_R1, _R2, _S1, _S2 = ("r", 1), ("r", 2), ("s", 1), ("s", 2)
# the sets with letters r and with letters s, each set holding the
# relations of those before it: _WITH_S[1:] are the sets with both
_WITH_R = ("Braid", "VirtualBraid", "LoopBraid", "MixedDoubles")
_WITH_S = ("Sym", "VirtualBraid", "LoopBraid", "MixedDoubles")
_LOCAL = (
    ("braid_r", _WITH_R, (_R1, _R2, _R1), (_R2, _R1, _R2)),
    ("braid_s", _WITH_S, (_S1, _S2, _S1), (_S2, _S1, _S2)),
    ("invol_r", ("MixedDoubles",), (_R1, _R1), ()),
    ("invol_s", _WITH_S, (_S1, _S1), ()),
    ("mixed_rss", _WITH_S[1:], (_R1, _S2, _S1), (_S2, _S1, _R2)),
    ("mixed_srr", _WITH_S[2:], (_S1, _R2, _R1), (_R2, _R1, _S2)),
)
_FAR = (("far_rr", _WITH_R, "r", "r"), ("far_rs", _WITH_S[1:], "r", "s"),
        ("far_sr", _WITH_S[1:], "s", "r"), ("far_ss", _WITH_S, "s", "s"))


def _shifted(word, shift):
    return tuple((sym, i + shift) for sym, i in word)


def _letters(word):
    """(a, b): the letters r and the letters s of a word."""
    a = sum(sym == "r" for sym, _ in word)
    return a, len(word) - a


class RelationSet:
    """Named family of defining relations, instantiated on demand at level n."""

    def __init__(self, name):
        # (family, lhs, rhs, level k, letter counts of both sides) of each
        # local family of the set: its instances sit at positions 1..n-k+1
        self._local = [(family, lhs, rhs, 1 + max(i for _, i in lhs + rhs),
                        (_letters(lhs), _letters(rhs)))
                       for family, sets, lhs, rhs in _LOCAL if name in sets]
        if not self._local:
            raise ValueError("unknown relation set %r" % (name,))
        self.name = name

    def _far(self, n):
        """(id, lhs, rhs) of each far commutation at level n."""
        return [("%s[%d,%d]" % (family, i, j), ((a, i), (b, j)),
                 ((b, j), (a, i)))
                for family, sets, a, b in _FAR if self.name in sets
                for i in range(1, n) for j in range(i + 2, n)]

    def relations(self, n):
        """List of (id, lhs word, rhs word), sorted by id."""
        rels = [("%s[%d]" % (family, i + 1), _shifted(lhs, i),
                 _shifted(rhs, i))
                for family, lhs, rhs, k, _ in self._local
                for i in range(n - k + 1)]
        return sorted(rels + self._far(n))


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


# ---------------------------------------------------------------------------
# word images of the cleared pair

class _Cleared:
    """Level-k word images of the cleared pair R~ = c_R R, S~ = c_S S.

    c_X is an integer times the product of X's distinct entry denominators,
    so X~ has polynomial entries and no gcd is ever needed: any nonzero
    common multiple of the denominators would do.  The exponent of the
    i-th parameter (sorted by name) fills bits i*w to (i+1)*w - 1 of a
    packed int e, so a product of monomials is the sum of their packed ints
    (Monagan & Pearce 2007).  The field width w holds ``span`` times the
    largest exponent that an entry of R~ or S~, or c_R or c_S, can have, so
    a product of at most ``span`` letters carries into no other field and
    has e < 2^bits, bits being w times the number of parameters.  A matrix
    is a list of flat rows {(column << bits) + e: coefficient} (bits = 0 for
    a constant pair), so a key plus another entry's e is their product's
    key (``_matmul``); c_X is a dict {e: coefficient}.  Coefficients are
    ints when rational and stay Cyc when cyclotomic.  A constant-form
    matrix is read from its integer rows, with c_X its denominator.
    """

    __slots__ = ("N", "span", "names", "shifts", "mask", "bits", "X", "c",
                 "cache", "powers")

    def __init__(self, pair, span):
        mats = (pair.R, pair.S)
        scans = [_scan(M) for M in mats]
        self.N, self.span = pair.N, span
        self.names = sorted(set().union(*(names for names, *_ in scans)))
        width = (span * max(bound for _, bound, *_ in scans)).bit_length()
        self.shifts = [i * width for i in range(len(self.names))]
        self.mask = (1 << width) - 1
        self.bits = width * len(self.names)
        shift = dict(zip(self.names, self.shifts))
        (R, cR), (S, cS) = (_clear(M, scan, shift, self.bits)
                            for M, scan in zip(mats, scans))
        self.X, self.c = {"r": R, "s": S}, {"r": cR, "s": cS}
        self.cache, self.powers = {}, {(0, 0): {0: 1}}

    def _letter(self, sym, i, k):
        """I^(i-1) (x) X~ (x) I^(k-i-1): row r reads X~'s row a, the letters
        i, i+1 of r's word, and moves each column b of it to r + (b - a) lo."""
        if not 1 <= i <= k - 1:
            raise ValueError("position %d out of range for level %d" % (i, k))
        X, N, bits = self.X[sym], self.N, self.bits
        lo, NN, mask = N ** (i - 1), N * N, (1 << bits) - 1
        out = []
        for r in range(N ** k):
            a = r // lo % NN
            base = r - a * lo
            out.append({(base + (key >> bits) * lo << bits) + (key & mask): v
                        for key, v in X[a].items()})
        return out

    def image(self, word, k):
        """The level-k image of a word in the cleared letters, built from
        the cached image of its suffix, else of its prefix, else its
        suffix first."""
        cache = self.cache
        M = cache.get((k, word))
        if M is not None:
            return M
        if not word:
            M = [{r << self.bits: 1} for r in range(self.N ** k)]
        elif len(word) == 1:
            M = self._letter(*word[0], k)
        else:
            cut = -1 if ((k, word[:-1]) in cache
                         and (k, word[1:]) not in cache) else 1
            M = _matmul(self.image(word[:cut], k), self.image(word[cut:], k),
                        self.bits)
        cache[k, word] = M
        return M

    def _power(self, a, b):
        """c_R^a c_S^b."""
        f = self.powers.get((a, b))
        if f is None:
            f = _pmul(self._power(a - 1, b), self.c["r"]) if a \
                else _pmul(self._power(0, b - 1), self.c["s"])
            self.powers[a, b] = f
        return f

    def residual(self, lhs, rhs, k, letters):
        """(entries, c): the nonzero entries (i, j, f) of the level-k
        residual lhs - rhs times c = c_R^A c_S^B, rows first, A and B the
        most letters r and s in the sides' ``letters`` (a, b).  Each side is
        its cleared image times the c_R^(A-a) c_S^(B-b) it lacks, so the
        entries are polynomials and vanish exactly where the residual does."""
        (A, B), sides = map(max, *letters), []
        if A + B > self.span:
            raise InvariantError("%d letters exceed the span %d of the "
                                 "exponent fields" % (A + B, self.span))
        for word, (a, b) in zip((lhs, rhs), letters):
            f = self._power(A - a, B - b)
            M = self.image(word, k)
            sides.append(M if f == {0: 1} else [_pmul(row, f) for row in M])
        return _differences(*sides, self.bits), self._power(A, B)

    def witness(self, lhs, rhs, k, letters):
        """(row word, col word, value) at the first nonzero entry of the
        level-k residual lhs - rhs, or None."""
        entries, c = self.residual(lhs, rhs, k, letters)
        for i, j, f in entries:
            ws = words(self.N, k)
            return ws[i], ws[j], self.box(f, c)
        return None

    def box(self, f, c):
        """The canonical RF f / c."""
        return RF(self._unpack(f), self._unpack(c))

    def _unpack(self, f):
        names, shifts, mask = self.names, self.shifts, self.mask
        return Poly({tuple((x, key >> s & mask) for x, s in zip(names, shifts)
                           if key >> s & mask): v for key, v in f.items()})


def _top(p):
    """The largest exponent of any parameter in p."""
    return max((e for m in p.terms for _, e in m), default=0)


def _coeff_den(p):
    """The lcm of the denominators of p's rational coefficients and of both
    components of its cyclotomic ones."""
    out = 1
    for v in p.terms.values():
        if isinstance(v, Cyc):
            out = lcm(out, v.a.denominator, v.b.denominator)
        else:
            out = lcm(out, v.denominator)
    return out


def _pack(p, shift, scale):
    """scale * p as a packed polynomial; scale clears p's coefficient
    denominators, so rational coefficients become ints."""
    return {sum(e << shift[x] for x, e in m):
            v * scale if isinstance(v, Cyc)
            else v.numerator * (scale // v.denominator)
            for m, v in p.terms.items()}


def _scan(M):
    """One pass over M's entries: (its parameter names, the degree bound,
    its distinct denominators, L, its nonzero entries as (row, column,
    numerator, index of the denominator)).  Each numerator's terms are
    walked once, for its names, its largest exponent and its coefficient
    denominators; L is the lcm of the latter.  The degree bound bounds the
    exponent of any parameter in an entry of the cleared matrix and in its
    c: the largest in a numerator plus the sum over the distinct
    denominators.  Denominators are indexed by first appearance, and each
    distinct one is read for names once.  An RF denominator is monic, so a
    constant one is 1: all of those are indexed under the key None, so no
    entry over 1 hashes its denominator.  A constant-form matrix has none
    of these; ``_clear`` reads its integer rows."""
    names, top, index, dens, L, entries = set(), 0, {}, [], 1, []
    if M._ints is None:
        for i, row in enumerate(M._rows):
            for j, x in enumerate(row):
                num, den = x.num, x.den
                if not num.terms:
                    continue
                for m, v in num.terms.items():
                    for name, e in m:
                        names.add(name)
                        if e > top:
                            top = e
                    if isinstance(v, Cyc):
                        L = lcm(L, v.a.denominator, v.b.denominator)
                    else:
                        L = lcm(L, v.denominator)
                k = index.setdefault(None if den.is_constant() else den,
                                     len(dens))
                if k == len(dens):
                    dens.append(den)
                    names |= den.variables()
                entries.append((i, j, num, k))
    return names, top + sum(map(_top, dens)), dens, L, entries


def _clear(M, scan, shift, bits):
    """(rows, c) with M = rows / c and flat polynomial rows, from M's
    ``_scan``.  Each distinct denominator d is cleared to l_d d with integer
    coefficients, l_d being ``_coeff_den(d)``: c is L times the cleared
    denominators, and an entry n / d becomes L n times l_d and the other
    cleared denominators, its cofactor.  An entry whose cofactor is 1 (the
    one denominator of M is 1) goes into its row as packed."""
    if M._ints is not None:
        return ([{j << bits: a for j, a in enumerate(row) if a}
                 for row in M._ints], {0: M._den})
    _, _, dens, L, entries = scan
    cleared = [_pack(d, shift, _coeff_den(d)) for d in dens]
    cofactors = [reduce(_pmul, (g for g in cleared if g is not dc),
                        {0: _coeff_den(d)})
                 for d, dc in zip(dens, cleared)]
    c = reduce(_pmul, cleared, {0: L})
    rows = [{} for _ in M._rows]
    for i, j, num, k in entries:
        f = _pack(num, shift, L)
        if cofactors[k] != {0: 1}:
            f = _pmul(f, cofactors[k])
        row, col = rows[i], j << bits
        for e, v in f.items():
            row[col + e] = v
    return rows, c


def _addmul(h, f, g):
    """h + f * g into h, zero coefficients kept."""
    for e1, v1 in f.items():
        for e2, v2 in g.items():
            e = e1 + e2
            h[e] = h.get(e, 0) + v1 * v2
    return h


def _nonzero(h):
    """h without its zero coefficients: h itself when none cancelled (a Cyc
    never equals 0, and a cancelled Cyc sum is a rational)."""
    return {e: v for e, v in h.items() if v} if 0 in h.values() else h


def _pmul(f, g):
    return _nonzero(_addmul({}, f, g))


def _matmul(A, B, bits):
    """Product of flat matrices (``_Cleared``): the entry at key ka of a row
    of A times row ka >> bits of B adds ka's exponent to each key there."""
    mask = (1 << bits) - 1
    out = []
    for arow in A:
        acc = {}
        for ka, va in arow.items():
            e = ka & mask
            for kb, vb in B[ka >> bits].items():
                kb += e
                acc[kb] = acc.get(kb, 0) + va * vb
        out.append(_nonzero(acc))
    return out


def _differences(A, B, bits):
    """(i, j, A[i][j] - B[i][j]) at each entry where the flat matrices A and
    B differ, rows first and columns ascending, each a packed polynomial."""
    mask = (1 << bits) - 1
    for i, (ra, rb) in enumerate(zip(A, B)):
        if ra == rb:
            continue
        cols = {}
        for key, v in _addmul(dict(ra), rb, {0: -1}).items():
            if v:
                cols.setdefault(key >> bits, {})[key & mask] = v
        for j in sorted(cols):
            yield i, j, cols[j]


def verify(pair, relset, n):
    """One AnomalyReport per instantiated relation of relset at level n; the
    pair satisfies the presentation at level n iff all reports are zero.

    A local family's residual res_k is computed once, at position 1 and
    at the family's level k (3 for braid and mixed relations, 2 for
    involutions); its instance at position i + 1 has the level-n residual
    I^i (x) res_k (x) I^(n-i-k).  With the first letter of a word varying
    fastest, the first nonzero entry of the level-n residual is that of
    res_k, its row and column words padded with i leading and n-i-k
    trailing letters 1.  Far commutations hold identically and take no
    matrix work.

    res_k is computed over the cleared pair (see ``_Cleared``).  Braid and
    mixed relations have as many letters r, and as many letters s, on each
    side, so lhs = rhs iff lhs~ = rhs~ and the first differing entry is at
    the same place; an involution compares R~R~ with c_R^2 I.  The witness
    value is boxed once per failing family, as the canonical RF of
    the residual entry over c_R^A c_S^B, so a passing pair takes no gcd."""
    if n < 2:
        raise ValueError("level must be >= 2")
    if pair.R.nrows != pair.S.nrows:
        raise ValueError("R and S have mismatched dimensions")
    local = [fam for fam in relset._local if fam[3] <= n]
    images = _Cleared(pair, max((sum(map(max, *letters))
                                 for *_, letters in local), default=0))
    out = [AnomalyReport(rel_id, n, None) for rel_id, _, _ in relset._far(n)]
    for family, lhs, rhs, k, letters in local:
        w = images.witness(lhs, rhs, k, letters)
        for i in range(n - k + 1):
            w_i = None
            if w is not None:
                lead, trail = (1,) * i, (1,) * (n - i - k)
                w_i = (lead + w[0] + trail, lead + w[1] + trail, w[2])
            out.append(AnomalyReport("%s[%d]" % (family, i + 1), n, w_i))
    return sorted(out, key=lambda rep: rep.relation)


def passes(pair, relset, n):
    return all(rep.is_zero for rep in verify(pair, relset, n))


_ANOMALY_KINDS = {
    # each kind and the relation family whose residual at position 1 it is
    "RRR": "braid_r", "SSS": "braid_s", "SRR": "mixed_srr",
    "SSR": "mixed_rss", "RR1": "invol_r", "SS1": "invol_s",
}


def anomaly(pair, kind, n=3):
    """The named relation residual (e.g. SRR = S1 R2 R1 - R2 R1 S2) at level n
    as a single exact matrix, its entries boxed from the residual of the
    cleared pair as in ``verify``.  Each kind names a relation family
    (``_ANOMALY_KINDS``), whose words at position 1 it reads."""
    if kind not in _ANOMALY_KINDS:
        raise ValueError("unknown anomaly kind %r (have %s)"
                         % (kind, sorted(_ANOMALY_KINDS)))
    _, lhs, rhs, _, letters = next(fam for fam in MIXED_DOUBLES._local
                                   if fam[0] == _ANOMALY_KINDS[kind])
    images = _Cleared(pair, sum(map(max, *letters)))
    entries, c = images.residual(lhs, rhs, n, letters)
    d = pair.N ** n
    rows = [[RF_ZERO] * d for _ in range(d)]
    for i, j, f in entries:
        rows[i][j] = images.box(f, c)
    return ExactMatrix.from_rows(rows, pair.N, n, n)
