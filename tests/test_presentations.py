import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from mdreps import presentations, scalar
from mdreps.catalog import (ALL_CASES, Transform, apply_transform,
                            make_involutive_braid, make_manji, make_md_pair)
from mdreps.matrix import ExactMatrix, RepPair, embed_at, words
from mdreps.presentations import (BRAID, LOOP_BRAID, MIXED_DOUBLES, SYM,
                                  VIRTUAL_BRAID, AnomalyReport, RelationSet,
                                  _clear, _Cleared, _letters, _scan,
                                  anomaly, passes, verify)
from mdreps.scalar import RF, Cyc, NonVanishing, Poly, param, rf, zeta
from nested_cleared import _differences as nested_differences
from nested_cleared import image, nested, scaled
import seed_relations
import three_walk_reader

p = param("p")


def _pair(R, S, nv=()):
    return RepPair(R, S, constraints=NonVanishing(nv))


def test_relation_counts_level3():
    rels = MIXED_DOUBLES.relations(3)
    ids = [r[0] for r in rels]
    assert ids == sorted(ids)
    # braid r/s, two mixed, four involutions, no far pairs at n=3
    assert len(rels) == 2 + 2 + 4


def test_relation_counts_level4_includes_far():
    ids = [r[0] for r in MIXED_DOUBLES.relations(4)]
    assert "far_rr[1,3]" in ids and "far_rs[1,3]" in ids and "far_sr[1,3]" in ids
    assert "far_ss[1,3]" in ids


def test_relations_match_the_seed_words():
    """The families at position 1, moved to every position, give each set's
    relations as the level-n words did: ids, words and order, n <= 12."""
    for name in ("Sym", "Braid", "VirtualBraid", "LoopBraid",
                 "MixedDoubles"):
        for n in range(13):
            assert RelationSet(name).relations(n) == \
                seed_relations.RelationSet(name).relations(n), (name, n)
    with pytest.raises(ValueError, match="unknown relation set"):
        RelationSet("Pure")


def test_identity_pair_passes():
    I4 = ExactMatrix.identity(2, 2)
    reports = verify(_pair(I4, I4), MIXED_DOUBLES, 3)
    assert all(r.is_zero for r in reports)


def test_antidiagonal_fslash_pair_passes():
    pr = make_md_pair("case5-antidiag", sign=1, check=False)
    assert passes(pr, MIXED_DOUBLES, 3)
    pr2 = make_md_pair("case5-antidiag", sign=-1, check=False)
    assert passes(pr2, MIXED_DOUBLES, 3)


def test_braid_holds_md_fails_unless_involutive():
    # the diagonal-flip braid matrix with equal middle entries: braid
    # relations hold for all p, the doubled presentation needs p^2 = 1
    Rf = ExactMatrix.from_rows([[1, 0, 0, 0], [0, 0, p, 0],
                                [0, p, 0, 0], [0, 0, 0, 1]])
    pr = _pair(Rf, Rf, nv=["p"])
    assert passes(pr, BRAID, 3)
    reports = verify(pr, MIXED_DOUBLES, 3)
    bad = [r for r in reports if not r.is_zero]
    assert bad, "involutivity residual expected"
    assert any(r.relation.startswith("invol") for r in bad)
    for val in (1, -1):
        prv = _pair(Rf.evaluate({"p": val}), Rf.evaluate({"p": val}))
        assert passes(prv, MIXED_DOUBLES, 3)


def test_generic_ansatz_srr_anomaly_matches_display():
    names = ["a", "b", "c", "d", "e", "f", "g", "h", "j", "k", "l", "m",
             "n", "s", "t", "r"]
    P = {nm: param(nm) for nm in names}
    S = ExactMatrix.from_rows([[P["a"], P["b"], P["c"], P["d"]],
                               [P["e"], P["f"], P["g"], P["h"]],
                               [P["j"], P["k"], P["l"], P["m"]],
                               [P["n"], P["s"], P["t"], P["r"]]])
    R = ExactMatrix.from_rows([[1, 0, 0, p], [0, 0, 1, 0], [0, 1, 0, 0],
                               [0, 0, 0, -1]])
    An = anomaly(_pair(R, S), "SRR", 3)
    a, b, c, d, e, f, g, h, j, k, l, m, n, s, t, r = (P[x] for x in names)
    z = rf(0)
    expected = [
        [z, -(e + j) * p, z, (a - f - k) * p, z, (a - g - l) * p, z,
         (c - b - h - m) * p],
        [z, n * p, z, e * p + s * p, z, e * p + t * p, z, (g - f + r) * p],
        [z, -(n * p), z, j * p - s * p, z, j * p - t * p, z, (l - k - r) * p],
        [z, z, z, n * p, z, n * p, z, -(s * p) + t * p],
        [z, z, z, -(2 * b), z, -(2 * c), z, z],
        [z, 2 * e, z, z, z, z, z, 2 * h],
        [z, 2 * j, z, z, z, z, z, 2 * m],
        [z, z, z, -(2 * s), z, -(2 * t), z, z]]
    for i in range(8):
        for jj in range(8):
            assert An.rows[i][jj] == expected[i][jj], (i + 1, jj + 1)


def test_anomaly_kinds():
    pr2 = make_md_pair("case2", check=False)
    assert anomaly(pr2, "SRR", 3).is_zero()
    assert anomaly(pr2, "SSR", 3).is_zero()
    Rm = make_manji("R", 1)
    prm = _pair(Rm, ExactMatrix.identity(2, 2))
    assert anomaly(prm, "RRR", 3).is_zero()
    I4 = ExactMatrix.identity(2, 2)
    assert anomaly(_pair(I4, I4), "SSS", 3).is_zero()
    with pytest.raises(ValueError):
        anomaly(pr2, "XYZ", 3)


def test_wangian_closure():
    # (R, R) passing the braid relations with R^2 = I passes the full set
    for fam, kw in (("f-glue", {}), ("a-glue", {}), ("anti-slash", {})):
        R = make_involutive_braid(fam, **kw)
        pr = _pair(R, R)
        assert passes(pr, BRAID, 3)
        assert passes(pr, MIXED_DOUBLES, 3)


def test_rs_swap_symmetry():
    pr = make_md_pair("case2", check=False)
    swapped = _pair(pr.S, pr.R, nv=["p"])
    ok1 = passes(pr, MIXED_DOUBLES, 3)
    ok2 = passes(swapped, MIXED_DOUBLES, 3)
    assert ok1 == ok2 == True


def test_transpose_symmetry():
    for case in ("case2", "case3", "case6a"):
        pr = make_md_pair(case, check=False)
        prt = _pair(pr.R.transpose(), pr.S.transpose())
        assert passes(prt, MIXED_DOUBLES, 3)
    # and a failing pair stays failing after transpose
    bad = _pair(ExactMatrix.identity(2, 2),
                ExactMatrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0],
                                       [0, 1, 0, 0], [0, 0, 0, 1]]))
    assert not passes(bad, MIXED_DOUBLES, 3)
    badt = _pair(bad.R.transpose(), bad.S.transpose())
    assert not passes(badt, MIXED_DOUBLES, 3)


def test_virtual_and_loop_braid_sets():
    # the extra mixed relation separates the loop-braid set from virtual
    # braids: a sign-broken glue matrix paired with the involutive slash
    # satisfies every virtual-braid relation but fails mixed_srr
    s = param("s")
    Rg = ExactMatrix.from_rows([[1, 0, 0, s], [0, 0, -1, 0], [0, -1, 0, 0],
                                [0, 0, 0, -1]])
    Sm = ExactMatrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                                [0, 0, 0, -1]])
    pr = _pair(Rg, Sm, nv=["s"])
    assert passes(pr, VIRTUAL_BRAID, 3)
    reports = verify(pr, LOOP_BRAID, 3)
    bad = [r.relation for r in reports if not r.is_zero]
    assert bad and all(r.startswith("mixed_srr") for r in bad)
    flip = ExactMatrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                                  [0, 0, 0, 1]])
    assert passes(_pair(flip, flip), SYM, 3)


def test_report_json_shape():
    pr = make_md_pair("case2", check=False)
    rep = verify(pr, MIXED_DOUBLES, 3)[0]
    blob = rep.to_json()
    assert set(blob) == {"relation", "ok", "witness"}
    bad = _pair(ExactMatrix.identity(2, 2),
                ExactMatrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0],
                                       [0, 0, 1, 0], [0, 0, 0, 1]]))
    reports = verify(bad, MIXED_DOUBLES, 2)
    failing = [r for r in reports if not r.is_zero]
    assert failing and failing[0].to_json()["witness"] is not None


def test_unknown_relation_set():
    with pytest.raises(ValueError):
        RelationSet("Nope")


# ---------------------------------------------------------------------------
# differential test: level-local verify against dense level-n products

_RELSETS = (SYM, BRAID, VIRTUAL_BRAID, LOOP_BRAID, MIXED_DOUBLES)
_CONIC = ("case6a", "case6b", "case6c")


# the anomaly kinds as the relations at position 1
_ANOMALY_RELATIONS = {"RRR": "braid_r[1]", "SSS": "braid_s[1]",
                      "SRR": "mixed_srr[1]", "SSR": "mixed_rss[1]",
                      "RR1": "invol_r[1]", "SS1": "invol_s[1]"}


def _dense_reports(pair, n):
    """(relation, level, is_zero, witness) of every MixedDoubles relation
    at level n, each from the first nonzero entry of the full N^n x N^n
    residual lhs - rhs, and the residuals by relation.  Every other
    relation set is a subset of these."""
    imgs = {}
    for i in range(1, n):
        imgs[("r", i)] = embed_at(pair.R, i, n)
        imgs[("s", i)] = embed_at(pair.S, i, n)

    def word_matrix(word):
        M = ExactMatrix.identity(pair.N, n)
        for letter in word:
            M = M * imgs[letter]
        return M

    ws = words(pair.N, n)
    out, residuals = {}, {}
    for rel_id, lhs, rhs in MIXED_DOUBLES.relations(n):
        res = residuals[rel_id] = word_matrix(lhs) - word_matrix(rhs)
        wit = next(((ws[i], ws[j], e) for i, row in enumerate(res.rows)
                    for j, e in enumerate(row) if not e.is_zero()), None)
        out[rel_id] = (rel_id, n, wit is None, wit)
    return out, residuals


def _assert_matches_dense(pair, n):
    """Returns the number of failing MixedDoubles relations.  Also checks
    each anomaly kind against the dense residual of its relation."""
    dense, residuals = _dense_reports(pair, n)
    for relset in _RELSETS:
        reports = verify(pair, relset, n)
        got = [(r.relation, r.level, r.is_zero, r.witness) for r in reports]
        want = [dense[rel_id] for rel_id, _, _ in relset.relations(n)]
        assert got == want, (pair.provenance, relset.name, n)
        assert json.dumps([r.to_json() for r in reports]) == json.dumps(
            [AnomalyReport(rel_id, n, w).to_json()
             for rel_id, _, _, w in want])
    for kind, rel_id in _ANOMALY_RELATIONS.items():
        if rel_id in residuals:
            An, res = anomaly(pair, kind, n), residuals[rel_id]
            assert An == res, (pair.provenance, kind, n)
            assert json.dumps(An.to_json()) == json.dumps(res.to_json())
    return sum(not ok for _, _, ok, _ in dense.values())


def _broken_variants(pair, rng):
    """S scaled, R and S swapped with R scaled, one entry of R perturbed."""
    c = rf(rng.choice((-3, -2, 2, 3)))
    R = pair.R.copy()
    i, j = rng.randrange(4), rng.randrange(4)
    R.rows[i][j] = R.rows[i][j] + rng.choice((-1, 1))
    return [RepPair(pair.R, pair.S.scale(c), provenance="S*c"),
            RepPair(pair.S.scale(c), pair.R, provenance="swap, R*c"),
            RepPair(R, pair.S, provenance="R[%d][%d]+-1" % (i, j))]


def _catalog_pairs(cases):
    return [make_md_pair(case, check=False, **kw)
            for case, kw in ALL_CASES if case in cases]


def test_verify_matches_dense_on_catalog():
    non_conic = [c for c, _ in ALL_CASES if c not in _CONIC]
    for pair in _catalog_pairs(non_conic):
        _assert_matches_dense(pair, 4)
    for pair in _catalog_pairs(("case2", "case3", "case7-fglue")):
        _assert_matches_dense(pair, 5)
    for pair in _catalog_pairs(_CONIC):
        _assert_matches_dense(pair, 3)
    # cyclotomic coefficients next to symbolic ones
    A = ExactMatrix.from_rows([[zeta(3), 0], [1, 1]])
    for pair in _catalog_pairs(("case2", "case4", "case6a")):
        conj = apply_transform(Transform("local_conj", A), pair)
        assert not _assert_matches_dense(conj, 3)


def _high_degree_pair():
    """A failing pair with exponents of p above 2^16 in its entries and
    residuals, next to a second parameter q: a 16-bit exponent field for p
    would carry into q's."""
    g = rf(Poly({(("p", 70001),): 1}))
    R = ExactMatrix.from_rows([[1, 0, 0, g], [0, 0, 1, 0], [0, 1, 0, 0],
                               [0, 0, 0, 1]])
    S = ExactMatrix.from_rows([[1, 0, 0, "q"], [0, 0, 1, 0], [0, 1, 0, 0],
                               [0, 0, 0, -1]])
    return RepPair(R, S, provenance="p^70001")


def _n3_pair():
    """A pair over N = 3: the flip with a symbolic corner and a
    denominator, and the flip with one entry scaled."""
    def flip():
        return [[rf(int(j == i % 3 * 3 + i // 3)) for j in range(9)]
                for i in range(9)]
    R, S = flip(), flip()
    R[0][8] = p
    R[4][4] = rf(1) / (p - 1)
    S[1][3] = rf(2)
    return RepPair(ExactMatrix.from_rows(R, N=3),
                   ExactMatrix.from_rows(S, N=3), provenance="N=3")


def test_verify_matches_dense_on_broken_pairs():
    rng = random.Random(3)
    failing = 0
    for pair in _catalog_pairs(("case2", "case3", "case4-glue",
                                "case5-antidiag", "case7-fglue")):
        for bad in _broken_variants(pair, rng):
            failing += _assert_matches_dense(bad, 4)
    for pair in _catalog_pairs(("case6a",)):
        for bad in _broken_variants(pair, rng):
            failing += _assert_matches_dense(bad, 3)
    for pair in _catalog_pairs(("case2", "case4", "case6a")):
        bad = RepPair(pair.R, pair.S.scale(zeta(3)), provenance="S*zeta(3)")
        failing += _assert_matches_dense(bad, 3)
    failing += _assert_matches_dense(_n3_pair(), 3)
    failing += _assert_matches_dense(_high_degree_pair(), 3)
    assert failing


def test_verify_matches_dense_on_random_pair_at_level5():
    # a sparse random pair that fails relations, so the far
    # commutations are checked against products that do not commute
    rng = random.Random(5)

    def sparse():
        M = ExactMatrix.zeros(2, 2)
        for _ in range(6):
            M.rows[rng.randrange(4)][rng.randrange(4)] = rf(rng.randint(-3, 3))
        return M
    R, S = sparse(), sparse()
    assert R * S != S * R
    assert _assert_matches_dense(RepPair(R, S), 5)


def test_verify_boxes_only_failing_residuals(monkeypatch):
    """The conic cases case6b and case6c pass at n = 4 with no poly_gcd
    call and no RF made; a failing symbolic pair makes one RF, its witness
    value, per distinct failing residual."""
    passing = [make_md_pair(case, eps=eps, check=False)
               for case in ("case6b", "case6c") for eps in (1, -1)]
    base = passing[0]
    R = base.R.copy()
    R.rows[0][0] = rf(1) / (param("t") + 1)
    failing = RepPair(R, base.S, provenance="case6b, R[0][0] = 1/(t+1)")
    calls = Counter()
    gcd, init = scalar.poly_gcd, RF.__init__

    def counted_gcd(f, g):
        calls["poly_gcd"] += 1
        return gcd(f, g)

    def counted_init(self, *args, **kwargs):
        calls["RF"] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(scalar, "poly_gcd", counted_gcd)
    monkeypatch.setattr(RF, "__init__", counted_init)
    for pair in passing:
        reports = verify(pair, MIXED_DOUBLES, 4)
        assert len(reports) == 18 and all(r.is_zero for r in reports)
    assert calls == {}
    reports = verify(failing, MIXED_DOUBLES, 4)
    # the instances of one relation share one residual at level 3 or 2
    residuals = {r.relation.split("[")[0] for r in reports if not r.is_zero}
    assert residuals == {"braid_r", "invol_r", "mixed_rss", "mixed_srr"}
    assert calls["RF"] == len(residuals)
    assert any(not r.witness[2].den.is_constant() for r in reports
               if not r.is_zero)


# ---------------------------------------------------------------------------
# differential test: flat word images against the nested-dict oracle

_WIDE = 256  # a column shift far above any exponent the inputs reach


def _top_field_pair():
    """A failing pair whose last-sorted parameter q has the largest
    exponent: braid_r's image reaches q^21, which fills the top bit of a
    5-bit field, so a carry out of it would land in the column bits."""
    q = param("q")
    R = ExactMatrix.from_rows([[q ** 7, 0, 0, 0], [0, 0, p, 0], [0, 1, 0, 0],
                               [0, 0, 0, 1]])
    S = ExactMatrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                               [0, 0, 0, -1]])
    return RepPair(R, S, provenance="q^7")


def _constant_pair():
    """The a-glue R at p = 2, q = 5 next to an S with denominator 3, so the
    involution's identity side is scaled by c_S^2 at bits = 0."""
    R = make_involutive_braid("a-glue", p=2, q=5)
    S = ExactMatrix.from_ints([[3, 0, 0, 0], [0, 0, 1, 0], [0, 2, 0, 0],
                               [0, 0, 0, 3]], den=3)
    return RepPair(R, S, provenance="a-glue(2, 5), S/3")


def _assert_matches_nested(pair):
    """Every level-3 and level-2 word image that verify builds, and every
    residual entry (i, j, polynomial), equal the nested-dict products.
    Returns the cleared images."""
    images = _Cleared(pair, 3)
    shift = dict(zip(images.names, images.shifts))
    X = {sym: nested(_clear(M, _scan(M), shift, _WIDE)[0], _WIDE)
         for sym, M in (("r", pair.R), ("s", pair.S))}
    windows = {(k, lhs, rhs) for _, lhs, rhs, k, _ in MIXED_DOUBLES._local}
    for k, lhs, rhs in sorted(windows):
        letters = (_letters(lhs), _letters(rhs))
        entries, c = images.residual(lhs, rhs, k, letters)
        A, B = map(max, *letters)
        sides = [scaled(image(X, pair.N, word, k),
                        images._power(A - a, B - b))
                 for word, (a, b) in zip((lhs, rhs), letters)]
        assert list(entries) == list(nested_differences(*sides)), \
            (pair.provenance, lhs, rhs)
        assert c == images._power(A, B)
    for (k, word), M in images.cache.items():
        assert nested(M, images.bits) == image(X, pair.N, word, k), \
            (pair.provenance, word, k)
    return images


def test_flat_images_match_the_nested_oracle():
    A = ExactMatrix.from_rows([[zeta(3), 0], [1, 1]])
    for pair in _catalog_pairs([c for c, _ in ALL_CASES]):
        _assert_matches_nested(pair)
        _assert_matches_nested(apply_transform(Transform("local_conj", A),
                                               pair))
    _assert_matches_nested(_n3_pair())
    assert _assert_matches_nested(_constant_pair()).bits == 0
    images = _assert_matches_nested(_top_field_pair())
    assert images.names == ["p", "q"]
    top = max(key >> images.shifts[-1] & images.mask
              for M in images.cache.values() for row in M for key in row)
    assert top.bit_length() == images.bits - images.shifts[-1]
    assert not passes(_top_field_pair(), MIXED_DOUBLES, 3)


def test_verify_product_count(monkeypatch):
    """A MixedDoubles verify multiplies 12 pairs of images at every level,
    10 at level 3 (for the braid and mixed relations) and 2 at level 2 (for
    the involutions): each distinct level-3 or level-2 word is built once,
    from cached factors, and the far commutations add none."""
    levels = Counter()
    matmul = presentations._matmul

    def counted(A, B, bits):
        levels[len(A)] += 1
        return matmul(A, B, bits)
    monkeypatch.setattr(presentations, "_matmul", counted)
    for case, kw in (("case2", {}), ("case6a", {"eps": 1})):
        pair = make_md_pair(case, check=False, **kw)
        for n in (3, 4, 5):
            levels.clear()
            assert passes(pair, MIXED_DOUBLES, n)
            assert levels == {pair.N ** 3: 10, pair.N ** 2: 2}, (case, n)


def test_verify_hashes_no_denominator_of_one(monkeypatch):
    """The reader indexes every denominator 1 under one key without
    hashing it: a pair whose entries all have denominator 1 makes no
    ``Poly.__hash__`` call, and every other entry hashes its denominator
    once."""
    calls = Counter()
    poly_hash = Poly.__hash__

    def counted(self):
        calls["hash"] += 1
        return poly_hash(self)
    want = {("case2", ()): 0, ("case3-wangian", (("sign", 1),)): 0,
            ("case4", (("sign", 1),)): 2, ("case6a", (("eps", 1),)): 16}
    pairs = {key: make_md_pair(key[0], check=False, **dict(key[1]))
             for key in want}
    monkeypatch.setattr(Poly, "__hash__", counted)
    got = {}
    for key, pair in pairs.items():
        calls.clear()
        verify(pair, MIXED_DOUBLES, 3)
        got[key] = calls["hash"]
    assert got == want


# ---------------------------------------------------------------------------
# differential test: the one-walk reader against the three-walk one

def _reader_pairs(rng):
    """Every catalog pair and its cheap transforms, local_conj pairs over
    Q and over Q(zeta_3), S scaled by a Fraction, a parameter read only
    from a denominator, and the pairs above with a denominator other than
    1, with more than one, at N = 3 and in the constant form."""
    pairs = []
    zeta_conj = ExactMatrix.from_rows([[zeta(3), 0], [1, 1]])
    for pair in _catalog_pairs([c for c, _ in ALL_CASES]):
        pairs.append(pair)
        pairs += [apply_transform(Transform(kind), pair)
                  for kind in ("swap_rs", "transpose", "global_sign",
                               "antidiagonal")]
        A = ExactMatrix.from_rows([[rng.choice((-1, 1)), 0],
                                   [rng.choice((-1, 1)), rng.choice((-1, 1))]])
        pairs.append(apply_transform(Transform("local_conj", A), pair))
        pairs.append(apply_transform(Transform("local_conj", zeta_conj),
                                     pair))
        c = Fraction(rng.choice((-1, 1)) * rng.randint(2, 7),
                     rng.randint(2, 5))
        pairs.append(RepPair(pair.R, pair.S.scale(c)))
    pairs.append(make_md_pair("case6a", eps=-1, t="t", check=False))
    # u in a denominator only, after an entry over 1
    R = pairs[0].R.copy()
    R.rows[3][3] = rf(1) / (param("u") + 1)
    pairs.append(RepPair(R, pairs[0].S, provenance="R[3][3] = 1/(u+1)"))
    return pairs + [_n3_pair(), _high_degree_pair(), _top_field_pair(),
                    _constant_pair()]


def test_one_walk_reader_matches_the_three_walk_reader():
    rng = random.Random(29)
    seen = Counter()
    for pair in _reader_pairs(rng):
        span = rng.choice((2, 3, 6))
        images = _Cleared(pair, span)
        names, shifts, bits, X, c = three_walk_reader.cleared(pair, span)
        assert (images.names, images.shifts, images.bits) \
            == (names, shifts, bits), pair.provenance
        for sym in "rs":
            assert [list(row.items()) for row in images.X[sym]] \
                == [list(row.items()) for row in X[sym]], pair.provenance
            assert list(images.c[sym].items()) == list(c[sym].items())
        dens = {x.den for M in (pair.R, pair.S) if M._ints is None
                for row in M._rows for x in row if not x.is_zero()}
        seen["non-unit"] += any(not d.is_constant() for d in dens)
        seen["mixed"] += len(dens) > 1
        seen["cyc"] += any(isinstance(v, Cyc) for M in X.values()
                           for row in M for v in row.values())
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# products that cancel

def _cancelling_pair(rng, cyc):
    """(f, g, e): the terms a x^e1 and b x^(e1 + t) of f meet a c x^e3 and
    -b c x^(e3 + t) of g, so the coefficient of x^e in f g, e = e1 + e3 + t,
    cancels.  f's other terms have exponents above 32, where no product
    meets x^e."""
    def coeff():
        v = rng.choice((-3, -2, -1, 1, 2, 3))
        return Cyc(3, rng.randint(-2, 2), v) if cyc and rng.random() < 0.5 \
            else v
    e1, e3, t = rng.randrange(8), rng.randrange(8), rng.randint(1, 8)
    a, b, c = coeff(), coeff(), coeff()
    f = {e1: a, e1 + t: b}
    for _ in range(rng.randrange(3)):
        f.setdefault(rng.randrange(32, 48), coeff())
    return f, {e3: a * c, e3 + t: -b * c}, e1 + e3 + t


def _filtered_matmul(A, B, bits):
    """The product of flat matrices, term by term, zeros dropped."""
    mask, out = (1 << bits) - 1, []
    for arow in A:
        acc = {}
        for ka, va in arow.items():
            for kb, vb in B[ka >> bits].items():
                acc[kb + (ka & mask)] = acc.get(kb + (ka & mask), 0) + va * vb
        out.append({k: v for k, v in acc.items() if v != 0})
    return out


def test_cancelled_products_keep_no_zero_coefficient():
    """Seeded products over Z and Z[zeta_3] with a coefficient that cancels
    exactly: ``_pmul`` and ``_matmul`` return no zero coefficient, and
    otherwise the term-by-term product."""
    rng = random.Random(290)
    bits = 6
    for trial in range(200):
        f, g, e = _cancelling_pair(rng, cyc=trial % 2)
        h = presentations._pmul(f, g)
        assert e not in h and 0 not in h.values(), (f, g)
        # as a 1x1 matrix whose column field lies above every exponent
        assert h == _filtered_matmul([f], [g], 64)[0]
        # row 0 of A reads f's first term from row 0 of B and its second
        # from row 1: B holds g's terms, moved to a column col
        col = rng.randrange(3) << bits
        (e1, a), (e2, b) = list(f.items())[:2]
        (e3, c), (e4, d) = g.items()
        A = [{e1: a, (1 << bits) + e2: b}, {(2 << bits) + e1: a}]
        B = [{col + e4: d}, {col + e3: c}, {col + e3: c, col + e4: d}]
        out = presentations._matmul(A, B, bits)
        assert out[0] == {} and out == _filtered_matmul(A, B, bits), (A, B)
        assert all(0 not in row.values() for row in out)


# sha256 of the MixedDoubles reports of every catalog pair at n = 3 and 4,
# then of three pairs with S scaled by a Fraction at n = 3
_REPORTS_SHA256 = \
    "3273c1f9821127c35919cf7d086a19f3099326e7acf772fccc998d269407049b"


def test_verify_reports_are_unchanged():
    """The reports of passing pairs, and of failing ones whose witness
    values are boxed from the cleared pair (``box``, ``_unpack``), are the
    bytes that the three-walk reader gave."""
    h = hashlib.sha256()
    for case, kw in ALL_CASES:
        pair = make_md_pair(case, check=False, **kw)
        for n in (3, 4):
            h.update(json.dumps([r.to_json() for r in
                                 verify(pair, MIXED_DOUBLES, n)]).encode())
    failing = 0
    for (case, kw), c in zip((("case2", {}), ("case3", {}),
                              ("case7-fglue", {"sign": 1})),
                             (Fraction(3, 2), Fraction(-7, 5),
                              Fraction(5, 3))):
        base = make_md_pair(case, check=False, **kw)
        reports = verify(RepPair(base.R, base.S.scale(c)), MIXED_DOUBLES, 3)
        failing += sum(not r.is_zero for r in reports)
        h.update(json.dumps([r.to_json() for r in reports]).encode())
    assert failing == 6
    assert h.hexdigest() == _REPORTS_SHA256
