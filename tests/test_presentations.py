import random

import pytest

from mdreps.catalog import (ALL_CASES, make_involutive_braid, make_manji,
                            make_md_pair)
from mdreps.matrix import ExactMatrix, RepPair, embed_at, words
from mdreps.presentations import (BRAID, LOOP_BRAID, MIXED_DOUBLES, SYM,
                                  VIRTUAL_BRAID, RelationSet, anomaly, passes,
                                  verify)
from mdreps.scalar import NonVanishing, param, rf

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


def _dense_reports(pair, n):
    """(relation, level, is_zero, witness) of every MixedDoubles relation
    at level n, each from the first nonzero entry of the full N^n x N^n
    residual lhs - rhs.  Every other relation set is a subset of these."""
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
    out = {}
    for rel_id, lhs, rhs in MIXED_DOUBLES.relations(n):
        res = word_matrix(lhs) - word_matrix(rhs)
        wit = next(((ws[i], ws[j], e) for i, row in enumerate(res.rows)
                    for j, e in enumerate(row) if not e.is_zero()), None)
        out[rel_id] = (rel_id, n, wit is None, wit)
    return out


def _assert_matches_dense(pair, n):
    """Returns the number of failing MixedDoubles relations."""
    dense = _dense_reports(pair, n)
    for relset in _RELSETS:
        got = [(r.relation, r.level, r.is_zero, r.witness)
               for r in verify(pair, relset, n)]
        want = [dense[rel_id] for rel_id, _, _ in relset.relations(n)]
        assert got == want, (pair.provenance, relset.name, n)
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
