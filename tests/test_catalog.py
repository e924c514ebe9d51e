import hashlib
import json
import random
from fractions import Fraction

import pytest

from mdreps.catalog import (ALL_CASES, ConstraintViolation, Transform,
                            analysis_pair, antislash_matrix, apply_transform,
                            check_ds_equivalence, flip_matrix, is_involutive,
                            iter_all_cases, known_coincidences,
                            make_involutive_braid, make_manji, make_md_pair,
                            satisfies_ybe, w_conjugation_check,
                            w_conjugation_data)
from mdreps.matrix import ExactMatrix, embed_at, kron
from mdreps.presentations import BRAID, MIXED_DOUBLES, passes, verify
from mdreps.scalar import NonVanishing, param, rf


def m(rows):
    return ExactMatrix.from_rows(rows, N=2)


def test_involutive_families_symbolic():
    for fam in ("trivial", "f-glue", "a-glue", "fa-slash", "anti-slash"):
        M = make_involutive_braid(fam)
        assert is_involutive(M)
        assert satisfies_ybe(M)


def _ybe_dense(M):
    """M1 M2 M1 - M2 M1 M2 = 0 from dense level-3 products: the oracle for
    ``satisfies_ybe``, which checks braid_r[1] over the cleared pair."""
    M1, M2 = embed_at(M, 1, 3), embed_at(M, 2, 3)
    return (M1 * M2 * M1 - M2 * M1 * M2).is_zero()


def test_satisfies_ybe_matches_the_dense_oracle():
    fams = ("trivial", "f-glue", "a-glue", "fa-slash", "anti-slash")
    involutive = [make_involutive_braid(f, **kw) for f in fams
                  for kw in ({}, {"p": 2, "q": Fraction(-3, 5)})]
    manji = [make_manji(k, s) for k in ("P", "A", "N", "N'", "R")
             for s in (1, -1)]
    # a dense perturbation: a single entry often keeps the equation
    rng = random.Random(15)
    broken = [M + m([[rng.choice((-1, 0, 0, 1, Fraction(1, 2)))
                      for _ in range(4)] for _ in range(4)])
              for M in involutive + manji[-2:]]
    for M in involutive + manji + broken:
        assert satisfies_ybe(M) == _ybe_dense(M), M
        assert is_involutive(M) == (M * M).is_identity(), M
    assert all(map(satisfies_ybe, involutive))
    assert not any(map(satisfies_ybe, broken))


def test_fglue_first_row():
    p, q = param("p"), param("q")
    M = make_involutive_braid("f-glue")
    assert M.rows[0][0] == rf(1) and M.rows[0][1] == -p
    assert M.rows[0][2] == p and M.rows[0][3] == p * q


def test_antislash_is_11_22_exchange():
    M = make_involutive_braid("anti-slash")
    assert M.entry((1, 1), (2, 2)) == rf(1)
    assert M.entry((2, 2), (1, 1)) == rf(1)
    assert M.entry((1, 2), (1, 2)) == rf(1)


def test_known_coincidences():
    found = known_coincidences()
    assert ("f-glue", {"p": 0, "q": 0}, "flip") in found
    assert ("fa-slash", {"q": 1, "sign": 1}, "flip") in found


def test_manji_basis_elements():
    P = make_manji("P", 1)
    assert make_manji("R", 1, a=1, b=0, c=0, d=0) == P
    A = make_manji("A", -1)
    assert A.rows[0][3] == rf(-1) and A.rows[3][0] == rf(-1)


def test_manji_plus_satisfies_ybe_in_four_parameters():
    assert satisfies_ybe(make_manji("R", 1))


def test_manji_minus_involutive_branch_matches_case6c():
    # a + d = eps with a(a - eps) = b^2 makes the c=b member involutive, and
    # the matrix is the case-6c form at r = -a, y = b
    a, d, b = Fraction(9, 8), Fraction(-1, 8), Fraction(3, 8)
    S = make_manji("R", -1, a=a, b=b, c=b, d=d)
    assert is_involutive(S)
    r, y, eps = -a, b, 1
    assert r * r - y * y + eps * r == 0
    pr = make_md_pair("case6c", eps=1, r=r, y=y)
    assert pr.S == S


def test_all_cases_construct_and_verify_level3():
    seen = set()
    for case, kw, pair in iter_all_cases(check=True):
        seen.add(case)
    assert {"case1", "case2", "case3", "case3-wangian", "case4", "case4-glue",
            "case5", "case5-antidiag", "case6a", "case6b", "case6c",
            "case7-flip", "case7-antislash", "case7-aslash",
            "case7-fglue"} <= seen


def test_case2_shape():
    pr = make_md_pair("case2", p=3, q=7)
    assert pr.R.rows[0][3] == rf(3) and pr.S.rows[0][3] == rf(7)
    assert pr.R.rows[3][3] == rf(-1)
    with pytest.raises(ConstraintViolation):
        make_md_pair("case2", p=0, q=1)


@pytest.mark.parametrize("make,family,kw", [
    (make_involutive_braid, "fa-slash", {"q": 0}),
    (make_md_pair, "case2", {"p": 0, "q": 1}),
    (make_md_pair, "case3", {"q": 0, "s": 1}),
    (make_md_pair, "case4", {"p": 0, "s": 1}),
    (make_md_pair, "case4", {"p": 1, "s": 0}),
    (make_md_pair, "case5", {"p": 0, "s": 1}),
    (make_md_pair, "case5", {"p": 1, "s": 0}),
    (make_md_pair, "case5-antidiag", {"s": 0}),
    (make_md_pair, "case7-aslash", {"s": 0}),
])
def test_a_zero_parameter_is_refused(make, family, kw):
    with pytest.raises(ConstraintViolation,
                       match="^%s needs [a-z, ]+ != 0$" % family):
        make(family, **kw)


def test_case3_both_glue_parameters():
    pr = make_md_pair("case3", q=2, s=5)
    assert pr.R.rows[0][1] == rf(2) and pr.S.rows[0][1] == rf(5)
    assert pr.R.rows[0][3] == rf(-4) and pr.S.rows[0][3] == rf(-25)


def test_case6a_flip_point_realizes_case7():
    # eps=-1 with (z, x) = (1, 0) sits on the conic and makes S the flip
    pr = make_md_pair("case6a", eps=-1, z=1, x=0)
    assert pr.S == flip_matrix()
    swapped = apply_transform(Transform("swap_rs"), pr)
    assert swapped.R == flip_matrix() and swapped.S == antislash_matrix()
    assert passes(swapped, MIXED_DOUBLES, 3)


def test_case6_conic_rejection():
    with pytest.raises(ConstraintViolation):
        make_md_pair("case6a", eps=-1, z=1, x=1)


def test_case4_glue_sign_correlation():
    # the middle sign of the glued S equals the sign of p; flipping it breaks
    # the relations
    for pm in (1, -1):
        pr = make_md_pair("case4-glue", p=pm, s=3)
        assert pr.S.rows[1][2] == rf(pm)
        bad_S = pr.S.copy()
        bad_S.rows[1][2] = rf(-pm)
        bad_S.rows[2][1] = rf(-pm)
        from mdreps.matrix import RepPair
        bad = RepPair(pr.R, bad_S)
        assert not passes(bad, MIXED_DOUBLES, 3)


def test_transforms_roundtrip():
    pr = make_md_pair("case2", p=2, q=5)
    A = m([[1, 2], [0, 1]])
    for t in (Transform("swap_rs"), Transform("transpose"),
              Transform("global_sign"), Transform("antidiagonal"),
              Transform("local_conj", A),
              Transform("nonlocal_conj", kron(A, A))):
        back = apply_transform(t.inverse(), apply_transform(t, pr))
        assert back.R == pr.R and back.S == pr.S


def test_transforms_preserve_relations():
    cases = ["case2", "case3", "case5", "case6a"]
    A = m([[1, 3], [1, 1]])
    for case in cases:
        pr = make_md_pair(case, check=False)
        for kind in ("swap_rs", "transpose", "global_sign", "antidiagonal"):
            out = apply_transform(Transform(kind), pr)
            assert passes(out, MIXED_DOUBLES, 3), (case, kind)
        out = apply_transform(Transform("local_conj", A), pr)
        assert passes(out, MIXED_DOUBLES, 3), (case, "local_conj")


def test_ds_equivalence():
    pr = make_md_pair("case6a", eps=-1, t="t", check=False)
    x, y = param("x"), param("y")
    ok, _ = check_ds_equivalence(m([[x, y], [y, x]]), pr)
    assert ok
    ok2, _ = check_ds_equivalence(m([[x, y], [-y, -x]]), pr)
    assert not ok2
    ok3, _ = check_ds_equivalence(m([[1, 0], [0, 2]]), pr)
    assert not ok3
    okI, derived = check_ds_equivalence(ExactMatrix.identity(2, 1), pr)
    assert okI and derived is not None
    # numeric family member yields a valid derived pair
    okn, dern = check_ds_equivalence(m([[2, 1], [1, 2]]), pr)
    assert okn and passes(dern, MIXED_DOUBLES, 3)


def test_ds_necessity_numeric_sweep(rng):
    # solutions of the commutation among small integer matrices all have the
    # symmetric-constant-diagonal shape
    pr = make_md_pair("case6a", eps=-1, z=Fraction(-1, 3), x=Fraction(-2, 3),
                      check=False)
    hits = 0
    for _ in range(400):
        entries = [rng.randint(-3, 3) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2] == 0:
            continue  # the claim concerns invertible matrices only
        A = m([[entries[0], entries[1]], [entries[2], entries[3]]])
        ok, _ = check_ds_equivalence(A, pr)
        if ok:
            hits += 1
            assert entries[0] == entries[3] and entries[1] == entries[2]
    assert hits > 0


def test_nonlocal_and_local_flip_conjugations():
    # x R x = R(1/p) for the diagonal-flip braid matrix; the double-flip
    # conjugate of the same matrix is still a braid solution even though it is
    # not of commuting type, while the minus variant fails
    p = param("p")
    nv = NonVanishing(["p"])
    Rf = m([[1, 0, 0, 0], [0, 0, p, 0], [0, p.inverse(), 0, 0], [0, 0, 0, 1]])
    Ra = m([[1, 0, 0, 0], [0, 0, p, 0], [0, p.inverse(), 0, 0], [0, 0, 0, -1]])
    h = m([[0, 1], [1, 0]]) if False else ExactMatrix.from_rows([[0, 1], [1, 0]], N=2)
    x = kron(h, h)
    Rf_inv = m([[1, 0, 0, 0], [0, 0, p.inverse(), 0], [0, p, 0, 0],
                [0, 0, 0, 1]])
    assert x * Rf * x == Rf_inv
    v = kron(h, ExactMatrix.identity(2, 1))   # the displayed double flip
    conj = v * Rf * v
    expected = m([[0, 0, 0, p], [0, 1, 0, 0], [0, 0, 1, 0],
                  [p.inverse(), 0, 0, 0]])
    assert conj == expected
    from mdreps.matrix import RepPair
    assert passes(RepPair(conj, conj, constraints=nv), BRAID, 3)
    conj_a = v * Ra * v
    assert not passes(RepPair(conj_a, conj_a, constraints=nv), BRAID, 3)
    # x does not commute with Rf in general (not of the simultaneous type)
    assert not (x * Rf - Rf * x).is_zero()
    assert (x * Rf.evaluate({"p": -1}) - Rf.evaluate({"p": -1}) * x).is_zero()


def test_w_conjugation_symbolic_and_degenerate():
    assert w_conjugation_check()
    d = w_conjugation_data(1)
    # lam = 1 degenerates to (z, x) = (0, 0): both sides'flip data map
    # consistently
    assert d["z"].is_zero() and d["x"].is_zero()
    assert w_conjugation_check(1)
    # the substituted point satisfies the eps=-1 conic symbolically
    d = w_conjugation_data()
    z, x = d["z"], d["x"]
    assert (x * x - z * z + z).is_zero()


def test_case3_wangian_branch_is_exactly_wangian():
    pr = make_md_pair("case3-wangian", sign=1, check=False)
    assert pr.S == pr.R
    prm = make_md_pair("case3-wangian", sign=-1, check=False)
    assert prm.S == pr.R.scale(-1)


@pytest.mark.parametrize("case,kw", ALL_CASES)
def test_a_keyword_the_case_does_not_read_is_refused(case, kw):
    make_md_pair(case, check=False, **kw)
    with pytest.raises(ConstraintViolation, match="%s does not take pp$"
                       % case):
        make_md_pair(case, check=False, pp=2, **kw)


@pytest.mark.parametrize("case,kw,unread", [
    ("case6a", {"z": 1, "x": 0, "t": 2}, "t"),
    ("case6a", {"y": 1}, "y"),
    ("case6b", {"eps": 1, "z": 1}, "z"),
    ("case4-glue", {"sign": -1}, "sign"),
    ("case2", {"eps": -1}, "eps"),
    ("case7-flip", {"s": 2, "t": 3}, "s, t"),
])
def test_unread_keywords_are_named(case, kw, unread):
    with pytest.raises(ConstraintViolation,
                       match="^%s does not take %s$" % (case, unread)):
        make_md_pair(case, check=False, **kw)


def test_conic_point_with_a_missing_coordinate_fails_the_conic():
    with pytest.raises(ConstraintViolation, match="conic constraint"):
        make_md_pair("case6a", eps=-1, z=1, check=False)


def test_antislash_analysis_pair_keeps_t_symbolic():
    pair = analysis_pair("antislash")
    assert list(pair.params) == ["t"]
    assert pair.S == make_md_pair("case6a", eps=-1, t="t", check=False).S
    at = analysis_pair("antislash", z=Fraction(-1, 3), x=Fraction(-2, 3))
    assert not at.params and at.S == pair.S.evaluate({"t": 2})


# Every catalog output, one record each: the golden hash below pins them so a
# rewrite of the constructors cannot change a byte.
_GOLDEN_NUMERIC = ({"p": 2, "q": 5, "s": 3, "t": 2},
                   {"p": Fraction(-3, 2), "q": Fraction(7, 3),
                    "s": Fraction(-2, 5), "t": Fraction(1, 2)})
# a conic case's point coordinates, on its conic and off it, by eps
_GOLDEN_POINTS = {
    "case6a": lambda eps: ({"z": 0, "x": 0}, {"z": 5, "x": 0}, {"z": 1}),
    "case6b": lambda eps: ({"y": Fraction(eps, 2), "r": Fraction(1, 2)},
                           {"y": 5, "r": Fraction(1, 2)}),
    "case6c": lambda eps: ({"r": 0, "y": 0}, {"r": 5, "y": 0}),
}
_GOLDEN_READS = {
    "case1": (), "case2": ("p", "q"), "case3-wangian": ("p", "q"),
    "case3": ("q", "s"), "case4": ("p", "s"), "case4-glue": ("s",),
    "case5": ("p", "s"), "case5-antidiag": ("s",), "case6a": ("t",),
    "case6b": ("t",), "case6c": ("t",), "case7-flip": (),
    "case7-antislash": (), "case7-aslash": ("s",), "case7-fglue": ("s",),
}
CATALOG_SHA256 = (
    "9f581ccabde26df1a6664a62d89ab0232151b6e4f65474a199a53b31edd4b809")


def _pair_record(label, pair):
    return [label, pair.R.to_json(), pair.S.to_json(), list(pair.params),
            repr(pair.constraints), pair.provenance]


def _catalog_outputs():
    def attempt(label, make):
        try:
            out = make()
        except ConstraintViolation as exc:
            return [label, "refused", str(exc)]
        if isinstance(out, ExactMatrix):
            return [label, out.to_json()]
        return _pair_record(label, out)

    def numeric(kw):
        return {k: str(v) if isinstance(v, Fraction) else v
                for k, v in kw.items()}

    out = []
    for case, kw in ALL_CASES:
        sets = [{}] + [{k: vals[k] for k in _GOLDEN_READS[case]}
                       for vals in _GOLDEN_NUMERIC]
        if case in _GOLDEN_POINTS:
            sets += [{"t": 3}, {"t": 0}, *_GOLDEN_POINTS[case](kw["eps"])]
        for extra in sets:
            args = dict(kw, **extra)
            out.append(attempt(["md", case, numeric(args)],
                               lambda: make_md_pair(case, **args)))
    for case, args in (("case2", {"p": 0}), ("case4", {"s": 0}),
                       ("case4-glue", {"p": 2}), ("case2", {"pp": 2}),
                       ("case6a", {"eps": 2}), ("case8", {})):
        out.append(attempt(["md", case, args],
                           lambda: make_md_pair(case, **args)))
    for fam in ("trivial", "f-glue", "a-glue", "fa-slash", "anti-slash"):
        for args in ({}, {"p": 2, "q": 5}, {"q": Fraction(-3, 2), "sign": -1},
                     {"p": 0, "q": 0}):
            out.append(attempt(["braid", fam, numeric(args)],
                               lambda: make_involutive_braid(fam, **args)))
    for kind in ("P", "A", "N", "N'", "R"):
        for sign in (1, -1):
            out.append(attempt(["manji", kind, sign],
                               lambda: make_manji(kind, sign)))
    out.append(attempt(["manji", "R", "numeric"],
                       lambda: make_manji("R", -1, 2, 3, Fraction(1, 2), -5)))
    for fam, args in (("a-glue", {}), ("a-glue", {"p": 2, "q": 5}),
                      ("f-glue", {}), ("f-glue", {"p": 2, "q": 5}),
                      ("antislash", {}), ("antislash", {"t": 3}),
                      ("f-glue", {"s": 2}), ("antislash", {"q": 2}),
                      ("b-glue", {})):
        out.append(attempt(["analysis", fam, args],
                           lambda: analysis_pair(fam, **args)))
    base = make_md_pair("case2")
    A = m([[1, 2], [0, 1]])
    U = kron(A, m([[2, 1], [1, 1]]))
    ts = [Transform(kind) for kind in ("swap_rs", "transpose", "global_sign",
                                       "antidiagonal")]
    for kind, M in (("local_conj", A), ("nonlocal_conj", U)):
        ts += [Transform(kind, M), Transform(kind, M).inverse()]
    for t in ts:
        out.append(_pair_record(["transform", t.kind],
                                apply_transform(t, base)))
    out.append(["coincidences", repr(known_coincidences())])
    out.append(["flip", flip_matrix().to_json(), antislash_matrix().to_json()])
    d = w_conjugation_data()
    out.append(["w"] + [d[k].to_json() for k in ("W", "Rp", "Sp", "R", "S")]
               + [str(d["z"]), str(d["x"])])
    return out


def test_catalog_outputs_match_the_golden_sha256():
    text = json.dumps(_catalog_outputs(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256
