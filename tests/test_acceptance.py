"""Acceptance suite: every criterion is exact (symbolic zero or exact integer
data); each test prints one pass/fail line."""

import random
from fractions import Fraction

from mdreps.catalog import (analysis_pair, is_involutive, iter_all_cases,
                            make_involutive_braid, make_manji, make_md_pair,
                            satisfies_ybe, check_ds_equivalence,
                            w_conjugation_check)
from mdreps.ccwg import (all_ones_glue, check_closure, compositions,
                         glue_nilpotency, order_by_first_instance,
                         project_glue, random_ccwg, split_lemma_check)
from mdreps.clifford import (Character, classify_small_dims,
                             dimension_formula_holds, induce,
                             irreps_of_subgroup, is_irreducible,
                             orbit_and_stabilizer)
from mdreps.matrix import ExactMatrix, RepPair, kron, sparse_nullspace
from mdreps.mdd import (babeda_from_md, babeda_to_md,
                        md_defining_relation_words, perm_transposition,
                        random_element)
from mdreps.presentations import BRAID, MIXED_DOUBLES, anomaly, passes, verify
from mdreps.scalar import NonVanishing, Poly, param, poly_divmod_exact, rf, zeta
from mdreps.structure import (algebra_dims, commutant, decompose,
                              fglue_commutant_shape_ok, find_idempotents,
                              semisimple_quotient_dims, x_trichotomy)


def _report(number, label, ok):
    print("ACCEPTANCE %d (%s): %s" % (number, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (number, label)


def test_criterion_1_classification_validity():
    ok = True
    for case, kw, pair in iter_all_cases(check=False):
        for n in (3, 4):
            if not passes(pair, MIXED_DOUBLES, n):
                print("  case %s %s fails at level %d" % (case, kw, n))
                ok = False
    _report(1, "all classification cases pass the relations at n=3 and n=4",
            ok)


def test_criterion_2_transversal_and_manji():
    ok = True
    for fam in ("trivial", "f-glue", "a-glue", "fa-slash", "anti-slash"):
        M = make_involutive_braid(fam)
        ok = ok and is_involutive(M) and satisfies_ybe(M)
    # the 4-parameter point-symmetric matrix satisfies the Yang-Baxter
    # equation identically
    ok = ok and satisfies_ybe(make_manji("R", 1))
    _report(2, "involutive transversal and 4-parameter Yang-Baxter family",
            ok)


def _linear_rows_from_anomaly(An, unknowns):
    """Rows of the linear system 'anomaly = 0' over Q(p); entries of the
    anomaly are homogeneous linear in the unknowns."""
    rows = []
    for i in range(An.nrows):
        for j in range(An.ncols):
            e = An.rows[i][j]
            if e.is_zero():
                continue
            row = {}
            for k, u in enumerate(unknowns):
                # coefficient of u: strip one power of u from matching terms
                terms = {}
                for mono, cf in e.num.terms.items():
                    md = dict(mono)
                    if md.get(u) == 1:
                        rest = tuple(sorted((x, ee) for x, ee in md.items()
                                            if x != u))
                        terms[rest] = cf
                if terms:
                    row[k] = rf(Poly(terms)) / rf(e.den)
            if row:
                rows.append(row)
    return rows


def test_criterion_3_proof_step_oracle():
    names = ["a", "b", "c", "d", "e", "f", "g", "h", "j", "k", "l", "m",
             "n", "s", "t", "r"]
    P = {nm: param(nm) for nm in names}
    p = param("p")
    S = ExactMatrix.from_rows([[P["a"], P["b"], P["c"], P["d"]],
                               [P["e"], P["f"], P["g"], P["h"]],
                               [P["j"], P["k"], P["l"], P["m"]],
                               [P["n"], P["s"], P["t"], P["r"]]])
    R = ExactMatrix.from_rows([[1, 0, 0, p], [0, 0, 1, 0], [0, 1, 0, 0],
                               [0, 0, 0, -1]])
    pair = RepPair(R, S, constraints=NonVanishing(["p"]))
    An = anomaly(pair, "SRR", 3)
    rows = _linear_rows_from_anomaly(An, names)
    basis = sparse_nullspace(rows, len(names), NonVanishing(["p"]))
    ok = len(basis) == 4
    # the solution space is exactly the displayed intermediate form
    # [[a,0,0,d],[0,f,f-r,0],[0,a-f,a-f+r,0],[0,0,0,r]]
    def form(a, d, f, r):
        vec = {nm: rf(0) for nm in names}
        vec.update({"a": rf(a), "d": rf(d), "f": rf(f), "r": rf(r)})
        vec["g"] = rf(f) - rf(r)
        vec["k"] = rf(a) - rf(f)
        vec["l"] = rf(a) - rf(f) + rf(r)
        return [vec[nm] for nm in names]
    expected = [form(1, 0, 0, 0), form(0, 1, 0, 0), form(0, 0, 1, 0),
                form(0, 0, 0, 1)]
    # mutual containment: every expected generator kills the anomaly rows
    for vec in expected:
        for row in rows:
            acc = rf(0)
            for k, cf in row.items():
                acc = acc + cf * vec[k]
            ok = ok and acc.is_zero()
    # trace of the solved form with a = 1 is 2 + 2r
    fsym, dsym, rsym = param("f"), param("d"), param("r")
    Ssol = ExactMatrix.from_rows(
        [[1, 0, 0, dsym], [0, fsym, fsym - rsym, 0],
         [0, 1 - fsym, 1 - fsym + rsym, 0], [0, 0, 0, rsym]])
    trace = Ssol.trace()
    ok = ok and (trace - (2 + 2 * rsym)).is_zero()
    # involutivity pins r^2 = 1; the r = 1 branch collapses to S = I, which
    # is not a valid partner for the glued R
    sq = Ssol * Ssol - ExactMatrix.identity(2, 2)
    ok = ok and (sq.rows[3][3] - (rsym * rsym - 1)).is_zero()
    S_r1 = Ssol.evaluate({"r": 1, "f": 1, "d": 0})
    ok = ok and S_r1.is_identity()
    ok = ok and not passes(RepPair(R, ExactMatrix.identity(2, 2),
                                   constraints=NonVanishing(["p"])),
                           MIXED_DOUBLES, 3)
    # at r = -1 the remaining relation residuals force f = 0 and give the
    # classified partner, up to the overall sign
    Sm = ExactMatrix.from_rows(
        [[1, 0, 0, dsym], [0, fsym, fsym + 1, 0], [0, 1 - fsym, -fsym, 0],
         [0, 0, 0, -1]])
    ok = ok and (Sm * Sm).is_identity()
    pair_f = RepPair(R, Sm, constraints=NonVanishing(["p"]))
    residuals = [rep for rep in verify(pair_f, MIXED_DOUBLES, 3)
                 if not rep.is_zero]
    ok = ok and bool(residuals)
    forced = False
    for rep in residuals:
        _, _, val = rep.witness
        quotient = poly_divmod_exact(val.num, Poly.var("f"))
        if quotient is not None:
            forced = True
    ok = ok and forced
    S_final = Sm.evaluate({"f": 0, "d": 7})
    ok = ok and passes(RepPair(R, S_final, constraints=NonVanishing(["p"])),
                       MIXED_DOUBLES, 3)
    target = make_md_pair("case2", q=7, check=False).S
    ok = ok and S_final == target
    ok = ok and passes(RepPair(R, S_final.scale(-1),
                               constraints=NonVanishing(["p"])),
                       MIXED_DOUBLES, 3)
    _report(3, "generic-ansatz elimination recovers the classified partner",
            ok)


def test_criterion_4_group_model():
    ok = True
    for n in (3, 4, 5):
        for rid, word in md_defining_relation_words(n):
            if not babeda_from_md(word, n).is_identity():
                print("  relation %s survives at n=%d" % (rid, n))
                ok = False
    rng = random.Random(20240817)
    for _ in range(100):
        n = rng.randint(2, 5)
        g = random_element(n, rng)
        if babeda_from_md(babeda_to_md(g), n) != g:
            ok = False
    _report(4, "relation words die and the word round trip is the identity",
            ok)


def test_criterion_5_clifford_machine():
    ok = True
    a = param("a")
    gen_nv = NonVanishing(["a", Poly.var("a") - Poly.const(1),
                           Poly.var("a") + Poly.const(1)])
    # n = 2 display
    v = param("v")
    chi2 = Character.from_vector(2, [v])
    st2 = orbit_and_stabilizer(chi2)
    rep2 = induce(chi2, irreps_of_subgroup(st2.subgroup, 2)[0], st2)
    ok = ok and rep2.x(1, 2).rows[0][0] == v
    ok = ok and rep2.x(1, 2).rows[1][1] == v.inverse()
    ok = ok and [[str(e) for e in row] for row in rep2.sigma(1).rows] == \
        [["0", "1"], ["1", "0"]]
    # 2d family: x-images match the display exactly; the sigma images realize
    # the displayed family up to relabeling the stabilizer character
    # (witness printed)
    chi = Character.from_vector(3, [a, a.inverse(), a])
    st = orbit_and_stabilizer(chi)
    taus = irreps_of_subgroup(st.subgroup, 3)
    w = zeta(3)
    displayed = {str(rf(w) ** i): i for i in range(3)}
    witness = {}
    for idx, tau in enumerate(taus):
        rep = induce(chi, tau, st)
        ok = ok and dimension_formula_holds(rep) and rep.dim == 2
        ok = ok and rep.x(1, 2).rows[0][0] == a
        ok = ok and rep.x(1, 3).rows[0][0] == a.inverse()
        ok = ok and [[str(e) for e in row] for row in rep.sigma(1).rows] == \
            [["0", "1"], ["1", "0"]]
        M23 = rep.perm(perm_transposition(3, 2, 3))
        top = str(M23.rows[0][1])
        ok = ok and top in displayed
        witness[idx] = displayed[top]
        ok = ok and is_irreducible(rep.all_generators(), gen_nv)
    ok = ok and sorted(witness.values()) == [0, 1, 2]
    print("  2d family witness (stabilizer character -> displayed member):",
          witness)
    # 3d display, exactly
    for pm in (1, -1):
        chi3 = Character.from_vector(3, [a, a, pm])
        st3 = orbit_and_stabilizer(chi3)
        for tau in irreps_of_subgroup(st3.subgroup, 3):
            rep3 = induce(chi3, tau, st3)
            ok = ok and dimension_formula_holds(rep3) and rep3.dim == 3
            th = str(tau(perm_transposition(3, 2, 3)).rows[0][0])
            ok = ok and [str(rep3.x(1, 2).rows[k][k]) for k in range(3)] == \
                ["a", "(1)/(a)", str(pm)]
            ok = ok and [[str(e) for e in row]
                         for row in rep3.perm(perm_transposition(3, 1, 2)).rows] \
                == [["0", "1", "0"], ["1", "0", "0"], ["0", "0", th]]
            ok = ok and is_irreducible(rep3.all_generators(), gen_nv)
    # classification counts
    r31 = classify_small_dims(3, 1)
    ok = ok and sum(e["tau_choices"] for e in r31) == 4
    r32 = classify_small_dims(3, 2)
    fams = [e for e in r32 if e["kind"] == "family"]
    ok = ok and len(fams) == 1 and fams[0]["free_params"] == 1 \
        and fams[0]["tau_choices"] == 3
    ok = ok and all(e["boundary_of_family"] for e in r32
                    if e["kind"] == "isolated")
    r42 = classify_small_dims(4, 2)
    ok = ok and sum(e["tau_choices"] for e in r42) == 2 \
        and all(e["kind"] == "isolated" for e in r42)
    r33 = classify_small_dims(3, 3)
    fams3 = [e for e in r33 if e["kind"] == "family"]
    ok = ok and len(fams3) == 2 and all(e["tau_choices"] == 2 for e in fams3)
    _report(5, "little-groups machine reproduces the worked examples", ok)


def test_criterion_6_structure_numbers():
    ok = True
    nv_fg = NonVanishing(["p", "q", Poly.var("q") - Poly.var("p"),
                          Poly.var("p") + Poly.var("q")])
    nv_ag = NonVanishing(["p", "q", Poly.var("q") - Poly.var("p")])
    # symbolic commutant dimensions at n = 3
    fg = analysis_pair("f-glue")
    com_fg = commutant([M for _, M in fg.generator_images(3)], nv_fg)
    ok = ok and com_fg.dim == 6
    ag = analysis_pair("a-glue")
    com_ag = commutant([M for _, M in ag.generator_images(3)], nv_ag)
    ok = ok and com_ag.dim == 4
    nv_t = NonVanishing(["t", Poly.var("t") - Poly.const(1),
                         Poly.var("t") + Poly.const(1)])
    asl = analysis_pair("antislash", t="t")
    com_as = commutant([M for _, M in asl.generator_images(3)], nv_t)
    ok = ok and com_as.dim == 6
    print("  commutant dims (f-glue, a-glue, antislash) at n=3:",
          (com_fg.dim, com_ag.dim, com_as.dim))
    # a-glue decompositions and algebra data
    agp = analysis_pair("a-glue", p=2, q=5)
    rep3 = decompose(agp, 3, rng=random.Random(99))
    ok = ok and rep3.dims() == [4, 4]
    ok = ok and all(s["status"] == "indecomposable" for s in rep3.summands)
    dims_n3 = [algebra_dims(s["generators"]) for s in rep3.summands]
    for ad in dims_n3:
        ok = ok and ad["dim"] == 9 and ad["radical"] == 3
        ok = ok and sorted(ad["simples"]) == [1, 1, 2]
    rep4 = decompose(agp, 4, rng=random.Random(7))
    ok = ok and rep4.dims() == [8, 8]
    ok = ok and all(s["status"] == "indecomposable" for s in rep4.summands)
    dims_n4 = [algebra_dims(s["generators"]) for s in rep4.summands]
    pairs_n4 = sorted((ad["dim"], ad["radical"]) for ad in dims_n4)
    ok = ok and (35, 15) in pairs_n4
    ok = ok and all(ad["ss"] == 20 and sorted(ad["simples"]) == [1, 1, 3, 3]
                    for ad in dims_n4)
    print("  a-glue n=4 per-summand (dim, radical):", pairs_n4)
    rep5 = decompose(agp, 5, rng=random.Random(17))
    ok = ok and rep5.dims() == [16, 16]
    ok = ok and all(s["status"] == "indecomposable" for s in rep5.summands)
    # f-glue indecomposable for n = 3, 4, 5 at q != p
    fgp = analysis_pair("f-glue", p=2, q=5).evaluate({"p": 2, "q": 5})
    for n in (3, 4, 5):
        com = commutant([M for _, M in fgp.generator_images(n)])
        ok = ok and fglue_commutant_shape_ok(com.basis)
        res = find_idempotents(com)
        ok = ok and res["kind"] == "indecomposable"
    # antislash decomposition with the stated 3d spectra
    zv, xv = Fraction(-1, 3), Fraction(-2, 3)
    asp = analysis_pair("antislash", z=zv, x=xv)
    repa = decompose(asp, 3, rng=random.Random(4))
    ok = ok and repa.dims() == [1, 1, 3, 3]
    ok = ok and all(s["status"] == "irreducible" for s in repa.summands)
    lam, lam_inv = -2 * zv + 1 + 2 * xv, -2 * zv + 1 - 2 * xv
    for s in repa.summands:
        if s["dim"] == 3:
            vals = sorted(v for v, _, _ in s["x_spectrum"])
            ok = ok and vals == sorted([str(rf(1)), str(rf(lam)),
                                        str(rf(lam_inv))])
    # doubled Pascal row at n = 4
    ok = ok and semisimple_quotient_dims(agp, 4) == [1, 1, 1, 1, 3, 3, 3, 3]
    _report(6, "structure invariants match the reported numbers", ok)


def test_criterion_6_aglue_n6_without_closure(monkeypatch):
    # ROADMAP item 1: the spin certificates label both 32-dimensional
    # leaves, so no Burnside closure runs
    import mdreps.structure as structure
    calls = []
    closure = structure.generated_algebra

    def counted(*args, **kw):
        calls.append(args)
        return closure(*args, **kw)
    monkeypatch.setattr(structure, "generated_algebra", counted)
    rep = decompose(analysis_pair("a-glue", p=2, q=5), 6,
                    rng=random.Random(99))
    ok = rep.dims() == [32, 32] and calls == []
    ok = ok and all(s["status"] == "indecomposable" for s in rep.summands)
    _report(6, "a-glue n=6 splits as [32, 32] with no closure", ok)


def test_criterion_7_equivalences():
    ok = True
    p = param("p")
    nv = NonVanishing(["p"])
    h = ExactMatrix.from_rows([[0, 1], [1, 0]], N=2)
    Rf = ExactMatrix.from_rows([[1, 0, 0, 0], [0, 0, p, 0],
                                [0, p.inverse(), 0, 0], [0, 0, 0, 1]])
    Ra = ExactMatrix.from_rows([[1, 0, 0, 0], [0, 0, p, 0],
                                [0, p.inverse(), 0, 0], [0, 0, 0, -1]])
    x = kron(h, h)
    Rf_inv = ExactMatrix.from_rows([[1, 0, 0, 0], [0, 0, p.inverse(), 0],
                                    [0, p, 0, 0], [0, 0, 0, 1]])
    ok = ok and (x * Rf * x) == Rf_inv
    v = kron(h, ExactMatrix.identity(2, 1))
    conj_f = v * Rf * v
    ok = ok and passes(RepPair(conj_f, conj_f, constraints=nv), BRAID, 3)
    conj_a = v * Ra * v
    ok = ok and not passes(RepPair(conj_a, conj_a, constraints=nv), BRAID, 3)
    ok = ok and w_conjugation_check()
    # DS commutant at the anti-slash case: the symmetric two-parameter family
    # commutes symbolically; the complementary sign branch does not; and a
    # seeded sweep over invertible integer matrices finds no others
    pr6 = make_md_pair("case6a", eps=-1, t="t", check=False)
    xs, ys = param("x"), param("y")
    okA, _ = check_ds_equivalence(
        ExactMatrix.from_rows([[xs, ys], [ys, xs]], N=2), pr6)
    ok = ok and okA
    okB, _ = check_ds_equivalence(
        ExactMatrix.from_rows([[xs, ys], [-ys, -xs]], N=2), pr6)
    ok = ok and not okB
    rng = random.Random(11)
    pr6n = make_md_pair("case6a", eps=-1, z=Fraction(-1, 3),
                        x=Fraction(-2, 3), check=False)
    hits = 0
    for _ in range(500):
        ent = [rng.randint(-4, 4) for _ in range(4)]
        if ent[0] * ent[3] - ent[1] * ent[2] == 0:
            continue
        A = ExactMatrix.from_rows([[ent[0], ent[1]], [ent[2], ent[3]]], N=2)
        good, _ = check_ds_equivalence(A, pr6n)
        if good:
            hits += 1
            ok = ok and ent[0] == ent[3] and ent[1] == ent[2]
    ok = ok and hits > 0
    _report(7, "conjugation equivalences and the DS commutant family", ok)


def test_criterion_8_ccwg_suite():
    ok = True
    for N in (1, 2, 3):
        for n in range(1, 6):
            ok = ok and order_by_first_instance(N, n) == compositions(N, n)
    for (N, n, m) in ((2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 1, 1),
                      (3, 2, 2)):
        ok = ok and split_lemma_check(N, n, m)["ok"]
    rng = random.Random(20240817)
    shapes = [(2, 2), (2, 3), (3, 2)]
    count = 0
    for i in range(1000):
        N, n = shapes[i % 3]
        A = random_ccwg(N, n, rng)
        B = random_ccwg(N, n, rng)
        rep = check_closure(A, B)
        ok = ok and rep["ok"] and rep["K_multiplicative"]
        count += 1
    ok = ok and count == 1000
    out = glue_nilpotency(2, 2, rng=rng)
    ok = ok and out["chain_length"] == 3 \
        and out["witness_power_Lminus1_nonzero"]
    G = all_ones_glue(2, 2)
    ok = ok and (G * G * G).is_zero() and not (G * G).is_zero()
    for (N, n) in ((2, 3), (3, 2)):
        glue_nilpotency(N, n, rng=rng)
    _report(8, "order equivalence, split clauses, closure, nilpotency", ok)


def test_criterion_9_trichotomy():
    expected = [
        ("case1", {"sign": 1}, "a"),
        ("case2", {"p": 2, "q": 5}, "c"),
        ("case2", {"p": 3, "q": 3}, "a"),
        ("case3-wangian", {"p": 2, "q": 3, "sign": -1}, "a"),
        ("case3", {"q": 2, "s": 5}, "c"),
        ("case3", {"q": 2, "s": 2}, "a"),
        ("case4", {"p": 2, "s": 3, "sign": 1}, "b"),
        ("case4", {"p": 2, "s": -2, "sign": 1}, "a"),
        ("case4-glue", {"p": 1, "s": 3}, "c"),
        ("case4-glue", {"p": -1, "s": 3}, "c"),
        ("case5", {"p": 2, "s": 3, "sign": 1}, "b"),
        ("case5", {"p": 2, "s": -2, "sign": -1}, "a"),
        ("case5-antidiag", {"s": 3, "sign": 1}, "a"),
        ("case6a", {"eps": -1, "z": Fraction(-1, 3), "x": Fraction(-2, 3)},
         "b"),
        ("case6a", {"eps": 1, "t": 2}, "b"),
        ("case6b", {"eps": 1, "t": 2}, "b"),
        ("case6b", {"eps": -1, "t": 3}, "b"),
        ("case6c", {"eps": 1, "t": 2}, "a"),
        ("case6c", {"eps": -1, "t": 3}, "a"),
        ("case7-flip", {"sign": 1}, "a"),
        ("case7-antislash", {"sign": 1}, "a"),
        ("case7-aslash", {"s": 3, "sign": 1}, "b"),
        ("case7-fglue", {"s": 2, "sign": 1}, "c"),
    ]
    ok = True
    for case, kw, want in expected:
        pr = make_md_pair(case, check=False, **kw)
        got, _ = x_trichotomy(pr)
        if got != want:
            print("  %s %s: expected %s got %s" % (case, kw, want, got))
            ok = False
    _report(9, "image trichotomy matches the case analysis", ok)
