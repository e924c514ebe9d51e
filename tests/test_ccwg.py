import os
import random
import subprocess
import sys
from itertools import product
from math import comb

import pytest
import word_pair_split

from mdreps.catalog import make_md_pair
from mdreps.ccwg import (CC, FORBIDDEN, GLUE, all_ones_glue, chain_length,
                         check_closure,
                         compositions, f_over, glue_mask, glue_nilpotency,
                         is_cc, is_ccwg, less, orbit_rep,
                         order_by_first_instance, project_K, project_glue,
                         random_ccwg, split_lemma_check)
from mdreps.matrix import ExactMatrix, kron
from mdreps.presentations import MIXED_DOUBLES, passes
from mdreps.matrix import RepPair
from mdreps.scalar import RF_ZERO, InvariantError, rf


def m(rows, N=2):
    return ExactMatrix.from_rows(rows, N=N)


def test_letter_counts():
    assert f_over((1, 1, 2, 1), 2)[1] == 1
    assert f_over((2, 1, 1, 1), 3) == (3, 1, 0)
    assert f_over((1,) * 5, 3) == (5, 0, 0)


def test_first_difference_comparison():
    assert less((5, 3, 1, 0, 4), (5, 3, 2, 0, 3)) == ">"
    assert less((4, 0, 0), (3, 1, 0)) == "<"
    assert less((1, 2), (1, 2)) == "="
    assert less((1, 2), (1, 1, 1)) == "incomparable"
    assert less((2, 0), (1, 2)) == "incomparable"


def test_order_equivalence_exhaustive():
    for N in (1, 2, 3):
        for n in range(1, 6):
            assert order_by_first_instance(N, n) == compositions(N, n)


def test_compositions_are_every_tuple_of_the_sum_once_in_order():
    # the brute-force set of N-tuples in 0..n with sum n, in descending
    # lexicographic order, and the stars-and-bars count
    for N in range(1, 6):
        for n in range(0, 7):
            want = sorted((c for c in product(range(n + 1), repeat=N)
                           if sum(c) == n), reverse=True)
            assert compositions(N, n) == want
            assert len(want) == comb(n + N - 1, N - 1)
    assert compositions(1, 10 ** 9) == [(10 ** 9,)]
    assert compositions(998, 0) == [(0,) * 998]


def test_revlex_table_start():
    lst = ["".join(map(str, c)) for c in compositions(3, 4)]
    assert lst[:6] == ["400", "310", "301", "220", "211", "202"]


def test_orbit_reps():
    assert orbit_rep((5, 3, 1, 0, 4)) == (5, 5, 5, 5, 3, 2, 2, 2, 1, 1, 1, 1, 1)
    assert orbit_rep((4, 0, 0)) == (1, 1, 1, 1)
    assert orbit_rep((0, 0, 3)) == (3, 3, 3)


def test_ccwg_membership():
    upper = m([[1, 1, 1, 1], [0, 1, 1, 1], [0, 1, 1, 1], [0, 0, 0, 1]])
    assert is_ccwg(upper)
    # a nonzero entry at the (22, 11) position is forbidden
    anti = m([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
    assert not is_ccwg(anti)
    # non-square matrices are CCwg only when zero
    Z = ExactMatrix.zeros(2, 2, 1)
    assert is_ccwg(Z)
    Znz = ExactMatrix.zeros(2, 2, 1)
    Znz.rows[0][0] = rf(1)
    assert not is_ccwg(Znz)


def test_glue_patterned_classification_cases():
    for case, kw in (("case1", {}), ("case2", {}), ("case3", {}),
                     ("case4", {}), ("case4-glue", {"p": 1}), ("case5", {})):
        pr = make_md_pair(case, check=False, **kw)
        assert is_ccwg(pr.R) and is_ccwg(pr.S), case
    pr6 = make_md_pair("case6a", eps=-1, check=False)
    assert not is_ccwg(pr6.S)
    pr5a = make_md_pair("case5-antidiag", check=False)
    assert not is_ccwg(pr5a.S)


def test_projections():
    D = m([["al", "be"], [0, "ga"]], N=2)
    K = project_K(D)
    assert K.rows[0][1].is_zero() and K.rows[0][0] == rf("al")
    assert project_K(K) == K
    assert (project_K(D) + project_glue(D)) == D
    CC = m([[1, 0, 0, 0], [0, 2, 3, 0], [0, 4, 5, 0], [0, 0, 0, 6]])
    assert project_K(CC) == CC and is_cc(CC)


def test_projection_zeroes_exactly_the_glue_slots():
    # 4x4 upper-glue example: glue at (11,21),(11,12),(11,22),(21,22),(12,22)
    M = m([["a", "b", "c", "d"], [0, "f", "g", "h"], [0, "k", "l", "mm"],
           [0, 0, 0, "r"]])
    K = project_K(M)
    killed = {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    for i in range(4):
        for j in range(4):
            if (i, j) in killed:
                assert K.rows[i][j].is_zero()
            else:
                assert K.rows[i][j] == M.rows[i][j]


def test_k_projected_glue_cases_stay_valid_pairs():
    for case, kw in (("case2", {}), ("case3", {}), ("case4-glue", {"p": 1}),
                     ("case4-glue", {"p": -1}), ("case5", {})):
        pr = make_md_pair(case, check=False, **kw)
        KR, KS = project_K(pr.R), project_K(pr.S)
        kp = RepPair(KR, KS, constraints=pr.constraints)
        assert passes(kp, MIXED_DOUBLES, 3), case
        assert is_cc(KR) and is_cc(KS)


def test_closure_on_seeded_random_pairs():
    rng = random.Random(11)
    for (N, n) in ((2, 2), (2, 3), (3, 2)):
        for _ in range(25):
            A, B = random_ccwg(N, n, rng), random_ccwg(N, n, rng)
            rep = check_closure(A, B)
            assert rep["ok"], (N, n)
    with pytest.raises(ValueError):
        anti = m([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
        check_closure(anti, anti)


def test_kron_glue_factor_bookkeeping():
    # at a CC position of a tensor product both factors are CC entries
    rng = random.Random(13)
    A, B = random_ccwg(2, 1, rng, density=1.0), random_ccwg(2, 1, rng,
                                                            density=1.0)
    T = kron(A, B)
    from mdreps.ccwg import glue_mask, CC
    mask2 = glue_mask(2, 2).kinds
    mask1 = glue_mask(2, 1).kinds
    for i in range(4):
        for j in range(4):
            if mask2[i][j] == CC and not T.rows[i][j].is_zero():
                ia, ib = i % 2, i // 2
                ja, jb = j % 2, j // 2
                assert mask1[ia][ja] == CC and mask1[ib][jb] == CC


def test_glue_nilpotency():
    out = glue_nilpotency(2, 2, rng=random.Random(5))
    assert out["chain_length"] == 3
    assert out["witness_power_Lminus1_nonzero"]
    G = all_ones_glue(2, 2)
    assert (G * G * G).is_zero() and not (G * G).is_zero()
    assert glue_nilpotency(1, 4)["chain_length"] == 1
    assert glue_nilpotency(3, 2)["chain_length"] == 6


def test_chain_length_counts_compositions():
    assert chain_length(2, 3) == 4
    assert chain_length(3, 2) == 6


def test_split_lemma():
    rep = split_lemma_check(2, 1, 1)
    assert rep["ok"] and rep["pairs"] == 16
    assert split_lemma_check(3, 2, 2)["ok"]
    assert split_lemma_check(2, 2, 1)["ok"]
    with pytest.raises(ValueError):
        split_lemma_check(10, 3, 3)


def _split_shapes():
    # every (N, n, m) the word-pair oracle walks in at most 256^2 pairs
    return [(N, n, m) for N in range(5) for n in range(5) for m in range(5)
            if N ** (n + m) <= 256]


def test_split_lemma_matches_the_word_pairs():
    for N, n, m in _split_shapes():
        got = split_lemma_check(N, n, m)
        assert got == word_pair_split.split_lemma_check(N, n, m), (N, n, m)
        assert got == {"pairs": N ** (2 * (n + m)), "ok": True}


def _broken_less(n, m):
    # the whole-word verdicts of _BROKEN, and a prefix comparison with its
    # arguments swapped; whole words sum to n + m, prefixes to n
    real = less

    def whole(verdict):
        return lambda a, b: verdict if sum(a) == n + m else real(a, b)
    out = {v: whole(v) for v in "<=>"}
    if n != m:
        out["swapped"] = lambda a, b: real(b, a) if sum(a) == n else \
            real(a, b)
    return out


def test_split_lemma_names_the_first_failing_word_pair(monkeypatch):
    import mdreps.ccwg as cc
    seen = 0
    for N, n, m in _split_shapes():
        if not (N > 1 and n and m):
            continue
        for name, broken in _broken_less(n, m).items():
            monkeypatch.setattr(cc, "less", broken)
            monkeypatch.setattr(word_pair_split, "less", broken)
            with pytest.raises(InvariantError) as want:
                word_pair_split.split_lemma_check(N, n, m)
            with pytest.raises(InvariantError) as got:
                split_lemma_check(N, n, m)
            assert str(got.value) == str(want.value), (N, n, m, name)
            seen += 1
            monkeypatch.undo()
    assert seen == 120


def test_split_lemma_compares_classes_not_words(monkeypatch):
    import mdreps.ccwg as cc
    calls = []

    def counting(a, b):
        calls.append(None)
        return less(a, b)
    monkeypatch.setattr(cc, "less", counting)
    assert split_lemma_check(3, 3, 3) == {"pairs": 3 ** 12, "ok": True}
    # three comparisons for each of the 100^2 class pairs, where the
    # word-pair oracle makes three for each of the 3^12 word pairs
    assert len(calls) <= 30000


def _classify_by_kinds(M, kinds):
    # the loop over every position, as the mask's kinds table reads
    ccwg = cc = True
    K = [[RF_ZERO] * len(row) for row in M.rows]
    G = [[RF_ZERO] * len(row) for row in M.rows]
    for i, row in enumerate(M.rows):
        for j, e in enumerate(row):
            kind = kinds[i][j]
            if kind == CC:
                K[i][j] = e
            elif kind == GLUE:
                G[i][j] = e
            if not e.is_zero():
                ccwg = ccwg and kind != FORBIDDEN
                cc = cc and kind == CC
    return ccwg, cc, K, G


def _random_square(rng, N, n, density):
    d = N ** n
    return ExactMatrix.from_rows(
        [[rng.randint(-2, 2) if rng.random() < density else 0
          for _ in range(d)] for _ in range(d)], N=N, rows_level=n,
        cols_level=n)


def _check_mask_against_kinds(mask, rng):
    N, n = mask.N, mask.n
    for lists, kind in ((mask.cc, CC), (mask.glue, GLUE),
                        (mask.forbidden, FORBIDDEN)):
        assert lists == [[j for j, k in enumerate(row) if k == kind]
                         for row in mask.kinds]
    samples = [random_ccwg(N, n, rng), all_ones_glue(N, n),
               ExactMatrix.identity(N, n), ExactMatrix.zeros(N, n)]
    samples += [_random_square(rng, N, n, dens) for dens in (0.05, 0.3, 1.0)]
    samples += [project_K(random_ccwg(N, n, rng, density=1.0))]
    for M in samples:
        ccwg, cc, K, G = _classify_by_kinds(M, mask.kinds)
        assert is_ccwg(M) == ccwg and is_cc(M) == cc
        assert project_K(M).rows == K and project_glue(M).rows == G


@pytest.mark.parametrize("N,n", [(1, 3), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_mask_lists_match_kinds_loop(N, n):
    rng = random.Random(100 * N + n)
    _check_mask_against_kinds(glue_mask(N, n), rng)


def test_glue_nilpotency_multiplies_no_identity(monkeypatch):
    mul = ExactMatrix.__mul__
    factors = []

    def counting(A, B):
        factors.append((A, B))
        return mul(A, B)
    monkeypatch.setattr(ExactMatrix, "__mul__", counting)
    out = glue_nilpotency(2, 2, rng=random.Random(5), samples=2)
    monkeypatch.undo()
    assert out == {"chain_length": 3, "index_bound": 3,
                   "witness_power_Lminus1_nonzero": True}
    # G^2 and G^3, then two factors after the first of each of two samples
    assert len(factors) == 2 + 2 * 2
    assert not any(X.is_identity() for f in factors for X in f)


_BROKEN = """
import mdreps.ccwg as cc
from mdreps.matrix import ExactMatrix
from mdreps.scalar import InvariantError

real_less = cc.less


def whole_words_compare(verdict):
    # in split_lemma_check(2, 1, 1) the whole words sum to 2, their parts to 1
    return lambda a, b: verdict if sum(a) == 2 else real_less(a, b)


cases = {
    "witness": lambda: setattr(cc, "all_ones_glue",
                               lambda N, n: ExactMatrix.identity(N, n)),
    "samples": lambda: setattr(cc, "project_glue", lambda M: M),
    "split<": lambda: setattr(cc, "less", whole_words_compare("<")),
    "split=": lambda: setattr(cc, "less", whole_words_compare("=")),
    "split>": lambda: setattr(cc, "less", whole_words_compare(">")),
    "chain": lambda: setattr(cc, "less", lambda a, b: "incomparable"),
}
split = lambda: cc.split_lemma_check(2, 1, 1)
runs = {
    "witness": lambda: cc.glue_nilpotency(2, 2),
    "samples": lambda: cc.glue_nilpotency(2, 2, rng=__import__("random")
                                          .Random(5)),
    "split<": split, "split=": split, "split>": split,
    "chain": lambda: cc.chain_length(2, 2),
    "project": lambda: cc.project_K(ExactMatrix.zeros(2, 2, 1)),
}
saved = dict(vars(cc))
for name, run in runs.items():
    if name in cases:
        cases[name]()
    try:
        run()
        print(name, "passed")
    except InvariantError as exc:
        print(name, "InvariantError", str(exc).split(" ")[0])
    vars(cc).update(saved)
"""


def test_broken_checks_raise_under_python_O():
    # each verdict must come from a check that survives -O
    import mdreps
    src = os.path.dirname(os.path.dirname(mdreps.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN],
                         capture_output=True, text=True, timeout=120,
                         env=env, check=True)
    # one clause of the split lemma fails per broken whole-word comparison
    assert out.stdout.splitlines() == [
        "witness InvariantError all-ones", "samples InvariantError product",
        "split< InvariantError split", "split= InvariantError split",
        "split> InvariantError split", "chain InvariantError compositions",
        "project InvariantError projection"]
