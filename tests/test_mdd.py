import random

import pytest

from mdreps.catalog import analysis_pair, make_md_pair
from mdreps.matrix import ExactMatrix, RepPair, embed_at
from mdreps.mdd import (GroupElement, babeda_from_md,
                        babeda_to_md, evaluate_in_rep, format_word,
                        md_defining_relation_words, parse_word, perm_compose,
                        perm_identity, perm_inverse, perm_sign,
                        perm_to_adjacent_word, perm_transposition,
                        random_element)
from mdreps.presentations import MIXED_DOUBLES
from mdreps.scalar import param, rf


def test_exponent_addition():
    g = GroupElement.x(3, 1, 2)
    assert g * g == GroupElement.x(3, 1, 2, 2)


def test_sign_rule_under_adjacent_conjugation():
    g = GroupElement.x(3, 1, 2)
    s1 = GroupElement.sigma(3, 1)
    assert s1 * g * s1 == GroupElement.x(3, 1, 2, -1)


def test_cycle_conjugation():
    g = GroupElement.x(3, 1, 2)
    c = GroupElement.sigma(3, 1) * GroupElement.sigma(3, 2)
    assert c * g * c.inverse() == GroupElement.x(3, 2, 3)


def test_action_is_homomorphism_with_signs(rng):
    for _ in range(150):
        n = rng.randint(2, 5)
        w1 = list(range(n)); rng.shuffle(w1); w1 = tuple(w1)
        w2 = list(range(n)); rng.shuffle(w2); w2 = tuple(w2)
        X = random_element(n, rng)
        inner = GroupElement(n, X.act(w2), perm_identity(n))
        lhs = inner.act(w1)
        rhs = X.act(perm_compose(w1, w2))
        assert lhs == rhs


def test_group_axioms_randomized(rng):
    for _ in range(120):
        n = rng.randint(2, 5)
        a, b, c = (random_element(n, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a * a.inverse()).is_identity()
        assert (a * GroupElement.identity(n)) == a


def test_rank_mismatch():
    with pytest.raises(ValueError):
        GroupElement.x(3, 1, 2) * GroupElement.x(4, 1, 2)


def test_defining_relation_words_die():
    for n in (3, 4, 5):
        for rid, word in md_defining_relation_words(n):
            g = babeda_from_md(word, n)
            assert g.is_identity(), (n, rid)


def test_defining_relation_words_are_the_mixed_doubles_relations():
    for n in (2, 3, 4, 5):
        assert [rid for rid, _ in md_defining_relation_words(n)] == \
            [rid for rid, _, _ in MIXED_DOUBLES.relations(n)]


def test_round_trip_on_seeded_elements():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(2, 5)
        g = random_element(n, rng)
        assert babeda_from_md(babeda_to_md(g), n) == g


def test_to_md_examples():
    # the adjacent transposition goes to its generator, the first abelian
    # generator to r1 s1, the distant ones to their conjugating-chain words
    g = GroupElement.sigma(3, 1)
    assert format_word(babeda_to_md(g)) == "s1"
    gx = GroupElement.x(3, 1, 2)
    assert format_word(babeda_to_md(gx)) == "r1 s1"
    gx23 = GroupElement.x(3, 2, 3)
    assert format_word(babeda_to_md(gx23)) == "r2 s2"
    assert babeda_from_md(babeda_to_md(gx23), 3) == gx23
    gx13 = GroupElement.x(3, 1, 3)
    assert format_word(babeda_to_md(gx13)) == "s2 r1 s1 s2"
    assert babeda_from_md("r1 s1", 3) == gx


def test_from_md_examples():
    for n in (3, 4):
        for i in range(1, n):
            assert babeda_from_md("r%d r%d" % (i, i), n).is_identity()
    # the mixed relator collapses through the commuting x identities
    assert babeda_from_md("s1 r2 r1 s2 r1 r2", 3).is_identity()
    # inverse exponent tokens
    assert babeda_from_md("x12^3 x12^-3", 3).is_identity()
    assert babeda_from_md("x21", 3) == GroupElement.x(3, 1, 2, -1)


def test_letter_indices_outside_the_level_are_refused():
    # s0 once gave the transposition (1 4), s4 an IndexError and s4^2
    # the identity
    for word in ("s0", "s4", "s4^2", "r4", "r0^2", "s1 r5"):
        with pytest.raises(ValueError, match="out of range for n=4"):
            babeda_from_md(word, 4)
    with pytest.raises(ValueError, match=r"bad transposition \(4 5\)"):
        GroupElement.sigma(4, 4)
    for i, j in ((0, 2), (1, 5), (2, 2)):
        with pytest.raises(ValueError, match="bad transposition"):
            perm_transposition(4, i, j)
    assert perm_transposition(4, 4, 1) == (3, 1, 2, 0)


def test_word_text_round_trip():
    w = parse_word("s1 r2 s1^-1 x12^3 x13^-2")
    assert format_word(w) == "s1 r2 s1^-1 x12^3 x13^-2"
    g = babeda_from_md("s1 r2 x12^3", 4)
    again = babeda_from_md(format_word(babeda_to_md(g)), 4)
    assert again == g


def test_perm_word_reconstruction(rng):
    for _ in range(60):
        n = rng.randint(2, 6)
        w = list(range(n)); rng.shuffle(w); w = tuple(w)
        word = perm_to_adjacent_word(w)
        from mdreps.mdd import perm_adjacent
        acc = perm_identity(n)
        for i in word:
            acc = perm_compose(acc, perm_adjacent(n, i))
        assert acc == w
        assert (-1) ** len(word) == perm_sign(w)


def test_evaluate_x12_in_aglue_pair():
    pair = analysis_pair("a-glue")   # R carries q, S carries p
    X = evaluate_in_rep(GroupElement.x(2, 1, 2), pair, 2)
    p, q = param("p"), param("q")
    assert X.rows[0][3] == p - q
    for k in range(4):
        assert X.rows[k][k] == rf(1)
    # identity element evaluates to the identity
    assert evaluate_in_rep(GroupElement.identity(2), pair, 2).is_identity()


def test_commuting_generator_images():
    pair = analysis_pair("a-glue")
    A = evaluate_in_rep(GroupElement.x(3, 1, 3), pair, 3, check=False)
    B = evaluate_in_rep(GroupElement.x(3, 2, 3), pair, 3, check=False)
    assert (A * B - B * A).is_zero()


def test_homomorphism_property_sampled(rng):
    pair = analysis_pair("a-glue", p=2, q=5).evaluate({"p": 2, "q": 5})
    for _ in range(10):
        g = random_element(3, rng, exp_bound=2)
        h = random_element(3, rng, exp_bound=2)
        Mg = evaluate_in_rep(g, pair, 3, check=False)
        Mh = evaluate_in_rep(h, pair, 3, check=False)
        Mgh = evaluate_in_rep(g * h, pair, 3, check=False)
        assert (Mg * Mh - Mgh).is_zero()


def test_check_is_not_fooled_by_a_reused_pair_id():
    # a passing pair is checked and freed; a failing pair built next
    # usually gets the same id() and must still be rejected
    for _ in range(5):
        good = make_md_pair("case2", check=False)
        evaluate_in_rep("r1", good, 3)
        R, S3 = good.R, good.S.scale(3)
        freed = id(good)
        del good
        bad = RepPair(R, S3)
        reused = id(bad) == freed
        with pytest.raises(ValueError):
            evaluate_in_rep("r1", bad, 3)
        if reused:
            break
    assert reused


def test_unverified_pair_rejected():
    bad = make_md_pair("case2", check=False)
    bad2 = type(bad)(bad.R, ExactMatrix.identity(2, 2))
    with pytest.raises(ValueError):
        evaluate_in_rep(GroupElement.x(3, 1, 2), bad2, 3)


def test_disjoint_support_subgroups_commute():
    # generators below and above a cut index commute in any valid pair image
    pair = analysis_pair("f-glue", p=2, q=5).evaluate({"p": 2, "q": 5})
    imgs = dict(pair.generator_images(4))
    for a in ("r1", "s1"):
        for b in ("r3", "s3"):
            A, B = imgs[a], imgs[b]
            assert (A * B - B * A).is_zero()


def test_det_of_x_images_is_unit():
    # det of every x_{jk} image is +-1
    from mdreps.structure import char_poly
    pair = analysis_pair("a-glue", p=2, q=5).evaluate({"p": 2, "q": 5})
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        M = evaluate_in_rep(GroupElement.x(3, i, j), pair, 3, check=False)
        cp = char_poly(M)
        det = cp[0] * (-1) ** M.nrows
        assert det in (1, -1), (i, j, det)


def test_word_automorphisms_preserve_relations():
    from mdreps.mdd import word_automorphism
    for n in (3, 4):
        for rid, word in md_defining_relation_words(n):
            for kw in ({"swap_letters": True}, {"reverse_indices": n},
                       {"swap_letters": True, "reverse_indices": n}):
                image = word_automorphism(word, **kw)
                assert babeda_from_md(image, n).is_identity(), (rid, kw)


def test_word_automorphism_refuses_a_letter_without_a_mirror():
    from mdreps.mdd import word_automorphism
    # the mirror n - i of each refused letter is outside 1..n-1
    for word, m in (("s1 s3", 2), ("r0", 3), ("s3", 3), ("r1", 1)):
        with pytest.raises(ValueError, match="no mirror for n=%d" % m):
            word_automorphism(word, reverse_indices=m)
    assert word_automorphism("s1 r3^2", reverse_indices=4) == [
        (("s", 3), 1), (("r", 1), 2)]


def test_evaluate_in_rep_refuses_the_letters_babeda_refuses():
    # an out-of-range index is refused before an even or zero exponent
    # could skip the letter, and x22 is no x letter
    pair = make_md_pair("case2", p=2, q=5)
    for word in ("r0^2", "s5^2", "r3^2", "x22", "x11^0", "s0"):
        with pytest.raises(ValueError):
            evaluate_in_rep(word, pair, 3, check=False)
    with pytest.raises(ValueError, match="bad letter"):
        evaluate_in_rep([(("q", 1), 1)], pair, 3, check=False)


def test_evaluate_in_rep_raises_exactly_when_babeda_from_md_does():
    pair = make_md_pair("case2", p=2, q=5)
    rng = random.Random(2032)
    valid = [(kind, i) for kind in "rs" for i in (1, 2)]
    valid += [("x", i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    invalid = [(kind, i) for kind in "rs" for i in (-1, 0, 3, 5)]
    invalid += [("x", 1, 1), ("x", 2, 2), ("x", 1, 4), ("x", 0, 2),
                ("q", 1), ("y", 2, 1)]
    raised = 0
    for _ in range(300):
        word = [(rng.choice(valid if rng.random() < 0.75 else invalid),
                 rng.choice((-2, -1, 0, 1, 2, 3)))
                for _ in range(rng.randint(1, 3))]
        try:
            babeda_from_md(word, 3)
        except ValueError:
            with pytest.raises(ValueError):
                evaluate_in_rep(word, pair, 3, check=False)
            raised += 1
        else:
            evaluate_in_rep(word, pair, 3, check=False)
    assert 50 < raised < 250


def test_word_round_trip_agrees_in_representation(rng):
    # to_md(from_md(word)) is related to the original word by the defining
    # relations: compare the two matrix images in an evaluated catalog pair
    pair = analysis_pair("a-glue", p=2, q=5).evaluate({"p": 2, "q": 5})
    letters = ["s1", "s2", "r1", "r2", "x12", "x13^-1", "x23^2"]
    for _ in range(25):
        word = " ".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        g = babeda_from_md(word, 3)
        back = babeda_to_md(g)
        M1 = evaluate_in_rep(word, pair, 3, check=False)
        M2 = evaluate_in_rep(back, pair, 3, check=False)
        assert (M1 - M2).is_zero(), word


def test_evaluate_in_rep_multiplies_no_identity(monkeypatch):
    pair = make_md_pair("case2", p=2, q=5)
    word = "r1 s1 x12^2 s2"
    expect = evaluate_in_rep(word, pair, 3, check=False)
    mul = ExactMatrix.__mul__
    factors = []

    def counting(A, B):
        factors.append((A, B))
        return mul(A, B)
    monkeypatch.setattr(ExactMatrix, "__mul__", counting)
    got = evaluate_in_rep(word, pair, 3, check=False)
    monkeypatch.undo()
    assert got == expect
    # r1 s1, the two letters of x12's base, its square, and two more factors
    assert len(factors) == 5
    assert not any(X.is_identity() for f in factors for X in f)
    # the same image as the product of the letter images
    R, S = pair.R, pair.S
    r1, s1 = embed_at(R, 1, 3), embed_at(S, 1, 3)
    x12 = r1 * s1
    assert got == r1 * s1 * x12 * x12 * embed_at(S, 2, 3)
