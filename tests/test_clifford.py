import hashlib
import json
import random
from fractions import Fraction
from math import lcm

import pytest

import seed_clifford
from mdreps import clifford
from mdreps.clifford import (Character, _edge_orbits, _one_dim_characters,
                             _verify_induced, all_subgroups,
                             classify_small_dims, dimension_formula_holds,
                             induce, irreps_of_subgroup, is_irreducible,
                             mn_character, orbit_and_stabilizer,
                             partition_dim, partitions,
                             restriction_character_multiset, subgroup_closure,
                             subgroups_up_to_conjugacy,
                             symmetric_group_irreps)
from mdreps.matrix import ExactMatrix
from mdreps.mdd import (_cycle_lengths, all_permutations, perm_sign,
                        perm_transposition)
from mdreps.scalar import (InvariantError, NonVanishing, Poly, param, rf,
                           unity_order, zeta)

a = param("a")
GEN_NV = NonVanishing(["a", Poly.var("a") - Poly.const(1),
                       Poly.var("a") + Poly.const(1)])


def sstr(M):
    return [[str(e) for e in row] for row in M.rows]


def test_murnaghan_nakayama_small_tables():
    table3 = {((3,), (1, 1, 1)): 1, ((3,), (2, 1)): 1, ((3,), (3,)): 1,
              ((2, 1), (1, 1, 1)): 2, ((2, 1), (2, 1)): 0, ((2, 1), (3,)): -1,
              ((1, 1, 1), (1, 1, 1)): 1, ((1, 1, 1), (2, 1)): -1,
              ((1, 1, 1), (3,)): 1}
    for (lam, mu), val in table3.items():
        assert mn_character(lam, mu) == val
    dims4 = {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1}
    for lam, d in dims4.items():
        assert partition_dim(lam) == d
    for n in (2, 3, 4, 5):
        assert sum(partition_dim(l) ** 2 for l in partitions(n)) == \
            __import__("math").factorial(n)


def test_symmetric_group_irreps_are_homs():
    for n in (2, 3, 4):
        irreps = symmetric_group_irreps(n)
        for irr in irreps:
            assert irr.verify(), (n, irr.label)
    assert sorted(t.dim for t in symmetric_group_irreps(4)) == [1, 1, 2, 3, 3]


def test_subgroup_enumeration():
    assert len(subgroups_up_to_conjugacy(3)) == 4
    assert len(subgroups_up_to_conjugacy(4)) == 11
    C3 = subgroup_closure([(1, 2, 0)], 3)
    assert len(irreps_of_subgroup(C3, 3)) == 3
    D4 = subgroup_closure([(1, 2, 3, 0), (2, 1, 0, 3)], 4)
    assert len(D4) == 8 and len(irreps_of_subgroup(D4, 4)) == 4


def test_stabilizers_of_worked_characters():
    chi = Character.from_vector(3, [a, a.inverse(), a])
    st = orbit_and_stabilizer(chi)
    assert len(st.subgroup) == 3 and st.transversal == [(0, 1, 2), (1, 0, 2)]
    chi_signs = Character.from_vector(3, [1, 1, 1])
    assert len(orbit_and_stabilizer(chi_signs).subgroup) == 6
    chi3 = Character.from_vector(3, [a, a, 1])
    st3 = orbit_and_stabilizer(chi3)
    assert st3.subgroup == frozenset({(0, 1, 2), (0, 2, 1)})
    assert st3.transversal == [(0, 1, 2), (1, 0, 2), (2, 1, 0)]


def test_rank_bound():
    chi = Character.from_vector(7, [a] * 21)
    with pytest.raises(ValueError, match="rank 7 exceeds enumeration bound 6"):
        orbit_and_stabilizer(chi)


def test_a_generator_of_order_six_has_six_distinct_characters():
    # zeta_6^2 and zeta_6^4 are zeta_3 and zeta_3^2, not two more values
    g = (1, 2, 3, 4, 5, 0)
    H = subgroup_closure([g], 6)
    values = [str(tau(g).rows[0][0]) for tau in irreps_of_subgroup(H, 6)]
    assert len(values) == 6 and len(set(values)) == 6
    # phi(d) roots of each order d dividing 6: the six sixth roots
    orders = [unity_order(t[g]) for t in _one_dim_characters(H, 6)]
    assert sorted(orders) == [1, 2, 3, 3, 6, 6]


def _seed_groups():
    """Every subgroup of Sym_n, n <= 4, and the order-6 stabilizer at n = 5
    of the character -1,2,2,2,2,2,2,3,1/3,3 (generated by an element of
    order 3 and one of order 2)."""
    out = [(H, n) for n in (1, 2, 3, 4) for H in seed_clifford.all_subgroups(n)]
    chi = Character.from_vector(5, [-1, 2, 2, 2, 2, 2, 2, 3, Fraction(1, 3),
                                    3])
    out.append((orbit_and_stabilizer(chi).subgroup, 5))
    return out


def test_subgroups_signs_and_orders_match_the_seed_rules():
    for n in (1, 2, 3, 4):
        assert all_subgroups(n) == seed_clifford.all_subgroups(n)
    for n in (1, 2, 3, 4, 5):
        for g in all_permutations(n):
            assert perm_sign(g) == seed_clifford.perm_sign(g)
            assert lcm(*_cycle_lengths(g)) == seed_clifford._element_order(g)


def test_characters_match_the_seed_rules():
    counts = []
    for H, n in _seed_groups():
        new = _one_dim_characters(H, n)
        old = seed_clifford._one_dim_characters(H, n)
        assert [list(t.items()) for t in new] == \
            [list(t.items()) for t in old], sorted(H)
        counts.append(len(new))
    # 99 tables at n = 2..4 and Sym_1's one
    assert sum(counts[:-1]) == 100 and counts[-1] == 6


def test_one_walk_matches_the_seed_orbit_and_stabilizer(monkeypatch):
    """Subgroup and transversal, in order, as the stabilizer walk and the
    frozenset cosets gave them: on every pattern character that
    ``classify_small_dims`` tests (n <= 4, d <= 3), on 30 seeded
    characters at n = 5 and 6, and on one at n = 4 whose stabilizer of
    order 2 is not normal, so that its left and right cosets differ."""
    chars = []

    def recording(chi):
        chars.append(chi)
        return orbit_and_stabilizer(chi)
    monkeypatch.setattr(clifford, "orbit_and_stabilizer", recording)
    for n in (1, 2, 3, 4):
        for d in (1, 2, 3):
            classify_small_dims(n, d)
    monkeypatch.undo()
    assert len(chars) == 23
    rng = random.Random(31)
    for n in (5, 6) * 15:
        values = rng.choice(((1, -1), (1, -1, 2, a, a.inverse())))
        chars.append(Character.from_vector(
            n, [rng.choice(values) for _ in range(n * (n - 1) // 2)]))
    skew = Character.from_vector(4, [-1, 2, 2, 2, 2, 2])
    chars.append(skew)
    for chi in chars:
        new = orbit_and_stabilizer(chi)
        old = seed_clifford.orbit_and_stabilizer(chi)
        assert new.subgroup == old.subgroup, chi
        assert new.transversal == old.transversal, chi
    assert sorted(orbit_and_stabilizer(skew).subgroup) == \
        [(0, 1, 2, 3), (1, 0, 2, 3)]


def test_edge_orbits_match_the_seed_rules():
    flipped = 0
    for H, n in _seed_groups():
        orbits, orbit_of = _edge_orbits(H, n)
        old_orbits, old_orbit_of = seed_clifford._edge_orbits(H, n)
        assert orbits == old_orbits and orbit_of == old_orbit_of, sorted(H)
        assert list(orbit_of) == list(old_orbit_of)
        flipped += sum(o["flipped"] for o in orbits)
    assert flipped > 0


# sha256 of json.dumps(classify_small_dims(n, d), sort_keys=True) for
# n = 1..4 and d = 1..3, in that order, as the classification gave it
# before its group rules were written once
_CLASSIFY_SHA256 = ("cd430b6d8a4d0daac9289c048ef4ba0e"
                    "0b4afea497d07ef924a91fa37775003e")


def test_classification_reports_are_unchanged():
    h = hashlib.sha256()
    for n in (1, 2, 3, 4):
        for d in (1, 2, 3):
            h.update(json.dumps(classify_small_dims(n, d),
                                sort_keys=True).encode())
    assert h.hexdigest() == _CLASSIFY_SHA256


def test_induction_n2_example():
    v = param("v")
    chi = Character.from_vector(2, [v])
    st = orbit_and_stabilizer(chi)
    rep = induce(chi, irreps_of_subgroup(st.subgroup, 2)[0], st)
    assert rep.dim == 2 and dimension_formula_holds(rep)
    assert rep.x(1, 2).rows[0][0] == v
    assert rep.x(1, 2).rows[1][1] == v.inverse()
    assert sstr(rep.sigma(1)) == [["0", "1"], ["1", "0"]]


def test_induction_2d_family_reproduces_display():
    chi = Character.from_vector(3, [a, a.inverse(), a])
    st = orbit_and_stabilizer(chi)
    taus = irreps_of_subgroup(st.subgroup, 3)
    assert len(taus) == 3
    omege = zeta(3)
    off_values = set()
    for tau in taus:
        rep = induce(chi, tau, st)
        assert rep.dim == 2 and dimension_formula_holds(rep)
        assert rep.x(1, 2).rows[0][0] == a
        assert rep.x(1, 2).rows[1][1] == a.inverse()
        assert rep.x(1, 3).rows[0][0] == a.inverse()
        assert rep.x(2, 3).rows[0][0] == a
        assert sstr(rep.sigma(1)) == [["0", "1"], ["1", "0"]]
        M23 = rep.perm(perm_transposition(3, 2, 3))
        assert M23.rows[0][0].is_zero()
        off_values.add(str(M23.rows[0][1]))
    # the three stabilizer characters realize all three cube roots of unity
    # in the displayed antidiagonal position (up to labeling of the family)
    assert off_values == {str(rf(1)), str(rf(omege)), str(rf(omege ** 2))}


def test_x_ij_for_i_above_j_is_built_without_an_inverse(monkeypatch):
    # x_ji = x_ij^-1 is the block diagonal of the inverse character values,
    # built by the loop that builds x_ij; induce, whose relation check
    # reads x_ji, inverts no matrix
    calls = []
    inverse = ExactMatrix.inverse

    def counted(self, *args):
        calls.append(self)
        return inverse(self, *args)
    monkeypatch.setattr(ExactMatrix, "inverse", counted)
    for chi in (Character.from_vector(3, [a, a.inverse(), a]),
                Character.from_vector(3, [a, a, -1])):
        st = orbit_and_stabilizer(chi)
        for tau in irreps_of_subgroup(st.subgroup, 3):
            rep = induce(chi, tau, st)
            for i, j in ((1, 2), (1, 3), (2, 3)):
                assert (rep.x(j, i) * rep.x(i, j)).is_identity()
    assert calls == []


def test_induction_3d_family_reproduces_display():
    for pm in (1, -1):
        chi = Character.from_vector(3, [a, a, pm])
        st = orbit_and_stabilizer(chi)
        for tau in irreps_of_subgroup(st.subgroup, 3):
            rep = induce(chi, tau, st)
            assert rep.dim == 3 and dimension_formula_holds(rep)
            assert [str(rep.x(1, 2).rows[k][k]) for k in range(3)] == \
                ["a", "(1)/(a)", str(pm)]
            assert [str(rep.x(2, 3).rows[k][k]) for k in range(3)] == \
                [str(pm), "a", "(1)/(a)"]
            assert [str(rep.x(1, 3).rows[k][k]) for k in range(3)] == \
                ["a", str(pm), "(1)/(a)"]
            theta = tau(perm_transposition(3, 2, 3)).rows[0][0]
            th = str(theta)
            assert sstr(rep.perm(perm_transposition(3, 1, 2))) == \
                [["0", "1", "0"], ["1", "0", "0"], ["0", "0", th]]
            assert sstr(rep.perm(perm_transposition(3, 2, 3))) == \
                [[th, "0", "0"], ["0", "0", th], ["0", th, "0"]]


def test_restriction_multiset_is_orbit_with_constant_multiplicity():
    chi = Character.from_vector(3, [a, a.inverse(), a])
    st = orbit_and_stabilizer(chi)
    rep = induce(chi, irreps_of_subgroup(st.subgroup, 3)[0], st)
    ms = restriction_character_multiset(rep)
    assert len(ms) == 2 and len(set(ms)) == 2
    # a 3d family block carries each orbit character once
    chi3 = Character.from_vector(3, [a, a, 1])
    st3 = orbit_and_stabilizer(chi3)
    rep3 = induce(chi3, irreps_of_subgroup(st3.subgroup, 3)[0], st3)
    ms3 = restriction_character_multiset(rep3)
    assert len(ms3) == 3 and len(set(ms3)) == 3


def test_isomorphic_data_for_acted_character():
    # induced reps for chi and chi^h are related by an explicit basis
    # permutation at sample points
    chiv = Character.from_vector(3, [rf(Fraction(5)), rf(Fraction(1, 5)),
                                     rf(Fraction(5))])
    st = orbit_and_stabilizer(chiv)
    tau = irreps_of_subgroup(st.subgroup, 3)[0]
    rep = induce(chiv, tau, st)
    h = (1, 0, 2)
    chih = chiv.acted(h)
    sth = orbit_and_stabilizer(chih)
    reph = induce(chih, tau, sth)
    # search a permutation matrix intertwining all generators
    import itertools
    dim = rep.dim
    found = None
    for perm in itertools.permutations(range(dim)):
        P = ExactMatrix.zeros(dim, 1)
        for i, j in enumerate(perm):
            P.rows[i][j] = rf(1)
        Pi = P.inverse()
        gens1 = [rep.x(1, 2), rep.x(1, 3), rep.x(2, 3),
                 rep.sigma(1), rep.sigma(2)]
        gens2 = [reph.x(1, 2), reph.x(1, 3), reph.x(2, 3),
                 reph.sigma(1), reph.sigma(2)]
        if all((P * g1 * Pi - g2).is_zero() for g1, g2 in zip(gens1, gens2)):
            found = perm
            break
    assert found is not None


def test_irreducibility_via_commutant():
    chi = Character.from_vector(3, [a, a.inverse(), a])
    st = orbit_and_stabilizer(chi)
    for tau in irreps_of_subgroup(st.subgroup, 3):
        rep = induce(chi, tau, st)
        assert is_irreducible(rep.all_generators(), GEN_NV)
    D = ExactMatrix.from_rows([[1, 0], [0, -1]], N=2)
    assert not is_irreducible([D])


def test_det_of_x_images():
    chi = Character.from_vector(3, [a, a, -1])
    st = orbit_and_stabilizer(chi)
    rep = induce(chi, irreps_of_subgroup(st.subgroup, 3)[1], st)
    for key in ((1, 2), (1, 3), (2, 3)):
        M = rep.x(*key)
        det = M.rows[0][0] * M.rows[1][1] * M.rows[2][2]  # diagonal here
        assert det == rf(1) or det == rf(-1)


def test_two_transitive_stabilizer_forces_sign_character():
    # any character stabilized by the full symmetric group takes values +-1,
    # constant across the edges
    for n in (3, 4):
        full = frozenset(__import__("mdreps.mdd", fromlist=["x"]).all_permutations(n))
        for vec_val in (2, Fraction(1, 3)):
            pairs = [(i, j) for i in range(1, n + 1)
                     for j in range(i + 1, n + 1)]
            chi = Character(n, {pr: rf(vec_val) for pr in pairs})
            assert len(orbit_and_stabilizer(chi).subgroup) < \
                __import__("math").factorial(n)
        chi1 = Character(n, {(i, j): rf(-1) for i in range(1, n + 1)
                             for j in range(i + 1, n + 1)})
        assert len(orbit_and_stabilizer(chi1).subgroup) == \
            __import__("math").factorial(n)


def test_classification_counts():
    r31 = classify_small_dims(3, 1)
    assert sum(e["tau_choices"] for e in r31) == 4
    assert all(e["kind"] == "isolated" for e in r31)

    r32 = classify_small_dims(3, 2)
    fams = [e for e in r32 if e["kind"] == "family"]
    assert len(fams) == 1
    assert fams[0]["free_params"] == 1 and fams[0]["tau_choices"] == 3
    boundary = [e for e in r32 if e["kind"] == "isolated"]
    assert all(e["boundary_of_family"] for e in boundary)

    r42 = classify_small_dims(4, 2)
    assert sum(e["tau_choices"] for e in r42) == 2
    assert all(e["kind"] == "isolated" for e in r42)

    r33 = classify_small_dims(3, 3)
    fams = [e for e in r33 if e["kind"] == "family"]
    assert len(fams) == 2 and all(e["tau_choices"] == 2 for e in fams)
    assert sorted(e["sign_choice"] for e in fams) == [(-1,), (1,)]

    with pytest.raises(ValueError):
        classify_small_dims(5, 2)


class _SigmaImages:
    """Just what _verify_induced reads of an induced representation whose
    abelian part is trivial."""

    def __init__(self, sigmas):
        self.n, self.dim = len(sigmas) + 1, sigmas[0].nrows
        self._sigma = sigmas
        self.chi = Character(self.n, {})

    def sigma(self, i):
        return self._sigma[i - 1]


def _m(rows):
    return ExactMatrix.from_rows(rows, N=len(rows), rows_level=1,
                                 cols_level=1)


@pytest.mark.parametrize("sigmas,rel_id", [
    ([_m([[0, 2], [2, 0]])], "invol_s[1]"),
    ([_m([[0, 1], [1, 0]]), _m([[0, -1], [-1, 0]])], "braid_s[1]"),
    # reflections of the Coxeter group with m12 = m23 = 3 and m13 = infinity
    ([_m([[-1, 1, 2], [0, 1, 0], [0, 0, 1]]),
      _m([[1, 0, 0], [1, -1, 1], [0, 0, 1]]),
      _m([[1, 0, 0], [0, 1, 0], [2, 1, -1]])], "far_ss[1,3]"),
])
def test_verify_induced_names_the_failing_sym_relation(sigmas, rel_id):
    with pytest.raises(InvariantError) as exc:
        _verify_induced(_SigmaImages(sigmas))
    assert str(exc.value) == "induced sigma images fail %s" % rel_id
