import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import stepwise_echelon
from hypothesis import given, settings
from hypothesis import strategies as st

import mdreps.matrix as matrix
from mdreps.matrix import (Echelon, ExactMatrix, RepPair, RFEchelon,
                           UnsupportedSpectrum, _certified, _commutation_rows,
                           _d2_echelon, _dot, _local_echelon, _rf_eliminate,
                           _site_of, char_poly, commutant_basis,
                           eigen_data, embed_at, kron, matrix_order,
                           nullspace, sparse_nullspace, words)
from mdreps.scalar import (RF, RF_ONE, RF_ZERO, BranchAmbiguity, Cyc,
                           NonVanishing, Poly, param, rf, zeta)
from mdreps.upoly import _clear

p, q = param("p"), param("q")


def m(rows, N=2):
    return ExactMatrix.from_rows(rows, N=N)


def ints(M):
    return [[int(str(e)) if not e.is_zero() else 0 for e in row]
            for row in M.rows]


h = m([[0, 1], [1, 0]])
I2 = ExactMatrix.identity(2, 1)


def test_word_enumeration_revlex():
    # first letter varies fastest
    assert words(2, 2) == [(1, 1), (2, 1), (1, 2), (2, 2)]
    assert words(3, 2)[:4] == [(1, 1), (2, 1), (3, 1), (1, 2)]


def test_kron_flip_squared_is_antidiagonal():
    x = kron(h, h)
    assert ints(x) == [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]


def test_kron_with_identity_gives_block_flip():
    # with the leading-letters convention the block-diagonal double flip is
    # h (x) 1; the complementary order gives the interleaved permutation
    v = kron(h, I2)
    assert ints(v) == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    u = kron(I2, h)
    assert ints(u) == [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]


def test_kron_identity():
    assert kron(I2, I2) == ExactMatrix.identity(2, 2)


def test_embed_at_identity_slot():
    R = m([[1, 0, 0, p], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])
    assert embed_at(R, 1, 2) == R


def test_embed_at_brute_force_oracle():
    # the flip embedded at slot 2 of level 3 permutes letters 2,3 of words
    flip = m([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    E = embed_at(flip, 2, 3)
    ws = words(2, 3)
    for wi, w in enumerate(ws):
        target = (w[0], w[2], w[1])
        for vi, v in enumerate(ws):
            entry = E.rows[wi][vi]
            assert (not entry.is_zero()) == (v == target)
            if v == target:
                assert entry == rf(1)


@pytest.mark.parametrize("N", [2, 3])
def test_embed_at_matches_the_kron_oracle(N):
    # I_(i-1) (x) M (x) I_(n-i-1) at every site, for a constant M and a
    # symbolic one
    rng = random.Random(N)
    d = N * N
    const = m([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)], N=N)
    sym = m([[rng.choice((0, 1, p, q - 1)) for _ in range(d)]
             for _ in range(d)], N=N)
    for M in (const, sym):
        for n in range(2, 5):
            for i in range(1, n):
                want = kron(kron(ExactMatrix.identity(N, i - 1), M),
                            ExactMatrix.identity(N, n - i - 1))
                got = embed_at(M, i, n)
                assert got == want, (N, n, i)
                assert (got._ints is None) == (M._ints is None)


def test_embed_functorial_at_fixed_slot():
    A = m([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]])
    B = m([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert embed_at(A, 1, 3) * embed_at(B, 1, 3) == embed_at(A * B, 1, 3)


def test_mixed_product_law_symbolic():
    A = m([[p, 1], [0, q]], N=2)
    B = m([[1, p], [q, 0]], N=2)
    C = m([[p, p], [1, 1]], N=2)
    D = m([[q, 0], [0, 1]], N=2)
    assert kron(A, B) * kron(C, D) == kron(A * C, B * D)
    # level-3 instance
    assert kron(kron(A, B), C) * kron(kron(C, D), A) == \
        kron(kron(A * C, B * D), C * A)


def test_far_commutation_of_embeddings():
    A = m([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]])
    B = m([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    M1 = embed_at(A, 1, 4)
    M3 = embed_at(B, 3, 4)
    assert M1 * M3 == M3 * M1


def test_nullspace_trivial_cases():
    assert nullspace(ExactMatrix.identity(2, 2)) == []
    Z = ExactMatrix.zeros(3, 1)
    assert len(nullspace(Z)) == 3


def test_nullspace_exactness_and_rank_nullity():
    M = m([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 1, 3, 3]])
    basis = nullspace(M)
    for v in basis:
        for row in M.rows:
            acc = rf(0)
            for a, x in zip(row, v):
                acc = acc + a * x
            assert acc.is_zero()
    # rank + nullity = cols
    assert len(basis) + (4 - len(nullspace(M.transpose()))) == 4


def test_nullspace_branch_ambiguity():
    nv = NonVanishing(["p"])
    M = m([[p - q, 0], [0, 0]], N=2)
    with pytest.raises(BranchAmbiguity) as exc:
        nullspace(M, nv)
    assert "p" in str(exc.value.poly) and "q" in str(exc.value.poly)
    # declaring the difference resolves it
    from mdreps.scalar import Poly
    nv2 = NonVanishing(["p", Poly.var("p") - Poly.var("q")])
    assert len(nullspace(M, nv2)) == 1


def test_eigen_jordan_block():
    X = m([[1, 0, 0, 5], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    ed = eigen_data(X)
    assert not ed.diagonalizable
    assert ed.eigenvalues == [(Fraction(1), 4, 3)]


def test_eigen_fslash_spectrum():
    X = m([[1, 0, 0, 0], [0, Fraction(2, 3), 0, 0],
           [0, 0, Fraction(3, 2), 0], [0, 0, 0, -1]])
    ed = eigen_data(X)
    assert ed.diagonalizable
    vals = sorted(str(v) for v, _, _ in ed.eigenvalues)
    assert vals == sorted(["1", "2/3", "3/2", "-1"])


def test_eigen_identity():
    ed = eigen_data(ExactMatrix.identity(2, 2))
    assert ed.diagonalizable and ed.eigenvalues == [(Fraction(1), 4, 4)]


def test_eigen_multiplicities_sum():
    M = m([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5]])
    ed = eigen_data(M)
    assert sum(a for _, a, _ in ed.eigenvalues) == 4


def test_eigen_cyclotomic_and_unsupported():
    rot3 = m([[0, -1], [1, -1]], N=2)
    ed = eigen_data(rot3)
    assert ed.diagonalizable and matrix_order(rot3) == 3
    bad = m([[0, 2], [1, 0]], N=2)  # eigenvalues +-sqrt(2)
    with pytest.raises(UnsupportedSpectrum):
        eigen_data(bad)


def test_spectrum_with_two_cyclotomic_quadratics(monkeypatch):
    # block rotation of orders 3 and 4: the characteristic polynomial
    # (x^2+x+1)(x^2+1) splits, so the order comes from the spectrum, and the
    # geometric multiplicities from RF nullspaces with Cyc entries
    import mdreps.matrix as mx
    B = m([[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    ed = eigen_data(B)
    assert ed.diagonalizable
    assert sorted((v.m, v.a, v.b, a, g) for v, a, g in ed.eigenvalues) == [
        (3, -1, -1, 1, 1), (3, 0, 1, 1, 1), (4, 0, -1, 1, 1), (4, 0, 1, 1, 1)]

    def no_powers(A, bound):
        raise AssertionError("order not read from the spectrum")
    monkeypatch.setattr(mx, "_order_by_powers", no_powers)
    assert matrix_order(B) == 12


def test_matrix_order():
    assert matrix_order(h) == 2
    assert matrix_order(ExactMatrix.identity(2, 1)) == 1
    X = m([[1, 0], [0, 2]], N=2)
    assert matrix_order(X) is None
    # spectra outside the tower: the order comes from powers
    C5 = m([[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])
    assert matrix_order(C5) == 5
    assert matrix_order(m([[2, 1], [1, 1]])) is None


def test_spectrum_of_a_cyclotomic_conjugate_keeps_its_linear_factor():
    # P diag(-1) (+) companion(x^2 + x + 1) P^-1 with P over Q(zeta_3): the
    # characteristic polynomial is a Cyc list (x + 1)(x^2 + x + 1), whose
    # linear factor is left after the quadratic
    z = rf(zeta(3))
    P = m([[-1, 0, 0], [-z, -1, z], [z, -z, -1]], N=3)
    M = m([[-1, 0, 0], [0, 0, -1], [0, 1, -1]], N=3)
    ed = eigen_data(P * M * P.inverse())
    assert ed.diagonalizable
    assert Counter({lam: a for lam, a, _ in ed.eigenvalues}) == Counter(
        {Fraction(-1): 1, Cyc(3, 0, 1): 1, Cyc(3, -1, -1): 1})


def test_inverse_and_symbolic_pivoting():
    W = m([[1, 1], [1, -1]], N=2)
    assert (W * W.inverse()).is_identity()
    D = m([[p, 0], [0, 1]], N=2)
    with pytest.raises(BranchAmbiguity):
        D.inverse()
    Dinv = D.inverse(NonVanishing(["p"]))
    assert (D * Dinv).is_identity()


def test_matrix_json_round_trip():
    M = m([[p / q, 1], [0, q]], N=2)
    again = ExactMatrix.from_json(json.loads(json.dumps(M.to_json())))
    assert again == M
    # omitted entries are zero: only the three nonzero entries are stored
    assert len(M.to_json()["entries"]) == 3


def test_commutant_of_identity():
    assert len(commutant_basis([ExactMatrix.identity(2, 1)])) == 4
    D = m([[1, 0], [0, 2]], N=2)
    assert len(commutant_basis([D])) == 2


def test_rep_pair_generator_images():
    R = m([[1, 0, 0, p], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])
    pair = RepPair(R, R, params=("p",), constraints=NonVanishing(["p"]))
    imgs = dict(pair.generator_images(3))
    assert set(imgs) == {"r1", "r2", "s1", "s2"}
    assert imgs["r1"] == embed_at(R, 1, 3)


def test_eigen_case2_x_jordan_type():
    # X = RS for the glued pair at p != q: one Jordan block of size 2 at
    # eigenvalue 1 plus the identity
    from mdreps.catalog import make_md_pair
    pr = make_md_pair("case2", p=2, q=5, check=False)
    ed = eigen_data(pr.R * pr.S)
    assert not ed.diagonalizable
    assert ed.eigenvalues == [(Fraction(1), 4, 3)]
    # at p = q the pair is Wangian and X = I
    pr_w = make_md_pair("case2", p=3, q=3, check=False)
    ed_w = eigen_data(pr_w.R * pr_w.S)
    assert ed_w.diagonalizable and ed_w.eigenvalues == [(Fraction(1), 4, 4)]


# ---------------------------------------------------------------------------
# the product against a plain entrywise loop

def _reference_product(A, B):
    rows = []
    for arow in A.rows:
        row = []
        for j in range(B.ncols):
            acc = RF_ZERO
            for k, a in enumerate(arow):
                acc = acc + a * B.rows[k][j]
            row.append(acc)
        rows.append(row)
    return rows


def _entry_pool(m):
    z = rf(zeta(m))
    return [0, 0, 0, 0, 1, -2, Fraction(1, 3), p, q + 1, p * q - 1,
            rf(1) / (p + 1), (p - q) / (q + 2), p / (p * q + 1),
            (q + 1) / (p - q), z, z * p - 1, (z + q) / (p + 1),
            rf(1) / (z * p + q)]


def _random_matrix(rng, pool, level):
    d = 2 ** level
    rows = [[rng.choice(pool) for _ in range(d)] for _ in range(d)]
    for i in rng.sample(range(d), rng.randint(0, 2)):
        rows[i] = [0] * d
    return m(rows)


def _signed_permutation(rng, level):
    d = 2 ** level
    perm = list(range(d))
    rng.shuffle(perm)
    rows = [[0] * d for _ in range(d)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice((1, -1))
    return m(rows)


def _assert_same_entries(M, rows):
    for mrow, rrow in zip(M.rows, rows):
        for x, y in zip(mrow, rrow):
            assert x.num == y.num and x.den == y.den


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("cyc", [3, 4, 6])
def test_product_matches_entrywise_loop(rng, level, cyc):
    pool = _entry_pool(cyc)
    I = ExactMatrix.identity(2, level)
    for _ in range(3 if level == 2 else 1):
        A = _random_matrix(rng, pool, level)
        B = _random_matrix(rng, pool, level)
        P = _signed_permutation(rng, level)
        for X, Y in ((A, B), (B, A), (A, I), (I, B), (P, A), (B, P), (P, P)):
            _assert_same_entries(X * Y, _reference_product(X, Y))


def _reference_dot(pairs):
    # the full fraction sum(a*b), reduced once by the constructor
    num, den = Poly(), Poly.const(1)
    for a, b in pairs:
        n, d = a.num * b.num, a.den * b.den
        num, den = num * d + n * den, den * d
    return RF(num, den)


def typed(P):
    return {mono: (type(c), c) for mono, c in P.terms.items()}


@st.composite
def _dot_pairs(draw):
    """Up to six pairs of constants over one field (0, +-1, fractions,
    a + b*zeta with b possibly 0, repeated operands), sometimes with one
    symbolic factor among them."""
    m = draw(st.sampled_from((None, 3, 4, 6)))

    def const():
        v = Fraction(draw(st.sampled_from((0, 1, -1, 2, Fraction(-1, 2),
                                           Fraction(3, 4)))))
        if m is not None and draw(st.booleans()):
            v = Cyc(m, v, draw(st.integers(-1, 1)))
        return rf(v)

    pool = [const() for _ in range(3)]
    pairs = [(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
             for _ in range(draw(st.integers(0, 6)))]
    if pairs and draw(st.integers(0, 3)) == 0:
        sym = draw(st.sampled_from((p, q + 1, rf(1) / (p + 1),
                                    (p - q) / (q + 2))))
        k = draw(st.integers(0, len(pairs) - 1))
        pairs[k] = (pairs[k][0], sym)
    return pairs


@given(pairs=_dot_pairs())
@settings(max_examples=300, deadline=None)
def test_dot_matches_reducing_constructor(pairs):
    got, want = _dot(pairs), _reference_dot(pairs)
    assert got.num == want.num and got.den == want.den
    if all(a.is_constant() and b.is_constant() for a, b in pairs):
        assert typed(got.num) == typed(want.num)
        assert typed(got.den) == typed(want.den)
        assert got is RF_ZERO or not got.is_zero()


def test_dot_keeps_the_coefficient_type_of_the_general_path():
    # a Cyc sum whose zeta part vanishes is its rational, so the sum is
    # stored as an int in either order, as Poly.__add__ stores it
    z = rf(zeta(3))
    got = _dot([(z, rf(1)), (-z, rf(1)), (rf(2), rf(1))])
    assert typed(got.num) == {(): (int, 2)}
    got = _dot([(z, rf(1)), (rf(2), rf(1)), (-z, rf(1))])
    assert typed(got.num) == {(): (int, 2)}
    assert _dot([(rf(2), rf(3)), (rf(-3), rf(2))]) is RF_ZERO
    # a zero factor adds no term, not even a zero Cyc
    got = _dot([(rf(1), rf(1)), (rf(0), z)])
    assert typed(got.num) == {(): (int, 1)}


@pytest.mark.parametrize("N,la,lb", [(2, 1, 1), (2, 1, 2), (2, 2, 1),
                                     (3, 1, 1), (2, 0, 2)])
def test_kron_matches_entrywise_definition(rng, N, la, lb):
    pool = _entry_pool(3) + [rf(Cyc(3, Fraction(2, 3)))]

    def rand(level):
        d = N ** level
        return ExactMatrix.from_rows([[rng.choice(pool) for _ in range(d)]
                                      for _ in range(d)], N=N,
                                     rows_level=level, cols_level=level)

    for _ in range(3):
        A, B = rand(la), rand(lb)
        K = kron(A, B)
        for w in words(N, la + lb):
            for v in words(N, la + lb):
                a = A.entry(w[:la], v[:la])
                b = B.entry(w[la:], v[la:])
                want = RF(a.num * b.num, a.den * b.den)
                got = K.entry(w, v)
                assert got.num == want.num and got.den == want.den
                assert typed(got.num) == typed(want.num)


def test_power_matches_repeated_product():
    A = m([[1, 2, 0, 0], [0, 1, 0, Fraction(1, 3)], [0, 0, -1, 0],
           [1, 0, 0, 1]])
    P = ExactMatrix.identity(2, 2)
    for k in range(7):
        assert A.power(k) == P
        P = P * A


# ---------------------------------------------------------------------------
# the integer echelon kernel against elimination over Fractions

def _nullspace_fraction(rows, ncols):
    """Reduced row echelon elimination over Fractions with the least nonzero
    column as pivot; the right-kernel basis, one vector per free column."""
    pivots = {}
    for r in rows:
        r = dict(r)
        for c in sorted(set(r) & set(pivots)):
            f = r.pop(c, None)
            if not f:
                continue
            for cc, v in pivots[c].items():
                if cc == c:
                    continue
                nv = r.get(cc, 0) - f * v
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
        r = {c: v for c, v in r.items() if v}
        if not r:
            continue
        piv = min(r)
        pv = r[piv]
        r = {c: v / pv for c, v in r.items()}
        r[piv] = Fraction(1)
        for c0, prow in pivots.items():
            f = prow.get(piv)
            if not f:
                continue
            for cc, v in r.items():
                if cc == piv:
                    continue
                nv = prow.get(cc, 0) - f * v
                if nv:
                    prow[cc] = nv
                else:
                    prow.pop(cc, None)
            prow.pop(piv, None)
        pivots[piv] = r
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for c, prow in pivots.items():
            v = prow.get(fcol)
            if v:
                vec[c] = -v
        basis.append(vec)
    return basis


def _random_system(rng, nrows, ncols, density, big):
    rows = []
    for _ in range(nrows):
        den = (lambda: rng.randint(1, 10 ** 12)) if big else \
            (lambda: rng.choice((1, 1, 2, 3, 5, 12)))
        rows.append({j: Fraction(rng.randint(-9, 9), den())
                     for j in range(ncols) if rng.random() < density})
    if rows and rng.random() < 0.5:
        rows.append(dict(rows[rng.randrange(len(rows))]))   # duplicate
    if rows and rng.random() < 0.5:
        k = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 6))
        rows.append({j: k * v for j, v in rows[0].items()})  # multiple
    rng.shuffle(rows)
    return rows


def _systems(rng):
    yield [], 1
    yield [], 4
    yield [{}, {}], 3
    yield [{0: Fraction(0), 2: Fraction(0)}], 3
    for _ in range(120):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        if rng.random() < 0.3:
            nrows = rng.randint(1, 3) * ncols   # tall
        yield (_random_system(rng, nrows, ncols, rng.choice((0.2, 0.5, 0.9)),
                              rng.random() < 0.3), ncols)


def test_echelon_nullspace_matches_fraction_elimination(rng):
    for rows, ncols in _systems(rng):
        expect = _nullspace_fraction(rows, ncols)
        got = sparse_nullspace([{j: rf(v) for j, v in r.items()}
                                for r in rows], ncols)
        assert got == [[rf(x) for x in vec] for vec in expect]


def test_echelon_rows_are_primitive_and_reduced(rng):
    for rows, ncols in _systems(rng):
        ech = Echelon()
        for r in rows:
            ech.insert({j: int(v * 10 ** 13) for j, v in r.items()})
        for p, row in ech.rows.items():
            assert row[p] > 0 and p == min(row)
            assert math.gcd(*row.values()) == 1
            for q0 in ech.rows:
                assert q0 == p or q0 not in row


def test_echelon_int_nullspace_is_the_cleared_fraction_basis(rng):
    # the vectors _clear made of the Fraction basis, read from the rows
    for rows, ncols in _systems(rng):
        ech = Echelon()
        for r in rows:
            if r:
                ech.insert(dict(zip(r, _clear(list(r.values()))[0])))
        got = ech.int_nullspace(ncols)
        assert got == [_clear(v)[0] for v in ech.nullspace(ncols)]
        for vec in got:
            assert all(type(x) is int for x in vec)
            assert math.gcd(*vec) == 1


def test_echelon_markers_never_pivot():
    ech = Echelon(bound=2)
    assert ech.insert({0: 2, 1: 4, 2: 6}) is None
    assert ech.insert({3: 5}) == {3: 1}
    assert ech.insert({0: 1, 1: 2, 3: 1}) == {2: -3, 3: 1}
    assert list(ech.rows) == [0]


def _integer_systems(rng):
    """(rows, bound, ncols): seeded sparse integer systems over ncols
    columns, with common factors, big entries and combinations of earlier
    rows.  A third have no bound; a third have bound ncols and give row i
    a marker at column ncols + i."""
    for k in range(150):
        ncols = rng.randint(1, 10)
        bound = None if k % 3 == 0 else ncols
        size = 10 ** 12 if rng.random() < 0.2 else 9
        rows = []
        for _ in range(rng.randint(1, 2 * ncols)):
            f = rng.choice((1, 1, 2, 6, 35))
            row = {j: f * rng.randint(-size, size) for j in range(ncols)
                   if rng.random() < rng.choice((0.3, 0.6, 0.9))}
            if rows and rng.random() < 0.3:
                a, b = rng.sample(range(-4, 5), 2)
                for j, v in rng.choice(rows).items():
                    if j < ncols:
                        row[j] = row.get(j, 0) * a + b * v
            if bound is not None and k % 3 == 2:
                row[ncols + len(rows)] = rng.randint(1, 5)
            rows.append(row)
        yield rows, bound, ncols


def test_echelon_matches_the_stepwise_kernel(rng):
    # the kernel that divided the content after every elimination, on every
    # reduction, residual, stored row and nullspace
    residuals = nonprimitive = 0
    for rows, bound, ncols in _integer_systems(rng):
        got, want = Echelon(bound), stepwise_echelon.Echelon(bound)
        for row in rows:
            assert got.reduce(row) == want.reduce(row)
            res = got.insert(row)
            assert res == want.insert(row)
            assert list(got.rows.items()) == list(want.rows.items())
            residuals += res is not None
            nonprimitive += math.gcd(*row.values()) > 1
        assert got.nullspace(ncols) == want.nullspace(ncols)
        assert got.int_nullspace(ncols) == want.int_nullspace(ncols)
    assert residuals >= 100 and nonprimitive >= 100


def test_echelon_divides_the_content_once_per_reduction(rng, monkeypatch):
    calls = []
    divide = matrix._divide_content

    def counted(row):
        calls.append(row)
        divide(row)
    monkeypatch.setattr(matrix, "_divide_content", counted)
    eliminations = 0
    for rows, bound, _ in _integer_systems(rng):
        ech = Echelon(bound)
        for row in rows[:-1]:
            ech.insert(row)
        for row in rows:
            del calls[:]
            ech.reduce(row)
            assert len(calls) == 1
            eliminations += sum(1 for c, v in row.items()
                                if v and c in ech.rows)
    assert eliminations >= 500


# The two RF elimination loops that ``RFEchelon`` replaced, kept verbatim as
# oracles: the row-by-row sparse nullspace, and the dense column-pivoting
# Gauss-Jordan loop of ``ExactMatrix.inverse``.

def _nullspace_rf(rows, ncols, constraints):
    rows = [dict(r) for r in rows]
    pivots = {}  # col -> reduced row (dict)
    for r in rows:
        # reduce against existing pivots
        for c in sorted(set(r) & set(pivots)):
            f = r.get(c)
            if f is None or f.is_zero():
                r.pop(c, None)
                continue
            prow = pivots[c]
            for cc, v in prow.items():
                if cc == c:
                    continue
                nv = r.get(cc, RF_ZERO) - f * v
                if nv.is_zero():
                    r.pop(cc, None)
                else:
                    r[cc] = nv
            r.pop(c, None)
        r = {c: v for c, v in r.items() if not v.is_zero()}
        if not r:
            continue
        # choose a certified pivot
        piv = None
        for c in sorted(r):
            if _certified(r[c], constraints):
                piv = c
                break
        if piv is None:
            raise BranchAmbiguity(r[sorted(r)[0]].num)
        pv = r[piv]
        r = {c: v / pv for c, v in r.items()}
        r[piv] = RF_ONE
        # eliminate the new pivot from previous pivot rows
        for c0, prow in pivots.items():
            f = prow.get(piv)
            if f is None or f.is_zero():
                continue
            for cc, v in r.items():
                if cc == piv:
                    continue
                nv = prow.get(cc, RF_ZERO) - f * v
                if nv.is_zero():
                    prow.pop(cc, None)
                else:
                    prow[cc] = nv
            prow.pop(piv, None)
        pivots[piv] = r
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [RF_ZERO] * ncols
        vec[fcol] = RF_ONE
        for c, prow in pivots.items():
            v = prow.get(fcol)
            if v is not None:
                vec[c] = -v
        basis.append(vec)
    return basis


def _inverse_gauss_jordan(M, constraints=None):
    n = M.nrows
    a = [row[:] + [RF_ONE if j == i else RF_ZERO for j in range(n)]
         for i, row in enumerate(M.rows)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not a[r][col].is_zero() and _certified(a[r][col], constraints):
                piv = r
                break
        if piv is None:
            for r in range(col, n):
                if not a[r][col].is_zero():
                    raise BranchAmbiguity(a[r][col].num)
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return ExactMatrix(M.N, M.rows_level, M.cols_level,
                       [row[n:] for row in a])


def _commutation_rows_summed(M, zero):
    """The loop ``_commutation_rows`` replaced: each row summed entry by
    entry, with no use of where the two sums meet."""
    d = len(M)
    col_support = [[] for _ in range(d)]
    row_support = [[] for _ in range(d)]
    for i, mrow in enumerate(M):
        for j, x in enumerate(mrow):
            if x != zero:
                col_support[j].append(i)
                row_support[i].append(j)
    out = []
    for i in range(d):
        for j in range(d):
            row = {}
            for k in col_support[j]:
                t = i * d + k
                row[t] = row.get(t, zero) + M[k][j]
            for k in row_support[i]:
                t = k * d + j
                row[t] = row.get(t, zero) - M[i][k]
            row = {t: v for t, v in row.items() if v != zero}
            if row:
                out.append(row)
    return out


def _commutant_oracle(mats, constraints=None):
    """The commutant as it was solved before the rows were sorted: the
    commutation rows in generator order through the row-by-row loop."""
    d = mats[0].nrows
    rows = [r for M in mats for r in _commutation_rows_summed(M.rows, RF_ZERO)]
    basis = _nullspace_rf(rows, d * d, constraints)
    return [[vec[i * d:(i + 1) * d] for i in range(d)] for vec in basis]


def test_commutation_rows_match_the_summed_loop(rng):
    pool = [0, 0, 0, 1, -1, 2, 7]
    rf_pool = [RF_ZERO, RF_ZERO, rf(1), rf(-1), p, q, p - q, 1 / p,
               rf(zeta(3))]
    for _ in range(60):
        d = rng.choice((1, 2, 3, 4, 8))
        M = [[rng.choice(pool) for _ in range(d)] for _ in range(d)]
        if rng.random() < 0.3:  # a scalar diagonal
            for i in range(d):
                M[i][i] = M[0][0]
        assert _commutation_rows(M, 0) == _commutation_rows_summed(M, 0)
        R = [[rng.choice(rf_pool) for _ in range(d)] for _ in range(d)]
        assert (_commutation_rows(R, RF_ZERO)
                == _commutation_rows_summed(R, RF_ZERO))


def test_constant_commutant_matches_symbolic_path(rng):
    pool = [0, 0, 0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 7),
            Fraction(10 ** 9 + 7, 3)]
    cases = [[ExactMatrix.identity(2, 2)], [ExactMatrix.zeros(2, 2)],
             [m([[Fraction(7, 3)]], N=1)]]
    for _ in range(12):
        d = rng.choice((1, 2, 4))
        cases.append([m([[rng.choice(pool) for _ in range(d)]
                         for _ in range(d)]) for _ in range(rng.randint(1, 3))])
    from mdreps.catalog import analysis_pair
    pair = analysis_pair("f-glue", p=2, q=5).evaluate({"p": 2, "q": 5})
    cases.append([M for _, M in pair.generator_images(3)])
    for mats in cases:
        got = [T.rows for T in commutant_basis(mats)]
        assert got == _commutant_oracle(mats)


def test_nullity_against_sympy(rng):
    sp = pytest.importorskip("sympy")
    for rows, ncols in _systems(rng):
        if not rows:
            continue
        dense = [[r.get(j, 0) for j in range(ncols)] for r in rows]
        got = sparse_nullspace([{j: rf(v) for j, v in r.items()}
                                for r in rows], ncols)
        assert len(got) == ncols - sp.Matrix(dense).rank()


# ---------------------------------------------------------------------------
# RFEchelon against the loops it replaced

P, Q = Poly.var("p"), Poly.var("q")
_NV_SETS = (None, NonVanishing(["p"]), NonVanishing(["q"]),
            NonVanishing(["p", "q"]), NonVanishing(["p", "q", P - Q]),
            NonVanishing(["p", "q", P - Q, P + Q]))


def _outcome(f, *args):
    """f(*args), or the class name of the elimination error it raises and,
    for a BranchAmbiguity, its polynomial."""
    try:
        return f(*args)
    except BranchAmbiguity as exc:
        return ("BranchAmbiguity", exc.poly)
    except ZeroDivisionError:
        return ("ZeroDivisionError",)


def test_rf_echelon_nullspace_matches_the_loop_it_replaced(rng):
    pool = [rf(1), rf(-1), rf(Fraction(2, 3)), p, q, p - q, p + q, p * q,
            1 / p, p / q, q * q - 1, rf(zeta(3)), p * zeta(3)]
    seen = set()
    for _ in range(120):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.3, 0.6, 0.9))
        rows = [{j: rng.choice(pool) for j in range(ncols)
                 if rng.random() < density} for _ in range(nrows)]
        if rng.random() < 0.5:  # a dependent row
            f = rng.choice(pool)
            rows.append({j: f * v for j, v in rows[0].items()})
        rng.shuffle(rows)
        nv = rng.choice(_NV_SETS)
        got = _outcome(sparse_nullspace, rows, ncols, nv)
        assert got == _outcome(_nullspace_rf, rows, ncols, nv)
        seen.add(type(got))
    assert seen == {list, tuple}


def _workload_commutants():
    """The symbolic f-glue, a-glue and antislash pairs of the
    decompose-point workload, with their constraints."""
    from mdreps.catalog import analysis_pair, make_md_pair
    t = Poly.var("t")
    one = Poly.const(1)
    return [(analysis_pair("f-glue"), NonVanishing(["p", "q", Q - P, P + Q])),
            (analysis_pair("a-glue"), NonVanishing(["p", "q", Q - P])),
            (make_md_pair("case6a", eps=-1, t="t", check=False),
             NonVanishing(["t", t - one, t + one]))]


@pytest.mark.parametrize("n", [3, 4])
def test_symbolic_commutants_match_the_loop_they_replaced(n):
    from mdreps.catalog import Transform, apply_transform, make_md_pair
    cases = _workload_commutants()
    if n == 3:
        # a cyclotomic pair: the shortest-first pass raises, the generator
        # order answers
        A = m([[zeta(3), 0], [1, 1]])
        one = Poly.const(1)
        cases.append((apply_transform(Transform("local_conj", A),
                                      make_md_pair("case2", check=False)),
                      NonVanishing(["p", "q", P - Q, P + Q, P - one,
                                    P - one - one])))
    dims = []
    for pair, nv in cases:
        mats = [M for _, M in pair.generator_images(n)]
        got = [T.rows for T in commutant_basis(mats, nv)]
        assert got == _commutant_oracle(mats, nv)
        dims.append(len(got))
    assert dims == {3: [6, 4, 6, 4], 4: [7, 4, 7]}[n]


def test_symbolic_commutants_match_the_generator_order(rng):
    """Seeded symbolic and Q(zeta_3) sets of 1-3 matrices of size 1, 2 or
    4, under each constraint set, against the generator-order oracle: the
    same basis wherever the oracle answers, the same BranchAmbiguity
    wherever the shortest-first path raises; where only that path answers,
    its basis commutes with every input."""
    pool = [1, -1, 2, Fraction(1, 3), p, q, p - q, p + q, p * q, 1 / p,
            p / q, q * q - 1, zeta(3), p * zeta(3)]
    seen = Counter()
    for _ in range(400):
        d = rng.choice((1, 2, 2, 4, 4))
        mats = []
        for _ in range(rng.randint(1, 3)):
            zeros = [0] * rng.choice((7, 28, 56))
            mats.append(m([[rng.choice(pool + zeros) for _ in range(d)]
                           for _ in range(d)], N=1 if d == 1 else 2))
        while all(M._ints is not None for M in mats):
            M = rng.choice(mats)
            M.rows[rng.randrange(d)][rng.randrange(d)] = rng.choice(
                (p, rf(zeta(3)), q - p))
        nv = rng.choice(_NV_SETS)
        got = _outcome(commutant_basis, mats, nv)
        want = _outcome(_commutant_oracle, mats, nv)
        if isinstance(got, tuple):
            assert got == want
            seen["both raise"] += 1
        elif isinstance(want, list):
            assert [T.rows for T in got] == want
            seen["both answer"] += 1
        else:
            assert all(T * M == M * T for T in got for M in mats)
            seen["only the new path answers"] += 1
    assert len(seen) == 3, seen


def _count_gcds(monkeypatch, solvers, n=3):
    """The poly_gcd calls each solver makes on the workload commutants at
    level n, and the dimensions of the last solver's commutants."""
    import mdreps.scalar as scalar
    calls = Counter()
    gcd = scalar.poly_gcd

    def counted(*args):
        calls[path] += 1
        return gcd(*args)
    cases = [([M for _, M in pair.generator_images(n)], nv)
             for pair, nv in _workload_commutants()]
    monkeypatch.setattr(scalar, "poly_gcd", counted)
    for path, solve in solvers.items():
        dims = [len(solve(mats, nv)) for mats, nv in cases]
    return calls, dims


def test_symbolic_commutants_take_fewer_gcds(monkeypatch):
    # 25 poly_gcd calls against 492 through the generator-order oracle
    calls, _ = _count_gcds(monkeypatch, {"new": commutant_basis,
                                         "oracle": _commutant_oracle})
    assert calls["new"] <= 0.7 * calls["oracle"], calls


def test_workload_commutants_take_no_gcd_with_a_known_answer(monkeypatch):
    # 25 calls; 655 when every gcd of proportional polynomials ran the PRS
    calls, _ = _count_gcds(monkeypatch, {"new": commutant_basis})
    assert calls["new"] <= 200, calls


@pytest.mark.parametrize("n, dims, most", [(3, [6, 4, 6], 60),
                                           (4, [7, 4, 7], 100),
                                           (5, [8, 4, 8], 120)])
def test_workload_commutants_from_level_2_copies_take_few_gcds(monkeypatch, n,
                                                               dims, most):
    # 25 calls at each level: the level-2 systems of {R, S} are reduced
    # once; solving the raw d^2 rows took 165, 938 and 4 857 calls
    calls, got = _count_gcds(monkeypatch, {"new": commutant_basis}, n)
    assert got == dims
    assert calls["new"] <= most, calls


def _random_site_image(rng, pool, n):
    return embed_at(m([[rng.choice(pool) for _ in range(4)]
                       for _ in range(4)]), rng.randint(1, n - 1), n)


def test_site_of_recognises_single_site_images(rng):
    pool = [0, 0, 1, -1, 2, Fraction(1, 3), p, q, p - q, 1 / p, zeta(3)]
    X4 = [m([[rng.choice(pool) for _ in range(4)] for _ in range(4)])
          for _ in range(6)]
    X4.append(m([[1, 2, 0, 0], [0, 3, 0, 0], [0, 0, 1, 0], [5, 0, 0, 3]]))
    # the identity, and a (x) I (a on the site's first letter, so also
    # I (x) a at the site before), are images at more than one site; they
    # are read at the least one
    I4, a = ExactMatrix.identity(2, 2), m([[1, 2], [0, 3]])
    shared = [(I4, lambda i: 1), (kron(a, I2), lambda i: max(i - 1, 1))]
    for n in (2, 3, 4):
        for i in range(1, n):
            for X in X4:
                got = _site_of(embed_at(X, i, n))
                assert got == (None if n == 2 else (X, i)), (n, i)
                if got is not None:
                    assert (got[0]._ints is None) == (X._ints is None)
            for X, site in shared:
                M = embed_at(X, i, n)
                got = _site_of(M)
                assert got is None if n == 2 else got[1] == site(i)
                assert got is None or embed_at(*got, n) == M
    # R = S: both generator images at each site read as R
    pair = RepPair(X4[0], X4[0].copy())
    for n in (3, 4):
        assert [_site_of(M) for _, M in pair.generator_images(n)] == [
            (X4[0], i) for i in range(1, n) for _ in "rs"]


def test_site_of_refuses_other_matrices(rng):
    pool = [0, 0, 1, -1, 2, p, q, p - q, zeta(3)]
    R, S = (m([[rng.choice(pool) for _ in range(4)] for _ in range(4)])
            for _ in range(2))
    perm = list(range(8))
    rng.shuffle(perm)
    P = m([[int(perm[i] == j) for j in range(8)] for i in range(8)])
    r1 = embed_at(R, 1, 3)
    others = [r1 * embed_at(S, 2, 3),
              P * r1 * P.transpose(),
              m([[rng.choice(pool) for _ in range(8)] for _ in range(8)]),
              R, S]
    nv = NonVanishing(["p", "q"])
    for M in others:
        assert _site_of(M) is None
        # one such input sends the whole set to the raw rows
        assert _local_echelon([r1, M] if M.nrows == 8 else [M], nv) is None


def _raw_commutant(mats, constraints=None):
    """The commutant from ``_d2_echelon`` on the raw commutation rows of
    the inputs, as it was solved before the level-2 copies."""
    d = mats[0].nrows
    basis = _d2_echelon(mats, constraints).nullspace(d * d)
    return [[vec[i * d:(i + 1) * d] for i in range(d)] for vec in basis]


def test_copies_that_pivot_past_an_uncertified_column_go_to_the_raw_rows():
    # the level-2 rows of X keep p + q, which p alone does not certify, at
    # their least column, so the copies pivot past it: their pass is not
    # the reduced row echelon form, and the raw rows decide the basis
    X = m([[0, 0, 0, -1], [0, 0, -1, q], [1, 0, q, 0], [0, p + q, 0, 0]])
    mats = [embed_at(X, 2, 3)]
    nv = NonVanishing(["p"])
    assert _local_echelon(mats, nv) is None
    assert [T.rows for T in commutant_basis(mats, nv)] == \
        _raw_commutant(mats, nv)


def _local_conj_cases():
    """Every symbolic catalog pair, untransformed and under local_conj by
    four 2x2 matrices, one of them over Q(zeta_3)."""
    from mdreps.catalog import (ALL_CASES, Transform, apply_transform,
                                make_md_pair)
    conj = [None, m([[zeta(3), 0], [1, 1]]), m([[2, 0], [1, 1]]),
            m([[1, 1], [0, 1]]), m([[1, 2], [-1, 1]])]
    for case, kw in ALL_CASES:
        pair = make_md_pair(case, check=False, **kw)
        if pair.R._ints is not None and pair.S._ints is not None:
            continue
        for A in conj:
            yield (case, A), (pair if A is None else apply_transform(
                Transform("local_conj", A), pair))


def test_local_commutants_match_the_raw_rows(rng):
    """Sets of single-site images against ``_d2_echelon`` on their raw
    rows: the generator images of seeded symbolic and Q(zeta_3) 4x4 pairs
    at n = 3 and 4, seeded sets of 1-3 such matrices at random sites, and
    the generator images at n = 3 of the catalog pairs of
    ``_local_conj_cases`` (case3-wangian untransformed only: each of its
    conjugates takes seconds on either path).  The same basis wherever
    both answer, the same BranchAmbiguity wherever the new path raises;
    where only the new path answers, its basis commutes with every
    input."""
    pool = [1, -1, 2, Fraction(1, 3), p, q, p - q, p + q, p * q, 1 / p,
            p / q, q * q - 1, zeta(3), p * zeta(3)]

    def draw():
        return pool + [0] * rng.choice((7, 28, 56))
    inputs = []
    for k in range(44):
        R, S = (m([[rng.choice(pool_z) for _ in range(4)] for _ in range(4)])
                for pool_z in (draw(), draw()))
        n = 4 if k >= 40 else 3
        inputs.append(([M for _, M in RepPair(R, S).generator_images(n)],
                       rng.choice(_NV_SETS)))
    for k in range(20):
        # mostly rational pairs with one symbolic or cyclotomic entry
        R, S = (m([[rng.choice(pool[:4] + [0] * 6) for _ in range(4)]
                   for _ in range(4)]) for _ in range(2))
        R.rows[rng.randrange(4)][rng.randrange(4)] = rng.choice(
            (p, rf(zeta(3)), q - p))
        inputs.append(([M for _, M in RepPair(R, S).generator_images(3)],
                       rng.choice(_NV_SETS)))
    for k in range(20):
        n = 4 if k % 5 == 0 else 3
        inputs.append(([_random_site_image(rng, draw(), n)
                        for _ in range(rng.randint(1, 3))],
                       rng.choice(_NV_SETS)))
    for (case, A), pair in _local_conj_cases():
        if case == "case3-wangian" and A is not None:
            continue
        mats = [M for _, M in pair.generator_images(3)]
        inputs.append((mats, rng.choice(_NV_SETS)))
        if case == "case2" and A is not None:
            # under the widest set the raw rows raise on a (p - 1)(p - 2)
            # multiple for two of these conjugates
            inputs.append((mats, _NV_SETS[-1]))
    seen = Counter()
    for mats, nv in inputs:
        got = _outcome(commutant_basis, mats, nv)
        want = _outcome(_raw_commutant, mats, nv)
        if isinstance(got, tuple):
            assert got == want
            seen["both raise"] += 1
        elif isinstance(want, list):
            assert [T.rows for T in got] == want
            seen["both answer"] += 1
        else:
            assert all(T * M == M * T for T in got for M in mats)
            seen["only the new path answers"] += 1
    assert len(seen) == 3, seen


class _DividingEchelon(RFEchelon):
    """RFEchelon with the insert that divided the pivot entry by itself:
    every entry of a new row is divided by the pivot entry."""

    __slots__ = ()

    def insert(self, row):
        row = dict(row)
        rows = self.rows
        for p in sorted(set(row) & set(rows)):
            _rf_eliminate(row, rows[p], p)
        row = {c: v for c, v in row.items() if not v.is_zero()}
        bound = self.bound
        cols = sorted(c for c in row if bound is None or c < bound)
        if not cols:
            return row
        piv = next((c for c in cols if _certified(row[c], self.constraints)),
                   None)
        if piv is None:
            raise BranchAmbiguity(row[cols[0]].num)
        pv = row[piv]
        row = {c: v / pv for c, v in row.items()}
        for prow in rows.values():
            if piv in prow:
                _rf_eliminate(prow, row, piv)
        rows[piv] = row
        return None


def test_rf_echelon_stores_the_rows_of_dividing_the_pivot_by_itself(rng):
    pool = [rf(1), rf(-1), rf(Fraction(2, 3)), p, q, p - q, p + q, p * q,
            1 / p, p / q, q * q - 1, (p * p - p * q) / q, rf(zeta(3)),
            p * zeta(3)]
    pivots = 0
    for _ in range(120):
        ncols = rng.randint(1, 7)
        nv = rng.choice(_NV_SETS)
        bound = rng.choice((None, ncols))
        got, want = RFEchelon(nv, bound), _DividingEchelon(nv, bound)
        for _ in range(rng.randint(1, 7)):
            row = {j: rng.choice(pool) for j in range(ncols)
                   if rng.random() < 0.6}
            assert _outcome(got.insert, row) == _outcome(want.insert, row)
            assert got.rows == want.rows
        pivots += len(got.rows)
    assert pivots > 200, pivots


def test_rf_echelon_markers_never_pivot():
    ech = RFEchelon(NonVanishing(["p"]), bound=2)
    assert ech.insert({0: p, 1: 2 * p, 2: 3 * p}) is None
    # a marker entry is never a pivot, certified or not
    assert ech.insert({3: q}) == {3: q}
    assert ech.insert({0: rf(1), 1: rf(2), 3: rf(1)}) == {2: rf(-3),
                                                          3: rf(1)}
    assert list(ech.rows) == [0] and ech.rows[0] == {0: RF_ONE, 1: rf(2),
                                                     2: rf(3)}


def test_rf_echelon_pivots_on_the_least_certified_column():
    ech = RFEchelon(NonVanishing(["p"]))
    assert ech.insert({0: q, 1: p, 2: rf(1)}) is None
    assert list(ech.rows) == [1] and ech.rows[1][0] == q / p
    with pytest.raises(BranchAmbiguity) as exc:
        ech.insert({0: p - q, 2: q})
    # after reduction no entry is certified; the least one is named
    assert exc.value.poly == (p - q).num
    assert ech.nullspace(3) == [[RF_ONE, -q / p, RF_ZERO],
                                [RF_ZERO, -1 / p, RF_ONE]]


def test_rf_inverse_matches_gauss_jordan(rng):
    """Seeded symbolic 2x2 and 4x4 matrices over p and q under each
    constraint set: the kernel returns the dense loop's inverse, or raises
    its ZeroDivisionError or its BranchAmbiguity on the same polynomial."""
    pool = [1, -1, 2, p, q, p - q, p + q, 1 / p, p / q, p * q]
    seen = Counter()
    for k in range(5000):
        # one 4x4 in ten, half zeros; the 2x2s a quarter zeros
        n, zeros = (4, 10) if k % 10 == 0 else (2, 3)
        M = m([[rng.choice(pool + [0] * zeros) for _ in range(n)]
               for _ in range(n)])
        while M._ints is not None:
            M.rows[rng.randrange(n)][rng.randrange(n)] = p
        nv = rng.choice(_NV_SETS)
        got = _outcome(M.inverse, nv)
        assert got == _outcome(_inverse_gauss_jordan, M, nv)
        seen[got[0] if isinstance(got, tuple) else "inverse"] += 1
    assert min(seen.values()) > 200 and len(seen) == 3


def test_rf_inverse_keeps_the_gauss_jordan_row_order():
    # column 0 pivots on row 3, which Gauss-Jordan swaps with row 0; column
    # 1 then tries row 1 before row 0.  Pivoting on row 0 instead leaves
    # only p*q and q*(1 - p) for column 2, neither certified by q alone.
    M = m([[0, -1, p * q, 2], [0, 1, 0, 0], [0, -1, q, 0], [2, 0, 1 / p, 0]])
    nv = NonVanishing(["q"])
    Minv = M.inverse(nv)
    assert Minv == _inverse_gauss_jordan(M, nv)
    assert (M * Minv).is_identity() and (Minv * M).is_identity()


# The dense Fraction loop that ``char_poly`` ran on every RF-form matrix,
# kept as the oracle (it reads the public ``rows``, which puts a
# constant-form matrix into the RF form).  Its one change divides by
# Fraction(k): a trace whose zeta part cancels is an int, and int / int
# would be a float.

def _char_poly_dense(A):
    n = A.nrows
    vals = [[e.const_value() if e.is_constant() else None for e in row]
            for row in A.rows]
    for row in vals:
        for e in row:
            if e is None:
                raise ValueError("char_poly needs constant entries")
    M = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]  # leading
    for k in range(1, n + 1):
        AM = [[sum((vals[i][l] * M[l][j] for l in range(n)), Fraction(0))
               for j in range(n)] for i in range(n)]
        tr = sum((AM[i][i] for i in range(n)), Fraction(0))
        c = -tr / Fraction(k)
        coeffs.append(c)
        M = [[AM[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    # coeffs[k] multiplies x^(n-k); return ascending order c_0..c_n
    return list(reversed(coeffs))


def _char_poly_inputs(rng):
    """(kind, matrices) for 216 seeded rational matrices of sizes 1..9, each
    in the constant form and in the RF form, 90 cyclotomic ones of sizes
    1..6 over Q(zeta_m) for m = 3, 4, 6 with integral components, then four
    of sizes 8 and 9 over Q(zeta_3) and Q(zeta_4) whose entries have
    denominators too: 526 inputs, zero entries in about a third of the
    positions."""
    rat = [0, 0, 0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-5, 3),
           Fraction(9, 4)]
    draws = [("rational", 1 + k % 9, rat) for k in range(216)]
    for k in range(90):
        z = zeta((3, 4, 6)[k // 6 % 3])
        draws.append(("cyc", 1 + k % 6,
                      rat[:8] + [z, -z, z * z, 1 + z, z - 2]))
    for order in (3, 4):
        z = zeta(order)
        draws += [("cyc", d, rat + [z, -z, z * z, 1 + z, z / 2, (1 - z) / 3])
                  for d in (8, 9)]
    for kind, d, pool in draws:
        rows = [[rng.choice(pool) for _ in range(d)] for _ in range(d)]
        if kind == "cyc" and not any(isinstance(e, Cyc) for r in rows
                                     for e in r):
            rows[0][0] = pool[-1]
        rf_form = ExactMatrix(d, 1, 1, [[rf(e) for e in r] for r in rows])
        if kind == "cyc":
            yield kind, [rf_form]
        else:
            yield kind, [m(rows, N=d), rf_form]


def test_char_poly_matches_the_dense_loop(rng):
    """One Faddeev-LeVerrier loop for every constant matrix: the oracle's
    values and types everywhere.  A coefficient whose zeta part is 0 is
    rational in both loops, so on cyclotomic input too each is a Fraction
    or a Cyc in both."""
    seen = Counter()
    for kind, mats in _char_poly_inputs(rng):
        want = _char_poly_dense(mats[-1])
        assert [M._ints is not None for M in mats] == \
            ([True, False] if kind == "rational" else [False])
        for M in mats:
            got = char_poly(M)
            assert got == want, (kind, M.rows)
            for g, w in zip(got, want):
                assert type(g) is type(w), (kind, g, w)
                seen[kind, type(g).__name__] += 1
    assert set(seen) == {("rational", "Fraction"), ("cyc", "Fraction"),
                         ("cyc", "Cyc")}


def test_char_poly_of_a_cyclotomic_matrix_runs_on_integral_rows(rng):
    """``_char_poly`` clears a cyclotomic matrix as it clears a rational
    one: to entries in Z[zeta_m] over the least integer D.  Its list is
    D^n det(xI - A), the oracle's monic list times D^n, and holds only ints
    and Cycs with integer components."""
    cycs = 0
    for kind, (A, *_) in _char_poly_inputs(rng):
        if kind != "cyc":
            continue
        D = math.lcm(*(r.denominator for row in A.rows for e in row
                       for x in [e.const_value()]
                       for r in ((x.a, x.b) if isinstance(x, Cyc) else (x,))))
        got = matrix._char_poly(A)
        assert got == [w * D ** A.nrows for w in _char_poly_dense(A)]
        for c in got:
            assert type(c) is int or (type(c) is Cyc and type(c.a) is int
                                      and type(c.b) is int), (A.rows, c)
            cycs += type(c) is Cyc
    assert cycs > 200


def test_char_poly_refuses_a_symbolic_entry():
    with pytest.raises(ValueError, match="constant entries"):
        char_poly(m([[p, 1], [0, 1]]))


def test_eigen_data_order_reads_the_spectrum():
    assert eigen_data(h).order(1000) == 2
    assert eigen_data(h).order(1) is None
    rot3 = m([[0, -1], [1, -1]])
    assert eigen_data(rot3).order(1000) == 3
    assert eigen_data(m([[1, 1], [0, 1]])).order(1000) is None
    assert eigen_data(m([[1, 0], [0, 2]])).order(1000) is None
