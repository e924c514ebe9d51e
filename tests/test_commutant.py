"""The constant commutant by spinning against the d^2-unknown commutation
system it replaced, and the level-7 decompositions it makes cheap."""

import random
from fractions import Fraction

import pytest

import mdreps.matrix as matrix
import mdreps.structure as structure
from mdreps.catalog import analysis_pair, make_md_pair
from mdreps.matrix import (Echelon, ExactMatrix, _commutation_rows,
                           _fraction_matrix, _int_form, commutant_basis)
from mdreps.structure import decompose


def _d2_commutant(mats):
    """The oracle: the d^2-unknown commutation system T A = A T on the
    integer rows, solved by ``Echelon``, one basis matrix per free column in
    column order."""
    d = mats[0].nrows
    N, lvl = mats[0].N, mats[0].rows_level
    ech = Echelon()
    for M in mats:
        for r in _commutation_rows(_int_form(M)[0], 0):
            ech.insert(r)
    return [_fraction_matrix(N, lvl, lvl, [vec[i * d:(i + 1) * d]
                                           for i in range(d)])
            for vec in ech.nullspace(d * d)]


def _check(mats):
    got = commutant_basis(mats)
    assert got == _d2_commutant(mats)
    assert all(T._ints is not None for T in got)
    return got


def _q(rows):
    return ExactMatrix.from_rows(rows, N=len(rows), rows_level=1,
                                 cols_level=1)


def _block_diag(*blocks):
    d = sum(len(b) for b in blocks)
    out = [[0] * d for _ in range(d)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[k + i][k:k + len(row)] = row
        k += len(b)
    return out


def _conjugate(rows_list, rng):
    """The matrices conjugated by one seeded unipotent integer matrix, so
    that no summand is a coordinate subspace."""
    d = len(rows_list[0])
    P = _q([[rng.choice((-1, 1, 2)) if j > i and rng.random() < 0.4
             else int(i == j) for j in range(d)] for i in range(d)])
    Pinv = P.inverse()
    return [P * _q(rows) * Pinv for rows in rows_list]


def _random_block(rng, k):
    pool = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    return [[rng.choice(pool) for _ in range(k)] for _ in range(k)]


def _non_cyclic_modules(rng, count):
    """Seeded modules on 1-3 generators that no single vector spins to:
    direct sums with a repeated summand (A + A + B) and non-split
    extensions [[A, X], [0, A]] of a summand by itself."""
    for t in range(count):
        ngens = rng.randint(1, 3)
        k = rng.randint(1, 3)
        A = [_random_block(rng, k) for _ in range(ngens)]
        if t % 2 == 0:
            k2 = rng.randint(1, 2)
            B = [_random_block(rng, k2) for _ in range(ngens)]
            rows = [_block_diag(a, a, b) for a, b in zip(A, B)]
        else:
            rows = []
            for a in A:
                ext = _block_diag(a, a)
                for i in range(k):
                    for j in range(k, 2 * k):
                        ext[i][j] = rng.randint(-2, 2)
                rows.append(ext)
        yield _conjugate(rows, rng)


def test_spin_commutant_edge_cases():
    # d = 1, including the zero matrix: the commutant is everything
    for x in (0, 1, Fraction(-7, 3)):
        assert _check([_q([[x]])]) == [_q([[1]])]
    # all-scalar generators: the full matrix algebra, d^2 matrix units in
    # row-major order
    for d in (2, 3, 4):
        scal = [_q([[Fraction(c) * (i == j) for j in range(d)]
                    for i in range(d)]) for c in (0, 1, -2)]
        for mats in ([scal[0]], scal):
            basis = _check(mats)
            assert len(basis) == d * d
            assert basis == [_q([[int((i, j) == (a, b)) for j in range(d)]
                                 for i in range(d)])
                             for a in range(d) for b in range(d)]
    # a single generator, and the same generator listed twice
    J = _q([[1, 0, 0], [1, 1, 0], [0, 0, 2]])
    assert len(_check([J])) == 3
    assert _check([J, J]) == _check([J])
    # matrices over N = 2 words, as the catalog makes them
    _check([ExactMatrix.identity(2, 1)])
    _check([ExactMatrix.identity(2, 2), ExactMatrix.zeros(2, 2)])


def test_spin_commutant_of_non_cyclic_modules():
    dims = []
    for mats in _non_cyclic_modules(random.Random(31), 24):
        dims.append(len(_check(mats)))
    # a repeated summand gives a commutant of dimension at least 4
    assert max(dims) >= 4


def test_spin_commutant_on_the_inputs_of_the_other_tests():
    # the constant inputs the splitter, clifford and matrix tests take
    # their commutants of
    from test_structure import _block_reps
    for mats in _block_reps(random.Random(11), 20):
        _check(mats)
    _check([ExactMatrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0],
                                   [0, 0, 0, 4]])])
    _check([ExactMatrix.from_rows([[1, 0], [0, -1]], N=2)])
    _check([ExactMatrix.from_rows([[2, 0], [0, 3]], N=2)])


def test_spin_commutant_of_random_matrices(rng):
    pool = [0, 0, 0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 7),
            Fraction(10 ** 9 + 7, 3)]
    for _ in range(30):
        d = rng.choice((1, 2, 3, 4, 5))
        _check([_q([[rng.choice(pool) for _ in range(d)] for _ in range(d)])
                for _ in range(rng.randint(1, 3))])


def _catalog_points():
    fgp = analysis_pair("f-glue", p=2, q=5).evaluate({"p": 2, "q": 5})
    agp = analysis_pair("a-glue", p=2, q=5)
    asp = make_md_pair("case6a", eps=-1, z=Fraction(-1, 3),
                       x=Fraction(-2, 3), check=False)
    return [(agp, n, 99) for n in (3, 4, 5, 6)] + \
        [(fgp, n, 5) for n in (3, 4, 5, 6)] + [(asp, 3, 4), (asp, 4, 4)]


@pytest.mark.parametrize("pair,n,seed", _catalog_points())
def test_spin_commutant_on_every_node_of_a_decomposition(monkeypatch, pair,
                                                         n, seed):
    # every commutant a decomposition asks for, the root and each summand
    seen = []

    def recorded(mats, constraints=None):
        seen.append(mats)
        return commutant_basis(mats, constraints)
    monkeypatch.setattr(structure, "commutant_basis", recorded)
    decompose(pair, n, rng=random.Random(seed))
    assert seen and seen[0][0].nrows == 2 ** n
    for mats in seen:
        _check(mats)


_FGLUE_7_CERTIFICATE = (
    "constant-diagonal almost-triangular commutant: the (1,1) entry of T^2=T "
    "forces the diagonal a to a^2=a and the (65,64) entry forces 2*a*g=g for "
    "the below-diagonal entry g, so g=0 and T = a*I + nilpotent, leaving "
    "only 0 and I")


@pytest.mark.parametrize("family,assignment,summands", [
    ("a-glue", {"p": 2, "q": 5},
     [{"dim": 64, "status": "indecomposable", "chain": (64,),
       "x_spectrum": [("1", 64, 48)]}] * 2),
    ("f-glue", None,
     [{"dim": 128, "status": "indecomposable", "chain": (),
       "certificate": _FGLUE_7_CERTIFICATE,
       "x_spectrum": [("1", 128, 64)]}]),
])
def test_level_7_builds_no_d2_system(monkeypatch, family, assignment,
                                     summands):
    # the reports of the d^2-system code at n = 7 (d = 128), with no row of
    # a d^2-unknown commutation system: the only echelon rows wider than 3d
    # are the read-out rows, one per commutant basis matrix, and the span
    # of the 4-element a-glue commutant in its regular representation
    pair = analysis_pair(family)
    if assignment is None:
        pair = analysis_pair(family, p=2, q=5).evaluate({"p": 2, "q": 5})
    calls = {"commutation_rows": 0, "wide_rows": 0, "commutant_dims": 0}
    insert, rows_, basis_ = (Echelon.insert, matrix._commutation_rows,
                             structure.commutant_basis)

    def counted_insert(self, row):
        calls["wide_rows"] += bool(row) and max(row) >= 3 * 128
        return insert(self, row)

    def counted_rows(*args):
        calls["commutation_rows"] += 1
        return rows_(*args)

    def counted_basis(*args, **kw):
        basis = basis_(*args, **kw)
        calls["commutant_dims"] += len(basis)
        return basis
    monkeypatch.setattr(Echelon, "insert", counted_insert)
    monkeypatch.setattr(matrix, "_commutation_rows", counted_rows)
    monkeypatch.setattr(structure, "commutant_basis", counted_basis)
    rep = decompose(pair, 7, assignment=assignment)
    assert rep.to_json() == {"summands": summands, "class": "c",
                             "x_order": None}
    assert calls["commutation_rows"] == 0
    dims = {"a-glue": 4 + 1 + 1, "f-glue": 10}[family]
    assert calls["commutant_dims"] == dims
    assert calls["wide_rows"] == dims + {"a-glue": 4, "f-glue": 0}[family]
