import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from mdreps.catalog import analysis_pair, make_md_pair
from mdreps.matrix import ExactMatrix, RepPair
from mdreps.scalar import (InvariantError, NonVanishing, Poly, param, rf,
                           zeta)
from mdreps.structure import (_find_splitter, _leaf_status, _peval_matrix,
                              _rational_roots, algebra_dims, commutant,
                              decompose,
                              distinct_eigenvalue_count,
                              fglue_commutant_shape_ok, find_idempotents,
                              generated_algebra, minimal_polynomial,
                              restrict_to_subspace, semisimple_quotient_dims,
                              x_trichotomy)
from mdreps.upoly import _plcm

p, q = param("p"), param("q")
NV_FG = NonVanishing(["p", "q", Poly.var("q") - Poly.var("p"),
                      Poly.var("p") + Poly.var("q")])
NV_AG = NonVanishing(["p", "q", Poly.var("q") - Poly.var("p")])


def m(rows):
    return ExactMatrix.from_rows(rows, N=2)


def test_commutant_of_identity():
    assert commutant([ExactMatrix.identity(2, 1)]).dim == 4


def test_fglue_commutant_dim_and_displayed_form():
    pair = analysis_pair("f-glue")
    mats = [M for _, M in pair.generator_images(3)]
    com = commutant(mats, NV_FG)
    assert com.dim == 6
    assert fglue_commutant_shape_ok(com.basis)
    # the displayed six-parameter matrix commutes with all generators
    rng = random.Random(3)
    av, bv, cv, dv, ev, fv = (rf(rng.randint(-4, 4)) for _ in range(6))
    A = m([[fv, ev, ev, av, ev, av, av, bv],
           [0, fv, 0, cv, 0, cv, cv - ev, dv],
           [0, 0, fv, cv, 0, cv - ev, cv, dv],
           [0, 0, 0, fv, 0, 0, 0, ev],
           [0, 0, 0, cv - ev, fv, cv, cv, dv],
           [0, 0, 0, 0, 0, fv, 0, ev],
           [0, 0, 0, 0, 0, 0, fv, ev],
           [0, 0, 0, 0, 0, 0, 0, fv]])
    for M in mats:
        assert (A * M - M * A).is_zero()
    res = find_idempotents(com, NV_FG)
    assert res["kind"] == "indecomposable"
    assert "(5,4)" in res["certificate"] or "5, 4" in res["certificate"] or \
        "5,4" in res["certificate"].replace(" ", "")


def test_aglue_commutant_dim_and_displayed_form():
    pair = analysis_pair("a-glue")
    mats = [M for _, M in pair.generator_images(3)]
    com = commutant(mats, NV_AG)
    assert com.dim == 4
    rng = random.Random(5)
    av, bv, cv, dv = (rf(rng.randint(-4, 4)) for _ in range(4))
    T = m([[av, cv, cv, 0, cv, 0, 0, 0],
           [0, bv, 0, -dv, 0, -dv, 0, 0],
           [0, 0, bv, dv, 0, 0, -dv, 0],
           [0, 0, 0, av, 0, 0, 0, cv],
           [0, 0, 0, 0, bv, dv, dv, 0],
           [0, 0, 0, 0, 0, av, 0, -cv],
           [0, 0, 0, 0, 0, 0, av, cv],
           [0, 0, 0, 0, 0, 0, 0, bv]])
    for M in mats:
        assert (T * M - M * T).is_zero()
    # two complementary idempotents from the diagonal split
    res = find_idempotents(com, NV_AG, rng=random.Random(1))
    assert res["kind"] == "decomposable"
    P1, P2 = res["idempotents"]
    assert (P1 + P2).is_identity()
    assert (P1 * P2).is_zero()


def test_antislash_commutant_dim_and_displayed_form():
    pair = analysis_pair("antislash", t="t")
    mats = [M for _, M in pair.generator_images(3)]
    com = commutant(mats, NonVanishing(["t", Poly.var("t") - Poly.const(1),
                                        Poly.var("t") + Poly.const(1)]))
    assert com.dim == 6
    rng = random.Random(7)
    av, bv, cv, dv, ev, fv = (rf(rng.randint(-4, 4)) for _ in range(6))
    w_, u_ = av + dv - fv, bv + cv - ev
    T = m([[av, bv, bv, w_, bv, w_, w_, u_],
           [ev, fv, dv, ev, dv, ev, cv, dv],
           [ev, dv, fv, ev, dv, cv, ev, dv],
           [w_, bv, bv, av, u_, w_, w_, bv],
           [ev, dv, dv, cv, fv, ev, ev, dv],
           [w_, bv, u_, w_, bv, av, w_, bv],
           [w_, u_, bv, w_, bv, w_, av, bv],
           [cv, dv, dv, ev, dv, ev, ev, fv]])
    for M in mats:
        assert (T * M - M * T).is_zero()


def test_commutant_of_scalars_has_idempotents():
    res = find_idempotents(commutant([ExactMatrix.identity(2, 1)]),
                           rng=random.Random(2))
    assert res["kind"] == "decomposable"
    for P in res["idempotents"]:
        assert (P * P - P).is_zero()
        assert not P.is_zero() and not P.is_identity()


def test_aglue_decomposition_levels_3_4():
    rng = random.Random(99)
    pair = analysis_pair("a-glue", p=2, q=5)
    rep3 = decompose(pair, 3, rng=rng)
    assert rep3.dims() == [4, 4] and rep3.klass == "c"
    assert all(s["status"] == "indecomposable" for s in rep3.summands)
    for P in rep3.projectors:
        assert (P * P - P).is_zero()
    rep4 = decompose(pair, 4, rng=random.Random(5))
    assert rep4.dims() == [8, 8]
    assert all(s["status"] == "indecomposable" for s in rep4.summands)


def test_trivial_pair_decomposes_into_lines():
    pair = make_md_pair("case1", check=False)
    rep = decompose(pair, 2, rng=random.Random(1))
    assert rep.dims() == [1, 1, 1, 1]
    assert all(s["status"] == "irreducible" for s in rep.summands)


def test_antislash_decomposition_and_x_spectrum():
    zv, xv = Fraction(-1, 3), Fraction(-2, 3)
    pair = analysis_pair("antislash", z=zv, x=xv)
    rep = decompose(pair, 3, rng=random.Random(4))
    assert rep.dims() == [1, 1, 3, 3]
    assert all(s["status"] == "irreducible" for s in rep.summands)
    lam = -2 * zv + 1 + 2 * xv
    lam_inv = -2 * zv + 1 - 2 * xv
    assert lam * lam_inv == 1
    for s in rep.summands:
        if s["dim"] == 3:
            vals = sorted(v for v, _, _ in s["x_spectrum"])
            assert vals == sorted([str(rf(1)), str(rf(lam)), str(rf(lam_inv))])


def test_displayed_y_matrix_invariants():
    Y = m([[1, 0, 0, 1, 0, 1, 1, -2], [1, 1, 1, 1, 1, 1, -1, 1],
           [1, 1, 1, 1, 1, -1, 1, 1], [1, 0, 0, 1, -2, 1, 1, 0],
           [1, 1, 1, -1, 1, 1, 1, 1], [1, 0, -2, 1, 0, 1, 1, 0],
           [1, -2, 0, 1, 0, 1, 1, 0], [-1, 1, 1, 1, 1, 1, 1, 1]])
    pair = analysis_pair("antislash", t="t")
    for _, M in pair.generator_images(3):
        assert (Y * M - M * Y).is_zero()
    assert distinct_eigenvalue_count(Y) == 4


def test_trichotomy_cases():
    assert x_trichotomy(analysis_pair("a-glue", p=2, q=5))[0] == "c"
    assert x_trichotomy(analysis_pair("a-glue"),
                        {"p": 3, "q": 3})[0] == "a"
    wang = make_md_pair("case3-wangian", p=3, q=2, check=False)
    kls, order = x_trichotomy(wang)
    assert kls == "a" and order == 1
    fs = make_md_pair("case5", p=2, s=3, check=False)
    assert x_trichotomy(fs)[0] == "b"
    fs_root = make_md_pair("case5", p=2, s=-2, check=False)
    kls, order = x_trichotomy(fs_root)
    assert kls == "a" and order == 2
    f3 = make_md_pair("case3", q=2, s=5, check=False)
    assert x_trichotomy(f3)[0] == "c"


def test_semisimple_quotient_dims():
    pair = analysis_pair("a-glue", p=2, q=5)
    assert semisimple_quotient_dims(pair, 2) == [1, 1, 1, 1]
    assert semisimple_quotient_dims(pair, 4) == [1, 1, 1, 1, 3, 3, 3, 3]
    pf = analysis_pair("f-glue", p=2, q=5)
    assert semisimple_quotient_dims(pf, 3) == [1, 1, 1, 1, 2, 2]
    wang = make_md_pair("case3-wangian", p=3, q=2, check=False)
    assert sum(semisimple_quotient_dims(wang, 3)) == 8
    antis = analysis_pair("antislash", z=Fraction(-1, 3), x=Fraction(-2, 3))
    with pytest.raises(ValueError):
        semisimple_quotient_dims(antis, 3)


def test_algebra_dims_examples():
    out = algebra_dims([ExactMatrix.identity(2, 2)])
    assert out == {"dim": 1, "radical": 0, "ss": 1, "center_ss": 1,
                   "simples": [1]}
    # displayed 4-dim summand images: dimension 9, radical 3, three simple
    # blocks of dims 2, 1, 1
    pv, qv = rf(2), rf(5)
    mu = [m([[1, 0, 0, pv], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]),
          m([[1, 0, 0, qv], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]),
          m([[1, pv, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
          m([[1, qv, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])]
    out = algebra_dims(mu)
    assert out["dim"] == 9 and out["radical"] == 3 and out["ss"] == 6
    assert out["center_ss"] == 3 and sorted(out["simples"]) == [1, 1, 2]


def test_displayed_summand_quadruples_satisfy_relations():
    mu = [m([[1, 0, 0, p], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]),
          m([[1, 0, 0, q], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]),
          m([[1, p, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
          m([[1, q, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])]
    nu = [mu[0], mu[1],
          m([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, p], [0, 0, 0, -1]]),
          m([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, q], [0, 0, 0, -1]])]
    I = ExactMatrix.identity(2, 2)
    for s1, r1, s2, r2 in (mu, nu):
        for g in (s1, r1, s2, r2):
            assert (g * g - I).is_zero()
        assert (s1 * s2 * s1 - s2 * s1 * s2).is_zero()
        assert (r1 * r2 * r1 - r2 * r1 * r2).is_zero()
        assert (s1 * r2 * r1 - r2 * r1 * s2).is_zero()
        assert (r1 * s2 * s1 - s2 * s1 * r2).is_zero()


def test_minimal_polynomial():
    J = m([[1, 1], [0, 1]])
    mp = minimal_polynomial(J)
    assert mp == [Fraction(1), Fraction(-2), Fraction(1)]  # (x-1)^2
    D = m([[2, 0], [0, 5]])
    assert minimal_polynomial(D) == [Fraction(10), Fraction(-7), Fraction(1)]


# ---------------------------------------------------------------------------
# the integer kernel against elimination over Fractions

def _minimal_polynomial_fraction(M):
    """Krylov chains of the standard basis over Fractions, each relation
    found by a row echelon form that records combinations."""
    d = M.nrows
    vals = [[e.const_value() for e in row] for row in M.rows]
    mp = [Fraction(1)]
    for start in range(d):
        if len(mp) - 1 == d:
            break
        cur = [Fraction(int(i == start)) for i in range(d)]
        rref = []            # (pivot, reduced vector, combo)
        while True:
            vec = cur[:]
            combo = [Fraction(0)] * len(rref) + [Fraction(1)]
            for piv, rvec, rcombo in rref:
                f = vec[piv]
                if f:
                    vec = [x - f * y for x, y in zip(vec, rvec)]
                    for i, c in enumerate(rcombo):
                        combo[i] -= f * c
            lead = next((i for i, x in enumerate(vec) if x), None)
            if lead is None:
                mp = _plcm(mp, combo)
                break
            inv = 1 / vec[lead]
            rref.append((lead, [x * inv for x in vec],
                         [x * inv for x in combo]))
            cur = [sum((vals[i][j] * cur[j] for j in range(d) if cur[j]),
                       Fraction(0)) for i in range(d)]
    return [x / mp[-1] for x in mp]


def _block_diag(*blocks):
    d = sum(len(b) for b in blocks)
    rows = [[0] * d for _ in range(d)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[k + i][k:k + len(b)] = row
        k += len(b)
    return rows


def _jordan(lam, size):
    return [[lam if i == j else int(j == i + 1) for j in range(size)]
            for i in range(size)]


def _square(rows):
    return ExactMatrix(len(rows), 1, 1, [[rf(x) for x in row] for row in rows])


def _minpoly_cases(rng):
    h, t = Fraction(1, 2), Fraction(-7, 3)
    yield [[0]]
    yield [[Fraction(5, 3)]]
    yield [[0] * 4 for _ in range(4)]
    yield [[t if i == j else 0 for j in range(5)] for i in range(5)]
    yield _jordan(t, 4)
    yield _jordan(0, 5)                                   # nilpotent
    yield [[0, 2, 0], [0, 0, Fraction(3, 4)], [0, 0, 0]]   # nilpotent
    yield _block_diag(_jordan(h, 2), _jordan(h, 1), _jordan(t, 3),
                      _jordan(h, 3))
    yield _block_diag(_jordan(1, 2), _jordan(1, 2), [[-1]])
    for _ in range(60):
        d = rng.randint(1, 6)
        den = rng.choice((1, 2, 9, 10 ** 6 + 3))
        rows = [[Fraction(rng.randint(-6, 6), den) if rng.random() < 0.4
                 else 0 for _ in range(d)] for _ in range(d)]
        if rng.random() < 0.3:   # conjugate a block-diagonal matrix
            rows = _block_diag(_jordan(h, 2), _jordan(h, 2))
            P = [[rng.randint(-2, 2) if j > i else int(i == j)
                  for j in range(4)] for i in range(4)]
            M = _square(P) * _square(rows) * _square(P).inverse()
            yield [[e.const_value() for e in row] for row in M.rows]
        else:
            yield rows


def test_minimal_polynomial_matches_fraction_krylov(rng):
    for rows in _minpoly_cases(rng):
        M = _square(rows)
        assert minimal_polynomial(M) == _minimal_polynomial_fraction(M)


def _generated_algebra_fraction(mats):
    """Span closure under products over Fractions: a basis of the unital
    algebra in the order it is found."""
    d = mats[0].nrows
    gens = [[[e.const_value() for e in row] for row in M.rows] for M in mats]
    span = {}     # pivot -> reduced row, pivot entry 1

    def reduce(vec):
        for p, row in span.items():
            f = vec.get(p)
            if f:
                for c, v in row.items():
                    vec[c] = vec.get(c, 0) - f * v
        return {c: v for c, v in vec.items() if v}

    def mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)]

    basis = []
    queue = [[[Fraction(int(i == j)) for j in range(d)]
              for i in range(d)]] + gens
    while queue:
        A = queue.pop(0)
        vec = reduce({i * d + j: A[i][j] for i in range(d)
                      for j in range(d) if A[i][j]})
        if vec:
            p = min(vec)
            row = {c: v / vec[p] for c, v in vec.items()}
            for other in span.values():
                f = other.get(p)
                if f:
                    for c, v in row.items():
                        other[c] = other.get(c, 0) - f * v
            span[p] = row
            basis.append(A)
            for G in gens:
                queue.append(mul(A, G))
                queue.append(mul(G, A))
    return basis


def test_generated_algebra_matches_fraction_closure(rng):
    pv, qv = Fraction(2), Fraction(5, 3)
    mats = [m([[1, 0, 0, pv], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]),
            m([[1, 0, 0, qv], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]),
            m([[1, pv, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])]
    cases = [[ExactMatrix.identity(2, 2)], mats, mats[:1], mats[::-1]]
    for _ in range(8):
        d = rng.choice((1, 2, 4))
        cases.append([m([[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7)))
                          if rng.random() < 0.4 else 0 for _ in range(d)]
                         for _ in range(d)]) for _ in range(rng.randint(1, 2))])
    for mats in cases:
        assert generated_algebra(mats) == _generated_algebra_fraction(mats)


def test_invariant_errors_survive_python_O():
    # the flip does not preserve span(e1): an assert would vanish under -O
    # and return [[0]]
    code = (
        "from fractions import Fraction\n"
        "from mdreps.matrix import ExactMatrix\n"
        "from mdreps.scalar import InvariantError\n"
        "from mdreps.structure import restrict_to_subspace\n"
        "flip = ExactMatrix.from_rows([[0, 1], [1, 0]])\n"
        "try:\n"
        "    restrict_to_subspace([flip], [[Fraction(1), Fraction(0)]])\n"
        "except InvariantError:\n"
        "    print('InvariantError')\n")
    import mdreps
    src = os.path.dirname(os.path.dirname(mdreps.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, timeout=60, env=env,
                         check=True)
    assert out.stdout.strip() == "InvariantError"


def test_restrict_to_subspace_coordinates():
    # the swap of the first two coordinates of Q^4 on the plane spanned by
    # e1 + e2 and (e1 - e2) / 3, and the line of e4
    flip = m([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 3, 0],
              [0, 0, 0, Fraction(1, 2)]])
    basis = [[Fraction(1), Fraction(1), 0, 0],
             [Fraction(1, 3), Fraction(-1, 3), 0, 0],
             [0, 0, 0, Fraction(-2, 5)]]
    (sub,) = restrict_to_subspace([flip], basis)
    assert [[e.const_value() for e in row] for row in sub.rows] == \
        [[1, 0, 0], [0, -1, 0], [0, 0, Fraction(1, 2)]]
    with pytest.raises(InvariantError):
        restrict_to_subspace([flip], [basis[0], basis[0]])


# ---------------------------------------------------------------------------
# constant-form kernels against the RF matrix operations they replace

def _rf_twin(M):
    """M with its boxed entries in the RF form."""
    return ExactMatrix(M.N, M.rows_level, M.cols_level,
                       [[M[i, j] for j in range(M.ncols)]
                        for i in range(M.nrows)])


def _peval_reference(coeffs, M):
    # the RF evaluation: powers of M from the identity, scaled and summed
    P = _rf_twin(ExactMatrix.identity(M.N, M.rows_level))
    out = _rf_twin(ExactMatrix.zeros(M.N, M.rows_level))
    for c in coeffs:
        if c:
            out = out + P.scale(rf(c))
        P = P * _rf_twin(M)
    return out


def test_peval_matrix_matches_rf_evaluation(rng):
    pool = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
    for _ in range(40):
        d = rng.choice((2, 4))
        T = m([[rng.choice(pool) for _ in range(d)] for _ in range(d)])
        coeffs = [Fraction(rng.choice(pool)) for _ in range(rng.randint(1, 5))]
        got = _peval_matrix(coeffs, T)
        assert got._ints is not None
        assert got.rows == _peval_reference(coeffs, T).rows


def _find_splitter_reference(basis, rng, tries=25):
    # RF combinations through scale and +, as the splitter formed them
    cands = list(basis)
    for _ in range(tries):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        T = basis[0].scale(coeffs[0])
        for c, B in zip(coeffs[1:], basis[1:]):
            T = T + B.scale(c)
        cands.append(T)
    best = None
    for T in cands:
        try:
            mult = _rational_roots(minimal_polynomial(T))
        except ValueError:  # not a rational constant matrix
            continue
        if mult is None or len(mult) < 2:
            continue
        if best is None or len(mult) > len(best[1]):
            best = (T, mult)
    return best


def _qmat(rows):
    return ExactMatrix.from_rows(rows, N=len(rows), rows_level=1,
                                 cols_level=1)


def _conjugated(mats, rng):
    """The matrices conjugated by one seeded unipotent integer matrix."""
    d = mats[0].nrows
    P = _qmat([[rng.choice((-1, 1)) if j > i and rng.random() < 0.3
                else int(i == j) for j in range(d)] for i in range(d)])
    Pinv = P.inverse()
    return [P * M * Pinv for M in mats]


def _block_reps(rng, count):
    """Seeded integer representations of sizes 2-12 on 2 or 3 generators:
    block-diagonal ones, some with a repeated block, and block-triangular
    ones with random off-diagonal blocks (generically non-split), each
    conjugated so that the blocks are not coordinate subspaces.  The first
    generator is triangular on each block, so it has rational
    eigenvalues."""
    def block(k, first):
        return [[rng.randint(-3, 3) if i == j else rng.randint(-2, 2)
                 if j > i or not first else 0 for j in range(k)]
                for i in range(k)]

    for _ in range(count):
        ngens = rng.choice((2, 3))
        sizes = []
        while sum(sizes) < 2 or (sum(sizes) < 12 and rng.random() < 0.5):
            sizes.append(rng.randint(1, min(4, 12 - sum(sizes))))
        blocks = [[block(k, g == 0) for g in range(ngens)] for k in sizes]
        if len(blocks) > 1 and rng.random() < 0.4:   # a repeated block
            i = rng.randrange(1, len(blocks))
            if sizes[i] == sizes[0]:
                blocks[i] = blocks[0]
        triangular = rng.random() < 0.5
        mats = []
        for g in range(ngens):
            rows = _block_diag(*(b[g] for b in blocks))
            if triangular:   # the later blocks span a submodule
                k = 0
                for size in sizes[:-1]:
                    k += size
                    for i in range(k, len(rows)):
                        for j in range(k - size, k):
                            rows[i][j] = rng.randint(-2, 2)
            mats.append(_qmat(rows))
        yield _conjugated(mats, rng)


def _splitter_bases():
    fgp = analysis_pair("f-glue", p=2, q=5).evaluate({"p": 2, "q": 5})
    agp = analysis_pair("a-glue", p=2, q=5)
    asp = make_md_pair("case6a", eps=-1, z=Fraction(-1, 3),
                       x=Fraction(-2, 3), check=False)
    bases = [commutant([M for _, M in pr.generator_images(n)]).basis
             for pr, n in ((fgp, 3), (fgp, 4), (agp, 3), (agp, 4), (agp, 5),
                           (asp, 3))]
    # the symbolic a-glue commutant: its basis is rational
    bases.append(commutant([M for _, M in analysis_pair(
        "a-glue").generator_images(3)], NV_AG).basis)
    bases.append(commutant([ExactMatrix.identity(2, 2)]).basis)
    # diagonal matrix units: only a combination has more than two
    # eigenvalues, so the chosen splitter is one of the combinations
    bases.append(commutant([m([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0],
                               [0, 0, 0, 4]])]).basis)
    bases += [commutant(mats).basis
              for mats in _block_reps(random.Random(11), 20)]
    # a symbolic and a cyclotomic element: the per-candidate search, which
    # skips every candidate that is not a rational constant matrix
    for x in (p, rf(zeta(3))):
        bases.append([m([[int(i == j == k) for j in range(4)]
                         for i in range(4)]) for k in range(2)]
                     + [m([[x if i == j == 2 else 0 for j in range(4)]
                           for i in range(4)])])
    return [b for b in bases if len(b) > 1]


def test_find_splitter_combinations_match_rf_combinations():
    # the regular-representation search against the RF combinations and
    # d x d minimal polynomials of every candidate
    for basis in _splitter_bases():
        for seed in range(8):
            got = _find_splitter(basis, random.Random(seed))
            want = _find_splitter_reference([_rf_twin(B) for B in basis],
                                            random.Random(seed))
            assert (got is None) == (want is None)
            if got is not None:
                # a winning combination of a constant-form basis is formed
                # on the integer rows
                if all(B._ints is not None for B in basis):
                    assert got[0]._ints is not None
                assert got[0] == want[0] and got[1] == want[1]


def test_find_splitter_forms_no_candidate_on_a_rational_basis(monkeypatch):
    import mdreps.structure as structure

    def refused(M):
        raise AssertionError("minimal_polynomial of a d x d candidate")
    agp = analysis_pair("a-glue", p=2, q=5)
    basis = commutant([M for _, M in agp.generator_images(4)]).basis
    want = _find_splitter_reference(basis, random.Random(3))
    monkeypatch.setattr(structure, "minimal_polynomial", refused)
    T, mult = _find_splitter(basis, random.Random(3))
    assert T == want[0] and mult == want[1]


def test_splitter_basis_must_span_a_unital_algebra_under_python_O():
    # E12 * E21 = E11 leaves span(I, E12, E21); span(E11, E12) is closed
    # under products but lacks I
    code = (
        "from mdreps.matrix import ExactMatrix\n"
        "from mdreps.structure import _find_splitter\n"
        "def m(rows):\n"
        "    return ExactMatrix.from_rows(rows, N=2)\n"
        "for basis in ([m([[1, 0], [0, 1]]), m([[0, 1], [0, 0]]),\n"
        "               m([[0, 0], [1, 0]])],\n"
        "              [m([[1, 0], [0, 0]]), m([[0, 1], [0, 0]])]):\n"
        "    try:\n"
        "        _find_splitter(basis)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n")
    import mdreps
    src = os.path.dirname(os.path.dirname(mdreps.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, timeout=60, env=env,
                         check=True)
    assert out.stdout.splitlines() == [
        "B[1]*B[2] is not in the span of the basis",
        "the identity is not in the span of the basis"]


def _closure_status(mats):
    d = mats[0].nrows
    if len(generated_algebra(mats)) == d * d:
        return "irreducible"
    return "indecomposable"


def _counted_closure(monkeypatch):
    import mdreps.structure as structure
    calls = []
    closure = structure.generated_algebra

    def counted(mats, *args, **kw):
        calls.append(len(mats))
        return closure(mats, *args, **kw)
    monkeypatch.setattr(structure, "generated_algebra", counted)
    return calls


def test_spin_certificates_label_the_decomposition_leaves(monkeypatch):
    agp = analysis_pair("a-glue", p=2, q=5)
    asp = make_md_pair("case6a", eps=-1, z=Fraction(-1, 3),
                       x=Fraction(-2, 3), check=False)
    leaves = []
    for pair, n, seed in ((agp, 3, 99), (agp, 4, 7), (agp, 5, 17),
                          (asp, 3, 4)):
        rep = decompose(pair, n, rng=random.Random(seed))
        leaves += [s["generators"] for s in rep.summands
                   if s["dim"] > 1 and "certificate" not in s]
    assert len(leaves) == 8
    calls = _counted_closure(monkeypatch)
    got = [_leaf_status(mats) for mats in leaves]
    assert calls == []
    monkeypatch.undo()
    assert got == [_closure_status(mats) for mats in leaves]
    assert got == ["indecomposable"] * 6 + ["irreducible"] * 2


def test_spin_verdict_matches_the_closure():
    # the verdict on irreducibility; on a representation with a scalar
    # commutant it is the leaf label
    from mdreps.clifford import _perm_matrix_standard, symmetric_group_irreps
    from mdreps.mdd import perm_adjacent
    cases = [list(irr.images.values()) for k in (3, 4)
             for irr in symmetric_group_irreps(k) if irr.dim > 1]
    cases += [[_perm_matrix_standard(perm_adjacent(k, i))
               for i in range(1, k)] for k in (5, 6)]
    cases += list(_block_reps(random.Random(5), 20))
    # a leading identity has a kernel of dimension d: Norton's criterion
    # does not apply, and a proper spin still decides
    cases += [[ExactMatrix.identity(M.N, M.rows_level)] + mats
              for mats in cases for M in mats[:1]]
    got = [_leaf_status(mats) for mats in cases]
    assert got == [_closure_status(mats) for mats in cases]
    assert {"irreducible", "indecomposable"} <= set(got)


@pytest.mark.parametrize("mats,status,closures", [
    # lam = 1, with a kernel line: Q e2 is a submodule, and e2 spans the
    # kernel of the first generator
    ([[[2, 0], [1, 1]], [[0, 0], [1, 0]]], "indecomposable", 0),
    # the same non-split extension with the eigenvalues swapped: the kernel
    # vector (1, -1) spins to Q^2, the transposed kernel vector e1 does not
    ([[[1, 0], [1, 2]], [[0, 0], [1, 0]]], "indecomposable", 0),
    # Norton's criterion: the standard representation of Sym_3
    ([[[-1, 1], [0, 1]], [[1, 0], [1, -1]]], "irreducible", 0),
    # no generator has a rational eigenvalue: Q(i) acts on Q^2, and a
    # second rotation makes the action absolutely irreducible
    ([[[0, -1], [1, 0]]], "indecomposable", 1),
    ([[[0, -1], [1, 0]], [[0, -1], [1, -1]]], "irreducible", 1),
    # the identity's kernel is Q^2, and each of its basis vectors spins to
    # Q^2
    ([[[1, 0], [0, 1]], [[-1, 1], [0, 1]], [[1, 0], [1, -1]]],
     "irreducible", 1),
    ([[[1, 0], [0, 1]], [[0, -1], [1, 0]]], "indecomposable", 1),
])
def test_spin_certificate_branches(monkeypatch, mats, status, closures):
    calls = _counted_closure(monkeypatch)
    assert _leaf_status([_qmat(rows) for rows in mats]) == status
    assert calls == [len(mats)] * closures


def test_decompose_surfaces_invariant_errors(monkeypatch):
    import mdreps.structure as structure
    from mdreps.matrix import UnsupportedSpectrum
    pair = make_md_pair("case1", check=False)

    def raising(exc):
        def fn(*args, **kwargs):
            raise exc
        return fn

    def run():
        return decompose(pair, 2, rng=random.Random(1))

    # each of the two sites on its own: the x_spectrum of the leaves, and
    # the trichotomy of X
    for exc in (InvariantError("broken spectrum"), TypeError("broken")):
        with monkeypatch.context() as mp:
            mp.setattr(structure, "eigen_data", raising(exc))
            mp.setattr(structure, "x_trichotomy", lambda *a: ("a", 1))
            with pytest.raises(type(exc)):
                run()
        with monkeypatch.context() as mp:
            mp.setattr(structure, "x_trichotomy", raising(exc))
            with pytest.raises(type(exc)):
                run()
    # the documented failures of the spectrum leave it out of the report
    for exc in (UnsupportedSpectrum("x^5 - 2"),
                ValueError("char_poly needs constant entries")):
        monkeypatch.setattr(structure, "eigen_data", raising(exc))
        rep = run()
        assert rep.dims() == [1, 1, 1, 1] and rep.klass is None
        assert all(s["x_spectrum"] is None for s in rep.summands)


_JORDAN = ExactMatrix.from_rows([[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0],
                                 [0, 0, 1, 1]], N=2)


@pytest.mark.parametrize("pair,n,seed,statuses", [
    (analysis_pair("a-glue", p=2, q=5), 3, 99, [(4, None)] * 2),
    (analysis_pair("a-glue", p=2, q=5), 4, 5, [(8, None)] * 2),
    # a lower Jordan block: its commutant is local and has no certified
    # shape, so the one search finds no splitter and the trace form decides
    (RepPair(_JORDAN, _JORDAN), 2, 1,
     [(4, "endomorphism ring is local (trace-form radical has corank 1)")]),
])
def test_decompose_searches_for_a_splitter_once_per_node(monkeypatch, pair,
                                                         n, seed, statuses):
    # the one node with a non-scalar commutant asks find_idempotents once,
    # and only find_idempotents runs the splitter search
    import mdreps.structure as structure
    calls = {"splitter": 0, "nodes": 0}
    splitter, commutant_ = structure._find_splitter, structure.commutant

    def counted_splitter(*args, **kw):
        calls["splitter"] += 1
        return splitter(*args, **kw)

    def counted_commutant(*args, **kw):
        com = commutant_(*args, **kw)
        calls["nodes"] += com.dim > 1
        return com
    monkeypatch.setattr(structure, "_find_splitter", counted_splitter)
    monkeypatch.setattr(structure, "commutant", counted_commutant)
    rep = decompose(pair, n, rng=random.Random(seed))
    assert [(s["dim"], s.get("certificate")) for s in rep.summands] == \
        statuses
    assert all(s["status"] == "indecomposable" for s in rep.summands)
    assert calls == {"splitter": 1, "nodes": 1}


def test_x_trichotomy_computes_one_spectrum(monkeypatch):
    import mdreps.matrix as matrix
    import mdreps.structure as structure
    calls = []
    eigen = matrix.eigen_data

    def counted(*args, **kw):
        calls.append(args)
        return eigen(*args, **kw)
    monkeypatch.setattr(matrix, "eigen_data", counted)
    monkeypatch.setattr(structure, "eigen_data", counted)
    for pair, want in (
            (analysis_pair("a-glue", p=2, q=5), ("c", None)),
            (make_md_pair("case3-wangian", p=3, q=2, check=False), ("a", 1)),
            (make_md_pair("case5", p=2, s=3, check=False), ("b", None)),
            (make_md_pair("case5", p=2, s=-2, check=False), ("a", 2))):
        del calls[:]
        assert x_trichotomy(pair) == want
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# rejected points: the 4x4 pair is evaluated before it is embedded

def _glue_pair(r_glue, s_glue):
    def glued(g):
        return ExactMatrix.from_rows([[1, 0, 0, g], [0, 0, 1, 0],
                                      [0, 1, 0, 0], [0, 0, 0, 1]])
    return RepPair(glued(r_glue), glued(s_glue), params=("p", "q"))


@pytest.mark.parametrize("pair,assignment,message", [
    # a denominator that vanishes, in a pair with no constraints
    (_glue_pair(1 / (p - 1), rf(2)), {"p": 1, "q": 2},
     "denominator vanishes: p + -1"),
    # two that vanish at one point: the first entry of R, then of S, in
    # row order, is named, as when every level-n entry was evaluated
    (_glue_pair(1 / (p - 1), 1 / (p + q - 3)), {"p": 1, "q": 2},
     "denominator vanishes: p + -1"),
    (_glue_pair(1 / (p + q - 3), 1 / (p - 1)), {"p": 1, "q": 2},
     "denominator vanishes: p + q + -3"),
    # a declared constraint that vanishes
    (make_md_pair("case4", check=False), {"p": 0, "s": 1},
     "constraint vanishes: p"),
    (analysis_pair("antislash"), {"t": 1}, "constraint vanishes: t + -1"),
])
def test_rejected_points_are_rejected_before_any_analysis(pair, assignment,
                                                          message):
    from mdreps.scalar import RejectedPoint
    for run in (lambda: decompose(pair, 3, assignment=assignment),
                lambda: algebra_dims(pair, 3, assignment=assignment)):
        with pytest.raises(RejectedPoint) as info:
            run()
        assert str(info.value) == message


def test_decompose_at_a_point_evaluates_the_pair_once(monkeypatch):
    # the 4x4 pair is evaluated, not the 2(n-1) level-n images
    calls = []
    evaluate = ExactMatrix.evaluate

    def counted(self, *args, **kw):
        calls.append(self.nrows)
        return evaluate(self, *args, **kw)
    monkeypatch.setattr(ExactMatrix, "evaluate", counted)
    pair = analysis_pair("a-glue")
    at = {"p": 2, "q": 5}
    rep = decompose(pair, 4, assignment=at, rng=random.Random(5))
    assert calls.count(16) == 0 and calls.count(4) == 3
    del calls[:]
    dims = algebra_dims(pair, 3, assignment=at)
    assert calls == [4, 4]
    # the same reports as the evaluated pair gives
    assert rep.to_json() == decompose(pair.evaluate(at), 4,
                                      rng=random.Random(5)).to_json()
    assert dims == algebra_dims(pair.evaluate(at), 3)
