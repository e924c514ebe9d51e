"""The constant form of ExactMatrix (integer rows over one denominator)
against the RF form of the same matrix: every operation gives the same
boxed entries, with the same coefficient types, and the form is kept or
left exactly as the ExactMatrix docstring says."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdreps.ccwg import project_glue, project_K
from mdreps.matrix import (ExactMatrix, RepPair, char_poly, embed_at, kron,
                           nullspace)
from mdreps.presentations import MIXED_DOUBLES, verify
from mdreps.scalar import Cyc, Poly, param, rf, rf_to_json, zeta

_SHAPES = ((2, 1), (2, 2), (3, 1))  # (N, level) of the square matrices drawn
_VALUES = st.builds(Fraction, st.integers(-4, 4),
                    st.sampled_from((1, 1, 1, 2, 3, 4, 6)))


def _entries(draw, d, zero_rows=True):
    rows = [[draw(st.one_of(st.just(Fraction(0)), _VALUES)) for _ in range(d)]
            for _ in range(d)]
    if zero_rows and draw(st.booleans()):
        rows[draw(st.integers(0, d - 1))] = [Fraction(0)] * d
    return rows


@st.composite
def _pairs(draw):
    """Two constant-form square matrices of one shape."""
    N, level = draw(st.sampled_from(_SHAPES))
    d = N ** level
    return tuple(ExactMatrix.from_rows(_entries(draw, d), N=N)
                 for _ in range(2))


def _twin(M):
    """The same matrix in the RF form: its boxed entries through the
    constructor, which keeps RF rows as given."""
    return ExactMatrix(M.N, M.rows_level, M.cols_level,
                       [[M[i, j] for j in range(M.ncols)]
                        for i in range(M.nrows)])


def typed(P):
    return {mono: (type(c), c) for mono, c in P.terms.items()}


def _same_rf(x, y):
    assert x.num == y.num and x.den == y.den
    assert typed(x.num) == typed(y.num) and typed(x.den) == typed(y.den)


def _same(M, R):
    """M (constant form) has the shape and the exact boxed entries of R."""
    assert M._ints is not None
    assert (M.N, M.rows_level, M.cols_level) == \
        (R.N, R.rows_level, R.cols_level)
    for i in range(R.nrows):
        for j in range(R.ncols):
            _same_rf(M[i, j], R[i, j])


def _lowest(M):
    A, D = M._ints, M._den
    return D > 0 and gcd(D, *(a for row in A for a in row)) == 1


@given(_pairs(), _VALUES)
@settings(max_examples=200, deadline=None)
def test_constant_operations_match_the_rf_path(pair, c):
    A, B = pair
    RA, RB = _twin(A), _twin(B)
    assert RA._ints is None and RB._ints is None
    for got, want in ((A * B, RA * RB), (A + B, RA + RB), (A - B, RA - RB),
                      (A.scale(c), RA.scale(c)), (A * c, RA * c),
                      (-A, -RA), (kron(A, B), kron(RA, RB)),
                      (A.transpose(), RA.transpose()),
                      (A.evaluate({"p": 3}), RA.evaluate({"p": 3})),
                      (project_K(A), project_K(RA)),
                      (project_glue(A), project_glue(RA))):
        _same(got, want)
        assert _lowest(got)
    _same_rf(A.trace(), RA.trace())
    assert char_poly(A) == char_poly(RA)
    assert [type(x) for x in char_poly(A)] == [type(x) for x in char_poly(RA)]
    assert nullspace(A) == nullspace(RA)
    assert json.dumps(A.to_json()) == json.dumps(RA.to_json())


@given(_pairs())
@settings(max_examples=200, deadline=None)
def test_equality_across_the_forms(pair):
    A, B = pair
    RA, RB = _twin(A), _twin(B)
    assert A == RA and RA == A and A == A.copy()
    assert (A == B) == (RA == RB) == (A == RB) == (RA == B)


@given(st.sampled_from(((2, 1, 2), (2, 2, 1), (3, 1, 2), (3, 2, 1))),
       st.data())
@settings(max_examples=100, deadline=None)
def test_copy_negation_and_transpose_of_a_non_square_matrix(shape, data):
    N, rl, cl = shape
    M = ExactMatrix.from_rows(
        [[data.draw(st.one_of(st.just(Fraction(0)), _VALUES))
          for _ in range(N ** cl)] for _ in range(N ** rl)],
        N=N, rows_level=rl, cols_level=cl)
    R = _twin(M)
    for X, Y in ((M.copy(), R.copy()), (-M, -R)):
        assert (X.rows_level, X.cols_level) == (rl, cl)
        _same(X, Y)
        assert Y._ints is None and _lowest(X)
    X, Y = M.transpose(), R.transpose()
    assert (X.rows_level, X.cols_level) == (cl, rl)
    _same(X, Y)
    assert Y._ints is None and _lowest(X)
    for i in range(M.nrows):
        for j in range(M.ncols):
            _same_rf((-M)[i, j], -M[i, j])
            _same_rf(X[j, i], M[i, j])
    # a copy's rows are its own, in either form
    for A in (M, R):
        C = A.copy()
        C.rows[0][0] = rf(9)
        assert C[0, 0] == rf(9) and A[0, 0] == M[0, 0]


@given(st.sampled_from(((2, 1), (3, 1))), st.data())
@settings(max_examples=100, deadline=None)
def test_embed_at_and_inverse_match_the_rf_path(shape, data):
    N, _ = shape
    d = N * N
    M = ExactMatrix.from_rows(_entries(data.draw, d), N=N)
    for n in (2, 3):
        for i in range(1, n):
            _same(embed_at(M, i, n), embed_at(_twin(M), i, n))
    if nullspace(M):
        with pytest.raises(ZeroDivisionError):
            M.inverse()
    else:
        _same(M.inverse(), _twin(M).inverse())
        assert (M * M.inverse()).is_identity()


@given(_pairs(), _VALUES)
@settings(max_examples=200, deadline=None)
def test_equal_values_have_one_constant_form(pair, c):
    A, B = pair
    # the same value reached through different denominators
    for X, Y in ((A.scale(2).scale(Fraction(1, 2)), A),
                 ((A + B) - B, A), (A - A, ExactMatrix.zeros(A.N,
                                                             A.rows_level)),
                 (A.scale(c) + A.scale(1 - c), A)):
        assert X._ints == Y._ints and X._den == Y._den and X == Y
    H = ExactMatrix.from_ints([[2, 4], [6, 0]], 4, N=2)
    assert H._ints == [[1, 2], [3, 0]] and H._den == 2
    Z = ExactMatrix.from_ints([[0, 0], [0, 0]], 6, N=2)
    assert Z._den == 1 and Z.is_zero()


def test_rows_write_after_a_constant_operation():
    A = ExactMatrix.from_rows([[1, 2], [Fraction(1, 2), 0]])
    P = A * A
    assert P._ints is not None
    P.rows[0][1] = rf(7)
    assert P._ints is None
    assert P[0, 1] == rf(7) and P.entry((1,), (2,)) == rf(7)
    assert (P * ExactMatrix.identity(2, 1))[0, 1] == rf(7)
    assert ["1", "2", rf_to_json(rf(7))] in P.to_json()["entries"]
    assert P != A * A and (P - A * A)[0, 1] == rf(7) - (A * A)[0, 1]
    # a copy of a constant matrix shares nothing writable with it
    C = A.copy()
    C.rows[0][0] = rf(9)
    assert A[0, 0] == rf(1) and C[0, 0] == rf(9)
    # the in-place fill of a zero matrix, as clifford does it (from_json
    # fills plain lists and calls from_rows)
    Z = ExactMatrix.zeros(2, 1)
    Z.rows[1][0] = param("p")
    assert not Z.is_zero() and Z[1, 0] == param("p")
    assert (Z * Z).is_zero() and not (Z + A).is_zero()


def test_json_round_trip_picks_the_form():
    A = ExactMatrix.from_rows([[1, Fraction(-2, 3)], [0, 5]])
    back = ExactMatrix.from_json(json.loads(json.dumps(A.to_json())))
    assert back._ints is not None and back == A
    S = ExactMatrix.from_rows([[1, "p"], [0, zeta(3)]])
    back = ExactMatrix.from_json(json.loads(json.dumps(S.to_json())))
    assert back._ints is None and back == S


def test_cyclotomic_and_symbolic_inputs_stay_rf():
    # a + b*zeta with b = 0 is the rational a, so it gives the constant form
    on_line = Cyc(3, Fraction(2, 3))
    assert type(on_line) is Fraction
    for entries in ([[1, 0], [0, on_line]], [[1, 0], [0, rf(on_line)]],
                    [[1, 0], [0, Poly.const(on_line)]]):
        M = ExactMatrix.from_rows(entries)
        assert M._ints is not None
        assert typed(M[1, 1].num) == {(): (Fraction, Fraction(2, 3))}
    for entries in ([[1, 0], [0, zeta(4)]],
                    [[1, "p"], [0, 1]], [[1, Poly.var("q")], [0, 1]],
                    [[rf(1) / (param("p") + 1), 0], [0, 1]]):
        M = ExactMatrix.from_rows(entries)
        assert M._ints is None
    cyc = Cyc(3, Fraction(2, 3), 1)
    M = ExactMatrix.from_rows([[1, 0], [0, rf(cyc)]])
    assert typed(M[1, 1].num) == {(): (Cyc, cyc)}
    # an RF-form operand keeps the result in the RF form, types included
    A = ExactMatrix.from_rows([[1, 2], [3, 4]])
    for X in (A * M, M * A, A + M, A - M, kron(A, M), A.scale(zeta(3)),
              A.scale("p")):
        assert X._ints is None
    assert typed((A * M)[1, 1].num) == {(): (Cyc, Cyc(3, Fraction(8, 3), 4))}
    # a point with a cyclotomic value evaluates into the RF form
    S = ExactMatrix.from_rows([[1, "p"], [0, 1]])
    assert S.evaluate({"p": 2})._ints is not None
    at_zeta = S.evaluate({"p": zeta(3)})
    assert at_zeta._ints is None and at_zeta[0, 1] == rf(zeta(3))


def test_verify_witness_matches_the_rf_path():
    # a numeric pair that fails its s-involutions with witness c^2 - 1
    flip = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    c = Fraction(-3, 2)
    R = ExactMatrix.from_rows(flip)
    S = R.scale(c)
    const = verify(RepPair(R, S), MIXED_DOUBLES, 3)
    boxed = verify(RepPair(_twin(R), _twin(S)), MIXED_DOUBLES, 3)
    assert [(r.relation, r.witness) for r in const] == \
        [(r.relation, r.witness) for r in boxed]
    for x, y in zip(const, boxed):
        if x.witness is not None:
            _same_rf(x.witness[2], y.witness[2])
    assert any(r.witness is not None and r.witness[2] == rf(c * c - 1)
               for r in const)


_BROKEN = '''
from mdreps.matrix import ExactMatrix, RepPair, embed_at, eigen_data, kron
from mdreps.scalar import InvariantError
from mdreps.upoly import _deflate
import mdreps.matrix as mx

A = ExactMatrix.from_rows([[1, 2], [3, 4]])
B = ExactMatrix.from_rows([[1, 2, 3, 4]] * 4)
C = ExactMatrix.from_rows([[1, 2]])
probes = [
    lambda: A * B, lambda: A + B, lambda: A - B, lambda: C.power(2),
    lambda: C.trace(), lambda: C.inverse(),
    lambda: kron(A, ExactMatrix.identity(3, 1)),
    lambda: embed_at(A, 1, 3), lambda: RepPair(A, A),
    lambda: ExactMatrix.from_rows([[1, 2, 3]]),
    lambda: ExactMatrix.from_rows([[1, 2], [3]]),
]
for probe in probes:
    try:
        probe()
    except ValueError:
        print("ValueError")
try:
    _deflate([1, 0, 1], 1)
except InvariantError:
    print("InvariantError")
mx._roots_in_tower = lambda coeffs: [1]
try:
    eigen_data(A)
except InvariantError:
    print("InvariantError")
'''


def test_shape_and_invariant_errors_survive_python_O():
    import mdreps
    src = os.path.dirname(os.path.dirname(mdreps.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN],
                         capture_output=True, text=True, timeout=60, env=env,
                         check=True)
    assert out.stdout.split() == ["ValueError"] * 11 + ["InvariantError"] * 2
