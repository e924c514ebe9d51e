"""The coefficient rule of the scalar tower: every stored rational (a
polynomial coefficient, a component of a Cyc) is an int when it is
integral and otherwise a Fraction with denominator > 1, no float or bool
is ever stored, and a value a + b*zeta with b = 0 is the rational a, never
a Cyc.  ``rule_violations`` walks values and lists what breaks the rule;
the tests run it over the operators, the constant form and the symbolic
commutants."""

import hashlib
import json
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_constant_form import _VALUES, _pairs
from test_scalar import constant_pairs, rf_operands

from mdreps.catalog import (analysis_pair, apply_transform, make_md_pair,
                            Transform)
from mdreps.matrix import ExactMatrix, RepPair, commutant_basis, kron
from mdreps.presentations import MIXED_DOUBLES, verify
from mdreps.scalar import _CYC_PQ, RF, Cyc, NonVanishing, Poly, rf, zeta


def _rational_ok(v):
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def rule_violations(x, where="value"):
    """(place, value) for every coefficient in x that breaks the rule.  x is
    a Poly, an RF, an ExactMatrix (its integer rows and every boxed entry),
    a Cyc, a rational, or a list or tuple of them."""
    if isinstance(x, (list, tuple)):
        return [bad for k, y in enumerate(x)
                for bad in rule_violations(y, "%s[%d]" % (where, k))]
    if isinstance(x, ExactMatrix):
        out = []
        if x._ints is not None:
            out += [("%s._ints" % where, a) for row in x._ints for a in row
                    if type(a) is not int]
            if type(x._den) is not int or x._den <= 0:
                out.append(("%s._den" % where, x._den))
        for i in range(x.nrows):
            for j in range(x.ncols):
                out += rule_violations(x[i, j], "%s[%d, %d]" % (where, i, j))
        return out
    if isinstance(x, RF):
        return (rule_violations(x.num, where + ".num")
                + rule_violations(x.den, where + ".den"))
    if isinstance(x, Poly):
        return [bad for m, c in x.terms.items()
                for bad in rule_violations(c, "%s%r" % (where, m))]
    if isinstance(x, Cyc):
        return [(where + "." + part, v) for part, v in (("a", x.a), ("b", x.b))
                if not _rational_ok(v) or part == "b" and v == 0]
    return [] if _rational_ok(x) else [(where, x)]


def check(x):
    bad = rule_violations(x)
    assert not bad, bad


def test_the_checker_rejects_what_breaks_the_rule():
    m = (("p", 1),)
    odd = Cyc(3, 1, 2)
    odd.b = Fraction(2)
    on_line = Cyc(3, 1, 2)
    on_line.b = 0
    for value in (Poly({m: 0.5}, False), Poly({m: True}, False),
                  Poly({m: Fraction(3)}, False), rf(odd), rf(on_line),
                  [rf(1), Poly({(): Fraction(-4, 1)}, False)],
                  ExactMatrix.from_ints([[Fraction(1), 0], [0, 1]])):
        assert rule_violations(value), value
    for value in (Poly({m: 3, (): Fraction(1, 2)}), rf(Cyc(6, 1, -1)),
                  ExactMatrix.from_rows([[1, Fraction(1, 2)], [0, "p"]]),
                  rf("q") / 6):
        assert not rule_violations(value), value


def test_constructors_normalize_what_they_are_given():
    m = (("p", 1),)
    check([Poly({m: Fraction(4, 2), (): 2.0}), Poly.const(Fraction(6, 3)),
           Poly.const(True), Poly.var("p"), rf(Fraction(-3, 1)),
           rf(Cyc(3, Fraction(4, 2), 1.5)), Cyc(4, 3, 1).inverse(),
           Cyc(4, 1, 1).inverse(), zeta(3) / zeta(3), rf(2) / rf(4),
           rf(zeta(6)) ** -3])
    assert Cyc(4, 1, 1).inverse() == Cyc(4, Fraction(1, 2), Fraction(-1, 2))
    assert Poly({m: 2.0}).terms == {m: 2}


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}


def test_a_rational_built_as_a_cyc_mixes_with_any_order():
    # Cyc(3, 1) is the int 1, so it meets a Q(zeta_4) value in either order
    one, i = Cyc(3, 1), Cyc(4, 0, 1)
    assert type(one) is int and one == 1
    want = {"+": Cyc(4, 1, 1), "-": Cyc(4, 1, -1), "*": i, "/": Cyc(4, 0, -1)}
    back = {"+": Cyc(4, 1, 1), "-": Cyc(4, -1, 1), "*": i, "/": i}
    for op, f in _OPS.items():
        assert f(one, i) == want[op] and f(i, one) == back[op], op
    # two genuine values of different orders stay refused
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        zeta(3) + i


_RATIONALS = st.one_of(st.integers(-3, 3),
                       st.builds(Fraction, st.integers(-4, 4),
                                 st.integers(1, 4)))


def _pair(v):
    """(a, b) with v = a + b*zeta, as Fractions."""
    if type(v) is Cyc:
        return Fraction(v.a), Fraction(v.b)
    return Fraction(v), Fraction(0)


def _pair_op(op, m, x, y):
    """x op y on (a, b) pairs of Q(zeta_m), zeta^2 = -P zeta - Q."""
    (a1, b1), (a2, b2) = x, y
    P, Q = _CYC_PQ[m]
    if op == "+":
        return a1 + a2, b1 + b2
    if op == "-":
        return a1 - a2, b1 - b2
    if op == "/":
        norm = a2 * a2 - P * a2 * b2 + Q * b2 * b2
        a2, b2 = (a2 - P * b2) / norm, -b2 / norm
    zz = b1 * b2
    return a1 * a2 - Q * zz, a1 * b2 + b1 * a2 - P * zz


def _pair_pow(m, x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = _pair_op("*", m, out, x)
    return _pair_op("/", m, (Fraction(1), Fraction(0)), out) if k < 0 else out


@given(m=st.sampled_from((3, 4, 6)), ab=st.tuples(_RATIONALS, _RATIONALS),
       other=st.one_of(_RATIONALS, st.tuples(_RATIONALS, _RATIONALS)),
       op=st.sampled_from("+-*/"), k=st.integers(-3, 4))
@settings(max_examples=300, deadline=None)
def test_a_zeta_part_of_0_is_stored_as_its_rational(m, ab, other, op, k):
    """Over one m: a value whose zeta part is 0, built by the constructor,
    an operator (forward or reflected, with a Cyc or a rational operand) or
    a power, is an int or a Fraction under the coefficient rule, never a
    Cyc or a float, and hashes like the rational; any other value is a Cyc
    of that m.  The expected (a, b) comes from arithmetic on pairs."""
    x = Cyc(m, *ab)
    y = Cyc(m, *other) if isinstance(other, tuple) else other
    assume(type(x) is Cyc or type(y) is Cyc)
    got = [(x, _pair(x))]
    if isinstance(other, tuple):
        got.append((y, _pair(y)))
    for u, v in ((x, y), (y, x)):
        if not (op == "/" and v == 0):
            got.append((_OPS[op](u, v), _pair_op(op, m, _pair(u), _pair(v))))
    for u in (x, y):
        if type(u) is Cyc:
            got.append((u ** k, _pair_pow(m, _pair(u), k)))
    for value, (a, b) in got:
        check(value)
        if b == 0:
            assert type(value) in (int, Fraction) and value == a
            assert hash(value) == hash(a)
        else:
            assert type(value) is Cyc and value.m == m
            assert (value.a, value.b) == (a, b)


@given(ab=rf_operands(), op=st.sampled_from("*+-/"), k=st.integers(-2, 3))
@settings(max_examples=200, deadline=None)
def test_rf_operators_keep_the_rule(ab, op, k):
    a, b = ab
    check([a, b])
    if not (op == "/" and b.is_zero()):
        check(_OPS[op](a, b))
    if not (k < 0 and a.is_zero()):
        check(a ** k)


@given(ab=constant_pairs(), op=st.sampled_from("*+-/"))
@settings(max_examples=200, deadline=None)
def test_constant_operators_keep_the_rule(ab, op):
    a, b = ab
    check([a, b])
    if not (op == "/" and b.is_zero()):
        check(_OPS[op](a, b))


@given(_pairs(), _VALUES)
@settings(max_examples=100, deadline=None)
def test_the_constant_form_keeps_the_rule(pair, c):
    A, B = pair
    RA = ExactMatrix(A.N, A.rows_level, A.cols_level,
                     [[A[i, j] for j in range(A.ncols)]
                      for i in range(A.nrows)])
    back = ExactMatrix.from_json(json.loads(json.dumps(A.to_json())))
    rf_back = ExactMatrix.from_json(json.loads(json.dumps(RA.to_json())))
    check([A, B, RA, back, rf_back, A * B, A + B, A - B, A.scale(c), -A,
           kron(A, B), A.transpose(), RA * B, RA.scale(c), A.trace(),
           A.evaluate({"p": 3})])


def test_symbolic_commutants_have_integer_coefficients():
    P, Q = Poly.var("p"), Poly.var("q")
    for family, nv in (("f-glue", NonVanishing(["p", "q", Q - P, P + Q])),
                       ("a-glue", NonVanishing(["p", "q", Q - P]))):
        mats = [M for _, M in analysis_pair(family).generator_images(3)]
        basis = commutant_basis(mats, nv)
        assert len(basis) == {"f-glue": 6, "a-glue": 4}[family]
        check(mats + basis)
        assert all(type(c) is int for T in basis for row in T.rows
                   for e in row for f in (e.num, e.den)
                   for c in f.terms.values())


# sha256 of json.dumps of the reports, as written when Cyc components were
# always Fractions
_CYC_REPORTS = {
    "conj": "89c18fdae58d10b7c24f48c06c0f1bd2df000c84379927b8fc77e8ec7be0c93b",
    "scaled":
        "e64e88ff43a9d11952cb83b50820606ea5b3835eb1b3faea69bfe27fb1200206",
    "shifted":
        "e69d7947ac8a72dadd00ddd9a0acdb4da436b17c3a3da00a5aa7785e9d2666ef",
}


def test_cyclotomic_verify_reports_keep_their_bytes():
    A = ExactMatrix.from_rows([[zeta(3), 0], [1, 1]])
    conj = apply_transform(Transform("local_conj", A),
                           make_md_pair("case2", check=False))
    pairs = {"conj": conj,
             "scaled": RepPair(conj.R, conj.S.scale(zeta(3))),
             "shifted": RepPair(conj.R + ExactMatrix.identity(2, 2).scale(2),
                                conj.S)}
    failing = {}
    for label, pair in pairs.items():
        check([pair.R, pair.S])
        reports = verify(pair, MIXED_DOUBLES, 3)
        data = json.dumps([r.to_json() for r in reports]).encode()
        assert hashlib.sha256(data).hexdigest() == _CYC_REPORTS[label], label
        failing[label] = sum(not r.is_zero for r in reports)
    assert failing == {"conj": 0, "scaled": 2, "shifted": 4}
