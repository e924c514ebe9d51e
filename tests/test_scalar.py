import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdreps.scalar import (RF, Cyc, NonVanishing, Poly,
                           RejectedPoint, as_fraction, param, poly_divmod_exact,
                           poly_gcd, rf, rf_from_json, rf_to_json, unity_order,
                           zeta)

p, q, t = param("p"), param("q"), param("t")


def test_inverse_pair():
    assert (p / q) * (q / p) == rf(1)


def test_factor_cancellation():
    assert (p * p - q * q) / (p - q) == p + q


def test_like_denominator_sum():
    assert rf(1) / (t * t - 1) + rf(1) / (t * t - 1) == rf(2) / (t * t - 1)


def test_evaluate_basic():
    assert (p / q).evaluate({"p": 2, "q": 3}) == Fraction(2, 3)
    assert ((p * p - 1) / (4 * p)).evaluate({"p": 1}) == 0


def test_evaluate_rejected_point():
    with pytest.raises(RejectedPoint):
        (rf(1) / (p - 1)).evaluate({"p": 1})
    nv = NonVanishing([Poly.var("p") - Poly.const(1)])
    with pytest.raises(RejectedPoint):
        (p * q).evaluate({"p": 1, "q": 2}, nv)


def test_is_zero():
    assert (p * q - q * p).is_zero()
    assert ((p + q) ** 2 - p * p - 2 * p * q - q * q).is_zero()
    assert not (p - q).is_zero()


def test_is_zero_agrees_with_sampling():
    rng = random.Random(5)
    fns = [(p + q) ** 2 - p * p - 2 * p * q - q * q,
           p - q,
           (p * p - q * q) / (p + q) - p + q,
           p * q / (p * q) - 1]
    for f in fns:
        hits = 0
        tried = 0
        while tried < 20:
            pt = {"p": Fraction(rng.randint(-20, 20)),
                  "q": Fraction(rng.randint(-20, 20))}
            try:
                v = f.evaluate(pt)
            except RejectedPoint:
                continue
            tried += 1
            if v == 0:
                hits += 1
        if f.is_zero():
            assert hits == tried
        else:
            # a nonzero rational function vanishes on a thin set only
            assert hits < tried


def test_homomorphism_at_random_points(rng):
    fns = [p + q, p * q - 1, (p - q) / (p + q), rf(1) / p, (p * p + 3) / q]
    ops = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b]
    checked = 0
    while checked < 100:
        pt = {"p": Fraction(rng.randint(-30, 30)),
              "q": Fraction(rng.randint(-30, 30))}
        a = fns[rng.randrange(len(fns))]
        b = fns[rng.randrange(len(fns))]
        op = ops[rng.randrange(len(ops))]
        try:
            lhs = op(a, b).evaluate(pt)
            rhs = op(a.evaluate(pt), b.evaluate(pt))
        except RejectedPoint:
            continue
        assert lhs == rhs
        checked += 1
    # division too
    checked = 0
    while checked < 30:
        pt = {"p": Fraction(rng.randint(-30, 30)),
              "q": Fraction(rng.randint(-30, 30))}
        a, b = fns[rng.randrange(len(fns))], fns[rng.randrange(len(fns))]
        try:
            if b.evaluate(pt) == 0:
                continue
            assert (a / b).evaluate(pt) == a.evaluate(pt) / b.evaluate(pt)
        except (RejectedPoint, ZeroDivisionError):
            continue
        checked += 1


_small = st.integers(min_value=-4, max_value=4)


@st.composite
def small_rf(draw):
    # random bivariate polynomial over small integers, divided by a nonzero one
    def poly(allow_zero=True):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            e1, e2 = draw(_small), draw(_small)
            c = draw(_small)
            mono = tuple(kv for kv in (("p", abs(e1)), ("q", abs(e2))) if kv[1])
            terms[mono] = terms.get(mono, 0) + c
        P = Poly(terms)
        if not allow_zero and P.is_zero():
            P = Poly.const(1)
        return P
    return RF(poly(), poly(allow_zero=False))


@given(a=small_rf(), b=small_rf(), c=small_rf())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == rf(1)


@given(a=small_rf())
@settings(max_examples=40, deadline=None)
def test_canonical_idempotence(a):
    again = RF(a.num, a.den)
    assert again.num == a.num and again.den == a.den


def test_cyclotomic_identities():
    for m in (3, 4, 6):
        z = zeta(m)
        assert z ** m == 1
        # the defining polynomial vanishes exactly
        if m == 3:
            assert z * z + z + 1 == 0
        if m == 4:
            assert z * z + 1 == 0
        if m == 6:
            assert z * z - z + 1 == 0
    assert zeta(1) == 1 and zeta(2) == -1
    assert unity_order(zeta(3)) == 3
    assert unity_order(Fraction(-1)) == 2
    assert unity_order(Fraction(2)) is None
    assert (zeta(3) ** 2).inverse() == zeta(3) ** 4 * zeta(3) ** 0


def test_cyclotomic_division():
    z = zeta(3)
    x = Cyc(3, 2, 5)
    assert x * x.inverse() == 1
    assert (rf(z) * p - rf(z) * p).is_zero()


def test_division_by_zero_rf():
    with pytest.raises(ZeroDivisionError):
        p / (q - q)


def test_nonvanishing_covers():
    nv = NonVanishing(["p", "q", Poly.var("p") + Poly.var("q")])
    P, Q = Poly.var("p"), Poly.var("q")
    assert nv.covers(P * P * Q * (P + Q))
    assert nv.covers(P.scale(-7))
    assert not nv.covers(P - Q)
    assert not nv.covers(Poly())


def test_gcd_multivariate():
    P, Q = Poly.var("p"), Poly.var("q")
    g = poly_gcd((P + Q) ** 3 * (P - Q), (P + Q) ** 2 * Q)
    assert poly_divmod_exact(g, (P + Q) ** 2) is not None
    assert poly_divmod_exact((P + Q) ** 2, g) is not None


def test_json_round_trip():
    import json
    x = (p * p - q) / (4 * q * q + 1)
    assert rf_from_json(json.loads(json.dumps(rf_to_json(x)))) == x
    xc = rf(zeta(3)) * p + rf(Fraction(1, 2))
    assert rf_from_json(json.loads(json.dumps(rf_to_json(xc)))) == xc


def test_as_fraction():
    assert as_fraction(rf(6) / rf(4)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        as_fraction(p)


# ---------------------------------------------------------------------------
# the RF operators against the reducing constructor

# (cyclotomic order or None for Q, parameter names).  Three parameters are
# drawn over Q only: with Q(zeta_3) coefficients in three parameters the
# multivariate gcd can take seconds on inputs of degree 5.
_FIELDS = [(None, ("p", "q")), (None, ("p", "q", "t")), (3, ("p", "q")),
           (4, ("p", "q")), (6, ("p", "q"))]
_nonzero = st.integers(-3, 3).filter(bool)


def _coeff(draw, m):
    if m is None:
        return draw(_nonzero)
    return Cyc(m, draw(st.integers(-2, 2)), draw(_nonzero))


@st.composite
def _factor(draw, m, names):
    # a polynomial of total degree <= 2 that is not constant
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        mono = {}
        for x in draw(st.lists(st.sampled_from(names), min_size=1,
                               max_size=2)):
            mono[x] = mono.get(x, 0) + 1
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, 0) + _coeff(draw, m)
    if draw(st.booleans()):
        terms[()] = _coeff(draw, m)
    P = Poly(terms)
    return P if not P.is_constant() else Poly.var(names[0]) + P


@st.composite
def rf_operands(draw):
    """Two canonical RFs over one field whose numerators and denominators
    are products of factors from a shared pool, so that the operators meet
    common factors; denominators are often 1 and numerators sometimes 0."""
    m, names = draw(st.sampled_from(_FIELDS))
    pool = [draw(_factor(m, names)) for _ in range(2)]

    def side():
        P = Poly.const(draw(_nonzero))
        for f in draw(st.lists(st.sampled_from(pool), max_size=2)):
            P = P * f
        return P

    def operand():
        num = Poly() if draw(st.integers(0, 5)) == 0 else side()
        den = Poly.const(1) if draw(st.booleans()) else side()
        return RF(num, den)

    return operand(), operand()


def _reference(op, a, b):
    # the full fraction, reduced once by the constructor
    n1, d1, n2, d2 = a.num, a.den, b.num, b.den
    if op == "*":
        return RF(n1 * n2, d1 * d2)
    if op == "+":
        return RF(n1 * d2 + n2 * d1, d1 * d2)
    if op == "-":
        return RF(n1 * d2 - n2 * d1, d1 * d2)
    return RF(n1 * d2, d1 * n2)


_OPS = {"*": operator.mul, "+": operator.add, "-": operator.sub,
        "/": operator.truediv}


@given(ab=rf_operands(), op=st.sampled_from("*+-/"))
@settings(max_examples=300, deadline=None)
def test_rf_operators_match_reducing_constructor(ab, op):
    a, b = ab
    if op == "/" and b.is_zero():
        return
    got, want = _OPS[op](a, b), _reference(op, a, b)
    assert got.num == want.num and got.den == want.den


@given(ab=rf_operands(), op=st.sampled_from("*+-/"),
       shape=st.sampled_from(("equal", "zero_left", "zero_right", "int_left")))
@settings(max_examples=120, deadline=None)
def test_rf_operators_on_equal_zero_and_int_operands(ab, op, shape):
    # the fast paths: x - x, x - 0, 0 - y, and the reflected k - y
    a, b = ab
    if shape == "equal":
        b = a
    elif shape == "zero_left":
        a = rf(0)
    elif shape == "zero_right":
        b = rf(0)
    if op == "/" and b.is_zero():
        return
    if shape == "int_left":
        got, a = _OPS[op](-2, b), rf(-2)
    else:
        got = _OPS[op](a, b)
    want = _reference(op, a, b)
    assert got.num == want.num and got.den == want.den


@given(ab=rf_operands(), k=st.integers(-2, 3))
@settings(max_examples=60, deadline=None)
def test_rf_power_matches_reducing_constructor(ab, k):
    a = ab[0]
    if k < 0:
        if a.is_zero():
            return
        want = RF(a.den ** -k, a.num ** -k)
    else:
        want = RF(a.num ** k, a.den ** k)
    got = a ** k
    assert got.num == want.num and got.den == want.den


def test_rf_operator_fast_paths():
    # polynomial operands take no gcd and stay polynomials
    x = (p + 1) * (q - 2)
    assert (x * q).den == Poly.const(1)
    assert (x + q).den == Poly.const(1)
    # coprime denominators: the product of denominators is kept
    s = rf(1) / (p + 1) + rf(1) / (q + 1)
    assert s == RF((Poly.var("p") + Poly.var("q") + Poly.const(2)),
                   (Poly.var("p") + Poly.const(1))
                   * (Poly.var("q") + Poly.const(1)))
    # a shared factor of the denominators cancels against the sum
    u = rf(1) / ((p - q) * (p + 1)) - rf(1) / ((p - q) * (q + 1))
    assert u == rf(-1) / ((p + 1) * (q + 1))
    # cross-cancellation in the product leaves a monic denominator
    v = (2 * p + 2) / (q - 1) * ((q - 1) / (3 * p * p + 3 * p))
    assert v == rf(Fraction(2, 3)) / p and v.den == Poly.var("p")


def _to_sympy(P, sp, syms):
    zetas = {3: (-1 + sp.sqrt(3) * sp.I) / 2, 4: sp.I,
             6: (1 + sp.sqrt(3) * sp.I) / 2}
    out = sp.Integer(0)
    for mono, c in P.terms.items():
        if isinstance(c, Cyc):
            c = sp.Rational(c.a) + sp.Rational(c.b) * zetas[c.m]
        else:
            c = sp.Rational(c)
        for x, e in mono:
            c = c * syms[x] ** e
        out = out + c
    return out


@given(ab=rf_operands(), op=st.sampled_from("*+-/"))
@settings(max_examples=60, deadline=None)
def test_rf_operators_against_sympy_cancel(ab, op):
    sp = pytest.importorskip("sympy")
    a, b = ab
    if op == "/" and b.is_zero():
        return
    syms = {x: sp.Symbol(x) for x in ("p", "q", "t")}
    ea = _to_sympy(a.num, sp, syms) / _to_sympy(a.den, sp, syms)
    eb = _to_sympy(b.num, sp, syms) / _to_sympy(b.den, sp, syms)
    want = sp.cancel(_OPS[op](ea, eb))
    wn, wd = sp.fraction(want)
    got = _OPS[op](a, b)
    gn, gd = _to_sympy(got.num, sp, syms), _to_sympy(got.den, sp, syms)
    # normalisations differ, so compare by cross-multiplication
    assert sp.expand(gn * wd - wn * gd) == 0
    if all(not isinstance(c, Cyc) for P in (a.num, a.den, b.num, b.den)
           for c in P.terms.values()):
        # over Q, sympy's reduced denominator has the least degree
        gens = sorted(syms.values(), key=str)
        assert sp.Poly(gd, *gens).total_degree() \
            == sp.Poly(wd, *gens).total_degree()
