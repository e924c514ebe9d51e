import operator
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import prs_scalar
import pytest
import twin_readers
from hypothesis import given, settings
from hypothesis import strategies as st

import mdreps
from mdreps.scalar import (RF, RF_ZERO, Cyc, NonVanishing, Poly,
                           RejectedPoint, _cancel, _monic, _rat_rescale,
                           _ratio, _rational, _rational_coeff, as_fraction,
                           param, poly_divmod_exact, poly_gcd, rf,
                           rf_from_json, rf_to_json, unity_order, zeta)

p, q, t = param("p"), param("q"), param("t")
_SRC = os.path.dirname(os.path.dirname(mdreps.__file__))


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


def test_a_constraint_name_must_be_an_identifier():
    # "p+q" once declared one variable named p+q, which covers nothing
    for name in ("p+q", "2p", "", "p q"):
        with pytest.raises(ValueError,
                           match=re.escape("constraint name %r" % name)):
            NonVanishing([name])
    P, Q = Poly.var("p"), Poly.var("q")
    assert NonVanishing(["p", "q_1"]).covers(P * Poly.var("q_1"))
    assert NonVanishing([P + Q]).covers(P + Q)


def _covers_oracle(declared, poly):
    """poly divides (prod of declared)^deg(poly): every irreducible factor
    of poly divides a declared polynomial, with room for its multiplicity."""
    prod = Poly.const(1)
    for c in declared:
        prod = prod * c
    return poly_divmod_exact(prod ** poly.degree(), poly) is not None


def test_covers_accepts_products_of_declared_factors():
    P, Q = Poly.var("p"), Poly.var("q")
    declared = [P, Q, P * P - P * Q]
    assert NonVanishing(declared).covers(P * P - P * Q)
    assert NonVanishing(declared).covers((P - Q) ** 2 * Q)
    # the factor p - q is declared only inside a product
    assert NonVanishing([P * (P - Q), Q]).covers(P - Q)
    rng = random.Random(26)
    one = Poly.const(1)
    pool = [P, Q, P - Q, P + Q, P * Q - one, P * P + Q + one + one,
            Q - one.scale(3)]
    for _ in range(60):
        declared = [rng.choice(pool) * rng.choice(pool)
                    for _ in range(rng.randint(1, 3))]
        poly = Poly.const(rng.choice((1, -2, Fraction(3, 5))))
        for _ in range(rng.randint(0, 3)):
            poly = poly * rng.choice(pool)
        nv = NonVanishing(declared)
        assert nv.covers(poly) == _covers_oracle(nv.constraints, poly), (
            declared, poly)


def test_fglue_commutant_under_a_declared_product():
    from mdreps.catalog import analysis_pair
    from mdreps.structure import commutant
    P, Q = Poly.var("p"), Poly.var("q")
    mats = [M for _, M in analysis_pair("f-glue").generator_images(3)]
    assert commutant(mats, NonVanishing([P, Q, P * P - P * Q])).dim == 6


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


def test_as_fraction_of_a_rational_cyc():
    # a + b*zeta with b = 0 is built as the rational a
    for m in (3, 4, 6):
        for a in (0, 1, -2, Fraction(3, 5)):
            v = as_fraction(rf(Cyc(m, a, 0)))
            assert v == a and type(v) is Fraction
        with pytest.raises(ValueError, match="cyclotomic"):
            as_fraction(rf(Cyc(m, 1, 1)))



def _reader_pool(rng):
    """Seeded ints, Fractions (integral ones too), rational and genuine
    Cycs, constant and symbolic Polys and RFs, RFs over a non-unit
    denominator, and a parameter name."""
    def rat():
        return rng.choice((rng.randint(-9, 9),
                           Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
    pool = ["p", 0, Fraction(0), Fraction(6, 3), Poly(), RF_ZERO]
    for _ in range(40):
        m = rng.choice((3, 4, 6))
        c = rng.choice((rat(), Cyc(m, rat(), 0),
                        Cyc(m, rat(), rng.randint(1, 3))))
        poly = rng.choice((Poly.const(c), Poly.const(c) + Poly.var("p"),
                           Poly.var("q").scale(c)))
        pool += [c, poly, rf(c), rf(poly), rf(c) / (p + rng.randint(1, 3)),
                 rf(poly) / q]
    return pool


def _outcome(fn, x):
    try:
        v = fn(x)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    return "returns", type(v), v


def test_rational_reader_matches_the_twin_readers(rng):
    """``scalar._rational``, ``_rational_coeff`` and ``as_fraction`` give
    what the readers of ``scalar`` and ``matrix`` gave before they were
    merged: the same value of the same type, or the same exception class
    and message; ``as_fraction`` on the RF of every value."""
    rationals, fractions = Counter(), Counter()
    for x in _reader_pool(rng):
        want = _outcome(twin_readers._rational, x)
        assert _outcome(_rational, x) == want, x
        rationals[want[1].__name__] += 1
        f = rf(x)
        want = _outcome(twin_readers.as_fraction, f)
        assert _outcome(as_fraction, f) == want, f
        fractions[want[0], want[2].split(":")[0] if want[0] == "raises"
                  else ""] += 1
        for P in (f.num, f.den) + ((x,) if isinstance(x, Poly) else ()):
            assert _outcome(_rational_coeff, P.terms) == \
                _outcome(twin_readers._rational_coeff, P.terms)
    assert set(rationals) == {"int", "Fraction", "NoneType"}
    assert set(fractions) == {("returns", ""), ("raises", "not a constant"),
                              ("raises", "cyclotomic constant, not "
                               "rational")}
    assert min(fractions.values()) > 10


# ---------------------------------------------------------------------------
# the RF operators against the reducing constructor

# (cyclotomic order or None for Q, parameter names)
_FIELDS = [(None, ("p", "q")), (None, ("p", "q", "t")), (3, ("p", "q")),
           (3, ("p", "q", "t")), (4, ("p", "q")), (6, ("p", "q"))]
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


# ---------------------------------------------------------------------------
# the constant fast path of * against the reducing constructor


def typed(P):
    """The terms of P with the type of each coefficient, so that equal
    values stored with different types compare unequal."""
    return {mono: (type(c), c) for mono, c in P.terms.items()}


@st.composite
def constants(draw, m):
    """0, +-1 or a small fraction, over Q(zeta_m) sometimes as a + b*zeta
    (b may be 0, which builds the rational a)."""
    if draw(st.booleans()):
        v = Fraction(draw(st.sampled_from((0, 1, -1))))
    else:
        v = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    if m is not None and draw(st.booleans()):
        v = Cyc(m, v, draw(st.integers(-2, 2)))
    return rf(v)


@st.composite
def constant_pairs(draw):
    """Two constants over one field, often equal, or one constant and one
    rational function with a non-constant numerator or denominator."""
    m = draw(st.sampled_from((None, 3, 4, 6)))
    a = draw(constants(m))
    shape = draw(st.sampled_from(("constants", "equal", "symbolic_left",
                                  "symbolic_right")))
    if shape == "equal":
        return a, a
    if shape == "constants":
        return a, draw(constants(m))
    f = draw(_factor(m, ("p", "q")))
    s = RF(f) if draw(st.booleans()) else RF(Poly.const(_coeff(draw, m)), f)
    return (s, a) if shape == "symbolic_left" else (a, s)


@given(ab=constant_pairs())
@settings(max_examples=300, deadline=None)
def test_constant_products_match_reducing_constructor(ab):
    a, b = ab
    got = a * b
    want = RF(a.num * b.num, a.den * b.den)
    assert got.num == want.num and got.den == want.den
    if a.is_constant() and b.is_constant():
        assert typed(got.num) == typed(want.num)
        assert typed(got.den) == typed(want.den)
        if got.is_zero():
            assert got is RF_ZERO
        elif type(want.num.const_value()) is Fraction:
            assert as_fraction(got) == want.const_value()


def test_rat_rescale_divides_cyclotomic_content():
    x = (("p", 1),)
    coeffs = [Poly({(): Cyc(3, Fraction(2, 3), Fraction(4, 9))}),
              Poly({x: Fraction(2)})]
    out = _rat_rescale(coeffs)
    assert typed(out[0]) == {(): (Cyc, Cyc(3, 3, 2))}
    assert typed(out[1]) == {x: (int, 9)}
    assert _rat_rescale([Poly({x: Cyc(3, 0, 6)}), Poly({(): Fraction(4)})]) \
        == [Poly({x: Cyc(3, 0, 3)}), Poly({(): Fraction(2)})]
    # over Q as before; an already primitive list is returned as it is
    assert _rat_rescale([Poly({x: Fraction(6)}), Poly({(): Fraction(-4)})]) \
        == [Poly({x: Fraction(3)}), Poly({(): Fraction(-2)})]
    prim = [Poly({x: Cyc(4, 1, 1)}), Poly({(): Fraction(2)})]
    assert _rat_rescale(prim) is prim


def _random_cyc_poly(rng, degree, nterms, names=("p", "q", "t")):
    terms = {}
    for _ in range(nterms):
        mono = {}
        for _ in range(rng.randint(1, degree)):
            x = rng.choice(names)
            mono[x] = mono.get(x, 0) + 1
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, 0) + Cyc(3, rng.randint(-3, 3),
                                             rng.choice((-2, -1, 1, 2)))
    terms[()] = Cyc(3, rng.randint(-3, 3), rng.randint(-2, 2))
    return Poly(terms)


def test_gcd_three_parameters_over_q_zeta3():
    # F*A and F*B with A = B*C + 1, so gcd(A, B) = 1 and the gcd is monic F
    # free of p, F is part of the content in the main variable p
    rng = random.Random(7)
    for k in range(6):
        F = _random_cyc_poly(rng, 2, 4, ("p", "q", "t") if k % 2 else "qt")
        B = _random_cyc_poly(rng, 2, 4)
        A = B * _random_cyc_poly(rng, 1, 3) + Poly.const(1)
        g = poly_gcd(F * A, F * B)
        assert g == _monic(F) and g.lead()[1] == 1
        assert poly_gcd(F * B, F * A) == g


# ---------------------------------------------------------------------------
# gcds and quotients with a known answer against the PRS they skip

def _random_poly(rng, names, cyclotomic):
    """A nonzero polynomial of degree <= 3 in ``names`` with int and
    Fraction coefficients, and over Q(zeta_3) also Cyc ones."""
    pool = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = {}
        for _ in range(rng.randint(0, 3)):
            x = rng.choice(names)
            mono[x] = mono.get(x, 0) + 1
        c = rng.choice(pool)
        if cyclotomic and rng.random() < 0.5:
            c = Cyc(3, rng.randint(-2, 2), rng.choice((-1, 1, 2)))
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, 0) + c
    P = Poly(terms)
    return P if not P.is_zero() else Poly.var(names[0])


_MULTIPLES = (2, -1, -3, Fraction(3, 4), Fraction(-1, 5), Cyc(3, 0, 1),
              Cyc(3, 1, 2), Cyc(3, Fraction(1, 2), -1))


def test_known_answer_paths_match_the_prs():
    """poly_gcd, _cancel and poly_divmod_exact against their bodies from
    before the ``_ratio`` short-circuit (tests/prs_scalar.py), in both
    orders, on constant multiples, on same-support pairs that are not
    proportional, and on constant operands.  The values are equal."""
    rng = random.Random(19)
    seen = Counter()
    for _ in range(240):
        names = ("p", "q", "t")[:rng.randint(1, 3)]
        cyclotomic = rng.random() < 0.5
        a = _random_poly(rng, names, cyclotomic)
        kind = rng.choice(("multiple", "same support", "constant"))
        r = rng.choice(_MULTIPLES[:5] if not cyclotomic else _MULTIPLES)
        if kind == "multiple":
            b = a.scale(r)
            assert _ratio(a, b) == r and _ratio(b, a) * r == 1
        elif kind == "same support":
            if len(a.terms) < 2:
                a = a + Poly.var(names[-1]) ** 4
            m = rng.choice(list(a.terms))
            b = a.scale(r) + Poly({m: rng.choice((1, Fraction(1, 3)))})
            if set(b.terms) != set(a.terms):
                b = b + Poly({m: 1})
            assert _ratio(a, b) is None and _ratio(b, a) is None
        else:
            b = Poly.const(r)
        seen[kind] += 1
        for f, g in ((a, b), (b, a)):
            assert poly_gcd(f, g) == prs_scalar.poly_gcd(f, g)
            assert _cancel(f, g) == prs_scalar._cancel(f, g)
            assert poly_divmod_exact(f, g) \
                == prs_scalar.poly_divmod_exact(f, g)
    assert len(seen) == 3, seen


def _random_univar(rng, m, degree):
    """A polynomial in x of the given degree over Q (m None) or Q(zeta_m):
    int and Fraction coefficients, and over Q(zeta_m) Cycs, drawn with a
    zeta part that may be 0, which builds a rational."""
    pool = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    terms = {}
    for e in range(degree + 1):
        c = rng.choice(pool + [0])
        if m is not None and rng.random() < 0.5:
            c = Cyc(m, rng.randint(-2, 2), rng.choice((0, -1, 1, 2)))
        terms[((("x", e),) if e else ())] = c
    terms[(("x", degree),)] = rng.choice(pool)
    return Poly(terms)


def test_univariate_gcd_matches_the_prs():
    """poly_gcd of one-variable operands (upoly's gcd) against the primitive
    pseudo-remainder sequence of tests/prs_scalar.py over Q, Q(zeta_3),
    Q(zeta_4) and Q(zeta_6): a common factor, coprime pairs (A = B*C + 1),
    constant multiples and a zero operand, in both orders.  The gcd is
    monic."""
    rng = random.Random(21)
    seen = Counter()
    for m in (None, 3, 4, 6):
        for _ in range(40):
            kind = rng.choice(("common factor", "coprime", "multiple",
                               "zero"))
            a = _random_univar(rng, m, rng.randint(1, 3))
            if kind == "common factor":
                F = _random_univar(rng, m, rng.randint(1, 2))
                a, b = F * a, F * _random_univar(rng, m, rng.randint(1, 3))
            elif kind == "coprime":
                b = _random_univar(rng, m, rng.randint(1, 2))
                a = b * a + Poly.const(rng.choice((1, Fraction(-1, 2))))
            elif kind == "multiple":
                b = a.scale(rng.choice(_MULTIPLES if m == 3
                                       else _MULTIPLES[:5]))
            else:
                b = Poly()
            seen[kind] += 1
            for f, g in ((a, b), (b, a)):
                got = poly_gcd(f, g)
                assert got == prs_scalar.poly_gcd(f, g)
                assert got.lead()[1] == 1
                if kind == "coprime":
                    assert got == Poly.const(1)
                elif kind == "common factor":
                    assert got.degree() >= F.degree()
    assert len(seen) == 4, seen


_IMPORT_ORDER = """
import %s
from mdreps.scalar import Poly, poly_gcd
x, c = Poly.var("x"), Poly.const
print(poly_gcd((x - c(1)) * (x + c(2)), (x - c(1)) * (x + c(3))))
"""


@pytest.mark.parametrize("first", ["mdreps.upoly", "mdreps.scalar"])
def test_univariate_gcd_after_either_import_order(first):
    # scalar calls upoly's gcd, and upoly imports scalar: a fresh
    # interpreter that asks for either one first takes a univariate gcd
    # (the package's __init__ loads scalar before both)
    out = subprocess.run([sys.executable, "-c", _IMPORT_ORDER % first],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=_SRC), check=True)
    assert out.stdout.strip() == str(Poly.var("x") - Poly.const(1))


# ---------------------------------------------------------------------------
# the grlex key against the comparison it replaced

def _reference_grlex_cmp(m1, m2):
    # total degree, then lex with alphabetically-earlier names more
    # significant, missing variables counting as exponent 0
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return 1 if d1 > d2 else -1
    e1, e2 = dict(m1), dict(m2)
    for x in sorted(set(e1) | set(e2)):
        if e1.get(x, 0) != e2.get(x, 0):
            return 1 if e1.get(x, 0) > e2.get(x, 0) else -1
    return 0


_MONO_SORT = cmp_to_key(_reference_grlex_cmp)


def test_lead_and_term_order_match_the_grlex_comparison():
    rng = random.Random(13)
    names = ("a", "p", "q", "t", "x")
    for _ in range(400):
        # each monomial draws its own variables, so the sets differ
        terms = {}
        for _ in range(rng.randint(1, 8)):
            vs = rng.sample(names, rng.randint(0, 3))
            mono = tuple(sorted((x, rng.randint(1, 3)) for x in vs))
            terms[mono] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        P = Poly(terms)
        m = max(P.terms, key=_MONO_SORT)
        assert P.lead() == (m, P.terms[m])
        assert rf_to_json(RF(P))["num"] == [
            rf_to_json(RF(Poly({mono: c})))["num"][0]
            for mono, c in sorted(P.terms.items(),
                                  key=lambda mc: _MONO_SORT(mc[0]))]
