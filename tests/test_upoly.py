"""The univariate polynomial helpers of ``upoly`` over Q and Q(zeta_3),
against the loops they replaced (kept here as oracles), the defining
identities of division and the extended gcd, and, when installed, sympy."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdreps.scalar import Cyc, InvariantError
from mdreps.upoly import (UnsupportedSpectrum, _deflate, _pdivmod, _pgcd,
                          _plcm, _pmul, _ppow, _psub, _ptrim, _pxgcd,
                          _roots_in_tower, _sqrt, _squarefree_part)


# ---------------------------------------------------------------------------
# oracles: the loops that lived in matrix.py before upoly

def _frac_poly_gcd(a, b):
    a, b = list(a), list(b)

    def trim(p):
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        return p
    a, b = trim(a), trim(b)
    while any(b):
        # remainder of a by b
        r = list(a)
        while len(r) >= len(b) and any(r):
            if r[-1] == 0:
                r.pop()
                continue
            c = r[-1] / b[-1]
            k = len(r) - len(b)
            for i, y in enumerate(b):
                r[i + k] -= c * y
            r.pop()
        a, b = b, trim(r or [Fraction(0)])
    if a[-1] != 0:
        a = [x / a[-1] for x in a]
    return a


def _squarefree_part_loop(coeffs):
    deriv = [c * k for k, c in enumerate(coeffs)][1:]
    if not any(deriv):
        return coeffs
    g = _frac_poly_gcd(coeffs, deriv)
    if len(g) == 1:
        return coeffs
    # exact division coeffs / g
    q = []
    r = list(coeffs)
    while len(r) >= len(g) and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        c = r[-1] / g[-1]
        k = len(r) - len(g)
        q.append((k, c))
        for i, y in enumerate(g):
            r[i + k] -= c * y
        r.pop()
    out = [Fraction(0)] * (len(coeffs) - len(g) + 1)
    for k, c in q:
        out[k] = c
    return out


def _deflate_synthetic(coeffs, root):
    n = len(coeffs) - 1
    out = [None] * n
    carry = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + carry * root
    if carry != 0:
        raise InvariantError("%s is not a root: remainder %s" % (root, carry))
    return out


# ---------------------------------------------------------------------------
# strategies

_RATS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3)))
_ZETA3 = st.builds(lambda a, b: Cyc(3, a, b), _RATS, _RATS)
_FIELDS = {"Q": _RATS, "Q(zeta_3)": st.one_of(_ZETA3, _RATS)}


def _polys(field, max_deg=4):
    return st.lists(_FIELDS[field], min_size=1, max_size=max_deg + 1)


def _proper(field, max_deg=4):
    """Polynomials with a nonzero leading coefficient."""
    return _polys(field, max_deg).map(_ptrim).filter(lambda p: p[-1] != 0)


def typed(p):
    return [(type(c), c) for c in p]


def _add(a, b):
    return _psub(a, [-x for x in b])


FIELDS = sorted(_FIELDS)


# ---------------------------------------------------------------------------
# arithmetic against oracles and identities

@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_gcd_matches_the_loop_it_replaced(field, data):
    # a common factor c makes the gcd nontrivial
    c = data.draw(_proper(field, 2))
    a = _pmul(data.draw(_polys(field)), c)
    b = _pmul(data.draw(_polys(field)), c)
    assert typed(_pgcd(a, b)) == typed(_frac_poly_gcd(a, b))


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_divmod_identity(field, data):
    a, b = data.draw(_polys(field, 6)), data.draw(_proper(field))
    q, r = _pdivmod(a, b)
    assert _add(_pmul(q, b), r) == _ptrim(a)
    assert not any(r) or len(r) < len(b)


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_xgcd_bezout(field, data):
    c = data.draw(_proper(field, 2))
    a = _pmul(data.draw(_polys(field)), c)
    b = _pmul(data.draw(_polys(field)), c)
    assume(any(a) or any(b))
    u, v, g = _pxgcd(a, b)
    assert g == _pgcd(a, b) and g[-1] == 1
    assert _add(_pmul(u, a), _pmul(v, b)) == g


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_lcm_is_divided_by_both(field, data):
    a, b = data.draw(_proper(field, 3)), data.draw(_proper(field, 3))
    m = _plcm(a, b)
    assert not any(_pdivmod(m, a)[1]) and not any(_pdivmod(m, b)[1])
    assert len(m) - 1 == len(a) + len(b) - len(_pgcd(a, b)) - 1


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_squarefree_part_matches_the_loop_it_replaced(field, data):
    a, b = data.draw(_proper(field, 2)), data.draw(_proper(field, 2))
    p = _pmul(_ppow(a, data.draw(st.integers(1, 3))), b)
    assert typed(_squarefree_part(p)) == typed(_squarefree_part_loop(p))


@given(_proper("Q"), _RATS)
@settings(max_examples=150, deadline=None)
def test_deflate_matches_synthetic_division(p, root):
    f = _pmul(p, [-root, Fraction(1)])
    assert typed(_deflate(f, root)) == typed(_deflate_synthetic(f, root))
    g = _add(f, [Fraction(1)])
    with pytest.raises(InvariantError):
        _deflate(g, root)
    with pytest.raises(InvariantError):
        _deflate_synthetic(g, root)


def test_sqrt():
    assert _sqrt(49) == 7 and type(_sqrt(49)) is int
    assert _sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert type(_sqrt(Fraction(4))) is Fraction
    assert _sqrt(0) == 0
    assert _sqrt(2) is None and _sqrt(Fraction(4, 3)) is None


# ---------------------------------------------------------------------------
# roots in the scalar tower

# the cyclotomic quadratic x^2 + bx + 1 of zeta_m and its two roots
_CYC_FACTORS = {3: ([1, 1, 1], (Cyc(3, 0, 1), Cyc(3, -1, -1))),
                4: ([1, 0, 1], (Cyc(4, 0, 1), Cyc(4, 0, -1))),
                6: ([1, -1, 1], (Cyc(6, 0, 1), Cyc(6, 1, -1)))}


def _key(r):
    if isinstance(r, Cyc):
        return (1, r.m, r.a, r.b)
    assert type(r) is Fraction
    return (0, 0, r, 0)


@given(st.lists(_RATS, max_size=5), st.sampled_from((None, 3, 4, 6)),
       _RATS.filter(bool))
@settings(max_examples=200, deadline=None)
def test_roots_of_known_factors(roots, m, lead):
    p = [lead]
    for r in roots:
        p = _pmul(p, [-r, Fraction(1)])
    expected = list(roots)
    if m is not None:
        quad, zs = _CYC_FACTORS[m]
        p = _pmul(p, [Fraction(c) for c in quad])
        expected += zs
    got = _roots_in_tower(p)
    assert Counter(map(_key, got)) == Counter(map(_key, expected))


@given(st.lists(_RATS, max_size=3),
       st.lists(st.sampled_from((3, 4, 6)), min_size=2, max_size=3),
       _RATS.filter(bool))
@settings(max_examples=100, deadline=None)
def test_roots_of_several_cyclotomic_quadratics(roots, ms, lead):
    # (x^2+x+1)(x^2+1) and (x^2+x+1)^2 split: each quadratic is divided out
    # as often as it divides
    p = [lead]
    for r in roots:
        p = _pmul(p, [-r, Fraction(1)])
    expected = list(roots)
    for m in ms:
        quad, zs = _CYC_FACTORS[m]
        p = _pmul(p, [Fraction(c) for c in quad])
        expected += zs
    got = _roots_in_tower(p)
    assert Counter(map(_key, got)) == Counter(map(_key, expected))


def test_x4_plus_x2_plus_1_splits():
    # (x^2+x+1)(x^2-x+1): the primitive 3rd and 6th roots of unity
    got = _roots_in_tower([Fraction(c) for c in (1, 0, 1, 0, 1)])
    assert Counter(map(_key, got)) == Counter(
        map(_key, _CYC_FACTORS[3][1] + _CYC_FACTORS[6][1]))


def test_roots_outside_the_tower_are_unsupported():
    # x^4 + 1 has the primitive 8th roots of unity
    for p in ([-2, 0, 1], [1, 0, 0, 0, 1], [-2, 0, 0, 1]):
        with pytest.raises(UnsupportedSpectrum):
            _roots_in_tower([Fraction(c) for c in p])


# ---------------------------------------------------------------------------
# sympy cross-check over Q

def _to_sympy(sp, x, p):
    return sp.Poly(list(reversed(p)), x, domain="QQ")


def _from_sympy(P):
    return [Fraction(int(c.p), int(c.q))
            for c in reversed(P.monic().all_coeffs())]


@given(_polys("Q"), _polys("Q"), _proper("Q", 2), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_gcd_and_squarefree_part_agree_with_sympy(a, b, c, k):
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    a, b = _pmul(a, _ppow(c, k)), _pmul(b, c)
    assume(any(a) and any(b))
    g = sp.gcd(_to_sympy(sp, x, a), _to_sympy(sp, x, b))
    assert _pgcd(a, b) == _from_sympy(g)
    sf = _squarefree_part(a)
    assert [y / sf[-1] for y in sf] == \
        _from_sympy(sp.sqf_part(_to_sympy(sp, x, a)))
