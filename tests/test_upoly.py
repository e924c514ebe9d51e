"""The univariate polynomial helpers of ``upoly`` over Q and Q(zeta_3),
against the loops they replaced (kept here as oracles, and run on the
inputs as Fractions), the defining identities of division and the extended
gcd, and, when installed, sympy.  Over Q the helpers return primitive
integer lists, which the oracles' monic Fraction results are compared
with through ``_primitive``."""

import random
from collections import Counter
from fractions import Fraction

import fraction_upoly as fu
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_coefficient_rule import rule_violations
from test_structure import _minimal_polynomial_fraction

from mdreps import upoly
from mdreps.catalog import analysis_pair
from mdreps.matrix import char_poly, eigen_data
from mdreps.scalar import Cyc, InvariantError, zeta
from mdreps.structure import (algebra_dims, commutant, decompose,
                              find_idempotents, minimal_polynomial)
from mdreps.upoly import (UnsupportedSpectrum, _deflate, _is_cyc, _monic,
                          _pdivmod, _pgcd, _plcm, _pmul, _ppow, _primitive,
                          _psub, _ptrim, _pxgcd, _roots_in_tower, _sqrt,
                          _squarefree_part)


# ---------------------------------------------------------------------------
# oracles: the loops that lived in matrix.py before upoly, each quotient
# made exact by ``fu._exact``

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
            c = fu._exact(r[-1]) / b[-1]
            k = len(r) - len(b)
            for i, y in enumerate(b):
                r[i + k] -= c * y
            r.pop()
        a, b = b, trim(r or [Fraction(0)])
    if a[-1] != 0:
        a = [fu._exact(x) / a[-1] for x in a]
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
        c = fu._exact(r[-1]) / g[-1]
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


def fractions(p):
    """p with its rational entries as Fractions, the oracles' input."""
    return [c if isinstance(c, Cyc) else Fraction(c) for c in p]


def assert_matches_oracle(got, want, *inputs):
    """got is the oracle's result want on the inputs: its primitive integer
    list over Q, the same values, and no float, over Q(zeta_3)."""
    if any(_is_cyc(a) for a in inputs):
        assert got == want and _floats(got) == []
    else:
        assert typed(got) == typed(_primitive(want))


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
    assert_matches_oracle(_pgcd(a, b),
                          _frac_poly_gcd(fractions(a), fractions(b)), a, b)


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
    assert g == _monic(_pgcd(a, b)) and g[-1] == 1
    assert _add(_pmul(u, a), _pmul(v, b)) == g


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_lcm_is_divided_by_both(field, data):
    a, b = data.draw(_proper(field, 3)), data.draw(_proper(field, 3))
    m = _plcm(a, b)
    assert not any(_pdivmod(m, a)[1]) and not any(_pdivmod(m, b)[1])
    assert len(m) - 1 == len(a) + len(b) - len(_pgcd(a, b)) - 1


def test_lcm_whose_product_drops_the_cyc_entries():
    # a + b*zeta with b = 0 is the rational a, so a zero Cyc entry cannot
    # exist: Cyc(3, 0) is the int 0, the lists are over Q and their lcm is
    # the primitive integer list
    assert Cyc(3, 0) == 0 and type(Cyc(3, 0)) is int
    a, b = [Fraction(1, 2)], [Cyc(3, 0), Fraction(1)]
    assert not (_is_cyc(a) or _is_cyc(b))
    assert typed(_plcm(a, b)) == [(int, 0), (int, 1)]


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_squarefree_part_matches_the_loop_it_replaced(field, data):
    a, b = data.draw(_proper(field, 2)), data.draw(_proper(field, 2))
    p = _pmul(_ppow(a, data.draw(st.integers(1, 3))), b)
    assert_matches_oracle(_squarefree_part(p),
                          _squarefree_part_loop(fractions(p)), p)


@given(_proper("Q"), _RATS)
@settings(max_examples=150, deadline=None)
def test_deflate_matches_synthetic_division(p, root):
    f = _pmul(p, [-root, Fraction(1)])
    assert typed(_deflate(_primitive(f), root)) == \
        typed(_primitive(_deflate_synthetic(fractions(f), root)))
    g = _add(f, [Fraction(1)])
    with pytest.raises(InvariantError):
        _deflate(_primitive(g), root)
    with pytest.raises(InvariantError):
        _deflate_synthetic(fractions(g), root)


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
    assert _monic(_pgcd(a, b)) == _from_sympy(g)
    assert _monic(_squarefree_part(a)) == \
        _from_sympy(sp.sqf_part(_to_sympy(sp, x, a)))


# ---------------------------------------------------------------------------
# the integer root search against the Fraction implementation it replaced

def _oracle_roots(coeffs):
    """Counter of the Fraction implementation's roots, or the
    UnsupportedSpectrum it raises."""
    try:
        return Counter(fu._roots_in_tower(fractions(coeffs)))
    except UnsupportedSpectrum as exc:
        return exc


def _new_roots(coeffs):
    try:
        roots = _roots_in_tower(coeffs)
    except UnsupportedSpectrum as exc:
        return exc
    assert all(type(r) in (Fraction, Cyc) for r in roots)
    return Counter(roots)


def assert_roots_match_oracle(coeffs):
    want, got = _oracle_roots(coeffs), _new_roots(coeffs)
    if isinstance(want, UnsupportedSpectrum):
        assert isinstance(got, UnsupportedSpectrum), (coeffs, got)
    else:
        assert got == want, coeffs
        assert Counter(map(_key, got)) == Counter(map(_key, want))


def assert_squarefree_part_matches_oracle(coeffs):
    assert_matches_oracle(_squarefree_part(coeffs),
                          fu._squarefree_part(fractions(coeffs)), coeffs)


def _criterion_6_inputs(monkeypatch):
    """The inputs of every root search and squarefree part, the
    annihilators, which are squarefree-part inputs too, and the matrices of
    every spectrum, that the numeric criterion-6 analyses reach: the a-glue
    decompositions at n = 3 and 4 and their algebra data, the f-glue
    commutants at n = 3 and 4, and the antislash decomposition at n = 3."""
    import mdreps.matrix as matrix
    import mdreps.structure as structure
    seen = {"roots": [], "sf": [], "eigen": []}

    def recorder(fn, key):
        def record(arg, *rest):
            seen[key].append(arg)
            return fn(arg, *rest)
        return record

    def result_recorder(fn, key):
        def record(*args):
            out = fn(*args)
            seen[key].append(out)
            return out
        return record
    for mod in (matrix, structure):
        monkeypatch.setattr(mod, "_roots_in_tower",
                            recorder(_roots_in_tower, "roots"))
    monkeypatch.setattr(structure, "_squarefree_part",
                        recorder(_squarefree_part, "sf"))
    monkeypatch.setattr(structure, "_annihilator",
                        result_recorder(structure._annihilator, "sf"))
    monkeypatch.setattr(structure, "eigen_data",
                        recorder(matrix.eigen_data, "eigen"))
    agp = analysis_pair("a-glue", p=2, q=5)
    for n, seed in ((3, 99), (4, 7)):
        for s in decompose(agp, n, rng=random.Random(seed)).summands:
            algebra_dims(s["generators"])
    fgp = analysis_pair("f-glue", p=2, q=5).evaluate({"p": 2, "q": 5})
    for n in (3, 4):
        find_idempotents(commutant([M for _, M in fgp.generator_images(n)]),
                         rng=random.Random(n))
    asp = analysis_pair("antislash", z=Fraction(-1, 3), x=Fraction(-2, 3))
    decompose(asp, 3, rng=random.Random(4))
    monkeypatch.undo()
    return seen


def test_criterion_6_polynomials_match_the_fraction_oracle(monkeypatch):
    seen = _criterion_6_inputs(monkeypatch)
    assert len(seen["roots"]) >= 20 and len(seen["sf"]) >= 50
    assert len(seen["eigen"]) >= 4
    for coeffs in seen["roots"]:
        assert_roots_match_oracle(coeffs)
    for coeffs in seen["sf"]:
        assert_squarefree_part_matches_oracle(coeffs)
    for M in seen["eigen"]:
        want = Counter(fu._roots_in_tower(char_poly(M)))
        assert {lam: alg for lam, alg, _ in eigen_data(M).eigenvalues} == want
        assert minimal_polynomial(M) == _minimal_polynomial_fraction(M)


def _linear_factor_products(rng, count, size):
    """(coeffs, expected roots or None): seeded products lead * prod
    (q x - p)^k of rational linear factors with multiplicities 1..3 (1..2
    for a non-integral root, which keeps the oracle's divisor search
    short), some times cyclotomic quadratics, some times a factor that does
    not split over the tower (expected None), as Fraction lists."""
    for _ in range(count):
        roots, f = [], [Fraction(rng.choice((1, -1)) * rng.randint(1, size),
                                 rng.randint(1, size))]
        for _ in range(rng.randint(0, 4)):
            x = Fraction(rng.randint(-size, size), rng.randint(1, size))
            k = rng.randint(1, 2) if x.denominator > 1 else rng.randint(1, 3)
            f = _pmul(f, _ppow([-x.numerator, x.denominator], k))
            roots += [x] * k
        for m in rng.sample((3, 4, 6), rng.randint(0, 2)):
            quad, zs = _CYC_FACTORS[m]
            f = _pmul(f, quad)
            roots += zs
        if rng.random() < 0.2:
            f = _pmul(f, rng.choice(([-2, 0, 1], [3, 0, 1], [-2, 0, 0, 1],
                                     [1, 0, 0, 0, 1])))
            roots = None
        yield fractions(f), roots


def test_seeded_products_match_the_fraction_oracle():
    rng = random.Random(1606)
    for coeffs, roots in _linear_factor_products(rng, 250, 6):
        assert_roots_match_oracle(coeffs)
        assert_squarefree_part_matches_oracle(coeffs)
        got = _new_roots(coeffs)
        if roots is None:
            assert isinstance(got, UnsupportedSpectrum)
        else:
            assert got == Counter(roots)


def test_cyclotomic_lists_match_the_fraction_oracle():
    # over Q(zeta_m) only zero roots, the cyclotomic quadratics and a
    # linear factor are split off, and a rational root is not searched
    # for.  A root a + b*zeta_m drawn with b = 0 is rational, so some
    # products are over Q: each of those is checked as it is, where it
    # splits as any list over Q, and times x - zeta_m, a genuine
    # cyclotomic list.  A list that does not raise has as many roots as
    # its degree
    rng = random.Random(1607)
    seen = Counter()
    for _ in range(200):
        m = rng.choice((3, 4, 6))
        f = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
             for _ in range(rng.randint(1, 3))]
        if not any(f):
            f = [Fraction(1)]
        for _ in range(rng.randint(0, 2)):
            r = Cyc(m, rng.randint(-2, 2), rng.randint(-2, 2))
            f = fu._pmul(f, [-r, Fraction(1)])
        for _ in range(rng.randint(0, 2)):
            f = fu._pmul(f, fractions(_CYC_FACTORS[m][0]))
        f = fu._pmul(f, [Fraction(0)] * rng.randint(0, 1) + [Fraction(1)])
        for g in [f] if _is_cyc(f) else [f, fu._pmul(f, [-zeta(m), 1])]:
            assert_roots_match_oracle(g)
            got = _new_roots(g)
            split = not isinstance(got, UnsupportedSpectrum)
            if split:
                assert sum(got.values()) == len(_ptrim(g)) - 1, g
            if g[-1]:
                assert_squarefree_part_matches_oracle(g)
            seen["cyc" if _is_cyc(g) else "Q", split] += 1
    assert seen == {("Q", True): 67, ("Q", False): 21,
                    ("cyc", True): 55, ("cyc", False): 145}


def _large_products(rng, count):
    """(coeffs, roots or None) with coefficients of 39 to 64 bits whose
    leading and lowest coefficients exceed 10^12, the Fraction root
    search's cap."""
    while count:
        f, roots = [1], []
        for _ in range(rng.randint(2, 5)):
            x = Fraction(rng.choice((1, -1)) * rng.randint(2, 2 ** 16),
                         rng.randint(1, 2 ** 12))
            f = _pmul(f, [-x.numerator, x.denominator])
            roots.append(x)
        if rng.random() < 0.25:
            f = _pmul(f, [1, 1, 1])
            roots += _CYC_FACTORS[3][1]
        if rng.random() < 0.25:
            f = _pmul(f, [-rng.randint(2, 2 ** 20) * 2 - 1, 0, 2])
            roots = None
        f = _primitive(f)
        bits = max(abs(c).bit_length() for c in f)
        if 39 <= bits <= 64 and min(abs(f[0]), f[-1]) > 10 ** 12:
            count -= 1
            yield f, roots


def test_large_coefficients_have_their_roots():
    for f, roots in _large_products(random.Random(1608), 60):
        with pytest.raises(UnsupportedSpectrum, match="too large"):
            fu._roots_in_tower(fractions(f))
        got = _new_roots(f)
        if roots is None:
            assert isinstance(got, UnsupportedSpectrum)
        else:
            assert got == Counter(roots)
        assert_squarefree_part_matches_oracle(f)


def test_large_root_search_is_bounded_by_a_count(monkeypatch):
    # a degree-8 polynomial with 64-bit coefficients: one Horner test per
    # residue and per division, each lift no longer than the bound needs
    f, roots = [1], []
    for p, q in ((251, 127), (-241, 113), (239, 109), (-233, 107),
                 (229, 103), (-227, 101), (223, 97), (-211, 89)):
        f = _pmul(f, [-p, q])
        roots.append(Fraction(p, q))
    assert max(abs(c).bit_length() for c in f) == 63
    with pytest.raises(UnsupportedSpectrum, match="too large"):
        fu._roots_in_tower(fractions(f))
    horner, lifts = [], []
    qhorner, lift = upoly._qhorner, upoly._lift

    def counted_horner(*args):
        horner.append(args)
        return qhorner(*args)

    def counted_lift(f, df, r, p, bound):
        out = lift(f, df, r, p, bound)
        lifts.append((p, bound, out[1]))
        return out
    monkeypatch.setattr(upoly, "_qhorner", counted_horner)
    monkeypatch.setattr(upoly, "_lift", counted_lift)
    assert Counter(_roots_in_tower(f)) == Counter(roots)
    assert len(lifts) <= 8 and len(horner) <= 3 * 8
    for p, bound, M in lifts:
        assert p < 100 and bound < M <= bound * bound


# each upoly function on integer and on Fraction lists
_NO_FLOAT_CALLS = [
    ("_psub", ([1, 2], [3, 4, 5])), ("_pmul", ([-2, 1], [2, 1])),
    ("_ppow", ([-1, 2], 3)), ("_pdivmod", ([-4, 0, 1], [-2, 1])),
    ("_pdivmod", ([1, 0, 1], [1, 2])), ("_pgcd", ([4, -4, 1], [-2, 1])),
    ("_pxgcd", ([-1, 2], [1, 3])), ("_plcm", ([2, -3, 1], [-1, 1])),
    ("_squarefree_part", ([4, -4, 1],)), ("_squarefree_part", ([2, 1],)),
    ("_roots_in_tower", ([2, -3, 1],)), ("_roots_in_tower", ([4, 0, -9],)),
    ("_roots_in_tower", ([1, 0, 1],)), ("_roots_in_tower", ([0, 3, 2],)),
]


def _floats(x):
    if isinstance(x, (list, tuple)):
        return [y for z in x for y in _floats(z)]
    if isinstance(x, Counter):
        return _floats(list(x))
    if isinstance(x, Cyc):
        return _floats([x.a, x.b])
    return [x] if isinstance(x, float) else []


@pytest.mark.parametrize("name, args", _NO_FLOAT_CALLS)
@pytest.mark.parametrize("kind", ("int", "Fraction"))
def test_no_upoly_function_returns_a_float(name, args, kind):
    if kind == "Fraction":
        args = tuple(fractions(a) if isinstance(a, list) else a
                     for a in args)
    out = getattr(upoly, name)(*args)
    assert _floats(out) == []
    if name != "_roots_in_tower":
        assert rule_violations(out) == []
