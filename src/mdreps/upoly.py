"""Univariate polynomials over the scalar tower, as dense ascending
coefficient lists ``[c_0, c_1, .., c_n]``.

A polynomial over Q runs as a primitive integer list: integer coefficients
of content 1 and a positive leading coefficient, the one such multiple of
its rational coefficients (``_primitive``).  Its gcd (a pseudo-remainder
sequence, the content divided out at each step), squarefree part, lcm and
exact quotients (``divmod`` on each leading coefficient) stay primitive
integer lists.  A list with a ``Cyc`` entry, whose zeta part is never 0,
is a polynomial over Q(zeta_m) and keeps field arithmetic; a list whose
values are all rational is over Q, however it was computed.  Every
quotient is exact under the coefficient rule (an int when integral, else
a Fraction; never a float).

Rational roots come from one modular search, with no bound on the size of
the coefficients: the roots of the squarefree part modulo the first prime
from 31 up that does not divide its leading coefficient and at which each
of those roots is simple, each Hensel-lifted past 2 |lead| |low|, read
back as the rational s / lead for the residue s of lead * root, and kept
when the integer Horner value q^n f(p/q) is 0.  Each root found is divided
out of the polynomial as often as it divides.  Then come every cyclotomic
quadratic factor and, over Q(zeta_m), a last linear factor.  Roots are
Fractions and Cycs.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .scalar import _CYC_PQ, Cyc, InvariantError, _coeff, _div


class UnsupportedSpectrum(Exception):
    """Characteristic polynomial has a factor outside the scalar tower."""

    def __init__(self, factor):
        self.factor = factor
        super().__init__("unsupported spectrum factor: %s" % (factor,))


def _clear(fracs):
    """(ints, D): a list of rationals as integers over one positive
    denominator D, the lcm of theirs."""
    D = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (D // x.denominator) for x in fracs], D


def _is_cyc(a):
    """True iff some coefficient of a is not rational."""
    return any(type(c) is Cyc for c in a)


def _primitive(a):
    """The primitive integer list of the rational list a: integer
    coefficients of content 1 and a positive leading coefficient ([0] for
    zero)."""
    a = _ptrim(a)
    if not all(type(c) is int for c in a):
        a = _clear(a)[0]
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g in (0, 1) else [c // g for c in a]


def _monic(a):
    """a / lead(a), its rational entries as Fractions: the form in which
    ``char_poly`` and ``minimal_polynomial`` return a polynomial."""
    lc = a[-1]
    return [c / lc if type(c) is Cyc else Fraction(c) / lc for c in a]


# ---------------------------------------------------------------------------
# arithmetic

def _ptrim(a):
    """a without zero leading coefficients, keeping at least one entry."""
    n = len(a)
    while n > 1 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _rule(a):
    return [c if type(c) is int else _coeff(c) for c in a]


def _fdiv(n, d):
    """The exact field quotient n / d: over Q under the coefficient rule."""
    return n / d if type(n) is Cyc or type(d) is Cyc else _div(n, d)


def _psub(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _ptrim(_rule(out))


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(_rule(out))


def _ppow(p, k):
    out = [1]
    for _ in range(k):
        out = _pmul(out, p)
    return out


def _pdivmod(a, b):
    """(q, r) with a = q*b + r and deg r < deg b, by long division over
    the field of the coefficients with one inverse of lead(b); b must have
    a nonzero leading coefficient."""
    a, m = list(a), len(b) - 1
    inv = _fdiv(1, b[-1])
    q = [0] * max(1, len(a) - m)
    while len(a) > m:
        c = a.pop()
        if c != 0:
            k = len(a) - m
            c = q[k] = c * inv
            for i in range(m):
                a[i + k] -= c * b[i]
    return _ptrim(_rule(q)), _ptrim(_rule(a or [0]))


def _pexquo(a, b):
    """a / b for integer lists when b divides a, else None.  b must be
    primitive, so that a quotient in Q[x] is integral (Gauss's lemma):
    every step divides a leading coefficient by lead(b) with ``divmod``,
    and the first that leaves a remainder ends the division."""
    m = len(b) - 1
    n = len(a) - 1 - m
    if n < 0:
        return None if any(a) else [0]
    a, lb = list(a), b[-1]
    q = [0] * (n + 1)
    for k in range(n, -1, -1):
        x = a[k + m]
        if x:
            c, r = divmod(x, lb)
            if r:
                return None
            q[k] = c
            for i in range(m):
                a[k + i] -= c * b[i]
    return None if any(a[:m]) else q


def _pquo(a, b):
    """a / b when b divides a, else None: by ``_pexquo`` on integer lists,
    else by field division."""
    if all(type(c) is int for c in a) and all(type(c) is int for c in b):
        return _pexquo(a, b)
    q, r = _pdivmod(a, b)
    return None if any(r) else q


def _prem(a, b):
    """A nonzero integer multiple of the remainder of the integer list a
    by b: each step takes s*a - t*x^k*b, with s/t = lead(b)/lead(a) in
    lowest terms, which cancels the leading term."""
    a, lb, m = list(a), b[-1], len(b) - 1
    while len(a) > m:
        x = a.pop()
        if x:
            g = gcd(x, lb)
            s, t, k = lb // g, x // g, len(a) - m
            if s != 1:
                a = [s * y for y in a]
            for i in range(m):
                a[k + i] -= t * b[i]
    return _ptrim(a or [0])


def _zgcd(a, b):
    """The primitive gcd of primitive integer lists, by the primitive
    pseudo-remainder sequence."""
    while any(b):
        a, b = b, _primitive(_prem(a, b))
    return a


def _pgcd(a, b):
    """The gcd: primitive over Q, monic over Q(zeta_m); a zero gcd stays
    zero."""
    a, b = _ptrim(a), _ptrim(b)
    if not (_is_cyc(a) or _is_cyc(b)):
        return _zgcd(_primitive(a), _primitive(b))
    while any(b):
        a, b = b, _pdivmod(a, b)[1]
    if a[-1] == 0:
        return a
    inv = _fdiv(1, a[-1])
    return _rule([x * inv for x in a])


def _pxgcd(a, b):
    """(u, v, g) with u*a + v*b = g, the monic gcd (assumed nonzero)."""
    r0, r1 = _ptrim(a), _ptrim(b)
    s0, s1 = [1], [0]
    t0, t1 = [0], [1]
    while any(r1):
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1))
        t0, t1 = t1, _psub(t0, _pmul(q, t1))
    lc = r0[-1]
    return ([_fdiv(x, lc) for x in s0], [_fdiv(x, lc) for x in t0],
            [_fdiv(x, lc) for x in r0])


def _plcm(a, b):
    """The lcm: primitive over Q, a*b / gcd over Q(zeta_m)."""
    if not (_is_cyc(a) or _is_cyc(b)):
        a, b = _primitive(a), _primitive(b)
    q = _pquo(_pmul(a, b), _pgcd(a, b))
    if q is None:
        raise InvariantError("gcd does not divide the product")
    return q


def _squarefree_part(coeffs):
    """coeffs / gcd(coeffs, coeffs'): the same roots, each once; primitive
    over Q.  coeffs must have a nonzero leading coefficient."""
    if not _is_cyc(coeffs):
        coeffs = _primitive(coeffs)
    deriv = [c * k for k, c in enumerate(coeffs)][1:]
    if not any(deriv):
        return coeffs
    g = _pgcd(coeffs, deriv)
    if len(g) == 1:
        return coeffs
    q = _pquo(coeffs, g)
    if q is None:
        raise InvariantError("gcd does not divide the polynomial")
    return q


def _sqrt(v):
    """The square root of a rational v >= 0 when it is rational, else None;
    an int for an int v."""
    n, d = isqrt(v.numerator), isqrt(v.denominator)
    if n * n != v.numerator or d * d != v.denominator:
        return None
    return Fraction(n, d) if isinstance(v, Fraction) else n


# ---------------------------------------------------------------------------
# rational roots: one modular search

_FIRST_PRIME = 31


def _horner_mod(a, x, m):
    """a(x) mod m."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def _qhorner(a, p, q):
    """q^n a(p/q) for the integer list a of degree n: zero iff p/q is a
    root."""
    acc, qk = a[-1], 1
    for c in reversed(a[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc


def _deflate(a, root):
    """a / (q x - p) for the rational root = p/q of the integer list a,
    which must divide exactly."""
    quo = _pexquo(a, [-root.numerator, root.denominator])
    if quo is None:
        raise InvariantError("%s is not a root of %s" % (root, a))
    return quo


def _split_prime(f, df):
    """(p, roots): the first prime p >= 31 that does not divide lead(f)
    and at which no root of f mod p is a root of its derivative df, with
    those roots.  Each rational root of f reduces to one of them, and two
    never reduce to the same one."""
    p = _FIRST_PRIME
    while True:
        if f[-1] % p:
            fp, dp = [c % p for c in f], [c % p for c in df]
            roots = [r for r in range(p) if not _horner_mod(fp, r, p)]
            if all(_horner_mod(dp, r, p) for r in roots):
                return p, roots
        p += 2
        while any(p % k == 0 for k in range(3, isqrt(p) + 1, 2)):
            p += 2


def _lift(f, df, r, p, bound):
    """(r, M): the simple root r of f mod p lifted by Newton's iteration
    to a root mod M = p^(2^k) > bound."""
    M = p
    while M <= bound:
        M *= M
        r = (r - _horner_mod(f, r, M) * pow(_horner_mod(df, r, M), -1, M)) % M
    return r, M


def _reconstruct(r, M, lead):
    """The rational whose denominator divides lead and which is r mod M:
    s / lead for the residue s of lead * r in (-M/2, M/2]."""
    s = lead * r % M
    return Fraction(s - M if 2 * s > M else s, lead)


def _modular_roots(f):
    """The rational roots of the squarefree primitive integer list f with
    f(0) != 0, ascending, as Fractions.  A root p/q has p | f(0) and
    q | lead(f), so lead * p/q is an integer of size at most |lead f(0)|,
    which a lift past twice that bound determines."""
    lead = f[-1]
    df = [c * k for k, c in enumerate(f)][1:]
    p, residues = _split_prime(f, df)
    bound = 2 * abs(lead * f[0])
    roots = []
    for r in residues:
        r, M = _lift(f, df, r, p, bound)
        x = _reconstruct(r, M, lead)
        if (x.denominator * r - x.numerator) % M:
            raise InvariantError("rational reconstruction of %d mod %d gave "
                                 "%s" % (r, M, x))
        if not _qhorner(f, x.numerator, x.denominator):
            roots.append(x)
    return sorted(roots)


# ---------------------------------------------------------------------------
# roots in the scalar tower

# quadratics x^2 + bx + c whose roots are supported cyclotomics
_CYC_QUADS = {(1, 1): 3, (0, 1): 4, (-1, 1): 6}


def _roots_in_tower(coeffs):
    """All roots, with multiplicity, of an ascending-coefficient polynomial
    over the tower, as Fractions/Cycs; raises UnsupportedSpectrum if it
    does not split over the tower.  Over Q(zeta_m) only the cyclotomic
    quadratics and a linear factor are split off."""
    coeffs = _ptrim(coeffs)
    roots = []
    # strip zero roots
    while len(coeffs) > 1 and coeffs[0] == 0:
        roots.append(Fraction(0))
        coeffs = coeffs[1:]
    if not _is_cyc(coeffs) and len(coeffs) > 1:
        coeffs = _primitive(coeffs)
        # the roots of the squarefree part, each divided out of the
        # polynomial as often as it divides
        for x in _modular_roots(_squarefree_part(coeffs)):
            while not _qhorner(coeffs, x.numerator, x.denominator):
                roots.append(x)
                coeffs = _deflate(coeffs, x)
    # split off the cyclotomic quadratics, each as often as it divides
    for (b, c), m in _CYC_QUADS.items():
        while len(coeffs) >= 3:
            quo = _pquo(coeffs, [c, b, 1])
            if quo is None:
                break
            roots += [Cyc(m, 0, 1), Cyc(m, -_CYC_PQ[m][0], -1)]
            coeffs = quo
    # over Q no linear factor is left, its root being rational; over
    # Q(zeta_m) no quadratic left splits over the tower.  A rational root
    # is a Fraction, as every other one
    if len(coeffs) == 2:
        r = _fdiv(-coeffs[0], coeffs[1])
        roots.append(r if type(r) is Cyc else Fraction(r))
    if len(coeffs) == 3:
        a0, a1, a2 = coeffs
        raise UnsupportedSpectrum("x^2 + (%s)x + (%s)"
                                  % (_fdiv(a1, a2), _fdiv(a0, a2)))
    if len(coeffs) > 3:
        raise UnsupportedSpectrum("degree-%d factor %s"
                                  % (len(coeffs) - 1, coeffs))
    return roots
