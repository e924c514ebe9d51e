"""The Fraction implementation of ``mdreps.upoly`` that the integer one
replaced, kept as the oracle of the differential tests: monic Fraction
gcds, squarefree parts and quotients, and roots from the candidates of the
rational root theorem (which refuses coefficients above 10^12), then every
cyclotomic quadratic factor, then a last quadratic.

It is unchanged but for three points.  It raises the package's
UnsupportedSpectrum.  ``_exact`` keeps each quotient exact: a Cyc sum or
product whose zeta part is 0 is a rational, an int when integral.  For the
same reason the squarefree part of a list over Q(zeta_m) may be a list
over Q, so the roots of the squarefree part are hunted only when the input
itself is over Q; over Q(zeta_m) no rational root is searched for.
"""

from fractions import Fraction
from math import isqrt, lcm

from mdreps.scalar import _CYC_PQ, Cyc, InvariantError
from mdreps.upoly import UnsupportedSpectrum


def _clear(fracs):
    """(ints, D): a list of rationals as integers over one positive
    denominator D, the lcm of theirs."""
    D = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (D // x.denominator) for x in fracs], D


# ---------------------------------------------------------------------------
# arithmetic

def _exact(x):
    """x with an int as a Fraction: a Cyc sum or product whose zeta part
    is 0 is an int when integral, and int / int would be a float."""
    return Fraction(x) if type(x) is int else x


def _ptrim(a):
    """a without zero leading coefficients, keeping at least one entry."""
    n = len(a)
    while n > 1 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _psub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _ptrim(out)


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _ppow(p, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _pmul(out, p)
    return out


def _pdivmod(a, b):
    """(q, r) with a = q*b + r and deg r < deg b, by long division; b must
    have a nonzero leading coefficient."""
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - len(b)
        c = _exact(a[-1]) / b[-1]
        q[k] = c
        for i, y in enumerate(b):
            a[i + k] -= c * y
        a.pop()
    return _ptrim(q), _ptrim(a or [Fraction(0)])


def _pgcd(a, b):
    """Monic gcd by the Euclidean algorithm (a zero gcd stays zero)."""
    a, b = _ptrim(a), _ptrim(b)
    while any(b):
        a, b = b, _pdivmod(a, b)[1]
    if a[-1] != 0:
        a = [_exact(x) / a[-1] for x in a]
    return a


def _pxgcd(a, b):
    """(u, v, g) with u*a + v*b = g, the monic gcd (assumed nonzero)."""
    r0, r1 = _ptrim(a), _ptrim(b)
    s0, s1 = [Fraction(1)], [Fraction(0)]
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1))
        t0, t1 = t1, _psub(t0, _pmul(q, t1))
    lc = r0[-1]
    return ([_exact(x) / lc for x in s0], [_exact(x) / lc for x in t0],
            [_exact(x) / lc for x in r0])


def _plcm(a, b):
    g = _pgcd(a, b)
    q, r = _pdivmod(_pmul(a, b), g)
    if any(r):
        raise InvariantError("gcd does not divide the product")
    return q


def _poly_eval(coeffs, x):
    """coeffs(x) by Horner's rule."""
    acc = 0 * x if isinstance(x, Cyc) else Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs, root):
    """coeffs / (x - root), which must divide exactly."""
    q, r = _pdivmod(coeffs, [-root, Fraction(1)])
    if any(r):
        raise InvariantError("%s is not a root: remainder %s" % (root, r[0]))
    return q


def _squarefree_part(coeffs):
    """coeffs / gcd(coeffs, coeffs'): the same roots, each once; coeffs must
    have a nonzero leading coefficient."""
    deriv = [c * k for k, c in enumerate(coeffs)][1:]
    if not any(deriv):
        return coeffs
    g = _pgcd(coeffs, deriv)
    if len(g) == 1:
        return coeffs
    return _pdivmod(coeffs, g)[0]


def _sqrt(v):
    """The square root of a rational v >= 0 when it is rational, else None;
    an int for an int v."""
    n, d = isqrt(v.numerator), isqrt(v.denominator)
    if n * n != v.numerator or d * d != v.denominator:
        return None
    return Fraction(n, d) if isinstance(v, Fraction) else n


# ---------------------------------------------------------------------------
# roots in the scalar tower

def _divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _rational_root_candidates(coeffs, cap=10 ** 12):
    """Every +-p/q with p dividing the lowest and q the leading nonzero
    coefficient of the cleared polynomial, and 0; none over Q(zeta_m)."""
    if not any(coeffs) or any(isinstance(c, Cyc) for c in coeffs):
        return []
    ints, _ = _clear(coeffs)
    lead = next(c for c in reversed(ints) if c)
    low = next(c for c in ints if c)
    if abs(low) > cap or abs(lead) > cap:
        raise UnsupportedSpectrum("coefficients too large for root search")
    cands = set()
    for pp in _divisors(abs(low)):
        for qq in _divisors(abs(lead)):
            cands.add(Fraction(pp, qq))
            cands.add(Fraction(-pp, qq))
    cands.add(Fraction(0))
    return sorted(cands)


# quadratics x^2 + bx + c whose roots are supported cyclotomics
_CYC_QUADS = {(Fraction(1), Fraction(1)): 3, (Fraction(0), Fraction(1)): 4,
              (Fraction(-1), Fraction(1)): 6}


def _roots_in_tower(coeffs):
    """All roots, with multiplicity, of an ascending-coefficient polynomial
    over Q, as Fractions/Cycs; raises UnsupportedSpectrum if it does not split
    over the tower."""
    coeffs = _ptrim(coeffs)
    roots = []
    # strip zero roots
    while len(coeffs) > 1 and coeffs[0] == 0:
        roots.append(Fraction(0))
        coeffs = coeffs[1:]
    if len(coeffs) > 3 and not any(isinstance(c, Cyc) for c in coeffs):
        # hunt roots on the squarefree part (much smaller coefficients),
        # then recover multiplicities by deflating the original
        sf = _squarefree_part(coeffs)
        for cand in _rational_root_candidates(sf):
            if _poly_eval(sf, cand) == 0:
                while len(coeffs) > 1 and _poly_eval(coeffs, cand) == 0:
                    roots.append(cand)
                    coeffs = _deflate(coeffs, cand)
    changed = True
    while changed and len(coeffs) > 2:
        changed = False
        for cand in _rational_root_candidates(coeffs):
            while len(coeffs) > 1 and _poly_eval(coeffs, cand) == 0:
                roots.append(cand)
                coeffs = _deflate(coeffs, cand)
                changed = True
            if len(coeffs) <= 2:
                break
    # split off the cyclotomic quadratics, each as often as it divides,
    # then a linear factor left before or after them
    for (b, c), m in _CYC_QUADS.items():
        while len(coeffs) >= 3:
            quo, rem = _pdivmod(coeffs, [c, b, Fraction(1)])
            if any(rem):
                break
            roots += [Cyc(m, 0, 1), Cyc(m, -_CYC_PQ[m][0], -1)]
            coeffs = quo
    if len(coeffs) == 2:
        roots.append(-_exact(coeffs[0]) / coeffs[1])
        coeffs = coeffs[1:]
    if len(coeffs) == 3:
        a2, a1, a0 = coeffs[2], coeffs[1], coeffs[0]
        b, c = _exact(a1) / a2, _exact(a0) / a2
        disc = b * b - 4 * c
        s = _sqrt(disc) if isinstance(disc, Fraction) and disc >= 0 else None
        if s is None:
            raise UnsupportedSpectrum("x^2 + (%s)x + (%s)" % (b, c))
        roots.append((-b + s) / 2)
        roots.append((-b - s) / 2)
        coeffs = coeffs[2:]
    if len(coeffs) > 3:
        raise UnsupportedSpectrum("degree-%d factor %s" % (len(coeffs) - 1, coeffs))
    return roots
