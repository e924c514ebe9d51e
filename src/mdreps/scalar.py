"""Exact scalar tower: rationals, small cyclotomic extensions, multivariate
polynomials and rational functions with canonical forms.

Everything here is immutable and exact; there is no floating point anywhere.
Rational functions are kept reduced (numerator/denominator coprime, denominator
with leading coefficient 1 under graded-lex on alphabetically sorted names).
"""

from fractions import Fraction
from functools import cmp_to_key


class RejectedPoint(Exception):
    """An evaluation point zeroes a denominator or a declared constraint."""


class BranchAmbiguity(Exception):
    """A pivot decision depends on a polynomial not covered by the declared
    non-vanishing constraints; the caller must split the variety."""

    def __init__(self, poly):
        self.poly = poly
        super().__init__("pivot decision depends on: %s" % (poly,))


# ---------------------------------------------------------------------------
# cyclotomic numbers

# minimal polynomials x^2 + P x + Q of zeta_m for the supported m with phi(m)=2
_CYC_PQ = {3: (1, 1), 4: (0, 1), 6: (-1, 1)}
SUPPORTED_CYC = (1, 2, 3, 4, 6)


class Cyc:
    """Element a + b*zeta_m of Q(zeta_m), m in {3, 4, 6}.

    For m in {1, 2} use plain Fractions (zeta is rational there).
    """

    __slots__ = ("m", "a", "b")

    def __init__(self, m, a, b=0):
        if m not in _CYC_PQ:
            raise ValueError("unsupported cyclotomic order: %r" % (m,))
        self.m = m
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.m != self.m:
                if other.b == 0:
                    return Cyc(self.m, other.a)
                if self.b == 0:
                    return None  # handled by caller swapping
                raise ValueError("mixed cyclotomic orders %d and %d" % (self.m, other.m))
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc(self.m, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.m, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.m, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.m, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q = _CYC_PQ[self.m]
        # (a1 + b1 z)(a2 + b2 z) with z^2 = -p z - q
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        zz = b1 * b2
        return Cyc(self.m, a1 * a2 - q * zz, a1 * b2 + b1 * a2 - p * zz)

    __rmul__ = __mul__

    def inverse(self):
        p, q = _CYC_PQ[self.m]
        a, b = self.a, self.b
        norm = a * a - a * b * p + b * b * q
        if norm == 0:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        return Cyc(self.m, (a - b * p) / norm, -b / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, Cyc):
            if other.m != self.m:
                return self.b == 0 and other.b == 0 and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.m, self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc(self.m, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return "(%s + %s*z%d)" % (self.a, self.b, self.m)


def zeta(m):
    """Primitive m-th root of unity in the tower (m in 1,2,3,4,6)."""
    if m == 1:
        return Fraction(1)
    if m == 2:
        return Fraction(-1)
    return Cyc(m, 0, 1)


def unity_order(v, bound=12):
    """Multiplicative order of a base-field element if it is a root of unity
    with order <= bound, else None."""
    if v == 0:
        return None
    acc = v
    for k in range(1, bound + 1):
        if acc == 1:
            return k
        acc = acc * v
    return None


def _inv(coeff):
    if isinstance(coeff, Cyc):
        return coeff.inverse()
    return 1 / Fraction(coeff)


# ---------------------------------------------------------------------------
# multivariate polynomials

# A monomial is a tuple of (name, exponent) pairs, sorted by name, exps > 0.
_ONE = ()


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for x, e in m2:
        d[x] = d.get(x, 0) + e
    return tuple(sorted((x, e) for x, e in d.items() if e))


def _mono_deg(m):
    return sum(e for _, e in m)


def _mono_cmp_lex(m1, m2):
    # lex with alphabetically-earlier names more significant; missing
    # variables count as exponent 0
    d1, d2 = dict(m1), dict(m2)
    for x in sorted(set(d1) | set(d2)):
        e1, e2 = d1.get(x, 0), d2.get(x, 0)
        if e1 != e2:
            return 1 if e1 > e2 else -1
    return 0


def _mono_grlex_cmp(m1, m2):
    d1, d2 = _mono_deg(m1), _mono_deg(m2)
    if d1 != d2:
        return 1 if d1 > d2 else -1
    return _mono_cmp_lex(m1, m2)


_MONO_SORT = cmp_to_key(_mono_grlex_cmp)


def _mono_divides(m1, m2):
    d2 = dict(m2)
    return all(d2.get(x, 0) >= e for x, e in m1)


def _mono_div(m1, m2):
    # m1 / m2, assuming divisibility
    d = dict(m1)
    for x, e in m2:
        d[x] -= e
    return tuple(sorted((x, e) for x, e in d.items() if e))


class Poly:
    """Multivariate polynomial: dict {monomial: coefficient}, coefficients
    Fraction or Cyc, zero coefficients never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None, _clean=True):
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = {}
            for m, c in terms.items():
                if not isinstance(c, Cyc):
                    c = Fraction(c)
                if c != 0:
                    self.terms[m] = c
        else:
            self.terms = terms

    @classmethod
    def const(cls, c):
        if not isinstance(c, Cyc):
            c = Fraction(c)
        return cls({} if c == 0 else {_ONE: c}, False)

    @classmethod
    def var(cls, name):
        return cls({((name, 1),): Fraction(1)}, False)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and _ONE in self.terms)

    def const_value(self):
        if not self.terms:
            return Fraction(0)
        return self.terms[_ONE]

    def variables(self):
        vs = set()
        for m in self.terms:
            for x, _ in m:
                vs.add(x)
        return vs

    def degree(self):
        if not self.terms:
            return 0
        return max(_mono_deg(m) for m in self.terms)

    def lead(self):
        """Leading (monomial, coeff) under graded lex."""
        m = max(self.terms, key=_MONO_SORT)
        return m, self.terms[m]

    def __add__(self, other):
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = res.get(m, 0) + c
            if v == 0:
                res.pop(m, None)
            else:
                res[m] = v
        return Poly(res, False)

    def __sub__(self, other):
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = res.get(m, 0) - c
            if v == 0:
                res.pop(m, None)
            else:
                res[m] = v
        return Poly(res, False)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()}, False)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return Poly()
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                v = res.get(m, 0) + c1 * c2
                if v == 0:
                    res.pop(m, None)
                else:
                    res[m] = v
        return Poly(res, False)

    def scale(self, c):
        if c == 0:
            return Poly()
        return Poly({m: cc * c for m, cc in self.terms.items()}, False)

    def __pow__(self, k):
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def evaluate(self, assignment):
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in m:
                if x not in assignment:
                    raise RejectedPoint("no value for parameter %r" % x)
                base = assignment[x]
                if not isinstance(base, Cyc):
                    base = Fraction(base)
                v = v * base ** e
            total = total + v
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=_MONO_SORT, reverse=True):
            c = self.terms[m]
            mono = "*".join(x if e == 1 else "%s^%d" % (x, e) for x, e in m)
            if mono:
                bits.append("%s*%s" % (c, mono) if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits)


def poly_divmod_exact(f, g):
    """Exact multivariate division f = q*g; returns q or None."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = {}
    rem = f
    gm, gc = g.lead()
    gc_inv = _inv(gc)
    while not rem.is_zero():
        rm, rc = rem.lead()
        if not _mono_divides(gm, rm):
            return None
        m = _mono_div(rm, gm)
        c = rc * gc_inv
        q[m] = q.get(m, 0) + c
        rem = rem - Poly({m: c}, False) * g
    return Poly(q)


def _poly_univar_coeffs(f, x):
    """f as dense list of Poly coefficients in variable x (index = degree)."""
    n = 0
    for m in f.terms:
        n = max(n, dict(m).get(x, 0))
    coeffs = [Poly() for _ in range(n + 1)]
    for m, c in f.terms.items():
        d = dict(m)
        e = d.pop(x, 0)
        rest = tuple(sorted(d.items()))
        coeffs[e] = coeffs[e] + Poly({rest: c}, False)
    return coeffs


def _poly_from_univar(coeffs, x):
    out = Poly()
    for e, p in enumerate(coeffs):
        if p.is_zero():
            continue
        xe = Poly({((x, e),): Fraction(1)}, False) if e else Poly.const(1)
        out = out + p * xe
    return out


def _content(coeffs):
    g = Poly()
    for c in coeffs:
        if not c.is_zero():
            g = poly_gcd(g, c)
    return g


def _rat_rescale(coeffs):
    """Divide a coefficient list through by the gcd of all its rational
    coefficients (keeps pseudo-remainder sequences from blowing up)."""
    num_gcd, den_lcm = 0, 1
    for c in coeffs:
        for v in c.terms.values():
            if isinstance(v, Cyc):
                return coeffs
            num_gcd = _int_gcd(num_gcd, abs(v.numerator))
            den_lcm = den_lcm * v.denominator // _int_gcd(den_lcm,
                                                          v.denominator)
    if num_gcd == 0:
        return coeffs
    scale = Fraction(den_lcm, num_gcd)
    if scale == 1:
        return coeffs
    return [c.scale(scale) for c in coeffs]


def _int_gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _prim(coeffs):
    cont = _content(coeffs)
    if cont.is_zero():
        return coeffs, cont
    out = [poly_divmod_exact(c, cont) for c in coeffs]
    return _rat_rescale(out), cont


def _udeg(coeffs):
    d = len(coeffs) - 1
    while d >= 0 and coeffs[d].is_zero():
        d -= 1
    return d


def _prem(f, g):
    """Pseudo-remainder of dense coefficient lists over Poly."""
    f = list(f)
    df, dg = _udeg(f), _udeg(g)
    lg = g[dg]
    while df >= dg and df >= 0:
        lf = f[df]
        f = [c * lg for c in f]
        shift = df - dg
        for i in range(dg + 1):
            f[i + shift] = f[i + shift] - lf * g[i]
        df = _udeg(f)
    return f[: max(df + 1, 1)]


def poly_gcd(f, g):
    """GCD in K[x1..xk], K the base field; result defined up to a constant
    (normalized monic in its grlex leading coefficient)."""
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    if f.is_constant() or g.is_constant():
        return Poly.const(1)
    vf, vg = f.variables(), g.variables()
    common = sorted(vf & vg)
    if not common:
        return Poly.const(1)
    x = common[0]
    if vf == {x} and vg == {x}:
        return _univar_monic_gcd(f, g, x)
    fc = _poly_univar_coeffs(f, x)
    gc = _poly_univar_coeffs(g, x)
    fp, contf = _prim(fc)
    gp, contg = _prim(gc)
    cont = poly_gcd(contf, contg)
    # primitive Euclid on the main variable
    a, b = fp, gp
    if _udeg(a) < _udeg(b):
        a, b = b, a
    while True:
        db = _udeg(b)
        if db < 0:
            g = a
            break
        if db == 0:
            return _monic(cont)
        r = _prem(a, b)
        if _udeg(r) < 0:
            g = b
            break
        r, _ = _prim(r)
        a, b = b, r
    g, _ = _prim(g)
    return _monic(cont * _poly_from_univar(g, x))


def _univar_monic_gcd(f, g, x):
    """Ordinary monic Euclid for univariate polynomials over the base field
    (no pseudo-division growth)."""
    def coeffs(p):
        n = p.degree()
        out = [0] * (n + 1)
        for m, c in p.terms.items():
            out[dict(m).get(x, 0)] = c
        return out

    def deg(a):
        d = len(a) - 1
        while d >= 0 and a[d] == 0:
            d -= 1
        return d

    a, b = coeffs(f), coeffs(g)
    if deg(a) < deg(b):
        a, b = b, a
    while True:
        db = deg(b)
        if db < 0:
            break
        inv = _inv(b[db])
        b = [v * inv for v in b]
        da = deg(a)
        while da >= db:
            lead = a[da]
            if lead != 0:
                for i in range(db + 1):
                    a[da - db + i] = a[da - db + i] - lead * b[i]
            da -= 1
        a, b = b, a
    da = deg(a)
    terms = {}
    for e in range(da + 1):
        if a[e] != 0:
            terms[((x, e),) if e else _ONE] = a[e]
    return _monic(Poly(terms))


def _monic(p):
    if p.is_zero():
        return p
    _, lc = p.lead()
    if lc == 1:
        return p
    return p.scale(_inv(lc))


# ---------------------------------------------------------------------------
# rational functions

class RF:
    """Rational function num/den in canonical form: gcd(num, den) = 1 and den
    monic under graded lex.  A reduced fraction with a monic denominator is
    unique, so equal values have equal (num, den).

    The constructor reduces through ``_reduce`` (one gcd of num and den).
    The operators keep their operands' canonical form instead of reducing
    the full result (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1):

    - ``*``: with g1 = gcd(n1, d2) and g2 = gcd(n2, d1), the result
      (n1/g1 * n2/g2) / (d1/g2 * d2/g1) is reduced, because n1/g1 is prime
      to d1 and to d2/g1, and n2/g2 is prime to d2 and to d1/g2.  Its
      denominator is a product of monic quotients of monic polynomials,
      hence monic.  With both denominators 1 the product of numerators is
      already canonical.
    - ``/``: multiplication by the inverse d2/n2, made monic by one scale.
    - ``+`` and ``-``: with both denominators 1 the sum or difference of
      the numerators is canonical.  Otherwise, with g = gcd(d1, d2),
      e1 = d1/g, e2 = d2/g and t = n1*e2 +- n2*e1, any common factor of t
      and e1*e2*g divides g (a factor of e1 is prime to n1 and to e2, so it
      does not divide t), so t/h over e1*e2*(g/h) with h = gcd(t, g) is
      reduced.  When g is 1 no gcd is taken at all.  Equal denominators
      reduce the sum or difference of the numerators through the
      constructor.
    - ``**``: powers of coprime polynomials stay coprime and powers of a
      monic polynomial stay monic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = Poly.const(1)
        if _canonical:
            self.num, self.den = num, den
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        self.num, self.den = _reduce(num, den)

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def const_value(self):
        n = self.num.const_value()
        d = self.den.const_value()
        if isinstance(n, Cyc) or isinstance(d, Cyc):
            return n * _inv(d)
        return Fraction(n) / Fraction(d)

    def __add__(self, other):
        return _henrici_add(self, rf(other), False)

    __radd__ = __add__

    def __neg__(self):
        return RF(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return _henrici_add(self, rf(other), True)

    def __rsub__(self, other):
        return _henrici_add(rf(other), self, True)

    def __mul__(self, other):
        other = rf(other)
        return _henrici_mul(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = rf(other)
        n2, d2 = other.num, other.den
        if n2.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        _, lc = n2.lead()
        if lc != 1:
            c = _inv(lc)
            n2, d2 = n2.scale(c), d2.scale(c)
        return _henrici_mul(self.num, self.den, d2, n2)

    def __rtruediv__(self, other):
        return rf(other) / self

    def inverse(self):
        return rf(1) / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return RF_ONE
        return RF(self.num ** k, self.den ** k, _canonical=True)

    def __eq__(self, other):
        if not isinstance(other, RF):
            if isinstance(other, (int, Fraction, Cyc)):
                other = rf(other)
            else:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def variables(self):
        return self.num.variables() | self.den.variables()

    def evaluate(self, assignment, constraints=None):
        if constraints is not None:
            constraints.check(assignment)
        d = self.den.evaluate(assignment)
        if d == 0:
            raise RejectedPoint("denominator vanishes: %s" % (self.den,))
        return self.num.evaluate(assignment) * _inv(d)

    def __repr__(self):
        if self.den == Poly.const(1):
            return repr(self.num)
        return "(%s)/(%s)" % (self.num, self.den)


def _cancel(a, b):
    """(a/g, b/g, g) for g = gcd(a, b); a/g and b/g are monic when a and b
    are.  No gcd is taken when either is constant."""
    if a.is_constant() or b.is_constant():
        return a, b, Poly.const(1)
    g = poly_gcd(a, b)
    if g.is_constant():
        return a, b, g
    return poly_divmod_exact(a, g), poly_divmod_exact(b, g), g


def _henrici_add(a, b, sub):
    """Canonical a - b if sub, else a + b, for canonical operands."""
    n1, d1, n2, d2 = a.num, a.den, b.num, b.den
    if n2.is_zero():
        return a
    if n1.is_zero():
        return -b if sub else b
    op = Poly.__sub__ if sub else Poly.__add__
    if d1.is_constant() and d2.is_constant():
        return RF(op(n1, n2), d1, _canonical=True)
    if d1 == d2:
        return RF(op(n1, n2), d1)
    e1, e2, g = _cancel(d1, d2)
    t = op(n1 * e2, n2 * e1)
    if t.is_zero():
        return RF_ZERO
    if g.is_constant():
        return RF(t, d1 * e2, _canonical=True)
    t, g, _ = _cancel(t, g)
    return RF(t, e1 * e2 * g, _canonical=True)


def _henrici_mul(n1, d1, n2, d2):
    """Canonical (n1/d1) * (n2/d2) for canonical operands: cross-cancel
    n1 against d2 and n2 against d1, then multiply."""
    if n1.is_zero() or n2.is_zero():
        return RF_ZERO
    n1, d2, _ = _cancel(n1, d2)
    n2, d1, _ = _cancel(n2, d1)
    if d1.is_constant():
        return RF(n1 * n2, d2, _canonical=True)
    if d2.is_constant():
        return RF(n1 * n2, d1, _canonical=True)
    return RF(n1 * n2, d1 * d2, _canonical=True)


def _reduce(num, den):
    if num.is_zero():
        return num, Poly.const(1)
    if not den.is_constant():
        g = poly_gcd(num, den)
        if not g.is_constant():
            num = poly_divmod_exact(num, g)
            den = poly_divmod_exact(den, g)
    _, lc = den.lead()
    if lc != 1:
        c = _inv(lc)
        num = num.scale(c)
        den = den.scale(c)
    return num, den


def rf(x):
    """Promote int, Fraction, Cyc, Poly, or parameter name to RF."""
    if isinstance(x, RF):
        return x
    if isinstance(x, Poly):
        return RF(x)
    if isinstance(x, str):
        return RF(Poly.var(x))
    return RF(Poly.const(x))


RF_ZERO = rf(0)
RF_ONE = rf(1)


def param(name):
    """The parameter `name` as a rational function."""
    return rf(name)


class NonVanishing:
    """A set of polynomials asserted nonzero on the working variety."""

    def __init__(self, polys=()):
        out = []
        for p in polys:
            if isinstance(p, str):
                p = Poly.var(p)
            elif isinstance(p, RF):
                p = p.num
            if not isinstance(p, Poly):
                raise TypeError("constraint must be Poly, RF or name")
            if p.is_constant():
                continue
            out.append(_monic(p))
        self.constraints = tuple(out)

    def __or__(self, other):
        return NonVanishing(self.constraints + other.constraints)

    def covers(self, poly):
        """True iff poly equals a constant times a product of powers of the
        declared constraints (so it is invertible on the variety)."""
        if isinstance(poly, RF):
            poly = poly.num
        if poly.is_zero():
            return False
        p = poly
        changed = True
        while changed and not p.is_constant():
            changed = False
            for c in self.constraints:
                q = poly_divmod_exact(p, c)
                while q is not None:
                    p = q
                    changed = True
                    if p.is_constant():
                        break
                    q = poly_divmod_exact(p, c)
                if p.is_constant():
                    break
        return p.is_constant() and p.const_value() != 0

    def check(self, assignment):
        for c in self.constraints:
            if c.evaluate(assignment) == 0:
                raise RejectedPoint("constraint vanishes: %s" % (c,))

    def allows(self, assignment):
        try:
            self.check(assignment)
            return True
        except RejectedPoint:
            return False

    def __repr__(self):
        return "NonVanishing[%s]" % ", ".join(str(c) for c in self.constraints)


# ---------------------------------------------------------------------------
# JSON interchange

def _coeff_to_json(c):
    if isinstance(c, Cyc):
        if c.b == 0:
            return {"q": str(c.a)}
        return {"cyc": {"m": c.m, "coeffs": [str(c.a), str(c.b)]}}
    return {"q": str(Fraction(c))}


def _coeff_from_json(obj):
    if "q" in obj:
        return Fraction(obj["q"])
    d = obj["cyc"]
    coeffs = [Fraction(s) for s in d["coeffs"]]
    coeffs += [Fraction(0)] * (2 - len(coeffs))
    return Cyc(d["m"], coeffs[0], coeffs[1])


def _poly_to_json(p):
    out = []
    for m in sorted(p.terms, key=_MONO_SORT):
        out.append([_coeff_to_json(p.terms[m]), {x: e for x, e in m}])
    return out


def _poly_from_json(items):
    terms = {}
    for coeff, exps in items:
        m = tuple(sorted((str(x), int(e)) for x, e in exps.items()))
        terms[m] = _coeff_from_json(coeff)
    return Poly(terms)


def rf_to_json(f):
    return {"num": _poly_to_json(f.num), "den": _poly_to_json(f.den)}


def rf_from_json(obj):
    return RF(_poly_from_json(obj["num"]), _poly_from_json(obj["den"]))


def as_fraction(f):
    """Constant RF as a Fraction (raises on symbolic or cyclotomic input)."""
    if not f.is_constant():
        raise ValueError("not a constant: %s" % (f,))
    n, d = f.num.const_value(), f.den.const_value()
    if isinstance(n, Cyc) or isinstance(d, Cyc):
        raise ValueError("cyclotomic constant, not rational: %s" % (f,))
    return Fraction(n, 1) / Fraction(d, 1)
