"""The bodies of ``poly_gcd``, ``_cancel`` and ``poly_divmod_exact`` from
before ``mdreps.scalar`` read constant multiples off with ``_ratio``, kept
as the oracle of the differential tests: every gcd runs the primitive
pseudo-remainder sequence, every quotient the division loop.  The helpers
they call that did not change are imported; ``_content`` and ``_prim``
are copied so that the recursion stays inside the oracle.
"""

from mdreps.scalar import (Poly, _coeff, _inv, _mono_div, _mono_divides,
                           _monic, _poly_from_univar, _poly_univar_coeffs,
                           _prem, _rat_rescale, _udeg)


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
        c = _coeff(rc * gc_inv)
        q[m] = q.get(m, 0) + c
        rem = rem - Poly({m: c}, False) * g
    return Poly(q)


def _content(coeffs):
    g = Poly()
    for c in coeffs:
        if not c.is_zero():
            g = poly_gcd(g, c)
    return g


def _prim(coeffs):
    cont = _content(coeffs)
    if cont.is_zero():
        return coeffs, cont
    out = [poly_divmod_exact(c, cont) for c in coeffs]
    return _rat_rescale(out), cont


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


def _cancel(a, b):
    """(a/g, b/g, g) for g = gcd(a, b); a/g and b/g are monic when a and b
    are.  No gcd is taken when either is constant."""
    if a.is_constant() or b.is_constant():
        return a, b, Poly.const(1)
    g = poly_gcd(a, b)
    if g.is_constant():
        return a, b, g
    return poly_divmod_exact(a, g), poly_divmod_exact(b, g), g
