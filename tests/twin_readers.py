"""The two readers of a rational constant from before ``scalar`` held the
one reader: ``as_fraction`` as ``scalar`` had it, and ``_rational`` and
``_rational_coeff`` as ``matrix`` had them.  The bodies are the old ones,
kept as the oracle of the differential test in ``test_scalar``.
"""

from fractions import Fraction

from mdreps.scalar import _ONE, _UNIT, RF, Poly, _q


def as_fraction(f):
    """Constant RF as a Fraction (ValueError on symbolic or cyclotomic
    input, a ``Cyc`` value never being rational)."""
    if f.den.terms == _UNIT.terms:
        num = f.num.terms
        if not num:
            return Fraction(0)
        if len(num) == 1:
            c = num.get(_ONE)
            if type(c) is Fraction:
                return c
            if type(c) is int:
                return Fraction(c)
    if not f.is_constant():
        raise ValueError("not a constant: %s" % (f,))
    # a constant has the denominator 1, so its value is a Cyc
    raise ValueError("cyclotomic constant, not rational: %s" % (f,))


def _rational_coeff(terms):
    """The value of a constant polynomial's terms when its coefficient is
    rational (0 for no terms), else None."""
    if not terms:
        return 0
    if len(terms) == 1:
        c = terms.get(_ONE)
        if type(c) is int or type(c) is Fraction:
            return c
    return None


def _rational(x):
    """x under the coefficient rule when it is a rational constant: an
    int, a Fraction, or a Poly or RF whose only coefficient is rational
    (over the denominator 1); None for anything symbolic or cyclotomic."""
    if isinstance(x, RF):
        if _rational_coeff(x.den.terms) != 1:
            return None
        x = x.num
    if isinstance(x, Poly):
        return _rational_coeff(x.terms)
    if isinstance(x, (int, Fraction)):
        return _q(x)
    return None
