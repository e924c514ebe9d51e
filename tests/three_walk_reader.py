"""The reader of the cleared pair from before ``presentations._scan`` walked
each numerator once: ``scan`` reads an entry's names, largest exponent and
coefficient denominators in three walks and files every denominator, 1
included, under its hash; ``clear`` multiplies every entry by its
cofactor, and ``_pmul`` copies every product through the zero filter.  The
bodies are the old ones, kept as the oracle of the differential test in
``test_presentations``.
"""

from functools import reduce
from math import lcm

from mdreps.scalar import Cyc


def _top(p):
    """The largest exponent of any parameter in p."""
    return max((e for m in p.terms for _, e in m), default=0)


def _coeff_den(p):
    """The lcm of the denominators of p's rational coefficients and of both
    components of its cyclotomic ones."""
    out = 1
    for v in p.terms.values():
        if isinstance(v, Cyc):
            out = lcm(out, v.a.denominator, v.b.denominator)
        else:
            out = lcm(out, v.denominator)
    return out


def _pack(p, shift, scale):
    """scale * p as a packed polynomial; scale clears p's coefficient
    denominators, so rational coefficients become ints."""
    return {sum(e << shift[x] for x, e in m):
            v * scale if isinstance(v, Cyc)
            else v.numerator * (scale // v.denominator)
            for m, v in p.terms.items()}


def _addmul(h, f, g):
    """h + f * g into h, zero coefficients kept."""
    for e1, v1 in f.items():
        for e2, v2 in g.items():
            e = e1 + e2
            h[e] = h.get(e, 0) + v1 * v2
    return h


def _nonzero(h):
    return {e: v for e, v in h.items() if v}


def _pmul(f, g):
    return _nonzero(_addmul({}, f, g))


def scan(M):
    """One pass over M's entries: (its parameter names, the degree bound,
    its distinct denominators, L, its nonzero entries as (row, column,
    numerator, index of the denominator)).  The degree bound bounds the
    exponent of any parameter in an entry of the cleared matrix and in its
    c: the largest in a numerator plus the sum over the distinct
    denominators.  L is the lcm of the numerators' ``_coeff_den``.  A
    constant-form matrix has none of these; ``_clear`` reads its integer
    rows."""
    names, top, dens, L, entries = set(), 0, {}, 1, []
    if M._ints is None:
        for i, row in enumerate(M._rows):
            for j, x in enumerate(row):
                if x.is_zero():
                    continue
                names |= x.variables()
                top = max(top, _top(x.num))
                L = lcm(L, _coeff_den(x.num))
                k = dens.setdefault(x.den, len(dens))
                entries.append((i, j, x.num, k))
    return names, top + sum(map(_top, dens)), list(dens), L, entries


def clear(M, scan, shift, bits):
    """(rows, c) with M = rows / c and flat polynomial rows, from M's
    ``_scan``.  Each distinct denominator d is cleared to l_d d with integer
    coefficients, l_d being ``_coeff_den(d)``: c is L times the cleared
    denominators, and an entry n / d becomes L n times l_d and the other
    cleared denominators."""
    if M._ints is not None:
        return ([{j << bits: a for j, a in enumerate(row) if a}
                 for row in M._ints], {0: M._den})
    _, _, dens, L, entries = scan
    cleared = [_pack(d, shift, _coeff_den(d)) for d in dens]
    cofactors = [reduce(_pmul, (g for g in cleared if g is not dc),
                        {0: _coeff_den(d)})
                 for d, dc in zip(dens, cleared)]
    c = reduce(_pmul, cleared, {0: L})
    rows = [{} for _ in M._rows]
    for i, j, num, k in entries:
        for e, v in _pmul(_pack(num, shift, L), cofactors[k]).items():
            rows[i][(j << bits) + e] = v
    return rows, c


def cleared(pair, span):
    """(names, shifts, bits, X, c) as ``_Cleared(pair, span)`` had them,
    X and c keyed by "r" and "s"."""
    mats = (pair.R, pair.S)
    scans = [scan(M) for M in mats]
    names = sorted(set().union(*(names for names, *_ in scans)))
    width = (span * max(bound for _, bound, *_ in scans)).bit_length()
    shifts = [i * width for i in range(len(names))]
    bits = width * len(names)
    shift = dict(zip(names, shifts))
    (R, cR), (S, cS) = (clear(M, sc, shift, bits)
                        for M, sc in zip(mats, scans))
    return names, shifts, bits, {"r": R, "s": S}, {"r": cR, "s": cS}
