"""The split-lemma check from before ``ccwg.split_lemma_check`` decided the
clauses once per pair of letter-count classes, kept as the oracle of the
differential tests: here every pair of words of length n + m is compared,
and the first failing pair in word order is named.  The function and its
helper are the old bodies.
"""

from mdreps.ccwg import _SPLIT_WORDS_BOUND, f_over, less
from mdreps.matrix import word_to_str, words
from mdreps.scalar import InvariantError


def _prefix_suffix(w, n):
    return w[:n], w[n:]


def split_lemma_check(N, n, m):
    """Exhaustively verify the prefix/suffix comparison clauses over all word
    pairs of length n+m:

    (I)   f(v) < f(w)  ->  a strict < holds on the prefixes or the suffixes;
    (II)  f(v) = f(w)  ->  both sides equal, or strict inequalities in
          opposite directions;
    (III) f(v) > f(w)  ->  a strict > holds on the prefixes or the suffixes.
    """
    if N ** (n + m) > _SPLIT_WORDS_BOUND:
        raise ValueError("bound exceeded: N^(n+m) = %d" % N ** (n + m))
    ws = words(N, n + m)
    checked = 0
    for v in ws:
        vp, vs = _prefix_suffix(v, n)
        fv, fvp, fvs = f_over(v, N), f_over(vp, N), f_over(vs, N)
        for w in ws:
            wp, wsuf = _prefix_suffix(w, n)
            fw, fwp, fws = f_over(w, N), f_over(wp, N), f_over(wsuf, N)
            whole = less(fv, fw)
            cp, cs = less(fvp, fwp), less(fvs, fws)
            if whole == "<":
                ok = cp == "<" or cs == "<"
            elif whole == "=":
                ok = (cp == "=" and cs == "=") or \
                    (cp == "<" and cs == ">") or (cp == ">" and cs == "<")
            else:
                ok = cp == ">" or cs == ">"
            if not ok:
                raise InvariantError("split lemma fails on v=%s, w=%s: "
                                     "whole %s, prefixes %s, suffixes %s"
                                     % (word_to_str(v), word_to_str(w),
                                        whole, cp, cs))
            checked += 1
    return {"pairs": checked, "ok": True}
