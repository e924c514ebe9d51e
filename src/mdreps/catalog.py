"""Constructors for every classified matrix family: the involutive rank-2
braid transversal, the seven mixed-doubles cases (with subcases), the
point-symmetric Yang-Baxter family, and the equivalence transforms.

Every constructor re-verifies its defining relations symbolically on
construction: involutivity and the Yang-Baxter equation for single matrices,
the full mixed-doubles set at level 3 for pairs.  The relations are those of
``presentations.RelationSet`` (SYM for the involution, BRAID for the
Yang-Baxter equation, MIXED_DOUBLES for pairs), checked by
``presentations.verify``.
"""

from .matrix import ExactMatrix, RepPair, kron
from .presentations import BRAID, MIXED_DOUBLES, SYM, passes
from .scalar import (RF_ONE, BranchAmbiguity, InvariantError, NonVanishing,
                     param, rf)


class ConstraintViolation(Exception):
    pass


def _mat(rows):
    return ExactMatrix.from_rows(rows, N=2)


def _sym(x, name):
    return param(name) if x is None else rf(x)


# the four 4x4 shapes that the classified matrices are built from; g is an RF

def _slash(g, corner):
    return _mat([[1, 0, 0, 0], [0, 0, g, 0], [0, g.inverse(), 0, 0],
                 [0, 0, 0, corner]])


def _antislash(g, middle):
    return _mat([[0, 0, 0, g], [0, middle, 0, 0], [0, 0, middle, 0],
                 [g.inverse(), 0, 0, 0]])


def _aglue(g, middle):
    return _mat([[1, 0, 0, g], [0, 0, middle, 0], [0, middle, 0, 0],
                 [0, 0, 0, -1]])


def _fglue(p, q):
    return _mat([[1, -p, p, p * q], [0, 0, 1, q], [0, 1, 0, -q], [0, 0, 0, 1]])


def _fglue_diag(g):
    # the f-glue shape with equal glue parameter: first row (1, g, -g, -g^2)
    return _fglue(-g, g)


def flip_matrix():
    return _slash(RF_ONE, 1)


def antislash_matrix():
    return _antislash(RF_ONE, 1)


def is_involutive(M):
    """M M = I at level 2: the relation invol_s[1] of ``presentations.SYM``,
    checked by ``verify`` on the pair (M, M)."""
    return passes(RepPair(M, M), SYM, 2)


def satisfies_ybe(M):
    """M1 M2 M1 = M2 M1 M2 at level 3: the relation braid_r[1] of
    ``presentations.BRAID``, checked by ``verify`` on the pair (M, M)."""
    return passes(RepPair(M, M), BRAID, 3)


# ---------------------------------------------------------------------------
# involutive rank-2 braid transversal

INVOLUTIVE_BRAID_FAMILIES = ("trivial", "f-glue", "a-glue", "fa-slash",
                             "anti-slash")


def make_involutive_braid(family, p=None, q=None, sign=1, check=True):
    """One of the five ``INVOLUTIVE_BRAID_FAMILIES``.  Unsupplied parameters
    stay symbolic."""
    if sign not in (1, -1):
        raise ConstraintViolation("sign must be +-1")
    if family == "trivial":
        M = ExactMatrix.identity(2, 2)
    elif family == "f-glue":
        M = _fglue(_sym(p, "p"), _sym(q, "q"))
    elif family == "a-glue":
        M = _aglue(_sym(p, "p"), 1)
    elif family == "fa-slash":
        qq = _sym(q, "q")
        if qq.is_zero():
            raise ConstraintViolation("fa-slash needs q != 0")
        M = _slash(qq, sign)
    elif family == "anti-slash":
        M = antislash_matrix()
    else:
        raise ConstraintViolation("unknown involutive braid family %r" % (family,))
    if check:
        if not is_involutive(M):
            raise InvariantError("%s braid matrix is not involutive" % family)
        if not satisfies_ybe(M):
            raise InvariantError("%s braid matrix fails the Yang-Baxter "
                                 "equation" % family)
    return M


def known_coincidences():
    """Points where the transversal varieties overlap (reported, never
    canonicalized away)."""
    flip = flip_matrix()
    out = []
    if make_involutive_braid("f-glue", 0, 0) == flip:
        out.append(("f-glue", {"p": 0, "q": 0}, "flip"))
    if make_involutive_braid("fa-slash", q=1, sign=1) == flip:
        out.append(("fa-slash", {"q": 1, "sign": 1}, "flip"))
    return out


# ---------------------------------------------------------------------------
# point-symmetric Yang-Baxter family (P/A/N/N' basis)

def _manji_basis(sign):
    s = sign
    P, A = _slash(rf(s), 1), _antislash(rf(s), 1)
    Nn = _mat([[0, 0, 1, 0], [s, 0, 0, 0], [0, 0, 0, s], [0, 1, 0, 0]])
    Np = _mat([[0, 1, 0, 0], [0, 0, 0, s], [s, 0, 0, 0], [0, 0, 1, 0]])
    return P, A, Nn, Np


MANJI_KINDS = ("P", "A", "N", "N'", "R")


def make_manji(kind, sign=1, a=None, b=None, c=None, d=None):
    """The basis matrices P, A, N, N' (the first four ``MANJI_KINDS``) or
    their combination R = a P + d A + c N + b N' (kind "R")."""
    if sign not in (1, -1):
        raise ConstraintViolation("sign must be +-1")
    if kind not in MANJI_KINDS:
        raise ConstraintViolation("unknown kind %r" % (kind,))
    basis = _manji_basis(sign)
    if kind != "R":
        return basis[MANJI_KINDS.index(kind)]
    P, A, Nn, Np = basis
    aa, bb = _sym(a, "a"), _sym(b, "b")
    cc, dd = _sym(c, "c"), _sym(d, "d")
    return P.scale(aa) + A.scale(dd) + Nn.scale(cc) + Np.scale(bb)


# ---------------------------------------------------------------------------
# the classified pairs

def _case6a_S(eps, z, x):
    w = -eps - z
    return _mat([[z, -x, x, w],
                 [x, w, z, -x],
                 [-x, z, w, x],
                 [w, x, -x, z]])


def _case6b_S(eps, y, r):
    u = eps - y
    return _mat([[r, u, y, -r],
                 [y, -r, r, u],
                 [u, r, -r, y],
                 [-r, y, u, r]])


def _case6c_S(eps, r, y):
    w = -r - eps
    return _mat([[-r, y, y, w],
                 [-y, r + eps, r, -y],
                 [-y, r, r + eps, -y],
                 [w, y, y, -r]])


def _origin_point(eps, t, u):
    # the second point on a line of slope t through a conic's origin point
    z = eps * u
    return z, t * z


# The conic cases: the coordinate names of S's point, the point at the
# parameter t given u = 1/(t^2 - 1), S at a point, and the conic's value at
# a point, which is zero on the conic.
_CONICS = {
    # x^2 = z^2 + eps*z through (z, x) = (0, 0)
    "case6a": (("z", "x"), _origin_point, _case6a_S,
               lambda eps, z, x: x * x - (z * z + z * eps)),
    # 2r^2 - 2y^2 + 2 eps y - 1 = 0 through (y, r) = (eps/2, 1/2)
    "case6b": (("y", "r"),
               lambda eps, t, u: (rf(eps) / 2 + t * u, rf(1) / 2 + u),
               _case6b_S,
               lambda eps, y, r: r * r * 2 - y * y * 2 + y * (2 * eps) - 1),
    # r^2 - y^2 + eps*r = 0 through (r, y) = (0, 0)
    "case6c": (("r", "y"), _origin_point, _case6c_S,
               lambda eps, r, y: r * r + r * eps - y * y),
}

# the keywords each case reads, besides the conic cases' parameter t or
# point coordinates
_CASE_KEYWORDS = {
    "case1": {"sign"}, "case2": {"sign", "p", "q"},
    "case3-wangian": {"sign", "p", "q"}, "case3": {"sign", "q", "s"},
    "case4": {"sign", "p", "s"}, "case4-glue": {"p", "s"},
    "case5": {"sign", "p", "s"}, "case5-antidiag": {"sign", "s"},
    "case6a": {"eps"}, "case6b": {"eps"}, "case6c": {"eps"},
    "case7-flip": {"sign"}, "case7-antislash": {"sign"},
    "case7-aslash": {"sign", "s"}, "case7-fglue": {"sign", "s"},
}


def _refuse_unread(name, kw, reads):
    unread = set(kw).difference(reads)
    if unread:
        raise ConstraintViolation("%s does not take %s"
                                  % (name, ", ".join(sorted(unread))))


def make_md_pair(case, check=True, **kw):
    """Construct the (R, S) pair of a classification case or subcase, one
    of the case names in ``ALL_CASES``.  Sign choices are explicit keyword
    arguments; unsupplied continuous parameters stay symbolic.  A conic case
    takes its point coordinates or the conic parameter t, t != +-1.  A
    keyword that the case does not read is refused.  Construction
    re-verifies the mixed-doubles relations at level 3.
    """
    if case not in _CASE_KEYWORDS:
        raise ConstraintViolation("unknown case %r" % (case,))
    point = _CONICS[case][0] if case in _CONICS else ()
    if point and not set(kw) & set(point):
        point = ("t",)
    _refuse_unread(case, kw, _CASE_KEYWORDS[case].union(point))
    sign = kw.get("sign", 1)
    eps = kw.get("eps", 1)
    if sign not in (1, -1) or eps not in (1, -1):
        raise ConstraintViolation("sign choices must be +-1")
    nv = NonVanishing()
    params = []

    def grab(name, default_symbol=None):
        val = kw.get(name)
        sym = default_symbol or name
        if val is None:
            params.append(sym)
            return param(sym)
        return rf(val)

    if case == "case1":
        R = ExactMatrix.identity(2, 2)
        S = R.scale(sign)
    elif case == "case2":
        p, q = grab("p"), grab("q")
        if p.is_zero():
            raise ConstraintViolation("case2 needs p != 0")
        R, S = _aglue(p, 1), _aglue(q, 1).scale(sign)
        nv = NonVanishing([p])
    elif case == "case3-wangian":
        p, q = grab("p"), grab("q")
        R = _fglue(p, q)
        S = R.scale(sign)
        nv = NonVanishing([q])
    elif case == "case3":
        q, s = grab("q"), grab("s")
        if q.is_zero():
            raise ConstraintViolation("case3 needs q != 0")
        R, S = _fglue_diag(q), _fglue_diag(s).scale(sign)
        nv = NonVanishing([q])
    elif case == "case4":
        p, s = grab("p"), grab("s")
        if p.is_zero() or s.is_zero():
            raise ConstraintViolation("case4 needs p, s != 0")
        R, S = _slash(p, -1), _slash(s, sign)
        nv = NonVanishing([p, s])
    elif case == "case4-glue":
        pm = kw.get("p", 1)
        if pm not in (1, -1):
            raise ConstraintViolation("case4-glue needs p = +-1")
        # the middle sign of S is forced to equal p by the relations
        R, S = _aglue(0, pm), _aglue(grab("s"), pm)
    elif case == "case5":
        p, s = grab("p"), grab("s")
        if p.is_zero() or s.is_zero():
            raise ConstraintViolation("case5 needs p, s != 0")
        R, S = _slash(p, 1), _slash(s, sign)
        nv = NonVanishing([p, s])
    elif case == "case5-antidiag":
        s = grab("s")
        if s.is_zero():
            raise ConstraintViolation("case5-antidiag needs s != 0")
        R, S = _slash(rf(-1), 1), _antislash(s, sign)
        nv = NonVanishing([s])
    elif case in _CONICS:
        _, point_at, make_S, conic = _CONICS[case]
        R = antislash_matrix()
        if point == ("t",):
            t = grab("t")
            den = t * t - 1
            if den.is_zero():
                raise ConstraintViolation("%s needs t != +-1" % case)
            nv = NonVanishing([t, t - 1, t + 1])
            S = make_S(eps, *point_at(eps, t, rf(1) / den))
        else:
            # a coordinate left out stays symbolic and fails the conic
            a, b = (grab(name) for name in point)
            if not conic(eps, a, b).is_zero():
                raise ConstraintViolation("conic constraint not satisfied "
                                          "for %s" % case)
            S = make_S(eps, a, b)
    elif case == "case7-flip":
        R = flip_matrix()
        S = flip_matrix().scale(sign)
    elif case == "case7-antislash":
        R = flip_matrix()
        S = antislash_matrix().scale(sign)
    elif case == "case7-aslash":
        s = grab("s")
        if s.is_zero():
            raise ConstraintViolation("case7-aslash needs s != 0")
        R, S = flip_matrix(), _slash(s, -1).scale(sign)
        nv = NonVanishing([s])
    elif case == "case7-fglue":
        R = flip_matrix()
        S = _fglue_diag(grab("s")).scale(sign)

    pair = RepPair(R, S, params=params, constraints=nv, provenance=case)
    if check and not passes(pair, MIXED_DOUBLES, 3):
        raise ConstraintViolation("constructed pair fails relations: %s" % case)
    return pair


ALL_CASES = (
    ("case1", {"sign": 1}), ("case1", {"sign": -1}),
    ("case2", {}),
    ("case3-wangian", {"sign": 1}), ("case3-wangian", {"sign": -1}),
    ("case3", {}),
    ("case4", {"sign": 1}), ("case4", {"sign": -1}),
    ("case4-glue", {"p": 1}), ("case4-glue", {"p": -1}),
    ("case5", {"sign": 1}), ("case5", {"sign": -1}),
    ("case5-antidiag", {"sign": 1}), ("case5-antidiag", {"sign": -1}),
    ("case6a", {"eps": 1}), ("case6a", {"eps": -1}),
    ("case6b", {"eps": 1}), ("case6b", {"eps": -1}),
    ("case6c", {"eps": 1}), ("case6c", {"eps": -1}),
    ("case7-flip", {"sign": 1}), ("case7-flip", {"sign": -1}),
    ("case7-antislash", {"sign": 1}),
    ("case7-aslash", {"sign": 1}), ("case7-aslash", {"sign": -1}),
    ("case7-fglue", {"sign": 1}),
)


def iter_all_cases(check=True):
    for case, kw in ALL_CASES:
        yield case, kw, make_md_pair(case, check=check, **kw)


# analysis-oriented aliases (parameter roles as used in the structure results)
ANALYSIS_FAMILIES = ("a-glue", "f-glue", "antislash")


def analysis_pair(family, **kw):
    """The ``ANALYSIS_FAMILIES`` as analysed for all n: 'a-glue' has R with
    glue q and S with glue p; 'f-glue' is the equal-shape pair (R(q),
    S(p)); 'antislash' is the eps=-1 case6a pair.  A keyword that the
    family does not read is refused."""
    if family in ("a-glue", "f-glue"):
        _refuse_unread(family, kw, ("p", "q"))
        p, q = rf(kw.get("p", "p")), rf(kw.get("q", "q"))
        if family == "a-glue":
            R, S = _aglue(q, 1), _aglue(p, 1)
        else:
            R, S = _fglue_diag(q), _fglue_diag(p)
        return RepPair(R, S, params=("p", "q"),
                       constraints=NonVanishing([]), provenance=family)
    if family == "antislash":
        return make_md_pair("case6a", eps=-1, **kw)
    raise ConstraintViolation("unknown analysis family %r" % (family,))


# ---------------------------------------------------------------------------
# transforms

class Transform:
    """An invertible symmetry of pairs: local_conj(A), transpose, global_sign,
    swap_rs, antidiagonal, nonlocal_conj(U)."""

    def __init__(self, kind, matrix=None):
        self.kind = kind
        self.matrix = matrix

    def inverse(self):
        if self.kind in ("transpose", "global_sign", "swap_rs", "antidiagonal"):
            return self
        if self.kind in ("local_conj", "nonlocal_conj"):
            return Transform(self.kind, self.matrix.inverse())
        raise ValueError("unknown transform %r" % (self.kind,))


def apply_transform(t, pair):
    R, S = pair.R, pair.S
    if t.kind == "swap_rs":
        R, S = S, R
    elif t.kind == "transpose":
        R, S = R.transpose(), S.transpose()
    elif t.kind == "global_sign":
        R, S = R.scale(-1), S.scale(-1)
    elif t.kind in ("local_conj", "nonlocal_conj"):
        U = kron(t.matrix, t.matrix) if t.kind == "local_conj" else t.matrix
        Ui = U.inverse()
        R, S = U * R * Ui, U * S * Ui
    elif t.kind == "antidiagonal":
        X = _mat([[0, 1], [1, 0]])
        J = kron(X, X)
        R = J * R.transpose() * J
        S = J * S.transpose() * J
    else:
        raise ValueError("unknown transform %r" % (t.kind,))
    return RepPair(R, S, params=pair.params, constraints=pair.constraints,
                   provenance=pair.provenance + "+" + t.kind)


def check_ds_equivalence(A, pair):
    """True iff A (x) A commutes with both R and S; if so, also return the
    derived pair ((A (x) I) R (A (x) I)^-1, ...)."""
    AA = kron(A, A)
    if not ((AA * pair.R - pair.R * AA).is_zero()
            and (AA * pair.S - pair.S * AA).is_zero()):
        return False, None
    try:
        AI = kron(A, ExactMatrix.identity(2, 1))
        AIi = AI.inverse(pair.constraints)
    except (BranchAmbiguity, ZeroDivisionError):
        # commutation holds but invertibility of A is not certified on the
        # declared variety; no derived pair emitted
        return True, None
    derived = RepPair(AI * pair.R * AIi, AI * pair.S * AIi,
                      params=pair.params, constraints=pair.constraints,
                      provenance=pair.provenance + "+ds")
    return True, derived


def braid_pair_from_fslash(lam):
    """The (flip, slash(lam)) pair conjugate to the eps=-1 anti-slash pair."""
    lam = rf(lam)
    Rp = flip_matrix()
    Sp = _slash(lam, RF_ONE)
    return Rp, Sp


def w_conjugation_data(lam=None):
    """The conjugation between the (flip, slash(lam)) pair and the eps=-1
    anti-slash pair at z = -(lam^2-2lam+1)/(4lam), x = (lam^2-1)/(4lam)."""
    lam = param("lam") if lam is None else rf(lam)
    W = kron(_mat([[1, 1], [1, -1]]), _mat([[1, -1], [1, 1]]))
    z = -(lam * lam - 2 * lam + 1) / (4 * lam)
    x = (lam * lam - 1) / (4 * lam)
    Rp, Sp = braid_pair_from_fslash(lam)
    R = antislash_matrix()
    S = _case6a_S(-1, z, x)
    return {"W": W, "Rp": Rp, "Sp": Sp, "R": R, "S": S, "z": z, "x": x,
            "lam": lam}


def w_conjugation_check(lam=None):
    """True iff W Rp W^-1 = R and W Sp W^-1 = S hold symbolically."""
    d = w_conjugation_data(lam)
    nv = NonVanishing(["lam"]) if lam is None else None
    Wi = d["W"].inverse(nv)
    ok_r = (d["W"] * d["Rp"] * Wi - d["R"]).is_zero()
    ok_s = (d["W"] * d["Sp"] * Wi - d["S"]).is_zero()
    # the substituted point satisfies the eps=-1 conic x^2 = z^2 - z
    z, x = d["z"], d["x"]
    ok_conic = (x * x - z * z + z).is_zero()
    return ok_r and ok_s and ok_conic
