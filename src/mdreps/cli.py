"""Batch command-line front end: reproducible verification and analysis runs
with machine-readable JSON reports.

Exit codes: 0 success, 1 mathematical failure (a relation or claim fails),
2 usage or input error.  ``analyze`` and ``mdd eval`` refuse a level n whose
dense N^n x N^n matrices would have more than 2^20 entries (n > 10 at
N = 2).  Identical invocations (including --seed) produce byte-identical
reports.
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import catalog, ccwg, clifford, mdd, presentations, structure
from .matrix import MAX_ENTRIES, ExactMatrix, RepPair
from .scalar import BranchAmbiguity, RejectedPoint, param, rf, zeta

EXIT_OK, EXIT_MATH_FAIL, EXIT_USAGE = 0, 1, 2


class UsageError(Exception):
    pass


def _parse_assignment(text):
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise UsageError("bad assignment %r (want name=value)" % (item,))
        name, val = (x.strip() for x in item.split("=", 1))
        try:
            out[name] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise UsageError("bad value %r for %r (want a rational)"
                             % (val, name))
    return out


def _parse_params(text):
    """name=value pairs; integral values become ints, the others stay
    Fractions.  ``check`` is refused: it is not a family parameter."""
    kw = {}
    for name, val in _parse_assignment(text).items():
        if name == "check":
            raise UsageError("bad --params: check is not a family parameter")
        kw[name] = int(val) if val.denominator == 1 else val
    return kw


def _call(fn, *args, **kw):
    """fn(*args, **kw) for keywords from --params: one that fn does not take
    is a usage error."""
    try:
        return fn(*args, **kw)
    except TypeError as exc:
        if exc.__traceback__.tb_next is not None:  # raised inside fn
            raise
        raise UsageError("bad --params: %s" % exc)


def _emit(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has closed stdout: the rest of the report, and the
            # interpreter's exit flush, go to os.devnull
            sys.stdout = open(os.devnull, "w")


def _load_matrix(path):
    with open(path) as fh:
        return ExactMatrix.from_json(json.load(fh))


def _pair_from_args(args):
    if getattr(args, "case", None):
        kw = _parse_params(getattr(args, "params", "") or "")
        return _call(catalog.make_md_pair, args.case, False, **kw)
    if getattr(args, "R", None) and getattr(args, "S", None):
        return RepPair(_load_matrix(args.R), _load_matrix(args.S),
                       provenance="files")
    raise UsageError("need --case or both --R and --S")


def _check_level(pair, n):
    """Refuse a level whose dense N^n x N^n images would exceed
    MAX_ENTRIES, before any of them is built."""
    if pair.N ** (2 * n) > MAX_ENTRIES:
        raise UsageError("--n %d: the %d^%d x %d^%d level-n matrices have "
                         "more than 2^20 entries" % (n, pair.N, n, pair.N, n))


def cmd_verify(args):
    pair = _pair_from_args(args)
    relset = presentations.RelationSet(args.relations)
    reports = presentations.verify(pair, relset, args.n)
    out = {"case": getattr(args, "case", None), "n": args.n,
           "relations": args.relations,
           "reports": [r.to_json() for r in reports],
           "ok": all(r.is_zero for r in reports)}
    _emit(out, args.out)
    return EXIT_OK if out["ok"] else EXIT_MATH_FAIL


def cmd_catalog(args):
    if args.action == "list":
        fams = {
            "involutive_braid": catalog.INVOLUTIVE_BRAID_FAMILIES,
            "md_cases": sorted({c for c, _ in catalog.ALL_CASES}),
            "manji": catalog.MANJI_KINDS,
            "analysis": catalog.ANALYSIS_FAMILIES,
        }
        _emit(fams, args.out)
        return EXIT_OK
    if args.action == "make":
        if args.family is None:
            raise UsageError("catalog make needs a family (see catalog list)")
        kw = _parse_params(args.params or "")
        if args.family in catalog.INVOLUTIVE_BRAID_FAMILIES:
            M = _call(catalog.make_involutive_braid, args.family, **kw)
            _emit(M.to_json(), args.out)
            return EXIT_OK
        if args.family in catalog.MANJI_KINDS:
            M = _call(catalog.make_manji, args.family, **kw)
            _emit(M.to_json(), args.out)
            return EXIT_OK
        pair = _call(catalog.make_md_pair, args.family, **kw)
        _emit({"R": pair.R.to_json(), "S": pair.S.to_json(),
               "provenance": pair.provenance,
               "params": list(pair.params)}, args.out)
        return EXIT_OK
    raise UsageError("unknown catalog action %r" % (args.action,))


def cmd_analyze(args):
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    rng = random.Random(args.seed)
    at = _parse_assignment(args.at) if args.at else None
    kw = _parse_params(args.params or "")
    if args.case in catalog.ANALYSIS_FAMILIES:
        pair = _call(catalog.analysis_pair, args.case, **kw)
    else:
        pair = _call(catalog.make_md_pair, args.case, False, **kw)
    _check_level(pair, args.n)
    rep = structure.decompose(pair, args.n, assignment=at, rng=rng)
    out = rep.to_json()
    out["provenance"] = {"case": args.case, "n": args.n, "at": args.at,
                         "seed": args.seed}
    _emit(out, args.out)
    return EXIT_OK


def _parse_char_token(tok):
    tok = tok.strip()
    if not tok:
        raise UsageError("empty --char entry")
    try:
        if "/" in tok or tok.lstrip("-").isdigit():
            return rf(Fraction(tok))
        if "^" in tok:
            base, exp = tok.split("^", 1)
            return _parse_char_token(base) ** int(exp)
        if tok.startswith("w"):
            return rf(zeta(int(tok[1:])))
        if tok.isidentifier():
            return param(tok)
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError("bad --char entry %r (want a rational, w<m>, a "
                     "parameter name, or one of these ^<int>)" % (tok,))


def _parse_char(text, n):
    """--char: the n(n-1)/2 values of x_12, x_13, .., x_{n-1,n}."""
    toks = text.split(",")
    want = n * (n - 1) // 2
    if len(toks) != want:
        raise UsageError("--char needs %d entries at --n %d, got %d"
                         % (want, n, len(toks)))
    return [_parse_char_token(t) for t in toks]


def _parse_word(text, n):
    """--word: letters r<i>, s<i> with 1 <= i <= n-1, or x<i><j> (x<i>,<j>)
    with distinct i, j in 1..n, each with an optional ^<int>."""
    try:
        word = mdd.parse_word(text)
    except ValueError as exc:
        raise UsageError("bad --word %r: %s" % (text, exc))
    for letter, _ in word:
        if letter[0] == "x":
            ok = letter[1] != letter[2] and all(1 <= i <= n
                                                for i in letter[1:])
        else:
            ok = 1 <= letter[1] <= n - 1
        if not ok:
            raise UsageError("letter %s out of range at --n %d"
                             % (mdd.format_word([(letter, 1)]), n))
    return word


def cmd_irreps(args):
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    if args.char:
        vec = _parse_char(args.char, args.n)
        chi = clifford.Character.from_vector(args.n, vec)
        stab = clifford.orbit_and_stabilizer(chi)
        taus = clifford.irreps_of_subgroup(stab.subgroup, args.n)
        idx = args.tau or 0
        if not 0 <= idx < len(taus):
            raise UsageError("tau index %d out of range (%d irreps)"
                             % (idx, len(taus)))
        rep = clifford.induce(chi, taus[idx], stab)
        out = {"n": args.n, "dim": rep.dim,
               "stabilizer_order": len(stab.subgroup),
               "x": {"%d%d" % k: rep.x(*k).to_json()
                     for k in sorted(chi.values)},
               "sigma": {str(i): rep.sigma(i).to_json()
                         for i in range(1, args.n)}}
        _emit(out, args.out)
        return EXIT_OK
    if args.dims is not None:
        if args.dims < 1:
            raise UsageError("--dims must be >= 1")
        out = clifford.classify_small_dims(args.n, args.dims)
        _emit({"n": args.n, "dim": args.dims, "entries": out}, args.out)
        return EXIT_OK
    raise UsageError("need --char or --dims")


def cmd_ccwg(args):
    if args.action in ("check", "project") and args.matrix is None:
        raise UsageError("ccwg %s needs a matrix path" % args.action)
    if args.action == "check":
        M = _load_matrix(args.matrix)
        ok = ccwg.is_ccwg(M)
        _emit({"ccwg": ok}, args.out)
        return EXIT_OK if ok else EXIT_MATH_FAIL
    if args.action == "project":
        M = _load_matrix(args.matrix)
        if M.rows_level != M.cols_level:
            raise UsageError("ccwg project needs a square matrix, not levels "
                             "%d x %d" % (M.rows_level, M.cols_level))
        out = ccwg.project_K(M) if args.part == "cc" else ccwg.project_glue(M)
        _emit(out.to_json(), args.out)
        return EXIT_OK
    if args.action == "order":
        if args.N < 1 or args.n < 0:
            raise UsageError("ccwg order needs --N >= 1 and --n >= 0")
        # C(n + N - 1, j) compositions of N letters at j = min(n, N - 1);
        # the count grows with j, so it stops once past the bound
        count, j = 1, 0
        while count * args.N <= MAX_ENTRIES and j < min(args.n, args.N - 1):
            j += 1
            count = count * (args.n + args.N - j) // j
        if count * args.N > MAX_ENTRIES:
            raise UsageError("ccwg order --N %d --n %d would list more than "
                             "2^20 letters" % (args.N, args.n))
        comps = ccwg.compositions(args.N, args.n)
        _emit({"N": args.N, "n": args.n,
               "order": ["".join(str(x) for x in c) for c in comps]}, args.out)
        return EXIT_OK
    raise UsageError("unknown ccwg action %r" % (args.action,))


def cmd_mdd(args):
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    word = _parse_word(args.word, args.n)
    if args.action == "normal":
        g = mdd.babeda_from_md(word, args.n)
        _emit({"word": args.word, "n": args.n,
               "exponents": {"%d,%d" % k: v for k, v in sorted(g.exps.items())},
               "permutation": [v + 1 for v in g.perm]}, args.out)
        return EXIT_OK
    if args.action == "eval":
        pair = _pair_from_args(args)
        _check_level(pair, args.n)
        at = _parse_assignment(args.at) if args.at else None
        if at:
            pair = pair.evaluate(at)
        M = mdd.evaluate_in_rep(word, pair, args.n)
        _emit(M.to_json(), args.out)
        return EXIT_OK
    raise UsageError("unknown mdd action %r" % (args.action,))


class _Command(argparse.ArgumentParser):
    """A command's sub-parser, whose arguments are added on its first parse.

    argparse calls ``parse_known_args`` only on the sub-parser that the
    command line names, and the top-level help reads the commands' help
    strings from the sub-parsers action, so one invocation builds one
    command's parser, not all six."""

    def __init__(self, add_arguments, **kwargs):
        self._add_arguments = add_arguments
        self._kwargs = kwargs
        self._built = False

    def _build(self):
        argparse.ArgumentParser.__init__(self, **self._kwargs)
        self._add_arguments(self)
        self._built = True

    def parse_known_args(self, args=None, namespace=None):
        if not self._built:
            self._build()
        return super().parse_known_args(args, namespace)


def _verify_arguments(v):
    v.add_argument("--case")
    v.add_argument("--params", default="")
    v.add_argument("--R")
    v.add_argument("--S")
    v.add_argument("--n", type=int, default=3)
    v.add_argument("--relations", default="MixedDoubles")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)


def _catalog_arguments(c):
    c.add_argument("action", choices=["list", "make"])
    c.add_argument("family", nargs="?")
    c.add_argument("--params", default="")
    c.add_argument("--out")
    c.set_defaults(func=cmd_catalog)


def _analyze_arguments(a):
    a.add_argument("--case", required=True)
    a.add_argument("--params", default="")
    a.add_argument("--n", type=int, default=3)
    a.add_argument("--at", default="")
    a.add_argument("--out")
    a.set_defaults(func=cmd_analyze)


def _irreps_arguments(i):
    i.add_argument("--n", type=int, required=True)
    i.add_argument("--char")
    i.add_argument("--tau", type=int, default=0)
    i.add_argument("--dims", type=int)
    i.add_argument("--out")
    i.set_defaults(func=cmd_irreps)


def _ccwg_arguments(g):
    g.add_argument("action", choices=["check", "project", "order"])
    g.add_argument("matrix", nargs="?")
    g.add_argument("--part", choices=["cc", "glue"], default="cc")
    g.add_argument("--N", type=int, default=2)
    g.add_argument("--n", type=int, default=2)
    g.add_argument("--out")
    g.set_defaults(func=cmd_ccwg)


def _mdd_arguments(m):
    m.add_argument("action", choices=["normal", "eval"])
    m.add_argument("--word", required=True)
    m.add_argument("--n", type=int, default=3)
    m.add_argument("--case")
    m.add_argument("--params", default="")
    m.add_argument("--R")
    m.add_argument("--S")
    m.add_argument("--at", default="")
    m.add_argument("--out")
    m.set_defaults(func=cmd_mdd)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mdreps",
        description="exact verification and analysis of rank-2 local "
                    "representations of the involutive loop-braid quotient")
    ap.add_argument("--seed", type=int, default=0, help="RNG seed")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_Command)
    sub.add_parser("verify", help="check defining relations for a pair",
                   add_arguments=_verify_arguments)
    sub.add_parser("catalog", help="list families or emit matrices",
                   add_arguments=_catalog_arguments)
    sub.add_parser("analyze", help="decompose a representation",
                   add_arguments=_analyze_arguments)
    sub.add_parser("irreps", help="induced irreducibles and classification",
                   add_arguments=_irreps_arguments)
    sub.add_parser("ccwg", help="charge-conservation-with-glue tools",
                   add_arguments=_ccwg_arguments)
    sub.add_parser("mdd", help="group-element words and evaluation",
                   add_arguments=_mdd_arguments)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except BranchAmbiguity as exc:
        print("error: %s; pass --at" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, KeyError, ValueError,
            RejectedPoint, catalog.ConstraintViolation) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
