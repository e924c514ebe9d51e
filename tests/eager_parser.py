"""The eager argument parser: every command's sub-parser built up front.

A test oracle for ``mdreps.cli.build_parser``, which builds a command's
sub-parser only when that command is parsed: the two must give the same
exit code, stdout, stderr and parsed namespace on every command line.
"""

import argparse
import contextlib
import io

from mdreps.cli import (cmd_analyze, cmd_catalog, cmd_ccwg, cmd_irreps,
                        cmd_mdd, cmd_verify)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mdreps",
        description="exact verification and analysis of rank-2 local "
                    "representations of the involutive loop-braid quotient")
    ap.add_argument("--seed", type=int, default=0, help="RNG seed")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check defining relations for a pair")
    v.add_argument("--case")
    v.add_argument("--params", default="")
    v.add_argument("--R")
    v.add_argument("--S")
    v.add_argument("--n", type=int, default=3)
    v.add_argument("--relations", default="MixedDoubles")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("catalog", help="list families or emit matrices")
    c.add_argument("action", choices=["list", "make"])
    c.add_argument("family", nargs="?")
    c.add_argument("--params", default="")
    c.add_argument("--out")
    c.set_defaults(func=cmd_catalog)

    a = sub.add_parser("analyze", help="decompose a representation")
    a.add_argument("--case", required=True)
    a.add_argument("--params", default="")
    a.add_argument("--n", type=int, default=3)
    a.add_argument("--at", default="")
    a.add_argument("--out")
    a.set_defaults(func=cmd_analyze)

    i = sub.add_parser("irreps", help="induced irreducibles and classification")
    i.add_argument("--n", type=int, required=True)
    i.add_argument("--char")
    i.add_argument("--tau", type=int, default=0)
    i.add_argument("--dims", type=int)
    i.add_argument("--out")
    i.set_defaults(func=cmd_irreps)

    g = sub.add_parser("ccwg", help="charge-conservation-with-glue tools")
    g.add_argument("action", choices=["check", "project", "order"])
    g.add_argument("matrix", nargs="?")
    g.add_argument("--part", choices=["cc", "glue"], default="cc")
    g.add_argument("--N", type=int, default=2)
    g.add_argument("--n", type=int, default=2)
    g.add_argument("--out")
    g.set_defaults(func=cmd_ccwg)

    m = sub.add_parser("mdd", help="group-element words and evaluation")
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
    return ap


def parse(build_parser, argv):
    """(exit code, stdout, stderr, parsed namespace or None) of parsing argv
    with the parser that build_parser() returns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(build_parser().parse_args(argv))
            code = 0
        except SystemExit as exc:
            args, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), args
