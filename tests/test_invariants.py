"""Runtime checks that must hold under ``python -O``: no ``assert`` in the
package, and each former assert site raises its named error."""

import ast
import os
import subprocess
import sys

import mdreps

_SRC = os.path.dirname(os.path.dirname(mdreps.__file__))


def _package_nodes():
    """(file name, AST node) for every node of every module of the
    package."""
    pkg = os.path.dirname(mdreps.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                yield name, node


def test_no_assert_statements_in_the_package():
    found = ["%s:%d" % (name, node.lineno) for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def _catches_everything(handler):
    """True for ``except:``, ``except Exception`` or ``except
    BaseException``, alone or in a tuple."""
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(isinstance(t, ast.Name) and t.id in ("Exception",
                                                     "BaseException")
               for t in types)


def test_no_catch_all_handlers_in_the_package():
    # no exception is swallowed silently: every handler names what it expects
    found = ["%s:%d" % (name, node.lineno) for name, node in _package_nodes()
             if isinstance(node, ast.ExceptHandler)
             and _catches_everything(node)]
    assert found == []


def test_catch_all_scan_sees_each_form():
    src = ("try:\n    f()\nexcept:\n    pass\n"
           "try:\n    f()\nexcept Exception:\n    pass\n"
           "try:\n    f()\nexcept (ValueError, BaseException):\n    pass\n"
           "try:\n    f()\nexcept (ValueError, KeyError):\n    pass\n")
    handlers = [n for n in ast.walk(ast.parse(src))
                if isinstance(n, ast.ExceptHandler)]
    assert [_catches_everything(h) for h in handlers] == [True, True, True,
                                                          False]


_PROBES = '''
from fractions import Fraction

from mdreps import catalog, clifford, structure, upoly
from mdreps.clifford import Character, _verify_induced, orbit_and_stabilizer
from mdreps.matrix import ExactMatrix
from mdreps.mdd import GroupElement
from mdreps.scalar import InvariantError


def m(rows):
    return ExactMatrix.from_rows(rows, N=len(rows), rows_level=1,
                                 cols_level=1)


class Rep:
    """Just what _verify_induced reads of an induced representation."""

    def __init__(self, n, sigmas, xs):
        self.n, self.dim = n, sigmas[0].nrows
        self._sigma, self._x = sigmas, xs
        self.chi = Character(n, {})
        self.chi.values = dict.fromkeys(xs)

    def sigma(self, i):
        return self._sigma[i - 1]

    def x(self, i, j):
        return self._x[(i, j)]


S, P, Q = m([[0, 1], [1, 0]]), m([[1, 1], [0, 1]]), m([[1, 0], [1, 1]])
# reflections of the Coxeter group with m12 = m23 = 3 and m13 = infinity
s1 = m([[-1, 1, 2], [0, 1, 0], [0, 0, 1]])
s2 = m([[1, 0, 0], [1, -1, 1], [0, 0, 1]])
s3 = m([[1, 0, 0], [0, 1, 0], [2, 1, -1]])
aglue = catalog.analysis_pair("a-glue", p=2, q=5)


def patched(owner, attr, value, call):
    old = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        call()
    finally:
        setattr(owner, attr, old)


probes = [
    ("pair range", lambda: Character(3, {(2, 1): 1})),
    ("vector length", lambda: Character.from_vector(3, [1, 1])),
    ("rank mismatch",
     lambda: GroupElement.x(3, 1, 2) * GroupElement.x(4, 1, 2)),
    ("braid involutive", lambda: patched(
        catalog, "is_involutive", lambda M: False,
        lambda: catalog.make_involutive_braid("f-glue", 2, 5))),
    ("braid ybe", lambda: patched(
        catalog, "satisfies_ybe", lambda M: False,
        lambda: catalog.make_involutive_braid("f-glue", 2, 5))),
    ("orbit count", lambda: patched(
        clifford, "factorial", lambda n: 0,
        lambda: orbit_and_stabilizer(Character(2, {(1, 2): -1})))),
    ("sigma involutive",
     lambda: _verify_induced(Rep(2, [S.scale(2)], {(1, 2): P}))),
    ("braid relation",
     lambda: _verify_induced(Rep(3, [S, S.scale(-1)], {(1, 2): P}))),
    ("far commutation",
     lambda: _verify_induced(Rep(4, [s1, s2, s3], {}))),
    ("conjugation",
     lambda: _verify_induced(Rep(2, [S], {(1, 2): P, (2, 1): P}))),
    ("abelian",
     lambda: _verify_induced(Rep(2, [S], {(1, 2): P, (2, 1): Q}))),
    # characters that make the multiplicity of (2) negative, then every
    # multiplicity zero
    ("quotient multiplicity", lambda: patched(
        structure, "mn_character", lambda lam, mu: -1,
        lambda: structure.semisimple_quotient_dims(aglue, 2))),
    ("quotient dimensions", lambda: patched(
        structure, "mn_character", lambda lam, mu: 0,
        lambda: structure.semisimple_quotient_dims(aglue, 2))),
    # a reconstruction that does not reduce to the lifted root 6, then a
    # Horner test that passes the lifts of sqrt(2) (2 = 8^2 mod 31)
    ("rational reconstruction", lambda: patched(
        upoly, "_reconstruct", lambda r, M, lead: Fraction(1),
        lambda: upoly._roots_in_tower([-6, 1]))),
    ("root deflation", lambda: patched(
        upoly, "_qhorner", lambda a, p, q: 0,
        lambda: upoly._roots_in_tower([-2, 0, 1]))),
]
for label, probe in probes:
    try:
        probe()
    except (ValueError, InvariantError) as e:
        print("%s: %s" % (label, type(e).__name__))
'''


def test_former_asserts_raise_under_python_O():
    out = subprocess.run([sys.executable, "-O", "-c", _PROBES],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=_SRC), check=True)
    assert out.stdout.splitlines() == [
        "pair range: ValueError", "vector length: ValueError",
        "rank mismatch: ValueError", "braid involutive: InvariantError",
        "braid ybe: InvariantError", "orbit count: InvariantError",
        "sigma involutive: InvariantError", "braid relation: InvariantError",
        "far commutation: InvariantError", "conjugation: InvariantError",
        "abelian: InvariantError", "quotient multiplicity: InvariantError",
        "quotient dimensions: InvariantError",
        "rational reconstruction: InvariantError",
        "root deflation: InvariantError"]
