"""The analysis rules of ``structure`` from before they were written once:
the marker-column coordinate reader ``_span_coords``, the two breadth-first
spins (``_spin_dim`` over vectors, ``generated_algebra`` over matrices),
the Krylov chain of ``_annihilator`` with its own dense row loop, and
``endo_ring_local`` forming m^2 products for its trace Gram matrix.  The
bodies are the old ones, kept as the oracle of the differential tests in
``test_structure`` and of its Fraction-route oracles.
"""

from collections import deque
from fractions import Fraction

from mdreps.matrix import Echelon, ExactMatrix, _int_form, _scaled_product, \
    nullspace
from mdreps.scalar import InvariantError
from mdreps.structure import _ALGEBRA_BOUND, _flat
from mdreps.upoly import _primitive


def endo_ring_local(basis, constraints=None):
    """True iff the algebra spanned by the commutant basis has semisimple
    quotient of dimension 1 (radical = kernel of the trace form), which
    certifies indecomposability; exact over Q at numeric points."""
    m = len(basis)
    gram = ExactMatrix.from_rows([[(basis[i] * basis[j]).trace()
                                   for j in range(m)] for i in range(m)],
                                 N=m, rows_level=1, cols_level=1)
    r = m - len(nullspace(gram, constraints))
    return r == 1


def _annihilator(A, D, v):
    """The annihilator of the integer vector v under M = A / D, as a
    primitive integer list: the least-degree p with p(M) v = 0.  The
    Krylov chain runs on the integer rows A, marker column d+j tagging
    A^j v; a relation sum r_j A^j v = 0 is the relation
    sum r_j D^j M^j v = 0."""
    d = len(A)
    nz = [[(j, a) for j, a in enumerate(row) if a] for row in A]
    chain = Echelon(bound=d)
    j = 0
    while True:
        row = {i: x for i, x in enumerate(v) if x}
        row[d + j] = 1
        rel = chain.insert(row)
        if rel is not None:
            break
        v = [sum(a * v[k] for k, a in arow) for arow in nz]
        j += 1
    return _primitive([rel.get(d + k, 0) * D ** k for k in range(j + 1)])


def _span_coords(span, row, k):
    """(c, den): the coordinates c / den of a vector in the span of k stored
    rows, as integers over one positive denominator.  Stored row j carries
    its scale at marker column ``span.bound + j``, and ``row`` (the vector
    times its scale) carries its scale at ``span.bound + k``; the residual
    of ``row`` is then den (0 | -coordinates | 1) for some den > 0."""
    res = span.reduce(row)
    b = span.bound
    if any(c < b for c in res):
        raise InvariantError("vector not in the span")
    return [-res.get(b + j, 0) for j in range(k)], res[b + k]


def _spin_dim(v, gens):
    """Dimension of the least subspace that contains the integer vector v
    and is invariant under the integer matrices gens (lists of rows),
    computed until it is the whole space."""
    d = len(v)
    nzs = [[[(j, a) for j, a in enumerate(row) if a] for row in G]
           for G in gens]
    span = Echelon()
    span.insert(dict(enumerate(v)))
    queue = deque([v])
    while queue and len(span.rows) < d:
        w = queue.popleft()
        for nz in nzs:
            u = [sum(a * w[k] for k, a in row) for row in nz]
            if span.insert(dict(enumerate(u))) is None:
                queue.append(u)
    return len(span.rows)


def generated_algebra(mats):
    """Basis (as Fraction row-lists) of the unital algebra generated by the
    given constant matrices, by span closure under products (ValueError past
    ``_ALGEBRA_BOUND`` elements).  The closure multiplies (integer matrix,
    denominator) pairs."""
    d = mats[0].nrows
    gens = [_int_form(M) for M in mats]
    span = Echelon()
    basis = []
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    queue = deque([(ident, 1)] + gens)
    while queue:
        A, D = queue.popleft()
        if span.insert(_flat(A)) is None:
            basis.append([[Fraction(x, D) for x in row] for row in A])
            if len(basis) > _ALGEBRA_BOUND:
                raise ValueError("algebra closure exceeds bound")
            for G, DG in gens:
                queue.append(_scaled_product(A, D, G, DG))
                queue.append(_scaled_product(G, DG, A, D))
    return basis
