"""The permutation-group rules of ``clifford`` and ``mdd`` from before they
were written once: a closure loop each in ``subgroup_closure``,
``_one_dim_characters`` and ``_edge_orbits``, two cycle walks
(``_element_order`` and ``perm_sign``) and per-order lists of roots of
unity; and ``orbit_and_stabilizer`` from before it read the stabilizer
and the transversal from one walk, with its ``_stabilizer`` walk and its
frozenset cosets.  The bodies are the old ones, kept as the oracle of the
differential tests in ``test_clifford``.  One difference is known: the old
filter gives a generator of order 6 eight values, zeta_6^2 and zeta_6^4
being Q(zeta_6) copies of zeta_3 and zeta_3^2.
"""

from fractions import Fraction
from math import factorial

from mdreps.clifford import _RANK_BOUND, StabilizerData, _transversal_key
from mdreps.mdd import all_permutations, perm_compose, perm_identity
from mdreps.scalar import InvariantError, zeta


def subgroup_closure(gens, n):
    elems = {perm_identity(n)}
    frontier = list(elems)
    gens = list(gens)
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                x = perm_compose(g, h)
                if x not in elems:
                    elems.add(x)
                    new.append(x)
        frontier = new
    return frozenset(elems)


def all_subgroups(n):
    """All subgroups of Sym_n (n <= 4: every subgroup is 2-generated)."""
    elements = all_permutations(n)
    found = set()
    for g in elements:
        found.add(subgroup_closure([g], n))
    for g in elements:
        for h in elements:
            found.add(subgroup_closure([g, h], n))
    return sorted(found, key=lambda H: (len(H), sorted(H)))


def _element_order(g):
    n = len(g)
    e = perm_identity(n)
    p, k = g, 1
    while p != e:
        p = perm_compose(p, g)
        k += 1
    return k


def _one_dim_characters(H, n):
    """All 1-d characters of a subgroup, with values among the supported
    roots of unity; found by assigning root values to a generating set and
    propagating with consistency checks (characters of a nonabelian group
    factor through the abelianization automatically)."""
    H = sorted(H)
    # greedy generating set
    gens = []
    span = subgroup_closure([], n)
    for g in H:
        if g not in span:
            gens.append(g)
            span = subgroup_closure(gens, n)
        if len(span) == len(H):
            break
    roots = {1: [Fraction(1)], 2: [Fraction(1), Fraction(-1)]}
    for m in (3, 4, 6):
        roots[m] = [zeta(m) ** k for k in range(m)]
    candidate_values = []
    for g in gens:
        o = _element_order(g)
        vals = []
        for m, rs in roots.items():
            if m > o:
                continue
            for v in rs:
                if v ** o == 1 and v not in vals:
                    vals.append(v)
        candidate_values.append(vals)
    chars = []
    seen = set()

    def assign(idx, current):
        if idx == len(gens):
            # extend to all elements by word search
            table = {perm_identity(n): Fraction(1)}
            frontier = [perm_identity(n)]
            while frontier:
                new = []
                for g in frontier:
                    for gen, val in zip(gens, current):
                        x = perm_compose(g, gen)
                        v = table[g] * val
                        if x in table:
                            if table[x] != v:
                                return
                        else:
                            table[x] = v
                            new.append(x)
                frontier = new
            if len(table) != len(H):
                return
            key = tuple(sorted((g, str(v)) for g, v in table.items()))
            if key not in seen:
                seen.add(key)
                chars.append(table)
            return
        for v in candidate_values[idx]:
            assign(idx + 1, current + [v])

    assign(0, [])
    return chars


def _edge_orbits(H, n):
    """Orbits of H on undirected pairs, with a flag marking orbits where some
    element reverses an edge (forcing the value into {1,-1})."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    orbit_of = {}
    orbits = []
    for p in pairs:
        if p in orbit_of:
            continue
        idx = len(orbits)
        members = {}
        frontier = [(p, 1)]
        members[p] = 1
        flipped = False
        while frontier:
            (i, j), sign = frontier.pop()
            for w in H:
                a, b = w[i - 1] + 1, w[j - 1] + 1
                s2 = sign
                if a > b:
                    a, b = b, a
                    s2 = -sign
                if (a, b) in members:
                    if members[(a, b)] != s2:
                        flipped = True
                else:
                    members[(a, b)] = s2
                    frontier.append(((a, b), s2))
        for q in members:
            orbit_of[q] = idx
        orbits.append({"members": members, "flipped": flipped})
    return orbits, orbit_of


def perm_sign(p):
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def _stabilizer(chi):
    """The permutations w of Sym_n with chi^w = chi."""
    return frozenset(w for w in all_permutations(chi.n) if chi.acted(w) == chi)


def orbit_and_stabilizer(chi):
    """Stabilizer subgroup and a canonical coset transversal (representatives
    moving as few points as possible, smallest moved points first)."""
    n = chi.n
    if n > _RANK_BOUND:
        raise ValueError("rank %d exceeds enumeration bound %d"
                         % (n, _RANK_BOUND))
    stabset = _stabilizer(chi)
    cosets = {}
    for w in sorted(all_permutations(n), key=_transversal_key):
        key = frozenset(perm_compose(w, h) for h in stabset)
        if key not in cosets:
            cosets[key] = w
    transversal = sorted(cosets.values(), key=_transversal_key)
    if len(transversal) * len(stabset) != factorial(n):
        raise InvariantError("%d cosets of a stabilizer of order %d do not "
                             "cover Sym_%d" % (len(transversal), len(stabset),
                                               n))
    return StabilizerData(stabset, transversal)
