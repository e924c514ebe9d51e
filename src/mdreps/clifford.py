"""Little-groups machine for the semidirect product Z^(n choose 2) x| Sym_n:
characters of the free-abelian subgroup, their symmetric-group stabilizers and
orbits, canonical coset transversals, induction to the full group, and the
small-dimension classification of irreducibles.

Subgroups, the 1-d characters of a subgroup and its orbits on the pairs
i < j are each one labelled closure, ``_closure``: a breadth-first walk from
one element whose steps carry factors, which labels each element with the
product along its first path and reports whether every path agreed.  The
labels are 1 for a subgroup, the values of a candidate character, which is
a character exactly when the paths agree, and the sign of a pair's image,
which disagrees on the orbits some element reverses.

Also home to the symmetric-group character machinery (partitions and the
Murnaghan-Nakayama rule) used for decomposing semisimple quotients.
"""

import itertools
from functools import reduce
from math import factorial, lcm, prod
from operator import mul

from .matrix import ExactMatrix, commutant_basis
from .mdd import (_apply_perm_to_pair, _cycle_lengths, all_permutations,
                  perm_adjacent, perm_compose, perm_identity, perm_inverse,
                  perm_sign, perm_to_adjacent_word)
from .presentations import SYM
from .scalar import RF, InvariantError, param, rf, zeta


# ---------------------------------------------------------------------------
# symmetric group characters (Murnaghan-Nakayama)

def partitions(n, cap=None):
    if cap is None:
        cap = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def _border_strips(lam, size):
    """All (new partition, height) after removing a border strip of the given
    size spanning consecutive rows of lam."""
    lam = list(lam)
    k = len(lam)
    out = []
    for start in range(k):
        for end in range(start, k):
            new = list(lam)
            removed = 0
            for r in range(start, end):
                removed += lam[r] - (lam[r + 1] - 1)
                new[r] = lam[r + 1] - 1
            last = size - removed
            if last < 1 or last > lam[end]:
                continue
            new[end] = lam[end] - last
            if any(new[i] < new[i + 1] for i in range(k - 1)) or new[end] < 0:
                continue
            out.append((tuple(x for x in new if x > 0), end - start))
    return out


_MN_CACHE = {}


def mn_character(lam, mu):
    """Character value chi_lam on the class of cycle type mu."""
    lam = tuple(lam)
    mu = tuple(sorted(mu, reverse=True))
    if not lam and not mu:
        return 1
    key = (lam, mu)
    if key in _MN_CACHE:
        return _MN_CACHE[key]
    t = mu[0]
    rest = mu[1:]
    total = 0
    for new, height in _border_strips(lam, t):
        total += (-1) ** height * mn_character(new, rest)
    _MN_CACHE[key] = total
    return total


def partition_dim(lam):
    return mn_character(lam, (1,) * sum(lam))


def centralizer_order(mu):
    """z_mu = prod_i i^(a_i) a_i!, a_i being the number of parts i of mu: the
    order of the centralizer of a permutation of cycle type mu, whose class
    has n!/z_mu elements."""
    return prod(i ** mu.count(i) * factorial(mu.count(i)) for i in set(mu))


# ---------------------------------------------------------------------------
# rational irreducible representations of the full symmetric group

def _perm_matrix_standard(w):
    """The (n-1)-dimensional standard representation in the basis
    e_i - e_{i+1}; integral entries."""
    n = len(w)
    cols = []
    for j in range(n - 1):
        a, b = w[j], w[j + 1]      # image of e_j - e_{j+1} is e_a - e_b
        coeffs = [0] * (n - 1)
        if a < b:
            for k in range(a, b):
                coeffs[k] = 1
        else:
            for k in range(b, a):
                coeffs[k] = -1
        cols.append(coeffs)
    rows = [[rf(cols[j][i]) for j in range(n - 1)] for i in range(n - 1)]
    return ExactMatrix(n - 1, 1, 1, rows)


_PAIRINGS4 = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def _s4_on_pairings(w):
    """Permutation of the three pair-partitions of {1..4} induced by w."""
    out = []
    for pairing in _PAIRINGS4:
        moved = tuple(tuple(sorted((w[a], w[b]))) for a, b in pairing)
        moved = tuple(sorted(moved))
        out.append(_PAIRINGS4.index(moved))
    return tuple(out)


class StabIrrep:
    """Irreducible representation of a subgroup of Sym_n, given elementwise."""

    __slots__ = ("label", "dim", "images")

    def __init__(self, label, images):
        self.label = label
        self.images = images
        self.dim = next(iter(images.values())).nrows

    def __call__(self, w):
        return self.images[w]

    def verify(self):
        ids = list(self.images)
        for g in ids:
            for h in ids:
                gh = perm_compose(g, h)
                if not (self.images[g] * self.images[h] - self.images[gh]).is_zero():
                    return False
        return True


def _scalar_irrep(label, values):
    return StabIrrep(label, {g: ExactMatrix(1, 1, 1, [[rf(v)]])
                             for g, v in values.items()})


def symmetric_group_irreps(n):
    """All irreducibles of the full Sym_n for n <= 4, as explicit rational (or
    cyclotomic) matrices computed elementwise."""
    elements = all_permutations(n)
    out = [_scalar_irrep("trivial", {g: 1 for g in elements})]
    if n >= 2:
        out.append(_scalar_irrep("sign", {g: perm_sign(g) for g in elements}))
    if n >= 3:
        std = {g: _perm_matrix_standard(g) for g in elements}
        out.append(StabIrrep("standard", std))
        out.append(StabIrrep("standard*sign",
                             {g: std[g].scale(perm_sign(g)) for g in elements}))
    if n == 4:
        two = {g: _perm_matrix_standard(_s4_on_pairings(g)) for g in elements}
        out.append(StabIrrep("pairing2d", two))
    return out


# ---------------------------------------------------------------------------
# subgroups and their irreducibles

def _closure(start, step):
    """The closure of start under step, labelled: step(x) yields pairs
    (y, f), start's label is 1 and y's is x's label times f, by the first
    path that reaches y.  Returns the labels, in breadth-first order, and
    whether every path gave every element that label."""
    labels = {start: 1}
    order = [start]
    consistent = True
    for x in order:
        for y, f in step(x):
            v = labels[x] * f
            if y not in labels:
                labels[y] = v
                order.append(y)
            elif labels[y] != v:
                consistent = False
    return labels, consistent


def subgroup_closure(gens, n):
    gens = list(gens)
    elems, _ = _closure(perm_identity(n),
                        lambda g: ((perm_compose(g, h), 1) for h in gens))
    return frozenset(elems)


def all_subgroups(n):
    """All subgroups of Sym_n (n <= 4: every subgroup is 2-generated)."""
    pairs = itertools.combinations_with_replacement(all_permutations(n), 2)
    found = {subgroup_closure(gens, n) for gens in pairs}
    return sorted(found, key=lambda H: (len(H), sorted(H)))


def subgroups_up_to_conjugacy(n):
    elements = all_permutations(n)
    reps = []
    seen = set()
    for H in all_subgroups(n):
        if H in seen:
            continue
        cls = set()
        for w in elements:
            wi = perm_inverse(w)
            cls.add(frozenset(perm_compose(perm_compose(w, h), wi) for h in H))
        seen |= cls
        reps.append(H)
    return reps


# The roots of unity of the tower, each once and in its own field; a
# generator of order o takes the values v with v^o = 1.
_ROOTS = (zeta(1), zeta(2), zeta(3), zeta(3) ** 2, zeta(4), zeta(4) ** 3,
          zeta(6), zeta(6) ** 5)


def _one_dim_characters(H, n):
    """All 1-d characters of a subgroup, with values among the supported
    roots of unity: each assignment of root values to a generating set,
    extended by the closure, is a character when every path agrees
    (characters of a nonabelian group factor through the abelianization
    automatically); distinct assignments give distinct characters."""
    gens = []
    span = subgroup_closure([], n)
    for g in sorted(H):
        if g not in span:
            gens.append(g)
            span = subgroup_closure(gens, n)
    candidates = [[v for v in _ROOTS if v ** lcm(*_cycle_lengths(g)) == 1]
                  for g in gens]
    chars = []
    for values in itertools.product(*candidates):
        table, consistent = _closure(
            perm_identity(n), lambda g: ((perm_compose(g, h), v)
                                         for h, v in zip(gens, values)))
        if consistent:
            chars.append(table)
    return chars


def irreps_of_subgroup(H, n):
    """Built-in irreducibles: complete for abelian subgroups and for the full
    symmetric group (n <= 4); all one-dimensionals for the remaining small
    subgroups (sufficient for the small-dimension classification)."""
    H = frozenset(H)
    full = frozenset(all_permutations(n))
    if H == full and 3 <= n <= 4:
        return symmetric_group_irreps(n)
    return [_scalar_irrep("char%d" % i, table)
            for i, table in enumerate(_one_dim_characters(H, n))]


# ---------------------------------------------------------------------------
# characters of the free-abelian subgroup

class Character:
    """Character of the rank-(n choose 2) free-abelian subgroup: a nonzero
    scalar value on each x_{ij}, i < j; the value on x_{ji} is the inverse."""

    __slots__ = ("n", "values")

    def __init__(self, n, values):
        self.n = n
        self.values = {}
        for (i, j), v in values.items():
            if not 1 <= i < j <= n:
                raise ValueError("character pair (%s, %s) is not 1 <= i < j "
                                 "<= %d" % (i, j, n))
            v = rf(v) if not isinstance(v, RF) else v
            if v.is_zero():
                raise ValueError("character values must be nonzero")
            self.values[(i, j)] = v

    @classmethod
    def from_vector(cls, n, vec):
        """Values listed in the order x_12, x_13, .., x_1n, x_23, .., x_{n-1,n}."""
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        if len(vec) != len(pairs):
            raise ValueError("rank %d needs %d character values, got %d"
                             % (n, len(pairs), len(vec)))
        return cls(n, dict(zip(pairs, vec)))

    def vector(self):
        return [self.values[p]
                for p in itertools.combinations(range(1, self.n + 1), 2)]

    def value(self, i, j):
        if i < j:
            return self.values[(i, j)]
        return self.values[(j, i)].inverse()

    def _acted_value(self, wi, i, j):
        """chi^w(x_{ij}) = chi(x_{w^-1(i) w^-1(j)}), given wi = w^-1; i and
        j in either order."""
        return self.value(wi[i - 1] + 1, wi[j - 1] + 1)

    def acted(self, w):
        """chi^w, whose values are ``_acted_value``'s."""
        wi = perm_inverse(w)
        return Character(self.n, {(i, j): self._acted_value(wi, i, j)
                                  for (i, j) in self.values})

    def __eq__(self, other):
        return self.n == other.n and self.values == other.values

    def __repr__(self):
        return "Character(%s)" % (["%s" % v for v in self.vector()],)


class StabilizerData:
    __slots__ = ("subgroup", "transversal")

    def __init__(self, subgroup, transversal):
        self.subgroup = subgroup
        self.transversal = transversal


def _transversal_key(t):
    moved = tuple(i for i in range(len(t)) if t[i] != i)
    return (len(moved), moved, t)


# The largest rank whose stabilizer ``orbit_and_stabilizer`` finds by
# walking all of Sym_n.
_RANK_BOUND = 6


def orbit_and_stabilizer(chi):
    """Stabilizer subgroup and a canonical coset transversal (representatives
    moving as few points as possible, smallest moved points first), read
    from one walk over Sym_n in ``_transversal_key`` order.  w and w' lie in
    one left coset of the stabilizer H iff chi^w = chi^w', so the walk's
    classes by chi^w are the cosets: H is the class of chi itself, and the
    first element of each class is its representative."""
    n = chi.n
    if n > _RANK_BOUND:
        raise ValueError("rank %d exceeds enumeration bound %d"
                         % (n, _RANK_BOUND))
    cosets = {}
    for w in sorted(all_permutations(n), key=_transversal_key):
        cosets.setdefault(tuple(chi.acted(w).vector()), []).append(w)
    stabset = frozenset(cosets[tuple(chi.vector())])
    transversal = [ws[0] for ws in cosets.values()]
    if len(transversal) * len(stabset) != factorial(n):
        raise InvariantError("%d cosets of a stabilizer of order %d do not "
                             "cover Sym_%d" % (len(transversal), len(stabset),
                                               n))
    return StabilizerData(stabset, transversal)


class InducedRep:
    """Induced representation: matrices for the x_{ij} and the adjacent
    transpositions, of dimension [Sym_n : H_chi] * dim tau."""

    __slots__ = ("n", "chi", "tau", "stab", "dim", "_x", "_sigma")

    def __init__(self, n, chi, tau, stab, x_images, sigma_images):
        self.n = n
        self.chi = chi
        self.tau = tau
        self.stab = stab
        self._x = x_images
        self._sigma = sigma_images
        self.dim = next(iter(x_images.values())).nrows

    def x(self, i, j):
        if i < j:
            return self._x[(i, j)]
        return _x_image(self.chi, self.stab.transversal, self.tau.dim, i, j)

    def sigma(self, i):
        return self._sigma[i]

    def perm(self, w):
        out = ExactMatrix.identity(self._sigma[1].N, self._sigma[1].rows_level)
        for i in perm_to_adjacent_word(w):
            out = out * self._sigma[i]
        return out

    def all_generators(self):
        gens = [self._x[k] for k in sorted(self._x)]
        gens += [self._sigma[i] for i in sorted(self._sigma)]
        return gens


def _x_image(chi, T, dt, i, j):
    """The block-diagonal image of x_{ij}, either order of i and j, over
    the transversal T: block b is chi^t(x_{ij}) times the dt x dt identity,
    for the b-th t in T.  For i > j it is the inverse of x_{ji}'s, as
    ``Character.value`` inverts an out-of-order pair."""
    M = ExactMatrix.zeros(len(T) * dt, 1)
    for b, t in enumerate(T):
        val = chi._acted_value(perm_inverse(t), i, j)
        for r in range(dt):
            M.rows[b * dt + r][b * dt + r] = val
    return M


def induce(chi, tau, stab):
    """Induce the character chi twisted by the irrep tau of its stabilizer
    (``stab``, from ``orbit_and_stabilizer``) up to the full semidirect
    product; verifies the defining relations of the group on the resulting
    matrices."""
    n = chi.n
    H = stab.subgroup
    T = stab.transversal
    dt = tau.dim
    dim = len(T) * dt
    x_images = {ij: _x_image(chi, T, dt, *ij) for ij in sorted(chi.values)}
    # symmetric-group generators: permuted blocks with tau cocycles
    sigma_images = {}
    for i in range(1, n):
        g = perm_adjacent(n, i)
        M = ExactMatrix.zeros(dim, 1)
        for bj, tj in enumerate(T):
            gtj = perm_compose(g, tj)
            for bi, ti in enumerate(T):
                h = perm_compose(perm_inverse(ti), gtj)
                if h in H:
                    blk = tau(h)
                    for r in range(dt):
                        for c in range(dt):
                            e = blk.rows[r][c]
                            if not e.is_zero():
                                M.rows[bi * dt + r][bj * dt + c] = e
                    break
        sigma_images[i] = M
    rep = InducedRep(n, chi, tau, stab, x_images, sigma_images)
    _verify_induced(rep)
    return rep


def _verify_induced(rep):
    """Raise InvariantError unless the induced matrices satisfy the defining
    relations of the group: the sigma images those of ``SYM.relations(n)``
    (an InvariantError names the failing relation id), the conjugation
    action on the x_{kl}, and commutation of the abelian part."""
    n = rep.n
    I = ExactMatrix.identity(rep.dim, 1)
    for rel_id, lhs, rhs in SYM.relations(n):
        lhs_M, rhs_M = (reduce(mul, [rep.sigma(i) for _, i in word] or [I])
                        for word in (lhs, rhs))
        if not (lhs_M - rhs_M).is_zero():
            raise InvariantError("induced sigma images fail %s" % rel_id)
    # conjugation: sigma_i x_{kl} sigma_i = x_{sigma_i(k) sigma_i(l)}
    for i in range(1, n):
        g = perm_adjacent(n, i)
        Si = rep.sigma(i)
        for (k, l) in sorted(rep.chi.values):
            a, b = g[k - 1] + 1, g[l - 1] + 1
            lhs = Si * rep.x(k, l) * Si
            if not (lhs - rep.x(a, b)).is_zero():
                raise InvariantError("sigma_%d x_%d%d sigma_%d is not x_%d%d"
                                     % (i, k, l, i, a, b))
    # abelian part commutes
    keys = sorted(rep.chi.values)
    for p1 in keys:
        for p2 in keys:
            A, B = rep.x(*p1), rep.x(*p2)
            if not (A * B - B * A).is_zero():
                raise InvariantError("induced x_%d%d and x_%d%d do not "
                                     "commute" % (p1 + p2))


def dimension_formula_holds(rep):
    return rep.dim == len(rep.stab.transversal) * rep.tau.dim


def is_irreducible(matrices, constraints=None):
    """True iff the commutant of the given generator images is 1-dimensional."""
    basis = commutant_basis(matrices, constraints)
    return len(basis) == 1


def restriction_character_multiset(rep):
    """Diagonal character data of the abelian restriction: for each block, the
    vector of values on x_12 < x_13 < ...; equals the orbit of chi with
    constant multiplicity."""
    out = []
    dt = rep.tau.dim
    nblocks = rep.dim // dt
    for b in range(nblocks):
        vec = []
        for key in sorted(rep.chi.values):
            vec.append(str(rep._x[key].rows[b * dt][b * dt]))
        out.extend([tuple(vec)] * dt)
    return sorted(out)


# ---------------------------------------------------------------------------
# classification of small-dimensional irreducibles

def _edge_orbits(H, n):
    """Orbits of H on undirected pairs, each member labelled with the sign
    of its image from the orbit's first pair, with a flag marking orbits
    where some element reverses an edge (forcing the value into {1,-1})."""
    orbit_of = {}
    orbits = []
    for p in itertools.combinations(range(1, n + 1), 2):
        if p in orbit_of:
            continue
        members, consistent = _closure(
            p, lambda q: (_apply_perm_to_pair(w, *q) for w in H))
        orbit_of.update(dict.fromkeys(members, len(orbits)))
        orbits.append({"members": members, "flipped": not consistent})
    return orbits, orbit_of


def _pattern_character(orbits, orbit_of, n, sign_choice, free_names):
    values = {}
    for (i, j), idx in orbit_of.items():
        orb = orbits[idx]
        sgn = orb["members"][(i, j)]
        if orb["flipped"]:
            v = rf(sign_choice[idx])
        else:
            base = param(free_names[idx])
            v = base if sgn == 1 else base.inverse()
        values[(i, j)] = v
    return Character(n, values)


def classify_small_dims(n, d):
    """Families of d-dimensional irreducibles (d <= 3, n <= 4) organized by
    stabilizer type via the dimension formula.  Entries carry kind 'family'
    (free continuous parameters present) or 'isolated'; isolated entries that
    coincide with boundary points of a family are flagged."""
    if n > 4 or d > 3:
        raise ValueError("classification implemented for n <= 4, d <= 3")
    fact = factorial(n)
    results = []
    for H in subgroups_up_to_conjugacy(n):
        index = fact // len(H)
        if index > d or d % index:
            continue
        dtau = d // index
        taus = [t for t in irreps_of_subgroup(H, n) if t.dim == dtau]
        if not taus:
            continue
        orbits, orbit_of = _edge_orbits(H, n)
        free = [i for i, o in enumerate(orbits) if not o["flipped"]]
        signed = [i for i, o in enumerate(orbits) if o["flipped"]]
        free_names = {i: "a%d" % k for k, i in enumerate(free)}
        # enumerate sign branches; keep those with stabilizer exactly H
        for combo in itertools.product((1, -1), repeat=len(signed)):
            chi = _pattern_character(orbits, orbit_of, n,
                                     dict(zip(signed, combo)), free_names)
            if len(orbit_and_stabilizer(chi).subgroup) != len(H):
                continue
            results.append({
                "dim": d,
                "stabilizer_order": len(H),
                "index": index,
                "free_params": len(free),
                "sign_choice": combo,
                "tau_choices": len(taus),
                "tau_dims": sorted(t.dim for t in taus),
                "kind": "family" if free else "isolated",
                "chi_vector": [str(v) for v in chi.vector()],
            })
    has_family = any(r["kind"] == "family" for r in results)
    for r in results:
        r["boundary_of_family"] = (r["kind"] == "isolated" and has_family
                                   and r["index"] == 1)
    return results
