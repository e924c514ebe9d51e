"""The semidirect-product model of the mixed-doubles group: normal forms
(exponent vector, permutation), the symmetric-group action with its sign rule,
the generator-word translations in both directions, and evaluation of group
elements in a matrix representation.

Permutations are tuples p with p[i] = image of i (0-based); products compose
right factor first: (p*q)(i) = p[q(i)].  Group indices i, j in x_{ij} are
1-based with i < j; the exponent of x_{ji} is minus that of x_{ij}.
"""

from functools import reduce
from itertools import permutations as _itperms
from operator import mul

from .matrix import ExactMatrix, embed_at
from .presentations import MIXED_DOUBLES, passes


# ---------------------------------------------------------------------------
# permutations

def perm_identity(n):
    return tuple(range(n))

def perm_compose(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))

def perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)

def perm_transposition(n, i, j):
    """The transposition (i j) on {1..n} as a 0-based tuple."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("bad transposition (%d %d) for n=%d" % (i, j, n))
    out = list(range(n))
    out[i - 1], out[j - 1] = j - 1, i - 1
    return tuple(out)

def perm_adjacent(n, i):
    return perm_transposition(n, i, i + 1)

def all_permutations(n):
    return [tuple(p) for p in _itperms(range(n))]

def _cycle_lengths(p):
    """The lengths of p's cycles, fixed points included: p's sign is -1 to
    the number of even ones, and its order is their lcm."""
    seen = [False] * len(p)
    for i in range(len(p)):
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        if ln:
            yield ln

def perm_sign(p):
    return -1 if sum(ln % 2 == 0 for ln in _cycle_lengths(p)) % 2 else 1

def perm_to_adjacent_word(p):
    """Indices i with p = product of sigma_i (applied right to left)."""
    p = list(p)
    word = []
    n = len(p)
    for _ in range(n * n):
        done = True
        for i in range(n - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i + 1)
                done = False
        if done:
            break
    # bubble sort built p back to identity: p = sigma_{w1} sigma_{w2} ...
    return word[::-1]


# ---------------------------------------------------------------------------
# group elements

def _apply_perm_to_pair(w, i, j):
    """Image of the generator index pair (i, j), i<j, under w (1-based);
    returns (pair, sign)."""
    a, b = w[i - 1] + 1, w[j - 1] + 1
    if a < b:
        return (a, b), 1
    return (b, a), -1


class GroupElement:
    """Normal form (X, w): X a finitely supported exponent vector on pairs
    i < j, w a permutation of {1..n}."""

    __slots__ = ("n", "exps", "perm")

    def __init__(self, n, exps=None, perm=None):
        self.n = n
        self.exps = {}
        if exps:
            for (i, j), e in exps.items():
                if e == 0:
                    continue
                if not (1 <= i < j <= n):
                    raise ValueError("bad pair (%d,%d) for n=%d" % (i, j, n))
                self.exps[(i, j)] = e
        self.perm = perm if perm is not None else perm_identity(n)

    @classmethod
    def identity(cls, n):
        return cls(n)

    @classmethod
    def x(cls, n, i, j, e=1):
        """x_{ij}^e; indices in either order, with x_{ji} = x_{ij}^-1."""
        if i == j or not (1 <= i <= n and 1 <= j <= n):
            raise ValueError("bad pair (%d,%d)" % (i, j))
        if i > j:
            i, j, e = j, i, -e
        return cls(n, {(i, j): e})

    @classmethod
    def sigma(cls, n, i):
        return cls(n, None, perm_adjacent(n, i))

    def act(self, w):
        """psi_w applied to the abelian part: x_{ij} -> x_{w(i)w(j)} with the
        sign flip when the image pair is out of order."""
        out = {}
        for (i, j), e in self.exps.items():
            pair, sg = _apply_perm_to_pair(w, i, j)
            out[pair] = out.get(pair, 0) + sg * e
        return out

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("rank mismatch: %d and %d" % (self.n, other.n))
        exps = dict(self.exps)
        for pair, e in other.act(self.perm).items():
            exps[pair] = exps.get(pair, 0) + e
        return GroupElement(self.n, exps, perm_compose(self.perm, other.perm))

    def inverse(self):
        wi = perm_inverse(self.perm)
        neg = GroupElement(self.n, {k: -e for k, e in self.exps.items()},
                           perm_identity(self.n))
        return GroupElement(self.n, neg.act(wi), wi)

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self.n == other.n
                and self.exps == other.exps and self.perm == other.perm)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.exps.items())), self.perm))

    def is_identity(self):
        return not self.exps and self.perm == perm_identity(self.n)

    def __repr__(self):
        bits = ["x%d%d^%d" % (i, j, e) for (i, j), e in sorted(self.exps.items())]
        return "(%s; %s)" % (" ".join(bits) or "1",
                             "".join(str(v + 1) for v in self.perm))


# ---------------------------------------------------------------------------
# generator words

def parse_word(text):
    """Parse whitespace-separated tokens like 's1 r2 s1^-1 x12^3'."""
    out = []
    for tok in text.split():
        if "^" in tok:
            base, exp = tok.split("^", 1)
            exp = int(exp)
        else:
            base, exp = tok, 1
        head, digits = base[:1], base[1:]
        if head in ("r", "s"):
            letter = (head, int(digits))
        elif head == "x" and ("," in digits or len(digits) == 2):
            i, j = digits.split(",") if "," in digits else digits
            letter = ("x", int(i), int(j))
        else:
            raise ValueError("bad token %r" % (tok,))
        out.append((letter, exp))
    return out


def format_word(word):
    bits = []
    for letter, exp in word:
        if letter[0] == "x":
            base = "x%d%d" % (letter[1], letter[2])
        else:
            base = "%s%d" % (letter[0], letter[1])
        bits.append(base if exp == 1 else "%s^%d" % (base, exp))
    return " ".join(bits)


def _x_word(n, i, j):
    """Word over {s_k, r_k} for x_{ij}: for i < j, r_i s_i conjugated by the
    chain s_{j-1} ... s_{i+1}; for i > j, x_{ji}^-1, which is x_{ji}'s word
    reversed, r and s being involutions."""
    if i > j:
        return _x_word(n, j, i)[::-1]
    chain = [("s", k) for k in range(j - 1, i, -1)]
    core = [("r", i), ("s", i)]
    return chain + core + chain[::-1]


def babeda_to_md(g, n=None):
    """Word in the r/s generators representing the group element g: the
    abelian part maps through x_{12} -> r_1 s_1 and its conjugates, the
    permutation part through adjacent transpositions."""
    n = g.n if n is None else n
    word = []
    for (i, j), e in sorted(g.exps.items()):
        word.extend((_x_word(n, i, j) if e > 0 else _x_word(n, j, i))
                    * abs(e))
    for i in perm_to_adjacent_word(g.perm):
        word.append(("s", i))
    return [(letter, 1) for letter in word]


def babeda_from_md(word, n):
    """Normal form of a generator word: s_i -> (1, sigma_i) and
    r_i -> (x_{i,i+1}, sigma_i), extended to x-letters directly.

    With this orientation the round trip through babeda_to_md is the
    identity on normal forms.
    """
    g = GroupElement.identity(n)
    if isinstance(word, str):
        word = parse_word(word)
    for letter, exp in word:
        if letter[0] == "x":
            g = g * GroupElement.x(n, letter[1], letter[2], exp)
        elif letter[0] not in ("r", "s"):
            raise ValueError("bad letter %r" % (letter,))
        elif not 1 <= letter[1] <= n - 1:
            raise ValueError("letter %s%d out of range for n=%d"
                             % (letter + (n,)))
        elif exp % 2:
            i = letter[1]
            if letter[0] == "r":
                g = g * GroupElement.x(n, i, i + 1)
            g = g * GroupElement.sigma(n, i)
    return g


def evaluate_in_rep(g_or_word, pair, n, check=True):
    """Image matrix of a group element or generator word under the level-n
    representation defined by the pair; the pair must satisfy the
    mixed-doubles relations at level n, which check=True verifies.  As in
    ``babeda_to_md``, x_{ij}^-1 is x_{ji}'s word (``_x_word``), so no
    matrix is inverted."""
    if check and not passes(pair, MIXED_DOUBLES, n):
        raise ValueError("pair %r fails the relations at level %d"
                         % (pair.provenance, n))
    if isinstance(g_or_word, GroupElement):
        word = babeda_to_md(g_or_word, n)
    elif isinstance(g_or_word, str):
        word = parse_word(g_or_word)
    else:
        word = g_or_word
    imgs = {}

    def image(letter):
        img = imgs.get(letter)
        if img is None:
            kind, i = letter
            img = imgs[letter] = embed_at(pair.R if kind == "r" else pair.S,
                                          i, n)
        return img

    M = None
    for letter, exp in word:
        if letter[0] == "x":
            i, j, e = letter[1], letter[2], exp
            if e < 0:
                i, j, e = j, i, -e
            if e == 0:
                continue
            F = reduce(mul, map(image, _x_word(n, i, j))).power(e)
        elif exp % 2 == 1:
            F = image(letter)
        else:
            continue
        M = F if M is None else M * F
    return ExactMatrix.identity(pair.N, n) if M is None else M


def md_defining_relation_words(n):
    """(id, word) for each relation of ``MIXED_DOUBLES.relations(n)``, in
    id order: lhs rhs^-1, which must map to the identity normal form.
    Every generator is an involution, so rhs^-1 is rhs reversed."""
    return [(rel_id, format_word([(letter, 1) for letter in lhs + rhs[::-1]]))
            for rel_id, lhs, rhs in MIXED_DOUBLES.relations(n)]


def random_element(n, rng, exp_bound=3):
    exps = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            e = rng.randint(-exp_bound, exp_bound)
            if e:
                exps[(i, j)] = e
    perm = list(range(n))
    rng.shuffle(perm)
    return GroupElement(n, exps, tuple(perm))


def word_automorphism(word, swap_letters=False, reverse_indices=None):
    """The order-2 word substitutions s_i <-> r_i and the simultaneous
    (s_i, r_i) <-> (s_{n-i}, r_{n-i}); they preserve the defining relations
    (a reported check, not an invariant of every matrix pair)."""
    if isinstance(word, str):
        word = parse_word(word)
    out = []
    for letter, exp in word:
        if letter[0] == "x":
            raise ValueError("word automorphisms act on s/r letters only")
        sym, i = letter
        if swap_letters:
            sym = "r" if sym == "s" else "s"
        if reverse_indices is not None:
            i = reverse_indices - i
        out.append(((sym, i), exp))
    return out
