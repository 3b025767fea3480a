"""Independent computations the benchmark checks weylalt's answers against.

Nothing here imports weylalt. Root data come from the Dynkin tables below
(Bourbaki numbering, the same as weylalt's), weights are integer vectors in
fundamental-weight coordinates, and roots are integer vectors in simple-root
coordinates. The Cartan convention is C[i][j] = <alpha_j, alpha_i^vee>, so
column j of C holds the fundamental coordinates of alpha_j and the simple
reflection s_i sends a weight a to a - a_i * C[:, i].

The computations:

* positive roots by simple-root strings, grouped by height;
* alternation sets by an integer walk over the left weak order;
* Freudenthal's recursion on dominant weights, spread over Weyl orbits
  (Humphreys, Introduction to Lie Algebras and Representation Theory, 22.3);
* the Weyl dimension formula (Humphreys 24.3);
* Kostant's q-partition function over a box, by one unbounded-knapsack pass
  per positive root on Kronecker-packed integers;
* the exponents of each type, from the standard table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

EXCEPTIONAL_RANKS = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}

# Exponents (Bourbaki, Lie Groups and Lie Algebras, ch. VI, Plate I-IX).
_EXCEPTIONAL_EXPONENTS = {
    "G2": (1, 5),
    "F4": (1, 5, 7, 11),
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}


def exponents(type_label: str, rank: int) -> tuple[int, ...]:
    if type_label == "A":
        return tuple(range(1, rank + 1))
    if type_label in ("B", "C"):
        return tuple(range(1, 2 * rank, 2))
    if type_label == "D":
        return tuple(sorted(list(range(1, 2 * rank - 2, 2)) + [rank - 1]))
    return _EXCEPTIONAL_EXPONENTS[type_label]


def gram_matrix(type_label: str, rank: int) -> tuple[tuple[Fraction, ...], ...]:
    """(alpha_i, alpha_j) for the simple roots, normalized as weylalt realizes
    them: long roots of the simply laced and classical types have length^2 2."""
    g = [[Fraction(0)] * rank for _ in range(rank)]

    def edge(i, j, value):
        g[i - 1][j - 1] = g[j - 1][i - 1] = Fraction(value)

    if type_label in ("A", "B", "C", "D"):
        for i in range(1, rank + 1):
            g[i - 1][i - 1] = Fraction(2)
        for i in range(1, rank - 1):
            edge(i, i + 1, -1)
        if type_label == "A":
            if rank > 1:
                edge(rank - 1, rank, -1)
        elif type_label == "B":
            g[rank - 1][rank - 1] = Fraction(1)
            edge(rank - 1, rank, -1)
        elif type_label == "C":
            g[rank - 1][rank - 1] = Fraction(4)
            edge(rank - 1, rank, -2)
        else:
            edge(rank - 2, rank, -1)
    elif type_label == "G2":
        g[0][0], g[1][1] = Fraction(2), Fraction(6)
        edge(1, 2, -3)
    elif type_label == "F4":
        for i, norm in enumerate((2, 2, 1, 1)):
            g[i][i] = Fraction(norm)
        edge(1, 2, -1)
        edge(2, 3, -1)
        edge(3, 4, Fraction(-1, 2))
    elif type_label in ("E6", "E7", "E8"):
        for i in range(rank):
            g[i][i] = Fraction(2)
        edge(1, 3, -1)
        edge(2, 4, -1)
        for i in range(3, rank):
            edge(i, i + 1, -1)
    else:
        raise ValueError(f"unknown type {type_label!r}")
    return tuple(tuple(row) for row in g)


def _invert(m):
    n = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


class RootData:
    """Root data of one type, built from its Dynkin table alone."""

    def __init__(self, type_label: str, rank: int):
        if type_label in EXCEPTIONAL_RANKS and rank != EXCEPTIONAL_RANKS[type_label]:
            raise ValueError(f"{type_label} has rank {EXCEPTIONAL_RANKS[type_label]}")
        self.type_label = type_label
        self.rank = rank
        self.gram = gram_matrix(type_label, rank)
        self.cartan = tuple(
            tuple(int(2 * self.gram[i][j] / self.gram[i][i]) for j in range(rank))
            for i in range(rank))
        self.cartan_inverse = _invert(self.cartan)
        self.positive_roots = self._positive_roots()
        # Inner product of weights in fundamental coordinates, scaled to
        # integers: (a, b) = a^T F b / scale with F = C^-T G C^-1.
        cinv, g = self.cartan_inverse, self.gram
        f = [[sum(cinv[k][i] * g[k][l] * cinv[l][j]
                  for k in range(rank) for l in range(rank))
              for j in range(rank)] for i in range(rank)]
        scale = lcm(*(x.denominator for row in f for x in row))
        self._ip = tuple(tuple(int(x * scale) for x in row) for row in f)

    # --- coordinates ---

    def root_to_weight(self, c) -> tuple[int, ...]:
        """Fundamental coordinates of sum c_j alpha_j."""
        return tuple(sum(self.cartan[i][j] * c[j] for j in range(self.rank))
                     for i in range(self.rank))

    def weight_to_root(self, a) -> tuple[Fraction, ...]:
        """Simple-root coordinates of a weight, exact."""
        return tuple(sum(self.cartan_inverse[i][j] * a[j] for j in range(self.rank))
                     for i in range(self.rank))

    def ip(self, a, b) -> int:
        """Scaled inner product of two weights in fundamental coordinates."""
        return sum(a[i] * self._ip[i][j] * b[j]
                   for i in range(self.rank) for j in range(self.rank))

    def reflect(self, a, i: int) -> tuple[int, ...]:
        """s_i (0-based i) on a weight in fundamental coordinates."""
        ai = a[i]
        if not ai:
            return tuple(a)
        return tuple(a[k] - ai * self.cartan[k][i] for k in range(self.rank))

    def dominant(self, a) -> tuple[int, ...]:
        a = tuple(a)
        while True:
            i = next((k for k, x in enumerate(a) if x < 0), None)
            if i is None:
                return a
            a = self.reflect(a, i)

    def orbit(self, a) -> set[tuple[int, ...]]:
        seen = {tuple(a)}
        frontier = [tuple(a)]
        while frontier:
            nxt = []
            for u in frontier:
                for i in range(self.rank):
                    v = self.reflect(u, i)
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    # --- roots ---

    def _positive_roots(self) -> tuple[tuple[int, ...], ...]:
        """By height: beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0,
        with p the length of the alpha_i-string below beta."""
        r = self.rank
        simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        roots = set(simple)
        level = simple
        ordered = list(simple)
        while level:
            nxt = []
            for beta in level:
                pairing = self.root_to_weight(beta)
                for i in range(r):
                    p = 0
                    below = list(beta)
                    while True:
                        below[i] -= 1
                        if tuple(below) not in roots:
                            break
                        p += 1
                    if p - pairing[i] > 0:
                        up = list(beta)
                        up[i] += 1
                        up = tuple(up)
                        if up not in roots:
                            roots.add(up)
                            nxt.append(up)
            nxt.sort()
            ordered.extend(nxt)
            level = nxt
        return tuple(ordered)

    def highest_root(self) -> tuple[int, ...]:
        """The highest root in simple-root coordinates."""
        return max(self.positive_roots, key=sum)

    def rho(self) -> tuple[int, ...]:
        return (1,) * self.rank


@lru_cache(maxsize=None)
def root_data(type_label: str, rank: int) -> RootData:
    return RootData(type_label, rank)


# --- alternation sets ---

def alternation_walk(rd: RootData, lam, mu) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (word, xi) with xi = w(lam+rho) - (mu+rho) in Q+, xi in simple-root
    coordinates and word the lex-least reduced word of w.

    Walks the left weak order from the identity: a child s_i w is taken when i
    is a left ascent of w (w(lam+rho)_i > 0) and the least left descent of
    s_i w. With lam dominant, lam+rho is strictly dominant, so each ascent
    lowers xi_i by w(lam+rho)_i > 0 and the survivors form an order ideal:
    the walk stops at the first negative coordinate.
    """
    r = rd.rank
    if any(x < 0 for x in lam):
        raise ValueError("the walk needs a dominant lam")
    diff = rd.weight_to_root([a - b for a, b in zip(lam, mu)])
    if any(c.denominator != 1 or c < 0 for c in diff):
        return []
    start_x = tuple(a + 1 for a in lam)
    start_y = tuple(int(c) for c in diff)
    cartan = rd.cartan
    out = []
    stack = [((), start_x, start_y)]
    while stack:
        word, x, y = stack.pop()
        out.append((word, y))
        for i in range(r):
            xi = x[i]
            if xi <= 0 or y[i] < xi:
                continue
            nx = tuple(x[k] - xi * cartan[k][i] for k in range(r))
            if any(nx[j] < 0 for j in range(i)):
                continue
            ny = y[:i] + (y[i] - xi,) + y[i + 1:]
            stack.append(((i + 1,) + word, nx, ny))
    out.sort()
    return out


def apply_word(rd: RootData, word, a) -> tuple[int, ...]:
    """w(a) for w = s_word[0] ... s_word[-1] (1-based letters)."""
    for i in reversed(word):
        a = rd.reflect(a, i - 1)
    return tuple(a)


def fibonacci(n: int) -> int:
    """F_n with F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def nonconsecutive_words(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Increasing tuples inside lo..hi with no two consecutive members."""
    out = [()]
    for i in range(lo, hi + 1):
        out += [w + (i,) for w in out if not w or w[-1] < i - 1]
    return sorted(out)


# --- multiplicities ---

def dominant_multiplicities(rd: RootData, lam) -> dict[tuple[int, ...], int]:
    """m(lam, mu) for every dominant mu <= lam, by Freudenthal's recursion.

    Every dominant mu in lam - Q+ is a weight of L(lam), and the dominant
    weights below lam are connected by subtracting positive roots, so a
    search from lam finds them all. Values are computed in order of
    increasing height of lam - mu; m(mu + k alpha) is read at the dominant
    representative, and alpha-strings of weights are unbroken.
    """
    lam = tuple(lam)
    r = rd.rank
    roots_w = [rd.root_to_weight(c) for c in rd.positive_roots]
    heights = [sum(c) for c in rd.positive_roots]
    depth = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for alpha, h in zip(roots_w, heights):
                nu = tuple(m - a for m, a in zip(mu, alpha))
                if min(nu) < 0 or nu in depth:
                    continue
                depth[nu] = depth[mu] + h
                nxt.append(nu)
        frontier = nxt
    rho = (1,) * r
    lr = tuple(a + 1 for a in lam)
    norm_top = rd.ip(lr, lr)
    mult = {lam: 1}
    for mu in sorted(depth, key=lambda m: (depth[m], m)):
        if mu == lam:
            continue
        num = 0
        for alpha in roots_w:
            nu = mu
            while True:
                nu = tuple(a + b for a, b in zip(nu, alpha))
                m = mult.get(rd.dominant(nu))
                if m is None:
                    break
                num += m * rd.ip(nu, alpha)
        mr = tuple(a + b for a, b in zip(mu, rho))
        den = norm_top - rd.ip(mr, mr)
        value, rem = divmod(2 * num, den)
        if rem:
            raise ArithmeticError(f"Freudenthal quotient not integral at {mu}")
        mult[mu] = value
    return mult


def weight_diagram(rd: RootData, lam) -> dict[tuple[int, ...], int]:
    """Every weight of L(lam) with its multiplicity, fundamental coordinates."""
    out = {}
    for mu, m in dominant_multiplicities(rd, lam).items():
        if m:
            for nu in rd.orbit(mu):
                out[nu] = m
    return out


def weyl_dimension(rd: RootData, lam) -> int:
    """prod over alpha > 0 of (lam+rho, alpha) / (rho, alpha)."""
    rho = rd.rho()
    lr = tuple(a + 1 for a in lam)
    value = Fraction(1)
    for c in rd.positive_roots:
        alpha = rd.root_to_weight(c)
        value *= Fraction(rd.ip(lr, alpha), rd.ip(rho, alpha))
    if value.denominator != 1:
        raise ArithmeticError("Weyl dimension not integral")
    return int(value)


# --- q-analog of Kostant's partition function ---

def _knapsack(top, roots, bits: int):
    """Table over the box [0, top]: entry x is sum over decompositions of x
    into positive roots of 2^(bits * parts); bits = 0 counts them."""
    n_last = top[-1] + 1
    prefixes = list(product(*(range(t + 1) for t in top[:-1])))
    where = {p: k for k, p in enumerate(prefixes)}
    rows = [[0] * n_last for _ in prefixes]
    rows[0][0] = 1
    for beta in roots:
        head, tail = beta[:-1], beta[-1]
        for k, p in enumerate(prefixes):
            src_key = tuple(a - b for a, b in zip(p, head))
            if src_key and min(src_key) < 0:
                continue
            src, row = rows[where[src_key]], rows[k]
            if src is row:  # beta is a multiple of the last simple root
                for j in range(tail, n_last):
                    row[j] += row[j - tail] << bits
            else:
                for j in range(tail, n_last):
                    row[j] += src[j - tail] << bits
    return rows, where


class PartitionBox:
    """P_q for every vector of the box [0, top] in simple-root coordinates."""

    def __init__(self, rd: RootData, top):
        self.top = tuple(top)
        roots = rd.positive_roots
        counts, _ = _knapsack(self.top, roots, 0)
        self.bits = max(max(row) for row in counts).bit_length() + 1
        self._rows, self._where = _knapsack(self.top, roots, self.bits)

    def coefficients(self, xi) -> list[int]:
        """Coefficients of P_q(xi), constant term first, trimmed."""
        if any(x < 0 or x > t for x, t in zip(xi, self.top)):
            raise ValueError(f"{xi} outside the box {self.top}")
        packed = self._rows[self._where[tuple(xi[:-1])]][xi[-1]]
        mask = (1 << self.bits) - 1
        out = []
        while packed:
            out.append(packed & mask)
            packed >>= self.bits
        return out


def poly_add(a, b, sign=1) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += sign * c
    while out and out[-1] == 0:
        out.pop()
    return out
