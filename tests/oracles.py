"""Slow, independent references that the tests check the library against.

Breadth-first enumeration of the whole Weyl group checks the weak-order walk
that finds alternation sets, and the Fraction orbit of omega_1 the weight
diagrams of B_r; a Fraction solve in ambient coordinates checks the integer
start the walk begins from; a memoized recursion over a permuted root list
checks the P_q table; Kostka-Foulkes polynomials by charge check the q-analog
of weight multiplicity in type A; Freudenthal's recursion and the Weyl
dimension formula check weight multiplicities and diagrams in every type.
None of them imports weylalt.multiplicity or the table behind
kostant.partition_q, so none shares the code it checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterator, Sequence

from weylalt import lattice
from weylalt.errors import CapExceeded, NotInRootSpan
from weylalt.kostant import QPolynomial
from weylalt.lattice import Vector
from weylalt.rootsystem import (RootSystem, coroot_pairings, is_dominant_integral,
                                to_fundamental_coords, to_simple_root_coords)
from weylalt.weyl import WeylElement, generators, group_order


# === the Weyl group ===

# the enumeration's own limit on |W|, apart from the library's node cap: it
# keeps B8, E7 and E8 from being enumerated by accident
GROUP_CAP = 2_000_000


def enumerate_group(rs: RootSystem, cap: int = GROUP_CAP) -> Iterator[WeylElement]:
    """Yield every element once, in nondecreasing length, words lex-least.

    Raises CapExceeded up front when the group order surpasses cap. The
    search is keyed on w^-1(rho): rho is regular, so the keys are in
    bijection with W, and the child w*s_g has key s_g(w^-1(rho)), one
    reflection away.
    """
    order = group_order(rs)
    if order > cap:
        raise CapExceeded(f"|W({rs})| = {order} exceeds cap {cap}")
    gens = generators(rs)
    ident = WeylElement((), rs)
    seen = {rs.rho}
    frontier = [(ident, rs.rho)]
    yield ident
    while frontier:
        new_frontier = []
        for w, key in frontier:
            for g in gens:
                child_key = g.act(key)
                if child_key in seen:
                    continue
                seen.add(child_key)
                element = WeylElement(w.word + g.word, rs)
                new_frontier.append((element, child_key))
                yield element
        frontier = new_frontier


def inversion_length(w: WeylElement, rs: RootSystem) -> int:
    """Number of positive roots sent negative; equals len(w.word)."""
    positives = set(rs.positive_roots)
    return sum(1 for alpha in rs.positive_roots if w.act(alpha) not in positives)


def orbit(v: Vector, rs: RootSystem) -> frozenset[Vector]:
    """The Weyl orbit of an ambient vector, closed under the Fraction action
    of the simple reflections."""
    gens = generators(rs)
    seen = {v}
    frontier = [v]
    while frontier:
        new_frontier = []
        for u in frontier:
            for g in gens:
                image = g.act(u)
                if image not in seen:
                    seen.add(image)
                    new_frontier.append(image)
        frontier = new_frontier
    return frozenset(seen)


def ambient_start(lam: Vector, mu: Vector, rs: RootSystem):
    """The walk's start for ambient lambda and mu by a Fraction solve.

    lambda+rho is reflected in ambient coordinates at its least negative
    coroot pairing until it is a dominant nu, so lambda+rho = w(nu). The
    start is xi = nu - (mu+rho) in simple-root coordinates and nu's pairings,
    both over their least common denominator, the 0-based indices of the
    reflections in the order applied, and that denominator. None when
    lambda - mu is outside the root span, which leaves no survivors.
    """
    try:
        to_simple_root_coords(lattice.sub(lam, mu), rs)
    except NotInRootSpan:
        return None
    nu, steps = lattice.add(lam, rs.rho), []
    while min(pairings := coroot_pairings(nu, rs)) < 0:
        i = min(j for j, c in enumerate(pairings) if c < 0)
        steps.append(i)
        nu = lattice.sub(nu, lattice.scale(pairings[i], rs.simple_roots[i]))
    xi = to_simple_root_coords(lattice.sub(nu, lattice.add(mu, rs.rho)), rs)
    scale = lcm(*(c.denominator for c in xi + pairings))
    return (tuple(int(c * scale) for c in xi),
            tuple(int(c * scale) for c in pairings), tuple(steps), scale)


# === the q-analog of the Kostant partition function ===

def _recurse(target: tuple[int, ...], index: int,
             roots: Sequence[tuple[int, ...]],
             memo: dict[tuple[tuple[int, ...], int], tuple[int, ...]]
             ) -> tuple[int, ...]:
    """Coefficients of P_q(target) using roots[index:] only; memo is per call."""
    if not any(target):
        return (1,)
    if index == len(roots):
        return ()
    key = (target, index)
    hit = memo.get(key)
    if hit is not None:
        return hit
    acc = list(_recurse(target, index + 1, roots, memo))
    root = roots[index]
    current = target
    multiplicity = 0
    while True:
        reduced = tuple(a - b for a, b in zip(current, root))
        if any(c < 0 for c in reduced):
            break
        multiplicity += 1
        sub = _recurse(reduced, index + 1, roots, memo)
        need = multiplicity + len(sub)
        if len(acc) < need:
            acc.extend([0] * (need - len(acc)))
        for power, c in enumerate(sub):
            acc[multiplicity + power] += c
        current = reduced
    while acc and acc[-1] == 0:
        acc.pop()
    result = tuple(acc)
    memo[key] = result
    return result


def partition_q_recursive(xi: Vector, rs: RootSystem,
                          root_order: Sequence[int]) -> QPolynomial:
    """The memoized recursion over the positive roots in root_order, a
    permutation of their indices (ValueError otherwise). Same contract as
    partition_q, whose value must not depend on the order."""
    roots = rs.positive_root_alpha_coords
    if sorted(root_order) != list(range(len(roots))):
        raise ValueError("root_order must be a permutation of the positive roots")
    try:
        coords = to_simple_root_coords(xi, rs)
    except NotInRootSpan:
        return QPolynomial.zero()
    if any(c.denominator != 1 or c < 0 for c in coords):
        return QPolynomial.zero()
    coords = tuple(int(c) for c in coords)
    return QPolynomial(_recurse(coords, 0, tuple(roots[i] for i in root_order), {}))


# === Freudenthal's formula and the Weyl dimension formula ===

def weyl_dimension(lam: Vector, rs: RootSystem) -> Fraction:
    """The product over alpha > 0 of (lambda+rho, alpha) / (rho, alpha) in
    ambient coordinates: the dimension of the irreducible module of dominant
    integral lambda (Humphreys, Lie Algebras, 24.3)."""
    shifted = lattice.add(lam, rs.rho)
    dimension = Fraction(1)
    for alpha in rs.positive_roots:
        dimension *= lattice.dot(shifted, alpha) / lattice.dot(rs.rho, alpha)
    return dimension


def freudenthal(lam: Vector, rs: RootSystem) -> dict[Vector, int]:
    """The multiplicity at every dominant weight mu <= lambda of the
    irreducible module of dominant integral lambda, keyed by ambient mu, by
    Freudenthal's recursion (Humphreys, 22.3):

        ((lambda+rho, lambda+rho) - (mu+rho, mu+rho)) m(mu)
            = 2 sum over alpha > 0 and k >= 1 of (mu + k alpha, alpha) m(mu + k alpha).

    A weight is held as c, the simple-root coordinates of lambda - mu, so
    the recursion runs in integers: mu's fundamental coordinates are
    lambda's less C c, and s_i adds mu_i to c_i. m(nu) is m at the dominant
    weight of nu's orbit (21.2), and nu is a weight exactly when that
    weight's c is nonnegative (21.3), so the sum over k stops at the first
    k that leaves the unbroken alpha-string. Twice the form is
    sum_j x_j y_j |alpha_j|^2 for x in fundamental and y in simple-root
    coordinates. The weights are joined by simple-root steps, and taking
    each to its dominant weight turns such a chain into steps of plus or
    minus a root, so those steps from lambda reach every dominant weight.
    """
    if not is_dominant_integral(lam, rs):
        raise ValueError(f"{lam} is not a dominant integral weight of {rs}")
    top = [int(c) for c in to_fundamental_coords(lam, rs)]
    cartan = rs.cartan_matrix
    roots = [(a, tuple(sum(map(mul, row, a)) for row in cartan))
             for a in rs.positive_root_alpha_coords]
    norms = [lattice.dot(alpha, alpha) for alpha in rs.simple_roots]

    def below(c):  # mu's fundamental coordinates
        return [t - sum(map(mul, row, c)) for t, row in zip(top, cartan)]

    def dominant(c):
        c = list(c)
        while min(mu := below(c)) < 0:
            i = mu.index(min(mu))
            c[i] += mu[i]
        return tuple(c)

    def form(x, y):
        return sum(a * b * n for a, b, n in zip(x, y, norms))

    found = {(0,) * rs.rank}
    frontier = list(found)
    while frontier:
        reached = []
        for c in frontier:
            for a, _ in roots:
                for sign in (1, -1):
                    d = dominant([x + sign * y for x, y in zip(c, a)])
                    if min(d) >= 0 and d not in found:
                        found.add(d)
                        reached.append(d)
        frontier = reached

    m = {}
    for c in sorted(found, key=sum):  # every m(mu + k alpha) is higher, so known
        if not any(c):
            m[c] = 1
            continue
        mu = below(c)
        total = 0
        for a, alpha in roots:
            k = 1
            while min(up := dominant([x - k * y for x, y in zip(c, a)])) >= 0:
                total += form([x + k * y for x, y in zip(mu, alpha)], a) * m[up]
                k += 1
        m[c] = 2 * total / form([t + x + 2 for t, x in zip(top, mu)], c)
        assert m[c].denominator == 1 and m[c] > 0
    return {lattice.sub(lam, _combination(c, rs.simple_roots)): int(value)
            for c, value in m.items()}


def _combination(coords, basis) -> Vector:
    v = lattice.zeros(len(basis[0]))
    for c, b in zip(coords, basis):
        v = lattice.add(v, lattice.scale(c, b))
    return v


# === Kostka-Foulkes polynomials in type A ===

def partitions(size: int, most_parts: int) -> list[tuple[int, ...]]:
    """The partitions of size into at most most_parts parts, largest first."""
    def below(left: int, largest: int, parts: int):
        if not left:
            yield ()
            return
        if not parts:
            return
        for first in range(min(left, largest), 0, -1):
            for rest in below(left - first, first, parts - 1):
                yield (first,) + rest
    return list(below(size, size, most_parts))


def semistandard_tableaux(shape: Sequence[int], content: Sequence[int]
                          ) -> Iterator[list[list[int]]]:
    """The semistandard tableaux of a shape and content, as lists of rows.

    Letter k fills a horizontal strip of content[k - 1] cells: no two of its
    cells in one column, so row i may grow only up to the old length of
    row i - 1.
    """
    def spread(letter, rows, i, left):
        if i == len(shape):
            if not left:
                yield []
            return
        room = shape[i] - len(rows[i])
        if i:
            room = min(room, len(rows[i - 1]) - len(rows[i]))
        for a in range(min(room, left) + 1):
            for lower in spread(letter, rows, i + 1, left - a):
                yield [rows[i] + [letter] * a] + lower

    def place(letter, rows):
        if letter > len(content):
            if list(map(len, rows)) == list(shape):
                yield rows
            return
        for grown in spread(letter, rows, 0, content[letter - 1]):
            yield from place(letter + 1, grown)

    yield from place(1, [[] for _ in shape])


def charge(word: Sequence[int]) -> int:
    """Lascoux-Schutzenberger charge of a word whose content is a partition.

    Standard subwords are taken out one at a time: from the right end, scan
    leftward for a 1, then on leftward for a 2, and so on, wrapping round to
    the right end when the scan runs out, until the next letter is gone. In
    a subword 1 has index 0, and k + 1 has the index of k, plus one when it
    was found only by wrapping, that is, to the right of k. The charge is
    the sum of the indices over all subwords.
    """
    left = list(word)
    total = 0
    while any(c is not None for c in left):
        pos, letter, index = len(left), 1, 0
        while True:
            before = [p for p in range(pos - 1, -1, -1) if left[p] == letter]
            after = [p for p in range(len(left) - 1, pos - 1, -1) if left[p] == letter]
            if not before and not after:
                break
            if not before:
                index += 1
            pos = (before or after)[0]
            left[pos] = None
            total += index
            letter += 1
    return total


def kostka_foulkes(shape: Sequence[int], content: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of K_shape,content(q): the sum of q^charge(T) over the
    semistandard tableaux T of the shape and content, read row by row from
    the bottom row up, each row left to right. Trimmed, so () is zero."""
    coeffs: list[int] = []
    for rows in semistandard_tableaux(shape, content):
        c = charge([x for row in reversed(rows) for x in row])
        coeffs.extend([0] * (c + 1 - len(coeffs)))
        coeffs[c] += 1
    return tuple(coeffs)
