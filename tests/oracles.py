"""Slow, independent references that the tests check the library against.

Breadth-first enumeration of the whole Weyl group checks the weak-order walk
that finds alternation sets, and the Fraction orbit of omega_1 the weight
diagrams of B_r; a Fraction solve in ambient coordinates checks the integer
start the walk begins from; a memoized recursion over a permuted root list
checks the P_q table; Kostka-Foulkes polynomials by charge check the q-analog
of weight multiplicity in type A. None of them imports
weylalt.multiplicity or the table behind kostant.partition_q, so none shares
the code it checks.
"""

from __future__ import annotations

from math import lcm
from typing import Iterator, Sequence

from weylalt import lattice
from weylalt.errors import CapExceeded, NotInRootSpan
from weylalt.kostant import QPolynomial
from weylalt.lattice import Vector
from weylalt.rootsystem import RootSystem, coroot_pairings, to_simple_root_coords
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
