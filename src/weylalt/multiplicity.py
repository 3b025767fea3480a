"""Weyl alternation sets, Kostant multiplicities and their q-analogs.

m(lambda, mu) = sum over sigma in W of (-1)^l(sigma) P(sigma(lambda+rho) - (mu+rho)),
and the q-analog replaces P by P_q. A term survives iff its argument xi_sigma
has nonnegative integer coordinates in the simple roots (simple roots are
themselves positive roots, so the coordinate test is exact); the set of
surviving sigma is the Weyl alternation set, and the sums run over it alone.

The survivors of every type are found by one depth-first walk of the left
weak order on integer vectors, from nu, the dominant weight with
lambda+rho = w(nu) (Humphreys, Lie Algebras, 13.2): l(w) steps s_i at a
negative pairing c take c off xi_i and c times column i of the Cartan matrix
off the pairings. A node tau holds tau(rho) and tau(nu) in fundamental-weight
coordinates and xi_tau in simple-root coordinates. The walk steps only along
left ascents (tau(rho)_i > 0), subtracting <tau(nu), alpha_i^vee> >= 0 from
xi_i, and only to children whose least left descent is i, so each element is
reached once with its lex-least reduced word; it stops at the first negative
coordinate, visiting only xi >= 0. The survivors of lambda are sigma =
tau w^-1 at the same xi, each word read back from sigma(rho) = tau(w^-1 rho).
Where nu_j = 0, tau and tau s_j cancel, so the alternating sums are 0.

Every entry reaches the walk through one builder, walk_start, from two
rootsystem.Weight values (integer fundamental coordinates over a denominator
and the part off the root span). Equal off parts are its span test; it
reflects lambda+rho to nu once, so q_multiplicity reads a zero of nu off the
start before any walk. Each limit bounds its own work: the cap counts the
walk's nodes, not |W|, and a query's P_q table is laid out from the start
and held to its budget before the walk, so an over-budget table is refused
before it. The table is filled after the walk, for the survivors' rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, NamedTuple

from . import lattice
from .combinatorics import nonconsecutive_subsets
from .errors import CapExceeded, NotInRootSpan
from .kostant import QPolynomial, _layout_over, _table_over
from .lattice import Vector
from .rootsystem import RootSystem, Weight, weight
from .weyl import WeylElement

DEFAULT_CAP = 2_000_000


@dataclass(frozen=True)
class AlternationSet:
    """The sigma with P(sigma(lambda+rho) - (mu+rho)) > 0, as full elements."""

    lam: Vector
    mu: Vector
    elements: frozenset[WeylElement]

    def __len__(self) -> int:
        return len(self.elements)

    def words(self) -> list[tuple[int, ...]]:
        return sorted(w.word for w in self.elements)


@dataclass(frozen=True)
class WeightDiagramEntry:
    weight: Vector
    multiplicity: int


class Start(NamedTuple):
    """The walk's start for lambda+rho = w(nu), nu dominant, all over one
    positive scale: xi at w^-1 in simple-root coordinates, nu's coroot
    pairings, and the 0-based indices of the reflections that take lambda+rho
    to nu, first applied first."""

    xi: tuple[int, ...]
    nu: tuple[int, ...]
    steps: tuple[int, ...]
    scale: int


def _act(indices, v: tuple[int, ...], columns) -> tuple[int, ...]:
    """s_ik ... s_i1 (v) in fundamental coordinates, for 0-based i1..ik."""
    for i in indices:
        v = tuple(x - v[i] * a for x, a in zip(v, columns[i]))
    return v


def _peel(v: tuple[int, ...], columns) -> tuple[tuple[int, ...], list]:
    """v reflected at its least negative coordinate until dominant, and the
    steps (0-based i, v_i); from sigma(rho) they spell sigma's word."""
    steps = []
    while min(v) < 0:
        i = min(j for j, c in enumerate(v) if c < 0)
        steps.append((i, v[i]))
        v = _act((i,), v, columns)
    return v, steps


def walk_start(lam: Weight, mu: Weight, rs: RootSystem) -> Start | None:
    """The walk's start for two weights; None when lambda - mu leaves the
    root span, that is, when their off parts differ. Over the weights' common
    denominator d, xi_e = adj(C) (lambda - mu) / (det(C) d) and the pairings
    of lambda+rho are (lambda + d) / d, so the scale det(C) d makes both
    integer. A reflection step at pairing c < 0 takes c off xi_i."""
    if lam.off != mu.off:
        return None
    d = lcm(lam.denominator, mu.denominator)
    lam_coords = [c * (d // lam.denominator) for c in lam.coords]
    difference = [a - c * (d // mu.denominator) for a, c in zip(lam_coords, mu.coords)]
    det = rs.cartan_determinant
    nu, steps = _peel(tuple(det * (c + d) for c in lam_coords), tuple(zip(*rs.cartan_matrix)))
    xi = [sum(map(mul, row, difference)) for row in rs.cartan_adjugate]
    for i, c in steps:
        xi[i] -= c
    return Start(tuple(xi), nu, tuple(i for i, _ in steps), det * d)


def _may_survive(start: Start | None) -> bool:
    """False when no node of the walk from start can survive. Each step takes
    an integer combination of nu's pairings off xi, which keeps xi mod their
    gcd g (a multiple of det(C)), and a survivor's xi is 0 mod the scale."""
    if start is None:
        return False
    xi, nu, _, scale = start
    step = gcd(scale, *nu)
    return min(xi) >= 0 and not any(c % step for c in xi)


def _survivor_terms(start: Start | None, rs: RootSystem, cap: int):
    """(element, xi simple-root coordinates) for every survivor of a start,
    none when no node can survive; each xi is a tuple of nonnegative ints,
    which the P_q table reads as is. CapExceeded as soon as the walk visits
    more than cap nodes, the start included."""
    if not _may_survive(start):
        return []
    xi, nu, steps, scale = start
    rank = rs.rank
    columns = tuple(zip(*rs.cartan_matrix))  # alpha_i in fundamental coordinates

    survivors = []
    stack = [((), (1,) * rank, nu, xi)]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"the walk in W({rs}) passed the node cap {cap}")
        word, rho_image, image, xi = stack.pop()
        if all(c % scale == 0 for c in xi):
            survivors.append((word, tuple(c // scale for c in xi)))
        for i in range(rank):
            a = rho_image[i]
            if a < 0:
                continue  # s_i is a left descent of this node
            c = image[i]
            if xi[i] < c:
                continue  # the child's xi_i is negative
            column = columns[i]
            child = tuple(v - a * col for v, col in zip(rho_image, column))
            if any(child[j] < 0 for j in range(i)):
                continue  # the child's least left descent is below i
            stack.append(((i + 1,) + word, child,
                          tuple(v - c * col for v, col in zip(image, column)),
                          xi[:i] + (xi[i] - c,) + xi[i + 1:]))
    if steps:  # sigma = tau w^-1 spells its word from sigma(rho) = tau(w^-1 rho)
        back = _act(steps, (1,) * rank, columns)
        for k, (word, xi) in enumerate(survivors):
            image = _act([i - 1 for i in reversed(word)], back, columns)
            survivors[k] = (tuple(i + 1 for i, _ in _peel(image, columns)[1]), xi)
    return [(WeylElement(word, rs), xi) for word, xi in survivors]


def alternation_set(lam: Vector, mu: Vector, rs: RootSystem,
                    cap: int = DEFAULT_CAP) -> AlternationSet:
    """The Weyl alternation set of (lambda, mu)."""
    terms = _survivor_terms(walk_start(weight(lam, rs), weight(mu, rs), rs), rs, cap)
    return AlternationSet(lam, mu, frozenset(element for element, _ in terms))


def alternating_sum(terms: Iterable[tuple[WeylElement, QPolynomial]]) -> QPolynomial:
    """Sum of (-1)^l(sigma) P_q over (sigma, P_q) pairs."""
    sums = ([], [])  # coefficients of the even-length terms, then the odd
    for element, value in terms:
        total, coeffs = sums[element.length % 2], value.coeffs
        if len(total) < len(coeffs):
            total.extend([0] * (len(coeffs) - len(total)))
        total[:len(coeffs)] = map(add, total, coeffs)
    even, odd = sums
    width = max(len(even), len(odd))
    return QPolynomial(map(sub, even + [0] * (width - len(even)),
                           odd + [0] * (width - len(odd))))


def q_multiplicity(lam: Vector, mu: Vector, rs: RootSystem,
                   cap: int = DEFAULT_CAP) -> QPolynomial:
    """Alternating sum of P_q over the alternation set; may have negative
    coefficients term by term, returned as computed. For dominant lambda and
    mu the sum is Lusztig's q-analog of weight multiplicity, the
    Kostka-Foulkes polynomial K_lambda,mu(q) (Kato 1982), whose coefficients
    are nonnegative."""
    return _start_sum(walk_start(weight(lam, rs), weight(mu, rs), rs), rs, cap)


def multiplicity(lam: Vector, mu: Vector, rs: RootSystem,
                 cap: int = DEFAULT_CAP) -> int:
    """Kostant weight multiplicity m(lambda, mu). For integral lambda and mu
    the sum is taken at mu+, the dominant weight of W mu: it is the e^mu
    coefficient of A_(lambda+rho) / A_rho, which is W-invariant in mu, and
    lambda - mu+ <= lambda - mu, so its box is no larger (Humphreys 21.2,
    24.2). The value equals q_multiplicity at q = 1, but the terms differ
    at non-dominant mu, as P_q is not W-invariant. Off the weight lattice
    the sum stays at mu: in A1, m(omega_1/2, omega_1/2) = 1, yet
    m(omega_1/2, -omega_1/2) = 0."""
    lam, mu = weight(lam, rs), weight(mu, rs)
    if lam.denominator == mu.denominator == 1:  # W fixes off: the span test is unchanged
        mu = mu._replace(coords=_peel(mu.coords, tuple(zip(*rs.cartan_matrix)))[0])
    return _start_sum(walk_start(lam, mu, rs), rs, cap).evaluate(1)


def start_terms(start: Start | None, rs: RootSystem, cap: int = DEFAULT_CAP
                ) -> list[tuple[WeylElement, QPolynomial]]:
    """Per-element P_q values over the alternation set of a walk start,
    sign not applied, by length and then word. The table is laid out and
    held to its budget before the walk, over [0, start xi / scale]: xi only
    falls along the walk. It is filled after the walk, for the rows of the
    survivors' xi; a walk with no survivor fills nothing."""
    if not _may_survive(start):
        return []
    layout = _layout_over(tuple(c // start.scale for c in start.xi), rs)
    terms = _survivor_terms(start, rs, cap)
    if not terms:
        return []
    table = _table_over(layout, [coords for _, coords in terms], rs)
    return sorted(((element, table.lookup(coords)) for element, coords in terms),
                  key=lambda pair: (pair[0].length, pair[0].word))


def _start_sum(start: Start | None, rs: RootSystem, cap: int) -> QPolynomial:
    """The alternating sum of P_q over the survivors of a walk start."""
    if start is None or 0 in start.nu:
        return QPolynomial.zero()  # tau and tau s_j cancel where nu_j = 0
    return alternating_sum(start_terms(start, rs, cap))


def q_multiplicity_terms(lam: Vector, mu: Vector, rs: RootSystem,
                         cap: int = DEFAULT_CAP
                         ) -> list[tuple[WeylElement, QPolynomial]]:
    """Per-element P_q values over the alternation set, sign not applied."""
    return start_terms(walk_start(weight(lam, rs), weight(mu, rs), rs), rs, cap)


def weight_diagram(lam: Vector, rs: RootSystem,
                   cap: int = DEFAULT_CAP) -> list[WeightDiagramEntry]:
    """All weights of the irreducible module of highest weight lambda;
    NotInRootSpan off the root span, ValueError unless dominant integral.

    Walk downward from lambda by positive-root steps, keeping the nodes of
    positive multiplicity; every weight is reachable through such nodes, so
    the zero-multiplicity pruning loses nothing and bounds the walk. Each
    weight mu has w0 lambda <= mu <= lambda (Humphreys 13.2, 21.3), so one
    table over [0, lambda - w0 lambda], filled first (TableTooLarge past its
    budget, before any walk), serves every sum, and a candidate outside that
    box gets 0 without a walk. -w0 lambda is the dominant weight of -lambda's
    orbit. Each candidate's start pairs lambda's Weight with its own."""
    top = weight(lam, rs)
    if top.off is not None:
        raise NotInRootSpan(f"{lam} is not in the span of the simple roots of {rs}")
    if top.denominator != 1 or min(top.coords) < 0:
        raise ValueError(f"{lam} is not a dominant integral weight of {rs}")
    dual, _ = _peel(tuple(-c for c in top.coords), tuple(zip(*rs.cartan_matrix)))
    box = tuple(sum(map(mul, row, map(add, top.coords, dual))) // rs.cartan_determinant
                for row in rs.cartan_adjugate)
    _table_over(_layout_over(box, rs), None, rs)
    found: dict[Vector, int] = {lam: 1}  # the highest weight's (Humphreys 20.2)
    frontier = [lam]
    while frontier:
        fresh = [v for v in dict.fromkeys(lattice.sub(node, root) for node in frontier
                                          for root in rs.positive_roots) if v not in found]
        for v in fresh:
            start = walk_start(top, weight(v, rs), rs)  # v <= lambda, so xi >= 0
            inside = all(c <= b * start.scale for c, b in zip(start.xi, box))
            found[v] = _start_sum(start, rs, cap).evaluate(1) if inside else 0
        frontier = [v for v in fresh if found[v] > 0]
    return [WeightDiagramEntry(vector, m)
            for vector, m in sorted(found.items()) if m > 0]


def fibonacci_family(type_label: str, r: int) -> dict[tuple[int, ...], QPolynomial]:
    """The alternation set of (sum of simple roots, 0) for A_r (r >= 1) or
    B_r (r >= 2), as reduced words with their P_q(sigma(lambda+rho) - rho).
    The words are the products of commuting s_i over the nonconsecutive
    index sets I inside {2..m}, m = r - 1 in A and r in B, F_(m+1) of them.
    With s = 1 when r is in I, else 0, and k = |I| - s, P_q is
    q^(1+k) (1+q)^(r-1-2k-s), and C(r-1-k-s, k) words share each (k, s).
    The paper proves the Fibonacci count in both types; the words and P_q
    are the closed form that the tests and `verify fibonacci` match against
    the walk and the table."""
    smallest = {"A": 1, "B": 2}.get(type_label)
    if smallest is None or r < smallest:
        raise ValueError(f"no Fibonacci family for {type_label}{r}; "
                         "it is A_r for r >= 1 or B_r for r >= 2")
    family = {}
    for word in nonconsecutive_subsets(2, r - 1 if type_label == "A" else r):
        s = int(r in word)
        k = len(word) - s
        family[word] = QPolynomial((1, 1)) ** (r - 1 - 2 * k - s) * QPolynomial.monomial(1 + k)
    return family
