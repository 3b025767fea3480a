"""Root data for the finite simple types, realized in exact ambient coordinates.

The simple roots are the only hand-entered data:

* A_r lives in R^(r+1) with alpha_i = e_i - e_(i+1); the root span is the
  trace-zero hyperplane, so conversions must cope with a rank-deficient
  ambient space.
* B_r, C_r, D_r live in R^r with the usual e_i - e_(i+1) chain and final
  root e_r, 2e_r, e_(r-1) + e_r respectively.
* G2 lives in the plane of R^3 orthogonal to (1,1,1), with
  alpha_1 = e1 - e2 (short) and alpha_2 = -2e1 + e2 + e3 (long).
* F4 lives in R^4 with the standard (Bourbaki) ordering alpha_1 = e2 - e3,
  alpha_2 = e3 - e4, alpha_3 = e4, alpha_4 = (e1 - e2 - e3 - e4)/2.
* E6, E7, E8 live in R^8 and share Bourbaki's first six, seven or eight
  simple roots of E8.

Every positive root comes from the Cartan matrix: build grows them in
integer simple-root coordinates by root strings and expands each in the
simple roots. Classical types list e_i - e_j, then e_i + e_j, then e_i or
2e_i; exceptional types sort by height, then coordinates.

The Cartan matrix convention is C[i][j] = <alpha_j, alpha_i^vee>
= 2(alpha_i, alpha_j)/(alpha_i, alpha_i), so the fundamental coordinates of a
vector w (its coroot pairings <w, alpha_i^vee>, from coroot_pairings alone)
are C applied to its simple-root coordinates, and the simple-root coordinates
are C^-1 applied to the coroot pairings. build keeps C^-1 in one form, the
integer adjugate and determinant from one fraction-free elimination of C
(lattice.adjugate), so C^-1 = adj(C) / det(C) with det(C) = |P/Q| (Humphreys,
Lie Algebras, 13.1). The fundamental weights are its columns.

A Weight is the one form a weight takes on its way into the walk: integer
fundamental coordinates over one denominator, which adj(C) takes to
simple-root coordinates in integers, and off, its part orthogonal to the root
span. weight() is the one conversion from an ambient vector, by its coroot
pairings; every other conversion reads it and raises NotInRootSpan where off
is not None. The command line makes a Weight from named and eps: terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul
from typing import NamedTuple

from . import lattice
from .errors import NotInRootSpan, UnsupportedRank
from .lattice import Vector

# The supported types, one row each: the smallest rank of A-D, or the only
# rank of G2-E8 (the two-character labels, which name it), then |Phi+| and
# |W| as functions of the rank.
TYPES = {
    "A": (1, lambda r: r * (r + 1) // 2, lambda r: factorial(r + 1)),
    "B": (2, lambda r: r * r, lambda r: 2**r * factorial(r)),
    "C": (3, lambda r: r * r, lambda r: 2**r * factorial(r)),
    "D": (4, lambda r: r * (r - 1), lambda r: 2 ** (r - 1) * factorial(r)),
    "G2": (2, lambda r: 6, lambda r: 12),
    "F4": (4, lambda r: 24, lambda r: 1152),
    "E6": (6, lambda r: 36, lambda r: 51840),
    "E7": (7, lambda r: 63, lambda r: 2903040),
    "E8": (8, lambda r: 120, lambda r: 696729600),
}


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable root datum; build() caches one shared instance per (type, rank)."""

    type_label: str
    rank: int
    ambient_dim: int
    simple_roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    fundamental_weights: tuple[Vector, ...]
    rho: Vector
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_root_alpha_coords: tuple[tuple[int, ...], ...]
    simple_coroots: tuple[Vector, ...] = field(repr=False)
    cartan_adjugate: tuple[tuple[int, ...], ...] = field(repr=False)
    cartan_determinant: int = field(repr=False)

    def __str__(self) -> str:
        return _name(self.type_label, self.rank)


def _name(type_label: str, rank: int) -> str:
    return type_label if len(type_label) > 1 else f"{type_label}{rank}"


def _sparse(dim: int, entries: dict) -> Vector:
    return tuple(Fraction(entries.get(k, 0)) for k in range(dim))


def _simple_roots(type_label: str, r: int) -> tuple[int, list[Vector]]:
    """Ambient dimension and simple roots alpha_1..alpha_r in Bourbaki's numbering."""
    half = Fraction(1, 2)
    if type_label == "G2":
        return 3, [lattice.vector((1, -1, 0)), lattice.vector((-2, 1, 1))]
    if type_label == "F4":
        return 4, [lattice.vector((0, 1, -1, 0)), lattice.vector((0, 0, 1, -1)),
                   lattice.vector((0, 0, 0, 1)), (half, -half, -half, -half)]
    if type_label[0] == "E":
        # E_r: (e1 + e8 - e2 - ... - e7)/2, e1 + e2, then alpha_k = e_(k-1) - e_(k-2), k >= 3
        simple = [(half,) + (-half,) * 6 + (half,), _sparse(8, {0: 1, 1: 1})]
        simple += [_sparse(8, {k: -1, k + 1: 1}) for k in range(r - 2)]
        return 8, simple
    # e_i - e_(i+1), then e_r, 2e_r or e_(r-1) + e_r for B, C, D
    dim = r + 1 if type_label == "A" else r
    simple = [_sparse(dim, {k: 1, k + 1: -1}) for k in range(dim - 1)]
    last = {"B": {r - 1: 1}, "C": {r - 1: 2}, "D": {r - 2: 1, r - 1: 1}}
    if type_label in last:
        simple.append(_sparse(dim, last[type_label]))
    return dim, simple


def _positive_coords(cartan, limit: int, name: str) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, grown height by height.

    beta + alpha_i is a root exactly when the alpha_i-string through beta,
    beta - p alpha_i, ..., beta + q alpha_i, has q = p - <beta, alpha_i^vee> > 0
    (Humphreys, Lie Algebras, 9.4). Every beta - k alpha_i is lower than beta,
    so p is read off the roots found so far.
    """
    rank = len(cartan)
    layer = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    found = dict.fromkeys(layer)  # insertion-ordered: by height, then discovery
    while layer:
        taller = []
        for beta in layer:
            for i, row in enumerate(cartan):
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                if up in found:
                    continue
                p = 0
                while beta[:i] + (beta[i] - p - 1,) + beta[i + 1:] in found:
                    p += 1
                if p > sum(c * b for c, b in zip(row, beta)):
                    found[up] = None
                    taller.append(up)
        if len(found) > limit:
            raise RuntimeError(f"{name}: more than {limit} positive roots")
        layer = taller
    return list(found)


def _classical_order(root: Vector):
    # e_i - e_j, then e_i + e_j, then e_i or 2e_i, each by (i, j)
    support = [k for k, x in enumerate(root) if x]
    return (min(root) >= 0) + (len(support) == 1), support


def _expand(coords: Vector, basis) -> Vector:
    terms = [(c, b) for c, b in zip(coords, basis) if c]
    return tuple(sum((c * b[k] for c, b in terms if b[k]), Fraction(0))
                 for k in range(len(basis[0])))


@lru_cache(maxsize=None)
def build(type_label: str, rank: int) -> RootSystem:
    """Construct and validate the root system of the given type and rank.

    The rank windows are those of TYPES; UnsupportedRank outside them. Every
    case of a label returns the one cached object of its upper-case form.
    """
    if type_label != type_label.upper():
        return build(type_label.upper(), rank)
    if type_label not in TYPES:
        raise UnsupportedRank(f"unknown type {type_label!r}")
    smallest, positive_count, _ = TYPES[type_label]
    if len(type_label) > 1 and rank != smallest:
        raise UnsupportedRank(f"type {type_label} has rank {smallest}, got {rank}")
    if rank < smallest:
        raise UnsupportedRank(f"type {type_label} requires rank >= {smallest}, got {rank}")
    name = _name(type_label, rank)
    dim, simple = _simple_roots(type_label, rank)

    coroots = tuple(lattice.scale(2 / lattice.dot(a, a), a) for a in simple)
    entries = [[lattice.dot(aj, coroot) for aj in simple] for coroot in coroots]
    if any(x.denominator != 1 for row in entries for x in row):
        raise RuntimeError(f"{name}: non-integral Cartan entry")
    cartan = tuple(tuple(int(x) for x in row) for row in entries)

    expected = positive_count(rank)
    coords = _positive_coords(cartan, expected, name)
    if len(coords) != expected:
        raise RuntimeError(f"{name}: {len(coords)} positive roots, expected {expected}")
    pairs = [(c, _expand(c, simple)) for c in coords]
    if len(type_label) > 1:
        pairs.sort(key=lambda pair: (sum(pair[0]), pair[0]))
    else:
        pairs.sort(key=lambda pair: _classical_order(pair[1]))

    # omega_i = sum_j C^-1[j][i] alpha_j gives <omega_i, alpha_k^vee> = delta_ik,
    # so rho = sum_i omega_i, in simple-root coordinates the row sums of
    # C^-1 = adj(C) / det(C), must be half the sum of the positive roots
    determinant, adjugate = lattice.adjugate(cartan)
    fundamental = tuple(_expand([Fraction(row[i], determinant) for row in adjugate], simple)
                        for i in range(rank))
    rho_coords = tuple(Fraction(sum(row), determinant) for row in adjugate)
    if any(Fraction(sum(c[j] for c in coords), 2) != rho_coords[j] for j in range(rank)):
        raise RuntimeError(f"{name}: rho computed two ways disagrees")

    return RootSystem(
        type_label=type_label,
        rank=rank,
        ambient_dim=dim,
        simple_roots=tuple(simple),
        positive_roots=tuple(root for _, root in pairs),
        fundamental_weights=fundamental,
        rho=_expand(rho_coords, simple),
        cartan_matrix=cartan,
        positive_root_alpha_coords=tuple(c for c, _ in pairs),
        simple_coroots=coroots,
        cartan_adjugate=adjugate,
        cartan_determinant=determinant,
    )


class Weight(NamedTuple):
    """A weight as integer fundamental-weight coordinates over one positive
    denominator, and off, what is left of the weight after the combination of
    fundamental weights they name: its part off the root span, None when 0,
    as always in B, C, D, F4 and E8. off is linear, so lambda - mu is in the
    span exactly when lambda.off == mu.off."""

    coords: tuple[int, ...]
    denominator: int
    off: Vector | None = None


def coroot_pairings(w: Vector, rs: RootSystem) -> Vector:
    """The coroot pairings <w, alpha_i^vee>, i = 1..r, of an ambient vector:
    its fundamental coordinates when w is in the root span. ValueError on a
    coordinate that is neither an int nor a Fraction."""
    if len(w) != rs.ambient_dim:
        raise ValueError(f"expected {rs.ambient_dim} coordinates, got {len(w)}")
    if not all(isinstance(c, (int, Fraction)) for c in w):
        raise ValueError(f"{tuple(w)}: coordinates must be ints or Fractions")
    return tuple(lattice.dot(w, v) for v in rs.simple_coroots)


def weight(v: Vector, rs: RootSystem) -> Weight:
    """The Weight of an ambient vector, the one conversion from one: its
    coroot pairings as integers over their least common denominator, and as
    off, v less the combination of fundamental weights they name."""
    pairings = coroot_pairings(v, rs)
    d = lcm(*(c.denominator for c in pairings))
    off = (None if rs.ambient_dim == rs.rank  # the fundamental weights span
           else lattice.sub(v, _expand(pairings, rs.fundamental_weights)))
    return Weight(tuple(c.numerator * (d // c.denominator) for c in pairings), d,
                  off if off and any(off) else None)


def _spanned(w: Vector, rs: RootSystem) -> Weight:
    """The Weight of w; NotInRootSpan when w has a part off the root span."""
    found = weight(w, rs)
    if found.off is not None:
        raise NotInRootSpan(f"{w} is not in the span of the simple roots of {rs}")
    return found


def to_fundamental_coords(w: Vector, rs: RootSystem) -> Vector:
    """Coordinates of w in the fundamental-weight basis; NotInRootSpan outside the span."""
    coords, d, _ = _spanned(w, rs)
    return tuple(Fraction(c, d) for c in coords)


def to_simple_root_coords(w: Vector, rs: RootSystem) -> Vector:
    """Coordinates of w in the simple-root basis, adj(C) applied to its integer
    fundamental coordinates over det(C) d; NotInRootSpan if w is outside."""
    coords, d, _ = _spanned(w, rs)
    return tuple(Fraction(sum(map(mul, row, coords)), rs.cartan_determinant * d)
                 for row in rs.cartan_adjugate)


def is_dominant(w: Vector, rs: RootSystem) -> bool:
    return all(c >= 0 for c in _spanned(w, rs).coords)


def is_dominant_integral(w: Vector, rs: RootSystem) -> bool:
    coords, d, _ = _spanned(w, rs)
    return d == 1 and all(c >= 0 for c in coords)


def fundamental_weight(rs: RootSystem, i: int) -> Vector:
    """omega_i for 1-based i."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"fundamental weight index {i} out of range for {rs}")
    return rs.fundamental_weights[i - 1]


def highest_root(rs: RootSystem) -> Vector:
    by_height = max(
        range(len(rs.positive_roots)),
        key=lambda k: sum(rs.positive_root_alpha_coords[k]),
    )
    return rs.positive_roots[by_height]


def sum_of_simple_roots(rs: RootSystem) -> Vector:
    return _expand((Fraction(1),) * rs.rank, rs.simple_roots)


def sum_of_simple_roots_in_fundamental_basis(rs: RootSystem) -> Vector:
    return to_fundamental_coords(sum_of_simple_roots(rs), rs)
