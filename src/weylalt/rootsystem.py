"""Root data for the finite simple types, realized in exact ambient coordinates.

Realizations:

* A_r lives in R^(r+1) with alpha_i = e_i - e_(i+1); the root span is the
  trace-zero hyperplane, so conversions must cope with a rank-deficient
  ambient space.
* B_r, C_r, D_r live in R^r with the usual e_i - e_(i+1) chain and final
  root e_r, 2e_r, e_(r-1) + e_r respectively.
* G2 lives in the plane of R^3 orthogonal to (1,1,1), with
  alpha_1 = e1 - e2 (short) and alpha_2 = -2e1 + e2 + e3 (long).
* F4 lives in R^4 with the standard (Bourbaki) ordering alpha_1 = e2 - e3,
  alpha_2 = e3 - e4, alpha_3 = e4, alpha_4 = (e1 - e2 - e3 - e4)/2.
* E8 lives in R^8; E7 and E6 are the subsystems supported on the subspaces
  orthogonal to e7 + e8, resp. to both e6 - e7 and e7 + e8.

The Cartan matrix convention is C[i][j] = <alpha_j, alpha_i^vee>
= 2(alpha_i, alpha_j)/(alpha_i, alpha_i), so the fundamental coordinates of a
vector w (its coroot pairings <w, alpha_i^vee>) are C applied to its
simple-root coordinates, and the simple-root coordinates are C^-1 applied to
the coroot pairings. The fundamental weights are the columns of C^-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import lattice
from .errors import NotInRootSpan, UnsupportedRank
from .lattice import Matrix, Vector

EXCEPTIONAL_RANKS = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}

_POSITIVE_COUNT = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "G2": lambda r: 6,
    "F4": lambda r: 24,
    "E6": lambda r: 36,
    "E7": lambda r: 63,
    "E8": lambda r: 120,
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
    inverse_cartan: Matrix = field(repr=False)
    simple_coroots: tuple[Vector, ...] = field(repr=False)

    def coroot_pairing(self, w: Vector, i: int) -> Fraction:
        """<w, alpha_i^vee> for 1-based i, alpha_i^vee = 2 alpha_i / |alpha_i|^2."""
        return lattice.dot(w, self.simple_coroots[i - 1])

    def __str__(self) -> str:
        if self.type_label in EXCEPTIONAL_RANKS:
            return self.type_label
        return f"{self.type_label}{self.rank}"


def _basis_vec(dim: int, i: int, value=1) -> Vector:
    return tuple(Fraction(value if k == i else 0) for k in range(dim))


def _simple_chain(dim: int, count: int) -> list[Vector]:
    # e_i - e_(i+1) for i = 1..count
    out = []
    for i in range(count):
        v = [Fraction(0)] * dim
        v[i] = Fraction(1)
        v[i + 1] = Fraction(-1)
        out.append(tuple(v))
    return out


def _classical_roots(type_label: str, r: int):
    if type_label == "A":
        dim = r + 1
        simple = _simple_chain(dim, r)
        positive = [
            lattice.sub(_basis_vec(dim, i), _basis_vec(dim, j))
            for i, j in itertools.combinations(range(dim), 2)
        ]
        return dim, simple, positive

    dim = r
    simple = _simple_chain(dim, r - 1)
    diffs = [
        lattice.sub(_basis_vec(dim, i), _basis_vec(dim, j))
        for i, j in itertools.combinations(range(dim), 2)
    ]
    sums = [
        lattice.add(_basis_vec(dim, i), _basis_vec(dim, j))
        for i, j in itertools.combinations(range(dim), 2)
    ]
    if type_label == "B":
        simple.append(_basis_vec(dim, r - 1))
        positive = diffs + sums + [_basis_vec(dim, i) for i in range(dim)]
    elif type_label == "C":
        simple.append(_basis_vec(dim, r - 1, 2))
        positive = diffs + sums + [_basis_vec(dim, i, 2) for i in range(dim)]
    else:  # D
        simple.append(lattice.add(_basis_vec(dim, r - 2), _basis_vec(dim, r - 1)))
        positive = diffs + sums
    return dim, simple, positive


def _half_vectors(dim: int):
    # (+-1/2, ..., +-1/2) with an even number of minus signs
    half = Fraction(1, 2)
    for signs in itertools.product((1, -1), repeat=dim):
        if signs.count(-1) % 2 == 0:
            yield tuple(half * s for s in signs)


def _e8_family_roots(n: int):
    """Full root set of E6/E7/E8 inside R^8."""
    dim = 8
    roots = []
    if n == 8:
        pair_range = range(8)
    elif n == 7:
        pair_range = range(6)
    else:
        pair_range = range(5)
    for i, j in itertools.combinations(pair_range, 2):
        ei, ej = _basis_vec(dim, i), _basis_vec(dim, j)
        for u in (lattice.add(ei, ej), lattice.sub(ei, ej)):
            roots.append(u)
            roots.append(lattice.neg(u))
    if n == 7:
        u = lattice.sub(_basis_vec(dim, 6), _basis_vec(dim, 7))
        roots.extend([u, lattice.neg(u)])
    for v in _half_vectors(dim):
        if n == 7 and v[6] != -v[7]:
            continue
        if n == 6 and not (v[5] == v[6] and v[6] == -v[7]):
            continue
        roots.append(v)
    return dim, roots


def _exceptional_roots(type_label: str):
    if type_label == "G2":
        dim = 3
        simple = [
            lattice.vector((1, -1, 0)),
            lattice.vector((-2, 1, 1)),
        ]
        short = [lattice.sub(_basis_vec(dim, i), _basis_vec(dim, j))
                 for i in range(3) for j in range(3) if i != j]
        long = []
        for i in range(3):
            v = [Fraction(-1)] * 3
            v[i] = Fraction(2)
            long.append(tuple(v))
            long.append(tuple(-x for x in v))
        return dim, simple, short + long

    if type_label == "F4":
        dim = 4
        half = Fraction(1, 2)
        simple = [
            lattice.vector((0, 1, -1, 0)),
            lattice.vector((0, 0, 1, -1)),
            lattice.vector((0, 0, 0, 1)),
            (half, -half, -half, -half),
        ]
        roots = []
        for i, j in itertools.combinations(range(4), 2):
            ei, ej = _basis_vec(dim, i), _basis_vec(dim, j)
            for u in (lattice.add(ei, ej), lattice.sub(ei, ej)):
                roots.extend([u, lattice.neg(u)])
        for i in range(4):
            roots.extend([_basis_vec(dim, i), lattice.neg(_basis_vec(dim, i))])
        for signs in itertools.product((1, -1), repeat=4):
            roots.append(tuple(half * s for s in signs))
        return dim, simple, roots

    # E family; simple roots shared with E8, truncated to the first n
    n = EXCEPTIONAL_RANKS[type_label]
    dim, roots = _e8_family_roots(n)
    half = Fraction(1, 2)
    # (e1 + e8 - e2 - e3 - e4 - e5 - e6 - e7)/2 read in e1..e8 coordinates
    alpha1 = tuple([half] + [-half] * 6 + [half])
    simple = [alpha1, lattice.vector((1, 1, 0, 0, 0, 0, 0, 0))]
    for i in range(n - 2):
        v = [Fraction(0)] * 8
        v[i] = Fraction(-1)
        v[i + 1] = Fraction(1)
        simple.append(tuple(v))
    return dim, simple, roots


def _expand(coords: Vector, basis) -> Vector:
    terms = [(c, b) for c, b in zip(coords, basis) if c]
    return tuple(sum((c * b[k] for c, b in terms if b[k]), Fraction(0))
                 for k in range(len(basis[0])))


@lru_cache(maxsize=None)
def build(type_label: str, rank: int) -> RootSystem:
    """Construct and validate the root system of the given type and rank.

    Validity windows: A_r r>=1, B_r r>=2, C_r r>=3, D_r r>=4, and the five
    exceptional types at their fixed ranks. Raises UnsupportedRank otherwise.
    """
    type_label = type_label.upper()
    if type_label in ("A", "B", "C", "D"):
        minimum = {"A": 1, "B": 2, "C": 3, "D": 4}[type_label]
        if rank < minimum:
            raise UnsupportedRank(f"type {type_label} requires rank >= {minimum}, got {rank}")
        dim, simple, positive = _classical_roots(type_label, rank)
        candidates = None
        name = f"{type_label}{rank}"
    elif type_label in EXCEPTIONAL_RANKS:
        if rank != EXCEPTIONAL_RANKS[type_label]:
            raise UnsupportedRank(
                f"type {type_label} has rank {EXCEPTIONAL_RANKS[type_label]}, got {rank}")
        dim, simple, candidates = _exceptional_roots(type_label)
        positive = None
        name = type_label
    else:
        raise UnsupportedRank(f"unknown type {type_label!r}")

    coroots = tuple(lattice.scale(2 / lattice.dot(a, a), a) for a in simple)
    entries = [[lattice.dot(aj, coroot) for aj in simple] for coroot in coroots]
    if any(x.denominator != 1 for row in entries for x in row):
        raise RuntimeError(f"{name}: non-integral Cartan entry")
    cartan = tuple(tuple(int(x) for x in row) for row in entries)
    inverse_cartan = lattice.invert(entries)

    def root_coords(root: Vector) -> Vector:
        coords = lattice.mat_vec(inverse_cartan, tuple(lattice.dot(root, v) for v in coroots))
        if _expand(coords, simple) != root:
            raise RuntimeError(f"{name}: root outside simple-root span")
        return coords

    if positive is None:
        # split the full root set into halves by simple-root coordinate sign
        pairs = []
        negative = 0
        for root in candidates:
            coords = root_coords(root)
            if all(c >= 0 for c in coords):
                pairs.append((root, coords))
            else:
                if not all(c <= 0 for c in coords):
                    raise RuntimeError(f"{name}: root with mixed coordinate signs")
                negative += 1
        if negative != len(pairs):
            raise RuntimeError(f"{name}: root set is not symmetric")
        pairs.sort(key=lambda pair: (sum(pair[1]), pair[1]))
    else:
        pairs = [(root, root_coords(root)) for root in positive]
    positive = [root for root, _ in pairs]

    expected = _POSITIVE_COUNT[type_label](rank)
    if len(positive) != expected:
        raise RuntimeError(f"{name}: {len(positive)} positive roots, expected {expected}")

    if any(c.denominator != 1 or c < 0 for _, coords in pairs for c in coords):
        raise RuntimeError(f"{name}: non-integral root coordinates")
    alpha_coords = tuple(tuple(int(c) for c in coords) for _, coords in pairs)

    # omega_i = sum_j C^-1[j][i] alpha_j gives <omega_i, alpha_k^vee> = delta_ik
    fundamental = tuple(_expand(col, simple) for col in lattice.transpose(inverse_cartan))

    rho_half_sum = lattice.scale(Fraction(1, 2),
                                 _expand((Fraction(1),) * len(positive), positive))
    rho_weights = _expand((Fraction(1),) * rank, fundamental)
    if rho_half_sum != rho_weights:
        raise RuntimeError(f"{name}: rho computed two ways disagrees")

    rs = RootSystem(
        type_label=type_label,
        rank=rank,
        ambient_dim=dim,
        simple_roots=tuple(simple),
        positive_roots=tuple(positive),
        fundamental_weights=fundamental,
        rho=rho_weights,
        cartan_matrix=cartan,
        positive_root_alpha_coords=alpha_coords,
        inverse_cartan=inverse_cartan,
        simple_coroots=coroots,
    )

    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if rs.coroot_pairing(fundamental[i - 1], j) != (1 if i == j else 0):
                raise RuntimeError(f"{name}: weight/coroot duality broken")
    return rs


def to_simple_root_coords(w: Vector, rs: RootSystem) -> Vector:
    """Coordinates of w in the simple-root basis; NotInRootSpan if w is outside."""
    if len(w) != rs.ambient_dim:
        raise ValueError(f"expected {rs.ambient_dim} coordinates, got {len(w)}")
    coords = lattice.mat_vec(rs.inverse_cartan,
                             tuple(lattice.dot(w, v) for v in rs.simple_coroots))
    if _expand(coords, rs.simple_roots) != w:
        raise NotInRootSpan(f"{w} is not in the span of the simple roots of {rs}")
    return coords


def to_fundamental_coords(w: Vector, rs: RootSystem) -> Vector:
    """Coordinates of w in the fundamental-weight basis; NotInRootSpan outside the span."""
    if len(w) != rs.ambient_dim:
        raise ValueError(f"expected {rs.ambient_dim} coordinates, got {len(w)}")
    coords = tuple(rs.coroot_pairing(w, i) for i in range(1, rs.rank + 1))
    if _expand(coords, rs.fundamental_weights) != w:
        raise NotInRootSpan(f"{w} is not in the span of the simple roots of {rs}")
    return coords


def is_dominant(w: Vector, rs: RootSystem) -> bool:
    return all(c >= 0 for c in to_fundamental_coords(w, rs))


def is_dominant_integral(w: Vector, rs: RootSystem) -> bool:
    return all(c >= 0 and c.denominator == 1 for c in to_fundamental_coords(w, rs))


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


def dominant_integral_weights_in_box(rs: RootSystem, bound) -> list[Vector]:
    """Dominant integral weights k_1 e_1 + ... + k_r e_r with k_1 <= bound.

    Enumerates the odd-orthogonal coordinate box (nonincreasing nonnegative
    entries, all integers or all half-odd-integers, pairwise integral
    differences) and keeps the members that are dominant integral weights of
    rs. For type B the box is exactly the dominant cone, so nothing is
    dropped; for every type bound = 0 yields only the zero weight.
    """
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    r = rs.rank
    integer_values = [Fraction(n) for n in range(int(bound), -1, -1)]
    half_values = [Fraction(n, 2) for n in range(2 * bound.numerator // bound.denominator, 0, -1)
                   if Fraction(n, 2) <= bound and n % 2 == 1]
    out = []
    for values in (integer_values, half_values):
        if not values:
            continue
        for combo in itertools.combinations_with_replacement(values, r):
            k = tuple(sorted(combo, reverse=True))
            w = k + (Fraction(0),) * (rs.ambient_dim - r)
            try:
                if is_dominant_integral(w, rs):
                    out.append(w)
            except NotInRootSpan:
                continue
    return sorted(set(out))
