"""Root system realizations: roots, weights, rho, coordinate changes."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from weylalt import lattice, rootsystem
from weylalt.cli import type_b_weights_below_one
from weylalt.errors import NotInRootSpan, UnsupportedRank
from weylalt.multiplicity import weight_diagram
from weylalt.rootsystem import (build, fundamental_weight, highest_root,
                                is_dominant, is_dominant_integral,
                                sum_of_simple_roots,
                                sum_of_simple_roots_in_fundamental_basis,
                                to_fundamental_coords, to_simple_root_coords)

ALL_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 4),
               ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G2", 2), ("F4", 4),
               ("E6", 6), ("E7", 7), ("E8", 8)]

POSITIVE_COUNTS = {("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("B", 2): 4,
                   ("B", 3): 9, ("B", 4): 16, ("C", 3): 9, ("C", 4): 16,
                   ("D", 4): 12, ("D", 5): 20, ("G2", 2): 6, ("F4", 4): 24,
                   ("E6", 6): 36, ("E7", 7): 63, ("E8", 8): 120}


@pytest.mark.parametrize("label, rank", ALL_SYSTEMS)
def test_positive_root_count(label, rank):
    rs = build(label, rank)
    assert len(rs.positive_roots) == POSITIVE_COUNTS[(label, rank)]
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)


@pytest.mark.parametrize("label, rank", ALL_SYSTEMS)
def test_simple_roots_open_the_positive_list(label, rank):
    # every simple root is positive with alpha-coords a standard basis vector
    rs = build(label, rank)
    for i, alpha in enumerate(rs.simple_roots):
        k = rs.positive_roots.index(alpha)
        expected = tuple(1 if j == i else 0 for j in range(rank))
        assert rs.positive_root_alpha_coords[k] == expected


@pytest.mark.parametrize("label, rank", ALL_SYSTEMS)
def test_alpha_coords_are_nonnegative_integers(label, rank):
    rs = build(label, rank)
    for coords, root in zip(rs.positive_root_alpha_coords, rs.positive_roots):
        assert all(isinstance(c, int) and c >= 0 for c in coords)
        assert sum(c > 0 for c in coords) >= 1
        rebuilt = lattice.zeros(rs.ambient_dim)
        for c, alpha in zip(coords, rs.simple_roots):
            rebuilt = lattice.add(rebuilt, lattice.scale(c, alpha))
        assert rebuilt == root


@pytest.mark.parametrize("label, rank", ALL_SYSTEMS)
def test_fundamental_weights_dual_to_coroots(label, rank):
    rs = build(label, rank)
    for i in range(1, rank + 1):
        w = fundamental_weight(rs, i)
        assert rootsystem.coroot_pairings(w, rs) == tuple(int(i == j) for j in range(1, rank + 1))


@pytest.mark.parametrize("label, rank", ALL_SYSTEMS)
def test_rho_is_half_sum_and_sum_of_weights(label, rank):
    rs = build(label, rank)
    half_sum = lattice.zeros(rs.ambient_dim)
    for root in rs.positive_roots:
        half_sum = lattice.add(half_sum, root)
    half_sum = lattice.scale(Fraction(1, 2), half_sum)
    assert rs.rho == half_sum
    weight_sum = lattice.zeros(rs.ambient_dim)
    for w in rs.fundamental_weights:
        weight_sum = lattice.add(weight_sum, w)
    assert rs.rho == weight_sum


def test_b3_frozen_values():
    rs = build("B", 3)
    assert rs.simple_roots == (lattice.vector([1, -1, 0]),
                               lattice.vector([0, 1, -1]),
                               lattice.vector([0, 0, 1]))
    assert rs.rho == (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
    assert to_simple_root_coords(rs.rho, rs) == (Fraction(5, 2), 4, Fraction(9, 2))
    assert fundamental_weight(rs, 1) == (1, 0, 0)
    assert fundamental_weight(rs, 2) == (1, 1, 0)
    assert fundamental_weight(rs, 3) == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert rs.cartan_matrix == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))


def test_g2_frozen_values():
    rs = build("G2", 2)
    assert rs.cartan_matrix == ((2, -3), (-1, 2))
    # the long fundamental weight is the highest root, three alpha1 plus two alpha2
    w2 = fundamental_weight(rs, 2)
    assert w2 == highest_root(rs)
    assert to_simple_root_coords(w2, rs) == (3, 2)


def test_f4_frozen_values():
    rs = build("F4", 4)
    assert rs.cartan_matrix == ((2, -1, 0, 0), (-1, 2, -1, 0),
                                (0, -2, 2, -1), (0, 0, -1, 2))
    assert rs.rho == (Fraction(11, 2), Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
    assert highest_root(rs) == (1, 1, 0, 0)


@pytest.mark.parametrize("label, rank, expected", [
    ("A", 3, (1, 0, 0, -1)),
    ("B", 3, (1, 1, 0)),
    ("C", 3, (2, 0, 0)),
    ("D", 4, (1, 1, 0, 0)),
    ("G2", 2, (-1, -1, 2)),
    ("F4", 4, (1, 1, 0, 0)),
])
def test_highest_root_frozen(label, rank, expected):
    assert highest_root(build(label, rank)) == lattice.vector(expected)


@pytest.mark.parametrize("label, rank", ALL_SYSTEMS)
def test_highest_root_dominates(label, rank):
    rs = build(label, rank)
    theta = highest_root(rs)
    assert is_dominant(theta, rs)
    # strictly taller than every other positive root
    heights = [sum(c) for c in rs.positive_root_alpha_coords]
    assert heights.count(max(heights)) == 1


@pytest.mark.parametrize("label, rank", [("A", 0), ("B", 1), ("C", 2),
                                         ("D", 3), ("G2", 3), ("F4", 2),
                                         ("E6", 5), ("E8", 7)])
def test_unsupported_ranks(label, rank):
    with pytest.raises(UnsupportedRank):
        build(label, rank)


def test_unknown_type():
    with pytest.raises(UnsupportedRank):
        build("H", 3)


def test_to_simple_root_coords_rejects_off_span():
    # each vector is orthogonal to the root span, which is smaller than the ambient space
    for label, rank, off_span in [
        ("A", 2, (1, 1, 1)),
        ("G2", 2, (1, 1, 1)),
        ("E6", 6, (0, 0, 0, 0, 0, 1, -1, 0)),  # e6 - e7
        ("E7", 7, (0, 0, 0, 0, 0, 0, 1, 1)),  # e7 + e8
    ]:
        rs = build(label, rank)
        off_span = lattice.vector(off_span)
        for w in (off_span, lattice.add(rs.rho, off_span)):
            with pytest.raises(NotInRootSpan):
                to_simple_root_coords(w, rs)
        with pytest.raises(ValueError):
            to_simple_root_coords(off_span[1:], rs)  # wrong dimension
    with pytest.raises(NotInRootSpan):
        to_simple_root_coords(lattice.vector([1, 0, 0]), build("A", 2))  # nonzero coordinate sum


# Each edit replaces the simple roots, the one input build reads, by a set
# that breaks one check; build must refuse it with the matching RuntimeError.
@pytest.mark.parametrize("label, rank, edit, message", [
    pytest.param("G2", 2, lambda dim, simple: (dim, [simple[0], lattice.scale(2, simple[1])]),
                 "G2: non-integral Cartan entry", id="G2-doubled-long-root"),
    # the affine A2 diagram: the closure never stops
    pytest.param("A", 3, lambda dim, simple: (3, [lattice.vector(v) for v in
                                                  ((1, -1, 0), (0, 1, -1), (-1, 0, 1))]),
                 "A3: more than 6 positive roots", id="A3-affine-A2"),
    # a finite type with more roots than expected: B4 in place of D4
    pytest.param("D", 4, lambda dim, simple: (dim, simple[:3] + [lattice.vector((0, 0, 0, 1))]),
                 "D4: more than 12 positive roots", id="D4-given-B4"),
    # a finite type with fewer roots than expected: D3 = A3 in place of B3
    pytest.param("B", 3, lambda dim, simple: (dim, simple[:2] + [lattice.vector((0, 1, 1))]),
                 "B3: 6 positive roots, expected 9", id="B3-given-D3"),
    # e2 pairs positively with e2 - e3: a nonsingular integral Cartan matrix,
    # not of finite type, whose closure stops at six roots, the A3 count
    pytest.param("A", 3, lambda dim, simple: (3, [lattice.vector(v) for v in
                                                  ((1, -1, 0), (0, 1, -1), (0, 1, 0))]),
                 "A3: rho computed two ways disagrees", id="A3-positive-pairing"),
])
def test_build_rejects_broken_realizations(label, rank, edit, message, monkeypatch):
    original = rootsystem._simple_roots
    monkeypatch.setattr(rootsystem, "_simple_roots", lambda *args: edit(*original(*args)))
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        build.__wrapped__(label, rank)


# Bourbaki's ambient root tables (Plates I-IX), which build no longer reads:
# an oracle for the root-string closure that reads only the simple roots.
TABLE_SYSTEMS = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
                 + [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)]
                 + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)])


def _unit(dim, i, value=1):
    return lattice.vector([value if k == i else 0 for k in range(dim)])


def _classical_positive_roots(label, r):
    """e_i - e_j, then e_i + e_j (B, C, D), then e_i (B) or 2e_i (C), i < j."""
    dim = r + 1 if label == "A" else r
    pairs = list(itertools.combinations(range(dim), 2))
    roots = [lattice.sub(_unit(dim, i), _unit(dim, j)) for i, j in pairs]
    if label != "A":
        roots += [lattice.add(_unit(dim, i), _unit(dim, j)) for i, j in pairs]
    if label in ("B", "C"):
        roots += [_unit(dim, i, 1 if label == "B" else 2) for i in range(dim)]
    return roots


def _signed_pair_roots(dim, count):
    # +-e_i +- e_j for i < j < count
    roots = []
    for i, j in itertools.combinations(range(count), 2):
        for u in (lattice.add(_unit(dim, i), _unit(dim, j)),
                  lattice.sub(_unit(dim, i), _unit(dim, j))):
            roots += [u, lattice.scale(-1, u)]
    return roots


def _exceptional_roots(label):
    """Every root, positive and negative, in build's ambient coordinates."""
    half = Fraction(1, 2)
    if label == "G2":
        short = [lattice.sub(_unit(3, i), _unit(3, j))
                 for i in range(3) for j in range(3) if i != j]
        long = [lattice.vector([2 if k == i else -1 for k in range(3)]) for i in range(3)]
        return short + long + [lattice.scale(-1, v) for v in long]
    if label == "F4":
        return (_signed_pair_roots(4, 4)
                + [lattice.scale(s, _unit(4, i)) for i in range(4) for s in (1, -1)]
                + [tuple(half * s for s in signs)
                   for signs in itertools.product((1, -1), repeat=4)])
    e8 = _signed_pair_roots(8, 8) + [
        tuple(half * s for s in signs)
        for signs in itertools.product((1, -1), repeat=8) if signs.count(-1) % 2 == 0]
    # E7 is orthogonal to e7 + e8 inside E8, and E6 to e6 - e7 as well
    walls = {"E8": [], "E7": [(6, 7, 1)], "E6": [(6, 7, 1), (5, 6, -1)]}[label]
    return [v for v in e8 if all(v[i] + sign * v[j] == 0 for i, j, sign in walls)]


@pytest.mark.parametrize("label, rank", TABLE_SYSTEMS)
def test_positive_roots_match_bourbaki_tables(label, rank):
    rs = build(label, rank)
    if label in {"G2", "F4", "E6", "E7", "E8"}:
        roots = _exceptional_roots(label)
        assert 2 * len(rs.positive_roots) == len(roots)
        negatives = {lattice.scale(-1, a) for a in rs.positive_roots}
        assert set(rs.positive_roots) | negatives == set(roots)
    else:
        assert list(rs.positive_roots) == _classical_positive_roots(label, rank)


CARTAN_DETERMINANTS = {"A": lambda r: r + 1, "B": lambda r: 2, "C": lambda r: 2,
                       "D": lambda r: 4, "G2": lambda r: 1, "F4": lambda r: 1,
                       "E6": lambda r: 3, "E7": lambda r: 2, "E8": lambda r: 1}


@pytest.mark.parametrize("label, rank", ALL_SYSTEMS)
def test_integer_inverse_cartan(label, rank):
    # adj(C) C = det(C) I in integers, and det(C) = |P / Q| (Humphreys 13.1)
    rs = build(label, rank)
    det = rs.cartan_determinant
    assert det == CARTAN_DETERMINANTS[label](rank)
    assert all(type(x) is int for row in rs.cartan_adjugate for x in row)
    cartan = rs.cartan_matrix
    for i, row in enumerate(rs.cartan_adjugate):
        assert [sum(row[k] * cartan[k][j] for k in range(rank))
                for j in range(rank)] == [det * (i == j) for j in range(rank)]


# A basis of the orthogonal complement of the root span, where it is not 0.
OFF_SPAN = {
    "A": lambda r: [(1,) * (r + 1)],
    "G2": lambda r: [(1, 1, 1)],
    "E6": lambda r: [(0,) * 5 + (1, -1, 0), (0,) * 6 + (1, 1)],  # e6 - e7, e7 + e8
    "E7": lambda r: [(0,) * 6 + (1, 1)],  # e7 + e8
}


def combination(coords, basis, dim):
    v = lattice.zeros(dim)
    for c, b in zip(coords, basis):
        v = lattice.add(v, lattice.scale(c, b))
    return v


@pytest.mark.parametrize("label, rank", [("A", 2), ("A", 8), ("B", 3), ("B", 8),
                                         ("C", 3), ("C", 8), ("D", 4), ("D", 8),
                                         ("G2", 2), ("F4", 4), ("E6", 6),
                                         ("E7", 7), ("E8", 8)])
def test_coordinate_round_trips(label, rank):
    rs = build(label, rank)
    dim = rs.ambient_dim
    rng = random.Random(11)
    for _ in range(25):
        coords = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2])) for _ in range(rank)]
        v = combination(coords, rs.simple_roots, dim)
        assert to_simple_root_coords(v, rs) == tuple(coords)
    for _ in range(25):
        coords = [Fraction(rng.randint(-6, 6)) for _ in range(rank)]
        v = combination(coords, rs.fundamental_weights, dim)
        assert to_fundamental_coords(v, rs) == tuple(coords)

    # vectors of the span moved off it by the complement, where there is
    # room: the complement pairs to 0 with every coroot, so the pairings stay
    # and only the Weight's off part, which is the shift, tells the two apart
    off_span = [lattice.vector(u) for u in OFF_SPAN.get(label, lambda r: [])(rank)]
    assert len(off_span) == dim - rank
    assert all(lattice.dot(u, alpha) == 0 for u in off_span for alpha in rs.simple_roots)
    moved = 0
    for _ in range(25):
        coords = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(rank)]
        v = combination(coords, rs.simple_roots, dim)
        shift = [Fraction(rng.choice([0, 0, 1, -2]), rng.choice([1, 2])) for _ in off_span]
        off = combination(shift, off_span, dim)
        w = lattice.add(v, off)
        pairings = rootsystem.coroot_pairings(w, rs)
        assert pairings == rootsystem.coroot_pairings(v, rs)
        ints, d, found = rootsystem.weight(w, rs)
        assert all(type(c) is int for c in ints + (d,))
        assert tuple(Fraction(c, d) for c in ints) == pairings
        assert found == (off if any(off) else None)
        if found is None:
            assert w == v
            assert to_fundamental_coords(w, rs) == pairings
            assert to_simple_root_coords(w, rs) == tuple(coords)
        else:
            moved += 1
            with pytest.raises(NotInRootSpan):
                to_fundamental_coords(w, rs)
            with pytest.raises(NotInRootSpan):
                to_simple_root_coords(w, rs)
    assert (moved > 0) == bool(off_span)


@pytest.mark.parametrize("label, rank", [("A", 2), ("A", 5), ("G2", 2), ("E6", 6), ("E7", 7)])
@pytest.mark.parametrize("call", [weight_diagram, is_dominant, is_dominant_integral,
                                  to_fundamental_coords, to_simple_root_coords])
def test_off_span_lambda_is_refused(label, rank, call):
    # theta moved off the span by the complement keeps theta's dominant
    # integral pairings, so only the span test refuses it, as it did when
    # each of these tested the span by its own pairing pass
    rs = build(label, rank)
    lam = lattice.add(highest_root(rs), lattice.vector(OFF_SPAN[label](rank)[0]))
    assert rootsystem.coroot_pairings(lam, rs) == to_fundamental_coords(highest_root(rs), rs)
    with pytest.raises(NotInRootSpan, match="is not in the span of the simple roots of"):
        call(lam, rs)


def test_dominance_predicates():
    rs = build("B", 3)
    w2 = fundamental_weight(rs, 2)
    assert is_dominant(w2, rs) and is_dominant_integral(w2, rs)
    assert not is_dominant(lattice.scale(-1, w2), rs)
    half = lattice.scale(Fraction(1, 2), fundamental_weight(rs, 1))
    assert is_dominant(half, rs) and not is_dominant_integral(half, rs)
    w3 = fundamental_weight(rs, 3)  # half-odd coordinates, still integral
    assert is_dominant_integral(w3, rs)


@pytest.mark.parametrize("label, rank, expected", [
    ("A", 1, (2,)),
    ("A", 2, (1, 1)),
    ("A", 5, (1, 0, 0, 0, 1)),
    ("B", 2, (1, 0)),
    ("B", 6, (1, 0, 0, 0, 0, 0)),
    ("C", 3, (1, -1, 1)),
    ("C", 5, (1, 0, 0, -1, 1)),
    ("D", 4, (1, -1, 1, 1)),
    ("D", 6, (1, 0, 0, -1, 1, 1)),
    ("G2", 2, (-1, 1)),
    ("F4", 4, (1, 0, -1, 1)),
    ("E6", 6, (1, 1, 0, -1, 0, 1)),
    ("E7", 7, (1, 1, 0, -1, 0, 0, 1)),
    ("E8", 8, (1, 1, 0, -1, 0, 0, 0, 1)),
])
def test_sum_of_simple_roots_fundamental_coords(label, rank, expected):
    rs = build(label, rank)
    fc = sum_of_simple_roots_in_fundamental_basis(rs)
    assert fc == tuple(Fraction(c) for c in expected)
    assert is_dominant(sum_of_simple_roots(rs), rs) == (label in ("A", "B"))


# the dominant weights of B_r with first coordinate at most 1, the mu that
# verify nonzero-mu sweeps, as a closed list

def test_box_enumeration_b2():
    box = type_b_weights_below_one(2)
    assert box == [lattice.vector([0, 0]),
                   lattice.vector(["1/2", "1/2"]),
                   lattice.vector([1, 0]),
                   lattice.vector([1, 1])]


def test_box_enumeration_b3():
    rs = build("B", 3)
    box = type_b_weights_below_one(3)
    assert len(box) == 5
    assert lattice.vector(["1/2", "1/2", "1/2"]) in box
    assert all(is_dominant_integral(w, rs) for w in box)


@pytest.mark.parametrize("rank", range(2, 7))
def test_box_b_bound_one_is_fundamental_weights(rank):
    # 0, omega_1..omega_r and 2 omega_r = (1, ..., 1), sorted; a scan of the
    # nonincreasing vectors over 0, 1/2 and 1 finds the same dominant
    # integral weights
    rs = build("B", rank)
    expected = {lattice.zeros(rs.ambient_dim),
                lattice.scale(2, fundamental_weight(rs, rank))}
    expected |= {fundamental_weight(rs, i) for i in range(1, rank + 1)}
    box = type_b_weights_below_one(rank)
    assert len(box) == rank + 2
    assert set(box) == expected and box == sorted(box)
    values = [Fraction(n, 2) for n in (2, 1, 0)]
    scan = [w for w in itertools.combinations_with_replacement(values, rank)
            if is_dominant_integral(w, rs)]
    assert sorted(scan) == box


def test_build_is_cached():
    assert build("B", 3) is build("B", 3)
    # every spelling of a label is one system with one object
    assert build("b", 3) is build("B", 3)
    assert build("e8", 8) is build("E8", 8)
