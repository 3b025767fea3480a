"""Alternation sets, multiplicities, q-analogs, weight diagrams, predictions."""

import importlib
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from weylalt import kostant, lattice, rootsystem
from weylalt.cli import parse_weight
from weylalt.combinatorics import binomial, fibonacci, lucas
from weylalt.errors import CapExceeded, NotInRootSpan, TableTooLarge
from weylalt.kostant import QPolynomial, partition_q
from weylalt.multiplicity import (_survivor_terms, alternating_sum,
                                  alternation_set, fibonacci_family,
                                  multiplicity, q_multiplicity,
                                  q_multiplicity_terms, walk_start,
                                  weight_diagram)
from weylalt.rootsystem import (build, coroot_pairings, fundamental_weight,
                                highest_root, is_dominant, sum_of_simple_roots,
                                to_simple_root_coords, weight)
from weylalt.weyl import WeylElement, generators, group_order

from tests.oracles import (ambient_start, enumerate_group, freudenthal,
                           inversion_length, kostka_foulkes, orbit, partitions,
                           weyl_dimension)

# the package re-exports the function multiplicity over the module's name
multiplicity_module = importlib.import_module("weylalt.multiplicity")


def zero_of(rs):
    return lattice.zeros(rs.ambient_dim)


# === frozen small cases ===

def test_b2_alternation_set():
    rs = build("B", 2)
    aset = alternation_set(fundamental_weight(rs, 1), zero_of(rs), rs)
    assert aset.words() == [(), (2,)]
    assert len(aset) == 2


def test_b2_per_element_terms():
    rs = build("B", 2)
    terms = q_multiplicity_terms(fundamental_weight(rs, 1), zero_of(rs), rs)
    by_word = {element.word: pq for element, pq in terms}
    assert by_word == {(): QPolynomial((0, 1, 1)), (2,): QPolynomial((0, 1))}


def test_b2_q_multiplicity_is_q_squared():
    rs = build("B", 2)
    mq = q_multiplicity(fundamental_weight(rs, 1), zero_of(rs), rs)
    assert mq == QPolynomial.monomial(2)
    assert multiplicity(fundamental_weight(rs, 1), zero_of(rs), rs) == 1


def test_b3_alternation_set_words():
    rs = build("B", 3)
    aset = alternation_set(fundamental_weight(rs, 1), zero_of(rs), rs)
    assert aset.words() == [(), (2,), (3,)]


def test_a2_highest_root_alternation_set():
    rs = build("A", 2)
    aset = alternation_set(highest_root(rs), zero_of(rs), rs)
    assert aset.words() == [()]


def test_mu_equal_lambda_keeps_only_identity():
    rs = build("B", 3)
    w1 = fundamental_weight(rs, 1)
    aset = alternation_set(w1, w1, rs)
    assert aset.words() == [()]


def test_mu_other_dominant_weights_empty():
    rs = build("B", 3)
    w1 = fundamental_weight(rs, 1)
    # the dominant weights with first coordinate at most 1
    half = Fraction(1, 2)
    for mu in map(lattice.vector, [(0, 0, 0), (half, half, half), (1, 0, 0),
                                   (1, 1, 0), (1, 1, 1)]):
        aset = alternation_set(w1, mu, rs)
        if mu == zero_of(rs):
            assert len(aset) == 3
        elif mu == w1:
            assert len(aset) == 1
        else:
            assert len(aset) == 0
            assert multiplicity(w1, mu, rs) == 0


# === zero weight of the adjoint representation ===
# the q-analog lists the exponents of the group, a classical cross-check
# computed here through a completely different pipeline

ADJOINT_EXPONENTS = {
    ("A", 2): (1, 2),
    ("A", 3): (1, 2, 3),
    ("B", 3): (1, 3, 5),
    ("C", 3): (1, 3, 5),
    ("D", 4): (1, 3, 3, 5),
    ("G2", 2): (1, 5),
    ("F4", 4): (1, 5, 7, 11),
    ("E6", 6): (1, 4, 5, 7, 8, 11),
    ("E7", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E8", 8): (1, 7, 11, 13, 17, 19, 23, 29),
}


@pytest.mark.parametrize("label, rank", sorted(ADJOINT_EXPONENTS))
def test_adjoint_zero_weight_q_analog_lists_exponents(label, rank):
    rs = build(label, rank)
    expected = QPolynomial.zero()
    for e in ADJOINT_EXPONENTS[(label, rank)]:
        expected = expected + QPolynomial.monomial(e)
    mq = q_multiplicity(highest_root(rs), zero_of(rs), rs, cap=group_order(rs))
    assert mq == expected
    assert mq.evaluate(1) == rank


# === the weak-order walk and the full enumeration agree ===

def random_weight(rs, rng, low, high):
    v = zero_of(rs)
    for i in range(1, rs.rank + 1):
        v = lattice.add(v, lattice.scale(rng.randint(low, high),
                                         fundamental_weight(rs, i)))
    return v


def below(lam, rs, rng):
    """lambda minus a random nonnegative combination of simple roots."""
    for alpha in rs.simple_roots:
        lam = lattice.sub(lam, lattice.scale(rng.randint(0, 2), alpha))
    return lam


def survivor_cases(rs, rng, count):
    """(lambda, mu) pairs: dominant, non-dominant and half-integral eps:
    weights, and the type-specific corners."""
    cases = []
    for _ in range(count):
        lam = random_weight(rs, rng, 0, 2)
        cases += [(lam, zero_of(rs)), (lam, below(lam, rs, rng))]
        lam = random_weight(rs, rng, -2, 2)
        cases += [(lam, random_weight(rs, rng, -2, 1)), (lam, below(lam, rs, rng))]
        lam = lattice.vector([Fraction(rng.randint(-3, 3), 2)
                              for _ in range(rs.ambient_dim)])
        cases += [(lam, zero_of(rs)), (lam, below(lam, rs, rng))]
    if str(rs) == "B2":  # lambda + rho = (1, 1) is singular
        lam = lattice.sub(fundamental_weight(rs, 2), fundamental_weight(rs, 1))
        cases += [(lam, below(lam, rs, rng)) for _ in range(3)]
    if rs.type_label == "A":  # lambda - mu off the trace-zero hyperplane
        unit = lattice.vector([1] + [0] * rs.rank)
        cases += [(unit, zero_of(rs)), (lattice.add(rs.rho, unit), zero_of(rs)),
                  (unit, below(unit, rs, rng))]
    return cases


def enumerated_survivors(elements, lam, mu, rs):
    # w(lam + rho) is s_i applied to the image of the suffix word[1:], which
    # is lex-least and shorter, so its image is already in the table
    gens = generators(rs)
    image = {(): lattice.add(lam, rs.rho)}
    shift = lattice.add(mu, rs.rho)
    out = set()
    for w in elements:
        if w.word:
            image[w.word] = gens[w.word[0] - 1].act(image[w.word[1:]])
        xi = lattice.sub(image[w.word], shift)
        try:
            coords = to_simple_root_coords(xi, rs)
        except NotInRootSpan:
            continue
        if all(c >= 0 and c.denominator == 1 for c in coords):
            out.add((w.word, tuple(int(c) for c in coords)))
    return out


@pytest.mark.parametrize("label, rank", [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
    ("D", 4), ("G2", 2), ("F4", 4)])
def test_fast_path_matches_enumeration(label, rank):
    # the weak-order walk against a filter over the whole group
    rs = build(label, rank)
    rng = random.Random(17)
    elements = list(enumerate_group(rs))
    count = 3 if len(elements) <= 200 else 2 if len(elements) <= 400 else 1
    nontrivial = 0
    for lam, mu in survivor_cases(rs, rng, count):
        terms = _survivor_terms(ambient_start(lam, mu, rs), rs, group_order(rs))
        walked = {(w.word, c) for w, c in terms}
        assert len(walked) == len(terms)  # each element reached once
        assert walked == enumerated_survivors(elements, lam, mu, rs)
        nontrivial += len(walked) > 1
    assert nontrivial >= 2


def weight_of(coords, d, rs):
    """The ambient weight with fundamental coordinates coords / d."""
    v = lattice.zeros(rs.ambient_dim)
    for c, omega in zip(coords, rs.fundamental_weights):
        v = lattice.add(v, lattice.scale(Fraction(c, d), omega))
    return v


NINE_TYPES = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4),
              ("E6", 6), ("E7", 7), ("E8", 8)]


def library_start(lam, mu, rs):
    """The walk's start of the library entries, for ambient lambda and mu."""
    return walk_start(weight(lam, rs), weight(mu, rs), rs)


def off_span_unit(rs):
    """The first e_k outside the root span, None when the roots span."""
    for k in range(rs.ambient_dim):
        e = lattice.vector(int(j == k) for j in range(rs.ambient_dim))
        try:
            to_simple_root_coords(e, rs)
        except NotInRootSpan:
            return e
    return None


@pytest.mark.parametrize("label, rank", NINE_TYPES)
def test_integer_start_is_the_ambient_start(label, rank):
    # random weights over denominators 1 to 3, some of mu moved off the root
    # span where A, G2, E6 and E7 leave room. A vector's Weight is the same
    # through rootsystem.weight and through an eps: expression: integer
    # coordinates in lowest terms, and off, the vector less the combination
    # of fundamental weights they name, which no coroot sees and which is
    # None unless the vector was moved off the span. walk_start gives the
    # Fraction solve's xi and pairings up to the common scale, and its steps;
    # None exactly when mu is off the span.
    rs = build(label, rank)
    rng = random.Random(41)
    off = off_span_unit(rs)
    seen = Counter()
    for _ in range(12):
        lam = weight_of([rng.randint(-4, 4) for _ in range(rank)], rng.choice([1, 2, 3]), rs)
        mu = weight_of([rng.randint(-4, 4) for _ in range(rank)], rng.choice([1, 2, 3]), rs)
        moved = off is not None and rng.random() < 0.3
        if moved:
            mu = lattice.add(mu, lattice.scale(rng.choice([-1, Fraction(1, 2), 2]), off))
        for v in (lam, mu):
            w = weight(v, rs)
            assert parse_weight("eps:" + ",".join(map(str, v)), rs) == w
            assert all(type(c) is int for c in w.coords + (w.denominator,))
            pairings = coroot_pairings(v, rs)
            assert [Fraction(c, w.denominator) for c in w.coords] == list(pairings)
            assert w.denominator == lcm(*(c.denominator for c in pairings))
            span_part = weight_of(w.coords, w.denominator, rs)
            assert w.off == (lattice.sub(v, span_part) if v is mu and moved else None)
            assert w.off is None or not any(coroot_pairings(w.off, rs))
        start, expected = library_start(lam, mu, rs), ambient_start(lam, mu, rs)
        assert (start is None) == (expected is None) == moved
        if start is not None:
            xi, nu, steps, scale = start
            a_xi, a_nu, a_steps, a_scale = expected
            assert [Fraction(x, scale) for x in xi + nu] == \
                [Fraction(x, a_scale) for x in a_xi + a_nu]
            assert steps == a_steps
        seen.update(moved=moved, steps=bool(start and start.steps))
    assert seen["steps"] and (seen["moved"] or off is None)


@pytest.mark.parametrize("label, rank", [("A", 3), ("A", 5), ("G2", 2), ("E6", 6), ("E7", 7)])
def test_span_test_is_an_equality_of_off_parts(label, rank):
    # lambda and mu moved off the root span by random ambient vectors, or not
    # at all, and some of mu by lambda's own vector, or by it plus a root.
    # off is linear, so lambda's off part is its vector's; walk_start is None
    # exactly when the two off parts differ, and exactly when the Fraction
    # solve finds lambda - mu off the span.
    rs = build(label, rank)
    rng = random.Random(f"off parts {label}{rank}")
    dim = rs.ambient_dim

    def complement():
        if rng.random() < 0.25:
            return zero_of(rs)
        return tuple(Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(dim))

    seen = Counter()
    for _ in range(30):
        lam = weight_of([rng.randint(-3, 3) for _ in range(rank)], rng.choice([1, 2]), rs)
        mu = weight_of([rng.randint(-3, 3) for _ in range(rank)], rng.choice([1, 2]), rs)
        u = complement()
        shared = rng.random() < 0.5
        v = u if shared else complement()
        if shared and rng.random() < 0.5:
            v = lattice.add(v, rng.choice(rs.positive_roots))
        lam_weight, mu_weight = weight(lattice.add(lam, u), rs), weight(lattice.add(mu, v), rs)
        assert lam_weight.off == weight(u, rs).off and mu_weight.off == weight(v, rs).off
        differ = lam_weight.off != mu_weight.off
        start = walk_start(lam_weight, mu_weight, rs)
        expected = ambient_start(lattice.add(lam, u), lattice.add(mu, v), rs)
        assert (start is None) == differ == (expected is None)
        if shared:
            assert not differ
        seen.update(differ=differ, equal=not differ,
                    moved_together=shared and lam_weight.off is not None)
    assert seen["differ"] and seen["equal"] and seen["moved_together"]


def test_walk_start_makes_no_pairing(monkeypatch):
    # the span test compares the off parts the Weights carry: walk_start
    # pairs nothing with the coroots and calls no lattice function
    rs = build("E6", 6)
    u = lattice.vector((0,) * 5 + (1, -1, 0))  # e6 - e7, off the span
    theta = highest_root(rs)
    moved, also_moved, plain, zero = (weight(lattice.add(theta, u), rs), weight(u, rs),
                                      weight(theta, rs), weight(zero_of(rs), rs))

    def refuse(*args):
        raise AssertionError("walk_start converted a vector")

    for name in ("coroot_pairings", "weight"):
        monkeypatch.setattr(rootsystem, name, refuse)
    for name in ("add", "sub", "dot", "scale"):
        monkeypatch.setattr(lattice, name, refuse)
    assert walk_start(moved, plain, rs) is None
    assert walk_start(moved, also_moved, rs) == walk_start(plain, zero, rs)


def test_weight_diagram_converts_lambda_once(monkeypatch):
    # lambda's Weight is made once for the whole diagram, and each candidate
    # is converted once
    rs = build("B", 3)
    calls = []
    convert = multiplicity_module.weight

    def counted(v, rs):
        calls.append(v)
        return convert(v, rs)

    monkeypatch.setattr(multiplicity_module, "weight", counted)
    entries = weight_diagram(rs.rho, rs)
    assert sum(e.multiplicity for e in entries) == 2 ** len(rs.positive_roots)
    assert calls.count(rs.rho) == 1
    assert len(calls) == len(set(calls)) > len(entries)


@pytest.mark.parametrize("label, rank", NINE_TYPES)
def test_library_start_matches_the_fraction_solve(label, rank):
    # seeded lambda over denominators 1 to 3, non-dominant, with lambda+rho
    # singular or not dominant; mu off lambda by simple roots, or anywhere in
    # the small groups, or moved off the root span where A, G2, E6 and E7
    # leave room. The library's survivors and xi are those of the Fraction
    # solve's start, and off the span there are none. In the large groups
    # lambda+rho = w(nu) for a short random word w and a nu with one
    # coordinate at most 0: a long w, a nu near 0 or a far mu would leave
    # much of W surviving.
    rs = build(label, rank)
    order = group_order(rs)
    small = order <= 1152
    rng = random.Random(f"domain {label}{rank}")
    off = off_span_unit(rs)
    assert (off is None) == (label in ("B", "C", "D", "F4", "E8"))

    seen = Counter()
    for draw in range(18):
        d = draw % 3 + 1
        lam_coords = [rng.randint(-3 * d if small else 0, 2 * d) for _ in range(rank)]
        if not small:
            lam_coords[rng.randrange(rank)] = rng.randint(-d, 0)
        lam = weight_of(lam_coords, d, rs)
        if not small:
            word = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 6)))
            lam = lattice.sub(WeylElement(word, rs).act(lattice.add(lam, rs.rho)), rs.rho)
        if small and rng.random() < 0.3:
            mu = weight_of([rng.randint(-6, 6) for _ in range(rank)],
                           rng.choice([1, 2, 3]), rs)
        else:
            steps = [-1, 0, 1, 2] if rng.random() < 0.25 else [0, 1, 2]
            drop = lattice.zeros(rs.ambient_dim)
            for alpha in rs.simple_roots:
                drop = lattice.add(drop, lattice.scale(rng.choice(steps), alpha))
            mu = lattice.sub(lam, drop)
        moved = off is not None and rng.random() < 0.3
        if moved:
            mu = lattice.add(mu, off)
        expected = _survivor_terms(ambient_start(lam, mu, rs), rs, order)
        walked = _survivor_terms(library_start(lam, mu, rs), rs, order)
        assert sorted((w.word, xi) for w, xi in walked) == \
            sorted((w.word, xi) for w, xi in expected)
        assert alternation_set(lam, mu, rs, order).elements == {w for w, _ in expected}
        if moved:
            assert not walked
            assert q_multiplicity(lam, mu, rs, order) == QPolynomial.zero()
        shifted = coroot_pairings(lattice.add(lam, rs.rho), rs)
        seen.update(survivors=bool(walked), off_span=moved,
                    non_dominant=min(lam_coords) < 0, singular=0 in shifted,
                    non_dominant_shift=min(shifted) < 0,
                    **{f"d={weight(lam, rs).denominator}": 1})
    assert seen["survivors"] and seen["non_dominant"] and seen["singular"]
    assert seen["d=2"] and seen["d=3"] and seen["non_dominant_shift"]
    assert seen["off_span"] or off is None
    # a vector of the wrong length is refused, alone or in a pair
    lam = highest_root(rs)
    for bad in ((lam + (Fraction(0),), zero_of(rs) + (Fraction(0),)),
                (lam[:-1], zero_of(rs)), (lam, zero_of(rs)[:-1])):
        with pytest.raises(ValueError):
            alternation_set(*bad, rs, order)
        with pytest.raises(ValueError):
            q_multiplicity(*bad, rs, order)


@pytest.mark.parametrize("label, rank", [("B", 4), ("C", 3), ("D", 4), ("F4", 4),
                                         ("E8", 8)])
def test_spanning_types_start_without_the_fraction_solve(label, rank, monkeypatch):
    # the simple roots span the ambient space, so the library entries start
    # the walk without the Fraction solve, to_simple_root_coords, refused
    # here in every module that imports it; the oracle's start still needs it
    rs = build(label, rank)
    order = group_order(rs)
    theta, zero = highest_root(rs), zero_of(rs)
    two_theta = lattice.scale(2, theta)
    expected = (alternation_set(theta, zero, rs, order),
                q_multiplicity(two_theta, theta, rs, order))

    def refuse(*args):
        raise AssertionError("the walk's start reached the Fraction solve")

    for name in ("weylalt.rootsystem", "weylalt.multiplicity", "weylalt.kostant",
                 "weylalt.cli", "tests.oracles"):
        module = importlib.import_module(name)
        if hasattr(module, "to_simple_root_coords"):
            monkeypatch.setattr(module, "to_simple_root_coords", refuse)
    assert (alternation_set(theta, zero, rs, order),
            q_multiplicity(two_theta, theta, rs, order)) == expected
    with pytest.raises(AssertionError, match="Fraction solve"):
        ambient_start(theta, zero, rs)


@pytest.mark.parametrize("label, rank", [("B", 3), ("E6", 6)])
def test_q_multiplicity_reflects_lambda_plus_rho_once(label, rank, monkeypatch):
    # the start carries nu, so a query peels lambda+rho once; beyond that
    # only a non-dominant lambda+rho reads each survivor's word back
    rs = build(label, rank)
    order = group_order(rs)
    theta, zero = highest_root(rs), zero_of(rs)
    reflected = lattice.sub(WeylElement((1,), rs).act(lattice.add(theta, rs.rho)), rs.rho)
    survivors = len(alternation_set(reflected, zero, rs, order))
    calls = []
    peel = multiplicity_module._peel

    def counted(*args):
        calls.append(args)
        return peel(*args)

    monkeypatch.setattr(multiplicity_module, "_peel", counted)
    for lam, expected in ((theta, 1), (lattice.scale(-1, rs.rho), 1),
                          (reflected, 1 + survivors)):
        calls.clear()
        q_multiplicity(lam, zero, rs, order)
        assert len(calls) == expected
    assert survivors > 1


@pytest.mark.parametrize("call", [
    lambda v, rs: multiplicity(v, zero_of(rs), rs),
    lambda v, rs: q_multiplicity(zero_of(rs), v, rs),
    lambda v, rs: alternation_set(v, zero_of(rs), rs),
    lambda v, rs: weight_diagram(v, rs),
    lambda v, rs: weight(v, rs),
])
@pytest.mark.parametrize("bad", [1.0, 0.5, "1"])
def test_inexact_coordinates_are_refused(call, bad):
    # a float, or a string, is neither an int nor a Fraction: refused at the
    # door with a ValueError, not an AttributeError deep in the walk
    rs = build("B", 3)
    with pytest.raises(ValueError, match="ints or Fractions"):
        call((bad, 0, 0), rs)


def test_singular_shift_b2():
    # lambda + rho = (1, 1) is fixed by s1, so w and w*s1 give equal terms of
    # opposite sign: survivors come in pairs and the sum vanishes
    rs = build("B", 2)
    lam = lattice.sub(fundamental_weight(rs, 2), fundamental_weight(rs, 1))
    assert lattice.add(lam, rs.rho) == (1, 1)
    a1, a2 = rs.simple_roots
    sizes = []
    for c1, c2 in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]:
        mu = lattice.sub(lam, lattice.add(lattice.scale(c1, a1), lattice.scale(c2, a2)))
        sizes.append(len(alternation_set(lam, mu, rs)))
        assert q_multiplicity(lam, mu, rs) == QPolynomial.zero()
    assert all(n % 2 == 0 for n in sizes) and sum(sizes) > 0


def test_generic_path_used_for_c3():
    rs = build("C", 3)
    theta = highest_root(rs)
    mq = q_multiplicity(theta, zero_of(rs), rs)
    assert mq.evaluate(1) == 3  # rank of C3, zero weight of the adjoint


# === Lusztig's q-analog against Kostka-Foulkes polynomials in type A ===

def test_kostka_foulkes_oracle_matches_macdonald_table():
    # Macdonald, Symmetric Functions and Hall Polynomials, III.6, n = 4
    shapes = partitions(4, 4)
    assert shapes == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    table = [
        [(1,), (0, 1), (0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 1)],
        [(), (1,), (0, 1), (0, 1, 1), (0, 0, 0, 1, 1, 1)],
        [(), (), (1,), (0, 1), (0, 0, 1, 0, 1)],
        [(), (), (), (1,), (0, 1, 1, 1)],
        [(), (), (), (), (1,)],
    ]
    assert [[kostka_foulkes(lam, mu) for mu in shapes] for lam in shapes] == table


def test_q_multiplicity_is_kostka_foulkes_in_type_a():
    # every pair of partitions of size 1 to 6 with at most r + 1 parts, as
    # weights of A_r on r + 1 coordinates: 491 pairs over A1..A4
    pairs = 0
    for rank in range(1, 5):
        rs = build("A", rank)
        for size in range(1, 7):
            shapes = partitions(size, rank + 1)
            weights = [lattice.vector(p + (0,) * (rank + 1 - len(p))) for p in shapes]
            for lam, lam_weight in zip(shapes, weights):
                for mu, mu_weight in zip(shapes, weights):
                    assert (q_multiplicity(lam_weight, mu_weight, rs).coeffs
                            == kostka_foulkes(lam, mu)), (rank, lam, mu)
                    pairs += 1
    assert pairs == 491


@pytest.mark.parametrize("label, rank", [
    ("A", 2), ("B", 2), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4), ("E6", 6),
    ("E7", 7), ("E8", 8)])
def test_q_multiplicity_at_theta_is_positive_and_monic(label, rank):
    # Lusztig's q-analog at dominant mu = theta below lambda = 2 theta has no
    # negative coefficient and is monic of degree ht(2 theta - theta)
    rs = build(label, rank)
    theta = highest_root(rs)
    mq = q_multiplicity(lattice.scale(2, theta), theta, rs, group_order(rs))
    height = max(map(sum, rs.positive_root_alpha_coords))
    assert min(mq.coeffs) >= 0
    assert len(mq.coeffs) == height + 1 and mq.coeffs[-1] == 1


# === cap and table contract ===

def test_alternation_set_cap():
    # the cap counts the walk's nodes, the start included: B3 at w1 visits 3
    rs = build("B", 3)
    with pytest.raises(CapExceeded, match="node cap 2"):
        alternation_set(fundamental_weight(rs, 1), zero_of(rs), rs, cap=2)
    with pytest.raises(CapExceeded):
        q_multiplicity(fundamental_weight(rs, 1), zero_of(rs), rs, cap=2)
    aset = alternation_set(fundamental_weight(rs, 1), zero_of(rs), rs, cap=3)
    assert len(aset) == 3
    assert q_multiplicity(fundamental_weight(rs, 1), zero_of(rs), rs, cap=3) == \
        QPolynomial.monomial(3)


def refuse(*args):
    raise AssertionError("reached a step the query should not take")


def test_table_budget_is_checked_before_the_walk(monkeypatch):
    # E8 at 3 theta: the walk start's box needs at least 1.41 GB of table
    rs = build("E8", 8)
    monkeypatch.setattr(multiplicity_module, "_survivor_terms", refuse)
    with pytest.raises(TableTooLarge):
        q_multiplicity(lattice.scale(3, highest_root(rs)), zero_of(rs), rs,
                       cap=group_order(rs))


def test_alternation_set_requests_no_table(monkeypatch):
    rs = build("E8", 8)
    monkeypatch.delitem(kostant._DEFAULT_CACHES, rs, raising=False)
    monkeypatch.setattr(kostant, "table_layout", refuse)
    aset = alternation_set(lattice.scale(2, highest_root(rs)), zero_of(rs), rs)
    assert len(aset) == 26956


def test_walk_with_no_survivor_fills_no_table(monkeypatch):
    # the table is laid out before the walk and filled after it, for the
    # survivors' rows; with none there is nothing to fill
    rs = build("B", 3)
    monkeypatch.delitem(kostant._DEFAULT_CACHES, rs, raising=False)
    monkeypatch.setattr(multiplicity_module, "_survivor_terms", lambda *args: [])
    monkeypatch.setattr(kostant, "BoxTable", refuse)
    assert q_multiplicity_terms(highest_root(rs), zero_of(rs), rs) == []
    assert rs not in kostant._DEFAULT_CACHES


def test_off_lattice_start_neither_walks_nor_builds_a_table(monkeypatch):
    # every step takes a multiple of det(C) = 2 off xi, and B8's w8 has
    # xi = (1, 2, ..., 8) over the scale 2, so no node can survive
    rs = build("B", 8)
    lam = fundamental_weight(rs, 8)
    assert walk_start(weight(lam, rs), weight(zero_of(rs), rs), rs).xi[0] % 2 == 1
    monkeypatch.delitem(kostant._DEFAULT_CACHES, rs, raising=False)
    monkeypatch.setattr(kostant, "table_layout", refuse)
    assert q_multiplicity_terms(lam, zero_of(rs), rs, cap=1) == []
    assert len(alternation_set(lam, zero_of(rs), rs, cap=1)) == 0
    assert q_multiplicity(lam, zero_of(rs), rs, cap=1) == QPolynomial.zero()


# === weight diagrams ===

def test_weight_diagram_b2_vector():
    rs = build("B", 2)
    entries = weight_diagram(fundamental_weight(rs, 1), rs)
    weights = {e.weight for e in entries}
    assert weights == {(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)}
    assert all(e.multiplicity == 1 for e in entries)


def test_weight_diagram_b2_spinor():
    rs = build("B", 2)
    entries = weight_diagram(fundamental_weight(rs, 2), rs)
    half = Fraction(1, 2)
    assert {e.weight for e in entries} == {(half, half), (half, -half),
                                           (-half, half), (-half, -half)}


def test_weight_diagram_adjoint_dimensions():
    # weights are the roots plus zero with multiplicity the rank
    for label, rank, dim in [("A", 2, 8), ("B", 2, 10), ("G2", 2, 14)]:
        rs = build(label, rank)
        entries = weight_diagram(highest_root(rs), rs)
        assert sum(e.multiplicity for e in entries) == dim
        zero_mult = [e.multiplicity for e in entries if not any(e.weight)]
        assert zero_mult == [rank]
        nonzero = {e.weight for e in entries if any(e.weight)}
        assert nonzero == {r for r in rs.positive_roots} | \
            {lattice.scale(-1, r) for r in rs.positive_roots}


# E8 is left out: its smallest diagram, the adjoint one, needs a table over
# [0, 2 theta], which is over the budget. The E7 w7 diagram took 31.8 s on a
# 2-core x86 with Python 3.11 while each growing candidate box could rebuild
# the table, and takes 3.4 s with one table over [0, lambda - w0 lambda] and
# no walk outside it.
@pytest.mark.parametrize("label, rank, i, dim", [
    ("A", 3, 2, 6), ("B", 3, 3, 8), ("C", 3, 2, 14), ("D", 4, 1, 8),
    ("D", 5, 5, 16), ("G2", 2, 1, 7), ("F4", 4, 4, 26), ("E6", 6, 1, 27),
    ("E7", 7, 7, 56),
])
def test_weight_diagram_matches_weyl_dimension(label, rank, i, dim):
    # and the diagram's dominant weights and their multiplicities are Freudenthal's
    rs = build(label, rank)
    lam = fundamental_weight(rs, i)
    assert weyl_dimension(lam, rs) == dim
    entries = weight_diagram(lam, rs)
    assert sum(e.multiplicity for e in entries) == dim
    assert {e.weight: e.multiplicity for e in entries
            if is_dominant(e.weight, rs)} == freudenthal(lam, rs)


def lowest_weight(lam, rs):
    """w0 lambda: the one weight of lambda's orbit with no positive pairing."""
    (low,) = [v for v in orbit(lam, rs) if max(coroot_pairings(v, rs)) <= 0]
    return low


@pytest.mark.parametrize("label, rank, coords", [
    ("C", 3, (2, 0, 0)), ("B", 3, (1, 1, 1)), ("A", 4, (1, 0, 0, 1)), ("G2", 2, (3, 0)),
    ("E6", 6, (0, 1, 0, 0, 0, 0)),
])
def test_weight_diagram_builds_one_table(label, rank, coords, monkeypatch):
    # with no cached table, a diagram (2 w1, rho, w1 + w4, 3 w1, theta) builds
    # one table, over the box [0, lambda - w0 lambda]; it built 12, 22, 17,
    # 23 and 201 when each candidate's box could grow the table
    rs = build(label, rank)
    lam = weight_of(coords, 1, rs)
    built = []
    box_table = kostant.BoxTable

    def counted(layout, cells=None):
        built.append((layout.top, cells))
        return box_table(layout, cells)

    monkeypatch.setattr(kostant, "BoxTable", counted)
    monkeypatch.delitem(kostant._DEFAULT_CACHES, rs, raising=False)
    entries = weight_diagram(lam, rs)
    assert sum(e.multiplicity for e in entries) == weyl_dimension(lam, rs)
    box = tuple(to_simple_root_coords(lattice.sub(lam, lowest_weight(lam, rs)), rs))
    assert built == [(box, None)]


def small_dominant(rs, rng, most):
    """Up to two distinct seeded dominant weights, each a sum of at most two
    fundamental weights, with Weyl dimension at most most; 0 when none is."""
    pool = []
    for i in range(rs.rank):
        for j in range(i, rs.rank + 1):
            lam = fundamental_weight(rs, i + 1)
            if j < rs.rank:
                lam = lattice.add(lam, fundamental_weight(rs, j + 1))
            if weyl_dimension(lam, rs) <= most:
                pool.append(lam)
    return rng.sample(pool, min(2, len(pool))) or [zero_of(rs)]


@pytest.mark.parametrize("label, rank", NINE_TYPES)
def test_weight_diagram_walks_only_inside_the_box(label, rank, monkeypatch):
    # no candidate outside [w0 lambda, lambda] reaches a sum, and the
    # diagram's dimension and dominant multiplicities are the oracles'; the
    # small weights of E7 and E8 are w7 and 0, as their next diagrams take
    # 15 s (E7 w1) or a table over the budget (E8)
    rs = build(label, rank)
    rng = random.Random(f"diagram box {label}{rank}")
    starts = []
    start_sum = multiplicity_module._start_sum

    def recorded(start, rs, cap):
        starts.append(start)
        return start_sum(start, rs, cap)

    monkeypatch.setattr(multiplicity_module, "_start_sum", recorded)
    for lam in small_dominant(rs, rng, 60 if rank >= 7 else 300):
        starts.clear()
        entries = weight_diagram(lam, rs)
        box = to_simple_root_coords(lattice.sub(lam, lowest_weight(lam, rs)), rs)
        for start in starts:
            assert all(0 <= Fraction(c, start.scale) <= b for c, b in zip(start.xi, box))
        assert sum(e.multiplicity for e in entries) == weyl_dimension(lam, rs)
        assert {e.weight: e.multiplicity for e in entries
                if is_dominant(e.weight, rs)} == freudenthal(lam, rs)


def test_e8_adjoint_diagram_is_refused_before_any_walk(monkeypatch):
    # the box [0, theta - w0 theta] is 2 theta, whose table is over the budget
    def no_walk(start, rs, cap):
        raise AssertionError("the diagram walked")

    rs = build("E8", 8)
    monkeypatch.setattr(multiplicity_module, "_survivor_terms", no_walk)
    with pytest.raises(TableTooLarge, match="over the budget"):
        weight_diagram(highest_root(rs), rs)


def seeded_dominant(rs, rng, terms):
    """A dominant integral weight: the sum of terms random fundamental weights."""
    coords = [0] * rs.rank
    for _ in range(terms):
        coords[rng.randrange(rs.rank)] += 1
    return weight_of(coords, 1, rs)


@pytest.mark.parametrize("label, rank", NINE_TYPES + [("A", 5), ("B", 5), ("D", 5)])
def test_dominant_multiplicities_match_freudenthal(label, rank):
    # seeded small dominant lambda, and theta alone in E7 and E8: at every
    # dominant mu <= lambda, the alternating sum equals Freudenthal's
    # recursion, and the multiplicities over the orbits of the dominant
    # weights add up to the Weyl dimension
    rs = build(label, rank)
    rng = random.Random(f"freudenthal {label}{rank}")
    if label in ("E7", "E8"):
        lams = [highest_root(rs)]
    else:
        lams = [seeded_dominant(rs, rng, rng.randint(1, 1 if rank > 5 else 3))
                for _ in range(3)] + [lattice.scale(2, highest_root(rs))]
    for lam in lams:
        dominant = freudenthal(lam, rs)
        assert dominant[lam] == 1
        assert all(is_dominant(mu, rs) for mu in dominant)
        for mu, m in dominant.items():
            assert multiplicity(lam, mu, rs) == m
        assert sum(m * len(orbit(mu, rs)) for mu, m in dominant.items()) == \
            weyl_dimension(lam, rs)


@pytest.mark.parametrize("label, rank", NINE_TYPES)
def test_lusztig_q_analog_over_dominant_pairs(label, rank):
    # Lusztig's q-analog at every dominant mu <= lambda (224 pairs), for
    # four seeded small dominant lambda and 2 theta, and theta alone in E7
    # and E8: no negative coefficient, monic of degree ht(lambda - mu), and
    # Freudenthal's multiplicity at q = 1
    rs = build(label, rank)
    rng = random.Random(f"lusztig {label}{rank}")
    if label in ("E7", "E8"):
        lams = [highest_root(rs)]
    else:
        lams = [seeded_dominant(rs, rng, rng.randint(1, 2 if rank > 5 else 3))
                for _ in range(4)] + [lattice.scale(2, highest_root(rs))]
    for lam in lams:
        for mu, m in freudenthal(lam, rs).items():
            mq = q_multiplicity(lam, mu, rs)
            height = sum(to_simple_root_coords(lattice.sub(lam, mu), rs))
            assert min(mq.coeffs) >= 0, (lam, mu, mq)
            assert mq.degree == height and mq.coeffs[-1] == 1, (lam, mu, mq)
            assert mq.evaluate(1) == m, (lam, mu, mq)


def random_image(v, rs, rng, steps):
    """v after up to steps random simple reflections, each taken only while
    v stays nonnegative in simple-root coordinates."""
    for _ in range(steps):
        image = WeylElement((rng.randint(1, rs.rank),), rs).act(v)
        if min(to_simple_root_coords(image, rs)) >= 0:
            v = image
    return v


@pytest.mark.parametrize("label, rank", NINE_TYPES)
def test_multiplicity_sums_at_the_dominant_representative(label, rank):
    # lambda + rho = w(top + rho), w a short random word and top seeded
    # dominant (theta in E7 and E8), and mu a W-image of a dominant weight of
    # L(top), nonnegative in simple-root coordinates so that mu's box stays
    # inside [0, top]: multiplicity sums at mu+, q_multiplicity at mu itself,
    # and they agree at q = 1
    rs = build(label, rank)
    rng = random.Random(f"mu+ {label}{rank}")
    tops = ([highest_root(rs)] if label in ("E7", "E8")
            else [seeded_dominant(rs, rng, 2) for _ in range(3)])
    seen = Counter()
    for top in tops:
        for dominant in freudenthal(top, rs):
            for _ in range(3):
                word = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 3)))
                lam = lattice.sub(WeylElement(word, rs).act(lattice.add(top, rs.rho)), rs.rho)
                mu = random_image(dominant, rs, rng, 2 * rank)
                m = multiplicity(lam, mu, rs)
                assert m == q_multiplicity(lam, mu, rs).evaluate(1), (lam, mu)
                seen[is_dominant(lam, rs), is_dominant(mu, rs), m != 0] += 1
    assert seen[False, False, True], seen


def test_multiplicity_stays_at_mu_off_the_weight_lattice():
    # A1, lambda = omega_1/2: m(lambda, lambda) = 1, but its image under s_1
    # is not a weight, so the half-integral mu is not moved to mu+
    rs = build("A", 1)
    half = lattice.scale(Fraction(1, 2), fundamental_weight(rs, 1))
    assert multiplicity(half, half, rs) == 1
    assert multiplicity(half, lattice.scale(-1, half), rs) == 0
    assert multiplicity(half, lattice.scale(-1, half), rs) == \
        q_multiplicity(half, lattice.scale(-1, half), rs).evaluate(1)


def test_e8_multiplicity_at_minus_theta_reads_the_theta_box(monkeypatch):
    # m(theta, -theta) = m(theta, theta) = 1; at -theta the box is 2 theta,
    # over any budget that only the theta box fits
    rs = build("E8", 8)
    theta = highest_root(rs)
    box = max(rs.positive_root_alpha_coords, key=sum)
    monkeypatch.setattr(kostant, "_DEFAULT_CACHES", {})
    monkeypatch.setattr(kostant, "TABLE_BUDGET_BYTES",
                        kostant.table_layout(box, rs.positive_root_alpha_coords).size)
    assert multiplicity(theta, lattice.scale(-1, theta), rs) == 1
    with pytest.raises(TableTooLarge):
        q_multiplicity(theta, lattice.scale(-1, theta), rs)


def test_weight_diagram_sorted_and_positive():
    rs = build("B", 3)
    entries = weight_diagram(fundamental_weight(rs, 2), rs)
    assert [e.weight for e in entries] == sorted(e.weight for e in entries)
    assert all(e.multiplicity > 0 for e in entries)


def test_weight_diagram_rejects_non_dominant():
    rs = build("B", 2)
    with pytest.raises(ValueError):
        weight_diagram(lattice.scale(-1, fundamental_weight(rs, 1)), rs)
    with pytest.raises(ValueError):
        weight_diagram(lattice.scale(Fraction(1, 2),
                                     fundamental_weight(rs, 1)), rs)


def test_weight_diagram_is_weyl_stable():
    rs = build("B", 2)
    entries = weight_diagram(lattice.add(fundamental_weight(rs, 1),
                                         fundamental_weight(rs, 2)), rs)
    mult_of = {e.weight: e.multiplicity for e in entries}
    for w in enumerate_group(rs):
        for weight, m in mult_of.items():
            assert mult_of.get(w.act(weight)) == m


# === the paper's Fibonacci families ===

@pytest.mark.parametrize("label, rank", [*[("A", r) for r in range(1, 13)],
                                         *[("B", r) for r in range(2, 13)]])
def test_fibonacci_family_matches_walk_and_table(label, rank):
    # at (sum of simple roots, 0), the default cap: the walk's words are the
    # family's, F_(m+1) of them, and each term's P_q from the table is its own
    rs = build(label, rank)
    terms = q_multiplicity_terms(sum_of_simple_roots(rs), zero_of(rs), rs)
    family = fibonacci_family(label, rank)
    assert len(family) == fibonacci(rank if label == "A" else rank + 1)
    assert {element.word: pq for element, pq in terms} == family
    assert len(terms) == len(family)


def test_predicted_alternation_set():
    assert set(fibonacci_family("B", 2)) == {(), (2,)}
    assert set(fibonacci_family("B", 4)) == {(), (2,), (3,), (4,), (2, 4)}
    with pytest.raises(ValueError):
        fibonacci_family("B", 1)


def test_predicted_alternation_set_a():
    assert set(fibonacci_family("A", 1)) == set(fibonacci_family("A", 2)) == {()}
    assert set(fibonacci_family("A", 5)) == {(), (2,), (3,), (4,), (2, 4)}
    assert len(fibonacci_family("A", 9)) == 34  # F_9
    with pytest.raises(ValueError):
        fibonacci_family("A", 0)
    with pytest.raises(ValueError):
        fibonacci_family("C", 3)  # C and D have no Fibonacci family


def test_predicted_pq_a_values():
    assert fibonacci_family("A", 1)[()] == QPolynomial.monomial(1)
    assert fibonacci_family("A", 3)[()] == QPolynomial((0, 1, 2, 1))  # q(1+q)^2
    assert fibonacci_family("A", 3)[(2,)] == QPolynomial.monomial(2)
    assert fibonacci_family("A", 5)[(2, 4)] == QPolynomial.monomial(3)


def test_predicted_pq_values():
    assert fibonacci_family("B", 3)[()] == QPolynomial((0, 1, 2, 1))  # q(1+q)^2
    assert fibonacci_family("B", 3)[(2,)] == QPolynomial.monomial(2)
    assert fibonacci_family("B", 3)[(3,)] == QPolynomial((0, 1, 1))
    assert fibonacci_family("B", 4)[(2, 4)] == QPolynomial.monomial(2)


def test_predicted_pq_rejects_bad_index_sets():
    # a word outside the family has no key: consecutive, below 2, above m
    for word in [(2, 3), (1,), (5,)]:
        assert word not in fibonacci_family("B", 4)
    assert (4,) not in fibonacci_family("A", 4)  # A_r stops at s_(r-1)


def test_predicted_count_by_length():
    # C(r-1-k-s, k) words have k reflections besides s_r, s = 1 with s_r;
    # the counts add up to the Fibonacci count
    for label, r in [*[("A", r) for r in range(1, 10)], *[("B", r) for r in range(2, 10)]]:
        histogram = Counter((len(w) - (r in w), r in w) for w in fibonacci_family(label, r))
        expected = {(k, s): binomial(r - 1 - k - s, k) for s in {False, label == "B"}
                    for k in range(r) if binomial(r - 1 - k - s, k)}
        assert histogram == expected
        assert sum(expected.values()) == fibonacci(r if label == "A" else r + 1)


# === the paper's C, D and exceptional counts for lam = sum of simple roots ===

@pytest.mark.parametrize("label, rank, expected", [
    *[("C", r, 2 * lucas(r - 2)) for r in range(3, 13)],
    *[("D", r, 2 * lucas(r - 3)) for r in range(4, 14)],
    ("G2", 2, 2), ("F4", 4, 4), ("E6", 6, 12), ("E7", 7, 18), ("E8", 8, 30),
])
def test_sum_of_simple_roots_alternation_counts(label, rank, expected):
    # lam + rho is dominant but singular here, so the signed terms cancel to
    # 0; the default cap holds, as it counts the walk's nodes, not |W|
    rs = build(label, rank)
    lam = sum_of_simple_roots(rs)
    assert len(alternation_set(lam, zero_of(rs), rs)) == expected
    assert q_multiplicity(lam, zero_of(rs), rs) == QPolynomial.zero()


@pytest.mark.parametrize("rank", range(1, 10))
def test_highest_root_alternation_set_in_type_a(rank):
    # A_r at theta: the family's signed P_q collapse to q + ... + q^r, the
    # exponents of A_r, as q_multiplicity's do
    rs = build("A", rank)
    family = fibonacci_family("A", rank)
    signed = alternating_sum((WeylElement(word, rs), pq) for word, pq in family.items())
    assert signed == QPolynomial.geometric(1, rank) == \
        q_multiplicity(highest_root(rs), zero_of(rs), rs)


@pytest.mark.parametrize("label, rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                         ("G2", 2), ("F4", 4), ("E6", 6),
                                         ("E7", 7), ("E8", 8)])
def test_singular_lambda_plus_rho_gives_zero(label, rank):
    # lam + rho = w(nu) with nu dominant and <nu, alpha_i^vee> = 0 for some i is
    # fixed by the reflection w s_i w^-1, which pairs off the terms of the
    # alternating sum: q_multiplicity is the zero polynomial for every mu, and
    # so is the signed sum of the terms the walk lists
    rs = build(label, rank)
    rng = random.Random(f"{label}{rank}")
    cap = group_order(rs)
    nonempty = 0
    for _ in range(4):
        coeffs = [rng.randint(0, 2) for _ in range(rank)]
        coeffs[rng.randrange(rank)] = 0
        nu = lattice.zeros(rs.ambient_dim)
        for c, omega in zip(coeffs, rs.fundamental_weights):
            nu = lattice.add(nu, lattice.scale(c, omega))
        word = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 8)))
        lam = lattice.sub(WeylElement(word, rs).act(nu), rs.rho)
        mu = lam
        for alpha in rs.simple_roots:
            mu = lattice.sub(mu, lattice.scale(rng.randint(0, 2), alpha))
        nonempty += bool(alternation_set(lam, mu, rs, cap))
        assert q_multiplicity(lam, mu, rs, cap) == QPolynomial.zero()
        terms = q_multiplicity_terms(lam, mu, rs, cap)
        assert alternating_sum(terms) == QPolynomial.zero()
    assert nonempty  # some alternating sum had terms to cancel


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_singular_lambda_plus_rho_needs_no_walk(label, monkeypatch):
    # at lam = mu = -rho every sigma survives, and at lam = sum-simple, mu = 0
    # the walk lists 12, 18 or 30 terms, yet nu has a zero pairing in both,
    # so the sums are 0 with no walk and no P_q table, even at a cap of 1
    rs = build(label, int(label[1]))
    order = group_order(rs)
    minus_rho = lattice.scale(-1, rs.rho)
    cases = [(minus_rho, minus_rho), (sum_of_simple_roots(rs), zero_of(rs))]
    assert len(q_multiplicity_terms(*cases[1], rs, order)) == {"E6": 12, "E7": 18,
                                                               "E8": 30}[label]

    for module in (multiplicity_module, kostant):
        monkeypatch.setattr(module, "_layout_over", refuse)
        monkeypatch.setattr(module, "_table_over", refuse)
    monkeypatch.setattr(multiplicity_module, "_survivor_terms", refuse)
    for lam, mu in cases:
        assert q_multiplicity(lam, mu, rs, order) == QPolynomial.zero()
        assert multiplicity(lam, mu, rs, order) == 0
        assert q_multiplicity(lam, mu, rs, cap=1) == QPolynomial.zero()


@pytest.mark.parametrize("label, rank", NINE_TYPES)
def test_reflected_lambda_plus_rho_flips_the_sign(label, rank):
    # lam + rho = w(nu) for a random word w, applied by the Fraction action:
    # the q-multiplicity is (-1)^len(word) times that at nu - rho, every
    # survivor's xi is sigma(lam + rho) - (mu + rho) in simple-root
    # coordinates, and every word is reduced and lex-least, its first letter
    # the least left descent of what it spells
    rs = build(label, rank)
    rng = random.Random(f"reflect {label}{rank}")
    order = group_order(rs)
    seen = Counter()
    for _ in range(6):
        nu = rs.rho
        for omega in rs.fundamental_weights:
            nu = lattice.add(nu, lattice.scale(rng.randint(0, 2), omega))
        mu = lattice.sub(nu, rs.rho)
        for alpha in rs.simple_roots:
            mu = lattice.sub(mu, lattice.scale(rng.randint(0, 2), alpha))
        word = tuple(rng.randint(1, rank) for _ in range(rng.randint(1, 8)))
        shifted = WeylElement(word, rs).act(nu)
        lam = lattice.sub(shifted, rs.rho)
        mq = q_multiplicity(lam, mu, rs, order)
        at_nu = q_multiplicity(lattice.sub(nu, rs.rho), mu, rs, order)
        assert mq == (-at_nu if len(word) % 2 else at_nu)
        terms = _survivor_terms(library_start(lam, mu, rs), rs, order)
        for sigma, xi in terms:
            image = lattice.sub(sigma.act(shifted), lattice.add(mu, rs.rho))
            assert to_simple_root_coords(image, rs) == xi
            assert sigma.length == inversion_length(sigma, rs)
            v = rs.rho
            for letter in reversed(sigma.word):
                v = WeylElement((letter,), rs).act(v)
                descents = [i + 1 for i, c in enumerate(coroot_pairings(v, rs)) if c < 0]
                assert letter == min(descents)
        seen.update(odd=len(word) % 2, nonzero=bool(at_nu), terms=len(terms),
                    moved=shifted != nu)
    assert seen["odd"] and seen["nonzero"] and seen["terms"] and seen["moved"]
