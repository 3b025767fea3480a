"""Weyl groups as reduced words acting by simple reflections: the Coxeter
relation check, words and lengths, with the breadth-first enumeration of
tests/oracles.py as the reference."""

import random
from fractions import Fraction

import pytest

from weylalt import lattice, weyl
from weylalt.errors import CapExceeded
from weylalt.multiplicity import alternation_set
from weylalt.rootsystem import build
from weylalt.weyl import WeylElement, generators, group_order

from tests.oracles import enumerate_group, inversion_length

ORDERS = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("B", 3): 48,
          ("B", 4): 384, ("C", 3): 48, ("D", 4): 192, ("G2", 2): 12,
          ("F4", 4): 1152, ("E6", 6): 51840, ("E7", 7): 2903040,
          ("E8", 8): 696729600}


@pytest.mark.parametrize("label, rank", sorted(ORDERS))
def test_group_order_formula(label, rank):
    assert group_order(build(label, rank)) == ORDERS[(label, rank)]


@pytest.mark.parametrize("label, rank", [("A", 2), ("A", 3), ("B", 2),
                                         ("B", 3), ("C", 3), ("D", 4),
                                         ("G2", 2)])
def test_enumeration_matches_order(label, rank):
    rs = build(label, rank)
    elements = list(enumerate_group(rs))
    assert len(elements) == ORDERS[(label, rank)]
    assert len(set(elements)) == len(elements)
    assert elements[0].word == ()


def test_enumeration_lengths_nondecreasing():
    rs = build("B", 3)
    lengths = [w.length for w in enumerate_group(rs)]
    assert lengths == sorted(lengths)
    # one top element whose length is the number of positive roots
    assert lengths.count(max(lengths)) == 1
    assert max(lengths) == len(rs.positive_roots)


def test_cap_contract():
    rs = build("B", 3)
    with pytest.raises(CapExceeded):
        list(enumerate_group(rs, cap=47))
    assert len(list(enumerate_group(rs, cap=48))) == 48
    with pytest.raises(CapExceeded):
        next(enumerate_group(build("E8", 8)))  # default cap


def test_simple_reflection_involution_and_action():
    rs = build("B", 2)
    s1, s2 = generators(rs)
    v = lattice.vector([3, Fraction(1, 2)])
    assert s1.act(v) == (Fraction(1, 2), 3)  # swap
    assert s2.act(v) == (3, Fraction(-1, 2))  # flip last sign
    assert s1.act(s1.act(v)) == v
    assert s2.act(s2.act(v)) == v


@pytest.mark.parametrize("label, rank", [("B", 3), ("G2", 2), ("C", 3)])
def test_word_length_equals_inversion_count(label, rank):
    rs = build(label, rank)
    for w in enumerate_group(rs):
        assert w.length == inversion_length(w, rs)


def walked_group(rs):
    """All of W from the alternation-set walk: xi = w(rho) + rho >= 0 for
    every w, so (0, -2 rho) keeps every element."""
    zero = lattice.zeros(rs.ambient_dim)
    return alternation_set(zero, lattice.scale(-2, rs.rho), rs).elements


@pytest.mark.parametrize("label, rank", [("B", 3), ("A", 3), ("G2", 2),
                                         ("C", 3), ("D", 4)])
def test_word_round_trip_through_matrix(label, rank):
    # the walk's words are the BFS words
    rs = build(label, rank)
    walked = walked_group(rs)
    assert len(walked) == group_order(rs)
    assert {w.word for w in walked} == {w.word for w in enumerate_group(rs)}


def test_element_words_multiply_back():
    # rho is regular, so distinct elements move it to distinct vectors
    rs = build("B", 3)
    images = {w.act(rs.rho) for w in enumerate_group(rs)}
    assert len(images) == group_order(rs)


def test_b4_action_is_signed_permutation():
    rs = build("B", 4)
    rng = random.Random(3)
    elements = list(enumerate_group(rs))
    basis = [lattice.vector([int(a == b) for b in range(4)]) for a in range(4)]
    for _ in range(200):
        w = rng.choice(elements)
        for e in basis:
            assert sorted(abs(c) for c in w.act(e)) == [0, 0, 0, 1]
        u, v = (lattice.vector([Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
                                for _ in range(4)]) for _ in range(2))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert w.act(lattice.add(lattice.scale(c, u), v)) == lattice.add(
            lattice.scale(c, w.act(u)), w.act(v))


def test_identity_element():
    rs = build("C", 3)
    e = WeylElement((), rs)
    assert e.word == () and e.length == 0
    assert str(e) == "e"


def test_elements_equal_by_word():
    rs = build("B", 3)
    for w in enumerate_group(rs):
        again = WeylElement(w.word, rs)
        assert again == w and hash(again) == hash(w)
    assert WeylElement((), rs) != WeylElement((), build("C", 3))
    assert WeylElement((1,), rs) != WeylElement((2,), rs)


def test_str_words():
    rs = build("B", 3)
    assert str(generators(rs)[1]) == "s2"
    assert str(WeylElement((2, 3), rs)) == "s2*s3"


def test_relation_check_can_fail(monkeypatch):
    # an order one short for one pair makes (s_i s_j)^(m-1) a nontrivial
    # rotation of the plane of alpha_i and alpha_j
    rs = build("B", 3)
    true_order = weyl.coxeter_order

    def short_order(rs, i, j):
        m = true_order(rs, i, j)
        return m - 1 if (i, j) == (2, 3) else m

    monkeypatch.setattr(weyl, "coxeter_order", short_order)
    with pytest.raises(RuntimeError, match="braid relation"):
        generators.__wrapped__(rs)
    # through the cache, on a RootSystem object it has not seen: the failure
    # is raised and not cached
    fresh = build.__wrapped__("B", 3)
    with pytest.raises(RuntimeError, match="braid relation"):
        generators(fresh)
    monkeypatch.undo()
    assert [g.word for g in generators(fresh)] == [(1,), (2,), (3,)]


@pytest.mark.parametrize("label, rank", [("A", 3), ("B", 3), ("C", 3),
                                         ("D", 4), ("G2", 2), ("F4", 4),
                                         ("E6", 6), ("E7", 7), ("E8", 8)])
def test_relation_check_passes(label, rank):
    rs = build(label, rank)
    gens = generators.__wrapped__(rs)
    assert [g.word for g in gens] == [(i,) for i in range(1, rank + 1)]
    assert generators(rs) is generators(rs)
    assert generators(rs) == gens
