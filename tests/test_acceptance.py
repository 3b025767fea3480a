"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Everything here is exact integer or rational arithmetic, so "tolerance" means
equality; the only budgeted quantity is the wall clock of criterion 10.
Criteria restate their expectations inline rather than importing the
library's own prediction helpers wherever that is practical.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from weylalt import lattice
from weylalt.combinatorics import (fibonacci, nonconsecutive_subsets,
                                   verify_alternating_identity)
from weylalt.kostant import QPolynomial, partition_q, partition_q_bruteforce
from weylalt.multiplicity import (alternation_set, multiplicity,
                                  q_multiplicity, q_multiplicity_terms,
                                  weight_diagram)
from weylalt.rootsystem import (build, fundamental_weight, highest_root,
                                is_dominant, sum_of_simple_roots,
                                sum_of_simple_roots_in_fundamental_basis,
                                to_fundamental_coords)

from tests.oracles import orbit

B_CAP = 10_400_000  # clears |W(B8)| = 10,321,920

FIB = {n: fibonacci(n) for n in range(1, 12)}


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def b_sets():
    out = {}
    for r in range(2, 9):
        rs = build("B", r)
        out[r] = alternation_set(fundamental_weight(rs, 1),
                                 lattice.zeros(rs.ambient_dim), rs, cap=B_CAP)
    return out


def test_criterion_01_fibonacci_counts_B(b_sets):
    ok = all(len(b_sets[r]) == FIB[r + 1] for r in range(2, 9))
    report(1, "fibonacci counts for B2..B8", ok)


def test_criterion_02_alternation_words_B(b_sets):
    ok = True
    for r in range(2, 9):
        expected = sorted(nonconsecutive_subsets(2, r))
        ok = ok and b_sets[r].words() == expected
    report(2, "alternation words are nonconsecutive index sets", ok)


def test_criterion_03_q_multiplicity_is_q_to_r():
    ok = True
    for r in range(2, 7):
        rs = build("B", r)
        mq = q_multiplicity(fundamental_weight(rs, 1),
                            lattice.zeros(rs.ambient_dim), rs)
        ok = ok and mq == QPolynomial.monomial(r)
    report(3, "q-multiplicity of the zero weight equals q^r", ok)


def test_criterion_04_per_element_partition_values():
    one_plus_q = QPolynomial((1, 1))
    ok = True
    for r in range(2, 7):
        rs = build("B", r)
        terms = q_multiplicity_terms(fundamental_weight(rs, 1),
                                     lattice.zeros(rs.ambient_dim), rs)
        histogram = {}
        for element, pq in terms:
            word = element.word
            has_sr = r in word
            k = len(word) - (1 if has_sr else 0)
            histogram[(k, has_sr)] = histogram.get((k, has_sr), 0) + 1
            exponent = r - 1 - 2 * k - (1 if has_sr else 0)
            expected = (one_plus_q ** exponent) * QPolynomial.monomial(1 + k)
            ok = ok and exponent >= 0 and pq == expected
        expected_histogram = {}
        for k in range(0, r):
            without = math.comb(r - 1 - k, k) if r - 1 - k >= k else 0
            with_sr = math.comb(r - 2 - k, k) if r - 2 - k >= k else 0
            if without:
                expected_histogram[(k, False)] = without
            if with_sr:
                expected_histogram[(k, True)] = with_sr
        ok = ok and histogram == expected_histogram
    report(4, "per-element partition values and length histogram", ok)


def test_criterion_05_multiplicity_is_one():
    ok = True
    for r in range(2, 7):
        rs = build("B", r)
        m = multiplicity(fundamental_weight(rs, 1),
                         lattice.zeros(rs.ambient_dim), rs)
        ok = ok and m == 1
    report(5, "zero weight multiplicity equals one", ok)


def test_criterion_06_nonzero_mu_scan():
    ok = True
    for r in range(2, 6):
        rs = build("B", r)
        zero = lattice.zeros(rs.ambient_dim)
        w1 = fundamental_weight(rs, 1)
        # the dominant weights with first coordinate at most 1: 0, the
        # half-spin weight (1/2, ..., 1/2) and (1^k, 0^(r-k)) for k = 1..r
        unit_box = [zero, (Fraction(1, 2),) * r] + [
            lattice.vector((1,) * k + (0,) * (r - k)) for k in range(1, r + 1)]
        for mu in unit_box:
            aset = alternation_set(w1, mu, rs)
            if mu == zero:
                ok = ok and len(aset) == FIB[r + 1]
            elif mu == w1:
                ok = ok and aset.words() == [()]
            else:
                ok = ok and len(aset) == 0
    report(6, "dominant mu scan inside the unit box", ok)


def test_criterion_07_vector_weight_diagram():
    ok = True
    for r in range(2, 5):
        rs = build("B", r)
        w1 = fundamental_weight(rs, 1)
        entries = weight_diagram(w1, rs)
        weights = {e.weight for e in entries}
        expected = set(orbit(w1, rs)) | {lattice.zeros(rs.ambient_dim)}
        ok = ok and weights == expected
        ok = ok and len(entries) == 2 * r + 1
        ok = ok and all(e.multiplicity == 1 for e in entries)
    report(7, "vector representation weight diagram", ok)


def test_criterion_08_sum_of_simple_roots_dominance():
    expected_coords = {}
    for r in range(1, 9):
        expected_coords[("A", r)] = (2,) if r == 1 else (1,) + (0,) * (r - 2) + (1,)
    for r in range(2, 9):
        expected_coords[("B", r)] = (1,) + (0,) * (r - 1)
    for r in range(3, 9):
        expected_coords[("C", r)] = (1,) + (0,) * (r - 3) + (-1, 1)
    for r in range(4, 9):
        expected_coords[("D", r)] = (1,) + (0,) * (r - 4) + (-1, 1, 1)
    expected_coords[("G2", 2)] = (-1, 1)
    expected_coords[("F4", 4)] = (1, 0, -1, 1)
    expected_coords[("E6", 6)] = (1, 1, 0, -1, 0, 1)
    expected_coords[("E7", 7)] = (1, 1, 0, -1, 0, 0, 1)
    expected_coords[("E8", 8)] = (1, 1, 0, -1, 0, 0, 0, 1)
    ok = True
    for (label, rank), coords in sorted(expected_coords.items()):
        rs = build(label, rank)
        fc = sum_of_simple_roots_in_fundamental_basis(rs)
        ok = ok and fc == tuple(Fraction(c) for c in coords)
        dominant = is_dominant(sum_of_simple_roots(rs), rs)
        ok = ok and dominant == (label in ("A", "B"))
    report(8, "sum of simple roots expansion and dominance", ok)


def test_criterion_09_fibonacci_counts_A():
    ok = True
    for r in range(2, 9):
        rs = build("A", r)
        aset = alternation_set(highest_root(rs), lattice.zeros(rs.ambient_dim),
                               rs, cap=B_CAP)
        ok = ok and len(aset) == FIB[r]
    report(9, "fibonacci counts for the type A highest root", ok)


def test_criterion_10_partition_oracle():
    systems = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
               ("C", 3), ("D", 4), ("G2", 2)]
    rng = random.Random(0)
    started = time.perf_counter()
    ok = True
    for i in range(500):
        label, rank = systems[i % len(systems)]
        rs = build(label, rank)
        remaining = rng.randint(0, 12)
        coords = []
        for _ in range(rs.rank - 1):
            c = rng.randint(0, remaining)
            coords.append(c)
            remaining -= c
        coords.append(remaining)
        rng.shuffle(coords)
        xi = lattice.zeros(rs.ambient_dim)
        for c, alpha in zip(coords, rs.simple_roots):
            xi = lattice.add(xi, lattice.scale(c, alpha))
        ok = ok and partition_q(xi, rs) == partition_q_bruteforce(xi, rs)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed <= 30.0
    report(10, "recursion matches brute force on 500 random points", ok)


def test_criterion_11_alternating_identities():
    ok = all(verify_alternating_identity(r) for r in range(1, 21))
    for m in range(0, 16):
        count = sum(1 for _ in nonconsecutive_subsets(1, m))
        ok = ok and count == fibonacci(m + 2)
    report(11, "alternating identities and nonconsecutive counts", ok)
