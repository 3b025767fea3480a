"""Tests of the benchmark's own code: oracles, answer checks and tracing.

    python3 -m unittest discover -s perfbench

The oracles are tested against closed forms and brute force that share no
code with them, and the checks against deliberately corrupted answers.
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from fractions import Fraction
from itertools import product

import checks
import oracles
from queries import WORKLOADS
from tracing import PER_LAYER, Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TYPES = [("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)] + \
        [("C", r) for r in range(3, 7)] + [("D", r) for r in range(4, 7)] + \
        [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)]

POSITIVE_COUNT = {"A": lambda r: r * (r + 1) // 2, "B": lambda r: r * r,
                  "C": lambda r: r * r, "D": lambda r: r * (r - 1),
                  "G2": lambda r: 6, "F4": lambda r: 24, "E6": lambda r: 36,
                  "E7": lambda r: 63, "E8": lambda r: 120}


def theta(rd):
    return rd.root_to_weight(rd.highest_root())


def brute_alternation(rd, lam, mu):
    """Every w(lam+rho) of the (free) orbit, kept when it lies in mu+rho+Q+;
    words by stripping the least negative coordinate."""
    lr = tuple(a + 1 for a in lam)
    out = []
    for v in rd.orbit(lr):
        c = rd.weight_to_root([a - b - 1 for a, b in zip(v, mu)])
        if any(x < 0 or x.denominator != 1 for x in c):
            continue
        word, u = [], v
        while min(u) < 0:
            i = next(k for k, x in enumerate(u) if x < 0)
            word.append(i + 1)
            u = rd.reflect(u, i)
        out.append((tuple(word), tuple(int(x) for x in c)))
    return sorted(out)


def brute_partition_q(roots, xi) -> list[int]:
    counts = {}

    def walk(k, rest, parts):
        if k == len(roots):
            if not any(rest):
                counts[parts] = counts.get(parts, 0) + 1
            return
        used = 0
        while min(rest) >= 0:
            walk(k + 1, rest, parts + used)
            rest = tuple(a - b for a, b in zip(rest, roots[k]))
            used += 1

    walk(0, tuple(xi), 0)
    out = [0] * (max(counts) + 1) if counts else []
    for parts, n in counts.items():
        out[parts] = n
    return out


class RootDataTest(unittest.TestCase):
    def test_small_cartan_matrices(self):
        self.assertEqual(oracles.root_data("B", 2).cartan, ((2, -1), (-2, 2)))
        self.assertEqual(oracles.root_data("C", 3).cartan,
                         ((2, -1, 0), (-1, 2, -2), (0, -1, 2)))
        self.assertEqual(oracles.root_data("G2", 2).cartan, ((2, -3), (-1, 2)))
        self.assertEqual(oracles.root_data("F4", 4).cartan,
                         ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)))

    def test_root_counts_and_exponents(self):
        for t, r in TYPES:
            rd = oracles.root_data(t, r)
            self.assertEqual(len(rd.positive_roots), POSITIVE_COUNT[t](r), (t, r))
            exps = oracles.exponents(t, r)
            self.assertEqual(len(exps), r)
            self.assertEqual(sum(exps), len(rd.positive_roots), (t, r))
            heights = [sum(c) for c in rd.positive_roots]
            for k in range(1, max(exps) + 2):
                self.assertEqual(heights.count(k), sum(e >= k for e in exps), (t, r, k))

    def test_theta_labels(self):
        for workload in WORKLOADS.values():
            for q in workload.queries:
                if "theta" not in q.name:
                    continue
                rd = oracles.root_data(q.type_label, q.rank)
                k = int(q.name.split()[-1][:-len("theta")] or 1)
                self.assertEqual(q.lam, tuple(k * a for a in theta(rd)), q.name)


class AlternationTest(unittest.TestCase):
    def test_walk_matches_brute_force(self):
        cases = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4)]
        for t, r in cases:
            rd = oracles.root_data(t, r)
            zero = (0,) * r
            for lam in (theta(rd), tuple(2 * a for a in theta(rd)),
                        (1,) + (0,) * (r - 1)):
                for mu in (zero, (0,) * (r - 1) + (1,)):
                    self.assertEqual(oracles.alternation_walk(rd, lam, mu),
                                     brute_alternation(rd, lam, mu), (t, lam, mu))

    def test_fibonacci_closed_forms(self):
        for r in range(2, 9):
            rd = oracles.root_data("B", r)
            words = [w for w, _ in oracles.alternation_walk(rd, (1,) + (0,) * (r - 1), (0,) * r)]
            self.assertEqual(len(words), oracles.fibonacci(r + 1))
            self.assertEqual(words, oracles.nonconsecutive_words(2, r))
            rd = oracles.root_data("A", r)
            self.assertEqual(len(oracles.alternation_walk(rd, theta(rd), (0,) * r)),
                             oracles.fibonacci(r))


class MultiplicityTest(unittest.TestCase):
    def test_dimensions(self):
        known = [("G2", 2, (1, 0), 7), ("G2", 2, (0, 1), 14), ("F4", 4, (0, 0, 0, 1), 26),
                 ("E6", 6, (1, 0, 0, 0, 0, 0), 27), ("B", 3, (1, 1, 1), 512),
                 ("A", 4, (1, 0, 0, 1), 24), ("C", 3, (0, 1, 0), 14)]
        for t, r, lam, dim in known:
            rd = oracles.root_data(t, r)
            self.assertEqual(oracles.weyl_dimension(rd, lam), dim, (t, lam))
            self.assertEqual(sum(oracles.weight_diagram(rd, lam).values()), dim, (t, lam))

    def test_adjoint_zero_weight_is_rank(self):
        for t, r in TYPES[:20]:
            rd = oracles.root_data(t, r)
            self.assertEqual(oracles.dominant_multiplicities(rd, theta(rd))[(0,) * r], r)

    def test_freudenthal_matches_kostant(self):
        for t, r in [("B", 3), ("C", 3), ("G2", 2), ("A", 3)]:
            rd = oracles.root_data(t, r)
            lam = tuple(2 * a for a in theta(rd))
            box = oracles.PartitionBox(rd, [int(c) for c in rd.weight_to_root(lam)])
            for mu, m in oracles.dominant_multiplicities(rd, lam).items():
                total = []
                for word, xi in oracles.alternation_walk(rd, lam, mu):
                    total = oracles.poly_add(total, box.coefficients(xi), (-1) ** len(word))
                self.assertEqual(sum(total), m, (t, mu))


class PartitionTest(unittest.TestCase):
    def test_box_matches_brute_force(self):
        for t, r in [("A", 3), ("B", 3), ("C", 3), ("G2", 2), ("D", 4)]:
            rd = oracles.root_data(t, r)
            top = [min(c, 3) for c in rd.highest_root()]
            box = oracles.PartitionBox(rd, top)
            for xi in product(*(range(c + 1) for c in top)):
                self.assertEqual(box.coefficients(xi),
                                 brute_partition_q(rd.positive_roots, xi), (t, xi))

    def test_kostant_exponents(self):
        for t, r in TYPES[:22]:
            rd = oracles.root_data(t, r)
            box = oracles.PartitionBox(rd, rd.highest_root())
            total = []
            for word, xi in oracles.alternation_walk(rd, theta(rd), (0,) * r):
                total = oracles.poly_add(total, box.coefficients(xi), (-1) ** len(word))
            want = [0] * (max(oracles.exponents(t, r)) + 1)
            for e in oracles.exponents(t, r):
                want[e] += 1
            self.assertEqual(total, want, (t, r))


class ChecksTest(unittest.TestCase):
    """Right answers pass and corrupted ones are caught; the right answers
    here are built from the oracles themselves."""

    def setUp(self):
        self.survivor = WORKLOADS["survivor"].queries
        self.cli = WORKLOADS["qmult_cli"].queries

    def test_alternation(self):
        q = self.survivor[1]
        self.assertEqual(q.name, "alternation B8 omega1")
        expected = checks.prepare(q)
        words = [list(w) for w, _ in expected["walk"]]
        self.assertEqual(checks.check(q, {"words": words}, expected), [])
        self.assertNotEqual(checks.check(q, {"words": words[:-1]}, expected), [])
        self.assertNotEqual(checks.check(q, {"error": "Boom"}, expected), [])

    def test_diagram(self):
        q = self.survivor[-1]
        self.assertEqual(q.name, "diagram G2 3omega1")
        expected = checks.prepare(q)
        rd = expected["rd"]
        simple = [["1", "-1", "0"], ["-2", "1", "1"]]  # weylalt's G2 realization

        def ambient(a):
            c = rd.weight_to_root(a)
            return [str(sum(cj * Fraction(root[k]) for cj, root in zip(c, simple)))
                    for k in range(3)]
        weights = [[ambient(mu), m] for mu, m in sorted(expected["diagram"].items())]
        answer = {"simple_roots": simple, "weights": weights}
        self.assertEqual(checks.check(q, answer, expected), [])
        weights[0] = [weights[0][0], weights[0][1] + 1]
        self.assertNotEqual(checks.check(q, answer, expected), [])

    def test_mult_and_same_output(self):
        q = self.cli[2]
        self.assertEqual(q.name, "mult C4 2theta")
        expected = checks.prepare(q)
        records, total = [], []
        for word, xi in sorted(expected["walk"], key=lambda p: (len(p[0]), p[0])):
            pq = expected["box"].coefficients(xi)
            sign = (-1) ** len(word)
            records.append({"word": "*".join(f"s{i}" for i in word) or "e",
                            "length": len(word), "sign": sign, "pq": pq})
            total = oracles.poly_add(total, pq, sign)
        params = {"multiplicity": sum(total), "q_multiplicity": total,
                  "alternation_size": len(records)}
        good = {"exit": 0, "output": json.dumps(
            {"parameters": params, "records": records, "elapsed_ms": 5})}
        self.assertEqual(checks.check(q, good, expected), [])
        records[-1]["pq"] = records[-1]["pq"] + [1]
        bad = {"exit": 0, "output": json.dumps(
            {"parameters": params, "records": records, "elapsed_ms": 7})}
        self.assertNotEqual(checks.check(q, bad, expected), [])
        self.assertNotEqual(checks.check(q, {"exit": 3, "output": ""}, expected), [])
        self.assertFalse(checks.same_output(good, bad))
        slower = {"exit": 0, "output": good["output"].replace('"elapsed_ms": 5', '"elapsed_ms": 9')}
        self.assertTrue(checks.same_output(good, slower))


class TracerTest(unittest.TestCase):
    def test_self_time_and_generator_spans(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: next(ticks))

        def leaf():
            return 1

        def gen():
            yield leaf()
            yield leaf()

        outer_leaf = tracer.spanned("weyl.generators", leaf)
        g = tracer.spanned("weyl.enumerate_group", gen)

        def top():
            return sum(g()) + outer_leaf()

        top = tracer.spanned("multiplicity.alternation_set", top)
        self.assertEqual(top(), 3)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names.count("weyl.enumerate_group"), 3)  # two yields, one stop
        metrics = tracer.metrics(memo_entries=0, output_bytes=0)
        self.assertEqual(tuple(metrics), PER_LAYER)
        self.assertEqual(metrics["weyl.elements_enumerated"], 2)
        spans = tracer.spans
        total = spans[0][2] - spans[0][1]
        children = sum(e - s for _, s, e, p in spans if p == 0)
        self.assertEqual(metrics["multiplicity.alternation_set_s"], total - children)

    def test_install_reaches_by_name_imports(self):
        sys.path.insert(0, SRC)
        try:
            import weylalt.cli
            from weylalt import lattice

            multiplicity = sys.modules["weylalt.multiplicity"]
            tracer = Tracer()
            tracer.install()
            rs = weylalt.build("C", 3)
            lam = weylalt.highest_root(rs)
            weylalt.q_multiplicity(lam, lattice.zeros(rs.ambient_dim), rs)
            self.assertIs(weylalt.cli.q_multiplicity, multiplicity.q_multiplicity)
            self.assertIs(multiplicity.enumerate_group, weylalt.weyl.enumerate_group)
            metrics = tracer.metrics(memo_entries=0, output_bytes=0)
            self.assertEqual(metrics["weyl.elements_enumerated"], 48)
            self.assertEqual(metrics["multiplicity.survivor_searches"], 1)
            self.assertGreater(metrics["lattice.mat_mul_calls"], 0)
            self.assertGreater(metrics["kostant.partition_q_calls"], 0)
        finally:
            sys.path.remove(SRC)


if __name__ == "__main__":
    unittest.main()
