"""Partition function q-analog: polynomial type, box table, recursion, brute force."""

import itertools
import random
import sys
from fractions import Fraction
from math import prod
from operator import le, mul

import pytest

from weylalt import kostant, lattice
from weylalt.errors import HeightExceeded, TableTooLarge
from weylalt.kostant import (QPolynomial, partition, partition_q,
                             partition_q_alpha, partition_q_bruteforce)
from weylalt.multiplicity import _survivor_terms, q_multiplicity_terms
from weylalt.rootsystem import (TYPES, build, fundamental_weight, highest_root,
                                to_simple_root_coords)
from weylalt.weyl import group_order

from tests.oracles import ambient_start, partition_q_recursive


def combo(rs, coords):
    """Integer combination of simple roots as an ambient vector."""
    v = lattice.zeros(rs.ambient_dim)
    for c, alpha in zip(coords, rs.simple_roots):
        v = lattice.add(v, lattice.scale(c, alpha))
    return v


# === QPolynomial ===

def test_qpolynomial_trims_and_compares():
    assert QPolynomial((0, 1, 0, 0)) == QPolynomial((0, 1))
    assert QPolynomial(()) == QPolynomial.zero()
    assert QPolynomial((1,)) == QPolynomial.one()
    assert not QPolynomial.zero()
    assert QPolynomial((0, 1))
    assert QPolynomial((1, 2)) != QPolynomial((1, 2, 3))


def test_qpolynomial_is_immutable_and_hashable():
    p = QPolynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert hash(p) == hash(QPolynomial((1, 2)))


def test_qpolynomial_arithmetic():
    p = QPolynomial((0, 1, 1))  # q + q^2
    q = QPolynomial((1, 1))     # 1 + q
    assert p + q == QPolynomial((1, 2, 1))
    assert p - p == QPolynomial.zero()
    assert p * q == QPolynomial((0, 1, 2, 1))
    assert q ** 3 == QPolynomial((1, 3, 3, 1))
    assert q ** 0 == QPolynomial.one()
    assert p.shift(2) == QPolynomial((0, 0, 0, 1, 1))
    assert p.scale(-2) == QPolynomial((0, -2, -2))
    assert p.evaluate(1) == 2
    assert p.evaluate(3) == 3 + 9
    assert QPolynomial.geometric(1, 3) == QPolynomial((0, 1, 1, 1))
    assert QPolynomial.geometric(2, 1) == QPolynomial.zero()
    assert QPolynomial.monomial(4, -3) == QPolynomial((0, 0, 0, 0, -3))


def test_qpolynomial_pow_rejects_negative():
    with pytest.raises(ValueError):
        QPolynomial((1, 1)) ** -1
    with pytest.raises(ValueError):
        QPolynomial.monomial(-1)


@pytest.mark.parametrize("coeffs, text", [
    ((), "0"),
    ((1,), "1"),
    ((0, 1), "q"),
    ((0, 1, 2), "2q^2 + q"),
    ((0, 1, 2, 1), "q^3 + 2q^2 + q"),
    ((1, 0, -1), "-q^2 + 1"),
    ((0, -2,), "-2q"),
])
def test_qpolynomial_str(coeffs, text):
    assert str(QPolynomial(coeffs)) == text


# === partition values frozen by hand ===

def test_partition_q_zero_vector_is_one():
    rs = build("B", 2)
    assert partition_q(lattice.zeros(2), rs) == QPolynomial.one()


def test_partition_q_single_simple_root():
    rs = build("B", 2)
    for alpha in rs.simple_roots:
        assert partition_q(alpha, rs) == QPolynomial.monomial(1)


def test_partition_q_b2_frozen():
    rs = build("B", 2)
    assert partition_q(combo(rs, (1, 1)), rs) == QPolynomial((0, 1, 1))
    assert partition_q(combo(rs, (2, 2)), rs) == QPolynomial((0, 0, 2, 1, 1))


def test_partition_q_b3_vector_weight():
    rs = build("B", 3)
    w1 = fundamental_weight(rs, 1)
    assert partition_q(w1, rs) == QPolynomial((0, 1, 2, 1))


def test_partition_q_a2():
    rs = build("A", 2)
    assert partition_q(combo(rs, (1, 1)), rs) == QPolynomial((0, 1, 1))
    assert partition_q(combo(rs, (2, 1)), rs) == QPolynomial((0, 0, 1, 1))


def test_partition_q_outside_cone_is_zero():
    rs = build("B", 2)
    assert partition_q(combo(rs, (-1, 2)), rs) == QPolynomial.zero()
    # off the root lattice entirely (half coordinates)
    half = lattice.scale(Fraction(1, 2), rs.simple_roots[0])
    assert partition_q(half, rs) == QPolynomial.zero()
    # off the root span (type A, nonzero coordinate sum)
    a2 = build("A", 2)
    assert partition_q(lattice.vector([1, 0, 0]), a2) == QPolynomial.zero()


def test_partition_q_alpha_validates_length():
    rs = build("B", 3)
    with pytest.raises(ValueError):
        partition_q_alpha((1, 1), rs)


def test_partition_counts_decompositions():
    rs = build("B", 2)
    # e1 = a1 + a2: as itself, or a1 + a2, so two decompositions
    assert partition(combo(rs, (1, 1)), rs) == 2


# === brute force agreement (the two routes stay independent) ===

@pytest.mark.parametrize("label, rank", [("A", 2), ("A", 3), ("B", 2),
                                         ("B", 3), ("C", 3), ("G2", 2)])
def test_partition_q_matches_bruteforce(label, rank):
    rs = build(label, rank)
    rng = random.Random(101)
    for _ in range(40):
        coords = [rng.randint(0, 3) for _ in range(rank)]
        xi = combo(rs, coords)
        assert partition_q(xi, rs) == partition_q_bruteforce(xi, rs)


def test_bruteforce_height_guard():
    rs = build("B", 2)
    with pytest.raises(HeightExceeded):
        partition_q_bruteforce(combo(rs, (16, 15)), rs)


def test_bruteforce_rejects_wrong_dimension():
    rs = build("B", 2)
    with pytest.raises(ValueError):
        partition_q_bruteforce(lattice.vector([1, 0, 0]), rs)


# === ordering independence of the recursion ===

@pytest.mark.parametrize("label, rank", [("B", 3), ("C", 3), ("D", 4)])
def test_partition_q_independent_of_root_order(label, rank):
    rs = build(label, rank)
    rng = random.Random(13)
    n = len(rs.positive_roots)
    for _ in range(10):
        coords = [rng.randint(0, 3) for _ in range(rank)]
        xi = combo(rs, coords)
        reference = partition_q(xi, rs)
        order = list(range(n))
        rng.shuffle(order)
        assert partition_q_recursive(xi, rs, order) == reference


def test_partition_q_rejects_bad_root_order():
    rs = build("B", 2)
    xi = combo(rs, (1, 1))
    with pytest.raises(ValueError):
        partition_q_recursive(xi, rs, [0, 0, 1, 2])
    # the order is checked before xi, whose P_q is trivially zero here
    with pytest.raises(ValueError):
        partition_q_recursive(combo(rs, (-1, 0)), rs, [0, 0, 1, 2])
    with pytest.raises(ValueError):
        partition_q_recursive(xi, rs, [0, 1, 2, 4])


# === per-system tables ===

def test_tables_are_per_system():
    # B3 and C3 share the shape of their simple-root coordinates but not
    # their positive roots, so a B3 table must not answer a C3 lookup
    b3, c3 = build("B", 3), build("C", 3)
    b3_value = QPolynomial((0, 1, 3, 4, 2, 1))
    assert partition_q_alpha((1, 2, 2), b3) == b3_value
    assert partition_q_alpha((1, 2, 2), c3) == QPolynomial((0, 0, 2, 4, 2, 1))
    assert partition_q_alpha((1, 2, 2), b3) == b3_value
    assert kostant._DEFAULT_CACHES[b3] is not kostant._DEFAULT_CACHES[c3]


def box_table(top, roots):
    return kostant.BoxTable(kostant.table_layout(top, roots))


NINE_TYPES = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4),
              ("E6", 6), ("E7", 7), ("E8", 8)]


def recursion_oracle(rs, coords):
    """P_q by the recursion over the reversed root list."""
    order = list(reversed(range(len(rs.positive_roots))))
    return partition_q_recursive(combo(rs, coords), rs, order)


def assert_matches_oracles(rs, coords, value):
    assert value == recursion_oracle(rs, coords), coords
    if sum(coords) <= 8:
        assert value == partition_q_bruteforce(combo(rs, coords), rs), coords


@pytest.mark.parametrize("label, rank", NINE_TYPES)
def test_box_table_matches_oracles(label, rank, monkeypatch):
    rs = build(label, rank)
    monkeypatch.delitem(kostant._DEFAULT_CACHES, rs, raising=False)
    rng = random.Random(23)
    high = 3 if rank <= 4 else 2
    top = tuple(rng.randint(1, high) for _ in range(rank))
    assert_matches_oracles(rs, top, partition_q_alpha(top, rs))
    first = kostant._DEFAULT_CACHES[rs]
    assert first.top == top and len(first) == prod(t + 1 for t in top)
    # the first table finished only the top cell's row; a hit on another row
    # of the box replaces it by the whole box of the same layout, and hits
    # inside the whole box leave it as it is
    hits = [tuple(rng.randint(0, t) for t in top) for _ in range(12)]
    for x in hits:
        assert_matches_oracles(rs, x, partition_q_alpha(x, rs))
    table = kostant._DEFAULT_CACHES[rs]
    assert table.layout is first.layout
    assert (table is first) == first.holds(hits)
    assert table is first or table.done == -1
    for x in hits:
        partition_q_alpha(x, rs)
    assert kostant._DEFAULT_CACHES[rs] is table
    # a slightly larger request replaces the box by its own
    grown = top[:-1] + (top[-1] + 1,)
    assert_matches_oracles(rs, grown, partition_q_alpha(grown, rs))
    assert kostant._DEFAULT_CACHES[rs].top == grown
    # a skewed pair: the second request replaces the box by its own, with
    # fewer cells than the union of the two
    k = max(grown) + 2
    first = (k,) + (0,) * (rank - 1)
    second = (0, k) + (0,) * (rank - 2)
    assert_matches_oracles(rs, first, partition_q_alpha(first, rs))
    before = kostant._DEFAULT_CACHES[rs].top
    assert_matches_oracles(rs, second, partition_q_alpha(second, rs))
    table = kostant._DEFAULT_CACHES[rs]
    assert table.top == second
    assert len(table) < prod(max(a, b) + 1 for a, b in zip(before, second))
    # a fresh table over the first box gives the same values and leaves the
    # system's table alone
    fresh = box_table(top, rs.positive_root_alpha_coords)
    for _ in range(4):
        x = tuple(rng.randint(0, t) for t in top)
        assert_matches_oracles(rs, x, fresh.lookup(x))
    assert kostant._DEFAULT_CACHES[rs] is table and table.top == second


def test_box_table_on_unpruned_b2_terms(monkeypatch):
    # lambda + rho is not dominant, so the walk is unpruned and the
    # survivors' xi need not lie in the box [0, lambda - mu]
    rs = build("B", 2)
    monkeypatch.delitem(kostant._DEFAULT_CACHES, rs, raising=False)
    w1, w2 = fundamental_weight(rs, 1), fundamental_weight(rs, 2)
    checked = 0
    for lam in (lattice.sub(w2, w1), lattice.sub(w2, lattice.scale(3, w1))):
        for c in [(0, 0), (1, 2), (2, 2), (3, 3), (4, 1)]:
            mu = lattice.sub(lam, combo(rs, c))
            start = ambient_start(lam, mu, rs)
            for _, coords in _survivor_terms(start, rs, group_order(rs)):
                assert_matches_oracles(rs, coords, partition_q_alpha(coords, rs))
                checked += 1
    assert checked > 0


# === tables filled for the rows a query reads ===

@pytest.mark.parametrize("label, rank", NINE_TYPES)
def test_partial_table_matches_the_whole_box(label, rank):
    # a table asked for a few random cells holds their rows: each cell of a
    # demanded row equals the whole-box table's value (and the recursion's
    # up to height 8), and a lookup in any other row is refused
    rs = build(label, rank)
    roots = rs.positive_root_alpha_coords
    rng = random.Random(f"partial {label}{rank}")
    high = 3 if rank <= 4 else 2
    refused = 0
    for _ in range(3):
        top = tuple(rng.randint(1, high) for _ in range(rank))
        layout = kostant.table_layout(top, roots)
        whole = kostant.BoxTable(layout)
        cells = [tuple(rng.randint(0, t) for t in top) for _ in range(rng.randint(1, 2))]
        partial = kostant.BoxTable(layout, cells)
        assert len(partial) == len(whole) == prod(t + 1 for t in top)
        assert whole.done == -1 and whole.holds(None) and whole.holds(cells)
        # done is the bitmask of the cells' rows that _passes plans from
        assert partial.done == sum({1 << sum(map(mul, x, partial.strides)) for x in cells})
        assert partial.holds(cells) and not partial.holds(None)
        for x in cells:
            value = partial.lookup(x)
            assert value == whole.lookup(x), x
            if sum(x) <= 8:
                assert value == recursion_oracle(rs, x), x
        for x in itertools.product(*(range(t + 1) for t in top)):
            if partial.done >> sum(map(mul, x, partial.strides)) & 1:
                assert partial.lookup(x) == whole.lookup(x), x
            else:
                refused += 1
                assert not partial.holds([x])
                with pytest.raises(LookupError):
                    partial.lookup(x)
    assert refused


@pytest.mark.parametrize("label, rank, k", [("B", 3, 2), ("C", 3, 2), ("G2", 2, 2),
                                            ("E6", 6, 1)])
def test_later_queries_replace_the_first_table_whole(label, rank, k, monkeypatch):
    # mult at k theta, then at mu = k theta - c for random c inside its box:
    # the first table holds the first query's rows alone, the first later
    # query that reads another row gets a whole-box table of the same layout
    # as a new dict entry, the first table is left as it was, and every
    # answer equals the whole-box table's
    rs, top = theta_box(label, rank, k)
    monkeypatch.delitem(kostant._DEFAULT_CACHES, rs, raising=False)
    whole = box_table(top, rs.positive_root_alpha_coords)
    lam = lattice.scale(k, highest_root(rs))
    rng = random.Random(f"later {label}{rank}")
    shifts = [top] + [tuple(rng.randint(0, t) for t in top) for _ in range(8)]
    tables = []
    for c in shifts:
        mu = lattice.sub(lam, combo(rs, c))
        cells = {element: coords for element, coords
                 in _survivor_terms(ambient_start(lam, mu, rs), rs, group_order(rs))}
        terms = q_multiplicity_terms(lam, mu, rs)
        assert {element: value for element, value in terms} == \
            {element: whole.lookup(coords) for element, coords in cells.items()}
        table = kostant._DEFAULT_CACHES[rs]
        if not tables or table is not tables[-1][0]:
            if tables:  # the query read a row the first table refuses
                missing = [x for x in cells.values() if not tables[0][0].holds([x])]
                with pytest.raises(LookupError):
                    tables[0][0].lookup(missing[0])
            tables.append((table, table.done, list(table.rows)))
    (first, done, rows), (second, _, _) = tables
    assert first.done == done != -1
    assert all(a is b for a, b in zip(first.rows, rows)) and len(first.rows) == len(rows)
    assert second.done == -1 and second.layout is first.layout


def planned_updates(table, need):
    return sum(bin(rows).count("1") for *_, rows in table._passes(need))


# the row updates of a fill over the whole box and for the survivors' rows
PLANNED = {("B", 4, 6): (10861, 4551), ("A", 5, 6): (2460, 1171),
           ("C", 8, 2): (169934, 84201), ("B", 8, 2): (185990, 89933),
           ("E7", 7, 2): (88946, 58541), ("E8", 8, 1): (181540, 106294)}


@pytest.mark.parametrize("label, rank, k", list(PLANNED))
def test_survivor_rows_plan_fewer_updates(label, rank, k):
    # a count of planned work, not a timing: the survivors of (k theta, 0)
    # need fewer row updates than the whole box, and the plan for every row
    # is each pass over its destination rows, the rows whose coordinates
    # outside the packed axes are at least beta's
    rs, top = theta_box(label, rank, k)
    start = ambient_start(lattice.scale(k, highest_root(rs)), lattice.zeros(rs.ambient_dim), rs)
    cells = [coords for _, coords in _survivor_terms(start, rs, 10 ** 6)]
    table = kostant.BoxTable(kostant.table_layout(top, rs.positive_root_alpha_coords), cells)
    outer = [i for i, stride in enumerate(table.strides) if stride]
    every = table._passes(-1)
    for beta, *_, rows in every:
        assert bin(rows).count("1") == prod(top[i] - beta[i] + 1 for i in outer)
    assert sorted(beta for beta, *_ in every) == \
        sorted(beta for beta in table.layout.roots if sum(beta) > 1)
    whole, survivors = PLANNED[label, rank, k]
    assert planned_updates(table, -1) == whole
    assert planned_updates(table, table.done) == survivors < whole


@pytest.mark.parametrize("label, rank", NINE_TYPES)
def test_span_places_block_at_every_point_of_the_box(label, rank):
    # _span against a list of the points x with beta_i <= x_i <= top_i on a
    # random subset of the axes and 0 elsewhere, each placed at
    # sum(x_i * steps_i), the steps mixed-radix over those axes as a
    # BoxTable lays out its rows (block 1) and its cells (a block of bits)
    rs = build(label, rank)
    rng = random.Random(f"span {label}{rank}")
    for _ in range(12):
        top = tuple(rng.randint(0, 3 if rank <= 4 else 2) for _ in range(rank))
        beta = tuple(rng.randint(0, t) for t in top)
        axes = sorted(rng.sample(range(rank), rng.randint(0, rank)))
        bits = rng.randint(1, 5)  # 1 as for a row bitmask, more as for cells
        block = rng.randint(1, (1 << bits) - 1)
        steps, step = [0] * rank, bits
        for i in reversed(axes):
            steps[i], step = step, step * (top[i] + 1)
        points = itertools.product(*(range(beta[i], top[i] + 1) for i in axes))
        expected = sum(block << sum(map(mul, x, (steps[i] for i in axes)))
                       for x in points)
        assert kostant._span(block, beta, top, axes, steps) == expected, \
            (top, beta, axes, steps, block)


def test_repeat_matches_the_division_formula():
    # doubling gives the int of block * (2^(count*width) - 1) / (2^width - 1),
    # counts 0 and 1 and blocks wider than width included
    rng = random.Random("repeat")
    cases = [(1, 1, 0), (5, 3, 0), (1, 1, 1), (6, 3, 1), (1, 7, 2), (3, 1, 5)]
    for _ in range(200):
        width = rng.randint(1, 70)
        cases.append((rng.randint(1, (1 << rng.randint(1, 2 * width)) - 1), width,
                      rng.randint(0, 40)))
    for block, width, count in cases:
        expected = block * (((1 << (count * width)) - 1) // ((1 << width) - 1))
        assert kostant._repeat(block, width, count) == expected, (block, width, count)


@pytest.mark.parametrize("label, rank", [("A", 3), ("B", 3), ("C", 3),
                                         ("D", 4), ("G2", 2), ("F4", 4),
                                         ("A", 1), ("E6", 6)])
def test_packing_bound_covers_every_cell(label, rank):
    # the bound covers every coefficient, not P(x) = P_q(x) at q = 1, and is
    # at most the count of height sums the fields were sized by before
    rs = build(label, rank)
    roots = rs.positive_root_alpha_coords
    rng = random.Random(31)
    high = 3 if rank <= 4 else 2
    for _ in range(3):
        top = tuple(rng.randint(0, high) for _ in range(rank))
        table = box_table(top, roots)
        largest = max(max(table.lookup(x).coeffs)
                      for x in itertools.product(*(range(t + 1) for t in top)))
        bound = kostant.coefficient_bound(top, roots)
        assert bound >= largest
        assert table.bits == bound.bit_length()
        assert bound <= height_sum_count(top, roots)


def height_sum_count(top, roots):
    """The largest count of ways to write some n <= ht(top) as a sum of the
    heights of the roots in the box, one part kind per root."""
    height = sum(top)
    sums = [1] + [0] * height
    for h in (sum(beta) for beta in roots if all(map(le, beta, top))):
        for n in range(h, height + 1):
            sums[n] += sums[n - h]
    return max(sums)


def dynkin_edges(rs):
    """Pairs of simple roots joined in the Dynkin diagram: alpha_i + alpha_j is a root."""
    roots = set(rs.positive_root_alpha_coords)
    return {(i, j) for i in range(rs.rank) for j in range(i + 1, rs.rank)
            if tuple(int(k in (i, j)) for k in range(rs.rank)) in roots}


def test_non_simple_roots_have_two_nonzero_coordinates():
    # BoxTable._fill updates a whole row, the cells that share every
    # coordinate outside a set Q of pairwise non-adjacent Dynkin nodes, with
    # one shift of its source row, which is sound only because that source
    # row comes earlier: the support of a non-simple root holds two joined
    # nodes, so it is never inside Q
    for label, (smallest, _, _) in TYPES.items():
        ranks = range(smallest, 9) if len(label) == 1 else (smallest,)
        for rank in ranks:
            rs = build(label, rank)
            edges = dynkin_edges(rs)
            assert len(edges) == rank - 1, (label, rank)
            for beta in rs.positive_root_alpha_coords:
                if sum(beta) > 1:
                    support = [i for i, b in enumerate(beta) if b]
                    assert len(support) >= 2, (label, rank, beta)
                    assert any((i, j) in edges for i in support for j in support), \
                        (label, rank, beta)


def admissible_packings(top, roots):
    """Every set of axes with a nonzero top that holds the support of no
    non-simple root in the box."""
    supports = [{i for i, b in enumerate(beta) if b} for beta in roots
                if sum(beta) > 1 and all(map(le, beta, top))]
    axes = [i for i, t in enumerate(top) if t]
    return [q for k in range(len(axes) + 1) for q in itertools.combinations(axes, k)
            if not any(support <= set(q) for support in supports)]


@pytest.mark.parametrize("label, rank, top", [
    ("A", 1, (0,)),             # no pass at all, one cell
    ("A", 1, (6,)),             # no pass at all
    ("A", 3, (0, 0, 0)),        # top = 0
    ("B", 3, (0, 3, 0)),        # a single nonzero coordinate
    ("D", 4, (3, 0, 0, 0)),
    ("C", 3, (2, 0, 3)),        # some zero coordinates
    ("D", 4, (1, 2, 0, 1)),
    ("G2", 2, (3, 5)),
    ("F4", 4, (1, 2, 2, 0)),
    ("E6", 6, (1, 1, 2, 1, 1, 0)),
    ("E7", 7, (1, 1, 1, 2, 1, 0, 1)),
    ("E8", 8, (0, 1, 1, 2, 1, 1, 1, 0)),
    ("B", 4, (1, 2, 2, 5)),     # a long last axis: six cells a row
    ("A", 4, (0, 0, 0, 4)),     # only the last axis nonzero: one row
    ("C", 4, (2, 2, 2, 0)),     # one-cell rows
    # theta multiples: the top cell is k copies of theta, so its row reaches
    # the last plane, excess ht(top) - ceil(ht(top)/h)
    ("B", 3, (2, 4, 4)),
    ("C", 3, (4, 4, 2)),
    ("G2", 2, (6, 4)),
    ("A", 3, (3, 3, 3)),
])
def test_box_table_matches_recursion_on_whole_box(label, rank, top):
    rs = build(label, rank)
    table = box_table(top, rs.positive_root_alpha_coords)
    assert len(table) == prod(t + 1 for t in top)
    for x in itertools.product(*(range(t + 1) for t in top)):
        assert table.lookup(x) == recursion_oracle(rs, x), x


@pytest.mark.parametrize("label, rank, top", [
    ("A", 3, (3, 3, 3)),
    ("B", 3, (2, 4, 4)),
    ("C", 3, (4, 4, 2)),
    ("D", 4, (2, 4, 2, 2)),
    ("G2", 2, (6, 4)),
    ("F4", 4, (2, 3, 4, 2)),
    ("E6", 6, (1, 2, 2, 3, 2, 1)),
    ("E7", 7, (1, 1, 1, 2, 1, 1, 1)),
    ("E8", 8, (0, 1, 1, 2, 1, 1, 1, 1)),
])
def test_box_table_matches_recursion_under_every_packing(label, rank, top, monkeypatch):
    # every admissible set of packed axes, forced on the chooser, gives the
    # recursion's value in every cell of the box
    rs = build(label, rank)
    roots = rs.positive_root_alpha_coords
    expected = {x: recursion_oracle(rs, x)
                for x in itertools.product(*(range(t + 1) for t in top))}
    packings = admissible_packings(top, roots)
    edges = dynkin_edges(rs)
    assert all((i, j) not in edges for q in packings for i in q for j in q)
    assert any(len(q) >= 2 for q in packings) or rank == 2
    for packed in packings:
        monkeypatch.setattr(kostant, "_choose_packed", lambda *args, q=packed: q)
        layout = kostant.table_layout(top, roots)
        assert layout.packed == packed
        assert layout.size == kostant.height_bytes(top, layout.roots, layout.bits, packed)
        table = kostant.BoxTable(layout)
        assert len(table.rows) == prod(t + 1 for i, t in enumerate(top) if i not in packed)
        for x, value in expected.items():
            assert table.lookup(x) == value, (packed, x)


def test_chooser_packs_only_admissible_axes():
    # on every theta multiple the tests build, and on the rank-7 and rank-8
    # boxes at 2 theta, the chosen axes are admissible and A5 at 6 theta
    # packs two of them
    boxes = THETA_BOXES + [("B", 8, 2), ("C", 8, 2), ("E7", 7, 2), ("E8", 8, 1),
                           ("E6", 6, 2)]
    for label, rank, k in boxes:
        rs, top = theta_box(label, rank, k)
        roots = rs.positive_root_alpha_coords
        layout = kostant.table_layout(top, roots)
        assert layout.packed in admissible_packings(top, roots), (label, rank, k)
    rs, top = theta_box("A", 5, 6)
    assert len(kostant.table_layout(top, rs.positive_root_alpha_coords).packed) == 2


# the width of a field, by the count of excess-e decompositions, against the
# width of the count of height sums that sized the fields before
NARROWED_BITS = {("B", 4, 6): 19, ("A", 5, 6): 16, ("E8", 8, 1): 26,
                 ("B", 8, 2): 26, ("C", 8, 2): 26, ("E7", 7, 2): 27}


@pytest.mark.parametrize("label, rank, k, height_sum_bits", [
    ("B", 4, 6, 29), ("A", 5, 6, 27), ("E8", 8, 1, 38),
    ("B", 8, 2, 38), ("C", 8, 2, 38), ("E7", 7, 2, 39),
])
def test_packing_width_at_multiples_of_theta(label, rank, k, height_sum_bits):
    rs = build(label, rank)
    roots = rs.positive_root_alpha_coords
    top = tuple(k * int(c) for c in to_simple_root_coords(highest_root(rs), rs))
    bound = kostant.coefficient_bound(top, roots)
    assert bound.bit_length() == NARROWED_BITS[label, rank, k]
    assert height_sum_count(top, roots).bit_length() == height_sum_bits


def estimate(top, roots):
    """The bytes the table budget is held against."""
    return kostant.table_layout(top, roots).size


def theta_box(label, rank, k):
    rs = build(label, rank)
    return rs, tuple(k * int(c) for c in to_simple_root_coords(highest_root(rs), rs))


THETA_BOXES = [
    ("B", 3, 2), ("C", 3, 2), ("G2", 2, 2), ("A", 3, 3), ("B", 4, 6), ("A", 5, 6),
    ("C", 4, 2), ("G2", 2, 3), ("D", 4, 2), ("F4", 4, 1), ("E6", 6, 1), ("A", 1, 5),
]


@pytest.mark.parametrize("label, rank, k", THETA_BOXES)
def test_table_bytes_bounds_the_rows(label, rank, k):
    # height_bytes, the estimate the table budget reads, is never below the
    # rows a table holds (a list slot and the int each) and within 1.6x of them
    rs, top = theta_box(label, rank, k)
    roots = rs.positive_root_alpha_coords
    layout = kostant.table_layout(top, roots)
    table = kostant.BoxTable(layout)
    held = sum(sys.getsizeof(row) + 8 for row in table.rows)
    assert held <= layout.size <= 1.6 * held


@pytest.mark.parametrize("label, rank, k", THETA_BOXES)
def test_rows_end_within_their_excess_bounds(label, rank, k):
    # a row holds no plane past the height bound on the excess of its last
    # cell x, the one at the top of every packed axis, ht(x) - ceil(ht(x)/h);
    # the top row of a theta multiple reaches it
    rs, top = theta_box(label, rank, k)
    roots = rs.positive_root_alpha_coords
    layout = kostant.table_layout(top, roots)
    table = kostant.BoxTable(layout)
    ranges = [(t,) if i in layout.packed else range(t + 1) for i, t in enumerate(top)]
    seen = set()
    for x in itertools.product(*ranges):
        index = sum(map(mul, x, table.strides))
        seen.add(index)
        by_height = sum(x) - -(-sum(x) // table.tallest)
        assert table.rows[index].bit_length() <= (by_height + 1) * table.plane, x
    assert seen == set(range(len(table.rows)))
    assert table.rows[-1].bit_length() > by_height * table.plane


@pytest.mark.parametrize("label, rank, k", [
    ("B", 4, 6), ("A", 5, 6), ("C", 4, 2), ("G2", 2, 3), ("A", 1, 5), ("E6", 6, 1),
])
def test_height_bytes_bounds_the_row_estimate(label, rank, k):
    # the estimate is never above rows of ht(top) + 1 full planes each, so no
    # box that fits at full row length is refused
    rs, top = theta_box(label, rank, k)
    layout = kostant.table_layout(top, rs.positive_root_alpha_coords)
    cells = prod(top[q] + 1 for q in layout.packed)
    plane = cells * layout.bits
    full = prod(t + 1 for t in top) // cells * (32 + 4 * -(-(sum(top) + 1) * plane // 30))
    assert layout.size <= full


@pytest.mark.parametrize("label, rank, k, fits", [
    ("B", 4, 6, True), ("A", 5, 6, True), ("C", 4, 2, True),
    ("E8", 8, 1, True), ("B", 8, 2, True), ("C", 8, 2, True), ("E7", 7, 2, True),
    ("E8", 8, 2, False), ("A", 3, 1000, False),
])
def test_table_budget_at_multiples_of_theta(monkeypatch, label, rank, k, fits):
    # a lookup with no table yet builds the benchmark's mult boxes and the
    # rank-7 and rank-8 boxes at 2 theta, and refuses E8 at 2 theta
    # (14,189,175 cells) and A3 at 1000 theta; BoxTable is stubbed, so
    # nothing is filled
    class Unfilled:
        def __init__(self, layout, cells=None):
            self.top = layout.top

        def lookup(self, coords):
            return QPolynomial.zero()

    rs, top = theta_box(label, rank, k)
    monkeypatch.setitem(kostant._DEFAULT_CACHES, rs, None)
    monkeypatch.setattr(kostant, "BoxTable", Unfilled)
    if fits:
        kostant._table_over(kostant._layout_over(top, rs), [top], rs)
        assert kostant._DEFAULT_CACHES[rs].top == top
    else:
        with pytest.raises(TableTooLarge):
            kostant._layout_over(top, rs)
        assert kostant._DEFAULT_CACHES[rs] is None


def test_over_budget_request_raises_before_building(monkeypatch):
    rs = build("B", 2)
    monkeypatch.delitem(kostant._DEFAULT_CACHES, rs, raising=False)
    partition_q_alpha((2, 2), rs)
    table = kostant._DEFAULT_CACHES[rs]
    monkeypatch.setattr(kostant, "TABLE_BUDGET_BYTES",
                        estimate((3, 3), rs.positive_root_alpha_coords) - 1)
    with pytest.raises(TableTooLarge, match=r"box \[3, 3\] has 16 cells, an estimated"):
        partition_q_alpha((3, 3), rs)
    assert kostant._DEFAULT_CACHES[rs] is table
    # lookups inside the built box still answer
    assert partition_q_alpha((2, 1), rs) == recursion_oracle(rs, (2, 1))


def test_budget_checks_the_height_estimate(monkeypatch):
    # the budget is held against height_bytes alone: a table is refused one
    # byte under it and built at it
    rs, top = theta_box("C", 4, 2)
    roots = rs.positive_root_alpha_coords
    monkeypatch.delitem(kostant._DEFAULT_CACHES, rs, raising=False)
    monkeypatch.setattr(kostant, "TABLE_BUDGET_BYTES", estimate(top, roots) - 1)
    with pytest.raises(TableTooLarge):
        partition_q_alpha(top, rs)
    monkeypatch.setattr(kostant, "TABLE_BUDGET_BYTES", kostant.TABLE_BUDGET_BYTES + 1)
    assert partition_q_alpha(top, rs) == recursion_oracle(rs, top)
    assert kostant._DEFAULT_CACHES[rs].top == top


@pytest.mark.parametrize("label, rank, k, fits", [
    ("B", 4, 6, True), ("A", 5, 6, True), ("C", 4, 2, True),
    ("E8", 8, 1, True), ("B", 8, 2, True), ("C", 8, 2, True), ("E7", 7, 2, True),
    ("B", 8, 3, True), ("E8", 8, 2, False), ("A", 3, 1000, False),
])
def test_height_estimate_at_multiples_of_theta(label, rank, k, fits):
    # by the estimate the budget checks, the benchmark's mult boxes, the
    # rank-7 and rank-8 boxes at 2 theta and B8 at 3 theta fit; E8 at
    # 2 theta and A3 at 1000 theta do not
    rs, top = theta_box(label, rank, k)
    assert (estimate(top, rs.positive_root_alpha_coords) <= kostant.TABLE_BUDGET_BYTES) == fits


@pytest.mark.parametrize("label, rank, k", THETA_BOXES + [("E8", 8, 2)])
def test_floor_is_below_every_estimate(label, rank, k):
    # one bit per plane of every cell, with (1 - 1/h) ht(x) planes at x, is
    # never above the estimate of the chosen layout, so refusing on it
    # refuses nothing that would fit
    rs, top = theta_box(label, rank, k)
    layout = kostant.table_layout(top, rs.positive_root_alpha_coords)
    h = layout.tallest
    assert layout.bits > 0
    assert prod(t + 1 for t in top) * sum(top) * (h - 1) // (15 * h) <= layout.size


def test_floor_refuses_before_counting_the_width(monkeypatch):
    # A3 at 1000 theta passes the budget at one bit per plane, so the lookup
    # is refused without the count of coefficient_bound
    def no_count(top, roots):
        raise AssertionError("the width was counted")

    rs = build("A", 3)
    monkeypatch.setattr(kostant, "coefficient_bound", no_count)
    monkeypatch.delitem(kostant._DEFAULT_CACHES, rs, raising=False)
    with pytest.raises(TableTooLarge, match="1,003,003,001 cells, at least"):
        partition_q_alpha((1000, 1000, 1000), rs)
    assert rs not in kostant._DEFAULT_CACHES


def test_lookup_estimates_each_box_once(monkeypatch):
    # a request the cached table does not cover is laid out once, over the
    # request alone, and built from that layout, also under a budget that
    # the request fits and the union (4, 3) would not
    rs = build("B", 2)
    roots = rs.positive_root_alpha_coords
    estimated, built = [], []
    table_layout, box_table = kostant.table_layout, kostant.BoxTable

    def recorded(top, roots):
        estimated.append(top)
        layout = table_layout(top, roots)
        built.append(layout)
        return layout

    def from_the_estimate(layout, cells=None):
        assert layout is built[-1]
        return box_table(layout, cells)

    monkeypatch.setattr(kostant, "table_layout", recorded)
    monkeypatch.setattr(kostant, "BoxTable", from_the_estimate)
    monkeypatch.delitem(kostant._DEFAULT_CACHES, rs, raising=False)
    partition_q_alpha((3, 3), rs)
    budget = table_layout((4, 2), roots).size
    assert table_layout((4, 3), roots).size > budget
    monkeypatch.setattr(kostant, "TABLE_BUDGET_BYTES", budget)
    assert partition_q_alpha((4, 2), rs) == recursion_oracle(rs, (4, 2))
    assert estimated == [(3, 3), (4, 2)]
    assert kostant._DEFAULT_CACHES[rs].top == (4, 2)


def test_partition_coefficients_are_nonnegative():
    rs = build("D", 4)
    rng = random.Random(5)
    for _ in range(20):
        coords = [rng.randint(0, 3) for _ in range(4)]
        p = partition_q(combo(rs, coords), rs)
        assert all(c >= 0 for c in p.coeffs)
        if any(coords):
            # every decomposition uses at least one part and at most the height
            assert p.coeffs[:1] in ((), (0,))
            assert p.degree <= sum(coords)
