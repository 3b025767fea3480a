"""Exact vector arithmetic over Fraction, and the integer adjugate."""

import random
from fractions import Fraction

import pytest

from weylalt import lattice


def test_vector_coerces_to_fraction():
    v = lattice.vector([1, "1/2", Fraction(3, 4)])
    assert v == (Fraction(1), Fraction(1, 2), Fraction(3, 4))
    assert all(isinstance(c, Fraction) for c in v)


@pytest.mark.parametrize("values", [[0.1, 0, 0], [1, 2.0], [Fraction(1, 2), 0.5]])
def test_vector_refuses_floats(values):
    # 0.1 is 3602879701896397/36028797018963968 in binary, not 1/10
    with pytest.raises(ValueError, match="floats are not exact"):
        lattice.vector(values)


def test_zeros():
    assert lattice.zeros(3) == (Fraction(0),) * 3


@pytest.mark.parametrize("u, v, total", [
    ((1, 2), (3, 4), (4, 6)),
    ((Fraction(1, 2), 0), (Fraction(1, 2), 1), (1, 1)),
])
def test_add_sub(u, v, total):
    u, v, total = lattice.vector(u), lattice.vector(v), lattice.vector(total)
    assert lattice.add(u, v) == total
    assert lattice.sub(total, v) == u


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        lattice.add(lattice.vector([1]), lattice.vector([1, 2]))
    with pytest.raises(ValueError):
        lattice.dot(lattice.vector([1]), lattice.vector([1, 2]))


def test_scale_neg_dot():
    v = lattice.vector([2, -3, Fraction(1, 2)])
    assert lattice.scale(Fraction(1, 2), v) == (1, Fraction(-3, 2), Fraction(1, 4))
    assert lattice.scale(-1, v) == (-2, 3, Fraction(-1, 2))
    assert lattice.dot(v, v) == 4 + 9 + Fraction(1, 4)
    assert lattice.sub(v, v) == lattice.zeros(3)


def laplace(m):
    # the slow oracle of the elimination: expansion along the first row
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * laplace([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def cofactor(m, i, j):
    return (-1) ** (i + j) * laplace([row[:j] + row[j + 1:]
                                      for k, row in enumerate(m) if k != i])


def random_matrices(seed, count, nonsingular):
    """count random integer matrices of sizes 1 to 6, each singular or not."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if not nonsingular:  # a row that repeats a multiple of another
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            rows[i] = [rng.randint(-2, 2) * x for x in rows[j]] if i != j else [0] * n
        if (laplace(rows) != 0) == nonsingular:
            found.append(rows)
    return found


def test_determinant_matches_expansion():
    assert lattice.adjugate([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))  # a row swap
    assert lattice.adjugate([[2]]) == (2, ((1,),))
    for rows in random_matrices(5, 60, nonsingular=True):
        assert lattice.adjugate(rows)[0] == laplace(rows)


def test_adjugate_matches_cofactors():
    # adj(m)[j][i] is the (i, j) cofactor, so adj(m) m = det(m) I
    for rows in random_matrices(7, 60, nonsingular=True):
        det, adj = lattice.adjugate(rows)
        n = len(rows)
        assert all(type(x) is int for row in adj for x in row)
        assert [[adj[j][i] for j in range(n)] for i in range(n)] == \
            [[cofactor(rows, i, j) for j in range(n)] for i in range(n)]
        assert [[sum(adj[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[det * (i == j) for j in range(n)] for i in range(n)]


def test_adjugate_refuses_singular():
    for rows in [[[0]], [[1, 2], [2, 4]], [[0, 1], [0, 2]]] + \
            random_matrices(9, 40, nonsingular=False):
        with pytest.raises(ValueError, match="singular"):
            lattice.adjugate(rows)
