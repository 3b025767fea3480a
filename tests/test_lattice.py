"""Exact vector and matrix arithmetic over Fraction."""

import random
from fractions import Fraction

import pytest

from weylalt import lattice


def test_vector_coerces_to_fraction():
    v = lattice.vector([1, "1/2", Fraction(3, 4)])
    assert v == (Fraction(1), Fraction(1, 2), Fraction(3, 4))
    assert all(isinstance(c, Fraction) for c in v)


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


def mat_mul(a, b):
    return tuple(tuple(lattice.dot(row, col) for col in zip(*b)) for row in a)


def matrix(rows):
    return tuple(lattice.vector(row) for row in rows)


def identity(n):
    return matrix([[int(i == j) for j in range(n)] for i in range(n)])


def test_matrix_identity_and_mat_vec():
    eye = identity(3)
    v = lattice.vector([1, Fraction(2, 3), -5])
    assert lattice.mat_vec(eye, v) == v
    m = matrix([[0, 1], [1, 0]])
    assert lattice.mat_vec(m, lattice.vector([3, 7])) == (7, 3)


def test_transpose():
    a = matrix([[1, 2], [3, 4]])
    assert lattice.transpose(a) == matrix([[1, 3], [2, 4]])


def test_invert_exact():
    m = matrix([[1, Fraction(1, 2)], [0, 2]])
    inv = lattice.invert(m)
    assert mat_mul(m, inv) == identity(2)
    assert mat_mul(inv, m) == identity(2)


def test_invert_singular():
    with pytest.raises(ValueError):
        lattice.invert(matrix([[1, 2], [2, 4]]))


def test_invert_random_matrices():
    rng = random.Random(7)
    built = 0
    while built < 20:
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(n)]
        m = matrix(rows)
        try:
            inv = lattice.invert(m)
        except ValueError:
            continue
        assert mat_mul(m, inv) == identity(n)
        built += 1


def laplace(m):
    # the slow oracle of determinant: expansion along the first row
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * laplace([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_determinant_matches_expansion():
    assert lattice.determinant([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert lattice.determinant([[1, 2], [2, 4]]) == 0
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                for _ in range(n)]
        assert lattice.determinant(rows) == laplace(rows)
