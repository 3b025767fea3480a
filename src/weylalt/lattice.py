"""Exact rational vectors and small dense linear algebra over Fraction."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]


def vector(values: Iterable) -> Vector:
    """Coerce ints, strings like '3/2', or Fractions into an exact vector."""
    return tuple(Fraction(v) for v in values)


def zeros(dim: int) -> Vector:
    return (Fraction(0),) * dim


def add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def scale(c, u: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in u)


def dot(u: Vector, v: Vector) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def determinant(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination, exactly."""
    work = [vector(row) for row in m]
    det = Fraction(1)
    for col in range(len(work)):
        pivot = next((r for r in range(col, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, len(work)):
            f = work[r][col] / work[col][col]
            work[r] = tuple(x - f * y for x, y in zip(work[r], work[col]))
    return det


def invert(m: Sequence[Sequence[Fraction]]) -> Matrix:
    """Invert a square matrix by Gauss-Jordan elimination, exactly.

    Raises ValueError on a singular input.
    """
    n = len(m)
    work = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = 1 / work[col][col]
        work[col] = [x * inv_p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)
