"""Exact rational vectors over Fraction, and the integer adjugate.

A vector is a tuple of Fractions in ambient coordinates. The only matrix
routine is adjugate, one fraction-free elimination of an integer matrix:
rootsystem keeps C^-1 as adj(C) / det(C) of the Cartan matrix C, and no
Fraction matrix is ever formed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def vector(values: Iterable) -> Vector:
    """Coerce ints, strings like '3/2', or Fractions into an exact vector;
    ValueError on a float, whose binary value is not the number written."""
    values = tuple(values)
    if any(isinstance(v, float) for v in values):
        raise ValueError(f"{values}: floats are not exact, give ints, Fractions or strings")
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


def adjugate(m: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """det(m) and adj(m) of a square integer matrix, by one fraction-free
    Gauss-Jordan elimination of [m | I] (Bareiss, Math. Comp. 22, 1968).

    Each step replaces row i by (p x_i - f x_k) / p', p the pivot, f row i's
    entry above or below it and p' the pivot before; the division is exact,
    so every entry stays an integer. The last pivot is det(m) up to the sign
    of the row swaps, and the right half is then det(m) m^-1 = adj(m) up to
    the same sign. Raises ValueError on a singular input.
    """
    n = len(m)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign, previous = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        top = work[col]
        for r in range(n):
            if r != col:
                f = work[r][col]
                work[r] = [(top[col] * x - f * y) // previous for x, y in zip(work[r], top)]
        previous = top[col]
    return sign * previous, tuple(tuple(sign * x for x in row[n:]) for row in work)
