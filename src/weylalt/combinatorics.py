"""Fibonacci and Lucas numbers, nonconsecutive index subsets, and the
alternating binomial identities behind the q-multiplicity collapse."""

from __future__ import annotations

import math
from typing import Iterator

from .kostant import QPolynomial


def fibonacci(n: int) -> int:
    """F_n with F_1 = F_2 = 1."""
    if n < 1:
        raise ValueError(f"fibonacci index must be >= 1, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    """L_n with L_0 = 2, L_1 = 1, the same recurrence as fibonacci."""
    if n < 0:
        raise ValueError(f"lucas index must be >= 0, got {n}")
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n (negative n included)."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def nonconsecutive_subsets(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """All subsets of {lo..hi} with no two consecutive members, as sorted
    tuples, the empty set included. For hi < lo only the empty set comes out.
    There are F_(hi-lo+3) of them.
    """

    def rec(start: int) -> Iterator[tuple[int, ...]]:
        if start > hi:
            yield ()
            return
        for rest in rec(start + 1):
            yield rest
        for rest in rec(start + 2):
            yield (start,) + rest

    return rec(lo)


def verify_alternating_identity(r: int) -> bool:
    """Check both exponent-collapse identities for the given rank, exactly.

    sum_k (-1)^k C(r-1-k, k) q^(1+k) (1+q)^(r-1-2k) = q + ... + q^r, and the
    companion with parameter r-2 and opposite signs equals -(q + ... + q^(r-1)).
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")

    def lhs(n: int, sign: int) -> QPolynomial:
        # sign * sum_k (-1)^k C(n-k, k) q^(1+k) (1+q)^(n-2k)
        total = QPolynomial.zero()
        for k in range(n // 2 + 1):
            term = QPolynomial((1, 1)) ** (n - 2 * k)
            total = total + term.scale(sign * (-1) ** k * binomial(n - k, k)).shift(1 + k)
        return total

    return (lhs(r - 1, 1) == QPolynomial.geometric(1, r)
            and lhs(r - 2, -1) == -QPolynomial.geometric(1, r - 1))
