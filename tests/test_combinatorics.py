"""Fibonacci and Lucas numbers, nonconsecutive subsets, and the telescoping
identity."""

import pytest

from weylalt.combinatorics import (binomial, fibonacci, lucas,
                                   nonconsecutive_subsets,
                                   verify_alternating_identity)


@pytest.mark.parametrize("n, value", [
    (1, 1), (2, 1), (3, 2), (4, 3), (5, 5), (6, 8), (7, 13), (8, 21), (9, 34),
    (10, 55), (20, 6765),
])
def test_fibonacci(n, value):
    assert fibonacci(n) == value


def test_fibonacci_rejects_nonpositive():
    with pytest.raises(ValueError):
        fibonacci(0)
    with pytest.raises(ValueError):
        fibonacci(-3)


@pytest.mark.parametrize("n, value", [
    (0, 2), (1, 1), (2, 3), (3, 4), (4, 7), (5, 11), (6, 18), (10, 123),
])
def test_lucas(n, value):
    assert lucas(n) == value


def test_lucas_recurrence_and_fibonacci_sum():
    for n in range(2, 40):
        assert lucas(n) == lucas(n - 1) + lucas(n - 2)
        assert lucas(n) == fibonacci(n - 1) + fibonacci(n + 1)


def test_lucas_rejects_negative():
    with pytest.raises(ValueError):
        lucas(-1)


def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    # out-of-range arguments give 0 instead of raising
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 0
    assert binomial(3, -1) == 0


def test_nonconsecutive_subsets_explicit():
    got = set(nonconsecutive_subsets(2, 4))
    assert got == {(), (2,), (3,), (4,), (2, 4)}


def test_nonconsecutive_subsets_empty_range():
    assert list(nonconsecutive_subsets(3, 2)) == [()]


@pytest.mark.parametrize("lo, hi", [(1, 1), (1, 5), (2, 8), (4, 10)])
def test_nonconsecutive_subsets_count(lo, hi):
    subsets = list(nonconsecutive_subsets(lo, hi))
    assert len(subsets) == len(set(subsets))
    assert len(subsets) == fibonacci(hi - lo + 3)
    for s in subsets:
        assert list(s) == sorted(s)
        assert all(lo <= i <= hi for i in s)
        assert all(b - a >= 2 for a, b in zip(s, s[1:]))


@pytest.mark.parametrize("r", list(range(1, 13)))
def test_alternating_identity(r):
    assert verify_alternating_identity(r)


def test_alternating_identity_rejects_nonpositive():
    with pytest.raises(ValueError):
        verify_alternating_identity(0)
