"""Kostant partition function and its q-analog, computed exactly.

The q-analog P_q(xi) = sum_j c_j q^j counts the ways to write xi as a sum of
exactly j positive roots. The main path is one dense table per RootSystem
object (build hands out one per type and rank) over a box [0, top] in
simple-root coordinates. Every row of cells along the last axis is packed into
a single int, coefficient by coefficient in planes of equal excess ht(x) - j,
so a row is only as long as its deepest cell (see BoxTable). The fill starts
every row at excess 0, the simple roots' closed form q^ht(x), and adds one
unbounded-knapsack pass per other positive root, one big-int update per row.
A lookup outside the box builds a new table, unless height_bytes, the one
estimate of a table's size, taken from its row heights, passes
TABLE_BUDGET_BYTES: then TableTooLarge is raised before anything is
allocated. Two independent routes are kept as oracles and never merged with
it: partition_q_recursive, a recursion over a permuted root list, and
partition_q_bruteforce, an exhaustive search with no memo.
"""

from __future__ import annotations

from itertools import accumulate
from math import prod
from operator import le, mul
from typing import Iterable, Sequence

from .errors import HeightExceeded, NotInRootSpan, TableTooLarge
from .lattice import Vector
from .rootsystem import RootSystem, to_simple_root_coords

BRUTE_FORCE_MAX_HEIGHT = 30
# The budget caps height_bytes, which reads 1.0-1.5x the rows a table will
# hold, not the peak of a fill: over one fill at B8, C8 and E7 at 2 theta and
# E8 at theta, the growth of the process's VmHWM (14-19 MB, the rows plus the
# fill's passing ints) reads 0.86-1.04 of height_bytes, so a table just under
# the budget may lift the peak a few percent past it. 1 GiB is an eighth of an
# 8 GB machine; it holds B8 at 3 theta (529 MB) but not E8 at 2 theta (3.4 GB)
TABLE_BUDGET_BYTES = 1 << 30


class QPolynomial:
    """Immutable polynomial in q with integer coefficients, dense and trimmed.

    Partition values have nonnegative coefficients; alternating sums go
    through the same type and may dip negative.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        trimmed = tuple(coeffs)
        if trimmed and not trimmed[-1]:
            # table lookups never get here: their leading coefficient is 1
            trimmed = list(trimmed)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            trimmed = tuple(trimmed)
        object.__setattr__(self, "coeffs", trimmed)

    def __setattr__(self, *args):
        raise AttributeError("QPolynomial is immutable")

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coefficient: int = 1) -> "QPolynomial":
        if power < 0:
            raise ValueError("negative power")
        return cls((0,) * power + (coefficient,))

    @classmethod
    def geometric(cls, low: int, high: int) -> "QPolynomial":
        """q^low + q^(low+1) + ... + q^high; zero when the range is empty."""
        if high < low:
            return cls()
        return cls((0,) * low + (1,) * (high - low + 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if self.is_zero or other.is_zero:
            return QPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPolynomial(out)

    def __pow__(self, n: int) -> "QPolynomial":
        if n < 0:
            raise ValueError("negative exponent")
        result = QPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "QPolynomial":
        """Multiply by q^k."""
        if self.is_zero:
            return self
        return QPolynomial((0,) * k + self.coeffs)

    def scale(self, c: int) -> "QPolynomial":
        return QPolynomial(tuple(c * x for x in self.coeffs))

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if not c:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            elif power == 1:
                body = "q" if mag == 1 else f"{mag}q"
            else:
                body = f"q^{power}" if mag == 1 else f"{mag}q^{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPolynomial({self.coeffs!r})"


def coefficient_bound(top: Sequence[int], roots: Sequence[Sequence[int]]) -> int:
    """Bound on P(x) = P_q(x) at q = 1 for every x in the box [0, top].

    A decomposition of x <= top uses only roots beta <= top, and its
    multiplicities write ht(x) as a sum of the heights ht(beta), one part
    kind per root; distinct decompositions give distinct sums. So P(x), and
    every coefficient of P_q(x), is at most the largest count of such sums
    of some n <= ht(top), from one 1-D knapsack over [0, ht(top)].
    """
    height = sum(top)
    counts = [1] + [0] * height
    for h in (sum(beta) for beta in roots if all(map(le, beta, top))):
        for n in range(h, height + 1):
            counts[n] += counts[n - h]
    return max(counts)


class BoxTable:
    """P_q for every x in the box [0, top] of simple-root coordinates.

    A row holds the cells that share a prefix x_0..x_(r-2), packed into one
    int as a stack of planes, one plane per excess e = ht(x) - k: coefficient
    k of P_q(x) sits in bits [e*plane + x_(r-1)*bits, ... + bits), where
    plane = (top_(r-1) + 1) * bits. A decomposition of x into k roots none
    taller than h (the tallest root in the box) has k >= ceil(ht(x)/h), so the
    planes stop at ht(top) - ceil(ht(top)/h), and a row ends at the excess of
    its last cell, the largest in the row. bits comes from coefficient_bound's
    count of height sums, so no digit carries. Row p sits at index
    sum(p_i * strides_i), row-major; strides ends in a 0 so that a whole point
    indexes its row. Each lookup decodes its cell to a QPolynomial; nothing
    changes after construction.
    """

    __slots__ = ("top", "strides", "bits", "plane", "mask", "tallest", "rows")

    def __init__(self, top: tuple[int, ...], roots: Sequence[tuple[int, ...]]):
        self.top = top
        strides = [0] * len(top)
        step = 1
        for i in range(len(top) - 2, -1, -1):
            strides[i] = step
            step *= top[i] + 1
        self.strides = tuple(strides)
        inbox, self.bits, self.tallest = _layout(top, roots)
        self.plane = (top[-1] + 1) * self.bits
        self.mask = (1 << self.bits) - 1
        self.rows = self._fill(inbox)

    def _fill(self, roots) -> list[int]:
        """Start every row at excess 0, the one decomposition of each cell
        into simple roots, then run one unbounded-knapsack pass per other
        positive root beta: t[x] += t[x - beta] * q, one row at a time in
        increasing row index.

        A non-simple root is nonzero before the last axis, so every source
        row lies before its destination row and is final in this pass when
        it is read. One more part keeps the excess of a coefficient up by
        ht(beta) - 1, so within a row the pass is one shift by that many
        planes plus beta's last coordinate in cells; the mask drops what
        would pass a plane's last cell, and the planes past the last."""
        top, strides, bits, plane = self.top, self.strides, self.bits, self.plane
        r = len(top)
        height = sum(top)
        planes = height - -(-height // self.tallest) + 1
        # a 1 in the lowest bit of every plane, and a 1 in every cell of plane 0
        ones = ((1 << (planes * plane)) - 1) // ((1 << plane) - 1)
        rows = [((1 << plane) - 1) // self.mask] * prod(t + 1 for t in top[:-1])
        for beta in roots:
            if sum(beta) == 1:
                continue
            offset = sum(map(mul, beta, strides))
            # the destination rows, prefix in [beta, top], as runs along the
            # last prefix axis
            starts = [beta[r - 2]]
            for i in range(r - 2):
                starts = [s + x * strides[i]
                          for s in starts for x in range(beta[i], top[i] + 1)]
            run = top[r - 2] - beta[r - 2] + 1
            shift = (sum(beta) - 1) * plane + beta[-1] * bits
            if beta[-1]:
                cells = (1 << ((top[-1] + 1 - beta[-1]) * bits)) - 1
                mask = (cells << (beta[-1] * bits)) * ones
                for lo in starts:
                    for d in range(lo, lo + run):
                        rows[d] += (rows[d - offset] << shift) & mask
            else:
                for lo in starts:
                    for d in range(lo, lo + run):
                        rows[d] += rows[d - offset] << shift
        return rows

    def __len__(self) -> int:
        return len(self.rows) * (self.top[-1] + 1)

    def covers(self, coords: tuple[int, ...]) -> bool:
        return all(map(le, coords, self.top))

    def lookup(self, coords: tuple[int, ...]) -> QPolynomial:
        """P_q(coords) for coords inside the box: the planes upward from the
        cell, coefficient ht(coords) down to the fewest parts possible."""
        row = self.rows[sum(map(mul, coords, self.strides))]
        packed = row >> (coords[-1] * self.bits)
        height = sum(coords)
        mask, plane = self.mask, self.plane
        coeffs = [0] * (height + 1)
        for k in range(height, -(-height // self.tallest) - 1, -1):
            coeffs[k] = packed & mask
            packed >>= plane
        return QPolynomial(coeffs)


def _layout(top: tuple[int, ...], roots: Sequence[tuple[int, ...]]
            ) -> tuple[list[tuple[int, ...]], int, int]:
    """The roots inside the box [0, top], the only ones a decomposition of a
    cell can use; the bits of a coefficient; the height of the tallest of
    those roots."""
    inbox = [beta for beta in roots if all(map(le, beta, top))]
    bits = coefficient_bound(top, inbox).bit_length()
    return inbox, bits, max(map(sum, inbox), default=1)


def height_bytes(top: tuple[int, ...], roots: Sequence[tuple[int, ...]]) -> int:
    """Bytes a BoxTable over [0, top] holds at most, from row heights alone:
    the last cell x of a row has excess at most ht(x) - ceil(ht(x)/h), h the
    tallest root in the box, and a row of excess e costs a list slot, an int
    header and 4 bytes per 30-bit digit of e + 1 planes. Rows are counted by
    the height of their prefix, so this costs one pass per axis. It is the
    estimate TABLE_BUDGET_BYTES is held against, and never above the bytes of
    rows of ht(top) + 1 full planes each."""
    _, bits, tallest = _layout(top, roots)
    plane = (top[-1] + 1) * bits
    counts = [1]  # counts[s]: prefixes of height s over the axes so far
    for t in top[:-1]:
        cum = [0, *accumulate(counts)]
        n = len(counts)
        counts = [cum[min(s, n - 1) + 1] - cum[max(s - t, 0)] for s in range(n + t)]
    total = 0
    for ht, c in enumerate(counts, start=top[-1]):
        planes = ht - -(-ht // tallest) + 1
        total += c * (32 + 4 * -(-planes * plane // 30))
    return total


# RootSystem is eq=False, so each build() instance is its own key
_DEFAULT_CACHES: dict[RootSystem, BoxTable] = {}


def _table_lookup(coords: tuple[int, ...], rs: RootSystem) -> QPolynomial:
    """P_q of nonnegative simple-root coordinates from rs's table.

    A lookup outside the box builds a new table: over the coordinatewise
    union of the old box and the request when that has no more cells than
    the two together and fits TABLE_BUDGET_BYTES, else over the request
    alone, so memory stays bounded and skewed lookups do not inflate the box.
    A request over the budget raises TableTooLarge before anything is
    allocated. The table is replaced as one dict entry and never changed in
    place, so concurrent callers at worst build the same table twice.
    """
    table = _DEFAULT_CACHES.get(rs)
    if table is None or not table.covers(coords):
        roots = rs.positive_root_alpha_coords
        top = coords
        if table is not None:
            union = tuple(map(max, table.top, coords))
            if prod(t + 1 for t in union) <= len(table) + prod(c + 1 for c in coords):
                top = union
        size = height_bytes(top, roots)
        if size > TABLE_BUDGET_BYTES and top != coords:
            top = coords
            size = height_bytes(top, roots)
        if size > TABLE_BUDGET_BYTES:
            raise TableTooLarge(
                f"P_q table over the box {list(top)} has "
                f"{prod(t + 1 for t in top):,} cells, an estimated {size:,} "
                f"bytes, over the budget of {TABLE_BUDGET_BYTES:,} bytes")
        table = _DEFAULT_CACHES[rs] = BoxTable(top, roots)
    return table.lookup(coords)


def _validated_alpha_coords(xi: Vector, rs: RootSystem) -> tuple[int, ...] | None:
    """Simple-root coordinates as ints, or None when P_q(xi) is trivially zero."""
    try:
        coords = to_simple_root_coords(xi, rs)
    except NotInRootSpan:
        return None
    if any(c.denominator != 1 or c < 0 for c in coords):
        return None
    return tuple(int(c) for c in coords)


def _recurse(target: tuple[int, ...], index: int,
             roots: Sequence[tuple[int, ...]],
             memo: dict[tuple[tuple[int, ...], int], tuple[int, ...]]
             ) -> tuple[int, ...]:
    """Coefficients of P_q(target) using roots[index:] only; memo is per call."""
    if not any(target):
        return (1,)
    if index == len(roots):
        return ()
    key = (target, index)
    hit = memo.get(key)
    if hit is not None:
        return hit
    acc = list(_recurse(target, index + 1, roots, memo))
    root = roots[index]
    current = target
    multiplicity = 0
    while True:
        reduced = tuple(a - b for a, b in zip(current, root))
        if any(c < 0 for c in reduced):
            break
        multiplicity += 1
        sub = _recurse(reduced, index + 1, roots, memo)
        need = multiplicity + len(sub)
        if len(acc) < need:
            acc.extend([0] * (need - len(acc)))
        for power, c in enumerate(sub):
            acc[multiplicity + power] += c
        current = reduced
    while acc and acc[-1] == 0:
        acc.pop()
    result = tuple(acc)
    memo[key] = result
    return result


def partition_q_alpha(coords: Sequence[int], rs: RootSystem) -> QPolynomial:
    """P_q for a vector given directly by simple-root coordinates."""
    if len(coords) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates, got {len(coords)}")
    if any(c != int(c) for c in coords):
        return QPolynomial.zero()
    coords = tuple(int(c) for c in coords)
    if any(c < 0 for c in coords):
        return QPolynomial.zero()
    return _table_lookup(coords, rs)


def partition_q(xi: Vector, rs: RootSystem) -> QPolynomial:
    """q-analog of the Kostant partition function of an ambient vector; the
    zero polynomial outside the nonnegative integer span of the roots."""
    try:
        return partition_q_alpha(to_simple_root_coords(xi, rs), rs)
    except NotInRootSpan:
        return QPolynomial.zero()


def partition(xi: Vector, rs: RootSystem) -> int:
    """Plain Kostant partition function: P_q evaluated at q = 1."""
    return partition_q(xi, rs).evaluate(1)


def partition_q_recursive(xi: Vector, rs: RootSystem,
                          root_order: Sequence[int]) -> QPolynomial:
    """Independent oracle: the memoized recursion over the positive roots in
    root_order, a permutation of their indices (ValueError otherwise). Same
    contract as partition_q, whose value must not depend on the order."""
    roots = rs.positive_root_alpha_coords
    if sorted(root_order) != list(range(len(roots))):
        raise ValueError("root_order must be a permutation of the positive roots")
    coords = _validated_alpha_coords(xi, rs)
    if coords is None:
        return QPolynomial.zero()
    return QPolynomial(_recurse(coords, 0, tuple(roots[i] for i in root_order), {}))


def partition_q_bruteforce(xi: Vector, rs: RootSystem) -> QPolynomial:
    """Independent oracle: exhaustively enumerate every decomposition.

    Same contract as partition_q but no memoization and the roots visited in
    reversed order; HeightExceeded for inputs of height above
    BRUTE_FORCE_MAX_HEIGHT since the search tree is unbounded otherwise.
    """
    coords = _validated_alpha_coords(xi, rs)
    if coords is None:
        return QPolynomial.zero()
    if sum(coords) > BRUTE_FORCE_MAX_HEIGHT:
        raise HeightExceeded(
            f"height {sum(coords)} exceeds brute-force bound {BRUTE_FORCE_MAX_HEIGHT}")
    roots = tuple(reversed(rs.positive_root_alpha_coords))
    counts: dict[int, int] = {}

    def explore(index: int, remaining: tuple[int, ...], parts: int) -> None:
        if index == len(roots):
            if not any(remaining):
                counts[parts] = counts.get(parts, 0) + 1
            return
        root = roots[index]
        current = remaining
        used = 0
        while True:
            explore(index + 1, current, parts + used)
            reduced = tuple(a - b for a, b in zip(current, root))
            if any(c < 0 for c in reduced):
                break
            current = reduced
            used += 1

    explore(0, coords, 0)
    if not counts:
        return QPolynomial.zero()
    coeffs = [0] * (max(counts) + 1)
    for parts, ways in counts.items():
        coeffs[parts] = ways
    return QPolynomial(coeffs)
