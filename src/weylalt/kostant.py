"""Kostant partition function and its q-analog, computed exactly.

The q-analog P_q(xi) = sum_j c_j q^j counts the ways to write xi as a sum of
exactly j positive roots. The main path is one dense table per RootSystem
object (build hands out one per type and rank) over a box [0, top] in
simple-root coordinates. A row is the cells that share every coordinate
outside a few packed axes, no two of them joined in the Dynkin diagram; it is
packed into a single int, coefficient by coefficient in planes of equal
excess ht(x) - j, so a row is only as long as its deepest cell (see
BoxTable). A coefficient's field is as wide as the largest count of
decompositions of one excess (coefficient_bound). The fill starts every row
at excess 0, the simple roots' closed form q^ht(x), and then only adds, as
BoxTable._passes lists each pass whole: one unbounded-knapsack pass per
other positive root by increasing height, one big-int update per row, over
only the rows the requested cells depend on; the whole box is every row.
table_layout fixes a table's width and packed axes and estimates its bytes
once, from its row heights (height_bytes). A query lays its table out
over its own box before its walk (_layout_over), so an estimate past
TABLE_BUDGET_BYTES raises TableTooLarge before anything is allocated, and
fills it after the walk for its cells, or the whole box (_table_over).
partition_q_bruteforce, an exhaustive search with no memo, is kept apart from
the table as the oracle of `verify oracle`; the tests also check the table
against a recursion over a permuted root list (tests/oracles.py)."""

from __future__ import annotations

from itertools import accumulate, compress, count
from math import prod
from operator import le, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import HeightExceeded, NotInRootSpan, TableTooLarge
from .lattice import Vector
from .rootsystem import RootSystem, to_simple_root_coords

BRUTE_FORCE_MAX_HEIGHT = 30
# The budget caps height_bytes, which reads 1.0-1.5x the rows a table will
# hold, not the peak of a fill: over one fill at B8, C8 and E7 at 2 theta and
# E8 at theta, each in a fresh process, the growth of the process's VmHWM
# (9.3-12.6 MB, the rows plus the fill's passing ints) reads 0.72-0.93 of
# height_bytes, while the rows held read 0.66-0.68 of it. 1 GiB is an eighth
# of an 8 GB machine; it holds B8 at 3 theta (377 MB by height_bytes) but not
# E8 at 2 theta (2.54 GB)
TABLE_BUDGET_BYTES = 1 << 30
# One row update of a fill pass costs about as much time as 1,500 bits of
# big-int work: of the 1,000 to 2,000 that picked packed axes within 1.2x of
# the fastest on most of sixteen theta-multiple boxes, rank 2 to 8, timed
# under every admissible choice of one or two axes
ROW_UPDATE_BITS = 1500


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
    """Bound on every coefficient of P_q(x) for x in the box [0, top].

    A decomposition of x uses only roots inside the box and is fixed by the
    multiplicities m of its non-simple roots, the simple roots making up the
    rest. Its excess ht(x) - parts is sum m_beta (ht(beta) - 1), and
    sum m_beta ht(beta) <= ht(x) <= ht(top). So the coefficient of excess e
    is at most the count of such m of excess e, and the bound is the largest
    of those counts: one knapsack over heights [0, ht(top)] with the excess
    packed in its cells. No field carries, since each holds at most the count
    of all such m, whose bit length is the packing width.
    """
    height = sum(top)
    heights = [sum(beta) for beta in roots if sum(beta) > 1 and all(map(le, beta, top))]
    every = [1] + [0] * height  # every[n]: the m with sum m_beta ht(beta) = n
    for h in heights:
        for n in range(h, height + 1):
            every[n] += every[n - h]
    width = sum(every).bit_length()
    counts = [1] + [0] * height  # the same m, one field of width bits per excess
    for h in heights:
        shift = (h - 1) * width
        for n in range(h, height + 1):
            counts[n] += counts[n - h] << shift
    total, field, largest = sum(counts), (1 << width) - 1, 0
    while total:
        largest = max(largest, total & field)
        total >>= width
    return largest


class Layout(NamedTuple):
    """How a BoxTable over [0, top] packs its cells, fixed before it is built."""

    top: tuple[int, ...]
    roots: list[tuple[int, ...]]  # the positive roots inside the box
    bits: int                     # the width of one coefficient
    tallest: int                  # the height of the tallest root in the box
    packed: tuple[int, ...]       # the axes a row spans, in increasing order
    size: int                     # height_bytes of this packing, or the floor


def _repeat(block: int, width: int, count: int) -> int:
    """count copies of block, each width bits above the one before: block
    times (2^(count*width) - 1) / (2^width - 1), built by doubling from the
    top bit of count down, as big-int division is quadratic."""
    out, copies = 0, 0
    for bit in bin(count)[2:]:
        out += out << copies * width
        copies *= 2
        if bit == "1":
            out = (out << width) + block
            copies += 1
    return out


def _span(block: int, beta: Sequence[int], top: Sequence[int], axes: Sequence[int],
          steps: Sequence[int]) -> int:
    """block at every position sum(x_i * steps_i) with beta_i <= x_i <= top_i
    on each of axes and x_i = 0 elsewhere, the axes in increasing order with
    steps decreasing along them, each at least the span of the ones after."""
    for i in reversed(axes):
        block = _repeat(block, steps[i], top[i] + 1 - beta[i]) << beta[i] * steps[i]
    return block


_BITS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask >= 0, in increasing order."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BITS))


class BoxTable:
    """P_q for the cells of the box [0, top] of simple-root coordinates whose
    rows the table finished: every row, unless cells are given.

    A row holds the cells that share every coordinate outside the layout's
    packed axes Q, no non-simple root in the box having its support inside
    Q. It is one int, a stack of planes, one plane per excess e = ht(x) - k:
    coefficient k of P_q(x) sits in bits [e*plane + cell(x)*bits, ... + bits),
    where cell(x) is the mixed-radix index of x's packed coordinates and
    plane is bits times the cells of a row. A decomposition of x into k roots
    none taller than h (the tallest root in the box) has k >= ceil(ht(x)/h),
    so the planes stop at ht(top) - ceil(ht(top)/h), and a row ends at the
    excess of its last cell, the largest in the row. bits comes from
    coefficient_bound, so no field carries. Row p sits at index
    sum(p_i * strides_i) and cell(x)*bits is sum(x_i * shifts_i); strides is 0
    on the packed axes and shifts on the others, so a whole point indexes its
    row and its cell. final holds a byte per row, 1 for the rows of the given
    cells, or is None for the whole box; done is the same rows as a bitmask,
    -1 (every bit) for the whole box, from which _passes plans the fill with
    this layout alone. Each lookup decodes its cell to a QPolynomial and
    refuses a row that final does not mark; nothing changes after
    construction. len() is the box's cell count either way.
    """

    __slots__ = ("layout", "top", "strides", "shifts", "bits", "plane", "mask", "tallest",
                 "final", "done", "rows")

    def __init__(self, layout: Layout, cells: Iterable[tuple[int, ...]] | None = None):
        self.layout = layout
        top = self.top = layout.top
        self.bits, self.tallest = layout.bits, layout.tallest
        strides, shifts = [0] * len(top), [0] * len(top)
        rows, cell = 1, layout.bits
        for i in range(len(top) - 1, -1, -1):
            if i in layout.packed:
                shifts[i] = cell
                cell *= top[i] + 1
            else:
                strides[i] = rows
                rows *= top[i] + 1
        self.strides, self.shifts = tuple(strides), tuple(shifts)
        self.plane = cell
        self.mask = (1 << self.bits) - 1
        self.final, self.done = None, -1
        if cells is not None:
            self.final = bytearray(rows)
            for x in cells:
                self.final[sum(map(mul, x, self.strides))] = 1
            self.done = int(self.final.translate(_DIGITS)[::-1], 2)
        self.rows = self._fill(rows)

    def _passes(self, need: int) -> list[tuple[tuple[int, ...], int, int, int, int]]:
        """The fill, one (beta, offset, shift, mask, rows) per non-simple root
        beta of the layout by increasing height, that leaves every row of the
        bitmask need final: rows[d] += rows[d - offset] << shift, ANDed with
        mask unless it is 0, for each set bit d of rows.

        A pass updates destination rows d, those with outer coordinates in
        [beta, top], in increasing order, each from its source d - offset,
        which the same pass may update first. So the rows that must be final
        before a pass are those after it, closed under d -> d - offset on the
        destination rows; planned backward from need, each closure is a few
        shifts of one bitmask. Under need = -1 every destination row is
        updated: the whole-box fill. One more part raises a coefficient's
        excess by ht(beta) - 1, so within a row the shift is that many planes
        plus beta's packed coordinates in cells; when those are not all 0,
        mask keeps, in every plane, the cells x with x_q >= beta_q on each
        packed axis q, dropping the sources that wrap from elsewhere in the
        row and the planes past the last."""
        top, strides, shifts, plane = self.top, self.strides, self.shifts, self.plane
        outer = [i for i, stride in enumerate(strides) if stride]
        packed = [i for i, shift in enumerate(shifts) if shift]
        height = sum(top)
        ones = _repeat(1, plane, height - -(-height // self.tallest) + 1)  # 1 per plane
        plan, roots = [], sorted((b for b in self.layout.roots if sum(b) > 1), key=sum)
        for beta in roots[::-1]:  # planned from the last pass back
            offset = sum(map(mul, beta, strides))
            within = sum(map(mul, beta, shifts))
            mask = within and _span(self.mask, beta, top, packed, shifts) * ones
            destinations = _span(1, beta, top, outer, strides)
            closed = need | (need & destinations) >> offset
            while closed != need:
                need, closed = closed, closed | (closed & destinations) >> offset
            plan.append((beta, offset, (sum(beta) - 1) * plane + within, mask,
                         need & destinations))
        return plan[::-1]

    def _fill(self, length: int) -> list[int]:
        """Start every row at excess 0, the one decomposition of each cell
        into simple roots, then run the passes _passes plans for done: one
        unbounded-knapsack pass t[x] += t[x - beta] * q per other positive
        root beta. A non-simple root is nonzero on some axis outside the
        packed ones, so every source row lies before its destination row and
        is final in this pass when it is read."""
        rows = [_repeat(1, self.bits, self.plane // self.bits)] * length
        for _, offset, shift, mask, update in self._passes(self.done):
            if mask:
                for d in _set_bits(update):
                    rows[d] += (rows[d - offset] << shift) & mask
            else:
                for d in _set_bits(update):
                    rows[d] += rows[d - offset] << shift
        return rows

    def __len__(self) -> int:
        return len(self.rows) * (self.plane // self.bits)

    def holds(self, cells: Iterable[tuple[int, ...]] | None) -> bool:
        """Whether the row of every cell, each inside the box, is final;
        every row when cells is None."""
        final, strides = self.final, self.strides
        return final is None or (cells is not None
                                 and all(final[sum(map(mul, x, strides))] for x in cells))

    def lookup(self, coords: tuple[int, ...]) -> QPolynomial:
        """P_q(coords) for coords inside the box: the planes upward from the
        cell, coefficient ht(coords) down to the fewest parts possible.
        LookupError when the cell's row is not final."""
        index = sum(map(mul, coords, self.strides))
        if self.final is not None and not self.final[index]:
            raise LookupError(f"the row of {list(coords)} in the P_q table over "
                              f"{list(self.top)} was not filled")
        packed = self.rows[index] >> sum(map(mul, coords, self.shifts))
        height = sum(coords)
        mask, plane = self.mask, self.plane
        coeffs = [0] * (height + 1)
        for k in range(height, -(-height // self.tallest) - 1, -1):
            coeffs[k] = packed & mask
            packed >>= plane
        return QPolynomial(coeffs)


def height_bytes(top: tuple[int, ...], roots: Sequence[tuple[int, ...]], bits: int,
                 packed: Sequence[int]) -> int:
    """Bytes a BoxTable over [0, top] holds at most when its rows span the
    packed axes, from row heights alone. The last cell x of a row is at the
    top of every packed axis q, so it is a sum of at least ceil(ht(x)/h)
    roots of the box, h the tallest, and of at least ceil(top_q/c_q), c_q
    the largest coefficient of alpha_q in them: its excess, and the row's,
    is ht(x) minus the larger. A row of excess e costs a list slot, an int
    header and 4 bytes per 30-bit digit of e + 1 planes. Rows are counted by
    the height of their other coordinates, one pass per other axis."""
    tallest = max(map(sum, roots), default=1)
    fewest = max((-(-top[q] // max(1, *(beta[q] for beta in roots))) for q in packed),
                 default=0)
    plane = bits * prod(top[q] + 1 for q in packed)
    counts = [1]  # counts[s]: rows whose other coordinates sum to s, so far
    for i, t in enumerate(top):
        if i in packed:
            continue
        cum = [0, *accumulate(counts)]
        n = len(counts)
        counts = [cum[min(s, n - 1) + 1] - cum[max(s - t, 0)] for s in range(n + t)]
    total = 0
    for ht, c in enumerate(counts, start=sum(top[q] for q in packed)):
        planes = ht - max(-(-ht // tallest), fewest) + 1
        total += c * (32 + 4 * -(-planes * plane // 30))
    return total


def _choose_packed(top: tuple[int, ...], roots: Sequence[tuple[int, ...]],
                   bits: int, tallest: int) -> tuple[int, ...]:
    """The axes a row spans, chosen greedily by a model of the fill's time.

    A fill touches every row once at its start and then, per pass of a
    non-simple root beta, each destination row: the rows whose coordinates
    outside the packed axes Q are at least beta's, prod over i not in Q of
    (top_i - beta_i + 1). Each touch costs ROW_UPDATE_BITS plus the row's
    length: cells(Q) * bits per plane, times about 1 + (1 - 1/h) ht planes,
    ht the height of the row's last cell, which averages
    sum_(i not in Q) (top_i + beta_i)/2 + sum_(q in Q) top_q over those rows
    (beta = 0 for the start). From no packed axis, the axis that lowers this
    total the most is added while one does, and only while no non-simple
    root has its support inside Q. The total is scaled by 2h to stay in
    integers."""
    steps = [(0,) * len(top)] + [beta for beta in roots if sum(beta) > 1]
    supports = [sum(1 << i for i, b in enumerate(beta) if b) for beta in steps[1:]]
    # per step: the rows it touches and twice their mean height, so far
    rows = [prod(t - b + 1 for t, b in zip(top, beta)) for beta in steps]
    spans = [sum(top) + sum(beta) for beta in steps]

    def cost(rows, spans, width):
        return sum(n * (2 * tallest * ROW_UPDATE_BITS
                        + width * ((tallest - 1) * span + 2 * tallest))
                   for n, span in zip(rows, spans))

    packed, width = 0, bits
    best = cost(rows, spans, width)
    while True:
        choice = None
        for j, t in enumerate(top):
            mask = packed | 1 << j
            if not t or mask == packed or any(s & mask == s for s in supports):
                continue
            trial = ([n // (t - beta[j] + 1) for n, beta in zip(rows, steps)],
                     [span + t - beta[j] for span, beta in zip(spans, steps)])
            total = cost(*trial, width * (t + 1))
            if total < best:
                best, choice = total, (j, trial)
        if choice is None:
            return tuple(i for i in range(len(top)) if packed >> i & 1)
        j, (rows, spans) = choice
        packed |= 1 << j
        width *= top[j] + 1


def table_layout(top: tuple[int, ...], roots: Sequence[tuple[int, ...]]) -> Layout:
    """The layout of a BoxTable over [0, top] and its estimated size.

    Every layout holds at least one bit per plane of each cell, and a cell x
    has at least (1 - 1/h) ht(x) planes, which average (1 - 1/h) ht(top)/2
    over the box. When those bytes alone pass TABLE_BUDGET_BYTES the table
    is never built, so no width is counted and the layout's size is that
    floor, with bits 0."""
    inbox = [beta for beta in roots if all(map(le, beta, top))]
    tallest = max(map(sum, inbox), default=1)
    least = prod(t + 1 for t in top) * sum(top) * (tallest - 1) // (15 * tallest)
    if least > TABLE_BUDGET_BYTES:
        return Layout(top, inbox, 0, tallest, (), least)
    bits = coefficient_bound(top, inbox).bit_length()
    packed = _choose_packed(top, inbox, bits, tallest)
    return Layout(top, inbox, bits, tallest, packed, height_bytes(top, inbox, bits, packed))


# RootSystem is eq=False, so each build() instance is its own key
_DEFAULT_CACHES: dict[RootSystem, BoxTable] = {}


def _layout_over(request: tuple[int, ...], rs: RootSystem) -> Layout:
    """The layout of rs's table once it covers [0, request]: the cached
    table's when it does, else a new one over the request alone. Over
    TABLE_BUDGET_BYTES, TableTooLarge is raised before anything is
    allocated."""
    table = _DEFAULT_CACHES.get(rs)
    if table is not None and all(map(le, request, table.top)):
        return table.layout
    layout = table_layout(request, rs.positive_root_alpha_coords)
    if layout.size > TABLE_BUDGET_BYTES:
        size = f"{'an estimated' if layout.bits else 'at least'} {layout.size:,} bytes"
        raise TableTooLarge(
            f"P_q table over the box {list(request)} has {prod(t + 1 for t in request):,} "
            f"cells, {size}, over the budget of {TABLE_BUDGET_BYTES:,} bytes")
    return layout


def _table_over(layout: Layout, cells: list[tuple[int, ...]] | None,
                rs: RootSystem) -> BoxTable:
    """rs's table under layout (from _layout_over) with the rows of cells
    inside its box final, every row when cells is None: the cached table
    when it has that layout and holds them, else a new one, filled for those
    rows when it is rs's first and for the whole box otherwise, so a process
    pays at most one fill beyond the whole-box ones. A table is replaced as
    one dict entry, never changed in place: concurrent callers at worst
    build the same table twice."""
    table = _DEFAULT_CACHES.get(rs)
    if table is None or table.layout is not layout or not table.holds(cells):
        table = _DEFAULT_CACHES[rs] = BoxTable(layout, cells if table is None else None)
    return table


def partition_q_alpha(coords: Sequence[int], rs: RootSystem) -> QPolynomial:
    """P_q for a vector given directly by simple-root coordinates."""
    if len(coords) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates, got {len(coords)}")
    if any(c != int(c) or c < 0 for c in coords):
        return QPolynomial.zero()
    coords = tuple(map(int, coords))
    return _table_over(_layout_over(coords, rs), [coords], rs).lookup(coords)


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


def partition_q_bruteforce(xi: Vector, rs: RootSystem) -> QPolynomial:
    """Independent oracle: exhaustively enumerate every decomposition.

    Same contract as partition_q but no memoization and the roots visited in
    reversed order; HeightExceeded for inputs of height above
    BRUTE_FORCE_MAX_HEIGHT since the search tree is unbounded otherwise.
    """
    try:
        coords = to_simple_root_coords(xi, rs)
    except NotInRootSpan:
        return QPolynomial.zero()
    if any(c.denominator != 1 or c < 0 for c in coords):
        return QPolynomial.zero()
    coords = tuple(int(c) for c in coords)
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
