"""Weyl group elements as lex-least reduced words over a root system.

An element is its lexicographically least reduced word, and it acts on
ambient vectors only by applying the word's simple reflections. The
weak-order walk in multiplicity produces those words; the tests check it
against a breadth-first enumeration of the whole group (tests/oracles.py).
group_order gives |W| for the roots report; no limit reads it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import lattice
from .lattice import Vector
from .rootsystem import TYPES, RootSystem


@dataclass(frozen=True, eq=False)
class WeylElement:
    """One group element; equality and hashing go by the word.

    The word must be the element's lex-least reduced word, as produced by
    the alternation-set walk, so equal elements have equal words.
    """

    word: tuple[int, ...]
    rs: RootSystem = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.word == other.word and self.rs is other.rs

    def __hash__(self):
        return hash(self.word)

    @property
    def length(self) -> int:
        return len(self.word)

    def act(self, v: Vector) -> Vector:
        """Apply the element to an ambient vector, rightmost reflection first."""
        for i in reversed(self.word):
            c = lattice.dot(v, self.rs.simple_coroots[i - 1])
            if c:
                v = lattice.sub(v, lattice.scale(c, self.rs.simple_roots[i - 1]))
        return v

    def __str__(self) -> str:
        return "e" if not self.word else "*".join(f"s{i}" for i in self.word)


def group_order(rs: RootSystem) -> int:
    _, _, order = TYPES[rs.type_label]
    return order(rs.rank)


def coxeter_order(rs: RootSystem, i: int, j: int) -> int:
    """Order of s_i s_j from the Cartan matrix (1-based indices)."""
    if i == j:
        return 1
    product = rs.cartan_matrix[i - 1][j - 1] * rs.cartan_matrix[j - 1][i - 1]
    return {0: 2, 1: 3, 2: 4, 3: 6}[product]


@functools.cache
def generators(rs: RootSystem) -> tuple[WeylElement, ...]:
    """Simple reflections s_1..s_r, Coxeter relations verified on first build.

    s_i^2 = 1 and (s_i s_j)^m_ij = 1 are checked on every simple root. Each
    reflection fixes the orthogonal complement of the root span, so a word
    that fixes every simple root is the identity. The result is cached per
    RootSystem object; a failed check raises and caches nothing.
    """
    gens = tuple(WeylElement((i,), rs) for i in range(1, rs.rank + 1))
    for i in range(1, rs.rank + 1):
        for j in range(i, rs.rank + 1):
            s_i, s_j = gens[i - 1], gens[j - 1]
            m = coxeter_order(rs, i, j)
            for alpha in rs.simple_roots:
                v = alpha
                for _ in range(m):
                    v = s_i.act(s_j.act(v))
                if v != alpha:
                    if i == j:
                        raise RuntimeError(f"{rs}: s_{i} is not an involution")
                    raise RuntimeError(f"{rs}: braid relation for (s_{i}, s_{j}) failed")
    return gens

