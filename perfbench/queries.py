"""The fixed query list of each workload.

Weights are given in fundamental-weight coordinates (Bourbaki numbering);
theta is the highest root, rho the sum of the fundamental weights. The
benchmark's tests check every weight labelled theta against the highest
root that perfbench.oracles derives from the Dynkin table.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Query:
    name: str
    kind: str  # "alternation", "diagram" or "cli"
    type_label: str
    rank: int
    lam: tuple[int, ...] | None  # None for `roots`, which takes no weight
    argv: tuple[str, ...] = ()   # command line, for "cli" only


@dataclass(frozen=True)
class Workload:
    name: str
    queries: tuple[Query, ...]

    def systems(self) -> list[tuple[str, int]]:
        """Root systems the workload names, in first-use order."""
        seen = []
        for q in self.queries:
            if (q.type_label, q.rank) not in seen:
                seen.append((q.type_label, q.rank))
        return seen


def _unit(rank: int, i: int, k: int = 1) -> tuple[int, ...]:
    return tuple(k if j == i else 0 for j in range(1, rank + 1))


def _alt(name: str, type_label: str, rank: int, lam: tuple[int, ...]) -> Query:
    return Query(f"alternation {name}", "alternation", type_label, rank, lam)


def _diagram(name: str, type_label: str, rank: int, lam: tuple[int, ...]) -> Query:
    return Query(f"diagram {name}", "diagram", type_label, rank, lam)


def _mult(type_label: str, rank: int, k: int, lam: tuple[int, ...]) -> Query:
    expr = "+".join(["highest-root"] * k)
    return Query(f"mult {type_label}{rank} {k}theta", "cli", type_label, rank, lam,
                 ("mult", type_label, str(rank), "--lam", expr, "--format", "json"))


# alternation_set with cap = |W| (B8 is above the default cap), then
# weight_diagram: the survivor search as a few large queries and as
# hundreds of short multiplicity calls.
SURVIVOR = Workload("survivor", (
    _alt("B8 theta", "B", 8, _unit(8, 2)),
    _alt("B8 omega1", "B", 8, _unit(8, 1)),
    _alt("A8 theta", "A", 8, (1, 0, 0, 0, 0, 0, 0, 1)),
    _alt("C4 theta", "C", 4, _unit(4, 1, 2)),
    _alt("D4 theta", "D", 4, _unit(4, 2)),
    _alt("G2 theta", "G2", 2, _unit(2, 2)),
    _diagram("C3 theta", "C", 3, _unit(3, 1, 2)),
    _diagram("B3 rho", "B", 3, (1, 1, 1)),
    _diagram("A4 theta", "A", 4, (1, 0, 0, 1)),
    _diagram("G2 3omega1", "G2", 2, _unit(2, 1, 3)),
))

QMULT_CLI = Workload("qmult_cli", (
    _mult("B", 4, 6, _unit(4, 2, 6)),
    _mult("A", 5, 6, (6, 0, 0, 0, 6)),
    _mult("C", 4, 2, _unit(4, 1, 4)),
    Query("roots E8", "cli", "E8", 8, None, ("roots", "E8", "8", "--format", "json")),
))

WORKLOADS = {w.name: w for w in (SURVIVOR, QMULT_CLI)}
