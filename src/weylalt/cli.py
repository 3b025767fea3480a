"""Command line interface.

Subcommands: roots (root system data), weyl-alt (alternation set of a weight
pair), mult (multiplicity and its q-analog), verify (named self-check suites).
Every run prints one report as text or as json. Exit codes: 0 success,
1 at least one verify check failed, 2 bad usage or unparseable input, 3 a
resource limit was exceeded: the walk's node cap or the P_q table budget.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, sub

from . import lattice
from .combinatorics import (binomial, fibonacci, nonconsecutive_subsets,
                            verify_alternating_identity)
from .errors import CapExceeded, TableTooLarge, WeylaltError
from .kostant import QPolynomial, partition_q, partition_q_bruteforce
from .multiplicity import (DEFAULT_CAP, alternating_sum, alternation_set,
                           fibonacci_family, q_multiplicity,
                           q_multiplicity_terms, start_terms, walk_start,
                           weight_diagram)
from .rootsystem import (TYPES, Weight, build, fundamental_weight,
                         is_dominant, sum_of_simple_roots,
                         sum_of_simple_roots_in_fundamental_basis,
                         to_fundamental_coords, weight)
from .weyl import group_order

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

ORACLE_SYSTEMS = (("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                  ("C", 3), ("D", 4), ("G2", 2))
ORACLE_POINTS = 500
ORACLE_MAX_HEIGHT = 12


def _text_value(value) -> str:
    # Fraction and QPolynomial print as str
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return "(" + ", ".join(_text_value(x) for x in value) + ")"
    if isinstance(value, (list, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return "[" + ", ".join(_text_value(x) for x in items) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_text_value(k)}: {_text_value(v)}"
                               for k, v in value.items()) + "}"
    return str(value)


def _json_default(value):
    # the encoder's fallback for what JSON lacks: Fraction and sets print as str
    if isinstance(value, QPolynomial):
        return list(value.coeffs)
    return str(value)


@dataclass
class Check:
    name: str
    expected: str
    actual: str
    passed: bool


def check(name: str, expected, actual) -> Check:
    return Check(name, _text_value(expected), _text_value(actual),
                 expected == actual)


@dataclass
class RunReport:
    command: str
    parameters: dict
    records: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    elapsed_ms: int = 0

    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"command: {self.command}", "parameters:"]
        for key, value in self.parameters.items():
            lines.append(f"  {key}: {_text_value(value)}")
        if self.records:
            lines.append(f"records ({len(self.records)}):")
            headers = list(self.records[0])
            rows = [[_text_value(rec[h]) for h in headers] for rec in self.records]
            lines.extend("  " + line for line in _table(headers, rows))
        if self.checks:
            passed = sum(c.passed for c in self.checks)
            lines.append(f"checks ({len(self.checks)}): "
                         f"{passed} passed, {len(self.checks) - passed} failed")
            rows = [[c.name, c.expected, c.actual,
                     "PASS" if c.passed else "FAIL"] for c in self.checks]
            lines.extend("  " + line
                         for line in _table(["name", "expected", "actual", "result"], rows))
        lines.append(f"elapsed_ms: {self.elapsed_ms}")
        return "\n".join(lines)

    def to_json(self) -> str:
        import json

        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "records": self.records,
            "checks": [{"name": c.name, "expected": c.expected,
                        "actual": c.actual, "pass": c.passed}
                       for c in self.checks],
            "ok": self.ok(),
            "elapsed_ms": self.elapsed_ms,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          default=_json_default)

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_text()


def _table(headers, rows) -> list:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return out


# weight expressions: terms joined by + or -, each term one of
#   0, w<i>, highest-root, sum-simple, eps:<c1>,...,<cn>  (n = ambient dim)
_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)"
    r"(?P<body>w(?P<index>\d+)"
    r"|highest-root"
    r"|sum-simple"
    r"|eps:(?P<coords>-?\d+(?:/\d+)?(?:,-?\d+(?:/\d+)?)*)"
    r"|0)"
)


def _named_term(m: re.Match, rs) -> tuple[int, ...]:
    """Fundamental coordinates of a named term, all integral (Humphreys 13):
    a unit vector, C theta, the row sums of C, or zeros."""
    body = m.group("body")
    if body == "highest-root":
        theta = max(rs.positive_root_alpha_coords, key=sum)
        return tuple(sum(map(mul, row, theta)) for row in rs.cartan_matrix)
    if body == "sum-simple":
        return tuple(map(sum, rs.cartan_matrix))
    if body == "0":
        return (0,) * rs.rank
    i = int(m.group("index"))
    if not 1 <= i <= rs.rank:
        raise ValueError(f"fundamental weight index {i} out of range for {rs}")
    return tuple(int(j == i) for j in range(1, rs.rank + 1))


def parse_weight(text: str, rs) -> Weight:
    """Evaluate a weight expression in the fundamental coordinates of rs.

    Named terms add integers, in the root span. The eps: terms are summed in
    ambient coordinates and converted once, by rootsystem.weight, with off.
    """
    squeezed = "".join(str(text).split())
    if not squeezed:
        raise ValueError("empty weight expression")
    named = (0,) * rs.rank
    eps = None
    pos = 0
    while pos < len(squeezed):
        m = _TERM_RE.match(squeezed, pos)
        if m is None:
            raise ValueError(f"cannot parse weight expression at {squeezed[pos:]!r}")
        if pos > 0 and not m.group("sign"):
            raise ValueError(f"missing + or - before {squeezed[pos:]!r}")
        combine = sub if m.group("sign") == "-" else add
        if m.group("coords") is None:
            named = tuple(map(combine, named, _named_term(m, rs)))
        else:
            try:
                parts = [Fraction(p) for p in m.group("coords").split(",")]
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {m.group('body')!r}") from None
            if len(parts) != rs.ambient_dim:
                raise ValueError(f"eps: needs {rs.ambient_dim} coordinates "
                                 f"for {rs}, got {len(parts)}")
            eps = tuple(map(combine, eps or lattice.zeros(rs.ambient_dim), parts))
        pos = m.end()
    if eps is None:
        return Weight(named, 1)
    coords, d, off = weight(eps, rs)
    return Weight(tuple(d * c + e for c, e in zip(named, coords)), d, off)


def _resolve_cap(args) -> int:
    if args.cap <= 0:
        raise ValueError(f"cap must be positive, got {args.cap}")
    return args.cap


def cmd_roots(args) -> RunReport:
    # coordinates go out as the strings both reports print, so the JSON
    # encoder never falls back to _json_default for them
    rs = build(args.type, args.rank)
    records = [
        {"index": i + 1,
         "height": sum(rs.positive_root_alpha_coords[i]),
         "eps": tuple(map(str, root)),
         "alpha_coords": rs.positive_root_alpha_coords[i]}
        for i, root in enumerate(rs.positive_roots)
    ]
    parameters = {
        "type": rs.type_label,
        "rank": rs.rank,
        "ambient_dim": rs.ambient_dim,
        "group_order": group_order(rs),
        "positive_roots": len(rs.positive_roots),
        "cartan_matrix": rs.cartan_matrix,
        "fundamental_weights": [tuple(map(str, w)) for w in rs.fundamental_weights],
        "rho": tuple(map(str, rs.rho)),
    }
    return RunReport("roots", parameters, records=records)


def _alternation_terms(args) -> tuple[dict, list, list[dict]]:
    """The parameters, the (element, P_q) terms and their records of the
    alternation set of (lam, mu): what weyl-alt and mult both report."""
    rs = build(args.type, args.rank)
    lam = parse_weight(args.lam, rs)
    mu = parse_weight(args.mu, rs)
    cap = _resolve_cap(args)
    terms = start_terms(walk_start(lam, mu, rs), rs, cap)
    records = [
        {"word": str(element),
         "length": element.length,
         "sign": 1 if element.length % 2 == 0 else -1,
         "pq": pq}
        for element, pq in terms
    ]
    parameters = {
        "type": rs.type_label,
        "rank": rs.rank,
        "lam": args.lam,
        "mu": args.mu,
        "cap": cap,
    }
    return parameters, terms, records


def cmd_weyl_alt(args) -> RunReport:
    parameters, terms, records = _alternation_terms(args)
    parameters["size"] = len(terms)
    return RunReport("weyl-alt", parameters, records=records)


def cmd_mult(args) -> RunReport:
    parameters, terms, records = _alternation_terms(args)
    total = alternating_sum(terms)
    parameters["alternation_size"] = len(terms)
    parameters["multiplicity"] = total.evaluate(1)
    parameters["q_multiplicity"] = total
    return RunReport("mult", parameters, records=records)


# the fibonacci, qmult, charB and nonzero-mu suites sweep ranks 2..max_rank
SMALLEST_RANK = 2


def _type_b_sweep(max_rank: int):
    """(r, B_r, its zero weight, omega_1) for r from SMALLEST_RANK to max_rank."""
    for r in range(SMALLEST_RANK, max_rank + 1):
        rs = build("B", r)
        yield r, rs, lattice.zeros(rs.ambient_dim), fundamental_weight(rs, 1)


def suite_fibonacci(max_rank: int, cap: int, seed: int) -> list:
    """The paper's families at (sum of simple roots, 0): B ranks, then A
    ranks, each against fibonacci_family, its count against F_(m+1) and its
    (k, s) histogram against C(r-1-k-s, k); a word outside the family fails
    its P_q check."""
    checks = []
    for label in ("B", "A"):
        for r in range(SMALLEST_RANK, max_rank + 1):
            rs = build(label, r)
            m = r if label == "B" else r - 1  # the words use s_2..s_m
            terms = q_multiplicity_terms(sum_of_simple_roots(rs), lattice.zeros(rs.ambient_dim),
                                         rs, cap)
            family = fibonacci_family(label, r)
            checks.append(check(f"{label}{r} count", fibonacci(m + 1), len(terms)))
            checks.append(check(f"{label}{r} words", sorted(family),
                                sorted(element.word for element, _ in terms)))
            histogram = {}
            for element, pq in terms:
                has_sr = r in element.word
                key = (len(element.word) - has_sr, has_sr)
                histogram[key] = histogram.get(key, 0) + 1
                checks.append(check(f"{label}{r} pq {element}", family.get(element.word), pq))
            # a count is nonzero for k up to about r/2 and zero from there on;
            # only B's words reach s_r
            expected_histogram = {(k, has_sr): count for has_sr in {False, m == r}
                                  for k in range(r)
                                  if (count := binomial(r - 1 - k - has_sr, k))}
            checks.append(check(f"{label}{r} histogram", sorted(expected_histogram.items()),
                                sorted(histogram.items())))
    return checks


def suite_qmult(max_rank: int, cap: int, seed: int) -> list:
    checks = []
    for r, rs, zero, w1 in _type_b_sweep(max_rank):
        mq = q_multiplicity(w1, zero, rs, cap)
        checks.append(check(f"B{r} q-multiplicity", QPolynomial.monomial(r), mq))
        checks.append(check(f"B{r} multiplicity", 1, mq.evaluate(1)))
    return checks


def suite_char_b(max_rank: int, cap: int, seed: int) -> list:
    checks = []
    for r, rs, zero, w1 in _type_b_sweep(max_rank):
        entries = weight_diagram(w1, rs, cap)
        weights = {e.weight for e in entries}
        # omega_1 = e_1, whose orbit is every +-e_i
        expected = {zero} | {lattice.vector(sign * (k == i) for k in range(r))
                             for i in range(r) for sign in (1, -1)}
        checks.append(check(f"B{r} diagram weights", sorted(expected), sorted(weights)))
        checks.append(check(f"B{r} diagram size", 2 * r + 1, len(entries)))
        checks.append(check(f"B{r} diagram multiplicities", {1},
                            {e.multiplicity for e in entries}))
    return checks


def type_b_weights_below_one(r: int) -> list[lattice.Vector]:
    """B_r's dominant weights with first coordinate at most 1, sorted: 0, omega_r,
    then (1^k, 0^(r-k)), which is omega_k for k < r and 2 omega_r for k = r."""
    return [lattice.zeros(r), (Fraction(1, 2),) * r] + [
        lattice.vector((1,) * k + (0,) * (r - k)) for k in range(1, r + 1)]


def suite_nonzero_mu(max_rank: int, cap: int, seed: int) -> list:
    checks = []
    for r, rs, zero, w1 in _type_b_sweep(max_rank):
        for mu in type_b_weights_below_one(r):
            aset = alternation_set(w1, mu, rs, cap)
            label = f"B{r} mu={_text_value(to_fundamental_coords(mu, rs))}"
            if mu == zero:
                checks.append(check(f"{label} count", fibonacci(r + 1), len(aset)))
            elif mu == w1:
                checks.append(check(f"{label} count", 1, len(aset)))
                checks.append(check(f"{label} words", [()], aset.words()))
            else:
                checks.append(check(f"{label} count", 0, len(aset)))
    return checks


def _expected_sum_simple_fc(label: str, r: int) -> tuple:
    if label == "A":
        return (2,) if r == 1 else (1,) + (0,) * (r - 2) + (1,)
    if label == "B":
        return (1,) + (0,) * (r - 1)
    if label == "C":
        return (1,) + (0,) * (r - 3) + (-1, 1)
    if label == "D":
        return (1,) + (0,) * (r - 4) + (-1, 1, 1)
    return {"G2": (-1, 1),
            "F4": (1, 0, -1, 1),
            "E6": (1, 1, 0, -1, 0, 1),
            "E7": (1, 1, 0, -1, 0, 0, 1),
            "E8": (1, 1, 0, -1, 0, 0, 0, 1)}[label]


def suite_dominance(max_rank: int, cap: int, seed: int) -> list:
    # A-D from their smallest rank up to max_rank, then G2-E8 at their own
    systems = [(label, r) for label, (smallest, _, _) in TYPES.items()
               for r in ([smallest] if len(label) > 1 else range(smallest, max_rank + 1))]
    checks = []
    for label, r in systems:
        rs = build(label, r)
        fc = sum_of_simple_roots_in_fundamental_basis(rs)
        expected = tuple(Fraction(c) for c in _expected_sum_simple_fc(label, r))
        checks.append(check(f"{rs} sum-simple coords", expected, fc))
        checks.append(check(f"{rs} sum-simple dominant", label in ("A", "B"),
                            is_dominant(sum_of_simple_roots(rs), rs)))
    return checks


def suite_identities(max_rank: int, cap: int, seed: int) -> list:
    checks = []
    for r in range(1, max_rank + 1):
        checks.append(check(f"alternating identity r={r}", True,
                            verify_alternating_identity(r)))
    for m in range(0, 16):
        count = sum(1 for _ in nonconsecutive_subsets(1, m))
        checks.append(check(f"nonconsecutive subsets of 1..{m}",
                            fibonacci(m + 2), count))
    return checks


def suite_oracle(max_rank: int, cap: int, seed: int) -> list:
    rng = random.Random(seed)
    totals = {key: 0 for key in ORACLE_SYSTEMS}
    matches = {key: 0 for key in ORACLE_SYSTEMS}
    for i in range(ORACLE_POINTS):
        label, rank = ORACLE_SYSTEMS[i % len(ORACLE_SYSTEMS)]
        rs = build(label, rank)
        remaining = rng.randint(0, ORACLE_MAX_HEIGHT)
        coords = []
        for _ in range(rs.rank - 1):
            c = rng.randint(0, remaining)
            coords.append(c)
            remaining -= c
        coords.append(remaining)
        rng.shuffle(coords)
        xi = lattice.zeros(rs.ambient_dim)
        for c, alpha in zip(coords, rs.simple_roots):
            xi = lattice.add(xi, lattice.scale(c, alpha))
        totals[(label, rank)] += 1
        if partition_q(xi, rs) == partition_q_bruteforce(xi, rs):
            matches[(label, rank)] += 1
    checks = []
    for key in ORACLE_SYSTEMS:
        label, rank = key
        checks.append(check(f"{build(label, rank)} partition oracle",
                            f"{totals[key]} matches", f"{matches[key]} matches"))
    return checks


SUITES = {
    "fibonacci": (suite_fibonacci, 6),
    "qmult": (suite_qmult, 6),
    "charB": (suite_char_b, 4),
    "nonzero-mu": (suite_nonzero_mu, 5),
    "dominance": (suite_dominance, 8),
    "identities": (suite_identities, 20),
    "oracle": (suite_oracle, 0),
}


def cmd_verify(args) -> RunReport:
    cap = _resolve_cap(args)
    if args.max_rank is not None and args.max_rank < 0:
        raise ValueError(f"--max-rank must be nonnegative, got {args.max_rank}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    ranks = {}
    for name in names:
        fn, default_rank = SUITES[name]
        max_rank = args.max_rank if args.max_rank is not None else default_rank
        ranks[name] = max_rank
        suite_checks = fn(max_rank, cap, args.seed)
        if not suite_checks:
            raise ValueError(f"suite {name} runs no check at --max-rank {max_rank}; "
                             f"its smallest rank is {SMALLEST_RANK}")
        checks.extend(suite_checks)
    parameters = {
        "suites": names,
        "max_rank": {name: ranks[name] for name in names},
        "cap": cap,
        "seed": args.seed,
    }
    return RunReport("verify", parameters, checks=checks)


def _add_common(sub, with_cap=True):
    sub.add_argument("--format", choices=("text", "json"),
                     default="text", help="output format")
    if with_cap:
        sub.add_argument("--cap", type=int, default=DEFAULT_CAP,
                         help="most nodes one alternation-set walk may visit "
                              f"(default {DEFAULT_CAP})")


def build_parser() -> argparse.ArgumentParser:
    """The parser for the current SUITES, built once per set of suite names."""
    return _parser(tuple(SUITES))


@functools.lru_cache(maxsize=1)
def _parser(suites: tuple) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylalt",
        description="Weyl alternation sets and Kostant weight multiplicities "
                    "in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="print root system data")
    p_roots.add_argument("type", help="A, B, C, D, G2, F4, E6, E7 or E8")
    p_roots.add_argument("rank", type=int)
    _add_common(p_roots, with_cap=False)
    p_roots.set_defaults(handler=cmd_roots)

    for name, handler, description in (
            ("weyl-alt", cmd_weyl_alt, "Weyl alternation set of (lam, mu)"),
            ("mult", cmd_mult, "multiplicity of mu in L(lam) and its q-analog")):
        p_terms = sub.add_parser(name, help=description)
        p_terms.add_argument("type")
        p_terms.add_argument("rank", type=int)
        p_terms.add_argument("--lam", required=True, help="weight expression")
        p_terms.add_argument("--mu", default="0", help="weight expression (default 0)")
        _add_common(p_terms)
        p_terms.set_defaults(handler=handler)

    p_verify = sub.add_parser("verify", help="run a named self-check suite")
    p_verify.add_argument("suite", choices=sorted(suites) + ["all"])
    p_verify.add_argument("--max-rank", type=int, default=None,
                          help="largest rank the suite walks (suite-specific default)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for the randomized oracle suite")
    _add_common(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    start = time.perf_counter()
    try:
        report = args.handler(args)
    except (CapExceeded, TableTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (WeylaltError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    try:
        print(report.render(args.format), flush=True)
    except BrokenPipeError:
        # The reader is gone. Point fd 1 at devnull so that the interpreter's
        # own flush at exit does not raise again; the run's code still stands.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK if report.ok() else EXIT_CHECK_FAILED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
