"""Check workload answers against perfbench.oracles.

check(query, answer, expected) returns a list of problems, empty
when the answer is right. `expected` comes from prepare(), computed once per
run before any round starts. Weights in weylalt's answers are ambient
vectors; they are read in fundamental coordinates through weylalt's simple
roots, whose Gram matrix must match the Dynkin table first.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

import oracles

_ELAPSED = re.compile(r'"elapsed_ms":\s*-?\d+')


def prepare(query) -> dict:
    """Oracle values for one query."""
    rd = oracles.root_data(query.type_label, query.rank)
    if query.lam is None:  # roots
        return {"rd": rd}
    expected = {"rd": rd}
    if query.kind == "diagram":
        expected["diagram"] = oracles.weight_diagram(rd, query.lam)
        expected["dimension"] = oracles.weyl_dimension(rd, query.lam)
        return expected
    zero = (0,) * rd.rank
    walk = oracles.alternation_walk(rd, query.lam, zero)
    expected["walk"] = walk
    top = rd.weight_to_root(query.lam)
    box = oracles.PartitionBox(rd, [int(c) for c in top])
    expected["box"] = box
    expected["height"] = int(sum(top))
    if query.kind == "cli":
        expected["multiplicity"] = oracles.dominant_multiplicities(rd, query.lam)[zero]
    return expected


def _word_of(text: str) -> tuple[int, ...]:
    return () if text == "e" else tuple(int(s[1:]) for s in text.split("*"))


def _word_xi(rd, word, box) -> tuple[int, ...]:
    """xi_w = w(lam+rho) - rho in simple-root coordinates, lam = top of box."""
    lam = rd.root_to_weight(box.top)
    lr = tuple(a + 1 for a in lam)
    image = oracles.apply_word(rd, word, lr)
    diff = rd.weight_to_root([a - 1 for a in image])
    return tuple(int(c) for c in diff)


def _theta_identity(query, rd, box, words) -> list[str]:
    """Kostant: for lam = theta the q-multiplicity of 0 is sum q^exponent;
    for lam = omega1 in B_r it is q^r."""
    theta = rd.root_to_weight(rd.highest_root())
    if query.lam == theta:
        want = [0] * (max(oracles.exponents(rd.type_label, rd.rank)) + 1)
        for e in oracles.exponents(rd.type_label, rd.rank):
            want[e] += 1
    elif rd.type_label == "B" and query.lam == (1,) + (0,) * (rd.rank - 1):
        want = [0] * rd.rank + [1]
    else:
        return []
    total = []
    for word in words:
        total = oracles.poly_add(total, box.coefficients(_word_xi(rd, word, box)),
                                 (-1) ** len(word))
    return [] if total == want else [f"signed P_q sum {total} != {want}"]


def _check_alternation(query, answer, expected) -> list[str]:
    rd = expected["rd"]
    words = [tuple(w) for w in answer["words"]]
    want = [w for w, _ in expected["walk"]]
    problems = []
    if sorted(words) != want:
        problems.append(f"{len(words)} words, weak-order walk finds {len(want)}")
        return problems
    if rd.type_label == "B" and query.lam == (1,) + (0,) * (rd.rank - 1):
        if len(words) != oracles.fibonacci(rd.rank + 1):
            problems.append("B omega1 count is not Fibonacci")
        if sorted(words) != oracles.nonconsecutive_words(2, rd.rank):
            problems.append("B omega1 words are not the nonconsecutive subsets of 2..r")
    theta = rd.root_to_weight(rd.highest_root())
    if rd.type_label == "A" and query.lam == theta and len(words) != oracles.fibonacci(rd.rank):
        problems.append("A theta count is not Fibonacci")
    problems += _theta_identity(query, rd, expected["box"], words)
    return problems


def _fundamental(rd, simple_roots, weight) -> tuple[int, ...]:
    out = []
    for alpha in simple_roots:
        value = 2 * sum(a * b for a, b in zip(weight, alpha)) / sum(a * a for a in alpha)
        if value.denominator != 1:
            raise ValueError(f"{weight} is not integral")
        out.append(int(value))
    return tuple(out)


def _check_simple_roots(rd, simple_roots) -> list[str]:
    gram = tuple(tuple(sum(a * b for a, b in zip(u, v)) for v in simple_roots)
                 for u in simple_roots)
    return [] if gram == rd.gram else ["simple roots do not match the Dynkin table"]


def _check_diagram(query, answer, expected) -> list[str]:
    rd = expected["rd"]
    simple = [[Fraction(c) for c in a] for a in answer["simple_roots"]]
    problems = _check_simple_roots(rd, simple)
    if problems:
        return problems
    got = {}
    for weight, m in answer["weights"]:
        got[_fundamental(rd, simple, [Fraction(c) for c in weight])] = m
    if len(got) != len(answer["weights"]):
        problems.append("a weight is listed twice")
    for mu, m in got.items():
        if got.get(rd.dominant(mu)) != m:
            problems.append(f"m{mu} = {m} differs from its dominant representative")
            break
    if sum(got.values()) != expected["dimension"]:
        problems.append(f"total {sum(got.values())} != Weyl dimension {expected['dimension']}")
    if got != expected["diagram"]:
        problems.append("diagram differs from Freudenthal's")
    return problems


def _check_mult(query, payload, expected) -> list[str]:
    rd = expected["rd"]
    params = payload["parameters"]
    q_mult = params["q_multiplicity"]
    problems = []
    if params["multiplicity"] != expected["multiplicity"]:
        problems.append(f"multiplicity {params['multiplicity']} != "
                        f"Freudenthal {expected['multiplicity']}")
    if sum(q_mult) != params["multiplicity"]:
        problems.append("q_multiplicity at q=1 differs from multiplicity")
    if any(c < 0 for c in q_mult):
        problems.append("q_multiplicity has a negative coefficient")
    if len(q_mult) != expected["height"] + 1 or q_mult[-1] != 1:
        problems.append(f"leading term is not q^{expected['height']}")
    records = payload["records"]
    words = [_word_of(rec["word"]) for rec in records]
    want = [w for w, _ in expected["walk"]]
    if sorted(words) != want or params["alternation_size"] != len(want):
        problems.append(f"alternation set of {len(words)} words, walk finds {len(want)}")
        return problems
    xi_of = dict(expected["walk"])
    total = []
    for word, rec in zip(words, records):
        if rec["length"] != len(word) or rec["sign"] != (-1) ** len(word):
            problems.append(f"length or sign wrong for {rec['word']}")
        if rec["pq"] != expected["box"].coefficients(xi_of[word]):
            problems.append(f"P_q wrong for {rec['word']}")
        total = oracles.poly_add(total, rec["pq"], rec["sign"])
    if total != q_mult:
        problems.append("signed sum of the records differs from q_multiplicity")
    return problems


def _check_roots(payload, expected) -> list[str]:
    rd = expected["rd"]
    records = payload["records"]
    problems = []
    coords = sorted(tuple(rec["alpha_coords"]) for rec in records)
    if coords != sorted(rd.positive_roots):
        problems.append("positive roots differ from the Dynkin table's")
    if any(rec["height"] != sum(rec["alpha_coords"]) for rec in records):
        problems.append("a height is not the sum of the root coordinates")
    heights = Counter(rec["height"] for rec in records)
    exps = oracles.exponents(rd.type_label, rd.rank)
    for k in range(1, max(exps) + 2):
        if heights.get(k, 0) != sum(1 for e in exps if e >= k):
            problems.append(f"{heights.get(k, 0)} roots of height {k}, "
                            f"exponents predict {sum(1 for e in exps if e >= k)}")
    return problems


def _check_cli(query, answer, expected) -> list[str]:
    if answer["exit"] != 0:
        return [f"exit code {answer['exit']}"]
    payload = json.loads(answer["output"])
    if query.argv[0] == "roots":
        return _check_roots(payload, expected)
    return _check_mult(query, payload, expected)


def check(query, answer, expected) -> list[str]:
    if "error" in answer:
        return [answer["error"]]
    try:
        if query.kind == "alternation":
            return _check_alternation(query, answer, expected)
        if query.kind == "diagram":
            return _check_diagram(query, answer, expected)
        return _check_cli(query, answer, expected)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed answer: {type(exc).__name__}: {exc}"]


def same_output(cold, warm) -> bool:
    """CLI outputs of the two passes agree byte for byte apart from elapsed_ms."""
    return _ELAPSED.sub("", cold["output"]) == _ELAPSED.sub("", warm["output"])
