"""Command line behavior: parsing, formats, exit codes."""

import importlib
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import weylalt
from weylalt import cli, kostant, lattice
from weylalt.cli import (EXIT_CHECK_FAILED, EXIT_LIMIT, EXIT_OK, EXIT_USAGE,
                         Check, RunReport, main, parse_weight)
from weylalt.errors import NotInRootSpan
from weylalt.kostant import QPolynomial
from weylalt.multiplicity import q_multiplicity_terms
from weylalt.rootsystem import (build, fundamental_weight, highest_root,
                                is_dominant, to_simple_root_coords)
from weylalt.weyl import group_order


# === weight expressions ===

# expected: the ambient vector the expression names, then its fundamental
# coordinates over one denominator, and that denominator
@pytest.mark.parametrize("text, expected", [
    ("w1", ((1, 0, 0), (1, 0, 0), 1)),
    ("w1+w2", ((2, 1, 0), (1, 1, 0), 1)),
    ("w1-w3", (("1/2", "-1/2", "-1/2"), (1, 0, -1), 1)),
    ("highest-root", ((1, 1, 0), (0, 1, 0), 1)),
    ("sum-simple", ((1, 0, 0), (1, 0, 0), 1)),
    ("0", ((0, 0, 0), (0, 0, 0), 1)),
    ("w1+0", ((1, 0, 0), (1, 0, 0), 1)),
    ("-w1", ((-1, 0, 0), (-1, 0, 0), 1)),
    ("eps:1/2,-1/2,0", (("1/2", "-1/2", 0), (2, -1, 0), 2)),
    ("eps:1,0,0-w1", ((0, 0, 0), (0, 0, 0), 1)),
    ("w2 - w1", ((0, 1, 0), (-1, 1, 0), 1)),
    ("highest-root-w2", ((0, 0, 0), (0, 0, 0), 1)),
])
def test_parse_weight(text, expected):
    # integer fundamental coordinates over one denominator; read back in the
    # fundamental weights they give the ambient vector the expression names
    rs = build("B", 3)
    ambient_expected, coords, denominator = expected
    weight = parse_weight(text, rs)
    assert (weight.coords, weight.denominator) == (coords, denominator)
    assert all(type(c) is int for c in weight.coords + (weight.denominator,))
    ambient = lattice.zeros(rs.ambient_dim)
    for c, omega in zip(weight.coords, rs.fundamental_weights):
        ambient = lattice.add(ambient, lattice.scale(Fraction(c, denominator), omega))
    assert ambient == lattice.vector(ambient_expected)
    # B3's roots span its ambient space, so no weight has a part off it
    assert weight.off is None


REJECTED = {
    "": "empty weight expression",
    "w0": "fundamental weight index 0 out of range for B3",
    "w4": "fundamental weight index 4 out of range for B3",
    "q": "cannot parse weight expression at 'q'",
    "w1w2": "missing + or - before 'w2'",
    "2w1": "cannot parse weight expression at '2w1'",
    "eps:1,2": "eps: needs 3 coordinates for B3, got 2",
    "eps:1,,2": "eps: needs 3 coordinates for B3, got 1",
    "eps:": "cannot parse weight expression at 'eps:'",
    "w1+": "cannot parse weight expression at '+'",
    "+-w1": "cannot parse weight expression at '+-w1'",
    "eps:1,0,0.5": "cannot parse weight expression at '.5'",
    "eps:1/0,0,0": "zero denominator in 'eps:1/0,0,0'",
}


@pytest.mark.parametrize("text", list(REJECTED))
def test_parse_weight_rejects(text, capsys):
    # each message as the parser gave it when it returned ambient vectors
    rs = build("B", 3)
    message = REJECTED[text]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_weight(text, rs)
    assert main(["mult", "B", "3", f"--lam={text}"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


# === report rendering ===

def test_report_ok_and_text():
    report = RunReport("demo", {"k": 1},
                       checks=[Check("a", "1", "1", True),
                               Check("b", "2", "3", False)])
    assert not report.ok()
    text = report.to_text()
    assert "PASS" in text and "FAIL" in text
    assert "1 passed, 1 failed" in text


def _json_value(value):
    # the slow oracle of to_json: every value made JSON-ready in Python
    # before json.dumps sees it; Fraction and sets print as str
    if isinstance(value, kostant.QPolynomial):
        return list(value.coeffs)
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_json_value(x) for x in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return str(value)


def _oracle_json(report):
    payload = {
        "command": report.command,
        "parameters": {k: _json_value(v) for k, v in report.parameters.items()},
        "records": [{k: _json_value(v) for k, v in rec.items()}
                    for rec in report.records],
        "checks": [{"name": c.name, "expected": c.expected,
                    "actual": c.actual, "pass": c.passed}
                   for c in report.checks],
        "ok": report.ok(),
        "elapsed_ms": report.elapsed_ms,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_to_json_matches_oracle_on_every_value_kind():
    kinds = {
        "int": -7,
        "bool": True,
        "str": "w1+w2",
        "fraction_integral": Fraction(4, 2),
        "fraction": Fraction(-3, 2),
        "tuple": (Fraction(1, 2), 0, Fraction(-5)),
        "list": [1, (2, Fraction(1, 3)), ["x", False]],
        "nested_dict": {"b": {"z": Fraction(7, 4), "a": [kostant.QPolynomial((1, 2))]},
                        "a": (True, 3)},
        "set": {3, 1, 2},
        "frozenset": frozenset({Fraction(1, 2)}),
        "pq_zero": kostant.QPolynomial.zero(),
        "pq_negative": kostant.QPolynomial((0, -1, 0, 2, -3)),
    }
    report = RunReport("demo", dict(kinds),
                       records=[dict(kinds), {"pq": kostant.QPolynomial.one()}],
                       checks=[Check("a", "1", "1", True),
                               Check("b", "(1/2, 0)", "[]", False)],
                       elapsed_ms=12)
    assert report.to_json() == _oracle_json(report)
    payload = json.loads(report.to_json())["parameters"]
    assert payload["fraction_integral"] == "2"
    assert payload["fraction"] == "-3/2"
    assert payload["pq_zero"] == []
    assert payload["pq_negative"] == [0, -1, 0, 2, -3]
    assert payload["set"] == "{1, 2, 3}"


@pytest.mark.parametrize("argv", [
    ["roots", "E8", "8"],
    ["mult", "B", "4", "--lam", "highest-root", "--mu", "w1"],
    ["weyl-alt", "C", "3", "--lam", "w1+w2", "--mu", "w1"],
    ["verify", "identities", "--max-rank", "4"],
], ids=["roots-E8", "mult-B4", "weyl-alt-C3", "verify"])
def test_to_json_matches_oracle_on_commands(argv):
    args = cli.build_parser().parse_args(argv)
    report = args.handler(args)
    assert report.to_json() == _oracle_json(report)


def test_json_round_trip_is_canonical(capsys):
    code = main(["mult", "B", "3", "--lam", "w1", "--format", "json"])
    out = capsys.readouterr().out.strip()
    assert code == EXIT_OK
    payload = json.loads(out)
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out
    assert payload["parameters"]["multiplicity"] == 1
    assert payload["parameters"]["q_multiplicity"] == [0, 0, 0, 1]
    words = [rec["word"] for rec in payload["records"]]
    assert words == ["e", "s2", "s3"]


def test_text_renders_dict_parameters(capsys):
    code = main(["verify", "identities", "--max-rank", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "  max_rank: {identities: 3}\n" in out


def test_weyl_alt_and_mult_share_records(capsys):
    argv = ["C", "3", "--lam", "w1+w2", "--mu", "w1", "--format", "json"]
    payloads = {}
    for command in ("weyl-alt", "mult"):
        assert main([command] + argv) == EXIT_OK
        payloads[command] = json.loads(capsys.readouterr().out)
    alt, mult = payloads["weyl-alt"], payloads["mult"]
    assert alt["records"]
    assert alt["records"] == mult["records"]
    assert alt["parameters"]["size"] == mult["parameters"]["alternation_size"]


@pytest.mark.parametrize("argv, records", [
    # lambda - mu = 0 and alpha_1 are in the span, though lambda and mu are not
    (["mult", "A", "2", "--lam", "eps:1,0,0", "--mu", "eps:1,0,0"],
     [("e", [1])]),
    (["weyl-alt", "A", "2", "--lam", "eps:1,0,0", "--mu", "eps:0,1,0"],
     [("e", [0, 1])]),
    # lambda - mu = e_1 is off the trace-zero span of A2
    (["mult", "A", "2", "--lam", "eps:1,0,0"], []),
    # theta + (1, 1, 1): its coroot pairings are those of theta, yet it is off
    # the span, so the integral xi_e of theta must not give a term
    (["weyl-alt", "A", "2", "--lam", "eps:2,1,0"], []),
], ids=["mult-same-off-span-part", "weyl-alt-difference-in-span",
        "mult-difference-off-span", "weyl-alt-off-span-with-integral-pairings"])
def test_eps_terms_vanish_exactly_when_lam_minus_mu_is_off_the_span(
        argv, records, capsys):
    assert main(argv + ["--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [(r["word"], r["pq"]) for r in payload["records"]] == records
    parameters = payload["parameters"]
    size = parameters.get("size", parameters.get("alternation_size"))
    assert size == len(records)
    if argv[0] == "mult":
        assert parameters["multiplicity"] == len(records)


def test_weyl_alt_text(capsys):
    code = main(["weyl-alt", "B", "2", "--lam", "w1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "size: 2" in out
    assert "s2" in out


# === exit codes ===

def test_exit_usage_on_bad_rank(capsys):
    assert main(["roots", "B", "1"]) == EXIT_USAGE
    assert "rank" in capsys.readouterr().err


def test_exit_usage_on_bad_weight(capsys):
    assert main(["weyl-alt", "B", "3", "--lam", "w9"]) == EXIT_USAGE
    assert main(["weyl-alt", "B", "3", "--lam", "eps:1,2"]) == EXIT_USAGE
    assert main(["mult", "A", "2", "--lam", "eps:1/0,0,0"]) == EXIT_USAGE
    capsys.readouterr()


def test_exit_usage_on_missing_subcommand(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "weylalt" in capsys.readouterr().out


def test_exit_cap(capsys):
    # the cap counts the walk's nodes: B3 at w1 visits 3, and C8 at 2 theta
    # visits 1,355, far below the default cap though |W(C8)| is 10,321,920
    assert main(["mult", "B", "3", "--lam", "w1", "--cap", "2"]) == EXIT_LIMIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "node cap 2" in captured.err
    assert main(["mult", "C", "8", "--lam", "highest-root+highest-root",
                 "--format", "json"]) == EXIT_OK
    parameters = json.loads(capsys.readouterr().out)["parameters"]
    assert parameters["cap"] == 2_000_000
    assert (parameters["alternation_size"], parameters["multiplicity"]) == (1355, 36)


def test_table_budget_is_checked_before_the_walk(monkeypatch, capsys):
    # E8 at 3 theta needs at least 1.41 GB of table, so the run stops on the
    # walk start's box and never enters the walk
    def no_walk(*args):
        raise AssertionError("the walk ran before the table budget was checked")

    monkeypatch.setattr(importlib.import_module("weylalt.multiplicity"),
                        "_survivor_terms", no_walk)
    lam = "+".join(["highest-root"] * 3)
    assert main(["weyl-alt", "E8", "8", "--lam", lam, "--cap", "696729600"]) == EXIT_LIMIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"budget of {kostant.TABLE_BUDGET_BYTES:,} bytes" in captured.err


def test_exit_table_budget(monkeypatch, capsys):
    # lam = 1000 theta asks for the box (1000, 1000, 1000): 1,003,003,001
    # cells, far over the budget, so the run must stop before any table fill
    def no_fill(layout, cells=None):
        raise AssertionError(f"an over-budget table over {layout.top} was built")

    monkeypatch.setattr(kostant, "BoxTable", no_fill)
    assert main(["mult", "A", "3", "--lam", "eps:1000,0,0,-1000"]) == EXIT_LIMIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[1000, 1000, 1000]" in captured.err
    assert "1,003,003,001 cells, at least" in captured.err
    assert f"budget of {kostant.TABLE_BUDGET_BYTES:,} bytes" in captured.err


def test_exit_check_failed(monkeypatch, capsys):
    def failing_suite(max_rank, cap, seed):
        return [Check("forced", "1", "2", False)]

    monkeypatch.setitem(cli.SUITES, "forced-failure", (failing_suite, 0))
    assert main(["verify", "forced-failure"]) == EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


def _child_env(**extra):
    # a child python that imports this checkout's weylalt
    src = str(Path(weylalt.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, **extra,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


RUN_MAIN = "import sys; from weylalt import cli; sys.exit(cli.main({argv!r}))"
FAILING_VERIFY = """import sys
from weylalt import cli
cli.SUITES["forced-failure"] = (
    lambda max_rank, cap, seed: [cli.Check("forced", "1", "2", False)], 0)
sys.exit(cli.main(["verify", "forced-failure"]))
"""


@pytest.mark.parametrize("code, expected", [
    # more than a pipe buffer: print itself meets the closed pipe
    (RUN_MAIN.format(argv=["roots", "E8", "8"]), EXIT_OK),
    # a few lines: only the flush meets it
    (RUN_MAIN.format(argv=["roots", "A", "2"]), EXIT_OK),
    (FAILING_VERIFY, EXIT_CHECK_FAILED),
], ids=["roots-E8", "roots-A2", "failed-verify"])
def test_closed_reader_keeps_exit_code(code, expected):
    # the read end is closed before the child starts, so its output goes to
    # a pipe that has no reader, as in `weylalt roots E8 8 | true`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _child_env()
    try:
        child = subprocess.run([sys.executable, "-c", code], stdout=write_end,
                               stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert child.stderr == b""
    assert child.returncode == expected


# === one parser per process ===

def test_parser_is_built_once(monkeypatch, capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "forced-failure"])
    capsys.readouterr()
    monkeypatch.setitem(cli.SUITES, "forced-failure", (None, 0))
    fresh = cli.build_parser()
    assert fresh is not parser
    assert cli.build_parser() is fresh
    assert fresh.parse_args(["verify", "forced-failure"]).suite == "forced-failure"


def _without_elapsed(text):
    return re.sub(r'elapsed_ms"?: ?\d+', "elapsed_ms", text)


def _fresh_process(argv):
    child = subprocess.run([sys.executable, "-m", "weylalt.cli", *argv],
                           capture_output=True, text=True,
                           env=_child_env(COLUMNS="80"), timeout=120)
    return child.returncode, _without_elapsed(child.stdout), child.stderr


@pytest.mark.parametrize("runs", [
    [(["mult", "B", "3", "--lam", "w1", "--cap", "2"], EXIT_LIMIT),
     (["mult", "B", "3", "--lam", "w1", "--format", "json"], EXIT_OK)],
    [(["verify", "identities", "--max-rank", "3"], EXIT_OK),
     (["verify", "identities"], EXIT_OK)],
    [(["--help"], EXIT_OK),
     (["roots", "A", "2", "--no-such-flag"], EXIT_USAGE),
     (["roots", "A", "2"], EXIT_OK)],
], ids=["cap-then-default", "max-rank-then-default", "help-bad-flag-roots"])
def test_reused_parser_keeps_no_state(runs, monkeypatch, capsys):
    # each run in this process prints what a fresh process prints
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli.build_parser()
    for argv, expected in runs:
        code = main(argv)
        captured = capsys.readouterr()
        assert cli.build_parser() is parser
        assert code == expected
        assert (code, _without_elapsed(captured.out), captured.err) == _fresh_process(argv)


# === cap resolution ===

def test_cap_ignores_environment(monkeypatch, capsys):
    # --cap is the cap's only source; the environment does not change output
    monkeypatch.setenv("WEYLALT_CAP", "10")
    assert main(["weyl-alt", "B", "3", "--lam", "w1", "--format", "json"]) == EXIT_OK
    assert '"cap":2000000' in capsys.readouterr().out


def test_cap_must_be_positive(capsys):
    assert main(["weyl-alt", "B", "3", "--lam", "w1", "--cap", "0"]) == EXIT_USAGE
    capsys.readouterr()


def test_max_rank_must_be_nonnegative(capsys):
    assert main(["verify", "fibonacci", "--max-rank", "-3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-rank must be nonnegative, got -3" in captured.err


@pytest.mark.parametrize("suite", ["fibonacci", "qmult", "charB", "nonzero-mu", "all"])
@pytest.mark.parametrize("max_rank", ["0", "1"])
def test_max_rank_below_smallest_rank_is_usage_error(suite, max_rank, capsys):
    # these suites sweep ranks 2..max_rank; an empty sweep must not pass silently
    assert main(["verify", suite, "--max-rank", max_rank]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    name = "fibonacci" if suite == "all" else suite
    assert (f"error: suite {name} runs no check at --max-rank {max_rank}; "
            "its smallest rank is 2") in captured.err


# === console script ===

@pytest.mark.parametrize("argv, expected", [
    (["verify", "identities", "--max-rank", "2"], EXIT_OK),
    (["roots", "B", "1"], EXIT_USAGE),
], ids=["ok", "usage"])
def test_entry_exits_with_main_code(argv, expected, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["weylalt"] + argv)
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == expected
    capsys.readouterr()


# === removed flags ===

def test_cache_file_flag_is_gone(tmp_path, capsys):
    assert main(["mult", "B", "3", "--lam", "w1",
                 "--cache-file", str(tmp_path / "b3.json")]) == EXIT_USAGE
    capsys.readouterr()
    assert not (tmp_path / "b3.json").exists()


def test_csv_format_is_gone(capsys):
    assert main(["mult", "B", "3", "--lam", "w1", "--format", "csv"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


# === determinism ===

def test_mult_output_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code = main(["mult", "B", "4", "--lam", "highest-root",
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        del payload["elapsed_ms"]
        outputs.append(payload)
    assert outputs[0] == outputs[1]


def test_oracle_suite_other_seed(capsys):
    assert main(["verify", "oracle", "--seed", "1"]) == EXIT_OK
    assert "partition oracle" in capsys.readouterr().out


def test_fibonacci_suite_fails_a_word_outside_the_family(monkeypatch, capsys):
    # the walk's s3 in A4 has no key in a family that lacks it: its P_q
    # check fails, as does the words check, and nothing raises
    family = cli.fibonacci_family

    def without_s3(label, r):
        return {w: pq for w, pq in family(label, r).items() if (label, r, w) != ("A", 4, (3,))}

    monkeypatch.setattr(cli, "fibonacci_family", without_s3)
    assert main(["verify", "fibonacci", "--max-rank", "4", "--format", "json"]) == \
        EXIT_CHECK_FAILED
    failed = {c["name"]: c["expected"] for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["pass"]}
    assert failed.keys() == {"A4 words", "A4 pq s3"} and failed["A4 pq s3"] == "None"


def test_verify_unknown_suite(capsys):
    assert main(["verify", "definitely-not-a-suite"]) == EXIT_USAGE
    capsys.readouterr()


# === named weights against the ambient library ===

NAMED_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4),
                 ("E6", 6), ("E7", 7), ("E8", 8)]
NAMED_DRAWS = 20
UNPRUNED_MAX_ORDER = 1152  # a walk that cannot prune visits all of W
NAMED_MAX_CELLS = 20000    # the box [0, lambda - mu] of the P_q table


def _random_named(rng, rs, terms):
    names = [f"w{i}" for i in range(1, rs.rank + 1)] + ["highest-root", "sum-simple", "0"]
    return "".join(rng.choice("+-") + rng.choice(names) for _ in range(terms))


def _ambient_weight(text, rs):
    # the slow oracle of parse_weight: ambient Fraction vectors
    total = lattice.zeros(rs.ambient_dim)
    for sign, name in re.findall(
            r"([+-])(highest-root|sum-simple|w\d+|0|eps:[-\d/]+(?:,-?[\d/]+)*)", text):
        if name == "highest-root":
            term = highest_root(rs)
        elif name == "sum-simple":
            term = lattice.zeros(rs.ambient_dim)
            for alpha in rs.simple_roots:
                term = lattice.add(term, alpha)
        elif name == "0":
            term = lattice.zeros(rs.ambient_dim)
        elif name.startswith("eps:"):
            term = lattice.vector(name[len("eps:"):].split(","))
        else:
            term = fundamental_weight(rs, int(name[1:]))
        total = (lattice.sub if sign == "-" else lattice.add)(total, term)
    return total


def _mult_matches_the_library(rs, lam_text, mu_text, capsys):
    """Whether the mult of two expressions has terms; asserts that its
    records and totals are those of q_multiplicity_terms on ambient vectors."""
    order = group_order(rs)
    lam, mu = _ambient_weight(lam_text, rs), _ambient_weight(mu_text, rs)
    expected = q_multiplicity_terms(lam, mu, rs, order)
    total = QPolynomial.zero()
    for element, pq in expected:
        total = total - pq if element.length % 2 else total + pq
    argv = ["mult", rs.type_label, str(rs.rank), f"--lam={lam_text}",
            f"--mu={mu_text}", "--cap", str(order), "--format", "json"]
    assert main(argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == [
        {"word": str(element), "length": element.length,
         "sign": (-1) ** element.length, "pq": list(pq.coeffs)}
        for element, pq in expected]
    parameters = payload["parameters"]
    assert parameters["alternation_size"] == len(expected)
    assert parameters["q_multiplicity"] == list(total.coeffs)
    assert parameters["multiplicity"] == total.evaluate(1)
    return bool(expected)


@pytest.mark.parametrize("label, rank", NAMED_SYSTEMS)
def test_named_mult_matches_the_ambient_library(label, rank, capsys):
    # seeded random sums and differences of named terms; half the draws take
    # mu below lambda by named roots, so that most of them have terms
    rs = build(label, rank)
    order = group_order(rs)
    rng = random.Random(f"{label}{rank}")
    seen = Counter()
    while seen["draws"] < NAMED_DRAWS:
        lam_text = _random_named(rng, rs, rng.randint(1, 3))
        if rng.random() < 0.5:
            mu_text = lam_text + "".join(
                "-" + rng.choice(["highest-root", "sum-simple"])
                for _ in range(rng.randint(0, 2)))
        else:
            mu_text = _random_named(rng, rs, rng.randint(1, 2))
        lam, mu = _ambient_weight(lam_text, rs), _ambient_weight(mu_text, rs)
        prunes = is_dominant(lattice.add(lam, rs.rho), rs)
        top = to_simple_root_coords(lattice.sub(lam, mu), rs)
        if (not prunes and order > UNPRUNED_MAX_ORDER
                or prod(abs(c) + 1 for c in top) > NAMED_MAX_CELLS):
            continue
        seen.update(draws=1, terms=_mult_matches_the_library(rs, lam_text, mu_text, capsys),
                    unpruned=not prunes, non_dominant=not is_dominant(lam, rs),
                    nonzero_mu=any(mu))
    assert seen["terms"] and seen["non_dominant"] and seen["nonzero_mu"]
    assert seen["unpruned"] or order > UNPRUNED_MAX_ORDER


@pytest.mark.parametrize("label, rank", [("A", 2), ("A", 3), ("B", 3), ("G2", 2)])
def test_eps_mult_matches_the_ambient_library(label, rank, capsys):
    # eps: terms with halves beside named ones; a third of the draws move mu
    # off the root span, where A and G2 have room, by a multiple of (1,...,1)
    rs = build(label, rank)
    rng = random.Random(f"eps {label}{rank}")
    seen = Counter()
    for _ in range(30):
        def eps():
            return "eps:" + ",".join(rng.choice(["-1", "-1/2", "0", "1/2", "1"])
                                     for _ in range(rs.ambient_dim))
        lam_text = _random_named(rng, rs, rng.randint(0, 2)) + rng.choice("+-") + eps()
        mode = rng.randrange(3)
        if mode == 0:
            mu_text = lam_text + "".join(
                "-" + rng.choice(["highest-root", "sum-simple"])
                for _ in range(rng.randint(0, 2)))
        elif mode == 1:
            mu_text = _random_named(rng, rs, 1) + rng.choice("+-") + eps()
        else:
            mu_text = lam_text + "-eps:" + ",".join(["1"] * rs.ambient_dim)
        lam, mu = _ambient_weight(lam_text, rs), _ambient_weight(mu_text, rs)
        try:
            to_simple_root_coords(lattice.sub(lam, mu), rs)
        except NotInRootSpan:
            seen["off_span"] += 1
        denominators = {parse_weight(t, rs).denominator for t in (lam_text, mu_text)}
        seen.update(terms=_mult_matches_the_library(rs, lam_text, mu_text, capsys),
                    mixed_denominators=len(denominators) > 1)
    assert seen["terms"] and seen["mixed_denominators"]
    assert seen["off_span"] or label == "B"


def test_named_mult_does_no_fraction_conversion(monkeypatch, capsys):
    # named terms are integral in the fundamental basis, so a named mult
    # needs neither an ambient dot product nor the Fraction solve; the
    # unpatched run comes first because build itself takes dot products
    argv = ["mult", "B", "4", "--lam=highest-root+w1-sum-simple", "--mu=w2-w1"]
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("a named mult reached the Fraction conversion")

    monkeypatch.setattr(lattice, "dot", refuse)
    for name in ("rootsystem", "multiplicity", "kostant", "cli"):
        module = importlib.import_module(f"weylalt.{name}")
        if hasattr(module, "to_simple_root_coords"):
            monkeypatch.setattr(module, "to_simple_root_coords", refuse)
    assert main(argv) == EXIT_OK
    assert re.sub(r'elapsed_ms: \d+', "", capsys.readouterr().out) == \
        re.sub(r'elapsed_ms: \d+', "", expected)
    with pytest.raises(AssertionError, match="Fraction conversion"):
        main(["mult", "B", "4", "--lam", "eps:1,0,0,0"])


# === golden outputs ===

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("weyl-alt_B_3_w1", ["weyl-alt", "B", "3", "--lam", "w1"]),
    ("mult_C_3_highest-root", ["mult", "C", "3", "--lam", "highest-root"]),
    ("mult_G2_2_w1+w1", ["mult", "G2", "2", "--lam", "w1+w1"]),
    ("mult_A_3_eps", ["mult", "A", "3", "--lam", "eps:1/2,0,0,-1/2"]),
    ("mult_B_2_w2-w1", ["mult", "B", "2", "--lam", "w2-w1",
                        "--mu", "w2-w1-highest-root"]),
    ("roots_G2_2", ["roots", "G2", "2"]),
    ("weyl-alt_D_4_highest-root", ["weyl-alt", "D", "4", "--lam", "highest-root"]),
    ("verify_all", ["verify", "all"]),
    ("roots_E8_8", ["roots", "E8", "8"]),
    ("roots_E6_6", ["roots", "E6", "6"]),
    ("roots_F4_4", ["roots", "F4", "4"]),
    ("roots_A_3", ["roots", "A", "3"]),
    ("roots_B_4", ["roots", "B", "4"]),
    ("roots_C_4", ["roots", "C", "4"]),
    ("roots_D_5", ["roots", "D", "5"]),
    ("weyl-alt_G2_2_sum-simple", ["weyl-alt", "G2", "2", "--lam", "sum-simple"]),
    ("weyl-alt_F4_4_sum-simple", ["weyl-alt", "F4", "4", "--lam", "sum-simple"]),
    ("weyl-alt_E6_6_sum-simple", ["weyl-alt", "E6", "6", "--lam", "sum-simple"]),
    ("weyl-alt_E7_7_sum-simple", ["weyl-alt", "E7", "7", "--lam", "sum-simple",
                                  "--cap", "2903040"]),
    ("weyl-alt_E8_8_sum-simple", ["weyl-alt", "E8", "8", "--lam", "sum-simple",
                                  "--cap", "696729600"]),
    ("mult_B_4_6highest-root", ["mult", "B", "4", "--lam", "+".join(["highest-root"] * 6)]),
    ("mult_A_5_6highest-root", ["mult", "A", "5", "--lam", "+".join(["highest-root"] * 6)]),
    ("mult_C_4_2highest-root", ["mult", "C", "4", "--lam", "+".join(["highest-root"] * 2)]),
    ("mult_E6_6_2highest-root", ["mult", "E6", "6", "--lam", "+".join(["highest-root"] * 2)]),
])
def test_json_output_matches_golden(name, argv, capsys):
    # byte for byte, apart from the elapsed_ms field
    assert main(argv + ["--format", "json"]) == EXIT_OK
    out = re.sub(r'"elapsed_ms":\d+,', "", capsys.readouterr().out)
    assert out == (GOLDEN / f"{name}.json").read_text()
