"""Command line behavior: parsing, formats, exit codes."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weylalt
from weylalt import cli, kostant, lattice
from weylalt.cli import (EXIT_CHECK_FAILED, EXIT_LIMIT, EXIT_OK, EXIT_USAGE,
                         Check, RunReport, main, parse_weight)
from weylalt.rootsystem import build


# === weight expressions ===

@pytest.mark.parametrize("text, expected", [
    ("w1", (1, 0, 0)),
    ("w1+w2", (2, 1, 0)),
    ("w1-w3", ("1/2", "-1/2", "-1/2")),
    ("highest-root", (1, 1, 0)),
    ("sum-simple", (1, 0, 0)),
    ("0", (0, 0, 0)),
    ("w1+0", (1, 0, 0)),
    ("-w1", (-1, 0, 0)),
    ("eps:1/2,-1/2,0", ("1/2", "-1/2", 0)),
    ("eps:1,0,0-w1", (0, 0, 0)),
    ("w2 - w1", (0, 1, 0)),
    ("highest-root-w2", (0, 0, 0)),
])
def test_parse_weight(text, expected):
    rs = build("B", 3)
    assert parse_weight(text, rs) == lattice.vector(expected)


@pytest.mark.parametrize("text", [
    "", "w0", "w4", "q", "w1w2", "2w1", "eps:1,2", "eps:1,,2", "eps:",
    "w1+", "+-w1", "eps:1,0,0.5", "eps:1/0,0,0",
])
def test_parse_weight_rejects(text):
    rs = build("B", 3)
    with pytest.raises(ValueError):
        parse_weight(text, rs)


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
    assert main(["mult", "E8", "8", "--lam", "w1"]) == EXIT_LIMIT
    assert "cap" in capsys.readouterr().err
    assert main(["weyl-alt", "B", "3", "--lam", "w1", "--cap", "10"]) == EXIT_LIMIT
    capsys.readouterr()


def test_exit_table_budget(monkeypatch, capsys):
    # lam = 1000 theta asks for the box (1000, 1000, 1000): 1,003,003,001
    # cells, far over the budget, so the run must stop before any table fill
    def no_fill(top, roots):
        raise AssertionError(f"an over-budget table over {top} was built")

    monkeypatch.setattr(kostant, "BoxTable", no_fill)
    assert main(["mult", "A", "3", "--lam", "eps:1000,0,0,-1000"]) == EXIT_LIMIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[1000, 1000, 1000]" in captured.err
    assert "1,003,003,001 cells, an estimated" in captured.err
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
    [(["mult", "B", "3", "--lam", "w1", "--cap", "5"], EXIT_LIMIT),
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


def test_verify_unknown_suite(capsys):
    assert main(["verify", "definitely-not-a-suite"]) == EXIT_USAGE
    capsys.readouterr()


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
])
def test_json_output_matches_golden(name, argv, capsys):
    # byte for byte, apart from the elapsed_ms field
    assert main(argv + ["--format", "json"]) == EXIT_OK
    out = re.sub(r'"elapsed_ms":\d+,', "", capsys.readouterr().out)
    assert out == (GOLDEN / f"{name}.json").read_text()
