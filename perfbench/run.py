"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload alternation --seed 1 --seconds 30 --trace 0

Run from the root of a weylalt checkout. Each round starts a fresh
workload.py process, so every cold pass is really cold; rounds repeat until
--seconds would be exceeded. Every answer of every pass is checked against
perfbench.oracles, computed here once before the first round.

--trace 0 reports the end-to-end metrics: setup_s (spawn to ready) and
peak_rss_mb as medians over the rounds, run_s (cold pass) and rerun_s (warm
pass) as means over the rounds; README.md says why. --trace 1 pairs an
untraced round with a traced one and reports the per-layer metrics of the
traced rounds (medians), plus trace.overhead_s, the traced minus the
untraced mean run_s. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import checks
from queries import WORKLOADS
from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_DIR = os.path.join(HERE, "out")

MIN_ROUNDS = 3         # untraced rounds per run, whatever --seconds says
HARD_LIMIT_S = 150.0   # no round starts that would end past this

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "rerun_s": "s", "peak_rss_mb": "MB"}
# Pass times drift with the machine's speed over tens of seconds; the mean
# over the rounds of a run is the steadier estimate of them (README.md).
AVERAGE = {"setup_s": statistics.median, "run_s": statistics.mean,
           "rerun_s": statistics.mean, "peak_rss_mb": statistics.median}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_yield"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class RoundFailed(RuntimeError):
    pass


def run_round(workload, seed: int, trace_path: str | None, budget_s: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload.name, "--seed", str(seed)]
    if trace_path:
        cmd += ["--trace", trace_path]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(budget_s, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{workload.name} round did not finish in {budget_s:.0f} s") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"workload.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawn
    return result


def count_failures(workload, expected, result) -> tuple[int, int, int, list[str]]:
    """(attempted, raised or exited non-zero, answered wrongly, problems)."""
    attempted = errors = wrong = 0
    problems = []
    for k, query in enumerate(workload.queries):
        cold, warm = result["cold"][k], result["warm"][k]
        for label, answer in (("cold", cold), ("warm", warm)):
            found = checks.check(query, answer, expected[k])
            if label == "warm" and not found and query.kind == "cli":
                if not checks.same_output(cold, warm):
                    found = ["warm output differs from cold beyond elapsed_ms"]
            attempted += 1
            if found:
                if "error" in answer or answer.get("exit", 0) != 0:
                    errors += 1
                else:
                    wrong += 1
                problems.append(f"{query.name} ({label}): {'; '.join(found)}")
    return attempted, errors, wrong, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "weylalt", "__init__.py")):
        print(f"error: no weylalt sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = [checks.prepare(q) for q in workload.queries]
    rng = random.Random(args.seed)
    trace_path = None
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(TRACE_DIR, f"{workload.name}.spans.jsonl")

    untraced, traced = [], []
    attempted = errors = wrong = 0
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        plan = [(untraced, None)] + ([(traced, trace_path)] if args.trace else [])
        for sink, path in plan:
            budget = HARD_LIMIT_S + 20 - (time.monotonic() - start)
            try:
                result = run_round(workload, rng.randrange(2**31), path, budget)
            except RoundFailed as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            a, e, w, problems = count_failures(workload, expected, result)
            attempted += a
            errors += e
            wrong += w
            for line in problems:
                print(f"FAILED {line}")
            sink.append(result)
            print(f"round {len(sink)}{' traced' if path else ''}: "
                  + ", ".join(f"{k} {result[k]:.4g}" for k in END_TO_END_UNITS))
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        enough = len(untraced) >= (1 if args.trace else MIN_ROUNDS)
        if elapsed + took > HARD_LIMIT_S or (enough and elapsed + took > args.seconds):
            break

    def average(rounds, key):
        return AVERAGE[key]([r[key] for r in rounds])

    if args.trace:
        metrics = {name: {"value": statistics.median_low(r["layers"][name] for r in traced),
                          "unit": layer_unit(name)} for name in PER_LAYER}
        metrics["trace.overhead_s"] = {
            "value": average(traced, "run_s") - average(untraced, "run_s"), "unit": "s"}
    else:
        metrics = {name: {"value": average(untraced, name), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"{workload.name} {name} {m['value']:.6g} {m['unit']}")
    failed = errors + wrong
    print(f"{workload.name} rounds {len(untraced)} untraced, {len(traced)} traced; "
          f"{failed} of {attempted} answers failed, {wrong} of them wrong")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
