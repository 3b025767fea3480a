"""One round of a workload, in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N [--trace PATH]

The process imports weylalt from the checkout's src/, builds every root
system the workload names together with its Weyl generators (the set-up),
then answers the query list twice: a cold pass with empty memo tables and a
warm pass right after it. The seed sets the order of the queries within each
pass. With --trace, per-layer spans and counters are recorded and the spans
are written to PATH. The last line of standard output is one JSON object
with the timings, the peak resident set and every answer; run.py checks the
answers, and starts this script once per round.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, help="file to write spans to")
    args = parser.parse_args(argv)

    from queries import WORKLOADS

    workload = WORKLOADS[args.workload]
    import weylalt
    from weylalt import weyl
    if any(q.kind == "cli" for q in workload.queries):
        import weylalt.cli
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    systems = {}
    for key in workload.systems():
        systems[key] = weylalt.build(*key)
        weyl.generators(systems[key])
    ready = time.monotonic()

    # imported only now, so that setup_s holds little but weylalt's own set-up
    import contextlib
    import io
    import json
    import random
    import re
    import resource

    def run_query(query):
        rs = weylalt.build(query.type_label, query.rank)
        if query.kind == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = weylalt.cli.main(list(query.argv))
            return code, buf.getvalue()
        lam = weylalt.lattice.zeros(rs.ambient_dim)
        for i, a in enumerate(query.lam, start=1):
            if a:
                lam = weylalt.lattice.add(
                    lam, weylalt.lattice.scale(a, weylalt.fundamental_weight(rs, i)))
        if query.kind == "alternation":
            return weylalt.alternation_set(lam, weylalt.lattice.zeros(rs.ambient_dim),
                                           rs, cap=weylalt.group_order(rs))
        return weylalt.weight_diagram(lam, rs)

    def run_pass(order):
        answers = [None] * len(workload.queries)
        start = time.perf_counter()
        for index in order:
            try:
                answers[index] = run_query(workload.queries[index])
            except Exception as exc:  # a query that raises counts as failed
                answers[index] = exc
        return time.perf_counter() - start, answers

    rng = random.Random(args.seed)
    indices = list(range(len(workload.queries)))
    cold_order = rng.sample(indices, len(indices))
    warm_order = rng.sample(indices, len(indices))
    cold_s, cold = run_pass(cold_order)
    warm_s, warm = run_pass(warm_order)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def serial(answer, query):
        if isinstance(answer, Exception):
            return {"error": f"{type(answer).__name__}: {answer}"}
        if query.kind == "cli":
            return {"exit": answer[0], "output": answer[1]}
        if query.kind == "alternation":
            return {"words": answer.words()}
        rs = systems[query.type_label, query.rank]
        return {"simple_roots": [[str(c) for c in a] for a in rs.simple_roots],
                "weights": [[[str(c) for c in e.weight], e.multiplicity] for e in answer]}

    result = {
        "ready": ready,
        "run_s": cold_s,
        "rerun_s": warm_s,
        "peak_rss_mb": peak_kb / 1024,
        "cold": [serial(a, q) for a, q in zip(cold, workload.queries)],
        "warm": [serial(a, q) for a, q in zip(warm, workload.queries)],
    }
    if tracer is not None:
        caches = getattr(sys.modules.get("weylalt.kostant"), "_DEFAULT_CACHES", {})
        memo = sum(len(c) for c in caches.values())
        # without the digits of elapsed_ms, so that the count repeats exactly
        outputs = [re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":', a.get("output", ""))
                   for a in result["cold"] + result["warm"]]
        out_bytes = sum(len(text.encode()) for text in outputs)
        result["layers"] = tracer.metrics(memo, out_bytes)
        tracer.write(args.trace)
    sys.stdout.write(json.dumps(result, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
