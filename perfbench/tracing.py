"""Per-layer spans and counters, installed on weylalt from outside it.

Each wrapped name is replaced in every weylalt namespace that holds it, so
by-name imports (multiplicity's `enumerate_group`, cli's `q_multiplicity`)
reach the wrapper too. A span is (name, start, end, parent index); a
generator gets one span per advance, so its spans cover only the time spent
advancing it. Self time is a span's duration minus that of its direct child
spans; the program is single-threaded, so children never overlap. Names that
no longer exist are skipped and their metrics read zero.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

# (module, attribute) wrapped in a span.
SPANNED = (
    ("rootsystem", "build"),
    ("weyl", "generators"),
    ("weyl", "enumerate_group"),
    ("weyl", "element_from_matrix"),
    ("weyl", "reduced_word_from_matrix"),
    ("multiplicity", "alternation_set"),
    ("multiplicity", "multiplicity"),
    ("multiplicity", "q_multiplicity"),
    ("multiplicity", "q_multiplicity_terms"),
    ("multiplicity", "weight_diagram"),
    ("kostant", "partition_q_alpha"),
    ("kostant", "partition_q"),
    ("kostant", "partition"),
    ("cli", "main"),
    ("cli", "RunReport.render"),
)

# (module, attribute) whose calls are only counted: the lattice layer is too
# fine-grained for spans, and the survivor search is counted, with the size
# of its result, without splitting the self time of its public callers.
COUNTED = (
    ("lattice", "mat_mul"),
    ("lattice", "mat_vec"),
    ("multiplicity", "_survivor_terms"),
)

KOSTANT_SPANS = ("kostant.partition_q_alpha", "kostant.partition_q",
                 "kostant.partition")

PER_LAYER = (
    "rootsystem.build_s", "weyl.generators_s", "weyl.enumerate_group_s",
    "weyl.elements_enumerated", "weyl.reduced_word_s", "weyl.reduced_words",
    "lattice.mat_mul_calls", "lattice.mat_vec_calls",
    "multiplicity.alternation_set_s", "multiplicity.survivors",
    "multiplicity.survivor_yield", "multiplicity.survivor_searches",
    "multiplicity.q_multiplicity_s", "multiplicity.q_multiplicity_terms_s",
    "multiplicity.weight_diagram_s", "multiplicity.diagram_candidates",
    "multiplicity.diagram_yield",
    "kostant.partition_q_s", "kostant.partition_q_calls",
    "kostant.memo_entries",
    "cli.main_s", "cli.render_s", "cli.output_bytes",
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    # --- wrappers ---

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = self.clock()

    def spanned(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._spanned_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name == "multiplicity.weight_diagram":
                self.counts["diagram_weights"] += len(result)
            return result
        return wrapper

    def _spanned_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    self.counts[name + ".yields"] += 1
                    yield item
            finally:
                inner.close()
        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            result = fn(*args, **kwargs)
            if name == "multiplicity._survivor_terms":
                self.counts["survivors"] += len(result)
            return result
        return wrapper

    # --- installation ---

    def install(self, package: str = "weylalt") -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for module_name, attr in table:
                module = sys.modules.get(f"{package}.{module_name}")
                if module is None:
                    continue
                owner, _, method = attr.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = getattr(holder, method, None) if holder is not None else None
                if original is None:
                    continue
                name = f"{module_name}.{method}"
                wrap = self.spanned if kind == "span" else self.counted
                wrapper = wrap(name, original)
                if owner:  # a method: patch the class attribute
                    setattr(holder, method, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    # --- results ---

    def metrics(self, memo_entries: int, output_bytes: int) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        candidates = 0
        kostant_calls = 0
        for k, (name, start, end, parent) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - child[k]
            calls[name] += 1
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "multiplicity.multiplicity" and parent_name == "multiplicity.weight_diagram":
                candidates += 1
            if name in KOSTANT_SPANS and parent_name not in KOSTANT_SPANS:
                kostant_calls += 1
        counts = self.counts
        enumerated = counts["weyl.enumerate_group.yields"]
        materialised = enumerated + calls["weyl.element_from_matrix"]
        survivors = counts["survivors"]
        out = {
            "rootsystem.build_s": total["rootsystem.build"],
            "weyl.generators_s": total["weyl.generators"],
            "weyl.enumerate_group_s": total["weyl.enumerate_group"],
            "weyl.elements_enumerated": enumerated,
            "weyl.reduced_word_s": total["weyl.reduced_word_from_matrix"],
            "weyl.reduced_words": calls["weyl.reduced_word_from_matrix"],
            "lattice.mat_mul_calls": counts["lattice.mat_mul"],
            "lattice.mat_vec_calls": counts["lattice.mat_vec"],
            "multiplicity.alternation_set_s": own["multiplicity.alternation_set"],
            "multiplicity.survivors": survivors,
            "multiplicity.survivor_yield": survivors / materialised if materialised else 0.0,
            "multiplicity.survivor_searches": counts["multiplicity._survivor_terms"],
            "multiplicity.q_multiplicity_s": total["multiplicity.q_multiplicity"],
            "multiplicity.q_multiplicity_terms_s": total["multiplicity.q_multiplicity_terms"],
            "multiplicity.weight_diagram_s": total["multiplicity.weight_diagram"],
            "multiplicity.diagram_candidates": candidates,
            "multiplicity.diagram_yield": (counts["diagram_weights"] / candidates
                                           if candidates else 0.0),
            "kostant.partition_q_s": sum(own[n] for n in KOSTANT_SPANS),
            "kostant.partition_q_calls": kostant_calls,
            "kostant.memo_entries": memo_entries,
            "cli.main_s": own["cli.main"],
            "cli.render_s": total["cli.render"],
            "cli.output_bytes": output_bytes,
        }
        assert tuple(out) == PER_LAYER
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
