"""The names perfbench/tracing.py and perfbench/workload.py reach by name.

The benchmark wraps these attributes for its per-layer spans and reads the
P_q tables for its memo counter; a rename would silently zero a counter or
fail every round, so each one is pinned here. Modules are looked up by their
dotted name, as the benchmark does, because the package re-exports a
function called multiplicity over the submodule of that name.
"""

import importlib

import pytest

from weylalt.rootsystem import build


def module(name):
    return importlib.import_module(f"weylalt.{name}")


@pytest.mark.parametrize("name, attr", [
    ("weyl", "generators"),
    ("kostant", "partition_q_alpha"),
    ("kostant", "partition_q"),
    ("kostant", "partition"),
    ("multiplicity", "_survivor_terms"),
    ("multiplicity", "alternation_set"),
    ("multiplicity", "weight_diagram"),
    ("cli", "main"),
])
def test_traced_function_exists(name, attr):
    assert callable(getattr(module(name), attr))


def test_run_report_render_exists():
    assert callable(module("cli").RunReport.render)


def test_default_tables_support_len():
    kostant = module("kostant")
    kostant.partition_q_alpha((1, 1, 1), build("B", 3))
    assert sum(len(t) for t in kostant._DEFAULT_CACHES.values()) > 0
