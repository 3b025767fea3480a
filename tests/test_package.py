"""What the package exports, and the test oracles kept out of it."""

import ast
import importlib
from pathlib import Path

import pytest

import weylalt

ORACLES = Path(__file__).with_name("oracles.py")


@pytest.mark.parametrize("name", weylalt.__all__)
def test_every_exported_name_resolves(name):
    assert hasattr(weylalt, name)


@pytest.mark.parametrize("module, name", [
    ("weyl", "enumerate_group"),
    ("weyl", "inversion_length"),
    ("weyl", "identity_element"),
    ("weyl", "simple_reflection"),
    ("weyl", "orbit"),
    ("kostant", "_recurse"),
    ("kostant", "partition_q_recursive"),
    ("kostant", "_validated_alpha_coords"),
    ("multiplicity", "_ambient_start"),
    ("lattice", "neg"),
    ("lattice", "is_zero"),
    ("lattice", "matrix"),
])
def test_test_only_names_stay_out_of_the_library(module, name):
    assert not hasattr(importlib.import_module(f"weylalt.{module}"), name)
    assert name not in weylalt.__all__


def test_oracles_import_no_fast_path():
    # the oracles must not share the code they check: nothing from the walk
    # and nothing of the P_q table behind partition_q
    table = {"BoxTable", "Layout", "table_layout", "_layout_over", "_table_over",
             "_DEFAULT_CACHES"}
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("weylalt.multiplicity") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "weylalt.multiplicity"
            assert not (node.module == "weylalt" and
                        any(a.name == "multiplicity" for a in node.names))
            if node.module == "weylalt.kostant":
                assert not {a.name for a in node.names} & table
