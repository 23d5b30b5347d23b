"""The traced benchmark's targets and counters still match gpcert's code.

``perfbench/spans.py`` binds gpcert functions by name and reads some of their
arguments by name; a rename in ``src`` would otherwise only show when the
benchmark runs with ``--trace 1``.  The module is loaded here without
writing bytecode next to it, and nothing in it is installed.
"""

import ast
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def resolve(module: str, path: str):
    owner = importlib.import_module(f"gpcert.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def argument_names(update) -> set[str]:
    """Keys an update(counters, args, result) function reads from args."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(update)))
    args = tree.body[0].args.args[1].arg
    free = inspect.getclosurevars(update).nonlocals
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == args:
            key = node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == args and node.func.attr == "get"):
            key = node.args[0]
        else:
            continue
        names.add(key.value if isinstance(key, ast.Constant) else free[key.id])
    return names


def test_every_target_resolves(spans):
    for module, path in spans.TARGETS:
        assert callable(resolve(module, path)), f"{module}.{path}"


def test_every_counter_argument_is_in_its_target_signature(spans):
    targets = {spans.span_name(module, path): resolve(module, path) for module, path in spans.TARGETS}
    read = set()
    for name, (_, update) in spans.COUNTERS.items():
        names = argument_names(update)
        assert names, name
        assert names <= set(inspect.signature(targets[name]).parameters), name
        read |= names
    assert read == {"horizon", "dt", "path", "X", "Y", "spec", "data", "x"}
