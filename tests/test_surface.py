"""The package is what its runners need: no public name that only the tests call.

Test oracles live in ``tests/oracles.py``.  A public top-level function or
class of ``src/gpcert`` must be named by the package itself, by
``perfbench/`` (which also names the functions it traces as strings such as
``"integrate"``) or by the README's python example.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def names_read(source: str, dotted_strings: bool = False) -> set:
    """Every name and attribute the source reads; with dotted_strings, the parts of each "a.b" string."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            names.update(node.value.split("."))
    return names


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    package = sorted((ROOT / "src" / "gpcert").glob("*.py"))
    callers = set()
    for path in package:
        callers |= names_read(path.read_text())
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        callers |= names_read(path.read_text(), dotted_strings=True)
    example = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    callers |= names_read(example)
    public = [(path.stem, node.name) for path in package for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    assert public
    assert [f"{module}.{name}" for module, name in public if name not in callers] == []
