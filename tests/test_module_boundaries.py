"""No module of the package reads a private name of another of its modules."""

import ast
from pathlib import Path

import cubeharm

PACKAGE = Path(cubeharm.__file__).parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_reads(tree):
    """`from .x import _name`, and `_name` read off a module bound by
    `from . import x [as y]`."""
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    reads.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            reads.append(f"{modules[node.value.id]}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_name():
    reads = {
        path.name: _foreign_private_reads(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in reads.items() if found} == {}
