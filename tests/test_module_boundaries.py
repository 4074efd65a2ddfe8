"""No module of the package reads a private name of another of its modules,
and importing the package loads no introspection machinery."""

import ast
import os
import subprocess
import sys
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


def _newly_loaded(statement):
    """Modules a fresh interpreter loads while running `statement`."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_import_loads_no_introspection_modules():
    # in a subprocess: pytest itself has already imported these
    loaded = _newly_loaded("import cubeharm, cubeharm.cli")
    assert "cubeharm.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis"} == set()
    assert "cubeharm.cli" not in _newly_loaded("import cubeharm")
