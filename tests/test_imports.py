"""Every name a module of src/homtwist imports is referenced in that module.

The names of the package's __all__ (re-exported by __init__) and
`from __future__ import annotations` are exempt.  Importing the command line
loads none of dataclasses, inspect and typing, which a cold process would pay
for on every run.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "homtwist"


def exported(tree) -> set:
    """The names of a module's __all__, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """The names bound by the imports of source that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported(tree))


def test_the_guard_sees_an_unused_import():
    source = (
        "import os, sys\nfrom math import comb as c, perm\n__all__ = ['perm']\nsys.exit(c(2, 1))\n"
    )
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_leaves_out_heavy_modules():
    # -S: no site directory, so no installed .pth file imports anything first
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "import homtwist.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
