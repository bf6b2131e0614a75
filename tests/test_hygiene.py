"""Source checks that need no linter: every name a package module imports
is used in it, and no module holds a writable array (no process-global
mutable state)."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import qgsw_vstates

PACKAGE = Path(qgsw_vstates.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _unused_imports(source):
    """Names bound by an import statement of source and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_scan_finds_what_it_should():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "import numpy as np\nfrom .x import y as z, w\nz(np.pi)\n")
    assert _unused_imports(source) == ["os", "w"]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert _unused_imports((PACKAGE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__main__"}))
def test_module_level_arrays_are_read_only(module):
    namespace = vars(importlib.import_module(f"qgsw_vstates.{module}"))
    writable = [name for name, value in namespace.items()
                if isinstance(value, np.ndarray) and value.flags.writeable]
    assert writable == []

