"""Source checks that need no linter: every name a package module imports
is used in it, every private definition is referenced somewhere in the
package, no module holds a writable array (no process-global mutable
state), and an array handed out from a memo is read-only, so no caller
can write into a result that later calls share."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import qgsw_vstates
from qgsw_vstates.contour import FourierBoundary, conformal_eval, make_grid

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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """(name, qualified name) of tree's private module-level functions,
    classes and constants, and of the methods of its classes without a base
    class (an override such as _Parser.error is called by its base) that
    are private or belong to a private class."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id] if isinstance(node.target,
                                                   ast.Name) else []
        else:
            names = [getattr(node, "name", "")]
        found += [(name, name) for name in names if _private(name)]
        if isinstance(node, ast.ClassDef) and not node.bases:
            found += [
                (item.name, f"{node.name}.{item.name}")
                for item in node.body if isinstance(item, ast.FunctionDef)
                and (_private(item.name) or _private(node.name)
                     and not item.name.startswith("__"))]
    return found


def _unreferenced(sources):
    """Qualified names of the private definitions of sources that no
    source reads, calls or imports."""
    trees = [ast.parse(source) for source in sources]
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return sorted(qualified for tree in trees
                  for name, qualified in _private_definitions(tree)
                  if name not in used)


def test_unreferenced_scan_finds_what_it_should():
    source = ("_A = 1\n_B: int = 2\nC = _A\ndef _f(): pass\n"
              "def _g(): pass\nclass _S:\n    def __init__(self): pass\n"
              "    def run(self): self._h()\n    def _h(self): pass\n"
              "    def left(self): pass\nclass T:\n    def _u(self): pass\n"
              "    def v(self): pass\nclass _P(T):\n    def _w(self): pass\n")
    other = "from m import _g\n_f()\nT()._u()\n_S()\n"
    assert _unreferenced([source, other]) == ["_B", "_P", "_S.left",
                                              "_S.run"]


def test_every_private_definition_is_referenced():
    assert _unreferenced(path.read_text()
                         for path in sorted(PACKAGE.glob("*.py"))) == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__main__"}))
def test_module_level_arrays_are_read_only(module):
    namespace = vars(importlib.import_module(f"qgsw_vstates.{module}"))
    writable = [name for name, value in namespace.items()
                if isinstance(value, np.ndarray) and value.flags.writeable]
    assert writable == []



def test_memoized_arrays_are_read_only():
    grid = make_grid(32)
    boundary = FourierBoundary(1.0, (0.0, 0.1))
    shared = [*conformal_eval(boundary, grid), *conformal_eval(boundary, grid),
              grid.log_weights(4), grid.log_weights(2), grid.transpose_index(8),
              grid.transpose_index(8), grid.theta, grid.nodes]
    assert [arr.flags.writeable for arr in shared] == [False] * len(shared)
