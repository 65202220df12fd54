"""No module of the package uses a private (_-prefixed) name of another module.

A module may use the private names it defines itself: its functions,
classes, methods, and the attributes it assigns (such as cached fields set
through ``self._x``).  Importing a private name, or reading one as an
attribute of an imported module or of an object another module defines,
fails this test.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "codazzi"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_name_violations(source: str) -> list[str]:
    tree = ast.parse(source)
    own = set()
    module_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
        elif isinstance(node, ast.Import):
            module_aliases.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            module_aliases.update(a.asname or a.name for a in node.names)

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names
                      if _is_private(a.name)]
        elif isinstance(node, ast.Attribute) and _is_private(node.attr):
            of_module = isinstance(node.value, ast.Name) and node.value.id in module_aliases
            if of_module or node.attr not in own:
                found.append(f"line {node.lineno}: uses .{node.attr}")
    return found


def test_no_module_uses_private_names_of_another():
    violations = {
        path.name: private_name_violations(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in violations.items() if found} == {}


def test_checker_flags_each_kind_of_use():
    source = (
        "from .tensors import _packed_triples\n"
        "from . import charts as charts_mod\n"
        "class C:\n"
        "    def _own(self):\n"
        "        self._cache = {}\n"
        "        return self._cache, self._own()\n"
        "def f(cs, x):\n"
        "    return charts_mod._g_norm(x, x), cs._memo(x), C()._own()\n"
    )
    assert private_name_violations(source) == [
        "line 1: imports _packed_triples",
        "line 8: uses ._g_norm",
        "line 8: uses ._memo",
    ]
