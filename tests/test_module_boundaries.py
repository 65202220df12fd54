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


def suites_seam_violations(source: str) -> list[str]:
    """Uses of the tolerance and skip rules outside the collector of ``suites.py``.

    ``fd_tol(...)`` may be called only inside ``_Collector``, and a ``str(...)[...]``
    truncation of an exception message may appear only in ``_Collector.skip``.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            where = ".".join(scope) or "module"
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "fd_tol" and scope[:1] != ["_Collector"]):
                found.append(f"line {child.lineno}: fd_tol in {where}")
            if (isinstance(child, ast.Subscript) and isinstance(child.value, ast.Call)
                    and isinstance(child.value.func, ast.Name) and child.value.func.id == "str"
                    and scope != ["_Collector", "skip"]):
                found.append(f"line {child.lineno}: str(...)[...] in {where}")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [])
    return found


def test_suites_pair_residuals_with_tolerances_and_skip_reasons_in_one_place():
    assert suites_seam_violations((PACKAGE / "suites.py").read_text(encoding="utf-8")) == []


def test_seam_checker_flags_each_kind_of_copy():
    source = (
        "class _Collector:\n"
        "    def tolerance(self, family):\n"
        "        return fd_tol(family, self.h)\n"
        "    def skip(self, exc):\n"
        "        return str(exc)[:60]\n"
        "def suite(cfg):\n"
        "    tol = fd_tol('duality', cfg.h)\n"
        "    try:\n"
        "        pass\n"
        "    except PreconditionError as exc:\n"
        "        reason = str(exc)[:60]\n"
    )
    assert suites_seam_violations(source) == [
        "line 7: fd_tol in suite",
        "line 11: str(...)[...] in suite",
    ]


def check_table_violations(source: str, anchors: set[str]) -> list[str]:
    """Check records built outside ``_Collector``, and anchors written outside ``CHECKS``.

    A ``Check(...)`` may be built only inside ``_Collector``.  A string constant equal
    to an anchor may appear only in the ``CHECKS = ...`` statement or in a module-level
    constant that only that statement (or another such constant) reads.
    """
    tree = ast.parse(source)
    assigned = {target.id: node for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    readers = {}
    for node in tree.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                readers.setdefault(sub.id, set()).add(id(node))
    table = {id(assigned["CHECKS"])} if "CHECKS" in assigned else set()
    grown = True
    while grown:
        grown = False
        for name, node in assigned.items():
            if id(node) not in table and readers.get(name, {None}) <= table:
                table.add(id(node))
                grown = True

    found = []

    def visit(node, scope, in_table):
        for child in ast.iter_child_nodes(node):
            where = ".".join(scope) or "module"
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "Check" and scope[:1] != ["_Collector"]):
                found.append(f"line {child.lineno}: Check(...) in {where}")
            child_in_table = in_table or id(child) in table
            if (isinstance(child, ast.Constant) and child.value in anchors
                    and not child_in_table):
                found.append(f"line {child.lineno}: anchor in {where}")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + [child.name] if named else scope, child_in_table)

    visit(tree, [], False)
    return found


def test_suites_write_each_anchor_in_the_check_table():
    from codazzi.suites import CHECKS

    anchors = {row.anchor for row in CHECKS.values()}
    source = (PACKAGE / "suites.py").read_text(encoding="utf-8")
    assert check_table_violations(source, anchors) == []


def test_table_checker_flags_each_kind_of_copy():
    source = (
        "A_SHARED = 'R=HR_0'\n"
        "A_STRAY = 'u<=1'\n"
        "CHECKS = {'fit': (A_SHARED, 1e-10), 'band': ('u<=1', 1e-12)}\n"
        "class _Collector:\n"
        "    def add(self, stem, residual):\n"
        "        self.checks.append(Check(stem, CHECKS[stem][0], residual))\n"
        "def suite(col):\n"
        "    col.add('band', 0.0)\n"
        "    return Check('band', A_STRAY, 0.0), 'R=HR_0'\n"
    )
    assert check_table_violations(source, {"R=HR_0", "u<=1"}) == [
        "line 2: anchor in module",
        "line 9: Check(...) in suite",
        "line 9: anchor in suite",
    ]


def batched_einsum_calls(source: str) -> list[str]:
    """``np.einsum`` calls whose spec has batch axes (``...``) or is built at run time.

    A batched contraction of short tensor slots belongs in a matmul on a reshape;
    numpy's einsum runs it with inner loops of the slot length.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum" and node.args):
            continue
        spec = node.args[0]
        if not (isinstance(spec, ast.Constant) and isinstance(spec.value, str)):
            found.append((node.lineno, "computed spec"))
        elif "..." in spec.value:
            found.append((node.lineno, spec.value))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_charts_contracts_batched_slots_without_einsum():
    assert batched_einsum_calls((PACKAGE / "charts.py").read_text(encoding="utf-8")) == []


def test_einsum_checker_flags_each_kind_of_batched_call():
    source = (
        "import numpy as np\n"
        "def f(ginv, a, spec):\n"
        "    k = np.einsum('...ml,...ijl->...mij', ginv, a)\n"
        "    t = np.einsum(f'...m{spec}->...', k)\n"
        "    return np.einsum('iijk->jk', a), np.einsum(spec, a)\n"
    )
    assert batched_einsum_calls(source) == [
        "line 3: ...ml,...ijl->...mij",
        "line 4: computed spec",
        "line 5: computed spec",
    ]


def curvature_fit_sites(sources: dict[str, str]) -> list[str]:
    """Calls of ``best_fit_curvature_coefficient`` outside ``points.fit_constant_curvature``.

    Every "this curvature is H R0" test fits H and bounds the fit in that one helper.
    """
    found = []

    def visit(name, node, scope):
        for child in ast.iter_child_nodes(node):
            func = child.func if isinstance(child, ast.Call) else None
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if (called == "best_fit_curvature_coefficient"
                    and (name, scope) != ("points.py", ["fit_constant_curvature"])):
                found.append(f"{name}:{child.lineno}")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(name, child, scope + [child.name] if named else scope)

    for name, source in sorted(sources.items()):
        visit(name, ast.parse(source), [])
    return found


def test_one_constant_curvature_fit():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert curvature_fit_sites(sources) == []


def test_fit_checker_flags_each_copy():
    sources = {
        "points.py": (
            "def best_fit_curvature_coefficient(g, rt, r0=None):\n"
            "    return 0.0\n"
            "def fit_constant_curvature(g, rt, rel_tol, h=None):\n"
            "    return best_fit_curvature_coefficient(g, rt)\n"
            "def other(g, rt):\n"
            "    return best_fit_curvature_coefficient(g, rt)\n"
        ),
        "bounds.py": (
            "from . import points as points_mod\n"
            "def check(g, r):\n"
            "    h = points_mod.best_fit_curvature_coefficient(g, r)\n"
        ),
    }
    assert curvature_fit_sites(sources) == ["bounds.py:3", "points.py:6"]


def dynamic_code_sites(sources: dict[str, str]) -> list[str]:
    """Functions that call ``eval`` or ``exec``, as ``file:function`` (``module`` at top level).

    Generated numpy code is compiled in one function of ``expressions.py``, so what that
    code may reach (its namespace) is decided in one place.
    """
    found = set()

    def visit(name, node, scope):
        for child in ast.iter_child_nodes(node):
            func = child.func if isinstance(child, ast.Call) else None
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if called in ("eval", "exec"):
                found.add(f"{name}:{'.'.join(scope) or 'module'}")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(name, child, scope + [child.name] if named else scope)

    for name, source in sorted(sources.items()):
        visit(name, ast.parse(source), [])
    return sorted(found)


def test_one_function_compiles_generated_code():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert dynamic_code_sites(sources) == ["expressions.py:_compile_source"]


def test_compile_checker_flags_each_copy():
    sources = {
        "expressions.py": (
            "def _compile_source(source):\n"
            "    exec(source, {})\n"
            "class Expr:\n"
            "    def compile(self, n):\n"
            "        return eval(f'lambda x: {self._code()}')\n"
        ),
        "charts.py": (
            "import builtins\n"
            "FIELD = eval('lambda x: x')\n"
            "def field(code):\n"
            "    return builtins.exec(code)\n"
        ),
    }
    assert dynamic_code_sites(sources) == [
        "charts.py:field", "charts.py:module",
        "expressions.py:Expr.compile", "expressions.py:_compile_source",
    ]


def repeated_einsum_specs(sources: dict[str, str]) -> list[str]:
    """``np.einsum`` spec strings written at more than one site, with the sites in order.

    A contraction written twice is one kernel with two copies: both sites should call a
    single function (the shared kernels live in ``tensors.py``).
    """
    sites = {}
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                sites.setdefault(node.args[0].value, []).append((name, node.lineno))
    return [f"{spec}: " + ", ".join(f"{name}:{line}" for name, line in sorted(where))
            for spec, where in sorted(sites.items()) if len(where) > 1]


def test_each_einsum_spec_is_written_once():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert repeated_einsum_specs(sources) == []


def test_spec_checker_flags_each_copy():
    sources = {
        "tensors.py": (
            "import numpy as np\n"
            "def ricci(ginv, r):\n"
            "    return np.einsum('il,ijkl->jk', ginv, r)\n"
            "def scalar(ginv, ric):\n"
            "    return np.einsum('jk,jk->', ginv, ric)\n"
        ),
        "charts.py": (
            "import numpy as np\n"
            "def rho(ginv, ric, up):\n"
            "    r = np.einsum('jk,jk->', ginv, ric)\n"
            "    return r, np.einsum('iijk->jk', up), np.einsum('jk,jk->', ginv, ric.T)\n"
        ),
    }
    assert repeated_einsum_specs(sources) == ["jk,jk->: charts.py:3, charts.py:4, tensors.py:5"]


def linalg_factorization_sites(sources: dict[str, str]) -> list[str]:
    """Uses of ``linalg.inv``, ``linalg.cholesky`` and ``linalg.det`` as ``file:line name``.

    Every inverse, orthonormal frame and volume density of a metric comes from
    ``tensors.metric_factors``; the one ``det`` left is the leading-minor test of
    ``MetricPoint`` in ``tensors.py``, whose error names the failing minor.
    """
    found = []

    def visit(name, node, scope):
        for child in ast.iter_child_nodes(node):
            used = []
            if (isinstance(child, ast.Attribute) and child.attr in ("inv", "cholesky", "det")
                    and isinstance(child.value, (ast.Attribute, ast.Name))
                    and getattr(child.value, "attr", getattr(child.value, "id", None)) == "linalg"):
                used.append(child.attr)
            elif isinstance(child, ast.ImportFrom) and (child.module or "").endswith("linalg"):
                used += [a.name for a in child.names if a.name in ("inv", "cholesky", "det")]
            for what in used:
                if (what, name, scope[:1]) != ("det", "tensors.py", ["MetricPoint"]):
                    found.append(f"{name}:{child.lineno} {what}")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(name, child, scope + [child.name] if named else scope)

    for name, source in sorted(sources.items()):
        visit(name, ast.parse(source), [])
    return found


def test_metrics_are_factored_by_one_kernel():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert linalg_factorization_sites(sources) == []


def test_factorization_checker_flags_each_copy():
    sources = {
        "tensors.py": (
            "import numpy as np\n"
            "class MetricPoint:\n"
            "    def __init__(self, m):\n"
            "        self.minor = np.linalg.det(m[:1, :1])\n"
            "    def inverse(self):\n"
            "        return np.linalg.inv(self.m)\n"
            "def frame(g):\n"
            "    return np.linalg.cholesky(g), np.linalg.det(g)\n"
        ),
        "spheres.py": (
            "from numpy.linalg import cholesky, det, eigh\n"
            "import numpy.linalg as linalg\n"
            "def density(g):\n"
            "    return linalg.det(g) + np.linalg.eigvalsh(g)\n"
        ),
    }
    assert linalg_factorization_sites(sources) == [
        "spheres.py:1 cholesky", "spheres.py:1 det", "spheres.py:4 det",
        "tensors.py:6 inv", "tensors.py:8 cholesky", "tensors.py:8 det",
    ]
