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


CONTRACTION_CALLS = {"einsum", "tensordot", "matmul", "dot", "inner"}
RESHAPES = {"reshape", "swapaxes", "transpose", "moveaxis", "T"}


def contraction_sites(source: str) -> list[str]:
    """Contractions written out in a module: ``einsum``, ``tensordot``, ``matmul``, ``dot`` and
    ``inner`` calls, and ``@`` on a reshaped, swapped or transposed array.

    The chart calculus keeps its arrays batch-last and contracts their slots through the
    kernels of ``tensors.py``; a matmul on a reshaped batch array is the batch-first idiom.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in CONTRACTION_CALLS):
            found.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            for operand in (node.left, node.right):
                inner = operand.func if isinstance(operand, ast.Call) else operand
                if isinstance(inner, ast.Attribute) and inner.attr in RESHAPES:
                    found.append((node.lineno, f"@ on .{inner.attr}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_charts_contracts_only_through_tensors_kernels():
    assert contraction_sites((PACKAGE / "charts.py").read_text(encoding="utf-8")) == []


def test_contraction_checker_flags_each_kind_of_site():
    source = (
        "import numpy as np\n"
        "def f(ginv, a, b, spec):\n"
        "    k = np.einsum('...ml,...ijl->...mij', ginv, a) + np.tensordot(a, b, 1)\n"
        "    t = ginv @ a.reshape(4, 2) + b.T @ ginv + np.swapaxes(a, 0, 1) @ b\n"
        "    return np.matmul(a, b), a.dot(b), ginv @ b\n"
    )
    assert contraction_sites(source) == [
        "line 3: einsum", "line 3: tensordot", "line 4: @ on .T", "line 4: @ on .reshape",
        "line 4: @ on .swapaxes", "line 5: dot", "line 5: matmul",
    ]


LAYOUT_HELPERS = ("core_first", "batch_first", "batch_last")


def layout_helper_sites(sources: dict[str, str]) -> list[str]:
    """Functions named like a layout helper outside ``tensors.py``, and helpers it lacks.

    One set of helpers lays batched arrays out batch-last for every module.
    """
    found = []
    for name, source in sorted(sources.items()):
        defined = {node.name.lstrip("_") for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if name == "tensors.py":
            found += [f"tensors.py lacks {h}" for h in LAYOUT_HELPERS if h not in defined]
        else:
            found += [f"{name}: {h}" for h in LAYOUT_HELPERS if h in defined]
    return found


def test_only_tensors_defines_layout_helpers():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert layout_helper_sites(sources) == []


def test_layout_checker_flags_each_copy():
    sources = {
        "tensors.py": ("def core_first(x, k):\n    return x\n"
                       "def batch_first(t, k):\n    return t\n"),
        "points.py": "def _batch_last(x, k):\n    return x\n",
        "charts.py": "class C:\n    def core_first(self, x):\n        return x\n",
    }
    assert layout_helper_sites(sources) == [
        "charts.py: core_first", "points.py: batch_last", "tensors.py lacks batch_last"]


def curvature_fit_sites(sources: dict[str, str]) -> list[str]:
    """Calls of ``best_fit_curvature_coefficient`` outside ``points.constant_curvature_fit``.

    Every "this curvature is H R0" test fits H and bounds the fit in that one helper.
    """
    found = []

    def visit(name, node, scope):
        for child in ast.iter_child_nodes(node):
            func = child.func if isinstance(child, ast.Call) else None
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if (called == "best_fit_curvature_coefficient"
                    and (name, scope) != ("points.py", ["constant_curvature_fit"])):
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
            "def best_fit_curvature_coefficient(g, ginv, r):\n"
            "    return 0.0\n"
            "def constant_curvature_fit(g, ginv, r, rel_tol, h=None):\n"
            "    return best_fit_curvature_coefficient(g, ginv, r)\n"
            "def other(g, ginv, r):\n"
            "    return best_fit_curvature_coefficient(g, ginv, r)\n"
        ),
        "bounds.py": (
            "from . import points as points_mod\n"
            "def check(g, ginv, r):\n"
            "    h = points_mod.best_fit_curvature_coefficient(g, ginv, r)\n"
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

    Every inverse, orthonormal frame, volume density and positive-definiteness test of a
    metric comes from ``tensors.metric_factors``, whose error names the failing pivot.
    """
    found = []
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            used = []
            if (isinstance(node, ast.Attribute) and node.attr in ("inv", "cholesky", "det")
                    and isinstance(node.value, (ast.Attribute, ast.Name))
                    and getattr(node.value, "attr", getattr(node.value, "id", None)) == "linalg"):
                used.append(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                used += [a.name for a in node.names if a.name in ("inv", "cholesky", "det")]
            found += [(name, node.lineno, what) for what in used]
    return [f"{name}:{line} {what}" for name, line, what in sorted(found)]


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
        "tensors.py:4 det", "tensors.py:6 inv", "tensors.py:8 cholesky", "tensors.py:8 det",
    ]


def point_calls(source: str) -> list[str]:
    """Calls of ``.point(...)`` anywhere in a module, as ``function:line``.

    A structure at a point is the pair of arrays (g, a): a chart hands out
    ``metric_at`` and ``cubic_at``, and no method builds a pointwise object.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "point"):
                found.append(f"{'.'.join(scope) or 'module'}:{child.lineno}")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [])
    return found


def test_batched_producers_build_no_point():
    for path in sorted(PACKAGE.glob("*.py")):
        assert point_calls(path.read_text(encoding="utf-8")) == [], path.name


def test_point_call_checker_flags_each_call():
    source = (
        "def statistical_connections(cs, x):\n"
        "    def compute():\n"
        "        return bracket_kk(cs.point(x))\n"
        "    return compute()\n"
        "def ricci_decomposition_residuals(cs, x):\n"
        "    return cs.point(x).gram_k(), cs.metric_at(x), point(x)\n"
        "POINT = ChartStructure.point(cs, x)\n"
    )
    assert point_calls(source) == [
        "statistical_connections.compute:3", "ricci_decomposition_residuals:6", "module:7"]


# the classes of an object layer over (g, a), which no module may define again
STRUCTURE_CLASSES = ("StatPoint", "MetricPoint", "CubicForm", "Tensor")


def structure_class_sites(source: str) -> list[str]:
    """Definitions of a name in ``STRUCTURE_CLASSES`` (class, function or assignment), as
    ``name:line``.

    A structure is the pair of read-only arrays (g[..., n, n], a[..., n, n, n]), validated
    once on its way in; a second, object layer would validate it a second time.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [(t.id, node.lineno) for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(a.asname or a.name, node.lineno) for a in node.names]
        else:
            continue
        found += [f"{name}:{line}" for name, line in names if name in STRUCTURE_CLASSES]
    return found


def test_no_module_defines_a_structure_class():
    for path in sorted(PACKAGE.glob("*.py")):
        assert structure_class_sites(path.read_text(encoding="utf-8")) == [], path.name


def test_structure_class_checker_flags_each_definition():
    source = (
        "from .tensors import MetricPoint, metric_factors\n"
        "class StatPoint:\n"
        "    def __init__(self, g, a):\n"
        "        self.g = g\n"
        "def CubicForm(n, packed):\n"
        "    return packed\n"
        "Tensor = tuple\n"
        "stat_point = StatPoint\n"
    )
    assert structure_class_sites(source) == [
        "MetricPoint:1", "StatPoint:2", "CubicForm:5", "Tensor:7"]


def packed_triple_sites(source: str) -> list[str]:
    """Loops over the packed cubic multi-indices i <= j <= k, as ``line``.

    Three nested ``range`` loops, each starting at the variable of the one around it,
    or ``combinations_with_replacement(..., 3)``: only ``structures_io.cubic_triples``
    builds the triples, and every other module reads them from there.
    """
    found = []

    def enter(target, it, env):
        """env with the loop's variable bound to the length of its chain of range starts."""
        if not (isinstance(target, ast.Name) and isinstance(it, ast.Call)
                and getattr(it.func, "id", None) == "range"):
            return env
        start = it.args[0] if len(it.args) > 1 else None
        depth = 1 + env.get(getattr(start, "id", None), 0)
        if depth >= 3:
            found.append(it.lineno)
        return {**env, target.id: depth}

    def visit(node, env):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            inner = enter(node.target, node.iter, env)
            for child in node.body:
                visit(child, inner)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                env = enter(gen.target, gen.iter, env)
            for child in ((node.key, node.value) if isinstance(node, ast.DictComp)
                          else (node.elt,)):
                visit(child, env)
            return
        if (isinstance(node, ast.Call)
                and (getattr(node.func, "attr", None) or getattr(node.func, "id", None))
                == "combinations_with_replacement"
                and len(node.args) == 2 and getattr(node.args[1], "value", None) == 3):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, env)

    visit(ast.parse(source), {})
    return [f"line {line}" for line in sorted(found)]


def test_only_structures_io_builds_packed_triples():
    for path in sorted(PACKAGE.glob("*.py")):
        sites = packed_triple_sites(path.read_text(encoding="utf-8"))
        assert (sites != []) == (path.name == "structures_io.py"), (path.name, sites)


def test_triple_checker_flags_each_copy():
    source = (
        "import itertools\n"
        "def sources(n, a):\n"
        "    out = {}\n"
        "    for i in range(n):\n"
        "        for j in range(i, n):\n"
        "            for k in range(j, n):\n"
        "                out[i, j, k] = a[i, j, k]\n"
        "    pairs = [(p, q) for p in range(n) for q in range(p, n)]\n"
        "    full = [(p, q, r) for p in range(n) for q in range(n) for r in range(n)]\n"
        "    return out, pairs, full, list(itertools.combinations_with_replacement(range(n), 3))\n"
        "TRIPLES = [(x, y, z) for x in range(3) for y in range(x, 3) for z in range(y, 3)]\n"
    )
    assert packed_triple_sites(source) == ["line 6", "line 10", "line 11"]


# each contraction of K with itself or with tau -> (file, function) sites that must call it
COMMUTATOR_KERNELS = {
    "commutator_curvature": [("points.py", "_bracket_up"), ("charts.py", "statistical_connections")],
    "gram_k": [("points.py", "_ric"), ("charts.py", "ricci_decomposition_residuals"),
               ("charts.py", "cubic_simons_residuals")],
    "tau_circ_k": [("points.py", "_ric"),
                   ("charts.py", "ricci_decomposition_residuals"),
                   ("charts.py", "cubic_simons_residuals")],
    "lower_first": [("points.py", "bracket_kk"), ("charts.py", "statistical_connections")],
}


def kernel_site_violations(sources: dict[str, str], kernels) -> list[str]:
    """Sites of a kernel that do not call it, or that also call ``np.einsum``.

    Each kernel is defined in ``tensors.py``; a site calls it by name, so the
    contraction is written once whichever route reads it.
    """
    functions = {}
    for name, source in sources.items():
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for member in members:
                if isinstance(member, ast.FunctionDef):
                    functions[(name, prefix + member.name)] = member
    tensors = {node.name for node in ast.parse(sources["tensors.py"]).body
               if isinstance(node, ast.FunctionDef)}
    found = []
    for kernel, sites in kernels.items():
        if kernel not in tensors:
            found.append(f"{kernel}: not defined in tensors.py")
        for site in sites:
            called = {getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                      for call in ast.walk(functions[site]) if isinstance(call, ast.Call)}
            if kernel not in called:
                found.append(f"{kernel}: {site[0]}:{site[1]} does not call it")
            if "einsum" in called:
                found.append(f"{kernel}: {site[0]}:{site[1]} calls einsum")
    return found


def test_commutator_kernels_have_one_site():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert kernel_site_violations(sources, COMMUTATOR_KERNELS) == []


def test_kernel_site_checker_flags_each_copy():
    sources = {
        "tensors.py": "def gram_k(ginv, g, k):\n    return k\n",
        "points.py": (
            "def _ric(ginv, g, k):\n"
            "    return np.einsum('ab,mn,mia,njb->ij', ginv, g, k, k)\n"
            "def _bracket_up(g, a):\n"
            "    return commutator_curvature(raise_last(g, a))\n"
        ),
        "charts.py": (
            "def ricci_decomposition_residuals(cs, x):\n"
            "    return gram_k(cs.ginv, cs.g, np.einsum('mij->mij', cs.k))\n"
        ),
    }
    kernels = {"gram_k": COMMUTATOR_KERNELS["gram_k"][:2],
               "commutator_curvature": [("points.py", "_bracket_up")]}
    assert kernel_site_violations(sources, kernels) == [
        "gram_k: points.py:_ric does not call it",
        "gram_k: points.py:_ric calls einsum",
        "gram_k: charts.py:ricci_decomposition_residuals calls einsum",
        "commutator_curvature: not defined in tensors.py",
    ]


# random sweep of suites.py -> the points kernels through which it reaches its inequalities
SWEEP_KERNELS = {
    "sweep_trace_inequalities": {"quarter_terms", "norm_gap", "quarter_parts", "trace_form"},
    "sweep_cubic_norm_bounds": {"trace_free_projection", "cubic_norm_sq", "lp_norms"},
}

CONTRACTIONS = {"einsum", "tensordot", "dot", "inner", "matmul"}


def sweep_kernel_violations(source: str, sweeps) -> list[str]:
    """Sweeps that contract arrays themselves, or that do not call a kernel of ``points``.

    The sweeps and the pointwise checks share one kernel per quantity; a contraction
    written in a sweep would be a second copy, free to differ in layout or formula.
    """
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    found = []
    for name, kernels in sweeps.items():
        if name not in functions:
            found.append(f"{name}: not defined")
            continue
        called, own = set(), []
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                own.append((node.lineno, "uses @"))
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = getattr(func, "attr", None) or getattr(func, "id", None)
            if callee in CONTRACTIONS:
                own.append((node.lineno, f"calls {callee}"))
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "points_mod":
                called.add(func.attr)
        found += [f"{name}:{line}: {what}" for line, what in sorted(own)]
        found += [f"{name}: does not call points_mod.{k}" for k in sorted(kernels - called)]
    return found


def test_sweeps_reach_their_inequalities_through_the_points_kernels():
    source = (PACKAGE / "suites.py").read_text(encoding="utf-8")
    assert sweep_kernel_violations(source, SWEEP_KERNELS) == []


def test_sweep_checker_flags_each_copy():
    source = (
        "import numpy as np\n"
        "def sweep_trace_inequalities(n, count, seed):\n"
        "    tau = np.einsum('...iim->...m', a)\n"
        "    gap = points_mod.norm_gap(a) + a @ a + np.tensordot(a, a)\n"
        "    return points_mod.quarter_terms(a, u), points_mod.quarter_parts(tau, a, a)\n"
    )
    assert sweep_kernel_violations(source, SWEEP_KERNELS) == [
        "sweep_trace_inequalities:3: calls einsum",
        "sweep_trace_inequalities:4: calls tensordot",
        "sweep_trace_inequalities:4: uses @",
        "sweep_trace_inequalities: does not call points_mod.trace_form",
        "sweep_cubic_norm_bounds: not defined",
    ]


def quadrature_rule_sites(sources: dict[str, str]) -> list[str]:
    """Calls of ``SphereQuadrature(...)``, as ``file:function`` (``module`` at top level),
    marked `` uncached`` unless the innermost function around them is an ``lru_cache``.

    A quadrature rule is built once per process and handed out read-only, so only the
    cached product-rule constructor of ``spheres.py`` builds one; a rule built anywhere
    else would be built again on every pass, or be writable.
    """
    found = []

    def visit(name, node, scope, cached):
        for child in ast.iter_child_nodes(node):
            func = child.func if isinstance(child, ast.Call) else None
            if (getattr(func, "id", None) or getattr(func, "attr", None)) == "SphereQuadrature":
                where = f"{name}:{'.'.join(scope) or 'module'}"
                found.append(where if cached else f"{where} uncached")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lru = any("lru_cache" in ast.unparse(d) for d in child.decorator_list)
                visit(name, child, scope + [child.name], lru)
            elif isinstance(child, ast.ClassDef):
                visit(name, child, scope + [child.name], False)
            else:
                visit(name, child, scope, cached)

    for name, source in sorted(sources.items()):
        visit(name, ast.parse(source), [], False)
    return sorted(found)


def test_only_the_cached_constructors_build_quadrature_rules():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert quadrature_rule_sites(sources) == ["spheres.py:_product_gauss"]


def test_quadrature_rule_checker_flags_each_uncached_build():
    sources = {
        "spheres.py": (
            "import functools\n"
            "@functools.lru_cache(maxsize=64)\n"
            "def _product_gauss(n, order):\n"
            "    def fresh():\n"
            "        return SphereQuadrature(v, w)\n"
            "    return SphereQuadrature(v, w)\n"
            "def product_gauss(n, order=12):\n"
            "    return SphereQuadrature(v, w)\n"
        ),
        "suites.py": (
            "from . import spheres as spheres_mod\n"
            "RULE = spheres_mod.SphereQuadrature(v, w)\n"
            "class Suite:\n"
            "    def rule(self):\n"
            "        return spheres_mod.SphereQuadrature(v, w)\n"
        ),
    }
    assert quadrature_rule_sites(sources) == [
        "spheres.py:_product_gauss",
        "spheres.py:_product_gauss.fresh uncached",
        "spheres.py:product_gauss uncached",
        "suites.py:Suite.rule uncached",
        "suites.py:module uncached",
    ]


# the Generator methods that draw, plus the legacy module-level samplers of numpy.random
_DRAWS = {"default_rng", "random", "uniform", "normal", "standard_normal", "integers",
          "choice", "permutation", "permuted", "shuffle", "rand", "randn", "randint"}


def random_draw_sites(source: str) -> list[str]:
    """Functions that draw random numbers, as ``function`` (``module`` at top level).

    A draw is a call of ``default_rng`` or of a sampling method (``rng.uniform``,
    ``np.random.rand``, ...).  In ``points.py`` only the random-structure generators
    draw: every other quantity there is a deterministic function of (g, a), with no
    seeded search.  In ``spheres.py`` only ``integrate_monte_carlo`` draws: a second
    maker of Monte Carlo nodes would be a second path to the same estimate.
    """
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            func = child.func if isinstance(child, ast.Call) else None
            if (getattr(func, "id", None) or getattr(func, "attr", None)) in _DRAWS:
                found.add(".".join(scope) or "module")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [])
    return sorted(found)


def test_only_the_random_generators_of_points_draw():
    source = (PACKAGE / "points.py").read_text(encoding="utf-8")
    assert random_draw_sites(source) == ["random_metric", "random_stat_point"]


def test_only_integrate_monte_carlo_draws_in_spheres():
    source = (PACKAGE / "spheres.py").read_text(encoding="utf-8")
    assert random_draw_sites(source) == ["integrate_monte_carlo"]


def test_draw_checker_flags_each_seeded_draw():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "NOISE = np.random.rand(3)\n"
        "def random_metric(n, rng):\n"
        "    return rng.uniform(-1.0, 1.0, (n, n))\n"
        "def _equality_frames(frame, seed=20240):\n"
        "    return np.random.default_rng(seed).standard_normal((64, 2, 2))\n"
        "class Search:\n"
        "    def frames(self):\n"
        "        return default_rng(1).normal(size=3)\n"
    )
    assert random_draw_sites(source) == [
        "Search.frames", "_equality_frames", "module", "random_metric"]


# the producers of the structural chart checks, and the residual reader of their masks
CHART_PRODUCERS = {"metricity_residual", "statistical_connections", "curvature_hat_invariants",
                   "ricci_decomposition_residuals", "sectional_nabla", "sectional_hat",
                   "sectional_bracket", "duality_involution_defect", "residuals_at"}
# the suites that record chart checks; each records them through chart_checks
CHART_CHECK_CALLERS = ("differential_suite", "check_structure")


def chart_check_violations(source: str) -> list[str]:
    """Producer calls made by a chart-check caller itself, and producers chart_checks misses.

    ``chart_checks`` runs every producer once and records every key it returns; a
    producer call in a caller is a second copy of that per-point loop, free to record
    a hand-picked subset of the keys.
    """
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    found = []
    for name in ("chart_checks",) + CHART_CHECK_CALLERS:
        if name not in functions:
            found.append(f"{name}: not defined")
            continue
        calls = sorted((node.lineno, getattr(node.func, "attr", None) or
                        getattr(node.func, "id", None))
                       for node in ast.walk(functions[name]) if isinstance(node, ast.Call))
        called = {callee for _, callee in calls}
        if name == "chart_checks":
            found += [f"chart_checks: does not call {p}" for p in sorted(CHART_PRODUCERS - called)]
            continue
        found += [f"{name}: calls {callee}" for _, callee in calls if callee in CHART_PRODUCERS]
        if "chart_checks" not in called:
            found.append(f"{name}: does not call chart_checks")
    return found


def test_chart_checks_are_recorded_through_one_routine():
    source = (PACKAGE / "suites.py").read_text(encoding="utf-8")
    assert chart_check_violations(source) == [
        # the closed-form Poincare chart's sectional curvature, not a chart check
        "differential_suite: calls sectional_hat",
        # hessian-flatness reads R at a point off the sample points of chart_checks
        "differential_suite: calls statistical_connections",
    ]


def test_chart_check_checker_flags_each_copy():
    source = (
        "def chart_checks(col, cs, x, locations):\n"
        "    conn = charts_mod.statistical_connections(cs, x)\n"
        "    for i, loc in enumerate(locations):\n"
        "        for key, value in charts_mod.residuals_at(conn.residuals, i).items():\n"
        "            col.add(key, value, loc)\n"
        "def differential_suite(cfg):\n"
        "    chart_checks(col, cs, xs, locs)\n"
        "    for i, x in enumerate(xs):\n"
        "        col.add('metricity', charts_mod.metricity_residual(cs, xs)[i], loc)\n"
        "        for key, value in residuals_at(ricci, i).items():\n"
        "            col.add(key, value, loc)\n"
        "def check_structure(structure):\n"
        "    rd = charts_mod.ricci_decomposition_residuals(structure, mid)\n"
    )
    assert chart_check_violations(source) == [
        "chart_checks: does not call curvature_hat_invariants",
        "chart_checks: does not call duality_involution_defect",
        "chart_checks: does not call metricity_residual",
        "chart_checks: does not call ricci_decomposition_residuals",
        "chart_checks: does not call sectional_bracket",
        "chart_checks: does not call sectional_hat",
        "chart_checks: does not call sectional_nabla",
        "differential_suite: calls metricity_residual",
        "differential_suite: calls residuals_at",
        "check_structure: calls ricci_decomposition_residuals",
        "check_structure: does not call chart_checks",
    ]


SINGLE_POINT_HELPERS = ("single_point_rule", "two_copies", "first_copy", "first_of_two")


def single_point_rule_sites(sources: dict[str, str]) -> list[str]:
    """Definitions of the batch-of-two rule outside ``tensors.py``, and what tensors lacks.

    A point runs alone as a batch of two copies of it by one rule: a function named like one
    of its helpers, or a copy made by ``repeat`` with a count of 2, belongs to ``tensors.py``.
    """
    found = []
    for name, source in sorted(sources.items()):
        tree = ast.parse(source)
        defined = {node.name.lstrip("_") for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if name == "tensors.py":
            found += [f"tensors.py lacks {h}" for h in SINGLE_POINT_HELPERS[:1] if h not in defined]
            continue
        found += [f"{name}: {h}" for h in SINGLE_POINT_HELPERS if h in defined]
        found += [f"{name}:{node.lineno}: repeat" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "repeat"
                  and any(isinstance(arg, ast.Constant) and arg.value == 2 for arg in node.args)]
    return found


def test_one_single_point_rule():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert single_point_rule_sites(sources) == []


def test_single_point_rule_checker_flags_each_copy():
    sources = {
        "tensors.py": "def batch_last(x, k):\n    return x\n",
        "points.py": ("import numpy as np\n"
                      "def _first_of_two(kernel, x):\n"
                      "    return kernel(np.repeat(x[..., None], 2, axis=-1))[0]\n"),
        "charts.py": ("def f(x):\n    return np.repeat(x, 3, axis=0)\n"
                      "def g(x):\n    return x[..., None].repeat(2, axis=-1)[..., 0]\n"),
    }
    assert single_point_rule_sites(sources) == [
        "charts.py:4: repeat", "points.py: first_of_two", "points.py:3: repeat",
        "tensors.py lacks single_point_rule"]


def single_point_branches(source: str) -> list[str]:
    """Tests of a point's batch axes: a comparison of ``.ndim`` or ``np.ndim(...)`` with a
    number, or of ``prod(...)``, ``len(...)`` or ``.size`` with 1.

    A producer of ``charts.py`` or a kernel of ``points.py`` treats one point as a batch:
    the single-point rule of ``tensors`` gives it the bits of a batch row.
    """
    def kind(node):
        called = getattr(node.func, "id", None) or getattr(node.func, "attr", None) if isinstance(
            node, ast.Call) else None
        if isinstance(node, ast.Attribute) and node.attr == "ndim" or called == "ndim":
            return "ndim"
        if isinstance(node, ast.Attribute) and node.attr == "size" or called in ("prod", "len"):
            return "count"
        return None

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left] + node.comparators
        numbers = {side.value for side in sides if isinstance(side, ast.Constant)}
        for side in sides:
            if kind(side) == "ndim" and numbers or kind(side) == "count" and 1 in numbers:
                found.append(f"line {node.lineno}: {kind(side)}")
    return found


def test_charts_and_points_have_no_single_point_branch():
    for name in ("charts.py", "points.py"):
        assert single_point_branches((PACKAGE / name).read_text(encoding="utf-8")) == [], name


def test_single_point_branch_checker_flags_each_test():
    source = (
        "import math\n"
        "import numpy as np\n"
        "def f(x):\n"
        "    if x.ndim == 1:\n"
        "        return x\n"
        "    return float(x) if np.ndim(x) == 0 else x\n"
        "def g(batch, x):\n"
        "    return math.prod(batch) == 1 or x.size <= 1 or 1 != len(x)\n"
        "def h(x, y, n):\n"
        "    return x.ndim - y.ndim, len(x) == 2, x.ndim == n\n"
    )
    assert single_point_branches(source) == [
        "line 4: ndim", "line 6: ndim", "line 8: count", "line 8: count", "line 8: count"]


def lattice_block_sites(sources: dict[str, str]) -> list[str]:
    """Uses of the name ``LATTICE_BLOCK`` outside ``charts.py``, as ``file:line``.

    ``ChartStructure.lattice_blocks`` is the one walk over a chart's lattice: the spot check,
    the bundle integrals and the maximum probe read their lattices through it, so no other
    module cuts a lattice into blocks.
    """
    found = []
    for name, source in sorted(sources.items()):
        if name == "charts.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Name) and node.id == "LATTICE_BLOCK"
                    or isinstance(node, ast.Attribute) and node.attr == "LATTICE_BLOCK"
                    or isinstance(node, ast.alias) and node.name == "LATTICE_BLOCK"):
                found.append((name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_only_charts_walks_a_lattice():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert lattice_block_sites(sources) == []


def test_lattice_walk_checker_flags_each_copy():
    sources = {
        "charts.py": (
            "LATTICE_BLOCK = 1024\n"
            "def lattice_blocks(cs, counts):\n"
            "    for start in range(0, 99, LATTICE_BLOCK):\n"
            "        yield start\n"
        ),
        "spheres.py": (
            "from .charts import LATTICE_BLOCK, ChartStructure\n"
            "def walk(points):\n"
            "    for start in range(0, len(points), LATTICE_BLOCK):\n"
            "        yield points[start:start + LATTICE_BLOCK]\n"
        ),
        "bounds.py": (
            "from . import charts as charts_mod\n"
            "STEP = 8\n"
            "def probe(cs, m):\n"
            "    return range(0, m, charts_mod.LATTICE_BLOCK)\n"
            "LATTICE_BLOCK = 64\n"
        ),
    }
    assert lattice_block_sites(sources) == [
        "bounds.py:4", "bounds.py:5", "spheres.py:1", "spheres.py:3", "spheres.py:4"]
