"""JSON schemas for structure files plus canonical serialization.

Pointwise structure: {"n": int, "g": [[...]], "A": {"ijk": value}} where
cubic keys are 1-based digit strings over sorted indices (n <= 8 keeps
single digits unambiguous).  Chart structure: {"n", "domain", "periodic",
"h", "g": expression matrix, "A": {"ijk": expression}, "fields": {...}}.

Canonical form: sorted keys, 17-significant-digit floats, newline-free
separators; ingest followed by emit is the identity on canonical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .charts import ChartStructure
from .errors import SchemaError
from .expressions import parse_expression
from .points import StatPoint
from .tensors import CubicForm, MetricPoint


def _format_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        raise SchemaError(f"non-finite float {v!r} cannot be serialized")
    if v == int(v) and abs(v) < 1e15:
        return f"{int(v)}.0"
    return format(v, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [canonical_json(v) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {canonical_json(v)}" for k, v in sorted(obj.items())]
        return "{" + ", ".join(items) + "}"
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


def _require(cond, message, pointer):
    if not cond:
        raise SchemaError(message, pointer=pointer)


def _parse_cubic_key(key: str, n: int, pointer: str) -> tuple[int, int, int]:
    _require(
        isinstance(key, str) and len(key) == 3 and key.isdigit(),
        f"cubic key must be three digits like '112', got {key!r}",
        pointer,
    )
    idx = tuple(int(c) - 1 for c in key)
    _require(all(0 <= i < n for i in idx), f"cubic key {key!r} out of range for n={n}", pointer)
    _require(tuple(sorted(idx)) == idx, f"cubic key {key!r} must have nondecreasing digits", pointer)
    return idx


def stat_point_to_dict(sp: StatPoint) -> dict:
    entries = {f"{i + 1}{j + 1}{k + 1}": v for (i, j, k), v in sp.A.entries().items()}
    return {"n": sp.n, "g": [[float(v) for v in row] for row in sp.g.components], "A": entries}


def stat_point_from_dict(data: dict) -> StatPoint:
    _require(isinstance(data, dict), "structure file must be a JSON object", "")
    for key in ("n", "g", "A"):
        _require(key in data, f"missing required key {key!r}", f"/{key}")
    n = data["n"]
    _require(isinstance(n, int) and n >= 1, f"n must be a positive integer, got {n!r}", "/n")
    g_rows = data["g"]
    _require(
        isinstance(g_rows, list) and len(g_rows) == n and all(len(r) == n for r in g_rows),
        f"g must be an {n}x{n} matrix",
        "/g",
    )
    try:
        g_arr = np.asarray(g_rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"g entries must be numbers: {exc}", pointer="/g") from exc
    _require(bool(np.all(np.isfinite(g_arr))), "g entries must be finite numbers", "/g")
    g = MetricPoint(g_arr)
    _require(isinstance(data["A"], dict), "A must be an object of cubic entries", "/A")
    entries = {}
    for key, value in data["A"].items():
        idx = _parse_cubic_key(key, n, f"/A/{key}")
        _require(isinstance(value, (int, float)) and math.isfinite(value),
                 f"cubic value for {key!r} must be a finite number", f"/A/{key}")
        entries[idx] = float(value)
    return StatPoint(g, CubicForm.from_entries(n, entries))


def chart_to_dict(cs: ChartStructure) -> dict:
    if cs.g_source is None or cs.a_source is None:
        raise SchemaError("chart was not built from expressions; cannot serialize closures")
    out = {
        "n": cs.n,
        "domain": [[float(lo), float(hi)] for lo, hi in cs.domain],
        "periodic": list(cs.periodic),
        "h": float(cs.h),
        "g": [list(row) for row in cs.g_source],
        "A": dict(cs.a_source),
    }
    if cs.aux_fields:
        fields = {}
        for name, aux in cs.aux_fields.items():
            if aux.source is None:
                raise SchemaError(f"auxiliary field {name!r} has no expression source")
            fields[name] = aux.source
        out["fields"] = fields
    return out


def chart_from_dict(data: dict) -> ChartStructure:
    _require(isinstance(data, dict), "chart file must be a JSON object", "")
    for key in ("n", "domain", "g", "A"):
        _require(key in data, f"missing required key {key!r}", f"/{key}")
    n = data["n"]
    _require(isinstance(n, int) and n >= 1, f"n must be a positive integer, got {n!r}", "/n")
    domain = data["domain"]
    _require(
        isinstance(domain, list) and len(domain) == n and all(len(r) == 2 for r in domain),
        f"domain must be a list of {n} [lo, hi] pairs",
        "/domain",
    )
    g_exprs = data["g"]
    _require(
        isinstance(g_exprs, list) and len(g_exprs) == n and all(len(r) == n for r in g_exprs),
        f"g must be an {n}x{n} matrix of expressions",
        "/g",
    )
    g_parsed = [[_expression(g_exprs[i][j], n, f"/g/{i}/{j}") for j in range(n)] for i in range(n)]
    _require(isinstance(data["A"], dict), "A must be an object of cubic expressions", "/A")
    a_parsed = {}
    for key, expr in data["A"].items():
        _parse_cubic_key(key, n, f"/A/{key}")
        a_parsed[key] = _expression(expr, n, f"/A/{key}")
    periodic = data.get("periodic", [False] * n)
    h = data.get("h", 1e-3)
    return ChartStructure.from_expressions(
        n,
        np.asarray(domain, dtype=float),
        g_parsed,
        a_parsed,
        h=float(h),
        periodic=periodic,
        aux_fields=data.get("fields"),
    )


def _expression(text, n: int, pointer: str):
    """Parse one expression of a chart file; a parse error names its JSON pointer."""
    try:
        return parse_expression(text, n)
    except SchemaError as exc:
        raise SchemaError(str(exc), pointer=pointer) from exc


def is_chart_dict(data: dict) -> bool:
    return isinstance(data, dict) and "domain" in data


def ingest(path) -> StatPoint | ChartStructure:
    """Load a structure file, dispatching on the presence of a chart domain."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", pointer="") from exc
    if is_chart_dict(data):
        return chart_from_dict(data)
    return stat_point_from_dict(data)


def emit(structure: StatPoint | ChartStructure) -> str:
    if isinstance(structure, StatPoint):
        return canonical_json(stat_point_to_dict(structure))
    return canonical_json(chart_to_dict(structure))
