"""JSON schemas for structure files plus canonical serialization.

Pointwise structure: {"n": int, "g": [[...]], "A": {"ijk": value}} where
cubic keys are 1-based digit strings over sorted indices (n <= 8 keeps
single digits unambiguous).  Chart structure: {"n", "domain", "periodic",
"h", "g": expression matrix, "A": {"ijk": expression}, "fields": {...}}.

A point file ingests as the read-only arrays (g, a); the packed cubic
entries i <= j <= k and their dense array are converted here alone.
Canonical form: sorted keys, 17-significant-digit floats, newline-free
separators; ingest followed by emit is the identity on canonical files.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .charts import ChartStructure
from .errors import ConstructionError, SchemaError
from .expressions import parse_expression
from .tensors import metric_factors


def _format_float(v) -> str:
    v = float(v)
    if v.is_integer():
        # -0.0 writes as 0.0
        return f"{int(v)}.0" if abs(v) < 1e15 else format(v, ".17g")
    if not math.isfinite(v):
        raise SchemaError(f"non-finite float {v!r} cannot be serialized")
    return format(v, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting.

    Each value's writer is found by its type in one cached lookup (_writer_for).
    """
    return _writer_for(type(obj))(obj)


def _write_int(v) -> str:
    return str(int(v))


def _write_array(items) -> str:
    return "[" + ", ".join([canonical_json(v) for v in items]) + "]"


def _write_object(obj: dict) -> str:
    return "{" + ", ".join([f"{encode_basestring_ascii(str(k))}: {canonical_json(v)}"
                            for k, v in sorted(obj.items())]) + "}"


@functools.lru_cache(maxsize=None)
def _writer_for(cls):
    """The writer of values of type cls; SchemaError for a type that has none."""
    if cls in (type(None), bool):
        return {None: "null", True: "true", False: "false"}.__getitem__
    if issubclass(cls, (int, np.integer)):
        return _write_int
    if issubclass(cls, (float, np.floating)):
        return _format_float
    if issubclass(cls, str):
        return encode_basestring_ascii
    if issubclass(cls, (list, tuple, np.ndarray)):
        return _write_array
    if issubclass(cls, dict):
        return _write_object
    raise SchemaError(f"cannot serialize {cls.__name__}")


def _require(cond, message, pointer):
    if not cond:
        raise SchemaError(message, pointer=pointer)


def _is_int(value) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that is a finite float; true and false are not numbers here."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _dimension(data: dict) -> int:
    n = data["n"]
    _require(_is_int(n) and n >= 1, f"n must be a positive integer, got {n!r}", "/n")
    return n


def _square_rows(rows, n: int) -> None:
    """g must be a list of n rows, each a list of n entries."""
    _require(isinstance(rows, list) and len(rows) == n, f"g must be an {n}x{n} matrix", "/g")
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == n,
                 f"row {i} of g must be a list of {n} entries", f"/g/{i}")


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


@functools.cache
def cubic_triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """The packed multi-indices i <= j <= k of a cubic form on n dimensions, in order."""
    return tuple((i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n))


def cubic_from_entries(n: int, entries: dict) -> np.ndarray:
    """Read-only dense cubic form a[n, n, n] from {(i, j, k): value} (0-based, any index order).

    Each value is written to every permutation of its index, so a is exactly symmetric.
    """
    a = np.zeros((n, n, n))
    for key, value in entries.items():
        t = tuple(sorted(key))
        if len(t) != 3 or not all(0 <= i < n for i in t):
            raise ConstructionError(f"cubic form index {key} out of range for n={n}")
        for p in set(itertools.permutations(t)):
            a[p] = float(value)
    a.setflags(write=False)
    return a


def cubic_entries(a: np.ndarray) -> dict[tuple[int, int, int], float]:
    """{(i, j, k): a[i, j, k]} over the packed multi-indices whose entry is nonzero."""
    return {t: float(a[t]) for t in cubic_triples(len(a)) if a[t] != 0.0}


def stat_point_to_dict(g: np.ndarray, a: np.ndarray) -> dict:
    entries = {f"{i + 1}{j + 1}{k + 1}": v for (i, j, k), v in cubic_entries(a).items()}
    return {"n": len(g), "g": [[float(v) for v in row] for row in g], "A": entries}


def stat_point_from_dict(data: dict) -> tuple[np.ndarray, np.ndarray]:
    """The structure (g, a) of a point file, as read-only arrays.

    g must be exactly symmetric and positive definite, of dimension at most 8;
    metric_factors checks the dimension and names the first pivot that is not positive.
    """
    _require(isinstance(data, dict), "structure file must be a JSON object", "")
    for key in ("n", "g", "A"):
        _require(key in data, f"missing required key {key!r}", f"/{key}")
    n = _dimension(data)
    g_rows = data["g"]
    _square_rows(g_rows, n)
    for i, row in enumerate(g_rows):
        for j, value in enumerate(row):
            _require(_is_number(value), f"g entries must be finite numbers, got {value!r}",
                     f"/g/{i}/{j}")
    g = np.asarray(g_rows, dtype=float)
    if not np.array_equal(g, g.T):
        raise ConstructionError("metric components are not symmetric")
    metric_factors(g)
    g.setflags(write=False)
    _require(isinstance(data["A"], dict), "A must be an object of cubic entries", "/A")
    entries = {}
    for key, value in data["A"].items():
        idx = _parse_cubic_key(key, n, f"/A/{key}")
        _require(_is_number(value),
                 f"cubic value for {key!r} must be a finite number", f"/A/{key}")
        entries[idx] = float(value)
    return g, cubic_from_entries(n, entries)


def chart_to_dict(cs: ChartStructure) -> dict:
    cs.require_single("emit")
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
    n = _dimension(data)
    domain = data["domain"]
    _require(isinstance(domain, list) and len(domain) == n,
             f"domain must be a list of {n} [lo, hi] pairs", "/domain")
    for i, pair in enumerate(domain):
        _require(isinstance(pair, list) and len(pair) == 2,
                 "a domain entry must be a [lo, hi] pair", f"/domain/{i}")
        for j, value in enumerate(pair):
            _require(_is_number(value), f"domain bounds must be finite numbers, got {value!r}",
                     f"/domain/{i}/{j}")
    g_exprs = data["g"]
    _square_rows(g_exprs, n)
    g_parsed = [[_expression(g_exprs[i][j], n, f"/g/{i}/{j}") for j in range(n)] for i in range(n)]
    _require(isinstance(data["A"], dict), "A must be an object of cubic expressions", "/A")
    a_parsed = {}
    for key, expr in data["A"].items():
        _parse_cubic_key(key, n, f"/A/{key}")
        a_parsed[key] = _expression(expr, n, f"/A/{key}")
    periodic = data.get("periodic", [False] * n)
    _require(isinstance(periodic, list) and len(periodic) == n
             and all(isinstance(p, bool) for p in periodic),
             f"periodic must be a list of {n} booleans", "/periodic")
    h = data.get("h", 1e-3)
    _require(_is_number(h) and h > 0, f"h must be a positive finite number, got {h!r}", "/h")
    fields = data.get("fields") or {}
    _require(isinstance(fields, dict), "fields must be an object of named tensor fields", "/fields")
    aux_parsed = {}
    for name, spec in fields.items():
        ptr = f"/fields/{name}"
        _require(isinstance(spec, dict), "a field must be an object", ptr)
        degree, comps = spec.get("degree"), spec.get("components")
        _require(_is_int(degree) and degree >= 0,
                 f"degree must be a nonnegative integer, got {degree!r}", f"{ptr}/degree")
        _require(isinstance(comps, dict), "components must be an object", f"{ptr}/components")
        parsed = {}
        for key, expr in comps.items():
            _require(len(key) == degree and all(c in "123456789"[:n] for c in key),
                     f"key {key!r} must be {degree} digit(s) in 1..{n}", f"{ptr}/components/{key}")
            parsed[key] = _expression(expr, n, f"{ptr}/components/{key}")
        aux_parsed[name] = {"degree": degree, "components": parsed}
    return ChartStructure.from_expressions(
        n,
        np.asarray(domain, dtype=float),
        g_parsed,
        a_parsed,
        h=float(h),
        periodic=periodic,
        aux_fields=aux_parsed,
    )


def _expression(text, n: int, pointer: str):
    """Parse one expression of a chart file; a parse error names its JSON pointer."""
    _require(not isinstance(text, bool), f"expected an expression or a number, got {text!r}",
             pointer)
    try:
        return parse_expression(text, n)
    except SchemaError as exc:
        raise SchemaError(str(exc), pointer=pointer) from exc


def is_chart_dict(data: dict) -> bool:
    return isinstance(data, dict) and "domain" in data


def ingest(path) -> tuple[np.ndarray, np.ndarray] | ChartStructure:
    """Load a structure file, dispatching on the presence of a chart domain: a chart, or
    the arrays (g, a) of a point."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", pointer="") from exc
    if is_chart_dict(data):
        return chart_from_dict(data)
    return stat_point_from_dict(data)


def emit(structure: tuple[np.ndarray, np.ndarray] | ChartStructure) -> str:
    """Canonical JSON of a chart, or of a point given as its arrays (g, a).

    ingest(emit(point)) gives back arrays equal in value to (g, a), bit for bit except
    that a signed zero -0.0 comes back as 0.0: a zero is written as 0.0, and a zero
    entry of A is not written at all.
    """
    if isinstance(structure, ChartStructure):
        return canonical_json(chart_to_dict(structure))
    return canonical_json(stat_point_to_dict(*structure))
