"""Verdicts recorded at the seed commit, and the comparison of a pass against them.

A check counts as failed when its verdict is ``fail``, differs from the
reference, or is missing from a pass.  Checks the reference does not know are
counted as attempted and fail only on a ``fail`` verdict.  Residual drift is
the largest ``|r - r_ref| / max(|r_ref|, tolerance)`` per check family.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.jsonl"

_FAMILY_SUFFIX = re.compile(r"(-n\d+|-halving\d+|-a-?[\d.]+-b-?[\d.]+|\[[^\]]*\])")


def family(check_id: str) -> str:
    """Check family: the id without its dimension, halving, parameter or field suffix."""
    return _FAMILY_SUFFIX.sub("", check_id)


def load(path: Path = REFERENCE_PATH) -> dict:
    """``{workload: {size: {source: [record, ...]}}}``; the file's first line is a header."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            workload, size, source, *record = json.loads(line)
            table.setdefault(workload, {}).setdefault(size, {}).setdefault(source, []).append(record)
    return table


def dumps(header: dict, table: dict) -> str:
    """The reference file: a header line, then one check per line so re-recordings diff cleanly."""
    lines = [json.dumps(header, sort_keys=True)]
    for workload, sizes in sorted(table.items()):
        for size, sources in sorted(sizes.items()):
            for source, records in sorted(sources.items()):
                lines += [json.dumps([workload, size, source, *record]) for record in records]
    return "\n".join(lines) + "\n"


def expected_sources(reference: dict, workload: str, size: str, sources) -> dict:
    """The reference records of the given sources; a source the reference lacks maps to []."""
    table = reference[workload][size]
    return {source: table.get(source, []) for source in sources}


def _keyed(records) -> dict:
    seen = Counter()
    out = {}
    for rec in records:
        base = (rec[0], rec[1])
        out[base + (seen[base],)] = rec
        seen[base] += 1
    return out


def _drift(residual, ref_residual, tolerance) -> tuple[float, float]:
    if residual is None or ref_residual is None:
        return 0.0, 0.0
    if not (math.isfinite(residual) and math.isfinite(ref_residual)):
        return (0.0, 0.0) if residual == ref_residual else (math.inf, math.inf)
    change = abs(residual - ref_residual)
    scale = max(abs(ref_residual), abs(tolerance or 0.0))
    return (change / scale if scale > 0 else (0.0 if change == 0 else math.inf)), change


class Comparison:
    """Running totals over the passes of one process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.drift: dict[str, list[float]] = {}

    def add(self, produced: dict, expected: dict) -> None:
        for source in sorted(set(produced) | set(expected)):
            got = _keyed(produced.get(source, []))
            want = _keyed(expected.get(source, []))
            for key, rec in got.items():
                self.attempted += 1
                ref = want.get(key)
                if rec[2] == "fail" or (ref is not None and ref[2] != rec[2]):
                    self.failed += 1
                    self._note(f"{source} {key[0]} @ {key[1]}: verdict {rec[2]}"
                               f" (reference {ref[2] if ref else 'none'})")
                if ref is not None:
                    rel, change = _drift(rec[3], ref[3], ref[4])
                    worst = self.drift.setdefault(family(key[0]), [0.0, 0.0])
                    worst[0], worst[1] = max(worst[0], rel), max(worst[1], change)
            for key in want.keys() - got.keys():
                self.attempted += 1
                self.failed += 1
                self._note(f"{source} {key[0]} @ {key[1]}: missing")

    def _note(self, text: str) -> None:
        if len(self.mismatches) < 20:
            self.mismatches.append(text)
