"""Every byte of the deterministic reports holds still.

The golden files under tests/golden/ are the to_json(include_timing=False) bodies of
run_suite("all") at three configs and of the check report of each file in
demos/structures/.  They were recorded with numpy 2.4.6 under CPython 3.11 on Linux
x86_64; tests/golden/regenerate.py writes them again.  A mismatch lists each differing
record by id, location, verdict, and residual and tolerance as float.hex.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

NAMES = sorted(f"{stem}.json" for stem in regenerate.SUITE_CONFIGS) + sorted(
    f"check-{path.name}" for path in regenerate.STRUCTURES.glob("*.json"))


def _hex(value):
    return None if value is None else float(value).hex()


def _record(check: dict) -> tuple:
    return (check["id"], check["location"], check["verdict"], _hex(check["residual"]),
            _hex(check["tolerance"]))


def differences(golden: str, current: str) -> list[str]:
    """The records and top-level fields in which two report bodies differ, one per line."""
    old, new = json.loads(golden), json.loads(current)
    lines = [f"{key}: {old.get(key)!r} -> {new.get(key)!r}"
             for key in sorted((set(old) | set(new)) - {"checks"}) if old.get(key) != new.get(key)]
    old_checks, new_checks = old.get("checks", []), new.get("checks", [])
    if len(old_checks) != len(new_checks):
        lines.append(f"{len(old_checks)} checks -> {len(new_checks)}")
    for i, (a, b) in enumerate(zip(old_checks, new_checks)):
        if a != b:
            lines.append(f"#{i} {_record(a)} -> {_record(b)}")
    for i, extra in enumerate(old_checks[len(new_checks):], len(new_checks)):
        lines.append(f"#{i} {_record(extra)} -> missing")
    for i, extra in enumerate(new_checks[len(old_checks):], len(old_checks)):
        lines.append(f"#{i} missing -> {_record(extra)}")
    return lines or ["the bodies differ in formatting only"]


@pytest.fixture(scope="module")
def current():
    return regenerate.reports()


def test_the_golden_set_is_complete(current):
    assert sorted(current) == NAMES
    assert len(NAMES) == 7
    assert sorted(path.name for path in GOLDEN.glob("*.json")) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_its_golden_bytes(name, current):
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    if current[name] != golden:
        pytest.fail(f"{name} differs from its golden report "
                    "(tests/golden/regenerate.py writes it again):\n"
                    + "\n".join(differences(golden, current[name])))


def test_a_moved_residual_is_listed_with_its_bits():
    golden = (GOLDEN / "check-hyperbolic_point_2d.json").read_text(encoding="utf-8")
    body = json.loads(golden)
    check = body["checks"][0]
    moved = dict(check, residual=check["residual"] + 1e-3)
    body["checks"][0] = moved
    lines = differences(golden, json.dumps(body))
    assert lines == [f"#0 {_record(check)} -> {_record(moved)}"]
    assert float(moved["residual"]).hex() in lines[0]
