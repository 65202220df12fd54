"""Every check the suites and ``check`` emit has one row in ``suites.CHECKS``; every row is used.

A check's id is its row's stem plus an optional ``-n{n}``, ``-halving{i}``,
``-a{a}-b{b}`` or ``[field]`` suffix, and it carries its row's anchor.
"""

import json
import re
from pathlib import Path

import pytest

from codazzi.structures_io import ingest
from codazzi.suites import (
    CHECKS, FD, FD_TOL_CONSTANTS, FROM_DATA, SuiteConfig, check_structure, run_suite,
)

STRUCTURES = Path(__file__).resolve().parents[1] / "demos" / "structures"
SUFFIX = re.compile(r"(-n\d+(-halving\d+)?|-a-?[\d.]+-b-?[\d.]+|\[[^\]]+\])$")

# a chart with one auxiliary field of each degree, so check_structure emits its
# Weitzenbock and symmetric 2-form checks
CHART_WITH_FIELDS = {
    "n": 2,
    "domain": [[0.0, 6.283185307179586], [0.0, 6.283185307179586]],
    "periodic": [True, True],
    "h": 0.001,
    "g": [["exp(0.5*sin(x1))", "0"], ["0", "exp(0.5*sin(x1))"]],
    "A": {"111": "0.2*cos(x2)"},
    "fields": {
        "tau": {"degree": 1, "components": {"1": "sin(x1)", "2": "0.5"}},
        "beta": {"degree": 2, "components": {"11": "cos(x2)", "12": "0.1", "22": "1"}},
    },
}


def rows_of(check_id: str) -> set[str]:
    return {stem for stem in (check_id, SUFFIX.sub("", check_id)) if stem in CHECKS}


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """Every check of run_suite("all") at two steps and of check_structure on each structure."""
    checks = []
    for cfg in (SuiteConfig(), SuiteConfig(h=5e-3)):
        checks += run_suite("all", cfg).checks
    path = tmp_path_factory.mktemp("chart") / "fields.json"
    path.write_text(json.dumps(CHART_WITH_FIELDS))
    for structure in [*sorted(STRUCTURES.glob("*.json")), path]:
        checks += check_structure(ingest(structure)).checks
    return checks


def test_every_check_has_one_row_and_its_anchor(emitted):
    ids = {c.id for c in emitted}
    # the two configs and the fields chart reach the checks only they emit
    assert {"sym2-simons-n3", "weitzenbock[tau]", "sym2-simons[beta]"} <= ids
    assert any(c.id == "sym2-simons-n3" and c.verdict == "precondition-skipped" for c in emitted)
    unmapped = sorted({c.id for c in emitted if len(rows_of(c.id)) != 1})
    assert unmapped == []
    wrong = sorted({c.id for c in emitted if c.anchor != CHECKS[rows_of(c.id).pop()].anchor})
    assert wrong == []


def test_every_row_is_emitted(emitted):
    used = set().union(*(rows_of(c.id) for c in emitted))
    assert sorted(set(CHECKS) - used) == []


def test_rules_name_known_families_and_the_data_set_bars():
    # every frozen constant is read by some row
    families = {row.rule.family for row in CHECKS.values() if isinstance(row.rule, FD)}
    assert families == set(FD_TOL_CONSTANTS)
    assert {stem for stem, row in CHECKS.items() if row.rule is FROM_DATA} == {
        "quadrature-cross-validation", "ros-refinement-shrink"}
