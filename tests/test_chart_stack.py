"""``charts.stack_charts``: a batch of member charts read as one chart at x[C, P, n].

Each member of a stack gets the bits it gets alone, and ``differential_suite``, which runs
its chart checks on stacks, records what a loop over its charts one at a time records.
"""

import numpy as np
import pytest

from codazzi import charts, suites
from codazzi.errors import ConstructionError, PreconditionError
from codazzi.generators import GeneratorSpec, generate, sample_points

# the charts of differential_suite (n = 2), and G1, G2 and G4 at n = 3, where the
# periodic G1 and G4 charts share a stack with the non-periodic G2 charts
STACKS = {
    "differential": [GeneratorSpec(family, n=2, seed=seed, params=params)
                     for family, params in suites._DIFF_FAMILIES for seed in range(3)],
    "n3": [GeneratorSpec(family, n=3, seed=seed)
           for family in ("G1-constant-A", "G2-hessian-potential", "G4-random-smooth")
           for seed in range(3)],
}

CLOSED_FORM_ROWS = {"poincare-christoffel", "poincare-sectional", "sphere-scalar-curvature"}


def rows(checks):
    return [(c.id, c.location, c.residual.hex(), c.tolerance.hex(), c.verdict) for c in checks]


@pytest.mark.parametrize("name", sorted(STACKS))
def test_each_member_gets_the_checks_it_gets_alone(name):
    members = [generate(spec) for spec in STACKS[name]]
    xs = np.stack([sample_points(cs, 3, seed=spec.seed)
                   for cs, spec in zip(members, STACKS[name])])
    labels = [f"{c}/{p}" for c in range(len(members)) for p in range(3)]
    cfg = suites.SuiteConfig()
    stacked = suites._Collector(cfg)
    scales = suites.chart_checks(stacked, charts.stack_charts(members), xs, labels)
    alone = suites._Collector(cfg)
    for c, cs in enumerate(members):
        assert suites.chart_checks(alone, cs, xs[c], labels[3 * c:3 * c + 3]).tolist() == (
            scales[c].tolist())
    assert rows(stacked.checks) == rows(alone.checks)


def per_chart_differential(cfg: suites.SuiteConfig) -> list:
    """The generated-chart rows of differential_suite, from a loop that reads one chart at a
    time: the reference for the suite's records."""
    col = suites._Collector(cfg)
    seed0 = {}
    for family, params in suites._DIFF_FAMILIES:
        for seed in range(cfg.seeds):
            cs = generate(GeneratorSpec(family, n=2, seed=seed, params=dict(params, h=cfg.h)))
            if seed == 0:
                seed0[family] = cs
            xs = sample_points(cs, 2, seed=seed)
            suites.chart_checks(col, cs, xs,
                                [f"{family}/seed={seed}/{suites._point_label(x)}" for x in xs])
            if family == "G2-hessian-potential":
                x = cs.domain.mean(axis=1) + 0.03
                conn = charts.statistical_connections(cs, x)
                col.add("hessian-flatness", float(np.max(np.abs(conn.r_nabla))),
                        f"{family}/seed={seed}")
    for tag, cs, should_hold in (("conformal", seed0["G5-periodic-trig"], True),
                                 ("random", seed0["G4-random-smooth"], False)):
        x = sample_points(cs, 1, seed=7)[0]
        defects = charts.conjugate_symmetry_criteria(cs, x)
        if should_hold:
            residual = max(defects["r-vs-rbar"], defects["zw-skew"], defects["asym-nabla-a"])
            col.add(f"conjugate-symmetry-equivalence-{tag}", residual,
                    f"G5-conformal/{suites._point_label(x)}", 10.0)
        else:
            threshold = col.tolerance("conjugate-symmetry-equivalence-conformal", 10.0)
            col.add(f"conjugate-symmetry-equivalence-{tag}", threshold - min(defects.values()),
                    f"G4-random/{suites._point_label(x)}")
    return col.checks


@pytest.mark.parametrize("cfg", [suites.SuiteConfig(), suites.SuiteConfig(seeds=1, h=5e-3)],
                         ids=["defaults", "seeds1-h5e-3"])
def test_differential_suite_records_what_a_per_chart_loop_records(cfg):
    checks, _ = suites.differential_suite(cfg)
    assert rows(c for c in checks if c.id not in CLOSED_FORM_ROWS) == rows(
        per_chart_differential(cfg))


def test_a_point_near_one_members_face_raises():
    # G2 has the box [-0.7, 0.7]^2; the G4 member is not periodic here, on [0, 2 pi]^2
    hessian = generate(GeneratorSpec("G2-hessian-potential", n=2, seed=0))
    box = generate(GeneratorSpec("G4-random-smooth", n=2, seed=0,
                                 params={"periodic": [False, False]}))
    torus = generate(GeneratorSpec("G4-random-smooth", n=2, seed=0))
    stack = charts.stack_charts([hessian, box, torus])
    inside = np.array([[[0.5, 0.5]], [[3.0, 3.0]], [[0.0, 1.0]]])
    # no member raises: each reads its own box, and a periodic axis has no face
    charts.christoffel(stack, inside)
    # (3, 3) lies inside the G4 box but outside G2's; 1.5h from a face is inside neither
    for member, point in ((0, [3.0, 3.0]), (0, [-0.7 + 1.5e-3, 0.1]), (1, [0.2, 1.5e-3])):
        x = inside.copy()
        x[member, 0] = point
        with pytest.raises(PreconditionError, match=rf"point \[{point[0]!r}, {point[1]!r}\]"):
            charts.christoffel(stack, x)


def test_a_stack_refuses_members_it_cannot_batch():
    plane = generate(GeneratorSpec("G1-constant-A", n=2, seed=0))
    space = generate(GeneratorSpec("G1-constant-A", n=3, seed=0))
    with pytest.raises(ConstructionError, match="share n and h"):
        charts.stack_charts([plane, space])
    with pytest.raises(ConstructionError, match="share n and h"):
        charts.stack_charts([plane, plane.with_step(2e-3)])
    with pytest.raises(ConstructionError, match="at least one member"):
        charts.stack_charts([])
    stack = charts.stack_charts([plane, plane])
    with pytest.raises(ConstructionError, match="cannot be a stack"):
        charts.stack_charts([stack])
    with pytest.raises(ConstructionError, match="no lattice"):
        stack.lattice(4)
