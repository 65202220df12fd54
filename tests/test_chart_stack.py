"""``charts.stack_charts``: a batch of member charts read as one chart at x[C, P, n].

Each member of a stack gets the bits it gets alone, at its own step, and the suites that
read stacks record what a loop over their charts one at a time records:
``differential_suite`` over its generated charts, ``laplacian_series`` over its steps.
"""

import numpy as np
import pytest

from codazzi import bounds, charts, spheres, suites
from codazzi.errors import ConstructionError, PreconditionError
from codazzi.generators import GeneratorSpec, generate, sample_points
from codazzi.structures_io import emit

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


def hexes(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def assert_members_get_the_checks_they_get_alone(members, xs, cfg=suites.SuiteConfig()):
    """chart_checks on the stack of members at xs[C, P, n] records, and returns as scales,
    what it records and returns for each member alone at xs[c], by float.hex."""
    points = xs.shape[1]
    labels = [f"{c}/{p}" for c in range(len(members)) for p in range(points)]
    stacked = suites._Collector(cfg)
    scales = suites.chart_checks(stacked, charts.stack_charts(members), xs, labels)
    alone = suites._Collector(cfg)
    for c, cs in enumerate(members):
        assert hexes(suites.chart_checks(alone, cs, xs[c], labels[points * c:points * (c + 1)])
                     ) == hexes(scales[c])
    assert rows(stacked.checks) == rows(alone.checks)


@pytest.mark.parametrize("name", sorted(STACKS))
def test_each_member_gets_the_checks_it_gets_alone(name):
    members = [generate(spec) for spec in STACKS[name]]
    xs = np.stack([sample_points(cs, 3, seed=spec.seed)
                   for cs, spec in zip(members, STACKS[name])])
    assert_members_get_the_checks_they_get_alone(members, xs)


@pytest.mark.parametrize("family, params", suites._DIFF_FAMILIES,
                         ids=[family for family, _ in suites._DIFF_FAMILIES])
def test_one_chart_at_four_steps_gets_the_checks_of_each_step(family, params):
    chart = generate(GeneratorSpec(family, n=2, seed=1, params=params))
    members = [chart.with_step(step) for step in (1e-3, 2e-3, 4e-3, 5e-3)]
    xs = np.stack([sample_points(members[-1], 2, seed=c) for c in range(len(members))])
    assert_members_get_the_checks_they_get_alone(members, xs)


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
    with pytest.raises(ConstructionError, match="share n: n = 3 against 2"):
        charts.stack_charts([plane, space])
    with pytest.raises(ConstructionError, match="at least one member"):
        charts.stack_charts([])
    stack = charts.stack_charts([plane, plane.with_step(2e-3)])
    assert stack.h.tolist() == [[1e-3], [2e-3]]
    with pytest.raises(ConstructionError, match="cannot be a stack"):
        charts.stack_charts([stack])


# the code that reads one chart, each called on a stack of two
SINGLE_CHART_READERS = {
    "lattice": lambda stack: stack.lattice(4),
    "with_step": lambda stack: stack.with_step(2e-3),
    "sample_points": lambda stack: sample_points(stack, 2),
    "discrete_max_probe": lambda stack: bounds.discrete_max_probe(
        stack, lambda x: x[..., 0], lattice_points=4),
    "ros_residual": lambda stack: spheres.ros_residual(stack, stack.a_field, 3, lattice=4),
    "check_structure": suites.check_structure,
    "emit": emit,
}


@pytest.mark.parametrize("reader", sorted(SINGLE_CHART_READERS))
def test_code_that_reads_one_chart_refuses_a_stack(reader):
    # expression charts, which emit writes one at a time
    stack = charts.stack_charts([generate(GeneratorSpec("G2-hessian-potential", n=2, seed=seed))
                                 for seed in range(2)])
    with pytest.raises(ConstructionError, match="reads one chart, not a stack of charts"):
        SINGLE_CHART_READERS[reader](stack)


@pytest.mark.parametrize("producer, shape", [
    ("christoffel", (2,)), ("christoffel", (2, 2)), ("christoffel", (3, 1, 2)),
    ("metricity_residual", (1, 2)), ("metricity_residual", (1, 1, 2)),
    ("conjugate_symmetry_defect", (3, 2, 2)),
])
def test_a_stack_refuses_points_of_the_wrong_shape(producer, shape):
    stack = charts.stack_charts([generate(GeneratorSpec("G1-constant-A", n=2, seed=seed))
                                 for seed in range(2)])
    with pytest.raises(PreconditionError, match=r"a stack of 2 charts reads x\[\.\.\., 2, P, n\], "
                                                rf"not x of shape \({shape[0]},"):
        getattr(charts, producer)(stack, np.full(shape, 0.1))


# the charts and fields of laplacian_series: a curved Hessian chart and the stereographic
# sphere, with a 1-form and a Codazzi 2-form on the sphere
POTENTIALS = {2: "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)",
              3: "0.4*x1**2*x2**2 + 0.3*x2**2*x3**2 + 0.35*x1**2*x3**2 "
                 "+ 0.5*(x1**2 + x2**2 + x3**2)"}


def hessian_chart(n, h):
    return charts.hessian_from_potential(POTENTIALS[n], [[-0.6, 0.6]] * n, h=h, n=n)


def sphere_chart(n, h):
    return charts.ChartStructure(n, [[-0.4, 0.4]] * n, suites._stereographic_metric(n),
                                 charts.constant_field(np.zeros((n, n, n))), h=h)


def codazzi_beta(y):
    eye = np.eye(y.shape[-1])
    r2 = np.sum(y * y, axis=-1)[..., None, None]
    e2u = 4.0 / (1 + r2) ** 2
    grad_u = -2.0 * y / (1 + r2[..., 0])
    gamma1 = (eye[:, :1] * grad_u[..., None, :] + eye[:1, :] * grad_u[..., :, None]
              - eye * grad_u[..., :1, None])
    return -gamma1 + eye * (y[..., :1, None] * e2u)


def trig_tau(y):
    return np.stack([np.sin(y[..., 0] + 2.0 * y[..., 1]), np.cos(y[..., 0] - y[..., 1])]
                    + [np.sin(y[..., i]) for i in range(2, y.shape[-1])], axis=-1)


# the five Laplacian producers, each with the chart it reads
PRODUCERS = {
    "ricci-identity": (hessian_chart, lambda cs, x: charts.ricci_identity_residual(
        cs, cs.a_field, x)),
    "simons-formula": (hessian_chart, lambda cs, x: charts.simons_residual(cs, cs.a_field, x)),
    "weitzenbock": (sphere_chart, lambda cs, x: charts.weitzenbock_residual(cs, trig_tau, x)),
    "sym2-simons": (sphere_chart, lambda cs, x: charts.sym2_simons_residual(
        cs, codazzi_beta, x)),
    "cubic": (hessian_chart, charts.cubic_simons_residuals),
}


def arrays(out) -> list:
    """The arrays a producer returns, in order: an Applies key's mask after its values."""
    if isinstance(out, dict):
        out = [part for value in out.values()
               for part in (value if isinstance(value, charts.Applies) else [value])]
    return [np.asarray(value) for value in (out if isinstance(out, (list, tuple)) else [out])]


def ladder(chart, h):
    """The members at 4h, 2h and h, and two points per member inside the 4h member's margin."""
    members = [chart.with_step(step) for step in (4.0 * h, 2.0 * h, h)]
    xs = np.stack([sample_points(members[0], 2, seed=c) for c in range(len(members))])
    return members, xs


@pytest.mark.parametrize("h", [1e-3, 5e-3])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_members_at_three_steps_get_the_bits_they_get_alone(name, n, h):
    make, producer = PRODUCERS[name]
    members, xs = ladder(make(n, h), h)
    alone = []
    for member, x in zip(members, xs):
        try:
            alone.append(arrays(producer(member, x)))
        except PreconditionError as exc:
            alone.append(exc)
    failed = [out for out in alone if isinstance(out, PreconditionError)]
    if failed:
        # a stack raises the precondition of its first failing member
        with pytest.raises(PreconditionError) as raised:
            producer(charts.stack_charts(members), xs)
        assert str(raised.value) == str(failed[0])
        return
    stacked = arrays(producer(charts.stack_charts(members), xs))
    for c, out in enumerate(alone):
        assert [hexes(values[c]) for values in stacked] == [hexes(v) for v in out], c


@pytest.mark.parametrize("h", [1e-3, 5e-3])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("make", [hessian_chart, sphere_chart])
def test_chart_checks_at_three_steps_are_the_checks_of_each_step(make, n, h):
    assert_members_get_the_checks_they_get_alone(*ladder(make(n, h), h), suites.SuiteConfig(h=h))


@pytest.mark.parametrize("n", [2, 3])
def test_a_point_near_a_face_raises_for_the_member_whose_margin_it_is_inside(n):
    h = 1e-3
    chart = hessian_chart(n, h)
    # 1.5 (4h) = 6e-3 from the face x1 = -0.6: inside the 4h member's margin 8e-3 only
    point = np.full(n, 0.1)
    point[0] = -0.6 + 6e-3
    members = [chart.with_step(step) for step in (h, 4.0 * h, 2.0 * h, 8.0 * h)]
    # the 8h member, whose margin is the largest, reads a point away from every face
    x = np.stack([point, point, point, np.full(n, 0.1)])[:, None]
    with pytest.raises(PreconditionError, match=r"point \[-0\.594, .*\] too close to the "
                                                r"boundary on axis 0 \(margin 2h = 0\.008\)$"):
        charts.christoffel(charts.stack_charts(members), x)
    with pytest.raises(PreconditionError, match=r"margin 2h = 0\.008\)$"):
        charts.christoffel(members[1], point)
    for member in (members[0], members[2]):
        charts.christoffel(member, point)
    charts.christoffel(charts.stack_charts([members[0], members[2], members[3]]),
                       x[[0, 2, 3]])


def per_step_series(n: int, h: float):
    """laplacian_series as a loop over the steps 4h, 2h and h, five producer calls at one
    point per step: the reference for the stacked series.  A skip keeps the exception of
    the last failing step."""
    x = np.array([0.15, -0.22, 0.1][:n])
    steps = (4.0 * h, 2.0 * h, h)
    cubic_keys = ("laplace-cubic-bracket", "laplace-cubic-curvdiff", "laplace-cubic-ricci")
    series = {name: [] for name in ("ricci-identity", "simons-formula", "weitzenbock",
                                    "simons-1form", "sym2-simons") + cubic_keys}
    skips = {}
    hess_chart, sph_chart = hessian_chart(n, h), sphere_chart(n, h)
    for step in steps:
        hess, sph = hess_chart.with_step(step), sph_chart.with_step(step)
        series["ricci-identity"].append(charts.ricci_identity_residual(hess, hess.a_field, x))
        series["simons-formula"].append(charts.simons_residual(hess, hess.a_field, x))
        hodge = charts.weitzenbock_residual(sph, trig_tau, x)
        for key in ("weitzenbock", "simons-1form"):
            series[key].append(hodge[key])
        try:
            series["sym2-simons"].append(charts.sym2_simons_residual(sph, codazzi_beta, x)[0])
        except PreconditionError as exc:
            skips["sym2-simons"] = exc
        try:
            cubic = charts.cubic_simons_residuals(hess, x)
            for key in cubic_keys:
                series[key].append(cubic[key])
        except PreconditionError as exc:
            skips.update(dict.fromkeys(cubic_keys, exc))
    return steps, series, skips


@pytest.mark.parametrize("h", [1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 8e-3, 1e-2, 1.5e-2, 2e-2])
@pytest.mark.parametrize("n", [2, 3])
def test_laplacian_series_is_the_series_of_a_loop_over_the_steps(n, h):
    steps, series, skips = suites.laplacian_series(n, h)
    ref_steps, ref_series, ref_skips = per_step_series(n, h)
    assert steps == ref_steps
    assert {name: str(exc) for name, exc in skips.items()} == {
        name: str(exc) for name, exc in ref_skips.items()}
    assert list(series) == list(ref_series)
    for name, values in series.items():
        if name in skips:
            assert values == []
        else:
            assert hexes(values) == hexes(ref_series[name]), name


def test_some_series_skip_at_some_steps_only():
    # the pairs above include skips that only the smaller steps raise: the stack must then
    # raise the least failing step's exception, not the first member's by chance
    partial = []
    for n in (2, 3):
        for h in (1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 8e-3, 1e-2, 1.5e-2, 2e-2):
            _, series, skips = per_step_series(n, h)
            partial += [(n, h, name) for name in skips if series[name]]
    assert partial


@pytest.mark.parametrize("n", [2, 3])
def test_laplacian_series_calls_each_producer_once_per_n(n, monkeypatch):
    calls = []
    for name in ("ricci_identity_residual", "simons_residual", "weitzenbock_residual",
                 "sym2_simons_residual", "cubic_simons_residuals"):
        real = getattr(charts, name)

        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(charts, name, spy)
    suites.laplacian_series(n, 1e-3)
    assert sorted(calls) == ["cubic_simons_residuals", "ricci_identity_residual",
                             "simons_residual", "sym2_simons_residual", "weitzenbock_residual"]
