import itertools
import math
import pickle
import re

import numpy as np
import pytest

from codazzi import expressions
from codazzi.charts import ChartStructure
from codazzi.errors import SchemaError
from codazzi.expressions import (
    CACHE_SIZE, Call, compile_cache_info, compile_tensor, parse_expression, partial,
)
from codazzi.generators import GeneratorSpec, generate
from codazzi.tensors import core_first


def compiled(text, n):
    return parse_expression(text, n).compile(n)


class TestParsing:
    def test_arithmetic_and_precedence(self):
        f = compiled("1 + 2*x1 - x2/4", 2)
        assert f([3.0, 8.0]) == pytest.approx(1 + 6 - 2)

    def test_functions_and_powers(self):
        f = compiled("sin(x1)*cos(x2) + exp(-x1) + pow(x2, 3) + x1**2", 2)
        x = [0.7, -0.3]
        expected = math.sin(0.7) * math.cos(-0.3) + math.exp(-0.7) + (-0.3) ** 3 + 0.49
        assert f(x) == pytest.approx(expected, rel=1e-15)

    def test_unary_minus_and_parens(self):
        f = compiled("-(x1 - 2) * -3", 1)
        assert f([5.0]) == pytest.approx(9.0)

    def test_numbers(self):
        assert compiled("1.5e-3", 1)([0.0]) == pytest.approx(1.5e-3)
        assert compiled(".25", 1)([0.0]) == pytest.approx(0.25)

    def test_rejects_unknown_names(self):
        with pytest.raises(SchemaError, match="unknown name"):
            parse_expression("tan(x1)", 1)
        with pytest.raises(SchemaError, match="out of range"):
            parse_expression("x3", 2)

    def test_rejects_garbage(self):
        with pytest.raises(SchemaError):
            parse_expression("1 +", 1)
        with pytest.raises(SchemaError):
            parse_expression("x1 @ 2", 1)

    @pytest.mark.parametrize("text, message", [
        ("1e400", "not finite"), ("2 * 1e200 * 1e200", "not finite"), ("1/0", "division by zero"),
    ])
    def test_rejects_non_finite_constants(self, text, message):
        with pytest.raises(SchemaError, match=message):
            parse_expression(text, 1)

    def test_batched_evaluation(self):
        x = np.array([[0.7, -0.3], [1.1, 2.0], [0.0, 0.5]])
        f = compiled("sin(x1)*cos(x2) + pow(x2, 3)", 2)
        assert f(x).shape == (3,)
        assert np.array_equal(f(x), [f(p) for p in x])
        assert np.array_equal(compiled("2.5", 2)(x), np.full(3, 2.5))

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(SchemaError, match="constant exponent"):
            parse_expression("x1**x2", 2)

    def test_source_round_trip(self):
        e = parse_expression("sin(2*x1) + 0.5*x2**2", 2)
        again = parse_expression(e.source(), 2)
        x = np.array([0.3, 1.2])
        assert e.compile(2)(x) == pytest.approx(again.compile(2)(x), rel=1e-15)


class TestDerivatives:
    @pytest.mark.parametrize(
        "text,var,point",
        [
            ("x1**4", 0, [1.3]),
            ("sin(3*x1)*cos(x2)", 0, [0.4, -0.2]),
            ("sin(3*x1)*cos(x2)", 1, [0.4, -0.2]),
            ("exp(0.5*x1*x2)", 1, [0.7, 0.3]),
            ("pow(x1 + x2, 5)", 0, [0.2, 0.1]),
            ("x1/x2 + x2/(1 + x1**2)", 0, [0.5, 2.0]),
        ],
    )
    def test_against_finite_differences(self, text, var, point):
        n = len(point)
        e = parse_expression(text, n)
        de = partial(e, var).compile(n)
        f = e.compile(n)
        h = 1e-6
        xp = list(point)
        xm = list(point)
        xp[var] += h
        xm[var] -= h
        fd = (f(xp) - f(xm)) / (2 * h)
        assert de(point) == pytest.approx(fd, rel=1e-8, abs=1e-8)

    def test_third_derivative_exact(self):
        e = parse_expression("(x1**4 + x2**4)/12 + 0.5*(x1**2 + x2**2)", 2)
        d3 = partial(partial(partial(e, 0), 0), 0).compile(2)
        assert d3([1.0, 0.0]) == pytest.approx(2.0)
        assert d3([2.0, 0.0]) == pytest.approx(4.0)

    def test_constant_folding(self):
        e = parse_expression("0*x1 + 1*x2 + 2*3", 2)
        assert e.source() == "(x2 + 6)"


class TestParseCache:
    TEXT = "sin(2*x1)*cos(x2) + pow(x1 - x2, 3)/7 - exp(0.5*x2)"

    def test_same_text_same_tree(self):
        assert parse_expression(self.TEXT, 2) is parse_expression(self.TEXT, 2)
        assert parse_expression(self.TEXT, 3) is not parse_expression(self.TEXT, 2)

    def test_cached_tree_is_not_changed_by_its_readers(self):
        e = parse_expression(self.TEXT, 2)
        before = pickle.dumps(e)
        for axis in range(2):
            partial(partial(e, axis), 1 - axis)
        e.source()
        e.compile(2)([0.3, -0.4])
        compile_tensor((2,), [(e, [(0,), (1,)])])([0.3, -0.4])
        assert pickle.dumps(e) == before
        assert isinstance(e.right, Call) and isinstance(e.right.args, tuple)

    def test_a_parse_error_is_raised_again(self):
        for _ in range(2):
            with pytest.raises(SchemaError, match="unknown name"):
                parse_expression("tan(x1)", 1)


def per_entry_compile(e, n):
    """Expr.compile before compile_tensor: one evaluated lambda per expression."""
    fn = eval(f"lambda x: {e._code()}", {"np": np, "__builtins__": {}})
    if not e.variables():
        value = float(fn(None))
        return lambda x: np.full(np.shape(x)[:-1], value)
    return lambda x: fn(np.asarray(x, dtype=float))


def per_entry_field(n, shape, entries):
    """The chart field loops before compile_tensor: evaluate each entry, assign its slots."""
    fns = [(per_entry_compile(e, n), slots) for e, slots in entries]

    def field(x):
        x = np.asarray(x, dtype=float)
        arr = np.zeros(x.shape[:-1] + shape)
        for fn, slots in fns:
            value = fn(x)
            for slot in slots:
                arr[(Ellipsis,) + slot] = value
        return arr

    return field


def entry_pool(n):
    """Constant and variable expressions over x1..xn."""
    texts = ["2.5", "sin(1) - 3", f"sin(x1)*x{n} + exp(-x2)", f"pow(x{n} + 1.5, 3)/(1 + x1**2)",
             "cos(x1 - x2)*0.3", f"x{n}", "-x1*x2/(2 + sin(x2))"]
    return [parse_expression(t, n) for t in texts]


def tensor_entries(n, degree):
    """Entries filling symmetric orbits of sorted index tuples; every third orbit is missing."""
    pool = entry_pool(n)
    orbits = sorted({tuple(sorted(idx)) for idx in itertools.product(range(n), repeat=degree)})
    return [(pool[k % len(pool)], sorted(set(itertools.permutations(idx))))
            for k, idx in enumerate(orbits) if k % 3 != 2]


def batch_points(n, axes):
    rng = np.random.default_rng(100 * n + axes)
    return rng.uniform(-0.9, 0.9, size=(3, 4)[:axes] + (n,))


class TestCompileTensor:
    @pytest.mark.parametrize("axes", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scalar_matches_per_entry_compile(self, n, axes):
        x = batch_points(n, axes)
        for e in entry_pool(n):
            got = compile_tensor((), [(e, [()])])(x)
            assert got.shape == x.shape[:-1]
            assert np.array_equal(got, per_entry_compile(e, n)(x))
            assert np.array_equal(e.compile(n)(x), got)

    @pytest.mark.parametrize("axes", [0, 1, 2])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tensor_matches_per_entry_loops(self, n, degree, axes):
        shape = (n,) * degree
        entries = tensor_entries(n, degree)
        x = batch_points(n, axes)
        got = compile_tensor(shape, entries)(x)
        assert got.shape == x.shape[:-1] + shape
        assert np.array_equal(got, per_entry_field(n, shape, entries)(x))
        # laid out batch-last: each entry one block of contiguous batch rows
        assert core_first(got, degree).flags.c_contiguous

    def test_each_call_returns_a_fresh_array(self):
        f = compile_tensor((2, 2), tensor_entries(2, 2))
        x = batch_points(2, 1)
        first = f(x)
        expected = first.copy()
        first[...] = 7.0
        again = f(x)
        assert again is not first and np.array_equal(again, expected)

    def test_chart_fields_match_per_entry_loops(self):
        n = 3
        g = [["2 + 0.1*sin(x1)", "0.1*cos(x2)", "0"],
             ["0.1*cos(x2)", "2 + x2**2", "0.05*x1*x3"],
             ["0", "0.05*x1*x3", "3"]]
        a = {"111": "0.2*cos(x2)", "123": "x1*x3", "332": "0.5"}
        fields = {"tau": {"degree": 1, "components": {"1": "sin(x1)", "3": "0.5"}},
                  "s": {"degree": 0, "components": {"": "exp(x2)"}}}
        cs = ChartStructure.from_expressions(n, [[-0.5, 0.5]] * n, g, a, aux_fields=fields)
        parse = lambda text: parse_expression(text, n)
        g_ref = per_entry_field(n, (n, n), [(parse(g[i][j]), [(i, j), (j, i)])
                                            for i in range(n) for j in range(i, n)])
        a_ref = per_entry_field(n, (n, n, n), [
            (parse(text), set(itertools.permutations(sorted(int(c) - 1 for c in key))))
            for key, text in a.items()])
        tau_ref = per_entry_field(n, (n,), [(parse("sin(x1)"), [(0,)]), (parse("0.5"), [(2,)])])
        s_ref = per_entry_field(n, (), [(parse("exp(x2)"), [()])])
        for axes in (0, 1, 2):
            x = batch_points(n, axes) * 0.5
            assert np.array_equal(cs.g_field(x), g_ref(x))
            assert np.array_equal(cs.a_field(x), a_ref(x))
            assert np.array_equal(cs.aux_fields["tau"].fn(x), tau_ref(x))
            assert np.array_equal(cs.aux_fields["s"].fn(x), s_ref(x))

    def test_a_chart_built_twice_compiles_once(self):
        def build():
            return ChartStructure.from_expressions(
                2, [[-1.0, 1.0]] * 2, [["1.2345678 + 0.01*sin(x1)", "0"], ["0", "1"]],
                {"112": "0.7654321*x2"})

        start = compile_cache_info()
        build()
        once = compile_cache_info()
        build()
        twice = compile_cache_info()
        assert once.misses - start.misses == 2
        assert (twice.misses, twice.hits - once.hits) == (once.misses, 2)
        assert twice.maxsize == CACHE_SIZE


class TestSharedSubexpressions:
    @staticmethod
    def _generated_sources(monkeypatch, build):
        sources = []
        compile_source = expressions._compile_source

        def spy(source):
            sources.append(source)
            return compile_source(source)

        monkeypatch.setattr(expressions, "_compile_source", spy)
        return build(), sources

    def test_each_call_is_evaluated_once_per_distinct_argument(self, monkeypatch):
        spec = GeneratorSpec("G5-periodic-trig", seed=0,
                             params={"variant": "generic", "freq": 32, "gfreq": 4, "amp": 0.8})
        cs, sources = self._generated_sources(monkeypatch, lambda: generate(spec))
        assert len(sources) == 2  # the metric and the cubic form
        for source in sources:
            calls = re.findall(r"np\.(?:sin|cos|exp)\(", source)
            # every call is bound to a local once: no call appears twice with the same argument
            lines = [line.strip() for line in source.splitlines()]
            bound = [line.split(" = ", 1)[1] for line in lines if re.match(r"t\d+ = np\.", line)]
            assert len(bound) == len(set(bound)) == len(calls)
        metric, cubic = sources
        assert metric.count("np.exp(") == 1 and metric.count("np.sin(") == 1
        assert cubic.count("np.sin(((32.0) * x[..., 0]))") == 1
        assert cubic.count("np.cos(((32.0) * x[..., 1]))") == 1

    @pytest.mark.parametrize("variant", ["generic", "conformal"])
    def test_shared_fields_equal_per_entry_builds(self, variant):
        spec = GeneratorSpec("G5-periodic-trig", seed=0,
                             params={"variant": variant, "freq": 32, "gfreq": 4, "amp": 0.8})
        cs = generate(spec)
        parse = lambda text: parse_expression(text, 2)
        g_ref = per_entry_field(2, (2, 2), [(parse(cs.g_source[i][j]), [(i, j), (j, i)])
                                            for i in range(2) for j in range(i, 2)])
        a_ref = per_entry_field(2, (2, 2, 2), [
            (parse(text), set(itertools.permutations(sorted(int(c) - 1 for c in key))))
            for key, text in cs.a_source.items()])
        rng = np.random.default_rng(7)
        for shape in ((2,), (5, 2), (3, 4, 2)):
            x = rng.uniform(0.0, 2.0 * np.pi, size=shape)
            assert np.array_equal(cs.g_field(x), g_ref(x))
            assert np.array_equal(cs.a_field(x), a_ref(x))

    def test_repeated_subexpressions_are_bound_once(self, monkeypatch):
        e = parse_expression("(x1*x2 + 1)*(x1*x2 + 1) - exp(x1*x2 + 1)", 2)
        f, sources = self._generated_sources(monkeypatch, lambda: compile_tensor((), [(e, [()])]))
        (source,) = sources
        assert source.count("(x[..., 0] * x[..., 1])") == 1
        x = batch_points(2, 2)
        assert np.array_equal(f(x), per_entry_compile(e, 2)(x))
