import math

import numpy as np
import pytest

from codazzi.errors import SchemaError
from codazzi.expressions import parse_expression, partial


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
