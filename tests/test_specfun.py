"""Special-function kernel against symbolic and high-precision oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
import sympy

from manning_rosen import (DomainError, PotentialParams, QuantumState, energy,
                           gauss_legendre, jacobi, ln_gamma)
from manning_rosen.specfun import _jacobi_y, ln_gamma_ratio

mp.mp.dps = 40


def table_jacobi_params():
    """(2 eps, 2 eta + 1) of a deeply bound published-table state."""
    params = PotentialParams(A=80.0, alpha=0.75, b=40.0)
    entry = energy(params, QuantumState(n=0, l=1, D=2))
    return 2.0 * entry.epsilon, 2.0 * entry.eta + 1.0


class TestLnGamma:
    def test_known_values(self):
        assert ln_gamma(1.0) == 0.0
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)
        assert ln_gamma(11.0) == pytest.approx(math.log(3628800.0), rel=1e-14)

    def test_rejects_nonpositive(self):
        for x in (0.0, -1.0, -0.5):
            with pytest.raises(DomainError):
                ln_gamma(x)

    @pytest.mark.parametrize("x", [0.5, 1.5, 10.25, 100.5])
    def test_recurrence_residual(self, x):
        residual = ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)
        assert abs(residual) < 1e-12

    def test_accuracy_across_range(self):
        for x in np.geomspace(1e-3, 1e6, 40):
            reference = float(mp.loggamma(mp.mpf(float(x))))
            scale = max(abs(reference), 1.0)
            assert abs(ln_gamma(float(x)) - reference) <= 1e-13 * scale


class TestLnGammaRatio:
    @pytest.mark.parametrize("s", [0.0, 0.5, 4.0, 61.0])
    def test_matches_mpmath_across_range(self, s):
        # below and above the switch to the Stirling difference at x = 16;
        # absolute in the log, so relative in the gamma ratio
        for x in np.geomspace(0.5, 1e8, 25):
            x = float(x)
            reference = float(mp.loggamma(mp.mpf(x) + mp.mpf(s)) - mp.loggamma(mp.mpf(x)))
            assert abs(ln_gamma_ratio(x, s) - reference) <= 1e-14 * max(abs(reference), 1.0)

    def test_no_cancellation_at_large_x(self):
        # ln Gamma near 1e8 at x = 7e6: the plain difference keeps ~1e-8 of rounding
        x, s = 6666666.666666667, 2.0
        reference = float(mp.loggamma(mp.mpf(x) + s) - mp.loggamma(mp.mpf(x)))
        assert abs(ln_gamma_ratio(x, s) - reference) < 1e-14


class TestJacobi:
    def test_degree_zero_is_one(self):
        for a, b, x in ((0.0, 0.0, 0.3), (2.5, -0.5, -1.0), (55.0, 1.8, 0.99)):
            assert jacobi(0, a, b, x) == 1.0

    def test_degree_one_linear_form(self):
        assert jacobi(1, 2.0, 3.0, 0.0) == pytest.approx(-0.5, abs=1e-15)
        for a, b, x in ((1.5, 2.3, 0.4), (0.0, 0.0, -0.7)):
            assert jacobi(1, a, b, x) == pytest.approx(
                0.5 * (a - b) + 0.5 * (a + b + 2.0) * x, rel=1e-15)

    def test_legendre_cubic(self):
        x = 0.5
        assert jacobi(3, 0.0, 0.0, x) == pytest.approx((5 * x**3 - 3 * x) / 2.0, rel=1e-14)
        assert jacobi(3, 0.0, 0.0, x) == pytest.approx(-0.4375, abs=1e-15)

    def test_rejects_negative_degree(self):
        with pytest.raises(DomainError):
            jacobi(-1, 0.0, 0.0, 0.0)

    def test_array_evaluation(self):
        xs = np.linspace(-1.0, 1.0, 11)
        values = jacobi(4, 1.5, 2.3, xs)
        assert values.shape == xs.shape
        assert values[3] == jacobi(4, 1.5, 2.3, float(xs[3]))

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.5, 2.3)])
    def test_rodrigues_form(self, a, b):
        # (-1)^n/(2^n n!) (1-x)^-a (1+x)^-b d^n/dx^n [(1-x)^(a+n) (1+x)^(b+n)]
        x = sympy.Symbol("x")
        for n in range(6):
            expr = sympy.diff((1 - x) ** (sympy.Float(a) + n) * (1 + x) ** (sympy.Float(b) + n),
                              x, n)
            expr = expr * (-1) ** n / (2**n * math.factorial(n)
                                       * (1 - x) ** sympy.Float(a) * (1 + x) ** sympy.Float(b))
            fn = sympy.lambdify(x, sympy.simplify(expr), "math")
            for point in (-0.9, -0.3, 0.0, 0.4, 0.8):
                reference = fn(point)
                got = jacobi(n, a, b, point)
                assert got == pytest.approx(reference, rel=1e-10, abs=1e-12)

    def test_rodrigues_form_table_parameters(self):
        a, b = table_jacobi_params()
        for n in range(6):
            for point in (-0.8, 0.0, 0.6):
                reference = float(mp.jacobi(n, mp.mpf(a), mp.mpf(b), mp.mpf(point)))
                assert jacobi(n, a, b, point) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("a", [0.5, 30.0, 1e3, 1e6, 1e10])
    def test_recurrence_in_y_near_minus_one(self, a):
        # y = 1 + x from 1e-12 to 2: the zeros of a large-a polynomial sit
        # within ~(4n + 2b + 2)/a of x = -1, where x itself would round y
        ys = np.geomspace(1e-12, 2.0, 25)
        for b in (0.0, 2.5, 20.0):
            for n in (1, 2, 3, 6, 10):
                got = _jacobi_y(n, a, b, ys)
                for y, value in zip(ys, got):
                    reference = float(mp.jacobi(n, a, b, mp.mpf(float(y)) - 1))
                    assert value == pytest.approx(reference, rel=1e-12), (n, b, y)


def jacobi_y_one_expression(n, a, b, y):
    """The y-recurrence with each step written as one expression: the bitwise reference."""
    p = np.ones_like(y)
    if n == 0:
        return p
    apb = a + b
    p_prev, p = p, 0.5 * (apb + 2.0) * y - (b + 1.0)
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + apb) * (2.0 * k + apb - 2.0)
        c3 = (2.0 * k + apb - 2.0) * (2.0 * k + apb - 1.0) * (2.0 * k + apb)
        d = (2.0 * k + apb - 1.0) * (2.0 * apb * (b + 2.0 * k - 1.0) + 4.0 * k * (k - 1.0))
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + apb)
        p, p_prev = ((c3 * y - d) * p - c4 * p_prev) / c1, p
    return p


class TestJacobiInPlace:
    """The in-place steps of _jacobi_y round exactly as the one-expression recurrence."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_one_expression_recurrence_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(0, 13))
            a = float(10.0 ** rng.uniform(-1.0, 10.0))
            b = float(rng.uniform(0.0, 41.0))
            y = 2.0 * rng.random(int(rng.integers(1, 4002)))
            assert _jacobi_y(n, a, b, y).tobytes() == jacobi_y_one_expression(n, a, b, y).tobytes()

    def test_scalar_and_zero_dimensional_inputs(self):
        for y in (0.3, np.float64(1.7), np.array(1e-9)):
            for n in (0, 1, 2, 7):
                got = _jacobi_y(n, 1e3, 2.5, y)
                assert float(got) == float(jacobi_y_one_expression(n, 1e3, 2.5, y))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8])
    def test_never_writes_its_input(self, n):
        y = np.linspace(1e-6, 2.0, 1001)
        before = y.copy()
        _jacobi_y(n, 40.0, 3.0, y)
        assert np.array_equal(y, before)
        y.setflags(write=False)
        assert np.array_equal(_jacobi_y(n, 40.0, 3.0, y), jacobi_y_one_expression(n, 40.0, 3.0, y))
        assert np.array_equal(y, before)


class TestGaussLegendre:
    def test_order_one_midpoint(self):
        rule = gauss_legendre(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [2.0]

    def test_order_two_classical(self):
        rule = gauss_legendre(2)
        assert rule.nodes == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)])
        assert rule.weights == pytest.approx([1.0, 1.0])

    def test_monomial_order_twenty(self):
        rule = gauss_legendre(20)
        integral = rule.integrate(lambda x: x**10)
        assert abs(integral - 2.0 / 11.0) < 1e-13

    @pytest.mark.parametrize("order", [1, 2, 5, 20, 64])
    def test_exactness_up_to_degree(self, order):
        rule = gauss_legendre(order)
        for k in range(2 * order):
            integral = rule.integrate(lambda x, k=k: x**k)
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(integral - exact) < 1e-12

    @pytest.mark.parametrize("order", [3, 16, 64, 257])
    def test_rule_invariants(self, order):
        rule = gauss_legendre(order)
        assert abs(float(np.sum(rule.weights)) - 2.0) < 1e-13
        assert np.all(rule.weights > 0.0)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) < 1e-13

    def test_rule_is_read_only(self):
        rule = gauss_legendre(8)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.5

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            gauss_legendre(0)

    def test_mapped_interval(self):
        rule = gauss_legendre(12)
        assert rule.integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)


class TestJacobiOrthogonality:
    @pytest.mark.parametrize("pair", ["legendre", "generic", "table"])
    def test_weighted_orthogonality(self, pair):
        if pair == "legendre":
            a, b = 0.0, 0.0
        elif pair == "generic":
            a, b = 1.5, 2.3
        else:
            a, b = table_jacobi_params()
        rule = gauss_legendre(512)

        def weighted(n, m):
            def fn(x):
                w = (1.0 - x) ** a * (1.0 + x) ** b
                return w * jacobi(n, a, b, x) * jacobi(m, a, b, x)
            return rule.integrate(fn)

        norms = [weighted(n, n) for n in range(7)]
        for n in range(7):
            for m in range(n):
                cross = weighted(n, m)
                assert abs(cross) / math.sqrt(norms[n] * norms[m]) < 1e-10
