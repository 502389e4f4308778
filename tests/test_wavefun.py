"""Radial wavefunctions, normalization cross-checks, angular factors."""

import cmath
import functools
import itertools
import math
import random
import sys
import warnings

import mpmath
import numpy as np
import pytest

from manning_rosen import (AngularMultiIndex, ConvergenceError, DomainError,
                           PotentialParams, QuantumState, SpectrumEntry,
                           UnboundStateError, angular_factor, critical_coupling, energy,
                           gauss_legendre, jacobi, ln_gamma,
                           normalization_closed_form, normalization_quadrature,
                           radial_wavefunction, total_wavefunction, wavefun)
from manning_rosen.specfun import _jacobi_y
from manning_rosen.wavefun import (_EXP_SINH_LEVELS, _EXP_SINH_NODES, _EXP_SINH_WEIGHTS,
                                   _H_FIRST, _HALVINGS, _NODE_SCAN_OFFSETS, _U_MAX, _U_MIN,
                                   _count_nodes, _exp_sinh_integral,
                                   _norm_integral_quadrature)


def table_params(inv_b=0.025, alpha=0.75):
    b = 1.0 / inv_b
    return PotentialParams(A=2.0 * b, alpha=alpha, b=b)


def synthetic_entry(eps, eta, n=0, l=0, D=3):
    """Entry with prescribed shape parameters for formula-level checks."""
    return SpectrumEntry(state=QuantumState(n=n, l=l, D=D), energy=-eps * eps / 2.0,
                         a_param=2.0 * eta + 1.0, eta=eta, epsilon=eps)


class TestNormalization:
    def test_closed_form_rejects_eta_below_minus_half(self):
        with pytest.raises(DomainError, match="eta must be >= -1/2"):
            normalization_closed_form(synthetic_entry(1.0, -0.6), 40.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_quadrature_rejects_an_unbound_entry(self, eps):
        with pytest.raises(DomainError, match="requires a bound state"):
            normalization_quadrature(table_params(), synthetic_entry(eps, 0.5))

    def test_ground_level_reduces_to_beta_function(self):
        # s(0) = b * Gamma(2 eps) Gamma(2 eta + 3) / Gamma(2 eps + 2 eta + 3)
        for eps, eta, b in ((1.0, 0.0, 1.0), (2.3, 0.7, 5.0), (27.8, 0.4, 40.0)):
            s_expected = b * math.exp(ln_gamma(2 * eps) + ln_gamma(2 * eta + 3.0)
                                      - ln_gamma(2 * eps + 2 * eta + 3.0))
            norm = normalization_closed_form(synthetic_entry(eps, eta), b)
            assert norm == pytest.approx(1.0 / math.sqrt(s_expected), rel=1e-12)

    def test_unit_case_integral_is_one_twelfth(self):
        integral, ln_scale = _norm_integral_quadrature(0, 1.0, 0.0)
        assert ln_scale == 0.0
        assert integral == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_quadrature_matches_closed_form_unit_case(self):
        params = PotentialParams(A=1.0, alpha=0.0, b=1.0)
        entry = synthetic_entry(1.0, 0.0)
        assert normalization_quadrature(params, entry) == pytest.approx(
            math.sqrt(12.0), rel=1e-10)

    @pytest.mark.parametrize("params, state", [
        *(pytest.param(table_params(), QuantumState(n=n, l=1, D=2), id=str(n))
          for n in range(4)),
        # eta = -0.4, eps = 124.5: the weight (1 - z)^(2 eta + 2) has a kink at z = 1
        pytest.param(PotentialParams(A=150.0, alpha=0.4, b=50.0), QuantumState(0, 0, 3),
                     id="1s-D3-eta-0.4"),
        # eps = 7135: the peak sits 2e-4 from z = 1
        pytest.param(PotentialParams(A=2e4, alpha=0.75, b=1e4), QuantumState(0, 1, 2),
                     id="2p-D2-eps7135"),
    ])
    def test_closed_form_vs_quadrature_table_states(self, params, state):
        entry = energy(params, state)
        closed = normalization_closed_form(entry, params.b)
        quad = normalization_quadrature(params, entry)
        assert abs(closed - quad) / quad < 1e-8

    def test_quadrature_matches_closed_form_up_to_eps_1e10(self):
        # seeded: n in 1..10, eps log-uniform in [1e5, 1e10], eta in [-1/2, 10];
        # the nodes sit at 1 - z < 1e-3, where x = 1 - 2z would round 1 + x
        rng = random.Random(19)
        params = PotentialParams(A=1.0, alpha=0.0, b=1.0)
        for _ in range(500):
            n = rng.randint(1, 10)
            eps = math.exp(rng.uniform(math.log(1e5), math.log(1e10)))
            entry = synthetic_entry(eps, rng.uniform(-0.5, 10.0), n=n)
            closed = normalization_closed_form(entry, params.b)
            quad = normalization_quadrature(params, entry)
            assert abs(quad / closed - 1.0) <= 1e-10, (n, eps, entry.eta)

    def test_screening_scale_of_norm_constant(self):
        entry = synthetic_entry(2.3, 0.7)
        n_base = normalization_closed_form(entry, 1.0)
        n_scaled = normalization_closed_form(entry, 4.0)
        assert n_scaled == pytest.approx(n_base / 2.0, rel=1e-15)

    def test_rejects_unbound_entry(self):
        with pytest.raises(DomainError):
            normalization_closed_form(synthetic_entry(-1.0, 0.0), 1.0)

    @pytest.mark.parametrize("b", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_screening_length(self, b):
        with pytest.raises(DomainError):
            normalization_closed_form(synthetic_entry(2.3, 0.7), b)

    def test_underflowing_integrand_raises_convergence_error(self):
        # eps ~ 4925, eta = 99.5: the true integral, ~1e-700, is below the
        # double range, so the integrand underflows to 0 at every node
        params = PotentialParams(A=1e6, alpha=0.0, b=1.0)
        entry = energy(params, QuantumState(n=0, l=0, D=202))
        with pytest.raises(ConvergenceError, match="norm integral is 0.0"):
            normalization_quadrature(params, entry)

    def test_quadrature_at_eps_3e6_matches_mpmath(self):
        # eps ~ 3.3e6: the integral ~3e-27 is small but representable.  For
        # n = 0 it is B(2 eps, 2 eta + 3), taken here to 40 digits
        entry = energy(PotentialParams(A=1e7, alpha=1.5, b=1.0), QuantumState(n=0, l=0, D=3))
        with mpmath.workdps(40):
            reference = mpmath.beta(2 * mpmath.mpf(entry.epsilon), 2 * mpmath.mpf(entry.eta) + 3)
        integral, ln_scale = _norm_integral_quadrature(0, entry.epsilon, entry.eta)
        assert ln_scale == 0.0
        assert abs(integral / reference - 1) < 1e-12

    def test_quadrature_at_subnormal_integral_matches_mpmath(self):
        # eps ~ 1.25e5, eta = 39: the integral ~4.1e-319 is subnormal, so the
        # nodes are summed over the envelope peak squared and N taken from that
        params = PotentialParams(A=1e7, alpha=40.0, b=1.0)
        entry = energy(params, QuantumState(n=0, l=0, D=3))
        with mpmath.workdps(50):
            s_n = mpmath.beta(2 * mpmath.mpf(entry.epsilon), 2 * mpmath.mpf(entry.eta) + 3)
            reference = 1 / mpmath.sqrt(params.b * s_n)
        assert s_n < sys.float_info.min
        assert abs(normalization_quadrature(params, entry) / reference - 1) < 1e-12

    def test_closed_form_at_eps_3e6_matches_mpmath(self):
        # ln Gamma(n+a+1) - ln Gamma(n+a+b+1) at arguments near 7e6: two values
        # near 1e8 that cancel to about -b ln a
        params = PotentialParams(A=1e7, alpha=1.5, b=1.0)
        entry = energy(params, QuantumState(n=0, l=0, D=3))
        with mpmath.workdps(50):
            s_n = mpmath.beta(2 * mpmath.mpf(entry.epsilon), 2 * mpmath.mpf(entry.eta) + 3)
            reference = 1 / mpmath.sqrt(params.b * s_n)
        assert abs(normalization_closed_form(entry, params.b) / reference - 1) < 1e-12

    def test_closed_form_at_subnormal_s_matches_mpmath(self):
        # eps ~ 1.25e5, eta = 39: s(n) ~ 4.1e-319 is subnormal, so N is taken
        # from ln s(n) rather than from s(n)
        params = PotentialParams(A=1e7, alpha=40.0, b=1.0)
        entry = energy(params, QuantumState(n=0, l=0, D=3))
        with mpmath.workdps(50):
            s_n = mpmath.beta(2 * mpmath.mpf(entry.epsilon), 2 * mpmath.mpf(entry.eta) + 3)
            reference = 1 / mpmath.sqrt(params.b * s_n)
        assert s_n < sys.float_info.min
        assert abs(normalization_closed_form(entry, params.b) / reference - 1) < 1e-12

    def test_convergence_failure_reports_last_two_estimates(self):
        # a step: the trapezoid error stays O(h) at every level
        def integrand(t):
            return np.where(t < 2.0, 1.0, 0.0)

        def trapezoid(h):
            u = np.linspace(_U_MIN, _U_MAX, round((_U_MAX - _U_MIN) / h) + 1)
            t = np.exp(0.5 * math.pi * np.sinh(u))
            return h * np.sum(integrand(t) * t * 0.5 * math.pi * np.cosh(u))

        with pytest.raises(ConvergenceError) as excinfo:
            _exp_sinh_integral(integrand)
        h_last = _H_FIRST / 2 ** _HALVINGS
        expected = (trapezoid(2.0 * h_last), trapezoid(h_last))
        assert excinfo.value.estimates == pytest.approx(expected, rel=1e-12)
        assert abs(expected[1] - expected[0]) > 1e-10 * abs(expected[1])


def exp_sinh_rebuilt(fn, stops=None):
    """The exp-sinh ladder with every level's nodes and weights rebuilt per call.

    Evaluates ``fn`` once per level, stops when two levels agree to 1e-10, and
    appends the level it stops at to ``stops``.
    """
    def node_sum(u):
        t = np.exp(0.5 * math.pi * np.sinh(u))
        return 0.5 * math.pi * float(np.dot(fn(t), t * np.cosh(u)))

    h = _H_FIRST
    n_steps = round((_U_MAX - _U_MIN) / h)
    total = node_sum(_U_MIN + h * np.arange(n_steps + 1))
    estimates = [h * total]
    for level in range(1, _HALVINGS + 1):
        h, n_steps = 0.5 * h, 2 * n_steps
        total += node_sum(_U_MIN + h * np.arange(1, n_steps, 2))
        estimates.append(h * total)
        if abs(estimates[-1] - estimates[-2]) <= 1e-10 * abs(estimates[-1]):
            if stops is not None:
                stops.append(level)
            return estimates[-1]
    raise ConvergenceError("no convergence", estimates=tuple(estimates[-2:]))


def count_nodes_rebuilt(eps, eta, n):
    """Sign changes of the Jacobi factor on a y = 1 + x scan rebuilt per call."""
    a, b = 2.0 * eps, 2.0 * eta + 1.0
    width = min(2.0, 4.0 * (4.0 * n + 2.0 * b + 2.0) / a)
    y = width * np.sin(0.5 * np.linspace(0.0, math.pi, 4003)[1:-1]) ** 2
    signs = np.sign(_jacobi_y(n, a, b, y))
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[1:] * signs[:-1] < 0))


def shape_sweep():
    """Seeded (n, eps, eta): n <= 8, eps log-uniform in [1e-3, 3e6], eta in [-1/2, 20]."""
    rng = random.Random(16)
    cases = [(0, 1e-3, -0.5), (8, 3e6, 20.0), (3, 1e-3, 20.0), (5, 3e6, -0.5)]
    cases += [(rng.randint(0, 8), math.exp(rng.uniform(math.log(1e-3), math.log(3e6))),
               rng.uniform(-0.5, 20.0)) for _ in range(60)]
    return cases


class TestCachedNodeSets:
    """The scan grid and the exp-sinh table are built at import; results stay bit-identical."""

    @pytest.mark.parametrize("n, eps, eta", shape_sweep())
    def test_quadrature_matches_a_ladder_rebuilt_per_call(self, n, eps, eta, monkeypatch):
        cached = _norm_integral_quadrature(n, eps, eta)
        monkeypatch.setattr(wavefun, "_exp_sinh_integral", exp_sinh_rebuilt)
        assert _norm_integral_quadrature(n, eps, eta) == cached

    @pytest.mark.parametrize("n, eps, eta, level", [
        (0, 1.0, 0.5, 1), (0, 0.5, 0.0, 1), (3, 2.0, 1.0, 2), (2, 0.05, 0.5, 2),
        (3, 400.0, 2.0, 3), (0, 4e5, 9.0, 3), (8, 3e6, 20.0, 4), (5, 1e-3, 20.0, 4)])
    def test_quadrature_stopping_at_each_level_matches_the_ladder_rebuilt_per_call(
            self, n, eps, eta, level, monkeypatch):
        # levels 0-2 come from one call on the table's head, later levels one call each
        cached = _norm_integral_quadrature(n, eps, eta)
        stops = []
        monkeypatch.setattr(wavefun, "_exp_sinh_integral",
                            functools.partial(exp_sinh_rebuilt, stops=stops))
        assert _norm_integral_quadrature(n, eps, eta) == cached
        assert stops == [level]

    @pytest.mark.parametrize("fn, level, calls", [
        (lambda t: np.exp(-100.0 * t), 1, [225]),
        (lambda t: np.exp(-t * t), 2, [225]),
        (lambda t: np.exp(-t / 50.0), 3, [225, 224])])
    def test_levels_0_to_2_are_evaluated_in_one_call(self, fn, level, calls):
        sizes = []

        def counted(t):
            # a read-only view of the table, not a copy
            assert np.shares_memory(t, _EXP_SINH_NODES) and not t.flags.writeable
            sizes.append(len(t))
            return fn(t)

        stops = []
        assert _exp_sinh_integral(counted) == exp_sinh_rebuilt(fn, stops)
        assert stops == [level]
        assert sizes == calls

    def test_convergence_failure_estimates_match_a_ladder_rebuilt_per_call(self):
        def step(t):
            return np.where(t < 2.0, 1.0, 0.0)

        with pytest.raises(ConvergenceError) as cached:
            _exp_sinh_integral(step)
        with pytest.raises(ConvergenceError) as rebuilt:
            exp_sinh_rebuilt(step)
        assert cached.value.estimates == rebuilt.value.estimates

    @pytest.mark.parametrize("n, eps, eta", shape_sweep())
    def test_node_count_matches_a_scan_grid_rebuilt_per_call(self, n, eps, eta):
        assert _count_nodes(eps, eta, n) == count_nodes_rebuilt(eps, eta, n) == n

    def test_scan_grid_is_the_interior_of_4003_uniform_angles(self):
        theta = np.linspace(0.0, math.pi, 4003)[1:-1]
        assert np.array_equal(_NODE_SCAN_OFFSETS, np.sin(0.5 * theta) ** 2)

    def test_table_holds_every_level_end_to_end(self):
        lengths = [57, 56, *(112 * 2 ** m for m in range(_HALVINGS - 1))]
        ends = [0, *itertools.accumulate(lengths)]
        assert [(part.start, part.stop) for part in _EXP_SINH_LEVELS] == list(zip(ends, ends[1:]))
        assert len(_EXP_SINH_NODES) == len(_EXP_SINH_WEIGHTS) == ends[-1] == 14337
        # each level is the odd-k midpoints at h = _H_FIRST / 2^m, computed on its own
        for level, part in enumerate(_EXP_SINH_LEVELS):
            h = _H_FIRST / 2 ** level
            n_steps = round((_U_MAX - _U_MIN) / _H_FIRST) * 2 ** level
            u = _U_MIN + h * (np.arange(1, n_steps, 2) if level else np.arange(n_steps + 1))
            t = np.exp(0.5 * math.pi * np.sinh(u))
            assert np.array_equal(_EXP_SINH_NODES[part], t)
            assert np.array_equal(_EXP_SINH_WEIGHTS[part], t * np.cosh(u))

    def test_every_table_array_is_read_only(self):
        for array in (_NODE_SCAN_OFFSETS, _EXP_SINH_NODES, _EXP_SINH_WEIGHTS):
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestNearThreshold:
    """A = A_c (1 + delta): eps -> 0+, the state spreads to r ~ b / eps."""

    @pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-6])
    @pytest.mark.parametrize("n, l, D, alpha", [(0, 0, 3, 0.0), (2, 1, 2, 0.75),
                                                (3, 2, 4, 1.5)])
    def test_quadrature_norm_and_node_count(self, n, l, D, alpha, delta):
        state = QuantumState(n=n, l=l, D=D)
        params = PotentialParams(A=critical_coupling(state, alpha) * (1.0 + delta),
                                 alpha=alpha, b=1.0)
        solution = radial_wavefunction(params, state)
        assert 0.0 < solution.entry.epsilon < 1e-5
        quadrature = normalization_quadrature(params, solution.entry)
        assert abs(quadrature / solution.norm_constant - 1.0) <= 1e-10
        assert solution.node_count == n


class TestRadialSolution:
    def test_z_outside_unit_interval_raises(self):
        solution = radial_wavefunction(table_params(), QuantumState(n=0, l=1, D=2))
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
            solution.g_of_z(1.5)

    @pytest.mark.parametrize("call, phrase", [
        (lambda solution: solution.g_of_z(math.nan), r"must lie in \[0, 1\]"),
        (lambda solution: solution.g_of_z(np.array([0.5, math.nan])), r"must lie in \[0, 1\]"),
        (lambda solution: solution.g_of_r(math.nan), "r must be positive"),
        (lambda solution: solution.g_of_r(np.array([1.0, math.nan])), "r must be positive"),
    ], ids=["g_of_z", "g_of_z-array", "g_of_r", "g_of_r-array"])
    def test_nan_argument_raises(self, call, phrase):
        # NaN fails every comparison, so a range check must ask for the good values
        solution = radial_wavefunction(table_params(), QuantumState(n=0, l=1, D=2))
        with pytest.raises(DomainError, match=phrase):
            call(solution)

    def test_far_tail_is_zero_without_an_overflow_warning(self):
        # eps s overflows to inf at r = 1e300, where exp(-inf) = 0 is the limit
        solution = radial_wavefunction(PotentialParams(A=1e20, alpha=1.5, b=2.0),
                                       QuantumState(n=4, l=0, D=6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solution.g_of_r(1e300) == 0.0

    def test_sampling_from_the_decay_cutoff_raises(self):
        solution = radial_wavefunction(table_params(), QuantumState(n=0, l=1, D=2))
        with pytest.raises(DomainError, match="bad sampling range"):
            solution.sample(5, r_min=solution.decay_cutoff())

    def test_nodeless_ground_state(self):
        solution = radial_wavefunction(table_params(), QuantumState(n=0, l=1, D=2))
        assert solution.node_count == 0

    def test_two_nodes_for_n2(self):
        solution = radial_wavefunction(table_params(), QuantumState(n=2, l=1, D=2))
        assert solution.node_count == 2

    def test_node_count_at_high_n(self):
        params = PotentialParams(A=4000.0, alpha=0.75, b=40.0)
        solution = radial_wavefunction(params, QuantumState(n=30, l=0, D=3))
        assert solution.node_count == 30

    def test_node_count_equals_n_up_to_eps_1e12(self):
        # seeded: n <= 20, eps log-uniform in [1e-3, 1e12], and eta uniform in
        # [-1/2, 20] or eta + 1/2 log-uniform in [1e-3, 1e3]; a scan over all of
        # [-1, 1] misses the zeros from eps ~ 1e5 on
        rng = random.Random(18)
        for _ in range(1000):
            n = rng.randint(0, 20)
            eps = math.exp(rng.uniform(math.log(1e-3), math.log(1e12)))
            eta = (rng.uniform(-0.5, 20.0) if rng.random() < 0.5
                   else math.exp(rng.uniform(math.log(1e-3), math.log(1e3))) - 0.5)
            assert _count_nodes(eps, eta, n) == n, (n, eps, eta)

    def test_exponential_tail(self):
        # g ~ z^eps = exp(-eps r / b) for r >> b up to the (1-z) factor
        params = table_params()
        solution = radial_wavefunction(params, QuantumState(n=0, l=1, D=2))
        eps = solution.entry.epsilon
        ratio = solution.g_of_r(20.0 * params.b) / solution.g_of_r(10.0 * params.b)
        assert math.log(ratio) == pytest.approx(-10.0 * eps, rel=0.05)

    def test_boundary_values_vanish(self):
        solution = radial_wavefunction(table_params(), QuantumState(n=1, l=1, D=2))
        assert solution.g_of_z(0.0) == 0.0
        assert solution.g_of_z(1.0) == 0.0

    def test_envelope_bounds(self):
        solution = radial_wavefunction(table_params(0.1, 0.75), QuantumState(n=2, l=1, D=2))
        eps, eta, n = solution.entry.epsilon, solution.entry.eta, 2
        k_small = 2.0 * solution.norm_constant * abs(jacobi(n, 2 * eps, 2 * eta + 1, 1.0))
        for z in np.geomspace(1e-8, 1e-3, 20):
            assert abs(solution.g_of_z(z)) <= k_small * z**eps
        k_origin = 2.0 * solution.norm_constant * abs(jacobi(n, 2 * eps, 2 * eta + 1, -1.0))
        for one_minus_z in np.geomspace(1e-8, 1e-3, 20):
            z = 1.0 - one_minus_z
            assert abs(solution.g_of_z(z)) <= k_origin * one_minus_z ** (1.0 + eta)

    def test_norm_integral_of_samples(self):
        from scipy.integrate import simpson

        for params, state in (
                (table_params(), QuantumState(n=1, l=2, D=4)),
                # eps = 0.005: the tail runs past r = 745 b, where exp(-r/b) underflows
                (PotentialParams(A=3.9555, alpha=0.75, b=40.0), QuantumState(n=0, l=1, D=3))):
            solution = radial_wavefunction(params, state)
            table = solution.sample(20001, r_min=1e-6 * params.b)
            assert table.shape == (20001, 4)
            r, z, g, g2 = table.T
            assert np.all(np.diff(r) > 0.0)
            assert z == pytest.approx(np.exp(-r / params.b))
            assert g2 == pytest.approx(g * g)
            assert simpson(g2, x=r) == pytest.approx(1.0, abs=1e-8)

    def test_unbound_state_raises(self):
        params = PotentialParams(A=1.0, alpha=0.0, b=1.0)
        with pytest.raises(UnboundStateError) as excinfo:
            radial_wavefunction(params, QuantumState(n=4, l=0, D=3))
        assert excinfo.value.epsilon <= 0.0

    def test_sample_validation(self):
        solution = radial_wavefunction(table_params(), QuantumState(n=0, l=1, D=2))
        with pytest.raises(DomainError):
            solution.sample(0)


class TestAngularMultiIndex:
    def test_hierarchy_enforced(self):
        AngularMultiIndex((1, 2, 3))
        AngularMultiIndex((-2, 2, 5))
        with pytest.raises(DomainError):
            AngularMultiIndex((2, 1))
        with pytest.raises(DomainError):
            AngularMultiIndex((0, 2, 1))

    # |l_1| >= 0, so the hierarchy rejects a negative l_k for any k >= 2
    @pytest.mark.parametrize("l_values, phrase", [((), "at least one"),
                                                  ((1.5,), "must be integers"),
                                                  ((0, -1), "hierarchy violated"),
                                                  ((0, 0, -1), "hierarchy violated")])
    def test_malformed_multi_index_raises(self, l_values, phrase):
        with pytest.raises(DomainError, match=phrase):
            AngularMultiIndex(l_values)

    def test_level_index_outside_range_raises(self):
        with pytest.raises(DomainError, match="level index 0 outside 1..1"):
            AngularMultiIndex((1,)).level(0)

    def test_dimension_and_l(self):
        idx = AngularMultiIndex((-1, 2, 2))
        assert idx.D == 4
        assert idx.l == 2
        assert idx.level(1) == 1
        two_dim = AngularMultiIndex((-3,))
        assert two_dim.D == 2 and two_dim.l == 3


class TestAngularFactor:
    def test_azimuthal_phase(self):
        idx = AngularMultiIndex((2, 3))
        value = angular_factor(1, idx, 0.7)
        assert value == pytest.approx(cmath.exp(2j * 0.7) / math.sqrt(2.0 * math.pi))

    def test_d3_p_state_shape(self):
        # (m=0, l=1): factor is sqrt(3/2) cos(theta), the classic polar p shape
        idx = AngularMultiIndex((0, 1))
        for theta in (0.3, 1.0, 2.2):
            assert angular_factor(2, idx, theta) == pytest.approx(
                math.sqrt(1.5) * math.cos(theta), rel=1e-12)

    def test_unit_norm_under_axis_weight(self):
        rule = gauss_legendre(256)
        for idx, j in ((AngularMultiIndex((1, 2, 4)), 3),
                       (AngularMultiIndex((0, 3)), 2),
                       (AngularMultiIndex((2, 2, 2, 5)), 4)):
            integral = rule.integrate(
                lambda th: np.array([angular_factor(j, idx, t) ** 2
                                     * math.sin(t) ** (j - 1) for t in np.atleast_1d(th)]),
                0.0, math.pi)
            assert integral == pytest.approx(1.0, abs=1e-10)

    def test_degree_zero_factor_has_no_polar_nodes(self):
        idx = AngularMultiIndex((2, 2))  # n_j = l - |m| = 0
        values = [angular_factor(2, idx, t) for t in np.linspace(0.05, math.pi - 0.05, 200)]
        assert all(v > 0.0 for v in values)

    def test_three_dimensional_reduction_node_count(self):
        # n_{D-1} = l - |m|: the polar factor of (m=1, l=3) has two nodes
        idx = AngularMultiIndex((1, 3))
        values = [angular_factor(2, idx, t) for t in np.linspace(0.01, math.pi - 0.01, 400)]
        signs = np.sign(values)
        flips = int(np.count_nonzero(signs[1:] * signs[:-1] < 0))
        assert flips == 2

    def test_orthogonality_in_polar_degree(self):
        # fixed l_{j-1} (same weight and lam), varying degree n_j = l_j - l_{j-1}:
        # plain Jacobi orthogonality
        rule = gauss_legendre(256)
        j = 3
        factors = [AngularMultiIndex((1, 1, 1 + k)) for k in range(4)]

        def cross(idx_a, idx_b):
            return rule.integrate(
                lambda th: np.array([angular_factor(j, idx_a, t)
                                     * angular_factor(j, idx_b, t)
                                     * math.sin(t) ** (j - 1)
                                     for t in np.atleast_1d(th)]),
                0.0, math.pi)

        for a in range(4):
            for b in range(a):
                assert abs(cross(factors[a], factors[b])) < 1e-10

    def test_axis_index_validation(self):
        idx = AngularMultiIndex((0, 1))  # D = 3: valid axes are j in {1, 2}
        with pytest.raises(DomainError):
            angular_factor(0, idx, 0.5)
        with pytest.raises(DomainError):
            angular_factor(3, idx, 0.5)
        angular_factor(2, AngularMultiIndex((0, 1, 1)), 0.5)  # interior axis, D = 4


class TestTotalWavefunction:
    def test_product_structure_d3(self):
        params = table_params()
        state = QuantumState(n=0, l=1, D=3)
        idx = AngularMultiIndex((0, 1))
        radial = radial_wavefunction(params, state)
        r, theta, phi = 2.5, 1.1, 0.4
        manual = (r ** -1.0 * radial.g_of_r(r)
                  * angular_factor(1, idx, phi) * angular_factor(2, idx, theta))
        assert total_wavefunction(params, state, idx, (r, phi, theta),
                                  radial=radial) == pytest.approx(manual)

    def test_azimuthal_periodicity(self):
        params = table_params()
        state = QuantumState(n=0, l=1, D=2)
        idx = AngularMultiIndex((1,))
        radial = radial_wavefunction(params, state)
        v1 = total_wavefunction(params, state, idx, (3.0, 0.9), radial=radial)
        v2 = total_wavefunction(params, state, idx, (3.0, 0.9 + 2.0 * math.pi),
                                radial=radial)
        assert cmath.isclose(v1, v2, rel_tol=1e-9)

    def test_full_space_norm_d3(self):
        # tensor quadrature of |psi|^2 r^2 dr sin(theta) dtheta dphi over a
        # 2p-like state; radial integral taken in z = exp(-r/b)
        params = table_params()
        state = QuantumState(n=0, l=1, D=3)
        idx = AngularMultiIndex((0, 1))
        radial = radial_wavefunction(params, state)

        z_rule = gauss_legendre(512).mapped(0.0, 1.0)
        th_rule = gauss_legendre(32).mapped(0.0, math.pi)
        ph_rule = gauss_legendre(4).mapped(0.0, 2.0 * math.pi)
        total = 0.0
        for z, wz in zip(*z_rule):
            r = -params.b * math.log(z)
            jac = params.b / z  # dr = (b/z) dz
            for th, wth in zip(*th_rule):
                for ph, wph in zip(*ph_rule):
                    psi = total_wavefunction(params, state, idx, (r, ph, th),
                                             radial=radial)
                    total += wz * wth * wph * abs(psi) ** 2 * r * r * math.sin(th) * jac
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("state, idx, point", [
        (QuantumState(n=1, l=1, D=3), AngularMultiIndex((-1, 1)), (2.5, 0.4, 1.1)),
        (QuantumState(n=0, l=2, D=4), AngularMultiIndex((1, 2, 2)), (3.0, 0.4, 1.1, 0.7)),
    ], ids=["D3", "D4"])
    def test_radial_is_built_when_not_passed(self, state, idx, point):
        params = table_params()
        built = total_wavefunction(params, state, idx, point)
        passed = total_wavefunction(params, state, idx, point,
                                    radial=radial_wavefunction(params, state))
        assert built != 0.0
        assert (built.real.hex(), built.imag.hex()) == (passed.real.hex(), passed.imag.hex())

    def test_consistency_validation(self):
        params = table_params()
        state = QuantumState(n=0, l=1, D=3)
        with pytest.raises(DomainError):
            total_wavefunction(params, state, AngularMultiIndex((0, 2)), (1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            total_wavefunction(params, state, AngularMultiIndex((0, 1, 1)), (1.0, 0, 0, 0))

    @pytest.mark.parametrize("point, phrase", [((1.0, 0.3), "got 2 values"),
                                               ((0.0, 0.3, 0.2), "r must be positive"),
                                               ((-1.0, 0.3, 0.2), "r must be positive"),
                                               ((math.nan, 0.3, 0.2), "r must be positive")])
    def test_bad_point_raises(self, point, phrase):
        state = QuantumState(n=0, l=1, D=3)
        with pytest.raises(DomainError, match=phrase):
            total_wavefunction(table_params(), state, AngularMultiIndex((0, 1)), point)
