"""Potential geometry against independent numerical oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from manning_rosen import (CentrifugalMode, DomainError, NoMinimumError,
                           PotentialParams, QuantumState, effective_potential,
                           potential_curvature, potential_minimum, potential_value)
from manning_rosen.model import _geometric


def hulthen_direct(v0, b, r):
    return -v0 * math.exp(-r / b) / (1.0 - math.exp(-r / b))


def potential_value_rational(params, r):
    """V(r) in its single-fraction form, the second of the two published forms.

    V(r) = -(1/(kappa b^2)) (C u + D u^2)/(1-u)^2 with u = exp(-r/b),
    C = A and D = -A - alpha(alpha-1).  The numerator is evaluated in the
    rearrangement u [A(1-u) - alpha(alpha-1)u]; the printed C u + D u^2
    grouping cancels catastrophically at small r when A dominates.
    """
    x = r / params.b
    u = np.exp(-x)
    one_minus = -np.expm1(-x)
    numerator = u * (params.A * one_minus - params.alpha_product * u)
    scale = 1.0 / (params.kappa * params.b * params.b)
    return -scale * numerator / (one_minus * one_minus)


class TestPotentialValue:
    def test_alpha_zero_is_hulthen(self):
        # alpha(alpha-1) = 0 kills the second term; V0 = A/(kappa b^2) = 1 here
        params = PotentialParams(A=2.0, alpha=0.0, b=1.0)
        for r in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert potential_value(params, r) == pytest.approx(
                hulthen_direct(1.0, 1.0, r), rel=1e-13)

    def test_alpha_one_equals_alpha_zero(self):
        p0 = PotentialParams(A=2.0, alpha=0.0, b=1.0)
        p1 = PotentialParams(A=2.0, alpha=1.0, b=1.0)
        for r in (0.05, 0.7, 2.0, 20.0):
            assert potential_value(p0, r) == potential_value(p1, r)

    def test_value_at_minimum_location(self):
        params = PotentialParams(A=2.0, alpha=2.0, b=1.0)
        r0, _ = potential_minimum(params)
        assert potential_value(params, r0) == pytest.approx(-0.25, rel=1e-12)

    def test_rejects_nonpositive_radius(self):
        params = PotentialParams(A=2.0, alpha=0.5, b=1.0)
        with pytest.raises(DomainError):
            potential_value(params, 0.0)
        with pytest.raises(DomainError):
            potential_value(params, -1.0)

    @pytest.mark.parametrize("call", [
        lambda params: potential_value(params, math.nan),
        lambda params: potential_value(params, np.array([1.0, math.nan])),
        lambda params: effective_potential(params, QuantumState(n=0, l=1, D=2), math.nan),
    ], ids=["potential-scalar", "potential-array", "effective-potential"])
    def test_rejects_nan_radius(self, call):
        # NaN <= 0 is False: a check written as "reject r <= 0" lets NaN through
        with pytest.raises(DomainError, match="r must be positive"):
            call(PotentialParams(A=2.0, alpha=0.5, b=1.0))

    @pytest.mark.parametrize("call, r_bad", [
        # w ~ b/r overflows: 0 * inf^2, or inf - inf, would read V as NaN
        (lambda r: potential_value(PotentialParams(A=1.0, alpha=0.0, b=1.0), r), 1e-310),
        (lambda r: effective_potential(PotentialParams(A=1.0, alpha=2.0, b=1.0),
                                       QuantumState(n=0, l=1, D=3), r), 1e-310),
        # w^2 and 1/r^2 overflow: V_eff would read inf
        (lambda r: effective_potential(PotentialParams(A=1.0, alpha=2.0, b=1.0),
                                       QuantumState(n=0, l=1, D=3), r), 1e-200),
        (lambda r: effective_potential(PotentialParams(A=1.0, alpha=2.0, b=1.0),
                                       QuantumState(n=0, l=1, D=3), r,
                                       CentrifugalMode.APPROXIMATED), 1e-200),
    ], ids=["potential", "effective-exact-nan", "effective-exact-inf", "effective-approx"])
    def test_overflow_near_the_origin_names_the_first_bad_radius(self, call, r_bad):
        # no RuntimeWarning either: pytest would turn it into an error
        with pytest.raises(DomainError, match=f"not a finite float at r={r_bad!r} "):
            call(r_bad)
        with pytest.raises(DomainError, match=f"not a finite float at r={r_bad!r} "):
            call(np.array([1.0, r_bad, r_bad / 2.0]))

    def test_array_input(self):
        params = PotentialParams(A=80.0, alpha=0.75, b=40.0)
        r = np.array([0.1, 1.0, 10.0])
        values = potential_value(params, r)
        assert values.shape == (3,)
        assert values[0] == potential_value(params, 0.1)

    def test_rational_form_agrees_to_4_ulp(self):
        params = PotentialParams(A=80.0, alpha=0.75, b=40.0)
        for x in np.geomspace(1e-6, 50.0, 300):
            r = x * params.b
            v1 = potential_value(params, r)
            v2 = potential_value_rational(params, r)
            assert abs(v1 - v2) <= 4.0 * math.ulp(abs(v1))

    def test_stable_down_to_tiny_radius(self):
        # 1/(1 - exp(-x)) must not lose accuracy near x ~ 1e-12;
        # here V(r) = -w(r) and w = 1/r - 1/2 + O(r) for r -> 0
        params = PotentialParams(A=2.0, alpha=0.0, b=1.0)
        r = 1e-12
        got = potential_value(params, r)
        assert math.isfinite(got)
        assert got == pytest.approx(-(1.0 / r - 0.5), rel=1e-12)


class TestAlphaSymmetry:
    def test_exactly_representable_pairs_bitwise(self):
        for alpha, mirror in ((0.75, 0.25), (1.5, -0.5), (2.0, -1.0)):
            pa = PotentialParams(A=5.0, alpha=alpha, b=2.0)
            pb = PotentialParams(A=5.0, alpha=mirror, b=2.0)
            for r in (0.01, 0.9, 4.0):
                assert potential_value(pa, r) == potential_value(pb, r)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(-3.0, 4.0, allow_nan=False),
           r=st.floats(0.01, 30.0, allow_nan=False))
    def test_mirror_bitwise_given_identical_product(self, alpha, r):
        # the only alpha dependence is alpha(alpha-1); whenever the mirrored
        # input yields the identical float product, values must match bitwise
        pa = PotentialParams(A=7.0, alpha=alpha, b=1.5)
        pb = PotentialParams(A=7.0, alpha=1.0 - alpha, b=1.5)
        va, vb = potential_value(pa, r), potential_value(pb, r)
        if pa.alpha_product == pb.alpha_product:
            assert va == vb
        else:
            # 1 - alpha rounds, perturbing the product by ~1 ulp; the value
            # may shift by at most that perturbation propagated through w^2.
            # V = -scale (A w - p w^2) can cancel terms far larger than |V|,
            # so each evaluation rounds at the scale of its largest term
            x = r / 1.5
            w = math.exp(-x) / (-math.expm1(-x))
            scale = 1.0 / (pa.kappa * 1.5**2)
            slack = abs(pa.alpha_product - pb.alpha_product) * w * w * scale
            largest = max(abs(va), abs(vb), scale * 7.0 * w,
                          scale * max(abs(pa.alpha_product), abs(pb.alpha_product)) * w * w)
            assert abs(va - vb) <= 4.0 * math.ulp(largest) + 1.01 * slack


class TestMinimum:
    def test_small_case_against_minimizer(self):
        params = PotentialParams(A=2.0, alpha=2.0, b=1.0)
        r0, v_min = potential_minimum(params)
        assert r0 == pytest.approx(math.log(3.0), rel=1e-14)
        assert v_min == pytest.approx(-0.25, rel=1e-14)
        found = minimize_scalar(lambda r: potential_value(params, r),
                                bounds=(1e-3, 20.0), method="bounded",
                                options={"xatol": 1e-12})
        assert r0 == pytest.approx(found.x, abs=1e-8)
        assert v_min == pytest.approx(found.fun, rel=1e-10)

    def test_large_case_against_minimizer(self):
        params = PotentialParams(A=80.0, alpha=2.0, b=40.0)
        r0, v_min = potential_minimum(params)
        assert r0 == pytest.approx(40.0 * math.log(1.05), rel=1e-14)
        found = minimize_scalar(lambda r: potential_value(params, r),
                                bounds=(1e-3, 400.0), method="bounded",
                                options={"xatol": 1e-10})
        assert r0 == pytest.approx(found.x, abs=1e-6)
        assert v_min == pytest.approx(found.fun, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_no_interior_minimum_for_alpha_in_unit_interval(self, alpha):
        params = PotentialParams(A=2.0, alpha=alpha, b=1.0)
        with pytest.raises(NoMinimumError):
            potential_minimum(params)
        with pytest.raises(NoMinimumError):
            potential_curvature(params)

    @pytest.mark.parametrize("params, phrase", [
        (PotentialParams(A=1e300, alpha=-1.0, b=3.0), r"V\(r0\) is not a finite float"),
        (PotentialParams(A=80.0, alpha=1.5, b=1e308), r"V\(r0\) rounds to 0"),
    ], ids=["V-overflows", "V-underflows"])
    def test_minimum_out_of_float_range_raises(self, params, phrase):
        # V(r0) would read -inf and -0.0
        with pytest.raises(DomainError, match=phrase):
            potential_minimum(params)

    def test_negative_alpha_mirrors_above_one(self):
        # alpha(alpha-1) > 0 also for alpha < 0; same geometry as 1 - alpha
        pa = PotentialParams(A=2.0, alpha=-1.0, b=1.0)
        pb = PotentialParams(A=2.0, alpha=2.0, b=1.0)
        assert potential_minimum(pa) == potential_minimum(pb)

    def test_first_derivative_vanishes_at_r0(self):
        # stencil h = 1e-5 b; the bound presumes r0 ~ b (shallow-minimum
        # regime), where central-difference truncation stays negligible
        for params in (PotentialParams(A=2.0, alpha=2.0, b=1.0),
                       PotentialParams(A=3.0, alpha=1.6, b=2.5)):
            r0, v_min = potential_minimum(params)
            h = 1e-5 * params.b
            derivative = (potential_value(params, r0 + h)
                          - potential_value(params, r0 - h)) / (2.0 * h)
            assert abs(derivative) < 1e-8 * abs(v_min) / params.b

    def test_first_derivative_vanishes_deep_narrow_minimum(self):
        # r0 ~ 0.05 b here: the same relative stencil is coarse next to the
        # minimum's own width, so judge against the local scale r0 instead
        params = PotentialParams(A=80.0, alpha=1.8, b=40.0)
        r0, v_min = potential_minimum(params)
        h = 1e-5 * r0
        derivative = (potential_value(params, r0 + h)
                      - potential_value(params, r0 - h)) / (2.0 * h)
        assert abs(derivative) < 1e-8 * abs(v_min) / r0


class TestCurvature:
    def test_value_against_finite_difference(self):
        params = PotentialParams(A=2.0, alpha=2.0, b=1.0)
        assert potential_curvature(params) == pytest.approx(1.125, rel=1e-14)
        r0, _ = potential_minimum(params)
        h = 1e-4
        second = (potential_value(params, r0 + h) - 2.0 * potential_value(params, r0)
                  + potential_value(params, r0 - h)) / (h * h)
        assert potential_curvature(params) == pytest.approx(second, rel=1e-6)

    def test_inverse_quartic_screening_scale(self):
        reference = potential_curvature(PotentialParams(A=2.0, alpha=2.0, b=1.0))
        doubled = potential_curvature(PotentialParams(A=2.0, alpha=2.0, b=2.0))
        assert doubled == pytest.approx(reference / 16.0, rel=1e-14)

    @pytest.mark.parametrize("A, alpha, b, phrase", [
        # b**4 raises OverflowError
        (80.0, 1.5, 1e80, "rounds to 0"),
        # (A + 2 alpha(alpha-1))**2 raises OverflowError
        (1e160, 1.5, 40.0, "is not a finite float"),
        # 8 b**4 overflows to inf, which would read as V'' = 0
        (80.0, 1.5, 1e77, "rounds to 0"),
        # A^2 (A + 2 alpha(alpha-1))^2 overflows to inf
        (1e100, 1.5, 40.0, "is not a finite float"),
    ], ids=["80.0-1.5-1e+80", "1e+160-1.5-40.0", "80.0-1.5-1e+77", "1e+100-1.5-40.0"])
    def test_overflow_raises_domain_error(self, A, alpha, b, phrase):
        with pytest.raises(DomainError, match=phrase):
            potential_curvature(PotentialParams(A=A, alpha=alpha, b=b))

    def test_subnormal_curvature_raises_domain_error(self):
        # A^2 = 1e-320 is subnormal, and V'' = 1.25e-321 with it
        with pytest.raises(DomainError, match=r"V''\(r0\) is subnormal"):
            potential_curvature(PotentialParams(A=1e-160, alpha=2.0, b=1.0))


class TestEffectivePotential:
    def test_mode_given_as_a_string_raises(self):
        params = PotentialParams(A=80.0, alpha=0.75, b=40.0)
        with pytest.raises(DomainError, match="unknown centrifugal mode: 'exact'"):
            effective_potential(params, QuantumState(n=0, l=1, D=2), 1.0, "exact")

    def test_centrifugal_prefactor_vanishes_d3_s_state(self):
        params = PotentialParams(A=3.0, alpha=0.6, b=1.0)
        state = QuantumState(n=0, l=0, D=3)
        for r in (0.2, 1.0, 5.0):
            plain = potential_value(params, r)
            assert effective_potential(params, state, r, CentrifugalMode.EXACT) == plain
            assert effective_potential(params, state, r, CentrifugalMode.APPROXIMATED) == plain

    def test_d2_s_state_attractive_quarter(self):
        params = PotentialParams(A=2.0, alpha=0.75, b=1.0)
        state = QuantumState(n=0, l=0, D=2)
        r = 1.0
        expected = potential_value(params, r) + (1.0 / params.kappa) * (-0.25) / (r * r)
        got = effective_potential(params, state, r, CentrifugalMode.EXACT)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_approximation_tracks_exact_at_small_radius(self):
        params = PotentialParams(A=2.0, alpha=0.75, b=1.0)
        state = QuantumState(n=0, l=1, D=2)  # prefactor 3/4
        plain = lambda r: potential_value(params, r)

        def barrier(r, mode):
            return effective_potential(params, state, r, mode) - plain(r)

        r = 0.01 * params.b
        c_exact = barrier(r, CentrifugalMode.EXACT)
        c_approx = barrier(r, CentrifugalMode.APPROXIMATED)
        assert abs(c_exact - c_approx) / c_exact < 1e-2

        # relative deviation is O(r/b) and shrinks with r
        previous = None
        for x in (0.2, 0.1, 0.05, 0.01, 0.005):
            r = x * params.b
            rel = abs(barrier(r, CentrifugalMode.EXACT)
                      - barrier(r, CentrifugalMode.APPROXIMATED)) / barrier(
                          r, CentrifugalMode.EXACT)
            assert rel <= x
            if previous is not None:
                assert rel < previous
            previous = rel


class TestTinyScreeningLength:
    # b = 1e-300: b^2 underflows to 0, where energy() raises DomainError
    @pytest.mark.parametrize("call", [
        lambda params: potential_value(params, 1.0),
        lambda params: effective_potential(params, QuantumState(n=0, l=1, D=2), 1.0),
        lambda params: effective_potential(params, QuantumState(n=0, l=1, D=2), 1.0,
                                           CentrifugalMode.APPROXIMATED),
        potential_minimum,
        potential_curvature,
    ], ids=["potential", "effective-exact", "effective-approx", "minimum", "curvature"])
    def test_underflowing_b_squared_raises_domain_error(self, call):
        with pytest.raises(DomainError, match="is not a finite float"):
            call(PotentialParams(A=80.0, alpha=1.5, b=1e-300))

    @pytest.mark.parametrize("call", [
        lambda params: potential_value(params, 1.0),
        lambda params: effective_potential(params, QuantumState(n=0, l=1, D=2), 1.0),
        lambda params: effective_potential(params, QuantumState(n=0, l=1, D=2), 1.0,
                                           CentrifugalMode.APPROXIMATED),
    ], ids=["potential", "effective-exact", "effective-approx"])
    @pytest.mark.parametrize("b, phrase", [
        (1e200, "rounds to 0"),  # 1/(kappa b^2) = 1e-400 would read V as -0.0 or NaN
        (1e-155, "is not a finite float"),  # 1/(kappa b^2) = 1e310 would read V as -inf
    ], ids=["b-1e200", "b-1e-155"])
    def test_scale_out_of_float_range_raises_domain_error(self, call, b, phrase):
        with pytest.raises(DomainError, match=phrase):
            call(PotentialParams(A=80.0, alpha=1.5, b=b))


class TestParams:
    def test_rejects_nonpositive_scales(self):
        with pytest.raises(DomainError):
            PotentialParams(A=1.0, alpha=0.5, b=0.0)
        with pytest.raises(DomainError):
            PotentialParams(A=1.0, alpha=0.5, b=1.0, mu=-1.0)

    @pytest.mark.parametrize("field", ["A", "alpha", "b", "mu", "hbar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, field, value):
        values = {"A": 1.0, "alpha": 0.5, "b": 1.0, field: value}
        with pytest.raises(DomainError, match="finite"):
            PotentialParams(**values)

    @pytest.mark.parametrize("scales", [{"hbar": 1e155}, {"hbar": 1e-200},
                                        {"mu": 1e308, "hbar": 1e-5}, {"mu": 1e-310}],
                             ids=["kappa-underflows", "hbar-squared-underflows",
                                  "kappa-overflows", "kappa-subnormal"])
    def test_rejects_kappa_out_of_float_range(self, scales):
        with pytest.raises(DomainError, match="kappa"):
            PotentialParams(A=1.0, alpha=0.5, b=1.0, **scales)

    def test_kappa_derived(self):
        params = PotentialParams(A=1.0, alpha=0.5, b=1.0, mu=2.0, hbar=0.5)
        assert params.kappa == pytest.approx(2.0 * 2.0 / 0.25)

    def test_quantum_state_validation(self):
        with pytest.raises(DomainError):
            QuantumState(n=-1, l=0, D=3)
        with pytest.raises(DomainError):
            QuantumState(n=0, l=0, D=1)
        assert QuantumState(n=0, l=2, D=4).q == 6


def geometric_draws():
    """Seeded (lo, hi, num): both ends log-uniform in [1e-300, 1e300], num 1, 2 or up to 5000."""
    rng = random.Random(20)
    draws = [(1e-300, 1e300, 1), (1e-300, 1e300, 2), (1e-300, 1e300, 4001), (4e-3, 48.96, 1001)]
    for _ in range(2000):
        lo, hi = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
        draws.append((lo, hi, rng.choice([1, 2, 3, rng.randint(1, 5000)])))
    return draws


class TestGeometric:
    def test_matches_geomspace_bit_for_bit(self):
        for lo, hi, num in geometric_draws():
            expected = np.geomspace(lo, hi, num)
            got = _geometric(lo, hi, num)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), \
                (lo, hi, num)
