"""Closed-form spectrum: published values, special cases, and invariants."""

import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manning_rosen import (DomainError, LabelError, PotentialParams, QuantumState,
                           UnboundStateError, bound_states, coulomb_limit_energy,
                           critical_coupling, degenerate_partners, energy,
                           epsilon_parameter, hulthen_energy, parse_spectroscopic,
                           screened_coulomb_coupling, shape_parameter, state_label)


def table_params(inv_b: float, alpha: float) -> PotentialParams:
    b = 1.0 / inv_b
    return PotentialParams(A=2.0 * b, alpha=alpha, b=b)


class TestShapeParameter:
    def test_hulthen_reduction(self):
        params = PotentialParams(A=2.0, alpha=0.0, b=1.0)
        state = QuantumState(n=0, l=0, D=3)
        a = shape_parameter(params, state)
        assert a == 1.0
        assert energy(params, state).eta == 0.0

    def test_plugin_arithmetic(self):
        params = table_params(0.025, 0.75)
        a = shape_parameter(params, QuantumState(n=0, l=1, D=2))
        assert a == pytest.approx(math.sqrt(3.25), rel=1e-15)

    def test_alpha_mirror_identical(self):
        state = QuantumState(n=0, l=1, D=5)
        for alpha, mirror in ((0.75, 0.25), (1.5, -0.5)):
            a1 = shape_parameter(PotentialParams(A=1.0, alpha=alpha, b=1.0), state)
            a2 = shape_parameter(PotentialParams(A=1.0, alpha=mirror, b=1.0), state)
            assert a1 == a2

    @pytest.mark.parametrize("call", [
        # a ~ 2 alpha overflows
        lambda: shape_parameter(PotentialParams(A=1.0, alpha=1e200, b=1.0),
                                QuantumState(0, 0, 3)),
        # eta = inf makes eps inf / inf
        lambda: epsilon_parameter(PotentialParams(A=1.0, alpha=1e200, b=1.0),
                                  QuantumState(0, 0, 3)),
        # 4A overflows
        lambda: epsilon_parameter(PotentialParams(A=1e308, alpha=0.0, b=1.0),
                                  QuantumState(0, 0, 3)),
    ], ids=["shape-alpha-1e200", "epsilon-alpha-1e200", "epsilon-A-1e308"])
    def test_non_finite_result_raises(self, call):
        with pytest.raises(DomainError, match="is not a finite float"):
            call()

    def test_negative_radicand_rejected(self):
        # only reachable at q = 0 (D=2, l=0) with alpha near 1/2
        params = PotentialParams(A=1.0, alpha=0.3, b=1.0)
        with pytest.raises(DomainError):
            shape_parameter(params, QuantumState(n=0, l=0, D=2))


class TestEnergy:
    def test_underflowing_b_squared_raises(self):
        # b^2 = 1e-600 underflows to 0: E is not a finite float
        with pytest.raises(DomainError, match="not a finite float"):
            energy(PotentialParams(A=80.0, alpha=0.75, b=1e-300), QuantumState(n=0, l=1, D=2))

    def test_overflowing_b_squared_raises(self):
        # 2 mu b^2 = 2e308 overflows: E would read -0.0 for a bound state
        with pytest.raises(DomainError, match="rounds to 0"):
            energy(PotentialParams(A=80.0, alpha=0.75, b=1e154), QuantumState(n=0, l=1, D=2))

    def test_subnormal_energy_raises(self):
        # eps = 0.001 at b = 1e153: E = -5e-313 is subnormal, so it keeps only part
        # of its significant bits
        with pytest.raises(DomainError, match="is subnormal"):
            energy(PotentialParams(A=1.002, alpha=0.0, b=1e153), QuantumState(n=0, l=0, D=3))

    def test_published_2p_value(self):
        entry = energy(table_params(0.025, 0.75), QuantumState(n=0, l=1, D=2))
        assert abs(entry.energy - (-0.241087728)) <= 5e-9

    def test_published_2p_hulthen_column_hand_check(self):
        entry = energy(table_params(0.025, 0.0), QuantumState(n=0, l=1, D=2))
        hand = -(4.0 * 80.0 - 9.0) ** 2 / (32.0 * 1600.0 * 9.0)
        assert abs(entry.energy - (-0.209898003)) <= 5e-9
        assert entry.energy == pytest.approx(hand, rel=1e-15)

    def test_interdimensional_pair_published(self):
        e_3d_d2 = energy(table_params(0.025, 1.5), QuantumState(n=0, l=2, D=2)).energy
        e_2p_d4 = energy(table_params(0.025, 1.5), QuantumState(n=0, l=1, D=4)).energy
        assert e_3d_d2 == e_2p_d4
        assert abs(e_3d_d2 - (-0.058898861)) <= 5e-9

    def test_recomputed_high_shell_value(self):
        # closed form for (n=3, l=2, D=2); cross-checked by the oracle suite
        entry = energy(table_params(0.025, 0.75), QuantumState(n=3, l=2, D=2))
        assert entry.energy == pytest.approx(-0.006591028052354, rel=1e-12)

    def test_entry_consistency(self):
        for alpha in (0.0, 0.75, 1.5):
            entry = energy(table_params(0.05, alpha), QuantumState(n=1, l=1, D=4))
            params = table_params(0.05, alpha)
            back = -2.0 * params.mu * params.b**2 * entry.energy / params.hbar**2
            assert abs(back - entry.epsilon**2) <= 4.0 * math.ulp(entry.epsilon**2)
            assert entry.a_param >= 0.0
            assert entry.eta == 0.5 * (entry.a_param - 1.0)

    def test_unbound_carries_epsilon(self):
        params = PotentialParams(A=1.0, alpha=0.0, b=1.0)
        with pytest.raises(UnboundStateError) as excinfo:
            energy(params, QuantumState(n=5, l=0, D=3))
        assert excinfo.value.epsilon <= 0.0

    def test_bound_states_enumeration_and_monotonicity(self):
        params = table_params(0.1, 0.75)
        entries = bound_states(params, D=2, l=1)
        assert len(entries) >= 3
        energies = [entry.energy for entry in entries]
        assert energies == sorted(energies)  # strictly increasing toward zero
        assert all(e2 > e1 for e1, e2 in zip(energies, energies[1:]))
        # the state after the last bound one is indeed unbound
        next_state = QuantumState(n=len(entries), l=1, D=2)
        assert epsilon_parameter(params, next_state) <= 0.0


class TestCriticalCoupling:
    def test_hulthen_s_wave_squares(self):
        assert critical_coupling(QuantumState(n=0, l=0, D=3), 0.0) == pytest.approx(1.0)
        assert critical_coupling(QuantumState(n=2, l=0, D=3), 0.0) == pytest.approx(9.0)

    def test_energy_vanishes_at_critical_coupling(self):
        state = QuantumState(n=0, l=1, D=2)
        a_c = critical_coupling(state, 0.75)
        eta = 0.5 * (math.sqrt(3.25) - 1.0)
        assert a_c == pytest.approx((1.0 + eta) ** 2 - eta * (eta + 1.0) + 0.75, rel=1e-14)
        params = PotentialParams(A=a_c, alpha=0.75, b=1.0)
        eps = epsilon_parameter(params, state)
        implied_energy = -(eps * eps) / (2.0 * params.b**2)
        assert abs(implied_energy) < 1e-10

    @pytest.mark.parametrize("alpha", [0.75, 1.5, 1e4, 1e8, 1e12, 1e16, 1e100])
    def test_matches_mpmath_within_the_threshold_bracket(self, alpha):
        # (n+1+eta)^2 - eta(eta+1) cancels as eta ~ |alpha| grows: at alpha = 1e16
        # it read 0.75 for 2p at D = 2.  The reference takes that form to 250
        # digits, more than eta^2 ~ 1e200 spends; the state must be unbound at
        # A_c (1 - 1e-9) and bound at A_c (1 + 1e-9)
        for n in range(6):
            for l, D in ((0, 2), (0, 3), (1, 2), (2, 4)):
                state = QuantumState(n=n, l=l, D=D)
                if state.q == 0 and abs(1.0 - 2.0 * alpha) < 1.0:
                    continue  # no real shape parameter at q = 0
                a_c = critical_coupling(state, alpha)
                with mpmath.workdps(250):
                    radicand = (1 - 2 * mpmath.mpf(alpha)) ** 2 + state.q ** 2 - 1
                    eta = (mpmath.sqrt(radicand) - 1) / 2
                    reference = (n + 1 + eta) ** 2 - eta * (eta + 1) + (state.q ** 2 - 1) / 4
                    assert a_c * (1 - 1e-9) < reference < a_c * (1 + 1e-9), state
                below, above = (epsilon_parameter(PotentialParams(A=a_c * (1.0 + rel),
                                                                  alpha=alpha, b=1.0), state)
                                for rel in (-1e-9, 1e-9))
                assert below < 0.0 < above, state

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 1e300])
    def test_non_finite_result_raises(self, alpha):
        with pytest.raises(DomainError):
            critical_coupling(QuantumState(n=0, l=0, D=3), alpha)


class TestDegeneracy:
    def test_partner_chain(self):
        partners = degenerate_partners(QuantumState(n=0, l=4, D=2), 2, 8)
        assert [(s.n, s.l, s.D) for s in partners] == [
            (0, 4, 2), (0, 3, 4), (0, 2, 6), (0, 1, 8)]

    def test_singleton(self):
        partners = degenerate_partners(QuantumState(n=1, l=0, D=3), 3, 3)
        assert [(s.n, s.l, s.D) for s in partners] == [(1, 0, 3)]

    def test_partner_energies_bit_identical(self):
        params = table_params(0.025, 0.75)
        e1 = energy(params, QuantumState(n=0, l=1, D=4)).energy
        e2 = energy(params, QuantumState(n=0, l=2, D=2)).energy
        assert e1 == e2

    def test_bad_range(self):
        with pytest.raises(DomainError):
            degenerate_partners(QuantumState(n=0, l=1, D=4), 1, 6)
        with pytest.raises(DomainError):
            degenerate_partners(QuantumState(n=0, l=1, D=4), 6, 3)


class TestHulthenAndCoulomb:
    def test_published_hulthen_value(self):
        value = hulthen_energy(QuantumState(n=0, l=1, D=2), A=80.0, b=40.0)
        assert abs(value - (-0.209898003)) <= 5e-9

    def test_matches_energy_at_alpha_zero_and_one(self):
        for label_n, label_l in ((0, 1), (1, 1), (0, 2), (2, 3)):
            state = QuantumState(n=label_n, l=label_l, D=2)
            reference = hulthen_energy(state, A=80.0, b=40.0)
            for alpha in (0.0, 1.0):
                value = energy(table_params(0.025, alpha), state).energy
                assert abs(value - reference) <= 4.0 * math.ulp(abs(reference))

    def test_unbound_below_threshold(self):
        with pytest.raises(UnboundStateError):
            hulthen_energy(QuantumState(n=3, l=0, D=3), A=2.0, b=1.0)

    @pytest.mark.parametrize("b, phrase", [
        (0.0, "must all be positive"), (-40.0, "must all be positive"),
        (math.nan, "must all be finite"), (math.inf, "must all be finite"),
        (1e-300, "is not a finite float"),  # b^2 underflows to 0, as in energy()
        (1e160, "rounds to 0"),
    ])
    def test_bad_screening_length_raises_domain_error(self, b, phrase):
        state = QuantumState(n=0, l=1, D=2)
        with pytest.raises(DomainError, match=phrase):
            hulthen_energy(state, A=80.0, b=b)
        if math.isfinite(b) and b > 0.0:
            with pytest.raises(DomainError, match=phrase):
                energy(PotentialParams(A=80.0, alpha=0.0, b=b), state)

    def test_overflowing_square_raises_domain_error(self):
        # (4A - M^2)**2 raises OverflowError at A = 1e160, where energy() raises DomainError
        state = QuantumState(n=0, l=1, D=2)
        with pytest.raises(DomainError, match="is not a finite float"):
            hulthen_energy(state, A=1e160, b=40.0)
        with pytest.raises(DomainError, match="is not a finite float"):
            energy(PotentialParams(A=1e160, alpha=0.0, b=40.0), state)

    def test_screened_coulomb_recovers_hydrogen(self):
        A, b = screened_coulomb_coupling(Z=1.0, delta=1e-4)
        assert b == pytest.approx(1e4)
        assert A == pytest.approx(2e4)
        ground = hulthen_energy(QuantumState(n=0, l=0, D=3), A=A, b=b)
        assert ground == pytest.approx(-0.5, rel=1e-3)

    def test_coulomb_limit_values(self):
        assert coulomb_limit_energy(QuantumState(n=0, l=0, D=3), Z=1.0) == -0.5
        assert coulomb_limit_energy(QuantumState(n=1, l=0, D=3), Z=1.0) == -0.125
        assert (coulomb_limit_energy(QuantumState(n=0, l=0, D=5), Z=1.0)
                == coulomb_limit_energy(QuantumState(n=0, l=1, D=3), Z=1.0)
                == -0.125)

    def test_coulomb_limit_keeps_range_past_the_bohr_radius(self):
        # a0 = hbar^2 / (mu e^2) = 1e-200 squares to 0, while E = -2 / (hbar^2 M^2) is normal
        assert coulomb_limit_energy(QuantumState(n=0, l=0, D=3), Z=1.0,
                                    hbar=1e-100) == pytest.approx(-5e199, rel=1e-15)

    def test_coulomb_rejects_bad_charge(self):
        with pytest.raises(DomainError):
            coulomb_limit_energy(QuantumState(n=0, l=0, D=3), Z=0.0)

    def test_coulomb_limit_out_of_float_range_raises(self):
        with pytest.raises(DomainError, match="is not a finite float for Z=1e"):
            coulomb_limit_energy(QuantumState(n=0, l=0, D=3), Z=1e200)

    def test_screened_coulomb_out_of_float_range_raises(self):
        # b = 1/delta overflows to inf, and A with it
        with pytest.raises(DomainError, match="is not a finite float"):
            screened_coulomb_coupling(1.0, 1e-320)

    @pytest.mark.parametrize("call, phrase", [
        # hbar^2 underflows to 0 in A = 2 mu Z e^2 b / hbar^2
        (lambda: screened_coulomb_coupling(1.0, 1.0, hbar=1e-200), "A is not a finite float"),
        # hbar^2 underflows to 0 in E = -2 Z^2 mu e^4 / (hbar^2 M^2)
        (lambda: coulomb_limit_energy(QuantumState(0, 0, 3), 1.0, hbar=1e-200),
         "is not a finite float"),
        # e^4 = 0 makes E 0
        (lambda: coulomb_limit_energy(QuantumState(0, 0, 3), 1.0, e_sq=0.0), "rounds to 0"),
    ], ids=["screened-hbar-1e-200", "coulomb-hbar-1e-200", "coulomb-e-sq-0"])
    def test_denominator_underflowing_to_zero_raises_domain_error(self, call, phrase):
        with pytest.raises(DomainError, match=phrase):
            call()

    def test_screened_coulomb_rejects_zero_screening(self):
        with pytest.raises(DomainError, match="screening delta must be positive"):
            screened_coulomb_coupling(1.0, 0.0)


class TestSpectroscopicLabels:
    @pytest.mark.parametrize("label,expected", [
        ("2p", (0, 1)), ("6g", (1, 4)), ("1s", (0, 0)), ("4f", (0, 3)), ("7h", (1, 5)),
    ])
    def test_parse(self, label, expected):
        assert parse_spectroscopic(label) == expected

    @pytest.mark.parametrize("label", ["1x", "p2", "0s", "2", "s", "1ss", "2q", "1p"])
    def test_rejects_malformed(self, label):
        with pytest.raises(LabelError):
            parse_spectroscopic(label)

    def test_round_trip(self):
        for n in range(4):
            for l in range(6):
                assert parse_spectroscopic(state_label(n, l)) == (n, l)

    def test_label_past_the_letter_table(self):
        assert state_label(0, 6) == "7[l=6]"


class TestSpectrumInvariants:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 4), l=st.integers(0, 5), d=st.integers(2, 10),
           shift=st.integers(0, 4), alpha=st.sampled_from([0.0, 0.3, 0.75, 1.5]))
    def test_dependence_collapses_to_q(self, n, l, d, shift, alpha):
        # (l + shift, D) and (l, D + 2 shift) share q; energies must be identical bits
        params = PotentialParams(A=60.0, alpha=alpha, b=5.0)

        def eps_or_none(state):
            try:
                return epsilon_parameter(params, state)
            except DomainError:
                return None  # q = 0 with |1 - 2 alpha| < 1: no real shape parameter

        e1 = eps_or_none(QuantumState(n=n, l=l + shift, D=d))
        e2 = eps_or_none(QuantumState(n=n, l=l, D=d + 2 * shift))
        assert e1 == e2

    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(-2.0, 3.0, allow_nan=False), n=st.integers(0, 4),
           l=st.integers(0, 4), d=st.integers(3, 8))
    def test_alpha_mirror_within_4_ulp(self, alpha, n, l, d):
        state = QuantumState(n=n, l=l, D=d)
        e1 = epsilon_parameter(PotentialParams(A=70.0, alpha=alpha, b=2.0), state)
        e2 = epsilon_parameter(PotentialParams(A=70.0, alpha=1.0 - alpha, b=2.0), state)
        # near-critical eps cancels to ~0, where only absolute agreement is meaningful
        assert abs(e1 - e2) <= 4.0 * math.ulp(max(abs(e1), abs(e2), 1.0))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 3), l=st.integers(0, 4), d=st.integers(2, 8),
           alpha=st.sampled_from([0.0, 0.4, 0.75, 1.5]),
           scale=st.sampled_from([2.0, 4.0, 0.5]))
    def test_screening_scale_law(self, n, l, d, alpha, scale):
        # eps has no b dependence; energy scales exactly by 1/scale^2 for
        # power-of-two scale factors
        assume(d + 2 * l - 2 > 0 or abs(1.0 - 2.0 * alpha) >= 1.0)
        state = QuantumState(n=n, l=l, D=d)
        base = PotentialParams(A=90.0, alpha=alpha, b=1.0)
        scaled = PotentialParams(A=90.0, alpha=alpha, b=scale)
        assert epsilon_parameter(base, state) == epsilon_parameter(scaled, state)
        if epsilon_parameter(base, state) > 0.0:
            e_base = energy(base, state).energy
            e_scaled = energy(scaled, state).energy
            assert e_scaled == e_base / (scale * scale)
