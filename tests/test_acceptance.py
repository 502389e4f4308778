"""Acceptance suite: one test per criterion, each printing a PASS line.

Each criterion runs at its stated tolerance; tolerances are pinned here,
not deferred.  Criterion 1 excludes four documented misprints of the
published table, the same four cells the table audit (`manning-rosen
table`) flags: 6d D=2 alpha=0.75, and the 5p D=4 row in all three alpha
columns, whose printed values contradict the table's own interdimensional
degeneracy with the 6d D=2 row (equal D + 2l).  Each excepted cell is
checked instead against its degenerate partner.
"""

import math
import random
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from manning_rosen import (CentrifugalMode, PotentialParams, QuantumState,
                           approximation_audit, bound_states,
                           coulomb_limit_energy, critical_coupling, energy,
                           epsilon_parameter, gauss_legendre, hulthen_energy,
                           jacobi, ln_gamma, normalization_closed_form,
                           normalization_quadrature, parse_spectroscopic,
                           radial_wavefunction, screened_coulomb_coupling,
                           solve_radial)
from manning_rosen.reference import iter_reference_cells

# published misprints the reproduction criterion excludes, each mapped to its
# interdimensional partner (n, l +/- 1, D -+ 2): same D + 2l, so the closed
# form gives identical bits, and the partner's printed value is the check
# wherever that value is not itself a misprint
DOCUMENTED_EXCEPTIONS = {
    ("6d", 0.025, 2, "0.75"): ("5p", 0.025, 4, "0.75"),
    ("5p", 0.025, 4, "0.75"): ("6d", 0.025, 2, "0.75"),
    ("5p", 0.025, 4, "0,1"): ("6d", 0.025, 2, "0,1"),
    ("5p", 0.025, 4, "1.5"): ("6d", 0.025, 2, "1.5"),
}
# recomputed value of the 6d D=2 / 5p D=4 pair at alpha = 0.75, where both
# printed values are misprints
RECOMPUTED_6D = -0.006591028052354160

# exact-centrifugal-vs-closed-form relative discrepancies for the 2p state in
# two dimensions at alpha = 0.75 (regression values recorded from this solver)
EXACT_MODE_REGRESSION = {
    0.100: 1.536410e-03,
    0.075: 8.154644e-04,
    0.050: 3.424558e-04,
    0.025: 8.097368e-05,
}


def params_for(cell):
    b = 1.0 / cell.inv_b
    return PotentialParams(A=2.0 * b, alpha=cell.alpha, b=b)


def state_for(cell):
    n, l = parse_spectroscopic(cell.label)
    return QuantumState(n=n, l=l, D=cell.D)


def report(number: int, message: str) -> None:
    print(f"[criterion {number:02d}] PASS - {message}")


class TestCriterion01TableReproduction:
    def test_closed_form_reproduces_published_table(self):
        start = time.monotonic()
        printed = {(c.label, c.inv_b, c.D, c.alpha_label): c.reference_energy
                   for c in iter_reference_cells()}
        failures = []
        cells = 0
        for cell in iter_reference_cells():
            cells += 1
            computed = energy(params_for(cell), state_for(cell)).energy
            key = (cell.label, cell.inv_b, cell.D, cell.alpha_label)
            if key in DOCUMENTED_EXCEPTIONS:
                partner_key = DOCUMENTED_EXCEPTIONS[key]
                label, _, partner_d, _ = partner_key
                n, l = parse_spectroscopic(label)
                partner = energy(params_for(cell), QuantumState(n=n, l=l, D=partner_d))
                assert computed == partner.energy
                if partner_key in DOCUMENTED_EXCEPTIONS:
                    assert computed == pytest.approx(RECOMPUTED_6D, rel=1e-12)
                else:
                    assert abs(computed - printed[partner_key]) <= 5e-9, key
                continue
            deviation = abs(computed - cell.reference_energy)
            if deviation > 5e-9:
                failures.append(
                    f"{cell.label} D={cell.D} alpha={cell.alpha_label} "
                    f"1/b={cell.inv_b}: published {cell.reference_energy:.9f}, "
                    f"computed {computed:.9f} (|diff| = {deviation:.3e})")
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"table reproduction took {elapsed:.2f} s (budget 1 s)"
        assert not failures, (
            "published cells outside 5e-9 beyond the documented exceptions "
            "(the full audit flags these as misprints):\n  " + "\n  ".join(failures))
        report(1, f"all {cells} published cells reproduced to 5e-9 "
                  f"({len(DOCUMENTED_EXCEPTIONS)} documented misprints checked "
                  f"against their degenerate partners) in {elapsed:.2f} s")


class TestCriterion02SpotChecks:
    def test_hand_checked_values(self):
        b = 40.0
        hulthen_col = energy(PotentialParams(A=2 * b, alpha=0.0, b=b),
                             QuantumState(n=0, l=1, D=2)).energy
        hand = -(4.0 * 80.0 - 9.0) ** 2 / (32.0 * b * b * 9.0)
        assert hulthen_col == pytest.approx(hand, rel=1e-15)
        assert abs(hulthen_col - (-0.209898003)) <= 5e-9

        shaped = energy(PotentialParams(A=2 * b, alpha=0.75, b=b),
                        QuantumState(n=0, l=1, D=2)).energy
        assert abs(shaped - (-0.241087728)) <= 5e-9
        report(2, "2p spot checks reproduce both published columns")


class TestCriterion03OracleIdentity:
    def test_solver_confirms_closed_form_everywhere(self):
        worst = (0.0, None)
        for cell in iter_reference_cells():
            params = params_for(cell)
            state = state_for(cell)
            entry = energy(params, state)
            result = solve_radial(params, state.D, state.l,
                                  mode=CentrifugalMode.APPROXIMATED,
                                  k=state.n + 1)
            assert len(result.eigenvalues) > state.n, f"missing level for {cell}"
            rel = abs(result.best(state.n) - entry.energy) / abs(entry.energy)
            if rel > worst[0]:
                worst = (rel, cell)
            assert rel <= 1e-6, f"{cell}: oracle disagrees at {rel:.3e}"
        report(3, f"oracle matches the closed form on all published states "
                  f"(worst relative {worst[0]:.2e})")


class TestCriterion04ApproximationAudit:
    def test_exact_mode_discrepancy_monotone_in_screening(self):
        state = QuantumState(n=0, l=1, D=2)
        discrepancies = []
        for inv_b in (0.100, 0.075, 0.050, 0.025):
            b = 1.0 / inv_b
            params = PotentialParams(A=2.0 * b, alpha=0.75, b=b)
            audit = approximation_audit(params, state)
            assert audit.rel_errors[0] < 1e-6  # solver identity en route
            discrepancies.append((inv_b, audit.rel_errors[1]))
        values = [d for _, d in discrepancies]
        assert values == sorted(values, reverse=True), discrepancies
        for inv_b, value in discrepancies:
            assert value == pytest.approx(EXACT_MODE_REGRESSION[inv_b], rel=0.01)
        report(4, "exact-centrifugal discrepancy falls monotonically: "
                  + ", ".join(f"1/b={ib}: {v:.3e}" for ib, v in discrepancies))


class TestCriterion05InterdimensionalDegeneracy:
    def test_random_partners_identical(self):
        rng = random.Random(20260810)
        params_cache = {}
        checked = 0
        while checked < 200:
            D = rng.randint(4, 16)
            l_max = (20 - D) // 2
            if l_max < 0:
                continue
            l = rng.randint(0, l_max)
            n = rng.randint(0, 4)
            alpha = rng.choice([0.0, 0.3, 0.75, 1.5])
            key = alpha
            if key not in params_cache:
                params_cache[key] = PotentialParams(A=80.0, alpha=alpha, b=40.0)
            params = params_cache[key]
            e1 = epsilon_parameter(params, QuantumState(n=n, l=l, D=D))
            e2 = epsilon_parameter(params, QuantumState(n=n, l=l + 1, D=D - 2))
            assert e1 == e2  # shared q code path: identical bits
            if e1 > 0.0:
                v1 = energy(params, QuantumState(n=n, l=l, D=D)).energy
                v2 = energy(params, QuantumState(n=n, l=l + 1, D=D - 2)).energy
                assert v1 == v2
                assert abs(v1 - v2) <= 1e-12 * abs(v1)
            checked += 1
        report(5, "200 random (n, l, D) partner pairs bit-identical")


class TestCriterion06AlphaSymmetry:
    def test_mirror_energies_within_4_ulp(self):
        rng = random.Random(1138)
        states = []
        while len(states) < 50:
            n, l, D = rng.randint(0, 4), rng.randint(0, 4), rng.randint(2, 8)
            if D + 2 * l - 2 > 0:
                states.append(QuantumState(n=n, l=l, D=D))
        for alpha in (0.1, 0.25, 0.75, 1.5):
            pa = PotentialParams(A=80.0, alpha=alpha, b=40.0)
            pb = PotentialParams(A=80.0, alpha=1.0 - alpha, b=40.0)
            for state in states:
                e1 = epsilon_parameter(pa, state)
                e2 = epsilon_parameter(pb, state)
                if e1 <= 0.0:
                    assert e2 <= 0.0
                    continue
                v1 = energy(pa, state).energy
                v2 = energy(pb, state).energy
                assert abs(v1 - v2) <= 4.0 * math.ulp(max(abs(v1), abs(v2)))
        report(6, "energy invariant under alpha -> 1-alpha to 4 ulp "
                  "(50 states x 4 alphas)")


class TestCriterion07HulthenAndCoulombLimits:
    def test_alpha_zero_column_equals_special_case(self):
        for cell in iter_reference_cells():
            if cell.alpha_label != "0,1":
                continue
            state = state_for(cell)
            params = params_for(cell)
            general = energy(params, state).energy
            special = hulthen_energy(state, A=params.A, b=params.b)
            assert abs(general - special) <= 4.0 * math.ulp(abs(special))

    def test_screened_coulomb_limit(self):
        # -Z delta/(exp(delta r) - 1) = -Z/r + Z delta/2 + O(delta^2 r): the
        # screened levels sit Z delta/2 above Coulomb, exactly
        # E_H - E_C = Z delta/2 - M^2 delta^2/32 with M = 2n + D + 2l - 1, so
        # the residual beyond the first-order shift vanishes as delta -> 0
        Z, delta = 1.0, 1e-4
        A, b = screened_coulomb_coupling(Z=Z, delta=delta)
        for n, l, D in ((0, 0, 3), (1, 0, 3), (0, 1, 2), (0, 2, 4), (2, 1, 5)):
            state = QuantumState(n=n, l=l, D=D)
            screened = hulthen_energy(state, A=A, b=b)
            coulomb = coulomb_limit_energy(state, Z=Z)
            m_sum = 2 * n + D + 2 * l - 1
            residual = screened - coulomb - 0.5 * Z * delta
            assert abs(residual) <= m_sum * m_sum * delta * delta / 16.0, state
        assert coulomb_limit_energy(QuantumState(n=0, l=0, D=3), Z=1.0) == -0.5
        report(7, "screened-Coulomb levels equal Coulomb plus Z delta/2 to "
                  "second order in delta (hydrogen ground state -0.5)")


class TestCriterion08CriticalCoupling:
    def test_energy_vanishes_at_critical_coupling(self):
        rng = random.Random(4242)
        for _ in range(50):
            n, l, D = rng.randint(0, 5), rng.randint(0, 5), rng.randint(2, 10)
            alpha = rng.uniform(-1.0, 2.0)
            state = QuantumState(n=n, l=l, D=D)
            if D + 2 * l - 2 == 0 and abs(1.0 - 2.0 * alpha) < 1.0:
                continue  # no real shape parameter at q = 0
            a_c = critical_coupling(state, alpha)
            params = PotentialParams(A=a_c, alpha=alpha, b=1.0)
            eps = epsilon_parameter(params, state)
            implied = -(eps * eps) / (2.0 * params.b ** 2)
            assert abs(implied) < 1e-10
        report(8, "E(A_c) = 0 within 1e-10 for 50 random parameter draws")


class TestCriterion09Normalization:
    def test_closed_form_vs_quadrature_to_1e8(self):
        seen = set()
        published = set()
        checked = set()
        for cell in iter_reference_cells():
            n, l = parse_spectroscopic(cell.label)
            key = (l, cell.D, cell.alpha_label, cell.inv_b)
            published.add((*key, n))
            if key in seen:
                continue
            seen.add(key)
            params = params_for(cell)
            for entry in bound_states(params, D=cell.D, l=l, n_max=5):
                closed = normalization_closed_form(entry, params.b)
                quad = normalization_quadrature(params, entry)
                assert abs(closed - quad) / quad < 1e-8, (cell, entry.state)
                checked.add((*key, entry.state.n))
        missing = published - checked
        assert not missing, f"published states not covered: {sorted(missing)}"

    def test_sampled_density_integrates_to_one(self):
        for label, inv_b, alpha, D in (("2p", 0.025, 0.75, 2), ("4d", 0.05, 1.5, 4),
                                       ("6g", 0.025, 0.75, 2)):
            b = 1.0 / inv_b
            params = PotentialParams(A=2.0 * b, alpha=alpha, b=b)
            n, l = parse_spectroscopic(label)
            solution = radial_wavefunction(params, QuantumState(n=n, l=l, D=D))
            table = solution.sample(20001, r_min=1e-6 * b)
            norm = simpson(table[:, 3], x=table[:, 0])
            assert abs(norm - 1.0) <= 1e-8, (label, norm)
        report(9, "closed-form and quadrature normalizations agree to 1e-8; "
                  "sampled densities integrate to 1 +/- 1e-8")


class TestCriterion10NodeTheorem:
    def test_node_count_equals_radial_quantum_number(self):
        for cell in iter_reference_cells():
            state = state_for(cell)
            solution = radial_wavefunction(params_for(cell), state)
            assert solution.node_count == state.n, (cell, solution.node_count)
        report(10, "node count equals n for every published bound state")


class TestCriterion11SpecialFunctions:
    def test_jacobi_orthogonality_residuals(self):
        rule = gauss_legendre(512)
        entry = energy(PotentialParams(A=80.0, alpha=0.75, b=40.0),
                       QuantumState(n=0, l=1, D=2))
        for a, b in ((0.0, 0.0), (1.5, 2.3), (2 * entry.epsilon, 2 * entry.eta + 1)):
            def weighted(n, m):
                return rule.integrate(
                    lambda x: (1.0 - x) ** a * (1.0 + x) ** b
                    * jacobi(n, a, b, x) * jacobi(m, a, b, x))
            norms = [weighted(k, k) for k in range(7)]
            for n in range(7):
                for m in range(n):
                    residual = abs(weighted(n, m)) / math.sqrt(norms[n] * norms[m])
                    assert residual < 1e-10

    def test_ln_gamma_recurrence_residuals(self):
        for x in (0.5, 1.5, 10.25, 100.5):
            assert abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) < 1e-12

    def test_quadrature_exactness(self):
        for order in (1, 2, 8, 32, 64):
            rule = gauss_legendre(order)
            for k in range(2 * order):
                integral = rule.integrate(lambda x, k=k: x ** k)
                exact = 0.0 if k % 2 else 2.0 / (k + 1)
                assert abs(integral - exact) < 1e-12
        report(11, "special-function residuals inside stated tolerances")
