"""Finite-difference eigensolver: identities, counting, and convergence."""

import logging
import math
import random

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from manning_rosen import (CentrifugalMode, ConvergenceError, DomainError, PotentialParams,
                           QuantumState, approximation_audit, default_grid,
                           effective_potential, energy, hulthen_energy,
                           parse_spectroscopic, solve_radial, sturm_count)
from manning_rosen.oracle import (_BISECTION_TOL, LogRadialGrid, _deferred_correction,
                                  _eigenvector_nodes, _tridiagonal, _window_top)
from manning_rosen.reference import iter_reference_cells


def table_params(inv_b=0.025, alpha=0.75):
    b = 1.0 / inv_b
    return PotentialParams(A=2.0 * b, alpha=alpha, b=b)


def index_range_solve(params, D, l, mode, grid, k):
    """Lowest k eigenpairs bisected by index over the whole spectrum, with kappa V_eff."""
    diag, off, v_scaled = _tridiagonal(params, D, l, mode, grid)
    values, vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                                       lapack_driver="stebz", tol=_BISECTION_TOL)
    return values, vectors, v_scaled


# (params, D, l, mode) of a 4f channel whose exact barrier lifts the ground state
# above the closed-form window: the window holds no level and is widened
WIDENED = (PotentialParams(A=25.77, alpha=1.643, b=12.907), 3, 3, CentrifugalMode.EXACT)


def table_channels():
    """Top published n of each of the table's 66 (1/b, alpha, D, l) channels."""
    top_n = {}
    for cell in iter_reference_cells():
        n, l = parse_spectroscopic(cell.label)
        key = (cell.inv_b, cell.alpha, cell.D, l)
        top_n[key] = max(top_n.get(key, 0), n)
    assert len(top_n) == 66
    return top_n


class TestRadialGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            LogRadialGrid(r_min=1.0, r_max=1.0, n_points=100)
        with pytest.raises(DomainError):
            LogRadialGrid(r_min=0.0, r_max=1.0, n_points=100)
        with pytest.raises(DomainError):
            LogRadialGrid(r_min=0.1, r_max=1.0, n_points=2)
        # the matrix needs r_max^2 and 1/(h r_min)^2 as finite normal floats
        for r_min, r_max in ((1e-160, 2000.0), (4e-11, 1e308), (4e-11, math.inf)):
            with pytest.raises(DomainError):
                LogRadialGrid(r_min=r_min, r_max=r_max, n_points=4001)

    def test_spacing_and_refinement(self):
        grid = LogRadialGrid(r_min=1e-6, r_max=10.0, n_points=11)
        assert grid.spacing == pytest.approx(math.log(10.0 / 1e-6) / 10.0)
        points = grid.points()
        assert (points[0], points[-1]) == pytest.approx((1e-6, 10.0))
        np.testing.assert_allclose(np.diff(np.log(points)), grid.spacing, rtol=1e-12)

    def test_default_grid_scales_with_state_extent(self):
        params = table_params()
        deep = default_grid(params, D=2, l=1, k=1)
        shallow = default_grid(params, D=2, l=1, k=5)
        assert shallow.r_max > deep.r_max  # higher states reach farther out
        # the q = 2 origin behaviour r^(3/2) converges on the default grid
        for k, grid in ((1, deep), (5, shallow)):
            result = solve_radial(params, 2, 1, CentrifugalMode.APPROXIMATED, grid=grid, k=k)
            for n in range(k):
                e = energy(params, QuantumState(n=n, l=1, D=2)).energy
                assert abs(result.best(n) - e) / abs(e) < 1e-7


class TestSolveRadial:
    def test_matches_closed_form_deep_p_state(self):
        params = table_params()
        entry = energy(params, QuantumState(n=0, l=1, D=2))
        result = solve_radial(params, D=2, l=1, mode=CentrifugalMode.APPROXIMATED, k=1)
        assert result.node_counts == (0,)
        assert abs(result.best(0) - entry.energy) / abs(entry.energy) < 1e-7

    def test_s_wave_modes_coincide_and_match_closed_form(self):
        # D=3, l=0: the centrifugal prefactor vanishes, so both modes build
        # the same matrix, and the closed form is exact for this equation
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        exact = solve_radial(params, 3, 0, CentrifugalMode.EXACT, k=1)
        approx = solve_radial(params, 3, 0, CentrifugalMode.APPROXIMATED, k=1)
        assert exact.eigenvalues == approx.eigenvalues
        assert exact.refined == approx.refined
        reference = hulthen_energy(QuantumState(n=0, l=0, D=3), A=80.0, b=40.0)
        assert abs(exact.best(0) - reference) / abs(reference) < 1e-7

    def test_refinement_improves_on_base_grid(self):
        params = table_params(0.1, 0.75)
        entry = energy(params, QuantumState(n=0, l=1, D=2))
        result = solve_radial(params, 2, 1, CentrifugalMode.APPROXIMATED, k=1)
        base_err = abs(result.eigenvalues[0] - entry.energy)
        rich_err = abs(result.refined[0] - entry.energy)
        assert rich_err < base_err

    def test_convergence_is_second_order(self):
        # smooth case (q = 3): eigenvalue error vs the exact closed-form value
        # must scale as h^2 within 20% between a grid and its 4x refinement
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        entry = energy(params, QuantumState(n=0, l=1, D=3))
        r_max = default_grid(params, 3, 1).r_max
        errors = []
        for n_points in (2001, 8001):
            grid = LogRadialGrid(r_min=1e-12 * params.b, r_max=r_max, n_points=n_points)
            result = solve_radial(params, 3, 1, CentrifugalMode.APPROXIMATED, grid=grid, k=1)
            errors.append(abs(result.eigenvalues[0] - entry.energy))
        order = math.log(errors[0] / errors[1]) / math.log(4.0)
        assert order == pytest.approx(2.0, rel=0.2)

    def test_log_grid_correction_is_fourth_order(self):
        # the deferred correction cancels the h^2 term: error ratio 2^4 per halving
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        entry = energy(params, QuantumState(n=0, l=1, D=3))
        base = default_grid(params, 3, 1)
        errors = []
        for n_points in (1001, 2001):
            grid = LogRadialGrid(r_min=base.r_min, r_max=base.r_max, n_points=n_points)
            result = solve_radial(params, 3, 1, CentrifugalMode.APPROXIMATED, grid=grid, k=1)
            errors.append(abs(result.best(0) - entry.energy))
        order = math.log2(errors[0] / errors[1])
        assert order == pytest.approx(4.0, abs=0.4)

    def test_table_channels_within_1e8_on_default_grid(self):
        for (inv_b, alpha, D, l), n_top in table_channels().items():
            params = table_params(inv_b, alpha)
            result = solve_radial(params, D, l, k=n_top + 1)
            for n in range(n_top + 1):
                e = energy(params, QuantumState(n=n, l=l, D=D)).energy
                assert abs(result.best(n) - e) <= 1e-8 * abs(e), (inv_b, alpha, D, l, n)

    def test_node_counts_match_eigenvalue_index(self):
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        result = solve_radial(params, 3, 1, CentrifugalMode.APPROXIMATED, k=6)
        assert result.node_counts == (0, 1, 2, 3, 4, 5)
        assert list(result.eigenvalues) == sorted(result.eigenvalues)

    def test_sturm_count_agrees_with_solver(self):
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        grid = default_grid(params, 3, 1, k=6)
        result = solve_radial(params, 3, 1, CentrifugalMode.APPROXIMATED, grid=grid, k=6)
        diag, off, _ = _tridiagonal(params, 3, 1, CentrifugalMode.APPROXIMATED, grid)
        rng = random.Random(7)
        eigs = result.eigenvalues
        for _ in range(5):
            shift_energy = rng.uniform(eigs[0], eigs[-1])
            expected = sum(1 for e in eigs if e < shift_energy)
            assert sturm_count(diag, off, params.kappa * shift_energy) == expected

    def test_ground_state_above_potential_minimum(self):
        params = table_params()
        result = solve_radial(params, 2, 1, CentrifugalMode.APPROXIMATED, k=1)
        v_min = float(np.min(effective_potential(
            params, QuantumState(n=0, l=1, D=2), result.grid.points()[1:-1],
            CentrifugalMode.APPROXIMATED)))
        assert result.eigenvalues[0] >= v_min

    def test_truncation_flag_when_spectrum_exhausted(self):
        # weak coupling with a tall barrier binds nothing
        params = PotentialParams(A=0.5, alpha=0.0, b=1.0)
        result = solve_radial(params, 3, 2, CentrifugalMode.APPROXIMATED, k=5)
        assert result.truncated
        assert result.eigenvalues == ()

    def test_partial_spectrum_truncation(self):
        # A = 2 Hulthen-like well in D=3 s-channel holds exactly one level
        params = PotentialParams(A=2.0, alpha=0.0, b=1.0)
        result = solve_radial(params, 3, 0, CentrifugalMode.APPROXIMATED, k=5)
        assert result.truncated
        assert len(result.eigenvalues) == 1

    def test_resolution_warning_on_coarse_grid(self):
        # 41 points uniform in ln r out to r = 50: the correction moves the level by 2.5e-2
        params = table_params()
        coarse = LogRadialGrid(r_min=4e-11, r_max=50.0, n_points=41)
        result = solve_radial(params, 2, 1, CentrifugalMode.APPROXIMATED, grid=coarse, k=1)
        assert result.eigenvalues  # still finds a bound level
        assert len(result.warnings) == 1
        assert "refinement moves a level" in result.warnings[0]

    def test_no_resolution_warning_on_table_channels(self):
        # the refinement gap stays below 1e-3 on every table channel
        for (inv_b, alpha, D, l), n_top in table_channels().items():
            result = solve_radial(table_params(inv_b, alpha), D, l, k=n_top + 1)
            assert len(result.eigenvalues) == n_top + 1
            assert result.warnings == ()

    def test_window_matches_index_range_on_table_channels(self):
        # the value window returns the index range's eigenpairs; the refined
        # levels agree too, because stein's noise floor is kept out of u''
        for (inv_b, alpha, D, l), n_top in table_channels().items():
            params = table_params(inv_b, alpha)
            k = n_top + 1
            result = solve_radial(params, D, l, k=k)
            values, vectors, v_scaled = index_range_solve(
                params, D, l, CentrifugalMode.APPROXIMATED, result.grid, k)
            base = values / params.kappa
            np.testing.assert_allclose(result.eigenvalues, base, rtol=1e-15, atol=0.0)
            assert result.node_counts == tuple(_eigenvector_nodes(vectors[:, i])
                                               for i in range(k))
            delta = _deferred_correction(result.grid.points()[1:-1], result.grid.spacing,
                                         v_scaled, values, vectors)
            refined = (values + delta) / params.kappa
            np.testing.assert_allclose(result.refined, refined,
                                       rtol=1e-13, atol=0.0)

    def test_widened_window_matches_index_range(self):
        params, D, l, mode = WIDENED
        result = solve_radial(params, D, l, mode, k=1)
        diag, off, _ = _tridiagonal(params, D, l, mode, result.grid)
        assert sturm_count(diag, off, _window_top(params, D, l, 1)) == 0
        values, _, _ = index_range_solve(params, D, l, mode, result.grid, 1)
        assert result.eigenvalues == pytest.approx([values[0] / params.kappa], rel=1e-15)
        assert result.node_counts == (0,)
        assert not result.truncated

    def test_explicit_log_grid_without_shape_parameter(self):
        # q = 0 with |1 - 2 alpha| < 1: the closed form raises DomainError, so the
        # window runs up to 0 and the levels are the index range's
        params = PotentialParams(A=80.0, alpha=0.3, b=40.0)
        grid = LogRadialGrid(r_min=1e-12 * params.b, r_max=2000.0, n_points=4001)
        result = solve_radial(params, 2, 0, CentrifugalMode.EXACT, grid=grid, k=2)
        values, _, _ = index_range_solve(params, 2, 0, CentrifugalMode.EXACT, grid, 2)
        np.testing.assert_allclose(result.eigenvalues, values / params.kappa,
                                   rtol=1e-15, atol=0.0)
        assert result.node_counts == (0, 1)

    def test_tiny_r_min_raises_when_bisection_cannot_resolve_levels(self):
        # stebz's pivot floor tiny * max off^2 grows as r_min^-4; at 1e-75 it is
        # 2% of the 2p level, enough for levels 1e-3 off or nan refinements
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        entry = energy(params, QuantumState(n=0, l=1, D=3))
        grid = LogRadialGrid(r_min=1e-70, r_max=2000.0, n_points=4001)
        result = solve_radial(params, 3, 1, CentrifugalMode.APPROXIMATED, grid=grid, k=2)
        assert abs(result.best(0) - entry.energy) <= 1e-6 * abs(entry.energy)
        for r_min in (1e-74, 1e-75):
            grid = LogRadialGrid(r_min=r_min, r_max=2000.0, n_points=4001)
            with pytest.raises(ConvergenceError, match="raise r_min"):
                solve_radial(params, 3, 1, CentrifugalMode.APPROXIMATED, grid=grid, k=2)

    @pytest.mark.parametrize("mode", list(CentrifugalMode))
    def test_refinement_gap_warning_on_coarse_log_grid(self, mode):
        # 401 points uniform in ln r: the correction moves the levels by 1.7e-3
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        grid = LogRadialGrid(r_min=1e-12 * params.b, r_max=2000.0, n_points=401)
        result = solve_radial(params, 3, 1, mode, grid=grid, k=2)
        assert len(result.eigenvalues) == 2
        assert len(result.warnings) == 1
        assert "refinement moves a level" in result.warnings[0]

    def test_debug_log_reports_widened_window(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            solve_radial(*WIDENED, k=1)
            solve_radial(table_params(), 2, 1, k=1)
        records = [r for r in caplog.records if r.name == "manning_rosen.oracle"]
        assert len(records) == 2
        assert all(r.levelno == logging.DEBUG for r in records)
        assert " widened, 1 of 1 levels" in records[0].getMessage()
        assert "widened" not in records[1].getMessage()
        assert "eigensolve" in records[1].getMessage()

    def test_package_logger_has_null_handler(self):
        handlers = logging.getLogger("manning_rosen").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_best_of_a_missing_level_raises_convergence_error(self):
        # 4A > (2n + 2)^2 binds only n = 0 of this Hulthen channel
        result = solve_radial(PotentialParams(A=2.0, alpha=0.0, b=1.0), 3, 0, k=5)
        assert len(result.refined) == 1
        assert result.best(0) == result.refined[0]
        with pytest.raises(ConvergenceError, match="^oracle found only 1 bound levels"):
            result.best(1)

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            solve_radial(table_params(), 2, 1, k=0)

    @pytest.mark.parametrize("grid", [None, LogRadialGrid(r_min=4e-11, r_max=2000.0,
                                                          n_points=4001)],
                             ids=["default-grid", "explicit-grid"])
    @pytest.mark.parametrize("scale", [{"hbar": 1e155}, {"mu": 1e-310}],
                             ids=["hbar-1e155", "mu-1e-310"])
    def test_kappa_out_of_float_range_raises_domain_error(self, scale, grid):
        # kappa = 2 mu / hbar^2 underflows to 0 at hbar = 1e155; at mu = 1e-310
        # kappa is subnormal and E = kappa E / kappa overflows
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
            solve_radial(PotentialParams(A=80.0, alpha=0.75, b=40.0, **scale), 2, 1, grid=grid)


class TestApproximationAudit:
    def test_approximated_mode_is_solver_exact(self):
        params = table_params()
        audit = approximation_audit(params, QuantumState(n=0, l=1, D=2))
        assert audit.rel_errors[0] < 1e-6  # same differential equation
        assert audit.e_closed == pytest.approx(-0.241087728, abs=5e-9)

    def test_exact_mode_discrepancy_shrinks_with_screening(self):
        state = QuantumState(n=0, l=1, D=2)
        loose = approximation_audit(table_params(0.100, 0.75), state)
        tight = approximation_audit(table_params(0.025, 0.75), state)
        assert tight.rel_errors[1] < loose.rel_errors[1]

    @pytest.mark.parametrize("A, alpha, b, D", [
        (80.0, 0.0, 40.0, 2),   # q = 0: u tends to a constant at the origin
        (80.0, 0.75, 40.0, 3),  # eta < 0: u ~ r^(1/4)
        (150.0, 0.4, 50.0, 3),  # eta < 0
    ], ids=["q0-D2-alpha0", "eta-neg-D3-alpha0.75", "eta-neg-D3-alpha0.4"])
    def test_origin_channels_of_low_q(self, A, alpha, b, D):
        params = PotentialParams(A=A, alpha=alpha, b=b)
        state = QuantumState(n=0, l=0, D=D)
        e = energy(params, state).energy
        audit = approximation_audit(params, state)
        assert abs(audit.e_approx - e) <= 1e-8 * abs(e)
        # exact barrier: inside [E + min(0, B), E + max(0, B)], B = (q^2-1)/(48 kappa b^2)
        bound = (state.q ** 2 - 1.0) / (48.0 * params.kappa * b * b)
        widen = 1e-6 * abs(e)
        assert e + min(0.0, bound) - widen <= audit.e_exact <= e + max(0.0, bound) + widen

    def test_s_wave_exact_equals_approx(self):
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        audit = approximation_audit(params, QuantumState(n=0, l=0, D=3))
        assert audit.e_exact == audit.e_approx
