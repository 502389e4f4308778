"""Finite-difference eigensolver: identities, counting, and convergence."""

import dataclasses
import json
import logging
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from manning_rosen import (CentrifugalMode, ConvergenceError, DomainError, PotentialParams,
                           QuantumState, UnboundStateError, approximation_audit,
                           audit_channel, bound_states, default_grid, effective_potential, energy,
                           hulthen_energy, parse_spectroscopic, solve_radial, state_label)
from manning_rosen import oracle
from manning_rosen.cli import main
from manning_rosen.oracle import (_BISECTION_TOL, _MAX_TWO_GRID_ERROR, LogRadialGrid,
                                  _channel_parts, _eigenvector_nodes, _grid_origin, _grid_pair,
                                  _tridiagonal)
from manning_rosen.reference import iter_reference_cells


def table_params(inv_b=0.025, alpha=0.75):
    b = 1.0 / inv_b
    return PotentialParams(A=2.0 * b, alpha=alpha, b=b)


def sturm_count(diag: np.ndarray, off: np.ndarray, shift: float) -> int:
    """Eigenvalues of the symmetric tridiagonal matrix strictly below shift.

    Standard LDL^T sign count; exact integer answer regardless of clustering.
    """
    count = 0
    d = float(diag[0]) - shift
    if d < 0.0:
        count += 1
    for i in range(1, len(diag)):
        if d == 0.0:
            d = 1e-300  # grazing pivot: standard tiny perturbation
        d = float(diag[i]) - shift - float(off[i - 1]) ** 2 / d
        if d < 0.0:
            count += 1
    return count


def index_range(diag, off, k):
    """Lowest k eigenpairs bisected by index over the whole spectrum: SciPy's stebz and stein."""
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                            lapack_driver="stebz", tol=_BISECTION_TOL)


def index_range_solve(params, D, l, mode, grid, k):
    """``index_range`` of the matrix assembled on ``grid``, with kappa V_eff."""
    diag, off, v_scaled, _ = _tridiagonal(params, D, l, mode, grid, _channel_parts(params, grid))
    return (*index_range(diag, off, k), v_scaled)


# (params, D, l, mode) of a 4f channel whose exact barrier lifts the ground state
# above the midpoint of closed-form levels 0 and 1: the closed form seeds no level
ABOVE_CLOSED_FORM = (PotentialParams(A=25.77, alpha=1.643, b=12.907), 3, 3,
                     CentrifugalMode.EXACT)


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

    def test_default_grid_keeps_the_origin_of_a_q0_alpha0_channel(self):
        # u tends to a constant at the origin (nu = 0): nothing to cut
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        grid = default_grid(params, D=2, l=0)
        assert grid.r_min == 1e-12 * min(params.b, grid.r_max)
        assert grid.n_points == 4001

    def test_default_grid_origin_is_capped_for_high_q(self):
        # q = 10: the weight rule would start near 0.02 b; the cap holds it at 1e-3
        params = table_params()
        grid = default_grid(params, D=6, l=3)
        cap = 1e-3 * min(params.b, grid.r_max)
        assert abs(math.log(grid.r_min / cap)) <= 0.5 * grid.spacing
        assert grid.n_points < 4001

    @pytest.mark.parametrize("D, l, alpha", [(2, 0, 0.0), (2, 1, 0.75), (4, 2, 1.5),
                                             (6, 3, 0.75), (3, 0, 0.4)])
    def test_default_grid_spacing_is_that_of_4001_points_from_the_origin(self, D, l, alpha):
        params = table_params(alpha=alpha)
        grid = default_grid(params, D, l, k=2)
        floor = _grid_origin(params.b, grid.r_max)
        assert grid.spacing == pytest.approx(math.log(grid.r_max / floor) / 4000, rel=1e-12)


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

    def test_cut_origin_matches_a_grid_from_the_origin_floor(self):
        # the default grid leaves out only nodes below 1e-18 of a state's weight:
        # starting at 1e-12 min(b, r_max) with the same r_max and h moves no level
        rng = random.Random(20261018)
        checked = 0
        while checked < 50:
            b = rng.uniform(2.0, 60.0)
            params = PotentialParams(A=b * rng.uniform(0.5, 4.0),
                                     alpha=rng.uniform(-0.5, 2.0), b=b)
            D, l = rng.randint(2, 6), rng.randint(0, 4)
            if D + 2 * l == 2 and 0.0 < params.alpha < 1.0:
                continue  # q = 0 with no real shape parameter: no closed-form grid
            checked += 1
            grid = default_grid(params, D, l, k=2)
            floor = LogRadialGrid(r_min=_grid_origin(b, grid.r_max), r_max=grid.r_max,
                                  n_points=4001)
            for mode in CentrifugalMode:
                cut = solve_radial(params, D, l, mode, grid=grid, k=2).refined
                full = solve_radial(params, D, l, mode, grid=floor, k=2).refined
                assert len(cut) == len(full), (params, D, l, mode)
                for x, y in zip(cut, full):
                    assert abs(x - y) <= 1e-9 * abs(y), (params, D, l, mode)

    def test_node_counts_match_eigenvalue_index(self):
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        result = solve_radial(params, 3, 1, CentrifugalMode.APPROXIMATED, k=6)
        assert result.node_counts == (0, 1, 2, 3, 4, 5)
        assert list(result.eigenvalues) == sorted(result.eigenvalues)

    def test_sturm_count_agrees_with_solver(self):
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        grid = default_grid(params, 3, 1, k=6)
        result = solve_radial(params, 3, 1, CentrifugalMode.APPROXIMATED, grid=grid, k=6)
        diag, off, _, _ = _tridiagonal(params, 3, 1, CentrifugalMode.APPROXIMATED, grid,
                                       _channel_parts(params, grid))
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

    def test_one_unknown_is_its_own_level(self):
        # 3 grid points leave one unknown, whose diagonal entry is the one level in
        # either mode: LAPACK's gtsv and stebz take no empty off-diagonal
        params = PotentialParams(A=340.8230900351842, alpha=1.9952861917762275,
                                 b=4896.158175339622)
        base = default_grid(params, 3, 1, k=3)
        grid = LogRadialGrid(r_min=base.r_min, r_max=base.r_max, n_points=3)
        for mode, level in ((CentrifugalMode.APPROXIMATED, -0.00012852167170995392),
                            (CentrifugalMode.EXACT, -0.00012851819555226328)):
            result = solve_radial(params, 3, 1, mode, grid=grid, k=3)
            diag = _tridiagonal(params, 3, 1, mode, grid, _channel_parts(params, grid))[0]
            assert result.eigenvalues == (level,) == (diag[0] / params.kappa,)
            assert result.node_counts == (0,)
            assert result.truncated

    def test_resolution_warning_on_coarse_grid(self):
        # 41 points uniform in ln r out to r = 50: the correction moves the level by 2.5e-2
        params = table_params()
        coarse = LogRadialGrid(r_min=4e-11, r_max=50.0, n_points=41)
        result = solve_radial(params, 2, 1, CentrifugalMode.APPROXIMATED, grid=coarse, k=1)
        assert result.eigenvalues  # still finds a bound level
        assert len(result.warnings) == 1
        assert "refinement moves a level" in result.warnings[0]

    def test_no_resolution_warning_on_table_channels(self):
        # the two-grid error estimate stays below 2e-6 on every table channel
        for (inv_b, alpha, D, l), n_top in table_channels().items():
            result = solve_radial(table_params(inv_b, alpha), D, l, k=n_top + 1)
            assert len(result.eigenvalues) == n_top + 1
            assert result.warnings == ()

    def test_window_matches_index_range_on_table_channels(self, monkeypatch):
        # the seeded solve returns the index range's eigenpairs; the refined
        # levels agree too, because inverse iteration's noise floor is kept out of u'',
        # with the index range's on both grids of the default solve
        for (inv_b, alpha, D, l), n_top in table_channels().items():
            params = table_params(inv_b, alpha)
            k = n_top + 1
            result = solve_radial(params, D, l, k=k)
            values, vectors, _ = index_range_solve(
                params, D, l, CentrifugalMode.APPROXIMATED, result.grid, k)
            base = values / params.kappa
            np.testing.assert_allclose(result.eigenvalues, base, rtol=1e-15, atol=0.0)
            assert result.node_counts == tuple(_eigenvector_nodes(vectors[:, i])
                                               for i in range(k))
            reference, _ = reference_solve(monkeypatch, params, D, l,
                                           CentrifugalMode.APPROXIMATED, None, k)
            np.testing.assert_allclose(result.refined, reference.refined,
                                       rtol=1e-13, atol=0.0)

    def test_level_above_the_closed_form_is_seeded_from_approx(self, caplog):
        params, D, l, mode = ABOVE_CLOSED_FORM
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            result = solve_radial(params, D, l, mode, k=1)
        message = oracle_messages(caplog)[-1]
        assert "D=3 l=3 exact: " in message
        assert ", 1 of 1 levels seeded from approx in " in message
        assert "bisected" not in message
        diag, off, _, _ = _tridiagonal(params, D, l, mode, result.grid,
                                       _channel_parts(params, result.grid))
        closed = [-(entry.epsilon / params.b) ** 2 for entry in bound_states(params, D, l, 1)]
        assert sturm_count(diag, off, 0.5 * (closed[0] + closed[1])) == 0
        values, _, _ = index_range_solve(params, D, l, mode, result.grid, 1)
        assert result.eigenvalues == pytest.approx([values[0] / params.kappa], rel=1e-15)
        assert result.node_counts == (0,)
        assert not result.truncated

    def test_explicit_log_grid_without_shape_parameter(self):
        # q = 0 with |1 - 2 alpha| < 1: the closed form raises DomainError, so
        # bisection seeds approximated mode, whose levels seed exact mode
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

    def test_debug_log_reports_the_seeds_of_exact_mode(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            solve_radial(*ABOVE_CLOSED_FORM, k=1)
            solve_radial(table_params(), 2, 1, k=1)
        records = [r for r in caplog.records if r.name == "manning_rosen.oracle"]
        assert len(records) == 3  # the exact solve logs the approximated one that seeds it
        assert all(r.levelno == logging.DEBUG for r in records)
        [exact] = [r for r in records if " exact: " in r.getMessage()]
        assert exact is records[1]
        assert " approx: " in records[0].getMessage()
        assert ", 1 of 1 levels seeded from approx in " in exact.getMessage()
        assert ", 1 of 1 levels seeded in " in records[2].getMessage()
        assert all("bisected" not in r.getMessage() for r in records)
        assert all("window" not in r.getMessage() for r in records)
        assert "eigensolve" in records[2].getMessage()

    def test_exact_mode_alone_survives_the_approximated_refinement_failure(self, caplog):
        # q = 0 just above the closed form's critical coupling: the approximated
        # level lies nearer threshold than the grid resolves, the exact one does not
        params = PotentialParams(A=0.25 * (1.0 + 1e-7), alpha=0.0, b=40.0)
        with pytest.raises(ConvergenceError, match="deferred correction lifts"):
            solve_radial(params, 2, 0, CentrifugalMode.APPROXIMATED)
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            exact = solve_radial(params, 2, 0, CentrifugalMode.EXACT)
        [message] = [m for m in oracle_messages(caplog) if " exact: " in m]
        # the failed seed solve logs no line, so the exact line reports the shared assembly
        assert re.search(r", no approximated seeds \(the deferred correction lifts bound level "
                         r"n = 0 to .* >= 0 on grid .*\); coarse \d+ points, 1 of 1 levels "
                         r"seeded from fine in \d+ solves; shared assembly [\d.]+ s, assembly",
                         message)
        values, _, _ = index_range_solve(params, 2, 0, CentrifugalMode.EXACT, exact.grid, 1)
        np.testing.assert_allclose(exact.eigenvalues, values / params.kappa, rtol=1e-15, atol=0.0)
        assert exact.refined[0] == pytest.approx(-1.39038e-6, rel=1e-5)

    def test_debug_log_reports_r_min_and_spacing(self, caplog):
        # a default solve logs its fine grid, then the coarse grid's points, solves
        # and time, and the time of the parts that the two grids share
        params = table_params()
        grid, coarse = _grid_pair(default_grid(params, 2, 1))
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            solve_radial(params, 2, 1, k=1)
        [record] = [r for r in caplog.records if r.name == "manning_rosen.oracle"]
        assert (f"{grid.n_points} points from r_min {grid.r_min:.6g} "
                f"with h {grid.spacing:.6g}, 1 of 1 levels") in record.getMessage()
        assert re.search(rf", 1 of 1 levels seeded in \d+ solves; coarse {coarse.n_points} points, "
                         rf"1 of 1 levels seeded from fine in \d+ solves; shared assembly [\d.]+ s, "
                         rf"assembly [\d.]+ s, eigensolve [\d.]+ s, refinement [\d.]+ s, "
                         rf"coarse [\d.]+ s$", record.getMessage())

    def test_explicit_grid_debug_log_reports_the_shared_assembly(self, caplog):
        # an explicit grid's modes share their parts too: the first line of each
        # call reports the time they took, as a default solve's does, and no other
        params = table_params()
        grid = LogRadialGrid(r_min=4e-11, r_max=2000.0, n_points=1201)
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            solve_radial(params, 2, 1, grid=grid)
            solve_radial(params, 2, 1, CentrifugalMode.EXACT, grid=grid)
        alone, seeding, exact = oracle_messages(caplog)
        timings = r"assembly [\d.]+ s, eigensolve [\d.]+ s, refinement [\d.]+ s$"
        first = r", 1 of 1 levels seeded in \d+ solves; shared assembly [\d.]+ s, " + timings
        assert re.search(first, alone) and re.search(first, seeding)
        assert re.search(r", 1 of 1 levels seeded from approx in \d+ solves; " + timings, exact)

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

    def test_level_the_correction_lifts_to_threshold_raises(self):
        # A = 1 + 1e-7 binds 1s of this Hulthen channel by only -7.8e-19; the raw
        # eigenvalue, -3.7e-16, is off by more than that, and the correction lifts it
        # to +3.4e-16, which would read as a bound level of positive energy
        params = PotentialParams(A=1.0000001, alpha=0.0, b=40.0)
        assert -1e-18 < energy(params, QuantumState(n=0, l=0, D=3)).energy < 0.0
        with pytest.raises(ConvergenceError,
                           match=r"^the deferred correction lifts bound level n = 0 to "
                                 r"\S+ >= 0 on grid LogRadialGrid\(r_min="):
            solve_radial(params, 3, 0)

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

    def test_subnormal_energy_raises_domain_error(self):
        # b = 1e149, mu = 1e10: kappa E / kappa of the 1s level is about -5e-309, a
        # subnormal float; spectrum.energy refuses the same state
        params = PotentialParams(A=3.0, alpha=0.0, b=1e149, mu=1e10)
        grid = LogRadialGrid(r_min=1e137, r_max=5e150, n_points=4001)
        with pytest.raises(DomainError):
            energy(params, QuantumState(n=0, l=0, D=3))
        with pytest.raises(DomainError, match="not normal floats"):
            solve_radial(params, 3, 0, grid=grid)

    def test_alpha_out_of_float_range_on_an_explicit_grid_raises_domain_error(self):
        params = PotentialParams(A=80.0, alpha=1e200, b=40.0)
        grid = LogRadialGrid(r_min=1e-10, r_max=2000.0, n_points=401)
        with pytest.raises(DomainError, match="kappa V_eff is not a finite float"):
            solve_radial(params, 2, 1, grid=grid)

    def test_pivot_floor_is_judged_against_the_shallowest_level(self):
        # at r_min = 2e-73 the floor, 3.0e-9 in kappa E, is under 1e-8 of
        # kappa min V_eff, -0.475, so the solve runs; but it is over 1e-8 of
        # the 3p level, kappa E = -0.0876
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        grid = LogRadialGrid(r_min=2e-73, r_max=2000.0, n_points=4001)
        with pytest.raises(ConvergenceError, match=r"of level -0\.08756\d*, on grid .* r_min"):
            solve_radial(params, 3, 1, CentrifugalMode.APPROXIMATED, grid=grid, k=2)


def reference_solve(monkeypatch, params, D, l, mode, grid, k):
    """``solve_radial`` on the negative values of ``index_range``, and their vectors' node counts.

    Its refined levels add ``_deferred_correction`` on stein's vectors; its
    truncation, warnings and exceptions are ``solve_radial``'s own.
    """
    nodes = []

    def index_range_levels(b, k, grid, diag, off, v_scaled, seeds, starts=None):
        values, vectors = index_range(diag, off, min(k, len(diag)))
        bound = values < 0.0
        values, vectors = values[bound], vectors[:, bound]
        nodes[:] = [_eigenvector_nodes(vectors[:, i]) for i in range(len(values))]
        return values, vectors, "index range"

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_bound_levels", index_range_levels)
        return solve_radial(params, D, l, mode, grid=grid, k=k), tuple(nodes)


def assert_matches_reference(result, reference, nodes, case=""):
    """Same node counts, truncation and warnings; values to 1e-15, refined to 1e-13."""
    assert (result.node_counts, result.truncated, result.warnings) == (
        nodes, reference.truncated, reference.warnings), case
    np.testing.assert_allclose(result.eigenvalues, reference.eigenvalues, rtol=1e-15, atol=0.0,
                               err_msg=str(case))
    np.testing.assert_allclose(result.refined, reference.refined, rtol=1e-13, atol=0.0,
                               err_msg=str(case))


def oracle_messages(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "manning_rosen.oracle"]


def untimed_messages(caplog):
    """``oracle_messages`` with the stage timings that end each solve's line cut off."""
    return [re.sub(r"; (shared assembly [\d.]+ s, )?assembly [\d.]+ s, eigensolve [\d.]+ s, "
                   r"refinement [\d.]+ s$", "", m)
            for m in oracle_messages(caplog)]


# (params, D, l, grid) of a k = 6 channel whose index-range seed of level 2 is the
# eigenvalue to working precision, so gtsv meets an exact zero pivot there
ZERO_PIVOT = (PotentialParams(A=165.0638269404963, alpha=-3.1110882206291945,
                              b=5440541.195234135), 5, 5,
              LogRadialGrid(r_min=0.25588951042744684, r_max=11634345.840628399, n_points=120))


# (params, D, l, grid) of a k = 6 exact-mode channel whose approximated levels fail
# their certificate on the same grid, while the exact ones bisected alone hold 4
FAILED_PRESOLVE = (PotentialParams(A=585.9518708450365, alpha=3.074236621153304,
                                   b=0.0003666394338066915), 8, 6,
                   LogRadialGrid(r_min=6.636711172153545e-18, r_max=0.1090741622594671,
                                 n_points=44))


def singular_gtsv(monkeypatch, calls: int | float):
    """Make the oracle's first ``calls`` gtsv solves report a zero pivot (info = 1)."""
    gtsv, made = oracle.dgtsv, []

    def reported(*args, **kwargs):
        made.append(None)
        solution = gtsv(*args, **kwargs)
        return (*solution[:4], 1) if len(made) <= calls else solution

    monkeypatch.setattr(oracle, "dgtsv", reported)


class TestSeededEigensolve:
    def test_every_table_channel_is_seeded(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            for (inv_b, alpha, D, l), n_top in table_channels().items():
                solve_radial(table_params(inv_b, alpha), D, l, k=n_top + 1)
        messages = oracle_messages(caplog)
        assert len(messages) == 66
        assert all(" levels seeded in " in m and "bisected" not in m for m in messages), messages

    def test_debug_log_names_the_path(self, caplog):
        params = table_params()
        undefined = PotentialParams(A=80.0, alpha=0.3, b=40.0)  # q = 0: no closed form
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            solve_radial(params, 2, 1, CentrifugalMode.APPROXIMATED, k=3)
            solve_radial(params, 2, 1, CentrifugalMode.EXACT, k=3)
            solve_radial(PotentialParams(A=2.0, alpha=0.0, b=1.0), 3, 0, k=5)
            solve_radial(undefined, 2, 0, grid=LogRadialGrid(r_min=4e-11, r_max=2000.0,
                                                             n_points=4001), k=2)
        seeded, seeding, exact, truncated, bisected = oracle_messages(caplog)
        # the exact solve logs the approximated solve that seeds it first, on the
        # fine grid alone; each default solve then solves the coarse grid
        assert seeding.split("; ")[0] == seeded.split("; ")[0] and " exact: " in exact
        assert re.search(r", 3 of 3 levels seeded in \d+ solves; coarse \d+ points, 3 of 3 levels "
                         r"seeded from fine in \d+ solves; shared assembly", seeded)
        assert re.search(r", 3 of 3 levels seeded in \d+ solves; shared assembly", seeding)
        assert re.search(r", 3 of 3 levels seeded from approx in \d+ solves; coarse \d+ points, "
                         r"3 of 3 levels seeded from fine in \d+ solves; assembly", exact)
        assert re.search(r", 1 of 5 levels seeded in \d+ solves, no other level below 0 "
                         r"\(stebz count\); coarse \d+ points, 1 of 1 levels seeded from fine in "
                         r"\d+ solves; shared assembly", truncated)
        assert re.search(r", 2 of 2 levels seeded in \d+ solves, bisected from level 0 "
                         r"\(stebz finds 12 more levels below 0\); ", bisected)

    def test_s_wave_is_seeded_in_both_modes(self, caplog):
        # q = 1: both barriers vanish, so exact mode solves the closed form's equation
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            exact = solve_radial(params, 3, 0, CentrifugalMode.EXACT, k=2)
            approx = solve_radial(params, 3, 0, CentrifugalMode.APPROXIMATED, k=2)
        assert exact == dataclasses.replace(approx, mode=CentrifugalMode.EXACT)
        assert all(" levels seeded in " in m and "bisected" not in m
                   for m in oracle_messages(caplog))

    def test_wrong_seed_falls_back_to_bisection(self, monkeypatch, caplog):
        # eps_0 and eps_1 swapped: inverse iteration from level 1's value finds
        # level 1's vector, whose node count fails level 0's certificate
        params = table_params()
        bound_levels = oracle._bound_levels

        def swapped(b, k, grid, diag, off, v_scaled, seeds, starts=None):
            seeds = [seeds[1], seeds[0], *seeds[2:]]
            return bound_levels(b, k, grid, diag, off, v_scaled, seeds, starts)

        monkeypatch.setattr(oracle, "_bound_levels", swapped)
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            result = solve_radial(params, 2, 1, k=3)
        [message] = oracle_messages(caplog)
        assert re.search(r"3 of 3 levels seeded in \d+ solves, bisected from level 0 "
                         r"\(level 0 has 1 nodes\)", message)
        assert_matches_reference(result, *reference_solve(
            monkeypatch, params, 2, 1, CentrifugalMode.APPROXIMATED, None, 3))
        assert result.node_counts == (0, 1, 2)

    def test_unconverged_level_on_a_coarse_grid_falls_back(self, monkeypatch, caplog):
        # 41 points: the closed form is too far from the coarse grid's level for
        # three solves to converge, so bisection seeds every level
        params = table_params()
        base = default_grid(params, 2, 1, k=3)
        grid = LogRadialGrid(r_min=base.r_min, r_max=base.r_max, n_points=41)
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            result = solve_radial(params, 2, 1, grid=grid, k=3)
        [message] = oracle_messages(caplog)
        assert re.search(r"3 of 3 levels seeded in \d+ solves, bisected from level 0 "
                         r"\(level 0 not converged in 3 solves\)", message)
        assert_matches_reference(result, *reference_solve(
            monkeypatch, params, 2, 1, CentrifugalMode.APPROXIMATED, grid, 3))

    def test_zero_pivot_moves_the_shift(self, monkeypatch):
        # the shift moves down by 1e-12 / 4 of itself and is solved once more
        params, D, l, grid = ZERO_PIVOT
        result = solve_radial(params, D, l, grid=grid, k=6)
        assert_matches_reference(result, *reference_solve(
            monkeypatch, params, D, l, CentrifugalMode.APPROXIMATED, grid, 6))
        assert result.node_counts == (0, 1, 2)
        assert result.truncated and len(result.warnings) == 1

    def test_zero_pivot_request_prints_both_modes(self, capsys):
        # 41 points: bisection seeds approximated levels 0 and 1, and level 1's seed
        # is its value to working precision; the rows are those the oracle printed
        # when bisection gave the values outright
        rc = main(["oracle", "--inv-b", "0.075", "--A-over-b", "2", "--alpha", "1.5",
                   "--dim", "4", "--states", "3d,4d", "--mode", "both",
                   "--r-max", "66.66666666666667", "--n-points", "41"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "label  n  l  D  closed        exact         approx        rel_err_approx  "
            "rel_err_exact\n"
            "3d     0  2  4  -0.010947973  -0.009655625  -0.011567064  5.352e-02       "
            "1.338e-01\n"
            "4d     1  2  4  -0.001204122  -0.000344637  -0.001936971  3.783e-01       "
            "2.494e+00\n")

    def test_zero_pivot_leaves_a_missing_level_missing(self, capsys):
        # 11 points hold one bound level: the request fails on the level it lacks
        rc = main(["oracle", "--inv-b", "0.025", "--A-over-b", "2", "--alpha", "1.5",
                   "--dim", "2", "--states", "3d,4d,5d,6d", "--mode", "approx",
                   "--r-max", "200", "--n-points", "11"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("solver failure: oracle found only 1 bound levels")
        assert captured.out == ""

    def test_one_reported_zero_pivot_costs_one_solve(self, monkeypatch, caplog):
        # the first gtsv solve reports a zero pivot: the moved shift is solved once
        # more, the level stays seeded and its value is stebz's again
        params = table_params()
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            plain = solve_radial(params, 2, 1, k=3)
            singular_gtsv(monkeypatch, 1)
            moved = solve_radial(params, 2, 1, k=3)
        solves = [int(re.search(r"3 of 3 levels seeded in (\d+) solves; ", m).group(1))
                  for m in oracle_messages(caplog)]
        assert solves[1] == solves[0] + 1
        np.testing.assert_allclose(moved.eigenvalues, plain.eigenvalues, rtol=1e-15, atol=0.0)
        assert (moved.node_counts, moved.truncated, moved.warnings) == (
            plain.node_counts, plain.truncated, plain.warnings)

    def test_shift_singular_after_the_move_raises(self, monkeypatch):
        # every solve reports a zero pivot: the level fails, and so does the index
        # range's seed for it
        singular_gtsv(monkeypatch, math.inf)
        with pytest.raises(ConvergenceError, match="certificate: singular shift at level 0"):
            solve_radial(table_params(), 2, 1, k=3)

    def test_exact_mode_survives_a_failed_approximated_presolve(self, monkeypatch, caplog):
        # 44 points, k = 6: the approximated solve that would seed exact mode fails
        # level 4's certificate, so the exact levels are seeded by bisection alone
        params, D, l, grid = FAILED_PRESOLVE
        with pytest.raises(ConvergenceError, match="level 4 has 3 nodes"):
            solve_radial(params, D, l, grid=grid, k=6)
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            result = solve_radial(params, D, l, CentrifugalMode.EXACT, grid=grid, k=6)
        [message] = oracle_messages(caplog)  # the approximated solve raises before its line
        assert re.search(r" exact: .*, 4 of 6 levels seeded in \d+ solves, bisected from "
                         r"level 0 \(stebz finds 4 more levels below 0\)", message)
        assert re.search(r", no approximated seeds \(the levels that stebz's index range seeds "
                         r"fail their certificate: level 4 has 3 nodes, on grid .*\); "
                         r"shared assembly [\d.]+ s, assembly",
                         message)
        assert_matches_reference(result, *reference_solve(
            monkeypatch, params, D, l, CentrifugalMode.EXACT, grid, 6))
        assert result.node_counts == (0, 1, 2, 3) and result.truncated

    def test_audit_asking_for_the_failed_approximated_levels_raises(self):
        params, D, l, grid = FAILED_PRESOLVE
        for modes in ((CentrifugalMode.EXACT, CentrifugalMode.APPROXIMATED),
                      (CentrifugalMode.APPROXIMATED,)):
            with pytest.raises(ConvergenceError, match="level 4 has 3 nodes"):
                audit_channel(params, D, l, [5], modes=modes, grid=grid)

    def test_seeded_sweep_matches_bisection(self, monkeypatch, reference_outcomes):
        # each drawn approximated-mode channel solved seeded and by the index
        # range, on one grid; a certificate that fails sends it to bisection
        paths = solved(seeded_sweep(monkeypatch, reference_outcomes,
                                    CentrifugalMode.APPROXIMATED))
        assert len(paths) >= 200
        assert sum("bisected" in path for path in paths) <= 0.01 * len(paths)

    def test_seeded_exact_sweep_matches_bisection(self, monkeypatch, reference_outcomes):
        # the same draws in exact mode where q >= 2, seeded from the approximated
        # solve on the same grid; the fraction certified is in the message
        paths = solved(seeded_sweep(monkeypatch, reference_outcomes, CentrifugalMode.EXACT))
        fraction = sum("bisected" not in path for path in paths) / len(paths)
        assert len(paths) >= 150
        assert fraction >= 0.95, f"{fraction:.3f} of {len(paths)} exact solves certified"

    @pytest.mark.parametrize("mode", list(CentrifugalMode))
    def test_sweep_seeded_by_bisection_matches_index_range(self, monkeypatch, reference_outcomes,
                                                            mode):
        # the same draws with no seeds: bisection seeds every level of every channel
        # that binds one, and each level keeps its certificate
        paths = solved(seeded_sweep(monkeypatch, reference_outcomes, mode, seeds=False))
        bisected = sum("bisected from level 0 (stebz finds " in path for path in paths)
        unbound = paths.count("seeded in 0 solves, no other level below 0 (stebz count)")
        assert bisected + unbound == len(paths) and bisected >= 250

    def test_wrong_perturbed_seed_falls_back_to_bisection(self, monkeypatch, caplog):
        # the first two perturbed seeds swapped: the exact solve must not keep them
        params = table_params()
        bound_levels = oracle._bound_levels

        def swapped(b, k, grid, diag, off, v_scaled, seeds, starts=None):
            if starts is not None:
                seeds = [seeds[1], seeds[0], *seeds[2:]]
            return bound_levels(b, k, grid, diag, off, v_scaled, seeds, starts)

        monkeypatch.setattr(oracle, "_bound_levels", swapped)
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            result = solve_radial(params, 2, 1, CentrifugalMode.EXACT, k=3)
        [message] = [m for m in oracle_messages(caplog) if " exact: " in m]
        assert re.search(r", 3 of 3 levels seeded from approx in \d+ solves, bisected from "
                         r"level 0 \(level 0 ", message)
        assert_matches_reference(result, *reference_solve(
            monkeypatch, params, 2, 1, CentrifugalMode.EXACT, None, 3))
        assert result.node_counts == (0, 1, 2)

    @pytest.mark.parametrize("alpha, why", [(0.75, "level 1 not converged in 3 solves"),
                                            (0.0, "stebz finds 1 more levels below 0")])
    def test_levels_below_a_bisected_level_stay_seeded(self, alpha, why, caplog):
        # 4d, D = 4, 1/b = 0.075: level 1's perturbed seed does not converge
        # (alpha = 0.75) or lies above 0 while the level is bound (alpha = 0), so
        # bisection seeds level 1 alone, and level 0 is the one a k = 1 solve certifies
        params = table_params(0.075, alpha)
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            result = solve_radial(params, 4, 2, CentrifugalMode.EXACT, k=2)
        message = oracle_messages(caplog)[-1]
        assert "D=4 l=2 exact: " in message
        assert re.search(rf", 2 of 2 levels seeded from approx in \d+ solves, bisected from "
                         rf"level 1 \({why}\); ", message)
        values, _, _ = index_range_solve(params, 4, 2, CentrifugalMode.EXACT, result.grid, 2)
        np.testing.assert_allclose(result.eigenvalues, values / params.kappa,
                                   rtol=1e-15, atol=0.0)
        assert result.node_counts == (0, 1)
        alone = solve_radial(params, 4, 2, CentrifugalMode.EXACT, grid=result.grid, k=1)
        assert alone.eigenvalues[0] == result.eigenvalues[0]

    def test_q0_channel_is_seeded_in_exact_mode(self, caplog):
        # D = 2, l = 0, alpha = 0: the exact barrier -1/(4 r^2) lies below its stand-in
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            result = solve_radial(params, 2, 0, CentrifugalMode.EXACT, k=1)
        message = oracle_messages(caplog)[-1]
        assert ", 1 of 1 levels seeded from approx in " in message
        assert "bisected" not in message
        values, _, _ = index_range_solve(params, 2, 0, CentrifugalMode.EXACT, result.grid, 1)
        np.testing.assert_allclose(result.eigenvalues, values / params.kappa,
                                   rtol=1e-15, atol=0.0)

    def test_exact_mode_matches_index_range_on_table_channels(self, caplog):
        # every exact level of the 66 channels, alone and in an audit, against the
        # index range's negative values on the same grid; only the four cells the
        # exact barrier unbinds go missing, and every exact level is seeded from
        # approx but those of 4d at D = 4, 1/b = 0.075, alpha = 0 and 0.75
        truncated, bisected = set(), []
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            for (inv_b, alpha, D, l), n_top in table_channels().items():
                logged = len(caplog.records)
                params, k = table_params(inv_b, alpha), n_top + 1
                result = solve_radial(params, D, l, CentrifugalMode.EXACT, k=k)
                values, _, _ = index_range_solve(params, D, l, CentrifugalMode.EXACT,
                                                 result.grid, k)
                bound = values[values < 0.0] / params.kappa
                assert len(result.eigenvalues) == len(bound), (inv_b, alpha, D, l)
                np.testing.assert_allclose(result.eigenvalues, bound, rtol=1e-15, atol=0.0)
                assert result.node_counts == tuple(range(len(bound)))
                audits = audit_channel(params, D, l, list(range(k)))
                assert [a.e_exact for a in audits[:len(bound)]] == list(result.refined)
                if result.truncated:
                    truncated.add((inv_b, alpha, l, len(bound)))
                bisected += [(inv_b, alpha, D, l) for r in caplog.records[logged:]
                             if " exact: " in r.getMessage() and "bisected" in r.getMessage()]
        assert truncated == {(0.075, 0.75, 3, 0), (0.075, 0.0, 3, 0), (0.075, 1.5, 3, 0),
                             (0.075, 1.5, 2, 1)}
        exact = [m for m in oracle_messages(caplog) if " exact: " in m]
        assert len(exact) == 2 * 66
        assert all(" levels seeded from approx in " in m for m in exact), exact
        # once in the solve and once in the audit
        assert sorted(bisected) == [(0.075, 0.0, 4, 2)] * 2 + [(0.075, 0.75, 4, 2)] * 2

    def test_levels_the_exact_barrier_unbinds_are_counted_not_bisected(self, caplog):
        # 1/b = 0.075, alpha = 1.5, D = 4: the perturbed seeds of 4d and 4f lie above
        # 0, and one stebz count shows that no other level lies below 0
        params = table_params(0.075, 1.5)
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            four_d = audit_channel(params, 4, 2, [0, 1])[1]
            [four_f] = audit_channel(params, 4, 3, [0])
        assert four_d.e_exact is None and four_f.e_exact is None
        messages = oracle_messages(caplog)
        assert not any("bisected" in m for m in messages), messages
        exact = [m for m in messages if " exact: " in m]
        assert re.search(r", 1 of 2 levels seeded from approx in \d+ solves, no other level "
                         r"below 0 \(stebz count\); ", exact[0])
        assert (", 0 of 1 levels seeded from approx in 0 solves, no other level below 0 "
                "(stebz count); ") in exact[1]


def outcome(solve, *args, **kwargs):
    """What ``solve`` returns, or the type of the oracle error it raises."""
    try:
        return solve(*args, **kwargs)
    except (ConvergenceError, DomainError) as exc:
        return type(exc)


def solved(paths: list[str]) -> list[str]:
    """The paths of eigensolves that ran: kappa min V_eff below 0."""
    return [path for path in paths if not path.startswith("unsolved")]


@pytest.fixture(scope="module")
def reference_outcomes():
    """Outcomes of ``reference_solve`` by (params, D, l, mode, grid, k), which the
    seeded and the unseeded sweeps of a mode share."""
    return {}


def seeded_sweep(monkeypatch, outcomes: dict, mode: CentrifugalMode,
                 seeds: bool = True) -> list[str]:
    """Drawn k = 3 channels solved in ``mode`` and by ``reference_solve``, on one grid.

    Asserts that both give the same levels, or raise the same exception type;
    exact mode takes only the q >= 2 channels.  With ``seeds`` off, every
    eigensolve gets no seeds, so bisection seeds its levels.  Returns the
    path of each of the mode's own eigensolves.  Each reference outcome is
    computed once, in ``outcomes``.
    """
    rng = random.Random(20261019)
    bound_levels = oracle._bound_levels
    paths = []

    def seeded(b, k, grid, diag, off, v_scaled, levels, starts=None):
        own = mode is CentrifugalMode.APPROXIMATED or starts is not None
        if not seeds:
            levels, starts = [], None
        values, vectors, path = bound_levels(b, k, grid, diag, off, v_scaled, levels, starts)
        if own:
            paths.append(path)
        return values, vectors, path

    for _ in range(400):
        params = PotentialParams(A=10.0 ** rng.uniform(0.5, 3.0),
                                 alpha=rng.uniform(-1.0, 2.0),
                                 b=10.0 ** rng.uniform(-3.0, 4.0))
        D, l = rng.randint(2, 6), rng.randint(0, 4)
        if mode is CentrifugalMode.EXACT and D + 2 * l - 2 < 2:
            continue
        try:
            grid = default_grid(params, D, l, k=3)
        except DomainError:
            continue
        case = (params, D, l)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_bound_levels", seeded)
            fast = outcome(solve_radial, params, D, l, mode, grid=grid, k=3)
        key = (params, D, l, mode, grid, 3)
        if key not in outcomes:
            outcomes[key] = outcome(reference_solve, monkeypatch, *key)
        slow = outcomes[key]
        if isinstance(fast, type) or isinstance(slow, type):
            assert fast is slow, case
            continue
        assert_matches_reference(fast, *slow, case)
    return paths


# (D, l) of the 2p state at A = 80, alpha = 0.75, solved across the range of b
P_CHANNEL = (2, 1)


def p_channel_params(b):
    return PotentialParams(A=80.0, alpha=0.75, b=b)


class TestScreeningLengthRange:
    @pytest.mark.parametrize("exponent", [-140, -100, 80, 120, 150])
    def test_level_matches_closed_form_at_extreme_b(self, exponent):
        # in units of r the matrix entries scale as 1/b^2: they reach subnormal
        # floats at b = 1e80, and max off^2 overflows at b = 1e-100
        params = p_channel_params(10.0 ** exponent)
        e_closed = energy(params, QuantumState(n=0, l=1, D=2)).energy
        result = solve_radial(params, *P_CHANNEL)
        assert abs(result.refined[0] - e_closed) <= 1e-9 * abs(e_closed)

    def test_audit_is_invariant_under_a_power_of_two_in_b(self):
        audits = [audit_channel(p_channel_params(40.0 * 2.0 ** k), *P_CHANNEL, [0, 1])
                  for k in (-400, -200, 0, 200, 400)]
        reference = [audit.rel_errors for audit in audits[2]]
        for audit_set in audits:
            for audit, expected in zip(audit_set, reference):
                assert audit.rel_errors == pytest.approx(expected, rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("b", [1e-160, 1e160])
    def test_b_out_of_float_range_raises_domain_error(self, b):
        # the closed form (1e-160) or the grid (1e160) is out of float range
        with pytest.raises(DomainError):
            solve_radial(p_channel_params(b), *P_CHANNEL)
        with pytest.raises(DomainError):
            audit_channel(p_channel_params(b), *P_CHANNEL, [0])

    @pytest.mark.parametrize("mode", list(CentrifugalMode))
    def test_underflowing_b_squared_on_an_explicit_grid_raises_domain_error(self, mode):
        # b = 1e-300: b^2 underflows to 0 in V, which both modes assemble
        grid = LogRadialGrid(r_min=1e-12, r_max=1e5, n_points=3)
        with pytest.raises(DomainError, match="b\\^2 underflows to 0"):
            solve_radial(p_channel_params(1e-300), *P_CHANNEL, mode, grid=grid)


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

    def test_level_unbound_by_the_exact_barrier_raises(self):
        # 4f, D = 4: the exact barrier shift (q^2-1)/(48 kappa b^2) exceeds |E|
        with pytest.raises(ConvergenceError, match="exact 1/r\\^2 barrier unbinds"):
            approximation_audit(table_params(0.075, 0.75), QuantumState(n=0, l=3, D=4))


@pytest.fixture
def oracle_calls(monkeypatch):
    """Counts of ``default_grid`` calls and of solves (``oracle._solve``) per mode."""
    calls = {"default_grid": 0, CentrifugalMode.EXACT: 0, CentrifugalMode.APPROXIMATED: 0}
    solve, grid = oracle._solve, oracle.default_grid

    def counted_solve(params, D, l, mode, *args):
        calls[mode] += 1
        return solve(params, D, l, mode, *args)

    def counted_grid(*args, **kwargs):
        calls["default_grid"] += 1
        return grid(*args, **kwargs)

    monkeypatch.setattr(oracle, "_solve", counted_solve)
    monkeypatch.setattr(oracle, "default_grid", counted_grid)
    return calls


# (l, ns) of the 1/b = 0.075, D = 4 table groups, one channel per l
TABLE_075_D4_CHANNELS = ((1, [0, 1, 2]), (2, [0, 1]), (3, [0]))


class TestAuditChannel:
    def test_one_solve_per_mode_on_one_default_grid(self, oracle_calls):
        params = table_params()
        audits = audit_channel(params, 2, 1, [0, 1, 2])
        assert oracle_calls == {"default_grid": 1, CentrifugalMode.EXACT: 1,
                                CentrifugalMode.APPROXIMATED: 1}
        for n, audit in enumerate(audits):
            assert audit.e_closed == energy(params, QuantumState(n=n, l=1, D=2)).energy
            assert audit.rel_errors[0] < 1e-8
            assert audit.e_exact > audit.e_approx  # the exact barrier lies higher

    def test_approx_mode_makes_no_exact_solve(self, oracle_calls):
        audits = audit_channel(table_params(), 2, 1, [0, 1],
                               modes=(CentrifugalMode.APPROXIMATED,))
        assert oracle_calls == {"default_grid": 1, CentrifugalMode.EXACT: 0,
                                CentrifugalMode.APPROXIMATED: 1}
        for audit in audits:
            assert audit.e_exact is None and audit.rel_errors[1] is None
            assert audit.rel_errors[0] < 1e-8

    def test_explicit_grid_builds_no_default_grid(self, oracle_calls):
        grid = default_grid(table_params(), 2, 1, k=2)
        oracle_calls["default_grid"] = 0
        audit_channel(table_params(), 2, 1, [0, 1], grid=grid)
        assert oracle_calls["default_grid"] == 0

    def test_unbound_level_raises_before_any_solve(self, oracle_calls):
        with pytest.raises(UnboundStateError):
            audit_channel(PotentialParams(A=1.0, alpha=0.0, b=1.0), 3, 0, [0, 4])
        assert oracle_calls == {"default_grid": 0, CentrifugalMode.EXACT: 0,
                                CentrifugalMode.APPROXIMATED: 0}

    def test_no_levels_raises_before_any_solve(self, oracle_calls):
        with pytest.raises(DomainError, match="need at least one level n"):
            audit_channel(table_params(), 2, 1, [])
        assert oracle_calls == {"default_grid": 0, CentrifugalMode.EXACT: 0,
                                CentrifugalMode.APPROXIMATED: 0}

    def test_no_modes_raises_before_any_closed_form_or_grid(self, oracle_calls, monkeypatch):
        # n = 4 is unbound, so a closed form computed first would raise UnboundStateError
        closed, closed_energy = [], oracle._closed_energy

        def counted(*args):
            closed.append(args)
            return closed_energy(*args)

        monkeypatch.setattr(oracle, "_closed_energy", counted)
        with pytest.raises(DomainError, match="need at least one centrifugal mode"):
            audit_channel(PotentialParams(A=1.0, alpha=0.0, b=1.0), 3, 0, [4], modes=())
        assert closed == []
        assert oracle_calls == {"default_grid": 0, CentrifugalMode.EXACT: 0,
                                CentrifugalMode.APPROXIMATED: 0}

    def test_a_repeated_mode_is_solved_once(self, oracle_calls):
        # an exact-only audit makes one exact solve and the approximated one that seeds it
        params = table_params()
        once = audit_channel(params, 2, 1, [0, 1], modes=(CentrifugalMode.EXACT,))
        assert oracle_calls == {"default_grid": 1, CentrifugalMode.EXACT: 1,
                                CentrifugalMode.APPROXIMATED: 1}
        assert audit_channel(params, 2, 1, [0, 1], modes=(CentrifugalMode.EXACT,) * 2) == once
        assert oracle_calls == {"default_grid": 2, CentrifugalMode.EXACT: 2,
                                CentrifugalMode.APPROXIMATED: 2}

    def test_s_wave_audit_makes_one_solve(self, oracle_calls, caplog):
        # q = 1 (D = 3, l = 0): both barriers vanish, so the two modes share the
        # matrix and the seeds, and the approximated solve is the exact one
        params = PotentialParams(A=80.0, alpha=0.0, b=40.0)
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            audits = audit_channel(params, 3, 0, [0, 1])
        assert oracle_calls == {"default_grid": 1, CentrifugalMode.EXACT: 0,
                                CentrifugalMode.APPROXIMATED: 1}
        assert [a.e_exact for a in audits] == [a.e_approx for a in audits]
        approx_line, exact_line = oracle_messages(caplog)
        assert " approx: " in approx_line and "levels seeded in" in approx_line
        assert re.search(r"^solve_radial D=3 l=0 exact: \d+ points from r_min .*, 2 of 2 levels "
                         r"from the approx solve, not solved again \(q\^2 = 1: ", exact_line)
        grid = default_grid(params, 3, 0, k=2)
        solves = oracle._solve_modes(params, 3, 0, [CentrifugalMode.APPROXIMATED,
                                                    CentrifugalMode.EXACT], grid, 2)
        exact, approx = solves[CentrifugalMode.EXACT], solves[CentrifugalMode.APPROXIMATED]
        assert exact.mode is CentrifugalMode.EXACT and approx.mode is CentrifugalMode.APPROXIMATED
        assert (exact.eigenvalues, exact.refined) == (approx.eigenvalues, approx.refined)
        assert exact == solve_radial(params, 3, 0, CentrifugalMode.EXACT, grid=grid, k=2)

    def test_exact_solve_given_approx_computes_no_closed_form_seeds(self, monkeypatch):
        # q = 2 (2p, D = 2): the exact solve seeds from the approximated eigenpairs,
        # so of the two solves only the approximated one asks the closed form
        params = table_params()
        grid = default_grid(params, 2, 1, k=3)
        plain = audit_channel(params, 2, 1, [0, 1, 2], grid=grid)
        calls, states = [], oracle.bound_states

        def counted(*args, **kwargs):
            calls.append(args)
            return states(*args, **kwargs)

        monkeypatch.setattr(oracle, "bound_states", counted)
        assert audit_channel(params, 2, 1, [0, 1, 2], grid=grid) == plain
        assert calls == [(params, 2, 1, 2)]

    @pytest.mark.parametrize("alpha, unbound", [(0.75, {"4f"}), (0.0, {"4f"}),
                                                (1.5, {"4d", "4f"})])
    def test_level_unbound_by_the_exact_barrier_reads_none(self, monkeypatch, alpha, unbound):
        params = table_params(0.075, alpha)
        for l, ns in TABLE_075_D4_CHANNELS:
            grid = default_grid(params, 4, l, k=max(ns) + 1)
            for n, audit in zip(ns, audit_channel(params, 4, l, ns)):
                state = QuantumState(n=n, l=l, D=4)
                assert audit.e_approx is not None and audit.rel_errors[0] <= 1e-8
                if state_label(n, l) in unbound:
                    assert audit.e_exact is None and audit.rel_errors[1] is None
                    continue
                assert audit.e_exact > audit.e_approx
                # a one-level audit is the same solve as approximation_audit; a level
                # below the channel's top may be bisected with another k, which
                # may end a few ulp away
                assert audit_channel(params, 4, l, [n])[0] == approximation_audit(params, state)
                with monkeypatch.context() as patch:  # the default solve on the channel's grid
                    patch.setattr(oracle, "default_grid", lambda *args: grid)
                    alone = approximation_audit(params, state)
                assert alone.e_closed == audit.e_closed
                assert alone.e_exact == pytest.approx(audit.e_exact, rel=1e-15, abs=0.0)
                assert alone.e_approx == pytest.approx(audit.e_approx, rel=1e-15, abs=0.0)
                if n == max(ns):
                    assert alone == audit


def assembled(params, D, l, mode, grid):
    """``_tridiagonal``'s arrays written out from ``effective_potential`` at unit kappa."""
    r, h = grid.points()[1:-1], grid.spacing
    v_scaled = effective_potential(dataclasses.replace(params, mu=0.5, hbar=1.0),
                                   QuantumState(n=0, l=l, D=D), r, mode)
    nu = math.sqrt(max(0.25 + float(r[0] * r[0] * v_scaled[0]), 0.0))
    t_diag = np.full(len(r), 2.0 / (h * h))
    t_diag[0] -= math.exp(-nu * h) / (h * h)
    return (t_diag + 0.25) / (r * r) + v_scaled, -1.0 / (h * h * r[:-1] * r[1:]), v_scaled, r


def audit_and_solves(monkeypatch, params, D, l, ns, grid,
                     modes=(CentrifugalMode.EXACT, CentrifugalMode.APPROXIMATED)):
    """What ``audit_channel`` in ``modes`` returns or raises, and the results it read."""
    read, solve_modes = {}, oracle._solve_modes

    def recorded(*args):
        solves = solve_modes(*args)
        read.update(solves)
        return solves

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_solve_modes", recorded)
        return outcome(audit_channel, params, D, l, ns, modes, grid), read


def assert_audit_matches_solves(monkeypatch, params, D, l, ns, grid, case=""):
    """``audit_channel`` in both modes against one ``solve_radial`` per mode on ``grid``.

    The result of each mode that the audit reads equals the separate solve's
    (values, refined values, node counts, truncation, warnings), and each
    audit value is a refined level, or None where the exact solve lacks it.
    An audit that raises raises what the first failing solve raises,
    approximated mode first, or else :class:`ConvergenceError` for a level
    that the approximated solve lacks.  Returns the audit's outcome.
    """
    audit, read = audit_and_solves(monkeypatch, params, D, l, ns, grid)
    alone = {mode: outcome(solve_radial, params, D, l, mode, grid=grid, k=max(ns) + 1)
             for mode in (CentrifugalMode.APPROXIMATED, CentrifugalMode.EXACT)}
    if isinstance(audit, type):
        failed = [result for result in alone.values() if isinstance(result, type)]
        assert audit is (failed[0] if failed else ConvergenceError), case
        return audit
    assert read == alone, case
    approx, exact = (alone[mode].refined
                     for mode in (CentrifugalMode.APPROXIMATED, CentrifugalMode.EXACT))
    assert [(a.e_approx, a.e_exact) for a in audit] == [
        (approx[n], exact[n] if n < len(exact) else None) for n in ns], case
    return audit


# (params, D, l, grid) of a channel whose explicit grid holds one unknown
ONE_UNKNOWN = (PotentialParams(A=80.0, alpha=0.75, b=40.0), 2, 1,
               LogRadialGrid(r_min=1.0, r_max=100.0, n_points=3))


class TestSharedAssembly:
    @pytest.mark.parametrize("params, D, l, grid", [
        (table_params(), 2, 1, None),
        (PotentialParams(A=80.0, alpha=0.0, b=40.0), 3, 0, None),
        (PotentialParams(A=80.0, alpha=0.0, b=40.0), 2, 0, None),
        (PotentialParams(A=80.0, alpha=0.3, b=40.0), 2, 0,
         LogRadialGrid(r_min=4e-11, r_max=2000.0, n_points=4001)),
        ZERO_PIVOT, FAILED_PRESOLVE, ONE_UNKNOWN,
    ], ids=["q2", "q1", "q0", "q0-no-closed-form", "zero-pivot", "failed-presolve",
            "one-unknown"])
    def test_tridiagonal_has_the_same_bits_with_shared_parts(self, params, D, l, grid):
        grid = grid or default_grid(params, D, l, k=2)
        parts = _channel_parts(params, grid)
        for mode in CentrifugalMode:
            shared = _tridiagonal(params, D, l, mode, grid, parts)
            alone = _tridiagonal(params, D, l, mode, grid, _channel_parts(params, grid))
            expected = assembled(params, D, l, mode, grid)
            for arrays in (alone, expected):
                assert [a.tobytes() for a in shared] == [a.tobytes() for a in arrays], mode

    def test_audit_matches_solve_radial_on_table_channels(self, monkeypatch):
        for (inv_b, alpha, D, l), n_top in table_channels().items():
            params, case = table_params(inv_b, alpha), (inv_b, alpha, D, l)
            grid = default_grid(params, D, l, k=n_top + 1)
            audit = assert_audit_matches_solves(monkeypatch, params, D, l,
                                                list(range(n_top + 1)), grid, case)
            assert not isinstance(audit, type), case

    def test_audit_matches_solve_radial_on_drawn_channels(self, monkeypatch):
        # q = 0, q = 1 (one solve) and q >= 2, on default and explicit grids, and
        # the fixed explicit grids that meet a zero pivot, fail the approximated
        # certificate and hold one unknown
        rng = random.Random(20261020)
        cases = []
        for _ in range(300):
            params = PotentialParams(A=10.0 ** rng.uniform(0.5, 3.0),
                                     alpha=rng.uniform(-1.0, 2.0),
                                     b=10.0 ** rng.uniform(-3.0, 4.0))
            D, l = rng.choice([(2, 0), (3, 0), (3, 0), (2, 1), (4, 1), (5, 2), (6, 3)])
            try:
                grid = default_grid(params, D, l, k=3)
            except DomainError:
                continue
            if rng.random() < 0.3:
                grid = LogRadialGrid(r_min=grid.r_min, r_max=grid.r_max,
                                     n_points=rng.choice([41, 401]))
            cases.append((params, D, l, grid))
        raised, q_values = 0, set()
        for params, D, l, grid in cases + [ZERO_PIVOT, FAILED_PRESOLVE, ONE_UNKNOWN]:
            try:
                ns = [entry.state.n for entry in bound_states(params, D, l, n_max=5)]
            except DomainError:  # no closed form: no audit
                continue
            if not ns:
                continue
            ns = sorted(rng.sample(ns, rng.randint(1, len(ns))))
            audit = assert_audit_matches_solves(monkeypatch, params, D, l, ns, grid,
                                                (params, D, l, grid, ns))
            if isinstance(audit, type):
                raised += 1
            else:
                q_values.add(min(D + 2 * l - 2, 2))
        assert q_values == {0, 1, 2} and raised >= 1


class TestOneSequencer:
    @pytest.mark.parametrize("params, D, l, grid, k", [
        (*FAILED_PRESOLVE, 6),
        (table_params(), 2, 1, default_grid(table_params(), 2, 1, k=3), 3),
    ], ids=["failed-presolve", "table-2p-D2"])
    def test_exact_only_audit_reads_the_exact_solve(self, monkeypatch, caplog,
                                                    params, D, l, grid, k):
        # both reach _solve through _solve_modes: the approximated solve made for the
        # seeds (which raises and is caught on FAILED_PRESOLVE), then the exact one
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            audit, read = audit_and_solves(monkeypatch, params, D, l, list(range(k)), grid,
                                           (CentrifugalMode.EXACT,))
            audit_lines = untimed_messages(caplog)
            caplog.clear()
            alone = solve_radial(params, D, l, CentrifugalMode.EXACT, grid=grid, k=k)
            alone_lines = untimed_messages(caplog)
        assert read == {CentrifugalMode.EXACT: alone}
        assert audit_lines == alone_lines
        if alone.truncated:  # FAILED_PRESOLVE: 4 of 6 levels, the approximated line missing
            assert audit is ConvergenceError
            [line] = alone_lines
            assert ", no approximated seeds (" in line
        else:
            assert [a.e_exact for a in audit] == list(alone.refined)
            seeding, exact = alone_lines
            assert " approx: " in seeding and " levels seeded from approx in " in exact

    def test_exact_only_solve_survives_a_domain_error_in_its_seed_solve(self):
        # r/b = 1e-170 at the first node: expm1(-r/b)^2 underflows to 0, so the
        # approximated matrix is not finite while the exact one is; the seed solve's
        # DomainError is caught, and exact mode raises its own error, the pivot floor's
        params = PotentialParams(A=80.0, alpha=0.0, b=1e20)
        grid = LogRadialGrid(r_min=1e-150, r_max=5e21, n_points=401)
        exact = (CentrifugalMode.EXACT,)
        with np.errstate(divide="ignore", over="ignore"):
            with pytest.raises(DomainError, match="kappa V_eff is not a finite float"):
                solve_radial(params, 2, 1, CentrifugalMode.APPROXIMATED, grid=grid)
            for solve in (lambda: solve_radial(params, 2, 1, *exact, grid=grid),
                          lambda: audit_channel(params, 2, 1, [0], exact, grid)):
                with pytest.raises(ConvergenceError, match="resolves kappa E only to inf"):
                    solve()


    def test_extreme_grid_raises_cleanly_with_warnings_as_errors(self):
        # the same grid with NumPy's warnings raised as errors: the infinite barrier and
        # the overflowing scaled matrix are caught by the checks that follow them
        params = PotentialParams(A=80.0, alpha=0.0, b=1e20)
        grid = LogRadialGrid(r_min=1e-150, r_max=5e21, n_points=401)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="kappa V_eff is not a finite float"):
                solve_radial(params, 2, 1, CentrifugalMode.APPROXIMATED, grid=grid)
            for solve in (lambda: solve_radial(params, 2, 1, CentrifugalMode.EXACT, grid=grid),
                          lambda: audit_channel(params, 2, 1, [0], (CentrifugalMode.EXACT,),
                                                grid)):
                with pytest.raises(ConvergenceError, match="resolves kappa E only to inf"):
                    solve()


# (params, D, l) of two channels whose n = 2 level lies near threshold (eps = 0.0074
# and 0.025): the default grid leaves them 7e-5 and 2e-6 from the closed form
NEAR_THRESHOLD = [
    (PotentialParams(A=36.19871294804446, alpha=-0.13511276245117188, b=15.880668253942666), 3, 3),
    (PotentialParams(A=21.652762111045412, alpha=1.6123008728027344, b=12.24488590201764), 2, 2),
]


def two_grid_estimates(params, D, l, k):
    """A default solve, and e_n = |E_n - R_n| / |E_n| of each of its levels.

    R_n, the fine grid's deferred-corrected level, is the refined level of the
    one-grid solve on the fine grid: the same solve, with no coarse grid.
    """
    result = solve_radial(params, D, l, k=k)
    fine = solve_radial(params, D, l, grid=result.grid, k=k).refined
    return result, [abs(e - x) / abs(e) for e, x in zip(result.refined, fine)]


def coarse_bound_levels(monkeypatch, coarse: LogRadialGrid, levels):
    """Patch ``_bound_levels`` on ``coarse`` to ``levels(values, vectors, path)``."""
    bound_levels = oracle._bound_levels

    def patched(b, k, grid, diag, off, v_scaled, seeds, starts=None):
        solved = bound_levels(b, k, grid, diag, off, v_scaled, seeds, starts)
        return levels(*solved) if grid.n_points == coarse.n_points else solved

    monkeypatch.setattr(oracle, "_bound_levels", patched)


class TestTwoGridDefault:
    @pytest.mark.parametrize("D, l, alpha", [(2, 0, 0.0), (2, 1, 0.75), (6, 3, 0.75)])
    def test_grid_pair_keeps_the_ends_at_three_and_six_spacings(self, D, l, alpha):
        # M - 1 = round((N - 1) / 6): the fine grid has 2M - 1 points, the coarse M
        params = table_params(alpha=alpha)
        grid = default_grid(params, D, l, k=2)
        fine, coarse = _grid_pair(grid)
        m = round((grid.n_points - 1) / 6) + 1
        assert (fine.n_points, coarse.n_points) == (2 * m - 1, m)
        for pair in (fine, coarse):
            assert (pair.r_min, pair.r_max) == (grid.r_min, grid.r_max)
        assert fine.spacing == pytest.approx(3.0 * grid.spacing, rel=3e-3)
        assert coarse.spacing == pytest.approx(2.0 * fine.spacing, rel=1e-14)
        assert solve_radial(params, D, l, k=2).grid == fine

    def test_coarse_nodes_are_the_fine_grids_odd_nodes(self, monkeypatch):
        # every coarse matrix entry is built on nodes sliced from the fine grid's
        params = table_params()
        fine, coarse = _grid_pair(default_grid(params, 2, 1, k=3))
        tridiagonal, built = oracle._tridiagonal, []

        def recorded(*args):
            arrays = tridiagonal(*args)
            built.append((args[4], arrays[3]))
            return arrays

        monkeypatch.setattr(oracle, "_tridiagonal", recorded)
        audit_channel(params, 2, 1, [0, 1, 2])
        assert [grid for grid, _ in built] == [fine, coarse] * 2  # approx, then exact
        interior = fine.points()[1:-1]
        for grid, r in built:
            expected = interior if grid == fine else interior[1::2]
            assert r.tobytes() == expected.tobytes()
        np.testing.assert_allclose(built[1][1], coarse.points()[1:-1], rtol=1e-14, atol=0.0)

    def test_refined_levels_extrapolate_the_two_one_grid_solves(self):
        # E_n = (16 R_fine - R_coarse) / 15 from one-grid solves on each grid, up to
        # the last bits by which the coarse grid's own nodes differ from the shared ones
        params = table_params(0.05, 1.5)
        result = solve_radial(params, 4, 1, k=3)
        fine, coarse = _grid_pair(default_grid(params, 4, 1, k=3))
        r_fine = np.array(solve_radial(params, 4, 1, grid=fine, k=3).refined)
        r_coarse = np.array(solve_radial(params, 4, 1, grid=coarse, k=3).refined)
        np.testing.assert_allclose(result.refined, (16.0 * r_fine - r_coarse) / 15.0,
                                   rtol=1e-12, atol=0.0)
        assert result.eigenvalues == solve_radial(params, 4, 1, grid=fine, k=3).eigenvalues

    def test_explicit_grids_keep_the_one_grid_outcomes(self):
        # reprs recorded before default solves became two-grid: explicit grids
        # are solved as before, bit for bit
        path = Path(__file__).parent / "data" / "explicit_grid_outcomes.json"
        cases = json.loads(path.read_text(encoding="utf-8"))["cases"]
        assert len(cases) == 27
        for case in cases:
            params = PotentialParams(A=case["A"], alpha=case["alpha"], b=case["b"])
            grid = LogRadialGrid(r_min=case["r_min"], r_max=case["r_max"],
                                 n_points=case["n_points"])
            D, l, k = case["D"], case["l"], case["k"]
            outcomes = {
                "solve_approx": lambda: solve_radial(params, D, l, CentrifugalMode.APPROXIMATED,
                                                     grid, k),
                "solve_exact": lambda: solve_radial(params, D, l, CentrifugalMode.EXACT, grid, k),
                "audit": lambda: audit_channel(params, D, l, case["ns"], grid=grid),
            }
            for key, call in outcomes.items():
                try:
                    got = repr(call())
                except (ConvergenceError, DomainError) as exc:
                    got = f"{type(exc).__name__}: {exc}"
                assert got == case[key], (key, case)

    def test_estimate_bounds_the_error_on_every_table_level(self):
        # e_n reads the fine grid's own error, which the extrapolation cuts by 66x or more
        checked = 0
        for (inv_b, alpha, D, l), n_top in table_channels().items():
            params = table_params(inv_b, alpha)
            result, estimates = two_grid_estimates(params, D, l, n_top + 1)
            for n, estimate in enumerate(estimates):
                e = energy(params, QuantumState(n=n, l=l, D=D)).energy
                assert abs(result.refined[n] - e) / abs(e) <= estimate, (inv_b, alpha, D, l, n)
                assert estimate <= _MAX_TWO_GRID_ERROR
                checked += 1
        assert checked == 168

    @pytest.mark.parametrize("params, D, l", NEAR_THRESHOLD, ids=["eps-0.0074", "eps-0.025"])
    def test_near_threshold_level_warns(self, params, D, l):
        result, estimates = two_grid_estimates(params, D, l, 3)
        assert len(result.refined) == 3
        assert estimates[2] > 100.0 * _MAX_TWO_GRID_ERROR
        [warning] = result.warnings
        assert warning.startswith(f"two-grid error estimate {estimates[2]:.1e} relative "
                                  f"(want <= {_MAX_TWO_GRID_ERROR:g})")

    def test_a_level_the_coarse_grid_lacks_keeps_its_one_grid_value(self, monkeypatch, caplog):
        # the coarse grid made to hold level 0 alone: levels 1 and 2 keep R_n
        params = table_params()
        plain = solve_radial(params, 2, 1, k=3)
        fine, coarse = _grid_pair(default_grid(params, 2, 1, k=3))
        one_grid = solve_radial(params, 2, 1, grid=fine, k=3)
        coarse_bound_levels(monkeypatch, coarse,
                            lambda values, vectors, path: (values[:1], vectors[:, :1], path))
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            result = solve_radial(params, 2, 1, k=3)
        assert result.refined == plain.refined[:1] + one_grid.refined[1:]
        assert result.eigenvalues == plain.eigenvalues
        assert result.warnings == ("the coarse grid holds 1 of 3 levels: levels n >= 1 keep "
                                   "their one-grid refined value",)
        [message] = oracle_messages(caplog)
        assert f"; coarse {coarse.n_points} points, 1 of 3 levels seeded from fine in " in message

    def test_a_failed_coarse_solve_keeps_every_one_grid_value(self, monkeypatch, caplog):
        params = table_params()
        fine, coarse = _grid_pair(default_grid(params, 2, 1, k=3))
        one_grid = solve_radial(params, 2, 1, grid=fine, k=3)

        def failed(values, vectors, path):
            raise ConvergenceError("level 0 has 1 nodes")

        coarse_bound_levels(monkeypatch, coarse, failed)
        with caplog.at_level(logging.DEBUG, logger="manning_rosen.oracle"):
            result = solve_radial(params, 2, 1, k=3)
        assert result.refined == one_grid.refined
        assert result.warnings == ("the coarse grid holds 0 of 3 levels: levels n >= 0 keep "
                                   "their one-grid refined value",)
        [message] = oracle_messages(caplog)
        assert (f"; coarse {coarse.n_points} points, 0 of 3 levels none (level 0 has 1 nodes); "
                "shared assembly ") in message


def run_fresh(script: str) -> str:
    """Stdout of ``script`` run in a new interpreter that imports this package."""
    source = str(Path(oracle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# solves(): reprs of the table's 2p D = 2 channel solved in both modes, k = 3
TABLE_2P_SOLVES = """
from manning_rosen import CentrifugalMode, PotentialParams, solve_radial
def solves():
    params = PotentialParams(A=80.0, alpha=0.75, b=40.0)
    return [repr(solve_radial(params, 2, 1, mode, k=3)) for mode in CentrifugalMode]
"""


def table_2p_solves() -> list[str]:
    """``solves()`` of ``TABLE_2P_SOLVES`` in this process."""
    namespace = {}
    exec(TABLE_2P_SOLVES, namespace)
    return namespace["solves"]()


class TestLapackLoading:
    def test_the_oracle_leaves_scipy_linalg_unloaded(self):
        script = TABLE_2P_SOLVES + "import sys\nsolves()\nprint('scipy.linalg' in sys.modules)\n"
        assert run_fresh(script) == "False\n"

    def test_a_later_scipy_linalg_import_changes_no_result(self):
        script = TABLE_2P_SOLVES + (
            "first = solves()\n"
            "import scipy.linalg\nfrom manning_rosen import oracle\n"
            "print(scipy.linalg.lapack.dgtsv is oracle.dgtsv, "
            "scipy.linalg.lapack.dstebz is oracle.dstebz, solves() == first)\n"
            "print(*first, sep='\\n')\n")
        assert run_fresh(script).splitlines() == ["True True True", *table_2p_solves()]

    def test_fallback_without_a_flapack_file_gives_the_same_results(self):
        # the oracle's lookup of scipy/linalg/_flapack finds nothing, so it takes
        # the routines from scipy.linalg.lapack, whose own import finds the file
        script = (
            "import importlib.machinery, sys\n"
            "finder = importlib.machinery.PathFinder\n"
            "find_spec, missed = finder.find_spec, []\n"
            "def first_misses(name, path=None, target=None):\n"
            "    if name == 'scipy.linalg._flapack' and not missed:\n"
            "        missed.append(name)\n"
            "        return None\n"
            "    return find_spec(name, path, target)\n"
            "finder.find_spec = first_misses\n"
            "from manning_rosen import oracle\n"
            "print(missed, 'scipy.linalg' in sys.modules)\n"
            + TABLE_2P_SOLVES + "print(*solves(), sep='\\n')\n")
        assert run_fresh(script).splitlines() == ["['scipy.linalg._flapack'] True",
                                                  *table_2p_solves()]
