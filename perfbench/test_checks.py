"""Self-checks of the benchmark's correctness checks: each must reject a wrong answer.

Every test feeds one deliberately wrong value, either straight into a check or
through a workload operation with one package function replaced, and asserts
that the check fails while the right value passes.  No workload is run.
"""

import dataclasses

import pytest

import manning_rosen as mr
import manning_rosen.reference  # noqa: F401 - the table the misprint test reads
import checks as ck
from workloads import Channel, ClosedForm, OracleAudit, StateCase

E = -0.2410877  # a 2p-like energy
B = ck.barrier_bound(q=2, b=40.0)


def test_oracle_energy_off_by_1e5_relative_is_rejected():
    assert ck.oracle_ok(E * (1.0 + 5e-7), E)
    assert not ck.oracle_ok(E * (1.0 + 1e-5), E)
    assert not ck.oracle_ok(E * (1.0 - 1e-5), E)


def test_exact_mode_value_outside_the_bracket_is_rejected():
    assert B > 0.0
    assert ck.bracket_ok(E + 0.5 * B, E, B)
    assert not ck.bracket_ok(E + 2.0 * B, E, B)
    assert not ck.bracket_ok(E - 2e-6 * abs(E), E, B)
    # q < 1 flips the sign of B and so the side of the bracket
    assert ck.bracket_ok(E - 0.5 * B, E, -B)
    assert not ck.bracket_ok(E + 0.5 * B, E, -B)


def test_node_count_of_n_minus_1_is_rejected():
    assert ck.nodes_ok(4, 4)
    assert not ck.nodes_ok(3, 4)


def test_closed_form_norm_1e7_from_quadrature_is_rejected():
    quad = 0.123456789
    assert ck.norms_ok(quad * (1.0 + 1e-9), quad)
    assert not ck.norms_ok(quad * (1.0 + 1e-7), quad)


def test_simpson_rule_integrates_a_known_density():
    import numpy as np

    r = np.geomspace(1e-8, 60.0, 1001)
    density = 4.0 * r * r * np.exp(-2.0 * r)  # hydrogen 1s, integral 1
    assert ck.density_ok(ck.density_integral(r, density))
    assert not ck.density_ok(ck.density_integral(r, 1.001 * density))


# --- the same wrong answers through a workload operation -------------------

CHANNEL = Channel(A=80.0, alpha=0.75, b=40.0, D=2, l=1)
STATE = StateCase(A=80.0, alpha=0.75, b=40.0, n=3, l=1, D=2)


def _audit(monkeypatch, e_exact_shift, approx_factor):
    e_closed = ck.closed_energy(CHANNEL.A, CHANNEL.alpha, CHANNEL.b, 0, 1, 2)
    bound = ck.barrier_bound(2, CHANNEL.b)

    def fake_audit(params, state, grid=None):
        e_approx = e_closed * approx_factor
        e_exact = e_closed + e_exact_shift * bound
        return mr.AuditResult(e_closed=e_closed, e_exact=e_exact, e_approx=e_approx,
                              rel_errors=(0.0, 0.0))

    monkeypatch.setattr(mr, "approximation_audit", fake_audit)
    return OracleAudit(mr, seed=0).run(CHANNEL)


def test_audit_operation_accepts_a_right_answer(monkeypatch):
    assert _audit(monkeypatch, 0.5, 1.0 + 1e-9).ok


def test_audit_operation_rejects_an_oracle_energy_off_by_1e5(monkeypatch):
    outcome = _audit(monkeypatch, 0.5, 1.0 + 1e-5)
    assert not outcome.ok and "approx gap" in outcome.note


def test_audit_operation_rejects_an_exact_value_outside_the_bracket(monkeypatch):
    outcome = _audit(monkeypatch, 2.0, 1.0)
    assert not outcome.ok and "outside" in outcome.note


def test_closed_form_operation_accepts_the_package(monkeypatch):
    assert ClosedForm(mr, seed=0).run(STATE).ok


def test_closed_form_operation_rejects_a_node_count_of_n_minus_1(monkeypatch):
    real = mr.radial_wavefunction

    def wrong(params, state):
        solution = real(params, state)
        return dataclasses.replace(solution, node_count=solution.node_count - 1)

    monkeypatch.setattr(mr, "radial_wavefunction", wrong)
    outcome = ClosedForm(mr, seed=0).run(STATE)
    assert not outcome.ok and "node count" in outcome.note


def test_closed_form_operation_rejects_a_norm_1e7_from_quadrature(monkeypatch):
    real = mr.normalization_quadrature
    monkeypatch.setattr(mr, "normalization_quadrature",
                        lambda params, entry: real(params, entry) * (1.0 + 1e-7))
    outcome = ClosedForm(mr, seed=0).run(STATE)
    assert not outcome.ok and "norm" in outcome.note


@pytest.mark.parametrize("label,D,column", [("6d", 2, "0.75"), ("5p", 4, "0,1")])
def test_misprints_miss_their_printed_value(label, D, column):
    table = {(cell.label, cell.inv_b, cell.D, cell.alpha_label): cell
             for cell in mr.reference.iter_reference_cells()}
    cell = table[(label, 0.025, D, column)]
    n, l = ck.parse_label(label)
    e = ck.closed_energy(80.0, cell.alpha, 40.0, n, l, D)
    assert not ck.table_ok(e, cell.reference_energy)
