"""CLI contract: published values, exit codes, determinism, file formats."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import manning_rosen
from manning_rosen import (PotentialParams, QuantumState, critical_coupling,
                           normalization_quadrature, parse_spectroscopic, radial_wavefunction)
from manning_rosen import cli, reference
from manning_rosen.cli import _subparsers, build_parser, main
from manning_rosen.reference import audit_reference_table

PHYSICS_2P = ["--A", "80", "--b", "40", "--alpha", "0.75", "--dim", "2"]
TABLE_2P = ["spectrum", "--inv-b", "0.025", "--A-over-b", "2", "--alpha", "0.75",
            "--dim", "2", "--states", "2p"]


class TestSpectrumCommand:
    def test_published_2p_energy(self, capsys):
        assert main(TABLE_2P) == 0
        out = capsys.readouterr().out
        assert "-0.241087728" in out
        assert "bound" in out

    def test_published_d4_energy(self, capsys):
        rc = main(["spectrum", "--inv-b", "0.1", "--A-over-b", "2", "--alpha", "1.5",
                   "--dim", "4", "--states", "3p"])
        assert rc == 0
        assert "-0.004801908" in capsys.readouterr().out

    def test_quantum_number_ranges(self, capsys):
        rc = main(["spectrum", "--b", "40", "--A", "80", "--alpha", "0.75",
                   "--dim", "2", "--n", "0:1", "--l", "1:2"])
        assert rc == 0
        out = capsys.readouterr().out
        for label in ("2p", "3p", "3d", "4d"):
            assert label in out

    def test_malformed_label_exits_2(self, capsys):
        rc = main(["spectrum", "--inv-b", "0.025", "--A-over-b", "2", "--alpha",
                   "0.75", "--dim", "2", "--states", "1x"])
        assert rc == 2

    def test_missing_screening_exits_2(self):
        assert main(["spectrum", "--A", "80", "--alpha", "0.75", "--dim", "2",
                     "--states", "2p"]) == 2

    @pytest.mark.parametrize("config, flags, phrase", [
        (None, ["--b", "40", "--alpha", "0.75", "--dim", "2"],
         "one of the arguments --A --A-over-b is required"),
        (None, ["--A", "80", "--alpha", "0.75", "--dim", "2"],
         "one of the arguments --b --inv-b is required"),
        (None, ["--A", "80", "--b", "40", "--inv-b", "0.025", "--alpha", "0.75", "--dim", "2"],
         "argument --inv-b: not allowed with argument --b"),
        ("inv-b=0.025\n", ["--A", "80", "--b", "40", "--alpha", "0.75", "--dim", "2"],
         "argument --b: not allowed with argument --inv-b"),
        (None, ["--A", "80", "--b", "40", "--dim", "2"],
         "the following arguments are required: --alpha"),
        (None, ["--A", "80", "--b", "40", "--alpha", "0.75"],
         "the following arguments are required: --dim"),
    ], ids=["no-coupling", "no-screening", "b-and-inv-b", "config-inv-b-and-typed-b",
            "no-alpha", "no-dim"])
    def test_physics_flag_usage_error_is_worded_by_argparse(self, config, flags, phrase,
                                                            tmp_path, capsys):
        argv = ["spectrum", *flags, "--states", "2p"]
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv += ["--config", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"manning-rosen spectrum: error: {phrase}" in captured.err

    def test_unknown_flag_exits_2(self):
        assert main(["spectrum", "--nonsense", "1"]) == 2

    def test_unbound_states_listed(self, capsys):
        rc = main(["spectrum", "--b", "1", "--A", "1", "--alpha", "0", "--dim", "3",
                   "--states", "5s"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unbound" in out
        assert "no bound states" in out

    def test_json_output_round_trips(self, capsys):
        assert main(TABLE_2P + ["--format", "json"]) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == text
        assert payload[0]["label"] == "2p"
        assert payload[0]["energy"] == pytest.approx(-0.241087728, abs=5e-9)

    def test_csv_output_structure(self, capsys):
        assert main(TABLE_2P + ["--format", "csv"]) == 0
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert lines[0] == "label,n,l,D,energy,epsilon,eta,status"
        assert "\r" not in text

    def test_deterministic_output(self, capsys):
        main(TABLE_2P + ["--format", "json"])
        first = capsys.readouterr().out
        main(TABLE_2P + ["--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("inv-b=0.025\nA-over-b=2\nalpha=0.75\ndim=2\n")
        rc = main(["spectrum", "--config", str(config), "--states", "2p"])
        assert rc == 0
        assert "-0.241087728" in capsys.readouterr().out

    def test_undefined_state_listed(self, capsys):
        # 1s in D=2 has q = 0 and |1 - 2 alpha| < 1: no real shape parameter
        rc = main(["spectrum", "--inv-b", "0.025", "--A-over-b", "2", "--alpha", "0.75",
                   "--dim", "2", "--states", "1s,2p"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["1s", "0", "0", "2", "-", "-", "-", "undefined"]
        assert lines[2].split()[4] == "-0.241087728"
        assert main(["spectrum", "--inv-b", "0.025", "--A-over-b", "2", "--alpha", "0.75",
                     "--dim", "2", "--states", "1s", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)[0]
        assert record["status"] == "undefined"
        assert record["energy"] is record["epsilon"] is record["eta"] is None

    def test_config_format_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("format=json\n")
        assert main(TABLE_2P + ["--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)[0]["label"] == "2p"
        config.write_text("format=xml\n")
        assert main(TABLE_2P + ["--config", str(config)]) == 2
        assert "format" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("alpha=0.75\nscreening=40\n")
        assert main(TABLE_2P + ["--config", str(config)]) == 2
        assert "'screening'" in capsys.readouterr().err

    def test_config_sets_any_flag(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("samples=5\nstates=2p\n")
        argv = ["wavefunction", "--inv-b", "0.025", "--A-over-b", "2", "--alpha", "0.75",
                "--dim", "2", "--config", str(config)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "r,z,g,g_squared"
        assert len(lines) == 1 + 5 + 2
        config.write_text("samples=x\nstates=2p\n")
        assert main(argv) == 2
        assert "--samples: invalid int value: 'x'" in capsys.readouterr().err
        # argparse checks choices on the command line only
        config.write_text("mode=bogus\n")
        assert main(["oracle", "--b", "40", "--A", "80", "--alpha", "0", "--dim", "3",
                     "--states", "1s", "--config", str(config)]) == 2
        assert "bad config value for mode: 'bogus'" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("inv-b=0.025\nA-over-b=2\nalpha=0.0\ndim=2\n")
        rc = main(["spectrum", "--config", str(config), "--alpha", "0.75",
                   "--states", "2p"])
        assert rc == 0
        assert "-0.241087728" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, phrase", [
        (["spectrum", "--A-over-b", "2", "--inv-b", "0", "--alpha", "0.75", "--dim", "2",
          "--states", "2p"], "--inv-b must be positive"),
        (["spectrum", *PHYSICS_2P, "--n", "3:1", "--l", "1"], "bad --n range '3:1'"),
        (["spectrum", *PHYSICS_2P, "--n", "x", "--l", "1"], "bad --n range 'x'"),
        (["spectrum", *PHYSICS_2P], "give --states, or both --n and --l"),
        (["spectrum", *PHYSICS_2P, "--states", ","], "no states requested"),
        (["wavefunction", *PHYSICS_2P, "--states", "2p,3p"], "wants exactly one state"),
        (["spectrum", *PHYSICS_2P, "--states", "2p", "--precision", "0"], "1..17"),
        (["spectrum", *PHYSICS_2P, "--states", "2p", "--precision", "18"], "1..17"),
    ], ids=["inv-b-0", "n-range-reversed", "n-range-not-a-number", "no-states",
            "empty-state-list", "two-wavefunction-states", "precision-0", "precision-18"])
    def test_request_error_exits_2_with_one_error_line(self, argv, phrase, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and phrase in line

    @pytest.mark.parametrize("text, phrase", [("alpha 0.75\n", "bad config line (want key=value)"),
                                              (None, "cannot read config file")],
                             ids=["line-without-equals", "missing-file"])
    def test_config_error_exits_2_with_one_error_line(self, text, phrase, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        if text is not None:
            config.write_text(text)
        assert main(["spectrum", *PHYSICS_2P, "--states", "2p", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and phrase in line

    def test_subnormal_energy_exits_2_with_one_error_line(self, capsys):
        # eps = 0.001 at b = 1e153: E = -5e-313 is subnormal
        assert main(["spectrum", "--A", "1.002", "--b", "1e153", "--alpha", "0", "--dim", "3",
                     "--states", "1s", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "is subnormal" in line

    def test_config_skips_comments_blank_lines_and_other_commands_keys(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("# the 2p row of the table\n\nsamples=5\nalpha=0.75\n")
        typed = ["spectrum", "--A", "80", "--b", "40", "--dim", "2", "--states", "2p"]
        assert main(typed + ["--config", str(config)]) == 0
        from_config = capsys.readouterr().out
        assert main(typed + ["--alpha", "0.75"]) == 0
        assert from_config == capsys.readouterr().out


class TestTableCommand:
    def test_audit_flags_known_misprints(self):
        audit = audit_reference_table()
        suspects = {(item.cell.label, item.cell.D, item.cell.alpha_label)
                    for item in audit if item.suspect}
        assert ("6d", 2, "0.75") in suspects
        # the 5p D=4 row contradicts the table's own degeneracy structure
        assert {("5p", 4, "0.75"), ("5p", 4, "0,1"), ("5p", 4, "1.5")} <= suspects
        assert len(suspects) == 4
        for item in audit:
            if not item.suspect:
                assert item.deviation <= 5e-9

    def test_each_degenerate_closed_form_is_evaluated_once(self, monkeypatch):
        # energy depends on (l, D) only through q = D + 2l - 2: one call per distinct
        # (1/b, alpha column, n, q), the same 123 on every call of the audit
        calls, energy = [], reference.energy

        def counted(params, state):
            calls.append(state)
            return energy(params, state)

        monkeypatch.setattr(reference, "energy", counted)
        audit = audit_reference_table()
        assert len(audit) == 168 and len(calls) == 123
        assert audit_reference_table() == audit and len(calls) == 246
        shared = {}
        for item in audit:
            n, l = parse_spectroscopic(item.cell.label)
            key = (item.cell.inv_b, item.cell.alpha_label, n, item.cell.D + 2 * l - 2)
            shared.setdefault(key, []).append(item)
        assert len(shared) == 123
        for items in shared.values():
            assert len({item.computed_energy.hex() for item in items}) == 1  # bit-equal
        # each misprinted cell shares its closed form with exactly one partner:
        # 6d D=2 (alpha 0.75) with 5p D=4, and each 5p D=4 with its column's 6d D=2
        pairs = [sorted((item.cell.label, item.cell.D) for item in items)
                 for items in shared.values() if any(item.suspect for item in items)]
        assert pairs == [[("5p", 4), ("6d", 2)]] * 3

    def test_text_report(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        assert "suspected erratum cells: 4" in out
        assert "SUSPECT" in out
        # the recomputed value for the flagged 6d cell
        assert "-0.006591028" in out

    def test_json_round_trips(self, capsys):
        assert main(["table", "--format", "json"]) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == text
        cell = payload["2p,0.025,0.75,2"]
        assert cell["reference"] == pytest.approx(-0.241087728)
        assert not cell["suspect"]
        assert payload["6d,0.025,0.75,2"]["suspect"]


class TestWavefunctionCommand:
    def test_ground_state_file(self, tmp_path, capsys):
        out_file = tmp_path / "wf.csv"
        rc = main(["wavefunction", "--inv-b", "0.025", "--A-over-b", "2",
                   "--alpha", "0.75", "--dim", "2", "--states", "2p",
                   "--samples", "1000", "--out", str(out_file)])
        assert rc == 0
        text = out_file.read_text()
        lines = text.splitlines()
        assert lines[0] == "r,z,g,g_squared"
        assert len([ln for ln in lines if not ln.startswith("#")]) == 1001
        footer = {ln.split("=")[0]: ln.split("=")[1] for ln in lines if ln.startswith("#")}
        assert abs(float(footer["# norm"]) - 1.0) <= 1e-8
        assert footer["# node_count"] == "0"

    def test_excited_state_node_count(self, tmp_path):
        out_file = tmp_path / "wf.csv"
        rc = main(["wavefunction", "--inv-b", "0.025", "--A-over-b", "2",
                   "--alpha", "0.75", "--dim", "2", "--states", "4d",
                   "--samples", "200", "--out", str(out_file)])
        assert rc == 0
        footer = [ln for ln in out_file.read_text().splitlines() if ln.startswith("#")]
        assert "# node_count=1" in footer

    def test_node_count_at_large_eps(self, capsys):
        # eps = 1.27e7 puts the node of 3p (n = 1) within 1e-6 of x = -1 in the
        # Jacobi factor; at A = 1e10 (eps ~ 1.7e9) the norm quadrature must still
        # reach 1e-10 and agree with the closed form
        for coupling, label, nodes in (("1e8", "3p", 1), ("1e10", "3p", 1), ("1e10", "4p", 2),
                                       ("1e10", "6g", 1), ("1e10", "9s", 8)):
            rc = main(["wavefunction", "--A", coupling, "--b", "40", "--alpha", "0.75",
                       "--dim", "3", "--states", label, "--samples", "3"])
            assert rc == 0, (coupling, label)
            footer = capsys.readouterr().out.splitlines()[-2:]
            assert footer == ["# norm=1.000000000000", f"# node_count={nodes}"], (coupling, label)

    def test_zero_samples_exits_2(self):
        rc = main(["wavefunction", "--inv-b", "0.025", "--A-over-b", "2",
                   "--alpha", "0.75", "--dim", "2", "--states", "2p",
                   "--samples", "0"])
        assert rc == 2

    def test_unbound_exits_3(self, capsys):
        rc = main(["wavefunction", "--b", "1", "--A", "1", "--alpha", "0",
                   "--dim", "3", "--states", "5s", "--samples", "10"])
        assert rc == 3
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("precision", [1, 9, 17])
    @pytest.mark.parametrize("label, dim", [("2p", 2), ("3p", 2), ("6g", 4)])
    def test_dump_matches_csv_writer_byte_for_byte(self, label, dim, precision, fmt, capsys):
        params = PotentialParams(A=80.0, alpha=0.75, b=40.0)
        n, l = parse_spectroscopic(label)
        solution = radial_wavefunction(params, QuantumState(n=n, l=l, D=dim))
        norm_check = (solution.norm_constant / normalization_quadrature(params, solution.entry)) ** 2
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["r", "z", "g", "g_squared"])
        writer.writerows([f"{v:.{precision}f}" for v in row] for row in solution.sample(300))
        expected = (buffer.getvalue() + f"# norm={norm_check:.12f}\n"
                    f"# node_count={solution.node_count}\n")
        rc = main(["wavefunction", "--A", "80", "--b", "40", "--alpha", "0.75",
                   "--dim", str(dim), "--states", label, "--samples", "300",
                   "--precision", str(precision), "--format", fmt])
        assert rc == 0
        assert capsys.readouterr().out == expected
        if label == "6g":  # n = 1 and g ~ -s^5.5 near the origin: -0.000... cells
            assert ",-0." + "0" * precision + "," in expected

    @pytest.mark.parametrize("n, l, dim, alpha", [(0, 0, 3, 0.0), (2, 1, 2, 0.75),
                                                  (3, 2, 4, 1.5)])
    def test_near_threshold_state_exits_0(self, n, l, dim, alpha, capsys):
        # A = A_c (1 + 1e-9): eps ~ 1e-9, the samples run out to r ~ 1e10 b
        a_coupling = critical_coupling(QuantumState(n=n, l=l, D=dim), alpha) * (1.0 + 1e-9)
        rc = main(["wavefunction", "--A", repr(a_coupling), "--b", "1", "--alpha", repr(alpha),
                   "--dim", str(dim), "--n", str(n), "--l", str(l), "--samples", "20"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "nan" not in captured.out
        assert captured.out.splitlines()[-2:] == ["# norm=1.000000000000",
                                                  f"# node_count={n}"]

    def test_json_payload(self, capsys):
        rc = main(["wavefunction", "--inv-b", "0.1", "--A-over-b", "2",
                   "--alpha", "0.75", "--dim", "2", "--states", "2p",
                   "--samples", "50", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["node_count"] == 0
        assert abs(payload["norm"] - 1.0) <= 1e-8
        assert len(payload["samples"]) == 50


class TestOracleCommand:
    def test_approx_mode_matches_closed_form(self, capsys):
        rc = main(["oracle", "--b", "40", "--A", "80", "--alpha", "0", "--dim", "3",
                   "--states", "1s", "--mode", "approx"])
        assert rc == 0
        out = capsys.readouterr().out
        rel = float(out.splitlines()[1].split()[-1])
        assert rel < 1e-6

    def test_both_modes_coincide_for_s_wave(self, capsys):
        rc = main(["oracle", "--b", "1", "--A", "2", "--alpha", "0", "--dim", "3",
                   "--states", "1s", "--mode", "both", "--format", "json"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)[0]
        assert record["exact"] == record["approx"]

    def test_unbound_state_row(self, capsys):
        rc = main(["oracle", "--b", "1", "--A", "1", "--alpha", "0", "--dim", "3",
                   "--states", "5s", "--mode", "approx"])
        assert rc == 0
        assert "unbound" in capsys.readouterr().out

    def test_undefined_state_row(self, capsys):
        rc = main(["oracle", "--inv-b", "0.025", "--A-over-b", "2", "--alpha", "0.75",
                   "--dim", "2", "--states", "1s", "--mode", "approx"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1].split() == [
            "1s", "0", "0", "2", "-", "undefined", "undefined"]

    @pytest.mark.parametrize("alpha, unbound", [("0.75", {"4f"}), ("0", {"4f"}),
                                                ("1.5", {"4d", "4f"})])
    def test_level_unbound_by_the_exact_barrier_reads_unbound(self, alpha, unbound, capsys):
        # the exact barrier shift (q^2-1)/(48 kappa b^2) exceeds |E| of 4f (and of
        # 4d at alpha = 1.5); the approximated barrier binds them on the same grid
        argv = ["oracle", "--inv-b", "0.075", "--A-over-b", "2", "--alpha", alpha,
                "--dim", "4", "--states", "2p,3p,3d,4p,4d,4f", "--mode", "both"]
        assert main([*argv, "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 6
        for record in records:
            assert record["status"] == "ok"
            assert record["rel_err_approx"] <= 1e-8
            if record["label"] in unbound:
                assert record["exact"] is None and record["rel_err_exact"] is None
            else:
                assert record["exact"] > record["approx"]
        assert main(argv) == 0
        for row in capsys.readouterr().out.splitlines()[1:]:
            cells = row.split()
            assert (cells[5] == cells[8] == "unbound") == (cells[0] in unbound)

    def test_exact_mode_alone_keeps_the_missing_level_a_solver_failure(self, capsys):
        # telling physics from a solver failure needs the approximated solve on
        # the same grid, so exact mode alone still exits 4 on 4f
        rc = main(["oracle", "--inv-b", "0.075", "--A-over-b", "2", "--alpha", "0.75",
                   "--dim", "4", "--states", "4f", "--mode", "exact"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "solver failure: oracle found only 0 bound levels in exact mode")
        assert captured.out == ""

    def test_level_lifted_to_threshold_by_the_correction_exits_4(self, capsys):
        # the closed-form 1s level is -7.8e-19; the oracle must not print it as 0
        rc = main(["oracle", "--A", "1.0000001", "--b", "40", "--alpha", "0", "--dim", "3",
                   "--states", "1s", "--mode", "both"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "solver failure: the deferred correction lifts bound level n = 0 to ")
        assert captured.out == ""

    def test_incomplete_grid_override_exits_2(self):
        rc = main(["oracle", "--b", "40", "--A", "80", "--alpha", "0", "--dim", "3",
                   "--states", "1s", "--mode", "approx", "--r-max", "100"])
        assert rc == 2

    def test_explicit_grid_matches_closed_form_to_1e9(self, capsys):
        rc = main(["oracle", "--A", "80", "--b", "40", "--alpha", "0", "--dim", "3",
                   "--states", "2p,3p", "--mode", "approx", "--r-max", "2000",
                   "--n-points", "4001", "--format", "json"])
        assert rc == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["label"] for r in records] == ["2p", "3p"]
        assert all(r["rel_err"] <= 1e-9 for r in records)

    @pytest.mark.parametrize("b", ["1e12", "1e14", "1e20"])
    def test_default_grid_starts_below_the_state_at_large_b(self, b, capsys):
        # at fixed A/b the state's extent b/eps stops growing with b, so r_max < b
        rc = main(["oracle", "--A-over-b", "2", "--b", b, "--alpha", "0.75", "--dim", "3",
                   "--states", "2p,3p", "--mode", "approx", "--format", "json"])
        assert rc == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["label"] for r in records] == ["2p", "3p"]
        assert all(r["rel_err"] <= 1e-9 for r in records)

    @pytest.mark.parametrize("b", ["1e12", "1e14", "1e20"])
    def test_explicit_grid_without_r_min_starts_below_the_state_at_large_b(self, b, capsys):
        # --r-max 50 < b: the grid starts at 1e-12 r_max, as a default grid would
        rc = main(["oracle", "--A-over-b", "2", "--b", b, "--alpha", "0.75", "--dim", "3",
                   "--states", "2p", "--mode", "approx", "--r-max", "50",
                   "--n-points", "4001", "--format", "json"])
        assert rc == 0
        [record] = json.loads(capsys.readouterr().out)
        assert record["label"] == "2p"
        assert record["rel_err"] <= 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", [[], ["--r-max", "2000", "--n-points", "4001"]],
                             ids=["default-grid", "explicit-grid"])
    def test_tiny_mu_matches_closed_form(self, grid, capsys):
        # kappa = 2e-300: E ~ -1e299 is finite and kappa V_eff is a modest float
        rc = main(["oracle", "--A", "80", "--b", "40", "--alpha", "0.75", "--dim", "2",
                   "--states", "2p,3p", "--mode", "both", "--mu", "1e-300",
                   "--format", "json", *grid])
        assert rc == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["label"] for r in records] == ["2p", "3p"]
        assert all(r["rel_err_approx"] <= 1e-9 for r in records)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", [
        ["--r-min", "1e-160", "--r-max", "2000"],
        ["--r-min", "1e-300", "--r-max", "2000"],
        ["--r-max", "1e308"],
        ["--r-max", "inf"],
    ])
    def test_grid_out_of_float_range_exits_2(self, grid, capsys):
        # the log map puts 1/(h r_min)^2 and r_max^2 into the matrix
        rc = main(["oracle", "--A", "80", "--b", "40", "--alpha", "0", "--dim", "3",
                   "--states", "1s", "--mode", "approx", "--n-points", "4001", *grid])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--A", "80", "--b", "40", "--alpha", "0.75", "--states", "2p"],
    ["wavefunction", "--A", "80", "--b", "40", "--alpha", "0.75", "--states", "2p"],
    ["oracle", "--A", "80", "--b", "40", "--alpha", "0.75", "--states", "2p"],
    ["degeneracy", "--A", "80", "--b", "40", "--alpha", "0.75", "--n", "0", "--l", "1",
     "--dmin", "2", "--dmax", "4"],
    ["critical-coupling", "--n", "0", "--l", "1", "--alpha", "0.75"],
], ids=lambda argv: argv[0])
def test_dim_below_2_exits_2(argv, capsys):
    assert main([*argv, "--dim", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "D >= 2" in captured.err


class TestDegeneracyCommand:
    BASE = ["degeneracy", "--inv-b", "0.025", "--A-over-b", "2", "--alpha", "0.75"]

    def test_partner_chain(self, capsys):
        rc = main(self.BASE + ["--dim", "2", "--n", "0", "--l", "4",
                               "--dmin", "2", "--dmax", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        body = [ln for ln in out.splitlines() if ln and not ln.startswith(("label", "shared"))]
        assert len(body) == 4
        assert "shared energy:" in out

    def test_singleton(self, capsys):
        rc = main(["degeneracy", "--inv-b", "0.025", "--A-over-b", "2", "--alpha", "0",
                   "--dim", "2", "--n", "0", "--l", "0", "--dmin", "2", "--dmax", "2"])
        assert rc == 0
        body = [ln for ln in capsys.readouterr().out.splitlines()
                if ln and not ln.startswith(("label", "shared"))]
        assert len(body) == 1

    def test_invalid_range_exits_2(self):
        for dmin, dmax in (("1", "8"), ("6", "3")):
            rc = main(self.BASE + ["--dim", "2", "--n", "0", "--l", "4",
                                   "--dmin", dmin, "--dmax", dmax])
            assert rc == 2, (dmin, dmax)

    def test_no_partner_in_range_still_reports_the_energy(self, capsys):
        # 2p, D = 3 has D + 2l = 5, so no partner has D' = 2; the state is bound all the same
        argv = ["degeneracy", "--A", "80", "--b", "40", "--alpha", "0.75", "--dim", "3",
                "--n", "0", "--l", "1", "--dmin", "2", "--dmax", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "shared energy: -0.120579348"
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"partners": [], "energy": -0.12057934836595724}

    def test_undefined_family_reads_undefined(self, capsys):
        # q = 0 with |1 - 2 alpha| < 1: the closed form has no real eta
        assert main(["degeneracy", "--A", "80", "--b", "40", "--alpha", "0.75", "--dim", "2",
                     "--n", "0", "--l", "0", "--dmin", "2", "--dmax", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["1s", "0", "0", "2", "undefined"]
        assert lines[-1] == "shared energy: undefined for these parameters"

    def test_required_flags_from_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n=0\nl=4\ndmin=2\ndmax=8\n")
        assert main(self.BASE + ["--dim", "2", "--config", str(config)]) == 0
        from_config = capsys.readouterr().out
        assert main(self.BASE + ["--dim", "2", "--n", "0", "--l", "4",
                                 "--dmin", "2", "--dmax", "8"]) == 0
        assert capsys.readouterr().out == from_config
        config.write_text("n=0\nl=4\n")
        assert main(self.BASE + ["--dim", "2", "--config", str(config)]) == 2
        assert "the following arguments are required: --dmin, --dmax" in capsys.readouterr().err


class TestCriticalCouplingCommand:
    def test_hulthen_ground_state(self, capsys):
        rc = main(["critical-coupling", "--n", "0", "--l", "0", "--dim", "3",
                   "--alpha", "0"])
        assert rc == 0
        assert "A_c = 1.000000000" in capsys.readouterr().out

    def test_json(self, capsys):
        rc = main(["critical-coupling", "--n", "2", "--l", "0", "--dim", "3",
                   "--alpha", "0", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["A_c"] == pytest.approx(9.0)

    def test_required_flags_from_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n=0\nl=0\ndim=3\nalpha=0\n")
        assert main(["critical-coupling", "--config", str(config)]) == 0
        assert "A_c = 1.000000000" in capsys.readouterr().out
        # the command line still wins over the file
        assert main(["critical-coupling", "--n", "2", "--config", str(config)]) == 0
        assert "A_c = 9.000000000" in capsys.readouterr().out
        config.write_text("n=0\nl=0\n")
        assert main(["critical-coupling", "--alpha", "0", "--config", str(config)]) == 2
        assert "the following arguments are required: --dim" in capsys.readouterr().err


CONTRACT_CASES = {
    # command argv, and the text-only footer it prints (None: no footer)
    "spectrum": (["spectrum", "--b", "1", "--A", "1", "--alpha", "0", "--dim", "3",
                  "--states", "5s,6s"], "note: no bound states"),
    "table": (["table"], "suspected erratum cells: 4"),
    "wavefunction": (["wavefunction", "--inv-b", "0.025", "--A-over-b", "2", "--alpha",
                      "0.75", "--dim", "2", "--states", "4d", "--samples", "20"], None),
    "oracle": (["oracle", "--b", "40", "--A", "80", "--alpha", "0", "--dim", "3",
                "--states", "1s,9s", "--mode", "approx"], None),
    "degeneracy": (TestDegeneracyCommand.BASE + ["--dim", "2", "--n", "0", "--l", "4",
                                                 "--dmin", "2", "--dmax", "8"],
                   "shared energy:"),
    "critical-coupling": (["critical-coupling", "--n", "0", "--l", "0", "--dim", "3",
                           "--alpha", "0"], None),
}


# argv of each subcommand's JSON payload checked against the stdlib's encoder:
# the contract cases, plus null cells and 1000 samples
JSON_CASES = {
    **{command: argv for command, (argv, _) in CONTRACT_CASES.items()},
    "spectrum-undefined": ["spectrum", "--A", "80", "--b", "40", "--alpha", "0.3", "--dim", "2",
                           "--states", "1s,2p"],
    "oracle-unbound": ["oracle", "--inv-b", "0.075", "--A-over-b", "2", "--alpha", "1.5",
                       "--dim", "4", "--states", "3d,4d,4f", "--mode", "both"],
    "wavefunction-1000": CONTRACT_CASES["wavefunction"][0][:-1] + ["1000"],
}


class TestOutputContract:
    """Every subcommand renders, writes and exits the same way in every format."""

    @pytest.mark.parametrize("case", sorted(JSON_CASES))
    def test_json_matches_the_stdlib_indenting_encoder(self, case):
        args = cli._parse_args(build_parser(), JSON_CASES[case] + ["--format", "json"])
        report = cli._COMMANDS[args.command](args, args.precision)
        expected = json.dumps(report.payload, sort_keys=True, indent=2) + "\n"
        assert cli._render(report, "json") == expected
        if case in ("spectrum-undefined", "oracle-unbound"):
            assert ": null" in expected

    @pytest.mark.parametrize("argv", [["table"], TABLE_2P, CONTRACT_CASES["oracle"][0],
                                      CONTRACT_CASES["degeneracy"][0]],
                             ids=["table", "spectrum", "oracle", "degeneracy"])
    def test_json_formats_no_text_cell(self, argv, monkeypatch, capsys):
        # a JSON request builds its payload alone; the text request formats cells
        def refused(*args):
            raise AssertionError("a text cell was formatted")

        monkeypatch.setattr(cli, "_fmt", refused)
        args = cli._parse_args(build_parser(), argv + ["--format", "json"])
        payload = cli._COMMANDS[args.command](args, args.precision).payload
        assert main(argv + ["--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        with pytest.raises(AssertionError, match="a text cell was formatted"):
            main(argv)

    @pytest.mark.parametrize("payload", [
        None, 0, -0.0, "a\u00e9\n]", [], {}, [[]], [{}], {"a": []}, [[1], [2.5, None]],
        [{"b": 1, "a": "x"}, {"c": float("nan")}], [[1], {"a": 1}], [1, [2, [3, {}]]],
        {"z": {"y": [float("inf"), True, False]}, "a": [["},\n    ["]]}, ("t", ("u",)),
    ])
    def test_json_matches_the_stdlib_on_edge_payloads(self, payload):
        assert cli._json(payload) == json.dumps(payload, sort_keys=True, indent=2)

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("command", sorted(CONTRACT_CASES))
    def test_out_file_matches_stdout(self, command, fmt, tmp_path, capsys):
        argv, footer = CONTRACT_CASES[command]
        argv = argv + ["--format", fmt]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out_file = tmp_path / "report"
        assert main(argv + ["--out", str(out_file)]) == 0
        notice = capsys.readouterr().out
        assert out_file.read_bytes() == stdout.encode()
        if command == "wavefunction":
            assert notice.startswith("4d: wrote 20 samples to ")
        else:
            assert notice == ""
        if footer is not None:
            assert (footer in stdout) == (fmt == "text")
        if command == "critical-coupling" and fmt != "json":
            assert stdout == "A_c = 1.000000000\n"

    def test_wavefunction_text_and_csv_are_identical(self, capsys):
        argv = CONTRACT_CASES["wavefunction"][0]
        assert main(argv + ["--format", "text"]) == 0
        text = capsys.readouterr().out
        assert main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("command", ["spectrum", "critical-coupling", "wavefunction"])
    def test_unwritable_out_exits_2(self, command, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "report"
        assert main(CONTRACT_CASES[command][0] + ["--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert "error: cannot write output file:" in captured.err
        assert captured.out == ""

    def test_bad_config_format_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("output_format=xml\n")
        assert main(["table", "--config", str(config)]) == 2
        assert "output_format" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["approx", "exact", "both"])
    def test_too_coarse_oracle_grid_exits_4(self, mode, capsys):
        # 2s asks for two levels from a grid with one interior point
        for states in ("1s", "2s"):
            rc = main(["oracle", "--b", "40", "--A", "80", "--alpha", "0", "--dim", "3",
                       "--states", states, "--r-max", "2000", "--n-points", "3",
                       "--mode", mode])
            assert rc == 4
            captured = capsys.readouterr()
            assert captured.err.startswith("solver failure: oracle found only 0 bound levels")
            assert captured.out == ""

    def test_norm_at_eps_3e6_exits_0(self, capsys):
        # the norm integral, ~3e-27, is representable, and the closed form's
        # gamma ratios at arguments near 7e6 do not cancel
        rc = main(["wavefunction", "--A", "1e7", "--b", "1", "--alpha", "1.5", "--dim", "3",
                   "--n", "0", "--l", "0", "--samples", "3"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-2] == "# norm=1.000000000000"

    def test_norm_at_subnormal_integral_exits_0(self, capsys):
        # eps ~ 1.25e5, eta = 39: both norms are taken past a subnormal s(n) ~ 4.1e-319
        rc = main(["wavefunction", "--A", "1e7", "--b", "1", "--alpha", "40", "--dim", "3",
                   "--n", "0", "--l", "0", "--samples", "3"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-2] == "# norm=1.000000000000"

    def test_underflowing_closed_form_norm_exits_4(self, capsys):
        # eps ~ 4925, eta = 99.5: s(n) ~ 1e-700 underflows to 0
        rc = main(["wavefunction", "--A", "1e6", "--b", "1", "--alpha", "0", "--dim", "202",
                   "--n", "0", "--l", "0"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("solver failure: normalization formula inconsistent")
        assert captured.out == ""

    def test_closed_form_norm_past_an_overflowing_quotient_exits_4(self, capsys):
        # eps ~ 1e154: a (2n + a + b + 1) overflows and s(n) ~ exp(-1935) underflows
        rc = main(["wavefunction", "--A", "3e154", "--b", "1", "--alpha", "1.5", "--dim", "3",
                   "--states", "2p", "--samples", "3"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("solver failure: normalization formula inconsistent")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_node_count_past_an_overflowing_recurrence_exits_4(self, capsys):
        # a + b ~ 1.3e144: the Jacobi recurrence that counts the 3s nodes overflows
        rc = main(["wavefunction", "--A", "2.1561810272921502e+160",
                   "--b", "6.5107698063601015e+87", "--alpha", "6.388609413309819e+143",
                   "--dim", "2", "--states", "3s", "--samples", "3"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("solver failure: the Jacobi factor P_2^(a, b)")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--A", "nan", "--b", "40", "--alpha", "0.75", "--dim", "2", "--states", "2p"],
        ["spectrum", "--A", "inf", "--b", "40", "--alpha", "0.75", "--dim", "2", "--states", "2p"],
        ["spectrum", "--A", "80", "--b", "40", "--alpha", "nan", "--dim", "2", "--states", "2p"],
        ["spectrum", "--A", "80", "--b", "40", "--alpha", "inf", "--dim", "2", "--states", "2p"],
        ["critical-coupling", "--n", "0", "--l", "0", "--dim", "3", "--alpha", "nan"],
        ["critical-coupling", "--n", "0", "--l", "0", "--dim", "3", "--alpha", "inf"],
        ["critical-coupling", "--n", "0", "--l", "0", "--dim", "3", "--alpha", "1e300"],
        # b^2 underflows to 0, so E = -hbar^2 eps^2 / (2 mu b^2) is not a float
        ["spectrum", "--A", "80", "--b", "1e-300", "--alpha", "0.75", "--dim", "2",
         "--states", "2p"],
        ["wavefunction", "--A", "80", "--b", "1e-300", "--alpha", "0.75", "--dim", "2",
         "--states", "2p", "--samples", "3"],
        ["oracle", "--A", "80", "--b", "1e-300", "--alpha", "0.75", "--dim", "2",
         "--states", "2p"],
    ], ids=["spectrum-A-nan", "spectrum-A-inf", "spectrum-alpha-nan", "spectrum-alpha-inf",
            "critical-coupling-alpha-nan", "critical-coupling-alpha-inf",
            "critical-coupling-alpha-1e300", "spectrum-b-1e-300", "wavefunction-b-1e-300",
            "oracle-b-1e-300"])
    def test_non_finite_input_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "nan" not in captured.out and "inf" not in captured.out


class TestParserReuse:
    """One parser serves every request of a process; no request leaks into the next."""

    DEGENERACY = TestDegeneracyCommand.BASE + ["--dim", "2"]

    def test_config_required_flags_do_not_leak(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n=0\nl=4\ndmin=2\ndmax=8\n")
        assert main(self.DEGENERACY + ["--config", str(config)]) == 0
        capsys.readouterr()
        assert main(self.DEGENERACY) == 2
        assert ("the following arguments are required: --n, --l, --dmin, --dmax"
                in capsys.readouterr().err)

    def test_config_format_does_not_leak(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("format=json\n")
        assert main(["table", "--config", str(config)]) == 0
        json.loads(capsys.readouterr().out)
        assert main(["table"]) == 0
        assert capsys.readouterr().out.startswith("state  ")

    def test_usage_error_leaves_the_parser_intact(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n=0\nl=0\ndim=3\nalpha=0\n")
        assert main(["critical-coupling", "--config", str(config)]) == 0
        # argparse exits in the first parse, while no flag is marked required
        assert main(["critical-coupling", "--config", str(config), "--format", "xml"]) == 2
        capsys.readouterr()
        assert main(["critical-coupling", "--n", "0"]) == 2
        assert ("the following arguments are required: --l, --dim, --alpha"
                in capsys.readouterr().err)


    @staticmethod
    def parser_state():
        return [(name, dict(sub._defaults),
                 [(action.dest, action.default, action.required) for action in sub._actions])
                for name, sub in _subparsers(build_parser()).items()]

    def test_config_without_a_value_is_worded_by_the_subcommand(self, capsys):
        assert main(["spectrum", "--config"]) == 2
        assert ("manning-rosen spectrum: error: argument --config: expected one argument"
                in capsys.readouterr().err)

    def test_abbreviated_config_flag_applies_the_file(self, tmp_path, capsys):
        # argparse abbreviates --config to any prefix from --c on, = form included
        config = tmp_path / "run.cfg"
        config.write_text("inv-b=0.025\nA-over-b=2\nalpha=0.75\ndim=2\n")
        for flag in (["--conf", str(config)], [f"--conf={config}"], ["--c", str(config)]):
            assert main(["spectrum", *flag, "--states", "2p"]) == 0, flag
            assert "-0.241087728" in capsys.readouterr().out, flag

    def test_negative_config_value(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n=0\nl=0\ndim=3\nalpha=-0.5\n")
        assert main(["critical-coupling", "--config", str(config)]) == 0
        from_config = capsys.readouterr().out
        assert main(["critical-coupling", "--n", "0", "--l", "0", "--dim", "3",
                     "--alpha", "-0.5"]) == 0
        assert capsys.readouterr().out == from_config
        assert from_config.startswith("A_c = ")

    def test_main_reads_sys_argv_by_default(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n=0\nl=0\ndim=3\nalpha=0\n")
        monkeypatch.setattr(sys, "argv", ["manning-rosen", "critical-coupling",
                                          "--config", str(config)])
        assert main() == 0
        assert capsys.readouterr().out == "A_c = 1.000000000\n"

    def test_requests_leave_the_parser_as_built(self, tmp_path, capsys):
        built = self.parser_state()
        config = tmp_path / "run.cfg"
        config.write_text("n=0\nl=4\ndmin=2\ndmax=8\nformat=json\n")
        assert main(self.DEGENERACY + ["--config", str(config)]) == 0
        assert self.parser_state() == built
        assert main(self.DEGENERACY + ["--config", str(config), "--precision", "x"]) == 2
        assert self.parser_state() == built
        assert main(self.DEGENERACY + ["--n", "0"]) == 2
        assert self.parser_state() == built


# every closed-form command, then the oracle, in a fresh interpreter
LAZY_ORACLE_SCRIPT = """
import contextlib, io, sys
import manning_rosen
import manning_rosen.cli
from manning_rosen import cli
from manning_rosen.cli import _subparsers, build_parser, main

PARAMS = ["--A", "80", "--b", "40", "--alpha", "0.75", "--dim", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["spectrum", *PARAMS, "--states", "2p"]), main(["table"]),
             main(["wavefunction", *PARAMS, "--states", "2p", "--samples", "3"]),
             main(["degeneracy", *PARAMS[:6], "--dim", "2", "--n", "0", "--l", "1",
                   "--dmin", "2", "--dmax", "6"]),
             main(["critical-coupling", "--n", "0", "--l", "0", "--dim", "3",
                   "--alpha", "0"])]
assert codes == [0] * 5, codes
assert not hasattr(manning_rosen, "sturm_count")
assert "scipy" not in sys.modules, sorted(name for name in sys.modules if "scipy" in name)
assert callable(manning_rosen.audit_channel) and "scipy" in sys.modules
from manning_rosen import solve_radial
assert callable(solve_radial) and callable(manning_rosen.approximation_audit)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["oracle", *PARAMS, "--states", "2p", "--mode", "approx"]) == 0
print("ok")
"""


class TestLazyOracle:
    def test_scipy_stays_out_until_the_oracle_runs(self):
        source = str(Path(manning_rosen.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", LAZY_ORACLE_SCRIPT], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"

    def test_unknown_package_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            manning_rosen.no_such_name  # noqa: B018

    def test_unknown_package_name_leaves_scipy_unloaded(self):
        script = ("import sys, manning_rosen\n"
                  "try:\n    manning_rosen.no_such_name\n"
                  "except AttributeError:\n    print('scipy' in sys.modules)\n")
        source = str(Path(manning_rosen.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
