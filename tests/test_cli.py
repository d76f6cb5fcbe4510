"""Command-line behavior: reports, sweeps, config handling, exit codes."""

from __future__ import annotations

import json
import math

import pytest

from ybias.cli import main, parse_eta
from ybias.noise import hashing_bound
from ybias.sim import CSV_COLUMNS


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def data_rows(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestCodeInfo:
    def test_standard_coprime_report(self, capsys):
        rc, out, _ = run_cli(capsys, "code-info", "--layout", "standard", "-j", "4", "-k", "5")
        assert rc == 0
        assert out == (
            "code: standard-4x5\n"
            "qubits: 32\n"
            "checks: 16 X-type + 15 Z-type\n"
            "d_X: 4\n"
            "d_Y: 20\n"
            "d_Z: 5\n"
            "c_X: 2^16\n"
            "c_Y: 1\n"
            "c_Z: 2^15\n"
            "blocks: REP(20)x1\n"
            "forced-zero boundary qubits: 12\n"
            "top-level cycle code: complete graph on 2 vertices\n"
        )

    def test_standard_square_report(self, capsys):
        rc, out, _ = run_cli(capsys, "code-info", "--layout", "standard", "-j", "4", "-k", "4")
        assert rc == 0
        assert "d_Y: 7\n" in out
        assert "c_Y: 8\n" in out
        assert "blocks: REP(1)x1, REP(2)x6, REP(4)x3\n" in out
        assert "forced-zero boundary qubits: 0\n" in out
        assert "complete graph on 5 vertices\n" in out

    def test_rotated_report_has_no_block_section(self, capsys):
        rc, out, _ = run_cli(capsys, "code-info", "--layout", "rotated", "-j", "5", "-k", "5")
        assert rc == 0
        assert "code: rotated-5x5\n" in out
        assert "d_Y: 25\n" in out
        assert "c_Y: 1\n" in out
        assert "blocks" not in out and "cycle code" not in out

    def test_missing_option_exits_one(self, capsys):
        rc, out, err = run_cli(capsys, "code-info", "--layout", "standard", "-j", "4")
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "-k" in err

    def test_invalid_dimensions_exit_one(self, capsys):
        rc, _, err = run_cli(capsys, "code-info", "--layout", "rotated", "-j", "4", "-k", "4")
        assert rc == 1 and err.startswith("error:")


class TestParseEta:
    def test_accepts_inf_spellings_and_numbers(self):
        assert parse_eta("inf") == math.inf
        assert parse_eta("Infinity") == math.inf
        assert parse_eta("2.5") == 2.5
        assert parse_eta(3) == 3.0

    @pytest.mark.parametrize("bad", ["0", "-1", "soup"])
    def test_rejects_nonpositive_and_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_eta(bad)


class TestRun:
    ARGS = (
        "run", "--layout", "rotated", "-j", "3", "-k", "3", "--eta", "inf",
        "--decoder", "exact-y", "--p", "0.2", "--p", "0.3", "--trials", "50", "--seed", "9",
    )

    def test_sweep_is_byte_identical_across_invocations(self, capsys, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *self.ARGS, "--out", str(first))[0] == 0
        assert run_cli(capsys, *self.ARGS, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()
        rc, out, _ = run_cli(capsys, *self.ARGS)
        assert rc == 0
        assert out == first.read_text(encoding="utf-8")

    def test_csv_rows_carry_the_sweep(self, capsys):
        rc, out, _ = run_cli(capsys, *self.ARGS)
        assert rc == 0
        rows = data_rows(out)
        assert [row["p"] for row in rows] == ["0.2", "0.3"]
        for row in rows:
            assert row["layout"] == "rotated" and row["decoder"] == "exact-y"
            assert row["eta"] == "inf" and row["trials"] == "50" and row["seed"] == "9"
            assert row["chi"] == ""
            assert 0.0 <= float(row["rate"]) <= 1.0
            assert int(row["failures"]) <= 50
        assert "# command = run" in out
        assert out.splitlines()[-3] == ",".join(CSV_COLUMNS)

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["metadata"]["command"] == "run"
        assert payload["metadata"]["eta"] == "inf"
        assert len(payload["rows"]) == 2
        assert isinstance(payload["rows"][0]["rate"], float)

    def test_empty_sweep_writes_header_only(self, capsys):
        rc, out, _ = run_cli(
            capsys, "run", "--layout", "rotated", "-j", "3", "-k", "3",
            "--eta", "inf", "--decoder", "exact-y",
        )
        assert rc == 0
        assert data_rows(out) == []
        assert "# trials = \n" in out

    def test_missing_trials_with_sweep_exits_one(self, capsys):
        rc, _, err = run_cli(
            capsys, "run", "--layout", "rotated", "-j", "3", "-k", "3",
            "--eta", "inf", "--decoder", "exact-y", "--p", "0.2",
        )
        assert rc == 1 and "--trials" in err

    @pytest.mark.parametrize(
        "layout, j, k, decoder",
        [("rotated", "3", "3", "exact-y"), ("standard", "3", "4", "concatenated-y")],
        ids=["exact-y", "concatenated-y"],
    )
    def test_pure_y_decoder_rejects_finite_bias(self, capsys, layout, j, k, decoder):
        rc, _, err = run_cli(
            capsys, "run", "--layout", layout, "-j", j, "-k", k,
            "--eta", "10", "--decoder", decoder, "--p", "0.2", "--trials", "10",
        )
        assert rc == 1 and err.startswith("error:")

    def test_config_file_supplies_options_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "layout": "rotated", "j": 3, "k": 3, "eta": "inf",
                    "decoder": "exact-y", "p": [0.3], "trials": 20, "seed": 4,
                }
            ),
            encoding="utf-8",
        )
        rc, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert rc == 0
        assert data_rows(out)[0]["j"] == "3"
        rc, out, _ = run_cli(capsys, "run", "--config", str(cfg), "-j", "5", "-k", "5")
        assert rc == 0
        assert data_rows(out)[0]["j"] == "5"

    def test_malformed_config_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        rc, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert rc == 1 and "JSON object" in err
        cfg.write_text("{not json", encoding="utf-8")
        rc, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert rc == 1 and "not valid JSON" in err

    @pytest.mark.parametrize(
        "config,option",
        [
            ({"j": "x"}, "-j"),
            ({"trials": "many"}, "--trials"),
            ({"p": 0.1}, "--p"),
            ({"trials": 2.9}, "--trials must be an integer, got 2.9"),
            ({"trials": True}, "--trials must be an integer, got True"),
            ({"p": [True]}, "--p must be a number, got True"),
            ({"eta": True}, "--eta must be a number, got True"),
        ],
        ids=[
            "j-not-integer",
            "trials-not-integer",
            "p-not-list",
            "trials-not-integral",
            "trials-boolean",
            "p-boolean",
            "eta-boolean",
        ],
    )
    def test_malformed_config_value_exits_one(self, capsys, tmp_path, config, option):
        base = {"layout": "rotated", "j": 3, "k": 3, "eta": "inf", "decoder": "exact-y",
                "p": [0.2], "trials": 50}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**base, **config}), encoding="utf-8")
        rc, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert rc == 1 and err.startswith("error:") and option in err

    def test_concatenated_y_rejects_rotated_layout_by_name(self, capsys):
        rc, _, err = run_cli(
            capsys, "run", "--layout", "rotated", "-j", "3", "-k", "3",
            "--eta", "inf", "--decoder", "concatenated-y", "--p", "0.1", "--trials", "5",
        )
        assert rc == 1 and err.startswith("error:")
        assert "concatenated-y requires the standard layout" in err

    def test_workers_env_default_matches_serial_run(self, capsys, monkeypatch):
        rc, serial, _ = run_cli(capsys, *self.ARGS)
        assert rc == 0
        monkeypatch.setenv("YBIAS_WORKERS", "2")
        rc, parallel, _ = run_cli(capsys, *self.ARGS)
        assert rc == 0
        assert parallel == serial

    def test_invalid_workers_exit_one(self, capsys):
        rc, _, err = run_cli(capsys, *self.ARGS, "--workers", "0")
        assert rc == 1 and "--workers" in err

    @pytest.mark.parametrize("value", ["abc", "-5", "0"])
    def test_invalid_workers_env_exits_one(self, capsys, monkeypatch, value):
        monkeypatch.setenv("YBIAS_WORKERS", value)
        rc, _, err = run_cli(capsys, *self.ARGS)
        assert rc == 1 and err.startswith("error:") and "YBIAS_WORKERS" in err


class TestHashingBound:
    def test_tabulates_requested_biases(self, capsys):
        rc, out, _ = run_cli(capsys, "hashing-bound", "--eta", "0.5", "--eta", "inf")
        assert rc == 0
        rows = data_rows(out)
        assert [row["eta"] for row in rows] == ["0.5", "inf"]
        assert float(rows[0]["p_c"]) == pytest.approx(hashing_bound(0.5), abs=1e-12)
        assert rows[1]["p_c"] == "0.5"

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "bounds.csv"
        rc, out, _ = run_cli(capsys, "hashing-bound", "--eta", "10", "--out", str(target))
        assert rc == 0 and out == ""
        assert target.read_text(encoding="utf-8").endswith("\n")
        assert data_rows(target.read_text(encoding="utf-8"))[0]["eta"] == "10.0"


class TestThreshold:
    def test_fit_failure_exits_two_and_reports_in_json(self, capsys, tmp_path):
        target = tmp_path / "fit.json"
        rc, _, err = run_cli(
            capsys, "threshold", "--eta", "inf", "--decoder", "exact-y",
            "-d", "3", "-d", "5", "-d", "7",
            "--p", "0.1", "--p", "0.12", "--p", "0.14",
            "--trials", "30", "--seed", "2", "--pc-init", "0.5", "--out", str(target),
        )
        assert rc == 2
        assert "threshold fit failed" in err
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert "bracket" in payload["fit_error"]
        assert "fit" not in payload
        assert len(payload["rows"]) == 9
        assert payload["metadata"]["command"] == "threshold"

    def test_too_few_distances_exit_one(self, capsys):
        rc, _, err = run_cli(
            capsys, "threshold", "--eta", "inf", "--decoder", "exact-y",
            "-d", "3", "-d", "5", "--p", "0.1", "--p", "0.12", "--p", "0.14",
            "--trials", "10",
        )
        assert rc == 1 and "distances" in err


class TestConvergence:
    def test_study_reports_reference_row(self, capsys):
        rc, out, _ = run_cli(
            capsys, "convergence", "-j", "3", "-k", "3", "--eta", "0.5", "--p", "0.15",
            "--chis", "2", "--chis", "4", "--trials", "40", "--seed", "3",
        )
        assert rc == 0
        rows = data_rows(out)
        assert [row["chi"] for row in rows] == ["2", "4"]
        assert rows[1]["shifted"] == "0.0" and rows[1]["converged"] == "1"
        assert "# reference_chi = 4" in out

    def test_standard_layout_rejected(self, capsys):
        rc, _, err = run_cli(
            capsys, "convergence", "--layout", "standard", "-j", "3", "-k", "3",
            "--eta", "0.5", "--p", "0.15", "--chis", "2", "--chis", "4", "--trials", "10",
        )
        assert rc == 1 and "rotated" in err


class TestUsageErrors:
    def test_unknown_command_exits_one(self, capsys):
        rc, _, err = run_cli(capsys, "does-not-exist")
        assert rc == 1 and err.startswith("error:")

    def test_unknown_decoder_exits_one(self, capsys):
        rc, _, err = run_cli(
            capsys, "run", "--layout", "rotated", "-j", "3", "-k", "3",
            "--eta", "inf", "--decoder", "magic", "--p", "0.1", "--trials", "5",
        )
        assert rc == 1 and err.startswith("error:")

    def test_missing_config_file_exits_one(self, capsys):
        rc, _, err = run_cli(capsys, "run", "--config", "/nonexistent/path.json")
        assert rc == 1 and err.startswith("error:")
