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


@pytest.fixture
def decoded(monkeypatch):
    """Every call that reaches a failure-rate estimate; validation errors leave it empty."""
    from ybias import cli, sim

    calls = []
    for module in (cli, sim):
        monkeypatch.setattr(
            module, "estimate_failure_rate", lambda *args, **kwargs: calls.append(args)
        )
    return calls


@pytest.fixture
def built(monkeypatch):
    """Every code build the CLI attempts; each one raises, so none completes."""
    from ybias import cli

    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("a code was built before validation finished")

    for name in ("build_standard_code", "build_rotated_code"):
        monkeypatch.setattr(cli, name, refuse)
    return calls


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
    def test_fit_failure_exits_two_and_reports_in_json(self, capsys, tmp_path, monkeypatch):
        from ybias import cli

        def fail(*args, **kwargs):
            raise RuntimeError("threshold fit did not converge: patched")

        monkeypatch.setattr(cli, "fit_threshold", fail)
        target = tmp_path / "fit.json"
        rc, _, err = run_cli(
            capsys, "threshold", "--eta", "inf", "--decoder", "exact-y",
            "-d", "3", "-d", "5", "-d", "7",
            "--p", "0.1", "--p", "0.12", "--p", "0.14",
            "--trials", "30", "--seed", "2", "--pc-init", "0.12", "--out", str(target),
        )
        assert rc == 2
        assert "threshold fit failed" in err
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert "did not converge" in payload["fit_error"]
        assert "fit" not in payload
        assert len(payload["rows"]) == 9
        assert payload["metadata"]["command"] == "threshold"

    @pytest.mark.parametrize(
        "grid,message",
        [
            (("-d", "3", "-d", "3", "-d", "5", "--p", "0.3", "--p", "0.35", "--p", "0.4"),
             "distinct distances"),
        ],
        ids=["distance"],
    )
    def test_repeated_grid_value_counts_once_and_exits_before_decoding(
        self, capsys, decoded, grid, message
    ):
        rc, out, err = run_cli(
            capsys, "threshold", "--layout", "rotated", "--eta", "inf", "--decoder", "exact-y",
            *grid, "--trials", "200", "--seed", "1",
        )
        assert rc == 1 and out == ""
        assert err.startswith("error:") and message in err
        assert not decoded

    @pytest.mark.parametrize("flags", [("-j", "99"), ("-k", "2")], ids=["j", "k"])
    def test_code_size_flags_are_not_options(self, capsys, decoded, flags):
        # Threshold codes are d x d for each -d, so it reads no -j or -k.
        rc, out, err = run_cli(
            capsys, "threshold", "--eta", "inf", "--decoder", "exact-y",
            "-d", "3", "-d", "5", "-d", "7", "--p", "0.1", "--p", "0.12", "--p", "0.14",
            "--trials", "10", *flags,
        )
        assert rc == 1 and out == ""
        assert err.startswith("error:") and flags[0] in err
        assert not decoded


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

    def test_chi_below_one_exits_one_before_decoding(self, capsys, decoded):
        rc, out, err = run_cli(
            capsys, "convergence", "-j", "3", "-k", "3", "--eta", "0.5", "--p", "0.15",
            "--chis", "2", "--chis", "0", "--trials", "10",
        )
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "--chis" in err
        assert not decoded

    def test_repeated_chi_counts_once_and_exits_before_decoding(self, capsys, decoded):
        rc, out, err = run_cli(
            capsys, "convergence", "-j", "3", "-k", "3", "--eta", "0.5", "--p", "0.15",
            "--chis", "4", "--chis", "4", "--trials", "10",
        )
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "distinct chi" in err
        assert not decoded

    @pytest.mark.parametrize(
        "flags", [("--decoder", "exact-y"), ("--chi", "999")], ids=["decoder", "chi"]
    )
    def test_decoder_flags_are_not_options(self, capsys, decoded, flags):
        # The study always decodes with MPS at each --chis value.
        rc, out, err = run_cli(
            capsys, "convergence", "-j", "3", "-k", "3", "--eta", "0.5", "--p", "0.15",
            "--chis", "2", "--chis", "4", "--trials", "10", *flags,
        )
        assert rc == 1 and out == ""
        assert err.startswith("error:") and flags[0] in err
        assert not decoded


# One valid invocation of each command; the usage-error cases below vary it.
VALID = {
    "code-info": ("--layout", "rotated", "-j", "3", "-k", "3"),
    "hashing-bound": ("--eta", "0.5"),
    "run": ("--layout", "rotated", "-j", "3", "-k", "3", "--eta", "inf",
            "--decoder", "exact-y", "--p", "0.1", "--trials", "10"),
    "threshold": ("--eta", "inf", "--decoder", "exact-y", "-d", "3", "-d", "5", "-d", "7",
                  "--p", "0.1", "--p", "0.12", "--p", "0.14", "--trials", "10"),
    "convergence": ("-j", "3", "-k", "3", "--eta", "0.5", "--p", "0.15",
                    "--chis", "2", "--chis", "4", "--trials", "10"),
}


def _args(command, *extra, drop=()):
    """``command``'s valid flags without those named in ``drop``, then ``extra``."""
    pairs = zip(VALID[command][::2], VALID[command][1::2])
    kept = [item for flag, value in pairs if flag not in drop for item in (flag, value)]
    return (*kept, *extra)


def _case(command, *extra, drop=(), config=None, message, id):
    return pytest.param(command, _args(command, *extra, drop=drop), config, message, id=id)


USAGE_ERRORS = [
    # A value of the wrong type, a boolean, or a non-integral float.
    _case("code-info", "-j", "x", message="-j must be an integer, got 'x'", id="type-code-info"),
    _case("hashing-bound", "--eta", "soup", message="--eta must be a number, got 'soup'",
          id="type-hashing-bound"),
    _case("run", "--chi", "many", message="--chi must be an integer, got 'many'", id="type-run"),
    _case("threshold", "-d", "3.5", message="-d must be an integer, got '3.5'",
          id="type-threshold"),
    _case("convergence", "--p", "high", message="--p must be a number, got 'high'",
          id="type-convergence"),
    _case("code-info", drop="-j", config={"j": True}, message="-j must be an integer, got True",
          id="boolean-code-info"),
    _case("hashing-bound", drop="--eta", config={"eta": [0.5, True]},
          message="--eta must be a number, got True", id="boolean-hashing-bound"),
    _case("run", config={"chi": True}, message="--chi must be an integer, got True",
          id="boolean-run"),
    _case("threshold", config={"nu_init": False}, message="--nu-init must be a number, got False",
          id="boolean-threshold"),
    _case("convergence", drop="--chis", config={"chis": [2, True]},
          message="--chis must be an integer, got True", id="boolean-convergence"),
    _case("code-info", drop="-k", config={"k": 3.5}, message="-k must be an integer, got 3.5",
          id="fraction-code-info"),
    _case("run", config={"workers": 1.5}, message="--workers must be an integer, got 1.5",
          id="fraction-run"),
    _case("threshold", drop="-d", config={"distances": [3, 5, 7.5]},
          message="-d must be an integer, got 7.5", id="fraction-threshold"),
    _case("convergence", config={"seed": 1.5}, message="--seed must be an integer, got 1.5",
          id="fraction-convergence"),
    # A value below its bound.
    _case("hashing-bound", "--eta", "0", message="--eta must be positive or 'inf', got '0'",
          id="bound-hashing-bound"),
    _case("run", "--workers", "0", message="--workers must be >= 1, got 0", id="bound-run"),
    _case("threshold", "--trials", "0", message="--trials must be >= 1, got 0",
          id="bound-threshold"),
    _case("convergence", "--chis", "0", message="--chis must be >= 1, got 0",
          id="bound-convergence"),
    *[
        _case(command, *(("--seed", "-1") if source == "flag" else ()),
              config={"seed": -1} if source == "config" else None,
              message="--seed must be >= 0, got -1", id=f"seed-negative-{source}-{command}")
        for source in ("flag", "config")
        for command in ("convergence", "run", "threshold")
    ],
    # A missing required option.
    _case("code-info", drop="--layout", message="Missing option '--layout'",
          id="missing-code-info"),
    _case("run", drop="--decoder", message="Missing option '--decoder'", id="missing-run"),
    # A large code, so that a late check would be slow to reach.
    pytest.param("run", ("--layout", "standard", "-j", "17", "-k", "17", "--eta", "inf",
                         "--decoder", "concatenated-y", "--p", "0.1"), None, "--trials",
                 id="missing-trials-run"),
    _case("threshold", drop="--eta", message="Missing option '--eta'", id="missing-threshold"),
    _case("convergence", drop="--p", message="Missing option '--p'", id="missing-convergence"),
    # A config key the command does not read, or one that holds null.
    _case("code-info", config={"eta": 1}, message="unknown key(s) 'eta'",
          id="unknown-key-code-info"),
    _case("hashing-bound", config={"p": [0.1]}, message="unknown key(s) 'p'",
          id="unknown-key-hashing-bound"),
    _case("run", config={"seed": 2, "sede": 5}, message="unknown key(s) 'sede'",
          id="unknown-key-misspelt-run"),
    _case("threshold", config={"seed": 2, "j": 5}, message="unknown key(s) 'j'",
          id="unknown-key-j-to-threshold"),
    _case("convergence", config={"seed": 2, "decoder": 5}, message="unknown key(s) 'decoder'",
          id="unknown-key-decoder-to-convergence"),
    _case("threshold", config={"layout": None}, message="key 'layout' is null",
          id="null-threshold"),
    _case("run", config={"seed": None}, message="key 'seed' is null", id="null-run"),
    # A scalar where a list is expected, and a number where a path is expected.
    _case("hashing-bound", drop="--eta", config={"eta": 0.5},
          message="--eta must be a list, got 0.5", id="scalar-hashing-bound"),
    _case("run", drop="--p", config={"p": 0.1}, message="--p must be a list, got 0.1",
          id="scalar-run"),
    _case("threshold", drop="-d", config={"distances": 5}, message="-d must be a list, got 5",
          id="scalar-threshold"),
    _case("convergence", drop="--chis", config={"chis": "2 4"},
          message="--chis must be a list, got '2 4'", id="scalar-convergence"),
    _case("run", config={"out": 1}, message="--out must be a path, got 1", id="path-run"),
    # A value outside its choices.
    _case("run", "--decoder", "magic", message="'--decoder'", id="choice-run"),
    _case("run", config={"format": "xml"}, message="'--format'", id="choice-format-key-run"),
    _case("convergence", "--layout", "standard", message="'--layout': 'standard' is not 'rotated'",
          id="choice-layout-convergence"),
    # A grid that repeats a value, a fit guess outside its bounds or its bracket.
    _case("threshold", "-d", "3", "-d", "3", "-d", "5", drop="-d",
          message="need >= 3 distinct distances, got [3, 3, 5]", id="repeat-threshold"),
    _case("convergence", "--chis", "4", "--chis", "4", drop="--chis",
          message="need >= 2 distinct chi values, got [4, 4]", id="repeat-convergence"),
    _case("threshold", "--p", "0.3", "--p", "0.3", "--p", "0.4", drop="--p",
          message="need >= 3 distinct p-values, got [0.3, 0.3, 0.4]", id="repeat-p-threshold"),
    _case("threshold", "-d", "3", "-d", "5", drop="-d",
          message="need >= 3 distinct distances, got [3, 5]", id="few-distances-threshold"),
    _case("threshold", "--nu-init", "0.1", message="--nu-init must lie within the fit's bounds",
          id="fit-bounds-threshold"),
    *[
        _case("threshold", flag, value,
              message=f"{flag} must lie within the fit's bounds [{low}, {high}], got {value}",
              id=f"fit-bounds-{flag[2:]}-{value}-threshold")
        for flag, low, high, values in (("--nu-init", 0.2, 10.0, ("10.5", "nan")),
                                        ("--pc-init", 1e-06, 0.999999, ("nan", "inf")))
        for value in values
    ],
    _case("threshold", "--pc-init", "0.5", message="--pc-init 0.5 lies outside the --p range",
          id="fit-bracket-threshold"),
]


class TestUsageErrors:
    @pytest.mark.parametrize("command, args, config, message", USAGE_ERRORS)
    def test_exits_one_before_any_build(
        self, capsys, built, tmp_path, command, args, config, message
    ):
        # Every option of every command is checked before any code is built.
        if config is not None:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            args = (*args, "--config", str(cfg))
        rc, out, err = run_cli(capsys, command, *args)
        assert rc == 1 and out == ""
        assert err.startswith("error:") and message in err
        assert not built

    def test_oversized_exact_y_group_exits_one_before_decoding(self, capsys, decoded):
        rc, out, err = run_cli(
            capsys, "run", "--layout", "standard", "-j", "21", "-k", "21", "--eta", "inf",
            "--decoder", "exact-y", "--p", "0.1", "--trials", "10",
        )
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "standard-21x21" in err and "g = 21" in err
        assert not decoded

    def test_oversized_brute_force_code_exits_one_before_decoding(self, capsys, decoded):
        rc, out, err = run_cli(
            capsys, "run", "--layout", "rotated", "-j", "5", "-k", "5", "--eta", "0.5",
            "--decoder", "brute-force", "--p", "0.1", "--trials", "10",
        )
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "n <= 16" in err
        assert not decoded

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


class TestConfig:
    KEYS = {
        "code-info": "layout j k",
        "hashing-bound": "eta out",
        "run": "layout j k eta decoder chi p format trials seed workers out",
        "threshold": "layout eta decoder chi p distances trials seed workers out pc_init nu_init",
        "convergence": "layout j k eta p chis trials seed workers out",
    }

    @pytest.mark.parametrize("command", sorted(KEYS))
    def test_each_command_reads_its_config_keys(self, command):
        from ybias.cli import cli

        params = {param.name for param in cli.commands[command].params}
        assert params - {"config"} == set(self.KEYS[command].split())

    @pytest.mark.parametrize(
        "command, key",
        [(command, key) for command, keys in sorted(KEYS.items()) for key in keys.split()],
    )
    def test_null_config_value_exits_one_naming_the_key(
        self, capsys, built, tmp_path, command, key
    ):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: None}), encoding="utf-8")
        rc, out, err = run_cli(capsys, command, *VALID[command], "--config", str(cfg))
        assert rc == 1 and out == ""
        assert err.startswith("error:") and f"key {key!r} is null" in err
        assert not built

    @pytest.mark.parametrize(
        "command, flags, config",
        [
            ("code-info", ("--layout", "standard", "-j", "4", "-k", "4"),
             {"layout": "standard", "j": 4, "k": 4}),
            ("hashing-bound", ("--eta", "0.5", "--eta", "inf", "--out", "-"),
             {"eta": [0.5, "inf"], "out": "-"}),
            *[
                ("run",
                 ("--layout", "rotated", "-j", "3", "-k", "3", "--eta", "0.5",
                  "--decoder", "mps", "--chi", "4", "--p", "0.1", "--p", "0.2",
                  "--format", fmt, "--trials", "20", "--seed", "3", "--workers", "1",
                  "--out", "-"),
                 {"layout": "rotated", "j": 3, "k": 3, "eta": 0.5, "decoder": "mps", "chi": 4,
                  "p": [0.1, 0.2], "format": fmt, "trials": 20, "seed": 3, "workers": 1,
                  "out": "-"})
                for fmt in ("csv", "json")
            ],
            ("threshold",
             ("--layout", "rotated", "--eta", "inf", "--decoder", "exact-y", "--chi", "8",
              "--p", "0.4", "--p", "0.5", "--p", "0.6", "-d", "3", "-d", "5", "-d", "7",
              "--trials", "20", "--seed", "2", "--workers", "1", "--out", "-",
              "--pc-init", "0.5", "--nu-init", "1.5"),
             {"layout": "rotated", "eta": "inf", "decoder": "exact-y", "chi": 8,
              "p": [0.4, 0.5, 0.6], "distances": [3, 5, 7], "trials": 20, "seed": 2,
              "workers": 1, "out": "-", "pc_init": 0.5, "nu_init": 1.5}),
            ("convergence",
             ("--layout", "rotated", "-j", "3", "-k", "3", "--eta", "0.5", "--p", "0.15",
              "--chis", "2", "--chis", "4", "--trials", "20", "--seed", "3", "--workers", "1",
              "--out", "-"),
             {"layout": "rotated", "j": 3, "k": 3, "eta": 0.5, "p": 0.15, "chis": [2, 4],
              "trials": 20, "seed": 3, "workers": 1, "out": "-"}),
        ],
        ids=["code-info", "hashing-bound", "run-csv", "run-json", "threshold", "convergence"],
    )
    def test_flags_and_config_give_the_same_bytes(self, capsys, tmp_path, command, flags, config):
        assert set(config) == set(self.KEYS[command].split())  # every option, both ways
        rc, from_flags, _ = run_cli(capsys, command, *flags)
        assert rc == 0 and from_flags
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        rc, from_config, _ = run_cli(capsys, command, "--config", str(cfg))
        assert rc == 0
        assert from_config == from_flags

    @pytest.mark.parametrize(
        "flag, config, env, expected",
        [("2", 3, "4", 2), (None, 3, "4", 3), (None, None, "4", 4), (None, None, None, 1)],
        ids=["flag", "config", "environment", "default"],
    )
    def test_workers_come_from_flag_then_config_then_environment(
        self, capsys, monkeypatch, tmp_path, flag, config, env, expected
    ):
        from ybias import cli

        seen = []
        estimate = cli.estimate_failure_rate

        def record(*args, workers):
            seen.append(workers)
            return estimate(*args, workers=workers)

        monkeypatch.setattr(cli, "estimate_failure_rate", record)
        if env is None:
            monkeypatch.delenv("YBIAS_WORKERS", raising=False)
        else:
            monkeypatch.setenv("YBIAS_WORKERS", env)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({} if config is None else {"workers": config}), encoding="utf-8")
        extra = () if flag is None else ("--workers", flag)
        rc, _, _ = run_cli(capsys, "run", *VALID["run"], "--config", str(cfg), *extra)
        assert rc == 0
        assert seen == [expected]

    @pytest.mark.parametrize("command", [(), *[(name,) for name in sorted(KEYS)]],
                             ids=["group", *sorted(KEYS)])
    def test_help_exits_zero_without_reading_the_workers_default(
        self, capsys, monkeypatch, command
    ):
        monkeypatch.setenv("YBIAS_WORKERS", "abc")
        rc, out, err = run_cli(capsys, *command, "--help")
        assert rc == 0 and err == ""
        assert out.startswith("Usage: ybias")
