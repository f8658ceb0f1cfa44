"""Command-line interface: commands, exit codes, formats, reproducibility."""

import argparse
import csv
import io
import json
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retrobell.sampling as sampling
from retrobell.cli import MAX_CURVE_POINTS, MAX_THREADS, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


class TestVerifyCommand:
    def test_bell_all_checks_pass(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--model", "bell",
            "--checks", "si,nosignal,recovery",
        )
        assert code == 0
        assert [r["check"] for r in doc["results"]] == [
            "si", "no_signalling", "recovery",
        ]
        assert all(r["pass"] for r in doc["results"])
        assert all(r["max_deviation"] <= 1e-12 for r in doc["results"])

    def test_counterexample_si_fails_with_exit_1(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--model", "counterexample", "--checks", "si"
        )
        assert code == 1
        assert doc["results"][0]["pass"] is False
        assert doc["results"][0]["max_deviation"] == pytest.approx(0.25)

    def test_counterexample_nosignal_fails_with_deviation_one(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--model", "counterexample", "--checks", "nosignal"
        )
        assert code == 1
        assert doc["results"][0]["max_deviation"] == pytest.approx(1.0)

    def test_ghz_rational_is_exactly_zero(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--model", "ghz", "--backend", "rational"
        )
        assert code == 0
        assert doc["backend"] == "rational"
        assert doc["tolerance"] == 0
        for r in doc["results"]:
            assert r["max_deviation"] == 0

    def test_report_envelope_is_self_describing(self, capsys):
        _, doc = run_json(capsys, "verify", "--model", "bell", "--checks", "si")
        assert doc["tool"] == "retrobell"
        assert doc["version"]
        assert doc["command"] == "verify"
        assert doc["config"]["model"] == "bell"
        assert doc["config"]["grid"] == 16
        assert "threads" not in doc["config"]
        assert doc["tolerance"] == 1e-12

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--model", "bell", "--checks", "bogus")
        assert code == 2
        assert "unknown check" in err

    @pytest.mark.parametrize("checks, message", [
        ("", "--checks is empty; name one or more of si,nosignal,recovery,kernel-norm"),
        ("si,si", "--checks names the si check twice"),
        ("nosignal,no-signalling", "--checks names the no_signalling check twice"),
    ])
    def test_empty_or_repeated_checks_are_usage_errors(self, capsys, checks, message):
        code, out, err = run(capsys, "verify", "--model", "bell", "--grid", "2",
                             "--checks", checks)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_rational_backend_rejected_for_bell(self, capsys):
        code, _, err = run(
            capsys, "verify", "--model", "bell", "--backend", "rational"
        )
        assert code == 2
        assert "rational" in err

    def test_float_backend_rejected_for_ghz(self, capsys):
        code, out, err = run(capsys, "verify", "--model", "ghz", "--backend", "float")
        assert code == 2
        assert out == ""
        assert err == "error: model 'ghz' runs on the rational backend\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--model", "ghz"),
        ("sample", "--model", "bell", "--label", "1", "--alpha1", "0", "--alpha2", "0",
         "--n", "10"),
        ("chsh", "--model", "prbox"),
    ], ids=["verify", "sample", "chsh"])
    def test_backend_outside_the_choices_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--backend", "exact")
        assert code == 2
        assert out == ""
        assert "invalid choice: 'exact'" in err

    def test_recovery_rejected_for_counterexample(self, capsys):
        code, _, err = run(
            capsys, "verify", "--model", "counterexample", "--checks", "recovery"
        )
        assert code == 2

    @pytest.mark.parametrize("grid", ["0", "-1", "257"])
    def test_grid_out_of_bounds_is_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "verify", "--model", "bell", "--grid", grid)
        assert code == 2
        assert out == ""
        assert "--grid must be between 1 and 256" in err

    @pytest.mark.parametrize("model, grid, points", [("bell", "1", 1), ("ghz", "256", 8)])
    def test_grid_bounds_are_inclusive(self, capsys, model, grid, points):
        code, doc = run_json(capsys, "verify", "--model", model, "--grid", grid)
        assert code == 0
        assert doc["config"]["grid_points"] == points

    def test_verify_has_no_threads_flag(self, capsys):
        code, _, err = run(capsys, "verify", "--model", "ghz", "--threads", "2")
        assert code == 2
        assert "--threads" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--model", "ghz", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["check", "pass", "max_deviation", "tolerance", "backend"]
        assert len(rows) == 5  # header + four checks


class TestChshCommand:
    def test_bell_standard_angles(self, capsys):
        code, doc = run_json(
            capsys, "chsh", "--model", "bell", "--state", "1",
            "--angles", "0,1.5707963267948966,0.7853981633974483,2.356194490192345",
        )
        assert code == 0
        s = doc["results"]["S"]
        assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert doc["results"]["bounds"] == {
            "lhv_bound": 2,
            "tsirelson_bound": 2.8284271247461903,
            "pr_bound": 4,
        }

    def test_prbox_reaches_four(self, capsys):
        code, doc = run_json(capsys, "chsh", "--model", "prbox")
        assert code == 0
        assert doc["results"]["S"] == 4
        assert doc["backend"] == "rational"

    def test_lhv_max_is_two(self, capsys):
        code, doc = run_json(capsys, "chsh", "--lhv")
        assert code == 0
        assert doc["results"]["S_max"] == 2
        assert doc["results"]["strategies"] == 16

    def test_scan_respects_bound(self, capsys):
        code, doc = run_json(
            capsys, "chsh", "--model", "bell", "--scan", "--resolution", "16"
        )
        assert code == 0
        r = doc["results"]
        assert r["max_S"] <= 2.8284271247461903 + 1e-9
        assert r["max_S"] == pytest.approx(2.8284271247461903, abs=1e-9)
        assert r["configs_scanned"] == 65536

    def test_scan_with_rational_backend_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "chsh", "--model", "bell", "--scan", "--backend", "rational"
        )
        assert code == 2
        assert err == ("error: model 'bell' is angle-dependent; the rational backend is "
                       "only available for ghz and prbox\n")

    @pytest.mark.parametrize("resolution", ["4", "7", "65"])
    def test_scan_resolution_outside_8_to_64_is_usage_error(self, capsys, resolution):
        code, out, err = run(capsys, "chsh", "--model", "bell", "--scan",
                             "--resolution", resolution)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--resolution" in err

    @pytest.mark.parametrize("resolution", ["8", "64"])
    def test_scan_resolution_bounds_are_inclusive(self, capsys, resolution):
        code, doc = run_json(capsys, "chsh", "--model", "bell", "--scan",
                             "--resolution", resolution)
        assert code == 0
        assert doc["results"]["resolution"] == int(resolution)

    @pytest.mark.parametrize("angles", ["0,0,0,0", "0,1,2"])
    def test_scan_with_angles_is_usage_error(self, capsys, angles):
        code, out, err = run(capsys, "chsh", "--model", "bell", "--scan", "--angles", angles)
        assert (code, out) == (2, "")
        assert err == "error: --scan chooses the angles itself; drop --angles\n"

    def test_resolution_without_scan_is_ignored(self, capsys):
        angles = ("--angles", "0,1,2,3")
        assert run(capsys, "chsh", "--model", "bell", *angles, "--resolution", "4") == \
            run(capsys, "chsh", "--model", "bell", *angles)

    @pytest.mark.parametrize("flags", [
        ("--model", "bell"), ("--model", "prbox"), ("--angles", "nan"),
        ("--settings", "9"), ("--scan",), ("--state", "2"),
    ], ids=" ".join)
    def test_lhv_with_a_mode_flag_is_usage_error(self, capsys, flags):
        code, out, err = run(capsys, "chsh", "--lhv", *flags)
        assert (code, out) == (2, "")
        assert err == (f"error: --lhv enumerates the deterministic strategies; {flags[0]} "
                       "does not apply\n")

    @pytest.mark.parametrize("state", ["1", "4"])
    def test_state_with_prbox_is_usage_error(self, capsys, state):
        code, out, err = run(capsys, "chsh", "--model", "prbox", "--state", state)
        assert (code, out, err) == (2, "", "error: prbox has no Bell state; --state is for bell\n")

    @pytest.mark.parametrize("mode", [("--angles", "0,1,2,3"), ("--scan", "--resolution", "8")])
    def test_omitted_state_is_state_1(self, capsys, mode):
        code, out, err = run(capsys, "chsh", "--model", "bell", *mode)
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["state"] == 1
        assert run(capsys, "chsh", "--model", "bell", "--state", "1", *mode) == (code, out, err)

    def test_angles_with_prbox_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "chsh", "--model", "prbox", "--angles", "0,1,2,3"
        )
        assert code == 2

    def test_missing_mode_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "chsh", "--model", "bell")
        assert code == 2

    @pytest.mark.parametrize("angles", ["nan,0,0,0", "inf,0,0,0", "0,0,-inf,0", "0,0,0,1e999"])
    def test_non_finite_angles_are_usage_errors(self, capsys, angles):
        code, out, err = run(capsys, "chsh", "--model", "bell", "--angles", angles)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--angles" in err

    def test_prbox_settings_choose_the_slots(self, capsys):
        code, doc = run_json(capsys, "chsh", "--model", "prbox", "--settings", "0,1,1,0")
        assert code == 0
        assert doc["config"] == {"model": "prbox"}
        assert doc["results"]["config"] == [0, 1, 1, 0]
        assert doc["results"]["S"] == 0

    @pytest.mark.parametrize("settings, message", [
        ("0,1,1", "--settings needs 4 comma-separated values"),
        ("0,1,2,0", "--settings values must be 0 or 1, got '2'"),
        ("1 0,0,1", "--settings needs 4 comma-separated values"),
        ("1 0,0,1,1", "--settings values must be 0 or 1, got '1 0'"),
    ])
    def test_bad_prbox_settings_are_usage_errors(self, capsys, settings, message):
        code, out, err = run(capsys, "chsh", "--model", "prbox", "--settings", settings)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_settings_with_bell_is_usage_error(self, capsys):
        code, out, err = run(capsys, "chsh", "--model", "bell", "--settings", "0,1,1,0")
        assert (code, out) == (2, "")
        assert err == "error: --settings is for prbox; bell takes --angles\n"

    @pytest.mark.parametrize("angles, message", [
        ("0,1,2", "--angles needs 4 comma-separated values"),
        ("0,1,2,3,4", "--angles needs 4 comma-separated values"),
        ("0,1,2,x", "bad --angles: could not convert string to float: 'x'"),
        ("0 1,2,3", "--angles needs 4 comma-separated values"),
        ("0 1,2,3,4", "bad --angles: could not convert string to float: '0 1'"),
    ])
    def test_bad_angle_lists_are_usage_errors(self, capsys, angles, message):
        code, out, err = run(capsys, "chsh", "--model", "bell", "--angles", angles)
        assert (code, out, err) == (2, "", f"error: {message}\n")


    @pytest.mark.parametrize("model, flag, values", [
        ("bell", "--angles", "0,,1,2,3"),
        ("bell", "--angles", "0,1,2,3,"),
        ("prbox", "--settings", "1,0,,0,1"),
        ("prbox", "--settings", ""),
    ])
    def test_empty_list_fields_are_usage_errors(self, capsys, model, flag, values):
        code, out, err = run(capsys, "chsh", "--model", model, flag, values)
        assert (code, out, err) == (2, "", f"error: {flag} has an empty field: {values!r}\n")

    def test_list_fields_are_stripped(self, capsys):
        code, doc = run_json(capsys, "chsh", "--model", "bell", "--angles", " 0, 1 ,2,3 ")
        assert code == 0
        assert doc["config"]["angles"] == [0.0, 1.0, 2.0, 3.0]

    def test_negative_exponent_angles_take_the_equals_form(self, capsys):
        code, doc = run_json(capsys, "chsh", "--model", "bell", "--angles=-1,2,3,4")
        assert code == 0
        assert doc["config"]["angles"] == [-1.0, 2.0, 3.0, 4.0]
        code, _, err = run(capsys, "chsh", "--model", "bell", "--angles", "-1,2,3,4")
        assert code == 2 and "expected one argument" in err


class TestGhzExhaustCommand:
    def test_default_run(self, capsys):
        code, doc = run_json(capsys, "ghz-exhaust")
        assert code == 0
        r = doc["results"]
        assert r["satisfying_all"] == 0
        assert r["per_constraint"] == [32, 32, 32, 32]
        assert "near_misses" not in r

    def test_near_miss_listing(self, capsys):
        code, doc = run_json(capsys, "ghz-exhaust", "--list-near-misses")
        assert code == 0
        misses = doc["results"]["near_misses"]
        assert len(misses) == 32
        per_violated = {}
        for m in misses:
            per_violated[m["violated"]] = per_violated.get(m["violated"], 0) + 1
        assert sorted(per_violated.values()) == [8, 8, 8, 8]


class TestSampleCommand:
    def test_bell_sample_passes(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, _ = run(
            capsys, "sample", "--model", "bell", "--label", "1",
            "--alpha1", "0", "--alpha2", "1.0471975511965976",
            "--n", "20000", "--seed", "42", "--output", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["results"]["pass"] is True
        assert doc["results"]["rng"] == "philox4x64"
        assert doc["seed"] == 42
        assert out_path.read_text().endswith("\n")

    def test_same_seed_byte_identical_reports(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run(
                capsys, "sample", "--model", "bell", "--label", "1",
                "--alpha1", "0", "--alpha2", "1.0471975511965976",
                "--n", "20000", "--seed", "42", "--output", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_env_seed_honored(self, capsys, tmp_path, monkeypatch):
        explicit = tmp_path / "explicit.json"
        via_env = tmp_path / "env.json"
        run(
            capsys, "sample", "--model", "bell", "--label", "1",
            "--alpha1", "0", "--alpha2", "0.5", "--n", "5000",
            "--seed", "99", "--output", str(explicit),
        )
        monkeypatch.setenv("RETROBELL_SEED", "99")
        run(
            capsys, "sample", "--model", "bell", "--label", "1",
            "--alpha1", "0", "--alpha2", "0.5", "--n", "5000",
            "--output", str(via_env),
        )
        assert explicit.read_bytes() == via_env.read_bytes()

    def test_ghz_sample_has_no_disallowed_triples(self, capsys):
        code, doc = run_json(
            capsys, "sample", "--model", "ghz", "--label", "0",
            "--settings", "0,1,1", "--n", "20000", "--seed", "7",
        )
        assert code == 0
        zero_hits = sum(
            c["count"] for c in doc["results"]["cells"] if c["exact_p"] == 0
        )
        assert zero_hits == 0

    def test_cap_exceeded_exits_3(self, capsys):
        code, _, err = run(
            capsys, "sample", "--model", "bell", "--label", "1",
            "--alpha1", "0", "--alpha2", "0", "--n", "10000",
            "--seed", "1", "--cap-factor", "1",
        )
        assert code == 3
        assert err.startswith("sampling failure: ")
        assert "accepted only" in err

    def test_angle_flags_with_ghz_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "sample", "--model", "ghz", "--label", "0",
            "--alpha1", "0", "--alpha2", "1", "--n", "10", "--seed", "1",
        )
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--threads", "0"), ("--threads", "-2"), ("--seed", "-1"), ("--seed", str(2**64)),
        ("--n", "0"),
        ("--n", "-5"), ("--alpha1", "nan"), ("--alpha2", "inf"),
        ("--cap-factor", "0"), ("--cap-factor", "-1"), ("--threads", str(MAX_THREADS + 1)),
    ])
    def test_bad_sample_values_are_usage_errors(self, capsys, flag, value):
        argv = {"--model": "bell", "--label": "1", "--alpha1": "0",
                "--alpha2": "1", "--n": "10", "--seed": "1", flag: value}
        code, out, err = run(capsys, "sample", *(t for kv in argv.items() for t in kv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("env", ["-3", "seven", str(2**64)])
    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch, env):
        monkeypatch.setenv("RETROBELL_SEED", env)
        code, _, err = run(
            capsys, "sample", "--model", "bell", "--label", "1",
            "--alpha1", "0", "--alpha2", "1", "--n", "10",
        )
        assert code == 2
        assert "seed" in err.lower()

    def test_settings_with_bell_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "sample", "--model", "bell", "--label", "1",
            "--settings", "0,1", "--n", "10", "--seed", "1",
        )
        assert code == 2

    def test_unknown_label_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "sample", "--model", "bell", "--label", "9",
            "--alpha1", "0", "--alpha2", "1", "--n", "10", "--seed", "1",
        )
        assert code == 2
        assert "unknown label" in err

    def test_full_label_name_is_accepted(self, capsys):
        code, doc = run_json(
            capsys, "sample", "--model", "bell", "--label", "lambda1",
            "--alpha1", "0", "--alpha2", "1", "--n", "50", "--seed", "1",
        )
        assert code == 0
        assert doc["config"]["label"] == "lambda1"

    @pytest.mark.parametrize("argv, message", [
        (("--model", "bell", "--label", "1"), "bell needs --alpha1 and --alpha2 (radians)"),
        (("--model", "bell", "--label", "1", "--alpha1", "0"),
         "bell needs --alpha1 and --alpha2 (radians)"),
        (("--model", "ghz", "--label", "0"), "ghz needs --settings, e.g. 0,1,1"),
        (("--model", "ghz", "--label", "0", "--settings", "0,1"),
         "--settings needs 3 comma-separated values"),
    ])
    def test_missing_settings_are_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, "sample", *argv, "--n", "10", "--seed", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_empty_settings_field_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sample", "--model", "ghz", "--label", "0",
                             "--settings", "0,,1,1", "--n", "10", "--seed", "1")
        assert (code, out, err) == (2, "", "error: --settings has an empty field: '0,,1,1'\n")

    def test_negative_exponent_angle_takes_the_equals_form(self, capsys):
        argv = ["sample", "--model", "counterexample", "--label", "1", "--alpha1", "0",
                "--n", "50", "--seed", "1"]
        code, doc = run_json(capsys, *argv, "--alpha2=-1e-3")
        assert code == 0
        assert doc["config"]["settings"] == [0.0, -1e-3]
        code, _, err = run(capsys, *argv, "--alpha2", "-1e-3")
        assert code == 2 and "expected one argument" in err

    def test_csv_cells_table(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--model", "prbox", "--label", "pr",
            "--settings", "0,1", "--n", "5000", "--seed", "3",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["assignment", "exact_p", "empirical_p", "count", "z"]
        assert len(rows) == 5  # header + four outcome cells
        counts = [int(r[3]) for r in rows[1:]]
        assert sum(counts) == 5000

    def test_sharded_sampling_via_threads_flag(self, capsys):
        code, doc = run_json(
            capsys, "sample", "--model", "bell", "--label", "1",
            "--alpha1", "0", "--alpha2", "1.0471975511965976",
            "--n", "20000", "--seed", "4", "--threads", "3",
        )
        assert code == 0
        assert doc["results"]["shards"] == 3

    def test_threads_at_the_maximum_runs(self, capsys, monkeypatch):
        # shards run inline, so no thread is started
        monkeypatch.setattr(sampling, "_worker_count", lambda shards: 1)
        code, doc = run_json(
            capsys, "sample", "--model", "bell", "--label", "1", "--alpha1", "0",
            "--alpha2", "1", "--n", "10", "--threads", str(MAX_THREADS),
        )
        assert code in (0, 1)
        assert doc["config"]["threads"] == MAX_THREADS
        assert doc["results"]["shards"] == 10


class TestFormatsAndConfig:
    def test_human_and_json_share_numeric_values(self, capsys):
        _, doc = run_json(capsys, "verify", "--model", "bell", "--checks", "si")
        _, human, _ = run(
            capsys, "verify", "--model", "bell", "--checks", "si",
            "--format", "human",
        )
        line = next(
            l for l in human.splitlines()
            if l.startswith("results.0.max_deviation")
        )
        human_value = float(line.split("=", 1)[1].strip())
        assert human_value == doc["results"][0]["max_deviation"]

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid=8\nchecks=si\n")
        code, doc = run_json(
            capsys, "verify", "--model", "bell", "--config", str(cfg)
        )
        assert code == 0
        assert doc["config"]["grid"] == 8
        assert doc["config"]["grid_points"] == 64
        assert doc["config"]["checks"] == ["si"]

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid=8\n")
        code, doc = run_json(
            capsys, "verify", "--model", "bell", "--checks", "si",
            "--config", str(cfg), "--grid", "4",
        )
        assert code == 0
        assert doc["config"]["grid"] == 4

    @pytest.mark.parametrize("form", ["pair", "equals"])
    def test_config_before_the_command_name(self, capsys, tmp_path, form):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid=4\nchecks=si\n")
        config = ["--config", str(cfg)] if form == "pair" else [f"--config={cfg}"]
        code, doc = run_json(capsys, *config, "verify", "--model", "bell", "--grid", "2")
        assert code == 0
        assert doc["config"]["grid"] == 2
        assert doc["config"]["checks"] == ["si"]

    def test_missing_config_file_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--model", "bell", "--config", "/nosuch/file"
        )
        assert code == 2

    @pytest.mark.parametrize("second", ["--config", "--config="])
    @pytest.mark.parametrize("target", ["exists", "missing"])
    def test_repeated_config_is_usage_error(self, capsys, tmp_path, second, target):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid=4\n")
        path = str(cfg) if target == "exists" else "/nosuch/file"
        again = [second, path] if second == "--config" else [second + path]
        for first in (["--config", str(cfg)], [f"--config={cfg}"]):
            for argv in ([*first, "verify", "--model", "bell", *again],
                         ["verify", "--model", "bell", *first, *again]):
                code, out, err = run(capsys, *argv)
                assert (code, out, err) == (2, "", "error: --config may be given only once\n")

    @pytest.mark.parametrize("line", ["config=/nosuch/file", "config=true"])
    def test_config_key_in_a_config_file_is_usage_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"grid=4\n{line}\n")
        code, out, err = run(capsys, "verify", "--model", "bell", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: --config may be given only once\n")

    def test_missing_config_file_in_equals_form_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--model", "bell", "--config=/nosuch/file")
        assert (code, out, err) == (2, "", "error: config file not found: /nosuch/file\n")

    def test_config_equals_form_comments_and_booleans(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# defaults\n\nlist-near-misses = true\nformat=csv\n")
        code, out, _ = run(capsys, "ghz-exhaust", f"--config={cfg}")
        assert code == 0
        assert out.splitlines()[0] == "constraint,satisfying_count"
        cfg.write_text("list-near-misses=FALSE\n")
        code, doc = run_json(capsys, "ghz-exhaust", "--config", str(cfg))
        assert code == 0
        assert doc["config"] == {"list_near_misses": False}

    def test_bad_config_line_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid 8\n")
        code, out, err = run(capsys, "verify", "--model", "bell", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: bad config line (want key=value): 'grid 8'\n"

    def test_config_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--model", "bell", "--config", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config file {tmp_path}: ")
        assert err.count("\n") == 1

    def test_undecodable_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"\xff\xfegrid=8\n")
        code, out, err = run(capsys, "verify", "--model", "bell", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read config file {cfg}: 'utf-8' codec can't decode "
                       "byte 0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("argv", [
        ("verify", "--model", "ghz"), ("emit-curve", "--points", "3"),
    ], ids=["report", "curve"])
    def test_unwritable_output_is_runtime_failure(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--output", str(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith("runtime failure: ") and "Is a directory" in err

    @pytest.mark.parametrize("argv, what", [
        (("verify", "--model", "ghz", "--format", "json"), "report"),
        (("verify", "--model", "ghz", "--format", "human"), "report"),
        (("verify", "--model", "ghz", "--format", "csv"), "report"),
        (("emit-curve", "--points", "5"), "curve"),
        (("sample", "--model", "prbox", "--label", "pr", "--settings", "1,1",
          "--n", "50", "--seed", "3", "--format", "csv"), "report"),
    ], ids=["verify-json", "verify-human", "verify-csv", "emit-curve", "sample-csv"])
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv, what):
        _, expected, _ = run(capsys, *argv)
        path = tmp_path / "out.txt"
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert (code, out, err) == (0, f"{what} written to {path}\n", "")
        assert expected and path.read_bytes() == expected.encode()

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0


class TestEmitCurve:
    def test_curve_matches_cosine(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "emit-curve", "--state", "1", "--points", "16",
            "--output", str(out_path),
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_path.read_text())))
        assert rows[0] == ["alpha1", "alpha2", "alpha_diff", "expectation"]
        assert len(rows) == 17
        for row in rows[1:]:
            diff, e = float(row[2]), float(row[3])
            assert e == pytest.approx(math.cos(diff), abs=1e-12)

    def test_stdout_output(self, capsys):
        code, out, _ = run(capsys, "emit-curve", "--points", "4")
        assert code == 0
        assert out.splitlines()[0] == "alpha1,alpha2,alpha_diff,expectation"

    def test_stdout_and_file_carry_the_same_bytes(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        _, out, _ = run(capsys, "emit-curve", "--state", "3", "--points", "5")
        run(capsys, "emit-curve", "--state", "3", "--points", "5", "--output", str(out_path))
        expected = "alpha1,alpha2,alpha_diff,expectation\n" + "".join(
            f"{d!r},0.0,{d!r},{-math.cos(d)!r}\n"
            for d in (2.0 * math.pi * k / 5 for k in range(5)))
        assert out == expected
        assert out_path.read_bytes() == expected.encode()

    def test_rows_stream_without_holding_the_curve(self):
        # the whole 20,000-row text would take several MiB
        sink = io.StringIO()
        sink.write = len
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                assert main(["emit-curve", "--points", "20000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("points", [2, MAX_CURVE_POINTS])
    def test_points_bounds_are_inclusive(self, points):
        sink = io.StringIO()
        rows = []
        sink.write = rows.append
        with redirect_stdout(sink):
            assert main(["emit-curve", "--points", str(points)]) == 0
        assert "".join(rows).count("\n") == points + 1

    @pytest.mark.parametrize("points", [1, MAX_CURVE_POINTS + 1])
    def test_points_outside_the_bounds_are_usage_errors(self, capsys, points):
        code, out, err = run(capsys, "emit-curve", "--points", str(points))
        assert code == 2
        assert out == ""
        assert f"between 2 and {MAX_CURVE_POINTS}" in err

    def test_has_no_model_flag(self, capsys):
        code, out, err = run(capsys, "emit-curve", "--model", "bell")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --model bell" in err


# ---------------------------------------------------------------------------
# --backend names the backend a command runs on, for every command
# ---------------------------------------------------------------------------

ANGLES = "0,1.5707963267948966,0.7853981633974483,2.356194490192345"

#: A valid argv for every command and mode that takes --backend, with the
#: backend it runs on.
RUNS_ON = {
    "verify": [
        (("verify", "--model", "bell", "--grid", "4"), "float"),
        (("verify", "--model", "counterexample", "--grid", "4"), "float"),
        (("verify", "--model", "ghz"), "rational"),
        (("verify", "--model", "prbox"), "rational"),
    ],
    "chsh": [
        (("chsh", "--lhv"), "rational"),
        (("chsh", "--model", "prbox"), "rational"),
        (("chsh", "--model", "prbox", "--settings", "0,1,1,0"), "rational"),
        (("chsh", "--model", "bell", "--angles", ANGLES), "float"),
        (("chsh", "--model", "bell", "--scan", "--resolution", "8"), "float"),
    ],
    "ghz-exhaust": [
        (("ghz-exhaust",), "rational"),
        (("ghz-exhaust", "--list-near-misses"), "rational"),
    ],
    "sample": [
        (("sample", "--model", "bell", "--label", "1", "--alpha1", "0", "--alpha2", "1",
          "--n", "50", "--seed", "3"), "float"),
        (("sample", "--model", "counterexample", "--label", "bar", "--alpha1", "-1",
          "--alpha2", "2", "--n", "50", "--seed", "3"), "float"),
        (("sample", "--model", "ghz", "--label", "0", "--settings", "0,1,1", "--n", "50",
          "--seed", "3"), "rational"),
        (("sample", "--model", "prbox", "--label", "pr", "--settings", "1,1", "--n", "50",
          "--seed", "3"), "rational"),
    ],
}


def _commands_taking_backend():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(name for name, p in sub.choices.items()
                  if any("--backend" in a.option_strings for a in p._actions))


def test_every_command_taking_backend_is_covered():
    assert _commands_taking_backend() == sorted(RUNS_ON)


@pytest.mark.parametrize("argv, backend", [case for cases in RUNS_ON.values() for case in cases],
                         ids=lambda v: " ".join(v[:3]) if isinstance(v, tuple) else v)
def test_backend_flag_names_the_backend_the_command_runs_on(capsys, argv, backend):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1)
    assert json.loads(out)["backend"] == backend
    assert run(capsys, *argv, "--backend", backend) == (code, out, err)
    other = {"float": "rational", "rational": "float"}[backend]
    code, out, err = run(capsys, *argv, "--backend", other)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "backend" in err


# ---------------------------------------------------------------------------
# Every argv: a documented exit code, strict JSON or an error message
# ---------------------------------------------------------------------------


def _opt(flag, values):
    """Either no flag or ``flag`` with one of ``values``."""
    return st.one_of(st.just([]), _pick(flag, values))


def _pick(flag, values):
    """``flag`` with one of ``values``."""
    return st.sampled_from(values).map(lambda v: [flag, v])


def _opt_list(flag, values, lo, hi):
    """Either no flag or ``flag`` with a comma list of ``lo`` to ``hi`` values."""
    lists = st.lists(st.sampled_from(values), min_size=lo, max_size=hi)
    return st.one_of(st.just([]), lists.map(lambda v: [flag, ",".join(v)]))


def _rarely(flags):
    """``flags`` in about one argv of four: an override that may break it."""
    return st.one_of(st.just([]), st.just([]), st.just([]), flags)


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [t for p in ps for t in p])


REALS = ["0", "1.0471975511965976", "-2.5", "nan", "inf", "-inf", "1e999", "x"]
BITS = ["0", "1", "2"]
MODELS = ["bell", "ghz", "prbox", "counterexample", "nosuch"]
FORMATS = _opt("--format", ["json", "human", "csv", "xml"])
BACKENDS = _rarely(_opt("--backend", ["rational", "float", "exact"]))

#: Valid starts; the flags drawn after them may override any of their values.
SAMPLE_BASES = [
    ["sample", "--model", "bell", "--label", "1", "--alpha1", "0", "--alpha2", "1"],
    ["sample", "--model", "counterexample", "--label", "bar", "--alpha1", "-1", "--alpha2", "2"],
    ["sample", "--model", "ghz", "--label", "0", "--settings", "0,1,1"],
    ["sample", "--model", "prbox", "--label", "pr", "--settings", "1,1"],
]
CHSH_BASES = [["chsh", "--lhv"], ["chsh", "--model", "prbox"], ["chsh", "--model", "bell"],
              ["chsh", "--model", "bell", "--scan"], ["chsh"]]

ARGVS = st.one_of(
    _argv(st.just(["verify"]), _pick("--model", MODELS),
          _opt("--checks", ["si", "nosignal,recovery", "kernel-norm", "bogus"]),
          _opt("--grid", ["1", "2", "3", "0", "-1", "257", "two"]), BACKENDS, FORMATS),
    _argv(st.sampled_from(CHSH_BASES), _opt("--state", ["1", "4", "5"]),
          _opt_list("--angles", REALS, 3, 5), _rarely(_opt_list("--settings", BITS, 3, 5)),
          _opt("--resolution", ["8", "9", "4", "65"]), BACKENDS, FORMATS),
    _argv(st.just(["ghz-exhaust"]), st.sampled_from([[], ["--list-near-misses"]]), FORMATS),
    _argv(st.just(["emit-curve"]), _rarely(_pick("--model", ["bell", "ghz"])),
          _opt("--state", ["1", "3", "0"]), _opt("--points", ["2", "5", "1", "-4", "x"])),
    _argv(st.sampled_from(SAMPLE_BASES), _pick("--n", ["1", "7", "40", "0"]),
          _opt("--seed", ["0", "5", "-1", str(2**64)]), _opt("--cap-factor", ["1", "3", "0"]),
          _opt("--threads", ["1", "2", "3", str(MAX_THREADS + 1)]),
          _rarely(_opt("--model", MODELS)), _rarely(_opt("--label", ["2", "pr", "9"])),
          _rarely(_opt("--alpha1", REALS)), _rarely(_opt_list("--settings", BITS, 2, 4)),
          BACKENDS, FORMATS),
)


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=150, deadline=None)
@given(ARGVS)
def test_every_argv_exits_documented_code_with_json_or_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert err.getvalue()
        return
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if argv[0] != "emit-curve" and fmt == "json":
        doc = json.loads(out.getvalue(), parse_constant=_no_constant)
        assert doc["tool"] == "retrobell" and doc["command"] == argv[0]
