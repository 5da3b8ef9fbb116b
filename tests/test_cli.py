"""End-to-end command line tests: everything runs in-process via main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantify
from quantify import rng_from
from quantify.cli import main

EIGHT_ROWS = """s,y,g
1,0,0.1
1,0,0.3
1,1,0.7
1,1,0.9
0,,0.2
0,,0.8
0,,0.8
0,,0.6
"""


@pytest.fixture
def eight_csv(tmp_path):
    path = tmp_path / "eight.csv"
    path.write_text(EIGHT_ROWS)
    return str(path)


@pytest.fixture
def blobs_csv(tmp_path):
    """Two separable Gaussian blobs with unlabeled rows mixed 60/40."""
    rng = rng_from(40)
    lines = ["x1,x2,y,s"]
    for y in (0, 1):
        for _ in range(12):
            x = rng.normal(3.0 * y, 1.0, 2)
            lines.append(f"{x[0]},{x[1]},{y},1")
    for _ in range(30):
        y = int(rng.random() < 0.6)
        x = rng.normal(3.0 * y, 1.0, 2)
        lines.append(f"{x[0]},{x[1]},,0")
    path = tmp_path / "blobs.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def curve_csv(tmp_path):
    """Covariate dataset whose unlabeled score plateaus from 0 to 1 in z."""
    lines = ["s,y,g,z", "1,0,0.0,0.0", "1,0,0.0,0.0", "1,1,1.0,0.0", "1,1,1.0,0.0"]
    for i in range(40):
        z = i / 39.0
        g = 0.0 if z < 0.5 else 1.0
        lines.append(f"0,,{g},{z}")
    path = tmp_path / "curve.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    return json.loads(out)


ESTIMATE = ["estimate", "--set-col", "s", "--label-col", "y", "--score-col", "g"]


class TestEstimate:
    def test_ratio_json(self, eight_csv, capsys):
        payload = run_json(["estimate", eight_csv, "--set-col", "s",
                            "--label-col", "y", "--score-col", "g"], capsys)
        np.testing.assert_allclose(payload["theta"], 2.0 / 3.0)
        assert payload["method"] == "ratio"
        np.testing.assert_allclose(payload["diagnostics"]["mu0"], 0.2)
        assert "ci" not in payload

    def test_classify_and_count(self, eight_csv, capsys):
        payload = run_json(["estimate", eight_csv, "--set-col", "s", "--label-col", "y",
                            "--score-col", "g", "--method", "cc", "--threshold", "0.5"],
                           capsys)
        assert payload["theta"] == 0.75
        assert payload["method"] == "cc"

    def test_em_runs(self, eight_csv, capsys):
        payload = run_json(["estimate", eight_csv, "--set-col", "s", "--label-col", "y",
                            "--score-col", "g", "--method", "em"], capsys)
        assert 0.0 <= payload["theta"] <= 1.0
        assert payload["method"] == "em"

    def test_multiclass_payload(self, eight_csv, capsys):
        payload = run_json(["estimate", eight_csv, "--set-col", "s", "--label-col", "y",
                            "--score-col", "g", "--method", "multiclass"], capsys)
        np.testing.assert_allclose(sum(payload["theta"]), 1.0, atol=1e-9)
        np.testing.assert_allclose(payload["theta"][1], 2.0 / 3.0, atol=1e-9)

    def test_confidence_interval_and_clipping(self, eight_csv, capsys):
        payload = run_json(["estimate", eight_csv, "--set-col", "s", "--label-col", "y",
                            "--score-col", "g", "--ci", "0.95"], capsys)
        assert payload["ci"]["level"] == 0.95
        assert payload["ci"]["lo"] <= payload["ci_clipped"]["lo"]
        assert payload["ci_clipped"]["hi"] <= min(1.0, payload["ci"]["hi"])
        assert 0.0 <= payload["ci_clipped"]["lo"] <= payload["ci_clipped"]["hi"] <= 1.0

    def test_csv_output_flattens_nested_keys(self, eight_csv, capsys):
        code, out, _ = run(["estimate", eight_csv, "--set-col", "s", "--label-col", "y",
                            "--score-col", "g", "--output", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert "diagnostics.mu0,0.2" in lines
        assert any(line.startswith("theta,0.6666") for line in lines)

    def test_quiet_suppresses_stdout(self, eight_csv, capsys):
        code, out, err = run(["estimate", eight_csv, "--set-col", "s", "--label-col", "y",
                              "--score-col", "g", "--quiet"], capsys)
        assert (code, out, err) == (0, "", "")

    def test_fitted_logistic_when_no_score_column(self, blobs_csv, capsys):
        payload = run_json(["estimate", blobs_csv, "--set-col", "s", "--label-col", "y"],
                           capsys)
        assert 0.3 <= payload["theta"] <= 0.9

    def test_unknown_score_column_exits_1(self, eight_csv, capsys):
        code, _, err = run(["estimate", eight_csv, "--set-col", "s", "--label-col", "y",
                            "--score-col", "h"], capsys)
        assert code == 1
        assert err.startswith("error:") and "'h'" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(["estimate", "/no/such/file.csv", "--set-col", "s"], capsys)
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("text, where", [
        ("s,y,g,y\n1,0,0.1,0\n", ":1: duplicate column 'y'"),
        ("s,y,g\n1,0,0.1\n1,1,0.9,7\n", ":3: expected 3 cells, got 4"),
        ("s,y,g\n1,0,0.1\n\n1,1\n", ":4: expected 3 cells, got 2"),
        ("s,y,g\n1,0,0.1\n1,1,inf\n", ":3: non-finite feature value"),
        ("s,y,g\n1,0,0.1\n1,99999999999999999999,0.9\n0,,0.5\n",
         ":3: label '99999999999999999999' out of range"),
        pytest.param('s,y,g\n1,0,0.1\n1,1,"0.9\n' + "0,,0.5\n" * 20000,
                     ":18728: field larger than field limit (131072)", id="unterminated-quote"),
    ])
    def test_malformed_file_exits_1_naming_the_line(self, tmp_path, capsys, text, where):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, out, err = run(["estimate", str(path), "--set-col", "s", "--label-col", "y",
                              "--score-col", "g"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {path}{where}\n"

    @pytest.mark.parametrize("data, where", [
        (b"s,y,g\n1,0,0.1\n1,1,0.9\n0,,0.\xff5\n", ":4: byte 0xff is not UTF-8 (invalid start byte)"),
        (b"s,y,g\r\n1,0,0.1\r1,\xe2\x82,0.9\r\n", ":3: byte 0xe2 is not UTF-8 (invalid continuation byte)"),
    ])
    def test_non_utf8_file_exits_1_naming_the_line(self, tmp_path, capsys, data, where):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        code, out, err = run(["estimate", str(path), "--set-col", "s", "--label-col", "y",
                              "--score-col", "g"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {path}{where}\n"

    def test_header_only_file_writes_nothing_but_the_error(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("s,y,g\n")
        src = str(Path(quantify.__file__).parents[1])
        done = subprocess.run([sys.executable, "-m", "quantify.cli", *ESTIMATE, str(path)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: need at least two observed classes to quantify\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_reads_a_pipe(self, tmp_path, capsys):
        rng = rng_from(5)
        rows = [f"{i % 2},{i // 2 % 2 if i % 2 else ''},{rng.random()!r}" for i in range(2000)]
        text = "s,y,g\n" + "\n".join(rows) + "\n"  # several read buffers long
        path = tmp_path / "data.csv"
        path.write_text(text)
        expected = run([*ESTIMATE, str(path)], capsys)
        src = str(Path(quantify.__file__).parents[1])
        done = subprocess.run([sys.executable, "-m", "quantify.cli", *ESTIMATE, "/dev/stdin"],
                              input=text, capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout, done.stderr) == expected

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_bad_record_in_a_pipe_exits_1_naming_the_line(self):
        """The pipe cannot be read again to find the line; it was reported as empty."""
        src = str(Path(quantify.__file__).parents[1])
        done = subprocess.run([sys.executable, "-m", "quantify.cli", *ESTIMATE, "/dev/stdin"],
                              input="s,y,g\n1,0,0.1\n1,1,oops\n", capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: /dev/stdin:3: non-numeric feature value\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_non_utf8_byte_in_a_pipe_exits_1_naming_the_line(self):
        """The pipe cannot be read again to find the byte; it was reported as a changed file."""
        src = str(Path(quantify.__file__).parents[1])
        done = subprocess.run([sys.executable, "-m", "quantify.cli", *ESTIMATE, "/dev/stdin"],
                              input=b"s,y,g\n1,0,0.1\n1,1,\xff\n", capture_output=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr == b"error: /dev/stdin:3: byte 0xff is not UTF-8 (invalid start byte)\n"

    def test_separability_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("s,y,g\n1,0,0.5\n1,0,0.5\n1,1,0.5\n1,1,0.5\n0,,0.5\n0,,0.5\n")
        code, _, err = run(["estimate", str(path), "--set-col", "s", "--label-col", "y",
                            "--score-col", "g"], capsys)
        assert code == 2
        assert "separability" in err

    def test_bad_flag_value_exits_via_argparse(self, eight_csv):
        with pytest.raises(SystemExit) as info:
            main(["estimate", eight_csv, "--set-col", "s", "--method", "bogus"])
        assert info.value.code == 2


class TestTestShift:
    def base(self, eight_csv):
        return ["test-shift", eight_csv, "--set-col", "s", "--label-col", "y",
                "--score-col", "g", "--grid-size", "101"]

    def test_payload_and_reproducibility(self, eight_csv, capsys):
        args = self.base(eight_csv) + ["--B", "30", "--seed", "3"]
        code_a, out_a, _ = run(args, capsys)
        code_b, out_b, _ = run(args, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b
        payload = json.loads(out_a)
        assert set(payload) == {
            "statistic", "p_star", "theta_hat", "p_value",
            "replicates", "bandwidth0", "bandwidth1", "seed",
        }
        assert payload["replicates"] == 30
        count = payload["p_value"] * 30
        np.testing.assert_allclose(count, round(count), atol=1e-9)

    def test_single_replicate_p_value(self, eight_csv, capsys):
        payload = run_json(self.base(eight_csv) + ["--B", "1"], capsys)
        assert payload["p_value"] in (0.0, 1.0)

    def test_grid_alias(self, eight_csv, capsys):
        args = ["test-shift", eight_csv, "--set-col", "s", "--label-col", "y",
                "--score-col", "g", "--B", "10", "--grid", "101", "--seed", "3"]
        assert run_json(args, capsys) == run_json(self.base(eight_csv) +
                                                  ["--B", "10", "--seed", "3"], capsys)


class TestSelectG:
    BASE = ["--set-col", "s", "--label-col", "y"]

    def test_singleton_gamma_is_echoed(self, blobs_csv, capsys):
        payload = run_json(["select-g", blobs_csv] + self.BASE + ["--gamma", "0.5"],
                           capsys)
        assert payload["gamma"] == 0.5
        assert payload["kernel"]["family"] == "gaussian"
        assert payload["objective"] >= 0.0

    def test_gamma_grid_alias(self, blobs_csv, capsys):
        a = run_json(["select-g", blobs_csv] + self.BASE + ["--gamma", "0.5"], capsys)
        b = run_json(["select-g", blobs_csv] + self.BASE + ["--gamma-grid", "0.5"], capsys)
        assert a == b

    def test_split_seed_defaults_to_seed(self, blobs_csv, capsys):
        a = run_json(["select-g", blobs_csv] + self.BASE + ["--seed", "4"], capsys)
        b = run_json(["select-g", blobs_csv] + self.BASE + ["--seed", "4",
                                                            "--split-seed", "4"], capsys)
        assert a == b

    def test_saved_weights_drive_estimate(self, blobs_csv, tmp_path, capsys):
        out = str(tmp_path / "selection.json")
        confirmation = run_json(["select-g", blobs_csv] + self.BASE + ["--out", out],
                                capsys)
        assert confirmation["out"] == out
        assert set(confirmation) == {"out", "gamma", "objective"}
        with open(out) as handle:
            saved = json.load(handle)
        assert saved["gamma"] == confirmation["gamma"]

        first = run_json(["estimate", blobs_csv] + self.BASE + ["--weights", out], capsys)
        second = run_json(["estimate", blobs_csv] + self.BASE + ["--weights", out], capsys)
        assert first == second
        assert 0.0 <= first["theta"] <= 1.0

    def test_linear_kernel(self, blobs_csv, capsys):
        payload = run_json(["select-g", blobs_csv] + self.BASE + ["--kernel", "linear"],
                           capsys)
        assert payload["kernel"]["family"] == "linear"

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda sel: {k: v for k, v in sel.items() if k != "weights"},
                     id="missing-weights"),
        pytest.param(lambda sel: [sel], id="list-not-object"),
        pytest.param(lambda sel: {**sel, "weights": sel["weights"][:-3]}, id="three-weights-short"),
        pytest.param(lambda sel: {**sel, "anchors": [row[:1] for row in sel["anchors"]]},
                     id="one-column-anchors"),
        pytest.param(lambda sel: {**sel, "weights": [float("nan")] * len(sel["weights"])},
                     id="nan-weights"),
        pytest.param(lambda sel: {**sel, "kernel": {"family": "cubic"}}, id="unknown-kernel"),
        pytest.param(lambda sel: {**sel, "kernel": {"family": "gaussian", "bandwidth": float("nan")}},
                     id="nan-bandwidth"),
        pytest.param(lambda sel: {**sel, "gamma": "small"}, id="non-numeric-gamma"),
    ])
    def test_malformed_weights_file_exits_1_naming_it(self, blobs_csv, tmp_path, capsys,
                                                     corrupt):
        """Each file starts from a real select-g output on the same 2-feature data."""
        good = str(tmp_path / "selection.json")
        run_json(["select-g", blobs_csv] + self.BASE + ["--out", good], capsys)
        with open(good) as handle:
            selection = json.load(handle)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(corrupt(selection)))
        code, out, err = run(["estimate", blobs_csv] + self.BASE + ["--weights", str(bad)],
                             capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    def test_bad_weights_file_exits_1(self, eight_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(["estimate", eight_csv, "--set-col", "s", "--label-col", "y",
                            "--weights", str(bad)], capsys)
        assert code == 1
        assert "not valid JSON" in err


class TestRegress:
    BASE = ["--set-col", "s", "--label-col", "y", "--score-col", "g",
            "--covariate-col", "z"]

    def test_grid_spec_and_plateaus(self, curve_csv, capsys):
        payload = run_json(["regress", curve_csv] + self.BASE +
                           ["--grid", "0:1:5", "--bandwidth", "0.05"], capsys)
        assert payload["method"] == "ratio"
        zs = [point["z"] for point in payload["curve"]]
        np.testing.assert_allclose(zs, [0.0, 0.25, 0.5, 0.75, 1.0])
        values = [point["theta"] for point in payload["curve"]]
        assert values[0] < 0.05 and values[-1] > 0.95
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_non_finite_covariate_exits_1_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("s,y,g,z\n1,0,0.0,0.5\n0,,1.0,nan\n")
        code, out, err = run(["regress", str(path)] + self.BASE, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {path}:3: non-finite covariate value\n"

    def test_default_grid_has_101_points(self, curve_csv, capsys):
        payload = run_json(["regress", curve_csv] + self.BASE, capsys)
        assert len(payload["curve"]) == 101

    def test_cv_bandwidth(self, curve_csv, capsys):
        payload = run_json(["regress", curve_csv] + self.BASE +
                           ["--grid", "0:1:9", "--bandwidth", "cv"], capsys)
        assert payload["bandwidth"] > 0.0

    def test_cc_method(self, curve_csv, capsys):
        payload = run_json(["regress", curve_csv] + self.BASE +
                           ["--method", "cc", "--threshold", "0.5", "--grid", "0:1:5"],
                           capsys)
        assert payload["method"] == "cc"

    def test_out_writes_the_curve(self, curve_csv, tmp_path, capsys):
        out = tmp_path / "curve_out.csv"
        payload = run_json(["regress", curve_csv] + self.BASE +
                           ["--grid", "0:1:5", "--out", str(out)], capsys)
        assert set(payload) == {"out", "bandwidth", "method"}
        lines = out.read_text().splitlines()
        assert lines[0] == "z,theta"
        assert len(lines) == 6
        assert lines[1].startswith("0.0,")

    def test_malformed_grid_exits_via_argparse(self, curve_csv):
        with pytest.raises(SystemExit) as info:
            main(["regress", curve_csv] + self.BASE + ["--grid", "0:1"])
        assert info.value.code == 2

    def test_bad_bandwidth_string_exits_via_argparse(self, curve_csv):
        with pytest.raises(SystemExit) as info:
            main(["regress", curve_csv] + self.BASE + ["--bandwidth", "wide"])
        assert info.value.code == 2


class TestSimulate:
    MSE = ["simulate", "--scenario", "gaussian", "--study", "mse",
           "--theta", "0.3", "--replicates", "3", "--n-unlabeled", "40",
           "--n-class", "20", "--n-class", "20", "--seed", "1"]

    def test_mse_summary_payload(self, capsys):
        payload = run_json(self.MSE, capsys)
        assert payload["study"] == "mse"
        assert payload["columns"] == ["theta", "method", "replicates", "mse", "half_width"]
        assert len(payload["rows"]) == 2
        assert payload["meta"]["kind"] == "gaussian"

    def test_out_csv_counts_raw_rows(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        payload = run_json(self.MSE + ["--out", str(out)], capsys)
        assert payload["rows"] == 6
        lines = out.read_text().splitlines()
        assert lines[0] == "scenario,method,theta,replicate,estimate"
        assert len(lines) == 7

    def test_out_csv_is_reproducible(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_json(self.MSE + ["--out", str(out_a)], capsys)
        run_json(self.MSE + ["--out", str(out_b)], capsys)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_preset_sets_the_group_sizes(self, capsys):
        payload = run_json(["simulate", "--study", "mse", "--preset", "candles",
                            "--theta", "0.2", "--replicates", "1"], capsys)
        assert payload["meta"]["n_unlabeled"] == 300
        assert payload["meta"]["n_class"] == [150, 150]

    def test_coverage_study(self, capsys):
        payload = run_json(["simulate", "--study", "coverage", "--theta", "0.4",
                            "--replicates", "3", "--n-unlabeled", "50",
                            "--n-class", "25", "--n-class", "25"], capsys)
        assert payload["columns"] == ["theta", "replicates", "coverage", "mean_width"]

    def test_power_study_null_marking(self, capsys):
        payload = run_json(["simulate", "--study", "power", "--gamma", "0",
                            "--replicates", "2", "--test-replicates", "11",
                            "--grid-size", "51", "--n-unlabeled", "40",
                            "--n-class", "20", "--n-class", "20"], capsys)
        row = payload["rows"][0]
        assert row[0] == 0.0 and row[4] == 1.0

    def test_combined_study(self, capsys):
        payload = run_json(["simulate", "--study", "combined", "--theta", "0.3",
                            "--label-count", "0", "--label-count", "10",
                            "--replicates", "3", "--n-unlabeled", "30",
                            "--n-class", "15", "--n-class", "15"], capsys)
        assert len(payload["rows"]) == 2
        assert payload["rows"][0][3] is None

    def test_multiclass_study(self, capsys):
        payload = run_json(["simulate", "--scenario", "multiclass", "--study",
                            "multiclass", "--size", "60", "--replicates", "1",
                            "--n-class", "20", "--n-class", "20", "--n-class", "20"],
                           capsys)
        assert payload["rows"][0][0] == 60

    def test_regression_study(self, capsys):
        payload = run_json(["simulate", "--scenario", "sine", "--study", "regression",
                            "--replicates", "2", "--n-unlabeled", "60",
                            "--n-class", "30", "--n-class", "30", "--mu", "2"], capsys)
        assert len(payload["rows"]) == 1
        assert len(payload["rows"][0]) == 7

    def test_quiet_with_out(self, tmp_path, capsys):
        out = tmp_path / "quiet.csv"
        code, stdout, _ = run(self.MSE + ["--out", str(out), "--quiet"], capsys)
        assert code == 0 and stdout == ""
        assert out.exists()

    def test_repeated_method_exits_2(self, capsys):
        code, stdout, err = run(self.MSE + ["--method", "cc", "--method", "cc"], capsys)
        assert code == 2 and stdout == ""
        assert "once" in err

    def test_repeated_label_count_exits_2(self, capsys):
        code, stdout, err = run(["simulate", "--study", "combined", "--label-count", "10",
                                 "--label-count", "10", "--replicates", "1",
                                 "--n-unlabeled", "30", "--n-class", "15", "--n-class", "15"],
                                capsys)
        assert code == 2 and stdout == ""
        assert "once" in err

    def test_unknown_study_exits_via_argparse(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--study", "anova"])
        assert info.value.code == 2

    def test_unwritable_out_exits_1(self, capsys):
        code, _, err = run(self.MSE + ["--out", "/no/such/dir/x.csv"], capsys)
        assert code == 1
        assert "cannot write" in err


@pytest.mark.parametrize("command", ["import", "estimate", "estimate-fit", "select-g", "regress"])
def test_commands_load_neither_multiprocessing_nor_numpy_ma(command, eight_csv, blobs_csv,
                                                             curve_csv, tmp_path):
    """Each costs 10-40 ms of start-up: the pool is imported where a study uses
    it, and np.unique and np.median import numpy.ma on their first call."""
    weights = str(tmp_path / "g.json")
    runs = {
        "import": [],
        "estimate": [[*ESTIMATE, eight_csv, "--ci", "0.95"]],
        "estimate-fit": [["estimate", blobs_csv, "--set-col", "s", "--label-col", "y"]],
        "select-g": [["select-g", blobs_csv, *TestSelectG.BASE, "--out", weights],
                     ["estimate", blobs_csv, *TestSelectG.BASE, "--weights", weights]],
        "regress": [["regress", curve_csv, *TestRegress.BASE, "--bandwidth", "cv"]],
    }[command]
    script = "import sys\nfrom quantify.cli import main\n"
    script += "".join(f"assert main({argv!r}) == 0\n" for argv in runs)
    script += "print(sorted({'multiprocessing', 'numpy.ma'} & set(sys.modules)))\n"
    src = str(Path(quantify.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
