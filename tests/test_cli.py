"""End-to-end command line tests: everything runs in-process via main()."""

import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import quantify
from quantify import EstimationError, rng_from
from quantify.cli import build_parser, main

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

    def test_multiclass_without_a_score_fits_one_vs_rest_logistic_scores(self, tmp_path,
                                                                         eight_csv, capsys):
        """With no --score-col, three classes get one logistic score per class but the
        last, and two classes the one score P(Y = 1 | x): the class count picks the fit."""
        from quantify import CsvSchema, fit_logistic, load_csv, multiclass_ratio, score_dataset

        rng = rng_from(41)
        labels = np.concatenate([np.repeat([0, 1, 2], 20), rng.choice(3, 60)])
        x = rng.standard_normal((labels.size, 2)) + np.array([[0, 0], [3, 0], [0, 3]])[labels]
        lines = ["s,y,x1,x2", *(f"{int(row < 60)},{label if row < 60 else ''},{x1},{x2}"
                                for row, (label, (x1, x2)) in enumerate(zip(labels, x)))]
        path = tmp_path / "three.csv"
        path.write_text("\n".join(lines) + "\n")
        for csv_path, classes in ((str(path), 3), (eight_csv, 2)):
            payload = run_json(["estimate", csv_path, "--set-col", "s", "--label-col", "y",
                                "--method", "multiclass"], capsys)
            data = load_csv(csv_path, CsvSchema(set_column="s", label_column="y"))
            expected = multiclass_ratio(score_dataset(data, fit_logistic(data))).to_dict()
            assert payload == json.loads(json.dumps(expected))
            assert len(payload["theta"]) == classes

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

    def test_huge_grid_runs_in_memory_linear_in_the_rows(self, eight_csv, capsys):
        """No grid array is built, so 10**12 weights cost what 101 do."""
        args = self.base(eight_csv)[:-1] + ["1000000000000", "--B", "5"]
        payload = run_json(args, capsys)
        assert payload["replicates"] == 5 and 0.0 <= payload["p_star"] <= 1.0

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

    def test_seed_is_the_split_seed(self, blobs_csv, capsys):
        from quantify import CsvSchema, load_csv, select_g

        payload = run_json(["select-g", blobs_csv] + self.BASE + ["--seed", "4"], capsys)
        data = load_csv(blobs_csv, CsvSchema(set_column="s", label_column="y"))
        assert payload == json.loads(json.dumps(select_g(data, split_seed=4).to_dict()))

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

    def test_unwritable_out_exits_1(self, blobs_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "selection.json"
        code, stdout, err = run(["select-g", blobs_csv] + self.BASE + ["--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

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
        pytest.param(lambda sel: {**sel, "kernel": {"family": "gaussian", "bandwidth": 1e300}},
                     id="overflowing-bandwidth"),
        pytest.param(lambda sel: {**sel, "gamma": "small"}, id="non-numeric-gamma"),
        pytest.param(lambda sel: {**sel, "kernel": {"family": "linear", "bandwidth": 3.0}},
                     id="linear-bandwidth"),
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

    def test_the_linear_kernel_refuses_a_bandwidth(self, blobs_csv, capsys):
        """The linear kernel reads no bandwidth; a selection file that gives one is
        refused as malformed (the linear-bandwidth case above)."""
        code, stdout, err = run(["select-g", blobs_csv, *self.BASE, "--kernel", "linear",
                                 "--bandwidth", "3"], capsys)
        assert (code, stdout, err) == (2, "", "error: the linear kernel reads no bandwidth, got 3.0\n")

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

    def test_unwritable_out_exits_1(self, curve_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "curve.csv"
        code, stdout, err = run(["regress", curve_csv] + self.BASE + ["--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

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

    def test_default_power_sweep_is_anchored_at_the_null(self, capsys):
        payload = run_json(["simulate", "--study", "power", "--mu", "3",
                            "--replicates", "1", "--test-replicates", "5",
                            "--grid-size", "21", "--n-unlabeled", "40",
                            "--n-class", "20", "--n-class", "20"], capsys)
        assert [row[0] for row in payload["rows"]] == [-5.0, -4.0, -3.0, -2.0]
        assert [row[0] for row in payload["rows"] if row[4] == 1.0] == [-3.0]

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


@pytest.mark.parametrize("argv", [
    pytest.param(["regress", "CURVE", *TestRegress.BASE, "--grid", "0:1:5"], id="regress"),
    pytest.param(["regress", "CURVE", *TestRegress.BASE, "--method", "cc", "--bandwidth", "cv"],
                 id="regress-cc-cv"),
    pytest.param(TestSimulate.MSE, id="simulate-mse"),
    pytest.param(["simulate", "--scenario", "sine", "--study", "regression", "--replicates", "2",
                  "--n-unlabeled", "60", "--n-class", "30", "--n-class", "30"], id="simulate-regression"),
])
def test_csv_stdout_is_the_out_file(argv, curve_csv, tmp_path, capsysbinary):
    """Without --out, --output csv prints the file that --out writes, byte for byte."""
    argv = [curve_csv if arg == "CURVE" else arg for arg in argv]
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", "csv"]) == 0
    printed = capsysbinary.readouterr().out
    assert main([*argv, "--out", str(out)]) == 0
    assert printed == out.read_bytes()


ZERO_REPLICATES = [((), "mse"), ((), "coverage"), ((), "power"), ((), "combined"),
                   (("--scenario", "multiclass"), "multiclass"), (("--scenario", "sine"), "regression")]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["simulate", "--scenario", "multiclass", "--study", "power"],
                 "the power study cannot run on the 'multiclass_gaussian' scenario kind, "
                 "only on gaussian, exponential, gaussian_exponential, beta", id="power-multiclass"),
    pytest.param(["simulate", "--scenario", "sine", "--study", "power"],
                 "the power study cannot run on the 'regression_sine' scenario kind, "
                 "only on gaussian, exponential, gaussian_exponential, beta", id="power-sine"),
    *(pytest.param(["simulate", *scenario, "--study", study, "--replicates", "0"],
                   "need at least one replicate per cell, got 0", id=f"{study}-0-replicates")
      for scenario, study in ZERO_REPLICATES),
    pytest.param(["simulate", "--study", "mse", "--replicates", "-3"],
                 "need at least one replicate per cell, got -3", id="mse-negative-replicates"),
    pytest.param(["regress", "CURVE", *TestRegress.BASE, "--grid", "0:1:-1"],
                 "--grid: Number of samples, -1, must be non-negative.",
                 id="regress-negative-grid-points"),
    pytest.param(["test-shift", "CURVE", *TestRegress.BASE[:4], "--seed", "-1"],
                 "seeds must be non-negative, got -1", id="test-shift-negative-seed"),
    pytest.param(["simulate", "--study", "mse", "--seed", "-1"],
                 "seeds must be non-negative, got -1", id="simulate-negative-seed"),
    pytest.param(["select-g", "CURVE", *TestRegress.BASE[:4], "--seed", "-1"],
                 "seeds must be non-negative, got -1", id="select-g-negative-seed"),
    *(pytest.param([command, "CURVE", *base, "--seed", "7"],
                   "unrecognized arguments: --seed 7", id=f"{command}-seed")
      for command, base in (("estimate", TestRegress.BASE[:6]), ("regress", TestRegress.BASE))),
    pytest.param(["simulate", "--study", "mse", "--n-class", "50"],
                 "kind 'gaussian' needs 2 labeled class sizes, got 1", id="simulate-one-class-size"),
    pytest.param(["simulate", "--study", "power", "--gamma", "0", "--gamma", "0"],
                 "the gammas swept must be distinct, got [0.0, 0.0]", id="power-repeated-gamma"),
    *(pytest.param(["simulate", "--study", "mse", "--preset", "cancer", *sizes],
                   "--preset sets --n-unlabeled and --n-class; give one or the other",
                   id=f"simulate-preset{sizes[0]}") for sizes in (("--n-unlabeled", "7"),
                                                                  ("--n-class", "5", "--n-class", "5"))),
    *(pytest.param([command, "CURVE", *base, "--weights", "missing.json"],
                   "--weights and --score-col both give the score; pass one",
                   id=f"{command}-weights-and-score-col")
      for command, base in (("estimate", TestRegress.BASE[:6]), ("test-shift", TestRegress.BASE[:6]),
                            ("regress", TestRegress.BASE))),
    pytest.param(["estimate", "CURVE", *TestRegress.BASE[:6], "--regime", "dense"],
                 "--regime is read only with --ci", id="estimate-regime-without-ci"),
    # the data file does not exist: the refusal comes before it is read
    pytest.param(["select-g", "missing.csv", *TestRegress.BASE[:4], "--output", "csv"],
                 "select-g writes its selection as JSON; pass --out with --output csv",
                 id="select-g-csv-without-out"),
    pytest.param(["select-g", "missing.csv", *TestRegress.BASE[:4], "--bandwidth", "0"],
                 "kernel bandwidth must be positive and finite, got 0.0",
                 id="select-g-zero-bandwidth-without-data"),
])
def test_refused_value_exits_2_with_one_error_line(argv, message, curve_csv):
    """A value a command cannot use ends the process with exit 2 and one line
    saying why: no traceback, no table of NaNs."""
    argv = [curve_csv if arg == "CURVE" else arg for arg in argv]
    src = str(Path(quantify.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "quantify.cli", *argv], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (2, "")
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(message), done.stderr


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--study", "mse", "--theta", "0.2", "--theta", "0.2"],
                 "the thetas swept must be distinct, got [0.2, 0.2]", id="mse-theta-twice"),
    pytest.param(["--study", "coverage", "--theta", "0.2", "--theta", "0.2"],
                 "the thetas swept must be distinct, got [0.2, 0.2]", id="coverage-theta-twice"),
    pytest.param(["--scenario", "multiclass", "--study", "multiclass", "--size", "60", "--size", "60"],
                 "the sizes swept must be distinct, got [60, 60]", id="multiclass-size-twice"),
    pytest.param(["--scenario", "multiclass", "--study", "multiclass", "--n-class", "5",
                  "--n-class", "5", "--size", "60"],
                 "kind 'multiclass_gaussian' needs 3 labeled class sizes, got 2",
                 id="multiclass-two-class-sizes"),
    pytest.param(["--scenario", "multiclass", "--study", "mse", "--preset", "cancer"],
                 "the mse study cannot run on the 'multiclass_gaussian' scenario kind, "
                 "only on gaussian, exponential, gaussian_exponential, beta",
                 id="multiclass-mse-preset"),
    pytest.param(["--scenario", "gaussian", "--study", "multiclass", "--n-class", "5"],
                 "the multiclass study cannot run on the 'gaussian' scenario kind, "
                 "only on multiclass_gaussian", id="gaussian-multiclass-one-class-size"),
    pytest.param(["--scenario", "multiclass", "--study", "multiclass", "--preset", "cancer"],
                 "--preset sets n_unlabeled, which the 'multiclass_gaussian' scenario kind "
                 "takes from its study's sizes", id="multiclass-preset"),
])
def test_repeated_sweep_value_or_short_class_list_exits_2_before_any_replicate(
        argv, message, capsys, monkeypatch):
    """A sweep that repeats a value would print two summary rows under one key,
    and a multiclass spec with two class sizes cannot be drawn: both end with
    exit 2 and one error line before any dataset is drawn.  A study paired with
    a scenario it has no truth for is refused before the sizes are checked."""
    from quantify import simulate

    drawn, generate = [], simulate.generate

    def counting_generate(*args, **kwargs):
        drawn.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(simulate, "generate", counting_generate)
    monkeypatch.setenv("QUANTIFY_THREADS", "1")
    code, stdout, err = run(["simulate", *argv, "--replicates", "1"], capsys)
    assert (code, stdout, drawn) == (2, "", [])
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_negative_simulate_seed_exits_2_before_any_dataset_or_worker(threads, capsys,
                                                                      monkeypatch):
    """The simulate layer refuses the seed, as given, before a replicate draws a dataset
    and before a process pool starts."""
    import concurrent.futures

    from quantify import simulate

    drawn, pools = [], []
    monkeypatch.setattr(simulate, "generate", lambda *args, **kwargs: drawn.append(args))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *args, **kwargs: pools.append(args))
    monkeypatch.setenv("QUANTIFY_THREADS", threads)
    code, stdout, err = run(["simulate", "--study", "mse", "--replicates", "4", "--seed", "-1"],
                            capsys)
    assert (code, stdout, drawn, pools) == (2, "", [], [])
    assert err == "error: seeds must be non-negative, got -1\n"


def test_multiclass_scenario_meta_keeps_its_default_class_sizes(capsys):
    payload = run_json(["simulate", "--scenario", "multiclass", "--study", "multiclass",
                        "--size", "60", "--replicates", "1"], capsys)
    assert payload["meta"] == {"kind": "multiclass_gaussian", "n_class": [20, 30, 50]}


# finite cells whose sums or squares overflow, keyed by the placeholder an argv names them by
EXTREME_CSV = {
    "HUGE_CLASS_MEAN": "s,y,g\n1,0,1.7e308\n1,0,1.7e308\n1,1,-1.7e308\n1,1,1\n0,,0.5\n",
    "HUGE_MULTICLASS_MEAN": "s,y,g,h\n1,0,1.7e308,0\n1,0,1.7e308,1\n1,1,0,0\n1,1,1,1\n0,,0.5,0.5\n",
    "HUGE_UNLABELED_MEAN": "s,y,g\n1,0,0\n1,0,0.2\n1,1,1\n1,1,0.9\n0,,1.7e308\n0,,1.7e308\n",
    "HUGE_CV_ERRORS": "s,y,g,z\n1,0,-1e300,0\n1,1,1e300,0\n"
                      + "".join(f"0,,{(-1) ** i}e300,{i / 11}\n" for i in range(12)),
    "HUGE_COVARIATE": "s,y,g,z\n1,0,0,0\n1,1,1,0\n"
                      + "".join(f"0,,{i % 2},{(-1) ** i}e300\n" for i in range(12)),
}


def _with_cell(csv_path: str, tmp_path: Path, row: int, value: str) -> str:
    """A copy of ``csv_path`` whose data row ``row`` has ``value`` as its first cell."""
    header, *rows = Path(csv_path).read_text().splitlines()
    rows[row] = f"{value},{rows[row].split(',', 1)[1]}"
    path = tmp_path / "edited.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


@pytest.mark.parametrize("kernel, held_out", [
    pytest.param([], False, id="median-bandwidth-x1-times-1e300"),
    pytest.param(["--bandwidth", "1"], True, id="gaussian-held-out-1e308"),
    pytest.param(["--kernel", "linear"], True, id="linear-held-out-1e308"),
])
def test_feature_distances_that_overflow_are_refused_without_a_warning(kernel, held_out, blobs_csv,
                                                                       tmp_path, capsys):
    """select-g over features whose kernel matrix entries could overflow a float: every
    x1 ×1e300, which the median bandwidth reads, or one labeled x1 of 1e308 that the split
    holds out, which only the held-out Gram matrix reads (the pilot fits the other half,
    and a given bandwidth or the linear kernel takes no median).  Exit 2 naming the
    overflow, with every numpy warning raised as an error."""
    if held_out:
        from quantify import CsvSchema, load_csv
        from quantify.rkhs import stratified_split

        data = load_csv(blobs_csv, CsvSchema(set_column="s", label_column="y"))
        path = _with_cell(blobs_csv, tmp_path, stratified_split(data, 0)[2][0], "1e308")
    else:
        header, *rows = Path(blobs_csv).read_text().splitlines()
        path = tmp_path / "huge.csv"
        path.write_text("\n".join([header, *(f"{float(x1) * 1e300!r},{rest}"
                                             for x1, rest in (row.split(",", 1) for row in rows))]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(["select-g", str(path), *TestSelectG.BASE, *kernel], capsys)
    assert (code, stdout) == (2, "")
    assert err == ("error: the squared pairwise distances of the features overflow; "
                   "rescale the features\n")


@pytest.mark.parametrize("command, cell", [
    *(pytest.param(command, cell, id=f"{command[0]}-{name}")
      for command in (["estimate"], ["select-g", "--bandwidth", "1"])
      for name, cell in (("x1-times-1e307", lambda row, x1: repr(float(x1) * 1e307)),
                         ("x1-times-1e300", lambda row, x1: repr(float(x1) * 1e300)))),
    pytest.param(["estimate"], lambda row, x1: "1e308" if row == 0 else x1,
                 id="estimate-one-labeled-1e308"),
])
def test_labeled_features_that_overflow_the_logistic_fit_are_refused_without_a_warning(
        command, cell, blobs_csv, tmp_path, capsys):
    """The built-in logistic fit (estimate's score, select-g's pilot) over labeled
    features whose sum of squares overflows a float: exit 2 naming the overflow, with
    every numpy warning raised as an error, not a numpy warning and "did not converge"."""
    header, *rows = Path(blobs_csv).read_text().splitlines()
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join([header, *(f"{cell(row, x1)},{rest}" for row, (x1, rest)
                                         in enumerate(line.split(",", 1) for line in rows))]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run([command[0], str(huge), *TestSelectG.BASE, *command[1:]], capsys)
    assert (code, stdout) == (2, "")
    assert err == ("error: the squared norms of the labeled features overflow in the logistic "
                   "fit; rescale the features\n")


@pytest.mark.parametrize("extra", [[], ["--ci", "0.95"]], ids=["point", "ci"])
def test_a_far_out_unlabeled_row_gets_the_limit_of_its_logistic_score_without_a_warning(
        extra, blobs_csv, tmp_path, capsys):
    """An unlabeled x1 of -1e308 overflows the logistic predictor to -inf, whose score is
    exactly 0: estimate exits 0 with every numpy warning raised as an error, and gives the
    estimate of the same rows with that one score set to 0."""
    from quantify import CsvSchema, ScoredDataset, fit_logistic, load_csv, ratio_estimate

    far = -1  # the last row is unlabeled
    path = _with_cell(blobs_csv, tmp_path, far, "-1e308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_json(["estimate", path, *TestSelectG.BASE, *extra], capsys)
    data = load_csv(path, CsvSchema(set_column="s", label_column="y"))
    fit = fit_logistic(data)
    assert fit.coef[0, 0] > 1.0  # so that x1 * coef overflows to -inf
    features = data.features.copy()
    features[far, 0] = 0.0
    scores = fit.scores(features)
    scores[far] = 0.0
    expected = ratio_estimate(ScoredDataset(
        unlabeled=scores[data.unlabeled_indices()],
        classes=tuple(scores[data.labeled_class_indices(label)] for label in (0, 1))))
    assert (payload["theta_raw"], payload["diagnostics"]) == (expected.theta_raw,
                                                              expected.to_dict()["diagnostics"])


def test_a_kernel_score_whose_gram_entries_overflow_is_refused_without_a_warning(
        blobs_csv, tmp_path, capsys):
    """estimate --weights on an unlabeled x1 of -1e308: exit 2 naming the overflow, with
    every numpy warning raised as an error, not a score computed from inf - inf."""
    weights = tmp_path / "weights.json"
    assert main(["select-g", blobs_csv, *TestSelectG.BASE, "--out", str(weights)]) == 0
    path = _with_cell(blobs_csv, tmp_path, -1, "-1e308")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(["estimate", path, *TestSelectG.BASE, "--weights", str(weights)],
                                capsys)
    assert (code, stdout) == (2, "")
    assert err == ("error: the squared pairwise distances of the features overflow; "
                   "rescale the features\n")


SMALL_STUDY = ["simulate", "--replicates", "2", "--n-unlabeled", "100"]
SMALL_SHIFT_TEST = ["--test-replicates", "5", "--grid-size", "21"]


@pytest.mark.parametrize("argv, message", [
    *(pytest.param(["select-g", "BLOBS", *TestSelectG.BASE, "--bandwidth", h],
                   f"kernel bandwidth must be positive and finite, got {float(h)}",
                   id=f"select-g-bandwidth-{h}") for h in ("-1", "nan", "inf")),
    *(pytest.param(["select-g", "BLOBS", *TestSelectG.BASE, "--bandwidth", h],
                   f"kernel bandwidth {float(h)} is out of range: "
                   "2 h^2 must be a positive finite float", id=f"select-g-bandwidth-{h}")
      for h in ("1e300", "1e-300")),
    *(pytest.param(["regress", "CURVE", *TestRegress.BASE, "--bandwidth", h],
                   f"bandwidth must be positive and finite, got {float(h)}",
                   id=f"regress-bandwidth-{h}") for h in ("-1", "nan", "inf")),
    pytest.param(["regress", "CURVE", *TestRegress.BASE, "--bandwidth", "1e-300"], None,
                 id="regress-bandwidth-1e-300"),
    pytest.param([*SMALL_STUDY, "--study", "mse", "--mu", "1e300"], None, id="mse-mu-1e300"),
    pytest.param([*SMALL_STUDY, *SMALL_SHIFT_TEST, "--study", "power", "--mu", "1e300"],
                 "the gammas swept must be distinct, got [-1e+300, -1e+300, -1e+300, -1e+300]",
                 id="power-mu-1e300"),
    *(pytest.param([*SMALL_STUDY, "--study", study, "--mu", "1e300"],
                   "the variance needs finite (mu1 - mu0)^2, var0 and var1, got inf, inf and inf",
                   id=f"{study}-mu-1e300") for study in ("coverage", "combined")),
    pytest.param(["simulate", "--study", "mse", "--replicates", "1"], None, id="mse-one-replicate"),
    *(pytest.param([*SMALL_STUDY, *argv], message, id=name) for name, argv, message in [
        ("mse-mu-nan", ["--study", "mse", "--mu", "nan"],
         "scenario field mean0 must be finite, got nan"),
        ("mse-mean1-inf", ["--study", "mse", "--mean1", "inf"],
         "scenario field mean1 must be finite, got inf"),
        ("regression-mu-inf", ["--scenario", "sine", "--study", "regression", "--mu", "inf"],
         "scenario field mean0 must be finite, got -inf"),
        ("power-gamma-nan", [*SMALL_SHIFT_TEST, "--study", "power", "--gamma", "nan"],
         "scenario field gamma must be finite, got nan"),
        ("regression-threshold-nan",
         ["--scenario", "sine", "--study", "regression", "--threshold", "nan"],
         "the cc threshold must be a number, got nan"),
    ]),
    pytest.param(["estimate", "CURVE", *ESTIMATE[1:], "--method", "cc", "--threshold", "nan"],
                 "the cc threshold must be a number, got nan", id="estimate-threshold-nan"),
    pytest.param(["regress", "CURVE", *TestRegress.BASE, "--method", "cc", "--threshold", "nan"],
                 "the cc threshold must be a number, got nan", id="regress-threshold-nan"),
    *(pytest.param([*command, "--min-denom", value],
                   f"min_denom must be non-negative, got {float(value)}",
                   id=f"{command[0]}-min-denom-{value}")
      for command in (["estimate", "CURVE", *ESTIMATE[1:]], ["regress", "CURVE", *TestRegress.BASE],
                      ["select-g", "BLOBS", *TestSelectG.BASE])
      for value in ("nan", "-1")),
    *(pytest.param(["select-g", "BLOBS", *TestSelectG.BASE, "--gamma", value],
                   f"regularization gamma must be nonnegative and finite, got [{value}]",
                   id=f"select-g-gamma-{value}") for value in ("nan", "inf")),
    *(pytest.param([command, name, "--set-col", "s", "--label-col", "y", "--score-col", "g",
                    *extra], message, id=name.lower().replace("_", "-"))
      for command, name, extra, message in [
          ("estimate", "HUGE_CLASS_MEAN", [],
           "the class 0 score mean is not finite: the sum of its scores overflows"),
          ("estimate", "HUGE_MULTICLASS_MEAN", ["--method", "multiclass", "--score-col", "h"],
           "the class 0 score mean is not finite: the sum of its scores overflows"),
          ("estimate", "HUGE_UNLABELED_MEAN", [],
           "the unlabeled score mean is not finite: the sum of its scores overflows"),
          ("regress", "HUGE_CV_ERRORS", ["--covariate-col", "z", "--bandwidth", "cv"],
           "no bandwidth candidate has a finite error"),
          ("regress", "HUGE_COVARIATE", ["--covariate-col", "z"],
           "the covariate's sd overflows; pass a bandwidth explicitly"),
      ]),
])
def test_extreme_values_are_refused_or_print_strict_json(argv, message, blobs_csv, curve_csv,
                                                         tmp_path):
    """An extreme value either ends the process with exit 2 and one line saying
    why (``message``), or runs to exit 0 with stdout that strict JSON accepts,
    undefined values as null; neither writes a traceback or a warning."""
    paths = {"BLOBS": blobs_csv, "CURVE": curve_csv}
    for name, text in EXTREME_CSV.items():
        paths[name] = tmp_path / f"{name.lower()}.csv"
        paths[name].write_text(text)
    argv = [str(paths.get(arg, arg)) for arg in argv]
    src = str(Path(quantify.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "quantify.cli", *argv], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src, "QUANTIFY_THREADS": "1"})
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr, done.stderr
    if message is None:
        assert (done.returncode, done.stderr) == (0, "")

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        json.loads(done.stdout, parse_constant=refuse)
    else:
        assert (done.returncode, done.stdout) == (2, "")
        errors = [line for line in done.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(message), done.stderr


KIND_OF_SCENARIO = {"gaussian": "gaussian", "exponential": "exponential",
                    "gaussian_exponential": "gaussian_exponential", "beta": "beta",
                    "multiclass": "multiclass_gaussian", "sine": "regression_sine"}
STUDIES_OF = {"multiclass": ("multiclass",), "sine": ("regression",)}


@pytest.mark.parametrize("study", ["mse", "coverage", "power", "combined", "multiclass", "regression"])
@pytest.mark.parametrize("scenario", sorted(KIND_OF_SCENARIO))
def test_every_scenario_and_study_pair_runs_or_is_refused_up_front(scenario, study, capsys,
                                                                    monkeypatch):
    """A study runs on the scenarios it has a truth for, and refuses every other
    one with exit 2 and one line naming both, before any dataset is drawn."""
    from quantify import simulate

    drawn, generate = [], simulate.generate

    def counting_generate(*args, **kwargs):
        drawn.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(simulate, "generate", counting_generate)
    monkeypatch.setenv("QUANTIFY_THREADS", "1")
    theta = () if scenario in ("multiclass", "sine") else ("--theta", "0.3")
    sizes = ("--size", "60") if study == "multiclass" else ("--n-unlabeled", "100")
    shift_test = SMALL_SHIFT_TEST if study == "power" else ()
    code, stdout, err = run(["simulate", "--scenario", scenario, "--study", study,
                             "--replicates", "1", *sizes, *shift_test, *theta], capsys)
    if study in STUDIES_OF.get(scenario, ("mse", "coverage", "power", "combined")):
        assert code == 0 and drawn, err
    else:
        kind = KIND_OF_SCENARIO[scenario]
        assert (code, stdout, drawn) == (2, "", [])
        assert err.startswith(f"error: the {study} study cannot run on the {kind!r} scenario kind")
        assert err.count("\n") == 1


# Where the scenarios that read a scenario flag show it in the study's meta;
# every other (scenario, flag) pair is refused by ScenarioSpec, naming the first
# field the flag sets that the kind does not read.
STUDY_OF_SCENARIO = {"gaussian": "mse", "exponential": "mse", "gaussian_exponential": "mse",
                     "beta": "mse", "multiclass": "multiclass", "sine": "regression"}
FLAG_VALUES = {"theta": "0.3", "mu": "3", "mean0": "0.5", "mean1": "4", "cycles": "2"}
FIELDS_OF_FLAG = {"theta": ("theta",), "mu": ("mean0", "mean1"), "mean0": ("mean0",),
                  "mean1": ("mean1",), "cycles": ("cycles",)}
FIELDS_READ = {"gaussian": ("theta", "gamma", "mean0", "mean1"), "exponential": ("theta", "gamma"),
               "gaussian_exponential": ("theta", "gamma", "mean0"), "beta": ("theta", "gamma"),
               "multiclass": (), "sine": ("mean0", "mean1", "cycles")}
# mse, the score kinds' study here, sweeps theta: its rows show the --theta given, its
# meta does not
SHOWN_IN_META = {
    **{(kind, "theta"): {} for kind in ("gaussian", "exponential", "gaussian_exponential", "beta")},
    ("gaussian", "mu"): {"mean0": -3.0, "mean1": 3.0},
    ("sine", "mu"): {"mean0": -3.0, "mean1": 3.0},
    ("gaussian", "mean0"): {"mean0": 0.5},
    ("gaussian_exponential", "mean0"): {"mean0": 0.5},
    ("sine", "mean0"): {"mean0": 0.5},
    ("gaussian", "mean1"): {"mean1": 4.0},
    ("sine", "mean1"): {"mean1": 4.0},
    ("sine", "cycles"): {"cycles": 2},
}


def _unread_field_refusal(scenario, flag):
    """The spec's refusal of the first field ``flag`` sets that ``scenario`` does not read."""
    read = FIELDS_READ[scenario]
    field = next(name for name in FIELDS_OF_FLAG[flag] if name not in read)
    return (f"the {KIND_OF_SCENARIO[scenario]!r} scenario kind does not read {field}, only "
            + ", ".join(("n_unlabeled", "n_class", *read)))


SCENARIO_FLAG_CASES = [
    *(pytest.param(scenario, STUDY_OF_SCENARIO[scenario], [f"--{flag}", value],
                   SHOWN_IN_META.get((scenario, flag)),
                   None if (scenario, flag) in SHOWN_IN_META
                   else _unread_field_refusal(scenario, flag),
                   id=f"{scenario}-{flag}")
      for scenario in STUDY_OF_SCENARIO for flag, value in FLAG_VALUES.items()),
    *(pytest.param("gaussian", study, ["--theta", "0.3", "--theta", "0.4"],
                   {} if study in ("mse", "coverage") else None,
                   f"the {study} study runs at one --theta, got 2", id=f"{study}-two-thetas")
      for study in ("mse", "coverage", "power", "combined", "multiclass", "regression")),
]


@pytest.mark.parametrize("scenario, study, flags, shown, message", SCENARIO_FLAG_CASES)
def test_simulate_uses_each_scenario_flag_or_refuses_it(scenario, study, flags, shown, message,
                                                        capsys, monkeypatch):
    """A scenario flag either reaches the spec, shown in meta (a swept --theta in
    the rows alone), or ends the run with exit 2 and one error line before any
    dataset is drawn."""
    from quantify import simulate

    drawn, generate = [], simulate.generate

    def counting_generate(*args, **kwargs):
        drawn.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(simulate, "generate", counting_generate)
    monkeypatch.setenv("QUANTIFY_THREADS", "1")
    sizes = ("--size", "60") if study == "multiclass" else ("--n-unlabeled", "60")
    shift_test = SMALL_SHIFT_TEST if study == "power" else ()
    label_count = ("--label-count", "10") if study == "combined" else ()
    code, stdout, err = run(["simulate", "--scenario", scenario, "--study", study, *flags,
                             "--replicates", "1", *sizes, *shift_test, *label_count], capsys)
    if shown is None:
        assert (code, stdout, drawn) == (2, "", [])
        assert err == f"error: {message}\n"
    else:
        assert code == 0, err
        meta = json.loads(stdout)["meta"]
        assert {key: meta[key] for key in shown} == shown
        if "--theta" in flags:
            thetas = [float(value) for flag, value in zip(flags, flags[1:]) if flag == "--theta"]
            assert sorted({row[0] for row in json.loads(stdout)["rows"]}) == thetas
            assert "theta" not in meta


@pytest.mark.parametrize("scenario", sorted(STUDY_OF_SCENARIO))
def test_a_scenario_without_flags_is_its_kinds_default_spec(scenario, capsys, monkeypatch):
    """The CLI builds each scenario with the defaults ScenarioSpec takes for its kind;
    the mse study's meta leaves out the theta it sweeps."""
    monkeypatch.setenv("QUANTIFY_THREADS", "1")
    study = STUDY_OF_SCENARIO[scenario]
    sizes = ("--size", "60") if study == "multiclass" else ()
    meta = run_json(["simulate", "--scenario", scenario, "--study", study, "--replicates", "1",
                     *sizes], capsys)["meta"]
    swept = ("theta",) if study == "mse" else ()
    spec = quantify.ScenarioSpec(kind=KIND_OF_SCENARIO[scenario]).meta(*swept)
    assert {key: meta[key] for key in spec} == spec
    assert not set(swept) & set(meta)


# For each command whose method or study picks what runs, the flag that picks it
# and, for each flag that only some choices read, the choices that read it; every
# other choice refuses the flag.  The CLI derives this from the signatures of the
# functions each choice calls, and these tests hold it to this table.
SIZED_STUDIES = ("mse", "coverage", "power", "combined", "regression")
READ_BY = {
    "estimate": ("method", {"ci": ("ratio",), "regime": ("ratio",), "min_denom": ("ratio",),
                            "threshold": ("cc",), "theta_train": ("em",)}),
    "regress": ("method", {"min_denom": ("ratio",), "threshold": ("cc",)}),
    "simulate": ("study", {
        "n_unlabeled": SIZED_STUDIES, "preset": SIZED_STUDIES, "method": ("mse",),
        "level": ("coverage",), "gamma": ("power",), "alpha": ("power",),
        "test_replicates": ("power",), "grid_size": ("power",), "label_count": ("combined",),
        "size": ("multiclass",), "threshold": ("regression",),
    }),
}
# A value each flag of the table accepts, and the scenario each study runs on; the
# scenario flags have their own test above.
READ_BY_VALUES = {"ci": "0.9", "regime": "dense", "min_denom": "1e-3", "threshold": "0.3",
                  "theta_train": "0.4", "n_unlabeled": "100", "preset": "cancer", "method": "ratio",
                  "level": "0.9", "gamma": "0", "alpha": "0.1", "test_replicates": "5",
                  "grid_size": "21", "label_count": "10", "size": "60"}
SCENARIO_OF_STUDY = {study: scenario for scenario, (study,) in STUDIES_OF.items()}
COMMAND_HEAD = {"estimate": ["estimate", "missing.csv", "--set-col", "s"],
                "regress": ["regress", "missing.csv", "--set-col", "s", "--covariate-col", "z"]}
# The multiclass study's --size ladder sets n_unlabeled, so the two flags that set it
# are refused: --n-unlabeled by the study, --preset because its kind has no n_unlabeled.
REFUSED_BY_THE_LAYER = {
    ("multiclass", "n_unlabeled"): "the multiclass study sets n_unlabeled to each of its sizes, "
                                   "so its spec leaves it unset, got 100",
    ("multiclass", "preset"): "--preset sets n_unlabeled, which the 'multiclass_gaussian' "
                              "scenario kind takes from its study's sizes",
}


def _actions_of(command):
    """The argparse action of each flag of ``command``, by destination."""
    (commands,) = build_parser()._subparsers._group_actions
    return {action.dest: action for action in commands.choices[command]._actions}


def _head(command, choice):
    """The argv of ``command`` up to its choice flag: for a file command a data file
    that does not exist, for simulate the scenario the study runs on."""
    return COMMAND_HEAD.get(command) or [
        "simulate", "--scenario", SCENARIO_OF_STUDY.get(choice, "gaussian"), "--replicates", "1"]


def _read_by_cases(read: bool):
    """Each (command, choice, flag) of the table whose choice reads the flag, or does not."""
    for command, (choice_flag, readers) in READ_BY.items():
        for choice in _actions_of(command)[choice_flag].choices:
            for flag, readers_of_flag in readers.items():
                if (choice in readers_of_flag) == read:
                    yield pytest.param(command, choice_flag, choice, flag,
                                       id=f"{command}-{choice}-{flag}")


def _run_with_flag(command, choice_flag, choice, flag, capsys, monkeypatch):
    """``main()`` on ``command`` with ``choice`` and ``flag``, with ``generate`` replaced
    by a stub that records each draw and refuses it: the exit code, stdout, stderr and
    the draws."""
    from quantify import simulate

    drawn = []

    def refuse_to_draw(*args, **kwargs):
        drawn.append(args)
        raise EstimationError("drawn")

    monkeypatch.setattr(simulate, "generate", refuse_to_draw)
    monkeypatch.setenv("QUANTIFY_THREADS", "1")  # so that each draw calls the stub
    code, stdout, err = run([*_head(command, choice), f"--{choice_flag}", choice,
                             f"--{flag.replace('_', '-')}", READ_BY_VALUES[flag]], capsys)
    return code, stdout, err, drawn


@pytest.mark.parametrize("command, choice_flag, choice, flag", _read_by_cases(read=False))
def test_a_flag_its_method_or_study_does_not_read_is_refused(command, choice_flag, choice, flag,
                                                             capsys, monkeypatch):
    """Exit 2 and one line naming the flag and the choice, before the data file
    is read or a dataset is drawn."""
    code, stdout, err, drawn = _run_with_flag(command, choice_flag, choice, flag, capsys,
                                              monkeypatch)
    assert (code, stdout, drawn) == (2, "", [])
    message = REFUSED_BY_THE_LAYER.get((choice, flag)) or (
        f"--{flag.replace('_', '-')} is not a parameter of the {choice} {choice_flag}")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command, choice_flag, choice, flag", _read_by_cases(read=True))
def test_a_flag_its_method_or_study_reads_reaches_the_data(command, choice_flag, choice, flag,
                                                           capsys, monkeypatch):
    """The flag passes every refusal: a file command goes on to read its data file,
    which does not exist, and a study goes on to draw its first dataset."""
    if flag == "regime":
        monkeypatch.setitem(COMMAND_HEAD, command, [*COMMAND_HEAD[command], "--ci", "0.9"])
    code, stdout, err, drawn = _run_with_flag(command, choice_flag, choice, flag, capsys,
                                              monkeypatch)
    if command == "simulate":
        assert (code, err, len(drawn)) == (2, "error: drawn\n", 1)
    else:
        assert (code, stdout) == (1, "")
        assert err.startswith("error: cannot read missing.csv: ")


@pytest.mark.parametrize("command", sorted(READ_BY))
def test_every_flag_a_command_forwards_is_a_parameter_of_one_of_its_choices(command, capsys,
                                                                            monkeypatch):
    """A misspelt parameter name would refuse its flag whatever the choice."""
    from quantify import cli

    forwarded, taken = set(), set()

    def record(args, choice_flag, steps, *flags, **renamed):
        forwarded.update(flags, renamed)
        taken.update(name for step in steps for name in inspect.signature(step).parameters)
        raise EstimationError("recorded")

    monkeypatch.setattr(cli, "_forward", record)
    choice_flag, _ = READ_BY[command]
    for choice in _actions_of(command)[choice_flag].choices:
        assert run([*_head(command, choice), f"--{choice_flag}", choice], capsys)[0] == 2
    assert forwarded and forwarded <= taken, forwarded - taken


def test_read_by_table_names_flags_and_choices_of_its_command():
    """A misspelt flag or choice in the table would test nothing."""
    for command, (choice_flag, readers) in READ_BY.items():
        actions = _actions_of(command)
        assert actions[choice_flag].choices, (command, choice_flag)
        for flag, readers_of_flag in readers.items():
            assert flag in actions and actions[flag].default is None, (command, flag)
            assert set(readers_of_flag) <= set(actions[choice_flag].choices), (command, flag)


def test_cli_imports_no_private_name_of_another_module():
    """cli.py reaches the other layers only through their public names."""
    import ast

    tree = ast.parse(Path(quantify.cli.__file__).read_text())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").partition(".")[0] == "quantify")
               for alias in node.names if alias.name.startswith("_")]
    private += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.partition(".")[0] == "quantify"
                and any(part.startswith("_") for part in alias.name.split(".")[1:])]
    assert private == []


def test_commands_on_one_file_parse_it_once(curve_csv, capsys, monkeypatch, tmp_path):
    from unittest import mock

    from quantify import core

    monkeypatch.setattr(core, "_CACHE_MIN_BYTES", 0)
    outputs = []
    for method in ("ratio", "cc"):
        with mock.patch.object(core, "_fast_columns", side_effect=core._fast_columns) as fast:
            outputs.append(run_json(ESTIMATE[:1] + [curve_csv] + ESTIMATE[1:] + ["--method", method], capsys))
        assert fast.called == (method == "ratio")
    assert len(list((tmp_path / "cache" / "quantify").glob("*.entry"))) == 1
    monkeypatch.setattr(core, "_CACHE_MIN_BYTES", 1 << 20)
    with mock.patch.object(core, "_fast_columns", side_effect=core._fast_columns) as fast:
        assert run_json(ESTIMATE[:1] + [curve_csv] + ESTIMATE[1:] + ["--method", "cc"], capsys) == outputs[1]
    assert fast.called  # a file under 1 MiB is parsed every time


def test_only_the_process_entry_points_freeze_the_heap(eight_csv):
    """The quantify script and python -m quantify.cli run cli.run, which calls
    gc.freeze() before the command; main() called in-process does not."""
    argv = [*ESTIMATE, eight_csv, "--quiet"]
    scripts = {
        "main": f"from quantify.cli import main\nassert main({argv!r}) == 0\n",
        "-m": (f"import runpy\nsys.argv = ['quantify', *{argv!r}]\n"
               "try:\n    runpy.run_module('quantify.cli', run_name='__main__')\n"
               "except SystemExit as done:\n    assert done.code == 0\n"),
    }
    src = str(Path(quantify.__file__).parents[1])
    frozen = {}
    for entry, script in scripts.items():
        done = subprocess.run([sys.executable, "-c", "import gc, sys\n" + script +
                               "print(gc.get_freeze_count())"], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        frozen[entry] = int(done.stdout)
    assert frozen["main"] == 0 and frozen["-m"] > 0
    pyproject = (Path(src).parent / "pyproject.toml").read_text()
    assert '\nquantify = "quantify.cli:run"\n' in pyproject


def test_public_names_resolve_to_their_layers():
    """Layers past core and shift_test load on first use; each public name is
    still the object its layer defines, read there and not kept in the package."""
    star = {}
    exec("from quantify import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == sorted(quantify.__all__)
    for name in quantify.__all__:
        value = getattr(quantify, name)
        assert vars(sys.modules[value.__module__])[name] is value is star[name]
        assert name in dir(quantify)
    layers = [sys.modules[f"quantify.{name}"] for name in
              ("core", "shift_test", "estimators", "regression", "rkhs", "simulate")]
    defined = [[name for name, value in vars(layer).items()
                if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
                and value.__module__ == layer.__name__] for layer in layers]
    assert sorted(sum(defined, [])) == quantify.__all__
    assert not set(vars(quantify)) & set(sum(defined[2:], []))
    assert quantify.shift_test is sys.modules["quantify.shift_test"].shift_test
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        quantify.nothing


LAYERS_LOADED = {
    "import": (),
    "test-shift": (),
    "estimate": ("estimators",),
    "estimate-fit": ("estimators",),
    "select-g": ("estimators", "rkhs"),
    "regress": ("estimators", "regression"),
}


@pytest.mark.parametrize("command", sorted(LAYERS_LOADED))
def test_commands_load_neither_multiprocessing_nor_numpy_ma(command, eight_csv, blobs_csv,
                                                             curve_csv, tmp_path):
    """Each costs 10-40 ms of start-up: the pool is imported where a study uses
    it, np.unique and np.median import numpy.ma on their first call, and a
    layer loads only when its command calls it."""
    weights = str(tmp_path / "g.json")
    runs = {
        "import": [],
        "test-shift": [["test-shift", eight_csv, "--set-col", "s", "--label-col", "y",
                        "--score-col", "g", "--B", "5", "--grid-size", "101"]],
        "estimate": [[*ESTIMATE, eight_csv, "--ci", "0.95"]],
        "estimate-fit": [["estimate", blobs_csv, "--set-col", "s", "--label-col", "y"]],
        "select-g": [["select-g", blobs_csv, *TestSelectG.BASE, "--out", weights],
                     ["estimate", blobs_csv, *TestSelectG.BASE, "--weights", weights]],
        "regress": [["regress", curve_csv, *TestRegress.BASE, "--bandwidth", "cv"]],
    }[command]
    script = "import sys\nfrom quantify.cli import main\n"
    script += "".join(f"assert main({argv!r}) == 0\n" for argv in runs)
    script += "print(sorted({'multiprocessing', 'numpy.ma'} & set(sys.modules)))\n"
    script += "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'quantify'))\n"
    src = str(Path(quantify.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    *_, heavy, layers = done.stdout.splitlines()
    assert heavy == "[]"
    expected = ["quantify", "quantify.cli", "quantify.core", "quantify.shift_test",
                *(f"quantify.{layer}" for layer in LAYERS_LOADED[command])]
    assert layers == repr(sorted(expected))


# A study or scenario that reads each numeric simulate flag, at tiny sizes; the
# swept flag is appended last, and no base gives it too.
POWER_BASE = ["--study", "power", "--n-unlabeled", "20"]
SWEEP_BASES = {
    "n-unlabeled": ["--study", "mse"],
    "n-class": ["--study", "mse", "--n-unlabeled", "20", "--n-class", "10"],
    "theta": ["--study", "mse", "--n-unlabeled", "20"],
    "mu": ["--study", "mse", "--n-unlabeled", "20"],
    "mean0": ["--study", "mse", "--n-unlabeled", "20"],
    "mean1": ["--study", "mse", "--n-unlabeled", "20"],
    "seed": ["--study", "mse", "--n-unlabeled", "20"],
    "level": ["--study", "coverage", "--n-unlabeled", "20"],
    "gamma": [*POWER_BASE, *SMALL_SHIFT_TEST],
    "alpha": [*POWER_BASE, *SMALL_SHIFT_TEST],
    "test-replicates": [*POWER_BASE, "--grid-size", "21"],
    "grid-size": [*POWER_BASE, "--test-replicates", "5"],
    "label-count": ["--study", "combined", "--n-unlabeled", "20"],
    "size": ["--scenario", "multiclass", "--study", "multiclass"],
    "cycles": ["--scenario", "sine", "--study", "regression", "--n-unlabeled", "20"],
    "threshold": ["--scenario", "sine", "--study", "regression", "--n-unlabeled", "20"],
    "replicates": ["--study", "mse", "--n-unlabeled", "20"],
}
SWEEP_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300")


def _exits_0_with_strict_json_or_2_with_one_error_line(argv, capsys):
    """``main(argv)`` with every warning an error: exit 0 with strict JSON and an empty
    stderr, or exit 2 with one ``error:`` line (argparse's refusal included)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning fails the case as an exception
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        json.loads(captured.out, parse_constant=refuse)
    else:
        assert (code, captured.out) == (2, "")
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1, captured.err


@pytest.mark.parametrize("flag, value", [
    pytest.param(flag, value, id=f"{flag}-{value}") for flag in SWEEP_BASES for value in SWEEP_VALUES
])
def test_simulate_flag_sweep_exits_0_with_strict_json_or_2_with_one_error_line(
        flag, value, capsys, monkeypatch):
    """Each numeric simulate flag at each hostile value, passed to a study or
    scenario that reads it: exit 0 with strict JSON and an empty stderr, or exit 2
    with one ``error:`` line; never a traceback or a warning.  Integer flags see
    no large literal, which argparse refuses, so no case starts unbounded work."""
    monkeypatch.setenv("QUANTIFY_THREADS", "1")
    replicates = [] if flag == "replicates" else ["--replicates", "1"]
    _exits_0_with_strict_json_or_2_with_one_error_line(
        ["simulate", *SWEEP_BASES[flag], *replicates, f"--{flag}", value], capsys)


# A method that reads each numeric flag of the commands on data files, with a file
# small enough that every case runs in milliseconds; the swept flag is appended
# last, and no base gives it too.  Each --grid part is swept in turn.
EIGHT_SCORE = ["EIGHT", "--set-col", "s", "--label-col", "y", "--score-col", "g"]
SHIFT_BASE = ["test-shift", *EIGHT_SCORE]
CURVE_BASE = ["regress", "CURVE", *TestRegress.BASE]
FILE_SWEEP_BASES = {
    "estimate-ci": ["estimate", *EIGHT_SCORE, "--ci"],
    "estimate-min-denom": ["estimate", *EIGHT_SCORE, "--min-denom"],
    "estimate-threshold": ["estimate", *EIGHT_SCORE, "--method", "cc", "--threshold"],
    "estimate-theta-train": ["estimate", *EIGHT_SCORE, "--method", "em", "--theta-train"],
    "test-shift-replicates": [*SHIFT_BASE, "--grid-size", "21", "--replicates"],
    "test-shift-grid-size": [*SHIFT_BASE, "--replicates", "5", "--grid-size"],
    "test-shift-seed": [*SHIFT_BASE, "--replicates", "5", "--grid-size", "21", "--seed"],
    "select-g-bandwidth": ["select-g", "BLOBS", *TestSelectG.BASE, "--bandwidth"],
    "select-g-gamma": ["select-g", "BLOBS", *TestSelectG.BASE, "--gamma"],
    "select-g-min-denom": ["select-g", "BLOBS", *TestSelectG.BASE, "--min-denom"],
    "select-g-seed": ["select-g", "BLOBS", *TestSelectG.BASE, "--seed"],
    "regress-bandwidth": [*CURVE_BASE, "--bandwidth"],
    "regress-min-denom": [*CURVE_BASE, "--min-denom"],
    "regress-threshold": [*CURVE_BASE, "--method", "cc", "--threshold"],
    "regress-grid-start": [*CURVE_BASE, "--grid", "{}:1:11"],
    "regress-grid-stop": [*CURVE_BASE, "--grid", "0:{}:11"],
    "regress-grid-points": [*CURVE_BASE, "--grid", "0:1:{}"],
}


@pytest.mark.parametrize("case, value", [
    pytest.param(case, value, id=f"{case}-{value}")
    for case in FILE_SWEEP_BASES for value in SWEEP_VALUES
])
def test_file_command_flag_sweep_exits_0_with_strict_json_or_2_with_one_error_line(
        case, value, eight_csv, blobs_csv, curve_csv, capsys):
    """Each numeric flag of estimate, test-shift, select-g and regress at each
    hostile value, passed to a method that reads it: exit 0 with strict JSON and
    an empty stderr, or exit 2 with one ``error:`` line; never a traceback or a
    warning.  The flags left out take the values their layers state."""
    paths = {"EIGHT": eight_csv, "BLOBS": blobs_csv, "CURVE": curve_csv}
    *head, last = FILE_SWEEP_BASES[case]
    argv = [paths.get(arg, arg) for arg in head]
    argv += [last.format(value)] if "{}" in last else [last, value]
    _exits_0_with_strict_json_or_2_with_one_error_line(argv, capsys)
