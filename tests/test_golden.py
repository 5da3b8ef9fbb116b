"""Byte-for-byte goldens of small seeded CLI runs.

Each case's stdout, its ``--out`` file if it writes one, and its exit code
with stderr are kept under ``tests/golden/<command>/``.  An intended output
move shows as a diff of those files: rewrite them with

    PYTHONPATH=src python tests/test_golden.py

Every case runs with QUANTIFY_THREADS=1, in a fresh directory that holds the
small input files of ``inputs()``, so that relative paths print the same
bytes wherever it runs.  The cases that go through BLAS (logistic and kernel
fits, matrix products, least squares) may sum in an order that follows its
thread count, so they run together in one subprocess with BLAS pinned to one
thread; the rest run in-process through ``main()``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).parent / "golden"
NUMPY_VERSION = GOLDEN / "numpy-version"
SMALL = ("--replicates", "2", "--n-unlabeled", "40")
SHIFT_TEST = ("--test-replicates", "5", "--grid-size", "21")
MULTICLASS = ("simulate", "--scenario", "multiclass", "--study", "multiclass", "--replicates", "2")
BINARY = ("binary.csv", "--set-col", "s", "--label-col", "y")
SCORE = (*BINARY, "--score-col", "g")
FEATURES = (*BINARY, "--feature-col", "x1", "--feature-col", "x2")
CURVE = (*SCORE, "--covariate-col", "z", "--grid", "0:1:11")

# name -> argv; between them every command, method, study, scenario and output mode
CASES = {
    "mse-gaussian": ("simulate", "--study", "mse", *SMALL, "--seed", "1"),
    "mse-beta-em-out": ("simulate", "--scenario", "beta", "--study", "mse", "--method", "ratio",
                        "--method", "em", "--theta", "0.2", "--theta", "0.5", *SMALL,
                        "--out", "mse.csv"),
    "mse-exponential-preset": ("simulate", "--scenario", "exponential", "--study", "mse",
                               "--preset", "cancer", "--replicates", "2", "--seed", "3"),
    "mse-gaussian-exponential-mean0": ("simulate", "--scenario", "gaussian_exponential",
                                       "--study", "mse", "--mean0", "0.5", *SMALL),
    "mse-gaussian-csv-stdout": ("simulate", "--study", "mse", "--method", "cc", *SMALL,
                                "--output", "csv"),
    "coverage-gaussian-mu-out": ("simulate", "--study", "coverage", "--mu", "1.5", "--level",
                                 "0.9", *SMALL, "--out", "coverage.csv"),
    "coverage-beta": ("simulate", "--scenario", "beta", "--study", "coverage", *SMALL,
                      "--seed", "2"),
    "power-gaussian": ("simulate", "--study", "power", *SMALL, *SHIFT_TEST),
    "power-exponential-gamma-out": ("simulate", "--scenario", "exponential", "--study", "power",
                                    "--gamma", "1", "--gamma", "2.5", "--alpha", "0.1", *SMALL,
                                    *SHIFT_TEST, "--out", "power.csv"),
    "power-gaussian-exponential": ("simulate", "--scenario", "gaussian_exponential", "--study",
                                   "power", *SMALL, *SHIFT_TEST, "--seed", "4"),
    "power-beta-gamma": ("simulate", "--scenario", "beta", "--study", "power", "--gamma", "1",
                         "--gamma", "0.5", *SMALL, *SHIFT_TEST),
    "combined-gaussian-out": ("simulate", "--study", "combined", "--label-count", "0",
                              "--label-count", "10", *SMALL, "--out", "combined.csv"),
    "combined-exponential": ("simulate", "--scenario", "exponential", "--study", "combined",
                             "--theta", "0.3", "--label-count", "5", *SMALL),
    "multiclass": (*MULTICLASS, "--size", "60", "--size", "90"),
    "multiclass-n-class-out": (*MULTICLASS, "--n-class", "10", "--n-class", "20", "--n-class",
                               "30", "--size", "60", "--out", "multiclass.csv"),
    "regression-sine-mu-cycles-out": ("simulate", "--scenario", "sine", "--study", "regression",
                                      "--mu", "2", "--cycles", "2", *SMALL,
                                      "--out", "regression.csv"),
    "regression-sine": ("simulate", "--scenario", "sine", "--study", "regression", "--threshold",
                        "0.1", *SMALL, "--seed", "5"),
    "regression-sine-mean0-mean1": ("simulate", "--scenario", "sine", "--study", "regression",
                                    "--mean0", "-0.5", "--mean1", "1.5", *SMALL),
    "refused-multiclass-two-class-sizes": (*MULTICLASS, "--n-class", "5", "--n-class", "5",
                                           "--size", "60"),
    "refused-exponential-zero-gamma": ("simulate", "--scenario", "exponential", "--study",
                                       "power", "--gamma", "0", *SMALL, *SHIFT_TEST),
    "refused-gaussian-one-class-size": ("simulate", "--study", "mse", "--n-class", "50", *SMALL),
    "refused-exponential-mu": ("simulate", "--scenario", "exponential", "--study", "mse", "--mu",
                               "1", *SMALL),
    "refused-simulate-negative-seed": ("simulate", "--study", "mse", *SMALL, "--seed", "-1"),
    "estimate-ratio": ("estimate", *SCORE),
    "estimate-ratio-ci-sparse-csv": ("estimate", *SCORE, "--ci", "0.9", "--regime", "sparse",
                                     "--output", "csv"),
    "estimate-cc-threshold": ("estimate", *SCORE, "--method", "cc", "--threshold", "0.4"),
    "estimate-em-theta-train": ("estimate", *SCORE, "--method", "em", "--theta-train", "0.4"),
    "estimate-logistic-ci": ("estimate", *FEATURES, "--ci", "0.95"),
    "estimate-weights-ci": ("estimate", *FEATURES, "--weights", "weights.json", "--ci", "0.95"),
    # numpy's parser refuses the cell 1_0.5 that float() reads, so the file goes through
    # the exact per-record pass
    "estimate-logistic-underscore-cell": ("estimate", "underscore.csv", *FEATURES[1:]),
    "estimate-multiclass": ("estimate", "three-class.csv", "--set-col", "s", "--label-col", "y",
                            "--method", "multiclass", "--score-col", "g1", "--score-col", "g2"),
    "estimate-multiclass-logistic": ("estimate", "three-class.csv", "--set-col", "s", "--label-col",
                                     "y", "--method", "multiclass"),
    "refused-estimate-unknown-column": ("estimate", *BINARY, "--score-col", "nope"),
    "refused-estimate-three-class-logistic": ("estimate", "three-class.csv", "--set-col", "s",
                                              "--label-col", "y"),
    "test-shift": ("test-shift", *SCORE, "--B", "20", "--grid", "51", "--seed", "3"),
    "test-shift-csv": ("test-shift", *SCORE, "--B", "10", "--output", "csv"),
    "refused-test-shift-no-replicates": ("test-shift", *SCORE, "--B", "0"),
    "refused-test-shift-negative-seed": ("test-shift", *SCORE, "--seed", "-1"),
    "select-g-out": ("select-g", *FEATURES, "--seed", "2", "--out", "selection.json"),
    "select-g-linear-gamma": ("select-g", *FEATURES, "--kernel", "linear", "--gamma", "0.1",
                              "--gamma", "1"),
    "refused-select-g-csv-stdout": ("select-g", *FEATURES, "--output", "csv"),
    "select-g-bandwidth-out": ("select-g", *FEATURES, "--bandwidth", "0.8", "--out",
                               "selection.json"),
    "refused-select-g-negative-bandwidth": ("select-g", *FEATURES, "--bandwidth", "-1"),
    "regress-ratio": ("regress", *CURVE),
    "regress-ratio-bandwidth": ("regress", *CURVE, "--bandwidth", "0.3"),
    "refused-regress-infinite-bandwidth": ("regress", *CURVE, "--bandwidth", "inf"),
    "regress-cc-cv-out": ("regress", *CURVE, "--method", "cc", "--threshold", "0.4",
                          "--bandwidth", "cv", "--out", "curve.csv"),
    "regress-ratio-cv-csv-stdout": ("regress", *CURVE, "--bandwidth", "cv", "--output", "csv"),
    "refused-regress-ratio-threshold": ("regress", *CURVE, "--threshold", "0.4"),
}
# the cases that go through BLAS: the logistic and kernel fits, the smoothers' products
# and the multiclass least squares
SUBPROCESS_CASES = ("multiclass", "multiclass-n-class-out", "refused-multiclass-two-class-sizes",
                    "estimate-logistic-ci", "estimate-weights-ci", "estimate-multiclass",
                    "estimate-multiclass-logistic", "estimate-logistic-underscore-cell",
                    "select-g-out", "select-g-linear-gamma", "select-g-bandwidth-out",
                    "regress-ratio", "regress-ratio-bandwidth", "regress-cc-cv-out",
                    "regress-ratio-cv-csv-stdout")


@functools.cache
def inputs() -> dict[str, bytes]:
    """The files every case finds in its directory, drawn from a fixed seed: a binary
    sample with two features, a score and a covariate; the same sample with its first
    feature cell written 1_0.5; a 3-class sample with two score columns; and a kernel
    selection over the binary sample's features."""
    rng = np.random.default_rng(20)
    n_class, n_unlabeled = 40, 120
    z = rng.random(2 * n_class + n_unlabeled)
    unlabeled = (rng.random(n_unlabeled) < 0.2 + 0.5 * z[2 * n_class:]).astype(int)
    labels = np.concatenate([np.repeat([0, 1], n_class), unlabeled])
    x = rng.standard_normal((labels.size, 2)) + np.where(labels == 1, 0.75, -0.75)[:, None]
    g = 1.0 / (1.0 + np.exp(-1.5 * x.sum(axis=1)))
    binary = ["s,y,x1,x2,g,z"]
    for row, (label, (x1, x2), score, covariate) in enumerate(zip(labels, x, g, z)):
        labeled = row < 2 * n_class
        binary.append(f"{int(labeled)},{label if labeled else ''},{x1:.6f},{x2:.6f},"
                      f"{score:.6f},{covariate:.6f}")
    means = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    classes = np.concatenate([np.repeat([0, 1, 2], 30), rng.choice(3, 90, p=(0.5, 0.2, 0.3))])
    scores = rng.standard_normal((classes.size, 2)) + means[classes]
    multiclass = ["s,y,g1,g2"]
    for row, (label, (g1, g2)) in enumerate(zip(classes, scores)):
        labeled = row < 90
        multiclass.append(f"{int(labeled)},{label if labeled else ''},{g1:.6f},{g2:.6f}")
    selection = {"weights": [-1.0, 0.25, 1.0], "anchors": [[-1.0, -1.0], [0.0, 0.5], [1.0, 1.0]],
                 "kernel": {"family": "gaussian", "bandwidth": 1.0},
                 "gamma": 0.1, "objective": 1.0, "theta_pilot": 0.5}
    underscore = [binary[0], "1,0,1_0.5," + binary[1].split(",", 3)[3], *binary[2:]]
    return {"binary.csv": "\n".join(binary + [""]).encode(),
            "underscore.csv": "\n".join(underscore + [""]).encode(),
            "three-class.csv": "\n".join(multiclass + [""]).encode(),
            "weights.json": json.dumps(selection).encode()}


def run_case(argv) -> dict[str, bytes]:
    """``argv`` through ``main()`` in a fresh directory holding ``inputs()``: the files to
    compare it by, each new file keyed by its suffix."""
    from quantify.cli import main

    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        for name, data in inputs().items():
            (Path(workdir) / name).write_bytes(data)
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse's exit
                    code = exc.code
            files = {".stdout": out.getvalue().encode(),
                     ".err": f"exit {code}\n{err.getvalue()}".encode()}
            for path in Path(workdir).iterdir():
                if path.name not in inputs():
                    files[path.suffix] = path.read_bytes()
        finally:
            os.chdir(cwd)
    return files


def run_cases() -> dict[str, dict[str, bytes]]:
    """Each case's files: the BLAS cases from one pinned subprocess, the rest in-process.
    The caller sets QUANTIFY_THREADS=1."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    done = subprocess.run([sys.executable, __file__, "--child", *SUBPROCESS_CASES], env=env,
                          capture_output=True, check=True, timeout=120)
    results = {name: {suffix: text.encode("latin-1") for suffix, text in files.items()}
               for name, files in json.loads(done.stdout).items()}
    for name, argv in CASES.items():
        if name not in SUBPROCESS_CASES:
            results[name] = run_case(argv)
    return results


def golden_dir(name: str) -> Path:
    return GOLDEN / CASES[name][0]


def recorded(name: str) -> dict[str, bytes]:
    return {path.suffix: path.read_bytes() for path in golden_dir(name).glob(f"{name}.*")}


def test_cli_outputs_match_their_goldens(monkeypatch):
    """Every byte of every case, on the numpy version the goldens were written with."""
    monkeypatch.setenv("QUANTIFY_THREADS", "1")
    assert NUMPY_VERSION.read_text().strip() == np.__version__, (
        f"the goldens were written with numpy {NUMPY_VERSION.read_text().strip()}, "
        f"this is numpy {np.__version__}: rewrite them with python tests/test_golden.py "
        "and check the diff")
    for name, files in run_cases().items():
        assert files == recorded(name), name
    kept = {(path.parent.name, path.name.split(".")[0]) for path in GOLDEN.glob("*/*")}
    assert kept == {(argv[0], name) for name, argv in CASES.items()}, "a golden file without its case"


def _rewrite() -> None:
    for path in GOLDEN.glob("*/*"):
        path.unlink()
    GOLDEN.mkdir(exist_ok=True)
    NUMPY_VERSION.write_text(np.__version__ + "\n")
    for name, files in run_cases().items():
        golden_dir(name).mkdir(exist_ok=True)
        for suffix, data in files.items():
            (golden_dir(name) / f"{name}{suffix}").write_bytes(data)


if __name__ == "__main__":
    os.environ["QUANTIFY_THREADS"] = "1"
    if sys.argv[1:2] == ["--child"]:
        # bytes through JSON: latin-1 maps each byte to one code point and back
        print(json.dumps({name: {suffix: data.decode("latin-1")
                                 for suffix, data in run_case(CASES[name]).items()}
                          for name in sys.argv[2:]}))
    else:
        _rewrite()
