"""Byte-for-byte goldens of small seeded ``simulate`` runs.

Each case's stdout, its ``--out`` file if it writes one, and its exit code
with stderr are kept under ``tests/golden/simulate/``.  An intended output
move shows as a diff of those files: rewrite them with

    PYTHONPATH=src python tests/test_golden.py

Every case runs with QUANTIFY_THREADS=1, in a fresh directory, so that a
relative ``--out`` path prints the same bytes wherever it runs.  The
multiclass cases fit logistic scores through BLAS, whose summation order
may follow its thread count, so they run together in one subprocess with
BLAS pinned to one thread; the rest run in-process through ``main()``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).parent / "golden" / "simulate"
NUMPY_VERSION = GOLDEN / "numpy-version"
SMALL = ("--replicates", "2", "--n-unlabeled", "40")
SHIFT_TEST = ("--test-replicates", "5", "--grid-size", "21")
MULTICLASS = ("--scenario", "multiclass", "--study", "multiclass", "--replicates", "2")

# name -> simulate argv; between them every study, scenario and output mode
CASES = {
    "mse-gaussian": ("--study", "mse", *SMALL, "--seed", "1"),
    "mse-beta-em-out": ("--scenario", "beta", "--study", "mse", "--method", "ratio", "--method",
                        "em", "--theta", "0.2", "--theta", "0.5", *SMALL, "--out", "mse.csv"),
    "mse-exponential-preset": ("--scenario", "exponential", "--study", "mse", "--preset", "cancer",
                               "--replicates", "2", "--seed", "3"),
    "mse-gaussian-exponential-mean0": ("--scenario", "gaussian_exponential", "--study", "mse",
                                       "--mean0", "0.5", *SMALL),
    "mse-gaussian-csv-stdout": ("--study", "mse", "--method", "cc", *SMALL, "--output", "csv"),
    "coverage-gaussian-mu-out": ("--study", "coverage", "--mu", "1.5", "--level", "0.9", *SMALL,
                                 "--out", "coverage.csv"),
    "coverage-beta": ("--scenario", "beta", "--study", "coverage", *SMALL, "--seed", "2"),
    "power-gaussian": ("--study", "power", *SMALL, *SHIFT_TEST),
    "power-exponential-gamma-out": ("--scenario", "exponential", "--study", "power", "--gamma",
                                    "1", "--gamma", "2.5", "--alpha", "0.1", *SMALL, *SHIFT_TEST,
                                    "--out", "power.csv"),
    "power-gaussian-exponential": ("--scenario", "gaussian_exponential", "--study", "power",
                                   *SMALL, *SHIFT_TEST, "--seed", "4"),
    "power-beta-gamma": ("--scenario", "beta", "--study", "power", "--gamma", "1", "--gamma",
                         "0.5", *SMALL, *SHIFT_TEST),
    "combined-gaussian-out": ("--study", "combined", "--label-count", "0", "--label-count", "10",
                              *SMALL, "--out", "combined.csv"),
    "combined-exponential": ("--scenario", "exponential", "--study", "combined", "--theta", "0.3",
                             "--label-count", "5", *SMALL),
    "multiclass": (*MULTICLASS, "--size", "60", "--size", "90"),
    "multiclass-n-class-out": (*MULTICLASS, "--n-class", "10", "--n-class", "20", "--n-class",
                               "30", "--size", "60", "--out", "multiclass.csv"),
    "regression-sine-mu-cycles-out": ("--scenario", "sine", "--study", "regression", "--mu", "2",
                                      "--cycles", "2", *SMALL, "--out", "regression.csv"),
    "regression-sine": ("--scenario", "sine", "--study", "regression", "--threshold", "0.1",
                        *SMALL, "--seed", "5"),
    "refused-multiclass-two-class-sizes": (*MULTICLASS, "--n-class", "5", "--n-class", "5",
                                           "--size", "60"),
    "refused-exponential-zero-gamma": ("--scenario", "exponential", "--study", "power",
                                       "--gamma", "0", *SMALL, *SHIFT_TEST),
    "refused-gaussian-one-class-size": ("--study", "mse", "--n-class", "50", *SMALL),
}
# the cases that go through BLAS
SUBPROCESS_CASES = tuple(name for name in CASES if name.startswith(("multiclass", "refused-multi")))


def run_case(argv) -> dict[str, bytes]:
    """``simulate argv`` through ``main()`` in a fresh directory: the files to compare it by."""
    from quantify.cli import main

    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(["simulate", *argv])
                except SystemExit as exc:  # argparse's exit
                    code = exc.code
            files = {".stdout": out.getvalue().encode(),
                     ".err": f"exit {code}\n{err.getvalue()}".encode()}
            for path in Path(workdir).iterdir():
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


def recorded(name: str) -> dict[str, bytes]:
    return {path.suffix: path.read_bytes() for path in GOLDEN.glob(f"{name}.*")}


def test_simulate_outputs_match_their_goldens(monkeypatch):
    """Every byte of every case, on the numpy version the goldens were written with."""
    monkeypatch.setenv("QUANTIFY_THREADS", "1")
    assert NUMPY_VERSION.read_text().strip() == np.__version__, (
        f"the goldens were written with numpy {NUMPY_VERSION.read_text().strip()}, "
        f"this is numpy {np.__version__}: rewrite them with python tests/test_golden.py "
        "and check the diff")
    for name, files in run_cases().items():
        assert files == recorded(name), name
    kept = {path.name.split(".")[0] for path in GOLDEN.iterdir() if path != NUMPY_VERSION}
    assert kept == set(CASES), "a golden file without its case"


def _rewrite() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for path in GOLDEN.iterdir():
        path.unlink()
    NUMPY_VERSION.write_text(np.__version__ + "\n")
    for name, files in run_cases().items():
        for suffix, data in files.items():
            (GOLDEN / f"{name}{suffix}").write_bytes(data)


if __name__ == "__main__":
    os.environ["QUANTIFY_THREADS"] = "1"
    if sys.argv[1:2] == ["--child"]:
        # bytes through JSON: latin-1 maps each byte to one code point and back
        print(json.dumps({name: {suffix: data.decode("latin-1")
                                 for suffix, data in run_case(CASES[name]).items()}
                          for name in sys.argv[2:]}))
    else:
        _rewrite()
