"""Seeded workloads: synthetic inputs, the CLI jobs that read them, and the pinned
concurrency each workload runs under.

Every input is generated in-process from the workload seed, so the same seed
gives byte-identical files; no data file is committed.  Each workload returns a
``truth`` dict holding what the oracles need (the written score values, the
generating prevalences, the expected table sizes).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``python -m quantify.cli <argv>`` run in the work directory."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()  # files the job writes, compared byte for byte across passes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, Path], tuple[list[Job], dict]]
    study_workers: int = 1  # QUANTIFY_THREADS for the CLI jobs


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _fixed(values: np.ndarray) -> np.ndarray:
    """Round to 6 decimals so that ``%.6f`` text parses back to the same doubles."""
    return np.rint(values * 1e6) / 1e6


def write_csv(path: Path, columns: dict[str, list[str]]) -> None:
    header = ",".join(columns)
    body = "\n".join(map(",".join, zip(*columns.values())))
    path.write_text(header + "\n" + body + "\n")


def _six_decimals(values: np.ndarray) -> list[str]:
    return [f"{v:.6f}" for v in values.tolist()]


def _exact(values: np.ndarray) -> list[str]:
    return [repr(v) for v in values.tolist()]


def _groups(sets: np.ndarray, labels: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "class0": np.flatnonzero((sets == 1) & (labels == 0)),
        "class1": np.flatnonzero((sets == 1) & (labels == 1)),
        "unlabeled": np.flatnonzero(sets == 0),
    }


def _label_cells(sets: np.ndarray, labels: np.ndarray) -> list[str]:
    return [str(y) if s == 1 else "" for s, y in zip(sets.tolist(), labels.tolist())]


def _binary_sample(rng, n_class: int, n_unlabeled: int, theta: float):
    """Set indicator and labels: n_class rows per labeled class, then an exact-count
    unlabeled block at prevalence theta, in shuffled row order."""
    n1_u = int(round(theta * n_unlabeled))
    sets = np.concatenate([np.ones(2 * n_class, int), np.zeros(n_unlabeled, int)])
    labels = np.concatenate(
        [np.repeat([0, 1], n_class), np.zeros(n_unlabeled - n1_u, int), np.ones(n1_u, int)]
    )
    order = rng.permutation(sets.size)
    return sets[order], labels[order], n1_u / n_unlabeled


def _gaussian_features(rng, labels: np.ndarray, dim: int, shift: float) -> np.ndarray:
    """Features N(+-shift * 1, I); the balanced-prior posterior logit is 2 * shift * sum(x)."""
    centre = np.where(labels == 1, shift, -shift)[:, None]
    return _fixed(rng.standard_normal((labels.size, dim)) + centre)


def _posterior(x: np.ndarray, shift: float) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-2.0 * shift * x.sum(axis=1)))


SCHEMA = ("--set-col", "s", "--label-col", "y")


def make_csv_estimate(seed: int, workdir: Path):
    rng = rng_for("csv-estimate", seed)
    theta = float(rng.uniform(0.2, 0.8))
    sets, labels, theta = _binary_sample(rng, 5_000, 90_000, theta)
    x = _gaussian_features(rng, labels, 6, 0.5)
    g = _posterior(x, 0.5)
    columns = {"s": [str(s) for s in sets.tolist()], "y": _label_cells(sets, labels)}
    columns.update({f"x{j + 1}": _six_decimals(x[:, j]) for j in range(x.shape[1])})
    columns["g"] = _exact(g)
    write_csv(workdir / "data.csv", columns)
    score = ("--score-col", "g")
    jobs = [
        Job("estimate-g-ci", ("estimate", "data.csv", *SCHEMA, *score, "--ci", "0.95")),
        Job("estimate-logistic", ("estimate", "data.csv", *SCHEMA)),
        Job("estimate-g-em", ("estimate", "data.csv", *SCHEMA, *score, "--method", "em")),
    ]
    groups = _groups(sets, labels)
    truth = {"theta": theta, "scores": {"data.csv": {k: g[v] for k, v in groups.items()}}}
    return jobs, truth


def _score_file(rng, path: Path, n_class: int, n_unlabeled: int, theta: float) -> dict:
    """Gaussian score scenario: class 0 ~ N(0, 1), class 1 ~ N(2, 1), exact mixture."""
    sets, labels, _ = _binary_sample(rng, n_class, n_unlabeled, theta)
    g = rng.standard_normal(sets.size) + 2.0 * labels
    columns = {"s": [str(s) for s in sets.tolist()], "y": _label_cells(sets, labels), "g": _exact(g)}
    write_csv(path, columns)
    return {k: g[v] for k, v in _groups(sets, labels).items()}


def make_shift_test(seed: int, workdir: Path):
    rng = rng_for("shift-test", seed)
    theta = float(rng.uniform(0.2, 0.8))
    scores = {
        "candles.csv": _score_file(rng, workdir / "candles.csv", 150, 300, theta),
        "bank.csv": _score_file(rng, workdir / "bank.csv", 150, 10_000, theta),
    }
    tail = ("--score-col", "g", "--seed", str(seed))
    jobs = [
        Job("test-shift-candles", ("test-shift", "candles.csv", *SCHEMA, *tail, "--B", "300")),
        Job("test-shift-bank", ("test-shift", "bank.csv", *SCHEMA, *tail, "--B", "15")),
    ]
    return jobs, {"scores": scores}


KERNEL_FEATURES = ("x1", "x2", "x3", "x4")


def kernel_prevalence(z: np.ndarray) -> np.ndarray:
    """Unlabeled class-1 prevalence as a function of the covariate z in [0, 1]."""
    return 0.25 + 0.5 * z


def make_kernel_curve(seed: int, workdir: Path):
    rng = rng_for("kernel-curve", seed)
    n_class, n_unlabeled = 1000, 5000
    z = _fixed(rng.random(2 * n_class + n_unlabeled))
    sets = np.concatenate([np.ones(2 * n_class, int), np.zeros(n_unlabeled, int)])
    unlabeled = (rng.random(n_unlabeled) < kernel_prevalence(z[2 * n_class:])).astype(int)
    labels = np.concatenate([np.repeat([0, 1], n_class), unlabeled])
    x = _gaussian_features(rng, labels, len(KERNEL_FEATURES), 0.5)
    g = _posterior(x, 0.5)
    columns = {"s": [str(s) for s in sets.tolist()], "y": _label_cells(sets, labels)}
    columns.update({name: _six_decimals(x[:, j]) for j, name in enumerate(KERNEL_FEATURES)})
    columns["g"] = _exact(g)
    columns["z"] = _six_decimals(z)
    write_csv(workdir / "data.csv", columns)
    features = tuple(a for name in KERNEL_FEATURES for a in ("--feature-col", name))
    jobs = [
        Job("select-g", ("select-g", "data.csv", *SCHEMA, *features, "--seed", str(seed),
                         "--out", "sel.json"), outputs=("sel.json",)),
        Job("estimate-weights", ("estimate", "data.csv", *SCHEMA, *features,
                                 "--weights", "sel.json", "--ci", "0.95")),
        Job("regress-cv", ("regress", "data.csv", *SCHEMA, "--score-col", "g",
                           "--covariate-col", "z", "--bandwidth", "cv")),
    ]
    groups = _groups(sets, labels)
    truth = {
        "theta": float(labels[sets == 0].mean()),
        "class_sizes": (n_class, n_class),
        "features": x,
        "labeled_features": x[sets == 1],
        "groups": groups,
        "scores": {k: g[v] for k, v in groups.items()},
        "covariate": z[groups["unlabeled"]],
    }
    return jobs, truth


POWER_GAMMAS = 4  # the CLI's default gaussian shift sweep

# (job name, CLI arguments, expected rows in the study CSV)
STUDIES = (
    ("power", ("--study", "power", "--replicates", "2", "--test-replicates", "200",
               "--grid-size", "201"), POWER_GAMMAS * 2),
    ("mse", ("--study", "mse", "--replicates", "100"), 5 * 100 * 2),
    ("coverage", ("--study", "coverage", "--replicates", "100"), 5 * 100),
    ("combined", ("--study", "combined", "--replicates", "100"), 100 * (1 + 4 * 3)),
    ("multiclass", ("--scenario", "multiclass", "--study", "multiclass", "--replicates", "25"),
     4 * 25 * 2),
    ("regression", ("--scenario", "sine", "--study", "regression", "--n-unlabeled", "2000",
                    "--replicates", "25"), 25),
)


def make_studies(seed: int, workdir: Path):
    jobs = [
        Job(f"simulate-{name}", ("simulate", *args, "--seed", str(seed), "--out", f"{name}.csv"),
            outputs=(f"{name}.csv",))
        for name, args, _ in STUDIES
    ]
    truth = {"rows": {f"simulate-{name}": rows for name, _, rows in STUDIES}}
    return jobs, truth


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "csv-estimate",
            "100k-row CSV, three estimate jobs: ingest (core.load_csv) dominates; "
            "shift_test, rkhs and regression do no work",
            make_csv_estimate,
        ),
        Workload(
            "shift-test",
            "test-shift at grid 1001, B=300 on 300+300 rows and B=15 on 300+10k rows: "
            "the t_statistic grid scan dominates, ingest is negligible",
            make_shift_test,
        ),
        Workload(
            "kernel-curve",
            "select-g, estimate --weights and regress --bandwidth cv on 7k rows (2k labeled): "
            "the only workload through the O(n^2)-O(n^3) kernel and smoother layers",
            make_kernel_curve,
        ),
        Workload(
            "studies",
            "six simulate studies with 2 workers: the only workload through the simulate "
            "driver and its process pool; many small estimates and shift tests",
            make_studies,
            study_workers=2,
        ),
    )
}


def pinned_threads(workload: Workload) -> dict[str, str]:
    """QUANTIFY_THREADS and single-threaded BLAS, so that workers x BLAS threads <= CPUs."""
    threads = {"QUANTIFY_THREADS": str(max(1, min(workload.study_workers, _cpus())))}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        threads[name] = "1"
    return threads
