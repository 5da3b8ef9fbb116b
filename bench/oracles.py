"""Output checks for every benchmark job, written against the generated inputs.

Each check recomputes what it can with plain numpy from the values the
generator wrote (which parse back bit for bit) and raises ``OracleError`` on
the first disagreement.  The distances to the generating prevalence are fixed
here, not tuned per run: they are several standard errors wide at these sample
sizes, so a correct program passes them on every seed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import workloads

THETA_RAW_RTOL = 1e-9  # ratio recomputed from the written scores
STAT_ATOL = 1e-12  # Kolmogorov distances are sums of counts / n, exact up to rounding
ESTIMATE_DISTANCE = 0.03  # |theta - truth| for the 200k-row estimates (SE about 0.004)
KERNEL_DISTANCE = 0.06  # |theta - truth| for the kernel-score estimate (SE about 0.015)
CURVE_DISTANCE = 0.15  # max |curve - 0.25 - 0.5 z| over interior grid points z in [0.1, 0.9]
CURVE_RTOL = 1e-9  # curve recomputed from the reported bandwidth
KERNEL_RTOL = 1e-7  # kernel scores recomputed by explicit differences, not the Gram identity
DEFAULT_GAMMA_GRID = (1e-8, 1e-6, 1e-4, 1e-2, 1.0)


class OracleError(AssertionError):
    """A job's output disagrees with what its inputs imply."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def _close(actual: float, expected: float, rtol: float, what: str) -> None:
    _require(
        abs(actual - expected) <= rtol * max(abs(expected), 1e-300),
        f"{what}: got {actual!r}, expected {expected!r} (rtol {rtol:g})",
    )


def arg(argv: tuple[str, ...], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _theta_raw(scores: dict[str, np.ndarray]) -> float:
    mu0, mu1 = scores["class0"].mean(), scores["class1"].mean()
    return float((scores["unlabeled"].mean() - mu0) / (mu1 - mu0))


def check_estimate(job, stdout: bytes, workdir: Path, truth: dict) -> None:
    out = json.loads(stdout)
    theta = out["theta"]
    _require(0.0 <= theta <= 1.0, f"theta {theta} outside [0, 1]")
    _require(
        abs(theta - truth["theta"]) <= ESTIMATE_DISTANCE,
        f"theta {theta} is more than {ESTIMATE_DISTANCE} from the generating {truth['theta']}",
    )
    if "--score-col" in job.argv and out["method"] == "ratio":
        expected = _theta_raw(truth["scores"][job.argv[1]])
        _close(out["theta_raw"], expected, THETA_RAW_RTOL, "theta_raw")
    if "--ci" in job.argv:
        ci = out["ci"]
        _require(ci["lo"] < theta < ci["hi"], f"interval {ci} does not contain theta {theta}")
        _require(ci["level"] == float(arg(job.argv, "--ci")), "wrong confidence level")
    if arg(job.argv, "--method") == "em":
        _require(out["method"] == "em", "em job did not report method em")


def brute_force_scan(g0, g1, gu, grid_size: int) -> np.ndarray:
    """Distance max_x |F0 + w (F1 - F0) - Fu| for every grid weight w, by direct scan."""
    points = np.unique(np.concatenate([g0, g1, gu]))

    def ecdf(sample):
        return np.searchsorted(np.sort(sample), points, side="right") / sample.size

    f0, f1, fu = ecdf(g0), ecdf(g1), ecdf(gu)
    base, delta = f0 - fu, f1 - f0
    weights = np.linspace(0.0, 1.0, grid_size)
    distances = np.empty(grid_size)
    for start in range(0, grid_size, 64):
        w = weights[start : start + 64, None]
        distances[start : start + 64] = np.abs(base[None, :] + w * delta[None, :]).max(axis=1)
    return distances


def _silverman(values: np.ndarray) -> float:
    q75, q25 = np.percentile(values, [75.0, 25.0])
    spread = min(float(np.std(values, ddof=1)), (q75 - q25) / 1.34)
    return 0.9 * spread * values.size ** (-0.2)


def check_test_shift(job, stdout: bytes, workdir: Path, truth: dict) -> None:
    out = json.loads(stdout)
    scores = truth["scores"][job.argv[1]]
    grid_size = int(arg(job.argv, "--grid", "1001"))
    replicates = int(arg(job.argv, "--B", "1000"))
    distances = brute_force_scan(scores["class0"], scores["class1"], scores["unlabeled"], grid_size)
    weights = np.linspace(0.0, 1.0, grid_size)
    best = float(distances.min())
    _require(abs(out["statistic"] - best) <= STAT_ATOL,
             f"statistic {out['statistic']!r}, brute-force scan gives {best!r}")
    hits = np.flatnonzero(weights == out["p_star"])
    _require(hits.size == 1, f"p_star {out['p_star']!r} is not a grid weight")
    # ties go to the smallest weight: exactly, or up to rounding in the distances
    smallest = {int(np.argmin(distances)), int(np.flatnonzero(distances <= best + STAT_ATOL)[0])}
    _require(int(hits[0]) in smallest, f"p_star {out['p_star']} is not the smallest minimizing weight")
    _require(out["theta_hat"] == min(1.0, max(0.0, out["p_star"])), "theta_hat is not clamped p_star")
    _require(out["replicates"] == replicates, f"ran {out['replicates']} replicates, asked {replicates}")
    exceeded = out["p_value"] * replicates
    _require(0.0 <= out["p_value"] <= 1.0 and abs(exceeded - round(exceeded)) <= 1e-9,
             f"p_value {out['p_value']!r} is not a multiple of 1/{replicates}")
    _require(out["seed"] == int(arg(job.argv, "--seed", "0")), "seed not echoed")
    _close(out["bandwidth0"], _silverman(scores["class0"]), 1e-12, "bandwidth0")
    _close(out["bandwidth1"], _silverman(scores["class1"]), 1e-12, "bandwidth1")


def _pairwise_median(x: np.ndarray) -> float:
    rows, cols = np.triu_indices(x.shape[0], k=1)
    distances = np.empty(rows.size)
    for start in range(0, rows.size, 1 << 20):
        r, c = rows[start : start + (1 << 20)], cols[start : start + (1 << 20)]
        distances[start : start + r.size] = np.sqrt(((x[r] - x[c]) ** 2).sum(axis=1))
    return float(np.median(distances))


def _gaussian_gram(x: np.ndarray, anchors: np.ndarray, bandwidth: float) -> np.ndarray:
    gram = np.empty((x.shape[0], anchors.shape[0]))
    for start in range(0, x.shape[0], 1024):
        diff = x[start : start + 1024, None, :] - anchors[None, :, :]
        gram[start : start + 1024] = np.exp(-(diff**2).sum(axis=2) / (2.0 * bandwidth**2))
    return gram


def select_g_candidates(selection: dict, class_sizes: tuple[int, int]) -> list[float]:
    """The default ridge grid plus the median eigenvalue of the spread matrix N,
    rebuilt from the saved anchors (fit halves: class 0 rows first)."""
    anchors = np.asarray(selection["anchors"], dtype=float)
    n0 = (class_sizes[0] + 1) // 2
    gram = _gaussian_gram(anchors, anchors, selection["kernel"]["bandwidth"])
    theta = selection["theta_pilot"]
    p0, p1 = n0 / anchors.shape[0], 1.0 - n0 / anchors.shape[0]
    covs = []
    for rows in (gram[:n0], gram[n0:]):
        centred = rows - rows.mean(axis=0)
        covs.append(centred.T @ centred / rows.shape[0])
    spread = (theta**2 / p1) * covs[1] + ((1.0 - theta) ** 2 / p0) * covs[0]
    eigenvalues = np.linalg.eigvalsh(spread)
    return [*DEFAULT_GAMMA_GRID, float(np.median(eigenvalues))], float(eigenvalues[-1])


def check_select_g(job, stdout: bytes, workdir: Path, truth: dict) -> None:
    out = json.loads(stdout)
    selection = json.loads((workdir / arg(job.argv, "--out")).read_text())
    _require(out["gamma"] == selection["gamma"], "stdout and saved gamma differ")
    labeled = truth["labeled_features"]
    _close(selection["kernel"]["bandwidth"], _pairwise_median(labeled), 1e-9, "median bandwidth")
    anchors = np.asarray(selection["anchors"], dtype=float)
    _require(anchors.shape == ((truth["class_sizes"][0] + 1) // 2 + (truth["class_sizes"][1] + 1) // 2,
                               labeled.shape[1]), f"anchor block has shape {anchors.shape}")
    known = {row.tobytes() for row in labeled}
    _require(all(row.tobytes() in known for row in anchors), "an anchor is not a labeled row")
    _close(float(np.linalg.norm(selection["weights"])), 1.0, 1e-9, "weight norm")
    candidates, top = select_g_candidates(selection, truth["class_sizes"])
    gamma = selection["gamma"]
    # the median eigenvalue can sit at the solver's noise floor, about 1e-12 of the top one
    _require(any(abs(gamma - c) <= 1e-6 * c + 1e-12 * top for c in candidates),
             f"gamma {gamma!r} is not among the candidates {candidates}")


def _smooth(z: np.ndarray, g: np.ndarray, bandwidth: float, queries: np.ndarray) -> np.ndarray:
    weights = np.exp(-0.5 * ((queries[:, None] - z[None, :]) / bandwidth) ** 2)
    return (weights @ g) / weights.sum(axis=1)


def check_regress(job, stdout: bytes, workdir: Path, truth: dict) -> None:
    out = json.loads(stdout)
    z = np.array([p["z"] for p in out["curve"]])
    theta = np.array([p["theta"] for p in out["curve"]])
    _require(np.array_equal(z, np.linspace(0.0, 1.0, 101)), "curve is not on the default grid")
    _require(out["method"] == "ratio", f"method {out['method']!r}")
    z_u, g = truth["covariate"], truth["scores"]["unlabeled"]
    base = float(np.std(z_u, ddof=1)) * z_u.size ** (-0.2)
    bandwidth = out["bandwidth"]
    _require(any(abs(bandwidth - base * f) <= 1e-12 * base for f in (0.25, 0.5, 1.0, 2.0, 4.0)),
             f"bandwidth {bandwidth!r} is not a cross-validation candidate")
    mu0, mu1 = truth["scores"]["class0"].mean(), truth["scores"]["class1"].mean()
    expected = np.clip((_smooth(z_u, g, bandwidth, z) - mu0) / (mu1 - mu0), 0.0, 1.0)
    _require(bool(np.all(np.abs(theta - expected) <= CURVE_RTOL * np.maximum(expected, 1e-3))),
             f"curve differs from the recomputed smoother by {np.abs(theta - expected).max():.3e}")
    inner = (z >= 0.1) & (z <= 0.9)
    gap = float(np.abs(theta[inner] - workloads.kernel_prevalence(z[inner])).max())
    _require(gap <= CURVE_DISTANCE, f"curve is {gap:.3f} from the generating prevalence")


def check_kernel_estimate(job, stdout: bytes, workdir: Path, truth: dict) -> None:
    out = json.loads(stdout)
    theta = out["theta"]
    selection = json.loads((workdir / arg(job.argv, "--weights")).read_text())
    g = _gaussian_gram(truth["features"], np.asarray(selection["anchors"]),
                       selection["kernel"]["bandwidth"]) @ np.asarray(selection["weights"])
    expected = _theta_raw({k: g[v] for k, v in truth["groups"].items()})
    _close(out["theta_raw"], expected, KERNEL_RTOL, "theta_raw from the saved weights")
    _require(0.0 <= theta <= 1.0, f"theta {theta} outside [0, 1]")
    _require(abs(theta - truth["theta"]) <= KERNEL_DISTANCE,
             f"theta {theta} is more than {KERNEL_DISTANCE} from the generating {truth['theta']}")
    _require(out["ci"]["lo"] < theta < out["ci"]["hi"], "interval does not contain theta")


def check_study(job, stdout: bytes, workdir: Path, truth: dict) -> None:
    out = json.loads(stdout)
    expected = truth["rows"][job.name]
    _require(out["rows"] == expected, f"{job.name} reports {out['rows']} rows, expected {expected}")
    with open(workdir / out["out"], newline="") as handle:
        table = list(csv.reader(handle))
    header, rows = table[0], table[1:]
    _require(len(rows) == expected, f"{out['out']} has {len(rows)} rows, expected {expected}")
    _require(all(len(r) == len(header) for r in rows), f"{out['out']} has ragged rows")
    if "p_value" in header:
        col = header.index("p_value")
        replicates = int(arg(job.argv, "--test-replicates"))
        for row in rows:
            count = float(row[col]) * replicates
            _require(abs(count - round(count)) <= 1e-9,
                     f"power p_value {row[col]} is not a multiple of 1/{replicates}")


CHECKS = {
    "estimate-g-ci": check_estimate,
    "estimate-logistic": check_estimate,
    "estimate-g-em": check_estimate,
    "test-shift-candles": check_test_shift,
    "test-shift-bank": check_test_shift,
    "select-g": check_select_g,
    "estimate-weights": check_kernel_estimate,
    "regress-cv": check_regress,
    **{f"simulate-{name}": check_study for name, _, _ in workloads.STUDIES},
}


def check(job, stdout: bytes, workdir: Path, truth: dict) -> str | None:
    """Run the job's oracle; return the failure message, or None when the output is right."""
    try:
        CHECKS[job.name](job, stdout, workdir, truth)
    except OracleError as exc:
        return f"{job.name}: {exc}"
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:  # malformed or missing output
        return f"{job.name}: unreadable output ({type(exc).__name__}: {exc})"
    return None
