"""Data-driven choice of the score function within a kernel expansion.

Every weight vector w over the labeled points induces a score
g(x) = sum_i w_i K(x, x_i).  The plug-in MSE proxy of the ratio estimate is
then a ratio of quadratic forms in w: the between-class separation enters
through a rank-one matrix M and the within-class spread through a weighted
covariance N.  Minimizing the proxy is a generalized eigenproblem whose top
eigenvector has the closed form (N + gamma I)^{-1} (m1 - m0); gamma is picked
on held-out labeled data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DataError,
    EstimationError,
    RawDataset,
    ScoredDataset,
    ScoreFunction,
    _as_2d_float,
    fit_logistic,
    rng_from,
)
from .estimators import DEFAULT_MIN_DENOM, _empirical_mse_from_groups, ratio_estimate

DEFAULT_GAMMA_GRID = (1e-8, 1e-6, 1e-4, 1e-2, 1.0)
_GRAM_ROWS = 128  # rows per block of the in-place passes over a Gram matrix


def _squared_distances(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|x_i - z_j|^2 per row pair, clipped at 0; pass one array twice for numpy's symmetric x x'.
    x @ z' is made whole (BLAS bits depend on how rows are grouped), then turned into the
    result in place by blocks of rows, bit for bit."""
    out = x @ z.T
    sx = np.sum(x**2, axis=1)[:, None]
    sz = np.sum(z**2, axis=1)
    for start in range(0, out.shape[0], _GRAM_ROWS):
        block = out[start : start + _GRAM_ROWS]
        np.multiply(block, 2.0, out=block)
        np.subtract(sx[start : start + _GRAM_ROWS] + sz, block, out=block)
        np.clip(block, 0.0, None, out=block)
    return out


def _middle(values: np.ndarray) -> np.ndarray:
    """What np.median averages: the middle one or two of ``values``, or a NaN; partitions in place."""
    lo, hi = (values.size - 1) // 2, values.size // 2
    values.partition([lo, hi, -1])
    return values[-1:] if np.isnan(values[-1]) else values[lo : hi + 1]


@dataclass(frozen=True)
class KernelSpec:
    """A positive-definite kernel: 'linear' or 'gaussian' with a bandwidth."""

    family: str
    bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.family not in ("linear", "gaussian"):
            raise DataError(f"unknown kernel family {self.family!r}")
        if self.bandwidth is not None and not 0.0 < self.bandwidth < np.inf:
            raise DataError("kernel bandwidth must be positive and finite")

    def matrix(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if self.family == "linear":
            return x @ z.T
        if self.bandwidth is None:
            raise EstimationError("gaussian kernel used before its bandwidth was resolved")
        sq = _squared_distances(x, z)
        np.divide(sq, -2.0 * self.bandwidth**2, out=sq)  # the bits of -sq / (2 h^2)
        return np.exp(sq, out=sq)

    def to_dict(self) -> dict:
        return {"family": self.family, "bandwidth": self.bandwidth}

    @staticmethod
    def from_dict(payload: dict) -> "KernelSpec":
        return KernelSpec(family=payload["family"], bandwidth=payload.get("bandwidth"))


@dataclass(frozen=True)
class KernelScore(ScoreFunction):
    """Kernel expansion g(x) = sum_i w_i K(x, anchor_i); saved only inside a selection JSON."""

    weights: np.ndarray
    anchors: np.ndarray
    kernel: KernelSpec

    def scores(self, features: np.ndarray) -> np.ndarray:
        features = _as_2d_float(features, "features")
        gram = self.kernel.matrix(features, self.anchors)
        return (gram @ np.asarray(self.weights, dtype=float)).reshape(-1, 1)


def median_bandwidth(features: np.ndarray) -> float:
    """Median pairwise Euclidean distance, the usual gaussian-width default."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    if x.shape[0] < 2:
        raise EstimationError("median bandwidth needs at least two points")
    sq = _squared_distances(x, x)
    upper = np.concatenate([row[i + 1 :] for i, row in enumerate(sq)])
    value = float(np.mean(np.sqrt(_middle(upper))))  # sqrt is monotone and correctly rounded
    if value <= 0.0:
        raise EstimationError("median pairwise distance is zero; features are degenerate")
    return value


@dataclass(frozen=True)
class KernelMatrices:
    """Quadratic forms of the selection objective over one labeled sample.

    The rank-one separation matrix is (mean1 - mean0)(mean1 - mean0)'; it is never formed.
    """

    n_spread: np.ndarray  # prevalence-weighted within-class covariance
    mean0: np.ndarray  # kernel mean embedding of class 0 at the anchors
    mean1: np.ndarray


def build_matrices(
    data: RawDataset, kernel: KernelSpec, theta_pilot: float
) -> KernelMatrices:
    """Assemble the objective matrices over the labeled rows of ``data``.

    The Gram matrix runs over the labeled rows in dataset order; those rows
    are the anchors any solved weight vector refers to.  Class means are the
    row averages of the Gram matrix within each class, spreads the within-
    class covariances of its columns (a single-row class contributes zero
    spread).  ``theta_pilot`` weighs the class spreads the way the target
    population would.  No n x n matrix is built beyond the Gram matrix and
    the two class covariances.
    """
    if data.n_classes != 2:
        raise EstimationError("objective matrices are defined for binary data")
    if not 0.0 <= theta_pilot <= 1.0:
        raise EstimationError("pilot prevalence must lie in [0, 1]")
    labeled = np.flatnonzero(data.set_indicator == 1)
    gram = kernel.matrix(data.features[labeled], data.features[labeled])
    class_index = data.labels[labeled]
    means, covs, counts = [], [], []
    for label in (0, 1):
        rows = gram[class_index == label]
        if rows.shape[0] == 0:
            raise EstimationError(f"class {label} has no labeled rows")
        mean = rows.mean(axis=0)
        centered = rows - mean
        covs.append(centered.T @ centered / rows.shape[0])
        means.append(mean)
        counts.append(rows.shape[0])
    p0 = counts[0] / labeled.size
    p1 = counts[1] / labeled.size
    n_spread = (theta_pilot**2 / p1) * covs[1] + ((1.0 - theta_pilot) ** 2 / p0) * covs[0]
    return KernelMatrices(n_spread=n_spread, mean0=means[0], mean1=means[1])


def solve_weights(
    n_spread: np.ndarray, mean0: np.ndarray, mean1: np.ndarray, gamma: float
) -> np.ndarray:
    """Top generalized eigenvector of (M, N + gamma I), unit norm.

    M = (mean1 - mean0)(mean1 - mean0)' is rank one, so the eigenvector is
    (N + gamma I)^{-1} (mean1 - mean0) up to scale.  The sign is fixed so
    w'(mean1 - mean0) > 0.  ``n_spread`` must be d x d for means of length d.
    """
    if gamma < 0:
        raise EstimationError("regularization gamma must be nonnegative")
    n_spread = np.asarray(n_spread, dtype=float)
    mean0 = np.asarray(mean0, dtype=float)
    mean1 = np.asarray(mean1, dtype=float)
    if mean1.ndim != 1 or mean0.shape != mean1.shape or n_spread.shape != (mean1.size,) * 2:
        raise EstimationError(
            f"spread matrix {n_spread.shape} does not fit means {mean0.shape}, {mean1.shape}"
        )
    direction = mean1 - mean0
    if np.linalg.norm(direction) == 0.0:
        raise EstimationError("class kernel means coincide; no direction to solve along")
    regularized = n_spread + gamma * np.eye(n_spread.shape[0])
    try:
        w = np.linalg.solve(regularized, direction)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"singular system at gamma = {gamma:g}") from exc
    norm_w = np.linalg.norm(w)
    if not np.isfinite(norm_w) or norm_w == 0.0:
        raise EstimationError(f"weight solve degenerate at gamma = {gamma:g}")
    w = w / norm_w
    if float(w @ direction) < 0.0:
        w = -w
    return w


@dataclass(frozen=True)
class RkhsSelection:
    """Outcome of the kernel score search: weights, anchors and diagnostics."""

    weights: np.ndarray
    anchors: np.ndarray
    kernel: KernelSpec
    gamma: float
    objective: float
    theta_pilot: float

    def score_function(self) -> KernelScore:
        return KernelScore(weights=self.weights, anchors=self.anchors, kernel=self.kernel)

    def to_dict(self) -> dict:
        return {
            "weights": np.asarray(self.weights).tolist(),
            "anchors": np.asarray(self.anchors).tolist(),
            "kernel": self.kernel.to_dict(),
            "gamma": self.gamma,
            "objective": self.objective,
            "theta_pilot": self.theta_pilot,
        }

    @staticmethod
    def from_dict(payload: dict) -> "RkhsSelection":
        """Read what :meth:`to_dict` wrote: every field, finite weights, one
        per row of a finite 2-d anchor matrix.  :class:`DataError` if malformed."""
        if not isinstance(payload, dict):
            raise DataError(f"selection must be a JSON object, got {type(payload).__name__}")
        try:
            weights = np.asarray(payload["weights"], dtype=float)
            anchors = np.asarray(payload["anchors"], dtype=float)
            kernel = KernelSpec.from_dict(payload["kernel"])
            scalars = [float(payload[key]) for key in ("gamma", "objective", "theta_pilot")]
        except KeyError as exc:
            raise DataError(f"selection has no {exc} field") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed selection: {exc}") from None
        if weights.ndim != 1 or anchors.ndim != 2 or anchors.shape[0] != weights.size:
            raise DataError(f"weights {weights.shape} do not match anchors {anchors.shape}")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(anchors))):
            raise DataError("selection weights and anchors must be finite")
        return RkhsSelection(weights, anchors, kernel, *scalars)


def stratified_split(
    data: RawDataset, split_seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split each labeled class 50/50 (fit half rounds up), reproducibly."""
    rng = rng_from(split_seed, 0)
    fit_parts, eval_parts = [], []
    for label in (0, 1):
        idx = data.labeled_class_indices(label)
        if idx.size < 3:
            raise EstimationError(
                f"class {label} has {idx.size} labeled rows; the split needs at least 3"
            )
        perm = rng.permutation(idx)
        half = (idx.size + 1) // 2
        fit_parts.append(perm[:half])
        eval_parts.append(perm[half:])
    return fit_parts[0], fit_parts[1], eval_parts[0], eval_parts[1]


def candidate_gammas(n_spread: np.ndarray, grid=None) -> tuple[float, ...]:
    """Default grid plus the median-eigenvalue scale of the spread matrix."""
    if grid is not None:
        values = [float(g) for g in grid]
    else:
        values = list(DEFAULT_GAMMA_GRID)
        eigenvalues = np.linalg.eigvalsh(n_spread)
        median = float(np.mean(_middle(eigenvalues)))
        if np.isfinite(median) and median > 0.0:
            values.append(median)
    unique = sorted(set(values))
    if not unique:
        raise EstimationError("empty regularization grid")
    if unique[0] < 0:
        raise EstimationError("regularization gamma must be nonnegative")
    return tuple(unique)


def select_g(
    data: RawDataset,
    kernel: KernelSpec | None = None,
    gamma_grid=None,
    split_seed: int = 0,
    pilot: ScoreFunction | None = None,
    min_denom: float = DEFAULT_MIN_DENOM,
) -> RkhsSelection:
    """Pick kernel weights minimizing the held-out plug-in MSE proxy.

    The labeled data are split 50/50 per class.  Weights are fit on one half
    for every candidate gamma; each candidate is scored by the MSE proxy of
    the score it induces on the other half, at a pilot prevalence computed
    once from ``pilot`` (a logistic fit on the fitting half by default).

    Returns the minimizing selection; its ``objective`` is that held-out
    proxy value, reproducible from the selection and the same split seed.
    """
    if data.n_classes != 2:
        raise EstimationError("kernel score selection is binary")
    fit0, fit1, eval0, eval1 = stratified_split(data, split_seed)
    fit_idx = np.concatenate([fit0, fit1])
    anchors = data.features[fit_idx]
    fit_data = RawDataset(
        features=anchors,
        labels=np.concatenate([np.zeros(fit0.size, dtype=int), np.ones(fit1.size, dtype=int)]),
        set_indicator=np.ones(fit_idx.size, dtype=int),
    )

    if kernel is None:
        kernel = KernelSpec(family="gaussian")
    if kernel.family == "gaussian" and kernel.bandwidth is None:
        labeled = np.concatenate([fit_idx, eval0, eval1])
        kernel = KernelSpec(family="gaussian", bandwidth=median_bandwidth(data.features[labeled]))

    if pilot is None:
        pilot = fit_logistic(fit_data)
    pilot_scores = ScoredDataset(
        unlabeled=pilot.scores(data.features[data.unlabeled_indices()]),
        classes=(pilot.scores(anchors[: fit0.size]), pilot.scores(anchors[fit0.size :])),
    )
    theta_pilot = ratio_estimate(pilot_scores, min_denom=min_denom).theta

    matrices = build_matrices(fit_data, kernel, theta_pilot)
    gammas = candidate_gammas(matrices.n_spread, gamma_grid)

    eval_gram0 = kernel.matrix(data.features[eval0], anchors)
    eval_gram1 = kernel.matrix(data.features[eval1], anchors)
    best: tuple[float, float, np.ndarray] | None = None
    for gamma in gammas:
        try:
            w = solve_weights(matrices.n_spread, matrices.mean0, matrices.mean1, gamma)
            objective = _empirical_mse_from_groups(
                eval_gram0 @ w, eval_gram1 @ w, theta_pilot, min_denom
            )
        except EstimationError:
            continue
        if np.isfinite(objective) and (best is None or objective < best[0]):
            best = (float(objective), float(gamma), w)
    if best is None:
        raise EstimationError("no admissible gamma: every candidate was degenerate")
    objective, gamma, w = best
    return RkhsSelection(
        weights=w,
        anchors=anchors,
        kernel=kernel,
        gamma=gamma,
        objective=objective,
        theta_pilot=theta_pilot,
    )
