"""Prevalence as a function of a scalar covariate.

The target population's prevalence may vary with an observed covariate z
while the class-conditional score distributions stay fixed.  Smoothing the
scores of the unlabeled sample against z and applying the ratio correction
pointwise yields a prevalence curve; smoothing thresholded scores instead
gives the uncorrected classify-and-count curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EstimationError, RawDataset, ScoreFunction
from .estimators import DEFAULT_MIN_DENOM, _separation


def nadaraya_watson(
    z: np.ndarray, g: np.ndarray, bandwidth: float, queries: np.ndarray
) -> np.ndarray:
    """Gaussian-kernel local average of g against z at each query point.

    Queries so far from the data that every kernel weight underflows to zero
    fall back to the nearest data point's value.
    """
    z = np.asarray(z, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    queries = np.asarray(queries, dtype=float).ravel()
    if z.size == 0 or z.size != g.size:
        raise EstimationError("need matching, nonempty covariate and score arrays")
    if not bandwidth > 0:
        raise EstimationError(f"bandwidth must be positive, got {bandwidth}")
    weights = np.exp(-0.5 * ((queries[:, None] - z[None, :]) / bandwidth) ** 2)
    totals = weights.sum(axis=1)
    out = np.empty(queries.size)
    covered = totals > 0.0
    out[covered] = (weights[covered] @ g) / totals[covered]
    if not np.all(covered):
        nearest = np.abs(queries[~covered, None] - z[None, :]).argmin(axis=1)
        out[~covered] = g[nearest]
    return out


_CV_BLOCK = 256
_CV_REACH = 40.0  # bandwidths; farther apart, -0.5 * (d / h) ** 2 < -800 and exp gives 0.0


def _rule_of_thumb(z: np.ndarray) -> float:
    """The default bandwidth sd(z) * n^(-1/5)."""
    spread = float(np.std(z, ddof=1)) if z.size > 1 else 0.0
    if spread <= 0.0:
        raise EstimationError("covariate has no spread; pass a bandwidth explicitly")
    return spread * z.size ** (-0.2)


def cv_bandwidth(z: np.ndarray, values: np.ndarray, candidates=None) -> float:
    """Leave-one-out cross-validated bandwidth for the local average.

    Each candidate is scored by the mean squared error of predicting every
    point from all the others; ties go to the smallest candidate.  The
    default candidates scale sd(z) * n^(-1/5) by powers of two.  For n points
    and k distinct candidates it takes at most O(n^2/2 * k) time, computing
    each symmetric kernel weight once per candidate with the smoother's bits,
    and O(block^2 + k * n) memory, with 256 x 256 blocks of the points sorted
    by z; block pairs more than 40 bandwidths apart (all weights 0.0) are skipped.
    """
    z = np.asarray(z, dtype=float).ravel()
    values = np.asarray(values, dtype=float).ravel()
    if z.size < 3 or z.size != values.size:
        raise EstimationError("cross-validation needs at least 3 matching pairs")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(values))):
        raise EstimationError("cross-validation needs finite covariate and values")
    if candidates is None:
        base = _rule_of_thumb(z)
        candidates = [base * factor for factor in (0.25, 0.5, 1.0, 2.0, 4.0)]
    candidates = [float(h) for h in candidates]
    if not candidates or not all(h > 0 for h in candidates):
        raise EstimationError("bandwidth candidates must be positive")
    hs = sorted(set(candidates))
    best_h, best_err = None, np.inf
    for h, err in zip(hs, _cv_errors(z, values, hs)):
        if err < best_err:
            best_h, best_err = h, err
    return float(best_h)


def _shared_bases(hs: list[float]) -> tuple[list[float], list[float]]:
    """Per candidate, the base b and factor f of its exponent f * (d / b) ** 2: min(hs) and
    -0.5 * 4**-k if every h is exactly min(hs) * 2**k with k <= 64, else h and -0.5."""
    h0 = min(hs)
    ratios = [math.ldexp(1.0, math.frexp(h / h0)[1] - 1) for h in hs]
    if any(h0 * r != h or r > 2.0**64 for h, r in zip(hs, ratios)):
        return list(hs), [-0.5] * len(hs)
    return [h0] * len(hs), [-0.5 / r**2 for r in ratios]


def _cv_errors(z: np.ndarray, values: np.ndarray, hs: list[float]) -> np.ndarray:
    """Leave-one-out sum of squared errors of the local average, per bandwidth.

    Points are sorted by z (stably), and the sums put back in input order.
    Only block pairs (I, J >= I) are evaluated, adding rows to the sums of I
    and, off the diagonal, columns to those of J.  A candidate with (first z
    of J - last z of I) / h > 40 skips the pair (every weight 0.0), and once
    all do, the rest of the row.  Candidates h0 * 2**k share (d / h0) ** 2 per
    block, scaled by -0.5 * 4**-k, exactly: in the normal range a power of two
    commutes with each correctly rounded step; below it both arguments are
    under 2**-1021 in size and exp gives 1.0; where d / h0 or its square
    overflows, k <= 64 keeps d / h above 40 and both weights are 0.0.
    """
    n = z.size
    order = np.argsort(z, kind="stable")
    zs = z[order]
    columns = np.column_stack([values[order], np.ones(n)])  # weights @ columns: numerator, total
    sums = np.zeros((len(hs), n, 2))
    bases, factors = _shared_bases(hs)
    # flat buffers, so that every block view of them is contiguous
    diff_buf = np.empty(_CV_BLOCK * _CV_BLOCK)
    square_buf = np.empty(_CV_BLOCK * _CV_BLOCK)
    weight_buf = np.empty(_CV_BLOCK * _CV_BLOCK)
    for i0 in range(0, n, _CV_BLOCK):
        rows = slice(i0, min(i0 + _CV_BLOCK, n))
        for j0 in range(i0, n, _CV_BLOCK):
            cols = slice(j0, min(j0 + _CV_BLOCK, n))
            gap = zs[j0] - zs[rows.stop - 1] if j0 != i0 else 0.0
            active = [c for c, h in enumerate(hs) if not gap / h > _CV_REACH]
            if not active:
                break
            shape = (rows.stop - i0, cols.stop - j0)
            size = shape[0] * shape[1]
            # z_j - z_i is exactly -(z_i - z_j), so this block also serves the pairs (j, i)
            diff = np.subtract(zs[rows, None], zs[None, cols], out=diff_buf[:size].reshape(shape))
            square = square_buf[:size].reshape(shape)
            weights = weight_buf[:size].reshape(shape)
            base = None
            for c in active:
                if bases[c] != base:
                    base = bases[c]
                    np.square(np.divide(diff, base, out=square), out=square)
                np.multiply(square, factors[c], out=weights)
                np.exp(weights, out=weights)
                if i0 == j0:
                    np.fill_diagonal(weights, 0.0)
                sums[c, rows] += weights @ columns[cols]
                if i0 != j0:
                    sums[c, cols] += weights.T @ columns[rows]
    numer, total = np.moveaxis(sums[:, np.argsort(order)], 2, 0)  # back in input order
    errors = np.empty(len(hs))
    for c in range(len(hs)):
        preds = np.divide(numer[c], total[c], out=np.zeros(n), where=total[c] > 0)
        empty = np.flatnonzero(total[c] == 0.0)
        # an all-underflow row falls back to its nearest neighbour, as the
        # smoother itself would; predicting the held-out value would declare
        # every vanishing bandwidth perfect; in input order, so ties go as there
        step = max(1, _CV_BLOCK * _CV_BLOCK // n)  # about a block of gaps at a time
        for start in range(0, empty.size, step):
            stranded = empty[start:start + step]
            gaps = np.abs(z[stranded, None] - z[None, :])
            gaps[np.arange(stranded.size), stranded] = np.inf
            preds[stranded] = values[gaps.argmin(axis=1)]
        errors[c] = np.sum((preds - values) ** 2)
    return errors


@dataclass(frozen=True)
class RegressionCurve:
    """A prevalence estimate per grid point, with the bandwidth that made it."""

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    method: str

    def rows(self) -> list[tuple[float, float]]:
        return list(zip(self.grid.tolist(), self.values.tolist()))


def _validate_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise EstimationError("evaluation grid must be nonempty and finite")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise EstimationError("evaluation grid must be strictly increasing")
    return grid


def _unlabeled_pairs(
    data: RawDataset, g: ScoreFunction, bandwidth: float | str | None
) -> tuple[np.ndarray, np.ndarray, float]:
    if data.covariate is None:
        raise EstimationError("regression needs a covariate column")
    idx = data.unlabeled_indices()
    if idx.size == 0:
        raise EstimationError("no unlabeled rows")
    z = data.covariate[idx]
    values = g.scores(data.features[idx]).ravel()
    if bandwidth == "cv":
        bandwidth = cv_bandwidth(z, values)
    elif isinstance(bandwidth, str):
        raise EstimationError(f"bandwidth must be a positive number or 'cv', got {bandwidth!r}")
    elif bandwidth is None:
        bandwidth = _rule_of_thumb(z)
    return z, values, float(bandwidth)


def ratio_regress(
    data: RawDataset,
    g: ScoreFunction,
    grid: np.ndarray,
    bandwidth: float | str | None = None,
    min_denom: float = DEFAULT_MIN_DENOM,
) -> RegressionCurve:
    """Prevalence curve: ratio correction applied to a smoothed score curve.

    The class score means come from the labeled sample (they do not depend
    on z); the local unlabeled mean of g comes from a Nadaraya-Watson
    smoother.  The default bandwidth is sd(z) * n^(-1/5); pass "cv" for the
    leave-one-out choice.  Values are trimmed to [0, 1].
    """
    grid = _validate_grid(grid)
    if data.n_classes != 2:
        raise EstimationError("prevalence regression is binary")
    labeled0 = data.labeled_class_indices(0)
    labeled1 = data.labeled_class_indices(1)
    if labeled0.size == 0 or labeled1.size == 0:
        raise EstimationError("both labeled classes must be nonempty")
    mu0 = float(g.scores(data.features[labeled0]).mean())
    mu1 = float(g.scores(data.features[labeled1]).mean())
    denom = _separation(mu0, mu1, min_denom)
    z, values, bandwidth = _unlabeled_pairs(data, g, bandwidth)
    smoothed = nadaraya_watson(z, values, bandwidth, grid)
    curve = np.clip((smoothed - mu0) / denom, 0.0, 1.0)
    return RegressionCurve(grid=grid, values=curve, bandwidth=bandwidth, method="ratio")


def cc_regress(
    data: RawDataset,
    g: ScoreFunction,
    grid: np.ndarray,
    threshold: float = 0.5,
    bandwidth: float | str | None = None,
) -> RegressionCurve:
    """Classify-and-count curve: smoothed fraction of scores above a threshold."""
    grid = _validate_grid(grid)
    z, values, bandwidth = _unlabeled_pairs(data, g, bandwidth)
    indicator = (values > threshold).astype(float)
    curve = np.clip(nadaraya_watson(z, indicator, bandwidth, grid), 0.0, 1.0)
    return RegressionCurve(grid=grid, values=curve, bandwidth=bandwidth, method="cc")
