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

from .core import EstimationError, RawDataset, ScoredDataset, ScoreFunction
from .estimators import DEFAULT_MIN_DENOM, DEFAULT_THRESHOLD, _cc_indicator, ratio_estimate


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
    if not 0.0 < bandwidth < math.inf:
        raise EstimationError(f"bandwidth must be positive and finite, got {bandwidth}")
    with np.errstate(over="ignore"):  # an overflow only makes a zero weight
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
    with np.errstate(over="ignore"):  # an infinite sd is refused below
        spread = float(np.std(z, ddof=1)) if z.size > 1 else 0.0
    if spread <= 0.0:
        raise EstimationError("covariate has no spread; pass a bandwidth explicitly")
    if not math.isfinite(spread):
        raise EstimationError("the covariate's sd overflows; pass a bandwidth explicitly")
    return spread * z.size ** (-0.2)


def cv_bandwidth(z: np.ndarray, values: np.ndarray) -> float:
    """Leave-one-out cross-validated bandwidth for the local average.

    The candidates are h0 * 2**k, k = 0 .. 4, with h0 a quarter of the rule of thumb
    sd(z) * n^(-1/5); each is scored by the mean squared error of predicting every point
    from all the others, and ties go to the smallest.  It takes O(5 n^2 / 2) time, computing
    each symmetric kernel weight once per candidate with the smoother's bits, and
    O(block^2 + n) memory, with 256 x 256 blocks of the points sorted by z; block pairs
    more than 40 bandwidths apart (all weights 0.0) are skipped.
    """
    z = np.asarray(z, dtype=float).ravel()
    values = np.asarray(values, dtype=float).ravel()
    if z.size < 3 or z.size != values.size:
        raise EstimationError("cross-validation needs at least 3 matching pairs")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(values))):
        raise EstimationError("cross-validation needs finite covariate and values")
    h0 = 0.25 * _rule_of_thumb(z)
    best_k, best_err = None, np.inf
    for k, err in enumerate(_cv_errors(z, values, h0)):
        if err < best_err:
            best_k, best_err = k, err
    if best_k is None:
        raise EstimationError("no bandwidth candidate has a finite error")
    return math.ldexp(h0, best_k)


# -0.5 * 4**-k, the factor that turns (d / h0) ** 2 into the exponent of candidate h0 * 2**k
_CV_FACTORS = tuple(math.ldexp(-0.5, -2 * k) for k in range(5))


def _cv_errors(z: np.ndarray, values: np.ndarray, h0: float) -> np.ndarray:
    """Leave-one-out sum of squared errors of the local average, per bandwidth h0 * 2**k.

    Points are sorted by z (stably), and the sums put back in input order.
    Only block pairs (I, J >= I) are evaluated, adding rows to the sums of I
    and, off the diagonal, columns to those of J.  A candidate with (first z
    of J - last z of I) / h > 40 skips the pair (every weight 0.0), and once
    all do, the rest of the row.  The candidates share (d / h0) ** 2 per
    block, scaled by -0.5 * 4**-k, exactly: in the normal range a power of two
    commutes with each correctly rounded step; below it both arguments are
    under 2**-1021 in size and exp gives 1.0; where d / h0 or its square
    overflows, k <= 4 keeps d / h above 40 and both weights are 0.0.  The default h0
    keeps every candidate normal: np.std squares z, so its finite nonzero sd lies
    between about 1e-162 and 1e154.
    """
    n = z.size
    order = np.argsort(z, kind="stable")
    zs = z[order]
    columns = np.column_stack([values[order], np.ones(n)])  # weights @ columns: numerator, total
    hs = [math.ldexp(h0, k) for k in range(len(_CV_FACTORS))]
    sums = np.zeros((len(hs), n, 2))
    # flat buffers, so that every block view of them is contiguous, cut from one block at
    # a 64-byte boundary: unaligned, the passes below run about 10% slower
    cells = _CV_BLOCK * _CV_BLOCK
    spare = np.empty(3 * cells + 8)
    skip = -spare.__array_interface__["data"][0] % 64 // 8
    diff_buf, square_buf, weight_buf = (spare[skip + k * cells : skip + (k + 1) * cells]
                                        for k in range(3))
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
            np.square(np.divide(diff, h0, out=square), out=square)
            for c in active:
                np.multiply(square, _CV_FACTORS[c], out=weights)
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
        with np.errstate(over="ignore"):  # an infinite error never wins the choice
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


def _evaluation_grid(grid: np.ndarray | None) -> np.ndarray:
    """``grid`` as a checked flat float array; None is 101 points evenly over [0, 1]."""
    grid = np.linspace(0.0, 1.0, 101) if grid is None else np.asarray(grid, dtype=float).ravel()
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise EstimationError("evaluation grid must be nonempty and finite")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise EstimationError("evaluation grid must be strictly increasing")
    return grid


def _curve_inputs(
    data: RawDataset, g: ScoreFunction, grid: np.ndarray | None, n_classes: int
) -> tuple[np.ndarray, np.ndarray, ScoredDataset]:
    """The checked grid, the covariate of the unlabeled rows, and the scores of those
    rows and of labeled classes 0 .. n_classes - 1, each group scored by its own call."""
    grid = _evaluation_grid(grid)
    if data.covariate is None:
        raise EstimationError("regression needs a covariate column")
    idx = data.unlabeled_indices()
    scores = ScoredDataset(
        unlabeled=g.scores(data.features[idx]),
        classes=[g.scores(data.features[data.labeled_class_indices(c)]) for c in range(n_classes)],
    )
    return grid, data.covariate[idx], scores


def _bandwidth(bandwidth: float | str | None, z: np.ndarray, values: np.ndarray) -> float:
    """A positive number as given, "cv" chosen on the ``values`` the curve smooths,
    or None for the rule of thumb."""
    if bandwidth == "cv":
        return cv_bandwidth(z, values)
    if isinstance(bandwidth, str):
        raise EstimationError(f"bandwidth must be a positive number or 'cv', got {bandwidth!r}")
    return _rule_of_thumb(z) if bandwidth is None else float(bandwidth)


def ratio_regress(
    data: RawDataset,
    g: ScoreFunction,
    grid: np.ndarray | None = None,
    bandwidth: float | str | None = None,
    min_denom: float = DEFAULT_MIN_DENOM,
) -> RegressionCurve:
    """Prevalence curve: ratio correction applied to a smoothed score curve.

    The class score means and their separation come from :func:`ratio_estimate`
    on the labeled sample (they do not depend on z); the local unlabeled mean
    of g comes from a Nadaraya-Watson smoother.  The default bandwidth is
    sd(z) * n^(-1/5); pass "cv" for the leave-one-out choice.  Values are
    trimmed to [0, 1].
    """
    if data.n_classes > 2:
        raise EstimationError("prevalence regression is binary")
    grid, z, scores = _curve_inputs(data, g, grid, n_classes=2)
    est = ratio_estimate(scores, min_denom)
    bandwidth = _bandwidth(bandwidth, z, scores.unlabeled)
    smoothed = nadaraya_watson(z, scores.unlabeled, bandwidth, grid)
    curve = np.clip((smoothed - est.mu0) / est.denominator, 0.0, 1.0)
    return RegressionCurve(grid=grid, values=curve, bandwidth=bandwidth, method="ratio")


def cc_regress(
    data: RawDataset,
    g: ScoreFunction,
    grid: np.ndarray | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    bandwidth: float | str | None = None,
) -> RegressionCurve:
    """Classify-and-count curve: smoothed fraction of scores above a threshold."""
    grid, z, scores = _curve_inputs(data, g, grid, n_classes=0)
    indicator = _cc_indicator(scores.unlabeled, threshold, "cc_regress")
    bandwidth = _bandwidth(bandwidth, z, indicator)
    curve = np.clip(nadaraya_watson(z, indicator, bandwidth, grid), 0.0, 1.0)
    return RegressionCurve(grid=grid, values=curve, bandwidth=bandwidth, method="cc")
