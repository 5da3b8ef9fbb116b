"""Monte Carlo check of the assumption quantification rests on.

The ratio estimate is only meaningful when the unlabeled score distribution
is a two-point mixture of the class-conditional score distributions.  The
test statistic is the smallest Kolmogorov distance between the unlabeled
ECDF and any mixture of the two class ECDFs; its null distribution is
approximated by redrawing all three samples from smoothed (kernel density)
versions of the class distributions mixed at the best-fitting weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EstimationError, ScoredDataset, rng_from


def _ecdf_gaps(
    g0: np.ndarray, g1: np.ndarray, gu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``F0 - Fu`` and ``F1 - F0`` at each distinct pooled value, in sorted order.

    One sort of the pooled sample; each ECDF is the cumulative count of its
    group at the last copy of a value, divided by the group size, which is the
    same integer-over-size quotient a ``searchsorted`` count gives.  The count
    at the last copy includes every copy, so the sort need not be stable.
    """
    n0, n1 = g0.size, g1.size
    pooled = np.concatenate([g0, g1, gu])
    order = np.argsort(pooled)
    ranked = pooled[order]
    last = np.append(ranked[1:] != ranked[:-1], True)
    labeled = np.cumsum(order < n0 + n1)[last]
    c0 = np.cumsum(order < n0)[last]
    f0 = c0 / n0
    f1 = (labeled - c0) / n1
    fu = (np.flatnonzero(last) + 1 - labeled) / gu.size
    return f0 - fu, f1 - f0


def t_statistic(scores: ScoredDataset, grid_size: int = 1001) -> tuple[float, float]:
    """Best-mixture Kolmogorov distance and the mixing weight attaining it.

    The sup over evaluation points is taken on the pooled observed values,
    which is exact because all three ECDFs are constant between them.  The
    mixing weight ranges over an even grid w_0 < ... < w_{G-1} on [0, 1];
    ties go to the smallest weight.

    The distance f(j) = max_x |F0 - Fu + w_j (F1 - F0)| is a maximum of
    absolute affine functions of w, so it is convex in w: once it rises
    along the grid it never falls, and :func:`_first_minimum` finds its
    first minimum by bisection.  Every f(j) is the same rounded float
    expression a dense scan of the grid computes.  Its terms have magnitude
    at most 1, so one rounded product and one rounded sum keep a computed
    f(j) within e = eps (1 + eps) of the exact f(j) on the same inputs.  The
    search tolerance tol = 4 G eps, at least 8 eps, covers the 4 e + eps / 2
    that the search's rounding guard needs, so the result is the dense
    scan's ``argmin``, bit for bit.  Where f is flat, as for identical class
    samples, the search costs what the dense scan does.

    Time is O(n log n) for the sort plus O(n log G) for the search, and
    memory O(n), for n pooled values and G grid points.
    """
    if grid_size < 2:
        raise EstimationError("mixture grid needs at least 2 points")
    if scores.n_score_dims != 1 or len(scores.classes) != 2:
        raise EstimationError("the shift test is for a single binary score")
    g0 = scores.classes[0].ravel()
    g1 = scores.classes[1].ravel()
    gu = scores.unlabeled.ravel()
    if gu.size == 0:
        raise EstimationError("no unlabeled scores")
    if g0.size == 0 or g1.size == 0:
        raise EstimationError("empty sample has no ECDF")
    base, delta = _ecdf_gaps(g0, g1, gu)
    weights = np.linspace(0.0, 1.0, grid_size)

    def distances(start: int, stop: int) -> np.ndarray:
        rows = weights[start:stop, None]
        return np.max(np.abs(base[None, :] + rows * delta[None, :]), axis=1)

    best, distance = _first_minimum(distances, grid_size, 4.0 * grid_size * np.finfo(float).eps)
    return distance, float(weights[best])


def _first_minimum(distances, size: int, tol: float) -> tuple[int, float]:
    """Index and value of the first minimum of a sequence convex up to rounding.

    ``distances(start, stop)`` returns the values at indices [start, stop).
    Bisection finds a j* with f(j*) <= f(j* + 1) in O(log size) values.

    Rounding guard: suppose each computed f(j) is within e of an exact
    sequence that never falls once it has risen, and tol is at least 4 e
    plus the rounding of f(j*) + tol.  A window grows outward from j*, in
    doubling blocks, until each side holds a j with f(j) > f(j*) + tol or
    meets the end.  The exact sequence has risen at such a j, so every index
    beyond it computes above f(j*).  The window therefore holds every
    candidate, and its first ``argmin`` is that of the whole sequence.
    """
    lo, hi = 0, size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        here, after = distances(mid, mid + 2)
        if here <= after:
            hi = mid
        else:
            lo = mid + 1
    window = [distances(lo, lo + 1)]
    limit = window[0][0] + tol
    start, stop, width = lo, lo + 1, 1
    grow_down, grow_up = start > 0, stop < size
    while grow_down or grow_up:
        if grow_down:
            block = distances(max(0, start - width), start)
            window.insert(0, block)
            start -= block.size
            grow_down = start > 0 and block.max() <= limit
        if grow_up:
            block = distances(stop, min(size, stop + width))
            window.append(block)
            stop += block.size
            grow_up = stop < size and block.max() <= limit
        width *= 2
    values = np.concatenate(window)
    best = int(np.argmin(values))
    return start + best, float(values[best])


@dataclass(frozen=True)
class KernelDensity:
    """Gaussian-kernel smoothing of a sample, used only for resampling."""

    values: np.ndarray
    bandwidth: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = rng.integers(0, self.values.size, size=size)
        return self.values[idx] + rng.normal(0.0, self.bandwidth, size=size)


def kde_fit(values: np.ndarray) -> KernelDensity:
    """Fit a Gaussian KDE with the Silverman rule-of-thumb bandwidth.

    h = 0.9 * min(sd, IQR / 1.34) * n^(-1/5).  A spread of zero would give
    h = 0 and a degenerate sampler, so the bandwidth is floored at
    1e-6 * (1 + |median|).
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size < 2:
        raise EstimationError("KDE needs at least two values")
    sd = float(np.std(values, ddof=1))
    q75, q25 = np.percentile(values, [75.0, 25.0])
    spread = min(sd, (q75 - q25) / 1.34)
    bandwidth = 0.9 * spread * values.size ** (-0.2)
    if not np.isfinite(bandwidth) or bandwidth <= 0.0:
        bandwidth = 1e-6 * (1.0 + abs(float(np.median(values))))
    return KernelDensity(values=values.copy(), bandwidth=float(bandwidth))


@dataclass(frozen=True)
class ShiftTestResult:
    """Observed statistic, best mixing weight, and the Monte Carlo p-value.

    ``p_star`` is the raw minimizing mixture weight; ``theta_hat`` is the
    prevalence actually used to redraw unlabeled replicates (``p_star``
    clamped to [0, 1]).
    """

    statistic: float
    p_star: float
    theta_hat: float
    p_value: float
    replicates: int
    bandwidth0: float
    bandwidth1: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_star": self.p_star,
            "theta_hat": self.theta_hat,
            "p_value": self.p_value,
            "replicates": self.replicates,
            "bandwidth0": self.bandwidth0,
            "bandwidth1": self.bandwidth1,
            "seed": self.seed,
        }


def shift_test(
    scores: ScoredDataset,
    replicates: int = 1000,
    seed: int = 0,
    grid_size: int = 1001,
) -> ShiftTestResult:
    """Test whether the unlabeled scores are a mixture of the class scores.

    Large observed statistics are evidence against the mixture assumption;
    the p-value is the fraction of replicate statistics at least as large,
    where each replicate redraws labeled groups from their KDEs and the
    unlabeled group from the KDE mixture at the best observed weight.  Each
    replicate uses a generator derived from (seed, replicate index), so the
    result is reproducible and replicates are order-independent.
    """
    if replicates < 1:
        raise EstimationError("need at least one Monte Carlo replicate")
    statistic, p_star = t_statistic(scores, grid_size=grid_size)
    theta_hat = min(1.0, max(0.0, p_star))
    g0 = scores.classes[0].ravel()
    g1 = scores.classes[1].ravel()
    n0, n1, n_u = g0.size, g1.size, scores.n_unlabeled
    kde0 = kde_fit(g0)
    kde1 = kde_fit(g1)
    exceeded = 0
    for b in range(replicates):
        rng = rng_from(seed, b)
        synth0 = kde0.sample(rng, n0)
        synth1 = kde1.sample(rng, n1)
        from_class1 = rng.random(n_u) < theta_hat
        count1 = int(from_class1.sum())
        synth_u = np.empty(n_u)
        synth_u[from_class1] = kde1.sample(rng, count1)
        synth_u[~from_class1] = kde0.sample(rng, n_u - count1)
        synth = ScoredDataset(unlabeled=synth_u, classes=(synth0, synth1))
        replicate_stat, _ = t_statistic(synth, grid_size=grid_size)
        if replicate_stat >= statistic:
            exceeded += 1
    return ShiftTestResult(
        statistic=statistic,
        p_star=p_star,
        theta_hat=theta_hat,
        p_value=exceeded / replicates,
        replicates=replicates,
        bandwidth0=kde0.bandwidth,
        bandwidth1=kde1.bandwidth,
        seed=seed,
    )
