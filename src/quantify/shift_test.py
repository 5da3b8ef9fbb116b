"""Monte Carlo check of the assumption quantification rests on.

The ratio estimate is only meaningful when the unlabeled score distribution
is a two-point mixture of the class-conditional score distributions.  The
test statistic is the smallest Kolmogorov distance between the unlabeled
ECDF and any mixture of the two class ECDFs; its null distribution is
approximated by redrawing all three samples from smoothed (kernel density)
versions of the class distributions mixed at the best-fitting weight.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .core import EstimationError, ScoredDataset, _middle, rng_from


def _ecdf_counts(
    g0: np.ndarray, g1: np.ndarray, gu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each group's count of values at or below each distinct pooled value, in sorted order.

    One sort of the pooled sample; a group's cumulative count at the last copy
    of a value includes every copy, so the sort need not be stable.
    """
    n0, n1 = g0.size, g1.size
    pooled = np.concatenate([g0, g1, gu])
    order = np.argsort(pooled)
    ranked = pooled[order]
    last = np.append(ranked[1:] != ranked[:-1], True)
    labeled = np.cumsum(order < n0 + n1)[last]
    c0 = np.cumsum(order < n0)[last]
    return c0, labeled - c0, np.flatnonzero(last) + 1 - labeled


def t_statistic(scores: ScoredDataset, grid_size: int) -> tuple[float, float]:
    """Best-mixture Kolmogorov distance and the mixing weight attaining it.

    The sup over evaluation points is taken on the pooled observed values,
    where all three ECDFs step.  The weight ranges over w_j = j / (G - 1);
    ties go to the smallest, reported with the bits of np.linspace(0, 1, G)[j].

    ECDF values are counts c over group sizes, so with D = lcm(n0, n1, n_u)
    and L = D (G - 1) the distance at w_j is f(j) / L for the integers
    f(j) = max_x |A + j B|, A = (G - 1) (c0 D / n0 - cu D / n_u) and
    B = c1 D / n1 - c0 D / n0.  f is convex: it falls strictly up to its
    first minimum and never falls after it, so bisection on f(j) <= f(j + 1)
    finds that minimum exactly, and f / L is rounded once.  |A + j B| <= 2 L,
    so int64 holds every term while L < 2**61; above that the same
    expressions run on Python integers, about 20 times slower.

    Time is O(n log n + n log G) and memory O(n), for n pooled values.
    """
    if grid_size < 2:
        raise EstimationError("mixture grid needs at least 2 points")
    if scores.n_score_dims != 1 or len(scores.classes) != 2:
        raise EstimationError("the shift test is for a single binary score")
    g0 = scores.classes[0].ravel()
    g1 = scores.classes[1].ravel()
    gu = scores.unlabeled.ravel()
    steps = operator.index(grid_size) - 1
    common = math.lcm(g0.size, g1.size, gu.size)
    scale = common * steps
    dtype = np.int64 if scale < 2**61 else object
    c0, c1, cu = (c.astype(dtype, copy=False) for c in _ecdf_counts(g0, g1, gu))
    f0 = c0 * (common // g0.size)
    base = steps * (f0 - cu * (common // gu.size))
    slope = c1 * (common // g1.size) - f0

    def distance(j: int) -> int:
        return int(np.abs(base + j * slope).max())

    lo, hi = 0, steps
    while lo < hi:
        mid = (lo + hi) // 2
        if distance(mid) <= distance(mid + 1):
            hi = mid
        else:
            lo = mid + 1
    return distance(lo) / scale, 1.0 if lo == steps else lo * (1.0 / steps)


@dataclass(frozen=True)
class KernelDensity:
    """Gaussian-kernel smoothing of a sample, used only for resampling."""

    values: np.ndarray
    bandwidth: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = rng.integers(0, self.values.size, size=size)
        return self.values[idx] + rng.normal(0.0, self.bandwidth, size=size)


def _quartiles(values: np.ndarray) -> tuple[float, float]:
    """``np.percentile(values, [75, 25])`` bit for bit, for two or more values; partitions in place.

    numpy's linear method: at virtual index i = (n - 1) q it takes a = v(floor i) and
    b = v(floor i + 1) and returns a + (b - a) t, or b - (b - a) (1 - t) when t >= 0.5,
    with t = i - floor i; any NaN gives the NaN it sorts last.  The partition points are
    numpy's, so the arrangement is too.  This skips the ``np.unique`` that makes
    ``np.percentile`` import ``numpy.ma``.
    """
    n = values.size
    picks = []
    for q in (0.75, 0.25):
        index = (n - 1) * q
        below = math.floor(index)
        picks.append((below, index - below))
    values.partition([0, -1, *(i for below, _ in picks for i in (below, below + 1))])
    if np.isnan(values[-1]):
        return values[-1], values[-1]
    quartiles = []
    for below, t in picks:
        a, b = values[below], values[below + 1]
        quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return quartiles[0], quartiles[1]


def kde_fit(values: np.ndarray) -> KernelDensity:
    """Fit a Gaussian KDE with the Silverman rule-of-thumb bandwidth.

    h = 0.9 * min(sd, IQR / 1.34) * n^(-1/5).  A spread of zero would give
    h = 0 and a degenerate sampler, so the bandwidth is floored at
    1e-6 * (1 + |median|).
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size < 2:
        raise EstimationError("KDE needs at least two values")
    with np.errstate(over="ignore"):  # an infinite sd loses to the IQR or the floor below
        sd = float(np.std(values, ddof=1))
    q75, q25 = _quartiles(values.copy())
    spread = min(sd, (q75 - q25) / 1.34)
    bandwidth = 0.9 * spread * values.size ** (-0.2)
    if not np.isfinite(bandwidth) or bandwidth <= 0.0:
        bandwidth = 1e-6 * (1.0 + abs(float(np.mean(_middle(values.copy())))))
    return KernelDensity(values=values.copy(), bandwidth=float(bandwidth))


@dataclass(frozen=True)
class ShiftTestResult:
    """Observed statistic, best mixing weight, and the Monte Carlo p-value.

    ``p_star`` is the minimizing mixture weight and ``theta_hat`` the
    prevalence used to redraw unlabeled replicates.  They are equal: every
    weight of the mixture grid already lies in [0, 1].
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
        return asdict(self)


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

    Every statistic of one test is an integer over the same L of
    :func:`t_statistic`, so comparing them rounded is exact while L <= 2**53;
    above that a replicate less than a rounding unit below the observed
    statistic can count as reaching it, which only raises the p-value.
    """
    if replicates < 1:
        raise EstimationError("need at least one Monte Carlo replicate")
    statistic, p_star = t_statistic(scores, grid_size=grid_size)
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
        from_class1 = rng.random(n_u) < p_star
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
        theta_hat=p_star,
        p_value=exceeded / replicates,
        replicates=replicates,
        bandwidth0=kde0.bandwidth,
        bandwidth1=kde1.bandwidth,
        seed=seed,
    )
