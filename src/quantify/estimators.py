"""Prevalence estimators for a binary or multiclass target population.

The central object is the ratio estimate: with a score g, class means
mu0 = E[g | Y=0] and mu1 = E[g | Y=1] estimated on the labeled sample, and
the unlabeled mean of g, the prevalence of class 1 solves a one-dimensional
moment equation.  Classify-and-count, an EM fixed point for probability
scores, and a convex combination with a small labeled subsample of the
target population are provided as companions and baselines.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import EstimationError, ScoredDataset

DEFAULT_MIN_DENOM = 1e-8
DEFAULT_THRESHOLD = 0.5  # the classify-and-count cut, for the estimate and the curve
_MAX_CONDITION = 1e8  # multiclass_ratio refuses a class-mean system worse conditioned than this
_EM_MAX_ITER, _EM_TOL = 10000, 1e-8  # em_estimate's step budget; the step size at convergence


def _clip01(x: float) -> float:
    return float(min(1.0, max(0.0, x)))


def _binary_scores(scores: ScoredDataset, op: str) -> None:
    """Refuse ``scores`` unless they are one score column over two labeled classes."""
    if len(scores.classes) != 2:
        raise EstimationError(f"{op} is binary; use multiclass_ratio for k > 1")
    if scores.n_score_dims != 1:
        raise EstimationError(f"{op} needs a single score column, got {scores.n_score_dims}")


@dataclass(frozen=True)
class ThetaEstimate:
    """A prevalence estimate with optional uncertainty attachments.

    ``theta`` is trimmed to [0, 1]; ``theta_raw`` keeps the untrimmed value.
    Group statistics and sample sizes are present only for ratio-type
    estimates, where they feed the variance proxy and confidence interval;
    the sample sizes are not part of :meth:`to_dict`.
    """

    theta: float
    theta_raw: float
    method: str
    mu0: float | None = None
    mu1: float | None = None
    var0: float | None = None
    var1: float | None = None
    mean_unlabeled: float | None = None
    variance: float | None = None
    ci: tuple[float, float, float] | None = None
    n0: int | None = None
    n1: int | None = None
    n_unlabeled: int | None = None

    @property
    def denominator(self) -> float | None:
        if self.mu0 is None or self.mu1 is None:
            return None
        return self.mu1 - self.mu0

    def to_dict(self) -> dict:
        payload: dict = {
            "theta": self.theta,
            "theta_raw": self.theta_raw,
            "method": self.method,
        }
        if self.variance is not None:
            payload["variance"] = self.variance
        if self.ci is not None:
            lo, hi, level = self.ci
            payload["ci"] = {"lo": lo, "hi": hi, "level": level}
        if self.mu0 is not None:
            payload["diagnostics"] = {
                "mu0": self.mu0,
                "mu1": self.mu1,
                "var0": self.var0,
                "var1": self.var1,
                "mean_unlabeled": self.mean_unlabeled,
                "denominator": self.denominator,
            }
        return payload


def _mean(scores: np.ndarray, group: str, axis: int | None = None):
    """The mean of ``scores`` (a float, or per column with ``axis=0``), or
    EstimationError when the sum of any column overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean is refused below
        mean = scores.mean(axis=axis)
    if not np.all(np.isfinite(mean)):
        raise EstimationError(f"the {group} score mean is not finite: the sum of its scores overflows")
    return float(mean) if axis is None else mean


def _group_stats(g0: np.ndarray, g1: np.ndarray) -> tuple[float, float, float, float]:
    g0 = g0.ravel()
    g1 = g1.ravel()
    mu0, mu1 = _mean(g0, "class 0"), _mean(g1, "class 1")
    # 1/n normalization: keeps the plug-in identities with the kernel
    # objective exact and is harmless at the sample sizes quantification uses.
    with np.errstate(over="ignore"):  # an infinite variance is refused by ratio_variance
        var0 = float(np.mean((g0 - mu0) ** 2))
        var1 = float(np.mean((g1 - mu1) ** 2))
    return mu0, mu1, var0, var1


def _separation(mu0: float, mu1: float, min_denom: float) -> float:
    """mu1 - mu0, or EstimationError when it is too small to divide by."""
    if not min_denom >= 0.0:  # a NaN or negative bound would let every denominator through
        raise EstimationError(f"min_denom must be non-negative, got {min_denom}")
    denom = mu1 - mu0
    if abs(denom) <= min_denom:
        raise EstimationError(
            f"separability violated: |mu1 - mu0| = {abs(denom):.3e} <= {min_denom:.3e}"
        )
    return denom


def ratio_estimate(scores: ScoredDataset, min_denom: float = DEFAULT_MIN_DENOM) -> ThetaEstimate:
    """Estimate the class-1 prevalence of the unlabeled population.

    theta_raw = (mean of g on unlabeled - mu0) / (mu1 - mu0), trimmed to
    [0, 1].  Scores whose class means coincide cannot separate the classes;
    a denominator smaller than ``min_denom`` in absolute value, or a class
    or unlabeled mean whose sum overflows, raises :class:`EstimationError`.
    """
    _binary_scores(scores, "ratio_estimate")
    mu0, mu1, var0, var1 = _group_stats(scores.classes[0], scores.classes[1])
    denom = _separation(mu0, mu1, min_denom)
    mean_unlabeled = _mean(scores.unlabeled, "unlabeled")
    theta_raw = (mean_unlabeled - mu0) / denom
    return ThetaEstimate(
        theta=_clip01(theta_raw),
        theta_raw=float(theta_raw),
        method="ratio",
        mu0=mu0,
        mu1=mu1,
        var0=var0,
        var1=var1,
        mean_unlabeled=mean_unlabeled,
        n0=scores.class_counts[0],
        n1=scores.class_counts[1],
        n_unlabeled=scores.n_unlabeled,
    )


def _cc_indicator(scores: np.ndarray, threshold: float, op: str) -> np.ndarray:
    """The classify-and-count rule: 1.0 where the one score column exceeds ``threshold``."""
    if scores.shape[1] != 1:
        raise EstimationError(f"{op} needs a single score column, got {scores.shape[1]}")
    if math.isnan(threshold):  # every score compares false with NaN
        raise EstimationError(f"the cc threshold must be a number, got {threshold}")
    return (scores.ravel() > threshold).astype(float)


def classify_and_count(scores: ScoredDataset, threshold: float = DEFAULT_THRESHOLD) -> ThetaEstimate:
    """Fraction of unlabeled scores above ``threshold`` (no shift correction)."""
    frac = float(np.mean(_cc_indicator(scores.unlabeled, threshold, "classify_and_count")))
    return ThetaEstimate(theta=frac, theta_raw=frac, method="cc")


def ratio_variance(est: ThetaEstimate, regime: str = "auto") -> ThetaEstimate:
    """Attach the normal-approximation variance proxy to a ratio estimate.

    Two sampling regimes are covered.  ``dense``: the labeled sample is a
    non-vanishing fraction of all data, and the proxy is V / n_total with V
    the asymptotic variance of the ratio when group means and the unlabeled
    mean all fluctuate.  ``sparse``: labeled data are asymptotically
    negligible (here: fewer than 5% of all rows under ``auto``), so only the
    class-mean fluctuations matter and the proxy is V' / n_labeled.  The
    sample sizes are the ones :func:`ratio_estimate` recorded on ``est``.
    """
    if not isinstance(est, ThetaEstimate) or est.mu0 is None or est.var0 is None or est.n0 is None:
        raise EstimationError("estimate lacks the group statistics the variance needs")
    if regime not in ("auto", "dense", "sparse"):
        raise EstimationError(f"unknown regime {regime!r}")
    if min(est.n0, est.n1) < 1:
        raise EstimationError(f"class sample counts must be at least 1, got {est.n0} and {est.n1}")
    n_labeled = est.n0 + est.n1
    n_total = n_labeled + est.n_unlabeled
    if regime == "auto":
        regime = "sparse" if n_labeled / n_total < 0.05 else "dense"

    theta = est.theta
    try:
        d2 = (est.mu1 - est.mu0) ** 2
    except OverflowError:
        d2 = math.inf
    if not all(map(math.isfinite, (d2, est.var0, est.var1))):
        raise EstimationError("the variance needs finite (mu1 - mu0)^2, var0 and var1, "
                              f"got {d2}, {est.var0} and {est.var1}")
    if regime == "sparse":
        variance = _sparse_mse(est.var0, est.var1, theta, est.n0, est.n1, d2)
        return dataclasses.replace(est, variance=variance)
    p_lab = n_labeled / n_total
    if p_lab >= 1.0:
        raise EstimationError("dense regime needs unlabeled rows (labeled fraction is 1)")
    p0 = est.n0 / n_labeled
    p1 = est.n1 / n_labeled
    var_unlabeled = (1 - theta) * est.var0 + theta * est.var1 + d2 * theta * (1 - theta)
    v = (
        var_unlabeled / (1 - p_lab)
        + (1 - theta) ** 2 * est.var0 / (p_lab * p0)
        + theta**2 * est.var1 / (p_lab * p1)
    ) / d2
    return dataclasses.replace(est, variance=float(v / n_total))


def ratio_ci(est: ThetaEstimate, level: float = 0.95) -> ThetaEstimate:
    """Attach a symmetric normal confidence interval, deliberately untrimmed.

    Trimming the interval to [0, 1] would silently shorten it; callers that
    want a display-friendly version can clip the endpoints themselves.
    """
    if not 0.0 < level < 1.0:
        raise EstimationError(f"confidence level must be in (0, 1), got {level}")
    if est.variance is None:
        raise EstimationError("estimate has no variance; call ratio_variance first")
    half = NormalDist().inv_cdf((1.0 + level) / 2.0) * float(np.sqrt(est.variance))
    return dataclasses.replace(est, ci=(est.theta - half, est.theta + half, level))


def _sparse_mse(var0: float, var1: float, theta: float, n0: int, n1: int, d2: float) -> float:
    """V' / n_labeled: the ratio's MSE proxy when only the class means fluctuate,
    with d2 = (mu1 - mu0)^2."""
    n_labeled = n0 + n1
    p0 = n0 / n_labeled
    p1 = n1 / n_labeled
    return float((var0 * (1 - theta) ** 2 / p0 + var1 * theta**2 / p1) / (n_labeled * d2))


def _empirical_mse_from_groups(
    g0: np.ndarray, g1: np.ndarray, theta: float, min_denom: float = DEFAULT_MIN_DENOM
) -> float:
    mu0, mu1, var0, var1 = _group_stats(g0, g1)
    denom = _separation(mu0, mu1, min_denom)
    return _sparse_mse(var0, var1, theta, g0.size, g1.size, denom**2)


def empirical_mse(
    scores: ScoredDataset, theta: float, min_denom: float = DEFAULT_MIN_DENOM
) -> float:
    """Plug-in mean squared error proxy of the ratio estimate for a given score.

    Uses only labeled-group statistics, so it stays meaningful when the
    labeled sample is small relative to the unlabeled one, and it is the
    selection criterion the kernel score search minimizes.
    """
    _binary_scores(scores, "empirical_mse")
    return _empirical_mse_from_groups(
        scores.classes[0], scores.classes[1], theta, min_denom
    )


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0 or not np.all(np.isfinite(v)):
        raise EstimationError("simplex projection needs a finite, nonempty vector")
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    ranks = np.arange(1, v.size + 1)
    support = u > (cumulative - 1.0) / ranks
    rho = int(np.nonzero(support)[0][-1])
    tau = (cumulative[rho] - 1.0) / (rho + 1)
    return np.maximum(v - tau, 0.0)


@dataclass(frozen=True)
class SimplexEstimate:
    """Multiclass prevalence estimate before and after simplex projection."""

    theta: np.ndarray
    theta_raw: np.ndarray
    residual: float

    def to_dict(self) -> dict:
        return {
            "theta": self.theta.tolist(),
            "theta_raw": self.theta_raw.tolist(),
            "residual": self.residual,
        }


def multiclass_ratio(scores: ScoredDataset) -> SimplexEstimate:
    """Prevalence vector over k+1 classes from an m >= k dimensional score.

    Solves the stacked least-squares system [G; 1'] theta = [g_bar; 1],
    where G holds the class-conditional score means and g_bar the unlabeled
    means, then projects the solution onto the probability simplex.
    """
    k_plus_one = len(scores.classes)
    m = scores.n_score_dims
    if k_plus_one < 2:
        raise EstimationError("need at least two classes")
    if m < k_plus_one - 1:
        raise EstimationError(f"{m} score dimensions cannot identify {k_plus_one} classes")
    g_bar = _mean(scores.unlabeled, "unlabeled", axis=0)
    group_means = np.column_stack(
        [_mean(c, f"class {j}", axis=0) for j, c in enumerate(scores.classes)])
    system = np.vstack([group_means, np.ones(k_plus_one)])
    rhs = np.append(g_bar, 1.0)
    condition = float(np.linalg.cond(system))
    if not np.isfinite(condition) or condition > _MAX_CONDITION:
        raise EstimationError(
            f"class-mean system is ill-conditioned (cond = {condition:.3e}); "
            "the score does not separate the classes"
        )
    theta_raw, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    theta = project_simplex(theta_raw)
    residual = float(np.linalg.norm(theta_raw - theta))
    return SimplexEstimate(theta=theta, theta_raw=theta_raw, residual=residual)


def em_estimate(scores: ScoredDataset, theta_train: float | None = None) -> ThetaEstimate:
    """Maximum-likelihood prevalence via the classic EM fixed point.

    Requires probability scores: each unlabeled g is reweighted by the
    candidate prior relative to the training prior and the posterior mass of
    class 1 is averaged.  Iteration starts at ``theta_train``, which defaults
    to the labeled class-1 share n1 / (n0 + n1).
    """
    _binary_scores(scores, "em_estimate")
    if theta_train is None:
        n0, n1 = scores.class_counts
        theta_train = n1 / (n0 + n1)
    g = scores.unlabeled.ravel()
    if np.any(g <= 0.0) or np.any(g >= 1.0):
        raise EstimationError("EM needs probability scores strictly inside (0, 1)")
    if not 0.0 < theta_train < 1.0:
        raise EstimationError(f"training prevalence must be in (0, 1), got {theta_train}")
    lift1 = g / theta_train
    lift0 = (1.0 - g) / (1.0 - theta_train)
    theta = theta_train
    for _ in range(_EM_MAX_ITER):
        mass1 = theta * lift1
        posterior = mass1 / (mass1 + (1.0 - theta) * lift0)
        theta_next = float(posterior.mean())
        if abs(theta_next - theta) <= _EM_TOL:
            return ThetaEstimate(theta=_clip01(theta_next), theta_raw=theta_next, method="em")
        theta = theta_next
    raise EstimationError(f"EM did not converge in {_EM_MAX_ITER} iterations")


@dataclass(frozen=True)
class CombinedEstimate:
    """Convex combination of the ratio estimate with a labeled-subsample mean."""

    theta: float
    weight: float
    theta_ratio: float
    theta_labels: float
    mse_ratio: float
    mse_labels: float
    n_target_labels: int


def combined_estimate(ratio: ThetaEstimate, target_labels) -> CombinedEstimate:
    """Blend a ratio estimate with labels observed on the target population.

    The weight on the ratio arm is mse_labels / (mse_labels + mse_ratio),
    which minimizes w^2 * mse_ratio + (1-w)^2 * mse_labels, the combined
    error when the two arms are independent and unbiased.  When both proxies
    are zero the arms are indistinguishable and the weight defaults to 1/2.
    """
    labels = np.asarray(target_labels, dtype=float).ravel()
    if labels.size == 0:
        raise EstimationError("combined estimate needs at least one target label")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise EstimationError("target labels must be 0 or 1")
    if ratio.variance is None:
        raise EstimationError("ratio estimate has no variance; call ratio_variance first")
    theta_labels = float(labels.mean())
    mse_labels = theta_labels * (1.0 - theta_labels) / labels.size
    mse_ratio = float(ratio.variance)
    total = mse_labels + mse_ratio
    weight = 0.5 if total == 0.0 else mse_labels / total
    theta = _clip01(weight * ratio.theta + (1.0 - weight) * theta_labels)
    return CombinedEstimate(
        theta=theta,
        weight=float(weight),
        theta_ratio=ratio.theta,
        theta_labels=theta_labels,
        mse_ratio=mse_ratio,
        mse_labels=mse_labels,
        n_target_labels=int(labels.size),
    )
