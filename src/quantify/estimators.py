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
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import EstimationError, ScoredDataset

DEFAULT_MIN_DENOM = 1e-8


def _clip01(x: float) -> float:
    return float(min(1.0, max(0.0, x)))


def _single_score_column(scores: ScoredDataset, op: str) -> None:
    if scores.n_score_dims != 1:
        raise EstimationError(f"{op} needs a single score column, got {scores.n_score_dims}")


@dataclass(frozen=True)
class ThetaEstimate:
    """A prevalence estimate with optional uncertainty attachments.

    ``theta`` is trimmed to [0, 1]; ``theta_raw`` keeps the untrimmed value.
    Group statistics are present only for ratio-type estimates, where they
    feed the variance proxy and confidence interval.
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


def _group_stats(g0: np.ndarray, g1: np.ndarray) -> tuple[float, float, float, float]:
    g0 = g0.ravel()
    g1 = g1.ravel()
    mu0, mu1 = float(g0.mean()), float(g1.mean())
    # 1/n normalization: keeps the plug-in identities with the kernel
    # objective exact and is harmless at the sample sizes quantification uses.
    var0 = float(np.mean((g0 - mu0) ** 2))
    var1 = float(np.mean((g1 - mu1) ** 2))
    return mu0, mu1, var0, var1


def _separation(mu0: float, mu1: float, min_denom: float) -> float:
    """mu1 - mu0, or EstimationError when it is too small to divide by."""
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
    a denominator smaller than ``min_denom`` in absolute value raises
    :class:`EstimationError`.
    """
    _single_score_column(scores, "ratio_estimate")
    if len(scores.classes) != 2:
        raise EstimationError("ratio_estimate is binary; use multiclass_ratio for k > 1")
    if scores.n_unlabeled == 0:
        raise EstimationError("no unlabeled scores")
    mu0, mu1, var0, var1 = _group_stats(scores.classes[0], scores.classes[1])
    denom = _separation(mu0, mu1, min_denom)
    mean_unlabeled = float(scores.unlabeled.mean())
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
    )


def classify_and_count(scores: ScoredDataset, threshold: float = 0.5) -> ThetaEstimate:
    """Fraction of unlabeled scores above ``threshold`` (no shift correction)."""
    _single_score_column(scores, "classify_and_count")
    if scores.n_unlabeled == 0:
        raise EstimationError("no unlabeled scores")
    frac = float(np.mean(scores.unlabeled.ravel() > threshold))
    return ThetaEstimate(theta=frac, theta_raw=frac, method="cc")


def ratio_variance(
    est: ThetaEstimate,
    n_total: int,
    n_labeled: int,
    n0: int,
    n1: int,
    regime: str = "auto",
) -> ThetaEstimate:
    """Attach the normal-approximation variance proxy to a ratio estimate.

    Two sampling regimes are covered.  ``dense``: the labeled sample is a
    non-vanishing fraction of all data, and the proxy is V / n_total with V
    the asymptotic variance of the ratio when group means and the unlabeled
    mean all fluctuate.  ``sparse``: labeled data are asymptotically
    negligible (here: fewer than 5% of all rows under ``auto``), so only the
    class-mean fluctuations matter and the proxy is V' / n_labeled.
    """
    if est.mu0 is None or est.var0 is None:
        raise EstimationError("estimate lacks the group statistics the variance needs")
    if regime not in ("auto", "dense", "sparse"):
        raise EstimationError(f"unknown regime {regime!r}")
    if min(n_total, n_labeled, n0, n1) <= 0 or n0 + n1 != n_labeled or n_labeled > n_total:
        raise EstimationError("inconsistent sample counts")
    if regime == "auto":
        regime = "sparse" if n_labeled / n_total < 0.05 else "dense"

    theta = est.theta
    d2 = (est.mu1 - est.mu0) ** 2
    p0 = n0 / n_labeled
    p1 = n1 / n_labeled
    if regime == "dense":
        p_lab = n_labeled / n_total
        if p_lab >= 1.0:
            raise EstimationError("dense regime needs unlabeled rows (labeled fraction is 1)")
        var_unlabeled = (1 - theta) * est.var0 + theta * est.var1 + d2 * theta * (1 - theta)
        v = (
            var_unlabeled / (1 - p_lab)
            + (1 - theta) ** 2 * est.var0 / (p_lab * p0)
            + theta**2 * est.var1 / (p_lab * p1)
        ) / d2
        variance = v / n_total
    else:
        v = ((1 - theta) ** 2 * est.var0 / p0 + theta**2 * est.var1 / p1) / d2
        variance = v / n_labeled
    return dataclasses.replace(est, variance=float(variance))


def _variance_from_scores(est: ThetaEstimate, scores: ScoredDataset, regime: str) -> ThetaEstimate:
    """:func:`ratio_variance` with the sample counts taken from the scored data."""
    n0, n1 = scores.class_counts
    return ratio_variance(
        est, n_total=scores.n_unlabeled + n0 + n1, n_labeled=n0 + n1, n0=n0, n1=n1, regime=regime
    )


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


def _empirical_mse_from_groups(
    g0: np.ndarray, g1: np.ndarray, theta: float, min_denom: float = DEFAULT_MIN_DENOM
) -> float:
    mu0, mu1, var0, var1 = _group_stats(g0, g1)
    denom = _separation(mu0, mu1, min_denom)
    n_labeled = g0.size + g1.size
    p0 = g0.size / n_labeled
    p1 = g1.size / n_labeled
    return float((var0 * (1 - theta) ** 2 / p0 + var1 * theta**2 / p1) / (n_labeled * denom**2))


def empirical_mse(
    scores: ScoredDataset, theta: float, min_denom: float = DEFAULT_MIN_DENOM
) -> float:
    """Plug-in mean squared error proxy of the ratio estimate for a given score.

    Uses only labeled-group statistics, so it stays meaningful when the
    labeled sample is small relative to the unlabeled one, and it is the
    selection criterion the kernel score search minimizes.
    """
    _single_score_column(scores, "empirical_mse")
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


def multiclass_ratio(scores: ScoredDataset, max_condition: float = 1e8) -> SimplexEstimate:
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
    if scores.n_unlabeled == 0:
        raise EstimationError("no unlabeled scores")
    g_bar = scores.unlabeled.mean(axis=0)
    group_means = np.column_stack([c.mean(axis=0) for c in scores.classes])
    system = np.vstack([group_means, np.ones(k_plus_one)])
    rhs = np.append(g_bar, 1.0)
    condition = float(np.linalg.cond(system))
    if not np.isfinite(condition) or condition > max_condition:
        raise EstimationError(
            f"class-mean system is ill-conditioned (cond = {condition:.3e}); "
            "the score does not separate the classes"
        )
    theta_raw, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    theta = project_simplex(theta_raw)
    residual = float(np.linalg.norm(theta_raw - theta))
    return SimplexEstimate(theta=theta, theta_raw=theta_raw, residual=residual)


def em_estimate(
    scores: ScoredDataset,
    theta_train: float,
    max_iter: int = 10000,
    tol: float = 1e-8,
) -> ThetaEstimate:
    """Maximum-likelihood prevalence via the classic EM fixed point.

    Requires probability scores: each unlabeled g is reweighted by the
    candidate prior relative to the training prior and the posterior mass of
    class 1 is averaged.  Iteration starts at ``theta_train``.
    """
    _single_score_column(scores, "em_estimate")
    g = scores.unlabeled.ravel()
    if g.size == 0:
        raise EstimationError("no unlabeled scores")
    if np.any(g <= 0.0) or np.any(g >= 1.0):
        raise EstimationError("EM needs probability scores strictly inside (0, 1)")
    if not 0.0 < theta_train < 1.0:
        raise EstimationError(f"training prevalence must be in (0, 1), got {theta_train}")
    lift1 = g / theta_train
    lift0 = (1.0 - g) / (1.0 - theta_train)
    theta = theta_train
    for _ in range(max_iter):
        mass1 = theta * lift1
        posterior = mass1 / (mass1 + (1.0 - theta) * lift0)
        theta_next = float(posterior.mean())
        if abs(theta_next - theta) <= tol:
            return ThetaEstimate(theta=_clip01(theta_next), theta_raw=theta_next, method="em")
        theta = theta_next
    raise EstimationError(f"EM did not converge in {max_iter} iterations")


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

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "weight": self.weight,
            "theta_ratio": self.theta_ratio,
            "theta_labels": self.theta_labels,
            "mse_ratio": self.mse_ratio,
            "mse_labels": self.mse_labels,
            "n_target_labels": self.n_target_labels,
        }


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
