"""Synthetic scenarios and Monte Carlo studies over the estimators.

Scenario kinds fall into three groups: score-level binary scenarios that
draw the score values themselves from named class-conditional laws
(gaussian, exponential, gaussian_exponential, beta, and resampling from a
scored corpus), a feature-level multiclass scenario (isotropic Gaussian
bumps in ten dimensions, scored by one-vs-rest logistic fits), and a
covariate scenario whose unlabeled prevalence follows a sine curve in z.

Every study is deterministic given its seed: replicate r of cell c uses a
generator derived from (seed, c, r) and never touches shared state, so the
work may be distributed across processes (capped by QUANTIFY_THREADS)
without changing any number in the report.
"""

from __future__ import annotations

import csv
import dataclasses
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    DataError,
    EstimationError,
    ExternalScore,
    RawDataset,
    ScoredDataset,
    fit_logistic_ovr,
    rng_from,
    score_dataset,
)
from .estimators import (
    CombinedEstimate,
    _variance_from_scores,
    classify_and_count,
    combined_estimate,
    em_estimate,
    multiclass_ratio,
    ratio_ci,
    ratio_estimate,
)
from .regression import cc_regress, ratio_regress
from .shift_test import shift_test

SCENARIO_KINDS = (
    "gaussian",
    "exponential",
    "gaussian_exponential",
    "beta",
    "multiclass_gaussian",
    "regression_sine",
    "resample",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic scenario.

    Only the fields relevant to ``kind`` are read.  ``gamma`` moves the
    unlabeled class-0 law away from its labeled counterpart (location for
    the gaussian kinds, rate for the exponential, first shape parameter for
    the beta); ``None`` keeps the two laws equal, under which the mixture
    assumption holds exactly.
    """

    kind: str
    n_unlabeled: int
    n_class: tuple[int, ...]
    theta: float = 0.6
    gamma: float | None = None
    # gaussian / gaussian_exponential locations and common sd
    mean0: float = 0.0
    mean1: float = 2.0
    sd: float = 1.0
    # exponential rates (class 1 also used by gaussian_exponential)
    rate0: float = 1.0
    rate1: float = 5.0
    # beta shapes
    a0: float = 1.0
    b0: float = 1.0
    a1: float = 1.0
    b1: float = 10.0
    # multiclass: one isotropic Gaussian bump per class at level * ones(dim)
    levels: tuple[float, ...] = (0.0, 0.75, 1.25)
    dim: int = 10
    target_priors: tuple[float, ...] = (0.25, 0.10, 0.65)
    # regression: score separation and sine cycles of the prevalence curve
    mu: float = 1.0
    cycles: int = 1
    corpus: RawDataset | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise EstimationError(f"unknown scenario kind {self.kind!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise EstimationError(f"theta must be in [0, 1], got {self.theta}")
        if self.n_unlabeled < 1 or any(n < 1 for n in self.n_class):
            raise EstimationError("all group sizes must be at least 1")

    def meta(self) -> dict:
        payload = dataclasses.asdict(self)
        payload.pop("corpus", None)
        payload["n_class"] = list(self.n_class)
        return payload


def table_scenario(
    kind: str,
    n_unlabeled: int = 300,
    n_class: tuple[int, int] = (150, 150),
    gamma: float | None = None,
    theta: float = 0.6,
) -> ScenarioSpec:
    """Canonical parameterization of the four binary test scenarios."""
    common = dict(kind=kind, n_unlabeled=n_unlabeled, n_class=n_class, gamma=gamma, theta=theta)
    if kind == "gaussian":
        return ScenarioSpec(mean0=0.0, mean1=2.0, sd=1.0, **common)
    if kind == "exponential":
        return ScenarioSpec(rate0=1.0, rate1=5.0, **common)
    if kind == "gaussian_exponential":
        return ScenarioSpec(mean0=1.0, sd=1.0, rate1=1.0, **common)
    if kind == "beta":
        return ScenarioSpec(a0=1.0, b0=1.0, a1=1.0, b1=10.0, **common)
    raise EstimationError(f"no canonical test parameterization for kind {kind!r}")


def symmetric_gaussian(
    theta: float,
    n_unlabeled: int,
    n_class: tuple[int, int],
    mu: float = 1.0,
) -> ScenarioSpec:
    """Estimation scenario with score laws N(-mu, 1) and N(+mu, 1), no shift."""
    return ScenarioSpec(
        kind="gaussian",
        n_unlabeled=n_unlabeled,
        n_class=n_class,
        theta=theta,
        mean0=-mu,
        mean1=mu,
        sd=1.0,
    )


def null_gamma(spec: ScenarioSpec) -> float:
    """The gamma value under which the unlabeled class-0 law is unshifted."""
    if spec.kind in ("gaussian", "gaussian_exponential"):
        return spec.mean0
    if spec.kind == "exponential":
        return spec.rate0
    if spec.kind == "beta":
        return spec.a0
    raise EstimationError(f"kind {spec.kind!r} has no shift parameter")


def _binary_law_samplers(spec: ScenarioSpec):
    """(labeled class 0, class 1, unlabeled class 0) samplers for score kinds."""
    gamma = spec.gamma

    if spec.kind == "gaussian":
        unlabeled_mean0 = spec.mean0 if gamma is None else gamma
        return (
            lambda rng, n: rng.normal(spec.mean0, spec.sd, n),
            lambda rng, n: rng.normal(spec.mean1, spec.sd, n),
            lambda rng, n: rng.normal(unlabeled_mean0, spec.sd, n),
        )
    if spec.kind == "exponential":
        unlabeled_rate0 = spec.rate0 if gamma is None else gamma
        if min(spec.rate0, spec.rate1, unlabeled_rate0) <= 0:
            raise EstimationError("exponential rates must be positive")
        return (
            lambda rng, n: rng.exponential(1.0 / spec.rate0, n),
            lambda rng, n: rng.exponential(1.0 / spec.rate1, n),
            lambda rng, n: rng.exponential(1.0 / unlabeled_rate0, n),
        )
    if spec.kind == "gaussian_exponential":
        unlabeled_mean0 = spec.mean0 if gamma is None else gamma
        if spec.rate1 <= 0:
            raise EstimationError("exponential rate must be positive")
        return (
            lambda rng, n: rng.normal(spec.mean0, spec.sd, n),
            lambda rng, n: rng.exponential(1.0 / spec.rate1, n),
            lambda rng, n: rng.normal(unlabeled_mean0, spec.sd, n),
        )
    if spec.kind == "beta":
        unlabeled_a0 = spec.a0 if gamma is None else gamma
        if min(spec.a0, spec.b0, spec.a1, spec.b1, unlabeled_a0) <= 0:
            raise EstimationError("beta shape parameters must be positive")
        return (
            lambda rng, n: rng.beta(spec.a0, spec.b0, n),
            lambda rng, n: rng.beta(spec.a1, spec.b1, n),
            lambda rng, n: rng.beta(unlabeled_a0, spec.b0, n),
        )
    raise EstimationError(f"kind {spec.kind!r} is not a binary score scenario")


def _assemble_binary(
    labeled0: np.ndarray,
    labeled1: np.ndarray,
    unlabeled: np.ndarray,
    unlabeled_labels: np.ndarray,
    covariate_labeled: np.ndarray | None = None,
    covariate_unlabeled: np.ndarray | None = None,
) -> RawDataset:
    n0, n1, n_u = labeled0.size, labeled1.size, unlabeled.size
    features = np.concatenate([labeled0, labeled1, unlabeled]).reshape(-1, 1)
    labels = np.concatenate(
        [np.zeros(n0, dtype=int), np.ones(n1, dtype=int), unlabeled_labels]
    )
    sets = np.concatenate([np.ones(n0 + n1, dtype=int), np.zeros(n_u, dtype=int)])
    covariate = None
    if covariate_labeled is not None:
        covariate = np.concatenate([covariate_labeled, covariate_unlabeled])
    return RawDataset(features=features, labels=labels, set_indicator=sets, covariate=covariate)


def _proportional_counts(total: int, priors: tuple[float, ...]) -> np.ndarray:
    """Largest-remainder rounding of total * priors to integer counts."""
    raw = np.asarray(priors, dtype=float) * total
    counts = np.floor(raw).astype(int)
    remainder = total - counts.sum()
    order = np.argsort(raw - np.floor(raw))[::-1]
    counts[order[:remainder]] += 1
    return counts


def generate(spec: ScenarioSpec, seed: int) -> RawDataset:
    """Draw one dataset with exact group sizes per class.

    The unlabeled class counts are the largest-remainder rounding of
    n_unlabeled * (1 - theta, theta), presented in shuffled row order; only
    corpus resampling and the covariate scenario flip per-row coins.
    Unlabeled rows keep their true class label in the dataset (the
    estimators never read labels of set-0 rows; evaluation and the combined
    estimator do).  The same spec and seed give a bit-identical dataset.
    """
    rng = rng_from(seed)
    if spec.kind in ("gaussian", "exponential", "gaussian_exponential", "beta"):
        sample0, sample1, sample_unlabeled0 = _binary_law_samplers(spec)
        n0, n1 = spec.n_class[0], spec.n_class[1]
        labeled0 = sample0(rng, n0)
        labeled1 = sample1(rng, n1)
        counts = _proportional_counts(spec.n_unlabeled, (1.0 - spec.theta, spec.theta))
        unlabeled = np.concatenate(
            [sample_unlabeled0(rng, counts[0]), sample1(rng, counts[1])]
        )
        labels_u = np.repeat(np.arange(2), counts)
        order = rng.permutation(spec.n_unlabeled)
        return _assemble_binary(labeled0, labeled1, unlabeled[order], labels_u[order])

    if spec.kind == "multiclass_gaussian":
        k_plus_one = len(spec.levels)
        if len(spec.n_class) != k_plus_one or len(spec.target_priors) != k_plus_one:
            raise EstimationError("levels, n_class and target_priors must agree in length")
        if abs(sum(spec.target_priors) - 1.0) > 1e-9:
            raise EstimationError("target priors must sum to 1")
        means = np.asarray(spec.levels, dtype=float)[:, None] * np.ones(spec.dim)
        blocks, labels = [], []
        for label, count in enumerate(spec.n_class):
            blocks.append(rng.standard_normal((count, spec.dim)) + means[label])
            labels.append(np.full(count, label))
        counts_u = _proportional_counts(spec.n_unlabeled, spec.target_priors)
        labels_u = rng.permutation(np.repeat(np.arange(k_plus_one), counts_u))
        blocks.append(rng.standard_normal((spec.n_unlabeled, spec.dim)) + means[labels_u])
        labels.append(labels_u)
        n_labeled = sum(spec.n_class)
        sets = np.concatenate(
            [np.ones(n_labeled, dtype=int), np.zeros(spec.n_unlabeled, dtype=int)]
        )
        return RawDataset(
            features=np.vstack(blocks), labels=np.concatenate(labels), set_indicator=sets
        )

    if spec.kind == "regression_sine":
        # Labeled prevalence is flat at 1/2; the unlabeled prevalence follows
        # theta(z) = (sin(2 pi z cycles) + 1) / 2 over z ~ U(0, 1).
        n_labeled = sum(spec.n_class)
        z_labeled = rng.random(n_labeled)
        y_labeled = (rng.random(n_labeled) < 0.5).astype(int)
        x_labeled = rng.standard_normal(n_labeled) + np.where(y_labeled == 1, spec.mu, -spec.mu)
        z_u = rng.random(spec.n_unlabeled)
        theta_z = 0.5 * (np.sin(2.0 * np.pi * z_u * spec.cycles) + 1.0)
        y_u = (rng.random(spec.n_unlabeled) < theta_z).astype(int)
        x_u = rng.standard_normal(spec.n_unlabeled) + np.where(y_u == 1, spec.mu, -spec.mu)
        return _assemble_binary(
            x_labeled[y_labeled == 0],
            x_labeled[y_labeled == 1],
            x_u,
            y_u,
            covariate_labeled=np.concatenate(
                [z_labeled[y_labeled == 0], z_labeled[y_labeled == 1]]
            ),
            covariate_unlabeled=z_u,
        )

    if spec.kind == "resample":
        return _resample(spec, rng)
    raise EstimationError(f"unknown scenario kind {spec.kind!r}")


def _resample(spec: ScenarioSpec, rng: np.random.Generator) -> RawDataset:
    corpus = spec.corpus
    if corpus is None:
        raise EstimationError("resample scenario needs a corpus")
    pools = [rng.permutation(np.flatnonzero(corpus.labels == j)) for j in (0, 1)]
    n0, n1 = spec.n_class[0], spec.n_class[1]
    from_class1 = rng.random(spec.n_unlabeled) < spec.theta
    need = (n0 + int((~from_class1).sum()), n1 + int(from_class1.sum()))
    if need[0] > pools[0].size or need[1] > pools[1].size:
        raise EstimationError(
            f"corpus too small: need {need[0]}/{need[1]} rows per class, "
            f"have {pools[0].size}/{pools[1].size}"
        )
    labeled_idx = np.concatenate([pools[0][:n0], pools[1][:n1]])
    unlabeled_idx = np.empty(spec.n_unlabeled, dtype=int)
    unlabeled_idx[~from_class1] = pools[0][n0 : need[0]]
    unlabeled_idx[from_class1] = pools[1][n1 : need[1]]
    order = np.concatenate([labeled_idx, unlabeled_idx])
    sets = np.concatenate(
        [np.ones(n0 + n1, dtype=int), np.zeros(spec.n_unlabeled, dtype=int)]
    )
    covariate = corpus.covariate[order] if corpus.covariate is not None else None
    return RawDataset(
        features=corpus.features[order],
        labels=corpus.labels[order],
        set_indicator=sets,
        covariate=covariate,
        feature_names=corpus.feature_names,
    )


@dataclass(frozen=True)
class ExperimentReport:
    """Study output: aggregated cells plus the per-replicate table behind them.

    ``columns``/``rows`` hold one aggregate row per cell; ``raw_columns``/
    ``raw_rows`` hold the tidy per-replicate records the aggregates were
    reduced from.  ``to_csv`` writes the tidy table (fit for external
    plotting), ``to_dict`` the aggregate summary.
    """

    study: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    seed: int
    meta: dict
    raw_columns: tuple[str, ...] = ()
    raw_rows: tuple[tuple, ...] = ()

    def to_csv(self, path: str) -> None:
        columns = self.raw_columns or self.columns
        rows = self.raw_rows if self.raw_columns else self.rows
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow(["" if v is None else v for v in row])

    def to_dict(self) -> dict:
        return {
            "study": self.study,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "seed": self.seed,
            "meta": self.meta,
        }

    def cell(self, **filters) -> tuple:
        matches = [
            row
            for row in self.rows
            if all(row[self.columns.index(k)] == v for k, v in filters.items())
        ]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} rows match {filters}")
        return matches[0]

    def value(self, column: str, **filters) -> float:
        return self.cell(**filters)[self.columns.index(column)]


def _mean_and_halfwidth(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return mean, float("nan")
    half = 1.96 * float(values.std(ddof=1)) / float(np.sqrt(values.size))
    return mean, half


def _child_seed(seed: int, *path: int) -> int:
    """A fresh 63-bit seed derived deterministically from (seed, path)."""
    return int(rng_from(seed, *path).integers(0, 2**63 - 1))


def _threads() -> int:
    """Worker processes for a study: QUANTIFY_THREADS (0 or unset: every CPU),
    capped by the CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    raw = os.environ.get("QUANTIFY_THREADS", "0")
    try:
        requested = int(raw)
    except ValueError:
        raise DataError(f"QUANTIFY_THREADS must be an integer, got {raw!r}") from None
    return cpus if requested <= 0 else min(requested, cpus)


def _run_cells(cells: list[ScenarioSpec], replicate, replicates: int, seed: int) -> list[list]:
    """Outcomes of ``replicate(cells[c], (seed, c, r))``, per cell in replicate order.

    All cells share one pool of up to ``_threads()`` processes.  ``replicate``
    must pickle (a module-level function, or a partial of one), and the seed
    path must be all the randomness it uses.
    """
    payloads = [(cell, (seed, c, r)) for c, cell in enumerate(cells) for r in range(replicates)]
    workers = min(_threads(), len(payloads))
    if workers <= 1:
        outcomes = [replicate(*payload) for payload in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor  # here, so the CLI loads no multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, len(payloads) // (4 * workers))
            outcomes = list(pool.map(replicate, *zip(*payloads), chunksize=chunksize))
    return [outcomes[c * replicates : (c + 1) * replicates] for c in range(len(cells))]


_SCORE = ExternalScore(columns=(0,))


def _scored(cell: ScenarioSpec, path: tuple[int, ...]) -> ScoredDataset:
    """Generate the replicate's dataset and score it by feature column 0."""
    return score_dataset(generate(cell, seed=_child_seed(*path)), _SCORE)


def _mse_replicate(cell: ScenarioSpec, path: tuple[int, ...], methods: list[str]) -> list[float]:
    scored = _scored(cell, path)
    n0, n1 = scored.class_counts
    # cc thresholds at the midpoint of the labeled class score means: the
    # natural plug-in decision boundary for a one-dimensional score.
    mid = (float(scored.classes[0].mean()) + float(scored.classes[1].mean())) / 2.0
    estimators = {
        "ratio": lambda: ratio_estimate(scored),
        "cc": lambda: classify_and_count(scored, threshold=mid),
        "em": lambda: em_estimate(scored, theta_train=n1 / (n0 + n1)),
    }
    return [estimators[method]().theta for method in methods]


def run_mse_study(
    spec: ScenarioSpec,
    thetas,
    methods,
    replicates: int,
    seed: int,
) -> ExperimentReport:
    """Monte Carlo MSE of point estimators across target prevalences.

    Feature column 0 is the score (binary score-level scenarios only).
    Reports a normal-approximation half-width for each MSE cell.
    """
    methods = list(methods)
    for method in methods:
        if method not in ("ratio", "cc", "em"):
            raise EstimationError(f"unknown method {method!r}")
    if len(set(methods)) != len(methods):
        raise EstimationError(f"each method may be given once, got {methods}")
    cells = [dataclasses.replace(spec, theta=float(theta)) for theta in thetas]
    outcomes = _run_cells(cells, partial(_mse_replicate, methods=methods), replicates, seed)
    rows, raw = [], []
    for theta, estimates in zip(thetas, outcomes):
        errors: dict[str, list[float]] = {m: [] for m in methods}
        for r, replicate in enumerate(estimates):
            for method, estimate in zip(methods, replicate):
                errors[method].append((estimate - theta) ** 2)
                raw.append((spec.kind, method, float(theta), r, estimate))
        for method in methods:
            mse, half = _mean_and_halfwidth(np.array(errors[method]))
            rows.append((float(theta), method, replicates, mse, half))
    return ExperimentReport(
        study="mse",
        columns=("theta", "method", "replicates", "mse", "half_width"),
        rows=tuple(rows),
        seed=seed,
        meta=spec.meta(),
        raw_columns=("scenario", "method", "theta", "replicate", "estimate"),
        raw_rows=tuple(raw),
    )


def _coverage_replicate(
    cell: ScenarioSpec, path: tuple[int, ...], level: float, regime: str
) -> tuple[float, float, float]:
    scored = _scored(cell, path)
    est = ratio_ci(_variance_from_scores(ratio_estimate(scored), scored, regime), level=level)
    lo, hi, _ = est.ci
    return est.theta, lo, hi


def run_coverage_study(
    spec: ScenarioSpec,
    thetas,
    level: float,
    replicates: int,
    seed: int,
    regime: str = "auto",
) -> ExperimentReport:
    """Coverage of the normal interval for the ratio estimate, per prevalence."""
    cells = [dataclasses.replace(spec, theta=float(theta)) for theta in thetas]
    replicate = partial(_coverage_replicate, level=level, regime=regime)
    rows, raw = [], []
    for theta, intervals in zip(thetas, _run_cells(cells, replicate, replicates, seed)):
        hits, widths = [], []
        for r, (estimate, lo, hi) in enumerate(intervals):
            covered = 1 if lo <= theta <= hi else 0
            hits.append(float(covered))
            widths.append(hi - lo)
            raw.append((spec.kind, float(theta), r, estimate, lo, hi, covered))
        rows.append((float(theta), replicates, float(np.mean(hits)), float(np.mean(widths))))
    return ExperimentReport(
        study="coverage",
        columns=("theta", "replicates", "coverage", "mean_width"),
        rows=tuple(rows),
        seed=seed,
        meta={**spec.meta(), "level": level, "regime": regime},
        raw_columns=("scenario", "theta", "replicate", "estimate", "lower", "upper", "covered"),
        raw_rows=tuple(raw),
    )


def _power_replicate(
    cell: ScenarioSpec, path: tuple[int, ...], alpha: float, test_replicates: int, grid_size: int
) -> tuple[float, float, int]:
    """The shift test's statistic and p-value, and whether it rejects at ``alpha``."""
    result = shift_test(
        _scored(cell, path),
        replicates=test_replicates,
        seed=_child_seed(*path, 1),
        grid_size=grid_size,
    )
    return result.statistic, result.p_value, 1 if result.p_value <= alpha else 0


def run_power_study(
    spec: ScenarioSpec,
    gammas,
    alpha: float,
    replicates: int,
    test_replicates: int = 200,
    seed: int = 0,
    grid_size: int = 201,
) -> ExperimentReport:
    """Rejection rate of the shift test across shift magnitudes.

    ``grid_size`` defaults to 201, a coarser mixing grid than the
    single-shot test's 1001.  The statistic is 1-Lipschitz in the mixing
    weight, so a 0.005-resolution grid perturbs it by at most 0.0025.  A
    finer grid would cost little, since the statistic's search grows only
    with log(grid_size); the default stays at 201 so that seeded power
    studies keep their outputs bit for bit.
    Rejection means p-value <= alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise EstimationError(f"alpha must be in (0, 1), got {alpha}")
    cells = [dataclasses.replace(spec, gamma=float(gamma)) for gamma in gammas]
    replicate = partial(
        _power_replicate, alpha=alpha, test_replicates=test_replicates, grid_size=grid_size
    )
    rows, raw = [], []
    for cell, outcomes in zip(cells, _run_cells(cells, replicate, replicates, seed)):
        raw.extend((spec.kind, cell.gamma, r, *outcome) for r, outcome in enumerate(outcomes))
        rate = float(np.mean([rejected for _, _, rejected in outcomes]))
        is_null = 1.0 if cell.gamma == null_gamma(cell) else 0.0
        rows.append((cell.gamma, replicates, test_replicates, rate, is_null))
    return ExperimentReport(
        study="power",
        columns=("gamma", "replicates", "test_replicates", "rejection_rate", "is_null"),
        rows=tuple(rows),
        seed=seed,
        meta={**spec.meta(), "alpha": alpha, "grid_size": grid_size},
        raw_columns=("scenario", "gamma", "replicate", "statistic", "p_value", "rejected"),
        raw_rows=tuple(raw),
    )


def _combined_replicate(
    cell: ScenarioSpec, path: tuple[int, ...], label_counts: list[int], regime: str
) -> tuple[float, list[CombinedEstimate | None]]:
    """The ratio estimate, and its blend with the first m target labels (None at m = 0)."""
    data = generate(cell, seed=_child_seed(*path))
    scored = score_dataset(data, _SCORE)
    est = _variance_from_scores(ratio_estimate(scored), scored, regime)
    unlabeled_labels = data.labels[data.unlabeled_indices()]
    return est.theta, [
        combined_estimate(est, unlabeled_labels[:m]) if m else None for m in label_counts
    ]


def run_combined_study(
    spec: ScenarioSpec,
    label_counts,
    replicates: int,
    seed: int,
    regime: str = "auto",
) -> ExperimentReport:
    """MSE of the ratio, labels-only, and combined estimators.

    For each replicate the first ``m`` unlabeled rows (their true labels are
    carried by the generator) play the role of a labeled subsample of the
    target population.  ``m = 0`` reports the ratio arm alone.
    """
    theta = spec.theta
    label_counts = [int(m) for m in label_counts]
    if any(m < 0 or m > spec.n_unlabeled for m in label_counts):
        raise EstimationError("label counts must lie in [0, n_unlabeled]")
    if len(set(label_counts)) != len(label_counts):
        raise EstimationError(f"each label count may be given once, got {label_counts}")
    replicate = partial(_combined_replicate, label_counts=label_counts, regime=regime)
    (outcomes,) = _run_cells([spec], replicate, replicates, seed)
    raw = []
    for r, (theta_ratio, arms) in enumerate(outcomes):
        for m, arm in zip(label_counts, arms):
            raw.append((spec.kind, "ratio", m, r, theta_ratio))
            if arm is not None:
                raw.append((spec.kind, "labels", m, r, arm.theta_labels))
                raw.append((spec.kind, "combined", m, r, arm.theta))

    def mse(method: str, m: int) -> float:
        errors = [(row[4] - theta) ** 2 for row in raw if row[1] == method and row[2] == m]
        return _mean_and_halfwidth(np.array(errors))[0]

    rows = []
    for m in label_counts:
        arms = (mse("labels", m), mse("combined", m)) if m else (None, None)
        rows.append((m, replicates, mse("ratio", m), *arms))
    return ExperimentReport(
        study="combined",
        columns=("target_labels", "replicates", "mse_ratio", "mse_labels", "mse_combined"),
        rows=tuple(rows),
        seed=seed,
        meta=spec.meta(),
        raw_columns=("scenario", "method", "target_labels", "replicate", "estimate"),
        raw_rows=tuple(raw),
    )


def _multiclass_replicate(
    cell: ScenarioSpec, path: tuple[int, ...], truth: np.ndarray
) -> tuple[float, float]:
    """Squared errors of the raw and the simplex-projected prior vector."""
    data = generate(cell, seed=_child_seed(*path))
    result = multiclass_ratio(score_dataset(data, fit_logistic_ovr(data)))
    return (
        float(np.sum((result.theta_raw - truth) ** 2)),
        float(np.sum((result.theta - truth) ** 2)),
    )


def run_multiclass_study(
    spec: ScenarioSpec,
    sizes,
    replicates: int,
    seed: int,
) -> ExperimentReport:
    """Vector MSE of the multiclass ratio estimate along a sample-size ladder.

    At each ladder point n, the labeled sample has n rows split across
    classes proportionally to ``spec.n_class`` and the unlabeled sample has
    n rows.  Scores are one-vs-rest logistic probabilities fit per
    replicate.  Reports raw and simplex-projected MSE (squared Euclidean
    distance to the true prior vector).
    """
    if spec.kind != "multiclass_gaussian":
        raise EstimationError("multiclass study needs the multiclass_gaussian kind")
    base = np.asarray(spec.n_class, dtype=float)
    priors_labeled = tuple(base / base.sum())
    truth = np.asarray(spec.target_priors, dtype=float)
    cells = []
    for size in sizes:
        counts = _proportional_counts(int(size), priors_labeled)
        if np.any(counts < 1):
            raise EstimationError(f"ladder size {size} leaves an empty class")
        n_class = tuple(int(c) for c in counts)
        cells.append(dataclasses.replace(spec, n_class=n_class, n_unlabeled=int(size)))
    outcomes = _run_cells(cells, partial(_multiclass_replicate, truth=truth), replicates, seed)
    rows, raw = [], []
    for cell, errors in zip(cells, outcomes):
        size = cell.n_unlabeled
        for r, (raw_error, proj_error) in enumerate(errors):
            raw.append((spec.kind, "raw", size, r, raw_error))
            raw.append((spec.kind, "projected", size, r, proj_error))
        mse_raw, half_raw = _mean_and_halfwidth(np.array([e[0] for e in errors]))
        mse_proj, half_proj = _mean_and_halfwidth(np.array([e[1] for e in errors]))
        rows.append((size, replicates, mse_raw, half_raw, mse_proj, half_proj))
    return ExperimentReport(
        study="multiclass",
        columns=(
            "size",
            "replicates",
            "mse_raw",
            "half_width_raw",
            "mse_projected",
            "half_width_projected",
        ),
        rows=tuple(rows),
        seed=seed,
        meta=spec.meta(),
        raw_columns=("scenario", "method", "size", "replicate", "sq_error"),
        raw_rows=tuple(raw),
    )


def _regression_replicate(
    cell: ScenarioSpec, path: tuple[int, ...], grid: np.ndarray, truth: np.ndarray, threshold: float
) -> tuple[float, float, float]:
    """Integrated squared errors of the ratio and cc curves, and their sup gap."""
    data = generate(cell, seed=_child_seed(*path))
    ratio_curve = ratio_regress(data, _SCORE, grid)
    cc_curve = cc_regress(data, _SCORE, grid, threshold=threshold)
    return (
        float(np.mean((ratio_curve.values - truth) ** 2)),
        float(np.mean((cc_curve.values - truth) ** 2)),
        float(np.max(np.abs(ratio_curve.values - cc_curve.values))),
    )


def run_regression_study(
    spec: ScenarioSpec,
    grid: np.ndarray,
    replicates: int,
    seed: int,
    threshold: float = 0.0,
) -> ExperimentReport:
    """Integrated squared error of the ratio and classify-and-count curves.

    The scenario's score is the raw feature (column 0); the
    classify-and-count curve thresholds it at ``threshold``.  The truth is
    the scenario's sine prevalence curve evaluated on the grid.
    """
    if spec.kind != "regression_sine":
        raise EstimationError("regression study needs the regression_sine kind")
    grid = np.asarray(grid, dtype=float)
    truth = 0.5 * (np.sin(2.0 * np.pi * grid * spec.cycles) + 1.0)
    replicate = partial(_regression_replicate, grid=grid, truth=truth, threshold=threshold)
    (outcomes,) = _run_cells([spec], replicate, replicates, seed)
    raw = [(spec.kind, r, *errors) for r, errors in enumerate(outcomes)]
    table = np.asarray(outcomes, dtype=float)
    mise_r, half_r = _mean_and_halfwidth(table[:, 0])
    mise_c, half_c = _mean_and_halfwidth(table[:, 1])
    summary = (
        replicates,
        mise_r,
        half_r,
        mise_c,
        half_c,
        float(table[:, 2].mean()),
        float(table[:, 2].max()),
    )
    return ExperimentReport(
        study="regression",
        columns=(
            "replicates",
            "mise_ratio",
            "half_width_ratio",
            "mise_cc",
            "half_width_cc",
            "mean_sup_gap",
            "max_sup_gap",
        ),
        rows=(summary,),
        seed=seed,
        meta={**spec.meta(), "threshold": threshold, "grid_points": int(grid.size)},
        raw_columns=("scenario", "replicate", "mise_ratio", "mise_cc", "sup_gap"),
        raw_rows=tuple(raw),
    )
