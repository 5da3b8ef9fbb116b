"""Synthetic scenarios and Monte Carlo studies over the estimators.

Scenario kinds fall into three groups: score-level binary scenarios that
draw the score values themselves from named class-conditional laws
(gaussian, exponential, gaussian_exponential, beta), a feature-level
multiclass scenario (isotropic Gaussian bumps in ten dimensions, scored by
one-vs-rest logistic fits), and a covariate scenario whose unlabeled
prevalence follows a sine curve in z.

Every study is deterministic given its seed: replicate r of cell c uses a
generator derived from (seed, c, r) and never touches shared state, so the
work may be distributed across processes (capped by QUANTIFY_THREADS)
without changing any number in the report.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
from dataclasses import dataclass
from functools import partial
from operator import index, itemgetter
from typing import NamedTuple

import numpy as np

from .core import (
    DataError,
    EstimationError,
    ExternalScore,
    RawDataset,
    ScoredDataset,
    _check_seed,
    fit_logistic,
    rng_from,
    score_dataset,
)
from .estimators import (
    CombinedEstimate,
    _cc_indicator,
    classify_and_count,
    combined_estimate,
    em_estimate,
    multiclass_ratio,
    ratio_ci,
    ratio_estimate,
    ratio_variance,
)
from .regression import _evaluation_grid, cc_regress, ratio_regress
from .shift_test import shift_test


class _Kind(NamedTuple):
    studies: tuple[str, ...]  # the studies with a truth for this kind
    fields: dict  # the spec fields it reads, with their defaults; every kind reads n_unlabeled
    null: float | None = None  # the class-0 law parameter gamma replaces; None: the spec's mean0
    power_offsets: tuple[float, ...] = ()  # the power study's default sweep, as gamma - null
    laws: tuple = ()  # class-0 law(rng, n, null or gamma) and class-1 law(rng, n, spec) -> n draws
    positive: str = ""  # the positive law parameter gamma replaces; empty: any finite gamma will do


_SCORE_STUDIES = ("mse", "coverage", "power", "combined")
_SCORE_FIELDS = {"n_unlabeled": 300, "n_class": (150, 150), "theta": 0.6, "gamma": None}
_GAUSSIAN_LAWS = (  # N(mean0, 1) against N(mean1, 1)
    lambda rng, n, mean0: rng.normal(mean0, 1.0, n),
    lambda rng, n, spec: rng.normal(spec.mean1, 1.0, n))

# Default shift sweeps put the null at an interior point with a unique
# most-shifted value.  At the default parameters the sweep deliberately
# stops short of the value at which the shifted class-0 law coincides with
# the class-1 law (gaussian gamma=2, exponential gamma=5): there the
# unlabeled sample is again an exact mixture, so the test correctly loses power.
# The sine kind has no theta (its unlabeled prevalence follows a curve in z)
# and no shift parameter, and the multiclass kind has no single class-1
# prevalence, so each has one study.
_KINDS = {
    "gaussian": _Kind(_SCORE_STUDIES, {**_SCORE_FIELDS, "mean0": 0.0, "mean1": 2.0},
                      power_offsets=(-2.0, -1.0, 0.0, 1.0), laws=_GAUSSIAN_LAWS),
    "exponential": _Kind(_SCORE_STUDIES, _SCORE_FIELDS, null=1.0,  # rate 1 against rate 5
                         power_offsets=(-0.75, -0.5, 0.0, 1.0, 2.0), laws=(
                             lambda rng, n, rate0: rng.exponential(1.0 / rate0, n),
                             lambda rng, n, spec: rng.exponential(1.0 / 5.0, n)),
                         positive="the exponential class-0 rate"),
    "gaussian_exponential": _Kind(  # N(mean0, 1) against rate 1
        _SCORE_STUDIES, {**_SCORE_FIELDS, "mean0": 1.0}, power_offsets=(-2.0, -1.0, 0.0, 1.0, 2.0),
        laws=(_GAUSSIAN_LAWS[0], lambda rng, n, spec: rng.exponential(1.0, n))),
    "beta": _Kind(_SCORE_STUDIES, _SCORE_FIELDS, null=1.0,  # Beta(1, 1) against Beta(1, 10)
                  power_offsets=(-0.75, -0.5, 0.0, 1.0, 2.0), laws=(
                      lambda rng, n, a0: rng.beta(a0, 1.0, n),
                      lambda rng, n, spec: rng.beta(1.0, 10.0, n)),
                  positive="the beta class-0 first shape parameter"),
    # no n_unlabeled default: the multiclass study sets it to each of its sizes
    "multiclass_gaussian": _Kind(("multiclass",), {"n_class": (20, 30, 50)}),
    "regression_sine": _Kind(("regression",), {"n_unlabeled": 300, "n_class": (150, 150),
                                               "mean0": -1.0, "mean1": 1.0, "cycles": 1},
                             laws=_GAUSSIAN_LAWS),
}
SCENARIO_KINDS = tuple(_KINDS)

# The multiclass kind: a Gaussian bump per class at level * ones(_DIM); its unlabeled priors.
_LEVELS = (0.0, 0.75, 1.25)
_DIM = 10
_TARGET_PRIORS = (0.25, 0.10, 0.65)


def check_study_kind(study: str, kind: str) -> None:
    """Refuse a study on a scenario kind it has no truth for; the kind alone is needed,
    so a caller may check before it builds the spec."""
    kinds = [name for name, row in _KINDS.items() if study in row.studies]
    if kind not in kinds:
        raise EstimationError(
            f"the {study} study cannot run on the {kind!r} scenario kind, only on {', '.join(kinds)}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic scenario.

    Each kind reads ``n_unlabeled`` and the fields of its ``_KINDS`` row; ``meta(*swept)``
    prints the row's fields but the ``swept`` ones a study's rows show, and ``n_unlabeled``
    once set.  A field left at ``None`` takes the row's default, and any other field
    set is refused.  ``gamma`` moves the unlabeled class-0 law away from its labeled
    counterpart (location for the gaussian kinds, rate for the exponential, first
    shape parameter for the beta); ``None`` keeps the two laws equal, under which
    the mixture assumption holds exactly.  Every field is checked when the spec is built:
    each size must be a whole number, each number finite, there must be one
    size per class of the kind, and the kind's laws must be able to draw it.
    """

    kind: str
    n_unlabeled: int | None = None
    n_class: tuple[int, ...] | None = None
    theta: float | None = None  # the score kinds' unlabeled class-1 prevalence
    gamma: float | None = None
    # the class locations of the gaussian kinds and the sine kind's scores
    mean0: float | None = None
    mean1: float | None = None
    cycles: int | None = None  # the sine kind's cycles of its prevalence curve over z in [0, 1]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise EstimationError(f"unknown scenario kind {self.kind!r}")
        row = _KINDS[self.kind]
        reads = dict.fromkeys(("n_unlabeled", *row.fields))
        for name, value in vars(self).items():
            if value is not None and name not in ("kind", *reads):
                raise EstimationError(f"the {self.kind!r} scenario kind does not read {name}, "
                                      f"only {', '.join(reads)}")
        for name, default in row.fields.items():
            if getattr(self, name) is None:  # frozen, so set through object.__setattr__
                object.__setattr__(self, name, default)
        if self.theta is not None and not 0.0 <= self.theta <= 1.0:
            raise EstimationError(f"theta must be in [0, 1], got {self.theta}")
        sizes = [size for size in (self.n_unlabeled, *self.n_class) if size is not None]
        for size in sizes:
            try:  # a float size would pass every check here and fail only when drawn
                index(size)
            except TypeError:
                raise EstimationError(f"group sizes must be whole numbers, got {size!r}") from None
        if any(size < 1 for size in sizes):
            raise EstimationError("all group sizes must be at least 1")
        if len(self.n_class) != (count := len(row.fields["n_class"])):
            raise EstimationError(f"kind {self.kind!r} needs {count} labeled class sizes, "
                                  f"got {len(self.n_class)}")
        if row.positive and self.gamma is not None and self.gamma <= 0:
            raise EstimationError(
                f"gamma replaces {row.positive} and must be positive, got {self.gamma}")
        # a NaN or infinite parameter would draw non-finite scores in every replicate
        for name, value in vars(self).items():  # n_class holds whole numbers by now
            if isinstance(value, float) and not math.isfinite(value):
                raise EstimationError(f"scenario field {name} must be finite, got {value}")

    def meta(self, *swept: str) -> dict:
        fields = _KINDS[self.kind].fields  # an unset n_unlabeled is left out
        meta = {name: getattr(self, name) for name in ("kind", "n_unlabeled", *fields)
                if name not in swept and (name in fields or getattr(self, name) is not None)}
        return {**meta, "n_class": list(self.n_class)}  # n_class keeps its place


def null_gamma(spec: ScenarioSpec) -> float:
    """The gamma value under which the unlabeled class-0 law is unshifted."""
    if "power" not in _KINDS[spec.kind].studies:
        raise EstimationError(f"kind {spec.kind!r} has no shift parameter")
    null = _KINDS[spec.kind].null
    return spec.mean0 if null is None else null


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


def _sine_prevalence(z: np.ndarray, cycles: int) -> np.ndarray:
    """The sine kind's unlabeled prevalence at covariate z: (sin(2 pi z cycles) + 1) / 2."""
    return 0.5 * (np.sin(2.0 * np.pi * z * cycles) + 1.0)


def generate(spec: ScenarioSpec, seed: int) -> RawDataset:
    """Draw one dataset with exact group sizes per class.

    The unlabeled class counts are the largest-remainder rounding of
    n_unlabeled * (1 - theta, theta), presented in shuffled row order; only
    the covariate scenario flips per-row coins.
    Unlabeled rows keep their true class label in the dataset (the
    estimators never read labels of set-0 rows; evaluation and the combined
    estimator do).  The same spec and seed give a bit-identical dataset.
    """
    if spec.n_unlabeled is None:
        raise EstimationError(f"a {spec.kind!r} spec needs n_unlabeled set before it is drawn")
    rng = rng_from(seed)
    if spec.kind == "multiclass_gaussian":
        means = np.asarray(_LEVELS, dtype=float)[:, None] * np.ones(_DIM)
        blocks, labels = [], []
        for label, count in enumerate(spec.n_class):
            blocks.append(rng.standard_normal((count, _DIM)) + means[label])
            labels.append(np.full(count, label))
        counts_u = _proportional_counts(spec.n_unlabeled, _TARGET_PRIORS)
        labels_u = rng.permutation(np.repeat(np.arange(len(_LEVELS)), counts_u))
        blocks.append(rng.standard_normal((spec.n_unlabeled, _DIM)) + means[labels_u])
        labels.append(labels_u)
        n_labeled = sum(spec.n_class)
        sets = np.concatenate(
            [np.ones(n_labeled, dtype=int), np.zeros(spec.n_unlabeled, dtype=int)]
        )
        return RawDataset(
            features=np.vstack(blocks), labels=np.concatenate(labels), set_indicator=sets
        )

    # a binary kind, whose spec was checked against its row's rule when it was built
    law0, law1 = _KINDS[spec.kind].laws
    null = spec.mean0 if spec.kind == "regression_sine" else null_gamma(spec)  # sine: no gamma
    labeled0 = law0(rng, spec.n_class[0], null)
    labeled1 = law1(rng, spec.n_class[1], spec)
    if spec.kind == "regression_sine":
        # Labeled prevalence is flat in z ~ U(0, 1); the unlabeled prevalence
        # follows the sine curve over z ~ U(0, 1).
        z_labeled = rng.random(labeled0.size + labeled1.size)
        z_u = rng.random(spec.n_unlabeled)
        theta_z = _sine_prevalence(z_u, spec.cycles)
        y_u = (rng.random(spec.n_unlabeled) < theta_z).astype(int)
        x_u = rng.standard_normal(spec.n_unlabeled) + np.where(y_u == 1, spec.mean1, spec.mean0)
        return _assemble_binary(labeled0, labeled1, x_u, y_u, z_labeled, z_u)
    counts = _proportional_counts(spec.n_unlabeled, (1.0 - spec.theta, spec.theta))
    # the unlabeled class-0 law is class 0's with gamma in place of the null
    shifted = null if spec.gamma is None else spec.gamma
    unlabeled = np.concatenate(
        [law0(rng, counts[0], shifted), law1(rng, counts[1], spec)]
    )
    labels_u = np.repeat(np.arange(2), counts)
    order = rng.permutation(spec.n_unlabeled)
    return _assemble_binary(labeled0, labeled1, unlabeled[order], labels_u[order])


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
    raw_columns: tuple[str, ...]
    raw_rows: tuple[tuple, ...]

    def to_csv(self, handle) -> None:
        """Write the tidy table to the text ``handle``, opened with ``newline=""``."""
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(self.raw_columns)
        for row in self.raw_rows:
            writer.writerow(["" if v is None else v for v in row])

    def to_dict(self) -> dict:
        return {
            "study": self.study,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "seed": self.seed,
            "meta": self.meta,
        }


def _mean_and_halfwidth(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, float("nan")
    half = 1.96 * float(values.std(ddof=1)) / float(np.sqrt(values.size))
    return mean, half


def _summary_rows(raw: list[tuple], keys: tuple[int, ...], replicates: int, *columns,
                  methods=(None,)) -> tuple:
    """One summary row per distinct ``keys`` columns of the tidy ``raw``, in first-seen order:
    the key, ``replicates``, then per method of ``methods`` (None: all the group's rows, else
    those with that method in column 1) and per ``(value, reduce)`` of ``columns`` the cells
    ``reduce`` (np.mean, np.max or _mean_and_halfwidth) makes of those rows' ``value(row)``
    in replicate order, or one None cell if the method has no rows."""
    groups: dict[tuple, list[tuple]] = {}
    for row in raw:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    rows = []
    for key, group in groups.items():
        cells = []
        for method in methods:
            for value, reduce in columns:
                picked = [value(row) for row in group if method in (None, row[1])]
                values = np.array(picked, dtype=float)
                cells += np.atleast_1d(reduce(values)).tolist() if values.size else [None]
        rows.append((*key, replicates, *cells))
    return tuple(rows)


def _distinct(values, refusal: str) -> list:
    """``values`` as a list, refused with ``refusal`` if one is given twice."""
    if len(set(values := list(values))) != len(values):
        raise EstimationError(f"{refusal}, got {values}")
    return values


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
    if replicates < 1:
        raise EstimationError(f"need at least one replicate per cell, got {replicates}")
    _check_seed(seed)  # before any dataset is drawn or worker started
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
_THETAS = (0.1, 0.2, 0.3, 0.4, 0.5)  # the prevalences the mse and coverage studies sweep


def _scored(cell: ScenarioSpec, path: tuple[int, ...]) -> ScoredDataset:
    """Generate the replicate's dataset and score it by feature column 0."""
    return score_dataset(generate(cell, seed=_child_seed(*path)), _SCORE)


def _mse_replicate(cell: ScenarioSpec, path: tuple[int, ...], methods: list[str]) -> list[float]:
    scored = _scored(cell, path)
    # cc thresholds at the midpoint of the labeled class score means: the
    # natural plug-in decision boundary for a one-dimensional score.
    mid = (float(scored.classes[0].mean()) + float(scored.classes[1].mean())) / 2.0
    estimators = {
        "ratio": lambda: ratio_estimate(scored),
        "cc": lambda: classify_and_count(scored, threshold=mid),
        "em": lambda: em_estimate(scored),
    }
    return [estimators[method]().theta for method in methods]


def run_mse_study(
    spec: ScenarioSpec,
    thetas=_THETAS,
    methods=("ratio", "cc"),
    *,
    replicates: int,
    seed: int = 0,
) -> ExperimentReport:
    """Monte Carlo MSE of point estimators across target prevalences.

    Feature column 0 is the score (binary score-level scenarios only).
    Reports a normal-approximation half-width for each MSE cell.
    """
    check_study_kind("mse", spec.kind)
    methods = list(methods)
    for method in methods:
        if method not in ("ratio", "cc", "em"):
            raise EstimationError(f"unknown method {method!r}")
    methods = _distinct(methods, "each method may be given once")
    thetas = _distinct(thetas, "the thetas swept must be distinct")
    cells = [dataclasses.replace(spec, theta=float(theta)) for theta in thetas]
    outcomes = _run_cells(cells, partial(_mse_replicate, methods=methods), replicates, seed)
    raw = [(spec.kind, method, float(theta), r, estimate)
           for theta, estimates in zip(thetas, outcomes) for r, replicate in enumerate(estimates)
           for method, estimate in zip(methods, replicate)]
    return ExperimentReport(
        study="mse",
        columns=("theta", "method", "replicates", "mse", "half_width"),
        rows=_summary_rows(raw, (2, 1), replicates,
                           (lambda row: (row[4] - row[2]) ** 2, _mean_and_halfwidth)),
        seed=seed,
        meta=spec.meta("theta"),
        raw_columns=("scenario", "method", "theta", "replicate", "estimate"),
        raw_rows=tuple(raw),
    )


def _coverage_replicate(
    cell: ScenarioSpec, path: tuple[int, ...], level: float
) -> tuple[float, float, float]:
    est = ratio_ci(ratio_variance(ratio_estimate(_scored(cell, path))), level=level)
    lo, hi, _ = est.ci
    return est.theta, lo, hi


def run_coverage_study(
    spec: ScenarioSpec,
    thetas=_THETAS,
    level: float = 0.95,
    *,
    replicates: int,
    seed: int = 0,
) -> ExperimentReport:
    """Coverage of the normal interval for the ratio estimate, per prevalence."""
    check_study_kind("coverage", spec.kind)
    thetas = _distinct(thetas, "the thetas swept must be distinct")
    cells = [dataclasses.replace(spec, theta=float(theta)) for theta in thetas]
    replicate = partial(_coverage_replicate, level=level)
    raw = [(spec.kind, float(theta), r, estimate, lo, hi, 1 if lo <= theta <= hi else 0)
           for theta, intervals in zip(thetas, _run_cells(cells, replicate, replicates, seed))
           for r, (estimate, lo, hi) in enumerate(intervals)]
    return ExperimentReport(
        study="coverage",
        columns=("theta", "replicates", "coverage", "mean_width"),
        rows=_summary_rows(raw, (1,), replicates,
                           (itemgetter(6), np.mean), (lambda row: row[5] - row[4], np.mean)),
        seed=seed,
        meta={**spec.meta("theta"), "level": level, "regime": "auto"},  # ratio_variance's default
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
    gammas=None,
    *,
    alpha: float = 0.05,
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
    Rejection means p-value <= alpha.  ``gammas`` defaults to the kind's
    sweep around the spec's null, :func:`null_gamma`; a repeated gamma is refused.
    """
    check_study_kind("power", spec.kind)
    if not 0.0 < alpha < 1.0:
        raise EstimationError(f"alpha must be in (0, 1), got {alpha}")
    null = null_gamma(spec)
    if gammas is None:
        gammas = [null + offset for offset in _KINDS[spec.kind].power_offsets]
    gammas = _distinct(gammas, "the gammas swept must be distinct")
    cells = [dataclasses.replace(spec, gamma=float(gamma)) for gamma in gammas]
    replicate = partial(
        _power_replicate, alpha=alpha, test_replicates=test_replicates, grid_size=grid_size
    )
    raw = [(spec.kind, cell.gamma, r, *outcome)
           for cell, outcomes in zip(cells, _run_cells(cells, replicate, replicates, seed))
           for r, outcome in enumerate(outcomes)]
    rows = [(gamma, n, test_replicates, rate, 1.0 if gamma == null else 0.0)
            for gamma, n, rate in _summary_rows(raw, (1,), replicates, (itemgetter(5), np.mean))]
    return ExperimentReport(
        study="power",
        columns=("gamma", "replicates", "test_replicates", "rejection_rate", "is_null"),
        rows=tuple(rows),
        seed=seed,
        meta={**spec.meta("gamma"), "alpha": alpha, "grid_size": grid_size},
        raw_columns=("scenario", "gamma", "replicate", "statistic", "p_value", "rejected"),
        raw_rows=tuple(raw),
    )


def _combined_replicate(
    cell: ScenarioSpec, path: tuple[int, ...], label_counts: list[int]
) -> tuple[float, list[CombinedEstimate | None]]:
    """The ratio estimate, and its blend with the first m target labels (None at m = 0)."""
    data = generate(cell, seed=_child_seed(*path))
    est = ratio_variance(ratio_estimate(score_dataset(data, _SCORE)))
    unlabeled_labels = data.labels[data.unlabeled_indices()]
    return est.theta, [
        combined_estimate(est, unlabeled_labels[:m]) if m else None for m in label_counts
    ]


def run_combined_study(
    spec: ScenarioSpec,
    label_counts=(0, 10, 25, 50, 100),
    *,
    replicates: int,
    seed: int = 0,
) -> ExperimentReport:
    """MSE of the ratio, labels-only, and combined estimators.

    For each replicate the first ``m`` unlabeled rows (their true labels are
    carried by the generator) play the role of a labeled subsample of the
    target population.  ``m = 0`` reports the ratio arm alone.
    """
    check_study_kind("combined", spec.kind)
    theta = spec.theta
    label_counts = [int(m) for m in label_counts]
    if any(m < 0 or m > spec.n_unlabeled for m in label_counts):
        raise EstimationError("label counts must lie in [0, n_unlabeled]")
    label_counts = _distinct(label_counts, "each label count may be given once")
    replicate = partial(_combined_replicate, label_counts=label_counts)
    (outcomes,) = _run_cells([spec], replicate, replicates, seed)
    raw = []
    for r, (theta_ratio, arms) in enumerate(outcomes):
        for m, arm in zip(label_counts, arms):
            raw.append((spec.kind, "ratio", m, r, theta_ratio))
            if arm is not None:
                raw.append((spec.kind, "labels", m, r, arm.theta_labels))
                raw.append((spec.kind, "combined", m, r, arm.theta))
    return ExperimentReport(
        study="combined",
        columns=("target_labels", "replicates", "mse_ratio", "mse_labels", "mse_combined"),
        # m = 0 has no labels or combined rows, so those two cells are None
        rows=_summary_rows(raw, (2,), replicates, (lambda row: (row[4] - theta) ** 2, np.mean),
                           methods=("ratio", "labels", "combined")),
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
    result = multiclass_ratio(score_dataset(data, fit_logistic(data)))
    return (
        float(np.sum((result.theta_raw - truth) ** 2)),
        float(np.sum((result.theta - truth) ** 2)),
    )


def run_multiclass_study(
    spec: ScenarioSpec,
    sizes=(250, 500, 1000, 2000),
    *,
    replicates: int,
    seed: int = 0,
) -> ExperimentReport:
    """Vector MSE of the multiclass ratio estimate along a sample-size ladder.

    At each ladder point n, the labeled sample has n rows split across
    classes proportionally to ``spec.n_class`` and the unlabeled sample has
    n rows.  Scores are one-vs-rest logistic probabilities fit per
    replicate.  Reports raw and simplex-projected MSE (squared Euclidean
    distance to the true prior vector).
    """
    check_study_kind("multiclass", spec.kind)
    if spec.n_unlabeled is not None:
        raise EstimationError("the multiclass study sets n_unlabeled to each of its sizes, "
                              f"so its spec leaves it unset, got {spec.n_unlabeled}")
    base = np.asarray(spec.n_class, dtype=float)
    priors_labeled = tuple(base / base.sum())
    truth = np.asarray(_TARGET_PRIORS, dtype=float)
    cells = []
    # distinct as whole numbers: the tidy rows key on the size a cell runs at
    for size in _distinct(map(int, sizes), "the sizes swept must be distinct"):
        counts = _proportional_counts(size, priors_labeled)
        if np.any(counts < 1):
            raise EstimationError(f"ladder size {size} leaves an empty class")
        n_class = tuple(int(c) for c in counts)
        cells.append(dataclasses.replace(spec, n_class=n_class, n_unlabeled=size))
    outcomes = _run_cells(cells, partial(_multiclass_replicate, truth=truth), replicates, seed)
    raw = [(spec.kind, method, cell.n_unlabeled, r, error)
           for cell, errors in zip(cells, outcomes) for r, pair in enumerate(errors)
           for method, error in zip(("raw", "projected"), pair)]
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
        rows=_summary_rows(raw, (2,), replicates, (itemgetter(4), _mean_and_halfwidth),
                           methods=("raw", "projected")),
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
    grid=None,
    *,
    replicates: int,
    seed: int = 0,
    threshold: float = 0.0,
) -> ExperimentReport:
    """Integrated squared error of the ratio and classify-and-count curves.

    The scenario's score is the raw feature (column 0); the
    classify-and-count curve thresholds it at ``threshold``.  The truth is
    the scenario's sine prevalence curve evaluated on the grid, the curves'
    default grid unless ``grid`` is given.
    """
    check_study_kind("regression", spec.kind)
    _cc_indicator(np.empty((0, 1)), threshold, "cc_regress")  # refuses a NaN before any replicate
    grid = _evaluation_grid(grid)
    truth = _sine_prevalence(grid, spec.cycles)
    replicate = partial(_regression_replicate, grid=grid, truth=truth, threshold=threshold)
    (outcomes,) = _run_cells([spec], replicate, replicates, seed)
    raw = [(spec.kind, r, *errors) for r, errors in enumerate(outcomes)]
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
        rows=_summary_rows(raw, (), replicates, (itemgetter(2), _mean_and_halfwidth),
                           (itemgetter(3), _mean_and_halfwidth), (itemgetter(4), np.mean),
                           (itemgetter(4), np.max)),
        seed=seed,
        meta={**spec.meta(), "threshold": threshold, "grid_points": int(grid.size)},
        raw_columns=("scenario", "replicate", "mise_ratio", "mise_cc", "sup_gap"),
        raw_rows=tuple(raw),
    )
