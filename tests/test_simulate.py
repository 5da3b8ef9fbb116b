"""Scenario generator and Monte Carlo study tests.

Counts and layouts are asserted exactly; law checks use moment bounds a
few standard errors wide so seeds stay interchangeable.
"""

import concurrent.futures
import os
from dataclasses import replace

import numpy as np
import pytest

from quantify import (
    DataError,
    EstimationError,
    ExperimentReport,
    RawDataset,
    ScenarioSpec,
    ScoredDataset,
    ThetaEstimate,
    generate,
    null_gamma,
    run_combined_study,
    run_coverage_study,
    run_mse_study,
    run_multiclass_study,
    run_power_study,
    run_regression_study,
    ratio_ci,
    ratio_estimate,
    ratio_variance,
)
from quantify import simulate
from quantify.cli import main
from quantify.simulate import _child_seed, _mean_and_halfwidth, _proportional_counts
from report_cells import cell, value


def unlabeled_labels(data: RawDataset) -> np.ndarray:
    return data.labels[data.unlabeled_indices()]


class TestScenarioSpec:
    def test_unknown_kind(self):
        with pytest.raises(EstimationError, match="unknown scenario kind"):
            ScenarioSpec(kind="cauchy", n_unlabeled=10, n_class=(5, 5))

    def test_theta_range(self):
        with pytest.raises(EstimationError, match="theta"):
            ScenarioSpec(kind="gaussian", n_unlabeled=10, n_class=(5, 5), theta=1.2)

    def test_group_sizes(self):
        with pytest.raises(EstimationError, match="group sizes"):
            ScenarioSpec(kind="gaussian", n_unlabeled=0, n_class=(5, 5))
        with pytest.raises(EstimationError, match="group sizes"):
            ScenarioSpec(kind="gaussian", n_unlabeled=10, n_class=(5, 0))

    @pytest.mark.parametrize("fields, size", [
        ({"n_class": (5.5, 5)}, 5.5),
        ({"n_unlabeled": 10.5}, 10.5),
        ({"n_unlabeled": np.float64(10.0)}, np.float64(10.0)),
    ], ids=["class-size", "unlabeled-size", "numpy-float"])
    def test_a_size_that_is_not_a_whole_number_is_refused_when_the_spec_is_built(
            self, fields, size, monkeypatch):
        """A float size would pass the build and fail at draw time inside numpy."""
        drawn = []
        monkeypatch.setattr(simulate, "generate", lambda *args, **kwargs: drawn.append(args))
        with pytest.raises(EstimationError) as info:
            run_mse_study(ScenarioSpec(kind="gaussian", **fields), thetas=[0.3], replicates=1)
        assert str(info.value) == f"group sizes must be whole numbers, got {size!r}"
        assert drawn == []
        assert generate(ScenarioSpec(kind="gaussian", n_unlabeled=np.int64(10), n_class=(5, 5)),
                        seed=0).features.shape == (20, 1)

    def test_meta_is_plain_data(self):
        spec = ScenarioSpec(kind="gaussian", theta=0.3)
        meta = spec.meta()
        assert meta["kind"] == "gaussian"
        assert meta["n_class"] == [150, 150]
        assert meta["theta"] == 0.3


class TestKindDefaults:
    def test_gaussian_parameters(self):
        spec = ScenarioSpec(kind="gaussian")
        assert (spec.mean0, spec.mean1) == (0.0, 2.0)
        assert (spec.n_unlabeled, spec.n_class, spec.theta) == (300, (150, 150), 0.6)

    def test_sine_parameters(self):
        spec = ScenarioSpec(kind="regression_sine")
        assert (spec.mean0, spec.mean1, spec.n_class, spec.cycles) == (-1.0, 1.0, (150, 150), 1)

    def test_gaussian_exponential_parameters(self):
        """N(1, 1) against the rate-1 exponential."""
        spec = ScenarioSpec(kind="gaussian_exponential", n_unlabeled=10, n_class=(4000, 4000))
        assert spec.mean0 == 1.0
        data = generate(spec, seed=9)
        scores0 = data.features[data.labeled_class_indices(0), 0]
        scores1 = data.features[data.labeled_class_indices(1), 0]
        assert abs(scores0.mean() - 1.0) < 0.08 and abs(scores0.std() - 1.0) < 0.08
        assert abs(scores1.mean() - 1.0) < 0.08 and scores1.min() >= 0.0

    def test_each_kind_has_only_the_fields_a_caller_sets(self):
        """The kinds' other law parameters are constants of their table rows."""
        assert list(ScenarioSpec(kind="beta").meta()) == [
            "kind", "n_unlabeled", "n_class", "theta", "gamma"]

    def test_null_gamma(self):
        assert null_gamma(ScenarioSpec(kind="gaussian")) == 0.0
        assert null_gamma(ScenarioSpec(kind="exponential")) == 1.0
        assert null_gamma(ScenarioSpec(kind="gaussian_exponential")) == 1.0
        assert null_gamma(ScenarioSpec(kind="beta")) == 1.0
        sine = ScenarioSpec(kind="regression_sine", n_unlabeled=10, n_class=(5, 5))
        with pytest.raises(EstimationError, match="shift parameter"):
            null_gamma(sine)


# The fields each kind reads besides its sizes, in field order, and a value of each
# field that differs from every kind's default (gamma from every null).
FIELDS_READ = {
    "gaussian": ("theta", "gamma", "mean0", "mean1"),
    "exponential": ("theta", "gamma"),
    "gaussian_exponential": ("theta", "gamma", "mean0"),
    "beta": ("theta", "gamma"),
    "multiclass_gaussian": (),
    "regression_sine": ("mean0", "mean1", "cycles"),
}
OTHER_VALUE = {"theta": 0.3, "gamma": 2.5, "mean0": 0.5, "mean1": 3.0, "cycles": 2}


@pytest.mark.parametrize("field", sorted(OTHER_VALUE))
@pytest.mark.parametrize("kind", sorted(FIELDS_READ))
def test_a_kind_draws_with_each_field_it_reads_and_refuses_every_other(kind, field):
    """A field of the kind's row changes the data drawn at a fixed seed, so no row
    lists a field its laws ignore; any other field is refused when the spec is
    built, naming the kind, the field and the fields the kind reads."""
    read = ("n_unlabeled", "n_class", *FIELDS_READ[kind])
    # the multiclass kind has no default n_unlabeled, and meta leaves an unset one out
    shown = read[1:] if kind == "multiclass_gaussian" else read
    assert list(ScenarioSpec(kind=kind).meta()) == ["kind", *shown]
    if field in read:
        base = generate(ScenarioSpec(kind=kind), seed=0)
        moved = generate(ScenarioSpec(kind=kind, **{field: OTHER_VALUE[field]}), seed=0)
        assert not (np.array_equal(base.features, moved.features)
                    and np.array_equal(base.labels, moved.labels))
    else:
        with pytest.raises(EstimationError) as info:
            ScenarioSpec(kind=kind, **{field: OTHER_VALUE[field]})
        assert str(info.value) == (f"the {kind!r} scenario kind does not read {field}, "
                                   f"only {', '.join(read)}")


class TestProportionalCounts:
    def test_exact_split(self):
        np.testing.assert_array_equal(
            _proportional_counts(300, (0.25, 0.10, 0.65)), [75, 30, 195]
        )

    def test_largest_remainder_gets_the_spare_row(self):
        # raw counts (3.9, 6.1): the 0.9 fraction wins the leftover unit
        np.testing.assert_array_equal(_proportional_counts(10, (0.39, 0.61)), [4, 6])

    def test_always_sums_to_the_total(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            priors = rng.dirichlet(np.ones(k))
            total = int(rng.integers(1, 400))
            counts = _proportional_counts(total, tuple(priors))
            assert counts.sum() == total
            assert counts.min() >= 0

    def test_totals_match_requested(self):
        for total in (1, 7, 299):
            assert _proportional_counts(total, (0.5, 0.5)).sum() == total


class TestGenerateBinary:
    def test_bit_identical_for_a_fixed_seed(self):
        spec = ScenarioSpec(kind="gaussian", theta=0.3)
        a = generate(spec, seed=11)
        b = generate(spec, seed=11)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.set_indicator, b.set_indicator)

    def test_seed_changes_the_draw(self):
        spec = ScenarioSpec(kind="gaussian")
        assert not np.array_equal(generate(spec, 0).features, generate(spec, 1).features)

    def test_exact_group_sizes_and_mixture_counts(self):
        spec = ScenarioSpec(kind="gaussian", n_unlabeled=300, n_class=(150, 150), theta=0.3)
        data = generate(spec, seed=3)
        assert data.labeled_class_indices(0).size == 150
        assert data.labeled_class_indices(1).size == 150
        labels_u = unlabeled_labels(data)
        assert labels_u.size == 300
        assert int(labels_u.sum()) == 90

    def test_rounding_of_fractional_mixture_counts(self):
        spec = ScenarioSpec(kind="gaussian", n_unlabeled=10, theta=0.61)
        assert int(unlabeled_labels(generate(spec, 0)).sum()) == 6

    def test_unlabeled_rows_are_shuffled(self):
        spec = ScenarioSpec(kind="gaussian", theta=0.5)
        labels_u = unlabeled_labels(generate(spec, 2))
        diffs = np.diff(labels_u)
        assert np.any(diffs > 0) and np.any(diffs < 0)

    def test_exponential_rates(self):
        spec = ScenarioSpec(kind="exponential", n_unlabeled=10, n_class=(4000, 4000))
        data = generate(spec, seed=9)
        mean1 = data.features[data.labeled_class_indices(1), 0].mean()
        mean0 = data.features[data.labeled_class_indices(0), 0].mean()
        assert abs(mean1 - 0.2) < 0.02
        assert abs(mean0 - 1.0) < 0.08
        assert data.features.min() >= 0.0

    def test_beta_scores_live_in_the_unit_interval(self):
        data = generate(ScenarioSpec(kind="beta"), seed=4)
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0

    def test_gamma_moves_only_the_unlabeled_class0_law(self):
        spec = ScenarioSpec(kind="gaussian", n_unlabeled=2000, n_class=(800, 800),
                            theta=0.6, gamma=3.0)
        data = generate(spec, seed=6)
        labels_u = unlabeled_labels(data)
        scores_u = data.features[data.unlabeled_indices(), 0]
        assert abs(scores_u[labels_u == 0].mean() - 3.0) < 0.2
        assert abs(data.features[data.labeled_class_indices(0), 0].mean() - 0.0) < 0.2

    def test_no_covariate_for_score_scenarios(self):
        assert generate(ScenarioSpec(kind="gaussian"), 0).covariate is None

    @pytest.mark.parametrize("kind, gamma, message", [
        ("exponential", 0.0, "gamma replaces the exponential class-0 rate and must be positive, "
                             "got 0.0"),
        ("beta", -1.0, "gamma replaces the beta class-0 first shape parameter and must be "
                       "positive, got -1.0"),
    ], ids=["exponential", "beta"])
    def test_a_non_positive_shift_is_refused_before_any_replicate(self, kind, gamma, message,
                                                                  monkeypatch):
        """gamma replaces a rate or shape there, so it must be positive like the field."""
        drawn = []
        monkeypatch.setattr(simulate, "generate", lambda *args, **kwargs: drawn.append(args))
        with pytest.raises(EstimationError) as info:
            run_power_study(ScenarioSpec(kind=kind), gammas=[1.0, gamma], replicates=1,
                            test_replicates=5, grid_size=21)
        assert str(info.value) == message
        assert drawn == []


class TestGenerateMulticlass:
    SPEC = ScenarioSpec(
        kind="multiclass_gaussian", n_unlabeled=300, n_class=(60, 90, 50)
    )

    def test_counts_and_dimensions(self):
        data = generate(self.SPEC, seed=1)
        assert data.n_features == 10
        assert [data.labeled_class_indices(j).size for j in range(3)] == [60, 90, 50]
        counts_u = np.bincount(unlabeled_labels(data), minlength=3)
        np.testing.assert_array_equal(counts_u, [75, 30, 195])

    def test_class_means_sit_at_their_levels(self):
        data = generate(self.SPEC, seed=2)
        labels_u = unlabeled_labels(data)
        rows = data.features[data.unlabeled_indices()]
        for j, level in enumerate((0.0, 0.75, 1.25)):
            assert abs(rows[labels_u == j].mean() - level) < 0.12

    def test_mismatched_lengths(self):
        with pytest.raises(EstimationError, match="needs 3 labeled class sizes, got 2"):
            generate(
                ScenarioSpec(kind="multiclass_gaussian", n_unlabeled=30, n_class=(5, 5)),
                seed=0,
            )

    def test_the_kind_carries_its_own_class_sizes(self):
        assert ScenarioSpec(kind="multiclass_gaussian").n_class == (20, 30, 50)
        assert ScenarioSpec(kind="gaussian").n_class == (150, 150)
        assert ScenarioSpec(kind="regression_sine").n_class == (150, 150)

    @pytest.mark.parametrize("fields", [
        {"n_class": (5, 5)},
        {"n_class": (5, 5, 5, 5)},
    ], ids=["two-sizes", "four-sizes"])
    def test_lengths_are_checked_when_the_spec_is_built(self, fields, monkeypatch):
        drawn = []
        monkeypatch.setattr(simulate, "generate", lambda *args, **kwargs: drawn.append(args))
        with pytest.raises(EstimationError, match="kind 'multiclass_gaussian' needs 3 labeled "
                                                  f"class sizes, got {len(fields['n_class'])}"):
            run_multiclass_study(ScenarioSpec(kind="multiclass_gaussian", **fields), sizes=[60],
                                 replicates=1)
        assert drawn == []


class TestGenerateRegressionSine:
    def test_covariate_range_and_counts(self):
        spec = ScenarioSpec(kind="regression_sine", n_unlabeled=400, n_class=(150, 150))
        data = generate(spec, seed=3)
        assert data.covariate is not None
        assert data.covariate.min() >= 0.0 and data.covariate.max() < 1.0
        assert int(data.set_indicator.sum()) == 300
        assert unlabeled_labels(data).size == 400

    def test_unlabeled_prevalence_follows_the_sine(self):
        spec = ScenarioSpec(kind="regression_sine", n_unlabeled=3000, n_class=(50, 50))
        data = generate(spec, seed=8)
        z = data.covariate[data.unlabeled_indices()]
        y = unlabeled_labels(data)
        assert y[z < 0.5].mean() > 0.7
        assert y[z >= 0.5].mean() < 0.3

    def test_labeled_class_sizes_are_exact(self):
        """Each labeled class has its size, and z is uniform in both."""
        spec = ScenarioSpec(kind="regression_sine", n_unlabeled=10, n_class=(700, 1300))
        data = generate(spec, seed=5)
        assert [data.labeled_class_indices(c).size for c in (0, 1)] == [700, 1300]
        for c in (0, 1):
            z = data.covariate[data.labeled_class_indices(c)]
            assert abs(z.mean() - 0.5) < 0.04 and z.min() >= 0.0 and z.max() < 1.0

    def test_one_size_per_class(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(simulate, "generate", lambda *args, **kwargs: drawn.append(args))
        with pytest.raises(EstimationError, match="kind 'regression_sine' needs 2 labeled class "
                                                  "sizes, got 3"):
            run_regression_study(ScenarioSpec(kind="regression_sine", n_class=(3, 3, 3)),
                                 replicates=1)
        assert drawn == []


class TestExperimentReport:
    def small_report(self) -> ExperimentReport:
        return ExperimentReport(
            study="mse",
            columns=("theta", "method", "mse"),
            rows=((0.3, "ratio", 0.001), (0.3, "cc", 0.004)),
            seed=7,
            meta={"kind": "gaussian"},
            raw_columns=("method", "replicate", "estimate"),
            raw_rows=(("ratio", 0, 0.31), ("ratio", 1, None)),
        )

    def test_csv_prefers_the_raw_table(self, tmp_path):
        path = tmp_path / "out.csv"
        with open(path, "w", newline="") as handle:
            self.small_report().to_csv(handle)
        assert path.read_text() == "method,replicate,estimate\nratio,0,0.31\nratio,1,\n"

    def test_cell_and_value(self):
        report = self.small_report()
        assert cell(report, method="cc") == (0.3, "cc", 0.004)
        assert value(report, "mse", method="ratio") == 0.001
        with pytest.raises(KeyError, match="0 rows"):
            cell(report, method="em")
        with pytest.raises(KeyError, match="2 rows"):
            cell(report, theta=0.3)

    def test_to_dict_payload(self):
        payload = self.small_report().to_dict()
        assert payload["study"] == "mse"
        assert payload["rows"][0] == [0.3, "ratio", 0.001]
        assert payload["seed"] == 7
        assert "raw_rows" not in payload


class TestHelpers:
    def test_mean_and_halfwidth(self):
        mean, half = _mean_and_halfwidth(np.array([0.0, 1.0]))
        assert mean == 0.5
        np.testing.assert_allclose(half, 0.98)
        _, single = _mean_and_halfwidth(np.array([2.0]))
        assert np.isnan(single)

    def test_child_seed_paths(self):
        assert _child_seed(3, 1, 2) == _child_seed(3, 1, 2)
        seeds = {_child_seed(3, i, j) for i in range(5) for j in range(5)}
        assert len(seeds) == 25


SMALL_STUDIES = {
    "mse": lambda: run_mse_study(
        ScenarioSpec(kind="beta", n_unlabeled=60, n_class=(30, 30)),
        thetas=[0.2, 0.5], methods=["ratio", "cc", "em"], replicates=3, seed=4),
    "coverage": lambda: run_coverage_study(
        ScenarioSpec(kind="gaussian", theta=0.3, n_unlabeled=60, n_class=(30, 30),
                     mean0=-1.0, mean1=1.0),
        thetas=[0.3, 0.6], level=0.9, replicates=3, seed=1),
    "power": lambda: run_power_study(
        ScenarioSpec(kind="gaussian", n_unlabeled=80, n_class=(40, 40)), gammas=[0.0, -2.0],
        alpha=0.05, replicates=2, test_replicates=11, seed=6, grid_size=51),
    "combined": lambda: run_combined_study(
        ScenarioSpec(kind="gaussian", theta=0.3, n_unlabeled=60, n_class=(30, 30),
                     mean0=-1.0, mean1=1.0),
        label_counts=[0, 10, 20], replicates=3, seed=2),
    "multiclass": lambda: run_multiclass_study(
        ScenarioSpec(kind="multiclass_gaussian", n_class=(30, 30, 30)),
        sizes=[60, 90], replicates=2, seed=1),
    "regression": lambda: run_regression_study(
        ScenarioSpec(kind="regression_sine", n_unlabeled=200, n_class=(60, 60), mean0=-2.0,
                     mean1=2.0),
        grid=np.linspace(0, 1, 11), replicates=3, seed=9),
}


def summary_by_hand(study: str, report: ExperimentReport) -> list[tuple]:
    """``report.rows`` recomputed from ``report.raw_rows`` with one plain loop per study."""
    replicates = 1 + max(row[report.raw_columns.index("replicate")] for row in report.raw_rows)

    def mean_and_half(values):
        values = np.array(values)
        half = 1.96 * float(values.std(ddof=1)) / float(np.sqrt(values.size))
        return float(values.mean()), half

    groups: dict = {}
    if study == "mse":
        for _, method, theta, _, estimate in report.raw_rows:
            groups.setdefault((theta, method), []).append((estimate - theta) ** 2)
        return [(*key, replicates, *mean_and_half(errors)) for key, errors in groups.items()]
    if study == "coverage":
        for _, theta, _, _, lower, upper, covered in report.raw_rows:
            groups.setdefault(theta, []).append((covered, upper - lower))
        return [(theta, replicates, float(np.mean([c for c, _ in pairs])),
                 float(np.mean([w for _, w in pairs]))) for theta, pairs in groups.items()]
    if study == "power":
        for _, gamma, _, _, _, rejected in report.raw_rows:
            groups.setdefault(gamma, []).append(rejected)
        # test_replicates=11 in SMALL_STUDIES; the gaussian null is the spec's mean0
        return [(gamma, replicates, 11, float(np.mean(rejected)),
                 1.0 if gamma == report.meta["mean0"] else 0.0)
                for gamma, rejected in groups.items()]
    if study == "combined":
        theta = report.meta["theta"]
        for _, method, m, _, estimate in report.raw_rows:
            groups.setdefault(m, {}).setdefault(method, []).append((estimate - theta) ** 2)
        return [(m, replicates, *(float(np.mean(arms[method])) if method in arms else None
                                  for method in ("ratio", "labels", "combined")))
                for m, arms in groups.items()]
    if study == "multiclass":
        for _, method, size, _, error in report.raw_rows:
            groups.setdefault(size, {}).setdefault(method, []).append(error)
        return [(size, replicates, *mean_and_half(errors["raw"]),
                 *mean_and_half(errors["projected"])) for size, errors in groups.items()]
    gaps = np.array([row[4] for row in report.raw_rows])
    return [(replicates, *mean_and_half([row[2] for row in report.raw_rows]),
             *mean_and_half([row[3] for row in report.raw_rows]),
             float(gaps.mean()), float(gaps.max()))]


class TestStudyDriver:
    @pytest.mark.parametrize("study", sorted(SMALL_STUDIES))
    def test_summary_rows_are_a_reduction_of_the_raw_rows(self, study):
        """Groups in first-seen order, each reduced over its replicates in order."""
        report = SMALL_STUDIES[study]()
        assert list(report.rows) == summary_by_hand(study, report)

    @pytest.mark.parametrize("study, swept", [("mse", "theta"), ("coverage", "theta"),
                                              ("power", "gamma")])
    def test_meta_leaves_out_the_field_the_study_sweeps(self, study, swept):
        """No cell ran at the spec's own value of a swept field; the rows show the values."""
        report = SMALL_STUDIES[study]()
        assert swept not in report.meta
        assert report.meta["kind"] == report.raw_rows[0][0]

    @pytest.mark.parametrize("study", sorted(SMALL_STUDIES))
    def test_worker_count_does_not_change_results(self, monkeypatch, study):
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("QUANTIFY_THREADS", "1")
        serial = SMALL_STUDIES[study]()
        assert pools == []
        monkeypatch.setenv("QUANTIFY_THREADS", "2")
        pooled = SMALL_STUDIES[study]()
        assert pools == [2]
        assert serial.rows == pooled.rows
        assert serial.raw_rows == pooled.raw_rows

    @pytest.mark.parametrize(
        "value, cpus, expected",
        [(None, 4, 4), ("0", 4, 4), ("-3", 4, 4), ("1", 4, 1), ("3", 4, 3), ("5000", 4, 4),
         ("2", 1, 1)],
    )
    def test_worker_count_is_capped_by_usable_cpus(self, monkeypatch, value, cpus, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        if value is None:
            monkeypatch.delenv("QUANTIFY_THREADS", raising=False)
        else:
            monkeypatch.setenv("QUANTIFY_THREADS", value)
        assert simulate._threads() == expected

    @pytest.mark.parametrize("value", ["two", "1.5", ""])
    def test_non_integer_worker_count_fails_loudly(self, monkeypatch, capsys, value):
        monkeypatch.setenv("QUANTIFY_THREADS", value)
        with pytest.raises(DataError, match="QUANTIFY_THREADS"):
            simulate._threads()
        assert main(["simulate", "--study", "mse", "--replicates", "1", "--theta", "0.5"]) == 1
        assert "QUANTIFY_THREADS" in capsys.readouterr().err


class TestMseStudy:
    def test_layout_and_determinism(self):
        spec = ScenarioSpec(kind="gaussian", n_unlabeled=60, n_class=(30, 30))
        a = run_mse_study(spec, thetas=[0.2, 0.5], methods=["ratio", "cc"],
                          replicates=3, seed=4)
        b = run_mse_study(spec, thetas=[0.2, 0.5], methods=["ratio", "cc"],
                          replicates=3, seed=4)
        assert a.rows == b.rows and a.raw_rows == b.raw_rows
        assert a.columns == ("theta", "method", "replicates", "mse", "half_width")
        assert len(a.rows) == 4
        assert len(a.raw_rows) == 2 * 2 * 3
        assert {row[1] for row in a.raw_rows} == {"ratio", "cc"}
        assert all(row[3] >= 0.0 for row in a.rows)

    def test_ratio_beats_classify_and_count_under_shifted_priors(self):
        """Overlapping classes bias thresholded counting; the ratio corrects it."""
        spec = ScenarioSpec(kind="gaussian")
        report = run_mse_study(spec, thetas=[0.3], methods=["ratio", "cc"],
                               replicates=60, seed=0)
        assert value(report, "mse", method="ratio") < value(report, "mse", method="cc")

    def test_em_runs_on_probability_scores(self):
        spec = ScenarioSpec(kind="beta", n_unlabeled=80, n_class=(40, 40))
        report = run_mse_study(spec, thetas=[0.4], methods=["em"], replicates=5, seed=2)
        estimates = [row[4] for row in report.raw_rows]
        assert all(0.0 <= e <= 1.0 for e in estimates)

    def test_unknown_method(self):
        spec = ScenarioSpec(kind="gaussian", n_unlabeled=10, n_class=(5, 5))
        with pytest.raises(EstimationError, match="unknown method"):
            run_mse_study(spec, thetas=[0.5], methods=["pcc"], replicates=1, seed=0)

    def test_repeated_method(self):
        """A method given twice would pool two copies of its errors into one
        half-width, which comes out sqrt(2) too narrow."""
        spec = ScenarioSpec(kind="gaussian", n_unlabeled=10, n_class=(5, 5))
        with pytest.raises(EstimationError, match="once"):
            run_mse_study(spec, thetas=[0.5], methods=["cc", "ratio", "cc"], replicates=1,
                          seed=0)


class TestCoverageStudy:
    @staticmethod
    def zero_spread_interval(n_class: int, regime: str) -> ThetaEstimate:
        """A coverage replicate's interval on scores no scenario draws: constant
        class scores 0 and 2, and 300 unlabeled rows mixed exactly at theta = 0.4."""
        scores = ScoredDataset(unlabeled=np.repeat([0.0, 2.0], (180, 120)),
                               classes=(np.zeros(n_class), np.full(n_class, 2.0)))
        return ratio_ci(ratio_variance(ratio_estimate(scores), regime), level=0.95)

    def test_degenerate_scores_cover_exactly(self):
        """With zero within-class spread the estimate equals the mixture
        weight, so the interval covers and its sparse width vanishes."""
        est = self.zero_spread_interval(20, "sparse")
        assert est.ci[:2] == (est.theta, est.theta) and est.theta == 0.4

    def test_dense_regime_keeps_a_positive_width(self):
        lo, hi, _ = self.zero_spread_interval(200, "dense").ci
        assert lo <= 0.4 <= hi and hi - lo > 0.0

    def test_nominal_coverage_is_roughly_met(self):
        spec = ScenarioSpec(kind="gaussian", theta=0.3, n_unlabeled=400, n_class=(200, 200),
                            mean0=-1.0, mean1=1.0)
        report = run_coverage_study(spec, thetas=[0.3], level=0.95,
                                    replicates=40, seed=3)
        assert value(report, "coverage", theta=0.3) >= 0.85
        raw = report.raw_rows
        assert len(raw) == 40
        lows = [row[4] for row in raw]
        highs = [row[5] for row in raw]
        assert all(lo < hi for lo, hi in zip(lows, highs))


class TestPowerStudy:
    SPEC = ScenarioSpec(kind="gaussian", n_unlabeled=80, n_class=(40, 40))

    def test_null_marking_and_consistency(self):
        report = run_power_study(self.SPEC, gammas=[0.0, -2.0], alpha=0.05,
                                 replicates=3, test_replicates=19, seed=5,
                                 grid_size=51)
        assert report.columns == (
            "gamma", "replicates", "test_replicates", "rejection_rate", "is_null"
        )
        assert value(report, "is_null", gamma=0.0) == 1.0
        assert value(report, "is_null", gamma=-2.0) == 0.0
        for gamma in (0.0, -2.0):
            raw = [row for row in report.raw_rows if row[1] == gamma]
            assert len(raw) == 3
            rate = np.mean([row[5] for row in raw])
            assert rate == value(report, "rejection_rate", gamma=gamma)
            assert all((row[4] <= 0.05) == bool(row[5]) for row in raw)

    def test_deterministic_across_runs(self):
        a = run_power_study(self.SPEC, gammas=[0.0], alpha=0.05, replicates=3,
                            test_replicates=19, seed=5, grid_size=51)
        b = run_power_study(self.SPEC, gammas=[0.0], alpha=0.05, replicates=3,
                            test_replicates=19, seed=5, grid_size=51)
        assert a.raw_rows == b.raw_rows

    def test_gross_shift_rejects(self):
        report = run_power_study(ScenarioSpec(kind="gaussian"), gammas=[-2.0],
                                 alpha=0.05, replicates=8, test_replicates=60,
                                 seed=7, grid_size=101)
        assert value(report, "rejection_rate", gamma=-2.0) >= 0.75

    def test_alpha_guard(self):
        with pytest.raises(EstimationError, match="alpha"):
            run_power_study(self.SPEC, gammas=[0.0], alpha=0.0, replicates=1)

    @pytest.mark.parametrize("spec, gammas", [
        pytest.param(SPEC, [0.0, -2.0, 0.0], id="given-twice"),
        # offsets of -2..1 vanish next to a null of -1e300
        pytest.param(ScenarioSpec(kind="gaussian", theta=0.6, n_unlabeled=80, n_class=(40, 40),
                                  mean0=-1e300, mean1=1e300), None, id="default-sweep"),
    ])
    def test_repeated_gamma_is_refused_before_any_replicate(self, spec, gammas, monkeypatch):
        """Two cells at one gamma would print the same row twice."""
        drawn = []
        monkeypatch.setattr(simulate, "generate", lambda *args, **kwargs: drawn.append(args))
        with pytest.raises(EstimationError, match="the gammas swept must be distinct"):
            run_power_study(spec, gammas, replicates=1)
        assert drawn == []


@pytest.mark.parametrize("run_study, message", [
    pytest.param(lambda: run_mse_study(ScenarioSpec(kind="gaussian", theta=0.3, n_unlabeled=60,
                                                    n_class=(30, 30), mean0=-1.0, mean1=1.0),
                                       thetas=[0.2, 0.4, 0.2], replicates=1),
                 "the thetas swept must be distinct, got [0.2, 0.4, 0.2]", id="mse-thetas"),
    pytest.param(lambda: run_coverage_study(ScenarioSpec(kind="gaussian", theta=0.3, n_unlabeled=60,
                                                         n_class=(30, 30), mean0=-1.0, mean1=1.0),
                                            thetas=[0.3, 0.3], replicates=1),
                 "the thetas swept must be distinct, got [0.3, 0.3]", id="coverage-thetas"),
    pytest.param(lambda: run_multiclass_study(TestMulticlassStudy.SPEC, sizes=[60, 60],
                                              replicates=1),
                 "the sizes swept must be distinct, got [60, 60]", id="multiclass-sizes"),
    pytest.param(lambda: run_multiclass_study(TestMulticlassStudy.SPEC, sizes=[60.2, 60.7],
                                              replicates=1),
                 "the sizes swept must be distinct, got [60, 60]", id="multiclass-sizes-as-run"),
])
def test_repeated_sweep_value_is_refused_before_any_replicate(run_study, message, monkeypatch):
    """Two cells at one swept value would give two summary rows under one key."""
    drawn = []
    monkeypatch.setattr(simulate, "generate", lambda *args, **kwargs: drawn.append(args))
    with pytest.raises(EstimationError) as info:
        run_study()
    assert str(info.value) == message
    assert drawn == []


class TestCombinedStudy:
    def test_label_free_cells_report_only_the_ratio_arm(self):
        spec = ScenarioSpec(kind="gaussian", theta=0.3, n_unlabeled=60, n_class=(40, 40),
                            mean0=-1.0, mean1=1.0)
        report = run_combined_study(spec, label_counts=[0, 20], replicates=6, seed=2)
        zero = cell(report, target_labels=0)
        assert zero[3] is None and zero[4] is None
        assert {row[1] for row in report.raw_rows if row[2] == 0} == {"ratio"}
        assert {row[1] for row in report.raw_rows if row[2] == 20} == {
            "ratio", "labels", "combined"
        }

    def test_labels_arm_matches_subsampling_variance(self):
        """First-m labels of a shuffled exact mixture form a without-
        replacement sample, so MSE(labels) tracks theta(1-theta)/m."""
        spec = ScenarioSpec(kind="gaussian", theta=0.3, n_unlabeled=300, n_class=(50, 50),
                            mean0=-1.0, mean1=1.0)
        report = run_combined_study(spec, label_counts=[40], replicates=60, seed=3)
        mse_labels = value(report, "mse_labels", target_labels=40)
        assert 0.002 <= mse_labels <= 0.011

    def test_count_bounds(self):
        spec = ScenarioSpec(kind="gaussian", theta=0.3, n_unlabeled=30, n_class=(10, 10),
                            mean0=-1.0, mean1=1.0)
        with pytest.raises(EstimationError, match="label counts"):
            run_combined_study(spec, label_counts=[31], replicates=1, seed=0)
        with pytest.raises(EstimationError, match="label counts"):
            run_combined_study(spec, label_counts=[-1], replicates=1, seed=0)

    def test_repeated_label_count(self):
        spec = ScenarioSpec(kind="gaussian", theta=0.3, n_unlabeled=30, n_class=(10, 10),
                            mean0=-1.0, mean1=1.0)
        with pytest.raises(EstimationError, match="once"):
            run_combined_study(spec, label_counts=[10, 0, 10], replicates=1, seed=0)


class TestMulticlassStudy:
    SPEC = ScenarioSpec(kind="multiclass_gaussian", n_class=(30, 30, 30))

    def test_projection_never_hurts(self):
        report = run_multiclass_study(self.SPEC, sizes=[60, 120], replicates=3, seed=1)
        assert len(report.rows) == 2
        by_key = {}
        for _, method, size, r, sq in report.raw_rows:
            by_key[(method, size, r)] = sq
        for (method, size, r), sq in by_key.items():
            if method == "projected":
                assert sq <= by_key[("raw", size, r)] + 1e-12
        for row in report.rows:
            assert row[4] <= row[2] + 1e-12

    def test_ladder_splits_labeled_counts_proportionally(self):
        report = run_multiclass_study(self.SPEC, sizes=[60], replicates=1, seed=0)
        assert value(report, "replicates", size=60) == 1

    def test_wrong_kind(self):
        with pytest.raises(EstimationError, match="multiclass_gaussian"):
            run_multiclass_study(ScenarioSpec(kind="gaussian"), sizes=[10], replicates=1, seed=0)

    def test_empty_class_on_the_ladder(self):
        with pytest.raises(EstimationError, match="empty class"):
            run_multiclass_study(self.SPEC, sizes=[2], replicates=1, seed=0)

    def test_a_spec_that_sets_n_unlabeled_is_refused_before_any_draw(self, monkeypatch):
        """The ladder sets n_unlabeled at each size, so a given one would be ignored."""
        drawn = []
        monkeypatch.setattr(simulate, "generate", lambda *args, **kwargs: drawn.append(args))
        with pytest.raises(EstimationError) as info:
            run_multiclass_study(replace(self.SPEC, n_unlabeled=90), sizes=[60], replicates=1)
        assert str(info.value) == ("the multiclass study sets n_unlabeled to each of its sizes, "
                                   "so its spec leaves it unset, got 90")
        assert drawn == []

    def test_a_spec_without_n_unlabeled_is_not_drawn(self):
        with pytest.raises(EstimationError, match="needs n_unlabeled set before it is drawn"):
            generate(self.SPEC, seed=0)


class TestRegressionStudy:
    SPEC = ScenarioSpec(kind="regression_sine", n_unlabeled=200, n_class=(60, 60), mean0=-2.0,
                        mean1=2.0)

    def test_summary_layout(self):
        grid = np.linspace(0, 1, 21)
        report = run_regression_study(self.SPEC, grid=grid, replicates=3, seed=4)
        assert report.columns == (
            "replicates",
            "mise_ratio",
            "half_width_ratio",
            "mise_cc",
            "half_width_cc",
            "mean_sup_gap",
            "max_sup_gap",
        )
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row[0] == 3
        assert row[1] >= 0.0 and row[3] >= 0.0
        assert row[5] <= row[6]
        assert len(report.raw_rows) == 3
        assert report.meta["grid_points"] == 21

    def test_deterministic(self):
        grid = np.linspace(0, 1, 11)
        a = run_regression_study(self.SPEC, grid=grid, replicates=2, seed=9)
        b = run_regression_study(self.SPEC, grid=grid, replicates=2, seed=9)
        assert a.rows == b.rows

    def test_a_nan_threshold_is_refused_before_any_replicate(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(simulate, "generate", lambda *args, **kwargs: drawn.append(args))
        with pytest.raises(EstimationError, match="the cc threshold must be a number, got nan"):
            run_regression_study(self.SPEC, replicates=1, threshold=float("nan"))
        assert drawn == []

    def test_wrong_kind(self):
        with pytest.raises(EstimationError, match="regression_sine"):
            run_regression_study(ScenarioSpec(kind="gaussian"), grid=np.linspace(0, 1, 5),
                                 replicates=1, seed=0)
