"""Scenario generator and Monte Carlo study tests.

Counts and layouts are asserted exactly; law checks use moment bounds a
few standard errors wide so seeds stay interchangeable.
"""

import concurrent.futures
import os

import numpy as np
import pytest

from quantify import (
    DataError,
    EstimationError,
    ExperimentReport,
    RawDataset,
    ScenarioSpec,
    generate,
    null_gamma,
    run_combined_study,
    run_coverage_study,
    run_mse_study,
    run_multiclass_study,
    run_power_study,
    run_regression_study,
    symmetric_gaussian,
    table_scenario,
)
from quantify import simulate
from quantify.cli import main
from quantify.simulate import _child_seed, _mean_and_halfwidth, _proportional_counts


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

    def test_meta_is_plain_data(self):
        spec = table_scenario("gaussian", theta=0.3)
        meta = spec.meta()
        assert meta["kind"] == "gaussian"
        assert meta["n_class"] == [150, 150]
        assert meta["theta"] == 0.3
        assert "corpus" not in meta


class TestTableScenario:
    def test_gaussian_parameters(self):
        spec = table_scenario("gaussian")
        assert (spec.mean0, spec.mean1, spec.sd) == (0.0, 2.0, 1.0)
        assert (spec.n_unlabeled, spec.n_class, spec.theta) == (300, (150, 150), 0.6)

    def test_gaussian_exponential_parameters(self):
        spec = table_scenario("gaussian_exponential")
        assert (spec.mean0, spec.rate1) == (1.0, 1.0)

    def test_unknown_table_kind(self):
        with pytest.raises(EstimationError, match="canonical"):
            table_scenario("multiclass_gaussian")

    def test_symmetric_gaussian(self):
        spec = symmetric_gaussian(0.3, 300, (150, 150), mu=1.5)
        assert (spec.mean0, spec.mean1, spec.theta) == (-1.5, 1.5, 0.3)

    def test_null_gamma(self):
        assert null_gamma(table_scenario("gaussian")) == 0.0
        assert null_gamma(table_scenario("exponential")) == 1.0
        assert null_gamma(table_scenario("gaussian_exponential")) == 1.0
        assert null_gamma(table_scenario("beta")) == 1.0
        sine = ScenarioSpec(kind="regression_sine", n_unlabeled=10, n_class=(5, 5))
        with pytest.raises(EstimationError, match="shift parameter"):
            null_gamma(sine)


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
        spec = table_scenario("gaussian", theta=0.3)
        a = generate(spec, seed=11)
        b = generate(spec, seed=11)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.set_indicator, b.set_indicator)

    def test_seed_changes_the_draw(self):
        spec = table_scenario("gaussian")
        assert not np.array_equal(generate(spec, 0).features, generate(spec, 1).features)

    def test_exact_group_sizes_and_mixture_counts(self):
        spec = table_scenario("gaussian", n_unlabeled=300, n_class=(150, 150), theta=0.3)
        data = generate(spec, seed=3)
        assert data.labeled_class_indices(0).size == 150
        assert data.labeled_class_indices(1).size == 150
        labels_u = unlabeled_labels(data)
        assert labels_u.size == 300
        assert int(labels_u.sum()) == 90

    def test_rounding_of_fractional_mixture_counts(self):
        spec = table_scenario("gaussian", n_unlabeled=10, theta=0.61)
        assert int(unlabeled_labels(generate(spec, 0)).sum()) == 6

    def test_unlabeled_rows_are_shuffled(self):
        spec = table_scenario("gaussian", theta=0.5)
        labels_u = unlabeled_labels(generate(spec, 2))
        diffs = np.diff(labels_u)
        assert np.any(diffs > 0) and np.any(diffs < 0)

    def test_exponential_rates(self):
        spec = table_scenario("exponential", n_unlabeled=10, n_class=(4000, 4000))
        data = generate(spec, seed=9)
        mean1 = data.features[data.labeled_class_indices(1), 0].mean()
        mean0 = data.features[data.labeled_class_indices(0), 0].mean()
        assert abs(mean1 - 0.2) < 0.02
        assert abs(mean0 - 1.0) < 0.08
        assert data.features.min() >= 0.0

    def test_beta_scores_live_in_the_unit_interval(self):
        data = generate(table_scenario("beta"), seed=4)
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0

    def test_gamma_moves_only_the_unlabeled_class0_law(self):
        spec = table_scenario("gaussian", n_unlabeled=2000, n_class=(800, 800),
                              theta=0.6, gamma=3.0)
        data = generate(spec, seed=6)
        labels_u = unlabeled_labels(data)
        scores_u = data.features[data.unlabeled_indices(), 0]
        assert abs(scores_u[labels_u == 0].mean() - 3.0) < 0.2
        assert abs(data.features[data.labeled_class_indices(0), 0].mean() - 0.0) < 0.2

    def test_no_covariate_for_score_scenarios(self):
        assert generate(table_scenario("gaussian"), 0).covariate is None


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
        with pytest.raises(EstimationError, match="agree in length"):
            generate(
                ScenarioSpec(kind="multiclass_gaussian", n_unlabeled=30, n_class=(5, 5)),
                seed=0,
            )

    def test_priors_must_sum_to_one(self):
        bad = ScenarioSpec(
            kind="multiclass_gaussian",
            n_unlabeled=30,
            n_class=(5, 5, 5),
            target_priors=(0.5, 0.4, 0.4),
        )
        with pytest.raises(EstimationError, match="sum to 1"):
            generate(bad, seed=0)


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

    def test_labeled_prevalence_is_flat(self):
        spec = ScenarioSpec(kind="regression_sine", n_unlabeled=10, n_class=(2000, 2000))
        data = generate(spec, seed=5)
        share1 = data.labeled_class_indices(1).size / 4000
        assert abs(share1 - 0.5) < 0.03


class TestGenerateResample:
    def corpus(self, n0=60, n1=60) -> RawDataset:
        values = np.arange(n0 + n1, dtype=float)
        return RawDataset(
            features=values,
            labels=np.repeat([0, 1], (n0, n1)),
            set_indicator=np.ones(n0 + n1, dtype=int),
            covariate=values * 10.0,
        )

    def test_draws_without_replacement(self):
        spec = ScenarioSpec(
            kind="resample", n_unlabeled=40, n_class=(20, 20), theta=0.5,
            corpus=self.corpus(),
        )
        data = generate(spec, seed=1)
        assert data.n_rows == 80
        assert np.unique(data.features).size == 80
        np.testing.assert_array_equal(data.covariate, data.features[:, 0] * 10.0)
        assert data.labeled_class_indices(0).size == 20

    def test_unlabeled_composition_uses_per_row_coins(self):
        spec = ScenarioSpec(
            kind="resample", n_unlabeled=50, n_class=(5, 5), theta=0.8,
            corpus=self.corpus(),
        )
        counts = [int(unlabeled_labels(generate(spec, s)).sum()) for s in range(12)]
        assert len(set(counts)) > 1
        assert 25 <= np.mean(counts) <= 48

    def test_corpus_too_small(self):
        spec = ScenarioSpec(
            kind="resample", n_unlabeled=100, n_class=(55, 55), theta=0.5,
            corpus=self.corpus(),
        )
        with pytest.raises(EstimationError, match="corpus too small: need"):
            generate(spec, seed=0)

    def test_missing_corpus(self):
        spec = ScenarioSpec(kind="resample", n_unlabeled=10, n_class=(5, 5))
        with pytest.raises(EstimationError, match="needs a corpus"):
            generate(spec, seed=0)


class TestExperimentReport:
    def small_report(self, raw=True) -> ExperimentReport:
        return ExperimentReport(
            study="mse",
            columns=("theta", "method", "mse"),
            rows=((0.3, "ratio", 0.001), (0.3, "cc", 0.004)),
            seed=7,
            meta={"kind": "gaussian"},
            raw_columns=("method", "replicate", "estimate") if raw else (),
            raw_rows=(("ratio", 0, 0.31), ("ratio", 1, None)) if raw else (),
        )

    def test_csv_prefers_the_raw_table(self, tmp_path):
        path = tmp_path / "out.csv"
        self.small_report().to_csv(str(path))
        assert path.read_text() == "method,replicate,estimate\nratio,0,0.31\nratio,1,\n"

    def test_csv_falls_back_to_the_summary(self, tmp_path):
        path = tmp_path / "out.csv"
        self.small_report(raw=False).to_csv(str(path))
        assert path.read_text() == "theta,method,mse\n0.3,ratio,0.001\n0.3,cc,0.004\n"

    def test_cell_and_value(self):
        report = self.small_report()
        assert report.cell(method="cc") == (0.3, "cc", 0.004)
        assert report.value("mse", method="ratio") == 0.001
        with pytest.raises(KeyError, match="0 rows"):
            report.cell(method="em")
        with pytest.raises(KeyError, match="2 rows"):
            report.cell(theta=0.3)

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
        table_scenario("beta", n_unlabeled=60, n_class=(30, 30)),
        thetas=[0.2, 0.5], methods=["ratio", "cc", "em"], replicates=3, seed=4),
    "coverage": lambda: run_coverage_study(
        symmetric_gaussian(0.3, 60, (30, 30)), thetas=[0.3, 0.6], level=0.9,
        replicates=3, seed=1),
    "power": lambda: run_power_study(
        table_scenario("gaussian", n_unlabeled=80, n_class=(40, 40)), gammas=[0.0, -2.0],
        alpha=0.05, replicates=2, test_replicates=11, seed=6, grid_size=51),
    "combined": lambda: run_combined_study(
        symmetric_gaussian(0.3, 60, (30, 30)), label_counts=[0, 10, 20], replicates=3, seed=2),
    "multiclass": lambda: run_multiclass_study(
        ScenarioSpec(kind="multiclass_gaussian", n_unlabeled=90, n_class=(30, 30, 30)),
        sizes=[60, 90], replicates=2, seed=1),
    "regression": lambda: run_regression_study(
        ScenarioSpec(kind="regression_sine", n_unlabeled=200, n_class=(60, 60), mu=2.0),
        grid=np.linspace(0, 1, 11), replicates=3, seed=9),
}


class TestStudyDriver:
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
        spec = table_scenario("gaussian", n_unlabeled=60, n_class=(30, 30))
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
        spec = table_scenario("gaussian")
        report = run_mse_study(spec, thetas=[0.3], methods=["ratio", "cc"],
                               replicates=60, seed=0)
        assert report.value("mse", method="ratio") < report.value("mse", method="cc")

    def test_em_runs_on_probability_scores(self):
        spec = table_scenario("beta", n_unlabeled=80, n_class=(40, 40))
        report = run_mse_study(spec, thetas=[0.4], methods=["em"], replicates=5, seed=2)
        estimates = [row[4] for row in report.raw_rows]
        assert all(0.0 <= e <= 1.0 for e in estimates)

    def test_unknown_method(self):
        spec = table_scenario("gaussian", n_unlabeled=10, n_class=(5, 5))
        with pytest.raises(EstimationError, match="unknown method"):
            run_mse_study(spec, thetas=[0.5], methods=["pcc"], replicates=1, seed=0)

    def test_repeated_method(self):
        """A method given twice would pool two copies of its errors into one
        half-width, which comes out sqrt(2) too narrow."""
        spec = table_scenario("gaussian", n_unlabeled=10, n_class=(5, 5))
        with pytest.raises(EstimationError, match="once"):
            run_mse_study(spec, thetas=[0.5], methods=["cc", "ratio", "cc"], replicates=1,
                          seed=0)


class TestCoverageStudy:
    def test_degenerate_scores_cover_exactly(self):
        """With zero within-class spread the estimate equals the rounded
        mixture weight, so every interval covers and sparse widths vanish."""
        spec = table_scenario("gaussian", n_unlabeled=300, n_class=(20, 20))
        spec = ScenarioSpec(**{**spec.meta(), "n_class": (20, 20), "sd": 0.0})
        report = run_coverage_study(spec, thetas=[0.4], level=0.95,
                                    replicates=5, seed=1, regime="sparse")
        assert report.value("coverage", theta=0.4) == 1.0
        assert report.value("mean_width", theta=0.4) == 0.0

    def test_dense_regime_keeps_a_positive_width(self):
        spec = table_scenario("gaussian", n_unlabeled=300, n_class=(200, 200))
        spec = ScenarioSpec(**{**spec.meta(), "n_class": (200, 200), "sd": 0.0})
        report = run_coverage_study(spec, thetas=[0.4], level=0.95,
                                    replicates=5, seed=1, regime="dense")
        assert report.value("coverage", theta=0.4) == 1.0
        assert report.value("mean_width", theta=0.4) > 0.0

    def test_nominal_coverage_is_roughly_met(self):
        spec = symmetric_gaussian(0.3, 400, (200, 200))
        report = run_coverage_study(spec, thetas=[0.3], level=0.95,
                                    replicates=40, seed=3)
        assert report.value("coverage", theta=0.3) >= 0.85
        raw = report.raw_rows
        assert len(raw) == 40
        lows = [row[4] for row in raw]
        highs = [row[5] for row in raw]
        assert all(lo < hi for lo, hi in zip(lows, highs))


class TestPowerStudy:
    SPEC = table_scenario("gaussian", n_unlabeled=80, n_class=(40, 40))

    def test_null_marking_and_consistency(self):
        report = run_power_study(self.SPEC, gammas=[0.0, -2.0], alpha=0.05,
                                 replicates=3, test_replicates=19, seed=5,
                                 grid_size=51)
        assert report.columns == (
            "gamma", "replicates", "test_replicates", "rejection_rate", "is_null"
        )
        assert report.value("is_null", gamma=0.0) == 1.0
        assert report.value("is_null", gamma=-2.0) == 0.0
        for gamma in (0.0, -2.0):
            raw = [row for row in report.raw_rows if row[1] == gamma]
            assert len(raw) == 3
            rate = np.mean([row[5] for row in raw])
            assert rate == report.value("rejection_rate", gamma=gamma)
            assert all((row[4] <= 0.05) == bool(row[5]) for row in raw)

    def test_deterministic_across_runs(self):
        a = run_power_study(self.SPEC, gammas=[0.0], alpha=0.05, replicates=3,
                            test_replicates=19, seed=5, grid_size=51)
        b = run_power_study(self.SPEC, gammas=[0.0], alpha=0.05, replicates=3,
                            test_replicates=19, seed=5, grid_size=51)
        assert a.raw_rows == b.raw_rows

    def test_gross_shift_rejects(self):
        report = run_power_study(table_scenario("gaussian"), gammas=[-2.0],
                                 alpha=0.05, replicates=8, test_replicates=60,
                                 seed=7, grid_size=101)
        assert report.value("rejection_rate", gamma=-2.0) >= 0.75

    def test_alpha_guard(self):
        with pytest.raises(EstimationError, match="alpha"):
            run_power_study(self.SPEC, gammas=[0.0], alpha=0.0, replicates=1)


class TestCombinedStudy:
    def test_label_free_cells_report_only_the_ratio_arm(self):
        spec = symmetric_gaussian(0.3, 60, (40, 40))
        report = run_combined_study(spec, label_counts=[0, 20], replicates=6, seed=2)
        zero = report.cell(target_labels=0)
        assert zero[3] is None and zero[4] is None
        assert {row[1] for row in report.raw_rows if row[2] == 0} == {"ratio"}
        assert {row[1] for row in report.raw_rows if row[2] == 20} == {
            "ratio", "labels", "combined"
        }

    def test_labels_arm_matches_subsampling_variance(self):
        """First-m labels of a shuffled exact mixture form a without-
        replacement sample, so MSE(labels) tracks theta(1-theta)/m."""
        spec = symmetric_gaussian(0.3, 300, (50, 50))
        report = run_combined_study(spec, label_counts=[40], replicates=60, seed=3)
        mse_labels = report.value("mse_labels", target_labels=40)
        assert 0.002 <= mse_labels <= 0.011

    def test_count_bounds(self):
        spec = symmetric_gaussian(0.3, 30, (10, 10))
        with pytest.raises(EstimationError, match="label counts"):
            run_combined_study(spec, label_counts=[31], replicates=1, seed=0)
        with pytest.raises(EstimationError, match="label counts"):
            run_combined_study(spec, label_counts=[-1], replicates=1, seed=0)

    def test_repeated_label_count(self):
        spec = symmetric_gaussian(0.3, 30, (10, 10))
        with pytest.raises(EstimationError, match="once"):
            run_combined_study(spec, label_counts=[10, 0, 10], replicates=1, seed=0)


class TestMulticlassStudy:
    SPEC = ScenarioSpec(kind="multiclass_gaussian", n_unlabeled=90, n_class=(30, 30, 30))

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
        assert report.value("replicates", size=60) == 1

    def test_wrong_kind(self):
        with pytest.raises(EstimationError, match="multiclass_gaussian"):
            run_multiclass_study(table_scenario("gaussian"), sizes=[10], replicates=1, seed=0)

    def test_empty_class_on_the_ladder(self):
        with pytest.raises(EstimationError, match="empty class"):
            run_multiclass_study(self.SPEC, sizes=[2], replicates=1, seed=0)


class TestRegressionStudy:
    SPEC = ScenarioSpec(
        kind="regression_sine", n_unlabeled=200, n_class=(60, 60), mu=2.0
    )

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

    def test_wrong_kind(self):
        with pytest.raises(EstimationError, match="regression_sine"):
            run_regression_study(table_scenario("gaussian"), grid=np.linspace(0, 1, 5),
                                 replicates=1, seed=0)
