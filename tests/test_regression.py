"""Prevalence-curve tests: local averaging, bandwidth choice, both correctors."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantify import (
    DataError,
    EstimationError,
    ExternalScore,
    RawDataset,
    ScenarioSpec,
    cc_regress,
    cv_bandwidth,
    generate,
    nadaraya_watson,
    ratio_regress,
    rng_from,
)
from quantify import regression
from quantify.regression import _CV_FACTORS, _cv_errors

SCORE = ExternalScore(columns=(0,))

# Derandomized, so every run checks the same examples and tier-1 stays deterministic.
EXACTNESS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def reference_cv_errors(z, values, hs) -> list[float]:
    """Leave-one-out squared error per bandwidth, one candidate at a time.

    The earlier implementation of ``cv_bandwidth``: 512-row chunks against
    every column, so each symmetric weight is computed twice.
    """
    errors = []
    for h in hs:
        err = 0.0
        for start in range(0, z.size, 512):
            stop = min(start + 512, z.size)
            local = np.arange(stop - start)
            weights = np.exp(-0.5 * ((z[start:stop, None] - z[None, :]) / h) ** 2)
            weights[local, local + start] = 0.0
            totals = weights.sum(axis=1)
            preds = np.divide(weights @ values, totals, out=np.zeros(stop - start), where=totals > 0)
            empty = totals == 0.0
            if np.any(empty):
                gaps = np.abs(z[start:stop, None] - z[None, :])
                gaps[local, local + start] = np.inf
                preds[empty] = values[gaps.argmin(axis=1)[empty]]
            err += float(np.sum((preds - values[start:stop]) ** 2))
        errors.append(err)
    return errors


def family(h0: float) -> list[float]:
    """The bandwidths h0 * 2**k whose errors ``_cv_errors`` returns, in its order."""
    return [math.ldexp(h0, k) for k in range(len(_CV_FACTORS))]


@st.composite
def cv_problems(draw):
    """(z, values, h0) covering several block pairs, sizes off the block size, tied z,
    constant values, and h0 so small that every row's weights underflow; h0 is
    cv_bandwidth's own (a quarter of the rule of thumb) at factor 1.0."""
    n = draw(st.one_of(st.integers(3, 40), st.integers(200, 1200),
                       st.sampled_from([255, 256, 257, 512, 513])))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["uniform", "distinct grid", "repeated grid", "rounded"]))
    if layout == "uniform":
        z = rng.random(n)
    elif layout == "distinct grid":  # every inner point has two nearest neighbours
        z = rng.permutation(n) * 0.25
    elif layout == "repeated grid":
        z = rng.integers(0, max(2, n // 3), n) * 0.25
    else:
        z = np.round(rng.random(n), 1)
    if draw(st.booleans()):
        values = np.full(n, draw(st.floats(-3.0, 3.0)))
    else:
        values = np.sin(6.0 * z) + rng.normal(0.0, draw(st.sampled_from([0.01, 1.0])), n)
    z = z * draw(st.sampled_from([1.0, 1.0, 1e-150, 1e-20, 1e20, 1e150]))
    spread = float(np.std(z, ddof=1))
    base = spread * n ** (-0.2) if spread > 0 else 1.0
    return z, values, 0.25 * base * draw(st.sampled_from([1.0, 1.0, 1.0, 1e-4, 1e-3, 0.3, 1.7]))


@st.composite
def power_of_two_families(draw):
    """(differences, h0) with |d| / h from 1e-160 to 1e3 for each bandwidth
    h0 * 2**k, so squares reach the subnormal range, plus arbitrary differences,
    some of them so large that d / h0 or its square overflows."""
    h0 = draw(st.floats(1e-300, 1e280))
    hs = family(h0)
    quotients = draw(st.lists(st.floats(-160.0, 3.0), min_size=1, max_size=40))
    diffs = [10.0**q * h for q in quotients for h in hs]
    diffs += draw(st.lists(st.floats(0.0, 1e308), max_size=20)) + [0.0]
    signs = np.where(rng_from(draw(st.integers(0, 2**32 - 1))).random(len(diffs)) < 0.5, -1.0, 1.0)
    return signs * np.array(diffs), h0


def covariate_dataset(z_u, g_u, class0=(0.0, 0.0), class1=(1.0, 1.0)) -> RawDataset:
    """Labeled rows pin the group means; unlabeled rows carry (z, g) pairs."""
    z_u = np.asarray(z_u, dtype=float)
    g_u = np.asarray(g_u, dtype=float)
    n0, n1, n_u = len(class0), len(class1), z_u.size
    return RawDataset(
        features=np.concatenate([class0, class1, g_u]),
        labels=np.concatenate([np.zeros(n0, int), np.ones(n1, int), -np.ones(n_u, int)]),
        set_indicator=np.concatenate([np.ones(n0 + n1, int), np.zeros(n_u, int)]),
        covariate=np.concatenate([np.zeros(n0 + n1), z_u]),
    )


class TestNadarayaWatson:
    def test_constant_values(self):
        out = nadaraya_watson(
            np.array([0.0, 1.0, 2.0]), np.full(3, 4.2), 0.7, np.linspace(-1, 3, 9)
        )
        np.testing.assert_allclose(out, 4.2, atol=1e-12)

    def test_single_pair_everywhere(self):
        out = nadaraya_watson(np.array([0.3]), np.array([2.5]), 0.5, np.array([-5.0, 0.3, 40.0]))
        np.testing.assert_allclose(out, 2.5)

    def test_symmetric_midpoint(self):
        out = nadaraya_watson(
            np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.5, np.array([0.5])
        )
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_far_query_falls_back_to_the_nearest_point(self):
        """Once every kernel weight underflows, the nearest value is used."""
        out = nadaraya_watson(
            np.array([0.0, 1.0]), np.array([3.0, 7.0]), 0.01, np.array([-50.0, 50.0])
        )
        np.testing.assert_allclose(out, [3.0, 7.0])

    def test_stays_within_the_value_range(self):
        rng = rng_from(3)
        z = rng.random(40)
        g = rng.normal(0.0, 1.0, 40)
        out = nadaraya_watson(z, g, 0.1, np.linspace(0, 1, 21))
        assert out.min() >= g.min() - 1e-12
        assert out.max() <= g.max() + 1e-12

    def test_guards(self):
        for h in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(EstimationError, match="bandwidth must be positive and finite"):
                nadaraya_watson(np.array([0.0]), np.array([1.0]), h, np.array([0.0]))
        with pytest.raises(EstimationError, match="matching"):
            nadaraya_watson(np.array([0.0, 1.0]), np.array([1.0]), 0.5, np.array([0.0]))
        with pytest.raises(EstimationError, match="matching"):
            nadaraya_watson(np.empty(0), np.empty(0), 0.5, np.array([0.0]))


class TestCvBandwidth:
    """Leave-one-out choice of the smoothing bandwidth."""

    def test_noise_rejects_a_vanishing_candidate(self):
        """On pure noise a vanishing bandwidth degrades to nearest-neighbour
        prediction (squared error about twice the noise variance per point),
        so a moderate candidate that averages toward the mean must win."""
        rng = rng_from(10)
        z = np.linspace(0.0, 1.0, 80)
        values = rng.standard_normal(80)
        base = float(np.std(z, ddof=1)) * 80 ** (-0.2)
        assert _cv_errors(z, values, base)[0] < _cv_errors(z, values, 1e-12)[0]

    def test_candidates_scale_the_rule_of_thumb_by_powers_of_two(self):
        rng = rng_from(11)
        z = rng.random(60)
        values = np.sin(2 * np.pi * z) + 0.1 * rng.standard_normal(60)
        base = float(np.std(z, ddof=1)) * 60 ** (-0.2)
        assert cv_bandwidth(z, values) in {base * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)}

    def test_ties_go_to_the_smallest_candidate(self):
        """All-zero values predict 0.0 exactly at every bandwidth: five equal errors."""
        z = rng_from(14).random(30)
        assert _cv_errors(z, np.zeros(30), 0.1).tolist() == [0.0] * 5
        assert cv_bandwidth(z, np.zeros(30)) == 0.25 * regression._rule_of_thumb(z)

    def test_tracks_the_smoothness_of_the_signal(self):
        """A rapidly oscillating target takes the narrowest candidate, and a
        constant-plus-noise target the widest, on the same covariate."""
        rng = rng_from(12)
        z = np.linspace(0.0, 1.0, 120)
        wiggly = np.sin(8 * np.pi * z) + 0.05 * rng.standard_normal(120)
        flat = 0.5 + 0.05 * rng.standard_normal(120)
        h0 = 0.25 * float(np.std(z, ddof=1)) * 120 ** (-0.2)
        assert cv_bandwidth(z, wiggly) == h0
        assert cv_bandwidth(z, flat) == 16 * h0

    @EXACTNESS
    @given(cv_problems())
    def test_errors_equal_the_per_candidate_loop(self, problem):
        """Every kernel weight has the reference's bits; only the order of the
        sums differs.  Constant values make every error itself rounding noise,
        which the absolute term (n times the square of an n-term sum's
        rounding bound) covers."""
        z, values, h0 = problem
        hs = family(h0)
        reference = reference_cv_errors(z, values, hs)
        atol = z.size * (z.size * np.finfo(float).eps * np.max(np.abs(values))) ** 2
        np.testing.assert_allclose(_cv_errors(z, values, h0), reference, rtol=1e-12, atol=atol)
        ordered = np.sort(reference)
        spread = float(np.std(z, ddof=1))
        if (spread > 0 and h0 == 0.25 * spread * z.size ** (-0.2)
                and ordered[1] - ordered[0] > 1e-9 * ordered[1] + 2 * atol):
            assert cv_bandwidth(z, values) == hs[int(np.argmin(reference))]

    @EXACTNESS
    @given(power_of_two_families())
    def test_shared_exponent_gives_every_weight_its_own_bits(self, problem):
        """(d / h0) ** 2 scaled by -0.5 * (h0 / h) ** 2 is exp'd to the bits of the
        candidate's own expression, the one the smoother evaluates."""
        d, h0 = problem
        assert _CV_FACTORS == tuple(-0.5 / 4.0**k for k in range(5))
        with np.errstate(over="ignore"):
            for h, factor in zip(family(h0), _CV_FACTORS):
                shared = np.exp(factor * (d / h0) ** 2)
                own = np.exp(-0.5 * ((d / h) ** 2))
                assert np.array_equal(shared.view(np.int64), own.view(np.int64))

    @EXACTNESS
    @given(cv_problems())
    def test_skipped_blocks_have_only_zero_weights(self, problem):
        """Every pair of a block pair that the skip rule drops for a candidate has
        weight exactly 0.0, so skipping leaves every sum's bits as they are."""
        z, values, h0 = problem
        hs = family(h0)
        z_sorted = np.sort(z, kind="stable")
        block, n = regression._CV_BLOCK, z.size
        for i0 in range(0, n, block):
            rows = z_sorted[i0 : i0 + block]
            for j0 in range(i0 + block, n, block):
                gap = z_sorted[j0] - rows[-1]
                for h in hs:
                    if gap / h > regression._CV_REACH:
                        cols = z_sorted[j0 : j0 + block]
                        assert not np.any(np.exp(-0.5 * ((rows[:, None] - cols[None, :]) / h) ** 2))

    def test_skipping_changes_no_bit(self, monkeypatch):
        """Sorted z far apart at the smallest candidates: the skip rule drops most
        block pairs, and the errors keep every bit of the run that skips none."""
        rng = rng_from(21)
        z = np.concatenate([rng.random(700), 50.0 + rng.random(700), rng.random(200) * 100.0])
        values = np.sin(z) + 0.1 * rng.standard_normal(z.size)
        for h0 in (1e-3, 0.03, 0.5):
            skipped = _cv_errors(z, values, h0)
            monkeypatch.setattr(regression, "_CV_REACH", np.inf)
            every = _cv_errors(z, values, h0)
            monkeypatch.undo()
            assert skipped.tobytes() == every.tobytes()

    def test_all_underflow_rows_fall_back_to_the_first_nearest_neighbour(self):
        """Point 1 has two neighbours at equal distance and takes the lower index."""
        z = np.array([0.0, 1.0, 2.0, 10.0])
        values = np.array([1.0, 2.0, 4.0, 8.0])
        # nearest neighbours, self excluded: 1, 0, 1, 2
        expected = (2.0 - 1.0) ** 2 + (1.0 - 2.0) ** 2 + (2.0 - 4.0) ** 2 + (4.0 - 8.0) ** 2
        assert _cv_errors(z, values, 1e-3).tolist() == [expected] * 5
        assert reference_cv_errors(z, values, family(1e-3)) == [expected] * 5
        # input order decides the tie, not sorted order: point 2 (at 0.25) has
        # neighbours 0 (at 0.5) and 1 (at 0.0), and 1 comes first once sorted
        z = np.array([0.5, 0.0, 0.25])
        values = np.array([1.0, 2.0, 4.0])
        expected = (1.0 - 4.0) ** 2 + (2.0 - 4.0) ** 2 + (4.0 - 1.0) ** 2
        assert _cv_errors(z, values, 1e-4).tolist() == [expected] * 5
        assert reference_cv_errors(z, values, family(1e-4)) == [expected] * 5

    def test_memory_is_linear_in_the_sample(self):
        """The chunked per-candidate loop held 512 x 5000 temporaries of 20 MiB each."""
        rng = rng_from(20)
        z = rng.random(5000)
        values = np.sin(6.0 * z) + 0.1 * rng.standard_normal(5000)
        tracemalloc.start()
        try:
            cv_bandwidth(z, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_guards(self):
        with pytest.raises(EstimationError, match="at least 3"):
            cv_bandwidth(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(EstimationError, match="no spread"):
            cv_bandwidth(np.zeros(5), np.arange(5.0))
        with pytest.raises(EstimationError, match="sd overflows"):
            cv_bandwidth(np.array([-1e300, 1e300, -1e300, 1e300]), np.arange(4.0))
        with pytest.raises(EstimationError, match="no bandwidth candidate has a finite error"):
            cv_bandwidth(np.linspace(0, 1, 6), np.array([1e300, -1e300] * 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["z", "values"])
    def test_non_finite_input(self, where, bad):
        """One NaN value once ended in TypeError."""
        arrays = {"z": np.linspace(0.0, 1.0, 8), "values": np.arange(8.0)}
        arrays[where][3] = bad
        with pytest.raises(EstimationError, match="finite"):
            cv_bandwidth(arrays["z"], arrays["values"])


class TestRatioRegress:
    """Pointwise ratio correction of the smoothed unlabeled score curve."""

    def test_unlabeled_scores_at_mu0_give_the_zero_curve(self):
        data = covariate_dataset(np.linspace(0, 1, 30), np.zeros(30))
        curve = ratio_regress(data, SCORE, np.linspace(0, 1, 11))
        np.testing.assert_allclose(curve.values, 0.0, atol=1e-12)
        assert curve.method == "ratio"

    def test_unlabeled_scores_at_mu1_give_the_unit_curve(self):
        data = covariate_dataset(np.linspace(0, 1, 30), np.ones(30))
        curve = ratio_regress(data, SCORE, np.linspace(0, 1, 11))
        np.testing.assert_allclose(curve.values, 1.0, atol=1e-12)

    def test_midpoint_scores_give_the_half_curve(self):
        data = covariate_dataset(np.linspace(0, 1, 30), np.full(30, 0.5))
        curve = ratio_regress(data, SCORE, np.linspace(0, 1, 11))
        np.testing.assert_allclose(curve.values, 0.5, atol=1e-12)

    def test_two_plateau_recovery(self):
        """Scores at mu0 for small z and mu1 for large z produce a curve near
        zero on the left plateau and near one on the right."""
        z = np.concatenate([np.linspace(0, 0.4, 25), np.linspace(0.6, 1.0, 25)])
        g = np.concatenate([np.zeros(25), np.ones(25)])
        data = covariate_dataset(z, g)
        curve = ratio_regress(data, SCORE, np.array([0.05, 0.95]), bandwidth=0.05)
        assert curve.values[0] < 0.05
        assert curve.values[1] > 0.95

    def test_default_bandwidth_rule(self):
        z = np.linspace(0, 1, 40)
        data = covariate_dataset(z, np.full(40, 0.25))
        curve = ratio_regress(data, SCORE, np.linspace(0, 1, 5))
        np.testing.assert_allclose(
            curve.bandwidth, float(np.std(z, ddof=1)) * 40 ** (-0.2)
        )

    def test_cv_bandwidth_path(self):
        rng = rng_from(15)
        z = np.linspace(0, 1, 60)
        g = np.clip(0.5 + 0.3 * np.sin(2 * np.pi * z) + 0.05 * rng.standard_normal(60), 0, 1)
        data = covariate_dataset(z, g)
        curve = ratio_regress(data, SCORE, np.linspace(0, 1, 7), bandwidth="cv")
        assert curve.bandwidth == cv_bandwidth(z, g)

    def test_values_are_clamped(self):
        z = np.linspace(0, 1, 20)
        data = covariate_dataset(z, np.concatenate([np.full(10, -2.0), np.full(10, 3.0)]))
        curve = ratio_regress(data, SCORE, np.linspace(0, 1, 9), bandwidth=0.05)
        assert np.all((curve.values >= 0.0) & (curve.values <= 1.0))

    def test_curve_rows(self):
        data = covariate_dataset(np.linspace(0, 1, 10), np.full(10, 0.5))
        curve = ratio_regress(data, SCORE, np.array([0.2, 0.8]))
        rows = curve.rows()
        assert rows[0][0] == 0.2 and rows[1][0] == 0.8
        np.testing.assert_allclose([value for _, value in rows], 0.5, atol=1e-12)

    def test_guards(self):
        data = covariate_dataset(np.linspace(0, 1, 10), np.full(10, 0.5))
        grid = np.linspace(0, 1, 5)
        with pytest.raises(EstimationError, match="strictly increasing"):
            ratio_regress(data, SCORE, np.array([0.5, 0.5]))
        with pytest.raises(EstimationError, match="nonempty and finite"):
            ratio_regress(data, SCORE, np.array([]))
        with pytest.raises(EstimationError, match="nonempty and finite"):
            ratio_regress(data, SCORE, np.array([0.0, np.inf]))
        with pytest.raises(EstimationError, match="number or 'cv'"):
            ratio_regress(data, SCORE, grid, bandwidth="auto")

        flat = covariate_dataset(np.linspace(0, 1, 10), np.full(10, 0.5),
                                 class0=(0.5, 0.5), class1=(0.5, 0.5))
        with pytest.raises(EstimationError, match="separability"):
            ratio_regress(flat, SCORE, grid)

        no_z = RawDataset(
            features=[[0.0], [1.0], [0.5]], labels=[0, 1, -1], set_indicator=[1, 1, 0]
        )
        with pytest.raises(EstimationError, match="covariate"):
            ratio_regress(no_z, SCORE, grid)

        one_class = RawDataset(features=[[0.0], [0.1], [0.5], [0.6]], labels=[0, 0, -1, -1],
                               set_indicator=[1, 1, 0, 0], covariate=[0.0, 0.0, 0.2, 0.8])
        with pytest.raises(EstimationError, match="class 1 has no labeled rows"):
            ratio_regress(one_class, SCORE, grid)


class Overflowing(ExternalScore):
    """A score that is infinite on every row."""

    def scores(self, features):
        return np.full_like(super().scores(features), np.inf)


@pytest.mark.parametrize("regress, op", [(ratio_regress, "ratio_estimate"),
                                         (cc_regress, "cc_regress")], ids=["ratio", "cc"])
def test_score_columns_and_values_are_checked_before_the_bandwidth_search(regress, op,
                                                                          monkeypatch):
    """A curve needs one finite score column (and cc a threshold) before it searches."""
    monkeypatch.setattr(regression, "cv_bandwidth", lambda *args: pytest.fail("searched"))
    data = covariate_dataset(np.linspace(0, 1, 10), np.linspace(0.1, 0.9, 10))
    data = RawDataset(features=np.column_stack([data.features, data.features]), labels=data.labels,
                      set_indicator=data.set_indicator, covariate=data.covariate)
    grid = np.linspace(0, 1, 5)
    with pytest.raises(EstimationError, match=f"{op} needs a single score column, got 2"):
        regress(data, ExternalScore(columns=(0, 1)), grid, bandwidth="cv")
    with pytest.raises(DataError, match="scores contain non-finite values"):
        regress(data, Overflowing(columns=(0,)), grid, bandwidth="cv")
    if regress is cc_regress:
        with pytest.raises(EstimationError, match="the cc threshold must be a number, got nan"):
            regress(data, SCORE, grid, threshold=math.nan, bandwidth="cv")


class TestCcRegress:
    def test_all_scores_above_the_threshold(self):
        data = covariate_dataset(np.linspace(0, 1, 20), np.full(20, 0.9))
        curve = cc_regress(data, SCORE, np.linspace(0, 1, 7), threshold=0.5)
        np.testing.assert_allclose(curve.values, 1.0, atol=1e-12)
        assert curve.method == "cc"

    def test_matches_ratio_correction_for_binary_scores(self):
        """With group means 0 and 1 and indicator scores the two curves agree."""
        rng = rng_from(18)
        z = np.sort(rng.random(50))
        g = (rng.random(50) < np.clip(z, 0.1, 0.9)).astype(float)
        data = covariate_dataset(z, g)
        grid = np.linspace(0.05, 0.95, 13)
        ratio = ratio_regress(data, SCORE, grid, bandwidth=0.2)
        cc = cc_regress(data, SCORE, grid, threshold=0.5, bandwidth=0.2)
        np.testing.assert_allclose(cc.values, ratio.values, atol=1e-12)

    def test_scores_independent_of_z_flatten(self):
        rng = rng_from(19)
        z = rng.random(400)
        g = (rng.random(400) < 0.4).astype(float)
        data = covariate_dataset(z, g)
        curve = cc_regress(data, SCORE, np.linspace(0.1, 0.9, 17), threshold=0.5)
        assert curve.values.max() - curve.values.min() < 0.25
        assert abs(curve.values.mean() - 0.4) < 0.1

    def test_cv_bandwidth_is_chosen_on_the_smoothed_indicator(self):
        """The curve smooths 1{g > threshold}, so cross-validation predicts that, not g;
        on these data the two choices differ."""
        rng = rng_from(20)
        z = rng.random(500)
        g = z + rng.normal(size=500)
        curve = cc_regress(covariate_dataset(z, g), SCORE, np.linspace(0, 1, 5), threshold=0.0,
                           bandwidth="cv")
        assert curve.bandwidth == cv_bandwidth(z, (g > 0.0).astype(float))
        assert curve.bandwidth != cv_bandwidth(z, g)


class TestSineScenarioSmoke:
    def test_single_seed_curve_recovery(self):
        """Well separated classes let the corrected curve track the sine."""
        spec = ScenarioSpec(kind="regression_sine", n_unlabeled=1000, n_class=(500, 500),
                            mean0=-2.0, mean1=2.0)
        data = generate(spec, seed=52)
        grid = np.linspace(0.0, 1.0, 101)
        curve = ratio_regress(data, SCORE, grid)
        truth = 0.5 * (np.sin(2.0 * np.pi * grid) + 1.0)
        mise = float(np.mean((curve.values - truth) ** 2))
        assert mise < 0.03
