"""Mixture diagnostic tests: ECDF distance, KDE resampling, Monte Carlo p-value."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantify import (
    DataError,
    EstimationError,
    ScoredDataset,
    kde_fit,
    rng_from,
    shift_test,
    t_statistic,
)
from quantify.shift_test import _first_minimum

# Derandomized, so every run checks the same examples and tier-1 stays deterministic.
EXACTNESS = settings(derandomize=True, database=None, deadline=None, max_examples=400)


def scored(unlabeled, class0, class1) -> ScoredDataset:
    return ScoredDataset(unlabeled=np.asarray(unlabeled, dtype=float),
                         classes=(np.asarray(class0, dtype=float),
                                  np.asarray(class1, dtype=float)))


def ecdf_values(sample: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Right-continuous empirical CDF of ``sample`` evaluated at ``points``."""
    sample = np.sort(np.asarray(sample, dtype=float).ravel())
    if sample.size == 0:
        raise EstimationError("empty sample has no ECDF")
    return np.searchsorted(sample, points, side="right") / sample.size


def dense_t(g0, g1, gu, grid_size):
    """The full grid x points scan: the reference ``t_statistic`` must equal bit for bit."""
    points = np.unique(np.concatenate([g0, g1, gu]))
    f0 = ecdf_values(g0, points)
    f1 = ecdf_values(g1, points)
    fu = ecdf_values(gu, points)
    base = f0 - fu
    delta = f1 - f0
    weights = np.linspace(0.0, 1.0, grid_size)
    distances = np.max(np.abs(base[None, :] + weights[:, None] * delta[None, :]), axis=1)
    best = int(np.argmin(distances))
    return float(distances[best]), float(weights[best])


@st.composite
def score_samples(draw):
    """Class 0, class 1 and unlabeled scores of 1-60 values each.

    Values are gaussian or small integers (heavy ties); the groups are drawn
    independently (unlabeled from a mixture), with identical class samples
    (a flat distance, where ties must go to the smallest weight), or with
    the unlabeled sample a copy of one class.
    """
    sizes = [draw(st.integers(1, 60)) for _ in range(3)]
    tied = draw(st.booleans())
    relation = draw(st.sampled_from(["independent", "identical classes", "copy of class 0",
                                     "copy of class 1"]))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    if tied:
        levels = draw(st.integers(1, 5))
        g0, g1, gu = (rng.integers(0, levels, n).astype(float) for n in sizes)
    else:
        shift = rng.uniform(0.0, 3.0)
        g0 = rng.normal(0.0, 1.0, sizes[0])
        g1 = rng.normal(shift, 1.0, sizes[1])
        gu = rng.normal(0.0, 1.0, sizes[2]) + shift * (rng.random(sizes[2]) < rng.random())
    if relation == "identical classes":
        g1 = g0[rng.permutation(g0.size)]
    elif relation == "copy of class 0":
        gu = g0.copy()
    elif relation == "copy of class 1":
        gu = g1.copy()
    return g0, g1, gu


def oracle_t(g0, g1, gu, grid_size):
    """Brute-force double loop over the weight grid and all pooled points."""
    points = np.unique(np.concatenate([g0, g1, gu]))
    best_t, best_p = np.inf, None
    for p in np.linspace(0.0, 1.0, grid_size):
        worst = 0.0
        for w in points:
            f0 = np.mean(g0 <= w)
            f1 = np.mean(g1 <= w)
            fu = np.mean(gu <= w)
            worst = max(worst, abs(p * f1 + (1.0 - p) * f0 - fu))
        if worst < best_t:
            best_t, best_p = worst, p
    return best_t, best_p


class TestEcdfValues:
    def test_counting(self):
        sample = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(ecdf_values(sample, np.array([2.0])), [2.0 / 3.0])

    def test_boundaries(self):
        sample = np.array([1.0, 2.0, 3.0])
        points = np.array([0.5, 3.0, 9.0])
        np.testing.assert_allclose(ecdf_values(sample, points), [0.0, 1.0, 1.0])

    def test_ties(self):
        sample = np.array([1.0, 1.0, 2.0])
        np.testing.assert_allclose(ecdf_values(sample, np.array([1.0])), [2.0 / 3.0])

    def test_empty_sample(self):
        with pytest.raises(EstimationError, match="empty"):
            ecdf_values(np.empty(0), np.array([0.0]))


class TestTStatistic:
    """Best-mixture Kolmogorov distance on the pooled evaluation points."""

    def test_hand_case_with_the_minimizer_on_the_grid(self):
        """For {0,1} vs {2,3} vs {0,2} the distance max(p/2, |1/2-p|) bottoms
        out at p = 1/3 with value 1/6; a 4-point grid contains that weight."""
        rows = scored([0.0, 2.0], [0.0, 1.0], [2.0, 3.0])
        t, p_star = t_statistic(rows, grid_size=4)
        np.testing.assert_allclose(t, 1.0 / 6.0, atol=1e-12)
        np.testing.assert_allclose(p_star, 1.0 / 3.0, atol=1e-12)

    def test_unlabeled_copy_of_class1(self):
        rows = scored([2.0, 3.0], [0.0, 1.0], [2.0, 3.0])
        t, p_star = t_statistic(rows)
        assert t == 0.0
        assert p_star == 1.0

    def test_bounded_by_the_endpoint_distance(self):
        rng = rng_from(61)
        for _ in range(25):
            g0 = rng.normal(0.0, 1.0, rng.integers(3, 30))
            g1 = rng.normal(1.5, 1.0, rng.integers(3, 30))
            gu = rng.normal(rng.uniform(0, 2), 1.0, rng.integers(3, 40))
            rows = scored(gu, g0, g1)
            t, _ = t_statistic(rows)
            points = np.unique(np.concatenate([g0, g1, gu]))
            endpoint = np.max(np.abs(ecdf_values(g0, points) - ecdf_values(gu, points)))
            assert t <= endpoint + 1e-12

    def test_matches_the_brute_force_oracle(self):
        rng = rng_from(62)
        for _ in range(15):
            g0 = rng.normal(0.0, 1.0, rng.integers(2, 12))
            g1 = rng.normal(2.0, 1.0, rng.integers(2, 12))
            gu = rng.normal(1.0, 1.2, rng.integers(2, 15))
            grid_size = int(rng.integers(2, 30))
            t, p_star = t_statistic(scored(gu, g0, g1), grid_size=grid_size)
            t_ref, p_ref = oracle_t(g0, g1, gu, grid_size)
            np.testing.assert_allclose(t, t_ref, atol=1e-12)
            assert abs(p_star - p_ref) <= 1.0 / (grid_size - 1) + 1e-12

    @EXACTNESS
    @given(samples=score_samples(), grid_size=st.sampled_from([2, 3, 4, 11, 201, 1001]))
    def test_equals_the_dense_grid_scan(self, samples, grid_size):
        g0, g1, gu = samples
        fast = t_statistic(scored(gu, g0, g1), grid_size=grid_size)
        assert fast == dense_t(g0, g1, gu, grid_size)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_non_finite_scores_are_refused(self, value, block):
        """A NaN would sort above every score and give a finite statistic."""
        blocks = [[0.2, 0.8, 0.6], [0.1, 0.3], [0.7, 0.9]]
        blocks[block][1] = value
        with pytest.raises(DataError, match="^scores contain non-finite values$"):
            scored(*blocks)

    @EXACTNESS
    @given(size=st.integers(2, 300), centre=st.floats(0.0, 1.0), flat=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_rounding_guard_finds_the_first_minimum(self, size, centre, flat, seed):
        """Noise as large as the slope puts false minima beside the true one;
        with tol >= 4 x the noise the search still returns the first argmin."""
        steps = np.abs(np.arange(size) - centre * size) - flat
        values = 1e-3 * np.maximum(steps, 0.0) + 1e-3 * rng_from(seed).uniform(-1.0, 1.0, size)
        found = _first_minimum(lambda start, stop: values[start:stop], size, tol=5e-3)
        assert found == (int(np.argmin(values)), float(values.min()))

    def test_memory_is_linear_in_the_pooled_sample(self):
        """A grid x points matrix at n_u = 10 000 and G = 1001 would take 159 MiB."""
        rng = rng_from(63)
        rows = scored(rng.normal(1.0, 1.2, 10_000), rng.normal(0.0, 1.0, 150),
                      rng.normal(2.0, 1.0, 150))
        tracemalloc.start()
        try:
            t_statistic(rows, grid_size=1001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_ties_resolve_to_the_smallest_weight(self):
        """Identical class samples make every mixture equal; p_star is 0."""
        rows = scored([0.5, 1.5], [0.0, 1.0], [0.0, 1.0])
        _, p_star = t_statistic(rows)
        assert p_star == 0.0

    def test_two_point_grid(self):
        rows = scored([0.0, 2.0], [0.0, 1.0], [2.0, 3.0])
        t, p_star = t_statistic(rows, grid_size=2)
        t0, _ = oracle_t(np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([0.0, 2.0]), 2)
        np.testing.assert_allclose(t, t0, atol=1e-12)
        assert p_star in (0.0, 1.0)

    def test_guards(self):
        rows = scored([0.5], [0.0], [1.0])
        with pytest.raises(EstimationError, match="at least 2"):
            t_statistic(rows, grid_size=1)
        with pytest.raises(EstimationError, match="no unlabeled"):
            t_statistic(scored(np.empty(0), [0.0], [1.0]))
        with pytest.raises(EstimationError, match="empty sample"):
            t_statistic(scored([0.5], [0.0], np.empty(0)))
        wide = ScoredDataset(unlabeled=np.zeros((2, 2)),
                             classes=(np.zeros((2, 2)), np.ones((2, 2))))
        with pytest.raises(EstimationError, match="single binary score"):
            t_statistic(wide)


class TestKdeFit:
    """Rule-of-thumb bandwidth and the smoothed bootstrap sampler."""

    def test_silverman_bandwidth_hand_case(self):
        fitted = kde_fit(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        sd = np.std([1, 2, 3, 4, 5], ddof=1)
        expected = 0.9 * min(sd, 2.0 / 1.34) * 5 ** (-0.2)
        np.testing.assert_allclose(fitted.bandwidth, expected, atol=1e-15)

    def test_zero_spread_floors_the_bandwidth(self):
        fitted = kde_fit(np.array([3.0, 3.0, 3.0]))
        np.testing.assert_allclose(fitted.bandwidth, 1e-6 * 4.0)
        draws = fitted.sample(rng_from(0), 500)
        assert np.all(np.abs(draws - 3.0) < 5.0 * fitted.bandwidth)

    def test_sample_mean_tracks_the_data_mean(self):
        values = rng_from(11).standard_normal(1000)
        fitted = kde_fit(values)
        draws = fitted.sample(rng_from(99), 10000)
        assert abs(draws.mean() - values.mean()) < 0.1

    def test_needs_two_values(self):
        with pytest.raises(EstimationError, match="two values"):
            kde_fit(np.array([1.0]))


class TestShiftTest:
    """Monte Carlo calibration of the mixture statistic."""

    def null_rows(self, seed=0, n=40, n_u=80, theta=0.4):
        """Scores drawn so the unlabeled block is a true two-point mixture."""
        rng = rng_from(seed, 7)
        count1 = int(round(theta * n_u))
        return scored(
            np.concatenate(
                [rng.normal(0.0, 1.0, n_u - count1), rng.normal(2.0, 1.0, count1)]
            ),
            rng.normal(0.0, 1.0, n),
            rng.normal(2.0, 1.0, n),
        )

    def test_deterministic(self):
        rows = self.null_rows()
        a = shift_test(rows, replicates=23, seed=5, grid_size=101)
        b = shift_test(rows, replicates=23, seed=5, grid_size=101)
        assert a == b

    def test_p_value_is_a_multiple_of_one_over_b(self):
        rows = self.null_rows(seed=3)
        result = shift_test(rows, replicates=19, seed=2, grid_size=101)
        scaled = result.p_value * 19
        np.testing.assert_allclose(scaled, round(scaled), atol=1e-9)
        assert 0.0 <= result.p_value <= 1.0

    def test_exact_copy_gets_p_value_one(self):
        rows = scored([0.1, 0.9, 0.4], [0.0, 0.2, 0.5], [0.1, 0.9, 0.4])
        result = shift_test(rows, replicates=31, seed=1, grid_size=101)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_gross_violation_is_rejected(self):
        """Unlabeled scores far outside both class laws leave no doubt."""
        rng = rng_from(13)
        rows = scored(
            rng.normal(20.0, 0.2, 50), rng.normal(0.0, 0.2, 25), rng.normal(5.0, 0.2, 25)
        )
        result = shift_test(rows, replicates=99, seed=4, grid_size=101)
        assert result.statistic > 0.5
        assert result.p_value <= 1.0 / 99.0

    def test_reported_weight_and_redraw_prevalence(self):
        rows = self.null_rows(seed=8)
        result = shift_test(rows, replicates=11, seed=6, grid_size=101)
        assert 0.0 <= result.p_star <= 1.0
        assert result.theta_hat == min(1.0, max(0.0, result.p_star))
        payload = result.to_dict()
        assert set(payload) == {
            "statistic",
            "p_star",
            "theta_hat",
            "p_value",
            "replicates",
            "bandwidth0",
            "bandwidth1",
            "seed",
        }
        assert payload["replicates"] == 11

    def test_null_p_values_are_not_anticonservative(self):
        """When the mixture assumption holds, small p-values stay rare.

        Twenty-five independent draws from a true mixture; with B = 79 the
        p-value should behave at least as heavily as uniform.
        """
        p_values = []
        for run in range(25):
            rows = self.null_rows(seed=100 + run, n=30, n_u=60)
            result = shift_test(rows, replicates=79, seed=run, grid_size=101)
            p_values.append(result.p_value)
        p_values = np.array(p_values)
        assert p_values.mean() >= 0.4
        assert np.mean(p_values <= 0.2) <= 0.4

    def test_guards(self):
        rows = self.null_rows()
        with pytest.raises(EstimationError, match="at least one"):
            shift_test(rows, replicates=0)
        single = scored([0.5, 0.7], [0.1], [0.9, 1.0])
        with pytest.raises(EstimationError, match="two values"):
            shift_test(single, replicates=5)
