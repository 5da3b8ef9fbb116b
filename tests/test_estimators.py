"""Estimator tests: ratio, baselines, variance/CI, simplex, EM, combination."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quantify import (
    EstimationError,
    RawDataset,
    ScoredDataset,
    ThetaEstimate,
    classify_and_count,
    combined_estimate,
    em_estimate,
    empirical_mse,
    fit_logistic,
    multiclass_ratio,
    project_simplex,
    ratio_ci,
    ratio_estimate,
    ratio_variance,
    rng_from,
    t_statistic,
)


# Derandomized, so every run checks the same examples and tier-1 stays deterministic.
EXACTNESS = settings(derandomize=True, database=None, deadline=None, max_examples=300)
SCORE_GROUP = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40).map(np.array)
EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal


def mean_error(values) -> float:
    """A bound on |computed mean - exact mean| of ``values``, summed in any order.

    A sum of n doubles in any order is off by at most gamma_(n-1) sum |x|, with
    gamma_k = k u / (1 - k u) and u = eps / 2, and dividing by n adds u relative
    error, or half a subnormal below the normal range.  For the n <= 40 values
    drawn here, n eps mean |x| plus one subnormal covers both with room to spare.
    """
    values = np.asarray(values, dtype=float)
    return values.size * EPS * float(np.mean(np.abs(values))) + TINY


def ratio_error(est, errors) -> float:
    """A first-order bound on |est.theta_raw - theta*|, where theta* is the ratio of
    the exact group means and ``errors`` bound how far est's unlabeled, class-0 and
    class-1 means are from those.

    theta = (m - mu0) / d with d = mu1 - mu0 moves by 1/d, (theta - 1)/d and -theta/d
    per unit change of m, mu0 and mu1.  Its two subtractions and its division each
    round once, which adds at most 3u |theta|, or a subnormal if the quotient underflows.
    """
    e_u, e_0, e_1 = errors
    theta = est.theta_raw
    spread = e_u + abs(theta - 1.0) * e_0 + abs(theta) * e_1
    return spread / abs(est.denominator) + 1.5 * EPS * abs(theta) + TINY


def scored(unlabeled, class0, class1) -> ScoredDataset:
    return ScoredDataset(unlabeled=np.asarray(unlabeled, dtype=float),
                         classes=(np.asarray(class0, dtype=float),
                                  np.asarray(class1, dtype=float)))


EIGHT = scored([0.2, 0.8, 0.8, 0.6], [0.1, 0.3], [0.7, 0.9])

# Group statistics mu0=0, mu1=1, var0=var1=0.25 (1/n normalization),
# unlabeled mean exactly halfway between the class means.
HALFWAY = scored([0.5], [-0.5, 0.5], [0.5, 1.5])


@pytest.mark.parametrize("call", [
    ratio_estimate,
    classify_and_count,
    em_estimate,
    multiclass_ratio,
    lambda rows: empirical_mse(rows, theta=0.5),
    t_statistic,
], ids=["ratio", "cc", "em", "multiclass", "empirical_mse", "t_statistic"])
@pytest.mark.parametrize("empty, message", [
    (0, "no unlabeled rows to quantify"),
    (1, "class 0 has no labeled rows"),
    (2, "class 1 has no labeled rows"),
], ids=["unlabeled", "class0", "class1"])
def test_an_empty_group_is_refused(call, empty, message):
    """Every estimator needs rows in each group; the scored data refuse an empty one."""
    blocks = [[0.5, 0.6], [0.2, 0.4], [0.6, 0.8]]
    blocks[empty] = []
    with pytest.raises(EstimationError, match=message):
        call(scored(*blocks))


class TestRatioEstimate:
    """The one-dimensional moment estimator and its bookkeeping."""

    def test_hand_computed_case(self):
        est = ratio_estimate(EIGHT)
        np.testing.assert_allclose(est.theta_raw, (0.6 - 0.2) / (0.8 - 0.2))
        np.testing.assert_allclose(est.theta, 2.0 / 3.0)
        np.testing.assert_allclose([est.mu0, est.mu1], [0.2, 0.8])
        np.testing.assert_allclose(est.mean_unlabeled, 0.6)
        np.testing.assert_allclose(est.denominator, 0.6)
        assert est.method == "ratio"

    def test_unlabeled_mean_at_mu0_gives_zero(self):
        est = ratio_estimate(scored([0.2, 0.2], [0.1, 0.3], [0.7, 0.9]))
        assert est.theta == 0.0
        assert est.theta_raw == 0.0

    def test_trimming_at_the_upper_boundary(self):
        est = ratio_estimate(scored([0.9], [0.2, 0.2], [0.8, 0.8]))
        np.testing.assert_allclose(est.theta_raw, 7.0 / 6.0)
        assert est.theta == 1.0

    def test_trimming_below_zero(self):
        est = ratio_estimate(scored([0.0], [0.2, 0.2], [0.8, 0.8]))
        assert est.theta == 0.0
        assert est.theta_raw < 0.0

    def test_separability_guard_carries_the_denominator(self):
        with pytest.raises(EstimationError, match="separability violated"):
            ratio_estimate(scored([0.5], [0.4, 0.6], [0.6, 0.4]))

    @pytest.mark.parametrize("group, blocks", [
        ("class 0", ([0.5], [1.7e308, 1.7e308], [0.0, 1.0])),
        ("class 1", ([0.5], [0.0, 1.0], [-1.7e308, -1.7e308])),
        ("unlabeled", ([1.7e308, 1.7e308], [0.0, 0.2], [1.0, 0.9])),
    ])
    def test_a_mean_whose_sum_overflows_is_refused(self, group, blocks):
        """Finite scores of 1.7e308 sum to inf: a NaN denominator once gave theta 0.0."""
        with pytest.raises(EstimationError, match=f"^the {group} score mean is not finite"):
            ratio_estimate(scored(*blocks))

    def test_fisher_consistency_on_exact_mixtures(self):
        """Unlabeled groups mixed in exact proportion recover theta exactly.

        Concatenating a copies of the class-0 sample with b copies of the
        class-1 sample makes the unlabeled mean exactly the (b/(a+b))-mixture
        of the group means, so theta_raw must equal b/(a+b) to round-off.
        """
        rng = rng_from(17)
        for _ in range(50):
            g0 = rng.normal(0.0, 1.0, rng.integers(2, 40))
            g1 = rng.normal(2.0, 1.0, rng.integers(2, 40))
            a, b = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            unlabeled = np.concatenate([np.tile(g0, a), np.tile(g1, b)])
            theta = b * g1.size / (a * g0.size + b * g1.size)
            # weight by group sizes: the mean of the concatenation is the
            # size-weighted mixture of the two group means
            est = ratio_estimate(scored(unlabeled, g0, g1))
            weight1 = b * g1.size / unlabeled.size
            np.testing.assert_allclose(est.theta_raw, weight1, atol=1e-12)
            assert theta == weight1

    def test_affine_invariance(self):
        """Rescaling and shifting every score leaves theta_raw unchanged."""
        rng = rng_from(23)
        for _ in range(50):
            g0 = rng.normal(0.0, 1.0, 20)
            g1 = rng.normal(3.0, 1.0, 25)
            gu = rng.normal(1.0, 1.5, 30)
            base = ratio_estimate(scored(gu, g0, g1)).theta_raw
            a = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
            b = rng.uniform(-10.0, 10.0)
            moved = ratio_estimate(scored(a * gu + b, a * g0 + b, a * g1 + b)).theta_raw
            np.testing.assert_allclose(moved, base, atol=1e-12)

    @EXACTNESS
    @given(SCORE_GROUP, SCORE_GROUP, SCORE_GROUP, st.floats(-5.0, 5.0))
    def test_an_indicator_score_gives_adjusted_classify_and_count(self, gu, g0, g1, t):
        """On the score 1{g > t} the class means are the false and true positive
        rates, so the ratio estimate is (cc - fpr) / (tpr - fpr), bit for bit."""
        fpr, tpr = np.mean(g0 > t), np.mean(g1 > t)
        assume(fpr != tpr)
        cc = classify_and_count(scored(gu, g0, g1), threshold=t).theta
        est = ratio_estimate(scored(gu > t, g0 > t, g1 > t))
        assert est.theta_raw == (cc - fpr) / (tpr - fpr)

    @EXACTNESS
    @given(SCORE_GROUP, SCORE_GROUP, SCORE_GROUP)
    def test_swapping_the_labels_maps_theta_to_one_minus_theta(self, gu, g0, g1):
        """Both estimates divide differences of the same doubles m, mu0 and mu1, and
        fl(mu0 - mu1) = -fl(mu1 - mu0).  With p = (m - mu0) / (mu1 - mu0) and
        q = (mu1 - m) / (mu1 - mu0), p + q = 1.  The two numerators, the two
        quotients, the shared denominator and this test's sum are each rounded
        once, by a factor 1 + d with |d| <= eps/2, so to first order
        |theta + theta' - 1| <= eps * (1 + |p| + |q|); the bound doubles that to
        cover the higher-order terms."""
        assume(abs(g1.mean() - g0.mean()) > 1e-8)  # the separability check's default bound
        est = ratio_estimate(scored(gu, g0, g1))
        swapped = ratio_estimate(scored(gu, g1, g0))
        assert (swapped.mu0, swapped.mu1) == (est.mu1, est.mu0)
        spread = (abs(est.mean_unlabeled - est.mu0) + abs(est.mu1 - est.mean_unlabeled)) / abs(
            est.mu1 - est.mu0)
        assert abs(est.theta_raw + swapped.theta_raw - 1.0) <= 2 * EPS * (1 + spread)

    @EXACTNESS
    @given(SCORE_GROUP, SCORE_GROUP, SCORE_GROUP, st.integers(0, 2), st.data())
    def test_permuting_the_rows_of_one_group_moves_theta_by_at_most_the_bound(
            self, gu, g0, g1, group, data):
        """Row order only changes the order in which a group's mean is summed.  The
        estimate of each order is within :func:`ratio_error` of the one theta of the
        exact means, so the two are within the sum of their bounds; the bound doubles
        that sum to cover the higher-order terms."""
        groups = [gu, g0, g1]
        moved = list(groups)
        moved[group] = groups[group][data.draw(st.permutations(range(groups[group].size)))]
        assume(min(abs(g1.mean() - g0.mean()), abs(moved[2].mean() - moved[1].mean())) > 1e-8)
        est = ratio_estimate(scored(*groups))
        permuted = ratio_estimate(scored(*moved))
        errors = [mean_error(g) for g in groups]
        bound = 2 * (ratio_error(est, errors) + ratio_error(permuted, errors))
        assert abs(permuted.theta_raw - est.theta_raw) <= bound

    @EXACTNESS
    @given(SCORE_GROUP, SCORE_GROUP, SCORE_GROUP, st.floats(0.01, 100.0), st.booleans(),
           st.floats(-100.0, 100.0))
    def test_an_affine_map_of_the_score_moves_theta_by_at_most_the_bound(
            self, gu, g0, g1, scale, flip, shift):
        """In exact arithmetic a g + b has the same theta as g for any a != 0.  The
        computed map fl(fl(a g) + b) rounds each value twice, by at most
        u (|a g| + |a g + b|), so a mapped group's computed mean is within
        mean_error(a g + b) + eps mean(|a g| + |a g + b|) of a m + b, m the exact mean
        of g.  Each estimate is then within :func:`ratio_error` of the one exact theta,
        and the bound doubles the sum of the two to cover the higher-order terms."""
        a = -scale if flip else scale
        groups = [gu, g0, g1]
        mapped = [a * g + shift for g in groups]
        assume(min(abs(g1.mean() - g0.mean()), abs(mapped[2].mean() - mapped[1].mean())) > 1e-8)
        est = ratio_estimate(scored(*groups))
        moved = ratio_estimate(scored(*mapped))
        errors = [mean_error(g) for g in groups]
        mapped_errors = [mean_error(y) + EPS * float(np.mean(np.abs(a * g) + np.abs(y)))
                         for g, y in zip(groups, mapped)]
        bound = 2 * (ratio_error(est, errors) + ratio_error(moved, mapped_errors))
        assert abs(moved.theta_raw - est.theta_raw) <= bound

    def test_requires_single_score_column(self):
        two_col = ScoredDataset(
            unlabeled=np.zeros((3, 2)), classes=(np.ones((2, 2)), np.full((2, 2), 2.0))
        )
        with pytest.raises(EstimationError, match="single score column"):
            ratio_estimate(two_col)

    def test_requires_unlabeled_scores(self):
        with pytest.raises(EstimationError, match="no unlabeled"):
            ratio_estimate(scored(np.empty(0), [0.1, 0.3], [0.7, 0.9]))

    def test_to_dict_layout(self):
        payload = ratio_estimate(EIGHT).to_dict()
        assert set(payload) == {"theta", "theta_raw", "method", "diagnostics"}
        assert payload["diagnostics"]["denominator"] == pytest.approx(0.6)


class TestClassifyAndCount:
    def test_three_quarters(self):
        est = classify_and_count(EIGHT, threshold=0.5)
        assert est.theta == 0.75
        assert est.method == "cc"

    def test_all_below_threshold(self):
        assert classify_and_count(EIGHT, threshold=1.5).theta == 0.0

    def test_minus_infinity_threshold(self):
        assert classify_and_count(EIGHT, threshold=-np.inf).theta == 1.0


class TestRatioVariance:
    """Normal-approximation variance in the dense and sparse regimes."""

    def test_dense_regime_frozen_value(self):
        est = ratio_estimate(HALFWAY)
        est = ratio_variance(replace(est, n0=100, n1=100, n_unlabeled=200), regime="dense")
        np.testing.assert_allclose(est.variance, 0.00375, atol=1e-15)

    def test_sparse_regime_frozen_value(self):
        est = ratio_estimate(HALFWAY)
        est = ratio_variance(replace(est, n0=100, n1=100, n_unlabeled=200), regime="sparse")
        np.testing.assert_allclose(est.variance, 0.00125, atol=1e-15)

    def test_sparse_is_zero_when_groups_are_constant(self):
        est = ratio_estimate(scored([0.5], [0.0, 0.0], [1.0, 1.0]))
        est = ratio_variance(replace(est, n0=2, n1=2, n_unlabeled=396), regime="sparse")
        assert est.variance == 0.0

    def test_dense_is_zero_for_constant_groups_at_the_boundary(self):
        """With zero group spread and theta in {0, 1} no term survives."""
        for unlabeled, target in (([0.0, 0.0], 0.0), ([1.0, 1.0], 1.0)):
            est = ratio_estimate(scored(unlabeled, [0.0, 0.0], [1.0, 1.0]))
            assert est.theta == target
            est = ratio_variance(replace(est, n0=10, n1=10, n_unlabeled=20), regime="dense")
            assert est.variance == 0.0

    def test_auto_switches_on_the_labeled_fraction(self):
        est = ratio_estimate(HALFWAY)
        dense = ratio_variance(replace(est, n0=100, n1=100, n_unlabeled=800), regime="dense")
        auto_dense = ratio_variance(replace(est, n0=100, n1=100, n_unlabeled=800))
        assert auto_dense.variance == dense.variance

        sparse = ratio_variance(replace(est, n0=200, n1=200, n_unlabeled=9600), regime="sparse")
        auto_sparse = ratio_variance(replace(est, n0=200, n1=200, n_unlabeled=9600))
        assert auto_sparse.variance == sparse.variance

    def test_positive_when_any_group_has_spread(self):
        rng = rng_from(31)
        for _ in range(20):
            g0 = rng.normal(0.0, 1.0, 20)
            g1 = rng.normal(3.0, 1.0, 20)
            gu = rng.normal(2.0, 1.0, 60)
            est = ratio_estimate(scored(gu, g0, g1))
            for regime in ("dense", "sparse"):
                out = ratio_variance(replace(est, n0=20, n1=20, n_unlabeled=60), regime=regime)
                assert out.variance > 0.0

    def test_count_validation(self):
        est = ratio_estimate(HALFWAY)
        with pytest.raises(EstimationError, match="counts"):
            ratio_variance(replace(est, n0=0, n1=200, n_unlabeled=200))
        with pytest.raises(EstimationError, match="unlabeled rows"):
            ratio_variance(replace(est, n0=100, n1=100, n_unlabeled=0), regime="dense")
        with pytest.raises(EstimationError, match="regime"):
            ratio_variance(replace(est, n0=100, n1=100, n_unlabeled=200), regime="exact")

    def test_needs_group_statistics(self):
        bare = classify_and_count(EIGHT)
        with pytest.raises(EstimationError, match="group statistics"):
            ratio_variance(replace(bare, n0=2, n1=2, n_unlabeled=4))

    def test_refuses_a_multiclass_estimate(self):
        """A simplex estimate has a prevalence vector and no binary group statistics."""
        rows = ScoredDataset(unlabeled=[[0.5, 0.5]],
                             classes=([[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]))
        with pytest.raises(EstimationError) as info:
            ratio_variance(multiclass_ratio(rows))
        assert str(info.value) == "estimate lacks the group statistics the variance needs"


class TestRatioCi:
    def test_frozen_interval(self):
        est = ratio_estimate(HALFWAY)
        est = ratio_variance(replace(est, n0=100, n1=100, n_unlabeled=200), regime="dense")
        lo, hi, level = ratio_ci(est, level=0.95).ci
        assert level == 0.95
        np.testing.assert_allclose([lo, hi], [0.38, 0.62], atol=1e-3)

    def test_zero_variance_degenerates_to_a_point(self):
        est = ratio_estimate(scored([0.5, 0.5], [0.0, 0.0], [1.0, 1.0]))
        est = ratio_variance(replace(est, n0=2, n1=2, n_unlabeled=396), regime="sparse")
        lo, hi, _ = ratio_ci(est).ci
        assert lo == hi == est.theta

    def test_width_grows_with_the_level(self):
        est = ratio_estimate(HALFWAY)
        est = ratio_variance(replace(est, n0=100, n1=100, n_unlabeled=200))
        widths = []
        for level in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
            lo, hi, _ = ratio_ci(est, level=level).ci
            widths.append(hi - lo)
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_interval_is_reported_unclipped(self):
        """Intervals may poke outside [0, 1]; clipping is the caller's call."""
        est = ratio_estimate(scored([0.05, 0.0, 0.1], [0.0, 0.1], [0.9, 1.0]))
        est = ratio_variance(replace(est, n0=2, n1=3, n_unlabeled=4995), regime="sparse")
        lo, _, _ = ratio_ci(est, level=0.999).ci
        assert lo < 0.0

    def test_guards(self):
        est = ratio_estimate(HALFWAY)
        with pytest.raises(EstimationError, match="no variance"):
            ratio_ci(est)
        est = ratio_variance(replace(est, n0=100, n1=100, n_unlabeled=200))
        with pytest.raises(EstimationError, match="level"):
            ratio_ci(est, level=1.0)


class TestEmpiricalMse:
    def test_frozen_value(self):
        """mu gap 1, both variances 0.25, theta 0.5, 50 + 50 labeled rows."""
        rows = scored(
            [0.5],
            np.tile([-0.5, 0.5], 25),
            np.tile([0.5, 1.5], 25),
        )
        np.testing.assert_allclose(empirical_mse(rows, theta=0.5), 0.0025, atol=1e-15)

    def test_zero_spread_gives_zero(self):
        rows = scored([0.4], [0.0, 0.0], [1.0, 1.0])
        assert empirical_mse(rows, theta=0.7) == 0.0

    def test_doubling_labeled_rows_halves_the_value(self):
        rng = rng_from(5)
        g0 = rng.normal(0.0, 1.0, 40)
        g1 = rng.normal(2.0, 1.0, 40)
        once = empirical_mse(scored([1.0], g0, g1), theta=0.4)
        twice = empirical_mse(scored([1.0], np.tile(g0, 2), np.tile(g1, 2)), theta=0.4)
        np.testing.assert_allclose(twice, once / 2.0, rtol=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(EstimationError, match="separability"):
            empirical_mse(scored([0.5], [0.2, 0.4], [0.4, 0.2]), theta=0.5)

    def test_a_third_class_is_refused_not_dropped(self):
        """The proxy is binary: a third class is refused, not silently left out."""
        three = ScoredDataset(unlabeled=np.array([[0.5]]),
                              classes=(np.array([[0.1], [0.2]]), np.array([[0.8], [0.9]]),
                                       np.array([[2.0], [3.0]])))
        with pytest.raises(EstimationError, match="empirical_mse is binary"):
            empirical_mse(three, theta=0.5)


class TestProjectSimplex:
    """Euclidean projection onto the probability simplex."""

    def test_feasible_point_is_fixed(self):
        np.testing.assert_allclose(project_simplex([0.2, 0.8]), [0.2, 0.8], atol=1e-15)

    def test_hand_computed_case(self):
        np.testing.assert_allclose(
            project_simplex([1.1, 0.2, -0.3]), [0.95, 0.05, 0.0], atol=1e-12
        )

    def test_constant_vector_maps_to_uniform(self):
        for size in (1, 2, 5, 9):
            np.testing.assert_allclose(
                project_simplex(np.full(size, 3.7)), np.full(size, 1.0 / size), atol=1e-12
            )

    def test_output_is_a_distribution_and_idempotent(self):
        rng = rng_from(2)
        for _ in range(200):
            v = rng.normal(0.0, 2.0, rng.integers(1, 8))
            p = project_simplex(v)
            assert np.all(p >= 0.0)
            np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)
            np.testing.assert_allclose(project_simplex(p), p, atol=1e-12)

    def test_matches_grid_search_oracle(self):
        """Exhaustive simplex-grid minimizer agrees within grid resolution."""
        steps = 200
        ii, jj = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        keep = ii + jj <= steps
        grid3 = np.column_stack(
            [ii[keep], jj[keep], steps - ii[keep] - jj[keep]]
        ) / float(steps)
        rng = rng_from(14)
        for _ in range(25):
            v = rng.normal(0.3, 1.0, 3)
            p = project_simplex(v)
            best = grid3[np.argmin(np.sum((grid3 - v) ** 2, axis=1))]
            assert np.linalg.norm(p - best) <= 2.0 / steps

    @EXACTNESS
    @given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12).map(np.array))
    def test_kkt_conditions(self, v):
        """The projection is p = max(v - tau, 0) for the one tau with sum p = 1.

        Where p_i > 0 it is fl(v_i - tau), so t_i = fl(v_i - p_i) is within
        u (|t_i| + p_i) of tau to first order; the test allows eps (|t_i| + p_i), and
        some tau must lie in every such interval and be at least each v_j with p_j = 0.
        With S the k entries above tau, tau comes from a running sum of S, off by at most
        (k - 1) u sum_S |v|, then a subtraction and a division, which move the sum of
        the k terms v_i - tau by 2u k |tau|; rounding each p_i adds u in total and
        summing them (n - 1) u.  So |sum p - 1| <= u (n + (k - 1) sum_S |v| + 2 k |tau|)
        to first order, which is n eps / 2 for entries near zero.  The test doubles it
        and takes k = n and S = all entries, which only widens it."""
        p = project_simplex(v)
        assert np.all(p >= 0.0)
        inside = p > 0.0
        t = v[inside] - p[inside]
        slack = EPS * (np.abs(t) + p[inside])
        lo, hi = np.max(t - slack), np.min(t + slack)
        assert lo <= hi
        assert np.all(v[~inside] <= hi)
        n = v.size
        assert abs(p.sum() - 1.0) <= EPS * (n + (n - 1) * np.abs(v).sum() + 2 * n * abs(hi))

    def test_rejects_non_finite_input(self):
        with pytest.raises(EstimationError, match="finite"):
            project_simplex([np.inf, 0.0])
        with pytest.raises(EstimationError, match="finite"):
            project_simplex([])


class TestMulticlassRatio:
    @pytest.mark.parametrize("group, blocks", [
        ("class 0", ([[0.5, 0.5]], [[1.7e308, 0.0], [1.7e308, 1.0]], [[0.0, 0.0], [1.0, 1.0]])),
        ("class 1", ([[0.5, 0.5]], [[0.0, 0.0], [1.0, 1.0]], [[0.0, -1.7e308], [1.0, -1.7e308]])),
        ("unlabeled", ([[0.5, 1.7e308], [0.5, 1.7e308]], [[0.0, 0.0], [1.0, 0.2]],
                       [[1.0, 0.0], [0.0, 0.9]])),
    ])
    def test_a_mean_whose_sum_overflows_is_refused(self, group, blocks):
        """Finite scores of 1.7e308 in one column sum to inf: the refusal once blamed
        the conditioning of the class-mean system, after a numpy overflow warning."""
        unlabeled, *classes = (np.array(block) for block in blocks)
        with pytest.raises(EstimationError, match=f"^the {group} score mean is not finite"):
            multiclass_ratio(ScoredDataset(unlabeled=unlabeled, classes=tuple(classes)))

    def test_identity_like_system(self):
        """Class score means forming the identity read the prior off directly."""
        rows = ScoredDataset(
            unlabeled=np.array([[0.25, 0.10], [0.25, 0.10]]),
            classes=(
                np.array([[1.0, 0.0], [1.0, 0.0]]),
                np.array([[0.0, 1.0], [0.0, 1.0]]),
                np.array([[0.0, 0.0], [0.0, 0.0]]),
            ),
        )
        result = multiclass_ratio(rows)
        np.testing.assert_allclose(result.theta_raw, [0.25, 0.10, 0.65], atol=1e-12)
        np.testing.assert_allclose(result.theta, [0.25, 0.10, 0.65], atol=1e-12)
        assert result.residual < 1e-12

    def test_binary_case_matches_ratio_estimate(self):
        rng = rng_from(41)
        for _ in range(20):
            g0 = rng.normal(0.0, 1.0, 30)
            g1 = rng.normal(3.0, 1.0, 25)
            gu = rng.normal(1.2, 1.1, 40)
            rows = scored(gu, g0, g1)
            single = ratio_estimate(rows)
            vector = multiclass_ratio(rows)
            np.testing.assert_allclose(vector.theta_raw[1], single.theta_raw, atol=1e-12)
            np.testing.assert_allclose(vector.theta_raw.sum(), 1.0, atol=1e-12)

    @EXACTNESS
    @given(SCORE_GROUP, SCORE_GROUP, SCORE_GROUP)
    def test_two_classes_match_ratio_estimate_within_the_bound(self, gu, g0, g1):
        """On two classes the system [mu0 mu1; 1 1] theta = [m; 1] is square, and its
        exact solution has theta_1 = (m - mu0) / (mu1 - mu0), the ratio estimate.

        The multiclass path computes its means along axis 0, so the bound counts
        :func:`ratio_error` against the theta of the exact means once per method.  The SVD
        least-squares solve is backward stable: for a system with zero residual, LAPACK's
        error bound is p(n) u 2 kappa ||theta||, kappa the condition number that
        multiclass_ratio keeps at most 1e8, with p(n) a modest function of n, taken as
        4 for n = 2.  The bound doubles the sum of the three to cover the
        higher-order terms."""
        assume(abs(g1.mean() - g0.mean()) > 1e-8)
        rows = scored(gu, g0, g1)
        try:
            vector = multiclass_ratio(rows)
        except EstimationError:
            assume(False)  # the class-mean system is too ill-conditioned to solve
        est = ratio_estimate(rows)
        errors = [mean_error(g) for g in (gu, g0, g1)]
        kappa = np.linalg.cond([[est.mu0, est.mu1], [1.0, 1.0]])
        solve = 4 * EPS * kappa * np.linalg.norm(vector.theta_raw)
        bound = 2 * (2 * ratio_error(est, errors) + solve)
        assert abs(vector.theta_raw[1] - est.theta_raw) <= bound

    def test_projection_and_residual_are_consistent(self):
        rows = scored([2.5, 2.5], [0.0, 0.0], [2.0, 2.0])
        result = multiclass_ratio(rows)
        assert result.theta_raw[1] > 1.0
        np.testing.assert_allclose(result.theta, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(
            result.residual, np.linalg.norm(result.theta_raw - result.theta), atol=1e-15
        )

    def test_ill_conditioned_system(self):
        rows = ScoredDataset(
            unlabeled=np.array([[0.5, 0.5]]),
            classes=(
                np.array([[0.5, 0.5]]),
                np.array([[0.5, 0.5]]),
                np.array([[0.5, 0.5]]),
            ),
        )
        with pytest.raises(EstimationError, match="ill-conditioned \\(cond ="):
            multiclass_ratio(rows)

    def test_dimension_shortfall(self):
        rows = ScoredDataset(
            unlabeled=np.array([[0.5]]),
            classes=(np.array([[0.1]]), np.array([[0.5]]), np.array([[0.9]])),
        )
        with pytest.raises(EstimationError, match="cannot identify"):
            multiclass_ratio(rows)


class TestEmEstimate:
    """Prior-adjustment EM fixed point on probability scores."""

    def test_scores_at_the_training_prior_are_a_fixed_point(self):
        rows = scored(np.full(10, 0.3), [0.2, 0.4], [0.6, 0.8])
        est = em_estimate(rows, theta_train=0.3)
        np.testing.assert_allclose(est.theta, 0.3, atol=1e-8)

    def test_near_deterministic_posteriors_count_the_ones(self):
        eps = 1e-9
        values = np.concatenate([np.full(3, 1.0 - eps), np.full(7, eps)])
        rows = scored(values, [0.2, 0.4], [0.6, 0.8])
        est = em_estimate(rows, theta_train=0.5)
        np.testing.assert_allclose(est.theta, 0.3, atol=1e-4)

    def test_recovers_the_generative_prevalence(self):
        """Logistic scores on a Gaussian two-class draw, theta = 0.3, n_U = 2000."""
        rng = rng_from(3)
        n_l, n_u, theta = 500, 2000, 0.3
        x_l = np.concatenate([rng.normal(-1, 1, n_l), rng.normal(1, 1, n_l)])
        count1 = int(round(theta * n_u))
        x_u = np.concatenate([rng.normal(-1, 1, n_u - count1), rng.normal(1, 1, count1)])
        data = RawDataset(
            features=np.concatenate([x_l, x_u]),
            labels=np.concatenate(
                [np.repeat([0, 1], n_l), -np.ones(n_u, dtype=int)]
            ),
            set_indicator=np.concatenate([np.ones(2 * n_l, int), np.zeros(n_u, int)]),
        )
        fit = fit_logistic(data)
        rows = scored(
            fit.scores(x_u.reshape(-1, 1)),
            fit.scores(x_l[:n_l].reshape(-1, 1)),
            fit.scores(x_l[n_l:].reshape(-1, 1)),
        )
        est = em_estimate(rows, theta_train=0.5)
        assert abs(est.theta - theta) < 0.05

    def test_training_prior_defaults_to_the_labeled_class1_share(self):
        rows = scored([0.3, 0.6, 0.9], [0.2], [0.6, 0.8, 0.7])
        assert em_estimate(rows) == em_estimate(rows, theta_train=0.75)

    def test_is_binary(self):
        rows = ScoredDataset(unlabeled=[0.5], classes=([0.2], [0.5], [0.8]))
        with pytest.raises(EstimationError, match="binary"):
            em_estimate(rows, theta_train=0.5)

    def test_requires_probability_scores(self):
        rows = scored([0.5, 1.0], [0.2], [0.8])
        with pytest.raises(EstimationError, match="probability scores"):
            em_estimate(rows, theta_train=0.5)

    def test_requires_interior_training_prevalence(self):
        rows = scored([0.5], [0.2], [0.8])
        with pytest.raises(EstimationError, match="training prevalence"):
            em_estimate(rows, theta_train=0.0)

    def test_iteration_budget(self, monkeypatch):
        monkeypatch.setattr("quantify.estimators._EM_MAX_ITER", 1)
        rows = scored([0.9, 0.9, 0.9, 0.1], [0.2], [0.8])
        with pytest.raises(EstimationError, match="did not converge in 1 iterations"):
            em_estimate(rows, theta_train=0.5)


class TestCombinedEstimate:
    """Convex blend of the ratio arm with a labeled target subsample."""

    def ratio_arm(self, theta=0.6, variance=0.075):
        return ThetaEstimate(
            theta=theta, theta_raw=theta, method="ratio", variance=variance
        )

    def test_quarter_weight_case(self):
        """mse_labels 0.025 vs mse_ratio 0.075 puts weight 1/4 on the ratio."""
        labels = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        result = combined_estimate(self.ratio_arm(), labels)
        np.testing.assert_allclose(result.mse_labels, 0.025)
        np.testing.assert_allclose(result.weight, 0.25)
        np.testing.assert_allclose(result.theta, 0.25 * 0.6 + 0.75 * 0.5)

    def test_equal_proxies_split_evenly(self):
        labels = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        result = combined_estimate(self.ratio_arm(variance=0.025), labels)
        np.testing.assert_allclose(result.weight, 0.5)

    def test_zero_variance_labels_dominate(self):
        result = combined_estimate(self.ratio_arm(), [1, 1, 1, 1])
        assert result.weight == 0.0
        assert result.theta == 1.0

    def test_both_proxies_zero_fall_back_to_half(self):
        result = combined_estimate(self.ratio_arm(variance=0.0), [1, 1])
        assert result.weight == 0.5
        np.testing.assert_allclose(result.theta, 0.5 * 0.6 + 0.5 * 1.0)

    def test_weight_minimizes_the_combined_error(self):
        """w^2 mse_r + (1-w)^2 mse_l over a dense grid bottoms out at the weight."""
        rng = rng_from(8)
        grid = np.linspace(0.0, 1.0, 10001)
        for _ in range(25):
            variance = float(rng.uniform(1e-4, 0.1))
            m = int(rng.integers(2, 50))
            labels = (rng.random(m) < rng.uniform(0.1, 0.9)).astype(int)
            result = combined_estimate(self.ratio_arm(variance=variance), labels)
            objective = grid**2 * result.mse_ratio + (1 - grid) ** 2 * result.mse_labels
            attained = (
                result.weight**2 * result.mse_ratio
                + (1 - result.weight) ** 2 * result.mse_labels
            )
            assert attained <= objective.min() + 1e-12

    def test_guards(self):
        with pytest.raises(EstimationError, match="at least one"):
            combined_estimate(self.ratio_arm(), [])
        with pytest.raises(EstimationError, match="0 or 1"):
            combined_estimate(self.ratio_arm(), [0.5])
        with pytest.raises(EstimationError, match="no variance"):
            combined_estimate(ratio_estimate(EIGHT), [1, 0])
