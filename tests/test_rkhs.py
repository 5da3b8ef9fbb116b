"""Kernel score selection tests: Gram algebra, the rank-1 solve, gamma search."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantify import (
    DataError,
    EstimationError,
    KernelScore,
    KernelSpec,
    RawDataset,
    RkhsSelection,
    ScoredDataset,
    build_matrices,
    empirical_mse,
    median_bandwidth,
    select_g,
    solve_weights,
    stratified_split,
)
from quantify import rkhs
from quantify.core import _middle
from quantify.rkhs import DEFAULT_GAMMA_GRID, candidate_gammas

# Derandomized, so every run checks the same examples and tier-1 stays deterministic.
EXACTNESS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def labeled_dataset(features, labels) -> RawDataset:
    features = np.asarray(features, dtype=float)
    return RawDataset(
        features=features,
        labels=labels,
        set_indicator=np.ones(features.shape[0], dtype=int),
    )


def two_class_sample(seed: int = 6, n: int = 20, n_u: int = 30) -> RawDataset:
    """Well separated 1-d Gaussians, labeled halves plus an unlabeled mix."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(-2.0, 0.5, n)
    x1 = rng.normal(2.0, 0.5, n)
    xu = np.concatenate([rng.normal(-2.0, 0.5, n_u // 2), rng.normal(2.0, 0.5, n_u - n_u // 2)])
    return RawDataset(
        features=np.concatenate([x0, x1, xu]),
        labels=np.concatenate([np.zeros(n, int), np.ones(n, int), -np.ones(xu.size, int)]),
        set_indicator=np.concatenate([np.ones(2 * n, int), np.zeros(xu.size, int)]),
    )


def reference_squared_distances(x, z):
    """The earlier whole-array expression, with its n x m temporaries."""
    sq = np.sum(x**2, axis=1)[:, None] + np.sum(z**2, axis=1)[None, :] - 2.0 * (x @ z.T)
    np.clip(sq, 0.0, None, out=sq)
    return sq


def reference_median_bandwidth(x):
    """The earlier implementation: np.median over the sqrt of every i < j pair."""
    sq = reference_squared_distances(x, x)
    return float(np.median(np.sqrt(sq[np.triu_indices(x.shape[0], k=1)])))


def bits(arr):
    return np.asarray(arr, dtype=float).view(np.int64).tolist()


class TestKernelSpec:
    def test_linear_kernel_is_the_dot_product(self):
        k = KernelSpec(family="linear")
        x = np.array([[1.0, 2.0], [0.0, 1.0]])
        z = np.array([[3.0, -1.0]])
        np.testing.assert_allclose(k.matrix(x, z), [[1.0], [-1.0]])

    def test_linear_kernel_reads_no_bandwidth(self):
        with pytest.raises(EstimationError, match="the linear kernel reads no bandwidth, got 1.0"):
            KernelSpec(family="linear", bandwidth=1.0)

    def test_gaussian_kernel_hand_values(self):
        k = KernelSpec(family="gaussian", bandwidth=1.0)
        x = np.array([[0.0], [2.0]])
        expected = [[1.0, np.exp(-2.0)], [np.exp(-2.0), 1.0]]
        np.testing.assert_allclose(k.matrix(x, x), expected, atol=1e-15)

    def test_gaussian_bandwidth_scaling(self):
        wide = KernelSpec(family="gaussian", bandwidth=2.0)
        x = np.array([[0.0]])
        z = np.array([[2.0]])
        np.testing.assert_allclose(wide.matrix(x, z), [[np.exp(-0.5)]])

    @pytest.mark.parametrize("same", [False, True])
    def test_gaussian_gram_has_the_whole_array_bits(self, same):
        """Built in place a block of rows at a time, across block edges."""
        rng = np.random.default_rng(8)
        block = rkhs._GRAM_ROWS
        anchors = rng.normal(size=(70, 3))
        for rows in (1, block - 1, block, block + 1, 2 * block + 3):
            x = rng.normal(size=(rows, 3)) * rng.choice([1e-3, 1.0, 30.0])
            z = x if same else anchors
            k = KernelSpec(family="gaussian", bandwidth=0.7)
            expected = np.exp(-reference_squared_distances(x, z) / (2.0 * 0.7**2))
            assert bits(k.matrix(x, z)) == bits(expected)

    def test_kernel_scores_hold_one_gram_matrix(self):
        """7000 x 1000 scores: one n x m array (53.4 MiB) plus block temporaries;
        the whole-array expression held two."""
        rng = np.random.default_rng(9)
        features = rng.normal(size=(7000, 4))
        score = KernelScore(weights=rng.normal(size=1000), anchors=features[:1000].copy(),
                            kernel=KernelSpec(family="gaussian", bandwidth=1.3))
        tracemalloc.start()
        try:
            score.scores(features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7000 * 1000 * 8 + 4 * 2**20

    def test_unknown_family(self):
        with pytest.raises(DataError, match="unknown kernel family"):
            KernelSpec(family="polynomial")

    def test_nonpositive_bandwidth(self):
        """A statistical refusal (exit 2), as the out-of-range 2 h^2 one; a selection
        file that holds such a bandwidth is still malformed input (exit 1)."""
        for bandwidth in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(EstimationError, match=f"positive and finite, got {bandwidth}"):
                KernelSpec(family="gaussian", bandwidth=bandwidth)

    def test_gaussian_needs_a_resolved_bandwidth(self):
        k = KernelSpec(family="gaussian")
        with pytest.raises(EstimationError, match="bandwidth"):
            k.matrix(np.zeros((2, 1)), np.zeros((2, 1)))

    def test_serialization_round_trip(self):
        k = KernelSpec(family="gaussian", bandwidth=0.8)
        assert KernelSpec.from_dict(k.to_dict()) == k


class TestMedianBandwidth:
    def test_three_points(self):
        """Pairwise distances of {0, 1, 3} are {1, 2, 3}; the median is 2."""
        np.testing.assert_allclose(median_bandwidth([[0.0], [1.0], [3.0]]), 2.0)

    def test_degenerate_features(self):
        with pytest.raises(EstimationError, match="degenerate"):
            median_bandwidth([[1.0], [1.0], [1.0]])

    def test_needs_two_points(self):
        with pytest.raises(EstimationError, match="two points"):
            median_bandwidth([[1.0]])

    @pytest.mark.parametrize("x", [[[1e300], [-1e300]], [[1e154, 1e154], [0.0, 0.0]],
                                   [[1e308], [1e308], [0.0]], [[8e153], [-8e153]]])
    def test_overflowing_distances_are_refused_without_a_warning(self, x):
        """Each has a squared distance or a squared row norm past the largest float; in
        the last, twice the largest squared norm is finite but the distance, four times
        it, is not."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="squared pairwise distances of the "
                                                      "features overflow"):
                median_bandwidth(x)

    @EXACTNESS
    @given(st.integers(2, 60), st.sampled_from(["normal", "ties", "wide"]), st.integers(0, 2**32 - 1))
    @example(2, "normal", 0)
    @example(3, "normal", 0)
    @example(4, "ties", 0)
    def test_equals_the_triu_indices_median(self, n, layout, seed):
        """Odd and even pair counts (n = 2 and 3 have 1 and 3 pairs, n = 4 has 6)
        and tied distances from integer grids."""
        rng = np.random.default_rng(seed)
        if layout == "ties":
            x = rng.integers(0, 3, size=(n, 2)).astype(float)
        else:
            x = rng.normal(size=(n, 3)) * (1e100 if layout == "wide" else 1.0)
        expected = reference_median_bandwidth(x)
        if expected > 0.0:
            assert bits(median_bandwidth(x)) == bits(expected)
        else:
            with pytest.raises(EstimationError, match="degenerate"):
                median_bandwidth(x)


class TestMiddle:
    @EXACTNESS
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=30))
    def test_mean_is_np_median(self, values):
        values = np.array(values)
        with np.errstate(invalid="ignore", over="ignore"):
            assert bits(np.mean(_middle(values.copy()))) == bits(np.median(values))


class TestBuildMatrices:
    """Objective matrices from the labeled Gram matrix."""

    def test_linear_kernel_hand_case(self):
        """Gram of {0,1,2,3} is outer products; class means follow directly."""
        data = labeled_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
        out = build_matrices(data, KernelSpec(family="linear"), theta_pilot=0.5)
        np.testing.assert_allclose(out.mean0, [0.0, 0.5, 1.0, 1.5])
        np.testing.assert_allclose(out.mean1, [0.0, 2.5, 5.0, 7.5])
        np.testing.assert_allclose(out.mean1 - out.mean0, [0.0, 2.0, 4.0, 6.0], atol=1e-12)
        # both class covariances equal outer(v, v) with v = (0, .5, 1, 1.5),
        # and the 0.5^2 / 0.5 prevalence weights sum them back to one copy
        v = np.array([0.0, 0.5, 1.0, 1.5])
        np.testing.assert_allclose(out.n_spread, np.outer(v, v), atol=1e-12)

    def test_single_point_per_class(self):
        data = labeled_dataset([[1.0], [2.0]], [0, 1])
        out = build_matrices(data, KernelSpec(family="linear"), theta_pilot=0.5)
        np.testing.assert_allclose(out.mean0, [1.0, 2.0])
        np.testing.assert_allclose(out.mean1, [2.0, 4.0])
        np.testing.assert_allclose(out.mean1 - out.mean0, [1.0, 2.0])
        np.testing.assert_allclose(out.n_spread, 0.0, atol=1e-15)

    def test_identical_features_within_classes_zero_the_spread(self):
        data = labeled_dataset([[1.0], [1.0], [4.0], [4.0]], [0, 0, 1, 1])
        out = build_matrices(data, KernelSpec(family="linear"), theta_pilot=0.3)
        np.testing.assert_allclose(out.n_spread, 0.0, atol=1e-15)

    def test_separation_matrix_is_psd_of_rank_at_most_one(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            data = labeled_dataset(
                rng.standard_normal((n, 2)),
                np.concatenate([[0, 1], rng.integers(0, 2, n - 2)]),
            )
            out = build_matrices(
                data, KernelSpec(family="gaussian", bandwidth=1.0), float(rng.random())
            )
            diff = out.mean1 - out.mean0
            m_sep = np.outer(diff, diff)
            np.testing.assert_allclose(m_sep, m_sep.T, atol=1e-12)
            eigs = np.sort(np.linalg.eigvalsh(m_sep))
            assert eigs[0] > -1e-10
            assert np.all(np.abs(eigs[:-1]) < 1e-10)
            np.testing.assert_allclose(out.n_spread, out.n_spread.T, atol=1e-12)
            assert np.linalg.eigvalsh(out.n_spread)[0] > -1e-10

    def test_missing_class(self):
        data = RawDataset(
            features=[[0.0], [1.0], [2.0]], labels=[0, 0, 1], set_indicator=[1, 1, 0]
        )
        with pytest.raises(EstimationError, match="class 1 has no labeled rows"):
            build_matrices(data, KernelSpec(family="linear"), theta_pilot=0.5)

    def test_pilot_prevalence_must_be_a_probability(self):
        data = labeled_dataset([[0.0], [1.0]], [0, 1])
        with pytest.raises(EstimationError, match="pilot prevalence"):
            build_matrices(data, KernelSpec(family="linear"), theta_pilot=1.5)


class TestSolveWeights:
    """The regularized rank-1 generalized eigenproblem."""

    def test_identity_metric_returns_the_normalized_direction(self):
        v = np.array([3.0, 4.0])
        w = solve_weights(np.zeros((2, 2)), np.zeros(2), v, gamma=1.0)
        np.testing.assert_allclose(w, [0.6, 0.8], atol=1e-12)

    def test_diagonal_metric_hand_case(self):
        """(N + I) = diag(2, 1) against direction (1, 1) tilts toward axis 2."""
        n_spread = np.diag([1.0, 0.0])
        v = np.array([1.0, 1.0])
        w = solve_weights(n_spread, np.zeros(2), v, gamma=1.0)
        expected = np.array([0.5, 1.0]) / np.linalg.norm([0.5, 1.0])
        np.testing.assert_allclose(w, expected, atol=1e-12)
        np.testing.assert_allclose(w, [0.4472, 0.8944], atol=1e-4)

    def test_matches_a_dense_eigensolver(self):
        """Compare with numpy's generic eigendecomposition of (N+gI)^-1 M."""
        rng = np.random.default_rng(27)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            a = rng.standard_normal((dim, dim))
            n_spread = a @ a.T
            v = rng.standard_normal(dim)
            gamma = float(rng.uniform(0.05, 1.0))
            w = solve_weights(n_spread, np.zeros(dim), v, gamma)

            regularized = n_spread + gamma * np.eye(dim)
            values, vectors = np.linalg.eig(np.linalg.solve(regularized, np.outer(v, v)))
            top = vectors[:, np.argmax(values.real)].real
            top = top / np.linalg.norm(top)
            if top @ v < 0:
                top = -top
            np.testing.assert_allclose(w, top, atol=1e-8)

    def test_maximizes_the_rayleigh_quotient(self):
        """No random unit direction beats the closed-form solution."""
        rng = np.random.default_rng(33)
        a = rng.standard_normal((6, 6))
        n_spread = a @ a.T
        v = rng.standard_normal(6)
        gamma = 0.1
        m_sep = np.outer(v, v)
        regularized = n_spread + gamma * np.eye(6)
        w = solve_weights(n_spread, np.zeros(6), v, gamma)
        best = (w @ m_sep @ w) / (w @ regularized @ w)
        directions = rng.standard_normal((1000, 6))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        quotients = (
            np.einsum("ij,jk,ik->i", directions, m_sep, directions)
            / np.einsum("ij,jk,ik->i", directions, regularized, directions)
        )
        assert best >= quotients.max() - 1e-12

    def test_eigen_residual(self):
        """M w = lambda (N + gamma I) w holds at the returned vector."""
        rng = np.random.default_rng(44)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            n_spread = a @ a.T
            v = rng.standard_normal(5)
            gamma = float(rng.uniform(0.01, 1.0))
            m_sep = np.outer(v, v)
            regularized = n_spread + gamma * np.eye(5)
            w = solve_weights(n_spread, np.zeros(5), v, gamma)
            lam = (w @ m_sep @ w) / (w @ regularized @ w)
            residual = np.linalg.norm(m_sep @ w - lam * (regularized @ w))
            assert residual < 1e-8

    def test_scale_invariance(self):
        rng = np.random.default_rng(51)
        a = rng.standard_normal((4, 4))
        n_spread = a @ a.T
        v = rng.standard_normal(4)
        w = solve_weights(n_spread, np.zeros(4), v, gamma=0.2)
        for c in (0.001, 7.0, 4096.0):
            scaled = solve_weights(c * n_spread, np.zeros(4), c * v / c, gamma=c * 0.2)
            np.testing.assert_allclose(scaled, w, atol=1e-9)

    def test_sign_convention(self):
        v = np.array([-2.0, 1.0])
        w = solve_weights(np.zeros((2, 2)), np.zeros(2), v, gamma=0.5)
        assert w @ v > 0.0

    def test_negative_gamma(self):
        with pytest.raises(EstimationError, match="nonnegative"):
            solve_weights(np.eye(2), np.zeros(2), np.ones(2), gamma=-1.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma(self, gamma):
        with pytest.raises(EstimationError, match="nonnegative and finite"):
            solve_weights(np.eye(2), np.zeros(2), np.ones(2), gamma=gamma)

    def test_singular_system(self):
        with pytest.raises(EstimationError, match="singular"):
            solve_weights(np.zeros((2, 2)), np.zeros(2), np.ones(2), gamma=0.0)

    def test_coincident_means(self):
        with pytest.raises(EstimationError, match="coincide"):
            solve_weights(np.eye(2), np.ones(2), np.ones(2), gamma=0.1)

    def test_shape_mismatch(self):
        """The spread matrix must be d x d for means of length d."""
        for n_spread, mean0, mean1 in [
            (np.eye(3), np.zeros(2), np.ones(2)),
            (np.eye(2), np.zeros(3), np.ones(3)),
            (np.eye(2), np.zeros(2), np.ones(3)),
            (np.ones(2), np.zeros(2), np.ones(2)),
            (np.eye(2), np.zeros((1, 2)), np.ones((1, 2))),
        ]:
            with pytest.raises(EstimationError, match="does not fit means"):
                solve_weights(n_spread, mean0, mean1, gamma=0.1)


class TestCandidateGammas:
    def test_default_grid_appends_the_median_eigenvalue(self):
        n_spread = np.diag([1.0, 4.0, 9.0])
        gammas = candidate_gammas(n_spread)
        assert set(DEFAULT_GAMMA_GRID) <= set(gammas)
        assert 4.0 in gammas
        assert gammas == tuple(sorted(gammas))

    def test_explicit_grid_is_deduplicated_and_sorted(self):
        assert candidate_gammas(np.eye(2), [1.0, 0.1, 1.0]) == (0.1, 1.0)

    def test_empty_grid(self):
        with pytest.raises(EstimationError, match="empty"):
            candidate_gammas(np.eye(2), [])

    def test_negative_gamma(self):
        with pytest.raises(EstimationError, match="nonnegative"):
            candidate_gammas(np.eye(2), [-0.5, 1.0])


class TestStratifiedSplit:
    def test_halves_cover_each_class(self):
        data = two_class_sample(seed=1, n=9)
        fit0, fit1, eval0, eval1 = stratified_split(data, split_seed=4)
        assert fit0.size == 5 and eval0.size == 4
        assert fit1.size == 5 and eval1.size == 4
        for fit, eval_, label in ((fit0, eval0, 0), (fit1, eval1, 1)):
            merged = np.sort(np.concatenate([fit, eval_]))
            np.testing.assert_array_equal(merged, data.labeled_class_indices(label))

    def test_deterministic_and_seed_sensitive(self):
        data = two_class_sample(seed=2, n=12)
        first = stratified_split(data, split_seed=7)
        second = stratified_split(data, split_seed=7)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        third = stratified_split(data, split_seed=8)
        assert any(not np.array_equal(a, c) for a, c in zip(first, third))

    def test_small_class_rejected(self):
        data = RawDataset(
            features=[[0.0], [0.1], [1.0], [1.1], [1.2]],
            labels=[0, 0, 1, 1, 1],
            set_indicator=[1, 1, 1, 1, 1],
        )
        with pytest.raises(EstimationError, match="at least 3"):
            stratified_split(data, split_seed=0)


class TestSelectG:
    """Held-out gamma search over the kernel score family."""

    def test_singleton_grid_is_echoed(self):
        data = two_class_sample()
        selection = select_g(data, KernelSpec(family="linear"), gamma_grid=[0.01])
        assert selection.gamma == 0.01

    def test_duplicate_gammas_change_nothing(self):
        data = two_class_sample()
        kernel = KernelSpec(family="gaussian", bandwidth=1.0)
        a = select_g(data, kernel, gamma_grid=[1e-4, 1e-2])
        b = select_g(data, kernel, gamma_grid=[1e-4, 1e-2, 1e-4, 1e-2])
        assert a.gamma == b.gamma and a.objective == b.objective
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_deterministic(self):
        data = two_class_sample()
        a = select_g(data, split_seed=3)
        b = select_g(data, split_seed=3)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.gamma == b.gamma and a.objective == b.objective

    def test_objective_reproduces_from_the_selection(self):
        """Rescoring the held-out half with the returned g recovers `objective`."""
        data = two_class_sample(seed=9, n=16, n_u=40)
        selection = select_g(data, split_seed=5)
        _, _, eval0, eval1 = stratified_split(data, split_seed=5)
        g = selection.score_function()
        held_out = ScoredDataset(
            unlabeled=np.zeros((1, 1)),
            classes=(g.scores(data.features[eval0]), g.scores(data.features[eval1])),
        )
        recomputed = empirical_mse(held_out, theta=selection.theta_pilot)
        assert abs(recomputed - selection.objective) <= 1e-9

    def test_default_bandwidth_is_the_median_heuristic(self):
        data = two_class_sample(seed=13)
        selection = select_g(data)
        assert selection.kernel.family == "gaussian"
        labeled = np.flatnonzero(data.set_indicator == 1)
        np.testing.assert_allclose(
            selection.kernel.bandwidth, median_bandwidth(data.features[labeled])
        )

    def test_beats_an_unregularized_linear_arm(self):
        """Selected gaussian g should hold up against a fixed linear baseline."""
        data = two_class_sample(seed=21, n=24, n_u=40)
        chosen = select_g(data, split_seed=2)
        linear = select_g(
            data, KernelSpec(family="linear"), gamma_grid=[1e-6], split_seed=2
        )
        assert chosen.objective <= linear.objective

    def test_anchors_are_the_fitting_half(self):
        data = two_class_sample(seed=3, n=10)
        selection = select_g(data, split_seed=11)
        fit0, fit1, _, _ = stratified_split(data, split_seed=11)
        np.testing.assert_array_equal(
            selection.anchors, data.features[np.concatenate([fit0, fit1])]
        )
        assert selection.weights.shape == (fit0.size + fit1.size,)

    def test_no_admissible_gamma(self):
        """A kernel too wide to separate anything fails every candidate."""
        data = two_class_sample(seed=4, n=8)
        kernel = KernelSpec(family="gaussian", bandwidth=1e9)
        with pytest.raises(EstimationError, match="no admissible gamma"):
            select_g(data, kernel)

    def test_selection_serialization_round_trip(self):
        data = two_class_sample(seed=30)
        selection = select_g(data)
        clone = RkhsSelection.from_dict(selection.to_dict())
        np.testing.assert_allclose(clone.weights, selection.weights)
        np.testing.assert_allclose(clone.anchors, selection.anchors)
        assert clone.kernel == selection.kernel
        assert clone.gamma == selection.gamma

        g = clone.score_function()
        assert isinstance(g, KernelScore)
        x = np.linspace(-3, 3, 11).reshape(-1, 1)
        np.testing.assert_allclose(
            g.scores(x), selection.score_function().scores(x), atol=1e-12
        )
