"""Tests of the Gaussian-process substrate: kernels, regression, acquisitions."""

import numpy as np
import pytest

from repro.gp import (
    ExpectedImprovement,
    GaussianProcessRegressor,
    HammingKernel,
    Matern52Kernel,
    ProbabilityOfImprovement,
    RBFKernel,
    UpperConfidenceBound,
    get_acquisition,
)


class TestKernels:
    @pytest.mark.parametrize("kernel", [RBFKernel(), Matern52Kernel(), HammingKernel()])
    def test_symmetry(self, rng, kernel):
        x = rng.integers(0, 3, size=(6, 5)).astype(float)
        gram = kernel(x, x)
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)

    @pytest.mark.parametrize("kernel", [RBFKernel(), Matern52Kernel(), HammingKernel()])
    def test_diagonal_is_variance(self, rng, kernel):
        x = rng.normal(size=(4, 3))
        gram = kernel(x, x)
        np.testing.assert_allclose(np.diag(gram), kernel.diag(x), atol=1e-12)
        np.testing.assert_allclose(np.diag(gram), np.ones(4), atol=1e-12)

    @pytest.mark.parametrize("kernel", [RBFKernel(), Matern52Kernel(), HammingKernel()])
    def test_positive_semidefinite(self, rng, kernel):
        x = rng.integers(0, 3, size=(8, 6)).astype(float)
        gram = kernel(x, x)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() > -1e-9

    def test_rbf_decreases_with_distance(self):
        kernel = RBFKernel(length_scale=1.0)
        near = kernel(np.zeros((1, 2)), np.full((1, 2), 0.1))[0, 0]
        far = kernel(np.zeros((1, 2)), np.full((1, 2), 3.0))[0, 0]
        assert near > far

    def test_rbf_identical_points_equal_variance(self):
        kernel = RBFKernel(variance=2.0)
        assert kernel(np.zeros((1, 3)), np.zeros((1, 3)))[0, 0] == pytest.approx(2.0)

    def test_hamming_counts_mismatches(self):
        kernel = HammingKernel(gamma=1.0)
        a = np.array([[0, 1, 2, 0]])
        b = np.array([[0, 1, 2, 1]])  # one mismatch out of 4
        assert kernel(a, b)[0, 0] == pytest.approx(np.exp(-0.25))

    def test_hamming_ignores_label_magnitude(self):
        kernel = HammingKernel()
        a, b = np.array([[0, 2]]), np.array([[0, 1]])
        c, d = np.array([[0, 1]]), np.array([[0, 2]])
        assert kernel(a, b)[0, 0] == pytest.approx(kernel(c, d)[0, 0])

    def test_matern_smoothness_params_validated(self):
        with pytest.raises(ValueError):
            Matern52Kernel(length_scale=-1.0)
        with pytest.raises(ValueError):
            RBFKernel(variance=0.0)
        with pytest.raises(ValueError):
            HammingKernel(gamma=0.0)

    def test_one_dimensional_input_promoted(self):
        kernel = RBFKernel()
        assert kernel(np.array([1.0, 2.0]), np.array([1.0, 2.0])).shape == (1, 1)


class TestGaussianProcess:
    def test_interpolates_training_points_with_small_noise(self, rng):
        x = rng.uniform(-2, 2, size=(8, 1))
        y = np.sin(x[:, 0])
        gp = GaussianProcessRegressor(RBFKernel(length_scale=0.7), noise=1e-8)
        gp.fit(x, y)
        mean, std = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-4)
        assert np.all(std < 0.05)

    def test_uncertainty_grows_away_from_data(self, rng):
        x = rng.uniform(-1, 1, size=(6, 1))
        y = x[:, 0] ** 2
        gp = GaussianProcessRegressor(RBFKernel(), noise=1e-6).fit(x, y)
        _, std_near = gp.predict(np.array([[0.0]]))
        _, std_far = gp.predict(np.array([[5.0]]))
        assert std_far[0] > std_near[0]

    def test_prediction_before_fit_returns_prior(self):
        gp = GaussianProcessRegressor()
        mean, std = gp.predict(np.zeros((3, 2)))
        np.testing.assert_allclose(mean, np.zeros(3))
        np.testing.assert_allclose(std, np.ones(3))

    def test_normalization_handles_large_targets(self, rng):
        x = rng.uniform(-1, 1, size=(10, 2))
        y = 1000.0 + 50.0 * x[:, 0]
        gp = GaussianProcessRegressor(RBFKernel(), noise=1e-6).fit(x, y)
        mean, _ = gp.predict(x)
        assert abs(mean.mean() - y.mean()) < 5.0

    def test_reasonable_generalisation(self, rng):
        x = np.linspace(-3, 3, 25).reshape(-1, 1)
        y = np.sin(x[:, 0])
        gp = GaussianProcessRegressor(RBFKernel(length_scale=1.0), noise=1e-6).fit(x, y)
        query = np.array([[0.5]])
        mean, _ = gp.predict(query)
        assert abs(mean[0] - np.sin(0.5)) < 0.05

    def test_log_marginal_likelihood_prefers_good_lengthscale(self, rng):
        x = np.linspace(-3, 3, 20).reshape(-1, 1)
        y = np.sin(x[:, 0])
        good = GaussianProcessRegressor(RBFKernel(length_scale=1.0), noise=1e-4).fit(x, y)
        bad = GaussianProcessRegressor(RBFKernel(length_scale=0.01), noise=1e-4).fit(x, y)
        assert good.log_marginal_likelihood() > bad.log_marginal_likelihood()

    def test_duplicate_points_do_not_crash(self):
        x = np.zeros((5, 3))
        y = np.ones(5)
        gp = GaussianProcessRegressor(HammingKernel(), noise=1e-6).fit(x, y)
        mean, std = gp.predict(np.zeros((1, 3)))
        assert np.isfinite(mean).all() and np.isfinite(std).all()

    def test_shape_validation(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((0, 2)), np.zeros(0))

    def test_posterior_samples_shape(self, rng):
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        gp = GaussianProcessRegressor(RBFKernel(), noise=1e-4).fit(x, y)
        samples = gp.sample_posterior(rng.normal(size=(4, 2)), num_samples=3, rng=rng)
        assert samples.shape == (3, 4)

    def test_categorical_objective_with_hamming_kernel(self, rng):
        """GP over a discrete encoding must rank a clearly better region first."""
        x = rng.integers(0, 3, size=(30, 6)).astype(float)
        y = (x == 2).sum(axis=1) * 0.1  # objective: fewer 2s is better (minimisation)
        gp = GaussianProcessRegressor(HammingKernel(gamma=2.0), noise=1e-4).fit(x, y)
        good = np.zeros((1, 6))
        bad = np.full((1, 6), 2.0)
        mean_good, _ = gp.predict(good)
        mean_bad, _ = gp.predict(bad)
        assert mean_good[0] < mean_bad[0]


class TestAcquisitions:
    def test_ucb_prefers_low_mean_and_high_std(self):
        acq = UpperConfidenceBound(kappa=1.0, decay=1.0)
        scores = acq(np.array([0.5, 0.5, 0.2]), np.array([0.0, 0.5, 0.0]), best_observed=0.4)
        assert np.argmax(scores) in (1, 2)
        # low mean wins when stds are equal
        scores2 = acq(np.array([0.5, 0.2]), np.array([0.1, 0.1]), best_observed=0.4)
        assert np.argmax(scores2) == 1

    def test_ucb_kappa_decay(self):
        acq = UpperConfidenceBound(kappa=2.0, decay=0.5, min_kappa=0.1)
        assert acq.effective_kappa(0) == 2.0
        assert acq.effective_kappa(1) == 1.0
        assert acq.effective_kappa(100) == pytest.approx(0.1)

    def test_ei_zero_when_no_improvement_possible(self):
        acq = ExpectedImprovement(xi=0.0)
        scores = acq(np.array([1.0]), np.array([1e-9]), best_observed=0.0)
        assert scores[0] == pytest.approx(0.0, abs=1e-6)

    def test_ei_positive_when_improvement_likely(self):
        acq = ExpectedImprovement(xi=0.0)
        scores = acq(np.array([-1.0]), np.array([0.1]), best_observed=0.0)
        assert scores[0] > 0.9

    def test_pi_bounded_in_unit_interval(self, rng):
        acq = ProbabilityOfImprovement()
        scores = acq(rng.normal(size=10), np.abs(rng.normal(size=10)) + 0.01, best_observed=0.0)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_registry(self):
        assert isinstance(get_acquisition("ucb"), UpperConfidenceBound)
        assert isinstance(get_acquisition("ei"), ExpectedImprovement)
        assert isinstance(get_acquisition("pi"), ProbabilityOfImprovement)
        instance = UpperConfidenceBound()
        assert get_acquisition(instance) is instance
        with pytest.raises(KeyError):
            get_acquisition("nope")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UpperConfidenceBound(kappa=-1.0)
        with pytest.raises(ValueError):
            ExpectedImprovement(xi=-0.1)
        with pytest.raises(ValueError):
            UpperConfidenceBound(kappa=1.0, decay=1.5)


def _z_grid() -> np.ndarray:
    """Standard scores covering |z| up to 40 plus every IEEE special value."""
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 38.5, -38.5])
    return np.concatenate([np.linspace(-40.0, 40.0, 8001), specials])


def assert_bitwise_equal(got, expected) -> None:
    """Equal bit for bit, NaN sign aside.

    scipy's ``norm.pdf`` substitutes ``+nan`` for a NaN input while the bare
    formula yields ``-nan``; IEEE attaches no meaning to a NaN's sign, so NaNs
    must sit at the same positions and every other value must match exactly.
    """
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert got.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


class TestAcquisitionsMatchScipyNorm:
    """The acquisitions avoid importing ``scipy.stats`` but must reproduce its
    ``norm.cdf`` / ``norm.pdf`` bit for bit (``scipy.stats`` is imported here,
    in the test only, as the reference)."""

    @pytest.fixture()
    def posterior(self):
        z = _z_grid()
        std = np.resize(np.array([1.0, 0.37, 2.5, 1e-13, 0.0]), z.shape)
        # mean chosen so that (best - mean) / std walks the z grid for std = 1
        return -z, std

    def test_density_and_cdf_are_bitwise_equal(self):
        from scipy.stats import norm

        from repro.gp.acquisition import _norm_pdf, ndtr

        z = _z_grid()
        assert_bitwise_equal(ndtr(z), norm.cdf(z))
        assert_bitwise_equal(_norm_pdf(z), norm.pdf(z))

    def test_expected_improvement_is_bitwise_equal(self, posterior):
        from scipy.stats import norm

        mean, std = posterior
        xi = 0.01
        clipped = np.maximum(std, 1e-12)
        improvement = 0.0 - mean - xi
        z = improvement / clipped
        with np.errstate(invalid="ignore"):
            expected = improvement * norm.cdf(z) + clipped * norm.pdf(z)
            got = ExpectedImprovement(xi=xi)(mean, std, best_observed=0.0)
        assert_bitwise_equal(got, expected)

    def test_probability_of_improvement_is_bitwise_equal(self, posterior):
        from scipy.stats import norm

        mean, std = posterior
        expected = norm.cdf((0.0 - mean - 0.0) / np.maximum(std, 1e-12))
        got = ProbabilityOfImprovement(xi=0.0)(mean, std, best_observed=0.0)
        assert_bitwise_equal(got, expected)

    def test_probability_in_bounds_is_bitwise_equal(self, posterior):
        from scipy.stats import norm

        from repro.gp.acquisition import probability_in_bounds

        mean, std = posterior
        clipped = np.maximum(std, 1e-12)
        upper = norm.cdf((0.5 - mean) / clipped)
        lower = norm.cdf((-0.25 - mean) / clipped)
        assert_bitwise_equal(probability_in_bounds(mean, std, upper=0.5), np.maximum(upper, 0.0))
        assert_bitwise_equal(probability_in_bounds(mean, std, lower=-0.25), np.maximum(1.0 - lower, 0.0))
        assert_bitwise_equal(
            probability_in_bounds(mean, std, lower=-0.25, upper=0.5), np.maximum(upper - lower, 0.0)
        )
