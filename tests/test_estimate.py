"""Tests for finite-shot estimation, certification, and Monte-Carlo
experiments."""

import math

import numpy as np
import pytest

from cfii.errors import (BranchWarning, DegenerateModelError, EstimationError)
from cfii.estimate import (ContextSample, analytic_certification,
                           analytic_mu4, certify_vk, classifier_fi,
                           classifier_score, fi_estimate_variance, mc_rmse,
                           mc_vk_distribution, mle_theta, plugin_fi,
                           sample_binary)
from cfii.models import (NoisyFringeModel, NoisyFringeParams,
                         QubitFringeModel, QubitPreparation)
from cfii.rng import derive_rng
from cfii.witness import k_chain_gain

GOLDEN = NoisyFringeParams(gamma=0.25, epsilon_r=0.02, vartheta0=0.0)
NOISY = NoisyFringeModel(GOLDEN)
IDEAL = QubitFringeModel(QubitPreparation(vartheta=0.0, varphi=math.pi / 2))
T = math.pi / 2


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_binary(NOISY, 0.7, 500, seed=42)
        b = sample_binary(NOISY, 0.7, 500, seed=42)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)
        c = sample_binary(NOISY, 0.7, 500, seed=43)
        assert not np.array_equal(a.outcomes, c.outcomes)

    def test_frequencies_concentrate(self):
        sample = sample_binary(NOISY, 0.7, 200000, seed=5)
        p1 = float(NOISY.p1(0.7))
        assert sample.outcomes.mean() == pytest.approx(p1, abs=0.005)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            sample_binary(NOISY, 0.7, 0, seed=1)
        with pytest.raises(ValueError):
            ContextSample(theta=0.1, outcomes=np.array([0, 2]))
        with pytest.raises(ValueError):
            ContextSample(theta=0.1, outcomes=np.array([], dtype=int))
        # a NaN probability would compare False everywhere: all-zero data
        with pytest.raises(ValueError):
            sample_binary(NOISY, math.nan, 10, seed=1)
        with pytest.raises(ValueError):
            sample_binary(NOISY, 0.7, 10, seed=1.5)
        with pytest.raises(ValueError):
            sample_binary(NOISY, 0.7, 10, 1, 0.5)
        with pytest.raises(ValueError):
            mc_rmse(NOISY, 0.7, 100, 10, seed=1.9)

    def test_derive_rng_takes_integral_values_only(self):
        draws = derive_rng(3, 1, 4).random(4)
        for seed, path in ((3.0, (1.0, 4.0)), (np.int64(3), (np.int8(1), 4))):
            np.testing.assert_array_equal(derive_rng(seed, *path).random(4),
                                          draws)
        for seed, path in ((1.5, ()), (3, (1, 0.5)), (math.nan, ()),
                           (math.inf, ()), (3, ("1",))):
            with pytest.raises(ValueError):
                derive_rng(seed, *path)


class TestPluginFi:
    def test_hand_computed_value(self):
        sample = ContextSample(theta=0.9, outcomes=np.array([0, 0, 1, 0, 1]))
        s0 = float(NOISY.score(0, 0.9))
        s1 = float(NOISY.score(1, 0.9))
        est = plugin_fi(sample, NOISY)
        expected = (3 * s0 ** 2 + 2 * s1 ** 2) / 5
        assert est.value == pytest.approx(expected, rel=1e-14)
        assert est.n == 5 and not est.degenerate

    def test_mid_fringe_has_zero_variance(self):
        # at the fringe node both squared scores coincide, so the plug-in
        # estimate is deterministic no matter what the counts are
        sample = sample_binary(IDEAL, T, 100, seed=9)
        est = plugin_fi(sample, IDEAL)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.variance == pytest.approx(0.0, abs=1e-15)
        # at the noisy node the two squared scores are bit-identical, so the
        # variance is exactly zero, not a rounding residue of the mean
        assert float(NOISY.score(0, T)) ** 2 == float(NOISY.score(1, T)) ** 2
        sample = sample_binary(NOISY, T, 1000, seed=7)
        assert plugin_fi(sample, NOISY).variance == 0.0

    def test_single_shot_is_degenerate(self):
        sample = ContextSample(theta=0.9, outcomes=np.array([1]))
        est = plugin_fi(sample, NOISY)
        assert est.degenerate and est.variance == 0.0 and est.n == 1

    def test_unbiasedness(self):
        theta = 0.6
        f = float(NOISY.fi(theta))
        values = [plugin_fi(sample_binary(NOISY, theta, 200, seed=s),
                            NOISY).value for s in range(400)]
        se_mean = math.sqrt(fi_estimate_variance(NOISY, theta, 200) / 400)
        assert np.mean(values) == pytest.approx(f, abs=4 * se_mean)

    def test_variance_matches_analytic_moment(self):
        theta = 0.6
        values = [plugin_fi(sample_binary(NOISY, theta, 300, seed=s),
                            NOISY).value for s in range(3000)]
        assert np.var(values) == pytest.approx(
            fi_estimate_variance(NOISY, theta, 300), rel=0.1)


class TestAnalyticMoments:
    def test_mu4_equals_fi_squared_at_node(self):
        f = float(NOISY.fi(T))
        assert analytic_mu4(NOISY, T) == pytest.approx(f * f, rel=1e-14)

    def test_mu4_direct_formula(self):
        theta = 0.8
        p0 = float(NOISY.p0(theta))
        s0 = float(NOISY.score(0, theta))
        s1 = float(NOISY.score(1, theta))
        expected = p0 * s0 ** 4 + (1 - p0) * s1 ** 4
        assert analytic_mu4(NOISY, theta) == pytest.approx(expected,
                                                           rel=1e-14)

    def test_mu4_zero_when_uninformative(self):
        # zdot = -sin(theta) vanishes exactly at theta = 0; the
        # zero-derivative short circuit wins over the p1 = 0 degeneracy
        assert float(IDEAL.zdot(0.0)) == 0.0
        assert analytic_mu4(IDEAL, 0.0) == 0.0

    def test_mu4_near_stationary_point_is_tiny(self):
        theta_flat = math.pi - math.atan(0.25)
        assert abs(float(NOISY.zdot(theta_flat))) < 1e-12
        assert analytic_mu4(NOISY, theta_flat) < 1e-48

    def test_mu4_degenerate_point_raises(self):
        equator = QubitFringeModel(QubitPreparation(vartheta=0.3,
                                                    varphi=math.pi / 2))
        # z = -1 at theta = vartheta + pi, so outcome 0 is impossible there
        with pytest.raises(DegenerateModelError):
            analytic_mu4(equator, 0.3 + math.pi)


class TestCertifyVk:
    def _golden_contexts(self, seed=7, n=1000):
        endpoint = sample_binary(NOISY, T, n, seed=seed)
        segments = [sample_binary(NOISY, T / 4, n, seed=seed + 1 + j)
                    for j in range(4)]
        return endpoint, segments

    def test_analytic_moment_se_is_deterministic(self):
        endpoint, segments = self._golden_contexts()
        report = certify_vk(endpoint, segments, NOISY,
                            se_mode="analytic-moment")
        assert report.mode == "analytic-moment"
        assert report.se == pytest.approx(0.21205689019467844, rel=1e-12)

    def test_empirical_se_close_to_analytic(self):
        endpoint, segments = self._golden_contexts(seed=21, n=4000)
        emp = certify_vk(endpoint, segments, NOISY, se_mode="empirical")
        ana = certify_vk(endpoint, segments, NOISY,
                         se_mode="analytic-moment")
        assert emp.v_hat == ana.v_hat
        assert emp.se == pytest.approx(ana.se, rel=0.2)

    def test_ci_and_z_consistency(self):
        endpoint, segments = self._golden_contexts()
        report = certify_vk(endpoint, segments, NOISY,
                            se_mode="analytic-moment")
        lo, hi = report.ci95
        assert lo == pytest.approx(report.v_hat - 1.959964 * report.se)
        assert hi == pytest.approx(report.v_hat + 1.959964 * report.se)
        assert report.z == pytest.approx(-report.v_hat / report.se)

    def test_per_context_models_accepted(self):
        endpoint, segments = self._golden_contexts()
        models = [NOISY] * 5
        report = certify_vk(endpoint, segments, models)
        assert len(report.estimates) == 5

    def test_validation(self):
        endpoint, segments = self._golden_contexts()
        with pytest.raises(EstimationError):
            certify_vk(endpoint, [], NOISY)
        with pytest.raises(ValueError):
            certify_vk(endpoint, segments, NOISY, se_mode="bogus")
        with pytest.raises(ValueError):
            certify_vk(endpoint, segments, [NOISY] * 3)


class TestAnalyticCertification:
    def test_golden_numbers(self):
        report = analytic_certification(NOISY, T, 4, 1000)
        assert report.v_hat == pytest.approx(-2.5798942830008977, rel=1e-13)
        assert report.se == pytest.approx(0.21205689019467844, rel=1e-12)
        assert report.z == pytest.approx(12.166047897016837, rel=1e-12)

    def test_se_scales_inverse_sqrt_n(self):
        se_1k = analytic_certification(NOISY, T, 4, 1000).se
        se_4k = analytic_certification(NOISY, T, 4, 4000).se
        assert se_4k == pytest.approx(se_1k / 2, rel=1e-12)

    def test_identical_unit_contexts(self):
        report = analytic_certification(IDEAL, 1.0, 2, 100)
        assert report.v_hat == pytest.approx(-1.0, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic_certification(NOISY, T, 1, 100)
        with pytest.raises(ValueError):
            analytic_certification(NOISY, T, 4, 1)
        for t_total in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                analytic_certification(NOISY, t_total, 4, 100)
        for k in (2.5, math.nan, "4"):
            with pytest.raises(ValueError):
                analytic_certification(NOISY, T, k, 100)
        assert (analytic_certification(NOISY, T, 4.0, 100)
                == analytic_certification(NOISY, T, 4, 100))

    def test_fi_evaluations_do_not_grow_with_k(self):
        # an equal partition has two distinct angles, whatever K is
        calls = []

        class CountingFringe(NoisyFringeModel):
            def fi(self, theta):
                calls.append(theta)
                return super().fi(theta)

        model, k = CountingFringe(GOLDEN), 10 ** 5
        f_segment = float(NOISY.fi(T / k))
        report = k_chain_gain(model, T, k)
        assert len(calls) <= 2
        assert report.f_segments == (f_segment,) * k
        calls.clear()
        cert = analytic_certification(model, T, k, 1000)
        assert len(calls) <= 4
        assert [e.value for e in cert.estimates] == (
            [float(NOISY.fi(T))] + [f_segment] * k)


class TestClassifierScore:
    def test_symmetric_counts_give_zero(self):
        assert classifier_score((50, 50), (50, 50), 0.1) == (0.0, 0.0)

    def test_hand_computed_example(self):
        s0, s1 = classifier_score((60, 40), (40, 60), delta=0.1, alpha=5.0)
        assert s0 == pytest.approx(5 * math.log(65 / 45), rel=1e-14)
        assert s1 == pytest.approx(5 * math.log(45 / 65), rel=1e-14)

    def test_heavy_smoothing_kills_the_score(self):
        s0, s1 = classifier_score((90, 10), (10, 90), delta=0.1, alpha=1e9)
        assert abs(s0) < 1e-6 and abs(s1) < 1e-6

    def test_validation(self):
        with pytest.raises(EstimationError):
            classifier_score((1, 1), (1, 1), delta=0.0)
        with pytest.raises(ValueError):
            classifier_score((1, 1), (1, 1), delta=0.1, alpha=-1.0)
        with pytest.raises(ValueError):
            classifier_score((0, 0), (1, 1), delta=0.1)
        with pytest.raises(EstimationError):
            classifier_score((5, 0), (0, 5), delta=0.1, alpha=0.0)


class TestClassifierFi:
    def test_median_calibration_quick(self):
        f = float(NOISY.fi(math.pi / 8))
        values = [classifier_fi(NOISY, math.pi / 8, seed=s).value
                  for s in range(5)]
        assert np.median(values) == pytest.approx(f, rel=0.08)

    def test_deterministic_given_seed(self):
        a = classifier_fi(NOISY, T, seed=12)
        b = classifier_fi(NOISY, T, seed=12)
        assert a.value == b.value and a.variance == b.variance

    def test_tiny_training_set_no_crash(self):
        est = classifier_fi(NOISY, T, n_train=10, n_eval=50, seed=0)
        assert math.isfinite(est.value) and est.value >= 0.0

    def test_single_eval_sample_degenerate(self):
        est = classifier_fi(NOISY, T, n_train=100, n_eval=1, seed=0)
        assert est.degenerate

    def test_median_improves_with_training_size(self):
        # consistency: median absolute calibration error shrinks with the
        # training budget
        f = float(NOISY.fi(math.pi / 8))
        med_err = []
        for n_train in (100, 1000, 10000, 100000):
            values = [classifier_fi(NOISY, math.pi / 8, n_train=n_train,
                                    n_eval=10000, seed=s).value
                      for s in range(9)]
            med_err.append(abs(np.median(values) - f))
        assert med_err[-1] < med_err[0]
        assert med_err[-1] / f < 0.05


class TestMleTheta:
    def test_round_trip(self):
        theta = 0.7
        p0 = float(IDEAL.p0(theta))
        assert mle_theta(p0) == pytest.approx(theta, abs=1e-12)

    def test_round_trip_with_offset(self):
        prep = QubitPreparation(vartheta=0.4, varphi=math.pi / 2)
        model = QubitFringeModel(prep)
        theta = 1.9
        p0 = float(model.p0(theta))
        assert mle_theta(p0, vartheta=0.4) == pytest.approx(theta, abs=1e-12)

    def test_branch_boundaries_warn_and_pin(self):
        with pytest.warns(BranchWarning):
            assert mle_theta(1.0, vartheta=0.3) == pytest.approx(0.3)
        with pytest.warns(BranchWarning):
            assert mle_theta(0.0, vartheta=0.3) == pytest.approx(
                0.3 + math.pi)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mle_theta(1.2)
        with pytest.raises(ValueError):
            mle_theta(-0.1)


class TestMonteCarlo:
    def test_rmse_tracks_the_reference_bound(self):
        rmse = mc_rmse(IDEAL, T, 10000, 1000, seed=0)
        assert rmse * math.sqrt(10000) == pytest.approx(1.0, abs=0.05)

    def test_rmse_deterministic(self):
        assert mc_rmse(IDEAL, T, 100, 50, seed=3) == mc_rmse(
            IDEAL, T, 100, 50, seed=3)

    def test_rmse_saturated_frequencies_are_pinned(self):
        # p0 = 1 at theta = 0: every replication sees n zeros, and the
        # pinned branch end gives the exact estimate, not the clamp's 2e-6
        assert mc_rmse(IDEAL, 0.0, 100, 10, seed=0) == 0.0

    def test_rmse_validation(self):
        with pytest.raises(ValueError):
            mc_rmse(IDEAL, T, 0, 10, seed=0)
        with pytest.raises(ValueError):
            mc_rmse(IDEAL, T, 10, 0, seed=0)

    def test_vk_distribution_brackets_the_analytic_value(self):
        mean, (lo, hi) = mc_vk_distribution(GOLDEN, T, 4, 1000, reps=2000,
                                            seed=17)
        assert lo < -2.5798942830008977 < hi
        assert lo < mean < hi

    def test_vk_distribution_deterministic(self):
        a = mc_vk_distribution(GOLDEN, T, 4, 500, reps=100, seed=23)
        b = mc_vk_distribution(GOLDEN, T, 4, 500, reps=100, seed=23)
        assert a == b

    def test_vk_single_rep_collapses(self):
        mean, (lo, hi) = mc_vk_distribution(GOLDEN, T, 4, 500, reps=1,
                                            seed=2)
        assert lo == pytest.approx(mean) and hi == pytest.approx(mean)

    def test_vk_validation(self):
        with pytest.raises(ValueError):
            mc_vk_distribution(GOLDEN, T, 1, 500, reps=10, seed=0)
        with pytest.raises(ValueError):
            mc_vk_distribution(GOLDEN, T, 4, 500, reps=0, seed=0)
        for t_total in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                mc_vk_distribution(GOLDEN, t_total, 4, 100, reps=10, seed=1)
        for k in (2.5, math.nan):
            with pytest.raises(ValueError):
                mc_vk_distribution(GOLDEN, T, k, 100, reps=10, seed=1)
        with pytest.raises(ValueError):
            mc_vk_distribution(GOLDEN, T, 4, 0, reps=10, seed=1)
        assert (mc_vk_distribution(GOLDEN, T, 4.0, 100, reps=10, seed=1)
                == mc_vk_distribution(GOLDEN, T, 4, 100, reps=10, seed=1))

    @pytest.mark.filterwarnings("error")
    def test_vk_zero_plugin_fi_raises(self):
        # segment angle 1.2 / 4 = vartheta0 at gamma = 0: zdot and both
        # scores vanish, so every segment estimate is 0, as in certify_vk
        params = NoisyFringeParams(gamma=0.0, epsilon_r=0.02, vartheta0=0.3)
        with pytest.raises(EstimationError, match="zero plug-in FI"):
            mc_vk_distribution(params, 1.2, 4, 500, 200, 11)
