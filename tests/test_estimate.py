"""Tests for finite-shot estimation, certification, and Monte-Carlo
experiments."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cfii import estimate
from cfii.errors import (DegenerateModelError, EstimationError,
                         NonPositiveFiError, ResistanceOverflowError)
from cfii.estimate import (ContextSample, _mle_theta, _plugin, _variance,
                           _witness, analytic_certification, certify_vk,
                           classifier_fi, classifier_score, mc_rmse,
                           mc_vk_distribution, sample_binary)
from cfii.models import (NoisyFringeModel, NoisyFringeParams,
                         QubitFringeModel, QubitPreparation)
from cfii.rng import derive_rng
from cfii.witness import k_chain_gain, v_chain

GOLDEN = NoisyFringeParams(gamma=0.25, epsilon_r=0.02, vartheta0=0.0)
NOISY = NoisyFringeModel(GOLDEN)
IDEAL = QubitFringeModel(QubitPreparation(vartheta=0.0, varphi=math.pi / 2))
T = math.pi / 2


def counting_fringe(calls, params=GOLDEN):
    """The fringe of params, appending each evaluation of z and zdot to
    calls."""
    class CountingFringe(NoisyFringeModel):
        def z(self, theta):
            calls.append(("z", theta))
            return super().z(theta)

        def zdot(self, theta):
            calls.append(("zdot", theta))
            return super().zdot(theta)
    return CountingFringe(params)


def fields(report):
    """Each field of a certification report as plain Python values: a report
    that holds arrays supports no ==."""
    return [np.asarray(getattr(report, field.name)).tolist()
            for field in dataclasses.fields(report)]


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_binary(NOISY, 0.7, 500, seed=42)
        b = sample_binary(NOISY, 0.7, 500, seed=42)
        assert a == b and (a.theta, a.n) == (0.7, 500)
        c = sample_binary(NOISY, 0.7, 500, seed=43)
        assert a.n0 != c.n0

    def test_frequencies_concentrate(self):
        sample = sample_binary(NOISY, 0.7, 200000, seed=5)
        p0 = float(NOISY.p0(0.7))
        assert sample.n0 / sample.n == pytest.approx(p0, abs=0.005)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            sample_binary(NOISY, 0.7, 0, seed=1)
        with pytest.raises(ValueError, match=r"\[1, 10000000\]"):
            sample_binary(NOISY, 0.7, 10 ** 7 + 1, seed=1)
        for n, n0 in ((0, 0), (5, -1), (5, 6), (5, 1.5)):
            with pytest.raises(ValueError):
                ContextSample(theta=0.1, n=n, n0=n0)
        # a NaN probability would compare False everywhere: all-zero data
        with pytest.raises(ValueError):
            sample_binary(NOISY, math.nan, 10, seed=1)
        with pytest.raises(ValueError):
            sample_binary(NOISY, 0.7, 10, seed=1.5)
        with pytest.raises(ValueError):
            sample_binary(NOISY, 0.7, 10, 1, 0.5)
        with pytest.raises(ValueError):
            mc_rmse(IDEAL, 0.7, 100, 10, seed=1.9)

    def test_derive_rng_takes_integral_values_only(self):
        draws = derive_rng(3, 1, 4).random(4)
        for seed, path in ((3.0, (1.0, 4.0)), (np.int64(3), (np.int8(1), 4))):
            np.testing.assert_array_equal(derive_rng(seed, *path).random(4),
                                          draws)
        for seed, path in ((1.5, ()), (3, (1, 0.5)), (math.nan, ()),
                           (math.inf, ()), (3, ("1",))):
            with pytest.raises(ValueError):
                derive_rng(seed, *path)

    def test_derive_rng_is_philox_keyed_by_its_seed_sequence(self):
        """The stream of (seed, *path) is Philox keyed by the first two
        uint64 words of SeedSequence(seed, spawn_key=path)."""
        draw = np.random.default_rng(2024)
        cases = [(0, ()), (2 ** 40, (1, 2 ** 33)), (2 ** 63 - 1, (2 ** 32, 0))]
        cases += [(int(draw.integers(2 ** 62)),
                   tuple(draw.integers(0, 2 ** 34, draw.integers(4)).tolist()))
                  for _ in range(20)]
        for seed, path in cases:
            key = np.random.SeedSequence(seed, spawn_key=path).generate_state(
                2, np.uint64)
            expected = np.random.Philox(key=key).random_raw(50)
            np.testing.assert_array_equal(
                derive_rng(seed, *path).bit_generator.random_raw(50), expected)


class TestPluginFi:
    """The plug-in stage, as certify_vk reports it for each context."""

    def test_hand_computed_value(self):
        sample = ContextSample(theta=0.9, n=5, n0=3)
        s0, s1 = map(float, NOISY._moments(0.9)[:2])
        report = certify_vk(sample, [sample], NOISY)
        expected = (3 * s0 ** 2 + 2 * s1 ** 2) / 5
        assert report.f_end == pytest.approx(expected, rel=1e-14)
        assert report.f_segments.tolist() == [report.f_end]

    def test_mid_fringe_has_zero_variance(self):
        # at the fringe node both squared scores coincide, so the plug-in
        # estimate is deterministic no matter what the counts are
        sample = sample_binary(IDEAL, T, 100, seed=9)
        report = certify_vk(sample, [sample], IDEAL,
                            se_mode="analytic-moment")
        assert report.f_end == pytest.approx(1.0, abs=1e-12)
        assert report.var_end == pytest.approx(0.0, abs=1e-15)
        # at the noisy node the two squared scores are bit-identical, so the
        # variance is exactly zero, not a rounding residue of the mean
        s0, s1 = map(float, NOISY._moments(T)[:2])
        assert s0 ** 2 == s1 ** 2
        sample = sample_binary(NOISY, T, 1000, seed=7)
        assert certify_vk(sample, [sample], NOISY, se_mode="analytic-moment"
                          ).var_end == 0.0

    def test_zero_probability_outcome_is_refused(self):
        # theta = vartheta0 on the undamped lossless fringe: z = 1, so
        # outcome 1 never occurs and its score 0/0 is undefined
        model = NoisyFringeModel(NoisyFringeParams(0.0, 0.0, math.pi / 8))
        sample = ContextSample(math.pi / 8, 1000, 1000)
        with pytest.raises(DegenerateModelError, match=(
                r"^outcome 1 has zero probability; score undefined$")):
            certify_vk(sample, [sample], model)

    def test_single_shot_is_degenerate(self):
        sample = ContextSample(theta=0.9, n=1, n0=0)
        report = certify_vk(sample, [sample], NOISY,
                            se_mode="analytic-moment")
        assert report.var_end == 0.0 and report.var_segments.tolist() == [0.0]

    @staticmethod
    def plugin_values(theta, n, reps):
        """Plug-in FIs of reps seeded n-shot samples at theta, and the
        analytic variance (mu4 - F^2)/n of one."""
        s0, s1, f, mu4 = NOISY._moments(theta)
        n0 = [[sample_binary(NOISY, theta, n, seed=s).n0] for s in range(reps)]
        return _plugin([n], n0, (s0, s1))[0][:, 0], float(_variance(f, mu4, n))

    def test_unbiasedness(self):
        theta = 0.6
        f = float(NOISY.fi(theta))
        values, variance = self.plugin_values(theta, 200, 400)
        se_mean = math.sqrt(variance / 400)
        assert np.mean(values) == pytest.approx(f, abs=4 * se_mean)

    def test_variance_matches_analytic_moment(self):
        values, variance = self.plugin_values(0.6, 300, 3000)
        assert np.var(values) == pytest.approx(variance, rel=0.1)


class TestAnalyticMoments:
    def test_mu4_equals_fi_squared_at_node(self):
        f = float(NOISY.fi(T))
        assert NOISY._moments(T)[3] == pytest.approx(f * f, rel=1e-14)

    def test_mu4_direct_formula(self):
        theta = 0.8
        p0 = float(NOISY.p0(theta))
        s0, s1, _, mu4 = NOISY._moments(theta)
        expected = p0 * s0 ** 4 + (1 - p0) * s1 ** 4
        assert mu4 == pytest.approx(expected, rel=1e-14)

    def test_mu4_zero_when_uninformative(self):
        # zdot = -sin(theta) vanishes exactly at theta = 0; the
        # zero-derivative short circuit wins over the p1 = 0 degeneracy
        assert float(IDEAL.zdot(0.0)) == 0.0
        assert IDEAL._moments(0.0)[3] == 0.0

    def test_mu4_near_stationary_point_is_tiny(self):
        theta_flat = math.pi - math.atan(0.25)
        assert abs(float(NOISY.zdot(theta_flat))) < 1e-12
        assert NOISY._moments(theta_flat)[3] < 1e-48

    def test_mu4_degenerate_point_raises(self):
        equator = QubitFringeModel(QubitPreparation(vartheta=0.3,
                                                    varphi=math.pi / 2))
        # z = -1 at theta = vartheta + pi, so outcome 0 is impossible there
        with pytest.raises(DegenerateModelError):
            equator._moments(0.3 + math.pi)

    def test_variance_refuses_an_f_whose_square_overflows(self):
        # F is about 1e300: the variance (mu4 - F^2)/n is NaN, and the
        # certificate refuses the F, whose F^4 overflows too
        huge = NoisyFringeModel(NoisyFringeParams(1e150, 0.02))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, mu4 = huge._moments(1e-150)[2:]
            assert math.isfinite(f) and mu4 == math.inf
            assert math.isnan(_variance(f, mu4, 10))
            with pytest.raises(ResistanceOverflowError,
                               match=r"^F\^4 overflows for f_end$"):
                analytic_certification(huge, 1e-150, 2, 10)


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

    @pytest.mark.parametrize("se_mode", ["empirical", "analytic-moment"])
    def test_model_evaluations_do_not_grow_with_k(self, se_mode):
        # the model is evaluated once on all K + 1 angles, whatever K is
        calls = []
        model, counts = counting_fringe(calls), []
        for k in (4, 10 ** 4):
            endpoint = ContextSample(theta=T, n=100, n0=60)
            segments = [ContextSample(theta=T / k, n=100, n0=90 + j % 7)
                        for j in range(k)]
            calls.clear()
            report = certify_vk(endpoint, segments, model, se_mode=se_mode)
            counts.append(len(calls))
            assert report.f_segments.shape == (k,)
            assert fields(report) == fields(certify_vk(
                endpoint, segments, NOISY, se_mode=se_mode))
        # one z and one zdot call on the array of angles, in either mode
        assert counts[0] == counts[1] == 2

    def test_validation(self):
        endpoint, segments = self._golden_contexts()
        with pytest.raises(EstimationError):
            certify_vk(endpoint, [], NOISY)
        with pytest.raises(ValueError):
            certify_vk(endpoint, segments, NOISY, se_mode="bogus")

    def test_segments_may_be_any_iterable(self):
        endpoint, segments = self._golden_contexts()
        report = certify_vk(endpoint, (s for s in segments), NOISY)
        assert fields(report) == fields(certify_vk(endpoint, segments, NOISY))
        with pytest.raises(EstimationError,
                           match="^need at least one segment context$"):
            certify_vk(endpoint, iter(()), NOISY)


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
        for k in (2.5, math.nan, "4", 10 ** 6 + 1):
            with pytest.raises(ValueError):
                analytic_certification(NOISY, T, k, 100)
        assert (fields(analytic_certification(NOISY, T, 4.0, 100))
                == fields(analytic_certification(NOISY, T, 4, 100)))

    def test_fi_evaluations_do_not_grow_with_k(self):
        # an equal partition has two distinct angles, whatever K is, and
        # each angle's F, scores and mu4 come from one z and one zdot
        calls = []
        model, k = counting_fringe(calls), 10 ** 5
        f_segment = float(NOISY.fi(T / k))
        report = k_chain_gain(model, T, k)
        assert len(calls) <= 4
        assert np.array_equal(report.f_segments, [f_segment] * k)
        calls.clear()
        cert = analytic_certification(model, T, k, 1000)
        assert sorted(calls) == sorted(
            [("z", T), ("zdot", T), ("z", T / k), ("zdot", T / k)])
        assert cert.f_end == float(NOISY.fi(T))
        assert np.array_equal(cert.f_segments, [f_segment] * k)

    @pytest.mark.parametrize("rates", [3, 50])
    def test_fi_evaluations_do_not_grow_with_the_rates(self, rates):
        # a model over many rates is evaluated as often as a one-rate one:
        # one z and one zdot call per angle, on the array of rates
        calls = []
        model = counting_fringe(calls, NoisyFringeParams(
            gamma=np.linspace(0.0, 0.6, rates), epsilon_r=0.02))
        for k in (4, 10 ** 5):
            calls.clear()
            k_chain_gain(model, T, k)
            assert len(calls) == 4
            calls.clear()
            analytic_certification(model, T, k, np.arange(rates) + 2)
            assert len(calls) == 4

    def test_scalar_rate_report_types(self):
        report = analytic_certification(NOISY, T, 4, 1000)
        assert all(type(x) is float for x in (
            report.v_hat, report.se, report.z, *report.ci95))
        assert type(report.f_end) is type(report.var_end) is float
        for column in (report.f_segments, report.var_segments):
            assert (type(column), column.dtype, column.shape) == (
                np.ndarray, np.float64, (4,))

    @pytest.mark.parametrize("k", [2, 7, 64, 1000, 3313])
    def test_rate_columns_equal_one_rate_reports(self, k):
        rng = np.random.default_rng(k)
        gammas = np.append(rng.uniform(0.0, 1.5, size=12), 0.0)
        shots = rng.integers(2, 10 ** 7, size=gammas.size)
        eps_r, t_total = rng.uniform(0.0, 0.3), rng.uniform(0.2, 1.5)
        report = analytic_certification(NoisyFringeModel(NoisyFringeParams(
            gamma=gammas, epsilon_r=eps_r)), t_total, k, shots)
        assert report.f_segments.shape == report.var_segments.shape == (
            gammas.size, k)
        for i, (gamma, n) in enumerate(zip(gammas.tolist(), shots.tolist())):
            one = analytic_certification(NoisyFringeModel(NoisyFringeParams(
                gamma=gamma, epsilon_r=eps_r)), t_total, k, n)
            assert (report.v_hat[i], report.se[i], report.z[i],
                    report.ci95[0][i], report.ci95[1][i]) == (
                one.v_hat, one.se, one.z, *one.ci95)
            assert (report.f_end[i], report.var_end[i],
                    report.f_segments[i].tolist(),
                    report.var_segments[i].tolist()) == (
                one.f_end, one.var_end, one.f_segments.tolist(),
                one.var_segments.tolist())

    def test_shot_columns_of_one_rate(self):
        # a scalar-rate model with a shot count per row broadcasts
        shots = np.array([2, 30, 1000, 10 ** 6])
        report = analytic_certification(NOISY, T, 5, shots)
        for i, n in enumerate(shots.tolist()):
            one = analytic_certification(NOISY, T, 5, n)
            assert (report.v_hat[i], report.se[i], report.z[i]) == (
                one.v_hat, one.se, one.z)

    @pytest.mark.parametrize("shots", [[[100], [5000]],
                                       [[100, 30, 7], [5000, 2, 10 ** 6]]],
                             ids=["2x1", "2x3"])
    def test_shots_broadcast_past_the_rates(self, shots):
        # rates (3,) and shots (2, 1) or (2, 3): a (2, 3) report whose every
        # entry is the one-rate, one-shot-count report, bit for bit
        gammas = np.array([0.1, 0.25, 0.6])
        shots = np.array(shots)
        report = analytic_certification(NoisyFringeModel(NoisyFringeParams(
            gamma=gammas, epsilon_r=0.02)), T, 4, shots)
        assert report.v_hat.shape == (2, 3)
        assert report.f_segments.shape == (2, 3, 4)
        for (i, j), n in np.ndenumerate(np.broadcast_to(shots, (2, 3))):
            one = analytic_certification(NoisyFringeModel(NoisyFringeParams(
                gamma=gammas[j].item(), epsilon_r=0.02)), T, 4, n.item())
            assert [np.asarray(x)[i, j].tolist() for x in fields(report)[:-1]
                    ] == fields(one)[:-1]

    def test_rate_blocks_have_no_seam(self, monkeypatch):
        # blocks of a few rows each, some splitting a K = 7 table unevenly
        gammas = np.linspace(0.0, 0.6, 29)
        monkeypatch.setattr(estimate, "_CHAIN_BLOCK", 20)
        report = analytic_certification(NoisyFringeModel(NoisyFringeParams(
            gamma=gammas, epsilon_r=0.02)), T, 7, 1000)
        for i, gamma in enumerate(gammas.tolist()):
            one = analytic_certification(NoisyFringeModel(NoisyFringeParams(
                gamma=gamma, epsilon_r=0.02)), T, 7, 1000)
            assert (report.v_hat[i], report.se[i], report.z[i]) == (
                one.v_hat, one.se, one.z)

    @pytest.mark.parametrize("gamma", [0.0, np.array([0.3, 0.0, 0.6])])
    def test_zero_probability_outcome_is_refused(self, gamma):
        # the segment angle pi/8 = vartheta0 of the undamped lossless fringe
        # has z = 1 and zdot = 0: F = 1 (the removable singularity) and an
        # analytic variance of 0, but every shot gives outcome 0, F_hat = 0
        model = NoisyFringeModel(NoisyFringeParams(gamma, 0.0, math.pi / 8))
        with pytest.raises(DegenerateModelError, match=(
                r"^outcome 1 has zero probability; score undefined$")):
            analytic_certification(model, T, 4, 1000)

    def test_se_of_a_tiny_fi_is_refused(self):
        # F_end ~ 3e-123 at t_total = 700: 1/F is finite, 1/F^4 is not
        model = NoisyFringeModel(NoisyFringeParams(np.array([0.2, 0.3]), 0.02))
        with pytest.raises(ResistanceOverflowError,
                           match=r"^1/F\^4 overflows for f_end$"):
            analytic_certification(model, 700.0, 2, 1000)

    def test_shot_column_validation(self):
        rates = NoisyFringeModel(NoisyFringeParams(
            gamma=np.array([0.1, 0.2, 0.3]), epsilon_r=0.02))
        for shots, message in (([5, 1, 7], "must be >= 2, got 1"),
                               ([5, 2.5, 7], "integral value, got 2.5"),
                               ([5, math.nan, 7], "integral value, got nan")):
            with pytest.raises(ValueError, match=message):
                analytic_certification(rates, T, 4, np.array(shots))
        with pytest.raises(ValueError):  # 2 shot counts for 3 rates
            analytic_certification(rates, T, 4, np.array([5, 6]))


class TestReportLayout:
    """A certification report keeps the endpoint apart and the K segments on
    the last axis, as a WitnessReport does."""

    @staticmethod
    def sampled(se_mode, k=5):
        contexts = estimate._sample_contexts(
            NOISY, [T] + [T / k] * k, 100, 3, [(j,) for j in range(k + 1)])
        return certify_vk(contexts[0], contexts[1:], NOISY, se_mode=se_mode)

    @pytest.mark.parametrize("se_mode", ["empirical", "analytic-moment"])
    def test_sampled_segments_are_read_only(self, se_mode):
        report = self.sampled(se_mode)
        for column in (report.f_segments, report.var_segments):
            assert column.shape == (5,) and not column.flags.writeable
            with pytest.raises(ValueError):
                column.flags.writeable = True

    @pytest.mark.parametrize("gamma", [0.25, np.linspace(0.0, 0.6, 3)])
    def test_analytic_segments_are_zero_stride_views(self, gamma):
        report = analytic_certification(
            NoisyFringeModel(NoisyFringeParams(gamma, 0.02)), T, 6, 1000)
        for column in (report.f_segments, report.var_segments):
            assert column.shape == np.shape(gamma) + (6,)
            assert column.strides[-1] == 0 and not column.flags.writeable

    @pytest.mark.parametrize("se_mode", ["empirical", "analytic-moment"])
    def test_sampled_segments_give_the_witness(self, se_mode):
        report = self.sampled(se_mode, k=12)
        assert v_chain(report.f_end, report.f_segments) == report.v_hat

    @pytest.mark.parametrize("k", [2, 7, 64, 1000, 3313])
    def test_analytic_segments_give_the_witness(self, k):
        rng = np.random.default_rng(k)
        gammas = rng.uniform(0.0, 1.5, size=12)
        shots = rng.integers(2, 10 ** 7, size=gammas.size)
        report = analytic_certification(NoisyFringeModel(NoisyFringeParams(
            gamma=gammas, epsilon_r=rng.uniform(0.0, 0.3))), T, k, shots)
        assert np.array_equal(v_chain(report.f_end, report.f_segments),
                              report.v_hat)

    def test_a_million_segments_hold_no_per_segment_object(self):
        # the report holds the endpoint and one segment value: well under
        # the 8 bytes per segment that a reference to each would take
        tracemalloc.start()
        try:
            report = analytic_certification(NOISY, T, 10 ** 6, 1000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert report.f_segments.shape == (10 ** 6,)
        assert report.f_segments.strides == report.var_segments.strides == (0,)
        assert held < 2 ** 20


def reference_row(n0, n, s0, s1, moments=None):
    """One experiment of the certification core in plain floats, context by
    context: the plug-in moments, the witness, the delta-method SE summed
    left to right, and Z.  Analytic moments are (F, mu4) per context, whose
    variance is max(0, (mu4 - F^2)/n)."""
    f_hat, var_hat = [], []
    for c in range(len(n)):
        sq0, sq1 = s0[c] * s0[c], s1[c] * s1[c]
        f_hat.append((n0[c] * sq0 + (n[c] - n0[c]) * sq1) / n[c])
        gap = sq0 - sq1
        var_hat.append(0.0 if n[c] == 1 else n0[c] * (n[c] - n0[c]) * gap
                       * gap / (n[c] * n[c] * (n[c] - 1)))
    v = float(v_chain(f_hat[0], f_hat[1:]))
    total = 0.0
    for f, var in (zip(f_hat, var_hat) if moments is None else
                   ((f, max(0.0, (mu4 - f * f) / m))
                    for f, mu4, m in zip(*moments, n))):
        total += var / f ** 4
    se = math.sqrt(total)
    if se > 0.0:
        z = -v / se
    else:
        z = 0.0 if v == 0.0 else math.copysign(math.inf, -v)
    return f_hat, var_hat, v, se, z


class TestCertifyCore:
    @pytest.mark.parametrize("k", [2, 4, 9, 100])
    @pytest.mark.parametrize("analytic", [False, True])
    def test_rows_equal_the_plain_float_reference(self, k, analytic):
        rng = np.random.default_rng(1000 * k + analytic)
        c = k + 1
        # single-shot and two-shot contexts among larger ones
        n = rng.choice([1, 2, 7, 100, 1000, 3 * 10 ** 6], size=c)
        n[:2] = (1, 2)
        n0 = rng.integers(0, n + 1, size=(20, 2, c))
        s0, s1 = rng.normal(size=(2, c))
        f = rng.uniform(0.1, 2.0, size=c)
        # mu4 = F^2 + n Var, with a context at mu4 = F^2 (Var clamped at 0)
        mu4 = f * f + n * np.append(0.0, rng.uniform(0.0, 1e-2, size=k))
        moments = (f, mu4) if analytic else None
        f_hat, var_hat = _plugin(n, n0, (s0, s1))
        v, se, z = (_witness(f_hat, f, _variance(f, mu4, n)) if analytic
                    else _witness(f_hat, f_hat, var_hat))
        assert f_hat.shape == var_hat.shape == (20, 2, c)
        assert v.shape == z.shape == (20, 2)
        se = np.broadcast_to(se, v.shape)  # one SE for all rows in analytic
        for row in np.ndindex(20, 2):
            ref = reference_row(n0[row].tolist(), n.tolist(), s0.tolist(),
                                s1.tolist(),
                                None if moments is None
                                else [m.tolist() for m in moments])
            assert f_hat[row].tolist() == ref[0]
            assert var_hat[row].tolist() == ref[1]
            assert (v[row], se[row], z[row]) == ref[2:]

    def test_single_shots_give_a_zero_se(self):
        # empirical SE of single-shot contexts is 0: Z is then +-inf or 0
        n0 = np.array([[1, 0, 1], [0, 1, 0]])
        scores = (np.array([0.5, 2.0, 2.0]), np.array([-0.5, -2.0, -2.0]))
        f_hat, var_hat = _plugin(np.ones(3, dtype=int), n0, scores)
        v, se, z = _witness(f_hat, f_hat, var_hat)
        assert (var_hat == 0.0).all() and (se == 0.0).all()
        assert v.tolist() == [3.5, 3.5]
        assert z.tolist() == [-math.inf, -math.inf]
        with pytest.raises(EstimationError,
                           match="^empirical SE is 0: significance undefined$"):
            certify_vk(ContextSample(0.9, 1, 1), [ContextSample(0.45, 1, 0)],
                       NOISY)

    def test_witness_names_the_context_whose_f4_overflows(self):
        # 1e-80 inverts to 1e80, but its fourth power is subnormal
        f = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 1e-80]])
        with pytest.raises(ResistanceOverflowError,
                           match=r"^1/F\^4 overflows for f_segment_1$"):
            _witness(f, f, np.ones_like(f))
        # 1e80 is finite, but an infinite F^4 would give SE = 0 and Z = inf
        f = np.array([[1.0, 2.0, 3.0], [1e80, 2.0, 3.0]])
        with pytest.raises(ResistanceOverflowError,
                           match=r"^F\^4 overflows for f_end$"):
            _witness(f, f, np.ones_like(f))
        v, se, z = _witness(f[0], f[0], np.ones(3))
        assert se == math.sqrt(1.0 + 1.0 / 16.0 + 1.0 / 81.0)

    def test_squared_scores_past_the_largest_float_are_refused(self):
        huge = NoisyFringeModel(NoisyFringeParams(1e300, 0.02))
        endpoint = ContextSample(theta=1e-300, n=100, n0=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveFiError,
                               match=r"^f_end must be finite, got inf$"):
                certify_vk(endpoint, [ContextSample(5e-301, 100, 40)], huge)
            with pytest.raises(EstimationError,
                               match=r"^plug-in FI overflows$"):
                classifier_fi(NOISY, 1.0, delta=1e-300, seed=1)
            # squared scores near 1e293 are finite; the square of their gap
            # is not
            with pytest.raises(EstimationError,
                               match=r"^plug-in FI variance overflows$"):
                classifier_fi(NOISY, 1.0, delta=1e-150, seed=1)

    def test_a_plug_in_variance_past_the_largest_float_is_refused(self):
        # no fringe scores an outcome past 1e154 with F^4 finite, so
        # scores of 1e100 and 0 with F = mu4 = 1 stand in: F_hat is 5e199,
        # while 25 (1e200)^2 overflows
        class FixedScores(NoisyFringeModel):
            def _moments(self, theta):
                ones = np.ones(np.shape(theta))
                return 1e100 * ones, 0.0 * ones, ones, ones

        contexts = [ContextSample(T, 10, 5), ContextSample(T / 2, 10, 5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError,
                               match=r"^plug-in FI variance overflows$"):
                certify_vk(contexts[0], contexts[1:], FixedScores(GOLDEN),
                           se_mode="analytic-moment")

    def test_an_unseen_outcome_adds_nothing(self):
        # its squared score overflows; a count of 0 times it is 0, not NaN
        huge = NoisyFringeModel(NoisyFringeParams(1e300, 0.02))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveFiError,
                               match=r"^f_end must be finite, got inf$"):
                certify_vk(ContextSample(1e-300, 100, 0),
                           [ContextSample(5e-301, 100, 40)], huge)
            scores = np.array([[1e200, 1.0], [2.0, 1e200]])
            f_hat, var_hat = _plugin([3, 3], [0, 3], scores)
        assert f_hat.tolist() == [4.0, 1.0] and var_hat.tolist() == [0.0, 0.0]

    def test_mc_vk_distribution_is_unchanged(self):
        cases = [
            ((GOLDEN, T, 4, 1000, 500, 17),
             (-2.613664869556544, -3.001780487628037, -2.22062259807004)),
            ((NoisyFringeParams(gamma=0.585, epsilon_r=0.02), T, 8, 30, 300,
              4),
             (-4.411145610085686, -17.875226703977198, 2.316167899137451)),
            ((NoisyFringeParams(gamma=0.5, epsilon_r=0.0, vartheta0=0.3), 1.2,
              9, 100, 200, 5),
             (-21.63062592164829, -57.34864366381286, -10.39050631607842)),
        ]
        for args, (mean, lo, hi) in cases:
            assert mc_vk_distribution(*args) == (mean, (lo, hi))


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
        # 1/(2 delta) overflows: the scores would be -inf and inf
        with pytest.raises(EstimationError,
                           match=r"^score overflows at delta = 5e-324$"):
            classifier_score((10, 90), (90, 10), 5e-324)
        assert classifier_score((50, 50), (50, 50), 5e-324) == (0.0, 0.0)


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
        assert est.variance == 0.0

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
    """The fringe MLE that mc_rmse runs on each replication's frequency."""

    def test_round_trip(self):
        theta = 0.7
        p0 = float(IDEAL.p0(theta))
        assert _mle_theta(p0, 0.0) == pytest.approx(theta, abs=1e-12)

    def test_round_trip_with_offset(self):
        prep = QubitPreparation(vartheta=0.4, varphi=math.pi / 2)
        model = QubitFringeModel(prep)
        theta = 1.9
        p0 = float(model.p0(theta))
        assert _mle_theta(p0, 0.4) == pytest.approx(theta, abs=1e-12)

    def test_branch_boundaries_pin(self):
        assert _mle_theta(np.array([1.0, 0.0]), 0.3).tolist() == [
            0.3, 0.3 + math.pi]


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
        with pytest.raises(ValueError, match=r"\[1, 1000000\]"):
            mc_rmse(IDEAL, T, 10, 10 ** 6 + 1, seed=0)

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
        for k in (2.5, math.nan, 10 ** 6 + 1):
            with pytest.raises(ValueError):
                mc_vk_distribution(GOLDEN, T, k, 100, reps=10, seed=1)
        with pytest.raises(ValueError):
            mc_vk_distribution(GOLDEN, T, 4, 0, reps=10, seed=1)
        assert (mc_vk_distribution(GOLDEN, T, 4.0, 100, reps=10, seed=1)
                == mc_vk_distribution(GOLDEN, T, 4, 100, reps=10, seed=1))

    @pytest.mark.filterwarnings("error")
    def test_vk_zero_plugin_fi_raises(self):
        # segment angle 1.2 / 4 = vartheta0 at gamma = 0: zdot and both
        # scores vanish, so every segment estimate is 0, refused by v_chain
        params = NoisyFringeParams(gamma=0.0, epsilon_r=0.02, vartheta0=0.3)
        with pytest.raises(NonPositiveFiError,
                           match=r"^f_segment_0 must be > 0, got 0\.0$"):
            mc_vk_distribution(params, 1.2, 4, 500, 200, 11)
