"""Tests for path witnesses, benchmarks, chain gains, and the crossing."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from cfii.errors import (NoCrossingError, NonPositiveFiError,
                         OptimizationError, ResistanceOverflowError)
from cfii.models import (NoisyFringeModel, NoisyFringeParams,
                         QubitFringeModel, QubitPreparation)
from cfii.witness import (classical_benchmark_path, gain_indicator,
                          gamma_crossing, k_chain_gain, nsit_separation_demo,
                          split_optimized_benchmark, v_chain, v_path)
from cfii.witness import _nsit_holds

GOLDEN = NoisyFringeParams(gamma=0.25, epsilon_r=0.02, vartheta0=0.0)
T = math.pi / 2
IDEAL_MODEL = QubitFringeModel(QubitPreparation(vartheta=0.0,
                                                varphi=math.pi / 2))


def assert_same_report(a, b):
    """Field by field, as a report over arrays supports no ==."""
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name))


class TestVPath:
    def test_unit_fi_everywhere(self):
        assert v_path(1.0, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_exact_classical_boundary(self):
        assert v_path(0.5, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_rounded_golden_inputs(self):
        # arithmetic: 1/0.4202 - 2/0.8065
        assert v_path(0.4202, 0.8065, 0.8065) == pytest.approx(
            -0.10003207518162904, abs=1e-15)

    def test_exact_golden_inputs(self):
        model = NoisyFringeModel(GOLDEN)
        v = v_path(float(model.fi(T)), float(model.fi(T / 4)),
                   float(model.fi(T / 4)))
        assert v == pytest.approx(-0.10001655841775836, abs=1e-14)

    def test_nonpositive_fi_rejected(self):
        with pytest.raises(NonPositiveFiError):
            v_path(0.0, 1.0, 1.0)
        with pytest.raises(NonPositiveFiError):
            v_path(1.0, -0.5, 1.0)


class TestVChain:
    def test_identical_unit_contexts(self):
        assert v_chain(1.0, [1.0] * 5) == pytest.approx(-4.0, abs=1e-15)

    def test_matches_v_path_for_two_segments(self):
        assert v_chain(0.7, [1.1, 0.9]) == pytest.approx(
            v_path(0.7, 1.1, 0.9), abs=1e-15)

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            v_chain(1.0, [])

    def test_names_the_first_nonpositive_segment(self):
        with pytest.raises(NonPositiveFiError,
                           match=r"^f_segment_2 must be > 0, got 0\.0$"):
            v_chain(1.0, [1.0, 2.0, 0.0, -1.0])
        with pytest.raises(NonPositiveFiError, match=r"^f_segment_1 .* nan$"):
            v_chain(1.0, [1.0, math.nan])


class TestBenchmarkAndIndicators:
    def test_harmonic_benchmark(self):
        assert classical_benchmark_path(1.0, 1.0) == pytest.approx(0.5)
        assert classical_benchmark_path(2.0, 2.0) == pytest.approx(1.0)

    def test_gain_indicator_sign_and_value(self):
        assert gain_indicator(2.0, 1.0) == pytest.approx(
            -0.5 * math.log(2.0), abs=1e-15)
        assert gain_indicator(1.0, 1.0) == 0.0
        assert gain_indicator(0.5, 1.0) > 0.0

    def test_improvement_factor_deterministic_point(self):
        # R_cl / (R_cl + V) is the report's F_end / F_benchmark: at the
        # equator every FI is 1, so R_cl = 2, V = -1 and the factor is 2
        report = k_chain_gain(IDEAL_MODEL, 1.0, 2)
        r_cl = 1.0 / report.f_benchmark
        assert (r_cl, report.v) == (pytest.approx(2.0, abs=1e-15),
                                    pytest.approx(-1.0, abs=1e-15))
        assert report.gamma_ratio == pytest.approx(r_cl / (r_cl + report.v),
                                                   rel=1e-15)
        assert report.gamma_ratio == pytest.approx(2.0, abs=1e-15)


class TestArrayArguments:
    """The witness functions broadcast over arrays; each entry is bitwise
    the scalar call on that entry."""

    @staticmethod
    def fis(*shape):
        return np.random.default_rng(8).uniform(0.05, 3.0, shape)

    @staticmethod
    def assert_bitwise(array, scalars):
        expected = np.array(scalars, dtype=float).reshape(np.shape(array))
        assert np.asarray(array).tobytes() == expected.tobytes()

    def test_v_path(self):
        f_ab, f_ac, f_cb = self.fis(5, 7), self.fis(5, 1) + 0.1, self.fis(7)
        self.assert_bitwise(v_path(f_ab, f_ac, f_cb), [
            [v_path(float(f_ab[i, j]), float(f_ac[i, 0]), float(f_cb[j]))
             for j in range(7)] for i in range(5)])

    @pytest.mark.parametrize("k", [3, 11])
    def test_v_chain_segments_on_the_last_axis(self, k):
        f_end, f_seg = self.fis(6), self.fis(6, k) + 0.2
        self.assert_bitwise(v_chain(f_end, f_seg), [
            v_chain(float(f_end[i]), f_seg[i].tolist()) for i in range(6)])

    def test_benchmark_and_gain_indicator(self):
        f_ac, f_cb, f_end = self.fis(4, 1), self.fis(9), self.fis(4, 9) + 0.3
        f_cl = classical_benchmark_path(f_ac, f_cb)
        self.assert_bitwise(f_cl, [
            [classical_benchmark_path(float(f_ac[i, 0]), float(f_cb[j]))
             for j in range(9)] for i in range(4)])
        self.assert_bitwise(gain_indicator(f_end, f_cl), [
            [gain_indicator(float(f_end[i, j]), float(f_cl[i, j]))
             for j in range(9)] for i in range(4)])

    def test_lists_act_as_arrays(self):
        f_ab, f_ac, f_cb = [0.7, 1.3], [2.0, 0.4], [3.0, 1.1]
        assert np.array_equal(v_path(f_ab, f_ac, f_cb),
                              v_path(*map(np.array, (f_ab, f_ac, f_cb))))
        assert np.array_equal(classical_benchmark_path(f_ac, f_cb),
                              classical_benchmark_path(np.array(f_ac),
                                                       np.array(f_cb)))
        assert np.array_equal(v_chain(f_ab, [f_ac, f_cb]),
                              v_chain(np.array(f_ab), np.array([f_ac, f_cb])))
        assert v_path([1.0], [2.0], [3.0]) == v_path(1.0, 2.0, 3.0)
        assert v_chain([1.0], [[2.0, 3.0]]) == v_chain(1.0, [2.0, 3.0])

    def test_messages_name_the_first_bad_entry(self):
        ones = np.ones((2, 3))
        with pytest.raises(NonPositiveFiError,
                           match=r"^f_ac must be > 0, got 0\.0$"):
            v_path(ones, np.array([[1.0], [0.0]]), np.array([1.0, 1.0, -2.0]))
        with pytest.raises(NonPositiveFiError,
                           match=r"^f_cb must be > 0, got -2\.0$"):
            classical_benchmark_path(ones, np.array([1.0, -2.0, 0.0]))
        with pytest.raises(NonPositiveFiError,
                           match=r"^f_benchmark must be > 0, got nan$"):
            gain_indicator(ones, np.array([[1.0, 1.0, 1.0],
                                           [1.0, math.nan, 0.0]]))
        # C order: row 0 comes before row 1, whose segment 0 is also bad
        with pytest.raises(NonPositiveFiError,
                           match=r"^f_segment_2 must be > 0, got 0\.0$"):
            v_chain(np.ones(2), np.array([[1.0, 2.0, 0.0], [-1.0, 2.0, 3.0]]))
        with pytest.raises(NonPositiveFiError,
                           match=r"^f_end must be > 0, got -1\.0$"):
            v_chain(np.array([1.0, -1.0]), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="at least one segment"):
            v_chain(np.ones(2), np.ones((2, 0)))

    @pytest.mark.parametrize("call, match", [
        (lambda: v_chain(math.inf, [1.0]), r"^f_end must be finite, got inf$"),
        (lambda: v_chain(np.ones(2), [[1.0, 1.0], [1.0, math.inf]]),
         r"^f_segment_1 must be finite, got inf$"),
        (lambda: gain_indicator(np.array([1.0, math.inf]), 1.0),
         r"^f_end must be finite, got inf$"),
    ])
    def test_an_infinite_fi_is_refused(self, call, match):
        # an FI that overflowed to inf is refused: its inverse 0 would
        # compose into a finite witness
        with pytest.raises(NonPositiveFiError, match=match):
            call()


class TestResistanceOverflow:
    """A positive FI whose inverse, or a sum of inverses, overflows is
    refused (no warning) instead of composing to an infinite witness."""

    @pytest.mark.parametrize("call, match", [
        (lambda: v_path(1.0, 1e-308, 1e-308),
         r"^the sum of 1/F over f_ab, f_ac, f_cb overflows$"),
        (lambda: classical_benchmark_path(1e-308, 1e-308),
         r"^the sum of 1/F over f_ac, f_cb overflows$"),
        (lambda: v_chain(1.0, [1e-308] * 3),
         r"^the sum of 1/F over f_end, f_segment overflows$"),
        (lambda: v_path(1.0, 3e-310, 1.0), r"^1/F overflows for f_ac$"),
        (lambda: classical_benchmark_path(np.ones(3),
                                          np.array([1.0, 3e-310, 1.0])),
         r"^1/F overflows for f_cb$"),
        (lambda: v_chain(np.ones(2), [[1.0, 1.0], [1.0, 3e-310]]),
         r"^1/F overflows for f_segment$"),
    ])
    def test_refused(self, call, match):
        with pytest.raises(ResistanceOverflowError, match=match):
            call()

    def test_largest_finite_inverses_pass(self):
        assert v_path(1.0, 1e-308, 1.0) == pytest.approx(-1e308)
        assert classical_benchmark_path(1e-308, 1.0) == pytest.approx(1e-308)


class TestSplitOptimizedBenchmark:
    def test_constant_fi_prefers_symmetric_split(self):
        f, lam = split_optimized_benchmark(IDEAL_MODEL, 1.7)
        assert lam == 0.5
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_no_live_split_raises(self):
        # gamma = 1e6 damps every segment FI below SPLIT_FI_FLOOR
        with pytest.raises(OptimizationError, match="vanishes for every"):
            split_optimized_benchmark(NoisyFringeModel(NoisyFringeParams(1e6)),
                                      1.0)

    def test_golden_configuration(self):
        model = NoisyFringeModel(GOLDEN)
        f, lam = split_optimized_benchmark(model, T)
        assert lam == pytest.approx(0.5, abs=1e-6)
        assert f == pytest.approx(0.3528814390088686, rel=1e-10)

    def test_matches_dense_scan_off_center(self):
        # at gamma=0.25, T=2*pi the optimal split is genuinely asymmetric
        model = NoisyFringeModel(GOLDEN)
        t_total = 2 * math.pi
        f, lam = split_optimized_benchmark(model, t_total)

        lams = np.linspace(1e-7, 1 - 1e-7, 400001)
        f1 = model.fi(lams * t_total)
        f2 = model.fi((1 - lams) * t_total)
        with np.errstate(divide="ignore"):
            bench = 1.0 / (1.0 / f1 + 1.0 / f2)
        i = int(np.argmax(bench))
        assert f == pytest.approx(float(bench[i]), rel=1e-8)
        # the objective is symmetric about 0.5, so accept either mirror
        assert min(abs(lam - lams[i]), abs(1 - lam - lams[i])) < 1e-4
        assert abs(lam - 0.5) > 0.1

    def test_invalid_total(self):
        for total in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                split_optimized_benchmark(IDEAL_MODEL, total)
            with pytest.raises(ValueError):
                k_chain_gain(IDEAL_MODEL, total, 2)
            with pytest.raises(ValueError):
                gamma_crossing(GOLDEN, total, 4)
        # k is an integral value >= 2; an integral float acts as that int
        for k in (2.5, 1.0, math.nan, math.inf, "4", 10 ** 6 + 1):
            with pytest.raises(ValueError):
                k_chain_gain(IDEAL_MODEL, T, k)
            with pytest.raises(ValueError):
                gamma_crossing(GOLDEN, T, k)
        assert_same_report(k_chain_gain(IDEAL_MODEL, T, 4.0),
                           k_chain_gain(IDEAL_MODEL, T, 4))
        assert gamma_crossing(GOLDEN, T, 4.0) == gamma_crossing(GOLDEN, T, 4)


class TestKChainGain:
    def test_golden_numbers(self):
        model = NoisyFringeModel(GOLDEN)
        report = k_chain_gain(model, T, 4)
        assert len(report.segments) == 4
        assert report.f_end == pytest.approx(0.4201925785491422, abs=1e-15)
        assert report.f_segments[0] == pytest.approx(0.8064913766408359,
                                                     abs=1e-15)
        assert report.v == pytest.approx(-2.5798942830008977, abs=1e-13)
        assert report.gamma_ratio == pytest.approx(2.0840524311583377,
                                                   abs=1e-13)

    def test_report_internal_consistency(self):
        model = NoisyFringeModel(GOLDEN)
        report = k_chain_gain(model, T, 3)
        assert report.gamma_ratio == pytest.approx(
            report.f_end / report.f_benchmark, rel=1e-14)
        assert sum(report.segments) == pytest.approx(T, abs=1e-12)
        # violation (v < 0) iff gain ratio above 1 iff indicator below 0
        assert (report.v < 0) == (report.gamma_ratio > 1)
        assert (report.v < 0) == (
            gain_indicator(report.f_end, report.f_benchmark) < 0)

    def test_constant_fi_chain(self):
        for k in (2, 5, 9):
            report = k_chain_gain(IDEAL_MODEL, 1.3, k)
            assert report.v == pytest.approx(-(k - 1), rel=1e-12)
            assert report.gamma_ratio == pytest.approx(k, rel=1e-12)

    def test_optimized_partition_two_segments(self):
        model = NoisyFringeModel(GOLDEN)
        equal = k_chain_gain(model, 2 * math.pi, 2)
        optimized = k_chain_gain(model, 2 * math.pi, 2, partition="optimized")
        assert optimized.f_benchmark >= equal.f_benchmark - 1e-12
        assert optimized.segments[0] != optimized.segments[1]
        # one FI per angle, as the layout of v_chain
        assert optimized.f_segments.tolist() == [
            model.fi(a) for a in optimized.segments.tolist()]
        assert v_chain(optimized.f_end, optimized.f_segments) == optimized.v

    def test_partition_validation(self):
        model = NoisyFringeModel(GOLDEN)
        with pytest.raises(ValueError):
            k_chain_gain(model, T, 1)
        with pytest.raises(ValueError):
            k_chain_gain(model, T, 4, partition="optimized")
        with pytest.raises(ValueError):
            k_chain_gain(model, T, 2, partition="bogus")
        rates = NoisyFringeModel(NoisyFringeParams(gamma=np.array([0.1, 0.2])))
        with pytest.raises(ValueError, match="k=2 and one rate"):
            k_chain_gain(rates, T, 2, partition="optimized")

    def test_scalar_rate_report_types(self):
        report = k_chain_gain(NoisyFringeModel(GOLDEN), T, 4)
        assert type(report.v) is np.float64
        assert all(type(x) is float for x in (
            report.f_end, report.f_benchmark, report.gamma_ratio))
        for x in (report.f_segments, report.segments):
            assert (type(x), x.dtype, x.shape) == (np.ndarray, np.float64, (4,))

    @pytest.mark.parametrize("k", [2, 7, 64, 1000, 4099])
    def test_rate_columns_equal_one_rate_reports(self, k):
        rng = np.random.default_rng(k)
        gammas = np.append(rng.uniform(0.0, 1.5, size=12), 0.0)
        eps_r, t_total = rng.uniform(0.0, 0.3), rng.uniform(0.2, 1.5)
        report = k_chain_gain(NoisyFringeModel(NoisyFringeParams(
            gamma=gammas, epsilon_r=eps_r)), t_total, k)
        assert report.segments.shape == (k,)
        assert report.f_segments.shape == (gammas.size, k)
        for i, gamma in enumerate(gammas.tolist()):
            one = k_chain_gain(NoisyFringeModel(NoisyFringeParams(
                gamma=gamma, epsilon_r=eps_r)), t_total, k)
            assert (report.v[i], report.f_end[i], report.f_benchmark[i],
                    report.gamma_ratio[i]) == (
                one.v, one.f_end, one.f_benchmark, one.gamma_ratio)
            assert np.array_equal(report.f_segments[i], one.f_segments)
            assert np.array_equal(report.segments, one.segments)

    def test_rate_table_sums_like_one_rate(self):
        # the K inverses of all 29 rates are summed over one broadcast view:
        # every column still equals its one-rate report
        gammas = np.linspace(0.0, 0.6, 29)
        report = k_chain_gain(NoisyFringeModel(NoisyFringeParams(
            gamma=gammas, epsilon_r=0.02)), T, 7)
        for i, gamma in enumerate(gammas.tolist()):
            one = k_chain_gain(NoisyFringeModel(NoisyFringeParams(
                gamma=gamma, epsilon_r=0.02)), T, 7)
            assert (report.v[i], report.f_benchmark[i]) == (
                one.v, one.f_benchmark)

    def test_rates_of_any_shape(self):
        # rates on two axes keep their order: row i, column j is the
        # one-rate report of gammas[i, j]
        gammas = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        report = k_chain_gain(NoisyFringeModel(NoisyFringeParams(gammas)),
                              1.0, 4)
        for i, j in np.ndindex(gammas.shape):
            one = k_chain_gain(NoisyFringeModel(NoisyFringeParams(
                float(gammas[i, j]))), 1.0, 4)
            assert report.v[i, j] == one.v
            assert np.array_equal(report.f_segments[i, j], one.f_segments)

    @pytest.mark.parametrize("k", [2, 7, 64, 1000, 4099, 10 ** 5])
    def test_segments_are_a_view_on_the_last_axis(self, k):
        # the K segment FIs are a read-only view of the one evaluated FI per
        # rate, laid out as v_chain reads them
        gammas = np.random.default_rng(k).uniform(0.0, 1.5, size=(3, 5))
        report = k_chain_gain(NoisyFringeModel(NoisyFringeParams(
            gamma=gammas, epsilon_r=0.02)), T, k)
        assert report.f_segments.shape == (3, 5, k)
        assert report.f_segments.strides[-1] == 0
        assert not report.f_segments.flags.writeable
        assert len(report.segments) == k
        assert (v_chain(report.f_end, report.f_segments).tobytes()
                == report.v.tobytes())

    def test_zero_segment_fi_of_one_rate_raises(self):
        # at gamma = 0 the segment angle pi/2 sits at a fringe extreme
        model = NoisyFringeModel(NoisyFringeParams(
            gamma=np.array([0.6, 0.3, 0.0]), epsilon_r=0.02,
            vartheta0=math.pi / 2))
        with pytest.raises(NonPositiveFiError,
                           match=r"^f_segment_0 must be > 0, got 0\.0$"):
            k_chain_gain(model, math.pi, 2)


def reference_crossing(base, t_total, k, gamma_range=(0.0, 2.0),
                       model_cls=NoisyFringeModel):
    """Scalar scan of gamma_range and bisection: one model per gamma, one
    midpoint per step.  On gamma_range = (0.0, gamma_max), gamma_crossing
    must return the same float and raise the same errors."""
    if k < 2:
        raise ValueError(f"chain needs k >= 2 segments, got {k}")
    if not (math.isfinite(t_total) and t_total > 0.0):
        raise ValueError(f"need a finite t_total > 0, got {t_total}")

    def excess(gamma):
        m = model_cls(NoisyFringeParams(
            gamma=gamma, epsilon_r=base.epsilon_r, vartheta0=base.vartheta0))
        f_segment = float(m.fi(t_total / k))
        if not f_segment > 0.0:
            raise NonPositiveFiError(f"f_segment must be > 0, got {f_segment}")
        return float(m.fi(t_total)) * k / f_segment - 1.0

    lo, hi = gamma_range
    grid = np.linspace(lo, hi, 64)
    vals = np.array([excess(g) for g in grid])
    if vals[0] <= 0.0:
        raise NoCrossingError(f"Gamma_K does not start above 1 at gamma = {lo}")
    sign_change = np.nonzero(vals[:-1] * vals[1:] <= 0.0)[0]
    if sign_change.size == 0:
        raise NoCrossingError(
            f"Gamma_K stays above 1 on [{lo}, {hi}]; no crossing")
    i = int(sign_change[0])
    a, b = float(grid[i]), float(grid[i + 1])
    while b - a > 1e-8 and a < 0.5 * (a + b) < b:
        mid = 0.5 * (a + b)
        a, b = (mid, b) if excess(mid) > 0.0 else (a, mid)
    return 0.5 * (a + b)


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (ValueError, NoCrossingError, NonPositiveFiError) as exc:
        return type(exc), str(exc)


def _dead_segment_model(t_segment, dead):
    """Noisy fringe whose FI at t_segment is 0 for the gammas in `dead`."""
    class DeadSegment(NoisyFringeModel):
        def fi(self, theta):
            f = super().fi(theta)
            if theta != t_segment:
                return f
            return np.where(dead(np.asarray(self.params.gamma)), 0.0, f)
    return DeadSegment


class TestGammaCrossing:
    @pytest.mark.parametrize("gamma_range",
                             [(0.0, 2.0), (0.0, 0.5), (0.0, 7.0)])
    @pytest.mark.parametrize("t_total", [math.pi / 2, 1.0, 2.5])
    @pytest.mark.parametrize("eps_r", [0.0, 0.02, 0.07])
    def test_bit_identical_to_scalar_bisection(self, eps_r, t_total,
                                               gamma_range):
        base = NoisyFringeParams(gamma=0.0, epsilon_r=eps_r)
        for k in range(2, 8):
            assert (_outcome(gamma_crossing, base, t_total, k, gamma_range[1])
                    == _outcome(reference_crossing, base, t_total, k,
                                gamma_range))

    @pytest.mark.parametrize("t_total, gamma_range, gamma_star_k4", [
        (1e-30, (0.0, 1e30), 3.4160607106916724e+29),
        (1e-100, (0.0, 1e100), 3.416060710691672e+99)])
    def test_bit_identical_where_the_bracket_runs_out_of_floats(
            self, t_total, gamma_range, gamma_star_k4):
        # float spacing near gamma_star is far above 1e-8: bisection ends
        # when the midpoint is one of the bracket's ends
        base = NoisyFringeParams(gamma=0.0, epsilon_r=0.02)
        for k in (2, 4, 7):
            assert (gamma_crossing(base, t_total, k, gamma_range[1])
                    == reference_crossing(base, t_total, k, gamma_range))
        assert gamma_crossing(base, t_total, 4,
                              gamma_range[1]) == gamma_star_k4

    def test_zero_segment_fi_raises_only_where_scalar_bisection_does(
            self, monkeypatch):
        base = NoisyFringeParams(gamma=0.0, epsilon_r=0.02)
        gamma_star = reference_crossing(base, T, 4)
        # first bracket [grid[13], grid[14]]; its first midpoint lies below
        # gamma_star, so bisection never evaluates the half below it
        grid = np.linspace(0.0, 2.0, 64)
        a, b = grid[13], grid[14]
        mid = 0.5 * (a + b)
        assert a < mid < gamma_star < b
        off_path = _dead_segment_model(T / 4, lambda g: (g > a) & (g < mid))
        monkeypatch.setattr("cfii.witness.NoisyFringeModel", off_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gamma_crossing(base, T, 4) == gamma_star
        assert reference_crossing(base, T, 4, model_cls=off_path) == gamma_star

        on_path = _dead_segment_model(T / 4, lambda g: g == mid)
        monkeypatch.setattr("cfii.witness.NoisyFringeModel", on_path)
        expected = _outcome(reference_crossing, base, T, 4, (0.0, 2.0),
                            on_path)
        assert expected == (NonPositiveFiError,
                            "f_segment must be > 0, got 0.0")
        assert _outcome(gamma_crossing, base, T, 4) == expected

        monkeypatch.undo()
        expected = _outcome(reference_crossing, base, 1e-300, 4)
        assert expected == (NonPositiveFiError,
                            "f_segment must be > 0, got 0.0")
        assert _outcome(gamma_crossing, base, 1e-300, 4) == expected

    def test_golden_crossing_location(self):
        base = NoisyFringeParams(gamma=0.0, epsilon_r=0.02, vartheta0=0.0)
        gamma_star = gamma_crossing(base, T, 4)
        assert gamma_star == pytest.approx(0.44252088963544078, abs=1e-6)

    @pytest.mark.parametrize("eps_r", [0.0, 0.02, 0.07])
    @pytest.mark.parametrize("k", range(2, 8))
    def test_crossing_is_a_root_of_the_excess(self, k, eps_r):
        base = NoisyFringeParams(gamma=0.0, epsilon_r=eps_r, vartheta0=0.0)
        gamma_star = gamma_crossing(base, T, k)

        def excess(gamma):
            model = NoisyFringeModel(NoisyFringeParams(
                gamma=gamma, epsilon_r=eps_r, vartheta0=0.0))
            return float(model.fi(T)) * k / float(model.fi(T / k)) - 1.0

        # Brent's method on the first sign-change bracket of the same scan
        grid = np.linspace(0.0, 2.0, 64)
        i = next(j for j in range(63) if excess(grid[j + 1]) <= 0.0)
        reference = brentq(excess, grid[i], grid[i + 1], xtol=1e-12)
        assert gamma_star == pytest.approx(reference, abs=1e-8)
        assert excess(gamma_star) == pytest.approx(0.0, abs=1e-7)

    def test_range_that_starts_below_one(self):
        # Gamma_2(0) = F(3) 2 / F(1.5) <= 1 on the undamped fringe
        with pytest.raises(NoCrossingError, match=(
                r"^Gamma_K does not start above 1 at gamma = 0\.0$")):
            gamma_crossing(NoisyFringeParams(0.0, 0.02), 3.0, 2)

    def test_no_crossing_in_narrow_range(self):
        base = NoisyFringeParams(gamma=0.0, epsilon_r=0.02, vartheta0=0.0)
        with pytest.raises(NoCrossingError, match=(
                r"^Gamma_K stays above 1 on \[0\.0, 0\.1\]; no crossing$")):
            gamma_crossing(base, T, 4, gamma_max=0.1)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            gamma_crossing(GOLDEN, T, 1)


class TestNsitSeparationDemo:
    def test_demo_holds_and_witness_is_minus_one(self):
        nsit_holds, v = nsit_separation_demo()
        assert nsit_holds is True
        assert v == pytest.approx(-1.0, abs=1e-12)

    def test_invasive_measurement_breaks_nsit(self):
        # a projective sigma_z readout at theta/2 collapses the state, so
        # the final p0 becomes cos^4(theta/4) + sin^4(theta/4) (Kofler and
        # Brukner, PRA 87, 052115): the comparison must reject it
        thetas = np.linspace(0.0, 2.0 * math.pi, 1000)
        p_invasive = np.cos(thetas / 4) ** 4 + np.sin(thetas / 4) ** 4
        assert _nsit_holds(IDEAL_MODEL.p0(thetas), IDEAL_MODEL.p0(thetas))
        assert not _nsit_holds(IDEAL_MODEL.p0(thetas), p_invasive)
