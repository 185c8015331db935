"""Tests for path witnesses, benchmarks, chain gains, and the crossing."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from cfii.errors import (DegenerateBenchmarkError, NoCrossingError,
                         NonPositiveFiError)
from cfii.models import (NoisyFringeModel, NoisyFringeParams,
                         QubitFringeModel, QubitPreparation)
from cfii.witness import (classical_benchmark_path, gain_indicator,
                          gamma_crossing, improvement_factor, k_chain_gain,
                          nsit_separation_demo, split_optimized_benchmark,
                          v_chain, v_path)
from cfii.witness import _nsit_holds

GOLDEN = NoisyFringeParams(gamma=0.25, epsilon_r=0.02, vartheta0=0.0)
T = math.pi / 2
IDEAL_MODEL = QubitFringeModel(QubitPreparation(vartheta=0.0,
                                                varphi=math.pi / 2))


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
        assert improvement_factor(-1.0, 2.0) == pytest.approx(2.0, abs=1e-15)

    def test_improvement_factor_errors(self):
        with pytest.raises(NonPositiveFiError):
            improvement_factor(-1.0, 0.0)
        with pytest.raises(DegenerateBenchmarkError):
            improvement_factor(-2.0, 2.0)


class TestSplitOptimizedBenchmark:
    def test_constant_fi_prefers_symmetric_split(self):
        f, lam = split_optimized_benchmark(IDEAL_MODEL, 1.7)
        assert lam == 0.5
        assert f == pytest.approx(0.5, abs=1e-12)

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
        for k in (2.5, 1.0, math.nan, math.inf, "4"):
            with pytest.raises(ValueError):
                k_chain_gain(IDEAL_MODEL, T, k)
            with pytest.raises(ValueError):
                gamma_crossing(GOLDEN, T, k)
        assert k_chain_gain(IDEAL_MODEL, T, 4.0) == k_chain_gain(IDEAL_MODEL,
                                                                 T, 4)
        assert gamma_crossing(GOLDEN, T, 4.0) == gamma_crossing(GOLDEN, T, 4)


class TestKChainGain:
    def test_golden_numbers(self):
        model = NoisyFringeModel(GOLDEN)
        report = k_chain_gain(model, T, 4)
        assert report.k == 4
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
        assert (report.v < 0) == (report.g_indicator < 0)

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

    def test_partition_validation(self):
        model = NoisyFringeModel(GOLDEN)
        with pytest.raises(ValueError):
            k_chain_gain(model, T, 1)
        with pytest.raises(ValueError):
            k_chain_gain(model, T, 4, partition="optimized")
        with pytest.raises(ValueError):
            k_chain_gain(model, T, 2, partition="bogus")


def reference_crossing(base, t_total, k, gamma_range=(0.0, 2.0),
                       model_cls=NoisyFringeModel):
    """Scalar scan and bisection: one model per gamma, one midpoint per
    step.  gamma_crossing must return the same float and raise the same
    errors."""
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
    while b - a > 1e-8:
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
            args = (base, t_total, k, gamma_range)
            assert (_outcome(gamma_crossing, *args)
                    == _outcome(reference_crossing, *args))

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

    def test_no_crossing_in_narrow_range(self):
        base = NoisyFringeParams(gamma=0.0, epsilon_r=0.02, vartheta0=0.0)
        with pytest.raises(NoCrossingError):
            gamma_crossing(base, T, 4, gamma_range=(0.0, 0.1))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            gamma_crossing(GOLDEN, T, 1)


class TestNsitSeparationDemo:
    def test_demo_holds_and_witness_is_minus_one(self):
        nsit_holds, v = nsit_separation_demo()
        assert nsit_holds is True
        assert v == pytest.approx(-1.0, abs=1e-12)

    def test_smaller_grid(self):
        nsit_holds, v = nsit_separation_demo(grid_points=100)
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
