"""Tests for the binary fringe and categorical outcome models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfii.errors import CfiiError, DegenerateModelError
from cfii.estimate import ContextSample, analytic_certification, certify_vk
from cfii.models import (CategoricalModel, NoisyFringeModel,
                         NoisyFringeParams, QubitFringeModel,
                         QubitPreparation, categorical_fi)
from cfii.witness import k_chain_gain, split_optimized_benchmark

IDEAL = QubitPreparation(vartheta=0.0, varphi=math.pi / 2)
TILTED = QubitPreparation(vartheta=0.7 * math.pi, varphi=0.3 * math.pi)
GOLDEN = NoisyFringeParams(gamma=0.25, epsilon_r=0.02, vartheta0=0.0)


def fd_log_likelihood_fi(model, theta, h=1e-6):
    """Finite-difference oracle: F = sum_x p_x (d ln p_x / d theta)^2."""
    total = 0.0
    for p_fn in (model.p0, model.p1):
        p = float(p_fn(theta))
        dlogp = (math.log(float(p_fn(theta + h)))
                 - math.log(float(p_fn(theta - h)))) / (2 * h)
        total += p * dlogp ** 2
    return total


class TestQubitFringe:
    def test_initial_alignment(self):
        assert QubitFringeModel(IDEAL).z(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_reduces_to_shifted_cosine_at_equator(self):
        prep = QubitPreparation(vartheta=0.4, varphi=math.pi / 2)
        thetas = np.linspace(-3.0, 7.0, 41)
        np.testing.assert_allclose(QubitFringeModel(prep).z(thetas),
                                   np.cos(thetas - 0.4), atol=1e-14)

    def test_tilted_value_frozen(self):
        # direct trigonometric evaluation of
        # cos(0.7 pi) cos(1) + sin(0.7 pi) sin(0.3 pi) sin(1)
        assert QubitFringeModel(TILTED).z(1.0) == pytest.approx(
            0.23316818252457044, abs=1e-15)

    def test_tilted_fi_frozen_and_fd_oracle(self):
        model = QubitFringeModel(TILTED)
        assert QubitFringeModel(TILTED).fi(1.0) == pytest.approx(
            0.7608721139502456, abs=1e-14)
        assert QubitFringeModel(TILTED).fi(1.0) == pytest.approx(
            fd_log_likelihood_fi(model, 1.0), rel=1e-8)

    def test_constant_fi_at_equator(self):
        thetas = np.linspace(0.001, 2 * math.pi, 997)
        np.testing.assert_allclose(QubitFringeModel(IDEAL).fi(thetas), 1.0,
                                   atol=1e-10)

    def test_removable_singularity_keeps_fi_one(self):
        # z = 1 exactly at theta = vartheta; the continuous extension applies
        prep = QubitPreparation(vartheta=0.3, varphi=math.pi / 2)
        assert QubitFringeModel(prep).fi(0.3) == pytest.approx(1.0, abs=1e-12)
        grid = np.array([0.3 - 1e-9, 0.3, 0.3 + 1e-9])
        np.testing.assert_allclose(QubitFringeModel(prep).fi(grid), 1.0,
                                   atol=1e-10)

    def test_preparation_validation(self):
        with pytest.raises(ValueError):
            QubitPreparation(vartheta=-0.1, varphi=0.0)
        with pytest.raises(ValueError):
            QubitPreparation(vartheta=0.5, varphi=2 * math.pi)


class TestNoisyFringe:
    def test_node_of_the_fringe(self):
        assert NoisyFringeModel(GOLDEN).z(math.pi / 2) == pytest.approx(
            0.0, abs=1e-15)

    def test_ideal_limit(self):
        clean = NoisyFringeParams(gamma=0.0, epsilon_r=0.0, vartheta0=0.0)
        assert NoisyFringeModel(clean).z(0.0) == pytest.approx(1.0, abs=1e-15)
        thetas = np.linspace(0.01, 3.0, 50)
        np.testing.assert_allclose(NoisyFringeModel(clean).fi(thetas), 1.0,
                                   atol=1e-12)

    def test_damped_value_frozen(self):
        # 0.96 exp(-0.25 pi/8) cos(pi/8)
        assert NoisyFringeModel(GOLDEN).z(math.pi / 8) == pytest.approx(
            0.8039884650529762, abs=1e-15)

    def test_golden_fi_values(self):
        assert NoisyFringeModel(GOLDEN).fi(math.pi / 2) == pytest.approx(
            0.4201925785491422, abs=1e-15)
        assert NoisyFringeModel(GOLDEN).fi(math.pi / 8) == pytest.approx(
            0.8064913766408359, abs=1e-15)

    def test_fd_oracle_on_a_grid(self):
        model = NoisyFringeModel(GOLDEN)
        for theta in (0.2, 0.9, 1.7, 3.1, 5.0):
            assert float(model.fi(theta)) == pytest.approx(
                fd_log_likelihood_fi(model, theta), rel=1e-7)

    def test_negative_angle_rejected(self):
        model = NoisyFringeModel(GOLDEN)
        with pytest.raises(ValueError):
            model.z(-0.1)
        with pytest.raises(ValueError):
            model.fi(np.array([0.5, -0.5]))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            NoisyFringeParams(gamma=-0.1)
        with pytest.raises(ValueError):
            NoisyFringeParams(gamma=0.1, epsilon_r=0.5)
        assert GOLDEN.contrast == pytest.approx(0.96)
        for bad in (math.nan, math.inf, -0.5):
            with pytest.raises(ValueError, match=f"got {bad}$"):
                NoisyFringeParams(gamma=np.array([0.0, 0.3, bad, -1.0]))
        NoisyFringeParams(gamma=np.array([0.0, 0.3, 2.0]))

    @pytest.mark.parametrize("eps_r", [0.0, 0.02])
    @pytest.mark.parametrize("vartheta0", [0.0, 0.7])
    def test_gamma_grid_matches_scalar_models(self, eps_r, vartheta0):
        # gamma = 0 and eps_r = 0 at theta = vartheta0 (+ pi) is the
        # removable singularity z^2 = 1; at theta = vartheta0 = 0, z = 1 for
        # every gamma but zdot = -gamma, so fi refuses the gamma > 0 points
        gammas = np.array([0.0, 1e-9, 0.25, 1.0, 3.0])
        grid = NoisyFringeModel(NoisyFringeParams(
            gamma=gammas, epsilon_r=eps_r, vartheta0=vartheta0))
        for theta in (0.0, vartheta0, vartheta0 + math.pi, 0.4, 2.9):
            irregular = ([0.25, 1.0, 3.0]
                         if theta == vartheta0 == eps_r == 0.0 else [])
            for name in ("z", "zdot", "zddot", "fi"):
                scalar, refused = [], []
                for g in gammas.tolist():
                    model = NoisyFringeModel(NoisyFringeParams(
                        gamma=g, epsilon_r=eps_r, vartheta0=vartheta0))
                    try:
                        scalar.append(getattr(model, name)(theta))
                    except DegenerateModelError:
                        refused.append(g)
                assert refused == (irregular if name == "fi" else []), (
                    name, theta)
                if refused:
                    with pytest.raises(DegenerateModelError,
                                       match="^irregular fringe point"):
                        getattr(grid, name)(theta)
                else:
                    assert (getattr(grid, name)(theta).tobytes()
                            == np.array(scalar).tobytes()), (name, theta)

    # (gamma, theta, z and zdot vanish, the FI): at 1e308 gamma theta
    # overflows; at 1e300 zdot^2 does; at 1e40 F is finite but F^4 is not
    @pytest.mark.parametrize("gamma, theta, dark, f", [
        (1e308, 2.0, True, 0.0), (1e300, 1e-300, False, math.inf),
        (1e40, 1e-45, False, None)])
    @pytest.mark.parametrize("shape", ["scalar", "theta array", "gamma array"])
    def test_extreme_rates_take_their_limits(self, gamma, theta, dark, f,
                                             shape):
        # every floating-point event numpy would report is an error here;
        # underflow to 0 is the limit itself and numpy never reports it
        grid = np.array([theta, theta]) if shape == "theta array" else theta
        model = NoisyFringeModel(NoisyFringeParams(
            gamma=np.array([gamma, gamma]) if shape == "gamma array" else gamma,
            epsilon_r=0.02))
        with np.errstate(all="raise", under="ignore"):
            z, zdot, fi = (getattr(model, name)(grid)
                           for name in ("z", "zdot", "fi"))
            assert np.isfinite([z, zdot]).all()
            assert np.all(z == 0.0) == np.all(zdot == 0.0) == dark
            assert np.all(fi == f) if f is not None else np.isfinite(fi).all()
            calls = [(k_chain_gain, 4), (analytic_certification, 4, 100)]
            if shape != "gamma array":  # one rate only
                calls.append((split_optimized_benchmark,))
            for fn, *args in calls:
                # a zero or infinite F, and an F^4 past the largest float in
                # the certificate's SE, are refused
                refused = f is not None or fn is analytic_certification
                try:
                    fn(model, theta, *args)
                except CfiiError:
                    assert refused, fn.__name__
                else:
                    assert not refused, fn.__name__


class TestScores:
    """The scores (s0, s1) that _moments gives, d ln p_x / d theta."""

    def test_mid_fringe_symmetry(self):
        s0, s1 = QubitFringeModel(IDEAL)._moments(math.pi / 2)[:2]
        assert s0 == pytest.approx(-1.0, abs=1e-12)
        assert s1 == pytest.approx(1.0, abs=1e-12)

    def test_noisy_score_fd_oracle(self):
        model = NoisyFringeModel(GOLDEN)
        h = 1e-7
        theta = math.pi / 8
        fd = (math.log(float(model.p0(theta + h)))
              - math.log(float(model.p0(theta - h)))) / (2 * h)
        s0 = model._moments(theta)[0]
        assert s0 == pytest.approx(fd, rel=1e-6)
        assert s0 == pytest.approx(-0.2960218719935285, abs=1e-14)

    def test_degenerate_probability_raises(self):
        model = QubitFringeModel(IDEAL)
        # z = 1 at theta = 0, so outcome 1 has zero probability: its score
        # 0/0 is NaN, and the plug-in stage refuses it
        s0, s1 = model._moments(0.0)[:2]
        assert s0 == 0.0 and math.isnan(s1)
        sample = ContextSample(theta=0.0, n=10, n0=10)
        with pytest.raises(DegenerateModelError, match=(
                r"^outcome 1 has zero probability; score undefined$")):
            certify_vk(sample, [sample], model)


class TestCategorical:
    def test_parameter_independent_model(self):
        model = CategoricalModel(np.array([0.5, 0.5]), np.array([0.0, 0.0]))
        assert categorical_fi(model) == 0.0

    def test_embedded_binary_fringe(self):
        binary = QubitFringeModel(IDEAL)
        p0, zdot = float(binary.p0(1.234)), float(binary.zdot(1.234))
        cat = CategoricalModel([p0, 1.0 - p0], [zdot / 2, -zdot / 2])
        assert categorical_fi(cat) == pytest.approx(1.0, abs=1e-12)

    def test_five_outcome_fd_oracle(self):
        rng = np.random.default_rng(11)
        base = rng.dirichlet(np.ones(5))
        direction = rng.normal(size=5)
        direction -= direction.mean()
        direction *= 0.05

        def p_of(t):
            return base + t * direction

        model = CategoricalModel(p_of(0.0), direction)
        h = 1e-6
        fd = sum(
            p * ((math.log(p_of(h)[i]) - math.log(p_of(-h)[i])) / (2 * h)) ** 2
            for i, p in enumerate(base))
        assert categorical_fi(model) == pytest.approx(fd, rel=1e-6)

    def test_irregular_model_raises(self):
        model = CategoricalModel(np.array([1.0, 0.0]), np.array([-0.5, 0.5]))
        with pytest.raises(DegenerateModelError):
            categorical_fi(model)

    def test_dead_outcome_with_zero_derivative_ok(self):
        model = CategoricalModel(np.array([0.5, 0.5, 0.0]),
                                 np.array([0.25, -0.25, 0.0]))
        expected = 0.25 ** 2 / 0.5 * 2
        assert categorical_fi(model) == pytest.approx(expected, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            CategoricalModel(np.array([0.6, 0.6]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            CategoricalModel(np.array([1.2, -0.2]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            CategoricalModel(np.array([0.5, 0.5]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            CategoricalModel(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="^p and pdot must be 1-D arrays"):
            CategoricalModel(np.array([0.5, 0.5]), np.array([0.0, 0.0, 0.0]))

    def test_checked_arrays_cannot_change(self):
        p, pdot = np.array([0.5, 0.5]), np.array([0.1, -0.1])
        model = CategoricalModel(p, pdot)
        # the model holds its own copies: the caller's arrays stay writable
        p[:] = [2.0, -1.0]
        pdot[:] = np.nan
        assert categorical_fi(model) == pytest.approx(0.04, rel=1e-15)
        for values in (model.p, model.pdot):
            assert values.dtype == np.float64 and not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 2.0
        with pytest.raises(AttributeError):
            model.p = np.array([2.0, -1.0])

    def test_product_additivity(self):
        noisy, tilted = NoisyFringeModel(GOLDEN), QubitFringeModel(TILTED)
        p, q = float(noisy.p0(0.8)), float(tilted.p0(1.1))
        dp, dq = float(noisy.zdot(0.8)) / 2, float(tilted.zdot(1.1)) / 2
        m1 = CategoricalModel([p, 1.0 - p], [dp, -dp])
        m2 = CategoricalModel([q, 1.0 - q], [dq, -dq])
        # independent components: p(x, y) = p1(x) p2(y), differentiated by
        # the product rule
        outer = np.multiply.outer
        joint = CategoricalModel(
            outer(m1.p, m2.p).ravel(),
            (outer(m1.pdot, m2.p) + outer(m1.p, m2.pdot)).ravel())
        assert joint.m == 4
        assert categorical_fi(joint) == pytest.approx(
            categorical_fi(m1) + categorical_fi(m2), abs=1e-10)


ANGLES = st.floats(min_value=0.01, max_value=6.0,
                   allow_nan=False, allow_infinity=False)
PREPS = st.tuples(
    st.floats(min_value=0.05, max_value=math.pi - 0.05),
    st.floats(min_value=0.05, max_value=2 * math.pi - 0.05),
)


class TestBinaryModelInvariants:
    @given(theta=ANGLES, prep=PREPS)
    @settings(max_examples=300, deadline=None)
    def test_normalization_and_zero_mean_score(self, theta, prep):
        model = QubitFringeModel(QubitPreparation(*prep))
        p0 = float(model.p0(theta))
        p1 = float(model.p1(theta))
        assert p0 + p1 == 1.0
        if min(p0, p1) < 1e-6:
            return  # scores blow up at near-deterministic points
        s0, s1 = map(float, model._moments(theta)[:2])
        assert abs(p0 * s0 + p1 * s1) < 1e-12

    @given(theta=ANGLES, prep=PREPS)
    @settings(max_examples=300, deadline=None)
    def test_fi_equals_mean_squared_score(self, theta, prep):
        model = QubitFringeModel(QubitPreparation(*prep))
        p0 = float(model.p0(theta))
        p1 = float(model.p1(theta))
        # both routes divide by 1 - z^2 = 4 p0 p1, so roundoff in their
        # agreement grows like 1/(p0 p1); 1e-3 keeps it below the 1e-12 claim
        if min(p0, p1) < 1e-3:
            return
        s0, s1 = map(float, model._moments(theta)[:2])
        assert float(model.fi(theta)) == pytest.approx(
            p0 * s0 ** 2 + p1 * s1 ** 2, rel=1e-12, abs=1e-12)

    @given(theta=ANGLES,
           gamma=st.floats(min_value=0.0, max_value=1.5),
           eps=st.floats(min_value=0.0, max_value=0.45))
    @settings(max_examples=300, deadline=None)
    def test_noisy_fringe_same_invariants(self, theta, gamma, eps):
        model = NoisyFringeModel(NoisyFringeParams(gamma=gamma, epsilon_r=eps))
        p0 = float(model.p0(theta))
        p1 = float(model.p1(theta))
        assert p0 + p1 == 1.0
        if min(p0, p1) < 1e-3:
            return  # see the fringe-extreme roundoff note above
        s0, s1 = map(float, model._moments(theta)[:2])
        assert abs(p0 * s0 + p1 * s1) < 1e-12
        assert float(model.fi(theta)) == pytest.approx(
            p0 * s0 ** 2 + p1 * s1 ** 2, rel=1e-12, abs=1e-12)
