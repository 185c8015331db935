"""Tests for the modular softmax-tangent adversary and its optimizer."""

import math

import numpy as np
import pytest

from adversary_reference import (endpoint_fim, eval_kernels,
                                 joint_model_reference, module_fis,
                                 params_from_vector)
from cfii import adversary
from cfii.adversary import (FI_FLOOR, AdversaryParams, _backward, _forward,
                            gamma_adv, gamma_adv_gradient, optimize_restarts)
from cfii.errors import DegenerateBenchmarkError
from cfii.fim import PINV_RCOND, effective_fi
from cfii.rng import derive_rng


def random_params(rng, l, m, scale=1.0):
    return AdversaryParams(
        a=scale * rng.normal(size=l),
        a_dot=scale * rng.normal(size=l),
        d=scale * rng.normal(size=(l, m)),
        d_dot=scale * rng.normal(size=(l, m)),
    )


def closed_form_gamma(params):
    """Gamma_adv composed from the closed-form stages (None below the FI
    floor), the smaller module FI, and the condition number of the endpoint
    FIM over the eigenvalues its pseudoinverse keeps."""
    kernels = eval_kernels(params)
    f_ac, f_cb = module_fis(kernels)
    f_min = min(f_ac, f_cb)
    if f_min < FI_FLOOR:
        return None, f_min, None
    f_b = endpoint_fim(kernels)
    w = np.linalg.eigvalsh(f_b)
    w = w[w > PINV_RCOND * w[-1]]
    return (effective_fi(f_b, np.ones(2)) * (1.0 / f_ac + 1.0 / f_cb),
            f_min, w[-1] / w[0])


class TestKernels:
    def test_symmetric_point(self):
        params = AdversaryParams(a=np.zeros(3), a_dot=np.full(3, 0.7),
                                 d=np.zeros((3, 4)),
                                 d_dot=np.full((3, 4), -0.2))
        alpha, alpha_dot, beta, beta_dot = eval_kernels(params)
        np.testing.assert_allclose(alpha, 1 / 3, atol=1e-15)
        np.testing.assert_allclose(alpha_dot, 0.0, atol=1e-15)
        np.testing.assert_allclose(beta, 1 / 4, atol=1e-15)
        np.testing.assert_allclose(beta_dot, 0.0, atol=1e-15)

    def test_two_level_tangent(self):
        params = AdversaryParams(a=np.zeros(2), a_dot=np.array([1.0, -1.0]),
                                 d=np.zeros((2, 2)), d_dot=np.zeros((2, 2)))
        alpha, alpha_dot, _, _ = eval_kernels(params)
        np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(alpha_dot, [0.5, -0.5], atol=1e-15)

    def test_tangents_sum_to_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            params = random_params(rng, int(rng.integers(1, 6)),
                                   int(rng.integers(2, 6)), scale=2.0)
            alpha, alpha_dot, beta, beta_dot = eval_kernels(params)
            assert abs(alpha_dot.sum()) < 1e-14
            np.testing.assert_allclose(beta_dot.sum(axis=1), 0.0, atol=1e-14)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-14)
            np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-14)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AdversaryParams(a=np.zeros((2, 2)), a_dot=np.zeros((2, 2)),
                            d=np.zeros((2, 2)), d_dot=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            AdversaryParams(a=np.zeros(2), a_dot=np.zeros(2),
                            d=np.zeros((3, 2)), d_dot=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            AdversaryParams(a=np.zeros(2), a_dot=np.zeros(2),
                            d=np.zeros((2, 1)), d_dot=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            AdversaryParams(a=np.array([np.nan, 0.0]), a_dot=np.zeros(2),
                            d=np.zeros((2, 2)), d_dot=np.zeros((2, 2)))

    def test_checked_arrays_cannot_change(self):
        arrays = random_params(np.random.default_rng(3), 3, 4)
        given = [getattr(arrays, name).copy()
                 for name in ("a", "a_dot", "d", "d_dot")]
        params = AdversaryParams(*given)
        expected = gamma_adv(params)
        # the params hold their own copies: the caller's arrays stay writable
        for values in given:
            values[...] = np.nan
        assert gamma_adv(params) == expected
        for name in ("a", "a_dot", "d", "d_dot"):
            values = getattr(params, name)
            assert values.dtype == np.float64 and not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0] = np.nan


class TestModuleFis:
    def test_uninformative_upstream(self):
        params = AdversaryParams(a=np.array([0.3, -0.3]), a_dot=np.zeros(2),
                                 d=np.zeros((2, 3)),
                                 d_dot=np.ones((2, 3)))
        f_ac, f_cb = module_fis(eval_kernels(params))
        assert f_ac == 0.0

    def test_two_level_example(self):
        params = AdversaryParams(a=np.zeros(2), a_dot=np.array([1.0, -1.0]),
                                 d=np.zeros((2, 2)), d_dot=np.zeros((2, 2)))
        f_ac, f_cb = module_fis(eval_kernels(params))
        assert f_ac == pytest.approx(1.0, abs=1e-14)
        assert f_cb == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            params = random_params(rng, 3, 3, scale=3.0)
            f_ac, f_cb = module_fis(eval_kernels(params))
            assert f_ac >= 0.0 and f_cb >= 0.0


class TestEndpointFim:
    def test_zero_without_tangents(self):
        params = AdversaryParams(a=np.array([0.1, -0.4]), a_dot=np.zeros(2),
                                 d=np.ones((2, 3)), d_dot=np.zeros((2, 3)))
        np.testing.assert_allclose(endpoint_fim(eval_kernels(params)),
                                   0.0, atol=1e-15)

    def test_single_mediator_kills_upstream_row(self):
        params = AdversaryParams(a=np.array([0.2]), a_dot=np.array([3.0]),
                                 d=np.array([[0.1, -0.1, 0.4]]),
                                 d_dot=np.array([[1.0, 0.5, -0.5]]))
        fim = endpoint_fim(eval_kernels(params))
        np.testing.assert_allclose(fim[0, :], 0.0, atol=1e-15)
        np.testing.assert_allclose(fim[:, 0], 0.0, atol=1e-15)
        assert fim[1, 1] > 0.0

    def test_symmetric_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            params = random_params(rng, int(rng.integers(1, 5)),
                                   int(rng.integers(2, 5)), scale=2.0)
            fim = endpoint_fim(eval_kernels(params))
            assert np.max(np.abs(fim - fim.T)) < 1e-10
            assert np.min(np.linalg.eigvalsh(fim)) > -1e-10


class TestBruteForceEquivalence:
    def test_closed_forms_match_joint_model(self):
        rng = np.random.default_rng(8)
        for l in range(1, 5):
            for m in range(2, 5):
                for _ in range(3):
                    params = random_params(rng, l, m)
                    kernels = eval_kernels(params)
                    f_ac, f_cb = module_fis(kernels)
                    fim = endpoint_fim(kernels)
                    bf_ac, bf_cb, bf_fim = joint_model_reference(params)
                    assert f_ac == pytest.approx(bf_ac, abs=1e-8)
                    assert f_cb == pytest.approx(bf_cb, abs=1e-8)
                    np.testing.assert_allclose(fim, bf_fim, atol=1e-8)


class TestGammaAdv:
    def test_series_law_never_violated(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            params = random_params(rng, int(rng.integers(2, 6)),
                                   int(rng.integers(2, 6)), scale=2.0)
            try:
                gamma = gamma_adv(params)
            except DegenerateBenchmarkError:
                continue
            assert gamma <= 1.0 + 1e-9
            assert gamma >= 0.0

    def test_degenerate_benchmark_raises(self):
        params = AdversaryParams(a=np.array([0.2]), a_dot=np.array([3.0]),
                                 d=np.array([[0.1, -0.1]]),
                                 d_dot=np.array([[1.0, -0.5]]))
        with pytest.raises(DegenerateBenchmarkError):
            gamma_adv(params)

    def test_binary_endpoint_is_structurally_blind(self):
        # with m = 2 both endpoint derivative vectors are parallel, so the
        # sum direction leaves the row space and the effective FI is zero
        rng = np.random.default_rng(12)
        for _ in range(50):
            params = random_params(rng, int(rng.integers(2, 5)), 2)
            assert gamma_adv(params) == 0.0

    def test_matches_closed_form_composition(self):
        # Gamma_adv runs the batched core; the closed-form stages are its
        # reference.  An ill-conditioned endpoint FIM amplifies the roundoff
        # of the two summation orders by its condition number kappa, so the
        # 1e-14 bound grows by a few ulps of kappa * Gamma
        rng = np.random.default_rng(14)
        counts = {"floor": 0, "blind": 0, "live": 0}
        for i in range(2000):
            l = int(rng.integers(1, 6))
            m = int(rng.integers(2, 6))
            x = rng.uniform(0.3, 4.0) * rng.normal(size=2 * l + 2 * l * m)
            if i % 7 == 0:  # constant a_dot puts F_ac at the floor
                x[l:2 * l] = x[l]
            params = params_from_vector(x, l, m)
            expected, f_min, kappa = closed_form_gamma(params)
            if f_min < FI_FLOOR:
                counts["floor"] += 1
                with pytest.raises(DegenerateBenchmarkError):
                    gamma_adv(params)
                continue
            gamma = gamma_adv(params)
            if expected == 0.0:
                counts["blind"] += 1
                assert gamma == 0.0
                continue
            counts["live"] += 1
            tol = 1e-14 + 4.0 * np.finfo(float).eps * kappa * expected
            assert abs(gamma - expected) <= tol
        assert min(counts.values()) >= 200


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(16)
        worst = 0.0
        for _ in range(25):
            l = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            x = rng.normal(size=2 * l + 2 * l * m)
            blocks = gamma_adv_gradient(params_from_vector(x, l, m))
            grad = np.concatenate([g.ravel() for g in blocks])
            h = 1e-6
            fd = np.empty_like(x)
            for i in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (gamma_adv(params_from_vector(xp, l, m))
                         - gamma_adv(params_from_vector(xm, l, m))) / (2 * h)
            denom = max(1.0, float(np.abs(fd).max()))
            worst = max(worst, float(np.abs(grad - fd).max()) / denom)
        assert worst < 1e-5

    def test_zero_on_the_blind_branch(self):
        rng = np.random.default_rng(18)
        params = random_params(rng, 3, 2)
        blocks = gamma_adv_gradient(params)
        for block in blocks:
            np.testing.assert_array_equal(block, 0.0)

    def test_degenerate_benchmark_raises(self):
        params = AdversaryParams(a=np.array([0.0, 0.0]), a_dot=np.zeros(2),
                                 d=np.zeros((2, 3)),
                                 d_dot=np.ones((2, 3)))
        with pytest.raises(DegenerateBenchmarkError):
            gamma_adv_gradient(params)


class TestBatchedCore:
    def test_mixed_batch_keeps_rows_apart(self):
        # one batch: healthy rows whose endpoint FIMs differ in scale by
        # 1e12 (each row has its own eigenvalue cutoff), an FI-floor row
        # (constant a_dot gives F_ac = 0) and blind rows whose endpoint has
        # two outcomes, either with the others at exactly zero probability
        # (the p > 1e-300 mask) or merely negligible (the row-space test)
        rng = np.random.default_rng(22)
        l, m = 3, 4

        def scaled(tangent_scale):
            return AdversaryParams(
                a=rng.normal(size=l),
                a_dot=tangent_scale * rng.normal(size=l),
                d=rng.normal(size=(l, m)),
                d_dot=tangent_scale * rng.normal(size=(l, m)))

        def with_dead_outcomes(shift):
            params = scaled(1.0)
            return AdversaryParams(a=params.a, a_dot=params.a_dot,
                                   d=params.d + np.array([0, 0, shift, shift]),
                                   d_dot=params.d_dot)

        healthy = [scaled(1e-5), scaled(1.0), scaled(10.0)]
        floor = AdversaryParams(a=rng.normal(size=l), a_dot=np.full(l, 0.4),
                                d=rng.normal(size=(l, m)),
                                d_dot=rng.normal(size=(l, m)))
        zero_p = [with_dead_outcomes(-800.0) for _ in range(2)]
        tiny_p = with_dead_outcomes(-40.0)
        rows = [healthy[0], floor, zero_p[0], healthy[1], tiny_p, zero_p[1],
                healthy[2]]
        theta = np.stack([np.concatenate((p.a, p.a_dot, p.d.ravel(),
                                          p.d_dot.ravel())) for p in rows])
        gamma, degenerate, ctx = _forward(theta, l, m)
        grad = _backward(ctx)

        assert degenerate.tolist() == [p is floor for p in rows]
        for i, params in enumerate(rows):
            if params is floor or any(params is p for p in zero_p):
                assert gamma[i] == 0.0
                assert np.all(grad[i] == 0.0)
                continue
            assert abs(gamma[i] - closed_form_gamma(params)[0]) <= 1e-14
            reference = np.concatenate(
                [g.ravel() for g in gamma_adv_gradient(params)])
            assert np.max(np.abs(grad[i] - reference)) <= 1e-12
        assert gamma[4] == 0.0 and np.all(grad[4] == 0.0)
        assert min(gamma[i] for i in (0, 3, 6)) > 0.0
        with pytest.raises(DegenerateBenchmarkError):
            gamma_adv(floor)


@pytest.fixture
def evaluated(monkeypatch):
    """Every Gamma batch that `optimize_restarts` evaluates, in order.  Entry
    0 is the initialization check (one entry per draw; the seeds here draw
    once), so entry t is the iterate after t - 1 Adam steps."""
    batches = []

    def recorded(theta, l, m):
        out = _forward(theta, l, m)
        batches.append(out[0])
        return out
    monkeypatch.setattr(adversary, "_forward", recorded)
    return batches


class TestOptimizeRestarts:
    def test_zero_steps_returns_initialization_value(self):
        l, m = 3, 3
        result = optimize_restarts(l, m, n_restarts=1, steps=0, seed=77)
        theta = derive_rng(77, 5, 0).normal(size=2 * l + 2 * l * m)
        expected = gamma_adv(params_from_vector(theta, l, m))
        assert result.best_gamma == pytest.approx(expected, rel=1e-14)

    def test_short_run_improves_over_start(self):
        start = optimize_restarts(3, 3, n_restarts=2, steps=0, seed=1)
        trained = optimize_restarts(3, 3, n_restarts=2, steps=150, seed=1)
        assert trained.best_gamma >= start.best_gamma
        assert trained.best_gamma > 0.9

    def test_trajectories_and_running_max(self, evaluated):
        result = optimize_restarts(2, 3, n_restarts=3, steps=40, seed=5)
        # the initialization check and the first iterate see the same theta
        assert evaluated[0].tolist() == evaluated[1].tolist()
        trajectories = np.stack(evaluated[1:], axis=1)
        assert trajectories.shape == (3, 41)
        for trajectory, best in zip(trajectories, result.restart_gammas):
            assert best == float(trajectory.max())
            running = np.maximum.accumulate(trajectory)
            assert np.all(np.diff(running) >= 0.0)
        assert result.best_gamma == float(trajectories.max())
        assert result.best_gamma == max(result.restart_gammas)

    def test_deterministic_and_batch_width_invariant(self):
        alone = optimize_restarts(2, 3, n_restarts=1, steps=60, seed=9)
        batch = optimize_restarts(2, 3, n_restarts=4, steps=60, seed=9)
        again = optimize_restarts(2, 3, n_restarts=4, steps=60, seed=9)
        assert alone.restart_gammas[0] == batch.restart_gammas[0]
        assert batch.restart_gammas == again.restart_gammas
        assert batch.best_gamma == again.best_gamma

    def test_binary_endpoint_stays_flat(self):
        result = optimize_restarts(2, 2, n_restarts=2, steps=30, seed=3)
        assert result.best_gamma == 0.0
        assert result.restart_gammas == (0.0, 0.0)

    def test_blind_batch_stops_at_its_fixed_point(self, evaluated):
        # an all-blind batch has zero gradients, so Adam never moves theta:
        # its evaluations stop, and every one of them reads 0
        counts = []
        for steps in (20, 2000):
            evaluated.clear()
            result = optimize_restarts(3, 2, n_restarts=4, steps=steps,
                                       seed=1)
            counts.append(len(evaluated))
            assert result.restart_gammas == (0.0,) * 4
            assert [g.tolist() for g in evaluated] == (
                [[0.0] * 4] * len(evaluated))
        assert counts[0] == counts[1] <= 3

    def test_live_restart_keeps_its_values(self, evaluated):
        result = optimize_restarts(3, 3, n_restarts=1, steps=300, seed=9)
        assert result.restart_gammas == (0.999999999070436,)
        assert evaluated[151][0] == 0.9999413769676462

    def test_validation(self):
        with pytest.raises(ValueError):
            optimize_restarts(1, 3, n_restarts=1, steps=1, seed=0)
        with pytest.raises(ValueError):
            optimize_restarts(3, 1, n_restarts=1, steps=1, seed=0)
        with pytest.raises(ValueError):
            optimize_restarts(3, 3, n_restarts=0, steps=1, seed=0)
        with pytest.raises(ValueError):
            optimize_restarts(3, 3, n_restarts=1, steps=-1, seed=0)
        for lr in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError):
                optimize_restarts(3, 3, n_restarts=1, steps=1, lr=lr, seed=0)
