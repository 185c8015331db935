"""Acceptance gate: one timed test per headline capability.

Every test checks its numerical claim at the stated tolerance and then
asserts its wall-clock budget, printing one summary line (visible with
pytest -s, or in captured output).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from adversary_reference import (endpoint_fim, eval_kernels,
                                 joint_model_reference, module_fis,
                                 params_from_vector)
from cfii.adversary import gamma_adv, gamma_adv_gradient, optimize_restarts
from cfii.cli import main
from cfii.estimate import (analytic_certification, classifier_fi, mc_rmse,
                           mc_vk_distribution)
from cfii.fim import coarse_grain_fi, effective_fi
from cfii.models import (CategoricalModel, NoisyFringeModel,
                         NoisyFringeParams, QubitFringeModel,
                         QubitPreparation, categorical_fi)
from cfii.witness import (classical_benchmark_path, gamma_crossing,
                          k_chain_gain, nsit_separation_demo, v_chain, v_path)
from fim_reference import (equicorrelated_effective_fi, equicorrelated_matrix,
                           synergy_window)

GOLDEN = NoisyFringeParams(gamma=0.25, epsilon_r=0.02, vartheta0=0.0)
EQUATOR = QubitPreparation(vartheta=0.0, varphi=math.pi / 2)
ONES2 = np.ones(2)


@contextmanager
def budget(name, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, (
        f"{name} exceeded its {seconds:.0f}s budget: {elapsed:.2f}s")
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s / budget {seconds:.0f}s)")


def test_deterministic_collapse():
    with budget("deterministic-collapse", 1.0):
        model = QubitFringeModel(EQUATOR)
        thetas = np.linspace(0.0, 2.0 * math.pi, 1002)[1:-1]
        fis = np.array([model.fi(t) for t in thetas])
        assert np.max(np.abs(fis - 1.0)) < 1e-10

        rng = np.random.default_rng(0)
        for _ in range(400):
            t_ab = rng.uniform(0.4, 2.8)
            lam = rng.uniform(0.1, 0.9)
            f_ab = float(model.fi(t_ab))
            f_ac = float(model.fi(lam * t_ab))
            f_cb = float(model.fi((1.0 - lam) * t_ab))
            v = v_path(f_ab, f_ac, f_cb)
            assert v == pytest.approx(-1.0, abs=1e-10)
            # the improvement factor R_cl / (R_cl + V) = F_ab / F_benchmark
            f_benchmark = classical_benchmark_path(f_ac, f_cb)
            assert f_ab / f_benchmark == pytest.approx(2.0, abs=1e-10)


def test_chain_composition_law():
    with budget("chain-law", 1.0):
        model = QubitFringeModel(QubitPreparation(vartheta=0.9,
                                                  varphi=math.pi / 2))
        for k in range(2, 17):
            assert v_chain(1.0, [1.0] * k) == pytest.approx(-(k - 1.0),
                                                            abs=1e-12)
            report = k_chain_gain(model, 1.0, k)
            assert report.v == pytest.approx(-(k - 1.0), abs=1e-12)
            assert report.gamma_ratio == pytest.approx(float(k), abs=1e-12)


def test_noisy_reference_numbers():
    with budget("noisy-reference-numbers", 1.0):
        model = NoisyFringeModel(GOLDEN)
        t = math.pi / 2
        assert float(model.fi(t)) == pytest.approx(0.4202, abs=5e-4)
        assert float(model.fi(t / 4)) == pytest.approx(0.8065, abs=5e-4)
        report = k_chain_gain(model, t, 4)
        assert report.v == pytest.approx(-2.5799, abs=5e-4)
        assert report.gamma_ratio == pytest.approx(2.0841, abs=5e-4)


def test_finite_shot_certification():
    with budget("certification", 60.0):
        model = NoisyFringeModel(GOLDEN)
        report = analytic_certification(model, math.pi / 2, 4, 1000)
        assert report.se == pytest.approx(0.2121, abs=2e-3)
        assert report.z == pytest.approx(12.17, abs=0.15)

        _, (lo, hi) = mc_vk_distribution(GOLDEN, math.pi / 2, 4, 1000,
                                         reps=10 ** 4, seed=20240501)
        assert lo == pytest.approx(-3.06, abs=0.10)
        assert hi == pytest.approx(-2.22, abs=0.10)


def test_gain_crossing_location():
    with budget("crossing", 5.0):
        base = NoisyFringeParams(gamma=0.0, epsilon_r=0.02, vartheta0=0.0)
        gamma_star = gamma_crossing(base, math.pi / 2, 4, gamma_max=2.0)
        assert gamma_star == pytest.approx(0.444, abs=5e-3)


def pair_fi(f1, f2, j):
    """effective_fi of the coupled pair [[f1, j], [j, f2]] along (1, 1)."""
    return effective_fi(np.array([[f1, j], [j, f2]]), ONES2)


def test_synergy_window_and_supremum():
    with budget("synergy", 10.0):
        rng = np.random.default_rng(1)
        harmonic_beaten = 0
        for _ in range(10 ** 4):
            f1, f2 = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
            s = math.sqrt(f1 * f2)
            j = float(rng.uniform(-s, s)) * 0.999999
            harmonic = f1 * f2 / (f1 + f2)
            lo, hi = synergy_window(f1, f2)
            beats = pair_fi(f1, f2, j) > harmonic
            assert beats == (lo < j < hi)
            harmonic_beaten += beats
        assert 0 < harmonic_beaten < 10 ** 4

        for _ in range(100):
            f1, f2 = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
            s = math.sqrt(f1 * f2)
            grid = np.linspace(-s, s, 257)[1:-1]
            values = [pair_fi(f1, f2, float(j)) for j in grid]
            j_hat = grid[int(np.argmax(values))]
            step = grid[1] - grid[0]
            refine = minimize_scalar(
                lambda j: -pair_fi(f1, f2, j),
                bounds=(max(-s, j_hat - step), min(s, j_hat + step)),
                method="bounded", options={"xatol": 1e-10})
            supremum = max(max(values), -refine.fun)
            assert supremum == pytest.approx(min(f1, f2), abs=1e-8)


def test_equicorrelated_closed_form():
    with budget("equicorrelated", 5.0):
        rng = np.random.default_rng(2)
        for _ in range(10 ** 3):
            k = int(rng.integers(2, 13))
            f = 10.0 ** rng.uniform(-1.0, 1.0)
            eps = float(rng.uniform(0.0, 0.995))
            closed = equicorrelated_effective_fi(f, eps, k)
            mat = equicorrelated_matrix(f, eps, k)
            u = np.ones(k)
            direct = 1.0 / float(u @ np.linalg.inv(mat) @ u)
            got = effective_fi(mat, u)
            assert got == pytest.approx(closed, abs=1e-10)
            assert got == pytest.approx(direct, abs=1e-10)


def test_data_processing_inequality():
    with budget("dpi", 10.0):
        rng = np.random.default_rng(3)
        for _ in range(10 ** 4):
            m_in = int(rng.integers(2, 9))
            m_out = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(m_in))
            pdot = rng.normal(size=m_in)
            pdot -= pdot.mean()
            model = CategoricalModel(p, pdot)
            channel = rng.dirichlet(np.ones(m_out), size=m_in)
            assert (coarse_grain_fi(model, channel)
                    <= categorical_fi(model) + 1e-10)


def test_adversary_saturation_frontier():
    with budget("adversary-frontier", 120.0):
        result = optimize_restarts(5, 5, n_restarts=36, steps=2000, seed=0)
        assert result.best_gamma <= 1.0 + 1e-9
        assert all(g <= 1.0 + 1e-9 for g in result.restart_gammas)
        assert result.best_gamma >= 0.99

        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            l = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
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

        for l in range(1, 5):
            for m in range(2, 5):
                for _ in range(2):
                    x = rng.normal(size=2 * l + 2 * l * m)
                    params = params_from_vector(x, l, m)
                    kernels = eval_kernels(params)
                    f_ac, f_cb = module_fis(kernels)
                    fim = endpoint_fim(kernels)
                    bf_ac, bf_cb, bf_fim = joint_model_reference(params)
                    assert f_ac == pytest.approx(bf_ac, abs=1e-8)
                    assert f_cb == pytest.approx(bf_cb, abs=1e-8)
                    np.testing.assert_allclose(fim, bf_fim, atol=1e-8)


def test_classifier_calibration():
    with budget("classifier-calibration", 30.0):
        model = NoisyFringeModel(GOLDEN)
        for theta in (math.pi / 8, math.pi / 2):
            analytic = float(model.fi(theta))
            estimates = [classifier_fi(model, theta, delta=0.1,
                                       n_train=10 ** 5, n_eval=10 ** 5,
                                       alpha=5.0, seed=s).value
                         for s in range(11)]
            median = float(np.median(estimates))
            assert abs(median - analytic) <= 0.05 * analytic


def test_mle_achievability():
    with budget("mle-achievability", 30.0):
        n, reps = 10 ** 4, 10 ** 3
        rmse = mc_rmse(QubitFringeModel(EQUATOR), math.pi / 2, n, reps,
                       seed=0)
        assert 0.95 <= rmse * math.sqrt(n) <= 1.05
        assert rmse < (math.sqrt(2.0) / math.sqrt(n)) * 0.95


def test_nsit_separation():
    with budget("nsit-separation", 1.0):
        nsit_holds, v = nsit_separation_demo()
        assert nsit_holds is True
        assert v == pytest.approx(-1.0, abs=1e-12)

        # the blind-coin context, built as its own joint distribution and
        # summed over the coin, leaves the fringe unchanged
        model = QubitFringeModel(EQUATOR)
        for theta in np.linspace(0.0, 2.0 * math.pi, 50):
            p0, dp0 = float(model.p0(theta)), float(model.zdot(theta)) / 2
            joint = CategoricalModel(
                np.multiply.outer([0.5, 0.5], [p0, 1.0 - p0]).ravel(),
                np.multiply.outer([0.5, 0.5], [dp0, -dp0]).ravel())
            p_marginalized = joint.p.reshape(2, 2).sum(axis=0)[0]
            assert abs(p_marginalized - p0) < 1e-14


def test_seeded_determinism(capsys):
    runs = (
        ["adversary", "--l", "3", "--m", "3", "--restarts", "2",
         "--steps", "60", "--seed", "123"],
        ["rmse", "--seed", "7", "--n-grid", "100:1000:3", "--reps", "100"],
        ["certify", "--seed", "11", "--shots", "500"],
    )
    with budget("determinism", 30.0):
        for argv in runs:
            outputs = []
            for _ in range(2):
                assert main(argv) == 0
                outputs.append([
                    line for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("# wallclock")])
            assert outputs[0] == outputs[1]
            assert len(outputs[0]) > 1
