"""Every shot, replication, segment, restart, step and seed argument goes
through rng.require_integral with its bounds: a non-integral, NaN, infinite
or out-of-range count raises a ValueError that names the argument before
anything is drawn, and the CLI turns it into exit 2 with one stderr line."""

import math
import re

import pytest

from cfii import adversary, cli, estimate, rng
from cfii.adversary import MAX_BATCH_PARAMS, optimize_restarts
from cfii.errors import EstimationError
from cfii.estimate import (MAX_REPS, MAX_SHOTS, ContextSample,
                           analytic_certification, certify_vk, classifier_fi,
                           fi_estimate_variance, mc_rmse, mc_vk_distribution,
                           sample_binary)
from cfii.models import (NoisyFringeModel, NoisyFringeParams,
                         QubitFringeModel, QubitPreparation)
from cfii.rng import require_integral
from cfii.witness import MAX_CHAIN_K, k_chain_gain

GOLDEN = NoisyFringeParams(gamma=0.25, epsilon_r=0.02)
NOISY = NoisyFringeModel(GOLDEN)
IDEAL = QubitFringeModel(QubitPreparation(vartheta=0.0, varphi=math.pi / 2))
T = math.pi / 2

# site -> (argument name, lo, hi, call with the count as its one argument)
SITES = {
    "ContextSample.n": ("n", 1, None, lambda v: ContextSample(0.1, v, 0)),
    "ContextSample.n0": ("n0", 0, 5, lambda v: ContextSample(0.1, 5, v)),
    "sample_binary.n": ("n", 1, MAX_SHOTS,
                        lambda v: sample_binary(NOISY, 0.7, v, 1)),
    "fi_estimate_variance.n": (
        "n", 1, None, lambda v: fi_estimate_variance(NOISY, 1.0, v)),
    "analytic_certification.n_per_context": (
        "n_per_context", 2, None,
        lambda v: analytic_certification(NOISY, T, 4, v)),
    "classifier_fi.n_train": (
        "n_train", 1, None, lambda v: classifier_fi(NOISY, 1.0, n_train=v)),
    "classifier_fi.n_eval": (
        "n_eval", 1, None, lambda v: classifier_fi(NOISY, 1.0, n_eval=v)),
    "mc_rmse.n": ("n", 1, None, lambda v: mc_rmse(IDEAL, 1.0, v, 100, 1)),
    "mc_rmse.reps": ("reps", 1, MAX_REPS,
                     lambda v: mc_rmse(IDEAL, 1.0, 10, v, 1)),
    "mc_vk_distribution.n_per_context": (
        "n_per_context", 1, None,
        lambda v: mc_vk_distribution(GOLDEN, T, 4, v, 50, 1)),
    "mc_vk_distribution.reps": (
        "reps", 1, MAX_REPS,
        lambda v: mc_vk_distribution(GOLDEN, T, 4, 100, v, 1)),
    "optimize_restarts.l": ("l", 2, None,
                            lambda v: optimize_restarts(v, 3, 2, 10)),
    "optimize_restarts.m": ("m", 2, None,
                            lambda v: optimize_restarts(3, v, 2, 10)),
    "optimize_restarts.n_restarts": (
        "n_restarts", 1, None, lambda v: optimize_restarts(3, 3, v, 10)),
    "optimize_restarts.steps": ("steps", 0, None,
                                lambda v: optimize_restarts(3, 3, 2, v)),
    "chain.k": ("k", 2, MAX_CHAIN_K, lambda v: k_chain_gain(NOISY, T, v)),
    "derive_rng.seed": ("seed", 0, None, lambda v: rng.derive_rng(v, 1)),
    "derive_rng.path": ("path element", 0, None,
                        lambda v: rng.derive_rng(1, 2, v)),
}


def _cases():
    for site, (name, lo, hi, _) in SITES.items():
        cases = {"fraction": lo + 10.5, "nan": math.nan, "inf": math.inf,
                 "lo-1": lo - 1}
        if hi is not None:
            cases["hi+1"] = hi + 1
        for case, value in cases.items():
            yield pytest.param(site, value, id=f"{site}-{case}")


@pytest.fixture
def no_draws(monkeypatch):
    """derive_rng of the library modules fails: a refusal must come first."""
    def drawn(*args):
        raise AssertionError("a refused call derived a random stream")
    monkeypatch.setattr(estimate, "derive_rng", drawn)
    monkeypatch.setattr(adversary, "derive_rng", drawn)


@pytest.mark.parametrize("site, value", _cases())
def test_bad_count_refused_by_name(no_draws, site, value):
    name, lo, hi, call = SITES[site]
    if not (math.isfinite(value) and value == int(value)):
        expected = f"{name} must be an integral value, got {value!r}"
    elif hi is None:
        expected = f"{name} must be >= {lo}, got {value}"
    else:
        expected = f"{name} must lie in [{lo}, {hi}], got {value}"
    with pytest.raises(ValueError, match="^" + re.escape(expected) + "$"):
        call(value)


def test_require_integral_bounds():
    assert require_integral(4.0, "k", 2, 4) == 4
    assert require_integral(0, "steps") == 0
    with pytest.raises(ValueError, match=r"^x must be >= 0, got -1$"):
        require_integral(-1.0, "x")
    with pytest.raises(ValueError, match=r"^x must lie in \[0, 3\], got 4$"):
        require_integral(4, "x", hi=3)


def test_adversary_batch_limit_fires_before_any_stream(capsys, no_draws):
    # 10**5 restarts of 2 L + 2 L M = 20200 parameters: 15 GiB of theta
    with pytest.raises(ValueError, match=r"^n_restarts \* \(2 l \+ 2 l m\) "
                       rf"must lie in \[0, {MAX_BATCH_PARAMS}\], "
                       "got 2020000000$"):
        optimize_restarts(100, 100, n_restarts=10 ** 5, steps=1)
    assert cli.main(["adversary", "--seed", "1", "--l", "100", "--m", "100",
                     "--restarts", "100000", "--steps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "cfii: config error: n_restarts * (2 l + 2 l m) must lie in "
        f"[0, {MAX_BATCH_PARAMS}], got 2020000000\n")


def test_vk_count_table_bounded_before_any_draw(no_draws):
    # a (10**6, 1001) count table would take 8 GB
    with pytest.raises(ValueError, match=r"^reps \* \(k \+ 1\) must lie in "
                       rf"\[0, {MAX_SHOTS}\], got 1001000000$"):
        mc_vk_distribution(GOLDEN, T, 1000, 100, 10 ** 6, 1)


def test_negative_seed_named_by_the_cli(capsys):
    assert cli.main(["certify", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cfii: config error: seed must be >= 0, got -1\n"


class TestEmpiricalZeroSe:
    """Contexts whose shots all agree have an empirical variance of 0; a
    zero empirical SE is refused instead of reported as Z = inf."""

    def test_library(self):
        # the contexts of `certify --seed 2 --k 3 --shots 2`: the segments
        # saw two 0s, and the endpoint, where z = 0, scores both outcomes
        # with the same square
        contexts = estimate._sample_contexts(
            NOISY, [T] + [T / 3] * 3, 2, 2, [(j,) for j in range(4)])
        assert [c.n0 for c in contexts] == [1, 2, 2, 2]
        with pytest.raises(EstimationError,
                           match="^empirical SE is 0: significance undefined$"):
            certify_vk(contexts[0], contexts[1:], NOISY, se_mode="empirical")
        report = certify_vk(contexts[0], contexts[1:], NOISY,
                            se_mode="analytic-moment")
        assert report.se > 0.0 and math.isfinite(report.z)

    def test_cli(self, capsys):
        assert cli.main(["certify", "--seed", "2", "--k", "3", "--shots", "2",
                         "--se-mode", "empirical"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("cfii: numerical degeneracy: empirical SE is "
                                "0: significance undefined\n")
