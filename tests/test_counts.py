"""Every shot, replication, segment, restart, step and seed argument goes
through rng.require_integral with its bounds: a non-integral, NaN, infinite
or out-of-range count (above 2**63 - 1 included) raises a ValueError that
names the argument before anything is drawn, and the CLI turns it into exit
2 with one stderr line.  Every real-valued parameter goes through
rng.require_real the same way: NaN, an infinity, a value outside its bounds
or a string raises a ValueError naming the argument and the bad entry.  The
domain checks that keep their own CfiiError class refuse NaN too."""

import math
import re

import numpy as np
import pytest

from cfii import adversary, cli, estimate, rng
from cfii.adversary import (MAX_BATCH_PARAMS, MAX_LR, AdversaryParams,
                            optimize_restarts)
from cfii.errors import EstimationError, NonStochasticChannelError
from cfii.estimate import (MAX_REPS, MAX_SHOTS, ContextSample, FiEstimate,
                           analytic_certification, certify_vk, classifier_fi,
                           classifier_score, mc_rmse, mc_vk_distribution,
                           sample_binary)
from cfii.fim import coarse_grain_fi, effective_fi
from cfii.models import (BinaryModel, CategoricalModel, NoisyFringeModel,
                         NoisyFringeParams, QubitFringeModel,
                         QubitPreparation)
from cfii.rng import require_integral, require_real
from cfii.witness import MAX_CHAIN_K, gamma_crossing, k_chain_gain

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
    "classifier_score.counts_plus": (
        "counts_plus", 0, None,
        lambda v: classifier_score((v, 10), (5, 5), 0.1)),
    "classifier_score.counts_minus": (
        "counts_minus", 0, None,
        lambda v: classifier_score((5, 5), (10, v), 0.1)),
}

INT64_MAX = 2 ** 63 - 1


def _cases():
    for site, (name, lo, hi, _) in SITES.items():
        cases = {"fraction": lo + 10.5, "nan": math.nan, "inf": math.inf,
                 "lo-1": lo - 1}
        cases["hi+1"] = (INT64_MAX if hi is None else hi) + 1
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
    elif value < lo and hi is None:
        expected = f"{name} must be >= {lo}, got {value}"
    else:
        top = INT64_MAX if hi is None else hi
        expected = f"{name} must lie in [{lo}, {top}], got {value}"
    with pytest.raises(ValueError, match="^" + re.escape(expected) + "$"):
        call(value)


def test_require_integral_bounds():
    assert require_integral(4.0, "k", 2, 4) == 4
    assert require_integral(0, "steps") == 0
    with pytest.raises(ValueError, match=r"^x must be >= 0, got -1$"):
        require_integral(-1.0, "x")
    with pytest.raises(ValueError, match=r"^x must lie in \[0, 3\], got 4$"):
        require_integral(4, "x", hi=3)
    assert require_integral(2 ** 63 - 1, "n") == 2 ** 63 - 1
    with pytest.raises(ValueError, match=r"^n must lie in \[1, "
                       r"9223372036854775807\], got 10{400}$"):
        require_integral(10 ** 400, "n", 1)


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


class _FixedP0(BinaryModel):
    """A stub fringe whose p0 is the given value at every angle."""

    def __init__(self, p0):
        self.value = p0

    def p0(self, theta):
        return self.value

    z = zdot = zddot = p0


def _ideal(vartheta=0.0):
    return QubitFringeModel(QubitPreparation(vartheta, math.pi / 2))


# site -> (argument name, its interval as messages print it, call with the
# real value as its one argument)
REAL_SITES = {
    "QubitPreparation.vartheta": (
        "vartheta", "[0, 3.141592653589793]",
        lambda v: QubitPreparation(v, 0.0)),
    "QubitPreparation.varphi": (
        "varphi", "[0, 6.283185307179586)",
        lambda v: QubitPreparation(0.0, v)),
    "NoisyFringeParams.gamma": (
        "gamma", "[0, inf)", lambda v: NoisyFringeParams(v)),
    "NoisyFringeParams.gamma-array": (
        "gamma", "[0, inf)", lambda v: NoisyFringeParams(np.array([0.1, v]))),
    "NoisyFringeParams.vartheta0": (
        "vartheta0", "(-inf, inf)",
        lambda v: NoisyFringeParams(0.1, vartheta0=v)),
    "NoisyFringeParams.epsilon_r": (
        "epsilon_r", "[0, 0.5)", lambda v: NoisyFringeParams(0.1, v)),
    "CategoricalModel.p": (
        "p", "[0, inf)", lambda v: CategoricalModel([v, 0.5], [0.0, 0.0])),
    "CategoricalModel.pdot": (
        "pdot", "(-inf, inf)",
        lambda v: CategoricalModel([0.5, 0.5], [v, 0.0])),
    "effective_fi.mat": (
        "mat", "(-inf, inf)",
        lambda v: effective_fi([[1.0, v], [v, 1.0]], [1.0, 1.0])),
    "effective_fi.u": (
        "u", "(-inf, inf)", lambda v: effective_fi(np.eye(2), [1.0, v])),
    "k_chain_gain.theta_total": (
        "theta_total", "(0, inf)", lambda v: k_chain_gain(NOISY, v, 4)),
    "gamma_crossing.t_total": (
        "t_total", "(0, inf)", lambda v: gamma_crossing(GOLDEN, v, 4)),
    "gamma_crossing.gamma_range[0]": (
        "gamma_range[0]", "[0, inf)",
        lambda v: gamma_crossing(GOLDEN, T, 4, (v, 2.0))),
    "gamma_crossing.gamma_range[1]": (
        "gamma_range[1]", "(0.5, inf)",
        lambda v: gamma_crossing(GOLDEN, T, 4, (0.5, v))),
    "FiEstimate.value": (
        "value", "[0, inf)", lambda v: FiEstimate(v, 0.0, 10)),
    "FiEstimate.variance": (
        "variance", "[0, inf)", lambda v: FiEstimate(1.0, v, 10)),
    "ContextSample.theta": (
        "theta", "(-inf, inf)", lambda v: ContextSample(v, 10, 5)),
    "sample_binary.p0": (
        "p0", "[0, 1]", lambda v: sample_binary(_FixedP0(v), 0.7, 10, 1)),
    "analytic_certification.t_total": (
        "t_total", "(0, inf)",
        lambda v: analytic_certification(NOISY, v, 4, 100)),
    "classifier_score.alpha": (
        "alpha", "[0, inf)",
        lambda v: classifier_score((5, 5), (5, 5), 0.1, v)),
    "classifier_fi.theta": (
        "theta", "(-inf, inf)", lambda v: classifier_fi(NOISY, v)),
    "classifier_fi.delta": (
        "delta", "(0, inf)", lambda v: classifier_fi(NOISY, 1.0, v)),
    "mc_rmse.theta_true": (
        "theta_true", "(-inf, inf)", lambda v: mc_rmse(IDEAL, v, 10, 10, 1)),
    "mc_rmse.vartheta": (
        "vartheta", "(-inf, inf)",
        lambda v: mc_rmse(IDEAL, 1.0, 10, 10, 1, vartheta=v)),
    "mc_vk_distribution.t_total": (
        "t_total", "(0, inf)",
        lambda v: mc_vk_distribution(GOLDEN, v, 4, 100, 10, 1)),
    "AdversaryParams.a": (
        "a", "(-inf, inf)", lambda v: AdversaryParams(
            np.array([0.0, v]), np.zeros(2), np.zeros((2, 2)),
            np.zeros((2, 2)))),
    "AdversaryParams.a_dot": (
        "a_dot", "(-inf, inf)", lambda v: AdversaryParams(
            np.zeros(2), np.array([v, 0.0]), np.zeros((2, 2)),
            np.zeros((2, 2)))),
    "AdversaryParams.d": (
        "d", "(-inf, inf)", lambda v: AdversaryParams(
            np.zeros(2), np.zeros(2), np.array([[0.0, 0.0], [v, 0.0]]),
            np.zeros((2, 2)))),
    "AdversaryParams.d_dot": (
        "d_dot", "(-inf, inf)", lambda v: AdversaryParams(
            np.zeros(2), np.zeros(2), np.zeros((2, 2)),
            np.array([[0.0, v], [0.0, 0.0]]))),
    "optimize_restarts.lr": (
        "lr", f"(0, {MAX_LR}]", lambda v: optimize_restarts(2, 2, 1, 1, lr=v)),
}

# a stub model's p0 is not a parameter a string could be given for
_NO_STRING = {"sample_binary.p0"}


def _real_cases():
    for site, (name, interval, _) in REAL_SITES.items():
        lo, hi = (float(end) for end in interval[1:-1].split(", "))
        cases = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
        if math.isfinite(lo):
            cases["below"] = lo if interval[0] == "(" else lo - 1.0
        if math.isfinite(hi):
            cases["above"] = hi if interval[-1] == ")" else hi + 1.0
        if site not in _NO_STRING:
            cases["string"] = "0.5"
        for case, value in cases.items():
            yield pytest.param(site, value, id=f"{site}-{case}")


@pytest.mark.parametrize("site, value", _real_cases())
def test_bad_real_refused_by_name(no_draws, site, value):
    name, interval, call = REAL_SITES[site]
    if isinstance(value, str):
        expected = re.escape(f"{name} must be a real value, got ") + ".*0.5"
    else:
        expected = re.escape(f"{name} must lie in {interval}, got {value}")
    with pytest.raises(ValueError, match=f"(?s)^{expected}.*$"):
        call(value)


def test_classifier_fi_alpha_refused_by_name():
    # alpha reaches the score after the training draws
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, inf\), "
                       "got nan$"):
        classifier_fi(NOISY, 1.0, alpha=math.nan)


# domain checks that keep their CfiiError class: site -> (class, call)
KEPT_SITES = {
    "coarse_grain_fi.channel": (
        NonStochasticChannelError, lambda v: coarse_grain_fi(
            CategoricalModel([0.5, 0.5], [0.1, -0.1]),
            [[v, 1.0], [0.0, 1.0]])),
}


@pytest.mark.parametrize("site", KEPT_SITES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_kept_domain_check_refuses_nan(site, value):
    error, call = KEPT_SITES[site]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("delta", [math.nan, -math.inf, 0.0, -1.0, math.inf])
def test_classifier_score_delta_keeps_its_class(delta):
    with pytest.raises(EstimationError, match="^delta must be > 0"):
        classifier_score((5, 5), (5, 5), delta)


def test_require_real_bounds_and_types():
    assert require_real(0.0, "x", 0) == 0.0
    assert require_real(1, "x", 0, 1) == 1.0
    assert type(require_real(np.float64(0.5), "x")) is float
    assert type(require_real(np.array(0.5), "x")) is float
    values = require_real([0, 1, 2], "x", 0, 2)
    assert values.dtype == float and values.tolist() == [0.0, 1.0, 2.0]
    for bounds, value in (("(]", 0.0), ("[)", 1.0), ("()", 0.0)):
        with pytest.raises(ValueError, match=rf"^x must lie in \{bounds[0]}0, "
                           rf"1\{bounds[1]}, got {value}$"):
            require_real(value, "x", 0, 1, bounds)
        with pytest.raises(ValueError, match=f"got {value}$"):
            require_real(np.array([0.5, value]), "x", 0, 1, bounds)
    with pytest.raises(ValueError, match=r"^x must lie in \[0, inf\), got inf$"):
        require_real(math.inf, "x", 0, math.inf, "[]")
    with pytest.raises(ValueError, match="^x must be a real value, got 1j$"):
        require_real(1j, "x")


class TestOverflowAndWarnings:
    """Extreme finite and non-finite flags end in exit 0 with an empty
    stderr, or in exit 2 or 3 with one stderr line; no RuntimeWarning is
    raised on the way (Tier-1 turns each into an error)."""

    @pytest.mark.parametrize("argv, code, message", [
        (["fi", "--model", "noisy", "--gamma", "1e308", "--grid",
          "0.1:1:3"], 0, ""),
        (["fi", "--gamma", "1e308"], 0, ""),
        (["rmse", "--seed", "1", "--theta", "inf"], 2,
         "cfii: config error: theta must lie in (-inf, inf), got inf\n"),
        (["crossing", "--t-total", "1e308"], 3,
         "cfii: numerical degeneracy: f_segment must be > 0, got 0.0\n"),
        (["crossing", "--gamma-max", "1e308"], 3,
         "cfii: numerical degeneracy: f_segment must be > 0, got 0.0\n"),
        (["crossing", "--gamma-max", "nan"], 2,
         "cfii: config error: gamma_max must lie in (-inf, inf), got nan\n"),
        (["landscape", "--grid", "0:1e308:3"], 2,
         "cfii: config error: --grid endpoints must lie in "
         "[-8.988465674311579e+307, 8.988465674311579e+307], got 1e+308\n"),
        (["fi", "--grid", "0:inf:3"], 2,
         "cfii: config error: --grid endpoints must lie in (-inf, inf), "
         "got inf\n"),
        (["adversary", "--seed", "1", "--lr", "1e308"], 2,
         f"cfii: config error: lr must lie in (0, {MAX_LR}], got 1e+308\n"),
    ])
    def test_cli_run(self, capsys, argv, code, message):
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == message
        assert (captured.out == "") == (code != 0)

    def test_rmse_far_from_the_branch_is_finite(self, capsys):
        # every estimate lies in [0, pi], so the error is -1e308 in each
        # replication; its square overflows, the scaled mean does not
        assert [mc_rmse(IDEAL, 1e308, n, 50, 1, i)
                for i, n in enumerate((100, 316, 1000))] == [1e308] * 3
        # the CLI refuses a theta outside the MLE branch
        assert cli.main(["rmse", "--seed", "1", "--theta", "1e308", "--n-grid",
                         "100:1000:3", "--reps", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    @pytest.mark.parametrize("theta_true", [1.0, 4.0, 40.0])
    def test_rmse_scaling_is_exact(self, theta_true):
        # the error scaled by a power of two gives the unscaled RMSE bit
        # for bit, also where some |error| >= 1
        rng_ = rng.derive_rng(5, 3, 2)
        p0 = float(IDEAL.p0(theta_true))
        err = estimate._mle_theta(rng_.binomial(100, p0, size=200) / 100,
                                  0.0) - theta_true
        assert mc_rmse(IDEAL, theta_true, 100, 200, 5, 2) == float(
            np.sqrt(np.mean(err ** 2)))


def test_zddot_only_at_a_singular_point(monkeypatch):
    calls = []
    real = QubitFringeModel.zddot

    def counted(self, theta):
        calls.append(theta)
        return real(self, theta)
    monkeypatch.setattr(QubitFringeModel, "zddot", counted)
    IDEAL.fi(np.array([0.3, 1.0, 2.0]))
    assert calls == []
    # z = cos(theta) is 1 at theta = 0: the limit -z * zddot is taken there
    assert IDEAL.fi(np.array([0.0, 1.0]))[0] == 1.0
    assert len(calls) == 1
