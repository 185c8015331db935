"""Tests for Fisher-matrix algebra: the checks and the effective FI of
effective_fi, the synergy and equicorrelated closed forms it reproduces, and
coarse-graining."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfii.errors import (NonStochasticChannelError, NotPositiveDefiniteError,
                         ResistanceOverflowError)
from cfii.fim import coarse_grain_fi, effective_fi
from cfii.models import CategoricalModel, categorical_fi
from fim_reference import (equicorrelated_effective_fi, equicorrelated_matrix,
                           synergy_effective_fi, synergy_window)

ONES2 = np.ones(2)


def random_spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.1 * np.eye(d)


def pair_fi(f1, f2, j):
    """effective_fi of the coupled pair [[f1, j], [j, f2]] along (1, 1)."""
    return effective_fi(np.array([[f1, j], [j, f2]]), ONES2)


class TestFisherMatrix:
    """The checks effective_fi makes of its Fisher matrix."""

    def test_accepts_psd(self):
        assert effective_fi([[2.0, 1.0], [1.0, 2.0]], ONES2) == pytest.approx(
            1.5, rel=1e-14)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="^expected a square matrix"):
            effective_fi(np.ones((2, 3)), ONES2)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="^matrix is not symmetric"):
            effective_fi(np.array([[1.0, 0.5], [0.2, 1.0]]), ONES2)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            effective_fi(np.array([[1.0, 2.0], [2.0, 1.0]]), ONES2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="^mat must lie in"):
            effective_fi(np.array([[np.inf, 0.0], [0.0, 1.0]]), ONES2)

    def test_one_eigh_per_call(self, monkeypatch):
        calls = {"eigh": 0, "eigvalsh": 0}

        def counted(name):
            real = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call
        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        effective_fi(np.array([[2.0, 1.0], [1.0, 2.0]]), ONES2)
        assert calls == {"eigh": 1, "eigvalsh": 0}
        with pytest.raises(NotPositiveDefiniteError):
            effective_fi(np.array([[1.0, 2.0], [2.0, 1.0]]), ONES2)
        assert calls == {"eigh": 2, "eigvalsh": 0}


class TestEffectiveFi:
    def test_diagonal_is_harmonic(self):
        f = effective_fi(np.diag([2.0, 3.0]), ONES2)
        assert f == pytest.approx(1.0 / (1 / 2 + 1 / 3), abs=1e-15)

    def test_coupled_pair(self):
        f = effective_fi(np.array([[1.0, 0.5], [0.5, 1.0]]), ONES2)
        assert f == pytest.approx(0.75, abs=1e-14)

    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            mat = random_spd(rng, d)
            u = rng.normal(size=d)
            if np.linalg.norm(u) < 1e-3:
                continue
            direct = 1.0 / float(u @ np.linalg.inv(mat) @ u)
            assert effective_fi(mat, u) == pytest.approx(direct, rel=1e-10)

    def test_series_law_on_diagonals(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            fs = np.exp(rng.normal(size=k))
            expected = 1.0 / np.sum(1.0 / fs)
            got = effective_fi(np.diag(fs), np.ones(k))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_direction_outside_row_space_gives_zero(self):
        # rank-1 matrix along (1, -1); the sum direction carries no signal
        v = np.array([1.0, -1.0])
        mat = np.outer(v, v)
        assert effective_fi(mat, ONES2) == 0.0

    def test_direction_inside_row_space_of_singular_matrix(self):
        # [[2,2],[2,2]] has eigenpairs (4, (1,1)/sqrt2) and (0, (1,-1)/sqrt2);
        # for u=(1,1) the resistance is (sqrt2)^2/4 = 1/2, so F_eff = 2
        v = np.array([1.0, 1.0])
        mat = 2.0 * np.outer(v, v)
        assert effective_fi(mat, v) == pytest.approx(2.0, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            effective_fi(np.eye(3), ONES2)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            effective_fi(np.eye(2), np.zeros(2))


class TestScaleEdges:
    """effective_fi at directions and matrices far from unit scale: each
    check and the row-space test are relative to the input's own scale."""

    @pytest.mark.parametrize("mat, u, expected", [
        # |u|^2 underflows to 0, but u is nonzero and F_eff = 1e400
        (np.eye(2), [1e-200, 0.0],
         (ResistanceOverflowError, r"^1/\(u\^T F\^\+ u\) overflows$")),
        # u leaves the row space, whatever its size
        (np.diag([1.0, 0.0]), [1e300, 1e300], 0.0),
        (np.eye(2), [1e300, 1e300],
         (ResistanceOverflowError, r"^u\^T F\^\+ u overflows$")),
        (np.zeros((0, 0)), np.zeros(0),
         (ValueError, "^direction must be nonzero$")),
        ([[1e-200, 5e-201], [0.0, 1e-200]], ONES2,
         (ValueError, "^matrix is not symmetric")),
        ([[1e-200, 0.0], [5e-201, 1e-200]], ONES2,
         (ValueError, "^matrix is not symmetric")),
        # a relative asymmetry of 7e-16; eigh reads the lower triangle
        ([[1e20, 1e20 + 2e5], [1e20, 3e20]], ONES2, 1e20),
        # eigenvalues -1e-200 and 3e-200, as [[1, 2], [2, 1]] scaled down
        ([[1e-200, 2e-200], [2e-200, 1e-200]], ONES2,
         (NotPositiveDefiniteError, "^matrix has an eigenvalue below")),
        # F_eff is 1e308 and 1.25e308, but the top eigenvalue 2e308 and
        # 2.5e308 is inf, which would make the cutoff drop every eigenvalue
        ([[1e308, 1e308], [1e308, 1e308]], ONES2,
         (ResistanceOverflowError, "^an eigenvalue of F overflows$")),
        ([[1.5e308, 1e308], [1e308, 1.5e308]], ONES2,
         (ResistanceOverflowError, "^an eigenvalue of F overflows$")),
    ], ids=["tiny-direction", "huge-direction-outside-row-space",
            "huge-direction", "empty", "tiny-asymmetric",
            "tiny-asymmetric-transposed", "huge-nearly-symmetric",
            "tiny-indefinite", "huge-rank-one", "huge-full-rank"])
    def test_scale_edge(self, mat, u, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, tuple):
                with pytest.raises(expected[0], match=expected[1]):
                    effective_fi(mat, u)
            else:
                assert effective_fi(mat, u) == pytest.approx(
                    expected, rel=1e-14, abs=0.0)


class TestSynergy:
    """effective_fi of the coupled pair [[f1, j], [j, f2]] along (1, 1)
    against the closed forms of tests/fim_reference.py."""

    def test_uncoupled_harmonic(self):
        assert pair_fi(1.0, 1.0, 0.0) == pytest.approx(0.5)

    def test_coupled_example(self):
        assert pair_fi(1.0, 1.0, 0.5) == pytest.approx(0.75)

    def test_supremum_example(self):
        assert pair_fi(2.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_non_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            pair_fi(1.0, 1.0, 1.5)
        with pytest.raises(NotPositiveDefiniteError):
            pair_fi(-1.0, 1.0, 0.0)

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            f1, f2 = np.exp(rng.normal(size=2))
            j = rng.uniform(-1, 1) * 0.99 * np.sqrt(f1 * f2)
            assert pair_fi(f1, f2, j) == pytest.approx(
                synergy_effective_fi(f1, f2, j), rel=1e-10)

    @pytest.mark.parametrize("mat, expected", [
        ([[1e-200, 0.0], [0.0, 1e-200]], 5e-201),
        ([[1e300, 1e200], [1e200, 1e300]], 4.9999999999999995e+299),
    ], ids=["tiny", "huge"])
    def test_extreme_pairs(self, mat, expected):
        # f1 f2 - j^2 underflows to 0, or is inf - inf, in the closed form
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert effective_fi(mat, ONES2) == pytest.approx(expected,
                                                             rel=1e-14)

    def test_window_examples(self):
        # f1 = f2 = f: the window is (0, f) and the harmonic value f / 2
        for f in (1.0, 3.0):
            assert synergy_window(f, f) == (0.0, f)
            for j in (-0.5 * f, -0.1 * f):
                assert not pair_fi(f, f, j) > 0.5 * f
            for j in (0.1 * f, 0.5 * f, 0.9 * f):
                assert pair_fi(f, f, j) > 0.5 * f

    def test_boundaries_meet_harmonic(self):
        # The upper-boundary identity cancels (f1 - f2)^2 against f1 f2 - j^2,
        # so keep the pair well separated for the 1e-12 comparison to be
        # numerically meaningful.
        rng = np.random.default_rng(23)
        for _ in range(100):
            f1 = float(np.exp(rng.normal()))
            f2 = f1 * rng.uniform(1.5, 4.0)
            harmonic = 1.0 / (1.0 / f1 + 1.0 / f2)
            _, hi = synergy_window(f1, f2)
            assert pair_fi(f1, f2, 0.0) == pytest.approx(harmonic, rel=1e-12)
            assert pair_fi(f1, f2, hi) == pytest.approx(harmonic, rel=1e-12)

    def test_window_membership_iff_beats_harmonic(self):
        rng = np.random.default_rng(29)
        f1, f2 = 1.7, 0.6
        harmonic = 1.0 / (1.0 / f1 + 1.0 / f2)
        lo, hi = synergy_window(f1, f2)
        for j in rng.uniform(-0.9, 0.9, size=1000) * np.sqrt(f1 * f2):
            if min(abs(j - lo), abs(j - hi)) < 1e-9:
                continue
            beats = pair_fi(f1, f2, j) > harmonic
            assert beats == (lo < j < hi)


class TestEquicorrelated:
    """effective_fi of f [(1 - eps) I + eps J] along the all-ones direction
    against the closed form f (eps + (1 - eps) / K)."""

    def test_classical_series_dilution(self):
        mat = equicorrelated_matrix(2.0, 0.0, 5)
        assert effective_fi(mat, np.ones(5)) == pytest.approx(0.4)

    def test_half_correlated_four_chain(self):
        mat = equicorrelated_matrix(1.0, 0.5, 4)
        assert effective_fi(mat, np.ones(4)) == pytest.approx(0.625)

    def test_full_correlation_limit(self):
        mat = equicorrelated_matrix(3.0, 1.0 - 1e-12, 7)
        assert effective_fi(mat, np.ones(7)) == pytest.approx(3.0, rel=1e-10)

    def test_matches_matrix_inversion(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            k = int(rng.integers(1, 13))
            f = float(np.exp(rng.normal()))
            eps = float(rng.uniform(0.0, 0.999))
            closed = equicorrelated_effective_fi(f, eps, k)
            mat = equicorrelated_matrix(f, eps, k)
            direct = 1.0 / float(np.ones(k) @ np.linalg.inv(mat) @ np.ones(k))
            assert effective_fi(mat, np.ones(k)) == pytest.approx(closed,
                                                                  rel=1e-10)
            assert closed == pytest.approx(direct, rel=1e-10)

    def test_validation(self):
        # the family is PSD for eps in [-1/(K-1), 1]: below, effective_fi
        # refuses it; at eps = 1 it is rank one and keeps the all-ones mode
        with pytest.raises(NotPositiveDefiniteError):
            effective_fi(equicorrelated_matrix(1.0, -0.6, 3), np.ones(3))
        assert effective_fi(equicorrelated_matrix(2.0, 1.0, 3),
                            np.ones(3)) == pytest.approx(2.0, rel=1e-12)


def random_categorical(rng, m):
    p = rng.dirichlet(np.ones(m))
    pdot = rng.normal(size=m)
    pdot -= pdot.mean()
    return CategoricalModel(p, pdot)


class TestCoarseGraining:
    def test_identity_channel(self):
        rng = np.random.default_rng(37)
        model = random_categorical(rng, 4)
        from cfii.models import categorical_fi
        assert coarse_grain_fi(model, np.eye(4)) == pytest.approx(
            categorical_fi(model), rel=1e-14)

    def test_total_merge_destroys_information(self):
        rng = np.random.default_rng(41)
        model = random_categorical(rng, 5)
        channel = np.ones((5, 1))
        assert coarse_grain_fi(model, channel) == pytest.approx(0.0,
                                                                abs=1e-15)

    def test_non_stochastic_rejected(self):
        model = CategoricalModel(np.array([0.5, 0.5]), np.array([0.1, -0.1]))
        with pytest.raises(NonStochasticChannelError):
            coarse_grain_fi(model, np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(NonStochasticChannelError):
            coarse_grain_fi(model, np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_shape_mismatch(self):
        model = CategoricalModel(np.array([0.5, 0.5]), np.array([0.1, -0.1]))
        with pytest.raises(ValueError):
            coarse_grain_fi(model, np.eye(3))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_never_creates_information(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 7))
        model = random_categorical(rng, m)
        channel = rng.dirichlet(np.ones(n), size=m)
        from cfii.models import categorical_fi
        assert (coarse_grain_fi(model, channel)
                <= categorical_fi(model) + 1e-10)


class TestExtremeFiniteInputs:
    """Finite inputs whose intermediate products or inverses pass the
    largest float: the library refuses instead of returning NaN or a
    wrong number, and an FI past the largest float is inf, with no
    RuntimeWarning on the way."""

    @pytest.mark.parametrize("call, match", [
        # 5e-321 is the true F_eff, not the 0.0 of a lost direction
        (lambda: effective_fi(np.eye(2) * 1e-320, ONES2),
         r"^u\^T F\^\+ u overflows$"),
        (lambda: effective_fi(np.eye(2) * 1e300, [1e-150, 0.0]),
         r"^1/\(u\^T F\^\+ u\) overflows$"),
    ], ids=["effective_fi-subnormal", "effective_fi-huge"])
    def test_overflow_refused(self, call, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResistanceOverflowError, match=match):
                call()

    def test_fi_past_the_largest_float_is_inf(self):
        model = CategoricalModel([1e-320, 1 - 1e-320], [1e-5, -1e-5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert categorical_fi(model) == math.inf
            assert coarse_grain_fi(model, np.eye(2)) == math.inf
