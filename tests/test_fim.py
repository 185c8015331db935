"""Tests for Fisher-matrix algebra: effective FI, synergy, equicorrelated
chains, and coarse-graining."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfii.errors import (NonStochasticChannelError, NotPositiveDefiniteError,
                         ResistanceOverflowError)
from cfii.fim import (FisherMatrix, coarse_grain_fi, effective_fi,
                      equicorrelated_effective_fi, equicorrelated_matrix,
                      synergy_effective_fi, synergy_window)
from cfii.models import CategoricalModel, categorical_fi
from cfii.witness import improvement_factor

ONES2 = np.ones(2)


def random_spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.1 * np.eye(d)


class TestFisherMatrix:
    def test_accepts_psd(self):
        fm = FisherMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert fm.dim == 2

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            FisherMatrix(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            FisherMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            FisherMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FisherMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


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


class TestSynergy:
    def test_uncoupled_harmonic(self):
        assert synergy_effective_fi(1.0, 1.0, 0.0) == pytest.approx(0.5)

    def test_coupled_example(self):
        assert synergy_effective_fi(1.0, 1.0, 0.5) == pytest.approx(0.75)

    def test_supremum_example(self):
        assert synergy_effective_fi(2.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_non_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            synergy_effective_fi(1.0, 1.0, 1.0)
        with pytest.raises(NotPositiveDefiniteError):
            synergy_effective_fi(0.0, 1.0, 0.0)

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            f1, f2 = np.exp(rng.normal(size=2))
            j = rng.uniform(-1, 1) * 0.99 * np.sqrt(f1 * f2)
            closed = synergy_effective_fi(f1, f2, j)
            matrix = effective_fi(np.array([[f1, j], [j, f2]]), ONES2)
            assert closed == pytest.approx(matrix, rel=1e-10)

    def test_window_examples(self):
        assert synergy_window(1.0, 1.0) == (0.0, pytest.approx(1.0))
        lo, hi = synergy_window(3.0, 3.0)
        assert lo == 0.0 and hi == pytest.approx(3.0)

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
            assert synergy_effective_fi(f1, f2, 0.0) == pytest.approx(
                harmonic, rel=1e-12)
            assert synergy_effective_fi(f1, f2, hi) == pytest.approx(
                harmonic, rel=1e-12)

    def test_window_membership_iff_beats_harmonic(self):
        rng = np.random.default_rng(29)
        f1, f2 = 1.7, 0.6
        harmonic = 1.0 / (1.0 / f1 + 1.0 / f2)
        lo, hi = synergy_window(f1, f2)
        for j in rng.uniform(-0.9, 0.9, size=1000) * np.sqrt(f1 * f2):
            if min(abs(j - lo), abs(j - hi)) < 1e-9:
                continue
            beats = synergy_effective_fi(f1, f2, j) > harmonic
            assert beats == (lo < j < hi)


class TestEquicorrelated:
    def test_classical_series_dilution(self):
        assert equicorrelated_effective_fi(2.0, 0.0, 5) == pytest.approx(0.4)

    def test_half_correlated_four_chain(self):
        assert equicorrelated_effective_fi(1.0, 0.5, 4) == pytest.approx(0.625)

    def test_full_correlation_limit(self):
        f = equicorrelated_effective_fi(3.0, 1.0 - 1e-12, 7)
        assert f == pytest.approx(3.0, rel=1e-10)

    def test_matches_matrix_inversion(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            k = int(rng.integers(1, 13))
            f = float(np.exp(rng.normal()))
            eps = float(rng.uniform(0.0, 0.999))
            closed = equicorrelated_effective_fi(f, eps, k)
            mat = equicorrelated_matrix(f, eps, k)
            direct = 1.0 / float(np.ones(k) @ np.linalg.inv(mat) @ np.ones(k))
            assert closed == pytest.approx(direct, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            equicorrelated_effective_fi(1.0, -0.1, 3)
        with pytest.raises(ValueError):
            equicorrelated_effective_fi(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            equicorrelated_effective_fi(1.0, 0.5, 0)


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
    largest float: a closed form refuses instead of returning NaN or a
    wrong number, and an FI past the largest float is inf, with no
    RuntimeWarning on the way."""

    @pytest.mark.parametrize("call, match", [
        (lambda: synergy_effective_fi(1e308, 1e308, 0.0),
         r"^f1 f2 - j\^2 overflows$"),
        (lambda: synergy_window(1e308, 1e308), r"^2 f1 f2 overflows$"),
        (lambda: improvement_factor(1e308, 1e308), r"^r_cl \+ v overflows$"),
        # 5e-321 is the true F_eff, not the 0.0 of a lost direction
        (lambda: effective_fi(np.eye(2) * 1e-320, ONES2),
         r"^u\^T F\^\+ u overflows$"),
        (lambda: effective_fi(np.eye(2) * 1e300, [1e-150, 0.0]),
         r"^1/\(u\^T F\^\+ u\) overflows$"),
    ], ids=["synergy_effective_fi", "synergy_window", "improvement_factor",
            "effective_fi-subnormal", "effective_fi-huge"])
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
