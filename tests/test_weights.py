"""Weight strategies, conditional variance of the estimator, and BLUE weights."""

import tracemalloc

import numpy as np
import pytest

from mppstat import (
    Band,
    GaussianFieldMarks,
    InputError,
    PointPattern,
    PoissonGround,
    SimWindow,
    WeightStrategy,
    Window,
    blue_weights,
    builtin,
    compute_weights,
    covariance_model,
    mean_mark_conditional_variance,
    neighbor_counts,
    pair_table,
    sample_ground,
    sample_marks,
)

from helpers import pattern_1d, random_pattern

FIRST = builtin("first")


def _table(pats):
    return pair_table(pats, Window(2.0), Band(0.5, 1.5), FIRST)


class TestComputeWeights:
    def test_equal(self):
        pats = [pattern_1d([0.0, 1.0], lo=0, hi=2)] * 3
        w = compute_weights(WeightStrategy("equal"), _table(pats))
        assert w.tolist() == [1.0, 1.0, 1.0]

    def test_pairs_per_volume(self):
        # pair counts (1, 3) on a window of volume 2 -> (0.5, 1.5)
        r1 = pattern_1d([0.0, 1.0], lo=0, hi=2)
        r2 = pattern_1d([0.0, 0.7, 1.4], lo=0, hi=2)
        w = compute_weights(WeightStrategy("alpha"), _table([r1, r2]))
        assert w.tolist() == [0.5, 1.5]

    def test_counts_per_volume(self):
        r1 = pattern_1d(np.linspace(0, 1.9, 10), lo=0, hi=2)
        r2 = pattern_1d(np.linspace(0, 1.9, 20), lo=0, hi=2)
        w = compute_weights(WeightStrategy("count"), _table([r1, r2]))
        assert w.tolist() == [5.0, 10.0]

    def test_counts_ignore_buffer_points(self):
        pat = pattern_1d([-0.5, 0.2, 1.0, 2.4], lo=-1, hi=3)
        w = compute_weights(WeightStrategy("count"), _table([pat]))
        assert w.tolist() == [1.0]  # 2 in-window points / volume 2

    def test_rfvar_reciprocal_and_zero_fallback(self):
        cov = covariance_model("spherical", 1.0, 0.5)
        strat = WeightStrategy("rfvar", cov=cov)
        good = pattern_1d([0.0, 1.0], lo=0, hi=2)
        lonely = pattern_1d([0.0], lo=0, hi=2)
        with pytest.warns(UserWarning, match="weight set to 0"):
            w = compute_weights(strat, _table([good, lonely]))
        v = mean_mark_conditional_variance(good, Window(2.0), Band(0.5, 1.5), cov)
        assert w[0] == pytest.approx(1.0 / v)
        assert w[1] == 0.0

    def test_strategy_validation(self):
        with pytest.raises(InputError):
            WeightStrategy("nope")
        with pytest.raises(InputError):
            WeightStrategy("rfvar")
        with pytest.raises(InputError):
            WeightStrategy("custom")

    def test_positivity_on_nonempty_realizations(self):
        rng = np.random.default_rng(1)
        pats = [random_pattern(rng, 20, extent=6.0) for _ in range(4)]
        win, band = Window(6.0), Band(-1.0, 1.0)
        for kind in ("equal", "alpha", "count"):
            w = compute_weights(WeightStrategy(kind), pair_table(pats, win, band, FIRST))
            assert np.all(w > 0)


class TestConditionalVariance:
    def test_single_point_with_neighbors(self):
        # one in-window point with k neighbors: variance equals cov(0)
        pat = pattern_1d([0.0, 1.0, 1.2, 1.4], lo=0.0, hi=2.0)
        cov = covariance_model("spherical", 2.0, 0.5)
        v = mean_mark_conditional_variance(pat, Window(0.5), Band(0.5, 1.5), cov)
        counts = neighbor_counts(pat, Window(0.5), Band(0.5, 1.5))
        assert counts.tolist() == [3, 0, 0, 0]
        assert v == pytest.approx(2.0)

    def test_two_uncorrelated_points(self):
        # two in-window points, one neighbor each, covariance zero between
        # them: (cov(0) + cov(0)) / (1 + 1)^2 = cov(0) / 2
        pat = pattern_1d([0.0, 1.0, 10.0, 11.0], lo=0.0, hi=12.0)
        cov = covariance_model("spherical", 3.0, 0.5)
        v = mean_mark_conditional_variance(pat, Window(12.0), Band(0.5, 1.5), cov)
        assert v == pytest.approx(1.5)

    def test_fully_correlated_points(self):
        pat = pattern_1d([0.0, 1.0, 10.0, 11.0], lo=0.0, hi=12.0)

        def cov(h):
            return np.full_like(np.asarray(h, dtype=float), 3.0)

        v = mean_mark_conditional_variance(pat, Window(12.0), Band(0.5, 1.5), cov)
        assert v == pytest.approx(3.0)

    def test_no_pairs_undefined(self):
        pat = pattern_1d([0.0], lo=0.0, hi=1.0)
        cov = covariance_model("spherical", 1.0, 0.5)
        assert np.isnan(
            mean_mark_conditional_variance(pat, Window(1.0), Band(0.5, 1.5), cov)
        )

    @pytest.mark.parametrize("c0", [-1.0, np.inf, np.nan])
    def test_invalid_cov_zero_rejected(self, c0):
        pat = pattern_1d([0.0, 1.0], lo=0.0, hi=2.0)

        def cov(h):
            return np.full_like(np.asarray(h, dtype=float), c0)

        with pytest.raises(InputError, match="cov\\(0\\)"):
            mean_mark_conditional_variance(pat, Window(2.0), Band(0.5, 1.5), cov)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("closure", [False, True])
    def test_banded_quadratic_form_matches_dense(self, dim, closure):
        rng = np.random.default_rng(17 + dim)
        pat = random_pattern(rng, 150 if dim == 1 else 250, dim=dim, extent=12.0, buffer=1.5)
        win, band = Window(np.full(dim, 12.0)), Band(0.3, 1.5, signed=(dim == 1))
        model = covariance_model("spherical", 2.0, 0.8)
        cov = (lambda h: model(h)) if closure else model  # a closure carries no range
        v = mean_mark_conditional_variance(pat, win, band, cov)
        counts = neighbor_counts(pat, win, band).astype(float)
        diff = pat.locations[:, None, :] - pat.locations[None, :, :]
        dense = model(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))
        assert v == pytest.approx(counts @ dense @ counts / counts.sum() ** 2, rel=1e-12)

    def test_matches_mark_resampling_monte_carlo(self):
        # fixed locations, resample the mark field, compare empirical
        # variance of the estimator (light version of the acceptance run)
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0.0, 20.0, 40))
        x = x[np.concatenate(([True], np.diff(x) > 1e-6))]
        pat = pattern_1d(x, lo=0.0, hi=20.0)
        win, band = Window(20.0), Band(-1.5, 1.5)
        field = GaussianFieldMarks(1.0, 2.0, 1.0)
        cov = field.covariance()
        v = mean_mark_conditional_variance(pat, win, band, cov)
        counts = neighbor_counts(pat, win, band).astype(float)
        total = counts.sum()
        vals = np.empty(6000)
        for s in range(vals.size):
            y, _ = sample_marks(pat.locations, field, seed=s)
            vals[s] = float(counts @ y) / total
        assert np.var(vals, ddof=1) == pytest.approx(v, rel=0.1)

    def test_oversized_band_rejected_before_it_is_built(self):
        # 10^5 points at unit intensity in a square, range 1: the strip band
        # of the active points is b ~ 230 wide and n b^2 ~ 3e9.  The short
        # distance band keeps the pair enumeration small, so the peak
        # measures what is allocated for the covariance band.
        sw = SimWindow.cube(0.0, 316.0, 2)
        locs = sample_ground(PoissonGround(1.0), sw, seed=1)
        assert locs.shape[0] > 90_000
        n = locs.shape[0]
        pat = PointPattern(locs, np.zeros(n), np.ones(n), sw)
        cov = covariance_model("spherical", 1.0, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="above the budget of 1e\\+09"):
                mean_mark_conditional_variance(
                    pat, Window(np.full(2, 316.0)), Band(0.0, 0.5, signed=False), cov
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * locs.nbytes


class TestBlueWeights:
    def test_identity(self):
        assert blue_weights(np.eye(3)).tolist() == pytest.approx([1 / 3] * 3)

    def test_inverse_variance(self):
        w = blue_weights(np.diag([1.0, 4.0]))
        assert w == pytest.approx([0.8, 0.2])

    def test_equicorrelated_uniform(self):
        for rho in (-0.2, 0.0, 0.35, 0.9):
            n = 4
            sigma = np.full((n, n), rho) + (1 - rho) * np.eye(n)
            assert blue_weights(sigma) == pytest.approx([0.25] * n)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        sigma = a @ a.T + 5 * np.eye(5)
        w = blue_weights(sigma)
        assert abs(w.sum() - 1.0) <= 4 * np.finfo(float).eps

    def test_minimizes_quadratic_form(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            a = rng.normal(size=(5, 5))
            sigma = a @ a.T + 5 * np.eye(5)
            w = blue_weights(sigma)
            base = w @ sigma @ w
            for _ in range(100):
                d = rng.normal(size=5)
                d -= d.mean()  # stay on the sum-to-one hyperplane
                d *= 1e-3 / np.linalg.norm(d)
                assert (w + d) @ sigma @ (w + d) >= base - 1e-15

    def test_scaling_invariance(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 6))
        sigma = a @ a.T + 6 * np.eye(6)
        w1 = blue_weights(sigma)
        w2 = blue_weights(sigma * 137.0)
        assert w2 == pytest.approx(w1, rel=1e-12)

    def test_non_positive_definite_reports_minor(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InputError, match="minor"):
            blue_weights(bad)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError, match="symmetric"):
            blue_weights(np.array([[1.0, 0.5], [0.2, 1.0]]))
