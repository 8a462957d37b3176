"""Estimator family: single-realization, conditional, kernel, multi-realization."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mppstat import (
    Band,
    InputError,
    NumericError,
    PointPattern,
    SimWindow,
    Window,
    band_pair_indices,
    band_pair_indices_naive,
    est,
    builtin,
    buffered_window,
    concat_patterns,
    indicator_pair,
    make_mark_function,
    mean_mark,
    mean_mark_avg,
    mean_mark_cond,
    mean_mark_kernel,
    mean_mark_pooled,
    mean_mark_weighted,
    pair_sums,
    pair_table,
    sample_mixture,
    translate,
)
from mppstat import IidMarks, MixtureClass, MixtureSpec, PoissonGround
from mppstat import class_averaged_mean_mark, mixture_mean_mark

from mppstat.core import _pairs_sorted_1d

from helpers import DYADIC, pattern_1d, random_pattern, sorted_pairs

FIRST = builtin("first")
ONE = builtin("const_one")
BAND = Band(0.4, 0.6)
WIN3 = Window(3.0)


@pytest.fixture
def core_pattern():
    return pattern_1d([0.0, 0.5, 2.0], y=[2.0, 4.0, 6.0], lo=0.0, hi=3.0)


def constant_mark_pattern(value, n_points=4, extent=3.0):
    x = np.linspace(0.0, extent, n_points)
    return pattern_1d(x, y=np.full(n_points, float(value)), lo=0.0, hi=extent)


class TestMeanMark:
    def test_core_fixture(self, core_pattern):
        res = mean_mark(core_pattern, WIN3, BAND, FIRST)
        assert res.defined and res.value == 2.0
        assert res.pair_count == 1

    def test_constant_marks_give_constant(self):
        res = mean_mark(constant_mark_pattern(3.25), WIN3, Band(0.5, 1.5), FIRST)
        assert res.value == 3.25

    def test_no_pairs_undefined(self, core_pattern):
        res = mean_mark(core_pattern, WIN3, Band(10.0, 11.0), FIRST)
        assert not res.defined
        assert np.isnan(res.value)
        assert res.pair_count == 0

    def test_zero_weights_undefined_not_exception(self):
        pat = pattern_1d([0.0, 0.5], z=[0.0, 0.0], lo=0.0, hi=1.0)
        res = mean_mark(pat, Window(1.0), BAND, FIRST)
        assert not res.defined


class TestMeanMarkCond:
    def test_vacuous_conditioning_matches_exactly(self, core_pattern):
        plain = mean_mark(core_pattern, WIN3, BAND, FIRST)
        cond = mean_mark_cond(core_pattern, WIN3, BAND, FIRST, ONE)
        assert cond.value == plain.value

    def test_conditioning_that_selects_nothing(self, core_pattern):
        none = indicator_pair(100.0, 200.0, -np.inf, np.inf)
        assert not mean_mark_cond(core_pattern, WIN3, BAND, FIRST, none).defined

    def test_two_mark_fixture(self):
        # marks {2, 4}, both ordered pairs in band; conditioning on y1 > 3
        # keeps only the pair starting at the mark 4
        pat = pattern_1d([0.0, 1.0], y=[2.0, 4.0], lo=0.0, hi=1.0)
        band = Band(-1.5, 1.5)
        cond = make_mark_function(lambda y1, y2: (y1 > 3.0).astype(float), "y1>3")
        res = mean_mark_cond(pat, Window(1.0), band, FIRST, cond)
        assert res.value == 4.0

    def test_negative_conditioning_rejected(self, core_pattern):
        neg = make_mark_function(lambda y1, y2: -np.ones_like(y1), "neg")
        with pytest.raises(InputError, match="non-negative"):
            mean_mark_cond(core_pattern, WIN3, BAND, FIRST, neg)


class TestMeanMarkKernel:
    def test_rectangular_equals_band_estimate_on_fixture(self, core_pattern):
        res = mean_mark_kernel(core_pattern, WIN3, r=0.5, f=FIRST,
                               kernel="rectangular", bandwidth=0.1)
        assert res.value == 2.0

    def test_rectangular_equals_band_estimate_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pat = random_pattern(rng, 40, extent=6.0, positive_marks=True)
            win = Window(6.0)
            r = float(rng.uniform(-1.5, 1.5))
            h = float(rng.uniform(0.1, 1.0))
            via_kernel = mean_mark_kernel(pat, win, r, FIRST, "rectangular", h)
            via_band = mean_mark(pat, win, Band(r - h, r + h), FIRST)
            if via_band.defined:
                assert via_kernel.value == via_band.value
            else:
                assert not via_kernel.defined

    def test_gaussian_single_pair_recovers_f(self):
        # lone qualifying pair: the kernel weight cancels in the ratio
        pat = pattern_1d([0.2, 1.0], y=[3.0, 7.0], lo=0.0, hi=1.5)
        res = mean_mark_kernel(pat, Window(0.5), r=5.0, f=FIRST,
                               kernel="gaussian", bandwidth=1.0)
        assert res.value == pytest.approx(3.0, rel=1e-12)

    def test_rectangular_saturation(self):
        rng = np.random.default_rng(13)
        pat = random_pattern(rng, 30, extent=4.0, positive_marks=True)
        win = Window(4.0)
        sat = mean_mark_kernel(pat, win, r=0.0, f=FIRST, kernel="rectangular",
                               bandwidth=100.0)
        full = mean_mark(pat, win, Band(-100.0, 100.0), FIRST)
        assert sat.value == full.value

    def test_epanechnikov_stays_within_mark_range(self):
        rng = np.random.default_rng(15)
        pat = random_pattern(rng, 60, extent=6.0, positive_marks=True)
        res = mean_mark_kernel(pat, Window(6.0), r=1.0, f=FIRST,
                               kernel="epanechnikov", bandwidth=0.8)
        assert pat.y.min() <= res.value <= pat.y.max()

    def test_bad_kernel_and_bandwidth(self, core_pattern):
        with pytest.raises(InputError, match="kernel"):
            mean_mark_kernel(core_pattern, WIN3, 0.5, FIRST, "triangular", 0.1)
        with pytest.raises(InputError, match="bandwidth"):
            mean_mark_kernel(core_pattern, WIN3, 0.5, FIRST, "gaussian", 0.0)


class TestMeanMarkAvg:
    def test_mean_of_two(self):
        pats = [constant_mark_pattern(2.0), constant_mark_pattern(4.0)]
        res = mean_mark_avg(pair_table(pats, WIN3, Band(0.5, 1.5), FIRST))
        assert res.value == 3.0
        assert res.meta["exclusions"] == 0

    def test_single_realization_reduces_to_mean_mark(self, core_pattern):
        multi = mean_mark_avg(pair_table([core_pattern], WIN3, BAND, FIRST))
        single = mean_mark(core_pattern, WIN3, BAND, FIRST)
        assert multi.value == single.value

    def test_undefined_realizations_excluded_and_reported(self):
        lonely = pattern_1d([0.0], lo=0.0, hi=3.0)
        pats = [constant_mark_pattern(2.0), constant_mark_pattern(4.0), lonely]
        res = mean_mark_avg(pair_table(pats, WIN3, Band(0.5, 1.5), FIRST))
        assert res.value == 3.0
        assert res.meta["exclusions"] == 1

    def test_all_undefined(self):
        lonely = pattern_1d([0.0], lo=0.0, hi=3.0)
        res = mean_mark_avg(pair_table([lonely], WIN3, BAND, FIRST))
        assert not res.defined


class TestMeanMarkWeighted:
    def test_equal_weights_match_avg(self):
        pats = [constant_mark_pattern(v) for v in (2.0, 4.0, 7.0)]
        band = Band(0.5, 1.5)
        w = mean_mark_weighted(pair_table(pats, WIN3, band, FIRST), [1.0, 1.0, 1.0])
        a = mean_mark_avg(pair_table(pats, WIN3, band, FIRST))
        assert w.value == pytest.approx(a.value, rel=1e-15)

    def test_degenerate_weight(self):
        pats = [constant_mark_pattern(2.0), constant_mark_pattern(4.0)]
        res = mean_mark_weighted(pair_table(pats, WIN3, Band(0.5, 1.5), FIRST), [1.0, 0.0])
        assert res.value == 2.0

    def test_weighted_mean(self):
        pats = [constant_mark_pattern(2.0), constant_mark_pattern(4.0)]
        res = mean_mark_weighted(pair_table(pats, WIN3, Band(0.5, 1.5), FIRST), [1.0, 3.0])
        assert res.value == 3.5

    def test_zero_weight_sum_rejected(self):
        pats = [constant_mark_pattern(2.0)]
        with pytest.raises(InputError, match="sum to zero"):
            mean_mark_weighted(pair_table(pats, WIN3, Band(0.5, 1.5), FIRST), [0.0])

    def test_undefined_with_positive_weight_rejected(self):
        lonely = pattern_1d([0.0], lo=0.0, hi=3.0)
        pats = [constant_mark_pattern(2.0), lonely]
        with pytest.raises(InputError, match="undefined"):
            mean_mark_weighted(pair_table(pats, WIN3, Band(0.5, 1.5), FIRST), [1.0, 1.0])

    def test_undefined_with_zero_weight_ok(self):
        lonely = pattern_1d([0.0], lo=0.0, hi=3.0)
        pats = [constant_mark_pattern(2.0), lonely]
        res = mean_mark_weighted(pair_table(pats, WIN3, Band(0.5, 1.5), FIRST), [1.0, 0.0])
        assert res.value == 2.0
        assert res.meta["exclusions"] == 1


class TestMeanMarkPooled:
    def test_pair_count_weighting(self):
        # realization 1: one pair, estimate 2; realization 2: three pairs, estimate 4
        r1 = pattern_1d([0.0, 1.0], y=[2.0, 2.0], lo=0.0, hi=3.0)
        r2 = pattern_1d([0.0, 1.0, 2.0], y=[4.0, 4.0, 4.0], lo=0.0, hi=3.0)
        band = Band(0.5, 2.5)
        assert band_pair_indices(r1, WIN3, band)[0].size == 1
        assert band_pair_indices(r2, WIN3, band)[0].size == 3
        res = mean_mark_pooled(pair_table([r1, r2], WIN3, band, FIRST))
        assert res.value == 3.5

    def test_single_realization(self, core_pattern):
        pooled = mean_mark_pooled(pair_table([core_pattern], WIN3, BAND, FIRST))
        assert pooled.value == mean_mark(core_pattern, WIN3, BAND, FIRST).value

    def test_identical_realizations(self, core_pattern):
        pooled = mean_mark_pooled(pair_table([core_pattern] * 4, WIN3, BAND, FIRST))
        assert pooled.value == mean_mark(core_pattern, WIN3, BAND, FIRST).value

    def test_pooled_equals_ratio_of_pooled_sums_when_z_is_one(self):
        rng = np.random.default_rng(19)
        pats = []
        for _ in range(6):
            pat = random_pattern(rng, int(rng.integers(5, 40)), extent=6.0,
                                 positive_marks=True)
            pats.append(PointPattern(pat.locations, pat.y, np.ones(pat.n_points),
                                     pat.sim_window))
        win, band = Window(6.0), Band(-1.0, 1.0)
        from mppstat import pair_sums

        nums = sum(pair_sums(p, win, band, FIRST)[0] for p in pats)
        dens = sum(pair_sums(p, win, band, ONE)[0] for p in pats)
        res = mean_mark_pooled(pair_table(pats, win, band, FIRST))
        assert res.value == pytest.approx(nums / dens, rel=1e-12)

    def test_no_pairs_anywhere_undefined(self):
        lonely = pattern_1d([0.0], lo=0.0, hi=3.0)
        assert not mean_mark_pooled(pair_table([lonely, lonely], WIN3, BAND, FIRST)).defined


class TestConcat:
    def _random_fixture(self, rng, n_patterns, buffered):
        band = Band(float(rng.uniform(-1.5, 0.0)), float(rng.uniform(0.3, 1.5)))
        t = 8.0
        win = Window(t)
        pats, weights = [], []
        while len(pats) < n_patterns:
            n = int(rng.integers(4, 30))
            buf = band.max_abs if buffered else 0.0
            lo, hi = -buf, t + buf
            x = np.unique(rng.uniform(lo, hi, n))
            pat = pattern_1d(x, y=rng.uniform(1.0, 5.0, x.size),
                             z=rng.uniform(0.1, 2.0, x.size), lo=lo, hi=hi)
            if not mean_mark(pat, win, band, FIRST).defined:
                continue
            pats.append(pat)
            weights.append(float(rng.uniform(0.1, 3.0)))
        return pats, win, band, weights

    @pytest.mark.parametrize("buffered", [False, True])
    def test_identity_with_weighted_estimate(self, buffered):
        rng = np.random.default_rng(21 + buffered)
        for _ in range(15):
            pats, win, band, weights = self._random_fixture(rng, 5, buffered)
            ref = mean_mark_weighted(pair_table(pats, win, band, FIRST), weights)
            cat = concat_patterns(pats, win, band, weights)
            cat_win = Window(float(cat.sim_window.hi[0]))
            res = mean_mark(cat, cat_win, band, FIRST)
            assert res.value == pytest.approx(ref.value, rel=1e-12)

    def test_single_pattern_unchanged(self, core_pattern):
        cat = concat_patterns([core_pattern], WIN3, BAND, [1.0])
        res = mean_mark(cat, Window(float(cat.sim_window.hi[0])), BAND, FIRST)
        assert res.value == pytest.approx(
            mean_mark(core_pattern, WIN3, BAND, FIRST).value, rel=1e-12
        )

    def test_two_identical_patterns_equal_weights(self, core_pattern):
        cat = concat_patterns([core_pattern] * 2, WIN3, BAND, [1.0, 1.0])
        res = mean_mark(cat, Window(float(cat.sim_window.hi[0])), BAND, FIRST)
        assert res.value == pytest.approx(
            mean_mark(core_pattern, WIN3, BAND, FIRST).value, rel=1e-12
        )

    def test_rejects_d2(self):
        rng = np.random.default_rng(33)
        pat = random_pattern(rng, 10, dim=2, extent=4.0)
        with pytest.raises(InputError, match="d=1"):
            concat_patterns([pat], Window(np.full(2, 4.0)), Band(0.1, 1.0, signed=False), [1.0])

    def test_positive_weight_without_pairs_rejected(self):
        lonely = pattern_1d([0.0], lo=0.0, hi=3.0)
        with pytest.raises(InputError, match="no weighted pairs"):
            concat_patterns([lonely], WIN3, BAND, [1.0])


class TestKernelD2:
    def test_rectangular_equals_band_estimate_in_plane(self):
        rng = np.random.default_rng(55)
        pat = random_pattern(rng, 60, dim=2, extent=5.0, positive_marks=True)
        win = Window(np.full(2, 5.0))
        kern = mean_mark_kernel(pat, win, r=1.0, f=FIRST, kernel="rectangular",
                                bandwidth=0.5)
        band = mean_mark(pat, win, Band(0.5, 1.5, signed=False), FIRST)
        assert kern.value == band.value

    def test_negative_part_of_support_clipped(self):
        rng = np.random.default_rng(56)
        pat = random_pattern(rng, 40, dim=2, extent=5.0, positive_marks=True)
        win = Window(np.full(2, 5.0))
        res = mean_mark_kernel(pat, win, r=0.2, f=FIRST, kernel="rectangular",
                               bandwidth=1.0)
        assert res.band.lo == 0.0


class TestEstInvariants:
    def test_translation_invariance_exact_on_dyadic_grid(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            pat = random_pattern(rng, 50, dyadic=True)
            win, band = Window(10.0), Band(-1.5, 1.5)
            base = mean_mark(pat, win, band, FIRST)
            shift = np.array([rng.integers(-2000, 2000) * DYADIC])
            moved = translate(translate(pat, shift), -shift)
            again = mean_mark(moved, win, band, FIRST)
            assert again.value == base.value

    def test_z_scaling_invariance(self):
        rng = np.random.default_rng(35)
        for c in (3.7, 0.01, 250.0):
            pat = random_pattern(rng, 60, positive_marks=True)
            win, band = Window(10.0), Band(-1.0, 1.0)
            base = mean_mark(pat, win, band, FIRST)
            scaled = PointPattern(pat.locations, pat.y, pat.z * c, pat.sim_window)
            res = mean_mark(scaled, win, band, FIRST)
            assert res.value == pytest.approx(base.value, rel=1e-12)

    def test_smoothing_identity(self):
        rng = np.random.default_rng(39)
        for _ in range(15):
            pat = random_pattern(rng, 80, positive_marks=True)
            win = Window(10.0)
            a, b, c = np.sort(rng.uniform(-2, 2, 3))
            b1, b2 = Band(a, b), Band(np.nextafter(b, np.inf), c)
            m1, m2 = mean_mark(pat, win, b1, FIRST), mean_mark(pat, win, b2, FIRST)
            if not (m1.defined and m2.defined):
                continue
            a1 = m1.meta["denominator"]
            a2 = m2.meta["denominator"]
            combined = mean_mark(pat, win, Band(a, c), FIRST)
            expect = (a1 * m1.value + a2 * m2.value) / (a1 + a2)
            assert combined.value == pytest.approx(expect, rel=1e-12)

    def test_pooled_and_avg_targets_diverge_then_coincide(self):
        # class intensities and mark means both differ: the two estimators
        # approach different limits; with equal intensities they agree
        f = FIRST
        win, band = Window(60.0), Band(0.5, 1.5)

        def run(lam_a, lam_b, seed):
            spec = MixtureSpec(
                (
                    MixtureClass(0.5, PoissonGround(lam_a), IidMarks("normal", (0.0, 1.0))),
                    MixtureClass(0.5, PoissonGround(lam_b), IidMarks("normal", (10.0, 1.0))),
                )
            )
            sw = buffered_window(win, band)
            pooled, avg = [], []
            for rep in range(25):
                pats = [p for p, _ in sample_mixture(spec, sw, 60, (seed, rep))]
                table = pair_table(pats, win, band, f)
                pooled.append(mean_mark_pooled(table).value)
                avg.append(mean_mark_avg(table).value)
            return spec, np.mean(pooled), np.mean(avg)

        spec, pooled, avg = run(1.0, 4.0, seed=101)
        mu = mixture_mean_mark(spec, f, 2, band)
        mu_tilde = class_averaged_mean_mark(spec, f, 2)
        assert abs(pooled - mu) < 0.35
        assert abs(avg - mu_tilde) < 0.35
        assert pooled - avg > 3.0

        _, pooled_eq, avg_eq = run(2.0, 2.0, seed=103)
        assert abs(pooled_eq - avg_eq) < 0.15


PRODUCT = builtin("product")


@st.composite
def realization_sets(draw):
    """(patterns, window, band, block budget) with pairs exactly on the band ends.

    Coordinates are multiples of a grid step, exact for 1/8 and rounded
    otherwise; the band ends are displacements of drawn pairs, computed
    as the pair test computes them.  Each realization has its own
    simulation window, which may miss [0, T]; realizations may be empty.
    """
    t = draw(st.sampled_from([2.0, 5.0]))
    step = draw(st.sampled_from([1 / 8, 0.1, 0.3 / 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patterns = []
    for _ in range(draw(st.integers(1, 7))):
        lo = draw(st.integers(-24, int(t / step) + 24))
        hi = lo + draw(st.integers(0, 64))
        cells = draw(st.lists(st.integers(lo, hi), unique=True, max_size=40))
        x = np.array(cells, dtype=float) * step
        patterns.append(PointPattern(x, rng.normal(0.0, 3.0, x.size),
                                     rng.choice([0.0, 0.5, 1.0, 1.7], x.size),
                                     SimWindow.cube(lo * step, hi * step, 1)))
    x = np.concatenate([p.locations[:, 0] for p in patterns])
    ends = [float(x[j] - x[i]) for i, j in rng.integers(0, max(x.size, 1), (2, 2))
            if x.size and abs(x[j] - x[i]) <= 3.0]
    ends += [draw(st.integers(-24, 16)) * step, draw(st.integers(-24, 16)) * step]
    band = Band(*sorted(draw(st.permutations(ends))[:2]))
    budget = draw(st.sampled_from([1, 5, 24, 2048]))
    return patterns, Window(t), band, budget


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


class TestBlockedPairTable:
    """The 1-D pair table sweeps blocks of realizations at once; it must equal per-pattern sums."""

    @given(realization_sets())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_pattern_sums_and_naive_pairs(self, case):
        patterns, win, band, budget = case
        with mock.patch.object(est, "_BLOCK_POINTS", budget):
            table = pair_table(patterns, win, band, PRODUCT)
        num, den, count = zip(*(pair_sums(p, win, band, PRODUCT) for p in patterns))
        assert _bits(table.num) == _bits(np.array(num))
        assert _bits(table.den) == _bits(np.array(den))
        assert table.count.tolist() == list(count)
        in_win = [int(np.sum((p.locations[:, 0] >= 0) & (p.locations[:, 0] <= win.t[0])))
                  for p in patterns]
        assert table.n_window.tolist() == in_win
        # one sweep over all realizations gives each one's pairs, in the
        # order of a sweep over that realization alone
        starts = np.cumsum([0] + [p.n_points for p in patterns])
        x = np.concatenate([p.locations[:, 0] for p in patterns])
        ii, jj = _pairs_sorted_1d(x, starts, (x >= 0) & (x <= win.t[0]), band)
        for k, p in enumerate(patterns):
            mine = (ii >= starts[k]) & (ii < starts[k + 1])
            fast = band_pair_indices(p, win, band)
            assert np.array_equal(ii[mine] - starts[k], fast[0])
            assert np.array_equal(jj[mine] - starts[k], fast[1])
            assert sorted_pairs(*fast) == sorted_pairs(*band_pair_indices_naive(p, win, band))

    def test_realization_larger_than_a_block(self):
        rng = np.random.default_rng(4)
        big = random_pattern(rng, est._BLOCK_POINTS + 300, extent=400.0, buffer=1.5)
        small = [random_pattern(rng, int(rng.integers(0, 200)), extent=400.0, buffer=1.5)
                 for _ in range(30)]
        patterns = small[:10] + [big] + small[10:]
        win, band = Window(400.0), Band(-1.5, -0.25)
        table = pair_table(patterns, win, band, PRODUCT)
        num, den, count = zip(*(pair_sums(p, win, band, PRODUCT) for p in patterns))
        assert _bits(table.num) == _bits(np.array(num))
        assert _bits(table.den) == _bits(np.array(den))
        assert table.count.tolist() == list(count)
        assert table.count[10] == band_pair_indices_naive(big, win, band)[0].size

    def test_points_the_shift_would_merge(self):
        # laying the second realization after the first rounds its points,
        # 1e-300 apart, all to one coordinate; the block must still sweep
        # each realization exactly, in its own order
        rng = np.random.default_rng(6)
        first = pattern_1d([0.0, 0.5, 1.0], y=[1.0, 2.0, 3.0])
        x = rng.permutation(40) * 1e-300
        tiny = pattern_1d(x, y=rng.normal(size=40), z=rng.uniform(size=40), lo=0.0, hi=1.0)
        win, band = Window(1.0), Band(-0.5, 5e-300)
        table = pair_table([first, tiny], win, band, PRODUCT)
        num, den, count = zip(*(pair_sums(p, win, band, PRODUCT) for p in (first, tiny)))
        assert _bits(table.num) == _bits(np.array(num))
        assert _bits(table.den) == _bits(np.array(den))
        assert table.count.tolist() == list(count)
        assert count[1] == band_pair_indices_naive(tiny, win, band)[0].size

    def test_realizations_too_wide_to_lay_end_to_end(self):
        # each realization spans more than the largest double: the shifted
        # coordinates overflow, and the block sweeps them one by one
        wide = pattern_1d([-1e308, 0.0, 0.25, 1e308], y=[1.0, 2.0, 3.0, 4.0])
        win, band = Window(1.0), Band(-0.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = pair_table([wide, wide], win, band, PRODUCT)
        assert table.num.tolist() == [pair_sums(wide, win, band, PRODUCT)[0]] * 2 == [12.0] * 2

    def test_non_finite_value_names_the_same_pair(self):
        rng = np.random.default_rng(8)
        patterns = [random_pattern(rng, 30, extent=6.0, buffer=1.0) for _ in range(5)]
        bad = PointPattern(patterns[3].locations, np.where(np.arange(30) == 7, 4.0, 1.0),
                           patterns[3].z, patterns[3].sim_window)
        patterns[3] = bad
        win, band = Window(6.0), Band(-1.0, 1.0)

        def inverse(y1, y2):
            with np.errstate(divide="ignore"):
                return y1 / (y2 - 4.0)

        f = make_mark_function(inverse, "inverse")
        with pytest.raises(NumericError) as single:
            pair_sums(bad, win, band, f)
        with pytest.raises(NumericError) as blocked:
            pair_table(patterns, win, band, f)
        assert str(blocked.value) == str(single.value)

    def test_memory_stays_within_a_block(self):
        # 400 realizations of ~130 points: one unblocked sweep would hold
        # candidate arrays for all 52,000 points at once (8 MB measured)
        rng = np.random.default_rng(2)
        patterns = [random_pattern(rng, int(rng.integers(100, 160)), extent=50.0, buffer=1.5)
                    for _ in range(400)]
        win, band = Window(50.0), Band(0.5, 1.5)
        tracemalloc.start()
        try:
            pair_table(patterns, win, band, FIRST)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
