"""Estimator family: single-realization and multi-realization."""

import dataclasses
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
    PatternBatch,
    PointPattern,
    SimWindow,
    Window,
    band_pair_indices,
    band_pair_indices_naive,
    builtin,
    buffered_window,
    concat_patterns,
    core,
    make_mark_function,
    mean_mark,
    mean_mark_avg,
    mean_mark_pooled,
    mean_mark_weighted,
    pair_sums,
    pair_table,
    sample_mixture,
    translate,
)
from mppstat import (
    Covariance, GaussianFieldMarks, GridGround, IidMarks, MixtureClass, MixtureSpec,
    PoissonGround, WeightStrategy, compute_weights, conditional_variances,
    mean_mark_conditional_variance, neighbor_counts, sample_batch, sample_blocks,
)
from mppstat import class_averaged_mean_mark, mixture_mean_mark

from mppstat.core import _ascending, _block_order, _ranges_sorted_1d
from mppstat.est import _pair_tables

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


@st.composite
def shared_sweep_cases(draw):
    """(batch, window, bands): a 1-D batch, checked under a drawn block budget, and 1-4 bands.

    Realizations are empty, on a grid, or tiny: points 1e-300 apart that
    the shift of a block rounds to one key, so a block holding a tiny
    realization after another one ties.  Bands are mirrored pairs,
    overlap, contain 0, have lo == hi or one infinite endpoint, and may
    end on the displacement of a drawn pair.
    """
    step = draw(st.sampled_from([1 / 8, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["grid", "grid", "empty", "tiny"]))
        if kind == "grid":
            lo = draw(st.integers(-24, 40))
            cells = draw(st.lists(st.integers(lo, lo + 48), unique=True, max_size=40))
            xs.append(np.array(cells, dtype=float) * step)
        elif kind == "tiny":
            xs.append(rng.permutation(draw(st.integers(1, 30))) * 1e-300)
        else:
            xs.append(np.empty(0))
    x = np.concatenate(xs)
    starts = np.cumsum([0] + [a.size for a in xs])
    ends = [float(x[j] - x[i]) for i, j in rng.integers(0, max(x.size, 1), (3, 2))
            if x.size and abs(x[j] - x[i]) <= 3.0]
    end = st.one_of(st.integers(-24, 24).map(lambda k: k * step), st.sampled_from(ends or [0.0]))
    bands, n_bands = [], draw(st.integers(1, 4))
    while len(bands) < n_bands:
        a, b = sorted((draw(end), draw(end)))
        kind = draw(st.sampled_from(["any", "zero", "point", "lo_inf", "hi_inf", "mirror"]))
        if kind == "zero":
            a, b = min(a, 0.0), max(b, 0.0)
        elif kind == "point":
            b = a
        elif kind == "lo_inf":
            a = -np.inf
        elif kind == "hi_inf":
            b = np.inf
        bands.append(Band(a, b))
        if kind == "mirror":
            bands.append(Band(-b, -a))
    with mock.patch.object(core, "_BLOCK_POINTS", draw(st.sampled_from([1, 5, 24, 2048]))):
        batch = PatternBatch(x.reshape(-1, 1), rng.normal(0.0, 3.0, x.size),
                             rng.choice([0.0, 0.5, 1.0, 1.7], x.size), starts,
                             SimWindow.cube(-5.0, 15.0, 1))
    return batch, Window(draw(st.sampled_from([2.0, 5.0]))), bands[:4]


class TestSharedSweep:
    """One sweep per block serves every band; the batch sorts each block once."""

    @given(shared_sweep_cases())
    @settings(max_examples=200, deadline=None)
    def test_tables_equal_sums_over_naive_pairs_in_sweep_order(self, case):
        batch, win, bands = case
        visited = []
        tables = _pair_tables(batch, win, bands, PRODUCT,
                              visit=lambda block, neighbors: visited.append(neighbors))
        assert [table.band for table in tables] == bands and len(visited) == 1
        for band, table, got_neighbors in zip(bands, tables, visited[0]):
            num, den, count, n_window, neighbors = [], [], [], [], []
            for k in range(batch.n_realizations):
                p = batch.pattern(k)
                x, y, z = p.locations[:, 0], p.y, p.z
                ii, jj = band_pair_indices_naive(p, win, band)
                rank = np.empty(x.size, dtype=np.int64)
                rank[np.argsort(x, kind="stable")] = np.arange(x.size)
                in_sweep_order = np.lexsort((rank[jj], ii))
                ii, jj = ii[in_sweep_order], jj[in_sweep_order]
                num.append(np.add.reduce(z[ii] * PRODUCT(y[ii], y[jj])))
                den.append(np.add.reduce(z[ii]))
                count.append(ii.size)
                n_window.append(int(np.sum(win.contains(p.locations))))
                neighbors.append(np.bincount(ii, minlength=x.size))
            assert _bits(table.num) == _bits(np.array(num, dtype=float))
            assert _bits(table.den) == _bits(np.array(den, dtype=float))
            assert table.count.tolist() == count
            assert table.n_window.tolist() == n_window
            assert got_neighbors.tolist() == np.concatenate(neighbors).tolist()

    @given(shared_sweep_cases())
    @settings(max_examples=100, deadline=None)
    def test_batch_keeps_each_blocks_order(self, case):
        # every block has its kept order: a block whose shifted keys tie
        # was split into its realizations, each sorted on its own
        batch, _, _ = case
        x, starts = batch.locations[:, 0], batch.starts
        blocks = batch._sorted_blocks
        assert [k0 for k0, _, _ in blocks] == [0] + [k1 for _, k1, _ in blocks[:-1]]
        assert blocks[-1][1] == batch.n_realizations
        for k0, k1, kept in blocks:
            a, b = starts[k0], starts[k1]
            order, ss = _block_order(x[a:b], starts[k0:k1 + 1] - a)
            assert b - a < 2 or _ascending(ss)
            assert _bits(kept[0]) == _bits(order) and _bits(kept[1]) == _bits(ss)
            assert not kept[0].flags.writeable and not kept[1].flags.writeable

    def test_tied_block_sweeps_each_realization_without_sorting(self, monkeypatch):
        # about 1e-17 apart, the points of every realization after the first
        # tie once shifted by about 1, so the batch keeps one block per realization
        spec = MixtureSpec((
            MixtureClass(0.5, PoissonGround(1e17), GaussianFieldMarks(0.0, 1.0, 5e-18)),
            MixtureClass(0.5, GridGround(1e-17), GaussianFieldMarks(0.0, 1.0, 3e-17))))
        batch = sample_batch(spec, SimWindow.cube(0.0, 1e-15, 1), 6, 2)
        assert not _ascending(_block_order(batch.locations[:, 0], batch.starts)[1])
        assert [(k0, k1) for k0, k1, _ in batch._sorted_blocks] == [(k, k + 1) for k in range(6)]
        win, bands = Window(8e-16), [Band(-3e-17, 5e-17), Band(1e-17, 1e-16)]
        sorts, visited = [], []
        monkeypatch.setattr(core, "_block_order", lambda *args: sorts.append(args))
        tables = _pair_tables(batch, win, bands, PRODUCT,
                              visit=lambda block, neighbors: visited.append(neighbors))
        monkeypatch.undo()
        assert sorts == []
        starts = batch.starts
        for band, table, neighbors in zip(bands, tables, visited[0]):
            assert table.count.sum() > 0
            for k in range(6):
                alone = pair_table(batch.pattern(k), win, band, PRODUCT)
                for column in ("num", "den", "count", "n_window"):
                    assert _bits(getattr(table, column)[k]) == _bits(getattr(alone, column)[0])
                assert _bits(neighbors[starts[k]:starts[k + 1]]) == _bits(
                    neighbor_counts(batch.pattern(k), win, band))


class TestBlockedPairTable:
    """The 1-D pair table sweeps blocks of realizations at once; it must equal per-pattern sums."""

    @given(realization_sets())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_pattern_sums_and_naive_pairs(self, case):
        patterns, win, band, budget = case
        with mock.patch.object(core, "_BLOCK_POINTS", budget):
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
        whole = PatternBatch.from_patterns(patterns)
        (_, _, kept), = whole._sorted_blocks
        starts, x = whole.starts, whole.locations[:, 0]
        first = np.flatnonzero((x >= 0) & (x <= win.t[0]))
        ii, jj = next(_ranges_sorted_1d(x, starts, first, kept, [band])).pairs()
        for k, p in enumerate(patterns):
            mine = (ii >= starts[k]) & (ii < starts[k + 1])
            fast = band_pair_indices(p, win, band)
            assert np.array_equal(ii[mine] - starts[k], fast[0])
            assert np.array_equal(jj[mine] - starts[k], fast[1])
            assert sorted_pairs(*fast) == sorted_pairs(*band_pair_indices_naive(p, win, band))

    def test_realization_larger_than_a_block(self):
        rng = np.random.default_rng(4)
        big = random_pattern(rng, core._BLOCK_POINTS + 300, extent=400.0, buffer=1.5)
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
        # candidate arrays for all 52,000 points at once (8 MB measured).
        # The batch holds 40 bytes a point: locations, y, z and the kept
        # sorted order of its blocks (an int64 and a float64 a point).
        rng = np.random.default_rng(2)
        patterns = [random_pattern(rng, int(rng.integers(100, 160)), extent=50.0, buffer=1.5)
                    for _ in range(400)]
        win, band = Window(50.0), Band(0.5, 1.5)
        tracemalloc.start()
        try:
            batch = PatternBatch.from_patterns(patterns)
            built, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            pair_table(batch, win, band, FIRST)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _pair_tables(batch, win, [band, Band(-1.5, -0.5)], FIRST)
            _, peak_two = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built < 41 * batch.starts[-1]
        assert peak - built < 750_000
        # a second band adds its table (4 bytes a point, 24 a realization),
        # not the first band's pairs: those are freed before it is swept
        assert peak_two - peak < 4 * batch.starts[-1] + 24 * 400 + 32_000


class TestTreeSweep:
    """In d > 1 each realization's one kd-tree serves every band of the sweep."""

    @pytest.mark.parametrize("bands", [
        [Band.absolute(0.2, 0.7), Band.absolute(0.5, 1.5)],
        [Band.absolute(0.0, 0.4), Band.absolute(1.0, np.inf), Band.absolute(0.3, 0.9)],
    ], ids=["two", "with-infinite"])
    def test_one_tree_per_realization_and_tables_of_one_band(self, monkeypatch, bands):
        import scipy.spatial

        rng = np.random.default_rng(12)
        patterns = [random_pattern(rng, int(rng.integers(2, 80)), dim=2, extent=4.0, buffer=1.5)
                    for _ in range(6)]
        win = Window([4.0, 4.0])
        builds = []
        tree = scipy.spatial.cKDTree

        def counting(*args, **kwargs):
            builds.append(args[0].shape[0])
            return tree(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", counting)
        visited = []
        tables = _pair_tables(patterns, win, bands, PRODUCT,
                              visit=lambda block, neighbors: visited.append(neighbors))
        assert builds == [p.n_points for p in patterns]
        monkeypatch.undo()
        for band, table, neighbors in zip(bands, tables, visited[0]):
            alone_visited = []
            alone = _pair_tables(patterns, win, [band], PRODUCT,
                                 visit=lambda block, neighbors: alone_visited.append(neighbors))[0]
            assert table.band == band and table.count.sum() > 0
            for column in ("num", "den", "count", "n_window"):
                assert _bits(getattr(table, column)) == _bits(getattr(alone, column)), column
            assert _bits(neighbors) == _bits(alone_visited[0][0])


class TestStreamTables:
    """A stream of blocks tabulates the columns of its batch and keeps no block."""

    SPEC = MixtureSpec((
        MixtureClass(0.5, PoissonGround(0.05), IidMarks("normal", (0.0, 1.0)),
                     z_rule=IidMarks("uniform", (0.5, 1.5))),
        MixtureClass(0.5, PoissonGround(6.0), GaussianFieldMarks(1.0, 2.0, 0.7)),
    ))
    WIN = Window(30.0)
    BANDS = [Band(0.5, 1.5), Band(-1.5, -0.5)]

    def _draw(self, sampler):
        return sampler(self.SPEC, buffered_window(self.WIN, self.BANDS), 40, (6, 1))

    def test_columns_equal_the_batch_tables(self):
        visited = []
        streamed = _pair_tables(self._draw(sample_blocks), self.WIN, self.BANDS, FIRST,
                                visit=lambda block, neighbors: visited.append(block.n_realizations))
        whole = _pair_tables(self._draw(sample_batch), self.WIN, self.BANDS, FIRST)
        assert len(visited) > 1 and sum(visited) == 40
        for got, want in zip(streamed, whole):
            # a table holds its columns only, so no block outlives the sweep
            assert [f.name for f in dataclasses.fields(got)] == [
                "win", "band", "num", "den", "count", "n_window"]
            assert got.band == want.band
            assert got.n_realizations == want.n_realizations == 40
            for column in ("num", "den", "count", "n_window"):
                a, b = getattr(got, column), getattr(want, column)
                assert a.dtype == b.dtype and _bits(a) == _bits(b), column
        assert (whole[0].count == 0).any()  # realizations without pairs are in the stream too

    def test_pooled_exclusions_count_the_column_entries(self):
        table = pair_table(self._draw(sample_blocks), self.WIN, Band(40.0, 41.0), FIRST)
        res = mean_mark_pooled(table)
        assert not res.defined and res.meta["exclusions"] == 40

    def test_rfvar_reads_variances_collected_per_block(self):
        cov = Covariance("spherical", 1.0, 0.7)
        strategy = WeightStrategy("rfvar", cov=cov)
        table = pair_table(self._draw(sample_blocks), self.WIN, self.BANDS[0], FIRST)
        with pytest.raises(InputError, match="^rfvar weights need the realizations' "
                                             "conditional_variances$"):
            compute_weights(strategy, table)
        streamed = conditional_variances(self._draw(sample_blocks), self.WIN, self.BANDS[0], cov)
        batch = self._draw(sample_batch)
        whole = conditional_variances(batch, self.WIN, self.BANDS[0], cov)
        assert _bits(streamed) == _bits(whole)
        for k in range(batch.n_realizations):
            alone = mean_mark_conditional_variance(batch.pattern(k), self.WIN, self.BANDS[0], cov)
            assert _bits(np.float64(alone)) == _bits(streamed[k])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # realizations without pairs
            got = compute_weights(strategy, table, streamed)
        assert (got == 0).any() and (got > 0).any()
        with pytest.raises(InputError, match="expected 40 conditional variances"):
            compute_weights(strategy, table, streamed[1:])

    @pytest.mark.parametrize("empty", [[], iter(())], ids=["list", "stream"])
    def test_no_realizations_is_an_input_error(self, empty):
        with pytest.raises(InputError, match="^at least one realization is required$"):
            pair_table(empty, self.WIN, self.BANDS[0], FIRST)


class TestVisitor:
    """Per-point neighbour counts reach a visitor one block at a time; d = 1 builds none."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_neighbors_are_the_naive_bincounts_of_each_block(self, dim):
        rng = np.random.default_rng(21)
        patterns = [random_pattern(rng, int(rng.integers(0, 50)), dim=dim, extent=5.0, buffer=1.5)
                    for _ in range(12)]
        win = Window(np.full(dim, 5.0))
        bands = ([Band(0.5, 1.5), Band(-1.5, -0.5)] if dim == 1
                 else [Band.absolute(0.2, 0.7), Band.absolute(0.5, 1.5)])
        blocks = iter([PatternBatch.from_patterns(patterns[i:i + 5]) for i in range(0, 12, 5)])
        visited = []
        _pair_tables(blocks, win, bands, FIRST,
                     visit=lambda block, neighbors: visited.append((block, neighbors)))
        assert [block.n_realizations for block, _ in visited] == [5, 5, 2]
        got = [np.concatenate([neighbors[q] for _, neighbors in visited]) for q in range(2)]
        for q, band in enumerate(bands):
            want = [np.bincount(band_pair_indices_naive(p, win, band)[0], minlength=p.n_points)
                    for p in patterns]
            assert got[q].tolist() == np.concatenate(want).tolist()
            assert got[q].any()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_no_visitor_builds_no_counts(self, monkeypatch, dim):
        # d = 1 reads its counts off the partner ranges; d = 2 counts its
        # pairs, once per band and realization, with or without a visitor
        rng = np.random.default_rng(22)
        patterns = [random_pattern(rng, 40, dim=dim, extent=5.0, buffer=1.5) for _ in range(6)]
        calls = []
        bincount = np.bincount

        def spy(*args, **kwargs):
            calls.append(args)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", spy)
        win = Window(np.full(dim, 5.0))
        bands = ([Band(0.5, 1.5), Band(-1.5, -0.5)] if dim == 1
                 else [Band.absolute(0.2, 0.7), Band.absolute(0.5, 1.5)])
        per_run = 0 if dim == 1 else 2 * 6
        _pair_tables(patterns, win, bands, FIRST)
        assert len(calls) == per_run
        _pair_tables(patterns, win, bands, FIRST, visit=lambda block, neighbors: None)
        assert len(calls) == 2 * per_run
