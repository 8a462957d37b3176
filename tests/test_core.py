"""Core data model, distances, pair enumeration and serialization."""

import re
import sys

import numpy as np
import pytest

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
    buffered_window,
    builtin,
    core,
    mean_mark,
    neighbor_counts,
    pair_sums,
    pair_table,
    read_pattern_csv,
    translate,
    write_pattern_csv,
)

from helpers import DYADIC, pattern_1d, random_band, random_pattern, sorted_pairs

FIRST = builtin("first")
ONE = builtin("const_one")


class TestValidation:
    def test_negative_z_rejected(self):
        with pytest.raises(InputError):
            pattern_1d([0.0, 1.0], z=[1.0, -0.5])

    def test_duplicate_locations_rejected(self):
        with pytest.raises(InputError, match="simple"):
            pattern_1d([0.0, 1.0, 1.0])

    # Each case breaks its own check and every later one, so the expected
    # message also pins the order of the checks.
    MESSAGES = {
        "location": "locations must be finite",
        "y": "marks y must be finite",
        "z": "weight marks z must be finite and >= 0",
        "window": "all locations must lie inside sim_window",
        "simple": "pattern is not simple: duplicate locations",
    }

    CASES = [
        ("location", np.nan), ("location", np.inf), ("location", -np.inf),
        ("y", np.nan), ("y", np.inf),
        ("z", np.nan), ("z", np.inf), ("z", -np.inf), ("z", -0.5),
        ("window", 1.5), ("window", -0.25),
        ("simple", None),
    ]

    @classmethod
    def broken(cls, dim, check, bad):
        """Three points (loc, y, z) that fail `check` and every later check."""
        loc = np.tile(np.array([[0.25], [0.5], [0.75]]), (1, dim))
        y, z = np.array([1.0, 2.0, 3.0]), np.ones(3)
        order = list(cls.MESSAGES)
        later = order[order.index(check):]
        if "simple" in later:
            loc[2] = loc[1]
        if "window" in later:
            loc[1, -1] = bad if check == "window" else 2.0
        if "z" in later:
            z[1] = bad if check == "z" else -1.0
        if "y" in later:
            y[0] = bad if check == "y" else np.nan
        if check == "location":
            loc[0, 0] = bad
        return loc, y, z

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("check,bad", CASES)
    def test_messages_in_check_order(self, dim, check, bad):
        loc, y, z = self.broken(dim, check, bad)
        with pytest.raises(InputError, match=f"^{re.escape(self.MESSAGES[check])}$"):
            PointPattern(loc, y, z, SimWindow.cube(0.0, 1.0, dim))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("check,bad", CASES)
    def test_batch_messages_in_check_order(self, dim, check, bad):
        # the broken points are the second realization of a batch
        loc, y, z = self.broken(dim, check, bad)
        good = np.full((2, dim), 0.125) + np.array([[0.0], [0.5]])
        with pytest.raises(InputError, match=f"^{re.escape(self.MESSAGES[check])}$"):
            PatternBatch(np.vstack([good, loc]), np.concatenate([[0.0, 0.0], y]),
                         np.concatenate([[1.0, 1.0], z]), [0, 2, 5], SimWindow.cube(0.0, 1.0, dim))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_batch_location_shared_across_realizations_is_simple(self, dim):
        loc = np.full((4, dim), 0.5)
        loc[1] = loc[3] = 0.25
        batch = PatternBatch(loc, np.ones(4), np.ones(4), [0, 2, 4], SimWindow.cube(0.0, 1.0, dim))
        assert batch.n_realizations == 2
        assert batch.pattern(1).locations.tobytes() == loc[2:].tobytes()

    def test_batch_from_patterns(self):
        a = pattern_1d([0.0, 2.0], y=[1.0, 2.0], lo=-1.0, hi=2.0)
        b = pattern_1d([0.5], y=[3.0], z=[0.25], lo=0.0, hi=4.0)
        batch = PatternBatch.from_patterns([a, b])
        assert batch.starts.tolist() == [0, 2, 3]
        assert batch.locations[:, 0].tolist() == [0.0, 2.0, 0.5]
        assert (batch.y.tolist(), batch.z.tolist()) == ([1.0, 2.0, 3.0], [1.0, 1.0, 0.25])
        assert (batch.sim_window.lo.tolist(), batch.sim_window.hi.tolist()) == ([-1.0], [4.0])
        assert batch.classes is None
        with pytest.raises(InputError, match="at least one realization"):
            PatternBatch.from_patterns([])

    def test_points_outside_window_rejected(self):
        with pytest.raises(InputError):
            PointPattern(np.array([5.0]), np.array([1.0]), np.array([1.0]),
                         SimWindow.cube(0, 1, 1))

    def test_band_endpoints(self):
        with pytest.raises(InputError):
            Band(1.0, 0.0)
        with pytest.raises(InputError):
            Band(-1.0, 2.0, signed=False)

    def test_band_dim_convention(self):
        with pytest.raises(InputError):
            Band(-1.0, 1.0, signed=True).require_dim(2)
        with pytest.raises(InputError):
            Band(0.0, 1.0, signed=False).require_dim(1)

    def test_window_positive(self):
        with pytest.raises(InputError):
            Window(0.0)


class TestBatchOfOne:
    """A pattern is the batch of its one realization and takes the batch's one sweep."""

    def test_pattern_is_a_batch_of_one(self):
        pat = pattern_1d([0.0, 0.5, 2.0], y=[2.0, 4.0, 6.0], lo=0.0, hi=3.0)
        assert isinstance(pat, PatternBatch)
        assert pat.starts.tolist() == [0, 3] and pat.n_realizations == 1
        assert pat.n_points == 3 and pat.classes is None
        assert pair_table(pat, Window(3.0), Band(0.4, 0.6), FIRST).batch is pat
        assert "__post_init__" not in vars(PointPattern)

    def test_one_dimensional_locations_are_reshaped(self):
        pat = PointPattern([0.5, 0.25], [1.0, 2.0], [1.0, 1.0], SimWindow.cube(0.0, 1.0, 1))
        assert pat.locations.shape == (2, 1)
        assert pat.locations[:, 0].tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("batch", [False, True])
    def test_caller_arrays_stay_writeable_and_unshared(self, batch):
        loc, y, z = np.array([[0.25], [0.5]]), np.array([1.0, 2.0]), np.array([1.0, 1.0])
        lo, hi, t = np.array([0.0]), np.array([1.0]), np.array([1.0])
        z_view = z.view()  # read-only, but z can still write to it
        z_view.flags.writeable = False
        win = SimWindow(lo, hi)
        pat = (PatternBatch(loc, y, z_view, [0, 2], win) if batch
               else PointPattern(loc[:, 0], y, z_view, win))
        window = Window(t)
        for a in (loc, y, z, lo, hi, t):
            assert a.flags.writeable
            a[0] = 0.75
        assert pat.locations[:, 0].tolist() == [0.25, 0.5]
        assert pat.y.tolist() == [1.0, 2.0] and pat.z.tolist() == [1.0, 1.0]
        assert win.lo.tolist() == [0.0] and win.hi.tolist() == [1.0]
        assert window.t.tolist() == [1.0]
        assert not any(a.flags.writeable for a in (pat.locations, pat.y, pat.z, win.lo, window.t))
        # frozen arrays are shared, not copied
        assert PatternBatch(pat.locations, pat.y, pat.z, [0, 2], win).y is pat.y

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("loc,y,z,dim,message", [
        (np.zeros((2, 1, 1)), np.ones(2), np.ones(2), 1, "locations must have shape (n, 1)"),
        (np.zeros((2, 2)), np.ones(2), np.ones(2), 1, "locations must have shape (n, 1)"),
        (np.zeros((2, 1)), np.ones(2), np.ones(2), 2, "locations must have shape (n, 2)"),
        (np.array([[0.25], [0.5]]), np.ones(3), np.ones(2), 1,
         "y and z must be 1-d with one entry per point"),
        (np.array([[0.25], [0.5]]), np.ones(2), np.ones((2, 1)), 1,
         "y and z must be 1-d with one entry per point"),
    ], ids=["3d_locations", "dim_above_window", "dim_below_window", "short_y", "2d_z"])
    def test_shape_messages(self, batch, loc, y, z, dim, message):
        win = SimWindow.cube(0.0, 1.0, dim)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            if batch:
                PatternBatch(loc, y, z, [0, loc.shape[0]], win)
            else:
                PointPattern(loc, y, z, win)

    @pytest.mark.parametrize("starts", [[0], [1, 2], [0, 1], [0, 2, 1, 2], [[0, 2]]])
    def test_batch_starts_message(self, starts):
        with pytest.raises(InputError, match="^starts must rise from 0 to the number of points$"):
            PatternBatch(np.array([[0.25], [0.5]]), np.ones(2), np.ones(2), starts,
                         SimWindow.cube(0.0, 1.0, 1))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("call", [
        lambda p, win, band: band_pair_indices(p, win, band),
        lambda p, win, band: pair_sums(p, win, band, FIRST),
        lambda p, win, band: mean_mark(p, win, band, FIRST),
        lambda p, win, band: neighbor_counts(p, win, band),
    ], ids=["band_pair_indices", "pair_sums", "mean_mark", "neighbor_counts"])
    def test_single_pattern_takes_one_kernel_call_in_the_sweep(self, monkeypatch, dim, call):
        kernel, other = ("_pairs_sorted_1d", "_pairs_tree") if dim == 1 else (
            "_pairs_tree", "_pairs_sorted_1d")
        original = getattr(core, kernel)
        callers = []

        def spy(*args):
            callers.append(sys._getframe(1).f_code)
            return original(*args)

        monkeypatch.setattr(core, kernel, spy)
        monkeypatch.setattr(core, other, lambda *args: pytest.fail(f"{other} called"))
        rng = np.random.default_rng(9)
        pat = random_pattern(rng, 40, dim=dim, extent=6.0, buffer=1.0)
        band = Band(0.5, 1.0) if dim == 1 else Band.absolute(0.5, 1.0)
        call(pat, Window(np.full(dim, 6.0)), band)
        assert callers == [core._sweep.__code__]

    def test_window_dim_mismatch_rejected(self):
        pat = random_pattern(np.random.default_rng(1), 10, dim=2)
        with pytest.raises(InputError, match="window dim 1 != pattern dim 2"):
            band_pair_indices(pat, Window(10.0), Band.absolute(0.0, 1.0))
        with pytest.raises(InputError, match="window dim 1 != pattern dim 2"):
            band_pair_indices_naive(pat, Window(10.0), Band.absolute(0.0, 1.0))

    def test_window_contains_is_the_closed_box(self):
        win = Window([1.0, 2.0])
        loc = np.array([[0.0, 0.0], [1.0, 2.0], [-1e-300, 1.0], [0.5, 2.0000000000000004]])
        assert win.contains(loc).tolist() == [True, True, False, False]
        with pytest.raises(InputError, match="window dim 2 != pattern dim 1"):
            win.contains(np.zeros((3, 1)))


class TestPairCount:
    """Hand-enumerated fixture: points {0.0, 0.5, 2.0}, T=3."""

    @pytest.fixture
    def pattern(self):
        return pattern_1d([0.0, 0.5, 2.0], y=[2.0, 4.0, 6.0], lo=0.0, hi=3.0)

    def test_forward_band(self, pattern):
        # of the 6 ordered pairs only (0.0 -> 0.5) has displacement in [0.4, 0.6]
        assert band_pair_indices(pattern, Window(3.0), Band(0.4, 0.6))[0].size == 1

    def test_backward_band(self, pattern):
        assert band_pair_indices(pattern, Window(3.0), Band(-0.6, -0.4))[0].size == 1

    def test_empty_pattern(self):
        empty = PointPattern(np.empty((0, 1)), np.empty(0), np.empty(0),
                             SimWindow.cube(0, 3, 1))
        assert band_pair_indices(empty, Window(3.0), Band(0.4, 0.6))[0].size == 0

    def test_t1_outside_window_not_counted(self):
        # the pair (-0.5 -> 0.0) starts outside [0, 1] and must not count,
        # but 0.0 -> -0.5 does: buffer points only serve as second of pair
        pat = pattern_1d([-0.5, 0.0], lo=-1.0, hi=1.0)
        assert band_pair_indices(pat, Window(1.0), Band(0.4, 0.6))[0].size == 0
        assert band_pair_indices(pat, Window(1.0), Band(-0.6, -0.4))[0].size == 1


class TestWeightedPairSum:
    @pytest.fixture
    def pattern(self):
        return pattern_1d([0.0, 0.5, 2.0], y=[2.0, 4.0, 6.0], lo=0.0, hi=3.0)

    def test_single_pair_first(self, pattern):
        assert pair_sums(pattern, Window(3.0), Band(0.4, 0.6), FIRST)[0] == 2.0

    def test_const_one_equals_pair_count(self, pattern):
        assert pair_sums(pattern, Window(3.0), Band(0.4, 0.6), ONE)[0] == 1.0

    def test_z_weighting(self):
        pat = pattern_1d([0.0, 0.5, 2.0], y=[2.0, 4.0, 6.0], z=[3.0, 1.0, 1.0],
                         lo=0.0, hi=3.0)
        assert pair_sums(pat, Window(3.0), Band(0.4, 0.6), FIRST)[0] == 6.0

    def test_non_finite_value_raises(self, pattern):
        from mppstat import make_mark_function

        def bad_fn(y1, y2):
            with np.errstate(divide="ignore"):
                return y1 / (y2 - 4.0)

        bad = make_mark_function(bad_fn, "bad")
        with pytest.raises(NumericError, match="y2=4.0") as err:
            pair_sums(pattern, Window(3.0), Band(0.4, 0.6), bad)
        # plain floats, not numpy reprs such as np.float64(0.5)
        assert str(err.value) == ("mark function returned a non-finite value for pair "
                                  "(t1=(0.0,), y1=2.0, z1=1.0) x (t2=(0.5,), y2=4.0)")
        planar = PointPattern([[0.0, 0.25], [0.5, 0.25]], [2.0, 4.0], [0.5, 1.0],
                              SimWindow.cube(0.0, 1.0, 2))
        with pytest.raises(NumericError) as err:
            pair_sums(planar, Window([1.0, 1.0]), Band.absolute(0.4, 0.6), bad)
        assert "(t1=(0.0, 0.25), y1=2.0, z1=0.5) x (t2=(0.5, 0.25), y2=4.0)" in str(err.value)


class TestTranslate:
    def test_zero_shift_identity(self):
        pat = pattern_1d([0.0, 1.0, 2.5], y=[1.0, 2.0, 3.0])
        out = translate(pat, [0.0])
        assert np.array_equal(out.locations, pat.locations)
        assert np.array_equal(out.y, pat.y)

    def test_definition(self):
        pat = pattern_1d([1.0, 2.0])
        out = translate(pat, [1.0])
        assert out.locations[:, 0].tolist() == [0.0, 1.0]
        assert out.sim_window.lo[0] == 0.0

    def test_group_law_on_dyadic_shifts(self):
        rng = np.random.default_rng(5)
        pat = random_pattern(rng, 20, dyadic=True)
        a, b = 3 * DYADIC * 7, -DYADIC * 11
        once = translate(translate(pat, [a]), [b])
        direct = translate(pat, [a + b])
        assert np.array_equal(once.locations, direct.locations)
        assert np.array_equal(once.sim_window.lo, direct.sim_window.lo)

    def test_dim_mismatch(self):
        with pytest.raises(InputError):
            translate(pattern_1d([0.0]), [1.0, 2.0])


class TestEnumerationEquivalence:
    """The fast paths must return exactly the naive double loop's pair set."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_naive(self, dim, seed):
        rng = np.random.default_rng(100 * dim + seed)
        n = int(rng.integers(2, 120))
        pat = random_pattern(rng, n, dim=dim, extent=6.0, buffer=1.5)
        win = Window(np.full(dim, 6.0))
        band = random_band(rng, dim)
        fast = sorted_pairs(*band_pair_indices(pat, win, band))
        naive = sorted_pairs(*band_pair_indices_naive(pat, win, band))
        assert fast == naive

    def test_matches_naive_500_points(self):
        rng = np.random.default_rng(42)
        pat = random_pattern(rng, 500, dim=2, extent=8.0, buffer=1.0)
        win = Window(np.full(2, 8.0))
        band = Band(0.3, 1.1, signed=False)
        assert sorted_pairs(*band_pair_indices(pat, win, band)) == sorted_pairs(
            *band_pair_indices_naive(pat, win, band)
        )

    def test_band_boundary_membership_is_closed(self):
        pat = pattern_1d([0.0, 0.5, 1.0], lo=0.0, hi=1.0)
        assert band_pair_indices(pat, Window(1.0), Band(0.5, 0.5))[0].size == 2  # (0,.5), (.5,1)


class TestCoreInvariants:
    def test_count_equals_const_one_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            pat = random_pattern(rng, int(rng.integers(0, 60)), extent=5.0)
            pat = PointPattern(pat.locations, pat.y, np.ones(pat.n_points), pat.sim_window)
            win, band = Window(5.0), random_band(rng)
            assert pair_sums(pat, win, band, ONE)[0] == band_pair_indices(pat, win, band)[0].size

    def test_additivity_over_disjoint_bands(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            pat = random_pattern(rng, 50, extent=5.0, positive_marks=True)
            win = Window(5.0)
            a, b, c = np.sort(rng.uniform(-2, 2, 3))
            left, right = Band(a, b), Band(np.nextafter(b, np.inf), c)
            whole = Band(a, c)
            s = pair_sums(pat, win, left, FIRST)[0] + pair_sums(pat, win, right, FIRST)[0]
            total = pair_sums(pat, win, whole, FIRST)[0]
            assert total == pytest.approx(s, rel=1e-12, abs=1e-300)

    def test_z_scaling_exact_for_powers_of_two(self):
        rng = np.random.default_rng(29)
        pat = random_pattern(rng, 60, extent=5.0)
        win, band = Window(5.0), Band(-1.0, 1.0)
        base = pair_sums(pat, win, band, FIRST)[0]
        for c in (0.25, 2.0, 8.0):
            scaled = PointPattern(pat.locations, pat.y, pat.z * c, pat.sim_window)
            assert pair_sums(scaled, win, band, FIRST)[0] == c * base

    def test_swapped_weight_reversal_on_contained_pattern(self):
        # with every point inside [0, T], reversing the band and swapping
        # both the mark arguments and the weighting side is an exact relabeling
        rng = np.random.default_rng(31)
        from mppstat import make_mark_function

        f = builtin("product")
        f_swapped = make_mark_function(lambda y1, y2: y2 * y1, "product_swapped")
        for _ in range(10):
            n = int(rng.integers(2, 50))
            x = np.unique(rng.uniform(0.0, 8.0, n))
            pat = pattern_1d(x, y=rng.uniform(1, 4, x.size), z=rng.uniform(0, 2, x.size),
                             lo=0.0, hi=8.0)
            win = Window(8.0)
            a, b = np.sort(rng.uniform(-2, 2, 2))
            lhs = pair_sums(pat, win, Band(a, b), f)[0]
            ii, jj = band_pair_indices(pat, win, Band(-b, -a))
            rhs = float(np.sum(pat.z[jj] * f_swapped(pat.y[ii], pat.y[jj])))
            assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-300)

    def test_translation_invariance_dyadic(self):
        rng = np.random.default_rng(37)
        pat = random_pattern(rng, 40, dyadic=True)
        win, band = Window(10.0), Band(-1.5, 1.5)
        base = pair_sums(pat, win, band, FIRST)[0]
        shift = np.array([513 * DYADIC])
        moved = translate(pat, shift)
        # the estimation box moves with the pattern: query t1 in [0,T]-shift
        # by translating back before enumerating
        back = translate(moved, -shift)
        assert pair_sums(back, win, band, FIRST)[0] == base


class TestBufferedWindow:
    def test_reach_is_max_abs_endpoint(self):
        sw = buffered_window(Window(10.0), Band(-2.0, 1.0))
        assert sw.lo[0] == -2.0 and sw.hi[0] == 12.0

    def test_multiple_bands(self):
        sw = buffered_window(Window(10.0), [Band(-0.5, 0.5), Band(1.0, 3.0)])
        assert sw.lo[0] == -3.0 and sw.hi[0] == 13.0


class TestCsvRoundTrip:
    def test_bit_faithful(self, tmp_path):
        rng = np.random.default_rng(41)
        pat = random_pattern(rng, 37, dim=2, extent=5.0)
        path = tmp_path / "pattern.csv"
        write_pattern_csv(pat, path)
        back = read_pattern_csv(path)
        assert np.array_equal(back.locations, pat.locations)
        assert np.array_equal(back.y, pat.y)
        assert np.array_equal(back.z, pat.z)
        assert np.array_equal(back.sim_window.lo, pat.sim_window.lo)

    def test_awkward_values_survive(self, tmp_path):
        x = np.array([0.1, 1.0 / 3.0, np.pi])
        pat = pattern_1d(x, y=[1e-300, 2.0**-52, 1.7976931348623157e308],
                         z=[0.0, 1e-17, 3.0], lo=0.0, hi=4.0)
        path = tmp_path / "p.csv"
        write_pattern_csv(pat, path)
        back = read_pattern_csv(path)
        assert np.array_equal(back.y, pat.y)
        assert np.array_equal(back.locations, pat.locations)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0,1.0\n")
        with pytest.raises(InputError, match="dim"):
            read_pattern_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# dim=1\n# window=0.0:1.0\n0.5,oops,1.0\n")
        with pytest.raises(InputError, match="line 3"):
            read_pattern_csv(path)
