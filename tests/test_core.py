"""Core data model, distances, pair enumeration and serialization."""

import re

import numpy as np
import pytest

from mppstat import (
    Band,
    InputError,
    NumericError,
    PointPattern,
    SimWindow,
    Window,
    band_pair_indices,
    band_pair_indices_naive,
    buffered_window,
    builtin,
    pair_distance,
    pair_sums,
    read_pattern_csv,
    translate,
    write_pattern_csv,
)

from helpers import DYADIC, pattern_1d, random_band, random_pattern, sorted_pairs

FIRST = builtin("first")
ONE = builtin("const_one")


class TestPairDistance:
    def test_signed_difference_d1(self):
        assert pair_distance([0.5], [0.0]) == -0.5

    def test_euclidean_d2(self):
        assert pair_distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_identity(self):
        assert pair_distance([2.0], [2.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            pair_distance([0.0], [1.0, 2.0])


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

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("check,bad", [
        ("location", np.nan), ("location", np.inf), ("location", -np.inf),
        ("y", np.nan), ("y", np.inf),
        ("z", np.nan), ("z", np.inf), ("z", -np.inf), ("z", -0.5),
        ("window", 1.5), ("window", -0.25),
        ("simple", None),
    ])
    def test_messages_in_check_order(self, dim, check, bad):
        loc = np.tile(np.array([[0.25], [0.5], [0.75]]), (1, dim))
        y, z = np.array([1.0, 2.0, 3.0]), np.ones(3)
        order = list(self.MESSAGES)
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
        with pytest.raises(InputError, match=f"^{re.escape(self.MESSAGES[check])}$"):
            PointPattern(loc, y, z, SimWindow.cube(0.0, 1.0, dim))

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
        with pytest.raises(NumericError, match="y2=4.0"):
            pair_sums(pattern, Window(3.0), Band(0.4, 0.6), bad)


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
