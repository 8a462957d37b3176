"""Generators: determinism, hard constraints, and distributional sanity."""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mppstat import (
    Band,
    Covariance,
    GaussianFieldMarks,
    GridGround,
    HardcoreGround,
    IidMarks,
    InputError,
    MixtureClass,
    MixtureSpec,
    NumericError,
    PointPattern,
    PoissonGround,
    SimWindow,
    Window,
    banded_covariance,
    buffered_window,
    matern2_retained_intensity,
    mean_mark_conditional_variance,
    mixture_from_json,
    mixture_to_json,
    sample_batch,
    sample_blocks,
    sample_ground,
    sample_marks,
    sample_mixture,
    spec_digest,
)
from mppstat import core
from mppstat.core import _ascending, _block_order
from mppstat.sim import (
    _band_matrix, _cholesky_with_jitter, _poisson_sampler, _sorted_band, _stream_words,
    _thin_1d,
)
from mppstat.sim import FIELD_BAND_BUDGET, _band_width, _reach_end

from helpers import assert_same_batch, modules_after, reference_batch

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

WIN1 = SimWindow.cube(-1.0, 11.0, 1)


def two_class_spec(lam_a=1.0, lam_b=4.0, mean_a=0.0, mean_b=10.0):
    return MixtureSpec(
        (
            MixtureClass(0.5, PoissonGround(lam_a), IidMarks("normal", (mean_a, 1.0))),
            MixtureClass(0.5, PoissonGround(lam_b), IidMarks("normal", (mean_b, 1.0))),
        )
    )


class TestDeterminism:
    def test_ground_bit_exact(self):
        a = sample_ground(PoissonGround(2.0), WIN1, seed=123)
        b = sample_ground(PoissonGround(2.0), WIN1, seed=123)
        assert np.array_equal(a, b)

    def test_mixture_bit_exact(self):
        spec = two_class_spec()
        r1 = sample_mixture(spec, WIN1, 5, seed=9)
        r2 = sample_mixture(spec, WIN1, 5, seed=9)
        for (p1, k1), (p2, k2) in zip(r1, r2):
            assert k1 == k2
            assert np.array_equal(p1.locations, p2.locations)
            assert np.array_equal(p1.y, p2.y)

    def test_realizations_differ(self):
        spec = two_class_spec(lam_a=3.0, lam_b=3.0)
        r = sample_mixture(spec, WIN1, 2, seed=9)
        assert not np.array_equal(r[0][0].locations, r[1][0].locations)


class TestPoisson:
    def test_mean_count(self):
        # window [-1, 11], intensity 2 -> mean 24; average over seeds
        counts = [
            sample_ground(PoissonGround(2.0), WIN1, seed=s).shape[0] for s in range(400)
        ]
        se = np.sqrt(24.0 / 400)
        assert abs(np.mean(counts) - 24.0) < 4 * se

    def test_disjoint_window_counts_uncorrelated(self):
        lam = 3.0
        counts = np.empty((500, 2))
        for s in range(500):
            locs = sample_ground(PoissonGround(lam), SimWindow.cube(0, 10, 1), seed=s)[:, 0]
            counts[s] = [(locs < 5.0).sum(), (locs >= 5.0).sum()]
        r = np.corrcoef(counts.T)[0, 1]
        # correlation of two mean-15 Poisson counts over 500 draws
        assert abs(r) < 3.0 / np.sqrt(500)


def _kd_tree_keep(props, births, d0):
    """The kd-tree thinning that d > 1 uses: the reference for the 1-D sweep."""
    from scipy.spatial import cKDTree

    keep = np.ones(props.shape[0], dtype=bool)
    pairs = cKDTree(props).query_pairs(d0, output_type="ndarray")
    if pairs.size:
        early = births[pairs[:, 0]] < births[pairs[:, 1]]
        keep[np.where(early, pairs[:, 1], pairs[:, 0])] = False
    return keep


class TestHardcore:
    def test_min_distance_hard_assertion(self):
        spec = HardcoreGround(proposal_intensity=4.0, min_dist=0.5)
        for s in range(30):
            locs = sample_ground(spec, WIN1, seed=s)[:, 0]
            if locs.size > 1:
                assert np.min(np.diff(np.sort(locs))) >= 0.5

    def test_min_distance_d2(self):
        spec = HardcoreGround(proposal_intensity=2.0, min_dist=0.4)
        locs = sample_ground(spec, SimWindow.cube(0, 8, 2), seed=1)
        from scipy.spatial.distance import pdist

        if locs.shape[0] > 1:
            assert pdist(locs).min() >= 0.4

    def test_retained_intensity_matches_closed_form(self):
        lam_p, d0 = 4.0, 0.3
        lam_ret = matern2_retained_intensity(lam_p, d0, 1)
        assert lam_ret == pytest.approx((1 - np.exp(-lam_p * 2 * d0)) / (2 * d0))
        counts = [
            sample_ground(HardcoreGround(lam_p, d0), SimWindow.cube(0, 50, 1), seed=s).shape[0]
            for s in range(200)
        ]
        expected = lam_ret * 50
        se = np.std(counts, ddof=1) / np.sqrt(200)
        assert abs(np.mean(counts) - expected) < 4 * se

    def test_extreme_thinning_warns(self):
        # 15,000 proposals with about 5,000 neighbours each: the 1-D thinning
        # holds no pair list, so it stays far below the ~580 MB that the
        # kd-tree's list of close pairs takes
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="retains only"):
                sample_ground(HardcoreGround(500.0, 5.0), SimWindow.cube(0, 20, 1), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.parametrize("ground, window", [
        (HardcoreGround(4.0, 0.2), SimWindow.cube(-1.5, 601.5, 1)),  # the field-1d benchmark
        (HardcoreGround(40.0, 1.0), SimWindow.cube(0.0, 20.0, 1)),  # ~40 neighbours per side
    ], ids=["field-1d", "dense"])
    def test_1d_thinning_equals_the_kd_tree(self, ground, window):
        d0 = ground.min_dist
        for seed in range(200):
            rng = np.random.default_rng(seed)
            props = _poisson_sampler(ground.proposal_intensity,
                                     SimWindow(window.lo - d0, window.hi + d0))(rng)
            births = rng.uniform(size=props.shape[0])
            keep = _kd_tree_keep(props, births, d0)
            assert np.array_equal(_thin_1d(props[:, 0], births, d0), keep), seed
            retained = props[keep]
            expected = retained[window.contains(retained)]
            assert sample_ground(ground, window, seed).tobytes() == expected.tobytes(), seed

    def test_pairs_within_ulps_of_min_dist_match_the_kd_tree(self):
        # two proposals about d0 apart, at 0 and at a random place, the second
        # moved -3..3 ulps; on equal births the tree drops the first point,
        # so it is kept exactly when the pair is not close
        rng = np.random.default_rng(0)
        births = np.array([0.5, 0.5])
        kept = []
        for d0 in (0.2, 0.3, 5.0, *rng.uniform(0.05, 5.0, 200)):
            for x1 in (0.0, rng.uniform(-700.0, 700.0)):
                x2 = x1 + d0
                for k in range(-3, 4):
                    props = np.array([[x1], [x2 + k * np.spacing(x2)]])
                    keep = _kd_tree_keep(props, births, d0)
                    assert _thin_1d(props[:, 0], births, d0).tolist() == keep.tolist(), (d0, x1, k)
                    kept.append(keep[0])
        assert 0 < sum(kept) < len(kept)

    def test_1d_hardcore_loads_no_scipy_spatial(self, tmp_path):
        loaded = modules_after(
            "from mppstat import HardcoreGround, SimWindow, sample_ground\n"
            "sample_ground(HardcoreGround(4.0, 0.2), SimWindow.cube(0, 100, 1), seed=1)",
            tmp_path, "scipy")
        assert "scipy.spatial" not in loaded


class TestGrid:
    def test_exact_lattice(self):
        locs = sample_ground(GridGround(1.0, 0.0), SimWindow.cube(0, 10, 1), seed=0)
        assert locs[:, 0].tolist() == list(range(11))

    def test_jitter_preserves_spacing_bound(self):
        spec = GridGround(1.0, 0.3)
        for s in range(20):
            locs = sample_ground(spec, SimWindow.cube(0, 30, 1), seed=s)[:, 0]
            assert np.min(np.diff(np.sort(locs))) >= 1.0 - 2 * 0.3 - 1e-12

    def test_lattice_d2(self):
        locs = sample_ground(GridGround(0.5, 0.0), SimWindow.cube(0, 1, 2), seed=0)
        assert locs.shape == (9, 2)

    def test_zero_jitter_node_rounded_past_the_window_is_dropped(self):
        # 0 + 0.1 * 3 rounds to 0.30000000000000004 > 0.3
        nodes = sample_ground(GridGround(0.1), SimWindow([0.0], [0.3]), seed=0)
        assert nodes[:, 0].tolist() == [0.0, 0.1, 0.2]

    def test_zero_jitter_grid_on_a_buffered_window(self):
        spec = MixtureSpec((MixtureClass(1.0, GridGround(0.2), IidMarks("constant", (1.0,))),))
        sw = buffered_window(Window(1.4), Band(0.5, 1.5))
        batch = sample_batch(spec, sw, 2, seed=0)
        assert batch.starts.tolist() == [0, 22, 44]
        assert batch.locations.max() <= sw.hi[0]

    def test_jitter_must_stay_below_half_spacing(self):
        with pytest.raises(InputError):
            GridGround(1.0, 0.5)


class TestMarks:
    def test_constant(self):
        locs = np.linspace(0, 5, 7).reshape(-1, 1)
        y, z = sample_marks(locs, IidMarks("constant", (5.0,)), seed=0)
        assert np.all(y == 5.0)
        assert np.all(z == 1.0)

    def test_field_generating_covariance_is_zero_beyond_range(self):
        cov = Covariance("spherical", 2.0, 0.7)
        assert cov(0.0) == 2.0
        assert cov(0.7) == 0.0
        assert cov(5.0) == 0.0
        tr = Covariance("trunc_exp", 1.0, 1.0)
        assert tr(0.0) == 1.0
        assert tr(1.0) == pytest.approx(np.exp(-3.0))
        assert tr(1.0001) == 0.0

    def test_field_diagonal_shortcut_matches_dense_path(self):
        # widely separated points: iid shortcut must equal the dense
        # factorization draw bit for bit (same generator stream)
        spec = GaussianFieldMarks(1.0, 2.0, 0.4)
        locs = np.array([[0.0], [1.0], [2.5], [4.0]])
        y_fast, _ = sample_marks(locs, spec, seed=77)
        rng = np.random.default_rng(77)
        xi = rng.standard_normal(4)
        cov = spec.covariance()(np.abs(locs - locs.T))
        y_dense = 1.0 + np.linalg.cholesky(cov) @ xi
        assert np.array_equal(y_fast, y_dense)

    def test_field_empirical_correlation_beyond_range(self):
        # pooled correlation of mark pairs at distance > range stays near 0
        spec = GaussianFieldMarks(0.0, 1.0, 0.4)
        locs = np.array([[0.0], [1.0]])
        pairs = np.array([sample_marks(locs, spec, seed=s)[0] for s in range(1500)])
        r = np.corrcoef(pairs.T)[0, 1]
        assert abs(r) < 0.05

    def test_field_correlation_inside_range(self):
        spec = GaussianFieldMarks(0.0, 1.0, 2.0)
        locs = np.array([[0.0], [0.2]])
        pairs = np.array([sample_marks(locs, spec, seed=s)[0] for s in range(1500)])
        r = np.corrcoef(pairs.T)[0, 1]
        expected = spec.covariance()(0.2)
        assert r == pytest.approx(expected, abs=0.06)

    def test_coincident_distance_gives_full_variance(self):
        cov = Covariance("spherical", 3.5, 1.0)
        assert cov(0.0) == 3.5

    def test_near_duplicate_locations_saved_by_jitter(self):
        spec = GaussianFieldMarks(0.0, 1.0, 1.0)
        locs = np.array([[0.0], [1e-13], [0.5]])
        y, _ = sample_marks(locs, spec, seed=3)
        assert np.all(np.isfinite(y))

    def test_jitter_ladder_escalates_to_error(self):
        # [[1, 2], [2, 1]] in lower banded storage: diagonal, then sub-diagonal
        indefinite = np.array([[1.0, 1.0], [2.0, 0.0]])
        with pytest.raises(NumericError, match="not positive definite"):
            _cholesky_with_jitter(indefinite, 1.0)

    def test_z_rule_iid(self):
        locs = np.linspace(0, 5, 50).reshape(-1, 1)
        _, z = sample_marks(locs, IidMarks("constant", (1.0,)), seed=0,
                            z_rule=IidMarks("uniform", (0.5, 1.5)))
        assert z.min() >= 0.5 and z.max() <= 1.5

    def test_z_rule_callable(self):
        locs = np.linspace(0, 5, 10).reshape(-1, 1)
        y, z = sample_marks(locs, IidMarks("constant", (2.0,)), seed=0,
                            z_rule=lambda loc, y, rng: y * 3.0)
        assert np.all(z == 6.0)


def _dense_field(spec, locations, seed):
    """mean + cholesky(dense covariance of the sorted points) @ xi[order], scattered back."""
    xi = np.random.default_rng(seed).standard_normal(locations.shape[0])
    order = np.argsort(locations[:, 0], kind="stable")
    pts = locations[order]
    diff = pts[:, None, :] - pts[None, :, :]
    cov = spec.covariance()(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))
    y = np.empty_like(xi)
    y[order] = spec.mean + np.linalg.cholesky(cov) @ xi[order]
    return y


class TestBandedField:
    @pytest.mark.parametrize("shape", ["spherical", "trunc_exp"])
    @pytest.mark.parametrize("ground, window, cov_range", [
        (HardcoreGround(4.0, 0.2), SimWindow.cube(0.0, 60.0, 1), 1.0),
        (PoissonGround(3.0), SimWindow.cube(0.0, 6.0, 2), 0.5),
    ])
    def test_banded_factor_matches_dense_cholesky(self, shape, ground, window, cov_range):
        locs = sample_ground(ground, window, seed=11)
        spec = GaussianFieldMarks(0.5, 2.0, cov_range, shape)
        y, _ = sample_marks(locs, spec, seed=5)
        assert locs.shape[0] > 20
        np.testing.assert_allclose(y, _dense_field(spec, locs, 5), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", ["spherical", "trunc_exp"])
    @pytest.mark.parametrize("dim, side", [(1, 60.0), (2, 8.0), (3, 4.0)])
    def test_band_and_factor_equal_the_gathered_band(self, shape, dim, side):
        # the band is built one diagonal at a time; a gather of all
        # (b + 1) x n x d differences at once must give the same bytes, and
        # the factor must equal that of scipy.linalg.cholesky_banded
        import scipy.linalg

        spec = GaussianFieldMarks(0.0, 1.0, 1.0, shape)
        cov = spec.covariance()
        for seed in range(30 if dim == 1 else 5):
            locs = sample_ground(HardcoreGround(4.0, 0.2), SimWindow.cube(0.0, side, dim), seed)
            _, pts, b = _sorted_band(locs, spec.cov_range)
            n = pts.shape[0]
            idx = np.arange(n)[None, :] + np.arange(b + 1)[:, None]
            diff = pts[np.minimum(idx, n - 1)] - pts[None, :, :]
            gathered = np.where(idx < n, cov(np.sqrt(np.einsum("kij,kij->ki", diff, diff))), 0.0)
            ab = _band_matrix(pts, b, cov)
            assert b > 0 and ab.tobytes() == gathered.tobytes()
            chol = _cholesky_with_jitter(ab, spec.variance)
            assert chol.tobytes() == scipy.linalg.cholesky_banded(gathered, lower=True).tobytes()

    def test_pair_at_exactly_the_range_is_in_the_band(self):
        # trunc_exp is exp(-3) * variance, not zero, at exactly cov_range
        spec = GaussianFieldMarks(0.0, 1.0, 1.0, "trunc_exp")
        locs = np.array([[3.0], [0.0], [1.0], [4.5], [2.0]])
        order, ab = banded_covariance(locs, spec.covariance(), spec.cov_range)
        assert ab.shape == (2, 5)
        assert ab[1, :3] == pytest.approx([math.exp(-3.0)] * 3)
        y, _ = sample_marks(locs, spec, seed=2)
        np.testing.assert_allclose(y, _dense_field(spec, locs, 2), rtol=0, atol=1e-12)

    def test_band_width_bounded_by_hardcore_distance(self):
        delta, reach = 0.2, 1.0
        locs = sample_ground(HardcoreGround(4.0, delta), SimWindow.cube(0.0, 200.0, 1), seed=3)
        order, ab = banded_covariance(locs, Covariance("spherical", 1.0, reach), reach)
        assert ab.shape[1] == locs.shape[0] > 100
        assert ab.shape[0] - 1 <= math.floor(reach / delta) + 1
        assert np.array_equal(locs[order, 0], np.sort(locs[:, 0]))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_sorted_band_order_is_stable_with_ties(self, dim):
        rng = np.random.default_rng(3)
        locs = rng.uniform(0.0, 5.0, size=(300, dim))
        locs[:, 0] = np.floor(locs[:, 0] * 4.0) / 4.0  # 20 distinct first coordinates
        order, pts, b = _sorted_band(locs, 1.0)
        assert np.array_equal(order, np.argsort(locs[:, 0], kind="stable"))
        assert pts.tobytes() == locs[order].tobytes()
        assert b == np.max(np.searchsorted(pts[:, 0], pts[:, 0] + 1.0, side="right")
                           - 1 - np.arange(300))

    def test_band_width_does_not_depend_on_the_scale(self):
        # the reach ends are padded relative to the coordinates: with an
        # absolute floor the tiny points got the full band, b = 99
        x = np.random.default_rng(5).uniform(0.0, 1e-15, size=(100, 1))
        b = _sorted_band(x, 5e-18)[2]
        assert b == _sorted_band(x * 2.0**40, 5e-18 * 2.0**40)[2] == 3

    def test_no_dense_matrix_allocated(self):
        # an n x n float64 array would be 8 n^2 bytes; the banded paths
        # stay far below a sixteenth of that
        locs = sample_ground(HardcoreGround(4.0, 0.2), SimWindow.cube(0.0, 1200.0, 1), seed=4)
        n = locs.shape[0]
        spec = GaussianFieldMarks(0.0, 1.0, 1.0)
        tracemalloc.start()
        try:
            y, z = sample_marks(locs, spec, seed=1)
            pat = PointPattern(locs, y, z, SimWindow.cube(0.0, 1200.0, 1))
            v = mean_mark_conditional_variance(pat, Window(1200.0), Band(0.5, 1.5),
                                               spec.covariance())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n > 2000 and np.isfinite(v)
        assert peak < 8 * n * n / 16

    @staticmethod
    def _grid_without_neighbours():
        # spacing 1, jitter 0.1: no two points within cov_range 0.4 (the C5 shape)
        return sample_ground(GridGround(1.0, 0.1), SimWindow.cube(0.0, 500.0, 1), seed=7)

    @pytest.mark.parametrize("shape", ["spherical", "trunc_exp"])
    def test_zero_band_width_equals_banded_factor(self, shape):
        locs = self._grid_without_neighbours()
        spec = GaussianFieldMarks(0.5, 2.0, 0.4, shape)
        order, ab = banded_covariance(locs, spec.covariance(), spec.cov_range)
        assert ab.shape == (1, locs.shape[0])
        xi = np.random.default_rng(9).standard_normal(locs.shape[0])
        expected = np.empty_like(xi)
        expected[order] = spec.mean + _cholesky_with_jitter(ab, spec.variance)[0] * xi[order]
        y, _ = sample_marks(locs, spec, seed=9)
        assert y.tobytes() == expected.tobytes()

    def test_zero_band_width_skips_the_factor(self, monkeypatch):
        from scipy.linalg import lapack

        calls = []
        factor = lapack.dpbtrf

        def counting(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(lapack, "dpbtrf", counting)
        locs = self._grid_without_neighbours()
        sample_marks(locs, GaussianFieldMarks(0.0, 1.0, 0.4), seed=1)
        assert calls == []
        sample_marks(locs, GaussianFieldMarks(0.0, 1.0, 1.5), seed=1)
        assert calls == [1]

    def test_oversized_field_rejected_before_the_band_is_built(self):
        # 10^5 points at unit intensity in a square, range 1: the strip band
        # is b ~ 316 wide, n b^2 ~ 10^10, and the band's difference array
        # alone would take about 500 MB
        locs = sample_ground(PoissonGround(1.0), SimWindow.cube(0.0, 316.0, 2), seed=1)
        assert locs.shape[0] > 90_000
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="above the budget of 1e\\+09"):
                sample_marks(locs, GaussianFieldMarks(0.0, 1.0, 1.0), seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * locs.nbytes


def _searched_band_width(xs, reach):
    """The band width by search alone: the largest gap between i and the last point within reach."""
    n = xs.shape[0]
    if n == 0:
        return 0
    if not np.isfinite(reach):
        return n - 1
    last = np.searchsorted(xs, _reach_end(xs, reach), side="right") - 1
    return int(np.max(last - np.arange(n)))


def _ulps(x, k):
    """x moved by k ulps: up for k > 0, down for k < 0."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


class TestBandWidth:
    """_band_width, which walks the offsets up from 1, equals the band width found by search."""

    def test_random_sorted_coordinates_with_ties(self):
        rng = np.random.default_rng(17)
        widths = []
        for _ in range(2000):
            xs = np.sort(rng.uniform(-5.0, 5.0, rng.integers(0, 40)))
            if rng.random() < 0.3:
                xs = np.floor(xs * 4.0) / 4.0  # ties
            reach = float(rng.choice([0.0, 1e-3, 0.05, 0.2, 1.0, 3.0]) * rng.uniform(0.5, 1.5))
            b = _band_width(xs, reach)
            assert b == _searched_band_width(xs, reach), (xs, reach)
            widths.append(b)
        assert widths.count(0) > 300 and sum(b > 0 for b in widths) > 300

    @pytest.mark.parametrize("start", [0.0, -3.7, 1.0, 2.0**-30, 1e6])
    @pytest.mark.parametrize("reach", [1e-9, 0.3, 1.0, 5.0])
    def test_neighbour_near_the_reach(self, start, reach):
        # the neighbour at start + reach, and at the padded end of start,
        # each moved by up to 3 ulps either way
        for edge in (start + reach, _reach_end(np.array([start]), reach)[0]):
            for k in range(-3, 4):
                xs = np.array([start - 2.0 * reach, start, _ulps(edge, k)])
                assert _band_width(xs, reach) == _searched_band_width(xs, reach), (edge, k)

    @pytest.mark.parametrize("xs", [np.empty(0), np.array([2.5])], ids=["empty", "one"])
    @pytest.mark.parametrize("reach", [0.5, np.inf])
    def test_empty_and_one_point(self, xs, reach):
        assert _band_width(xs, reach) == _searched_band_width(xs, reach) == 0

    def test_infinite_reach_is_the_full_band(self):
        xs = np.sort(np.random.default_rng(2).uniform(0.0, 100.0, 30))
        assert _band_width(xs, np.inf) == _searched_band_width(xs, np.inf) == 29


class TestMixture:
    def test_single_class_degenerate(self):
        spec = MixtureSpec((MixtureClass(1.0, PoissonGround(2.0), IidMarks("constant", (1.0,))),))
        for _, k in sample_mixture(spec, WIN1, 10, seed=0):
            assert k == 0

    def test_class_frequencies_binomial(self):
        spec = two_class_spec()
        ks = [k for _, k in sample_mixture(spec, SimWindow.cube(0, 1, 1), 4000, seed=5)]
        freq = np.mean(np.array(ks) == 0)
        # 4 sigma binomial band around 1/2
        assert abs(freq - 0.5) < 4 * np.sqrt(0.25 / 4000)

    def test_mixture_mean_count(self):
        # intensities 1 and 4 with equal probability on a unit window
        spec = two_class_spec()
        counts = [p.n_points for p, _ in sample_mixture(spec, SimWindow.cube(0, 1, 1), 4000, seed=8)]
        se = np.std(counts, ddof=1) / np.sqrt(len(counts))
        assert abs(np.mean(counts) - 2.5) < 4 * se

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InputError, match="sum to 1"):
            MixtureSpec(
                (
                    MixtureClass(0.6, PoissonGround(1.0), IidMarks("constant", (0.0,))),
                    MixtureClass(0.6, PoissonGround(1.0), IidMarks("constant", (0.0,))),
                )
            )


def _shipped_cases():
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        spec = mixture_from_json(cfg["spec"])
        bands = [Band(lo, hi, signed=spec.dim == 1) for lo, hi in cfg["bands"]]
        window = buffered_window(Window(np.atleast_1d(cfg["window"])), bands)
        yield pytest.param(spec, window, id=path.stem)


def _ground_cases():
    z_rule = IidMarks("uniform", (0.5, 1.5))
    for dim in (1, 2):
        window = SimWindow.cube(-1.5, 6.5 if dim == 2 else 30.0, dim)
        for name, ground in (("poisson", PoissonGround(2.0)),
                             ("hardcore", HardcoreGround(3.0, 0.3)),
                             ("grid", GridGround(0.7)),
                             ("jittered-grid", GridGround(0.7, 0.2))):
            spec = MixtureSpec(
                (MixtureClass(0.5, ground, GaussianFieldMarks(1.0, 2.0, 0.8), z_rule=z_rule),
                 MixtureClass(0.5, PoissonGround(1.0), IidMarks("normal", (0.0, 1.0)))),
                dim=dim,
            )
            yield pytest.param(spec, window, id=f"{name}-d{dim}")


class TestBatch:
    @pytest.mark.parametrize("spec,window", [*_shipped_cases(), *_ground_cases()])
    def test_batch_equals_realizations_sampled_one_by_one(self, spec, window):
        old = reference_batch(spec, window, 12, (5, 1))
        assert_same_batch(sample_batch(spec, window, 12, (5, 1)), old)
        for k, (p, j) in enumerate(sample_mixture(spec, window, 12, (5, 1))):
            q = old.pattern(k)
            assert j == old.classes[k]
            for column in ("locations", "y", "z"):
                assert getattr(p, column).tobytes() == getattr(q, column).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_affine_draw_equals_uniform(self, dim):
        window = SimWindow(np.linspace(-1.5, -0.25, dim), np.linspace(3.0, 7.75, dim))
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.poisson(2.0 * window.volume))
            expected = rng.uniform(window.lo, window.hi, size=(n, dim))
            drawn = _poisson_sampler(2.0, window)(np.random.default_rng(seed))
            assert drawn.tobytes() == expected.tobytes()


_GROUNDS = {"poisson": PoissonGround(2.0), "hardcore": HardcoreGround(3.0, 0.3),
            "grid": GridGround(0.7), "jittered-grid": GridGround(0.7, 0.2)}
_MARKS = {"normal": IidMarks("normal", (1.0, 2.0)), "uniform": IidMarks("uniform", (-1.0, 3.0)),
          "constant": IidMarks("constant", (2.5,)), "field": GaussianFieldMarks(1.0, 2.0, 0.8)}
_Z_RULES = {"const_one": "const_one", "iid": IidMarks("uniform", (0.5, 1.5)),
            "callable": lambda loc, y, rng: np.abs(y) + rng.uniform(size=y.shape)}


def _kind_cases():
    for dim in (1, 2):
        window = SimWindow.cube(-1.5, 6.5 if dim == 2 else 30.0, dim)
        for g, ground in _GROUNDS.items():
            for m, marks in _MARKS.items():
                for r, z_rule in _Z_RULES.items():
                    spec = MixtureSpec((MixtureClass(1.0, ground, marks, z_rule=z_rule),), dim=dim)
                    yield pytest.param(spec, window, id=f"{g}-{m}-{r}-d{dim}")


def _single_field_class(ground, cov_range, p=1.0):
    return MixtureClass(p, ground, GaussianFieldMarks(0.0, 1.0, cov_range))


# sha256 of each shipped config's sample_batch(spec, window, n_realizations,
# (seed, 0)), the batch of estimate's replicate 0, as sampled one realization
# at a time
_SHIPPED_BATCH_SHA256 = {
    "clt_grid_field": "9cb0d48a2496e7c1cd422a3312f8660d9327fccf79b2b58e328abced30c33f7c",
    "ergodic_coincidence": "8b97798011ceec7b635138e5aefd82ae35378c2c8a7c189034add3dbf1bb5ed9",
    "two_class_separation": "9166f64600cba9833ed7a2756a3299d7d61ba1aa45de1126e4d02a85c3d7bbb5",
    "vwap_two_regimes": "2a24cd608860a9bea7bd108837657e932a5c291ddf3d61461202395ab07bb128",
}


class TestBatchStreams:
    """sample_batch against the per-realization sampler, bit for bit."""

    @pytest.mark.parametrize("spec,window", _kind_cases())
    def test_every_ground_mark_and_z_rule_kind(self, spec, window):
        assert_same_batch(sample_batch(spec, window, 8, (3, 2)),
                          reference_batch(spec, window, 8, (3, 2)))

    def test_fields_of_several_ranges_in_one_block(self):
        spec = MixtureSpec((
            # the first two are mostly b = 0
            MixtureClass(0.3, PoissonGround(1.0), GaussianFieldMarks(-1.0, 0.5, 0.3)),
            MixtureClass(0.3, PoissonGround(0.5), GaussianFieldMarks(2.0, 3.0, 0.1)),
            MixtureClass(0.2, HardcoreGround(3.0, 0.2),
                         GaussianFieldMarks(0.0, 1.0, 2.0, "trunc_exp")),
            MixtureClass(0.2, PoissonGround(2.0), IidMarks("normal", (0.0, 1.0))),
        ))
        window = SimWindow.cube(-2.0, 40.0, 1)
        assert_same_batch(sample_batch(spec, window, 40, 4), reference_batch(spec, window, 40, 4))

    @pytest.mark.parametrize("intensity", [0.05, 1e-4])
    def test_empty_realizations(self, intensity):
        spec = MixtureSpec((_single_field_class(PoissonGround(intensity), 0.5, p=0.5),
                            MixtureClass(0.5, PoissonGround(intensity),
                                         IidMarks("normal", (0.0, 1.0)),
                                         z_rule=IidMarks("uniform", (0.0, 1.0)))))
        window = SimWindow.cube(0.0, 10.0, 1)
        batch = sample_batch(spec, window, 30, 8)
        assert (batch.starts[1:] == batch.starts[:-1]).any()
        assert_same_batch(batch, reference_batch(spec, window, 30, 8))

    def test_cholesky_jitter_in_a_sorted_block(self, monkeypatch):
        from scipy.linalg import lapack

        # points 4e-16 apart are near-duplicates within range 1: their factor
        # needs jitter; the other class's points keep the block's shifted values apart
        spec = MixtureSpec((_single_field_class(GridGround(4e-16), 1.0, p=0.3),
                            _single_field_class(GridGround(1e-15), 1e-17, p=0.7)))
        window = SimWindow.cube(0.0, 39 * 4e-16, 1)
        failed = []
        factor = lapack.dpbtrf

        def counting(*args, **kwargs):
            chol, info = factor(*args, **kwargs)
            if info > 0:  # a leading minor is not positive definite
                failed.append(1)
            return chol, info

        monkeypatch.setattr(lapack, "dpbtrf", counting)
        batch = sample_batch(spec, window, 4, 11)
        assert failed and _ascending(_block_order(batch.locations[:, 0], batch.starts)[1])
        assert_same_batch(batch, reference_batch(spec, window, 4, 11))

    def test_tied_shifted_values_fall_back_to_each_realization(self):
        # about 1e-17 apart, the points of every realization after the first
        # tie once shifted by about 1
        spec = MixtureSpec((_single_field_class(PoissonGround(1e17), 5e-18, p=0.5),
                            _single_field_class(GridGround(1e-17), 3e-17, p=0.5)))
        window = SimWindow.cube(0.0, 1e-15, 1)
        batch = sample_batch(spec, window, 6, 2)
        assert not _ascending(_block_order(batch.locations[:, 0], batch.starts)[1])
        assert_same_batch(batch, reference_batch(spec, window, 6, 2))

    @pytest.mark.parametrize("seed",
                             [0, 7, (5, 1), [5, 1], 2**32 + 3, (2**64 + 1, 4), (1, 2, 3, 4)],
                             ids=["zero", "int", "tuple", "list", "2^32", "2^64", "five-words"])
    def test_seed_kinds(self, seed):
        spec = MixtureSpec((_single_field_class(HardcoreGround(3.0, 0.3), 0.8, p=0.5),
                            MixtureClass(0.5, PoissonGround(2.0), IidMarks("normal", (0.0, 1.0)))))
        assert_same_batch(sample_batch(spec, WIN1, 6, seed), reference_batch(spec, WIN1, 6, seed))

    def test_numpy_integer_seed_is_its_int(self):
        spec = two_class_spec()
        assert_same_batch(sample_batch(spec, WIN1, 4, (np.int64(5), np.uint32(2))),
                          sample_batch(spec, WIN1, 4, (5, 2)))

    @pytest.mark.parametrize("entropy", [(), (0,), (7,), (2**32 - 1,), (2**32,), (5, 1),
                                         (2**64 + 1, 4), (1, 2, 3, 4), (2**100, 3, 9)])
    def test_stream_words_are_the_seed_sequence_state(self, entropy):
        words = _stream_words(entropy, 300)
        assert words.dtype == np.uint64 and words.shape == (300, 4)
        for i in range(300):
            state = np.random.SeedSequence(entropy + (i,)).generate_state(4, np.uint64)
            assert words[i].tolist() == state.tolist(), i

    @pytest.mark.parametrize("seed", [True, False, -1, 1.5, "3", None, (1, True), (1, -2),
                                      (1, 2.0), np.float64(2.0), np.bool_(True)])
    def test_seed_that_is_no_non_negative_integer_is_input_error(self, seed):
        with pytest.raises(InputError, match="seed must be an integer >= 0"):
            sample_batch(two_class_spec(), WIN1, 2, seed)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_batch_is_pinned(self, path):
        cfg = json.loads(path.read_text())
        spec = mixture_from_json(cfg["spec"])
        window = buffered_window(Window(cfg["window"]), [Band(*b) for b in cfg["bands"]])
        batch = sample_batch(spec, window, cfg["n_realizations"], (cfg["seed"], 0))
        digest = hashlib.sha256()
        for column in (batch.locations, batch.y, batch.z, batch.starts, batch.classes):
            digest.update(column.tobytes())
        assert digest.hexdigest() == _SHIPPED_BATCH_SHA256[path.stem]


def assert_blocks_make_the_batch(blocks, batch) -> None:
    """The blocks end to end are `batch` bit for bit, its sweep blocks and their orders included.

    Each block is a sweep block of the batch: at most _BLOCK_POINTS points,
    or one realization.
    """
    first, sweep_blocks = 0, []
    for block in blocks:
        assert block.sim_window == batch.sim_window
        n = block.n_realizations
        assert block.starts[-1] <= core._BLOCK_POINTS or n == 1
        a, b = batch.starts[first], batch.starts[first + n]
        assert block.starts.tolist() == (batch.starts[first:first + n + 1] - a).tolist()
        for column in ("locations", "y", "z"):
            got, want = getattr(block, column), getattr(batch, column)[a:b]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), column
        assert block.classes.tobytes() == batch.classes[first:first + n].tobytes()
        sweep_blocks += [(k0 + first, k1 + first, kept) for k0, k1, kept in block._sorted_blocks]
        first += n
    assert first == batch.n_realizations
    assert len(sweep_blocks) == len(batch._sorted_blocks)
    for (k0, k1, kept), (j0, j1, want) in zip(sweep_blocks, batch._sorted_blocks):
        assert (k0, k1) == (j0, j1)
        if want is None:
            assert kept is None
            continue
        for got, expected in zip(kept, want):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            assert not got.flags.writeable


class TestSampleBlocks:
    """sample_blocks laid end to end is sample_batch, bit for bit, a block at a time."""

    @pytest.mark.parametrize("block_points", [2048, 100])
    @pytest.mark.parametrize("spec,window", _kind_cases())
    def test_every_ground_mark_and_z_rule_kind(self, spec, window, block_points, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_POINTS", block_points)
        assert_blocks_make_the_batch(sample_blocks(spec, window, 8, (3, 2)),
                                     sample_batch(spec, window, 8, (3, 2)))

    @pytest.mark.parametrize("spec,window", [*_shipped_cases(), *_ground_cases()])
    def test_shipped_configs_and_grounds(self, spec, window):
        assert_blocks_make_the_batch(sample_blocks(spec, window, 12, (5, 1)),
                                     sample_batch(spec, window, 12, (5, 1)))

    def test_uneven_sizes_make_uneven_blocks(self):
        spec = two_class_spec(lam_a=0.5, lam_b=60.0)
        window = SimWindow.cube(-1.5, 41.5, 1)
        blocks = list(sample_blocks(spec, window, 60, 17))
        sizes = {block.n_realizations for block in blocks}
        assert len(blocks) > 1 and len(sizes) > 1
        assert_blocks_make_the_batch(blocks, sample_batch(spec, window, 60, 17))

    @pytest.mark.parametrize("intensity", [0.05, 1e-4])
    def test_empty_realizations(self, intensity, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_POINTS", 3)
        spec = MixtureSpec((_single_field_class(PoissonGround(intensity), 0.5, p=0.5),
                            MixtureClass(0.5, PoissonGround(intensity),
                                         IidMarks("normal", (0.0, 1.0)),
                                         z_rule=IidMarks("uniform", (0.0, 1.0)))))
        window = SimWindow.cube(0.0, 10.0, 1)
        batch = sample_batch(spec, window, 30, 8)
        assert (batch.starts[1:] == batch.starts[:-1]).any()
        assert_blocks_make_the_batch(sample_blocks(spec, window, 30, 8), batch)

    def test_realization_over_the_block_points_is_a_block_of_its_own(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_POINTS", 40)
        spec = two_class_spec(lam_a=0.2, lam_b=8.0)
        window = SimWindow.cube(-1.5, 21.5, 1)
        blocks = list(sample_blocks(spec, window, 20, 3))
        big = [block for block in blocks if block.starts[-1] > 40]
        assert big and all(block.n_realizations == 1 for block in big)
        assert any(block.n_realizations > 1 for block in blocks)
        assert_blocks_make_the_batch(blocks, sample_batch(spec, window, 20, 3))

    def test_tied_block_splits_into_its_realizations(self):
        # as in TestBatchStreams: the shifted values of one block tie
        spec = MixtureSpec((_single_field_class(PoissonGround(1e17), 5e-18, p=0.5),
                            _single_field_class(GridGround(1e-17), 3e-17, p=0.5)))
        window = SimWindow.cube(0.0, 1e-15, 1)
        blocks = list(sample_blocks(spec, window, 6, 2))
        assert len(blocks) == 1 and len(blocks[0]._sorted_blocks) == 6
        assert_blocks_make_the_batch(blocks, sample_batch(spec, window, 6, 2))

    def test_a_block_is_yielded_before_the_next_one_is_drawn(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_POINTS", 1)
        drawn = []

        def weights(loc, y, rng):
            drawn.append(y.size)
            return np.ones(y.size)

        spec = MixtureSpec((MixtureClass(1.0, GridGround(1.0), IidMarks("normal", (0.0, 1.0)),
                                         z_rule=weights),))
        blocks = sample_blocks(spec, WIN1, 5, 0)
        assert drawn == []
        first = next(blocks)
        # a block ends when the count of the realization after it is read
        assert first.n_realizations == 1 and len(drawn) == 2
        assert len(list(blocks)) == 4 and len(drawn) == 5

    def test_a_later_failing_draw_raises_after_the_blocks_before_it(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_POINTS", 1)

        calls = []

        def weights(loc, y, rng):
            if len(calls) == 2:
                raise InputError("third realization fails")
            calls.append(1)
            return np.ones(y.size)

        spec = MixtureSpec((MixtureClass(1.0, GridGround(1.0), IidMarks("normal", (0.0, 1.0)),
                                         z_rule=weights),))
        blocks = sample_blocks(spec, WIN1, 4, 0)
        assert next(blocks).n_realizations == 1
        with pytest.raises(InputError, match="third realization fails"):
            next(blocks)

    def test_arguments_are_checked_on_the_call(self):
        with pytest.raises(InputError, match="n_realizations must be >= 1"):
            sample_blocks(two_class_spec(), WIN1, 0, 1)
        with pytest.raises(InputError, match="seed must be an integer"):
            sample_blocks(two_class_spec(), WIN1, 2, -1)


class TestBatchErrors:
    def test_first_failing_realization_raises_as_in_the_reference(self):
        # realization 0 draws an oversized field (about 10^4 points with band
        # width about 400), realization 1 draws negative iid weights
        spec = MixtureSpec((
            MixtureClass(0.5, PoissonGround(100.0), GaussianFieldMarks(0.0, 1.0, 4.0)),
            MixtureClass(0.5, PoissonGround(1.0), IidMarks("normal", (0.0, 1.0)),
                         z_rule=IidMarks("normal", (0.0, 1.0))),
        ))
        window = SimWindow.cube(0.0, 100.0, 1)
        draws = [np.random.default_rng(np.random.SeedSequence((2, i))).random() for i in range(2)]
        assert draws[0] < 0.5 <= draws[1]
        with pytest.raises(InputError) as expected:
            reference_batch(spec, window, 3, 2)
        with pytest.raises(InputError) as got:
            sample_batch(spec, window, 3, 2)
        assert "covariance band too large" in str(expected.value)
        assert f"{FIELD_BAND_BUDGET:.0e}" in str(expected.value)
        assert str(got.value) == str(expected.value)


class TestSpecNumbers:
    def test_int_and_float_spell_one_spec(self):
        def spec(p, ground, marks):
            return MixtureSpec((MixtureClass(p, ground, marks, z_rule=IidMarks("constant", (1,))),))

        ints = spec(1, HardcoreGround(4, 1), GaussianFieldMarks(0, 1, 2))
        floats = spec(1.0, HardcoreGround(4.0, 1.0), GaussianFieldMarks(0.0, 1.0, 2.0))
        assert spec_digest(ints) == spec_digest(floats)
        assert spec_digest(spec(1, PoissonGround(1), IidMarks("normal", (0, 1)))) == spec_digest(
            spec(1.0, PoissonGround(1.0), IidMarks("normal", (0.0, 1.0))))
        assert mixture_to_json(spec(1, GridGround(1, 0), IidMarks("uniform", (0, 2)))) == (
            mixture_to_json(spec(1.0, GridGround(1.0, 0.0), IidMarks("uniform", (0.0, 2.0)))))
        assert type(Covariance("spherical", 1, 2).cov_range) is float

    @pytest.mark.parametrize("build,key", [
        (lambda: PoissonGround(True), "intensity"),
        (lambda: HardcoreGround(4.0, True), "min_dist"),
        (lambda: GridGround(1.0, False), "jitter"),
        (lambda: IidMarks("normal", (0.0, True)), "params"),
        (lambda: GaussianFieldMarks(False, 1.0, 1.0), "mean"),
        (lambda: Covariance("spherical", True, 1.0), "variance"),
        (lambda: MixtureClass(True, PoissonGround(1.0), IidMarks("constant", (1.0,))), "p"),
    ], ids=["poisson", "hardcore", "grid", "iid", "gaussian_field", "covariance", "class"])
    def test_bool_number_is_input_error(self, build, key):
        with pytest.raises(InputError, match=f"parameter '{key}' must not be a bool"):
            build()


class TestJson:
    def test_round_trip(self):
        spec = MixtureSpec(
            (
                MixtureClass(0.25, HardcoreGround(3.0, 0.2), IidMarks("uniform", (0.0, 2.0))),
                MixtureClass(0.75, GridGround(1.0, 0.1), GaussianFieldMarks(1.0, 2.0, 0.5)),
            ),
            dim=1,
        )
        back = mixture_from_json(mixture_to_json(spec))
        assert back == spec
        assert spec_digest(back) == spec_digest(spec)

    def test_z_rule_round_trip(self):
        spec = MixtureSpec(
            (
                MixtureClass(
                    1.0,
                    PoissonGround(1.0),
                    IidMarks("normal", (0.0, 1.0)),
                    z_rule=IidMarks("uniform", (0.0, 1.0)),
                ),
            )
        )
        assert mixture_from_json(mixture_to_json(spec)) == spec

    def test_unknown_keys_rejected(self):
        doc = mixture_to_json(two_class_spec())
        with pytest.raises(InputError, match="'dimm' was unexpected"):
            mixture_from_json({**doc, "dimm": 3})
        doc["classes"][0]["ground_kind"] = "poisson"
        with pytest.raises(InputError, match="'ground_kind' was unexpected"):
            mixture_from_json(doc)

    def test_misspelt_z_rule_parameter_names_the_key(self):
        doc = mixture_to_json(two_class_spec())
        doc["classes"][0]["z_rule"] = {"kind": "iid", "distribution": "uniform",
                                       "params": [0.0, 1.0], "parms": [0.0, 2.0]}
        with pytest.raises(InputError, match="unexpected keyword argument 'parms'"):
            mixture_from_json(doc)

    def test_integral_float_dim_is_an_int(self):
        doc = mixture_to_json(two_class_spec())
        spec = mixture_from_json({**doc, "dim": 1.0})
        assert type(spec.dim) is int
        assert spec_digest(spec) == spec_digest(mixture_from_json({**doc, "dim": 1}))

    @pytest.mark.parametrize("where,entry,key", [
        ("ground", {"kind": "poisson", "intensity": True}, "intensity"),
        ("marks", {"kind": "gaussian_field", "mean": False, "variance": 1.0, "cov_range": 0.4},
         "mean"),
        ("marks", {"kind": "iid", "distribution": "normal", "params": [0.0, True]}, "params"),
        ("z_rule", {"kind": "iid", "distribution": "constant", "params": [False]}, "params"),
    ], ids=["poisson", "gaussian_field", "iid", "z_rule"])
    def test_bool_parameter_names_the_key(self, where, entry, key):
        doc = mixture_to_json(two_class_spec())
        doc["classes"][0][where] = entry
        with pytest.raises(InputError, match=f"parameter '{key}' must not be a bool"):
            mixture_from_json(doc)

    def test_schema_rejects_garbage(self):
        with pytest.raises(InputError, match="invalid mixture spec"):
            mixture_from_json({"classes": []})

    def test_unknown_ground_kind(self):
        with pytest.raises(InputError, match="unknown ground kind"):
            mixture_from_json(
                {"classes": [{"p": 1.0, "ground": {"kind": "gibbs"}, "marks": {"kind": "iid", "distribution": "constant", "params": [1.0]}}]}
            )
