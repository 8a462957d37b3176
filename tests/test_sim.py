"""Generators: determinism, hard constraints, and distributional sanity."""

import math
import tracemalloc

import numpy as np
import pytest

from mppstat import (
    Band,
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
    covariance_model,
    matern2_retained_intensity,
    mean_mark_conditional_variance,
    mixture_from_json,
    mixture_to_json,
    sample_ground,
    sample_marks,
    sample_mixture,
    spec_digest,
)
from mppstat.sim import _cholesky_with_jitter

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
        with pytest.warns(UserWarning, match="retains only"):
            sample_ground(HardcoreGround(500.0, 5.0), SimWindow.cube(0, 20, 1), seed=0)


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
        cov = covariance_model("spherical", 2.0, 0.7)
        assert cov(0.0) == 2.0
        assert cov(0.7) == 0.0
        assert cov(5.0) == 0.0
        tr = covariance_model("trunc_exp", 1.0, 1.0)
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
        cov = covariance_model("spherical", 3.5, 1.0)
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
        order, ab = banded_covariance(locs, covariance_model("spherical", 1.0, reach), reach)
        assert ab.shape[1] == locs.shape[0] > 100
        assert ab.shape[0] - 1 <= math.floor(reach / delta) + 1
        assert np.array_equal(locs[order, 0], np.sort(locs[:, 0]))

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
        import scipy.linalg

        calls = []
        factor = scipy.linalg.cholesky_banded

        def counting(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cholesky_banded", counting)
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

    def test_schema_rejects_garbage(self):
        with pytest.raises(InputError, match="invalid mixture spec"):
            mixture_from_json({"classes": []})

    def test_unknown_ground_kind(self):
        with pytest.raises(InputError, match="unknown ground kind"):
            mixture_from_json(
                {"classes": [{"p": 1.0, "ground": {"kind": "gibbs"}, "marks": {"kind": "iid", "distribution": "constant", "params": [1.0]}}]}
            )
