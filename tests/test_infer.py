"""Normalized threshold statistics, variance estimation, intervals, diagnostics."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from mppstat import (
    Band,
    band_pair_indices,
    GaussianFieldMarks,
    GridGround,
    HardcoreGround,
    IidMarks,
    InputError,
    MixtureClass,
    MixtureSpec,
    PatternBatch,
    PoissonGround,
    Window,
    buffered_window,
    builtin,
    clt_experiment,
    confidence_interval,
    make_mark_function,
    mean_mark,
    sample_batch,
    sample_mixture,
    threshold_excess_mean,
    threshold_family,
)
from mppstat.est import _pair_tables
from mppstat.infer import _reduce_sums, threshold_sums

from helpers import pattern_1d, reference_threshold_sums

FIRST = builtin("first")
BAND = Band(0.5, 1.5)


def grid_field_spec(mean=0.0, var=1.0, h0=0.4, jitter=0.2):
    return MixtureSpec(
        (MixtureClass(1.0, GridGround(1.0, jitter), GaussianFieldMarks(mean, var, h0)),)
    )


def simulate(spec, t_extent, n, seed):
    win = Window(t_extent)
    sw = buffered_window(win, BAND)
    return [p for p, _ in sample_mixture(spec, sw, n, seed)], win


def sums_of(patterns, win, u, band=BAND):
    return threshold_sums(patterns, win, band, threshold_family(FIRST, u))


class TestThresholdSums:
    def test_equal_to_per_pattern_enumeration(self):
        # 40 realizations of about 62 points: two blocks of the sweep
        win = Window(60.0)
        batch = sample_batch(grid_field_spec(), buffered_window(win, BAND), 40, seed=90)
        fam = threshold_family(FIRST, 0.3)
        s, d = threshold_sums(batch, win, BAND, fam)
        for k in range(batch.n_realizations):
            p = batch.pattern(k)
            y1 = p.y[band_pair_indices(p, win, BAND)[0]]
            assert s[k] == float(np.sum(fam.excess(y1)))
            assert d[k] == float(np.sum(fam.indicator(y1)))


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


class TestThresholdSumsAreAPairTable:
    """threshold_sums is the pair table weighted by 1{f(y) > u}, bit for bit a per-pair loop."""

    @pytest.mark.parametrize("base", ["first", "first_squared", "identity"])
    @pytest.mark.parametrize("u_at", ["zero", "realized_mark", "between"])
    def test_equals_the_per_pair_reference(self, base, u_at):
        # iid weight marks, which the sums ignore; a fifth of the marks -0.0;
        # "identity" keeps the sign of a zero, which first's "+ 0.0" drops
        spec = MixtureSpec((MixtureClass(1.0, HardcoreGround(3.0, 0.1),
                                         IidMarks("normal", (0.3, 1.0)),
                                         z_rule=IidMarks("uniform", (0.0, 2.0))),))
        win = Window(30.0)
        drawn = sample_batch(spec, buffered_window(win, BAND), 45, seed=31)
        y = np.where(np.arange(drawn.y.size) % 5 == 0, -0.0, drawn.y)
        batch = PatternBatch(drawn.locations, y, drawn.z, drawn.starts, drawn.sim_window)
        f = (make_mark_function(lambda y1, y2: y1 * 1.0, "identity", "first-only")
             if base == "identity" else builtin(base))
        realized = f.first(y[y > 0.0])
        u = {"zero": 0.0, "realized_mark": float(realized[17]),
             "between": float(np.median(realized))}[u_at]
        fam = threshold_family(f, u)
        assert np.sum(f.first(y) == u) > 0 or u_at == "between"
        s, d = threshold_sums(batch, win, BAND, fam)
        ref_s, ref_d = reference_threshold_sums(batch, win, BAND, fam)
        assert d.sum() > 0 and s.dtype == d.dtype == np.float64
        assert _bits(s) == _bits(ref_s) and _bits(d) == _bits(ref_d)

    @pytest.mark.parametrize("base", ["first", "first_squared"])
    @pytest.mark.parametrize("u_at", ["zero", "between"])
    def test_2d_equals_the_per_pair_reference_in_i_j_order(self, base, u_at):
        spec = MixtureSpec((MixtureClass(1.0, PoissonGround(3.0), IidMarks("normal", (0.3, 1.0)),
                                         z_rule=IidMarks("uniform", (0.0, 2.0))),), dim=2)
        win, band = Window([6.0, 6.0]), Band.absolute(0.5, 1.5)
        batch = sample_batch(spec, buffered_window(win, band), 12, seed=32)
        f = builtin(base)
        u = {"zero": 0.0, "between": float(np.median(f.first(batch.y)))}[u_at]
        fam = threshold_family(f, u)
        # inference is defined in d = 1 only: this is the table threshold_sums reads
        table, = _pair_tables(batch, win, [band], fam.excess_fn(),
                              lambda block: fam.indicator(block.y))
        s, d = table.num, table.den
        ref_s, ref_d = reference_threshold_sums(batch, win, band, fam)
        assert d.min() > 0 and s.dtype == d.dtype == np.float64
        assert _bits(s) == _bits(ref_s) and _bits(d) == _bits(ref_d)


class TestCltConfig:
    def test_pair_function_rejected(self):
        pat = pattern_1d([0.0, 1.0], y=[5.0, 5.0], lo=0.0, hi=1.0)
        with pytest.raises(InputError, match="first-only"):
            clt_experiment([pat] * 30, Window(1.0), BAND, builtin("product"), 0.0)

    def test_negative_u_rejected(self):
        pat = pattern_1d([0.0, 1.0], y=[5.0, 5.0], lo=0.0, hi=1.0)
        with pytest.raises(InputError):
            clt_experiment([pat] * 30, Window(1.0), BAND, FIRST, -1.0)


class TestCenteredPairSum:
    def test_perfect_centering_gives_zero(self):
        pat = pattern_1d([0.0, 1.0, 2.0], y=[4.0, 4.0, 4.0], lo=0.0, hi=3.0)
        out = clt_experiment([pat] * 30, Window(3.0), BAND, FIRST, u=0.0, center=4.0)
        assert out["rows"][0]["alpha_star"] == 0.0

    def test_single_pair_by_hand(self):
        # one qualifying pair, excess 5, center 3, indicator 1 -> 2
        pat = pattern_1d([0.0, 1.0], y=[5.0, -1.0], lo=0.0, hi=1.0)
        out = clt_experiment([pat] * 30, Window(1.0), Band(0.5, 1.5), FIRST, u=0.0,
                             center=3.0)
        assert out["rows"][0]["alpha_star"] == 2.0

    def test_threshold_above_all_marks(self):
        pat = pattern_1d([0.0, 1.0, 2.0], y=[1.0, 2.0, 1.5], lo=0.0, hi=3.0)
        (s,), (d,) = threshold_sums([pat], Window(3.0), BAND, threshold_family(FIRST, 50.0))
        assert s - 3.0 * d == 0.0

    def test_oracle_centered_mean_is_zero(self):
        # across many realizations the oracle-centered sum averages to zero
        spec = MixtureSpec(
            (MixtureClass(1.0, PoissonGround(1.0), IidMarks("normal", (1.0, 1.0))),)
        )
        truth, _ = threshold_excess_mean(spec.classes[0].marks, "first", 0.0)
        pats, win = simulate(spec, 60.0, 2000, seed=50)
        out = clt_experiment(pats, win, BAND, FIRST, 0.0, center=truth)
        vals = np.array([row["alpha_star"] for row in out["rows"]])
        se = np.std(vals, ddof=1) / np.sqrt(vals.size)
        assert abs(np.mean(vals)) < 3 * se


class TestCltStatistic:
    def test_degenerate_marks_zero(self):
        pat = pattern_1d([0.0, 1.0, 2.0], y=[5.0, 5.0, 5.0], lo=0.0, hi=3.0)
        out = clt_experiment([pat] * 30, Window(3.0), BAND, FIRST, u=2.0, center=3.0)
        assert out["rows"][0]["statistic"] == 0.0

    def test_shift_equivariance(self):
        pat = pattern_1d([0.0, 1.0, 2.0, 3.1], y=[0.5, 2.0, -0.3, 1.2], lo=0.0, hi=4.0)
        base = clt_experiment([pat] * 30, Window(4.0), BAND, FIRST, u=0.5, center=0.7)
        shifted = pattern_1d([0.0, 1.0, 2.0, 3.1], y=np.array([0.5, 2.0, -0.3, 1.2]) + 2.0,
                             lo=0.0, hi=4.0)
        res = clt_experiment([shifted] * 30, Window(4.0), BAND, FIRST, u=2.5, center=0.7)
        assert res["rows"][0]["statistic"] == pytest.approx(
            base["rows"][0]["statistic"], rel=1e-12
        )

    def test_identical_realizations_give_nan_shape(self):
        # the spread of 30 equal statistics is rounding noise: no KS p-value
        # or skewness, and no precision-loss warning from scipy
        pat = pattern_1d([0.0, 1.0, 2.0, 3.1], y=[0.5, 2.0, -0.3, 1.2], lo=0.0, hi=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = clt_experiment([pat] * 30, Window(4.0), BAND, FIRST, u=0.5, center=0.7)["summary"]
        assert math.isnan(s["ks_pvalue"]) and math.isnan(s["skewness"])

    def test_no_conditional_pairs_is_an_error(self):
        pat = pattern_1d([0.0, 1.0], y=[-1.0, -1.0], lo=0.0, hi=1.0)
        with pytest.raises(InputError, match="no pairs"):
            clt_experiment([pat] * 30, Window(1.0), BAND, FIRST, u=0.0, center=0.0)

    @pytest.mark.parametrize("n", [10, 30])
    def test_d2_rejected(self, n):
        # the realization count is checked once, after the sweep, so 10
        # realizations get the sweep's error too
        import numpy as np
        from mppstat import PointPattern, SimWindow

        pat = PointPattern(np.array([[0.0, 0.0], [1.0, 0.0]]), np.ones(2), np.ones(2),
                           SimWindow.cube(0, 2, 2))
        with pytest.raises(InputError, match="^inference is defined for d=1 patterns only$"):
            clt_experiment([pat] * n, Window(np.full(2, 2.0)), Band(0.5, 1.5, signed=False),
                           FIRST, 0.0, center=0.0)


class TestEstimateVariance:
    def test_identical_realizations_zero(self):
        pat = pattern_1d(np.arange(0.0, 30.0), y=np.tile([1.0, 3.0], 15), lo=0.0, hi=30.0)
        s, d = sums_of([pat] * 30, Window(30.0), 0.0)
        assert _reduce_sums(s, d, None, 30.0)[2] == 0.0

    @pytest.mark.parametrize("form", ["batch", "list", "stream"])
    def test_needs_30_realizations(self, form):
        pat = pattern_1d(np.arange(0.0, 5.0), y=np.arange(5.0), lo=0.0, hi=5.0)

        def realizations(n):
            pats = [pat] * n
            if form == "batch":
                return PatternBatch.from_patterns(pats)
            if form == "stream":  # blocks of 10 realizations and one of the rest
                return iter([PatternBatch.from_patterns(pats[i:i + 10]) for i in range(0, n, 10)])
            return pats

        with pytest.raises(InputError,
                           match="^variance estimation needs >= 30 realizations, got 29$"):
            clt_experiment(realizations(29), Window(5.0), BAND, FIRST, 0.0)
        assert clt_experiment(realizations(30), Window(5.0), BAND, FIRST, 0.0)["summary"]["n"] == 30

    @pytest.mark.parametrize("empty", [[], iter(())], ids=["list", "stream"])
    def test_no_realizations_is_an_input_error(self, empty):
        with pytest.raises(InputError, match="^at least one realization is required$"):
            clt_experiment(empty, Window(5.0), BAND, FIRST, 0.0)

    def test_constant_marks_oracle_centering_zero(self):
        pats = [
            pattern_1d(np.arange(0.0, 20.0) + 0.01 * k, y=np.full(20, 4.0),
                       lo=-1.0, hi=21.0)
            for k in range(30)
        ]
        s, d = sums_of(pats, Window(19.0), 1.0)
        assert _reduce_sums(s, d, 3.0, 19.0)[2] == 0.0

    def test_stable_under_doubling(self):
        spec = grid_field_spec()
        pats_a, win = simulate(spec, 200.0, 80, seed=60)
        pats_b, _ = simulate(spec, 200.0, 160, seed=61)

        def bootstrap_ci(pats, n_boot=300):
            fam = threshold_family(FIRST, 0.0)
            sums = np.column_stack(threshold_sums(pats, win, BAND, fam))
            rng = np.random.default_rng(7)
            vals = []
            for _ in range(n_boot):
                idx = rng.integers(0, len(pats), len(pats))
                s, d = sums[idx, 0], sums[idx, 1]
                c = s.sum() / d.sum()
                vals.append(np.var(s - c * d, ddof=1) / np.mean(d))
            return np.percentile(vals, [2.5, 97.5])

        lo_a, hi_a = bootstrap_ci(pats_a)
        lo_b, hi_b = bootstrap_ci(pats_b)
        assert lo_a < hi_b and lo_b < hi_a  # overlapping intervals


class TestConfidenceInterval:
    def test_degenerate(self):
        assert confidence_interval(2.5, 0.0, 1.0, 100.0, 0.95) == (2.5, 2.5)

    def test_half_width_against_normal_quantile(self):
        lo, hi = confidence_interval(0.0, 1.0, 1.0, 100.0, 0.95)
        assert hi == pytest.approx(0.19599639845400545, abs=1e-9)
        assert lo == -hi

    def test_input_errors(self):
        with pytest.raises(InputError):
            confidence_interval(0.0, 1.0, 0.0, 100.0, 0.95)
        with pytest.raises(InputError):
            confidence_interval(0.0, -1.0, 1.0, 100.0, 0.95)
        with pytest.raises(InputError):
            confidence_interval(0.0, 1.0, 1.0, 100.0, 1.5)


class TestConvergenceCurve:
    def test_ergodic_endpoint_near_truth(self):
        spec = MixtureSpec(
            (MixtureClass(1.0, PoissonGround(2.0), IidMarks("normal", (3.0, 1.0))),)
        )
        pats, _ = simulate(spec, 150.0, 40, seed=70)
        ends = np.array([mean_mark(p, Window(150.0), BAND, FIRST).value for p in pats])
        se = np.std(ends, ddof=1) / np.sqrt(ends.size)
        assert abs(np.mean(ends) - 3.0) < 3 * se

    def test_mixture_realization_converges_to_its_class(self):
        spec = MixtureSpec(
            (
                MixtureClass(0.5, PoissonGround(2.0), IidMarks("normal", (0.0, 1.0))),
                MixtureClass(0.5, PoissonGround(2.0), IidMarks("normal", (10.0, 1.0))),
            )
        )
        win = Window(200.0)
        sw = buffered_window(win, BAND)
        for pat, k in sample_mixture(spec, sw, 8, seed=71):
            end = mean_mark(pat, Window(200.0), BAND, FIRST).value
            class_mean = 0.0 if k == 0 else 10.0
            assert abs(end - class_mean) < 1.0
            assert abs(end - 5.0) > 3.0  # not the mixture-wide average


class TestNormalization:
    def test_conditional_pair_count_normalizes_to_one(self):
        # lattice with one-sided neighbor: pair rate 1, exceedance 1/2,
        # so conditional pairs / (T * 0.5) should hover at 1
        spec = grid_field_spec()
        pats, win = simulate(spec, 500.0, 250, seed=80)
        lam_oracle = 0.5
        fam = threshold_family(FIRST, 0.0)
        ratios = threshold_sums(pats, win, BAND, fam)[1] / (win.volume * lam_oracle)
        assert 0.95 <= np.mean(ratios) <= 1.05

    def test_estimated_pair_rate_matches(self):
        spec = grid_field_spec()
        pats, win = simulate(spec, 500.0, 100, seed=81)
        lam = clt_experiment(pats, win, BAND, FIRST, 0.0)["summary"]["lambda_u_hat"]
        assert lam == pytest.approx(0.5, abs=0.02)


class TestThresholdSchedule:
    def test_growing_quantile_threshold_keeps_variance_bounded(self):
        # u_T at the (1 - 1/log T) mark quantile: the normalized statistic's
        # spread must not blow up across window sizes
        spec = grid_field_spec()
        variances = []
        for t_extent, seed in ((100.0, 90), (200.0, 91), (500.0, 92)):
            u = float(stats.norm.ppf(1.0 - 1.0 / np.log(t_extent)))
            truth, _ = threshold_excess_mean(spec.classes[0].marks, "first", u)
            pats, win = simulate(spec, t_extent, 150, seed)
            out = clt_experiment(pats, win, BAND, FIRST, u, center=truth)
            vals = [row["statistic"] for row in out["rows"]]
            variances.append(np.var(vals, ddof=1))
        assert max(variances) / min(variances) < 3.0


class TestCltExperiment:
    def test_summary_and_coverage_fields(self):
        spec = grid_field_spec()
        truth, _ = threshold_excess_mean(spec.classes[0].marks, "first", 0.0)
        pats, win = simulate(spec, 100.0, 120, seed=95)
        out = clt_experiment(pats, win, BAND, FIRST, 0.0, center=truth, truth=truth,
                             group_size=40)
        s = out["summary"]
        assert s["n"] == 120
        assert s["s_hat"] > 0
        assert 0.0 <= s["ks_pvalue"] <= 1.0
        assert s["n_groups"] == 3
        assert s["coverage"] in (0.0, 1 / 3, 2 / 3, 1.0)
        assert len(out["rows"]) == 120
