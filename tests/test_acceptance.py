"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is fixed
here; nothing is calibrated at runtime.  The statistical criteria use fixed
seeds, so outcomes are reproducible bit for bit.
"""

import time

import numpy as np
import pytest
from scipy import stats

import mppstat as m
from mppstat import (
    Band,
    GaussianFieldMarks,
    GridGround,
    IidMarks,
    MixtureClass,
    MixtureSpec,
    PoissonGround,
    WeightStrategy,
    Window,
    band_pair_indices,
    band_pair_indices_naive,
    buffered_window,
    builtin,
    compute_weights,
    concat_patterns,
    confidence_interval,
    mean_mark,
    mean_mark_avg,
    mean_mark_conditional_variance,
    mean_mark_pooled,
    mean_mark_weighted,
    neighbor_counts,
    pair_sums,
    pair_table,
    sample_mixture,
    threshold_excess_mean,
)
from mppstat.infer import _threshold_sums
from mppstat.markfn import threshold_family

from helpers import DYADIC, pattern_1d, random_band, random_pattern, sorted_pairs

FIRST = builtin("first")
BAND = Band(0.5, 1.5)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


def _two_class_spec(lam_a, lam_b):
    return MixtureSpec(
        (
            MixtureClass(0.5, PoissonGround(lam_a), IidMarks("normal", (0.0, 1.0))),
            MixtureClass(0.5, PoissonGround(lam_b), IidMarks("normal", (10.0, 1.0))),
        )
    )


def _replicate_means(spec, n_realizations, n_replicates, seed):
    win = Window(50.0)
    sw = buffered_window(win, BAND)
    pooled, avg = [], []
    for r in range(n_replicates):
        pats = [p for p, _ in sample_mixture(spec, sw, n_realizations, (seed, r))]
        table = pair_table(pats, win, BAND, FIRST)
        pooled.append(mean_mark_pooled(table).value)
        avg.append(mean_mark_avg(table).value)
    return np.array(pooled), np.array(avg)


def test_c1_two_target_separation():
    """Pooled and equally-averaged estimators hit their distinct targets."""
    t0 = time.perf_counter()
    spec = _two_class_spec(1.0, 4.0)
    mu = m.mixture_mean_mark(spec, FIRST, 2, BAND)
    mu_tilde = m.class_averaged_mean_mark(spec, FIRST, 2)
    assert mu == pytest.approx(160.0 / 17.0, rel=1e-12)
    assert mu_tilde == 5.0
    pooled, avg = _replicate_means(spec, 200, 100, seed=20260501)
    runtime = time.perf_counter() - t0
    err_pooled = abs(pooled.mean() - mu)
    err_avg = abs(avg.mean() - mu_tilde)
    sep = abs(pooled.mean() - avg.mean()) / max(pooled.std(ddof=1), avg.std(ddof=1))
    ok = err_pooled < 0.15 and err_avg < 0.15 and sep > 10.0 and runtime < 60.0
    _report(
        "criterion 1 (two-target separation)",
        ok,
        f"mean_pooled={pooled.mean():.4f} (|err|={err_pooled:.4f}<0.15) "
        f"mean_avg={avg.mean():.4f} (|err|={err_avg:.4f}<0.15) "
        f"separation={sep:.1f}sd (>10) runtime={runtime:.1f}s (<60)",
    )
    assert err_pooled < 0.15
    assert err_avg < 0.15
    assert sep > 10.0
    assert runtime < 60.0


def test_c2_ergodic_coincidence():
    """With equal class intensities the two estimators share one target."""
    spec = _two_class_spec(2.0, 2.0)
    pooled, avg = _replicate_means(spec, 200, 100, seed=20260502)
    gap = abs(pooled.mean() - avg.mean())
    ok = gap < 0.05
    _report("criterion 2 (ergodic coincidence)", ok, f"|mean gap|={gap:.4f} (<0.05)")
    assert gap < 0.05


def test_c3_concatenation_identity():
    """Weighted concatenation reproduces the weighted estimate to 1e-12."""
    rng = np.random.default_rng(20260503)
    worst = 0.0
    fixtures = 0
    while fixtures < 50:
        band = Band(float(rng.uniform(-1.5, 0.0)), float(rng.uniform(0.3, 1.5)))
        t_extent = 8.0
        win = Window(t_extent)
        buffered = fixtures % 2 == 0
        pats, weights = [], []
        while len(pats) < int(rng.integers(2, 8)):
            buf = band.max_abs if buffered else 0.0
            x = np.unique(rng.uniform(-buf, t_extent + buf, int(rng.integers(4, 40))))
            pat = pattern_1d(x, y=rng.uniform(1.0, 5.0, x.size),
                             z=rng.uniform(0.1, 2.0, x.size), lo=-buf, hi=t_extent + buf)
            if not mean_mark(pat, win, band, FIRST).defined:
                continue
            pats.append(pat)
            weights.append(float(rng.uniform(0.1, 3.0)))
        ref = mean_mark_weighted(pair_table(pats, win, band, FIRST), weights).value
        cat = concat_patterns(pats, win, band, weights)
        got = mean_mark(cat, Window(float(cat.sim_window.hi[0])), band, FIRST).value
        worst = max(worst, abs(got - ref) / abs(ref))
        fixtures += 1
    ok = worst <= 1e-12
    _report("criterion 3 (concatenation identity)", ok,
            f"worst relative gap over 50 fixtures = {worst:.2e} (<=1e-12)")
    assert worst <= 1e-12


def test_c4_consistency_scaling():
    """Root-mean-square error shrinks by more than half from T=25 to T=200."""
    spec = MixtureSpec(
        (MixtureClass(1.0, PoissonGround(2.0), IidMarks("normal", (3.0, 1.0))),)
    )

    def rmse_at(t_extent, seed):
        win = Window(float(t_extent))
        sw = buffered_window(win, BAND)
        errs = [
            mean_mark(p, win, BAND, FIRST).value - 3.0
            for p, _ in sample_mixture(spec, sw, 200, seed)
        ]
        return float(np.sqrt(np.mean(np.square(errs))))

    rmse_small = rmse_at(25, 20260504)
    rmse_large = rmse_at(200, 20260505)
    ratio = rmse_large / rmse_small
    ok = rmse_large < rmse_small and ratio < 0.5
    _report("criterion 4 (consistency scaling)", ok,
            f"rmse(T=25)={rmse_small:.4f} rmse(T=200)={rmse_large:.4f} ratio={ratio:.3f} (<0.5)")
    assert rmse_large < rmse_small
    assert ratio < 0.5


def test_c5_clt_normality_and_coverage():
    """Normalized statistic is Gaussian and its intervals cover the truth."""
    spec = MixtureSpec(
        (MixtureClass(1.0, GridGround(1.0, 0.2), GaussianFieldMarks(0.0, 1.0, 0.4)),)
    )
    win = Window(500.0)
    sw = buffered_window(win, BAND)
    fam = threshold_family(FIRST, 0.0)
    truth, _ = threshold_excess_mean(spec.classes[0].marks, "first", 0.0)

    # normality over 2000 seeds, centered with the true conditional mean
    sums = []
    for chunk in range(10):
        sums.extend(
            _threshold_sums(p, win, BAND, fam)
            for p, _ in sample_mixture(spec, sw, 200, (20260506, chunk))
        )
    sums = np.array(sums)
    stat = (sums[:, 0] - truth * sums[:, 1]) / np.sqrt(sums[:, 1])
    standardized = (stat - stat.mean()) / stat.std(ddof=1)
    ks_p = float(stats.kstest(standardized, "norm").pvalue)
    skew = float(stats.skew(standardized))

    # interval coverage over 1000 experiments of 100 realizations each
    n_exp, n_per = 1000, 100
    hits = 0
    for g in range(n_exp):
        arr = np.array(
            [
                _threshold_sums(p, win, BAND, fam)
                for p, _ in sample_mixture(spec, sw, n_per, (20260507, g))
            ]
        )
        s_sum, d_sum = arr[:, 0], arr[:, 1]
        point = s_sum.sum() / d_sum.sum()
        s_hat = float(np.var(s_sum - point * d_sum, ddof=1)) / float(d_sum.mean())
        lam = float(d_sum.mean()) / win.volume
        lo, hi = confidence_interval(point, s_hat, lam, win.volume * n_per, 0.95)
        hits += int(lo <= truth <= hi)
    coverage = hits / n_exp
    ok = ks_p > 0.01 and abs(skew) < 0.15 and 0.925 <= coverage <= 0.975
    _report("criterion 5 (asymptotic normality)", ok,
            f"ks_p={ks_p:.3f} (>0.01) skew={skew:.3f} (|.|<0.15) "
            f"coverage={coverage:.3f} (in [0.925, 0.975])")
    assert ks_p > 0.01
    assert abs(skew) < 0.15
    assert 0.925 <= coverage <= 0.975


def test_c6_variance_minimizing_weights():
    """Count weighting beats equal weighting on heterogeneous point counts."""
    rng = np.random.default_rng(20260508)
    win = Window(100.0)
    vals = {"count": [], "equal": []}
    for _ in range(500):
        pats = []
        for _ in range(8):
            extent = float(rng.uniform(10.0, 100.0))
            x = np.arange(0.0, extent + 1e-9)
            pats.append(pattern_1d(x, y=rng.normal(0.0, 1.0, x.size), lo=0.0, hi=extent))
        for kind in vals:
            table = pair_table(pats, win, BAND, FIRST)
            w = compute_weights(WeightStrategy(kind), table)
            vals[kind].append(mean_mark_weighted(table, w).value)
    weighted = np.array(vals["count"])
    equal = np.array(vals["equal"])
    ratio = np.var(weighted, ddof=1) / np.var(equal, ddof=1)
    boot = np.random.default_rng(1)
    wins = 0
    for _ in range(200):
        idx = boot.integers(0, 500, 500)
        wins += int(np.var(weighted[idx], ddof=1) < np.var(equal[idx], ddof=1))
    ok = ratio <= 1.02 and wins >= 180
    _report("criterion 6 (variance-minimizing weights)", ok,
            f"variance ratio={ratio:.3f} (<=1.02) bootstrap wins={wins}/200 (>=180)")
    assert ratio <= 1.02
    assert wins >= 180


def test_c7_conditional_variance_oracle():
    """Analytic conditional variance matches mark-field resampling within 5%."""
    worst = 0.0
    fixtures = 0
    k = 0
    while fixtures < 20:
        r = np.random.default_rng(20260509 + k)
        k += 1
        extent = 30.0
        if k % 2 == 0:
            x = np.sort(r.uniform(0.0, extent, 60))
            x = x[np.concatenate(([True], np.diff(x) > 1e-9))]
        else:
            x = np.sort(np.arange(0.0, extent + 1e-9) + r.uniform(-0.3, 0.3, 31))
        pat = pattern_1d(x, lo=float(x.min()), hi=float(x.max()))
        win = Window(extent)
        band = Band(float(r.uniform(-2.0, -0.2)), float(r.uniform(0.2, 2.0)))
        var_f = float(r.uniform(0.5, 3.0))
        field = GaussianFieldMarks(float(r.uniform(-1.0, 1.0)), var_f,
                                   float(r.uniform(0.5, 2.0)))
        cov = field.covariance()
        counts = neighbor_counts(pat, win, band).astype(float)
        if counts.sum() == 0:
            continue
        analytic = mean_mark_conditional_variance(pat, win, band, cov)
        n = pat.n_points
        diffs = pat.locations[:, 0][:, None] - pat.locations[:, 0][None, :]
        sigma = cov(np.abs(diffs)) + 1e-12 * var_f * np.eye(n)
        draws = np.linalg.cholesky(sigma) @ np.random.default_rng(900 + k).standard_normal(
            (n, 20000)
        )
        empirical = float(np.var(counts @ draws / counts.sum(), ddof=1))
        worst = max(worst, abs(empirical - analytic) / analytic)
        fixtures += 1
    ok = worst < 0.05
    _report("criterion 7 (conditional-variance oracle)", ok,
            f"worst relative error over 20 fixtures = {worst:.4f} (<0.05)")
    assert worst < 0.05


class TestC8ExactProperties:
    """Exact-arithmetic suite: 1000 randomized cases per property, <=1e-12."""

    N_CASES = 1000

    def test_translation_invariance(self):
        rng = np.random.default_rng(20260510)
        worst = 0.0
        for _ in range(self.N_CASES):
            pat = random_pattern(rng, int(rng.integers(5, 120)), dyadic=True)
            win, band = Window(10.0), Band(-1.5, 1.5)
            shift = np.array([int(rng.integers(-4000, 4000)) * DYADIC])
            back = m.translate(m.translate(pat, shift), -shift)
            a = pair_sums(pat, win, band, FIRST)[0]
            b = pair_sums(back, win, band, FIRST)[0]
            if a != 0:
                worst = max(worst, abs(a - b) / abs(a))
        _report("criterion 8a (translation invariance)", worst <= 1e-12,
                f"{self.N_CASES} cases, worst rel dev = {worst:.2e}")
        assert worst <= 1e-12

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(20260511)
        worst = 0.0
        for _ in range(self.N_CASES):
            pat = random_pattern(rng, int(rng.integers(4, 100)), positive_marks=True)
            win, band = Window(10.0), Band(-1.2, 1.2)
            res = mean_mark(pat, win, band, FIRST)
            if not res.defined:
                continue
            c = float(rng.uniform(1e-4, 1e4))
            scaled = m.PointPattern(pat.locations, pat.y, pat.z * c, pat.sim_window)
            again = mean_mark(scaled, win, band, FIRST)
            worst = max(worst, abs(again.value - res.value) / abs(res.value))
        _report("criterion 8b (weight-scaling invariance)", worst <= 1e-12,
                f"{self.N_CASES} cases, worst rel dev = {worst:.2e}")
        assert worst <= 1e-12

    def test_smoothing_identity(self):
        rng = np.random.default_rng(20260512)
        worst, done = 0.0, 0
        while done < self.N_CASES:
            pat = random_pattern(rng, int(rng.integers(20, 90)), positive_marks=True)
            win = Window(10.0)
            a, b, c = np.sort(rng.uniform(-2.0, 2.0, 3))
            m1 = mean_mark(pat, win, Band(a, b), FIRST)
            m2 = mean_mark(pat, win, Band(np.nextafter(b, np.inf), c), FIRST)
            if not (m1.defined and m2.defined):
                continue
            den1, den2 = m1.meta["denominator"], m2.meta["denominator"]
            expect = (den1 * m1.value + den2 * m2.value) / (den1 + den2)
            got = mean_mark(pat, win, Band(a, c), FIRST).value
            worst = max(worst, abs(got - expect) / abs(expect))
            done += 1
        _report("criterion 8c (smoothing identity)", worst <= 1e-12,
                f"{self.N_CASES} cases, worst rel dev = {worst:.2e}")
        assert worst <= 1e-12

    def test_band_additivity(self):
        rng = np.random.default_rng(20260513)
        worst = 0.0
        for _ in range(self.N_CASES):
            pat = random_pattern(rng, int(rng.integers(5, 80)), positive_marks=True)
            win = Window(10.0)
            a, b, c = np.sort(rng.uniform(-2.0, 2.0, 3))
            total = pair_sums(pat, win, Band(a, c), FIRST)[0]
            parts = pair_sums(pat, win, Band(a, b), FIRST)[0] + pair_sums(
                pat, win, Band(np.nextafter(b, np.inf), c), FIRST
            )[0]
            if total != 0:
                worst = max(worst, abs(total - parts) / abs(total))
        _report("criterion 8d (band additivity)", worst <= 1e-12,
                f"{self.N_CASES} cases, worst rel dev = {worst:.2e}")
        assert worst <= 1e-12

    def test_brute_force_enumeration_equivalence(self):
        rng = np.random.default_rng(20260514)
        for case in range(self.N_CASES):
            dim = int(rng.integers(1, 4))
            n = 500 if case % 100 == 0 else int(rng.integers(2, 120))
            pat = random_pattern(rng, n, dim=dim, extent=6.0, buffer=1.0)
            win = Window(np.full(dim, 6.0))
            band = random_band(rng, dim)
            fast = sorted_pairs(*band_pair_indices(pat, win, band))
            naive = sorted_pairs(*band_pair_indices_naive(pat, win, band))
            assert fast == naive
        _report("criterion 8e (brute-force enumeration equivalence)", True,
                f"{self.N_CASES} cases (10 with 500 points), pair sets identical")
