"""The CLT diagnostics and the normal oracle against scipy.stats as the reference.

The package computes them with scipy.special only; scipy.stats is imported
here, by the tests, and nowhere in the package's CLT path.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from mppstat import (
    Band,
    GaussianFieldMarks,
    GridGround,
    IidMarks,
    InputError,
    MixtureClass,
    MixtureSpec,
    Window,
    buffered_window,
    builtin,
    clt_experiment,
    confidence_interval,
    sample_batch,
    threshold_excess_mean,
)
from mppstat.infer import _kolmogorov_sf, _ks_normal_pvalue, _skewness

POMERANZ_TOL = 1e-13


def _regime(n, d):
    """The branch of the Simard-L'Ecuyer dispatch that (n, d) falls in."""
    t, nd2 = n * d, n * d * d
    if d >= 1.0 or d <= 0.0 or t <= 0.5:
        return "trivial"
    if t <= 1.0:
        return "ruben_gambino_low"
    if t >= n - 1:
        return "ruben_gambino_high"
    if d >= 0.5:
        return "smirnov_exact"
    if n <= 140:
        return "durbin" if nd2 <= 0.754693 else "pomeranz" if nd2 <= 4 else "smirnov_tail"
    if nd2 >= 370.0:
        return "zero"
    if nd2 >= 2.2:
        return "smirnov_tail"
    return "durbin" if n <= 100000 and n * d**1.5 <= 1.4 else "pelz_good"


def _grid(n):
    """Statistics d for n points that reach every regime open to n."""
    ds = [0.0, 0.3 / n, 0.5 / n, 0.75 / n, 1.0 / n, 1.0 - 1.5 / n, 1.0 - 0.5 / n, 1.0,
          0.5, 0.7]
    ds += [math.sqrt(x / n) for x in (0.05, 0.5, 0.754, 0.76, 1.0, 2.0, 2.19, 2.21,
                                      3.9, 4.1, 10.0, 100.0, 369.0, 371.0)]
    edge = (1.4 / n) ** (2 / 3)  # Durbin below, Pelz-Good above, for 140 < n <= 10^5
    ds += [0.99 * edge, 1.01 * edge, 2.0 * edge]
    return sorted(d for d in ds if 0.0 <= d <= 1.0)


KS_CASES = [(n, d) for n in (30, 140, 141, 400, 2000, 10**5) for d in _grid(n)]


class TestKolmogorovSF:
    def test_grid_reaches_every_regime(self):
        regimes = {_regime(n, d) for n, d in KS_CASES}
        assert regimes == {"trivial", "ruben_gambino_low", "ruben_gambino_high",
                           "smirnov_exact", "durbin", "pomeranz", "smirnov_tail",
                           "zero", "pelz_good"}
        for n in (141, 400, 2000, 10**5):
            assert {"durbin", "pelz_good"} <= {_regime(m, d) for m, d in KS_CASES if m == n}

    @pytest.mark.parametrize("n,d", KS_CASES)
    def test_equals_kstwo_sf(self, n, d):
        got, ref = _kolmogorov_sf(n, d), float(stats.kstwo.sf(d, n))
        if _regime(n, d) == "pomeranz":
            assert abs(got - ref) <= POMERANZ_TOL, (got, ref)
        else:
            assert np.float64(got).tobytes() == np.float64(ref).tobytes(), (got, ref)

    def test_random_statistics_of_small_samples(self):
        # the statistic of a sample is never below 1/(2n); sample it where
        # the p-values of the tests live
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(30, 501))
            d = rng.uniform(0.5 / n, 2.5 / math.sqrt(n))
            got, ref = _kolmogorov_sf(n, d), float(stats.kstwo.sf(d, n))
            if _regime(n, d) == "pomeranz":
                assert abs(got - ref) <= POMERANZ_TOL, (n, d, got, ref)
            else:
                assert got == ref, (n, d, got, ref)


class TestShapeDiagnostics:
    @pytest.mark.parametrize("size", [30, 31, 64, 140, 141, 200, 333, 500])
    def test_pvalue_and_skewness_equal_scipy(self, size):
        rng = np.random.default_rng(size)
        for draw in (rng.standard_normal(size), rng.standard_t(3, size),
                     rng.exponential(1.0, size) - 1.0, 0.2 * rng.standard_normal(size) + 0.3):
            x = (draw - np.mean(draw)) / np.std(draw, ddof=1)
            ks, p = stats.kstest(x, "norm"), _ks_normal_pvalue(x)
            if _regime(size, float(ks.statistic)) == "pomeranz":
                assert abs(p - float(ks.pvalue)) <= POMERANZ_TOL
            else:
                assert p == float(ks.pvalue)
            assert _skewness(x).hex() == float(stats.skew(x)).hex()
            # the raw draw too: skewness is not standardized by its caller alone
            assert _skewness(draw).hex() == float(stats.skew(draw)).hex()

    def test_degenerate_spread_gives_nan_skewness(self):
        x = np.full(40, 3.0)
        x[7] = np.nextafter(3.0, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns of the cancellation
            ref = float(stats.skew(x))
        assert math.isnan(ref) and math.isnan(_skewness(x))
        assert math.isnan(_skewness(np.zeros(30)))

    @pytest.mark.parametrize("n,seed", [(30, 1), (45, 2), (120, 3), (200, 4), (500, 5)])
    def test_clt_experiment_summary_equals_scipy(self, n, seed):
        band, win = Band(0.5, 1.5), Window(40.0)
        spec = MixtureSpec((MixtureClass(1.0, GridGround(1.0, 0.2),
                                         GaussianFieldMarks(0.0, 1.0, 0.4)),))
        batch = sample_batch(spec, buffered_window(win, band), n, seed)
        out = clt_experiment(batch, win, band, builtin("first"), 0.0)
        stat = np.array([r["statistic"] for r in out["rows"]])
        finite = stat[np.isfinite(stat)]
        z = (finite - np.mean(finite)) / np.std(finite, ddof=1)
        s = out["summary"]
        ks = stats.kstest(z, "norm")
        if _regime(z.size, float(ks.statistic)) == "pomeranz":
            assert abs(s["ks_pvalue"] - float(ks.pvalue)) <= POMERANZ_TOL
        else:
            assert s["ks_pvalue"] == float(ks.pvalue)
        assert s["skewness"] == float(stats.skew(z))


def _old_normal_oracle(loc, scale, u):
    """The normal, base "first" branch of the oracle on a frozen scipy.stats.norm."""
    dist = stats.norm(loc, scale)
    m, s = float(dist.mean()), float(dist.std())
    a = (m - u) / s
    excess = (m - u) * stats.norm.cdf(a) + s * stats.norm.pdf(a)
    p = float(stats.norm.cdf(a))
    if p <= 0:
        raise InputError("threshold above the entire mark distribution")
    return float(excess / p), float(p)


def _outcome(fn, *args):
    try:
        return tuple(np.float64(v).tobytes() for v in fn(*args))
    except InputError:
        return "InputError"


class TestNormalOracle:
    def test_equals_frozen_distribution(self):
        rng = np.random.default_rng(20)
        cases = 0
        for _ in range(1200):
            mean = float(rng.choice([0.0, -0.0, rng.normal() * 10 ** rng.uniform(-3, 3)]))
            var = float(10 ** rng.uniform(-6, 6))
            sd = math.sqrt(var)
            # thresholds from far below the mean to 40 sd above it (deep tails)
            u = abs(mean + sd * rng.uniform(-8.0, 40.0))
            if rng.random() < 0.2:
                u = float(rng.uniform(0.0, 3.0))
            for marks in (GaussianFieldMarks(mean, var, 1.0), IidMarks("normal", (mean, sd))):
                ref = _outcome(_old_normal_oracle, mean, sd, u)
                assert _outcome(threshold_excess_mean, marks, "first", u) == ref, (mean, var, u)
                cases += 1
        assert cases >= 2000

    def test_uniform_and_squared_bases_still_integrate(self):
        mu, p = threshold_excess_mean(IidMarks("uniform", (0.0, 2.0)), "first", 0.5)
        assert p == pytest.approx(0.75, rel=1e-9)
        assert mu == pytest.approx(0.75, rel=1e-6)
        mu, p = threshold_excess_mean(GaussianFieldMarks(0.0, 1.0, 1.0), "first_squared", 1.0)
        assert p == pytest.approx(2 * stats.norm.sf(1.0), rel=1e-6)


class TestConfidenceIntervalConformance:
    def test_equals_norm_ppf(self):
        rng = np.random.default_rng(21)
        levels = np.concatenate([rng.uniform(0.0, 1.0, 2000), [1e-300, 0.5, 0.9, 0.95, 0.99,
                                                               1 - 1e-12, 1 - 2**-52]])
        for level in levels:
            mu, s_hat, lam = rng.normal(), float(rng.exponential()), float(rng.exponential())
            q = stats.norm.ppf(0.5 * (1.0 + level))
            half = q * np.sqrt(s_hat / (lam * 250.0))
            ref = (float(mu - half), float(mu + half))
            assert confidence_interval(mu, s_hat, lam, 250.0, float(level)) == ref

    def test_level_whose_quantile_is_infinite_raises(self):
        # 0.5 * (1 + level) rounds to 1.0, where norm.ppf gives an infinite
        # half-width, or NaN ends when s_hat = 0
        level = 1 - 2**-53
        assert 0.5 * (1.0 + level) == 1.0 and stats.norm.ppf(0.5 * (1.0 + level)) == np.inf
        for s_hat in (1.0, 0.0):
            with pytest.raises(InputError, match="finite normal quantile"):
                confidence_interval(0.0, s_hat, 1.0, 250.0, level)
