"""Asymptotic-normality based inference for one-dimensional patterns.

For a first-only mark function f and a threshold u >= 0, the centered
thresholded pair sum

    sum over qualifying pairs of (excess(y1) - c) * indicator(y1),

with excess(y) = (f(y) - u)_+ and indicator(y) = 1{f(y) > u}, is
asymptotically normal after division by the square root of the
conditional pair count, provided the ground process keeps a minimum
distance between points and the marks come from an independent field
whose covariance vanishes beyond a finite range.  This module computes
the statistic, estimates its asymptotic variance across realizations,
and turns both into confidence intervals for the conditional mean mark.

Everything here is restricted to d = 1 and ignores the weight marks
(the normal limit concerns unit-weight patterns).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import Band, InputError, PatternBatch, PointPattern, Window
from .markfn import MarkFunction, ThresholdFamily, threshold_family
from .est import _as_batch, _pair_tables

__all__ = ["confidence_interval", "clt_experiment", "threshold_sums"]


def threshold_sums(
    realizations: PatternBatch | Sequence[PointPattern], win: Window, band: Band,
    family: ThresholdFamily,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-realization (sum of excess(y1), sum of indicator(y1)) over qualifying pairs.

    These are the `num` and `den` of the band's pair table with the
    exceedance indicator 1{f(y) > u} as weight mark and the excess as
    mark function: where the indicator is 0 the excess is 0 too.  Each
    realization's sums are numpy sums over its own pairs in the order of
    a sweep over it alone, and a non-finite excess is a
    :class:`~mppstat.core.NumericError` naming its pair.
    """
    batch = _as_batch(realizations)
    if batch.dim != 1:
        raise InputError("inference is defined for d=1 patterns only")
    table, = _pair_tables(batch, win, [band], family.excess_fn(), family.indicator(batch.y))
    return table.num, table.den


def _reduce_sums(
    s: np.ndarray, d: np.ndarray, center: float | None, volume: float
) -> tuple[float, np.ndarray, float, float]:
    """(c, alpha_star, s_hat, lambda_u_hat) from per-realization (s, d) columns.

    `s` holds the excess sums and `d` the conditional pair counts.  The
    centering constant c is `center` (the true conditional excess mean,
    for simulation studies) or, when None, the pooled conditional mean
    sum(s) / sum(d).  alpha_star = s - c d are the centered pair sums,
    s_hat is their sample variance divided by the mean conditional pair
    count (the asymptotic variance estimate), and lambda_u_hat is the mean
    conditional pair count per unit window volume.
    """
    if not np.any(d):
        raise InputError(
            "statistic undefined: no pairs with exceeding first mark in any realization"
        )
    c = float(np.sum(s) / np.sum(d)) if center is None else float(center)
    alpha_star = s - c * d
    mean_d = float(np.mean(d))
    return c, alpha_star, float(np.var(alpha_star, ddof=1)) / mean_d, mean_d / volume


def confidence_interval(
    mu_point: float,
    s_hat: float,
    lambda_u_hat: float,
    t_extent: float,
    level: float,
) -> tuple[float, float]:
    """Normal-quantile interval mu +- z * sqrt(s_hat / (lambda * T))."""
    from scipy.special import ndtri

    if not 0.0 < level < 1.0 or 0.5 * (1.0 + level) == 1.0:  # 1 - 2**-53 rounds up to 1
        raise InputError(f"level must be in (0, 1) with a finite normal quantile, got {level}")
    if not np.isfinite(lambda_u_hat) or lambda_u_hat <= 0:
        raise InputError(f"pair rate must be > 0, got {lambda_u_hat}")
    if not np.isfinite(s_hat) or s_hat < 0:
        raise InputError(f"variance estimate must be >= 0, got {s_hat}")
    q = ndtri(0.5 * (1.0 + level))
    half = q * np.sqrt(s_hat / (lambda_u_hat * t_extent))
    return float(mu_point - half), float(mu_point + half)


# The two-sided one-sample Kolmogorov-Smirnov distribution, with the regime
# choice of Simard & L'Ecuyer, "Computing the two-sided Kolmogorov-Smirnov
# distribution", J. Stat. Softw. 39 (2011), and the arithmetic of scipy's
# `kstwo.sf`, so that the p-values match it bit for bit.  Where scipy runs
# Pomeranz's recursion (n <= 140 and 0.754693 < n d^2 <= 4) the Durbin
# matrix is used instead; the two agree to within 1e-13.  The rescaling
# constants are long doubles, as in scipy: once a product is rescaled, the
# rest of its arithmetic is in extended precision.
_EP128 = np.ldexp(np.longdouble(1), 128)
_EM128 = np.ldexp(np.longdouble(1), -128)
# Bernoulli-number coefficients B_2j / (2j (2j - 1)) of Stirling's series, j = 8, ..., 1
_STIRLING = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
             -1.9175269175269175269e-3, 8.4175084175084175084e-4,
             -5.952380952380952381e-4, 7.9365079365079365079e-4,
             -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _durbin_cdf(n: int, d):
    """P(D_n <= d) from the Durbin matrix, by Marsaglia, Tsang & Wang (2003)."""
    k = int(np.ceil(n * d))
    h, m = k - n * d, 2 * k - 1
    w, v = np.empty(m), 1.0 - h ** np.arange(1, m + 1)
    fac = 1.0
    for j in range(1, m + 1):
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    v[-1] = (1.0 + (max(2 * h - 1.0, 0) ** m - 2 * h ** m)) * fac
    H = np.zeros((m, m))
    for i in range(1, m):
        H[i - 1:, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)
    power, nn, expnt, h_expnt = np.eye(m), n, 0, 0
    while nn > 0:  # H^n by squaring, rescaled by 2^-128 as its entries grow
        if nn % 2:
            power = np.matmul(power, H)
            expnt += h_expnt
        H = np.matmul(H, H)
        h_expnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            h_expnt += 128
        nn //= 2
    p = power[k - 1, k - 1]
    for i in range(1, n + 1):  # times n! / n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= 128
    return np.clip(np.ldexp(p, expnt) if expnt else p, 0.0, 1.0)


def _pelz_good_cdf(n: int, d):
    """P(D_n <= d) from the Pelz & Good (1976) series in z = sqrt(n) d."""
    z = np.sqrt(n) * d
    z2, z4, z6 = z**2, z**4, z**6
    qlog = -np.pi**2 / 8 / z2
    if qlog < -708:
        return 0.0
    q = np.exp(qlog)
    k2a, k2b = 6 * z6 + 2 * z4, (2 * z4 - 5 * z2) * np.pi**2 / 4
    k2c = np.pi**4 * (1 - 2 * z2) / 16
    k3d = np.pi**6 * (5 - 30 * z2) / 64
    k3c = np.pi**4 * (-60 * z2 + 212 * z4) / 16
    k3b = np.pi**2 * (135 * z4 - 96 * z6) / 4
    k3a = -30 * z6 - 90 * z**8
    terms = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):  # Horner in q^8 over the odd m = 2k - 1
        m2 = (2 * k - 1) ** 2
        terms *= np.power(q, 8 * k)
        terms += np.array([1.0, -z2 + np.pi**2 / 4 * m2, k2a + k2b * m2 + k2c * m2**2,
                           k3a + k3b * m2 + k3c * m2**2 + k3d * m2**3])
    terms *= q
    terms *= np.sqrt(2 * np.pi)
    terms /= np.array([z, 6 * z4, 72 * z**7, 6480 * z**10])
    q = np.exp(-np.pi**2 / 2 / z2)
    ks = np.arange(maxk, 0, -1)
    sqrt3z, kspi, qpowers = np.sqrt(3) * z, np.pi * ks, q ** ks**2
    terms[2] += np.sum(ks**2 * qpowers) * (np.pi**2 * np.sqrt(2 * np.pi) / (-36 * z**3))
    terms[3] += (np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ks**2 * qpowers)
                 * (np.pi**2 * np.sqrt(2 * np.pi) / (216 * z6)))
    terms /= np.power(n * 1.0, np.arange(4) / 2.0)
    return sum(terms)


def _kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided Kolmogorov-Smirnov statistic of n points."""
    from scipy.special import smirnov

    d = np.float64(d)
    if d >= 1.0:
        return 0.0
    if d <= 0.0:
        return 1.0
    t = n * d
    if t <= 1.0:  # Ruben-Gambino: the lower end
        if t <= 0.5:
            return 1.0
        if n <= 140:
            cdf = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            rn = 1.0 / n  # log(n! / n^n) by Stirling's series, plus n log(2t - 1)
            cdf = np.exp(np.log(n) / 2 - n + np.log(2 * np.pi) / 2
                         + rn * np.polyval(_STIRLING, rn / n) + n * np.log(2 * t - 1))
        return float(np.clip(1.0 - cdf, 0.0, 1.0))
    if t >= n - 1:  # Ruben-Gambino: the upper end
        return float(np.clip(2 * (1.0 - d) ** n, 0.0, 1.0))
    n_d2 = t * d
    if d < 0.5 and n > 140 and n_d2 >= 370.0:
        return 0.0
    if d >= 0.5 or n_d2 > 4.0 or (n > 140 and n_d2 >= 2.2):  # exact, or Miller's tail
        return float(np.clip(2 * smirnov(n, d), 0.0, 1.0))
    if n <= 140 or (n <= 100000 and n * d**1.5 <= 1.4):
        cdf = _durbin_cdf(n, d)
    else:
        cdf = _pelz_good_cdf(n, d)
    return float(np.clip(1.0 - cdf, 0.0, 1.0))


def _ks_normal_pvalue(x: np.ndarray) -> float:
    """Two-sided KS p-value of the sample `x` against N(0, 1), as ``scipy.stats.kstest``."""
    from scipy.special import ndtr

    n = x.shape[0]
    cdf = ndtr(np.sort(x))
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return _kolmogorov_sf(n, d_plus if d_plus > d_minus else d_minus)


def _skewness(x: np.ndarray) -> float:
    """Biased sample skewness m3 / m2^1.5, as ``scipy.stats.skew``; NaN at rounding-level spread."""
    mean = np.mean(x, keepdims=True)
    dev = x - mean
    m2 = np.mean(dev**2)
    m3 = np.mean(dev**2 * dev)
    if m2 <= (np.finfo(float).eps * mean[0]) ** 2:
        return float("nan")
    return float(m3 / m2**1.5)


def clt_experiment(
    realizations: PatternBatch | Sequence[PointPattern],
    win: Window,
    band: Band,
    base_f: MarkFunction,
    u: float,
    level: float = 0.95,
    center: float | None = None,
    truth: float | None = None,
    group_size: int | None = None,
) -> dict:
    """Batch inference over many independent realizations (a batch or patterns).

    Returns per-realization statistics (centered with `center`, or with
    the pooled conditional mean when None), the variance estimate, a
    Kolmogorov-Smirnov p-value of the standardized statistics against a
    fitted normal, their skewness, and, when `truth` and `group_size` are
    given, the fraction of disjoint groups whose confidence interval for
    the conditional mean covers the truth.  Needs at least 30
    realizations, since the variance estimate is a sample variance across
    them.  The p-value and the skewness are NaN when fewer than two
    statistics are defined or their spread is at rounding level.
    """
    batch = _as_batch(realizations)
    n = batch.n_realizations
    if n < 30:
        raise InputError(f"variance estimation needs >= 30 realizations, got {n}")
    s, d = threshold_sums(batch, win, band, threshold_family(base_f, u))
    c, alpha_star, s_hat, lam_hat = _reduce_sums(s, d, center, win.volume)
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = np.where(d > 0, alpha_star / np.sqrt(d), np.nan)
    finite = stat[np.isfinite(stat)]
    ks_pvalue = skewness = float("nan")
    # A spread within the rounding error of the mean, at most n ulps of
    # the largest |statistic| (identical realizations), carries no shape.
    if finite.size > 1:
        spread = np.std(finite, ddof=1)
        if spread > finite.size * np.finfo(float).eps * np.max(np.abs(finite)):
            standardized = (finite - np.mean(finite)) / spread
            ks_pvalue = _ks_normal_pvalue(standardized)
            skewness = _skewness(standardized)
    summary = {
        "n": n,
        "center": c,
        "s_hat": s_hat,
        "lambda_u_hat": lam_hat,
        "ks_pvalue": ks_pvalue,
        "skewness": skewness,
        "coverage": None,
    }
    if truth is not None and group_size:
        if group_size < 30:
            raise InputError("coverage groups need >= 30 realizations each")
        n_groups = n // group_size
        hits = 0
        for g in range(n_groups):
            sl = slice(g * group_size, (g + 1) * group_size)
            # group-local pooled centering; the point estimate is that center
            point, _, s_hat_g, lam_g = _reduce_sums(s[sl], d[sl], None, win.volume)
            lo, hi = confidence_interval(
                point, s_hat_g, lam_g, win.volume * group_size, level
            )
            hits += int(lo <= truth <= hi)
        summary["coverage"] = hits / n_groups if n_groups else None
        summary["n_groups"] = n_groups
    rows = [
        {
            "seed_index": i,
            "alpha_star": float(alpha_star[i]),
            "conditional_pairs": float(d[i]),
            "statistic": float(stat[i]) if np.isfinite(stat[i]) else float("nan"),
        }
        for i in range(n)
    ]
    return {"rows": rows, "summary": summary}
