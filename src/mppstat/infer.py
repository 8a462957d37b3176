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
from scipy import stats

from .core import Band, InputError, PointPattern, Window, band_pair_indices
from .markfn import MarkFunction, ThresholdFamily, threshold_family
from .est import mean_mark

__all__ = ["confidence_interval", "convergence_curve", "clt_experiment"]


def _threshold_sums(
    pattern: PointPattern, win: Window, band: Band, family: ThresholdFamily
) -> tuple[float, float]:
    """(sum of excess(y1), sum of indicator(y1)) over qualifying pairs."""
    if pattern.dim != 1:
        raise InputError("inference is defined for d=1 patterns only")
    ii, _ = band_pair_indices(pattern, win, band)
    if ii.size == 0:
        return 0.0, 0.0
    y1 = pattern.y[ii]
    return float(np.sum(family.excess(y1))), float(np.sum(family.indicator(y1)))


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
    if not 0.0 < level < 1.0:
        raise InputError(f"level must be in (0, 1), got {level}")
    if not np.isfinite(lambda_u_hat) or lambda_u_hat <= 0:
        raise InputError(f"pair rate must be > 0, got {lambda_u_hat}")
    if not np.isfinite(s_hat) or s_hat < 0:
        raise InputError(f"variance estimate must be >= 0, got {s_hat}")
    q = stats.norm.ppf(0.5 * (1.0 + level))
    half = q * np.sqrt(s_hat / (lambda_u_hat * t_extent))
    return float(mu_point - half), float(mu_point + half)


def convergence_curve(
    pattern: PointPattern,
    band: Band,
    f: MarkFunction,
    extents: Sequence[float],
) -> list[tuple[float, float]]:
    """Mean mark on nested windows [0, T_k] for an increasing sequence of T_k.

    Under ergodicity the curve settles at the process mean mark; on a
    mixture realization it settles at the realized class's value.
    Undefined entries are flagged with NaN.
    """
    ext = [float(t) for t in extents]
    if any(b <= a for a, b in zip(ext, ext[1:])):
        raise InputError("window extents must be strictly increasing")
    out = []
    for t in ext:
        res = mean_mark(pattern, Window(np.full(pattern.dim, t)), band, f)
        out.append((t, res.value if res.defined else float("nan")))
    return out


def clt_experiment(
    patterns: Sequence[PointPattern],
    win: Window,
    band: Band,
    base_f: MarkFunction,
    u: float,
    level: float = 0.95,
    center: float | None = None,
    truth: float | None = None,
    group_size: int | None = None,
) -> dict:
    """Batch inference over many independent realizations.

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
    n = len(patterns)
    if n < 30:
        raise InputError(f"variance estimation needs >= 30 realizations, got {n}")
    family = threshold_family(base_f, u)
    sums = np.array([_threshold_sums(p, win, band, family) for p in patterns])
    s, d = sums[:, 0], sums[:, 1]
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
            ks_pvalue = float(stats.kstest(standardized, "norm").pvalue)
            skewness = float(stats.skew(standardized))
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
