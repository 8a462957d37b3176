"""Weight strategies for combining per-realization mean-mark estimates.

Shipped strategies:

* ``equal`` - every realization weighs the same.
* ``alpha`` - weight by the realization's ordered-pair count in the band
  per unit window volume; combined with the weighted estimator this pools
  all pairs across realizations.
* ``count`` - weight by the realization's point count in [0, T] per unit
  window volume; for regularly spaced locations with iid marks these are
  the variance-minimizing weights (the estimator variance given the
  locations scales like 1/N).
* ``rfvar`` - weight by the reciprocal of the estimator's conditional
  variance given the point locations, computed from a known mark
  covariance model; the general variance-minimizing choice when marks are
  independent of locations.

Strategies are evaluated on a :class:`~mppstat.est.PairTable`, whose pair
and point counts the ``alpha`` and ``count`` strategies read directly.
Callers with weights of their own pass them to
:func:`~mppstat.est.mean_mark_weighted`.

Also provides the best-linear-unbiased (inverse covariance) weights for
averaging correlated observations with a common mean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Band, InputError, PointPattern, Window, band_pair_indices
from .est import PairTable
from .sim import banded_covariance

__all__ = [
    "WEIGHT_KINDS",
    "WeightStrategy",
    "compute_weights",
    "mean_mark_conditional_variance",
    "blue_weights",
    "neighbor_counts",
]

WEIGHT_KINDS = ("equal", "alpha", "count", "rfvar")


@dataclass(frozen=True)
class WeightStrategy:
    """Selection of a realization-weighting rule.

    ``rfvar`` requires `cov` (vectorized covariance of the transformed
    marks as a function of non-negative distance, preferably a
    :class:`~mppstat.sim.Covariance`, whose range keeps the variance
    banded).
    """

    kind: str
    cov: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise InputError(
                f"unknown weight strategy {self.kind!r}; expected one of {WEIGHT_KINDS}"
            )
        if self.kind == "rfvar" and self.cov is None:
            raise InputError("rfvar strategy needs cov")


def neighbor_counts(pattern: PointPattern, win: Window, band: Band) -> np.ndarray:
    """Number of band neighbors of each in-window point.

    Entry for a point t counts the other points t2 with displacement from
    t in the band, t2 anywhere in the simulation window.  Points outside
    [0, T] get count zero.
    """
    ii, _ = band_pair_indices(pattern, win, band)
    counts = np.zeros(pattern.n_points, dtype=np.int64)
    if ii.size:
        np.add.at(counts, ii, 1)
    return counts


def mean_mark_conditional_variance(
    pattern: PointPattern,
    win: Window,
    band: Band,
    cov: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Variance of the mean-mark estimator given the point locations.

    For marks independent of locations with Cov[f(Y(t)), f(Y(s))] given by
    `cov` of the distance, the estimator (all z = 1, f of the first mark)
    conditionally on the locations has variance

        sum_{t,s in [0,T]} cov(|t-s|) n(t) n(s) / (sum_t n(t))^2,

    where n(t) is the band-neighbor count of t.  Returns NaN when no
    in-window point has a neighbor (the estimate itself is undefined).
    `cov(0)`, the mark variance, must be finite and >= 0.  With a
    :class:`~mppstat.sim.Covariance` the sum runs over pairs within its
    `cov_range` only, in O(n b) for b the most neighbours any point has
    within the range in the first coordinate; a plain callable without a
    `cov_range` is summed over all pairs, in O(n^2), since its b is n - 1.
    Either way n b^2 is capped at ``FIELD_BAND_BUDGET`` (an InputError
    above it), which holds a callable without a `cov_range` to about 1000
    active points.
    """
    c0 = float(np.asarray(cov(np.zeros(1)))[0])
    if not np.isfinite(c0) or c0 < 0:
        raise InputError(f"cov(0) must be finite and >= 0, got {c0!r}")
    counts = neighbor_counts(pattern, win, band)
    active = counts > 0
    total = float(counts.sum())
    if total == 0.0:
        return float("nan")
    # n' C n over the diagonals of the banded (symmetric) covariance
    reach = getattr(cov, "cov_range", np.inf)
    order, ab = banded_covariance(pattern.locations[active], cov, reach)
    w = counts[active][order].astype(np.float64)
    quad = float(ab[0] @ (w * w))
    for k in range(1, ab.shape[0]):
        quad += 2.0 * float(ab[k, : w.size - k] @ (w[: w.size - k] * w[k:]))
    return quad / (total * total)


def compute_weights(strategy: WeightStrategy, table: PairTable) -> np.ndarray:
    """Evaluate a weight strategy on the realizations of a pair table.

    All strategies return finite non-negative weights.  The rfvar strategy
    assigns weight zero (with a warning) to realizations whose conditional
    variance is undefined because they have no qualifying pairs.
    """
    patterns, win, band = table.patterns, table.win, table.band
    n = len(patterns)
    if strategy.kind == "equal":
        return np.ones(n)
    if strategy.kind == "alpha":
        return table.count / win.volume
    if strategy.kind == "count":
        return table.n_window / win.volume
    out = np.empty(n)
    for k, p in enumerate(patterns):
        v = mean_mark_conditional_variance(p, win, band, strategy.cov)
        if not np.isfinite(v) or v <= 0.0:
            warnings.warn(
                f"realization {k}: conditional variance undefined or zero; weight set to 0",
                stacklevel=2,
            )
            out[k] = 0.0
        else:
            out[k] = 1.0 / v
    return out


def blue_weights(cov_matrix: np.ndarray) -> np.ndarray:
    """Minimum-variance unbiased weights for averaging correlated observations.

    Solves for w proportional to Sigma^{-1} 1 and renormalizes so the
    weights sum to one; this minimizes w' Sigma w subject to sum(w) = 1.
    The matrix must be symmetric positive definite.
    """
    import scipy.linalg

    sigma = np.asarray(cov_matrix, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise InputError(f"covariance matrix must be square, got shape {sigma.shape}")
    if not np.all(np.isfinite(sigma)):
        raise InputError("covariance matrix must be finite")
    if not np.allclose(sigma, sigma.T, rtol=1e-12, atol=0.0):
        raise InputError("covariance matrix must be symmetric")
    try:
        factor = scipy.linalg.cho_factor(sigma, lower=True)
    except np.linalg.LinAlgError as exc:
        raise InputError(f"covariance matrix is not positive definite: {exc}") from exc
    w = scipy.linalg.cho_solve(factor, np.ones(sigma.shape[0]))
    return w / np.sum(w)
