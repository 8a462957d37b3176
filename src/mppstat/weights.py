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
``rfvar`` reads each realization's conditional variance, computed from a
batch's table and its per-point neighbor counts by
:func:`conditional_variances`; a run that streams its blocks computes them
for each block while the block is alive and passes them in.
Callers with weights of their own pass them to
:func:`~mppstat.est.mean_mark_weighted`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Band, InputError, PointPattern, Window
from .est import PairTable, pair_table
from .markfn import builtin
from .sim import banded_covariance

__all__ = [
    "WEIGHT_KINDS",
    "WeightStrategy",
    "compute_weights",
    "conditional_variances",
    "mean_mark_conditional_variance",
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
    return pair_table(pattern, win, band, builtin("const_one")).neighbors


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
    _check_cov(cov)
    return _conditional_variance(pattern.locations, neighbor_counts(pattern, win, band), cov)


def _check_cov(cov) -> None:
    c0 = float(np.asarray(cov(np.zeros(1)))[0])
    if not np.isfinite(c0) or c0 < 0:
        raise InputError(f"cov(0) must be finite and >= 0, got {c0!r}")


def _conditional_variance(locations: np.ndarray, counts: np.ndarray, cov) -> float:
    """The variance of :func:`mean_mark_conditional_variance` from per-point neighbor counts."""
    active = counts > 0
    total = float(counts.sum())
    if total == 0.0:
        return float("nan")
    # n' C n over the diagonals of the banded (symmetric) covariance
    reach = getattr(cov, "cov_range", np.inf)
    order, ab = banded_covariance(locations[active], cov, reach)
    w = counts[active][order].astype(np.float64)
    quad = float(ab[0] @ (w * w))
    for k in range(1, ab.shape[0]):
        quad += 2.0 * float(ab[k, : w.size - k] @ (w[: w.size - k] * w[k:]))
    return quad / (total * total)


def conditional_variances(table: PairTable, cov: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Each realization's :func:`mean_mark_conditional_variance` under `cov`, NaN where undefined.

    Read from the table's batch and per-point neighbour counts, with no
    second pair enumeration; a table of a stream of blocks has neither,
    so a run computes each block's column while the block's table holds
    them.
    """
    _check_cov(cov)
    batch = table.batch
    if batch is None:
        raise InputError("conditional variances need the pair table of a batch")
    return np.array([_conditional_variance(batch.locations[a:b], table.neighbors[a:b], cov)
                     for a, b in zip(batch.starts[:-1].tolist(), batch.starts[1:].tolist())])


def compute_weights(
    strategy: WeightStrategy, table: PairTable, variances: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate a weight strategy on the realizations of a pair table.

    All strategies return finite non-negative weights: ``equal`` ones,
    ``alpha`` and ``count`` the table's pair and point counts per unit
    window volume, and ``rfvar`` the reciprocal conditional variance.
    rfvar reads `variances`, one :func:`conditional_variances` entry per
    realization of the table, or computes them from the table's batch
    when None.  The rfvar strategy assigns weight zero (with a warning
    that names the realization's index in the table) to realizations
    whose conditional variance is undefined because they have no
    qualifying pairs.
    """
    n, volume = table.n_realizations, table.win.volume
    if strategy.kind == "equal":
        return np.ones(n)
    if strategy.kind == "alpha":
        return table.count / volume
    if strategy.kind == "count":
        return table.n_window / volume
    if variances is None:
        variances = conditional_variances(table, strategy.cov)
    elif np.shape(variances) != (n,):
        raise InputError(f"expected {n} conditional variances, got shape {np.shape(variances)}")
    out = np.empty(n)
    for k, v in enumerate(variances.tolist()):
        if not np.isfinite(v) or v <= 0.0:
            warnings.warn(
                f"realization {k}: conditional variance undefined or zero; weight set to 0",
                stacklevel=2,
            )
            out[k] = 0.0
        else:
            out[k] = 1.0 / v
    return out
