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
``rfvar`` reads each realization's conditional variance, which the
caller passes in.  :func:`conditional_variances` computes that column
for a batch, a list of patterns or a stream of blocks, from each block's
per-point neighbour counts while the block is alive; a run that also
needs the tables gets both from one sweep.
Callers with weights of their own pass them to
:func:`~mppstat.est.mean_mark_weighted`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import Band, InputError, PatternBatch, PointPattern, Window
from .est import PairTable, Realizations, _pair_tables
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
    counts = []
    _pair_tables(pattern, win, [band], builtin("const_one"),
                 visit=lambda block, neighbors: counts.append(neighbors[0]))
    return counts[0]


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
    return float(conditional_variances(pattern, win, band, cov)[0])


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


def _variance_visitor(keys: Iterable[tuple[int, Callable[[np.ndarray], np.ndarray]]]):
    """A `visit` hook of the pair sweep that collects conditional variances, and its columns.

    Returns ``(visit, columns)``.  For each ``(q, cov)`` of `keys`,
    ``columns[(q, cov)]`` is a list that `visit` extends, block after
    block, with each realization's :func:`mean_mark_conditional_variance`
    in band q under `cov` (NaN where undefined), read from the block's
    neighbour counts with no second pair enumeration.  Pass `visit` to
    :func:`~mppstat.est._pair_tables`.  Each `cov` is checked here,
    before the sweep.
    """
    columns = {key: [] for key in keys}
    for _, cov in columns:
        _check_cov(cov)

    def visit(block: PatternBatch, neighbors: list[np.ndarray]) -> None:
        bounds = list(zip(block.starts[:-1].tolist(), block.starts[1:].tolist()))
        for (q, cov), column in columns.items():
            column.extend(_conditional_variance(block.locations[a:b], neighbors[q][a:b], cov)
                          for a, b in bounds)

    return visit, columns


def conditional_variances(
    realizations: Realizations, win: Window, band: Band, cov: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Each realization's :func:`mean_mark_conditional_variance` under `cov`, NaN where undefined.

    `realizations` is anything :func:`~mppstat.est.pair_table` takes: a
    batch, a sequence of patterns or an iterator of blocks.  One sweep
    of :func:`_variance_visitor` computes the column.
    """
    visit, columns = _variance_visitor([(0, cov)])
    _pair_tables(realizations, win, [band], builtin("const_one"), visit=visit)
    return np.array(columns[0, cov])


def compute_weights(
    strategy: WeightStrategy, table: PairTable, variances: Sequence[float] | None = None
) -> np.ndarray:
    """Evaluate a weight strategy on the realizations of a pair table.

    All strategies return finite non-negative weights: ``equal`` ones,
    ``alpha`` and ``count`` the table's pair and point counts per unit
    window volume, and ``rfvar`` the reciprocal conditional variance.
    rfvar needs `variances`, one :func:`conditional_variances` entry per
    realization of the table (an InputError when None).  It assigns
    weight zero (with a warning that names the realization's index in
    the table) to realizations whose conditional variance is undefined
    because they have no qualifying pairs.
    """
    n, volume = table.n_realizations, table.win.volume
    if strategy.kind == "equal":
        return np.ones(n)
    if strategy.kind == "alpha":
        return table.count / volume
    if strategy.kind == "count":
        return table.n_window / volume
    if variances is None:
        raise InputError("rfvar weights need the realizations' conditional_variances")
    variances = np.asarray(variances, dtype=np.float64)
    if variances.shape != (n,):
        raise InputError(f"expected {n} conditional variances, got shape {variances.shape}")
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
