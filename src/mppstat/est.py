"""Mean-mark estimators for single and multiple pattern realizations.

The basic statistic is the ratio of the z1-weighted pair sum of f to the
z1-weighted pair count over a distance band.  For several realizations the
per-realization ratios can be combined equally, with caller-supplied
weights, or with weights proportional to each realization's pair count;
the last choice pools all pairs across realizations and therefore targets
the pair-intensity-weighted mixture mean, while the equal average targets
the class-averaged mean.  A realization without a defined estimate is
never an exception: results carry an explicit `defined` flag.

All estimators are pure functions; multi-realization reductions run in
realization order, so results do not depend on any parallel scheduling of
the per-realization work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    Band,
    InputError,
    PatternBatch,
    PointPattern,
    SimWindow,
    Window,
    _pair_values,
    _sweep,
)
from .markfn import MarkFunction, builtin as _builtin

_CONST_ONE = _builtin("const_one")

__all__ = [
    "EstimateResult",
    "pair_sums",
    "mean_mark",
    "PairTable",
    "pair_table",
    "mean_mark_avg",
    "mean_mark_weighted",
    "mean_mark_pooled",
    "concat_patterns",
]


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of a mean-mark estimate.

    `value` is NaN iff `defined` is False (empty band, zero denominator).
    `pair_count` is the unweighted ordered-pair count, per realization for
    the multi-realization estimators.  `meta` carries diagnostics such as
    the weighted numerator/denominator, per-realization values, weights
    and the number of excluded (undefined) realizations.
    """

    value: float
    defined: bool
    pair_count: int | tuple[int, ...]
    band: Band
    meta: dict = field(default_factory=dict)


def _undefined(band: Band, pair_count, **meta) -> EstimateResult:
    return EstimateResult(float("nan"), False, pair_count, band, meta)


def mean_mark(pattern: PointPattern, win: Window, band: Band, f: MarkFunction) -> EstimateResult:
    """Weighted mean of f over ordered point pairs with displacement in the band.

    value = sum z1 f(y1, y2) / sum z1, both sums over pairs with t1 in
    [0, T].  Undefined (not an error) when the denominator is zero.  The
    caller is responsible for simulating on a window buffered by the band
    reach so that neighborhoods of [0, T] are complete.
    """
    num, den, count = pair_sums(pattern, win, band, f)
    if den == 0.0:
        return _undefined(band, count)
    return EstimateResult(num / den, True, count, band, {"numerator": num, "denominator": den})


@dataclass(frozen=True)
class PairTable:
    """Per-realization pair sums in one band, the input of every multi-realization estimator.

    Entry k of `num`, `den` and `count` holds realization k of `batch`'s
    sum of z1 f, sum of z1 and ordered pair count over its qualifying
    pairs (:func:`pair_sums` of a single pattern is its row 0);
    `n_window` is its number of points in [0, T].  `neighbors` has one
    entry per point of the batch: its number of band neighbours when it
    lies in [0, T], else 0 (what the rfvar weights read).  Realization k
    has a defined estimate iff ``den[k] != 0``.  Build one with
    :func:`pair_table`.
    """

    batch: PatternBatch
    win: Window
    band: Band
    num: np.ndarray
    den: np.ndarray
    count: np.ndarray
    n_window: np.ndarray
    neighbors: np.ndarray

    @property
    def defined(self) -> np.ndarray:
        return self.den != 0.0

    @property
    def values(self) -> np.ndarray:
        """Per-realization mean marks num / den, NaN where undefined."""
        return np.divide(self.num, self.den, out=np.full(self.num.shape, np.nan),
                         where=self.defined)

    @property
    def pair_counts(self) -> tuple[int, ...]:
        return tuple(self.count.tolist())


def _as_batch(realizations: PatternBatch | Sequence[PointPattern]) -> PatternBatch:
    if isinstance(realizations, PatternBatch):
        return realizations
    return PatternBatch.from_patterns(realizations)


def _slice_sums(values: np.ndarray, ends: np.ndarray) -> list[float]:
    """Sum of each slice ``values[ends[r]:ends[r+1]]``, as numpy sums over the slice alone."""
    return [np.add.reduce(values[a:b]) for a, b in zip(ends[:-1].tolist(), ends[1:].tolist())]


def pair_table(
    realizations: PatternBatch | Sequence[PointPattern], win: Window, band: Band,
    f: MarkFunction,
) -> PairTable:
    """Enumerate each realization's pairs in the band once and tabulate their sums.

    `realizations` is a :class:`~mppstat.core.PatternBatch` (a single
    :class:`~mppstat.core.PointPattern` included) or a sequence of
    patterns.  Each realization's sums are numpy sums over its own pairs
    in the order of a sweep over it alone, so the table is bit for bit
    the one the realizations give one at a time.  This is the one-band
    case of :func:`_pair_tables`, which tabulates several bands from one
    sweep and gives each band the same table.
    """
    return _pair_tables(realizations, win, [band], f)[0]


def _pair_tables(
    realizations: PatternBatch | Sequence[PointPattern], win: Window, bands: Sequence[Band],
    f: MarkFunction, z: np.ndarray | None = None,
) -> list[PairTable]:
    """One :func:`pair_table` per band, all from one sweep of the realizations.

    `z` is the weight-mark column, one entry per point of the batch: the
    batch's own `z` when None, or another weight such as the exceedance
    indicator of :func:`~mppstat.infer.threshold_sums` (a bool column
    sums as 0 and 1).  The tables share their `n_window` column, which
    no band changes.  This is the one reduction of :func:`_sweep`'s pairs.
    """
    batch = _as_batch(realizations)
    z = batch.z if z is None else z
    n, starts = batch.n_realizations, batch.starts
    n_window = np.zeros(n, dtype=np.int64)
    # int32: one column entry per point of the batch, and no point has 2^31 neighbors
    cols = [(np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64),
             np.zeros(starts[-1], dtype=np.int32)) for _ in bands]
    for q, k0, k1, ends, t1_ok, ii, jj in _sweep(batch, win, bands):
        a, b = starts[k0], starts[k1]
        if q == 0:
            in_win = np.concatenate(([0], np.cumsum(t1_ok)))[starts[k0:k1 + 1] - a]
            n_window[k0:k1] = in_win[1:] - in_win[:-1]
        if ii.size == 0:
            continue
        num, den, count, neighbors = cols[q]
        neighbors[a:b] = np.bincount(ii, minlength=b - a)
        vals = _pair_values(f, batch.locations[a:b], batch.y[a:b], z[a:b], ii, jj)
        z1 = z[a:b][ii]
        count[k0:k1] = ends[1:] - ends[:-1]
        num[k0:k1] = _slice_sums(z1 * vals, ends)
        den[k0:k1] = _slice_sums(z1, ends)
        del ii, jj, vals, z1, ends
    return [PairTable(batch, win, band, num, den, count, n_window, neighbors)
            for band, (num, den, count, neighbors) in zip(bands, cols)]


def pair_sums(
    pattern: PointPattern, win: Window, band: Band, f: MarkFunction
) -> tuple[float, float, int]:
    """One enumeration pass: (sum of z1 * f(y1, y2), sum of z1, ordered pair count).

    Row 0 of the pattern's :func:`pair_table`: sums over the qualifying
    ordered pairs of :func:`~mppstat.core.band_pair_indices`.  `f` must
    accept numpy arrays of first and second marks and return an array of
    values; a non-finite value is a :class:`~mppstat.core.NumericError`
    naming the offending pair.  A pattern without qualifying pairs gives
    (0.0, 0.0, 0).
    """
    table = pair_table(pattern, win, band, f)
    return float(table.num[0]), float(table.den[0]), int(table.count[0])


def mean_mark_avg(table: PairTable) -> EstimateResult:
    """Plain average of per-realization mean marks.

    Realizations with an undefined estimate are excluded and counted in
    ``meta["exclusions"]``.  This estimator weighs every realization the
    same regardless of how many pairs it contains, so on a mixture it
    targets the class-averaged mean mark.
    """
    values, defined = table.values, table.defined
    meta = {
        "per_realization": values.tolist(),
        "exclusions": int(np.sum(~defined)),
    }
    if not defined.any():
        return _undefined(table.band, table.pair_counts, **meta)
    value = float(np.mean(values[defined]))
    return EstimateResult(value, True, table.pair_counts, table.band, meta)


def mean_mark_weighted(table: PairTable, weights: Sequence[float]) -> EstimateResult:
    """Weight-normalized average of per-realization mean marks.

    Weights must be non-negative with a positive sum, and any realization
    whose estimate is undefined must carry weight zero (otherwise the call
    is an error: silently dropping weighted mass would bias the average).
    """
    values = table.values
    n = values.shape[0]
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise InputError(f"expected {n} weights, got shape {w.shape}")
    if np.any(~np.isfinite(w)) or np.any(w < 0):
        raise InputError("weights must be finite and >= 0")
    total = float(np.sum(w))
    if total == 0.0:
        raise InputError("weights sum to zero")
    undefined = ~table.defined
    if np.any(undefined & (w > 0)):
        k = int(np.nonzero(undefined & (w > 0))[0][0])
        raise InputError(f"realization {k} has an undefined estimate but weight {w[k]} > 0")
    use = w > 0
    value = float(np.sum(w[use] * values[use]) / total)
    meta = {
        "per_realization": values.tolist(),
        "weights": w.tolist(),
        "exclusions": int(np.sum(undefined)),
    }
    return EstimateResult(value, True, table.pair_counts, table.band, meta)


def mean_mark_pooled(table: PairTable) -> EstimateResult:
    """Pair-count weighted average: the estimate represented by all pairs pooled.

    Each realization is weighted by its unweighted ordered-pair count in
    the band (the per-volume normalizer is common to all realizations and
    cancels).  With unit weight marks this equals the ratio of pooled pair
    sums across realizations.  Undefined when no realization has a pair.
    """
    counts = table.count.astype(np.float64)
    if counts.sum() == 0:
        return _undefined(
            table.band,
            table.pair_counts,
            per_realization=table.values.tolist(),
            exclusions=table.batch.n_realizations,
        )
    return mean_mark_weighted(table, counts)


def concat_patterns(
    patterns: Sequence[PointPattern],
    win: Window,
    band: Band,
    weights: Sequence[float],
) -> PointPattern:
    """Lay one-dimensional realizations end to end as a single weighted pattern.

    Segments (each pattern's full simulation window, buffer included) are
    separated by a gap wider than the band reach, so no cross-realization
    pair can fall in the band.  Weight marks are rescaled so that the
    single-pattern mean mark of the concatenation, evaluated over its full
    extent, reproduces the weighted multi-realization estimate: points
    inside a segment's estimation window [0, T] get z * w_rel / a, where
    w_rel is the segment's relative weight and a its z-weighted pair count
    in the band, while buffer points get z = 0 (they still serve as
    second-of-pair partners, which is their only role).  The concatenated
    estimation window is the returned pattern's simulation window.
    """
    if not patterns:
        raise InputError("at least one pattern is required")
    if any(p.dim != 1 for p in patterns) or win.dim != 1:
        raise InputError("concatenation is only defined for d=1 patterns")
    band.require_dim(1)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(patterns),):
        raise InputError(f"expected {len(patterns)} weights, got shape {w.shape}")
    if np.any(~np.isfinite(w)) or np.any(w < 0) or w.sum() == 0:
        raise InputError("weights must be finite, >= 0, with a positive sum")
    gap = band.max_abs + 1.0
    if not np.isfinite(gap) or gap <= 0:
        raise InputError(f"cannot build a positive concatenation gap from band {band}")
    w_rel = w / w.sum()
    den = pair_table(patterns, win, band, _CONST_ONE).den
    locs, ys, zs = [], [], []
    offset = 0.0
    for k, pattern in enumerate(patterns):
        if w_rel[k] > 0:
            if den[k] == 0.0:
                raise InputError(
                    f"realization {k} has positive weight but no weighted pairs in the band"
                )
            scale = w_rel[k] / den[k]
        else:
            scale = 0.0
        x = pattern.locations[:, 0]
        in_win = win.contains(pattern.locations)
        lo_k = float(pattern.sim_window.lo[0])
        hi_k = float(pattern.sim_window.hi[0])
        locs.append(x - lo_k + offset)
        ys.append(pattern.y)
        zs.append(np.where(in_win, pattern.z * scale, 0.0))
        offset += (hi_k - lo_k) + gap
    cat = np.concatenate(locs)
    # the shifted coordinates round differently than the running offset,
    # so anchor the window on the realized support
    total_extent = max(offset - gap, float(cat.max()) if cat.size else 0.0, 1e-9)
    window = SimWindow(np.zeros(1), np.array([total_extent]))
    return PointPattern(cat, np.concatenate(ys), np.concatenate(zs), window)

