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
from collections.abc import Callable, Iterator, Sequence
from typing import Union

import numpy as np

from .core import (
    Band,
    InputError,
    PatternBatch,
    PointPattern,
    SimWindow,
    Window,
    _Ranges,
    _pair_values,
    _sweep,
)
from .markfn import FIRST_ONLY, MarkFunction, builtin as _builtin

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

    Entry k of `num`, `den` and `count` holds realization k's sum of
    z1 f, sum of z1 and ordered pair count over its qualifying pairs
    (:func:`pair_sums` of a single pattern is its row 0); `n_window` is
    its number of points in [0, T].  The realization count is the length
    of these columns.  Realization k has a defined estimate iff
    ``den[k] != 0``.  Build one with :func:`pair_table`.
    """

    win: Window
    band: Band
    num: np.ndarray
    den: np.ndarray
    count: np.ndarray
    n_window: np.ndarray

    @property
    def n_realizations(self) -> int:
        return self.num.shape[0]

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


Realizations = Union[PatternBatch, Sequence[PointPattern], Iterator[PatternBatch]]


def _slice_sums(values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Sum of each slice ``values[ends[r]:ends[r+1]]``, as numpy sums over the slice alone."""
    return np.array([np.add.reduce(values[a:b])
                     for a, b in zip(ends[:-1].tolist(), ends[1:].tolist())])


def pair_table(realizations: Realizations, win: Window, band: Band, f: MarkFunction) -> PairTable:
    """Enumerate each realization's pairs in the band once and tabulate their sums.

    `realizations` is a :class:`~mppstat.core.PatternBatch` (a single
    :class:`~mppstat.core.PointPattern` included), a sequence of
    patterns, or an iterator of batches, such as
    :func:`~mppstat.sim.sample_blocks`, whose realizations follow each
    other.  Each realization's sums are numpy sums over its own pairs in
    the order of a sweep over it alone, so the table is bit for bit the
    one the realizations give one at a time.  This is the one-band case
    of :func:`_pair_tables`, which tabulates several bands from one sweep
    and gives each band the same table.
    """
    return _pair_tables(realizations, win, [band], f)[0]


def _pair_tables(
    realizations: Realizations, win: Window, bands: Sequence[Band], f: MarkFunction,
    weight: Callable[[PatternBatch], np.ndarray] | None = None,
    visit: Callable[[PatternBatch, list[np.ndarray]], None] | None = None,
) -> list[PairTable]:
    """One :func:`pair_table` per band, all from one sweep of the realizations, a block at a time.

    An iterator of batches is a stream of blocks, and a batch or a
    sequence of patterns is a stream of one block; a stream without a
    realization is an InputError.  Each block is reduced by
    :func:`_sweep`'s partners to its per-realization columns and
    dropped, and each band's table joins its columns end to end.  A
    first-only `f` is evaluated once per point in [0, T] and summed over
    each point's partner range without building a pair: the
    realization's values repeated, point after point, are the values of
    its pairs in sweep order, which in d > 1 is (i, j) order.  Other
    mark functions are summed over the pairs.
    `weight` gives a block's weight-mark column, one entry per point:
    the block's own `z` when None, or another weight such as the
    exceedance indicator of :func:`~mppstat.infer.threshold_sums` (a
    bool column sums as 0 and 1).  `visit(block, neighbors)` is called
    with each block before it is dropped: ``neighbors[q]`` holds each of
    its points' number of neighbours in ``bands[q]`` when the point lies
    in [0, T], else 0.
    """
    if not isinstance(realizations, Iterator):
        realizations = iter((realizations if isinstance(realizations, PatternBatch)
                             else PatternBatch.from_patterns(realizations),))
    n_window, cols = [], [([], [], []) for _ in bands]
    for block in realizations:
        z = block.z if weight is None else weight(block)
        starts = block.starts
        # int32: one entry per point of the block, and no point has 2^31 neighbors
        neighbors = [np.zeros(starts[-1], dtype=np.int32) for _ in bands] if visit else None
        for k0, k1, first, hoods in _sweep(block, win, bands):
            a, b = starts[k0], starts[k1]
            points = block.locations[a:b], block.y[a:b], z[a:b]
            in_win = np.searchsorted(first, starts[k0:k1 + 1] - a)
            n_window.append(in_win[1:] - in_win[:-1])
            terms = None
            for q, hood in enumerate(hoods):
                # each realization's pairs, from the points in [0, T] before it
                ends = np.concatenate(([0], np.cumsum(hood.count)))[in_win]
                if visit:
                    neighbors[q][a:b][first] = hood.count
                if ends[-1] == 0:
                    sums = (np.zeros(k1 - k0),) * 2
                elif f.arity == FIRST_ONLY:
                    terms = terms or _first_values(f, points, first)
                    sums = _range_sums(f, points, hood, in_win, ends, terms)
                else:
                    # these pairs replace the last band's only once built: freeing
                    # those first let malloc trim and regrow the heap at every band
                    pairs = hood.pairs()
                    sums = _sums_over_pairs(f, points, pairs, ends)
                num, den, count = cols[q]
                num.append(sums[0])
                den.append(sums[1])
                count.append(ends[1:] - ends[:-1])
                del hood  # a kd-tree's partners in one band are freed before the next query
        if visit:
            visit(block, neighbors)
        del block, z, neighbors  # no block outlives its reduction
    if not n_window:
        raise InputError("at least one realization is required")
    n_window = np.concatenate(n_window)
    return [PairTable(win, band, np.concatenate(num, dtype=np.float64),
                      np.concatenate(den, dtype=np.float64), np.concatenate(count), n_window)
            for band, (num, den, count) in zip(bands, cols)]


def _sums_over_pairs(f: MarkFunction, points, pairs, ends: np.ndarray) -> tuple:
    """Each realization's (sum of z1 f, sum of z1) over its pairs ``ends[r]:ends[r+1]``."""
    ii, jj = pairs
    vals = _pair_values(f, *points, ii, jj)
    z1 = points[2][ii]
    return _slice_sums(z1 * vals, ends), _slice_sums(z1, ends)


def _first_values(f: MarkFunction, points, first: np.ndarray) -> tuple:
    """The per-point terms of a block's points in [0, T], for :func:`_range_sums`.

    Returns z1, z1 f(y1), where f(y1) is not finite (None if nowhere),
    and whether every z1 is 0/1 or 1.0, so that a sum of z1 is an exact
    integer in every order.
    """
    _, y, z = points
    z1, y1 = z[first], y[first]
    vals = f(y1, y1)
    bad = ~np.isfinite(vals)
    exact = z1.dtype == bool or (z1 == 1.0).all()
    if not bad.any():
        return z1, z1 * vals, None, exact
    with np.errstate(invalid="ignore"):  # 0 * inf, which no sum reads: the point raises first
        return z1, z1 * vals, bad, exact


def _range_sums(f, points, hood: _Ranges, in_win, ends, terms) -> tuple:
    """Each realization's (sum of z1 f, sum of z1) over its pairs, from the exact ranges of `hood`.

    The sums run over each point's term repeated once per partner,
    point after point: the terms and the order of the sum over the
    pairs.  A sum of 0/1 or unit weights is summed as the exact integer
    it is in every order.  A non-finite f of a point with a partner
    raises as the sum over the pairs does, naming its first pair.
    """
    z1, zf, bad, exact = terms
    count = hood.count
    if bad is not None and (count[bad] > 0).any():
        _pair_values(f, *points, *hood.pairs())
    num = _slice_sums(np.repeat(zf, count), ends)
    if exact:
        cum = np.concatenate(([0], np.cumsum(count * z1)))[in_win]
        return num, cum[1:] - cum[:-1]
    return num, _slice_sums(np.repeat(z1, count), ends)


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
            exclusions=table.n_realizations,
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

