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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    Band,
    InputError,
    PointPattern,
    SimWindow,
    Window,
    band_pair_indices,
    pair_sums,
    _pair_values,
    _pairs_sorted_1d,
    _row_displacements,
    _t1_mask,
)
from .markfn import MarkFunction, builtin as _builtin

_CONST_ONE = _builtin("const_one")

__all__ = [
    "EstimateResult",
    "mean_mark",
    "mean_mark_cond",
    "mean_mark_kernel",
    "PairTable",
    "pair_table",
    "mean_mark_avg",
    "mean_mark_weighted",
    "mean_mark_pooled",
    "concat_patterns",
    "KERNELS",
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


def mean_mark_cond(
    pattern: PointPattern,
    win: Window,
    band: Band,
    f: MarkFunction,
    f_cond: MarkFunction,
) -> EstimateResult:
    """Mean of f over pairs, reweighted by a non-negative conditioning function.

    value = sum z1 f*f_cond / sum z1 f_cond.  With f_cond == 1 this equals
    :func:`mean_mark` exactly; an indicator f_cond restricts the pair
    population to mark events.
    """
    ii, jj = band_pair_indices(pattern, win, band)
    count = int(ii.size)
    if count == 0:
        return _undefined(band, count)
    y1, y2 = pattern.y[ii], pattern.y[jj]
    cond = np.asarray(f_cond(y1, y2), dtype=np.float64)
    if np.any(cond < 0):
        raise InputError(f"conditioning function {f_cond.name!r} must be non-negative")
    z1 = pattern.z[ii]
    num = float(np.sum(z1 * np.asarray(f(y1, y2), dtype=np.float64) * cond))
    den = float(np.sum(z1 * cond))
    if den == 0.0:
        return _undefined(band, count)
    return EstimateResult(num / den, True, count, band, {"numerator": num, "denominator": den})


KERNELS = ("rectangular", "epanechnikov", "gaussian")


def mean_mark_kernel(
    pattern: PointPattern,
    win: Window,
    r: float,
    f: MarkFunction,
    kernel: str = "rectangular",
    bandwidth: float = None,
) -> EstimateResult:
    """Kernel-smoothed mean mark at a target displacement r.

    value = sum z1 f(y1,y2) K((r - d)/h) / sum z1 K((r - d)/h) over ordered
    pairs, with d the pair displacement.  Kernels are unnormalized, which
    leaves the ratio unchanged.  The rectangular kernel is evaluated by an
    exact band query on [r-h, r+h], so it reproduces :func:`mean_mark` on
    that band bit for bit.  The gaussian kernel has full support: every
    pair contributes, however far from r (which is also its hazard).
    """
    if kernel not in KERNELS:
        raise InputError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    if bandwidth is None or not np.isfinite(bandwidth) or bandwidth <= 0:
        raise InputError(f"bandwidth must be finite and > 0, got {bandwidth}")
    h = float(bandwidth)
    signed = pattern.dim == 1
    if kernel == "gaussian":
        lo = -math.inf if signed else 0.0
        query = Band(lo, math.inf, signed=signed)
    else:
        lo = r - h
        if not signed:
            lo = max(lo, 0.0)
        query = Band(lo, r + h, signed=signed)
    ii, jj = band_pair_indices(pattern, win, query)
    count = int(ii.size)
    meta = {"kernel": kernel, "bandwidth": h, "r": float(r)}
    if count == 0:
        return _undefined(query, count, **meta)
    if kernel == "rectangular":
        w = np.ones(count)
    else:
        d = _row_displacements(pattern.locations[ii], pattern.locations[jj])
        u = (r - d) / h
        w = np.exp(-0.5 * u * u) if kernel == "gaussian" else np.maximum(1.0 - u * u, 0.0)
    vals = np.asarray(f(pattern.y[ii], pattern.y[jj]), dtype=np.float64)
    z1 = pattern.z[ii]
    num = float(np.sum(z1 * vals * w))
    den = float(np.sum(z1 * w))
    if den == 0.0:
        return _undefined(query, count, **meta)
    meta["denominator"] = den
    return EstimateResult(num / den, True, count, query, meta)


@dataclass(frozen=True)
class PairTable:
    """Per-realization pair sums in one band, the input of every multi-realization estimator.

    Entry k of `num`, `den` and `count` holds :func:`~mppstat.core.pair_sums`
    of realization k (sum z1 f, sum z1, ordered pair count); `n_window` is
    its number of points in [0, T].  Realization k has a defined estimate
    iff ``den[k] != 0``.  Build one with :func:`pair_table`.
    """

    patterns: tuple[PointPattern, ...]
    win: Window
    band: Band
    num: np.ndarray
    den: np.ndarray
    count: np.ndarray
    n_window: np.ndarray

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


# Points per block of the 1-D sweep in pair_table: blocks amortize the
# per-call cost of the sweep over small realizations while their candidate
# arrays stay small.  A larger realization forms a block of its own.
_BLOCK_POINTS = 2048


def pair_table(
    patterns: Sequence[PointPattern], win: Window, band: Band, f: MarkFunction
) -> PairTable:
    """Enumerate each realization's pairs in the band once and tabulate their sums.

    In d = 1 consecutive realizations are swept together, in blocks of at
    most ``_BLOCK_POINTS`` points; the table is bit for bit the one that
    :func:`~mppstat.core.pair_sums` gives realization by realization.
    """
    if not patterns:
        raise InputError("at least one realization is required")
    patterns = tuple(patterns)
    if win.dim == 1 and band.signed and all(p.dim == 1 for p in patterns):
        return PairTable(patterns, win, band, *_sums_1d(patterns, float(win.t[0]), band, f))
    sums = [pair_sums(p, win, band, f) for p in patterns]
    num, den, count = (np.array(col) for col in zip(*sums))
    n_window = np.array([np.count_nonzero(_t1_mask(p, win)) for p in patterns])
    return PairTable(patterns, win, band, num, den, count, n_window)


def _blocks(n_points: np.ndarray):
    """Consecutive (first, stop) realization ranges of at most _BLOCK_POINTS points each."""
    first, size = 0, 0
    for k, n in enumerate(n_points.tolist()):
        if k > first and size + n > _BLOCK_POINTS:
            yield first, k
            first, size = k, 0
        size += n
    yield first, len(n_points)


def _sums_1d(patterns: tuple[PointPattern, ...], t: float, band: Band, f: MarkFunction):
    """(num, den, count, n_window) columns of 1-D realizations, one sweep per block."""
    n_points = np.array([p.n_points for p in patterns], dtype=np.int64)
    num, den = np.zeros(len(patterns)), np.zeros(len(patterns))
    count, n_window = np.zeros_like(n_points), np.zeros_like(n_points)
    for k0, k1 in _blocks(n_points):
        block = patterns[k0:k1]
        starts = np.concatenate(([0], np.cumsum(n_points[k0:k1])))
        x = np.concatenate([p.locations[:, 0] for p in block])
        t1_ok = (x >= 0.0) & (x <= t)
        in_win = np.concatenate(([0], np.cumsum(t1_ok)))
        n_window[k0:k1] = np.diff(in_win[starts])
        ii, jj = _pairs_sorted_1d(x, starts, t1_ok, band)
        if ii.size == 0:
            continue

        def locate(i, j):
            r = int(np.searchsorted(starts, i, side="right")) - 1
            return block[r], i - starts[r], j - starts[r]

        y = np.concatenate([p.y for p in block])
        vals = _pair_values(f, y, ii, jj, locate)
        z1 = np.concatenate([p.z for p in block])[ii]
        z1f = z1 * vals
        # pairs are grouped by realization: i ascends; each realization's
        # sums are numpy sums over its own slice, as pair_sums takes them
        ends = np.searchsorted(ii, starts)
        count[k0:k1] = np.diff(ends)
        for k, a, b in zip(range(k0, k1), ends[:-1].tolist(), ends[1:].tolist()):
            num[k] = z1f[a:b].sum()
            den[k] = z1[a:b].sum()
    return num, den, count, n_window


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
            exclusions=len(table.patterns),
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
    locs, ys, zs = [], [], []
    offset = 0.0
    for k, pattern in enumerate(patterns):
        if w_rel[k] > 0:
            _, den, _ = pair_sums(pattern, win, band, _CONST_ONE)
            if den == 0.0:
                raise InputError(
                    f"realization {k} has positive weight but no weighted pairs in the band"
                )
            scale = w_rel[k] / den
        else:
            scale = 0.0
        x = pattern.locations[:, 0]
        in_win = (x >= 0.0) & (x <= win.t[0])
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

