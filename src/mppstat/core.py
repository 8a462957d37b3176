"""Point-pattern data model, window geometry, distance bands and pair enumeration.

Every estimator in this package reduces to sums over ordered point pairs
(p1, p2), p1 != p2, where p1 lies in an estimation window [0, T] and the
displacement from p1 to p2 falls in a distance band.  For patterns on the
real line the displacement is signed (t2 - t1); in higher dimensions the
Euclidean distance ||t2 - t1|| is used.

All objects are immutable (arrays are frozen) and all operations are pure
functions of their inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "MppstatError",
    "InputError",
    "NumericError",
    "UnsupportedSpecError",
    "SimWindow",
    "PointPattern",
    "PatternBatch",
    "Window",
    "Band",
    "band_pair_indices",
    "band_pair_indices_naive",
    "translate",
    "buffered_window",
    "write_pattern_csv",
    "read_pattern_csv",
]


class MppstatError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MppstatError, ValueError):
    """An argument violates a documented precondition."""


class NumericError(MppstatError, ArithmeticError):
    """A computation produced or encountered a non-finite value."""


class UnsupportedSpecError(MppstatError):
    """A closed-form route does not exist for the requested model."""


def _freeze(a) -> np.ndarray:
    """`a` as a read-only C-ordered float64 array that no one can write to.

    An array that is read-only, and views only read-only memory, is taken
    as it is.  Anything else is copied, so a caller's writeable array
    stays writeable and its later writes never reach the copy.
    """
    base = getattr(a, "base", None)
    shared = (isinstance(a, np.ndarray) and not a.flags.writeable
              and (base is None or isinstance(base, np.ndarray) and not base.flags.writeable))
    a = (np.asarray if shared else np.array)(a, dtype=np.float64, order="C")
    a.flags.writeable = False
    return a


def _concat_frozen(parts) -> np.ndarray:
    """The concatenation of `parts`, read-only, so that a batch takes it without a copy."""
    a = np.concatenate(parts)
    a.flags.writeable = False
    return a


def _reject_bools(params: dict, owner: str) -> None:
    """Refuse a JSON true or false as a parameter, or in a list one: Python reads it as 1 or 0."""
    for name, value in params.items():
        if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
            raise InputError(f"{owner}: parameter {name!r} must not be a bool, got {value!r}")


def _floats(params: dict, owner: str) -> dict:
    """`params` with every value a float, refusing a bool as :func:`_reject_bools` does.

    Specs store their numbers this way, so 1 and 1.0 make one spec (and one digest).
    """
    _reject_bools(params, owner)
    return {name: float(value) for name, value in params.items()}


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimWindow:
    """Axis-aligned simulation box; the region on which a pattern is fully observed."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=np.float64))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise InputError("window bounds must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InputError("window bounds must be finite")
        if np.any(lo > hi):
            raise InputError(f"window has lo > hi: {lo} / {hi}")
        object.__setattr__(self, "lo", _freeze(lo))
        object.__setattr__(self, "hi", _freeze(hi))

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int) -> "SimWindow":
        return cls(np.full(dim, float(lo)), np.full(dim, float(hi)))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def volume(self) -> float:
        # in Python floats an extent beyond the float range is inf, without a warning
        return math.prod(h - l for l, h in zip(self.lo.tolist(), self.hi.tolist()))

    def contains(self, locations: np.ndarray) -> np.ndarray:
        """Boolean mask: rows of `locations` inside the closed box."""
        pts = np.atleast_2d(locations)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)

    def shifted(self, x: np.ndarray) -> "SimWindow":
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return SimWindow(self.lo - x, self.hi - x)


@dataclass(frozen=True)
class Window:
    """Estimation window [0, T] with T > 0 componentwise."""

    t: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.t, dtype=np.float64))
        if t.ndim != 1:
            raise InputError("window extent must be a scalar or 1-d sequence")
        if not np.all(np.isfinite(t)) or np.any(t <= 0):
            raise InputError(f"window extent must be finite and > 0, got {t}")
        object.__setattr__(self, "t", _freeze(t))

    @property
    def dim(self) -> int:
        return self.t.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.t))

    def box(self) -> SimWindow:
        return SimWindow(np.zeros(self.dim), self.t)

    def contains(self, locations: np.ndarray) -> np.ndarray:
        """Boolean mask: rows of `locations` (shape (n, dim)) inside [0, T].

        This is the one place that decides which points may be first of
        a pair.
        """
        if locations.shape[1] != self.dim:
            raise InputError(f"window dim {self.dim} != pattern dim {locations.shape[1]}")
        return ((locations >= 0.0) & (locations <= self.t)).all(axis=1)


@dataclass(frozen=True)
class Band:
    """A distance band [lo, hi], closed at both ends.

    For one-dimensional patterns the band is signed and membership means
    t2 - t1 in [lo, hi]; a negative displacement points into the past.
    For d > 1 the band is unsigned (lo >= 0) and membership means
    ||t2 - t1|| in [lo, hi].
    """

    lo: float
    hi: float
    signed: bool = True

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if np.isnan(lo) or np.isnan(hi):
            raise InputError("band endpoints must not be NaN")
        if lo > hi:
            raise InputError(f"band must have lo <= hi, got [{lo}, {hi}]")
        if not self.signed and lo < 0:
            raise InputError(f"unsigned band needs lo >= 0, got lo={lo}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def absolute(cls, lo: float, hi: float) -> "Band":
        return cls(lo, hi, signed=False)

    @property
    def max_abs(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def require_dim(self, dim: int) -> None:
        if self.signed and dim != 1:
            raise InputError(f"signed band used with dim={dim}; signed bands require d=1")
        if not self.signed and dim == 1:
            raise InputError("unsigned band used with d=1; use a signed band")

    def contains(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values)
        return (v >= self.lo) & (v <= self.hi)


def _check_points(loc, y, z, win: SimWindow, starts):
    """The invariants of a pattern, for realizations ``loc[starts[k]:starts[k+1]]``.

    Locations and y finite, z finite and >= 0, every location in `win`,
    and no location twice in one realization.  Returns the blocks of the
    pair sweep for the batch to keep: in d = 1 those of the duplicate
    check, :func:`_sort_blocks`; in d > 1 each realization on its own.
    """
    if loc.shape[0]:
        if not np.isfinite(loc).all():
            raise InputError("locations must be finite")
        if not np.isfinite(y).all():
            raise InputError("marks y must be finite")
        # NaN fails both comparisons
        if not (z.min() >= 0.0 and z.max() < np.inf):
            raise InputError("weight marks z must be finite and >= 0")
        if (loc.min(axis=0) < win.lo).any() or (loc.max(axis=0) > win.hi).any():
            raise InputError("all locations must lie inside sim_window")
    starts = np.asarray(starts)
    if loc.shape[1] == 1:
        return _sort_blocks(loc[:, 0], starts)
    for a, b in zip(starts[:-1], starts[1:]):
        if b - a < 2:
            continue
        pts = loc[a:b]
        srt = pts[np.lexsort(pts.T[::-1])]
        if np.all(srt[1:] == srt[:-1], axis=1).any():
            raise InputError("pattern is not simple: duplicate locations")
    return tuple((k, k + 1, None) for k in range(len(starts) - 1))


def _sort_blocks(x: np.ndarray, starts: np.ndarray, ranges=None) -> tuple:
    """``(k0, k1, kept)`` for each block of the 1-D sweep: realizations k0..k1-1.

    `kept` is the block's :func:`_block_order` as read-only arrays.  The
    blocks are the `ranges` given, by default the :func:`_blocks` of up
    to ``_BLOCK_POINTS`` points.  Shifted keys that never tie hold no
    duplicate; a block whose keys tie is split into one block per
    realization, whose keys are its x and tie only on a duplicate.
    Raises InputError on a duplicate location.
    """
    out = []
    for k0, k1 in _blocks((starts[1:] - starts[:-1]).tolist()) if ranges is None else ranges:
        a, b = starts[k0], starts[k1]
        order, ss = _block_order(x[a:b], starts[k0:k1 + 1] - a)
        if b - a > 1 and not _ascending(ss):
            if k1 - k0 == 1:
                raise InputError("pattern is not simple: duplicate locations")
            out += _sort_blocks(x, starts, [(k, k + 1) for k in range(k0, k1)])
            continue
        order.flags.writeable = ss.flags.writeable = False
        out.append((k0, k1, (order, ss)))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class PatternBatch:
    """Realizations on one simulation window, stored as flat columns.

    Realization k owns rows ``starts[k]:starts[k+1]`` of `locations`
    (shape (N, dim)), `y` and `z`; `classes` holds each realization's
    mixture class, or is None when it is unknown.  Every realization
    satisfies the :class:`PointPattern` invariants, checked once for the
    whole batch; a :class:`PointPattern` is the batch of one realization.

    The check also lays out the blocks of the pair sweep, which the batch
    keeps in ``_sorted_blocks`` as ``(k0, k1, kept)``: in d = 1 it sorts
    each block once (:func:`_sort_blocks`) and keeps that order as
    read-only arrays, so no sweep of the batch, in any band, sorts again;
    in d > 1 each realization is a block and `kept` is None.  A batch
    never changes after construction.
    """

    locations: np.ndarray
    y: np.ndarray
    z: np.ndarray
    starts: np.ndarray
    sim_window: SimWindow
    classes: np.ndarray | None = None
    _sorted_blocks: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        loc, y, z = _freeze(self.locations), _freeze(self.y), _freeze(self.z)
        n = loc.shape[0] if loc.ndim == 2 else -1
        if n < 0 or loc.shape[1] != self.sim_window.dim:
            raise InputError(f"locations must have shape (n, {self.sim_window.dim})")
        if y.shape != (n,) or z.shape != (n,):
            raise InputError("y and z must be 1-d with one entry per point")
        starts = np.array(self.starts, dtype=np.int64)
        bounds = starts.tolist() if starts.ndim == 1 else []
        if (len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != n
                or any(b < a for a, b in zip(bounds, bounds[1:]))):
            raise InputError("starts must rise from 0 to the number of points")
        object.__setattr__(self, "_sorted_blocks",
                           _check_points(loc, y, z, self.sim_window, bounds))
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        starts.flags.writeable = False
        object.__setattr__(self, "starts", starts)
        if self.classes is not None:
            classes = np.array(self.classes, dtype=np.int64)
            classes.flags.writeable = False
            object.__setattr__(self, "classes", classes)

    @classmethod
    def from_patterns(cls, patterns: Sequence[PointPattern]) -> "PatternBatch":
        """The patterns end to end; the window is the smallest box holding all of theirs."""
        patterns = tuple(patterns)
        if not patterns:
            raise InputError("at least one realization is required")
        dim = patterns[0].dim
        if any(p.dim != dim for p in patterns):
            raise InputError("realizations must share one dimension")
        lo = np.min([p.sim_window.lo for p in patterns], axis=0)
        hi = np.max([p.sim_window.hi for p in patterns], axis=0)
        return PatternBatch(
            _concat_frozen([p.locations for p in patterns]),
            _concat_frozen([p.y for p in patterns]),
            _concat_frozen([p.z for p in patterns]),
            np.cumsum([0] + [p.n_points for p in patterns]),
            SimWindow(lo, hi),
        )

    @property
    def dim(self) -> int:
        return self.sim_window.dim

    @property
    def n_realizations(self) -> int:
        return self.starts.size - 1

    def pattern(self, k: int) -> PointPattern:
        """Realization k as a (validated) :class:`PointPattern` on the batch window."""
        a, b = int(self.starts[k]), int(self.starts[k + 1])
        return PointPattern(self.locations[a:b], self.y[a:b], self.z[a:b], self.sim_window)


class PointPattern(PatternBatch):
    """A finite realization of a marked point process on a simulation window.

    `locations` has shape (n, dim), or (n,) for d = 1; `y` and `z` have
    shape (n,).  Patterns are simple: no two points share a location.
    All weight marks z are non-negative and every location lies inside
    `sim_window`.  A pattern is the batch of its one realization
    (``starts == [0, n]``), so it is checked, swept and tabulated as a
    batch is.
    """

    def __init__(self, locations, y, z, sim_window: SimWindow):
        loc = np.asarray(locations, dtype=np.float64)
        if loc.ndim == 1:
            loc = loc.reshape(-1, 1)
        super().__init__(loc, y, z, (0, loc.shape[0] if loc.ndim else 0), sim_window)

    @property
    def n_points(self) -> int:
        return self.locations.shape[0]


# ---------------------------------------------------------------------------
# Distances and pair enumeration
# ---------------------------------------------------------------------------


def _row_displacements(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Displacement of each row pair: signed scalar for d=1, Euclidean norm else.

    This single code path defines the float semantics of pair distances;
    both the naive and the accelerated enumerations go through it.
    """
    if a.shape[1] == 1:
        return (b - a).ravel()
    diff = b - a
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def band_pair_indices_naive(
    pattern: PointPattern, win: Window, band: Band
) -> tuple[np.ndarray, np.ndarray]:
    """Reference O(n^2) enumeration of qualifying ordered pairs.

    Examines every ordered pair (i, j), i != j, with point i inside
    [0, T]; kept pairs are exactly those whose displacement lies in the
    closed band.  Used as the ground truth for the accelerated paths.
    """
    band.require_dim(pattern.dim)
    loc, t1_ok = pattern.locations, win.contains(pattern.locations)
    n = loc.shape[0]
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    all_j = np.arange(n)
    for i in range(n):
        if not t1_ok[i]:
            continue
        d = _row_displacements(np.broadcast_to(loc[i], loc.shape), loc)
        keep = band.contains(d)
        keep[i] = False
        jj = all_j[keep]
        out_i.append(np.full(jj.shape, i, dtype=np.int64))
        out_j.append(jj)
    if not out_i:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(out_i), np.concatenate(out_j)


def _block_keys(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sort keys of a block of 1-D realizations: by realization, then by x.

    Realization k owns the points ``x[starts[k]:starts[k+1]]``.  Each is
    moved to start a unit gap after the end of the one before; a single
    realization keeps its x.  Sorted keys that are :func:`_ascending`
    sort each realization in its stable order; a tie or an overflow of
    the shift voids them.
    """
    n_real = starts.shape[0] - 1
    if n_real == 1:
        return x
    nonempty = starts[1:] > starts[:-1]
    first = starts[:-1][nonempty]
    lo, extent = np.zeros(n_real), np.ones(n_real)
    lo[nonempty] = np.minimum.reduceat(x, first)
    with np.errstate(over="ignore", invalid="ignore"):
        extent[nonempty] += np.maximum.reduceat(x, first) - lo[nonempty]
        base = np.concatenate(([0.0], np.cumsum(extent[:-1])))
        return x + np.repeat(base - lo, starts[1:] - starts[:-1])


def _block_order(x: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, sorted keys) of one sort of the :func:`_block_keys` of a block."""
    keys = _block_keys(x, starts)
    order = np.argsort(keys)
    return order, keys[order]


def _ascending(ss: np.ndarray) -> bool:
    """Whether the non-empty sorted keys of :func:`_block_order` are finite and never tie."""
    return bool(np.isfinite(ss[-1]) and (ss[1:] > ss[:-1]).all())


class _Ranges(NamedTuple):
    """The partners in one band of a block's points in [0, T]: a run of `order` each.

    Point ``first[m]`` of the block has ``count[m]`` partners.  They are
    the points ``order[left[m]:]``, in that order, with the point's own
    position ``pos[m]`` skipped when `own` (the band holds 0; `pos` is
    read only then).  In d = 1 `order` is the block's sorted order; in
    d > 1 it lists each point's partners in turn.
    """

    first: np.ndarray
    pos: np.ndarray | None
    left: np.ndarray
    count: np.ndarray
    own: bool
    order: np.ndarray

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(ii, jj): the ranges expanded, i ascending and, for each i, j in the order of `order`."""
        count = self.count
        ii = np.repeat(self.first, count)
        at = np.repeat(self.left - np.cumsum(count) + count, count)
        at += np.arange(at.size)
        if self.own:
            at += at >= np.repeat(self.pos, count)
        return ii, self.order[at]


def _ranges_sorted_1d(x: np.ndarray, starts: np.ndarray, first: np.ndarray, kept,
                      bands: Sequence[Band]):
    """Exact partner ranges of a block of 1-D realizations in each band, from one order.

    Realization k owns the points ``x[starts[k]:starts[k+1]]``, `first`
    indexes the points that may be first of a pair, ascending, and
    `kept` is the block's :func:`_block_order`, whose shifted keys never
    tie.  Yields a :class:`_Ranges` for each band in turn.  Within a
    realization fl(x[j] - x[i]) never decreases along the sorted order,
    so the partners of i are one run of it: a padded search of each
    finite band end brackets the run, and each end of the bracket steps
    in while it fails the closed-band test of :meth:`Band.contains`.  An
    infinite band end is the realization's own bound.  No pair is built:
    the runs give the pairs and the order of a sweep over each
    realization alone, in each band alone.
    """
    order, ss = kept
    n = x.shape[0]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    pos = rank[first]
    # a realization's points are a run of the sorted order, and the runs
    # follow each other in realization order
    real = np.searchsorted(starts, first, side="right")
    bound_lo, bound_hi = starts[real - 1], starts[real]
    xs, xi = x[order], x[first]
    reach = [abs(end) for band in bands for end in (band.lo, band.hi) if math.isfinite(end)]
    if reach:
        # Searches run over the shifted keys, widened by a few ulps so
        # that no partner is lost to rounding of the shifted coordinates
        # or of s + lo (a realization's shift is one constant, so its own
        # rounding moves no difference).  The widest reach pads every
        # band.  The search runs over all points in sorted order, which
        # is faster than in index order, and is read back for the points i.
        pad = 8.0 * np.spacing(np.abs(ss) + 2.0 * max(reach) + 1.0)

    def ranges(band: Band) -> _Ranges:
        left, right = bound_lo, bound_hi
        # the run never leaves the realization, and a step never crosses the other end
        if math.isfinite(band.lo):
            left = np.maximum(left, ss.searchsorted(ss + band.lo - pad, side="left")[pos])
            step = np.flatnonzero(xs.take(left, mode="clip") - xi < band.lo)
            while step.size:
                step = step[left[step] < right[step]]
                left[step] += 1
                step = step[xs.take(left[step], mode="clip") - xi[step] < band.lo]
        if math.isfinite(band.hi):
            right = np.minimum(right, ss.searchsorted(ss + band.hi + pad, side="right")[pos])
            step = np.flatnonzero(xs[right - 1] - xi > band.hi)
            while step.size:
                step = step[left[step] < right[step]]
                right[step] -= 1
                step = step[xs[right[step] - 1] - xi[step] > band.hi]
        own = band.lo <= 0.0 <= band.hi
        # the band holds 0 iff each point's run holds the point itself
        count = right - left - 1 if own else np.maximum(right - left, 0)
        return _Ranges(first, pos, left, count, own, order)

    for band in bands:
        yield ranges(band)


def _pairs_tree(loc: np.ndarray, t1_ok: np.ndarray, first: np.ndarray, bands: Sequence[Band]):
    """Partners of one realization in d > 1 in each band, from one kd-tree, in (i, j) order.

    `first` indexes the points in [0, T] that `t1_ok` flags.  Yields a
    :class:`_Ranges` for each band in turn, whose partners of each point
    ascend, so no sum depends on the tree's traversal.  The tree is
    built once and queried once per band, padded by a few ulps, at the
    band's upper end or, for an infinite one, at the diameter of the
    points' bounding box; its candidates are filtered by the closed-band
    test of :meth:`Band.contains`.  Past a radius of 1e154 every pair is
    a candidate.
    """
    from scipy.spatial import cKDTree

    n = loc.shape[0]
    if n < 2 or first.size == 0:
        none = np.zeros(first.size, dtype=np.int64)
        for _ in bands:
            yield _Ranges(first, None, none, none, False, none[:0])
        return
    tree, extent = cKDTree(loc), float(np.max(np.abs(loc)))

    def ranges(band: Band) -> _Ranges:
        hi = band.hi if math.isfinite(band.hi) else math.dist(loc.min(0), loc.max(0))
        radius = hi + 16.0 * np.spacing(hi + extent + 1.0)
        # scipy rejects a radius whose square overflows: every pair is then a candidate
        a, b = (tree.query_pairs(radius, output_type="ndarray").T if radius < 1e154
                else np.triu_indices(n, 1))
        # fl(||t_j - t_i||) == fl(||t_i - t_j||), so one test serves both orders
        keep = band.contains(_row_displacements(loc[a], loc[b]))
        a, b = a[keep], b[keep]
        ii, jj = np.concatenate((a, b)), np.concatenate((b, a))
        keep = t1_ok[ii]
        ii, jj = ii[keep], jj[keep]
        count = np.bincount(ii, minlength=n)[first]
        # a sort of the keys themselves is faster than an argsort of them
        order = np.sort(ii * n + jj) % n
        return _Ranges(first, None, np.cumsum(count) - count, count, False, order)

    for band in bands:
        yield ranges(band)


# Points per block of the 1-D sweep: blocks amortize the per-call cost of
# the sweep over small realizations while their per-point arrays stay
# small.  A larger realization forms a block of its own.
_BLOCK_POINTS = 2048


def _blocks(n_points: Iterable[int]):
    """Consecutive (first, stop) realization ranges of at most _BLOCK_POINTS points each.

    `n_points` gives each realization's point count; it is read lazily, and a
    range is yielded as soon as the count that ends it has been read.
    """
    first, size, k = 0, 0, -1
    for k, n in enumerate(n_points):
        if k > first and size + n > _BLOCK_POINTS:
            yield first, k
            first, size = k, 0
        size += n
    yield first, k + 1


def _sweep(batch: PatternBatch, win: Window, bands: Sequence[Band]):
    """Enumerate each realization's partners in every band once, a block of realizations at a time.

    Yields ``(k0, k1, first, hoods)`` for each block: consecutive
    realizations k0..k1-1, whose points are rows
    ``batch.starts[k0]:batch.starts[k1]``.  `first` indexes the block's
    points in [0, T], ascending, and `hoods` yields each band's partners
    in turn, indexed in the block, as a :class:`_Ranges`.  A 1-D block
    of up to ``_BLOCK_POINTS`` points comes with its sorted order, and
    its ranges are those of :func:`_ranges_sorted_1d`, whose pairs are
    those of a sweep over each realization alone.  A block without one
    is a realization in d > 1, whose ranges are those of
    :func:`_pairs_tree`, in (i, j) order.  The blocks are those the
    batch laid out when it was checked, so one sort or one tree per
    block serves every band.  The window and the bands are checked
    against the batch's dimension before the first block.
    """
    t1_ok = win.contains(batch.locations)
    for band in bands:
        band.require_dim(batch.dim)
    starts, loc = batch.starts, batch.locations
    for k0, k1, kept in batch._sorted_blocks:
        a, b = starts[k0], starts[k1]
        first = np.flatnonzero(t1_ok[a:b])
        if kept is None:
            yield k0, k1, first, _pairs_tree(loc[a:b], t1_ok[a:b], first, bands)
        else:
            local = starts[k0:k1 + 1] - a
            yield k0, k1, first, _ranges_sorted_1d(loc[a:b, 0], local, first, kept, bands)


def band_pair_indices(
    pattern: PointPattern, win: Window, band: Band
) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) of ordered pairs with point i in [0, T] and displacement in band.

    Point j may lie anywhere in the simulation window.  The pattern is
    the single block of :func:`_sweep`, and the pairs are its partner
    ranges expanded: those of a sorted sweep for d=1, and of a kd-tree,
    whose candidates are filtered, in (i, j) order for d>1.  Both use
    the closed-band predicate of the naive double loop, so the returned
    pair set is identical to it.
    """
    return next(next(_sweep(pattern, win, [band]))[-1]).pairs()


def _pair_values(f, loc, y, z, ii, jj) -> np.ndarray:
    """f(y[ii], y[jj]) as float64; a non-finite value is a NumericError naming its pair."""
    vals = np.asarray(f(y[ii], y[jj]), dtype=np.float64)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        i, j = int(ii[k]), int(jj[k])
        raise NumericError(
            "mark function returned a non-finite value for pair "
            f"(t1={tuple(loc[i].tolist())}, y1={float(y[i])}, z1={float(z[i])}) x "
            f"(t2={tuple(loc[j].tolist())}, y2={float(y[j])})"
        )
    return vals


def translate(pattern: PointPattern, x: Sequence[float]) -> PointPattern:
    """Shift the frame of reference by x: each location t becomes t - x.

    The simulation window moves along with the points and the marks are
    untouched, so translating a pattern and its windows together leaves
    every pair statistic unchanged.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (pattern.dim,):
        raise InputError(f"shift vector must have {pattern.dim} components")
    if not np.all(np.isfinite(x)):
        raise InputError("shift vector must be finite")
    return PointPattern(
        pattern.locations - x, pattern.y, pattern.z, pattern.sim_window.shifted(x)
    )


def buffered_window(win: Window, bands: Band | Sequence[Band], extra: float = 0.0) -> SimWindow:
    """Simulation box [-b, T+b]^d with b = max(|lo|, |hi|) over the requested bands.

    Generating on this box guarantees that every point of the estimation
    window [0, T] has its full band neighborhood observed, which keeps the
    pair-sum estimators free of edge effects.
    """
    if isinstance(bands, Band):
        bands = [bands]
    if not bands:
        raise InputError("at least one band is required")
    b = max(band.max_abs for band in bands) + float(extra)
    if not np.isfinite(b):
        raise InputError("cannot buffer for a band with infinite endpoints")
    return SimWindow(np.full(win.dim, -b), win.t + b)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_pattern_csv(pattern: PointPattern, path) -> None:
    """Write a pattern as CSV: `# dim=d` header, then location columns, y, z.

    Floats are written with `repr`, which round-trips every double
    exactly (17 significant digits suffice).
    """
    bounds = ";".join(
        f"{float(lo)!r}:{float(hi)!r}"
        for lo, hi in zip(pattern.sim_window.lo, pattern.sim_window.hi)
    )
    rows = np.column_stack((pattern.locations, pattern.y, pattern.z)).tolist()
    lines = [f"# dim={pattern.dim}", f"# window={bounds}"]
    lines += [",".join(map(repr, row)) for row in rows]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pattern_csv(path) -> PointPattern:
    """Inverse of :func:`write_pattern_csv`; bit-faithful for finite doubles."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not an ASCII pattern file: {exc}") from exc
    if not lines or not lines[0].startswith("# dim="):
        raise InputError(f"{path}: missing '# dim=' header")
    try:
        dim = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise InputError(f"{path}: bad '# dim=' header: {exc}") from exc
    if len(lines) < 2 or not lines[1].startswith("# window="):
        raise InputError(f"{path}: missing '# window=' header")
    bounds = [b.split(":") for b in lines[1].split("=", 1)[1].split(";")]
    if len(bounds) != dim:
        raise InputError(f"{path}: window bounds do not match dim={dim}")
    if any(len(b) != 2 for b in bounds):
        raise InputError(f"{path}: window bounds must be lo:hi per dimension")
    try:
        lo, hi = np.array([[float(v) for v in b] for b in bounds]).T
    except ValueError as exc:
        raise InputError(f"{path}: bad window bounds: {exc}") from exc
    rows = [ln.split(",") for ln in lines[2:]]
    for k, cells in enumerate(rows, start=3):
        try:
            if len(cells) != dim + 2:
                raise ValueError(f"expected {dim + 2} columns, got {len(cells)}")
            rows[k - 3] = [float(c) for c in cells]
        except ValueError as exc:
            raise InputError(f"{path}: line {k}: {exc}") from exc
    data = np.array(rows, dtype=np.float64).reshape(len(rows), dim + 2)
    return PointPattern(data[:, :dim], data[:, dim], data[:, dim + 1], SimWindow(lo, hi))
