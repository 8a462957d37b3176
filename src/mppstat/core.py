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
from typing import Sequence

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
        return np.all((locations >= 0.0) & (locations <= self.t), axis=1)


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
    for k0, k1 in _blocks(starts[1:] - starts[:-1]) if ranges is None else ranges:
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
    return _pairs_naive(pattern.locations, win.contains(pattern.locations), band)


def _pairs_naive(loc: np.ndarray, t1_ok: np.ndarray, band: Band) -> tuple[np.ndarray, np.ndarray]:
    """:func:`band_pair_indices_naive` on the rows of `loc`, `t1_ok` flagging those in [0, T]."""
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


def _pairs_sorted_1d(x: np.ndarray, starts: np.ndarray, t1_ok: np.ndarray, kept,
                     bands: Sequence[Band]):
    """Qualifying ordered pairs of a block of 1-D realizations in each band, from one order.

    Realization k owns the points ``x[starts[k]:starts[k+1]]``, `t1_ok`
    flags the points that may be first of a pair, and `kept` is the
    block's :func:`_block_order`, whose shifted keys never tie.  Yields
    (ii, jj) for each band in turn.  Pairs never cross realizations.
    They come with i ascending and, for each i, j in the order of a
    stable sort of its realization by x: the pairs and the order of a
    sweep over that realization alone, in that band alone.
    """
    empty = np.empty(0, dtype=np.int64)
    ii0 = np.nonzero(t1_ok)[0]
    if ii0.size == 0:
        for _ in bands:
            yield empty, empty
        return
    order, ss = kept
    n = x.shape[0]
    rid = np.repeat(np.arange(starts.shape[0] - 1), starts[1:] - starts[:-1])
    # candidates of point i never leave its realization's segment
    first, stop = starts[rid[ii0]], starts[rid[ii0] + 1]
    finite = [band.max_abs for band in bands if np.isfinite(band.lo) and np.isfinite(band.hi)]
    if finite:
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        pos = rank[ii0]
        # Candidate ranges are widened by a few ulps so that the exact
        # membership test below never loses a pair to rounding of the
        # shifted coordinates or of s + lo (a realization's shift is one
        # constant, so its own rounding moves no difference).  The pad of
        # the widest band serves every band: a wider range only adds
        # candidates that the test drops.  The search runs over all points
        # in sorted order, which is faster than in index order, and is
        # read back for the points i.
        pad = 8.0 * np.spacing(np.abs(ss) + 2.0 * max(finite) + 1.0)

    def pairs(band: Band) -> tuple[np.ndarray, np.ndarray]:
        left, right = first, stop
        if np.isfinite(band.lo) and np.isfinite(band.hi):
            left = np.maximum(left, np.searchsorted(ss, ss + band.lo - pad, side="left")[pos])
            right = np.minimum(right, np.searchsorted(ss, ss + band.hi + pad, side="right")[pos])
        counts = np.maximum(right - left, 0)
        total = int(counts.sum())
        if total == 0:
            return empty, empty
        ii = np.repeat(ii0, counts)
        offset = np.concatenate(([0], np.cumsum(counts)[:-1])) - left
        jj = order[np.arange(total) - np.repeat(offset, counts)]
        keep = band.contains(x[jj] - x[ii]) & (ii != jj)
        return ii[keep], jj[keep]

    # a band's candidates are freed when pairs() returns
    for band in bands:
        yield pairs(band)


def _pairs_tree(loc: np.ndarray, t1_ok: np.ndarray, bands: Sequence[Band]):
    """Qualifying ordered pairs of one realization in d > 1 in each band, from one kd-tree.

    Yields (ii, jj) for each band in turn.  The tree is built once and
    queried once per band with a finite upper end; a band without one
    takes the naive enumeration.
    """
    from scipy.spatial import cKDTree

    empty = np.empty(0, dtype=np.int64)
    if loc.shape[0] < 2 or not t1_ok.any():
        for _ in bands:
            yield empty, empty
        return
    if any(np.isfinite(band.hi) for band in bands):
        tree, extent = cKDTree(loc), float(np.max(np.abs(loc)))

    def pairs(band: Band) -> tuple[np.ndarray, np.ndarray]:
        if not np.isfinite(band.hi):
            return _pairs_naive(loc, t1_ok, band)
        radius = band.hi + 16.0 * np.spacing(band.hi + extent + 1.0)
        raw = tree.query_pairs(radius, output_type="ndarray")
        if raw.size == 0:
            return empty, empty
        cand_i = np.concatenate((raw[:, 0], raw[:, 1]))
        cand_j = np.concatenate((raw[:, 1], raw[:, 0]))
        keep = t1_ok[cand_i]
        cand_i, cand_j = cand_i[keep], cand_j[keep]
        keep = band.contains(_row_displacements(loc[cand_i], loc[cand_j]))
        return cand_i[keep].astype(np.int64), cand_j[keep].astype(np.int64)

    for band in bands:
        yield pairs(band)


# Points per block of the 1-D sweep: blocks amortize the per-call cost of
# the sweep over small realizations while their candidate arrays stay
# small.  A larger realization forms a block of its own.
_BLOCK_POINTS = 2048


def _blocks(n_points: np.ndarray):
    """Consecutive (first, stop) realization ranges of at most _BLOCK_POINTS points each."""
    first, size = 0, 0
    for k, n in enumerate(n_points.tolist()):
        if k > first and size + n > _BLOCK_POINTS:
            yield first, k
            first, size = k, 0
        size += n
    yield first, len(n_points)


def _sweep(batch: PatternBatch, win: Window, bands: Sequence[Band]):
    """Enumerate each realization's pairs in every band once, a block of realizations at a time.

    Yields ``(q, k0, k1, ends, t1_ok, ii, jj)``: the pairs in ``bands[q]``
    of consecutive realizations k0..k1-1, whose points are rows
    ``batch.starts[k0]:batch.starts[k1]`` (the block).  `t1_ok` flags
    the block's points in [0, T], and ii, jj index the block's points,
    grouped by realization: realization k0 + r owns pairs
    ``ends[r]:ends[r+1]``, in the order of a sweep over it alone.  A
    block yields its bands in turn before the next block, and does the
    work that no band changes once.  The blocks are those the batch laid
    out when it was checked: a 1-D block of up to ``_BLOCK_POINTS``
    points comes with its sorted order, so one sort per block serves
    every band, and a block without one is a realization in d > 1, whose
    one kd-tree serves every band.  The window and the bands are checked
    against the batch's dimension before the first block.
    """
    t1_ok = win.contains(batch.locations)
    for band in bands:
        band.require_dim(batch.dim)
    starts, loc = batch.starts, batch.locations
    for k0, k1, kept in batch._sorted_blocks:
        a, b = starts[k0], starts[k1]
        local = starts[k0:k1 + 1] - a
        if kept is None:
            sweep = _pairs_tree(loc[a:b], t1_ok[a:b], bands)
        else:
            sweep = _pairs_sorted_1d(loc[a:b, 0], local, t1_ok[a:b], kept, bands)
        for q in range(len(bands)):
            ii, jj = next(sweep)
            # a kd-tree's ii are not sorted, and a lone realization owns all its pairs
            ends = np.searchsorted(ii, local) if k1 - k0 > 1 else np.array([0, ii.size])
            yield q, k0, k1, ends, t1_ok[a:b], ii, jj
            del ii, jj, ends  # a block's pairs in one band are freed before the next is swept


def band_pair_indices(
    pattern: PointPattern, win: Window, band: Band
) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) of ordered pairs with point i in [0, T] and displacement in band.

    Point j may lie anywhere in the simulation window.  The pattern is
    the single block of :func:`_sweep`: a sorted sweep for d=1 and a
    kd-tree for d>1.  Candidate supersets are filtered with the same
    closed-band predicate as the naive double loop, so the returned pair
    set is identical to it.
    """
    return next(_sweep(pattern, win, [band]))[-2:]


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
