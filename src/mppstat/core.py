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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MppstatError",
    "InputError",
    "NumericError",
    "UnsupportedSpecError",
    "SimWindow",
    "PointPattern",
    "Window",
    "Band",
    "pair_distance",
    "band_pair_indices",
    "band_pair_indices_naive",
    "pair_sums",
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


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


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


@dataclass(frozen=True)
class PointPattern:
    """A finite realization of a marked point process on a simulation window.

    `locations` has shape (n, dim); `y` and `z` have shape (n,).  Patterns
    are simple: no two points share a location.  All weight marks z are
    non-negative and every location lies inside `sim_window`.
    """

    locations: np.ndarray
    y: np.ndarray
    z: np.ndarray
    sim_window: SimWindow

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=np.float64)
        if loc.ndim == 1:
            loc = loc.reshape(-1, 1)
        if loc.ndim != 2:
            raise InputError("locations must have shape (n, dim)")
        y = np.atleast_1d(np.asarray(self.y, dtype=np.float64))
        z = np.atleast_1d(np.asarray(self.z, dtype=np.float64))
        n = loc.shape[0]
        if y.shape != (n,) or z.shape != (n,):
            raise InputError("y and z must be 1-d with one entry per point")
        if loc.shape[1] != self.sim_window.dim:
            raise InputError(
                f"locations have dim {loc.shape[1]} but window has dim {self.sim_window.dim}"
            )
        if n:
            if not np.isfinite(loc).all():
                raise InputError("locations must be finite")
            if not np.isfinite(y).all():
                raise InputError("marks y must be finite")
            # NaN fails both comparisons
            if not (z.min() >= 0.0 and z.max() < np.inf):
                raise InputError("weight marks z must be finite and >= 0")
            win = self.sim_window
            if (loc.min(axis=0) < win.lo).any() or (loc.max(axis=0) > win.hi).any():
                raise InputError("all locations must lie inside sim_window")
            if loc.shape[1] == 1:
                srt = np.sort(loc[:, 0])
                dup = srt[1:] == srt[:-1]
            else:
                srt = loc[np.lexsort(loc.T[::-1])]
                dup = np.all(srt[1:] == srt[:-1], axis=1)
            if dup.any():
                raise InputError("pattern is not simple: duplicate locations")
        object.__setattr__(self, "locations", _freeze(loc))
        object.__setattr__(self, "y", _freeze(y))
        object.__setattr__(self, "z", _freeze(z))

    @property
    def dim(self) -> int:
        return self.sim_window.dim

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


def pair_distance(t1: Sequence[float], t2: Sequence[float]) -> float:
    """Displacement from t1 to t2: t2 - t1 for d=1, ||t2 - t1|| for d>1."""
    a = np.atleast_2d(np.asarray(t1, dtype=np.float64))
    b = np.atleast_2d(np.asarray(t2, dtype=np.float64))
    if a.shape != b.shape or a.shape[0] != 1:
        raise InputError(f"locations must share one dimension, got {a.shape} and {b.shape}")
    return float(_row_displacements(a, b)[0])


def _t1_mask(pattern: PointPattern, win: Window) -> np.ndarray:
    if win.dim != pattern.dim:
        raise InputError(f"window dim {win.dim} != pattern dim {pattern.dim}")
    loc = pattern.locations
    return np.all((loc >= 0.0) & (loc <= win.t), axis=1)


def band_pair_indices_naive(
    pattern: PointPattern, win: Window, band: Band
) -> tuple[np.ndarray, np.ndarray]:
    """Reference O(n^2) enumeration of qualifying ordered pairs.

    Examines every ordered pair (i, j), i != j, with point i inside
    [0, T]; kept pairs are exactly those whose displacement lies in the
    closed band.  Used as the ground truth for the accelerated paths.
    """
    band.require_dim(pattern.dim)
    loc = pattern.locations
    n = pattern.n_points
    t1_ok = _t1_mask(pattern, win)
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


def _pairs_sorted_1d(
    x: np.ndarray, starts: np.ndarray, t1_ok: np.ndarray, band: Band
) -> tuple[np.ndarray, np.ndarray]:
    """Qualifying ordered pairs of a block of 1-D realizations, in one sorted sweep.

    Realization k owns the points ``x[starts[k]:starts[k+1]]`` and `t1_ok`
    flags the points that may be first of a pair.  Pairs never cross
    realizations.  They come with i ascending and, for each i, j in the
    order of a stable sort of its realization by x: the pairs and the
    order of a sweep over that realization alone.
    """
    empty = np.empty(0, dtype=np.int64)
    ii0 = np.nonzero(t1_ok)[0]
    if ii0.size == 0:
        return empty, empty
    n, n_real = x.shape[0], starts.shape[0] - 1
    rid = np.repeat(np.arange(n_real), np.diff(starts))
    if n_real == 1:
        order = np.argsort(x, kind="stable")
        ss = x[order]
    else:
        # One sorted array for the whole block: each realization is moved
        # to start a unit gap after the end of the one before.
        nonempty = starts[1:] > starts[:-1]
        first = starts[:-1][nonempty]
        lo, extent = np.zeros(n_real), np.ones(n_real)
        lo[nonempty] = np.minimum.reduceat(x, first)
        with np.errstate(over="ignore", invalid="ignore"):
            extent[nonempty] += np.maximum.reduceat(x, first) - lo[nonempty]
            base = np.concatenate(([0.0], np.cumsum(extent[:-1])))
            s = x + (base - lo)[rid]
        order = np.argsort(s)
        ss = s[order]
        # Strictly increasing shifted values sort the block by realization,
        # then by x, which is the stable per-realization order; a tie or
        # an overflow of the shift falls back to one sweep per realization.
        if not (np.isfinite(ss[-1]) and np.all(ss[1:] > ss[:-1])):
            return _pairs_each_1d(x, starts, t1_ok, band)
    # candidates of point i never leave its realization's segment
    left, right = starts[rid[ii0]], starts[rid[ii0] + 1]
    if np.isfinite(band.lo) and np.isfinite(band.hi):
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        pos = rank[ii0]
        # Candidate ranges are widened by a few ulps so that the exact
        # membership test below never loses a pair to rounding of the
        # shifted coordinates or of s + lo (a realization's shift is one
        # constant, so its own rounding moves no difference).  The search
        # runs over all points in sorted order, which is faster than in
        # index order, and is read back for the points i.
        pad = 8.0 * np.spacing(np.abs(ss) + 2.0 * band.max_abs + 1.0)
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


def _pairs_each_1d(x, starts, t1_ok, band) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pairs_sorted_1d` one realization at a time, with the same output."""
    ii, jj = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for a, b in zip(starts[:-1], starts[1:]):
        i, j = _pairs_sorted_1d(x[a:b], np.array([0, b - a]), t1_ok[a:b], band)
        ii.append(i + a)
        jj.append(j + a)
    return np.concatenate(ii), np.concatenate(jj)


def _pairs_tree(pattern: PointPattern, win: Window, band: Band) -> tuple[np.ndarray, np.ndarray]:
    from scipy.spatial import cKDTree

    loc = pattern.locations
    n = pattern.n_points
    t1_ok = _t1_mask(pattern, win)
    empty = np.empty(0, dtype=np.int64)
    if n < 2 or not t1_ok.any():
        return empty, empty
    if not np.isfinite(band.hi):
        return band_pair_indices_naive(pattern, win, band)
    scale = band.hi + float(np.max(np.abs(loc))) + 1.0
    radius = band.hi + 16.0 * np.spacing(scale)
    tree = cKDTree(loc)
    raw = tree.query_pairs(radius, output_type="ndarray")
    if raw.size == 0:
        return empty, empty
    cand_i = np.concatenate((raw[:, 0], raw[:, 1]))
    cand_j = np.concatenate((raw[:, 1], raw[:, 0]))
    keep = t1_ok[cand_i]
    cand_i, cand_j = cand_i[keep], cand_j[keep]
    d = _row_displacements(loc[cand_i], loc[cand_j])
    keep = band.contains(d)
    return cand_i[keep].astype(np.int64), cand_j[keep].astype(np.int64)


def band_pair_indices(
    pattern: PointPattern, win: Window, band: Band
) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) of ordered pairs with point i in [0, T] and displacement in band.

    Point j may lie anywhere in the simulation window.  Uses a sorted
    sweep for d=1 and a kd-tree for d>1; candidate supersets are filtered
    with the same closed-band predicate as the naive double loop, so the
    returned pair set is identical to it.
    """
    band.require_dim(pattern.dim)
    if pattern.dim == 1:
        n = pattern.n_points
        return _pairs_sorted_1d(
            pattern.locations[:, 0], np.array([0, n]), _t1_mask(pattern, win), band
        )
    return _pairs_tree(pattern, win, band)


def pair_sums(
    pattern: PointPattern,
    win: Window,
    band: Band,
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[float, float, int]:
    """One enumeration pass: (sum of z1 * f(y1, y2), sum of z1, ordered pair count).

    Sums run over the qualifying ordered pairs of :func:`band_pair_indices`.
    `f` must accept numpy arrays of first and second marks and return an
    array of values; a non-finite value is a :class:`NumericError` naming
    the offending pair.  A pattern without qualifying pairs gives
    (0.0, 0.0, 0).
    """
    ii, jj = band_pair_indices(pattern, win, band)
    if ii.size == 0:
        return 0.0, 0.0, 0
    vals = _pair_values(f, pattern.y, ii, jj, lambda i, j: (pattern, i, j))
    z1 = pattern.z[ii]
    return float(np.sum(z1 * vals)), float(np.sum(z1)), int(ii.size)


def _pair_values(f, y, ii, jj, locate) -> np.ndarray:
    """f(y[ii], y[jj]) as float64; a non-finite value is a NumericError.

    The error names the first offending pair; ``locate(i, j)`` maps its
    indices into `y` to (pattern, index of i, index of j) in that pattern.
    """
    vals = np.asarray(f(y[ii], y[jj]), dtype=np.float64)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        pattern, i, j = locate(int(ii[k]), int(jj[k]))
        raise NumericError(
            "mark function returned a non-finite value for pair "
            f"(t1={tuple(pattern.locations[i])}, y1={pattern.y[i]}, z1={pattern.z[i]}) x "
            f"(t2={tuple(pattern.locations[j])}, y2={pattern.y[j]})"
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
    lines = [f"# dim={pattern.dim}"]
    bounds = ";".join(
        f"{float(lo)!r}:{float(hi)!r}"
        for lo, hi in zip(pattern.sim_window.lo, pattern.sim_window.hi)
    )
    lines.append(f"# window={bounds}")
    for i in range(pattern.n_points):
        cells = [repr(float(c)) for c in pattern.locations[i]]
        cells.append(repr(float(pattern.y[i])))
        cells.append(repr(float(pattern.z[i])))
        lines.append(",".join(cells))
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
    rows = []
    for k, ln in enumerate(lines[2:], start=3):
        cells = ln.split(",")
        if len(cells) != dim + 2:
            raise InputError(f"{path}: line {k}: expected {dim + 2} columns, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise InputError(f"{path}: line {k}: {exc}") from exc
    data = np.array(rows, dtype=np.float64).reshape(len(rows), dim + 2)
    return PointPattern(data[:, :dim], data[:, dim], data[:, dim + 1], SimWindow(lo, hi))
