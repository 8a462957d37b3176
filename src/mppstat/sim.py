"""Generators for marked point patterns: grounds, mark fields, and finite mixtures.

Three ground processes are available: homogeneous Poisson, a hardcore
process obtained by dependent thinning of a Poisson proposal (keep a point
iff no proposal point with a smaller uniform birth time lies within the
hardcore distance), and a jittered lattice.  Marks are either iid draws or
a joint Gaussian field evaluated at the point locations, with a covariance
model that vanishes exactly beyond a finite range.

A non-ergodic process is represented extensionally as a finite mixture:
each realization first draws a class, then samples that class's ground and
marks.  Everything is deterministic given (spec, window, seed), and
distinct realizations use independently derived seed streams.
"""

from __future__ import annotations

import bisect
import collections
import functools
import hashlib
import itertools
import json
import math
import numbers
import operator
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Union

import numpy as np

from .core import (
    InputError, NumericError, PatternBatch, PointPattern, SimWindow, _blocks, _concat_frozen,
    _floats, _reject_bools,
)

__all__ = [
    "PoissonGround",
    "HardcoreGround",
    "GridGround",
    "IidMarks",
    "GaussianFieldMarks",
    "MixtureClass",
    "MixtureSpec",
    "Covariance",
    "banded_covariance",
    "unit_ball_volume",
    "matern2_retained_intensity",
    "sample_ground",
    "sample_marks",
    "sample_batch",
    "sample_blocks",
    "sample_mixture",
    "mixture_to_json",
    "mixture_from_json",
    "spec_digest",
    "MIXTURE_SCHEMA",
]


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _store_floats(spec, *names: str) -> None:
    """Store the fields `names` of the frozen `spec` as floats; a bool is an InputError."""
    for name, value in _floats({n: getattr(spec, n) for n in names}, type(spec).__name__).items():
        object.__setattr__(spec, name, value)


# ---------------------------------------------------------------------------
# Ground specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoissonGround:
    """Homogeneous Poisson process with the given intensity."""

    intensity: float

    def __post_init__(self):
        _store_floats(self, "intensity")
        if not np.isfinite(self.intensity) or self.intensity <= 0:
            raise InputError(f"poisson intensity must be > 0, got {self.intensity}")


@dataclass(frozen=True)
class HardcoreGround:
    """Dependent thinning of a Poisson proposal; retained points are >= min_dist apart."""

    proposal_intensity: float
    min_dist: float

    def __post_init__(self):
        _store_floats(self, "proposal_intensity", "min_dist")
        if not np.isfinite(self.proposal_intensity) or self.proposal_intensity <= 0:
            raise InputError("proposal intensity must be > 0")
        if not np.isfinite(self.min_dist) or self.min_dist <= 0:
            raise InputError("hardcore distance must be > 0")


@dataclass(frozen=True)
class GridGround:
    """Lattice with fixed spacing; each node jittered uniformly in [-jitter, jitter]^d.

    The lattice is anchored at the window's lower corner, so with zero
    jitter the output is fully deterministic.  Nodes that leave the window
    (by jitter, or by rounding of the last node) are dropped.
    """

    spacing: float
    jitter: float = 0.0

    def __post_init__(self):
        _store_floats(self, "spacing", "jitter")
        if not np.isfinite(self.spacing) or self.spacing <= 0:
            raise InputError(f"grid spacing must be > 0, got {self.spacing}")
        if not np.isfinite(self.jitter) or self.jitter < 0:
            raise InputError(f"grid jitter must be >= 0, got {self.jitter}")
        if 2.0 * self.jitter >= self.spacing:
            raise InputError("jitter must satisfy 2*jitter < spacing to keep points distinct")


GroundSpec = Union[PoissonGround, HardcoreGround, GridGround]

# A sampler's draw: its first argument is the realization's generator
_Draw = Callable[..., np.ndarray]


# ---------------------------------------------------------------------------
# Mark specifications
# ---------------------------------------------------------------------------

_IID_DISTRIBUTIONS = ("normal", "uniform", "constant")


@dataclass(frozen=True)
class IidMarks:
    """Independent identically distributed marks.

    distribution: "normal" (params mean, sd), "uniform" (params a, b)
    or "constant" (params c).
    """

    distribution: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.distribution not in _IID_DISTRIBUTIONS:
            raise InputError(
                f"unknown iid distribution {self.distribution!r}; "
                f"expected one of {_IID_DISTRIBUTIONS}"
            )
        _reject_bools({"params": list(self.params)}, type(self).__name__)
        p = tuple(float(v) for v in self.params)
        object.__setattr__(self, "params", p)
        if self.distribution == "normal":
            if len(p) != 2 or p[1] < 0:
                raise InputError("normal marks need (mean, sd >= 0)")
        elif self.distribution == "uniform":
            if len(p) != 2 or p[0] > p[1]:
                raise InputError("uniform marks need (a, b) with a <= b")
        elif len(p) != 1:
            raise InputError("constant marks need a single value (c,)")

    @property
    def mean(self) -> float:
        if self.distribution == "normal":
            return self.params[0]
        if self.distribution == "uniform":
            return 0.5 * (self.params[0] + self.params[1])
        return self.params[0]

    @property
    def second_moment(self) -> float:
        if self.distribution == "normal":
            m, s = self.params
            return m * m + s * s
        if self.distribution == "uniform":
            a, b = self.params
            return (a * a + a * b + b * b) / 3.0
        return self.params[0] ** 2


@dataclass(frozen=True)
class GaussianFieldMarks:
    """Marks from a stationary Gaussian field with finite-range covariance.

    The covariance is exactly zero beyond `cov_range`.  `shape` selects the
    model: "spherical" (continuous, positive definite for d <= 3, the
    default) or "trunc_exp" (exponential cut to zero at the range, which is
    discontinuous there; kept for stress tests).
    """

    mean: float
    variance: float
    cov_range: float
    shape: str = "spherical"

    def __post_init__(self):
        _store_floats(self, "mean", "variance", "cov_range")
        if not np.isfinite(self.variance) or self.variance <= 0:
            raise InputError("field variance must be > 0")
        if not np.isfinite(self.cov_range) or self.cov_range <= 0:
            raise InputError("covariance range must be > 0")
        if self.shape not in ("spherical", "trunc_exp"):
            raise InputError(f"unknown covariance shape {self.shape!r}")

    def covariance(self) -> Covariance:
        return Covariance(self.shape, self.variance, self.cov_range)


MarkSpec = Union[IidMarks, GaussianFieldMarks]

ZRule = Union[str, IidMarks, Callable]


@dataclass(frozen=True)
class Covariance:
    """Vectorized covariance function C(h) of a non-negative distance h.

    spherical:  variance * (1 - 1.5 u + 0.5 u^3) for u = h/range <= 1, else 0
    trunc_exp:  variance * exp(-3 h / range) for h <= range, else 0

    C is exactly zero beyond `cov_range`, which the banded samplers and the
    rfvar variance use as their reach.
    """

    shape: str
    variance: float
    cov_range: float

    def __post_init__(self):
        _store_floats(self, "variance", "cov_range")
        if self.variance <= 0 or self.cov_range <= 0:
            raise InputError("variance and range must be > 0")
        if self.shape not in ("spherical", "trunc_exp"):
            raise InputError(f"unknown covariance shape {self.shape!r}")

    def __call__(self, h) -> np.ndarray:
        if self.shape == "spherical":
            u = np.minimum(np.abs(np.asarray(h, dtype=np.float64)) / self.cov_range, 1.0)
            return self.variance * (1.0 - 1.5 * u + 0.5 * u**3)
        h = np.abs(np.asarray(h, dtype=np.float64))
        return np.where(
            h <= self.cov_range, self.variance * np.exp(-3.0 * h / self.cov_range), 0.0
        )


def _sorted_band(locations: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray, int]:
    """(order, points sorted by first coordinate, band width b) for a covariance of `reach`.

    b is the :func:`_band_width` of the sorted first coordinates.  The
    order is that of a stable sort.
    """
    x = locations[:, 0]
    if locations.shape[1] > 1:
        order = np.argsort(x, kind="stable")
        return order, locations[order], _band_width(x[order], reach)
    # in d = 1 two equal points are within any reach >= 0, so with b = 0 the
    # default sort has no tie and is the stable one
    order = np.argsort(x)
    xs = x[order]
    b = _band_width(xs, reach)
    if b and not (xs[1:] > xs[:-1]).all():
        order = np.argsort(x, kind="stable")
        xs = x[order]
    return order, xs[:, None], b


def _reach_end(xs: np.ndarray, reach) -> np.ndarray:
    """xs + reach, widened by a few ulps so that a pair at exactly `reach` (where
    trunc_exp is still non-zero) is never lost to rounding of xs + reach.

    The pad is relative to ``|xs| + reach``, so scaling the points and the
    reach by a power of two scales every end alike and keeps the band width.
    """
    return xs + reach + 8.0 * np.spacing(np.abs(xs) + reach)


def _band_width(xs: np.ndarray, reach: float) -> int:
    """The largest index gap between points of the sorted `xs` within `reach`.

    An infinite reach gives b = n - 1.  Otherwise the offsets k with a
    pair (i, i + k) within reach are 1, ..., b (if xs[i + k] is within
    reach of xs[i], so is xs[i + k - 1]), so b is found by testing
    k = 1, 2, ... until an offset has no such pair: b + 1 comparisons of
    slices, and no search.
    """
    n = xs.shape[0]
    if not np.isfinite(reach):
        return max(n - 1, 0)
    ends = _reach_end(xs, reach)
    k = 1
    while k < n and (xs[k:] <= ends[:-k]).any():
        k += 1
    return k - 1


# Largest n * b^2 (n points, band width b) a covariance band may have: the
# banded Cholesky of a Gaussian field costs about that many flops, and in
# d > 1, where the band is a strip across the window, b and the O(n b) band
# storage grow with the window's other sides.
FIELD_BAND_BUDGET = 1e9


def _band_matrix(pts: np.ndarray, b: int, cov: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``ab[k, i] = cov(||pts[i+k] - pts[i]||)`` for ``i + k < n``, zero elsewhere.

    A band with n b^2 above FIELD_BAND_BUDGET is rejected before it is built.
    """
    n = pts.shape[0]
    if n * b * b > FIELD_BAND_BUDGET:
        raise InputError(
            f"covariance band too large: {n} points with band width {b} give "
            f"n*b^2 = {float(n * b * b):.3g}, above the budget of "
            f"{FIELD_BAND_BUDGET:.0e}; use a smaller window, intensity or cov_range"
        )
    sq = np.zeros((b + 1, n))  # one diagonal k at a time, pts[i + k] - pts[i]
    for k in range(b + 1):
        dk = pts[k:] - pts[: n - k]
        sq[k, : n - k] = np.einsum("ij,ij->i", dk, dk)
    ab = np.array(cov(np.sqrt(sq)), dtype=np.float64)
    for k in range(1, b + 1):
        ab[k, n - k:] = 0.0
    return ab


def banded_covariance(
    locations: np.ndarray, cov: Callable[[np.ndarray], np.ndarray], reach: float
) -> tuple[np.ndarray, np.ndarray]:
    """Covariance of points sorted by first coordinate, in LAPACK lower banded storage.

    Returns (order, ab) with ``ab[k, i] = cov(||t[order[i+k]] - t[order[i]]||)``
    for ``i + k < n`` and zero padding elsewhere.  `cov` must vanish at
    distances beyond `reach`; the band width b (``ab.shape[0] - 1``) is the
    largest index gap between sorted points whose first coordinates lie
    within `reach`, so in d > 1 the band is a strip.  An infinite reach
    gives the full band.  Raises InputError when n b^2 exceeds
    FIELD_BAND_BUDGET.
    """
    order, pts, b = _sorted_band(np.asarray(locations, dtype=np.float64), reach)
    if pts.shape[0] == 0:
        return order, np.zeros((1, 0))
    return order, _band_matrix(pts, b, cov)


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def matern2_retained_intensity(proposal_intensity: float, min_dist: float, dim: int) -> float:
    """Intensity retained by the hardcore thinning of a Poisson proposal.

    With V the volume of the hardcore ball, the retained intensity is
    (1 - exp(-lambda_p V)) / V.
    """
    v = unit_ball_volume(dim) * min_dist**dim
    return -math.expm1(-proposal_intensity * v) / v


# ---------------------------------------------------------------------------
# Ground samplers
# ---------------------------------------------------------------------------


def _poisson_sampler(intensity: float, window: SimWindow) -> _Draw:
    """The draw of a Poisson ground on `window`, with its expected count computed once."""
    expected = intensity * window.volume
    with np.errstate(over="ignore"):  # then the volume is infinite, and the draw refuses it
        lo, extent = window.lo, window.hi - window.lo

    def draw(rng: np.random.Generator) -> np.ndarray:
        try:
            n = int(rng.poisson(expected))
        except ValueError as exc:  # lam too large (or infinite) for the generator
            raise InputError(
                f"cannot sample a Poisson ground with {expected:.3g} expected points "
                f"(intensity {intensity:.3g} on a window of volume {window.volume:.3g})"
            ) from exc
        # the same bits as rng.uniform(lo, hi, size), with less per-call overhead
        return lo + extent * rng.random((n, window.dim))

    return draw


def _thin_1d(x: np.ndarray, births: np.ndarray, d0: float) -> np.ndarray:
    """Keep mask of the hardcore thinning of 1-D proposals `x` with birth times `births`.

    Of each pair within `d0` the later-born point is dropped, with the
    kd-tree's test and tie rule: the pair is close when dx * dx <= d0 * d0,
    and on equal births the point of lower index goes.  After one sort,
    offset k tests only the pairs (i, i + k) of sorted points that were
    close at offset k - 1 (a farther pair cannot be closer), and its
    losers are cleared at once, so memory stays O(n) however many pairs
    are close.
    """
    n = x.shape[0]
    order = np.argsort(x)  # ties are close pairs in any order
    xs = x[order]
    keep = np.ones(n, dtype=bool)
    d2 = d0 * d0
    dx = xs[1:] - xs[:-1]  # offset 1 tests every point, on slices
    i = np.flatnonzero(dx * dx <= d2)
    k = 1
    while i.size:
        a, b = order[i], order[i + k]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keep[np.where(births[lo] < births[hi], hi, lo)] = False
        k += 1
        i = i[i < n - k]
        dx = xs[i + k] - xs[i]
        i = i[dx * dx <= d2]
    return keep


@functools.lru_cache(maxsize=8)
def _proposal_window(d0: float, lo: tuple[float, ...], hi: tuple[float, ...]) -> SimWindow:
    """The target box `lo`..`hi` grown by `d0` on every side, built once per (d0, box).

    Proposals extend d0 beyond the target box so that thinning near the
    boundary sees the same competition as in the interior.
    """
    return SimWindow(np.array(lo) - d0, np.array(hi) + d0)


def _hardcore_sampler(spec: HardcoreGround, window: SimWindow) -> _Draw:
    d0 = spec.min_dist
    proposals = _poisson_sampler(
        spec.proposal_intensity,
        _proposal_window(d0, tuple(window.lo.tolist()), tuple(window.hi.tolist())))
    lam_ret = matern2_retained_intensity(spec.proposal_intensity, d0, window.dim)
    sparse = lam_ret < 0.01 * spec.proposal_intensity

    def draw(rng: np.random.Generator) -> np.ndarray:
        props = proposals(rng)
        births = rng.uniform(size=props.shape[0])
        if sparse:
            warnings.warn(
                f"hardcore distance {d0} retains only {lam_ret:.3g} of "
                f"{spec.proposal_intensity:.3g} proposal intensity",
                stacklevel=3,
            )
        if props.shape[0] == 0:
            return props
        if window.dim == 1:
            keep = _thin_1d(props[:, 0], births, d0)
        else:
            from scipy.spatial import cKDTree

            pairs = cKDTree(props).query_pairs(d0, output_type="ndarray")
            keep = np.ones(props.shape[0], dtype=bool)
            if pairs.size:
                early = births[pairs[:, 0]] < births[pairs[:, 1]]
                keep[np.where(early, pairs[:, 1], pairs[:, 0])] = False
        retained = props[keep]
        return retained[window.contains(retained)]

    return draw


@functools.lru_cache(maxsize=8)
def _lattice(spacing: float, lo: tuple[float, ...], hi: tuple[float, ...]) -> np.ndarray:
    """Read-only lattice nodes of `spacing` anchored at `lo`, up to `hi` give or take rounding.

    Built once per (spacing, window): only the jitter differs between
    realizations.
    """
    axes = []
    for a, b in zip(lo, hi):
        count = int(np.floor((b - a) / spacing + 1e-9)) + 1
        axes.append(a + spacing * np.arange(count))
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    nodes.flags.writeable = False
    return nodes


def _grid_sampler(spec: GridGround, window: SimWindow) -> _Draw:
    nodes = _lattice(spec.spacing, tuple(window.lo.tolist()), tuple(window.hi.tolist()))

    def draw(rng: np.random.Generator) -> np.ndarray:
        pts = nodes
        if spec.jitter > 0:
            pts = nodes + rng.uniform(-spec.jitter, spec.jitter, size=nodes.shape)
        # lo + spacing * (count - 1) may round past hi even without jitter
        return pts[window.contains(pts)]

    return draw


def _ground_sampler(spec: GroundSpec, window: SimWindow) -> _Draw:
    """The draw of `spec`'s locations on `window`; what draws nothing is done once, here."""
    if np.any(window.hi <= window.lo):
        raise InputError("simulation window must be non-degenerate")
    if isinstance(spec, PoissonGround):
        return _poisson_sampler(spec.intensity, window)
    if isinstance(spec, HardcoreGround):
        return _hardcore_sampler(spec, window)
    if isinstance(spec, GridGround):
        return _grid_sampler(spec, window)
    raise InputError(f"unknown ground spec {spec!r}")


def sample_ground(spec: GroundSpec, sim_window: SimWindow, seed) -> np.ndarray:
    """Sample point locations on `sim_window`; deterministic given the seed."""
    return _ground_sampler(spec, sim_window)(_rng(seed))


# ---------------------------------------------------------------------------
# Mark samplers
# ---------------------------------------------------------------------------

_JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

def _cholesky_with_jitter(ab: np.ndarray, scale: float) -> np.ndarray:
    """Banded lower Cholesky factor of `ab`, adding diagonal jitter up to 1e-6 * scale if needed."""
    from scipy.linalg import lapack

    chol, info = lapack.dpbtrf(ab, lower=1)
    if info == 0:
        return chol
    for level in _JITTER_LADDER:
        jittered = ab.copy()
        jittered[0] += level * scale
        chol, info = lapack.dpbtrf(jittered, lower=1, overwrite_ab=1)
        if info == 0:
            return chol
    raise NumericError(
        "mark covariance matrix is not positive definite even after "
        f"diagonal jitter of 1e-6 * variance ({scale:.3g})"
    )


def _field(spec: GaussianFieldMarks, cov: Covariance, sd: float, xi: np.ndarray,
           order: np.ndarray, pts: np.ndarray, b: int) -> np.ndarray:
    """mean + L xi with L the banded Cholesky factor of the covariance `cov` of `pts`.

    `cov` is ``spec.covariance()`` and sd is sqrt(C(0)).  `pts` are the
    locations sorted by first coordinate (``locations[order]``), b is their
    band width, and xi[i] stays paired with point i.  When no two points
    are within the range (b = 0) L is the diagonal sd, so the draw is
    mean + sd * xi, computed without building the band or calling
    LAPACK; it is bit for bit what the factor gives.  Otherwise the cost
    is O(n b^2) time and O(n b) memory, and a field with n b^2 above
    FIELD_BAND_BUDGET is rejected before anything of that size is built.
    """
    if b == 0:
        return spec.mean + sd * xi
    n = xi.shape[0]
    chol = _cholesky_with_jitter(_band_matrix(pts, b, cov), spec.variance)
    v = xi[order]
    out = chol[0] * v
    for k in range(1, chol.shape[0]):
        out[k:] += chol[k, : n - k] * v[: n - k]
    y = np.empty(n)
    y[order] = spec.mean + out
    return y


def _y_sampler(spec: MarkSpec) -> _Draw:
    """The draw ``(rng, locations) -> y`` of the marks `spec`; a field's covariance is built once."""
    if isinstance(spec, IidMarks):
        if spec.distribution == "normal":
            mean, sd = spec.params
            return lambda rng, loc: rng.normal(mean, sd, size=loc.shape[0])
        if spec.distribution == "uniform":
            a, b = spec.params
            return lambda rng, loc: rng.uniform(a, b, size=loc.shape[0])
        return lambda rng, loc: np.full(loc.shape[0], spec.params[0])
    if isinstance(spec, GaussianFieldMarks):
        cov = spec.covariance()
        sd = np.sqrt(cov(0.0))
        return lambda rng, loc: _field(spec, cov, sd, rng.standard_normal(loc.shape[0]),
                                       *_sorted_band(loc, spec.cov_range))
    raise InputError(f"unknown mark spec {spec!r}")


def _z_sampler(z_rule: ZRule) -> _Draw:
    """The draw ``(rng, locations, y) -> z`` of the weight marks of `z_rule`."""
    if z_rule == "const_one":
        return lambda rng, loc, y: np.ones(loc.shape[0])
    if isinstance(z_rule, IidMarks):
        draw = _y_sampler(z_rule)

        def iid(rng, loc, y):
            z = draw(rng, loc)
            if np.any(z < 0):
                raise InputError("z_rule produced negative weight marks")
            return z
        return iid
    if callable(z_rule):
        return lambda rng, loc, y: np.asarray(z_rule(loc, y, rng), dtype=np.float64)
    raise InputError(f"unknown z_rule {z_rule!r}")


def sample_marks(
    locations: np.ndarray, spec: MarkSpec, seed, z_rule: ZRule = "const_one"
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (y, z) marks for the given locations; deterministic given the seed.

    iid marks are independent draws; Gaussian-field marks are one joint
    normal vector with covariance C(||t_i - t_j||).  The weight marks z
    default to 1; `z_rule` may be an :class:`IidMarks` law (independent of
    y) or a callable ``(locations, y, rng) -> z``.
    """
    rng = _rng(seed)
    locations = np.asarray(locations, dtype=np.float64)
    if locations.ndim == 1:
        locations = locations.reshape(-1, 1)
    y = _y_sampler(spec)(rng, locations)
    return y, _z_sampler(z_rule)(rng, locations, y)


# ---------------------------------------------------------------------------
# Finite ergodic mixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureClass:
    """One ergodic component: class probability, ground process, mark law."""

    p: float
    ground: GroundSpec
    marks: MarkSpec
    z_rule: ZRule = "const_one"

    def __post_init__(self):
        _store_floats(self, "p")
        if not np.isfinite(self.p) or self.p <= 0:
            raise InputError(f"class probability must be > 0, got {self.p}")


@dataclass(frozen=True)
class MixtureSpec:
    """A finite mixture of ergodic components on R^dim.

    Class probabilities must sum to one.
    """

    classes: tuple[MixtureClass, ...]
    dim: int = 1

    def __post_init__(self):
        classes = tuple(self.classes)
        if not classes:
            raise InputError("mixture needs at least one class")
        total = sum(c.p for c in classes)
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"class probabilities must sum to 1, got {total!r}")
        if self.dim < 1:
            raise InputError("dim must be >= 1")
        object.__setattr__(self, "classes", classes)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def probabilities(self) -> np.ndarray:
        return np.array([c.p for c in self.classes])


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx, after NEP 19):
# entropy words are hashed into a pool of 4 words, mixed, and read out.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.lru_cache(maxsize=8)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """Read-only column of init * mult^k mod 2^32, k = 0..count: the hash multipliers in order."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & _MASK32)
    column = np.array(c, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _stream_words(entropy: tuple[int, ...], n: int) -> np.ndarray:
    """Row i is ``SeedSequence(entropy + (i,)).generate_state(4, np.uint64)``, for i < n.

    The hash runs once for all n streams, in uint32 arithmetic on one
    column per stream.  Each int of `entropy` gives its little-endian
    32-bit words (0 gives one word); i < 2^32 gives one.
    """
    words = [v >> s & _MASK32 for v in entropy for s in range(0, max(v.bit_length(), 1), 32)]
    rows = np.zeros((max(len(words) + 1, _POOL), n), dtype=np.uint32)
    rows[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    rows[len(words)] = np.arange(n, dtype=np.uint32)
    # the rounds below take one hash per pool word and row
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * rows.shape[0])
    used = 0

    def hashmix(v, m):  # the next m hashes, one per row of the result
        nonlocal used
        v = (v ^ a[used:used + m]) * a[used + 1:used + m + 1]
        used += m
        return v ^ v >> 16

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> 16

    pool = hashmix(rows[:_POOL], _POOL)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for extra in rows[_POOL:]:
        pool = mix(pool, hashmix(extra, _POOL))
    # generate_state: 8 uint32 words cycling over the pool, read as 4 little-endian uint64
    b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    state = (pool[list(range(_POOL)) * 2] ^ b[:-1]) * b[1:]
    state ^= state >> 16
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _words_class():
    """A seed sequence that hands PCG64 precomputed words, defined on first use.

    Defining it needs numpy.random, which importing this module does not load.
    """
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        """The ``generate_state(4, np.uint64)`` of a seed sequence, computed beforehand."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _Words


def _entropy(seed) -> tuple[int, ...]:
    """`seed`, an int >= 0 or a tuple (or list) of them, as a tuple of ints."""
    parts = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0
               for v in parts):
        raise InputError(f"seed must be an integer >= 0 or a tuple of them, got {seed!r}")
    return tuple(int(v) for v in parts)


def _draws(spec: MixtureSpec, sim_window: SimWindow, n_realizations: int, seed):
    """The draw loop: an iterator over (class, locations, y, z) of each realization in turn.

    The arguments are checked, the streams' seed words computed for all
    realizations at once and each class's samplers set up once before
    this returns; each step of the iterator does only one realization's
    draws: its class, its ground, then its marks (a Gaussian field sorts
    its own points) and weights, in any dimension.
    """
    if n_realizations < 1:
        raise InputError("n_realizations must be >= 1")
    if sim_window.dim != spec.dim:
        raise InputError(f"window dim {sim_window.dim} != spec dim {spec.dim}")
    entropy = _entropy(seed)
    cum = np.cumsum(spec.probabilities()).tolist()
    last = spec.n_classes - 1
    grounds = [_ground_sampler(c.ground, sim_window) for c in spec.classes]
    marks = [_y_sampler(c.marks) for c in spec.classes]
    weights = [_z_sampler(c.z_rule) for c in spec.classes]
    words, generator, pcg64 = _words_class(), np.random.Generator, np.random.PCG64
    rows = _stream_words(entropy, n_realizations)

    def loop():
        for row in rows:
            rng = generator(pcg64(words(row)))
            k = min(bisect.bisect_right(cum, rng.random()), last)
            loc = grounds[k](rng)
            y = marks[k](rng, loc)
            z = weights[k](rng, loc, y)
            if y.shape != (loc.shape[0],) or z.shape != y.shape:
                raise InputError("y and z must be 1-d with one entry per point")
            yield k, loc, y, z

    return loop()


def _batch(draws: list, sim_window: SimWindow) -> PatternBatch:
    """The realizations `draws` of :func:`_draws` as one checked batch."""
    classes, locs, ys, zs = zip(*draws)
    starts = list(itertools.accumulate((y.size for y in ys), initial=0))
    return PatternBatch(_concat_frozen(locs), _concat_frozen(ys), _concat_frozen(zs), starts,
                        sim_window, classes)


def sample_batch(
    spec: MixtureSpec, sim_window: SimWindow, n_realizations: int, seed
) -> PatternBatch:
    """Draw independent realizations of the mixture as one :class:`PatternBatch`.

    For each realization a class is drawn with its probability, then the
    class's ground and marks are sampled.  The realized class indices are
    kept in ``batch.classes`` for oracle validation; estimators must not
    look at them.  `seed` is an int >= 0 or a tuple of them, and
    realization i draws from its own stream ``SeedSequence(seed + (i,))``
    (seed as a tuple), so outputs are bit-exact reproducible and
    realizations never share generator state.  The batch is checked once,
    with the messages of :class:`PointPattern`.  :func:`sample_blocks`
    draws the same realizations a block at a time.
    """
    return _batch(list(_draws(spec, sim_window, n_realizations, seed)), sim_window)


def sample_blocks(
    spec: MixtureSpec, sim_window: SimWindow, n_realizations: int, seed
) -> Iterator[PatternBatch]:
    """The realizations of :func:`sample_batch`, drawn and checked one block at a time.

    Yields checked :class:`PatternBatch` blocks of consecutive
    realizations, the blocks of the pair sweep: as many realizations as
    fit in ``_BLOCK_POINTS`` points, or one larger realization on its
    own.  Laid end to end they are ``sample_batch(spec, sim_window,
    n_realizations, seed)`` bit for bit, so a run that reduces each block
    and drops it holds one block's points at a time.  The arguments are
    checked on the call; a draw or a block that fails raises when it is
    reached, after the blocks before it were yielded.
    """
    draws = _draws(spec, sim_window, n_realizations, seed)
    pending = collections.deque()  # realizations drawn and not yet yielded

    def counts():
        for draw in draws:
            pending.append(draw)
            yield draw[2].shape[0]

    def blocks():
        # _blocks ends a block when it reads the count of the realization after it;
        # the block's draws leave `pending` before it is yielded, so that nothing
        # here holds a block while the next one is drawn
        for k0, k1 in _blocks(counts()):
            yield _batch([pending.popleft() for _ in range(k1 - k0)], sim_window)

    return blocks()


def sample_mixture(
    spec: MixtureSpec, sim_window: SimWindow, n_realizations: int, seed
) -> list[tuple[PointPattern, int]]:
    """:func:`sample_blocks`' realizations as a list of (pattern, class index) pairs."""
    return [(block.pattern(k), int(block.classes[k]))
            for block in sample_blocks(spec, sim_window, n_realizations, seed)
            for k in range(block.n_realizations)]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

MIXTURE_SCHEMA = {
    "type": "object",
    "required": ["classes"],
    "additionalProperties": False,
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "classes": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["p", "ground", "marks"],
                "additionalProperties": False,
                "properties": {
                    "p": {"type": "number", "exclusiveMinimum": 0},
                    "ground": {"type": "object", "required": ["kind"]},
                    "marks": {"type": "object", "required": ["kind"]},
                    "z_rule": {},
                },
            },
        },
    },
}


# Each JSON "kind" is a spec dataclass whose fields are its parameters, so
# an unknown or misspelt parameter is a TypeError of the constructor.
_GROUND_KINDS = {"poisson": PoissonGround, "hardcore": HardcoreGround, "grid": GridGround}
_MARK_KINDS = {"iid": IidMarks, "gaussian_field": GaussianFieldMarks}
_Z_RULE_KINDS = {"iid": IidMarks}
_KIND_NAMES = {cls: kind for kinds in (_GROUND_KINDS, _MARK_KINDS) for kind, cls in kinds.items()}


def _spec_to_json(spec) -> dict:
    kind = _KIND_NAMES.get(type(spec))
    if kind is None:
        raise InputError(f"{spec!r} cannot be serialized to JSON")
    return {"kind": kind, **asdict(spec)}


def _spec_from_json(d: dict, kinds: dict, what: str):
    params = dict(d)
    kind = params.pop("kind", None)
    if kind not in kinds:
        raise InputError(f"unknown {what} {kind!r}")
    return kinds[kind](**params)


def _z_rule_to_json(z: ZRule):
    if z == "const_one":
        return "const_one"
    if isinstance(z, IidMarks):
        return _spec_to_json(z)
    raise InputError("callable z_rule cannot be serialized to JSON")


def _z_rule_from_json(d) -> ZRule:
    if d == "const_one" or d is None:
        return "const_one"
    if isinstance(d, dict) and d.get("kind") in _Z_RULE_KINDS:
        return _spec_from_json(d, _Z_RULE_KINDS, "z_rule kind")
    raise InputError(f"unknown z_rule {d!r}")


def mixture_to_json(spec: MixtureSpec) -> dict:
    return {
        "dim": spec.dim,
        "classes": [
            {
                "p": c.p,
                "ground": _spec_to_json(c.ground),
                "marks": _spec_to_json(c.marks),
                "z_rule": _z_rule_to_json(c.z_rule),
            }
            for c in spec.classes
        ],
    }


# The Python types of the JSON Schema type names the schemas use
_TYPES = {"object": dict, "array": list, "string": str, "number": numbers.Number, "integer": int}
# each bound by the comparison that breaks it, so a NaN breaks none
_BOUNDS = {
    "minimum": (operator.lt, "{!r} is less than the minimum of {!r}"),
    "exclusiveMinimum": (operator.le, "{!r} is less than or equal to the minimum of {!r}"),
    "exclusiveMaximum": (operator.ge, "{!r} is greater than or equal to the maximum of {!r}"),
}


def _has_type(doc, name: str) -> bool:
    """JSON Schema's reading: a bool is none of these types, and 3.0 is an integer."""
    if name == "integer" and isinstance(doc, float):
        return doc.is_integer()
    return isinstance(doc, _TYPES[name]) and not isinstance(doc, bool)


def _schema_error(doc, schema: dict) -> str | None:
    """The first way `doc` breaks `schema`, worded as jsonschema words it, or None.

    Knows just the keywords of MIXTURE_SCHEMA and CONFIG_SCHEMA, as JSON Schema
    means them: an array, object or numeric keyword holds for a value of another
    type.  A node is checked before its children, in a recursion as deep as `schema`.
    """
    for key, arg in schema.items():
        if key == "type":
            names = [arg] if isinstance(arg, str) else arg
            if not any(_has_type(doc, name) for name in names):
                return f"{doc!r} is not of type {', '.join(map(repr, names))}"
        elif key == "enum" and doc not in arg:
            return f"{doc!r} is not one of {arg!r}"
        elif key in _BOUNDS and _has_type(doc, "number") and _BOUNDS[key][0](doc, arg):
            return _BOUNDS[key][1].format(doc, arg)
        elif key == "minItems" and isinstance(doc, list) and len(doc) < arg:
            return f"{doc!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems" and isinstance(doc, list) and len(doc) > arg:
            return f"{doc!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif key == "required" and isinstance(doc, dict) and not all(n in doc for n in arg):
            return f"{next(n for n in arg if n not in doc)!r} is a required property"
        elif key == "additionalProperties" and arg is False and isinstance(doc, dict):
            extras = sorted(doc.keys() - schema.get("properties", {}).keys(), key=str)
            if extras:
                return "Additional properties are not allowed ({} {} unexpected)".format(
                    ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
    children = ()
    if isinstance(doc, list) and "items" in schema:
        children = [(item, schema["items"]) for item in doc]
    elif isinstance(doc, dict) and "properties" in schema:
        children = [(doc[name], sub) for name, sub in schema["properties"].items() if name in doc]
    for child, sub in children:
        error = _schema_error(child, sub)
        if error is not None:
            return error
    return None


def mixture_from_json(doc: dict) -> MixtureSpec:
    error = _schema_error(doc, MIXTURE_SCHEMA)
    if error is not None:
        raise InputError(f"invalid mixture spec: {error}")
    try:
        classes = tuple(
            MixtureClass(
                p=c["p"],
                ground=_spec_from_json(c["ground"], _GROUND_KINDS, "ground kind"),
                marks=_spec_from_json(c["marks"], _MARK_KINDS, "marks kind"),
                z_rule=_z_rule_from_json(c.get("z_rule")),
            )
            for c in doc["classes"]
        )
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # a missing, unknown or mistyped parameter of a ground, mark or z_rule entry
        raise InputError(f"invalid mixture spec: {type(exc).__name__}: {exc}") from exc
    # an integral float is an integer to the schema; the spec and its digest take an int
    return MixtureSpec(classes=classes, dim=int(doc.get("dim", 1)))


def spec_digest(spec: MixtureSpec) -> str:
    """Stable sha256 digest of the canonical JSON form of a mixture spec."""
    blob = json.dumps(mixture_to_json(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()
