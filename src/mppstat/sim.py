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

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import InputError, NumericError, PointPattern, SimWindow

__all__ = [
    "PoissonGround",
    "HardcoreGround",
    "GridGround",
    "IidMarks",
    "GaussianFieldMarks",
    "MixtureClass",
    "MixtureSpec",
    "Covariance",
    "covariance_model",
    "banded_covariance",
    "unit_ball_volume",
    "matern2_retained_intensity",
    "sample_ground",
    "sample_marks",
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


# ---------------------------------------------------------------------------
# Ground specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoissonGround:
    """Homogeneous Poisson process with the given intensity."""

    intensity: float

    def __post_init__(self):
        if not np.isfinite(self.intensity) or self.intensity <= 0:
            raise InputError(f"poisson intensity must be > 0, got {self.intensity}")


@dataclass(frozen=True)
class HardcoreGround:
    """Dependent thinning of a Poisson proposal; retained points are >= min_dist apart."""

    proposal_intensity: float
    min_dist: float

    def __post_init__(self):
        if not np.isfinite(self.proposal_intensity) or self.proposal_intensity <= 0:
            raise InputError("proposal intensity must be > 0")
        if not np.isfinite(self.min_dist) or self.min_dist <= 0:
            raise InputError("hardcore distance must be > 0")


@dataclass(frozen=True)
class GridGround:
    """Lattice with fixed spacing; each node jittered uniformly in [-jitter, jitter]^d.

    The lattice is anchored at the window's lower corner, so with zero
    jitter the output is fully deterministic.  Jittered nodes that leave
    the window are dropped.
    """

    spacing: float
    jitter: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.spacing) or self.spacing <= 0:
            raise InputError(f"grid spacing must be > 0, got {self.spacing}")
        if not np.isfinite(self.jitter) or self.jitter < 0:
            raise InputError(f"grid jitter must be >= 0, got {self.jitter}")
        if 2.0 * self.jitter >= self.spacing:
            raise InputError("jitter must satisfy 2*jitter < spacing to keep points distinct")


GroundSpec = Union[PoissonGround, HardcoreGround, GridGround]


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
        if not np.isfinite(self.variance) or self.variance <= 0:
            raise InputError("field variance must be > 0")
        if not np.isfinite(self.cov_range) or self.cov_range <= 0:
            raise InputError("covariance range must be > 0")
        if self.shape not in ("spherical", "trunc_exp"):
            raise InputError(f"unknown covariance shape {self.shape!r}")

    def covariance(self) -> Covariance:
        return covariance_model(self.shape, self.variance, self.cov_range)


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


def covariance_model(shape: str, variance: float, cov_range: float) -> Covariance:
    """The finite-range covariance model `shape` (see :class:`Covariance`)."""
    return Covariance(shape, variance, cov_range)


def _sorted_band(locations: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray, int]:
    """(order, points sorted by first coordinate, band width b) for a covariance of `reach`.

    b is the largest index gap between sorted points whose first
    coordinates lie within `reach`; an infinite reach gives b = n - 1.
    """
    order = np.argsort(locations[:, 0], kind="stable")
    pts = locations[order]
    n = pts.shape[0]
    if n == 0:
        return order, pts, 0
    if not np.isfinite(reach):
        return order, pts, n - 1
    xs = pts[:, 0]
    # Widened by a few ulps so that a pair at exactly `reach` (where
    # trunc_exp is still non-zero) is never lost to rounding of xs + reach.
    pad = 8.0 * np.spacing(np.abs(xs) + reach + 1.0)
    last = np.searchsorted(xs, xs + reach + pad, side="right") - 1
    return order, pts, int(np.max(last - np.arange(n)))


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
    idx = np.arange(n)[None, :] + np.arange(b + 1)[:, None]
    inside = idx < n
    diff = pts[np.minimum(idx, n - 1)] - pts[None, :, :]
    dist = np.sqrt(np.einsum("kij,kij->ki", diff, diff))
    return np.where(inside, np.asarray(cov(dist), dtype=np.float64), 0.0)


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


def _sample_poisson(intensity: float, window: SimWindow, rng: np.random.Generator) -> np.ndarray:
    expected = intensity * window.volume
    try:
        n = int(rng.poisson(expected))
    except ValueError as exc:  # lam too large (or infinite) for the generator
        raise InputError(
            f"cannot sample a Poisson ground with {expected:.3g} expected points "
            f"(intensity {intensity:.3g} on a window of volume {window.volume:.3g})"
        ) from exc
    return rng.uniform(window.lo, window.hi, size=(n, window.dim))


def _sample_hardcore(spec: HardcoreGround, window: SimWindow, rng: np.random.Generator) -> np.ndarray:
    from scipy.spatial import cKDTree

    d0 = spec.min_dist
    # Proposals extend d0 beyond the target box so that thinning near the
    # boundary sees the same competition as in the interior.
    proposal_win = SimWindow(window.lo - d0, window.hi + d0)
    props = _sample_poisson(spec.proposal_intensity, proposal_win, rng)
    births = rng.uniform(size=props.shape[0])
    lam_ret = matern2_retained_intensity(spec.proposal_intensity, d0, window.dim)
    if lam_ret < 0.01 * spec.proposal_intensity:
        warnings.warn(
            f"hardcore distance {d0} retains only {lam_ret:.3g} of "
            f"{spec.proposal_intensity:.3g} proposal intensity",
            stacklevel=3,
        )
    if props.shape[0] == 0:
        return props
    tree = cKDTree(props)
    pairs = tree.query_pairs(d0, output_type="ndarray")
    keep = np.ones(props.shape[0], dtype=bool)
    if pairs.size:
        early = births[pairs[:, 0]] < births[pairs[:, 1]]
        losers = np.where(early, pairs[:, 1], pairs[:, 0])
        keep[losers] = False
    retained = props[keep]
    return retained[window.contains(retained)]


def _sample_grid(spec: GridGround, window: SimWindow, rng: np.random.Generator) -> np.ndarray:
    axes = []
    for lo, hi in zip(window.lo, window.hi):
        count = int(np.floor((hi - lo) / spec.spacing + 1e-9)) + 1
        axes.append(lo + spec.spacing * np.arange(count))
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    if spec.jitter > 0:
        nodes = nodes + rng.uniform(-spec.jitter, spec.jitter, size=nodes.shape)
        nodes = nodes[window.contains(nodes)]
    return nodes


def sample_ground(spec: GroundSpec, sim_window: SimWindow, seed) -> np.ndarray:
    """Sample point locations on `sim_window`; deterministic given the seed."""
    if np.any(sim_window.hi <= sim_window.lo):
        raise InputError("simulation window must be non-degenerate")
    rng = _rng(seed)
    if isinstance(spec, PoissonGround):
        return _sample_poisson(spec.intensity, sim_window, rng)
    if isinstance(spec, HardcoreGround):
        return _sample_hardcore(spec, sim_window, rng)
    if isinstance(spec, GridGround):
        return _sample_grid(spec, sim_window, rng)
    raise InputError(f"unknown ground spec {spec!r}")


# ---------------------------------------------------------------------------
# Mark samplers
# ---------------------------------------------------------------------------

_JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

def _cholesky_with_jitter(ab: np.ndarray, scale: float) -> np.ndarray:
    """Banded lower Cholesky factor of `ab`, adding diagonal jitter up to 1e-6 * scale if needed."""
    import scipy.linalg

    try:
        return scipy.linalg.cholesky_banded(ab, lower=True)
    except np.linalg.LinAlgError:
        pass
    for level in _JITTER_LADDER:
        jittered = ab.copy()
        jittered[0] += level * scale
        try:
            return scipy.linalg.cholesky_banded(jittered, lower=True)
        except np.linalg.LinAlgError:
            continue
    raise NumericError(
        "mark covariance matrix is not positive definite even after "
        f"diagonal jitter of 1e-6 * variance ({scale:.3g})"
    )


def _sample_field(
    spec: GaussianFieldMarks, locations: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """mean + L xi with L the banded Cholesky factor of the sorted covariance.

    xi[i] stays paired with point i.  When no two points are within the
    range (band width b = 0) L is the diagonal sqrt(C(0)), so the draw is
    mean + sqrt(C(0)) * xi, computed without building the band or calling
    LAPACK; it is bit for bit what the factor gives.  Otherwise the cost
    is O(n b^2) time and O(n b) memory, and a field with n b^2 above
    FIELD_BAND_BUDGET is rejected before anything of that size is built.
    """
    n = locations.shape[0]
    xi = rng.standard_normal(n)
    cov = spec.covariance()
    order, pts, b = _sorted_band(locations, spec.cov_range)
    if b == 0:
        return spec.mean + np.sqrt(cov(0.0)) * xi
    chol = _cholesky_with_jitter(_band_matrix(pts, b, cov), spec.variance)
    v = xi[order]
    out = chol[0] * v
    for k in range(1, chol.shape[0]):
        out[k:] += chol[k, : n - k] * v[: n - k]
    y = np.empty(n)
    y[order] = spec.mean + out
    return y


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
    n = locations.shape[0]
    if isinstance(spec, IidMarks):
        if spec.distribution == "normal":
            y = rng.normal(spec.params[0], spec.params[1], size=n)
        elif spec.distribution == "uniform":
            y = rng.uniform(spec.params[0], spec.params[1], size=n)
        else:
            y = np.full(n, spec.params[0])
    elif isinstance(spec, GaussianFieldMarks):
        y = _sample_field(spec, locations, rng)
    else:
        raise InputError(f"unknown mark spec {spec!r}")

    if z_rule == "const_one":
        z = np.ones(n)
    elif isinstance(z_rule, IidMarks):
        z, _ = sample_marks(locations, z_rule, rng)
        if np.any(z < 0):
            raise InputError("z_rule produced negative weight marks")
    elif callable(z_rule):
        z = np.asarray(z_rule(locations, y, rng), dtype=np.float64)
    else:
        raise InputError(f"unknown z_rule {z_rule!r}")
    return y, z


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


def sample_mixture(
    spec: MixtureSpec, sim_window: SimWindow, n_realizations: int, seed
) -> list[tuple[PointPattern, int]]:
    """Draw independent realizations of the mixture.

    For each realization a class is drawn with its probability, then the
    class's ground and marks are sampled.  The realized class index is
    returned for oracle validation; estimators must not look at it.
    Realization i uses the seed stream (seed, i) (`seed` may be an int or
    a tuple of ints), so outputs are bit-exact reproducible and
    realizations never share generator state.
    """
    if n_realizations < 1:
        raise InputError("n_realizations must be >= 1")
    if sim_window.dim != spec.dim:
        raise InputError(f"window dim {sim_window.dim} != spec dim {spec.dim}")
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    cum = np.cumsum(spec.probabilities())
    out = []
    for i in range(n_realizations):
        rng = np.random.default_rng(np.random.SeedSequence(entropy + (i,)))
        k = int(np.searchsorted(cum, rng.random(), side="right"))
        k = min(k, spec.n_classes - 1)
        cls = spec.classes[k]
        locs = sample_ground(cls.ground, sim_window, rng)
        y, z = sample_marks(locs, cls.marks, rng, z_rule=cls.z_rule)
        out.append((PointPattern(locs, y, z, sim_window), k))
    return out


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

MIXTURE_SCHEMA = {
    "type": "object",
    "required": ["classes"],
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "classes": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["p", "ground", "marks"],
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


def _ground_to_json(g: GroundSpec) -> dict:
    if isinstance(g, PoissonGround):
        return {"kind": "poisson", "intensity": g.intensity}
    if isinstance(g, HardcoreGround):
        return {
            "kind": "hardcore",
            "proposal_intensity": g.proposal_intensity,
            "min_dist": g.min_dist,
        }
    return {"kind": "grid", "spacing": g.spacing, "jitter": g.jitter}


def _ground_from_json(d: dict) -> GroundSpec:
    kind = d.get("kind")
    if kind == "poisson":
        return PoissonGround(d["intensity"])
    if kind == "hardcore":
        return HardcoreGround(d["proposal_intensity"], d["min_dist"])
    if kind == "grid":
        return GridGround(d["spacing"], d.get("jitter", 0.0))
    raise InputError(f"unknown ground kind {kind!r}")


def _marks_to_json(m: MarkSpec) -> dict:
    if isinstance(m, IidMarks):
        return {"kind": "iid", "distribution": m.distribution, "params": list(m.params)}
    return {
        "kind": "gaussian_field",
        "mean": m.mean,
        "variance": m.variance,
        "cov_range": m.cov_range,
        "shape": m.shape,
    }


def _marks_from_json(d: dict) -> MarkSpec:
    kind = d.get("kind")
    if kind == "iid":
        return IidMarks(d["distribution"], tuple(d["params"]))
    if kind == "gaussian_field":
        return GaussianFieldMarks(
            d["mean"], d["variance"], d["cov_range"], d.get("shape", "spherical")
        )
    raise InputError(f"unknown marks kind {kind!r}")


def _z_rule_to_json(z: ZRule):
    if z == "const_one":
        return "const_one"
    if isinstance(z, IidMarks):
        return {"kind": "iid", "distribution": z.distribution, "params": list(z.params)}
    raise InputError("callable z_rule cannot be serialized to JSON")


def _z_rule_from_json(d) -> ZRule:
    if d == "const_one" or d is None:
        return "const_one"
    if isinstance(d, dict) and d.get("kind") == "iid":
        return IidMarks(d["distribution"], tuple(d["params"]))
    raise InputError(f"unknown z_rule {d!r}")


def mixture_to_json(spec: MixtureSpec) -> dict:
    return {
        "dim": spec.dim,
        "classes": [
            {
                "p": c.p,
                "ground": _ground_to_json(c.ground),
                "marks": _marks_to_json(c.marks),
                "z_rule": _z_rule_to_json(c.z_rule),
            }
            for c in spec.classes
        ],
    }


_VALIDATORS: dict[int, object] = {}


def _schema_error(doc, schema: dict):
    """The error `jsonschema.validate(doc, schema)` would raise, or None.

    `schema` must be a module constant: its validator is built, and the
    schema checked against its metaschema, on first use only.
    """
    import jsonschema

    validator = _VALIDATORS.get(id(schema))
    if validator is None:
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        validator = _VALIDATORS[id(schema)] = cls(schema)
    return jsonschema.exceptions.best_match(validator.iter_errors(doc))


def mixture_from_json(doc: dict) -> MixtureSpec:
    error = _schema_error(doc, MIXTURE_SCHEMA)
    if error is not None:
        raise InputError(f"invalid mixture spec: {error.message}")
    try:
        classes = tuple(
            MixtureClass(
                p=c["p"],
                ground=_ground_from_json(c["ground"]),
                marks=_marks_from_json(c["marks"]),
                z_rule=_z_rule_from_json(c.get("z_rule")),
            )
            for c in doc["classes"]
        )
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # a missing or mistyped parameter of a ground, mark or z_rule entry
        raise InputError(f"invalid mixture spec: {type(exc).__name__}: {exc}") from exc
    return MixtureSpec(classes=classes, dim=doc.get("dim", 1))


def spec_digest(spec: MixtureSpec) -> str:
    """Stable sha256 digest of the canonical JSON form of a mixture spec."""
    blob = json.dumps(mixture_to_json(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()
