"""Ground-truth mean marks for finite mixtures: closed forms and Monte Carlo.

For mixtures whose classes have analytically tractable moments the two
targets are computed exactly:

* the intensity-weighted mixture mean, where each class enters with its
  first- or second-order pair intensity, and
* the class-averaged mean, which weighs every class by its probability
  alone.

Classes outside the analytic envelope (hardcore grounds at second order,
jittered grids, correlated marks under the product function, callable
weight rules) raise :class:`UnsupportedSpecError`; the Monte Carlo oracle
covers those by brute force and reports a jackknife standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Band,
    InputError,
    NumericError,
    UnsupportedSpecError,
    Window,
    buffered_window,
)
from .est import _slice_sums, pair_table
from .markfn import MarkFunction
from .sim import (
    GaussianFieldMarks,
    GridGround,
    HardcoreGround,
    IidMarks,
    MixtureClass,
    MixtureSpec,
    PoissonGround,
    matern2_retained_intensity,
    sample_blocks,
    unit_ball_volume,
)

__all__ = [
    "ClassMoments",
    "class_moments",
    "mixture_mean_mark",
    "class_averaged_mean_mark",
    "monte_carlo_mean_mark",
    "threshold_excess_mean",
]


@dataclass(frozen=True)
class ClassMoments:
    """Analytic moments of one mixture class.

    `intensity` is the expected point count per unit volume,
    `pair_intensity` maps a band to the expected ordered-pair count per
    unit volume, `mark_mean_f` is the expected mark-function value over a
    point (order 1) or pair (order 2), and `z_mean` the mean weight mark.
    """

    intensity: float
    pair_intensity: Callable[[Band], float]
    mark_mean_f: float
    z_mean: float


def _mark_moments(marks) -> tuple[float, float, bool]:
    """(mean, second moment, pairwise-independent) of the mark marginal."""
    if isinstance(marks, IidMarks):
        return marks.mean, marks.second_moment, True
    if isinstance(marks, GaussianFieldMarks):
        return marks.mean, marks.mean**2 + marks.variance, False
    raise UnsupportedSpecError(f"no closed-form moments for mark spec {marks!r}")


def _mark_mean_f(marks, f: MarkFunction, order: int) -> float:
    m1, m2, indep = _mark_moments(marks)
    if f.name == "const_one":
        return 1.0
    if f.name == "first":
        return m1
    if f.name == "first_squared":
        return m2
    if f.name == "product":
        if order == 1:
            raise InputError("the product function is a pair function; use order=2")
        if not indep:
            raise UnsupportedSpecError(
                "closed form for the mark product requires independent marks"
            )
        return m1 * m1
    raise UnsupportedSpecError(f"no closed-form mark mean for function {f.name!r}")


def _z_mean(z_rule) -> float:
    if z_rule == "const_one":
        return 1.0
    if isinstance(z_rule, IidMarks):
        return z_rule.mean
    raise UnsupportedSpecError("no closed-form mean for a callable z rule")


def _intensity(ground, dim: int) -> float:
    if isinstance(ground, PoissonGround):
        return ground.intensity
    if isinstance(ground, GridGround):
        return ground.spacing**-dim
    if isinstance(ground, HardcoreGround):
        return matern2_retained_intensity(ground.proposal_intensity, ground.min_dist, dim)
    raise UnsupportedSpecError(f"no intensity formula for ground {ground!r}")


def _pair_intensity_fn(ground, dim: int) -> Callable[[Band], float]:
    if isinstance(ground, PoissonGround):
        lam2 = ground.intensity**2

        def poisson_rate(band: Band) -> float:
            band.require_dim(dim)
            if dim == 1:
                return lam2 * band.length
            vd = unit_ball_volume(dim)
            return lam2 * vd * (band.hi**dim - band.lo**dim)

        return poisson_rate
    if isinstance(ground, GridGround):
        if dim != 1 or ground.jitter != 0.0:
            raise UnsupportedSpecError(
                "closed-form pair intensity needs an unjittered grid in d=1"
            )
        s = ground.spacing

        def grid_rate(band: Band) -> float:
            band.require_dim(1)
            k_lo = math.ceil(band.lo / s - 1e-9)
            k_hi = math.floor(band.hi / s + 1e-9)
            count = max(0, k_hi - k_lo + 1)
            if k_lo <= 0 <= k_hi:
                count -= 1
            return count / s

        return grid_rate
    raise UnsupportedSpecError(
        f"no closed-form pair intensity for ground {ground!r}; use the Monte Carlo oracle"
    )


def class_moments(cls: MixtureClass, f: MarkFunction, order: int, dim: int) -> ClassMoments:
    """Analytic moments of one class, or UnsupportedSpecError when none exist."""
    if order not in (1, 2):
        raise InputError(f"order must be 1 or 2, got {order}")
    return ClassMoments(
        intensity=_intensity(cls.ground, dim),
        pair_intensity=_pair_intensity_fn(cls.ground, dim) if order == 2 else (lambda band: 0.0),
        mark_mean_f=_mark_mean_f(cls.marks, f, order),
        z_mean=_z_mean(cls.z_rule),
    )


def _class_weights(spec: MixtureSpec, order: int, band: Band | None) -> np.ndarray:
    weights = np.empty(spec.n_classes)
    for k, cls in enumerate(spec.classes):
        if order == 1:
            rate = _intensity(cls.ground, spec.dim)
        else:
            if band is None:
                raise InputError("order-2 moments need a band")
            rate = _pair_intensity_fn(cls.ground, spec.dim)(band)
        weights[k] = cls.p * rate * _z_mean(cls.z_rule)
    return weights


def mixture_mean_mark(
    spec: MixtureSpec,
    f: MarkFunction,
    order: int,
    band: Band | None = None,
) -> float:
    """Intensity-weighted mixture mean mark.

    Each class's mark mean enters weighted by its class probability times
    its (pair) intensity times its mean weight mark; this is the target of
    the pooled estimators.
    """
    try:
        means = np.array([_mark_mean_f(c.marks, f, order) for c in spec.classes])
        weights = _class_weights(spec, order, band)
    except OverflowError as exc:  # a float power past the float range, e.g. intensity**2
        raise NumericError(f"closed-form mixture mean mark overflows: {exc}") from exc
    total = float(np.sum(weights))
    if not 0 < total < math.inf:
        raise InputError(f"mixture has total (pair) intensity {total} on this band")
    return float(np.sum(weights * means) / total)


def class_averaged_mean_mark(spec: MixtureSpec, f: MarkFunction, order: int) -> float:
    """Class-probability weighted mean mark, ignoring intensity differences.

    The target of the equally-weighted multi-realization estimator.  With
    the analytic classes supported here the per-class means do not vary
    over bands, so none is taken.
    """
    try:
        means = np.array([_mark_mean_f(c.marks, f, order) for c in spec.classes])
    except OverflowError as exc:
        raise NumericError(f"closed-form class-averaged mean mark overflows: {exc}") from exc
    probs = spec.probabilities()
    return float(np.sum(probs * means))


def _jackknife_se(replicates: np.ndarray) -> float:
    n = replicates.shape[0]
    if n < 2:
        return float("nan")
    mean = np.mean(replicates)
    return float(np.sqrt((n - 1) / n * np.sum((replicates - mean) ** 2)))


def monte_carlo_mean_mark(
    spec: MixtureSpec,
    f: MarkFunction,
    order: int,
    band: Band | None,
    n_mc: int,
    seed: int,
    win: Window | None = None,
    target: str = "pooled",
) -> tuple[float, float]:
    """Simulation oracle: (estimate, jackknife standard error).

    Simulates `n_mc` realizations on a buffered window, one block of
    :func:`~mppstat.sim.sample_blocks` at a time, and either pools
    numerator and denominator sums across realizations (``target="pooled"``,
    estimating the intensity-weighted mean) or averages the per-realization
    ratios (``target="classwise"``, estimating the class-averaged mean).
    Independent of the closed forms: sums are accumulated directly from
    the simulated points and, at order 2, read from the realizations'
    :func:`~mppstat.est.pair_table`.
    """
    if n_mc < 1000:
        raise InputError(f"the Monte Carlo oracle needs n_mc >= 1000, got {n_mc}")
    if target not in ("pooled", "classwise"):
        raise InputError(f"target must be 'pooled' or 'classwise', got {target!r}")
    if order == 2 and band is None:
        raise InputError("order-2 oracle needs a band")
    if win is None:
        win = Window(np.full(spec.dim, 20.0))
    sim_win = buffered_window(win, band) if order == 2 else win.box()
    blocks = sample_blocks(spec, sim_win, n_mc, seed)
    if order == 2:
        table = pair_table(blocks, win, band, f)
        nums, dens = table.num, table.den
    else:
        # each realization's sums over its own points in [0, T], a block at a time
        nums, dens = [], []
        for block in blocks:
            inside = win.contains(block.locations)
            ends = np.concatenate(([0], np.cumsum(inside)))[block.starts]
            y, z = block.y[inside], block.z[inside]
            nums.append(_slice_sums(z * f(y, y), ends))
            dens.append(_slice_sums(z, ends))
        nums, dens = np.concatenate(nums), np.concatenate(dens)
    if target == "pooled":
        s_num, s_den = np.sum(nums), np.sum(dens)
        if s_den == 0:
            raise InputError("oracle undefined: no (pair) mass in any realization")
        value = float(s_num / s_den)
        loo = (s_num - nums) / (s_den - dens)
        return value, _jackknife_se(loo)
    ok = dens > 0
    ratios = nums[ok] / dens[ok]
    n = ratios.shape[0]
    if n == 0:
        raise InputError("oracle undefined: every realization was empty")
    value = float(np.mean(ratios))
    loo = (np.sum(ratios) - ratios) / (n - 1)
    return value, _jackknife_se(loo)


def threshold_excess_mean(marks, base_name: str, u: float) -> tuple[float, float]:
    """(conditional mean excess given exceedance, exceedance probability).

    For the mark marginal of `marks` and g the identity ("first") or the
    square ("first_squared"), returns E[(g(Y)-u)_+] / P(g(Y) > u) and
    P(g(Y) > u).  Used as the true centering constant and coverage target
    in simulation studies.  Every case is a closed form (Johnson, Kotz &
    Balakrishnan, Continuous Univariate Distributions, vol. 1, 2nd ed.,
    ch. 13); below r = sqrt(u), Q = 1 - Phi and phi is the normal density.

    * Normal(m, s^2), g = y: a = (m - u)/s, P = Phi(a) and
      E[(Y - u)_+] = (m - u) P + s phi(a).
    * Normal(m, s^2), g = y^2: a+- = (+-r - m)/s, P = Q(a+) + Phi(a-) and
      E[(Y^2 - u)_+] = (m^2 + s^2 - u) P + s (m + r) phi(a+) - s (m - r) phi(a-).
    * Uniform(a, b): each piece [lo, hi] of [a, b] where g(y) > u (y > u
      for g = y; y > r and, mirrored by y -> -y, y < -r for g = y^2) adds
      w = (hi - lo)/(b - a) to P and w times the mean of g - u over the
      piece to the excess.  With alpha = lo - t and beta = hi - t, t = u or
      r, that mean is (alpha + beta)/2 for g = y and
      (alpha^2 + alpha beta + beta^2)/3 + r (alpha + beta) for g = y^2:
      non-negative terms, so nothing cancels.
    """
    if u < 0 or not np.isfinite(u):
        raise InputError(f"threshold must be finite and >= 0, got {u}")
    if base_name not in ("first", "first_squared"):
        raise UnsupportedSpecError(f"no threshold oracle for base {base_name!r}")
    if isinstance(marks, GaussianFieldMarks):
        law, params = "normal", (marks.mean, math.sqrt(marks.variance))
    elif isinstance(marks, IidMarks):
        law, params = marks.distribution, marks.params
    else:
        raise UnsupportedSpecError(f"no threshold oracle for mark spec {marks!r}")
    squared, r = base_name == "first_squared", math.sqrt(u)
    if law == "normal" and params[1] * params[1] != 0.0:
        from scipy.special import ndtr

        # The arithmetic of a frozen scipy.stats.norm: its mean is
        # 0 * scale + loc, which turns a mean of -0.0 into 0.0, its sd is
        # sqrt(scale^2), and the cdf and density of the standardized
        # thresholds are evaluated on arrays.
        loc, scale = params
        m, s = 0.0 * scale + loc, math.sqrt(scale * scale)
        a = np.array([(r - m) / s, (-r - m) / s] if squared else [(m - u) / s])
        phi = np.exp(-a**2 / 2.0) / np.sqrt(2 * np.pi)
        if squared:
            p = float(ndtr(-a[0]) + ndtr(a[1]))
            excess = (m * m + s * s - u) * p + s * (m + r) * phi[0] - s * (m - r) * phi[1]
        else:
            p = float(ndtr(a)[0])
            excess = (m - u) * p + s * phi[0]
    elif law == "uniform" and params[0] != params[1]:
        a, b = params
        t, p, excess = (r if squared else u), 0.0, 0.0
        for lo, hi in ((a, b), (-b, -a)) if squared else ((a, b),):
            lo = max(lo, t)
            if lo < hi:
                w, al, be = (hi - lo) / (b - a), lo - t, hi - t
                mean = ((al * al + al * be + be * be) / 3 + r * (al + be) if squared
                        else (al + be) / 2)
                p, excess = p + w, excess + w * mean
    else:  # a constant, or a normal or uniform law of no spread in floating point
        g = params[0] * params[0] if squared else params[0]
        p, excess = float(g > u), g - u
    if p <= 0:
        raise InputError("threshold above the entire mark distribution")
    return float(excess / p), float(p)
