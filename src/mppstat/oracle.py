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
    UnsupportedSpecError,
    Window,
    buffered_window,
)
from .est import pair_table
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
    sample_mixture,
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
    means = np.array([_mark_mean_f(c.marks, f, order) for c in spec.classes])
    weights = _class_weights(spec, order, band)
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
    means = np.array([_mark_mean_f(c.marks, f, order) for c in spec.classes])
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

    Simulates `n_mc` realizations on a buffered window and either pools
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
    patterns = [pattern for pattern, _ in sample_mixture(spec, sim_win, n_mc, seed)]
    if order == 2:
        table = pair_table(patterns, win, band, f)
        nums, dens = table.num, table.den
    else:
        nums = np.empty(n_mc)
        dens = np.empty(n_mc)
        for i, pattern in enumerate(patterns):
            inside = np.all(
                (pattern.locations >= 0.0) & (pattern.locations <= win.t), axis=1
            )
            y, z = pattern.y[inside], pattern.z[inside]
            nums[i] = float(np.sum(z * f(y, y)))
            dens[i] = float(np.sum(z))
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
    in simulation studies.
    """
    from scipy import integrate, stats

    if u < 0 or not np.isfinite(u):
        raise InputError(f"threshold must be finite and >= 0, got {u}")
    if base_name not in ("first", "first_squared"):
        raise UnsupportedSpecError(f"no threshold oracle for base {base_name!r}")
    def _constant_case(c: float) -> tuple[float, float]:
        g = c if base_name == "first" else c * c
        if g <= u:
            raise InputError("threshold above the entire mark distribution")
        return g - u, 1.0

    is_normal = False
    if isinstance(marks, GaussianFieldMarks):
        dist = stats.norm(marks.mean, math.sqrt(marks.variance))
        is_normal = True
    elif isinstance(marks, IidMarks):
        if marks.distribution == "normal":
            if marks.params[1] == 0.0:
                return _constant_case(marks.params[0])
            dist = stats.norm(marks.params[0], marks.params[1])
            is_normal = True
        elif marks.distribution == "uniform":
            a, b = marks.params
            if a == b:
                return _constant_case(a)
            dist = stats.uniform(a, b - a)
        else:
            return _constant_case(marks.params[0])
    else:
        raise UnsupportedSpecError(f"no threshold oracle for mark spec {marks!r}")

    if base_name == "first" and is_normal:
        m, s = float(dist.mean()), float(dist.std())
        a = (m - u) / s
        excess = (m - u) * stats.norm.cdf(a) + s * stats.norm.pdf(a)
        p = float(stats.norm.cdf(a))
    else:
        g = (lambda y: y) if base_name == "first" else (lambda y: y * y)
        lo, hi = float(dist.ppf(1e-14)), float(dist.ppf(1.0 - 1e-14))
        excess = integrate.quad(
            lambda y: max(g(y) - u, 0.0) * dist.pdf(y), lo, hi, limit=200
        )[0]
        p = integrate.quad(
            lambda y: float(g(y) > u) * dist.pdf(y), lo, hi, limit=200
        )[0]
    if p <= 0:
        raise InputError("threshold above the entire mark distribution")
    return float(excess / p), float(p)
