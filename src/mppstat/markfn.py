"""Mark functions: pairwise functions of marks and the threshold-excess family.

A :class:`MarkFunction` maps a pair of primary marks (y1, y2) to a value;
estimators sum z1 * f(y1, y2) over point pairs.  The built-in functions
cover the classical second-order statistics (mark product, first mark,
squared first mark, constant one).  :class:`ThresholdFamily` bundles the
excess (f(y) - u)_+ and the exceedance indicator 1_{f(y) > u} used by the
inference module.

Mark functions are immutable; their `fn` must be reentrant and accept
numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import InputError, _floats, _reject_bools

__all__ = [
    "MarkFunction",
    "ThresholdFamily",
    "builtin",
    "make_mark_function",
    "indicator_pair",
    "threshold_family",
    "resolve",
]

FIRST_ONLY = "first-only"
BOTH = "both"

_PROBE_Y1 = (0.37, -1.6, 4.25)
_PROBE_Y2 = (-2.2, 0.0, 3.3)


@dataclass(frozen=True)
class MarkFunction:
    """A named function of a mark pair.

    `arity` is "first-only" when the value ignores y2 (verified by probing
    at construction) and "both" otherwise.  Values are expected to be
    non-negative for the plain mean-mark statistics; the estimators also
    accept signed functions, which is needed for centered statistics.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    arity: str = BOTH

    def __call__(self, y1, y2) -> np.ndarray:
        y1 = np.asarray(y1, dtype=np.float64)
        y2 = np.asarray(y2, dtype=np.float64)
        return np.asarray(self.fn(y1, y2), dtype=np.float64)

    def first(self, y) -> np.ndarray:
        """Evaluate a first-only function at a single mark."""
        if self.arity != FIRST_ONLY:
            raise InputError(f"mark function {self.name!r} depends on both marks")
        return self(y, y)


def _check_first_only(fn: Callable, name: str) -> None:
    for y1 in _PROBE_Y1:
        vals = {float(np.asarray(fn(np.float64(y1), np.float64(y2)))) for y2 in _PROBE_Y2}
        if len(vals) > 1:
            raise InputError(f"mark function {name!r} declared first-only but uses y2")


def make_mark_function(fn: Callable, name: str, arity: str = BOTH) -> MarkFunction:
    """Wrap a user callable, which must accept numpy arrays, as a MarkFunction."""
    if arity not in (FIRST_ONLY, BOTH):
        raise InputError(f"arity must be {FIRST_ONLY!r} or {BOTH!r}, got {arity!r}")
    if arity == FIRST_ONLY:
        _check_first_only(fn, name)
    return MarkFunction(name=name, fn=fn, arity=arity)


def _product(y1, y2):
    return y1 * y2


def _first(y1, y2):
    return np.asarray(y1, dtype=np.float64) + 0.0


def _first_squared(y1, y2):
    return np.asarray(y1, dtype=np.float64) ** 2


def _const_one(y1, y2):
    return np.ones_like(np.asarray(y1, dtype=np.float64))


_BUILTINS = {
    "product": MarkFunction("product", _product, BOTH),
    "first": MarkFunction("first", _first, FIRST_ONLY),
    "first_squared": MarkFunction("first_squared", _first_squared, FIRST_ONLY),
    "const_one": MarkFunction("const_one", _const_one, FIRST_ONLY),
}


def builtin(name: str) -> MarkFunction:
    """Return a built-in mark function: product, first, first_squared or const_one."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise InputError(
            f"unknown mark function {name!r}; expected one of {sorted(_BUILTINS)}"
        ) from None


def indicator_pair(
    a_lo: float = -np.inf, a_hi: float = np.inf, b_lo: float = -np.inf, b_hi: float = np.inf
) -> MarkFunction:
    """Indicator 1{y1 in [a_lo, a_hi]} * 1{y2 in [b_lo, b_hi]}.

    Infinite endpoints are allowed; [-inf, inf] on both marks gives the
    constant-one function.
    """
    a_lo, a_hi, b_lo, b_hi = _floats(
        {"a_lo": a_lo, "a_hi": a_hi, "b_lo": b_lo, "b_hi": b_hi}, "indicator_pair").values()
    if np.isnan(a_lo) or np.isnan(a_hi) or np.isnan(b_lo) or np.isnan(b_hi):
        raise InputError("interval endpoints must not be NaN")
    if a_lo > a_hi or b_lo > b_hi:
        raise InputError(
            f"inverted interval: A=[{a_lo}, {a_hi}], B=[{b_lo}, {b_hi}]"
        )

    def fn(y1, y2):
        ok = (y1 >= a_lo) & (y1 <= a_hi) & (y2 >= b_lo) & (y2 <= b_hi)
        return ok.astype(np.float64)

    name = f"indicator[{a_lo},{a_hi}]x[{b_lo},{b_hi}]"
    return MarkFunction(name, fn, BOTH)


@dataclass(frozen=True)
class ThresholdFamily:
    """Excess and exceedance indicator of a first-only mark function at level u.

    excess(y)    = (f(y) - u) * 1{f(y) > u}   (non-negative)
    indicator(y) = 1{f(y) > u}                (strict inequality)

    The algebraic identity excess(y) + u * indicator(y) = f(y) * indicator(y)
    holds for every y.
    """

    base: MarkFunction
    u: float

    def __post_init__(self):
        object.__setattr__(self, "u", _floats({"u": self.u}, "threshold_family")["u"])
        if self.base.arity != FIRST_ONLY:
            raise InputError("threshold families require a first-only base function")
        if not np.isfinite(self.u) or self.u < 0:
            raise InputError(f"threshold u must be finite and >= 0, got {self.u}")

    def excess(self, y) -> np.ndarray:
        v = self.base.first(y)
        return np.maximum(v - self.u, 0.0)

    def indicator(self, y) -> np.ndarray:
        """1{f(y) > u} as a bool array, which sums and multiplies as 0 and 1."""
        return self.base.first(y) > self.u

    def excess_fn(self) -> MarkFunction:
        """The excess as a pair function of y1 (ignores y2)."""
        return MarkFunction(
            f"excess[{self.base.name},u={self.u}]",
            lambda y1, y2: self.excess(y1),
            FIRST_ONLY,
        )


def threshold_family(base: MarkFunction, u: float) -> ThresholdFamily:
    """Build the threshold-excess family for `base` at level u >= 0."""
    return ThresholdFamily(base=base, u=u)


# ---------------------------------------------------------------------------
# Config descriptors
# ---------------------------------------------------------------------------


def _threshold_excess(base: str = "first", u: float = 0.0) -> MarkFunction:
    return threshold_family(builtin(base), u).excess_fn()


# parametrized functions by config name; their keyword parameters are the config keys
_FAMILIES = {"indicator_pair": indicator_pair, "threshold_excess": _threshold_excess}


def resolve(descriptor: dict) -> MarkFunction:
    """Build a MarkFunction from a config descriptor {"name": ..., **params}.

    An unknown or misspelt parameter is an InputError naming it.
    """
    if "name" not in descriptor:
        raise InputError("mark function descriptor needs a 'name' key")
    params = {k: v for k, v in descriptor.items() if k != "name"}
    name = descriptor["name"]
    if not isinstance(name, str):
        raise InputError(f"mark function name must be a string, got {name!r}")
    if name in _BUILTINS:
        if params:
            raise InputError(f"built-in mark function {name!r} takes no parameters")
        return builtin(name)
    if name not in _FAMILIES:
        raise InputError(f"unknown mark function {name!r}")
    _reject_bools(params, f"mark function {name!r}")
    try:
        return _FAMILIES[name](**params)
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        # a misspelt parameter, or one of the wrong type (a list where a number belongs)
        raise InputError(f"mark function {name!r}: {exc}") from exc
