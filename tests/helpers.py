"""Shared builders for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mppstat import (
    Band, PatternBatch, PointPattern, SimWindow, band_pair_indices_naive, sample_ground,
    sample_marks,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# Grid unit for fixtures that need exact float arithmetic: sums and
# differences of multiples of 2^-20 below 2^20 are representable exactly.
DYADIC = 2.0**-20


def pattern_1d(x, y=None, z=None, lo=None, hi=None) -> PointPattern:
    """One-dimensional pattern with defaulted marks and a snug window."""
    x = np.asarray(x, dtype=float)
    if y is None:
        y = np.ones_like(x)
    if z is None:
        z = np.ones_like(x)
    if lo is None:
        lo = float(x.min()) if x.size else 0.0
    if hi is None:
        hi = float(x.max()) if x.size else 1.0
    return PointPattern(x, np.asarray(y, float), np.asarray(z, float), SimWindow.cube(lo, hi, 1))


def snap_dyadic(a: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(a, dtype=float) / DYADIC) * DYADIC


def random_pattern(
    rng: np.random.Generator,
    n: int,
    dim: int = 1,
    extent: float = 10.0,
    buffer: float = 2.0,
    dyadic: bool = False,
    positive_marks: bool = False,
) -> PointPattern:
    """Random simple pattern on [-buffer, extent+buffer]^dim."""
    while True:
        loc = rng.uniform(-buffer, extent + buffer, size=(n, dim))
        if dyadic:
            loc = snap_dyadic(loc)
        if n < 2:
            break
        order = np.lexsort(loc.T[::-1])
        srt = loc[order]
        if not np.any(np.all(srt[1:] == srt[:-1], axis=1)):
            break
    y = rng.uniform(1.0, 5.0, n) if positive_marks else rng.normal(0.0, 2.0, n)
    z = rng.uniform(0.0, 2.0, n)
    window = SimWindow.cube(-buffer, extent + buffer, dim)
    return PointPattern(loc, y, z, window)


def random_band(rng: np.random.Generator, dim: int = 1, max_reach: float = 3.0) -> Band:
    if dim == 1:
        a, b = np.sort(rng.uniform(-max_reach, max_reach, 2))
        return Band(float(a), float(b))
    a, b = np.sort(rng.uniform(0.0, max_reach, 2))
    return Band(float(a), float(b), signed=False)


def sorted_pairs(ii: np.ndarray, jj: np.ndarray) -> list[tuple[int, int]]:
    return sorted(zip(ii.tolist(), jj.tolist()))


def modules_after(code: str, cwd: Path, package: str) -> set[str]:
    """The modules of `package` a fresh interpreter has loaded after running `code`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    probe = ("\nimport sys\nprint(' '.join(m for m in sys.modules "
             f"if m.split('.')[0] == {package!r}))")
    proc = subprocess.run([sys.executable, "-c", code + probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def reference_batch(spec, window: SimWindow, n: int, seed) -> PatternBatch:
    """The mixture sampled one realization at a time, as sample_batch did before it batched.

    Realization i gets ``default_rng(SeedSequence(seed + (i,)))`` (seed as a
    tuple), draws its class, then its ground and marks with the
    per-realization samplers; a field sorts its own points.
    """
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    cum = np.cumsum(spec.probabilities())
    locs, ys, zs, classes = [], [], [], []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy + (i,)))
        k = min(int(np.searchsorted(cum, rng.random(), side="right")), spec.n_classes - 1)
        cls = spec.classes[k]
        loc = sample_ground(cls.ground, window, rng)
        y, z = sample_marks(loc, cls.marks, rng, z_rule=cls.z_rule)
        locs.append(loc)
        ys.append(y)
        zs.append(z)
        classes.append(k)
    starts = np.cumsum([0] + [y.size for y in ys])
    return PatternBatch(np.concatenate(locs), np.concatenate(ys), np.concatenate(zs), starts,
                        window, classes)


def assert_same_batch(batch: PatternBatch, expected: PatternBatch) -> None:
    """Equal bit for bit: every column, the realization bounds and the classes."""
    for column in ("locations", "y", "z", "starts", "classes"):
        got, want = getattr(batch, column), getattr(expected, column)
        assert got.dtype == want.dtype and got.shape == want.shape, column
        assert got.tobytes() == want.tobytes(), column


def sweep_order_pairs(pattern: PointPattern, win, band: Band) -> tuple[np.ndarray, np.ndarray]:
    """The naive pairs of one pattern in the order of a sweep over it alone.

    i ascends and, for each i, j follows the order of x in d = 1 (a
    stable sort) and ascends in d > 1: (i, j) order.
    """
    rank = np.arange(pattern.n_points)
    if pattern.dim == 1:
        rank[np.argsort(pattern.locations[:, 0], kind="stable")] = np.arange(pattern.n_points)
    ii, jj = band_pair_indices_naive(pattern, win, band)
    in_order = np.lexsort((rank[jj], ii))
    return ii[in_order], jj[in_order]


def reference_threshold_sums(batch: PatternBatch, win, band: Band, family):
    """Per-realization (sum of excess(y1), sum of indicator(y1)), one pair at a time.

    Each realization's pairs come from the naive enumeration, put in the
    order of :func:`sweep_order_pairs`; each pair's terms are computed
    on its own, and the terms are summed by numpy in that order.
    """
    s, d = [], []
    for k in range(batch.n_realizations):
        p = batch.pattern(k)
        ii, _ = sweep_order_pairs(p, win, band)
        excess = [float(family.excess(p.y[i])) for i in ii.tolist()]
        indicator = [float(family.indicator(p.y[i])) for i in ii.tolist()]
        s.append(np.add.reduce(np.array(excess, dtype=np.float64)))
        d.append(np.add.reduce(np.array(indicator, dtype=np.float64)))
    return np.array(s, dtype=np.float64), np.array(d, dtype=np.float64)
