"""Exact partner ranges of the 1-D sweep at float boundaries, bit for bit against per-pair sums.

The sweep finds each point's partners as one run of its block's sorted
order and, for a first-only mark function, sums each point's value once
per partner without building a pair.  Every case here is compared with
the naive enumeration, put in the order of a sweep over each realization
alone, and summed one pair at a time.
"""

import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mppstat import (
    Band,
    PatternBatch,
    SimWindow,
    Window,
    band_pair_indices,
    band_pair_indices_naive,
    buffered_window,
    builtin,
    core,
    mixture_from_json,
    pair_table,
    sample_batch,
    threshold_family,
)
from mppstat.est import _pair_tables
from mppstat.infer import threshold_sums

from helpers import reference_threshold_sums

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FUNCTIONS = [builtin("first"), builtin("first_squared"), builtin("product")]
INF = np.inf
# ends on the grid's and the ulp cases' partner distances, bands that
# hold 0, single-point bands, and bands infinite at one or both ends
BANDS = [Band(0.5, 1.5), Band(-1.5, -0.5), Band(0.5, 0.5), Band(-0.5, -0.5), Band(-0.5, 0.5),
         Band(0.0, 0.0), Band(-1.0, 0.0), Band(0.0, 0.5), Band(0.5, INF), Band(-INF, -0.5),
         Band(-INF, 0.5), Band(-INF, INF)]


def _realization(rng: np.random.Generator, kind: str) -> np.ndarray:
    if kind == "grid":
        # partners exactly at the band ends
        return rng.choice(np.arange(-8, 40), size=int(rng.integers(0, 24)), replace=False) * 0.5
    if kind == "ulps":
        # partners within 4 ulps of x + 0.5 and of x - 0.5, at scales from 1e-3 to 1e12
        scale = rng.choice([1e-3, 1.0, 1e3, 1e12])
        base = scale * rng.uniform(1.0, 2.0, int(rng.integers(1, 4)))
        near = [b + s + k * np.spacing(b + s) for b in base for s in (0.5, -0.5)
                for k in range(-4, 5)]
        return rng.permutation(np.unique(np.concatenate((base, near))))
    # 1e-300 apart: shifted behind another realization, the points tie,
    # and the block is split into one block per realization
    return rng.permutation(int(rng.integers(1, 12))) * 1e-300


def adversarial_batch(seed: int, weights: str) -> tuple[PatternBatch, Window]:
    rng = np.random.default_rng(seed)
    xs = [_realization(rng, kind) for kind in
          rng.choice(["grid", "grid", "ulps", "ulps", "tiny"], int(rng.integers(1, 6)))]
    x = np.concatenate(xs)
    z = {"ones": np.ones(x.size), "zero_one": rng.choice([0.0, 1.0], x.size),
         "float": rng.uniform(0.0, 2.0, x.size)}[weights]
    budget = int(rng.choice([1, 24, 2048]))
    with mock.patch.object(core, "_BLOCK_POINTS", budget):
        batch = PatternBatch(x.reshape(-1, 1), rng.normal(0.0, 3.0, x.size), z,
                             np.cumsum([0] + [a.size for a in xs]),
                             SimWindow.cube(float(x.min()) - 1.0, float(x.max()) + 1.0, 1))
    return batch, Window(max(0.75 * float(x.max()), 1.0))


def sweep_order_pairs(pattern, win: Window, band: Band) -> tuple[np.ndarray, np.ndarray]:
    """The naive pairs of one pattern, i ascending, then j in the order of x."""
    x = pattern.locations[:, 0]
    rank = np.empty(x.size, dtype=np.int64)
    rank[np.argsort(x, kind="stable")] = np.arange(x.size)
    ii, jj = band_pair_indices_naive(pattern, win, band)
    in_order = np.lexsort((rank[jj], ii))
    return ii[in_order], jj[in_order]


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def assert_tables_are_per_pair_sums(batch, win, bands, tables, f, neighbors):
    for q, (band, table) in enumerate(zip(bands, tables)):
        num, den, count, counts = [], [], [], []
        for k in range(batch.n_realizations):
            p = batch.pattern(k)
            ii, jj = sweep_order_pairs(p, win, band)
            z1 = p.z[ii]
            num.append(np.add.reduce(z1 * f(p.y[ii], p.y[jj])))
            den.append(np.add.reduce(z1))
            count.append(ii.size)
            counts.append(np.bincount(ii, minlength=p.n_points))
        assert _bits(table.num) == _bits(num), (band, f.name)
        assert _bits(table.den) == _bits(den), (band, f.name)
        assert table.count.tolist() == count, band
        assert np.concatenate(neighbors[q]).tolist() == np.concatenate(counts).tolist(), band


class TestAdversarialRanges:
    @pytest.mark.parametrize("weights", ["ones", "zero_one", "float"])
    @pytest.mark.parametrize("seed", range(12))
    def test_tables_and_neighbours_equal_per_pair_sums(self, seed, weights):
        batch, win = adversarial_batch(seed, weights)
        for f in FUNCTIONS:
            neighbors = [[] for _ in BANDS]

            def visit(block, counts):
                for q, c in enumerate(counts):
                    neighbors[q].append(c)

            tables = _pair_tables(batch, win, BANDS, f, visit=visit)
            assert_tables_are_per_pair_sums(batch, win, BANDS, tables, f, neighbors)

    @pytest.mark.parametrize("seed", range(12))
    def test_band_pair_indices_come_in_sweep_order(self, seed):
        batch, win = adversarial_batch(seed, "ones")
        for k in range(batch.n_realizations):
            p = batch.pattern(k)
            for band in BANDS:
                got, want = band_pair_indices(p, win, band), sweep_order_pairs(p, win, band)
                assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("base", ["first", "first_squared"])
    def test_threshold_sums_equal_per_pair_sums(self, seed, base):
        batch, win = adversarial_batch(seed, "float")
        for u in (0.0, 1.0):
            family = threshold_family(builtin(base), u)
            for band in BANDS:
                s, d = threshold_sums(batch, win, band, family)
                ref_s, ref_d = reference_threshold_sums(batch, win, band, family)
                assert _bits(s) == _bits(ref_s) and _bits(d) == _bits(ref_d), band


class TestFloatWeights:
    def test_iid_weights_sum_in_pair_order(self):
        # z drawn iid uniform: each realization's z1 sum over hundreds to
        # thousands of pairs has the bits of numpy's pairwise sum in sweep
        # order only
        doc = json.loads((CONFIGS / "vwap_two_regimes.json").read_text())
        spec = mixture_from_json(doc["spec"])
        win, band = Window(doc["window"]), Band(0.0, 0.5)
        batch = sample_batch(spec, buffered_window(win, band), 12, 5)
        tables = [pair_table(batch, win, band, f) for f in FUNCTIONS]
        for f, table in zip(FUNCTIONS, tables):
            num, den = [], []
            for k in range(batch.n_realizations):
                p = batch.pattern(k)
                ii, jj = sweep_order_pairs(p, win, band)
                num.append(np.add.reduce(p.z[ii] * f(p.y[ii], p.y[jj])))
                den.append(np.add.reduce(p.z[ii]))
            assert _bits(table.num) == _bits(num) and _bits(table.den) == _bits(den), f.name
        assert tables[0].count.min() > 100


class TestPairMemory:
    def test_first_only_table_holds_no_pair_array(self):
        # about 2e6 pairs in one realization: the first-only table needs
        # one float64 a pair (the values it sums); building the pairs
        # took about 38 bytes a pair
        spec = mixture_from_json({"dim": 1, "classes": [{
            "p": 1.0, "ground": {"kind": "poisson", "intensity": 4.0},
            "marks": {"kind": "iid", "distribution": "normal", "params": [0.0, 1.0]},
            "z_rule": "const_one"}]})
        win, band = Window(1250.0), Band(0.5, 100.0)
        batch = sample_batch(spec, buffered_window(win, band), 1, 3)
        f = builtin("first")
        tracemalloc.start()
        try:
            table = pair_table(batch, win, band, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_pairs = int(table.count[0])
        assert 1.8e6 < n_pairs < 2.3e6
        assert peak < 12 * n_pairs, peak / n_pairs
        p = batch.pattern(0)
        ii, jj = sweep_order_pairs(p, win, band)
        assert ii.size == n_pairs
        assert _bits(table.num) == _bits([np.add.reduce(p.z[ii] * f(p.y[ii], p.y[jj]))])
        assert _bits(table.den) == _bits([np.add.reduce(p.z[ii])])
