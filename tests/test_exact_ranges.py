"""Exact partner ranges of the sweep at float boundaries, bit for bit against per-pair sums.

The sweep finds each point's partners as one run of its block's sorted
order in d = 1, and as one run of its kd-tree partners in (i, j) order in
d > 1; for a first-only mark function it sums each point's value once
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
    NumericError,
    PatternBatch,
    PointPattern,
    SimWindow,
    Window,
    band_pair_indices,
    buffered_window,
    builtin,
    core,
    make_mark_function,
    mixture_from_json,
    pair_table,
    sample_batch,
    threshold_family,
)
from mppstat.est import _pair_tables
from mppstat.infer import threshold_sums

from helpers import random_pattern, reference_threshold_sums, snap_dyadic, sweep_order_pairs

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


# d > 1: ends on the dyadic grid's partner distances 0.5, 1 and 1.25,
# a band that holds 0, a single-distance band and bands infinite above
ND_BANDS = [Band.absolute(0.5, 1.25), Band.absolute(0.0, 1.0), Band.absolute(0.5, 0.5),
            Band.absolute(1.25, INF), Band.absolute(0.0, INF)]


def _realization_nd(rng: np.random.Generator, dim: int, kind: str) -> np.ndarray:
    if kind == "grid":
        # a dyadic grid of step 0.25: partners exactly 0.5, 1 and 1.25
        # apart, along an axis and along a 3-4-5 diagonal
        cells = rng.choice(10**dim, size=int(rng.integers(2, 60)), replace=False)
        return np.stack(np.unravel_index(cells, (10,) * dim), axis=1) * 0.25
    # partners 0.5, 1 and 1.25 away, along an axis and a diagonal, with
    # the coordinate that moves most stepped up to 4 ulps either way
    scale = rng.choice([1.0, 1e3])
    base = snap_dyadic(scale * rng.uniform(0.0, 2.0, (int(rng.integers(1, 3)), dim)))
    diagonal = np.zeros(dim)
    diagonal[:2] = 0.6, 0.8
    near = [base]
    for b in base:
        for r in (0.5, 1.0, 1.25):
            axis = int(rng.integers(dim))
            for direction, moves in ((np.eye(dim)[axis], axis), (diagonal, 1)):
                c = np.tile(b + r * direction, (9, 1))
                c[:, moves] += np.arange(-4, 5) * np.spacing(c[:, moves])
                near.append(c)
    return rng.permutation(np.unique(np.concatenate(near), axis=0))


def adversarial_batch_nd(seed: int, dim: int, weights: str) -> tuple[PatternBatch, Window]:
    rng = np.random.default_rng(seed)
    locs = [_realization_nd(rng, dim, kind) for kind in ("grid", "ulps", "ulps")]
    loc = np.concatenate(locs)
    z = {"ones": np.ones(len(loc)), "float": rng.uniform(0.0, 2.0, len(loc))}[weights]
    batch = PatternBatch(loc, rng.normal(0.0, 3.0, len(loc)), z,
                         np.cumsum([0] + [len(a) for a in locs]),
                         SimWindow.cube(float(loc.min()) - 1.0, float(loc.max()) + 1.0, dim))
    return batch, Window(np.full(dim, 0.75 * float(loc.max())))


class TestTreeRanges:
    """In d > 1 the kd-tree's partner ranges give the naive pairs in (i, j) order, bit for bit."""

    @pytest.mark.parametrize("weights", ["ones", "float"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_tables_and_neighbours_equal_per_pair_sums(self, seed, dim, weights):
        batch, win = adversarial_batch_nd(seed, dim, weights)
        for f in FUNCTIONS:
            neighbors = [[] for _ in ND_BANDS]

            def visit(block, counts):
                for q, c in enumerate(counts):
                    neighbors[q].append(c)

            tables = _pair_tables(batch, win, ND_BANDS, f, visit=visit)
            assert_tables_are_per_pair_sums(batch, win, ND_BANDS, tables, f, neighbors)
        assert all(table.count.sum() > 0 for table in tables)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_band_pair_indices_come_in_i_j_order(self, seed, dim):
        batch, win = adversarial_batch_nd(seed, dim, "ones")
        for k in range(batch.n_realizations):
            p = batch.pattern(k)
            for band in ND_BANDS:
                got, want = band_pair_indices(p, win, band), sweep_order_pairs(p, win, band)
                assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()

    @pytest.mark.parametrize("big", [1e200, 1e307])
    def test_radius_past_1e154_takes_every_pair_as_a_candidate(self, big):
        # scipy squares the query radius; here the square overflows
        loc = np.array([[0.0, 0.0], [0.5, 0.5], [0.75, -big], [-big, big], [big, big]])
        p = PointPattern(loc, np.arange(5.0), np.ones(5), SimWindow.cube(-big, big, 2))
        win = Window([1.0, 1.0])
        for band in (Band.absolute(0.0, INF), Band.absolute(1.0, INF), Band.absolute(0.5, 1e300)):
            got, want = band_pair_indices(p, win, band), sweep_order_pairs(p, win, band)
            assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
            assert pair_table(p, win, band, builtin("product")).count.tolist() == [want[0].size]
            assert want[0].size > 0

    @pytest.mark.parametrize("arity", ["first-only", "both"])
    def test_non_finite_value_names_the_first_pair_in_i_j_order(self, arity):
        rng = np.random.default_rng(4)
        p = random_pattern(rng, 80, dim=2, extent=4.0, buffer=1.5)
        win, band = Window([4.0, 4.0]), Band.absolute(0.5, 1.5)
        ii, jj = sweep_order_pairs(p, win, band)
        # two points with partners; scipy's traversal reaches the later one first
        bad = np.unique(ii)[[3, 11]]
        y = np.where(np.isin(np.arange(p.n_points), bad), 4.0, 1.0)
        p = PointPattern(p.locations, y, p.z, p.sim_window)

        def inverse(y1, y2):
            with np.errstate(divide="ignore"):
                return 1.0 / (y1 - 4.0) + 0.0 * y2

        f = make_mark_function(inverse, "inverse", arity)
        with pytest.raises(NumericError) as err:
            pair_table(p, win, band, f)
        i, j = bad[0], jj[ii == bad[0]][0]
        assert (f"(t1={tuple(p.locations[i].tolist())}, y1=4.0, z1={p.z[i]}) x "
                f"(t2={tuple(p.locations[j].tolist())}, y2={y[j]})") in str(err.value)


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
