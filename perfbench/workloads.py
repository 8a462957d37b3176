"""Workloads of the mppstat benchmark: generated configs, rounds of operations, output checks.

A workload writes its config from the run seed, then describes one round
as a list of operations: ``mppstat`` CLI commands, called in-process
through ``mppstat.cli.main``, and library calls.  Every round of a run
repeats the same inputs, so its outputs must repeat byte for byte.  The
checks compare the outputs of the first round with references that the
timed path does not use: brute-force O(n^2) pair sums computed here,
closed-form targets computed here from the spec, the library's naive
enumeration, and the Monte Carlo oracle.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mppstat import cli, core, markfn, oracle, sim

# Estimates must lie within Z_CHECK stated standard errors of a statistical
# target.  Six keeps a false alarm below about 1e-6 per check even for the
# 40-realization planar rounds, whose studentized errors have heavy tails.
Z_CHECK = 6.0
REL_EXACT = 1e-12  # same sums, other summation order
REL_RFVAR = 1e-10  # quadratic forms summed in another order
BLOCK = 256  # rows per block of the brute-force distance matrix


class OpFailed(Exception):
    """A CLI command exited non-zero or an operation raised."""


@dataclass
class Op:
    label: str  # unique within a round
    kind: str  # simulate | estimate | infer | report | oracle
    call: Callable[[Path], object]  # runs the operation, writing under the round dir
    outputs: Callable[[Path, object], bytes]  # canonical output bytes, for the digest


def derive_seed(seed: int, *keys: int) -> int:
    state = np.random.SeedSequence([seed % 2**63, *keys]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def run_cli(argv: list[str]) -> int:
    """Run one mppstat command in-process; its console output is discarded."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    if code != 0:
        raise OpFailed(f"mppstat {' '.join(argv[:2])} exited {code}: {buf.getvalue()[-400:]}")
    return code


def results_without_runtime(path: Path) -> bytes:
    rows = list(csv.reader(path.read_text(encoding="ascii").splitlines()))
    col = rows[0].index("runtime_ms")
    return "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows).encode()


def _files(*paths: Path) -> bytes:
    return b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in paths)


def _read_results(path: Path) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _pair_set(ij) -> set:
    return set(zip(ij[0].tolist(), ij[1].tolist()))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Brute-force references
# ---------------------------------------------------------------------------


def brute_pairs(pattern, t_extent: np.ndarray, lo: float, hi: float):
    """All ordered pairs (i, j), i != j, t_i in [0, T], displacement in [lo, hi].

    Evaluates every entry of the n x n displacement matrix, in row blocks
    so that memory stays O(BLOCK * n).
    """
    loc = pattern.locations
    n, dim = loc.shape
    t1_ok = np.all((loc >= 0.0) & (loc <= t_extent), axis=1)
    out_i, out_j = [], []
    for start in range(0, n, BLOCK):
        a = loc[start:start + BLOCK]
        if dim == 1:
            disp = loc[None, :, 0] - a[:, 0, None]
        else:
            diff = loc[None, :, :] - a[:, None, :]
            disp = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        keep = (disp >= lo) & (disp <= hi) & t1_ok[start:start + BLOCK, None]
        rows = np.arange(a.shape[0])
        keep[rows, start + rows] = False
        i, j = np.nonzero(keep)
        out_i.append(i + start)
        out_j.append(j)
    return np.concatenate(out_i), np.concatenate(out_j)


def brute_sums(pattern, t_extent, band):
    """(sum z1*y1, sum z1, pair count) for f = first, by brute force."""
    ii, _ = brute_pairs(pattern, t_extent, band[0], band[1])
    z1 = pattern.z[ii]
    return float(np.sum(z1 * pattern.y[ii])), float(np.sum(z1)), int(ii.size)


def _jackknife_se(values: np.ndarray) -> float:
    n = values.size
    return float(math.sqrt((n - 1) / n * np.sum((values - values.mean()) ** 2)))


def avg_and_se(ratios: np.ndarray) -> tuple[float, float]:
    return float(np.mean(ratios)), float(np.std(ratios, ddof=1) / math.sqrt(ratios.size))


def pooled_and_se(ratios: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Pair-count weighted mean of the ratios and its jackknife standard error."""
    wsum, total = float(np.sum(counts * ratios)), float(np.sum(counts))
    loo = (wsum - counts * ratios) / (total - counts)
    return wsum / total, _jackknife_se(loo)


def spherical_cov(h: np.ndarray, variance: float, cov_range: float) -> np.ndarray:
    u = np.minimum(np.abs(h) / cov_range, 1.0)
    return variance * (1.0 - 1.5 * u + 0.5 * u**3)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base class: subclasses set `name`, write `config` and build ops and checks."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.config: Path | None = None
        self.realizations = 0  # per round, simulated or read and then estimated
        self.units = 0  # per round, (realization, band) units that enumerate pairs
        self.write_config()

    def _write(self, name: str, config: dict) -> Path:
        path = self.workdir / name
        path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n", encoding="ascii")
        return path

    def write_config(self):
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, rdir: Path, values: dict) -> list[tuple[str, str, bool, str]]:
        """(op label, check name, passed, detail) for the outputs under rdir."""
        raise NotImplementedError


TWO_CLASS_SPEC = {
    "dim": 1,
    "classes": [
        {"p": 0.5, "ground": {"kind": "poisson", "intensity": 1.0},
         "marks": {"kind": "iid", "distribution": "normal", "params": [0.0, 1.0]},
         "z_rule": "const_one"},
        {"p": 0.5, "ground": {"kind": "poisson", "intensity": 4.0},
         "marks": {"kind": "iid", "distribution": "normal", "params": [10.0, 1.0]},
         "z_rule": "const_one"},
    ],
}


class Mixture1D(Workload):
    name = "mixture-1d"

    def write_config(self):
        self.n_commands, self.n_real = (4, 200) if self.size == "full" else (1, 40)
        self.window = 50.0
        self.bands = [(0.5, 1.5), (-1.5, -0.5)]
        self.config = self._write("mixture-1d.json", {
            "spec": TWO_CLASS_SPEC,
            "window": self.window,
            "bands": [list(b) for b in self.bands],
            "f": {"name": "first"},
            "estimators": [{"name": "avg"}, {"name": "pooled"},
                           {"name": "weighted", "weights": "alpha"},
                           {"name": "weighted", "weights": "count"}],
            "n_realizations": self.n_real,
            "n_replicates": 1,
            "seed": derive_seed(self.seed, 0),
        })
        self.cmd_seeds = [derive_seed(self.seed, 1, k) for k in range(self.n_commands)]
        self.realizations = self.n_commands * self.n_real
        self.units = self.realizations * len(self.bands)

    def ops(self):
        def estimate(k):
            def call(rdir):
                return run_cli(["estimate", "--config", str(self.config),
                                "--seed", str(self.cmd_seeds[k]), "--out", str(rdir / f"est{k}")])
            return Op(f"estimate#{k}", "estimate", call,
                      lambda rdir, _: results_without_runtime(rdir / f"est{k}" / "results.csv"))
        return [estimate(k) for k in range(self.n_commands)]

    def check(self, rdir, values):
        spec = sim.mixture_from_json(TWO_CLASS_SPEC)
        win = core.Window(self.window)
        t = win.t
        sim_win = core.buffered_window(win, [core.Band(*b) for b in self.bands])
        classes = TWO_CLASS_SPEC["classes"]
        rate2 = [c["p"] * c["ground"]["intensity"] ** 2 for c in classes]
        means = [c["marks"]["params"][0] for c in classes]
        mu = sum(r * m for r, m in zip(rate2, means)) / sum(rate2)
        mu_tilde = sum(c["p"] * m for c, m in zip(classes, means))
        out = []
        for k in range(self.n_commands):
            label = f"estimate#{k}"
            rows = _read_results(rdir / f"est{k}" / "results.csv")
            patterns = [p for p, _ in sim.sample_mixture(spec, sim_win, self.n_real,
                                                         (self.cmd_seeds[k], 0))]
            in_win = np.array([np.sum((p.locations[:, 0] >= 0) & (p.locations[:, 0] <= t[0]))
                               for p in patterns], dtype=float)
            out.append((label, "rows", len(rows) == 4 * len(self.bands), f"{len(rows)} rows"))
            for band in self.bands:
                sums = np.array([brute_sums(p, t, band) for p in patterns])
                ratios, counts = sums[:, 0] / sums[:, 1], sums[:, 2]
                by_name = {}
                for r in rows:
                    if (float(r["band_lo"]), float(r["band_hi"])) == band:
                        key = r["estimator"] if r["estimator"] != "weighted" else (
                            "alpha" if "alpha" not in by_name else "count")
                        by_name[key] = r
                avg, se_avg = avg_and_se(ratios)
                pooled, se_pooled = pooled_and_se(ratios, counts)
                count_w = float(np.sum(in_win * ratios) / np.sum(in_win))
                tag = f"band {band}"
                for key, ref in (("avg", avg), ("pooled", pooled), ("alpha", pooled),
                                 ("count", count_w)):
                    v = float(by_name[key]["value"])
                    out.append((label, f"{key} = brute force, {tag}", _close(v, ref, REL_EXACT),
                                f"{v!r} vs {ref!r}"))
                    n_pairs = int(by_name[key]["pair_count"])
                    out.append((label, f"{key} pair_count, {tag}", n_pairs == int(counts.sum()),
                                f"{n_pairs} vs {int(counts.sum())}"))
                v_p, v_a = float(by_name["pooled"]["value"]), float(by_name["alpha"]["value"])
                out.append((label, f"pooled = weighted/alpha, {tag}", _close(v_p, v_a, REL_EXACT),
                            f"{v_p!r} vs {v_a!r}"))
                for key, target, se, col in (("avg", mu_tilde, se_avg, "oracle_mu_tilde"),
                                             ("pooled", mu, se_pooled, "oracle_mu")):
                    col_v = float(by_name[key][col])
                    out.append((label, f"{col} = closed form, {tag}",
                                _close(col_v, target, REL_EXACT), f"{col_v!r} vs {target!r}"))
                    v = float(by_name[key]["value"])
                    out.append((label, f"{key} within {Z_CHECK:g} SE of {col}, {tag}",
                                abs(v - target) <= Z_CHECK * se,
                                f"|{v:.5g} - {target:.5g}| vs SE {se:.3g}"))
        return out


FIELD_SPEC = {
    "dim": 1,
    "classes": [
        {"p": 1.0, "ground": {"kind": "hardcore", "proposal_intensity": 4.0, "min_dist": 0.2},
         "marks": {"kind": "gaussian_field", "mean": 0.0, "variance": 1.0,
                   "cov_range": 1.0, "shape": "spherical"},
         "z_rule": "const_one"},
    ],
}


class Field1D(Workload):
    name = "field-1d"

    def write_config(self):
        self.window = 600.0 if self.size == "full" else 60.0
        self.n_real = 10 if self.size == "full" else 2
        self.n_seeds = 30  # the smallest count the config schema accepts
        self.band = (0.5, 1.5)
        self.config = self._write("field-1d.json", {
            "spec": FIELD_SPEC,
            "window": self.window,
            "bands": [list(self.band)],
            "f": {"name": "first"},
            "estimators": [{"name": "avg"}, {"name": "weighted", "weights": "rfvar"}],
            "n_realizations": self.n_real,
            "seed": derive_seed(self.seed, 0),
            "clt": {"u": 0.0, "level": 0.95, "n_seeds": self.n_seeds, "group_size": 30},
        })
        self.realizations = self.n_real + self.n_seeds
        self.units = self.n_real + self.n_seeds

    def ops(self):
        cfg = str(self.config)
        return [
            Op("estimate", "estimate",
               lambda rdir: run_cli(["estimate", "--config", cfg, "--out", str(rdir / "est"),
                                     "--cov-model", "spherical", "--cov-params", "1.0,1.0"]),
               lambda rdir, _: results_without_runtime(rdir / "est" / "results.csv")),
            Op("infer", "infer",
               lambda rdir: run_cli(["infer", "clt", "--config", cfg, "--out", str(rdir / "clt")]),
               lambda rdir, _: _files(rdir / "clt" / "clt_stats.csv")),
        ]

    def check(self, rdir, values):
        spec = sim.mixture_from_json(FIELD_SPEC)
        seed = json.loads(self.config.read_text())["seed"]
        win = core.Window(self.window)
        t = win.t
        sim_win = core.buffered_window(win, core.Band(*self.band))
        out = []
        rows = _read_results(rdir / "est" / "results.csv")
        patterns = [p for p, _ in sim.sample_mixture(spec, sim_win, self.n_real, (seed, 0))]
        ratios, inv_var = [], []
        for p in patterns:
            ii, _ = brute_pairs(p, t, *self.band)
            ratios.append(float(np.sum(p.y[ii])) / ii.size)
            n_nb = np.bincount(ii, minlength=p.n_points).astype(float)
            act = np.nonzero(n_nb > 0)[0]
            x, w = p.locations[act, 0], n_nb[act]
            quad = sum(float(w[s:s + BLOCK] @ spherical_cov(x[s:s + BLOCK, None] - x[None, :],
                                                            1.0, 1.0) @ w)
                       for s in range(0, act.size, BLOCK))
            inv_var.append(w.sum() ** 2 / quad)
        ratios, inv_var = np.array(ratios), np.array(inv_var)
        refs = {"avg": float(np.mean(ratios)),
                "weighted": float(np.sum(inv_var * ratios) / np.sum(inv_var))}
        out.append(("estimate", "rows", len(rows) == 2, f"{len(rows)} rows"))
        for r in rows:
            name, v = r["estimator"], float(r["value"])
            rel = REL_EXACT if name == "avg" else REL_RFVAR
            out.append(("estimate", f"{name} = brute force", _close(v, refs[name], rel),
                        f"{v!r} vs {refs[name]!r}"))

        text = (rdir / "clt" / "clt_stats.csv").read_text(encoding="ascii").splitlines()
        data = [line.split(",") for line in text[1:] if not line.startswith("#")]
        summary = dict(kv.split("=", 1) for kv in text[-1].split(",")[1:])
        s_hat = float(summary["s_hat"])
        out.append(("infer", "one row per seed",
                    [int(r[0]) for r in data] == list(range(self.n_seeds)), f"{len(data)} rows"))
        out.append(("infer", "finite s_hat", math.isfinite(s_hat) and s_hat > 0, f"{s_hat!r}"))
        center = math.sqrt(2.0 / math.pi)  # E[Y | Y > 0] for Y ~ N(0, 1)
        for i, (p, _) in enumerate(sim.sample_mixture(spec, sim_win, 5, seed)):
            ii, _ = brute_pairs(p, t, *self.band)
            y1 = p.y[ii]
            s, d = float(np.sum(np.maximum(y1, 0.0))), float(np.sum(y1 > 0.0))
            a_ref, a = s - center * d, float(data[i][1])
            ok = float(data[i][2]) == d and abs(a - a_ref) <= 1e-9 * (s + center * d)
            out.append(("infer", f"seed {i} pair sums = brute force", ok,
                        f"alpha* {a!r} vs {a_ref!r}, pairs {data[i][2]} vs {d}"))
        return out


PLANAR_SPEC = {
    "dim": 2,
    "classes": [
        # Mean z = 1 in both classes, so pooling z-weighted sums (the Monte
        # Carlo oracle) and pooling pair counts (the estimator) share a
        # target.  Both classes retain about 1.15 points per unit area, so a
        # round's work hardly depends on how many patterns each class gets.
        {"p": 0.5, "ground": {"kind": "hardcore", "proposal_intensity": 3.0, "min_dist": 0.5},
         "marks": {"kind": "iid", "distribution": "normal", "params": [0.0, 1.0]},
         "z_rule": {"kind": "iid", "distribution": "uniform", "params": [0.5, 1.5]}},
        {"p": 0.5, "ground": {"kind": "poisson", "intensity": 1.15},
         "marks": {"kind": "iid", "distribution": "normal", "params": [10.0, 1.0]},
         "z_rule": "const_one"},
    ],
}


class PlanarIO2D(Workload):
    name = "planar-io-2d"

    def write_config(self):
        self.window = 30.0 if self.size == "full" else 8.0
        self.oracle_window = 5.0 if self.size == "full" else 2.0
        self.n_real = 40
        self.n_estimates = 3  # estimate commands over the same pattern files
        self.n_mc = 1000  # the smallest count the oracle accepts
        self.band = (0.5, 1.5)
        self.config = self._write("planar-io-2d.json", {
            "spec": PLANAR_SPEC,
            "window": [self.window, self.window],
            "bands": [list(self.band)],
            "f": {"name": "first"},
            "estimators": [{"name": "avg"}, {"name": "pooled"}],
            "n_realizations": self.n_real,
            "seed": derive_seed(self.seed, 0),
        })
        self.oracle_seed = derive_seed(self.seed, 2)
        self.spec = sim.mixture_from_json(PLANAR_SPEC)
        self.realizations = self.n_estimates * self.n_real
        self.units = self.n_estimates * self.n_real + 2 * self.n_mc

    def _oracle(self, target):
        return oracle.monte_carlo_mean_mark(
            self.spec, markfn.builtin("first"), 2, core.Band.absolute(*self.band), self.n_mc,
            self.oracle_seed, win=core.Window([self.oracle_window] * 2), target=target)

    def ops(self):
        cfg = str(self.config)

        def estimate(k):
            def call(rdir):
                return run_cli(["estimate", "--config", cfg, "--patterns", str(rdir / "sim"),
                                "--out", str(rdir / f"est{k}")])
            return Op(f"estimate#{k}", "estimate", call,
                      lambda rdir, _: results_without_runtime(rdir / f"est{k}" / "results.csv"))

        return [
            Op("simulate", "simulate",
               lambda rdir: run_cli(["simulate", "--config", cfg, "--out", str(rdir / "sim")]),
               lambda rdir, _: _files(*sorted((rdir / "sim").iterdir()))),
            *[estimate(k) for k in range(self.n_estimates)],
            Op("report", "report",
               lambda rdir: run_cli(["report", "--results", str(rdir / "est0" / "results.csv"),
                                     "--out", str(rdir / "rep")]),
               lambda rdir, _: _files(*sorted((rdir / "rep").iterdir()))),
            Op("oracle/pooled", "oracle", lambda rdir: self._oracle("pooled"),
               lambda rdir, v: repr(v).encode()),
            Op("oracle/classwise", "oracle", lambda rdir: self._oracle("classwise"),
               lambda rdir, v: repr(v).encode()),
        ]

    def check(self, rdir, values):
        out = []
        win = core.Window([self.window] * 2)
        t = win.t
        seed = json.loads(self.config.read_text())["seed"]
        sim_win = core.buffered_window(win, core.Band.absolute(*self.band))
        fresh = [p for p, _ in sim.sample_mixture(self.spec, sim_win, self.n_real, seed)]
        manifest = json.loads((rdir / "sim" / "manifest.json").read_text())
        back = [core.read_pattern_csv(rdir / "sim" / f) for f in manifest["files"]]
        same = len(back) == len(fresh) and all(
            np.array_equal(a.locations, b.locations) and np.array_equal(a.y, b.y)
            and np.array_equal(a.z, b.z) for a, b in zip(back, fresh))
        out.append(("simulate", "patterns read back = patterns simulated", same,
                    f"{len(back)} files"))
        band = core.Band.absolute(*self.band)
        for k in (0, 1, 2):
            fast = core.band_pair_indices(back[k], win, band)
            naive = core.band_pair_indices_naive(back[k], win, band)
            out.append(("estimate#0", f"pattern {k}: band_pair_indices = naive",
                        _pair_set(fast) == _pair_set(naive),
                        f"{fast[0].size} vs {naive[0].size} pairs"))

        sums = np.array([brute_sums(p, t, self.band) for p in back])
        ratios, counts = sums[:, 0] / sums[:, 1], sums[:, 2]
        avg, se_avg = avg_and_se(ratios)
        pooled, se_pooled = pooled_and_se(ratios, counts)
        rows = {r["estimator"]: r for r in _read_results(rdir / "est0" / "results.csv")}
        first = results_without_runtime(rdir / "est0" / "results.csv")
        for k in range(1, self.n_estimates):
            out.append((f"estimate#{k}", "results = estimate#0",
                        results_without_runtime(rdir / f"est{k}" / "results.csv") == first, ""))
        mc = {"avg": values["oracle/classwise"], "pooled": values["oracle/pooled"]}
        for name, ref, se in (("avg", avg, se_avg), ("pooled", pooled, se_pooled)):
            v = float(rows[name]["value"])
            out.append(("estimate#0", f"{name} = brute force", _close(v, ref, REL_EXACT),
                        f"{v!r} vs {ref!r}"))
            n_pairs = int(rows[name]["pair_count"])
            out.append(("estimate#0", f"{name} pair_count", n_pairs == int(counts.sum()),
                        f"{n_pairs} vs {int(counts.sum())}"))
            target, se_mc = mc[name]
            tol = Z_CHECK * math.hypot(se, se_mc)
            label = "oracle/classwise" if name == "avg" else "oracle/pooled"
            out.append((label, f"{name} within {Z_CHECK:g} SE of Monte Carlo oracle",
                        abs(v - target) <= tol, f"|{v:.5g} - {target:.5g}| vs {tol:.3g}"))
        summary = {r["estimator"]: r for r in _read_results(rdir / "rep" / "summary.csv")}
        for name in ("avg", "pooled"):
            ok = (int(summary[name]["n"]) == 1
                  and _close(float(summary[name]["mean"]), float(rows[name]["value"]), REL_EXACT))
            out.append(("report", f"{name} summary = results", ok,
                        f"n={summary[name]['n']} mean={summary[name]['mean']}"))
        return out


WORKLOADS = {w.name: w for w in (Mixture1D, Field1D, PlanarIO2D)}
