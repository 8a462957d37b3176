"""Reproducible experiment runner: simulate, estimate, infer, report.

Experiments are described by a JSON config (schema below) and driven by a
seed; rerunning a command with the same config and seed produces byte
identical outputs.  Exit codes: 0 success, 1 at least one statistically
undefined estimate, 2 input or IO error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .core import (
    Band, InputError, MppstatError, PatternBatch, Window, buffered_window, write_pattern_csv,
)
from . import est, infer, markfn, oracle, sim
from .weights import WEIGHT_KINDS, WeightStrategy, _variance_visitor, compute_weights

__all__ = ["main", "load_config", "CONFIG_SCHEMA"]

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["spec", "window", "bands", "f", "estimators", "n_realizations", "seed"],
    "additionalProperties": False,
    "properties": {
        "spec": sim.MIXTURE_SCHEMA,
        "window": {"type": ["number", "array"], "items": {"type": "number"}},
        "bands": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "f": {"type": "object", "required": ["name"]},
        "estimators": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name"],
                "additionalProperties": False,
                "properties": {
                    "name": {"enum": ["avg", "pooled", "weighted"]},
                    "weights": {"enum": list(WEIGHT_KINDS)},
                },
            },
        },
        "n_realizations": {"type": "integer", "minimum": 1},
        "n_replicates": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "clt": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "u": {"type": "number", "minimum": 0},
                "level": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "n_seeds": {"type": "integer", "minimum": 30},
                "group_size": {"type": "integer", "minimum": 30},
            },
        },
    },
}

ESTIMATE_HEADER = (
    "estimator,band_lo,band_hi,replicate,value,pair_count,exclusions,"
    "weights_digest,seed,runtime_ms,oracle_mu,oracle_mu_tilde"
)


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    error = sim._schema_error(doc, CONFIG_SCHEMA)
    if error is not None:
        raise InputError(f"invalid config {path}: {error}")
    _integral_floats_to_int(doc, CONFIG_SCHEMA)
    return doc


def _integral_floats_to_int(doc: dict, schema: dict) -> None:
    """Make each `integer` field of a valid `doc` an int: JSON Schema counts 3.0 as one."""
    for key, sub in schema["properties"].items():
        value = doc.get(key)
        if sub.get("type") == "integer" and isinstance(value, float):
            doc[key] = int(value)
        elif sub.get("type") == "object" and isinstance(value, dict) and "properties" in sub:
            _integral_floats_to_int(value, sub)


def _window(config) -> Window:
    w = config["window"]
    return Window(np.atleast_1d(np.asarray(w, dtype=float)))


def _bands(config, dim: int) -> list[Band]:
    return [Band(lo, hi, signed=(dim == 1)) for lo, hi in config["bands"]]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and np.isnan(x):
        return "nan"
    return repr(float(x)) if isinstance(x, float) else str(x)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(config: dict, out_dir: Path) -> int:
    spec = sim.mixture_from_json(config["spec"])
    win = _window(config)
    bands = _bands(config, spec.dim)
    seed = config["seed"]
    sim_win = buffered_window(win, bands)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    classes = []
    # each block's files are written before the next block is drawn
    for block in sim.sample_blocks(spec, sim_win, config["n_realizations"], seed):
        for k in range(block.n_realizations):
            name = f"pattern_{len(files):04d}.csv"
            write_pattern_csv(block.pattern(k), out_dir / name)
            files.append(name)
        classes += block.classes.tolist()
        del block
    manifest = {
        "seed": seed,
        "spec_sha256": sim.spec_digest(spec),
        "dim": spec.dim,
        "sim_window": [list(map(float, sim_win.lo)), list(map(float, sim_win.hi))],
        "n_realizations": config["n_realizations"],
        "class_index": classes,
        "files": files,
    }
    with open(out_dir / "manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {len(files)} patterns + manifest to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _strategy(name: str, args) -> WeightStrategy:
    if name != "rfvar":
        return WeightStrategy(name)
    model = getattr(args, "cov_model", None)
    params = getattr(args, "cov_params", None)
    if not model or not params:
        raise InputError("--weights rfvar requires --cov-model and --cov-params VAR,RANGE")
    try:
        variance, cov_range = (float(v) for v in params.split(","))
    except ValueError as exc:
        raise InputError(f"--cov-params must be VAR,RANGE, got {params!r}") from exc
    return WeightStrategy("rfvar", cov=sim.Covariance(model, variance, cov_range))


def _weights_digest(w) -> str:
    blob = ",".join(map("{:.17g}".format, np.asarray(w, dtype=float).tolist()))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:12]


def _oracle_columns(spec, f, bands):
    cols = {}
    for band in bands:
        try:
            mu = oracle.mixture_mean_mark(spec, f, 2, band)
            mu_tilde = oracle.class_averaged_mean_mark(spec, f, 2)
        except MppstatError:
            mu = mu_tilde = None
        cols[(band.lo, band.hi)] = (mu, mu_tilde)
    return cols


def _load_pattern_dir(pattern_dir: Path):
    from .core import read_pattern_csv

    manifest_path = pattern_dir / "manifest.json"
    try:
        with open(manifest_path, "r", encoding="ascii") as fh:
            manifest = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read {manifest_path}: {exc}") from exc
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, list) or not all(isinstance(name, str) for name in files):
        raise InputError(f"{manifest_path}: needs a 'files' list of pattern file names")
    return [read_pattern_csv(pattern_dir / name) for name in files]


def cmd_estimate(config: dict, out_path: Path, args=None, pattern_dir: Path | None = None) -> int:
    spec = sim.mixture_from_json(config["spec"])
    win = _window(config)
    bands = _bands(config, spec.dim)
    f = markfn.resolve(config["f"])
    seed = config["seed"]
    n_repl = config.get("n_replicates", 1)
    estimators = config["estimators"]
    oracle_cols = _oracle_columns(spec, f, bands)
    sim_win = buffered_window(win, bands)

    strategies = [
        _strategy(e.get("weights", "equal"), args) if e["name"] == "weighted" else None
        for e in estimators
    ]
    # pattern files get the full per-pattern checks; sampled blocks are checked once
    loaded = (PatternBatch.from_patterns(_load_pattern_dir(pattern_dir))
              if pattern_dir is not None else None)
    # the rfvar conditional variances need a block's points, so the sweep's
    # visitor computes them while it holds the block, for each band and covariance
    covs = {s.cov for s in strategies if s is not None and s.kind == "rfvar"}

    def run_replicate(r: int):
        blocks = loaded if loaded is not None else sim.sample_blocks(
            spec, sim_win, config["n_realizations"], (seed, r))
        visit, variances = _variance_visitor(
            [(q, cov) for q in range(len(bands)) for cov in covs])
        # one sweep of each block tabulates every band; only the columns are kept
        tables = est._pair_tables(blocks, win, bands, f, visit=visit if covs else None)
        rows = []
        any_undefined = False
        for q, (band, table) in enumerate(zip(bands, tables)):
            for est_cfg, strategy in zip(estimators, strategies):
                name = est_cfg["name"]
                t0 = time.perf_counter()
                if name == "avg":
                    res = est.mean_mark_avg(table)
                    digest = ""
                elif name == "pooled":
                    res = est.mean_mark_pooled(table)
                    digest = ""
                else:
                    w = compute_weights(strategy, table, variances.get((q, strategy.cov)))
                    res = est.mean_mark_weighted(table, w)
                    digest = _weights_digest(w)
                ms = (time.perf_counter() - t0) * 1e3
                any_undefined |= not res.defined
                mu, mu_tilde = oracle_cols[(band.lo, band.hi)]
                count = res.pair_count
                if not isinstance(count, int):
                    count = int(np.sum(count))
                rows.append(
                    f"{name},{band.lo!r},{band.hi!r},{r},{_fmt(res.value)},{count},"
                    f"{res.meta.get('exclusions', 0)},{digest},{seed},{ms:.3f},"
                    f"{_fmt(mu)},{_fmt(mu_tilde)}"
                )
        return rows, any_undefined

    results = [run_replicate(r) for r in range(n_repl)]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    undefined = any(u for _, u in results)
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write(ESTIMATE_HEADER + "\n")
        for rows, _ in results:
            fh.write("\n".join(rows) + "\n")
    print(f"wrote {sum(len(r) for r, _ in results)} rows to {out_path}")
    if undefined:
        print("warning: undefined estimates present", file=sys.stderr)
        return 1
    if any(v == (None, None) for v in oracle_cols.values()):
        print("note: no closed-form oracle for this spec; oracle columns left blank",
              file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

SUMMARY_HEADER = (
    "estimator,band_lo,band_hi,n,mean,variance,bias_mu,rmse_mu,bias_mu_tilde,"
    "rmse_mu_tilde,coverage"
)

_GNUPLOT_TEMPLATE = """\
# gnuplot script for {summary}
set datafile separator ","
set key autotitle columnhead
set ylabel "estimate"
set xlabel "estimator / band"
set style fill solid 0.5
set boxwidth 0.6
plot "{summary}" using 0:5:(sqrt(column(6))):xtic(sprintf("%s %s..%s", \
strcol(1), strcol(2), strcol(3))) with yerrorbars title "mean +- sd"
"""


_REPORT_COLUMNS = ("estimator", "band_lo", "band_hi", "value")


def _cell_float(row: dict, column: str, path: Path) -> float:
    try:
        return float(row[column])
    except ValueError:
        raise InputError(
            f"{path}: column {column!r} needs a number, got {row[column]!r}"
        ) from None


def cmd_report(results_path: Path, out_dir: Path) -> int:
    try:
        with open(results_path, "r", encoding="ascii") as fh:
            reader = csv.DictReader(fh, restval="")
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {results_path}: {exc}") from exc
    if not rows:
        raise InputError(f"{results_path} has no data rows")
    missing = [c for c in _REPORT_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise InputError(f"{results_path} lacks the column(s) {', '.join(missing)}")
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["estimator"], row["band_lo"], row["band_hi"]), []).append(row)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "summary.csv"
    missing_oracle = False
    with open(summary_path, "w", encoding="ascii") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for (name, lo, hi), grp in sorted(groups.items()):
            values = np.array([_cell_float(r, "value", results_path) for r in grp])
            values = values[np.isfinite(values)]
            n = values.size
            mean = float(np.mean(values)) if n else float("nan")
            var = float(np.var(values, ddof=1)) if n > 1 else float("nan")
            bias_mu = rmse_mu = bias_mut = rmse_mut = ""
            if grp[0].get("oracle_mu"):
                mu = _cell_float(grp[0], "oracle_mu", results_path)
                bias_mu = repr(mean - mu)
                rmse_mu = repr(float(np.sqrt(np.mean((values - mu) ** 2))))
            else:
                missing_oracle = True
            if grp[0].get("oracle_mu_tilde"):
                mut = _cell_float(grp[0], "oracle_mu_tilde", results_path)
                bias_mut = repr(mean - mut)
                rmse_mut = repr(float(np.sqrt(np.mean((values - mut) ** 2))))
            # the coverage column stays empty: results rows carry no intervals
            fh.write(
                f"{name},{lo},{hi},{n},{mean!r},{var!r},{bias_mu},{rmse_mu},"
                f"{bias_mut},{rmse_mut},\n"
            )
    script_path = out_dir / "plot_summary.gp"
    with open(script_path, "w", encoding="ascii") as fh:
        fh.write(_GNUPLOT_TEMPLATE.format(summary=summary_path.name))
    if missing_oracle:
        print("warning: oracle columns missing; bias/coverage omitted", file=sys.stderr)
    print(f"wrote {summary_path} and {script_path}")
    return 0


# ---------------------------------------------------------------------------
# infer clt
# ---------------------------------------------------------------------------


def cmd_infer_clt(config: dict, out_dir: Path) -> int:
    spec = sim.mixture_from_json(config["spec"])
    if spec.n_classes != 1:
        raise InputError("infer clt requires a single-class (ergodic) spec")
    if spec.dim != 1:
        raise InputError("infer clt requires d=1")
    clt_cfg = config.get("clt", {})
    u = float(clt_cfg.get("u", 0.0))
    level = float(clt_cfg.get("level", 0.95))
    n_seeds = int(clt_cfg.get("n_seeds", 200))
    group_size = clt_cfg.get("group_size")
    win = _window(config)
    band = _bands(config, spec.dim)[0]
    f = markfn.resolve(config["f"])
    if f.arity != "first-only":
        raise InputError("infer clt requires a first-only mark function")
    sim_win = buffered_window(win, band)
    blocks = sim.sample_blocks(spec, sim_win, n_seeds, config["seed"])
    center = truth = None
    try:
        truth, _ = oracle.threshold_excess_mean(spec.classes[0].marks, f.name, u)
        center = truth
    except MppstatError:
        pass
    out = infer.clt_experiment(
        blocks, win, band, f, u,
        level=level, center=center, truth=truth,
        group_size=int(group_size) if group_size else None,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    stats_path = out_dir / "clt_stats.csv"
    with open(stats_path, "w", encoding="ascii") as fh:
        fh.write("seed_index,alpha_star,conditional_pairs,statistic\n")
        for row in out["rows"]:
            fh.write(
                f"{row['seed_index']},{row['alpha_star']!r},"
                f"{row['conditional_pairs']!r},{row['statistic']!r}\n"
            )
        s = out["summary"]
        fh.write(
            f"# summary,s_hat={s['s_hat']!r},lambda_u_hat={s['lambda_u_hat']!r},"
            f"ks_pvalue={s['ks_pvalue']!r},skewness={s['skewness']!r},"
            f"coverage={s['coverage']!r}\n"
        )
    print(f"wrote {stats_path}")
    line = (
        f"s_hat={s['s_hat']:.6g} ks_pvalue={s['ks_pvalue']:.4g} "
        f"skewness={s['skewness']:.4g} coverage={s['coverage']}"
    )
    if s["coverage"] is not None:
        c, n_groups = s["coverage"], s["n_groups"]
        line += f" n_groups={n_groups} coverage_se={math.sqrt(c * (1.0 - c) / n_groups):.3g}"
    print(line)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mppstat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default="out", help="output directory")

    p_sim = sub.add_parser("simulate", help="write pattern CSVs and a manifest")
    common(p_sim)

    p_est = sub.add_parser("estimate", help="run estimators, write results CSV")
    common(p_est)
    p_est.add_argument("--patterns", default=None, help="read patterns from this directory")
    p_est.add_argument("--weights", default=None,
                       choices=WEIGHT_KINDS,
                       help="weight strategy for 'weighted' estimators")
    p_est.add_argument("--cov-model", default=None, choices=["spherical", "trunc_exp"])
    p_est.add_argument("--cov-params", default=None, metavar="VAR,RANGE")

    p_inf = sub.add_parser("infer", help="inference subcommands")
    inf_sub = p_inf.add_subparsers(dest="infer_command", required=True)
    p_clt = inf_sub.add_parser("clt", help="per-seed normalized statistics and summary")
    common(p_clt)

    p_rep = sub.add_parser("report", help="summarize a results CSV")
    p_rep.add_argument("--results", required=True, help="results CSV from 'estimate'")
    p_rep.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(Path(args.results), Path(args.out))
        config = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise InputError(f"--seed must be >= 0, got {args.seed}")
            config["seed"] = args.seed
        if args.command == "simulate":
            return cmd_simulate(config, Path(args.out))
        if args.command == "estimate":
            if args.weights:
                weighted = [e for e in config["estimators"] if e["name"] == "weighted"]
                if not weighted:
                    raise InputError(
                        f"--weights {args.weights} has no effect: the config has no "
                        "'weighted' estimator"
                    )
                for e in weighted:
                    e["weights"] = args.weights
            pattern_dir = Path(args.patterns) if args.patterns else None
            return cmd_estimate(config, Path(args.out) / "results.csv", args, pattern_dir)
        if args.command == "infer":
            return cmd_infer_clt(config, Path(args.out))
        raise InputError(f"unknown command {args.command!r}")
    except (MppstatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
