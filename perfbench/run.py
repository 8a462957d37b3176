"""mppstat benchmark: one workload per process, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mixture-1d --seed 1 --seconds 20 --trace 0

The load is a single-threaded closed loop.  It writes the workload's
config from --seed, runs one untimed warm-up round, then repeats the same
round until --seconds of timed rounds and set-up samples have passed.  A
round is a fixed list of ``mppstat`` commands, called in-process through
``mppstat.cli.main`` (never with --threads; MPPSTAT_THREADS is removed
from the environment), and library calls.  Each metric is the median over
rounds.  Outputs of every round must repeat the warm-up's byte for byte,
and the warm-up's outputs are checked against brute-force and closed-form
references after the timed part.

With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 untraced and traced rounds alternate and it reports the
per-layer metrics (see spans.py).  The last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  It exits 2 without a
result when the mppstat sources are not next to it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "work"
# setup_s samples per run: fresh processes spread evenly between the timed
# rounds, so that a slow phase of the host anywhere in the run weighs little.
SETUP_SAMPLES = 11
BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

# Child process for setup_s: a fresh interpreter imports the CLI and loads
# the workload's config once.  Interpreter start-up itself is not counted.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import mppstat.cli\n"
    "mppstat.cli.load_config(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def tail_percentile(values):
    """(p, value): the highest percentile with at least ten samples above it."""
    v = sorted(values)
    if len(v) <= 10:
        return None
    k = len(v) - 11
    return 100.0 * k / (len(v) - 1), v[k]


def calibration_s() -> float:
    """Wall time of a fixed mix of Python and numpy work; not used to rescale."""
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.random.default_rng(0).standard_normal((300, 300))
    for _ in range(20):
        a = np.sort(a, axis=1) @ a.T * 1e-3
    return perf_counter() - t0


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                threads[Path(path).name] = getattr(lib, symbol)()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def setup_time(config: Path) -> float:
    env = {k: v for k, v in os.environ.items() if k != "MPPSTAT_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


class Runner:
    """Runs rounds of one workload and keeps per-round timings and failures."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failures = []  # (round, label, message)
        self.reference = {}  # label -> digest of the warm-up outputs
        self.values = {}  # label -> warm-up return values

    def round(self, index: int, rdir: Path):
        """One round in an empty rdir; returns ({label: seconds}, wall seconds, {label: value})."""
        times, values = {}, {}
        t_round = perf_counter()
        for op in self.ops:
            self.attempted += 1
            t0 = perf_counter()
            try:
                values[op.label] = op.call(rdir)
            except Exception as exc:  # a failed operation is counted, the run goes on
                self.failures.append((index, op.label, f"{type(exc).__name__}: {exc}"))
            times[op.label] = perf_counter() - t0
        return times, perf_counter() - t_round, values

    def digest(self, index: int, rdir: Path, values: dict):
        """Compare each operation's outputs with the warm-up's; keep the warm-up's."""
        failed = {label for r, label, _ in self.failures if r == index}
        for op in self.ops:
            if op.label in failed:
                continue
            try:
                d = hashlib.sha256(op.outputs(rdir, values.get(op.label))).hexdigest()
            except OSError as exc:
                self.failures.append((index, op.label, f"outputs unreadable: {exc}"))
                continue
            if index == 0:
                self.reference[op.label] = d
                self.values[op.label] = values[op.label]
            elif d != self.reference.get(op.label):
                self.failures.append((index, op.label, "outputs differ from the warm-up round"))

    def workload_digest(self) -> str:
        blob = "".join(f"{op.label}={self.reference.get(op.label)}\n" for op in self.ops)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fmt_row(name, values, unit):
    med = statistics.median(values)
    tail = tail_percentile(values)
    tail_txt = f"p{tail[0]:.0f}={tail[1]:.6g}" if tail else "p-tail n/a (n<=10)"
    return f"  {name:<34} median={med:<12.6g} {tail_txt:<22} n={len(values):<4} {unit}"


def _compare(recorded, measured) -> str:
    """A changed digest or count is reported, never failed: some PRs change streams."""
    if recorded is None:
        return "unrecorded in"
    return "match" if recorded == measured else "CHANGED from"


def trace_totals(tracer, untraced_walls, units_per_round) -> dict:
    """Derived per-layer figures: traced wall, its overhead, the unattributed rest."""
    rounds = tracer.rounds  # (spans, self seconds by span name, counts, wall)
    traced_walls = [wall for _, _, _, wall in rounds]
    return {
        "core.pair_calls_per_realization_band":
            rounds[0][2].get("core.pair_calls", 0) / units_per_round,
        "trace.wall_s": statistics.median(traced_walls),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
        "trace.unattributed_s": statistics.median(
            wall - sum(self_s.values()) for _, self_s, _, wall in rounds),
    }


def layer_metrics(declared: dict, tracer, derived: dict) -> dict:
    """Per-layer metrics named in BENCHMARK.json, from the traced rounds."""
    rounds = tracer.rounds
    counts = rounds[0][2]
    out = {}
    for name, unit in declared.items():
        if name in derived:
            out[name] = derived[name]
        elif unit == "s":  # "<layer>.<span>_s": median self time of that span name
            out[name] = statistics.median(self_s.get(name[:-2], 0.0) for _, self_s, _, _ in rounds)
        else:
            out[name] = counts.get(name, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "mppstat" / "__init__.py").is_file():
        print(f"error: mppstat sources not found under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    os.environ.pop("MPPSTAT_THREADS", None)
    sys.path.insert(0, str(SRC))
    import workloads
    import spans

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    calib_start = calibration_s()
    rundir = WORK / args.workload
    if rundir.exists():
        shutil.rmtree(rundir)
    rundir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, rundir)
    runner = Runner(wl.ops())

    times0, _, values0 = runner.round(0, fresh_dir(rundir / "r0"))
    runner.digest(0, rundir / "r0", values0)

    # Timed rounds; with tracing, untraced and traced rounds alternate.
    # Without tracing, set-up samples are taken between rounds whenever they
    # fall behind an even spread of SETUP_SAMPLES over the run; their time
    # counts towards --seconds.
    tracer = spans.Tracer() if args.trace else None
    untraced = []  # ({label: seconds}, wall seconds)
    setups = []
    wrappers_left = 0
    spent, t_setup, index = 0.0, 0.0, 0
    need_setups = 0 if args.trace else SETUP_SAMPLES if args.size == "full" else 2
    while spent < args.seconds or len(untraced) < 2 or len(setups) < need_setups:
        if len(setups) < need_setups and len(setups) <= need_setups * spent / args.seconds:
            t_phase = perf_counter()
            setups.append(setup_time(wl.config))
            t_phase = perf_counter() - t_phase
            t_setup += t_phase
            spent += t_phase
            continue
        index += 1
        rdir = fresh_dir(rundir / "r")
        if tracer and index % 2 == 0:
            _, wall, values = tracer.round(lambda: runner.round(index, rdir))
            wrappers_left = max(wrappers_left, spans.leftover_wrappers())
        else:
            times, wall, values = runner.round(index, rdir)
            untraced.append((times, wall))
        spent += wall
        runner.digest(index, rdir, values)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_phase = perf_counter()
    try:
        checks = wl.check(rundir / "r0", runner.values)
    except Exception as exc:  # a check that cannot run fails every operation
        checks = [("*", "checks ran", False, f"{type(exc).__name__}: {exc}")]
    round_counts = [c for _, _, c, _ in tracer.rounds] if tracer else []
    counts_repeat = all(c == round_counts[0] for c in round_counts)
    bad_labels = {label for label, _, ok, _ in checks if not ok}
    spoil_all = "*" in bad_labels or wrappers_left > 0 or not counts_repeat
    failed_ops = {(r, label) for r, label, _ in runner.failures}
    failed_ops |= {(r, op.label) for r in range(index + 1) for op in runner.ops
                   if spoil_all or op.label in bad_labels}
    failed = len(failed_ops)
    t_checks = perf_counter() - t_phase
    calib_end = calibration_s()

    walls = [wall for _, wall in untraced]
    per_kind = {}
    for op in runner.ops:
        per_kind.setdefault(op.kind, [0.0] * len(untraced))
        for i, (times, _) in enumerate(untraced):
            per_kind[op.kind][i] += times[op.label]

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"calibration start={calib_start:.4f}s end={calib_end:.4f}s (reported, not applied)")
    print(f"rounds: warm-up 1, timed {len(walls)} untraced"
          + (f" + {len(tracer.rounds)} traced" if tracer else "")
          + f"; per round {wl.realizations} realizations, {len(runner.ops)} operations")
    print(f"phases: warm-up {sum(times0.values()):.1f}s, timed {spent:.1f}s "
          f"(of which {len(setups)} set-up samples {t_setup:.1f}s), checks {t_checks:.1f}s")

    if tracer:
        totals = trace_totals(tracer, walls, wl.units)
        metrics = layer_metrics(declared, tracer, totals)
        print(f"per-layer (median over traced rounds; counts per round, "
              f"{'identical in every traced round' if counts_repeat else 'NOT REPEATING'}):")
        for name, value in metrics.items():
            print(f"  {name:<40} {value:.6g}")
        spans_seen = {n for _, self_s, _, _ in tracer.rounds for n in self_s}
        for name in sorted(spans_seen - {k[:-2] for k in declared}):
            value = statistics.median(self_s.get(name, 0.0) for _, self_s, _, _ in tracer.rounds)
            print(f"  {name + '_s':<40} {value:.6g}   (not in BENCHMARK.json)")
        for name in sorted(set(round_counts[0]) - set(declared)):
            print(f"  {name:<40} {round_counts[0][name]:.6g}   (not in BENCHMARK.json)")
        for name in sorted(set(totals) - set(declared)):
            print(f"  {name:<40} {totals[name]:.6g}   (not in BENCHMARK.json)")
        share = 1.0 - totals["trace.unattributed_s"] / totals["trace.wall_s"]
        print(f"  self times cover {100 * share:.2f}% of the traced round wall time")
        print(f"  wrappers left installed after traced rounds: {wrappers_left}")
        tracer.write_spans(rundir / "spans.jsonl")
    else:
        rates = [wl.realizations / wall for wall in walls]
        values = {
            "setup_s": statistics.median(setups),
            "estimate_s": statistics.median(per_kind["estimate"]),
            "realizations_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: values[name] for name in declared}
        print("end-to-end (median over rounds):")
        print(_fmt_row("setup_s (fresh processes)", setups, "s"))
        for kind, samples in per_kind.items():
            print(_fmt_row(f"{kind}_s", samples, "s"))
        print(_fmt_row("round_s", walls, "s"))
        print(_fmt_row("realizations_per_s", rates, "1/s"))
        print(f"  {'peak_rss_mb':<34} {peak_rss_mb:.1f} MB")

    print(f"operations: attempted={runner.attempted} failed={failed} "
          f"failed_frac={failed / runner.attempted:.6g}")
    for r, label, msg in runner.failures[:10]:
        print(f"  FAILED round {r} {label}: {msg}")
    print(f"checks: {sum(ok for _, _, ok, _ in checks)}/{len(checks)} passed")
    for label, name, ok, detail in checks:
        if not ok:
            print(f"  CHECK FAILED {label}: {name}: {detail}")
    digest = runner.workload_digest()
    ref_path = Path(__file__).resolve().parent / "reference.json"
    recorded = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    ref = recorded.get(args.workload, {}).get(str(args.seed), {}) if args.size == "full" else {}
    print(f"output digest {digest} ({_compare(ref.get('digest'), digest)} reference.json)")
    if tracer:
        counts = {k: v for k, v in metrics.items() if declared[k] != "s"}
        print(f"per-round counts {_compare(ref.get('counts'), counts)} reference.json")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": declared[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
