"""Run the benchmark over several seeds and summarise each metric across runs.

    python3 perfbench/spread.py [--workloads mixture-1d field-1d] \
        --seeds 1-10 [--seconds 50] [--trace 1] [--record]

Workloads and run length default to those in BENCHMARK.json.  Each run
is a fresh ``run.py`` process.  For every metric the summary gives
the median across runs, the quartiles, the quartile spread as a share of
the median (the figure the benchmark's bounds are set against), the
highest percentile with at least ten runs beyond it, and the run count.
--record stores each run's output digest, and
with --trace 1 its per-round counts, in reference.json; run.py reports
later runs of the same seed as matching or changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import tail_percentile  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    digest = next((ln.split()[2] for ln in lines if ln.startswith("output digest")), None)
    notes = [ln for ln in lines if ln.startswith(("output digest", "per-round counts"))]
    return json.loads(lines[-1]), digest, notes


def summarise(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    tail = tail_percentile(values)
    tail_txt = f"p{tail[0]:.0f}={tail[1]:.6g}" if tail else "p-tail n/a"
    spread = (q3 - q1) / median if median else float("nan")
    return (f"median={median:<11.6g} q1={q1:<11.6g} q3={q3:<11.6g} "
            f"spread={spread:<7.4f} {tail_txt} n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: the workloads in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store digests (and counts when traced) in reference.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    args.workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    results = {}  # workload -> list of (seed, result, digest)
    for wl in args.workloads:
        for seed in seeds:
            res, digest, notes = run_once(wl, seed, seconds, args.trace)
            results.setdefault(wl, []).append((seed, res, digest))
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}; {'; '.join(notes)}", flush=True)

    status = 0
    for wl, runs in results.items():
        print(f"\n{wl}: {len(runs)} runs, seeds {args.seeds}, {seconds:g} s each, "
              f"trace={args.trace}")
        if not all(r["correct"] and r["failed"] == 0 for _, r, _ in runs):
            print("  SOME RUNS FAILED OR WERE NOT CORRECT")
            status = 1
        for name, metric in runs[0][1]["metrics"].items():
            values = [r["metrics"][name]["value"] for _, r, _ in runs]
            if len(set(values)) == 1:
                print(f"  {name:<38} constant {values[0]:.6g} {metric['unit']}")
            else:
                print(f"  {name:<38} {summarise(values)} {metric['unit']}")

    if args.record:
        path = HERE / "reference.json"
        ref = json.loads(path.read_text()) if path.is_file() else {}
        for wl, runs in results.items():
            for seed, res, digest in runs:
                entry = ref.setdefault(wl, {}).setdefault(str(seed), {})
                entry["digest"] = digest
                if args.trace:
                    entry["counts"] = {k: m["value"] for k, m in res["metrics"].items()
                                       if m["unit"] != "s"}
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"recorded digests{' and counts' if args.trace else ''} in {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
