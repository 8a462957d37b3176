"""One-off comparison: mixture-1d estimate at the default thread count and at --threads 2.

    python3 perfbench/threads_compare.py

The benchmark itself never passes --threads.  This script times one
`mppstat estimate` of the mixture-1d config with n_replicates set so that
replicates can run in parallel, alternating the default (one thread) with
--threads 2, and prints both medians.  The result is recorded in
perfbench/README.md.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
PAIRS = 5
REPLICATES = 4


def main() -> int:
    os.environ.pop("MPPSTAT_THREADS", None)
    import workloads

    workdir = HERE / "work" / "threads"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.Mixture1D(1, "full", workdir)
    config = json.loads(wl.config.read_text())
    config["n_replicates"] = REPLICATES
    wl.config.write_text(json.dumps(config))
    base = ["estimate", "--config", str(wl.config)]
    times = {"default": [], "--threads 2": []}
    outputs = {}
    for i in range(PAIRS):
        order = ["default", "--threads 2"] if i % 2 == 0 else ["--threads 2", "default"]
        for side in order:
            extra = ["--threads", "2"] if side != "default" else []
            out = workdir / side.strip("-").replace(" ", "")
            t0 = perf_counter()
            workloads.run_cli(base + extra + ["--out", str(out)])
            times[side].append(perf_counter() - t0)
            outputs[side] = workloads.results_without_runtime(out / "results.csv")
    for side, values in times.items():
        print(f"{side:<12} median {statistics.median(values):.3f} s over {len(values)} runs "
              f"({REPLICATES} replicates x {config['n_realizations']} realizations)")
    ratio = statistics.median(times["--threads 2"]) / statistics.median(times["default"])
    print(f"--threads 2 / default = {ratio:.3f}; outputs identical: "
          f"{outputs['default'] == outputs['--threads 2']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
