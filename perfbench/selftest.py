"""Self-test of the benchmark: smoke runs, metric names, tracer hygiene, bare directory.

    python3 perfbench/selftest.py

Checks, in order:
  * every workload at --size smoke, untraced and traced, is correct with
    failed == 0 and prints exactly the metrics BENCHMARK.json names (this
    includes planar-io-2d, which BENCHMARK.json does not gate);
  * installing and uninstalling the tracer restores every patched name to
    its original object and leaves no wrapper reachable;
  * run.py exits non-zero without a result in a directory that holds only
    BENCHMARK.json and the benchmark's own files.
Exits 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402


def smoke(bench) -> list[str]:
    errors = []
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for wl in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = f"{wl} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                errors.append(f"{tag}: correct={res['correct']} failed={res['failed']}\n"
                              + proc.stdout[-1500:])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{tag}: metrics {sorted(got)} differ from BENCHMARK.json")
            if trace and "wrappers left installed after traced rounds: 0" not in proc.stdout:
                errors.append(f"{tag}: tracer wrappers left installed")
            print(f"smoke {tag}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']}", flush=True)
    return errors


def tracer_hygiene() -> list[str]:
    before = {(id(owner), attr): getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install()
    installed = spans.leftover_wrappers()
    tracer.uninstall()
    errors = []
    if installed < len(spans.TARGETS):
        errors.append(f"only {installed} wrappers installed for {len(spans.TARGETS)} targets")
    if spans.leftover_wrappers():
        errors.append(f"{spans.leftover_wrappers()} wrappers left after uninstall")
    for owner, attr, _, _ in spans.TARGETS:
        if getattr(owner, attr) is not before[(id(owner), attr)]:
            errors.append(f"{attr} not restored")
    print(f"tracer hygiene: {installed} wrappers installed, "
          f"{spans.leftover_wrappers()} left after uninstall", flush=True)
    return errors


def bare_directory(bench) -> list[str]:
    bare = HERE / "work" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in bench["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("work", "__pycache__"))
    wl = bench["workloads"][0]["name"]
    cmd = bench["command"] + ["--workload", wl, "--seed", "1", "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    print(f"bare directory: exit {proc.returncode}, stdout {len(proc.stdout)} bytes", flush=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory run exited {proc.returncode} with output {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = smoke(bench) + tracer_hygiene() + bare_directory(bench)
    for e in errors:
        print("FAIL:", e)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
