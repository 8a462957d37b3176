"""Golden outputs: the files every command writes on fixed configs, pinned by sha256.

Each case runs `simulate`, `estimate`, `estimate --patterns` (on the
simulated files), `report` (on the estimate's results) and `infer clt` on
one config, and compares each command's exit code and the sha256 of its
output files with ``tests/golden.json``.  The `runtime_ms` column, a
wall-clock diagnostic, is dropped before hashing.  The cases are the four
shipped configs with `n_replicates` capped at 3, a Gaussian-field config
estimated with rfvar weights, a 2-D config and a two-band config.

A change that alters a stream or a format on purpose re-records the file
with ``PYTHONPATH=src python tests/test_golden.py`` and names each changed
digest in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from mppstat.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_FIELD_SPEC = {
    "dim": 1,
    "classes": [
        {"p": 1.0, "ground": {"kind": "hardcore", "proposal_intensity": 4.0, "min_dist": 0.2},
         "marks": {"kind": "gaussian_field", "mean": 0.0, "variance": 1.0,
                   "cov_range": 1.0, "shape": "spherical"},
         "z_rule": "const_one"},
    ],
}
_PLANAR_SPEC = {
    "dim": 2,
    "classes": [
        {"p": 0.5, "ground": {"kind": "hardcore", "proposal_intensity": 3.0, "min_dist": 0.5},
         "marks": {"kind": "iid", "distribution": "normal", "params": [0.0, 1.0]},
         "z_rule": {"kind": "iid", "distribution": "uniform", "params": [0.5, 1.5]}},
        {"p": 0.5, "ground": {"kind": "poisson", "intensity": 1.15},
         "marks": {"kind": "iid", "distribution": "normal", "params": [10.0, 1.0]},
         "z_rule": "const_one"},
    ],
}


def _cases() -> dict[str, tuple[dict, list[str]]]:
    """Case name -> (config document, extra `estimate` arguments)."""
    cases = {}
    for path in sorted(CONFIGS.glob("*.json")):
        doc = json.loads(path.read_text())
        if "n_replicates" in doc:
            doc["n_replicates"] = min(doc["n_replicates"], 3)
        cases[path.stem] = (doc, [])
    cases["field_rfvar"] = ({
        "spec": _FIELD_SPEC, "window": 60.0, "bands": [[0.5, 1.5]], "f": {"name": "first"},
        "estimators": [{"name": "avg"}, {"name": "weighted", "weights": "rfvar"}],
        "n_realizations": 2, "seed": 7,
        "clt": {"u": 0.0, "level": 0.95, "n_seeds": 30, "group_size": 30},
    }, ["--cov-model", "spherical", "--cov-params", "1.0,1.0"])
    cases["planar"] = ({
        "spec": _PLANAR_SPEC, "window": [8.0, 8.0], "bands": [[0.5, 1.5]],
        "f": {"name": "first"}, "estimators": [{"name": "avg"}, {"name": "pooled"}],
        "n_realizations": 10, "n_replicates": 2, "seed": 11,
    }, [])
    two_bands = copy.deepcopy(cases["two_class_separation"][0])
    two_bands.update(bands=[[0.5, 1.5], [-1.5, -0.5]], n_realizations=40)
    cases["two_bands"] = (two_bands, [])
    return cases


def _digest(out: Path) -> dict:
    """File count and sha256 of every file under `out` (none: an empty digest)."""
    h = hashlib.sha256()
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    for path in files:
        lines = path.read_bytes().split(b"\n")
        header = lines[0].split(b",")
        if b"runtime_ms" in header:
            col = header.index(b"runtime_ms")
            lines = [b",".join(c for k, c in enumerate(ln.split(b",")) if k != col)
                     if ln else ln for ln in lines]
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(b"\n".join(lines)).digest())
    return {"files": len(files), "sha256": h.hexdigest()}


def run_case(doc: dict, extra: list[str]) -> dict:
    """Command name -> {"exit", "files", "sha256"} for the five commands on `doc`."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(doc))
        commands = {
            "simulate": ["simulate", "--config", str(cfg)],
            "estimate": ["estimate", "--config", str(cfg), *extra],
            "estimate_patterns": ["estimate", "--config", str(cfg),
                                  "--patterns", str(tmp / "simulate"), *extra],
            "report": ["report", "--results", str(tmp / "estimate" / "results.csv")],
            "infer_clt": ["infer", "clt", "--config", str(cfg)],
        }
        out = {}
        for name, argv in commands.items():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--out", str(tmp / name)])
            out[name] = {"exit": code, **_digest(tmp / name)}
    return out


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


@pytest.mark.parametrize("case", sorted(_cases()))
def test_outputs_equal_the_recorded_ones(case):
    golden = json.loads(GOLDEN.read_text())
    recorded = {k: golden[k] for k in _versions()}
    assert recorded == _versions(), (
        f"tests/golden.json was recorded with {recorded}, this run has {_versions()}: "
        "check the outputs by hand and re-record")
    doc, extra = _cases()[case]
    assert run_case(doc, extra) == golden["cases"][case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {**_versions(), "cases": {name: run_case(doc, extra)
                                  for name, (doc, extra) in sorted(_cases().items())}},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
