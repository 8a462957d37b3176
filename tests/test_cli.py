"""Command-line workflows: determinism, exit codes, file formats."""

import contextlib
import copy
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mppstat
from mppstat.cli import (
    CONFIG_SCHEMA,
    ESTIMATE_HEADER,
    _build_parser,
    _weights_digest,
    cmd_estimate,
    cmd_report,
    cmd_simulate,
    load_config,
    main,
)
from mppstat import InputError, core, sim

from helpers import modules_after

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RUNTIME_COL = 9  # wall-clock diagnostic, excluded from determinism checks


def _strip_runtime(path: Path) -> list[str]:
    rows = []
    for line in path.read_text().strip().splitlines():
        cells = line.split(",")
        if len(cells) > RUNTIME_COL:
            del cells[RUNTIME_COL]
        rows.append(",".join(cells))
    return rows


def small_config(tmp_path, **overrides) -> Path:
    doc = {
        "spec": {
            "dim": 1,
            "classes": [
                {"p": 0.5, "ground": {"kind": "poisson", "intensity": 1.0},
                 "marks": {"kind": "iid", "distribution": "normal", "params": [0.0, 1.0]}},
                {"p": 0.5, "ground": {"kind": "poisson", "intensity": 4.0},
                 "marks": {"kind": "iid", "distribution": "normal", "params": [10.0, 1.0]}},
            ],
        },
        "window": 20.0,
        "bands": [[0.5, 1.5]],
        "f": {"name": "first"},
        "estimators": [{"name": "avg"}, {"name": "pooled"},
                       {"name": "weighted", "weights": "count"}],
        "n_realizations": 15,
        "n_replicates": 3,
        "seed": 99,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# one invalid config per kind of fault: a short array, a missing key, most
# keywords broken at once, and a document of the wrong type
INVALID_CONFIGS = [
    {"spec": {"classes": []}},
    {"spec": {"classes": [{"p": 1.0}]}, "window": 1.0, "bands": [[0, 1]], "f": {"name": "first"},
     "estimators": [{"name": "avg"}], "n_realizations": 1, "seed": 0},
    {"spec": {"classes": []}, "window": "wide", "bands": [[0, 1, 2]], "f": {},
     "estimators": [{"name": "median"}], "n_realizations": 0, "seed": -1},
    [],
]


def jsonschema_messages(doc, schema) -> set[str]:
    """Every message jsonschema, the reference validator, gives for `doc`."""
    import jsonschema

    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return {error.message for error in cls(schema).iter_errors(doc)}


class TestConfig:
    def test_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"spec": {"classes": []}}))
        with pytest.raises(InputError, match="invalid config"):
            load_config(path)

    @pytest.mark.parametrize("doc", INVALID_CONFIGS)
    def test_schema_error_text_matches_jsonschema(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError) as got:
            load_config(path)
        prefix = f"invalid config {path}: "
        assert str(got.value).startswith(prefix)
        assert str(got.value)[len(prefix):] in jsonschema_messages(doc, CONFIG_SCHEMA)

    def test_integral_floats_in_integer_fields_run_as_ints(self, tmp_path):
        outputs = {}
        for name, overrides in {"int": dict(n_realizations=3, n_replicates=2, seed=5),
                                "float": dict(n_realizations=3.0, n_replicates=2.0,
                                              seed=5.0)}.items():
            (tmp_path / name).mkdir()
            cfg_path = small_config(tmp_path / name, **overrides)
            for command in ("simulate", "estimate"):
                out = tmp_path / name / command
                assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            simulated = sorted((tmp_path / name / "simulate").iterdir())
            outputs[name] = ([(p.name, p.read_text()) for p in simulated],
                             _strip_runtime(tmp_path / name / "estimate" / "results.csv"))
        assert outputs["float"] == outputs["int"]
        clt = load_config(small_config(tmp_path, clt={"n_seeds": 30.0, "group_size": 31.0}))
        assert clt["clt"] == {"n_seeds": 30, "group_size": 31}
        assert all(type(v) is int for v in clt["clt"].values())

    def test_missing_file_is_input_error(self, tmp_path):
        with pytest.raises(InputError):
            load_config(tmp_path / "nope.json")

    def test_shipped_configs_validate(self):
        for path in sorted(CONFIGS.glob("*.json")):
            load_config(path)

    def test_shipped_estimation_configs_run_when_shrunk(self, tmp_path):
        for path in sorted(CONFIGS.glob("*.json")):
            cfg = load_config(path)
            if "clt" in cfg:
                continue
            cfg.update(window=10.0, n_realizations=5, n_replicates=1)
            out = tmp_path / path.stem / "results.csv"
            assert cmd_estimate(cfg, out) == 0, path.name


# ---------------------------------------------------------------------------
# config and spec validation: sim._schema_error judges as jsonschema does
# ---------------------------------------------------------------------------

_SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}
_POOL = [None, True, False, 0, 1, 29, 30, 2.5, 3.0, float("nan"), float("inf"), float("-inf"),
         "", "avg", [], [1, 2, 3], {}]


def _paths(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, path + (key,))


def _property_names(schema) -> set[str]:
    names = set()
    for key, sub in schema.get("properties", {}).items():
        names |= {key} | _property_names(sub)
    return names | (_property_names(schema["items"]) if "items" in schema else set())


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_validator_agrees_with_jsonschema(data):
    doc = copy.deepcopy(_SHIPPED[data.draw(st.sampled_from(sorted(_SHIPPED)))])
    schema = data.draw(st.sampled_from([CONFIG_SCHEMA, sim.MIXTURE_SCHEMA]))
    if schema is sim.MIXTURE_SCHEMA:
        doc = doc["spec"]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["replace", "delete", "add"]))
    value = copy.deepcopy(data.draw(st.sampled_from(_POOL)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else doc
    if op == "replace" and not path:
        doc = value
    elif op == "replace":
        parent[path[-1]] = value
    elif op == "delete":
        assume(path)
        del parent[path[-1]]
    elif isinstance(target, dict):
        names = sorted(_property_names(schema) | {"extra"})
        target[data.draw(st.sampled_from(names))] = value
    else:
        assume(isinstance(target, list))
        target.insert(data.draw(st.integers(0, len(target))), value)
    expected = jsonschema_messages(doc, schema)
    error = sim._schema_error(doc, schema)
    assert (error is None) == (not expected), (path, op, value, error)
    assert error is None or error in expected, (path, op, value, error)


def _schema_nodes(schema):
    yield schema
    subs = list(schema.get("properties", {}).values())
    if "items" in schema:
        subs.append(schema["items"])
    for sub in subs:
        yield from _schema_nodes(sub)


# the keywords sim._schema_error reads, all but the bounds of sim._BOUNDS
_HANDLED = {"type", "enum", "minItems", "maxItems", "items", "required", "properties",
            "additionalProperties", *sim._BOUNDS}


@pytest.mark.parametrize("schema", [CONFIG_SCHEMA, sim.MIXTURE_SCHEMA], ids=["config", "spec"])
def test_schemas_use_only_keywords_the_validator_handles(schema):
    for node in _schema_nodes(schema):
        assert set(node) <= _HANDLED, sorted(set(node) - _HANDLED)
        assert node.get("additionalProperties", False) is False
        names = node.get("type", [])
        assert set([names] if isinstance(names, str) else names) <= set(sim._TYPES), names


class TestSimulate:
    def test_files_and_manifest(self, tmp_path):
        cfg = load_config(small_config(tmp_path, n_realizations=3))
        out = tmp_path / "sim"
        assert cmd_simulate(cfg, out) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json", "pattern_0000.csv", "pattern_0001.csv",
                         "pattern_0002.csv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["class_index"]) == 3
        assert len(manifest["spec_sha256"]) == 64

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = load_config(small_config(tmp_path, n_realizations=4))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cmd_simulate(cfg, out1)
        cmd_simulate(cfg, out2)
        for p1 in sorted(out1.iterdir()):
            assert p1.read_bytes() == (out2 / p1.name).read_bytes()

    def test_class_frequencies_within_binomial_band(self, tmp_path):
        cfg = load_config(small_config(tmp_path, n_realizations=2000, window=1.0))
        out = tmp_path / "sim"
        cmd_simulate(cfg, out)
        ks = json.loads((out / "manifest.json").read_text())["class_index"]
        freq = np.mean(np.array(ks) == 0)
        assert abs(freq - 0.5) < 4 * np.sqrt(0.25 / 2000)


class TestEstimate:
    def test_weights_digest_is_pinned(self):
        # 17 significant digits of each weight, signed zero, nan and inf included
        w = [0.25, -0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e-310, 1 / 3, 2.0**60]
        assert _weights_digest(w) == _weights_digest(np.array(w)) == "7097843adb06"

    def test_rows_and_columns(self, tmp_path):
        cfg = load_config(small_config(tmp_path))
        out = tmp_path / "results.csv"
        assert cmd_estimate(cfg, out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("estimator,band_lo,band_hi,replicate,value")
        assert len(lines) == 1 + 3 * 3  # header + estimators x replicates
        cell = lines[1].split(",")
        assert cell[0] == "avg"
        assert float(cell[10]) == pytest.approx(160.0 / 17.0)  # oracle_mu
        assert float(cell[11]) == pytest.approx(5.0)  # oracle_mu_tilde

    def test_deterministic_output(self, tmp_path):
        # bit-exact up to the wall-clock runtime_ms diagnostic column
        cfg = load_config(small_config(tmp_path))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        cmd_estimate(cfg, out1)
        cmd_estimate(cfg, out2)
        assert _strip_runtime(out1) == _strip_runtime(out2)

    def test_undefined_estimates_exit_code_1(self, tmp_path):
        # patterns simulated for a short band cannot contain any pair at
        # distance 40: estimating that band from files is undefined
        cfg = load_config(small_config(tmp_path, n_realizations=2, n_replicates=1,
                                       estimators=[{"name": "avg"}]))
        sim_dir = tmp_path / "sim"
        cmd_simulate(cfg, sim_dir)
        cfg["bands"] = [[40.0, 41.0]]
        assert cmd_estimate(cfg, tmp_path / "r.csv", pattern_dir=sim_dir) == 1

    def test_estimate_from_pattern_dir(self, tmp_path):
        cfg = load_config(small_config(tmp_path, n_realizations=5, n_replicates=1))
        sim_dir = tmp_path / "sim"
        cmd_simulate(cfg, sim_dir)
        out = tmp_path / "results.csv"
        assert cmd_estimate(cfg, out, pattern_dir=sim_dir) == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_pattern_dir_read_once(self, tmp_path, monkeypatch):
        cfg = load_config(small_config(tmp_path, n_realizations=4, n_replicates=3))
        sim_dir = tmp_path / "sim"
        cmd_simulate(cfg, sim_dir)
        reads = []
        original = core.read_pattern_csv

        def counting_read(path):
            reads.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(core, "read_pattern_csv", counting_read)
        out = tmp_path / "results.csv"
        assert cmd_estimate(cfg, out, pattern_dir=sim_dir) == 0
        assert sorted(reads) == [f"pattern_{i:04d}.csv" for i in range(4)]
        assert len(out.read_text().strip().splitlines()) == 1 + 3 * 3

    def test_one_enumeration_per_realization_and_band(self, tmp_path, monkeypatch):
        # every estimator and weighting, rfvar included, shares one pair
        # table per band, and one sweep serves all the bands: it covers
        # each realization once inside a block, in every band at once;
        # infer clt sweeps its one band once.  No command enumerates a
        # single pattern again.
        sweeps, single = [], []
        original = core._pairs_sorted_1d
        single_pattern = core.band_pair_indices

        def counting_sweep(x, starts, t1_ok, kept, bands):
            sweeps.append((tuple(band.lo for band in bands), x.tobytes(), starts.tolist()))
            return original(x, starts, t1_ok, kept, bands)

        for module in vars(mppstat).values():
            if getattr(module, "_pairs_sorted_1d", None) is original:
                monkeypatch.setattr(module, "_pairs_sorted_1d", counting_sweep)
            if getattr(module, "band_pair_indices", None) is single_pattern:
                monkeypatch.setattr(module, "band_pair_indices",
                                    lambda *args: single.append(args) or single_pattern(*args))

        def assert_one_sweep(cfg_path, n, seed, bands):
            cfg = load_config(cfg_path)
            spec = mppstat.mixture_from_json(cfg["spec"])
            sim_win = core.buffered_window(core.Window(cfg["window"]), bands)
            patterns = [p for p, _ in mppstat.sample_mixture(spec, sim_win, n, seed)]
            every_x = b"".join(p.locations[:, 0].tobytes() for p in patterns)
            assert {los for los, _, _ in sweeps} == {tuple(band.lo for band in bands)}
            assert b"".join(x for _, x, _ in sweeps) == every_x
            assert sum(len(starts) - 1 for _, _, starts in sweeps) == n
            assert single == []
            sweeps.clear()

        estimators = [{"name": "avg"}, {"name": "pooled"},
                      {"name": "weighted", "weights": "alpha"},
                      {"name": "weighted", "weights": "count"},
                      {"name": "weighted", "weights": "rfvar"}]
        cfg_path = small_config(tmp_path, n_realizations=6, n_replicates=1,
                                bands=[[0.5, 1.5], [-1.5, -0.5]], estimators=estimators)
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "e"),
                     "--cov-model", "spherical", "--cov-params", "1.0,0.5"]) == 0
        seed = load_config(cfg_path)["seed"]
        assert_one_sweep(cfg_path, 6, (seed, 0),
                         [core.Band(0.5, 1.5), core.Band(-1.5, -0.5)])

        doc = json.loads((CONFIGS / "clt_grid_field.json").read_text())
        doc["window"] = 20.0
        doc["clt"].update(n_seeds=30, group_size=30)
        clt_path = tmp_path / "clt.json"
        clt_path.write_text(json.dumps(doc))
        assert main(["infer", "clt", "--config", str(clt_path),
                     "--out", str(tmp_path / "clt")]) == 0
        assert_one_sweep(clt_path, 30, doc["seed"], [core.Band(*doc["bands"][0])])

    def test_estimate_from_simulated_files_equals_estimate_from_sampler(self, tmp_path,
                                                                        monkeypatch):
        # simulate draws realization i from the stream (seed, i) and estimate
        # from (seed, r, i); with the streams aligned, reading the files back
        # must give the sampler's results byte for byte
        estimators = [{"name": "avg"}, {"name": "pooled"},
                      {"name": "weighted", "weights": "count"},
                      {"name": "weighted", "weights": "rfvar"}]
        cfg_path = small_config(tmp_path, n_realizations=12, n_replicates=1,
                                bands=[[0.5, 1.5], [-1.5, -0.5]], estimators=estimators)
        rfvar = ["--cov-model", "spherical", "--cov-params", "1.0,0.5"]
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")]) == 0
        assert main(["estimate", "--config", str(cfg_path), "--patterns", str(tmp_path / "sim"),
                     "--out", str(tmp_path / "from_files"), *rfvar]) == 0
        sample_batch = sim.sample_batch
        monkeypatch.setattr(sim, "sample_batch",
                            lambda spec, win, n, seed: sample_batch(spec, win, n, seed[0]))
        assert main(["estimate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "from_sampler"), *rfvar]) == 0
        from_files = _strip_runtime(tmp_path / "from_files" / "results.csv")
        assert from_files == _strip_runtime(tmp_path / "from_sampler" / "results.csv")
        assert len(from_files) == 1 + 2 * len(estimators)

    def test_malformed_pattern_file_names_file_and_line(self, tmp_path):
        cfg = load_config(small_config(tmp_path, n_realizations=2, n_replicates=1))
        sim_dir = tmp_path / "sim"
        cmd_simulate(cfg, sim_dir)
        bad = sim_dir / "pattern_0001.csv"
        content = bad.read_text().splitlines()
        content[2] = "not,a,number"
        bad.write_text("\n".join(content) + "\n")
        with pytest.raises(InputError, match=r"pattern_0001\.csv: line 3"):
            cmd_estimate(cfg, tmp_path / "r.csv", pattern_dir=sim_dir)


class TestReport:
    def test_summary_and_plot_script(self, tmp_path):
        cfg = load_config(small_config(tmp_path))
        results = tmp_path / "results.csv"
        cmd_estimate(cfg, results)
        out = tmp_path / "report"
        assert cmd_report(results, out) == 0
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert summary[0].startswith("estimator,band_lo,band_hi,n,mean,variance,bias_mu")
        assert len(summary) == 4
        avg_row = [ln for ln in summary if ln.startswith("avg")][0].split(",")
        assert float(avg_row[3]) == 3  # replicates aggregated
        assert (out / "plot_summary.gp").read_text().startswith("# gnuplot")

    def test_empty_results_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("estimator,band_lo\n")
        with pytest.raises(InputError, match="no data rows"):
            cmd_report(path, tmp_path / "rep")


class TestMain:
    def test_simulate_estimate_report_round_trip(self, tmp_path):
        cfg_path = small_config(tmp_path, n_realizations=5, n_replicates=2)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 0
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "e")]) == 0
        assert main(["report", "--results", str(tmp_path / "e" / "results.csv"),
                     "--out", str(tmp_path / "rep")]) == 0

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"spec\": 3}")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_misspelt_config_key_exit_2(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "vwap_two_regimes.json").read_text())
        doc["n_replicatse"] = doc.pop("n_replicates")
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert "'n_replicatse' was unexpected" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("where,entry,key", [
        ("f", {"name": "threshold_excess", "base": "first", "uu": 2.0}, "uu"),
        ("f", {"name": "indicator_pair", "a_low": 2.0}, "a_low"),
        ("ground", {"kind": "grid", "spacing": 1.0, "jiter": 0.2}, "jiter"),
        ("marks", {"kind": "gaussian_field", "mean": 0.0, "variance": 1.0, "cov_range": 0.4,
                   "shap": "trunc_exp"}, "shap"),
        ("ground", {"kind": "poisson", "intensity": 4.0, "intensty": 2.0}, "intensty"),
        ("marks", {"kind": "iid", "distribution": "normal", "params": [0.0, 1.0], "sd": 2.0},
         "sd"),
    ], ids=["threshold_excess", "indicator_pair", "grid", "gaussian_field", "poisson", "iid"])
    def test_misspelt_parameter_exit_2(self, tmp_path, capsys, where, entry, key):
        cfg_path = small_config(tmp_path, n_realizations=2, n_replicates=1)
        doc = json.loads(cfg_path.read_text())
        if where == "f":
            doc["f"] = entry
        else:
            doc["spec"]["classes"][1][where] = entry
        cfg_path.write_text(json.dumps(doc))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"unexpected keyword argument '{key}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("where,entry,key", [
        ("ground", {"kind": "poisson", "intensity": True}, "intensity"),
        ("f", {"name": "threshold_excess", "u": True}, "u"),
        ("f", {"name": "indicator_pair", "a_lo": False}, "a_lo"),
        ("marks", {"kind": "iid", "distribution": "normal", "params": [0.0, True]}, "params"),
    ], ids=["poisson", "threshold_excess", "indicator_pair", "iid"])
    def test_bool_parameter_exit_2(self, tmp_path, capsys, where, entry, key):
        cfg_path = small_config(tmp_path, n_realizations=2, n_replicates=1)
        doc = json.loads(cfg_path.read_text())
        if where == "f":
            doc["f"] = entry
        else:
            doc["spec"]["classes"][1][where] = entry
        cfg_path.write_text(json.dumps(doc))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"parameter '{key}' must not be a bool" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("entry", [
        {"name": "threshold_excess", "u": [1, 2]},
        {"name": "indicator_pair", "a_lo": [1, 2]},
    ], ids=["threshold_excess", "indicator_pair"])
    def test_list_valued_mark_parameter_exit_2(self, tmp_path, capsys, entry):
        cfg_path = small_config(tmp_path, n_realizations=2, n_replicates=1)
        doc = json.loads(cfg_path.read_text())
        doc["f"] = entry
        cfg_path.write_text(json.dumps(doc))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: mark function {entry['name']!r}")
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("name", [["first"], {}], ids=["list", "object"])
    def test_non_string_mark_function_name_exit_2(self, tmp_path, capsys, name):
        cfg_path = small_config(tmp_path, n_realizations=2, n_replicates=1, f={"name": name})
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mark function name must be a string")
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_oracle_overflow_exit_2(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path, n_realizations=2, n_replicates=1)
        doc = json.loads(cfg_path.read_text())
        for cls in doc["spec"]["classes"]:
            cls["ground"]["intensity"] = 1e300  # intensity**2 overflows
        cfg_path.write_text(json.dumps(doc))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot sample a Poisson ground")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_infinite_mark_parameter_exit_2(self, tmp_path, capsys, command):
        cfg_path = small_config(tmp_path, n_realizations=2, n_replicates=1)
        doc = json.loads(cfg_path.read_text())
        for cls in doc["spec"]["classes"]:
            cls["marks"]["params"][0] = float("inf")
        cfg_path.write_text(json.dumps(doc))  # written as Infinity
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "marks y must be finite" in err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["estimate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = small_config(tmp_path, n_realizations=4, n_replicates=1)
        main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["estimate", "--config", str(cfg_path), "--seed", "123",
              "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "results.csv").read_text()
        b = (tmp_path / "b" / "results.csv").read_text()
        assert a != b

    def test_weights_flag_requires_cov_params_for_rfvar(self, tmp_path):
        cfg_path = small_config(tmp_path)
        code = main(["estimate", "--config", str(cfg_path), "--weights", "rfvar",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_weights_flag_without_weighted_estimator_exit_2(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path, estimators=[{"name": "avg"}])
        code = main(["estimate", "--config", str(cfg_path), "--weights", "rfvar",
                     "--cov-model", "spherical", "--cov-params", "1.0,0.5",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "no 'weighted' estimator" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("case", ["dim_header", "window_no_colon", "window_not_number",
                                      "cov_params", "manifest_no_files", "report_columns",
                                      "report_value", "report_oracle_mu",
                                      "report_oracle_mu_tilde", "report_short_row",
                                      "config_deep_nesting", "manifest_deep_nesting"])
    def test_malformed_input_exit_2_without_traceback(self, tmp_path, capsys, case):
        cfg_path = small_config(tmp_path, n_realizations=2, n_replicates=1)
        sim_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(sim_dir)]) == 0
        capsys.readouterr()
        pattern = sim_dir / "pattern_0000.csv"
        lines = pattern.read_text().splitlines()
        argv = ["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "e"),
                "--patterns", str(sim_dir)]
        if case == "dim_header":
            lines[0] = "# dim=x"
        elif case == "window_no_colon":
            lines[1] = "# window=0.0"
        elif case == "window_not_number":
            lines[1] = "# window=a:b"
        elif case == "cov_params":
            argv += ["--weights", "rfvar", "--cov-model", "spherical", "--cov-params", "1"]
        elif case.endswith("deep_nesting"):
            # deeper than json.load can recurse
            path = cfg_path if case.startswith("config") else sim_dir / "manifest.json"
            path.write_text("[" * 100_000 + "]" * 100_000)
        elif case.startswith("report"):
            results = tmp_path / "results.csv"
            row = {"report_value": "avg,0.5,1.5,0,xx,3,0,,1,0.1,1.0,1.0",
                   "report_oracle_mu": "avg,0.5,1.5,0,2.0,3,0,,1,0.1,xx,1.0",
                   "report_oracle_mu_tilde": "avg,0.5,1.5,0,2.0,3,0,,1,0.1,1.0,xx",
                   "report_short_row": "avg,0.5,1.5,0\navg,0.5"}.get(case)
            results.write_text("a,b\n1,2\n" if row is None else f"{ESTIMATE_HEADER}\n{row}\n")
            argv = ["report", "--results", str(results), "--out", str(tmp_path / "r")]
        else:
            (sim_dir / "manifest.json").write_text(json.dumps({"seed": 1}))
        pattern.write_text("\n".join(lines) + "\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("reader", ["pattern", "manifest", "config", "report"])
    def test_undecodable_bytes_exit_2(self, tmp_path, capsys, reader):
        cfg_path = small_config(tmp_path, n_realizations=2, n_replicates=1)
        sim_dir = tmp_path / "sim"
        est_argv = ["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "e"),
                    "--patterns", str(sim_dir)]
        assert main(["simulate", "--config", str(cfg_path), "--out", str(sim_dir)]) == 0
        assert main(est_argv) == 0
        results = tmp_path / "e" / "results.csv"
        path = {"pattern": sim_dir / "pattern_0000.csv", "manifest": sim_dir / "manifest.json",
                "config": cfg_path, "report": results}[reader]
        # "\xc3\xa9" is not ASCII; "\xff" is not UTF-8 either
        path.write_bytes(path.read_bytes().replace(b"\n", b"\xc3\xa9\xff\n", 1) + b"\xff")
        capsys.readouterr()
        argv = (["report", "--results", str(results), "--out", str(tmp_path / "r")]
                if reader == "report" else est_argv)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, where):
        cfg_path = small_config(tmp_path, n_realizations=2, n_replicates=1,
                                seed=-1 if where == "config" else 1)
        argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "s")]
        if where == "flag":
            argv += ["--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_rfvar_with_cov_model(self, tmp_path):
        cfg_path = small_config(tmp_path, n_replicates=1, n_realizations=8)
        code = main(["estimate", "--config", str(cfg_path), "--weights", "rfvar",
                     "--cov-model", "spherical", "--cov-params", "1.0,0.5",
                     "--out", str(tmp_path / "x")])
        assert code == 0

    def test_infer_clt_prints_group_count(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "clt_grid_field.json").read_text())
        doc["window"] = 40.0
        doc["clt"].update(n_seeds=60, group_size=30)
        cfg_path = tmp_path / "clt.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["infer", "clt", "--config", str(cfg_path),
                     "--out", str(tmp_path / "clt")]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        fields = dict(kv.split("=") for kv in line.split())
        c = float(fields["coverage"])
        assert fields["n_groups"] == "2"
        assert float(fields["coverage_se"]) == pytest.approx(np.sqrt(c * (1 - c) / 2), abs=1e-3)

    def test_infer_clt(self, tmp_path):
        doc = json.loads((CONFIGS / "clt_grid_field.json").read_text())
        doc["window"] = 80.0
        doc["clt"]["n_seeds"] = 60
        doc["clt"].pop("group_size")
        cfg_path = tmp_path / "clt.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["infer", "clt", "--config", str(cfg_path),
                     "--out", str(tmp_path / "clt")]) == 0
        lines = (tmp_path / "clt" / "clt_stats.csv").read_text().strip().splitlines()
        assert lines[0] == "seed_index,alpha_star,conditional_pairs,statistic"
        assert lines[-1].startswith("# summary,s_hat=")
        assert len(lines) == 62  # header + 60 seeds + summary

    def test_infer_clt_level_with_infinite_quantile_exits_2(self, tmp_path, capsys):
        # 0.5 * (1 + level) rounds to 1.0 at the largest double below 1 only
        doc = json.loads((CONFIGS / "clt_grid_field.json").read_text())
        doc["window"] = 40.0
        doc["clt"].update(n_seeds=60, group_size=30, level=1 - 2**-53)
        cfg_path = tmp_path / "clt.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["infer", "clt", "--config", str(cfg_path),
                     "--out", str(tmp_path / "clt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: level must be in (0, 1)") and "Traceback" not in err

    # the square of a mark near 1e200 overflows: numpy warns, and the pair is named
    @pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
    def test_infer_clt_non_finite_excess_names_its_pair(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "clt_grid_field.json").read_text())
        doc["spec"]["classes"][0]["marks"] = {"kind": "iid", "distribution": "uniform",
                                              "params": [1e200, 2e200]}
        doc["f"] = {"name": "first_squared"}
        doc["window"] = 40.0
        doc["clt"].update(u=1.0, n_seeds=30, group_size=30)
        cfg_path = tmp_path / "clt.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["infer", "clt", "--config", str(cfg_path),
                     "--out", str(tmp_path / "clt")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: mark function returned a non-finite value for pair "
                            r"\(t1=\([-+.e0-9]+,\), y1=1\.[0-9]+e\+200, z1=1\.0\) x "
                            r"\(t2=\([-+.e0-9]+,\), y2=1\.[0-9]+e\+200\)\n", err), err
        assert not (tmp_path / "clt").exists()

    def test_parser_is_built_once_and_keeps_no_state(self):
        parser = _build_parser()
        assert _build_parser() is parser
        first = parser.parse_args(["estimate", "--config", "c.json", "--weights", "rfvar",
                                   "--cov-model", "spherical", "--cov-params", "1,0.5"])
        again = parser.parse_args(["estimate", "--config", "c.json"])
        assert first.weights == "rfvar"
        assert (again.weights, again.cov_model, again.cov_params) == (None, None, None)

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    @pytest.mark.parametrize("overrides, message", [
        ({"window": ["a"]}, "invalid config"),
        # the buffered window is so large that no Poisson count can be drawn
        ({"bands": [[0, 1e308]]}, "expected points"),
    ], ids=["non_numeric_window", "huge_band"])
    def test_unusable_window_exit_2_without_traceback(self, tmp_path, capsys, command,
                                                      overrides, message):
        cfg_path = small_config(tmp_path, n_realizations=2, n_replicates=1, **overrides)
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# cold start: scipy submodules are imported by the code that uses them
# ---------------------------------------------------------------------------

HEAVY_SCIPY = ("scipy.stats", "scipy.integrate", "scipy.spatial", "scipy.linalg")


class TestColdStart:
    def test_valid_configs_and_specs_load_no_jsonschema(self, tmp_path):
        loaded = modules_after(
            "import mppstat.cli\n"
            f"for path in {sorted(map(str, CONFIGS.glob('*.json')))!r}:\n"
            "    config = mppstat.cli.load_config(path)\n"
            "    mppstat.sim.mixture_from_json(config['spec'])",
            tmp_path, "jsonschema")
        assert loaded == set()

    def test_configs_judged_with_jsonschema_unimportable(self, tmp_path):
        invalid = []
        for i, doc in enumerate(INVALID_CONFIGS):
            invalid.append(str(tmp_path / f"invalid_{i}.json"))
            Path(invalid[-1]).write_text(json.dumps(doc))
        # modules_after asserts that the child exits 0, so every assert in it held
        modules_after(
            "import sys\n"
            "sys.modules['jsonschema'] = None  # any import of it raises ImportError\n"
            "from mppstat import InputError, cli, sim\n"
            f"for path in {sorted(map(str, CONFIGS.glob('*.json')))!r}:\n"
            "    sim.mixture_from_json(cli.load_config(path)['spec'])\n"
            f"for path in {invalid!r}:\n"
            "    try:\n"
            "        cli.load_config(path)\n"
            "    except InputError as exc:\n"
            "        assert str(exc).startswith(f'invalid config {path}: '), exc\n"
            "    else:\n"
            "        raise AssertionError(path)",
            tmp_path, "mppstat")

    def test_cli_import_loads_no_numpy_random(self, tmp_path):
        # the sampler's seed sequence class is defined on first use
        loaded = modules_after("import mppstat.cli", tmp_path, "numpy")
        assert not {m for m in loaded if m.split(".")[:2] == ["numpy", "random"]}

    def test_cli_and_config_load_no_heavy_scipy_module(self, tmp_path):
        loaded = modules_after(
            "import mppstat.cli\n"
            f"mppstat.cli.load_config({str(CONFIGS / 'two_class_separation.json')!r})",
            tmp_path, "scipy")
        assert loaded.isdisjoint(HEAVY_SCIPY)

    def test_help_report_and_iid_estimate_load_no_scipy(self, tmp_path):
        # the shipped config with fewer realizations: the import set does not
        # depend on the counts
        doc = json.loads((CONFIGS / "two_class_separation.json").read_text())
        doc.update(n_realizations=20, n_replicates=2)
        cfg_path = tmp_path / "two_class_separation.json"
        cfg_path.write_text(json.dumps(doc))
        results = tmp_path / "est" / "results.csv"
        runs = {
            "help": "try:\n    main(['--help'])\nexcept SystemExit:\n    pass",
            "estimate": f"assert main(['estimate', '--config', {str(cfg_path)!r}, "
                        f"'--out', {str(tmp_path / 'est')!r}]) == 0",
            "report": f"assert main(['report', '--results', {str(results)!r}, "
                      f"'--out', {str(tmp_path / 'rep')!r}]) == 0",
        }
        for name, call in runs.items():  # report reads what estimate wrote
            loaded = modules_after("from mppstat.cli import main\n" + call, tmp_path, "scipy")
            assert loaded == set(), (name, sorted(loaded))

    def test_infer_clt_loads_no_scipy_stats(self, tmp_path):
        # the shipped config draws fields with band width 0; cov_range 1.5
        # puts neighbours in range, so its fields go through the banded factor.
        # Uniform marks and the squared base take the other threshold oracles.
        shipped = (CONFIGS / "clt_grid_field.json").read_text()
        docs = {name: json.loads(shipped) for name in ("banded", "uniform", "first_squared")}
        docs["banded"]["spec"]["classes"][0]["marks"]["cov_range"] = 1.5
        docs["uniform"]["spec"]["classes"][0]["marks"] = {
            "kind": "iid", "distribution": "uniform", "params": [2.744, 7.519]}
        docs["first_squared"]["f"] = {"name": "first_squared"}
        configs = [CONFIGS / "clt_grid_field.json"]
        for name, doc in docs.items():
            configs.append(tmp_path / f"{name}.json")
            configs[-1].write_text(json.dumps(doc))
        for cfg in configs:
            loaded = modules_after(
                "from mppstat.cli import main\n"
                f"assert main(['infer', 'clt', '--config', {str(cfg)!r}, "
                f"'--out', {str(tmp_path / cfg.stem)!r}]) == 0",
                tmp_path, "scipy")
            top = {".".join(m.split(".")[:2]) for m in loaded}
            assert "scipy.special" in top, sorted(top)
            assert top.isdisjoint({"scipy.stats", "scipy.integrate", "scipy.optimize"}), (
                cfg.stem, sorted(top))
            assert ("scipy.linalg" in top) == (cfg.stem == "banded"), sorted(top)

    def test_uniform_and_squared_threshold_oracles_load_no_scipy_stats(self, tmp_path):
        loaded = modules_after(
            "from mppstat import IidMarks, threshold_excess_mean\n"
            "mu, p = threshold_excess_mean(IidMarks('uniform', (0.0, 2.0)), 'first', 1.0)\n"
            "assert abs(mu - 0.5) < 1e-9 and abs(p - 0.5) < 1e-12, (mu, p)\n"
            "mu, p = threshold_excess_mean(IidMarks('normal', (0.0, 1.0)), 'first_squared', 1.0)\n"
            "assert abs(p - 0.3173105078629141) < 1e-15, p",
            tmp_path, "scipy")
        assert loaded.isdisjoint({"scipy.stats", "scipy.integrate"}), sorted(loaded)


# ---------------------------------------------------------------------------
# fuzzed input files: every outcome is an exit code, never a traceback
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cfg_path = small_config(root, n_realizations=2, window=6.0)
    doc = json.loads(cfg_path.read_text())
    del doc["n_replicates"]
    cfg_path.write_text(json.dumps(doc, indent=1))  # one key per line for line edits
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(cfg_path), "--out", str(root / "sim")]) == 0
    return root


_FUZZ_TARGETS = {"pattern": "sim/pattern_0000.csv", "manifest": "sim/manifest.json",
                 "config": "config.json"}

_line_text = st.one_of(
    st.text(max_size=16),
    st.text(alphabet="0123456789.,-+e:;#=\"[]{} dimwnofa", max_size=24),
).map(lambda t: t.encode("utf-8"))

_edits = st.lists(
    st.one_of(
        st.tuples(st.just("bytes"), st.integers(0, 10**6), st.binary(min_size=1, max_size=8)),
        st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.integers(0, 10**6),
                  _line_text),
    ),
    min_size=1,
    max_size=3,
)


def _apply_edit(data: bytes, edit) -> bytes:
    kind, pos, payload = edit
    if kind == "bytes":
        pos %= len(data) + 1
        return data[:pos] + payload + data[pos:]
    lines = data.split(b"\n")
    pos %= len(lines)
    if kind == "insert":
        lines.insert(pos, payload)
    elif kind == "replace":
        lines[pos] = payload
    else:
        del lines[pos]
    return b"\n".join(lines)


@pytest.mark.parametrize("target", sorted(_FUZZ_TARGETS))
@given(edits=_edits)
@settings(max_examples=40, deadline=None)
def test_fuzzed_input_files_exit_without_traceback(fuzz_base, target, edits):
    with tempfile.TemporaryDirectory(dir=fuzz_base) as tmp:
        work = Path(tmp)
        shutil.copytree(fuzz_base / "sim", work / "sim")
        shutil.copy(fuzz_base / "config.json", work / "config.json")
        path = work / _FUZZ_TARGETS[target]
        data = path.read_bytes()
        for edit in edits:
            data = _apply_edit(data, edit)
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(["estimate", "--config", str(work / "config.json"),
                             "--patterns", str(work / "sim"), "--out", str(work / "out")])
            except SystemExit as exc:  # argparse
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
