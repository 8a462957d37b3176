"""Command-line workflows: determinism, exit codes, file formats."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mppstat
from mppstat.cli import (
    CONFIG_SCHEMA,
    ESTIMATE_HEADER,
    cmd_estimate,
    cmd_report,
    cmd_simulate,
    load_config,
    main,
)
from mppstat import InputError, core, sim

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


class TestConfig:
    def test_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"spec": {"classes": []}}))
        with pytest.raises(InputError, match="invalid config"):
            load_config(path)

    @pytest.mark.parametrize("doc", [
        {"spec": {"classes": []}},
        {"spec": {"classes": [{"p": 1.0}]}, "window": 1.0, "bands": [[0, 1]], "f": {"name": "first"},
         "estimators": [{"name": "avg"}], "n_realizations": 1, "seed": 0},
        {"spec": {"classes": []}, "window": "wide", "bands": [[0, 1, 2]], "f": {},
         "estimators": [{"name": "median"}], "n_realizations": 0, "seed": -1},
        [],
    ])
    def test_schema_error_text_matches_jsonschema(self, tmp_path, doc):
        import jsonschema

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, CONFIG_SCHEMA)
        with pytest.raises(InputError) as got:
            load_config(path)
        assert str(got.value) == f"invalid config {path}: {expected.value.message}"

    def test_schema_checked_once_per_process(self, tmp_path, monkeypatch):
        import jsonschema

        cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
        original = cls.check_schema
        checked = []

        def counting_check(schema, *args, **kwargs):
            checked.append(schema is CONFIG_SCHEMA)
            return original(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", staticmethod(counting_check))
        monkeypatch.setattr(sim, "_VALIDATORS", {})
        path = small_config(tmp_path)
        load_config(path)
        assert checked == [True]
        load_config(path)
        assert checked == [True]

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
        # avg, pooled and both count-based weightings share one pair table per
        # band, and the table sweeps each realization once, inside a block
        estimators = [{"name": "avg"}, {"name": "pooled"},
                      {"name": "weighted", "weights": "alpha"},
                      {"name": "weighted", "weights": "count"}]
        cfg_path = small_config(tmp_path, n_realizations=6, n_replicates=1,
                                bands=[[0.5, 1.5], [-1.5, -0.5]], estimators=estimators)
        sweeps = []
        original = core._pairs_sorted_1d

        def counting_sweep(x, starts, t1_ok, band):
            sweeps.append((band.lo, x.tobytes(), starts.tolist()))
            return original(x, starts, t1_ok, band)

        for module in vars(mppstat).values():
            if getattr(module, "_pairs_sorted_1d", None) is original:
                monkeypatch.setattr(module, "_pairs_sorted_1d", counting_sweep)
        assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "e")]) == 0
        cfg = load_config(cfg_path)
        spec = mppstat.mixture_from_json(cfg["spec"])
        bands = [core.Band(*b) for b in cfg["bands"]]
        sim_win = core.buffered_window(core.Window(cfg["window"]), bands)
        patterns = [p for p, _ in mppstat.sample_mixture(spec, sim_win, 6, (cfg["seed"], 0))]
        every_x = b"".join(p.locations[:, 0].tobytes() for p in patterns)
        for band in bands:
            mine = [(x, starts) for lo, x, starts in sweeps if lo == band.lo]
            assert b"".join(x for x, _ in mine) == every_x
            assert sum(len(starts) - 1 for _, starts in mine) == 6

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
                                      "report_oracle_mu_tilde", "report_short_row"])
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
