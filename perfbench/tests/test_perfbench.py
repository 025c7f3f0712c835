"""Tests of the benchmark itself: generators, span arithmetic, output checks."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(tmp_path, name):
    config_a, drivers_a = workloads.generate(name, tmp_path / "a", 5)
    config_b, drivers_b = workloads.generate(name, tmp_path / "b", 5)
    _, drivers_c = workloads.generate(name, tmp_path / "c", 6)
    assert drivers_a == drivers_b and drivers_a[0] != drivers_a[1]
    assert _digests(tmp_path / "a") == _digests(tmp_path / "b")
    assert _digests(tmp_path / "a") != _digests(tmp_path / "c")
    config = json.loads(config_a.read_text())
    assert config["seed"] == workloads.analysis_seed(name, 5)
    assert set(drivers_a + drivers_c) <= set(config["features"]["columns"])


def _span(id_, parent, name, start, end, **attrs):
    return {"id": id_, "parent": parent, "name": name, "start": start, "end": end,
            "thread": 1, "run": "0", "attrs": attrs}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, "run", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 3.0, 6.0),  # overlaps a, as pool threads do
        _span(4, 2, "c", 2.0, 3.0),
        _span(5, 3, "d", 5.5, 7.0),  # reaches past its parent; only the overlap counts
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({1: 5.0, 2: 2.0, 3: 2.5, 4: 1.0, 5: 1.5})


def test_layer_metrics_split_engine_time_from_model_calls():
    trace = {"import_s": 0.25, "spans": [
        _span(1, None, "run", 0.0, 20.0),
        _span(2, 1, "experiment.run_period", 1.0, 19.0, windows=1, degenerate=0),
        _span(3, 2, "experiment.make_windows", 1.0, 1.5, planned=2),
        _span(4, 2, "gbt.fit", 2.0, 6.0, rows=100, trees=3, leaves=12),
        _span(5, 2, "shap.explain", 7.0, 17.0, method="tree", rows=40, background=10, minor_faults=7),
        _span(6, 5, "gbt.predict", 8.0, 9.0, rows=10),
        _span(7, 5, "gbt.predict", 10.0, 12.0, rows=40),
        _span(8, 2, "gbt.predict", 17.5, 18.0, rows=40),
    ]}
    m = tracer.layer_metrics(trace)
    assert m["shap.tree_s"] == pytest.approx(7.0)
    assert m["gbt.predict_s"] == pytest.approx(3.5)
    assert m["shap.model_eval_rows"] == 50
    assert m["shap.model_eval_rows_per_row"] == pytest.approx(1.25)
    assert m["gbt.fit_rows"] == 300
    assert m["experiment.glue_s"] == pytest.approx(18.0 - 0.5 - 4.0 - 10.0 - 0.5)
    assert m["experiment.windows_failed"] == 1
    assert m["shap.minor_faults"] == 7
    assert set(m) | {"trace.run_s", "trace.overhead_s", "trace.focus_share"} == {
        name for name, _, _ in tracer.PER_LAYER}


def test_check_exercised_names_idle_layers():
    trace = {"spans": [_span(1, None, "shap.explain", 0.0, 1.0, method="kernel")]}
    tracer.check_exercised(trace, ("shap.kernel",))
    with pytest.raises(tracer.TraceError, match="gbt, shap.tree"):
        tracer.check_exercised(trace, ("gbt", "shap.tree", "shap.kernel"))


def test_install_fails_loudly_when_a_wrapped_name_is_gone(monkeypatch):
    monkeypatch.setattr(tracer, "WRAPPED", (("config.load", "json", "no_such_function"),))
    with pytest.raises(tracer.TraceError, match="json.no_such_function no longer exists"):
        tracer.Tracer("0").install()


def _write_outputs(out: Path, rows: list[tuple]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "before_mean", "before_std", "after_mean", "after_std", "delta",
                         "flagged"])
        for feature, before, after, flagged in rows:
            writer.writerow([feature, before, 0.01, after, 0.01, after - before, flagged])
    (out / "importance.csv").write_text("period,window,feature,fi\n")
    (out / "dependence.csv").write_text("period,window,timestamp,feature,x_value,phi_value\n")
    windows = [{"test_r2": 0.9}, {"test_r2": 0.8}]
    (out / "manifest.json").write_text(json.dumps({"metrics": {"before": windows, "after": windows}}))


GOOD = [("x1", 0.7, 0.2, "true"), ("x2", 0.2, 0.7, "true"), ("x3", 0.1, 0.1, "false")]


def test_output_check_accepts_the_planted_shift(tmp_path):
    _write_outputs(tmp_path, GOOD)
    first = run.check_outputs(tmp_path, ("x1", "x2"), None)
    assert first["problems"] == []
    assert first["test_r2"] == pytest.approx(0.85)
    again = run.check_outputs(tmp_path, ("x1", "x2"), first["sha256"])
    assert again["problems"] == []


@pytest.mark.parametrize("rows", [
    [("x1", 0.7, 0.2, "true"), ("x2", 0.2, 0.7, "false"), ("x3", 0.1, 0.1, "false")],
    [("x1", 0.7, 0.6, "true"), ("x2", 0.2, 0.3, "true"), ("x3", 0.1, 0.1, "false")],
    [("x1", 0.2, 0.7, "true"), ("x2", 0.7, 0.2, "true"), ("x3", 0.1, 0.1, "false")],
])
def test_output_check_rejects_a_tampered_comparison(tmp_path, rows):
    _write_outputs(tmp_path, rows)
    assert run.check_outputs(tmp_path, ("x1", "x2"), None)["problems"]


def test_output_check_rejects_a_rerun_that_is_not_identical(tmp_path):
    _write_outputs(tmp_path, GOOD)
    reference = run.check_outputs(tmp_path, ("x1", "x2"), None)["sha256"]
    with open(tmp_path / "dependence.csv", "a") as fh:
        fh.write("before,0,2018-01-01T00:00:00Z,x1,0.5,0.25\n")
    problems = run.check_outputs(tmp_path, ("x1", "x2"), reference)["problems"]
    assert problems == ["rerun is not byte-identical: dependence.csv"]


def test_output_check_rejects_missing_outputs(tmp_path):
    _write_outputs(tmp_path, GOOD)
    (tmp_path / "manifest.json").unlink()
    assert run.check_outputs(tmp_path, ("x1", "x2"), None)["problems"] == ["missing outputs: manifest.json"]


def test_traced_run_records_every_layer_and_keeps_outputs_identical(tmp_path):
    config, _ = workloads.generate("gbt-year", tmp_path, 3)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REGIME_XAI_THREADS", None)
    cli = ["run", "--config", str(config), "--set", "model.gbt.n_trees=3",
           "--set", "shap.background_size=5", "--set", "windows.n_windows=1"]
    out = tmp_path / "out"
    subprocess.run([sys.executable, "-c", run.RUN_CODE, *cli], env=env, check=True, capture_output=True)
    plain = _digests(out)
    trace_path = tmp_path / "trace.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace_path), "7", *cli],
                   env=env, check=True, capture_output=True)
    assert _digests(out) == plain
    trace = json.loads(trace_path.read_text())
    tracer.check_exercised(trace, run.WORKLOADS["gbt-year"].exercises)
    assert {s["run"] for s in trace["spans"]} == {"7"}
    m = tracer.layer_metrics(trace)
    assert m["gbt.trees"] == 2 * 3 and m["experiment.windows"] == 2
    assert m["timeseries.load_rows"] == 2 * 8760


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
