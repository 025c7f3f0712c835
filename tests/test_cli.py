import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regime_xai
from regime_xai.cli import (
    build_features,
    cmd_features,
    cmd_run,
    cmd_synth,
    cmd_verify,
    main,
)
from regime_xai.config import ConfigError, apply_override, load_config, parse_config
from regime_xai.gbt import ensemble_from_json
from regime_xai.timeseries import format_timestamp, parse_timestamp

T0 = parse_timestamp("2018-01-01T00:00:00Z")


def write_market_csv(path, n_hours=2400, seed=0):
    """Hourly synthetic market table with enough columns for engineering."""
    rng = np.random.default_rng(seed)
    lines = ["timestamp,load,wind,solar,ror,cap,energy,price"]
    for i in range(n_hours):
        ts = format_timestamp(T0 + 3600 * i)
        load = 50 + 10 * np.sin(i / 24) + rng.normal(0, 1)
        wind = max(0.0, 10 + rng.normal(0, 3))
        solar = max(0.0, 5 * np.sin(i / 12))
        ror = 4 + rng.normal(0, 0.5)
        cap, energy = rng.uniform(5, 15), rng.uniform(50, 150)
        price = load - wind - solar + rng.normal(0, 1)
        lines.append(f"{ts},{load:.4f},{wind:.4f},{solar:.4f},{ror:.4f},{cap:.4f},{energy:.4f},{price:.4f}")
    path.write_text("\n".join(lines) + "\n")
    return path


def market_config(tmp_path, **tweaks):
    csv_path = write_market_csv(tmp_path / "market.csv")
    mid = format_timestamp(T0 + 3600 * 1200)
    raw = {
        "inputs": [{"path": str(csv_path), "resolution_hours": 1}],
        "features": {
            "columns": ["residual", "wind", "mixed"],
            "target": "price",
            "residual_loads": [
                {"name": "residual", "load": "load", "wind": "wind", "solar": "solar",
                 "ror": "ror", "ror_lag_days": 2}
            ],
            "mixed_prices": [{"name": "mixed", "capacity": "cap", "energy": "energy", "alpha": 0.05}],
        },
        "periods": {
            "before": {"start": format_timestamp(T0), "end": mid},
            "after": {"start": mid, "end": format_timestamp(T0 + 3600 * 2400)},
        },
        "model": {
            "kind": "gbt",
            "gbt": {"n_trees": 25, "max_depth": 3, "min_samples_leaf": 20, "learning_rate": 0.1},
        },
        "shap": {"background_size": 25},
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(tweaks)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    return config_path


def config_with(tmp_path, keys, value):
    """market_config with the value at keys (names and list indices) replaced."""
    config_path = market_config(tmp_path)
    raw = json.loads(config_path.read_text())
    node = raw
    for key in keys[:-1]:
        node = node[key] if isinstance(key, int) else node.setdefault(key, {})
    node[keys[-1]] = value
    config_path.write_text(json.dumps(raw))
    return config_path


# --------------------------------------------------------------------- config


def test_load_config_happy_path(tmp_path):
    config = load_config(market_config(tmp_path))
    assert config.model_kind == "gbt"
    assert config.features.target == {"before": "price", "after": "price"}
    assert config.periods["before"].end <= config.periods["after"].start
    assert config.experiment.gbt.n_trees == 25


def test_unknown_key_rejected(tmp_path):
    path = market_config(tmp_path, extra_section={"a": 1})
    with pytest.raises(ConfigError, match="extra_section"):
        load_config(path)


def test_unknown_nested_key_rejected(tmp_path):
    path = market_config(tmp_path, model={"kind": "gbt", "gbt": {"n_tres": 10}})
    with pytest.raises(ConfigError, match="n_tres"):
        load_config(path)


def test_overlapping_periods_rejected(tmp_path):
    path = market_config(
        tmp_path,
        periods={
            "before": {"start": "2018-01-01T00:00:00Z", "end": "2018-03-01T00:00:00Z"},
            "after": {"start": "2018-02-01T00:00:00Z", "end": "2018-04-01T00:00:00Z"},
        },
    )
    with pytest.raises(ConfigError, match="overlap"):
        load_config(path)


def test_per_period_targets(tmp_path):
    path = market_config(tmp_path)
    config = load_config(path, overrides=['features.target={"before": "mixed", "after": "cap"}'])
    assert config.features.target == {"before": "mixed", "after": "cap"}


def test_override_dotted_path():
    raw = {"model": {"kind": "gbt"}}
    apply_override(raw, "model.gbt.n_trees=50")
    apply_override(raw, "seed=3")
    apply_override(raw, "features.target=price")
    assert raw["model"]["gbt"]["n_trees"] == 50
    assert raw["seed"] == 3
    assert raw["features"]["target"] == "price"


def test_override_requires_assignment():
    with pytest.raises(ConfigError, match="key=value"):
        apply_override({}, "model.kind")


def test_bad_instant_reported_with_path(tmp_path):
    path = market_config(
        tmp_path,
        periods={
            "before": {"start": "yesterday", "end": "2018-03-01T00:00:00Z"},
            "after": {"start": "2018-03-01T00:00:00Z", "end": "2018-04-01T00:00:00Z"},
        },
    )
    with pytest.raises(ConfigError, match="periods.before.start"):
        load_config(path)


def test_relative_paths_resolve_against_config_dir(tmp_path):
    csv_path = write_market_csv(tmp_path / "market.csv", n_hours=2400)
    raw = json.loads(market_config(tmp_path).read_text())
    raw["inputs"][0]["path"] = "market.csv"
    raw["output_dir"] = "results"
    config_path = tmp_path / "nested.json"
    config_path.write_text(json.dumps(raw))
    config = load_config(config_path)
    assert config.inputs[0].path == str(csv_path)
    assert config.output_dir == str(tmp_path / "results")


def test_seed_must_be_int(tmp_path):
    path = market_config(tmp_path, seed="abc")
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("windows.n_windows", "6.7"),
        ("windows.block_days", "4.9"),
        ("shap.background_size", "49.5"),
        ("shap.n_coalitions", "abc"),
        ("windows.n_windows", "true"),
        ("model.gbt.n_trees", "3.5"),
        ("model.gbt.n_trees", "true"),
        ("model.gbt.max_depth", "2.5"),
        ("model.gbt.min_samples_leaf", "20.5"),
        ("model.mlp.batch_size", "64.5"),
        ("model.mlp.hidden_sizes", "[8.9]"),
        ("model.mlp.hidden_sizes", '"88"'),
    ],
)
def test_counts_must_be_json_integers(tmp_path, field, value):
    path = market_config(tmp_path)
    with pytest.raises(ConfigError, match=re.escape(f"{field}: expected an integer")):
        load_config(path, overrides=[f"{field}={value}"])


TYPE_CASES = [
    (("model", "gbt", "learning_rate"), True, "model.gbt.learning_rate: expected a finite number, got True"),
    (("windows", "test_fraction"), True, "windows.test_fraction: expected a finite number, got True"),
    (("windows", "window_fraction"), "0.5", "windows.window_fraction: expected a finite number, got '0.5'"),
    (("features", "resample_hours"), True, "features.resample_hours: expected a finite number, got True"),
    (("inputs", 0, "resolution_hours"), True, "inputs[0].resolution_hours: expected a finite number, got True"),
    (("inputs", 0, "path"), 5, "inputs[0].path: expected a string, got 5"),
    (("output_dir",), 5, "output_dir: expected a string, got 5"),
    (("features", "target"), {"before": 3, "after": "y"}, "features.target.before: expected a string, got 3"),
    (("features", "mixed_prices", 0, "alpha"), True,
     "features.mixed_prices[0].alpha: expected a finite number, got True"),
    (("model", "mlp", "step_size"), "0.1", "model.mlp.step_size: expected a finite number, got '0.1'"),
]


@pytest.mark.parametrize("keys, value, message", TYPE_CASES, ids=[m.split(":")[0] for _, _, m in TYPE_CASES])
def test_config_values_must_match_field_types(tmp_path, keys, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(config_with(tmp_path, keys, value))


@pytest.mark.parametrize(
    "assignment, message",
    [
        ("windows.block_days=0", "block_days must be >= 1"),
        ("shap.background_size=0", "background_size must be >= 1"),
        ("shap.n_coalitions=1", "n_coalitions must be None or >= 2"),
        ("windows.test_fraction=5", "test_fraction must be in (0, 1)"),
        ("windows.test_fraction=-1", "test_fraction must be in (0, 1)"),
        ("windows.n_windows=0", "n_windows must be >= 1"),
        ("windows.window_fraction=0", "window_fraction must be in (0, 1]"),
        ("shap.explain_on=both", "explain_on must be 'test' or 'train'"),
        ("features.resample_hours=0.0001", "resample_hours: expected at least one second"),
    ],
)
def test_out_of_range_settings_exit_1_before_inputs_are_read(tmp_path, capsys, assignment, message):
    # The input does not exist, so the named field shows the check ran first.
    path = config_with(tmp_path, ("inputs", 0, "path"), str(tmp_path / "absent.csv"))
    assert main(["run", "--config", str(path), "--set", assignment]) == 1
    section = assignment.split(".")[0]
    assert f"{section}.{message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (("features", "residual_loads", 0, "ror_lag_days"), 0, "features.residual_loads[0]: ror_lag_days must be >= 1"),
        (("inputs", 0, "resolution_hours"), 0.0001, "inputs[0]: resolution_hours must be at least one second"),
    ],
)
def test_list_entry_out_of_range_exits_1_before_inputs_are_read(tmp_path, capsys, keys, value, message):
    # --set cannot reach a list entry, so the bad value sits in the file
    path = config_with(tmp_path, keys, value)
    raw = json.loads(path.read_text())
    raw["inputs"][0]["path"] = str(tmp_path / "absent.csv")
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_mixed_price_alpha_above_percent_range_warns_at_load(tmp_path):
    path = config_with(tmp_path, ("features", "mixed_prices", 0, "alpha"), 0.5)
    with pytest.warns(RuntimeWarning, match="alpha=0.5"):
        config = load_config(path)
    assert config.features.mixed_prices[0].alpha == 0.5


def test_negative_mixed_price_alpha_rejected_at_load(tmp_path):
    path = config_with(tmp_path, ("features", "mixed_prices", 0, "alpha"), -0.1)
    with pytest.raises(ConfigError, match=re.escape("features.mixed_prices[0]: alpha must be nonnegative")):
        load_config(path)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    config = parse_config(example)
    assert config.features.resample_hours is None
    assert config.experiment.n_coalitions is None


def test_non_numeric_resolution_exits_1(tmp_path, capsys):
    path = market_config(tmp_path)
    raw = json.loads(path.read_text())
    raw["inputs"][0]["resolution_hours"] = "hourly"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 1
    assert "inputs[0].resolution_hours" in capsys.readouterr().err


# ------------------------------------------------------------------- features


def test_build_features_engineers_columns(tmp_path):
    config = load_config(market_config(tmp_path))
    frames, report = build_features(config)
    assert set(frames) == {"before", "after"}
    fm = frames["before"]
    assert fm.feature_names == ("residual", "wind", "mixed")
    # the 2-day ROR lag makes the first 48 rows missing, and they are dropped
    assert report["periods"]["before"]["rows_dropped_in_join"] == 48
    assert len(fm) == 1200 - 48
    # the lag reaches only the first period, so the second drops no row
    assert report["periods"]["after"]["rows_dropped_in_join"] == 0
    assert len(frames["after"]) == 1200


def test_build_features_missing_column_named(tmp_path):
    config = load_config(market_config(tmp_path), overrides=["features.target=absent_col"])
    with pytest.raises(Exception, match="absent_col"):
        build_features(config)


def test_cmd_features_writes_outputs(tmp_path):
    config = load_config(market_config(tmp_path))
    cmd_features(config)
    out = tmp_path / "out"
    assert (out / "features_before.csv").exists()
    assert (out / "features_after.csv").exists()
    report = json.loads((out / "features_report.json").read_text())
    assert report["periods"]["after"]["target"] == "price"
    header = (out / "features_before.csv").read_text().splitlines()[0]
    assert header == "timestamp,residual,wind,mixed,price"


def test_cmd_features_idempotent(tmp_path):
    config = load_config(market_config(tmp_path))
    cmd_features(config)
    first = (tmp_path / "out" / "features_before.csv").read_bytes()
    cmd_features(config)
    assert (tmp_path / "out" / "features_before.csv").read_bytes() == first


# ------------------------------------------------------------------ run/synth


def test_cmd_run_end_to_end_on_synth(tmp_path):
    config_path = cmd_synth(tmp_path, n_rows=960, seed=5)
    config = load_config(config_path, overrides=["model.gbt.n_trees=30", "shap.background_size=25"])
    manifest = cmd_run(config)

    out = tmp_path / "run_output"
    for name in ("importance.csv", "comparison.csv", "dependence.csv", "manifest.json"):
        assert (out / name).exists()

    rows = (out / "comparison.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    by_feature = {r.split(",")[0]: dict(zip(header, r.split(","))) for r in rows[1:]}
    assert by_feature["x1"]["flagged"] == "true"
    assert by_feature["x2"]["flagged"] == "true"
    assert float(by_feature["x1"]["delta"]) < 0 < float(by_feature["x2"]["delta"])
    assert by_feature["x3"]["flagged"] == "false"
    assert manifest["flagged_features"] == ["x1", "x2"]
    assert manifest["toolkit_version"]


def test_cmd_run_byte_identical_outputs(tmp_path):
    config_path = cmd_synth(tmp_path, n_rows=960, seed=2)
    files = ("importance.csv", "comparison.csv", "dependence.csv", "manifest.json")
    payloads = []
    for run_dir in ("r1", "r2"):
        config = load_config(
            config_path,
            overrides=[
                "model.gbt.n_trees=20",
                "shap.background_size=20",
                f"output_dir={tmp_path / run_dir}",
            ],
        )
        cmd_run(config)
        payloads.append({f: (tmp_path / run_dir / f).read_bytes() for f in files})
    for f in files:
        if f == "manifest.json":
            # the config echo records the differing output_dir override; the
            # science payload must match
            m1 = json.loads(payloads[0][f])
            m2 = json.loads(payloads[1][f])
            assert m1["metrics"] == m2["metrics"]
            assert m1["period_seeds"] == m2["period_seeds"]
        else:
            assert payloads[0][f] == payloads[1][f], f"{f} differs between identical runs"


def test_main_exit_codes(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "s"), "--rows", "500"]) == 0
    missing = main(["run", "--config", str(tmp_path / "nope.json")])
    assert missing == 1


def test_main_features_command(tmp_path):
    config_path = market_config(tmp_path)
    assert main(["features", "--config", str(config_path)]) == 0
    assert (tmp_path / "out" / "features_report.json").exists()


def test_main_rejects_bad_override(tmp_path):
    config_path = market_config(tmp_path)
    assert main(["run", "--config", str(config_path), "--set", "bogus_key=1"]) == 1


def test_run_on_a_grid_whose_step_does_not_divide_a_day_exits_1(tmp_path, capsys):
    # a 7 h grid is a valid table, but four-day blocks cannot be counted in rows
    rng = np.random.default_rng(6)
    lines = ["timestamp,x1,x2,y"]
    for i in range(400):
        x1, x2 = rng.uniform(-1, 1, size=2)
        lines.append(f"{format_timestamp(T0 + 7 * 3600 * i)},{x1:.4f},{x2:.4f},{3 * x1 + x2:.4f}")
    (tmp_path / "grid.csv").write_text("\n".join(lines) + "\n")
    raw = {
        "inputs": [{"path": "grid.csv", "resolution_hours": 7}],
        "features": {"columns": ["x1", "x2"], "target": "y"},
        "periods": {
            "before": {"start": format_timestamp(T0), "end": format_timestamp(T0 + 7 * 3600 * 200)},
            "after": {"start": format_timestamp(T0 + 7 * 3600 * 200), "end": format_timestamp(T0 + 7 * 3600 * 400)},
        },
        "model": {"kind": "gbt"},
        "output_dir": "out",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(config_path)]) == 1
    assert "row step of 25200s does not divide a day" in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, capacity, message",
    [
        # the residual load reads `load`, which both inputs would carry
        ("load", "cap", "column 'load' is ambiguous"),
        ("cap2", "cap2", "columns ['cap2', 'energy'] not found together"),
    ],
)
def test_derived_column_sources_must_sit_in_one_input(tmp_path, capsys, column, capacity, message):
    config_path = market_config(tmp_path)
    lines = [f"timestamp,{column}"] + [f"{format_timestamp(T0 + 3600 * i)},{i % 7}" for i in range(2400)]
    (tmp_path / "second.csv").write_text("\n".join(lines) + "\n")
    raw = json.loads(config_path.read_text())
    raw["inputs"].append({"path": "second.csv", "resolution_hours": 1})
    raw["features"]["mixed_prices"][0]["capacity"] = capacity
    config_path.write_text(json.dumps(raw))
    assert main(["features", "--config", str(config_path)]) == 1
    assert message in capsys.readouterr().err


def test_mlp_run_flips_ranks_too(tmp_path):
    config_path = cmd_synth(tmp_path, n_rows=960, seed=11)
    config = load_config(
        config_path,
        overrides=[
            "model.kind=mlp",
            'model.mlp.hidden_sizes=[16]',
            "model.mlp.max_epochs=60",
            "shap.background_size=25",
        ],
    )
    manifest = cmd_run(config)
    rows = (tmp_path / "run_output" / "comparison.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    by_feature = {r.split(",")[0]: dict(zip(header, r.split(","))) for r in rows[1:]}
    assert float(by_feature["x1"]["delta"]) < 0 < float(by_feature["x2"]["delta"])
    assert set(manifest["flagged_features"]) >= {"x1", "x2"}


def test_balancing_style_config_resamples_to_four_hours(tmp_path):
    # generation-by-type features at hourly resolution, reserve prices used
    # through a derived mixed-price target, everything resampled to 4h blocks
    rng = np.random.default_rng(3)
    lines = ["timestamp,lignite,gas,wind_gen,cap,energy"]
    for i in range(1800):
        ts = format_timestamp(T0 + 3600 * i)
        row = rng.uniform(1, 10, size=5)
        lines.append(ts + "," + ",".join(f"{v:.3f}" for v in row))
    csv_path = tmp_path / "gen.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    mid = format_timestamp(T0 + 3600 * 900)
    raw = {
        "inputs": [{"path": str(csv_path), "resolution_hours": 1}],
        "features": {
            "columns": ["lignite", "gas", "wind_gen"],
            "target": "mixed",
            "resample_hours": 4,
            "mixed_prices": [{"name": "mixed", "capacity": "cap", "energy": "energy", "alpha": 0.08}],
        },
        "periods": {
            "before": {"start": format_timestamp(T0), "end": mid},
            "after": {"start": mid, "end": format_timestamp(T0 + 3600 * 1800)},
        },
        "model": {"kind": "gbt"},
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    config = load_config(config_path)
    frames, _ = build_features(config)
    for fm in frames.values():
        steps = np.diff(fm.timestamps)
        assert (steps == 4 * 3600).all()
    assert len(frames["before"]) == 900 // 4


def test_two_tables_with_mixed_native_resolutions(tmp_path):
    # hourly generation table resampled to 4h, joined with natively 4h prices
    rng = np.random.default_rng(4)
    gen_lines = ["timestamp,lignite,gas"]
    for i in range(1600):
        ts = format_timestamp(T0 + 3600 * i)
        gen_lines.append(f"{ts},{rng.uniform(5, 15):.3f},{rng.uniform(1, 8):.3f}")
    (tmp_path / "gen.csv").write_text("\n".join(gen_lines) + "\n")

    price_lines = ["timestamp,price"]
    for i in range(400):
        ts = format_timestamp(T0 + 4 * 3600 * i)
        price_lines.append(f"{ts},{rng.uniform(20, 80):.3f}")
    (tmp_path / "price.csv").write_text("\n".join(price_lines) + "\n")

    mid = format_timestamp(T0 + 3600 * 800)
    raw = {
        "inputs": [
            {"path": "gen.csv", "resolution_hours": 1},
            {"path": "price.csv", "resolution_hours": 4},
        ],
        "features": {"columns": ["lignite", "gas"], "target": "price", "resample_hours": 4},
        "periods": {
            "before": {"start": format_timestamp(T0), "end": mid},
            "after": {"start": mid, "end": format_timestamp(T0 + 3600 * 1600)},
        },
        "model": {"kind": "gbt"},
        "output_dir": "out",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    frames, report = build_features(load_config(config_path))
    assert len(frames["before"]) == 200 and len(frames["after"]) == 200
    for fm in frames.values():
        assert (np.diff(fm.timestamps) == 4 * 3600).all()
    assert report["periods"]["before"]["rows_dropped_in_join"] == 0


@pytest.mark.parametrize("resample_hours", [None, 0.5])
def test_ten_minute_inputs_declared_in_different_roundings_join(tmp_path, resample_hours):
    # 0.1667 h and 1/6 h are both a 600 s grid
    rng = np.random.default_rng(8)
    for name, columns in (("a.csv", "x1,x2"), ("b.csv", "y")):
        lines = [f"timestamp,{columns}"]
        for i in range(288):
            values = rng.uniform(-1, 1, size=len(columns.split(",")))
            lines.append(f"{format_timestamp(T0 + 600 * i)}," + ",".join(f"{v:.4f}" for v in values))
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    mid = format_timestamp(T0 + 600 * 144)
    raw = {
        "inputs": [{"path": "a.csv", "resolution_hours": 0.1667}, {"path": "b.csv", "resolution_hours": 1 / 6}],
        "features": {"columns": ["x1", "x2"], "target": "y", "resample_hours": resample_hours},
        "periods": {
            "before": {"start": format_timestamp(T0), "end": mid},
            "after": {"start": mid, "end": format_timestamp(T0 + 600 * 288)},
        },
        "model": {"kind": "gbt"},
        "output_dir": "out",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    frames, _ = build_features(load_config(config_path))
    step = 1800 if resample_hours else 600
    for fm in frames.values():
        assert len(fm) == 144 * 600 // step
        assert (np.diff(fm.timestamps) == step).all()


def test_module_entry_point_imports_cleanly():
    src = str(Path(regime_xai.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "regime_xai.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr


# --------------------------------------------------------------------- verify


def test_cmd_verify_all_pass(capsys):
    assert cmd_verify() == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_cmd_verify_detects_corrupted_serialization(capsys, monkeypatch):
    def tamper(text):
        obj = json.loads(text)

        def twist(node):
            if "threshold" in node:
                node["threshold"] += 0.37
                twist(node["left"])
                twist(node["right"])

        for tree in obj["trees"]:
            twist(tree)
        return json.dumps(obj)

    monkeypatch.setattr("regime_xai.cli.ensemble_from_json", lambda text: ensemble_from_json(tamper(text)))
    assert cmd_verify() == 2
    out = capsys.readouterr().out
    assert "FAIL tree-oracle equivalence" in out
