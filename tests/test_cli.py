import ast
import csv
import dataclasses
import json
import logging
import os
import re
import shlex
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
    main,
)
from regime_xai.config import ConfigError, apply_override, config_record, load_config, parse_config
from regime_xai.experiment import ModelConfig, ShapConfig, WindowConfig
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
            "gbt": {"n_trees": 25, "max_depth": 3, "min_samples_leaf": 20},
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
    assert config.model.kind == "gbt"
    assert config.features.target == {"before": "price", "after": "price"}
    assert config.periods["before"].end <= config.periods["after"].start
    assert config.model.gbt.n_trees == 25


@pytest.mark.parametrize("case", ["byte-order mark", "directory", "latin-1 byte"])
def test_config_file_is_utf8_and_any_unreadable_one_exits_1_naming_it(tmp_path, capsys, case):
    path = market_config(tmp_path)
    if case == "byte-order mark":  # as some editors save UTF-8
        plain = load_config(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_config(path) == plain
        return
    if case == "directory":
        path = tmp_path
    else:
        path.write_bytes(path.read_bytes().replace(b'"seed": 7', b'"seed": 7, "caf\xe9": 1'))
    assert main(["run", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "ConfigError" and err["message"].startswith(f"{path}: cannot read config (")


def test_unknown_key_rejected(tmp_path):
    path = market_config(tmp_path, extra_section={"a": 1})
    with pytest.raises(ConfigError, match="extra_section"):
        load_config(path)


def test_unknown_nested_key_rejected(tmp_path):
    path = market_config(tmp_path, model={"kind": "gbt", "gbt": {"n_tres": 10}})
    with pytest.raises(ConfigError, match="n_tres"):
        load_config(path)


def test_coalition_budget_is_not_a_setting(tmp_path, capsys):
    # KernelSHAP's budget follows from the feature count alone
    path = market_config(tmp_path)
    assert main(["run", "--config", str(path), "--set", "shap.n_coalitions=null"]) == 1
    assert "shap: unknown key(s) ['n_coalitions']" in capsys.readouterr().err


FIXED_TERMS = {
    "windows.window_fraction": 0.5,
    "windows.block_days": 4,
    "model.mlp.batch_size": 64,
    "model.mlp.step_size": 1e-3,
    "model.mlp.early_stop_patience": 20,
    "model.mlp.validation_fraction": 0.2,
    "model.gbt.learning_rate": 0.1,
}


def refusal_of(key):
    """The error of a config that sets the fixed protocol term key, whatever its value."""
    section, name = key.rsplit(".", 1)
    return f"{section}: unknown key(s) [{name!r}]"


@pytest.mark.parametrize("key", FIXED_TERMS)
def test_fixed_protocol_terms_are_not_settings(tmp_path, capsys, key):
    # half-period windows, four-day blocks, the MLP's training terms and the
    # GBT's shrinkage are constants: a config that sets one, even to its
    # value, is refused before any input is read
    path = config_with(tmp_path, ("inputs", 0, "path"), str(tmp_path / "absent.csv"))
    assert main(["run", "--config", str(path), "--set", f"{key}={FIXED_TERMS[key]}"]) == 1
    assert refusal_of(key) in capsys.readouterr().err


SETTINGS = {f.name: getattr(cls(), f.name) for cls in (WindowConfig, ShapConfig) for f in dataclasses.fields(cls)}
FORMER_SETTINGS = {key.split(".")[1]: value for key, value in FIXED_TERMS.items() if key.startswith("windows.")}


@pytest.mark.parametrize("name", [*SETTINGS, *FORMER_SETTINGS])
def test_each_experiment_setting_has_one_config_key(tmp_path, name):
    # each field of WindowConfig and ShapConfig is a key of one section,
    # with no key list kept by hand; a former setting that is now a fixed
    # protocol term is a key of none
    default = SETTINGS.get(name, FORMER_SETTINGS.get(name))
    path = market_config(tmp_path)
    loaded = []
    for section in ("windows", "shap"):
        try:
            config = load_config(path, overrides=[f"{section}.{name}={json.dumps(default)}"])
        except ConfigError as exc:
            assert f"{section}: unknown key(s) [{name!r}]" in str(exc)
            continue
        assert getattr(getattr(config, section), name) == default
        loaded.append(section)
    assert len(loaded) == (0 if name in FORMER_SETTINGS else 1)


def test_each_model_setting_has_one_config_key(tmp_path, capsys):
    # every model parameter is a config key under model.<kind>; the fit seed
    # is derived per window from the run seed, so it is none
    path = market_config(tmp_path)
    for kind in (f.name for f in dataclasses.fields(ModelConfig) if f.name != "kind"):
        params = getattr(ModelConfig(kind), kind)
        for f in dataclasses.fields(params):
            default = getattr(params, f.name)
            config = load_config(path, overrides=[f"model.{kind}.{f.name}={json.dumps(default)}"])
            assert getattr(getattr(config.model, kind), f.name) == default
    assert main(["run", "--config", str(path), "--set", "model.mlp.seed=0"]) == 1
    assert "model.mlp: unknown key(s) ['seed']" in capsys.readouterr().err


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


def test_a_single_list_entry_is_a_list_of_one(tmp_path):
    path = market_config(tmp_path)
    listed = load_config(path).features
    bare = load_config(path, overrides=[
        "features.columns=wind",
        'features.mixed_prices={"name": "mixed", "capacity": "cap", "energy": "energy", "alpha": 0.05}',
    ]).features
    assert bare.columns == ("wind",)
    assert bare.mixed_prices == listed.mixed_prices


def test_per_period_targets(tmp_path):
    path = market_config(tmp_path)
    config = load_config(path, overrides=['features.target={"before": "price", "after": "cap"}'])
    assert config.features.target == {"before": "price", "after": "cap"}


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


@pytest.mark.parametrize(
    "bound",
    ["yesterday", "2018-1-1T0:0:0Z", "2018-01-01t00:00:00z", "\uff12\uff10\uff11\uff18-01-01T00:00:00Z",
     ["2018-01-01T00:00:00Z"]],
    ids=["word", "one-digit fields", "lower case", "full-width digits", "list"],
)
def test_bad_instant_reported_with_path(tmp_path, bound):
    path = market_config(
        tmp_path,
        periods={
            "before": {"start": bound, "end": "2018-03-01T00:00:00Z"},
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


def test_a_bare_inputs_object_is_one_input_with_its_path_resolved(tmp_path):
    csv_path = write_market_csv(tmp_path / "market.csv", n_hours=2400)
    raw = json.loads(market_config(tmp_path).read_text())
    raw["inputs"] = {"path": "market.csv", "resolution_hours": 1}
    config_path = tmp_path / "bare.json"
    config_path.write_text(json.dumps(raw))
    config = load_config(config_path)
    assert [spec.path for spec in config.inputs] == [str(csv_path)]
    assert config_record(config)["inputs"] == ({"path": str(csv_path), "resolution_hours": 1.0},)


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
    # a fixed protocol term is refused as an unknown key before its value is read
    path = market_config(tmp_path)
    entry = f"{field}[0]" if value.startswith("[") else field  # a list entry is named by its index
    message = refusal_of(field) if field in FIXED_TERMS else f"{entry}: expected an integer"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path, overrides=[f"{field}={value}"])


TYPE_CASES = [
    (("windows", "test_fraction"), True, "windows.test_fraction: expected a finite number, got True"),
    (("features", "resample_hours"), True, "features.resample_hours: expected a finite number, got True"),
    (("inputs", 0, "resolution_hours"), True, "inputs[0].resolution_hours: expected a finite number, got True"),
    (("inputs", 0, "path"), 5, "inputs[0].path: expected a string, got 5"),
    (("output_dir",), 5, "output_dir: expected a string, got 5"),
    (("features", "target"), {"before": 3, "after": "y"}, "features.target.before: expected a string, got 3"),
    (("features", "mixed_prices", 0, "alpha"), True,
     "features.mixed_prices[0].alpha: expected a finite number, got True"),
]
# a fixed protocol term is refused as an unknown key before its type is checked
FIXED_TERM_TYPE_CASES = [(("windows", "window_fraction"), "0.5"), (("model", "mlp", "step_size"), "0.1")]


@pytest.mark.parametrize(
    "keys, value, message",
    [pytest.param(*case, id=case[2].split(":")[0]) for case in TYPE_CASES]
    + [pytest.param(keys, value, refusal_of(".".join(keys)), id=".".join(keys)) for keys, value in FIXED_TERM_TYPE_CASES],
)
def test_config_values_must_match_field_types(tmp_path, keys, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(config_with(tmp_path, keys, value))


@pytest.mark.parametrize(
    "assignment, message",
    [
        ("shap.background_size=0", "background_size must be >= 1"),
        ("windows.test_fraction=5", "test_fraction must be in (0, 1)"),
        ("windows.test_fraction=-1", "test_fraction must be in (0, 1)"),
        pytest.param("windows.test_fraction=1" + "0" * 400, "test_fraction: expected a finite number, got 1000",
                     id="windows.test_fraction=10**400"),
        ("windows.n_windows=0", "n_windows must be >= 1"),
        # a fixed protocol term is refused as an unknown key before its range is checked
        pytest.param("windows.block_days=0", None, id="windows.block_days=0-block_days is a fixed protocol term"),
        pytest.param("windows.window_fraction=0", None,
                     id="windows.window_fraction=0-window_fraction is a fixed protocol term"),
        pytest.param("windows.window_fraction=1" + "0" * 400, None, id="windows.window_fraction=10**400"),
        ("shap.explain_on=both", "explain_on must be 'test' or 'train'"),
        ("features.resample_hours=0.0001", "resample_hours must be at least one second, got 0.0001"),
        ("features.resample_hours=7", "resample_hours must divide a day, got 7"),
        ("features.residual_loads=null", "residual_loads: expected an object"),
        ("features.residual_loads=5", "residual_loads: expected an object"),
        ("features.mixed_prices=null", "mixed_prices: expected an object"),
        ("features.mixed_prices=5", "mixed_prices: expected an object"),
        ('features.columns=["x1","x1","x2"]', "columns: duplicate column 'x1'"),
        ("features.resample_hours=1e308", "resample_hours must be a finite number of seconds, got 1e+308"),
        ("model.gbt.n_trees=0", "gbt.n_trees must be >= 1"),
        ("model.gbt.max_depth=0", "gbt.max_depth must be >= 1"),
        ("model.gbt.min_samples_leaf=0", "gbt.min_samples_leaf must be >= 1"),
        ("model.mlp.hidden_sizes=[0]", "mlp.hidden_sizes must be positive"),
        ("model.mlp.hidden_sizes=[]", "mlp.hidden_sizes must list at least one layer"),
        ("model.mlp.max_epochs=0", "mlp.max_epochs must be >= 1"),
        ('features.columns=["residual","wind","price"]', "columns: target column 'price' is also a feature"),
        pytest.param("model.mlp.hidden_sizes=[1" + "0" * 20 + "]",
                     f"mlp.hidden_sizes must be at most {np.iinfo(np.intp).max}",
                     id="model.mlp.hidden_sizes=[10**20]"),
        ("periods.before.end=2017-01-01T00:00:00Z",
         "before.end must be after start 2018-01-01T00:00:00Z, got 2017-01-01T00:00:00Z"),
        ("periods.after.start=2018-02-01T00:00:00Z",
         "after.start must not precede before.end 2018-02-20T00:00:00Z, as periods may not overlap"),
    ],
)
def test_out_of_range_settings_exit_1_before_inputs_are_read(tmp_path, capsys, assignment, message):
    # The input does not exist, so the named field shows the check ran first.
    path = config_with(tmp_path, ("inputs", 0, "path"), str(tmp_path / "absent.csv"))
    assert main(["run", "--config", str(path), "--set", assignment]) == 1
    key = assignment.split("=")[0]
    section = key.split(".")[0]
    assert (refusal_of(key) if key in FIXED_TERMS else f"{section}.{message}") in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (("features", "residual_loads", 0, "ror_lag_days"), 0, "features.residual_loads[0].ror_lag_days must be >= 1"),
        (("inputs", 0, "resolution_hours"), 0.0001, "inputs[0].resolution_hours must be at least one second"),
        (("inputs", 0, "resolution_hours"), 1e308, "inputs[0].resolution_hours must be a finite number of seconds"),
        (("inputs", 0, "resolution_hours"), 7, "inputs[0].resolution_hours must divide a day, got 7"),
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


@pytest.mark.parametrize(
    "hours, resample_hours, message",
    [
        ([1, 0.25], None,
         "inputs[1].resolution_hours must equal inputs[0]'s 1 when features.resample_hours is null, got 0.25"),
        ([1], 1.5, "features.resample_hours must be a multiple of inputs[0].resolution_hours 1, got 1.5"),
    ],
    ids=["mixed resolutions", "block off the input grid"],
)
def test_unjoinable_grids_exit_1_before_inputs_are_read(tmp_path, capsys, hours, resample_hours, message):
    # align_join and resample_mean would refuse these grids only after every input was read
    path = market_config(tmp_path)
    raw = json.loads(path.read_text())
    raw["inputs"] = [{"path": str(tmp_path / f"absent{i}.csv"), "resolution_hours": h} for i, h in enumerate(hours)]
    raw["features"]["resample_hours"] = resample_hours
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 1
    assert last_error_record(capsys) == {"error": "ConfigError", "message": message}


def test_mixed_price_alpha_above_percent_range_warns_at_load(tmp_path):
    path = config_with(tmp_path, ("features", "mixed_prices", 0, "alpha"), 0.5)
    with pytest.warns(RuntimeWarning, match="alpha=0.5"):
        config = load_config(path)
    assert config.features.mixed_prices[0].alpha == 0.5


def test_negative_mixed_price_alpha_rejected_at_load(tmp_path):
    path = config_with(tmp_path, ("features", "mixed_prices", 0, "alpha"), -0.1)
    with pytest.raises(ConfigError, match=re.escape("features.mixed_prices[0].alpha must be nonnegative")):
        load_config(path)


def test_config_key_given_twice_is_refused_naming_it(tmp_path, capsys):
    path = market_config(tmp_path)
    assert load_config(path, overrides=["seed=1", "seed=5"]).seed == 5  # a later --set still wins
    path.write_text(path.read_text().replace('"seed": 7', '"seed": 1, "seed": 5'))
    assert main(["run", "--config", str(path)]) == 1
    assert last_error_record(capsys) == {"error": "ConfigError", "message": f"{path}: key 'seed' given twice"}


def without_model_kind(raw):
    return json.dumps({**raw, "model": {key: value for key, value in raw["model"].items() if key != "kind"}})


@pytest.mark.parametrize(
    "edit, overrides, message",
    [
        pytest.param(lambda raw: '{"seed": ', [], "{path}: invalid JSON (Expecting value: line 1 column 10 (char 9))",
                     id="invalid JSON"),
        pytest.param(lambda raw: json.dumps([raw]), [], "{path}: config must be a JSON object", id="top-level array"),
        pytest.param(json.dumps, ["=5"], "--set expects a dotted key, got '=5'", id="--set =5"),
        pytest.param(json.dumps, ["seed.x=1"], "--set seed.x: seed is not an object", id="--set seed.x=1"),
        pytest.param(without_model_kind, [], "model.kind: required key missing", id="no model.kind"),
        pytest.param(json.dumps, ["inputs=[]"], "inputs: expected a non-empty list", id="--set inputs=[]"),
        pytest.param(json.dumps, ["features.columns=[]"],
                     "features.columns: expected a non-empty list of column names", id="--set features.columns=[]"),
    ],
)
def test_config_file_faults_exit_1_naming_the_fault(tmp_path, capsys, edit, overrides, message):
    # edit writes the config file's text from the market config's object
    path = market_config(tmp_path)
    path.write_text(edit(json.loads(path.read_text())))
    argv = ["run", "--config", str(path)]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert main(argv) == 1
    assert last_error_record(capsys) == {"error": "ConfigError", "message": message.format(path=path)}


def readme_block(language: str) -> str:
    """The first fenced block of README.md in language."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(rf"```{language}\n(.*?)```", readme, re.S).group(1)


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch):
    # each regime-xai line of the quick start's bash blocks, in order, in an
    # empty directory; the file the README cats must read as the block it
    # shows, where "..." stands for further digits
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start on synthetic data\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```(\w*)\n(.*?)```", section, re.S)
    shown = re.escape(next(text for lang, text in blocks if not lang)).replace(re.escape("..."), r"\d*")
    monkeypatch.chdir(tmp_path)
    cats = 0
    for block in (text for lang, text in blocks if lang == "bash"):
        for line in block.splitlines():
            args = shlex.split(line, comments=True)
            if args[:1] == ["regime-xai"]:
                assert main(args[1:]) == 0, args
            elif args[:1] == ["cat"]:
                assert re.fullmatch(shown, Path(args[1]).read_text(encoding="utf-8")), args
                cats += 1
    assert cats == 1


def test_readme_config_example_parses():
    example = json.loads(readme_block("json"))
    config = parse_config(example, Path("."))
    assert config.features.resample_hours is None


def every_section_config(tmp_path):
    """market_config with every optional key set, none at its default."""
    return market_config(
        tmp_path,
        features={
            "columns": ["residual", "wind", "mixed"],
            "target": {"before": "price", "after": "cap"},
            "resample_hours": 2,
            "residual_loads": [
                {"name": "residual", "load": "load", "wind": "wind", "solar": "solar", "ror": "ror", "ror_lag_days": 2}
            ],
            "mixed_prices": [{"name": "mixed", "capacity": "cap", "energy": "energy", "alpha": 0.05}],
        },
        model={
            "kind": "mlp",
            "gbt": {"n_trees": 25, "max_depth": 3, "min_samples_leaf": 10},
            "mlp": {"hidden_sizes": [8, 4], "max_epochs": 20},
        },
        windows={"n_windows": 4, "test_fraction": 0.25},
        shap={"background_size": 25, "explain_on": "train"},
    )


@pytest.mark.parametrize("source", ["readme", "synth", "every section"])
def test_config_record_reloads_to_an_equal_config(tmp_path, source):
    if source == "readme":
        config = parse_config(json.loads(readme_block("json")), tmp_path)
    elif source == "synth":
        config = load_config(cmd_synth(tmp_path, seed=5))
    else:
        config = load_config(every_section_config(tmp_path))
    path = tmp_path / "record" / "config.json"
    path.parent.mkdir()
    path.write_text(json.dumps(config_record(config)))
    assert load_config(path) == config


def test_synth_config_lists_every_setting(tmp_path):
    # synth writes its config with config_record, so each object of the file
    # holds every field of the section it is, defaults included
    path = cmd_synth(tmp_path, seed=5)

    def check(obj, value, where):
        if dataclasses.is_dataclass(value):
            assert sorted(obj) == sorted(f.name for f in dataclasses.fields(value)), where
            for f in dataclasses.fields(value):
                check(obj[f.name], getattr(value, f.name), f"{where}.{f.name}")
        elif isinstance(value, dict):
            assert sorted(obj) == sorted(value), where
            for key, item in value.items():
                check(obj[key], item, f"{where}.{key}")
        elif isinstance(value, tuple):
            assert len(obj) == len(value), where
            for i, item in enumerate(value):
                check(obj[i], item, f"{where}[{i}]")

    check(json.loads(path.read_text()), load_config(path), "<root>")


def test_manifest_config_is_the_config_that_ran(tmp_path):
    # the manifest records the effective config, --set values and defaults
    # included, and running it again writes the same outputs
    config_path = cmd_synth(tmp_path, seed=5)
    config = load_config(config_path, overrides=["model.gbt.n_trees=5", "shap.background_size=10", "seed=3"])
    manifest = cmd_run(config)
    assert "overrides" not in manifest and "seed" not in manifest
    recorded = tmp_path / "recorded.json"
    recorded.write_text(json.dumps(manifest["config"]))
    assert load_config(recorded) == config
    cmd_run(load_config(recorded, overrides=[f"output_dir={tmp_path / 'again'}"]))
    for name in ("importance.csv", "comparison.csv", "dependence.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "run_output" / name).read_bytes(), name


def test_readme_python_example_runs(capsys):
    exec(readme_block("python"), {})
    delta = ast.literal_eval(capsys.readouterr().out)
    assert list(delta) == ["x1", "x2", "x3"] and delta["x1"] < 0 < delta["x2"]


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
    config_path = cmd_synth(tmp_path, seed=5)
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


def readme_section(title: str) -> str:
    """The text of README.md's "## title" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(rf"^## {title}\n(.*?)(?=^## )", readme, re.S | re.M).group(1)


def test_readme_outputs_names_every_manifest_key(tmp_path):
    config_path = cmd_synth(tmp_path, seed=5)
    manifest = cmd_run(load_config(config_path, overrides=["model.gbt.n_trees=5", "shap.background_size=10"]))
    keys = set(manifest) | {key for windows in manifest["metrics"].values() for w in windows for key in w}
    outputs = readme_section("Outputs")
    assert sorted(key for key in keys if f"`{key}`" not in outputs) == []


def test_degenerate_importances_are_logged_once_per_period_naming_it(tmp_path, caplog):
    config_path = cmd_synth(tmp_path, seed=3)
    data = tmp_path / "synth_data.csv"
    lines = data.read_text(encoding="utf-8").splitlines()
    # rows 1-960 are the before period; a constant target there gives every window all-zero SHAP values
    lines[1:961] = [line.rsplit(",", 1)[0] + ",2.0" for line in lines[1:961]]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="regime_xai"):
        manifest = cmd_run(load_config(config_path, overrides=["model.gbt.n_trees=10", "shap.background_size=10"]))
    assert [w["degenerate_importance"] for w in manifest["metrics"]["before"]] == [True] * 6
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
        "period before: degenerate importances in windows [0, 1, 2, 3, 4, 5]"
    ]


def test_comparison_csv_is_the_window_statistics_of_importance_csv(tmp_path):
    # each period's mean and spread are those of its windows' importances,
    # the spread a population standard deviation (ddof=0)
    config_path = cmd_synth(tmp_path, seed=8)
    cmd_run(load_config(config_path, overrides=["model.gbt.n_trees=20", "shap.background_size=20"]))
    out = tmp_path / "run_output"
    with open(out / "importance.csv", newline="", encoding="utf-8") as fh:
        importance = list(csv.DictReader(fh))
    with open(out / "comparison.csv", newline="", encoding="utf-8") as fh:
        comparison = list(csv.DictReader(fh))
    features = [row["feature"] for row in comparison]
    assert features == ["x1", "x2", "x3"]
    stats = {}
    for period in ("before", "after"):
        fi = {}  # window -> feature -> fi
        for row in importance:
            if row["period"] == period:
                fi.setdefault(int(row["window"]), {})[row["feature"]] = float(row["fi"])
        assert sorted(fi) == list(range(6))
        matrix = np.array([[fi[w][feat] for feat in features] for w in sorted(fi)])
        stats[period] = matrix.mean(axis=0), matrix.std(axis=0, ddof=0)
    for j, row in enumerate(comparison):
        before_mean, before_std = (float(row[k]) for k in ("before_mean", "before_std"))
        after_mean, after_std = (float(row[k]) for k in ("after_mean", "after_std"))
        assert (before_mean, before_std) == (stats["before"][0][j], stats["before"][1][j])
        assert (after_mean, after_std) == (stats["after"][0][j], stats["after"][1][j])
        assert float(row["delta"]) == after_mean - before_mean
        flagged = abs(after_mean - before_mean) > before_std + after_std
        assert row["flagged"] == ("true" if flagged else "false")


def test_cmd_run_byte_identical_outputs(tmp_path):
    config_path = cmd_synth(tmp_path, seed=2)
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
            # the config record holds the differing output_dir override; the
            # science payload must match
            m1 = json.loads(payloads[0][f])
            m2 = json.loads(payloads[1][f])
            assert m1["metrics"] == m2["metrics"]
            assert m1["period_seeds"] == m2["period_seeds"]
        else:
            assert payloads[0][f] == payloads[1][f], f"{f} differs between identical runs"


def test_a_feature_name_that_needs_quoting_reads_back_from_every_output(tmp_path):
    # a column whose name holds a comma and quotes is quoted in the input's
    # header and in every CSV that features and run write
    name = 'load, DE "net"'
    config_path = market_config(tmp_path, shap={"background_size": 10})
    market = tmp_path / "market.csv"
    header, rest = market.read_text().split("\n", 1)
    market.write_text(header.replace("load", '"load, DE ""net"""', 1) + "\n" + rest)
    raw = json.loads(config_path.read_text())
    raw["features"] = {"columns": [name, "wind", "solar"], "target": "price"}
    raw["model"]["gbt"]["n_trees"] = 10
    config_path.write_text(json.dumps(raw))
    assert main(["features", "--config", str(config_path), "--out", str(tmp_path / "f")]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "r")]) == 0

    def read(path):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            return reader.fieldnames, list(reader)

    names = [name, "wind", "solar"]
    fields, rows = read(tmp_path / "f" / "features_before.csv")
    assert fields == ["timestamp", *names, "price"] and rows and all(float(r[name]) > 0 for r in rows)
    _, rows = read(tmp_path / "r" / "comparison.csv")
    assert [r["feature"] for r in rows] == names
    for output in ("importance.csv", "dependence.csv"):
        _, rows = read(tmp_path / "r" / output)
        assert sorted({r["feature"] for r in rows}) == sorted(names), output


def test_main_exit_codes(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "s")]) == 0
    missing = main(["run", "--config", str(tmp_path / "nope.json")])
    assert missing == 1


def test_synth_negative_seed_exits_1_naming_the_seed(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "s"), "--seed", "-1"]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "TimeSeriesError", "message": "seed must be >= 0, got -1"}
    assert not (tmp_path / "s" / "synth_data.csv").exists()


def test_failing_synth_leaves_no_directory_behind(tmp_path, capsys):
    # the generator refuses a negative seed before synth makes its --out directory
    out = tmp_path / "fresh" / "sub"
    assert main(["synth", "--out", str(out), "--seed", "-1"]) == 1
    assert last_error_record(capsys)["message"] == "seed must be >= 0, got -1"
    assert not (tmp_path / "fresh").exists()


def test_main_features_command(tmp_path):
    config_path = market_config(tmp_path)
    assert main(["features", "--config", str(config_path)]) == 0
    assert (tmp_path / "out" / "features_report.json").exists()


def test_main_rejects_bad_override(tmp_path):
    config_path = market_config(tmp_path)
    assert main(["run", "--config", str(config_path), "--set", "bogus_key=1"]) == 1


def last_error_record(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_main_out_overrides_the_configured_output_directory(tmp_path):
    config_path = market_config(tmp_path)
    assert main(["features", "--config", str(config_path), "--out", str(tmp_path / "elsewhere")]) == 0
    assert (tmp_path / "elsewhere" / "features_report.json").exists()
    assert not (tmp_path / "out").exists()


def test_main_reports_an_unexpected_failure_as_exit_2(tmp_path, capsys):
    # an output file that cannot be written is not a config or data fault
    config_path = market_config(tmp_path)
    (tmp_path / "taken" / "features_before.csv").mkdir(parents=True)
    assert main(["features", "--config", str(config_path), "--out", str(tmp_path / "taken")]) == 2
    record = last_error_record(capsys)
    assert record["error"] == "IsADirectoryError" and str(tmp_path / "taken") in record["message"]


@pytest.mark.parametrize("command", ["run", "features", "synth"])
@pytest.mark.parametrize("place", ["a file", "under a file"])
def test_output_directory_that_cannot_be_created_exits_1_naming_it(tmp_path, capsys, command, place):
    # The input does not exist, so the named key shows the check ran first.
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" if place == "a file" else tmp_path / "taken" / "sub"
    if command == "synth":
        argv, key = ["synth", "--out", str(out)], "--out"
    else:
        path = config_with(tmp_path, ("inputs", 0, "path"), str(tmp_path / "absent.csv"))
        argv, key = [command, "--config", str(path), "--set", f"output_dir={out}"], "output_dir"
    assert main(argv) == 1
    record = last_error_record(capsys)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"{key}: cannot create directory {out} (")


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("timestamp,x\n2018-01-01T00:00:00Z,1\n2018-01-01T01:00:00Z\n", "ParseError", "line 3: expected 2 cells, got 1"),
        ("timestamp,x\n2018-01-01T00:00:00Z,1\n2018-01-01T00:00:00Z,2\n", "ParseError",
         "line 3: duplicate timestamp 2018-01-01T00:00:00Z after 2018-01-01T00:00:00Z"),
        ("timestamp,x\n2018-01-01T00:00:00Z,1\n2018-01-01T02:00:00Z,2\n", "ParseError",
         "line 3: observed step 2h between 2018-01-01T00:00:00Z and 2018-01-01T02:00:00Z, expected 1h"),
        ("timestamp,x\n2018-01-01T00:00:00Z,1\n2018-01-01T01:00:00Z,1" + "0" * 140_000 + "\n", "ParseError",
         "line 3: field larger than field limit (131072)"),
    ],
    ids=["ragged row", "duplicate stamp", "gap", "oversized cell"],
)
def test_malformed_input_exits_1_naming_the_fault(tmp_path, capsys, text, error, message):
    config_path = market_config(tmp_path)
    raw = json.loads(config_path.read_text())
    raw["inputs"].append({"path": "bad.csv", "resolution_hours": 1})
    config_path.write_text(json.dumps(raw))
    (tmp_path / "bad.csv").write_text(text)
    assert main(["features", "--config", str(config_path)]) == 1
    assert last_error_record(capsys) == {"error": error, "message": message}


def test_unreadable_input_exits_1_naming_it(tmp_path, capsys):
    config_path = market_config(tmp_path)
    (tmp_path / "market.csv").unlink()
    assert main(["features", "--config", str(config_path)]) == 1
    record = last_error_record(capsys)
    assert record["error"] == "TimeSeriesError"
    assert record["message"].startswith(f"cannot read {tmp_path / 'market.csv'}: ")


def test_period_without_usable_rows_exits_1(tmp_path, capsys):
    # the inputs start in 2018, so a 2017 period joins no rows
    config_path = market_config(tmp_path)
    overrides = ["--set", "periods.before.start=2017-01-01T00:00:00Z", "--set", "periods.before.end=2017-02-01T00:00:00Z"]
    assert main(["features", "--config", str(config_path), *overrides]) == 1
    assert last_error_record(capsys) == {"error": "TimeSeriesError", "message": "period 'before' contains no usable rows"}


def test_hourly_inputs_that_start_at_different_hours_join_after_resampling(tmp_path):
    # four-hour blocks sit on the clock, so both inputs' blocks start at 04:00, 08:00, ...
    rng = np.random.default_rng(9)
    for name, columns, first_hour in (("a.csv", "x1,x2", 0), ("b.csv", "y", 1)):
        lines = [f"timestamp,{columns}"]
        for i in range(first_hour, 24 * 40):
            values = rng.uniform(-1, 1, size=len(columns.split(",")))
            lines.append(f"{format_timestamp(T0 + 3600 * i)}," + ",".join(f"{v:.4f}" for v in values))
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    mid = format_timestamp(T0 + 3600 * 24 * 20)
    raw = {
        "inputs": [{"path": "a.csv", "resolution_hours": 1}, {"path": "b.csv", "resolution_hours": 1}],
        "features": {"columns": ["x1", "x2"], "target": "y", "resample_hours": 4},
        "periods": {
            "before": {"start": format_timestamp(T0), "end": mid},
            "after": {"start": mid, "end": format_timestamp(T0 + 3600 * 24 * 40)},
        },
        "model": {"kind": "gbt"},
        "output_dir": "out",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    assert main(["features", "--config", str(config_path)]) == 0
    frames, _ = build_features(load_config(config_path))
    # the block [00:00, 04:00) of b.csv lacks its 00:00 row and is dropped
    assert frames["before"].timestamps[0] == T0 + 4 * 3600
    assert len(frames["before"]) == 6 * 20 - 1 and len(frames["after"]) == 6 * 20


def test_one_window_run(tmp_path):
    # one window covers the first half of each period and gives no spread, so
    # no delta can be judged against it: nothing is flagged, not even the
    # flipped x1 and x2, where zero spreads would flag the noise feature x3
    config_path = cmd_synth(tmp_path, seed=3)
    assert main(["run", "--config", str(config_path), "--set", "windows.n_windows=1",
                 "--set", "model.gbt.n_trees=10", "--set", "shap.background_size=10"]) == 0
    manifest = json.loads((tmp_path / "run_output" / "manifest.json").read_text())
    for period in ("before", "after"):
        assert [m["window"] for m in manifest["metrics"][period]] == [0]
        assert manifest["metrics"][period][0]["n_train"] + manifest["metrics"][period][0]["n_test"] == 480
    assert manifest["flagged_features"] == []


def test_run_on_a_grid_whose_step_does_not_divide_a_day_exits_1(tmp_path, capsys):
    # a 7 h grid is a valid table, but test blocks of whole days cannot be
    # counted in its rows, so the config is refused before the table is read
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
    assert "inputs[0].resolution_hours must divide a day, got 7" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "kind, spec, name",
    [
        ("mixed_prices", {"name": "cap", "capacity": "cap", "energy": "energy"}, "cap"),
        ("residual_loads", {"name": "wind", "load": "load", "wind": "wind", "solar": "solar", "ror": "ror"}, "wind"),
        ("mixed_prices", {"name": "mixed", "capacity": "energy", "energy": "cap"}, "mixed"),
    ],
    ids=["mixed price named after its capacity", "residual load named after an input", "two mixed prices"],
)
def test_derived_column_never_replaces_a_column(tmp_path, capsys, kind, spec, name):
    # the config's first residual load and mixed price stay; spec is added
    # after them, so the last case repeats the name "mixed"
    config_path = market_config(tmp_path)
    raw = json.loads(config_path.read_text())
    raw["features"][kind].append(spec)
    config_path.write_text(json.dumps(raw))
    assert main(["features", "--config", str(config_path)]) == 1
    assert f"derived column {name!r} would replace an existing column" in capsys.readouterr().err


@pytest.mark.parametrize(
    "assignment, message",
    [
        ("periods.before.end=2018-01-21T00:00:00Z",
         "before: window 0: window of 240 rows spans only 2 blocks of 96 rows; need at least 5"),
        ("windows.n_windows=2000", "before: period too short: 960 rows for 2000 windows"),
        ("periods.before.end=2018-01-01T01:00:00Z", "before: period too short: 1 rows for 6 windows"),
    ],
)
def test_period_too_short_for_the_protocol_exits_1_naming_it(tmp_path, capsys, assignment, message):
    config_path = cmd_synth(tmp_path, seed=0)
    assert main(["run", "--config", str(config_path), "--set", assignment]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "TimeSeriesError", "message": message}


def test_mlp_run_flips_ranks_too(tmp_path):
    config_path = cmd_synth(tmp_path, seed=11)
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


def test_mlp_run_with_one_feature(tmp_path):
    config_path = cmd_synth(tmp_path, seed=12)
    argv = ["run", "--config", str(config_path), "--set", 'features.columns=["x1"]', "--set", "model.kind=mlp",
            "--set", "model.mlp.hidden_sizes=[8]", "--set", "model.mlp.max_epochs=5"]
    assert main(argv) == 0
    rows = (tmp_path / "run_output" / "comparison.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["x1"]


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


def mixed_resolution_config(tmp_path, first_hour, price_hours=(0,)):
    """An hourly generation table and natively 4h price tables (one per entry
    of price_hours, each starting at that hour), all resampled to 4h."""
    rng = np.random.default_rng(4)
    start = T0 + 3600 * first_hour
    gen_lines = ["timestamp,lignite,gas"]
    for i in range(1600):
        ts = format_timestamp(start + 3600 * i)
        gen_lines.append(f"{ts},{rng.uniform(5, 15):.3f},{rng.uniform(1, 8):.3f}")
    (tmp_path / "gen.csv").write_text("\n".join(gen_lines) + "\n")

    inputs = [{"path": "gen.csv", "resolution_hours": 1}]
    for j, hour in enumerate(price_hours):
        price_lines = [f"timestamp,price{j or ''}"]
        for i in range(400):
            ts = format_timestamp(T0 + 3600 * hour + 4 * 3600 * i)
            price_lines.append(f"{ts},{rng.uniform(20, 80):.3f}")
        (tmp_path / f"price{j or ''}.csv").write_text("\n".join(price_lines) + "\n")
        inputs.append({"path": f"price{j or ''}.csv", "resolution_hours": 4})

    mid = format_timestamp(T0 + 3600 * 800)
    raw = {
        "inputs": inputs,
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
    return config_path


def test_two_tables_with_mixed_native_resolutions(tmp_path):
    # hourly generation table resampled to 4h, joined with natively 4h prices
    config_path = mixed_resolution_config(tmp_path, first_hour=0)
    frames, report = build_features(load_config(config_path))
    assert len(frames["before"]) == 200 and len(frames["after"]) == 200
    for fm in frames.values():
        assert (np.diff(fm.timestamps) == 4 * 3600).all()
    assert report["periods"]["before"]["rows_dropped_in_join"] == 0


def test_native_block_input_off_the_utc_clock_sets_the_block_phase(tmp_path):
    # 4h reserve products in local time fall at 02:00, 06:00, ... UTC; the
    # hourly input's blocks follow the native 4h input, not the UTC clock
    config_path = mixed_resolution_config(tmp_path, first_hour=2, price_hours=(2,))
    frames, report = build_features(load_config(config_path))
    assert len(frames["before"]) == 200 and len(frames["after"]) == 200
    for fm in frames.values():
        assert ((fm.timestamps - T0) % (4 * 3600) == 2 * 3600).all()
    assert report["periods"]["before"]["rows_dropped_in_join"] == 0


def test_native_block_inputs_at_different_phases_exit_1_naming_them(tmp_path, capsys):
    config_path = mixed_resolution_config(tmp_path, first_hour=0, price_hours=(0, 2))
    assert main(["features", "--config", str(config_path)]) == 1
    record = last_error_record(capsys)
    assert record["error"] == "TimeSeriesError"
    assert record["message"] == (
        "inputs at the 4h block step start off the UTC clock by different offsets: "
        f"{tmp_path / 'price.csv'} +0h, {tmp_path / 'price1.csv'} +2h"
    )


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
