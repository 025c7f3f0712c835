"""Seeded input generators for the benchmark workloads.

Each generator writes CSV exports plus a run config into a directory. Two
planted drivers swap their weights at the change date (3:1 before, 1:3
after), so a correct run flags both with opposite-sign deltas and moves the
top importance rank from the first driver to the second. The program sees
only the CSVs and the config; the planted drivers stay with the benchmark.

The same seed always writes byte-identical files. The analysis seed in the
config is derived from the benchmark seed, never taken from the program.

    python3 perfbench/workloads.py WORKLOAD SEED OUT_DIR

writes one workload and prints {"config": path, "drivers": [before, after]}.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

CHANGE_DATE = np.datetime64("2019-01-01T00:00:00", "s")
HOUR = np.timedelta64(3600, "s")


def analysis_seed(workload: str, seed: int) -> int:
    """Config seed derived from the benchmark seed and the workload name."""
    digest = hashlib.sha256(f"{workload}:{int(seed)}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), analysis_seed(workload, seed)])


def _ar1(rng: np.random.Generator, n: int, k: int, phi: float) -> np.ndarray:
    """k independent unit-variance AR(1) series of length n, one per column."""
    eps = rng.standard_normal((n, k)) * np.sqrt(1.0 - phi * phi)
    out = np.empty((n, k))
    out[0] = rng.standard_normal(k)
    for t in range(1, n):
        out[t] = phi * out[t - 1] + eps[t]
    return out


def _timestamps(start: np.datetime64, n: int, step_seconds: int) -> np.ndarray:
    ts = start + np.arange(n) * np.timedelta64(step_seconds, "s")
    return np.char.add(np.datetime_as_string(ts, unit="s"), "Z")


def _write_csv(path: Path, timestamps: np.ndarray, names: list[str], data: np.ndarray) -> None:
    """Write an export CSV; NaN cells become empty cells."""
    cells = np.char.mod("%.4f", data)
    cells[np.isnan(data)] = ""
    table = np.column_stack([timestamps, cells])
    lines = [",".join(["timestamp"] + names)]
    lines.extend(",".join(row) for row in table.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _iso(t: np.datetime64) -> str:
    return f"{np.datetime_as_string(t, unit='s')}Z"


def _write_config(out_dir: Path, config: dict) -> Path:
    path = out_dir / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _periods(start: np.datetime64, end: np.datetime64) -> dict:
    return {
        "before": {"start": _iso(start), "end": _iso(CHANGE_DATE)},
        "after": {"start": _iso(CHANGE_DATE), "end": _iso(end)},
    }


def _planted_target(
    rng: np.random.Generator, X: np.ndarray, drivers: tuple[int, int], before: np.ndarray
) -> np.ndarray:
    """Linear target whose two driver weights swap from 3:1 to 1:3 where
    `before` ends; the other columns get small fixed weights."""
    weights = rng.uniform(0.1, 0.4, size=X.shape[1])
    w_before, w_after = weights.copy(), weights.copy()
    w_before[list(drivers)] = (3.0, 1.0)
    w_after[list(drivers)] = (1.0, 3.0)
    y = np.where(before, X @ w_before, X @ w_after)
    return y + 0.5 * rng.standard_normal(len(y))


def _hourly_features_workload(
    name: str, out_dir: Path, seed: int, hours_per_period: int, sections: dict, features_extra: dict
) -> tuple[Path, tuple[str, str]]:
    rng = _rng(name, seed)
    features = ["load", "wind", "solar", "gas", "coal", "co2", "flow", "hydro"]
    n = 2 * hours_per_period
    start = CHANGE_DATE - hours_per_period * HOUR
    X = _ar1(rng, n, len(features), 0.9)
    drivers = tuple(int(i) for i in rng.choice(len(features), size=2, replace=False))
    y = _planted_target(rng, X, drivers, np.arange(n) < hours_per_period)
    _write_csv(out_dir / "market.csv", _timestamps(start, n, 3600), features + ["price"],
               np.column_stack([X, y]))
    config = {
        "inputs": [{"path": "market.csv", "resolution_hours": 1}],
        "features": {"columns": features, "target": "price", **features_extra},
        "periods": _periods(start, start + n * HOUR),
        **sections,
        "seed": analysis_seed(name, seed),
        "output_dir": "out",
    }
    return _write_config(out_dir, config), (features[drivers[0]], features[drivers[1]])


def gbt_year(out_dir: Path, seed: int) -> tuple[Path, tuple[str, str]]:
    """One hourly CSV, 8 features, 8760 rows per period; GBT explained on test rows."""
    sections = {
        "model": {"kind": "gbt", "gbt": {"n_trees": 30, "max_depth": 4, "min_samples_leaf": 20}},
        "shap": {"background_size": 50, "explain_on": "test"},
        "windows": {"n_windows": 2},
    }
    return _hourly_features_workload("gbt-year", out_dir, seed, 8760, sections, {})


def mlp_kernel(out_dir: Path, seed: int) -> tuple[Path, tuple[str, str]]:
    """One hourly CSV, 8 features, 4380 rows per period, resampled to 4 h;
    MLP explained by KernelSHAP in exact mode."""
    sections = {
        "model": {"kind": "mlp", "mlp": {"hidden_sizes": [32, 32], "max_epochs": 150}},
        "shap": {"background_size": 50, "explain_on": "test"},
        "windows": {"n_windows": 2, "test_fraction": 0.3},
    }
    return _hourly_features_workload("mlp-kernel", out_dir, seed, 4380, sections, {"resample_hours": 4})


def _trailing_mean_before(values: np.ndarray, w: int) -> np.ndarray:
    out = np.full(len(values), np.nan)
    sums = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(w, len(values))
    out[idx] = (sums[idx] - sums[idx - w]) / w
    return out


def _quarter_hourly(rng: np.random.Generator, hourly: np.ndarray) -> np.ndarray:
    """Hourly rows repeated to 15-min rows, plus a little measurement noise."""
    quarters = np.repeat(hourly, 4, axis=0)
    return quarters + 0.05 * rng.standard_normal(quarters.shape)


def csv_export(out_dir: Path, seed: int) -> tuple[Path, tuple[str, str]]:
    """Three 15-min exports, one year per period: zone loads and renewables,
    a market file with about 0.2 % empty cells, and prices. The config
    resamples to 1 h and engineers two residual loads and a mixed price; the
    target is the capacity price before the change and the mixed price after."""
    name = "csv-export"
    rng = _rng(name, seed)
    hours = 2 * 8760
    start = CHANGE_DATE - 8760 * HOUR
    day = np.sin(2 * np.pi * (np.arange(hours) % 24) / 24)
    sun = np.clip(np.sin(2 * np.pi * ((np.arange(hours) % 24) - 6) / 24), 0, None)

    zones = {}
    residual = []
    for zone in ("a", "b"):
        ar = _ar1(rng, hours, 4, 0.95)
        load = 60 + 8 * day + 6 * ar[:, 0]
        wind = np.clip(12 + 6 * ar[:, 1], 0, None)
        solar = 10 * sun * (1 + 0.3 * ar[:, 2])
        ror = 5 + ar[:, 3]
        zones.update({f"load_{zone}": load, f"wind_{zone}": wind,
                      f"solar_{zone}": solar, f"ror_{zone}": ror})
        residual.append(load - wind - solar - _trailing_mean_before(ror, 7 * 24))

    market_names = ["gas", "co2", "flow_ab", "hydro_fill"]
    market = _ar1(rng, hours, len(market_names), 0.98)
    rl = np.column_stack(residual)
    rl = (rl - np.nanmean(rl, axis=0)) / np.nanstd(rl, axis=0)
    X = np.nan_to_num(np.column_stack([rl, market]))
    cap = 20 + 5 * _planted_target(rng, X, (0, 1), np.arange(hours) < 8760)
    energy = 40 + 10 * rng.standard_normal(hours)

    ts = _timestamps(start, 4 * hours, 900)
    load_names = list(zones)
    loads = _quarter_hourly(rng, np.column_stack([zones[k] for k in load_names]))
    _write_csv(out_dir / "loads.csv", ts, load_names, loads)
    market_q = _quarter_hourly(rng, market)
    market_q[rng.random(market_q.shape) < 0.002] = np.nan
    _write_csv(out_dir / "market.csv", ts, market_names, market_q)
    prices = _quarter_hourly(rng, np.column_stack([cap, energy]))
    _write_csv(out_dir / "prices.csv", ts, ["cap_price", "energy_price"], prices)

    residual_loads = [
        {"name": f"rl_{z}", "load": f"load_{z}", "wind": f"wind_{z}", "solar": f"solar_{z}",
         "ror": f"ror_{z}", "ror_lag_days": 7}
        for z in ("a", "b")
    ]
    config = {
        "inputs": [{"path": f, "resolution_hours": 0.25} for f in ("loads.csv", "market.csv", "prices.csv")],
        "features": {
            "columns": ["rl_a", "rl_b"] + market_names,
            "target": {"before": "cap_price", "after": "mixed"},
            "resample_hours": 1,
            "residual_loads": residual_loads,
            "mixed_prices": [{"name": "mixed", "capacity": "cap_price", "energy": "energy_price",
                              "alpha": 0.05}],
        },
        "periods": _periods(start, start + hours * HOUR),
        "model": {"kind": "gbt", "gbt": {"n_trees": 10, "max_depth": 3}},
        "shap": {"background_size": 10, "explain_on": "train"},
        "seed": analysis_seed(name, seed),
        "output_dir": "out",
    }
    return _write_config(out_dir, config), ("rl_a", "rl_b")


GENERATORS = {"gbt-year": gbt_year, "mlp-kernel": mlp_kernel, "csv-export": csv_export}


def generate(workload: str, out_dir: Path, seed: int) -> tuple[Path, tuple[str, str]]:
    """Write the workload's inputs and config; return the config path and the
    planted drivers as (top before the change, top after it)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](out_dir, seed)


if __name__ == "__main__":
    config_path, planted = generate(sys.argv[1], Path(sys.argv[3]), int(sys.argv[2]))
    print(json.dumps({"config": str(config_path), "drivers": planted}))
