"""Benchmark driver: a closed loop of `regime-xai run` processes on one workload.

    python3 perfbench/run.py --workload gbt-year --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 0

Run it from the root of a checkout; it runs the program from the checkout's
`src/` tree. It writes the workload's inputs under `perfbench/_work/`, then
starts one run at a time, each only after the previous one has ended, until
--seconds have passed (at least two untraced runs), and times three set-up
processes after each run. Every run's outputs are checked. The last line of
stdout is the JSON result; the line before it is a report with the
environment, every run and the sha256 of each output.

With --trace 0 the result holds the end-to-end metrics. With --trace 1 every
other run goes through perfbench/tracer.py, and the result holds the per-layer
metrics of the traced runs (medians) plus the tracing overhead.

`--workload all` runs every workload in turn and prints each metric by name
and unit. The exit code is 1 when an output check fails, 2 when the checkout
has no program to run and 3 when tracing finds a wrapped name missing or a
layer the workload must use idle.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
OUTPUTS = ("importance.csv", "comparison.csv", "dependence.csv", "manifest.json")
SETUP_SAMPLES_PER_RUN = 3
MIN_UNTRACED_RUNS = 2
DEADLINE_S = 170.0  # every run, set-up included, ends before this

RUN_CODE = "import sys; from regime_xai.cli import main; sys.exit(main())"
SETUP_CODE = "import sys, regime_xai.cli, regime_xai.config; regime_xai.config.load_config(sys.argv[1])"

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("test_r2", "1"),
    ("passed_share", "1"),
)


@dataclass(frozen=True)
class Workload:
    """What the benchmark needs to know about one workload."""

    name: str
    why: str
    # layers whose wrapped calls must record at least one call in a traced run
    exercises: tuple[str, ...]
    # per-layer time metrics whose sum must dominate the traced run
    focus: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gbt-year",
            "one hourly year per period, 8 features, GBT with 50 background rows: TreeSHAP "
            "and GBT fit dominate, ingest and export stay small",
            ("timeseries", "experiment", "gbt", "shap.tree", "config"),
            ("shap.tree_s", "gbt.fit_s"),
        ),
        Workload(
            "mlp-kernel",
            "half a year per period resampled to 4 h, MLP with exact-mode KernelSHAP: "
            "thousands of small forward passes, no tree code runs",
            ("timeseries", "experiment", "mlp", "shap.kernel", "config"),
            ("shap.kernel_s",),
        ),
        Workload(
            "csv-export",
            "three 15-min exports engineered to hourly features, GBT explained on train rows "
            "(rows >> background): CSV ingest, feature engineering and dependence.csv dominate",
            ("timeseries", "experiment", "gbt", "shap.tree", "config"),
            ("timeseries.load_s", "timeseries.engineer_s", "experiment.export_s"),
        ),
    )
}

# The driver never imports numpy and never generates data itself: a child's
# peak RSS includes its parent's peak at fork time, so the driver stays small.
ENV_CODE = """import json, platform, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = {}
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": {k: blas.get(k, "unknown") for k in ("name", "version")}}))
"""


class SetupError(RuntimeError):
    """The checkout holds no program the benchmark can run."""


# --------------------------------------------------------------- environment


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=20, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _child_json(what: str, argv: list[str], env: dict) -> dict:
    """Run a helper child and parse the JSON it prints."""
    try:
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
    except subprocess.CalledProcessError as exc:
        raise SetupError(f"{what} failed: {exc.stderr.strip()[-500:]}") from None
    return json.loads(done.stdout)


def environment(env: dict) -> dict:
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        **_child_json("environment probe", [sys.executable, "-c", ENV_CODE], env),
        "nproc": len(os.sched_getaffinity(0)),
        **{name: os.environ.get(name) for name in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "REGIME_XAI_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


def child_env() -> dict:
    src = ROOT / "src"
    if not (src / "regime_xai" / "__init__.py").is_file():
        raise SetupError(f"no program to benchmark: {src / 'regime_xai'} is missing")
    env = dict(os.environ)
    env.pop("REGIME_XAI_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


# -------------------------------------------------------------------- runs


def run_process(argv: list[str], env: dict, log_path: Path, timeout: float) -> dict:
    """Run one child to completion; wall time, CPU time and peak RSS from wait4."""
    load_before = os.getloadavg()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_outputs(out_dir: Path, drivers: tuple[str, str], reference: dict | None) -> dict:
    """Check one run's outputs.

    All four outputs exist; both planted drivers are flagged with opposite-sign
    deltas (the first loses importance, the second gains it); the top rank
    moves from the first driver to the second; every window has a finite test
    R²; and, given the hashes of an earlier run, the outputs are byte-identical
    to it. Returns the problems found, the output hashes and the mean test R².
    """
    missing = [name for name in OUTPUTS if not (out_dir / name).is_file()]
    if missing:
        return {"problems": [f"missing outputs: {', '.join(missing)}"], "sha256": {}, "test_r2": math.nan}
    problems = []
    hashes = {name: sha256_of(out_dir / name) for name in OUTPUTS}

    with open(out_dir / "comparison.csv", newline="", encoding="utf-8") as fh:
        rows = {row["feature"]: row for row in csv.DictReader(fh)}
    first, second = drivers
    if first not in rows or second not in rows:
        problems.append(f"comparison.csv lacks the planted drivers {drivers}")
    else:
        if rows[first]["flagged"] != "true" or rows[second]["flagged"] != "true":
            problems.append(f"planted drivers {drivers} are not both flagged")
        if not float(rows[first]["delta"]) < 0.0 < float(rows[second]["delta"]):
            problems.append(f"deltas of {drivers} do not have opposite signs in the planted direction")
        top_before = max(rows, key=lambda f: float(rows[f]["before_mean"]))
        top_after = max(rows, key=lambda f: float(rows[f]["after_mean"]))
        if (top_before, top_after) != drivers:
            problems.append(f"top rank moved {top_before} -> {top_after}, planted {first} -> {second}")

    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    r2 = [w["test_r2"] for windows in manifest["metrics"].values() for w in windows]
    if not r2 or any(v is None or not math.isfinite(v) for v in r2):
        problems.append("a window has no finite test R2")
        test_r2 = math.nan
    else:
        test_r2 = statistics.fmean(r2)

    if reference is not None and hashes != reference:
        changed = sorted(name for name in OUTPUTS if hashes[name] != reference.get(name))
        problems.append(f"rerun is not byte-identical: {', '.join(changed)}")
    return {"problems": problems, "sha256": hashes, "test_r2": test_r2}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result, report)."""
    spec = WORKLOADS[workload]
    env = child_env()
    started = time.perf_counter()
    work = HERE / "_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = _child_json("input generator", [sys.executable, str(HERE / "workloads.py"), workload,
                                              str(seed), str(work / "inputs")], env)
    config, drivers = Path(inputs["config"]), tuple(inputs["drivers"])
    out_dir = work / "inputs" / "out"
    report = {"workload": workload, "seed": seed, "trace": trace, "drivers": drivers,
              "environment": environment(env)}

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    setup_argv = [sys.executable, "-c", SETUP_CODE, str(config)]

    def time_setup() -> float:
        sample = run_process(setup_argv, env, work / "setup.log", remaining())
        if sample["exit"] != 0:
            raise SetupError(f"set-up process failed: {_last_line(work / 'setup.log')}")
        return sample["wall_s"]

    time_setup()  # untimed: compiles the bytecode cache
    runs, traces, reference, setups = [], [], None, []
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        index = len(runs)
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            trace_path = work / f"trace-{index}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), str(index)]
        else:
            argv = [sys.executable, "-c", RUN_CODE]
        record = run_process(argv + ["run", "--config", str(config)], env,
                             work / f"run-{index}.log", remaining())
        record.update(index=index, traced=traced)
        if traced and record["exit"] == tracer.TRACE_ERROR_EXIT:
            raise tracer.TraceError(_last_line(work / f"run-{index}.log"))
        if record["exit"] == 0:
            record.update(check_outputs(out_dir, drivers, reference))
        else:
            record.update(problems=[f"exit code {record['exit']}: {_last_line(work / f'run-{index}.log')}"],
                          sha256={}, test_r2=math.nan)
        if reference is None and not record["problems"]:
            reference = record["sha256"]
        if traced and record["exit"] == 0:
            data = json.loads(trace_path.read_text(encoding="utf-8"))
            tracer.check_exercised(data, spec.exercises)
            traces.append((record, data))
        runs.append(record)
        # set-up samples sit between runs, so each starts on an equally busy machine
        setups.extend(time_setup() for _ in range(SETUP_SAMPLES_PER_RUN))
        print(f"{workload} run {index}{' traced' if traced else ''}: {record['wall_s']:.3f} s"
              f"{' FAILED ' + '; '.join(record['problems']) if record['problems'] else ''}",
              file=sys.stderr)

        # stop at the run boundary nearest to --seconds
        typical = statistics.median(r["wall_s"] for r in runs)
        elapsed = time.perf_counter() - loop_start
        enough = sum(not r["traced"] for r in runs) >= MIN_UNTRACED_RUNS and (traces or not trace)
        if (enough and elapsed + typical / 2 >= seconds) or remaining() < 1.5 * typical:
            break

    report["runs"] = runs
    report["setup_s"] = setups
    report["sha256"] = reference
    failed = sum(1 for r in runs if r["problems"])
    good = [r for r in runs if not r["problems"] and not r["traced"]] or [r for r in runs if not r["traced"]]
    run_s = statistics.median(r["wall_s"] for r in good)
    if trace:
        metrics = _per_layer(traces, run_s, spec)
    else:
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(r["cpu_s"] for r in good),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            "test_r2": statistics.median([r["test_r2"] for r in good if math.isfinite(r["test_r2"])] or [0.0]),
            "passed_share": (len(runs) - failed) / len(runs),
        }
        units = dict(END_TO_END)
        metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    result = {"correct": failed == 0 and reference is not None, "attempted": len(runs),
              "failed": failed, "metrics": metrics}
    return result, report


def _last_line(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def _per_layer(traces: list[tuple[dict, dict]], untraced_run_s: float, spec) -> dict:
    if not traces:
        raise tracer.TraceError("no traced run completed")
    per_run = [tracer.layer_metrics(data) for _, data in traces]
    values = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    values["trace.run_s"] = statistics.median(r["wall_s"] for r, _ in traces)
    values["trace.overhead_s"] = values["trace.run_s"] - untraced_run_s
    values["trace.focus_share"] = sum(values[name] for name in spec.focus) / values["trace.run_s"]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in tracer.PER_LAYER}


# ---------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, report = measure(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(report, default=str))
            results[name] = result
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except tracer.TraceError as exc:
        print(f"perfbench: tracing failed: {exc}", file=sys.stderr)
        return 3

    if args.workload == "all":
        for name, result in results.items():
            for metric, entry in result["metrics"].items():
                print(f"{name:<11} {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
            print(f"{name:<11} {'correct':<32} {str(result['correct']).lower():>14}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
