"""Checks of the test setup itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=20)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # Warnings are errors, so one raised while Hypothesis reports a failure
    # must not abort the session before the failure and later tests are shown.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q", "-p", "no:cacheprovider",
         str(tmp_path / "test_property.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_every_bench_record_names_its_runs_and_the_declared_workloads():
    # A BENCH_*.json backs a performance claim: it must say what changed
    # against which parent, hold its pairs, and summarize exactly the
    # workloads BENCHMARK.json declares.
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        missing = {"parent", "change", "claim", "pairs", "median_over_pairs"} - record.keys()
        assert not missing, f"{path.name} lacks {sorted(missing)}"
        assert isinstance(record["pairs"], list) and record["pairs"], path.name
        assert set(record["median_over_pairs"]) == workloads, path.name
