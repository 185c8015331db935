"""Tests of the benchmark itself.

    python -m pytest perfbench

The smoke tests run every workload at a tiny size through the real command
line; the check tests show that each output check can fail.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_declared_metrics_match_the_code():
    for key, code in (("end_to_end", run.END_TO_END),
                      ("per_layer", layers.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in DECLARED[key]]
        assert declared == list(code)
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    result = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", trace, "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # failed_ratio is 0
    assert result["correct"] is True
    declared = DECLARED["end_to_end" if trace == "0" else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
        if trace == "0":
            assert got["value"] > 0.0


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"),
                                       encoding="utf-8")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cli-startup", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# every check can fail

def test_readme_goldens_fail_on_a_wrong_expected_value():
    for name, (value, tol) in checks.README_GOLDENS.items():
        assert checks.readme_golden(name, value) == []
        wrong = {name: (value + 10 * tol, tol)}
        assert checks.readme_golden(name, value, wrong)


def test_crossing_check_fails_on_a_wrong_location():
    assert checks.crossing(checks.CROSSING_K4, 4) == []
    assert checks.crossing(checks.CROSSING_K4, 4, golden_k4=0.45)
    assert checks.crossing(0.5, 4)
    assert checks.crossing(math.nan, 3)


def test_adversary_checks_fail():
    assert checks.series_law([0.5, 1.0]) == []
    assert checks.series_law([0.5, 1.0 + 1e-9])
    assert checks.saturated(1.0 - 1e-12) == []
    assert checks.saturated(1.0 - 1e-12, tol=1e-13)
    assert checks.blind_endpoint([0.0, 0.0]) == []
    assert checks.blind_endpoint([0.0, 1e-3])


def test_output_checks_fail():
    assert checks.identical("op", "a", "a") == []
    assert checks.identical("op", "a", "b")
    meta, columns, rows = checks.parse_table(
        "# wallclock: now\nx,y\n1,2\n3,nan\n")
    assert checks.table_cells(columns, rows[:1]) == []
    assert checks.table_cells(columns, rows)
    assert checks.drop_wallclock("# wallclock: a\nx\n") == "x\n"


def test_wrong_golden_fails_a_warm_library_operation(monkeypatch):
    monkeypatch.setitem(checks.README_GOLDENS, "analytic_certification.z",
                        (12.5, 5e-3))
    workload = workloads.build("warm-library", 1, smoke=True)
    runner = run.Runner(env={}, smoke=True)
    failures = [f for op in workload.ops for f in runner.run(op).failures]
    assert any("analytic_certification.z" in f for f in failures)


def test_wrong_golden_fails_a_cli_operation(monkeypatch):
    monkeypatch.setitem(checks.README_GOLDENS, "analytic_certification.se",
                        (0.3, 5e-5))
    workload = workloads.build("cli-startup", 1)
    op = next(op for op in workload.ops if op.label == "certify-point")
    runner = run.Runner(env=dict(run.os.environ, PYTHONPATH=str(run.SRC)),
                        smoke=True)
    failures = runner.run(op).failures
    assert any("analytic_certification.se" in f for f in failures)


def test_importtime_parser():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        300 |   scipy",
        "import time:        20 |         20 |     numpy.linalg",
        "import time:        10 |        400 |   scipy.optimize",
        "import time:         5 |        900 | cfii.witness",
        "import time:         7 |         40 | cfii.cli",
    ])
    cfii, scipy = layers.parse_importtime(stderr)
    assert cfii == pytest.approx(940e-6)
    assert scipy == pytest.approx(700e-6)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        {"trace": "t", "id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"trace": "t", "id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"trace": "t", "id": 2, "parent": 0, "start": 3.0, "end": 5.0},
        {"trace": "t", "id": 3, "parent": 1, "start": 1.0, "end": 2.0},
    ]
    selfs = layers.self_times(spans)
    assert selfs[("t", 0)] == pytest.approx(6.0)
    assert selfs[("t", 1)] == pytest.approx(2.0)
