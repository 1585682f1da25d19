import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

ROOT = Path(run.__file__).resolve().parent.parent


def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(30, 0, -1)))
    assert (value, beyond) == (20, 10)
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_with_few_samples_leaves_half_beyond():
    assert run.tail([5.0, 1.0, 3.0, 2.0, 4.0, 6.0]) == (3.0, 50.0, 3)
    assert run.tail([2.0]) == (2.0, 100.0, 0)


def test_scaled_uses_the_slices_around_each_sample():
    ref = run.REFERENCE_SLICE_S
    got = run.scaled([1.0, 2.0], [ref, 3 * ref, ref])
    assert got == pytest.approx([0.5, 1.0])


def test_end_to_end_from_raw_samples():
    ref = run.REFERENCE_SLICE_S
    raw = {
        "passes": [1.0, 3.0, 2.0],
        "pass_slices": [ref, ref, 2 * ref, 2 * ref],
        "peak_rss_mb": 40.0,
        "setup_s": [0.2, 0.4],
        "setup_slices": [ref, ref, ref],
    }
    values, _ = run.end_to_end(raw)
    assert values["wall_s"] == pytest.approx(1.0)  # scaled samples 1.0, 2.0, 1.0
    assert values["ops_per_s"] == pytest.approx(3 / 4)
    assert values["setup_s"] == pytest.approx(0.3)
    assert values["peak_rss_mb"] == 40.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    raw = {"passes": [1.0], "pass_slices": [1.0, 1.0], "peak_rss_mb": 40.0,
           "setup_s": [0.1], "setup_slices": [1.0, 1.0]}
    values, _ = run.end_to_end(raw)
    assert [m["name"] for m in spec["end_to_end"]] == list(values)
    layer = tracer.layer_metrics({}, ops=1, traced_op_s=1.0, untraced_op_s=1.0, cache_hits=0, cache_calls=0)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)


def test_refuses_optimized_interpreter():
    proc = subprocess.run([sys.executable, "-O", str(ROOT / "perfbench" / "run.py"), "--workload", "cli_all"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_all", "--seed", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
