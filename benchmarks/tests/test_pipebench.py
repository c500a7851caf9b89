"""Tests of the pipeline benchmark itself (tiny corpora, fixed input size)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from pipebench import driver, spans, workloads  # noqa: E402


def _declared(kind: str) -> dict:
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def _bindings() -> dict:
    return {(m.__name__, name): value
            for m in spans.chordsim_modules() for name, value in vars(m).items()}


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_tiny_smoke_run(name, tmp_path):
    workload = workloads.build(name, seed=5, workdir=tmp_path, tiny=True)
    stats = driver.run_untraced(workload, items=workload.n_items)
    assert stats.correct
    assert stats.failed == 0
    metrics = driver.end_to_end_metrics(stats, setup_s=1.0, peak_rss_mb=100.0)
    assert _units(metrics) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_throughput_counts_failed_items_as_not_done():
    stats = driver.RunStats(n_inputs=2)
    stats.add(0, workloads.ItemResult(digest="a"), 0.5, 0.6)
    stats.add(1, workloads.ItemResult(digest="b", failure="crc"), 0.5, 0.5)
    assert driver.throughput(stats) == 1.0


def test_channel_sweep_interleaves_tags(tmp_path):
    workload = workloads.build("channel_sweep", seed=5, workdir=tmp_path, tiny=True)
    assert len({id(item[0]) for item in workload.inputs}) == workload.n_items == 20
    assert workload.inputs[0][-1] != workload.inputs[1][-1]


def test_self_time_of_nested_spans():
    s = spans.Span
    recorded = [s("a", 0.0, 10.0, -1, 0), s("b", 1.0, 4.0, 0, 0), s("c", 2.0, 3.0, 1, 0),
                s("d", 5.0, 9.0, 0, 0), s("e", 11.0, 12.0, -1, 1)]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    workload = workloads.build("fast_decode", seed=5, workdir=tmp_path, tiny=True)
    plain, traced, recorder = driver.run_traced(workload, items=1)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    names = {s.name for s in recorder.spans}
    assert {"harness.simulate_capture", "channelizer.notch_dc", "decoder.preamble_search",
            "locator.basic_hologram", "model.synth_channel"} <= names
    assert plain.digest() == traced.digest()
    metrics = driver.per_layer_metrics(plain, traced, recorder)
    assert _units(metrics) == _declared("per_layer")
    assert len(metrics) <= 128
    assert metrics["channelizer.notch_dc.calls"]["value"] == 8


@pytest.mark.parametrize("name", ["fast_decode", "channel_sweep", "snapshot_gate"])
def test_same_seed_gives_same_digest(name, tmp_path):
    digests = []
    for _ in range(2):
        workload = workloads.build(name, seed=9, workdir=tmp_path, tiny=True)
        stats = driver.run_untraced(workload, items=workload.n_items)
        digests.append(stats.digest())
    assert digests[0] == digests[1]


def test_command_prints_end_to_end_result_last():
    out = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                          "channel_sweep", "--seed", "1", "--seconds", "0.3", "--trace", "0"],
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= driver.WORKERS
    assert _units(result["metrics"]) == _declared("end_to_end")


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                          "fast_decode", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
