"""Closed-loop driver: one client, one item at a time.

An untraced run (``--trace 0``) reports the end-to-end metrics.  Its timed
loop is split over WORKERS fresh processes run one after another; each sets
up, warms up and runs its share of the items, timing a fixed reference pass
between them; throughput and set-up time are reported at the host speed at
which that pass takes ``reference.NOMINAL_S``.  A traced run (``--trace 1``)
runs in one process: it alternates each item untraced and traced, reports the
per-layer metrics from the traced copies and the tracing overhead from the
pairs, and writes every span to ``benchmarks/out/`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy
from chordsim import harness

from . import reference, spans, workloads

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Each process runs at its own speed: on a shared 2-core machine the same
# kernel ran up to 30% apart in fresh processes, while the two halves of one
# process agreed within a few percent.  Spreading a run over three processes
# averages that out, and each process's set-up time is one set-up sample.
WORKERS = 3

END_TO_END = {
    "throughput_per_s": "items/s",
    "success_ratio": "1",
    "loc_err_p50_m": "m",
    "loc_err_p90_m": "m",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Public functions traced as "<module>.<function>", grouped by layer.
TRACED = (
    "harness.simulate_capture", "harness.noisy_channel", "harness.import_snapshots",
    "waveform.synth_multisine", "waveform.backscatter_mix", "waveform.build_packet_baseband",
    "channelizer.channelize", "channelizer.notch_dc", "channelizer.processed_tag_baseband",
    "channelizer.bandlimit_tag", "channelizer.apply_shaping",
    "decoder.decode_pipeline", "decoder.preamble_search", "decoder.track_packet_clock",
    "decoder.pll_track", "decoder.msnr_combine", "decoder.mrc_combine",
    "decoder.viterbi_decode",
    "locator.localize", "locator.basic_hologram", "locator.summation_layer",
    "locator.peak_find_2d", "locator.tof_profile", "locator.identify_direct_path",
    "locator.enhance_direct_path", "locator.combined_carrier_channel",
    "locator.classify_roi",
    "model.synth_channel",
)
# Functions whose self time exceeds 1% of the item time on some workload get
# per-call self-time percentiles.
PERCENTILE_FNS = (
    "harness.simulate_capture", "harness.import_snapshots",
    "waveform.synth_multisine", "waveform.backscatter_mix",
    "channelizer.channelize", "channelizer.notch_dc", "channelizer.processed_tag_baseband",
    "decoder.decode_pipeline", "decoder.preamble_search", "decoder.pll_track",
    "decoder.msnr_combine",
    "locator.basic_hologram", "locator.summation_layer", "locator.peak_find_2d",
)
FAILURE_METRICS = {
    "preamble_search": "decoder.fail.preamble_search",
    "compensate_clock": "decoder.fail.compensate_clock",
    "msnr_combine": "decoder.fail.msnr_combine",
    "viterbi": "decoder.fail.viterbi",
    "crc": "decoder.fail.crc",
    "model_error": "model.fail.model_error",
}
FALLBACKS = {
    "no prior": "locator.fallback.no_prior",
    "no direct path": "locator.fallback.no_direct_path",
    "enhanced estimate inconsistent with raw phases": "locator.fallback.inconsistent",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for fn in TRACED:
        units[f"{fn}.calls"] = "calls/item"
        units[f"{fn}.self_s"] = "s/item"
        if fn in PERCENTILE_FNS:
            units[f"{fn}.self_p50_s"] = "s"
            units[f"{fn}.self_p90_s"] = "s"
    units.update({name: "1/item" for name in FAILURE_METRICS.values()})
    units["decoder.fail.other"] = "1/item"
    units["harness.import_snapshots.records_per_s"] = "records/s"
    units["locator.enhance_attempt_ratio"] = "1"
    units["locator.enhance_useful_ratio"] = "1"
    units.update({name: "1" for name in FALLBACKS.values()})
    units["locator.fallback.other"] = "1"
    units["trace_overhead_ratio"] = "1"
    units["trace.unattributed_ratio"] = "1"
    return units


def item_seconds(wall_s: float, cpu_s: float) -> float:
    """The time an item is charged: the process CPU time it used, or its wall
    time if that is shorter.  For the single-threaded chain this is CPU time,
    which leaves out the time the process waited for a CPU it shares with
    other tenants (preemption, hypervisor steal); should an item ever run on
    several threads at once, its wall time counts, so parallel speed-ups
    still show."""
    return min(wall_s, cpu_s)


@dataclass
class RunStats:
    """Outcomes of the items of one run, in run order.  ``untimed`` holds
    the inputs a slow run did not reach in time, run afterwards so that the
    accuracy metrics and the digest always cover every input."""

    n_inputs: int
    log: list = field(default_factory=list)     # (item index, ItemResult, seconds)
    walls: list = field(default_factory=list)   # wall seconds of each item
    untimed: list = field(default_factory=list)  # (item index, ItemResult)
    reference: list = field(default_factory=list)  # CPU seconds of reference passes

    def add(self, i: int, result: workloads.ItemResult, seconds: float, wall: float):
        self.log.append((i, result, seconds))
        self.walls.append(wall)

    @property
    def latencies(self) -> list[float]:
        """Seconds charged to each item (see ``item_seconds``); in the stats
        combined from the workers, scaled to the nominal host speed."""
        return [seconds for _, _, seconds in self.log]

    @property
    def attempted(self) -> int:
        return len(self.log)

    @property
    def failures(self) -> Counter:
        return Counter(r.failure for _, r, _ in self.log if not r.ok)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def results(self) -> dict:
        """The first result of every input run, by input index."""
        first = {}
        for i, r in self._all():
            first.setdefault(i % self.n_inputs, r)
        return first

    def _all(self):
        return [(i, r) for i, r, _ in self.log] + self.untimed

    @property
    def correct(self) -> bool:
        """No output contradicts the truth and every repeat reproduces the
        first result of its input."""
        first = self.results
        return all(r.failure != "wrong_output" and r.digest == first[i % self.n_inputs].digest
                   for i, r in self._all())

    def digest(self) -> str:
        results = self.results
        lines = "\n".join(f"{k}={results[k].digest}" for k in sorted(results))
        return hashlib.sha256(lines.encode()).hexdigest()[:16]

    def errors_m(self) -> list[float]:
        return [r.error_m for r in self.results.values() if r.error_m is not None]


def _item_indices(seconds: float | None, items: int | None, first: int = 0):
    """first, first + 1, ... until ``seconds`` have passed (at least one
    item), or exactly ``items`` indices."""
    start = time.perf_counter()
    i = first
    while (i - first < items) if items is not None else \
            (i == first or time.perf_counter() - start < seconds):
        yield i
        i += 1


def _timed_item(workload, i: int, stats: RunStats):
    t, c = time.perf_counter(), time.process_time()
    result = workload.run_item(i)
    wall, cpu = time.perf_counter() - t, time.process_time() - c
    stats.add(i, result, item_seconds(wall, cpu), wall)


def run_untraced(workload, seconds: float | None = None, items: int | None = None,
                 first: int = 0, complete_pass: bool = False) -> RunStats:
    """Run items closed-loop from item ``first`` until ``seconds`` have
    passed (or exactly ``items`` items).  With ``complete_pass``, then run
    untimed the inputs of the first pass not yet reached."""
    stats = RunStats(workload.n_items)
    reference_s = 0.0
    for i in _item_indices(seconds, items, first):
        while reference_s <= reference.SHARE * sum(stats.latencies):
            pass_s, spent_s = reference.run()
            stats.reference.append(pass_s)
            reference_s += spent_s
        _timed_item(workload, i, stats)
    for i in range(stats.log[-1][0] + 1, workload.n_items) if complete_pass else ():
        stats.untimed.append((i, workload.run_item(i)))
    return stats


def run_traced(workload, seconds: float | None = None, items: int | None = None):
    """Run every item twice, untraced then traced.  Returns (untraced stats,
    traced stats, recorder)."""
    plain, traced = RunStats(workload.n_items), RunStats(workload.n_items)
    recorder = spans.SpanRecorder()
    for i in _item_indices(seconds, items):
        _timed_item(workload, i, plain)
        recorder.item = i
        with spans.installed(recorder, TRACED):
            _timed_item(workload, i, traced)
    return plain, traced, recorder


def _pct(values, q: float) -> float:
    return harness.nearest_rank_percentile(values, q) if values else 0.0


def throughput(stats: RunStats) -> float:
    """Correct items per second of charged item time."""
    return (stats.attempted - stats.failed) / sum(stats.latencies)


def end_to_end_metrics(stats: RunStats, setup_s: float, peak_rss_mb: float) -> dict:
    errors = stats.errors_m()
    if not errors:
        raise SystemExit("no item produced a position estimate; nothing to report")
    n_ok = stats.attempted - stats.failed
    values = {
        "throughput_per_s": throughput(stats),
        "success_ratio": n_ok / stats.attempted,
        "loc_err_p50_m": _pct(errors, 50),
        "loc_err_p90_m": _pct(errors, 90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(plain: RunStats, traced: RunStats, recorder: spans.SpanRecorder,
                      records_per_import: int = 0) -> dict:
    n = traced.attempted
    self_by_fn = defaultdict(list)
    wall_by_fn = defaultdict(float)
    for span, own in zip(recorder.spans, spans.self_times(recorder.spans)):
        self_by_fn[span.name].append(own)
        wall_by_fn[span.name] += span.end - span.start
    root_s = sum(s.end - s.start for s in recorder.spans if s.parent < 0)
    traced_wall_s = sum(traced.walls)

    values = {}
    for fn in TRACED:
        own = self_by_fn.get(fn, [])
        values[f"{fn}.calls"] = len(own) / n
        values[f"{fn}.self_s"] = sum(own) / n
        if fn in PERCENTILE_FNS:
            values[f"{fn}.self_p50_s"] = _pct(own, 50)
            values[f"{fn}.self_p90_s"] = _pct(own, 90)

    counted = Counter()
    for stage, count in traced.failures.items():
        if stage != "wrong_output":         # reported through ``correct``
            counted[FAILURE_METRICS.get(stage, "decoder.fail.other")] += count
    for name in list(FAILURE_METRICS.values()) + ["decoder.fail.other"]:
        values[name] = counted[name] / n

    imports = len(self_by_fn.get("harness.import_snapshots", []))
    import_s = wall_by_fn.get("harness.import_snapshots", 0.0)
    values["harness.import_snapshots.records_per_s"] = (
        records_per_import * imports / import_s if import_s > 0 else 0.0)

    estimates = [r.estimate for _, r, _ in traced.log if r.estimate is not None]
    localized = len(self_by_fn.get("locator.localize", []))
    summed = len(self_by_fn.get("locator.summation_layer", []))
    applied = sum(e.enhancement_applied for e in estimates)
    values["locator.enhance_attempt_ratio"] = summed / localized if localized else 0.0
    values["locator.enhance_useful_ratio"] = applied / summed if summed else 0.0
    reasons = Counter(FALLBACKS.get(e.fallback, "locator.fallback.other")
                      for e in estimates if e.fallback is not None)
    for name in list(FALLBACKS.values()) + ["locator.fallback.other"]:
        values[name] = reasons[name] / len(estimates) if estimates else 0.0

    values["trace_overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
    values["trace.unattributed_ratio"] = (traced_wall_s - root_s) / traced_wall_s
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_units().items()}


def roi_rates(stats: RunStats) -> dict | None:
    decisions = [{"label": r.roi[0], "classified": r.roi[1]}
                 for r in stats.results.values() if r.roi is not None]
    if {d["label"] for d in decisions} != {"inside", "outside"}:
        return None
    miss, cross = harness.evaluate_roi(decisions)
    return {"roi_miss_ratio": miss, "roi_cross_ratio": cross, "replies": len(decisions)}


def environment() -> dict:
    commit = None
    if (REPO_ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": commit, "platform": platform.platform()}


def _run_workers(args) -> tuple[RunStats, RunStats, list[float], list[float], list[float]]:
    """Split the timed loop over WORKERS fresh processes run one after the
    other, each continuing the item sequence where the previous one stopped.

    Each worker's item and set-up times are scaled to a host that runs the
    reference pass in ``reference.NOMINAL_S``: by the nominal pass time over
    the worker's mean measured one.  A host that slows down for a while slows
    the items and the reference alike, so the scaled times keep what the
    items cost relative to fixed work.  Returns the combined stats with
    scaled and with raw item times, and per worker the mean pass time, the
    raw set-up time and the peak RSS."""
    stats = raw = None
    passes, setups, rss = [], [], []
    first = 0
    for k in range(WORKERS):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
               "--trace", "0", "--worker", "--first-item", str(first)]
        if k == WORKERS - 1:
            cmd.append("--complete-pass")
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if out.returncode != 0:
            raise SystemExit(f"benchmark worker failed:\n{out.stderr}")
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        stats = stats or RunStats(doc["n_inputs"])
        raw = raw or RunStats(doc["n_inputs"])
        passes.append(statistics.fmean(doc["reference"]))
        scale = reference.NOMINAL_S / passes[-1]
        for i, seconds, wall, digest, failure, error_m, roi in doc["items"]:
            result = workloads.ItemResult(digest=digest, failure=failure, error_m=error_m,
                                          roi=tuple(roi) if roi else None)
            stats.add(i, result, seconds * scale, wall)
            raw.add(i, result, seconds, wall)
        for i, digest, failure, error_m, roi in doc["untimed"]:
            stats.untimed.append((i, workloads.ItemResult(
                digest=digest, failure=failure, error_m=error_m,
                roi=tuple(roi) if roi else None)))
        setups.append(doc["setup_s"])
        rss.append(doc["peak_rss_mb"])
        first = stats.log[-1][0] + 1
    return stats, raw, passes, setups, rss


def _worker(args, start: tuple[float, float]) -> int:
    """Set up, warm up and run one share of the timed loop; print the item
    log as JSON."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = workloads.build(args.workload, args.seed, Path(workdir))
        workload.run_item(0)                         # untimed warm-up
        setup_s = item_seconds(time.perf_counter() - start[0], time.process_time() - start[1])
        stats = run_untraced(workload, args.seconds, first=args.first_item,
                             complete_pass=args.complete_pass)
    print(json.dumps({
        "setup_s": setup_s, "n_inputs": stats.n_inputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items": [[i, seconds, wall, r.digest, r.failure, r.error_m, r.roi]
                  for (i, r, seconds), wall in zip(stats.log, stats.walls)],
        "reference": stats.reference,
        "untimed": [[i, r.digest, r.failure, r.error_m, r.roi] for i, r in stats.untimed]}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description="chordsim fixed-seed pipeline benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--first-item", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--complete-pass", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv, start: tuple[float, float]) -> int:
    """``start`` holds the perf_counter and process_time readings taken when
    the process began."""
    args = parse_args(argv)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.worker:
        return _worker(args, start)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": environment()}
    if args.trace:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            workload = workloads.build(args.workload, args.seed, Path(workdir))
            workload.run_item(0)                     # untimed warm-up
            plain, stats, recorder = run_traced(workload, args.seconds)
        metrics = per_layer_metrics(plain, stats, recorder, getattr(workload, "n_records", 0))
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        _write_spans(spans_path, recorder)
        record["spans_file"] = spans_path.name
        # tracing must not change any output
        correct = stats.correct and plain.correct and plain.digest() == stats.digest()
    else:
        stats, raw, passes, setups, rss = _run_workers(args)
        setup_s = statistics.median(s * reference.NOMINAL_S / p for s, p in zip(setups, passes))
        metrics = end_to_end_metrics(stats, setup_s, max(rss))
        record.update(raw_throughput_per_s=throughput(raw), raw_setup_s=statistics.median(setups),
                      worker_reference_pass_s=passes, worker_raw_setup_s=setups)
        correct = stats.correct

    result = {"correct": correct, "attempted": stats.attempted,
              "failed": stats.failed, "metrics": metrics}
    record.update(result=result, digest=stats.digest(), digest_inputs=len(stats.results),
                  untimed_inputs=len(stats.untimed),
                  failures=dict(stats.failures), roi=roi_rates(stats),
                  wall_throughput_per_s=(stats.attempted - stats.failed) / sum(stats.walls),
                  latencies_s=stats.latencies, wall_latencies_s=stats.walls)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"digest {record['digest']} over {record['digest_inputs']} inputs; "
          f"failures {record['failures'] or 'none'}; roi {record['roi']}")
    print(json.dumps(result))
    return 0


def _write_spans(path: Path, recorder: spans.SpanRecorder):
    t0 = recorder.spans[0].start if recorder.spans else 0.0
    doc = {"fields": ["name", "start_s", "end_s", "parent", "item"],
           "spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.item]
                     for s in recorder.spans]}
    path.write_text(json.dumps(doc) + "\n")
