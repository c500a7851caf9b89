"""Simulation, batch evaluation, ROI and snapshot interchange tests."""

import hashlib
import itertools
import json
import math
import re
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len

import chordsim as cs
from chordsim import channelizer as chz
from chordsim import harness
from chordsim import locator as loc
from chordsim import waveform as wf
from chordsim.decoder import decode_pipeline
from chordsim.harness import (BatchConfig, SceneSpec, SnapshotRecord,
                              bits_to_hex, channel_to_snapshots, evaluate_roi,
                              export_snapshots, gate_corpus,
                              import_snapshots, nearest_rank_percentile,
                              multipath_tag, random_epc, run_batch, simulate_capture,
                              single_path_tag)
from chordsim.model import ModelError, Scene, default_array_geometry, default_carrier_plan


@pytest.fixture(scope="module")
def plan():
    return default_carrier_plan()


@pytest.fixture(scope="module")
def geom():
    return default_array_geometry()


@pytest.fixture(scope="module")
def grid():
    return loc.GridSpec()


def test_clean_capture_decodes_exactly(plan, geom):
    rng = np.random.default_rng(0)
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(rng))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=30.0)
    caps, pkt, h = simulate_capture(spec, plan, geom, seed=1)
    banks = [chz.channelize(c, plan) for c in caps]
    packet = decode_pipeline(banks, plan, geom)
    assert packet.crc_ok
    assert packet.epc_bits == tag.epc_bits
    err = np.abs(np.angle(packet.channel.h * np.conj(h.h)))
    assert np.max(err) < 0.05


def test_low_snr_decode_mostly_fails(plan, geom):
    # the 8-antenna x 16-carrier diversity is worth ~21 dB, so the decode
    # waterfall sits near -15 dB per channel; -18 dB breaks most packets
    rng = np.random.default_rng(1)
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(rng))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=-18.0)
    failures = 0
    for seed in range(6):
        banks, pkt, _ = simulate_capture(spec, plan, geom, seed=seed, fast_path=True)
        try:
            packet = decode_pipeline(banks, plan, geom)
            ok = packet.crc_ok and packet.epc_bits == tag.epc_bits
        except Exception:
            ok = False
        failures += not ok
    assert failures / 6 > 0.5


def test_decode_holds_above_the_waterfall(plan, geom):
    # 4 dB above the fast path's waterfall (half the packets decode near
    # -14 dB); sync must keep the preamble correlation's processing gain here
    rng = np.random.default_rng(1)
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(rng))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=-10.0)
    for seed in range(1000, 1004):
        banks, pkt, _ = simulate_capture(spec, plan, geom, seed=seed, fast_path=True)
        packet = decode_pipeline(banks, plan, geom)
        assert packet.crc_ok and packet.epc_bits == tag.epc_bits
        assert packet.rn16_bits == pkt.rn16_bits


def test_fast_path_matches_full_path_channel(plan, geom):
    rng = np.random.default_rng(2)
    tag = multipath_tag((0.4, 3.0, 1.11), random_epc(rng), (1.2, 4.0, 1.11), 0.5)
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=28.0, t0_s=1.0e-3)
    caps, _, _ = simulate_capture(spec, plan, geom, seed=9)
    full_banks = [chz.channelize(c, plan) for c in caps]
    fast_banks, _, _ = simulate_capture(spec, plan, geom, seed=9, fast_path=True)
    pkt_full = decode_pipeline(full_banks, plan, geom)
    pkt_fast = decode_pipeline(fast_banks, plan, geom)
    assert pkt_full.epc_bits == pkt_fast.epc_bits
    err = np.sum(np.abs(pkt_full.channel.h - pkt_fast.channel.h) ** 2)
    ref = np.sum(np.abs(pkt_full.channel.h) ** 2)
    assert 10 * math.log10(err / ref) < -40.0


def test_banks_come_out_at_fft_fast_lengths(plan, geom):
    one = cs.model.subset_geometry(geom, 1)
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(np.random.default_rng(4)))
    spec = SceneSpec(scene=Scene(tags=(tag,)), t0_s=1.0e-3)
    d = plan.decimation
    caps, pkt, _ = simulate_capture(spec, plan, one, seed=4)
    duration = 1.0e-3 + wf.packet_layout(96).total_s * harness.CLOCK_STRETCH_MARGIN + 0.3e-3
    n_bank = next_fast_len(-(-int(round(duration * plan.capture_rate_hz)) // d))
    assert caps[0].samples.size == d * n_bank
    assert chz.channelize(caps[0], plan).n_samples == n_bank
    fast_banks, pkt, _ = simulate_capture(spec, plan, one, seed=4, fast_path=True)
    n_wave = wf.build_packet_baseband(pkt, plan.capture_rate_hz).samples.size
    assert fast_banks[0].n_samples == next_fast_len(-(-n_wave // d))


@pytest.mark.parametrize("alpha0, drift", [(0.10, 0.025), (-0.10, 0.0)])
def test_fast_path_padding_keeps_the_tag_baseband(plan, geom, alpha0, drift):
    # the slowest clock leaves the shortest run of zeros after the packet
    one = cs.model.subset_geometry(geom, 1)
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(np.random.default_rng(4)))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=300.0, leak_db=None,
                     alpha0_frac=alpha0, drift_frac=drift)
    banks, pkt, h = simulate_capture(spec, plan, one, seed=0, fast_path=True)
    ref = chz.processed_tag_baseband(wf.build_packet_baseband(pkt, plan.capture_rate_hz),
                                     plan).samples
    got = banks[0].streams
    assert banks[0].n_samples > ref.size
    # the fast path's banks are born notched, so the reference is notched too
    ref = np.pad(np.outer(h.h[0], ref), ((0, 0), (0, got.shape[1] - ref.size)))
    ref = chz.notch_dc(replace(banks[0], streams=ref, notched=False)).streams
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(got))


def _fast_banks(plan, geom, leak_db):
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(np.random.default_rng(4)))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=10.0, leak_db=leak_db)
    return simulate_capture(spec, plan, geom, seed=3, fast_path=True)[0]


def test_fast_path_banks_are_born_notched(plan, geom):
    banks = _fast_banks(plan, geom, leak_db=20.0)
    for bank in banks:
        assert bank.notched
        assert chz.notch_dc(bank) is bank
        # notching again changes nothing beyond rounding
        again = chz.notch_dc(replace(bank, notched=False))
        assert again.notched
        assert np.max(np.abs(again.streams - bank.streams)) <= \
            1e-12 * np.max(np.abs(bank.streams))


def test_fast_path_banks_hold_no_leak(plan, geom):
    # the leak is DC in every channel, and the notch removes it exactly
    for leaky, clean in zip(_fast_banks(plan, geom, 20.0), _fast_banks(plan, geom, None)):
        assert np.max(np.abs(leaky.streams - clean.streams)) <= \
            1e-12 * np.max(np.abs(clean.streams))


def test_run_batch_noiseless_bound(plan, geom, grid):
    rng = np.random.default_rng(3)
    scenes = []
    for _ in range(10):
        pos = (float(rng.uniform(-1.2, 1.2)), float(rng.uniform(1.0, 5.5)), 1.11)
        scenes.append(SceneSpec(scene=Scene(tags=(single_path_tag(pos, random_epc(rng)),)),
                                snr_db=80.0))
    cfg = BatchConfig(plan=plan, geom=geom, grid=grid, seed=5)
    rep = run_batch(scenes, cfg)
    assert rep.n_failed == 0
    assert rep.p99_m <= grid.cell_m * math.sqrt(2)


@pytest.mark.parametrize("subset", [{"antenna_idx": [0, 1, 2, 3]},
                                    {"antenna_idx": [5, 4, 3, 2]},
                                    {"carrier_idx": range(7, -1, -1)},
                                    {"carrier_idx": [9, 3, 12, 0]}])
def test_run_batch_subsets_take_the_entries_they_name(plan, geom, grid, subset):
    # the geometry or plan and the channel rows or columns follow one index
    # list, in whatever order it comes
    rng = np.random.default_rng(1)
    scenes = [SceneSpec(scene=Scene(tags=(single_path_tag(
        (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(1.5, 4.5)), 1.11),
        random_epc(rng)),)), snr_db=60.0) for _ in range(4)]
    cfg = BatchConfig(plan=plan, geom=geom, grid=grid, seed=1)
    rep = run_batch(scenes, cfg, **subset)
    ascending = run_batch(scenes, cfg, **{k: sorted(v) for k, v in subset.items()})
    assert rep.n_failed == 0
    assert rep.p99_m <= grid.cell_m * math.sqrt(2)
    assert [r.error_m for r in rep.results] == [r.error_m for r in ascending.results]


@pytest.mark.parametrize("subset", [{"antenna_idx": [9]}, {"carrier_idx": [16]},
                                    {"antenna_idx": [-1, 0]}, {"antenna_idx": [1, 1]}],
                         ids=["antenna_past_the_end", "carrier_past_the_end",
                              "negative_antenna", "repeated_antenna"])
def test_run_batch_rejects_indices_that_are_no_subset(plan, geom, grid, subset):
    # unchecked, a negative index takes an antenna from the end and a repeated
    # one counts its antenna twice, and both localize without an error
    scenes = [SceneSpec(scene=Scene(tags=(single_path_tag((0.1, 2.2, 1.11), (0, 1) * 48),)),
                        snr_db=60.0)]
    with pytest.raises(ModelError, match=next(iter(subset))):
        run_batch(scenes, BatchConfig(plan=plan, geom=geom, grid=grid), **subset)


@pytest.mark.parametrize("mode", ["Channel", "fast", ""])
def test_batch_config_refuses_an_unknown_mode(plan, geom, grid, mode):
    # any mode but "channel" had run the waveform path
    with pytest.raises(ModelError, match=f"batch mode {mode!r} is not"):
        BatchConfig(plan=plan, geom=geom, grid=grid, mode=mode)


def test_run_batch_empty_rejected(plan, geom, grid):
    with pytest.raises(ModelError):
        run_batch([], BatchConfig(plan=plan, geom=geom, grid=grid))


def test_run_batch_deterministic(plan, geom, grid):
    corpus = harness.desk_multipath_corpus(n_scenes=4, seed=12)
    cfg = BatchConfig(plan=plan, geom=geom, grid=grid,
                      prior=loc.PriorROI(path_bounds_m=(1.5, 14.0)), seed=6)
    a = run_batch(corpus, cfg)
    b = run_batch(corpus, cfg)
    assert [r.error_m for r in a.results] == [r.error_m for r in b.results]
    assert a.p99_m == b.p99_m


def test_run_batch_records_the_failure_stage(plan, geom, grid):
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(np.random.default_rng(25)))
    scenes = [SceneSpec(scene=Scene(tags=(tag,)), snr_db=snr) for snr in (20.0, -20.0)]
    rep = run_batch(scenes, BatchConfig(plan=plan, geom=geom, grid=grid, mode="waveform",
                                        seed=7))
    good, bad = rep.results
    assert good.decoded and good.failure_stage is None
    assert not bad.decoded and bad.error_m is None
    assert bad.failure_stage in {"preamble_search", "compensate_clock", "msnr_combine",
                                 "viterbi"}
    assert rep.n_failed == 1


@pytest.mark.parametrize("wall_step, cpu_step", [(3, 1), (1, 3)])
def test_run_batch_charges_failed_decodes_to_busy_time(plan, geom, grid, monkeypatch,
                                                       wall_step, cpu_step):
    # each read of a clock advances it by its step, and an item is charged the
    # shorter of its wall and CPU times, so each timed item costs 1 s
    for clock, step in (("perf_counter", wall_step), ("process_time", cpu_step)):
        ticks = itertools.count(0, step)
        monkeypatch.setattr(harness.time, clock, lambda ticks=ticks: float(next(ticks)))
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(np.random.default_rng(25)))
    scenes = [SceneSpec(scene=Scene(tags=(tag,)), snr_db=snr) for snr in (20.0, -40.0)]
    rep = run_batch(scenes, BatchConfig(plan=plan, geom=geom, grid=grid, mode="waveform",
                                        seed=10))
    assert [r.failure_stage for r in rep.results] == [None, "preamble_search"]
    assert rep.throughput_pps == 0.5


def test_run_batch_does_not_localize_a_failed_crc(plan, geom, grid):
    # fast path near the decode waterfall: some packets decode with a bad CRC
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(np.random.default_rng(1)))
    scenes = [SceneSpec(scene=Scene(tags=(tag,)), snr_db=-16.0)] * 4
    rep = run_batch(scenes, BatchConfig(plan=plan, geom=geom, grid=grid, mode="waveform",
                                        seed=2))
    bad_crc = [r for r in rep.results if r.crc_ok is False]
    assert bad_crc
    for r in bad_crc:
        assert r.decoded and r.failure_stage == "crc"
        assert r.estimate is None and r.error_m is None
    assert rep.n_failed == sum(r.failure_stage is not None for r in rep.results)


def test_ablation_unknown_axis(plan, geom, grid):
    corpus = harness.desk_multipath_corpus(n_scenes=2, seed=1)
    cfg = BatchConfig(plan=plan, geom=geom, grid=grid)
    with pytest.raises(ModelError):
        harness.ablation_sweep(corpus, "power", cfg)


def test_bandwidth_subsets_contiguous_from_low_edge(plan):
    counts = [len(harness.bandwidth_carrier_indices(plan, bw))
              for bw in harness.BANDWIDTH_SETTINGS_HZ]
    assert counts == [5, 10, 11, 16]
    idx = harness.bandwidth_carrier_indices(plan, 50e6)
    assert idx == list(range(5))


def test_sweep_csv_format(tmp_path):
    rows = [{"setting": "50MHz", "p50_m": 0.1, "p90_m": 0.2, "p99_m": 0.4}]
    path = tmp_path / "sweep.csv"
    harness.sweep_rows_to_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == "setting,p50_m,p90_m,p99_m"
    assert text[1].startswith("50MHz,0.1")


def test_percentile_nearest_rank():
    vals = list(range(1, 51))
    assert nearest_rank_percentile(vals, 50) == 25
    assert nearest_rank_percentile(vals, 99) == 50  # fewer than 100 -> max
    assert nearest_rank_percentile([3.0], 99) == 3.0
    with pytest.raises(ModelError):
        nearest_rank_percentile([], 50)
    ranks = [nearest_rank_percentile(vals, p) for p in (50, 90, 99)]
    assert ranks == sorted(ranks)


# --- ROI evaluation ----------------------------------------------------------

def test_evaluate_roi_all_inside_correct():
    decisions = [{"label": "inside", "classified": "inside"} for _ in range(20)]
    decisions += [{"label": "outside", "classified": "outside"} for _ in range(20)]
    miss, cross = evaluate_roi(decisions)
    assert miss == 0.0 and cross == 0.0


def test_evaluate_roi_one_cross_percent():
    decisions = [{"label": "inside", "classified": "inside"} for _ in range(10)]
    decisions += [{"label": "outside", "classified": "outside"} for _ in range(99)]
    decisions += [{"label": "outside", "classified": "inside"}]
    miss, cross = evaluate_roi(decisions)
    assert miss == 0.0
    assert cross == pytest.approx(0.01)


def test_evaluate_roi_undecoded_counts_missed():
    decisions = [{"label": "inside", "classified": None},
                 {"label": "inside", "classified": "inside"},
                 {"label": "outside", "classified": "outside"}]
    miss, cross = evaluate_roi(decisions)
    assert miss == pytest.approx(0.5)


def test_evaluate_roi_label_validation():
    with pytest.raises(ModelError):
        evaluate_roi([{"label": "nowhere", "classified": "inside"}])


# --- snapshots ---------------------------------------------------------------

def test_hex_round_trip():
    assert bits_to_hex((1, 0, 1, 0, 1, 1, 1, 1)) == "af"
    assert bits_to_hex((0, 0, 0, 0) * 3 + (0, 0, 0, 1)) == "0001"


def test_snapshot_export_import_bit_identical(tmp_path, plan, geom):
    rng = np.random.default_rng(5)
    tag = single_path_tag((0.2, 3.1, 1.11), random_epc(rng))
    h = cs.synth_channel(Scene(tags=(tag,)), geom, plan, 0)
    h = harness.noisy_channel(h, 25.0, rng)
    records = channel_to_snapshots(h, tag.epc_bits, 12.5)
    path = tmp_path / "snap.jsonl"
    export_snapshots(records, path)
    text_before = path.read_text()
    parsed = [harness.parse_snapshot_line(l) for l in text_before.splitlines()]
    assert parsed == records
    export_snapshots(parsed, tmp_path / "snap2.jsonl")
    assert (tmp_path / "snap2.jsonl").read_text() == text_before

    groups = import_snapshots(path, geom, plan)
    assert len(groups) == 1
    epc, ts, ch = groups[0]
    assert epc == bits_to_hex(tag.epc_bits)
    assert np.allclose(ch.h, h.h)
    assert np.all(ch.mask)


def test_snapshot_missing_carrier_masked(tmp_path, plan, geom):
    rng = np.random.default_rng(6)
    tag = single_path_tag((0.2, 3.1, 1.11), random_epc(rng))
    h = cs.synth_channel(Scene(tags=(tag,)), geom, plan, 0)
    records = channel_to_snapshots(h, tag.epc_bits, 0.0)
    dropped = [r for r in records if not (r.antenna_id == 2 and r.carrier_hz == plan.carriers_hz[7])]
    path = tmp_path / "partial.jsonl"
    export_snapshots(dropped, path)
    _, _, ch = import_snapshots(path, geom, plan)[0]
    assert not ch.mask[2, 7]
    assert ch.mask.sum() == 8 * 16 - 1


def test_snapshot_grouping_matches_brute_force(tmp_path, plan, geom):
    # interleaved EPCs; "a" repeats within the window (one reply) and twice
    # beyond it (two more replies), the last one just past the window edge
    window_s = harness.SNAPSHOT_WINDOW_S
    assert window_s == 10e-3
    rng = np.random.default_rng(8)
    replies = [("a", 0.000), ("b", 0.002), ("c", 0.004), ("a", 0.006),
               ("a", 0.030), ("b", 0.031), ("c", 0.035), ("a", 0.0405)]
    records = []
    for epc, ts in replies:
        for _ in range(6):
            v = complex(*rng.normal(size=2))
            records.append(SnapshotRecord(
                epc=epc, timestamp_s=ts, antenna_id=int(rng.integers(8)),
                carrier_hz=plan.carriers_hz[int(rng.integers(16))],
                phase_rad=float(np.angle(v)), rssi_db=20 * math.log10(abs(v)),
                re=v.real, im=v.imag))
    rng.shuffle(records)
    path = tmp_path / "interleaved.jsonl"
    export_snapshots(records, path)

    expected = []       # the linear scan over every group
    for rec in sorted(records, key=lambda r: (r.timestamp_s, r.epc, r.antenna_id,
                                              r.carrier_hz)):
        for g in expected:
            if g[0] == rec.epc and abs(rec.timestamp_s - g[1]) <= window_s:
                g[2].append(rec)
                break
        else:
            expected.append((rec.epc, rec.timestamp_s, [rec]))
    got = import_snapshots(path, geom, plan)
    assert [(epc, ts) for epc, ts, _ in got] == [(epc, ts) for epc, ts, _ in expected]
    assert [epc for epc, _, _ in got] == ["a", "b", "c", "a", "b", "c", "a"]
    for (_, _, ch), (_, _, recs) in zip(got, expected):
        h = np.zeros(ch.shape, dtype=complex)
        for rec in recs:
            h[rec.antenna_id, plan.carriers_hz.index(rec.carrier_hz)] = rec.re + 1j * rec.im
        assert np.array_equal(ch.h, h)
        assert np.array_equal(ch.mask, h != 0)


_DROP = object()


@pytest.mark.parametrize("change, match", [
    pytest.param({"rssi_db": _DROP}, "line 2: 'rssi_db'", id="missing_field"),
    pytest.param({"im": _DROP}, "line 2: re and im", id="re_without_im"),
    pytest.param({"re": _DROP}, "line 2: re and im", id="im_without_re"),
    pytest.param({"re": _DROP, "im": _DROP, "rssi_db": math.nan}, "line 2: .* finite",
                 id="nan_rssi"),
    pytest.param({"rssi_db": math.nan}, "line 2: .* finite", id="nan_rssi_with_re_im"),
    pytest.param({"re": math.inf}, "line 2: .* finite", id="inf_re"),
])
def test_snapshot_malformed_line_number(tmp_path, plan, geom, change, match):
    good = json.loads(SnapshotRecord(epc="ab", timestamp_s=0.0, antenna_id=0,
                                     carrier_hz=plan.carriers_hz[0], phase_rad=0.0,
                                     rssi_db=-40.0, re=0.01, im=0.0).to_json())
    bad = {k: v for k, v in {**good, **change}.items() if v is not _DROP}
    path = tmp_path / "bad.jsonl"
    path.write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\nnot json\n")
    with pytest.raises(ModelError, match=match):
        import_snapshots(path, geom, plan)


def test_snapshot_numeric_epc_raises_with_line(tmp_path, plan, geom):
    line = json.loads(SnapshotRecord(epc="aa", timestamp_s=0.0, antenna_id=0,
                                     carrier_hz=plan.carriers_hz[0], phase_rad=0.0,
                                     rssi_db=-40.0).to_json())
    path = tmp_path / "epc.jsonl"
    path.write_text(f"{json.dumps(line)}\n{json.dumps({**line, 'epc': 5})}\n")
    with pytest.raises(ModelError, match="^line 2: epc must be a string"):
        import_snapshots(path, geom, plan)


def _good_snapshot(plan) -> dict:
    return json.loads(SnapshotRecord(epc="ab", timestamp_s=0.0, antenna_id=0,
                                     carrier_hz=plan.carriers_hz[0], phase_rad=0.0,
                                     rssi_db=-40.0, re=0.01, im=0.0).to_json())


def _reference_import(path, plan, geom):
    """import_snapshots by brute force: each line through SnapshotRecord, each
    record in sorted order joining the first reply of its EPC within the
    window; a later record of a cell overwrites it."""
    recs = [harness.parse_snapshot_line(line) for line in path.read_text().splitlines()
            if line.strip()]
    shape = (geom.n_antennas, plan.n_carriers)
    replies = []
    for rec in sorted(recs, key=lambda r: (r.timestamp_s, r.epc, r.antenna_id, r.carrier_hz)):
        for reply in replies:
            if reply[0] == rec.epc and abs(rec.timestamp_s - reply[1]) <= harness.SNAPSHOT_WINDOW_S:
                break
        else:
            reply = (rec.epc, rec.timestamp_s, np.zeros(shape, dtype=complex),
                     np.zeros(shape, dtype=bool), np.full(shape, -np.inf))
            replies.append(reply)
        k, l = rec.antenna_id, plan.carriers_hz.index(rec.carrier_hz)
        if rec.re is not None:
            reply[2][k, l] = rec.re + 1j * rec.im
        else:
            reply[2][k, l] = 10 ** (rec.rssi_db / 20) * np.exp(1j * rec.phase_rad)
        reply[3][k, l] = True
        reply[4][k, l] = rec.rssi_db
    return replies


# 0.01 - 0.0 is exactly the window (joins); 0.04 - 0.03 rounds just above it
_EDGE_TIMES_S = (0.0, 0.004, 0.01, 0.0105, 0.03, 0.04, 0.05)


@st.composite
def _snapshot_text(draw, plan):
    """Snapshot lines of interleaved EPCs with repeated (antenna, carrier)
    cells, blank lines, JSON ints among the floats, and re and im on all,
    none or some of the lines."""
    shape = draw(st.sampled_from(["re_im", "rssi", "mixed"]))
    number = st.floats(-1e3, 1e3) | st.integers(-1000, 1000)
    lines = []
    for _ in range(draw(st.integers(1, 30))):
        doc = {"epc": draw(st.sampled_from(["a0", "b1", "c2"])),
               "timestamp_s": draw(st.sampled_from(_EDGE_TIMES_S)),
               "antenna_id": draw(st.integers(0, 2)),
               "carrier_hz": plan.carriers_hz[draw(st.sampled_from([0, 1, 15]))],
               "phase_rad": draw(st.floats(-math.pi, math.pi, exclude_min=True) | st.just(0)),
               "rssi_db": draw(st.floats(-120, 40) | st.integers(-120, 40))}
        if shape == "re_im" or shape == "mixed" and draw(st.booleans()):
            doc["re"], doc["im"] = draw(number), draw(number)
        lines += [""] * draw(st.integers(0, 1)) + [json.dumps(doc)]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), chunk_lines=st.integers(1, 7))
def test_columnar_import_matches_the_per_line_reference(tmp_path_factory, plan, geom, data,
                                                       chunk_lines):
    path = tmp_path_factory.mktemp("columns") / "snap.jsonl"
    path.write_text(data.draw(_snapshot_text(plan)))
    with mock.patch.object(harness, "_PARSE_CHUNK_LINES", chunk_lines):
        got = import_snapshots(path, geom, plan)
    expected = _reference_import(path, plan, geom)
    assert [(epc, ts) for epc, ts, _ in got] == [(epc, ts) for epc, ts, *_ in expected]
    for (_, _, ch), (_, _, h, mask, quality) in zip(got, expected):
        # bit-equal, signed zeros included
        assert ch.h.tobytes() == h.tobytes()
        assert np.array_equal(ch.mask, mask)
        assert ch.quality.tobytes() == quality.tobytes()


def test_valid_snapshot_files_import_by_whole_columns(tmp_path, plan, geom, monkeypatch):
    # valid files never reach the per-line reading, across chunks and blank
    # lines, with re and im, without, or mixed
    def no_line_reading(*args):
        raise AssertionError("a valid chunk was read line by line")

    rng = np.random.default_rng(9)
    tag = single_path_tag((0.2, 3.1, 1.11), random_epc(rng))
    h = harness.noisy_channel(cs.synth_channel(Scene(tags=(tag,)), geom, plan, 0), 25.0, rng)
    records = channel_to_snapshots(h, tag.epc_bits, 0.5)
    path = tmp_path / "valid.jsonl"
    for recs in (records, [replace(r, re=None, im=None) for r in records],
                 [replace(r, re=None, im=None) if r.antenna_id % 2 else r for r in records]):
        export_snapshots(recs, path)
        path.write_text("\n" + path.read_text().replace("}\n", "}\n\n", 3))
        expected = _reference_import(path, plan, geom)
        with monkeypatch.context() as m:
            m.setattr(harness, "parse_snapshot_line", no_line_reading)
            m.setattr(harness, "_PARSE_CHUNK_LINES", 5)
            (epc, ts, ch), = import_snapshots(path, geom, plan)
        assert (epc, ts) == expected[0][:2] == (bits_to_hex(tag.epc_bits), 0.5)
        assert ch.h.tobytes() == expected[0][2].tobytes()
        assert ch.mask.all()


@pytest.mark.parametrize("change, message", [
    ({"re": True}, "re must be a JSON number, not bool"),
    ({"rssi_db": math.nan}, "every number must be finite"),
    ({"antenna_id": 9}, "antenna 9 not in the 8-antenna geometry"),
], ids=["bool_re", "nan_rssi", "antenna_outside"])
def test_snapshot_error_names_the_first_bad_line_across_a_chunk_boundary(tmp_path, plan, geom,
                                                                         change, message):
    # the last line of the first parse chunk is malformed, the next is no JSON
    good = json.dumps(_good_snapshot(plan))
    n = harness._PARSE_CHUNK_LINES
    bad = json.dumps({**_good_snapshot(plan), **change})
    path = tmp_path / "boundary.jsonl"
    path.write_text("\n".join(["", *[good] * (n - 1), bad, "not json", good]) + "\n")
    with pytest.raises(ModelError, match=f"^line {n + 1}: {re.escape(message)}$"):
        import_snapshots(path, geom, plan)


_NUMBER_FIELDS = ("timestamp_s", "carrier_hz", "phase_rad", "rssi_db", "re", "im")


@pytest.mark.parametrize("change, message", [
    ({"im": _DROP}, "re and im must be given together"),
    ({"re": _DROP}, "re and im must be given together"),
    ({"epc": _DROP}, "'epc'"),
    ({"epc": 5}, "epc must be a string"),
    ({"antenna_id": 1.0}, "antenna 1.0 is not an integer"),
    ({"antenna_id": 8}, "antenna 8 not in the 8-antenna geometry"),
    ({"carrier_hz": 1.0}, "carrier 1.0 not in the plan"),
    ({"phase_rad": 3.5}, "phase must lie in (-pi, pi]"),
    ({"phase_rad": math.nan}, "phase must lie in (-pi, pi]"),
    ({"rssi_db": -math.inf}, "every number must be finite"),
    ({"timestamp_s": 10 ** 400}, "int too large to convert to float"),
    # the JSON-number rule; a null re or im is an absent one
    *(({field: value}, f"{field} must be a JSON number, not {type(value).__name__}")
      for field in _NUMBER_FIELDS for value in (True, "0.5", None)
      if value is not None or field not in ("re", "im")),
])
def test_snapshot_fault_alone_raises_the_per_line_message(tmp_path, plan, geom, change,
                                                          message):
    # the only fault in the file, so the whole-column checks must catch it
    good = _good_snapshot(plan)
    bad = {k: v for k, v in {**good, **change}.items() if v is not _DROP}
    path = tmp_path / "alone.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in (good, bad, good)))
    with pytest.raises(ModelError, match=f"^line 2: {re.escape(message)}$"):
        import_snapshots(path, geom, plan)


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n\n"], ids=["empty", "newline", "blank"])
def test_snapshot_file_without_records_imports_no_reply(tmp_path, plan, geom, text):
    path = tmp_path / "empty.jsonl"
    path.write_text(text)
    assert import_snapshots(path, geom, plan) == []


def test_snapshot_fault_on_the_last_line_without_a_newline(tmp_path, plan, geom):
    good = json.dumps(_good_snapshot(plan))
    bad = json.dumps({**_good_snapshot(plan), "carrier_hz": 900e6})
    path = tmp_path / "last.jsonl"
    path.write_text("\n".join([good] * 5 + [bad]))
    with pytest.raises(ModelError, match=r"^line 6: carrier 900000000.0 not in the plan$"):
        import_snapshots(path, geom, plan)


def _split_lines(good: str, how: str) -> tuple[str, str]:
    """Two lines that are no JSON value alone, though joined by a comma they
    parse as two snapshot objects."""
    if how == "string":
        i = good.index('"ab"') + 2
        return good[:i], good[i:] + ", " + good
    return good[:-1] + ', "x": [{}', "{}]}, " + good


@pytest.mark.parametrize("how", ["string", "array"])
def test_snapshot_line_that_is_no_json_value_alone_raises(tmp_path, plan, geom, how):
    first, second = _split_lines(json.dumps(_good_snapshot(plan)), how)
    assert len(json.loads(f"[{first},{second}]")) == 2
    path = tmp_path / "split.jsonl"
    path.write_text(f"{first}\n{second}\n")
    with pytest.raises(ModelError, match="^line 1: "):
        import_snapshots(path, geom, plan)


@pytest.mark.parametrize("field", _NUMBER_FIELDS)
def test_snapshot_record_rejects_a_number_that_is_not_a_json_number(plan, field):
    # so export_snapshots cannot write a line that import_snapshots refuses
    fields = dict(epc="ab", timestamp_s=0.0, antenna_id=0, carrier_hz=plan.carriers_hz[0],
                  phase_rad=0.0, rssi_db=-40.0, re=1, im=0)
    with pytest.raises(ModelError, match=f"^{field} must be a JSON number, not bool$"):
        SnapshotRecord(**{**fields, field: True})


def test_replay_equivalence(tmp_path, plan, geom, grid):
    # localizing from exported snapshots equals the in-memory run
    rng = np.random.default_rng(7)
    tag = multipath_tag((0.5, 2.8, 1.11), random_epc(rng), (1.4, 3.8, 1.11), 0.5)
    h = harness.noisy_channel(cs.synth_channel(Scene(tags=(tag,)), geom, plan, 0), 22.0, rng)
    prior = loc.PriorROI(path_bounds_m=(1.5, 14.0))
    direct = loc.localize(h, grid, geom, plan, prior)
    path = tmp_path / "replay.jsonl"
    export_snapshots(channel_to_snapshots(h, tag.epc_bits, 1.0), path)
    _, _, ch = import_snapshots(path, geom, plan)[0]
    # quality round-trips through rssi, not identically; reuse imported values
    replayed = loc.localize(
        cs.ChannelMatrix(h=ch.h, carriers_hz=ch.carriers_hz, geometry=geom,
                         quality=h.quality, mask=ch.mask),
        grid, geom, plan, prior)
    assert replayed.position_m == direct.position_m


def test_packet_record_round_trip(plan, geom, grid):
    rng = np.random.default_rng(8)
    tag = single_path_tag((0.1, 2.2, 1.11), random_epc(rng))
    h = harness.noisy_channel(cs.synth_channel(Scene(tags=(tag,)), geom, plan, 0), 30.0, rng)
    rec = harness.packet_record(tag.epc_bits, 1e-3, 5.0, True, h)
    doc = json.loads(json.dumps(rec))
    back = harness.record_to_channel(doc, geom, plan)
    assert np.allclose(back.h, h.h, atol=1e-12)
    assert back.mask.all()
    # entries missing from a record are masked, not scored as h = 0
    dropped = set(rng.choice(len(doc["channels"]), size=20, replace=False).tolist())
    doc["channels"] = [c for i, c in enumerate(doc["channels"]) if i not in dropped]
    part = harness.record_to_channel(doc, geom, plan)
    mask = np.ones(h.shape, dtype=bool)
    mask.flat[list(dropped)] = False
    assert np.array_equal(part.mask, mask)
    masked = cs.ChannelMatrix(h=back.h, carriers_hz=plan.carriers_hz, geometry=geom,
                              mask=mask)
    assert np.array_equal(loc.basic_hologram(part, grid, geom, plan).heatmap,
                          loc.basic_hologram(masked, grid, geom, plan).heatmap)


def _corpus_digest(scenes, labels=None) -> str:
    docs = [{"scene": asdict(spec.scene), "snr_db": spec.snr_db}
            for spec in scenes]
    for doc, label in zip(docs, labels or ()):
        doc["label"] = label
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def test_corpus_builders_are_pinned():
    # the corpora behind c10 and c11 stay byte-identical across refactors
    assert _corpus_digest(harness.desk_multipath_corpus(n_scenes=8, seed=7)) == \
        "8d084317efe940e03b56fc6a27f7b59a7a2fa87ddcac607a16aa7aeba83e4c00"
    assert _corpus_digest(*gate_corpus(n_inside=5, n_outside=7, seed=3)) == \
        "08ce099cc1a20cef7c3e51c9086e9a54c1d2bdd5bbdf0296facd3152462831fc"


def test_gate_corpus_labels():
    scenes, labels = gate_corpus(n_inside=5, n_outside=7, seed=3)
    assert len(scenes) == 12
    assert labels.count("inside") == 5 and labels.count("outside") == 7
    for spec, label in zip(scenes, labels):
        y = spec.scene.tags[0].position_m[1]
        assert (y <= 2.0) if label == "inside" else (y >= 3.0)


# a fractional or boolean id would otherwise be truncated to an antenna; the
# third line is written as raw JSON, as SnapshotRecord refuses the last two
@pytest.mark.parametrize("antenna", [-1, 8, 1.5, True])
def test_snapshot_antenna_outside_geometry_raises_with_line(tmp_path, plan, geom, antenna):
    recs = [SnapshotRecord(epc="ab", timestamp_s=0.0, antenna_id=a,
                           carrier_hz=plan.carriers_hz[0], phase_rad=0.5, rssi_db=-3.0)
            for a in (0, 1)]
    path = tmp_path / "antenna.jsonl"
    export_snapshots(recs, path)
    bad = {**json.loads(recs[0].to_json()), "antenna_id": antenna}
    path.write_text(path.read_text() + json.dumps(bad) + "\n")
    with pytest.raises(ModelError, match=f"line 3: antenna {antenna}"):
        import_snapshots(path, geom, plan)


@pytest.mark.parametrize("antenna", [1.5, True, "2"])
def test_snapshot_record_rejects_a_non_integer_antenna(plan, antenna):
    with pytest.raises(ModelError, match=f"^antenna {antenna!r} is not an integer$"):
        SnapshotRecord(epc="ab", timestamp_s=0.0, antenna_id=antenna,
                       carrier_hz=plan.carriers_hz[0], phase_rad=0.5, rssi_db=-3.0)


@pytest.mark.parametrize("key, value, match", [
    ("carrier_hz", 900.0e6, "channel 5: carrier 900000000.0"),
    ("re", math.nan, "channel 5: .* finite"),
    ("snr_db", math.nan, "channel 5: .* finite"),
    ("re", _DROP, "channel 5: 're'"),
    ("snr_db", "x", "channel 5: "),
    ("antenna", "a", "channel 5: "),
    ("antenna", 2.7, "channel 5: antenna 2.7 is not an integer"),
    ("antenna", True, "channel 5: antenna True is not an integer"),
    ("channels", _DROP, "^record 5{24}: channels must be a list"),
    ("channels", 5, "^record 5{24}: channels must be a list"),
    ("channels", [5], "channel 0: "),
], ids=["unknown_carrier", "nan_re", "nan_snr_db", "missing_re", "text_snr_db",
        "text_antenna", "fractional_antenna", "bool_antenna", "no_channels",
        "channels_not_a_list", "entry_not_an_object"])
def test_packet_record_unknown_carrier_raises(plan, geom, key, value, match):
    h = cs.synth_channel(Scene(tags=(single_path_tag((0.1, 2.2, 1.11), (0, 1) * 48),)),
                         geom, plan, 0)
    doc = harness.packet_record((0, 1) * 48, 0.0, 0.0, True, h)
    target = doc if key == "channels" else doc["channels"][5]
    if value is _DROP:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ModelError, match=match):
        harness.record_to_channel(doc, geom, plan)


@pytest.mark.parametrize("key, value", [
    ("re", True), ("im", "0.5"), ("snr_db", True), ("carrier_hz", "787100000.0"),
])
def test_packet_record_number_must_be_a_json_number(plan, geom, key, value):
    h = cs.synth_channel(Scene(tags=(single_path_tag((0.1, 2.2, 1.11), (0, 1) * 48),)),
                         geom, plan, 0)
    doc = harness.packet_record((0, 1) * 48, 0.0, 0.0, True, h)
    doc["channels"][5][key] = value
    with pytest.raises(ModelError, match=f"^record 5{{24}} channel 5: {key} must be a JSON "
                                           f"number, not {type(value).__name__}$"):
        harness.record_to_channel(doc, geom, plan)


def _input_error(tmp_path, plan, geom, kind, key, value) -> str:
    """The ModelError message of reading an input of ``kind`` (a bank
    manifest, a wave sidecar, a snapshot line or a packet record) whose
    ``key`` holds ``value``."""
    if kind == "manifest":
        bank = chz.ChannelBank(streams=np.ones((plan.n_carriers, 64), dtype=complex),
                               rate_hz=plan.channel_out_rate_hz, carriers_hz=plan.carriers_hz)
        path = chz.save_bank(bank, tmp_path / "bank")
        read = lambda: chz.load_bank(path)
    elif kind == "sidecar":
        wave = wf.save_wave(wf.BasebandWave(samples=np.ones(16), rate_hz=plan.channel_out_rate_hz),
                            tmp_path / "x.cf32")
        path = tmp_path / "x.json"
        read = lambda: wf.load_wave(wave)
    elif kind == "snapshot":
        path = tmp_path / "snapshots.jsonl"
        path.write_text(json.dumps(_good_snapshot(plan)) + "\n")
        read = lambda: import_snapshots(path, geom, plan)
    else:
        h = cs.synth_channel(Scene(tags=(single_path_tag((0.1, 2.2, 1.11), (0, 1) * 48),)),
                             geom, plan, 0)
        doc = harness.packet_record((0, 1) * 48, 0.0, 0.0, True, h)
        doc["channels"][0][key] = value
        read = lambda: harness.record_to_channel(doc, geom, plan)
    if kind != "record":
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    with pytest.raises(ModelError) as err:
        read()
    return str(err.value)


@pytest.mark.parametrize("value, rule, inputs", [
    (True, "must be a JSON number, not bool",
     [("manifest", "rate_hz"), ("sidecar", "start_s"), ("snapshot", "timestamp_s"),
      ("record", "re")]),
    (1.5, "1.5 is not an integer",
     [("manifest", "antenna_id"), ("snapshot", "antenna_id"), ("record", "antenna")]),
], ids=["number", "integer"])
def test_each_json_input_rule_has_one_message(tmp_path, plan, geom, value, rule, inputs):
    messages = [_input_error(tmp_path, plan, geom, kind, key, value) for kind, key in inputs]
    assert [m for m in messages if not m.endswith(f" {rule}")] == []
