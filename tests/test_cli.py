"""End-to-end command-line interface tests."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

import chordsim as cs
from chordsim import cli, harness, model
from chordsim.locator import GridSpec, PriorROI
from chordsim.waveform import load_wave


def run(args):
    return cli.main([str(a) for a in args])


def test_waveform_excitation(tmp_path):
    out = tmp_path / "exc.cf32"
    assert run(["waveform", "--kind", "excitation", "--duration", "2e-4",
                "--out", out]) == 0
    wave = load_wave(out)
    assert wave.samples.size == int(2e-4 * 15.36e6)


def test_waveform_tag_template(tmp_path):
    out = tmp_path / "tag.cf32"
    assert run(["--seed", "3", "waveform", "--kind", "tag", "--out", out]) == 0
    wave = load_wave(out)
    assert wave.samples.size > 0


def test_simulate_channelize_decode_localize_evaluate(tmp_path):
    # full chain through files: simulate -> decode -> localize -> evaluate
    sim_dir = tmp_path / "sim"
    assert run(["--seed", "5", "simulate", "--snr-db", "22", "--out", sim_dir]) == 0
    manifests = sorted(sim_dir.glob("antenna_*/manifest.json"))
    assert len(manifests) == 8

    packets = tmp_path / "packets.jsonl"
    assert run(["decode", *manifests, "--out", packets]) == 0
    rec = json.loads(packets.read_text().splitlines()[0])
    assert rec["crc_ok"] is True
    assert len(rec["channels"]) == 8 * 16

    cfg = tmp_path / "cfg.json"
    doc = {
        "grid": {"x_extent_m": [-1.6, 1.6], "y_extent_m": [0.5, 6.5],
                 "cell_m": 0.05, "z_m": 1.11},
        "prior": {"path_bounds_m": [1.5, 14.0],
                  "region_xy": [[-1.5, 0.5], [1.5, 0.5], [1.5, 3.6], [-1.5, 3.6]]},
    }
    cfg.write_text(json.dumps(doc))
    results = tmp_path / "results.jsonl"
    assert run(["--config", cfg, "localize", packets, "--out", results,
                "--heatmap-dir", tmp_path / "heat"]) == 0
    res = json.loads(results.read_text().splitlines()[0])
    assert abs(res["x"] - 0.4) < 0.15 and abs(res["y"] - 3.0) < 0.15
    assert res["roi"] == "inside"
    assert (tmp_path / "heat" / "heatmap_0001.f64").exists()

    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({res["epc"]: "inside",
                                  "00" * 12: "outside"}))
    # evaluate needs at least one outside record; append a synthetic one
    with results.open("a") as fh:
        fh.write(json.dumps({"epc": "00" * 12, "x": 0, "y": 9.9,
                             "likelihood": 1.0, "enhancement_applied": False,
                             "roi": "outside"}) + "\n")
    assert run(["evaluate", results, labels]) == 0


def test_decode_with_a_failed_crc_writes_no_record(tmp_path, monkeypatch, capsys):
    geom = model.default_array_geometry()
    carriers = model.default_carrier_plan(desk_scale=True).carriers_hz
    channel = model.ChannelMatrix(h=np.ones((geom.n_antennas, len(carriers))),
                                  carriers_hz=carriers, geometry=geom)
    packet = SimpleNamespace(epc_bits=(0,) * 96, crc_ok=False, channel=channel,
                             sync=SimpleNamespace(t0_hat_s=1e-3, alpha0_hat_hz=0.0))
    monkeypatch.setattr(cli, "load_bank", lambda path: SimpleNamespace(antenna_id=0))
    monkeypatch.setattr(cli, "decode_pipeline", lambda banks, plan, geom: packet)
    packets = tmp_path / "packets.jsonl"
    assert run(["decode", tmp_path / "bank", "--out", packets]) == 1
    assert not packets.exists()
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["stage"] == "crc" and "error" in doc


def test_channelize_command(tmp_path):
    plan = model.default_carrier_plan()
    wave = cs.synth_multisine(cs.MultisineSpec(plan=plan, duration_s=2e-4))
    cap = tmp_path / "cap.cf32"
    cs.waveform.save_wave(wave, cap)
    out = tmp_path / "bank"
    assert run(["channelize", cap, "--notch", "--out", out]) == 0
    bank = cs.channelizer.load_bank(out)
    assert bank.n_channels == 16


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", "--axis", "algorithm", "--scenes", "3", "--out", out]) == 0
    rows = json.loads((out / "sweep_algorithm.json").read_text())
    assert [r["setting"] for r in rows] == ["basic", "enhanced"]
    csv = (out / "sweep_algorithm.csv").read_text().splitlines()
    assert csv[0] == "setting,p50_m,p90_m,p99_m"


def _localize_lines(tmp_path, monkeypatch, lines):
    # localization is not under test here: a call to it fails the test
    def no_localize(*args, **kwargs):
        raise AssertionError("a malformed record reached localize")

    monkeypatch.setattr(cli, "localize", no_localize)
    packets = tmp_path / "packets.jsonl"
    packets.write_text("".join(line + "\n" for line in lines))
    return run(["localize", packets])


def test_localize_names_the_line_that_is_not_json(tmp_path, monkeypatch):
    with pytest.raises(harness.HarnessError, match="^line 2: "):
        _localize_lines(tmp_path, monkeypatch, ["", "{not json"])


def test_localize_rejects_a_record_without_epc_before_localizing(tmp_path, monkeypatch):
    geom = model.default_array_geometry()
    plan = model.default_carrier_plan(desk_scale=True)
    h = cs.synth_channel(model.Scene(tags=(harness.single_path_tag((0.1, 2.2, 1.11),
                                                                   (0, 1) * 48),)),
                         geom, plan, 0)
    doc = harness.packet_record((0, 1) * 48, 0.0, 0.0, True, h)
    del doc["epc"]
    with pytest.raises(harness.HarnessError, match="^line 1: record has no epc"):
        _localize_lines(tmp_path, monkeypatch, [json.dumps(doc)])


@pytest.mark.parametrize("line, message", [
    ("{not json", "Expecting property name"),
    ("[1, 2]", "result has no epc"),
    ('{"roi": "inside"}', "result has no epc"),
    ('{"epc": ["bb"]}', "result has no epc"),
    ('{"epc": "bb", "roi": "outside"}', "EPC bb has no label"),
])
def test_evaluate_names_the_file_and_line_of_a_bad_result(tmp_path, line, message):
    results = tmp_path / "results.jsonl"
    results.write_text('{"epc": "aa", "roi": "inside"}\n\n' + line + "\n")
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"aa": "inside"}))
    prefix = re.escape(f"{results} line 3: ")
    with pytest.raises(harness.HarnessError, match=f"^{prefix}{message}"):
        run(["evaluate", results, labels])
