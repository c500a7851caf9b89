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


def test_waveform_rejects_a_zero_duration(tmp_path):
    with pytest.raises(model.ModelError, match="duration must be positive"):
        run(["waveform", "--kind", "excitation", "--duration", "0",
             "--out", tmp_path / "exc.cf32"])
    assert not (tmp_path / "exc.cf32").exists()


def test_waveform_rejects_a_duration_below_one_sample(tmp_path):
    with pytest.raises(model.ModelError, match="got 1e-09 s"):
        run(["waveform", "--kind", "excitation", "--duration", "1e-9",
             "--out", tmp_path / "exc.cf32"])
    assert not (tmp_path / "exc.cf32").exists()


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
    # the setup simulate wrote gives the same decode as the defaults it holds
    packets_cfg = tmp_path / "packets_cfg.jsonl"
    assert run(["--config", sim_dir / "setup.json", "decode", *manifests,
                "--out", packets_cfg]) == 0
    assert packets_cfg.read_text() == packets.read_text()

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


def _antenna_banks(tmp_path):
    plan = model.default_carrier_plan(desk_scale=True)
    return [cs.channelizer.save_bank(
        cs.channelizer.ChannelBank(streams=np.ones((plan.n_carriers, 64)),
                                   rate_hz=plan.channel_out_rate_hz,
                                   carriers_hz=plan.carriers_hz, antenna_id=k),
        tmp_path / f"antenna_{k}") for k in range(8)]


def _nan_in_channel_file(manifests):
    raw = np.fromfile(manifests[2].parent / "ch_05.cf32", dtype="<f4")
    raw[7] = np.nan
    raw.tofile(manifests[2].parent / "ch_05.cf32")
    return manifests


@pytest.mark.parametrize("banks, message", [
    (lambda m: m[:7] + [m[6]], "bank 7 holds antenna 6"),
    (_nan_in_channel_file, "ch_05.cf32: samples must be finite"),
], ids=["antenna_given_twice", "non_finite_sample"])
def test_decode_reports_a_model_error_as_its_stage(tmp_path, capsys, banks, message):
    packets = tmp_path / "packets.jsonl"
    assert run(["decode", *banks(_antenna_banks(tmp_path)), "--out", packets]) == 1
    assert not packets.exists()
    lines = capsys.readouterr().out.splitlines()
    doc = json.loads(lines[-1])
    assert len(lines) == 1 and doc["stage"] == "model_error" and message in doc["error"]


def test_decode_names_the_manifest_of_a_bank_it_refuses(tmp_path, capsys):
    manifests = _antenna_banks(tmp_path)
    manifests[3].write_text(json.dumps({**json.loads(manifests[3].read_text()),
                                        "start_s": float("nan")}))
    assert run(["decode", *manifests]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {
        "error": f"{manifests[3]}: channel bank needs a positive rate and a finite start_s",
        "stage": "model_error"}


def test_channelize_command(tmp_path):
    plan = model.default_carrier_plan()
    wave = cs.synth_multisine(plan, 2e-4)
    cap = tmp_path / "cap.cf32"
    cs.waveform.save_wave(wave, cap)
    out = tmp_path / "bank"
    assert run(["channelize", cap, "--out", out]) == 0
    bank = cs.channelizer.load_bank(out)
    assert bank.n_channels == 16


def test_channelize_then_decode_needs_no_notch(tmp_path, capsys):
    # channelize writes banks that hold each tone's leak; decode notches them
    plan, geom, _ = cli._load_setup(SimpleNamespace(config=None))
    tag = harness.single_path_tag((0.4, 3.0, 1.11), harness.random_epc(np.random.default_rng(3)))
    spec = harness.SceneSpec(scene=model.Scene(tags=(tag,)), snr_db=20.0, leak_db=20.0)
    captures, _, _ = harness.simulate_capture(spec, plan, geom, seed=6)
    manifests = []
    for cap in captures:
        wave = tmp_path / f"cap_{cap.antenna_id}.cf32"
        cs.waveform.save_wave(cs.waveform.BasebandWave(samples=cap.samples, rate_hz=cap.rate_hz),
                              wave)
        out = tmp_path / f"antenna_{cap.antenna_id}"
        assert run(["channelize", wave, "--antenna", cap.antenna_id, "--out", out]) == 0
        manifests.append(out / "manifest.json")
    capsys.readouterr()
    assert run(["decode", *manifests]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["crc_ok"] is True and rec["epc"] == harness.bits_to_hex(tag.epc_bits)


def test_channelize_command_rejects_a_non_finite_start(tmp_path):
    # the sidecar's start_s had gone through as NaN into an all-NaN bank
    plan = model.default_carrier_plan()
    cap = tmp_path / "cap.cf32"
    cs.waveform.save_wave(cs.synth_multisine(plan, 2e-4), cap)
    meta = json.loads(cap.with_suffix(".json").read_text())
    cap.with_suffix(".json").write_text(json.dumps({**meta, "start_s": float("nan")}))
    with pytest.raises(model.ModelError, match="start_s must be finite"):
        run(["channelize", cap, "--out", tmp_path / "bank"])
    assert not (tmp_path / "bank").exists()


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", "--axis", "algorithm", "--scenes", "3", "--out", out]) == 0
    rows = json.loads((out / "sweep_algorithm.json").read_text())
    assert [r["setting"] for r in rows] == ["basic", "enhanced"]
    csv = (out / "sweep_algorithm.csv").read_text().splitlines()
    assert csv[0] == "setting,p50_m,p90_m,p99_m"


def _localize_lines(tmp_path, monkeypatch, capsys, lines):
    """The error of localize on a file whose only record is malformed: exit
    code 1, no stdout and one JSON line on stderr."""
    # localization is not under test here: a call to it fails the test
    def no_localize(*args, **kwargs):
        raise AssertionError("a malformed record reached localize")

    monkeypatch.setattr(cli, "localize", no_localize)
    packets = tmp_path / "packets.jsonl"
    packets.write_text("".join(line + "\n" for line in lines))
    assert run(["localize", packets]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    return json.loads(err)


def test_localize_names_the_line_that_is_not_json(tmp_path, monkeypatch, capsys):
    doc = _localize_lines(tmp_path, monkeypatch, capsys, ["", "{not json"])
    assert doc["line"] == 2 and doc["error"].startswith("line 2: ")


def test_localize_rejects_a_record_without_epc_before_localizing(tmp_path, monkeypatch,
                                                                 capsys):
    geom = model.default_array_geometry()
    plan = model.default_carrier_plan(desk_scale=True)
    h = cs.synth_channel(model.Scene(tags=(harness.single_path_tag((0.1, 2.2, 1.11),
                                                                   (0, 1) * 48),)),
                         geom, plan, 0)
    doc = harness.packet_record((0, 1) * 48, 0.0, 0.0, True, h)
    del doc["epc"]
    err = _localize_lines(tmp_path, monkeypatch, capsys, [json.dumps(doc)])
    assert err == {"error": "line 1: record has no epc", "line": 1}


def test_localize_rejects_a_channel_number_that_is_no_json_number(tmp_path, monkeypatch,
                                                                   capsys):
    # read as numbers, these would give h = 1+0.5j at quality 1.0: a wrong
    # position and no error
    geom = model.default_array_geometry()
    plan = model.default_carrier_plan(desk_scale=True)
    h = cs.synth_channel(model.Scene(tags=(harness.single_path_tag((0.1, 2.2, 1.11),
                                                                   (0, 1) * 48),)),
                         geom, plan, 0)
    doc = harness.packet_record((0, 1) * 48, 0.0, 0.0, True, h)
    doc["channels"][0].update({"re": True, "im": "0.5", "snr_db": True})
    err = _localize_lines(tmp_path, monkeypatch, capsys, [json.dumps(doc)])
    assert re.fullmatch("line 1: record 5{24} channel 0: snr_db must be a JSON number, not bool",
                        err["error"])
    assert err["line"] == 1


def test_localize_prints_the_records_before_a_malformed_one(tmp_path, capsys):
    geom = model.default_array_geometry()
    plan = model.default_carrier_plan(desk_scale=True)
    h = cs.synth_channel(model.Scene(tags=(harness.single_path_tag((0.1, 2.2, 1.11),
                                                                   (0, 1) * 48),)),
                         geom, plan, 0)
    good = json.dumps(harness.packet_record((0, 1) * 48, 0.0, 0.0, True, h))
    packets = tmp_path / "packets.jsonl"
    packets.write_text(f"{good}\n{{not json\n{good}\n")
    results = tmp_path / "results.jsonl"
    assert run(["localize", packets, "--out", results]) == 1
    out, err = capsys.readouterr()
    assert results.read_text() == out
    (line,) = out.splitlines()
    pos = json.loads(line)
    assert abs(pos["x"] - 0.1) < 0.15 and abs(pos["y"] - 2.2) < 0.15
    assert json.loads(err)["line"] == 2


def test_localize_reports_a_record_that_localize_refuses(tmp_path, capsys):
    # well formed, but every entry is absent: localize itself raises, which
    # had ended the command in a traceback
    geom = model.default_array_geometry()
    plan = model.default_carrier_plan(desk_scale=True)
    h = cs.synth_channel(model.Scene(tags=(harness.single_path_tag((0.1, 2.2, 1.11),
                                                                   (0, 1) * 48),)),
                         geom, plan, 0)
    doc = harness.packet_record((0, 1) * 48, 0.0, 0.0, True, h)
    packets = tmp_path / "packets.jsonl"
    packets.write_text(f"{json.dumps(doc)}\n{json.dumps({**doc, 'channels': []})}\n")
    results = tmp_path / "results.jsonl"
    assert run(["localize", packets, "--out", results]) == 1
    out, err = capsys.readouterr()
    assert results.read_text() == out and len(out.splitlines()) == 1
    assert json.loads(err) == {"error": "line 2: hologram: every channel entry is masked",
                               "line": 2}


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
    with pytest.raises(model.ModelError, match=f"^{prefix}{message}"):
        run(["evaluate", results, labels])


def test_evaluate_names_a_labels_file_that_holds_no_object(tmp_path):
    results = tmp_path / "results.jsonl"
    results.write_text('{"epc": "aa", "roi": "inside"}\n')
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(["aa"]))
    with pytest.raises(model.ModelError, match="labels.json: labels must be a JSON object"):
        run(["evaluate", results, labels])


_REGION = [[-1.5, 0.5], [1.5, 0.5], [1.5, 3.6], [-1.5, 3.6]]


def test_config_grid_and_prior_sections_are_the_dataclasses_fields(tmp_path):
    cfg = tmp_path / "cfg.json"
    # a field left out takes the dataclass default, here GridSpec's cell
    cfg.write_text(json.dumps({
        "grid": {"x_extent_m": [-1, 1], "y_extent_m": [0.5, 3], "z_m": 1.11},
        "prior": {"path_bounds_m": [1.5, 14.0], "region_xy": _REGION}}))
    _, _, extra = cli._load_setup(SimpleNamespace(config=cfg))
    assert extra["grid"] == GridSpec(x_extent_m=(-1, 1), y_extent_m=(0.5, 3), z_m=1.11)
    assert extra["prior"] == PriorROI(path_bounds_m=(1.5, 14.0),
                                      region_xy=tuple(map(tuple, _REGION)))
    # tuples, so the grid can key the locator's caches
    hash(extra["grid"])
    hash(extra["prior"])


@pytest.mark.parametrize("doc, message", [
    ({"prior": {"region_xy": _REGION}}, "prior section: .*'path_bounds_m'"),
    ({"grid": {"cell": 0.1}}, "grid section: .*'cell'"),
    ({"grid": {"cell_m": 0}}, "grid section: cell size must be positive"),
    ({"grid": [1, 2]}, "grid section: .*must be a mapping"),
    ({"prior": {"path_bounds_m": [1.5, 14.0], "region_xy": []}},
     "prior section: region polygon needs at least 3 vertices"),
], ids=["missing_field", "unknown_field", "bad_value", "not_an_object", "empty_region"])
def test_config_grid_and_prior_errors_name_the_file_and_section(tmp_path, doc, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    packets = tmp_path / "packets.jsonl"
    packets.write_text("")
    with pytest.raises(model.ModelError, match=f"bad.json: {message}"):
        run(["--config", cfg, "localize", packets])
