"""Channelization, DC notching and bank export tests."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import fftconvolve, firwin, kaiserord

import chordsim as cs
from chordsim import channelizer as chz
from chordsim import harness
from chordsim import waveform as wf
from chordsim.decoder import decode_pipeline
from chordsim.model import (ModelError, Scene, default_array_geometry, default_carrier_plan,
                            uniform_carrier_plan)
from chordsim.harness import SceneSpec, multipath_tag, random_epc


@pytest.fixture(scope="module")
def plan():
    return default_carrier_plan()


@pytest.fixture(scope="module")
def geom():
    return default_array_geometry()


def _capture(samples, plan, antenna=0):
    return chz.WidebandCapture(samples=samples, rate_hz=plan.capture_rate_hz,
                               antenna_id=antenna)


def test_single_tone_steering(plan):
    # pure tone 50 kHz above carrier 3 shows up in channel 3 only
    n = 1 << 15
    t = np.arange(n) / plan.capture_rate_hz
    off = plan.tone_offsets_hz[3] + 50e3
    cap = _capture(np.exp(1j * (2 * math.pi * off * t + plan.tone_phases_rad[3])), plan)
    bank = chz.channelize(cap, plan)
    skip = int(chz.chain_transient_s(plan) * bank.rate_hz * 2) + 8
    powers = np.mean(np.abs(bank.streams[:, skip:-skip]) ** 2, axis=1)
    assert np.argmax(powers) == 3
    # the extracted channel is a clean 50 kHz complex exponential
    seg = bank.streams[3][skip:-skip]
    inst = np.angle(seg[1:] * np.conj(seg[:-1]))
    f_est = np.median(inst) * bank.rate_hz / (2 * math.pi)
    assert f_est == pytest.approx(50e3, rel=1e-3)
    others = powers[np.arange(16) != 3]
    assert 10 * np.log10(others.max() / powers[3]) < -60.0


def _linear_chain(x, plan, start_s):
    """Reference bank: mix by each tone phasor, anti-alias, decimate at every
    capture time m * D that has anti-alias output (m < 0 included), shape,
    and crop to the decimated span [0, ceil(n / D)); no stage truncates."""
    aa = chz._antialias_taps(plan.capture_rate_hz, plan.channel_out_rate_hz)
    sh = chz._shaping_taps(plan.channel_out_rate_hz)
    d, c = plan.decimation, aa.size // 2
    m0 = c // d                     # decimated samples before capture time 0
    t = start_s + np.arange(x.size) / plan.capture_rate_hz
    rows = []
    for off, phi in zip(plan.tone_offsets_hz, plan.tone_phases_rad):
        tone = np.exp(1j * (2 * np.pi * off * t + phi))
        full = fftconvolve(x * np.conj(tone), aa)           # full[i] is at time i - c
        low = full[c - m0 * d::d]                           # low[i] is at time (i - m0) D
        start = m0 + sh.size // 2
        rows.append(fftconvolve(low, sh)[start:start + -(-x.size // d)])
    return np.array(rows)


def _room_boundary(plan):
    """A capture length near 40k whose FFT holds both filters' tails with no
    spare bin: x.size plus the tails' room is a multiple of the FFT grid."""
    room = (chz._antialias_taps(plan.capture_rate_hz, plan.channel_out_rate_hz).size
            + plan.decimation * chz._shaping_taps(plan.channel_out_rate_hz).size)
    grid = math.lcm(plan.decimation, chz.TONE_GRID_BINS)
    return grid * -(-(40000 + room) // grid) - room


def _check_linear_chain(plan, n, rng):
    # whole stream, transients included
    start_s = 3.7e-4
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cap = chz.WidebandCapture(samples=x, rate_hz=plan.capture_rate_hz, start_s=start_s)
    ref = _linear_chain(x, plan, start_s)
    streams = chz.channelize(cap, plan).streams
    assert streams.shape == ref.shape == (16, -(-n // plan.decimation))
    assert np.max(np.abs(streams - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("desk_scale", [True, False])
def test_channelize_matches_the_linear_chain(desk_scale):
    # the length is not a multiple of the decimation (6 desk, 96 physical)
    rng = np.random.default_rng(8)
    plan = default_carrier_plan(desk_scale=desk_scale, tone_phases_rad=rng.uniform(0, 6, 16))
    _check_linear_chain(plan, 40001, rng)


@pytest.mark.parametrize("desk_scale", [True, False])
@pytest.mark.parametrize("extra", [0, 1])
def test_channelize_matches_the_linear_chain_at_the_fft_room_boundary(desk_scale, extra):
    # at the boundary the tails fill the FFT to its last bin; one sample more
    # takes the FFT up by a whole grid
    rng = np.random.default_rng(9)
    plan = default_carrier_plan(desk_scale=desk_scale, tone_phases_rad=rng.uniform(0, 6, 16))
    _check_linear_chain(plan, _room_boundary(plan) + extra, rng)


def _scipy_lowpass(rate_hz, pass_hz, stop_hz):
    """The reference design: scipy.signal's Kaiser order and window method."""
    numtaps, beta = kaiserord(chz.STOPBAND_ATTEN_DB, (stop_hz - pass_hz) / (rate_hz / 2))
    return firwin(numtaps | 1, (pass_hz + stop_hz) / 2, window=("kaiser", beta), fs=rate_hz)


@pytest.mark.parametrize("desk_scale", [True, False], ids=["desk", "physical"])
def test_chain_taps_equal_scipys_kaiser_design(desk_scale):
    plan = default_carrier_plan(desk_scale=desk_scale)
    rate, out = plan.capture_rate_hz, plan.channel_out_rate_hz
    aa_stop = max(out - chz.TAG_STOP_HZ, 1.5 * chz.ANTIALIAS_PASS_HZ)
    for taps, want in ((chz._tag_taps(rate), (rate, chz.TAG_PASS_HZ, chz.TAG_STOP_HZ)),
                       (chz._antialias_taps(rate, out), (rate, chz.ANTIALIAS_PASS_HZ, aa_stop)),
                       (chz._shaping_taps(out), (out, chz.SHAPE_PASS_HZ, chz.SHAPE_STOP_HZ))):
        assert taps.size % 2 == 1 and not taps.flags.writeable
        assert np.array_equal(taps, _scipy_lowpass(*want))


@pytest.mark.parametrize("rate_hz", [2.0e6, 2.56e6, 7.3e6, 15.36e6, 40.0e6])
def test_lowpass_design_equals_scipys_over_band_edges(rate_hz):
    design = chz._design_lowpass.__wrapped__          # leave the chain's cache alone
    for pass_hz in (50e3, 150e3, 300e3, 400e3):
        for stop_hz in (1.1 * pass_hz, 1.5 * pass_hz, 2.3 * pass_hz, pass_hz + 70e3):
            assert np.array_equal(design(rate_hz, pass_hz, stop_hz),
                                  _scipy_lowpass(rate_hz, pass_hz, stop_hz))


# one sample is left out: fftconvolve multiplies directly when an input has one
@pytest.mark.parametrize("n", [2, 3, 64, 184, 185, 186, 1001, 4096, 12345])
def test_filter_aligned_equals_fftconvolve_same(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(2 * n).view(complex)
    plan = default_carrier_plan()
    # 185 and 965 taps: x is shorter than both, between them or longer
    for taps in (chz._shaping_taps(plan.channel_out_rate_hz), chz._tag_taps(plan.capture_rate_hz)):
        assert np.array_equal(chz._filter_aligned(x, taps), fftconvolve(x, taps, mode="same"))


def test_compression_report_full_rates():
    plan = replace(default_carrier_plan(desk_scale=False), channel_out_rate_hz=1.92e6)
    rep = chz.compression_report(plan)
    assert rep["data_rate_fraction"] == pytest.approx(16 * 1.92e6 / 245.76e6, abs=1e-12)
    assert rep["data_rate_fraction"] == pytest.approx(0.125, abs=1e-12)
    assert rep["information_fraction"] == pytest.approx(1 / 50, rel=0.02)


def test_channelize_round_trip_matches_direct_baseband(plan, geom):
    rng = np.random.default_rng(1)
    tag = multipath_tag((0.4, 3.0, 1.11), random_epc(rng), (1.0, 4.2, 1.11), 0.5)
    scene = Scene(tags=(tag,))
    h = cs.synth_channel(scene, geom, plan, 0)
    pkt = wf.TagPacket(rn16_bits=tuple(rng.integers(0, 2, 16)), epc_bits=tag.epc_bits,
                       t0_s=0.3e-3)
    tagwave = wf.build_packet_baseband(pkt, plan.capture_rate_hz)
    tag_bl = chz.bandlimit_tag(tagwave)
    rx = cs.backscatter_mix(plan, tag_bl.samples.size, tag_bl, h, 0)
    bank = chz.channelize(_capture(rx.samples, plan), plan)
    ref = chz.processed_tag_baseband(tagwave, plan)
    skip = int(chz.chain_transient_s(plan) * bank.rate_hz * 2) + 8
    for l in range(plan.n_carriers):
        a = bank.streams[l][skip:-skip]
        b = (h.h[0, l] * ref.samples)[skip:-skip]
        err_db = 10 * np.log10(np.sum(np.abs(a - b) ** 2) / np.sum(np.abs(b) ** 2))
        corr = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert err_db <= -40.0
        assert corr >= 0.99


def test_channelize_linearity(plan):
    rng = np.random.default_rng(2)
    n = 1 << 14
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a, b = 1.7 - 0.3j, -0.4 + 2.1j
    bank_mix = chz.channelize(_capture(a * x + b * y, plan), plan)
    bank_x = chz.channelize(_capture(x, plan), plan)
    bank_y = chz.channelize(_capture(y, plan), plan)
    lhs = bank_mix.streams
    rhs = a * bank_x.streams + b * bank_y.streams
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 1e-9


def test_adjacent_isolation_physical_spacing():
    # at the full-rate 11.1 MHz spacing a neighbor's whole signal is deep in
    # the stopband
    plan = default_carrier_plan(desk_scale=False)
    n = 1 << 16
    rng = np.random.default_rng(3)
    t = np.arange(n) / plan.capture_rate_hz
    bits = rng.integers(0, 2, 24)
    b_wave = chz.bandlimit_tag(wf.miller_encode(bits, 250e3, plan.capture_rate_hz))
    b = np.zeros(n, dtype=complex)
    b[:b_wave.samples.size] = b_wave.samples[:n]
    sig = np.exp(1j * (2 * math.pi * plan.tone_offsets_hz[5] * t + plan.tone_phases_rad[5])) * b
    bank = chz.channelize(_capture(sig, plan), plan)
    skip = int(chz.chain_transient_s(plan) * bank.rate_hz * 2) + 8
    powers = np.mean(np.abs(bank.streams[:, skip:-skip]) ** 2, axis=1)
    iso_db = 10 * np.log10((powers[4] + powers[6]) / powers[5])
    assert iso_db < -60.0


def test_nyquist_edge_rejected(plan):
    # offsets inside the plan's Nyquist guard but too close to the edge for
    # the channel filter's passband
    bad = cs.CarrierPlan(carriers_hz=plan.carriers_hz, tone_phases_rad=plan.tone_phases_rad,
                         per_tone_power_dbm=-15.0, capture_rate_hz=plan.capture_rate_hz,
                         channel_out_rate_hz=plan.channel_out_rate_hz,
                         capture_center_hz=plan.capture_center_hz,
                         tone_offsets_hz=tuple(o * 1.145 for o in plan.tone_offsets_hz))
    cap = _capture(np.zeros(4096, dtype=complex), bad)
    with pytest.raises(ModelError):
        chz.channelize(cap, bad)


def test_off_grid_plan_rejected():
    # 4 tones over 61 MHz: the inner offsets, +/-635 416.7 Hz at desk scale,
    # are not multiples of rate / 12 288 (1250 Hz)
    plan = uniform_carrier_plan(4, span_hz=61e6)
    cap = _capture(np.zeros(4096, dtype=complex), plan)
    with pytest.raises(ModelError, match="channelize"):
        chz.channelize(cap, plan)


# --- notch -------------------------------------------------------------------

def _single_channel_bank(samples, rate=2.56e6):
    return chz.ChannelBank(streams=np.asarray(samples)[None, :], rate_hz=rate,
                           carriers_hz=(887e6,))


def test_notch_kills_pure_leak():
    bank = _single_channel_bank(np.full(1 << 14, 0.7 + 0.2j))
    out = chz.notch_dc(bank)
    p_in = np.mean(np.abs(bank.streams) ** 2)
    p_out = np.mean(np.abs(out.streams) ** 2)
    assert 10 * np.log10(p_out / p_in + 1e-30) < -60.0


def test_notch_preserves_subcarrier_signal():
    rng = np.random.default_rng(4)
    wave = wf.miller_encode(rng.integers(0, 2, 64), 250e3, 2.56e6)
    bank = _single_channel_bank(wave.samples)
    out = chz.notch_dc(bank)
    p_in = np.mean(np.abs(bank.streams) ** 2)
    p_out = np.mean(np.abs(out.streams) ** 2)
    assert abs(10 * np.log10(p_out / p_in)) < 0.5


def test_notch_sir_improvement():
    rng = np.random.default_rng(5)
    wave = wf.miller_encode(rng.integers(0, 2, 64), 250e3, 2.56e6)
    sig = wave.samples
    leak = np.full_like(sig, math.sqrt(np.mean(np.abs(sig) ** 2)))
    bank = _single_channel_bank(sig + leak)
    out = chz.notch_dc(bank)
    # measured power ratio oracle: remaining leak estimated from the mean
    resid = out.streams[0]
    leak_power = np.abs(np.mean(resid)) ** 2
    sig_power = np.mean(np.abs(resid - np.mean(resid)) ** 2)
    assert 10 * np.log10(sig_power / (leak_power + 1e-30)) >= 55.0


def test_notch_idempotent():
    rng = np.random.default_rng(6)
    sig = (np.full(8192, 1.0 + 0.5j)
           + 0.3 * (rng.standard_normal(8192) + 1j * rng.standard_normal(8192)))
    bank = _single_channel_bank(sig)
    once = chz.notch_dc(bank)
    twice = chz.notch_dc(once)
    num = np.sum(np.abs(twice.streams - once.streams) ** 2)
    den = np.sum(np.abs(bank.streams) ** 2)
    assert num / den < 1e-9


def test_notch_dc_sets_notched_and_channelize_and_load_bank_do_not(tmp_path, plan):
    bank = chz.channelize(_capture(np.ones(4096, dtype=complex), plan), plan)
    assert not bank.notched
    once = chz.notch_dc(bank)
    assert once.notched and not np.array_equal(once.streams, bank.streams)
    assert chz.notch_dc(once) is once
    # manifests do not hold the flag: a loaded bank is notched again
    assert not chz.load_bank(chz.save_bank(once, tmp_path / "ant0")).notched


def test_notch_validation():
    with pytest.raises(ModelError):
        chz.notch_dc(chz.ChannelBank(streams=np.ones((1, 64)), rate_hz=400e3,
                                     carriers_hz=(887e6,)))


def test_link_setting_inside_filter_chain():
    # the notch stays inside the subcarrier offset, and the tag bandlimit and
    # the shaping filter pass the +/-BLF sidebands
    assert chz.NOTCH_HZ < wf.BLF_HZ < chz.SHAPE_PASS_HZ
    assert wf.BLF_HZ < chz.TAG_PASS_HZ


# --- dynamic range -----------------------------------------------------------

def test_dynamic_range_formula():
    assert chz.dynamic_range_required(16) == pytest.approx(98.08, abs=1e-9)
    assert chz.dynamic_range_required(1) == pytest.approx(7.78, abs=1e-9)
    assert chz.dynamic_range_required(12) == pytest.approx(74.0, abs=0.05)
    with pytest.raises(ModelError):
        chz.dynamic_range_required(0)


# --- export ------------------------------------------------------------------

def test_bank_save_load_round_trip(tmp_path, plan):
    rng = np.random.default_rng(7)
    streams = rng.standard_normal((16, 2048)) + 1j * rng.standard_normal((16, 2048))
    bank = chz.ChannelBank(streams=streams, rate_hz=plan.channel_out_rate_hz,
                           carriers_hz=plan.carriers_hz, antenna_id=3)
    manifest = chz.save_bank(bank, tmp_path / "ant3")
    back = chz.load_bank(manifest)
    assert back.antenna_id == 3
    assert back.carriers_hz == plan.carriers_hz
    assert np.allclose(back.streams, streams, atol=1e-5)


def test_bank_with_the_earlier_compression_key_loads_and_decodes_alike(tmp_path, plan, geom):
    tag = multipath_tag((0.4, 3.0, 1.11), random_epc(np.random.default_rng(3)),
                        (1.2, 4.0, 1.11), 0.5)
    banks, _, _ = harness.simulate_capture(SceneSpec(scene=Scene(tags=(tag,)), snr_db=10.0),
                                           plan, geom, seed=4, fast_path=True)
    manifests = [chz.save_bank(b, tmp_path / f"antenna_{b.antenna_id}") for b in banks]
    current = [chz.load_bank(m) for m in manifests]
    # manifests written before the summary and the transient were dropped
    # from ChannelBank held them
    for m in manifests:
        m.write_text(json.dumps({**json.loads(m.read_text()),
                                 "compression": chz.compression_report(plan),
                                 "group_delay_s": chz.chain_transient_s(plan)}))
    earlier = [chz.load_bank(m) for m in manifests]
    for a, b in zip(current, earlier):
        assert np.array_equal(a.streams, b.streams)
        assert (a.rate_hz, a.carriers_hz, a.antenna_id, a.start_s) == \
            (b.rate_hz, b.carriers_hz, b.antenna_id, b.start_s)
    got, ref = decode_pipeline(earlier, plan, geom), decode_pipeline(current, plan, geom)
    assert got.crc_ok and got.epc_bits == ref.epc_bits == tag.epc_bits
    assert np.array_equal(got.channel.h, ref.channel.h)


@pytest.mark.parametrize("samples, start_s, message", [
    (np.ones(64), math.nan, "capture start_s must be finite"),
    (np.ones(64), -math.inf, "capture start_s must be finite"),
    (np.ones((2, 64)), 0.0, "capture samples must be a finite, non-empty 1-D array"),
    (np.ones(0), 0.0, "capture samples must be a finite, non-empty 1-D array"),
    (np.array([1.0, np.nan]), 0.0, "capture samples must be a finite, non-empty 1-D array"),
], ids=["nan_start", "infinite_start", "two_dimensional", "empty", "nan_sample"])
def test_capture_rejects_what_channelize_cannot_use(plan, samples, start_s, message):
    # a NaN start had given an all-NaN bank; 2-D and empty captures failed
    # later with untyped numpy errors
    with pytest.raises(ModelError, match=message):
        chz.WidebandCapture(samples=samples, rate_hz=plan.capture_rate_hz, start_s=start_s)


def test_channelize_rejects_a_nan_capture_rate(plan):
    cap = chz.WidebandCapture(samples=np.ones(4096), rate_hz=math.nan)
    with pytest.raises(ModelError, match="capture rate does not match the plan"):
        chz.channelize(cap, plan)


def test_channel_bank_rejects_empty_streams(plan):
    with pytest.raises(ModelError, match="at least one sample"):
        chz.ChannelBank(streams=np.ones((plan.n_carriers, 0)), rate_hz=plan.channel_out_rate_hz,
                        carriers_hz=plan.carriers_hz)


def test_load_bank_rejects_non_finite_sample(tmp_path, plan):
    streams = np.ones((plan.n_carriers, 256), dtype=complex)
    bank = chz.ChannelBank(streams=streams, rate_hz=plan.channel_out_rate_hz,
                           carriers_hz=plan.carriers_hz)
    manifest = chz.save_bank(bank, tmp_path / "ant0")
    raw = np.fromfile(tmp_path / "ant0" / "ch_03.cf32", dtype="<f4")
    raw[101] = np.nan
    raw.tofile(tmp_path / "ant0" / "ch_03.cf32")
    with pytest.raises(ModelError, match="ch_03.cf32"):
        chz.load_bank(manifest)


@pytest.mark.parametrize("target, edit, message", [
    ("manifest.json", lambda d: [d], "manifest.json: manifest must be a JSON object"),
    ("manifest.json", lambda d: {k: v for k, v in d.items() if k != "rate_hz"},
     "manifest.json: manifest misses key 'rate_hz'"),
    ("ch_00.json", lambda d: {k: v for k, v in d.items() if k != "start_s"},
     "ch_00.json: sidecar misses key 'start_s'"),
], ids=["manifest_not_an_object", "manifest_without_rate", "sidecar_without_start"])
def test_load_bank_names_the_file_and_the_missing_key(tmp_path, plan, target, edit, message):
    bank = chz.ChannelBank(streams=np.ones((plan.n_carriers, 64), dtype=complex),
                           rate_hz=plan.channel_out_rate_hz, carriers_hz=plan.carriers_hz)
    manifest = chz.save_bank(bank, tmp_path / "ant0")
    path = tmp_path / "ant0" / target
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ModelError, match=message):
        chz.load_bank(manifest)


@pytest.mark.parametrize("antenna_id", [2.7, True, "2"])
def test_load_bank_refuses_an_antenna_id_that_is_not_an_integer(tmp_path, plan, antenna_id):
    # int() had read 2.7 as antenna 2, true as 1 and "2" as 2
    bank = chz.ChannelBank(streams=np.ones((plan.n_carriers, 64), dtype=complex),
                           rate_hz=plan.channel_out_rate_hz, carriers_hz=plan.carriers_hz)
    manifest = chz.save_bank(bank, tmp_path / "ant0")
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                    "antenna_id": antenna_id}))
    with pytest.raises(ModelError, match="antenna_id .* is not an integer") as err:
        chz.load_bank(manifest)
    assert str(err.value).startswith(f"{manifest}: ")


def _one_carrier(bank_dir):
    manifest = bank_dir / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "carriers_hz": [915e6]}))


def _short_channel_3(bank_dir):
    wf.save_wave(wf.BasebandWave(samples=np.ones(63), rate_hz=2.56e6), bank_dir / "ch_03.cf32")


@pytest.mark.parametrize("edit, message", [
    (_one_carrier, "stream count must equal carrier count"),
    # np.asarray had raised a bare ValueError on the ragged rows
    (_short_channel_3, "channel file ch_03.cf32 holds 63 samples, ch_00.cf32 64"),
], ids=["one_carrier", "short_channel"])
def test_load_bank_names_the_manifest_when_its_files_disagree(tmp_path, plan, edit, message):
    manifest = chz.save_bank(chz.ChannelBank(streams=np.ones((plan.n_carriers, 64)),
                                             rate_hz=plan.channel_out_rate_hz,
                                             carriers_hz=plan.carriers_hz), tmp_path / "ant0")
    edit(manifest.parent)
    with pytest.raises(ModelError) as err:
        chz.load_bank(manifest)
    assert str(err.value) == f"{manifest}: {message}"


@pytest.mark.parametrize("target", ["manifest.json", "ch_05.json"])
@pytest.mark.parametrize("key, value", [("rate_hz", 1e6), ("start_s", 0.5)])
def test_load_bank_refuses_channel_files_the_manifest_contradicts(tmp_path, plan, target,
                                                                  key, value):
    # a manifest edited to 1 MHz over 2.56 MHz channel files had loaded as a
    # 1 MHz bank
    manifest = chz.save_bank(chz.ChannelBank(streams=np.ones((plan.n_carriers, 64)),
                                             rate_hz=plan.channel_out_rate_hz,
                                             carriers_hz=plan.carriers_hz), tmp_path / "ant0")
    path = manifest.parent / target
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    with pytest.raises(ModelError) as err:
        chz.load_bank(manifest)
    name = "ch_05.cf32" if target == "ch_05.json" else "ch_00.cf32"
    assert str(err.value).startswith(f"{manifest}: channel file {name} rate_hz, start_s ")
    # the manifest and every channel file moved alike still load
    for sidecar in manifest.parent.glob("*.json"):
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
    assert getattr(chz.load_bank(manifest), key) == value


def _noise_rows(plan, n_antennas, n, var, seed):
    """The fast path's banks for a zero tag row, stacked: noise only."""
    banks = chz.fast_banks(np.random.default_rng(seed), np.zeros(n, dtype=complex),
                           np.ones((n_antennas, plan.n_carriers)), var, plan)
    return np.concatenate([b.streams for b in banks])


def test_shaped_noise_follows_the_shaping_filter():
    plan = default_carrier_plan(desk_scale=True)
    rate, shape, var = plan.channel_out_rate_hz, (64, 10752), 3.0
    x = _noise_rows(plan, 4, shape[1], var, seed=5)
    assert x.shape == shape
    assert np.array_equal(x, _noise_rows(plan, 4, shape[1], var, seed=5))
    freqs = np.abs(np.fft.fftfreq(shape[1], d=1.0 / rate))
    notch = freqs <= chz.NOTCH_HZ
    gain2 = np.abs(np.fft.fft(chz._shaping_taps(rate), shape[1])) ** 2
    # var / D is drawn over the band, and the notch keeps the rest of it
    band = freqs <= chz.SHAPE_STOP_HZ
    kept = np.sum(gain2[band & ~notch]) / np.sum(gain2[band])
    assert np.mean(np.abs(x) ** 2) == pytest.approx(var / plan.decimation * kept, rel=0.02)
    psd = np.mean(np.abs(np.fft.fft(x, axis=1)) ** 2, axis=0)
    # nothing beyond the stop edge or in the notch but the FFT round trip's residue
    assert np.max(psd[freqs > chz.SHAPE_STOP_HZ]) < 1e-20 * np.max(psd)
    assert np.max(psd[notch]) < 1e-20 * np.max(psd)
    passband = (freqs <= chz.SHAPE_PASS_HZ) & ~notch
    ratio = psd[passband] / gain2[passband]
    # blocks of 64 bins x 64 rows: ~1.6% standard error each
    blocks = ratio[:ratio.size // 64 * 64].reshape(-1, 64).mean(axis=1)
    assert np.max(np.abs(blocks / np.mean(ratio) - 1.0)) < 0.1


def test_fast_banks_are_the_notched_signal_plus_the_noise_only_banks(plan):
    # at finite SNR: the signal and the noise add in the spectrum, and the
    # noise draws do not depend on the tag row
    rng = np.random.default_rng(11)
    n, var = 4096, 30.0
    row = rng.standard_normal(2 * n).view(complex)
    h = rng.standard_normal((3, 2 * plan.n_carriers)).view(complex)
    banks = chz.fast_banks(np.random.default_rng(5), row, h, var, plan)
    noise = chz.fast_banks(np.random.default_rng(5), np.zeros(n, dtype=complex), h, var, plan)
    for k, (bank, noise_bank) in enumerate(zip(banks, noise)):
        assert (bank.antenna_id, bank.notched, bank.start_s) == (k, True, 0.0)
        assert bank.rate_hz == plan.channel_out_rate_hz and bank.carriers_hz == plan.carriers_hz
        signal = chz.notch_dc(replace(bank, streams=np.outer(h[k], row), notched=False)).streams
        peak = np.max(np.abs(bank.streams))
        # the noise is not negligible next to the signal
        assert np.max(np.abs(noise_bank.streams)) > 0.1 * peak
        assert np.max(np.abs(bank.streams - (signal + noise_bank.streams))) <= 1e-12 * peak


def _per_antenna_streams(rng, tag_row, h, noise_var, plan):
    """The fast path's streams built one antenna at a time: the outer product,
    a noise draw per antenna added through the boolean band mask, the notch
    and an inverse FFT per antenna."""
    rate, n = plan.channel_out_rate_hz, tag_row.size
    band = np.abs(np.fft.fftfreq(n, d=1.0 / rate)) <= chz.SHAPE_STOP_HZ
    gain = np.abs(np.fft.fft(chz._shaping_taps(rate), n))[band]
    gain *= n * math.sqrt(noise_var / plan.decimation / 2 / float(np.sum(gain ** 2)))
    tag_spec, streams = np.fft.fft(tag_row), []
    for h_k in h:
        spec = np.outer(h_k, tag_spec)
        spec[:, band] += rng.standard_normal((h_k.size, 2 * gain.size)).view(complex) * gain
        streams.append(np.fft.ifft(chz._notch_spectrum(spec, rate), axis=1))
    return streams


@pytest.mark.parametrize("desk_scale", [True, False])
@pytest.mark.parametrize("n", [10752, 4095])
def test_fast_banks_equal_the_per_antenna_reference(desk_scale, n):
    # guards the draw order across antennas and the band's split at Nyquist
    plan = default_carrier_plan(desk_scale=desk_scale)
    rng = np.random.default_rng(n)
    row = rng.standard_normal(2 * n).view(complex)
    h = rng.standard_normal((8, 2 * plan.n_carriers)).view(complex)
    banks = chz.fast_banks(np.random.default_rng(3), row, h, 2.5, plan)
    reference = _per_antenna_streams(np.random.default_rng(3), row, h, 2.5, plan)
    assert len(banks) == len(reference)
    for bank, streams in zip(banks, reference):
        assert np.array_equal(bank.streams, streams)


def test_fast_banks_transform_the_block_in_place():
    plan = default_carrier_plan(desk_scale=True)
    k, n = 8, 10752
    h = np.ones((k, plan.n_carriers), dtype=complex)
    tracemalloc.start()
    try:
        banks = chz.fast_banks(np.random.default_rng(1), np.ones(n, dtype=complex), h, 1.0, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = k * plan.n_carriers * n * 16
    # the block and the scaled noise draw, ~1.31x; an out-of-place inverse FFT is >= 2x
    assert peak < 1.4 * block
    assert all(bank.streams.base is banks[0].streams.base for bank in banks)


@pytest.mark.parametrize("key", ["rate_hz", "start_s"])
@pytest.mark.parametrize("target", ["manifest.json", "ch_00.json"])
@pytest.mark.parametrize("value", ["2560000.0", True, None, [0.0]])
def test_load_bank_refuses_a_rate_or_start_that_is_not_a_number(tmp_path, plan, key, target,
                                                                 value):
    # float() had read "2560000.0" as a rate and true as a start of 1 s
    bank = chz.ChannelBank(streams=np.ones((plan.n_carriers, 64), dtype=complex),
                           rate_hz=plan.channel_out_rate_hz, carriers_hz=plan.carriers_hz)
    manifest = chz.save_bank(bank, tmp_path / "ant0")
    path = tmp_path / "ant0" / target
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    with pytest.raises(ModelError, match=f"{key} .* is not a number") as err:
        chz.load_bank(manifest)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("key, value, message", [
    ("start_s", math.nan, "a finite start_s"),
    ("start_s", math.inf, "a finite start_s"),
    ("start_s", -math.inf, "a finite start_s"),
    ("rate_hz", math.nan, "a positive rate"),
    ("rate_hz", 0, "a positive rate"),
    ("rate_hz", -1.0, "a positive rate"),
    ("rate_hz", -5, "a positive rate"),
])
def test_channel_bank_refuses_a_non_finite_start_or_a_rate_that_is_not_positive(
        tmp_path, plan, key, value, message):
    fields = dict(streams=np.ones((plan.n_carriers, 64), dtype=complex),
                  rate_hz=plan.channel_out_rate_hz, carriers_hz=plan.carriers_hz)
    with pytest.raises(ModelError, match=message):
        chz.ChannelBank(**{**fields, key: value})
    # a manifest with that value, its channel files intact, fails alike at
    # load, and the error names the manifest
    manifest = chz.save_bank(chz.ChannelBank(**fields), tmp_path / "ant0")
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
    with pytest.raises(ModelError, match=message) as err:
        chz.load_bank(manifest)
    assert str(err.value).startswith(f"{manifest}: ")
