"""Channelization, DC notching and bank export tests."""

import math

import numpy as np
import pytest
from scipy.signal import fftconvolve

import chordsim as cs
from chordsim import channelizer as chz
from chordsim import waveform as wf
from chordsim.model import (ModelError, Scene, default_array_geometry, default_carrier_plan,
                            uniform_carrier_plan)
from chordsim.harness import multipath_tag, random_epc


@pytest.fixture(scope="module")
def plan():
    return default_carrier_plan()


@pytest.fixture(scope="module")
def geom():
    return default_array_geometry()


def _capture(samples, plan, antenna=0):
    return chz.WidebandCapture(samples=samples, rate_hz=plan.capture_rate_hz,
                               center_hz=plan.capture_center_hz, antenna_id=antenna)


def test_single_tone_steering(plan):
    # pure tone 50 kHz above carrier 3 shows up in channel 3 only
    n = 1 << 15
    t = np.arange(n) / plan.capture_rate_hz
    off = plan.tone_offsets_hz[3] + 50e3
    cap = _capture(np.exp(1j * (2 * math.pi * off * t + plan.tone_phases_rad[3])), plan)
    bank = chz.channelize(cap, plan)
    skip = int(bank.group_delay_s * bank.rate_hz * 2) + 8
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
    """Reference bank: mix by each tone-table row, anti-alias, decimate, shape."""
    aa = chz._antialias_taps(plan.capture_rate_hz, plan.channel_out_rate_hz)
    sh = chz._shaping_taps(plan.channel_out_rate_hz)
    rows = []
    for tone in wf.tone_table(plan, x.size, start_s):
        low = fftconvolve(x * np.conj(tone), aa, mode="same")[::plan.decimation]
        rows.append(fftconvolve(low, sh, mode="same"))
    return np.array(rows)


@pytest.mark.parametrize("desk_scale", [True, False])
def test_channelize_matches_the_linear_chain(desk_scale):
    # whole stream, transients included; the length is not a multiple of the
    # decimation (6 desk, 96 physical)
    rng = np.random.default_rng(8)
    plan = default_carrier_plan(desk_scale=desk_scale, tone_phases_rad=rng.uniform(0, 6, 16))
    n, start_s = 40001, 3.7e-4
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cap = chz.WidebandCapture(samples=x, rate_hz=plan.capture_rate_hz,
                              center_hz=plan.capture_center_hz, start_s=start_s)
    ref = _linear_chain(x, plan, start_s)
    streams = chz.channelize(cap, plan).streams
    assert streams.shape == ref.shape == (16, -(-n // plan.decimation))
    assert np.max(np.abs(streams - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_compression_report_full_rates():
    plan = default_carrier_plan(desk_scale=False, channel_out_rate_hz=1.92e6)
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
    skip = int(bank.group_delay_s * bank.rate_hz * 2) + 8
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
    b_wave = chz.bandlimit_tag(wf.miller_encode(bits, 250e3, plan.capture_rate_hz,
                                                preamble=False))
    b = np.zeros(n, dtype=complex)
    b[:b_wave.samples.size] = b_wave.samples[:n]
    sig = np.exp(1j * (2 * math.pi * plan.tone_offsets_hz[5] * t + plan.tone_phases_rad[5])) * b
    bank = chz.channelize(_capture(sig, plan), plan)
    skip = int(bank.group_delay_s * bank.rate_hz * 2) + 8
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
    wave = wf.miller_encode(rng.integers(0, 2, 64), 250e3, 2.56e6, preamble=False)
    bank = _single_channel_bank(wave.samples)
    out = chz.notch_dc(bank)
    p_in = np.mean(np.abs(bank.streams) ** 2)
    p_out = np.mean(np.abs(out.streams) ** 2)
    assert abs(10 * np.log10(p_out / p_in)) < 0.5


def test_notch_sir_improvement():
    rng = np.random.default_rng(5)
    wave = wf.miller_encode(rng.integers(0, 2, 64), 250e3, 2.56e6, preamble=False)
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
                           carriers_hz=plan.carriers_hz, antenna_id=3,
                           group_delay_s=1.2e-5, compression=chz.compression_report(plan))
    manifest = chz.save_bank(bank, tmp_path / "ant3")
    back = chz.load_bank(manifest)
    assert back.antenna_id == 3
    assert back.carriers_hz == plan.carriers_hz
    assert back.group_delay_s == pytest.approx(bank.group_delay_s)
    assert np.allclose(back.streams, streams, atol=1e-5)


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


def test_shaped_noise_follows_the_shaping_filter():
    plan = default_carrier_plan(desk_scale=True)
    rate, shape, var = plan.channel_out_rate_hz, (64, 10752), 3.0
    x = chz.shaped_noise(np.random.default_rng(5), shape, var, plan)
    assert np.array_equal(x, chz.shaped_noise(np.random.default_rng(5), shape, var, plan))
    assert np.mean(np.abs(x) ** 2) == pytest.approx(var / plan.decimation, rel=0.02)
    freqs = np.abs(np.fft.fftfreq(shape[1], d=1.0 / rate))
    psd = np.mean(np.abs(np.fft.fft(x, axis=1)) ** 2, axis=0)
    # nothing beyond the stop edge but the FFT round trip's residue
    assert np.max(psd[freqs > chz.SHAPE_STOP_HZ]) < 1e-20 * np.max(psd)
    passband = freqs <= chz.SHAPE_PASS_HZ
    ratio = psd[passband] / np.abs(np.fft.fft(chz._shaping_taps(rate), shape[1]))[passband] ** 2
    # blocks of 64 bins x 64 rows: ~1.6% standard error each
    blocks = ratio[:ratio.size // 64 * 64].reshape(-1, 64).mean(axis=1)
    assert np.max(np.abs(blocks / np.mean(ratio) - 1.0)) < 0.1
