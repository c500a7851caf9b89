"""Multisine, crest optimization, Miller coding and clock-model tests."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import chordsim as cs
from chordsim import channelizer as chz
from chordsim import harness
from chordsim import waveform as wf
from chordsim.harness import SceneSpec, simulate_capture, single_path_tag
from chordsim.model import ModelError, Scene, default_carrier_plan

RATE = 2.56e6
BLF = 250e3


@pytest.fixture(scope="module")
def plan():
    return default_carrier_plan()


# --- multisine ---------------------------------------------------------------

def test_single_tone_at_zero_offset_is_constant_phasor():
    plan = cs.CarrierPlan(carriers_hz=(887e6,), tone_phases_rad=(0.3,),
                          per_tone_power_dbm=-15.0, capture_rate_hz=15.36e6,
                          channel_out_rate_hz=2.56e6, capture_center_hz=887e6,
                          tone_offsets_hz=(0.0,))
    wave = cs.synth_multisine(plan, 1e-4)
    assert np.allclose(wave.samples, np.exp(0.3j), atol=1e-12)


def test_sixteen_tone_spectrum_peaks(plan):
    wave = cs.synth_multisine(plan, 2e-3)
    window = np.hanning(wave.samples.size)
    spec = np.fft.fft(wave.samples * window)
    freqs = np.fft.fftfreq(wave.samples.size, 1 / plan.capture_rate_hz)
    mag_db = 20 * np.log10(np.abs(spec) / np.abs(spec).max() + 1e-30)
    hot = freqs[mag_db > -40.0]
    # every strong bin sits within a main-lobe width of a planned offset
    bin_hz = plan.capture_rate_hz / wave.samples.size
    offsets = np.asarray(plan.tone_offsets_hz)
    assert hot.size >= 16
    assert all(np.min(np.abs(offsets - f)) < 4 * bin_hz for f in hot)
    # and every planned offset is represented
    for off in offsets:
        assert np.min(np.abs(hot - off)) < 4 * bin_hz


def test_two_tone_power_additivity():
    plan = cs.CarrierPlan(carriers_hz=(880e6, 894e6), tone_phases_rad=(0.0, 1.0),
                          per_tone_power_dbm=-15.0, capture_rate_hz=15.36e6,
                          channel_out_rate_hz=2.56e6, capture_center_hz=887e6,
                          tone_offsets_hz=(-1.3875e6, 1.3875e6))
    wave = cs.synth_multisine(plan, 2e-3)
    assert float(np.mean(np.abs(wave.samples) ** 2)) == pytest.approx(2.0, rel=1e-3)


def test_tone_outside_nyquist_rejected():
    with pytest.raises(ModelError):
        cs.CarrierPlan(carriers_hz=(887e6,), tone_phases_rad=(0.0,),
                       per_tone_power_dbm=-15.0, capture_rate_hz=15.36e6,
                       channel_out_rate_hz=2.56e6, capture_center_hz=887e6,
                       tone_offsets_hz=(9e6,))


# --- tone sum ----------------------------------------------------------------

def _direct_tone_sum(plan, weights, n):
    t = np.arange(n) / plan.capture_rate_hz
    return sum(w * np.exp(1j * (2 * np.pi * off * t + phi))
               for w, off, phi in zip(weights, plan.tone_offsets_hz, plan.tone_phases_rad))


def _tone_sum_case(case):
    """(plan, n, period) with the period in samples: the desk plan over more
    than three periods, one 1 MHz tone (period 384) and a plan whose
    1 387 501 Hz tone has a period far longer than the capture."""
    rng = np.random.default_rng(12)
    if case == "desk":
        return default_carrier_plan(tone_phases_rad=rng.uniform(0, 6, 16)), 3 * 4096 + 517, 4096
    one = cs.CarrierPlan(carriers_hz=(887e6,), tone_phases_rad=(0.7,), per_tone_power_dbm=-15.0,
                         capture_rate_hz=15.36e6, channel_out_rate_hz=2.56e6,
                         capture_center_hz=887e6, tone_offsets_hz=(1.0e6,))
    if case == "one_tone":
        return one, 5000, 384
    return replace(one, carriers_hz=(880e6, 894e6), tone_phases_rad=(0.7, -2.1),
                   tone_offsets_hz=(-1387501.0, 1387500.0)), 5000, 5000


@pytest.mark.parametrize("case", ["desk", "one_tone", "long_period"])
def test_tone_sums_equal_the_per_tone_formula(case):
    plan, n, period = _tone_sum_case(case)
    rng = np.random.default_rng(5)
    geom = cs.default_array_geometry()
    h = rng.standard_normal((8, plan.n_carriers)) + 1j * rng.standard_normal((8, plan.n_carriers))
    ch = cs.ChannelMatrix(h=h, carriers_hz=plan.carriers_hz, geometry=geom)
    # the tag reply starts 200 samples in and ends 100 before the capture does
    b = np.sign(rng.standard_normal(n - 300)).astype(complex)
    rate = plan.capture_rate_hz
    tag = wf.BasebandWave(samples=b, rate_hz=rate, start_s=200 / rate)
    b_capture = np.pad(b, (200, 100))
    wf._tone_period.cache_clear()
    pairs = [(wf.tone_sum(plan, h[3], n), _direct_tone_sum(plan, h[3], n)),
             (cs.backscatter_mix(plan, n, tag, ch, 3).samples,
              b_capture * _direct_tone_sum(plan, h[3], n)),
             (cs.synth_multisine(plan, n / rate).samples,
              _direct_tone_sum(plan, np.ones(plan.n_carriers), n))]
    for got, ref in pairs:
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
    # every sum above read one cached period of the plan
    info = wf._tone_period.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert wf._tone_period(plan, period).shape == (plan.n_carriers, period)
    assert wf._tone_period.cache_info().misses == 1


def test_tone_table_read_only(plan):
    table = wf._tone_period(plan, 64)
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_tone_table_rows_are_the_per_tone_phasors(plan):
    tuned = default_carrier_plan(tone_phases_rad=cs.optimize_tone_phases(plan.tone_offsets_hz))
    n = 4096
    t = np.arange(n) / tuned.capture_rate_hz
    table = wf._tone_period(tuned, n)
    assert table.shape == (tuned.n_carriers, n)
    for row, off, phi in zip(table, tuned.tone_offsets_hz, tuned.tone_phases_rad):
        assert np.array_equal(row, np.exp(1j * (2 * np.pi * off * t + phi)))


def test_full_path_capture_and_channelize_build_one_table(plan):
    # one period per plan: the reply and the leak at every antenna read it
    tag = single_path_tag((0.3, 2.5, 1.11), (0, 1) * 48)
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=20.0, leak_db=20.0)
    geom = cs.default_array_geometry()
    wf._tone_period.cache_clear()
    captures, _, _ = simulate_capture(spec, plan, geom, seed=4)
    for cap in captures:
        chz.channelize(cap, plan)
    info = wf._tone_period.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert wf._tone_period(plan, 4096).shape == (plan.n_carriers, 4096)


def test_full_path_capture_is_the_per_tone_sum(plan):
    # at 300 dB the noise is ~1e-15 of the signal, so each capture is the
    # reply plus the leak: sum_l (h_kl b + g_kl) exp(j(2 pi f_l t + phi_l))
    tuned = default_carrier_plan(tone_phases_rad=cs.optimize_tone_phases(plan.tone_offsets_hz))
    tag = single_path_tag((0.3, 2.5, 1.11), (0, 1) * 48)
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=300.0, leak_db=20.0)
    geom = cs.default_array_geometry()
    captures, pkt, h = simulate_capture(spec, tuned, geom, seed=4)
    n = captures[0].samples.size
    b = chz.bandlimit_tag(wf.build_packet_baseband(pkt, tuned.capture_rate_hz)).samples[:n]
    b = np.pad(b, (0, n - b.size))
    leak_amp = float(np.sqrt(np.mean(np.abs(h.h) ** 2))) * 10 ** (20.0 / 20)
    for k, cap in enumerate(captures):
        g = harness._leak_gains(geom, tuned, k, leak_amp)
        ref = b * _direct_tone_sum(tuned, h.h[k], n) + _direct_tone_sum(tuned, g, n)
        assert np.max(np.abs(cap.samples - ref)) <= 1e-9 * np.max(np.abs(ref))
    period = wf._tone_period(tuned, 4096)
    assert not period.flags.writeable


# --- crest factor ------------------------------------------------------------

def test_crest_constant_envelope_is_one():
    wave = wf.BasebandWave(samples=np.exp(1j * np.linspace(0, 20, 4096)), rate_hz=RATE)
    assert cs.crest_factor(wave) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("duration_s", [0.0, -1e-3])
def test_multisine_duration_must_be_positive(plan, duration_s):
    with pytest.raises(ModelError, match="duration must be positive"):
        cs.synth_multisine(plan, duration_s)


def test_multisine_duration_below_one_sample_rejected(plan):
    # 1e-9 s rounds to 0 samples at 15.36 MHz
    with pytest.raises(ModelError, match="span a sample, got 1e-09 s"):
        cs.synth_multisine(plan, 1e-9)


def test_crest_aligned_tones_baselines():
    # complex envelope of n aligned tones peaks at n with rms sqrt(n);
    # the real (cosine) rendering of n distinct positive frequencies peaks at
    # n with rms sqrt(n/2)
    plan = default_carrier_plan()  # zero phases align at t = 0
    wave = cs.synth_multisine(plan, 2e-3)
    assert cs.crest_factor(wave) == pytest.approx(4.0, rel=0.02)
    t = np.arange(0, 2e-3, 1 / plan.capture_rate_hz)
    tones = np.exp(2j * math.pi * np.arange(1, 17)[:, None] * 100e3 * t[None, :]).sum(axis=0)
    real = wf.BasebandWave(samples=np.real(tones).astype(complex), rate_hz=plan.capture_rate_hz)
    assert cs.crest_factor(real) == pytest.approx(math.sqrt(32), rel=0.02)


def test_crest_errors():
    with pytest.raises(ModelError):
        cs.crest_factor(wf.BasebandWave(samples=np.zeros(16), rate_hz=RATE))
    with pytest.raises(ModelError):
        cs.crest_factor(wf.BasebandWave(samples=np.zeros(0), rate_hz=RATE))


def test_optimized_sixteen_tone_crest(plan):
    phases = cs.optimize_tone_phases(plan.tone_offsets_hz)
    tuned = default_carrier_plan(tone_phases_rad=phases)
    wave = cs.synth_multisine(tuned, 2e-3)
    cf = cs.crest_factor(wave)
    assert cf <= 1.5
    assert cs.papr_db(wave) <= 3.5
    # never worse than the Newman initialization
    newman = default_carrier_plan(tone_phases_rad=tuple(wf.newman_phases(16)))
    cf_newman = cs.crest_factor(cs.synth_multisine(newman, 2e-3))
    assert cf <= cf_newman + 1e-9


def test_two_tone_optimum_matches_phase_sweep():
    # exhaustive sweep oracle at 0.01 rad steps: for two complex tones the
    # crest factor is phase-invariant, so the sweep floor is the optimum
    t = np.linspace(0, 1, 4096, endpoint=False)
    best = np.inf
    for phi in np.arange(0, 2 * math.pi, 0.01):
        x = np.exp(2j * math.pi * t) + np.exp(1j * (2 * math.pi * 2 * t + phi))
        best = min(best, np.max(np.abs(x)) / np.sqrt(np.mean(np.abs(x) ** 2)))
    phases = cs.optimize_crest_phases(2)
    x = np.exp(1j * (2 * math.pi * t + phases[0])) + np.exp(1j * (2 * math.pi * 2 * t + phases[1]))
    cf = np.max(np.abs(x)) / np.sqrt(np.mean(np.abs(x) ** 2))
    assert cf == pytest.approx(best, rel=1e-3)
    assert best == pytest.approx(math.sqrt(2), rel=1e-3)


def test_optimize_rejects_single_tone():
    with pytest.raises(ModelError):
        cs.optimize_crest_phases(1)


# --- Miller coding -----------------------------------------------------------

def test_symbol_duration():
    wave = wf.miller_encode([1], BLF, RATE)
    assert wave.duration_s == pytest.approx(4 / BLF, abs=1.0 / RATE)


def test_payload_duration_96_bits():
    wave = wf.miller_encode([0] * 96, BLF, RATE)
    assert wave.duration_s == pytest.approx(96 * 4 / BLF, abs=1.0 / RATE)


def test_encode_unit_magnitude_zero_mean_round_trip():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 96)
    wave = wf.miller_encode(wf.PREAMBLE_BITS + tuple(bits), BLF, RATE)
    assert np.allclose(np.abs(wave.samples), 1.0)
    assert abs(np.mean(wave.samples)) < 0.01


@pytest.mark.parametrize("m", [wf.MILLER_M])
def test_transition_count_exact(m):
    # independent recount from the coding rules: each bit contributes 2M-1
    # subcarrier half-period transitions, the data-1 mid inversion cancels
    # one, and boundary inversions cancel the boundary flips exactly
    rng = np.random.default_rng(m)
    bits = rng.integers(0, 2, 64)
    x = np.real(wf.miller_encode(bits, BLF, 16e6).samples)
    transitions = int(np.sum(x[1:] != x[:-1]))
    assert transitions == 64 * (2 * m - 1) - int(bits.sum())


def test_miller_preconditions():
    with pytest.raises(ModelError):
        wf.miller_encode([1, 0], BLF, BLF * 4)
    with pytest.raises(ModelError):
        wf.miller_encode([], BLF, RATE)


# --- packet framing ----------------------------------------------------------

def test_packet_durations_near_reference():
    layout = wf.packet_layout(96)
    rn16_syms = layout.rn16_frame_symbols
    full_syms = rn16_syms + layout.epc_frame_symbols
    # data-bearing reply time: sync, payload and dummy, pilot excluded
    assert (rn16_syms - wf.PILOT_SYMBOLS) * wf.SYMBOL_S == pytest.approx(0.31e-3, rel=0.10)
    assert (full_syms - 2 * wf.PILOT_SYMBOLS) * wf.SYMBOL_S == pytest.approx(2.31e-3, rel=0.10)
    # matched-filter template length ratio stays in the integration-gain band
    assert 10 * math.log10(full_syms / rn16_syms) == pytest.approx(8.7, abs=1.0)


def test_zero_offset_packet_equals_template():
    rng = np.random.default_rng(1)
    pkt = wf.TagPacket(rn16_bits=tuple(rng.integers(0, 2, 16)),
                       epc_bits=tuple(rng.integers(0, 2, 96)))
    tmpl = wf.packet_template(pkt, RATE)
    built = wf.build_packet_baseband(pkt, RATE)
    n = tmpl.samples.size
    assert np.allclose(built.samples[:n], tmpl.samples, atol=1e-12)
    assert np.allclose(built.samples[n:], 0.0)


def test_packet_invariants():
    with pytest.raises(ModelError):
        wf.TagPacket(rn16_bits=(0,) * 15, epc_bits=(0,) * 96)
    with pytest.raises(ModelError):
        wf.TagPacket(rn16_bits=(0,) * 16, epc_bits=(0,) * 96, alpha0_hz=0.2 * BLF)
    with pytest.raises(ModelError):
        wf.TagPacket(rn16_bits=(0,) * 16, epc_bits=(0,) * 96,
                     drift_alpha_hz=(0.05 * BLF,))


# --- clock model -------------------------------------------------------------

def test_clock_offset_identity():
    rng = np.random.default_rng(3)
    pkt = wf.TagPacket(rn16_bits=tuple(rng.integers(0, 2, 16)),
                       epc_bits=tuple(rng.integers(0, 2, 96)))
    tmpl = wf.packet_template(pkt, RATE)
    out = wf.apply_clock_offset(tmpl, pkt)
    assert np.allclose(out.samples[:tmpl.samples.size], tmpl.samples, atol=1e-9)


def test_fast_clock_leads_template():
    # a tag 2.5% faster than nominal leads by 0.8 bit periods at the 32nd bit
    # (and by a full bit at the 40th); positive alpha means a slower clock
    rng = np.random.default_rng(4)
    alpha = -0.025 * BLF
    pkt = wf.TagPacket(rn16_bits=tuple(rng.integers(0, 2, 16)),
                       epc_bits=tuple(rng.integers(0, 2, 96)), alpha0_hz=alpha)
    t_sym = wf.SYMBOL_S
    for n_bits, lead_bits in [(32, 0.8), (40, 1.0)]:
        elapsed_rx = np.array([n_bits * t_sym / (1 - alpha / BLF * (-1) - 0) ])
        # received time at which the warped waveform reaches bit n:
        # nominal = elapsed * (1 - alpha/blf) => elapsed = nominal/(1 - alpha/blf)
        elapsed = n_bits * t_sym / (1.0 - alpha / BLF)
        lead = n_bits * t_sym - elapsed
        assert lead / t_sym == pytest.approx(lead_bits, rel=0.03)
    # end-to-end: the warped wave at elapsed time e matches the template at
    # the warped nominal time
    tmpl = wf.packet_template(pkt, RATE)
    warped = wf.apply_clock_offset(tmpl, pkt)
    e = 32 * t_sym
    nominal = wf.clock_map(np.array([e]), pkt.alpha0_hz, pkt.drift_alpha_hz)[0]
    assert (nominal - e) / t_sym == pytest.approx(0.8, rel=0.01)
    i_rx = int(round(e * RATE))
    i_nom = nominal * RATE
    lo = int(i_nom)
    frac = i_nom - lo
    expect = (1 - frac) * tmpl.samples[lo] + frac * tmpl.samples[lo + 1]
    assert warped.samples[i_rx] == pytest.approx(expect, abs=1e-9)


def test_clock_warp_matches_numerical_integration():
    rng = np.random.default_rng(5)
    drift = wf.random_walk_drift(160, rng)
    pkt = wf.TagPacket(rn16_bits=tuple(rng.integers(0, 2, 16)),
                       epc_bits=tuple(rng.integers(0, 2, 96)),
                       alpha0_hz=0.05 * BLF, drift_alpha_hz=drift)
    # independent oracle: dense trapezoidal integration of the step function
    t_fine = np.linspace(0, 160 * wf.SYMBOL_S, 400001)
    idx = np.minimum((t_fine / wf.SYMBOL_S).astype(int), len(drift) - 1)
    alpha_fine = np.asarray(drift)[idx]
    rate_fine = 1.0 - (pkt.alpha0_hz + alpha_fine) / BLF
    nominal_oracle = np.concatenate(
        [[0.0], np.cumsum((rate_fine[1:] + rate_fine[:-1]) / 2 * np.diff(t_fine))])
    probe = np.linspace(0, 160 * wf.SYMBOL_S * 0.999, 57)
    got = wf.clock_map(probe, pkt.alpha0_hz, pkt.drift_alpha_hz)
    expect = np.interp(probe, t_fine, nominal_oracle)
    assert np.allclose(got, expect, atol=2e-9)


def test_clock_offset_preserves_transition_count():
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, 64)
    wave = wf.miller_encode(bits, BLF, RATE)
    pkt = wf.TagPacket(rn16_bits=tuple(rng.integers(0, 2, 16)),
                       epc_bits=tuple(rng.integers(0, 2, 96)),
                       alpha0_hz=0.05 * BLF,
                       drift_alpha_hz=wf.random_walk_drift(80, rng))
    warped = wf.apply_clock_offset(wave, pkt)
    crisp = np.sign(np.real(wave.samples))
    resampled = np.real(warped.samples)
    resampled = resampled[np.abs(resampled) > 0.5]
    count = lambda x: int(np.sum(np.sign(x[1:]) != np.sign(x[:-1])))
    assert count(resampled) == count(crisp)


def test_out_of_tolerance_rejected():
    with pytest.raises(ModelError):
        wf.TagPacket(rn16_bits=(0,) * 16, epc_bits=(0,) * 96, alpha0_hz=0.11 * BLF)


# --- backscatter mixing ------------------------------------------------------

def _one_tone_setup(h_value):
    plan = cs.CarrierPlan(carriers_hz=(887e6,), tone_phases_rad=(0.7,),
                          per_tone_power_dbm=-15.0, capture_rate_hz=15.36e6,
                          channel_out_rate_hz=2.56e6, capture_center_hz=887e6,
                          tone_offsets_hz=(1.0e6,))
    geom = cs.ArrayGeometry(rx_positions_m=((0.0, 0.0, 0.0),),
                            tx_wideband_position_m=(0.0, -1.0, 0.0),
                            tx_ism_position_m=(0.0, -1.0, 0.0))
    ch = cs.ChannelMatrix(h=np.array([[h_value]]), carriers_hz=plan.carriers_hz,
                          geometry=geom)
    exc = cs.synth_multisine(plan, 2e-4)
    return plan, ch, exc


def test_mix_transparent_tag():
    plan, ch, exc = _one_tone_setup(1.0 + 0.0j)
    tag = wf.BasebandWave(samples=np.ones(exc.samples.size), rate_hz=exc.rate_hz)
    out = cs.backscatter_mix(plan, exc.samples.size, tag, ch, 0)
    assert np.allclose(out.samples, exc.samples, atol=1e-12)


def test_mix_phase_rotation():
    plan, ch, exc = _one_tone_setup(np.exp(0.5j * math.pi))
    tag = wf.BasebandWave(samples=np.ones(exc.samples.size), rate_hz=exc.rate_hz)
    out = cs.backscatter_mix(plan, exc.samples.size, tag, ch, 0)
    assert np.allclose(out.samples, exc.samples * np.exp(0.5j * math.pi), atol=1e-12)


def test_mix_linear_in_channel():
    plan = default_carrier_plan()
    geom = cs.default_array_geometry()
    rng = np.random.default_rng(8)
    h1 = (rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16)))
    h2 = (rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16)))
    n = int(round(1e-4 * plan.capture_rate_hz))
    tag = wf.BasebandWave(samples=np.sign(rng.standard_normal(n)).astype(complex),
                          rate_hz=plan.capture_rate_hz)
    mk = lambda h: cs.ChannelMatrix(h=h, carriers_hz=plan.carriers_hz, geometry=geom)
    a = cs.backscatter_mix(plan, n, tag, mk(h1), 2).samples
    b = cs.backscatter_mix(plan, n, tag, mk(h2), 2).samples
    ab = cs.backscatter_mix(plan, n, tag, mk(h1 + h2), 2).samples
    scale = np.max(np.abs(ab))
    assert np.max(np.abs(ab - (a + b))) / scale < 1e-12


def test_mix_rate_mismatch_rejected():
    plan, ch, exc = _one_tone_setup(1.0)
    tag = wf.BasebandWave(samples=np.ones(100), rate_hz=exc.rate_hz * 2)
    with pytest.raises(ModelError):
        cs.backscatter_mix(plan, exc.samples.size, tag, ch, 0)


@pytest.mark.parametrize("rate_hz, start_s, message", [
    (RATE, math.nan, "wave start_s must be finite"),
    (RATE, math.inf, "wave start_s must be finite"),
    (math.nan, 0.0, "sample rate must be positive"),
], ids=["nan_start", "infinite_start", "nan_rate"])
def test_wave_rejects_a_non_finite_start_or_rate(rate_hz, start_s, message):
    # a sidecar's NaN start or rate had loaded into a wave
    with pytest.raises(ModelError, match=message):
        wf.BasebandWave(samples=np.ones(16), rate_hz=rate_hz, start_s=start_s)


# --- Gen2 framing helpers ----------------------------------------------------

def test_crc16_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(20):
        epc = tuple(rng.integers(0, 2, 96))
        reply = wf.epc_reply_bits(epc)
        assert len(reply) == 128
        decoded, ok = wf.check_epc_reply(reply)
        assert ok and tuple(decoded) == epc
        corrupt = list(reply)
        corrupt[int(rng.integers(0, 128))] ^= 1
        _, ok2 = wf.check_epc_reply(corrupt)
        assert not ok2


def test_pc_word_encodes_length():
    assert wf.pc_word(96)[:5] == [0, 0, 1, 1, 0]
    with pytest.raises(ModelError):
        wf.pc_word(95)


# --- file format -------------------------------------------------------------

def test_wave_file_round_trip(tmp_path, plan):
    wave = cs.synth_multisine(plan, 1e-4)
    path = tmp_path / "excitation.cf32"
    wf.save_wave(wave, path)
    back = wf.load_wave(path)
    assert back.rate_hz == wave.rate_hz
    assert np.allclose(back.samples, wave.samples, atol=1e-6)
    raw = np.frombuffer(path.read_bytes(), dtype="<f4")
    assert raw.size == 2 * wave.samples.size


@pytest.mark.parametrize("key", ["rate_hz", "start_s"])
@pytest.mark.parametrize("value", ["2560000.0", False, None])
def test_load_wave_refuses_a_rate_or_start_that_is_not_a_number(tmp_path, key, value):
    # float() had read "2560000.0" as a rate and false as a start of 0 s
    path = wf.save_wave(wf.BasebandWave(samples=np.ones(16), rate_hz=RATE),
                        tmp_path / "x.cf32")
    sidecar = tmp_path / "x.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
    with pytest.raises(ModelError, match=f"^{re.escape(str(sidecar))}: sidecar {key} .* "
                                         "is not a number"):
        wf.load_wave(path)


@pytest.mark.parametrize("value", [True, 16.0, "16", None])
def test_load_wave_refuses_a_sample_count_that_is_not_an_integer(tmp_path, value):
    # a comparison with the file's count had read true as 1 and 16.0 as 16
    n = 1 if value is True else 16
    path = wf.save_wave(wf.BasebandWave(samples=np.ones(n), rate_hz=RATE), tmp_path / "x.cf32")
    sidecar = tmp_path / "x.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "n_samples": value}))
    with pytest.raises(ModelError, match=f"^{re.escape(str(sidecar))}: sidecar n_samples "
                                         ".* is not an integer"):
        wf.load_wave(path)


@pytest.mark.parametrize("key, value, message", [
    ("start_s", math.nan, "wave start_s must be finite"),
    ("start_s", -math.inf, "wave start_s must be finite"),
    ("rate_hz", -5, "sample rate must be positive"),
    ("rate_hz", 0, "sample rate must be positive"),
    ("n_samples", 17, "sample count does not match sidecar"),
], ids=["nan_start", "infinite_start", "negative_rate", "zero_rate", "sample_count"])
def test_load_wave_names_the_file_in_every_error(tmp_path, key, value, message):
    # a value the sidecar holds names the sidecar; the count names the data file
    path = wf.save_wave(wf.BasebandWave(samples=np.ones(16), rate_hz=RATE),
                        tmp_path / "x.cf32")
    sidecar = tmp_path / "x.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
    with pytest.raises(ModelError) as err:
        wf.load_wave(path)
    assert str(err.value) == f"{path if key == 'n_samples' else sidecar}: {message}"


def test_synthesis_bit_reproducible():
    rng1 = np.random.default_rng(77)
    rng2 = np.random.default_rng(77)
    d1 = wf.random_walk_drift(50, rng1)
    d2 = wf.random_walk_drift(50, rng2)
    assert d1 == d2
