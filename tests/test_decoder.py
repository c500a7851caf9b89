"""Synchronization, clock tracking, combining, Viterbi and pipeline tests."""

import hashlib
import itertools
import math

import numpy as np
import pytest

import chordsim as cs
from chordsim import channelizer as chz
from chordsim import decoder as dc
from chordsim import locator as loc
from chordsim import waveform as wf
from chordsim.harness import SceneSpec, simulate_capture, single_path_tag, random_epc
from chordsim.model import (ModelError, Scene, default_array_geometry, default_carrier_plan,
                            subset_geometry)

RATE = 2.56e6
BLF = 250e3
LAYOUT = wf.packet_layout(96)


@pytest.fixture(scope="module")
def plan():
    return default_carrier_plan()


@pytest.fixture(scope="module")
def geom():
    return default_array_geometry()


def _shaped_packet(pkt, plan, noise_snr_db=None, rng=None, tail_s=0.5e-3):
    """Channel-rate stream of one packet as the channelizer would deliver it."""
    wave = wf.build_packet_baseband(pkt, plan.capture_rate_hz)
    pad = np.concatenate([wave.samples,
                          np.zeros(int(tail_s * plan.capture_rate_hz), dtype=complex)])
    ref = chz.processed_tag_baseband(
        wf.BasebandWave(samples=pad, rate_hz=plan.capture_rate_hz), plan)
    x = ref.samples.copy()
    if noise_snr_db is not None:
        active = np.abs(x) > 0.1
        sig = float(np.mean(np.abs(x[active]) ** 2))
        x += (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)) \
            * math.sqrt(sig / 10 ** (noise_snr_db / 10) / 2)
    return x


def _packet(rng, **kw):
    return wf.TagPacket(rn16_bits=tuple(rng.integers(0, 2, 16)),
                        epc_bits=tuple(rng.integers(0, 2, 96)), **kw)


def _true_sync(pkt, alpha0_hat_hz):
    # sync at the packet's true start; the EPC preamble time is nominal
    return dc.SyncEstimate(t0_hat_s=pkt.t0_s, alpha0_hat_hz=alpha0_hat_hz, correlation_peak=1.0,
                           epc_t0_hat_s=pkt.t0_s + LAYOUT.epc_start_s,
                           epc_alpha_hat_hz=alpha0_hat_hz)


# --- preamble search ---------------------------------------------------------

def test_preamble_noiseless_exact(plan):
    rng = np.random.default_rng(0)
    pkt = _packet(rng, t0_s=0.8e-3)
    x = _shaped_packet(pkt, plan)
    sync = dc.preamble_search(x, RATE)
    assert abs(sync.t0_hat_s - pkt.t0_s) * RATE < 0.1
    assert abs(sync.epc_t0_hat_s - (pkt.t0_s + LAYOUT.epc_start_s)) * RATE < 0.1
    assert abs(sync.alpha0_hat_hz) < 0.0005 * BLF
    assert abs(sync.epc_alpha_hat_hz) < 0.0005 * BLF
    assert sync.correlation_peak > 0.7


def test_preamble_injected_offsets(plan):
    rng = np.random.default_rng(1)
    t0 = 100 / RATE
    pkt = _packet(rng, t0_s=t0, alpha0_hz=0.02 * BLF)
    x = _shaped_packet(pkt, plan, noise_snr_db=20.0, rng=rng)
    sync = dc.preamble_search(x, RATE)
    assert abs(sync.t0_hat_s - t0) * RATE <= 1.0
    assert abs(sync.alpha0_hat_hz - pkt.alpha0_hz) <= 0.0025 * BLF


def test_preamble_pure_noise_no_packet():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14)
    with pytest.raises(dc.NoPacketError):
        dc.preamble_search(x, RATE)


def test_preamble_stream_shorter_than_template():
    # 200 samples cannot hold the 328-sample preamble template
    with pytest.raises(dc.DecodeError, match="shorter than") as info:
        dc.preamble_search(np.ones(200, dtype=complex), RATE)
    assert info.value.stage == "preamble_search"


def test_preamble_rate_precondition():
    with pytest.raises(ModelError):
        dc.preamble_search(np.zeros(4096, dtype=complex), 3 * BLF)


# --- PLL ---------------------------------------------------------------------

def test_pll_static_clock(plan):
    rng = np.random.default_rng(3)
    pkt = _packet(rng, t0_s=0.5e-3)
    x = _shaped_packet(pkt, plan, noise_snr_db=25.0, rng=rng)
    sync = _true_sync(pkt, 0.0)
    track = dc.pll_track(x, RATE, sync, n_symbols=LAYOUT.rn16_frame_symbols)
    assert track.lock_flag
    assert np.max(np.abs(track.alpha_t_hz[2:])) < 0.0005 * BLF * 2.5


def test_pll_linear_drift_tracked(plan):
    # continuous 140-symbol reply (the loop freezes in signal-free gaps, so
    # the per-symbol trajectory contract applies where the subcarrier exists)
    rng = np.random.default_rng(4)
    n_sym = 140
    drift = tuple(np.linspace(0, 0.02 * BLF, n_sym + 10))
    pkt = _packet(rng, t0_s=0.5e-3, drift_alpha_hz=drift)
    frame = wf.miller_encode(rng.integers(0, 2, n_sym - len(wf.PREAMBLE_BITS)),
                             BLF, plan.capture_rate_hz, preamble=True)
    warped = wf.apply_clock_offset(frame, pkt)
    pad = np.concatenate([warped.samples, np.zeros(int(0.5e-3 * plan.capture_rate_hz))])
    x = chz.processed_tag_baseband(
        wf.BasebandWave(samples=pad, rate_hz=plan.capture_rate_hz), plan).samples
    sync = _true_sync(pkt, 0.0)
    track = dc.pll_track(x, RATE, sync, n_symbols=n_sym)
    # injected-trajectory oracle: the tracked curve follows within 0.3% of BLF
    err = np.abs(track.alpha_t_hz[5:n_sym - 5] - np.asarray(drift)[5:n_sym - 5])
    assert np.max(err) < 0.003 * BLF


def test_pll_slew_beyond_bandwidth_drops_lock(plan):
    rng = np.random.default_rng(5)
    n_sym = 150
    # square-wave drift toggling every two symbols, far above the loop rate
    drift = tuple(0.02 * BLF * (1 - 2 * ((np.arange(n_sym) // 2) % 2)))
    pkt = _packet(rng, t0_s=0.5e-3, drift_alpha_hz=drift)
    x = _shaped_packet(pkt, plan, tail_s=1.5e-3)
    sync = _true_sync(pkt, 0.0)
    track = dc.pll_track(x, RATE, sync, n_symbols=n_sym)
    assert not track.lock_flag


@pytest.mark.parametrize("snr_db, digest", [(10.0, "e32f0d4c59d042ba"),
                                              (-5.0, "14502b634fff16e4"),
                                              (30.0, "5ed010df39683011")])
def test_pll_known_answer(plan, snr_db, digest):
    # both replies of a drifting packet; alpha is rounded to 1 uHz, so a
    # last-place change in a BLAS or FFT build does not move the digest
    rng = np.random.default_rng(41)
    drift = np.linspace(0, 0.015 * BLF, 200)
    pkt = _packet(rng, t0_s=0.5e-3, alpha0_hz=-0.04 * BLF, drift_alpha_hz=tuple(drift))
    x = _shaped_packet(pkt, plan, noise_snr_db=snr_db, rng=rng)
    # each reply anchored at its true start and clock
    elapsed = np.linspace(0.0, 1e-3, 100001)
    epc_s = np.interp(LAYOUT.epc_start_s, wf.clock_map(elapsed, pkt.alpha0_hz, drift), elapsed)
    sync = dc.SyncEstimate(t0_hat_s=pkt.t0_s, alpha0_hat_hz=pkt.alpha0_hz, correlation_peak=1.0,
                           epc_t0_hat_s=pkt.t0_s + epc_s,
                           epc_alpha_hat_hz=pkt.alpha0_hz + drift[int(epc_s / wf.SYMBOL_S)])
    tracks = dc.track_packet_clock(x, RATE, sync, LAYOUT)
    text = repr([(np.round(t.alpha_t_hz, 6).tolist(), t.lock_flag) for t in tracks])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# --- clock compensation ------------------------------------------------------

def test_compensate_identity(plan):
    rng = np.random.default_rng(6)
    pkt = _packet(rng, t0_s=0.5e-3)
    x = _shaped_packet(pkt, plan)
    sync = _true_sync(pkt, 0.0)
    track = dc.ClockTrack(alpha_t_hz=np.zeros(170), lock_flag=True)
    comp = dc.compensate_clock(x, RATE, sync, track, duration_s=LAYOUT.total_s)
    i0 = int(round(pkt.t0_s * RATE))
    direct = x[i0:i0 + comp.size]
    err = np.sum(np.abs(comp - direct) ** 2) / np.sum(np.abs(direct) ** 2)
    assert 10 * math.log10(err + 1e-30) < -60.0


def test_compensate_constant_offset_correlation(plan):
    rng = np.random.default_rng(7)
    pkt = _packet(rng, t0_s=0.5e-3, alpha0_hz=0.025 * BLF)
    x = _shaped_packet(pkt, plan)
    sync = _true_sync(pkt, pkt.alpha0_hz)
    track = dc.ClockTrack(alpha_t_hz=np.zeros(190), lock_flag=True)
    comp = dc.compensate_clock(x, RATE, sync, track, duration_s=LAYOUT.total_s)
    tmpl = chz.apply_shaping(wf.packet_template(pkt, RATE), RATE).samples.real
    n = min(comp.size, tmpl.size)
    rho = abs(np.vdot(tmpl[:n], comp[:n])) / (np.linalg.norm(comp[:n]) * np.linalg.norm(tmpl[:n]))
    assert rho >= 0.99


def test_compensate_residual_matches_trajectory_difference(plan):
    # the residual timing error equals the integral of (injected - tracked),
    # computed here by an independent trapezoidal quadrature
    rng = np.random.default_rng(8)
    drift = wf.random_walk_drift(170, rng)
    pkt = _packet(rng, t0_s=0.5e-3, drift_alpha_hz=drift)
    sync = _true_sync(pkt, 0.0)
    tracked = np.asarray(drift) + rng.normal(0, 50.0, len(drift))
    track = dc.ClockTrack(alpha_t_hz=tracked, lock_flag=True)
    probe = np.linspace(0, 150 * wf.SYMBOL_S, 23)
    est_map = wf.clock_map(probe, sync.alpha0_hat_hz, track.alpha_t_hz)
    true_map = wf.clock_warp(probe, pkt)
    resid = est_map - true_map
    t_fine = np.linspace(0, probe[-1], 200001)
    idx = np.minimum((t_fine / wf.SYMBOL_S).astype(int), len(drift) - 1)
    delta = (np.asarray(drift)[idx] - tracked[idx]) / BLF
    oracle = np.concatenate([[0.0], np.cumsum((delta[1:] + delta[:-1]) / 2 * np.diff(t_fine))])
    expect = np.interp(probe, t_fine, oracle)
    assert np.allclose(resid, expect, atol=1e-9)


def test_full_chain_residual_timing_under_five_percent(plan):
    rng = np.random.default_rng(9)
    drift = wf.random_walk_drift(190, rng)
    pkt = _packet(rng, t0_s=0.8e-3, alpha0_hz=-0.05 * BLF, drift_alpha_hz=drift)
    x = _shaped_packet(pkt, plan, noise_snr_db=22.0, rng=rng, tail_s=1.2e-3)
    sync = dc.preamble_search(x, RATE)
    tr1, tr2 = dc.track_packet_clock(x, RATE, sync, LAYOUT)
    e = np.arange(0, LAYOUT.total_s * 1.08, 4 / RATE)
    # each reply maps from its own anchor onto its own nominal span
    replies = ((sync.t0_hat_s, sync.alpha0_hat_hz, tr1, 0.0, LAYOUT.rn16_s),
               (sync.epc_t0_hat_s, sync.epc_alpha_hat_hz, tr2, LAYOUT.epc_start_s,
                LAYOUT.total_s))
    offset = None
    for t_anchor, alpha_anchor, track, nom_lo, nom_hi in replies:
        est_map = nom_lo + wf.clock_map(e, alpha_anchor, track.alpha_t_hz)
        true_map = wf.clock_warp(e + (t_anchor - pkt.t0_s), pkt)
        inside = (true_map >= nom_lo) & (true_map <= nom_hi)
        resid = est_map - true_map
        if offset is None:
            # the packet's common start offset, as the RN16 anchor sees it
            offset = resid[0]
        resid -= offset
        # residual timing error below 5% of a subcarrier period throughout
        assert np.max(np.abs(resid[inside])) < 0.05 / BLF


def test_epc_preamble_clock_follows_the_drift(plan):
    # the EPC preamble's clock is its own: drift moves it away from alpha0
    pre_s = len(wf.PREAMBLE_BITS) * wf.SYMBOL_S
    e = np.arange(0, LAYOUT.total_s * 1.2, 0.01 / RATE)
    for seed in range(9, 29):
        rng = np.random.default_rng(seed)
        drift = wf.random_walk_drift(190, rng)
        alpha0 = (-0.05, 0.0, 0.05)[seed % 3] * BLF
        pkt = _packet(rng, t0_s=0.8e-3, alpha0_hz=alpha0, drift_alpha_hz=drift)
        x = _shaped_packet(pkt, plan, noise_snr_db=22.0, rng=rng, tail_s=1.2e-3)
        sync = dc.preamble_search(x, RATE)
        # received span of the EPC preamble, from the packet's true clock map
        e_a, e_b = np.interp([LAYOUT.epc_start_s, LAYOUT.epc_start_s + pre_s],
                             wf.clock_warp(e, pkt), e)
        true_alpha = BLF * (1.0 - pre_s / (e_b - e_a))
        assert abs(sync.epc_alpha_hat_hz - true_alpha) < 0.003 * BLF


def test_epc_preamble_past_the_stream_end_raises(plan):
    rng = np.random.default_rng(9)
    pkt = _packet(rng, t0_s=0.8e-3)
    x = _shaped_packet(pkt, plan, noise_snr_db=22.0, rng=rng, tail_s=1.2e-3)
    i0 = int(round(pkt.t0_s * RATE))
    i2 = int(round((pkt.t0_s + LAYOUT.epc_start_s) * RATE))
    # the stream ends inside the RN16 reply: no EPC window to pair with
    with pytest.raises(dc.DecodeError, match="EPC preamble outside the stream"):
        dc.preamble_search(x[i0 - 100:i0 + 800], RATE)
    # the stream ends inside the EPC preamble: the preamble found at its
    # time and clock runs past the stream end
    with pytest.raises(dc.DecodeError, match="preamble_search: EPC preamble outside"):
        dc.preamble_search(x[:i2 + 250], RATE)


def test_sync_bank_alpha0_row_is_the_nominal_template():
    nfft = 1 << 14
    spectra, lengths, norms = dc._sync_bank(RATE, nfft)
    (k,) = np.flatnonzero(dc._SYNC_ALPHAS_HZ == 0.0)
    tmpl = dc._preamble_template(BLF, RATE)
    assert np.array_equal(spectra[k], np.conj(np.fft.fft(tmpl, nfft)))
    assert lengths[k] == tmpl.size and norms[k] == math.sqrt(float(np.sum(tmpl ** 2)))


def test_sync_bank_built_once_per_length_and_read_only(plan, geom):
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(np.random.default_rng(26)))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=18.0, t0_s=1.0e-3)
    dc._sync_bank.cache_clear()
    lengths = set()
    for seed in range(3):
        banks, _, _ = simulate_capture(spec, plan, geom, seed=seed, fast_path=True)
        lengths.add(banks[0].n_samples)
        dc.decode_pipeline([chz.notch_dc(b) for b in banks], plan, geom)
    assert len(lengths) == 1
    assert dc._sync_bank.cache_info().misses == 1
    for cached in dc._sync_bank(RATE, 1 << 14) + dc._sync_templates(RATE):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0


# --- combining ---------------------------------------------------------------

def test_msnr_single_antenna_identity():
    x = np.arange(32, dtype=complex)[None, :]
    out, w, loaded = dc.msnr_combine(x, np.eye(1))
    assert np.allclose(out, x[0])
    assert np.allclose(w, [1.0]) and not loaded


def test_msnr_two_equal_antennas_gain():
    rng = np.random.default_rng(10)
    n = 40000
    sig = np.exp(2j * math.pi * 0.05 * np.arange(n))
    snr = 1.0  # 0 dB per antenna
    noise = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) / math.sqrt(2)
    x = sig[None, :] + noise / math.sqrt(snr)
    rn = np.eye(2) / snr
    out, w, _ = dc.msnr_combine(x, rn)
    gain = np.abs(np.vdot(sig, out)) / n
    resid = out - (np.vdot(sig, out) / n) * sig
    snr_out = gain ** 2 / np.mean(np.abs(resid) ** 2)
    assert 10 * math.log10(snr_out) == pytest.approx(10 * math.log10(2 * snr), abs=0.5)


def test_msnr_jammer_suppression():
    rng = np.random.default_rng(11)
    n = 60000
    k = 4
    sig = np.exp(2j * math.pi * 0.04 * np.arange(n))
    a_sig = np.exp(1j * np.array([0.0, 0.7, 1.4, 2.1]))
    a_jam = np.exp(1j * np.array([0.0, -1.0, -2.0, -3.0]))
    jam = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
    noise = 0.1 * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / math.sqrt(2)
    jam_amp = math.sqrt(10.0)  # jammer 10 dB above signal
    pre = jam_amp * a_jam[:, None] * jam[None, :] + noise  # signal-free segment
    x = a_sig[:, None] * sig[None, :] + jam_amp * a_jam[:, None] * jam[None, :] + noise
    rn = pre @ pre.conj().T / n
    out, w, _ = dc.msnr_combine(x, rn)

    def sir(stream):
        g = np.vdot(sig, stream) / n
        jam_part = np.vdot(jam, stream) / n
        return 10 * math.log10(abs(g) ** 2 / (abs(jam_part) ** 2 + 1e-30))

    best_single = max(sir(x[i]) for i in range(k))
    combined = sir(out)
    assert combined - best_single >= 15.0


def test_msnr_singular_covariance_loaded():
    x = np.ones((2, 64), dtype=complex)
    rn = np.zeros((2, 2), dtype=complex)
    out, w, loaded = dc.msnr_combine(x, rn)
    assert loaded


def test_msnr_never_below_best_input():
    # output SNR at least the best single antenna's, to combining-estimate
    # tolerance, on every random trial
    n = 30000
    for trial in range(5):
        rng = np.random.default_rng(50 + trial)
        k = 4
        sig = np.exp(2j * math.pi * 0.03 * np.arange(n))
        steer = np.exp(1j * rng.uniform(-math.pi, math.pi, k))
        snrs = 10 ** (rng.uniform(-3, 10, k) / 10)
        noise = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / math.sqrt(2)
        x = steer[:, None] * sig[None, :] + noise / np.sqrt(snrs)[:, None]
        rn = np.diag(1.0 / snrs).astype(complex)
        out, _, _ = dc.msnr_combine(x, rn)

        def snr_of(stream):
            g = np.vdot(sig, stream) / n
            resid = stream - g * sig
            return 10 * math.log10(abs(g) ** 2 / np.mean(np.abs(resid) ** 2))

        best = max(snr_of(x[i]) for i in range(k))
        assert snr_of(out) >= best - 0.5


def test_mrc_identity_and_additivity():
    rng = np.random.default_rng(12)
    n = 30000
    sig = np.sign(rng.standard_normal(n)).astype(complex)

    def make(snr_lin, phase):
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        return np.exp(1j * phase) * sig + noise / math.sqrt(snr_lin)

    # L = 1 identity
    one = dc.mrc_combine(sig[None, :], [1.0], [1.0])
    assert np.allclose(one, sig)

    for l_count in (2, 4, 16):
        snr = 1.0
        streams = np.stack([make(snr, 0.3 * i) for i in range(l_count)])
        gains = np.exp(1j * 0.3 * np.arange(l_count))
        out = dc.mrc_combine(streams, gains, [1.0 / snr] * l_count)
        g = np.vdot(sig, out) / n
        resid = out - g * sig
        snr_out = abs(g) ** 2 / np.mean(np.abs(resid) ** 2)
        expect_db = 10 * math.log10(l_count * snr)
        assert 10 * math.log10(snr_out) == pytest.approx(expect_db, abs=0.5)


def test_mrc_scale_invariant_direction():
    rng = np.random.default_rng(13)
    n = 4096
    streams = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    gains = np.array([1.0, 0.5 + 0.2j, 0.8j])
    nv = np.array([1.0, 2.0, 0.5])
    base = dc.mrc_combine(streams, gains, nv)
    c = 3.7 - 1.2j
    scaled = streams.copy()
    scaled[1] *= c
    g2 = gains.copy()
    g2[1] *= c
    nv2 = nv.copy()
    nv2[1] *= abs(c) ** 2
    out = dc.mrc_combine(scaled, g2, nv2)
    assert np.max(np.abs(out / np.linalg.norm(out) - base / np.linalg.norm(base))) < 1e-9


# --- Viterbi -----------------------------------------------------------------

def _symbol_corr_table(y, n_bits, first_symbol, frame_start, sign):
    t_sym = 4 / BLF
    starts = dc._symbol_windows(frame_start, first_symbol, n_bits, t_sym, RATE, y.size)
    t0l, t1l = dc._symbol_templates(frame_start, first_symbol, n_bits, RATE, starts)
    c = np.zeros((n_bits, 2))
    for i in range(n_bits):
        seg = np.real(y[starts[i]:starts[i + 1]])
        c[i, 0] = np.dot(seg, t0l[i])
        c[i, 1] = np.dot(seg, t1l[i])
    return c


def _exhaustive_ml(y, n_bits, first_symbol, frame_start, entering_sign):
    """Score every bit sequence with the same per-symbol correlations."""
    c = _symbol_corr_table(y, n_bits, first_symbol, frame_start, entering_sign)
    best, best_bits = -np.inf, None
    for bits in itertools.product((0, 1), repeat=n_bits):
        s = entering_sign
        metric = 0.0
        for i, b in enumerate(bits):
            metric += s * c[i, b]
            s = s if b else -s
        if metric > best:
            best, best_bits = metric, list(bits)
    return best_bits


def test_viterbi_noiseless_recovery():
    rng = np.random.default_rng(14)
    bits = list(rng.integers(0, 2, 96))
    frame = wf.miller_encode(bits, BLF, RATE, preamble=True)
    sign0 = dc._sign_after(wf.PREAMBLE_BITS)
    got, metric = dc.viterbi_decode(frame.samples, RATE, 0.0, LAYOUT.preamble_symbols,
                                    96, sign0)
    assert got == bits
    assert metric > 0.9


def test_viterbi_equals_exhaustive_ml():
    rng = np.random.default_rng(15)
    sign0 = dc._sign_after(wf.PREAMBLE_BITS)
    mismatches = 0
    for trial in range(120):
        n_bits = int(rng.integers(2, 11))
        bits = list(rng.integers(0, 2, n_bits))
        frame = wf.miller_encode(bits, BLF, RATE, preamble=True)
        x = frame.samples + (rng.standard_normal(frame.samples.size)
                             + 1j * rng.standard_normal(frame.samples.size)) / math.sqrt(2) / math.sqrt(2.0)
        got, _ = dc.viterbi_decode(x, RATE, 0.0, LAYOUT.preamble_symbols, n_bits, sign0)
        oracle = _exhaustive_ml(x, n_bits, LAYOUT.preamble_symbols, 0.0, sign0)
        mismatches += got != oracle
    assert mismatches == 0


def test_viterbi_ber_monotone_in_snr():
    rng = np.random.default_rng(16)
    sign0 = dc._sign_after(wf.PREAMBLE_BITS)
    bers = []
    for snr_db in (-14.0, -10.0, -6.0, -2.0):
        errors = 0
        total = 0
        for _ in range(60):
            bits = list(rng.integers(0, 2, 12))
            frame = wf.miller_encode(bits, BLF, RATE, preamble=True)
            sig = frame.samples
            n = sig.size
            noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
            x = sig + noise / math.sqrt(10 ** (snr_db / 10))
            got, _ = dc.viterbi_decode(x, RATE, 0.0, LAYOUT.preamble_symbols, 12, sign0)
            errors += sum(a != b for a, b in zip(got, bits))
            total += 12
        bers.append(errors / total)
    # monotone non-increasing within one standard error
    for a, b in zip(bers, bers[1:]):
        se = math.sqrt(max(a, 1e-4) * (1 - min(a, 0.999)) / 720)
        assert b <= a + se


# --- full-packet channel estimation ------------------------------------------

def test_full_packet_estimate_noiseless_phase(plan, geom):
    rng = np.random.default_rng(17)
    tag = single_path_tag((0.4, 3.0, 1.11), random_epc(rng))
    scene = Scene(tags=(tag,))
    spec = SceneSpec(scene=scene, snr_db=60.0, leak_db=None, t0_s=0.8e-3)
    banks, pkt, h = simulate_capture(spec, plan, geom, seed=21, fast_path=True)
    banks = [chz.notch_dc(b) for b in banks]
    est = dc.decode_pipeline(banks, plan, geom).channel
    err = np.abs(np.angle(est.h * np.conj(h.h)))
    assert np.max(err) < 1e-3
    for k in (0, 7):
        for l in (0, 15):
            theta = cs.theoretical_phase(tag.position_m, k, l, geom, plan)
            assert np.angle(est.h[k, l]) == pytest.approx(
                float(cs.model.wrap_phase(-theta)), abs=2e-3)


@pytest.mark.parametrize("snr_db", [10.0, 300.0])
def test_packet_estimate_matches_the_gathered_residual(plan, geom, snr_db):
    rng = np.random.default_rng(19)
    pkt = _packet(rng)
    tmpl = chz.apply_shaping(wf.packet_template(pkt, RATE), RATE).samples.real
    k = geom.n_antennas * plan.n_carriers
    h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    comp = np.outer(h, tmpl) + (rng.standard_normal((k, tmpl.size)) + 1j * rng.standard_normal(
        (k, tmpl.size))) * math.sqrt(10 ** (-snr_db / 10) / 2)
    est = dc._packet_estimate(comp, pkt.rn16_bits, pkt.epc_bits, RATE, plan, geom)
    # reference: the residual gathered over the active samples
    active = np.abs(tmpl) > 0.1
    h_ref = (comp @ tmpl) / float(np.sum(tmpl ** 2))
    resid = comp[:, active] - h_ref[:, None] * tmpl[active]
    snr_ref = 10 * np.log10(np.abs(h_ref) ** 2 * float(np.mean(tmpl[active] ** 2))
                            / (np.mean(np.abs(resid) ** 2, axis=1) + 1e-30))
    assert np.array_equal(est.h.ravel(), h_ref)
    assert np.max(np.abs(est.quality.ravel() - snr_ref)) < 1e-12
    assert np.median(snr_ref) > snr_db - 6


def test_integration_gain_template_length_scaling(plan, geom):
    # var(phase) ~ 1/template-length: log-log slope -1 over 4 lengths
    rng = np.random.default_rng(18)
    pkt = _packet(rng)
    tmpl = chz.apply_shaping(wf.packet_template(pkt, RATE), RATE).samples.real
    lengths = [4000, 8000, 16000, 32000]
    variances = []
    for n in lengths:
        t = tmpl[:n] if n <= tmpl.size else np.tile(tmpl, n // tmpl.size + 1)[:n]
        e = float(np.sum(t ** 2))
        phases = []
        for _ in range(400):
            noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 1.0
            h_est = np.dot(t + 0j, t) / e + np.dot(noise, t) / e
            phases.append(np.angle(h_est))
        variances.append(np.var(phases))
    slope = np.polyfit(np.log(lengths), np.log(variances), 1)[0]
    r = np.corrcoef(np.log(lengths), np.log(variances))[0, 1]
    assert slope == pytest.approx(-1.0, abs=0.2)
    assert r ** 2 >= 0.98


def test_two_path_estimate_matches_forward_model(plan, geom):
    rng = np.random.default_rng(19)
    from chordsim.harness import multipath_tag
    tag = multipath_tag((0.3, 2.5, 1.11), random_epc(rng), (1.1, 3.4, 1.11), 0.5)
    scene = Scene(tags=(tag,))
    spec = SceneSpec(scene=scene, snr_db=30.0, leak_db=20.0, t0_s=0.9e-3)
    banks, pkt, h = simulate_capture(spec, plan, geom, seed=5, fast_path=True)
    banks = [chz.notch_dc(b) for b in banks]
    packet = dc.decode_pipeline(banks, plan, geom)
    err = np.abs(packet.channel.h - h.h)
    assert np.max(err) / np.max(np.abs(h.h)) < 0.05


# --- pipeline ----------------------------------------------------------------

def test_pipeline_end_to_end_clean(plan, geom):
    rng = np.random.default_rng(20)
    tag = single_path_tag((0.4, 3.0, 1.11), random_epc(rng))
    scene = Scene(tags=(tag,))
    spec = SceneSpec(scene=scene, snr_db=18.0, leak_db=20.0)
    banks, pkt, h = simulate_capture(spec, plan, geom, seed=42, fast_path=True)
    banks = [chz.notch_dc(b) for b in banks]
    packet = dc.decode_pipeline(banks, plan, geom)
    assert packet.crc_ok
    assert packet.epc_bits == tag.epc_bits
    assert packet.rn16_bits == pkt.rn16_bits
    assert packet.channel.quality.shape == (8, 16)


def test_pipeline_no_tag_raises_no_packet(plan, geom):
    rng = np.random.default_rng(21)
    streams = 0.05 * (rng.standard_normal((16, 9000)) + 1j * rng.standard_normal((16, 9000)))
    banks = [chz.ChannelBank(streams=streams * np.exp(1j * k), rate_hz=plan.channel_out_rate_hz,
                             carriers_hz=plan.carriers_hz, antenna_id=k)
             for k in range(geom.n_antennas)]
    with pytest.raises(dc.NoPacketError):
        dc.decode_pipeline(banks, plan, geom)


def test_pipeline_stress_corner(plan, geom):
    rng = np.random.default_rng(22)
    tag = single_path_tag((-0.6, 2.2, 1.11), random_epc(rng))
    scene = Scene(tags=(tag,))
    spec = SceneSpec(scene=scene, snr_db=10.0, leak_db=20.0,
                     alpha0_frac=-0.10, drift_frac=0.025)
    banks, pkt, h = simulate_capture(spec, plan, geom, seed=77, fast_path=True)
    banks = [chz.notch_dc(b) for b in banks]
    packet = dc.decode_pipeline(banks, plan, geom)
    assert packet.crc_ok and packet.epc_bits == tag.epc_bits


def test_pipeline_deterministic(plan, geom):
    rng = np.random.default_rng(23)
    tag = single_path_tag((0.2, 4.0, 1.11), random_epc(rng))
    scene = Scene(tags=(tag,))
    spec = SceneSpec(scene=scene, snr_db=14.0, leak_db=20.0, drift_frac=0.02)
    banks, _, _ = simulate_capture(spec, plan, geom, seed=3, fast_path=True)
    banks = [chz.notch_dc(b) for b in banks]
    a = dc.decode_pipeline(banks, plan, geom)
    b = dc.decode_pipeline(banks, plan, geom)
    assert a.epc_bits == b.epc_bits
    assert np.array_equal(a.channel.h, b.channel.h)


def test_pipeline_epc_with_preamble_look_alikes(plan, geom):
    # this EPC's 128-bit reply holds the preamble pattern at bits 20 and 56,
    # a look-alike pair about one RN16-to-EPC spacing apart; the real RN16
    # preamble is the earliest of the strong pairs
    tag = single_path_tag((0.4, 3.0, 1.11), random_epc(np.random.default_rng(0)))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=10.0, leak_db=20.0,
                     alpha0_frac=0.05, drift_frac=0.025)
    for s in range(20):
        banks, pkt, _ = simulate_capture(spec, plan, geom, seed=977 * s + 13, fast_path=True)
        packet = dc.decode_pipeline([chz.notch_dc(b) for b in banks], plan, geom)
        assert packet.crc_ok and packet.epc_bits == tag.epc_bits
        assert packet.rn16_bits == pkt.rn16_bits


# --- degenerate inputs -------------------------------------------------------

def test_pipeline_all_zero_banks_raise_no_packet(plan, geom):
    banks = [chz.ChannelBank(streams=np.zeros((plan.n_carriers, 9000), dtype=complex),
                             rate_hz=plan.channel_out_rate_hz, carriers_hz=plan.carriers_hz,
                             antenna_id=k)
             for k in range(geom.n_antennas)]
    with pytest.raises(dc.NoPacketError):
        dc.decode_pipeline(banks, plan, geom)


def _decode_fast(plan, geom, tag, seed, **kw):
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=18.0, leak_db=20.0)
    banks, pkt, _ = simulate_capture(spec, plan, geom, seed=seed, fast_path=True)
    return dc.decode_pipeline([chz.notch_dc(b) for b in banks], plan, geom, **kw), pkt


def test_pipeline_single_antenna_decodes_and_localizes(plan, geom):
    one = subset_geometry(geom, 1)
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(np.random.default_rng(24)))
    packet, pkt = _decode_fast(plan, one, tag, seed=5)
    assert packet.crc_ok and packet.epc_bits == tag.epc_bits
    assert packet.rn16_bits == pkt.rn16_bits
    assert packet.channel.shape == (1, plan.n_carriers)
    est = loc.localize(packet.channel, loc.GridSpec(), one, plan)
    assert np.all(np.isfinite(est.position_m))


def test_pipeline_64_bit_epc(plan, geom):
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(np.random.default_rng(25), 64))
    packet, pkt = _decode_fast(plan, geom, tag, seed=6, epc_len=64)
    assert packet.crc_ok and packet.epc_bits == tag.epc_bits
    assert len(packet.epc_bits) == 64 and packet.rn16_bits == pkt.rn16_bits
