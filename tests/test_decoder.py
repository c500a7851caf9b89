"""Synchronization, clock tracking, combining, Viterbi and pipeline tests."""

import hashlib
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg as sla
from scipy.ndimage import maximum_filter1d

import chordsim as cs
from chordsim import channelizer as chz
from chordsim import decoder as dc
from chordsim import locator as loc
from chordsim import waveform as wf
from chordsim.harness import SceneSpec, simulate_capture, single_path_tag, random_epc
from chordsim.model import (ModelError, Scene, default_array_geometry, default_carrier_plan,
                            subset_geometry, subset_plan)
from model_reference import theoretical_phase

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


def test_sync_grid_is_symmetric_about_zero_and_covers_the_search_span():
    alphas = dc._SYNC_ALPHAS_HZ
    assert np.array_equal(alphas, -alphas[::-1])
    assert np.count_nonzero(alphas == 0.0) == 1
    assert alphas[-1] >= dc.ALPHA_SEARCH_FRAC * BLF


# clocks halfway between rows of the 1% grid, and the edges of the +/-10%
# envelope
@pytest.mark.parametrize("alpha0_frac", [-0.10, -0.045, 0.005, 0.045, 0.10])
def test_preamble_between_grid_rows(plan, alpha0_frac):
    rng = np.random.default_rng(31)
    t0 = (2000 + rng.random()) / RATE                   # sub-sample start
    alpha0 = alpha0_frac * BLF
    pkt = _packet(rng, t0_s=t0, alpha0_hz=alpha0)
    x = _shaped_packet(pkt, plan, noise_snr_db=20.0, rng=rng)
    sync = dc.preamble_search(x, RATE)
    # without drift the EPC preamble arrives at the initial clock
    epc_t0 = t0 + LAYOUT.epc_start_s * BLF / (BLF - alpha0)
    assert abs(sync.t0_hat_s - t0) * RATE < 0.5
    assert abs(sync.epc_t0_hat_s - epc_t0) * RATE < 0.5
    assert abs(sync.alpha0_hat_hz - alpha0) < 0.001 * BLF
    assert abs(sync.epc_alpha_hat_hz - alpha0) < 0.003 * BLF


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


@pytest.mark.parametrize("rate_hz", [0.9e6, 1.5e6, 2.2e6])
def test_preamble_rate_floor_is_the_miller_encoder_s(rate_hz):
    # the sync grid's fastest template (BLF + 13%, 282.5 kHz) needs 8x that,
    # 2.26 MHz; a 4x BLF floor had let 1.5 and 2.2 MHz through to the encoder
    with pytest.raises(ModelError, match="sample rate must be at least 8x BLF"):
        dc.preamble_search(np.ones(20000, dtype=complex), rate_hz)


# --- PLL ---------------------------------------------------------------------

def test_pll_static_clock(plan):
    rng = np.random.default_rng(3)
    pkt = _packet(rng, t0_s=0.5e-3)
    x = _shaped_packet(pkt, plan, noise_snr_db=25.0, rng=rng)
    track = dc.pll_track(x, RATE, pkt.t0_s, 0.0, n_symbols=LAYOUT.rn16_frame_symbols)
    assert np.max(np.abs(track[2:])) < 0.0005 * BLF * 2.5


def test_pll_linear_drift_tracked(plan):
    # continuous 140-symbol reply (the loop freezes in signal-free gaps, so
    # the per-symbol trajectory contract applies where the subcarrier exists)
    rng = np.random.default_rng(4)
    n_sym = 140
    drift = tuple(np.linspace(0, 0.02 * BLF, n_sym + 10))
    pkt = _packet(rng, t0_s=0.5e-3, drift_alpha_hz=drift)
    frame = wf.miller_encode(
        wf.PREAMBLE_BITS + tuple(rng.integers(0, 2, n_sym - len(wf.PREAMBLE_BITS))),
        BLF, plan.capture_rate_hz)
    warped = wf.apply_clock_offset(frame, pkt)
    pad = np.concatenate([warped.samples, np.zeros(int(0.5e-3 * plan.capture_rate_hz))])
    x = chz.processed_tag_baseband(
        wf.BasebandWave(samples=pad, rate_hz=plan.capture_rate_hz), plan).samples
    track = dc.pll_track(x, RATE, pkt.t0_s, 0.0, n_symbols=n_sym)
    # injected-trajectory oracle: the tracked curve follows within 0.3% of BLF
    err = np.abs(track[5:n_sym - 5] - np.asarray(drift)[5:n_sym - 5])
    assert np.max(err) < 0.003 * BLF


@pytest.mark.parametrize("snr_db, digest", [(10.0, "735d1380208137be"),
                                              (-5.0, "ccfe7ba5afba9aff"),
                                              (30.0, "2771ba33beb227c5")])
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
    text = repr([np.round(t, 6).tolist() for t in tracks])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# --- clock compensation ------------------------------------------------------

def _compensate(x, spans):
    """x resampled along its last axis onto the nominal clock of spans, as
    decode_pipeline resamples its steered streams."""
    return dc._resample(x, *dc._clock_taps(x.shape[-1], RATE, spans))


def test_compensate_identity(plan):
    rng = np.random.default_rng(6)
    pkt = _packet(rng, t0_s=0.5e-3)
    x = _shaped_packet(pkt, plan)
    comp = _compensate(x, [(pkt.t0_s, 0.0, np.zeros(170), LAYOUT.total_s)])
    i0 = int(round(pkt.t0_s * RATE))
    direct = x[i0:i0 + comp.size]
    err = np.sum(np.abs(comp - direct) ** 2) / np.sum(np.abs(direct) ** 2)
    assert 10 * math.log10(err + 1e-30) < -60.0


def test_compensate_constant_offset_correlation(plan):
    rng = np.random.default_rng(7)
    pkt = _packet(rng, t0_s=0.5e-3, alpha0_hz=0.025 * BLF)
    x = _shaped_packet(pkt, plan)
    comp = _compensate(x, [(pkt.t0_s, pkt.alpha0_hz, np.zeros(190), LAYOUT.total_s)])
    tmpl = chz.apply_shaping(wf.packet_template(pkt, RATE), RATE).samples.real
    n = min(comp.size, tmpl.size)
    rho = abs(np.vdot(tmpl[:n], comp[:n])) / (np.linalg.norm(comp[:n]) * np.linalg.norm(tmpl[:n]))
    assert rho >= 0.99


def test_compensate_two_spans_equal_their_parts(plan):
    # one call over both replies' spans is each reply resampled from its own
    # anchor, the outputs joined along the last axis
    rng = np.random.default_rng(27)
    drift = wf.random_walk_drift(190, rng)
    pkt = _packet(rng, t0_s=0.8e-3, alpha0_hz=0.05 * BLF, drift_alpha_hz=drift)
    x = _shaped_packet(pkt, plan, noise_snr_db=22.0, rng=rng, tail_s=1.2e-3)
    sync = dc.preamble_search(x, RATE)
    tr1, tr2 = dc.track_packet_clock(x, RATE, sync, LAYOUT)
    streams = np.stack([x, 0.5j * x, x[::-1]])
    spans = [(sync.t0_hat_s, sync.alpha0_hat_hz, tr1, LAYOUT.epc_start_s),
             (sync.epc_t0_hat_s, sync.epc_alpha_hat_hz, tr2, LAYOUT.total_s - LAYOUT.epc_start_s)]
    both = _compensate(streams, spans)
    parts = [_compensate(streams, [span]) for span in spans]
    assert both.shape[:-1] == streams.shape[:-1]
    assert np.array_equal(both, np.concatenate(parts, axis=-1))


def test_compensate_residual_matches_trajectory_difference(plan):
    # the residual timing error equals the integral of (injected - tracked),
    # computed here by an independent trapezoidal quadrature
    rng = np.random.default_rng(8)
    drift = wf.random_walk_drift(170, rng)
    pkt = _packet(rng, t0_s=0.5e-3, drift_alpha_hz=drift)
    tracked = np.asarray(drift) + rng.normal(0, 50.0, len(drift))
    probe = np.linspace(0, 150 * wf.SYMBOL_S, 23)
    est_map = wf.clock_map(probe, 0.0, tracked)
    true_map = wf.clock_map(probe, pkt.alpha0_hz, pkt.drift_alpha_hz)
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
        est_map = nom_lo + wf.clock_map(e, alpha_anchor, track)
        true_map = wf.clock_map(e + (t_anchor - pkt.t0_s), pkt.alpha0_hz,
                                pkt.drift_alpha_hz)
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
                             wf.clock_map(e, pkt.alpha0_hz, pkt.drift_alpha_hz), e)
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
        dc.decode_pipeline(banks, plan, geom)
    assert len(lengths) == 1
    assert dc._sync_bank.cache_info().misses == 1
    for cached in dc._sync_bank(RATE, 1 << 14):
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

def _exhaustive_ml(y, n_bits, frame_start):
    """Score every bit sequence with the same per-symbol correlations."""
    c, _ = dc._branch_metrics(y, RATE, frame_start, n_bits)
    best, best_bits = -np.inf, None
    for bits in itertools.product((0, 1), repeat=n_bits):
        s = dc._ENTERING_SIGN
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
    frame = wf.miller_encode(wf.PREAMBLE_BITS + tuple(bits), BLF, RATE)
    got, metric = dc.viterbi_decode(frame.samples, RATE, 0.0, 96)
    assert got == bits
    assert metric > 0.9


def test_viterbi_equals_exhaustive_ml():
    rng = np.random.default_rng(15)
    mismatches = 0
    for trial in range(120):
        n_bits = int(rng.integers(2, 11))
        bits = list(rng.integers(0, 2, n_bits))
        frame = wf.miller_encode(wf.PREAMBLE_BITS + tuple(bits), BLF, RATE)
        x = frame.samples + (rng.standard_normal(frame.samples.size)
                             + 1j * rng.standard_normal(frame.samples.size)) / math.sqrt(2) / math.sqrt(2.0)
        got, _ = dc.viterbi_decode(x, RATE, 0.0, n_bits)
        oracle = _exhaustive_ml(x, n_bits, 0.0)
        mismatches += got != oracle
    assert mismatches == 0


@pytest.mark.parametrize("frame_start_s", [0.0, LAYOUT.epc_start_s])
def test_viterbi_noiseless_frame_scores_one(frame_start_s):
    # the templates sample each frame of the packet template by the encoder's
    # own rule; per-symbol round() windows had scored 0.966 and 0.977 here
    rng = np.random.default_rng(30)
    pkt = wf.TagPacket(rn16_bits=tuple(int(b) for b in rng.integers(0, 2, 16)),
                       epc_bits=random_epc(rng))
    if frame_start_s:
        bits = wf.epc_reply_bits(pkt.epc_bits) + [1]
    else:
        bits = list(pkt.rn16_bits) + [1]
    got, metric = dc.viterbi_decode(wf.packet_template(pkt, RATE).samples, RATE,
                                    frame_start_s, len(bits))
    assert got == bits
    assert abs(metric - 1.0) <= 1e-12


def test_viterbi_short_stream_raises_at_its_stage():
    bits = [int(b) for b in np.random.default_rng(31).integers(0, 2, 12)]
    x = wf.miller_encode(wf.PREAMBLE_BITS + tuple(bits), BLF, RATE).samples
    assert dc.viterbi_decode(x, RATE, 0.0, 12)[0] == bits
    half = wf.miller_half_periods(len(wf.PREAMBLE_BITS) + 12, BLF, RATE)
    # cut at the start of the last half-period, and one sample short
    for n in (int(np.searchsorted(half, half[-1])), x.size - 1):
        with pytest.raises(dc.DecodeError, match="too short") as err:
            dc.viterbi_decode(x[:n], RATE, 0.0, 12)
        assert err.value.stage == "viterbi"


def test_viterbi_ber_monotone_in_snr():
    rng = np.random.default_rng(16)
    bers = []
    for snr_db in (-14.0, -10.0, -6.0, -2.0):
        errors = 0
        total = 0
        for _ in range(60):
            bits = list(rng.integers(0, 2, 12))
            frame = wf.miller_encode(wf.PREAMBLE_BITS + tuple(bits), BLF, RATE)
            sig = frame.samples
            n = sig.size
            noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
            x = sig + noise / math.sqrt(10 ** (snr_db / 10))
            got, _ = dc.viterbi_decode(x, RATE, 0.0, 12)
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
    est = dc.decode_pipeline(banks, plan, geom).channel
    err = np.abs(np.angle(est.h * np.conj(h.h)))
    assert np.max(err) < 1e-3
    for k in (0, 7):
        for l in (0, 15):
            theta = theoretical_phase(tag.position_m, k, l, geom, plan)
            assert np.angle(est.h[k, l]) == pytest.approx(
                float(cs.model.wrap_phase(-theta)), abs=2e-3)


def _drifting_spans(plan, snr_db, rng):
    """A drifting packet's stream and the two reply spans its sync and tracks
    give, as decode_pipeline compensates them."""
    drift = wf.random_walk_drift(190, rng)
    pkt = _packet(rng, t0_s=0.8e-3, alpha0_hz=0.05 * BLF, drift_alpha_hz=drift)
    x = _shaped_packet(pkt, plan, noise_snr_db=snr_db, rng=rng, tail_s=1.2e-3)
    sync = dc.preamble_search(x, RATE)
    tr1, tr2 = dc.track_packet_clock(x, RATE, sync, LAYOUT)
    spans = [(sync.t0_hat_s, sync.alpha0_hat_hz, tr1, LAYOUT.epc_start_s),
             (sync.epc_t0_hat_s, sync.epc_alpha_hat_hz, tr2, LAYOUT.total_s - LAYOUT.epc_start_s)]
    return x, pkt, spans


@pytest.mark.parametrize("snr_db", [10.0, 300.0])
def test_packet_estimate_matches_the_compensated_matched_filter(plan, geom, snr_db):
    # h from the template scattered through the clock taps equals the matched
    # filter of the compensated rows, and quality is |h|^2 mean(tmpl^2) over
    # the given per-entry noise
    rng = np.random.default_rng(19)
    x, pkt, spans = _drifting_spans(plan, snr_db, rng)
    k_n, l_n = geom.n_antennas, plan.n_carriers
    gains = rng.standard_normal((k_n, l_n, 1)) + 1j * rng.standard_normal((k_n, l_n, 1))
    streams = gains * x + 0.1 * (rng.standard_normal((k_n, l_n, x.size))
                                 + 1j * rng.standard_normal((k_n, l_n, x.size)))
    noise = rng.uniform(0.5, 2.0, (k_n, l_n))
    est = dc._packet_estimate(list(streams), *dc._clock_taps(x.size, RATE, spans), noise,
                              pkt.rn16_bits, pkt.epc_bits, RATE, plan, geom)
    tmpl = chz.apply_shaping(wf.packet_template(pkt, RATE), RATE).samples.real
    h_ref = _compensate(streams, spans) @ tmpl / float(np.sum(tmpl ** 2))
    assert np.max(np.abs(est.h - h_ref)) <= 1e-12 * np.max(np.abs(h_ref))
    active = np.abs(tmpl) > 0.1
    snr_ref = 10 * np.log10(np.abs(h_ref) ** 2 * float(np.mean(tmpl[active] ** 2)) / noise)
    assert np.max(np.abs(est.quality - snr_ref)) < 1e-9


def test_steering_commutes_with_clock_compensation(plan):
    # the clock map is one linear resampling shared by every row, so the
    # decoder may steer the raw rows and compensate the one steered row
    rng = np.random.default_rng(29)
    x, _, spans = _drifting_spans(plan, 22.0, rng)
    rows = np.outer(rng.standard_normal(8) + 1j * rng.standard_normal(8), x) + (
        rng.standard_normal((8, x.size)) + 1j * rng.standard_normal((8, x.size)))
    w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    lhs = w.conj() @ _compensate(rows, spans)
    rhs = _compensate(w.conj() @ rows, spans)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def _template_banks(plan, geom, snr_db, rng):
    """Banks of outer(h, shaped packet template) at the nominal clock, |h| = 1,
    plus complex white noise at snr_db per entry over the active template
    samples (no noise for None), and the packet they hold."""
    pkt = wf.TagPacket(rn16_bits=tuple(rng.integers(0, 2, 16)), epc_bits=random_epc(rng))
    tmpl = chz.apply_shaping(wf.packet_template(pkt, RATE), RATE).samples.real
    i0 = int(0.9e-3 * RATE)
    base = np.zeros(i0 + tmpl.size + int(0.5e-3 * RATE))
    base[i0:i0 + tmpl.size] = tmpl
    h = np.exp(2j * math.pi * rng.random((geom.n_antennas, plan.n_carriers)))
    sig = float(np.mean(tmpl[np.abs(tmpl) > 0.1] ** 2))
    scale = 0.0 if snr_db is None else math.sqrt(sig / 10 ** (snr_db / 10) / 2)
    shape = (plan.n_carriers, base.size)
    return [chz.ChannelBank(streams=np.outer(h[k], base) + scale * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)), rate_hz=RATE,
        carriers_hz=plan.carriers_hz, antenna_id=k) for k in range(geom.n_antennas)], pkt


@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
def test_quality_is_the_per_entry_snr(plan, geom, snr_db):
    # quality is measured against the pre-SOF noise, not against the
    # template mismatch; its median sits within 0.5 dB of the true per-entry
    # SNR (12 seeds read -0.08 to -0.17 dB at 10, 20 and 40 dB, and -0.09 to
    # -0.38 dB at 0 dB, where sync runs on one 0 dB stream)
    banks, pkt = _template_banks(plan, geom, snr_db, np.random.default_rng(31))
    packet = dc.decode_pipeline(banks, plan, geom)
    assert packet.crc_ok and packet.epc_bits == pkt.epc_bits
    assert np.median(packet.channel.quality) == pytest.approx(snr_db, abs=0.5)


def test_quality_is_finite_on_a_noiseless_pre_sof_window(plan, geom):
    banks, pkt = _template_banks(plan, geom, None, np.random.default_rng(32))
    packet = dc.decode_pipeline(banks, plan, geom)
    assert packet.epc_bits == pkt.epc_bits
    assert np.all(np.isfinite(packet.channel.quality))


def test_fast_path_quality_does_not_saturate(plan, geom):
    # quality from the template-mismatch residual read 15.7 dB on this 60 dB
    # scene; the pre-SOF noise gives 57.4 dB
    tag = single_path_tag((0.4, 3.0, 1.11), random_epc(np.random.default_rng(17)))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=60.0, leak_db=None, t0_s=0.8e-3)
    banks, _, _ = simulate_capture(spec, plan, geom, seed=21, fast_path=True)
    assert np.median(dc.decode_pipeline(banks, plan, geom).channel.quality) > 40.0


def _full_path_banks(plan, geom, t0_s, seed=3):
    tag = single_path_tag((0.4, 3.0, 1.11), random_epc(np.random.default_rng(17)))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=20.0, leak_db=20.0, t0_s=t0_s)
    captures, _, _ = simulate_capture(spec, plan, geom, seed=seed)
    return [chz.channelize(c, plan) for c in captures]


@pytest.mark.parametrize("t0_s", [0.92e-3, 1.08e-3])
def test_pre_sof_noise_window_skips_the_chain_transient_at_both_ends(plan, geom, t0_s):
    # a window reaching back to the bank's start holds the leak's switch-on
    # transient: this 20 dB scene read 14.9 dB at t0 = 0.92 ms
    packet = dc.decode_pipeline(_full_path_banks(plan, geom, t0_s), plan, geom)
    assert packet.crc_ok
    assert 18.5 <= np.median(packet.channel.quality) <= 20.5


def test_decode_notches_its_banks(plan, geom):
    # channelize's banks hold each tone's leak at DC; decode_pipeline notches
    # them itself, as a caller's notch_dc would
    banks = _full_path_banks(plan, geom, 1.0e-3, seed=4)
    got = dc.decode_pipeline(banks, plan, geom)
    want = dc.decode_pipeline([chz.notch_dc(b) for b in banks], plan, geom)
    assert got.crc_ok and (got.rn16_bits, got.epc_bits) == (want.rn16_bits, want.epc_bits)
    assert got.sync == want.sync
    assert all(np.array_equal(a, b) for a, b in zip(got.tracks, want.tracks))
    assert np.array_equal(got.channel.h, want.channel.h)
    assert np.array_equal(got.channel.quality, want.channel.quality)


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


def _scipy_msnr_weights(x, rn):
    """The reference: msnr_combine's loading rule with scipy.linalg.eigh on the pencil."""
    k, n = x.shape
    rn = 0.5 * (rn + rn.conj().T)
    rx = x @ x.conj().T / n
    scale = max(np.trace(rn).real, 1e-6 * np.trace(rx).real, 1e-30) / k
    loaded = False
    if np.linalg.cond(rn) > 1e9:
        rn = rn + dc.DIAG_LOAD_FRAC * scale * np.eye(k)
        loaded = True
    rs = 0.5 * ((rx - rn) + (rx - rn).conj().T)
    try:
        w = sla.eigh(rs, rn)[1][:, -1]
    except sla.LinAlgError:
        rn = rn + dc.DIAG_LOAD_FRAC * scale * np.eye(k)
        loaded = True
        w = sla.eigh(rs, rn)[1][:, -1]
    w = w / np.linalg.norm(w)
    return w * np.exp(-1j * np.angle(w[np.argmax(np.abs(w))])), loaded


@pytest.mark.parametrize("case", ["random", "singular", "indefinite"])
def test_msnr_weights_equal_scipys_generalized_eigh(case):
    rng = np.random.default_rng(23)
    for trial in range(10):
        k = (2, 4, 8)[trial % 3]
        x = (rng.standard_normal((k, 4096)) + 1j * rng.standard_normal((k, 4096))) / 2
        x += rng.standard_normal(k)[:, None] * np.exp(0.1j * np.arange(4096))
        a = rng.standard_normal((k, 2 * k)) + 1j * rng.standard_normal((k, 2 * k))
        rn = a @ a.conj().T / (2 * k)
        if case == "singular":
            rn = np.outer(a[:, 0], a[:, 0].conj())          # rank 1: cond > 1e9
        elif case == "indefinite":
            rn[0, 0] = -1e-4 * rn[0, 0].real              # cond < 1e9, not positive definite
            rn[0, 1:] = rn[1:, 0] = 0
        out, w, loaded = dc.msnr_combine(x, rn)
        want, want_loaded = _scipy_msnr_weights(x, rn)
        assert loaded == want_loaded == (case != "random")
        assert np.max(np.abs(w - want)) <= 1e-12
        assert np.array_equal(out, w.conj() @ x)


@pytest.mark.parametrize("which", ["streams", "noise covariance"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("k", [1, 4])
def test_msnr_refuses_non_finite_input_naming_its_stage(which, value, k):
    rng = np.random.default_rng(24)
    x = rng.standard_normal((k, 256)) + 1j * rng.standard_normal((k, 256))
    rn = np.eye(k, dtype=complex)
    if which == "streams":
        x[k - 1, 100] = value
    else:
        rn[0, k - 1] = value
    with pytest.raises(ModelError, match=f"^msnr_combine: {which} hold"):
        dc.msnr_combine(x, rn)


@pytest.mark.parametrize("shape, size", [((3, 50), 1), ((3, 50), 3), ((3, 50), 5),
                                         ((3, 50), 4), ((3, 50), 139), ((1, 200), 139),
                                         ((1, 1), 3), ((27, 10752), 139)])
def test_running_max_equals_ndimage_nearest(shape, size):
    rng = np.random.default_rng(size)
    # small integers, so windows hold ties
    rows = rng.integers(0, 20, shape).astype(float)
    assert np.array_equal(dc._running_max(rows, size),
                          maximum_filter1d(rows, size, axis=1, mode="nearest"))


def test_two_path_estimate_matches_forward_model(plan, geom):
    rng = np.random.default_rng(19)
    from chordsim.harness import multipath_tag
    tag = multipath_tag((0.3, 2.5, 1.11), random_epc(rng), (1.1, 3.4, 1.11), 0.5)
    scene = Scene(tags=(tag,))
    spec = SceneSpec(scene=scene, snr_db=30.0, leak_db=20.0, t0_s=0.9e-3)
    banks, pkt, h = simulate_capture(spec, plan, geom, seed=5, fast_path=True)
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
    packet = dc.decode_pipeline(banks, plan, geom)
    assert packet.crc_ok and packet.epc_bits == tag.epc_bits


def test_pipeline_deterministic(plan, geom):
    rng = np.random.default_rng(23)
    tag = single_path_tag((0.2, 4.0, 1.11), random_epc(rng))
    scene = Scene(tags=(tag,))
    spec = SceneSpec(scene=scene, snr_db=14.0, leak_db=20.0, drift_frac=0.02)
    banks, _, _ = simulate_capture(spec, plan, geom, seed=3, fast_path=True)
    a = dc.decode_pipeline(banks, plan, geom)
    b = dc.decode_pipeline(banks, plan, geom)
    assert a.epc_bits == b.epc_bits
    assert np.array_equal(a.channel.h, b.channel.h)


def test_pipeline_allocates_no_packet_sized_stack(plan, geom):
    # every stage reads the banks in place and only the steered streams are
    # resampled: the decode's peak allocation (14.5 MB here) stays below one
    # [K, L, N] complex array (21.8 MB), where stacking and resampling all
    # 128 rows had peaked at 67.9 MB
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(np.random.default_rng(28)))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=18.0, leak_db=20.0)
    banks, _, _ = simulate_capture(spec, plan, geom, seed=8, fast_path=True)
    dc.decode_pipeline(banks, plan, geom)        # fills the sync template cache
    tracemalloc.start()
    try:
        packet = dc.decode_pipeline(banks, plan, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert packet.crc_ok
    assert peak < len(banks) * plan.n_carriers * banks[0].n_samples * 16


def test_pipeline_epc_with_preamble_look_alikes(plan, geom):
    # this EPC's 128-bit reply holds the preamble pattern at bits 20 and 56,
    # a look-alike pair about one RN16-to-EPC spacing apart; the real RN16
    # preamble is the earliest of the strong pairs
    tag = single_path_tag((0.4, 3.0, 1.11), random_epc(np.random.default_rng(0)))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=10.0, leak_db=20.0,
                     alpha0_frac=0.05, drift_frac=0.025)
    for s in range(20):
        banks, pkt, _ = simulate_capture(spec, plan, geom, seed=977 * s + 13, fast_path=True)
        packet = dc.decode_pipeline(banks, plan, geom)
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


def test_pipeline_rejects_banks_that_do_not_match_the_plan(plan, geom):
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(np.random.default_rng(28)))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=18.0, leak_db=20.0)
    banks, _, _ = simulate_capture(spec, plan, geom, seed=8, fast_path=True)
    shifted = tuple(f + 5e6 for f in plan.carriers_hz)
    # a 5 MHz carrier offset, a bank at twice the rate, a short bank, banks
    # 1 ms apart (they had decoded with a good CRC), and a plan of half the
    # banks' carriers
    cases = [([replace(b, carriers_hz=shifted) for b in banks], plan, "carriers"),
             ([replace(banks[0], rate_hz=2 * banks[0].rate_hz)] + banks[1:], plan, "rate"),
             (banks[:-1] + [replace(banks[-1], streams=banks[-1].streams[:, :-100])], plan,
              "length"),
             ([replace(b, start_s=1e-3 * b.antenna_id) for b in banks], plan, "start"),
             (banks, subset_plan(plan, range(8)), "carriers")]
    for case_banks, case_plan, what in cases:
        with pytest.raises(ModelError, match=f"decode_pipeline: bank .* {what}"):
            dc.decode_pipeline(case_banks, case_plan, geom)


def test_pipeline_rejects_banks_out_of_antenna_order(plan, geom):
    # bank i is antenna i of the geometry: reversed banks had localized at the
    # mirrored x with the CRC ok, and a repeated bank had moved y
    tag = single_path_tag((0.4, 3.0, 1.11), random_epc(np.random.default_rng(28)))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=20.0, leak_db=20.0)
    banks, _, _ = simulate_capture(spec, plan, geom, seed=8, fast_path=True)
    cases = [(banks[::-1], "bank 0 holds antenna 7"),
             (banks[:7] + [banks[6]], "bank 7 holds antenna 6")]
    for case_banks, what in cases:
        with pytest.raises(ModelError, match=f"decode_pipeline: {what}"):
            dc.decode_pipeline(case_banks, plan, geom)
    assert dc.decode_pipeline(banks, plan, geom).crc_ok


def test_pipeline_names_the_bank_and_carrier_of_a_non_finite_sample(plan, geom):
    # one NaN sample had made its stream the most energetic, and sync on it
    # then failed with a NoPacketError that named the wrong cause
    tag = single_path_tag((0.3, 2.5, 1.11), random_epc(np.random.default_rng(28)))
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=18.0, leak_db=20.0)
    banks, _, _ = simulate_capture(spec, plan, geom, seed=8, fast_path=True)
    streams = banks[3].streams.copy()
    streams[5, 1000] = np.nan
    banks[3] = replace(banks[3], streams=streams)
    with pytest.raises(ModelError, match="bank 3 carrier 5 holds non-finite samples"):
        dc.decode_pipeline(banks, plan, geom)


def _decode_fast(plan, geom, tag, seed, **kw):
    spec = SceneSpec(scene=Scene(tags=(tag,)), snr_db=18.0, leak_db=20.0)
    banks, pkt, _ = simulate_capture(spec, plan, geom, seed=seed, fast_path=True)
    return dc.decode_pipeline(banks, plan, geom, **kw), pkt


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
    epc = tuple(int(b) for b in np.random.default_rng(25).integers(0, 2, size=64))
    tag = single_path_tag((0.3, 2.5, 1.11), epc)
    packet, pkt = _decode_fast(plan, geom, tag, seed=6, epc_len=64)
    assert packet.crc_ok and packet.epc_bits == tag.epc_bits
    assert len(packet.epc_bits) == 64 and packet.rn16_bits == pkt.rn16_bits
