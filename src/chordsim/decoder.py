"""Uplink recovery from channelized captures.

One pass, no iteration: preamble search (joint t0/CFO grid with refinement) ->
Costas tracking of the residual clock fluctuation -> clock compensation ->
max-SNR combining over antennas per carrier -> maximum-ratio combining across
carriers -> Viterbi bit search -> full-packet matched channel estimation.

Streams are plain complex arrays at the channel rate; every stage is a pure
function of its inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg as sla
from scipy import ndimage

from .model import ArrayGeometry, CarrierPlan, ChannelMatrix, ModelError
from .channelizer import ChannelBank, apply_shaping
from .waveform import (ALPHA0_LIMIT_FRAC, BLF_HZ, CLOCK_STRETCH, DRIFT_LIMIT_FRAC, MILLER_M,
                       PREAMBLE_BITS, SYMBOL_S, TagPacket, check_epc_reply, clock_map,
                       miller_encode, miller_symbol_signs, packet_layout, packet_template)

# The sync grid spans the initial offset envelope plus the drift on top of it.
ALPHA_SEARCH_FRAC = ALPHA0_LIMIT_FRAC + DRIFT_LIMIT_FRAC
ALPHA_STEP_FRAC = 0.0025
# The sync grid, symmetric about an exact alpha0 = 0 (its middle row).
_SYNC_HALF_STEPS = round(ALPHA_SEARCH_FRAC / ALPHA_STEP_FRAC)
_SYNC_ALPHAS_HZ = np.arange(-_SYNC_HALF_STEPS, _SYNC_HALF_STEPS + 1) * ALPHA_STEP_FRAC * BLF_HZ
_SYNC_ALPHAS_HZ.flags.writeable = False
# Grid rows correlated per batched IFFT.
SYNC_CHUNK_ROWS = 16
DETECTION_THRESHOLD = 0.3
METRIC_THRESHOLD = 0.1
TRACK_LIMIT_FRAC = 0.03
# A reply's data can hold the preamble pattern, so a look-alike pair can score
# as high as the real one; the RN16 preamble is the earliest candidate whose
# own peak and paired peak both reach this fraction of the best pair's.
EARLIEST_PAIR_FRAC = 0.8
# Nominal RN16-to-EPC preamble spacing (RN16 frame + gap; the EPC length does
# not enter it).
EPC_SPACING_S = packet_layout(0).epc_start_s
# Half-width of the window the EPC preamble is looked for in: drift can move
# it by up to 2.5% of the spacing; the rest covers the coarse alpha0 of a
# preamble-length correlation, which sets the expected lag.
PAIR_WINDOW_S = 0.04 * EPC_SPACING_S
# Costas loop noise bandwidth (fraction of BLF) and damping factor.
LOOP_BW_FRAC = 0.04
LOOP_DAMPING = 0.707
# MSNR diagonal loading, as a fraction of the mean per-antenna noise power.
DIAG_LOAD_FRAC = 1e-3


class DecodeError(RuntimeError):
    """Decode failure with the pipeline stage attributed."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class NoPacketError(DecodeError):
    """No preamble found above the detection threshold."""

    def __init__(self, message: str = "correlation peak below threshold"):
        super().__init__("preamble_search", message)


@dataclass(frozen=True)
class SyncEstimate:
    t0_hat_s: float
    alpha0_hat_hz: float
    correlation_peak: float
    epc_t0_hat_s: float
    epc_alpha_hat_hz: float

    def __post_init__(self):
        if not 0.0 <= self.correlation_peak <= 1.0 + 1e-9:
            raise ModelError("correlation peak must be normalized to [0, 1]")


@dataclass(frozen=True, eq=False)
class ClockTrack:
    """Per-symbol estimate of the residual clock fluctuation alpha(t)."""

    alpha_t_hz: np.ndarray
    lock_flag: bool


@dataclass(frozen=True, eq=False)
class DecodedPacket:
    rn16_bits: tuple[int, ...]
    epc_bits: tuple[int, ...]
    crc_ok: bool
    channel: ChannelMatrix
    sync: SyncEstimate
    tracks: tuple[ClockTrack, ClockTrack]


def _preamble_template(subcarrier_hz: float, rate_hz: float) -> np.ndarray:
    return np.real(miller_encode(PREAMBLE_BITS, subcarrier_hz, rate_hz, preamble=False).samples)


@functools.lru_cache(maxsize=4)
def _sync_templates(rate_hz: float) -> tuple[np.ndarray, ...]:
    """Preamble template at every clock of the sync grid (cached, read-only)."""
    tmpls = tuple(_preamble_template(BLF_HZ - a, rate_hz) for a in _SYNC_ALPHAS_HZ)
    for t in tmpls:
        t.flags.writeable = False
    return tmpls


def _template_bank(tmpls, nfft: int):
    """Conjugate nfft-point spectra of templates, with their lengths and norms."""
    return (np.stack([np.conj(np.fft.fft(t, nfft)) for t in tmpls]),
            np.array([t.size for t in tmpls]),
            np.array([math.sqrt(float(np.sum(t ** 2))) for t in tmpls]))


@functools.lru_cache(maxsize=2)
def _sync_bank(rate_hz: float, nfft: int):
    """The sync grid's template bank (cached, read-only)."""
    bank = _template_bank(_sync_templates(rate_hz), nfft)
    for a in bank:
        a.flags.writeable = False
    return bank


def _correlate(xf: np.ndarray, energy: np.ndarray, n: int, spectra: np.ndarray,
               lengths: np.ndarray, norms: np.ndarray):
    """Raw and normalized |correlation| of a stream (spectrum xf, cumulative
    energy) with template rows, at every start sample; one batched IFFT."""
    corr = np.abs(np.fft.ifft(xf * spectra, axis=1)[:, :n])
    i = np.arange(n)
    lt = lengths[:, None]
    window_energy = energy[np.minimum(i + lt, n)] - energy[i]
    # windows holding only numerical residue would normalize to spurious
    # perfect correlations
    floor = 1e-9 * window_energy.max(axis=1, keepdims=True) + 1e-30
    full = (i <= n - lt) & (window_energy > 100 * floor)
    seg = np.sqrt(np.maximum(window_energy, floor))
    return np.where(full, corr / (norms[:, None] * seg), 0.0), corr


def _parabolic_refine(values: np.ndarray, p: int) -> float:
    if not 0 < p < values.size - 1:
        return 0.0
    c0, c1, c2 = values[p - 1], values[p], values[p + 1]
    denom = c0 - 2 * c1 + c2
    if abs(denom) < 1e-12:
        return 0.0
    return float(np.clip(0.5 * (c0 - c2) / denom, -0.5, 0.5))


def preamble_search(stream: np.ndarray, rate_hz: float) -> SyncEstimate:
    """Joint argmax of the paired preamble correlation over start time and
    initial clock offset.

    Both uplink replies open with the same preamble, so a lone correlation
    cannot tell them apart: each candidate start is scored by its own peak
    plus the best peak near the EPC preamble one nominal spacing later.  The
    EPC reply can hold the preamble pattern, so a look-alike pair inside it
    can outscore the real pair; the start is the earliest candidate whose own
    and paired peaks both reach EARLIEST_PAIR_FRAC of the best pair's, each
    start scored at its best grid clock.  The alpha0 grid spans the protocol
    envelope plus drift in steps of ALPHA_STEP_FRAC * BLF; its templates'
    spectra are built once per (rate, FFT length) and cached, and the grid is
    correlated SYNC_CHUNK_ROWS rows per batched IFFT.  The t0 axis is searched
    on the sample grid and refined by parabolic interpolation; alpha0 is
    refined by parabolic interpolation across the grid of each clock's best
    peak within one preamble length of that start, and one more correlation
    at the refined clock gives the peak.  The EPC preamble is measured the
    same way, since drift moves its clock: refined across the grid rows within
    TRACK_LIMIT_FRAC of the RN16's clock from their peaks in the pairing
    window, then timed by one correlation at that clock; a preamble that does
    not fit inside the stream at that time raises.  alpha0 is then
    re-estimated from the measured preamble-to-preamble time baseline, which
    is far more sensitive than the preamble-length correlation itself, and the
    EPC preamble's time and clock are returned as ``epc_t0_hat_s`` and
    ``epc_alpha_hat_hz``.
    """
    x = np.asarray(stream, dtype=complex)
    if rate_hz < 4 * BLF_HZ:
        raise ModelError("channel rate must be at least 4x BLF")
    n = x.size
    max_tmpl = int(2 * len(PREAMBLE_BITS) * MILLER_M / BLF_HZ * rate_hz)
    nfft = int(2 ** np.ceil(np.log2(n + max_tmpl + 1)))
    pair_win = int(PAIR_WINDOW_S * rate_hz) + 8
    alphas = _SYNC_ALPHAS_HZ
    step = ALPHA_STEP_FRAC * BLF_HZ
    # bounds the refined clock's template: at most half a step past the
    # grid's slowest clock
    longest = _preamble_template(BLF_HZ - alphas.max() - step, rate_hz).size
    if n < longest:
        raise DecodeError("preamble_search", f"stream shorter than the {longest}-sample preamble")
    xf = np.fft.fft(x, nfft)
    energy = np.concatenate([[0.0], np.cumsum(np.abs(x) ** 2)])

    def epc_lag(alpha_hz):
        return np.round(EPC_SPACING_S * BLF_HZ / (BLF_HZ - alpha_hz) * rate_hz).astype(int)

    def pair_score(rho: np.ndarray, lags) -> np.ndarray:
        score = rho.copy()
        near = ndimage.maximum_filter1d(rho, size=2 * pair_win + 1, axis=1, mode="nearest")
        for row, near_row, d in zip(score, near, lags):
            if d < n:
                row[:n - d] += near_row[d:]
        return score

    def fit_clock(rows: np.ndarray, peaks: np.ndarray) -> float:
        k = int(np.argmax(peaks))
        return float(alphas[rows[k]]) + _parabolic_refine(peaks, k) * step

    def correlate_at(alpha_hz: float):
        tmpl = _preamble_template(BLF_HZ - alpha_hz, rate_hz)
        rho, corr = _correlate(xf, energy, n, *_template_bank([tmpl], nfft))
        return rho, corr[0], tmpl.size

    # Each start keeps its best grid clock; the earliest strong pair bounds
    # the lobe the clock is then fitted in.
    spectra, lengths, norms = _sync_bank(rate_hz, nfft)
    lags = epc_lag(alphas)
    rho_g = np.empty((alphas.size, n))
    score_g = np.empty((alphas.size, n))
    for c in range(0, alphas.size, SYNC_CHUNK_ROWS):
        rows = slice(c, c + SYNC_CHUNK_ROWS)
        rho_g[rows] = _correlate(xf, energy, n, spectra[rows], lengths[rows], norms[rows])[0]
        score_g[rows] = pair_score(rho_g[rows], lags[rows])
    k_t = np.argmax(score_g, axis=0)[None]
    rho_t = np.take_along_axis(rho_g, k_t, 0)[0]
    pair_t = np.take_along_axis(score_g, k_t, 0)[0] - rho_t
    b = int(np.argmax(rho_t + pair_t))
    p0 = int(np.argmax((rho_t >= EARLIEST_PAIR_FRAC * rho_t[b]) &
                       (pair_t >= EARLIEST_PAIR_FRAC * pair_t[b])))
    lobe = slice(p0, p0 + longest)

    p_k = p0 + np.argmax(score_g[:, lobe], axis=1)
    alpha_best = fit_clock(np.arange(alphas.size),
                           np.take_along_axis(rho_g, p_k[:, None], 1)[:, 0])
    rho, corr, _ = correlate_at(alpha_best)
    d = int(epc_lag(alpha_best))
    p_best = p0 + int(np.argmax(pair_score(rho, [d])[0, lobe]))
    rho_best = float(rho[0, p_best])

    if rho_best < DETECTION_THRESHOLD:
        raise NoPacketError()

    t0 = (p_best + _parabolic_refine(corr, p_best)) / rate_hz
    w_lo, w_hi = p_best + d - pair_win, p_best + d + pair_win + 1
    near = np.flatnonzero(np.abs(alphas - alpha_best) <= TRACK_LIMIT_FRAC * BLF_HZ)
    alpha_epc = fit_clock(near, rho_g[near, w_lo:w_hi].max(axis=1, initial=0.0))
    _, corr, size = correlate_at(alpha_epc)
    p2 = w_lo + int(np.argmax(corr[w_lo:w_hi])) if w_lo < n else n
    if p2 + size > n:
        raise DecodeError("preamble_search", "EPC preamble outside the stream")
    t2 = (p2 + _parabolic_refine(corr, p2)) / rate_hz
    alpha_hat = BLF_HZ * (1.0 - EPC_SPACING_S / (t2 - t0))
    # the initial offset itself is bounded by the +/-10% protocol envelope
    limit = ALPHA0_LIMIT_FRAC * BLF_HZ
    alpha_hat = float(np.clip(alpha_hat, -limit, limit))
    return SyncEstimate(t0_hat_s=t0, alpha0_hat_hz=alpha_hat,
                        correlation_peak=min(rho_best, 1.0), epc_t0_hat_s=t2,
                        epc_alpha_hat_hz=alpha_epc)


def pll_track(stream: np.ndarray, rate_hz: float, sync: SyncEstimate,
              n_symbols: int) -> ClockTrack:
    """Second-order Costas loop on the Miller subcarrier.

    Tracks the residual fluctuation left after removing the estimated initial
    offset; the per-symbol frequency register is reported as alpha(t).  The
    loop freezes when the subcarrier envelope drops (inter-reply gap).
    """
    x = np.asarray(stream, dtype=complex)
    f_sub = BLF_HZ - sync.alpha0_hat_hz
    i0 = max(int(round(sync.t0_hat_s * rate_hz)), 0)
    n_span = int(round(n_symbols * SYMBOL_S * rate_hz * CLOCK_STRETCH))
    seg = x[i0:i0 + n_span]
    if seg.size < int(4 * SYMBOL_S * rate_hz):
        raise ModelError("stream too short behind the sync point")

    bn = LOOP_BW_FRAC * BLF_HZ
    theta_n = bn / rate_hz
    denom = 1.0 + 2.0 * LOOP_DAMPING * theta_n + theta_n ** 2
    kp = 4.0 * LOOP_DAMPING * theta_n / denom
    ki = 4.0 * theta_n ** 2 / denom
    lp = 1.0 - math.exp(-2.0 * math.pi * (BLF_HZ / 2.0) / rate_hz)

    t = (i0 + np.arange(seg.size)) / rate_hz - sync.t0_hat_s
    base = np.exp(-2j * math.pi * f_sub * t)

    # Seed the loop phase and frequency from the pilot symbols (known baseband
    # signs), so the short reply is tracked without an acquisition transient:
    # the residual left by the preamble search can reach a few kHz, which a
    # 5 kHz loop would spend most of the RN16 reply pulling in.  Quarter-symbol
    # phase blocks on the CFO-stretched grid, skipping the filter-smeared
    # region after each symbol boundary, fitted by weighted least squares.
    t_sym_eff = SYMBOL_S * BLF_HZ / f_sub
    nq = max(int(t_sym_eff / 4 * rate_hz), 4)
    mids, phis, wts = [], [], []
    for s in range(4):
        for quarter in (1, 2, 3):
            a = int(round((s * 4 + quarter) * t_sym_eff / 4 * rate_hz))
            b = a + nq
            if b > seg.size:
                break
            blk = np.mean(seg[a:b] * base[a:b]) * (1 - 2 * (s % 2))
            mids.append((a + b) / 2.0)
            phis.append(np.angle(blk))
            wts.append(abs(blk))
    freq = 0.0
    phase = float(phis[0]) if phis else 0.0
    if len(phis) >= 4:
        phi_u = np.unwrap(np.asarray(phis))
        mids_a = np.asarray(mids)
        w = np.asarray(wts)
        slope, intercept = np.polyfit(mids_a, phi_u, 1, w=w)
        freq = float(np.clip(slope, -2 * math.pi * 6e3 / rate_hz,
                             2 * math.pi * 6e3 / rate_hz))
        phase = float(intercept)
    z1 = 0.0 + 0.0j
    z2 = 0.0 + 0.0j
    warm = min(int(2 * SYMBOL_S * rate_hz), seg.size)
    ref_power = float(np.mean(np.abs(seg[:warm]) ** 2)) + 1e-30
    gate = 0.02 * ref_power
    cos, sin = math.cos, math.sin
    phase_log, err_log = [], []
    # Python complex products round like numpy's scalar ones; seg * base does not
    for xs, xb in zip(seg.tolist(), base.tolist()):
        v = xs * xb * complex(cos(phase), -sin(phase))
        z1 += lp * (v - z1)
        z2 += lp * (z1 - z2)
        p = z2.real * z2.real + z2.imag * z2.imag
        err = (z2.real * z2.imag) / p if p > gate else 0.0
        freq += ki * err
        phase += freq + kp * err
        phase_log.append(phase)
        err_log.append(err)

    # Per-symbol alpha from NCO phase increments: in lock the phase register
    # carries the exact accumulated clock trajectory (the frequency register
    # lags a moving clock), so integrating these symbol averages reproduces
    # the tracked timing exactly.
    bounds = np.minimum(np.round(np.arange(n_symbols + 1) * SYMBOL_S * rate_hz).astype(int),
                        seg.size - 1)
    spans = np.maximum(bounds[1:] - bounds[:-1], 1)
    dphase = np.diff(np.take(phase_log, bounds))
    delta_f_hz = dphase * rate_hz / (2.0 * math.pi) / spans
    alpha_t = np.clip(-delta_f_hz, -TRACK_LIMIT_FRAC * BLF_HZ, TRACK_LIMIT_FRAC * BLF_HZ)

    late = np.array(err_log[seg.size // 2:])
    late = late[late != 0.0]
    lock = bool(late.size > 32 and np.var(late) < 0.05)
    return ClockTrack(alpha_t_hz=alpha_t, lock_flag=lock)


def _epc_anchor(sync: SyncEstimate) -> SyncEstimate:
    """The EPC reply's own anchor: its preamble's measured time and clock."""
    return replace(sync, t0_hat_s=sync.epc_t0_hat_s, alpha0_hat_hz=sync.epc_alpha_hat_hz)


def track_packet_clock(stream: np.ndarray, rate_hz: float, sync: SyncEstimate,
                       layout) -> tuple[ClockTrack, ClockTrack]:
    """Clock track of each reply of a two-reply packet, (RN16, EPC).

    One Costas pass per reply, each from its own anchor and seeded from its
    own pilot: the RN16's is the preamble search's t0 and alpha0, the EPC's
    the EPC preamble time and clock it measured (``sync.epc_t0_hat_s``,
    ``sync.epc_alpha_hat_hz``).  Each track is relative to its anchor's clock.
    Tracking each reply separately keeps the loop's phase-slip exposure to a
    single reply span and lets the second reply re-anchor after the
    signal-free gap.
    """
    # track spans are in received time: a slow clock stretches each frame
    n1_span = int(math.ceil(layout.rn16_frame_symbols * CLOCK_STRETCH)) + 1
    n2_span = int(math.ceil(layout.epc_frame_symbols * CLOCK_STRETCH)) + 2
    return (pll_track(stream, rate_hz, sync, n1_span),
            pll_track(stream, rate_hz, _epc_anchor(sync), n2_span))


def _resample(x: np.ndarray, rate_hz: float, spans) -> np.ndarray:
    """Resample x onto the nominal tag clock along the last axis, span after
    span: each (sync, track, duration_s) from its own anchor, one gather."""
    parts = []
    for sync, track, duration_s in spans:
        i0 = max(int(math.ceil(sync.t0_hat_s * rate_hz)) - 1, 0)
        # elapsed may start a fraction of a sample negative; the clock map is
        # monotone there, which keeps the interpolation exact at integer t0
        elapsed = np.arange(i0, x.shape[-1]) / rate_hz - sync.t0_hat_s
        n_vals = clock_map(elapsed, sync.alpha0_hat_hz, track.alpha_t_hz)
        target = np.arange(int(round(duration_s * rate_hz))) / rate_hz
        if n_vals[-1] < target[-1]:
            raise DecodeError("compensate_clock", "stream too short for the packet span")
        j = np.clip(np.searchsorted(n_vals, target) - 1, 0, n_vals.size - 2)
        w = np.clip((target - n_vals[j]) / np.maximum(n_vals[j + 1] - n_vals[j], 1e-30), 0.0, 1.0)
        parts.append((i0 + j, w))
    idx, w = map(np.concatenate, zip(*parts))
    # interpolate in place on the two gathered copies: the same arithmetic
    # with fewer packet-sized temporaries
    out, nxt = np.take(x, idx, axis=-1), np.take(x, idx + 1, axis=-1)
    out *= 1.0 - w
    nxt *= w
    out += nxt
    return out


def compensate_clock(streams: np.ndarray, rate_hz: float, sync: SyncEstimate,
                     track: ClockTrack, duration_s: float) -> np.ndarray:
    """Resample streams onto the nominal tag clock, along the last axis.

    Output sample m sits at nominal packet time m/rate after the estimated
    start of frame; t0, the initial offset and the tracked fluctuation are all
    removed.  Every stream shares the one clock map.
    """
    return _resample(np.asarray(streams, dtype=complex), rate_hz, [(sync, track, duration_s)])


def msnr_combine(streams: np.ndarray, noise_cov: np.ndarray):
    """Max-SNR spatial combining: dominant generalized eigenvector of the
    (signal, noise) covariance pencil.

    Returns (steered stream, weights, loaded flag); ``loaded`` reports the
    diagonal-loading fallback for a singular noise covariance.
    """
    x = np.atleast_2d(np.asarray(streams, dtype=complex))
    k, n = x.shape
    if k == 1:
        return x[0].copy(), np.ones(1, dtype=complex), False
    rn = np.asarray(noise_cov, dtype=complex)
    rn = 0.5 * (rn + rn.conj().T)
    rx = x @ x.conj().T / n
    scale = max(np.trace(rn).real, 1e-6 * np.trace(rx).real, 1e-30) / k
    loaded = False
    if np.linalg.cond(rn) > 1e9:
        rn = rn + DIAG_LOAD_FRAC * scale * np.eye(k)
        loaded = True
    rs = 0.5 * ((rx - rn) + (rx - rn).conj().T)
    try:
        vals, vecs = sla.eigh(rs, rn)
    except sla.LinAlgError:
        rn = rn + DIAG_LOAD_FRAC * scale * np.eye(k)
        loaded = True
        vals, vecs = sla.eigh(rs, rn)
    w = vecs[:, -1]
    w = w / np.linalg.norm(w)
    pivot = int(np.argmax(np.abs(w)))
    w = w * np.exp(-1j * np.angle(w[pivot]))
    return w.conj() @ x, w, loaded


def mrc_combine(streams: np.ndarray, gains, noise_vars) -> np.ndarray:
    """Maximum-ratio combining with weights conj(g)/sigma^2, normalized to a
    unit effective gain so the output sits in the template domain."""
    x = np.atleast_2d(np.asarray(streams, dtype=complex))
    g = np.asarray(gains, dtype=complex)
    s2 = np.maximum(np.asarray(noise_vars, dtype=float), 1e-30)
    w = np.conj(g) / s2
    scale = float(np.sum(np.abs(g) ** 2 / s2))
    return (w @ x) / max(scale, 1e-30)


def _symbol_windows(frame_start_s: float, first_symbol: int, n_symbols: int,
                    t_sym: float, rate_hz: float, n_stream: int):
    starts = [int(round((frame_start_s + (first_symbol + i) * t_sym) * rate_hz))
              for i in range(n_symbols + 1)]
    if starts[-1] > n_stream:
        raise DecodeError("viterbi", "stream too short for the symbol span")
    return starts


def _symbol_templates(frame_start_s: float, first_symbol: int, n_symbols: int,
                      rate_hz: float, starts):
    """Crisp +/-1 symbol templates (entering sign +1) for bits 0 and 1; the
    subcarrier phase is referenced to the frame start."""
    tmpl0, tmpl1 = [], []
    for i in range(n_symbols):
        idx = np.arange(starts[i], starts[i + 1])
        t = idx / rate_hz - frame_start_s
        sq = 1 - 2 * (np.floor(2 * BLF_HZ * t).astype(np.int64) % 2)
        within = t - (first_symbol + i) * SYMBOL_S
        tmpl0.append(sq.astype(float))
        tmpl1.append(np.where(within >= SYMBOL_S / 2, -1.0, 1.0) * sq)
    return tmpl0, tmpl1


def viterbi_decode(stream: np.ndarray, rate_hz: float, frame_start_s: float,
                   first_symbol: int, n_bits: int, entering_sign: int):
    """Maximum-likelihood Miller bit sequence over the two-state sign trellis.

    State is the baseband sign entering a symbol; a data-0 flips it, a data-1
    keeps it.  Branch metrics are correlations with the crisp symbol
    templates, so the search is exactly equivalent to scoring every bit
    sequence with the same metric.
    """
    y = np.asarray(stream, dtype=complex)
    starts = _symbol_windows(frame_start_s, first_symbol, n_bits, SYMBOL_S, rate_hz, y.size)
    tmpl0, tmpl1 = _symbol_templates(frame_start_s, first_symbol, n_bits, rate_hz, starts)
    # c[i, b] for entering sign +1; sign -1 negates it.
    c = np.zeros((n_bits, 2))
    norm = 0.0
    for i in range(n_bits):
        seg = np.real(y[starts[i]:starts[i + 1]])
        c[i, 0] = float(np.dot(seg, tmpl0[i]))
        c[i, 1] = float(np.dot(seg, tmpl1[i]))
        norm += float(np.linalg.norm(seg) * np.linalg.norm(tmpl0[i]))

    neg_inf = -1e30
    # metric[s] for s in (+1, -1) encoded as index 0 / 1
    metric = np.array([0.0 if entering_sign == 1 else neg_inf,
                       0.0 if entering_sign == -1 else neg_inf])
    back = np.zeros((n_bits, 2), dtype=np.int8)
    for i in range(n_bits):
        new = np.full(2, neg_inf)
        choice = np.zeros(2, dtype=np.int8)
        for s_new in (0, 1):
            # data-1 keeps the sign, data-0 flips it
            from_keep = metric[s_new] + (1 - 2 * s_new) * c[i, 1]
            from_flip = metric[1 - s_new] + (1 - 2 * (1 - s_new)) * c[i, 0]
            if from_keep >= from_flip:
                new[s_new], choice[s_new] = from_keep, 1
            else:
                new[s_new], choice[s_new] = from_flip, 0
        metric = new
        back[i] = choice
    s = int(np.argmax(metric))
    bits = np.zeros(n_bits, dtype=int)
    for i in range(n_bits - 1, -1, -1):
        bits[i] = back[i, s]
        if bits[i] == 0:
            s = 1 - s
    return bits.tolist(), float(np.max(metric) / max(norm, 1e-30))


def _sign_after(bits) -> int:
    return int(miller_symbol_signs(list(bits) + [0])[-1])


def _packet_estimate(comp: np.ndarray, rn16_bits, epc_bits, rate_hz: float,
                     plan: CarrierPlan, geom: ArrayGeometry) -> ChannelMatrix:
    """Matched-filter estimate of compensated rows (antenna-major, spanning the
    packet) against the channel-shaped full-packet template of the bits."""
    pkt = TagPacket(rn16_bits=tuple(int(b) for b in rn16_bits),
                    epc_bits=tuple(int(b) for b in epc_bits))
    tmpl = apply_shaping(packet_template(pkt, rate_hz), rate_hz).samples.real
    active = np.abs(tmpl) > 0.1
    t_energy = float(np.sum(tmpl ** 2))
    h = (comp @ tmpl) / t_energy
    # an exact residual at every sample (no cancellation at high SNR), no gathers
    resid = np.multiply.outer(-h, tmpl)
    resid += comp
    noise = (resid.real ** 2 + resid.imag ** 2) @ active / np.count_nonzero(active) + 1e-30
    sig = np.abs(h) ** 2 * float(np.mean(tmpl[active] ** 2))
    snr = 10.0 * np.log10(np.maximum(sig / noise, 1e-30))
    return ChannelMatrix(h=h.reshape(-1, plan.n_carriers), carriers_hz=plan.carriers_hz,
                         geometry=geom, quality=snr.reshape(-1, plan.n_carriers))


def decode_pipeline(banks: list[ChannelBank], plan: CarrierPlan, geom: ArrayGeometry,
                    epc_len: int = 96) -> DecodedPacket:
    """One-shot decode of a tag reply from per-antenna channel banks.

    Banks are expected to be time-aligned to a common capture clock and
    DC-notched.  Raises DecodeError/NoPacketError with stage attribution.
    """
    if not banks:
        raise ModelError("need at least one channel bank")
    rate = banks[0].rate_hz
    k_n, l_n = len(banks), plan.n_carriers
    if geom.n_antennas != k_n:
        raise ModelError("bank count does not match the geometry")
    layout = packet_layout(epc_len)

    stack = np.stack([b.streams for b in banks])        # [K, L, N]
    energies = np.sum(np.abs(stack) ** 2, axis=2)
    k_best, l_best = np.unravel_index(int(np.argmax(energies)), energies.shape)

    sync = preamble_search(stack[k_best, l_best], rate)
    # Clock tracking runs on the best carrier combined across antennas; the
    # array gain keeps the loop's timing jitter well under a quarter
    # subcarrier period at threshold SNR.  Under spatially white noise the
    # dominant eigenvector of the carrier's covariance points along the tag's
    # channel at any SNR, so the combining needs no sync first.
    best = stack[:, l_best, :]
    w_track = np.linalg.eigh(best @ best.conj().T)[1][:, -1]
    tracks = track_packet_clock(w_track.conj() @ best, rate, sync, layout)

    # Noise covariance per carrier from the signal-free pre-SOF window.
    pre_hi = max(int(sync.t0_hat_s * rate) - 2, 2)
    pre_lo = max(pre_hi - int(1e-3 * rate), 0)
    if pre_hi - pre_lo < 8 * k_n:
        raise DecodeError("msnr_combine", "pre-SOF window too short for a covariance")

    # Each reply is resampled from its own anchor onto its nominal span; the
    # EPC frame starts at sample i2, where the packet template puts it.
    i2 = int(round(layout.epc_start_s * rate))
    n_nom = int(round(layout.total_s * rate))
    comp = _resample(stack, rate, [(sync, tracks[0], i2 / rate),        # [K, L, N']
                                   (_epc_anchor(sync), tracks[1], (n_nom - i2) / rate)])

    pre_tmpl = _sync_templates(rate)[_SYNC_HALF_STEPS]        # alpha0 = 0
    lp = pre_tmpl.size
    pre_energy = float(np.sum(pre_tmpl ** 2))

    steered = np.zeros((l_n, n_nom), dtype=complex)
    gains = np.zeros(l_n, dtype=complex)
    noise_vars = np.zeros(l_n)
    for l in range(l_n):
        pre = stack[:, l, pre_lo:pre_hi]
        rn = pre @ pre.conj().T / pre.shape[1]
        out, w_l, _ = msnr_combine(comp[:, l, :], rn)
        steered[l] = out
        noise_vars[l] = max(float(np.real(w_l.conj() @ rn @ w_l)), 1e-30)
        gains[l] = complex(np.dot(out[:lp], pre_tmpl)) / pre_energy

    combined = mrc_combine(steered, gains, noise_vars)

    # Both frames are decoded through their dummy bit, which is then dropped.
    sign0 = _sign_after(PREAMBLE_BITS)
    rn16, m1 = viterbi_decode(combined, rate, 0.0, layout.preamble_symbols, 16 + 1, sign0)
    rn16 = rn16[:16]
    reply_len = epc_len + 32
    reply, m2 = viterbi_decode(combined, rate, layout.epc_start_s,
                               layout.preamble_symbols, reply_len + 1, sign0)
    if min(m1, m2) < METRIC_THRESHOLD:
        raise DecodeError("viterbi", "path metric below threshold")
    epc, crc_ok = check_epc_reply(reply[:reply_len])
    if len(epc) != epc_len:
        raise DecodeError("viterbi", "decoded EPC has the wrong length")

    channel = _packet_estimate(comp.reshape(k_n * l_n, n_nom), rn16, epc, rate, plan, geom)
    return DecodedPacket(rn16_bits=tuple(rn16), epc_bits=tuple(epc), crc_ok=crc_ok,
                         channel=channel, sync=sync, tracks=tracks)
