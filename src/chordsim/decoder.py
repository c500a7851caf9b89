"""Uplink recovery from channelized captures.

One pass, no iteration: preamble search (joint t0/CFO grid with refinement) ->
Costas tracking of the residual clock fluctuation -> max-SNR combining over
antennas per carrier -> clock compensation of the combined streams ->
maximum-ratio combining across carriers -> Viterbi bit search -> full-packet
matched channel estimation through the compensation's interpolation taps.

Streams are plain complex arrays at the channel rate; every stage is a pure
function of its inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ArrayGeometry, CarrierPlan, ChannelMatrix, ModelError
from .channelizer import ChannelBank, apply_shaping, chain_transient_s, notch_dc
from .waveform import (ALPHA0_LIMIT_FRAC, BLF_HZ, CLOCK_STRETCH, DRIFT_LIMIT_FRAC, MILLER_M,
                       PREAMBLE_BITS, SYMBOL_S, TagPacket, check_epc_reply, clock_map,
                       miller_encode, miller_half_periods, miller_symbol_signs, packet_layout,
                       packet_template)

# The sync grid spans the initial offset envelope plus the drift on top of it.
ALPHA_SEARCH_FRAC = ALPHA0_LIMIT_FRAC + DRIFT_LIMIT_FRAC
ALPHA_STEP_FRAC = 0.01
# The sync grid, symmetric about an exact alpha0 = 0 (its middle row), covers
# the whole search span.
_SYNC_HALF_STEPS = math.ceil(ALPHA_SEARCH_FRAC / ALPHA_STEP_FRAC)
_SYNC_ALPHAS_HZ = np.arange(-_SYNC_HALF_STEPS, _SYNC_HALF_STEPS + 1) * ALPHA_STEP_FRAC * BLF_HZ
_SYNC_ALPHAS_HZ.flags.writeable = False
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
# Baseband sign entering a frame's first data symbol, which the preamble sets.
_ENTERING_SIGN = int(miller_symbol_signs(PREAMBLE_BITS + (0,))[-1])


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
class DecodedPacket:
    rn16_bits: tuple[int, ...]
    epc_bits: tuple[int, ...]
    crc_ok: bool
    channel: ChannelMatrix
    sync: SyncEstimate
    # per-symbol alpha(t) of each reply, (RN16, EPC), relative to its anchor
    tracks: tuple[np.ndarray, np.ndarray]


def _preamble_template(subcarrier_hz: float, rate_hz: float) -> np.ndarray:
    return np.real(miller_encode(PREAMBLE_BITS, subcarrier_hz, rate_hz).samples)


def _template_bank(tmpls, nfft: int):
    """Conjugate nfft-point spectra of templates, with their lengths and norms."""
    return (np.stack([np.conj(np.fft.fft(t, nfft)) for t in tmpls]),
            np.array([t.size for t in tmpls]),
            np.array([math.sqrt(float(np.sum(t ** 2))) for t in tmpls]))


@functools.lru_cache(maxsize=2)
def _sync_bank(rate_hz: float, nfft: int):
    """Template bank of the preamble at every clock of the sync grid (cached,
    read-only)."""
    bank = _template_bank([_preamble_template(BLF_HZ - a, rate_hz) for a in _SYNC_ALPHAS_HZ],
                          nfft)
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


def _running_max(rows: np.ndarray, size: int) -> np.ndarray:
    """Max of each row over a window of ``size`` samples centred on every
    sample, the rows extended by their edge values
    (ndimage.maximum_filter1d(rows, size, axis=1, mode="nearest")): windows
    of doubling width, alternating between two buffers."""
    n, left = rows.shape[1], size // 2
    a = np.pad(rows, ((0, 0), (left, size - 1 - left)), mode="edge")
    b = np.empty_like(a)
    width = 1  # a[:, i] is the max of the padded rows over [i, i + width)
    while 2 * width <= size:
        m = a.shape[1] - 2 * width + 1
        np.maximum(a[:, :m], a[:, width:width + m], out=b[:, :m])
        a, b, width = b, a, 2 * width
    return np.maximum(a[:, :n], a[:, size - width:size - width + n])


def preamble_search(stream: np.ndarray, rate_hz: float) -> SyncEstimate:
    """Joint argmax of the paired preamble correlation over start time and
    initial clock offset.

    Both uplink replies open with the same preamble, so a lone correlation
    cannot tell them apart: each candidate start is scored by its own peak
    plus the best peak near the EPC preamble one nominal spacing later.  The
    EPC reply can hold the preamble pattern, so a look-alike pair inside it
    can outscore the real pair; the start is the earliest candidate whose own
    and paired peaks both reach EARLIEST_PAIR_FRAC of the best pair's, each
    start scored at its best grid clock.  The alpha0 grid covers the protocol
    envelope plus drift in steps of ALPHA_STEP_FRAC * BLF, rounded out to 27
    rows (1% steps over +/-13%): the 32-cycle preamble slips half a subcarrier
    cycle at a 1.6% clock error, so its clock lobe spans several rows.  The
    templates' spectra are built once per (rate, FFT length) and cached, and
    the whole grid is correlated in one batched IFFT.  The t0 axis is searched
    on the sample grid and refined by parabolic interpolation; alpha0 is
    refined by parabolic interpolation across the grid of each clock's best
    peak within one preamble length of that start, and one more correlation at
    the refined clock gives the peak.  The EPC preamble is measured the same
    way, since drift moves its clock: refined across the grid rows within
    TRACK_LIMIT_FRAC of the RN16's clock from their peaks in the pairing
    window, then timed by one correlation at that clock; a preamble that does
    not fit inside the stream at that time raises.  alpha0 is then
    re-estimated from the measured preamble-to-preamble time baseline, which
    is far more sensitive than the preamble-length correlation itself, and the
    EPC preamble's time and clock are returned as ``epc_t0_hat_s`` and
    ``epc_alpha_hat_hz``.
    """
    x = np.asarray(stream, dtype=complex)
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
        near = _running_max(rho, 2 * pair_win + 1)
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
    rho_g = _correlate(xf, energy, n, spectra, lengths, norms)[0]
    score_g = pair_score(rho_g, epc_lag(alphas))
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


def pll_track(stream: np.ndarray, rate_hz: float, t0_s: float, alpha0_hz: float,
              n_symbols: int) -> np.ndarray:
    """Second-order Costas loop on the Miller subcarrier of the reply anchored
    at time t0_s with initial clock offset alpha0_hz.

    Tracks the residual fluctuation left after removing that offset and
    returns it per symbol as alpha(t).  The loop freezes when the subcarrier
    envelope drops (inter-reply gap).
    """
    x = np.asarray(stream, dtype=complex)
    f_sub = BLF_HZ - alpha0_hz
    i0 = max(int(round(t0_s * rate_hz)), 0)
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

    t = (i0 + np.arange(seg.size)) / rate_hz - t0_s
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
    phase_log = []
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

    # Per-symbol alpha from NCO phase increments: in lock the phase register
    # carries the exact accumulated clock trajectory (the frequency register
    # lags a moving clock), so integrating these symbol averages reproduces
    # the tracked timing exactly.
    bounds = np.minimum(np.round(np.arange(n_symbols + 1) * SYMBOL_S * rate_hz).astype(int),
                        seg.size - 1)
    spans = np.maximum(bounds[1:] - bounds[:-1], 1)
    dphase = np.diff(np.take(phase_log, bounds))
    delta_f_hz = dphase * rate_hz / (2.0 * math.pi) / spans
    return np.clip(-delta_f_hz, -TRACK_LIMIT_FRAC * BLF_HZ, TRACK_LIMIT_FRAC * BLF_HZ)


def track_packet_clock(stream: np.ndarray, rate_hz: float, sync: SyncEstimate,
                       layout) -> tuple[np.ndarray, np.ndarray]:
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
    return (pll_track(stream, rate_hz, sync.t0_hat_s, sync.alpha0_hat_hz, n1_span),
            pll_track(stream, rate_hz, sync.epc_t0_hat_s, sync.epc_alpha_hat_hz, n2_span))


def _clock_taps(n: int, rate_hz: float, spans) -> tuple[np.ndarray, np.ndarray]:
    """Interpolation taps (idx, w) that resample an n-sample stream x onto the
    nominal tag clock: output m is (1 - w[m]) x[idx[m]] + w[m] x[idx[m] + 1].
    Each span (t0_s, alpha0_hz, alpha_t_hz, duration_s) is one reply, mapped
    from its own anchor: output sample m of the span sits at nominal time
    m/rate after t0_s, with the initial offset and the tracked fluctuation
    removed.  The spans' outputs follow one another.
    """
    parts = []
    for t0_s, alpha0_hz, alpha_t_hz, duration_s in spans:
        i0 = max(int(math.ceil(t0_s * rate_hz)) - 1, 0)
        # elapsed may start a fraction of a sample negative; the clock map is
        # monotone there, which keeps the interpolation exact at integer t0
        elapsed = np.arange(i0, n) / rate_hz - t0_s
        n_vals = clock_map(elapsed, alpha0_hz, alpha_t_hz)
        target = np.arange(int(round(duration_s * rate_hz))) / rate_hz
        if n_vals[-1] < target[-1]:
            raise DecodeError("compensate_clock", "stream too short for the packet span")
        j = np.clip(np.searchsorted(n_vals, target) - 1, 0, n_vals.size - 2)
        w = np.clip((target - n_vals[j]) / np.maximum(n_vals[j + 1] - n_vals[j], 1e-30), 0.0, 1.0)
        parts.append((i0 + j, w))
    return tuple(map(np.concatenate, zip(*parts)))


def _resample(x: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Resample x along the last axis by the taps (idx, w) of ``_clock_taps``."""
    # interpolate in place on the two gathered copies: the same arithmetic
    # with fewer packet-sized temporaries
    out, nxt = np.take(x, idx, axis=-1), np.take(x, idx + 1, axis=-1)
    out *= 1.0 - w
    nxt *= w
    out += nxt
    return out


def msnr_combine(streams: np.ndarray, noise_cov: np.ndarray):
    """Max-SNR spatial combining: dominant generalized eigenvector of the
    (signal, noise) covariance pencil.

    Returns (steered stream, weights, loaded flag); ``loaded`` reports the
    diagonal-loading fallback for a singular noise covariance.
    """
    x = np.atleast_2d(np.asarray(streams, dtype=complex))
    k, n = x.shape
    rn = np.asarray(noise_cov, dtype=complex)
    if not np.isfinite(rn).all():
        raise ModelError("msnr_combine: noise covariance holds a non-finite entry")
    # a non-finite sample makes its antenna's power, on the diagonal, non-finite
    with np.errstate(invalid="ignore"):
        rx = x @ x.conj().T / n
    if not np.isfinite(rx.diagonal()).all():
        raise ModelError("msnr_combine: streams hold a non-finite sample")
    if k == 1:
        return x[0].copy(), np.ones(1, dtype=complex), False
    rn = 0.5 * (rn + rn.conj().T)
    scale = max(np.trace(rn).real, 1e-6 * np.trace(rx).real, 1e-30) / k
    loaded = False
    if np.linalg.cond(rn) > 1e9:
        rn = rn + DIAG_LOAD_FRAC * scale * np.eye(k)
        loaded = True
    rs = 0.5 * ((rx - rn) + (rx - rn).conj().T)
    # the pencil reduced by rn's Cholesky factor L, as LAPACK's zhegvd does:
    # eigh(L^-1 rs L^-H), whose eigenvectors y give the pencil's as L^-H y
    try:
        chol = np.linalg.cholesky(rn)
    except np.linalg.LinAlgError:
        rn = rn + DIAG_LOAD_FRAC * scale * np.eye(k)
        loaded = True
        chol = np.linalg.cholesky(rn)
    inv_h = np.linalg.inv(chol).conj().T
    w = inv_h @ np.linalg.eigh(inv_h.conj().T @ rs @ inv_h)[1][:, -1]
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


def _branch_metrics(stream: np.ndarray, rate_hz: float, frame_start_s: float, n_bits: int):
    """Branch metrics of the n_bits data symbols of the frame that starts at
    frame_start_s (the preamble's symbols are skipped), and their norm.

    c[i, b] correlates the real stream with the crisp template of data bit b
    in symbol i for entering sign +1 (sign -1 negates it); the norm sums
    |segment| |template| over the symbols.  The templates sample the frame by
    the encoder's own rule, ``miller_half_periods``, from the sample the
    packet template puts the frame at, so a noiseless frame scores 1.
    """
    pre = len(PREAMBLE_BITS)
    half = miller_half_periods(pre + n_bits, BLF_HZ, rate_hz)
    i0 = int(round(frame_start_s * rate_hz))
    if i0 + half.size > len(stream):
        raise DecodeError("viterbi", "stream too short for the symbol span")
    y = np.real(stream[i0:i0 + half.size])
    sym, within = np.divmod(half, 2 * MILLER_M)
    t0 = y * (1 - 2 * (half % 2))                # data-0: the subcarrier
    t1 = np.where(within >= MILLER_M, -t0, t0)   # data-1 inverts it mid-symbol
    c0, c1, energy, count = (np.bincount(sym, w, pre + n_bits)[pre:]
                             for w in (t0, t1, y * y, None))
    return np.stack([c0, c1], axis=1), float(np.sum(np.sqrt(energy * count)))


def viterbi_decode(stream: np.ndarray, rate_hz: float, frame_start_s: float, n_bits: int):
    """Maximum-likelihood Miller bit sequence of the n_bits data symbols that
    follow the preamble of the frame starting at frame_start_s, over the
    two-state sign trellis.

    State is the baseband sign entering a symbol; a data-0 flips it, a data-1
    keeps it, and the first data symbol enters with the sign the preamble
    leaves.  Branch metrics are correlations with the crisp symbol
    templates, so the search is exactly equivalent to scoring every bit
    sequence with the same metric.
    """
    c, norm = _branch_metrics(stream, rate_hz, frame_start_s, n_bits)
    # path metric of each state, the sign entering a symbol: (+1, -1)
    metric = (0.0, -1e30) if _ENTERING_SIGN == 1 else (-1e30, 0.0)
    back = []
    for c0, c1 in c.tolist():
        # into each state a data-1 keeps the sign and a data-0 flips it
        keep, flip = (metric[0] + c1, metric[1] - c1), (metric[1] - c0, metric[0] + c0)
        back.append((keep[0] >= flip[0], keep[1] >= flip[1]))
        metric = (max(keep[0], flip[0]), max(keep[1], flip[1]))
    s = int(metric[1] > metric[0])
    bits = np.zeros(n_bits, dtype=int)
    for i in range(n_bits - 1, -1, -1):
        bits[i] = back[i][s]
        if bits[i] == 0:
            s = 1 - s
    return bits.tolist(), float(max(metric) / max(norm, 1e-30))


def _packet_estimate(streams, idx: np.ndarray, w: np.ndarray, noise: np.ndarray, rn16_bits,
                     epc_bits, rate_hz: float, plan: CarrierPlan,
                     geom: ArrayGeometry) -> ChannelMatrix:
    """Matched-filter estimate of raw streams (one [L, N] array per antenna)
    against the shaped packet template of the bits resampled by the clock
    taps (idx, w), with the SNR of each entry against its noise power [K, L].
    resample(x) @ t = x @ s, for s the template scattered through the taps."""
    pkt = TagPacket(rn16_bits=tuple(int(b) for b in rn16_bits),
                    epc_bits=tuple(int(b) for b in epc_bits))
    tmpl = apply_shaping(packet_template(pkt, rate_hz), rate_hz).samples.real
    n = streams[0].shape[-1]
    s = (np.bincount(idx, tmpl * (1.0 - w), n)
         + np.bincount(idx + 1, tmpl * w, n)) / float(np.sum(tmpl ** 2))
    h = np.stack([x @ s for x in streams])
    active = np.abs(tmpl) > 0.1
    sig = np.abs(h) ** 2 * float(np.mean(tmpl[active] ** 2))
    snr = 10.0 * np.log10(np.maximum(sig / (noise + 1e-30), 1e-30))
    return ChannelMatrix(h=h, carriers_hz=plan.carriers_hz, geometry=geom, quality=snr)


def decode_pipeline(banks: list[ChannelBank], plan: CarrierPlan, geom: ArrayGeometry,
                    epc_len: int = 96) -> DecodedPacket:
    """One-shot decode of a tag reply from per-antenna channel banks.

    Banks must share one start time (a common capture clock) and one length,
    and hold the plan's carriers at its channel rate; bank i is antenna i of
    the geometry (ModelError otherwise).  Each bank not yet DC-notched is
    notched here by ``notch_dc``.  Raises DecodeError/NoPacketError with
    stage attribution.
    """
    if not banks:
        raise ModelError("need at least one channel bank")
    rate = banks[0].rate_hz
    k_n, l_n = len(banks), plan.n_carriers
    if geom.n_antennas != k_n:
        raise ModelError("bank count does not match the geometry")
    for i, b in enumerate(banks):
        if b.antenna_id != i:
            raise ModelError(f"decode_pipeline: bank {i} holds antenna {b.antenna_id}")
        if b.start_s != banks[0].start_s:
            raise ModelError(f"decode_pipeline: bank {i} start differs from bank 0's")
        if b.n_samples != banks[0].n_samples:
            raise ModelError(f"decode_pipeline: bank {i} length differs from bank 0's")
        if abs(b.rate_hz - plan.channel_out_rate_hz) > 1e-6:
            raise ModelError(f"decode_pipeline: bank {i} rate does not match the plan")
        if not np.array_equal(b.carriers_hz, plan.carriers_hz):
            raise ModelError(f"decode_pipeline: bank {i} carriers do not match the plan")
    # a notched bank (notch_dc's output, a fast-path bank) is used as it is,
    # so notch_dc runs once per bank that needs it
    banks = [b if b.notched else notch_dc(b) for b in banks]
    layout = packet_layout(epc_len)

    energies = np.array([np.einsum("ln,ln->l", v, v)
                         for v in (np.ascontiguousarray(b.streams).view(float) for b in banks)])
    if not np.all(np.isfinite(energies)):
        k, l = np.argwhere(~np.isfinite(energies))[0]
        raise ModelError(f"decode_pipeline: bank {k} carrier {l} holds non-finite samples")
    k_best, l_best = np.unravel_index(int(np.argmax(energies)), energies.shape)

    sync = preamble_search(banks[k_best].streams[l_best], rate)
    # Clock tracking runs on the best carrier combined across antennas; the
    # array gain keeps the loop's timing jitter well under a quarter
    # subcarrier period at threshold SNR.  Under spatially white noise the
    # dominant eigenvector of the carrier's covariance points along the tag's
    # channel at any SNR, so the combining needs no sync first.
    best = np.stack([b.streams[l_best] for b in banks])
    w_track = np.linalg.eigh(best @ best.conj().T)[1][:, -1]
    tracks = track_packet_clock(w_track.conj() @ best, rate, sync, layout)

    # Noise covariance per carrier from the signal-free pre-SOF window, 1 ms
    # long at most; it keeps clear of the receive chain's transient at both
    # ends: the reply's onset smeared ahead of t0, and the leak's switch-on
    # at the bank's start.
    guard = math.ceil(chain_transient_s(plan) * rate)
    pre_hi = int(sync.t0_hat_s * rate) - guard
    pre_lo = max(pre_hi - int(1e-3 * rate), guard)
    if pre_hi - pre_lo < 8 * k_n:
        raise DecodeError("msnr_combine", "pre-SOF window too short for a covariance")

    # Each reply is resampled from its own anchor onto its nominal span; the
    # EPC frame starts at sample i2, where the packet template puts it.
    i2 = int(round(layout.epc_start_s * rate))
    n_nom = int(round(layout.total_s * rate))
    idx, w = _clock_taps(banks[0].n_samples, rate,
                         [(sync.t0_hat_s, sync.alpha0_hat_hz, tracks[0], i2 / rate),
                          (sync.epc_t0_hat_s, sync.epc_alpha_hat_hz, tracks[1],
                           (n_nom - i2) / rate)])
    lo, hi = int(idx.min()), int(idx.max()) + 2

    # MSNR trains on the raw samples the taps read; the compensation commutes
    # with the steering, so only the steered streams are resampled.
    raw = np.zeros((l_n, hi - lo), dtype=complex)
    noise = np.zeros((k_n, l_n))
    noise_vars = np.zeros(l_n)
    for l in range(l_n):
        rows = np.stack([b.streams[l, :hi] for b in banks])
        pre = rows[:, pre_lo:pre_hi]
        rn = pre @ pre.conj().T / pre.shape[1]
        noise[:, l] = rn.diagonal().real
        raw[l], w_l, _ = msnr_combine(rows[:, lo:hi], rn)
        noise_vars[l] = max(float(np.real(w_l.conj() @ rn @ w_l)), 1e-30)
    steered = _resample(raw, idx - lo, w)

    pre_tmpl = _preamble_template(BLF_HZ, rate)        # the grid's alpha0 = 0 row
    gains = steered[:, :pre_tmpl.size] @ pre_tmpl / float(np.sum(pre_tmpl ** 2))
    combined = mrc_combine(steered, gains, noise_vars)

    # Both frames are decoded through their dummy bit, which is then dropped.
    rn16, m1 = viterbi_decode(combined, rate, 0.0, 16 + 1)
    rn16 = rn16[:16]
    reply_len = epc_len + 32
    reply, m2 = viterbi_decode(combined, rate, layout.epc_start_s, reply_len + 1)
    if min(m1, m2) < METRIC_THRESHOLD:
        raise DecodeError("viterbi", "path metric below threshold")
    epc, crc_ok = check_epc_reply(reply[:reply_len])
    if len(epc) != epc_len:
        raise DecodeError("viterbi", "decoded EPC has the wrong length")

    channel = _packet_estimate([b.streams for b in banks], idx, w, noise, rn16, epc, rate,
                               plan, geom)
    return DecodedPacket(rn16_bits=tuple(rn16), epc_bits=tuple(epc), crc_ok=crc_ok,
                         channel=channel, sync=sync, tracks=tracks)
