"""Multisine excitation and Miller-coded tag uplink synthesis.

The tag baseband here is the ideal +/-1 ASK switching waveform; every tone of
the excitation sees the same modulation.  Clock imperfections follow the
square-wave clock model: the instantaneous subcarrier frequency is
f_blf - alpha0 - alpha(t), delayed by the start-of-frame offset t0.  Positive
alpha therefore means a slower tag clock.

RNG state is always passed explicitly; synthesis is bit-reproducible.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .model import CarrierPlan, ChannelMatrix, ModelError, read_json_object

# The one uplink link setting: Miller-4 at a 250 kHz backscatter link frequency
# (BLF).  The channelizer's receive filters are designed around it.
BLF_HZ = 250e3
MILLER_M = 4
SYMBOL_S = MILLER_M / BLF_HZ

# Gen2 uplink framing without TRext: every frame opens with the pilot zeros and
# the sync pattern and closes with the dummy bit; the EPC reply carries the PC
# word and the CRC-16.  The RN16 and EPC frames are one idle gap apart.
PILOT_SYMBOLS = 4
PREAMBLE_BITS = (0,) * PILOT_SYMBOLS + (0, 1, 1, 1)
GAP_S = 200e-6

ALPHA0_LIMIT_FRAC = 0.10
DRIFT_LIMIT_FRAC = 0.025
# Per-symbol standard deviation of the random-walk drift, as a fraction of BLF.
DRIFT_STEP_FRAC = 0.0006
# Upper bound on how far the slowest legal tag clock stretches a reply.
CLOCK_STRETCH = 1.0 / (1.0 - ALPHA0_LIMIT_FRAC - DRIFT_LIMIT_FRAC)


@dataclass(frozen=True, eq=False)
class BasebandWave:
    """Complex baseband sample series."""

    samples: np.ndarray
    rate_hz: float
    start_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        if not self.rate_hz > 0:
            raise ModelError("sample rate must be positive")
        if not math.isfinite(self.start_s):
            raise ModelError("wave start_s must be finite")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.rate_hz


@functools.lru_cache(maxsize=1)
def _tone_period(plan: CarrierPlan, n: int) -> np.ndarray:
    """Read-only tone phasors: row l is exp(j(2 pi f_l t + phi_l)), t = arange(n) / rate."""
    t = np.arange(n) / plan.capture_rate_hz
    table = np.exp(1j * (2 * np.pi * np.asarray(plan.tone_offsets_hz)[:, None] * t
                         + np.asarray(plan.tone_phases_rad)[:, None]))
    table.flags.writeable = False
    return table


def tone_sum(plan: CarrierPlan, weights, n: int) -> np.ndarray:
    """sum_l weights[l] exp(j(2 pi f_l t + phi_l)), t = arange(n) / rate.  The
    tones repeat after the lcm of the denominators of f_l / rate (4096 samples
    for the default plans), so one cached period, cut at n, is summed and tiled."""
    rate = Fraction(plan.capture_rate_hz)
    period = math.lcm(*((Fraction(f) / rate).denominator for f in plan.tone_offsets_hz))
    one = np.asarray(weights) @ _tone_period(plan, min(period, n))
    return np.tile(one, -(-n // one.size))[:n]


def synth_multisine(plan: CarrierPlan, duration_s: float) -> BasebandWave:
    """Sum of equal-amplitude complex tones at the plan's capture-band offsets."""
    rate = plan.capture_rate_hz
    n = int(round(duration_s * rate))
    if n < 1:
        raise ModelError(f"duration must be positive and span a sample, got {duration_s} s")
    return BasebandWave(samples=tone_sum(plan, np.ones(plan.n_carriers), n), rate_hz=rate)


def crest_factor(wave: BasebandWave) -> float:
    """Peak magnitude over RMS of the sample series."""
    x = wave.samples
    if x.size == 0:
        raise ModelError("empty wave")
    rms = math.sqrt(float(np.mean(np.abs(x) ** 2)))
    if rms == 0:
        raise ModelError("all-zero wave has no crest factor")
    return float(np.max(np.abs(x)) / rms)


def papr_db(wave: BasebandWave) -> float:
    return 20.0 * math.log10(crest_factor(wave))


def newman_phases(n_tones: int) -> np.ndarray:
    """Quadratic phase schedule pi*(i-1)^2/n, a strong low-crest starting point."""
    i = np.arange(n_tones)
    return np.pi * i ** 2 / n_tones


def _tone_harmonics(offsets_hz) -> tuple[np.ndarray, float]:
    """Express offsets as integer multiples of their greatest common divisor."""
    off = np.asarray(offsets_hz, dtype=float)
    nz = np.abs(off[np.abs(off) > 1e-9])
    if nz.size == 0:
        raise ModelError("all offsets zero; nothing to optimize")
    ints = np.round(nz).astype(np.int64)
    if np.any(np.abs(nz - ints) > 1e-6):
        raise ModelError("tone offsets must sit on an integer-hertz grid")
    f0 = float(np.gcd.reduce(ints))
    k = np.round(off / f0).astype(np.int64)
    return k, f0


def _multisine_period(phases: np.ndarray, k: np.ndarray, n_grid: int) -> np.ndarray:
    spectrum = np.zeros(n_grid, dtype=complex)
    np.add.at(spectrum, k % n_grid, np.exp(1j * phases))
    return np.fft.ifft(spectrum) * n_grid


def optimize_tone_phases(offsets_hz) -> tuple[float, ...]:
    """Crest-minimizing tone phases for an arbitrary commensurate tone set.

    Newman initialization followed by 200 rounds of clip-and-restore: the
    period waveform is hard-clipped at its RMS and the tone phases are re-read
    from the clipped spectrum.  The best phase set seen is kept, so the result
    is never worse than the initialization.
    """
    k, _ = _tone_harmonics(offsets_hz)
    n = k.size
    if n < 2:
        raise ModelError("need at least two tones")
    n_grid = 1 << max(8, int(np.ceil(np.log2(16 * (np.max(np.abs(k)) + 1)))))
    phases = newman_phases(n)

    def cf(ph):
        x = _multisine_period(ph, k, n_grid)
        return float(np.max(np.abs(x)) / np.sqrt(np.mean(np.abs(x) ** 2)))

    best = phases.copy()
    best_cf = cf(best)
    cur = phases.copy()
    for _ in range(200):
        x = _multisine_period(cur, k, n_grid)
        rms = np.sqrt(np.mean(np.abs(x) ** 2))
        mag = np.abs(x)
        x = np.where(mag > rms, x * (rms / np.maximum(mag, 1e-30)), x)
        spectrum = np.fft.fft(x) / n_grid
        cur = np.angle(spectrum[k % n_grid])
        c = cf(cur)
        if c < best_cf:
            best_cf, best = c, cur.copy()
    return tuple(float(p) for p in best)


def optimize_crest_phases(n_tones: int) -> tuple[float, ...]:
    """Crest-minimizing phases for ``n_tones`` uniformly spaced tones."""
    if n_tones < 2:
        raise ModelError("need at least two tones")
    return optimize_tone_phases(np.arange(1, n_tones + 1, dtype=float))


# ---------------------------------------------------------------------------
# Gen2 uplink framing


def gen2_crc16(bits) -> list[int]:
    """CRC-16 (0x1021, init 0xFFFF, output inverted) over a bit sequence."""
    reg = 0xFFFF
    for b in bits:
        msb = (reg >> 15) & 1
        reg = (reg << 1) & 0xFFFF
        if msb ^ int(b):
            reg ^= 0x1021
    reg ^= 0xFFFF
    return [(reg >> (15 - i)) & 1 for i in range(16)]


def pc_word(epc_len_bits: int) -> list[int]:
    """Protocol-control word: 5-bit EPC word count followed by zeros."""
    if epc_len_bits % 16:
        raise ModelError("EPC length must be a whole number of 16-bit words")
    words = epc_len_bits // 16
    return [(words >> (4 - i)) & 1 for i in range(5)] + [0] * 11


def epc_reply_bits(epc_bits) -> list[int]:
    """PC word, EPC and CRC-16 of the EPC reply."""
    epc = [int(b) for b in epc_bits]
    payload = pc_word(len(epc)) + epc
    return payload + gen2_crc16(payload)


def check_epc_reply(reply_bits) -> tuple[list[int], bool]:
    """Split a PC+EPC+CRC reply and report whether the CRC matches."""
    bits = [int(b) for b in reply_bits]
    if len(bits) < 32:
        return bits, False
    payload, crc = bits[:-16], bits[-16:]
    return payload[16:], gen2_crc16(payload) == crc


@dataclass(frozen=True, eq=False)
class TagPacket:
    """One tag uplink (RN16 reply then EPC reply) plus its clock imperfections.

    ``drift_alpha_hz`` samples alpha(t) once per symbol period of elapsed
    reply time; the last value holds beyond the array.
    """

    rn16_bits: tuple[int, ...]
    epc_bits: tuple[int, ...]
    t0_s: float = 0.0
    alpha0_hz: float = 0.0
    drift_alpha_hz: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.rn16_bits) != 16:
            raise ModelError("RN16 must be 16 bits")
        if len(self.epc_bits) % 16 or not self.epc_bits:
            raise ModelError("EPC length must be a positive multiple of 16 bits")
        if abs(self.alpha0_hz) > ALPHA0_LIMIT_FRAC * BLF_HZ + 1e-9:
            raise ModelError("alpha0 outside +/-10% of BLF")
        if self.drift_alpha_hz and max(abs(a) for a in self.drift_alpha_hz) > \
                DRIFT_LIMIT_FRAC * BLF_HZ + 1e-9:
            raise ModelError("drift outside +/-2.5% of BLF")
        if self.t0_s < 0:
            raise ModelError("t0 must be non-negative")


def random_walk_drift(n_symbols: int, rng,
                      max_frac: float = DRIFT_LIMIT_FRAC) -> tuple[float, ...]:
    """Bounded random walk for alpha(t): reflective clipping at +/-max_frac*blf."""
    limit = max_frac * BLF_HZ
    steps = rng.normal(0.0, DRIFT_STEP_FRAC * BLF_HZ, size=n_symbols)
    out = np.zeros(n_symbols)
    a = rng.uniform(-limit, limit)
    for i, s in enumerate(steps):
        a += s
        if a > limit:
            a = 2 * limit - a
        elif a < -limit:
            a = -2 * limit - a
        out[i] = np.clip(a, -limit, limit)
    return tuple(float(v) for v in out)


# ---------------------------------------------------------------------------
# Miller-M line coding


def miller_symbol_signs(bits) -> np.ndarray:
    """Baseband start sign of each symbol: inversion at every symbol boundary,
    which a mid-symbol inversion (data-1) cancels."""
    bits = np.asarray(bits, dtype=int)
    factors = np.where(bits == 0, -1, 1)
    signs = np.ones(bits.size, dtype=int)
    if bits.size > 1:
        signs[1:] = np.cumprod(factors[:-1])
    return signs


def miller_half_periods(n_symbols: int, subcarrier_hz: float, rate_hz: float) -> np.ndarray:
    """Subcarrier half-period index of every sample of an n_symbols Miller-M
    frame, sampled at rate_hz from its start: the one sampling rule of the
    crisp symbol.  The index drives the subcarrier sign (its parity), the
    symbol (its quotient by 2M) and the mid-symbol flip (its remainder), so
    coincident inversions cancel exactly even when boundaries fall between
    samples."""
    n = int(round(n_symbols * (MILLER_M / subcarrier_hz) * rate_hz))
    return np.floor(2 * subcarrier_hz * (np.arange(n) / rate_hz) + 1e-9).astype(np.int64)


def miller_encode(bits, subcarrier_hz: float, rate_hz: float) -> BasebandWave:
    """+/-1 Miller-M baseband of ``bits``: M subcarrier cycles per bit, phase
    inversion at every symbol boundary plus a mid-symbol inversion for data-1.
    A frame's preamble is part of ``bits`` (see ``PREAMBLE_BITS``).
    ``subcarrier_hz`` is BLF for a nominal clock."""
    if rate_hz < 8 * subcarrier_hz:
        raise ModelError("sample rate must be at least 8x BLF")
    frame = np.asarray([int(b) for b in bits], dtype=int)
    if not frame.size:
        raise ModelError("no bits to encode")
    if np.any((frame != 0) & (frame != 1)):
        raise ModelError("bits must be 0/1")
    half = miller_half_periods(frame.size, subcarrier_hz, rate_hz)
    sym = np.minimum(half // (2 * MILLER_M), frame.size - 1)
    sq = 1 - 2 * (half % 2)
    mid = np.where((frame[sym] == 1) & (half - sym * 2 * MILLER_M >= MILLER_M), -1, 1)
    signs = miller_symbol_signs(frame)
    samples = (signs[sym] * mid * sq).astype(complex)
    return BasebandWave(samples=samples, rate_hz=rate_hz)


# ---------------------------------------------------------------------------
# Full uplink packet


@dataclass(frozen=True)
class PacketLayout:
    """Nominal packet timing: RN16 frame, idle gap (GAP_S), EPC frame."""

    rn16_frame_symbols: int
    epc_frame_symbols: int

    @property
    def rn16_s(self) -> float:
        return self.rn16_frame_symbols * SYMBOL_S

    @property
    def epc_start_s(self) -> float:
        return self.rn16_s + GAP_S

    @property
    def epc_s(self) -> float:
        return self.epc_frame_symbols * SYMBOL_S

    @property
    def total_s(self) -> float:
        return self.epc_start_s + self.epc_s


def packet_layout(epc_len: int) -> PacketLayout:
    pre = len(PREAMBLE_BITS)
    return PacketLayout(rn16_frame_symbols=pre + 16 + 1, epc_frame_symbols=pre + epc_len + 32 + 1)


def _frame(payload, rate_hz: float) -> BasebandWave:
    """Miller baseband of one reply frame: preamble, payload, dummy bit."""
    bits = list(PREAMBLE_BITS) + [int(b) for b in payload] + [1]
    return miller_encode(bits, BLF_HZ, rate_hz)


def packet_template(pkt: TagPacket, rate_hz: float) -> BasebandWave:
    """Nominal-clock full-packet baseband (RN16 frame, idle gap, EPC frame)."""
    layout = packet_layout(len(pkt.epc_bits))
    n = int(round(layout.total_s * rate_hz))
    samples = np.zeros(n, dtype=complex)
    rn16 = _frame(pkt.rn16_bits, rate_hz)
    epc = _frame(epc_reply_bits(pkt.epc_bits), rate_hz)
    i0 = int(round(layout.epc_start_s * rate_hz))
    samples[:rn16.samples.size] = rn16.samples
    samples[i0:i0 + epc.samples.size] = epc.samples
    return BasebandWave(samples=samples, rate_hz=rate_hz)


def clock_map(elapsed: np.ndarray, alpha0_hz: float, alpha_hz) -> np.ndarray:
    """Map elapsed receive time (since t0) to nominal template time.

    The tag clock runs at f_blf - alpha0 - alpha(t), so nominal time advances
    by the integral of that rate over f_blf.  alpha(t) is piecewise constant,
    one value per nominal symbol period of elapsed time, the last value
    holding beyond the array; the integral is exact.
    """
    elapsed = np.asarray(elapsed, dtype=float)
    alpha = np.asarray(alpha_hz, dtype=float)
    if alpha.size == 0:
        integral = np.zeros_like(elapsed)
    else:
        cum = np.concatenate([[0.0], np.cumsum(alpha) * SYMBOL_S])
        idx = np.minimum((elapsed / SYMBOL_S).astype(int), alpha.size - 1)
        integral = cum[idx] + alpha[idx] * (elapsed - idx * SYMBOL_S)
    return elapsed - (alpha0_hz * elapsed + integral) / BLF_HZ


def apply_clock_offset(wave: BasebandWave, pkt: TagPacket) -> BasebandWave:
    """Time-warp a nominal waveform onto the tag's imperfect clock and delay
    it by t0.  Resamples along the exactly integrated clock phase."""
    rate = wave.rate_hz
    dur = wave.duration_s
    n_out = int(round((pkt.t0_s + dur * CLOCK_STRETCH) * rate)) + 1
    t = np.arange(n_out) / rate
    elapsed = t - pkt.t0_s
    live = elapsed >= 0
    nominal = np.zeros_like(t)
    nominal[live] = clock_map(elapsed[live], pkt.alpha0_hz, pkt.drift_alpha_hz)
    src_t = np.arange(wave.samples.size) / rate
    re = np.interp(nominal, src_t, np.real(wave.samples), left=0.0, right=0.0)
    im = np.interp(nominal, src_t, np.imag(wave.samples), left=0.0, right=0.0)
    out = re + 1j * im
    out[~live] = 0.0
    return BasebandWave(samples=out, rate_hz=rate, start_s=wave.start_s)


def build_packet_baseband(pkt: TagPacket, rate_hz: float) -> BasebandWave:
    """Full uplink baseband with the packet's clock imperfections applied."""
    return apply_clock_offset(packet_template(pkt, rate_hz), pkt)


def backscatter_mix(plan: CarrierPlan, n: int, tag: BasebandWave,
                    channel: ChannelMatrix, antenna: int) -> BasebandWave:
    """Received baseband at one antenna over an n-sample capture starting at
    time 0: every excitation tone modulated by the tag baseband and weighted
    by that carrier's channel entry; the tone sum is tiled from one period."""
    rate = plan.capture_rate_hz
    if abs(rate - tag.rate_hz) > 1e-6:
        raise ModelError("tag wave is not at the capture rate")
    if not 0 <= antenna < channel.shape[0]:
        raise ModelError("antenna index out of range")
    if plan.n_carriers != channel.shape[1]:
        raise ModelError("tone count does not match channel carriers")
    b = np.zeros(n, dtype=complex)
    i0 = int(round(tag.start_s * rate))
    src = tag.samples
    lo, hi = max(i0, 0), min(i0 + src.size, n)
    if hi <= lo:
        raise ModelError("tag waveform does not overlap the capture")
    b[lo:hi] = src[lo - i0:hi - i0]
    return BasebandWave(samples=b * tone_sum(plan, channel.h[antenna], n), rate_hz=rate)


# ---------------------------------------------------------------------------
# Interleaved complex-float32 file format with a JSON sidecar


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(".json")


def save_wave(wave: BasebandWave, path) -> Path:
    """Write little-endian float32 I/Q pairs plus a JSON sidecar."""
    path = Path(path)
    inter = np.empty(2 * wave.samples.size, dtype="<f4")
    inter[0::2] = np.real(wave.samples).astype("<f4")
    inter[1::2] = np.imag(wave.samples).astype("<f4")
    path.write_bytes(inter.tobytes())
    meta = {
        "format": "cf32-interleaved-le",
        "rate_hz": wave.rate_hz,
        "start_s": wave.start_s,
        "n_samples": int(wave.samples.size),
    }
    _sidecar_path(path).write_text(json.dumps(meta, indent=2))
    return path


def load_wave(path) -> BasebandWave:
    path = Path(path)
    sidecar = _sidecar_path(path)
    meta = read_json_object(sidecar, "sidecar", (), ("rate_hz", "start_s"), ("n_samples",))
    raw = np.frombuffer(path.read_bytes(), dtype="<f4")
    samples = raw[0::2].astype(float) + 1j * raw[1::2].astype(float)
    if samples.size != meta["n_samples"]:
        raise ModelError(f"{path}: sample count does not match sidecar")
    try:
        return BasebandWave(samples=samples, rate_hz=float(meta["rate_hz"]),
                            start_s=float(meta["start_s"]))
    except ModelError as err:
        raise ModelError(f"{sidecar}: {err}") from None
