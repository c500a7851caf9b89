"""Digital channelization: slice a wideband capture into per-carrier baseband
streams and remove the single-tone self-interference at each channel's DC.

The receive chain has three linear-phase FIR stages, each designed only in its
accessor below and built once per rate (cached, read-only): the tag bandlimit
and the anti-alias filter at the capture rate, the shaping filter at the
channel rate.  All channels share the chain, so their group delay is
identical; streams are delay-compensated onto the capture time axis and the
transient span is reported for downstream correlators to skip.

The channel bank takes one FFT per capture (an overlap-save style multiband
bank, after Borgerding, IEEE SP Magazine 2006).  Tone offsets must lie on
the rate / lcm(D, TONE_GRID_BINS) grid, D the decimation, so on a zero-padded
FFT whose length is a multiple of that grid, mixing a tone to DC is a
rotation of the capture spectrum, the anti-alias filter is a product with
its zero-phase response, and decimation is the mean of the D spectral
replicas.  The padding holds the filter's tail, so the circular convolution
equals the linear one; the decimated streams are then shaped as before.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import signal as sps

from .model import CarrierPlan, ModelError, TAG_BANDWIDTH_HZ
from .waveform import BLF_HZ, BasebandWave, load_wave, save_wave

STOPBAND_ATTEN_DB = 80.0
# Channel shaping filter (at the decimated rate): passes the +/-BLF subcarrier
# sidebands of Miller-4 at waveform.BLF_HZ and stops before the desk-scale
# neighbor's band edge.  The tag bandlimit and this filter are staggered so
# their transition bands never overlap at the 693.75 kHz desk spacing, which
# keeps adjacent-channel leakage below -55 dB per neighbor.
SHAPE_PASS_HZ = 300e3
SHAPE_STOP_HZ = 370e3
# Pre-decimation anti-alias filter (at the capture rate).
ANTIALIAS_PASS_HZ = 400e3
# Transmit-side tag bandlimit: keeps the fundamental subcarrier sidebands,
# drops the square-wave harmonics that would otherwise collide with other
# channels in the compressed desk-scale capture.
TAG_PASS_HZ = 300e3
TAG_STOP_HZ = 380e3

# Half-width of the DC notch: well inside the +/-BLF subcarrier offset.
NOTCH_HZ = 10e3

# Every tone offset of the desk and the physical plan is a multiple of
# rate / TONE_GRID_BINS (3.75 kHz and 60 kHz).
TONE_GRID_BINS = 4096


@functools.lru_cache(maxsize=16)
def _design_lowpass(rate_hz: float, pass_hz: float, stop_hz: float) -> np.ndarray:
    """Windowed-sinc (Kaiser) linear-phase FIR, odd length for integer delay."""
    if not 0 < pass_hz < stop_hz < rate_hz / 2:
        raise ModelError("invalid filter band edges")
    width = (stop_hz - pass_hz) / (rate_hz / 2)
    numtaps, beta = sps.kaiserord(STOPBAND_ATTEN_DB, width)
    numtaps |= 1
    taps = sps.firwin(numtaps, (pass_hz + stop_hz) / 2, window=("kaiser", beta), fs=rate_hz)
    taps.flags.writeable = False
    return taps


def _tag_taps(rate_hz: float) -> np.ndarray:
    return _design_lowpass(rate_hz, TAG_PASS_HZ, TAG_STOP_HZ)


def _antialias_taps(rate_hz: float, out_rate_hz: float) -> np.ndarray:
    return _design_lowpass(rate_hz, ANTIALIAS_PASS_HZ,
                           max(out_rate_hz - TAG_STOP_HZ, ANTIALIAS_PASS_HZ * 1.5))


def _shaping_taps(out_rate_hz: float) -> np.ndarray:
    return _design_lowpass(out_rate_hz, SHAPE_PASS_HZ, SHAPE_STOP_HZ)


def _filter_aligned(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Filter along the last axis and remove the group delay; output sample n
    is aligned with input sample n."""
    return sps.fftconvolve(x, taps[(None,) * (x.ndim - 1)], mode="same", axes=-1)


@functools.lru_cache(maxsize=4)
def _antialias_response(rate_hz: float, out_rate_hz: float, nfft: int) -> np.ndarray:
    """DFT of the circularly centred anti-alias taps on nfft bins (cached,
    read-only); real because the taps are symmetric."""
    taps = _antialias_taps(rate_hz, out_rate_hz)
    resp = np.fft.fft(np.roll(np.pad(taps, (0, nfft - taps.size)), -(taps.size // 2))).real
    resp.flags.writeable = False
    return resp


def _fft_bank(x: np.ndarray, plan: CarrierPlan, offsets_hz) -> np.ndarray:
    """Mix x down by each offset, anti-alias filter, decimate and shape.

    Row l equals the linear, delay-compensated chain run on
    x * exp(-j 2 pi offsets_hz[l] k / rate), transients included: the FFT
    leaves room for the anti-alias tail, so its circular convolution is the
    linear one.
    """
    rate, out_rate, d = plan.capture_rate_hz, plan.channel_out_rate_hz, plan.decimation
    # the FFT length is a multiple of grid, so a tone on the grid is on a bin
    grid = math.lcm(d, TONE_GRID_BINS)
    grid_bins = np.asarray(offsets_hz, dtype=float) * grid / rate
    if np.any(np.abs(grid_bins - np.round(grid_bins)) > 1e-6):
        raise ModelError(f"channelize: tone offsets must be multiples of rate / {grid}")
    nfft = grid * -(-(x.size + _antialias_taps(rate, out_rate).size) // grid)
    aa_resp = _antialias_response(rate, out_rate, nfft)
    # wrapped[b:b + nfft] is the spectrum of x * exp(-j 2 pi b k / nfft)
    wrapped = np.tile(np.fft.fft(x, nfft), 2)
    folded = np.empty((grid_bins.size, nfft // d), dtype=complex)
    for row, b in zip(folded, np.round(grid_bins).astype(int) * (nfft // grid) % nfft):
        np.sum((wrapped[b:b + nfft] * aa_resp).reshape(d, -1), axis=0, out=row)
    low = np.fft.ifft(folded / d, axis=1)[:, :-(-x.size // d)]
    return _filter_aligned(low, _shaping_taps(out_rate))


def chain_noise_gain(plan: CarrierPlan) -> float:
    """Noise power gain of the anti-alias + shaping chain (white input)."""
    aa = _antialias_taps(plan.capture_rate_hz, plan.channel_out_rate_hz)
    return float(np.sum(aa ** 2) * np.sum(_shaping_taps(plan.channel_out_rate_hz) ** 2))


def chain_transient_s(plan: CarrierPlan) -> float:
    """Transient span of the anti-alias + shaping chain at each stream end."""
    rate, out_rate = plan.capture_rate_hz, plan.channel_out_rate_hz
    aa, sh = _antialias_taps(rate, out_rate), _shaping_taps(out_rate)
    return (aa.size - 1) / 2 / rate + (sh.size - 1) / 2 / out_rate


@dataclass(frozen=True, eq=False)
class WidebandCapture:
    """Complex capture of the whole multisine band at one antenna."""

    samples: np.ndarray
    rate_hz: float
    center_hz: float
    start_s: float = 0.0
    antenna_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        if not np.all(np.isfinite(self.samples)):
            raise ModelError("capture samples must be finite")


@dataclass(frozen=True, eq=False)
class ChannelBank:
    """Per-carrier baseband streams at the decimated channel rate.

    ``group_delay_s`` is the filter transient span at each end of every
    stream; those samples are present but not trustworthy.
    """

    streams: np.ndarray
    rate_hz: float
    carriers_hz: tuple[float, ...]
    antenna_id: int = 0
    start_s: float = 0.0
    group_delay_s: float = 0.0
    compression: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "streams", np.asarray(self.streams, dtype=complex))
        if self.streams.ndim != 2 or self.streams.shape[0] != len(self.carriers_hz):
            raise ModelError("stream count must equal carrier count")

    @property
    def n_channels(self) -> int:
        return self.streams.shape[0]

    @property
    def n_samples(self) -> int:
        return self.streams.shape[1]


def compression_report(plan: CarrierPlan, tag_bandwidth_hz: float = TAG_BANDWIDTH_HZ) -> dict:
    """Data-rate and effective-information compression of the channelized form."""
    l = plan.n_carriers
    return {
        "data_rate_fraction": l * plan.channel_out_rate_hz / plan.capture_rate_hz,
        "information_fraction": l * tag_bandwidth_hz / plan.span_hz,
    }


def channelize(capture: WidebandCapture, plan: CarrierPlan) -> ChannelBank:
    """Mix each tone offset to DC, low-pass, decimate to the channel rate.

    One FFT of the capture serves every carrier (see the module docstring).
    The per-tone phase of the plan and the tone phase at ``start_s`` are
    removed, so a tag response h*tone*B comes out as h*B directly.
    """
    if abs(capture.rate_hz - plan.capture_rate_hz) > 1e-6:
        raise ModelError("capture rate does not match the plan")
    rate = plan.capture_rate_hz
    offsets = np.asarray(plan.tone_offsets_hz, dtype=float)
    if np.any(np.abs(offsets) + ANTIALIAS_PASS_HZ > 0.49 * rate):
        raise ModelError("carrier too close to the capture Nyquist edge")

    start_phase = 2 * np.pi * offsets * capture.start_s + np.asarray(plan.tone_phases_rad)
    streams = _fft_bank(capture.samples, plan, offsets) * np.exp(-1j * start_phase)[:, None]
    return ChannelBank(
        streams=streams, rate_hz=plan.channel_out_rate_hz, carriers_hz=plan.carriers_hz,
        antenna_id=capture.antenna_id, start_s=capture.start_s,
        group_delay_s=chain_transient_s(plan), compression=compression_report(plan),
    )


def apply_shaping(wave: BasebandWave, out_rate_hz: float) -> BasebandWave:
    """Run a channel-rate waveform through the shared channel shaping filter.

    This is the reference path: a directly synthesized per-channel baseband
    filtered this way matches the channelized wideband capture.
    """
    if abs(wave.rate_hz - out_rate_hz) > 1e-6:
        raise ModelError("waveform is not at the channel rate")
    return BasebandWave(samples=_filter_aligned(wave.samples, _shaping_taps(out_rate_hz)),
                        rate_hz=out_rate_hz, start_s=wave.start_s)


def bandlimit_tag(wave: BasebandWave) -> BasebandWave:
    """Transmit-side bandlimit of the +/-1 tag baseband, common to all tones."""
    return BasebandWave(samples=_filter_aligned(wave.samples, _tag_taps(wave.rate_hz)),
                        rate_hz=wave.rate_hz, start_s=wave.start_s)


def processed_tag_baseband(tag_capture_rate: BasebandWave, plan: CarrierPlan) -> BasebandWave:
    """Tag baseband as it appears in one channel stream: bandlimited, decimated
    through the anti-alias filter, and channel-shaped.

    Multiplying this by h[k][l] reproduces channel (k, l) of a channelized
    capture up to cross-channel leakage, which is the fast simulation path.
    """
    rate = plan.capture_rate_hz
    if abs(tag_capture_rate.rate_hz - rate) > 1e-6:
        raise ModelError("tag waveform must be at the capture rate")
    x = _filter_aligned(tag_capture_rate.samples, _tag_taps(rate))
    return BasebandWave(samples=_fft_bank(x, plan, (0.0,))[0],
                        rate_hz=plan.channel_out_rate_hz, start_s=tag_capture_rate.start_s)


def shaped_noise(rng: np.random.Generator, shape: tuple[int, int], noise_var: float,
                 plan: CarrierPlan) -> np.ndarray:
    """Complex Gaussian channel-rate noise rows with the shaping filter's
    spectrum and variance noise_var / decimation per sample, drawn in the band
    (DFT bins within SHAPE_STOP_HZ, beyond which the filter is below
    -STOPBAND_ATTEN_DB), so the rows are stationary to their ends."""
    rate, n = plan.channel_out_rate_hz, shape[1]
    band = np.abs(np.fft.fftfreq(n, d=1.0 / rate)) <= SHAPE_STOP_HZ
    gain = np.abs(np.fft.fft(_shaping_taps(rate), n))[band]
    # E|g|^2 = 2 per draw, and E|ifft(X)[m]|^2 = sum_k E|X_k|^2 / n^2
    gain *= n * math.sqrt(noise_var / plan.decimation / 2 / float(np.sum(gain ** 2)))
    spec = np.zeros(shape, dtype=complex)
    spec[:, band] = rng.standard_normal((shape[0], 2 * gain.size)).view(complex) * gain
    return np.fft.ifft(spec, axis=1)


def notch_dc(bank: ChannelBank) -> ChannelBank:
    """Remove a narrow band around DC from every channel.

    Implemented as an exact spectral projection (FFT bins inside +/-NOTCH_HZ
    zeroed), so it is idempotent and leaves the +/-BLF subcarrier sidebands
    untouched.
    """
    if bank.rate_hz <= 2 * BLF_HZ:
        raise ModelError("channel rate too low for the subcarrier sidebands")
    spectra = np.fft.fft(bank.streams, axis=1)
    freqs = np.fft.fftfreq(bank.n_samples, d=1.0 / bank.rate_hz)
    spectra[:, np.abs(freqs) <= NOTCH_HZ] = 0.0
    return replace(bank, streams=np.fft.ifft(spectra, axis=1))


def dynamic_range_required(bits: int) -> float:
    """Quantizer dynamic range 6.02 N + 1.76 dB."""
    if bits < 1:
        raise ModelError("need at least one bit")
    return 6.02 * bits + 1.76


# ---------------------------------------------------------------------------
# Bank export: one file per channel plus a JSON manifest


def save_bank(bank: ChannelBank, directory) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for l in range(bank.n_channels):
        name = f"ch_{l:02d}.cf32"
        save_wave(BasebandWave(samples=bank.streams[l], rate_hz=bank.rate_hz,
                               start_s=bank.start_s), directory / name)
        files.append(name)
    manifest = {
        "rate_hz": bank.rate_hz,
        "start_s": bank.start_s,
        "antenna_id": bank.antenna_id,
        "group_delay_s": bank.group_delay_s,
        "carriers_hz": list(bank.carriers_hz),
        "files": files,
        "compression": bank.compression,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return directory / "manifest.json"


def load_bank(manifest_path) -> ChannelBank:
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    meta = json.loads(manifest_path.read_text())
    streams = [load_wave(manifest_path.parent / name).samples for name in meta["files"]]
    for name, x in zip(meta["files"], streams):
        if not np.all(np.isfinite(x)):
            raise ModelError(f"channel file {name}: samples must be finite")
    return ChannelBank(
        streams=np.asarray(streams), rate_hz=float(meta["rate_hz"]),
        carriers_hz=tuple(meta["carriers_hz"]), antenna_id=int(meta["antenna_id"]),
        start_s=float(meta["start_s"]), group_delay_s=float(meta["group_delay_s"]),
        compression=meta.get("compression"),
    )
