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
its zero-phase response, decimation is the mean of the D spectral replicas
and shaping a product on the decimated spectrum.  The padding holds both
filters' tails, so every circular convolution is the linear one.  The tones
repeat on that grid, which the simulator's tone sums use (waveform.tone_sum).

Each FIR is a Kaiser-windowed sinc by Kaiser's order and beta formulas
(``_design_lowpass``), its window's I0 evaluated by Cephes' two Chebyshev
series (``_i0``), and time-domain filtering is one FFT convolution
(``_filter_aligned``) on an 11-smooth length (``next_fast_len``); they equal
scipy.signal's firwin(kaiserord(...)), scipy.special.i0, scipy.fft's
next_fast_len and fftconvolve(mode="same") bit for bit, and no scipy module is
imported.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import CarrierPlan, ModelError, TAG_BANDWIDTH_HZ, read_json_object
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


# Chebyshev coefficients of exp(-x) I0(x) on [0, 8] and of exp(-x) sqrt(x) I0(x)
# on (8, inf), from Cephes' i0.c (S. L. Moshier).
_I0_A = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17, -2.43127984654795469359E-16,
    1.71539128555513303061E-15, -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12, -1.72682629144155570723E-11,
    9.67580903537323691224E-11, -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8, -2.67079385394061173391E-7,
    1.11738753912010371815E-6, -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4, -5.76375574538582365885E-4,
    1.63947561694133579842E-3, -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2, -9.49010970480476444210E-2,
    1.71620901522208775349E-1, -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)
_I0_B = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18, 4.46562142029675999901E-17,
    3.46122286769746109310E-17, -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15, -9.55484669882830764870E-15,
    -4.15056934728722208663E-14, 1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12, -1.32158118404477131188E-11,
    -3.14991652796324136454E-11, 1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8, 2.04891858946906374183E-7,
    2.89137052083475648297E-6, 6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1,
)


def _i0(x: float) -> float:
    """Modified Bessel function I0 as Cephes (and scipy.special) evaluate it:
    Clenshaw's recurrence on one of the two series, per value in double
    precision with the C library's exp (numpy's vectorized exp, and np.i0,
    differ from it in the last bit)."""
    x = abs(x)
    if x <= 8.0:
        t, coeffs, scale = x / 2.0 - 2.0, _I0_A, 1.0
    else:
        t, coeffs, scale = 32.0 / x - 2.0, _I0_B, math.sqrt(x)
    b0, b1 = coeffs[0], 0.0
    for c in coeffs[1:]:
        b2, b1 = b1, b0
        b0 = t * b1 - b2 + c
    return math.exp(x) * (0.5 * (b0 - b2)) / scale


@functools.lru_cache(maxsize=64)
def next_fast_len(target: int) -> int:
    """Smallest n >= target whose prime factors are all at most 11: the
    lengths pocketfft transforms fastest (scipy.fft.next_fast_len(target, False))."""
    n = max(int(target), 1)
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@functools.lru_cache(maxsize=16)
def _design_lowpass(rate_hz: float, pass_hz: float, stop_hz: float) -> np.ndarray:
    """Windowed-sinc (Kaiser) linear-phase FIR, odd length for integer delay.

    Kaiser's rule for A = STOPBAND_ATTEN_DB > 50 dB and a transition width w
    (a fraction of Nyquist): N = ceil((A - 7.95) / 2.285 / (pi w) + 1), made
    odd, and beta = 0.1102 (A - 8.7).  The cutoff sits mid-transition, the
    window is I0(beta sqrt(1 - (m / M)^2)) / I0(beta) with m = -M..M and
    M = (N - 1) / 2, and the taps sum to 1.  These are the operations, in
    order, of scipy.signal's kaiserord and firwin(..., window=("kaiser", beta)),
    so the taps are equal to theirs bit for bit.
    """
    if not 0 < pass_hz < stop_hz < rate_hz / 2:
        raise ModelError("invalid filter band edges")
    width = (stop_hz - pass_hz) / (rate_hz / 2)
    numtaps = math.ceil((STOPBAND_ATTEN_DB - 7.95) / 2.285 / (math.pi * width) + 1) | 1
    beta = 0.1102 * (STOPBAND_ATTEN_DB - 8.7)
    half = (numtaps - 1) / 2
    m = np.arange(numtaps, dtype=float) - half
    cutoff = (pass_hz + stop_hz) / rate_hz          # of Nyquist
    taps = cutoff * np.sinc(cutoff * m)
    window = [_i0(v) for v in (beta * np.sqrt(1 - (m / half) ** 2.0)).tolist()]
    taps *= np.array(window) / _i0(beta)
    taps /= np.sum(taps)
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
    """Filter and remove the group delay; output sample n is aligned with
    input sample n.  x is complex: the full linear convolution on a fast FFT
    length, cropped to its centred x.size samples (scipy.signal.fftconvolve's
    mode="same", bit for bit).  The real taps' spectrum is their real FFT
    with the conjugate-mirrored upper half, as scipy.fft.fft forms it."""
    nfft = next_fast_len(x.size + taps.size - 1)
    half = np.fft.rfft(taps, nfft)
    spec = np.concatenate([half, half[1:nfft - half.size + 1][::-1].conj()])
    y = np.fft.ifft(np.fft.fft(x, nfft) * spec)
    start = (taps.size - 1) // 2
    return y[start:start + x.size]


@functools.lru_cache(maxsize=4)
def _chain_responses(rate_hz: float, out_rate_hz: float, d: int, nfft: int) -> tuple:
    """Zero-phase DFTs of the anti-alias taps on nfft bins and of the shaping
    taps / d on nfft / d bins (cached, read-only; real: the taps are symmetric)."""
    resps = [np.fft.fft(np.roll(np.pad(taps, (0, n - taps.size)), -(taps.size // 2))).real
             for taps, n in ((_antialias_taps(rate_hz, out_rate_hz), nfft),
                             (_shaping_taps(out_rate_hz) / d, nfft // d))]
    for resp in resps:
        resp.flags.writeable = False
    return tuple(resps)


def _fft_bank(x: np.ndarray, plan: CarrierPlan, offsets_hz, phases_rad) -> np.ndarray:
    """Row l is x * exp(-j 2 pi offsets_hz[l] k / rate) anti-alias filtered,
    decimated, shaped and rotated by exp(-j phases_rad[l]): the linear,
    delay-compensated chain, transients included and untruncated between
    stages, since the FFT leaves room for both filters' tails."""
    rate, out_rate, d = plan.capture_rate_hz, plan.channel_out_rate_hz, plan.decimation
    # the FFT length is a multiple of grid, so a tone on the grid is on a bin
    grid = math.lcm(d, TONE_GRID_BINS)
    grid_bins = np.asarray(offsets_hz, dtype=float) * grid / rate
    if np.any(np.abs(grid_bins - np.round(grid_bins)) > 1e-6):
        raise ModelError(f"channelize: tone offsets must be multiples of rate / {grid}")
    room = _antialias_taps(rate, out_rate).size + d * _shaping_taps(out_rate).size
    nfft = grid * -(-(x.size + room) // grid)
    m = nfft // d
    aa_resp, sh_resp = _chain_responses(rate, out_rate, d, nfft)
    # wrapped[b:b + nfft] is the spectrum of x * exp(-j 2 pi b k / nfft)
    wrapped = np.tile(np.fft.fft(x, nfft), 2)
    folded = np.zeros((grid_bins.size, m), dtype=complex)
    bins = np.round(grid_bins).astype(int) * (nfft // grid) % nfft
    for row, b, phase in zip(folded, bins, phases_rad):
        # add the D spectral replicas one at a time: temporaries are one row
        for j in range(0, nfft, m):
            row += wrapped[b + j:b + j + m] * aa_resp[j:j + m]
        row *= sh_resp * np.exp(-1j * phase)
    return np.fft.ifft(folded, axis=1)[:, :-(-x.size // d)]


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
    start_s: float = 0.0
    antenna_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        if self.samples.ndim != 1 or not self.samples.size or not np.isfinite(self.samples).all():
            raise ModelError("capture samples must be a finite, non-empty 1-D array")
        if not math.isfinite(self.start_s):
            raise ModelError("capture start_s must be finite")


@dataclass(frozen=True, eq=False)
class ChannelBank:
    """Per-carrier baseband streams at the decimated channel rate.

    ``notched`` is a fact, not a setting: every stream's DFT bins within
    +/-NOTCH_HZ of DC are zero (``notch_dc``'s output and the fast simulation
    path's banks).  The filter transient at each end of every stream is
    ``chain_transient_s(plan)``.
    """

    streams: np.ndarray
    rate_hz: float
    carriers_hz: tuple[float, ...]
    antenna_id: int = 0
    start_s: float = 0.0
    notched: bool = False

    def __post_init__(self):
        object.__setattr__(self, "streams", np.asarray(self.streams, dtype=complex))
        if self.streams.ndim != 2 or self.streams.shape[0] != len(self.carriers_hz):
            raise ModelError("stream count must equal carrier count")
        if self.streams.shape[1] == 0:
            raise ModelError("channel bank streams must hold at least one sample")
        if not self.rate_hz > 0 or not math.isfinite(self.start_s):
            raise ModelError("channel bank needs a positive rate and a finite start_s")

    @property
    def n_channels(self) -> int:
        return self.streams.shape[0]

    @property
    def n_samples(self) -> int:
        return self.streams.shape[1]


def compression_report(plan: CarrierPlan) -> dict:
    """Data-rate and effective-information compression of the channelized form."""
    l = plan.n_carriers
    return {
        "data_rate_fraction": l * plan.channel_out_rate_hz / plan.capture_rate_hz,
        "information_fraction": l * TAG_BANDWIDTH_HZ / plan.span_hz,
    }


def channelize(capture: WidebandCapture, plan: CarrierPlan) -> ChannelBank:
    """Mix each tone offset to DC, low-pass, decimate to the channel rate.

    One FFT of the capture serves every carrier (see the module docstring).
    The per-tone phase of the plan and the tone phase at ``start_s`` are
    removed, so a tag response h*tone*B comes out as h*B directly.
    """
    if not abs(capture.rate_hz - plan.capture_rate_hz) <= 1e-6:   # a NaN rate fails too
        raise ModelError("capture rate does not match the plan")
    rate = plan.capture_rate_hz
    offsets = np.asarray(plan.tone_offsets_hz, dtype=float)
    if np.any(np.abs(offsets) + ANTIALIAS_PASS_HZ > 0.49 * rate):
        raise ModelError("carrier too close to the capture Nyquist edge")

    start_phase = 2 * np.pi * offsets * capture.start_s + np.asarray(plan.tone_phases_rad)
    streams = _fft_bank(capture.samples, plan, offsets, start_phase)
    return ChannelBank(
        streams=streams, rate_hz=plan.channel_out_rate_hz, carriers_hz=plan.carriers_hz,
        antenna_id=capture.antenna_id, start_s=capture.start_s)


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
    if abs(tag_capture_rate.rate_hz - plan.capture_rate_hz) > 1e-6:
        raise ModelError("tag waveform must be at the capture rate")
    x = bandlimit_tag(tag_capture_rate).samples
    return BasebandWave(samples=_fft_bank(x, plan, (0.0,), (0.0,))[0],
                        rate_hz=plan.channel_out_rate_hz, start_s=tag_capture_rate.start_s)


def _notch_spectrum(spectra: np.ndarray, rate_hz: float) -> np.ndarray:
    """Zero, in place, the last-axis DFT bins within +/-NOTCH_HZ of DC."""
    spectra[..., np.abs(np.fft.fftfreq(spectra.shape[-1], d=1.0 / rate_hz)) <= NOTCH_HZ] = 0.0
    return spectra


def fast_banks(rng: np.random.Generator, tag_row: np.ndarray, h: np.ndarray,
               noise_var: float, plan: CarrierPlan) -> list[ChannelBank]:
    """The fast simulation path's banks, notched: row l at antenna k is the tag
    row times h[k, l] plus complex Gaussian noise with the shaping filter's
    spectrum and variance noise_var / decimation per sample, drawn in the band
    (DFT bins within SHAPE_STOP_HZ, beyond which the filter is below
    -STOPBAND_ATTEN_DB), so the rows are stationary to their ends.  The K x L
    rows are one [K, L, n] block, from one draw (the values of K per-antenna
    draws, in order) and one in-place inverse FFT; bank k's streams are the
    row view block[k], so keeping one bank keeps all of them."""
    rate, n = plan.channel_out_rate_hz, tag_row.size
    band = np.abs(np.fft.fftfreq(n, d=1.0 / rate)) <= SHAPE_STOP_HZ
    gain = np.abs(np.fft.fft(_shaping_taps(rate), n))[band]
    # E|g|^2 = 2 per draw, and E|ifft(X)[m]|^2 = sum_k E|X_k|^2 / n^2
    gain *= n * math.sqrt(noise_var / plan.decimation / 2 / float(np.sum(gain ** 2)))
    spec = h[:, :, None] * np.fft.fft(tag_row)
    noise = rng.standard_normal((*h.shape, 2 * gain.size)).view(complex)
    noise *= gain
    n_lo = int(np.count_nonzero(band[:(n + 1) // 2]))  # the band's bins at f >= 0
    spec[..., :n_lo] += noise[..., :n_lo]
    spec[..., n - gain.size + n_lo:] += noise[..., n_lo:]
    streams = np.fft.ifft(_notch_spectrum(spec, rate), axis=2, out=spec)
    return [ChannelBank(streams[k], rate, plan.carriers_hz, antenna_id=k, notched=True)
            for k in range(h.shape[0])]


def notch_dc(bank: ChannelBank) -> ChannelBank:
    """Remove a narrow band around DC from every channel.

    Implemented as an exact spectral projection (FFT bins inside +/-NOTCH_HZ
    zeroed), so it is idempotent and leaves the +/-BLF subcarrier sidebands
    untouched.  The output has ``notched`` set; a bank that has it already
    comes back as it is, which the idempotence makes exact.
    """
    if bank.rate_hz <= 2 * BLF_HZ:
        raise ModelError("channel rate too low for the subcarrier sidebands")
    if bank.notched:
        return bank
    spectra = _notch_spectrum(np.fft.fft(bank.streams, axis=1), bank.rate_hz)
    return replace(bank, streams=np.fft.ifft(spectra, axis=1), notched=True)


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
        "carriers_hz": list(bank.carriers_hz),
        "files": files,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return directory / "manifest.json"


def load_bank(manifest_path) -> ChannelBank:
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    meta = read_json_object(manifest_path, "manifest", ("files", "carriers_hz"),
                            ("rate_hz", "start_s"), ("antenna_id",))
    waves = [load_wave(manifest_path.parent / name) for name in meta["files"]]
    for name, w in zip(meta["files"], waves):
        if not np.all(np.isfinite(w.samples)):
            raise ModelError(f"{manifest_path.parent / name}: samples must be finite")
        if w.samples.size != waves[0].samples.size:
            raise ModelError(f"{manifest_path}: channel file {name} holds {w.samples.size} "
                             f"samples, {meta['files'][0]} {waves[0].samples.size}")
    try:
        bank = ChannelBank(
            streams=np.asarray([w.samples for w in waves]), rate_hz=float(meta["rate_hz"]),
            carriers_hz=tuple(meta["carriers_hz"]), antenna_id=meta["antenna_id"],
            start_s=float(meta["start_s"]))
    except ModelError as err:
        raise ModelError(f"{manifest_path}: {err}") from None
    for name, w in zip(meta["files"], waves):
        if (w.rate_hz, w.start_s) != (bank.rate_hz, bank.start_s):
            raise ModelError(f"{manifest_path}: channel file {name} rate_hz, start_s "
                             f"{w.rate_hz!r}, {w.start_s!r} differ from the manifest's")
    return bank
