"""Geometry, carrier planning, channel physics and link-budget formulas.

Coordinate frame: the receive array is centered at the origin with its axis
along x, boresight along +y and height along z.  Channel entries use the
e^{-j*theta} convention: the stored phase of an entry is the negative of the
accumulated propagation phase.  This is fixed here once and relied on by the
decoder and the locator.

All functions are pure and all value types are frozen dataclasses, so values
can be shared freely between threads.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

C_M_PER_S = 299_792_458.0

# 16-tone excitation set spanning 787.1-986.9 MHz, skipping the 902-928 MHz
# ISM band.  Spacing is 11.1 MHz except across the ISM gap.
DEFAULT_CARRIERS_HZ: tuple[float, ...] = (
    787.1e6, 798.2e6, 809.3e6, 820.4e6, 831.5e6, 842.6e6, 853.7e6, 864.8e6,
    875.9e6, 887.0e6, 898.1e6, 942.5e6, 953.6e6, 964.7e6, 975.8e6, 986.9e6,
)
DEFAULT_CAPTURE_CENTER_HZ = 887.0e6
FULL_CAPTURE_RATE_HZ = 245.76e6
DESK_CAPTURE_RATE_HZ = 15.36e6
DESK_OFFSET_SCALE = 1.0 / 16.0
DEFAULT_CHANNEL_OUT_RATE_HZ = 2.56e6

TAG_BANDWIDTH_HZ = 250e3
PER_TONE_LIMIT_DBM = -15.0
ISM_BAND_HZ = (902e6, 928e6)

# Nyquist guard applied to tone offsets: offset + guard must stay inside
# +/- capture_rate/2.
NYQUIST_GUARD_HZ = 500e3


class ModelError(ValueError):
    """Raised when an argument violates a documented precondition."""


def wrap_phase(theta):
    """Reduce an angle (or array of angles) into (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(theta, dtype=float)))


@dataclass(frozen=True)
class CarrierPlan:
    """Excitation tone set plus the capture/channel sample rates.

    ``carriers_hz`` are the true RF tone frequencies used by all phase and
    localization math.  ``tone_offsets_hz`` are the tone positions inside the
    complex capture band; for the full-rate plan they equal
    ``carriers_hz - capture_center_hz``, while the desk-scale plan compresses
    them by 1/16 so the whole set fits in a 15.36 MHz capture.
    """

    carriers_hz: tuple[float, ...]
    tone_phases_rad: tuple[float, ...]
    per_tone_power_dbm: float
    capture_rate_hz: float
    channel_out_rate_hz: float
    capture_center_hz: float
    tone_offsets_hz: tuple[float, ...]

    def __post_init__(self):
        # tuples keep the plan hashable, so it can key the tone-period cache
        for name in ("carriers_hz", "tone_phases_rad", "tone_offsets_hz"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        c = np.asarray(self.carriers_hz, dtype=float)
        off = np.asarray(self.tone_offsets_hz, dtype=float)
        if c.size < 1:
            raise ModelError("carrier plan needs at least one tone")
        if len(self.tone_phases_rad) != c.size or off.size != c.size:
            raise ModelError("phases/offsets must match carrier count")
        if c.size > 1 and not np.all(np.diff(c) > 0):
            raise ModelError("carriers must be strictly increasing")
        if np.any(np.abs(off) + NYQUIST_GUARD_HZ > self.capture_rate_hz / 2):
            raise ModelError("tone offset outside the capture Nyquist band")
        if c.size > 1:
            if np.min(np.diff(c)) <= 2 * TAG_BANDWIDTH_HZ:
                raise ModelError("carrier spacing must exceed twice the tag bandwidth")
            if np.min(np.diff(off)) <= 2 * TAG_BANDWIDTH_HZ:
                raise ModelError("tone offset spacing must exceed twice the tag bandwidth")
        if self.per_tone_power_dbm > PER_TONE_LIMIT_DBM + 1e-9:
            raise ModelError(f"per-tone power above {PER_TONE_LIMIT_DBM} dBm limit")
        if self.channel_out_rate_hz <= 0 or self.capture_rate_hz <= 0:
            raise ModelError("sample rates must be positive")

    @property
    def n_carriers(self) -> int:
        return len(self.carriers_hz)

    @property
    def span_hz(self) -> float:
        return self.carriers_hz[-1] - self.carriers_hz[0]

    @property
    def decimation(self) -> int:
        ratio = self.capture_rate_hz / self.channel_out_rate_hz
        if abs(ratio - round(ratio)) > 1e-9:
            raise ModelError("capture rate must be an integer multiple of the channel rate")
        return int(round(ratio))


def default_carrier_plan(desk_scale: bool = True, tone_phases_rad=None) -> CarrierPlan:
    """Build the default 16-tone plan.

    ``desk_scale=True`` (the default used by the tests) keeps the true RF
    carrier list but compresses the capture-band offsets by 1/16 into a
    15.36 MHz capture so simulations run in seconds.  ``desk_scale=False``
    restores the full 245.76 MHz capture with physical offsets.
    """
    carriers = DEFAULT_CARRIERS_HZ
    offsets = np.asarray(carriers) - DEFAULT_CAPTURE_CENTER_HZ
    if desk_scale:
        rate = DESK_CAPTURE_RATE_HZ
        offsets = offsets * DESK_OFFSET_SCALE
    else:
        rate = FULL_CAPTURE_RATE_HZ
    if tone_phases_rad is None:
        tone_phases_rad = (0.0,) * len(carriers)
    return CarrierPlan(
        carriers_hz=carriers,
        tone_phases_rad=tuple(float(p) for p in tone_phases_rad),
        per_tone_power_dbm=PER_TONE_LIMIT_DBM,
        capture_rate_hz=rate,
        channel_out_rate_hz=DEFAULT_CHANNEL_OUT_RATE_HZ,
        capture_center_hz=DEFAULT_CAPTURE_CENTER_HZ,
        tone_offsets_hz=tuple(float(o) for o in offsets),
    )


def subset_plan(plan: CarrierPlan, indices) -> CarrierPlan:
    """Plan restricted to a subset of carriers (the plan itself for all of them)."""
    idx = tuple(sorted(int(i) for i in indices))
    return plan if idx == tuple(range(plan.n_carriers)) else _subset_plan(plan, idx)


@functools.lru_cache(maxsize=256)
def _subset_plan(plan: CarrierPlan, idx: tuple[int, ...]) -> CarrierPlan:
    # cached: a plan is frozen, and building one re-runs all of its checks
    if not idx:
        raise ModelError("carrier subset must not be empty")
    return replace(
        plan,
        carriers_hz=tuple(plan.carriers_hz[i] for i in idx),
        tone_phases_rad=tuple(plan.tone_phases_rad[i] for i in idx),
        tone_offsets_hz=tuple(plan.tone_offsets_hz[i] for i in idx),
    )


@dataclass(frozen=True)
class ArrayGeometry:
    """Receive array and transmitter coordinates (meters)."""

    rx_positions_m: tuple[tuple[float, float, float], ...]
    tx_wideband_position_m: tuple[float, float, float]
    tx_ism_position_m: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "rx_positions_m", tuple(tuple(p) for p in self.rx_positions_m))
        for name in ("tx_wideband_position_m", "tx_ism_position_m"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.rx_positions_m) < 1:
            raise ModelError("need at least one rx antenna")
        coords = np.asarray(self.rx_positions_m, dtype=float)
        if not (np.all(np.isfinite(coords))
                and np.all(np.isfinite(self.tx_wideband_position_m))
                and np.all(np.isfinite(self.tx_ism_position_m))):
            raise ModelError("geometry coordinates must be finite")

    @property
    def n_antennas(self) -> int:
        return len(self.rx_positions_m)

    def rx_array(self) -> np.ndarray:
        return np.asarray(self.rx_positions_m, dtype=float)


DEFAULT_ARRAY_HEIGHT_M = 1.11
DEFAULT_ELEMENT_SPACING_M = 0.21
DEFAULT_MID_GAP_M = 0.315
DEFAULT_TX_DROP_M = 0.40


def default_array_geometry() -> ArrayGeometry:
    """1x8 line: 21 cm element spacing with a 31.5 cm gap in the middle
    (2:3 co-prime), transmitters hung 0.4 m below the array bisection."""
    gaps = [DEFAULT_ELEMENT_SPACING_M] * 3 + [DEFAULT_MID_GAP_M] + [DEFAULT_ELEMENT_SPACING_M] * 3
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    x -= x.mean()
    rx = tuple((float(xi), 0.0, DEFAULT_ARRAY_HEIGHT_M) for xi in x)
    tx_z = DEFAULT_ARRAY_HEIGHT_M - DEFAULT_TX_DROP_M
    return ArrayGeometry(
        rx_positions_m=rx,
        tx_wideband_position_m=(0.0, 0.0, tx_z),
        tx_ism_position_m=(-0.25, 0.0, tx_z),
    )


def subset_geometry(geom: ArrayGeometry, n_antennas: int) -> ArrayGeometry:
    """Keep the innermost ``n_antennas`` elements (pairs added outward)."""
    if not 1 <= n_antennas <= geom.n_antennas:
        raise ModelError("invalid antenna subset size")
    order = antenna_subset_indices(geom, n_antennas)
    return replace(geom, rx_positions_m=tuple(geom.rx_positions_m[i] for i in order))


def antenna_subset_indices(geom: ArrayGeometry, n_antennas: int) -> list[int]:
    x = geom.rx_array()[:, 0]
    by_center = np.argsort(np.abs(x), kind="stable")[:n_antennas]
    return sorted(int(i) for i in by_center)


@dataclass(frozen=True)
class PropagationPath:
    """One propagation component of a tag's channel.

    Exactly one of the three forms applies:
      * direct=True: geometric Tx -> tag -> Rx path,
      * reflector_m set: Tx -> tag -> reflector -> Rx,
      * total_length_m set: fixed total length for every antenna (used by
        controlled-resolution studies).

    ``phase_rad`` is the reflection-coefficient phase (pi for a metallic
    bounce); the gain stays a positive magnitude.
    """

    gain: float
    direct: bool = False
    reflector_m: tuple[float, float, float] | None = None
    total_length_m: float | None = None
    phase_rad: float = 0.0

    def __post_init__(self):
        if self.reflector_m is not None:
            object.__setattr__(self, "reflector_m", tuple(self.reflector_m))
        if not 0.0 < self.gain <= 1.0:
            raise ModelError("path gain must be in (0, 1]")
        forms = int(self.direct) + int(self.reflector_m is not None) + int(self.total_length_m is not None)
        if forms != 1:
            raise ModelError("path must be exactly one of direct/reflector/fixed-length")


@dataclass(frozen=True)
class TagDef:
    epc_bits: tuple[int, ...]
    position_m: tuple[float, float, float]
    paths: tuple[PropagationPath, ...]

    def __post_init__(self):
        for name in ("epc_bits", "position_m"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if sum(1 for p in self.paths if p.direct) != 1:
            raise ModelError("tag needs exactly one direct path")
        if any(b not in (0, 1) for b in self.epc_bits):
            raise ModelError("epc bits must be 0/1")


@dataclass(frozen=True)
class Scene:
    tags: tuple[TagDef, ...]
    ambient_noise_dbm_per_hz: float = -174.0
    seed: int = 0


def path_length_m(path: PropagationPath, tag_pos, geom: ArrayGeometry, antenna: int) -> float:
    """Total Tx -> tag -> (reflector ->) Rx length of one path for one antenna."""
    g = np.asarray(tag_pos, dtype=float)
    tx = np.asarray(geom.tx_wideband_position_m, dtype=float)
    rx = np.asarray(geom.rx_positions_m[antenna], dtype=float)
    if path.total_length_m is not None:
        return float(path.total_length_m)
    out = float(np.linalg.norm(g - tx))
    if path.direct:
        return out + float(np.linalg.norm(rx - g))
    p = np.asarray(path.reflector_m, dtype=float)
    return out + float(np.linalg.norm(p - g)) + float(np.linalg.norm(rx - p))


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex channel estimates indexed [antenna k][carrier l].

    ``quality`` holds a per-entry SNR estimate in dB (None when synthetic and
    noiseless): against the pre-SOF noise from ``decode_pipeline``, the RSSI
    from ``import_snapshots``, the realized SNR from ``noisy_channel``.
    ``mask`` flags entries actually observed (False = missing).
    A mask of None is stored as all True: every entry observed.
    """

    h: np.ndarray
    carriers_hz: tuple[float, ...]
    geometry: ArrayGeometry
    quality: np.ndarray | None = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        object.__setattr__(self, "h", h)
        if h.ndim != 2:
            raise ModelError("channel matrix must be K x L")
        if h.shape[0] != self.geometry.n_antennas or h.shape[1] != len(self.carriers_hz):
            raise ModelError("channel matrix dimensions inconsistent with geometry/plan")
        if not np.all(np.isfinite(h)):
            raise ModelError("channel entries must be finite")
        if self.quality is not None and np.shape(self.quality) != h.shape:
            raise ModelError("channel quality must be K x L")
        # ones_like keeps the memory layout of h, so masked sums over an
        # unmasked matrix run in the same order as over a carrier-sliced one
        mask = np.ones_like(h, dtype=bool) if self.mask is None else self.mask
        object.__setattr__(self, "mask", np.asarray(mask, dtype=bool))
        if self.mask.shape != h.shape:
            raise ModelError("channel mask must be K x L")

    @property
    def shape(self) -> tuple[int, int]:
        return self.h.shape


def synth_channel(scene: Scene, geom: ArrayGeometry, plan: CarrierPlan,
                  tag_index: int) -> ChannelMatrix:
    """Deterministic multipath forward model for one tag.

    h[k][l] = sum_i a_i * exp(-j 2 pi f_l d_i(k) / c).  Noise is added by the
    capture simulator, never here.
    """
    if not 0 <= tag_index < len(scene.tags):
        raise ModelError("tag index out of range")
    tag = scene.tags[tag_index]
    if not tag.paths:
        raise ModelError("tag has an empty path set")
    K, L = geom.n_antennas, plan.n_carriers
    f = np.asarray(plan.carriers_hz, dtype=float)
    h = np.zeros((K, L), dtype=complex)
    for k in range(K):
        for p in tag.paths:
            d = path_length_m(p, tag.position_m, geom, k)
            h[k] += p.gain * np.exp(1j * p.phase_rad) * np.exp(-2j * math.pi * f * d / C_M_PER_S)
    return ChannelMatrix(h=h, carriers_hz=plan.carriers_hz, geometry=geom)


def thermal_noise_dbm(bandwidth_hz: float) -> float:
    """Thermal noise floor at room temperature: -174 + 10 log10(B) dBm."""
    if bandwidth_hz <= 0:
        raise ModelError("bandwidth must be positive")
    return -174.0 + 10.0 * math.log10(bandwidth_hz)


def distance_resolution(bandwidth_hz: float) -> float:
    """One-way path-separation resolution c / (2 B) in meters."""
    if bandwidth_hz <= 0:
        raise ModelError("bandwidth must be positive")
    return C_M_PER_S / (2.0 * bandwidth_hz)


def fraunhofer_distance(aperture_m: float, wavelength_m: float) -> float:
    """Near-field boundary 2 D^2 / lambda in meters."""
    if aperture_m <= 0 or wavelength_m <= 0:
        raise ModelError("aperture and wavelength must be positive")
    return 2.0 * aperture_m ** 2 / wavelength_m


@dataclass(frozen=True)
class ToneCheck:
    carrier_hz: float
    in_exclusion_band: bool


@dataclass(frozen=True)
class EmissionReport:
    tones: tuple[ToneCheck, ...]

    @property
    def passed(self) -> bool:
        return not any(t.in_exclusion_band for t in self.tones)


def validate_emission(plan: CarrierPlan) -> EmissionReport:
    """Check each tone against the ISM exclusion band.  Reports failures,
    never raises; the per-tone power ceiling needs no report, since
    ``CarrierPlan`` refuses a plan above it."""
    lo, hi = ISM_BAND_HZ
    return EmissionReport(tones=tuple(ToneCheck(carrier_hz=f, in_exclusion_band=lo <= f <= hi)
                                      for f in plan.carriers_hz))


# ---------------------------------------------------------------------------
# JSON configuration: the "plan", "geometry" and "scene" sections hold exactly
# the fields of CarrierPlan, ArrayGeometry and Scene (tags and paths nested as
# objects); any other top-level key is passed through untouched.

_SECTIONS = {
    "plan": lambda d: CarrierPlan(**d),
    "geometry": lambda d: ArrayGeometry(**d),
    "scene": lambda d: Scene(**{**d, "tags": tuple(
        TagDef(**{**t, "paths": tuple(PropagationPath(**p) for p in t["paths"])})
        for t in d["tags"])}),
}


def save_config(path, plan: CarrierPlan | None = None,
                geom: ArrayGeometry | None = None,
                scene: Scene | None = None) -> None:
    doc = {name: asdict(value) for name, value in (("plan", plan), ("geometry", geom),
                                                   ("scene", scene)) if value is not None}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def json_number(name: str, value) -> float:
    """``value`` as a float.  A JSON number is an int or a float, never a bool;
    any other value raises a ModelError naming ``name`` and the value's type."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{name} must be a JSON number, not {type(value).__name__}")
    return float(value)


def json_integer(name: str, value) -> None:
    """Check that ``value`` is a JSON integer: an int, never a bool; any other
    value raises a ModelError naming ``name`` and the value."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{name} {value!r} is not an integer")


def read_json_object(path, what: str, keys=(), numbers=(), integers=()) -> dict:
    """The JSON object in the file at ``path``.  Any other JSON value, or an
    object that misses one of ``keys``, ``numbers`` or ``integers``, or whose
    ``numbers`` fail json_number or whose ``integers`` fail json_integer,
    raises a ModelError naming the file."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ModelError(f"{path}: {what} must be a JSON object")
    for key in (*keys, *numbers, *integers):
        if key not in doc:
            raise ModelError(f"{path}: {what} misses key {key!r}")
    for key in numbers:
        json_number(f"{path}: {what} {key}", doc[key])
    for key in integers:
        json_integer(f"{path}: {what} {key}", doc[key])
    return doc


def load_config(path, sections: dict | None = None) -> dict:
    """Read a config written by save_config.  ``sections`` maps more section
    names to their builders, as for plan, geometry and scene.  A file or
    section that is not an object, or a section that misses a field, has an
    unknown one or fails its class's checks, raises a ModelError naming the
    file and the section."""
    doc = read_json_object(path, "config")
    out = dict(doc)
    for name, build in {**_SECTIONS, **(sections or {})}.items():
        if name in doc:
            try:
                out[name] = build(doc[name])
            except KeyError as exc:
                raise ModelError(f"{path}: {name} section misses field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ModelError(f"{path}: {name} section: {exc}") from exc
    return out
