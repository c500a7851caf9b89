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

import json
import math
from dataclasses import dataclass, field, replace

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
        # tuples keep the plan hashable, so it can key the tone-table cache
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


def default_carrier_plan(desk_scale: bool = True,
                         tone_phases_rad=None,
                         channel_out_rate_hz: float = DEFAULT_CHANNEL_OUT_RATE_HZ,
                         per_tone_power_dbm: float = PER_TONE_LIMIT_DBM) -> CarrierPlan:
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
        per_tone_power_dbm=per_tone_power_dbm,
        capture_rate_hz=rate,
        channel_out_rate_hz=channel_out_rate_hz,
        capture_center_hz=DEFAULT_CAPTURE_CENTER_HZ,
        tone_offsets_hz=tuple(float(o) for o in offsets),
    )


def uniform_carrier_plan(n_tones: int = 16,
                         span_hz: float = 199.8e6,
                         center_hz: float = DEFAULT_CAPTURE_CENTER_HZ,
                         desk_scale: bool = True,
                         channel_out_rate_hz: float = DEFAULT_CHANNEL_OUT_RATE_HZ) -> CarrierPlan:
    """Evenly spaced variant, handy for resolution studies without the ISM gap."""
    if n_tones < 2:
        raise ModelError("need at least two tones")
    offsets = np.linspace(-span_hz / 2, span_hz / 2, n_tones)
    carriers = center_hz + offsets
    scale = DESK_OFFSET_SCALE if desk_scale else 1.0
    rate = DESK_CAPTURE_RATE_HZ if desk_scale else FULL_CAPTURE_RATE_HZ
    return CarrierPlan(
        carriers_hz=tuple(carriers),
        tone_phases_rad=(0.0,) * n_tones,
        per_tone_power_dbm=PER_TONE_LIMIT_DBM,
        capture_rate_hz=rate,
        channel_out_rate_hz=channel_out_rate_hz,
        capture_center_hz=center_hz,
        tone_offsets_hz=tuple(offsets * scale),
    )


def subset_plan(plan: CarrierPlan, indices) -> CarrierPlan:
    """Plan restricted to a subset of carriers (used by the ablation sweeps)."""
    idx = sorted(int(i) for i in indices)
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


def default_array_geometry(height_m: float = DEFAULT_ARRAY_HEIGHT_M) -> ArrayGeometry:
    """1x8 line: 21 cm element spacing with a 31.5 cm gap in the middle
    (2:3 co-prime), transmitters hung 0.4 m below the array bisection."""
    gaps = [DEFAULT_ELEMENT_SPACING_M] * 3 + [DEFAULT_MID_GAP_M] + [DEFAULT_ELEMENT_SPACING_M] * 3
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    x -= x.mean()
    rx = tuple((float(xi), 0.0, height_m) for xi in x)
    tx_z = height_m - DEFAULT_TX_DROP_M
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


def theoretical_phase(position_m, antenna: int, carrier: int,
                      geom: ArrayGeometry, plan: CarrierPlan) -> float:
    """Propagation phase (2*pi*f_l/c)(|tx-g| + |g-rx_k|) wrapped into (-pi, pi]."""
    g = np.asarray(position_m, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ModelError("position must be finite")
    if not 0 <= antenna < geom.n_antennas:
        raise ModelError("antenna index out of range")
    if not 0 <= carrier < plan.n_carriers:
        raise ModelError("carrier index out of range")
    tx = np.asarray(geom.tx_wideband_position_m, dtype=float)
    rx = np.asarray(geom.rx_positions_m[antenna], dtype=float)
    d = float(np.linalg.norm(g - tx)) + float(np.linalg.norm(rx - g))
    theta = 2.0 * math.pi * plan.carriers_hz[carrier] / C_M_PER_S * d
    return float(wrap_phase(theta))


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex channel estimates indexed [antenna k][carrier l].

    ``quality`` holds a per-entry SNR estimate in dB (None when synthetic and
    noiseless); ``mask`` flags entries actually observed (False = missing).
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
        if self.mask is not None:
            mask = np.asarray(self.mask, dtype=bool)
            object.__setattr__(self, "mask", mask)
            if mask.shape != h.shape:
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
    power_dbm: float
    power_ok: bool
    in_exclusion_band: bool

    @property
    def passed(self) -> bool:
        return self.power_ok and not self.in_exclusion_band


@dataclass(frozen=True)
class EmissionReport:
    tones: tuple[ToneCheck, ...]
    limit_dbm: float
    exclusion_band_hz: tuple[float, float]

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.tones)


def validate_emission(plan: CarrierPlan,
                      limit_dbm: float = PER_TONE_LIMIT_DBM,
                      exclusion_band_hz: tuple[float, float] = ISM_BAND_HZ) -> EmissionReport:
    """Check each tone against the per-tone power ceiling and the exclusion
    band.  Reports failures, never raises."""
    lo, hi = exclusion_band_hz
    tones = tuple(
        ToneCheck(
            carrier_hz=f,
            power_dbm=plan.per_tone_power_dbm,
            power_ok=plan.per_tone_power_dbm <= limit_dbm + 1e-12,
            in_exclusion_band=lo <= f <= hi,
        )
        for f in plan.carriers_hz
    )
    return EmissionReport(tones=tones, limit_dbm=limit_dbm, exclusion_band_hz=exclusion_band_hz)


# ---------------------------------------------------------------------------
# JSON configuration round trip


def plan_to_dict(plan: CarrierPlan) -> dict:
    return {
        "carriers_hz": list(plan.carriers_hz),
        "tone_phases_rad": list(plan.tone_phases_rad),
        "per_tone_power_dbm": plan.per_tone_power_dbm,
        "capture_rate_hz": plan.capture_rate_hz,
        "channel_out_rate_hz": plan.channel_out_rate_hz,
        "capture_center_hz": plan.capture_center_hz,
        "tone_offsets_hz": list(plan.tone_offsets_hz),
    }


def plan_from_dict(d: dict) -> CarrierPlan:
    return CarrierPlan(
        carriers_hz=tuple(d["carriers_hz"]),
        tone_phases_rad=tuple(d["tone_phases_rad"]),
        per_tone_power_dbm=float(d["per_tone_power_dbm"]),
        capture_rate_hz=float(d["capture_rate_hz"]),
        channel_out_rate_hz=float(d["channel_out_rate_hz"]),
        capture_center_hz=float(d["capture_center_hz"]),
        tone_offsets_hz=tuple(d["tone_offsets_hz"]),
    )


def geometry_to_dict(geom: ArrayGeometry) -> dict:
    return {
        "rx_positions_m": [list(p) for p in geom.rx_positions_m],
        "tx_wideband_position_m": list(geom.tx_wideband_position_m),
        "tx_ism_position_m": list(geom.tx_ism_position_m),
    }


def geometry_from_dict(d: dict) -> ArrayGeometry:
    return ArrayGeometry(
        rx_positions_m=tuple(tuple(p) for p in d["rx_positions_m"]),
        tx_wideband_position_m=tuple(d["tx_wideband_position_m"]),
        tx_ism_position_m=tuple(d["tx_ism_position_m"]),
    )


def scene_to_dict(scene: Scene) -> dict:
    return {
        "ambient_noise_dbm_per_hz": scene.ambient_noise_dbm_per_hz,
        "seed": scene.seed,
        "tags": [
            {
                "epc_bits": list(t.epc_bits),
                "position_m": list(t.position_m),
                "paths": [
                    {
                        "gain": p.gain,
                        "direct": p.direct,
                        "reflector_m": list(p.reflector_m) if p.reflector_m is not None else None,
                        "total_length_m": p.total_length_m,
                        "phase_rad": p.phase_rad,
                    }
                    for p in t.paths
                ],
            }
            for t in scene.tags
        ],
    }


def scene_from_dict(d: dict) -> Scene:
    tags = tuple(
        TagDef(
            epc_bits=tuple(int(b) for b in t["epc_bits"]),
            position_m=tuple(t["position_m"]),
            paths=tuple(
                PropagationPath(
                    gain=float(p["gain"]),
                    direct=bool(p["direct"]),
                    reflector_m=tuple(p["reflector_m"]) if p.get("reflector_m") else None,
                    total_length_m=p.get("total_length_m"),
                    phase_rad=float(p.get("phase_rad", 0.0)),
                )
                for p in t["paths"]
            ),
        )
        for t in d["tags"]
    )
    return Scene(tags=tags,
                 ambient_noise_dbm_per_hz=float(d["ambient_noise_dbm_per_hz"]),
                 seed=int(d["seed"]))


def save_config(path, plan: CarrierPlan | None = None,
                geom: ArrayGeometry | None = None,
                scene: Scene | None = None, extra: dict | None = None) -> None:
    doc: dict = dict(extra or {})
    if plan is not None:
        doc["plan"] = plan_to_dict(plan)
    if geom is not None:
        doc["geometry"] = geometry_to_dict(geom)
    if scene is not None:
        doc["scene"] = scene_to_dict(scene)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def load_config(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    out = dict(doc)
    if "plan" in doc:
        out["plan"] = plan_from_dict(doc["plan"])
    if "geometry" in doc:
        out["geometry"] = geometry_from_dict(doc["geometry"])
    if "scene" in doc:
        out["scene"] = scene_from_dict(doc["scene"])
    return out
