"""Scenario simulation, batch evaluation, ablation sweeps and dataset I/O.

Each simulated capture carries one tag reply (slot arbitration between tags is
the activating reader's job and out of scope); scenes with several tags yield
one capture per tag.  All randomness flows from explicit seeds, so batches are
reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path

import numpy as np
from scipy import fft as sfft

from . import model
from .model import (ArrayGeometry, CarrierPlan, ChannelMatrix, ModelError,
                    PropagationPath, Scene, TagDef, subset_plan, synth_channel)
from .waveform import (BLF_HZ, SYMBOL_S, TagPacket, backscatter_mix, build_packet_baseband,
                       packet_layout, random_walk_drift, tone_sum)
from .channelizer import (WidebandCapture, bandlimit_tag, chain_noise_gain, fast_banks,
                          processed_tag_baseband)
from .decoder import DecodeError, decode_pipeline
from .locator import (GridSpec, LocalizePolicy, LocationEstimate, PriorROI,
                      DEFAULT_POLICY, localize)

CLOCK_STRETCH_MARGIN = 1.18


class HarnessError(ModelError):
    pass


def bits_to_hex(bits) -> str:
    bits = [int(b) for b in bits]
    return "".join(f"{int(''.join(map(str, bits[i:i + 4])), 2):x}" for i in range(0, len(bits), 4))


def random_epc(rng) -> tuple[int, ...]:
    return tuple(int(b) for b in rng.integers(0, 2, size=96))


@dataclass(frozen=True)
class SceneSpec:
    """Scene plus capture conditions for simulation.  ``leak_db`` (None: none)
    is each tone's leak over the RMS tag channel gain; it is DC in every
    channel, so only full-path captures hold it (fast-path banks are notched)."""

    scene: Scene
    snr_db: float = 20.0
    leak_db: float | None = 20.0
    t0_s: float | None = None
    alpha0_frac: float = 0.0
    drift_frac: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.snr_db):
            raise HarnessError("target SNR must be finite")


def _leak_gains(geom: ArrayGeometry, plan: CarrierPlan, antenna: int,
                amplitude: float) -> np.ndarray:
    tx = np.asarray(geom.tx_wideband_position_m)
    rx = np.asarray(geom.rx_positions_m[antenna])
    d = float(np.linalg.norm(rx - tx))
    f = np.asarray(plan.carriers_hz)
    return amplitude * np.exp(-2j * math.pi * f * d / model.C_M_PER_S)


def _make_packet(spec: SceneSpec, tag: TagDef, rng) -> TagPacket:
    t0 = spec.t0_s if spec.t0_s is not None else float(rng.uniform(0.9e-3, 1.1e-3))
    rn16 = tuple(int(b) for b in rng.integers(0, 2, size=16))
    drift: tuple[float, ...] = ()
    if spec.drift_frac > 0:
        layout = packet_layout(len(tag.epc_bits))
        n_sym = int(math.ceil(layout.total_s / SYMBOL_S)) + 8
        drift = random_walk_drift(n_sym, rng, max_frac=spec.drift_frac)
    return TagPacket(rn16_bits=rn16, epc_bits=tag.epc_bits, t0_s=t0,
                     alpha0_hz=spec.alpha0_frac * BLF_HZ, drift_alpha_hz=drift)


def _fast_capture_length(n: int, plan: CarrierPlan) -> int:
    """Shortest capture of at least n samples whose bank (one stream sample
    per decimation D) has a length that FFTs fast."""
    d = plan.decimation
    return d * sfft.next_fast_len(-(-n // d))


def simulate_capture(spec: SceneSpec, plan: CarrierPlan, geom: ArrayGeometry,
                     seed: int, tag_index: int = 0, fast_path: bool = False):
    """Simulate one tag reply at every antenna.

    Returns (captures-or-banks, packet, channel).  The full path emits
    WidebandCapture objects for the channelizer, sum_l (h_kl b + leak_kl) tone_l
    plus white noise at antenna k (``waveform.tone_sum``); the fast path
    applies the channelizer's own filter chain to the tag baseband directly,
    bypassing the wideband mixing, and sets the noise level for the SNR;
    ``channelizer.fast_banks`` builds its ChannelBank objects, row views of
    one block, which come out notched and hold no leak: the leak is DC, which
    the notch removes exactly.  Either way the banks come out at a length
    that FFTs fast (the notch and the preamble search transform every stream).
    """
    rng = np.random.default_rng(seed)
    pkt = _make_packet(spec, spec.scene.tags[tag_index], rng)
    layout = packet_layout(len(pkt.epc_bits))
    duration = pkt.t0_s + layout.total_s * CLOCK_STRETCH_MARGIN + 0.3e-3

    h = synth_channel(spec.scene, geom, plan, tag_index)
    tag_wave = build_packet_baseband(pkt, plan.capture_rate_hz)

    snr_lin = 10 ** (spec.snr_db / 10)
    mean_h = float(np.sqrt(np.mean(np.abs(h.h) ** 2)))

    if fast_path:
        # the warped wave is zero after the packet, so padding it only
        # lengthens the bank
        n_wave = tag_wave.samples.size
        padded = np.pad(tag_wave.samples, (0, _fast_capture_length(n_wave, plan) - n_wave))
        base = processed_tag_baseband(replace(tag_wave, samples=padded), plan).samples
        sig_power = float(np.mean(np.abs(base[np.abs(base) > 0.1]) ** 2))
        return fast_banks(rng, base, h.h, mean_h ** 2 * sig_power / snr_lin, plan), pkt, h

    leak_amp = 0.0 if spec.leak_db is None else mean_h * 10 ** (spec.leak_db / 20)
    tag_bl = bandlimit_tag(tag_wave)
    active = np.abs(tag_bl.samples) > 0.1
    sig_power = float(np.mean(np.abs(tag_bl.samples[active]) ** 2)) if active.any() else 1.0
    noise_std = math.sqrt(mean_h ** 2 * sig_power / snr_lin / chain_noise_gain(plan) / 2)

    captures = []
    n = _fast_capture_length(int(round(duration * plan.capture_rate_hz)), plan)
    for k in range(geom.n_antennas):
        rx = backscatter_mix(plan, n, tag_bl, h, k).samples
        if leak_amp > 0:
            rx += tone_sum(plan, _leak_gains(geom, plan, k, leak_amp), n)
        # in place, real draw first: the noise of (re + 1j * im) * noise_std
        rx.real += rng.standard_normal(n) * noise_std
        rx.imag += rng.standard_normal(n) * noise_std
        captures.append(WidebandCapture(samples=rx, rate_hz=plan.capture_rate_hz, antenna_id=k))
    return captures, pkt, h


def noisy_channel(h: ChannelMatrix, snr_db: float, rng) -> ChannelMatrix:
    """Channel-domain capture surrogate: complex white noise on every entry at
    the target mean per-entry SNR, quality filled with the realized SNR."""
    power = float(np.mean(np.abs(h.h) ** 2))
    var = power / 10 ** (snr_db / 10)
    noise = (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)) \
        * math.sqrt(var / 2)
    noisy = h.h + noise
    quality = 10 * np.log10(np.maximum(np.abs(h.h) ** 2 / var, 1e-12))
    return ChannelMatrix(h=noisy, carriers_hz=h.carriers_hz, geometry=h.geometry,
                         quality=quality)


# ---------------------------------------------------------------------------
# Batch evaluation


@dataclass(frozen=True)
class BatchConfig:
    plan: CarrierPlan
    geom: ArrayGeometry
    grid: GridSpec
    prior: PriorROI | None = None
    policy: LocalizePolicy = DEFAULT_POLICY
    mode: str = "channel"          # or "waveform", the fast simulation path
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("channel", "waveform"):
            raise HarnessError(f"batch mode {self.mode!r} is not 'channel' or 'waveform'")


@dataclass(frozen=True)
class TagResult:
    scene_index: int
    tag_index: int
    true_position_m: tuple[float, float, float]
    estimate: LocationEstimate | None
    error_m: float | None
    decoded: bool
    crc_ok: bool | None = None
    # DecodeError.stage, "crc" or "model_error"; None when the tag was localized
    failure_stage: str | None = None


@dataclass(frozen=True)
class RunReport:
    results: tuple[TagResult, ...]
    p50_m: float
    p90_m: float
    p99_m: float
    n_tags: int
    n_failed: int
    throughput_pps: float


def nearest_rank_percentile(values, pct: float) -> float:
    """Nearest-rank percentile; the 99th of fewer than 100 samples is the max."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise HarnessError("no values to rank")
    rank = max(int(math.ceil(pct / 100.0 * len(vals))), 1)
    return vals[rank - 1]


def _scene_seed(base: int, scene_idx: int, tag_idx: int) -> int:
    return (base * 1_000_003 + scene_idx * 1009 + tag_idx) % (2 ** 32)


def run_batch(scenes: list[SceneSpec], cfg: BatchConfig,
              carrier_idx=None, antenna_idx=None) -> RunReport:
    """Decode (or channel-surrogate) and localize every tag of every scene.

    ``carrier_idx``/``antenna_idx`` subset the full plan/geometry while the
    noise draws stay tied to the full-size seeds, so ablation settings see
    identical realizations on their shared entries.  Each index list is taken
    in ascending order for the plan or geometry and the channel entries alike;
    a repeated index, or one outside the full plan or geometry, raises.
    Individual failures are recorded, never aborting the batch.
    """
    if not scenes:
        raise HarnessError("empty scene list")
    ant = list(range(cfg.geom.n_antennas)) if antenna_idx is None else sorted(antenna_idx)
    car = list(range(cfg.plan.n_carriers)) if carrier_idx is None else sorted(carrier_idx)
    for name, idx, n in (("antenna_idx", ant, cfg.geom.n_antennas),
                         ("carrier_idx", car, cfg.plan.n_carriers)):
        if len(set(idx)) < len(idx) or not all(i in range(n) for i in idx):
            raise HarnessError(f"{name} must hold distinct indices in range({n})")
    plan = subset_plan(cfg.plan, car)
    geom = cfg.geom if antenna_idx is None else replace(
        cfg.geom, rx_positions_m=tuple(cfg.geom.rx_positions_m[i] for i in ant))
    entries = np.ix_(ant, car)

    results: list[TagResult] = []
    busy_s = 0.0
    for si, spec in enumerate(scenes):
        for ti, tag in enumerate(spec.scene.tags):
            seed = _scene_seed(cfg.seed, si, ti)
            rng = np.random.default_rng(seed)
            estimate = None
            decoded = False
            crc_ok = None
            failure_stage = None
            t_start = None
            try:
                if cfg.mode == "channel":
                    h_full = synth_channel(spec.scene, cfg.geom, cfg.plan, ti)
                    noisy = noisy_channel(h_full, spec.snr_db, rng)
                    ch = ChannelMatrix(h=noisy.h[entries], carriers_hz=plan.carriers_hz,
                                       geometry=geom, quality=noisy.quality[entries])
                    decoded = True
                    t_start = (time.perf_counter(), time.process_time())
                else:
                    banks = simulate_capture(spec, plan, geom, seed, ti, fast_path=True)[0]
                    t_start = (time.perf_counter(), time.process_time())
                    packet = decode_pipeline(banks, plan, geom, epc_len=len(tag.epc_bits))
                    decoded = True
                    crc_ok = packet.crc_ok
                    ch = packet.channel
                if crc_ok is False:
                    failure_stage = "crc"
                else:
                    estimate = localize(ch, cfg.grid, geom, plan, cfg.prior, cfg.policy)
            except DecodeError as exc:
                failure_stage = exc.stage
            except ModelError:
                failure_stage = "model_error"
            # charged whatever its outcome: CPU time, or wall time if that is shorter
            if t_start is not None:
                busy_s += min(time.perf_counter() - t_start[0], time.process_time() - t_start[1])
            error = None
            if estimate is not None:
                error = float(np.hypot(estimate.position_m[0] - tag.position_m[0],
                                       estimate.position_m[1] - tag.position_m[1]))
            results.append(TagResult(scene_index=si, tag_index=ti,
                                     true_position_m=tag.position_m, estimate=estimate,
                                     error_m=error, decoded=decoded, crc_ok=crc_ok,
                                     failure_stage=failure_stage))
    errors = [r.error_m for r in results if r.error_m is not None]
    n_failed = sum(1 for r in results if r.error_m is None)
    if not errors:
        errors = [float("inf")]
    throughput = (len(results) - n_failed) / busy_s if busy_s > 0 else 0.0
    return RunReport(
        results=tuple(results),
        p50_m=nearest_rank_percentile(errors, 50),
        p90_m=nearest_rank_percentile(errors, 90),
        p99_m=nearest_rank_percentile(errors, 99),
        n_tags=len(results), n_failed=n_failed,
        throughput_pps=throughput,
    )


def bandwidth_carrier_indices(plan: CarrierPlan, bandwidth_hz: float) -> list[int]:
    """Carriers within ``bandwidth_hz`` of the low band edge (contiguous subset)."""
    f0 = plan.carriers_hz[0]
    return [i for i, f in enumerate(plan.carriers_hz) if f - f0 <= bandwidth_hz * (1 + 1e-12)]


BANDWIDTH_SETTINGS_HZ = (50e6, 100e6, 150e6, 200e6)
ANTENNA_SETTINGS = (2, 4, 6, 8)
ALGORITHM_SETTINGS = (("basic", LocalizePolicy(mode="never")),
                      ("enhanced", LocalizePolicy(mode="conditional")))


def ablation_sweep(corpus: list[SceneSpec], axis: str, cfg: BatchConfig) -> list[dict]:
    """Percentile-error table along one resource axis, same corpus and seeds
    for every setting."""
    if axis == "bandwidth":
        table = [(f"{bw / 1e6:.0f}MHz", cfg, bandwidth_carrier_indices(cfg.plan, bw), None)
                 for bw in BANDWIDTH_SETTINGS_HZ]
    elif axis == "antennas":
        table = [(str(n), cfg, None, model.antenna_subset_indices(cfg.geom, n))
                 for n in ANTENNA_SETTINGS]
    elif axis == "algorithm":
        table = [(name, replace(cfg, policy=policy), None, None)
                 for name, policy in ALGORITHM_SETTINGS]
    else:
        raise HarnessError(f"unknown sweep axis {axis!r}")
    rows = []
    for setting, setting_cfg, carrier_idx, antenna_idx in table:
        rep = run_batch(corpus, setting_cfg, carrier_idx, antenna_idx)
        rows.append({"setting": setting, "p50_m": rep.p50_m, "p90_m": rep.p90_m,
                     "p99_m": rep.p99_m})
    return rows


def sweep_rows_to_csv(rows: list[dict], path) -> None:
    lines = ["setting,p50_m,p90_m,p99_m"]
    lines += [f"{r['setting']},{r['p50_m']:.6f},{r['p90_m']:.6f},{r['p99_m']:.6f}"
              for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def evaluate_roi(decisions: list[dict]) -> tuple[float, float]:
    """Miss and cross rates from {'label', 'classified'} records.

    Miss: inside tags not classified inside (undecoded counts as missed).
    Cross: outside tags classified inside.
    """
    for d in decisions:
        if d.get("label") not in ("inside", "outside"):
            raise HarnessError("every tag needs an inside/outside label")
    inside = [d for d in decisions if d["label"] == "inside"]
    outside = [d for d in decisions if d["label"] == "outside"]
    if not inside or not outside:
        raise HarnessError("need both inside and outside tags")
    miss = sum(1 for d in inside if d.get("classified") != "inside") / len(inside)
    cross = sum(1 for d in outside if d.get("classified") == "inside") / len(outside)
    return miss, cross


# ---------------------------------------------------------------------------
# Scene corpus builders


def single_path_tag(position_m, epc_bits) -> TagDef:
    return TagDef(epc_bits=tuple(epc_bits), position_m=tuple(float(v) for v in position_m),
                  paths=(PropagationPath(gain=1.0, direct=True),))


def multipath_tag(position_m, epc_bits, reflector_m, reflect_gain: float) -> TagDef:
    return TagDef(epc_bits=tuple(epc_bits), position_m=tuple(float(v) for v in position_m),
                  paths=(PropagationPath(gain=1.0, direct=True),
                         PropagationPath(gain=reflect_gain, reflector_m=tuple(reflector_m))))


# Tag height of both corpora.
CORPUS_Z_M = 1.11
# Desk multipath corpus (c10): channel SNR, tags per scene and reflectors per
# tag (inclusive ranges), reflector gains, and the tags' x and y ranges.
DESK_SNR_DB = 16.0
DESK_TAGS_PER_SCENE = (1, 5)
DESK_REFLECTORS_PER_TAG = (1, 2)
DESK_GAIN_RANGE = (0.3, 0.9)
DESK_X_RANGE_M = (-1.4, 1.4)
DESK_Y_RANGE_M = (1.0, 6.0)
# Gate corpus (c11): channel SNR, the inside and outside tags' y ranges, and
# the tags' x range.
GATE_SNR_DB = 20.0
GATE_INSIDE_Y_M = (0.5, 2.0)
GATE_OUTSIDE_Y_M = (3.0, 6.0)
GATE_X_RANGE_M = (-1.2, 1.2)


def _reflector(rng: np.random.Generator, pos) -> tuple[float, float, float]:
    """A corpus reflector 0.5-2 m from the tag at a uniform angle, at y >= 0.3 m."""
    ang, dist = rng.uniform(0, 2 * math.pi), rng.uniform(0.5, 2.0)
    return (pos[0] + dist * math.cos(ang), max(pos[1] + dist * math.sin(ang), 0.3), CORPUS_Z_M)


def desk_multipath_corpus(n_scenes: int = 200, seed: int = 7) -> list[SceneSpec]:
    """Multipath evaluation corpus: reflectors drawn within 2 m of each tag.

    Severity (gains up to 0.9, up to two reflectors, 16 dB channels) is tuned
    so the basic hologram shows a meter-class 99th-percentile tail on desk
    scale, the regime the suppression layers target.
    """
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(n_scenes):
        n_tags = int(rng.integers(DESK_TAGS_PER_SCENE[0], DESK_TAGS_PER_SCENE[1] + 1))
        tags = []
        for _ in range(n_tags):
            pos = (float(rng.uniform(*DESK_X_RANGE_M)), float(rng.uniform(*DESK_Y_RANGE_M)),
                   CORPUS_Z_M)
            paths = [PropagationPath(gain=1.0, direct=True)]
            n_refl = int(rng.integers(DESK_REFLECTORS_PER_TAG[0],
                                      DESK_REFLECTORS_PER_TAG[1] + 1))
            for _ in range(n_refl):
                refl = _reflector(rng, pos)
                paths.append(PropagationPath(gain=float(rng.uniform(*DESK_GAIN_RANGE)),
                                             reflector_m=refl))
            tags.append(TagDef(epc_bits=random_epc(rng), position_m=pos,
                               paths=tuple(paths)))
        scenes.append(SceneSpec(scene=Scene(tags=tuple(tags), seed=int(rng.integers(2 ** 31))),
                                snr_db=DESK_SNR_DB))
    return scenes


def gate_corpus(n_inside: int = 100, n_outside: int = 100, seed: int = 11):
    """Gate-reading corpus: labeled inside/outside tags, multipath on.

    Returns (scenes, labels) with one tag per scene.
    """
    rng = np.random.default_rng(seed)
    scenes, labels = [], []
    for label, y_range, count in (("inside", GATE_INSIDE_Y_M, n_inside),
                                  ("outside", GATE_OUTSIDE_Y_M, n_outside)):
        for _ in range(count):
            pos = (float(rng.uniform(*GATE_X_RANGE_M)), float(rng.uniform(*y_range)),
                   CORPUS_Z_M)
            refl = _reflector(rng, pos)
            tag = multipath_tag(pos, random_epc(rng), refl, float(rng.uniform(0.2, 0.6)))
            scenes.append(SceneSpec(scene=Scene(tags=(tag,), seed=int(rng.integers(2 ** 31))),
                                    snr_db=GATE_SNR_DB))
            labels.append(label)
    return scenes, labels


# ---------------------------------------------------------------------------
# Snapshot interchange (line-delimited JSON)


def _json_number(field: str, value) -> float:
    """A numeric field's value as a float: a JSON int or float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise HarnessError(f"{field} must be a JSON number, not {type(value).__name__}")
    return float(value)


_SNAPSHOT_NUMBERS = ("phase_rad", "timestamp_s", "carrier_hz", "rssi_db", "re", "im")


@dataclass(frozen=True)
class SnapshotRecord:
    """One channel observation of one tag reply."""

    epc: str
    timestamp_s: float
    antenna_id: int
    carrier_hz: float
    phase_rad: float
    rssi_db: float
    re: float | None = None
    im: float | None = None

    def __post_init__(self):
        if not isinstance(self.epc, str):
            raise HarnessError("epc must be a string")
        if isinstance(self.antenna_id, bool) or not isinstance(self.antenna_id, int):
            raise HarnessError(f"antenna {self.antenna_id!r} is not an integer")
        if (self.re is None) != (self.im is None):
            raise HarnessError("re and im must be given together")
        numbers = [_json_number(field, getattr(self, field))
                   for field in _SNAPSHOT_NUMBERS[:4 if self.re is None else 6]]
        # a non-finite phase (the first number) fails the range test below
        if not all(map(math.isfinite, numbers[1:])):
            raise HarnessError("every number must be finite")
        if not -math.pi < self.phase_rad <= math.pi + 1e-12:
            raise HarnessError("phase must lie in (-pi, pi]")

    def to_json(self) -> str:
        return json.dumps({k: v for k, v in vars(self).items() if v is not None}, sort_keys=True)


def parse_snapshot_line(line: str) -> SnapshotRecord:
    doc = json.loads(line)
    return SnapshotRecord(epc=doc["epc"], timestamp_s=doc["timestamp_s"],
                          antenna_id=doc["antenna_id"], carrier_hz=doc["carrier_hz"],
                          phase_rad=doc["phase_rad"], rssi_db=doc["rssi_db"],
                          re=doc.get("re"), im=doc.get("im"))


def channel_to_snapshots(ch: ChannelMatrix, epc_bits, timestamp_s: float) -> list[SnapshotRecord]:
    epc = bits_to_hex(epc_bits)
    return [SnapshotRecord(epc=epc, timestamp_s=timestamp_s, antenna_id=k,
                           carrier_hz=ch.carriers_hz[l], phase_rad=float(np.angle(v)),
                           rssi_db=20 * math.log10(max(abs(v), 1e-12)),
                           re=float(v.real), im=float(v.imag))
            for (k, l), v in np.ndenumerate(ch.h)]


def export_snapshots(records: list[SnapshotRecord], path) -> None:
    Path(path).write_text("".join(r.to_json() + "\n" for r in records))


def _entry_index(antenna_id: int, carrier_hz: float, geom: ArrayGeometry,
                 plan: CarrierPlan) -> tuple[int, int]:
    """(k, l) channel-matrix index of an (antenna id, carrier Hz) observation;
    an antenna id that is not an integer, an antenna outside the geometry or a
    carrier outside the plan raises a HarnessError."""
    if isinstance(antenna_id, bool) or not isinstance(antenna_id, int):
        raise HarnessError(f"antenna {antenna_id!r} is not an integer")
    if not 0 <= antenna_id < geom.n_antennas:
        raise HarnessError(f"antenna {antenna_id} not in the {geom.n_antennas}-antenna geometry")
    if carrier_hz not in plan.carriers_hz:
        raise HarnessError(f"carrier {carrier_hz} not in the plan")
    return antenna_id, plan.carriers_hz.index(carrier_hz)


# Snapshot records of one EPC this close in time belong to one reply.
SNAPSHOT_WINDOW_S = 10e-3
# Lines parsed by one json.loads: bounds the parsed objects held at once.
_PARSE_CHUNK_LINES = 2048


def _chunk_columns(chunk: list, geom: ArrayGeometry, plan: CarrierPlan):
    """Columns (epc, time, k, l, value, rssi) of snapshot lines parsed at once
    and checked by whole columns, raising where a rule fails.  Each line gets
    an array of its own, which, with no "[" in any line, closes only where the
    line ends (a newline follows, so never in a string): one value per line."""
    text = "[[" + "],\n[".join(chunk) + "]]"
    docs = ([doc for (doc,) in json.loads(text)] if text.count("[") == len(chunk) + 1
            else list(map(json.loads, chunk)))
    epc, antenna, *numbers = zip(*map(itemgetter("epc", "antenna_id", *_SNAPSHOT_NUMBERS[:4]),
                                      docs))
    re, im = ([doc.get(key) for doc in docs] for key in ("re", "im"))
    absent = np.array([v is None for v in re])      # None becomes NaN in the float arrays
    if (len(docs) != len(chunk) or set(map(type, epc)) != {str} or set(map(type, antenna)) != {int}
            or not set(map(type, itertools.chain(*numbers))) <= {int, float}
            or not set(map(type, re + im)) <= {int, float, type(None)}
            or not np.array_equal(absent, [v is None for v in im])):
        raise ValueError("a column breaks a snapshot rule")
    phase, ts, carrier, rssi, re, im = (np.array(c, dtype=float) for c in (*numbers, re, im))
    k, carriers_hz = np.array(antenna, dtype=np.int64), np.asarray(plan.carriers_hz)
    l = np.searchsorted(carriers_hz, carrier).clip(max=carriers_hz.size - 1)
    if not (all(np.isfinite(c).all() for c in (phase, ts, carrier, rssi, re[~absent], im[~absent]))
            and np.all((-math.pi < phase) & (phase <= math.pi + 1e-12))
            and np.all((0 <= k) & (k < geom.n_antennas)) and np.all(carriers_hz[l] == carrier)):
        raise ValueError("a column breaks a snapshot rule")
    value = re + 1j * im
    # from RSSI and phase by Python's power: numpy's may differ in the last bit
    value[absent] = np.array([10 ** (x / 20) for x in rssi[absent].tolist()]) \
        * np.exp(1j * phase[absent])
    return epc, ts, k, l, value, rssi


def import_snapshots(path, geom: ArrayGeometry, plan: CarrierPlan):
    """Group snapshot lines into per-reply channel matrices.

    Records sharing an EPC within SNAPSHOT_WINDOW_S form one reply; carriers or
    antennas never observed stay masked.  Malformed lines (a missing field,
    an ``epc`` that is not a string, an ``antenna_id`` that is not an integer,
    ``re`` without ``im`` or the reverse, a bool, string or non-finite
    number), and lines naming an antenna or carrier outside the geometry or
    plan, raise with their line number.
    """
    lines = Path(path).read_text().splitlines()
    kept = list(filter(str.strip, lines))
    chunks = []
    for start in range(0, len(kept), _PARSE_CHUNK_LINES):
        try:
            chunks.append(_chunk_columns(kept[start:start + _PARSE_CHUNK_LINES], geom, plan))
        except (KeyError, OverflowError, RecursionError, TypeError, ValueError):
            # the per-line reading states the rules: it names the first bad line
            for i, line in enumerate(lines, start=1):
                try:
                    if line.strip():
                        rec = parse_snapshot_line(line)
                        _entry_index(rec.antenna_id, rec.carrier_hz, geom, plan)
                except Exception as exc:
                    raise HarnessError(f"line {i}: {exc}") from exc
            raise AssertionError("snapshot columns refused lines that break no rule")
    if not chunks:
        return []
    epc = [e for c in chunks for e in c[0]]
    ts, k, l, value, rssi = (np.concatenate(c) for c in list(zip(*chunks))[1:])
    tag = np.fromiter(map({e: i for i, e in enumerate(sorted(set(epc)))}.__getitem__, epc),
                      dtype=np.int64)
    # by time and EPC, stable: records of one cell keep file order (antenna
    # and carrier keys would change no outcome)
    order = np.lexsort((tag, ts))
    # In time order a record can only join its EPC's latest reply: an earlier
    # one opened more than a window before that reply did.
    reply, first, latest = [], [], {}
    for j, e, t in zip(order.tolist(), tag[order].tolist(), ts[order].tolist()):
        if e not in latest or t - latest[e][1] > SNAPSHOT_WINDOW_S:
            latest[e] = (len(first), t)
            first.append(j)
        reply.append(latest[e][0])
    # a (reply, k, l) cell observed twice keeps its later record in sort order
    cell = (np.array(reply) * geom.n_antennas + k[order]) * plan.n_carriers + l[order]
    cells, back = np.unique(cell[::-1], return_index=True)
    h = np.zeros((len(first), geom.n_antennas, plan.n_carriers), dtype=complex)
    quality = np.full(h.shape, -np.inf)
    h.reshape(-1)[cells] = value[order[cell.size - 1 - back]]
    quality.reshape(-1)[cells] = rssi[order[cell.size - 1 - back]]
    # copies free the blocks here, not while the next import builds its own
    return [(epc[r], float(ts[r]), ChannelMatrix(h=h[g].copy(), carriers_hz=plan.carriers_hz,
                                                 geometry=geom, quality=quality[g].copy(),
                                                 mask=np.isfinite(quality[g])))
            for g, r in enumerate(first)]


# ---------------------------------------------------------------------------
# Decoded-packet records (the decode CLI output / locator input schema)


def packet_record(epc_bits, t0_s: float, alpha0_hz: float, crc_ok: bool,
                  ch: ChannelMatrix) -> dict:
    channels = [{"antenna": k, "carrier_hz": ch.carriers_hz[l], "re": float(v.real),
                 "im": float(v.imag),
                 "snr_db": float(ch.quality[k, l]) if ch.quality is not None else None}
                for (k, l), v in np.ndenumerate(ch.h)]
    return {"epc": bits_to_hex(epc_bits), "t0": t0_s, "alpha0": alpha0_hz,
            "crc_ok": crc_ok, "channels": channels}


def record_to_channel(doc: dict, geom: ArrayGeometry, plan: CarrierPlan) -> ChannelMatrix:
    """Channel matrix of a decoded-packet record; absent entries stay masked.
    A record without a channel list, or an entry that is not an object, misses
    a field, holds a non-number or a non-finite number, or names an antenna or
    carrier outside the geometry or plan, raises a HarnessError naming the
    record and entry."""
    h = np.zeros((geom.n_antennas, plan.n_carriers), dtype=complex)
    quality = np.zeros(h.shape)
    mask = np.zeros(h.shape, dtype=bool)
    if not isinstance(doc.get("channels"), list):
        raise HarnessError(f"record {doc.get('epc')}: channels must be a list")
    for j, c in enumerate(doc["channels"]):
        try:
            snr = 0.0 if c.get("snr_db") is None else _json_number("snr_db", c["snr_db"])
            k, l = _entry_index(c["antenna"], _json_number("carrier_hz", c["carrier_hz"]),
                                geom, plan)
            re, im = _json_number("re", c["re"]), _json_number("im", c["im"])
            if not all(map(math.isfinite, (re, im, snr))):
                raise HarnessError("every number must be finite")
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise HarnessError(f"record {doc.get('epc')} channel {j}: {exc}") from exc
        h[k, l], mask[k, l], quality[k, l] = re + 1j * im, True, snr
    return ChannelMatrix(h=h, carriers_hz=plan.carriers_hz, geometry=geom, quality=quality,
                         mask=mask)
