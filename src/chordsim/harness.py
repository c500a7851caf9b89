"""Scenario simulation, batch evaluation, ablation sweeps and dataset I/O.

Each simulated capture carries one tag reply (slot arbitration between tags is
the activating reader's job and out of scope); scenes with several tags yield
one capture per tag.  All randomness flows from explicit seeds, so batches are
reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import fft as sfft

from . import model
from .model import (ArrayGeometry, CarrierPlan, ChannelMatrix, ModelError,
                    PropagationPath, Scene, TagDef, subset_plan, subset_geometry,
                    synth_channel)
from .waveform import (BLF_HZ, SYMBOL_S, TagPacket, backscatter_mix, build_packet_baseband,
                       packet_layout, random_walk_drift, tone_table)
from .channelizer import (ChannelBank, WidebandCapture, bandlimit_tag, chain_noise_gain,
                          chain_transient_s, channelize, notch_dc, processed_tag_baseband,
                          shaped_noise)
from .decoder import DecodeError, decode_pipeline
from .locator import (GridSpec, LocalizePolicy, LocationEstimate, PriorROI,
                      DEFAULT_POLICY, localize)

CLOCK_STRETCH_MARGIN = 1.18


class HarnessError(ModelError):
    pass


def bits_to_hex(bits) -> str:
    bits = [int(b) for b in bits]
    return "".join(f"{int(''.join(map(str, bits[i:i + 4])), 2):x}" for i in range(0, len(bits), 4))


def random_epc(rng, n_bits: int = 96) -> tuple[int, ...]:
    return tuple(int(b) for b in rng.integers(0, 2, size=n_bits))


@dataclass(frozen=True)
class SceneSpec:
    """Scene plus capture conditions for simulation."""

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
    WidebandCapture objects for the channelizer; the fast path applies the
    channelizer's own filter chain to the tag baseband directly and emits
    per-antenna ChannelBank objects, bypassing the wideband mixing; its noise
    is drawn in the shaping band, stationary to the bank edges.  Either way
    the banks come out at a length that FFTs fast (the notch and the
    preamble search transform every stream).
    """
    rng = np.random.default_rng(seed)
    pkt = _make_packet(spec, spec.scene.tags[tag_index], rng)
    layout = packet_layout(len(pkt.epc_bits))
    duration = pkt.t0_s + layout.total_s * CLOCK_STRETCH_MARGIN + 0.3e-3

    h = synth_channel(spec.scene, geom, plan, tag_index)
    tag_wave = build_packet_baseband(pkt, plan.capture_rate_hz)

    snr_lin = 10 ** (spec.snr_db / 10)
    leak_amp = 0.0
    mean_h = float(np.sqrt(np.mean(np.abs(h.h) ** 2)))
    if spec.leak_db is not None:
        leak_amp = mean_h * 10 ** (spec.leak_db / 20)

    if fast_path:
        # the warped wave is zero after the packet, so padding it only
        # lengthens the bank
        n_wave = tag_wave.samples.size
        padded = np.pad(tag_wave.samples, (0, _fast_capture_length(n_wave, plan) - n_wave))
        base = processed_tag_baseband(replace(tag_wave, samples=padded), plan)
        sig_power = float(np.mean(np.abs(base.samples[np.abs(base.samples) > 0.1]) ** 2))
        noise_var_chan = mean_h ** 2 * sig_power / snr_lin
        banks = []
        for k in range(geom.n_antennas):
            streams = np.outer(h.h[k], base.samples)
            if leak_amp > 0:
                streams += _leak_gains(geom, plan, k, leak_amp)[:, None]
            streams = streams + shaped_noise(rng, streams.shape, noise_var_chan, plan)
            banks.append(ChannelBank(streams=streams, rate_hz=plan.channel_out_rate_hz,
                                     carriers_hz=plan.carriers_hz, antenna_id=k,
                                     start_s=0.0, group_delay_s=chain_transient_s(plan)))
        return banks, pkt, h

    tag_bl = bandlimit_tag(tag_wave)
    active = np.abs(tag_bl.samples) > 0.1
    sig_power = float(np.mean(np.abs(tag_bl.samples[active]) ** 2)) if active.any() else 1.0
    noise_var_wide = mean_h ** 2 * sig_power / snr_lin / chain_noise_gain(plan)

    captures = []
    n = _fast_capture_length(int(round(duration * plan.capture_rate_hz)), plan)
    for k in range(geom.n_antennas):
        rx = backscatter_mix(plan, n, tag_bl, h, k).samples
        if leak_amp > 0:
            gl = _leak_gains(geom, plan, k, leak_amp)
            for row, g in zip(tone_table(plan, n, 0.0), gl):
                rx = rx + g * row
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            * math.sqrt(noise_var_wide / 2)
        captures.append(WidebandCapture(samples=rx + noise, rate_hz=plan.capture_rate_hz,
                                        center_hz=plan.capture_center_hz,
                                        start_s=0.0, antenna_id=k))
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
    mode: str = "channel"          # "channel" or "waveform"
    fast_path: bool = True
    seed: int = 0

    def digest(self) -> str:
        doc = {
            "carriers": list(self.plan.carriers_hz),
            "rx": [list(p) for p in self.geom.rx_positions_m],
            "grid": [self.grid.x_extent_m, self.grid.y_extent_m, self.grid.cell_m],
            "mode": self.mode,
            "policy": self.policy.mode,
            "seed": self.seed,
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


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
    config_digest: str


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
              carrier_idx=None, antenna_idx=None,
              policy: LocalizePolicy | None = None) -> RunReport:
    """Decode (or channel-surrogate) and localize every tag of every scene.

    ``carrier_idx``/``antenna_idx`` subset the full plan/geometry while the
    noise draws stay tied to the full-size seeds, so ablation settings see
    identical realizations on their shared entries.  Individual failures are
    recorded, never aborting the batch.
    """
    if not scenes:
        raise HarnessError("empty scene list")
    policy = policy or cfg.policy
    plan = cfg.plan if carrier_idx is None else subset_plan(cfg.plan, carrier_idx)
    geom = cfg.geom if antenna_idx is None else subset_geometry(cfg.geom, len(antenna_idx))

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
                    h_sub = noisy.h
                    q_sub = noisy.quality
                    if antenna_idx is not None:
                        h_sub = h_sub[list(antenna_idx)]
                        q_sub = q_sub[list(antenna_idx)]
                    if carrier_idx is not None:
                        h_sub = h_sub[:, list(carrier_idx)]
                        q_sub = q_sub[:, list(carrier_idx)]
                    ch = ChannelMatrix(h=h_sub, carriers_hz=plan.carriers_hz,
                                       geometry=geom, quality=q_sub)
                    decoded = True
                    t_start = time.perf_counter()
                else:
                    sim, pkt, _ = simulate_capture(spec, plan, geom, seed, ti,
                                                   fast_path=cfg.fast_path)
                    if isinstance(sim[0], WidebandCapture):
                        banks = [channelize(c, plan) for c in sim]
                    else:
                        banks = sim
                    banks = [notch_dc(b) for b in banks]
                    t_start = time.perf_counter()
                    packet = decode_pipeline(banks, plan, geom, epc_len=len(tag.epc_bits))
                    decoded = True
                    crc_ok = packet.crc_ok
                    ch = packet.channel
                if crc_ok is False:
                    failure_stage = "crc"
                else:
                    estimate = localize(ch, cfg.grid, geom, plan, cfg.prior, policy)
            except DecodeError as exc:
                failure_stage = exc.stage
            except ModelError:
                failure_stage = "model_error"
            # every item whose timer started is charged, whatever its outcome
            if t_start is not None:
                busy_s += time.perf_counter() - t_start
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
        throughput_pps=throughput, config_digest=cfg.digest(),
    )


def bandwidth_carrier_indices(plan: CarrierPlan, bandwidth_hz: float) -> list[int]:
    """Carriers within ``bandwidth_hz`` of the low band edge (contiguous subset)."""
    f0 = plan.carriers_hz[0]
    return [i for i, f in enumerate(plan.carriers_hz) if f - f0 <= bandwidth_hz * (1 + 1e-12)]


BANDWIDTH_SETTINGS_HZ = (50e6, 100e6, 150e6, 200e6)
ANTENNA_SETTINGS = (2, 4, 6, 8)
ALGORITHM_SETTINGS = ("basic", "enhanced")


def ablation_sweep(corpus: list[SceneSpec], axis: str, cfg: BatchConfig,
                   settings=None) -> list[dict]:
    """Percentile-error table along one resource axis, same corpus and seeds
    for every setting."""
    rows = []
    if axis == "bandwidth":
        for bw in settings or BANDWIDTH_SETTINGS_HZ:
            idx = bandwidth_carrier_indices(cfg.plan, bw)
            rep = run_batch(corpus, cfg, carrier_idx=idx)
            rows.append({"setting": f"{bw / 1e6:.0f}MHz", "p50_m": rep.p50_m,
                         "p90_m": rep.p90_m, "p99_m": rep.p99_m})
    elif axis == "antennas":
        for n_ant in settings or ANTENNA_SETTINGS:
            idx = model.antenna_subset_indices(cfg.geom, n_ant)
            rep = run_batch(corpus, cfg, antenna_idx=idx)
            rows.append({"setting": str(n_ant), "p50_m": rep.p50_m,
                         "p90_m": rep.p90_m, "p99_m": rep.p99_m})
    elif axis == "algorithm":
        for name in settings or ALGORITHM_SETTINGS:
            if name == "basic":
                policy = LocalizePolicy(mode="never")
            elif name == "enhanced":
                policy = LocalizePolicy(mode="conditional")
            else:
                raise HarnessError(f"unknown algorithm setting {name!r}")
            rep = run_batch(corpus, cfg, policy=policy)
            rows.append({"setting": name, "p50_m": rep.p50_m,
                         "p90_m": rep.p90_m, "p99_m": rep.p99_m})
    else:
        raise HarnessError(f"unknown sweep axis {axis!r}")
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
                ang = rng.uniform(0, 2 * math.pi)
                dist = rng.uniform(0.5, 2.0)
                refl = (pos[0] + dist * math.cos(ang),
                        max(pos[1] + dist * math.sin(ang), 0.3), CORPUS_Z_M)
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
            ang = rng.uniform(0, 2 * math.pi)
            dist = rng.uniform(0.5, 2.0)
            refl = (pos[0] + dist * math.cos(ang),
                    max(pos[1] + dist * math.sin(ang), 0.3), CORPUS_Z_M)
            tag = multipath_tag(pos, random_epc(rng), refl, float(rng.uniform(0.2, 0.6)))
            scenes.append(SceneSpec(scene=Scene(tags=(tag,), seed=int(rng.integers(2 ** 31))),
                                    snr_db=GATE_SNR_DB))
            labels.append(label)
    return scenes, labels


# ---------------------------------------------------------------------------
# Snapshot interchange (line-delimited JSON)


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
        re, im = self.re, self.im
        if (re is None) != (im is None):
            raise HarnessError("re and im must be given together")
        # a non-finite phase fails the range test below
        if not (math.isfinite(self.timestamp_s) and math.isfinite(self.carrier_hz)
                and math.isfinite(self.rssi_db)
                and (re is None or math.isfinite(re) and math.isfinite(im))):
            raise HarnessError("every number must be finite")
        if not -math.pi < self.phase_rad <= math.pi + 1e-12:
            raise HarnessError("phase must lie in (-pi, pi]")

    def to_json(self) -> str:
        doc = {"epc": self.epc, "timestamp_s": self.timestamp_s,
               "antenna_id": self.antenna_id, "carrier_hz": self.carrier_hz,
               "phase_rad": self.phase_rad, "rssi_db": self.rssi_db}
        if self.re is not None:
            doc["re"] = self.re
            doc["im"] = self.im
        return json.dumps(doc, sort_keys=True)


def parse_snapshot_line(line: str) -> SnapshotRecord:
    doc = json.loads(line)
    return SnapshotRecord(epc=doc["epc"], timestamp_s=float(doc["timestamp_s"]),
                          antenna_id=int(doc["antenna_id"]),
                          carrier_hz=float(doc["carrier_hz"]),
                          phase_rad=float(doc["phase_rad"]),
                          rssi_db=float(doc["rssi_db"]),
                          re=doc.get("re"), im=doc.get("im"))


def channel_to_snapshots(ch: ChannelMatrix, epc_bits, timestamp_s: float) -> list[SnapshotRecord]:
    recs = []
    epc = bits_to_hex(epc_bits)
    for k in range(ch.shape[0]):
        for l in range(ch.shape[1]):
            v = ch.h[k, l]
            recs.append(SnapshotRecord(
                epc=epc, timestamp_s=timestamp_s, antenna_id=k,
                carrier_hz=ch.carriers_hz[l], phase_rad=float(np.angle(v)),
                rssi_db=20 * math.log10(max(abs(v), 1e-12)),
                re=float(v.real), im=float(v.imag)))
    return recs


def export_snapshots(records: list[SnapshotRecord], path) -> None:
    Path(path).write_text("".join(r.to_json() + "\n" for r in records))


def _entry_index(antenna_id: int, carrier_hz: float, n_antennas: int,
                 carrier_index: dict) -> tuple[int, int]:
    """(k, l) channel-matrix index of an (antenna id, carrier Hz) observation;
    an antenna outside the geometry or a carrier outside the plan raises a
    HarnessError."""
    if not 0 <= antenna_id < n_antennas:
        raise HarnessError(f"antenna {antenna_id} not in the {n_antennas}-antenna geometry")
    l = carrier_index.get(carrier_hz)
    if l is None:
        raise HarnessError(f"carrier {carrier_hz} not in the plan")
    return antenna_id, l


# Snapshot records of one EPC this close in time belong to one reply.
SNAPSHOT_WINDOW_S = 10e-3


def import_snapshots(path, geom: ArrayGeometry, plan: CarrierPlan):
    """Group snapshot lines into per-reply channel matrices.

    Records sharing an EPC within SNAPSHOT_WINDOW_S form one reply; carriers or
    antennas never observed stay masked.  Malformed lines (a missing field,
    ``re`` without ``im`` or the reverse, a non-finite number), and lines
    naming an antenna or carrier outside the geometry or plan, raise with
    their line number.
    """
    n_antennas = geom.n_antennas
    carrier_index = {f: l for l, f in enumerate(plan.carriers_hz)}
    records = []
    for i, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = parse_snapshot_line(line)
            _entry_index(rec.antenna_id, rec.carrier_hz, n_antennas, carrier_index)
        except Exception as exc:
            raise HarnessError(f"line {i}: {exc}") from exc
        records.append(rec)
    records.sort(key=lambda r: (r.timestamp_s, r.epc, r.antenna_id, r.carrier_hz))
    groups: list[tuple[str, float, list[SnapshotRecord]]] = []
    by_epc: dict[str, list[tuple[str, float, list[SnapshotRecord]]]] = {}
    for rec in records:
        epc_groups = by_epc.setdefault(rec.epc, [])
        for g in epc_groups:
            if abs(rec.timestamp_s - g[1]) <= SNAPSHOT_WINDOW_S:
                g[2].append(rec)
                break
        else:
            g = (rec.epc, rec.timestamp_s, [rec])
            epc_groups.append(g)
            groups.append(g)
    out = []
    for epc, ts, recs in groups:
        h = np.zeros((n_antennas, plan.n_carriers), dtype=complex)
        mask = np.zeros(h.shape, dtype=bool)
        quality = np.full(h.shape, -np.inf)
        for rec in recs:
            # checked line by line above, so the lookup cannot fail here
            kl = _entry_index(rec.antenna_id, rec.carrier_hz, n_antennas, carrier_index)
            if rec.re is not None:
                h[kl] = rec.re + 1j * rec.im
            else:
                h[kl] = 10 ** (rec.rssi_db / 20) * np.exp(1j * rec.phase_rad)
            mask[kl] = True
            quality[kl] = rec.rssi_db
        out.append((epc, ts, ChannelMatrix(h=h, carriers_hz=plan.carriers_hz,
                                           geometry=geom, quality=quality, mask=mask)))
    return out


# ---------------------------------------------------------------------------
# Decoded-packet records (the decode CLI output / locator input schema)


def packet_record(epc_bits, t0_s: float, alpha0_hz: float, crc_ok: bool,
                  ch: ChannelMatrix) -> dict:
    channels = []
    for k in range(ch.shape[0]):
        for l in range(ch.shape[1]):
            channels.append({
                "antenna": k, "carrier_hz": ch.carriers_hz[l],
                "re": float(ch.h[k, l].real), "im": float(ch.h[k, l].imag),
                "snr_db": float(ch.quality[k, l]) if ch.quality is not None else None,
            })
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
    carrier_index = {f: l for l, f in enumerate(plan.carriers_hz)}
    if not isinstance(doc.get("channels"), list):
        raise HarnessError(f"record {doc.get('epc')}: channels must be a list")
    for j, c in enumerate(doc["channels"]):
        try:
            snr = c.get("snr_db")
            k, l = _entry_index(int(c["antenna"]), float(c["carrier_hz"]), geom.n_antennas,
                                carrier_index)
            re, im = float(c["re"]), float(c["im"])
            if not (math.isfinite(re) and math.isfinite(im)
                    and (snr is None or math.isfinite(snr))):
                raise HarnessError("every number must be finite")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise HarnessError(f"record {doc.get('epc')} channel {j}: {exc}") from exc
        h[k, l] = re + 1j * im
        mask[k, l] = True
        if snr is not None:
            quality[k, l] = float(snr)
    return ChannelMatrix(h=h, carriers_hz=plan.carriers_hz, geometry=geom, quality=quality,
                         mask=mask)
