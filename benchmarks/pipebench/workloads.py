"""Fixed-seed workloads of the chordsim pipeline benchmark.

Every workload builds all of its inputs from the seed before timing and then
runs items one at a time through chordsim's public functions.  An item is one
tag reply in the decode workloads and one localization in the channel
workloads; each item is checked against the simulated ground truth.  Item
``i`` uses input ``i % n_items``, so a run longer than one pass repeats inputs
and the repeats must reproduce their first result exactly.

All workloads use the fixed input size: the default desk-scale carrier plan
(16 carriers, 15.36 MHz capture, 2.56 MHz channel rate), the default 8-antenna
geometry and the default 64 x 120 grid of 5 cm cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chordsim import channelizer, decoder, harness, locator, model

# c05's clock envelope: initial offset alpha0 and drift, as fractions of BLF.
C05_ALPHA0 = (-0.10, -0.05, 0.0, 0.05, 0.10)
C05_DRIFT = (0.0, 0.025)
# c05's tag position.  The waveform workloads keep it fixed and draw EPC,
# RN16, clock and noise from the seed: the position sits on a cell corner, so
# the planar error measures the chain rather than the grid offset of a draw.
TAG_POSITION_M = (0.4, 3.0, 1.11)
PATH_BOUNDS_M = (1.5, 14.0)
# c11's gate polygon.
GATE_REGION_XY = ((-1.5, 0.3), (1.5, 0.3), (1.5, 2.5), (-1.5, 2.5))
SNAPSHOT_DROP_FRACTION = 0.10

WORKLOAD_NAMES = ("fast_decode", "full_capture", "channel_sweep", "snapshot_gate")


@dataclass(frozen=True)
class ItemResult:
    """Outcome of one item.

    ``failure`` names the stage of a typed failure (a ``DecodeError`` stage,
    ``crc``, ``model_error``) or ``wrong_output`` for an output that
    contradicts the truth without any error being raised.
    """

    digest: str
    failure: str | None = None
    error_m: float | None = None
    estimate: locator.LocationEstimate | None = None
    roi: tuple[str, str] | None = None      # (true label, classified label)

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class FixedSize:
    plan: model.CarrierPlan
    geom: model.ArrayGeometry
    grid: locator.GridSpec


def fixed_size() -> FixedSize:
    return FixedSize(model.default_carrier_plan(), model.default_array_geometry(),
                 locator.GridSpec())


def _located(estimate: locator.LocationEstimate, true_m, prefix: str = "",
             roi=None) -> ItemResult:
    x, y = estimate.position_m[0], estimate.position_m[1]
    digest = f"{prefix}{x:.6f},{y:.6f}"
    if not (math.isfinite(x) and math.isfinite(y)):
        return ItemResult(digest=digest, failure="wrong_output", estimate=estimate)
    return ItemResult(digest=digest, error_m=math.hypot(x - true_m[0], y - true_m[1]),
                      estimate=estimate, roi=roi)


class _WaveformWorkload:
    """simulate_capture -> [channelize] -> notch_dc -> decode_pipeline -> localize."""

    fast_path = True
    snr_db = 10.0

    def __init__(self, seed: int, envelope: list[tuple[float, float]], fresh_tags: bool):
        self.size = fixed_size()
        self.prior = locator.PriorROI(path_bounds_m=PATH_BOUNDS_M)
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        tag = harness.single_path_tag(TAG_POSITION_M, harness.random_epc(rng))
        self.inputs = []
        for alpha0, drift in envelope:
            if fresh_tags:
                tag = harness.single_path_tag(TAG_POSITION_M, harness.random_epc(rng))
            spec = harness.SceneSpec(scene=model.Scene(tags=(tag,)), snr_db=self.snr_db,
                                     leak_db=20.0, alpha0_frac=alpha0, drift_frac=drift)
            self.inputs.append((spec, int(rng.integers(2 ** 31))))
        self.n_items = len(self.inputs)

    def run_item(self, i: int) -> ItemResult:
        spec, sim_seed = self.inputs[i % self.n_items]
        plan, geom, grid = self.size.plan, self.size.geom, self.size.grid
        tag = spec.scene.tags[0]
        try:
            sim, pkt, _ = harness.simulate_capture(spec, plan, geom, seed=sim_seed,
                                                   fast_path=self.fast_path)
            if not self.fast_path:
                sim = [channelizer.channelize(c, plan) for c in sim]
            banks = [channelizer.notch_dc(b) for b in sim]
            packet = decoder.decode_pipeline(banks, plan, geom)
        except decoder.DecodeError as exc:
            return ItemResult(digest=f"fail:{exc.stage}", failure=exc.stage)
        except model.ModelError:
            return ItemResult(digest="fail:model_error", failure="model_error")
        bits = f"{harness.bits_to_hex(packet.rn16_bits)}:{harness.bits_to_hex(packet.epc_bits)}:"
        if not packet.crc_ok:
            return ItemResult(digest=bits + "crc", failure="crc")
        if packet.epc_bits != tag.epc_bits or packet.rn16_bits != pkt.rn16_bits:
            return ItemResult(digest=bits + "wrong", failure="wrong_output")
        try:
            estimate = locator.localize(packet.channel, grid, geom, plan, self.prior)
        except model.ModelError:
            return ItemResult(digest=bits + "model_error", failure="model_error")
        return _located(estimate, tag.position_m, prefix=bits)


class FastDecode(_WaveformWorkload):
    """One single-path tag at 10 dB SNR, 20 dB leakage, through the fast
    simulation path; items cycle through the c05 clock envelope."""

    name = "fast_decode"

    def __init__(self, seed: int, tiny: bool = False):
        envelope = [(a, d) for a in C05_ALPHA0 for d in C05_DRIFT]
        super().__init__(seed, envelope[:2] if tiny else envelope, fresh_tags=False)


class FullCapture(_WaveformWorkload):
    """Single-path tags at 20 dB through the wideband path and the
    channelizer; items take the corners of the c05 clock envelope."""

    name = "full_capture"
    fast_path = False
    snr_db = 20.0

    def __init__(self, seed: int, tiny: bool = False):
        corners = [(a, d) for a in (C05_ALPHA0[0], C05_ALPHA0[-1]) for d in C05_DRIFT]
        super().__init__(seed, corners[:1] if tiny else corners, fresh_tags=True)


class ChannelSweep:
    """Channel-mode localization of the first tags of c10's desk multipath
    corpus at 16 dB under c10's settings: 4 bandwidth subsets, 4 antenna
    subsets, basic/enhanced.  Every run of as many items as there are tags
    holds each tag once and the settings in turn (item j: tag j mod n_tags,
    setting (j div n_tags + tag) mod 10), so any stretch of the run has the
    same mix of cheap and costly items; the later tags of the corpus cost up
    to twice as much as the first ones.  The scenes are fixed and the seed
    draws the channel noise, one draw per input: with seed-drawn scenes the
    error percentiles of one run would spread by a third from seed to seed,
    wider than any useful bound, and one draw per tag shared by its ten
    settings left them spreading by about 0.09."""

    name = "channel_sweep"

    def __init__(self, seed: int, tiny: bool = False):
        n_tags = 2 if tiny else 32
        size = self.size = fixed_size()
        plan, geom = size.plan, size.geom
        self.prior = locator.PriorROI(path_bounds_m=PATH_BOUNDS_M)
        conditional = locator.LocalizePolicy()
        settings = [(harness.bandwidth_carrier_indices(plan, bw), None, conditional)
                    for bw in harness.BANDWIDTH_SETTINGS_HZ]
        settings += [(None, model.antenna_subset_indices(geom, n), conditional)
                     for n in harness.ANTENNA_SETTINGS]
        settings += [(None, None, locator.LocalizePolicy(mode="never")),
                     (None, None, conditional)]
        corpus = harness.desk_multipath_corpus(n_scenes=n_tags)
        tags = [(spec, ti) for spec in corpus for ti in range(len(spec.scene.tags))][:n_tags]
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        by_tag = []
        for spec, ti in tags:
            clean = model.synth_channel(spec.scene, geom, plan, ti)
            by_tag.append([])
            for carriers, antennas, policy in settings:
                noisy = harness.noisy_channel(clean, spec.snr_db, rng)
                h, q = noisy.h, noisy.quality
                sub_plan, sub_geom = plan, geom
                if carriers is not None:
                    h, q = h[:, carriers], q[:, carriers]
                    sub_plan = model.subset_plan(plan, carriers)
                if antennas is not None:
                    h, q = h[antennas], q[antennas]
                    sub_geom = model.subset_geometry(geom, len(antennas))
                ch = model.ChannelMatrix(h=h, carriers_hz=sub_plan.carriers_hz,
                                         geometry=sub_geom, quality=q)
                by_tag[-1].append((ch, sub_plan, sub_geom, policy,
                                   spec.scene.tags[ti].position_m))
        n_settings = len(settings)
        self.inputs = [by_tag[j % n_tags][(j // n_tags + j % n_tags) % n_settings]
                       for j in range(n_tags * n_settings)]
        self.n_items = len(self.inputs)

    def run_item(self, i: int) -> ItemResult:
        ch, plan, geom, policy, true_m = self.inputs[i % self.n_items]
        try:
            estimate = locator.localize(ch, self.size.grid, geom, plan, self.prior, policy)
        except model.ModelError:
            return ItemResult(digest="fail:model_error", failure="model_error")
        return _located(estimate, true_m)


class SnapshotGate:
    """Recorded-data path: c11's gate corpus (60 inside, 60 outside tags)
    exported as snapshot JSONL with a fixed 10% of records dropped.  Each pass
    imports the file (timed as part of its first item), then localizes every
    reply with the polygon prior and classifies it inside/outside.  As in
    channel_sweep the scenes are fixed; the seed draws the channel noise, the
    dropped records and the reply order."""

    name = "snapshot_gate"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        n_per_label = 2 if tiny else 60
        size = self.size = fixed_size()
        plan, geom = size.plan, size.geom
        self.prior = locator.PriorROI(path_bounds_m=PATH_BOUNDS_M, region_xy=GATE_REGION_XY)
        scenes, labels = harness.gate_corpus(n_inside=n_per_label, n_outside=n_per_label)
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        order = rng.permutation(len(scenes))     # interleave labels in time
        records = []
        self.truth = {}
        for slot, r in enumerate(order):
            spec, tag = scenes[r], scenes[r].scene.tags[0]
            noisy = harness.noisy_channel(model.synth_channel(spec.scene, geom, plan, 0),
                                          spec.snr_db, rng)
            records += harness.channel_to_snapshots(noisy, tag.epc_bits, timestamp_s=0.05 * slot)
            self.truth[harness.bits_to_hex(tag.epc_bits)] = (tag.position_m, labels[r])
        n_drop = int(round(SNAPSHOT_DROP_FRACTION * len(records)))
        keep = np.sort(rng.permutation(len(records))[n_drop:])
        self.n_records = keep.size
        self.path = Path(workdir) / "snapshots.jsonl"
        harness.export_snapshots([records[j] for j in keep], self.path)
        self.n_items = len(scenes)
        self.replies = []

    def run_item(self, i: int) -> ItemResult:
        j = i % self.n_items
        plan, geom, grid = self.size.plan, self.size.geom, self.size.grid
        if j == 0:
            self.replies = harness.import_snapshots(self.path, geom, plan)
        if len(self.replies) != self.n_items:
            return ItemResult(digest=f"replies:{len(self.replies)}", failure="wrong_output")
        epc, _, ch = self.replies[j]
        if epc not in self.truth:
            return ItemResult(digest=f"epc:{epc}", failure="wrong_output")
        true_m, label = self.truth[epc]
        try:
            estimate = locator.localize(ch, grid, geom, plan, self.prior)
            inside = locator.classify_roi(estimate, self.prior, geom)
        except model.ModelError:
            return ItemResult(digest="fail:model_error", failure="model_error")
        return _located(estimate, true_m, prefix=f"{epc}:{inside}:", roi=(label, inside))


def build(name: str, seed: int, workdir: Path, tiny: bool = False):
    """Generate the named workload's inputs from ``seed``; files go to
    ``workdir``, which the caller owns.  ``tiny`` shrinks the corpus (not the
    plan, geometry or grid) for smoke tests."""
    if name == "fast_decode":
        return FastDecode(seed, tiny)
    if name == "full_capture":
        return FullCapture(seed, tiny)
    if name == "channel_sweep":
        return ChannelSweep(seed, tiny)
    if name == "snapshot_gate":
        return SnapshotGate(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")
