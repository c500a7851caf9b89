"""Command-line front end: simulate | channelize | decode | localize |
evaluate | sweep | waveform, thin wrappers over the library."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, model
from .channelizer import channelize, load_bank, notch_dc, save_bank, WidebandCapture
from .decoder import DecodeError, decode_pipeline
from .harness import (BatchConfig, HarnessError, SceneSpec, ablation_sweep, evaluate_roi,
                      packet_record, record_to_channel, run_batch, simulate_capture,
                      sweep_rows_to_csv)
from .locator import GridSpec, LocalizePolicy, PriorROI, classify_roi, localize
from .model import default_array_geometry, default_carrier_plan, load_config
from .waveform import (MultisineSpec, load_wave, optimize_tone_phases, save_wave,
                       synth_multisine, build_packet_baseband, TagPacket)


def _load_setup(args):
    plan = geom = None
    extra = {}
    if args.config:
        doc = load_config(args.config)
        plan = doc.get("plan")
        geom = doc.get("geometry")
        extra = doc
    if plan is None:
        plan = default_carrier_plan(desk_scale=True)
        plan = model.CarrierPlan(**{**model.plan_to_dict(plan),
                                    "tone_phases_rad": optimize_tone_phases(plan.tone_offsets_hz)})
    if geom is None:
        geom = default_array_geometry()
    return plan, geom, extra


def _grid_from(doc: dict | None) -> GridSpec:
    if not doc:
        return GridSpec()
    return GridSpec(x_extent_m=tuple(doc["x_extent_m"]), y_extent_m=tuple(doc["y_extent_m"]),
                    cell_m=float(doc["cell_m"]), z_m=float(doc["z_m"]))


def _prior_from(doc: dict | None) -> PriorROI | None:
    if not doc:
        return None
    extra = {"peak_threshold": float(doc["peak_threshold"])} if "peak_threshold" in doc else {}
    return PriorROI(path_bounds_m=tuple(doc["path_bounds_m"]),
                    region_xy=tuple(tuple(p) for p in doc["region_xy"]) if doc.get("region_xy") else None,
                    **extra)


def cmd_waveform(args):
    plan, geom, _ = _load_setup(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "excitation":
        wave = synth_multisine(MultisineSpec(plan=plan, duration_s=args.duration))
    else:
        rng = np.random.default_rng(args.seed)
        pkt = TagPacket(rn16_bits=tuple(rng.integers(0, 2, 16)),
                        epc_bits=tuple(rng.integers(0, 2, 96)))
        wave = build_packet_baseband(pkt, plan.capture_rate_hz)
    save_wave(wave, out)
    print(f"wrote {out} ({wave.samples.size} samples at {wave.rate_hz / 1e6:.2f} MHz)")


def cmd_simulate(args):
    plan, geom, extra = _load_setup(args)
    if "scene" in extra:
        scene = extra["scene"]
    else:
        rng = np.random.default_rng(args.seed)
        tag = harness.multipath_tag((0.4, 3.0, 1.11), harness.random_epc(rng),
                                    (1.2, 4.0, 1.11), 0.5)
        scene = model.Scene(tags=(tag,), seed=args.seed)
    spec = SceneSpec(scene=scene, snr_db=args.snr_db)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    captures, pkt, _ = simulate_capture(spec, plan, geom, args.seed)
    for cap in captures:
        bank = notch_dc(channelize(cap, plan))
        save_bank(bank, out / f"antenna_{cap.antenna_id}")
    model.save_config(out / "setup.json", plan=plan, geom=geom, scene=scene)
    print(f"wrote {len(captures)} channel banks under {out}")


def cmd_channelize(args):
    plan, _, _ = _load_setup(args)
    wave = load_wave(args.capture)
    cap = WidebandCapture(samples=wave.samples, rate_hz=wave.rate_hz,
                          center_hz=plan.capture_center_hz, start_s=wave.start_s,
                          antenna_id=args.antenna)
    bank = channelize(cap, plan)
    if args.notch:
        bank = notch_dc(bank)
    manifest = save_bank(bank, args.out)
    print(f"wrote {manifest} ({bank.n_channels} channels, "
          f"compression {bank.compression['information_fraction']:.4f})")


def cmd_decode(args):
    plan, geom, _ = _load_setup(args)
    banks = [load_bank(p) for p in args.banks]
    banks.sort(key=lambda b: b.antenna_id)
    try:
        pkt = decode_pipeline(banks, plan, geom)
        # a reply that fails its CRC is not decoded: no record to localize
        if not pkt.crc_ok:
            raise DecodeError("crc", "EPC reply fails its CRC")
    except DecodeError as exc:
        print(json.dumps({"error": str(exc), "stage": exc.stage}))
        return 1
    rec = packet_record(pkt.epc_bits, pkt.sync.t0_hat_s, pkt.sync.alpha0_hat_hz,
                        pkt.crc_ok, pkt.channel)
    line = json.dumps(rec)
    if args.out:
        Path(args.out).write_text(line + "\n")
    print(line)
    return 0


def cmd_localize(args):
    plan, geom, extra = _load_setup(args)
    grid = _grid_from(extra.get("grid"))
    prior = _prior_from(extra.get("prior"))
    out_lines = []
    for i, line in enumerate(Path(args.packets).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict) or "epc" not in doc:
                raise HarnessError("record has no epc")
            ch = record_to_channel(doc, geom, plan)
        except ValueError as exc:
            raise HarnessError(f"line {i}: {exc}") from exc
        est = localize(ch, grid, geom, plan, prior, keep_heatmap=bool(args.heatmap_dir))
        roi = classify_roi(est, prior, geom) if prior else None
        out_lines.append(json.dumps({
            "epc": doc["epc"], "x": est.position_m[0], "y": est.position_m[1],
            "likelihood": est.likelihood, "enhancement_applied": est.enhancement_applied,
            "roi": roi,
        }))
        if args.heatmap_dir and est.heatmap is not None:
            hm_dir = Path(args.heatmap_dir)
            hm_dir.mkdir(parents=True, exist_ok=True)
            (hm_dir / f"heatmap_{i:04d}.f64").write_bytes(est.heatmap.astype("<f8").tobytes())
            (hm_dir / f"heatmap_{i:04d}.json").write_text(json.dumps({
                "ny": est.heatmap.shape[0], "nx": est.heatmap.shape[1],
                "x_extent_m": grid.x_extent_m, "y_extent_m": grid.y_extent_m,
                "cell_m": grid.cell_m}))
    text = "\n".join(out_lines)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


def cmd_evaluate(args):
    labels = json.loads(Path(args.labels).read_text())
    decisions = []
    for i, line in enumerate(Path(args.results).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict) or not isinstance(doc.get("epc"), str):
                raise HarnessError("result has no epc")
            if doc["epc"] not in labels:
                raise HarnessError(f"EPC {doc['epc']} has no label in {args.labels}")
        except ValueError as exc:
            raise HarnessError(f"{args.results} line {i}: {exc}") from exc
        decisions.append({"label": labels[doc["epc"]], "classified": doc.get("roi")})
    miss, cross = evaluate_roi(decisions)
    print(json.dumps({"miss_rate": miss, "cross_rate": cross}))


def cmd_sweep(args):
    plan, geom, extra = _load_setup(args)
    corpus = harness.desk_multipath_corpus(n_scenes=args.scenes, seed=args.seed)
    cfg = BatchConfig(plan=plan, geom=geom, grid=_grid_from(extra.get("grid")),
                      prior=_prior_from(extra.get("prior")), seed=args.seed)
    rows = ablation_sweep(corpus, args.axis, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sweep_rows_to_csv(rows, out / f"sweep_{args.axis}.csv")
    (out / f"sweep_{args.axis}.json").write_text(json.dumps(rows, indent=2))
    for r in rows:
        print(f"{r['setting']}: p50={r['p50_m']:.3f} p90={r['p90_m']:.3f} p99={r['p99_m']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="chordsim",
                                     description="wideband backscatter localization toolkit")
    parser.add_argument("--config", help="JSON config with plan/geometry/scene/grid/prior")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("waveform", help="emit excitation or tag templates")
    p.add_argument("--kind", choices=["excitation", "tag"], default="excitation")
    p.add_argument("--duration", type=float, default=1e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_waveform)

    p = sub.add_parser("simulate", help="simulate captures and channelize them")
    p.add_argument("--snr-db", type=float, default=20.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("channelize", help="channelize a wideband capture file")
    p.add_argument("capture")
    p.add_argument("--antenna", type=int, default=0)
    p.add_argument("--notch", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_channelize)

    p = sub.add_parser("decode", help="decode per-antenna channel banks")
    p.add_argument("banks", nargs="+", help="bank manifest paths, one per antenna")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("localize", help="localize decoded packet records")
    p.add_argument("packets", help="JSONL packet records from 'decode'")
    p.add_argument("--out")
    p.add_argument("--heatmap-dir", dest="heatmap_dir")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("evaluate", help="miss/cross rates from localize output")
    p.add_argument("results", help="JSONL output of 'localize'")
    p.add_argument("labels", help="JSON mapping epc -> inside/outside")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="ablation sweep on a synthetic corpus")
    p.add_argument("--axis", choices=["bandwidth", "antennas", "algorithm"], required=True)
    p.add_argument("--scenes", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args) or 0


if __name__ == "__main__":
    sys.exit(main())
