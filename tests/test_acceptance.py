"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -s``
to watch the lines; the whole module finishes in two to three minutes, most of
it in the clock-robustness matrix and the localization-trend corpus.
"""

import math
import time

import numpy as np
import scipy.signal as sps

import chordsim as cs
from chordsim import channelizer as chz
from chordsim import decoder as dc
from chordsim import harness
from chordsim import locator as loc
from chordsim import waveform as wf
from chordsim.model import (C_M_PER_S, Scene, default_array_geometry,
                            default_carrier_plan, uniform_carrier_plan)
from chordsim.harness import (BatchConfig, SceneSpec, multipath_tag, random_epc,
                              simulate_capture, single_path_tag)

PLAN = default_carrier_plan()
GEOM = default_array_geometry()
GRID = loc.GridSpec()
BLF = 250e3
LAYOUT = wf.packet_layout(96)


def report(index, label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {index:2d}: {label} {detail}")
    assert ok, f"criterion {index}: {label} {detail}"


def test_c01_analytic_golden_numbers():
    checks = [
        abs(cs.thermal_noise_dbm(250e3) - (-120.0)) <= 0.05,
        abs(cs.thermal_noise_dbm(200e6) - (-91.0)) <= 0.05,
        abs((cs.thermal_noise_dbm(200e6) - cs.thermal_noise_dbm(250e3))
            - 10 * math.log10(800)) <= 1e-9,
        abs((cs.thermal_noise_dbm(200e6) - cs.thermal_noise_dbm(250e3)) - 29.03) <= 5e-3,
        abs(cs.distance_resolution(200e6) - 0.75) <= 0.01,
        abs(cs.fraunhofer_distance(1.0, 0.3) - 6.7) <= 0.07,
        abs(chz.dynamic_range_required(16) - 98.08) <= 1e-9,
    ]
    report(1, "analytic golden numbers", all(checks))


def test_c02_crest_factor():
    t0 = time.time()
    phases = cs.optimize_tone_phases(PLAN.tone_offsets_hz)
    tuned = default_carrier_plan(tone_phases_rad=phases)
    wave = cs.synth_multisine(tuned, 2e-3)
    cf = cs.crest_factor(wave)
    papr = cs.papr_db(wave)
    uniform_phases = cs.optimize_crest_phases(16)
    t_grid = np.linspace(0, 1, 8192, endpoint=False)
    x = np.exp(1j * (2 * math.pi * np.outer(np.arange(1, 17), t_grid)
                     + np.asarray(uniform_phases)[:, None])).sum(axis=0)
    cf_uniform = np.max(np.abs(x)) / np.sqrt(np.mean(np.abs(x) ** 2))
    ok = cf <= 1.5 and papr <= 3.5 and cf_uniform <= 1.5 and time.time() - t0 < 5.0
    report(2, "16-tone crest factor", ok,
           f"(plan CF {cf:.3f}, PAPR {papr:.2f} dB, uniform CF {cf_uniform:.3f})")


def test_c03_integration_gain():
    rng = np.random.default_rng(33)
    pkt = wf.TagPacket(rn16_bits=tuple(rng.integers(0, 2, 16)),
                       epc_bits=tuple(rng.integers(0, 2, 96)))
    rate = PLAN.channel_out_rate_hz
    tmpl_full = chz.apply_shaping(wf.packet_template(pkt, rate), rate).samples.real
    n_rn16 = int(round(LAYOUT.rn16_s * rate))
    tmpl_rn16 = tmpl_full[:n_rn16]
    e_full = float(np.sum(tmpl_full ** 2))
    e_rn16 = float(np.sum(tmpl_rn16 ** 2))
    h_true = np.exp(0.7j)
    ph_rn16, ph_full = [], []
    for seed in range(500):
        r = np.random.default_rng(seed)
        noise = (r.standard_normal(tmpl_full.size)
                 + 1j * r.standard_normal(tmpl_full.size)) / math.sqrt(2)
        x = h_true * tmpl_full + noise
        ph_rn16.append(np.angle(np.dot(x[:n_rn16], tmpl_rn16) / e_rn16))
        ph_full.append(np.angle(np.dot(x, tmpl_full) / e_full))
    ratio_db = 10 * math.log10(np.var(ph_rn16) / np.var(ph_full))
    ok = abs(ratio_db - 8.7) <= 1.0
    report(3, "full-packet integration gain", ok, f"({ratio_db:.2f} dB over 500 seeds)")


def test_c04_channelization_losslessness():
    rng = np.random.default_rng(1)
    tag = multipath_tag((0.4, 3.0, 1.11), random_epc(rng), (1.0, 4.2, 1.11), 0.5)
    scene = Scene(tags=(tag,))
    h = cs.synth_channel(scene, GEOM, PLAN, 0)
    pkt = wf.TagPacket(rn16_bits=tuple(rng.integers(0, 2, 16)), epc_bits=tag.epc_bits,
                       t0_s=0.3e-3)
    tagwave = wf.build_packet_baseband(pkt, PLAN.capture_rate_hz)
    tag_bl = chz.bandlimit_tag(tagwave)
    rx = cs.backscatter_mix(PLAN, tag_bl.samples.size, tag_bl, h, 0)
    cap = chz.WidebandCapture(samples=rx.samples, rate_hz=PLAN.capture_rate_hz)
    bank = chz.channelize(cap, PLAN)
    ref = chz.processed_tag_baseband(tagwave, PLAN)
    skip = int(chz.chain_transient_s(PLAN) * bank.rate_hz * 2) + 8
    worst = -np.inf
    for l in range(PLAN.n_carriers):
        a = bank.streams[l][skip:-skip]
        b = (h.h[0, l] * ref.samples)[skip:-skip]
        worst = max(worst, 10 * math.log10(np.sum(np.abs(a - b) ** 2)
                                           / np.sum(np.abs(b) ** 2)))
    report(4, "channelization losslessness", worst <= -40.0,
           f"(worst channel {worst:.1f} dB)")


def test_c05_clock_robustness():
    t0 = time.time()
    rng = np.random.default_rng(3)
    tag = single_path_tag((0.4, 3.0, 1.11), random_epc(rng))
    scene = Scene(tags=(tag,))
    failures = []
    total = 0
    for a0 in (-0.10, -0.05, 0.0, 0.05, 0.10):
        for drift in (0.0, 0.025):
            for seed in range(50):
                spec = SceneSpec(scene=scene, snr_db=10.0, leak_db=20.0,
                                 alpha0_frac=a0, drift_frac=drift)
                banks, pkt, _ = simulate_capture(spec, PLAN, GEOM,
                                                 seed=seed * 977 + 13, fast_path=True)
                total += 1
                try:
                    out = dc.decode_pipeline(banks, PLAN, GEOM)
                    ok = (out.crc_ok and out.epc_bits == tag.epc_bits
                          and out.rn16_bits == pkt.rn16_bits)
                except dc.DecodeError:
                    ok = False
                if not ok:
                    failures.append((a0, drift, seed))
    report(5, "clock-envelope decode", not failures,
           f"({total - len(failures)}/{total} decoded, {time.time() - t0:.0f}s)")


def test_c06_viterbi_equals_exhaustive():
    rng = np.random.default_rng(15)
    rate = PLAN.channel_out_rate_hz
    mismatches = 0
    snr_lin = 10 ** (3.0 / 10)
    for seed in range(1000):
        r = np.random.default_rng(seed)
        bits = list(r.integers(0, 2, 8))
        frame = wf.miller_encode(wf.PREAMBLE_BITS + tuple(bits), BLF, rate)
        x = frame.samples + (r.standard_normal(frame.samples.size)
                             + 1j * r.standard_normal(frame.samples.size)) \
            / math.sqrt(2) / math.sqrt(snr_lin)
        got, _ = dc.viterbi_decode(x, rate, 0.0, 8)
        c, _ = dc._branch_metrics(x, rate, 0.0, 8)
        best, best_bits = -np.inf, None
        for word in range(256):
            bits_w = [(word >> (7 - i)) & 1 for i in range(8)]
            s, metric = dc._ENTERING_SIGN, 0.0
            for i, b in enumerate(bits_w):
                metric += s * c[i, b]
                s = s if b else -s
            if metric > best:
                best, best_bits = metric, bits_w
        mismatches += got != best_bits
    report(6, "Viterbi equals exhaustive ML", mismatches == 0,
           f"({mismatches} mismatches in 1000 seeds)")


def test_c07_combining_gains():
    rng = np.random.default_rng(12)
    n = 40000
    sig = np.sign(rng.standard_normal(n)).astype(complex)
    ok = True
    details = []
    for l_count in (2, 4, 16):
        streams = np.stack([
            sig + (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
            for _ in range(l_count)])
        out = dc.mrc_combine(streams, np.ones(l_count), np.ones(l_count))
        g = np.vdot(sig, out) / n
        resid = out - g * sig
        snr_db = 10 * math.log10(abs(g) ** 2 / np.mean(np.abs(resid) ** 2))
        expect = 10 * math.log10(l_count)
        details.append(f"L={l_count}: {snr_db:.2f}/{expect:.2f} dB")
        ok &= abs(snr_db - expect) <= 0.5

    k = 4
    tone = np.exp(2j * math.pi * 0.04 * np.arange(60000))
    a_sig = np.exp(1j * np.array([0.0, 0.7, 1.4, 2.1]))
    a_jam = np.exp(1j * np.array([0.0, -1.0, -2.0, -3.0]))
    jam = (rng.standard_normal(60000) + 1j * rng.standard_normal(60000)) / math.sqrt(2)
    noise = 0.1 * (rng.standard_normal((k, 60000))
                   + 1j * rng.standard_normal((k, 60000))) / math.sqrt(2)
    jam_amp = math.sqrt(10.0)
    pre = jam_amp * a_jam[:, None] * jam[None, :] + noise
    x = a_sig[:, None] * tone[None, :] + jam_amp * a_jam[:, None] * jam[None, :] + noise
    rn = pre @ pre.conj().T / pre.shape[1]
    steered, _, _ = dc.msnr_combine(x, rn)

    def sir(stream):
        g = np.vdot(tone, stream) / tone.size
        j = np.vdot(jam, stream) / tone.size
        return 10 * math.log10(abs(g) ** 2 / (abs(j) ** 2 + 1e-30))

    improvement = sir(steered) - max(sir(x[i]) for i in range(k))
    ok &= improvement >= 15.0
    details.append(f"jammer +{improvement:.1f} dB")
    report(7, "MRC additivity and MSNR nulling", ok, "(" + ", ".join(details) + ")")


def test_c08_resolution_law():
    uplan = uniform_carrier_plan(16)
    freqs = np.asarray(uplan.carriers_hz)

    def h_oneway(dists, gains):
        h = np.zeros(freqs.size, dtype=complex)
        for d, g in zip(dists, gains):
            h += g * np.exp(-2j * math.pi * freqs * (2 * d) / C_M_PER_S)
        return h

    outcomes = {1.0: [], 0.4: []}
    for delta, want in ((1.0, 2), (0.4, 1)):
        for seed in range(20):
            r = np.random.default_rng(100 + seed)
            d0 = r.uniform(2.5, 5.5)
            g2 = r.uniform(0.5, 0.8)
            # metallic reflection: pi phase shift on the bounce
            h = h_oneway([d0, d0 + delta], [1.0, g2 * np.exp(1j * math.pi)])
            prof = loc.tof_spectrum(h, uplan, d_max_m=10.0, spacing_m=0.02)
            m = prof.magnitude
            pk, _ = sps.find_peaks(m, height=0.25 * m.max(), prominence=0.12 * m.max())
            sel = [p for p in pk if d0 - 0.8 <= prof.distances_m[p] <= d0 + delta + 0.8]
            outcomes[delta].append(len(sel) == want)
    ok = all(outcomes[1.0]) and all(outcomes[0.4])
    report(8, "two-path resolution law", ok,
           f"(resolved {sum(outcomes[1.0])}/20, merged {sum(outcomes[0.4])}/20)")


def test_c09_direct_path_suppression():
    uplan = uniform_carrier_plan(16)
    freqs = np.asarray(uplan.carriers_hz)
    span = freqs[-1] - freqs[0]

    def h_totals(totals, gains):
        h = np.zeros(freqs.size, dtype=complex)
        for d, g in zip(totals, gains):
            h += g * np.exp(-2j * math.pi * freqs * d / C_M_PER_S)
        return h

    wins = 0
    for seed in range(100):
        r = np.random.default_rng(40 + seed)
        d0 = r.uniform(4.0, 8.0)
        a1 = r.uniform(0.4, 0.7)
        ph = r.uniform(0, 2 * math.pi)
        h = h_totals([d0, d0 + 2.0], [1.0, a1 * np.exp(1j * ph)])
        direct = np.angle(h_totals([d0], [1.0]))
        prof = loc.tof_profile(h, uplan, d_max_m=12.0)
        d0_hat = loc.identify_direct_path(prof, loc.PriorROI(path_bounds_m=(3.0, 9.0)))
        if d0_hat is None:
            continue
        enhanced = loc.enhance_direct_path(h, uplan, d0_hat)
        raw_err = np.mean(np.abs(cs.model.wrap_phase(np.angle(h) - direct)))
        enh_err = np.mean(np.abs(cs.model.wrap_phase(enhanced - direct)))
        wins += enh_err < raw_err

    # residual weight in the small-multipath regime of the derivation
    a1 = 0.12
    weights = []
    for seed in range(10):
        d0 = np.random.default_rng(seed).uniform(3.0, 7.0)
        h = h_totals([d0, d0 + 2.0], [1.0, a1])
        unit = np.exp(1j * np.angle(h))
        c_m = np.mean(unit * np.exp(2j * math.pi * freqs * d0 / C_M_PER_S))
        direct_ref = np.mean(np.exp(-2j * math.pi * freqs * d0 / C_M_PER_S) / np.abs(h)
                             * np.exp(2j * math.pi * freqs * d0 / C_M_PER_S))
        weights.append(abs(c_m - direct_ref) / a1)
    x = span * 2.0 / C_M_PER_S
    sinc_ref = abs(math.sin(math.pi * x) / (math.pi * x))
    weight = float(np.mean(weights))
    ok = wins >= 95 and abs(weight - sinc_ref) <= 0.1
    report(9, "direct-path suppression", ok,
           f"(improved {wins}/100, residual weight {weight:.3f} vs sinc {sinc_ref:.3f})")


def test_c10_localization_trends():
    t0 = time.time()
    corpus = harness.desk_multipath_corpus(n_scenes=200)
    prior = loc.PriorROI(path_bounds_m=(1.5, 14.0))
    cfg = BatchConfig(plan=PLAN, geom=GEOM, grid=GRID, prior=prior, seed=3)

    bw = harness.ablation_sweep(corpus, "bandwidth", cfg)
    ant = harness.ablation_sweep(corpus, "antennas", cfg)
    alg = harness.ablation_sweep(corpus, "algorithm", cfg)
    bw_p99 = [r["p99_m"] for r in bw]
    ant_p99 = [r["p99_m"] for r in ant]
    alg_p99 = {r["setting"]: r["p99_m"] for r in alg}

    rng = np.random.default_rng(5)
    clean = []
    for _ in range(10):
        pos = (float(rng.uniform(-1.3, 1.3)), float(rng.uniform(1.0, 6.0)), 1.11)
        clean.append(SceneSpec(scene=Scene(tags=(single_path_tag(pos, random_epc(rng)),)),
                               snr_db=80.0))
    clean_rep = harness.run_batch(clean, cfg)

    mono_bw = all(a >= b for a, b in zip(bw_p99, bw_p99[1:]))
    mono_ant = all(a >= b for a, b in zip(ant_p99, ant_p99[1:]))
    alg_ok = alg_p99["enhanced"] <= alg_p99["basic"]
    clean_ok = clean_rep.p99_m <= GRID.cell_m * math.sqrt(2)
    ok = mono_bw and mono_ant and alg_ok and clean_ok
    report(10, "localization trends", ok,
           f"(bw {['%.2f' % v for v in bw_p99]}, ant {['%.2f' % v for v in ant_p99]}, "
           f"basic {alg_p99['basic']:.3f} vs enhanced {alg_p99['enhanced']:.3f}, "
           f"noiseless p99 {clean_rep.p99_m:.3f} m, {time.time() - t0:.0f}s)")


def test_c11_roi_gate():
    t0 = time.time()
    scenes, labels = harness.gate_corpus(n_inside=100, n_outside=100, seed=11)
    prior = loc.PriorROI(path_bounds_m=(1.5, 14.0),
                         region_xy=((-1.5, 0.3), (1.5, 0.3), (1.5, 2.5), (-1.5, 2.5)))
    cfg = BatchConfig(plan=PLAN, geom=GEOM, grid=GRID, prior=prior, seed=2)
    rep = harness.run_batch(scenes, cfg)
    decisions = []
    for res, label in zip(rep.results, labels):
        cls = loc.classify_roi(res.estimate, prior, GEOM) if res.estimate else None
        decisions.append({"label": label, "classified": cls})
    miss, cross = harness.evaluate_roi(decisions)
    ok = miss == 0.0 and cross <= 0.02
    report(11, "gate miss/cross rates", ok,
           f"(miss {miss:.4f}, cross {cross:.4f}, {time.time() - t0:.0f}s)")


def test_c12_throughput_informational():
    rng = np.random.default_rng(9)
    scenes = []
    for _ in range(5):
        pos = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(1.5, 4.5)), 1.11)
        scenes.append(SceneSpec(scene=Scene(tags=(single_path_tag(pos, random_epc(rng)),)),
                                snr_db=18.0))
    prior = loc.PriorROI(path_bounds_m=(1.5, 14.0))
    cfg = BatchConfig(plan=PLAN, geom=GEOM, grid=GRID, prior=prior,
                      mode="waveform", seed=4)
    # one untimed scene first: the filter designs and FFT plans are built then,
    # not inside the 5 timed packets
    harness.run_batch(scenes[:1], cfg)
    rep = harness.run_batch(scenes, cfg)
    # soft criterion: measured and reported, never gated
    print(f"INFO criterion 12: decode+localize throughput "
          f"{rep.throughput_pps:.1f} packets/s on this machine "
          f"({rep.n_tags - rep.n_failed}/{rep.n_tags} decoded)")
    report(12, "throughput measured (soft, informational)", rep.throughput_pps > 0,
           f"({rep.throughput_pps:.1f} packets/s)")
