"""Hologram, ToF/AoA layers, direct-path machinery and localization tests."""

import math

import numpy as np
import pytest
import scipy.signal as sps
from hypothesis import given, settings, strategies as st

import chordsim as cs
from chordsim import locator as loc
from chordsim import harness
from chordsim.model import (C_M_PER_S, ModelError, PropagationPath, Scene, TagDef,
                            default_array_geometry, default_carrier_plan,
                            subset_plan, uniform_carrier_plan, wrap_phase)
from chordsim.harness import multipath_tag, random_epc, single_path_tag


@pytest.fixture(scope="module")
def geom():
    return default_array_geometry()


@pytest.fixture(scope="module")
def plan():
    return default_carrier_plan()


@pytest.fixture(scope="module")
def uplan():
    return uniform_carrier_plan(16)


GRID = loc.GridSpec()


def _h_totals(plan, totals, gains):
    """Channel row from fixed total path lengths and complex gains."""
    f = np.asarray(plan.carriers_hz)
    h = np.zeros(f.size, dtype=complex)
    for d, g in zip(totals, gains):
        h += g * np.exp(-2j * math.pi * f * d / C_M_PER_S)
    return h


def _h_oneway(plan, dists, gains):
    """Round-trip-phase channel row parameterized by one-way distances."""
    return _h_totals(plan, [2 * d for d in dists], gains)


# --- basic hologram ----------------------------------------------------------

def test_hologram_argmax_at_true_cell(geom, plan):
    pos = (0.42, 3.97, 1.11)
    scene = Scene(tags=(single_path_tag(pos, random_epc(np.random.default_rng(0))),))
    h = cs.synth_channel(scene, geom, plan, 0)
    res = loc.basic_hologram(h, GRID, geom, plan)
    assert abs(res.position_m[0] - pos[0]) <= GRID.cell_m
    assert abs(res.position_m[1] - pos[1]) <= GRID.cell_m
    assert res.likelihood <= 128.0 + 1e-9


def test_hologram_zero_channel_deterministic(geom, plan):
    h = cs.ChannelMatrix(h=np.zeros((8, 16), dtype=complex), carriers_hz=plan.carriers_hz,
                         geometry=geom)
    a = loc.basic_hologram(h, GRID, geom, plan)
    b = loc.basic_hologram(h, GRID, geom, plan)
    assert np.all(np.isfinite(a.heatmap))
    assert (a.argmax_iy, a.argmax_ix) == (b.argmax_iy, b.argmax_ix)


def test_hologram_brute_force_small_grid(geom, plan):
    rng = np.random.default_rng(1)
    h = cs.ChannelMatrix(h=np.exp(1j * rng.uniform(-np.pi, np.pi, (8, 16))),
                         carriers_hz=plan.carriers_hz, geometry=geom)
    grid = loc.GridSpec(x_extent_m=(-0.1, 0.05), y_extent_m=(2.0, 2.15), cell_m=0.05)
    assert (grid.nx, grid.ny) == (3, 3)
    res = loc.basic_hologram(h, grid, geom, plan)
    # naive per-cell, per-channel double loop
    for iy in range(3):
        for ix in range(3):
            g = grid.cell_position(iy, ix)
            acc = 0.0 + 0.0j
            for k in range(8):
                for l in range(16):
                    phi = -np.angle(h.h[k, l])
                    theta = cs.theoretical_phase(g, k, l, geom, plan)
                    acc += np.exp(-1j * (phi - theta))
            assert res.heatmap[iy, ix] == pytest.approx(abs(acc), abs=1e-12)


def test_hologram_global_phase_invariance(geom, plan):
    rng = np.random.default_rng(2)
    scene = Scene(tags=(multipath_tag((0.2, 2.8, 1.11), random_epc(rng),
                                      (1.0, 3.9, 1.11), 0.6),))
    h = cs.synth_channel(scene, geom, plan, 0)
    base = loc.basic_hologram(h, GRID, geom, plan)
    rot = cs.ChannelMatrix(h=h.h * np.exp(1.234j), carriers_hz=plan.carriers_hz,
                           geometry=geom)
    res = loc.basic_hologram(rot, GRID, geom, plan)
    assert (res.argmax_iy, res.argmax_ix) == (base.argmax_iy, base.argmax_ix)
    assert np.allclose(res.heatmap, base.heatmap, atol=1e-9)


def test_hologram_magnitude_bounds(geom, plan):
    rng = np.random.default_rng(3)
    h = cs.ChannelMatrix(h=np.exp(1j * rng.uniform(-np.pi, np.pi, (8, 16))),
                         carriers_hz=plan.carriers_hz, geometry=geom)
    res = loc.basic_hologram(h, GRID, geom, plan)
    assert np.all(res.heatmap >= 0)
    assert np.all(res.heatmap <= 8 * 16 + 1e-9)


def test_grid_refinement_consistency(geom, plan):
    pos = (0.33, 2.61, 1.11)
    scene = Scene(tags=(single_path_tag(pos, random_epc(np.random.default_rng(4))),))
    h = cs.synth_channel(scene, geom, plan, 0)
    coarse = loc.GridSpec(x_extent_m=(-1.0, 1.0), y_extent_m=(1.5, 3.5), cell_m=0.1)
    fine = loc.GridSpec(x_extent_m=(-1.0, 1.0), y_extent_m=(1.5, 3.5), cell_m=0.05)
    a = loc.basic_hologram(h, coarse, geom, plan)
    b = loc.basic_hologram(h, fine, geom, plan)
    assert abs(a.position_m[0] - b.position_m[0]) <= coarse.cell_m + 1e-9
    assert abs(a.position_m[1] - b.position_m[1]) <= coarse.cell_m + 1e-9


# --- steering-row cache ------------------------------------------------------

def _random_phase_channel(geom, plan, seed):
    rng = np.random.default_rng(seed)
    return cs.ChannelMatrix(h=np.exp(1j * rng.uniform(-np.pi, np.pi, (8, 16))),
                            carriers_hz=plan.carriers_hz, geometry=geom)


def _sweep_keys(geom, plan):
    """The (carriers, antennas) subsets of the bandwidth and antenna sweeps."""
    keys = [(harness.bandwidth_carrier_indices(plan, bw), list(range(geom.n_antennas)))
            for bw in harness.BANDWIDTH_SETTINGS_HZ]
    keys += [(list(range(plan.n_carriers)), cs.model.antenna_subset_indices(geom, n))
             for n in harness.ANTENNA_SETTINGS]
    return keys


def _subset_hologram(ch, carriers, antennas, geom, plan):
    sub_plan = cs.model.subset_plan(plan, carriers)
    sub_geom = cs.model.subset_geometry(geom, len(antennas))
    sub = cs.ChannelMatrix(h=ch.h[np.ix_(antennas, carriers)],
                           carriers_hz=sub_plan.carriers_hz, geometry=sub_geom)
    return loc.basic_hologram(sub, GRID, sub_geom, sub_plan)


def test_subset_holograms_build_no_new_rows(geom, plan):
    ch = _random_phase_channel(geom, plan, 11)
    loc.basic_hologram(ch, GRID, geom, plan)
    misses = loc._steering_row.cache_info().misses
    for carriers, antennas in _sweep_keys(geom, plan):
        _subset_hologram(ch, carriers, antennas, geom, plan)
    assert loc._steering_row.cache_info().misses == misses


def test_cached_rows_are_read_only(geom, plan):
    tx = loc._point_key(geom.tx_wideband_position_m)
    rx = loc._point_key(geom.rx_positions_m[0])
    row = loc._steering_row(GRID, tx, rx, float(plan.carriers_hz[0]))
    dist = loc._cell_distances(GRID, tx)
    assert row.shape == dist.shape == (GRID.nx * GRID.ny,)
    for arr in (row, dist):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_masked_nan_entry_never_enters_the_sum(geom, plan):
    phases = np.angle(_random_phase_channel(geom, plan, 12).h)
    mask = np.ones(phases.shape, dtype=bool)
    mask[3, 5] = False
    with_nan = phases.copy()
    with_nan[3, 5] = np.nan
    res = loc.summation_layer(with_nan, GRID, geom, plan, mask=mask)
    assert np.all(np.isfinite(res.heatmap))
    zeroed = phases.copy()
    zeroed[3, 5] = 0.0
    assert np.array_equal(res.heatmap,
                          loc.summation_layer(zeroed, GRID, geom, plan, mask=mask).heatmap)
    # a whole masked NaN carrier equals the plan without that carrier
    mask = np.ones(phases.shape, dtype=bool)
    mask[:, 9] = False
    with_nan = phases.copy()
    with_nan[:, 9] = np.nan
    keep = [l for l in range(plan.n_carriers) if l != 9]
    sub_plan = cs.model.subset_plan(plan, keep)
    assert np.array_equal(
        loc.summation_layer(with_nan, GRID, geom, plan, mask=mask).heatmap,
        loc.summation_layer(phases[:, keep], GRID, geom, sub_plan, mask=mask[:, keep]).heatmap)


def test_single_carrier_plan_localizes(geom, plan):
    one = subset_plan(plan, [7])
    tag = single_path_tag((0.3, 2.5, 1.11), (0, 1) * 48)
    h = cs.synth_channel(Scene(tags=(tag,)), geom, one, 0)
    est = loc.localize(h, GRID, geom, one, policy=loc.LocalizePolicy("never"))
    assert np.all(np.isfinite(est.position_m))


def test_all_masked_channel_raises_at_the_hologram(geom, plan):
    ch = _random_phase_channel(geom, plan, 14)
    ch = cs.ChannelMatrix(h=ch.h, carriers_hz=ch.carriers_hz, geometry=geom,
                          mask=np.zeros(ch.shape, dtype=bool))
    with pytest.raises(ModelError, match="hologram"):
        loc.localize(ch, GRID, geom, plan)
    with pytest.raises(ModelError, match="hologram"):
        loc.summation_layer(np.angle(ch.h), GRID, geom, plan, mask=ch.mask)


def test_summation_layer_rejects_a_mis_shaped_mask(geom, plan):
    phases = np.angle(_random_phase_channel(geom, plan, 15).h)
    for shape in [(16, 8), (8,), (8, 15)]:
        with pytest.raises(ModelError, match="hologram: mask"):
            loc.summation_layer(phases, GRID, geom, plan, mask=np.ones(shape, dtype=bool))


def _rows(geom, plan):
    """The cached steering rows of every (antenna, carrier), antenna-major."""
    tx = loc._point_key(geom.tx_wideband_position_m)
    return [[loc._steering_row(GRID, tx, loc._point_key(rx), float(f))
             for f in plan.carriers_hz] for rx in geom.rx_positions_m]


def test_hologram_equals_a_plain_numpy_sum(geom, plan):
    ch = _random_phase_channel(geom, plan, 16)
    mask = np.ones(ch.shape, dtype=bool)
    mask[2, 4] = False
    mask[:, 11] = False
    masked = cs.ChannelMatrix(h=ch.h, carriers_hz=ch.carriers_hz, geometry=geom, mask=mask)
    carriers = harness.bandwidth_carrier_indices(plan, harness.BANDWIDTH_SETTINGS_HZ[1])
    antennas = cs.model.antenna_subset_indices(geom, harness.ANTENNA_SETTINGS[1])
    sub_plan = subset_plan(plan, carriers)
    sub_geom = cs.model.subset_geometry(geom, len(antennas))
    sub = cs.ChannelMatrix(h=ch.h[np.ix_(antennas, carriers)],
                           carriers_hz=sub_plan.carriers_hz, geometry=sub_geom)
    for c, g, p in [(ch, geom, plan), (masked, geom, plan), (sub, sub_geom, sub_plan)]:
        rows = _rows(g, p)
        seen = np.ones(c.shape, dtype=bool) if c.mask is None else c.mask
        ref = np.abs(sum(np.exp(1j * np.angle(c.h[k, l])) * rows[k][l]
                         for k in range(c.shape[0]) for l in range(c.shape[1])
                         if seen[k, l])).reshape(GRID.ny, GRID.nx)
        res = loc.basic_hologram(c, GRID, g, p)
        assert res.heatmap.shape == (GRID.ny, GRID.nx) == (120, 64)
        assert np.max(np.abs(res.heatmap - ref)) <= 1e-12
        assert (res.argmax_iy, res.argmax_ix) == np.unravel_index(np.argmax(ref), ref.shape)


def test_hologram_leaves_cached_rows_untouched(geom, plan):
    ch = _random_phase_channel(geom, plan, 17)
    rows = [row for per_antenna in _rows(geom, plan) for row in per_antenna]
    before = [row.copy() for row in rows]
    mask = np.ones(ch.shape, dtype=bool)
    mask[5, 2] = False
    mask[:, 7] = False
    loc.basic_hologram(ch, GRID, geom, plan)
    loc.summation_layer(np.angle(ch.h), GRID, geom, plan, mask=mask)
    after = [row for per_antenna in _rows(geom, plan) for row in per_antenna]
    assert all(a is b for a, b in zip(after, rows))
    for row, copy in zip(rows, before):
        assert np.array_equal(row, copy)
        assert not row.flags.writeable


def test_cache_within_bound_after_sweep(geom, plan):
    ch = _random_phase_channel(geom, plan, 13)
    loc._steering_row.cache_clear()
    loc.basic_hologram(ch, GRID, geom, plan)
    for carriers, antennas in _sweep_keys(geom, plan):
        _subset_hologram(ch, carriers, antennas, geom, plan)
    info = loc._steering_row.cache_info()
    assert info.currsize == info.misses == 8 * 16
    assert info.currsize <= info.maxsize


# --- ToF layers --------------------------------------------------------------

def test_tof_single_path_peak(uplan):
    h = _h_totals(uplan, [3.0], [1.0])
    prof = loc.tof_profile(h, uplan, d_max_m=8.0)
    peak = prof.distances_m[np.argmax(prof.magnitude)]
    assert peak == pytest.approx(3.0, abs=prof.distances_m[1] / 2 + 0.026)


def test_tof_two_resolved_paths(uplan):
    # one-way 3.0 m and 4.2 m with a metallic bounce: both maxima within
    # 0.15 m of truth
    h = _h_oneway(uplan, [3.0, 4.2], [1.0, 0.5 * np.exp(1j * math.pi)])
    prof = loc.tof_spectrum(h, uplan, d_max_m=8.0, spacing_m=0.02)
    m = prof.magnitude
    pk, _ = sps.find_peaks(m, height=0.25 * m.max(), prominence=0.12 * m.max())
    found = [float(prof.distances_m[p]) for p in pk if 2.0 < prof.distances_m[p] < 5.5]
    assert len(found) == 2
    assert abs(found[0] - 3.0) <= 0.15
    assert abs(found[1] - 4.2) <= 0.15


def test_tof_sub_resolution_merged(uplan):
    h = _h_oneway(uplan, [3.0, 3.3], [1.0, 1.0])
    prof = loc.tof_spectrum(h, uplan, d_max_m=8.0, spacing_m=0.02)
    m = prof.magnitude
    pk, _ = sps.find_peaks(m, height=0.25 * m.max(), prominence=0.12 * m.max())
    found = [p for p in pk if 2.0 < prof.distances_m[p] < 4.5]
    assert len(found) == 1


def test_tof_requires_two_carriers(uplan):
    with pytest.raises(ModelError):
        loc.tof_profile(np.array([1.0 + 0j]), uplan)


def test_tof_spectrum_identical_to_profile(uplan):
    # the same values on the one-way axis: half the total path length
    rng = np.random.default_rng(5)
    h = np.exp(1j * rng.uniform(-np.pi, np.pi, 16))
    a = loc.tof_profile(h, uplan, d_max_m=12.0, spacing_m=0.04)
    b = loc.tof_spectrum(h, uplan, d_max_m=6.0, spacing_m=0.02)
    assert np.array_equal(a.complex_values, b.complex_values)
    assert np.array_equal(a.distances_m / 2, b.distances_m)


def test_tof_unambiguous_range(plan):
    # 11.1 MHz spacing aliases at c/spacing, beyond the grid extent
    spacing = np.min(np.diff(plan.carriers_hz))
    assert C_M_PER_S / spacing > 25.0


# --- direct-path identification ---------------------------------------------

def test_identify_two_peak_prior(uplan):
    h = _h_totals(uplan, [3.0, 5.5], [1.0, 0.8 * np.exp(1j * math.pi)])
    prof = loc.tof_profile(h, uplan, d_max_m=10.0, spacing_m=0.02)
    prior = loc.PriorROI(path_bounds_m=(2.0, 4.0))
    d0 = loc.identify_direct_path(prof, prior)
    assert d0 == pytest.approx(3.0, abs=0.2)


def test_identify_rejects_sidelobe_below_threshold(uplan):
    # in-phase two-path rows grow a leakage bump nearer than the true peak
    h = _h_oneway(uplan, [3.0, 4.2], [1.0, 0.6])
    prof = loc.tof_spectrum(h, uplan, d_max_m=8.0, spacing_m=0.02)
    prior = loc.PriorROI(path_bounds_m=(1.5, 4.0))
    d0 = loc.identify_direct_path(prof, prior)
    assert d0 is not None
    assert d0 == pytest.approx(2.96, abs=0.2)
    m = prof.magnitude
    pk, _ = sps.find_peaks(m)
    nearer = [float(prof.distances_m[p]) for p in pk if prof.distances_m[p] < 2.4]
    assert nearer, "scenario should contain a leakage bump nearer than the true peak"


def test_identify_flat_profile_none(uplan):
    flat = loc.TofProfile(distances_m=np.linspace(0, 10, 200),
                          magnitude=np.ones(200), complex_values=np.ones(200, dtype=complex))
    prior = loc.PriorROI(path_bounds_m=(1.0, 8.0))
    assert loc.identify_direct_path(flat, prior) is None


def test_identify_prior_outside_axis_errors(uplan):
    h = _h_totals(uplan, [3.0], [1.0])
    prof = loc.tof_profile(h, uplan, d_max_m=8.0)
    with pytest.raises(ModelError):
        loc.identify_direct_path(prof, loc.PriorROI(path_bounds_m=(20.0, 30.0)))


# --- direct-path enhancement -------------------------------------------------

def test_enhance_single_path_fixed_point(uplan):
    h = _h_totals(uplan, [4.4], [1.0])
    phi = np.angle(h)
    enhanced = loc.enhance_direct_path(h, uplan, 4.4)
    assert np.max(np.abs(wrap_phase(enhanced - phi))) < 1e-9


def test_enhance_reduces_multipath_phase_error(uplan):
    # Delta-d = 2 m, gain 0.6: enhanced phases sit closer to the pure direct
    # path than the raw phases, averaged over carriers
    d0 = 5.0
    h = _h_totals(uplan, [d0, d0 + 2.0], [1.0, 0.6])
    direct = np.angle(_h_totals(uplan, [d0], [1.0]))
    raw_err = np.mean(np.abs(wrap_phase(np.angle(h) - direct)))
    enhanced = loc.enhance_direct_path(h, uplan, d0)
    enh_err = np.mean(np.abs(wrap_phase(enhanced - direct)))
    assert enh_err < raw_err


def test_enhance_residual_weight_near_sinc(uplan):
    # Residual multipath weight after enhancement matches |sinc(B delta/c)|
    # in the small-multipath regime the derivation linearizes (the
    # phase-only enhancement adds an O(a/2) amplitude-coupling term); the
    # oracle removes the known direct contribution from the enhancement sum
    # and normalizes by the multipath gain
    d0, delta, a1 = 5.0, 2.0, 0.12
    h = _h_totals(uplan, [d0, d0 + delta], [1.0, a1])
    f = np.asarray(uplan.carriers_hz)
    unit = np.exp(1j * np.angle(h))
    c_m = np.mean(unit * np.exp(2j * math.pi * f * d0 / C_M_PER_S))
    direct_ref = np.mean(np.exp(-2j * math.pi * f * d0 / C_M_PER_S) / np.abs(h)
                         * np.exp(2j * math.pi * f * d0 / C_M_PER_S))
    weight = abs(c_m - direct_ref) / a1
    span = uplan.carriers_hz[-1] - uplan.carriers_hz[0]
    x = span * delta / C_M_PER_S
    sinc_ref = abs(math.sin(math.pi * x) / (math.pi * x))
    assert weight == pytest.approx(sinc_ref, abs=0.1)


# --- summation layer ---------------------------------------------------------

def test_summation_equals_basic_on_raw_phases(geom, plan):
    rng = np.random.default_rng(6)
    scene = Scene(tags=(multipath_tag((0.2, 2.8, 1.11), random_epc(rng),
                                      (1.2, 3.5, 1.11), 0.5),))
    h = cs.synth_channel(scene, geom, plan, 0)
    base = loc.basic_hologram(h, GRID, geom, plan)
    summed = loc.summation_layer(np.angle(h.h), GRID, geom, plan, mask=h.mask)
    assert np.array_equal(summed.heatmap, base.heatmap)
    assert (summed.argmax_iy, summed.argmax_ix) == (base.argmax_iy, base.argmax_ix)


def test_summation_single_channel(geom, plan):
    g1 = cs.ArrayGeometry(rx_positions_m=(geom.rx_positions_m[0],),
                          tx_wideband_position_m=geom.tx_wideband_position_m,
                          tx_ism_position_m=geom.tx_ism_position_m)
    p1 = cs.model.subset_plan(plan, [0])
    res = loc.summation_layer(np.array([[0.3]]), GRID, g1, p1, mask=np.ones((1, 1), dtype=bool))
    assert np.all(res.heatmap <= 1.0 + 1e-12)


# --- peak finding -------------------------------------------------------------

def test_peak_find_single_bump():
    y, x = np.mgrid[0:40, 0:40]
    heat = np.exp(-((x - 11.0) ** 2 + (y - 25.0) ** 2) / 18.0)
    peaks = loc.peak_find_2d(heat, 0.5)
    assert len(peaks) == 1
    assert peaks[0][:2] == (25, 11)


def test_peak_find_two_bumps_sorted():
    y, x = np.mgrid[0:50, 0:50]
    heat = (np.exp(-((x - 10.0) ** 2 + (y - 10.0) ** 2) / 8.0)
            + 0.9 * np.exp(-((x - 38.0) ** 2 + (y - 40.0) ** 2) / 8.0))
    peaks = loc.peak_find_2d(heat, 0.5)
    assert [p[:2] for p in peaks] == [(10, 10), (40, 38)]


def test_two_path_hologram_multiple_peaks(geom, plan):
    rng = np.random.default_rng(7)
    scene = Scene(tags=(TagDef(epc_bits=random_epc(rng), position_m=(0.2, 3.0, 1.11),
                               paths=(PropagationPath(gain=1.0, direct=True),
                                      PropagationPath(gain=0.9, reflector_m=(1.4, 4.8, 1.11),
                                                      phase_rad=math.pi))),))
    h = cs.synth_channel(scene, geom, plan, 0)
    res = loc.basic_hologram(h, GRID, geom, plan)
    assert len(loc.peak_find_2d(res.heatmap, 0.5)) >= 2


# --- localize ----------------------------------------------------------------

def test_localize_single_path_short_circuits(geom, plan):
    rng = np.random.default_rng(8)
    scene = Scene(tags=(single_path_tag((0.3, 3.2, 1.11), random_epc(rng)),))
    h = cs.synth_channel(scene, geom, plan, 0)
    prior = loc.PriorROI(path_bounds_m=(1.5, 14.0))
    est = loc.localize(h, GRID, geom, plan, prior)
    assert not est.enhancement_applied
    base = loc.basic_hologram(h, GRID, geom, plan)
    assert est.position_m == base.position_m


def test_localize_prior_excluding_tag_falls_back(geom, plan):
    rng = np.random.default_rng(9)
    scene = Scene(tags=(multipath_tag((0.2, 4.5, 1.11), random_epc(rng),
                                      (1.4, 6.0, 1.11), 0.9),))
    h = cs.synth_channel(scene, geom, plan, 0)
    prior = loc.PriorROI(path_bounds_m=(1.6, 2.4))  # excludes the ~9 m path
    est = loc.localize(h, GRID, geom, plan, prior,
                       loc.LocalizePolicy(mode="always"))
    assert not est.enhancement_applied
    assert est.fallback is not None


def test_localize_multipath_study(geom, plan):
    # reflector 1.5 m from the tag, tag 4 m out; the suppression pipeline
    # should match or beat the basic hologram in most random reflector draws
    rng = np.random.default_rng(10)
    prior = loc.PriorROI(path_bounds_m=(1.5, 14.0))
    better_or_equal = 0
    n_seeds = 60
    for s in range(n_seeds):
        r = np.random.default_rng(1000 + s)
        ang = r.uniform(0, 2 * math.pi)
        refl = (0.0 + 1.5 * math.cos(ang), max(4.0 + 1.5 * math.sin(ang), 0.3), 1.11)
        tag = TagDef(epc_bits=random_epc(r), position_m=(0.0, 4.0, 1.11),
                     paths=(PropagationPath(gain=1.0, direct=True),
                            PropagationPath(gain=float(r.uniform(0.5, 0.9)),
                                            reflector_m=refl, phase_rad=math.pi)))
        h0 = cs.synth_channel(Scene(tags=(tag,)), geom, plan, 0)
        h = harness.noisy_channel(h0, 16.0, r)
        eb = loc.localize(h, GRID, geom, plan, prior, loc.LocalizePolicy(mode="never"))
        ee = loc.localize(h, GRID, geom, plan, prior)
        err = lambda e: math.hypot(e.position_m[0] - 0.0, e.position_m[1] - 4.0)
        if err(ee) <= err(eb) + 0.05:
            better_or_equal += 1
    assert better_or_equal / n_seeds >= 0.70


# --- AoA ---------------------------------------------------------------------

def _far_field_column(geom, freq_hz, angle_deg, k_count=8):
    rng_pos = geom.rx_array()[:k_count]
    src = 1000.0 * np.array([math.sin(math.radians(angle_deg)),
                             math.cos(math.radians(angle_deg)), 0.0])
    src[2] = rng_pos[0][2]
    d = np.linalg.norm(rng_pos - src, axis=1)
    return np.exp(-2j * math.pi * freq_hz * d / C_M_PER_S)


def test_aoa_broadside(plan):
    geom = cs.ArrayGeometry(
        rx_positions_m=tuple((i * 0.164, 0.0, 1.11) for i in range(8)),
        tx_wideband_position_m=(0.0, 0.0, 0.71), tx_ism_position_m=(0.0, 0.0, 0.71))
    h = _far_field_column(geom, plan.carriers_hz[9], 0.0)
    psi, s = loc.aoa_spectrum(h, geom, plan, 9)
    assert abs(psi[np.argmax(np.abs(s))]) <= 0.5


def test_aoa_thirty_degrees(plan):
    geom = cs.ArrayGeometry(
        rx_positions_m=tuple((i * 0.164, 0.0, 1.11) for i in range(8)),
        tx_wideband_position_m=(0.0, 0.0, 0.71), tx_ism_position_m=(0.0, 0.0, 0.71))
    h = _far_field_column(geom, plan.carriers_hz[9], 30.0)
    psi, s = loc.aoa_spectrum(h, geom, plan, 9)
    assert psi[np.argmax(np.abs(s))] == pytest.approx(30.0, abs=1.0)


def test_aoa_two_sources(plan):
    geom = cs.ArrayGeometry(
        rx_positions_m=tuple((i * 0.164, 0.0, 1.11) for i in range(8)),
        tx_wideband_position_m=(0.0, 0.0, 0.71), tx_ism_position_m=(0.0, 0.0, 0.71))
    h = (_far_field_column(geom, plan.carriers_hz[9], 0.0)
         + _far_field_column(geom, plan.carriers_hz[9], 40.0))
    # the spectrum works on phases alone, so feed the co-phased sum
    psi, s = loc.aoa_spectrum(h, geom, plan, 9)
    mag = np.abs(s)
    pk, _ = sps.find_peaks(mag, height=0.5 * mag.max())
    angles = sorted(float(psi[p]) for p in pk)
    assert any(abs(a - 0.0) <= 2.0 for a in angles)
    assert any(abs(a - 40.0) <= 2.0 for a in angles)


def test_aoa_needs_two_antennas(plan, geom):
    with pytest.raises(ModelError):
        loc.aoa_spectrum(np.array([1.0 + 0j]), geom, plan, 0)


# --- ROI classification ------------------------------------------------------

def test_roi_polygon_centroid_inside():
    prior = loc.PriorROI(path_bounds_m=(1.0, 10.0),
                         region_xy=((-1.0, 1.0), (1.0, 1.0), (1.0, 3.0), (-1.0, 3.0)))
    est = loc.LocationEstimate(position_m=(0.0, 2.0, 1.11), likelihood=1.0)
    assert loc.classify_roi(est, prior) == "inside"
    # boundary point counts inside
    edge = loc.LocationEstimate(position_m=(1.0, 2.0, 1.11), likelihood=1.0)
    assert loc.classify_roi(edge, prior) == "inside"


def test_roi_range_band(geom):
    prior = loc.PriorROI(path_bounds_m=(2.0, 6.0))
    near = loc.LocationEstimate(position_m=(0.0, 1.5, 1.11), likelihood=1.0)
    far = loc.LocationEstimate(position_m=(0.0, 6.0, 1.11), likelihood=1.0)
    assert loc.classify_roi(near, prior, geom) == "inside"
    assert loc.classify_roi(far, prior, geom) == "outside"



@pytest.fixture(scope="module")
def corpus_channels(geom, plan):
    """Noisy channels of the tags of a small desk multipath corpus."""
    rng = np.random.default_rng(31)
    return [harness.noisy_channel(cs.synth_channel(spec.scene, geom, plan, ti), spec.snr_db, rng)
            for spec in harness.desk_multipath_corpus(n_scenes=8)
            for ti in range(len(spec.scene.tags))]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(index=st.integers(0, 63),
       masked=st.sets(st.integers(0, 15), min_size=1, max_size=5))
def test_masked_carriers_localize_as_subset_plan(geom, plan, corpus_channels, index, masked):
    # a carrier masked at every antenna contributes nothing to any layer, so
    # the result equals localizing on the plan without that carrier
    ch = corpus_channels[index % len(corpus_channels)]
    seen = [l for l in range(plan.n_carriers) if l not in masked]
    mask = np.ones(ch.shape, dtype=bool)
    mask[:, sorted(masked)] = False
    masked_ch = cs.ChannelMatrix(h=np.where(mask, ch.h, 0), carriers_hz=ch.carriers_hz,
                                 geometry=geom, quality=np.where(mask, ch.quality, -np.inf),
                                 mask=mask)
    sub_plan = subset_plan(plan, seen)
    sub_ch = cs.ChannelMatrix(h=ch.h[:, seen], carriers_hz=sub_plan.carriers_hz,
                              geometry=geom, quality=ch.quality[:, seen])
    prior = loc.PriorROI(path_bounds_m=(1.5, 14.0))
    always = loc.LocalizePolicy(mode="always")
    got = loc.localize(masked_ch, GRID, geom, plan, prior, always)
    want = loc.localize(sub_ch, GRID, geom, sub_plan, prior, always)
    assert got.position_m == want.position_m
    assert got.likelihood == want.likelihood
    assert got.enhancement_applied == want.enhancement_applied


def test_no_mask_and_an_all_true_mask_localize_alike(geom, plan, corpus_channels):
    prior = loc.PriorROI(path_bounds_m=(1.5, 14.0))
    always = loc.LocalizePolicy(mode="always")
    enhanced = 0
    for ch in corpus_channels[:8]:
        full = cs.ChannelMatrix(h=ch.h, carriers_hz=ch.carriers_hz, geometry=geom,
                                quality=ch.quality, mask=np.ones(ch.shape, dtype=bool))
        a, b = (loc.basic_hologram(c, GRID, geom, plan) for c in (ch, full))
        assert np.array_equal(a.heatmap, b.heatmap)
        assert (a.position_m, a.likelihood) == (b.position_m, b.likelihood)
        assert np.array_equal(loc.combined_carrier_channel(ch),
                              loc.combined_carrier_channel(full))
        a, b = (loc.localize(c, GRID, geom, plan, prior, always, keep_heatmap=True)
                for c in (ch, full))
        assert np.array_equal(a.heatmap, b.heatmap)
        assert (a.position_m, a.likelihood, a.d0_rough_m, a.enhancement_applied,
                a.fallback) == (b.position_m, b.likelihood, b.d0_rough_m,
                                b.enhancement_applied, b.fallback)
        enhanced += a.enhancement_applied
    assert enhanced
