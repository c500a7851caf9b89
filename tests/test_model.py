"""Geometry, carrier plan, forward model and link-budget formula tests."""

import json
import math

import numpy as np
import pytest

import chordsim as cs
from chordsim import model
from chordsim.model import (CarrierPlan, ModelError, PropagationPath, Scene, TagDef,
                            default_array_geometry, default_carrier_plan,
                            path_length_m, plan_from_dict, plan_to_dict,
                            geometry_from_dict, geometry_to_dict,
                            scene_from_dict, scene_to_dict, wrap_phase)

C = model.C_M_PER_S


@pytest.fixture(scope="module")
def geom():
    return default_array_geometry()


@pytest.fixture(scope="module")
def plan():
    return default_carrier_plan()


def test_default_geometry_reproduces_array(geom):
    x = geom.rx_array()[:, 0]
    gaps = np.diff(x)
    assert np.allclose(gaps, [0.21, 0.21, 0.21, 0.315, 0.21, 0.21, 0.21])
    assert abs(x.mean()) < 1e-12
    tx = geom.tx_wideband_position_m
    assert tx[0] == 0.0 and tx[1] == 0.0
    assert geom.rx_positions_m[0][2] - tx[2] == pytest.approx(0.40)


def test_default_plan_carriers(plan):
    assert plan.n_carriers == 16
    assert plan.carriers_hz[0] == 787.1e6 and plan.carriers_hz[-1] == 986.9e6
    assert plan.span_hz == pytest.approx(199.8e6)
    # desk capture compresses the offsets 16x
    offsets = np.asarray(plan.tone_offsets_hz)
    assert np.allclose(offsets * 16, np.asarray(plan.carriers_hz) - plan.capture_center_hz)


def test_full_rate_plan_offsets_match_carriers():
    full = default_carrier_plan(desk_scale=False)
    offsets = np.asarray(full.tone_offsets_hz)
    assert np.allclose(offsets, np.asarray(full.carriers_hz) - full.capture_center_hz)
    # every carrier inside the capture band
    lo = full.capture_center_hz - full.capture_rate_hz / 2
    hi = full.capture_center_hz + full.capture_rate_hz / 2
    assert all(lo < f < hi for f in full.carriers_hz)


def test_plan_invariants_rejected():
    with pytest.raises(ModelError):
        default_carrier_plan(per_tone_power_dbm=-10.0)
    good = default_carrier_plan()
    with pytest.raises(ModelError):
        CarrierPlan(**{**plan_to_dict(good),
                       "carriers_hz": tuple(sorted(good.carriers_hz, reverse=True))})
    with pytest.raises(ModelError):
        CarrierPlan(**{**plan_to_dict(good),
                       "tone_offsets_hz": tuple(o * 40 for o in good.tone_offsets_hz)})


# --- theoretical_phase -------------------------------------------------------

def test_phase_integer_wavelengths():
    # round trip of 2.0 m at 750 MHz is five whole wavelengths at c = 3e8;
    # the true c leaves only the residual of that rounded constant
    geom = model.ArrayGeometry(rx_positions_m=((0.0, 0.0, 0.0),),
                               tx_wideband_position_m=(0.0, 0.0, 0.0),
                               tx_ism_position_m=(0.0, 0.0, 0.0))
    plan = model.CarrierPlan(carriers_hz=(750e6,), tone_phases_rad=(0.0,),
                             per_tone_power_dbm=-15.0, capture_rate_hz=15.36e6,
                             channel_out_rate_hz=2.56e6, capture_center_hz=750e6,
                             tone_offsets_hz=(0.0,))
    phase = cs.theoretical_phase((0.0, 1.0, 0.0), 0, 0, geom, plan)
    assert abs(phase) < 0.03


def test_phase_quarter_wavelength_round_trip():
    geom = model.ArrayGeometry(rx_positions_m=((0.0, 0.0, 0.0),),
                               tx_wideband_position_m=(0.0, 0.0, 0.0),
                               tx_ism_position_m=(0.0, 0.0, 0.0))
    plan = model.CarrierPlan(carriers_hz=(750e6,), tone_phases_rad=(0.0,),
                             per_tone_power_dbm=-15.0, capture_rate_hz=15.36e6,
                             channel_out_rate_hz=2.56e6, capture_center_hz=750e6,
                             tone_offsets_hz=(0.0,))
    phase = cs.theoretical_phase((0.0, 0.05, 0.0), 0, 0, geom, plan)
    assert phase == pytest.approx(0.5 * math.pi, rel=1e-2)


def test_phase_against_scalar_recomputation(geom, plan):
    # independent oracle: plain math module arithmetic on the documented
    # geometry, checked once and frozen
    d_tx = math.sqrt(4.0 ** 2 + 0.40 ** 2)
    d_rx = math.sqrt(0.7875 ** 2 + 4.0 ** 2)
    theta = 2.0 * math.pi * 787.1e6 / C * (d_tx + d_rx)
    expected = math.atan2(math.sin(theta), math.cos(theta))
    got = cs.theoretical_phase((0.0, 4.0, 1.11), 0, 0, geom, plan)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(1.620021043867, abs=1e-6)


def test_phase_argument_errors(geom, plan):
    with pytest.raises(ModelError):
        cs.theoretical_phase((0.0, 4.0, 1.11), 99, 0, geom, plan)
    with pytest.raises(ModelError):
        cs.theoretical_phase((0.0, 4.0, 1.11), 0, 99, geom, plan)
    with pytest.raises(ModelError):
        cs.theoretical_phase((np.nan, 4.0, 1.11), 0, 0, geom, plan)


def test_phase_wavelength_periodicity(geom, plan):
    # adding whole wavelengths to the round trip leaves the phase unchanged
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = (rng.uniform(-1, 1), rng.uniform(1, 5), rng.uniform(0.5, 1.5))
        k = int(rng.integers(0, geom.n_antennas))
        l = int(rng.integers(0, plan.n_carriers))
        lam = C / plan.carriers_hz[l]
        base = cs.theoretical_phase(g, k, l, geom, plan)
        d0 = (np.linalg.norm(np.array(g) - geom.tx_wideband_position_m)
              + np.linalg.norm(np.array(geom.rx_positions_m[k]) - np.array(g)))
        for n in range(1, 9):
            shifted = wrap_phase(2 * math.pi * plan.carriers_hz[l] / C * (d0 + n * lam))
            assert float(shifted) == pytest.approx(base, abs=1e-6)


# --- synth_channel -----------------------------------------------------------

def _tag(position, paths):
    return TagDef(epc_bits=(0, 1) * 48, position_m=position, paths=paths)


def test_single_direct_path_unit_gain(geom, plan):
    scene = Scene(tags=(_tag((0.3, 3.0, 1.11), (PropagationPath(gain=1.0, direct=True),)),))
    h = cs.synth_channel(scene, geom, plan, 0)
    assert np.allclose(np.abs(h.h), 1.0, atol=1e-12)


def test_single_path_angle_is_negative_phase(geom, plan):
    pos = (0.3, 3.0, 1.11)
    scene = Scene(tags=(_tag(pos, (PropagationPath(gain=1.0, direct=True),)),))
    h = cs.synth_channel(scene, geom, plan, 0)
    for k in (0, 3, 7):
        for l in (0, 9, 15):
            theta = cs.theoretical_phase(pos, k, l, geom, plan)
            assert np.angle(h.h[k, l]) == pytest.approx(wrap_phase(-theta), abs=1e-9)


def test_two_path_brute_force_sum(geom, plan):
    pos = (0.3, 3.0, 1.11)
    paths = (PropagationPath(gain=1.0, direct=True),
             PropagationPath(gain=0.5, total_length_m=4.2))
    scene = Scene(tags=(_tag(pos, paths),))
    h = cs.synth_channel(scene, geom, plan, 0)
    # brute-force per-path summation with the math module only
    for k in range(geom.n_antennas):
        for l in range(plan.n_carriers):
            total = 0.0 + 0.0j
            for p in paths:
                d = path_length_m(p, pos, geom, k)
                arg = -2.0 * math.pi * plan.carriers_hz[l] * d / C
                total += p.gain * complex(math.cos(arg), math.sin(arg))
            assert h.h[k, l] == pytest.approx(total, abs=1e-12)


def test_synth_channel_errors(geom, plan):
    scene = Scene(tags=(_tag((0.3, 3.0, 1.11), (PropagationPath(gain=1.0, direct=True),)),))
    with pytest.raises(ModelError):
        cs.synth_channel(scene, geom, plan, 5)
    with pytest.raises(ModelError):
        TagDef(epc_bits=(0,) * 96, position_m=(0, 1, 1), paths=())


@pytest.mark.parametrize("field,shape", [("mask", (16, 8)), ("mask", (16,)),
                                         ("quality", (16, 8)), ("quality", (5,))])
def test_channel_matrix_rejects_mis_shaped_mask_and_quality(geom, plan, field, shape):
    h = np.ones((geom.n_antennas, plan.n_carriers), dtype=complex)
    with pytest.raises(ModelError, match=f"{field} must be K x L"):
        cs.ChannelMatrix(h=h, carriers_hz=plan.carriers_hz, geometry=geom,
                         **{field: np.ones(shape)})


def test_channel_matrix_mask_is_bool(geom, plan):
    h = np.ones((geom.n_antennas, plan.n_carriers), dtype=complex)
    mask = np.ones(h.shape, dtype=int)
    mask[2, 3] = 0
    ch = cs.ChannelMatrix(h=h, carriers_hz=plan.carriers_hz, geometry=geom, mask=mask)
    assert ch.mask.dtype == bool
    assert np.array_equal(~ch.mask, mask == 0)


# --- analytic formulas -------------------------------------------------------

def test_thermal_noise_reference_values():
    assert cs.thermal_noise_dbm(250e3) == pytest.approx(-120.0, abs=0.05)
    assert cs.thermal_noise_dbm(200e6) == pytest.approx(-91.0, abs=0.05)
    assert cs.thermal_noise_dbm(1.0) == pytest.approx(-174.0, abs=1e-12)
    with pytest.raises(ModelError):
        cs.thermal_noise_dbm(0.0)


def test_thermal_noise_bandwidth_gap_exact():
    gap = cs.thermal_noise_dbm(200e6) - cs.thermal_noise_dbm(250e3)
    assert gap == pytest.approx(10 * math.log10(800), abs=1e-9)
    assert gap == pytest.approx(29.03, abs=5e-3)


def test_distance_resolution():
    assert cs.distance_resolution(200e6) == pytest.approx(0.75, rel=1e-2)
    assert cs.distance_resolution(50e6) == pytest.approx(3.0, rel=1e-2)
    assert cs.distance_resolution(150e6) == pytest.approx(1.0, rel=1e-2)
    bws = np.linspace(10e6, 400e6, 40)
    res = [cs.distance_resolution(b) for b in bws]
    assert all(a > b for a, b in zip(res, res[1:]))
    with pytest.raises(ModelError):
        cs.distance_resolution(-1.0)


def test_fraunhofer_distance():
    assert cs.fraunhofer_distance(1.0, 0.3) == pytest.approx(6.7, rel=1e-2)
    with pytest.raises(ModelError):
        cs.fraunhofer_distance(0.0, 0.3)
    # independent recomputation for the array-span aperture
    assert cs.fraunhofer_distance(1.73, 0.328) == pytest.approx(2 * 1.73 ** 2 / 0.328,
                                                                abs=1e-12)


# --- emission validation -----------------------------------------------------

def test_emission_default_plan_passes(plan):
    report = cs.validate_emission(plan)
    assert report.passed
    assert len(report.tones) == 16


def test_emission_power_violation_identified():
    plan = default_carrier_plan()
    hot = CarrierPlan(**{**plan_to_dict(plan), "per_tone_power_dbm": -15.0})
    report = cs.validate_emission(hot, limit_dbm=-20.0)
    assert not report.passed
    assert all(not t.power_ok for t in report.tones)


def test_emission_exclusion_band():
    plan = model.uniform_carrier_plan(4, span_hz=60e6, center_hz=915e6)
    report = cs.validate_emission(plan)
    assert not report.passed
    flagged = [t for t in report.tones if t.in_exclusion_band]
    assert flagged and all(902e6 <= t.carrier_hz <= 928e6 for t in flagged)


# --- serialization -----------------------------------------------------------

def test_config_round_trip_bit_identical(tmp_path, geom, plan):
    scene = Scene(tags=(_tag((0.3, 3.0, 1.11), (PropagationPath(gain=1.0, direct=True),)),),
                  ambient_noise_dbm_per_hz=-174.0, seed=42)
    path = tmp_path / "setup.json"
    model.save_config(path, plan=plan, geom=geom, scene=scene)
    doc = model.load_config(path)
    assert doc["plan"] == plan
    assert doc["geometry"] == geom
    assert doc["scene"] == scene
    # a second dump is byte-identical
    path2 = tmp_path / "setup2.json"
    model.save_config(path2, plan=doc["plan"], geom=doc["geometry"], scene=doc["scene"])
    assert path.read_bytes() == path2.read_bytes()


def test_subset_plan_and_geometry(plan, geom):
    sub = model.subset_plan(plan, [0, 1, 2])
    assert sub.carriers_hz == plan.carriers_hz[:3]
    g2 = model.subset_geometry(geom, 2)
    assert g2.n_antennas == 2
    xs = [p[0] for p in g2.rx_positions_m]
    assert xs == sorted(xs)
    assert max(abs(x) for x in xs) == pytest.approx(0.1575)
