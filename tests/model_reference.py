"""Reference models that only the tests use: an evenly spaced carrier plan and
the closed-form direct-path phase, against which the pipeline is checked."""

import math

import numpy as np

from chordsim.model import (C_M_PER_S, DEFAULT_CAPTURE_CENTER_HZ, DEFAULT_CHANNEL_OUT_RATE_HZ,
                            DESK_CAPTURE_RATE_HZ, DESK_OFFSET_SCALE, PER_TONE_LIMIT_DBM,
                            ArrayGeometry, CarrierPlan, ModelError, PropagationPath,
                            path_length_m, wrap_phase)


def uniform_carrier_plan(n_tones: int = 16,
                         span_hz: float = 199.8e6,
                         center_hz: float = DEFAULT_CAPTURE_CENTER_HZ) -> CarrierPlan:
    """Evenly spaced desk-scale variant, handy for resolution studies without
    the ISM gap."""
    if n_tones < 2:
        raise ModelError("need at least two tones")
    offsets = np.linspace(-span_hz / 2, span_hz / 2, n_tones)
    carriers = center_hz + offsets
    return CarrierPlan(
        carriers_hz=tuple(carriers),
        tone_phases_rad=(0.0,) * n_tones,
        per_tone_power_dbm=PER_TONE_LIMIT_DBM,
        capture_rate_hz=DESK_CAPTURE_RATE_HZ,
        channel_out_rate_hz=DEFAULT_CHANNEL_OUT_RATE_HZ,
        capture_center_hz=center_hz,
        tone_offsets_hz=tuple(offsets * DESK_OFFSET_SCALE),
    )


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
    d = path_length_m(PropagationPath(gain=1.0, direct=True), g, geom, antenna)
    theta = 2.0 * math.pi * plan.carriers_hz[carrier] / C_M_PER_S * d
    return float(wrap_phase(theta))
