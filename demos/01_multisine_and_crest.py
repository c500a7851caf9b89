#!/usr/bin/env python3
"""Walk through the excitation design: the 16-tone plan, why aligned phases
are hostile to the ADC, and how much the phase optimization buys."""

import chordsim as cs
from chordsim import validate_emission

plan = cs.default_carrier_plan()
print("carriers (MHz):", [f / 1e6 for f in plan.carriers_hz])
print("desk-scale capture rate: %.2f MHz, channel rate %.2f MHz"
      % (plan.capture_rate_hz / 1e6, plan.channel_out_rate_hz / 1e6))

report = validate_emission(plan)
print("\nemission check: %s (%d tones at %.1f dBm, ISM band avoided)"
      % ("pass" if report.passed else "FAIL", len(report.tones),
         plan.per_tone_power_dbm))

# aligned phases: every tone peaks together
wave0 = cs.synth_multisine(plan, 2e-3)
print("\naligned phases: crest factor %.2f (PAPR %.2f dB)"
      % (cs.crest_factor(wave0), cs.papr_db(wave0)))

# tuned phases push the peak down toward the RMS
phases = cs.optimize_tone_phases(plan.tone_offsets_hz)
tuned = cs.default_carrier_plan(tone_phases_rad=phases)
wave1 = cs.synth_multisine(tuned, 2e-3)
print("optimized phases: crest factor %.2f (PAPR %.2f dB)"
      % (cs.crest_factor(wave1), cs.papr_db(wave1)))

print("\nthermal noise in 200 MHz: %.1f dBm" % cs.thermal_noise_dbm(200e6))
print("thermal noise in one 250 kHz channel: %.1f dBm" % cs.thermal_noise_dbm(250e3))
print("-> narrowband sampling of the wide band buys %.1f dB of noise floor"
      % (cs.thermal_noise_dbm(200e6) - cs.thermal_noise_dbm(250e3)))
