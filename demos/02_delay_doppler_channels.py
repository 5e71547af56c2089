"""Doubly-dispersive block channels and the three waveforms on top of them.

Each path of a sampled delay-Doppler channel acts on a frame as a cyclic
delay shift whose output samples are scaled by a unit-modulus ramp (the
Doppler phase times the prefix phase), all times a rank-one spatial outer
product of the two array responses.  The script shows each path's tap and
ramp from the channel record, assembles the block channel, and then
compares the effective channels seen by OFDM, OTFS, and AFDM: their
singular values coincide, so the log-det achievable rate is identical.

Run:  python demos/02_delay_doppler_channels.py
"""

import numpy as np

from fimsim import (ChannelFactors, ScenarioParams, achievable_rate,
                    assemble_effective_td, cp_phase_function, domain_transform,
                    effective_channel, random_scenario, random_surface,
                    waveform_for)

params = ScenarioParams(block_length=16, num_paths=2)
scenario = random_scenario(params, 1)
print(f"scenario: N={scenario.block_length}, paths={scenario.num_paths}, "
      f"streams={scenario.num_streams}")
for i, p in enumerate(scenario.paths):
    print(f"  path {i}: tap={p.delay_taps(scenario.sampling_rate_hz)}, "
          f"doppler={p.doppler_hz / 1e3:+.2f} kHz, "
          f"aoa=({np.rad2deg(p.angles_in.azimuth):+.1f}, "
          f"{np.rad2deg(p.angles_in.elevation):.1f}) deg")

y_t = random_surface(scenario.tx_geometry, 2)
y_r = random_surface(scenario.rx_geometry, 3)

# each path's time response is monomial: sample k of the output is
# ramp[k] times input sample (k - tap) mod N, with |ramp[k]| = 1
record = ChannelFactors(scenario)
for i, (tap, ramp) in enumerate(zip(record.taps, record.ramps)):
    defect = np.max(np.abs(np.abs(ramp) - 1.0))
    print(f"path {i} time response: tap={tap}, "
          f"ramp phase step={np.angle(ramp[1] / ramp[0]):+.4f} rad, "
          f"unit-modulus defect: {defect:.2e}")

h_td = assemble_effective_td(scenario, y_t, y_r)
print(f"\nblock channel shape: {h_td.shape}, power tr(HH^H) = "
      f"{np.linalg.norm(h_td) ** 2:.2f}")

noise_var = 0.05
print(f"\nachievable rate at noise variance {noise_var}:")
for name in ("ofdm", "otfs", "afdm"):
    spec = waveform_for(name, scenario)
    h_eff = effective_channel(spec, scenario, y_t, y_r)
    rate = achievable_rate(h_eff, noise_var)
    # sanity: the effective channel is the transform-conjugated block channel
    w = domain_transform(spec)
    big_w = np.kron(np.eye(scenario.num_streams), w)
    h_via = big_w @ assemble_effective_td(scenario, y_t, y_r,
                                          cp_phase_function(spec)) @ big_w.conj().T
    assert np.max(np.abs(h_eff - h_via)) < 1e-10
    print(f"  {name:4s}: {rate:8.3f} bits per frame")

print("\nthe three rates agree: unitary transforms cannot change the "
      "singular values of the same physical channel")
