"""Bistatic 2D angle estimation from one received frame.

The receiver knows nothing about the transmitted symbols.  It takes the
received frame one row per stream, eigen-decomposes the stream covariance,
and scans the steering manifold of its own (morphed) array against the
noise subspace.  With optimized surfaces the two scatterers produce
sharp, correctly placed peaks; rigid flat surfaces suffer the mirror
ambiguity demonstrated in the first demo.

Run:  python demos/04_angle_sensing.py  [output directory, default demo_out]
"""

import sys

import numpy as np

from fimsim import ExperimentConfig, emit_results, run_music_experiment

out_dir = sys.argv[1] if len(sys.argv) > 1 else "demo_out"

config = ExperimentConfig(seed=0, optimizer_iters=60, music_grid_step_deg=1.0,
                          waveforms=("ofdm",), music_snr_db=None)  # noise-free
result = run_music_experiment(config)

print("true scatterer angles (azimuth, elevation) in degrees:")
for truth in result.metadata["true_angles_deg"]:
    print(f"  ({truth[0]:+7.2f}, {truth[1]:7.2f})")

for mode in config.fim_modes:
    print(f"\n{mode} surfaces:")
    for row in result.peaks:
        if row["fim_mode"] == mode:
            print(f"  scatterer {row['scatterer']}: estimated "
                  f"({row['est_azimuth_deg']:+7.2f}, {row['est_elevation_deg']:7.2f}), "
                  f"worst-axis error {row['error_deg']:6.2f} deg")

written = emit_results(result, out_dir)
print("\nspectra and peak tables written to:")
for path in written:
    print(" ", path)
print("each spectrum CSV holds azimuth_deg, elevation_deg, value_db rows "
      "normalized to a 0 dB global peak")
