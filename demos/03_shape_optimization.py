"""Gradient ascent on the surface shapes of both arrays.

The objective is the log-det achievable rate plus a clamped penalty that
keeps the total channel power above a sensing floor.  Gradients with
respect to each element's y coordinate are closed form, so every
iteration updates all transmit and receive elements at once, with an
Armijo backtracking step and a projection onto the morphing box.

Run:  python demos/03_shape_optimization.py
"""

import numpy as np

from fimsim import (OFDM, OptimizerConfig, ScenarioParams, achievable_rate,
                    effective_channel, optimize, random_scenario,
                    random_surface)

params = ScenarioParams(block_length=16, num_paths=2)
scenario = random_scenario(params, 5)
noise_var = 0.025
spec = OFDM(16)

flat_t = scenario.tx_geometry.flat_surface()
flat_r = scenario.rx_geometry.flat_surface()
rand_t = random_surface(scenario.tx_geometry, 11)
rand_r = random_surface(scenario.rx_geometry, 12)

rate_flat = achievable_rate(effective_channel(spec, scenario, flat_t, flat_r),
                            noise_var)
rate_rand = achievable_rate(effective_channel(spec, scenario, rand_t, rand_r),
                            noise_var)

config = OptimizerConfig(noise_var=noise_var, max_iters=60)
result = optimize(scenario, spec, config, init_tx=rand_t, init_rx=rand_r)
rate_opt = result.rate_trace[-1]

print(f"flat surfaces      : {rate_flat:8.3f} bits per frame")
print(f"random surfaces    : {rate_rand:8.3f} bits per frame")
print(f"optimized surfaces : {rate_opt:8.3f} bits per frame "
      f"({result.iterations_run} iterations, stop: {result.stop_reason})")

print("\nobjective trace (every 5th value):")
trace = result.objective_trace
for i in range(0, len(trace), 5):
    print(f"  iter {i:3d}: {trace[i]:.4f}")
assert np.all(np.diff(trace) >= 0), "accepted steps never decrease the objective"

lam = scenario.tx_geometry.wavelength
print("\noptimized shapes (fractions of a wavelength):")
print("  tx:", np.round(result.tx_surface / lam, 3))
print("  rx:", np.round(result.rx_surface / lam, 3))
print(f"sensing floor {result.psi:.2f}, final slack {result.slack_trace[-1]:.3f} "
      "(zero means the power floor is met)")
