"""Doubly-dispersive MIMO simulation with morphable planar arrays.

The library builds sampled delay-Doppler MIMO channels whose transmit and
receive arrays can morph their surface shapes, derives the effective
block channels of three delay-Doppler waveforms (OFDM, OTFS, AFDM),
optimizes the surface shapes for achievable rate under a sensing-power
floor via projected gradient ascent with closed-form gradients, and
estimates scatterer angles at the receiver with a 2D subspace scan.
"""

from ._version import __version__
from .channel import (SPEED_OF_LIGHT, ChannelFactors, ChannelScenario,
                      PropagationPath, ScenarioParams, assemble_effective_td,
                      random_scenario)
from .geometry import (FimGeometry, PathAngles, element_positions,
                       project_surface, random_surface, steering_matrix,
                       steering_vector, validate_surface)
from .harness import (ExperimentConfig, MusicResult, OptimizeOnceResult,
                      RateSweepResult, config_from_file, emit_results,
                      parse_config_file, run_music_experiment,
                      run_optimize_once, run_rate_sweep)
from .music import (MusicGrid, default_grid, extract_peaks, music_spectrum,
                    noise_subspace, rx_covariance, unvec_frame)
from .optimizer import (OptimizerConfig, OptimizerResult, achievable_rate,
                        channel_power, objective_gradient, optimize,
                        penalized_objective, sensing_slack)
from .waveforms import (AFDM, OFDM, OTFS, afdm_c1, cp_phase_function,
                        default_afdm, default_otfs, demodulate, dft_matrix,
                        domain_transform, effective_channel, modulate,
                        random_frame, transmit_receive, waveform_factors,
                        waveform_for)

__all__ = [name for name in dir() if not name.startswith("_")]
