"""Independent reference for the benchmark's output checks.

Nothing here calls fimsim's steering, assembly, transform, rate or scan
code.  The only coupling is the random draw: scenarios (and the random
surfaces of a rate sweep) are redrawn through the public
``fimsim.random_scenario`` and ``fimsim.random_surface`` from the same
``numpy.random.SeedSequence`` derivation that ``fimsim.harness`` uses in its
experiment drivers:

* ``rate-sweep``: trial ``t`` uses ``SeedSequence(seed).spawn(trials)[t]``,
  whose two spawned children seed the scenario and the surface generators;
* ``music`` and ``optimize-once``: ``SeedSequence(seed).spawn(k)[0]``.

If that derivation changes, the reference checks fail on correct code and
this module has to follow it.

The channel is built in the sample domain: stream ``v`` receives
``sum_p c_p a_r,p[v] conj(a_t,p[u]) exp(-j 2 pi f_p n / N) x_u[(n - l_p) mod N]``
with ``c_p = sqrt(N_t N_r / P) * gain_p``, ``l_p`` the delay in whole
samples and ``f_p`` the Doppler in cycles per frame.  Every waveform
applies a unitary transform per stream and, at even N, a phase-free
prefix, so its rate equals the rate of this channel.
"""

from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT = 3.0e8
DENOMINATOR_FLOOR = 1e-12


def scenario_params(config: dict):
    """``fimsim.ScenarioParams`` for a resolved config (``run_metadata.json``)."""
    from fimsim import ScenarioParams
    keys = ("carrier_frequency_hz", "sampling_rate_hz", "block_length", "num_paths",
            "tx_elements_x", "tx_elements_z", "rx_elements_x", "rx_elements_z",
            "max_range_m", "max_velocity_mps", "y_min_m", "y_max_m")
    return ScenarioParams(**{k: config[k] for k in keys})


def sweep_trial(config: dict, trial: int):
    """Scenario and random (tx, rx) surfaces of one rate-sweep trial."""
    from fimsim import random_scenario, random_surface
    seq = np.random.SeedSequence(config["seed"]).spawn(config["trials"])[trial]
    scen_rng, surf_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    scenario = random_scenario(scenario_params(config), scen_rng)
    return scenario, (random_surface(scenario.tx_geometry, surf_rng),
                      random_surface(scenario.rx_geometry, surf_rng))


def single_scenario(config: dict):
    from fimsim import random_scenario
    seq = np.random.SeedSequence(config["seed"]).spawn(1)[0]
    return random_scenario(scenario_params(config), np.random.default_rng(seq))


def morphing_bounds(config: dict):
    wavelength = SPEED_OF_LIGHT / config["carrier_frequency_hz"]
    lo = config["y_min_m"] if config["y_min_m"] is not None else -wavelength
    hi = config["y_max_m"] if config["y_max_m"] is not None else wavelength
    return lo, hi


def flat_surface(geom) -> np.ndarray:
    return np.zeros(geom.bx * geom.bz)


def noise_var(config: dict, snr_db: float) -> float:
    """The SNR definition recorded in ``run_metadata.json``."""
    n_t = config["tx_elements_x"] * config["tx_elements_z"]
    n_r = config["rx_elements_x"] * config["rx_elements_z"]
    n = config["block_length"]
    return (config["symbol_energy"] * n * min(n_t, n_r)
            / (10.0 ** (snr_db / 10.0) * n * n_t * n_r))


def steering(geom, surface, azimuth, elevation) -> np.ndarray:
    """(B, L) plane-wave responses of a planar array whose element b sits at
    x = dx (b mod bx), y = surface[b], z = dz (b div bx)."""
    b = np.arange(geom.bx * geom.bz)
    x, z = geom.dx * (b % geom.bx), geom.dz * (b // geom.bx)
    y = np.asarray(surface, dtype=float)
    az, el = np.atleast_1d(azimuth), np.atleast_1d(elevation)
    u, v, w = np.sin(el) * np.cos(az), np.sin(el) * np.sin(az), np.cos(el)
    phase = (2.0 * np.pi / geom.wavelength) * (
        x[:, None] * u + y[:, None] * v + z[:, None] * w)
    return np.exp(1j * phase) / np.sqrt(b.size)


def sample_channel(scenario, tx_surface, rx_surface) -> np.ndarray:
    """Stream-major (d_s N, d_s N) block channel of one frame."""
    n = scenario.block_length
    n_t = scenario.tx_geometry.bx * scenario.tx_geometry.bz
    n_r = scenario.rx_geometry.bx * scenario.rx_geometry.bz
    d = min(n_t, n_r)
    paths = scenario.paths
    h = np.zeros((d * n, d * n), dtype=complex)
    samples = np.arange(n)
    for p in paths:
        a_r = steering(scenario.rx_geometry, rx_surface,
                       p.angles_in.azimuth, p.angles_in.elevation)[:d, 0]
        a_t = steering(scenario.tx_geometry, tx_surface,
                       p.angles_out.azimuth, p.angles_out.elevation)[:d, 0]
        tap = int(round(p.delay_s * scenario.sampling_rate_hz))
        cycles = n * p.doppler_hz / scenario.sampling_rate_hz
        ramp = np.exp(-2j * np.pi * cycles * samples / n)
        coeff = np.sqrt(n_t * n_r / len(paths)) * p.gain
        for v in range(d):
            for u in range(d):
                h[v * n + samples, u * n + (samples - tap) % n] += (
                    coeff * a_r[v] * np.conj(a_t[u]) * ramp)
    return h


def power(h) -> float:
    """tr(H H^H)."""
    return float(np.vdot(h, h).real)


def gram_eigenvalues(h) -> np.ndarray:
    """Eigenvalues of H^H H, clipped at zero."""
    return np.clip(np.linalg.eigvalsh(h.conj().T @ h), 0.0, None)


def rate_bits(eigenvalues, sigma2: float) -> float:
    """log2 det(I + H H^H / sigma^2) from the eigenvalues of H^H H."""
    return float(np.sum(np.log2(1.0 + eigenvalues / sigma2)))


def true_rx_steering(scenario) -> np.ndarray:
    """(N_r, P) flat-array receive steering vectors of the true paths."""
    geom = scenario.rx_geometry
    return steering(geom, flat_surface(geom), [p.angles_in.azimuth for p in scenario.paths],
                    [p.angles_in.elevation for p in scenario.paths])


def music_spectrum_db(scenario, azimuth, elevation) -> np.ndarray:
    """Noise-free flat-array MUSIC spectrum in dB, peak 0 dB, on the
    (azimuth x elevation) grid: 1 / ||P_perp b||^2 with P_perp the projector
    onto the orthogonal complement of the true receive steering vectors."""
    q, _ = np.linalg.qr(true_rx_steering(scenario))
    az, el = np.meshgrid(azimuth, elevation, indexing="ij")
    b = steering(scenario.rx_geometry, flat_surface(scenario.rx_geometry),
                 az.ravel(), el.ravel())
    residual = b - q @ (q.conj().T @ b)
    denom = np.maximum(np.sum(np.abs(residual) ** 2, axis=0), DENOMINATOR_FLOOR)
    values = (1.0 / denom).reshape(az.shape)
    return 10.0 * np.log10(values / values.max())
