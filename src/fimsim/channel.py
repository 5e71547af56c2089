"""Sampled doubly-dispersive MIMO channel with morphable arrays at both ends.

Each propagation path contributes a rank-one spatial outer product (from
the transmit/receive steering vectors) and an N x N unitary time response:
a cyclic delay shift whose rows are scaled by a Doppler phase ramp and, on
the wrapped samples, by a prefix phase.  That response is monomial (one
entry per row), so it is stored as a delay tap and one length-N ramp.
The time-domain block transfer matrix over one frame is the sum of
Kronecker products of the two.  ``ChannelFactors`` holds everything about
a scenario's paths that the surface shapes leave fixed, and is the one
place that sum is formed; a waveform enters it only through its prefix
phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import FimGeometry, PathAngles, steering_matrix, validate_surface

__all__ = [
    "SPEED_OF_LIGHT",
    "PropagationPath",
    "ChannelScenario",
    "ScenarioParams",
    "ChannelFactors",
    "assemble_effective_td",
    "random_scenario",
]

SPEED_OF_LIGHT = 3.0e8  # m/s


@dataclass(frozen=True)
class PropagationPath:
    """One scatterer: complex gain, delay, Doppler shift, and its angles."""

    gain: complex
    delay_s: float
    doppler_hz: float
    angles_in: PathAngles    # arrival at the receive array
    angles_out: PathAngles   # departure from the transmit array

    def __post_init__(self):
        if self.delay_s < 0.0:
            raise ValueError("path delay must be nonnegative")

    def delay_taps(self, sampling_rate_hz: float) -> int:
        """Delay quantized to the nearest whole sample."""
        return int(round(self.delay_s * sampling_rate_hz))

    def normalized_doppler(self, block_length: int, sampling_rate_hz: float) -> float:
        """Doppler as cycles per frame (fractional values allowed)."""
        return block_length * self.doppler_hz / sampling_rate_hz


@dataclass(frozen=True)
class ChannelScenario:
    """Everything needed to assemble the block transfer matrix."""

    paths: tuple
    block_length: int         # samples per frame (N)
    sampling_rate_hz: float
    cp_length: int            # prefix length in samples, bounds the delay taps
    tx_geometry: FimGeometry
    rx_geometry: FimGeometry
    max_doppler_hz: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if len(self.paths) < 1:
            raise ValueError("scenario needs at least one path")
        if self.block_length < 1 or self.sampling_rate_hz <= 0.0:
            raise ValueError("block length and sampling rate must be positive")
        if self.cp_length < 0:
            raise ValueError("prefix length must be nonnegative")
        for p in self.paths:
            tap = p.delay_taps(self.sampling_rate_hz)
            if tap > self.cp_length:
                raise ValueError(f"delay tap {tap} exceeds prefix length {self.cp_length}")
            if tap >= self.block_length:
                raise ValueError(f"delay tap {tap} must be below the block length")

    @property
    def num_streams(self) -> int:
        return min(self.tx_geometry.num_elements, self.rx_geometry.num_elements)

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    def doppler_bound_hz(self) -> float:
        """Doppler magnitude bound: the stated one, else the largest path's."""
        if self.max_doppler_hz is not None:
            return self.max_doppler_hz
        return max(abs(p.doppler_hz) for p in self.paths)


class ChannelFactors:
    """Surface-independent per-path factors of one scenario's time-domain
    block channel.

    Path p contributes ``kron(weight_p * outer(a_r,p, conj(a_t,p)), T_p)``
    with ``weight_p = sqrt(N_t * N_r / P) * gain_p``, ``a_t,p`` and
    ``a_r,p`` the first d_s entries of the transmit and receive steering
    vectors (identity-selection beamformers keep the first d_s elements),
    and ``T_p`` the path's N x N time response.  ``T_p`` is monomial: row k
    holds the single entry ``T_p[k, columns[p, k]] = ramps[p, k]`` with
    ``columns[p, k] = (k - taps[p]) mod N``, and ``ramps[p]`` is the Doppler
    ramp exp(-j 2 pi f_p k / N) times, on its first ``taps[p]`` entries,
    the prefix phase exp(-j 2 pi phase_fn(m)) for m = taps[p], ..., 1.  A
    waveform enters only through ``phase_fn``; its unitary transform W
    leaves the rate, the channel power and the shape gradient unchanged,
    so the record holds no W.  Only the steering entries depend on the
    surface shapes, so a record is built once per scenario and prefix
    phase and evaluated at any shapes: it caches each entry's fixed x/z
    lattice phase (``lattice_tx``, ``lattice_rx``), which ``steering``
    multiplies by exp(slope * y).  ``pair_blocks`` gives the shape-free
    blocks the optimizer's path-space route works with.
    """

    def __init__(self, scenario: ChannelScenario, phase_fn=None):
        paths = scenario.paths
        tx, rx = scenario.tx_geometry, scenario.rx_geometry
        n, fs, d = scenario.block_length, scenario.sampling_rate_hz, scenario.num_streams
        self.scenario = scenario
        self.weights = (np.sqrt(tx.num_elements * rx.num_elements / scenario.num_paths)
                        * np.array([p.gain for p in paths]))
        az_out = np.array([p.angles_out.azimuth for p in paths])
        el_out = np.array([p.angles_out.elevation for p in paths])
        az_in = np.array([p.angles_in.azimuth for p in paths])
        el_in = np.array([p.angles_in.elevation for p in paths])
        # d(steering entry b)/d(y_b) = slope * (steering entry b), per path
        self.slope_tx = (1j * (2.0 * np.pi / tx.wavelength)
                         * np.sin(az_out) * np.sin(el_out))
        self.slope_rx = (1j * (2.0 * np.pi / rx.wavelength)
                         * np.sin(az_in) * np.sin(el_in))
        # the first d_s steering entries at y = 0: each element's fixed x/z
        # phase per path, times 1/sqrt(B)
        self.lattice_tx = steering_matrix(tx, tx.flat_surface(), az_out, el_out)[:d]
        self.lattice_rx = steering_matrix(rx, rx.flat_surface(), az_in, el_in)[:d]
        k = np.arange(n)
        self.taps = np.array([p.delay_taps(fs) for p in paths])
        self.columns = (k - self.taps[:, None]) % n
        self.ramps = np.array([np.exp(-2j * np.pi * p.normalized_doppler(n, fs) * k / n)
                               for p in paths])
        if phase_fn is not None:
            for ramp, tap in zip(self.ramps, self.taps):
                phases = np.array([phase_fn(tap - i) for i in range(tap)], dtype=float)
                ramp[:tap] *= np.exp(-2j * np.pi * phases)

    def steering(self, tx_surface, rx_surface):
        """First d_s steering entries of every path as (d_s, P) columns,
        transmit then receive: the lattice phase times exp(slope * y).
        Surfaces are not validated here; ``matrix`` and the optimizer's
        public entry points check them."""
        d = self.scenario.num_streams
        a_t = self.lattice_tx * np.exp(np.outer(tx_surface[:d], self.slope_tx))
        a_r = self.lattice_rx * np.exp(np.outer(rx_surface[:d], self.slope_rx))
        return a_t, a_r

    def pair_blocks(self) -> np.ndarray:
        """Shape-free path-pair blocks ``D_pq = conj(w_p) w_q T_p^H T_q`` as
        a (P, N, P, N) array.

        ``T_p^H T_q`` is monomial: row i holds ``conj(ramps[p, k]) *
        ramps[q, k]`` at column ``columns[q, k]``, where k = (i + taps[p])
        mod N is the row of ``T_p`` whose entry sits in column i.
        """
        n, path = self.scenario.block_length, np.arange(self.scenario.num_paths)
        rows = (np.arange(n) + self.taps[:, None]) % n          # rows[p, i]
        ramp_at = self.ramps[:, rows].transpose(1, 0, 2)         # ramps[q, rows[p, i]]
        own = ramp_at[path, path]                                # ramps[p, rows[p, i]]
        values = (self.weights.conj()[:, None, None] * self.weights[None, :, None]
                  * own.conj()[:, None, :] * ramp_at)
        out = np.zeros((path.size, n, path.size, n), dtype=complex)
        out[path[:, None, None], np.arange(n), path[None, :, None],
            self.columns[:, rows].transpose(1, 0, 2)] = values
        return out

    def matrix(self, tx_surface, rx_surface) -> np.ndarray:
        """Block channel at the given shapes: sum_p kron(spatial_p, T_p).

        Shape is (N * d_s, N * d_s) with the per-stream sample blocks laid
        out stream-major, matching the stacked transmit/receive vectors.
        Each path adds ``ramps[p, k] * spatial_p`` at sample rows k and
        columns ``columns[p, k]`` of every stream block.
        """
        sc = self.scenario
        tx_surface = validate_surface(sc.tx_geometry, tx_surface)
        rx_surface = validate_surface(sc.rx_geometry, rx_surface)
        a_t, a_r = self.steering(tx_surface, rx_surface)
        n, d = sc.block_length, sc.num_streams
        rows = np.arange(n)
        out = np.zeros((d, n, d, n), dtype=complex)
        for p, (cols, ramp) in enumerate(zip(self.columns, self.ramps)):
            spatial = self.weights[p] * np.outer(a_r[:, p], a_t[:, p].conj())
            out[:, rows, :, cols] += ramp[:, None, None] * spatial
        return out.reshape(d * n, d * n)


def assemble_effective_td(scenario: ChannelScenario, tx_surface, rx_surface,
                          phase_fn=None) -> np.ndarray:
    """Time-domain block transfer matrix of the frame (see
    ``ChannelFactors.matrix``)."""
    return ChannelFactors(scenario, phase_fn).matrix(tx_surface, rx_surface)


@dataclass(frozen=True)
class ScenarioParams:
    """Random-scenario generator configuration with the defaults used
    throughout the experiments (28 GHz carrier, 20 MHz sampling, 2x2
    arrays at both ends, morphing range of one wavelength each way)."""

    carrier_frequency_hz: float = 28e9
    sampling_rate_hz: float = 20e6
    block_length: int = 16
    num_paths: int = 2
    tx_elements_x: int = 2
    tx_elements_z: int = 2
    rx_elements_x: int = 2
    rx_elements_z: int = 2
    max_range_m: float = 120.0
    max_velocity_mps: float = 208.0
    y_min_m: float | None = None        # default: -wavelength
    y_max_m: float | None = None        # default: +wavelength

    def __post_init__(self):
        # every float field, a subclass's included (an unset optional is None)
        for field in fields(self):
            value = getattr(self, field.name)
            if "float" in field.type and value is not None and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if self.carrier_frequency_hz <= 0 or self.sampling_rate_hz <= 0:
            raise ValueError("frequencies must be positive")
        if self.block_length < 1 or self.num_paths < 1:
            raise ValueError("block length and path count must be >= 1")
        if min(self.tx_elements_x, self.tx_elements_z,
               self.rx_elements_x, self.rx_elements_z) < 1:
            raise ValueError("element counts must be >= 1")
        if self.max_range_m < 0 or self.max_velocity_mps < 0:
            raise ValueError("range and velocity bounds must be nonnegative")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def num_streams(self) -> int:
        return min(self.tx_elements_x * self.tx_elements_z,
                   self.rx_elements_x * self.rx_elements_z)

    @property
    def max_delay_s(self) -> float:
        return self.max_range_m / SPEED_OF_LIGHT

    @property
    def max_doppler_hz(self) -> float:
        return self.max_velocity_mps * self.carrier_frequency_hz / SPEED_OF_LIGHT

    @property
    def max_delay_taps(self) -> int:
        return int(round(self.max_delay_s * self.sampling_rate_hz))

    def _geometry(self, nx: int, nz: int) -> FimGeometry:
        lam = self.wavelength
        y_min = self.y_min_m if self.y_min_m is not None else -lam
        y_max = self.y_max_m if self.y_max_m is not None else lam
        return FimGeometry.half_spaced(nx, nz, lam, y_min, y_max)

    def tx_geometry(self) -> FimGeometry:
        return self._geometry(self.tx_elements_x, self.tx_elements_z)

    def rx_geometry(self) -> FimGeometry:
        return self._geometry(self.rx_elements_x, self.rx_elements_z)


def random_scenario(params: ScenarioParams, rng) -> ChannelScenario:
    """Draw a scenario: unit-variance complex Gaussian gains, uniform delays
    on [0, max_delay], uniform Dopplers on +-max_doppler, uniform angles."""
    rng = np.random.default_rng(rng)
    p = params.num_paths
    gains = (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / np.sqrt(2.0)
    delays = rng.uniform(0.0, params.max_delay_s, p)
    dopplers = rng.uniform(-params.max_doppler_hz, params.max_doppler_hz, p)
    az_in = rng.uniform(-np.pi / 2, np.pi / 2, p)
    el_in = rng.uniform(0.0, np.pi, p)
    az_out = rng.uniform(-np.pi / 2, np.pi / 2, p)
    el_out = rng.uniform(0.0, np.pi, p)
    paths = tuple(
        PropagationPath(gain=complex(gains[i]), delay_s=float(delays[i]),
                        doppler_hz=float(dopplers[i]),
                        angles_in=PathAngles(float(az_in[i]), float(el_in[i])),
                        angles_out=PathAngles(float(az_out[i]), float(el_out[i])))
        for i in range(p))
    return ChannelScenario(paths=paths,
                           block_length=params.block_length,
                           sampling_rate_hz=params.sampling_rate_hz,
                           cp_length=params.max_delay_taps,
                           tx_geometry=params.tx_geometry(),
                           rx_geometry=params.rx_geometry(),
                           max_doppler_hz=params.max_doppler_hz)
