"""Frame modulation schemes and their effective block channels.

Three unitary domain transforms are supported: plain DFT multicarrier
(OFDM), the delay-Doppler Zak arrangement (OTFS), and the chirp-based
affine DFT (AFDM).  Modulation applies the adjoint transform per stream,
demodulation applies the transform itself, and the effective channel of a
frame is the time-domain block channel conjugated by the transform.  The
transform is unitary, so the rate, the channel power and the shape
gradient see a waveform only through its prefix phase: ``waveform_factors``
builds the time-domain record with that phase.  Only two functions apply
W: ``effective_channel`` forms the dense symbol-domain channel (the
oracle of the tests and the demos), and ``transmit_receive`` modulates a
frame, passes it through the record path by path, and demodulates it,
never forming that channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelFactors, ChannelScenario
from .geometry import validate_surface

__all__ = [
    "OFDM",
    "OTFS",
    "AFDM",
    "dft_matrix",
    "domain_transform",
    "modulate",
    "demodulate",
    "cp_phase_function",
    "waveform_factors",
    "effective_channel",
    "afdm_c1",
    "default_otfs",
    "default_afdm",
    "waveform_for",
    "random_frame",
    "transmit_receive",
]


@dataclass(frozen=True)
class OFDM:
    block_length: int


@dataclass(frozen=True)
class OTFS:
    delay_bins: int     # rows of the delay-Doppler symbol grid
    doppler_bins: int   # columns

    @property
    def block_length(self) -> int:
        return self.delay_bins * self.doppler_bins


@dataclass(frozen=True)
class AFDM:
    block_length: int
    c1: float           # first chirp rate, tied to the Doppler spread
    c2: float = 0.0     # second chirp rate, free parameter

    def __post_init__(self):
        if self.c1 < 0.0:
            raise ValueError("c1 must be nonnegative")


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n-point DFT matrix."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def _chirp_diag(n: int, c: float) -> np.ndarray:
    return np.diag(np.exp(-2j * np.pi * c * np.arange(n) ** 2))


def domain_transform(spec) -> np.ndarray:
    """Unitary N x N demodulation matrix of the scheme."""
    if isinstance(spec, OFDM):
        return dft_matrix(spec.block_length)
    if isinstance(spec, OTFS):
        return np.kron(dft_matrix(spec.doppler_bins), np.eye(spec.delay_bins))
    if isinstance(spec, AFDM):
        n = spec.block_length
        return _chirp_diag(n, spec.c2) @ dft_matrix(n) @ _chirp_diag(n, spec.c1)
    raise TypeError(f"unknown waveform spec {spec!r}")


def modulate(spec, symbols) -> np.ndarray:
    """Map one stream's N symbols to time-domain samples (adjoint transform)."""
    x = np.asarray(symbols, dtype=complex)
    w = domain_transform(spec)
    if x.shape != (w.shape[0],):
        raise ValueError(f"expected {w.shape[0]} symbols, got {x.shape}")
    return w.conj().T @ x


def demodulate(spec, samples) -> np.ndarray:
    """Map one stream's received time-domain samples back to symbol domain."""
    r = np.asarray(samples, dtype=complex)
    w = domain_transform(spec)
    if r.shape != (w.shape[0],):
        raise ValueError(f"expected {w.shape[0]} samples, got {r.shape}")
    return w @ r


def cp_phase_function(spec):
    """Prefix phase of the scheme: None (phase-free cyclic prefix) except for
    AFDM, whose chirp-periodic prefix advances the chirp across the wrap.

    AFDM's phase is c1 (N^2 - 2 N m), m = tap, ..., 1, on the first tap
    received samples of a path, the ones its prefix supplies.  With the
    Doppler-matched ``afdm_c1``, 2 N c1 is an odd integer, so the phase is
    an integer (a plain cyclic prefix, the same channel as OFDM) only at
    even N; at odd N it is a half-odd integer and the prefix is
    anti-cyclic: the wrapped samples flip sign, and the rate departs from
    OFDM's."""
    if isinstance(spec, AFDM):
        n, c1 = spec.block_length, spec.c1
        return lambda m: c1 * (n * n - 2.0 * n * m)
    return None


def waveform_factors(spec, scenario: ChannelScenario) -> ChannelFactors:
    """Time-domain channel record of a scenario under a waveform: the
    block lengths must agree, and the scheme's prefix phase is applied."""
    if spec.block_length != scenario.block_length:
        raise ValueError("waveform and scenario block lengths differ")
    return ChannelFactors(scenario, cp_phase_function(spec))


def effective_channel(spec, scenario: ChannelScenario, tx_surface, rx_surface) -> np.ndarray:
    """Symbol-domain block channel: every N x N stream-pair block of the
    time-domain channel conjugated by the transform, W @ block @ W^H."""
    h = waveform_factors(spec, scenario).matrix(tx_surface, rx_surface)
    n, d = scenario.block_length, scenario.num_streams
    w = domain_transform(spec)
    blocks = h.reshape(d, n, d, n).transpose(0, 2, 1, 3)
    return (w @ blocks @ w.conj().T).transpose(0, 2, 1, 3).reshape(d * n, d * n)


def afdm_c1(scenario: ChannelScenario) -> float:
    """Doppler-matched first chirp rate: (2 * ceil(f_max) + 1) / (2 N) with
    f_max the per-frame normalized Doppler bound.

    The prefix of ``cp_phase_function`` is then cyclic only at even N; at
    odd N it is anti-cyclic, and AFDM's rate differs from OFDM's."""
    n = scenario.block_length
    f_max = n * scenario.doppler_bound_hz() / scenario.sampling_rate_hz
    return (2.0 * math.ceil(f_max) + 1.0) / (2.0 * n)


def default_otfs(block_length: int) -> OTFS:
    """Square delay-Doppler grid; requires a perfect-square frame length."""
    k = math.isqrt(block_length)
    if k * k != block_length:
        raise ValueError(
            f"block length {block_length} is not a perfect square; "
            "choose the grid shape explicitly")
    return OTFS(delay_bins=k, doppler_bins=k)


def default_afdm(scenario: ChannelScenario) -> AFDM:
    return AFDM(block_length=scenario.block_length, c1=afdm_c1(scenario), c2=0.0)


def waveform_for(name: str, scenario: ChannelScenario):
    """Build a waveform spec for a scenario from its lowercase name."""
    name = name.lower()
    if name == "ofdm":
        return OFDM(scenario.block_length)
    if name == "otfs":
        return default_otfs(scenario.block_length)
    if name == "afdm":
        return default_afdm(scenario)
    raise ValueError(f"unknown waveform {name!r}")


_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


def random_frame(block_length: int, num_streams: int, rng) -> np.ndarray:
    """Stacked per-stream symbols of one frame: N * d_s uniform unit-energy
    QPSK symbols."""
    rng = np.random.default_rng(rng)
    idx = rng.integers(0, 4, block_length * num_streams)
    return _QPSK[idx]


def transmit_receive(spec, scenario: ChannelScenario, tx_surface, rx_surface,
                     frame, noise_var: float, rng) -> np.ndarray:
    """Demodulated receive frame as a (d_s, N) matrix, row v holding stream
    v: ``effective_channel(...)`` times the stacked frame plus circularly
    symmetric Gaussian noise of variance ``noise_var`` (zero for a
    noise-free frame; the noise is drawn either way).

    The channel is applied path by path and never formed.  The streams
    are modulated together (X = S conj(W), row v the samples W^H s_v); path
    p sends the beam a_t,p^H X through its monomial time response and
    scales it by its weight; the receive array sums a_r,p times each path's
    samples; and the streams are demodulated together (Y = R W^T).  That
    costs O(P d_s N + d_s N^2) instead of the dense channel's (d_s N)^2
    memory, and agrees with the dense product up to rounding.
    """
    factors = waveform_factors(spec, scenario)   # block lengths must agree
    y_t = validate_surface(scenario.tx_geometry, tx_surface)
    y_r = validate_surface(scenario.rx_geometry, rx_surface)
    n, d = scenario.block_length, scenario.num_streams
    x = np.asarray(frame, dtype=complex)
    if x.shape != (d * n,):
        raise ValueError(f"frame length {x.shape} does not match {d} streams "
                         f"of {n} samples")
    if not noise_var >= 0.0:       # NaN included
        raise ValueError("noise variance must be nonnegative")
    rng = np.random.default_rng(rng)
    scale = np.sqrt(noise_var / 2.0)
    noise = scale * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))

    w = domain_transform(spec)
    a_t, a_r = factors.steering(y_t, y_r)
    beams = a_t.conj().T @ (x.reshape(d, n) @ w.conj())     # (P, N): a_t,p^H X
    # row k of T_p z picks z[columns[p, k]] and scales it by ramps[p, k]
    paths = (factors.weights[:, None] * factors.ramps
             * np.take_along_axis(beams, factors.columns, axis=1))
    return (a_r @ paths) @ w.T + noise.reshape(d, n)
