"""Bistatic 2D angle estimation from received frames via subspace scanning.

The receiver sees one frame of stacked per-stream samples, forms the
stream-by-stream covariance, splits off the noise subspace, and scans the
receive-array steering manifold over an azimuth/elevation grid: the
pseudo-spectrum is the reciprocal of the projection of each candidate
steering vector onto the noise subspace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import FimGeometry, steering_matrix

__all__ = [
    "MusicGrid",
    "default_grid",
    "unvec_frame",
    "rx_covariance",
    "noise_subspace",
    "music_spectrum",
    "extract_peaks",
]

DENOMINATOR_FLOOR = 1e-12


@dataclass
class MusicGrid:
    """Pseudo-spectrum samples over a rectangular angle grid.

    ``values[i, j]`` belongs to ``(azimuth_rad[i], elevation_rad[j])`` and
    is normalized so the global maximum equals one.  ``peaks`` holds
    extracted (azimuth, elevation) estimates in radians.
    """

    azimuth_rad: np.ndarray
    elevation_rad: np.ndarray
    values: np.ndarray
    peaks: list = field(default_factory=list)


def default_grid(step_deg: float = 1.0):
    """Full-range scan grid: azimuth -90..90 deg, elevation 0..180 deg."""
    if step_deg <= 0.0:
        raise ValueError("grid step must be positive")
    azimuth = np.deg2rad(np.arange(-90.0, 90.0 + step_deg / 2, step_deg))
    elevation = np.deg2rad(np.arange(0.0, 180.0 + step_deg / 2, step_deg))
    return azimuth, elevation


def unvec_frame(y_bar, block_length: int, num_streams: int) -> np.ndarray:
    """Unstack a received frame into a (num_streams, block_length) matrix.

    The stacked vector holds the streams back to back; row v of the
    result is stream v's sample sequence.
    """
    y = np.asarray(y_bar)
    if y.shape != (block_length * num_streams,):
        raise ValueError(
            f"frame has shape {y.shape}, expected ({block_length * num_streams},)")
    return y.reshape(block_length, num_streams, order="F").T


def rx_covariance(y_mat) -> np.ndarray:
    """Single-frame stream covariance Y Y^H (Hermitian PSD)."""
    y = np.asarray(y_mat)
    return y @ y.conj().T


def noise_subspace(r, num_sources: int) -> np.ndarray:
    """Orthonormal eigenvectors of the smallest d_s - P covariance eigenvalues."""
    r = np.asarray(r)
    d = r.shape[0]
    if not 1 <= num_sources < d:
        raise ValueError(f"source count {num_sources} must satisfy 1 <= P < {d}")
    _, vecs = np.linalg.eigh(r)
    return vecs[:, :d - num_sources]


def music_spectrum(noise_basis, rx_geom: FimGeometry, rx_surface,
                   azimuth=None, elevation=None) -> MusicGrid:
    """Scan the steering manifold against the noise subspace.

    The raw value at each grid point is 1 / max(||U^H b||^2, floor) with b
    the steering vector there; values are then normalized to peak one.
    The basis rows are the receive streams, which the channel's identity
    stream selection maps to the first d_s receive elements, so b keeps
    those entries (all of them when d_s equals the element count).
    """
    if azimuth is None or elevation is None:
        default_az, default_el = default_grid()
        azimuth = default_az if azimuth is None else azimuth
        elevation = default_el if elevation is None else elevation
    azimuth = np.sort(np.asarray(azimuth, dtype=float))
    elevation = np.sort(np.asarray(elevation, dtype=float))
    if azimuth.size == 0 or elevation.size == 0:
        raise ValueError("scan grid must be non-empty")
    basis = np.asarray(noise_basis)
    if not 1 <= basis.shape[0] <= rx_geom.num_elements:
        raise ValueError(f"noise basis has {basis.shape[0]} rows, expected 1 to "
                         f"{rx_geom.num_elements} (one per receive stream)")

    az_mesh, el_mesh = np.meshgrid(azimuth, elevation, indexing="ij")
    steering = steering_matrix(rx_geom, rx_surface, az_mesh.ravel(),
                               el_mesh.ravel())[:basis.shape[0]]
    denom = np.sum(np.abs(basis.conj().T @ steering) ** 2, axis=0)
    values = 1.0 / np.maximum(denom, DENOMINATOR_FLOOR)
    values = values.reshape(azimuth.size, elevation.size)
    values = values / values.max()
    return MusicGrid(azimuth_rad=azimuth, elevation_rad=elevation, values=values)


def extract_peaks(grid: MusicGrid, num_peaks: int) -> list:
    """The strongest strict local maxima of the grid, as angle pairs.

    A point qualifies when it strictly exceeds all existing 8-neighbors.
    Candidates are ranked by value, ties resolved by lexicographic angle
    order.  Returns fewer than ``num_peaks`` pairs (with a warning) when
    the grid does not carry that many local maxima.
    """
    if num_peaks < 1:
        raise ValueError("num_peaks must be >= 1")
    v = grid.values
    padded = np.full((v.shape[0] + 2, v.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = v
    mask = np.ones(v.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mask &= v > padded[1 + di:v.shape[0] + 1 + di, 1 + dj:v.shape[1] + 1 + dj]
    idx = np.argwhere(mask)
    order = sorted(
        (( -v[i, j], grid.azimuth_rad[i], grid.elevation_rad[j]) for i, j in idx))
    peaks = [(az, el) for _, az, el in order[:num_peaks]]
    if len(peaks) < num_peaks:
        warnings.warn(
            f"found {len(peaks)} local maxima, {num_peaks} requested", stacklevel=2)
    return peaks
