"""Morphable uniform planar array: element layout, shapes, and steering vectors.

The array sits parallel to the y axis: elements are laid out on a fixed
x/z lattice and each element may translate along y within a bounded
morphing range.  The per-element y coordinates form the surface shape
vector that the channel model and the shape optimizer treat as the
tunable parameter.  Shapes are plain 1-D float arrays of length
``geometry.num_elements``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FimGeometry",
    "PathAngles",
    "element_positions",
    "steering_vector",
    "steering_matrix",
    "project_surface",
    "random_surface",
    "validate_surface",
]


@dataclass(frozen=True)
class FimGeometry:
    """Physical layout of one morphable planar array.

    Attributes
    ----------
    bx, bz : int
        Element counts along the x and z axes (total ``bx * bz`` elements).
    dx, dz : float
        Element spacings in meters, usually half a wavelength.
    wavelength : float
        Carrier wavelength in meters.
    y_min, y_max : float
        Per-element morphing bounds in meters.  ``y_min == y_max``
        describes a rigid surface.
    """

    bx: int
    bz: int
    dx: float
    dz: float
    wavelength: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.bx < 1 or self.bz < 1:
            raise ValueError("element counts bx, bz must be >= 1")
        if self.dx <= 0.0 or self.dz <= 0.0:
            raise ValueError("element spacings dx, dz must be positive")
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.y_min > self.y_max:
            raise ValueError("y_min must not exceed y_max")

    @property
    def num_elements(self) -> int:
        return self.bx * self.bz

    @property
    def morphing_range(self) -> float:
        return self.y_max - self.y_min

    def flat_surface(self) -> np.ndarray:
        """Rigid baseline shape: every element at y = 0."""
        return np.zeros(self.num_elements)

    @classmethod
    def half_spaced(cls, bx: int, bz: int, wavelength: float,
                    y_min: float, y_max: float) -> "FimGeometry":
        """Geometry with the customary half-wavelength element spacing."""
        return cls(bx=bx, bz=bz, dx=wavelength / 2.0, dz=wavelength / 2.0,
                   wavelength=wavelength, y_min=y_min, y_max=y_max)


@dataclass(frozen=True)
class PathAngles:
    """Azimuth in [-pi/2, pi/2] and elevation in [0, pi], both in radians."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not -np.pi / 2 <= self.azimuth <= np.pi / 2:
            raise ValueError(f"azimuth {self.azimuth} outside [-pi/2, pi/2]")
        if not 0.0 <= self.elevation <= np.pi:
            raise ValueError(f"elevation {self.elevation} outside [0, pi]")


def validate_surface(geom: FimGeometry, surface, check_bounds: bool = False) -> np.ndarray:
    """Coerce a surface shape to a float vector and check it against ``geom``."""
    y = np.asarray(surface, dtype=float)
    if y.ndim != 1 or y.size != geom.num_elements:
        raise ValueError(
            f"surface has shape {y.shape}, expected ({geom.num_elements},)")
    if check_bounds and (np.any(y < geom.y_min - 1e-12)
                         or np.any(y > geom.y_max + 1e-12)):
        raise ValueError("surface violates the morphing bounds")
    return y


def element_positions(geom: FimGeometry, surface) -> np.ndarray:
    """3-D element positions as a ``(num_elements, 3)`` array of meters.

    Element ``b`` (0-based) sits at x = dx * (b mod bx), z = dz * (b // bx),
    with its y coordinate taken from the surface shape; element 0 is the
    lattice reference at x = z = 0.
    """
    y = validate_surface(geom, surface)
    b = np.arange(geom.num_elements)
    x = geom.dx * np.mod(b, geom.bx)
    z = geom.dz * (b // geom.bx)
    return np.column_stack([x, y, z])


def _direction_cosines(azimuth, elevation):
    sin_el = np.sin(elevation)
    return (sin_el * np.cos(azimuth), sin_el * np.sin(azimuth), np.cos(elevation))


def steering_vector(geom: FimGeometry, surface, angles: PathAngles) -> np.ndarray:
    """Unit-norm array response for a plane wave from the given direction.

    Entry ``b`` is ``exp(j * 2*pi/wavelength * <p_b, u>) / sqrt(B)`` where
    ``p_b`` is the element position and ``u`` the direction cosines of
    (azimuth, elevation).
    """
    return steering_matrix(geom, surface, angles.azimuth, angles.elevation)[:, 0]


def steering_matrix(geom: FimGeometry, surface, azimuth, elevation) -> np.ndarray:
    """Stack steering vectors for paired angle arrays into a (B, L) matrix."""
    azimuth = np.atleast_1d(np.asarray(azimuth, dtype=float))
    elevation = np.atleast_1d(np.asarray(elevation, dtype=float))
    if azimuth.shape != elevation.shape:
        raise ValueError("azimuth and elevation arrays must have equal length")
    pos = element_positions(geom, surface)
    u, v, w = _direction_cosines(azimuth, elevation)
    phase = (2.0 * np.pi / geom.wavelength) * (
        np.outer(pos[:, 0], u) + np.outer(pos[:, 1], v) + np.outer(pos[:, 2], w))
    return np.exp(1j * phase) / np.sqrt(geom.num_elements)


def project_surface(geom: FimGeometry, surface) -> np.ndarray:
    """Clamp every element into the morphing range (idempotent)."""
    y = validate_surface(geom, surface)
    return np.clip(y, geom.y_min, geom.y_max)


def random_surface(geom: FimGeometry, rng) -> np.ndarray:
    """I.i.d. uniform shape over [y_min, y_max]; deterministic per seed."""
    rng = np.random.default_rng(rng)
    return rng.uniform(geom.y_min, geom.y_max, geom.num_elements)
