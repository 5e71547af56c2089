"""Tests for array layout, steering vectors, and surface handling."""

import numpy as np
import pytest

from fimsim import (FimGeometry, PathAngles, element_positions, project_surface,
                    random_surface, steering_matrix, steering_vector)

from helpers import oracle_steering, steering_derivative


def make_geom(bx, bz, wavelength=1.0, y_min=-1.0, y_max=1.0):
    return FimGeometry.half_spaced(bx, bz, wavelength, y_min, y_max)


class TestFimGeometry:
    def test_counts_and_range(self):
        geom = make_geom(3, 2)
        assert geom.num_elements == 6
        assert geom.morphing_range == 2.0

    def test_rigid_geometry_allowed(self):
        geom = make_geom(2, 2, y_min=0.0, y_max=0.0)
        assert geom.morphing_range == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(bx=0, bz=2, dx=0.5, dz=0.5, wavelength=1.0, y_min=0.0, y_max=1.0),
        dict(bx=2, bz=2, dx=-0.5, dz=0.5, wavelength=1.0, y_min=0.0, y_max=1.0),
        dict(bx=2, bz=2, dx=0.5, dz=0.5, wavelength=0.0, y_min=0.0, y_max=1.0),
        dict(bx=2, bz=2, dx=0.5, dz=0.5, wavelength=1.0, y_min=1.0, y_max=0.0),
    ])
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(ValueError):
            FimGeometry(**kwargs)


class TestPathAngles:
    def test_bounds_enforced(self):
        PathAngles(np.pi / 2, np.pi)  # boundary values fine
        with pytest.raises(ValueError):
            PathAngles(2.0, 1.0)
        with pytest.raises(ValueError):
            PathAngles(0.0, -0.1)


class TestElementPositions:
    def test_two_by_two_lattice(self):
        lam = 1.0
        geom = make_geom(2, 2, wavelength=lam)
        pos = element_positions(geom, np.zeros(4))
        assert np.allclose(pos[:, 0], [0.0, lam / 2, 0.0, lam / 2])
        assert np.allclose(pos[:, 1], 0.0)
        assert np.allclose(pos[:, 2], [0.0, 0.0, lam / 2, lam / 2])

    def test_single_element_at_origin(self):
        geom = make_geom(1, 1)
        assert np.allclose(element_positions(geom, [0.0]), [[0.0, 0.0, 0.0]])

    def test_row_array(self):
        geom = FimGeometry(bx=3, bz=1, dx=0.3, dz=0.4, wavelength=1.0,
                           y_min=-1.0, y_max=1.0)
        pos = element_positions(geom, np.zeros(3))
        assert np.allclose(pos[:, 0], [0.0, 0.3, 0.6])
        assert np.allclose(pos[:, 2], 0.0)

    def test_length_mismatch_rejected(self):
        geom = make_geom(2, 2)
        with pytest.raises(ValueError):
            element_positions(geom, np.zeros(3))

    def test_positions_injective(self, rng):
        geom = make_geom(4, 3)
        pos = element_positions(geom, rng.uniform(-1, 1, 12))
        assert len({tuple(np.round(p, 12)) for p in pos}) == 12


class TestSteeringVector:
    def test_single_element_is_one(self):
        geom = make_geom(1, 1)
        vec = steering_vector(geom, [0.0], PathAngles(0.3, 1.1))
        assert np.allclose(vec, [1.0])

    def test_two_element_broadside_null(self):
        geom = FimGeometry(bx=2, bz=1, dx=0.5, dz=0.5, wavelength=1.0,
                           y_min=0.0, y_max=0.0)
        vec = steering_vector(geom, np.zeros(2), PathAngles(0.0, np.pi / 2))
        assert np.allclose(vec, np.array([1.0, -1.0]) / np.sqrt(2))

    def test_y_displacement_phase(self):
        geom = make_geom(1, 1, wavelength=1.0)
        vec = steering_vector(geom, [0.25], PathAngles(np.pi / 2, np.pi / 2))
        assert np.allclose(vec, [1j])

    def test_unit_norm(self, rng):
        for _ in range(10):
            geom = make_geom(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            y = rng.uniform(geom.y_min, geom.y_max, geom.num_elements)
            ang = PathAngles(rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(0, np.pi))
            assert np.isclose(np.linalg.norm(steering_vector(geom, y, ang)), 1.0)

    def test_matches_longhand_oracle(self, rng):
        geom = make_geom(3, 2, wavelength=0.01)
        y = rng.uniform(geom.y_min, geom.y_max, 6)
        ang = PathAngles(0.4, 2.0)
        assert np.allclose(steering_vector(geom, y, ang),
                           oracle_steering(geom, y, 0.4, 2.0))

    def test_steering_matrix_consistent(self, rng):
        geom = make_geom(2, 2)
        y = rng.uniform(-1, 1, 4)
        az = rng.uniform(-np.pi / 2, np.pi / 2, 5)
        el = rng.uniform(0, np.pi, 5)
        mat = steering_matrix(geom, y, az, el)
        for k in range(5):
            assert np.allclose(mat[:, k],
                               steering_vector(geom, y, PathAngles(az[k], el[k])))

    def test_leading_rows_computed_alone(self, rng):
        # the first rows of the full matrix, bit for bit
        geom = make_geom(3, 2)
        y = rng.uniform(-1, 1, 6)
        az = rng.uniform(-np.pi / 2, np.pi / 2, 7)
        el = rng.uniform(0, np.pi, 7)
        full = steering_matrix(geom, y, az, el)
        for rows in (1, 4, 6):
            assert np.array_equal(steering_matrix(geom, y, az, el, rows), full[:rows])
        for rows in (0, 7):
            with pytest.raises(ValueError):
                steering_matrix(geom, y, az, el, rows)


class TestSteeringDerivative:
    def test_zero_azimuth_kills_derivative(self):
        geom = make_geom(2, 2)
        d = steering_derivative(geom, np.zeros(4), PathAngles(0.0, 1.0), 2)
        assert np.allclose(d, 0.0)

    def test_single_nonzero_entry(self, rng):
        geom = make_geom(2, 2, wavelength=0.5)
        y = rng.uniform(-1, 1, 4)
        ang = PathAngles(0.7, 2.1)
        d = steering_derivative(geom, y, ang, 1)
        assert np.count_nonzero(d) == 1
        expected = (2 * np.pi / 0.5) * abs(np.sin(0.7) * np.sin(2.1)) / 2.0
        assert np.isclose(abs(d[1]), expected)

    def test_out_of_range_element(self):
        geom = make_geom(2, 2)
        with pytest.raises(IndexError):
            steering_derivative(geom, np.zeros(4), PathAngles(0.1, 1.0), 4)

    def test_matches_finite_difference(self, rng):
        lam = 3e8 / 28e9
        geom = make_geom(2, 2, wavelength=lam, y_min=-lam, y_max=lam)
        step = 1e-7 * lam
        for _ in range(5):
            y = rng.uniform(-lam, lam, 4)
            ang = PathAngles(rng.uniform(-np.pi / 2, np.pi / 2),
                             rng.uniform(0.1, np.pi - 0.1))
            for n in range(4):
                up, dn = y.copy(), y.copy()
                up[n] += step
                dn[n] -= step
                fd = (steering_vector(geom, up, ang)
                      - steering_vector(geom, dn, ang)) / (2 * step)
                analytic = steering_derivative(geom, y, ang, n)
                scale = max(np.max(np.abs(fd)), 1e-30)
                assert np.max(np.abs(fd - analytic)) / scale < 1e-6


class TestProjectSurface:
    def test_in_bounds_unchanged(self):
        geom = make_geom(2, 2, y_min=-0.5, y_max=0.5)
        y = np.array([0.1, -0.2, 0.4, 0.0])
        assert np.array_equal(project_surface(geom, y), y)

    def test_clamps_both_sides(self):
        geom = make_geom(1, 2, y_min=-0.5, y_max=0.5)
        assert np.allclose(project_surface(geom, [0.6, -2.0]), [0.5, -0.5])

    def test_idempotent(self, rng):
        geom = make_geom(2, 2, y_min=-0.5, y_max=0.5)
        y = rng.uniform(-3, 3, 4)
        once = project_surface(geom, y)
        assert np.array_equal(project_surface(geom, once), once)


class TestRandomSurface:
    def test_zero_range_gives_zeros(self):
        geom = make_geom(2, 2, y_min=0.0, y_max=0.0)
        assert np.array_equal(random_surface(geom, 3), np.zeros(4))

    def test_deterministic_per_seed(self):
        geom = make_geom(2, 2)
        assert np.array_equal(random_surface(geom, 42), random_surface(geom, 42))

    def test_mean_matches_uniform(self):
        geom = make_geom(2, 2, y_min=-1.0, y_max=3.0)
        draws = np.concatenate([random_surface(geom, s) for s in range(2500)])
        # 10^4 uniform draws: mean within 3 standard errors of the midpoint
        stderr = geom.morphing_range / np.sqrt(12.0) / np.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 3 * stderr

    def test_within_bounds(self, rng):
        geom = make_geom(3, 3, y_min=-0.25, y_max=0.75)
        y = random_surface(geom, rng)
        assert np.all(y >= geom.y_min) and np.all(y <= geom.y_max)
