"""Tests for the subspace angle-estimation pipeline."""

import numpy as np
import pytest

from fimsim import (MusicGrid, MusicResult, OFDM, default_grid, emit_results,
                    extract_peaks, music_spectrum, noise_subspace, random_frame,
                    random_surface, rx_covariance, steering_vector,
                    transmit_receive, unvec_frame)
from fimsim.geometry import PathAngles

from helpers import small_scenario


def sensing_setup(seed, num_paths=1, surface_seed=101, **params):
    """Noise-free receive frame through a random scenario plus its pieces."""
    scenario = small_scenario(seed=seed, block_length=16, num_paths=num_paths,
                              noise_var=0.0, **params)
    y_r = random_surface(scenario.rx_geometry, surface_seed)
    y_t = random_surface(scenario.tx_geometry, surface_seed + 1)
    frame = random_frame(scenario.block_length, scenario.num_streams, seed + 500)
    received = transmit_receive(OFDM(16), scenario, y_t, y_r, frame, 0)
    return scenario, y_t, y_r, received


class TestUnvecFrame:
    def test_literal_example(self):
        got = unvec_frame(np.array([1.0, 2.0, 3.0, 4.0]), 2, 2)
        assert np.array_equal(got, np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_round_trip(self, rng):
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        mat = unvec_frame(y, 8, 4)
        assert np.array_equal(mat.T.reshape(-1, order="F"), y)

    def test_shape(self):
        assert unvec_frame(np.zeros(64), 16, 4).shape == (4, 16)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            unvec_frame(np.zeros(63), 16, 4)


class TestRxCovariance:
    def test_zero_input(self):
        assert np.array_equal(rx_covariance(np.zeros((4, 8))), np.zeros((4, 4)))

    def test_hermitian_psd(self, rng):
        y = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        r = rx_covariance(y)
        assert np.max(np.abs(r - r.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(r)) > -1e-12

    def test_rank_bound(self, rng):
        y = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        assert np.linalg.matrix_rank(rx_covariance(y)) <= 2


class TestNoiseSubspace:
    def test_diagonal_case(self):
        basis = noise_subspace(np.diag([0.0, 0.0, 5.0, 9.0]), 2)
        assert basis.shape == (4, 2)
        projector = basis @ basis.conj().T
        expected = np.diag([1.0, 1.0, 0.0, 0.0])
        assert np.allclose(projector, expected, atol=1e-12)

    def test_orthonormal_columns(self, rng):
        y = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        basis = noise_subspace(rx_covariance(y), 1)
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(3))) < 1e-12

    def test_rejects_too_many_sources(self):
        with pytest.raises(ValueError):
            noise_subspace(np.eye(4), 4)
        with pytest.raises(ValueError):
            noise_subspace(np.eye(4), 0)

    def test_noise_free_single_path_orthogonality(self):
        scenario, y_t, y_r, received = sensing_setup(seed=40)
        mat = unvec_frame(received, 16, 4)
        basis = noise_subspace(rx_covariance(mat), 1)
        truth = scenario.paths[0].angles_in
        b_true = steering_vector(scenario.rx_geometry, y_r, truth)
        assert np.linalg.norm(basis.conj().T @ b_true) < 1e-8


class TestMusicSpectrum:
    def test_peak_at_true_angle(self):
        scenario, y_t, y_r, received = sensing_setup(seed=41)
        mat = unvec_frame(received, 16, 4)
        basis = noise_subspace(rx_covariance(mat), 1)
        az, el = default_grid(1.0)
        grid = music_spectrum(basis, scenario.rx_geometry, y_r, az, el)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        truth = scenario.paths[0].angles_in
        assert abs(grid.azimuth_rad[i] - truth.azimuth) <= np.deg2rad(1.0)
        assert abs(grid.elevation_rad[j] - truth.elevation) <= np.deg2rad(1.0)

    def test_rectangular_receive_array(self):
        # 3x2 receive against 2x2 transmit: four streams, carried by the
        # first four receive elements, so the scan uses those entries
        scenario, y_t, y_r, received = sensing_setup(seed=41, rx_elements_x=3,
                                                     rx_elements_z=2)
        basis = noise_subspace(rx_covariance(unvec_frame(received, 16, 4)), 1)
        assert basis.shape == (4, 3)
        az, el = default_grid(1.0)
        grid = music_spectrum(basis, scenario.rx_geometry, y_r, az, el)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        truth = scenario.paths[0].angles_in
        assert abs(grid.azimuth_rad[i] - truth.azimuth) <= np.deg2rad(1.0)
        assert abs(grid.elevation_rad[j] - truth.elevation) <= np.deg2rad(1.0)

    def test_basis_wider_than_array_rejected(self):
        with pytest.raises(ValueError):
            music_spectrum(np.zeros((5, 2)), small_scenario(seed=0).rx_geometry,
                           np.zeros(4))

    def test_matches_pointwise_oracle(self):
        # loop over a coarse grid evaluating the projection longhand
        scenario, y_t, y_r, received = sensing_setup(seed=42)
        mat = unvec_frame(received, 16, 4)
        basis = noise_subspace(rx_covariance(mat), 1)
        az = np.deg2rad(np.arange(-90.0, 91.0, 15.0))
        el = np.deg2rad(np.arange(0.0, 181.0, 15.0))
        grid = music_spectrum(basis, scenario.rx_geometry, y_r, az, el)
        raw = np.empty((az.size, el.size))
        for i, a in enumerate(az):
            for j, e in enumerate(el):
                b = steering_vector(scenario.rx_geometry, y_r, PathAngles(a, e))
                denom = np.real(b.conj() @ basis @ basis.conj().T @ b)
                raw[i, j] = 1.0 / max(denom, 1e-12)
        assert np.allclose(grid.values, raw / raw.max(), rtol=1e-10)

    def test_peak_separation_noise_free(self):
        scenario, y_t, y_r, received = sensing_setup(seed=43, num_paths=2)
        mat = unvec_frame(received, 16, 4)
        basis = noise_subspace(rx_covariance(mat), 2)
        proj = basis @ basis.conj().T
        for path in scenario.paths:
            b = steering_vector(scenario.rx_geometry, y_r, path.angles_in)
            assert np.real(b.conj() @ proj @ b) < 1e-8
        az, el = default_grid(2.0)
        # grid median of the projection stays well above the true-angle nulls
        mat_b = np.abs(basis.conj().T @ np.asarray(
            [steering_vector(scenario.rx_geometry, y_r, PathAngles(a, e))
             for a in az for e in el]).T) ** 2
        assert np.median(mat_b.sum(axis=0)) > 1e-2

    def test_scalar_invariance(self):
        scenario, y_t, y_r, received = sensing_setup(seed=44)
        mat = unvec_frame(received, 16, 4)
        az, el = default_grid(5.0)
        g1 = music_spectrum(noise_subspace(rx_covariance(mat), 1),
                            scenario.rx_geometry, y_r, az, el)
        g2 = music_spectrum(noise_subspace(rx_covariance(2.7j * mat), 1),
                            scenario.rx_geometry, y_r, az, el)
        assert np.allclose(g1.values, g2.values, atol=1e-10)

    def test_two_source_recovery_from_constructed_mixture(self, rng):
        # build the stream matrix directly as a two-steering-vector mixture
        # and confirm both directions come back from the scan
        scenario = small_scenario(seed=47, block_length=16, num_paths=2)
        geom = scenario.rx_geometry
        y_r = random_surface(geom, 9)
        angles = [PathAngles(-0.7, 1.9), PathAngles(0.5, 0.8)]
        signals = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
        y_mat = sum(np.outer(steering_vector(geom, y_r, a), s)
                    for a, s in zip(angles, signals))
        basis = noise_subspace(rx_covariance(y_mat), 2)
        az, el = default_grid(1.0)
        grid = music_spectrum(basis, geom, y_r, az, el)
        peaks = extract_peaks(grid, 2)
        found = {(round(np.rad2deg(a)), round(np.rad2deg(e))) for a, e in peaks}
        expected = {(round(np.rad2deg(a.azimuth)), round(np.rad2deg(a.elevation)))
                    for a in angles}
        for true_az, true_el in expected:
            assert any(abs(az_p - true_az) <= 1 and abs(el_p - true_el) <= 1
                       for az_p, el_p in found)

    def test_unitary_remix_invariance(self, rng):
        scenario, y_t, y_r, received = sensing_setup(seed=45, num_paths=2)
        mat = unvec_frame(received, 16, 4)
        basis = noise_subspace(rx_covariance(mat), 2)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        az, el = default_grid(5.0)
        g1 = music_spectrum(basis, scenario.rx_geometry, y_r, az, el)
        g2 = music_spectrum(basis @ q, scenario.rx_geometry, y_r, az, el)
        assert np.allclose(g1.values, g2.values, atol=1e-10)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            music_spectrum(np.zeros((4, 2)), small_scenario(seed=0).rx_geometry,
                           np.zeros(4), np.array([]), np.array([0.0]))


class TestExtractPeaks:
    def grid_of(self, values):
        v = np.asarray(values, dtype=float)
        return MusicGrid(azimuth_rad=np.arange(v.shape[0], dtype=float),
                         elevation_rad=np.arange(v.shape[1], dtype=float),
                         values=v)

    def test_single_sharp_peak(self):
        v = np.zeros((5, 5))
        v[2, 3] = 1.0
        assert extract_peaks(self.grid_of(v), 1) == [(2.0, 3.0)]

    def test_two_separated_peaks(self):
        v = np.zeros((7, 7))
        v[1, 1] = 0.8
        v[5, 4] = 1.0
        assert extract_peaks(self.grid_of(v), 2) == [(5.0, 4.0), (1.0, 1.0)]

    def test_flat_grid_warns_and_returns_empty(self):
        with pytest.warns(UserWarning):
            peaks = extract_peaks(self.grid_of(np.ones((4, 4))), 1)
        assert peaks == []

    def test_tie_broken_lexicographically(self):
        v = np.zeros((5, 5))
        v[1, 3] = 1.0
        v[3, 1] = 1.0
        assert extract_peaks(self.grid_of(v), 1) == [(1.0, 3.0)]

    def test_plateau_not_a_strict_maximum(self):
        v = np.zeros((5, 5))
        v[2, 2] = v[2, 3] = 1.0
        with pytest.warns(UserWarning):
            assert extract_peaks(self.grid_of(v), 1) == []

    def test_num_peaks_validated(self):
        with pytest.raises(ValueError):
            extract_peaks(self.grid_of(np.ones((3, 3))), 0)


class TestGridCsv:
    def test_round_trippable_format(self, tmp_path):
        scenario, y_t, y_r, received = sensing_setup(seed=46)
        mat = unvec_frame(received, 16, 4)
        basis = noise_subspace(rx_covariance(mat), 1)
        az, el = default_grid(30.0)
        grid = music_spectrum(basis, scenario.rx_geometry, y_r, az, el)
        result = MusicResult(grids={("none", "ofdm"): grid}, peaks=[],
                             metadata={"true_angles_deg": []})
        emit_results(result, tmp_path)
        lines = (tmp_path / "music_spectrum_none_ofdm.csv").read_text().splitlines()
        assert lines[0] == "azimuth_deg,elevation_deg,value_db"
        assert len(lines) == 1 + az.size * el.size
        values = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
        assert values[:, 2].max() == 0.0  # normalized peak at 0 dB
