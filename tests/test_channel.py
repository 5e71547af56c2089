"""Tests for the doubly-dispersive channel assembly."""

import numpy as np
import pytest

from fimsim import (ChannelScenario, FimGeometry, PathAngles, PropagationPath,
                    ScenarioParams, assemble_effective_td, random_scenario)

from helpers import (cp_phase_matrix, cyclic_shift_matrix, doppler_matrix,
                     oracle_received, oracle_td_channel, path_outer_matrix,
                     path_time_matrix, small_scenario)


def unit_geom(bx=1, bz=1):
    return FimGeometry.half_spaced(bx, bz, 1.0, 0.0, 0.0)


class TestPathOuterMatrix:
    def test_scalar_case(self):
        geom = unit_geom()
        path = PropagationPath(gain=1.0, delay_s=0.0, doppler_hz=0.0,
                               angles_in=PathAngles(0.2, 1.0),
                               angles_out=PathAngles(-0.1, 2.0))
        out = path_outer_matrix(path, geom, [0.0], geom, [0.0], 1)
        assert out.shape == (1, 1)
        assert np.allclose(out, 1.0)

    def test_rank_one(self, rng, quad_geom):
        path = PropagationPath(gain=0.5 - 0.2j, delay_s=0.0, doppler_hz=0.0,
                               angles_in=PathAngles(0.5, 1.2),
                               angles_out=PathAngles(-0.4, 0.9))
        y_t = rng.uniform(quad_geom.y_min, quad_geom.y_max, 4)
        y_r = rng.uniform(quad_geom.y_min, quad_geom.y_max, 4)
        out = path_outer_matrix(path, quad_geom, y_t, quad_geom, y_r, 3)
        for i in range(3):
            for j in range(3):
                minor = out[np.ix_([i, i + 1], [j, j + 1])]
                assert abs(np.linalg.det(minor)) < 1e-14

    def test_frobenius_norm(self, rng, quad_geom):
        gain = 1.3 + 0.7j
        path = PropagationPath(gain=gain, delay_s=0.0, doppler_hz=0.0,
                               angles_in=PathAngles(0.5, 1.2),
                               angles_out=PathAngles(-0.4, 0.9))
        out = path_outer_matrix(path, quad_geom, np.zeros(4), quad_geom,
                                np.zeros(4), 2)
        assert abs(np.linalg.norm(out) - np.sqrt(16 / 2) * abs(gain)) < 1e-12

    def test_norm_bookkeeping(self):
        scenario = small_scenario(seed=5, num_paths=4)
        total = 0.0
        for path in scenario.paths:
            out = path_outer_matrix(path, scenario.tx_geometry,
                                    np.zeros(4), scenario.rx_geometry,
                                    np.zeros(4), scenario.num_paths)
            total += np.linalg.norm(out) ** 2
        expected = (16 / 4) * sum(abs(p.gain) ** 2 for p in scenario.paths)
        assert np.isclose(total, expected)


class TestCyclicShiftMatrix:
    def test_three_by_three_literal(self):
        expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        assert np.array_equal(cyclic_shift_matrix(3, 1), expected)

    def test_zero_shift_is_identity(self):
        assert np.array_equal(cyclic_shift_matrix(4, 0), np.eye(4))

    def test_full_cycle(self):
        pi = cyclic_shift_matrix(5, 1)
        assert np.allclose(np.linalg.matrix_power(pi, 5), np.eye(5))

    def test_permutation_structure(self):
        mat = cyclic_shift_matrix(6, 4)
        assert np.array_equal(mat.sum(axis=0), np.ones(6))
        assert np.array_equal(mat.sum(axis=1), np.ones(6))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cyclic_shift_matrix(4, 4)
        with pytest.raises(ValueError):
            cyclic_shift_matrix(4, -1)


class TestDopplerMatrix:
    def test_four_point_literal(self):
        assert np.allclose(np.diag(doppler_matrix(4, 1)), [1, -1j, -1, 1j])

    def test_zero_is_identity(self):
        assert np.allclose(doppler_matrix(6, 0.0), np.eye(6))

    def test_fractional_entries(self):
        got = np.diag(doppler_matrix(4, 0.5))
        assert np.allclose(got, np.exp(-1j * np.pi * np.arange(4) / 4))

    def test_integer_power_consistency(self):
        base = doppler_matrix(8, 1)
        assert np.allclose(doppler_matrix(8, 3),
                           np.linalg.matrix_power(base, 3), atol=1e-12)

    def test_unitary(self):
        mat = doppler_matrix(8, 0.37)
        assert np.allclose(mat @ mat.conj().T, np.eye(8), atol=1e-12)


class TestCpPhaseMatrix:
    def test_none_phase_is_identity(self):
        assert np.allclose(cp_phase_matrix(8, 5, None), np.eye(8))

    def test_zero_tap_ignores_phase(self):
        assert np.allclose(cp_phase_matrix(8, 0, lambda m: 0.123), np.eye(8))

    def test_afdm_style_entry(self):
        # c1 = 1/8, N = 4, tap 1: phase 2*pi*(1/8)*(16-8) is a full turn
        phase = lambda m: (1 / 8) * (16 - 8 * m)
        assert np.allclose(cp_phase_matrix(4, 1, phase), np.eye(4))

    def test_ordering_counts_down(self):
        phase = lambda m: 0.1 * m
        diag = np.diag(cp_phase_matrix(5, 3, phase))
        assert np.allclose(diag[:3], np.exp(-2j * np.pi * 0.1 * np.array([3, 2, 1])))
        assert np.allclose(diag[3:], 1.0)

    def test_unit_modulus(self):
        mat = cp_phase_matrix(6, 4, lambda m: 0.77 * m * m)
        assert np.allclose(np.abs(np.diag(mat)), 1.0)


class TestPathTimeMatrix:
    def test_static_path_is_identity(self):
        scenario = small_scenario(seed=0)
        path = PropagationPath(gain=1.0, delay_s=0.0, doppler_hz=0.0,
                               angles_in=PathAngles(0.0, 1.0),
                               angles_out=PathAngles(0.0, 1.0))
        assert np.allclose(path_time_matrix(scenario, path, None), np.eye(8))

    def test_unitary(self, rng):
        scenario = small_scenario(seed=1, num_paths=3)
        for path in scenario.paths:
            mat = path_time_matrix(scenario, path, lambda m: 0.3 * m)
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert abs(np.linalg.norm(mat @ x) - np.linalg.norm(x)) < 1e-12

    def test_delta_input_oracle(self):
        # a delta through one path must come out circularly delayed with a
        # Doppler phase ramp, per the longhand sample-domain evaluation
        scenario = small_scenario(seed=3, block_length=16, num_paths=1)
        path = scenario.paths[0]
        mat = path_time_matrix(scenario, path, None)
        n = 16
        ell = path.delay_taps(scenario.sampling_rate_hz)
        f = path.normalized_doppler(n, scenario.sampling_rate_hz)
        for m in (0, 5, 12):
            delta = np.zeros(n, dtype=complex)
            delta[m] = 1.0
            got = mat @ delta
            expected = np.zeros(n, dtype=complex)
            k = (m + ell) % n
            expected[k] = np.exp(-2j * np.pi * f * k / n)
            assert np.allclose(got, expected, atol=1e-12)


class TestAssembleEffectiveTd:
    def test_static_single_path_is_kron_identity(self):
        scenario = small_scenario(seed=2, num_paths=1)
        static = PropagationPath(gain=scenario.paths[0].gain, delay_s=0.0,
                                 doppler_hz=0.0,
                                 angles_in=scenario.paths[0].angles_in,
                                 angles_out=scenario.paths[0].angles_out)
        scenario = ChannelScenario(paths=(static,), block_length=8,
                                   sampling_rate_hz=scenario.sampling_rate_hz,
                                   cp_length=scenario.cp_length,
                                   tx_geometry=scenario.tx_geometry,
                                   rx_geometry=scenario.rx_geometry)
        y = np.zeros(4)
        h_bar = assemble_effective_td(scenario, y, y)
        spatial = path_outer_matrix(static, scenario.tx_geometry, y,
                                    scenario.rx_geometry, y, 1)
        assert np.allclose(h_bar, np.kron(spatial, np.eye(8)), atol=1e-14)

    def test_output_dimension(self):
        scenario = small_scenario(seed=4, block_length=16)
        h_bar = assemble_effective_td(scenario, np.zeros(4), np.zeros(4))
        assert h_bar.shape == (64, 64)

    def test_matches_sample_domain_oracle(self, rng):
        scenario = small_scenario(seed=6, num_paths=2)
        lam = scenario.tx_geometry.wavelength
        y_t = rng.uniform(-lam, lam, 4)
        y_r = rng.uniform(-lam, lam, 4)
        h_bar = assemble_effective_td(scenario, y_t, y_r)
        s = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.max(np.abs(h_bar @ s - oracle_received(scenario, y_t, y_r, s))) < 1e-10

    def test_matches_oracle_with_prefix_phase(self, rng):
        scenario = small_scenario(seed=7, num_paths=3)
        phase = lambda m: 0.031 * (64 - 16 * m)
        y_t = np.zeros(4)
        y_r = rng.uniform(-0.005, 0.005, 4)
        h_bar = assemble_effective_td(scenario, y_t, y_r, phase)
        oracle = oracle_td_channel(scenario, y_t, y_r, phase)
        assert np.max(np.abs(h_bar - oracle)) < 1e-10


class TestScenarioValidation:
    def test_tap_above_prefix_rejected(self, quad_geom):
        path = PropagationPath(gain=1.0, delay_s=5e-7, doppler_hz=0.0,
                               angles_in=PathAngles(0.0, 1.0),
                               angles_out=PathAngles(0.0, 1.0))
        with pytest.raises(ValueError):
            ChannelScenario(paths=(path,), block_length=32,
                            sampling_rate_hz=20e6, cp_length=8,
                            tx_geometry=quad_geom, rx_geometry=quad_geom)

    def test_tap_at_block_length_rejected(self, quad_geom):
        path = PropagationPath(gain=1.0, delay_s=4e-7, doppler_hz=0.0,
                               angles_in=PathAngles(0.0, 1.0),
                               angles_out=PathAngles(0.0, 1.0))
        with pytest.raises(ValueError):
            ChannelScenario(paths=(path,), block_length=8,
                            sampling_rate_hz=20e6, cp_length=8,
                            tx_geometry=quad_geom, rx_geometry=quad_geom)

    def test_empty_paths_rejected(self, quad_geom):
        with pytest.raises(ValueError):
            ChannelScenario(paths=(), block_length=8, sampling_rate_hz=20e6,
                            cp_length=8, tx_geometry=quad_geom,
                            rx_geometry=quad_geom)


class TestRandomScenario:
    def test_derived_doppler_bound(self):
        params = ScenarioParams()
        assert abs(params.max_doppler_hz - 19413.33) < 19413.33 * 1e-3

    def test_derived_delay_taps(self):
        params = ScenarioParams()
        assert abs(params.max_delay_s - 0.4e-6) < 1e-12
        assert params.max_delay_taps == 8

    def test_path_count(self):
        scenario = random_scenario(ScenarioParams(num_paths=2), 0)
        assert scenario.num_paths == 2

    def test_deterministic(self):
        a = random_scenario(ScenarioParams(), 11)
        b = random_scenario(ScenarioParams(), 11)
        assert a == b

    def test_draws_within_bounds(self):
        params = ScenarioParams(num_paths=50)
        scenario = random_scenario(params, 1)
        for p in scenario.paths:
            assert 0.0 <= p.delay_s <= params.max_delay_s
            assert abs(p.doppler_hz) <= params.max_doppler_hz
            assert -np.pi / 2 <= p.angles_in.azimuth <= np.pi / 2
            assert 0.0 <= p.angles_in.elevation <= np.pi

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ScenarioParams(block_length=0)
        with pytest.raises(ValueError):
            ScenarioParams(carrier_frequency_hz=-1.0)
