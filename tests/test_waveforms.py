"""Tests for the modulation schemes and their effective channels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fimsim import (AFDM, OFDM, OTFS, ChannelScenario, achievable_rate,
                    afdm_c1, assemble_effective_td, cp_phase_function,
                    default_afdm, default_otfs, demodulate, dft_matrix,
                    domain_transform, effective_channel, modulate,
                    random_frame, random_surface, transmit_receive,
                    waveform_factors, waveform_for)

from helpers import oracle_td_channel, relative_error, small_scenario, unvec_frame

ALL_SPECS = [OFDM(16), OTFS(4, 4), AFDM(16, c1=3 / 32, c2=0.01)]


class TestDomainTransform:
    def test_two_point_dft(self):
        w = domain_transform(OFDM(2))
        assert np.allclose(w, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_afdm_without_chirps_is_dft(self):
        assert np.allclose(domain_transform(AFDM(8, c1=0.0, c2=0.0)),
                           dft_matrix(8))

    def test_trivial_otfs(self):
        assert np.allclose(domain_transform(OTFS(1, 1)), [[1.0]])

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_unitary(self, spec):
        w = domain_transform(spec)
        assert np.max(np.abs(w @ w.conj().T - np.eye(16))) < 1e-12

    def test_unknown_spec_rejected(self):
        with pytest.raises(TypeError):
            domain_transform("ofdm")

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(spec=st.one_of(
        st.builds(OFDM, st.integers(1, 64)),
        st.builds(OTFS, st.integers(1, 8), st.integers(1, 8)),
        st.builds(AFDM, st.integers(1, 64),
                  st.floats(0.0, 10.0, allow_nan=False),
                  st.floats(-10.0, 10.0, allow_nan=False))))
    def test_property_unitary(self, spec):
        w = domain_transform(spec)
        n = spec.block_length
        assert w.shape == (n, n)
        assert np.max(np.abs(w @ w.conj().T - np.eye(n))) <= 1e-12


class TestModulateDemodulate:
    def test_ofdm_impulse_bin(self):
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        assert np.allclose(modulate(OFDM(8), x), np.ones(8) / np.sqrt(8))
        assert np.allclose(demodulate(OFDM(8), np.ones(8) / np.sqrt(8)), x)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_round_trip(self, spec, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.max(np.abs(demodulate(spec, modulate(spec, x)) - x)) < 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_energy_preserved(self, spec, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.isclose(np.linalg.norm(modulate(spec, x)), np.linalg.norm(x))

    def test_adjoint_property(self, rng):
        spec = AFDM(8, c1=0.05, c2=0.02)
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.isclose(np.vdot(demodulate(spec, a), b), np.vdot(a, modulate(spec, b)))

    def test_otfs_matches_grid_form(self, rng):
        # one stream's samples equal vec(X F^H) with X the 4x4 symbol grid
        spec = OTFS(4, 4)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        grid = x.reshape(4, 4, order="F")
        expected = (grid @ dft_matrix(4).conj().T).reshape(16, order="F")
        assert np.allclose(modulate(spec, x), expected)

    def test_afdm_zero_chirps_matches_ofdm(self, rng):
        r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.allclose(demodulate(AFDM(8, c1=0.0, c2=0.0), r),
                           demodulate(OFDM(8), r))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            modulate(OFDM(8), np.zeros(7))


class TestEffectiveChannel:
    def test_static_single_path_ofdm(self):
        scenario = small_scenario(seed=2, num_paths=1)
        static = scenario.paths[0]
        static_path = type(static)(gain=static.gain, delay_s=0.0, doppler_hz=0.0,
                                   angles_in=static.angles_in,
                                   angles_out=static.angles_out)
        scenario = ChannelScenario(paths=(static_path,), block_length=8,
                                   sampling_rate_hz=scenario.sampling_rate_hz,
                                   cp_length=scenario.cp_length,
                                   tx_geometry=scenario.tx_geometry,
                                   rx_geometry=scenario.rx_geometry)
        y = np.zeros(4)
        h_eff = effective_channel(OFDM(8), scenario, y, y)
        h_td = assemble_effective_td(scenario, y, y)
        assert np.allclose(h_eff, h_td, atol=1e-12)

    @pytest.mark.parametrize("name", ["ofdm", "otfs", "afdm"])
    def test_mixed_product_identity(self, name, rng):
        # conjugating the time-domain block channel by the transform per
        # stream must reproduce the directly assembled effective channel
        scenario = small_scenario(seed=8, block_length=16, num_paths=3)
        spec = waveform_for(name, scenario)
        lam = scenario.tx_geometry.wavelength
        y_t = rng.uniform(-lam, lam, 4)
        y_r = rng.uniform(-lam, lam, 4)
        h_td = assemble_effective_td(scenario, y_t, y_r, cp_phase_function(spec))
        w = domain_transform(spec)
        big_w = np.kron(np.eye(scenario.num_streams), w)
        direct = effective_channel(spec, scenario, y_t, y_r)
        assert np.max(np.abs(direct - big_w @ h_td @ big_w.conj().T)) < 1e-10

    def test_rates_agree_across_waveforms(self, rng):
        scenario = small_scenario(seed=9, block_length=16, num_paths=2)
        lam = scenario.tx_geometry.wavelength
        y_t = rng.uniform(-lam, lam, 4)
        y_r = rng.uniform(-lam, lam, 4)
        rates = [achievable_rate(effective_channel(waveform_for(n, scenario),
                                                   scenario, y_t, y_r), 0.05)
                 for n in ("ofdm", "otfs", "afdm")]
        assert max(rates) - min(rates) < 1e-9 * max(rates)

    def test_singular_values_agree_across_waveforms(self, rng):
        scenario = small_scenario(seed=10, block_length=16, num_paths=2)
        lam = scenario.tx_geometry.wavelength
        y_t = rng.uniform(-lam, lam, 4)
        y_r = rng.uniform(-lam, lam, 4)
        svals = [np.sort(np.linalg.svd(effective_channel(
            waveform_for(n, scenario), scenario, y_t, y_r), compute_uv=False))
            for n in ("ofdm", "otfs", "afdm")]
        for other in svals[1:]:
            assert np.max(np.abs(other - svals[0])) < 1e-9 * svals[0].max()

    def test_pure_delay_ofdm_blocks_diagonal(self):
        # without Doppler the DFT diagonalizes every path, so each
        # stream-pair block of the effective channel is diagonal
        scenario = small_scenario(seed=11, num_paths=2)
        frozen = tuple(type(p)(gain=p.gain, delay_s=p.delay_s, doppler_hz=0.0,
                               angles_in=p.angles_in, angles_out=p.angles_out)
                       for p in scenario.paths)
        scenario = ChannelScenario(paths=frozen, block_length=8,
                                   sampling_rate_hz=scenario.sampling_rate_hz,
                                   cp_length=scenario.cp_length,
                                   tx_geometry=scenario.tx_geometry,
                                   rx_geometry=scenario.rx_geometry)
        h_eff = effective_channel(OFDM(8), scenario, np.zeros(4), np.zeros(4))
        for v in range(4):
            for u in range(4):
                block = h_eff[v * 8:(v + 1) * 8, u * 8:(u + 1) * 8]
                off_diag = block - np.diag(np.diag(block))
                assert np.max(np.abs(off_diag)) < 1e-12

    def test_block_length_mismatch(self):
        scenario = small_scenario(seed=1)
        with pytest.raises(ValueError):
            effective_channel(OFDM(16), scenario, np.zeros(4), np.zeros(4))

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(seed=st.integers(0, 2**16), num_paths=st.integers(1, 5),
           counts=st.tuples(*[st.integers(1, 3)] * 4),
           block_length=st.sampled_from([8, 16]),
           waveform=st.sampled_from(["ofdm", "otfs", "afdm"]))
    def test_property_matches_oracle_and_rates_agree(self, seed, num_paths, counts,
                                                     block_length, waveform):
        # W-conjugated sample-domain oracle on rectangular arrays, and rate
        # invariance across the three waveforms (exact at even N)
        tx_x, tx_z, rx_x, rx_z = counts
        scenario = small_scenario(seed, block_length, num_paths,
                                  tx_elements_x=tx_x, tx_elements_z=tx_z,
                                  rx_elements_x=rx_x, rx_elements_z=rx_z)
        rng = np.random.default_rng(seed)
        y_t = random_surface(scenario.tx_geometry, rng)
        y_r = random_surface(scenario.rx_geometry, rng)
        otfs = OTFS(2, 4) if block_length == 8 else default_otfs(block_length)
        specs = {"ofdm": OFDM(block_length), "otfs": otfs,
                 "afdm": default_afdm(scenario)}

        spec = specs[waveform]
        big_w = np.kron(np.eye(scenario.num_streams), domain_transform(spec))
        oracle = (big_w @ oracle_td_channel(scenario, y_t, y_r, cp_phase_function(spec))
                  @ big_w.conj().T)
        assert np.max(np.abs(effective_channel(spec, scenario, y_t, y_r) - oracle)) <= 1e-10

        rates = [achievable_rate(effective_channel(s, scenario, y_t, y_r), 0.05)
                 for s in specs.values()]
        assert max(rates) - min(rates) <= 1e-9 * max(rates)


class TestAfdmPrefixParity:
    @pytest.mark.parametrize("block_length, sign", [(8, 1.0), (9, -1.0)])
    def test_wrapped_ramp_entries_flip_at_odd_length(self, block_length, sign):
        # with the Doppler-matched c1 the AFDM prefix phase is an integer at
        # even N (cyclic prefix, as OFDM) and a half-odd integer at odd N
        # (anti-cyclic): the first tap ramp entries are -1 times OFDM's
        scenario = small_scenario(seed=4, block_length=block_length, num_paths=5)
        ofdm = waveform_factors(OFDM(block_length), scenario)
        afdm = waveform_factors(default_afdm(scenario), scenario)
        assert np.array_equal(afdm.taps, ofdm.taps) and afdm.taps.max() > 0
        for tap, r_afdm, r_ofdm in zip(ofdm.taps, afdm.ramps, ofdm.ramps):
            assert np.max(np.abs(r_afdm[:tap] - sign * r_ofdm[:tap])) <= 1e-12
            assert np.array_equal(r_afdm[tap:], r_ofdm[tap:])


class TestAfdmC1:
    def test_zero_doppler_floor(self):
        scenario = small_scenario(seed=0, max_velocity_mps=0.0)
        assert np.isclose(afdm_c1(scenario), 1.0 / (2 * 8))

    def test_formula_evaluation(self):
        # f_max = 0.062 rounds up to 1 chirp cycle: c1 = 3 / 128 at N = 64
        params_doppler = 0.062 * 20e6 / 64
        scenario = small_scenario(seed=0, block_length=64,
                                  max_velocity_mps=params_doppler * 3e8 / 28e9)
        assert np.isclose(afdm_c1(scenario), 3.0 / 128.0)

    def test_monotone_in_doppler(self):
        values = [afdm_c1(small_scenario(seed=0, max_velocity_mps=v))
                  for v in (0.0, 100.0, 500.0, 2000.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_defaults(self):
        scenario = small_scenario(seed=3, block_length=16)
        spec = default_afdm(scenario)
        assert spec.block_length == 16 and spec.c2 == 0.0
        assert spec.c1 == afdm_c1(scenario)

    def test_default_otfs_requires_square(self):
        assert default_otfs(16) == OTFS(4, 4)
        with pytest.raises(ValueError):
            default_otfs(12)


class TestTransmitReceive:
    def test_noise_free_matches_channel(self, rng):
        scenario = small_scenario(seed=12)
        frame = random_frame(8, 4, rng)
        spec = OFDM(8)
        y = transmit_receive(spec, scenario, np.zeros(4), np.zeros(4), frame, 0.0, 99)
        h = effective_channel(spec, scenario, np.zeros(4), np.zeros(4))
        assert relative_error(y, unvec_frame(h @ frame, 8, 4)) <= 1e-12

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(data=st.data(), seed=st.integers(0, 2**16),
           counts=st.tuples(*[st.integers(1, 3)] * 4),
           block_length=st.sampled_from([7, 8, 9]),
           waveform=st.sampled_from(["ofdm", "otfs", "afdm"]),
           noise_var=st.sampled_from([0.0, 0.3]))
    def test_property_matches_dense_channel(self, data, seed, counts, block_length,
                                            waveform, noise_var):
        # path-by-path transmission against the dense symbol-domain channel,
        # on rectangular arrays, odd and even N, and P from 1 to past d_s;
        # the noise is the same draw the dense route adds
        tx_x, tx_z, rx_x, rx_z = counts
        num_streams = min(tx_x * tx_z, rx_x * rx_z)
        num_paths = data.draw(st.integers(1, num_streams + 2), label="num_paths")
        scenario = small_scenario(seed, block_length, num_paths,
                                  tx_elements_x=tx_x, tx_elements_z=tx_z,
                                  rx_elements_x=rx_x, rx_elements_z=rx_z)
        rng = np.random.default_rng(seed)
        y_t = random_surface(scenario.tx_geometry, rng)
        y_r = random_surface(scenario.rx_geometry, rng)
        frame = random_frame(block_length, num_streams, rng)
        otfs = {7: OTFS(7, 1), 8: OTFS(2, 4), 9: OTFS(3, 3)}[block_length]
        spec = {"ofdm": OFDM(block_length), "otfs": otfs,
                "afdm": default_afdm(scenario)}[waveform]

        got = transmit_receive(spec, scenario, y_t, y_r, frame, noise_var, seed)
        clean = effective_channel(spec, scenario, y_t, y_r) @ frame
        draws = np.random.default_rng(seed)
        noise = np.sqrt(noise_var / 2.0) * (draws.standard_normal(frame.size)
                                            + 1j * draws.standard_normal(frame.size))
        want = unvec_frame(clean + noise, block_length, num_streams)
        assert got.shape == (num_streams, block_length)
        assert relative_error(got, want) <= 1e-12

    def test_deterministic_per_seed(self, rng):
        scenario = small_scenario(seed=13)
        frame = random_frame(8, 4, rng)
        args = (OFDM(8), scenario, np.zeros(4), np.zeros(4), frame, 0.3)
        assert np.array_equal(transmit_receive(*args, 7), transmit_receive(*args, 7))
        assert not np.array_equal(transmit_receive(*args, 7), transmit_receive(*args, 8))

    def test_noise_variance_empirical(self):
        scenario = small_scenario(seed=14)
        spec = OFDM(8)
        h = effective_channel(spec, scenario, np.zeros(4), np.zeros(4))
        frame = random_frame(8, 4, 0)
        clean = unvec_frame(h @ frame, 8, 4)
        rng = np.random.default_rng(1000)
        noise_samples = []
        for _ in range(320):
            y = transmit_receive(spec, scenario, np.zeros(4), np.zeros(4), frame, 0.5, rng)
            noise_samples.append((y - clean).ravel())
        noise = np.concatenate(noise_samples)  # 10240 complex draws
        assert abs(np.mean(np.abs(noise) ** 2) - 0.5) < 0.05 * 0.5

    def test_frame_length_checked(self):
        scenario = small_scenario(seed=15)
        with pytest.raises(ValueError):
            transmit_receive(OFDM(8), scenario, np.zeros(4), np.zeros(4),
                             np.zeros(8), 0.0, 0)

    def test_negative_noise_variance_rejected(self):
        scenario = small_scenario(seed=15)
        with pytest.raises(ValueError):
            transmit_receive(OFDM(8), scenario, np.zeros(4), np.zeros(4),
                             random_frame(8, 4, 0), -0.1, 0)
        with pytest.raises(ValueError):
            transmit_receive(OFDM(8), scenario, np.zeros(4), np.zeros(4),
                             random_frame(8, 4, 0), float("nan"), 0)


class TestRandomFrame:
    def test_unit_energy_qpsk(self):
        frame = random_frame(16, 4, 5)
        assert frame.shape == (64,)
        assert np.allclose(np.abs(frame), 1.0)
        assert np.unique(frame).size == 4

    def test_deterministic(self):
        assert np.array_equal(random_frame(8, 2, 3), random_frame(8, 2, 3))
