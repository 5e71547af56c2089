"""Tests for the rate objective, its closed-form gradients, and the ascent loop."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fimsim import (OFDM, OTFS, ChannelScenario, OptimizerConfig, PathAngles,
                    PropagationPath, achievable_rate, channel_power,
                    effective_channel, objective_gradient, optimize,
                    random_scenario, random_surface, steering_vector,
                    waveform_factors, waveform_for)
from fimsim.optimizer import _DenseRoute, _PathSpaceRoute, _route

from helpers import (channel_grad_rx, channel_grad_tx, dense_objective_gradient,
                     gram_grad, objective_grad_element, penalized_objective,
                     relative_error, sensing_slack, small_params, small_scenario)

FD_STEP_FRACTION = 1e-7  # finite-difference step as a fraction of wavelength


def perturbed(surface, element, delta):
    out = np.array(surface, dtype=float)
    out[element] += delta
    return out


def fd_channel_grad(spec, scenario, y_t, y_r, element, side, step):
    if side == "tx":
        up = effective_channel(spec, scenario, perturbed(y_t, element, step), y_r)
        dn = effective_channel(spec, scenario, perturbed(y_t, element, -step), y_r)
    else:
        up = effective_channel(spec, scenario, y_t, perturbed(y_r, element, step))
        dn = effective_channel(spec, scenario, y_t, perturbed(y_r, element, -step))
    return (up - dn) / (2 * step)


class TestAchievableRate:
    def test_identity_channel(self):
        assert np.isclose(achievable_rate(np.eye(4), 1.0), 4.0)

    def test_zero_channel(self):
        assert achievable_rate(np.zeros((6, 6)), 0.3) == 0.0

    def test_unitary_similarity_invariance(self, rng):
        h = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        q, _ = np.linalg.qr(rng.standard_normal((12, 12))
                            + 1j * rng.standard_normal((12, 12)))
        r1 = achievable_rate(h, 0.2)
        r2 = achievable_rate(q @ h @ q.conj().T, 0.2)
        assert abs(r1 - r2) < 1e-9 * abs(r1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            achievable_rate(np.zeros((3, 4)), 1.0)
        with pytest.raises(ValueError):
            achievable_rate(np.eye(3), 0.0)
        with pytest.raises(ValueError):
            achievable_rate(np.eye(3), float("nan"))


class TestSensingSlack:
    def test_satisfied_constraint(self):
        h = np.eye(3)  # power 3
        assert sensing_slack(h, 2.0) == 0.0

    def test_violated_constraint(self):
        h = np.eye(3)
        assert sensing_slack(h, 4.0) == -1.0

    def test_zero_threshold(self, rng):
        h = rng.standard_normal((4, 4))
        assert sensing_slack(h, 0.0) == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            sensing_slack(np.eye(2), -1.0)


class TestChannelGradients:
    def test_zero_azimuth_out_kills_tx_gradient(self):
        scenario = small_scenario(seed=20)
        frozen = tuple(type(p)(gain=p.gain, delay_s=p.delay_s,
                               doppler_hz=p.doppler_hz,
                               angles_in=p.angles_in,
                               angles_out=PathAngles(0.0, p.angles_out.elevation))
                       for p in scenario.paths)
        scenario = ChannelScenario(paths=frozen, block_length=8,
                                   sampling_rate_hz=scenario.sampling_rate_hz,
                                   cp_length=scenario.cp_length,
                                   tx_geometry=scenario.tx_geometry,
                                   rx_geometry=scenario.rx_geometry)
        d = channel_grad_tx(OFDM(8), scenario, np.zeros(4), np.zeros(4), 1)
        assert np.allclose(d, 0.0)

    def test_zero_elevation_in_kills_rx_gradient(self):
        scenario = small_scenario(seed=21)
        frozen = tuple(type(p)(gain=p.gain, delay_s=p.delay_s,
                               doppler_hz=p.doppler_hz,
                               angles_in=PathAngles(p.angles_in.azimuth, 0.0),
                               angles_out=p.angles_out)
                       for p in scenario.paths)
        scenario = ChannelScenario(paths=frozen, block_length=8,
                                   sampling_rate_hz=scenario.sampling_rate_hz,
                                   cp_length=scenario.cp_length,
                                   tx_geometry=scenario.tx_geometry,
                                   rx_geometry=scenario.rx_geometry)
        d = channel_grad_rx(OFDM(8), scenario, np.zeros(4), np.zeros(4), 0)
        assert np.allclose(d, 0.0)

    def test_single_path_gradient_rank(self, rng):
        scenario = small_scenario(seed=22, num_paths=1)
        lam = scenario.tx_geometry.wavelength
        y_t = rng.uniform(-lam, lam, 4)
        y_r = rng.uniform(-lam, lam, 4)
        d = channel_grad_tx(OFDM(8), scenario, y_t, y_r, 2)
        assert np.linalg.matrix_rank(d, tol=1e-9) == 8

    @pytest.mark.parametrize("name", ["ofdm", "otfs", "afdm"])
    @pytest.mark.parametrize("side", ["tx", "rx"])
    def test_matches_finite_difference(self, name, side, rng):
        scenario = small_scenario(seed=23, block_length=16, num_paths=2)
        spec = waveform_for(name, scenario)
        lam = scenario.tx_geometry.wavelength
        y_t = rng.uniform(-lam, lam, 4)
        y_r = rng.uniform(-lam, lam, 4)
        step = FD_STEP_FRACTION * lam
        grad_fn = channel_grad_tx if side == "tx" else channel_grad_rx
        for element in range(4):
            analytic = grad_fn(spec, scenario, y_t, y_r, element)
            fd = fd_channel_grad(spec, scenario, y_t, y_r, element, side, step)
            assert relative_error(analytic, fd) < 1e-5

    def test_element_out_of_range(self):
        scenario = small_scenario(seed=24)
        with pytest.raises(IndexError):
            channel_grad_tx(OFDM(8), scenario, np.zeros(4), np.zeros(4), 4)

    def test_rectangular_arrays_match_finite_difference(self, rng):
        # unequal element counts: the derivative passes through the same
        # stream reduction as the channel itself
        scenario = small_scenario(seed=29, tx_elements_x=2, tx_elements_z=1)
        assert scenario.num_streams == 2
        spec = OFDM(8)
        lam = scenario.tx_geometry.wavelength
        y_t = rng.uniform(-lam, lam, 2)
        y_r = rng.uniform(-lam, lam, 4)
        step = FD_STEP_FRACTION * lam
        for side, count in (("tx", 2), ("rx", 4)):
            grad_fn = channel_grad_tx if side == "tx" else channel_grad_rx
            for element in range(count):
                analytic = grad_fn(spec, scenario, y_t, y_r, element)
                fd = fd_channel_grad(spec, scenario, y_t, y_r, element, side, step)
                assert relative_error(analytic, fd) < 1e-5

    def test_rx_gradient_hand_built_single_path(self):
        # one path, 2-element row arrays, 2-sample frames: spell the
        # derivative out entry by entry and compare
        lam = 0.01
        from fimsim import FimGeometry
        geom = FimGeometry(bx=2, bz=1, dx=lam / 2, dz=lam / 2, wavelength=lam,
                           y_min=-lam, y_max=lam)
        path = PropagationPath(gain=0.8 - 0.3j, delay_s=0.0, doppler_hz=0.0,
                               angles_in=PathAngles(0.6, 1.1),
                               angles_out=PathAngles(-0.2, 2.2))
        scenario = ChannelScenario(paths=(path,), block_length=2,
                                   sampling_rate_hz=20e6, cp_length=1,
                                   tx_geometry=geom, rx_geometry=geom)
        y_t = np.array([0.001, -0.002])
        y_r = np.array([0.0015, 0.0025])
        element = 1
        got = channel_grad_rx(OFDM(2), scenario, y_t, y_r, element)

        a_t = steering_vector(geom, y_t, path.angles_out)
        a_r = steering_vector(geom, y_r, path.angles_in)
        d_r = np.zeros(2, dtype=complex)
        d_r[element] = (1j * (2 * np.pi / lam) * np.sin(0.6) * np.sin(1.1)
                        * a_r[element])
        spatial = np.sqrt(2 * 2 / 1) * path.gain * np.outer(d_r, a_t.conj())
        w = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        gbar = w @ np.eye(2) @ w.conj().T
        expected = np.kron(spatial, gbar)
        assert np.max(np.abs(got - expected)) < 1e-12


class TestGramGrad:
    def test_zero_derivative(self, rng):
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.allclose(gram_grad(h, np.zeros_like(h), 0.5), 0.0)

    def test_hermitian(self, rng):
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        d = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        g = gram_grad(h, d, 0.5)
        assert np.max(np.abs(g - g.conj().T)) < 1e-12

    def test_matches_finite_difference(self, rng):
        scenario = small_scenario(seed=25)
        spec = OFDM(8)
        lam = scenario.tx_geometry.wavelength
        y_t = rng.uniform(-lam, lam, 4)
        y_r = rng.uniform(-lam, lam, 4)
        step = FD_STEP_FRACTION * lam
        noise_var = 0.2

        def gram_at(y):
            h = effective_channel(spec, scenario, y, y_r)
            return h @ h.conj().T / noise_var

        element = 3
        fd = (gram_at(perturbed(y_t, element, step))
              - gram_at(perturbed(y_t, element, -step))) / (2 * step)
        h = effective_channel(spec, scenario, y_t, y_r)
        dh = channel_grad_tx(spec, scenario, y_t, y_r, element)
        assert relative_error(gram_grad(h, dh, noise_var), fd) < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gram_grad(np.eye(3), np.eye(4), 1.0)


class TestObjectiveGradElement:
    def setup_case(self, seed, rng, psi_fraction):
        scenario = small_scenario(seed=seed)
        spec = OFDM(8)
        lam = scenario.tx_geometry.wavelength
        y_t = rng.uniform(-lam, lam, 4)
        y_r = rng.uniform(-lam, lam, 4)
        noise_var = 0.1
        h = effective_channel(spec, scenario, y_t, y_r)
        psi = psi_fraction * channel_power(h)
        return scenario, spec, y_t, y_r, noise_var, h, psi

    def test_zero_derivative_gives_zero(self, rng):
        scenario, spec, y_t, y_r, noise_var, h, psi = self.setup_case(26, rng, 0.5)
        gram = h @ h.conj().T / noise_var
        val = objective_grad_element(h, gram, np.zeros_like(h), 2.0, psi, noise_var)
        assert val == 0.0

    def test_inactive_penalty_ignores_beta(self, rng):
        # strictly positive slack: the clamped penalty contributes nothing
        scenario, spec, y_t, y_r, noise_var, h, psi = self.setup_case(27, rng, 0.5)
        gram = h @ h.conj().T / noise_var
        dh = channel_grad_tx(spec, scenario, y_t, y_r, 0)
        v0 = objective_grad_element(h, gram, dh, 0.0, psi, noise_var)
        v5 = objective_grad_element(h, gram, dh, 5.0, psi, noise_var)
        assert v0 == v5

    @pytest.mark.parametrize("beta,psi_fraction", [(0.0, 0.5), (2.0, 1.5)])
    def test_matches_objective_finite_difference(self, beta, psi_fraction, rng):
        scenario, spec, y_t, y_r, noise_var, h, psi = self.setup_case(28, rng, psi_fraction)
        gram = h @ h.conj().T / noise_var
        lam = scenario.tx_geometry.wavelength
        step = FD_STEP_FRACTION * lam

        def f_at(y):
            h_y = effective_channel(spec, scenario, y, y_r)
            return penalized_objective(h_y, noise_var, beta, psi)[0]

        for element in range(4):
            dh = channel_grad_tx(spec, scenario, y_t, y_r, element)
            analytic = objective_grad_element(h, gram, dh, beta, psi, noise_var)
            fd = (f_at(perturbed(y_t, element, step))
                  - f_at(perturbed(y_t, element, -step))) / (2 * step)
            assert relative_error(analytic, fd) < 1e-5


# Channel power depends on the shapes only through cross terms of paths
# that share a delay tap, so the penalty's gradient vanishes unless some
# do.  A 5 m range bound puts every path at tap 0; 90 m spreads them.
SHARED_TAP_RANGE_M = 5.0


def gradient_case(seed, num_paths, waveform, psi_fraction, block_length=8, **kwargs):
    """Scenario, spec, random shapes, and an objective whose power floor
    sits at ``psi_fraction`` times the channel power at those shapes."""
    scenario = random_scenario(small_params(block_length, num_paths, **kwargs), seed)
    if waveform == "otfs":
        spec = OTFS(delay_bins=2, doppler_bins=block_length // 2)
    else:
        spec = waveform_for(waveform, scenario)
    rng = np.random.default_rng(seed + 1)
    y_t = random_surface(scenario.tx_geometry, rng)
    y_r = random_surface(scenario.rx_geometry, rng)
    noise_var = 0.1
    h = effective_channel(spec, scenario, y_t, y_r)
    return scenario, spec, y_t, y_r, noise_var, psi_fraction * channel_power(h)


def fd_objective_gradient(spec, scenario, y_t, y_r, noise_var, beta, psi):
    step = FD_STEP_FRACTION * scenario.tx_geometry.wavelength

    def f_at(yt, yr):
        h = effective_channel(spec, scenario, yt, yr)
        return penalized_objective(h, noise_var, beta, psi)[0]

    out = []
    for element in range(y_t.size):
        out.append((f_at(perturbed(y_t, element, step), y_r)
                    - f_at(perturbed(y_t, element, -step), y_r)) / (2 * step))
    for element in range(y_r.size):
        out.append((f_at(y_t, perturbed(y_r, element, step))
                    - f_at(y_t, perturbed(y_r, element, -step))) / (2 * step))
    return np.array(out)


class TestObjectiveGradient:
    @pytest.mark.parametrize("num_paths", [2, 3, 5])
    @pytest.mark.parametrize("waveform", ["ofdm", "otfs", "afdm"])
    @pytest.mark.parametrize("psi_fraction", [0.8, 1.2])
    @pytest.mark.parametrize("max_range_m", [90.0, SHARED_TAP_RANGE_M])
    def test_matches_dense_oracle(self, num_paths, waveform, psi_fraction, max_range_m):
        case = gradient_case(40 + num_paths, num_paths, waveform, psi_fraction,
                             max_range_m=max_range_m)
        scenario, spec, y_t, y_r, noise_var, psi = case
        got = objective_gradient(spec, scenario, y_t, y_r, noise_var, 2.0, psi)
        want = dense_objective_gradient(spec, scenario, y_t, y_r, noise_var, 2.0, psi)
        assert got.shape == (8,)
        assert relative_error(got, want) <= 1e-9

    @pytest.mark.parametrize("psi_fraction", [0.8, 1.2])
    @pytest.mark.parametrize("arrays", [dict(tx_elements_x=3, tx_elements_z=2),
                                        dict(rx_elements_x=3, rx_elements_z=1)])
    def test_rectangular_arrays_match_dense_oracle(self, arrays, psi_fraction):
        # elements past d_s never enter the channel: their partials are zero
        case = gradient_case(48, 3, "afdm", psi_fraction,
                             max_range_m=SHARED_TAP_RANGE_M, **arrays)
        scenario, spec, y_t, y_r, noise_var, psi = case
        got = objective_gradient(spec, scenario, y_t, y_r, noise_var, 2.0, psi)
        want = dense_objective_gradient(spec, scenario, y_t, y_r, noise_var, 2.0, psi)
        n_t, d = y_t.size, scenario.num_streams
        assert relative_error(got, want) <= 1e-9
        assert not np.any(got[d:n_t]) and not np.any(got[n_t + d:])

    @pytest.mark.parametrize("psi_fraction,penalized", [(0.8, False), (1.2, True)])
    def test_penalty_only_while_floor_violated(self, psi_fraction, penalized):
        scenario, spec, y_t, y_r, noise_var, psi = gradient_case(
            49, 2, "ofdm", psi_fraction, max_range_m=SHARED_TAP_RANGE_M)
        g0 = objective_gradient(spec, scenario, y_t, y_r, noise_var, 0.0, psi)
        g5 = objective_gradient(spec, scenario, y_t, y_r, noise_var, 5.0, psi)
        assert np.array_equal(g0, g5) != penalized

    def test_rejects_nonpositive_noise(self):
        scenario, spec, y_t, y_r, _, psi = gradient_case(50, 2, "ofdm", 0.8)
        with pytest.raises(ValueError):
            objective_gradient(spec, scenario, y_t, y_r, 0.0, 2.0, psi)
        with pytest.raises(ValueError):
            objective_gradient(spec, scenario, y_t, y_r, float("nan"), 2.0, psi)

    def test_rejects_negative_or_nan_psi(self):
        scenario, spec, y_t, y_r, noise_var, _ = gradient_case(50, 2, "ofdm", 0.8)
        for psi in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                objective_gradient(spec, scenario, y_t, y_r, noise_var, 2.0, psi)

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(seed=st.integers(0, 2**16), num_paths=st.integers(2, 5),
           counts=st.tuples(*[st.integers(1, 3)] * 4),
           waveform=st.sampled_from(["ofdm", "otfs", "afdm"]),
           psi_fraction=st.sampled_from([0.8, 1.2]),
           max_range_m=st.sampled_from([90.0, SHARED_TAP_RANGE_M]))
    def test_property_finite_difference_and_oracle(self, seed, num_paths, counts,
                                                   waveform, psi_fraction, max_range_m):
        # P = 1 is left out: a rank-one channel's rate and power do not
        # depend on the shapes, so the exact gradient is identically zero
        tx_x, tx_z, rx_x, rx_z = counts
        scenario, spec, y_t, y_r, noise_var, psi = gradient_case(
            seed, num_paths, waveform, psi_fraction, max_range_m=max_range_m,
            tx_elements_x=tx_x, tx_elements_z=tx_z, rx_elements_x=rx_x,
            rx_elements_z=rx_z)
        got = objective_gradient(spec, scenario, y_t, y_r, noise_var, 2.0, psi)
        fd = fd_objective_gradient(spec, scenario, y_t, y_r, noise_var, 2.0, psi)
        want = dense_objective_gradient(spec, scenario, y_t, y_r, noise_var, 2.0, psi)
        assert relative_error(got, fd) <= 1e-5
        assert relative_error(got, want) <= 1e-9


# Metres of range per delay tap at the default 20 MHz sampling rate.
METERS_PER_TAP = 15.0


class TestPathSpaceRoute:
    @pytest.mark.parametrize("num_paths,route", [(1, _PathSpaceRoute), (3, _PathSpaceRoute),
                                                 (4, _DenseRoute), (5, _DenseRoute)])
    def test_route_by_path_count(self, num_paths, route):
        scenario = small_scenario(seed=51, num_paths=num_paths)    # d_s = 4
        assert type(_route(waveform_factors(OFDM(8), scenario), 0.1)) is route

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**16), counts=st.tuples(*[st.integers(1, 3)] * 4),
           path_draw=st.integers(0, 7), block_length=st.sampled_from([4, 9, 16]),
           waveform=st.sampled_from(["ofdm", "otfs", "afdm"]),
           psi_fraction=st.sampled_from([0.8, 1.2]), shared_tap=st.booleans())
    def test_property_matches_dense_route(self, seed, counts, path_draw, block_length,
                                          waveform, psi_fraction, shared_tap):
        # P from 1 to d_s - 1; rate, power and objective gradient against
        # the dense matrix and the per-element dense oracle
        tx_x, tx_z, rx_x, rx_z = counts
        num_streams = min(tx_x * tx_z, rx_x * rx_z)
        assume(num_streams >= 2)
        num_paths = 1 + path_draw % (num_streams - 1)
        max_range_m = (SHARED_TAP_RANGE_M if shared_tap
                       else METERS_PER_TAP * (block_length - 1))
        scenario = random_scenario(small_params(
            block_length, num_paths, max_range_m=max_range_m,
            tx_elements_x=tx_x, tx_elements_z=tx_z,
            rx_elements_x=rx_x, rx_elements_z=rx_z), seed)
        spec = waveform_for(waveform, scenario)
        rng = np.random.default_rng(seed + 1)
        y_t = random_surface(scenario.tx_geometry, rng)
        y_r = random_surface(scenario.rx_geometry, rng)
        noise_var = 0.1
        h = effective_channel(spec, scenario, y_t, y_r)
        psi = psi_fraction * channel_power(h)

        route = _PathSpaceRoute(waveform_factors(spec, scenario), noise_var)
        state = route.state(y_t, y_r)
        rate, power = route.rate(state), route.power(state)
        assert abs(rate - achievable_rate(h, noise_var)) <= 1e-9 * abs(rate)
        assert abs(power - channel_power(h)) <= 1e-9 * power
        got = objective_gradient(spec, scenario, y_t, y_r, noise_var, 2.0, psi)
        if num_paths == 1:
            # a rank-one channel's rate and power ignore the shapes: exactly
            # zero, where the dense adjoint returns roundoff
            assert not np.any(got)
        else:
            want = dense_objective_gradient(spec, scenario, y_t, y_r, noise_var, 2.0, psi)
            assert relative_error(got, want) <= 1e-9


class TestOptimize:
    def test_zero_gradient_start(self):
        # all azimuths zero: no element can change any steering phase
        scenario = small_scenario(seed=30)
        frozen = tuple(type(p)(gain=p.gain, delay_s=p.delay_s,
                               doppler_hz=p.doppler_hz,
                               angles_in=PathAngles(0.0, p.angles_in.elevation),
                               angles_out=PathAngles(0.0, p.angles_out.elevation))
                       for p in scenario.paths)
        scenario = ChannelScenario(paths=frozen, block_length=8,
                                   sampling_rate_hz=scenario.sampling_rate_hz,
                                   cp_length=scenario.cp_length,
                                   tx_geometry=scenario.tx_geometry,
                                   rx_geometry=scenario.rx_geometry)
        init = np.full(4, 0.001)
        config = OptimizerConfig(noise_var=0.1, beta=0.0, max_iters=10)
        result = optimize(scenario, OFDM(8), config, init_tx=init, init_rx=init)
        assert result.iterations_run <= 1
        assert np.array_equal(result.tx_surface, init)
        assert result.stop_reason == "zero gradient"

    def test_ascent_on_random_scenario(self, rng):
        scenario = small_scenario(seed=31)
        config = OptimizerConfig(noise_var=0.05, max_iters=40)
        result = optimize(scenario, OFDM(8), config, rng=rng)
        trace = result.objective_trace
        assert np.all(np.diff(trace) >= 0.0)
        assert trace[-1] > trace[0]
        assert result.iterations_run >= 1

    def test_iterates_respect_bounds(self, rng):
        scenario = small_scenario(seed=32)
        result = optimize(scenario, OFDM(8), OptimizerConfig(noise_var=0.05, max_iters=25),
                          rng=rng)
        geom = scenario.tx_geometry
        for surf in (result.tx_surface, result.rx_surface):
            assert np.all(surf >= geom.y_min) and np.all(surf <= geom.y_max)

    def test_waveform_invariant_trajectory(self):
        scenario = small_scenario(seed=33, block_length=16)
        lam = scenario.tx_geometry.wavelength
        init_t = random_surface(scenario.tx_geometry, 77)
        init_r = random_surface(scenario.rx_geometry, 78)
        config = OptimizerConfig(noise_var=0.05, max_iters=15)
        traces = []
        for name in ("ofdm", "otfs", "afdm"):
            res = optimize(scenario, waveform_for(name, scenario), config,
                           init_tx=init_t, init_rx=init_r)
            traces.append(res.objective_trace)
        for other in traces[1:]:
            assert len(other) == len(traces[0])
            assert np.max(np.abs(other - traces[0])) < 1e-6 * abs(traces[0][-1])

    def test_explicit_psi_and_rate_traces(self, rng):
        scenario = small_scenario(seed=34)
        config = OptimizerConfig(noise_var=0.05, psi=5.0, max_iters=10)
        result = optimize(scenario, OFDM(8), config, rng=rng)
        assert result.psi == 5.0
        assert len(result.rate_trace) == len(result.objective_trace)
        assert np.allclose(result.objective_trace,
                           result.rate_trace + config.beta * result.slack_trace)

    def test_requires_positive_noise(self):
        for noise_var in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError):
                OptimizerConfig(noise_var=noise_var)

    def test_requires_nonnegative_psi(self):
        for psi in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                OptimizerConfig(noise_var=0.1, psi=psi)
        assert OptimizerConfig(noise_var=0.1, psi=0.0).psi == 0.0

    def test_deterministic_given_rng_seed(self):
        scenario = small_scenario(seed=37)
        config = OptimizerConfig(noise_var=0.1, max_iters=8)
        a = optimize(scenario, OFDM(8), config, rng=5)
        b = optimize(scenario, OFDM(8), config, rng=5)
        assert np.array_equal(a.tx_surface, b.tx_surface)
        assert np.array_equal(a.objective_trace, b.objective_trace)

    def test_single_path_stops_at_zero_gradient(self):
        # one path: its Gram entries a^H a are fixed norms, so no shape moves
        # the rate or the power and the ascent stops before its first step
        scenario = small_scenario(seed=38, num_paths=1)
        config = OptimizerConfig(noise_var=0.1, max_iters=10)
        result = optimize(scenario, OFDM(8), config, rng=6)
        assert result.iterations_run == 0
        assert result.stop_reason == "zero gradient"
        assert len(result.rate_trace) == 1
