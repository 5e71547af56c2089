"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see
them).  Tolerances are fixed here and nowhere else.
"""

import filecmp
import time

import numpy as np

from fimsim import (OTFS, ExperimentConfig, ScenarioParams,
                    achievable_rate, assemble_effective_td, channel_power,
                    cp_phase_function, domain_transform, effective_channel,
                    emit_results, objective_gradient, optimize,
                    random_scenario, random_surface, run_music_experiment,
                    run_rate_sweep, waveform_factors, waveform_for)

from helpers import (cp_phase_matrix, cyclic_shift_matrix, doppler_matrix,
                     oracle_td_channel, path_time_matrix, penalized_objective,
                     relative_error, small_params)

GRID_STEP_DEG = 1.0
FD_REL_TOL = 1e-5
RATE_REL_TOL = 1e-9
ORACLE_ABS_TOL = 1e-10
UNITARY_TOL = 1e-12
CONSTANT_REL_TOL = 1e-3
ASCENT_TRIALS = 50


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def test_criterion_1_gradient_correctness():
    """Closed-form objective gradients vs central finite differences."""
    start = time.time()
    worst = 0.0
    waveform_names = ("ofdm", "otfs", "afdm")
    for case in range(20):
        num_paths = 2 if case % 2 == 0 else 5
        params = small_params(block_length=8, num_paths=num_paths)
        scenario = random_scenario(params, np.random.default_rng(1000 + case))
        rng = np.random.default_rng(2000 + case)
        lam = scenario.tx_geometry.wavelength
        y_t = random_surface(scenario.tx_geometry, rng)
        y_r = random_surface(scenario.rx_geometry, rng)
        name = waveform_names[case % 3]
        if name == "otfs":
            spec = OTFS(delay_bins=2, doppler_bins=4)  # 8-sample frame
        else:
            spec = waveform_for(name, scenario)
        noise_var = 0.1
        beta = 2.0
        h = effective_channel(spec, scenario, y_t, y_r)
        # alternate between an inactive and an active power floor
        psi = (0.8 if case % 2 == 0 else 1.2) * channel_power(h)
        gradient = objective_gradient(spec, scenario, y_t, y_r, noise_var, beta, psi)
        step = 1e-7 * lam

        def objective_at(y_t_v, y_r_v):
            h_v = effective_channel(spec, scenario, y_t_v, y_r_v)
            return penalized_objective(h_v, noise_var, beta, psi)[0]

        for side, offset, base in (("tx", 0, y_t), ("rx", y_t.size, y_r)):
            for element in range(4):
                analytic = gradient[offset + element]
                up, dn = base.copy(), base.copy()
                up[element] += step
                dn[element] -= step
                if side == "tx":
                    fd = (objective_at(up, y_r) - objective_at(dn, y_r)) / (2 * step)
                else:
                    fd = (objective_at(y_t, up) - objective_at(y_t, dn)) / (2 * step)
                worst = max(worst, relative_error(analytic, fd))
    elapsed = time.time() - start
    report(1, "gradient elements match finite differences",
           worst <= FD_REL_TOL and elapsed < 60.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_waveform_rate_invariance():
    """OFDM, OTFS, and AFDM rates coincide on identical scenarios."""
    start = time.time()
    worst = 0.0
    for block_length, num_paths, seed in ((16, 2, 0), (16, 5, 1), (64, 2, 2), (64, 5, 3)):
        params = ScenarioParams(block_length=block_length, num_paths=num_paths)
        scenario = random_scenario(params, np.random.default_rng(seed))
        rng = np.random.default_rng(100 + seed)
        y_t = random_surface(scenario.tx_geometry, rng)
        y_r = random_surface(scenario.rx_geometry, rng)
        rates = [achievable_rate(effective_channel(waveform_for(n, scenario),
                                                   scenario, y_t, y_r), 0.05)
                 for n in ("ofdm", "otfs", "afdm")]
        worst = max(worst, (max(rates) - min(rates)) / max(rates))
    elapsed = time.time() - start
    report(2, "achievable rate is waveform invariant (N in {16, 64})",
           worst <= RATE_REL_TOL and elapsed < 60.0,
           f"worst rel spread {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_channel_assembly_oracle():
    """Kronecker-assembled block channel equals the sample-domain sum."""
    worst = 0.0
    cases = [
        dict(block_length=8, num_paths=2, seed=11),
        dict(block_length=16, num_paths=5, seed=12),
        dict(block_length=12, num_paths=3, seed=13,
             tx_elements_x=2, tx_elements_z=1),   # rectangular: d_s = 2
    ]
    for case in cases:
        seed = case.pop("seed")
        params = small_params(**case)
        scenario = random_scenario(params, np.random.default_rng(seed))
        rng = np.random.default_rng(50 + seed)
        y_t = random_surface(scenario.tx_geometry, rng)
        y_r = random_surface(scenario.rx_geometry, rng)
        for phase_fn in (None, lambda m: 0.02 * (scenario.block_length ** 2
                                                 - 2 * scenario.block_length * m)):
            built = assemble_effective_td(scenario, y_t, y_r, phase_fn)
            oracle = oracle_td_channel(scenario, y_t, y_r, phase_fn)
            worst = max(worst, float(np.max(np.abs(built - oracle))))
    report(3, "block channel matches brute-force evaluation",
           worst <= ORACLE_ABS_TOL, f"worst abs err {worst:.2e}")


def test_criterion_4_unitarity_suite():
    """Every time-matrix factor and domain transform is unitary, and the
    library's monomial time record (unit-modulus ramps on permuted
    columns) expands to the dense oracle factors."""
    worst = 0.0
    record_ok = True

    def unitary_defect(mat):
        return float(np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))))

    params = small_params(block_length=16, num_paths=5)
    scenario = random_scenario(params, np.random.default_rng(7))
    n = scenario.block_length
    for path in scenario.paths:
        ell = path.delay_taps(scenario.sampling_rate_hz)
        f = path.normalized_doppler(n, scenario.sampling_rate_hz)
        worst = max(worst, unitary_defect(cyclic_shift_matrix(n, ell)))
        worst = max(worst, unitary_defect(doppler_matrix(n, f)))
        for name in ("ofdm", "otfs", "afdm"):
            spec = waveform_for(name, scenario)
            phase = cp_phase_function(spec)
            worst = max(worst, unitary_defect(cp_phase_matrix(n, ell, phase)))
            worst = max(worst, unitary_defect(path_time_matrix(scenario, path, phase)))
    for name in ("ofdm", "otfs", "afdm"):
        spec = waveform_for(name, scenario)
        worst = max(worst, unitary_defect(domain_transform(spec)))
        record = waveform_factors(spec, scenario)
        worst = max(worst, float(np.max(np.abs(np.abs(record.ramps) - 1.0))))
        for path, cols, ramp in zip(scenario.paths, record.columns, record.ramps):
            record_ok &= bool(np.array_equal(np.sort(cols), np.arange(n)))
            dense = np.zeros((n, n), dtype=complex)
            dense[np.arange(n), cols] = ramp
            oracle = path_time_matrix(scenario, path, cp_phase_function(spec))
            record_ok &= float(np.max(np.abs(dense - oracle))) <= 1e-12
    full_cycle = np.max(np.abs(np.linalg.matrix_power(cyclic_shift_matrix(n, 1), n)
                               - np.eye(n)))
    report(4, "shift/Doppler/prefix factors, transforms and time record unitary",
           worst <= UNITARY_TOL and full_cycle == 0.0 and record_ok,
           f"worst defect {worst:.2e}")


def test_criterion_5_ascent_and_ordering():
    """Monotone ascent; optimized >= random-init rate on every trial; the
    optimized mean beats the flat baseline at 10 dB SNR, N = 16."""
    start = time.time()
    config = ExperimentConfig(snr_db=(10.0,), trials=ASCENT_TRIALS, seed=42,
                              optimizer_iters=30)
    noise_var = config.noise_var_for_snr(10.0)
    trial_seeds = np.random.SeedSequence(config.seed).spawn(config.trials)
    flat_rates, random_rates, optimized_rates = [], [], []
    all_monotone = True
    ordering_holds = 0
    for trial in range(config.trials):
        scen_rng, surf_rng = (np.random.default_rng(s)
                              for s in trial_seeds[trial].spawn(2))
        scenario = random_scenario(config, scen_rng)
        spec = waveform_for("ofdm", scenario)
        y_rand_t = random_surface(scenario.tx_geometry, surf_rng)
        y_rand_r = random_surface(scenario.rx_geometry, surf_rng)
        flat_rates.append(achievable_rate(effective_channel(
            spec, scenario, scenario.tx_geometry.flat_surface(),
            scenario.rx_geometry.flat_surface()), noise_var))
        random_rates.append(achievable_rate(effective_channel(
            spec, scenario, y_rand_t, y_rand_r), noise_var))
        result = optimize(scenario, spec, config.optimizer_config(noise_var),
                          init_tx=y_rand_t, init_rx=y_rand_r)
        optimized_rates.append(achievable_rate(effective_channel(
            spec, scenario, result.tx_surface, result.rx_surface), noise_var))
        all_monotone &= bool(np.all(np.diff(result.objective_trace) >= 0.0))
        ordering_holds += optimized_rates[-1] >= random_rates[-1]
    elapsed = time.time() - start
    mean_flat = float(np.mean(flat_rates))
    mean_opt = float(np.mean(optimized_rates))
    ok = (all_monotone and ordering_holds == config.trials
          and mean_opt > mean_flat and elapsed < 600.0)
    report(5, "ascent monotone and rate ordering holds", ok,
           f"ordering {ordering_holds}/{config.trials}, mean flat {mean_flat:.1f}, "
           f"mean optimized {mean_opt:.1f} bits, {elapsed:.0f}s")


def test_criterion_6_music_recovery():
    """Noise-free 2-target recovery with optimized surfaces within one grid
    step for every waveform; flat surfaces misassign on some of 20 seeds."""
    config = ExperimentConfig(trials=1, seed=0, optimizer_iters=60,
                              music_grid_step_deg=GRID_STEP_DEG)
    result = run_music_experiment(config)
    worst = max(row["error_deg"] for row in result.peaks
                if row["fim_mode"] == "optimized")
    recovered = worst <= GRID_STEP_DEG

    flat_config_base = dict(trials=1, optimizer_iters=1,
                            music_grid_step_deg=GRID_STEP_DEG,
                            fim_modes=("none",))
    misassigned = 0
    for seed in range(20):
        flat = run_music_experiment(ExperimentConfig(seed=seed, **flat_config_base))
        err = max(row["error_deg"] for row in flat.peaks)
        misassigned += err > GRID_STEP_DEG
    report(6, "2D angle recovery with optimized surfaces", recovered and misassigned >= 1,
           f"worst optimized error {worst:.2f} deg across ofdm/otfs/afdm; "
           f"flat surfaces misassigned on {misassigned}/20 seeds")


def test_criterion_7_derived_constants():
    """Doppler and delay bounds derived from the default configuration."""
    params = ScenarioParams()
    doppler_ok = abs(params.max_doppler_hz - 19.41e3) <= CONSTANT_REL_TOL * 19.41e3
    taps_ok = abs(params.max_delay_taps - 8) <= CONSTANT_REL_TOL * 8
    report(7, "derived Doppler/delay constants",
           doppler_ok and taps_ok,
           f"max Doppler {params.max_doppler_hz / 1e3:.3f} kHz, "
           f"max tap {params.max_delay_taps}")


def test_criterion_8_determinism(tmp_path):
    """Identical (config, seed) produces byte-identical files."""
    rate_config = ExperimentConfig(snr_db=(0.0, 10.0), trials=2, seed=9,
                                   optimizer_iters=5)
    music_config = ExperimentConfig(trials=1, seed=3, optimizer_iters=5,
                                    music_grid_step_deg=5.0)
    identical = True
    for label, config, runner in (("rate", rate_config, run_rate_sweep),
                                  ("music", music_config, run_music_experiment)):
        dir_a = tmp_path / f"{label}_a"
        dir_b = tmp_path / f"{label}_b"
        paths_a = emit_results(runner(config), dir_a)
        paths_b = emit_results(runner(config), dir_b)
        for pa, pb in zip(paths_a, paths_b):
            identical &= filecmp.cmp(pa, pb, shallow=False)
    report(8, "byte-identical outputs for identical config and seed", identical)
