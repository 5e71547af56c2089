"""Tests for the experiment drivers, config parsing, and file emission."""

import filecmp
import json
from dataclasses import fields

import numpy as np
import pytest

from fimsim import (ExperimentConfig, MusicGrid, MusicResult, RateSweepResult,
                    config_from_file, default_grid, emit_results,
                    parse_config_file, run_music_experiment, run_optimize_once,
                    run_rate_sweep)
from fimsim import harness
from fimsim.harness import summarize_rates

from helpers import oracle_csv_text

TINY_RATE = ExperimentConfig(snr_db=(0.0, 10.0), trials=2, seed=3,
                             optimizer_iters=10)
TINY_MUSIC = ExperimentConfig(trials=1, seed=0, optimizer_iters=10,
                              music_grid_step_deg=1.0)


@pytest.fixture(scope="module")
def rate_result():
    return run_rate_sweep(TINY_RATE)


@pytest.fixture(scope="module")
def music_result():
    return run_music_experiment(TINY_MUSIC)


class TestConfig:
    def test_defaults_match_reference_table(self):
        config = ExperimentConfig()
        assert config.carrier_frequency_hz == 28e9
        assert config.sampling_rate_hz == 20e6
        assert config.num_streams == 4
        assert config.max_delay_taps == 8
        assert abs(config.max_doppler_hz - 19413.33) < 20

    def test_noise_monotone_in_snr(self):
        config = ExperimentConfig()
        noise = [config.noise_var_for_snr(s) for s in (0.0, 5.0, 10.0)]
        assert noise[0] > noise[1] > noise[2] > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(snr_db=())
        with pytest.raises(ValueError):
            ExperimentConfig(waveforms=("dft",))
        with pytest.raises(ValueError):
            ExperimentConfig(fim_modes=("flat",))

    @pytest.mark.parametrize("values", [
        dict(block_length=12),                         # OTFS needs a square N
        dict(block_length=8),                          # 120 m reaches tap 8
        dict(block_length=16, max_range_m=240.0),      # tap 16
        dict(optimizer_iters=0),
        dict(music_grid_step_deg=0.0),
        dict(music_grid_step_deg=-1.0),
        dict(symbol_energy=0.0),                       # zero noise variance
        dict(symbol_energy=-1.0),
        dict(symbol_energy=float("nan")),              # would write NaN rates
    ])
    def test_rejects_configs_that_would_fail_mid_run(self, values):
        with pytest.raises(ValueError):
            ExperimentConfig(**values)

    @pytest.mark.parametrize("values", [
        dict(waveforms=("ofdm", "ofdm")),
        dict(waveforms=("OFDM", "afdm", "ofdm")),
        dict(fim_modes=("none", "random", "none")),
        dict(snr_db=(10.0, 10)),
    ])
    def test_rejects_repeated_list_entries(self, values):
        # a repeat would double a summary group's trials and overwrite a
        # spectrum file while adding its peak rows twice
        with pytest.raises(ValueError, match="repeats"):
            ExperimentConfig(**values)

    def test_non_square_block_length_without_otfs(self):
        config = ExperimentConfig(block_length=12, waveforms=("ofdm", "afdm"))
        assert config.block_length == 12


class TestRateSweep:
    def test_record_layout_and_waveform_agreement(self, rate_result):
        result = rate_result
        expected = (len(TINY_RATE.waveforms) * len(TINY_RATE.fim_modes)
                    * len(TINY_RATE.snr_db) * TINY_RATE.trials)
        assert len(result.records) == expected
        by_key = {(r["waveform"], r["fim_mode"], r["snr_db"], r["trial"]):
                  r["rate_bits"] for r in result.records}
        for mode in TINY_RATE.fim_modes:
            for snr in TINY_RATE.snr_db:
                for trial in range(TINY_RATE.trials):
                    rates = [by_key[(w, mode, snr, trial)]
                             for w in TINY_RATE.waveforms]
                    assert max(rates) - min(rates) < 1e-9 * max(rates)

    def test_rate_monotone_in_snr(self, rate_result):
        result = rate_result
        by_key = {(r["waveform"], r["fim_mode"], r["snr_db"], r["trial"]):
                  r["rate_bits"] for r in result.records}
        for mode in TINY_RATE.fim_modes:
            for trial in range(TINY_RATE.trials):
                assert (by_key[("ofdm", mode, 10.0, trial)]
                        > by_key[("ofdm", mode, 0.0, trial)])

    def test_optimized_beats_random_per_trial(self, rate_result):
        result = rate_result
        by_key = {(r["waveform"], r["fim_mode"], r["snr_db"], r["trial"]):
                  r["rate_bits"] for r in result.records}
        for snr in TINY_RATE.snr_db:
            for trial in range(TINY_RATE.trials):
                assert (by_key[("ofdm", "optimized", snr, trial)]
                        >= by_key[("ofdm", "random", snr, trial)])

    def test_deterministic_records(self, rate_result):
        again = run_rate_sweep(TINY_RATE)
        assert again.records == rate_result.records

    def test_one_rate_per_prefix_phase(self, monkeypatch):
        # OFDM and OTFS share the phase-free record and so one rate; AFDM
        # keeps its own, although at even N its phase is an integer
        calls = []
        rate = harness.achievable_rate

        def counted(h, noise_var):
            calls.append(h.shape)
            return rate(h, noise_var)

        monkeypatch.setattr(harness, "achievable_rate", counted)
        config = ExperimentConfig(snr_db=(0.0, 10.0), trials=2, seed=3,
                                  optimizer_iters=2)
        records = run_rate_sweep(config).records
        assert len(calls) == 2 * config.trials * len(config.snr_db) * len(config.fim_modes)
        by_key = {(r["waveform"], r["fim_mode"], r["snr_db"], r["trial"]):
                  r["rate_bits"] for r in records}
        for (name, mode, snr, trial), value in by_key.items():
            if name == "otfs":
                assert value == by_key[("ofdm", mode, snr, trial)]

    def test_reuse_shapes_runs(self):
        config = ExperimentConfig(snr_db=(10.0,), trials=2, seed=3,
                                  optimizer_iters=5, reuse_shapes=True)
        result = run_rate_sweep(config)
        assert len(result.records) == 2 * 3 * 3

    def test_summary_recompute(self, rate_result):
        result = rate_result
        assert summarize_rates(result.records) == result.summary
        group = [s for s in result.summary
                 if s["waveform"] == "ofdm" and s["fim_mode"] == "none"
                 and s["snr_db"] == 10.0][0]
        manual = [r["rate_bits"] for r in result.records
                  if r["waveform"] == "ofdm" and r["fim_mode"] == "none"
                  and r["snr_db"] == 10.0]
        assert np.isclose(group["mean_rate_bits"], np.mean(manual))


class TestRateSweepEmission:
    def test_files_and_determinism(self, tmp_path, rate_result):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        emit_results(rate_result, dir_a)
        emit_results(run_rate_sweep(TINY_RATE), dir_b)
        for name in ("rate_sweep.csv", "rate_summary.csv", "run_metadata.json"):
            assert (dir_a / name).exists()
            assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False)

    def test_round_trip_summary(self, tmp_path, rate_result):
        result = rate_result
        emit_results(result, tmp_path)
        lines = (tmp_path / "rate_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        parsed = [dict(zip(header, line.split(","))) for line in lines[1:]]
        group = [float(r["rate_bits"]) for r in parsed
                 if r["waveform"] == "otfs" and r["fim_mode"] == "random"
                 and float(r["snr_db"]) == 10.0]
        expected = [s["mean_rate_bits"] for s in result.summary
                    if s["waveform"] == "otfs" and s["fim_mode"] == "random"
                    and s["snr_db"] == 10.0][0]
        assert np.isclose(np.mean(group), expected, rtol=1e-10)

    def test_metadata_captures_defaults(self, tmp_path, rate_result):
        emit_results(rate_result, tmp_path)
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert meta["config"]["carrier_frequency_hz"] == 28e9
        assert meta["config"]["max_range_m"] == 120.0
        assert meta["config"]["max_velocity_mps"] == 208.0
        assert meta["derived"]["max_delay_taps"] == 8
        assert meta["seed"] == TINY_RATE.seed
        assert "snr_definition" in meta

    def test_empty_records_headers_only(self, tmp_path):
        from fimsim import RateSweepResult
        empty = RateSweepResult(records=[], summary=[], metadata={"empty": True})
        emit_results(empty, tmp_path)
        assert (tmp_path / "rate_sweep.csv").read_text() == (
            "waveform,fim_mode,snr_db,trial,rate_bits\n")


class TestMusicExperiment:
    def test_peaks_and_grids(self, music_result):
        result = music_result
        combos = [(m, w) for m in TINY_MUSIC.fim_modes for w in TINY_MUSIC.waveforms]
        assert set(result.grids) == set(combos)
        for grid in result.grids.values():
            assert grid.values.max() == 1.0
        scatterers = {(row["fim_mode"], row["waveform"], row["scatterer"])
                      for row in result.peaks}
        assert len(scatterers) == len(combos) * TINY_MUSIC.num_paths

    def test_optimized_recovery_noise_free(self, music_result):
        result = music_result
        for row in result.peaks:
            if row["fim_mode"] == "optimized":
                assert row["error_deg"] <= TINY_MUSIC.music_grid_step_deg

    def test_rejects_too_many_targets(self):
        with pytest.raises(ValueError):
            run_music_experiment(ExperimentConfig(num_paths=4))

    def test_rectangular_receive_array(self):
        # more receive elements than streams (rx 3x2, tx 2x2)
        config = ExperimentConfig(trials=1, seed=0, optimizer_iters=5,
                                  music_grid_step_deg=5.0,
                                  rx_elements_x=3, rx_elements_z=2)
        result = run_music_experiment(config)
        az, el = default_grid(5.0)
        assert len(result.grids) == len(config.fim_modes) * len(config.waveforms)
        for grid in result.grids.values():
            assert np.array_equal(grid.azimuth_rad, az)
            assert np.array_equal(grid.elevation_rad, el)
            assert grid.values.shape == (az.size, el.size)
            assert np.max(10.0 * np.log10(grid.values)) == 0.0

    def test_emission_and_determinism(self, tmp_path, music_result):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        emit_results(music_result, dir_a)
        emit_results(run_music_experiment(TINY_MUSIC), dir_b)
        names = [f"music_spectrum_{m}_{w}.csv"
                 for m in TINY_MUSIC.fim_modes for w in TINY_MUSIC.waveforms]
        names += ["music_peaks.csv", "music_profiles.csv", "run_metadata.json"]
        for name in names:
            assert (dir_a / name).exists(), name
            assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False)

    def test_profiles_cover_both_axes(self, tmp_path, music_result):
        emit_results(music_result, tmp_path)
        lines = (tmp_path / "music_profiles.csv").read_text().splitlines()
        header = lines[0].split(",")
        axes = {dict(zip(header, line.split(",")))["axis"] for line in lines[1:]}
        assert axes == {"azimuth", "elevation"}


PEAK_HEADER = ["fim_mode", "waveform", "scatterer", "true_azimuth_deg",
               "true_elevation_deg", "est_azimuth_deg", "est_elevation_deg",
               "error_deg", "peak_shortfall"]


def oracle_profile_rows(grids, truth_deg):
    """Profile rows built one at a time, grids in insertion order."""
    rows = []
    for (mode, name), grid in grids.items():
        db = 10.0 * np.log10(grid.values)
        az = np.rad2deg(grid.azimuth_rad)
        el = np.rad2deg(grid.elevation_rad)
        for k, (t_az, t_el) in enumerate(truth_deg):
            i0 = int(np.argmin(np.abs(az - t_az)))
            j0 = int(np.argmin(np.abs(el - t_el)))
            rows += [(mode, name, k, "elevation", el[j], db[i0, j])
                     for j in range(el.size)]
            rows += [(mode, name, k, "azimuth", az[i], db[i, j0])
                     for i in range(az.size)]
    return rows


class TestCsvAgainstOracle:
    """Every emitted CSV matches a writer that formats one value at a time."""

    def test_rate_sweep_files(self, tmp_path):
        nan = float("nan")
        records = [
            {"waveform": "ofdm", "fim_mode": "none", "snr_db": -0.0, "trial": 0,
             "rate_bits": nan},
            {"waveform": "ofdm", "fim_mode": "random", "snr_db": 1e-300,
             "trial": 12345678901234, "rate_bits": 123456789012.5},
            {"waveform": "afdm", "fim_mode": "optimized", "snr_db": 12.5,
             "trial": 12, "rate_bits": 1.0 / 3.0},
        ]
        summary = [
            {"waveform": "ofdm", "fim_mode": "none", "snr_db": 0.0,
             "mean_rate_bits": 2.0, "stderr_rate_bits": 0.0, "trials": 1},
            {"waveform": "afdm", "fim_mode": "optimized", "snr_db": -3.25,
             "mean_rate_bits": nan, "stderr_rate_bits": 1e-300, "trials": 10},
        ]
        emit_results(RateSweepResult(records=records, summary=summary,
                                     metadata={}), tmp_path)
        for name, rows in (("rate_sweep.csv", records), ("rate_summary.csv", summary)):
            header = list(rows[0])
            expected = oracle_csv_text(header, [[r[h] for h in header] for r in rows])
            assert (tmp_path / name).read_text() == expected

    def test_music_files(self, tmp_path):
        values = np.array([[0.25, 1e-300], [1.0, 0.5], [0.125, 1.0 / 3.0]])
        wide = MusicGrid(azimuth_rad=np.deg2rad([-0.0, 45.0, 90.0]),
                         elevation_rad=np.deg2rad([0.0, 123.456]), values=values)
        single = MusicGrid(azimuth_rad=np.array([0.1]),
                           elevation_rad=np.array([1.2]), values=np.ones((1, 1)))
        # insertion order differs from the sorted order of the file names
        grids = {("optimized", "otfs"): wide, ("none", "ofdm"): single,
                 ("none", "afdm"): wide}
        truth = [[44.0, 100.0], [-1.0, 0.0]]
        nan = float("nan")
        peaks = [
            {"fim_mode": "optimized", "waveform": "otfs", "scatterer": 0,
             "true_azimuth_deg": 44.0, "true_elevation_deg": 100.0,
             "est_azimuth_deg": nan, "est_elevation_deg": nan,
             "error_deg": nan, "peak_shortfall": True},
            {"fim_mode": "none", "waveform": "ofdm", "scatterer": 1,
             "true_azimuth_deg": -1.0, "true_elevation_deg": 0.0,
             "est_azimuth_deg": -0.0, "est_elevation_deg": 123456789012.5,
             "error_deg": 1e-300, "peak_shortfall": False},
        ]
        result = MusicResult(grids=grids, peaks=peaks,
                             metadata={"true_angles_deg": truth})
        emit_results(result, tmp_path)
        for (mode, name), grid in grids.items():
            db = 10.0 * np.log10(grid.values)
            rows = [(az, el, db[i, j])
                    for i, az in enumerate(np.rad2deg(grid.azimuth_rad))
                    for j, el in enumerate(np.rad2deg(grid.elevation_rad))]
            text = (tmp_path / f"music_spectrum_{mode}_{name}.csv").read_text()
            assert text == oracle_csv_text(
                ["azimuth_deg", "elevation_deg", "value_db"], rows)
        assert "-0,0,-6.02059991328\n" in (
            tmp_path / "music_spectrum_none_afdm.csv").read_text()
        assert (tmp_path / "music_spectrum_none_ofdm.csv").read_text().endswith(
            "5.72957795131,68.7549354157,0\n")
        assert (tmp_path / "music_peaks.csv").read_text() == oracle_csv_text(
            PEAK_HEADER, [[r[h] for h in PEAK_HEADER] for r in peaks])
        assert (tmp_path / "music_profiles.csv").read_text() == oracle_csv_text(
            ["fim_mode", "waveform", "scatterer", "axis", "angle_deg", "value_db"],
            oracle_profile_rows(grids, truth))

    def test_empty_results(self, tmp_path):
        emit_results(RateSweepResult(records=[], summary=[], metadata={}), tmp_path)
        emit_results(MusicResult(grids={}, peaks=[],
                                 metadata={"true_angles_deg": [[0.0, 90.0]]}),
                     tmp_path)
        assert (tmp_path / "rate_summary.csv").read_text() == (
            "waveform,fim_mode,snr_db,mean_rate_bits,stderr_rate_bits,trials\n")
        assert (tmp_path / "music_peaks.csv").read_text() == oracle_csv_text(
            PEAK_HEADER, [])
        assert (tmp_path / "music_profiles.csv").read_text() == (
            "fim_mode,waveform,scatterer,axis,angle_deg,value_db\n")


class TestOptimizeOnce:
    def test_smoke_and_emission(self, tmp_path):
        config = ExperimentConfig(seed=4, optimizer_iters=8)
        result = run_optimize_once(config)
        trace = result.result.objective_trace
        assert np.all(np.diff(trace) >= 0.0)
        emit_results(result, tmp_path)
        payload = json.loads((tmp_path / "optimized_surfaces.json").read_text())
        assert len(payload["tx_surface_m"]) == 4
        assert payload["iterations_run"] == len(trace) - 1


class TestConfigFile:
    SAMPLE = """\
# sample experiment
carrier_frequency_hz = 28e9
block_length = 16
num_paths = 2
waveforms = ofdm, afdm
snr_db = 0, 10
trials = 3
seed = 9
reuse_shapes = true
music_snr_db = none
"""

    def test_parse_and_build(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(self.SAMPLE)
        config = config_from_file(path)
        assert config.waveforms == ("ofdm", "afdm")
        assert config.snr_db == (0.0, 10.0)
        assert config.trials == 3 and config.seed == 9
        assert config.reuse_shapes is True
        assert config.music_snr_db is None

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(self.SAMPLE)
        config = config_from_file(path, seed=77, trials=1)
        assert config.seed == 77 and config.trials == 1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("carrier_ghz = 28\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("block_length 16\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    NON_DEFAULT = ExperimentConfig(
        carrier_frequency_hz=30e9, sampling_rate_hz=25e6, block_length=25,
        num_paths=3, tx_elements_x=3, tx_elements_z=1, rx_elements_x=1,
        rx_elements_z=4, max_range_m=100.0, max_velocity_mps=150.0,
        y_min_m=-0.005, y_max_m=0.004, waveforms=("afdm", "otfs"),
        fim_modes=("optimized", "none"), snr_db=(-5.0, 12.5), trials=4, seed=11,
        reuse_shapes=True, beta=1.5, psi_fraction=0.6, optimizer_iters=7,
        optimizer_snr_db=3.0, music_grid_step_deg=2.5, music_snr_db=10.0,
        symbol_energy=2.0, out_dir="elsewhere")

    @pytest.mark.parametrize("config", [ExperimentConfig(), NON_DEFAULT],
                             ids=["default", "non-default"])
    def test_metadata_config_round_trips(self, tmp_path, config):
        # the recorded config, written back as a config file, rebuilds the
        # same config, the inherited scenario fields included
        recorded = config.metadata("rate_sweep")["config"]
        assert set(recorded) == {f.name for f in fields(ExperimentConfig)}

        def text(value):
            if value is None:
                return "none"
            if isinstance(value, list):
                return ", ".join(map(str, value))
            return str(value)

        path = tmp_path / "exp.cfg"
        path.write_text("".join(f"{k} = {text(v)}\n" for k, v in recorded.items()))
        assert config_from_file(path) == config

    def test_non_default_config_sets_every_field(self):
        for f in fields(ExperimentConfig):
            assert getattr(self.NON_DEFAULT, f.name) != f.default, f.name

    def test_bad_boolean_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("reuse_shapes = maybe\n")
        with pytest.raises(ValueError):
            parse_config_file(path)
