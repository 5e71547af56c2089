"""The benchmark's own checks: the reference agrees with fimsim, the checks
accept real CLI outputs, and each check rejects a corrupted copy of one.

    python3 -m pytest bench/tests -q
"""

import csv
import json
import shutil

import numpy as np
import pytest

import checks
import reference
from fimsim import (ScenarioParams, achievable_rate, assemble_effective_td,
                    effective_channel, random_scenario, random_surface, waveform_for)
from fimsim.cli import main as fimsim_main


@pytest.mark.parametrize("n, paths, nx, nz, seed", [
    (16, 2, 2, 2, 0), (16, 3, 3, 3, 1), (36, 2, 2, 2, 2), (64, 5, 2, 2, 3)])
def test_reference_channel_and_rate_match_fimsim(n, paths, nx, nz, seed):
    params = ScenarioParams(block_length=n, num_paths=paths, tx_elements_x=nx,
                            tx_elements_z=nz, rx_elements_x=nx, rx_elements_z=nz)
    rng = np.random.default_rng(seed)
    scenario = random_scenario(params, rng)
    y_t = random_surface(scenario.tx_geometry, rng)
    y_r = random_surface(scenario.rx_geometry, rng)
    h_ref = reference.sample_channel(scenario, y_t, y_r)
    np.testing.assert_allclose(h_ref, assemble_effective_td(scenario, y_t, y_r),
                               rtol=0, atol=1e-12)
    eig = reference.gram_eigenvalues(h_ref)
    for name in ("ofdm", "otfs", "afdm"):
        h = effective_channel(waveform_for(name, scenario), scenario, y_t, y_r)
        for sigma2 in (0.5, 0.01):
            assert reference.rate_bits(eig, sigma2) == pytest.approx(
                achievable_rate(h, sigma2), rel=1e-12)


def _cli(tmp_path_factory, name, subcommand, config):
    out = tmp_path_factory.mktemp(name)
    cfg = out / "workload.cfg"
    cfg.write_text(config)
    assert fimsim_main([subcommand, "--config", str(cfg), "--seed", "3",
                        "--out", str(out / "out")]) == 0
    return str(out / "out")


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    return _cli(tmp_path_factory, "sweep", "rate-sweep",
                "trials = 2\nsnr_db = 0, 10\noptimizer_iters = 3\n")


@pytest.fixture(scope="module")
def once_dir(tmp_path_factory):
    return _cli(tmp_path_factory, "once", "optimize-once", "optimizer_iters = 5\n")


@pytest.fixture(scope="module")
def music_dir(tmp_path_factory):
    return _cli(tmp_path_factory, "music", "music",
                "music_grid_step_deg = 2\noptimizer_iters = 3\n")


def _corrupt(src, tmp_path, name, edit):
    """Copy an output directory and apply ``edit`` to the text of one file."""
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text()))
    return str(dst)


def _edit_rows(change_rows):
    """An edit that parses a CSV text, lets ``change_rows`` modify its rows
    in place, and writes them back."""
    def edit(text):
        rows = list(csv.DictReader(text.splitlines()))
        change_rows(rows)
        lines = [",".join(rows[0].keys())] + [",".join(r.values()) for r in rows]
        return "\n".join(lines) + "\n"
    return edit


def _edit_csv(match, column, change):
    """An edit that applies ``change`` to ``column`` of the first row for
    which ``match`` holds."""
    def change_rows(rows):
        row = next(r for r in rows if match(r))
        row[column] = change(row[column])
    return _edit_rows(change_rows)


def _edit_json(change):
    def edit(text):
        data = json.loads(text)
        change(data)
        return json.dumps(data)
    return edit


def test_checks_accept_real_outputs(sweep_dir, once_dir, music_dir):
    assert checks.check_rate_sweep(sweep_dir) == []
    assert checks.check_optimize_once(once_dir) == []
    assert checks.check_music(music_dir) == []


def nudge(value):
    return repr(float(value) * (1.0 + 1e-6))


@pytest.mark.parametrize("mode", ["none", "random", "optimized"])
def test_sweep_rejects_nudged_rate(sweep_dir, tmp_path, mode):
    bad = _corrupt(sweep_dir, tmp_path, "rate_sweep.csv", _edit_csv(
        lambda r: r["fim_mode"] == mode and r["waveform"] == "afdm", "rate_bits", nudge))
    assert checks.check_rate_sweep(bad)


def test_sweep_rejects_optimized_below_floor(sweep_dir, tmp_path):
    """Optimized rates of one (trial, SNR) set 1 bit below the random rate,
    equal across waveforms so only the ascent's floor catches them."""
    def change_rows(rows):
        random = next(float(r["rate_bits"]) for r in rows
                      if r["fim_mode"] == "random" and r["trial"] == "0"
                      and float(r["snr_db"]) == 10.0)
        for r in rows:
            if (r["fim_mode"] == "optimized" and r["trial"] == "0"
                    and float(r["snr_db"]) == 10.0):
                r["rate_bits"] = repr(random - 1.0)
    problems = checks.check_rate_sweep(
        _corrupt(sweep_dir, tmp_path, "rate_sweep.csv", _edit_rows(change_rows)))
    assert any("below the ascent's floor" in p for p in problems), problems


def test_sweep_rejects_nudged_summary(sweep_dir, tmp_path):
    bad = _corrupt(sweep_dir, tmp_path, "rate_summary.csv", _edit_csv(
        lambda r: True, "mean_rate_bits", nudge))
    assert checks.check_rate_sweep(bad)


def test_sweep_rejects_dropped_row(sweep_dir, tmp_path):
    bad = _corrupt(sweep_dir, tmp_path, "rate_sweep.csv",
                   lambda text: "".join(text.splitlines(keepends=True)[:-1]))
    assert checks.check_rate_sweep(bad)


def test_once_rejects_decreasing_objective(once_dir, tmp_path):
    def drop(d):
        d["objective_trace"][-1] = d["objective_trace"][-2] - 1e-9
    assert checks.check_optimize_once(
        _corrupt(once_dir, tmp_path, "optimized_surfaces.json", _edit_json(drop)))


@pytest.mark.parametrize("key", ["rate_trace", "slack_trace", "sensing_threshold"])
def test_once_rejects_nudged_value(once_dir, tmp_path, key):
    def change(d):
        if key == "sensing_threshold":
            d[key] *= 1.0 + 1e-6
        else:
            d[key][-1] = d[key][-1] * (1.0 + 1e-6) - 1e-3
    assert checks.check_optimize_once(
        _corrupt(once_dir, tmp_path, "optimized_surfaces.json", _edit_json(change)))


def test_once_rejects_surface_out_of_bounds(once_dir, tmp_path):
    def change(d):
        d["tx_surface_m"][0] = 1.0
    assert checks.check_optimize_once(
        _corrupt(once_dir, tmp_path, "optimized_surfaces.json", _edit_json(change)))


def test_music_accepts_near_coincident_targets(tmp_path):
    """Seed 7011 draws two targets 0.2 degrees apart; the spectra then agree
    with the reference only to about 3e-6 dB, within the scaled tolerance."""
    cfg = tmp_path / "workload.cfg"
    cfg.write_text("optimizer_iters = 2\n")
    out = str(tmp_path / "out")
    assert fimsim_main(["music", "--config", str(cfg), "--seed", "7011", "--out", out]) == 0
    assert checks.check_music(out) == []


def test_music_rejects_dropped_spectrum_row(music_dir, tmp_path):
    bad = _corrupt(music_dir, tmp_path, "music_spectrum_random_ofdm.csv",
                   lambda text: "".join(text.splitlines(keepends=True)[:-1]))
    assert checks.check_music(bad)


def test_music_rejects_nudged_none_spectrum(music_dir, tmp_path):
    bad = _corrupt(music_dir, tmp_path, "music_spectrum_none_otfs.csv", _edit_csv(
        lambda r: float(r["value_db"]) < -1.0, "value_db",
        lambda v: repr(float(v) + 1e-5)))
    assert checks.check_music(bad)


@pytest.mark.parametrize("name, column", [
    ("music_peaks.csv", "error_deg"), ("music_profiles.csv", "value_db")])
def test_music_rejects_altered_rows(music_dir, tmp_path, name, column):
    bad = _corrupt(music_dir, tmp_path, name, _edit_csv(
        lambda r: r["fim_mode"] == "optimized", column, lambda v: repr(float(v) - 1e-6)))
    assert checks.check_music(bad)


def test_music_rejects_estimate_off_peak(music_dir, tmp_path):
    """An estimate moved one grid step, with its error_deg kept consistent."""
    def change_rows(rows):
        row = next(r for r in rows if r["fim_mode"] == "random")
        az = float(row["est_azimuth_deg"])
        az += 2.0 if az < 88.0 else -2.0
        row["est_azimuth_deg"] = repr(az)
        row["error_deg"] = repr(max(abs(float(row["true_azimuth_deg"]) - az),
                                    abs(float(row["true_elevation_deg"])
                                        - float(row["est_elevation_deg"]))))
    problems = checks.check_music(
        _corrupt(music_dir, tmp_path, "music_peaks.csv", _edit_rows(change_rows)))
    assert any("strict local maximum" in p for p in problems), problems
