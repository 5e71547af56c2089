"""Correctness checks on the files one fimsim CLI run wrote.

Each ``check_*`` function takes the output directory and returns a list of
problems, empty when the outputs are correct.  The checks test properties
and recompute values independently (see ``reference``); none of them
compares against stored bytes or saved numbers, because the ascent forks
on roundoff and its outputs differ with the BLAS thread count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict

import numpy as np

import reference

RATE_RTOL = 1e-9          # rates, powers and slacks against the reference
SPECTRUM_ATOL_DB = 1e-6   # none-mode MUSIC spectra against the reference, but
# fimsim takes the noise subspace from an eigendecomposition of the sample
# covariance, whose error grows with the square of the condition number of
# the true steering matrix: targets 0.2 degrees apart (condition 4e3) put
# the spectra 2.6e-6 dB apart.  The tolerance grows with it past ~200.
SPECTRUM_COND_SCALE_DB = 1e5 * np.finfo(float).eps
ANGLE_ATOL_DEG = 1e-9     # grid angles as written with 12 significant digits


def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_config(out_dir) -> dict:
    with open(os.path.join(out_dir, "run_metadata.json"), encoding="utf-8") as fh:
        return json.load(fh)["config"]


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# -- rate-sweep -------------------------------------------------------------

def check_rate_sweep(out_dir) -> list:
    cfg = read_config(out_dir)
    problems = []
    rates = {}
    for row in read_csv(os.path.join(out_dir, "rate_sweep.csv")):
        key = (int(row["trial"]), float(row["snr_db"]), row["waveform"], row["fim_mode"])
        value = float(row["rate_bits"])
        if key in rates:
            problems.append(f"duplicate rate row {key}")
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"rate {value} at {key} is not finite and positive")
        rates[key] = value
    expected = {(t, float(s), w, m) for t in range(cfg["trials"]) for s in cfg["snr_db"]
                for w in cfg["waveforms"] for m in cfg["fim_modes"]}
    if set(rates) != expected:
        problems.append(f"rate rows cover {len(rates)} of {len(expected)} expected keys"
                        f" (missing {sorted(expected - set(rates))[:3]},"
                        f" extra {sorted(set(rates) - expected)[:3]})")
        return problems

    snrs = sorted(float(s) for s in cfg["snr_db"])
    for t in range(cfg["trials"]):
        for s in snrs:
            for m in cfg["fim_modes"]:
                vals = [rates[(t, s, w, m)] for w in cfg["waveforms"]]
                if _rel(max(vals), min(vals)) > RATE_RTOL:
                    problems.append(f"waveform rates differ at trial {t}, {s} dB, {m}: {vals}")
        for w in cfg["waveforms"]:
            for m in ("none", "random"):
                if m not in cfg["fim_modes"]:
                    continue
                seq = [rates[(t, s, w, m)] for s in snrs]
                if any(b <= a for a, b in zip(seq, seq[1:])):
                    problems.append(f"{m} rate does not rise with SNR at trial {t}, {w}: {seq}")
        problems += _check_trial_reference(cfg, t, snrs, rates)
    problems += _check_summary(out_dir, rates)
    return problems


def _check_trial_reference(cfg, t, snrs, rates) -> list:
    """Flat and random rates against the reference; optimized rates against
    the bound the ascent guarantees.  The ascent starts at the random
    surfaces and never lowers rate + beta * slack, and slack <= 0, so the
    optimized rate is at least the random rate plus beta times the random
    surfaces' slack (which is 0 unless they miss the power floor)."""
    scenario, random_pair = reference.sweep_trial(cfg, t)
    flat = reference.sample_channel(scenario, reference.flat_surface(scenario.tx_geometry),
                                    reference.flat_surface(scenario.rx_geometry))
    rand = reference.sample_channel(scenario, *random_pair)
    psi = cfg["psi_fraction"] * reference.power(flat)
    slack = min(reference.power(rand) - psi, 0.0)
    eig = {"none": reference.gram_eigenvalues(flat), "random": reference.gram_eigenvalues(rand)}
    problems = []
    for s in snrs:
        for m in ("none", "random"):
            if m not in cfg["fim_modes"]:
                continue
            ref = reference.rate_bits(eig[m], reference.noise_var(cfg, s))
            for w in cfg["waveforms"]:
                if _rel(rates[(t, s, w, m)], ref) > RATE_RTOL:
                    problems.append(f"{m} rate {rates[(t, s, w, m)]} at trial {t}, {s} dB,"
                                    f" {w} differs from reference {ref}")
        if {"random", "optimized"} <= set(cfg["fim_modes"]):
            for w in cfg["waveforms"]:
                floor = rates[(t, s, w, "random")] + cfg["beta"] * slack
                if rates[(t, s, w, "optimized")] < floor - RATE_RTOL * abs(floor):
                    problems.append(f"optimized rate {rates[(t, s, w, 'optimized')]} at trial"
                                    f" {t}, {s} dB, {w} is below the ascent's floor {floor}")
    return problems


def _check_summary(out_dir, rates) -> list:
    groups = defaultdict(list)
    for (_, s, w, m), value in rates.items():
        groups[(w, m, s)].append(value)
    problems = []
    rows = read_csv(os.path.join(out_dir, "rate_summary.csv"))
    seen = set()
    for row in rows:
        key = (row["waveform"], row["fim_mode"], float(row["snr_db"]))
        seen.add(key)
        vals = np.asarray(groups.get(key, []))
        if vals.size == 0 or int(row["trials"]) != vals.size:
            problems.append(f"summary row {key} counts {row['trials']} trials,"
                            f" rate_sweep.csv has {vals.size}")
            continue
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        if abs(float(row["mean_rate_bits"]) - mean) > RATE_RTOL * abs(mean):
            problems.append(f"summary mean {row['mean_rate_bits']} at {key}, recomputed {mean}")
        if abs(float(row["stderr_rate_bits"]) - stderr) > RATE_RTOL * (abs(mean) + stderr):
            problems.append(f"summary stderr {row['stderr_rate_bits']} at {key},"
                            f" recomputed {stderr}")
    if seen != set(groups) or len(rows) != len(groups):
        problems.append(f"summary has {len(rows)} rows for {len(groups)} groups")
    return problems


def sweep_opt_rate(out_dir) -> float:
    """Mean rate of the optimized rows."""
    vals = [float(r["rate_bits"]) for r in read_csv(os.path.join(out_dir, "rate_sweep.csv"))
            if r["fim_mode"] == "optimized"]
    return float(np.mean(vals))


# -- optimize-once ----------------------------------------------------------

def read_optimized(out_dir) -> dict:
    with open(os.path.join(out_dir, "optimized_surfaces.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_optimize_once(out_dir) -> list:
    cfg = read_config(out_dir)
    out = read_optimized(out_dir)
    problems = []
    obj, rate, slack = out["objective_trace"], out["rate_trace"], out["slack_trace"]
    if not len(obj) == len(rate) == len(slack) == out["iterations_run"] + 1:
        problems.append(f"trace lengths {len(obj)}, {len(rate)}, {len(slack)} for"
                        f" {out['iterations_run']} iterations")
    if any(b < a for a, b in zip(obj, obj[1:])):
        problems.append("objective trace decreases")

    lo, hi = reference.morphing_bounds(cfg)
    for side in ("tx_surface_m", "rx_surface_m"):
        y = np.asarray(out[side])
        if np.any(y < lo) or np.any(y > hi):
            problems.append(f"{side} leaves the morphing range [{lo}, {hi}]")

    scenario = reference.single_scenario(cfg)
    h = reference.sample_channel(scenario, out["tx_surface_m"], out["rx_surface_m"])
    ref_rate = reference.rate_bits(reference.gram_eigenvalues(h),
                                   reference.noise_var(cfg, cfg["optimizer_snr_db"]))
    if _rel(rate[-1], ref_rate) > RATE_RTOL:
        problems.append(f"final rate {rate[-1]} differs from reference {ref_rate}")

    power = reference.power(h)
    psi = out["sensing_threshold"]
    ref_slack = min(power - psi, 0.0)
    if abs(slack[-1] - ref_slack) > RATE_RTOL * power:
        problems.append(f"final slack {slack[-1]} differs from reference {ref_slack}")
    flat = reference.sample_channel(scenario, reference.flat_surface(scenario.tx_geometry),
                                    reference.flat_surface(scenario.rx_geometry))
    ref_psi = cfg["psi_fraction"] * reference.power(flat)
    if _rel(psi, ref_psi) > RATE_RTOL:
        problems.append(f"sensing threshold {psi} differs from reference {ref_psi}")
    ref_obj = rate[-1] + cfg["beta"] * slack[-1]
    if abs(obj[-1] - ref_obj) > RATE_RTOL * abs(ref_obj):
        problems.append(f"final objective {obj[-1]} is not rate + beta * slack = {ref_obj}")
    return problems


# -- music ------------------------------------------------------------------

def _grid_deg(step):
    return (np.arange(-90.0, 90.0 + step / 2, step), np.arange(0.0, 180.0 + step / 2, step))


def _read_spectrum(path, az_grid, el_grid):
    """The spectrum as an (azimuth x elevation) array, or a problem string."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    name = os.path.basename(path)
    if data.shape != (az_grid.size * el_grid.size, 3):
        return f"{name} has {data.shape[0]} rows, grid has {az_grid.size * el_grid.size}"
    i = np.rint((data[:, 0] - az_grid[0]) / (az_grid[1] - az_grid[0])).astype(int)
    j = np.rint((data[:, 1] - el_grid[0]) / (el_grid[1] - el_grid[0])).astype(int)
    if (i.min() < 0 or i.max() >= az_grid.size or j.min() < 0 or j.max() >= el_grid.size
            or np.abs(data[:, 0] - az_grid[i]).max() > ANGLE_ATOL_DEG
            or np.abs(data[:, 1] - el_grid[j]).max() > ANGLE_ATOL_DEG):
        return f"{name} has points off the scan grid"
    cells = np.bincount(i * el_grid.size + j, minlength=az_grid.size * el_grid.size)
    if np.any(cells != 1):
        return f"{name} does not cover every grid point exactly once"
    spectrum = np.empty((az_grid.size, el_grid.size))
    spectrum[i, j] = data[:, 2]
    return spectrum


def _is_strict_local_max(spectrum, i, j) -> bool:
    block = spectrum[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
    return int(np.sum(block >= spectrum[i, j])) == 1


def check_music(out_dir) -> list:
    with open(os.path.join(out_dir, "run_metadata.json"), encoding="utf-8") as fh:
        metadata = json.load(fh)
    cfg, truth_deg = metadata["config"], metadata["true_angles_deg"]
    az_grid, el_grid = _grid_deg(cfg["music_grid_step_deg"])
    problems = []

    spectra = {}
    ref_db = None
    for m in cfg["fim_modes"]:
        for w in cfg["waveforms"]:
            path = os.path.join(out_dir, f"music_spectrum_{m}_{w}.csv")
            spectrum = _read_spectrum(path, az_grid, el_grid)
            if isinstance(spectrum, str):
                problems.append(spectrum)
                continue
            spectra[(m, w)] = spectrum
            if spectrum.max() != 0.0:
                problems.append(f"{m}/{w} spectrum peaks at {spectrum.max()} dB, not 0")
            if m == "none":
                if ref_db is None:
                    scenario = reference.single_scenario(cfg)
                    ref_db = reference.music_spectrum_db(
                        scenario, np.deg2rad(az_grid), np.deg2rad(el_grid))
                    cond = np.linalg.cond(reference.true_rx_steering(scenario))
                    tol_db = max(SPECTRUM_ATOL_DB, SPECTRUM_COND_SCALE_DB * cond ** 2)
                err = float(np.abs(spectrum - ref_db).max())
                if err > tol_db:
                    problems.append(f"none/{w} spectrum differs from reference by {err} dB"
                                    f" (tolerance {tol_db:.3g} dB)")

    peaks = defaultdict(list)
    for row in read_csv(os.path.join(out_dir, "music_peaks.csv")):
        peaks[(row["fim_mode"], row["waveform"])].append(row)
    for key, spectrum in spectra.items():
        rows = peaks.get(key, [])
        if len(rows) != cfg["num_paths"]:
            problems.append(f"{key} has {len(rows)} peak rows for {cfg['num_paths']} targets")
        for row in rows:
            true = (float(row["true_azimuth_deg"]), float(row["true_elevation_deg"]))
            k = int(row["scatterer"])
            if not (0 <= k < len(truth_deg)
                    and np.allclose(true, truth_deg[k], rtol=0, atol=ANGLE_ATOL_DEG * 100)):
                problems.append(f"{key} scatterer {k} truth {true} is not the scenario's")
            est = (float(row["est_azimuth_deg"]), float(row["est_elevation_deg"]))
            if math.isnan(est[0]):
                continue
            cheb = max(abs(true[0] - est[0]), abs(true[1] - est[1]))
            if abs(float(row["error_deg"]) - cheb) > ANGLE_ATOL_DEG * max(1.0, cheb):
                problems.append(f"{key} scatterer {k} error_deg {row['error_deg']},"
                                f" Chebyshev distance {cheb}")
            i = int(np.argmin(np.abs(az_grid - est[0])))
            j = int(np.argmin(np.abs(el_grid - est[1])))
            if (abs(az_grid[i] - est[0]) > ANGLE_ATOL_DEG
                    or abs(el_grid[j] - est[1]) > ANGLE_ATOL_DEG
                    or not _is_strict_local_max(spectrum, i, j)):
                problems.append(f"{key} estimate {est} is not a strict local maximum")

    problems += _check_profiles(out_dir, spectra, truth_deg, az_grid, el_grid)
    return problems


def _check_profiles(out_dir, spectra, truth_deg, az_grid, el_grid) -> list:
    profiles = defaultdict(list)
    for row in read_csv(os.path.join(out_dir, "music_profiles.csv")):
        profiles[(row["fim_mode"], row["waveform"], int(row["scatterer"]))].append(row)
    problems = []
    for (m, w), spectrum in spectra.items():
        for k, (true_az, true_el) in enumerate(truth_deg):
            i0 = int(np.argmin(np.abs(az_grid - true_az)))
            j0 = int(np.argmin(np.abs(el_grid - true_el)))
            rows = profiles.get((m, w, k), [])
            cut = {"elevation": [], "azimuth": []}
            for row in rows:
                cut.setdefault(row["axis"], []).append(
                    (float(row["angle_deg"]), float(row["value_db"])))
            want = {"elevation": [(el, spectrum[i0, j]) for j, el in enumerate(el_grid)],
                    "azimuth": [(az, spectrum[i, j0]) for i, az in enumerate(az_grid)]}
            for axis, expected in want.items():
                got = cut[axis]
                if (len(got) != len(expected) or len(cut) != 2
                        or any(abs(a - b) > ANGLE_ATOL_DEG or v != u
                               for (a, v), (b, u) in zip(got, expected))):
                    problems.append(f"{m}/{w} scatterer {k} {axis} profile does not"
                                    " match the spectrum")
    return problems


CHECKS = {
    "rate-sweep": check_rate_sweep,
    "optimize-once": check_optimize_once,
    "music": check_music,
}
