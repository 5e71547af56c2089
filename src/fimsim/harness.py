"""Experiment drivers: seeded scenario sweeps and deterministic file output.

Two experiments are provided.  The rate sweep draws channel realizations
and evaluates the achievable rate per waveform and SNR point under three
array modes (rigid flat surfaces, randomly morphed surfaces, and surfaces
optimized by gradient ascent).  The sensing experiment transmits random
symbol frames through one realization and runs the subspace scan per
array mode and waveform, recording spectra, extracted peaks, per-target
angle errors, and 1-D cuts through each true target.

All outputs are plain CSV/JSON and are byte-reproducible from the
(config, seed) pair.  One column-wise writer, ``_write_csv``, owns the CSV
number format; spectra and profiles are written as views of the grids.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._version import __version__
from .channel import ScenarioParams, random_scenario
from .geometry import random_surface
from .music import (default_grid, extract_peaks, music_spectrum, noise_subspace,
                    rx_covariance)
from .optimizer import OptimizerConfig, OptimizerResult, achievable_rate, optimize
from .waveforms import (cp_phase_function, default_otfs, random_frame,
                        transmit_receive, waveform_factors, waveform_for)

__all__ = [
    "ExperimentConfig",
    "RateSweepResult",
    "MusicResult",
    "OptimizeOnceResult",
    "run_rate_sweep",
    "run_music_experiment",
    "run_optimize_once",
    "emit_results",
    "parse_config_file",
    "config_from_file",
]

_WAVEFORM_NAMES = ("ofdm", "otfs", "afdm")
_FIM_MODES = ("none", "random", "optimized")

# Above this the Cholesky factorization of the dense rate's
# I + H H^H / sigma^2 can fail in floating point: it did at 120 and 130 dB
# on small configs, and never at 110 dB or below.
MAX_SNR_DB = 100.0

SNR_DEFINITION = ("sigma_w^2 = symbol_energy * block_length * num_streams"
                  " / (10^(snr_db/10) * block_length * tx_elements * rx_elements)")


@dataclass(frozen=True)
class ExperimentConfig(ScenarioParams):
    """Resolved experiment configuration; field names carry their units.

    The scenario fields are inherited from ``ScenarioParams``, so a config
    is passed to ``random_scenario`` as it is.  The noise variance is not
    a field: each SNR point derives its own (``noise_var_for_snr``).

    Every float field and ``snr_db`` entry must be finite, and every SNR
    (``snr_db`` entries, ``optimizer_snr_db``, ``music_snr_db``) is at most
    ``MAX_SNR_DB`` = 100 dB: higher SNRs can make the dense rate's
    Cholesky factorization fail mid-run, so they are rejected here.
    """

    waveforms: tuple = _WAVEFORM_NAMES
    fim_modes: tuple = _FIM_MODES
    snr_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0)
    trials: int = 10
    seed: int = 0
    reuse_shapes: bool = False
    beta: float = 2.0
    psi_fraction: float = 0.8
    optimizer_iters: int = 60
    optimizer_snr_db: float = 10.0
    music_grid_step_deg: float = 1.0
    music_snr_db: float | None = None
    symbol_energy: float = 1.0
    out_dir: str = "results"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "waveforms", tuple(str(w).lower() for w in self.waveforms))
        object.__setattr__(self, "fim_modes", tuple(str(m).lower() for m in self.fim_modes))
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        snrs = [*(("snr_db", snr) for snr in self.snr_db),
                ("optimizer_snr_db", self.optimizer_snr_db),
                ("music_snr_db", self.music_snr_db)]
        for name, snr in snrs:
            if snr is not None and not math.isfinite(snr):
                raise ValueError(f"{name} must be finite, got {snr}")
            if snr is not None and snr > MAX_SNR_DB:
                raise ValueError(f"{name} {snr:g} dB exceeds the {MAX_SNR_DB:g} dB bound")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_db:
            raise ValueError("snr_db list must be non-empty")
        if not self.waveforms or not self.fim_modes:
            raise ValueError("waveforms and fim_modes must be non-empty")
        for w in self.waveforms:
            if w not in _WAVEFORM_NAMES:
                raise ValueError(f"unknown waveform {w!r}")
        for m in self.fim_modes:
            if m not in _FIM_MODES:
                raise ValueError(f"unknown fim mode {m!r}")
        for key in ("waveforms", "fim_modes", "snr_db"):
            if len(set(getattr(self, key))) < len(getattr(self, key)):
                raise ValueError(f"{key} repeats an entry: {getattr(self, key)}")
        if "otfs" in self.waveforms:
            default_otfs(self.block_length)   # rejects a non-square block length
        if self.max_delay_taps >= self.block_length:
            raise ValueError(f"largest delay tap {self.max_delay_taps} must be below the "
                             f"block length {self.block_length}")
        if self.optimizer_iters < 1:
            raise ValueError("optimizer_iters must be >= 1")
        if self.music_grid_step_deg <= 0.0:
            raise ValueError("music_grid_step_deg must be positive")
        if not self.symbol_energy > 0.0:   # NaN included
            raise ValueError("symbol_energy must be positive")

    def noise_var_for_snr(self, snr_db: float) -> float:
        """Noise variance realizing a nominal SNR against the expected
        channel power (block_length * tx_elements * rx_elements)."""
        expected_power = (self.block_length
                          * self.tx_elements_x * self.tx_elements_z
                          * self.rx_elements_x * self.rx_elements_z)
        return (self.symbol_energy * self.block_length * self.num_streams
                / (10.0 ** (snr_db / 10.0) * expected_power))

    def optimizer_config(self, noise_var: float) -> OptimizerConfig:
        return OptimizerConfig(beta=self.beta, psi_fraction=self.psi_fraction,
                               max_iters=self.optimizer_iters, noise_var=noise_var)

    def metadata(self, experiment: str) -> dict:
        cfg = asdict(self)
        cfg["waveforms"] = list(self.waveforms)
        cfg["fim_modes"] = list(self.fim_modes)
        cfg["snr_db"] = list(self.snr_db)
        return {
            "experiment": experiment,
            "config": cfg,
            "seed": self.seed,
            "version": __version__,
            "snr_definition": SNR_DEFINITION,
            "derived": {
                "wavelength_m": self.wavelength,
                "max_delay_s": self.max_delay_s,
                "max_delay_taps": self.max_delay_taps,
                "max_doppler_hz": self.max_doppler_hz,
                "num_streams": self.num_streams,
            },
        }


@dataclass
class RateSweepResult:
    records: list
    summary: list
    metadata: dict


@dataclass
class MusicResult:
    grids: dict        # (fim_mode, waveform) -> MusicGrid
    peaks: list
    metadata: dict     # its "true_angles_deg" are where the profiles cut


@dataclass
class OptimizeOnceResult:
    result: OptimizerResult
    metadata: dict


def _mode_surfaces(scenario, mode, rand_pair, optimized_pair):
    if mode == "none":
        return (scenario.tx_geometry.flat_surface(), scenario.rx_geometry.flat_surface())
    if mode == "random":
        return rand_pair
    return optimized_pair


def run_rate_sweep(config: ExperimentConfig) -> RateSweepResult:
    """Per-trial achievable rates over the SNR sweep, per waveform and mode.

    The optimizer is initialized at the trial's random surfaces, so the
    optimized rate can only improve on the random one.  With
    ``reuse_shapes`` the shapes optimized on the first realization (at the
    first SNR point) are reused everywhere after.
    """
    trial_seeds = np.random.SeedSequence(config.seed).spawn(config.trials)
    records = []
    reused = None
    for trial in range(config.trials):
        scen_rng, surf_rng = (np.random.default_rng(s)
                              for s in trial_seeds[trial].spawn(2))
        scenario = random_scenario(config, scen_rng)
        rand_pair = (random_surface(scenario.tx_geometry, surf_rng),
                     random_surface(scenario.rx_geometry, surf_rng))
        specs = {name: waveform_for(name, scenario) for name in config.waveforms}
        # OFDM and OTFS have no prefix phase and so share one record and one
        # rate; a phased waveform (AFDM) keeps its own
        record_of = {name: name if cp_phase_function(spec) is not None else None
                     for name, spec in specs.items()}
        factors = {record_of[name]: waveform_factors(spec, scenario)
                   for name, spec in specs.items()}
        for snr in config.snr_db:
            noise_var = config.noise_var_for_snr(snr)
            optimized_pair = None
            if "optimized" in config.fim_modes:
                if config.reuse_shapes and reused is not None:
                    optimized_pair = reused
                else:
                    opt = optimize(scenario, specs[config.waveforms[0]],
                                   config.optimizer_config(noise_var),
                                   init_tx=rand_pair[0], init_rx=rand_pair[1])
                    optimized_pair = (opt.tx_surface, opt.rx_surface)
                    if config.reuse_shapes:
                        reused = optimized_pair
            rates = {}
            for name in config.waveforms:
                for mode in config.fim_modes:
                    key = (record_of[name], mode)
                    if key not in rates:
                        y_t, y_r = _mode_surfaces(scenario, mode, rand_pair, optimized_pair)
                        rates[key] = achievable_rate(
                            factors[record_of[name]].matrix(y_t, y_r), noise_var)
                    records.append({"waveform": name, "fim_mode": mode,
                                    "snr_db": float(snr), "trial": trial,
                                    "rate_bits": rates[key]})
    return RateSweepResult(records=records, summary=summarize_rates(records),
                           metadata=config.metadata("rate_sweep"))


def summarize_rates(records) -> list:
    """Mean and standard error per (waveform, fim_mode, snr_db) group."""
    groups = {}
    for rec in records:
        groups.setdefault((rec["waveform"], rec["fim_mode"], rec["snr_db"]), []).append(
            rec["rate_bits"])
    summary = []
    for key in sorted(groups):
        vals = np.asarray(groups[key])
        stderr = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        summary.append({"waveform": key[0], "fim_mode": key[1], "snr_db": key[2],
                        "mean_rate_bits": float(np.mean(vals)),
                        "stderr_rate_bits": stderr, "trials": int(vals.size)})
    return summary


def _match_to_truth(truth_deg, est_deg):
    """Assign estimates to true targets, minimizing total worst-axis error.

    With at least as many estimates as targets the assignment is
    injective; otherwise each target takes its nearest estimate and the
    pairing is flagged short.
    """
    def chebyshev(a, b):
        return max(abs(a[0] - b[0]), abs(a[1] - b[1]))

    if not est_deg:
        return [(t, None, float("nan")) for t in truth_deg], True
    if len(est_deg) >= len(truth_deg):
        best = None
        for perm in itertools.permutations(range(len(est_deg)), len(truth_deg)):
            total = sum(chebyshev(truth_deg[i], est_deg[perm[i]])
                        for i in range(len(truth_deg)))
            if best is None or total < best[0]:
                best = (total, perm)
        pairing = [(truth_deg[i], est_deg[best[1][i]],
                    chebyshev(truth_deg[i], est_deg[best[1][i]]))
                   for i in range(len(truth_deg))]
        return pairing, False
    pairing = []
    for t in truth_deg:
        nearest = min(est_deg, key=lambda e: chebyshev(t, e))
        pairing.append((t, nearest, chebyshev(t, nearest)))
    return pairing, True


def run_music_experiment(config: ExperimentConfig) -> MusicResult:
    """Subspace scan of one seeded realization per array mode and waveform."""
    if config.num_paths >= config.num_streams:
        raise ValueError("sensing requires fewer targets than streams")
    noise_var = (0.0 if config.music_snr_db is None
                 else config.noise_var_for_snr(config.music_snr_db))
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    scenario = random_scenario(config, np.random.default_rng(seeds[0]))
    surf_rng = np.random.default_rng(seeds[1])
    combo_seeds = seeds[2].spawn(len(config.fim_modes) * len(config.waveforms))

    rand_pair = (random_surface(scenario.tx_geometry, surf_rng),
                 random_surface(scenario.rx_geometry, surf_rng))
    optimized_pair = None
    if "optimized" in config.fim_modes:
        opt_noise = config.noise_var_for_snr(config.optimizer_snr_db)
        spec = waveform_for(config.waveforms[0], scenario)
        opt = optimize(scenario, spec, config.optimizer_config(opt_noise), rng=surf_rng)
        optimized_pair = (opt.tx_surface, opt.rx_surface)

    azimuth, elevation = default_grid(config.music_grid_step_deg)
    truth_deg = [(np.rad2deg(p.angles_in.azimuth), np.rad2deg(p.angles_in.elevation))
                 for p in scenario.paths]

    grids, peak_rows = {}, []
    combo_idx = 0
    for mode in config.fim_modes:
        y_t, y_r = _mode_surfaces(scenario, mode, rand_pair, optimized_pair)
        for name in config.waveforms:
            frame_rng, noise_rng = (np.random.default_rng(s)
                                    for s in combo_seeds[combo_idx].spawn(2))
            combo_idx += 1
            spec = waveform_for(name, scenario)
            frame = random_frame(scenario.block_length, scenario.num_streams, frame_rng)
            received = transmit_receive(spec, scenario, y_t, y_r, frame, noise_var,
                                        noise_rng)
            basis = noise_subspace(rx_covariance(received), scenario.num_paths)
            grid = music_spectrum(basis, scenario.rx_geometry, y_r, azimuth, elevation)
            grid.peaks = extract_peaks(grid, scenario.num_paths)
            grids[(mode, name)] = grid

            est_deg = [(np.rad2deg(az), np.rad2deg(el)) for az, el in grid.peaks]
            pairing, short = _match_to_truth(truth_deg, est_deg)
            for k, (truth, est, err) in enumerate(pairing):
                peak_rows.append({
                    "fim_mode": mode, "waveform": name, "scatterer": k,
                    "true_azimuth_deg": truth[0], "true_elevation_deg": truth[1],
                    "est_azimuth_deg": est[0] if est else float("nan"),
                    "est_elevation_deg": est[1] if est else float("nan"),
                    "error_deg": err, "peak_shortfall": short})
    metadata = config.metadata("music")
    metadata["true_angles_deg"] = [list(t) for t in truth_deg]
    return MusicResult(grids=grids, peaks=peak_rows, metadata=metadata)


def run_optimize_once(config: ExperimentConfig) -> OptimizeOnceResult:
    """Optimize the surfaces of one seeded realization and report traces."""
    noise_var = config.noise_var_for_snr(config.optimizer_snr_db)
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    scenario = random_scenario(config, np.random.default_rng(seeds[0]))
    spec = waveform_for(config.waveforms[0], scenario)
    result = optimize(scenario, spec, config.optimizer_config(noise_var),
                      rng=np.random.default_rng(seeds[1]))
    return OptimizeOnceResult(result=result, metadata=config.metadata("optimize_once"))


def _column_cells(values) -> list:
    """One column's cells, by the type of its values: floats to twelve
    significant digits in one string operation, bools as true/false, and
    anything else through str."""
    values = values.tolist() if isinstance(values, np.ndarray) else values
    if all(isinstance(v, float) for v in values):
        return ("%.12g\n" * len(values) % tuple(values)).splitlines()
    if all(isinstance(v, bool) for v in values):
        return ["true" if v else "false" for v in values]
    return [str(v) for v in values]


def _write_csv(path, header, columns) -> None:
    """Write equal-length columns under a header line, in one call."""
    cells = [_column_cells(column) for column in columns]
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True)), ""]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


def _write_rows(path, header, rows) -> None:
    _write_csv(path, header, [[row[h] for row in rows] for h in header])


def _write_spectrum(path, grid) -> None:
    """The grid as azimuth_deg, elevation_deg, value_db rows, azimuth major;
    each axis's labels are formatted once and repeated."""
    az = _column_cells(np.rad2deg(grid.azimuth_rad))
    el = _column_cells(np.rad2deg(grid.elevation_rad))
    _write_csv(path, ["azimuth_deg", "elevation_deg", "value_db"],
               [[a for a in az for _ in el], el * len(az),
                10.0 * np.log10(grid.values).ravel()])


def _write_profiles(path, results) -> None:
    """1-D cuts of each grid's dB values through every true target: along
    elevation at the nearest azimuth, then along azimuth at the nearest
    elevation.  Grids come in run order (fim mode, then waveform)."""
    cuts = []   # (fim_mode, waveform, scatterer, axis, angles_deg, values_db)
    for (mode, name), grid in results.grids.items():
        az, el = np.rad2deg(grid.azimuth_rad), np.rad2deg(grid.elevation_rad)
        db = 10.0 * np.log10(grid.values)
        for k, (true_az, true_el) in enumerate(results.metadata["true_angles_deg"]):
            i0, j0 = np.argmin(np.abs(az - true_az)), np.argmin(np.abs(el - true_el))
            cuts += [(mode, name, k, "elevation", el, db[i0]),
                     (mode, name, k, "azimuth", az, db[:, j0])]
    columns = [[cut[c] for cut in cuts for _ in cut[4]] for c in range(4)]
    columns += [[v for cut in cuts for v in cut[c].tolist()] for c in (4, 5)]
    _write_csv(path, ["fim_mode", "waveform", "scatterer", "axis", "angle_deg",
                      "value_db"], columns)


def _write_metadata(path, metadata) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_results(results, out_dir) -> list:
    """Write a result object's files under ``out_dir``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def path_of(name):
        p = os.path.join(out_dir, name)
        written.append(p)
        return p

    if isinstance(results, RateSweepResult):
        _write_rows(path_of("rate_sweep.csv"),
                    ["waveform", "fim_mode", "snr_db", "trial", "rate_bits"],
                    results.records)
        _write_rows(path_of("rate_summary.csv"),
                    ["waveform", "fim_mode", "snr_db", "mean_rate_bits",
                     "stderr_rate_bits", "trials"],
                    results.summary)
        _write_metadata(path_of("run_metadata.json"), results.metadata)
    elif isinstance(results, MusicResult):
        for (mode, name), grid in sorted(results.grids.items()):
            _write_spectrum(path_of(f"music_spectrum_{mode}_{name}.csv"), grid)
        _write_rows(path_of("music_peaks.csv"),
                    ["fim_mode", "waveform", "scatterer", "true_azimuth_deg",
                     "true_elevation_deg", "est_azimuth_deg", "est_elevation_deg",
                     "error_deg", "peak_shortfall"],
                    results.peaks)
        _write_profiles(path_of("music_profiles.csv"), results)
        _write_metadata(path_of("run_metadata.json"), results.metadata)
    elif isinstance(results, OptimizeOnceResult):
        res = results.result
        payload = {
            "tx_surface_m": [float(v) for v in res.tx_surface],
            "rx_surface_m": [float(v) for v in res.rx_surface],
            "objective_trace": [float(v) for v in res.objective_trace],
            "rate_trace": [float(v) for v in res.rate_trace],
            "slack_trace": [float(v) for v in res.slack_trace],
            "iterations_run": res.iterations_run,
            "stop_reason": res.stop_reason,
            "sensing_threshold": float(res.psi),
        }
        _write_metadata(path_of("optimized_surfaces.json"), payload)
        _write_metadata(path_of("run_metadata.json"), results.metadata)
    else:
        raise TypeError(f"cannot emit results of type {type(results).__name__}")
    return written


_NULLABLE_FLOATS = {"y_min_m", "y_max_m", "music_snr_db"}


def _convert_field(name: str, text: str):
    known = {f.name for f in fields(ExperimentConfig)}
    if name not in known:
        raise ValueError(f"unknown config key {name!r}")
    if name in _NULLABLE_FLOATS:
        return None if text.lower() in ("none", "") else float(text)
    example = getattr(ExperimentConfig, name, None)
    if name in ("waveforms", "fim_modes"):
        return tuple(part.strip() for part in text.split(",") if part.strip())
    if name == "snr_db":
        return tuple(float(part) for part in text.split(",") if part.strip())
    if isinstance(example, bool):
        if text.lower() in ("true", "yes", "1"):
            return True
        if text.lower() in ("false", "no", "0"):
            return False
        raise ValueError(f"cannot parse boolean {text!r} for {name}")
    if isinstance(example, int):
        return int(text)
    if isinstance(example, float):
        return float(text)
    return text


def parse_config_file(path) -> dict:
    """Read a flat key = value config file; '#' starts a comment line."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            values[key.strip()] = _convert_field(key.strip(), text.strip())
    return values


def config_from_file(path=None, **overrides) -> ExperimentConfig:
    values = parse_config_file(path) if path is not None else {}
    values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)
