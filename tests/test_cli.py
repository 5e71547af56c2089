"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import fimsim
from fimsim.cli import main

FAST_CFG = """\
block_length = 16
num_paths = 2
waveforms = ofdm
fim_modes = none,random
snr_db = 10
trials = 1
optimizer_iters = 5
music_grid_step_deg = 5
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(FAST_CFG)
    return str(path)


class TestRateSweepCommand:
    def test_success_and_outputs(self, tmp_path, cfg_path, capsys):
        out = tmp_path / "out"
        code = main(["rate-sweep", "--config", cfg_path, "--out", str(out),
                     "--seed", "2"])
        assert code == 0
        assert (out / "rate_sweep.csv").exists()
        assert (out / "rate_summary.csv").exists()
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["seed"] == 2
        listed = capsys.readouterr().out.splitlines()
        assert str(out / "rate_sweep.csv") in listed

    def test_cli_overrides_config(self, tmp_path, cfg_path):
        out = tmp_path / "out"
        code = main(["rate-sweep", "--config", cfg_path, "--out", str(out),
                     "--trials", "2", "--seed", "0"])
        assert code == 0
        lines = (out / "rate_sweep.csv").read_text().splitlines()
        # header plus 1 waveform * 2 modes * 1 snr * 2 trials
        assert len(lines) == 1 + 4


class TestMusicCommand:
    def test_success(self, tmp_path, cfg_path):
        out = tmp_path / "out"
        code = main(["music", "--config", cfg_path, "--out", str(out),
                     "--seed", "0"])
        assert code == 0
        assert (out / "music_spectrum_none_ofdm.csv").exists()
        assert (out / "music_peaks.csv").exists()


class TestOptimizeOnceCommand:
    def test_success(self, tmp_path, cfg_path):
        out = tmp_path / "out"
        code = main(["optimize-once", "--config", cfg_path, "--out", str(out),
                     "--seed", "1"])
        assert code == 0
        payload = json.loads((out / "optimized_surfaces.json").read_text())
        assert payload["iterations_run"] >= 0


class TestFailures:
    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("unknown_key = 5\n")
        code = main(["rate-sweep", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["music", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_value_in_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("trials = 0\n")
        code = main(["rate-sweep", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "trials" in capsys.readouterr().err

    def test_invalid_config_fails_before_any_work(self, tmp_path, capsys):
        # a non-square block length cannot carry OTFS: rejected at config
        # time, before an ascent runs or the output directory exists
        bad = tmp_path / "bad.cfg"
        bad.write_text("block_length = 12\n")
        out = tmp_path / "out"
        code = main(["rate-sweep", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert "perfect square" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_symbol_energy_fails_before_any_work(self, tmp_path, capsys):
        # a zero symbol energy would make every noise variance zero
        bad = tmp_path / "bad.cfg"
        bad.write_text("symbol_energy = 0\n")
        out = tmp_path / "out"
        code = main(["rate-sweep", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert "symbol_energy" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_list_entry_fails_before_any_work(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(FAST_CFG + "waveforms = ofdm, ofdm\nsnr_db = 10, 10\n")
        out = tmp_path / "out"
        code = main(["music", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert "repeats" in capsys.readouterr().err
        assert not out.exists()


# Runs two CLI commands in one fresh interpreter and prints, last, every
# SciPy module that got imported along the way.
NUMPY_ONLY_SCRIPT = """\
import json, sys
from fimsim.cli import main
cfg, out = sys.argv[1], sys.argv[2]
for command in ("optimize-once", "rate-sweep"):
    assert main([command, "--config", cfg, "--out", f"{out}/{command}"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


class TestDependencies:
    def test_runs_on_numpy_alone(self, tmp_path, cfg_path):
        # SciPy brings a second OpenBLAS with its own thread pool; the
        # program must not load it
        src = os.path.dirname(os.path.dirname(os.path.abspath(fimsim.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_ONLY_SCRIPT, cfg_path, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []
