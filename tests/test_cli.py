"""Tests for the command-line interface."""

import json

import pytest

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
