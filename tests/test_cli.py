import os
import subprocess
import sys

import numpy as np
import pytest

import qnshape as q
from qnshape.cli import main

from conftest import WIRELINE_BUDGET


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition("=")
        out[key] = val
    return out


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestShapeCommand:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["shape", "--channel", "wireline", "--bins", "256",
                   "--power", str(WIRELINE_BUDGET), "--out", str(out), "--seed", "0"])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert abs(float(summary["power_residual"])) < 1e-9
        assert float(summary["numeric_max_gap_db"]) < 0.5
        lines = (out / "plotdata.csv").read_text().splitlines()
        assert lines[0] == "frequency_hz,signal_db,noise_db,sq_analytic_db,sq_numeric_db"
        assert len(lines) == 257
        assert (out / "shaping.csv").exists()

    def test_missing_channel_file(self, tmp_path, capsys):
        out = tmp_path / "d"
        rc = main(["shape", "--channel", "file:/nonexistent.csv",
                   "--power", "1e3", "--out", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        # no partial outputs
        assert not out.exists() or list(out.iterdir()) == []

    def test_single_bin(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["shape", "--channel", "wireline", "--bins", "1",
                   "--flo", "0", "--fhi", "100.0", "--power", "1e3",
                   "--out", str(out)])
        assert rc == 0
        row = (out / "shaping.csv").read_text().splitlines()[1]
        sq = float(row.split(",")[1])
        assert sq == pytest.approx(100.0 ** 2 / (12.0 * 1e6), rel=1e-12)

    def test_power_required(self, tmp_path, capsys):
        rc = main(["shape", "--channel", "wireline", "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "power" in capsys.readouterr().err

    def test_failed_run_creates_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["shape", "--channel", "wireline", "--out", str(out)]) == 1
        assert not out.exists()

    def test_existing_out_dir_is_used(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        assert main(["shape", "--channel", "wireline", "--bins", "16",
                     "--power", "1e12", "--out", str(out)]) == 0
        assert (out / "summary.txt").exists()

    def test_out_path_that_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "f"
        out.write_text("")
        assert main(["shape", "--channel", "wireline", "--bins", "16",
                     "--power", "1e12", "--out", str(out)]) == 1
        assert "not writable" in capsys.readouterr().err


class TestCapacityCommand:
    def test_flat_channel_capacity_is_bandwidth(self, tmp_path, capsys):
        g = q.make_grid(0.0, 250.0, 16)
        ch = q.ChannelSpec(q.Psd(g, np.ones(16)), q.Psd(g, np.ones(16)))
        path = tmp_path / "flat.csv"
        q.write_channel_csv(ch, path)
        rc = main(["capacity", "--channel", f"file:{path}"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "capacity_before_bits_per_s" in out
        assert float(out.split()[-1]) == pytest.approx(250.0, rel=1e-12)

    def test_with_sq_file(self, tmp_path, capsys):
        g = q.make_grid(0.0, 250.0, 16)
        ch = q.ChannelSpec(q.Psd(g, np.ones(16)), q.Psd(g, np.full(16, 0.1)))
        q.write_channel_csv(ch, tmp_path / "ch.csv")
        q.write_psd_csv(q.Psd(g, np.full(16, 0.05)), tmp_path / "sq.csv")
        rc = main(["capacity", "--channel", f"file:{tmp_path/'ch.csv'}",
                   "--sq", str(tmp_path / "sq.csv"), "--out", str(tmp_path / "o")])
        assert rc == 0
        summary = read_summary(tmp_path / "o" / "summary.txt")
        exact = float(summary["info_loss_exact_bits_per_s"])
        approx = float(summary["info_loss_small_noise_bits_per_s"])
        assert approx >= exact > 0

    def test_matches_shaping_summary(self, tmp_path, capsys):
        # cross-module consistency: feeding the shape command's optimal PSD
        # back through the capacity command reproduces its info_loss figure
        out = tmp_path / "shape"
        assert main(["shape", "--channel", "wireline", "--bins", "64",
                     "--power", str(WIRELINE_BUDGET), "--out", str(out)]) == 0
        summary = read_summary(out / "summary.txt")
        rows = [line.split(",") for line in
                (out / "shaping.csv").read_text().splitlines()[1:]]
        sq_csv = tmp_path / "sq.csv"
        sq_csv.write_text("frequency_hz,psd\n"
                          + "".join(f"{r[0]},{r[1]}\n" for r in rows))
        ch_csv = tmp_path / "ch.csv"
        g = q.make_grid(0.0, 1e8, 64)
        q.write_channel_csv(q.wireline_channel(g), ch_csv)
        rc = main(["capacity", "--channel", f"file:{ch_csv}",
                   "--sq", str(sq_csv), "--out", str(tmp_path / "cap")])
        assert rc == 0
        cap_summary = read_summary(tmp_path / "cap" / "summary.txt")
        assert float(cap_summary["info_loss_small_noise_bits_per_s"]) == pytest.approx(
            float(summary["info_loss"]), rel=1e-12)

    def test_header_only_channel_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("frequency_hz,signal_psd,noise_psd\n")
        rc = main(["capacity", "--channel", f"file:{path}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "empty.csv" in err

    def test_short_rows_channel_file(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("frequency_hz,signal_psd,noise_psd\n1.0,1\n3.0,1\n")
        rc = main(["capacity", "--channel", f"file:{path}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "short.csv" in err

    def test_header_only_sq_file(self, tmp_path, capsys):
        g = q.make_grid(0.0, 250.0, 16)
        q.write_channel_csv(q.ChannelSpec(q.Psd(g, np.ones(16)), q.Psd(g, np.ones(16))),
                            tmp_path / "ch.csv")
        (tmp_path / "sq.csv").write_text("frequency_hz,psd\n")
        rc = main(["capacity", "--channel", f"file:{tmp_path/'ch.csv'}",
                   "--sq", str(tmp_path / "sq.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "sq.csv" in err

    def test_mismatched_sq_grid(self, tmp_path, capsys):
        g = q.make_grid(0.0, 250.0, 16)
        ch = q.ChannelSpec(q.Psd(g, np.ones(16)), q.Psd(g, np.ones(16)))
        q.write_channel_csv(ch, tmp_path / "ch.csv")
        g2 = q.make_grid(0.0, 99.0, 8)
        q.write_psd_csv(q.Psd(g2, np.ones(8)), tmp_path / "sq.csv")
        rc = main(["capacity", "--channel", f"file:{tmp_path/'ch.csv'}",
                   "--sq", str(tmp_path / "sq.csv")])
        assert rc == 1
        assert "grid mismatch" in capsys.readouterr().err


class TestPartitionCommand:
    def test_equal_power_four_bands(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["partition", "--channel", "wireline", "--bins", "256",
                   "--power", str(WIRELINE_BUDGET), "--n", "4", "--out", str(out)])
        assert rc == 0
        lines = (out / "plan.csv").read_text().splitlines()
        assert len(lines) == 5
        powers = np.array([float(l.split(",")[3]) for l in lines[1:]])
        assert np.max(np.abs(powers - powers.mean())) / powers.mean() < 1e-6
        assert (out / "shaping.csv").exists() and (out / "plotdata.csv").exists()

    def test_single_band(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["partition", "--channel", "wireline", "--power", "1e12",
                   "--n", "1", "--out", str(out)])
        assert rc == 0
        lines = (out / "plan.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_equal_bandwidth_mode(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["partition", "--channel", "wireline", "--bins", "256",
                   "--power", str(WIRELINE_BUDGET), "--n", "4",
                   "--mode", "equal-bandwidth", "--out", str(out)])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        powers = [float(summary[f"band{i}_power"]) for i in range(4)]
        assert max(powers) / min(powers) > 1.1
        widths = [float(summary[f"band{i}_bandwidth_hz"]) for i in range(4)]
        assert max(widths) == pytest.approx(min(widths), rel=1e-9)


class TestSimulateCommand:
    def test_small_end_to_end(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["simulate", "--channel", "wireless", "--bins", "32",
                   "--fhi", "2e8", "--notches", "1", "--notch-depth", "12",
                   "--notch-width", "6e7", "--seed", "3",
                   "--power", "7.5e14", "--order", "4", "--osr", "12",
                   "--dither", "--samples", str(2 ** 16), "--out", str(out)])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert summary["stable"] == "true"
        assert float(summary["measured_vs_target_rms_db"]) < 3.0
        lines = (out / "plotdata.csv").read_text().splitlines()
        assert lines[0] == "frequency_hz,target_db,predicted_db,measured_db"
        assert (out / "ntf.txt").exists()
        ntf = q.read_tf(out / "ntf.txt")
        assert ntf.is_stable() and ntf.is_monic()

    def test_two_level_quantizer_also_reports(self, tmp_path):
        # comparative run: a dithered comparator-style quantizer still
        # produces a full report (tracking quality is reported, not asserted;
        # budget rescaled with the coarser step so the target stays reachable)
        out = tmp_path / "d"
        rc = main(["simulate", "--channel", "wireless", "--bins", "32",
                   "--fhi", "2e8", "--notches", "1", "--notch-depth", "12",
                   "--notch-width", "6e7", "--seed", "3",
                   "--power", "9.4e13", "--levels", "2", "--step", "1.0",
                   "--dither", "--samples", str(2 ** 15), "--out", str(out)])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert summary["stable"] == "true"
        assert float(summary["measured_vs_target_rms_db"]) > 0
        assert (out / "plotdata.csv").exists()

    def test_order_zero_fails(self, tmp_path, capsys):
        rc = main(["simulate", "--channel", "wireless", "--power", "1e14",
                   "--order", "0", "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "order" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--fin-ratio", "nan", "--fin-ratio must be finite"),
        ("--fin-ratio", "inf", "--fin-ratio must be finite"),
        ("--amplitude-dbfs", "nan", "--amplitude-dbfs must be finite"),
        ("--amplitude-dbfs", "-inf", "--amplitude-dbfs must be finite"),
        ("--amplitude-dbfs", "7000", "beyond the float range"),
    ])
    def test_bad_input_tone_rejected_before_design(self, tmp_path, capsys, monkeypatch,
                                                   flag, value, message):
        def no_design(*args, **kwargs):
            raise AssertionError("design_ntf ran")

        monkeypatch.setattr(q.deltasigma, "design_ntf", no_design)
        out = tmp_path / "d"
        rc = main(["simulate", "--channel", "wireless", "--bins", "32", "--fhi", "2e8",
                   "--power", "7.5e14", "--samples", "1024", f"{flag}={value}", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestDeterminism:
    def test_shape_runs_identical(self, tmp_path):
        args = ["shape", "--channel", "wireless", "--bins", "64",
                "--fhi", "2e8", "--power", "5e12", "--seed", "7"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert dir_bytes(out_a) == dir_bytes(out_b)

    def test_shape_output_independent_of_seed(self, tmp_path):
        # the wireline generator and the exact numerical solve use no RNG
        args = ["shape", "--channel", "wireline", "--bins", "64", "--power", "2e12"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--seed", "0", "--out", str(out_a)]) == 0
        assert main(args + ["--seed", "9", "--out", str(out_b)]) == 0
        assert dir_bytes(out_a) == dir_bytes(out_b)

    def test_simulate_runs_identical(self, tmp_path):
        args = ["simulate", "--channel", "wireless", "--bins", "32",
                "--fhi", "2e8", "--notches", "1", "--notch-depth", "12",
                "--notch-width", "6e7", "--power", "7.5e14", "--dither",
                "--samples", str(2 ** 15), "--seed", "3"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert dir_bytes(out_a) == dir_bytes(out_b)

    def test_partition_runs_identical(self, tmp_path):
        args = ["partition", "--channel", "wireline", "--bins", "128",
                "--power", "1e12", "--n", "4", "--mode", "integer-ratio"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert dir_bytes(out_a) == dir_bytes(out_b)


class TestImports:
    def test_shape_partition_capacity_never_load_scipy(self, tmp_path):
        # a fresh process, because the test modules import scipy themselves
        g = q.make_grid(0.0, 250.0, 16)
        q.write_channel_csv(q.ChannelSpec(q.Psd(g, np.ones(16)), q.Psd(g, np.full(16, 0.1))),
                            tmp_path / "ch.csv")
        q.write_psd_csv(q.Psd(g, np.full(16, 0.05)), tmp_path / "sq.csv")
        script = """
import sys
import qnshape
from qnshape.cli import main
loaded = {"import": "scipy" in sys.modules}
for args in (["shape", "--channel", "wireline", "--bins", "64", "--power", "2e12", "--out", "s"],
             ["partition", "--channel", "wireline", "--bins", "64", "--power", "2e12",
              "--n", "4", "--out", "p"],
             ["capacity", "--channel", "file:ch.csv", "--sq", "sq.csv", "--out", "c"]):
    assert main(args) == 0, args
    loaded[args[0]] = "scipy" in sys.modules
print(loaded)
"""
        src = os.path.dirname(os.path.dirname(q.__file__))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == str(
            {"import": False, "shape": False, "partition": False, "capacity": False})


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bins=16\npower=1e12\nchannel=wireline\n")
        out = tmp_path / "d"
        rc = main(["shape", "--config", str(cfg_file), "--bins", "8",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "shaping.csv").read_text().splitlines()
        assert len(lines) == 9  # CLI --bins 8 beats config bins=16

    def test_config_only_values_apply(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bins=16\npower=1e12\n")
        out = tmp_path / "d"
        rc = main(["shape", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        assert len((out / "shaping.csv").read_text().splitlines()) == 17

    def test_abbreviated_flag_beats_config(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bins=16\npower=1e12\n")
        out = tmp_path / "d"
        rc = main(["shape", "--config", str(cfg_file), "--pow", "3e12", "--bi", "8",
                   "--out", str(out)])
        assert rc == 0
        assert read_summary(out / "summary.txt")["power_budget"] == "3000000000000"
        assert len((out / "shaping.csv").read_text().splitlines()) == 9

    def test_other_subcommand_keys_skipped(self, tmp_path):
        # n belongs to partition, dither to simulate; shape ignores both
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bins=16\npower=1e12\nn=3\ndither=true\nseed=4\n")
        out = tmp_path / "d"
        assert main(["shape", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert len((out / "shaping.csv").read_text().splitlines()) == 17

    def test_config_dither_flag(self, tmp_path):
        args = ["simulate", "--channel", "wireless", "--bins", "32",
                "--fhi", "2e8", "--notches", "1", "--notch-depth", "12",
                "--notch-width", "6e7", "--power", "7.5e14",
                "--samples", str(2 ** 13), "--seed", "3"]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dither=true\n")
        runs = {"file": ["--config", str(cfg_file)], "flag": ["--dither"], "off": []}
        for name, extra in runs.items():
            assert main(args + extra + ["--out", str(tmp_path / name)]) == 0
        assert dir_bytes(tmp_path / "file") == dir_bytes(tmp_path / "flag")
        assert dir_bytes(tmp_path / "file") != dir_bytes(tmp_path / "off")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("frobnicate=1\n")
        rc = main(["shape", "--config", str(cfg_file), "--power", "1",
                   "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err
