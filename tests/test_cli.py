import os
import subprocess
import sys

import numpy as np
import pytest

import qnshape as q
from qnshape import cli
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


SMALL_SIMULATE = ["simulate", "--channel", "wireless", "--bins", "32", "--fhi", "2e8",
                  "--notches", "1", "--notch-depth", "12", "--notch-width", "6e7",
                  "--power", "7.5e14", "--dither", "--samples", "8192", "--seed", "3"]


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

    @pytest.mark.parametrize("channel, flag", [
        ("wireless", "--notch-width"), ("wireless", "--notch-depth"),
        ("wireless", "--noise-floor"), ("wireline", "--noise-floor"),
        ("wireline", "--noise-tilt")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_generator_flag_rejected(self, tmp_path, capsys, channel, flag, value):
        out = tmp_path / "d"
        rc = main(["shape", "--channel", channel, f"{flag}={value}", "--power", "5e12",
                   "--out", str(out)])
        assert rc == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"
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

    def test_reads_shape_output(self, tmp_path, capsys):
        # capacity --sq reads the Sq column of shape's shaping.csv as it is
        channel = ["--channel", "wireline", "--bins", "64"]
        assert main(["shape", *channel, "--power", str(WIRELINE_BUDGET),
                     "--out", str(tmp_path / "shape")]) == 0
        summary = read_summary(tmp_path / "shape" / "summary.txt")
        assert main(["capacity", *channel, "--sq", str(tmp_path / "shape" / "shaping.csv"),
                     "--out", str(tmp_path / "cap")]) == 0
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

    CHANNEL = "frequency_hz,signal_psd,noise_psd\n1,1,1\n3,1,1\n"

    def _capacity_error(self, tmp_path, capsys, channel_text, sq_text):
        """stderr of a capacity --sq run that fails on its input files."""
        (tmp_path / "ch.csv").write_text(channel_text)
        (tmp_path / "sq.csv").write_text(sq_text)
        rc = main(["capacity", "--channel", f"file:{tmp_path / 'ch.csv'}",
                   "--sq", str(tmp_path / "sq.csv")])
        assert rc == 1
        return capsys.readouterr().err

    def test_non_number_cell_names_file_and_line(self, tmp_path, capsys):
        err = self._capacity_error(tmp_path, capsys, self.CHANNEL,
                                   "frequency_hz,psd\n1,0.1\n\n3,abc\n")
        assert err == (f"error: {tmp_path / 'sq.csv'}, line 4: "
                       "could not convert string to float: 'abc'\n")

    def test_non_finite_psd_names_file(self, tmp_path, capsys):
        err = self._capacity_error(tmp_path, capsys, self.CHANNEL,
                                   "frequency_hz,psd\n1,0.1\n3,inf\n")
        assert err == f"error: {tmp_path / 'sq.csv'}: PSD values must be finite\n"

    def test_nonpositive_channel_noise_names_file(self, tmp_path, capsys):
        err = self._capacity_error(tmp_path, capsys,
                                   "frequency_hz,signal_psd,noise_psd\n1,1,1\n3,1,0\n",
                                   "frequency_hz,psd\n1,0.1\n3,0.1\n")
        assert err == (f"error: {tmp_path / 'ch.csv'}: "
                       "noise PSD must be strictly positive everywhere\n")


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

    def test_plot_data_marks_the_shaped_bands(self, tmp_path):
        # integer-ratio edges fall inside bins: the marker follows the
        # snapped boundaries, and the shaped bands together spend the budget
        out = tmp_path / "d"
        rc = main(["partition", "--channel", "wireline", "--bins", "256", "--power", "2e12",
                   "--mode", "integer-ratio", "--n", "6", "--out", str(out)])
        assert rc == 0
        plan_rows = np.loadtxt(out / "plan.csv", delimiter=",", skiprows=1)
        plan = q.PartitionPlan(edges=[*plan_rows[:, 1], plan_rows[-1, 2]],
                               per_band_power=plan_rows[:, 3])
        grid = q.make_grid(0.0, 1e8, 256)
        marker = np.loadtxt(out / "plotdata.csv", delimiter=",", skiprows=1)[:, 4]
        expected = np.zeros(256)
        expected[q.multichannel._snap_edges_to_bins(plan, grid)[:-1]] = 1.0
        np.testing.assert_array_equal(marker, expected)
        sq = np.loadtxt(out / "shaping.csv", delimiter=",", skiprows=1)[:, 1]
        spent = float(np.sum(grid.delta * sq ** -0.5)) / np.sqrt(12.0)
        assert spent == pytest.approx(2e12, rel=1e-12)

    @pytest.mark.parametrize("mode, n", [("equal-power", "4"), ("integer-ratio", "6"),
                                         ("equal-bandwidth", "6")])
    def test_partition_writes_the_shape_of_shape(self, tmp_path, mode, n):
        # a partition mode's bands, each shaped to its share of the budget,
        # together are the single converter's optimum
        wireline = ["--channel", "wireline", "--bins", "256", "--power", "2e12"]
        shape, part = tmp_path / "shape", tmp_path / "part"
        assert main(["shape", *wireline, "--out", str(shape)]) == 0
        assert main(["partition", *wireline, "--mode", mode, "--n", n,
                     "--out", str(part)]) == 0
        assert (part / "shaping.csv").read_bytes() == (shape / "shaping.csv").read_bytes()
        first_three = [[",".join(line.split(",")[:3])
                        for line in (d / "plotdata.csv").read_text().splitlines()[1:]]
                       for d in (shape, part)]
        assert first_three[0] == first_three[1]
        assert (read_summary(part / "summary.txt")["info_loss_total"]
                == read_summary(shape / "summary.txt")["info_loss"])


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

    def test_large_loop_states_are_not_divergence(self, tmp_path):
        # README wireless arguments at order 8, OSR 16: the direct-form loop
        # coefficients reach |a| ~ 65 and the loop states pass 10x full
        # scale, yet the quantizer input stays inside full scale and nothing
        # saturates, so the modulator has not diverged
        out = tmp_path / "d"
        rc = main(["simulate", "--channel", "wireless", "--bins", "64",
                   "--fhi", "2e8", "--notches", "1", "--notch-depth", "12",
                   "--notch-width", "6e7", "--power", "7.5e14",
                   "--order", "8", "--osr", "16", "--dither", "--amplitude-dbfs", "-10.5",
                   "--samples", "8192", "--save-trace", "--out", str(out)])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert summary["stable"] == "true"
        assert summary["saturation_count"] == "0"
        assert "measured_vs_predicted_rms_db" in summary
        assert "measured_vs_target_rms_db" in summary
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        quantizer_input = trace[:, 2] - trace[:, 3]
        assert np.max(np.abs(quantizer_input)) < 1.0  # full scale, 16 * 0.125 / 2

    def test_order_zero_fails(self, tmp_path, capsys):
        rc = main(["simulate", "--channel", "wireless", "--power", "1e14",
                   "--order", "0", "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "order" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--fin-ratio", "nan", "--fin-ratio must be finite"),
        ("--fin-ratio", "inf", "--fin-ratio must be finite"),
        # the tone must lie in (0, fs/2): fin_ratio * fhi with fs/2 = osr * fhi
        ("--fin-ratio", "0", "--fin-ratio must lie in (0, --osr) = (0, 12.0) so that the tone "
                             "lies below fs/2, got 0.0"),
        ("--fin-ratio", "-0.37", "(0, 12.0) so that the tone lies below fs/2, got -0.37"),
        ("--fin-ratio", "12", "(0, 12.0) so that the tone lies below fs/2, got 12.0"),
        ("--fin-ratio", "40", "(0, 12.0) so that the tone lies below fs/2, got 40.0"),
        ("--amplitude-dbfs", "nan", "--amplitude-dbfs must be finite"),
        ("--amplitude-dbfs", "-inf", "--amplitude-dbfs must be finite"),
        ("--amplitude-dbfs", "7000", "beyond the float range"),
        ("--osr", "nan", "osr must be finite, got nan"),
        ("--osr", "inf", "osr must be finite, got inf"),
        ("--step", "nan", "step must be finite, got nan"),
        ("--step", "inf", "step must be finite, got inf"),
        # the quantizer's noise density step^2/(12*sample_rate) overflows, or underflows,
        # at the run's sample rate 2 * osr * fhi
        ("--step", "1e200", "step^2/(12*sample_rate) = inf is not a normal float "
                            "(step=1e+200, sample_rate=4800000000.0)"),
        ("--step", "1e-160", "step^2/(12*sample_rate) = 0 is not a normal float "
                             "(step=1e-160, sample_rate=4800000000.0)"),
        ("--levels", "65538", "quantizer_levels must be an even integer from 2 to 65536, "
                              "got 65538"),
        ("--max-ntf-gain", "nan", "max_ntf_gain must be finite, got nan"),
        ("--max-ntf-gain", "inf", "max_ntf_gain must be finite, got inf"),
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


    @pytest.mark.parametrize("samples", [0, 5460])
    def test_too_few_samples_rejected_before_design(self, tmp_path, capsys, monkeypatch,
                                                    samples):
        def no_design(*args, **kwargs):
            raise AssertionError("design_ntf ran")

        monkeypatch.setattr(q.deltasigma, "design_ntf", no_design)
        out = tmp_path / "d"
        rc = main(["simulate", "--channel", "wireless", "--bins", "32", "--fhi", "2e8",
                   "--power", "7.5e14", "--samples", str(samples), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--samples" in err and "at least 5461" in err
        assert not out.exists()

    def test_fewest_samples_accepted(self, tmp_path):
        # the tracking report drops min(4096, N//4) leading samples and then
        # needs one 4096-sample Welch segment: N = 5461 is the least that works
        out = tmp_path / "d"
        rc = main(["simulate", "--channel", "wireless", "--bins", "32", "--fhi", "2e8",
                   "--notches", "1", "--notch-depth", "12", "--notch-width", "6e7",
                   "--power", "7.5e14", "--dither", "--samples", "5461", "--out", str(out)])
        assert rc == 0
        assert "measured_vs_target_rms_db" in read_summary(out / "summary.txt")

    def test_tracking_report_computed_once(self, tmp_path, monkeypatch):
        # both tracking figures come from one report and one Welch estimate
        calls = []
        welch = q.deltasigma.estimate_psd

        def counting(*args, **kwargs):
            calls.append(1)
            return welch(*args, **kwargs)

        monkeypatch.setattr(q.deltasigma, "estimate_psd", counting)
        out = tmp_path / "d"
        assert main(SMALL_SIMULATE + ["--out", str(out)]) == 0
        summary = read_summary(out / "summary.txt")
        assert summary["stable"] == "true"
        assert {"measured_vs_predicted_rms_db", "measured_vs_target_rms_db"} <= set(summary)
        assert len(calls) == 1


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


class TestSeedValidation:
    @pytest.mark.parametrize("argv, seed", [
        (["capacity", "--channel", "wireless", "--seed", "-3"], -3),
        (["simulate", "--channel", "wireline", "--bins", "64", "--fhi", "2e8",
          "--power", "7.5e14", "--dither", "--seed", "-2"], -2),
        # shape never draws from the seed, yet a negative one is still refused
        (["shape", "--channel", "wireline", "--power", "2e12", "--seed", "-1"], -1),
    ], ids=["capacity", "simulate", "shape"])
    def test_negative_seed_rejected_before_work(self, tmp_path, capsys, monkeypatch,
                                                argv, seed):
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in list(cli._COMMANDS):
            monkeypatch.setitem(cli._COMMANDS, name, no_work)
        out = tmp_path / "d"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --seed must be a non-negative integer, got {seed}\n")
        assert not out.exists()

    def test_negative_seed_in_config_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("channel=wireline\nbins=16\npower=1e12\nseed=-4\n")
        out = tmp_path / "d"
        assert main(["partition", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -4\n"
        assert not out.exists()


class TestLibraryDefaults:
    """An unset generator or modulator flag takes the library's default, so
    spelling that default out on the command line changes no output byte."""

    @pytest.mark.parametrize("base, spelled_out", [
        (["shape", "--channel", "wireless", "--bins", "64", "--fhi", "2e8",
          "--power", "5e12", "--seed", "7"],
         ["--noise-floor", "-80", "--notches", "3", "--notch-depth", "30"]),
        (["shape", "--channel", "wireline", "--bins", "64", "--power", "2e12"],
         ["--noise-floor", "-90", "--noise-tilt", "50"]),
        (SMALL_SIMULATE,
         ["--order", "4", "--osr", "12", "--levels", "16", "--step", "0.125",
          "--max-ntf-gain", "1.5"]),
    ], ids=["wireless", "wireline", "modulator"])
    def test_spelled_out_defaults_change_nothing(self, tmp_path, base, spelled_out):
        assert main(base + ["--out", str(tmp_path / "unset")]) == 0
        assert main(base + spelled_out + ["--out", str(tmp_path / "set")]) == 0
        assert dir_bytes(tmp_path / "unset") == dir_bytes(tmp_path / "set")


_COMMON_OPTIONS = {
    (("-h", "--help"), "help"), (("--channel",), "channel"), (("--bins",), "bins"),
    (("--flo",), "flo"), (("--fhi",), "fhi"), (("--power",), "power"),
    (("--out",), "out"), (("--seed",), "seed"), (("--config",), "config"),
    (("--noise-floor",), "noise_floor"), (("--noise-tilt",), "noise_tilt"),
    (("--notches",), "notches"), (("--notch-depth",), "notch_depth"),
    (("--notch-width",), "notch_width"),
}
CLI_SURFACE = {
    "shape": _COMMON_OPTIONS,
    "simulate": _COMMON_OPTIONS | {
        (("--order",), "order"), (("--osr",), "osr"), (("--levels",), "levels"),
        (("--step",), "step"), (("--max-ntf-gain",), "max_ntf_gain"),
        (("--dither",), "dither"), (("--samples",), "samples"),
        (("--fin-ratio",), "fin_ratio"), (("--amplitude-dbfs",), "amplitude_dbfs"),
        (("--save-trace",), "save_trace"),
    },
    "partition": _COMMON_OPTIONS | {(("--n",), "n"), (("--mode",), "mode")},
    "capacity": _COMMON_OPTIONS | {(("--sq",), "sq")},
}


def test_cli_surface_is_unchanged():
    # every flag name and dest (a dest is also the config-file key)
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    surface = {name: {(tuple(a.option_strings), a.dest) for a in sub._actions}
               for name, sub in subparsers.items()}
    assert surface == CLI_SURFACE


class TestCsvBytes:
    """Literal file text of every CSV writer: floats as %.17g, integers as str."""

    def test_psd_and_channel(self, tmp_path):
        g = q.make_grid(0.0, 0.2, 2)
        q.write_psd_csv(q.Psd(g, [1 / 3, -0.0]), tmp_path / "psd.csv")
        q.write_channel_csv(q.ChannelSpec(q.Psd(g, [0.1, 0.0]), q.Psd(g, [1 / 3, 1e-300])),
                            tmp_path / "ch.csv")
        assert (tmp_path / "psd.csv").read_text() == (
            "frequency_hz,psd\n"
            "0.050000000000000003,0.33333333333333331\n"
            "0.15000000000000002,-0\n")
        assert (tmp_path / "ch.csv").read_text() == (
            "frequency_hz,signal_psd,noise_psd\n"
            "0.050000000000000003,0.10000000000000001,0.33333333333333331\n"
            "0.15000000000000002,0,1e-300\n")

    def test_shaping(self, tmp_path):
        g = q.make_grid(0.0, 0.2, 2)
        result = q.ShapingResult(q.Psd(g, [1 / 3, 1e-300]), q.BitProfile(g, [-0.0, 0.1]),
                                 q.PowerBudget(1.0), 0.0, 1.0)
        q.write_shaping_csv(result, tmp_path / "shaping.csv")
        assert (tmp_path / "shaping.csv").read_text() == (
            "frequency_hz,sq_opt,bits\n"
            "0.050000000000000003,0.33333333333333331,-0\n"
            "0.15000000000000002,1e-300,0.10000000000000001\n")

    def test_plan(self, tmp_path):
        plan = q.PartitionPlan(edges=[0.0, 0.1, 1 / 3], per_band_power=[1 / 3, 1e-300])
        q.write_plan_csv(plan, tmp_path / "plan.csv")
        assert (tmp_path / "plan.csv").read_text() == (
            "band_index,f_lo_hz,f_hi_hz,power,bandwidth_hz\n"
            "0,0,0.10000000000000001,0.33333333333333331,0.10000000000000001\n"
            "1,0.10000000000000001,0.33333333333333331,1e-300,0.23333333333333331\n")

    def test_trace(self, tmp_path):
        trace = q.SimulationTrace(np.array([0.1, -0.0, 1 / 3]), np.array([1e-300, 0.1, -0.0]),
                                  np.array([1 / 3, 0.0, -1e-300]), 0, True)
        q.write_trace_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_text() == (
            "n,input,output,qerror\n"
            "0,0.10000000000000001,1e-300,0.33333333333333331\n"
            "1,-0,0.10000000000000001,0\n"
            "2,0.33333333333333331,-0,-1e-300\n")


class TestWarnings:
    @pytest.mark.parametrize("command", [["shape"], ["partition", "--n", "4"]])
    def test_small_noise_warning_is_one_line(self, tmp_path, capsys, command):
        # at this budget Sq exceeds Sv on the default wireline channel
        rc = main([*command, "--power", "1e9", "--out", str(tmp_path / "d")])
        assert rc == 0
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert lines and all(line.startswith("warning: quantization noise is not small")
                             for line in lines)
        assert len(set(lines)) == len(lines)
        assert ".py:" not in err

    def test_tilted_partition_warns_global_solve_first(self, tmp_path, capsys):
        # with the noise falling across the band the worst bin is in the last
        # band; the plan's global solve and the shape's are the same solve,
        # so the one line is its warning, at the whole band's worst ratio
        rc = main(["partition", "--n", "4", "--noise-tilt", "-50", "--power", "1e9",
                   "--out", str(tmp_path / "d")])
        assert rc == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: quantization noise is not small")
        assert "max Sq/Sv = 5.38e+09" in lines[0]

    @pytest.mark.parametrize("command, power", [
        (["shape"], "1e-300"), (["shape"], "1e-150"), (["shape"], "1e160"), (["shape"], "1e300"),
        (["partition", "--n", "4"], "1e-300"), (["partition", "--n", "4"], "1e300"),
        (["simulate", "--channel", "wireless", "--bins", "64", "--fhi", "2e8"], "1e-150"),
        (["simulate", "--channel", "wireless", "--bins", "64", "--fhi", "2e8"], "1e300"),
    ])
    def test_out_of_range_budget_is_named(self, tmp_path, capsys, command, power):
        # the closed-form scale (1e-300, 1e-150, 1e300) or the exact solve's
        # multiplier (1e160) leaves the float range
        out = tmp_path / "d"
        assert main([*command, "--power", power, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: power budget {float(power):g} is out of range")
        assert "Warning" not in err and ".py:" not in err
        assert not out.exists()

    def test_in_regime_run_prints_nothing(self, tmp_path, capsys):
        rc = main(["shape", "--channel", "wireline", "--bins", "256", "--power", "2e12",
                   "--out", str(tmp_path / "d")])
        assert rc == 0
        assert capsys.readouterr().err == ""


class TestImports:
    def test_no_command_needs_scipy(self, tmp_path):
        # a fresh process, because the test modules import scipy themselves;
        # a meta-path finder makes every scipy import fail there and records
        # every attempt to import numba, which nothing may make
        g = q.make_grid(0.0, 250.0, 16)
        q.write_channel_csv(q.ChannelSpec(q.Psd(g, np.ones(16)), q.Psd(g, np.full(16, 0.1))),
                            tmp_path / "ch.csv")
        q.write_psd_csv(q.Psd(g, np.full(16, 0.05)), tmp_path / "sq.csv")
        script = """
import sys


numba_imports = []


class GuardImports:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numba":
            numba_imports.append(name)
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, GuardImports())
try:
    import scipy.signal
except ImportError:
    pass
else:
    raise AssertionError("the scipy blocker is not in effect")
import qnshape
from qnshape.cli import main
for args in (["shape", "--channel", "wireline", "--bins", "64", "--power", "2e12", "--out", "s"],
             ["partition", "--channel", "wireline", "--bins", "64", "--power", "2e12",
              "--n", "4", "--out", "p"],
             ["capacity", "--channel", "file:ch.csv", "--sq", "sq.csv", "--out", "c"],
             ["simulate", "--channel", "wireless", "--bins", "32", "--fhi", "2e8",
              "--notches", "1", "--notch-depth", "12", "--notch-width", "6e7",
              "--power", "7.5e14", "--order", "4", "--dither", "--samples", "8192",
              "--out", "m"]):
    assert main(args) == 0, args
print("ok", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), numba_imports)
"""
        src = os.path.dirname(os.path.dirname(q.__file__))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "ok [] []"
        assert (tmp_path / "m" / "summary.txt").exists()


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

    @pytest.mark.parametrize("key, value", [
        ("dither", "ture"), ("dither", "2"), ("dither", ""), ("save_trace", "on"),
    ])
    def test_bad_boolean_rejected(self, tmp_path, capsys, monkeypatch, key, value):
        def no_design(*args, **kwargs):
            raise AssertionError("design_ntf ran")

        monkeypatch.setattr(q.deltasigma, "design_ntf", no_design)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key}={value}\n")
        out = tmp_path / "d"
        rc = main(SMALL_SIMULATE + ["--config", str(cfg_file), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err and repr(value) in err
        assert not out.exists()

    @pytest.mark.parametrize("value, expected", [
        ("1", True), ("true", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("false", False), ("False", False), ("NO", False),
    ])
    def test_boolean_spellings(self, tmp_path, monkeypatch, value, expected):
        seen = {}
        monkeypatch.setitem(cli._COMMANDS, "simulate", lambda args: seen.update(vars(args)) or 0)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"dither={value}\nsave_trace={value}\n")
        assert main(["simulate", "--config", str(cfg_file)]) == 0
        assert seen["dither"] is expected and seen["save_trace"] is expected

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("frobnicate=1\n")
        rc = main(["shape", "--config", str(cfg_file), "--power", "1",
                   "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err
