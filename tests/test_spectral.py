import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import signal as sps

import qnshape as q
from qnshape import spectral


class TestMakeGrid:
    def test_single_bin(self):
        g = q.make_grid(0.0, 1.0, 1)
        assert g.delta == 1.0
        assert_array_equal(g.centers, [0.5])

    def test_four_bins(self):
        g = q.make_grid(0.0, 100e6, 4)
        assert g.delta == 25e6
        assert_allclose(g.centers, [12.5e6, 37.5e6, 62.5e6, 87.5e6])

    def test_invalid_range(self):
        with pytest.raises(ValueError, match="invalid range"):
            q.make_grid(1e6, 1e6, 8)

    @pytest.mark.parametrize("f_lo, f_hi", [(np.nan, 1.0), (0.0, np.inf)])
    def test_non_finite_limit_rejected(self, f_lo, f_hi):
        with pytest.raises(ValueError, match="^grid limits must be finite$"):
            q.FrequencyGrid(f_lo, f_hi, 4)

    def test_zero_bins(self):
        with pytest.raises(ValueError):
            q.make_grid(0.0, 1.0, 0)

    def test_centers_inside_open_interval(self):
        g = q.make_grid(2.5, 9.0, 17)
        c = g.centers
        assert np.all(np.diff(c) > 0)
        assert np.all((c > g.f_lo) & (c < g.f_hi))
        assert_allclose(g.edges[0], g.f_lo)
        assert_allclose(g.edges[-1], g.f_hi)


def test_riemann_refinement():
    # midpoint-rule error shrinks with each grid doubling for smooth integrands
    def integrand(f):
        return np.exp(np.sin(2.0 * np.pi * f / 7.0)) + 0.3 * f ** 2

    sums = {}
    for k in (32, 64, 128):
        g = q.make_grid(1.0, 8.0, k)
        sums[k] = g.delta * np.sum(integrand(g.centers))
    assert abs(sums[64] - sums[128]) < abs(sums[32] - sums[64])


class TestPsd:
    def test_negative_values_rejected(self):
        g = q.make_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            q.Psd(g, [-1.0, 0.0, 0.0, 0.0])

    def test_length_mismatch(self):
        g = q.make_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            q.Psd(g, [1.0, 2.0])

    def test_values_read_only(self):
        g = q.make_grid(0.0, 1.0, 4)
        psd = q.Psd(g, np.ones(4))
        with pytest.raises(ValueError):
            psd.values[0] = 2.0


def snr_db(ch):
    return q.to_db(ch.signal.values) - q.to_db(ch.noise.values)


class TestWirelineChannel:
    def test_rising_noise_gives_monotone_snr(self):
        g = q.make_grid(0.0, 1e8, 256)
        ch = q.wireline_channel(g, signal_level_0=0.0, signal_slope=0.0,
                                noise_floor=-90.0, noise_tilt=50.0)
        snr = snr_db(ch)
        assert np.all(np.diff(snr) < 0)
        assert snr[0] == pytest.approx(90.0, abs=0.2)
        assert snr[-1] == pytest.approx(40.0, abs=0.2)

    def test_flat_parameters_give_constant_snr(self):
        g = q.make_grid(0.0, 1e8, 64)
        ch = q.wireline_channel(g, signal_slope=0.0, noise_tilt=0.0)
        assert np.ptp(snr_db(ch)) == pytest.approx(0.0, abs=1e-9)

    def test_underflowing_noise_rejected(self):
        g = q.make_grid(0.0, 1e8, 16)
        with pytest.raises(ValueError, match="nonpositive noise"):
            q.wireline_channel(g, noise_floor=-4000.0, noise_tilt=0.0)

    @pytest.mark.parametrize("name", ["signal_level_0", "signal_slope", "noise_floor",
                                      "noise_tilt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            q.wireline_channel(q.make_grid(0.0, 1e8, 16), **{name: value})

    def test_pure(self):
        g = q.make_grid(0.0, 1e8, 64)
        a = q.wireline_channel(g)
        b = q.wireline_channel(g)
        assert_array_equal(a.signal.values, b.signal.values)
        assert_array_equal(a.noise.values, b.noise.values)


def _count_strict_minima(x):
    return int(np.sum((x[1:-1] < x[:-2]) & (x[1:-1] < x[2:])))


class TestWirelessChannel:
    def test_three_notches(self):
        g = q.make_grid(0.0, 2e8, 256)
        ch = q.wireless_channel(g, num_notches=3, notch_depth=30.0, seed=20)
        snr = snr_db(ch)
        assert _count_strict_minima(snr) == 3
        # minima sit ~30 dB below the inter-notch level
        depth = np.max(snr) - np.min(snr)
        assert depth == pytest.approx(30.0, abs=2.0)

    def test_zero_notches_flat(self):
        g = q.make_grid(0.0, 2e8, 64)
        ch = q.wireless_channel(g, num_notches=0)
        assert np.ptp(snr_db(ch)) == 0.0

    def test_deterministic_in_seed(self):
        g = q.make_grid(0.0, 2e8, 128)
        a = q.wireless_channel(g, seed=7)
        b = q.wireless_channel(g, seed=7)
        assert_array_equal(a.noise.values, b.noise.values)
        c = q.wireless_channel(g, seed=8)
        assert not np.array_equal(a.noise.values, c.noise.values)

    @pytest.mark.parametrize("name", ["num_notches", "notch_depth", "notch_width",
                                      "noise_floor"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            q.wireless_channel(q.make_grid(0.0, 2e8, 16), **{name: value})

    @pytest.mark.parametrize("kwargs, message", [
        ({"num_notches": -1}, "num_notches must be >= 0"),
        ({"notch_width": 0.0}, "notch_width must be positive"),
    ], ids=["negative-count", "zero-width"])
    def test_notch_parameter_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            q.wireless_channel(q.make_grid(0.0, 2e8, 16), **kwargs)

    def test_notches_exceeding_band_rejected(self):
        g = q.make_grid(0.0, 1e6, 64)
        with pytest.raises(ValueError, match="exceed the band"):
            q.wireless_channel(g, num_notches=4, notch_width=2e5)


class TestEstimatePsd:
    def test_sinusoid_total_power(self):
        fs = 1e4
        n = 2 ** 16
        t = np.arange(n) / fs
        f0 = 50 * fs / 1024  # on a Welch bin
        x = np.sin(2.0 * np.pi * f0 * t)
        psd = q.estimate_psd(x, fs, segment_len=1024)
        assert psd.total_power() == pytest.approx(0.5, rel=0.01)

    def test_zero_sequence(self):
        psd = q.estimate_psd(np.zeros(4096), 1.0, segment_len=256)
        assert_array_equal(psd.values, np.zeros(128))

    def test_white_noise_level(self):
        fs = 2e3
        sigma2 = 0.7
        rng = np.random.default_rng(11)
        seg = 512
        n = seg * 100  # >= 100 averaged segments at 50% overlap
        x = rng.normal(0.0, np.sqrt(sigma2), n)
        psd = q.estimate_psd(x, fs, segment_len=seg)
        expected = sigma2 / (fs / 2.0)
        assert np.mean(psd.values) == pytest.approx(expected, rel=0.10)
        assert psd.total_power() == pytest.approx(sigma2, rel=0.02)

    @pytest.mark.parametrize("n, seg", [
        (2 ** 15, 4096), (10000, 256), (5000, 64), (4096, 4096), (999, 2), (3001, 500)])
    def test_matches_scipy_welch(self, n, seg):
        x = np.random.default_rng(n).standard_normal(n) + 0.3
        fs = 3.7e9
        _, pxx = sps.welch(x, fs=fs, window="hann", nperseg=seg, noverlap=seg // 2,
                           detrend=False, scaling="density")
        psd = q.estimate_psd(x, fs, segment_len=seg)
        assert_allclose(psd.values, 0.5 * (pxx[:-1] + pxx[1:]), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seg", [2, 64, 4096])
    def test_blocks_match_the_one_shot_mean_bit_for_bit(self, seg):
        # the spec: every windowed segment transformed at once, then
        # np.mean over the segments; the estimate streams them in blocks
        block = max(1, spectral._WELCH_BLOCK_SAMPLES // seg)
        fs = 3.7e9
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)
        # 127 segments: the tracking report's at 2^18 samples
        for count in sorted({1, block - 1, block, block + 1, 2 * block + 3, 127} - {0}):
            x = np.random.default_rng(count).standard_normal((count + 1) * seg // 2) + 0.3
            segments = np.lib.stride_tricks.sliding_window_view(x, seg)[::seg // 2]
            assert len(segments) == count
            spectra = np.fft.rfft(segments * window, axis=1)
            pxx = np.mean(spectra.real ** 2 + spectra.imag ** 2, axis=0)
            pxx /= fs * float(np.sum(window ** 2))
            pxx[1:-1] *= 2.0
            psd = q.estimate_psd(x, fs, segment_len=seg)
            assert_array_equal(psd.values, 0.5 * (pxx[:-1] + pxx[1:]), err_msg=f"{count} segments")

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="too few samples"):
            q.estimate_psd(np.zeros(100), 1.0, segment_len=256)

    @pytest.mark.parametrize("shape, seg, message", [
        ((2, 64), 16, "samples must be one-dimensional"),
        ((128,), 15, "segment_len must be an even integer >= 2"),
    ], ids=["two-dimensional", "odd-segment"])
    def test_bad_input_rejected(self, shape, seg, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            q.estimate_psd(np.zeros(shape), 1.0, segment_len=seg)


class TestCsvRoundTrip:
    def test_psd(self, tmp_path):
        g = q.make_grid(0.0, 1e6, 32)
        psd = q.Psd(g, np.linspace(1e-9, 5e-9, 32))
        path = tmp_path / "psd.csv"
        q.write_psd_csv(psd, path)
        back = q.read_psd_csv(path)
        assert_allclose(back.grid.centers, psd.grid.centers, rtol=1e-12)
        assert_array_equal(back.values, psd.values)

    def test_channel(self, tmp_path):
        g = q.make_grid(1e6, 9e6, 16)
        ch = q.wireline_channel(g)
        path = tmp_path / "channel.csv"
        q.write_channel_csv(ch, path)
        back = q.read_channel_csv(path)
        assert_array_equal(back.signal.values, ch.signal.values)
        assert_array_equal(back.noise.values, ch.noise.values)

    def test_two_bins(self, tmp_path):
        # the fewest bins that the readers can infer a grid from
        g = q.make_grid(0.0, 0.2, 2)
        ch = q.ChannelSpec(q.Psd(g, [1 / 3, 0.0]), q.Psd(g, [0.1, 1e-300]))
        q.write_psd_csv(ch.signal, tmp_path / "psd.csv")
        q.write_channel_csv(ch, tmp_path / "ch.csv")
        psd, back = q.read_psd_csv(tmp_path / "psd.csv"), q.read_channel_csv(tmp_path / "ch.csv")
        for grid in (psd.grid, back.grid):
            assert grid.num_bins == 2
            assert_allclose([grid.f_lo, grid.f_hi], [0.0, 0.2], rtol=1e-12, atol=1e-15)
        assert_array_equal(psd.values, ch.signal.values)
        assert_array_equal(back.signal.values, ch.signal.values)
        assert_array_equal(back.noise.values, ch.noise.values)

    def test_one_bin_write_refused(self, tmp_path):
        # the readers infer the grid from bin centers, so one bin cannot come back
        g = q.make_grid(0.0, 100.0, 1)
        ch = q.ChannelSpec(q.Psd(g, [1.0]), q.Psd(g, [1.0]))
        message = "need at least two rows to infer the frequency grid"
        with pytest.raises(ValueError, match=message):
            q.write_psd_csv(ch.signal, tmp_path / "psd.csv")
        with pytest.raises(ValueError, match=message):
            q.write_channel_csv(ch, tmp_path / "ch.csv")
        assert list(tmp_path.iterdir()) == []

    def test_shaping_result_read_as_psd(self, tmp_path):
        g = q.make_grid(0.0, 0.2, 2)
        result = q.ShapingResult(q.Psd(g, [1 / 12, 1e-300]), 1.0)
        q.write_shaping_csv(result, tmp_path / "shaping.csv")
        assert_array_equal(q.read_psd_csv(tmp_path / "shaping.csv").values, [1 / 12, 1e-300])

    @pytest.mark.parametrize("rows, message", [
        ("0.5,1.0\n", "need at least two rows to infer the frequency grid"),
        ("0.5,1.0\n1.5,1.0\n3.5,1.0\n", "rows must be sorted on a uniform frequency grid"),
    ], ids=["one-row", "uneven-rows"])
    def test_grid_not_inferable(self, tmp_path, rows, message):
        path = tmp_path / "psd.csv"
        path.write_text("frequency_hz,psd\n" + rows)
        with pytest.raises(ValueError, match=f"{message}$"):
            q.read_psd_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq,psd\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            q.read_psd_csv(path)

    def test_unequal_columns_rejected_before_writing(self, tmp_path):
        path = tmp_path / "ragged.csv"
        with pytest.raises(ValueError, match=r"equal lengths, got \[3, 2\]"):
            q.spectral._write_csv(path, "a,b", [np.arange(3), np.arange(2.0)])
        assert not path.exists()
