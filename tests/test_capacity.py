import numpy as np
import pytest
from numpy.testing import assert_allclose

import qnshape as q

from conftest import random_smooth_psd


def flat_channel(sx, sv, f_hi=1.0, k=1):
    g = q.make_grid(0.0, f_hi, k)
    return q.ChannelSpec(q.Psd(g, np.full(k, sx)), q.Psd(g, np.full(k, sv)))


class TestCapacityBefore:
    def test_unit_snr_unit_band(self):
        assert q.capacity_before(flat_channel(1.0, 1.0)) == pytest.approx(1.0)

    def test_zero_signal(self):
        assert q.capacity_before(flat_channel(0.0, 1.0)) == 0.0

    def test_grid_refinement_oracle(self):
        # the same smooth SNR integrand on K=64 vs a 10x finer grid
        def snr(f):
            return 10.0 ** (3.0 + 2.0 * np.sin(2 * np.pi * f / 1e8))

        def cap_on(k):
            g = q.make_grid(0.0, 1e8, k)
            sv = np.full(k, 1e-9)
            ch = q.ChannelSpec(q.Psd(g, snr(g.centers) * sv), q.Psd(g, sv))
            return q.capacity_before(ch)

        assert cap_on(64) == pytest.approx(cap_on(640), rel=1e-3)


class TestCapacityAfter:
    def test_zero_sq_reduces_to_before(self):
        ch = flat_channel(3.0, 1.0, k=8)
        sq = q.Psd(ch.grid, np.zeros(8))
        assert q.capacity_after(ch, sq) == q.capacity_before(ch)

    def test_huge_sq_kills_capacity(self):
        ch = flat_channel(3.0, 1.0)
        sq = q.Psd(ch.grid, [1e12])
        assert q.capacity_after(ch, sq) == pytest.approx(0.0, abs=1e-10)

    def test_scalar_hand_value(self):
        # SNR 3, Sq = Sv on a 1 Hz band: log2(1 + 3/2)
        ch = flat_channel(3.0, 1.0)
        sq = q.Psd(ch.grid, [1.0])
        assert q.capacity_after(ch, sq) == pytest.approx(np.log2(2.5), rel=1e-12)

    def test_grid_mismatch(self):
        ch = flat_channel(1.0, 1.0, k=4)
        sq = q.Psd(q.make_grid(0.0, 2.0, 4), np.ones(4))
        with pytest.raises(ValueError, match="grid mismatch"):
            q.capacity_after(ch, sq)


class TestInfoLoss:
    def test_zero_sq(self):
        ch = flat_channel(1.0, 1.0, k=4)
        assert q.info_loss(ch.noise, q.Psd(ch.grid, np.zeros(4))) == 0.0

    def test_sq_equal_noise_unit_band(self):
        ch = flat_channel(1.0, 1.0)
        assert q.info_loss(ch.noise, q.Psd(ch.grid, [1.0])) == pytest.approx(1.0)

    def test_matches_exact_difference_under_separation(self):
        rng = np.random.default_rng(5)
        g = q.make_grid(0.0, 1e6, 64)
        for _ in range(5):
            sx = q.Psd(g, 10.0 ** rng.uniform(-1, 1, 64))
            sv = q.Psd(g, sx.values * 10.0 ** rng.uniform(-4, -3, 64))
            sq = q.Psd(g, sv.values * 10.0 ** rng.uniform(-4, -3, 64))
            ch = q.ChannelSpec(sx, sv)
            loss = q.info_loss(sv, sq)
            exact = q.capacity_before(ch) - q.capacity_after(ch, sq)
            assert loss == pytest.approx(exact, rel=0.01)

    def test_upper_bounds_exact_difference(self):
        # log concavity makes the small-noise form an upper bound always
        rng = np.random.default_rng(6)
        g = q.make_grid(0.0, 1.0, 32)
        for _ in range(20):
            sx = q.Psd(g, 10.0 ** rng.uniform(-2, 2, 32))
            sv = q.Psd(g, 10.0 ** rng.uniform(-2, 2, 32))
            sq = q.Psd(g, 10.0 ** rng.uniform(-2, 2, 32))
            ch = q.ChannelSpec(sx, sv)
            exact = q.capacity_before(ch) - q.capacity_after(ch, sq)
            assert q.info_loss(sv, sq) >= exact - 1e-12


class TestBitsSqConversion:
    @pytest.mark.parametrize("sq,bits", [(1.0 / 48.0, 1.0), (1.0 / 12.0, 0.0),
                                         (2.0 ** -16 / 12.0, 8.0)])
    def test_known_pairs(self, sq, bits):
        g = q.make_grid(0.0, 1.0, 1)
        bp = q.bits_from_sq(q.Psd(g, [sq]))
        assert bp.bits[0] == pytest.approx(bits, abs=1e-12)
        back = q.sq_from_bits(q.BitProfile(g, [bits]))
        assert back.values[0] == pytest.approx(sq, rel=1e-15)

    def test_round_trip_machine_precision(self):
        rng = np.random.default_rng(7)
        g = q.make_grid(0.0, 1e6, 128)
        bits = rng.uniform(0.0, 20.0, 128)
        bp = q.bits_from_sq(q.sq_from_bits(q.BitProfile(g, bits)))
        assert_allclose(bp.bits, bits, rtol=0, atol=1e-12)

    def test_nonpositive_sq_rejected(self):
        g = q.make_grid(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            q.bits_from_sq(q.Psd(g, [0.0, 1.0]))

    @pytest.mark.parametrize("bits, message", [
        ([1.0, 2.0], "bits length must equal grid.num_bins"),
        ([1.0, np.nan, 2.0], "bits must be finite"),
        ([1.0, np.inf, 2.0], "bits must be finite"),
    ], ids=["short", "nan", "inf"])
    def test_bit_profile_checked(self, bits, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            q.BitProfile(q.make_grid(0.0, 1.0, 3), bits)

    def test_negative_bits_pass_through_math(self):
        # Sq above 1/12 maps to negative bit density; a report clamps it at zero
        g = q.make_grid(0.0, 1.0, 1)
        bp = q.bits_from_sq(q.Psd(g, [1.0]))
        assert bp.bits[0] < 0
        assert np.maximum(bp.bits, 0.0)[0] == 0.0


class TestPower:
    def test_zero_bits_unit_band(self):
        g = q.make_grid(0.0, 1.0, 4)
        assert q.power_of_bits(q.BitProfile(g, np.zeros(4))).p == pytest.approx(1.0)

    def test_eight_bits_hundred_hertz(self):
        g = q.make_grid(0.0, 100.0, 10)
        assert q.power_of_bits(q.BitProfile(g, np.full(10, 8.0))).p == pytest.approx(25600.0)

    @pytest.mark.parametrize("sq,p", [(1.0 / 48.0, 2.0), (1.0 / 12.0, 1.0)])
    def test_power_of_flat_sq(self, sq, p):
        g = q.make_grid(0.0, 1.0, 8)
        assert q.power_of_sq(q.Psd(g, np.full(8, sq))).p == pytest.approx(p, rel=1e-14)

    def test_power_identity_random_profiles(self):
        rng = np.random.default_rng(8)
        g = q.make_grid(0.0, 1e7, 64)
        for _ in range(10):
            bp = q.BitProfile(g, rng.uniform(0.0, 16.0, 64))
            p_bits = q.power_of_bits(bp).p
            p_sq = q.power_of_sq(q.sq_from_bits(bp)).p
            assert p_sq == pytest.approx(p_bits, rel=1e-12)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            q.PowerBudget(0.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, np.nan, np.inf])
    def test_budget_error_names_the_value(self, p):
        with pytest.raises(ValueError, match=f"^power budget must be positive and finite, got {p}$"):
            q.PowerBudget(p)

    def test_zero_sq_bin_rejected(self):
        g = q.make_grid(0.0, 1.0, 2)
        with pytest.raises(ValueError, match="strictly positive to integrate power"):
            q.power_of_sq(q.Psd(g, [0.0, 1.0]))


def test_monotonicity_in_sq():
    rng = np.random.default_rng(9)
    g = q.make_grid(0.0, 1e6, 32)
    ch = q.ChannelSpec(random_smooth_psd(g, rng, -40, -20),
                       random_smooth_psd(g, rng, -90, -70))
    sq_vals = random_smooth_psd(g, rng, -100, -95).values.copy()
    base_after = q.capacity_after(ch, q.Psd(g, sq_vals))
    base_loss = q.info_loss(ch.noise, q.Psd(g, sq_vals))
    bumped = sq_vals.copy()
    bumped[13] *= 2.0
    assert q.capacity_after(ch, q.Psd(g, bumped)) < base_after
    assert q.info_loss(ch.noise, q.Psd(g, bumped)) > base_loss
