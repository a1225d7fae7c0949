import dataclasses
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import qnshape as q

from conftest import random_smooth_psd

_LN2 = np.log(2.0)
_SQRT12 = np.sqrt(12.0)


def _loss(sq_vals, sv, delta):
    return delta * float(np.sum(np.log1p(sq_vals / sv))) / _LN2


def _renormalize(sq_vals, delta, power_target):
    # scaling Sq by g^2 scales the power integral by 1/g: one exact projection
    integral = delta * float(np.sum(sq_vals ** -0.5)) / _SQRT12
    return sq_vals * (integral / power_target) ** 2


def flat_noise(level, width=1.0, k=8):
    g = q.make_grid(0.0, width, k)
    return q.Psd(g, np.full(k, level))


class TestClosedForm:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_flat_noise_value_and_level_invariance(self):
        w, p = 1.0, 1.0
        expected = w * w / (12.0 * p * p)
        for level in (1e-9, 0.37, 42.0):
            res = q.optimal_sq(flat_noise(level, w), q.PowerBudget(p))
            assert_allclose(res.sq_opt.values, expected, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_flat_noise_general_width_and_power(self):
        w, p = 7.5e7, 3.2e5
        res = q.optimal_sq(flat_noise(1e-8, w, k=64), q.PowerBudget(p))
        assert_allclose(res.sq_opt.values, w * w / (12.0 * p * p), rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_budget_scale_law(self):
        rng = np.random.default_rng(0)
        noise = random_smooth_psd(q.make_grid(0.0, 1e8, 64), rng)
        base = q.optimal_sq(noise, q.PowerBudget(1e11))
        for alpha in (0.5, 2.0, 17.0):
            scaled = q.optimal_sq(noise, q.PowerBudget(alpha * 1e11))
            assert_allclose(scaled.sq_opt.values, base.sq_opt.values / alpha ** 2,
                            rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_noise_level_invariance(self):
        rng = np.random.default_rng(1)
        g = q.make_grid(0.0, 1e8, 64)
        noise = random_smooth_psd(g, rng)
        base = q.optimal_sq(noise, q.PowerBudget(1e11))
        for alpha in (1e-3, 12.0):
            scaled = q.optimal_sq(q.Psd(g, alpha * noise.values), q.PowerBudget(1e11))
            assert_allclose(scaled.sq_opt.values, base.sq_opt.values, rtol=1e-12)

    def test_two_level_noise(self, recwarn):
        # Sv in {1, 8} on equal half-bands, W = 1, P = 1:
        # bracket = (0.5*1 + 0.5/2)/sqrt(12), Sq_low = 0.75^2/12 = 3/64,
        # Sq_high = 8^(2/3) * 3/64 = 3/16
        g = q.make_grid(0.0, 1.0, 8)
        sv = np.where(g.centers < 0.5, 1.0, 8.0)
        res = q.optimal_sq(q.Psd(g, sv), q.PowerBudget(1.0))
        assert_allclose(res.sq_opt.values[:4], 3.0 / 64.0, rtol=1e-12)
        assert_allclose(res.sq_opt.values[4:], 3.0 / 16.0, rtol=1e-12)
        ratio = res.sq_opt.values[7] / res.sq_opt.values[0]
        assert ratio == pytest.approx(8.0 ** (2.0 / 3.0), rel=1e-12)

    def test_two_level_noise_vs_numerical_oracle(self):
        g = q.make_grid(0.0, 1.0, 128)
        sv = np.where(g.centers < 0.5, 1.0, 8.0)
        ch = q.ChannelSpec(q.Psd(g, np.full(128, 1e6)), q.Psd(g, sv))
        budget = q.PowerBudget(300.0)  # deep in the small-noise regime
        closed = q.optimal_sq(ch.noise, budget)
        numeric = q.optimal_sq_numerical(ch, budget, q.SearchConfig(seed=1))
        gap_db = 10.0 * np.log10(numeric.sq_opt.values / closed.sq_opt.values)
        assert q.info_loss(ch.noise, numeric.sq_opt) == pytest.approx(
            q.info_loss(ch.noise, closed.sq_opt), rel=0.01)
        assert np.max(np.abs(gap_db)) < 0.5

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_power_constraint_exact_on_random_noise(self):
        rng = np.random.default_rng(2)
        for i in range(100):
            k = int(rng.integers(2, 200))
            g = q.make_grid(0.0, float(rng.uniform(1.0, 1e9)), k)
            noise = q.Psd(g, 10.0 ** rng.uniform(-12, -2, k))
            p = float(10.0 ** rng.uniform(0, 14))
            res = q.optimal_sq(noise, q.PowerBudget(p))
            assert abs(q.power_of_sq(res.sq_opt).p - p) / p < 1e-9

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_shape_law(self):
        rng = np.random.default_rng(3)
        g = q.make_grid(0.0, 1e6, 64)
        noise = q.Psd(g, 10.0 ** rng.uniform(-10, -4, 64))
        res = q.optimal_sq(noise, q.PowerBudget(1e9))
        sv, sq = noise.values, res.sq_opt.values
        expect = (sv[:, None] / sv[None, :]) ** (2.0 / 3.0)
        got = sq[:, None] / sq[None, :]
        assert_allclose(got, expect, rtol=1e-12)

    def test_bits_higher_where_noise_lower(self, wireline_fixture):
        ch, budget = wireline_fixture
        res = q.optimal_sq(ch.noise, budget)
        # noise rises with frequency on the wireline fixture
        assert np.all(np.diff(q.bits_from_sq(res.sq_opt).bits) < 0)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_single_bin_band(self):
        g = q.make_grid(0.0, 4.0, 1)
        for level in (1e-9, 123.0):
            res = q.optimal_sq(q.Psd(g, [level]), q.PowerBudget(2.0))
            assert res.sq_opt.values[0] == pytest.approx(16.0 / 48.0, rel=1e-12)

    def test_local_optimality_under_perturbation(self):
        rng = np.random.default_rng(4)
        g = q.make_grid(0.0, 1e6, 64)
        noise = q.Psd(g, 10.0 ** rng.uniform(-9, -7, 64))
        budget = q.PowerBudget(1e13)  # deep small-noise regime: bias negligible
        res = q.optimal_sq(noise, budget)
        assert np.max(res.sq_opt.values / noise.values) < 1e-4
        opt_loss = q.info_loss(noise, res.sq_opt)
        delta = g.delta
        for _ in range(1000):
            pert = res.sq_opt.values * np.exp(1e-3 * rng.standard_normal(64))
            pert = _renormalize(pert, delta, budget.p)
            assert _loss(pert, noise.values, delta) >= opt_loss - 1e-10

    def test_smallness_warning(self):
        with pytest.warns(UserWarning, match="not small"):
            q.optimal_sq(flat_noise(1.0), q.PowerBudget(0.5))

    def test_lagrange_multiplier_diagnostic(self):
        # stationarity: lambda = 2 W log2(e) scale^1.5 reproduces the
        # first-order condition Sq^(-1/2) = (2 W log2(e)/lambda) Sq/Sv
        rng = np.random.default_rng(12)
        g = q.make_grid(0.0, 3e6, 32)
        noise = random_smooth_psd(g, rng)
        res = q.optimal_sq(noise, q.PowerBudget(1e11))
        lam = 2.0 * g.width * np.log2(np.e) * res.lagrange_scale ** 1.5
        sq = res.sq_opt.values
        lhs = sq ** -0.5
        rhs = 2.0 * g.width * np.log2(np.e) / lam * sq / noise.values
        assert_allclose(lhs, rhs, rtol=1e-9)


class TestNumericalOptimizer:
    def test_flat_noise_converges_to_analytic(self):
        g = q.make_grid(0.0, 2.0, 32)
        ch = q.ChannelSpec(q.Psd(g, np.full(32, 1e5)), q.Psd(g, np.ones(32)))
        budget = q.PowerBudget(50.0)
        res = q.optimal_sq_numerical(ch, budget, q.SearchConfig(seed=0))
        expected = 4.0 / (12.0 * 50.0 ** 2)
        assert res.converged
        assert_allclose(res.sq_opt.values, expected, rtol=5e-3)

    def test_power_met_within_tolerance(self, wireline_fixture):
        ch, budget = wireline_fixture
        res = q.optimal_sq_numerical(ch, budget, q.SearchConfig(seed=2))
        assert abs(q.power_of_sq(res.sq_opt).p - budget.p) / budget.p < 1e-6

    def test_loss_decreases_with_budget(self):
        g = q.make_grid(0.0, 1.0, 16)
        ch = q.ChannelSpec(q.Psd(g, np.full(16, 1e4)), q.Psd(g, np.ones(16)))
        losses = [
            q.info_loss(ch.noise, q.optimal_sq_numerical(ch, q.PowerBudget(p),
                                                         q.SearchConfig(seed=3)).sq_opt)
            for p in (1e2, 1e4, 1e9)
        ]
        assert losses[0] > losses[1] > losses[2] > 0

    def test_non_convergence_flagged_not_raised(self, wireline_fixture, monkeypatch):
        ch, budget = wireline_fixture
        monkeypatch.setattr(q.shaping, "_BISECTION_STEPS", 3)
        res = q.optimal_sq_numerical(ch, budget, q.SearchConfig(seed=0))
        assert not res.converged and res.iterations == 3
        assert res.sq_opt.values.shape == (256,)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=60, deadline=None)
    @given(log_sv=arrays(float, st.integers(1, 300), elements=st.floats(-12.0, -3.0)),
           log_w=st.floats(3.0, 9.0), log_p=st.floats(2.0, 14.0), data=st.data())
    def test_exact_solve_properties(self, log_sv, log_w, log_p, data):
        k = log_sv.size
        g = q.make_grid(0.0, 10.0 ** log_w, k)
        sv = 10.0 ** log_sv
        ch = q.ChannelSpec(q.Psd(g, np.ones(k)), q.Psd(g, sv))
        budget = q.PowerBudget(10.0 ** log_p)
        res = q.optimal_sq_numerical(ch, budget)
        assert res.converged
        assert abs(q.power_of_sq(res.sq_opt).p - budget.p) / budget.p <= 1e-12
        sq = res.sq_opt.values
        stationary = sq ** 1.5 / (sv + sq)
        assert_allclose(stationary, stationary[0], rtol=1e-9, atol=0.0)
        loss = q.info_loss(ch.noise, res.sq_opt)
        closed = q.optimal_sq(ch.noise, budget)
        assert loss <= q.info_loss(ch.noise, closed.sq_opt) * (1.0 + 1e-12)
        # any other shape, scaled to the same power (Sq * g^2 has power p / g),
        # loses at least as much
        shape = 10.0 ** data.draw(arrays(float, k, elements=st.floats(-3.0, 3.0)),
                                  label="log_shape")
        scale = q.power_of_sq(q.Psd(g, shape)).p / budget.p
        other = q.Psd(g, shape * scale ** 2)
        assert loss <= q.info_loss(ch.noise, other) * (1.0 + 1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 300), log_level=st.floats(-12.0, -3.0),
           log_w=st.floats(3.0, 9.0), log_p=st.floats(2.0, 14.0))
    def test_exact_solve_flat_noise(self, k, log_level, log_w, log_p):
        w, p = 10.0 ** log_w, 10.0 ** log_p
        g = q.make_grid(0.0, w, k)
        ch = q.ChannelSpec(q.Psd(g, np.ones(k)), q.Psd(g, np.full(k, 10.0 ** log_level)))
        res = q.optimal_sq_numerical(ch, q.PowerBudget(p))
        assert res.converged
        assert_allclose(res.sq_opt.values, w * w / (12.0 * p * p), rtol=1e-12, atol=0.0)

    def test_stationary_root_within_one_float_of_exact(self):
        # log-uniform kappa over the exact solve's range, and kappa values at
        # which Cardano's formula alone lands two floats from the correctly
        # rounded root; the Newton polish brings each within one
        kappa = np.concatenate([
            10.0 ** np.random.default_rng(0).uniform(-30.0, 70.0, 2000),
            [3292.4008836584358, 0.03553763939596137, 2.9660397119247373e-07,
             56388137.60260247, 5.3771891542943535e-08]])
        u = q.shaping._stationary_u(kappa)
        exact = np.empty_like(u)
        with localcontext() as ctx:
            ctx.prec = 50
            for i, (k, root) in enumerate(zip(kappa.tolist(), u.tolist())):
                k, root = Decimal(k), Decimal(root)
                for _ in range(3):
                    root -= (root * root * (root - k) - k) / (root * (3 * root - 2 * k))
                exact[i] = float(root)
        # adjacent positive floats differ by 1 in their integer bit patterns
        floats_apart = np.abs(u.view(np.int64) - exact.view(np.int64))
        assert floats_apart.max() <= 1, kappa[floats_apart > 1]

    @pytest.mark.parametrize("fixture, p", [("wireline_fixture", 2e12),
                                            ("wireline_fixture", 1e9),
                                            ("wireless_fixture", 5e12)])
    def test_exact_lagrange_scale_is_stationary_constant(self, fixture, p, request):
        # documented: lagrange_scale = c^(2/3), c = Sq^(3/2) / (Sv + Sq) in every bin
        ch, _ = request.getfixturevalue(fixture)
        res = q.optimal_sq_numerical(ch, q.PowerBudget(p))
        sq, sv = res.sq_opt.values, ch.noise.values
        assert_allclose(np.full(sq.size, res.lagrange_scale ** 1.5), sq ** 1.5 / (sv + sq),
                        rtol=1e-11, atol=0.0)


class TestVerifyShaping:
    def test_self_comparison(self, wireline_fixture):
        ch, budget = wireline_fixture
        res = q.optimal_sq(ch.noise, budget)
        rep = q.verify_shaping(ch, res.sq_opt, budget)
        assert abs(rep.power_residual) < 1e-9
        assert rep.info_loss == q.info_loss(ch.noise, res.sq_opt)
        assert rep.max_sq_over_noise < 0.1

    def test_flat_profile_is_suboptimal(self, wireline_fixture):
        ch, budget = wireline_fixture
        g = ch.grid
        flat = q.Psd(g, np.full(g.num_bins, g.width ** 2 / (12.0 * budget.p ** 2)))
        rep = q.verify_shaping(ch, flat, budget)
        assert abs(rep.power_residual) < 1e-9
        assert rep.info_loss > q.info_loss(ch.noise, q.optimal_sq(ch.noise, budget).sq_opt)

    def test_wrong_power_reported_not_raised(self, wireline_fixture):
        ch, budget = wireline_fixture
        res = q.optimal_sq(ch.noise, q.PowerBudget(budget.p / 2.0))
        rep = q.verify_shaping(ch, res.sq_opt, budget)
        assert rep.power_residual == pytest.approx(-0.5, rel=1e-9)

    def test_negative_bits_surfaced(self):
        noise = flat_noise(1.0, 1.0, 4)
        ch = q.ChannelSpec(q.Psd(noise.grid, np.full(4, 10.0)), noise)
        with pytest.warns(UserWarning):
            res = q.optimal_sq(noise, q.PowerBudget(0.1))
        rep = q.verify_shaping(ch, res.sq_opt, q.PowerBudget(0.1))
        assert rep.min_bits < 0
        assert rep.max_sq_over_noise > 0.1

    def test_solves_nothing_and_never_warns(self, wireline_fixture, monkeypatch):
        # ch.noise as the candidate is far outside the small-noise regime
        ch, _ = wireline_fixture

        def forbidden(*args, **kwargs):
            raise AssertionError("verify_shaping ran a solve")

        monkeypatch.setattr(q.shaping, "optimal_sq", forbidden)
        monkeypatch.setattr(q.shaping, "optimal_sq_numerical", forbidden)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = q.verify_shaping(ch, ch.noise, q.PowerBudget(1e9))
        assert rep.max_sq_over_noise == 1.0

    def test_max_noise_over_signal(self, wireline_fixture, wireless_fixture):
        # both fixtures' signals are flat at 1; a sloped one tells Sx from 1/Sx
        ch, budget = wireline_fixture
        sloped = (q.wireline_channel(ch.grid, signal_level_0=10.0, signal_slope=-40.0), budget)
        for ch, budget in (wireline_fixture, wireless_fixture, sloped):
            sq = q.optimal_sq(ch.noise, budget).sq_opt
            rep = q.verify_shaping(ch, sq, budget)
            assert rep.max_noise_over_signal == np.max((ch.noise.values + sq.values)
                                                       / ch.signal.values)

    def test_zero_signal_bin_reads_infinite_noise_over_signal(self, wireline_fixture):
        ch, budget = wireline_fixture
        signal = ch.signal.values.copy()
        signal[7] = 0.0
        ch = q.ChannelSpec(q.Psd(ch.grid, signal), ch.noise)
        rep = q.verify_shaping(ch, q.optimal_sq(ch.noise, budget).sq_opt, budget)
        assert rep.max_noise_over_signal == np.inf


def test_solves_measure_nothing(wireline_fixture, monkeypatch):
    # a solve returns the shape and multiplier it decides; the capacity
    # functions measure the shape
    ch, budget = wireline_fixture

    def forbidden(*args, **kwargs):
        raise AssertionError("a solve measured its shape")

    monkeypatch.setattr(q.capacity, "info_loss", forbidden)
    monkeypatch.setattr(q.capacity, "power_of_sq", forbidden)
    monkeypatch.setattr(q.shaping, "bits_from_sq", forbidden)
    closed = q.optimal_sq(ch.noise, budget)
    numeric = q.optimal_sq_numerical(ch, budget)
    assert numeric.converged and closed.sq_opt.values.shape == numeric.sq_opt.values.shape
    assert [f.name for f in dataclasses.fields(q.ShapingResult)] == [
        "sq_opt", "lagrange_scale", "converged", "iterations"]


@pytest.mark.parametrize("solve", [lambda ch, p: q.optimal_sq(ch.noise, p),
                                   q.optimal_sq_numerical], ids=["closed_form", "exact"])
def test_zero_bin_names_the_budget(solve):
    # Sq in the 1e-300 bin is about 5e-343 by the closed form (and the exact
    # solve agrees there), which underflows to 0
    g = q.make_grid(0.0, 1.0, 4)
    ch = q.ChannelSpec(q.Psd(g, np.ones(4)), q.Psd(g, [1e-300, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match=r"^power budget 1e\+170 is out of range"):
        solve(ch, q.PowerBudget(1e170))


@pytest.mark.parametrize("solve", [lambda noise: q.info_loss(noise, noise),
                                   lambda noise: q.optimal_sq(noise, 1.0)],
                         ids=["info_loss", "optimal_sq"])
def test_zero_noise_bin_rejected(solve):
    g = q.make_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="^noise PSD must be strictly positive$"):
        solve(q.Psd(g, [1.0, 0.0, 1.0, 1.0]))


def test_shaping_serialization(tmp_path, wireline_fixture):
    ch, budget = wireline_fixture
    res = q.optimal_sq(ch.noise, budget)
    csv_path = tmp_path / "shaping.csv"
    q.write_shaping_csv(res, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "frequency_hz,sq_opt,bits"
    assert len(lines) == 257
    f0, sq0, b0 = map(float, lines[1].split(","))
    assert f0 == ch.grid.centers[0]
    assert sq0 == res.sq_opt.values[0]
    assert b0 == q.bits_from_sq(res.sq_opt).bits[0]

    q.write_summary({"alpha": 1.5, "n": 3, "ok": True}, tmp_path / "summary.txt")
    text = (tmp_path / "summary.txt").read_text()
    assert "alpha=1.5" in text and "n=3" in text and "ok=true" in text
