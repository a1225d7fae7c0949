import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import qnshape as q
from qnshape.multichannel import _power_measure, _snap_edges_to_bins

from conftest import random_smooth_psd


def _exhaustive_integer_ratio(noise, p, n):
    """Oracle: every composition of n..4n units in enumeration order; a plan
    replaces the best so far only if better by more than 1e-15.  Returns the
    edges and the worst relative deviation from equal power."""
    g = noise.grid
    cum = _power_measure(q.optimal_sq(noise, q.PowerBudget(p)).sq_opt)
    p_even = p / n
    best_edges, best_dev = None, np.inf
    for total in range(n, 4 * n + 1):
        for cuts in combinations(range(1, total), n - 1):
            edges = g.f_lo + np.array([0, *cuts, total]) * (g.width / total)
            edges[-1] = g.f_hi
            powers = np.diff(np.interp(edges, g.edges, cum))
            dev = float(np.max(np.abs(powers - p_even))) / p_even
            if dev < best_dev - 1e-15:
                best_edges, best_dev = edges, dev
    return best_edges, best_dev


def _concatenated_loss(noise, results):
    """info_loss of the per-band shapes laid side by side on noise's grid."""
    return q.info_loss(noise, q.Psd(noise.grid, np.concatenate([r.sq_opt.values
                                                                 for r in results])))


class TestTimeInterleave:
    def test_identity_for_n1(self):
        g = q.make_grid(0.0, 1.0, 32)
        psd = q.Psd(g, 1.0 + np.sin(g.centers * 4.0) ** 2)
        out = q.time_interleave_psd(psd, 1)
        assert_allclose(out.values, psd.values, rtol=1e-12)
        assert out.grid.f_hi == 1.0

    def test_first_order_shape_dilates(self):
        fs = 2.0
        g = q.make_grid(0.0, 1.0, 64)
        psd = q.Psd(g, 4.0 * np.sin(np.pi * g.centers / fs) ** 2)
        out = q.time_interleave_psd(psd, 2)
        # same functional shape with fs -> 2 fs over the doubled band
        expected = 4.0 * np.sin(np.pi * out.grid.centers / (2.0 * fs)) ** 2
        assert_allclose(out.values, expected, rtol=1e-9)

    def test_dilation_oracle(self):
        rng = np.random.default_rng(42)
        g = q.make_grid(0.0, 5e6, 128)
        psd = random_smooth_psd(g, rng)
        out = q.time_interleave_psd(psd, 4)
        assert out.grid.f_hi == 4 * g.f_hi
        # value at 4f equals the original at f
        probe = g.centers[5:-5]
        got = np.interp(4.0 * probe, out.grid.centers, out.values)
        ref = np.interp(probe, g.centers, psd.values)
        assert_allclose(got, ref, rtol=1e-9)

    def test_invalid_factor(self):
        g = q.make_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            q.time_interleave_psd(q.Psd(g, np.ones(4)), 0)


class TestPartitionEqualPower:
    def test_flat_noise_equal_bandwidths(self):
        g = q.make_grid(0.0, 8.0, 64)
        noise = q.Psd(g, np.full(64, 1e-6))
        plan = q.partition_equal_power(noise, q.PowerBudget(1e4), 4)
        assert_allclose(plan.per_band_bandwidth, 2.0, rtol=1e-12)
        assert_allclose(plan.per_band_power, 2.5e3, rtol=1e-12)

    def test_single_band(self, wireline_fixture):
        ch, budget = wireline_fixture
        plan = q.partition_equal_power(ch.noise, budget, 1)
        assert plan.num_bands == 1
        assert_array_equal(plan.edges, [ch.grid.f_lo, ch.grid.f_hi])
        assert plan.per_band_power[0] == budget.p

    def test_wireline_band_widths_monotone(self, wireline_fixture):
        # noise rises with frequency, so power density falls and bands widen
        ch, budget = wireline_fixture
        plan = q.partition_equal_power(ch.noise, budget, 4)
        assert np.all(np.diff(plan.per_band_bandwidth) > 0)
        assert_allclose(plan.per_band_power, budget.p / 4.0, rtol=1e-12)

    def test_power_additivity(self, wireline_fixture):
        ch, budget = wireline_fixture
        for n in (1, 3, 4, 7):
            plan = q.partition_equal_power(ch.noise, budget, n)
            assert sum(plan.per_band_power) == pytest.approx(budget.p, rel=1e-12)

    def test_quantile_refinement(self, wireline_fixture):
        ch, budget = wireline_fixture
        e2 = q.partition_equal_power(ch.noise, budget, 2).edges
        e4 = q.partition_equal_power(ch.noise, budget, 4).edges
        e8 = q.partition_equal_power(ch.noise, budget, 8).edges
        assert set(e2) <= set(e4) <= set(e8)

    def test_too_many_bands(self):
        g = q.make_grid(0.0, 1.0, 4)
        noise = q.Psd(g, np.ones(4))
        with pytest.raises(ValueError, match="cannot split"):
            q.partition_equal_power(noise, q.PowerBudget(1.0), 5)

    @pytest.mark.parametrize("split", [
        lambda noise, b, n: q.partition_equal_power(noise, b, n),
        lambda noise, b, n: q.partition_constrained(noise, b, n, mode="equal-bandwidth"),
        lambda noise, b, n: q.partition_constrained(noise, b, n, mode="integer-ratio"),
    ], ids=["equal-power", "equal-bandwidth", "integer-ratio"])
    def test_fractional_band_count_rejected(self, split):
        noise = q.Psd(q.make_grid(0.0, 1.0, 4), np.ones(4))
        with pytest.raises(ValueError, match="number of bands must be a positive integer"):
            split(noise, q.PowerBudget(1.0), 2.5)


class TestPerBandShaping:
    def test_n1_matches_global(self, wireline_fixture):
        ch, budget = wireline_fixture
        plan = q.partition_equal_power(ch.noise, budget, 1)
        results = q.per_band_shaping(ch.noise, plan)
        global_res = q.optimal_sq(ch.noise, budget)
        assert len(results) == 1
        assert_allclose(results[0].sq_opt.values, global_res.sq_opt.values, rtol=1e-12)

    def test_equal_power_split_reproduces_global(self, wireline_fixture):
        ch, budget = wireline_fixture
        global_res = q.optimal_sq(ch.noise, budget)
        for n in (2, 4, 6):
            plan = q.partition_equal_power(ch.noise, budget, n)
            results = q.per_band_shaping(ch.noise, plan)
            concat = np.concatenate([r.sq_opt.values for r in results])
            assert concat.size == ch.grid.num_bins
            assert_allclose(concat, global_res.sq_opt.values, rtol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), bins=st.integers(16, 256), n=st.integers(1, 8),
           log_ratio=st.floats(-6.0, -2.0))
    def test_concatenation_equals_global_property(self, seed, bins, n, log_ratio):
        # the budget puts the closed form's max Sq/Sv at 10^log_ratio: Sq is
        # Sv^(2/3) s^2 with s = delta * sum(Sv^(-1/3)) / (sqrt(12) P)
        g = q.make_grid(0.0, 1e8, bins)
        noise = random_smooth_psd(g, np.random.default_rng(seed))
        inv_cbrt = noise.values ** (-1.0 / 3.0)
        s = np.sqrt(10.0 ** log_ratio / np.max(inv_cbrt))
        budget = q.PowerBudget(g.delta * float(np.sum(inv_cbrt)) / (np.sqrt(12.0) * s))
        global_sq = q.optimal_sq(noise, budget).sq_opt.values
        plans = [q.partition_equal_power(noise, budget, n),
                 q.partition_constrained(noise, budget, n, mode="equal-bandwidth"),
                 q.partition_constrained(noise, budget, n, mode="integer-ratio")]
        for plan in plans:
            results = q.per_band_shaping(noise, plan)
            assert len(results) == n
            concat = np.concatenate([r.sq_opt.values for r in results])
            assert_allclose(concat, global_sq, rtol=1e-12, atol=0.0)

    def test_edges_within_one_bin_spread_to_neighbouring_boundaries(self):
        # the equal-power edges sit at 12.71, 14.53 and 15.35 bins, so the
        # last two round onto one boundary; they move apart, one bin each
        g = q.make_grid(0.0, 1e8, 16)
        noise = random_smooth_psd(g, np.random.default_rng(1589))
        budget = q.PowerBudget(1.475e12)
        plan = q.partition_equal_power(noise, budget, 4)
        assert_allclose(plan.edges[1:-1] / g.delta, [12.71, 14.53, 15.35], atol=0.01)
        results = q.per_band_shaping(noise, plan)
        assert [r.sq_opt.grid.num_bins for r in results] == [13, 1, 1, 1]
        concat = np.concatenate([r.sq_opt.values for r in results])
        assert_allclose(concat, q.optimal_sq(noise, budget).sq_opt.values, rtol=1e-12, atol=0.0)

    def test_snapping_keeps_distinct_boundaries_and_refuses_too_many_bands(self):
        g = q.make_grid(0.0, 1.0, 8)
        edges = np.array([0.0, 0.26, 0.49, 0.77, 1.0])  # nearest boundaries 2, 4, 6
        plan = q.PartitionPlan(edges=edges, per_band_power=np.ones(4))
        assert_array_equal(_snap_edges_to_bins(plan, g), [0, 2, 4, 6, 8])
        crowded = q.PartitionPlan(edges=np.array([0.0, 0.01, 0.02, 0.03, 1.0]),
                                  per_band_power=np.ones(4))
        assert_array_equal(_snap_edges_to_bins(crowded, g), [0, 1, 2, 3, 8])
        too_many = q.PartitionPlan(edges=np.linspace(0.0, 1.0, 10), per_band_power=np.ones(9))
        with pytest.raises(ValueError, match="cannot shape 9 bands on 8 grid bins"):
            q.per_band_shaping(q.Psd(g, np.ones(8)), too_many)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_unaligned_split_keeps_declared_power_rescaled_by_the_snap(self):
        # the bands snap to bins [0, 2), [2, 4), [4, 6), [6, 8); the global
        # closed form's power density is proportional to Sv^(-1/3), so the
        # snap moves each band's power by its integral over the snapped band
        # over its integral over the declared band
        g = q.make_grid(0.0, 1.0, 8)
        sv = np.linspace(1e-6, 8e-6, 8)
        edges = np.array([0.0, 0.26, 0.49, 0.77, 1.0])
        declared = np.array([10.0, 20.0, 30.0, 40.0])
        plan = q.PartitionPlan(edges=edges, per_band_power=declared)
        results = q.per_band_shaping(q.Psd(g, sv), plan)
        density = sv ** (-1.0 / 3.0)
        snapped = density.reshape(4, 2).sum(axis=1) * g.delta
        overlap = np.clip(np.minimum(edges[1:, None], g.edges[None, 1:])
                          - np.maximum(edges[:-1, None], g.edges[None, :-1]), 0.0, None)
        expected = declared * snapped / (overlap @ density)
        shaped = [float(np.sum(r.sq_opt.grid.delta * r.sq_opt.values ** -0.5)) / np.sqrt(12.0)
                  for r in results]
        assert_allclose(shaped, expected, rtol=1e-12)
        assert_allclose(shaped, [9.70, 21.74, 26.83, 43.56], atol=0.005)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_aligned_plan_keeps_declared_budgets_exactly(self, wireline_fixture):
        ch, budget = wireline_fixture
        g = ch.grid
        for k in (16, 32, 64):
            n = g.num_bins // k
            plan = q.PartitionPlan(edges=g.edges[::k],
                                   per_band_power=budget.p * np.arange(1, n + 1) / n)
            for i, r in enumerate(q.per_band_shaping(ch.noise, plan)):
                band = q.Psd(q.FrequencyGrid(g.edges[i * k], g.edges[(i + 1) * k], k),
                             ch.noise.values[i * k:(i + 1) * k])
                expected = q.optimal_sq(band, q.PowerBudget(plan.per_band_power[i]))
                assert_array_equal(r.sq_opt.values, expected.sq_opt.values)

    def test_plan_must_span_the_grid(self):
        g = q.make_grid(0.0, 1.0, 8)
        noise = q.Psd(g, np.linspace(1e-6, 8e-6, 8))
        for edges in ([0.3, 0.5, 0.7], [0.0, 0.5, 0.7], [-0.5, 0.5, 1.0]):
            plan = q.PartitionPlan(edges=edges, per_band_power=[1.0, 1.0])
            with pytest.raises(ValueError, match="must span the noise grid"):
                q.per_band_shaping(noise, plan)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_deliberately_unequal_split_is_worse(self, wireline_fixture):
        # hook: bin-aligned uniform edges with naive equal budgets are used
        # verbatim, and lose information relative to the global optimum
        ch, budget = wireline_fixture
        g = ch.grid
        n = 4
        step = g.num_bins // n
        edges = g.edges[::step]
        plan = q.PartitionPlan(edges=edges, per_band_power=np.full(n, budget.p / n))
        results = q.per_band_shaping(ch.noise, plan)
        concat = np.concatenate([r.sq_opt.values for r in results])
        global_res = q.optimal_sq(ch.noise, budget)
        assert not np.allclose(concat, global_res.sq_opt.values, rtol=1e-3)
        total_loss = _concatenated_loss(ch.noise, results)
        assert total_loss > q.info_loss(ch.noise, global_res.sq_opt)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_equal_power_plan_beats_alternatives(self, wireline_fixture):
        ch, budget = wireline_fixture
        g = ch.grid
        n = 4
        global_loss = q.info_loss(ch.noise, q.optimal_sq(ch.noise, budget).sq_opt)
        plan = q.partition_equal_power(ch.noise, budget, n)
        best = _concatenated_loss(ch.noise, q.per_band_shaping(ch.noise, plan))
        assert best == pytest.approx(global_loss, rel=1e-9)
        rng = np.random.default_rng(17)
        for _ in range(10):
            cuts = np.sort(rng.choice(np.arange(8, g.num_bins - 8, 8), size=n - 1,
                                      replace=False))
            edges = np.concatenate([[g.f_lo], g.edges[cuts], [g.f_hi]])
            alt = q.PartitionPlan(edges=edges, per_band_power=np.full(n, budget.p / n))
            alt_loss = _concatenated_loss(ch.noise, q.per_band_shaping(ch.noise, alt))
            assert alt_loss >= best - 1e-9 * best


class TestPartitionConstrained:
    def test_flat_noise_modes_coincide(self):
        g = q.make_grid(0.0, 8.0, 64)
        noise = q.Psd(g, np.full(64, 1e-6))
        budget = q.PowerBudget(1e4)
        eq_power = q.partition_equal_power(noise, budget, 4)
        eq_bw = q.partition_constrained(noise, budget, 4, mode="equal-bandwidth")
        assert_allclose(eq_bw.edges, eq_power.edges, rtol=1e-12)
        assert_allclose(eq_bw.per_band_power, eq_power.per_band_power, rtol=1e-12)

    def test_wireline_equal_bandwidth_reports_unequal_power(self, wireline_fixture):
        ch, budget = wireline_fixture
        plan = q.partition_constrained(ch.noise, budget, 4, mode="equal-bandwidth")
        assert_allclose(plan.per_band_bandwidth, ch.grid.width / 4.0, rtol=1e-12)
        assert np.ptp(plan.per_band_power) / np.mean(plan.per_band_power) > 0.1
        assert sum(plan.per_band_power) == pytest.approx(budget.p, rel=1e-12)

    def test_integer_ratio_matches_brute_force(self):
        # independent oracle: enumerate all integer compositions and integrate
        # the power measure directly
        g = q.make_grid(0.0, 1.0, 128)
        sv = np.where(g.centers < 0.5, 1.0, 8.0)
        noise = q.Psd(g, sv)
        budget = q.PowerBudget(300.0)
        plan = q.partition_constrained(noise, budget, 2, mode="integer-ratio")

        cum = _power_measure(q.optimal_sq(noise, budget).sq_opt)
        from itertools import combinations
        best_dev, best_widths = np.inf, None
        for total in range(2, 9):
            for cut in combinations(range(1, total), 1):
                units = np.diff(np.concatenate([[0], cut, [total]]))
                edges = np.concatenate([[0.0], np.cumsum(units)]) / total
                powers = np.diff(np.interp(edges, g.edges, cum))
                dev = np.max(np.abs(powers - budget.p / 2.0)) / (budget.p / 2.0)
                if dev < best_dev - 1e-15:
                    best_dev, best_widths = dev, units / total
        assert_allclose(plan.per_band_bandwidth, best_widths, rtol=1e-12)
        got_dev = np.max(np.abs(plan.per_band_power - budget.p / 2)) / (budget.p / 2)
        assert got_dev == pytest.approx(best_dev, rel=1e-9)
        assert sum(plan.per_band_power) == pytest.approx(budget.p, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=40, deadline=None)
    @given(sv=arrays(float, st.integers(16, 64), elements=st.floats(1e-3, 1e3)),
           n=st.integers(2, 4), p=st.floats(1.0, 1e9), f_lo=st.sampled_from([0.0, 3.0]))
    def test_integer_ratio_dp_matches_exhaustive_search(self, sv, n, p, f_lo):
        g = q.make_grid(f_lo, f_lo + 5.0, sv.size)
        noise = q.Psd(g, sv)
        plan = q.partition_constrained(noise, q.PowerBudget(p), n, mode="integer-ratio")
        _, best_dev = _exhaustive_integer_ratio(noise, p, n)
        got_dev = float(np.max(np.abs(plan.per_band_power - p / n))) / (p / n)
        assert abs(got_dev - best_dev) <= 1e-15

        # the edges are a composition of some total T in n..4n units
        units = (plan.edges - g.f_lo) / g.width
        totals = [t for t in range(n, 4 * n + 1)
                  if np.allclose(units * t, np.rint(units * t), rtol=0, atol=1e-9)]
        assert totals and plan.num_bands == n
        assert plan.edges[0] == g.f_lo and plan.edges[-1] == g.f_hi
        assert np.all(np.diff(np.rint(units * totals[0])) >= 1)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("n", [3, 4])
    def test_integer_ratio_ties_take_first_composition(self, n):
        # the first bin holds 94% of the power, so the first band sets the
        # worst deviation and every split of the rest ties exactly: the
        # enumeration keeps the first optimal composition it meets
        g = q.make_grid(0.0, 1.0, 64)
        noise = q.Psd(g, np.where(g.centers < 1 / 64, 1e-9, 1.0))
        plan = q.partition_constrained(noise, q.PowerBudget(100.0), n, mode="integer-ratio")
        edges, _ = _exhaustive_integer_ratio(noise, 100.0, n)
        assert_array_equal(plan.edges, edges)

    def test_integer_ratio_many_bands(self, wireline_fixture):
        ch, budget = wireline_fixture
        plan = q.partition_constrained(ch.noise, budget, 8, mode="integer-ratio")
        assert plan.num_bands == 8
        assert sum(plan.per_band_power) == pytest.approx(budget.p, rel=1e-12)

    def test_unknown_mode(self):
        g = q.make_grid(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="unknown partition mode"):
            q.partition_constrained(q.Psd(g, np.ones(8)), q.PowerBudget(1.0), 2,
                                    mode="nope")

    def test_equal_power_is_not_a_constrained_mode(self):
        # partition_equal_power is that split
        g = q.make_grid(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="unknown partition mode 'equal-power'"):
            q.partition_constrained(q.Psd(g, np.ones(8)), q.PowerBudget(1.0), 2,
                                    mode="equal-power")


class TestOutOfRegimeWarning:
    # at this budget Sq exceeds Sv on the default wireline channel
    POWER = q.PowerBudget(1e9)

    @pytest.mark.parametrize("solve", [
        lambda ch, b: q.partition_equal_power(ch.noise, b, 4),
        lambda ch, b: q.partition_constrained(ch.noise, b, 4, mode="equal-bandwidth"),
        lambda ch, b: q.partition_constrained(ch.noise, b, 4, mode="integer-ratio"),
    ], ids=["equal-power", "equal-bandwidth", "integer-ratio"])
    def test_global_solve_warns(self, wireline_fixture, solve):
        ch, _ = wireline_fixture
        with pytest.warns(UserWarning, match="not small"):
            solve(ch, self.POWER)

    @pytest.mark.parametrize("solve", [
        lambda ch, b: q.optimal_sq(ch.noise, b),
        lambda ch, b: q.partition_equal_power(ch.noise, b, 4),
    ], ids=["optimal-sq", "equal-power"])
    def test_warning_names_the_callers_line(self, wireline_fixture, solve):
        # the first frame outside the package, not the library line that
        # made the solve
        ch, _ = wireline_fixture
        with pytest.warns(UserWarning, match="not small") as caught:
            solve(ch, self.POWER)
        assert [w.filename for w in caught] == [__file__] * len(caught)

    def test_warnings_filter_untouched(self, monkeypatch, wireline_fixture):
        # a separate test, because pytest.warns itself calls simplefilter
        def forbidden(*args, **kwargs):
            raise AssertionError("the library changed the warnings filter")

        ch, budget = wireline_fixture
        # undone before a failure reaches pytest, whose report needs both
        with monkeypatch.context() as m:
            m.setattr(warnings, "catch_warnings", forbidden)
            m.setattr(warnings, "simplefilter", forbidden)
            plan = q.partition_equal_power(ch.noise, budget, 4)
            results = q.per_band_shaping(ch.noise, plan)
            report = q.verify_shaping(ch, ch.noise, budget)
        assert len(results) == 4 and report.info_loss > 0


class TestPartitionPlanType:
    def test_edges_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            q.PartitionPlan(edges=np.array([0.0, 1.0, 1.0]),
                            per_band_power=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("edges", [[0.0, np.nan, 1e8], [0.0, 5e7, np.inf]])
    def test_non_finite_edge_rejected(self, edges):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            q.PartitionPlan(edges=np.array(edges), per_band_power=np.array([1e12, 1e12]))

    @pytest.mark.parametrize("power", [np.nan, np.inf])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(ValueError, match="positive and finite"):
            q.PartitionPlan(edges=np.array([0.0, 5e7, 1e8]),
                            per_band_power=np.array([1e12, power]))

    @pytest.mark.parametrize("edges, powers, message", [
        ([0.0], [], "edges must hold at least two frequencies"),
        ([0.0, 5e7, 1e8], [1e12], "need one power per band"),
    ], ids=["one-edge", "one-power-for-two-bands"])
    def test_band_count_checked(self, edges, powers, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            q.PartitionPlan(edges=np.array(edges), per_band_power=np.array(powers))

    def test_csv(self, tmp_path, wireline_fixture):
        ch, budget = wireline_fixture
        plan = q.partition_equal_power(ch.noise, budget, 4)
        path = tmp_path / "plan.csv"
        q.write_plan_csv(plan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "band_index,f_lo_hz,f_hi_hz,power,bandwidth_hz"
        assert len(lines) == 5
        row = lines[1].split(",")
        assert float(row[1]) == plan.edges[0]
        assert float(row[3]) == plan.per_band_power[0]
