"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its runtime (run pytest -s to see them).
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qnshape as q
from qnshape.cli import main

from conftest import WIRELINE_BUDGET, WIRELESS_BUDGET, DSM_BUDGET


class _Timer:
    def __init__(self, limit_s):
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False

    def report(self, num, text):
        status = "PASS" if self.elapsed < self.limit_s else "SLOW"
        print(f"[criterion {num}] {status}: {text} ({self.elapsed:.2f}s, limit {self.limit_s}s)")
        assert self.elapsed < self.limit_s


def test_criterion_1_closed_form_vs_numerical(wireline_fixture, wireless_fixture):
    with _Timer(60.0) as t:
        for name, (ch, budget) in (("wireline", wireline_fixture),
                                    ("wireless", wireless_fixture)):
            assert ch.grid.num_bins == 256
            closed = q.optimal_sq(ch.noise, budget)
            numeric = q.optimal_sq_numerical(ch, budget, q.SearchConfig(seed=0))
            assert numeric.converged, name
            closed_loss = q.info_loss(ch.noise, closed.sq_opt)
            rel = abs(q.info_loss(ch.noise, numeric.sq_opt) - closed_loss) / closed_loss
            assert rel < 0.01, (name, rel)
            gap_db = 10.0 * np.log10(numeric.sq_opt.values / closed.sq_opt.values)
            assert np.max(np.abs(gap_db)) < 0.5, (name, np.max(np.abs(gap_db)))
    t.report(1, "numerical optimizer matches the closed form on both fixtures")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_2_power_constraint_exactness():
    with _Timer(5.0) as t:
        rng = np.random.default_rng(100)
        for _ in range(100):
            k = int(rng.integers(2, 300))
            g = q.make_grid(0.0, float(rng.uniform(1e3, 1e9)), k)
            noise = q.Psd(g, 10.0 ** rng.uniform(-12, -3, k))
            p = float(10.0 ** rng.uniform(2, 14))
            res = q.optimal_sq(noise, q.PowerBudget(p))
            assert abs(q.power_of_sq(res.sq_opt).p - p) / p < 1e-9
    t.report(2, "power constraint met to 1e-9 relative on 100 random noise PSDs")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_3_flat_noise_value_and_scale_laws():
    with _Timer(1.0) as t:
        w, p = 3.0e6, 2.5e5
        g = q.make_grid(0.0, w, 64)
        expected = w * w / (12.0 * p * p)
        base = None
        for level in (1e-9, 1e-3, 5.0):
            res = q.optimal_sq(q.Psd(g, np.full(64, level)), q.PowerBudget(p))
            assert_allclose(res.sq_opt.values, expected, rtol=1e-12)
            if base is None:
                base = res.sq_opt.values
            assert_allclose(res.sq_opt.values, base, rtol=1e-12)
        for alpha in (0.25, 2.0, 64.0):
            res = q.optimal_sq(q.Psd(g, np.full(64, 1e-6)), q.PowerBudget(alpha * p))
            assert_allclose(res.sq_opt.values, expected / alpha ** 2, rtol=1e-12)
    t.report(3, "flat-noise value W^2/(12 P^2), level invariance, and power scale law")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_4_shape_law():
    with _Timer(1.0) as t:
        rng = np.random.default_rng(101)
        for _ in range(20):
            k = int(rng.integers(4, 128))
            g = q.make_grid(0.0, float(rng.uniform(1e3, 1e9)), k)
            sv = 10.0 ** rng.uniform(-11, -4, k)
            res = q.optimal_sq(q.Psd(g, sv), q.PowerBudget(float(10 ** rng.uniform(4, 12))))
            sq = res.sq_opt.values
            got = sq / sq[0]
            expect = (sv / sv[0]) ** (2.0 / 3.0)
            assert_allclose(got, expect, rtol=1e-12)
    t.report(4, "optimal shape follows the noise PSD to the 2/3 power")


def test_criterion_5_capacity_identities():
    with _Timer(5.0) as t:
        rng = np.random.default_rng(102)
        g = q.make_grid(0.0, 1e7, 128)
        for _ in range(20):
            bits = rng.uniform(0.0, 20.0, 128)
            bp = q.BitProfile(g, bits)
            sq = q.sq_from_bits(bp)
            assert_allclose(q.bits_from_sq(sq).bits, bits, rtol=0, atol=1e-12)
            assert q.power_of_sq(sq).p == pytest.approx(q.power_of_bits(bp).p, rel=1e-12)
        for _ in range(10):
            sx = q.Psd(g, 10.0 ** rng.uniform(-2, 2, 128))
            sv = q.Psd(g, sx.values * 10.0 ** rng.uniform(-4, -3, 128))
            sq = q.Psd(g, sv.values * 10.0 ** rng.uniform(-4, -3, 128))
            ch = q.ChannelSpec(sx, sv)
            assert np.max(sq.values / sv.values) <= 1e-3
            assert np.max(sv.values / sx.values) <= 1e-3
            exact = q.capacity_before(ch) - q.capacity_after(ch, sq)
            assert q.info_loss(sv, sq) == pytest.approx(exact, rel=0.01)
    t.report(5, "bits/PSD/power identities to 1e-12 and small-noise loss within 1%")


def test_criterion_6_deltasigma_model_identities():
    import sys
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from test_deltasigma import UNIT_CIRCLE_64, random_stable_loop

    with _Timer(5.0) as t:
        rng = np.random.default_rng(103)
        checked_roundtrip = 0
        for order in (1, 2, 3, 4, 5, 6):
            for _ in range(3):
                h = random_stable_loop(rng, order)
                ntf = q.ntf_from_loop(h)
                stf = q.stf_from_loop(h)
                total = ntf(UNIT_CIRCLE_64) + stf(UNIT_CIRCLE_64)
                assert np.max(np.abs(total - 1.0)) < 1e-10
                direct = 1.0 / (1.0 + h(UNIT_CIRCLE_64))
                assert np.max(np.abs(ntf(UNIT_CIRCLE_64) - direct)) < 1e-10
                if ntf.is_stable():
                    back = q.ntf_from_loop(q.loop_from_ntf(ntf))
                    err = np.abs(back(UNIT_CIRCLE_64) - ntf(UNIT_CIRCLE_64))
                    assert np.max(err) < 1e-10
                    checked_roundtrip += 1
        assert checked_roundtrip >= 6
    t.report(6, "STF+NTF=1 and loop/NTF round-trips to 1e-10 for orders <= 6")


def test_criterion_7_deltasigma_end_to_end(dsm_fixture):
    with _Timer(120.0) as t:
        ch, budget, cfg = dsm_fixture
        assert cfg.order == 4 and cfg.osr == 12.0
        target = q.optimal_sq(ch.noise, budget).sq_opt
        ntf = q.design_ntf(target, cfg)
        loop = q.loop_from_ntf(ntf)
        n = 2 ** 18
        fs = cfg.sample_rate
        x = 0.5 * cfg.full_scale * np.sin(2.0 * np.pi * 0.37 * ch.grid.f_hi
                                          * np.arange(n) / fs)
        trace = q.simulate(loop, cfg, x, seed=0)
        assert trace.stability_flag
        rep = q.measured_vs_predicted(trace, ntf, cfg, reference=target)
        assert rep.rms_db_error < 3.0, rep.rms_db_error
    t.report(7, f"order-4/OSR-12 simulation tracks the analytic target "
                f"(RMS {rep.rms_db_error:.2f} dB < 3 dB over 2^18 samples)")


def test_criterion_8_partitioning(wireline_fixture):
    with _Timer(5.0) as t:
        ch, budget = wireline_fixture
        plan = q.partition_equal_power(ch.noise, budget, 4)
        mean_p = np.mean(plan.per_band_power)
        assert np.max(np.abs(plan.per_band_power - mean_p)) / mean_p < 1e-6
        results = q.per_band_shaping(ch.noise, plan)
        concat = np.concatenate([r.sq_opt.values for r in results])
        global_sq = q.optimal_sq(ch.noise, budget).sq_opt.values
        assert_allclose(concat, global_sq, rtol=1e-9)
    t.report(8, "N=4 equal-power plan: powers equal to 1e-6, concatenated "
                "shaping equals the global solution to 1e-9")


def test_criterion_9_cli_determinism(tmp_path):
    with _Timer(30.0) as t:
        def run_twice(args):
            out_a, out_b = tmp_path / "a", tmp_path / "b"
            assert main(args + ["--out", str(out_a)]) == 0
            assert main(args + ["--out", str(out_b)]) == 0
            bytes_a = {p.name: p.read_bytes() for p in sorted(out_a.iterdir())}
            bytes_b = {p.name: p.read_bytes() for p in sorted(out_b.iterdir())}
            assert bytes_a == bytes_b
            for p in list(out_a.iterdir()) + list(out_b.iterdir()):
                p.unlink()

        run_twice(["shape", "--channel", "wireline", "--bins", "128",
                   "--power", str(WIRELINE_BUDGET), "--seed", "11"])
        run_twice(["shape", "--channel", "wireless", "--bins", "128",
                   "--fhi", "2e8", "--power", str(WIRELESS_BUDGET), "--seed", "11"])
        run_twice(["partition", "--channel", "wireline", "--bins", "128",
                   "--power", str(WIRELINE_BUDGET), "--n", "4", "--seed", "11"])
        run_twice(["simulate", "--channel", "wireless", "--bins", "32",
                   "--fhi", "2e8", "--notches", "1", "--notch-depth", "12",
                   "--notch-width", "6e7", "--power", str(DSM_BUDGET),
                   "--dither", "--samples", str(2 ** 15), "--seed", "3"])
    t.report(9, "fixed-seed CLI reruns are byte-identical for all commands")
