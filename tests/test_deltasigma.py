import contextlib
import itertools
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import signal as sps

import qnshape as q
import qnshape.deltasigma as ds
from qnshape.deltasigma import DesignInfeasibleError

from conftest import DSM_BUDGET

UNIT_CIRCLE_64 = np.exp(1j * (np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False) + 0.013))
DENSE_HALF_CIRCLE = np.exp(1j * np.linspace(0.0, np.pi, 2048))
# design_ntf's peak-gain grid, and the grid that a refined peak is checked against
PEAK_GRID_CIRCLE = np.exp(1j * np.linspace(0.0, np.pi, ds._PEAK_GRID))
PEAK_SPACING = np.pi / (ds._PEAK_GRID - 1)
PEAK_CHECK_CIRCLE = np.exp(1j * np.linspace(0.0, np.pi, 2 ** 16))
# a flat reference PSD on the in-band grid of a unit-rate modulator at OSR 12
UNIT_REFERENCE = q.Psd(q.make_grid(0.0, 1.0 / 24.0, 16), np.ones(16))


def conjugate_pair(r, phi):
    return [r * np.exp(1j * phi), r * np.exp(-1j * phi)]


# (zeros, poles): a pole pair just off the real axis whose peak lies inside
# the first peak-grid interval, while the grid reads its maximum at theta = 0
ENDPOINT_PEAK = (np.zeros(2, complex), np.array(conjugate_pair(0.97, 0.0315)))
# two near-equal lobes: the higher one peaks half a spacing off the grid and
# reads 2% low there, so the grid ranks the other, on-grid lobe first
SPLIT_PEAKS = (np.zeros(4, complex),
               np.array(conjugate_pair(0.97, 60.5 * PEAK_SPACING)
                        + conjugate_pair(0.9695, 195.0 * PEAK_SPACING)))
# a zero pair beside a double pole pair: the zero splits the poles' lobe into
# two maxima, 1.18 spacings apart, inside the bracket of one grid maximum
ZERO_SPLIT = (np.array(conjugate_pair(0.9793, 100.89 * PEAK_SPACING) + [0.0, 0.0]),
              np.array(2 * conjugate_pair(0.97, 100.9 * PEAK_SPACING)))


def first_order_loop():
    """H = 1/(z-1), the textbook single integrator."""
    return q.RationalTf(np.array([], complex), np.array([1.0 + 0j]), 1.0)


def zero_loop():
    return q.RationalTf(np.array([], complex), np.array([], complex), 0.0)


def random_stable_loop(rng, order):
    """Random strictly proper loop filter with poles inside radius 0.9."""
    def conj_set(n, rmax):
        roots = []
        while len(roots) < n - (n % 2):
            r = rng.uniform(0.1, rmax)
            th = rng.uniform(0.05, np.pi - 0.05)
            roots += [r * np.exp(1j * th), r * np.exp(-1j * th)]
        if n % 2:
            roots.append(complex(rng.uniform(-rmax, rmax)))
        return np.array(roots, complex)

    return q.RationalTf(conj_set(order - 1, 0.95), conj_set(order, 0.9),
                        rng.uniform(0.2, 2.0))


def reference_root_product(z, roots):
    """prod_k (z - roots[..., k]) as a (points x roots) broadcast reduced by
    numpy's complex product, one row per set of a (sets, n) root stack: the
    spec that deltasigma._root_product must match bit for bit.  z is a 1-D
    complex array."""
    return np.prod(z[:, None] - roots[..., None, :], axis=-1)


def ntf_magnitude(zeros, poles, points):
    """|NTF| = |prod(z - zeros) / prod(z - poles)| at each point z."""
    return np.abs(ds._root_product(points, zeros) / ds._root_product(points, poles))


@st.composite
def stable_ntf_roots(draw):
    """(zeros, poles) of a monic real NTF of order 1-8: conjugate pairs plus
    one real root for odd order, zeros in the closed unit disk and poles within
    radius 0.97, design_ntf's pole box."""
    order = draw(st.integers(1, 8))

    def roots(rmax):
        out = []
        for _ in range(order // 2):
            out += conjugate_pair(draw(st.floats(0.0, rmax)), draw(st.floats(0.0, np.pi)))
        if order % 2:
            out.append(complex(draw(st.floats(-rmax, rmax))))
        return np.array(out, dtype=complex)
    return roots(1.0), roots(0.97)


@st.composite
def root_sets(draw, n=None):
    """n roots, or 0-9 when n is None: conjugate pairs (plus one real root
    for an odd count), or arbitrary complex numbers."""
    if n is None:
        n = draw(st.integers(0, 9))
    value = st.complex_numbers(max_magnitude=2.0)
    if draw(st.booleans()):
        roots = [c for w in draw(st.lists(value, min_size=n // 2, max_size=n // 2))
                 for c in (w, w.conjugate())]
        if n % 2:
            roots.append(complex(draw(st.floats(-2.0, 2.0))))
    else:
        roots = draw(st.lists(value, min_size=n, max_size=n))
    return np.array(roots, dtype=complex)


def captured_problems(monkeypatch, target, cfg):
    """Every (fun, lo, hi) that design_ntf hands to its least-squares solver,
    where fun(x) returns (f, jac).  The solver is skipped (each call returns
    its start point), so the design itself may end infeasible."""
    problems = []

    def spy(fun, x0, lo, hi):
        problems.append((fun, lo, hi))
        return x0, 0.5 * float(np.sum(fun(x0)[0] ** 2))

    monkeypatch.setattr(ds, "_bounded_lm", spy)
    with contextlib.suppress(DesignInfeasibleError):
        q.design_ntf(target, cfg)
    return problems


@pytest.fixture(scope="module")
def dsm_design(dsm_fixture):
    """design(order) -> (target, ntf, cfg): the dsm fixture's optimal target,
    the NTF that design_ntf fits to it at that order, and the fixture's
    dithered config at that order.  Each order is designed once per module,
    since several tests simulate each design."""
    ch, budget, cfg = dsm_fixture
    target = q.optimal_sq(ch.noise, budget).sq_opt
    designs = {}

    def design(order):
        if order not in designs:
            at_order = replace(cfg, order=order)
            designs[order] = target, q.design_ntf(target, at_order), at_order
        return designs[order]
    return design


def dsm_tone(cfg, n, dbfs):
    """n samples of a sine at 0.37 of the band edge, dbfs relative to the
    quantizer's full scale: the CLI's simulate input."""
    amp = cfg.full_scale * 10.0 ** (dbfs / 20.0)
    return amp * np.sin(2 * np.pi * 0.37 * cfg.band_edge / cfg.sample_rate * np.arange(n))


class TestRationalTf:
    def test_conjugate_pairing_enforced(self):
        with pytest.raises(ValueError, match="conjugate"):
            q.RationalTf(np.array([0.5 + 0.5j]), np.array([], complex), 1.0)

    def test_coeffs_descending_powers(self):
        tf = q.RationalTf(np.array([1.0 + 0j]), np.array([0.0 + 0j]), 1.0)
        num, den = tf.coeffs()
        assert_allclose(num, [1.0, -1.0])
        assert_allclose(den, [1.0, 0.0])

    def test_coeffs_padded_to_equal_length(self):
        # strictly proper: the numerator starts with leading zeros
        tf = q.RationalTf(np.array([0.5 + 0j]), np.array([0.2, 0.3 + 0.4j, 0.3 - 0.4j]), 2.0)
        num, den = tf.coeffs()
        assert_array_equal(num, [0.0, 0.0, 2.0, -1.0])
        assert_array_equal(den, np.real(np.poly([0.2, 0.3 + 0.4j, 0.3 - 0.4j])))
        # more zeros than poles: the denominator is padded instead
        num, den = q.RationalTf(np.array([0.5, 0.25], complex), np.array([], complex), 1.0).coeffs()
        assert_array_equal(den, [0.0, 0.0, 1.0])
        assert_allclose(num, [1.0, -0.75, 0.125])

    def test_pole_radius(self):
        assert q.RationalTf(np.array([1.0], complex), np.array([], complex), 1.0).pole_radius == 0.0
        tf = q.RationalTf(np.array([], complex), np.array([-0.9, 0.3 + 0.4j, 0.3 - 0.4j]), 1.0)
        assert tf.pole_radius == 0.9
        assert tf.is_stable()
        assert not q.RationalTf(np.array([], complex), np.array([1.0], complex), 1.0).is_stable()

    def test_file_round_trip(self, tmp_path):
        tf = q.RationalTf(np.array([0.9 + 0.3j, 0.9 - 0.3j]),
                          np.array([0.5 + 0.1j, 0.5 - 0.1j]), 1.0)
        path = tmp_path / "tf.txt"
        q.write_tf(tf, path)
        back = q.read_tf(path)
        assert_array_equal(back.zeros, tf.zeros)
        assert_array_equal(back.poles, tf.poles)
        assert back.gain == tf.gain

    def test_file_without_gain_rejected(self, tmp_path):
        path = tmp_path / "tf.txt"
        path.write_text("zeros: 1,0\npoles: 0.5,0\n")
        with pytest.raises(ValueError, match="must have zeros:, poles: and gain: lines"):
            q.read_tf(path)

    @pytest.mark.parametrize("gain", [np.nan, np.inf])
    def test_non_finite_gain_rejected(self, gain):
        with pytest.raises(ValueError, match="^zeros, poles and gain must be finite$"):
            q.RationalTf(np.array([], complex), np.array([], complex), gain)


class TestRootProduct:
    @settings(max_examples=200, deadline=None)
    @given(sets=st.integers(0, 9).flatmap(
               lambda n: st.lists(root_sets(n), min_size=1, max_size=3)),
           stacked=st.booleans(),
           points=st.one_of(
               st.sampled_from([UNIT_CIRCLE_64, DENSE_HALF_CIRCLE]),
               st.lists(st.complex_numbers(max_magnitude=4.0), min_size=1, max_size=300)
               .map(lambda v: np.array(v, dtype=complex))))
    def test_matches_broadcast_reference_bit_for_bit(self, sets, stacked, points):
        # one root set of shape (n,), or a (sets, n) stack whose every row is
        # that set's own product; an empty set gives ones
        roots = np.array(sets) if stacked else sets[0]
        got = ds._root_product(points, roots)
        assert got.dtype == complex and got.shape == roots.shape[:-1] + points.shape
        for row, r in zip(np.atleast_2d(got), sets):
            expect = reference_root_product(points, r)
            assert_array_equal(row.real, expect.real)
            assert_array_equal(row.imag, expect.imag)

    @settings(max_examples=50, deadline=None)
    @given(roots=root_sets(),
           shape=st.sampled_from([(3, 5), (1, 7), (4, 1)]),
           data=st.data())
    def test_points_of_any_shape_with_one_root_set(self, roots, shape, data):
        # RationalTf.__call__ passes its points as given, so a 2-D array of
        # points gives each point the product of its 1-D evaluation
        values = data.draw(st.lists(st.complex_numbers(max_magnitude=4.0),
                                    min_size=shape[0] * shape[1],
                                    max_size=shape[0] * shape[1]))
        points = np.array(values, dtype=complex).reshape(shape)
        got = ds._root_product(points, roots)
        assert got.dtype == complex and got.shape == shape
        expect = reference_root_product(points.ravel(), roots).reshape(shape)
        assert_array_equal(got.real, expect.real)
        assert_array_equal(got.imag, expect.imag)


class TestRefinePeak:
    @settings(max_examples=200, deadline=None)
    @given(roots=stable_ntf_roots())
    @example(roots=ENDPOINT_PEAK)
    @example(roots=SPLIT_PEAKS)
    def test_no_lower_than_a_dense_grid_maximum(self, roots):
        zeros, poles = roots
        theta, peak = ds._refine_peak(zeros, poles, ntf_magnitude(zeros, poles, PEAK_GRID_CIRCLE))
        dense = float(np.max(ntf_magnitude(zeros, poles, PEAK_CHECK_CIRCLE)))
        assert peak >= dense * (1.0 - 1e-9)
        assert 0.0 <= theta <= np.pi
        at_theta = ntf_magnitude(zeros, poles, np.exp(1j * np.array([theta])))[0]
        assert peak == pytest.approx(at_theta, rel=1e-12)

    def test_endpoint_example_peaks_inside_the_first_interval(self):
        zeros, poles = ENDPOINT_PEAK
        mag = ntf_magnitude(zeros, poles, PEAK_GRID_CIRCLE)
        theta, peak = ds._refine_peak(zeros, poles, mag)
        assert int(mag.argmax()) == 0 and 0.0 < theta < PEAK_SPACING
        assert peak > mag[0] * (1.0 + 1e-4)

    def test_split_example_peaks_in_the_lobe_the_grid_ranks_second(self):
        zeros, poles = SPLIT_PEAKS
        mag = ntf_magnitude(zeros, poles, PEAK_GRID_CIRCLE)
        theta, peak = ds._refine_peak(zeros, poles, mag)
        m = int(mag.argmax())
        assert abs(theta - m * PEAK_SPACING) > 100 * PEAK_SPACING
        assert peak > mag[m] * 1.01

    def test_zero_split_lobe_reads_low(self):
        # pins a known miss: the lobe bound counts poles only, and of two
        # maxima in one bracket the iteration finds the lower.  A fix that
        # finds the higher one fails this test, which then turns into the
        # dense-grid check above
        zeros, poles = ZERO_SPLIT
        mag = ntf_magnitude(zeros, poles, PEAK_GRID_CIRCLE)
        theta, peak = ds._refine_peak(zeros, poles, mag)
        dense = ntf_magnitude(zeros, poles, PEAK_CHECK_CIRCLE)
        inner = dense[1:-1]
        maxima = np.flatnonzero((inner > dense[:-2]) & (inner > dense[2:])) + 1
        at = maxima * np.pi / (dense.size - 1)
        m = int(mag.argmax())
        assert maxima.size == 2 and np.all(np.abs(at - m * PEAK_SPACING) < PEAK_SPACING)
        assert abs(theta - at[dense[maxima].argmin()]) < 1e-4
        assert 1.0 - peak / dense.max() == pytest.approx(1.18e-3, rel=0.01)


class TestLoopAlgebra:
    def test_first_order_ntf(self):
        ntf = q.ntf_from_loop(first_order_loop())
        assert_allclose(ntf(UNIT_CIRCLE_64), (UNIT_CIRCLE_64 - 1.0) / UNIT_CIRCLE_64,
                        atol=1e-14)

    def test_first_order_stf_is_delay(self):
        stf = q.stf_from_loop(first_order_loop())
        assert_allclose(stf(UNIT_CIRCLE_64), 1.0 / UNIT_CIRCLE_64, atol=1e-14)

    def test_zero_loop(self):
        assert_allclose(q.ntf_from_loop(zero_loop())(UNIT_CIRCLE_64), 1.0)
        assert_allclose(q.stf_from_loop(zero_loop())(UNIT_CIRCLE_64), 0.0)

    def test_ntf_matches_direct_evaluation(self):
        rng = np.random.default_rng(21)
        for order in (2, 3, 4, 5, 6):
            h = random_stable_loop(rng, order)
            ntf = q.ntf_from_loop(h)
            direct = 1.0 / (1.0 + h(UNIT_CIRCLE_64))
            assert np.max(np.abs(ntf(UNIT_CIRCLE_64) - direct)) < 1e-10

    def test_stf_plus_ntf_is_one(self):
        rng = np.random.default_rng(22)
        for order in (1, 2, 3, 4, 5, 6):
            h = random_stable_loop(rng, order)
            total = q.stf_from_loop(h)(UNIT_CIRCLE_64) + q.ntf_from_loop(h)(UNIT_CIRCLE_64)
            assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_loop_round_trip(self):
        rng = np.random.default_rng(23)
        for order in (1, 2, 4, 6):
            h = random_stable_loop(rng, order)
            ntf = q.ntf_from_loop(h)
            if not ntf.is_stable():
                continue
            back = q.ntf_from_loop(q.loop_from_ntf(ntf))
            assert np.max(np.abs(back(UNIT_CIRCLE_64) - ntf(UNIT_CIRCLE_64))) < 1e-10

    @settings(max_examples=80, deadline=None)
    @given(order=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_stf_plus_ntf_is_one_any_order(self, order, seed):
        h = random_stable_loop(np.random.default_rng(seed), order)
        total = q.stf_from_loop(h)(UNIT_CIRCLE_64) + q.ntf_from_loop(h)(UNIT_CIRCLE_64)
        assert np.max(np.abs(total - 1.0)) < 1e-10

    @settings(max_examples=80, deadline=None)
    @given(order=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_loop_round_trip_any_order(self, order, seed):
        # the error is measured against the peak |NTF|: an NTF pole near the
        # unit circle makes |NTF| large there (thousands at order 6) and its
        # absolute round-trip error grows with it
        h = random_stable_loop(np.random.default_rng(seed), order)
        ntf = q.ntf_from_loop(h)
        if not ntf.is_stable():
            with pytest.raises(ValueError, match="stable"):
                q.loop_from_ntf(ntf)
            return
        back_h = q.loop_from_ntf(ntf)
        back = q.ntf_from_loop(back_h)
        n0 = ntf(UNIT_CIRCLE_64)
        assert np.max(np.abs(back(UNIT_CIRCLE_64) - n0)) < 1e-10 * max(1.0, np.max(np.abs(n0)))
        h0 = h(UNIT_CIRCLE_64)
        assert np.max(np.abs(back_h(UNIT_CIRCLE_64) - h0)) < 1e-10 * max(1.0, np.max(np.abs(h0)))

    def test_first_order_inversion(self):
        ntf = q.RationalTf(np.array([1.0 + 0j]), np.array([0.0 + 0j]), 1.0)
        h = q.loop_from_ntf(ntf)
        assert_allclose(h(UNIT_CIRCLE_64), 1.0 / (UNIT_CIRCLE_64 - 1.0), atol=1e-12)

    def test_unit_ntf_inverts_to_zero_loop(self):
        ntf = q.RationalTf(np.array([], complex), np.array([], complex), 1.0)
        h = q.loop_from_ntf(ntf)
        assert h.gain == 0.0

    def test_zero_at_infinity_not_invertible(self):
        ntf = q.RationalTf(np.array([], complex), np.array([0.5 + 0j]), 1.0)
        with pytest.raises(ValueError, match="not invertible"):
            q.loop_from_ntf(ntf)

    def test_zero_gain_ntf_is_not_monic(self):
        # as many zeros as poles, so no zero at infinity: the gain is what fails
        ntf = q.RationalTf(np.array([0.5 + 0j]), np.array([0.1 + 0j]), 0.0)
        with pytest.raises(ValueError, match="monic"):
            q.loop_from_ntf(ntf)

    def test_degenerate_one_plus_h(self):
        h = q.RationalTf(np.array([], complex), np.array([], complex), -1.0)
        with pytest.raises(ValueError, match="degenerate"):
            q.ntf_from_loop(h)


class TestNtfQuantPsd:
    def test_unit_ntf_flat_floor(self):
        cfg = q.ModulatorConfig(order=1, osr=2, sample_rate=1.0,
                                quantizer_levels=2, step=1.0)
        grid = q.make_grid(0.0, 0.5, 16)
        ntf = q.RationalTf(np.array([], complex), np.array([], complex), 1.0)
        psd = q.ntf_quant_psd(ntf, cfg, grid)
        assert_allclose(psd.values, 1.0 / 12.0, rtol=1e-14)

    def test_first_difference_shape(self):
        cfg = q.ModulatorConfig(order=1, osr=4, sample_rate=2.0,
                                quantizer_levels=2, step=0.5)
        grid = q.make_grid(0.0, 1.0, 64)
        ntf = q.ntf_from_loop(first_order_loop())
        psd = q.ntf_quant_psd(ntf, cfg, grid)
        expected = cfg.step ** 2 / (12.0 * 2.0) * 4.0 * np.sin(np.pi * grid.centers / 2.0) ** 2
        assert_allclose(psd.values, expected, rtol=1e-12)

    def test_matches_polynomial_evaluation(self):
        # independent oracle: evaluate num/den polynomials with np.polyval
        rng = np.random.default_rng(24)
        cfg = q.ModulatorConfig(order=4, osr=8, sample_rate=1.0)
        grid = q.make_grid(0.0, 0.3, 32)
        h = random_stable_loop(rng, 4)
        ntf = q.ntf_from_loop(h)
        psd = q.ntf_quant_psd(ntf, cfg, grid)
        num, den = ntf.coeffs()
        z = np.exp(2j * np.pi * grid.centers / cfg.sample_rate)
        mag2 = np.abs(np.polyval(num, z) / np.polyval(den, z)) ** 2
        assert_allclose(psd.values, cfg.step ** 2 / 12.0 * mag2, rtol=1e-12)

    def test_grid_beyond_nyquist_rejected(self):
        cfg = q.ModulatorConfig(sample_rate=1.0)
        ntf = q.RationalTf(np.array([], complex), np.array([], complex), 1.0)
        with pytest.raises(ValueError, match="sample_rate/2"):
            q.ntf_quant_psd(ntf, cfg, q.make_grid(0.0, 0.6, 8))


class TestModulatorConfig:
    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="order"):
            q.ModulatorConfig(order=0)

    @pytest.mark.parametrize("order", [4.0, 4.5, True, np.float64(4.0), "4"])
    def test_non_integer_order_rejected(self, order):
        # design_ntf would otherwise fail deep in numpy on a float degree
        with pytest.raises(ValueError, match=r"^order must be an integer >= 1, got "):
            q.ModulatorConfig(order=order)

    def test_numpy_integer_order_accepted(self):
        assert q.ModulatorConfig(order=np.int64(4)).order == 4

    def test_odd_levels_rejected(self):
        with pytest.raises(ValueError, match="even"):
            q.ModulatorConfig(quantizer_levels=3)

    def test_low_osr_rejected(self):
        with pytest.raises(ValueError, match="osr"):
            q.ModulatorConfig(osr=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["osr", "sample_rate", "step", "max_ntf_gain"])
    def test_non_finite_rejected(self, field, value):
        # every comparison with nan is false, so the range checks alone let it through
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            q.ModulatorConfig(**{field: value})

    @pytest.mark.parametrize("step, sample_rate, shown", [
        (1e200, 1.0, "inf"),          # step ** 2 overflows
        (1e-160, 1.0, "8.35e-322"),   # subnormal
        (1e-150, 4.8e9, "1.74e-311"),
        (0.125, 1e308, "0"),          # 12 * sample_rate overflows
    ])
    def test_noise_density_must_be_normal(self, step, sample_rate, shown):
        message = (f"step^2/(12*sample_rate) = {shown} is not a normal float "
                   f"(step={step!r}, sample_rate={sample_rate!r})")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            q.ModulatorConfig(step=step, sample_rate=sample_rate)

    # 2 * 10**300 levels of step 1e10 would also make full scale infinite
    @pytest.mark.parametrize("levels", [65538, 2 ** 20, 2 * 10 ** 300],
                             ids=["65538", "2^20", "2e300"])
    def test_levels_beyond_the_cap_rejected(self, levels):
        message = f"quantizer_levels must be an even integer from 2 to 65536, got {levels}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            q.ModulatorConfig(quantizer_levels=levels, step=1e10)

    def test_most_levels_accepted(self):
        assert q.ModulatorConfig(quantizer_levels=65536).quantizer_levels == 65536

    @pytest.mark.parametrize("field, value, message", [
        ("sample_rate", 0.0, "sample_rate must be positive"),
        ("step", -0.125, "step must be positive"),
        ("max_ntf_gain", 1.0, "max_ntf_gain must exceed 1"),
    ])
    def test_out_of_range_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            q.ModulatorConfig(**{field: value})


IDENTITY_MODES = ((False, "plain"), (True, "dithered"))


class TestSimulate:
    def test_trace_of_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="^trace sequences must have equal length$"):
            q.SimulationTrace(np.zeros(4), np.zeros(4), np.zeros(3), 0, True)

    def test_zero_input_unit_ntf(self):
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0,
                                quantizer_levels=16, step=0.125)
        trace = q.simulate(zero_loop(), cfg, np.zeros(256))
        assert_array_equal(trace.output, np.full(256, 0.0625))
        assert np.max(np.abs(trace.quantizer_error)) <= 0.0625 + 1e-15
        assert trace.stability_flag

    def test_first_order_dc_tracking(self):
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0,
                                quantizer_levels=16, step=0.125)
        trace = q.simulate(first_order_loop(), cfg, np.full(2 ** 16, 0.3))
        assert trace.stability_flag
        assert np.mean(trace.output) == pytest.approx(0.3, rel=0.01)

    def test_quantizer_error_bound(self):
        rng = np.random.default_rng(25)
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0,
                                quantizer_levels=16, step=0.125, dither=True)
        x = 0.4 * np.sin(2 * np.pi * 0.01 * np.arange(8192)) + 0.05 * rng.standard_normal(8192)
        trace = q.simulate(first_order_loop(), cfg, x, seed=1)
        assert trace.saturation_count == 0
        assert np.max(np.abs(trace.quantizer_error)) <= cfg.step / 2.0 + 1e-15

    # (order, dBFS, bound on max|y - expect| / max|y|): order None is a
    # random order-3 loop on a Gaussian input, the others the dsm fixture's
    # designs on the CLI's tone, which saturates the quantizer at +3 dBFS
    # (8604-11301 saturations in 2^15 samples) and keeps the loop stable.
    # The bounds are the oracle's: lfilter runs the direct form, whose
    # rounding grows with the order.  Measured: at most 1.3e-15 on the random
    # loop, 1.6e-12 / 9.4e-12 / 5.0e-10 at orders 4 / 5 / 6.
    @pytest.mark.parametrize("order, dbfs, bound, dither", [
        *(pytest.param(None, None, 1e-13, dither, id=mode) for dither, mode in IDENTITY_MODES),
        *(pytest.param(order, dbfs, bound, dither, id=f"o{order}{dbfs:+.0f}dBFS-{mode}")
          for order, bound in ((4, 1e-11), (5, 5e-11), (6, 2e-9)) for dbfs in (-6.0, 3.0)
          for dither, mode in IDENTITY_MODES),
    ])
    def test_output_identity_with_recorded_error(self, dsm_design, order, dbfs, bound, dither):
        # Y = STF X + NTF Q holds exactly with Q the trace's own quantizer
        # error, whatever the quantizer (clipping and dither included) did:
        # the tracking report rests on it
        if order is None:
            rng = np.random.default_rng(29)  # seed chosen for a stable closed loop
            h = random_stable_loop(rng, 3)
            ntf = q.ntf_from_loop(h)
            cfg = q.ModulatorConfig(order=3, osr=12, sample_rate=1.0, dither=dither)
            x = rng.standard_normal(4096) * 0.1
        else:
            _, ntf, cfg = dsm_design(order)
            h = q.loop_from_ntf(ntf)
            cfg = replace(cfg, dither=dither)
            x = dsm_tone(cfg, 2 ** 15, dbfs)
        assert ntf.is_stable()
        trace = q.simulate(h, cfg, x, seed=3)
        assert trace.stability_flag
        if dbfs is not None and dbfs > 0:
            assert trace.saturation_count > 0
        num_n, den_n = ntf.coeffs()
        num_s, den_s = q.stf_from_loop(h).coeffs()
        expect = (sps.lfilter(num_s, den_s, x)
                  + sps.lfilter(num_n, den_n, trace.quantizer_error))
        assert np.max(np.abs(trace.output - expect)) <= bound * np.max(np.abs(trace.output))

    def test_non_strictly_proper_loop_rejected(self):
        cfg = q.ModulatorConfig(order=1)
        # biproper (a delay-free path), then improper (more zeros than poles)
        for zeros, poles in (([0.5], [-0.5]), ([0.5, 0.3], [0.1])):
            h = q.RationalTf(np.array(zeros, complex), np.array(poles, complex), 1.0)
            with pytest.raises(ValueError, match="strictly proper"):
                q.simulate(h, cfg, np.zeros(8))

    def test_divergent_loop_flags_instability(self):
        # DC beyond full scale winds the integrator up without bound: the
        # clipped quantizer cannot absorb it and the divergence bound trips
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0,
                                quantizer_levels=16, step=0.125)
        trace = q.simulate(first_order_loop(), cfg, np.full(4096, 1.3))
        assert not trace.stability_flag
        assert trace.saturation_count > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # a non-finite sample is bad input, not a diverged modulator: it is
        # rejected before the loop runs rather than reported as unstable
        h = random_stable_loop(np.random.default_rng(31), 2)
        cfg = q.ModulatorConfig(order=2, osr=12, sample_rate=1.0)
        x = np.zeros(100)
        x[10] = bad
        with pytest.raises(ValueError, match="input_samples must be finite"):
            q.simulate(h, cfg, x)

    def test_dither_deterministic_in_seed(self):
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0, dither=True)
        x = 0.2 * np.sin(2 * np.pi * 0.003 * np.arange(2048))
        a = q.simulate(first_order_loop(), cfg, x, seed=42)
        b = q.simulate(first_order_loop(), cfg, x, seed=42)
        assert_array_equal(a.output, b.output)

    def test_trace_csv(self, tmp_path):
        cfg = q.ModulatorConfig(order=1)
        trace = q.simulate(zero_loop(), cfg, np.zeros(4))
        path = tmp_path / "trace.csv"
        q.write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,input,output,qerror"
        assert len(lines) == 5


class TestDesignNtf:
    def test_flat_target_order4_osr12(self):
        fs = 4.8e9
        cfg = q.ModulatorConfig(order=4, osr=12.0, sample_rate=fs,
                                quantizer_levels=16, step=0.125)
        grid = q.make_grid(0.0, cfg.band_edge, 64)
        floor = cfg.step ** 2 / (12.0 * fs)
        target = q.Psd(grid, np.full(64, floor * 10.0 ** (-2.0)))  # 20 dB down
        ntf = q.design_ntf(target, cfg)
        assert ntf.is_monic() and ntf.is_stable()
        fitted = q.ntf_quant_psd(ntf, cfg, grid)
        ripple_db = 10.0 * np.log10(fitted.values / target.values)
        assert np.max(np.abs(ripple_db)) < 3.0
        z = np.exp(1j * np.linspace(0.0, np.pi, 4096))
        assert np.max(np.abs(ntf(z))) <= cfg.max_ntf_gain * 1.01

    def test_shaped_wireless_target(self, dsm_fixture):
        ch, budget, cfg = dsm_fixture
        target = q.optimal_sq(ch.noise, budget).sq_opt
        ntf = q.design_ntf(target, cfg)
        fitted = q.ntf_quant_psd(ntf, cfg, target.grid)
        err_db = 10.0 * np.log10(fitted.values / target.values)
        assert float(np.sqrt(np.mean(err_db ** 2))) < 3.0
        # the target tilts up inside the noise bump; the fit must follow
        tgt_db = 10.0 * np.log10(target.values)
        fit_db = 10.0 * np.log10(fitted.values)
        assert np.corrcoef(tgt_db, fit_db)[0, 1] > 0.9

    @pytest.mark.parametrize("order, parent_rms_db", [(4, 0.9148), (5, 0.3235), (6, 0.3199)])
    def test_shaped_target_fit_quality(self, dsm_fixture, order, parent_rms_db):
        ch, budget, cfg = dsm_fixture
        cfg = replace(cfg, order=order)
        target = q.optimal_sq(ch.noise, budget).sq_opt
        ntf = q.design_ntf(target, cfg)
        err_db = 10.0 * np.log10(q.ntf_quant_psd(ntf, cfg, target.grid).values / target.values)
        assert float(np.sqrt(np.mean(err_db ** 2))) <= parent_rms_db + 0.01
        z = np.exp(1j * np.linspace(0.0, np.pi, 4096))
        assert np.max(np.abs(ntf(z))) <= cfg.max_ntf_gain * 1.01
        # 0.97 is the pole-radius bound of the fit, and order 4 sits on it
        assert np.all(np.abs(ntf.poles) <= 0.97 * (1.0 + 1e-12))

    @pytest.mark.parametrize("order", range(1, 7))
    @pytest.mark.parametrize("cap", [1.01, 1e6])
    def test_jacobian_matches_central_differences(self, dsm_fixture, monkeypatch, order, cap):
        # cap 1.01 puts every point's peak over the cap (penalty row active),
        # cap 1e6 keeps it under (penalty row zero)
        ch, budget, cfg = dsm_fixture
        target = q.optimal_sq(ch.noise, budget).sq_opt
        problems = captured_problems(monkeypatch, target,
                                     replace(cfg, order=order, max_ntf_gain=cap))
        assert len(problems) == 5  # three pole-only starts, two joint starts
        stage1, stage2 = problems[0], problems[-1]
        assert stage1[1].size == order
        assert stage2[1].size == order + order // 2  # zero angles, then poles
        rng = np.random.default_rng(order)
        h = 1e-6
        penalty_active = cap < 1.5
        for fun, lo, hi in (stage1, stage2):
            for _ in range(3):
                x = lo + (hi - lo) * rng.uniform(0.05, 0.95, lo.size)
                f, jac = fun(x)
                assert (f[-1] > 0.0) == penalty_active
                steps = h * np.eye(x.size)
                fd = np.column_stack([(fun(x + e)[0] - fun(x - e)[0]) / (2.0 * h)
                                      for e in steps])
                assert_allclose(jac(), fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))

    @pytest.mark.parametrize("order", range(3, 7))
    def test_bit_identical_with_broadcast_root_product(self, dsm_fixture, monkeypatch, order):
        ch, budget, cfg = dsm_fixture
        cfg = replace(cfg, order=order)
        target = q.optimal_sq(ch.noise, budget).sq_opt
        ntf = q.design_ntf(target, cfg)
        monkeypatch.setattr(ds, "_root_product", reference_root_product)
        expect = q.design_ntf(target, cfg)
        for got, want in ((ntf.zeros, expect.zeros), (ntf.poles, expect.poles)):
            assert_array_equal(got.real, want.real)
            assert_array_equal(got.imag, want.imag)

    def test_residual_multiplies_each_root_set_once(self, dsm_fixture, monkeypatch):
        # one product call per evaluation, over the fit and peak grids
        # together: stage 1 reuses its frozen zeros' product, so it
        # multiplies the poles only; stage 2 stacks the zeros and the poles
        ch, budget, cfg = dsm_fixture
        target = q.optimal_sq(ch.noise, budget).sq_opt
        problems = captured_problems(monkeypatch, target, cfg)
        calls = []

        def counted(z, roots, product=ds._root_product):
            calls.append((z.size, roots.shape))
            return product(z, roots)

        monkeypatch.setattr(ds, "_root_product", counted)
        points = target.grid.num_bins + ds._PEAK_GRID
        for (fun, lo, hi), shape in ((problems[0], (cfg.order,)),
                                     (problems[-1], (2, cfg.order))):
            calls.clear()
            fun(0.5 * (lo + hi))
            assert calls == [(points, shape)]

    def test_root_derivatives_built_only_for_the_jacobian(self, dsm_fixture, monkeypatch):
        # _bounded_lm also evaluates trial points it rejects, and only jac()
        # reads d root/dx, so no other evaluation builds it
        ch, budget, cfg = dsm_fixture
        target = q.optimal_sq(ch.noise, budget).sq_opt
        count = {"fun": 0, "jac": 0, "builds": 0, "outside_jac": 0}
        in_jac = [False]
        pair_roots, bounded_lm = ds._pair_roots, ds._bounded_lm

        def counted_roots(x, order):
            roots, droots = pair_roots(x, order)

            def build():
                count["builds"] += 1
                count["outside_jac"] += not in_jac[0]
                return droots()
            return roots, build

        def counted_lm(fun, x0, lo, hi):
            def counted_fun(x):
                count["fun"] += 1
                f, jac = fun(x)

                def counted_jac():
                    count["jac"] += 1
                    in_jac[0] = True
                    try:
                        return jac()
                    finally:
                        in_jac[0] = False
                return f, counted_jac
            return bounded_lm(counted_fun, x0, lo, hi)

        monkeypatch.setattr(ds, "_pair_roots", counted_roots)
        monkeypatch.setattr(ds, "_bounded_lm", counted_lm)
        q.design_ntf(target, cfg)
        assert count["jac"] < count["fun"]  # some trial points were rejected
        assert count["builds"] >= count["jac"]
        assert count["outside_jac"] == 0

    def test_infeasible_target_reports_achieved_error(self):
        fs = 4.8e9
        cfg = q.ModulatorConfig(order=2, osr=12.0, sample_rate=fs)
        grid = q.make_grid(0.0, cfg.band_edge, 32)
        floor = cfg.step ** 2 / (12.0 * fs)
        target = q.Psd(grid, np.full(32, floor * 1e-6))  # 60 dB down: hopeless
        with pytest.raises(DesignInfeasibleError) as exc_info:
            q.design_ntf(target, cfg)
        assert exc_info.value.achieved_rms_db > 0
        assert exc_info.value.peak_gain > cfg.max_ntf_gain
        assert exc_info.value.order == 2

    def test_over_constrained_fit_reports_peak_and_order(self):
        # a flat target 10 dB above the unshaped floor: an NTF within the gain
        # cap, |NTF| <= 1.5 (3.5 dB), misses it by more than 6 dB in every bin
        fs = 4.8e9
        cfg = q.ModulatorConfig(order=1, osr=12.0, sample_rate=fs)
        grid = q.make_grid(0.0, cfg.band_edge, 32)
        floor = cfg.step ** 2 / (12.0 * fs)
        target = q.Psd(grid, np.full(32, floor * 10.0))
        with pytest.raises(DesignInfeasibleError, match="cannot express") as exc_info:
            q.design_ntf(target, cfg)
        err = exc_info.value
        assert err.order == 1
        assert err.achieved_rms_db > 6.0
        assert 1.0 <= err.peak_gain <= cfg.max_ntf_gain * 1.01

    @pytest.mark.parametrize("order, target_db", [(2, -60.0), (1, 10.0)])
    def test_infeasible_peak_gain_is_the_continuous_maximum(self, monkeypatch, order, target_db):
        # the fits of the two tests above: the last peak that design_ntf
        # refines is the one its error reports
        fs = 4.8e9
        cfg = q.ModulatorConfig(order=order, osr=12.0, sample_rate=fs)
        grid = q.make_grid(0.0, cfg.band_edge, 32)
        floor = cfg.step ** 2 / (12.0 * fs)
        target = q.Psd(grid, np.full(32, floor * 10.0 ** (target_db / 10.0)))
        refined, refine_peak = [], ds._refine_peak

        def spy(zeros, poles, mag):
            refined.append((zeros, poles))
            return refine_peak(zeros, poles, mag)

        monkeypatch.setattr(ds, "_refine_peak", spy)
        with pytest.raises(DesignInfeasibleError) as exc_info:
            q.design_ntf(target, cfg)
        dense = float(np.max(ntf_magnitude(*refined[-1], PEAK_CHECK_CIRCLE)))
        assert exc_info.value.peak_gain == pytest.approx(dense, rel=1e-9)

    def test_target_beyond_band_rejected(self):
        cfg = q.ModulatorConfig(order=4, osr=12.0, sample_rate=1.0)
        target = q.Psd(q.make_grid(0.0, 0.2, 16), np.full(16, 1e-3))
        with pytest.raises(ValueError, match="signal band"):
            q.design_ntf(target, cfg)

    def test_zero_target_bin_rejected(self):
        cfg = q.ModulatorConfig(order=4, osr=12.0, sample_rate=1.0)
        values = np.full(16, 1e-3)
        values[5] = 0.0
        target = q.Psd(q.make_grid(0.0, cfg.band_edge, 16), values)
        with pytest.raises(ValueError, match="strictly positive in-band"):
            q.design_ntf(target, cfg)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_butterworth_starts_match_scipy(self, order):
        for fs in (1.0, 4.8e9):
            for fc in np.array([0.01, 0.0417, 0.2, 0.45]) * fs:
                _, expect, _ = sps.butter(order, fc, btype="highpass", output="zpk", fs=fs)
                poles = ds._butter_highpass_poles(order, fc, fs)
                assert poles.size == expect.size == order
                gap = np.abs(poles[:, None] - expect[None, :])
                assert np.max(np.min(gap, axis=1)) < 1e-12
                assert np.max(np.min(gap, axis=0)) < 1e-12


def _lm_test_problem(a, b, x):
    """f(x) = A (x + 0.3 sin 3x) - b, mildly nonlinear, and its Jacobian."""
    return a @ (x + 0.3 * np.sin(3.0 * x)) - b, a * (1.0 + 0.9 * np.cos(3.0 * x))


class TestBoundedLm:
    def test_linear_box_problem_matches_active_set_enumeration(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((12, 4))
        b = a @ np.array([0.3, -0.4, 0.5, 0.2]) + 0.05 * rng.standard_normal(12)
        lo, hi = np.zeros(4), np.ones(4)

        # the convex problem's minimum is the cheapest feasible one among the
        # least-squares solutions with each coordinate free or on a bound
        best_x, best_cost = None, np.inf
        for pattern in itertools.product((None, 0.0, 1.0), repeat=4):
            free = np.array([p is None for p in pattern])
            x = np.array([0.0 if p is None else p for p in pattern])
            x[free] = np.linalg.lstsq(a[:, free], b - a[:, ~free] @ x[~free], rcond=None)[0]
            cost = 0.5 * float(np.sum((a @ x - b) ** 2))
            if np.all(x >= lo) and np.all(x <= hi) and cost < best_cost:
                best_x, best_cost = x, cost
        assert np.count_nonzero((best_x == lo) | (best_x == hi)) == 1

        # the solver stays strictly inside: it holds the active coordinate
        # within about 1e-9 of the box side from its bound
        x, cost = ds._bounded_lm(lambda x: (a @ x - b, lambda: a), np.full(4, 0.5), lo, hi)
        assert np.all((x > lo) & (x < hi))
        assert_allclose(x, best_x, atol=1e-8)
        assert cost == pytest.approx(best_cost, rel=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @example(n=5, seed=33117)  # a step of 99.5% of a few-ulp gap rounds onto the bound
    def test_iterates_stay_inside_and_cost_never_rises(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n + 3, n))
        b = 3.0 * rng.standard_normal(n + 3)
        lo = -rng.uniform(0.01, 2.0, n)
        hi = rng.uniform(0.01, 2.0, n)
        x0 = lo + (hi - lo) * rng.uniform(0.01, 0.99, n)
        seen = []

        def fun(x):
            seen.append(x.copy())
            f, jx = _lm_test_problem(a, b, x)
            return f, lambda: jx

        x, cost = ds._bounded_lm(fun, x0, lo, hi)
        assert len(seen) <= 500
        assert all(np.all((p > lo) & (p < hi)) for p in seen)
        assert np.all((x > lo) & (x < hi))
        assert cost <= 0.5 * float(np.sum(fun(x0)[0] ** 2))
        assert cost == pytest.approx(0.5 * float(np.sum(fun(x)[0] ** 2)), rel=1e-12)

    def test_jacobian_built_only_at_start_and_accepted_points(self):
        # J is built where the solver steps from: the start and each accepted
        # point, never at a rejected trial point
        rng = np.random.default_rng(43)
        a = rng.standard_normal((9, 6))
        b = 3.0 * rng.standard_normal(9)
        lo, hi = np.full(6, -2.0), np.full(6, 2.0)
        costs, built = [], []

        def fun(x):
            f, jx = _lm_test_problem(a, b, x)
            costs.append(0.5 * float(f @ f))

            def jac():
                built.append(costs[-1])
                return jx
            return f, jac

        ds._bounded_lm(fun, np.full(6, 0.1), lo, hi)
        # on this problem a trial point is accepted exactly when it costs
        # less than every earlier point
        accepted = sum(c < min(costs[:k]) for k, c in enumerate(costs) if k)
        assert accepted < len(costs) - 1  # some trial points were rejected
        assert len(built) == 1 + accepted


# In-band RMS fit (dB) of design_ntf on a sweep of orders 1-8 at OSR 12 and
# 16, as fitted by scipy's bounded trust-region least squares before the
# numpy solver replaced it.  Every point was feasible.
SWEEP_FIT_DB = {
    ("dsm", 12): (5.577464, 2.514505, 2.328927, 0.914809, 0.323533, 0.319752, 0.306959, 0.376659),
    ("dsm", 16): (5.172048, 2.512662, 2.113701, 0.927063, 0.339883, 0.318730, 0.316548, 0.387659),
    ("wireless3", 12): (5.780354, 4.949013, 4.714243, 4.697571, 4.343388, 4.071165, 3.797466,
                        3.350593),
    ("wireless3", 16): (5.574925, 4.945148, 4.714249, 4.721617, 4.406828, 4.202298, 3.767660,
                        3.488553),
}
SWEEP_POINTS = [(name, osr, order) for name, osr in SWEEP_FIT_DB for order in range(1, 9)]
_sweep_fits = {}


def sweep_fit_db(dsm_fixture, name, osr, order):
    """In-band RMS fit (dB) of the design at one sweep point: the dsm
    fixture's channel, or a 3-notch 20 dB wireless channel on the same grid,
    both at the dsm budget.  Cached, since the sweep mean needs every point."""
    key = (name, osr, order)
    if key not in _sweep_fits:
        ch = dsm_fixture[0]
        if name == "wireless3":
            ch = q.wireless_channel(ch.grid, num_notches=3, notch_depth=20.0,
                                    noise_floor=-80.0, seed=5)
        target = q.optimal_sq(ch.noise, q.PowerBudget(DSM_BUDGET)).sq_opt
        cfg = q.ModulatorConfig(order=order, osr=float(osr),
                                sample_rate=2.0 * osr * target.grid.f_hi,
                                quantizer_levels=16, step=0.125, max_ntf_gain=1.5)
        ntf = q.design_ntf(target, cfg)
        err_db = 10.0 * np.log10(q.ntf_quant_psd(ntf, cfg, target.grid).values / target.values)
        _sweep_fits[key] = float(np.sqrt(np.mean(err_db ** 2)))
    return _sweep_fits[key]


class TestDesignSweep:
    @pytest.mark.parametrize("name, osr, order", SWEEP_POINTS)
    def test_fit_no_worse_than_recorded(self, dsm_fixture, name, osr, order):
        recorded = SWEEP_FIT_DB[name, osr][order - 1]
        assert sweep_fit_db(dsm_fixture, name, osr, order) <= recorded + 0.01

    def test_sweep_mean_no_worse_than_recorded(self, dsm_fixture):
        fits = [sweep_fit_db(dsm_fixture, *point) for point in SWEEP_POINTS]
        assert np.mean(fits) <= np.mean([SWEEP_FIT_DB[n, o][k - 1] for n, o, k in SWEEP_POINTS])


class TestMeasuredVsPredicted:
    @pytest.mark.parametrize("order", [4, 5, 6])
    def test_measured_matches_welch_of_output_less_stf_input(self, dsm_design, order):
        # the report's |NTF|^2 * Welch(q) against the Welch estimate of the
        # shaped noise itself, output - STF*input with STF = 1 - NTF run by
        # lfilter, bin-averaged the same way.  Dithered runs only: the two
        # differ where Hann sidelobes leak out-of-band shaped noise in-band,
        # which the product form leaves out.  Dithered q is white, so that
        # leakage is small: at most 0.072 dB per bin over seeds 5-7 at 2^15
        # samples (0.027 dB at 2^18).  An undithered q is periodic, and its
        # out-of-band shaped tones leak in: 0.36 / 0.24 / 0.20 dB per bin at
        # orders 4 / 5 / 6 on this tone, 0.90 / 2.2 / 3.0 dB on a tone at
        # 7/480 of fs.
        target, ntf, cfg = dsm_design(order)
        n = 2 ** 15
        trace = q.simulate(q.loop_from_ntf(ntf), cfg, dsm_tone(cfg, n, -6.0), seed=5)
        rep = q.measured_vs_predicted(trace, ntf, cfg, target)
        num, den = ntf.coeffs()
        skip = min(ds._TRACKING_SEGMENT, n // 4)
        shaped = (trace.output - sps.lfilter(den - num, den, trace.input))[skip:]
        est = q.estimate_psd(shaped, cfg.sample_rate, ds._TRACKING_SEGMENT)
        fine_f = est.grid.centers
        inband = fine_f <= target.grid.f_hi * (1.0 + 1e-12)
        expect = ds._bin_average(fine_f[inband], est.values[inband] / 2.0, target.grid)
        assert np.max(np.abs(10.0 * np.log10(rep.measured / expect))) < 0.1
        # the prediction is ntf_quant_psd's, bit for bit
        model = q.ntf_quant_psd(ntf, cfg, est.grid).values[inband]
        assert_array_equal(rep.predicted, ds._bin_average(fine_f[inband], model, target.grid))

    def test_unit_ntf_white_floor(self):
        # dithered open-loop quantizer: flat floor at step^2/(12 fs) within 1 dB
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0,
                                quantizer_levels=16, step=0.125, dither=True)
        trace = q.simulate(zero_loop(), cfg, np.zeros(2 ** 17))
        ntf = q.RationalTf(np.array([], complex), np.array([], complex), 1.0)
        rep = q.measured_vs_predicted(trace, ntf, cfg, UNIT_REFERENCE)
        assert np.max(np.abs(10.0 * np.log10(rep.measured / rep.predicted))) < 1.0

    def test_first_order_shape(self):
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0,
                                quantizer_levels=16, step=0.125, dither=True)
        x = 0.4 * np.sin(2 * np.pi * 0.011 * np.arange(2 ** 17))
        trace = q.simulate(first_order_loop(), cfg, x, seed=2)
        ntf = q.ntf_from_loop(first_order_loop())
        rep = q.measured_vs_predicted(trace, ntf, cfg, UNIT_REFERENCE)
        assert rep.predicted_rms_db_error < 2.0

    def test_unstable_trace_rejected(self):
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0,
                                quantizer_levels=16, step=0.125)
        trace = q.simulate(first_order_loop(), cfg, np.full(8192, 1.3))
        assert not trace.stability_flag
        ntf = q.ntf_from_loop(first_order_loop())
        with pytest.raises(ValueError, match="unstable"):
            q.measured_vs_predicted(trace, ntf, cfg, UNIT_REFERENCE)

    def test_grid_beyond_nyquist_rejected(self):
        # the bins above fs/2 would repeat the last Welch value
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0,
                                quantizer_levels=16, step=0.125, dither=True)
        ntf = q.RationalTf(np.array([1.0], complex), np.array([0.5], complex), 1.0)
        trace = q.simulate(q.loop_from_ntf(ntf), cfg, np.zeros(2 ** 14), seed=1)
        grid = q.make_grid(0.0, 0.75, 8)
        with pytest.raises(ValueError, match="sample_rate/2"):
            q.measured_vs_predicted(trace, ntf, cfg, q.Psd(grid, np.ones(8)))

    def test_grid_below_the_first_welch_bin_rejected(self, monkeypatch):
        # the first Welch bin center is fs/8192; a grid that ends below it
        # holds no Welch bin to compare, so it is refused before the estimate
        def no_estimate(*args, **kwargs):
            raise AssertionError("estimate_psd ran")

        monkeypatch.setattr(ds, "estimate_psd", no_estimate)
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0,
                                quantizer_levels=16, step=0.125, dither=True)
        ntf = q.RationalTf(np.array([1.0], complex), np.array([0.5], complex), 1.0)
        trace = q.simulate(q.loop_from_ntf(ntf), cfg, np.zeros(2 ** 14), seed=1)
        grid = q.make_grid(0.0, 1e-4, 4)
        with pytest.raises(ValueError, match=r"f_hi = 0.0001 Hz lies below the first Welch bin "
                                             r"center: Welch bins are fs/4096 = 0.000244141 Hz wide"):
            q.measured_vs_predicted(trace, ntf, cfg, q.Psd(grid, np.ones(4)))

    @pytest.mark.parametrize("num_bins, num_empty", [(16, 0), (256, 85)])
    def test_bin_average_onto_the_reference_grid(self, num_bins, num_empty):
        # the 171 in-band fs/4096 Welch bins on bins to fs/24: 16 bins hold
        # 10 or 11 each, and of 256 bins, fs/6144 wide, 171 hold one each and
        # the other 85 take the value interpolated at their center
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0,
                                quantizer_levels=16, step=0.125, dither=True)
        x = 0.4 * np.sin(2 * np.pi * 0.011 * np.arange(2 ** 15))
        trace = q.simulate(first_order_loop(), cfg, x, seed=2)
        ntf = q.ntf_from_loop(first_order_loop())
        grid = q.make_grid(0.0, 1.0 / 24.0, num_bins)
        rep = q.measured_vs_predicted(trace, ntf, cfg, q.Psd(grid, np.ones(num_bins)))
        est = q.estimate_psd(trace.quantizer_error[ds._TRACKING_SEGMENT:], 1.0,
                             ds._TRACKING_SEGMENT)
        fine_f = est.grid.centers[est.grid.centers <= grid.f_hi]
        gain = np.abs(ntf(np.exp(2j * np.pi * fine_f))) ** 2
        held = [(grid.edges[k] <= fine_f) & (fine_f < grid.edges[k + 1])
                for k in range(num_bins)]
        empty = [k for k in range(num_bins) if not held[k].any()]
        assert len(empty) == num_empty
        for got, fine in ((rep.measured, est.values[:fine_f.size] / 2.0 * gain),
                          (rep.predicted, cfg.step ** 2 / 12.0 * gain)):
            for k in range(num_bins):
                if held[k].any():
                    assert_allclose(got[k], np.mean(fine[held[k]]), rtol=1e-12)
            assert_allclose(got[empty], np.interp(grid.centers[empty], fine_f, fine),
                            rtol=1e-12)

    def test_dithered_white_noise_matches_model(self):
        # linear-model isolation: on zero input, subtractive dither makes the
        # quantizer error uniform white, and through a real 4th-order loop it
        # converges to the analytic curve within 1 dB RMS
        fs = 4.8e9
        cfg = q.ModulatorConfig(order=4, osr=12.0, sample_rate=fs,
                                quantizer_levels=16, step=0.125, dither=True)
        grid = q.make_grid(0.0, cfg.band_edge, 32)
        floor = cfg.step ** 2 / (12.0 * fs)
        target = q.Psd(grid, np.full(32, floor * 10.0 ** (-1.8)))
        ntf = q.design_ntf(target, cfg)
        h = q.loop_from_ntf(ntf)
        n = 2 ** 17
        trace = q.simulate(h, cfg, np.zeros(n), seed=30)
        assert trace.saturation_count == 0
        rep = q.measured_vs_predicted(trace, ntf, cfg, target)
        assert rep.predicted_rms_db_error < 1.0

    def test_fir_ntf_tracking_without_warning(self):
        # NTF (1 - z^-1)^2: both poles at the origin
        ntf = q.RationalTf(np.array([1.0, 1.0], complex), np.array([0.0, 0.0], complex), 1.0)
        cfg = q.ModulatorConfig(order=2, osr=12, sample_rate=1.0,
                                quantizer_levels=16, step=0.125, dither=True)
        trace = q.simulate(q.loop_from_ntf(ntf), cfg, np.zeros(2 ** 14), seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = q.measured_vs_predicted(trace, ntf, cfg, UNIT_REFERENCE)
        assert np.isfinite(rep.rms_db_error) and np.isfinite(rep.predicted_rms_db_error)

    def test_empty_trace_reaches_the_segment_check(self, monkeypatch):
        # too short a trace is refused before the Welch estimate runs
        def no_estimate(*args, **kwargs):
            raise AssertionError("estimate_psd ran")

        monkeypatch.setattr(ds, "estimate_psd", no_estimate)
        ntf = q.RationalTf(np.array([1.0], complex), np.array([0.5], complex), 1.0)
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0)
        trace = q.simulate(q.loop_from_ntf(ntf), cfg, np.zeros(0))
        with pytest.raises(ValueError, match=rf"too few samples for the tracking report: "
                                             rf"0 < {ds._min_tracking_samples()}"):
            q.measured_vs_predicted(trace, ntf, cfg, UNIT_REFERENCE)

    @pytest.mark.parametrize("pole, shown", [(1.2, "1.2"), (1.0, "1"), (-1.5, "1.5")])
    def test_unstable_ntf_rejected(self, pole, shown):
        cfg = q.ModulatorConfig(order=1, osr=12, sample_rate=1.0)
        trace = q.simulate(zero_loop(), cfg, np.zeros(8192))
        ntf = q.RationalTf(np.array([1.0], complex), np.array([pole], complex), 1.0)
        with pytest.raises(ValueError, match=rf"stable NTF: largest pole radius {shown} >= 1"):
            q.measured_vs_predicted(trace, ntf, cfg, UNIT_REFERENCE)
