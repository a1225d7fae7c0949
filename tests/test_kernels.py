"""The modulator kernel must reproduce the numpy reference loop below bit for
bit: same float operations in the same order, and the same stop rule.
``modulator_core`` runs a pure-Python body generated per loop order and
quantizer mode, and every one of them is compared against the reference."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from qnshape import _kernels
from qnshape._kernels import MAX_LEVELS, _quantizer_table, modulator_core

STEP = 0.125
LEVELS = 16.0
# 10x full scale, levels * step / 2
LIMIT = 10.0


def reference_modulator(x, b, a, step, levels, dither):
    """The loop as first written, on numpy arrays and scalars.  It stops, and
    reports the run unstable, once the next quantizer input leaves ±10x full
    scale or is NaN; the rest of the output and error stay 0."""
    n = b.shape[0]
    npts = x.shape[0]
    y = np.zeros(npts)
    q = np.zeros(npts)
    s = np.zeros(n)
    top = (levels / 2.0 - 0.5) * step
    limit = 10.0 * (levels * step / 2.0)
    sat = 0
    use_dither = dither.shape[0] > 0

    for t in range(npts):
        v = s[0] if n > 0 else 0.0
        d = dither[t] if use_dither else 0.0
        vq = v + d
        yt = (np.floor(vq / step) + 0.5) * step
        if yt > top:
            yt = top
            sat += 1
        elif yt < -top:
            yt = -top
            sat += 1
        yt -= d
        qt = yt - v
        y[t] = yt
        q[t] = qt

        u = x[t] - yt
        for j in range(n - 1):
            s[j] = s[j + 1] + b[j] * u - a[j] * v
        if n > 0:
            s[n - 1] = b[n - 1] * u - a[n - 1] * v
            if not -limit <= s[0] <= limit:
                return y, q, sat, False

    return y, q, sat, True


def _case(order, n, seed, amplitude=0.4):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, order)
    a = rng.uniform(-0.4, 0.4, order)
    x = amplitude * np.sin(2 * np.pi * 0.003 * np.arange(n)) + 0.05 * rng.standard_normal(n)
    dither = (rng.random(n) - rng.random(n)) * STEP
    return x, b, a, dither


def _run_both(*args):
    got = modulator_core(*args)
    want = reference_modulator(*args)
    assert_array_equal(got[0], want[0])
    assert_array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert got[3] is want[3]
    return want


@pytest.mark.parametrize("dithered", [False, True])
@pytest.mark.parametrize("order", range(9))
def test_matches_reference(order, dithered):
    # every order in both quantizer modes
    x, b, a, dither = _case(order, 4096, seed=order)
    if not dithered:
        dither = np.zeros(0)
    _, _, _, stable = _run_both(x, b, a, STEP, LEVELS, dither)
    assert stable


def test_saturating_input():
    x, b, a, dither = _case(2, 4096, seed=5, amplitude=3.0)
    _, _, sat, stable = _run_both(x, b, a, STEP, LEVELS, dither)
    assert sat > 0 and stable


@pytest.mark.parametrize("dithered", [False, True])
# this order-4 loop diverges at amplitude 3.0
@pytest.mark.parametrize("order, amplitude", [(1, 3.0), (2, 3.0), (4, 2.0)])
def test_saturating_input_every_mode(order, amplitude, dithered):
    # outputs clipped at full scale, and each clip counted, in a run that
    # stays stable
    x, b, a, dither = _case(order, 4096, seed=5, amplitude=amplitude)
    if not dithered:
        dither = np.zeros(0)
    _, _, sat, stable = _run_both(x, b, a, STEP, LEVELS, dither)
    assert sat > 0 and stable


def _integrator(n, dither):
    """An integrator driven by DC beyond full scale, as in the test below:
    it diverges well before 4096 samples.  Returns its kernel outputs and
    stop sample, both checked against the reference."""
    y, q, sat, stable = _run_both(np.full(n, 1.3), np.array([1.0]), np.array([-1.0]), STEP,
                                  LEVELS, dither)
    assert not stable
    return y, q, sat, int(np.flatnonzero(y)[-1])


def test_divergence_on_final_sample():
    # the run that diverges on its last sample writes every sample and is
    # still reported unstable
    n = _integrator(4096, np.zeros(0))[3] + 1
    y, q, _, stop = _integrator(n, np.zeros(0))
    assert stop == n - 1 and np.all(y) and np.all(q)


@pytest.mark.parametrize("dithered", [False, True])
def test_saturations_counted_to_stop(dithered):
    # the stop sample's clip counts and nothing after it does: the run cut
    # after its stop sample clips as often
    n = 4096
    rng = np.random.default_rng(7)
    dither = (rng.random(n) - rng.random(n)) * STEP if dithered else np.zeros(0)
    _, _, sat, stop = _integrator(n, dither)
    assert 0 < sat <= stop + 1 < n
    _, _, sat_cut, stop_cut = _integrator(stop + 1, dither[:stop + 1])
    assert (sat_cut, stop_cut) == (sat, stop)


@pytest.mark.parametrize("dithered", [False, True])
def test_output_derived_in_small_blocks(monkeypatch, dithered):
    # blocks of 5 samples after the loop: the outputs and the saturation
    # count still match the reference on a saturating stable run, and on a
    # diverging run that stops mid-block
    monkeypatch.setattr(_kernels, "_LOOKUP_BLOCK", 5)
    x, b, a, dither = _case(2, 4096, seed=5, amplitude=3.0)
    dither = dither if dithered else np.zeros(0)
    _, _, sat, stable = _run_both(x, b, a, STEP, LEVELS, dither)
    assert sat > 0 and stable
    stop = _integrator(4096, dither)[3]
    assert (stop + 1) % 5 != 0


def test_divergence_freezes_output():
    # an integrator driven by DC beyond full scale winds up without bound:
    # the run stops at the sample whose update takes the next quantizer
    # input past 10x full scale
    n = 4096
    x = np.full(n, 1.3)
    y, q, sat, stable = _run_both(x, np.array([1.0]), np.array([-1.0]), STEP, LEVELS,
                                  np.zeros(0))
    assert not stable and sat > 0
    stop = int(np.flatnonzero(y)[-1])
    assert stop < n - 1
    assert not np.any(y[stop + 1:]) and not np.any(q[stop + 1:])
    # the quantizer input is v = y - q; for this loop the next one is x - q
    assert np.max(np.abs(y[:stop + 1] - q[:stop + 1])) <= LIMIT
    assert x[stop] - q[stop] > LIMIT


def test_huge_and_non_finite_inputs():
    # a 1e300, inf or nan input sample takes the next quantizer input out
    # of range at once: the run ends at that sample, and the quantizer
    # never sees the value
    for bad in (1e300, np.inf, np.nan):
        x, b, a, _ = _case(2, 512, seed=6)
        x[100] = bad
        y, q, _, stable = _run_both(x, b, a, STEP, LEVELS, np.zeros(0))
        assert not stable
        assert np.all(y[:101]) and not np.any(y[101:]) and not np.any(q[101:])


@settings(max_examples=100, deadline=None)
@given(order=st.integers(0, 8), dithered=st.booleans(),
       npts=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
       amplitude=st.floats(0.0, 2.0))
def test_modulator_core_matches_reference_property(order, dithered, npts, seed, amplitude):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, order)
    a = rng.uniform(-1.0, 1.0, order)
    x = amplitude * np.sin(2 * np.pi * rng.random() * np.arange(npts)) \
        + 0.05 * rng.standard_normal(npts)
    dither = (rng.random(npts) - rng.random(npts)) * STEP if dithered else np.zeros(0)

    _, _, _, stable = _run_both(x, b, a, STEP, LEVELS, dither)
    event("ran to the end" if stable else "stopped early")


def test_dither_at_its_bound_reaches_the_table_ends():
    # a pure-delay loop, v[t+1] = x[t] - y[t], steered to sit on ±LIMIT
    # while the dither sits at ±(1 - 2^-52) step: the quantizer indexes
    # the outermost levels that the table's bound provides for
    dmax = (1.0 - 2.0 ** -52) * STEP
    b, a = np.array([1.0]), np.array([0.0])
    target = np.array([0.0] + [LIMIT, -LIMIT, -LIMIT, LIMIT] * 2)
    dither = np.where(target < 0.0, -dmax, dmax)
    x = np.zeros(target.size)
    for t in range(target.size - 1):
        # y[t] depends on v[t] and d[t] only, not on x[t]
        y_t = reference_modulator(x[:t + 1], b, a, STEP, LEVELS, dither[:t + 1])[0][t]
        x[t] = target[t + 1] + y_t
    y, _, _, stable = _run_both(x, b, a, STEP, LEVELS, dither)
    assert stable
    assert_array_equal(np.concatenate([[0.0], x[:-1] - y[:-1]]), target)
    k = np.floor((target + dither) / STEP)
    reach = LIMIT + dmax
    assert (k.min(), k.max()) == (np.floor(-reach / STEP), np.floor(reach / STEP))
    table, off = _quantizer_table(STEP, LEVELS, reach)
    assert 0 < k.min() + off and k.max() + off < len(table) - 1


@pytest.mark.parametrize("dithered", [False, True])
# 2^16 levels, the most a quantizer may have, take the longest table
@pytest.mark.parametrize("levels", [2.0, 4096.0, float(MAX_LEVELS)])
def test_levels_at_the_extremes(levels, dithered):
    step = 2.0 / levels  # full scale 1
    assert len(_quantizer_table(step, levels, 10.0 + step)[0]) <= 10 * levels + 7
    x, b, a, dither = _case(3, 4096, seed=11, amplitude=0.8)
    dither = dither * (step / STEP) if dithered else np.zeros(0)
    _run_both(x, b, a, step, levels, dither)


def test_table_beyond_the_most_levels_is_refused():
    # 2^20 levels reach 5 * 2^20 steps out, beyond the table of 2^16 levels
    x, b, a, _ = _case(3, 64, seed=11)
    with pytest.raises(ValueError, match="longer than that of 65536 levels"):
        modulator_core(x, b, a, 2.0 ** -19, 2.0 ** 20, np.zeros(0))


def test_divergence_through_wrapping_indices():
    # an integrator driven by DC -1.3 passes -LIMIT on the way down; the
    # kernel runs on, its table index wraps to the top levels while the
    # quantizer input falls, and the run raises once the index passes the
    # table's start; the outputs still stop where the reference's do
    n = 4096
    x = np.full(n, -1.3)
    y, q, _, stable = _run_both(x, np.array([1.0]), np.array([-1.0]), STEP, LEVELS,
                                np.zeros(0))
    assert not stable
    stop = int(np.flatnonzero(y)[-1])
    assert stop < 100
    # the kernel's own run past the stop: v[t+1] = v[t] + x - table[k]
    table, off = _quantizer_table(STEP, LEVELS, LIMIT)
    v, indices = x[stop] - q[stop], []
    while len(indices) < 100 and (index := int(np.floor(v / STEP)) + off) >= -len(table):
        indices.append(index)
        v = v + x[0] - table[index]
    assert v < -LIMIT and min(indices) < 0 and len(indices) < 100


@pytest.mark.parametrize("dithered", [False, True])
@pytest.mark.parametrize("n", [1, 16])
def test_divergence_on_first_update(n, dithered):
    x, b, a, dither = _case(1, n, seed=2)
    x[0] = 1e3
    dither = dither if dithered else np.zeros(0)
    y, q, _, stable = _run_both(x, np.array([1.0]), np.array([-1.0]), STEP, LEVELS, dither)
    assert not stable and y[0] != 0.0
    assert not np.any(y[1:]) and not np.any(q[1:])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_dither_is_refused(bad):
    x, b, a, dither = _case(2, 64, seed=3)
    dither[17] = bad
    with pytest.raises(ValueError, match="dither must be finite"):
        modulator_core(x, b, a, STEP, LEVELS, dither)
