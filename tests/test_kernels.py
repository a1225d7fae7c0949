"""The modulator kernel must reproduce the numpy reference loop below bit for
bit: same float operations in the same order.  ``modulator_core`` runs a
pure-Python body generated per loop order and quantizer mode, and every one
of them is compared against the reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from qnshape import _kernels

STEP = 0.125
LEVELS = 16.0


def reference_modulator(x, b, a, step, levels, dither, state_limit):
    """The loop as first written, on numpy arrays and scalars."""
    n = b.shape[0]
    npts = x.shape[0]
    y = np.empty(npts)
    q = np.empty(npts)
    s = np.zeros(n)
    top = (levels / 2.0 - 0.5) * step
    sat = 0
    max_state = 0.0
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
            for j in range(n):
                m = abs(s[j])
                if m > max_state:
                    max_state = m
        if max_state > state_limit:
            for r in range(t + 1, npts):
                y[r] = 0.0
                q[r] = 0.0
            break

    return y, q, sat, max_state


@pytest.fixture(params=["python"])
def modulator_core():
    # the pure-Python kernel, the only backend
    return _kernels.modulator_core


def _case(order, n, seed, amplitude=0.4):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, order)
    a = rng.uniform(-0.4, 0.4, order)
    x = amplitude * np.sin(2 * np.pi * 0.003 * np.arange(n)) + 0.05 * rng.standard_normal(n)
    dither = (rng.random(n) - rng.random(n)) * STEP
    return x, b, a, dither


def _run_both(core, *args):
    got = core(*args)
    want = reference_modulator(*args)
    assert_array_equal(got[0], want[0])
    assert_array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert got[3] == want[3]
    return want


@pytest.mark.parametrize("dithered", [False, True])
@pytest.mark.parametrize("order", range(9))
def test_matches_reference(modulator_core, order, dithered):
    # every order in both quantizer modes
    x, b, a, dither = _case(order, 4096, seed=order)
    if not dithered:
        dither = np.zeros(0)
    _run_both(modulator_core, x, b, a, STEP, LEVELS, dither, 10.0)


def test_saturating_input(modulator_core):
    x, b, a, dither = _case(2, 4096, seed=5, amplitude=3.0)
    _, _, sat, _ = _run_both(modulator_core, x, b, a, STEP, LEVELS, dither, 1e6)
    assert sat > 0


def test_divergence_freezes_output(modulator_core):
    x, b, a, dither = _case(4, 4096, seed=4)
    y, q, _, max_state = _run_both(modulator_core, x, b, a, STEP, LEVELS, dither, 0.5)
    assert max_state > 0.5
    stop = int(np.flatnonzero(y)[-1])
    assert stop < 4095
    assert not np.any(y[stop + 1:]) and not np.any(q[stop + 1:])


def test_huge_and_non_finite_inputs(modulator_core):
    # quantizer inputs beyond 2^52 steps, inf and nan take the kernel's
    # path around math.floor and must still match np.floor
    x, b, a, _ = _case(2, 512, seed=6)
    x[100:110] = 1e300
    x[300] = np.inf
    x[400] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        y, _, _, _ = _run_both(modulator_core, x, b, a, STEP, LEVELS, np.zeros(0), np.inf)
    assert np.isnan(y[-1])


@settings(max_examples=100, deadline=None)
@given(order=st.integers(0, 8), dithered=st.booleans(),
       npts=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
       amplitude=st.floats(0.0, 2.0),
       state_limit=st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e) | st.just(np.inf))
def test_modulator_core_matches_reference_property(order, dithered, npts, seed, amplitude,
                                                   state_limit):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, order)
    a = rng.uniform(-1.0, 1.0, order)
    x = amplitude * np.sin(2 * np.pi * rng.random() * np.arange(npts)) \
        + 0.05 * rng.standard_normal(npts)
    dither = (rng.random(npts) - rng.random(npts)) * STEP if dithered else np.zeros(0)

    with np.errstate(over="ignore", invalid="ignore"):
        _run_both(_kernels.modulator_core, x, b, a, STEP, LEVELS, dither, state_limit)
