"""The delta-sigma modulator kernel, with optional numba acceleration.

The modulator is a per-sample feedback recursion and cannot be vectorized.
One loop body serves both paths.  Without numba it runs on Python floats:
the signals are read and written through ``memoryview``s of float64 arrays
and the loop state is a short list, which is several times faster than
indexing numpy arrays element by element.  With numba installed (the
``fast`` extra) the same body is JIT compiled and receives arrays instead.
Set ``QNSHAPE_DISABLE_NUMBA=1`` to force the pure-Python path.

Measure the kernel with the layer benchmark:
``python3 perfbench/run.py --workload compute --seed 11 --seconds 45 --trace 1``
reports ``kernels.modulator_core_s`` and ``kernels.ns_per_sample``.
"""

import os
from math import floor

import numpy as np

_DISABLED = os.environ.get("QNSHAPE_DISABLE_NUMBA", "").lower() in ("1", "true", "yes")

try:
    if _DISABLED:
        raise ImportError
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

# floats at or beyond 2^52 in magnitude are already integers; math.floor
# would also raise on inf and nan, where np.floor passes the value through
_INTEGRAL = 4503599627370496.0


def _modulator_body(x, b, a, step, levels, dither, inject, use_inject, state_limit, y, q, s):
    """Run the single-loop modulator: loop filter H, embedded quantizer, unit feedback.

    H(z) = (b[0] z^-1 + ... + b[n-1] z^-n) / (1 + a[0] z^-1 + ... + a[n-1] z^-n),
    realized in transposed direct-form II so the quantizer input v[t] depends
    only on past samples (H strictly proper, no delay-free loop).

    When ``use_inject`` is set the quantizer is bypassed and inject[t] is added
    to v[t] instead, which exercises the linearized model with a known error
    source.

    Writes the output and the quantizer error into y and q, which must hold
    zeros, and updates the state s (n zeros on entry) in place.  Once a state
    exceeds ``state_limit`` the loop stops, leaving the rest of y and q at 0.
    Returns (saturation_count, max_abs_state).
    """
    n = len(b)
    npts = len(x)
    top = (levels / 2.0 - 0.5) * step
    sat = 0
    max_state = 0.0
    use_dither = len(dither) > 0

    for t in range(npts):
        v = s[0] if n > 0 else 0.0
        if use_inject:
            yt = v + inject[t]
            qt = inject[t]
        else:
            # subtractive dither keeps the effective error uniform white
            # without adding power: y - v equals the lattice error of v+d
            d = dither[t] if use_dither else 0.0
            vq = v + d
            r = vq / step
            if -_INTEGRAL < r < _INTEGRAL:
                yt = (floor(r) + 0.5) * step
            else:
                yt = (r + 0.5) * step
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
            sj = s[j + 1] + b[j] * u - a[j] * v
            s[j] = sj
            if abs(sj) > max_state:
                max_state = abs(sj)
        if n > 0:
            sj = b[n - 1] * u - a[n - 1] * v
            s[n - 1] = sj
            if abs(sj) > max_state:
                max_state = abs(sj)
        if max_state > state_limit:
            # diverged: the remaining output stays frozen at 0
            break

    return sat, max_state


def _as_float_array(v):
    return np.ascontiguousarray(v, dtype=float)


# the numba path JIT compiles the very same body and hands it arrays
_jit_body = njit(cache=True)(_modulator_body) if HAVE_NUMBA else None


def modulator_core(x, b, a, step, levels, dither, inject, use_inject, state_limit):
    """Run the modulator on x with loop filter coefficients b, a (see
    ``_modulator_body``); returns (output, quantizer_error, saturation_count,
    max_abs_state).  Both paths give bit-identical results."""
    x = _as_float_array(x)
    y = np.zeros(x.size)
    q = np.zeros(x.size)
    signals = (x, _as_float_array(dither), _as_float_array(inject), y, q)
    if _jit_body is None:
        body = _modulator_body
        signals = tuple(memoryview(v) for v in signals)
        b = [float(c) for c in b]
        a = [float(c) for c in a]
        s = [0.0] * len(b)
    else:
        body = _jit_body
        b = _as_float_array(b)
        a = _as_float_array(a)
        s = np.zeros(b.size)
    xv, dv, iv, yv, qv = signals
    sat, max_state = body(xv, b, a, float(step), float(levels), dv, iv, bool(use_inject),
                          float(state_limit), yv, qv, s)
    return y, q, sat, max_state
