"""The delta-sigma modulator kernel, with optional numba acceleration.

The modulator is a per-sample feedback recursion and cannot be vectorized.
``_modulator_body`` is the generic loop, written once for any loop order and
quantizer mode.  With numba installed (the ``fast`` extra) it is JIT
compiled and receives arrays.  Without numba, ``modulator_core`` runs a body
generated from it for the loop order and the quantizer mode of the call
(injected error, dithered or plain): the loop state lives in locals, the
state update is unrolled into straight-line code, and the mode is fixed
once per call instead of tested every sample.  Signals are read and written
through ``memoryview``s of float64 arrays.  Each generated body keeps the
generic body's float operations in the same order, so both paths give
bit-identical results.  Set ``QNSHAPE_DISABLE_NUMBA=1`` to force the
pure-Python path.

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


def _body_source(n, mode):
    """Source of ``_modulator_body`` specialised to loop order n and one
    quantizer mode: "inject", "dither" or "plain" (no dither).

    The state s[j] becomes the local s{j}, b[j] and a[j] become b{j} and
    a{j}, and the state update is unrolled.  Every float operation of the
    generic body is kept in the same order, so the results are bit-identical.
    The plain mode drops the generic body's ``+ 0.0`` and ``- 0.0`` for the
    missing dither: they change at most the sign of a zero quantizer input,
    and floor maps both signs of zero to the same level.
    """
    lines = ["def _body(x, b, a, step, levels, dither, inject, use_inject, state_limit, y, q, s):"]
    if n > 0:
        lines += [f"    {''.join(f'{c}{j}, ' for j in range(n))}= {c}" for c in "bas"]
    lines += ["    top = (levels / 2.0 - 0.5) * step",
              "    ntop = -top",
              "    sat = 0",
              "    max_state = 0.0",
              "    for t in range(len(x)):",
              f"        v = {'s0' if n > 0 else '0.0'}"]
    if mode == "inject":
        lines += ["        qt = inject[t]",
                  "        yt = v + qt"]
    else:
        if mode == "dither":
            lines += ["        d = dither[t]",
                      "        r = (v + d) / step"]
        else:
            lines += ["        r = v / step"]
        lines += [f"        if {-_INTEGRAL!r} < r < {_INTEGRAL!r}:",
                  "            yt = (floor(r) + 0.5) * step",
                  "        else:",
                  "            yt = (r + 0.5) * step",
                  "        if yt > top:",
                  "            yt = top",
                  "            sat += 1",
                  "        elif yt < ntop:",
                  "            yt = ntop",
                  "            sat += 1"]
        if mode == "dither":
            lines += ["        yt -= d"]
        lines += ["        qt = yt - v"]
    lines += ["        y[t] = yt",
              "        q[t] = qt",
              "        u = x[t] - yt"]
    for j in range(n):
        head = f"s{j + 1} + " if j < n - 1 else ""
        lines += [f"        s{j} = {head}b{j} * u - a{j} * v",
                  f"        if abs(s{j}) > max_state:",
                  f"            max_state = abs(s{j})"]
    lines += ["        if max_state > state_limit:",
              "            break"]
    lines += [f"    s[{j}] = s{j}" for j in range(n)]
    lines += ["    return sat, max_state"]
    return "\n".join(lines) + "\n"


_BODIES = {}


def _python_body(n, mode):
    """The specialised pure-Python body for (n, mode), compiled on first use."""
    body = _BODIES.get((n, mode))
    if body is None:
        namespace = {"floor": floor}
        exec(compile(_body_source(n, mode), f"<modulator body n={n} {mode}>", "exec"), namespace)
        body = _BODIES[(n, mode)] = namespace["_body"]
    return body


def _as_float_array(v):
    return np.ascontiguousarray(v, dtype=float)


# the numba path JIT compiles the generic body and hands it arrays
_jit_body = njit(cache=True)(_modulator_body) if HAVE_NUMBA else None


def modulator_core(x, b, a, step, levels, dither, inject, use_inject, state_limit):
    """Run the modulator on x with loop filter coefficients b, a (see
    ``_modulator_body``); returns (output, quantizer_error, saturation_count,
    max_abs_state).  Both paths give bit-identical results."""
    x = _as_float_array(x)
    y = np.zeros(x.size)
    q = np.zeros(x.size)
    dither = _as_float_array(dither)
    signals = (x, dither, _as_float_array(inject), y, q)
    if _jit_body is None:
        mode = "inject" if use_inject else "dither" if dither.size > 0 else "plain"
        body = _python_body(len(b), mode)
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
