"""The delta-sigma modulator kernel: loop filter H, embedded quantizer, unit feedback.

H(z) = (b[0] z^-1 + ... + b[n-1] z^-n) / (1 + a[0] z^-1 + ... + a[n-1] z^-n)
is realized in transposed direct-form II, so the quantizer input v[t]
depends only on past samples (H strictly proper, no delay-free loop).  The
quantizer works in one of two modes:

- plain: a mid-rise uniform quantizer with ``levels`` levels of ``step``,
  clipped at full scale, each clip counted as a saturation;
- dithered: the same quantizer with subtractive dither, which keeps the
  effective error uniform white without adding power: y - v equals the
  lattice error of v + d.

Once a state exceeds ``state_limit`` the modulator has diverged and the loop
stops, leaving the rest of the output and the quantizer error at 0.

The loop is a per-sample recursion and cannot be vectorized.  It runs as a
pure-Python body generated per loop order and quantizer mode: the state
lives in locals, its update is unrolled, the mode is fixed per call, and
signals go through ``memoryview``s of float64 arrays.  Every body matches
``reference_modulator`` in ``tests/test_kernels.py`` bit for bit.

Measure the kernel with the layer benchmark:
``python3 perfbench/run.py --workload compute --seed 11 --seconds 45 --trace 1``
reports ``kernels.modulator_core_s`` and ``kernels.ns_per_sample``.
"""

import functools
from math import floor

import numpy as np

# there is no numba backend; perfbench's environment record reads this flag
HAVE_NUMBA = False

# floats at or beyond 2^52 in magnitude are already integers; math.floor
# would also raise on inf and nan, where np.floor passes the value through
_INTEGRAL = 4503599627370496.0


def _body_source(n, dithered):
    """Source of the modulator loop for loop order n, plain or dithered.

    The state s[j] becomes the local s{j}, b[j] and a[j] become b{j} and
    a{j}, and the state update is unrolled.  The float operations follow
    ``reference_modulator`` in the same order, so the results are
    bit-identical.  The plain mode drops the reference's ``+ 0.0`` and
    ``- 0.0`` for the missing dither: they change at most the sign of a zero
    quantizer input, and floor maps both signs of zero to the same level.
    Quantizer inputs of 2^52 steps or more, inf and nan go around
    ``math.floor``, as ``np.floor`` leaves them unchanged.
    """
    lines = ["def _body(x, b, a, state_limit, y, q, step, levels, dither):"]
    if n > 0:
        lines += [f"    {''.join(f'{c}{j}, ' for j in range(n))}= {c}" for c in "ba"]
        lines += [f"    {' = '.join(f's{j}' for j in range(n))} = 0.0"]
    lines += ["    top = (levels / 2.0 - 0.5) * step",
              "    ntop = -top",
              "    sat = 0",
              "    max_state = 0.0",
              "    for t in range(len(x)):",
              f"        v = {'s0' if n > 0 else '0.0'}"]
    if dithered:
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
    if dithered:
        lines += ["        yt -= d"]
    lines += ["        qt = yt - v",
              "        y[t] = yt",
              "        q[t] = qt",
              "        u = x[t] - yt"]
    for j in range(n):
        head = f"s{j + 1} + " if j < n - 1 else ""
        lines += [f"        s{j} = {head}b{j} * u - a{j} * v",
                  f"        if abs(s{j}) > max_state:",
                  f"            max_state = abs(s{j})"]
    lines += ["        if max_state > state_limit:",
              "            break",
              "    return sat, max_state"]
    return "\n".join(lines) + "\n"


@functools.cache
def _body(n, dithered):
    """The loop body for (n, dithered), compiled on first use."""
    namespace = {"floor": floor}
    source = _body_source(n, dithered)
    exec(compile(source, f"<modulator body n={n} dithered={dithered}>", "exec"), namespace)
    return namespace["_body"]


def modulator_core(x, b, a, step, levels, dither, state_limit):
    """Run the modulator on x with loop filter coefficients b, a (see the
    module docstring), dithered when ``dither`` is non-empty.  x and dither
    are contiguous float64 arrays.  Returns (output, quantizer_error,
    saturation_count, max_abs_state)."""
    y = np.zeros(x.size)
    q = np.zeros(x.size)
    body = _body(len(b), dither.size > 0)
    sat, max_state = body(memoryview(x), [float(c) for c in b], [float(c) for c in a],
                          float(state_limit), memoryview(y), memoryview(q),
                          float(step), float(levels), memoryview(dither))
    return y, q, sat, max_state
