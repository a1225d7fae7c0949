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

The modulator has diverged once the next quantizer input leaves ±10x full
scale (``levels * step / 2``) or is NaN.  The loop then stops, leaving the
rest of the output and the quantizer error at 0, and reports the run
unstable.  The internal states are not watched: a loop whose direct-form
states grow large while the quantizer input stays in range has not diverged.

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


def _body_source(n, dithered):
    """Source of the modulator loop for loop order n, plain or dithered.

    The state s[j] becomes the local s{j}, b[j] and a[j] become b{j} and
    a{j}, and the state update is unrolled.  The float operations follow
    ``reference_modulator`` in the same order, so the results are
    bit-identical.  The plain mode drops the reference's ``+ 0.0`` and
    ``- 0.0`` for the missing dither: they change at most the sign of a zero
    quantizer input, and floor maps both signs of zero to the same level.
    After each update, one range test on s0, the next quantizer input, ends
    the run when it leaves ±limit or is NaN, so ``math.floor`` only ever sees
    a finite value.  Order 0 has no state and never diverges.
    """
    lines = ["def _body(x, b, a, y, q, step, levels, dither):"]
    if n > 0:
        lines += [f"    {''.join(f'{c}{j}, ' for j in range(n))}= {c}" for c in "ba"]
        lines += [f"    {' = '.join(f's{j}' for j in range(n))} = 0.0",
                  "    limit = 10.0 * (levels * step / 2.0)",
                  "    nlimit = -limit"]
    lines += ["    top = (levels / 2.0 - 0.5) * step",
              "    ntop = -top",
              "    sat = 0",
              "    for t in range(len(x)):",
              f"        v = {'s0' if n > 0 else '0.0'}"]
    if dithered:
        lines += ["        d = dither[t]",
                  "        yt = (floor((v + d) / step) + 0.5) * step"]
    else:
        lines += ["        yt = (floor(v / step) + 0.5) * step"]
    lines += ["        if yt > top:",
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
        lines += [f"        s{j} = {head}b{j} * u - a{j} * v"]
    if n > 0:
        lines += ["        if not nlimit <= s0 <= limit:",
                  "            return sat, False"]
    lines += ["    return sat, True"]
    return "\n".join(lines) + "\n"


@functools.cache
def _body(n, dithered):
    """The loop body for (n, dithered), compiled on first use."""
    namespace = {"floor": floor}
    source = _body_source(n, dithered)
    exec(compile(source, f"<modulator body n={n} dithered={dithered}>", "exec"), namespace)
    return namespace["_body"]


def modulator_core(x, b, a, step, levels, dither):
    """Run the modulator on x with loop filter coefficients b, a (see the
    module docstring), dithered when ``dither`` is non-empty.  x and dither
    are contiguous float64 arrays.  Returns (output, quantizer_error,
    saturation_count, stable)."""
    y = np.zeros(x.size)
    q = np.zeros(x.size)
    body = _body(len(b), dither.size > 0)
    sat, stable = body(memoryview(x), [float(c) for c in b], [float(c) for c in a],
                       memoryview(y), memoryview(q), float(step), float(levels),
                       memoryview(dither))
    return y, q, sat, stable
