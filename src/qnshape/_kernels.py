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
lives in locals, its update is unrolled, the mode is fixed per call, and it
iterates the input (and dither) through ``memoryview``s of float64 arrays.
It stores one value per sample, the quantizer input v, and returns how many
samples ran.  The quantizer rule therefore appears twice: in the loop as the
scalar feedback u = x - y, which the recursion needs at once, and after it
in numpy, which derives the output y, the error q = y - v and the
saturation count from v over the samples that ran, one ufunc per float
operation of the loop.  Both follow ``reference_modulator`` in
``tests/test_kernels.py`` operation for operation, so every output matches
it bit for bit.

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
    a{j}, and the state update is unrolled.  Each sample stores its
    quantizer input in v_out and quantizes it once more only for the
    feedback u = x - y, with the float operations of ``reference_modulator``
    in the same order, so the feedback is bit-identical.  The plain mode
    drops the reference's ``+ 0.0`` and ``- 0.0`` for the missing dither:
    they change at most the sign of a zero quantizer input, and floor maps
    both signs of zero to the same level.  After each update, one range test
    on s0, the next quantizer input, ends the run when it leaves ±limit or is
    NaN, so ``math.floor`` only ever sees a finite value.  Returns (samples
    run, stable).  Order 0 has no state: its quantizer input is 0 throughout,
    v_out's initial zeros, and it never diverges.
    """
    lines = ["def _body(x, b, a, v_out, step, levels, dither):"]
    if n == 0:
        return "\n".join(lines + ["    return len(x), True"]) + "\n"
    lines += [f"    {''.join(f'{c}{j}, ' for j in range(n))}= {c}" for c in "ba"]
    lines += [f"    {' = '.join(f's{j}' for j in range(n))} = 0.0",
              "    limit = 10.0 * (levels * step / 2.0)",
              "    nlimit = -limit",
              "    top = (levels / 2.0 - 0.5) * step",
              "    ntop = -top"]
    loop = "t, xt, d in zip(range(len(x)), x, dither)" if dithered else "t, xt in enumerate(x)"
    lines += [f"    for {loop}:",
              "        v = s0",
              "        v_out[t] = v",
              f"        yt = (floor({'(v + d)' if dithered else 'v'} / step) + 0.5) * step",
              "        if yt > top:",
              "            yt = top",
              "        elif yt < ntop:",
              "            yt = ntop",
              f"        u = xt - {'(yt - d)' if dithered else 'yt'}"]
    for j in range(n):
        head = f"s{j + 1} + " if j < n - 1 else ""
        lines += [f"        s{j} = {head}b{j} * u - a{j} * v"]
    lines += ["        if not nlimit <= s0 <= limit:",
              "            return t + 1, False",
              "    return len(x), True"]
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
    step, levels = float(step), float(levels)
    dithered = dither.size > 0
    y = np.zeros(x.size)
    # q holds the quantizer input v until the outputs are derived from it
    q = np.zeros(x.size)
    ran, stable = _body(len(b), dithered)(
        memoryview(x), [float(c) for c in b], [float(c) for c in a], memoryview(q),
        step, levels, memoryview(dither))
    # the loop's quantizer again, one ufunc per float operation, in place
    v, out, d = q[:ran], y[:ran], dither[:ran]
    top = (levels / 2.0 - 0.5) * step
    if dithered:
        np.add(v, d, out=out)
        np.divide(out, step, out=out)
    else:
        np.divide(v, step, out=out)
    np.floor(out, out=out)
    np.add(out, 0.5, out=out)
    np.multiply(out, step, out=out)
    sat = np.count_nonzero(out > top) + np.count_nonzero(out < -top)
    np.clip(out, -top, top, out=out)
    if dithered:
        np.subtract(out, d, out=out)
    np.subtract(out, v, out=v)
    return y, q, int(sat), stable
