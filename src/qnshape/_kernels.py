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
scale (``limit = 10 * levels * step / 2``) or is NaN.  The outputs then stop
at the sample whose update took it there: the rest of the output and the
quantizer error stay 0, and the run is reported unstable.  The internal
states are not watched: a loop whose direct-form states grow large while
the quantizer input stays in range has not diverged.

The loop is a per-sample recursion and cannot be vectorized.  It runs as a
pure-Python body generated per loop order and quantizer mode: the state
lives in locals, its update is unrolled, the mode is fixed per call, and it
iterates the input (and dither) through ``memoryview``s of float64 arrays.
It quantizes by table lookup, ``table[floor((v + d) / step) + off]``: one
list per call holds the clipped mid-rise level of every k that a
quantizer input within ±limit and a dither within ±max|d| can reach, so
about 10 * levels entries, those outside the levels all being the same two
float objects, ±top.

The loop body tests nothing per sample.  It stores one value per sample,
the quantizer input v, and runs on past a divergence, or raises once an
out-of-range v reaches ``floor`` (inf, NaN) or indexes past the table.
Every v within ±limit indexes the table correctly, so the first v out of
range is stored before anything goes wrong, and numpy finds the stop after
the run: the first stored v with ``not |v| <= limit``, or else the final
state s0, the next quantizer input after the last sample.  What came after
the stop, a negative index that wrapped included, is cut off.

The loop needs its level at once, for the feedback u = x - y.  After it,
numpy reads the output y from the same table at the same indices over the
samples that ran, and derives the error q = y - v and the saturation count.
Both follow ``reference_modulator`` in ``tests/test_kernels.py`` operation
for operation, so every output matches it bit for bit.  That work runs one
block of ``_LOOKUP_BLOCK`` samples at a time, in the output buffers
themselves; the saturation count is the sum of the blocks' integer counts.
Every step is elementwise, so the blocks change no bit, and the scratch
stays one block's indices and clip masks, not 8 bytes of indices per
sample.

Measure the kernel with the layer benchmark:
``python3 perfbench/run.py --workload compute --seed 11 --seconds 45 --trace 1``
reports ``kernels.modulator_core_s`` and ``kernels.ns_per_sample``.
"""

import functools
import math

import numpy as np

# there is no numba backend; perfbench's environment record reads this flag
HAVE_NUMBA = False

# the most levels a quantizer may have: with a dither within ±step, its
# table holds at most 10 * 2^16 + 7 entries (5 MB of list)
MAX_LEVELS = 2 ** 16

# samples per block of the output derivation after the loop, which then
# holds a block's level indices and clip masks at a time (128 kB of indices)
_LOOKUP_BLOCK = 2 ** 14


def _quantizer_table(step, levels, reach):
    """(table, off): table[k + off] is the mid-rise level k + 1/2 steps,
    clipped to ±top, for every k = floor(w / step) with |w| <= reach.
    Raises ValueError past 5 * MAX_LEVELS + 2 steps: ±10x the full scale of
    MAX_LEVELS levels, a step of dither and one to spare for rounding.

    For |w| <= reach, k lies within ±(floor(reach / step) + 1), float
    rounding being monotone, and off keeps one more entry at each end."""
    span = reach / step
    if not span <= 5 * MAX_LEVELS + 2:  # NaN and inf included
        raise ValueError(f"a quantizer table reaching {span:.6g} steps out is longer "
                         f"than that of {MAX_LEVELS} levels")
    off = math.floor(span) + 2
    top = (levels / 2.0 - 0.5) * step
    ntop = -top
    # beyond ±half every level clips, to these same two objects
    half = math.floor(levels / 2.0) + 1
    inner = range(max(-half, -off), min(half, off) + 1)
    table = ([ntop] * (inner.start + off)
             + [min(max((k + 0.5) * step, ntop), top) for k in inner]
             + [top] * (off + 1 - inner.stop))
    return table, off


def _body_source(n, dithered):
    """Source of the modulator loop for loop order n, plain or dithered.

    The state s[j] becomes the local s{j}, b[j] and a[j] become b{j} and
    a{j}, and the state update is unrolled.  Each sample stores its
    quantizer input in v_out and quantizes it once more only for the
    feedback u = x - y, with the float operations of ``reference_modulator``
    in the same order, so the feedback is bit-identical.  The plain mode
    drops the reference's ``+ 0.0`` and ``- 0.0`` for the missing dither:
    they change at most the sign of a zero quantizer input, and floor maps
    both signs of zero to the same level.  Returns the final s0, the next
    quantizer input after the last sample.  Order 0 has no state: its
    quantizer input is 0 throughout, v_out's initial zeros.
    """
    lines = ["def _body(x, b, a, v_out, step, table, off, dither):"]
    if n == 0:
        return "\n".join(lines + ["    return 0.0"]) + "\n"
    lines += [f"    {''.join(f'{c}{j}, ' for j in range(n))}= {c}" for c in "ba"]
    lines += [f"    {' = '.join(f's{j}' for j in range(n))} = 0.0"]
    loop = "t, xt, d in zip(range(len(x)), x, dither)" if dithered else "t, xt in enumerate(x)"
    k = f"floor({'(v + d)' if dithered else 'v'} / step)"
    lines += [f"    for {loop}:",
              "        v = s0",
              "        v_out[t] = v",
              f"        yt = table[{k} + off]",
              f"        u = xt - {'(yt - d)' if dithered else 'yt'}"]
    for j in range(n):
        head = f"s{j + 1} + " if j < n - 1 else ""
        lines += [f"        s{j} = {head}b{j} * u - a{j} * v"]
    lines += ["    return s0"]
    return "\n".join(lines) + "\n"


@functools.cache
def _body(n, dithered):
    """The loop body for (n, dithered), compiled on first use."""
    namespace = {"floor": math.floor}
    exec(compile(_body_source(n, dithered), f"<modulator body n={n} dithered={dithered}>",
                 "exec"), namespace)
    return namespace["_body"]


def modulator_core(x, b, a, step, levels, dither):
    """Run the modulator on x with loop filter coefficients b, a (see the
    module docstring), dithered when ``dither`` is non-empty.  x and dither
    are contiguous float64 arrays, and dither must be finite.  Returns
    (output, quantizer_error, saturation_count, stable)."""
    step, levels = float(step), float(levels)
    dithered = dither.size > 0
    reach = limit = 10.0 * (levels * step / 2.0)
    if dithered:
        hi, lo = float(dither.max()), float(dither.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError("dither must be finite")
        reach += max(hi, -lo)
    table, off = _quantizer_table(step, levels, reach)
    y = np.zeros(x.size)
    # q holds the quantizer input v until the outputs are derived from it
    q = np.zeros(x.size)
    try:
        last = _body(len(b), dithered)(
            memoryview(x), [float(c) for c in b], [float(c) for c in a], memoryview(q),
            step, table, off, memoryview(dither))
    except (OverflowError, ValueError, IndexError):
        # an out-of-range v reached floor or the table, and is stored
        last = math.nan
    ran, stable = x.size, True
    # min and max propagate NaN, and allocate nothing on a stable run
    if x.size and not (-limit <= q.min() and q.max() <= limit):
        ran, stable = int(np.argmin(np.abs(q) <= limit)), False
        q[ran:] = 0.0
    elif not abs(last) <= limit:
        stable = False
    # the loop's k = floor((v + d) / step) again, over the samples that ran,
    # then the level at table[k + off], y and q, one block at a time
    levels_at = np.array(table)
    sat = 0
    for start in range(0, ran, _LOOKUP_BLOCK):
        stop = min(start + _LOOKUP_BLOCK, ran)
        v, out, d = q[start:stop], y[start:stop], dither[start:stop]
        np.divide(np.add(v, d, out=out) if dithered else v, step, out=out)
        np.floor(out, out=out)
        # level k clips when |k + 1/2| > (levels - 1) / 2, that is k >= levels / 2
        # or k < -levels / 2 for even levels
        sat += np.count_nonzero(out > levels / 2 - 1) + np.count_nonzero(out < -levels / 2)
        np.add(out, off, out=out)
        # every index is in range; mode "wrap" spares take a buffer of the output
        np.take(levels_at, out.astype(np.intp), out=out, mode="wrap")
        if dithered:
            np.subtract(out, d, out=out)
        np.subtract(out, v, out=v)
    return y, q, int(sat), stable
