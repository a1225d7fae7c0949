"""Delta-sigma realization of a target quantization-noise shape.

z-domain loop algebra (NTF = 1/(1+H), STF = H/(1+H)), the NTF-induced
quantization PSD, loop-filter synthesis against a shaped target, and
time-domain simulation of the single-loop modulator with an embedded
mid-rise quantizer and unit feedback.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from ._kernels import MAX_LEVELS, modulator_core
from .spectral import FrequencyGrid, Psd, _require_finite, _write_csv, estimate_psd

_COEF_TOL = 1e-12


class DesignInfeasibleError(RuntimeError):
    """Raised when no stable NTF of the requested order meets the target.

    Carries the requested order and, once an NTF was fitted, its in-band RMS
    error in dB and its peak gain: the maximum of |NTF| on the unit circle,
    refined between grid samples (None before).
    """

    def __init__(self, message, achieved_rms_db=None, peak_gain=None, order=None):
        super().__init__(message)
        self.achieved_rms_db = achieved_rms_db
        self.peak_gain = peak_gain
        self.order = order


def _root_product(z, roots):
    """prod_k (z - roots[..., k]) at each point of the complex array z, for
    one root set of shape (n,) or a stack of them, (sets, n), one row per
    set: shape roots.shape[:-1] + z.shape, and 1 where there are no roots."""
    return np.prod(z[..., None] - roots[..., None, :], axis=-1)


@dataclass(frozen=True, eq=False)
class RationalTf:
    """z-domain rational transfer function in zero/pole/gain form.

    Polynomials are taken in descending powers of z.  Zeros and poles must
    occur in conjugate pairs so coefficients are real.
    """

    zeros: np.ndarray
    poles: np.ndarray
    gain: float

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.zeros, dtype=complex)).copy()
        p = np.atleast_1d(np.asarray(self.poles, dtype=complex)).copy()
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(p)) and np.isfinite(self.gain)):
            raise ValueError("zeros, poles and gain must be finite")
        for roots, name in ((z, "zeros"), (p, "poles")):
            coeffs = np.poly(roots) if roots.size else np.array([1.0])
            scale = max(float(np.max(np.abs(coeffs))), 1.0)
            if float(np.max(np.abs(np.imag(coeffs)))) > 1e-8 * scale:
                raise ValueError(f"{name} must occur in conjugate pairs (real coefficients)")
        z.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "zeros", z)
        object.__setattr__(self, "poles", p)
        object.__setattr__(self, "gain", float(self.gain))

    def __call__(self, z):
        """Evaluate at complex point(s) z."""
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        out = self.gain * _root_product(zz, self.zeros) / _root_product(zz, self.poles)
        return out if np.ndim(z) else out[0]

    @property
    def pole_radius(self):
        """The largest |pole|, or 0 with no poles."""
        return float(np.max(np.abs(self.poles), initial=0.0))

    def coeffs(self):
        """(num, den) real coefficients in descending powers of z, the shorter
        padded with leading zeros: a strictly proper numerator starts with 0."""
        num = np.real(self.gain * (np.poly(self.zeros) if self.zeros.size else np.ones(1)))
        den = np.real(np.poly(self.poles) if self.poles.size else np.ones(1))
        length = max(num.size, den.size)
        return np.pad(num, (length - num.size, 0)), np.pad(den, (length - den.size, 0))

    def is_monic(self):
        return self.zeros.size == self.poles.size and abs(self.gain - 1.0) <= 1e-9

    def is_stable(self):
        return self.pole_radius < 1.0


def _strip_leading(c):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return None
    keep = np.abs(c) > _COEF_TOL * scale
    first = int(np.argmax(keep))
    return c[first:]


def _tf_from_num_den(num, den):
    num = _strip_leading(num)
    den = _strip_leading(den)
    if den is None:
        raise ValueError("degenerate transfer function: denominator is zero")
    if num is None:
        return RationalTf(np.array([], dtype=complex), np.array([], dtype=complex), 0.0)
    zeros = np.roots(num) if num.size > 1 else np.array([], dtype=complex)
    poles = np.roots(den) if den.size > 1 else np.array([], dtype=complex)
    return RationalTf(zeros, poles, num[0] / den[0])


def ntf_from_loop(h):
    """Noise transfer function 1/(1+H) of the unit-feedback loop."""
    bn, ad = h.coeffs()
    return _tf_from_num_den(ad, ad + bn)


def stf_from_loop(h):
    """Signal transfer function H/(1+H) of the unit-feedback loop."""
    bn, ad = h.coeffs()
    return _tf_from_num_den(bn, ad + bn)


def loop_from_ntf(ntf):
    """Invert NTF = 1/(1+H): the loop filter H = (1-NTF)/NTF.

    Requires a monic, stable NTF; a zero at z -> infinity would make the
    loop non-realizable.
    """
    if ntf.zeros.size < ntf.poles.size:
        raise ValueError("NTF has a zero at z->infinity; loop is not invertible")
    if not ntf.is_monic():
        raise ValueError("loop inversion requires a monic NTF")
    if not ntf.is_stable():
        raise ValueError("loop inversion requires a stable NTF")
    num_ntf, den_ntf = ntf.coeffs()
    return _tf_from_num_den(den_ntf - num_ntf, num_ntf)


@dataclass(frozen=True)
class ModulatorConfig:
    """Modulator parameters: loop order, oversampling, quantizer geometry.

    The mid-rise quantizer has quantizer_levels output levels, an even
    number from 2 to MAX_LEVELS = 2^16, spaced by step; full scale is
    levels*step/2.  max_ntf_gain is the Lee-style peak-gain cap used during
    NTF synthesis.  The quantizer's noise density step^2/(12*sample_rate)
    must be a normal float, so full scale is finite.
    """

    order: int = 4
    osr: float = 12.0
    sample_rate: float = 1.0
    quantizer_levels: int = 16
    step: float = 0.125
    max_ntf_gain: float = 1.5
    dither: bool = False  # subtractive triangular-PDF dither, whitens y - v

    def __post_init__(self):
        _require_finite(osr=self.osr, sample_rate=self.sample_rate, step=self.step,
                        max_ntf_gain=self.max_ntf_gain)
        # bool is an Integral, but True is no loop order
        if isinstance(self.order, bool) or not isinstance(self.order, numbers.Integral):
            raise ValueError(f"order must be an integer >= 1, got {self.order!r}")
        if self.order < 1:
            raise ValueError("order must be >= 1: an order-0 loop cannot shape noise")
        if self.osr < 2:
            raise ValueError("osr must be >= 2")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not (2 <= self.quantizer_levels <= MAX_LEVELS and self.quantizer_levels % 2 == 0):
            raise ValueError(f"quantizer_levels must be an even integer from 2 to {MAX_LEVELS}, "
                             f"got {self.quantizer_levels!r}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        try:
            c0 = _quant_noise_level(self)
        except OverflowError:  # step ** 2 beyond the float range
            c0 = math.inf
        if not sys.float_info.min <= c0 < math.inf:
            raise ValueError(f"step^2/(12*sample_rate) = {c0:.3g} is not a normal float "
                             f"(step={self.step!r}, sample_rate={self.sample_rate!r})")
        if self.max_ntf_gain <= 1.0:
            raise ValueError("max_ntf_gain must exceed 1")

    @property
    def full_scale(self):
        return self.quantizer_levels * self.step / 2.0

    @property
    def band_edge(self):
        """Upper edge of the signal band, sample_rate/(2*osr)."""
        return self.sample_rate / (2.0 * self.osr)


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Per-sample record of one modulator run."""

    input: np.ndarray
    output: np.ndarray
    quantizer_error: np.ndarray
    saturation_count: int
    stability_flag: bool

    def __post_init__(self):
        if not (self.input.size == self.output.size == self.quantizer_error.size):
            raise ValueError("trace sequences must have equal length")


def ntf_quant_psd(ntf, cfg, grid):
    """Quantization PSD induced by an NTF: step^2/(12*fs) * |NTF(e^j2pi f/fs)|^2.

    Note this is the analytic model's two-sided density convention; see
    measured_vs_predicted for the reconciliation with one-sided estimates.
    """
    fs = cfg.sample_rate
    _check_within_nyquist(grid, fs)
    return Psd(grid, _quant_noise_level(cfg) * _ntf_power_gain(ntf, grid.centers, fs))


def _check_within_nyquist(grid, fs):
    if grid.f_lo < -1e-12 * fs or grid.f_hi > fs / 2.0 * (1.0 + 1e-12):
        raise ValueError("grid must lie within [0, sample_rate/2]")


def _ntf_power_gain(ntf, freqs, fs):
    """|NTF(e^(j 2pi f/fs))|^2 at each frequency f, from the NTF's roots."""
    return np.abs(ntf(np.exp(2j * np.pi * freqs / fs))) ** 2


def _quant_noise_level(cfg):
    """c0 = step^2/(12*fs): the unshaped quantizer's two-sided noise density."""
    return cfg.step ** 2 / (12.0 * cfg.sample_rate)


# ---------------------------------------------------------------------------
# NTF synthesis

_ZERO_RADIUS_BETA = 0.6      # sets null depth: 1-rho = beta*theta_b/(2*pairs)
_PEAK_GRID = 256             # peak-gain grid points on [0, pi], each maximum then refined
_POLE_RADIUS_MAX = 0.97      # the fit's box on pole radii
# a grid sample sits at most half a spacing from its lobe's peak, where one
# pole of radius at most _POLE_RADIUS_MAX lowers |NTF| by at most this factor
_PEAK_LOBE_DROP = (1.0 + _POLE_RADIUS_MAX * (np.pi / (2 * (_PEAK_GRID - 1))) ** 2
                   / (1.0 - _POLE_RADIUS_MAX) ** 2) ** -0.5
_PEAK_TOL = 1e-9             # Newton step (rad) at which a refined peak has converged
_PEAK_STEPS = 40             # guard: bisection takes a spacing below _PEAK_TOL in 24 steps
_BOUND_HOLD = 1e-9           # fraction of a box side that counts as sitting on its bound
_RMS_LIMIT_DB = 6.0          # in-band RMS fit error beyond which a design is infeasible


def _log_slope(t, zeros, poles):
    """(g, g', |NTF|) at z = e^(j t) for root lists zeros and poles, with
    g = d ln|NTF| / dt = sum_zeros -Im(z/(z - w)) + sum_poles Im(z/(z - p))
    and g' = sum_zeros Re(z*w/(z - w)^2) - sum_poles Re(z*p/(z - p)^2),
    from one difference z - root per root."""
    z = complex(math.cos(t), math.sin(t))
    g = slope = 0.0
    value = 1.0
    for w in zeros:
        d = z - w
        u = z / d
        g -= u.imag
        slope += (u * w / d).real
        value *= abs(d)
    for p in poles:
        d = z - p
        u = z / d
        g += u.imag
        slope -= (u * p / d).real
        value /= abs(d)
    return g, slope, value


def _refine_peak(zeros, poles, mag):
    """(theta, peak): the maximum over theta in [0, pi] of
    |NTF(e^(j theta))| = prod|z - zeros| / prod|z - poles|, from its samples
    mag on the _PEAK_GRID-point grid theta_k = k*pi/(_PEAK_GRID - 1).

    Each grid local maximum m that may hold the peak is refined by a
    safeguarded Newton iteration on g = d ln|NTF| / d theta (_log_slope),
    kept inside the bracket [theta_(m-1), theta_(m+1)], which the sign of g
    at each iterate narrows: the Newton step is taken when g' < 0 and it
    lands inside the bracket, and the bracket is bisected otherwise.  At
    theta = 0 and pi, g vanishes by symmetry: an end sample is a maximum
    when g' < 0 there, and otherwise the iteration starts inside its
    one-sided bracket, at the middle.

    Which maxima: a lobe's peak lies within half a spacing h/2 of its best
    sample, and k poles of radius at most 0.97 gathered at the peak's angle
    lower that sample by at most (1 + 0.97 (h/2)^2 / 0.03^2)^(-k/2), a factor
    of 0.980 per pole (_PEAK_LOBE_DROP).  So a local maximum that reads below
    0.980^len(poles) of the grid maximum cannot hold the peak, and every
    other one is refined.  The bound counts poles only: a zero close to a
    pole can split a lobe into two maxima within one bracket, and the
    iteration then finds one of them (the infeasible wireline fit of
    tools/design_sweep.py at OSR 16, order 4 reads 4.9e-6 below its
    2^16-point maximum, and tests/test_deltasigma.py's ZERO_SPLIT 1.18e-3).

    Magnitudes at refined points come from the iteration's own per-root
    differences, and peak is the largest value seen, the grid maximum
    included.  At the refined point g = 0, so d peak / dx is the partial
    derivative of |NTF(e^(j theta))| at fixed theta (the envelope theorem)."""
    n = mag.size
    h = np.pi / (n - 1)
    top = int(mag.argmax())
    theta, peak = top * h, float(mag[top])
    keep = mag >= _PEAK_LOBE_DROP ** len(poles) * peak
    keep[1:] &= mag[1:] >= mag[:-1]
    keep[:-1] &= mag[:-1] >= mag[1:]
    zeros, poles = zeros.tolist(), poles.tolist()
    for m in np.flatnonzero(keep).tolist():
        lo, hi = max(m - 1, 0) * h, min(m + 1, n - 1) * h
        t = m * h
        if m in (0, n - 1):
            _, slope, value = _log_slope(t, zeros, poles)
            if slope < 0.0:
                if value > peak:
                    theta, peak = t, value
                continue
            t = 0.5 * (lo + hi)
        else:
            a, b, c = mag[m - 1:m + 2].tolist()
            if a - 2.0 * b + c < 0.0:
                # the vertex of the parabola through the three samples
                t += 0.5 * h * (a - c) / (a - 2.0 * b + c)
        for _ in range(_PEAK_STEPS):
            g, slope, value = _log_slope(t, zeros, poles)
            if value > peak:
                theta, peak = t, value
            if g > 0.0:
                lo = t
            else:
                hi = t
            if slope < 0.0 and lo < t - g / slope < hi:
                step = -g / slope
            else:
                step = 0.5 * (lo + hi) - t
            if abs(step) <= _PEAK_TOL:
                break
            t += step
    return theta, peak


def _pair_roots(x, order):
    """Roots r*e^(+-j*phi) for each (r, phi) pair of x, then the real root
    x[-1] for odd order, and a function building d root / d x as an
    (order, len(x)) complex matrix."""
    pairs = order // 2
    r, phi = x[0:2 * pairs:2], x[1:2 * pairs:2]
    up, down = np.exp(1j * phi), np.exp(-1j * phi)
    roots = np.empty(order, dtype=complex)
    roots[0:2 * pairs:2] = r * up
    roots[1:2 * pairs:2] = r * down
    if order % 2:
        roots[-1] = x[2 * pairs]

    def droots():
        d = np.zeros((order, len(x)), dtype=complex)
        j = np.arange(pairs)
        d[2 * j, 2 * j] = up
        d[2 * j + 1, 2 * j] = down
        d[2 * j, 2 * j + 1] = 1j * roots[0:2 * pairs:2]
        d[2 * j + 1, 2 * j + 1] = -1j * roots[1:2 * pairs:2]
        if order % 2:
            d[-1, 2 * pairs] = 1.0
        return d
    return roots, droots


def _carved_zero_angles(target_sq, cfg):
    """Initial in-band zero angles carved from the target: Legendre node
    fractions warped by the 1/target measure, so zeros concentrate where the
    target is lowest (evenly spread for a flat target)."""
    order = cfg.order
    fs = cfg.sample_rate
    weight = 1.0 / target_sq.values
    cum = np.concatenate([[0.0], np.cumsum(weight)])
    cum /= cum[-1]
    nodes = np.polynomial.legendre.leggauss(order)[0]
    pos = np.sort(nodes[nodes > 1e-12])
    zero_freqs = np.interp(pos, cum, target_sq.grid.edges)
    return 2.0 * np.pi * zero_freqs / fs


def _butter_highpass_poles(order, fc, fs):
    """z-plane poles of the order-n Butterworth high-pass with cutoff fc: the
    analog prototype's left-half-plane poles, the low-to-high-pass map
    s = w/p at the prewarped cutoff w = 2 fs tan(pi fc/fs), then the bilinear
    map z = (2 fs + s)/(2 fs - s)."""
    proto = np.exp(1j * np.pi * (2 * np.arange(order) + order + 1) / (2 * order))
    s = 2.0 * fs * np.tan(np.pi * fc / fs) / proto
    return (2.0 * fs + s) / (2.0 * fs - s)


def _initial_pole_params(order, cfg):
    """Butterworth high-pass prototypes at a few cutoffs, as (r, phi) vectors."""
    fs = cfg.sample_rate
    starts = []
    for mult in (1.0, 1.8, 3.0):
        fc = min(cfg.band_edge * mult, 0.45 * fs)
        poles = _butter_highpass_poles(order, fc, fs)
        pairs = sorted((p for p in poles if p.imag > 1e-12), key=lambda p: abs(np.angle(p)))
        x = []
        for p in pairs:
            x.extend([min(abs(p), 0.955), min(abs(np.angle(p)), 0.55 * np.pi)])
        if order % 2:
            reals = [p.real for p in poles if abs(p.imag) <= 1e-12]
            x.append(min(max(reals[0] if reals else 0.5, 0.0), 0.955))
        starts.append(np.array(x))
    return starts


def _plus_diagonal(a, d):
    """a + np.diag(d) for a square a, bit for bit: the same sums, without
    np.diag's Python-level wrapper."""
    out = np.zeros(a.size)
    out[::d.size + 1] = d
    out = out.reshape(a.shape)
    out += a
    return out


def _bounded_lm(fun, x0, lo, hi):
    """Minimize 0.5*|f(x)|^2 over the box lo < x < hi by Levenberg-Marquardt
    (Moré, "The Levenberg-Marquardt algorithm: implementation and theory",
    1978): Marquardt scaling by the running maximum of diag(J^T J) and
    gain-ratio damping updates.

    fun(x) returns (f(x), jac), and jac() builds the Jacobian at x from that
    evaluation; it is called only at the start and at accepted points.
    Iterates stay strictly inside the box: a step goes at most 99.5% of the
    way to a bound and never rounds onto it, and a coordinate at a bound
    whose gradient points out of the box is held.  (A pole angle clipped onto
    0 would stall there, since d|NTF|/d phi = 0 at phi = 0.)  Stops when an
    accepted step lowers the cost by at most 1e-12 of it, when a step is
    shorter than 1e-12 relative to x, or after 500 evaluations of fun.
    Returns (x, cost).  The loop calls ufuncs and array methods rather than
    numpy's Python-level wrappers; each float operation is the one the
    wrapper would perform."""
    x = np.array(x0, dtype=float)
    f, jac = fun(x)
    cost, nfev = 0.5 * float(f @ f), 1
    mu, nu, scale = 1e-2, 2.0, np.zeros(x.size)
    near = _BOUND_HOLD * (hi - lo)
    new_point = True
    while nfev < 500:
        if new_point:
            jx = jac()
            grad, normal = jx.T @ f, jx.T @ jx
            scale = np.maximum(scale, normal.diagonal())
            free = ~(((x - lo <= near) & (grad > 0)) | ((hi - x <= near) & (grad < 0)))
            all_free = bool(free.all())
            # np.linalg.norm's own 1-D formula
            x_norm = math.sqrt(x @ x)
        if all_free:
            step = np.linalg.solve(_plus_diagonal(normal, mu * scale), -grad)
        else:
            step = np.zeros(x.size)
            step[free] = np.linalg.solve(
                _plus_diagonal(normal[free][:, free], mu * scale[free]), -grad[free])
        # np.clip's minimum(maximum(...)) on finite values
        step = np.minimum(np.maximum(step, 0.995 * (lo - x)), 0.995 * (hi - x))
        # a bound a few ulps away can still be reached by rounding: stay put
        step[(x + step <= lo) | (x + step >= hi)] = 0.0
        f_new, jac_new = fun(x + step)
        nfev += 1
        cost_new = 0.5 * float(f_new @ f_new)
        predicted = -float(grad @ step) - 0.5 * float(((jx @ step) ** 2).sum())
        rho = (cost - cost_new) / predicted if predicted > 0 else -1.0
        short = math.sqrt(step @ step) <= 1e-12 * (1e-12 + x_norm)
        if rho > 0:
            done = short or cost - cost_new <= 1e-12 * cost
            x, f, jac, cost = x + step, f_new, jac_new, cost_new
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu, new_point = 2.0, True
        else:
            done = short
            mu *= nu
            nu, new_point = 2.0 * nu, False
        if done:
            break
    return x, cost


def _best_fit(fun, starts, lo, hi):
    """The lowest-cost (x, cost) that _bounded_lm reaches from the starts,
    each moved at least 1e-6 inside the box; a start whose damped normal
    equations turn singular is skipped.  None when every start is."""
    best = None
    for x0 in starts:
        try:
            sol = _bounded_lm(fun, np.clip(x0, lo + 1e-6, hi - 1e-6), lo, hi)
        except np.linalg.LinAlgError:
            continue
        if best is None or sol[1] < best[1]:
            best = sol
    return best


def design_ntf(target_sq, cfg):
    """Synthesize a monic stable NTF whose induced quantization PSD matches
    target_sq in-band.

    Two-stage nonlinear least squares on in-band log magnitude with the
    peak-gain cap as a penalty: first the poles alone, with zeros fixed near
    the unit circle at angles carved from the target shape, then a joint
    polish of zero angles and poles (zero radii stay on the fixed shallow
    rule).  Each stage keeps the best of its starts (_best_fit), fitted on
    the exact Jacobian from d ln|NTF| / d root.  Each residual evaluation
    takes one root product over the in-band and peak grids together, for
    the zeros and poles stacked; stage 1 multiplies its frozen zeros out
    once per design and its poles alone at each evaluation.  The peak gain
    that the cap holds is the continuous maximum of |NTF| over the upper
    half circle, refined from the _PEAK_GRID-point grid by _refine_peak, not
    a grid sample; the penalty row's slope is taken at the refined point.
    Raises DesignInfeasibleError (with the in-band RMS error and peak gain)
    when the fit exceeds the gain cap by over 1% or misses the target by
    over _RMS_LIMIT_DB RMS.
    """
    order = cfg.order
    fs = cfg.sample_rate
    if np.any(target_sq.values <= 0):
        raise ValueError("target PSD must be strictly positive in-band")
    if target_sq.grid.f_hi > cfg.band_edge * (1.0 + 1e-9) or target_sq.grid.f_lo < -1e-12 * fs:
        raise ValueError("target grid must lie within the signal band [0, fs/(2*osr)]")

    theta_b = np.pi / cfg.osr
    zero_angles0 = _carved_zero_angles(target_sq, cfg)
    pairs = order // 2
    rho = 1.0 - _ZERO_RADIUS_BETA * theta_b / (2.0 * max(pairs, 1))

    z_in = np.exp(2j * np.pi * target_sq.grid.centers / fs)
    z_dense = np.exp(1j * np.linspace(0.0, np.pi, _PEAK_GRID))
    # one root product covers the fit rows and the peak grid
    z_all = np.concatenate([z_in, z_dense])
    n_in = z_in.size
    # the Jacobian's points: the fit rows, then the peak bin, set per call
    z_jac = np.append(z_in, 0j)[:, None]
    to_log10_sq = 2.0 / np.log(10.0)

    c0 = _quant_noise_level(cfg)
    log_target = np.log10(target_sq.values)
    pen_weight = 30.0 * np.sqrt(log_target.size)
    cap = cfg.max_ntf_gain

    def residual(zeros, dzeros, poles, dpoles, num=None):
        """Fit rows and penalty row at the given roots, a function building
        their exact Jacobian, and the peak.  dzeros and dpoles build d root/dx
        for the fitted parameters; num is the zeros' root product on z_all,
        when it is known already."""
        if num is None:
            num, den = _root_product(z_all, np.array((zeros, poles)))
        else:
            den = _root_product(z_all, poles)
        mag = np.abs(num / den)
        f = np.empty(n_in + 1)
        np.subtract(np.log10(c0 * mag[:n_in] ** 2), log_target, out=f[:n_in])
        theta, peak = _refine_peak(zeros, poles, mag[n_in:])
        f[n_in] = pen_weight * max(0.0, (peak - cap) / cap)

        def jac():
            # each zero w adds ln|z - w| and each pole subtracts it, and
            # d ln|z - w| / dx = Re(-(dw/dx) / (z - w))
            z_jac[n_in] = complex(math.cos(theta), math.sin(theta))
            rows = np.concatenate(((-(1.0 / (z_jac - zeros)) @ dzeros()).real,
                                   ((1.0 / (z_jac - poles)) @ dpoles()).real), axis=1)
            rows[:-1] *= to_log10_sq
            # the penalty's slope pen_weight/cap * d peak/dx, at the refined
            # peak, where d ln|NTF| / d theta = 0 (the envelope theorem)
            rows[-1] *= pen_weight / cap * peak if peak > cap else 0.0
            return rows
        return f, jac, peak

    radii = np.full(order, rho)

    def zeros_at(angles):
        """The zeros rho*e^(+-j*angle), then rho for odd order, and a function
        building d zero / d angle."""
        x = radii.copy()
        x[1::2] = angles
        zeros, dzeros = _pair_roots(x, order)
        # contiguous, since numpy's @ may pass a strided operand to its own loop, not BLAS
        return zeros, lambda: dzeros()[:, 1::2].copy()

    # stage 1: poles only, zeros frozen at the carved placement
    pole_lo, pole_hi = np.zeros(order), np.full(order, _POLE_RADIUS_MAX)
    pole_hi[1::2] = 0.6 * np.pi  # the pair angles; radii and a real pole stay below the max
    zeros0 = zeros_at(zero_angles0)[0]
    num0 = _root_product(z_all, zeros0)
    frozen = (zeros0, lambda: np.zeros((order, 0)))
    stage1 = _best_fit(lambda x: residual(*frozen, *_pair_roots(x, order), num0)[:2],
                       _initial_pole_params(order, cfg), pole_lo, pole_hi)
    if stage1 is None:
        raise DesignInfeasibleError("pole optimization failed for all starting points",
                                    order=order)

    # stage 2: polish zero angles jointly with the poles
    def joint(x):
        return (*zeros_at(x[:pairs]), *_pair_roots(x[pairs:], order))

    spread = (np.arange(pairs) + 0.5) / max(pairs, 1) * theta_b
    best = _best_fit(lambda x: residual(*joint(x))[:2],
                     [np.concatenate([angles, stage1[0]]) for angles in (zero_angles0, spread)],
                     np.concatenate([np.zeros(pairs), pole_lo]),
                     np.concatenate([np.full(pairs, theta_b), pole_hi]))
    if best is None:
        raise DesignInfeasibleError("joint zero/pole polish failed", order=order)

    rts = joint(best[0])
    f, _, peak = residual(*rts)
    rms_db = 10.0 * float(np.sqrt(np.mean(f[:-1] ** 2)))
    fitted = {"achieved_rms_db": rms_db, "peak_gain": peak, "order": order}
    if peak > cap * 1.01:
        raise DesignInfeasibleError(
            f"peak NTF gain {peak:.3f} exceeds the cap {cap:.3f}; "
            f"in-band RMS error {rms_db:.2f} dB",
            **fitted,
        )
    if rms_db > _RMS_LIMIT_DB:
        raise DesignInfeasibleError(
            f"order-{order} NTF cannot express the target: in-band RMS error "
            f"{rms_db:.2f} dB exceeds {_RMS_LIMIT_DB:.2f} dB",
            **fitted,
        )
    return RationalTf(rts[0], rts[2], 1.0)


# ---------------------------------------------------------------------------
# time-domain simulation

def simulate(h, cfg, input_samples, seed=0):
    """Run the single-loop modulator on an input sequence.

    The loop filter h must be strictly proper (no delay-free path).  The
    trace records the output, the per-sample quantizer error y-v, the
    saturation count, and a stability flag that clears when the quantizer
    input leaves ±10x quantizer full scale or is NaN; the outputs stop there.
    Instability is a reported state, not an exception.  Input samples must
    be finite.
    """
    x = np.ascontiguousarray(input_samples, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("input_samples must be finite")
    bn, ad = h.coeffs()
    # an improper H pads its denominator, so ad[0] == 0: check before dividing
    scale = max(float(np.max(np.abs(bn))), float(np.max(np.abs(ad))))
    if ad[0] == 0.0 or abs(bn[0]) > 1e-9 * scale:
        raise ValueError("loop filter must be strictly proper (H -> 0 as z -> infinity)")

    if cfg.dither:
        rng = np.random.default_rng(seed)
        dither = (rng.random(x.size) - rng.random(x.size)) * cfg.step
    else:
        dither = np.zeros(0)

    y, q, sat, stable = modulator_core(
        x, bn[1:] / ad[0], ad[1:] / ad[0], cfg.step, cfg.quantizer_levels, dither,
    )
    return SimulationTrace(
        input=x,
        output=y,
        quantizer_error=q,
        saturation_count=int(sat),
        stability_flag=stable,
    )


def _bin_average(freqs, vals, grid):
    """The mean of vals over each bin of grid that holds some of the
    ascending freqs, and vals interpolated at the center of every other bin."""
    cut = np.searchsorted(freqs, grid.edges).tolist()
    out = np.interp(grid.centers, freqs, vals)
    for k, (a, b) in enumerate(zip(cut[:-1], cut[1:])):
        if b > a:
            out[k] = np.mean(vals[a:b])
    return out


@dataclass(frozen=True, eq=False)
class TrackingReport:
    """Measured shaped noise PSD and the NTF's prediction on a reference's
    grid, with the RMS dB error of measured against the reference's values
    (rms_db_error) and against predicted (predicted_rms_db_error)."""

    grid: FrequencyGrid
    measured: np.ndarray
    predicted: np.ndarray
    rms_db_error: float
    predicted_rms_db_error: float


_TRACKING_SEGMENT = 4096


def _min_tracking_samples():
    """Fewest trace samples n that leave a full Welch segment of S samples
    (_TRACKING_SEGMENT) after measured_vs_predicted drops min(S, n // 4)
    start-up samples: n - n // 4 = ceil(3n/4) >= S exactly when n > 4(S-1)/3."""
    return 4 * (_TRACKING_SEGMENT - 1) // 3 + 1


def measured_vs_predicted(trace, ntf, cfg, reference):
    """Estimate the trace's shaped quantization noise PSD and compare it
    in-band with the NTF's prediction and with reference (e.g. a shaping
    target), on reference's grid.

    The loop's algebra, v = H*(input - output) and output = v + q, gives
    output = STF*input + NTF*q for every run, saturating runs included,
    where q is the recorded trace.quantizer_error.  The shaped noise is
    therefore NTF*q, and its PSD is |NTF|^2 times q's.  q's one-sided Welch
    estimate, over _TRACKING_SEGMENT-sample Hann segments with half overlap
    after min(_TRACKING_SEGMENT, N // 4) start-up samples, is halved to the
    analytic model's two-sided density convention, multiplied by
    |NTF(e^(j 2pi f/fs))|^2, evaluated once from the roots at the in-band
    Welch bins, then bin-averaged onto reference.grid.  The prediction is
    the NTF-induced PSD c0*|NTF|^2 of ntf_quant_psd at the same Welch bins,
    bin-averaged the same way.  A comparison bin that holds no Welch bin
    takes the value interpolated at its center.  The Welch estimate reads
    the trace in place and transforms its segments in fixed blocks, summed
    first segment first (see estimate_psd), so the report adds a fixed
    amount of scratch to the trace, not a multiple of its length.

    A trace of fewer than _min_tracking_samples() samples, or a reference
    grid beyond [0, sample_rate/2] or ending below the first Welch bin
    center, is refused before any estimate.  An NTF with a pole on or outside
    the unit circle raises ValueError naming that radius: |NTF|^2 is the PSD
    gain of NTF*q only for a causal stable NTF.
    """
    if not trace.stability_flag:
        raise ValueError("trace is from an unstable run; comparison is meaningless")
    radius = ntf.pole_radius
    if radius >= 1.0:
        raise ValueError(f"tracking requires a stable NTF: largest pole radius {radius:.6g} >= 1")
    grid = reference.grid
    _check_within_nyquist(grid, cfg.sample_rate)
    spacing = cfg.sample_rate / _TRACKING_SEGMENT
    if grid.f_hi * (1.0 + 1e-12) < spacing / 2.0:
        raise ValueError(f"reference grid f_hi = {grid.f_hi:.6g} Hz lies below the first Welch "
                         f"bin center: Welch bins are fs/{_TRACKING_SEGMENT} = {spacing:.6g} Hz wide")
    n, min_samples = trace.input.size, _min_tracking_samples()
    if n < min_samples:
        raise ValueError(f"trace has too few samples for the tracking report: "
                         f"{n} < {min_samples}")

    # the loop's start-up transient; _min_tracking_samples follows this rule
    skip = min(_TRACKING_SEGMENT, n // 4)
    est = estimate_psd(trace.quantizer_error[skip:], cfg.sample_rate, _TRACKING_SEGMENT)
    fine_f = est.grid.centers
    inband = fine_f <= grid.f_hi * (1.0 + 1e-12)
    fine_f = fine_f[inband]
    gain = _ntf_power_gain(ntf, fine_f, cfg.sample_rate)
    measured = _bin_average(fine_f, est.values[inband] / 2.0 * gain, grid)
    predicted = _bin_average(fine_f, _quant_noise_level(cfg) * gain, grid)
    rms_db_error, predicted_rms_db_error = (
        float(np.sqrt(np.mean((10.0 * np.log10(measured / v)) ** 2)))
        for v in (reference.values, predicted))
    return TrackingReport(grid, measured, predicted, rms_db_error, predicted_rms_db_error)


# ---------------------------------------------------------------------------
# serialization

def _fmt_pair(c):
    return f"{c.real:.17g},{c.imag:.17g}"


def write_tf(tf, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("zeros: " + " ".join(_fmt_pair(z) for z in tf.zeros) + "\n")
        fh.write("poles: " + " ".join(_fmt_pair(p) for p in tf.poles) + "\n")
        fh.write(f"gain: {tf.gain:.17g}\n")


def _parse_pairs(text):
    parts = text.split()
    vals = []
    for part in parts:
        re_s, im_s = part.split(",")
        vals.append(complex(float(re_s), float(im_s)))
    return np.array(vals, dtype=complex)


def read_tf(path):
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, rest = line.partition(":")
            fields[key.strip()] = rest.strip()
    if not {"zeros", "poles", "gain"} <= set(fields):
        raise ValueError("transfer function file must have zeros:, poles: and gain: lines")
    return RationalTf(_parse_pairs(fields["zeros"]), _parse_pairs(fields["poles"]),
                      float(fields["gain"]))


def write_trace_csv(trace, path):
    _write_csv(path, "n,input,output,qerror",
               [np.arange(trace.input.size), trace.input, trace.output,
                trace.quantizer_error])
