"""Optimal quantization-noise shaping under a converter power budget.

The closed form puts Sq proportional to Sv^(2/3) with a scale fixed by the
power constraint; evaluating it with the discrete band sum makes the
constraint exact on the grid.  That law is the small-noise limit of the
optimum.  optimal_sq_numerical solves the same loss exactly (one cubic per
bin and a bisection on the Lagrange multiplier) and serves as a cross-check
of the closed form, not as the production path.  A solve returns the shape
and multiplier it decides and measures nothing: verify_shaping and the
capacity functions (info_loss, power_of_sq, bits_from_sq) measure a shape.
"""

import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import capacity
from .capacity import _SQRT12, as_budget, bits_from_sq
from .spectral import Psd, _SHAPING_HEADER, _fmt, _write_csv, require_same_grid

SMALLNESS_WARN_RATIO = 0.1

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _stacklevel_outside_package():
    """The stacklevel, counted from the caller's frame as 1, of the nearest
    frame outside this package, so that a warning names the user's call and
    not the library line that made the solve (warnings.warn has no
    skip_file_prefixes before Python 3.12)."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True, eq=False)
class ShapingResult:
    """The quantization PSD a solve decides, with its multiplier.

    It holds what the solve decided and no measure of it: info_loss,
    power_of_sq and bits_from_sq measure sq_opt, and verify_shaping measures
    it against a budget.  lagrange_scale is the squared bracket constant
    multiplying Sv^(2/3); the underlying Lagrange multiplier is
    2 W log2(e) lagrange_scale^1.5 for a band of width W.  For the exact
    solve it is c^(2/3), where c is the common value of Sq^(3/2) / (Sv + Sq),
    so the multiplier keeps its meaning.  converged/iterations (bisection
    steps) are meaningful for the exact solve only.
    """

    sq_opt: Psd
    lagrange_scale: float
    converged: bool = True
    iterations: int = 0


# the exact solve's bisection stops once its bracket in log c is this wide,
# or after this many steps
_BISECTION_WIDTH = 1e-12
_BISECTION_STEPS = 200


@dataclass(frozen=True)
class SearchConfig:
    """Accepted by optimal_sq_numerical and unused, because the solve is
    deterministic; it stays only because perfbench/workloads.py builds
    SearchConfig(seed=...)."""

    seed: int = 0


def _check_noise(noise):
    if np.any(noise.values <= 0):
        raise ValueError("noise PSD must be strictly positive")


def _closed_form_scale(sv, delta, p):
    """[delta * sum(Sv^(-1/3)) / (sqrt(12) P)]^2, the closed form's factor on
    Sv^(2/3); a ValueError names the budget P when it is not a normal float."""
    with np.errstate(over="ignore"):
        bracket = delta * float(np.sum(sv ** (-1.0 / 3.0))) / (_SQRT12 * p)
        scale = bracket * bracket
    if not np.finfo(float).tiny <= scale < np.inf:
        raise ValueError(f"power budget {p:g} is out of range for this channel: the "
                         f"closed-form noise scale {scale:.3g} is not a normal float")
    return scale


def _nonzero(sq, p):
    """sq, or a ValueError naming the budget p when a bin underflowed to 0."""
    if not np.all(sq.values > 0):
        raise ValueError(f"power budget {p:g} is out of range for this channel: the "
                         f"quantization PSD underflows to 0 in some bin")
    return sq


def optimal_sq(noise, budget):
    """Closed-form information-maximizing quantization noise shape.

    Sq(f) = Sv(f)^(2/3) * [ integral(Sv^(-1/3)) / (sqrt(12)*P) ]^2, evaluated
    with the grid's own Riemann sum so the power constraint holds exactly.
    The package's one closed-form solve, for the partition functions too:
    each solve outside the small-noise regime (max Sq/Sv above
    SMALLNESS_WARN_RATIO) warns with that ratio, and still returns.  A
    budget whose shape underflows to 0 in some bin raises, naming it.
    """
    _check_noise(noise)
    budget = as_budget(budget)
    g = noise.grid
    scale = _closed_form_scale(noise.values, g.delta, budget.p)
    sq = _nonzero(Psd(g, noise.values ** (2.0 / 3.0) * scale), budget.p)
    ratio = float(np.max(sq.values / noise.values))
    if ratio > SMALLNESS_WARN_RATIO:
        warnings.warn(
            f"quantization noise is not small relative to channel noise "
            f"(max Sq/Sv = {ratio:.3g}); the shape is outside its small-noise "
            f"validity regime",
            UserWarning,
            stacklevel=_stacklevel_outside_package(),
        )
    return ShapingResult(sq_opt=sq, lagrange_scale=scale)


def _stationary_u(kappa):
    """Positive root u of u^3 - kappa*u^2 - kappa = 0, elementwise."""
    k2 = kappa * kappa
    # Cardano with u = y + kappa/3: the discriminant kappa^4/27 + kappa^2/4 is a
    # sum, and so is u = kappa/3 + s + kappa^2/(9 s); nothing cancels.  One
    # Newton step polishes the last bits.
    s = np.cbrt(kappa * k2 / 27.0 + 0.5 * kappa + np.sqrt(k2 * k2 / 27.0 + 0.25 * k2))
    u = kappa / 3.0 + s + k2 / (9.0 * s)
    return u - (u * u * (u - kappa) - kappa) / (u * (3.0 * u - 2.0 * kappa))


def optimal_sq_numerical(ch, budget, cfg=None):
    """Exact minimizer of the information-loss functional under the power
    constraint, without the closed form's small-noise approximation.

    Stationarity gives Sq^(3/2) / (Sv + Sq) = c in every bin, so
    u = sqrt(Sq/Sv) is the positive root of u^3 - kappa*u^2 - kappa = 0 with
    kappa = c / sqrt(Sv).  The power falls as c grows: the closed form's
    c0 = scale^(3/2) spends at most the budget and c0 / (1 + max Sq/Sv) at
    least, so bisection in log c on that bracket finds the multiplier and a
    last rescale meets the budget exactly.  In the variables Sq^(-1/2) the
    objective is strictly convex and the constraint linear, so this
    stationary point is the unique global optimum.

    The bisection stops once the bracket is _BISECTION_WIDTH wide in log c.
    The bracket is at most log1p(max Sq/Sv) <= ~710 wide, so that takes
    at most 50 steps; _BISECTION_STEPS caps them as a guard, and a solve that
    hits the cap is reported through the result's converged flag, never
    raised.  cfg is unused.
    """
    budget = as_budget(budget)
    _check_noise(ch.noise)
    g, sv = ch.noise.grid, ch.noise.values
    scale = _closed_form_scale(sv, g.delta, budget.p)
    inv_root_sv = sv ** -0.5
    hi = 1.5 * np.log(scale)
    with np.errstate(over="ignore", invalid="ignore"):
        lo = hi - np.log1p(float(np.max(scale * sv ** (-1.0 / 3.0))))
        # kappa = e^t / sqrt(Sv) is least at t = lo: kappa^4 overflowing there
        # overflows on the whole bracket, and a budget large enough that kappa
        # rounds to 0 there has Sq/Sv so small that the bracket has closed on lo
        if not np.all(np.isfinite(_stationary_u(np.exp(lo) * inv_root_sv))):
            raise ValueError(f"power budget {budget.p:g} is out of range for the exact solve "
                             f"on this channel: its multiplier leaves the float range")
    converged = False
    for iters in range(1, _BISECTION_STEPS + 1):
        t = 0.5 * (lo + hi)
        # where kappa^4 overflows, u and so excess are nan, which reads as t too high
        with np.errstate(over="ignore", invalid="ignore"):
            u = _stationary_u(np.exp(t) * inv_root_sv)
        # power of Sq = u^2 Sv relative to the budget
        excess = g.delta * float(np.sum(inv_root_sv / u)) / (_SQRT12 * budget.p)
        if excess > 1.0:
            lo = t
        else:
            hi = t
        if hi - lo <= _BISECTION_WIDTH:
            converged = True
            break

    # scaling Sq by g^2 scales the power by 1/g
    return ShapingResult(
        sq_opt=_nonzero(Psd(g, sv * (u * excess) ** 2), budget.p),
        lagrange_scale=float(np.exp(2.0 * t / 3.0)),
        converged=converged,
        iterations=iters,
    )


@dataclass(frozen=True)
class ShapingReport:
    """Constraint residual, small-noise loss, and small-PSD validity margins."""

    power_residual: float
    info_loss: float
    max_sq_over_noise: float
    max_noise_over_signal: float
    min_bits: float


def verify_shaping(ch, sq, budget):
    """Measure a candidate quantization PSD against its budget.

    Reports (never raises on) power mismatch; the margins quantify how far
    the small-noise assumptions are stretched, and min_bits surfaces any
    negative-bit condition.  It runs no solve and so never warns; the solve
    that made the candidate warns for it.
    """
    budget = as_budget(budget)
    require_same_grid(ch.grid, sq.grid, "channel and quantization PSD")
    achieved = capacity.power_of_sq(sq).p
    # Sv > 0, so a zero-signal bin reads inf
    with np.errstate(divide="ignore"):
        noise_over_signal = (ch.noise.values + sq.values) / ch.signal.values
    return ShapingReport(
        power_residual=(achieved - budget.p) / budget.p,
        info_loss=capacity.info_loss(ch.noise, sq),
        max_sq_over_noise=float(np.max(sq.values / ch.noise.values)),
        max_noise_over_signal=float(np.max(noise_over_signal)),
        min_bits=float(np.min(bits_from_sq(sq).bits)),
    )


# ---------------------------------------------------------------------------
# serialization

def write_shaping_csv(result, path):
    _write_csv(path, _SHAPING_HEADER,
               [result.sq_opt.grid.centers, result.sq_opt.values, bits_from_sq(result.sq_opt).bits])


def write_summary(entries, path):
    """Flat key=value sidecar; values formatted deterministically."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in entries.items():
            if isinstance(val, bool):
                fh.write(f"{key}={str(val).lower()}\n")
            elif isinstance(val, (int, np.integer)):
                fh.write(f"{key}={val}\n")
            elif isinstance(val, (float, np.floating)):
                fh.write(f"{key}={_fmt(val)}\n")
            else:
                fh.write(f"{key}={val}\n")
