"""Optimal quantization-noise shaping under a converter power budget.

The closed form puts Sq proportional to Sv^(2/3) with a scale fixed by the
power constraint; evaluating it with the discrete band sum makes the
constraint exact on the grid.  That law is the small-noise limit of the
optimum.  optimal_sq_numerical solves the same loss exactly (one cubic per
bin and a bisection on the Lagrange multiplier) and serves as a cross-check
of the closed form, not as the production path.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import capacity
from .capacity import BitProfile, PowerBudget, as_budget, bits_from_sq
from .spectral import Psd, _fmt, _write_csv, require_same_grid

_SQRT12 = np.sqrt(12.0)

SMALLNESS_WARN_RATIO = 0.1


@dataclass(frozen=True, eq=False)
class ShapingResult:
    """Shaped quantization PSD with its bit profile and diagnostics.

    lagrange_scale is the squared bracket constant multiplying Sv^(2/3); the
    underlying Lagrange multiplier is recoverable from it (see the
    lagrange_multiplier property).  For the exact solve it is c^(2/3), where
    c is the common value of Sq^(3/2) / (Sv + Sq), so the multiplier keeps
    its meaning.  converged/iterations (bisection steps) are meaningful for
    the exact solve only.
    """

    sq_opt: Psd
    bit_profile: BitProfile
    achieved_power: PowerBudget
    info_loss: float
    lagrange_scale: float
    converged: bool = True
    iterations: int = 0

    @property
    def lagrange_multiplier(self):
        w = self.sq_opt.grid.width
        return 2.0 * w * np.log2(np.e) * self.lagrange_scale ** 1.5


@dataclass(frozen=True)
class SearchConfig:
    """Stopping rules for the exact solve's bisection on the multiplier.

    max_iters bounds the bisection steps; tolerance is the width in log c
    (about the relative width of the multiplier's bracket) at which it stops.
    seed is accepted and unused, because the solve is deterministic; it stays
    only because perfbench/workloads.py builds SearchConfig(seed=...).
    """

    max_iters: int = 200
    tolerance: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def _check_noise(noise):
    if np.any(noise.values <= 0):
        raise ValueError("noise PSD must be strictly positive")


def _closed_form_scale(sv, delta, p):
    bracket = delta * float(np.sum(sv ** (-1.0 / 3.0))) / (_SQRT12 * p)
    return bracket * bracket


def _closed_form_sq(noise, budget):
    """optimal_sq without its small-noise warning, for in-package comparisons."""
    _check_noise(noise)
    budget = as_budget(budget)
    g = noise.grid
    scale = _closed_form_scale(noise.values, g.delta, budget.p)
    sq = Psd(g, noise.values ** (2.0 / 3.0) * scale)
    return ShapingResult(
        sq_opt=sq,
        bit_profile=bits_from_sq(sq),
        achieved_power=capacity.power_of_sq(sq),
        info_loss=capacity.info_loss(noise, sq),
        lagrange_scale=scale,
    )


def optimal_sq(noise, budget):
    """Closed-form information-maximizing quantization noise shape.

    Sq(f) = Sv(f)^(2/3) * [ integral(Sv^(-1/3)) / (sqrt(12)*P) ]^2, evaluated
    with the grid's own Riemann sum so the power constraint holds exactly.
    Warns when the shape leaves its small-noise validity regime.
    """
    result = _closed_form_sq(noise, budget)
    ratio = float(np.max(result.sq_opt.values / noise.values))
    if ratio > SMALLNESS_WARN_RATIO:
        warnings.warn(
            f"quantization noise is not small relative to channel noise "
            f"(max Sq/Sv = {ratio:.3g}); the shape is outside its small-noise "
            f"validity regime",
            UserWarning,
            stacklevel=2,
        )
    return result


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
    stationary point is the unique global optimum.  Non-convergence within
    cfg.max_iters is reported through the result's converged flag, never
    raised.
    """
    if cfg is None:
        cfg = SearchConfig()
    budget = as_budget(budget)
    noise = ch.noise
    _check_noise(noise)
    g = noise.grid
    sv = noise.values
    scale = _closed_form_scale(sv, g.delta, budget.p)
    inv_root_sv = sv ** -0.5
    hi = 1.5 * np.log(scale)
    lo = hi - np.log1p(float(np.max(scale * sv ** (-1.0 / 3.0))))
    converged = False
    for iters in range(1, cfg.max_iters + 1):
        t = 0.5 * (lo + hi)
        u = _stationary_u(np.exp(t) * inv_root_sv)
        # power of Sq = u^2 Sv relative to the budget
        excess = g.delta * float(np.sum(inv_root_sv / u)) / (_SQRT12 * budget.p)
        if excess > 1.0:
            lo = t
        else:
            hi = t
        if hi - lo <= cfg.tolerance:
            converged = True
            break

    # scaling Sq by g^2 scales the power by 1/g
    sq = Psd(g, sv * (u * excess) ** 2)
    return ShapingResult(
        sq_opt=sq,
        bit_profile=bits_from_sq(sq),
        achieved_power=capacity.power_of_sq(sq),
        info_loss=capacity.info_loss(noise, sq),
        lagrange_scale=float(np.exp(2.0 * t / 3.0)),
        converged=converged,
        iterations=iters,
    )


@dataclass(frozen=True)
class ShapingReport:
    """Constraint residual, loss figures, and small-PSD validity margins."""

    power_residual: float
    info_loss: float
    loss_vs_closed_form: float
    max_sq_over_noise: float
    max_noise_over_signal: float
    min_bits: float


def verify_shaping(ch, sq, budget):
    """Check a candidate quantization PSD against its budget and the closed form.

    Reports (never raises on) power mismatch; the margins quantify how far
    the small-noise assumptions are stretched, and min_bits surfaces any
    negative-bit condition.
    """
    budget = as_budget(budget)
    require_same_grid(ch.grid, sq.grid, "channel and quantization PSD")
    achieved = capacity.power_of_sq(sq).p
    loss = capacity.info_loss(ch.noise, sq)
    closed = _closed_form_sq(ch.noise, budget)
    sx = ch.signal.values
    total_noise = ch.noise.values + sq.values
    with np.errstate(divide="ignore"):
        noise_over_signal = np.where(sx > 0, total_noise / np.where(sx > 0, sx, 1.0), np.inf)
    return ShapingReport(
        power_residual=(achieved - budget.p) / budget.p,
        info_loss=loss,
        loss_vs_closed_form=loss - closed.info_loss,
        max_sq_over_noise=float(np.max(sq.values / ch.noise.values)),
        max_noise_over_signal=float(np.max(noise_over_signal)),
        min_bits=float(np.min(bits_from_sq(sq).bits)),
    )


# ---------------------------------------------------------------------------
# serialization

def write_shaping_csv(result, path):
    _write_csv(path, "frequency_hz,sq_opt,bits",
               [result.sq_opt.grid.centers, result.sq_opt.values, result.bit_profile.bits])


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
